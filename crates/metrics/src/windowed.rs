//! Windowed (per-interval) run summaries.
//!
//! Aggregate numbers hide dynamics: a popularity shift halfway through a
//! run depresses the hit rate *for a while*, then the collaborative cache
//! recovers — exactly the effect the dynamic-scenario experiments need to
//! make visible. [`WindowedSummary`] buckets per-frame observations into
//! fixed-width virtual-time windows so hit-rate / latency / accuracy can
//! be reported as a time series.

/// Aggregates of one virtual-time window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Frames completed inside the window.
    pub frames: u64,
    /// Frames whose prediction matched the ground truth.
    pub correct: u64,
    /// Frames answered by a cache hit (any layer).
    pub hits: u64,
    /// Sum of end-to-end frame latencies (ms) — divide by `frames`.
    pub latency_sum_ms: f64,
}

impl WindowStats {
    /// Cache hit ratio within the window (0.0 when empty).
    pub fn hit_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.hits as f64 / self.frames as f64
        }
    }

    /// Accuracy in percent within the window (0.0 when empty).
    pub fn accuracy_pct(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.correct as f64 / self.frames as f64 * 100.0
        }
    }

    /// Mean frame latency in ms within the window (0.0 when empty).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.latency_sum_ms / self.frames as f64
        }
    }
}

/// Per-interval summary over virtual time: the run's elapsed time tiles
/// into half-open windows, window `i` covering `[i·window_ms,
/// (i+1)·window_ms)`. Frames are bucketed by their completion instant;
/// a frame completing **exactly on a window boundary** (`at_ms == n ·
/// window_ms`) counts toward the window it executed in — the one the
/// boundary instant *terminates* (`n − 1`), not the one it opens. That
/// pins the convention so a run whose duration is an exact multiple of
/// the width spans exactly `duration / window_ms` windows instead of
/// growing a spurious trailing window covering time after the run ended.
/// (Instant 0 has no preceding window and lands in window 0.)
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSummary {
    window_ms: f64,
    windows: Vec<WindowStats>,
}

impl WindowedSummary {
    /// An empty summary with the given window width (ms).
    ///
    /// # Panics
    /// Panics if `window_ms` is not positive and finite.
    pub fn new(window_ms: f64) -> Self {
        assert!(
            window_ms > 0.0 && window_ms.is_finite(),
            "window width must be positive, got {window_ms}"
        );
        Self {
            window_ms,
            windows: Vec::new(),
        }
    }

    /// Hard cap on the bucket vector (1 M windows ≈ 32 MB): observations
    /// beyond it fold into the final bucket instead of growing the vector
    /// unboundedly. Reached only by degenerate window/eventtime
    /// combinations — `ScenarioSpec::validate` bounds event instants
    /// well below this for any sane `metrics_window_ms`.
    pub const MAX_WINDOWS: usize = 1 << 20;

    /// Records one completed frame at virtual instant `at_ms`.
    pub fn record(&mut self, at_ms: f64, latency_ms: f64, correct: bool, hit: bool) {
        // `⌈t/w⌉ − 1` attributes a boundary-exact completion to the
        // window it terminates (see the type docs); for interior instants
        // it equals the plain `⌊t/w⌋` bucket. The old `⌊t/w⌋` assignment
        // pushed `t == n·w` into window `n`, so a run of duration exactly
        // `n·w` spanned `n + 1` windows.
        let idx = ((at_ms.max(0.0) / self.window_ms).ceil() as usize)
            .saturating_sub(1)
            .min(Self::MAX_WINDOWS - 1);
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowStats::default());
        }
        let w = &mut self.windows[idx];
        w.frames += 1;
        if correct {
            w.correct += 1;
        }
        if hit {
            w.hits += 1;
        }
        w.latency_sum_ms += latency_ms;
    }

    /// The window width in milliseconds.
    pub fn window_ms(&self) -> f64 {
        self.window_ms
    }

    /// The windows, index 0 first. Trailing windows always contain at
    /// least one frame; interior windows may be empty (e.g. while every
    /// client waits out a slow link).
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Number of windows spanned so far.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_land_in_their_completion_window() {
        let mut s = WindowedSummary::new(100.0);
        s.record(10.0, 5.0, true, true);
        s.record(99.9, 15.0, false, false);
        s.record(150.0, 20.0, true, true);
        s.record(350.0, 30.0, true, false);
        assert_eq!(s.len(), 4);
        let w = s.windows();
        assert_eq!(w[0].frames, 2);
        assert_eq!(w[1].frames, 1);
        assert_eq!(w[2].frames, 0);
        assert_eq!(w[3].frames, 1);
        assert!((w[0].mean_latency_ms() - 10.0).abs() < 1e-9);
        assert!((w[0].hit_ratio() - 0.5).abs() < 1e-9);
        assert!((w[0].accuracy_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_exact_completions_terminate_their_window() {
        // A run whose every frame completes exactly on a boundary — the
        // degenerate case the ⌈t/w⌉−1 assignment exists for. Duration
        // 300 ms at 100 ms windows must span exactly 3 windows, not 4.
        let mut s = WindowedSummary::new(100.0);
        s.record(100.0, 1.0, true, true);
        s.record(200.0, 1.0, true, false);
        s.record(300.0, 1.0, false, true);
        assert_eq!(s.len(), 3, "no spurious trailing window");
        for w in s.windows() {
            assert_eq!(w.frames, 1);
        }
        // Instant 0 has no preceding window: it lands in window 0.
        let mut z = WindowedSummary::new(100.0);
        z.record(0.0, 1.0, true, true);
        assert_eq!(z.len(), 1);
        assert_eq!(z.windows()[0].frames, 1);
        // Interior instants keep the plain ⌊t/w⌋ bucket.
        let mut i = WindowedSummary::new(100.0);
        i.record(100.0 + 1e-9, 1.0, true, true);
        assert_eq!(i.len(), 2);
        assert_eq!(i.windows()[1].frames, 1);
    }

    #[test]
    fn empty_windows_report_zero() {
        let w = WindowStats::default();
        assert_eq!(w.hit_ratio(), 0.0);
        assert_eq!(w.accuracy_pct(), 0.0);
        assert_eq!(w.mean_latency_ms(), 0.0);
        assert!(WindowedSummary::new(50.0).is_empty());
    }

    #[test]
    fn far_future_observations_fold_into_the_capped_bucket() {
        let mut s = WindowedSummary::new(1.0);
        // An absurd completion instant must not allocate beyond the cap.
        s.record(1.0e18, 5.0, true, true);
        assert_eq!(s.len(), WindowedSummary::MAX_WINDOWS);
        assert_eq!(s.windows()[WindowedSummary::MAX_WINDOWS - 1].frames, 1);
    }
}
