//! Latency, accuracy and cache-hit recorders.

use crate::LatencyHistogram;
use coca_math::OnlineStats;
use coca_sim::SimDuration;

/// Streaming latency statistics: exact Welford moments (mean/min/max)
/// plus one [`LatencyHistogram`] for the p50/p95/p99 lower bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRecorder {
    stats: OnlineStats,
    hist: LatencyHistogram,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            stats: OnlineStats::new(),
            hist: LatencyHistogram::new(),
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        self.stats.push(d.as_millis_f64());
        self.hist.record(d);
    }

    /// Mean latency in milliseconds (0.0 when empty).
    pub fn mean_ms(&self) -> f64 {
        self.stats.mean()
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Median in milliseconds: the histogram's bucket lower bound, at
    /// most 1/64 below the exact value.
    pub fn p50_ms(&self) -> Option<f64> {
        self.hist.quantile_ms(0.5)
    }

    /// 95th percentile in milliseconds (lower bound, as [`Self::p50_ms`]).
    pub fn p95_ms(&self) -> Option<f64> {
        self.hist.quantile_ms(0.95)
    }

    /// 99th percentile in milliseconds (lower bound, as [`Self::p50_ms`]).
    pub fn p99_ms(&self) -> Option<f64> {
        self.hist.quantile_ms(0.99)
    }

    /// Maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> Option<f64> {
        self.stats.max()
    }
}

/// Counting accuracy recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccuracyRecorder {
    correct: u64,
    total: u64,
}

impl AccuracyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction outcome.
    pub fn record(&mut self, correct: bool) {
        self.total += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// Accuracy in [0, 1] (0.0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Accuracy in percent.
    pub fn accuracy_pct(&self) -> f64 {
        self.accuracy() * 100.0
    }

    /// Total predictions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Correct predictions recorded.
    pub fn correct(&self) -> u64 {
        self.correct
    }
}

/// Per-cache-layer hit bookkeeping.
///
/// Layer indices refer to the model's *preset* cache-layer positions
/// (0-based); a sample that reaches the classifier head without any hit
/// counts as a miss.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HitRecorder {
    /// `hits[j]` = samples that exited at cache layer `j`.
    hits: Vec<u64>,
    /// `correct[j]` = exits at layer `j` whose class was the true label.
    correct: Vec<u64>,
    misses: u64,
    miss_correct: u64,
}

impl HitRecorder {
    /// Recorder for a model with `num_layers` preset cache layers.
    pub fn new(num_layers: usize) -> Self {
        Self {
            hits: vec![0; num_layers],
            correct: vec![0; num_layers],
            misses: 0,
            miss_correct: 0,
        }
    }

    /// Records a cache hit at `layer` (whether the returned class was
    /// correct is tracked separately for the paper's "hit accuracy").
    pub fn record_hit(&mut self, layer: usize, correct: bool) {
        if layer >= self.hits.len() {
            self.hits.resize(layer + 1, 0);
            self.correct.resize(layer + 1, 0);
        }
        self.hits[layer] += 1;
        if correct {
            self.correct[layer] += 1;
        }
    }

    /// Records a full inference (cache miss end-to-end).
    pub fn record_miss(&mut self, correct: bool) {
        self.misses += 1;
        if correct {
            self.miss_correct += 1;
        }
    }

    /// Total samples observed.
    pub fn total(&self) -> u64 {
        self.hits.iter().sum::<u64>() + self.misses
    }

    /// Overall hit ratio in [0, 1].
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits.iter().sum::<u64>() as f64 / total as f64
        }
    }

    /// Fraction of *all* samples that exited at `layer` (the paper's
    /// per-layer hit ratio in Fig. 1(b)).
    pub fn layer_hit_ratio(&self, layer: usize) -> f64 {
        let total = self.total();
        if total == 0 || layer >= self.hits.len() {
            0.0
        } else {
            self.hits[layer] as f64 / total as f64
        }
    }

    /// Accuracy of the samples that exited at `layer` (`None` if no exits).
    pub fn layer_hit_accuracy(&self, layer: usize) -> Option<f64> {
        if layer >= self.hits.len() || self.hits[layer] == 0 {
            None
        } else {
            Some(self.correct[layer] as f64 / self.hits[layer] as f64)
        }
    }

    /// Accuracy over all cache hits (`None` if no hits).
    pub fn hit_accuracy(&self) -> Option<f64> {
        let hits: u64 = self.hits.iter().sum();
        if hits == 0 {
            None
        } else {
            Some(self.correct.iter().sum::<u64>() as f64 / hits as f64)
        }
    }

    /// Number of cache layers tracked.
    pub fn num_layers(&self) -> usize {
        self.hits.len()
    }

    /// Raw per-layer hit counts.
    pub fn hits_per_layer(&self) -> &[u64] {
        &self.hits
    }

    /// Full inferences recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Merges another recorder (layer counts align by index).
    pub fn merge(&mut self, other: &HitRecorder) {
        if other.hits.len() > self.hits.len() {
            self.hits.resize(other.hits.len(), 0);
            self.correct.resize(other.correct.len(), 0);
        }
        for (i, (&h, &c)) in other.hits.iter().zip(&other.correct).enumerate() {
            self.hits[i] += h;
            self.correct[i] += c;
        }
        self.misses += other.misses;
        self.miss_correct += other.miss_correct;
    }
}

/// One run's end-to-end summary: what every experiment table reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Per-frame end-to-end inference latency.
    pub latency: LatencyRecorder,
    /// Overall classification accuracy.
    pub accuracy: AccuracyRecorder,
    /// Cache-hit structure.
    pub hits: HitRecorder,
    /// Server-side sojourn (queue wait + merge compute) of this client's
    /// end-of-round uploads — the per-client share of server upload load.
    pub upload: LatencyRecorder,
}

impl RunSummary {
    /// Summary for a model with `num_layers` preset cache layers.
    pub fn new(num_layers: usize) -> Self {
        Self {
            latency: LatencyRecorder::new(),
            accuracy: AccuracyRecorder::new(),
            hits: HitRecorder::new(num_layers),
            upload: LatencyRecorder::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recorder_tracks_mean_and_quantiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(SimDuration::from_millis(i));
        }
        assert_eq!(r.count(), 100);
        assert!((r.mean_ms() - 50.5).abs() < 1e-9);
        let p50 = r.p50_ms().unwrap();
        assert!((p50 - 50.0).abs() < 3.0, "p50 {p50}");
        let p99 = r.p99_ms().unwrap();
        assert!(p99 > 95.0, "p99 {p99}");
        assert_eq!(r.max_ms(), Some(100.0));
    }

    #[test]
    fn latency_quantiles_are_lower_bounds_within_one_sub_bucket() {
        // Seeded Pareto(α = 1.5) latencies above 5 ms: a heavy tail, so
        // p95 and p99 sit many buckets above p50.
        let mut state = 0x5eed_0c0c_a000_0001u64;
        let mut uniform = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut r = LatencyRecorder::new();
        let mut sorted: Vec<u64> = (0..20_000)
            .map(|_| (5.0e6 / (1.0 - uniform()).powf(1.0 / 1.5)) as u64)
            .collect();
        for &ns in &sorted {
            r.record(SimDuration::from_nanos(ns));
        }
        sorted.sort_unstable();
        for (q, got) in [(0.5, r.p50_ms()), (0.95, r.p95_ms()), (0.99, r.p99_ms())] {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank - 1] as f64 / 1.0e6;
            let got = got.unwrap();
            assert!(got <= exact, "q={q}: {got} above exact {exact}");
            assert!(exact - got <= exact / 64.0, "q={q}: {got} vs exact {exact}");
        }
        assert!(
            r.p99_ms().unwrap() > 4.0 * r.p50_ms().unwrap(),
            "heavy tail"
        );
    }

    #[test]
    fn accuracy_recorder_counts() {
        let mut a = AccuracyRecorder::new();
        assert_eq!(a.accuracy(), 0.0);
        for i in 0..10 {
            a.record(i % 4 != 0);
        }
        assert_eq!(a.total(), 10);
        assert_eq!(a.correct(), 7);
        assert!((a.accuracy_pct() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn hit_recorder_layer_bookkeeping() {
        let mut h = HitRecorder::new(3);
        h.record_hit(0, true);
        h.record_hit(0, false);
        h.record_hit(2, true);
        h.record_miss(true);
        assert_eq!(h.total(), 4);
        assert!((h.hit_ratio() - 0.75).abs() < 1e-9);
        assert!((h.layer_hit_ratio(0) - 0.5).abs() < 1e-9);
        assert_eq!(h.layer_hit_accuracy(0), Some(0.5));
        assert_eq!(h.layer_hit_accuracy(1), None);
        assert_eq!(h.layer_hit_accuracy(2), Some(1.0));
        assert!((h.hit_accuracy().unwrap() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(h.misses(), 1);
    }

    #[test]
    fn hit_recorder_grows_on_out_of_range_layer() {
        let mut h = HitRecorder::new(1);
        h.record_hit(5, true);
        assert_eq!(h.num_layers(), 6);
        assert_eq!(h.layer_hit_ratio(5), 1.0);
    }

    #[test]
    fn hit_recorder_merge_aligns_layers() {
        let mut a = HitRecorder::new(2);
        a.record_hit(0, true);
        let mut b = HitRecorder::new(4);
        b.record_hit(3, false);
        b.record_miss(false);
        a.merge(&b);
        assert_eq!(a.num_layers(), 4);
        assert_eq!(a.total(), 3);
        assert_eq!(a.hits_per_layer(), &[1, 0, 0, 1]);
    }
}
