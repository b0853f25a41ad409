//! Order statistics for the benchmark's timings: percentiles with their
//! sample counts, and the quartile spread `benchmark compare` judges by.

/// Sorts a sample in place (timings are never NaN).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Percentile `p` (0–100) of an ascending sample, interpolating linearly
/// between the two closest ranks. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Median of a sample the caller knows is not empty (0 if it is).
pub fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// What one timing reports: the sample count next to every percentile, so
/// a reader can tell a p99 over 200 samples from one over 200 000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample (any order). `None` when it is empty.
    pub fn of(xs: &[f64]) -> Option<Self> {
        let mut v = xs.to_vec();
        sort(&mut v);
        Some(Self {
            n: v.len(),
            p50: percentile(&v, 50.0)?,
            p90: percentile(&v, 90.0)?,
            p99: percentile(&v, 99.0)?,
            max: *v.last()?,
        })
    }
}

/// A bounded, evenly thinned sample of a stream of timings. A window may
/// see a million operations; keeping them all would make the benchmark's
/// own memory grow with the speed of what it measures. Every `stride`-th
/// value is kept, and when the buffer fills every second kept value is
/// dropped and the stride doubles — so what is left is always an even
/// 1-in-`stride` thinning of the whole stream.
#[derive(Debug, Clone)]
pub struct Samples {
    cap: usize,
    stride: usize,
    seen: usize,
    kept: Vec<f64>,
}

impl Default for Samples {
    fn default() -> Self {
        Self::with_capacity(1 << 14)
    }
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cap: cap.max(2),
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(x);
            }
        }
        self.seen += 1;
    }

    /// Values pushed, kept or not.
    pub fn seen(&self) -> usize {
        self.seen
    }

    pub fn kept(&self) -> &[f64] {
        &self.kept
    }

    /// Folds another thread's sample in (its thinning may differ; for the
    /// percentiles of two equally fast closed loops that does not matter).
    pub fn absorb(&mut self, other: Samples) {
        self.seen += other.seen;
        self.kept.extend(other.kept);
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance check uses. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a bound is compared against.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_report_their_sample_count() {
        let xs: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 101);
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p90, 91.0);
        assert_eq!(s.p99, 100.0);
        assert_eq!(s.max, 101.0);
        // Interpolation between ranks.
        assert_eq!(percentile(&[10.0, 20.0], 50.0), Some(15.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn samples_thin_evenly_and_keep_counting() {
        let mut s = Samples::with_capacity(8);
        for i in 0..100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.seen(), 100);
        assert!(s.kept().len() <= 8 && s.kept().len() >= 4);
        // What is kept is every stride-th value from the start.
        let stride = s.kept()[1] - s.kept()[0];
        assert!(s.kept().windows(2).all(|w| w[1] - w[0] == stride));
        assert_eq!(s.kept()[0], 0.0);
        // The thinned sample still finds the median of the stream.
        let p50 = Summary::of(s.kept()).unwrap().p50;
        assert!((p50 - 49.5).abs() <= stride, "p50 {p50} stride {stride}");
        // Under capacity nothing is dropped.
        let mut small = Samples::with_capacity(8);
        (0..5).for_each(|i| small.push(f64::from(i)));
        assert_eq!(small.kept(), [0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&xs), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
