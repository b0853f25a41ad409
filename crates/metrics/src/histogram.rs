//! A fixed-bin, exactly-mergeable latency histogram.
//!
//! [`LatencyHistogram`] is the one quantile source of the workspace: every
//! [`LatencyRecorder`](crate::LatencyRecorder) keeps one, and the load
//! generator merges one per client thread. It buckets nanosecond durations
//! HDR-style (log₂ major buckets × 64 linear sub-buckets, ≤ 1/64 ≈ 1.6 %
//! relative error), so
//!
//! * recording is a shift/mask plus one counter increment — deterministic,
//!   no floating point;
//! * merging is element-wise `u64` addition — **exact** at any fan-in and
//!   any merge order;
//! * quantiles are deterministic bucket lower bounds — the same answer on
//!   every host, every run, every sharding of the same observations.
//!
//! The counter array grows only up to the highest major bucket recorded:
//! at the engine's 10⁷–10⁸ ns frame latencies that is ≤ 11 KiB, not the
//! ~30 KiB the full 64-bit range would take.

use coca_sim::SimDuration;

/// Sub-bucket resolution bits: 64 linear sub-buckets per power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per major (power-of-two) bucket.
const SUBS: u64 = 1 << SUB_BITS;

/// Deterministic log-linear histogram over `u64` nanosecond durations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Per-bucket counts, up to the end of the highest major bucket
    /// recorded so far.
    counts: Vec<u64>,
    count: u64,
    /// Exact nanosecond sum — `u128` so 2⁶⁴ observations of u64 values
    /// cannot overflow; the mean stays exact.
    sum_ns: u128,
    max_ns: u64,
}

/// Bucket index of a nanosecond value: identity below 64, then
/// `(msb-group, next 6 bits)`.
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns < SUBS {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let group = (msb - SUB_BITS + 1) as u64;
    ((group << SUB_BITS) | ((ns >> (msb - SUB_BITS)) & (SUBS - 1))) as usize
}

/// Inclusive lower bound (ns) of bucket `idx` — the inverse of
/// [`bucket_of`] up to sub-bucket truncation.
#[inline]
fn lower_bound_ns(idx: usize) -> u64 {
    let group = (idx as u64) >> SUB_BITS;
    let sub = (idx as u64) & (SUBS - 1);
    if group == 0 {
        sub
    } else {
        (SUBS + sub) << (group - 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Records one **wall-clock** duration (`std::time::Duration`, e.g.
    /// an `Instant::elapsed()`), saturating at `u64::MAX` ns (~584 years)
    /// — the load generator's per-request path, no hand conversion.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    fn record_ns(&mut self, ns: u64) {
        let idx = bucket_of(ns);
        if idx >= self.counts.len() {
            // Grow to the end of `idx`'s major bucket and no further (no
            // amortized doubling): the counters stay the size the largest
            // latency recorded needs.
            let len = (idx | (SUBS as usize - 1)) + 1;
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Median in milliseconds ([`Self::quantile_ms`] at q = 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile_ms(0.5)
    }

    /// 99th percentile in milliseconds ([`Self::quantile_ms`] at 0.99).
    pub fn p99(&self) -> Option<f64> {
        self.quantile_ms(0.99)
    }

    /// 99.9th percentile in milliseconds ([`Self::quantile_ms`] at
    /// 0.999) — the load generator's headline tail.
    pub fn p999(&self) -> Option<f64> {
        self.quantile_ms(0.999)
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean in milliseconds (0.0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_ns / self.count as u128) as f64 / 1.0e6
        }
    }

    /// Exact maximum in milliseconds.
    pub fn max_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_ns as f64 / 1.0e6)
    }

    /// Deterministic `q`-quantile in milliseconds: the lower bound of the
    /// bucket holding the `⌈q·count⌉`-th smallest observation (so the true
    /// value lies within one sub-bucket, ≤ 1/64 relative, above it).
    /// `None` when empty or `q` is not in `(0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(lower_bound_ns(idx) as f64 / 1.0e6);
            }
        }
        unreachable!("rank ≤ count must be reached by the cumulative scan")
    }

    /// Merges `other` into `self` — element-wise integer addition, exact
    /// at any fan-in and independent of merge order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total buckets: values `< 64` ns get exact unit buckets (one major
    /// group), then one 64-wide group per remaining leading-bit position.
    const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUBS as usize;

    #[test]
    fn bucketing_is_monotone_and_bounded() {
        let mut last = 0usize;
        for ns in (0..2_000u64).chain((0..64).map(|i| 1u64 << (i.min(63)))) {
            let b = bucket_of(ns);
            assert!(b < BUCKETS, "bucket {b} out of range for {ns}");
            let lb = lower_bound_ns(b);
            assert!(lb <= ns, "lower bound {lb} above value {ns}");
            // Relative error: value < lb + lb/64 + 1 (sub-bucket width).
            assert!(
                ns - lb <= (lb >> SUB_BITS) + (lb == ns) as u64
                    || ns < 64
                    || ns - lb <= lb / 64 + 1
            );
            if ns > 0 {
                assert!(bucket_of(ns) >= last.min(bucket_of(ns)), "monotone");
            }
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn exact_values_below_64ns() {
        for ns in 0..64u64 {
            assert_eq!(lower_bound_ns(bucket_of(ns)), ns);
        }
    }

    #[test]
    fn mean_and_quantiles_are_deterministic() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        assert_eq!(h.count(), 1000);
        // Exact integer mean: sum = 500500 µs over 1000 obs.
        assert!((h.mean_ms() - 0.5005).abs() < 1e-9);
        let p50 = h.quantile_ms(0.5).unwrap();
        assert!((p50 - 0.5).abs() / 0.5 < 1.0 / 64.0 + 1e-9, "p50 {p50}");
        let p99 = h.quantile_ms(0.99).unwrap();
        assert!((p99 - 0.99).abs() / 0.99 < 1.0 / 64.0 + 1e-9, "p99 {p99}");
        assert_eq!(h.max_ms(), Some(1.0));
        assert!(h.quantile_ms(0.0).is_none());
        assert!(h.quantile_ms(1.5).is_none());
    }

    #[test]
    fn record_duration_matches_record_bucket_for_bucket() {
        let mut sim = LatencyHistogram::new();
        let mut wall = LatencyHistogram::new();
        for ns in [0u64, 1, 63, 64, 999, 1_000_000, 7_777_777_777] {
            sim.record(SimDuration::from_nanos(ns));
            wall.record_duration(std::time::Duration::from_nanos(ns));
        }
        assert_eq!(sim.counts, wall.counts);
        assert_eq!(sim.sum_ns, wall.sum_ns);
        assert_eq!(sim.max_ms(), wall.max_ms());
        // Beyond-u64 wall durations saturate instead of wrapping.
        let mut h = LatencyHistogram::new();
        h.record_duration(std::time::Duration::MAX);
        assert_eq!(h.max_ns, u64::MAX);
    }

    #[test]
    fn convenience_quantiles_delegate_to_the_generic_path() {
        let mut h = LatencyHistogram::new();
        assert!(h.p50().is_none() && h.p99().is_none() && h.p999().is_none());
        for i in 1..=10_000u64 {
            h.record_duration(std::time::Duration::from_micros(i));
        }
        assert_eq!(h.p50(), h.quantile_ms(0.5));
        assert_eq!(h.p99(), h.quantile_ms(0.99));
        assert_eq!(h.p999(), h.quantile_ms(0.999));
        let (p50, p99, p999) = (h.p50().unwrap(), h.p99().unwrap(), h.p999().unwrap());
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(
            (p999 - 9.99).abs() / 9.99 < 1.0 / 64.0 + 1e-9,
            "p999 {p999}"
        );
    }

    #[test]
    fn merge_equals_single_pass_for_any_split() {
        let obs: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 13).collect();
        let mut whole = LatencyHistogram::new();
        for &ns in &obs {
            whole.record(SimDuration::from_nanos(ns));
        }
        for split in [1usize, 7, 250, 499] {
            let (a, b) = obs.split_at(split);
            let mut ha = LatencyHistogram::new();
            let mut hb = LatencyHistogram::new();
            for &ns in a {
                ha.record(SimDuration::from_nanos(ns));
            }
            for &ns in b {
                hb.record(SimDuration::from_nanos(ns));
            }
            ha.merge(&hb);
            assert_eq!(ha.count(), whole.count());
            assert_eq!(ha.sum_ns, whole.sum_ns);
            assert_eq!(ha.counts, whole.counts);
            for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(ha.quantile_ms(q), whole.quantile_ms(q), "q={q}");
            }
        }
    }
}
