//! The calibrated virtual-time cost model.
//!
//! Two anchors from the paper fix every constant here:
//!
//! * Edge-Only (no cache) latency per model — e.g. ResNet101 on UCF101
//!   inputs costs 40.58 ms (Table I); block latencies distribute that total
//!   according to the architecture's relative block weights, scaled by the
//!   dataset's input-cost factor.
//! * Lookup cost — with **all 34** ResNet101 cache layers active and the
//!   full 50-class UCF101 subset cached, total lookup time is **56.22 %**
//!   of the no-cache latency (paper §III.1). A lookup at one layer costs a
//!   fixed base (pooling + bookkeeping) plus a per-entry term proportional
//!   to the layer's feature dimension (one cosine per cached class).

use coca_sim::SimDuration;

use crate::arch::ModelArch;

/// Anchor: fraction of ResNet101's no-cache latency spent on lookups when
/// all 34 layers hold 50-class entries (paper §III.1).
pub const RESNET101_FULL_LOOKUP_FRACTION: f64 = 0.5622;

/// Fixed per-layer lookup overhead in ms (pooling the feature map into the
/// semantic vector + scoring bookkeeping).
pub const LOOKUP_BASE_MS: f64 = 0.05;

/// Per-entry lookup cost in ms for a 128-dimensional entry, derived from
/// the ResNet101 anchor; see [`per_entry_ms_at_dim128`] for the derivation
/// test.
pub const PER_ENTRY_MS_AT_DIM128: f64 = 0.013_03;

/// Reference dimension for [`PER_ENTRY_MS_AT_DIM128`].
pub const REF_DIM: f64 = 128.0;

/// Per-model, per-dataset virtual-time costs.
#[derive(Debug, Clone)]
pub struct LatencyProfile {
    /// Latency of each of the `L + 1` blocks.
    blocks: Vec<SimDuration>,
    /// Cumulative compute: `prefix[j]` = blocks `0..=j` (arriving at cache
    /// point `j` costs `prefix[j]`; full inference costs `prefix[L]`).
    prefix: Vec<SimDuration>,
}

impl LatencyProfile {
    /// Builds the profile for `arch` with inputs scaled by
    /// `input_cost_factor` (1.0 = the UCF101 anchor).
    pub fn new(arch: &ModelArch, input_cost_factor: f64) -> Self {
        assert!(
            input_cost_factor > 0.0,
            "input cost factor must be positive"
        );
        let weight_sum: f64 = arch.block_weights.iter().sum();
        let total_ms = arch.base_latency_ms * input_cost_factor;
        let blocks: Vec<SimDuration> = arch
            .block_weights
            .iter()
            .map(|w| SimDuration::from_millis_f64(total_ms * w / weight_sum))
            .collect();
        let mut prefix = Vec::with_capacity(blocks.len());
        let mut acc = SimDuration::ZERO;
        for &b in &blocks {
            acc += b;
            prefix.push(acc);
        }
        Self { blocks, prefix }
    }

    /// Number of compute blocks (`L + 1`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Latency of block `j`.
    pub fn block(&self, j: usize) -> SimDuration {
        self.blocks[j]
    }

    /// Compute cost to *arrive at* cache point `j` (blocks `0..=j`).
    pub fn compute_to_point(&self, j: usize) -> SimDuration {
        self.prefix[j]
    }

    /// Full no-cache compute (all `L + 1` blocks).
    pub fn full_compute(&self) -> SimDuration {
        *self.prefix.last().expect("at least one block")
    }

    /// Model compute saved by a hit at cache point `j` — the paper's Υ_j
    /// ("saved inference time … considering model computation time only").
    pub fn saved_if_hit_at(&self, j: usize) -> SimDuration {
        self.full_compute() - self.prefix[j]
    }

    /// Cost of one cache lookup at a point of dimension `dim` holding
    /// `entries` cached classes.
    pub fn lookup_cost(&self, dim: usize, entries: usize) -> SimDuration {
        SimDuration::from_millis_f64(lookup_cost_ms(dim, entries))
    }
}

/// Lookup cost formula in milliseconds, exposed for planners (the server's
/// ACA latency estimates use the same formula clients are charged).
pub fn lookup_cost_ms(dim: usize, entries: usize) -> f64 {
    LOOKUP_BASE_MS + PER_ENTRY_MS_AT_DIM128 * entries as f64 * dim as f64 / REF_DIM
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn block_latencies_sum_to_anchor() {
        let arch = zoo::resnet101();
        let p = LatencyProfile::new(&arch, 1.0);
        assert_eq!(p.num_blocks(), 35);
        // Per-block ns rounding bounds the total error by L/2 nanoseconds.
        assert!((p.full_compute().as_millis_f64() - 40.58).abs() < 1e-3);
        let sum: SimDuration = (0..p.num_blocks()).map(|j| p.block(j)).sum();
        // Prefix accumulates the same nanoseconds exactly.
        assert_eq!(sum, p.full_compute());
    }

    #[test]
    fn input_cost_factor_scales_total() {
        let arch = zoo::resnet101();
        let p = LatencyProfile::new(&arch, 44.87 / 40.58);
        assert!((p.full_compute().as_millis_f64() - 44.87).abs() < 0.01);
    }

    #[test]
    fn saved_time_decreases_with_depth() {
        let arch = zoo::resnet152();
        let p = LatencyProfile::new(&arch, 1.0);
        let l = arch.num_cache_points();
        for j in 1..l {
            assert!(p.saved_if_hit_at(j) < p.saved_if_hit_at(j - 1));
        }
        // Hitting at the first point saves almost everything.
        assert!(p.saved_if_hit_at(0).as_millis_f64() > 0.9 * p.full_compute().as_millis_f64());
    }

    /// The derivation behind [`PER_ENTRY_MS_AT_DIM128`]: with all 34
    /// ResNet101 layers active and 50 classes cached, total lookup cost
    /// must be ≈ 56.22 % of the 40.58 ms no-cache latency.
    #[test]
    fn per_entry_ms_at_dim128() {
        let arch = zoo::resnet101();
        let total_lookup_ms: f64 = arch
            .cache_points
            .iter()
            .map(|p| lookup_cost_ms(p.dim, 50))
            .sum();
        let frac = total_lookup_ms / 40.58;
        assert!(
            (frac - RESNET101_FULL_LOOKUP_FRACTION).abs() < 0.01,
            "lookup fraction {frac} vs anchor {RESNET101_FULL_LOOKUP_FRACTION}"
        );
    }

    #[test]
    fn lookup_cost_scales_with_entries_and_dim() {
        assert!(lookup_cost_ms(128, 100) > lookup_cost_ms(128, 10));
        assert!(lookup_cost_ms(256, 50) > lookup_cost_ms(64, 50));
        // Zero entries: only the base remains.
        assert!((lookup_cost_ms(128, 0) - LOOKUP_BASE_MS).abs() < 1e-12);
    }
}
