//! Adaptive Cache Allocation — Algorithm 1 of the paper (§V.B).
//!
//! Stage 1 (hot-spot classes): score every class by global frequency ×
//! recency decay (Eq. 10)
//!
//! ```text
//! s_i = Φ_i · 0.2^⌊τ_i / F⌋
//! ```
//!
//! sort descending, and keep the shortest prefix holding ≥ 95 % of the
//! total score mass.
//!
//! Stage 2 (cache layers): estimate each layer's expected latency benefit
//! as `ζ_j = Υ_j · R_j` (saved compute × expected hit ratio) and greedily
//! take the best layer while the allocation fits the memory budget Π.
//! After selecting layer `b`, deflate `R_j` for `j ≥ b` by `R_b` — the
//! paper's hypothesis that samples hitting at `b` would also have hit at
//! any deeper layer, so deeper layers should only be credited for the
//! *additional* mass they capture.

use coca_net::wire::{decode_seq, encode_seq};
use coca_net::{FrameError, Reader, Wire};

use crate::config::CocaConfig;

/// Inputs to one allocation decision for one client.
#[derive(Debug, Clone)]
pub struct AcaInputs<'a> {
    /// Φ — global class frequencies (server state).
    pub global_freq: &'a [u64],
    /// τ — this client's class timestamps.
    pub timestamps: &'a [u32],
    /// R — expected standalone hit ratio per preset cache layer.
    pub hit_ratio: &'a [f64],
    /// Υ — model compute saved by a hit at each layer, in milliseconds.
    pub saved_ms: &'a [f64],
    /// m_j — bytes of one entry at each layer.
    pub entry_bytes: &'a [usize],
    /// Π — the client's cache budget in bytes.
    pub budget_bytes: usize,
}

/// The allocation decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcaOutput {
    /// Hot-spot classes (descending score order).
    pub hot_classes: Vec<usize>,
    /// Selected cache layers (selection order — by expected benefit).
    pub layers: Vec<usize>,
}

/// `[u32 n][n × u64 class][u32 m][m × u64 layer]`, both in decision
/// order. Whether the indices fit a table is the snapshot validator's
/// check: an allocation on its own has no table.
impl Wire for AcaOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.hot_classes, out);
        encode_seq(&self.layers, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            hot_classes: decode_seq(r, 8)?,
            layers: decode_seq(r, 8)?,
        })
    }
}

impl AcaOutput {
    /// Total bytes this allocation occupies given per-layer entry sizes.
    pub fn bytes(&self, entry_bytes: &[usize]) -> usize {
        self.layers
            .iter()
            .map(|&j| entry_bytes[j] * self.hot_classes.len())
            .sum()
    }

    /// Dense indicator matrix X (row-major classes × layers), as in the
    /// paper's problem formulation (Eq. 9).
    pub fn indicator(&self, num_classes: usize, num_layers: usize) -> Vec<bool> {
        let mut x = vec![false; num_classes * num_layers];
        for &c in &self.hot_classes {
            for &j in &self.layers {
                x[c * num_layers + j] = true;
            }
        }
        x
    }
}

/// Stage 1: hot-spot class selection (Algorithm 1 lines 1–10).
///
/// Falls back to *all* classes when every score is zero (cold start before
/// any frequency information exists).
pub fn select_hot_classes(cfg: &CocaConfig, global_freq: &[u64], timestamps: &[u32]) -> Vec<usize> {
    let n = global_freq.len();
    assert_eq!(timestamps.len(), n, "τ length mismatch");
    let f = cfg.round_frames as f64;
    let scores: Vec<f64> = global_freq
        .iter()
        .zip(timestamps)
        .map(|(&phi, &tau)| {
            let staleness = (tau as f64 / f).floor();
            phi as f64 * cfg.recency_base.powf(staleness)
        })
        .collect();
    let total: f64 = scores.iter().sum();
    if total <= 0.0 {
        return (0..n).collect();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let mut hot = Vec::new();
    let mut acc = 0.0;
    for i in order {
        hot.push(i);
        acc += scores[i];
        if acc >= total * cfg.hotspot_mass {
            break;
        }
    }
    hot
}

/// Stage 2: greedy benefit-ordered layer selection (Algorithm 1 lines
/// 11–21) under the byte budget.
pub fn select_layers(cfg: &CocaConfig, inputs: &AcaInputs<'_>, num_hot: usize) -> Vec<usize> {
    let l = inputs.hit_ratio.len();
    assert_eq!(inputs.saved_ms.len(), l, "Υ length mismatch");
    assert_eq!(inputs.entry_bytes.len(), l, "entry size length mismatch");
    if num_hot == 0 {
        return Vec::new();
    }
    let mut r: Vec<f64> = inputs.hit_ratio.to_vec();
    let mut chosen = vec![false; l];
    let mut layers = Vec::new();
    let mut used_bytes = 0usize;
    loop {
        // ζ = Υ ⊙ R over unchosen layers, optionally normalized by the
        // layer's memory cost (budgeted greedy).
        let mut best: Option<(usize, f64)> = None;
        for j in 0..l {
            if chosen[j] {
                continue;
            }
            let mut zeta = inputs.saved_ms[j] * r[j].max(0.0);
            if cfg.aca_per_byte {
                zeta /= inputs.entry_bytes[j].max(1) as f64;
            }
            if zeta > 0.0 && best.is_none_or(|(_, bz)| zeta > bz) {
                best = Some((j, zeta));
            }
        }
        let Some((b, _)) = best else { break };
        let add = inputs.entry_bytes[b] * num_hot;
        if used_bytes + add > inputs.budget_bytes {
            // Algorithm 1 lines 14–16: stop just before exceeding Π.
            break;
        }
        used_bytes += add;
        chosen[b] = true;
        layers.push(b);
        if cfg.aca_deflation {
            // Lines 19–21: deeper layers only get credit for extra mass.
            let p = r[b];
            for rj in r.iter_mut().skip(b) {
                *rj = (*rj - p).max(0.0);
            }
        } else {
            r[b] = 0.0;
        }
    }
    layers
}

/// The full two-stage allocation (Algorithm 1).
pub fn allocate(cfg: &CocaConfig, inputs: &AcaInputs<'_>) -> AcaOutput {
    let hot_classes = select_hot_classes(cfg, inputs.global_freq, inputs.timestamps);
    let layers = select_layers(cfg, inputs, hot_classes.len());
    AcaOutput {
        hot_classes,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_model::ModelId;

    fn cfg() -> CocaConfig {
        CocaConfig::for_model(ModelId::ResNet101)
    }

    fn inputs<'a>(
        freq: &'a [u64],
        tau: &'a [u32],
        r: &'a [f64],
        upsilon: &'a [f64],
        bytes: &'a [usize],
        budget: usize,
    ) -> AcaInputs<'a> {
        AcaInputs {
            global_freq: freq,
            timestamps: tau,
            hit_ratio: r,
            saved_ms: upsilon,
            entry_bytes: bytes,
            budget_bytes: budget,
        }
    }

    #[test]
    fn hot_classes_follow_frequency_and_recency() {
        let cfg = cfg();
        let freq = [1000u64, 1000, 10, 10];
        // Class 1 was last seen 3 rounds ago: decays by 0.2³ = 0.008.
        let tau = [0u32, 900, 0, 900];
        let hot = select_hot_classes(&cfg, &freq, &tau);
        // Scores: 1000, 8, 10, 0.08 → class 0 alone holds 98 % ≥ 95 %.
        assert_eq!(hot, vec![0]);
    }

    #[test]
    fn hot_classes_cover_the_mass_threshold() {
        let cfg = cfg();
        let freq = [100u64; 10];
        let tau = [0u32; 10];
        let hot = select_hot_classes(&cfg, &freq, &tau);
        // Uniform scores: need ⌈0.95·10⌉ = 10 classes to reach 95 %.
        assert_eq!(hot.len(), 10);
    }

    #[test]
    fn cold_start_selects_all_classes() {
        let cfg = cfg();
        let freq = [0u64; 5];
        let tau = [u32::MAX / 2; 5];
        let hot = select_hot_classes(&cfg, &freq, &tau);
        assert_eq!(hot.len(), 5);
    }

    #[test]
    fn layers_are_picked_by_benefit_within_budget() {
        let cfg = cfg();
        let freq = [10u64; 2];
        let tau = [0u32; 2];
        // Layer 1 has the best Υ·R product; layer 0 second; layer 2 last.
        let r = [0.30, 0.50, 0.40];
        let u = [10.0, 9.0, 2.0];
        let bytes = [100usize, 100, 100];
        // Budget for exactly two layers × 2 hot classes.
        let inp = inputs(&freq, &tau, &r, &u, &bytes, 400);
        let out = allocate(&cfg, &inp);
        assert_eq!(out.hot_classes.len(), 2);
        assert_eq!(out.layers, vec![1, 0]);
        assert!(out.bytes(&bytes) <= 400);
    }

    #[test]
    fn deflation_redirects_to_shallower_layers() {
        // Two adjacent deep layers with nearly identical high R: with
        // deflation the second pick should NOT be the neighbour (its extra
        // mass is tiny) but the shallow layer with independent mass.
        let mut cfg = cfg();
        let freq = [10u64];
        let tau = [0u32];
        let r = [0.30, 0.55, 0.56];
        let u = [6.0, 4.0, 3.9];
        let bytes = [10usize, 10, 10];
        let inp = inputs(&freq, &tau, &r, &u, &bytes, 10_000);
        cfg.aca_deflation = true;
        let with = select_layers(&cfg, &inp, 1);
        // First pick: layer 2 (0.56·3.9 = 2.184) vs layer 1 (2.2) — layer 1
        // wins narrowly; after deflation layer 2 keeps only 0.01 mass, so
        // layer 0 comes next.
        assert_eq!(with[0], 1);
        assert_eq!(with[1], 0);
        cfg.aca_deflation = false;
        let without = select_layers(&cfg, &inp, 1);
        assert_eq!(without[0], 1);
        assert_eq!(
            without[1], 2,
            "without deflation the twin layer is double-counted"
        );
    }

    #[test]
    fn budget_is_a_hard_cap() {
        let cfg = cfg();
        let freq = [10u64; 4];
        let tau = [0u32; 4];
        let r = [0.5; 6];
        let u = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0];
        let bytes = [128usize; 6];
        for budget in [0usize, 100, 512, 1024, 3000, 100_000] {
            let inp = inputs(&freq, &tau, &r, &u, &bytes, budget);
            let out = allocate(&cfg, &inp);
            assert!(
                out.bytes(&bytes) <= budget,
                "allocation {} exceeds budget {budget}",
                out.bytes(&bytes)
            );
        }
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let cfg = cfg();
        let freq = [10u64; 2];
        let tau = [0u32; 2];
        let r = [0.9, 0.9];
        let u = [10.0, 10.0];
        let bytes = [100usize, 100];
        let out = allocate(&cfg, &inputs(&freq, &tau, &r, &u, &bytes, 0));
        assert!(out.layers.is_empty());
        assert!(!out.hot_classes.is_empty());
    }

    #[test]
    fn indicator_matrix_shape() {
        let out = AcaOutput {
            hot_classes: vec![0, 2],
            layers: vec![1],
        };
        let x = out.indicator(3, 2);
        assert_eq!(x, vec![false, true, false, false, false, true]);
    }
}
