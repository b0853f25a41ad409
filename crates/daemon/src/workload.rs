//! Deterministic workload synthesis shared by the load generator, the
//! `exp daemon` experiment, and the digest-equivalence tests.
//!
//! Every message is a pure function of `(RunSpec, client, round)` —
//! the daemon and an in-process reference server fed the same
//! [`Workload`] in the same order therefore see byte-identical inputs,
//! which is what makes the loopback digest-equivalence check meaningful.

use rand::Rng;

use coca_core::collect::UpdateTable;
use coca_core::proto::{CacheRequest, UpdateUpload};
use coca_math::random_unit;
use coca_model::ModelRuntime;
use coca_sim::SeedTree;

use crate::core::RunSpec;

/// Fraction of classes a client's round touches (1 in `TOUCH_EVERY`),
/// mirroring the long-tail hot sets the engine produces.
const TOUCH_EVERY: usize = 4;
/// Layer stride of a round's collected cells.
const LAYER_STRIDE: usize = 3;

/// A deterministic multi-round fleet workload against one [`RunSpec`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The world both ends agree on.
    pub spec: RunSpec,
    /// Fleet size.
    pub clients: usize,
    /// Rounds per client.
    pub rounds: usize,
}

impl Workload {
    /// Π for every request: 1/8 of the task's full cache — the paper's
    /// Fig. 1(a) sweet spot, same as the engine's auto-budget.
    pub fn budget_bytes(&self, rt: &ModelRuntime) -> u64 {
        (rt.arch().full_cache_bytes(rt.num_classes()) / 8) as u64
    }

    /// The cache request client `k` sends in `round`. τ is a spread of
    /// per-class recencies that varies by client and round; R is the
    /// profile the daemon handed out at `Hello`.
    pub fn request(
        &self,
        rt: &ModelRuntime,
        profile: &[f64],
        k: usize,
        round: usize,
    ) -> CacheRequest {
        let classes = rt.num_classes();
        CacheRequest {
            client_id: k as u64,
            round: round as u64,
            timestamps: (0..classes)
                .map(|c| ((c * 13 + k * 7 + round * 3) % 60) as u32)
                .collect(),
            hit_ratio: profile.to_vec(),
            budget_bytes: self.budget_bytes(rt),
        }
    }

    /// The end-of-round upload for client `k` in `round`: unit feature
    /// centers on the client's class/layer touch set with real per-layer
    /// dimensions, plus a per-round φ — all drawn from the
    /// `("load-upload", k·rounds+round)` branch of the seed tree.
    pub fn upload(
        &self,
        rt: &ModelRuntime,
        seeds: &SeedTree,
        k: usize,
        round: usize,
    ) -> UpdateUpload {
        let classes = rt.num_classes();
        let layers = rt.num_cache_points();
        let idx = (k * self.rounds + round) as u64;
        let mut rng = seeds.child_idx("load-upload", idx).rng();
        let mut table = UpdateTable::new();
        for c in 0..classes {
            if (c + k + round).is_multiple_of(TOUCH_EVERY) {
                for l in (0..layers).step_by(LAYER_STRIDE) {
                    let v = random_unit(&mut rng, rt.feature_dim(l));
                    table.absorb(c, l, &v, 0.95);
                }
            }
        }
        let frequency: Vec<u64> = (0..classes).map(|_| rng.gen_range(1u64..30)).collect();
        // Under a quantized spec the sender snaps every vector onto the
        // precision grid before upload, exactly like the engine's
        // clients — the daemon's merge then sees the dequantized codes.
        if self.spec.precision != coca_math::Precision::F32 {
            table.quantize_in_place(self.spec.precision);
        }
        UpdateUpload {
            client_id: k as u64,
            round: round as u64,
            table,
            frequency,
            precision: self.spec.precision,
        }
    }

    /// Total request+upload operations across the fleet.
    pub fn total_ops(&self) -> u64 {
        (self.clients * self.rounds * 2) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_net::{Wire, WireSize};

    /// The message's `Wire` encoding — bit-exact, so equal bytes are
    /// equal values.
    fn bytes(msg: &impl Wire) -> Vec<u8> {
        let mut out = Vec::new();
        msg.encode(&mut out);
        out
    }

    #[test]
    fn workload_is_a_pure_function_of_its_coordinates() {
        let spec = RunSpec {
            classes: 12,
            ..RunSpec::default()
        };
        let (rt, _, seeds) = spec.build();
        let wl = Workload {
            spec,
            clients: 3,
            rounds: 2,
        };
        let profile = vec![0.5; rt.num_cache_points()];
        let a = wl.request(&rt, &profile, 1, 1);
        let b = wl.request(&rt, &profile, 1, 1);
        assert_eq!(bytes(&a), bytes(&b));
        let ua = wl.upload(&rt, &seeds, 2, 0);
        let ub = wl.upload(&rt, &seeds, 2, 0);
        assert_eq!(bytes(&ua), bytes(&ub));
        // Different coordinates draw different branches.
        let uc = wl.upload(&rt, &seeds, 2, 1);
        assert_ne!(bytes(&ua), bytes(&uc));
        assert!(ua.wire_bytes() > 0 && a.wire_bytes() > 0);
        assert_eq!(wl.total_ops(), 12);
    }
}
