//! The operation pools every serving workload cycles through. They are
//! built in set-up from `--seed`, so a timed window contains no synthesis
//! (`Workload::upload` alone costs ~0.6 ms) and the program under test
//! receives nothing but the generated messages.

use coca_core::collect::UpdateTable;
use coca_core::proto::{CacheRequest, UpdateUpload};
use coca_daemon::{ClientMsg, RunSpec, Workload};
use coca_math::random_unit;
use coca_model::ModelRuntime;
use coca_sim::SeedTree;

/// Closed-loop clients (threads, connections). Fixed at the reference
/// host's `nproc` so numbers from different hosts compare.
pub const CLIENTS: usize = 2;
/// Rounds per client pool; a window cycles through them.
pub const POOL_ROUNDS: usize = 64;

/// Message sizes of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's normal exchange: Π = 1/8 of the full cache, a quarter
    /// of the classes uploaded at every third layer.
    Bulk,
    /// The smallest legal exchange: Π below one entry (an empty
    /// allocation) and a one-cell upload.
    Small,
}

/// One client round as the wire carries it: a `Request` then an `Upload`.
#[derive(Debug, Clone)]
pub struct Round {
    pub request: ClientMsg,
    pub upload: ClientMsg,
}

impl Round {
    pub fn request(&self) -> &CacheRequest {
        match &self.request {
            ClientMsg::Request(r) => r,
            other => unreachable!("pool request slot holds {other:?}"),
        }
    }

    pub fn upload(&self) -> &UpdateUpload {
        match &self.upload {
            ClientMsg::Upload(u) => u,
            other => unreachable!("pool upload slot holds {other:?}"),
        }
    }
}

/// `pools[k]` is client `k`'s rounds.
pub type Pools = Vec<Vec<Round>>;

/// Builds every client's pool. `profile` is the hit-ratio profile the
/// server hands out at `Hello`; `spec` is the world (model, classes,
/// precision) the messages must fit.
pub fn build(
    rt: &ModelRuntime,
    spec: RunSpec,
    profile: &[f64],
    seed: u64,
    shape: Shape,
    rounds: usize,
) -> Pools {
    let seeds = SeedTree::new(seed);
    let wl = Workload {
        spec,
        clients: CLIENTS,
        rounds,
    };
    // τ is a pure function of (client, round); the seed picks where in
    // its 60-step cycle this run's pools start.
    let phase = (seed % 60) as usize;
    (0..CLIENTS)
        .map(|k| {
            (0..rounds)
                .map(|r| {
                    let mut request = wl.request(rt, profile, k, r + phase);
                    request.round = r as u64;
                    let upload = match shape {
                        Shape::Bulk => wl.upload(rt, &seeds, k, r),
                        Shape::Small => {
                            request.budget_bytes = 1;
                            small_upload(rt, spec, &seeds, k, r)
                        }
                    };
                    Round {
                        request: ClientMsg::Request(request),
                        upload: ClientMsg::Upload(upload),
                    }
                })
                .collect()
        })
        .collect()
}

/// One cell at the model's narrowest cache point.
fn small_upload(
    rt: &ModelRuntime,
    spec: RunSpec,
    seeds: &SeedTree,
    k: usize,
    r: usize,
) -> UpdateUpload {
    let classes = rt.num_classes();
    let layer = (0..rt.num_cache_points())
        .min_by_key(|&l| rt.feature_dim(l))
        .expect("a model has at least one cache point");
    let class = (k * 7 + r) % classes;
    let mut rng = seeds
        .child_idx("bench-small-upload", (k * POOL_ROUNDS + r) as u64)
        .rng();
    let mut table = UpdateTable::new();
    table.absorb(
        class,
        layer,
        &random_unit(&mut rng, rt.feature_dim(layer)),
        0.95,
    );
    table.quantize_in_place(spec.precision);
    let mut frequency = vec![0u64; classes];
    frequency[class] = 1 + (r % 7) as u64;
    UpdateUpload {
        client_id: k as u64,
        round: r as u64,
        table,
        frequency,
        precision: spec.precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_net::encode_frame;

    fn wire_bytes(pools: &Pools) -> Vec<u8> {
        let mut out = Vec::new();
        for round in pools.iter().flatten() {
            out.extend_from_slice(&encode_frame(&round.request).unwrap());
            out.extend_from_slice(&encode_frame(&round.upload).unwrap());
        }
        out
    }

    #[test]
    fn pools_are_a_pure_function_of_the_seed() {
        let spec = RunSpec {
            classes: 12,
            ..RunSpec::default()
        };
        let (rt, _, _) = spec.build();
        let profile = vec![0.5; rt.num_cache_points()];
        for shape in [Shape::Bulk, Shape::Small] {
            let a = wire_bytes(&build(&rt, spec, &profile, 4600, shape, 3));
            let b = wire_bytes(&build(&rt, spec, &profile, 4600, shape, 3));
            let c = wire_bytes(&build(&rt, spec, &profile, 4601, shape, 3));
            assert_eq!(a, b, "{shape:?}: same seed must give byte-equal pools");
            assert_ne!(a, c, "{shape:?}: another seed must give other pools");
        }
    }

    #[test]
    fn small_rounds_stay_under_a_kilobyte() {
        let spec = RunSpec::default();
        let (rt, _, _) = spec.build();
        let profile = vec![0.123_456_789_012; rt.num_cache_points()];
        let pools = build(&rt, spec, &profile, 7, Shape::Small, 4);
        assert_eq!(pools.len(), CLIENTS);
        for round in pools.iter().flatten() {
            assert_eq!(round.request().budget_bytes, 1);
            assert_eq!(round.upload().table.len(), 1);
            assert!(encode_frame(&round.request).unwrap().len() < 1024);
            assert!(encode_frame(&round.upload).unwrap().len() < 1024);
        }
    }
}
