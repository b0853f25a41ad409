//! The daemon's server core: the one [`CocaServer`] behind one mutex,
//! plus the [`RunSpec`] both ends of a deployment share so the daemon and
//! its clients agree on model, dataset and seeding (and therefore on the
//! genesis table digest).

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use coca_core::proto::{CacheAllocation, CacheRequest, PeerDelta, UpdateUpload};
use coca_core::{CocaConfig, CocaServer};
use coca_data::DatasetSpec;
use coca_math::Precision;
use coca_model::{ModelId, ModelRuntime};
use coca_sim::SeedTree;

/// Everything a daemon and its clients must agree on to end up in the
/// same deterministic world: model, class subset, master seed and table
/// precision. `cocad` and `coca-loadgen` both build their
/// runtime from this (same flags on both command lines).
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// DNN architecture the fleet runs.
    pub model: ModelId,
    /// UCF-101 class-subset size (the task's label space).
    pub classes: usize,
    /// Master seed for the [`SeedTree`].
    pub seed: u64,
    /// Numeric precision of the global table and every wire payload:
    /// allocations extract from (and uploads snap onto) this grid, so a
    /// quantized daemon serves f16/i8 tables over TCP.
    pub precision: Precision,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            model: ModelId::ResNet101,
            classes: 30,
            seed: 77,
            precision: Precision::F32,
        }
    }
}

/// Parses a model flag value by its canonical [`ModelId::name`].
pub fn parse_model(s: &str) -> Option<ModelId> {
    [
        ModelId::Vgg16Bn,
        ModelId::ResNet50,
        ModelId::ResNet101,
        ModelId::ResNet152,
        ModelId::AstBase,
    ]
    .into_iter()
    .find(|m| m.name() == s)
}

impl RunSpec {
    /// Consumes one `--flag value` pair if it belongs to the spec
    /// (`--model`, `--classes`, `--seed`, `--precision`). Both `cocad` and
    /// `coca-loadgen` route their argument loops through this, so the two
    /// command lines can never drift apart on what defines the
    /// deterministic world.
    pub fn apply_flag(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--model" => {
                self.model =
                    parse_model(value).ok_or_else(|| format!("unknown model '{value}'"))?;
            }
            "--classes" => {
                self.classes = value
                    .parse()
                    .map_err(|_| format!("bad --classes '{value}'"))?;
            }
            "--seed" => {
                self.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?;
            }
            "--precision" => {
                self.precision = Precision::parse(value)
                    .ok_or_else(|| format!("unknown precision '{value}' (f32/f16/i8)"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Materializes the spec: model runtime, CoCa config, seed tree —
    /// the exact triple [`CocaServer::new`] seeds from.
    pub fn build(&self) -> (ModelRuntime, CocaConfig, SeedTree) {
        let dataset = DatasetSpec::ucf101().subset(self.classes);
        let seeds = SeedTree::new(self.seed);
        let rt = ModelRuntime::new(self.model, &dataset, &seeds);
        let cfg = CocaConfig::for_model(self.model).with_precision(self.precision);
        (rt, cfg, seeds)
    }
}

/// The server state the daemon's connection threads share: the same
/// [`CocaServer`] the engine drives, behind one mutex, with a `&self`
/// handler per protocol message. Every request and upload serializes on
/// the lock; whatever the server supports — a pre-attached WAL, peer
/// sync, the ablation arms — the daemon therefore supports too.
#[derive(Debug)]
pub struct ServerCore {
    server: Mutex<CocaServer>,
}

/// How long a connection thread spins on a held lock before it parks:
/// a few request/upload critical sections.
const SPIN: Duration = Duration::from_micros(20);

impl ServerCore {
    /// Wraps a server, as built: set its cell id and attach its
    /// durability before handing it over.
    pub fn new(server: CocaServer) -> Self {
        Self {
            server: Mutex::new(server),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CocaServer> {
        // A request or an upload holds the lock for ~5 µs; parking on it
        // and being woken costs several times that, and whether two
        // closed-loop clients collide is a matter of phase, so a parked
        // waiter made throughput drift with it. Wait out a holder of that
        // size spinning; park only behind a long one (flush, digest).
        if let Ok(server) = self.server.try_lock() {
            return server;
        }
        let give_up = Instant::now() + SPIN;
        while Instant::now() < give_up {
            std::hint::spin_loop();
            if let Ok(server) = self.server.try_lock() {
                return server;
            }
        }
        // A handler that panicked mid-merge may have left the table
        // half-written: every later op fails with it.
        self.server.lock().expect("server poisoned")
    }

    /// The shared-dataset standalone hit-ratio profile (initial R).
    pub fn base_hit_profile(&self) -> Vec<f64> {
        self.lock().base_hit_profile().to_vec()
    }

    /// §IV.A step 1+2: ACA allocation + personalized extraction.
    pub fn handle_request(&self, req: &CacheRequest) -> CacheAllocation {
        self.lock().handle_request(req).0
    }

    /// §IV.A step 3: enqueues the upload for the next flush boundary.
    /// Returns the uploads queued and not yet merged as this upload left
    /// them.
    pub fn handle_upload(&self, up: UpdateUpload) -> usize {
        let mut server = self.lock();
        server.handle_upload(up);
        server.pending_uploads()
    }

    /// Drains the pending-upload queue (no-op when empty).
    pub fn flush(&self) {
        self.lock().flush_pending();
    }

    /// Builds the peer-sync delta for peer cell `to_peer`
    /// ([`CocaServer::export_delta`]).
    pub fn export_delta(&self, to_peer: u32) -> PeerDelta {
        self.lock().export_delta(to_peer)
    }

    /// Merges a peer cell's delta ([`CocaServer::absorb_peer`]).
    pub fn absorb_peer(&self, delta: &PeerDelta) {
        self.lock().absorb_peer(delta);
    }

    /// The global-table digest ([`coca_core::GlobalCacheTable::digest`]).
    /// Pending uploads are not included.
    pub fn digest(&self) -> u64 {
        self.lock().global().digest()
    }

    /// Unwraps the server back out (durability detach, recovery asserts).
    pub fn into_server(self) -> CocaServer {
        self.server
            .into_inner()
            .expect("a handler panicked while it held the server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::collect::UpdateTable;

    #[test]
    fn concurrent_uploads_merge_exactly_once() {
        // Interleaving is scheduling-dependent; totals are not. 8 threads
        // × 4 uploads each, released together, then one flush: Φ must
        // hold every φ exactly once (Eq. 5 is commutative, so the sum is
        // order-independent).
        let spec = RunSpec {
            classes: 20,
            seed: 60,
            ..RunSpec::default()
        };
        let (rt, cfg, seeds) = spec.build();
        let core = ServerCore::new(CocaServer::new(&rt, cfg, &seeds));
        let mass = |core: &ServerCore| core.lock().global().frequency().iter().sum::<u64>();
        let before = mass(&core);
        let (layer, threads) = (10, 8u64);
        let go = std::sync::Barrier::new(threads as usize);
        let mut acks: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (core, go, rt) = (&core, &go, &rt);
                    scope.spawn(move || {
                        let mut table = UpdateTable::new();
                        let mut v = vec![0.0f32; rt.feature_dim(layer)];
                        v[t as usize + 1] = 1.0;
                        table.absorb(t as usize, layer, &v, 0.0);
                        let mut frequency = vec![0u64; rt.num_classes()];
                        frequency[t as usize] = 50 + t;
                        let up = UpdateUpload {
                            client_id: t,
                            round: 0,
                            table,
                            frequency,
                            precision: Precision::F32,
                        };
                        go.wait();
                        // Four uploads under one client id, no request
                        // between them: one flush window holds them all.
                        (0..4)
                            .map(|_| core.handle_upload(up.clone()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("upload thread"))
                .collect()
        });
        // Each ack is the queue depth its own upload left behind, read
        // under the lock that pushed it: all 32 depths, each once.
        acks.sort_unstable();
        assert_eq!(acks, (1..=4 * threads as usize).collect::<Vec<_>>());
        assert_eq!(mass(&core), before, "nothing merges before the flush");
        core.flush();
        let expected: u64 = (0..threads).map(|t| 4 * (50 + t)).sum();
        assert_eq!(mass(&core) - before, expected, "φ lost or double-merged");
        assert_eq!(core.into_server().pending_uploads(), 0);
    }
}
