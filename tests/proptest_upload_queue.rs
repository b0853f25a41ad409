//! Property test pinning the server's one upload pipeline — every upload
//! queues and drains at the next flush boundary — to merging each upload
//! on arrival: across randomized churn/drift/link timelines, a CoCa
//! engine run's final global table is **bit-identical** to its genesis
//! table with every upload of the run merged one at a time
//! (`GlobalCacheTable::merge_update`) in arrival order.
//!
//! The run's write-ahead log supplies that order: every upload is logged
//! as it arrives, and durability is observationally transparent
//! (`tests/proptest_recovery.rs`). The batched pass is
//! sequential-equivalent in FIFO order, so any drift here is a real
//! determinism bug, not tolerance noise.

use coca::core::global::MergeScratch;
use coca::core::persist::{decode_frames, Durability, MemStorage, WalRecord, WAL_CUR};
use coca::core::server::GAMMA_GLOBAL;
use coca::core::spec::PopularityShift;
use coca::net::LinkModel;
use coca::prelude::*;
use proptest::prelude::*;

const BASE_CLIENTS: usize = 3;
const ROUNDS: usize = 2;
const FRAMES: usize = 40;

/// A randomized dynamics timeline: churn, drift and a link change — the
/// same event mix the committed churn/drift/scenario records exercise.
fn random_spec(seed: u64, join_at: f64, leave_after: usize, shift_at: u64) -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    sc.num_clients = BASE_CLIENTS;
    sc.seed = seed;
    ScenarioSpec::new(sc, ROUNDS, FRAMES)
        .join(join_at, 1)
        .leave(1, leave_after)
        .popularity_shift(None, shift_at, PopularityShift::Rotate(3))
        .link_change(
            Some(0),
            join_at / 2.0,
            LinkModel {
                one_way_delay: SimDuration::from_millis(9),
                bandwidth_bps: 20.0e6,
            },
        )
}

proptest! {
    /// The queue drained at every boundary lands exactly where merging
    /// each upload on arrival would have.
    #[test]
    fn queue_and_flush_is_byte_identical_to_per_upload(
        seed in 0u64..300,
        join_at in 1_000.0f64..40_000.0,
        leave_after in 1usize..ROUNDS,
        shift_at in 10u64..60,
    ) {
        let spec = random_spec(seed, join_at, leave_after, shift_at);
        let (scenario, plan) = spec.materialize();
        let coca = CocaConfig::for_model(ModelId::ResNet101)
            .with_round_frames(spec.frames_per_round);
        let mut engine = Engine::new(scenario, EngineConfig::new(coca));
        let mut reference = engine.server().global().clone();
        // One segment for the whole run: the log never rotates.
        engine
            .server_mut()
            .attach_durability(Durability::new(Box::new(MemStorage::new()), 1 << 30));
        engine.run_plan(&plan);
        prop_assert_eq!(engine.server().pending_uploads(), 0);

        let wal = engine.server().durability().unwrap().storage().load(WAL_CUR).unwrap();
        let (payloads, _, _) = decode_frames(&wal, false).unwrap();
        let mut scratch = MergeScratch::new();
        let mut uploads = 0;
        for payload in payloads {
            if let WalRecord::Upload(up) = WalRecord::from_payload(payload).unwrap() {
                reference.merge_update(&up.table, &up.frequency, GAMMA_GLOBAL, &mut scratch);
                uploads += 1;
            }
        }
        prop_assert!(uploads > 0, "the run logged no upload");
        let table = engine.server().global();
        prop_assert_eq!(table.frequency(), reference.frequency());
        for c in 0..table.num_classes() {
            for l in 0..table.num_layers() {
                match (table.get(c, l), reference.get(c, l)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for (x, y) in a.iter().zip(b.iter()) {
                            prop_assert!(x.to_bits() == y.to_bits(), "cell ({c},{l}) differs");
                        }
                    }
                    _ => prop_assert!(false, "occupancy differs at ({c},{l})"),
                }
            }
        }
    }
}
