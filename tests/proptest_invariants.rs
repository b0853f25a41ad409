//! Property-based tests over the core invariants (proptest).

use coca::core::aca::{allocate, AcaInputs};
use coca::core::collect::UpdateTable;
use coca::core::global::GlobalCacheTable;
use coca::core::proto::CacheRequest;
use coca::core::CocaConfig;
use coca::data::distribution::{dirichlet, long_tail_weights};
use coca::data::partition::{client_distributions, NonIidLevel};
use coca::math::{l2_norm, l2_normalized};
use coca::model::ModelId;
use coca::net::{encode_frame, FrameReader};
use coca::prelude::SeedTree;
use proptest::prelude::*;

proptest! {
    /// ACA never exceeds the memory budget, whatever the inputs.
    #[test]
    fn aca_respects_budget(
        freq in prop::collection::vec(0u64..10_000, 2..40),
        budget in 0usize..2_000_000,
        seed in 0u64..1000,
    ) {
        let n = freq.len();
        let mut rng = SeedTree::new(seed).rng_for("aca");
        use rand::Rng;
        let tau: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5000)).collect();
        let l = rng.gen_range(2usize..30);
        let r: Vec<f64> = (0..l).map(|_| rng.gen_range(0.0..1.0)).collect();
        let saved: Vec<f64> = (0..l).map(|_| rng.gen_range(0.1..50.0)).collect();
        let bytes: Vec<usize> = (0..l).map(|_| rng.gen_range(64usize..2048)).collect();
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let out = allocate(&cfg, &AcaInputs {
            global_freq: &freq,
            timestamps: &tau,
            hit_ratio: &r,
            saved_ms: &saved,
            entry_bytes: &bytes,
            budget_bytes: budget,
        });
        prop_assert!(out.bytes(&bytes) <= budget);
        // Hot classes are unique and within range.
        let mut hot = out.hot_classes.clone();
        hot.sort_unstable();
        hot.dedup();
        prop_assert_eq!(hot.len(), out.hot_classes.len());
        prop_assert!(out.hot_classes.iter().all(|&c| c < n));
        prop_assert!(out.layers.iter().all(|&j| j < l));
    }

    /// Update-table absorption always yields unit-norm entries.
    #[test]
    fn update_table_stays_unit_norm(
        vectors in prop::collection::vec(
            prop::collection::vec(-10.0f32..10.0, 8),
            1..30,
        ),
        beta in 0.0f32..0.999,
    ) {
        let mut table = UpdateTable::new();
        let mut any = false;
        for v in &vectors {
            if l2_norm(v) > 1e-3 {
                table.absorb(0, 0, v, beta);
                any = true;
            }
        }
        if any {
            let u = table.get(0, 0).unwrap();
            prop_assert!((l2_norm(u) - 1.0).abs() < 1e-3);
        }
    }

    /// Global merges keep entries unit-norm and frequencies additive.
    #[test]
    fn global_merge_invariants(
        phi in prop::collection::vec(0u64..1000, 3),
        seed in 0u64..500,
    ) {
        let mut rng = SeedTree::new(seed).rng_for("merge");
        use rand::Rng;
        let mut table = GlobalCacheTable::new(3, 2);
        for c in 0..3 {
            for l in 0..2 {
                let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                if l2_norm(&v) > 1e-3 {
                    table.set(c, l, v);
                }
            }
        }
        let before: Vec<u64> = table.frequency().to_vec();
        let mut upload = UpdateTable::new();
        for c in 0..3 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            if l2_norm(&v) > 1e-3 {
                upload.absorb(c, 0, &v, 0.5);
            }
        }
        table.merge_update(&upload, &phi, 0.99, &mut coca::core::global::MergeScratch::new());
        for (i, &p) in phi.iter().enumerate() {
            prop_assert_eq!(table.frequency()[i], before[i] + p);
        }
        for c in 0..3 {
            for l in 0..2 {
                if let Some(e) = table.get(c, l) {
                    prop_assert!((l2_norm(&e) - 1.0).abs() < 1e-3);
                }
            }
        }
    }

    /// Wire frames decode to exactly what was encoded.
    #[test]
    fn frame_codec_round_trip(
        id in any::<u64>(),
        timestamps in prop::collection::vec(any::<u32>(), 0..200),
        hit_ratio in prop::collection::vec(-1e6f64..1e6, 0..60),
    ) {
        let msg = CacheRequest { client_id: id, round: id ^ 1, timestamps, hit_ratio, budget_bytes: !id };
        let bytes = encode_frame(&msg).unwrap();
        let mut stream = FrameReader::new(&bytes[..]);
        let back: CacheRequest = stream.next().unwrap().unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        prop_assert!(stream.next::<CacheRequest>().unwrap().is_none(), "the frame is consumed whole");
    }

    /// Dirichlet draws are probability vectors.
    #[test]
    fn dirichlet_is_a_distribution(
        alpha in prop::collection::vec(0.01f64..5.0, 2..30),
        seed in 0u64..500,
    ) {
        let mut rng = SeedTree::new(seed).rng_for("dir");
        let d = dirichlet(&mut rng, &alpha);
        prop_assert_eq!(d.len(), alpha.len());
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        prop_assert!(d.iter().all(|&x| x >= 0.0));
    }

    /// Client partitions are valid distributions at any non-IID level.
    #[test]
    fn partitions_are_distributions(
        classes in 2usize..50,
        clients in 1usize..12,
        p in 0.0f64..12.0,
        seed in 0u64..300,
    ) {
        let global = long_tail_weights(classes, 10.0);
        let parts = client_distributions(&global, clients, NonIidLevel(p), &SeedTree::new(seed));
        prop_assert_eq!(parts.len(), clients);
        for part in parts {
            prop_assert_eq!(part.len(), classes);
            prop_assert!((part.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_idempotent(v in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        prop_assume!(l2_norm(&v) > 1e-3);
        let once = l2_normalized(&v);
        let twice = l2_normalized(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }
}
