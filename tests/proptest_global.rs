//! Property tests pinning the **columnar** `GlobalCacheTable` (per-layer
//! `VectorStore` + occupancy bitmap, fused batch kernels) to the seed
//! `Vec<Option<Vec<f32>>>` boxed-row semantics:
//!
//! * merge / extract / seeding agree with a faithful reimplementation of
//!   the seed table within `1e-6` (they are in fact bit-identical today —
//!   the fused merge kernel mirrors the seed `scale` → `axpy` →
//!   `l2_normalize` rounding sequence — but `1e-6` is the documented
//!   contract);
//! * unpopulated-cell skipping is preserved exactly (occupancy parity);
//! * the **batched** whole-round merge (`merge_batch`, layer-outer in
//!   client order) is **bit-identical** to merging the same uploads
//!   sequentially — the determinism contract that makes per-layer server
//!   sharding safe.
//!
//! The vendored proptest shim has no tuple/`prop_map` strategies, so the
//! structured inputs (cell sets, uploads, φ vectors) derive from seeded
//! RNGs — every case is replayable from its scalar parameters.

use coca::core::collect::UpdateTable;
use coca::core::global::{GlobalCacheTable, MergeScratch};
use coca::math::vector::{axpy, l2_normalize, scale};
use coca::prelude::SeedTree;
use proptest::prelude::*;
use rand::Rng;

/// A faithful reimplementation of the seed (pre-columnar) global table:
/// boxed `Option<Vec<f32>>` cells, per-cell scale/axpy/normalize merge.
struct BoxedRowTable {
    classes: usize,
    layers: usize,
    entries: Vec<Option<Vec<f32>>>,
    frequency: Vec<u64>,
}

impl BoxedRowTable {
    fn new(classes: usize, layers: usize) -> Self {
        Self {
            classes,
            layers,
            entries: vec![None; classes * layers],
            frequency: vec![0; classes],
        }
    }

    fn idx(&self, class: usize, layer: usize) -> usize {
        class * self.layers + layer
    }

    fn set(&mut self, class: usize, layer: usize, mut vector: Vec<f32>) {
        l2_normalize(&mut vector);
        let i = self.idx(class, layer);
        self.entries[i] = Some(vector);
    }

    fn get(&self, class: usize, layer: usize) -> Option<&[f32]> {
        self.entries[self.idx(class, layer)].as_deref()
    }

    fn merge_update(&mut self, u: &UpdateTable, phi: &[u64], gamma: f32) {
        for (class, layer, vector) in u.iter() {
            if class >= self.classes || layer >= self.layers {
                continue;
            }
            let phi_i = phi[class] as f32;
            if phi_i <= 0.0 {
                continue;
            }
            let cap_phi = self.frequency[class] as f32;
            let i = self.idx(class, layer);
            match &mut self.entries[i] {
                Some(e) => {
                    let w_old = gamma * cap_phi / (cap_phi + phi_i);
                    let w_new = phi_i / (cap_phi + phi_i);
                    scale(w_old, e);
                    axpy(w_new, vector, e);
                    l2_normalize(e);
                }
                None => {
                    let mut v = vector.to_vec();
                    l2_normalize(&mut v);
                    self.entries[i] = Some(v);
                }
            }
        }
        for (f, &p) in self.frequency.iter_mut().zip(phi) {
            *f += p;
        }
    }
}

const CLASSES: usize = 6;
const LAYERS: usize = 4;
const DIM: usize = 13; // odd on purpose: exercises the kernel tails

/// Draws a deduplicated random cell set (possibly empty).
fn random_cells(rng: &mut impl Rng, max: usize) -> Vec<(usize, usize)> {
    let n = rng.gen_range(0..=max);
    let mut cells: Vec<(usize, usize)> = (0..n)
        .map(|_| (rng.gen_range(0..CLASSES), rng.gen_range(0..LAYERS)))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Builds a matching (columnar, seed) table pair with random cells
/// pre-populated and a random frequency prior.
fn seeded_pair(seed: u64) -> (GlobalCacheTable, BoxedRowTable) {
    let mut rng = SeedTree::new(seed).rng_for("fill");
    let fill = random_cells(&mut rng, 12);
    let mut col = GlobalCacheTable::new(CLASSES, LAYERS);
    let mut old = BoxedRowTable::new(CLASSES, LAYERS);
    for &(c, l) in &fill {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        col.set(c, l, v.clone());
        old.set(c, l, v);
    }
    let prior: Vec<u64> = (0..CLASSES).map(|_| rng.gen_range(0..40)).collect();
    col.seed_frequency(&prior);
    old.frequency.copy_from_slice(&prior);
    (col, old)
}

/// Draws one upload: a random cell set absorbed with Eq. 3 decay, plus a
/// random (possibly partly zero) φ vector.
fn random_upload(rng: &mut impl Rng) -> (UpdateTable, Vec<u64>) {
    let cells = random_cells(rng, 10);
    let mut u = UpdateTable::new();
    for &(c, l) in &cells {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        u.absorb(c, l, &v, 0.95);
    }
    let phi: Vec<u64> = (0..CLASSES)
        .map(|_| {
            if rng.gen_range(0u32..4) == 0 {
                0
            } else {
                rng.gen_range(1..500)
            }
        })
        .collect();
    (u, phi)
}

proptest! {
    /// Seeding, merging and reads agree with the boxed-row seed table
    /// within 1e-6, and occupancy (which cells exist) agrees exactly.
    #[test]
    fn columnar_matches_seed_semantics(
        seed in 0u64..2000,
        uploads in 1usize..5,
    ) {
        let (mut col, mut old) = seeded_pair(seed);
        let mut rng = SeedTree::new(seed).rng_for("uploads");
        let mut scratch = MergeScratch::new();
        for _ in 0..uploads {
            let (u, phi) = random_upload(&mut rng);
            col.merge_update(&u, &phi, 0.99, &mut scratch);
            old.merge_update(&u, &phi, 0.99);
        }
        prop_assert_eq!(col.frequency(), old.frequency.as_slice());
        let mut populated = 0usize;
        for c in 0..CLASSES {
            for l in 0..LAYERS {
                match (col.get(c, l), old.get(c, l)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        populated += 1;
                        for (x, y) in a.iter().zip(b.iter()) {
                            prop_assert!((x - y).abs() < 1e-6, "cell ({c},{l}): {x} vs {y}");
                        }
                    }
                    _ => prop_assert!(false, "occupancy differs at ({c},{l})"),
                }
            }
        }
        prop_assert!(
            (col.fill_ratio() - populated as f64 / (CLASSES * LAYERS) as f64).abs() < 1e-12
        );
    }

    /// Extraction skips exactly the never-populated cells, preserves the
    /// requested class order, and returns the stored rows verbatim.
    #[test]
    fn extract_skips_unpopulated_and_matches_seed(seed in 0u64..2000) {
        let (col, old) = seeded_pair(seed);
        let mut rng = SeedTree::new(seed).rng_for("extract");
        let mut layers: Vec<usize> =
            (0..rng.gen_range(1..=LAYERS)).map(|_| rng.gen_range(0..LAYERS)).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut classes: Vec<usize> =
            (0..rng.gen_range(1..=CLASSES)).map(|_| rng.gen_range(0..CLASSES)).collect();
        classes.sort_unstable();
        classes.dedup();
        let cache = col.extract(&layers, &classes);
        // Reference extraction over the seed table.
        for &layer in &layers {
            let expected: Vec<(usize, Vec<f32>)> = classes
                .iter()
                .filter_map(|&c| old.get(c, layer).map(|v| (c, v.to_vec())))
                .collect();
            let got = cache.layers().iter().find(|cl| cl.point == layer);
            match got {
                None => prop_assert!(expected.is_empty(), "layer {layer} missing"),
                Some(cl) => {
                    prop_assert_eq!(
                        cl.classes.clone(),
                        expected.iter().map(|(c, _)| *c).collect::<Vec<_>>()
                    );
                    for ((_, want), gotv) in expected.iter().zip(cl.vectors.iter_rows()) {
                        for (x, y) in want.iter().zip(gotv) {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// The batched whole-round merge is bit-identical to the sequential
    /// per-upload merge in the same (client) order.
    #[test]
    fn batched_merge_is_bit_identical_to_sequential(
        seed in 0u64..2000,
        clients in 1usize..6,
    ) {
        let (mut seq, _) = seeded_pair(seed);
        let mut bat = seq.clone();
        let mut rng = SeedTree::new(seed).rng_for("uploads");
        let uploads: Vec<(UpdateTable, Vec<u64>)> =
            (0..clients).map(|_| random_upload(&mut rng)).collect();

        let mut scratch = MergeScratch::new();
        for (u, phi) in &uploads {
            seq.merge_update(u, phi, 0.99, &mut scratch);
        }
        let batch: Vec<(&UpdateTable, &[u64])> = uploads
            .iter()
            .map(|(u, phi)| (u, phi.as_slice()))
            .collect();
        bat.merge_batch(&batch, 0.99, &mut scratch);

        prop_assert_eq!(seq.frequency(), bat.frequency());
        for c in 0..CLASSES {
            for l in 0..LAYERS {
                match (seq.get(c, l), bat.get(c, l)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for (x, y) in a.iter().zip(b.iter()) {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                    _ => prop_assert!(false, "occupancy differs at ({c},{l})"),
                }
            }
        }
    }
}
