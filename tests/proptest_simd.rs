//! Property tests pinning the dispatched kernels (AVX2 on an x86_64 host
//! with AVX2, scalar otherwise) **bit-identical** to the always-compiled
//! scalar 8-lane path, and pinning the i8/f16 quantize→dequantize
//! round-trip error bounds.
//!
//! Bit-identity — not tolerance — is the contract: the committed
//! churn/drift/scenario records regenerate byte-identical whichever path
//! the CPU probe picks. On an AVX2 host these tests exercise the AVX2
//! twins (odd dims, tail-only inputs, unaligned sub-slices, empty layers);
//! `simd_dispatch_reports_expected_path` fails if that dispatch is lost.

use coca::math::matrix::{self, scalar};
use coca::math::quant::{f16_bits_to_f32, f32_to_f16_bits, i8_row_scale};
use coca::math::{l2_normalize, Precision, QuantizedStore, ScoreScratch, VectorStore};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `count` random unit vectors of dimension `dim` from one seed.
fn unit_rows(seed: u64, count: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            if l2_normalize(&mut v) <= f32::MIN_POSITIVE {
                v[0] = 1.0;
            }
            v
        })
        .collect()
}

proptest! {
    /// Dispatched `dot_unit` is bit-identical to the scalar kernel on
    /// every dimension (8-lane main loop, tail-only, empty) and on
    /// unaligned sub-slices of an aligned buffer.
    #[test]
    fn dot_unit_bit_identical(seed in 0u64..4_000, dim in 0usize..140, offset in 0usize..4) {
        let n = dim + offset;
        let rows = unit_rows(seed, 2, n.max(1));
        let (a, b) = (&rows[0], &rows[1]);
        // Offset sub-slices shift the pointers off 32-byte alignment.
        let (a, b) = (&a[offset.min(a.len())..], &b[offset.min(b.len())..]);
        prop_assert_eq!(
            matrix::dot_unit(a, b).to_bits(),
            scalar::dot_unit(a, b).to_bits()
        );
    }

    /// Dispatched `score_top2` matches the scalar kernel exactly:
    /// identical Top2 (classes and bit-exact values) and identical
    /// accumulator state, including over empty layers.
    #[test]
    fn score_top2_bit_identical(
        seed in 0u64..4_000,
        dim in 1usize..90,
        entries in 0usize..24,
        alpha in 0.0f32..1.0,
    ) {
        let rows = unit_rows(seed, entries + 1, dim);
        let (query, rows) = rows.split_last().expect("rows");
        let store = VectorStore::from_rows(rows);
        let classes: Vec<usize> = (0..entries).collect();
        let mut s_dispatch = ScoreScratch::new();
        let mut s_scalar = ScoreScratch::new();
        s_dispatch.begin(entries.max(1));
        s_scalar.begin(entries.max(1));
        for _ in 0..2 {
            let d = matrix::score_top2(store.as_flat(), dim, query, &classes, alpha, &mut s_dispatch);
            let s = scalar::score_top2(store.as_flat(), dim, query, &classes, alpha, &mut s_scalar);
            prop_assert_eq!(
                d.best.map(|(c, v)| (c, v.to_bits())),
                s.best.map(|(c, v)| (c, v.to_bits()))
            );
            prop_assert_eq!(
                d.second.map(|(c, v)| (c, v.to_bits())),
                s.second.map(|(c, v)| (c, v.to_bits()))
            );
            for &c in &classes {
                prop_assert_eq!(
                    s_dispatch.accumulated(c).to_bits(),
                    s_scalar.accumulated(c).to_bits()
                );
            }
        }
    }

    /// Dispatched `knn_k` and `assign_nearest` are bit-identical to the
    /// scalar kernels.
    #[test]
    fn knn_and_assign_bit_identical(
        seed in 4_000u64..8_000,
        dim in 1usize..90,
        entries in 1usize..30,
        k in 1usize..8,
    ) {
        let rows = unit_rows(seed, entries + 1, dim);
        let (query, rows) = rows.split_last().expect("rows");
        let store = VectorStore::from_rows(rows);
        let cands: Vec<(u32, u32)> = (0..entries).map(|r| (r as u32, r as u32 * 3)).collect();
        let d = matrix::knn_k(store.as_flat(), dim, query, &cands, k);
        let s = scalar::knn_k(store.as_flat(), dim, query, &cands, k);
        prop_assert_eq!(d.len(), s.len());
        for ((dv, dt), (sv, st)) in d.iter().zip(&s) {
            prop_assert_eq!((dv.to_bits(), dt), (sv.to_bits(), st));
        }
        let da = matrix::assign_nearest(store.as_flat(), dim, query);
        let sa = scalar::assign_nearest(store.as_flat(), dim, query);
        prop_assert_eq!(
            da.map(|(i, v)| (i, v.to_bits())),
            sa.map(|(i, v)| (i, v.to_bits()))
        );
        prop_assert_eq!(matrix::assign_nearest(&[], dim, query), None);
    }

    /// Dispatched `merge_weighted_row(s)` is bit-identical to the scalar
    /// kernel: merged values, returned norms, and batched jobs over
    /// unaligned row offsets (odd dims make every row unaligned).
    #[test]
    fn merge_weighted_bit_identical(
        seed in 8_000u64..12_000,
        dim in 1usize..100,
        jobs in 1usize..8,
        w_old in 0.0f32..1.5,
        w_new in 0.0f32..1.5,
    ) {
        let rows = unit_rows(seed, jobs * 2, dim);
        let mut dst_d = VectorStore::from_rows(&rows[..jobs]);
        let mut dst_s = dst_d.clone();
        let src = VectorStore::from_rows(&rows[jobs..]);
        let idx: Vec<usize> = (0..jobs).collect();
        let wo = vec![w_old; jobs];
        let wn = vec![w_new; jobs];
        matrix::merge_weighted_rows(dst_d.as_flat_mut(), dim, &idx, src.as_flat(), &idx, &wo, &wn);
        scalar::merge_weighted_rows(dst_s.as_flat_mut(), dim, &idx, src.as_flat(), &idx, &wo, &wn);
        for (a, b) in dst_d.as_flat().iter().zip(dst_s.as_flat()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Adjacent jobs writing the SAME destination row: the AVX2 batch
        // kernel's pairwise row-interleave must fall back to strict job
        // order (a merge-over-merge is order-dependent).
        let dup_dst: Vec<usize> = (0..jobs).map(|i| i / 2).collect();
        let mut dup_d = VectorStore::from_rows(&rows[..jobs]);
        let mut dup_s = dup_d.clone();
        matrix::merge_weighted_rows(
            dup_d.as_flat_mut(),
            dim,
            &dup_dst,
            src.as_flat(),
            &idx,
            &wo,
            &wn,
        );
        scalar::merge_weighted_rows(
            dup_s.as_flat_mut(),
            dim,
            &dup_dst,
            src.as_flat(),
            &idx,
            &wo,
            &wn,
        );
        for (a, b) in dup_d.as_flat().iter().zip(dup_s.as_flat()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Single-row form, including the zero-merge norm path.
        let mut e_d = rows[0].clone();
        let mut e_s = rows[0].clone();
        let nd = matrix::merge_weighted_row(&mut e_d, &rows[jobs], 0.0, 0.0);
        let ns = scalar::merge_weighted_row(&mut e_s, &rows[jobs], 0.0, 0.0);
        prop_assert_eq!(nd.to_bits(), ns.to_bits());
        for (a, b) in e_d.iter().zip(&e_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// i8 round trip: every element moves by at most half a quantization
    /// step (`scale / 2`), and re-quantizing a snapped row is exact.
    #[test]
    fn i8_round_trip_error_bound(seed in 0u64..4_000, dim in 1usize..130) {
        let rows = unit_rows(seed, 1, dim);
        let row = &rows[0];
        let scale = i8_row_scale(row);
        let mut q = QuantizedStore::new(dim, Precision::I8);
        q.push_row(row);
        let back = q.dequantize_row(0);
        for (a, b) in row.iter().zip(&back) {
            prop_assert!((a - b).abs() <= scale * 0.5 + 1e-7, "{} vs {}", a, b);
        }
        let mut q2 = QuantizedStore::new(dim, Precision::I8);
        q2.push_row(&back);
        for (a, b) in q2.dequantize_row(0).iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// f16 round trip: relative error ≤ 2⁻¹¹ for normal values (plus an
    /// absolute floor for the subnormal range), and snapping is
    /// idempotent.
    #[test]
    fn f16_round_trip_error_bound(x in -70_000.0f32..70_000.0) {
        let bits = f32_to_f16_bits(x);
        let back = f16_bits_to_f32(bits);
        if x.abs() <= 65_504.0 {
            prop_assert!(
                (back - x).abs() <= x.abs() / 2_048.0 + 6e-8,
                "{} -> {}", x, back
            );
        }
        // Snapping must be idempotent.
        prop_assert_eq!(f32_to_f16_bits(back), bits);
    }
}

/// The dispatch layer reports which path runs; on an AVX2 host the SIMD
/// path must actually be active, otherwise the parity tests above would
/// silently compare scalar to scalar.
#[test]
fn simd_dispatch_reports_expected_path() {
    let active = coca::math::simd_active();
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        active,
        std::arch::is_x86_feature_detected!("avx2"),
        "an x86_64 build must dispatch AVX2 exactly when the CPU has it"
    );
    #[cfg(not(target_arch = "x86_64"))]
    assert!(!active);
}
