//! Explicit AVX2 implementations of the fused kernels, compiled on every
//! x86_64 build and dispatched by a cached runtime probe.
//!
//! ## Bit-identity contract
//!
//! Every function in [`avx2`] produces **bit-identical** output to its
//! scalar twin in [`crate::matrix::scalar`] — the committed records and
//! the determinism contract survive with SIMD enabled. Three rules make
//! that true:
//!
//! 1. **No FMA.** The scalar path rounds after the multiply and again
//!    after the add; a fused multiply-add rounds once. We always emit
//!    separate `_mm256_mul_ps` + `_mm256_add_ps`, even though the host
//!    has FMA units.
//! 2. **Same accumulation pattern.** The scalar `dot_unit` keeps 8
//!    independent lane accumulators and reduces them through one fixed
//!    pairwise tree; one `__m256` accumulator *is* those 8 lanes, and we
//!    extract and reduce them through the identical tree. The scalar
//!    `merge_weighted_row` keeps 4 accumulators fed one 4-chunk at a
//!    time in index order; we compute two chunks per iteration 8-wide
//!    (elementwise, so order-free) but fold the squared halves into one
//!    128-bit accumulator **low half first**, replicating the scalar
//!    chunk order exactly, and reduce left-to-right like the scalar
//!    code.
//! 3. **Same tails.** Remainder elements run the scalar loop in index
//!    order.
//!
//! Every load is `_mm256_loadu_ps`, whatever the pointer's alignment:
//! the loaded values, and therefore the arithmetic, do not depend on it.
//! Alignment still matters for speed. [`crate::store::VectorStore`] rows
//! start on 32-byte boundaries whenever `dim % 8 == 0` (thanks to
//! [`crate::aligned::AlignedF32`]), so no 256-bit load of a row splits a
//! cache line; rows 16 bytes off a boundary cost up to ~16 % more per
//! entry at d = 256 on an AVX-512 Xeon.
//!
//! `tests/proptest_simd.rs` pins every kernel here bit-identical to the
//! scalar path over odd dims, tail-only inputs and unaligned sub-slices.

use crate::cpu::Probe;

static AVX2: Probe = Probe::new(|| std::arch::is_x86_feature_detected!("avx2"));

/// True iff the running CPU supports AVX2 (probed once, then cached).
/// Public callers ask [`crate::matrix::simd_active`].
#[inline]
pub(crate) fn avx2_enabled() -> bool {
    AVX2.enabled()
}

/// AVX2 twins of the [`crate::matrix`] kernels.
///
/// # Safety
/// Every function requires AVX2 at runtime — callers must check
/// [`crate::matrix::simd_active`] (the dispatchers in `matrix.rs` do).
pub mod avx2 {
    use std::arch::x86_64::*;

    use crate::matrix::{ScoreScratch, Top2, UNROLL};

    /// AVX2 [`crate::matrix::scalar::dot_unit`]: one `__m256`
    /// accumulator holds the 8 scalar lanes; mul-then-add (no FMA) and
    /// the identical pairwise reduction tree keep it bit-identical.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_unit(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot_unit: length mismatch {} vs {}",
            a.len(),
            b.len()
        );
        let split = a.len() - a.len() % UNROLL;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let va = _mm256_loadu_ps(pa.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            i += UNROLL;
        }
        let mut lanes = [0.0f32; UNROLL];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        // The scalar kernel's fixed pairwise tree, verbatim.
        let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        for k in split..a.len() {
            sum += a.get_unchecked(k) * b.get_unchecked(k);
        }
        sum
    }

    /// AVX2 [`crate::matrix::scalar::score_top2`]: identical control
    /// flow with the AVX2 dot inlined per row.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_top2(
        data: &[f32],
        dim: usize,
        query: &[f32],
        classes: &[usize],
        alpha: f32,
        scratch: &mut ScoreScratch,
    ) -> Top2 {
        assert_eq!(
            classes.len() * dim,
            data.len(),
            "score_top2: shape mismatch"
        );
        let mut best: Option<(usize, f32)> = None;
        let mut second: Option<(usize, f32)> = None;
        if classes.is_empty() {
            return Top2 { best, second };
        }
        for (row, &class) in data.chunks_exact(dim).zip(classes) {
            let c = dot_unit(query, row);
            let a = c + alpha * scratch.accumulated(class);
            scratch.store(class, a);
            match best {
                Some((_, bv)) if a <= bv => match second {
                    Some((_, sv)) if a <= sv => {}
                    _ => second = Some((class, a)),
                },
                _ => {
                    second = best;
                    best = Some((class, a));
                }
            }
        }
        Top2 { best, second }
    }

    /// AVX2 [`crate::matrix::scalar::knn_k`].
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn knn_k(
        data: &[f32],
        dim: usize,
        query: &[f32],
        candidates: &[(u32, u32)],
        k: usize,
    ) -> Vec<(f32, u32)> {
        let mut scored: Vec<(f32, u32)> = candidates
            .iter()
            .map(|&(row, tag)| {
                let start = row as usize * dim;
                (dot_unit(query, &data[start..start + dim]), tag)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored
    }

    /// AVX2 [`crate::matrix::scalar::assign_nearest`].
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn assign_nearest(data: &[f32], dim: usize, query: &[f32]) -> Option<(usize, f32)> {
        if data.is_empty() {
            return None;
        }
        assert_eq!(data.len() % dim, 0, "assign_nearest: ragged buffer");
        let mut best: Option<(usize, f32)> = None;
        for (i, row) in data.chunks_exact(dim).enumerate() {
            let sim = dot_unit(query, row);
            match best {
                Some((_, bv)) if sim <= bv => {}
                _ => best = Some((i, sim)),
            }
        }
        best
    }

    /// AVX2 [`crate::matrix::scalar::merge_weighted_row`].
    ///
    /// The merged values are elementwise (`m = w_old·e + w_new·u`, one
    /// rounding per op, no FMA) so computing them 8-wide is exact; the
    /// norm accumulator is the scalar kernel's 4-lane state, fed low
    /// half before high half so the chunk order matches, then reduced
    /// **left-to-right** exactly like the scalar code (which does not
    /// use the pairwise tree here).
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn merge_weighted_row(e: &mut [f32], u: &[f32], w_old: f32, w_new: f32) -> f32 {
        assert_eq!(
            e.len(),
            u.len(),
            "merge_weighted_row: length mismatch {} vs {}",
            e.len(),
            u.len()
        );
        let n = e.len();
        let split = n - n % 4;
        let pe = e.as_mut_ptr();
        let pu = u.as_ptr();
        let wo8 = _mm256_set1_ps(w_old);
        let wn8 = _mm256_set1_ps(w_new);
        let mut acc = _mm_setzero_ps();
        let mut i = 0;
        // Two scalar 4-chunks per iteration: merged values are
        // elementwise, and the squared low half folds into `acc` before
        // the high half — the scalar chunk-k-then-chunk-k+1 order.
        while i + 8 <= split {
            let m = _mm256_add_ps(
                _mm256_mul_ps(wo8, _mm256_loadu_ps(pe.add(i))),
                _mm256_mul_ps(wn8, _mm256_loadu_ps(pu.add(i))),
            );
            _mm256_storeu_ps(pe.add(i), m);
            let sq = _mm256_mul_ps(m, m);
            acc = _mm_add_ps(acc, _mm256_castps256_ps128(sq));
            acc = _mm_add_ps(acc, _mm256_extractf128_ps::<1>(sq));
            i += 8;
        }
        if i < split {
            let m = _mm_add_ps(
                _mm_mul_ps(_mm256_castps256_ps128(wo8), _mm_loadu_ps(pe.add(i))),
                _mm_mul_ps(_mm256_castps256_ps128(wn8), _mm_loadu_ps(pu.add(i))),
            );
            _mm_storeu_ps(pe.add(i), m);
            acc = _mm_add_ps(acc, _mm_mul_ps(m, m));
            i += 4;
        }
        debug_assert_eq!(i, split);
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), acc);
        // Left-to-right, exactly like the scalar kernel.
        let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for k in split..n {
            let m = w_old * *pe.add(k) + w_new * *pu.add(k);
            *pe.add(k) = m;
            sum += m * m;
        }
        let norm = sum.sqrt();
        if norm > f32::MIN_POSITIVE {
            let inv = 1.0 / norm;
            let inv8 = _mm256_set1_ps(inv);
            let mut k = 0;
            while k + 8 <= n {
                _mm256_storeu_ps(pe.add(k), _mm256_mul_ps(_mm256_loadu_ps(pe.add(k)), inv8));
                k += 8;
            }
            while k < n {
                *pe.add(k) *= inv;
                k += 1;
            }
        }
        norm
    }

    /// Two-row interleaved [`merge_weighted_row`]: each row's arithmetic
    /// — merge values, norm-accumulator chunk order, left-to-right lane
    /// reduction, tail, normalize — is the single-row kernel's sequence
    /// **bit for bit**; only the instruction schedule interleaves, so the
    /// two rows' serial norm-accumulator dependency chains (the
    /// single-row bottleneck: one `_mm_add_ps` per 4 elements, latency
    /// bound, identical under SSE and AVX2) overlap in the pipeline.
    /// Rows are independent, so interleaving cannot change results.
    ///
    /// # Safety
    /// Requires AVX2; `ea`/`eb` must not alias.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn merge_weighted_row_x2(
        ea: &mut [f32],
        ua: &[f32],
        woa: f32,
        wna: f32,
        eb: &mut [f32],
        ub: &[f32],
        wob: f32,
        wnb: f32,
    ) -> (f32, f32) {
        debug_assert_eq!(ea.len(), ua.len());
        debug_assert_eq!(eb.len(), ub.len());
        debug_assert_eq!(ea.len(), eb.len());
        let n = ea.len();
        let split = n - n % 4;
        let pea = ea.as_mut_ptr();
        let pua = ua.as_ptr();
        let peb = eb.as_mut_ptr();
        let pub_ = ub.as_ptr();
        let woa8 = _mm256_set1_ps(woa);
        let wna8 = _mm256_set1_ps(wna);
        let wob8 = _mm256_set1_ps(wob);
        let wnb8 = _mm256_set1_ps(wnb);
        let mut acca = _mm_setzero_ps();
        let mut accb = _mm_setzero_ps();
        let mut i = 0;
        while i + 8 <= split {
            let ma = _mm256_add_ps(
                _mm256_mul_ps(woa8, _mm256_loadu_ps(pea.add(i))),
                _mm256_mul_ps(wna8, _mm256_loadu_ps(pua.add(i))),
            );
            _mm256_storeu_ps(pea.add(i), ma);
            let mb = _mm256_add_ps(
                _mm256_mul_ps(wob8, _mm256_loadu_ps(peb.add(i))),
                _mm256_mul_ps(wnb8, _mm256_loadu_ps(pub_.add(i))),
            );
            _mm256_storeu_ps(peb.add(i), mb);
            let sqa = _mm256_mul_ps(ma, ma);
            let sqb = _mm256_mul_ps(mb, mb);
            acca = _mm_add_ps(acca, _mm256_castps256_ps128(sqa));
            acca = _mm_add_ps(acca, _mm256_extractf128_ps::<1>(sqa));
            accb = _mm_add_ps(accb, _mm256_castps256_ps128(sqb));
            accb = _mm_add_ps(accb, _mm256_extractf128_ps::<1>(sqb));
            i += 8;
        }
        if i < split {
            let ma = _mm_add_ps(
                _mm_mul_ps(_mm256_castps256_ps128(woa8), _mm_loadu_ps(pea.add(i))),
                _mm_mul_ps(_mm256_castps256_ps128(wna8), _mm_loadu_ps(pua.add(i))),
            );
            _mm_storeu_ps(pea.add(i), ma);
            acca = _mm_add_ps(acca, _mm_mul_ps(ma, ma));
            let mb = _mm_add_ps(
                _mm_mul_ps(_mm256_castps256_ps128(wob8), _mm_loadu_ps(peb.add(i))),
                _mm_mul_ps(_mm256_castps256_ps128(wnb8), _mm_loadu_ps(pub_.add(i))),
            );
            _mm_storeu_ps(peb.add(i), mb);
            accb = _mm_add_ps(accb, _mm_mul_ps(mb, mb));
            i += 4;
        }
        debug_assert_eq!(i, split);
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), acca);
        let mut suma = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        _mm_storeu_ps(lanes.as_mut_ptr(), accb);
        let mut sumb = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for k in split..n {
            let ma = woa * *pea.add(k) + wna * *pua.add(k);
            *pea.add(k) = ma;
            suma += ma * ma;
            let mb = wob * *peb.add(k) + wnb * *pub_.add(k);
            *peb.add(k) = mb;
            sumb += mb * mb;
        }
        let norm_a = suma.sqrt();
        let norm_b = sumb.sqrt();
        // Per-row guarded normalize, exactly like the single-row kernel
        // (a zero/denormal-tiny merged row stays unnormalized).
        for (p, norm) in [(pea, norm_a), (peb, norm_b)] {
            if norm > f32::MIN_POSITIVE {
                let inv = 1.0 / norm;
                let inv8 = _mm256_set1_ps(inv);
                let mut k = 0;
                while k + 8 <= n {
                    _mm256_storeu_ps(p.add(k), _mm256_mul_ps(_mm256_loadu_ps(p.add(k)), inv8));
                    k += 8;
                }
                while k < n {
                    *p.add(k) *= inv;
                    k += 1;
                }
            }
        }
        (norm_a, norm_b)
    }

    /// AVX2 [`crate::matrix::scalar::merge_weighted_rows`].
    ///
    /// Jobs run pairwise-interleaved through [`merge_weighted_row_x2`]
    /// when the pair's destination rows differ (independent rows, so the
    /// per-row arithmetic — and therefore the output — is unchanged; the
    /// two norm-accumulator chains overlap instead of serializing). A
    /// pair writing the same destination row, and a trailing odd job,
    /// fall back to the single-row kernel in job order.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn merge_weighted_rows(
        dst: &mut [f32],
        dim: usize,
        dst_rows: &[usize],
        src: &[f32],
        src_rows: &[usize],
        w_old: &[f32],
        w_new: &[f32],
    ) {
        assert!(
            dst.len().is_multiple_of(dim.max(1)) && src.len().is_multiple_of(dim.max(1)),
            "merge_weighted_rows: ragged buffers"
        );
        assert!(
            dst_rows.len() == src_rows.len()
                && dst_rows.len() == w_old.len()
                && dst_rows.len() == w_new.len(),
            "merge_weighted_rows: job slices must be parallel"
        );
        let jobs = dst_rows.len();
        let mut i = 0;
        while i + 1 < jobs {
            if dst_rows[i] == dst_rows[i + 1] {
                let d = dst_rows[i] * dim;
                let s = src_rows[i] * dim;
                merge_weighted_row(&mut dst[d..d + dim], &src[s..s + dim], w_old[i], w_new[i]);
                i += 1;
                continue;
            }
            let da = dst_rows[i] * dim;
            let db = dst_rows[i + 1] * dim;
            let sa = src_rows[i] * dim;
            let sb = src_rows[i + 1] * dim;
            assert!(
                da + dim <= dst.len() && db + dim <= dst.len(),
                "merge_weighted_rows: destination row out of range"
            );
            // Distinct rows of one buffer: disjoint, so the two &mut
            // slices are sound.
            let pd = dst.as_mut_ptr();
            let ea = core::slice::from_raw_parts_mut(pd.add(da), dim);
            let eb = core::slice::from_raw_parts_mut(pd.add(db), dim);
            merge_weighted_row_x2(
                ea,
                &src[sa..sa + dim],
                w_old[i],
                w_new[i],
                eb,
                &src[sb..sb + dim],
                w_old[i + 1],
                w_new[i + 1],
            );
            i += 2;
        }
        if i < jobs {
            let d = dst_rows[i] * dim;
            let s = src_rows[i] * dim;
            merge_weighted_row(&mut dst[d..d + dim], &src[s..s + dim], w_old[i], w_new[i]);
        }
    }
}
