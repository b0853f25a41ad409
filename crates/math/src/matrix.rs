//! Fused, deterministic scoring kernels over contiguous row-major buffers.
//!
//! These are the inner loops behind every similarity hot path of the
//! reproduction: CoCa's per-layer Eq. 1/2 scoring, FoggyCache's H-kNN
//! candidate ranking and the k-means assignment step. They operate on a
//! flat `data` slice holding `data.len() / dim` rows of dimension `dim`
//! (see [`crate::store::VectorStore`] for the dimension-checked handle).
//!
//! ## Determinism policy
//!
//! Every kernel accumulates with a **fixed-width 8-lane unroll** and a
//! **fixed summation order** (lanes reduced pairwise, then the tail in
//! index order). The result is therefore bit-identical run-to-run and
//! across thread counts — parallel sweeps stay reproducible — and within
//! `1e-5` of the scalar reference implementations in [`reference`]
//! (property-tested in `tests/proptest_kernels.rs`). Ties in every
//! selection kernel break toward the earlier row / smaller tag, matching
//! the scalar reference exactly.

/// Fixed unroll width of every kernel (see the module docs).
pub const UNROLL: usize = 8;

/// True iff the dispatched kernels currently run the explicit AVX2 path
/// (an x86_64 build on a CPU with AVX2). Either way the outputs are
/// bit-identical; this only reports which implementation executes.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::avx2_enabled()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dispatches `$avx2(args)` when the AVX2 path is active, else
/// `$scalar(args)`. Both produce bit-identical results (see
/// `crate::simd`); benches and the parity proptests call the
/// [`scalar`] module directly to compare.
macro_rules! dispatch {
    ($scalar:path, $avx2:path, $($arg:expr),* $(,)?) => {{
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_enabled() {
            // SAFETY: `avx2_enabled()` just verified the CPU feature.
            return unsafe { $avx2($($arg),*) };
        }
        $scalar($($arg),*)
    }};
}

/// Norm-free dot product for **unit vectors**: callers uphold the
/// unit-norm contract at insertion time (a `debug_assert` there, not a
/// per-lookup renormalization), so `dot_unit(a, b)` *is* the cosine
/// similarity. Fixed 8-lane accumulation; deterministic. (A dual-chain
/// 16-wide variant was tried and measured *slower* — the single 8-lane
/// pattern is what the auto-vectorizer maps cleanly onto one SIMD
/// accumulator.)
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot_unit(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(scalar::dot_unit, crate::simd::avx2::dot_unit, a, b)
}

/// Reusable accumulator scratch for [`score_top2`] (paper Eq. 1 state).
///
/// Replaces the per-frame `acc`/`acc_set` vector allocations of the seed
/// lookup: the buffers live for the client's lifetime and an epoch stamp
/// makes "not yet scored this frame" an O(1) test instead of an
/// O(classes) clear.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    acc: Vec<f32>,
    stamp: Vec<u64>,
    epoch: u64,
}

impl ScoreScratch {
    /// An empty scratch; sized lazily by [`ScoreScratch::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new frame over a class universe of `num_classes`:
    /// accumulated scores from the previous frame become invisible without
    /// touching the buffers.
    pub fn begin(&mut self, num_classes: usize) {
        if self.acc.len() < num_classes {
            self.acc.resize(num_classes, 0.0);
            self.stamp.resize(num_classes, 0);
        }
        self.epoch += 1;
    }

    /// The accumulated score of `class` this frame (0 if not yet scored).
    #[inline]
    pub fn accumulated(&self, class: usize) -> f32 {
        if self.stamp[class] == self.epoch {
            self.acc[class]
        } else {
            0.0
        }
    }

    #[inline]
    pub(crate) fn store(&mut self, class: usize, value: f32) {
        self.acc[class] = value;
        self.stamp[class] = self.epoch;
    }
}

/// Best and runner-up accumulated class scores of one layer scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Top2 {
    /// `(class, A)` with the largest accumulated score (earliest row wins
    /// ties); `None` for an empty layer.
    pub best: Option<(usize, f32)>,
    /// The runner-up, `None` when the layer holds fewer than two entries.
    pub second: Option<(usize, f32)>,
}

/// One fused pass over a layer's entries (paper Eq. 1 + the Eq. 2
/// operands): for each row `r` of `data`, scores `C = dot_unit(query,
/// row)`, accumulates `A = C + alpha · A_prev` into `scratch`, and tracks
/// the two leading accumulated classes. `classes[r]` is row `r`'s class
/// id; ids must be unique within one call.
///
/// Call [`ScoreScratch::begin`] once per frame, then this once per
/// activated layer — accumulation across layers flows through the scratch.
///
/// # Panics
/// Panics if `classes.len() · dim != data.len()` or (for a non-empty
/// layer) `query.len() != dim`.
pub fn score_top2(
    data: &[f32],
    dim: usize,
    query: &[f32],
    classes: &[usize],
    alpha: f32,
    scratch: &mut ScoreScratch,
) -> Top2 {
    dispatch!(
        scalar::score_top2,
        crate::simd::avx2::score_top2,
        data,
        dim,
        query,
        classes,
        alpha,
        scratch,
    )
}

/// Top-`k` rows by similarity (H-kNN candidate ranking): scores every
/// `(row, tag)` candidate with [`dot_unit`] and returns the `k` highest as
/// `(similarity, tag)`, similarity-descending, smaller tag on ties.
///
/// # Panics
/// Panics if a candidate row is out of range or (for a non-empty candidate
/// set) `query.len() != dim`.
pub fn knn_k(
    data: &[f32],
    dim: usize,
    query: &[f32],
    candidates: &[(u32, u32)],
    k: usize,
) -> Vec<(f32, u32)> {
    dispatch!(
        scalar::knn_k,
        crate::simd::avx2::knn_k,
        data,
        dim,
        query,
        candidates,
        k,
    )
}

/// Nearest row by similarity (the k-means E-step): `(row, similarity)` of
/// the row with the largest [`dot_unit`] against `query`, earliest row on
/// ties. `None` for an empty buffer.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `dim`, or (for a non-empty
/// buffer) `query.len() != dim`.
pub fn assign_nearest(data: &[f32], dim: usize, query: &[f32]) -> Option<(usize, f32)> {
    dispatch!(
        scalar::assign_nearest,
        crate::simd::avx2::assign_nearest,
        data,
        dim,
        query,
    )
}

/// One fused Eq. 4 merge + renormalize over a single row:
/// `e ← normalize(w_old·e + w_new·u)`, returning the pre-normalization
/// norm. The merged values and the norm's sum-of-squares are produced in
/// **one pass** with the same fixed 4-accumulator reduction order as
/// [`crate::vector::dot`], and the rounding sequence mirrors the seed
/// `scale(w_old, e)` → `axpy(w_new, u, e)` → `l2_normalize(e)` path
/// **bit for bit** — that equivalence is the no-behavioral-drift
/// contract of the columnar server tables (see `coca-core::global`).
/// A zero (or denormal-tiny) merged row is left unnormalized, exactly as
/// [`crate::vector::l2_normalize`] leaves it.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn merge_weighted_row(e: &mut [f32], u: &[f32], w_old: f32, w_new: f32) -> f32 {
    dispatch!(
        scalar::merge_weighted_row,
        crate::simd::avx2::merge_weighted_row,
        e,
        u,
        w_old,
        w_new,
    )
}

/// Batched [`merge_weighted_row`] over a contiguous destination buffer:
/// for each `i`, merges source row `src_rows[i]` of `src` into
/// destination row `dst_rows[i]` of `dst` with weights `w_old[i]` /
/// `w_new[i]`. This is the per-layer Eq. 4 pass of the columnar global
/// cache table — one call merges a whole upload layer.
///
/// # Panics
/// Panics on ragged buffers, length-mismatched job slices or
/// out-of-range rows.
pub fn merge_weighted_rows(
    dst: &mut [f32],
    dim: usize,
    dst_rows: &[usize],
    src: &[f32],
    src_rows: &[usize],
    w_old: &[f32],
    w_new: &[f32],
) {
    dispatch!(
        scalar::merge_weighted_rows,
        crate::simd::avx2::merge_weighted_rows,
        dst,
        dim,
        dst_rows,
        src,
        src_rows,
        w_old,
        w_new,
    )
}

/// The scalar 8-lane kernels — the canonical implementations every
/// dispatcher falls back to and the bit-identity reference for the AVX2
/// path (`tests/proptest_simd.rs` pins them equal; the microbenches call
/// these directly for scalar-vs-SIMD rows). Always compiled.
pub mod scalar {
    use super::{ScoreScratch, Top2, UNROLL};

    /// Scalar [`super::dot_unit`]: fixed 8-lane unroll + pairwise tree.
    pub fn dot_unit(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot_unit: length mismatch {} vs {}",
            a.len(),
            b.len()
        );
        let split = a.len() - a.len() % UNROLL;
        let (a_main, a_tail) = a.split_at(split);
        let (b_main, b_tail) = b.split_at(split);
        let mut lanes = [0.0f32; UNROLL];
        for (ca, cb) in a_main.chunks_exact(UNROLL).zip(b_main.chunks_exact(UNROLL)) {
            lanes[0] += ca[0] * cb[0];
            lanes[1] += ca[1] * cb[1];
            lanes[2] += ca[2] * cb[2];
            lanes[3] += ca[3] * cb[3];
            lanes[4] += ca[4] * cb[4];
            lanes[5] += ca[5] * cb[5];
            lanes[6] += ca[6] * cb[6];
            lanes[7] += ca[7] * cb[7];
        }
        // Pairwise lane reduction: one fixed tree, independent of dim.
        let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        for (x, y) in a_tail.iter().zip(b_tail) {
            sum += x * y;
        }
        sum
    }

    /// Scalar [`super::score_top2`].
    pub fn score_top2(
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

    /// Scalar [`super::knn_k`].
    pub fn knn_k(
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

    /// Scalar [`super::assign_nearest`].
    pub fn assign_nearest(data: &[f32], dim: usize, query: &[f32]) -> Option<(usize, f32)> {
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

    /// Scalar [`super::merge_weighted_row`]: fused merge + renormalize
    /// with the fixed 4-accumulator order (bit-identical to the seed
    /// scale → axpy → l2_normalize sequence).
    pub fn merge_weighted_row(e: &mut [f32], u: &[f32], w_old: f32, w_new: f32) -> f32 {
        assert_eq!(
            e.len(),
            u.len(),
            "merge_weighted_row: length mismatch {} vs {}",
            e.len(),
            u.len()
        );
        let split = e.len() - e.len() % 4;
        let (e_main, e_tail) = e.split_at_mut(split);
        let (u_main, u_tail) = u.split_at(split);
        let mut acc = [0.0f32; 4];
        for (ec, uc) in e_main.chunks_exact_mut(4).zip(u_main.chunks_exact(4)) {
            let m0 = w_old * ec[0] + w_new * uc[0];
            let m1 = w_old * ec[1] + w_new * uc[1];
            let m2 = w_old * ec[2] + w_new * uc[2];
            let m3 = w_old * ec[3] + w_new * uc[3];
            ec[0] = m0;
            ec[1] = m1;
            ec[2] = m2;
            ec[3] = m3;
            acc[0] += m0 * m0;
            acc[1] += m1 * m1;
            acc[2] += m2 * m2;
            acc[3] += m3 * m3;
        }
        let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
        for (ei, &ui) in e_tail.iter_mut().zip(u_tail) {
            let m = w_old * *ei + w_new * ui;
            *ei = m;
            sum += m * m;
        }
        let norm = sum.sqrt();
        if norm > f32::MIN_POSITIVE {
            let inv = 1.0 / norm;
            for x in e.iter_mut() {
                *x *= inv;
            }
        }
        norm
    }

    /// Scalar [`super::merge_weighted_rows`].
    pub fn merge_weighted_rows(
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
        for i in 0..dst_rows.len() {
            let d = dst_rows[i] * dim;
            let s = src_rows[i] * dim;
            merge_weighted_row(&mut dst[d..d + dim], &src[s..s + dim], w_old[i], w_new[i]);
        }
    }
}

/// Scalar reference implementations of every fused kernel: plain
/// left-to-right summation, no unrolling, no shared accumulator state.
/// The property tests pin the fused kernels to these within `1e-5`.
pub mod reference {
    use super::{ScoreScratch, Top2};

    /// Plain left-to-right dot product.
    pub fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot_ref: length mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Scalar twin of [`super::score_top2`] over explicit rows.
    pub fn score_top2_ref(
        rows: &[Vec<f32>],
        query: &[f32],
        classes: &[usize],
        alpha: f32,
        scratch: &mut ScoreScratch,
    ) -> Top2 {
        assert_eq!(rows.len(), classes.len(), "score_top2_ref: shape mismatch");
        let mut best: Option<(usize, f32)> = None;
        let mut second: Option<(usize, f32)> = None;
        for (row, &class) in rows.iter().zip(classes) {
            let c = dot_ref(query, row);
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

    /// Scalar twin of [`super::knn_k`] over explicit rows.
    pub fn knn_k_ref(
        rows: &[Vec<f32>],
        query: &[f32],
        candidates: &[(u32, u32)],
        k: usize,
    ) -> Vec<(f32, u32)> {
        let mut scored: Vec<(f32, u32)> = candidates
            .iter()
            .map(|&(row, tag)| (dot_ref(query, &rows[row as usize]), tag))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored
    }

    /// Scalar twin of [`super::assign_nearest`] over explicit rows.
    pub fn assign_nearest_ref(rows: &[Vec<f32>], query: &[f32]) -> Option<(usize, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, row) in rows.iter().enumerate() {
            let sim = dot_ref(query, row);
            match best {
                Some((_, bv)) if sim <= bv => {}
                _ => best = Some((i, sim)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_unit_matches_reference_on_odd_dims() {
        for dim in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let a: Vec<f32> = (0..dim)
                .map(|i| ((i * 37 + 5) % 11) as f32 * 0.1 - 0.5)
                .collect();
            let b: Vec<f32> = (0..dim)
                .map(|i| ((i * 13 + 3) % 7) as f32 * 0.2 - 0.6)
                .collect();
            let fused = dot_unit(&a, &b);
            let naive = reference::dot_ref(&a, &b);
            assert!(
                (fused - naive).abs() < 1e-4,
                "dim {dim}: {fused} vs {naive}"
            );
        }
    }

    #[test]
    fn dot_unit_is_deterministic() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32).cos()).collect();
        assert_eq!(dot_unit(&a, &b).to_bits(), dot_unit(&a, &b).to_bits());
    }

    #[test]
    fn scratch_epochs_isolate_frames() {
        let mut s = ScoreScratch::new();
        s.begin(4);
        s.store(2, 0.7);
        assert_eq!(s.accumulated(2), 0.7);
        assert_eq!(s.accumulated(0), 0.0);
        s.begin(4);
        assert_eq!(s.accumulated(2), 0.0, "new frame must not see old scores");
    }

    #[test]
    fn score_top2_accumulates_across_layers() {
        // One class cached at two "layers": the second scan must decay-add.
        let dim = 2;
        let row = [1.0f32, 0.0];
        let q = [1.0f32, 0.0];
        let mut s = ScoreScratch::new();
        s.begin(3);
        let t1 = score_top2(&row, dim, &q, &[1], 0.5, &mut s);
        assert_eq!(t1.best, Some((1, 1.0)));
        assert_eq!(t1.second, None);
        let t2 = score_top2(&row, dim, &q, &[1], 0.5, &mut s);
        assert_eq!(t2.best, Some((1, 1.5)), "A = C + α·A_prev");
    }

    #[test]
    fn score_top2_orders_best_and_second() {
        let dim = 2;
        #[rustfmt::skip]
        let data = [
            1.0f32, 0.0, // class 5: sim 1.0 vs q
            0.0, 1.0,    // class 7: sim 0.0
            0.8, 0.6,    // class 9: sim 0.8
        ];
        let q = [1.0f32, 0.0];
        let mut s = ScoreScratch::new();
        s.begin(10);
        let t = score_top2(&data, dim, &q, &[5, 7, 9], 0.9, &mut s);
        assert_eq!(t.best.unwrap().0, 5);
        assert_eq!(t.second.unwrap().0, 9);
    }

    #[test]
    fn knn_k_ranks_and_breaks_ties_by_tag() {
        let dim = 2;
        #[rustfmt::skip]
        let data = [
            1.0f32, 0.0,
            0.0, 1.0,
            1.0, 0.0, // duplicate of row 0
        ];
        let q = [1.0f32, 0.0];
        let cands = [(0u32, 10u32), (1, 11), (2, 9)];
        let top = knn_k(&data, dim, &q, &cands, 2);
        assert_eq!(top.len(), 2);
        // Rows 0 and 2 tie at sim 1.0; smaller tag (9) first.
        assert_eq!(top[0].1, 9);
        assert_eq!(top[1].1, 10);
    }

    #[test]
    fn merge_weighted_row_is_bit_identical_to_scale_axpy_normalize() {
        use crate::vector::{axpy, l2_normalize, scale};
        for dim in [1usize, 3, 4, 7, 8, 13, 64, 129] {
            let e0: Vec<f32> = (0..dim)
                .map(|i| ((i * 31 + 7) % 17) as f32 * 0.11 - 0.9)
                .collect();
            let u: Vec<f32> = (0..dim)
                .map(|i| ((i * 13 + 5) % 19) as f32 * 0.07 - 0.6)
                .collect();
            let (w_old, w_new) = (0.99f32 * 0.3, 0.7f32);
            // Seed path: three separate passes.
            let mut seed = e0.clone();
            scale(w_old, &mut seed);
            axpy(w_new, &u, &mut seed);
            let seed_norm = l2_normalize(&mut seed);
            // Fused path.
            let mut fused = e0.clone();
            let norm = merge_weighted_row(&mut fused, &u, w_old, w_new);
            assert_eq!(norm.to_bits(), seed_norm.to_bits(), "dim {dim}");
            for (a, b) in fused.iter().zip(&seed) {
                assert_eq!(a.to_bits(), b.to_bits(), "dim {dim}");
            }
        }
    }

    #[test]
    fn merge_weighted_row_leaves_tiny_rows_unnormalized() {
        let mut e = vec![0.0f32; 5];
        let u = vec![0.0f32; 5];
        assert_eq!(merge_weighted_row(&mut e, &u, 0.5, 0.5), 0.0);
        assert!(e.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn merge_weighted_rows_batches_disjoint_jobs() {
        let dim = 3;
        let mut dst = vec![
            1.0f32, 0.0, 0.0, // row 0
            0.0, 1.0, 0.0, // row 1
        ];
        let src = vec![0.0f32, 0.0, 1.0];
        let mut expect0 = dst[0..3].to_vec();
        let mut expect1 = dst[3..6].to_vec();
        merge_weighted_row(&mut expect0, &src, 0.4, 0.6);
        merge_weighted_row(&mut expect1, &src, 0.9, 0.1);
        merge_weighted_rows(
            &mut dst,
            dim,
            &[0, 1],
            &src,
            &[0, 0],
            &[0.4, 0.9],
            &[0.6, 0.1],
        );
        assert_eq!(&dst[0..3], expect0.as_slice());
        assert_eq!(&dst[3..6], expect1.as_slice());
    }

    #[test]
    fn assign_nearest_picks_earliest_on_ties() {
        let dim = 2;
        let data = [0.0f32, 1.0, 1.0, 0.0, 1.0, 0.0];
        assert_eq!(assign_nearest(&data, dim, &[1.0, 0.0]), Some((1, 1.0)));
        assert_eq!(assign_nearest(&[], dim, &[1.0, 0.0]), None);
    }
}
