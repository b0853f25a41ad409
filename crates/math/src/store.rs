//! [`VectorStore`] — contiguous row-major f32 storage with a
//! dimension-checked handle.
//!
//! Every similarity hot path of the reproduction used to scan
//! `Vec<Vec<f32>>` rows — one heap allocation and one pointer chase per
//! entry. A `VectorStore` keeps all rows in **one flat buffer** so the
//! fused kernels of [`crate::matrix`] stream through cache lines, and its
//! handle enforces that every row shares one dimension (the first pushed
//! row fixes it).
//!
//! The binary frame codec moves the flat buffer as raw little-endian
//! bytes ([`VectorStore::extend_le_bytes`] /
//! [`VectorStore::from_le_bytes`]), so a cache layer ships one flat array
//! instead of per-row pieces.

use crate::aligned::AlignedF32;
use crate::matrix::{self, ScoreScratch, Top2};

/// Contiguous row-major storage of equal-dimension f32 vectors.
///
/// The buffer is 32-byte aligned ([`AlignedF32`]) so no 256-bit load of
/// the AVX2 kernels (x86_64, `crate::simd`) splits a cache line whenever
/// `dim % 8 == 0`; alignment is invisible to results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VectorStore {
    /// Row dimension; 0 while the store has never held a row.
    dim: usize,
    /// Row-major flat buffer, `rows · dim` long.
    data: AlignedF32,
}

impl VectorStore {
    /// An empty store whose dimension is fixed by the first pushed row.
    pub fn empty() -> Self {
        Self::default()
    }

    /// An empty store with the dimension fixed up front.
    ///
    /// # Panics
    /// Panics if `dim` is 0.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "VectorStore: dim must be positive");
        Self {
            dim,
            data: AlignedF32::new(),
        }
    }

    /// An empty store with the dimension fixed and capacity reserved for
    /// `rows` rows (gather-style extraction pre-sizes its output).
    ///
    /// # Panics
    /// Panics if `dim` is 0.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "VectorStore: dim must be positive");
        Self {
            dim,
            data: AlignedF32::with_capacity(dim * rows),
        }
    }

    /// A store of `rows` zero-filled rows — the dense backing of an
    /// occupancy-bitmap table (unpopulated slots stay zero).
    ///
    /// # Panics
    /// Panics if `dim` is 0.
    pub fn zeros(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "VectorStore: dim must be positive");
        Self {
            dim,
            data: AlignedF32::zeros(dim * rows),
        }
    }

    /// Builds a store from explicit rows (they must share one length).
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        let mut s = Self::empty();
        for r in rows {
            s.push_row(r.as_ref());
        }
        s
    }

    /// Row dimension (0 iff the store never held a row).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True iff the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes occupied by the rows (dense f32).
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Row `i` as a mutable slice (in-place decay-add updates).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let start = i * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// Gather-style extraction: copies the given rows, in order, into a
    /// fresh pre-sized store — one `memcpy` per row, no per-row
    /// allocations (the columnar `extract` hot path).
    ///
    /// # Panics
    /// Panics if any row is out of range or the store holds no rows.
    pub fn extract_rows(&self, rows: &[usize]) -> VectorStore {
        assert!(self.dim > 0, "extract_rows: store dimension unset");
        let mut out = VectorStore::with_capacity(self.dim, rows.len());
        for &r in rows {
            let start = r * self.dim;
            out.data
                .extend_from_slice(&self.data[start..start + self.dim]);
        }
        out
    }

    /// Iterates the rows in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        // `chunks_exact(0)` panics, so an unset-dimension (empty) store
        // iterates over a chunk size of 1 — zero chunks either way.
        self.data.chunks_exact(self.dim.max(1))
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably (batched in-place kernels).
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Appends a row, fixing the store dimension on first use; returns the
    /// new row's index.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or an empty row.
    pub fn push_row(&mut self, row: &[f32]) -> usize {
        if self.dim == 0 {
            assert!(!row.is_empty(), "VectorStore: cannot push an empty row");
            self.dim = row.len();
        } else {
            assert_eq!(
                row.len(),
                self.dim,
                "VectorStore: row dim {} vs store dim {}",
                row.len(),
                self.dim
            );
        }
        self.data.extend_from_slice(row);
        self.rows() - 1
    }

    /// Overwrites row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the dimension mismatches.
    pub fn set_row(&mut self, i: usize, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.dim,
            "VectorStore: row dim {} vs store dim {}",
            row.len(),
            self.dim
        );
        let start = i * self.dim;
        self.data[start..start + self.dim].copy_from_slice(row);
    }

    /// Removes row `i` by moving the last row into its slot (O(dim)).
    /// Returns the index of the row that moved into `i`, if any.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn swap_remove_row(&mut self, i: usize) -> Option<usize> {
        let last = self
            .rows()
            .checked_sub(1)
            .expect("swap_remove on empty store");
        assert!(i <= last, "VectorStore: row {i} out of range ({last} max)");
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(tail);
        }
        self.data.truncate(last * self.dim);
        (i != last).then_some(last)
    }

    /// Drops every row (the dimension is kept).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    // --------------------------------------------------- binary rows ----

    /// The decoder's shape check: `floats` values must be whole rows of
    /// `dim`, and data needs a dimension.
    fn check_shape(dim: usize, floats: usize) -> Result<(), String> {
        if dim == 0 && floats > 0 {
            return Err("VectorStore: data without a dim".into());
        }
        if dim > 0 && !floats.is_multiple_of(dim) {
            return Err(format!(
                "VectorStore: {floats} floats is not a multiple of dim {dim}"
            ));
        }
        Ok(())
    }

    /// Appends every row to `out` as raw little-endian f32 bytes
    /// (`rows · dim · 4` of them) — the binary frame codec's payload
    /// shape, written straight from the flat buffer.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.data.len() * 4, 0);
        for (dst, x) in out[start..].chunks_exact_mut(4).zip(self.data.iter()) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Rebuilds a store of dimension `dim` from raw little-endian f32
    /// bytes, decoded straight into the aligned buffer. Errors — never
    /// panics — on a byte count that is not whole rows, or on data
    /// without a dimension.
    pub fn from_le_bytes(dim: usize, bytes: &[u8]) -> Result<Self, String> {
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "VectorStore: {} bytes is not whole f32s",
                bytes.len()
            ));
        }
        let floats = bytes.len() / 4;
        Self::check_shape(dim, floats)?;
        let mut data = AlignedF32::zeros(floats);
        for (x, src) in data.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes(src.try_into().expect("chunks_exact(4) yields 4 bytes"));
        }
        Ok(Self { dim, data })
    }

    // ------------------------------------------------- fused kernels ----

    /// One fused Eq. 1/2 pass over the store (see [`matrix::score_top2`]).
    pub fn score_top2(
        &self,
        query: &[f32],
        classes: &[usize],
        alpha: f32,
        scratch: &mut ScoreScratch,
    ) -> Top2 {
        matrix::score_top2(&self.data, self.dim, query, classes, alpha, scratch)
    }

    /// Top-`k` candidate rows by similarity (see [`matrix::knn_k`]).
    pub fn knn_k(&self, query: &[f32], candidates: &[(u32, u32)], k: usize) -> Vec<(f32, u32)> {
        matrix::knn_k(&self.data, self.dim, query, candidates, k)
    }

    /// Nearest row by similarity (see [`matrix::assign_nearest`]).
    pub fn assign_nearest(&self, query: &[f32]) -> Option<(usize, f32)> {
        matrix::assign_nearest(&self.data, self.dim, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store3() -> VectorStore {
        VectorStore::from_rows(&[[1.0f32, 0.0], [0.0, 1.0], [0.6, 0.8]])
    }

    #[test]
    fn push_fixes_dimension() {
        let mut s = VectorStore::empty();
        assert_eq!(s.dim(), 0);
        assert_eq!(s.push_row(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "row dim")]
    fn ragged_push_panics() {
        let mut s = VectorStore::new(2);
        s.push_row(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_and_swap_remove() {
        let mut s = store3();
        s.set_row(1, &[0.5, 0.5]);
        assert_eq!(s.row(1), &[0.5, 0.5]);
        // Removing the middle row moves the last row into its slot.
        assert_eq!(s.swap_remove_row(1), Some(2));
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(1), &[0.6, 0.8]);
        // Removing the last row moves nothing.
        assert_eq!(s.swap_remove_row(1), None);
        assert_eq!(s.rows(), 1);
    }

    #[test]
    fn zeros_row_mut_and_extract_rows() {
        let mut s = VectorStore::zeros(2, 3);
        assert_eq!(s.rows(), 3);
        assert!(s.as_flat().iter().all(|&x| x == 0.0));
        s.row_mut(1).copy_from_slice(&[0.5, 0.5]);
        assert_eq!(s.row(1), &[0.5, 0.5]);
        let picked = s.extract_rows(&[1, 0, 1]);
        assert_eq!(picked.rows(), 3);
        assert_eq!(picked.row(0), &[0.5, 0.5]);
        assert_eq!(picked.row(1), &[0.0, 0.0]);
        assert_eq!(picked.row(2), &[0.5, 0.5]);
        let with_cap = VectorStore::with_capacity(2, 8);
        assert_eq!(with_cap.rows(), 0);
        assert_eq!(with_cap.dim(), 2);
    }

    #[test]
    fn rows_iterate_in_order() {
        let s = store3();
        let rows: Vec<&[f32]> = s.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[0.6, 0.8]);
        assert!(VectorStore::empty().iter_rows().next().is_none());
    }

    #[test]
    fn le_bytes_round_trip_bit_exactly() {
        let s =
            VectorStore::from_rows(&[[1.5f32, -0.0], [f32::INFINITY, f32::from_bits(0x7fc0_1234)]]);
        let mut bytes = vec![0xAA]; // appended after existing content
        s.extend_le_bytes(&mut bytes);
        assert_eq!(bytes.len(), 1 + 16);
        assert_eq!(&bytes[1..5], &1.5f32.to_le_bytes());
        let back = VectorStore::from_le_bytes(2, &bytes[1..]).unwrap();
        assert_eq!(back.dim(), 2);
        let bits = |s: &VectorStore| s.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&s), "NaN payload and -0.0 survive");
        // An empty store keeps its dimension, set or not.
        assert_eq!(
            VectorStore::from_le_bytes(0, &[]).unwrap(),
            VectorStore::empty()
        );
        assert_eq!(VectorStore::from_le_bytes(3, &[]).unwrap().dim(), 3);
    }

    #[test]
    fn le_bytes_reject_ragged_buffers() {
        assert!(
            VectorStore::from_le_bytes(2, &[0; 7]).is_err(),
            "not whole f32s"
        );
        assert!(
            VectorStore::from_le_bytes(3, &[0; 8]).is_err(),
            "not whole rows"
        );
        assert!(
            VectorStore::from_le_bytes(0, &[0; 4]).is_err(),
            "data without a dim"
        );
    }

    #[test]
    fn fused_methods_delegate() {
        let s = store3();
        let mut scratch = ScoreScratch::new();
        scratch.begin(3);
        let t = s.score_top2(&[1.0, 0.0], &[0, 1, 2], 0.9, &mut scratch);
        assert_eq!(t.best.unwrap().0, 0);
        assert_eq!(t.second.unwrap().0, 2);
        assert_eq!(s.assign_nearest(&[0.0, 1.0]), Some((1, 1.0)));
        let top = s.knn_k(&[1.0, 0.0], &[(0, 0), (1, 1), (2, 2)], 2);
        assert_eq!(top[0].1, 0);
        assert_eq!(top[1].1, 2);
    }
}
