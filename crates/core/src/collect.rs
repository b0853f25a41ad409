//! The cache-update table U and the two sample-selection rules (§IV.C).
//!
//! During local inference the client absorbs selected samples' semantic
//! vectors into a table with the same logical shape as the server's global
//! cache (classes × layers). Per Eq. 3, each absorbed vector updates
//!
//! ```text
//! U_{i,j} ← normalize(V_{i,j} + β · U_{i,j})        β = 0.95
//! ```
//!
//! Samples qualify under one of two rules:
//!
//! 1. **Reinforcement** — a cache hit whose discriminative score exceeds Γ:
//!    vectors collected only up to the hit layer (the model stopped there).
//! 2. **Expansion** — a cache miss whose softmax margin `prob₁ − prob₂`
//!    exceeds Δ: vectors collected at every preset layer (the full model
//!    ran, so all intermediate features exist).
//!
//! Both rules label the vectors with the *predicted* class — clients have
//! no ground truth. Ambiguous-but-confident misclassifications therefore
//! pollute U occasionally; Fig. 6's Γ/Δ trade-off measures exactly this.
//!
//! ## Layout
//!
//! The table is stored **columnar, grouped by layer**: each populated
//! layer keeps its cell classes next to one contiguous
//! [`VectorStore`] of update vectors. That is the shape the server's
//! per-layer batched Eq. 4 merge consumes directly — the upload arrives
//! already grouped, so the merge streams one flat buffer per layer
//! instead of chasing per-cell heap rows. The in-place Eq. 3 decay-add
//! runs through the fused [`coca_math::merge_weighted_row`] kernel
//! (bit-identical to the seed `scale`/`axpy`/`l2_normalize` sequence).

use coca_math::vector::l2_normalize;
use coca_math::{merge_weighted_row, snap_row, Precision, VectorStore};
use coca_net::wire::{codec_err, put_u32};
use coca_net::{FrameError, Reader, Wire};

/// Why a sample was absorbed (diagnostics + Fig. 6 accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbRule {
    /// Rule 1: high-confidence cache hit.
    Reinforce,
    /// Rule 2: high-margin cache miss.
    Expand,
}

/// One layer's populated cells: classes parallel to store rows, in
/// absorption order (deterministic — frame processing is).
#[derive(Debug, Clone)]
pub struct LayerUpdate {
    /// The preset cache layer these cells belong to.
    pub layer: u32,
    /// Cell classes, parallel to the rows of `vectors`.
    pub classes: Vec<u32>,
    /// Running unit-norm semantic centers, one row per cell.
    pub vectors: VectorStore,
}

/// The client's sparse cache-update table, grouped by layer.
///
/// The binary codec ([`Wire`]: socket frames, WAL records, snapshots)
/// writes the layer groups as they are stored, in canonical order: a
/// decoded table has its layers ascending by id and each layer's rows
/// ascending by class, whatever absorption order the sender's table was
/// in.
#[derive(Debug, Clone, Default)]
pub struct UpdateTable {
    /// Populated layers, sorted by layer id.
    layers: Vec<LayerUpdate>,
}

/// `[u32 n][n × ([u32 layer][u32 m][m × u32 class][VectorStore])]` in
/// canonical order: layer ids strictly ascending, classes strictly
/// ascending inside a layer. The encoder sorts; the decoder only checks,
/// so a frame has one reading and the server never re-sorts an upload.
/// One group per layer with one store per group makes a layer of mixed
/// dimensions unrepresentable, and the strict orders rule out duplicate
/// cells.
impl Wire for UpdateTable {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.layers.len());
        for g in &self.layers {
            g.layer.encode(out);
            if g.classes.windows(2).all(|w| w[0] < w[1]) {
                g.classes.encode(out);
                g.vectors.encode(out);
            } else {
                let mut order: Vec<usize> = (0..g.len()).collect();
                order.sort_unstable_by_key(|&i| g.classes[i]);
                let classes: Vec<u32> = order.iter().map(|&i| g.classes[i]).collect();
                classes.encode(out);
                g.vectors.extract_rows(&order).encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        // The smallest group is a layer id, a class count and a store
        // header; groups are pushed one by one, never pre-sized.
        let n = r.count(16)?;
        let mut layers: Vec<LayerUpdate> = Vec::new();
        for _ in 0..n {
            let layer = u32::decode(r)?;
            if layers.last().is_some_and(|prev| prev.layer >= layer) {
                return codec_err(format!(
                    "UpdateTable: layer {layer} repeats or is out of order \
                     (one group per layer, ascending)"
                ));
            }
            let classes = Vec::<u32>::decode(r)?;
            let vectors = VectorStore::decode(r)?;
            // With at least one row the store decoder has already
            // insisted on a dimension: no cell vector is empty.
            if classes.is_empty() || vectors.rows() != classes.len() {
                return codec_err(format!(
                    "UpdateTable: layer {layer} has {} classes vs {} vector rows",
                    classes.len(),
                    vectors.rows()
                ));
            }
            if let Some(w) = classes.windows(2).find(|w| w[0] >= w[1]) {
                return codec_err(format!(
                    "UpdateTable: duplicate or out-of-order cell ({}, {layer})",
                    w[1]
                ));
            }
            layers.push(LayerUpdate {
                layer,
                classes,
                vectors,
            });
        }
        Ok(Self { layers })
    }
}

impl LayerUpdate {
    fn push(&mut self, class: u32, vector: &[f32]) {
        self.classes.push(class);
        self.vectors.push_row(vector);
    }

    /// Row index of `class`, if the cell exists. A linear scan: the scan
    /// length is the cells absorbed into this layer this round (≤ the
    /// class count), and each absorb amortizes it against the Eq. 3
    /// vector math over the full entry dimension — keeping the rows in
    /// absorption order beats a sorted layout that would memmove the
    /// contiguous store on every new cell.
    fn position(&self, class: u32) -> Option<usize> {
        self.classes.iter().position(|&c| c == class)
    }

    /// Number of populated cells in this layer.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True iff the layer group holds no cells.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

impl UpdateTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The layer group for `layer`, created (with `dim` fixed) if absent.
    fn layer_entry(&mut self, layer: u32, dim: usize) -> &mut LayerUpdate {
        let at = match self.layers.binary_search_by_key(&layer, |g| g.layer) {
            Ok(i) => i,
            Err(i) => {
                self.layers.insert(
                    i,
                    LayerUpdate {
                        layer,
                        classes: Vec::new(),
                        vectors: VectorStore::new(dim),
                    },
                );
                i
            }
        };
        &mut self.layers[at]
    }

    /// The layer group for `layer`, if any cell was absorbed there.
    pub fn layer_group(&self, layer: u32) -> Option<&LayerUpdate> {
        self.layers
            .binary_search_by_key(&layer, |g| g.layer)
            .ok()
            .map(|i| &self.layers[i])
    }

    /// Populated layer groups, ascending by layer id — the shape the
    /// server's per-layer batched merge consumes.
    pub fn layer_groups(&self) -> &[LayerUpdate] {
        &self.layers
    }

    /// Absorbs one semantic vector for `(class, layer)` with decay `beta`
    /// (Eq. 3), then re-normalizes.
    pub fn absorb(&mut self, class: usize, layer: usize, vector: &[f32], beta: f32) {
        let g = self.layer_entry(layer as u32, vector.len());
        match g.position(class as u32) {
            Some(row) => {
                let u = g.vectors.row_mut(row);
                debug_assert_eq!(u.len(), vector.len(), "dim mismatch in update table");
                // U ← V + β·U, normalized — one fused pass, bit-identical
                // to the seed scale → axpy → l2_normalize sequence.
                merge_weighted_row(u, vector, beta, 1.0);
            }
            None => {
                let mut v = vector.to_vec();
                l2_normalize(&mut v);
                g.push(class as u32, &v);
            }
        }
    }

    /// The entry for `(class, layer)`, if any sample was absorbed.
    pub fn get(&self, class: usize, layer: usize) -> Option<&[f32]> {
        let g = self.layer_group(layer as u32)?;
        g.position(class as u32).map(|row| g.vectors.row(row))
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|g| g.classes.len()).sum()
    }

    /// True iff nothing was absorbed this round.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates populated cells as `(class, layer, vector)`, layer-major
    /// (cells within a layer in absorption order).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &[f32])> {
        self.layers.iter().flat_map(|g| {
            g.classes
                .iter()
                .zip(g.vectors.iter_rows())
                .map(move |(&c, v)| (c as usize, g.layer as usize, v))
        })
    }

    /// Drains the table for upload, leaving it empty for the next round.
    pub fn take(&mut self) -> UpdateTable {
        UpdateTable {
            layers: std::mem::take(&mut self.layers),
        }
    }

    /// Logical wire size: 8-byte key + dense f32 vector per cell.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes_at(Precision::F32)
    }

    /// Logical wire size with the vectors shipped at `precision`:
    /// 8-byte key per cell plus the quantized payload (i8 carries one
    /// f32 scale per row). [`Precision::F32`] reproduces
    /// [`UpdateTable::wire_bytes`].
    pub fn wire_bytes_at(&self, precision: Precision) -> usize {
        self.layers
            .iter()
            .map(|g| g.len() * 8 + precision.payload_bytes(g.len(), g.vectors.dim()))
            .sum()
    }

    /// Snaps every cell vector onto `precision`'s representable grid
    /// (quantize → dequantize in place; a no-op for [`Precision::F32`]).
    /// The sender calls this before upload so the f32 values it ships
    /// *are* the dequantized codes — the link prices the quantized
    /// payload via [`UpdateTable::wire_bytes_at`] while the frame codec
    /// still carries f32 rows. Vectors are intentionally **not**
    /// re-normalized: the slight non-unit norm is the honest
    /// quantization error, and the server's Eq. 4 merge renormalizes.
    pub fn quantize_in_place(&mut self, precision: Precision) {
        if precision == Precision::F32 {
            return;
        }
        for g in &mut self.layers {
            for i in 0..g.vectors.rows() {
                snap_row(g.vectors.row_mut(i), precision);
            }
        }
    }
}

/// Decides whether an inference outcome qualifies for collection.
///
/// * `hit_score` — `Some(D_j)` for hits, `None` for misses.
/// * `miss_margin` — `Some(prob₁ − prob₂)` for misses.
pub fn absorb_rule(
    hit_score: Option<f32>,
    miss_margin: Option<f32>,
    gamma: f32,
    delta: f32,
) -> Option<AbsorbRule> {
    match (hit_score, miss_margin) {
        (Some(d), _) if d > gamma => Some(AbsorbRule::Reinforce),
        (Some(_), _) => None,
        (None, Some(m)) if m > delta => Some(AbsorbRule::Expand),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_math::{cosine, l2_norm};

    #[test]
    fn absorb_keeps_unit_norm() {
        let mut u = UpdateTable::new();
        u.absorb(2, 5, &[3.0, 4.0], 0.95);
        let v = u.get(2, 5).unwrap();
        assert!((l2_norm(v) - 1.0).abs() < 1e-5);
        u.absorb(2, 5, &[0.0, 1.0], 0.95);
        assert!((l2_norm(u.get(2, 5).unwrap()) - 1.0).abs() < 1e-5);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn repeated_absorption_tracks_new_direction() {
        let mut u = UpdateTable::new();
        u.absorb(0, 0, &[1.0, 0.0], 0.95);
        // Stream of orthogonal vectors should pull the entry over.
        for _ in 0..200 {
            u.absorb(0, 0, &[0.0, 1.0], 0.95);
        }
        let v = u.get(0, 0).unwrap();
        assert!(cosine(v, &[0.0, 1.0]) > 0.99, "entry {v:?}");
    }

    #[test]
    fn beta_zero_means_last_sample_wins() {
        let mut u = UpdateTable::new();
        u.absorb(1, 1, &[1.0, 0.0], 0.0);
        u.absorb(1, 1, &[0.0, 2.0], 0.0);
        assert!(cosine(u.get(1, 1).unwrap(), &[0.0, 1.0]) > 0.999);
    }

    #[test]
    fn take_drains_for_upload() {
        let mut u = UpdateTable::new();
        u.absorb(0, 0, &[1.0, 0.0], 0.95);
        u.absorb(1, 3, &[0.0, 1.0], 0.95);
        assert_eq!(u.wire_bytes(), 2 * (8 + 8));
        let uploaded = u.take();
        assert_eq!(uploaded.len(), 2);
        assert!(u.is_empty());
        let cells: Vec<(usize, usize)> = uploaded.iter().map(|(c, l, _)| (c, l)).collect();
        assert!(cells.contains(&(0, 0)) && cells.contains(&(1, 3)));
    }

    #[test]
    fn cells_group_by_layer_in_ascending_order() {
        let mut u = UpdateTable::new();
        u.absorb(5, 9, &[1.0, 0.0], 0.95);
        u.absorb(2, 1, &[0.0, 1.0], 0.95);
        u.absorb(7, 9, &[1.0, 0.0], 0.95);
        let groups = u.layer_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].layer, 1);
        assert_eq!(groups[1].layer, 9);
        assert_eq!(groups[1].classes, vec![5, 7], "absorption order kept");
        assert_eq!(groups[1].vectors.rows(), 2);
        assert!(!groups[0].is_empty());
        assert_eq!(groups[0].len(), 1);
    }

    #[test]
    fn rules_match_paper_conditions() {
        let (g, d) = (0.10, 0.25);
        // Hit above Γ → reinforce; at/below Γ → nothing (even with margin).
        assert_eq!(
            absorb_rule(Some(0.2), None, g, d),
            Some(AbsorbRule::Reinforce)
        );
        assert_eq!(absorb_rule(Some(0.05), Some(0.9), g, d), None);
        // Miss above Δ → expand; below → nothing.
        assert_eq!(absorb_rule(None, Some(0.3), g, d), Some(AbsorbRule::Expand));
        assert_eq!(absorb_rule(None, Some(0.2), g, d), None);
        assert_eq!(absorb_rule(None, None, g, d), None);
    }
}
