//! The server's two-dimensional global cache table (§IV.D).
//!
//! Rows are classes, columns are the model's preset cache layers. Each
//! populated cell is a unit-norm semantic center. Per-client uploads merge
//! in by frequency-weighted averaging (Eq. 4):
//!
//! ```text
//! E_{i,j} ← γ · Φ_i/(Φ_i + φ_i) · E_{i,j} + φ_i/(Φ_i + φ_i) · U_{i,j}
//! ```
//!
//! followed by re-normalization, and the global class frequency advances by
//! Eq. 5: `Φ_i ← Φ_i + φ_i`.
//!
//! ## Columnar layout
//!
//! Each layer keeps one **dense contiguous** [`VectorStore`] with exactly
//! `classes` rows (zero-filled until populated) plus a layer-major
//! [`OccupancyBitmap`] marking which cells actually hold a center —
//! replacing the seed's `Vec<Option<Vec<f32>>>` grid of boxed rows.
//! Addressing a cell is one multiply, the Eq. 4 merge streams each
//! upload's per-layer group through the fused batch kernel
//! [`coca_math::merge_weighted_rows`], and extraction is a gather
//! ([`VectorStore::extract_rows`]) straight into the allocation's layer.
//!
//! ## Determinism / no-drift contract
//!
//! The fused merge kernel reproduces the seed `scale` → `axpy` →
//! `l2_normalize` arithmetic **bit for bit** (asserted in `coca-math`),
//! and [`GlobalCacheTable::merge_batch`] — the whole-round batched pass,
//! one layer at a time across all queued uploads in deterministic
//! client order — is bit-identical to merging the same uploads
//! sequentially (property-tested in `tests/proptest_global.rs`). That
//! equivalence is what lets the server drain its round queue in
//! per-layer batches without changing a single result.

use std::borrow::Cow;

use coca_math::vector::l2_normalize;
use coca_math::{
    merge_weighted_row, merge_weighted_rows, OccupancyBitmap, Precision, QuantizedStore,
    VectorStore,
};
use coca_net::wire::put_u32;
use coca_net::{FrameError, Reader, Wire};

use crate::collect::{LayerUpdate, UpdateTable};
use crate::semantic::{CacheLayer, LocalCache};

/// Weights and row indices of one per-layer merge batch — the job list
/// one [`merge_weighted_rows`] call consumes.
#[derive(Debug, Default, Clone)]
struct JobBuf {
    /// Destination rows (= classes) of the weighted-merge jobs.
    dst_rows: Vec<usize>,
    /// Source rows within the upload's layer group, parallel to `dst_rows`.
    src_rows: Vec<usize>,
    /// Eq. 4 old-center weights, parallel to `dst_rows`.
    w_old: Vec<f32>,
    /// Eq. 4 upload weights, parallel to `dst_rows`.
    w_new: Vec<f32>,
    /// One-row f32 staging buffer of the quantized merge path (a
    /// quantized cell dequantizes here, merges in f32, re-quantizes).
    row: Vec<f32>,
}

impl JobBuf {
    fn clear(&mut self) {
        self.dst_rows.clear();
        self.src_rows.clear();
        self.w_old.clear();
        self.w_new.clear();
    }
}

/// Mutable view of one layer's entry storage — dense f32 or quantized.
/// The merge paths work on slots so the Eq. 4 arithmetic is written
/// once; only where a row's bytes live differs.
enum LayerSlotMut<'a> {
    /// A dense f32 layer store (the default mode).
    Dense(&'a mut VectorStore),
    /// A quantized layer (`None` until the first valid cell commits the
    /// layer's dimension, mirroring the dense `dim() == 0` convention).
    Quant(&'a mut Option<QuantizedStore>, Precision),
}

/// Reusable buffers for the server-side merge phase. Lives in the server
/// so the per-round merge is allocation-free once warm.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// Job list of the layer group being merged.
    jobs: JobBuf,
    /// Per-client prefix Φ snapshots of a batched merge (row-major,
    /// `clients × classes`).
    phi_prefix: Vec<u64>,
}

impl MergeScratch {
    /// Fresh (lazily sized) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Φ context one layer-group merge reads (see
/// [`GlobalCacheTable::merge_update`] / [`GlobalCacheTable::merge_batch`]).
struct MergeWeights<'a> {
    /// Φ snapshot the Eq. 4 weights read.
    cap_phi: &'a [u64],
    /// The uploading client's per-round φ.
    phi: &'a [u64],
    /// γ — the global decay.
    gamma: f32,
}

/// The global cache table plus the global class-frequency vector Φ.
#[derive(Debug, Clone)]
pub struct GlobalCacheTable {
    classes: usize,
    layers: usize,
    /// One dense store per layer, `classes` rows each; a store with an
    /// unset dimension (`dim() == 0`) marks a layer never touched.
    stores: Vec<VectorStore>,
    /// Populated cells: one `classes`-bit bitmap per layer, parallel to
    /// `stores`, so a layer merge borrows its `(store, occupancy)` pair
    /// together.
    occupancy: Vec<OccupancyBitmap>,
    /// Φ — global class frequencies (Eq. 5).
    frequency: Vec<u64>,
    /// Storage precision of the layer entries. [`Precision::F32`] keeps
    /// everything in `stores`; a quantized mode keeps entries in
    /// `qstores` instead (2–4× smaller) and dequantizes +
    /// **renormalizes** on every read, so the unit-norm contract of
    /// extracted caches holds regardless of codec error.
    precision: Precision,
    /// Quantized layer stores, parallel to `stores`; every slot is
    /// `None` in f32 mode, and a quantized layer is `None` until first
    /// touched (the `dim() == 0` convention of dense layers).
    qstores: Vec<Option<QuantizedStore>>,
}

impl GlobalCacheTable {
    /// An empty `classes × layers` table (dense f32 entries).
    pub fn new(classes: usize, layers: usize) -> Self {
        Self::with_precision(classes, layers, Precision::F32)
    }

    /// An empty `classes × layers` table storing entries at `precision`.
    pub fn with_precision(classes: usize, layers: usize, precision: Precision) -> Self {
        assert!(classes > 0 && layers > 0, "degenerate global cache shape");
        Self {
            classes,
            layers,
            stores: vec![VectorStore::empty(); layers],
            occupancy: vec![OccupancyBitmap::new(classes); layers],
            frequency: vec![0; classes],
            precision,
            qstores: vec![None; layers],
        }
    }

    /// Number of class rows.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Number of layer columns.
    pub fn num_layers(&self) -> usize {
        self.layers
    }

    /// Storage precision of the layer entries.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Entry dimension of `layer`, or `None` while the layer is untouched
    /// (the `dim() == 0` convention, dense or quantized alike). Snapshot
    /// validation cross-checks pending uploads against this.
    pub fn layer_dim(&self, layer: usize) -> Option<usize> {
        match &self.qstores[layer] {
            Some(q) => Some(q.dim()),
            None => (self.stores[layer].dim() != 0).then(|| self.stores[layer].dim()),
        }
    }

    /// Bytes the layer entries occupy in memory (diagnostics — this is
    /// what quantized storage shrinks; Φ and the bitmaps are shared).
    pub fn store_bytes(&self) -> usize {
        let dense: usize = self.stores.iter().map(VectorStore::bytes).sum();
        let quant: usize = self
            .qstores
            .iter()
            .flatten()
            .map(QuantizedStore::bytes)
            .sum();
        dense + quant
    }

    /// The entry at `(class, layer)`, if populated. A dense table
    /// borrows the row; a quantized table dequantizes and renormalizes
    /// into an owned vector (codec error shrinks the stored norm, and
    /// every consumer expects unit centers).
    pub fn get(&self, class: usize, layer: usize) -> Option<Cow<'_, [f32]>> {
        if !self.occupancy[layer].get(class) {
            return None;
        }
        Some(match &self.qstores[layer] {
            None => Cow::Borrowed(self.stores[layer].row(class)),
            Some(q) => {
                let mut row = q.dequantize_row(class);
                l2_normalize(&mut row);
                Cow::Owned(row)
            }
        })
    }

    /// Directly sets an entry (initial seeding from the shared dataset).
    /// The vector is normalized on insertion (then snapped onto the
    /// codec grid when the table is quantized).
    pub fn set(&mut self, class: usize, layer: usize, mut vector: Vec<f32>) {
        l2_normalize(&mut vector);
        if self.precision == Precision::F32 {
            let store = &mut self.stores[layer];
            if store.dim() == 0 {
                *store = VectorStore::zeros(vector.len(), self.classes);
            }
            store.set_row(class, &vector);
        } else {
            let q = self.qstores[layer].get_or_insert_with(|| {
                QuantizedStore::zeros(vector.len(), self.classes, self.precision)
            });
            q.set_row(class, &vector);
        }
        self.occupancy[layer].set(class);
    }

    /// Re-encodes every populated entry at `precision` (used once at
    /// server construction: the shared-dataset seed builds f32 centers,
    /// then the table drops to the configured storage codec). Quantizing
    /// is lossy; converting back to f32 keeps the dequantized —
    /// renormalized — values, not the originals.
    pub fn convert_precision(&mut self, precision: Precision) {
        if precision == self.precision {
            return;
        }
        for layer in 0..self.layers {
            // Materialize the layer's current entries as unit f32 rows.
            let dense = match self.qstores[layer].take() {
                Some(q) => {
                    let mut d = q.dequantize();
                    for class in self.occupancy[layer].iter_ones() {
                        l2_normalize(d.row_mut(class));
                    }
                    d
                }
                None => std::mem::replace(&mut self.stores[layer], VectorStore::empty()),
            };
            if dense.dim() == 0 {
                continue; // layer never touched
            }
            if precision == Precision::F32 {
                self.stores[layer] = dense;
            } else {
                self.qstores[layer] = Some(QuantizedStore::quantize(&dense, precision));
            }
        }
        self.precision = precision;
    }

    /// Φ — the global class-frequency vector.
    pub fn frequency(&self) -> &[u64] {
        &self.frequency
    }

    /// Seeds Φ with prior counts (server-side shared-dataset profiling),
    /// so the very first ACA call has non-degenerate scores.
    pub fn seed_frequency(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.classes, "frequency length mismatch");
        self.frequency.copy_from_slice(counts);
    }

    /// Eq. 5 alone: `Φ_i ← Φ_i + φ_i` (the GCU-disabled ablation arm
    /// advances frequencies without touching any center).
    pub fn advance_frequency(&mut self, phi: &[u64]) {
        assert_eq!(phi.len(), self.classes, "phi length mismatch");
        for (f, &p) in self.frequency.iter_mut().zip(phi) {
            *f += p;
        }
    }

    /// Exponential Φ decay after churn: `Φ_i ← ⌈β·Φ_i⌉`. A departed
    /// client's frequency mass ages out instead of anchoring ACA's
    /// hot-spot scores forever (see `CocaConfig::leave_phi_decay`).
    pub fn decay_frequency(&mut self, beta: f64) {
        assert!(
            (0.0..=1.0).contains(&beta),
            "decay factor must be in [0,1], got {beta}"
        );
        for f in &mut self.frequency {
            *f = (beta * *f as f64).ceil() as u64;
        }
    }

    /// Merges one layer group of one upload into its layer's `(slot,
    /// occupancy)` pair. `w.cap_phi` is the Φ snapshot the Eq. 4 weights
    /// read (the live vector for a sequential merge, a per-client prefix
    /// for a batched one); `w.phi` is the client's φ.
    ///
    /// A dense layer batches its jobs into one fused
    /// [`merge_weighted_rows`] call; a quantized layer merges cell by
    /// cell — dequantize into the f32 staging row, Eq. 4 in f32,
    /// re-quantize — since its codes cannot stream through the kernel.
    /// Each class appears at most once per upload group, so the
    /// immediate writes never alias a pending read.
    fn merge_layer_group(
        mut slot: LayerSlotMut<'_>,
        occupancy: &mut OccupancyBitmap,
        classes: usize,
        g: &LayerUpdate,
        w: MergeWeights<'_>,
        jobs: &mut JobBuf,
    ) {
        let MergeWeights {
            cap_phi,
            phi,
            gamma,
        } = w;
        let dim = g.vectors.dim();
        let committed_dim = match &slot {
            LayerSlotMut::Dense(store) => store.dim(),
            LayerSlotMut::Quant(q, _) => q.as_ref().map_or(0, QuantizedStore::dim),
        };
        if committed_dim != 0 && committed_dim != dim {
            // Malformed upload layer; ignore rather than poison state.
            debug_assert!(false, "dim mismatch in global merge");
            return;
        }
        jobs.clear();
        jobs.row.resize(dim, 0.0);
        for (row, &class) in g.classes.iter().enumerate() {
            let class = class as usize;
            if class >= classes {
                // Malformed upload cell; ignore rather than poison state.
                continue;
            }
            let phi_i = phi[class] as f32;
            if phi_i <= 0.0 {
                // The paper weights by local frequency; a class the client
                // claims it never saw contributes nothing.
                continue;
            }
            // A never-touched layer commits its dimension only once a
            // *valid* cell actually lands — an upload rejected above
            // cannot pin a wrong dim on the layer forever.
            match &mut slot {
                LayerSlotMut::Dense(store) => {
                    if store.dim() == 0 {
                        **store = VectorStore::zeros(dim, classes);
                    }
                }
                LayerSlotMut::Quant(q, precision) => {
                    if q.is_none() {
                        **q = Some(QuantizedStore::zeros(dim, classes, *precision));
                    }
                }
            }
            if occupancy.get(class) {
                let cap = cap_phi[class] as f32;
                let w_old = gamma * cap / (cap + phi_i);
                let w_new = phi_i / (cap + phi_i);
                match &mut slot {
                    LayerSlotMut::Dense(_) => {
                        jobs.dst_rows.push(class);
                        jobs.src_rows.push(row);
                        jobs.w_old.push(w_old);
                        jobs.w_new.push(w_new);
                    }
                    LayerSlotMut::Quant(q, _) => {
                        let q = q.as_mut().expect("quant layer initialized above");
                        q.dequantize_row_into(class, &mut jobs.row);
                        merge_weighted_row(&mut jobs.row, g.vectors.row(row), w_old, w_new);
                        q.set_row(class, &jobs.row);
                    }
                }
            } else {
                // Cells never seen before adopt the client's vector
                // directly (the Eq. 4 weights with Φ_i = 0 reduce to
                // exactly that only when the entry exists; a missing
                // entry has nothing to decay).
                match &mut slot {
                    LayerSlotMut::Dense(store) => {
                        let dst = store.row_mut(class);
                        dst.copy_from_slice(g.vectors.row(row));
                        l2_normalize(dst);
                    }
                    LayerSlotMut::Quant(q, _) => {
                        let q = q.as_mut().expect("quant layer initialized above");
                        jobs.row.copy_from_slice(g.vectors.row(row));
                        l2_normalize(&mut jobs.row);
                        q.set_row(class, &jobs.row);
                    }
                }
                occupancy.set(class);
            }
        }
        if let LayerSlotMut::Dense(store) = slot {
            merge_weighted_rows(
                store.as_flat_mut(),
                dim,
                &jobs.dst_rows,
                g.vectors.as_flat(),
                &jobs.src_rows,
                &jobs.w_old,
                &jobs.w_new,
            );
        }
    }

    /// Merges one client's upload: Eq. 4 for every populated cell of `u`
    /// (one fused batch per layer group), then Eq. 5 for Φ. `phi` is the
    /// client's per-round class frequency vector φ; `gamma` is the global
    /// decay (paper: 0.99). `scratch` makes the pass allocation-free.
    ///
    /// The server never calls this: it is the sequential reference that
    /// [`GlobalCacheTable::merge_batch`], and through it the server's
    /// upload queue, is held to bit for bit.
    pub fn merge_update(
        &mut self,
        u: &UpdateTable,
        phi: &[u64],
        gamma: f32,
        scratch: &mut MergeScratch,
    ) {
        assert_eq!(phi.len(), self.classes, "phi length mismatch");
        for g in u.layer_groups() {
            let layer = g.layer as usize;
            if layer >= self.layers {
                // Malformed upload layer; ignore rather than poison state.
                continue;
            }
            let slot = if self.precision == Precision::F32 {
                LayerSlotMut::Dense(&mut self.stores[layer])
            } else {
                LayerSlotMut::Quant(&mut self.qstores[layer], self.precision)
            };
            Self::merge_layer_group(
                slot,
                &mut self.occupancy[layer],
                self.classes,
                g,
                MergeWeights {
                    cap_phi: &self.frequency,
                    phi,
                    gamma,
                },
                &mut scratch.jobs,
            );
        }
        // Eq. 5.
        self.advance_frequency(phi);
    }

    /// Batched round processing: merges every queued upload of a round as
    /// **one pass per layer** — layer-outer, clients inner in the given
    /// order (the caller fixes it deterministically: the server's
    /// queue-and-flush pipeline passes FIFO arrival order) — so each
    /// layer's store streams through cache once for the whole fleet.
    /// Bit-identical to calling [`GlobalCacheTable::merge_update`] per
    /// upload in the same order: each client's Eq. 4 weights read its
    /// prefix Φ (the Φ a sequential merge would have seen), and Eq. 5
    /// lands once at the end. This is the server's one merge path: its
    /// upload queue and peer-delta absorbs both drain through here.
    pub fn merge_batch(
        &mut self,
        uploads: &[(&UpdateTable, &[u64])],
        gamma: f32,
        scratch: &mut MergeScratch,
    ) {
        let n = self.classes;
        self.fill_phi_prefix(uploads, scratch);
        let phi_prefix = std::mem::take(&mut scratch.phi_prefix);
        for layer in 0..self.layers {
            for (c, &(u, phi)) in uploads.iter().enumerate() {
                let Some(g) = u.layer_group(layer as u32) else {
                    continue;
                };
                let slot = if self.precision == Precision::F32 {
                    LayerSlotMut::Dense(&mut self.stores[layer])
                } else {
                    LayerSlotMut::Quant(&mut self.qstores[layer], self.precision)
                };
                Self::merge_layer_group(
                    slot,
                    &mut self.occupancy[layer],
                    n,
                    g,
                    MergeWeights {
                        cap_phi: &phi_prefix[c * n..(c + 1) * n],
                        phi,
                        gamma,
                    },
                    &mut scratch.jobs,
                );
            }
        }
        scratch.phi_prefix = phi_prefix;
        for &(_, phi) in uploads {
            self.advance_frequency(phi);
        }
    }

    /// Fills `scratch.phi_prefix` with each client's prefix-Φ snapshot:
    /// the Φ a sequential merge in the given order would read just before
    /// that client's turn (row-major, `clients × classes`).
    fn fill_phi_prefix(&self, uploads: &[(&UpdateTable, &[u64])], scratch: &mut MergeScratch) {
        let n = self.classes;
        scratch.phi_prefix.clear();
        scratch.phi_prefix.reserve(uploads.len() * n);
        let mut running = 0usize;
        for (c, &(_, phi)) in uploads.iter().enumerate() {
            assert_eq!(phi.len(), n, "phi length mismatch");
            if c == 0 {
                scratch.phi_prefix.extend_from_slice(&self.frequency);
            } else {
                let prev = running - n;
                for i in 0..n {
                    let v = scratch.phi_prefix[prev + i] + uploads[c - 1].1[i];
                    scratch.phi_prefix.push(v);
                }
            }
            running += n;
        }
    }

    /// Extracts a local cache: the given `layers`, each filled with the
    /// entries of `classes` (cells never populated are skipped — a client
    /// cannot match against a center that does not exist yet). The rows
    /// gather straight from each layer's contiguous store; `classes` must
    /// not repeat (ACA hot sets never do).
    pub fn extract(&self, layers: &[usize], classes: &[usize]) -> LocalCache {
        let mut out = Vec::with_capacity(layers.len());
        for &layer in layers {
            if layer >= self.layers {
                continue;
            }
            let active = self.qstores[layer].is_some() || self.stores[layer].dim() != 0;
            if !active {
                continue;
            }
            let occ = &self.occupancy[layer];
            let sel: Vec<usize> = classes
                .iter()
                .copied()
                .filter(|&c| c < self.classes && occ.get(c))
                .collect();
            if sel.is_empty() {
                continue;
            }
            let vectors = match &self.qstores[layer] {
                None => self.stores[layer].extract_rows(&sel),
                Some(q) => {
                    // Dequantized rows lose a little norm to the codec;
                    // renormalize so the cache's unit contract holds.
                    let mut v = q.dequantize_rows(&sel);
                    for i in 0..v.rows() {
                        l2_normalize(v.row_mut(i));
                    }
                    v
                }
            };
            debug_assert!(vectors.iter_rows().all(|r| coca_math::is_unit(r, 1e-3)));
            out.push(CacheLayer {
                point: layer,
                classes: sel,
                vectors,
            });
        }
        LocalCache::from_layers(out)
    }

    /// Fraction of cells populated (diagnostics): one popcount per layer
    /// bitmap.
    pub fn fill_ratio(&self) -> f64 {
        let ones: usize = self.occupancy.iter().map(OccupancyBitmap::count_ones).sum();
        ones as f64 / (self.classes * self.layers) as f64
    }

    /// Assembles a table from decoded parts — the validator behind the
    /// [`Wire`] decoder: `frequency` fixes the class count, the three
    /// per-layer vectors the layer count. Rejects a
    /// degenerate or ragged shape, a store whose row count is not the
    /// class count, a quantized layer in an f32 table or at another
    /// codec than the table's, a dense layer in a quantized table, a
    /// layer that is both dense and quantized, and an occupied cell in a
    /// layer that holds no store.
    fn from_parts(
        precision: Precision,
        frequency: Vec<u64>,
        stores: Vec<VectorStore>,
        qstores: Vec<Option<QuantizedStore>>,
        occupancy: Vec<OccupancyBitmap>,
    ) -> Result<Self, String> {
        let (classes, layers) = (frequency.len(), stores.len());
        if classes == 0 || layers == 0 {
            return Err("GlobalCacheTable: degenerate shape".to_string());
        }
        if qstores.len() != layers
            || occupancy.len() != layers
            || occupancy.iter().any(|o| o.len() != classes)
        {
            return Err("GlobalCacheTable: shape mismatch".to_string());
        }
        for (j, (s, q)) in stores.iter().zip(&qstores).enumerate() {
            if s.dim() != 0 && s.rows() != classes {
                return Err(format!(
                    "GlobalCacheTable: layer {j} has {} rows for {classes} classes",
                    s.rows()
                ));
            }
            if s.dim() != 0 && precision != Precision::F32 && q.is_none() {
                return Err(format!(
                    "GlobalCacheTable: dense layer {j} in a {} table",
                    precision.label()
                ));
            }
            if let Some(q) = q {
                if precision == Precision::F32 {
                    return Err("GlobalCacheTable: quantized layer in an f32 table".to_string());
                }
                if q.precision() != precision {
                    return Err(format!(
                        "GlobalCacheTable: layer {j} codec {} in a {} table",
                        q.precision().label(),
                        precision.label()
                    ));
                }
                if q.rows() != classes {
                    return Err(format!(
                        "GlobalCacheTable: layer {j} has {} rows for {classes} classes",
                        q.rows()
                    ));
                }
                if s.dim() != 0 {
                    return Err(format!(
                        "GlobalCacheTable: layer {j} is both dense and quantized"
                    ));
                }
            }
            if s.dim() == 0 && q.is_none() && occupancy[j].count_ones() != 0 {
                return Err("GlobalCacheTable: occupied cell in an uninitialized layer".to_string());
            }
        }
        Ok(Self {
            classes,
            layers,
            stores,
            occupancy,
            frequency,
            precision,
            qstores,
        })
    }

    /// FNV-1a fingerprint of the table's [`Wire`] encoding (Φ included).
    /// Two tables with equal digests went through the same merge history
    /// bit for bit — the cheap equivalence check the daemon's
    /// loopback-vs-in-process tests and its `Digest` protocol message
    /// rely on.
    ///
    /// Hashes the header and then one layer at a time through a reused
    /// buffer, so the memory in flight is one layer's bytes rather than
    /// the whole table's; a unit test holds it equal to hashing the
    /// whole-table encoding in one piece.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut buf = Vec::new();
        self.encode_header(&mut buf);
        h.write(&buf);
        for layer in 0..self.layers {
            buf.clear();
            self.encode_layer(layer, &mut buf);
            h.write(&buf);
        }
        h.0
    }

    /// `[u8 precision][u32 classes][classes × u64 Φ][u32 layers]` — the
    /// encoding's part before the layers.
    fn encode_header(&self, out: &mut Vec<u8>) {
        self.precision.encode(out);
        self.frequency.encode(out);
        put_u32(out, self.layers);
    }

    /// `[⌈classes/64⌉ × u64 occupancy words][VectorStore][u8 0|1]
    /// [QuantizedStore]` — one layer's part of the encoding.
    fn encode_layer(&self, layer: usize, out: &mut Vec<u8>) {
        for w in self.occupancy[layer].words() {
            w.encode(out);
        }
        self.stores[layer].encode(out);
        self.qstores[layer].encode(out);
    }
}

/// The FNV-1a state behind [`GlobalCacheTable::digest`].
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `[u8 precision][u32 classes][classes × u64 Φ][u32 layers]`, then per
/// layer `[⌈classes/64⌉ × u64 occupancy words][VectorStore][u8 0|1]
/// [QuantizedStore]` — the table's own shape: one bitmap, one dense store
/// (dim 0 while untouched or quantized) and one optional quantized store
/// per layer. Decoding ends in [`GlobalCacheTable::from_parts`].
impl Wire for GlobalCacheTable {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_header(out);
        for layer in 0..self.layers {
            self.encode_layer(layer, out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let precision = Precision::decode(r)?;
        let frequency = Vec::<u64>::decode(r)?;
        let classes = frequency.len();
        let words = classes.div_ceil(64);
        // The smallest layer: its bitmap, an empty store header, no
        // quantized store.
        let layers = r.count(words * 8 + 9)?;
        let (mut stores, mut qstores, mut occupancy) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..layers {
            let bits = (0..words)
                .map(|_| u64::decode(r))
                .collect::<Result<_, _>>()?;
            occupancy.push(OccupancyBitmap::from_words(classes, bits).map_err(FrameError::Codec)?);
            stores.push(VectorStore::decode(r)?);
            qstores.push(Option::<QuantizedStore>::decode(r)?);
        }
        Self::from_parts(precision, frequency, stores, qstores, occupancy)
            .map_err(FrameError::Codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_math::{cosine, l2_norm};

    fn table() -> GlobalCacheTable {
        GlobalCacheTable::new(4, 3)
    }

    fn upload(cells: &[(usize, usize, Vec<f32>)]) -> UpdateTable {
        let mut u = UpdateTable::new();
        for (c, l, v) in cells {
            u.absorb(*c, *l, v, 0.0);
        }
        u
    }

    fn merge(t: &mut GlobalCacheTable, u: &UpdateTable, phi: &[u64], gamma: f32) {
        t.merge_update(u, phi, gamma, &mut MergeScratch::new());
    }

    #[test]
    fn merge_into_empty_adopts_client_vector() {
        let mut t = table();
        let u = upload(&[(1, 2, vec![0.0, 3.0])]);
        merge(&mut t, &u, &[0, 5, 0, 0], 0.99);
        let e = t.get(1, 2).unwrap();
        assert!(cosine(&e, &[0.0, 1.0]) > 0.999);
        assert_eq!(t.frequency(), &[0, 5, 0, 0]);
        assert!(t.get(0, 0).is_none());
    }

    #[test]
    fn merge_weights_by_frequency() {
        let mut t = table();
        t.set(0, 0, vec![1.0, 0.0]);
        t.seed_frequency(&[90, 0, 0, 0]);
        // A client with small φ barely moves the entry...
        let u = upload(&[(0, 0, vec![0.0, 1.0])]);
        merge(&mut t, &u, &[10, 0, 0, 0], 0.99);
        let e = t.get(0, 0).unwrap().to_vec();
        assert!(cosine(&e, &[1.0, 0.0]) > 0.9, "entry {e:?}");
        assert_eq!(t.frequency()[0], 100);
        // ...but a dominant client swings it.
        let u = upload(&[(0, 0, vec![0.0, 1.0])]);
        merge(&mut t, &u, &[900, 0, 0, 0], 0.99);
        let e = t.get(0, 0).unwrap().to_vec();
        assert!(cosine(&e, &[0.0, 1.0]) > 0.9, "entry {e:?}");
    }

    #[test]
    fn merged_entries_stay_unit_norm() {
        let mut t = table();
        t.set(2, 1, vec![1.0, 1.0]);
        t.seed_frequency(&[0, 0, 7, 0]);
        let u = upload(&[(2, 1, vec![-1.0, 1.0])]);
        merge(&mut t, &u, &[0, 0, 3, 0], 0.99);
        assert!((l2_norm(&t.get(2, 1).unwrap()) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_phi_classes_do_not_merge() {
        let mut t = table();
        t.set(3, 0, vec![1.0, 0.0]);
        let u = upload(&[(3, 0, vec![0.0, 1.0])]);
        merge(&mut t, &u, &[0, 0, 0, 0], 0.99);
        assert!(cosine(&t.get(3, 0).unwrap(), &[1.0, 0.0]) > 0.999);
    }

    #[test]
    fn out_of_range_cells_are_ignored() {
        let mut t = table();
        let mut u = UpdateTable::new();
        u.absorb(99, 99, &[1.0, 0.0], 0.0);
        u.absorb(99, 0, &[1.0, 0.0], 0.0);
        merge(&mut t, &u, &[1, 0, 0, 0], 0.99); // must not panic
        assert_eq!(t.frequency()[0], 1);
        assert_eq!(t.fill_ratio(), 0.0);
        // A rejected group must not have pinned layer 0's dimension: a
        // later honest upload with a different dim still merges.
        let honest = upload(&[(0, 0, vec![0.0, 1.0, 0.0])]);
        merge(&mut t, &honest, &[3, 0, 0, 0], 0.99);
        assert!(t.get(0, 0).is_some(), "layer poisoned by malformed upload");
    }

    #[test]
    fn extract_skips_unpopulated_cells() {
        let mut t = table();
        t.set(0, 1, vec![1.0, 0.0]);
        t.set(2, 1, vec![0.0, 1.0]);
        t.set(0, 2, vec![1.0, 1.0]);
        let cache = t.extract(&[1, 2], &[0, 2]);
        assert_eq!(cache.num_layers(), 2);
        assert_eq!(cache.layers()[0].len(), 2); // classes 0 and 2 at layer 1
        assert_eq!(cache.layers()[1].len(), 1); // only class 0 at layer 2
                                                // Requesting an entirely empty layer yields no activated layer.
        let cache = t.extract(&[0], &[0, 1, 2, 3]);
        assert_eq!(cache.num_layers(), 0);
    }

    #[test]
    fn fill_ratio_counts_cells() {
        let mut t = table();
        assert_eq!(t.fill_ratio(), 0.0);
        t.set(0, 0, vec![1.0, 0.0]);
        assert!((t.fill_ratio() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn batched_merge_is_bit_identical_to_sequential() {
        let build = || {
            let mut t = table();
            t.set(0, 0, vec![1.0, 0.0]);
            t.set(1, 1, vec![0.0, 1.0]);
            t.seed_frequency(&[5, 3, 0, 0]);
            t
        };
        let u1 = upload(&[(0, 0, vec![0.2, 0.9]), (2, 1, vec![0.5, 0.5])]);
        let phi1: Vec<u64> = vec![4, 0, 7, 0];
        let u2 = upload(&[(0, 0, vec![-0.7, 0.1]), (1, 1, vec![0.9, -0.1])]);
        let phi2: Vec<u64> = vec![2, 6, 0, 0];

        let mut scratch = MergeScratch::new();
        let mut seq = build();
        seq.merge_update(&u1, &phi1, 0.99, &mut scratch);
        seq.merge_update(&u2, &phi2, 0.99, &mut scratch);

        let mut bat = build();
        bat.merge_batch(&[(&u1, &phi1), (&u2, &phi2)], 0.99, &mut scratch);

        assert_eq!(seq.frequency(), bat.frequency());
        for c in 0..4 {
            for l in 0..3 {
                match (seq.get(c, l), bat.get(c, l)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for (x, y) in a.iter().zip(b.iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "cell ({c},{l})");
                        }
                    }
                    (a, b) => panic!("occupancy differs at ({c},{l}): {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn quantized_table_merges_and_extracts_unit_centers() {
        for precision in [Precision::F16, Precision::I8] {
            let mut t = GlobalCacheTable::with_precision(4, 3, precision);
            assert_eq!(t.precision(), precision);
            t.set(0, 1, vec![0.6, 0.8]);
            t.seed_frequency(&[8, 0, 0, 0]);
            // Reads renormalize: codec error must not leak a non-unit
            // center out of the table.
            let e = t.get(0, 1).unwrap();
            assert!((l2_norm(&e) - 1.0).abs() < 1e-6, "norm {}", l2_norm(&e));
            assert!(cosine(&e, &[0.6, 0.8]) > 0.99);
            // Merge an occupied cell (Eq. 4 through the staging row) and
            // adopt a fresh one.
            let u = upload(&[(0, 1, vec![-0.8, 0.6]), (2, 1, vec![1.0, 0.0])]);
            merge(&mut t, &u, &[8, 0, 4, 0], 0.99);
            let moved = t.get(0, 1).unwrap();
            assert!(cosine(&moved, &[0.6, 0.8]) < 0.999, "entry did not move");
            assert!((l2_norm(&moved) - 1.0).abs() < 1e-6);
            assert!(cosine(&t.get(2, 1).unwrap(), &[1.0, 0.0]) > 0.99);
            assert_eq!(t.frequency(), &[16, 0, 4, 0]);
            // Extraction yields unit rows (the CacheLayer contract).
            let cache = t.extract(&[1], &[0, 2]);
            assert_eq!(cache.num_layers(), 1);
            assert_eq!(cache.layers()[0].len(), 2);
            // Footprint: i8 ≈ 4× smaller than f32, f16 = 2×.
            let f32_bytes = 4 * 2 * 4; // classes × dim × 4 per touched layer
            assert!(t.store_bytes() < f32_bytes, "{:?}", t.store_bytes());
        }
    }

    #[test]
    fn quantized_batched_merge_matches_sequential() {
        let build = || {
            let mut t = GlobalCacheTable::with_precision(4, 3, Precision::I8);
            t.set(0, 0, vec![1.0, 0.0]);
            t.set(1, 1, vec![0.0, 1.0]);
            t.seed_frequency(&[5, 3, 0, 0]);
            t
        };
        let u1 = upload(&[(0, 0, vec![0.2, 0.9]), (2, 1, vec![0.5, 0.5])]);
        let phi1: Vec<u64> = vec![4, 0, 7, 0];
        let u2 = upload(&[(0, 0, vec![-0.7, 0.1]), (1, 1, vec![0.9, -0.1])]);
        let phi2: Vec<u64> = vec![2, 6, 0, 0];

        let mut scratch = MergeScratch::new();
        let mut seq = build();
        seq.merge_update(&u1, &phi1, 0.99, &mut scratch);
        seq.merge_update(&u2, &phi2, 0.99, &mut scratch);

        let mut bat = build();
        bat.merge_batch(&[(&u1, &phi1), (&u2, &phi2)], 0.99, &mut scratch);

        assert_eq!(seq.frequency(), bat.frequency());
        for c in 0..4 {
            for l in 0..3 {
                match (seq.get(c, l), bat.get(c, l)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for (x, y) in a.iter().zip(b.iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "cell ({c},{l})");
                        }
                    }
                    (a, b) => panic!("occupancy differs at ({c},{l}): {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn convert_precision_round_trips_occupancy_and_shrinks_storage() {
        let mut t = table();
        t.set(0, 0, vec![0.6, 0.8]);
        t.set(2, 1, vec![1.0, 0.0]);
        t.seed_frequency(&[9, 0, 4, 0]);
        let dense_bytes = t.store_bytes();
        let reference = t.clone();
        t.convert_precision(Precision::I8);
        assert_eq!(t.precision(), Precision::I8);
        assert!(t.store_bytes() < dense_bytes, "{} bytes", t.store_bytes());
        for (c, l) in [(0usize, 0usize), (2, 1)] {
            let q = t.get(c, l).unwrap();
            let r = reference.get(c, l).unwrap();
            assert!(cosine(&q, &r) > 0.999, "({c},{l})");
        }
        assert!(t.get(1, 0).is_none());
        // Back to f32: entries stay at their snapped (renormalized)
        // positions — conversion is lossy, not magic — but occupancy,
        // Φ, and unit norms survive.
        t.convert_precision(Precision::F32);
        assert_eq!(t.precision(), Precision::F32);
        assert_eq!(t.frequency(), reference.frequency());
        let e = t.get(0, 0).unwrap();
        assert!((l2_norm(&e) - 1.0).abs() < 1e-6);
        assert!(cosine(&e, &[0.6, 0.8]) > 0.999);
    }

    #[test]
    fn digest_distinguishes_states_and_survives_round_trips() {
        let mut t = table();
        t.set(0, 0, vec![1.0, 0.0]);
        t.seed_frequency(&[5, 3, 0, 0]);
        let d0 = t.digest();
        assert_eq!(d0, t.clone().digest(), "digest is a pure function");
        assert_eq!(wire_round_trip(&t).unwrap().digest(), d0);
        let mut moved = t.clone();
        moved.advance_frequency(&[1, 0, 0, 0]);
        assert_ne!(moved.digest(), d0, "Φ is part of the fingerprint");
    }

    #[test]
    fn digest_is_fnv1a_of_the_wire_encoding() {
        // The reference the streamed hash must equal: the whole-table
        // `Wire` encoding, hashed in one piece.
        let whole_buffer_digest = |t: &GlobalCacheTable| {
            let mut bytes = Vec::new();
            t.encode(&mut bytes);
            let mut h = Fnv1a::default();
            h.write(&bytes);
            h.0
        };
        let mut t = table();
        t.set(0, 0, vec![0.6, 0.8]);
        t.set(2, 1, vec![1.0, 0.0]);
        t.set(3, 1, vec![f32::NAN, -0.0]);
        t.seed_frequency(&[9, 0, 4, 1]);
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            let mut t = t.clone();
            t.convert_precision(precision);
            assert_eq!(t.digest(), whole_buffer_digest(&t), "{precision:?}");
        }
        assert_eq!(table().digest(), whole_buffer_digest(&table()), "empty");
    }

    /// Encodes `t` and decodes it back through the whole-payload reader.
    fn wire_round_trip(t: &GlobalCacheTable) -> Result<GlobalCacheTable, FrameError> {
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = GlobalCacheTable::decode(&mut r)?;
        r.finish()?;
        Ok(back)
    }

    #[test]
    fn wire_round_trips_bit_exactly_at_every_precision() {
        let mut t = GlobalCacheTable::new(70, 3); // two occupancy words
        t.set(0, 0, vec![0.6, 0.8]);
        t.set(69, 0, vec![f32::NAN, -0.0]);
        t.set(64, 2, vec![1.0, 0.0, 0.0]);
        t.seed_frequency(&(0..70).collect::<Vec<u64>>());
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            let mut t = t.clone();
            t.convert_precision(precision);
            let back = wire_round_trip(&t).unwrap();
            assert_eq!(back.digest(), t.digest(), "{precision:?}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            t.encode(&mut a);
            back.encode(&mut b);
            assert_eq!(a, b, "{precision:?}: re-encoding must be byte-identical");
            // Layer 1 was never touched: bitmap, empty store, no codes.
            assert!(back.get(0, 1).is_none() && back.layer_dim(1).is_none());
        }
        assert!(wire_round_trip(&table()).is_ok(), "an empty table is valid");
    }

    #[test]
    fn wire_decode_enforces_every_table_invariant() {
        let mut valid = table();
        valid.set(1, 0, vec![0.0, 1.0]);
        let err = |t: &GlobalCacheTable| match wire_round_trip(t) {
            Err(FrameError::Codec(msg)) => msg,
            other => panic!("expected a codec error, got {other:?}"),
        };
        // Table shape: a dense store whose rows are not the classes.
        let mut t = valid.clone();
        t.stores[0] = VectorStore::zeros(2, 3);
        assert!(err(&t).contains("rows for 4 classes"));
        // Table shape: no layers at all.
        let mut t = valid.clone();
        (t.layers, t.stores, t.qstores, t.occupancy) = (0, vec![], vec![], vec![]);
        assert!(err(&t).contains("degenerate"));
        // An occupied cell in a layer that holds no store.
        let mut t = valid.clone();
        t.occupancy[2].set(3);
        assert!(err(&t).contains("uninitialized layer"));
        // Dense xor quantized: a quantized layer in an f32 table, a dense
        // layer in a quantized one, a layer that is both, a codec other
        // than the table's, a quantized store of the wrong height.
        let q = |rows, p| Some(QuantizedStore::zeros(2, rows, p));
        let mut t = valid.clone();
        t.qstores[1] = q(4, Precision::I8);
        assert!(err(&t).contains("quantized layer in an f32 table"));
        let mut t = valid.clone();
        t.precision = Precision::F16;
        assert!(err(&t).contains("dense layer 0 in a f16 table"));
        let mut quantized = valid.clone();
        quantized.convert_precision(Precision::I8);
        assert!(wire_round_trip(&quantized).is_ok());
        let mut t = quantized.clone();
        t.stores[0] = VectorStore::zeros(2, 4);
        assert!(err(&t).contains("both dense and quantized"));
        let mut t = quantized.clone();
        t.qstores[1] = q(4, Precision::F16);
        assert!(err(&t).contains("codec f16 in a i8 table"));
        let mut t = quantized.clone();
        t.qstores[1] = q(9, Precision::I8);
        assert!(err(&t).contains("rows for 4 classes"));

        // Byte-level: precision tag, ghost occupancy bits, inflated
        // counts, a truncated tail.
        let mut bytes = Vec::new();
        valid.encode(&mut bytes);
        let decode = |b: &[u8]| GlobalCacheTable::decode(&mut Reader::new(b));
        let mut bad = bytes.clone();
        bad[0] = 3;
        assert!(decode(&bad).is_err(), "unknown precision tag");
        let occ0 = 1 + 4 + 4 * 8 + 4;
        let mut bad = bytes.clone();
        bad[occ0] |= 1 << 4; // bit 4 of a 4-class bitmap
        assert!(decode(&bad).is_err(), "set bits beyond the class count");
        for count_at in [1, 1 + 4 + 4 * 8, occ0 + 8 + 4] {
            let mut bad = bytes.clone();
            bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode(&bad).is_err(), "count at {count_at} trusted");
        }
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decay_frequency_ages_mass_out() {
        let mut t = table();
        t.seed_frequency(&[100, 7, 0, 1]);
        t.decay_frequency(0.5);
        assert_eq!(t.frequency(), &[50, 4, 0, 1]);
        t.decay_frequency(1.0);
        assert_eq!(t.frequency(), &[50, 4, 0, 1], "β = 1 is a no-op");
    }
}
