//! The client's local semantic cache.
//!
//! A local cache is a set of *activated* cache layers; each activated layer
//! holds one unit-norm semantic-center entry per hot-spot class. In CoCa
//! the server extracts these as a sub-table of its global cache (§IV.B);
//! baselines fill them by other policies.
//!
//! Entries live in a contiguous [`VectorStore`] (one flat row-major buffer
//! per layer) so the per-frame Eq. 1/2 scan streams through cache lines;
//! the unit-norm contract is `debug_assert`ed once at insertion, which is
//! what lets the lookup use the norm-free `dot_unit` kernel.

use coca_math::{Precision, VectorStore};
use coca_net::wire::{decode_seq, encode_seq, put_u32};
use coca_net::{FrameError, Reader, Wire};

/// One activated cache layer.
#[derive(Debug, Clone)]
pub struct CacheLayer {
    /// Which preset cache point of the model this layer occupies.
    pub point: usize,
    /// Cached classes, parallel to the rows of `vectors`.
    pub classes: Vec<usize>,
    /// Unit-norm semantic centers, one store row per entry of `classes`.
    pub vectors: VectorStore,
}

/// `[u32 point][u32 n][n × u32 class][VectorStore]`.
///
/// Decoding is the one entry point that bypasses [`CacheLayer::insert`]'s
/// debug-time unit-norm assertion (allocations arrive over the wire in the
/// TCP deployment), and the norm-free lookup kernel would silently
/// mis-score a non-unit entry where the seed's `cosine` used to
/// renormalize it. So the binary frame decoder goes through
/// [`CacheLayer::from_untrusted`], which enforces the contract for real:
/// rows must be unit-norm (or zero — degenerate entries score 0) and
/// parallel to `classes`.
impl Wire for CacheLayer {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.point);
        put_u32(out, self.classes.len());
        for &c in &self.classes {
            put_u32(out, c);
        }
        self.vectors.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let point = u32::decode(r)? as usize;
        let n = r.count(4)?;
        let classes = r
            .bytes(n * 4)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize)
            .collect();
        Self::from_untrusted(point, classes, VectorStore::decode(r)?).map_err(FrameError::Codec)
    }
}

impl CacheLayer {
    /// An empty activated layer at model point `point`.
    pub fn new(point: usize) -> Self {
        Self {
            point,
            classes: Vec::new(),
            vectors: VectorStore::empty(),
        }
    }

    /// A layer from decoded parts, with the in-memory contract checked.
    fn from_untrusted(
        point: usize,
        classes: Vec<usize>,
        vectors: VectorStore,
    ) -> Result<Self, String> {
        if vectors.rows() != classes.len() {
            return Err(format!(
                "CacheLayer: {} classes vs {} vector rows",
                classes.len(),
                vectors.rows()
            ));
        }
        for (i, row) in vectors.iter_rows().enumerate() {
            if !coca_math::is_unit(row, 1e-3) {
                return Err(format!(
                    "CacheLayer: row {i} (class {}) is not unit-norm",
                    classes[i]
                ));
            }
        }
        Ok(Self {
            point,
            classes,
            vectors,
        })
    }

    /// Adds (or replaces) the entry for `class`.
    pub fn insert(&mut self, class: usize, vector: Vec<f32>) {
        debug_assert!(
            coca_math::is_unit(&vector, 1e-3),
            "cache entries must be unit-norm"
        );
        if let Some(i) = self.classes.iter().position(|&c| c == class) {
            self.vectors.set_row(i, &vector);
        } else {
            self.classes.push(class);
            self.vectors.push_row(&vector);
        }
    }

    /// Removes the entry for `class` if present; returns true if removed.
    pub fn remove(&mut self, class: usize) -> bool {
        if let Some(i) = self.classes.iter().position(|&c| c == class) {
            self.classes.swap_remove(i);
            self.vectors.swap_remove_row(i);
            true
        } else {
            false
        }
    }

    /// The cached center for `class`, if present.
    pub fn vector_for(&self, class: usize) -> Option<&[f32]> {
        self.classes
            .iter()
            .position(|&c| c == class)
            .map(|i| self.vectors.row(i))
    }

    /// Iterates `(class, center)` entries in row order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.classes.iter().copied().zip(self.vectors.iter_rows())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True iff the layer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Bytes occupied by this layer's entries (dense f32).
    pub fn bytes(&self) -> usize {
        self.vectors.bytes()
    }

    /// Bytes this layer's entries occupy when shipped at `precision`
    /// (what a quantized allocation frame prices on the wire).
    pub fn bytes_at(&self, precision: Precision) -> usize {
        precision.payload_bytes(self.classes.len(), self.vectors.dim())
    }
}

/// A client's local cache: activated layers in depth order.
#[derive(Debug, Clone, Default)]
pub struct LocalCache {
    layers: Vec<CacheLayer>,
}

/// `[u32 n][n × CacheLayer]`.
///
/// Decoding the layers verbatim would let an allocation frame smuggle
/// duplicate or unsorted layer points past the
/// [`LocalCache::from_layers`] invariant (which `panic`s — the right
/// response to a programming error, the wrong one to hostile bytes). The
/// decoder instead canonicalizes the order and turns duplicates into a
/// decode error ([`LocalCache::from_untrusted`]).
impl Wire for LocalCache {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.layers, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        // An empty layer is point + class count + store header.
        Self::from_untrusted(decode_seq(r, 16)?).map_err(FrameError::Codec)
    }
}

impl LocalCache {
    /// An empty cache (inference degenerates to Edge-Only).
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// [`LocalCache::from_layers`] for decoded layers: sorted by model
    /// point, with a duplicate point an error instead of a panic.
    fn from_untrusted(mut layers: Vec<CacheLayer>) -> Result<Self, String> {
        layers.sort_by_key(|l| l.point);
        for w in layers.windows(2) {
            if w[0].point == w[1].point {
                return Err(format!(
                    "LocalCache: duplicate cache layer at point {}",
                    w[0].point
                ));
            }
        }
        Ok(Self { layers })
    }

    /// Builds from layers; they are sorted by model point and must not
    /// contain duplicates.
    ///
    /// # Panics
    /// Panics on duplicate points.
    pub fn from_layers(layers: Vec<CacheLayer>) -> Self {
        Self::from_untrusted(layers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Activated layers, shallow to deep.
    pub fn layers(&self) -> &[CacheLayer] {
        &self.layers
    }

    /// Number of activated layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// True iff no layer is activated or all layers are empty.
    pub fn is_empty(&self) -> bool {
        self.layers.iter().all(|l| l.is_empty())
    }

    /// Total bytes of all entries.
    pub fn total_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.bytes()).sum()
    }

    /// Total bytes of all entries when shipped at `precision`
    /// ([`Precision::F32`] reproduces [`LocalCache::total_bytes`]).
    pub fn total_bytes_at(&self, precision: Precision) -> usize {
        self.layers.iter().map(|l| l.bytes_at(precision)).sum()
    }

    /// The activated model points, shallow to deep.
    pub fn activated_points(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.point).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        v[hot % dim] = 1.0;
        v
    }

    #[test]
    fn insert_replace_remove() {
        let mut l = CacheLayer::new(3);
        l.insert(7, unit(4, 0));
        l.insert(9, unit(4, 1));
        assert_eq!(l.len(), 2);
        l.insert(7, unit(4, 2)); // replace
        assert_eq!(l.len(), 2);
        assert_eq!(l.vector_for(7).unwrap(), unit(4, 2).as_slice());
        assert!(l.remove(9));
        assert!(!l.remove(9));
        assert_eq!(l.len(), 1);
        assert_eq!(l.bytes(), 16);
    }

    #[test]
    fn entries_stay_parallel_after_removal() {
        let mut l = CacheLayer::new(0);
        l.insert(1, unit(3, 0));
        l.insert(2, unit(3, 1));
        l.insert(3, unit(3, 2));
        assert!(l.remove(1)); // swap-removes: class 3's row moves to slot 0
        let pairs: Vec<(usize, Vec<f32>)> = l.entries().map(|(c, v)| (c, v.to_vec())).collect();
        assert_eq!(pairs.len(), 2);
        for (c, v) in pairs {
            assert_eq!(l.vector_for(c).unwrap(), v.as_slice());
        }
        assert_eq!(l.vector_for(3).unwrap(), unit(3, 2).as_slice());
    }

    /// Decodes a payload that must be exactly one `T`.
    fn decode<T: Wire>(bytes: &[u8]) -> Result<T, FrameError> {
        let mut r = Reader::new(bytes);
        let v = T::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// A hand-built [`CacheLayer`] payload: `floats` as whole rows of
    /// `dim`, whatever the class count says.
    fn layer_bytes(point: u32, classes: &[u32], dim: u32, floats: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        point.encode(&mut out);
        classes.to_vec().encode(&mut out);
        dim.encode(&mut out);
        put_u32(&mut out, floats.len() / dim.max(1) as usize);
        for x in floats {
            x.encode(&mut out);
        }
        out
    }

    /// A [`LocalCache`] payload of empty layers at `points`.
    fn cache_bytes(points: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, points.len());
        for &p in points {
            out.extend(layer_bytes(p, &[], 0, &[]));
        }
        out
    }

    #[test]
    fn layer_deserialize_enforces_the_unit_contract() {
        // Non-unit row: the seed's cosine would have renormalized it, the
        // norm-free kernel cannot — the wire boundary must reject it.
        assert!(decode::<CacheLayer>(&layer_bytes(1, &[7], 2, &[3.0, 4.0])).is_err());
        // Classes/rows mismatch.
        assert!(decode::<CacheLayer>(&layer_bytes(1, &[7, 9], 2, &[1.0, 0.0])).is_err());
        // Zero rows are degenerate-but-legal (they score 0, as cosine did).
        let zero = decode::<CacheLayer>(&layer_bytes(1, &[7], 2, &[0.0, 0.0])).unwrap();
        assert_eq!(zero.vector_for(7).unwrap(), [0.0, 0.0]);
    }

    #[test]
    fn from_layers_sorts_by_point() {
        let cache = LocalCache::from_layers(vec![CacheLayer::new(5), CacheLayer::new(1)]);
        assert_eq!(cache.activated_points(), vec![1, 5]);
        assert!(cache.is_empty());
        assert_eq!(cache.num_layers(), 2);
    }

    #[test]
    fn cache_deserialize_sorts_and_rejects_duplicate_points() {
        // Unsorted wire layers are canonicalized, not trusted.
        let cache: LocalCache = decode(&cache_bytes(&[5, 1])).unwrap();
        assert_eq!(cache.activated_points(), vec![1, 5]);
        // A duplicate point is a decode error — `from_layers` panics on
        // this invariant violation, and hostile bytes must never panic.
        assert!(decode::<LocalCache>(&cache_bytes(&[2, 2])).is_err());
        // A layer count the payload cannot back.
        assert!(decode::<LocalCache>(&cache_bytes(&[2])[..8]).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_points_panic() {
        let _ = LocalCache::from_layers(vec![CacheLayer::new(2), CacheLayer::new(2)]);
    }

    #[test]
    fn total_bytes_sums_across_layers() {
        let mut a = CacheLayer::new(0);
        a.insert(3, unit(2, 0));
        a.insert(1, unit(2, 1));
        let mut b = CacheLayer::new(4);
        b.insert(1, unit(2, 0));
        b.insert(2, unit(2, 1));
        let cache = LocalCache::from_layers(vec![a, b]);
        assert_eq!(cache.total_bytes(), 4 * 8);
    }
}
