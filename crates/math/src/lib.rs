//! # coca-math — numeric kernels
//!
//! Small, dependency-light numeric building blocks shared by the whole
//! reproduction:
//!
//! * [`vector`] — f32 vector kernels: dot products, L2 normalization, cosine
//!   similarity, random unit vectors, centroids.
//! * [`matrix`] — fused, deterministic scoring kernels over contiguous
//!   row-major buffers: [`dot_unit`], [`matrix::score_top2`] (Eq. 1/2 in one
//!   pass), [`matrix::knn_k`] (H-kNN ranking), [`matrix::assign_nearest`]
//!   (k-means E-step) — the heart of every similarity hot path.
//! * [`store`] — [`VectorStore`], the dimension-checked contiguous storage
//!   those kernels scan (32-byte aligned via [`aligned`]).
//! * [`quant`] — [`QuantizedStore`] (i8 per-row scale / IEEE binary16)
//!   for the wire and global-table representation; dequantize-on-read
//!   into the f32 kernels.
//! * `simd` (feature `simd`) — explicit AVX2 kernel twins with runtime
//!   dispatch, bit-identical to the scalar path.
//! * [`mask`] — [`OccupancyBitmap`] (packed per-slot presence bits over a
//!   dense store) and the bitmap-backed [`SlotMap`]: the occupancy layer
//!   of the columnar server-side tables.
//! * [`stats`] — Welford online mean/variance.
//! * [`softmax`] — numerically stable softmax and top-2 probability margin
//!   (the paper's rule-2 sample-collection test `prob₁ − prob₂ > Δ`).
//! * [`topk`] — index-returning top-1/top-2/top-k selection.
//! * [`pca`] — top-k principal components by power iteration (Fig. 2's
//!   projection substitute for t-SNE).
//! * [`cluster`] — silhouette score and intra/inter-class cosine statistics
//!   (Fig. 2's quantitative clustering evidence).

pub mod aligned;
pub mod cluster;
pub mod mask;
pub mod matrix;
pub mod pca;
pub mod quant;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub mod simd;
pub mod softmax;
pub mod stats;
pub mod store;
pub mod topk;
pub mod vector;

pub use aligned::AlignedF32;
pub use mask::{OccupancyBitmap, SlotMap};
pub use matrix::{
    dot_unit, merge_weighted_row, merge_weighted_rows, simd_active, ScoreScratch, Top2,
};
pub use quant::{snap_row, Precision, QuantizedStore};
pub use stats::OnlineStats;
pub use store::VectorStore;
pub use topk::{top1, top2, top_k_indices};
pub use vector::{
    cosine, dot, is_unit, l2_norm, l2_normalize, l2_normalized, mean_vector, random_unit,
};
