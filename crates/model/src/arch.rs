//! Model architectures as block sequences with preset cache points.
//!
//! A model with `L` preset cache points is split into `L + 1` compute
//! blocks: cache point `j` sits *after* block `j` (0-based), and block `L`
//! is the tail (remaining layers + classifier head). This matches the
//! paper's class-based semantic caching setup (§II.3): "the model is
//! partitioned into multiple blocks based on preset cache locations, with
//! cache layers set between these blocks".

use serde::{Deserialize, Serialize};

/// The five evaluation models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelId {
    /// VGG-16 with batch normalization (13 conv layers ⇒ 13 cache points).
    Vgg16Bn,
    /// ResNet-50 (stem + 16 residual blocks ⇒ 17 cache points).
    ResNet50,
    /// ResNet-101 (stem + 33 residual blocks ⇒ 34 cache points, the
    /// paper's "up to 34 cache layers").
    ResNet101,
    /// ResNet-152 (stem + 50 residual blocks ⇒ 51 cache points).
    ResNet152,
    /// Audio Spectrogram Transformer, AST-Base (12 blocks ⇒ 12 points).
    AstBase,
}

impl ModelId {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Vgg16Bn => "vgg16_bn",
            ModelId::ResNet50 => "resnet50",
            ModelId::ResNet101 => "resnet101",
            ModelId::ResNet152 => "resnet152",
            ModelId::AstBase => "ast-base",
        }
    }

    /// All five models, in the paper's reporting order.
    pub fn all() -> [ModelId; 5] {
        [
            ModelId::Vgg16Bn,
            ModelId::ResNet50,
            ModelId::ResNet101,
            ModelId::ResNet152,
            ModelId::AstBase,
        ]
    }
}

/// One preset cache point: where a semantic cache layer may be activated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePoint {
    /// Dimension of the pooled semantic vector at this depth (channel
    /// count after global average pooling; shallow layers are narrow).
    pub dim: usize,
    /// Signal strength κ ∈ (0, 1): fraction of the feature explained by
    /// the class center (grows with depth — deeper features are cleaner).
    pub kappa: f32,
    /// Class separation ∈ (0, 1): how far apart class centers sit at this
    /// depth (grows with depth — shallow features look alike across
    /// classes).
    pub separation: f32,
    /// Disambiguation ∈ [0, 1): how much of a frame's class ambiguity the
    /// network has resolved by this depth (grows with depth).
    pub disambiguation: f32,
}

/// A model architecture as the simulator sees it.
#[derive(Debug, Clone)]
pub struct ModelArch {
    /// Which model this is.
    pub id: ModelId,
    /// The `L` preset cache points, shallow to deep.
    pub cache_points: Vec<CachePoint>,
    /// The virtual "head" feature the final classifier consumes (slightly
    /// stronger than the deepest cache point — the classifier sees the
    /// whole network).
    pub head: CachePoint,
    /// Relative compute weight of each of the `L + 1` blocks.
    pub block_weights: Vec<f64>,
    /// Baseline no-cache latency of the whole model in milliseconds on the
    /// UCF101 input anchor (paper's Jetson TX2 measurements).
    pub base_latency_ms: f64,
}

impl ModelArch {
    /// Number of preset cache points `L`.
    pub fn num_cache_points(&self) -> usize {
        self.cache_points.len()
    }

    /// Byte size of one cache entry at point `j` (an f32 semantic vector).
    pub fn entry_bytes(&self, j: usize) -> usize {
        self.cache_points[j].dim * std::mem::size_of::<f32>()
    }

    /// Byte size of a full cache column set: one entry per point for
    /// `classes` classes — the paper's "total cache size" reference.
    pub fn full_cache_bytes(&self, classes: usize) -> usize {
        (0..self.num_cache_points())
            .map(|j| self.entry_bytes(j) * classes)
            .sum()
    }

    /// Validates internal consistency (used by tests and constructors).
    pub fn validate(&self) -> Result<(), String> {
        if self.cache_points.is_empty() {
            return Err("no cache points".into());
        }
        if self.block_weights.len() != self.cache_points.len() + 1 {
            return Err(format!(
                "block_weights {} != cache_points {} + 1",
                self.block_weights.len(),
                self.cache_points.len()
            ));
        }
        if self.block_weights.iter().any(|&w| w <= 0.0) {
            return Err("non-positive block weight".into());
        }
        for (j, p) in self
            .cache_points
            .iter()
            .chain(std::iter::once(&self.head))
            .enumerate()
        {
            if p.dim == 0 {
                return Err(format!("cache point {j} has zero dim"));
            }
            if !(0.0..1.0).contains(&p.kappa) || p.kappa <= 0.0 {
                return Err(format!("cache point {j} kappa {} out of (0,1)", p.kappa));
            }
            if !(0.0..=1.0).contains(&p.separation) {
                return Err(format!(
                    "cache point {j} separation {} out of [0,1]",
                    p.separation
                ));
            }
            if !(0.0..1.0).contains(&p.disambiguation) {
                return Err(format!(
                    "cache point {j} disambiguation {} out of [0,1)",
                    p.disambiguation
                ));
            }
        }
        Ok(())
    }
}

/// Smoothstep interpolation helper used by depth profiles: maps `t ∈ [0,1]`
/// to `[0,1]` with zero slope at both ends.
pub fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(dim: usize) -> CachePoint {
        CachePoint {
            dim,
            kappa: 0.5,
            separation: 0.5,
            disambiguation: 0.2,
        }
    }

    #[test]
    fn validate_catches_mismatched_blocks() {
        let arch = ModelArch {
            id: ModelId::Vgg16Bn,
            cache_points: vec![point(8), point(16)],
            head: point(16),
            block_weights: vec![1.0, 1.0], // should be 3
            base_latency_ms: 10.0,
        };
        assert!(arch.validate().is_err());
    }

    #[test]
    fn entry_and_full_cache_bytes() {
        let arch = ModelArch {
            id: ModelId::Vgg16Bn,
            cache_points: vec![point(8), point(16)],
            head: point(16),
            block_weights: vec![1.0, 1.0, 1.0],
            base_latency_ms: 10.0,
        };
        assert!(arch.validate().is_ok());
        assert_eq!(arch.entry_bytes(0), 32);
        assert_eq!(arch.entry_bytes(1), 64);
        assert_eq!(arch.full_cache_bytes(10), (32 + 64) * 10);
    }

    #[test]
    fn smoothstep_endpoints_and_midpoint() {
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(1.0), 1.0);
        assert!((smoothstep(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(2.0), 1.0);
    }
}
