//! CoCa configuration: the paper's thresholds, decays and toggles.

use coca_math::Precision;
use coca_model::ModelId;
use coca_net::{FrameError, Reader, Wire};
use serde::{Deserialize, Serialize};

/// The server's upload pipeline (§IV.A step 3 / "cache collection"): every
/// upload queues in FIFO arrival order and drains through the per-layer
/// batched pass (`GlobalCacheTable::merge_batch`) at the next boundary: a
/// request, a leave, a handover, a peer-sync export or absorb, an explicit
/// flush, or the end of a run. Every read of the table therefore sees every
/// upload that reached the server. The batched pass is bit-identical
/// to merging the uploads one by one in that order, and every virtual cost
/// is charged at the upload's arrival instant.
///
/// There is no other pipeline: this one-variant enum and
/// [`CocaConfig::with_merge_mode`] are kept only because `benchmark/`
/// names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Queue arriving uploads and drain them at the next flush boundary.
    QueueAndFlush,
}

/// All tunables of the CoCa framework. Field docs cite the paper values.
/// The paper parameters no run varies are `const`s beside their one
/// reader: β and the R-estimate EWMA in `client.rs`, γ in `server.rs`,
/// the hot-spot mass and the per-byte layer ranking in `aca.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CocaConfig {
    /// Θ — discriminative-score threshold for a cache hit (Eq. 2). Paper:
    /// 0.012 (ResNets, 3 % SLO), 0.008 (5 % SLO); 0.035 / 0.027 for
    /// VGG16_BN (§VI.D).
    pub theta: f32,
    /// Γ — rule-1 collection threshold: hits with `D_j > Γ` reinforce the
    /// cache (§IV.C). Paper recommendation: 0.1 for ResNets.
    pub gamma_collect: f32,
    /// Δ — rule-2 collection threshold: misses with `prob₁ − prob₂ > Δ`
    /// expand the cache (§IV.C). Paper recommendation: 0.25.
    pub delta_collect: f32,
    /// α — cross-layer accumulation decay (Eq. 1). Paper default 0.5.
    pub alpha: f32,
    /// β — exponential Φ decay applied when a client leaves the fleet:
    /// `Φ_i ← ⌈β·Φ_i⌉`. The paper models a static fleet, so the default
    /// `1.0` disables it; under churn a sub-unit β ages a leaver's
    /// frequency mass out of ACA's hot-spot scores (ROADMAP's
    /// decay/retirement open item — CoCa centroids have no provenance,
    /// so retirement acts on Φ, not on centers).
    pub leave_phi_decay: f64,
    /// F — frames per round / cache update cycle (§IV.C). Paper: 300.
    pub round_frames: usize,
    /// Recency decay base in the class score `s_i = Φ_i · base^⌊τ_i/F⌋`
    /// (Eq. 10). Paper: 0.20.
    pub recency_base: f64,
    /// Π — per-client cache budget in bytes. `0` means *auto*: the engine
    /// sets it to 1/8 of the model's full cache size for the task (the
    /// paper's optimum sits near 10 % of the full cache, Fig. 1(a)).
    pub cache_budget_bytes: usize,
    /// Ablation: dynamic cache allocation (ACA per round). Off = the
    /// "Normal"/"GCU" arms of Fig. 9: a static allocation computed once.
    pub enable_dca: bool,
    /// Ablation: global cache updates (Eq. 4/5). Off = the "Normal"/"DCA"
    /// arms of Fig. 9: the global table stays at its initial contents.
    pub enable_gcu: bool,
    /// Algorithm 1 lines 19–21: deflate later layers' expected hit ratios
    /// after selecting a layer. Exposed for ablation (`exp fig8` runs
    /// ACA without it).
    pub aca_deflation: bool,
    /// Storage precision of the data that *moves*: upload tables,
    /// allocation frames and the server's global-table layers. The
    /// default [`Precision::F32`] is the committed-record reference;
    /// [`Precision::F16`] / [`Precision::I8`] shrink `wire_bytes` and the
    /// table footprint 2–4× at a measured hit-ratio/accuracy cost (see
    /// `results/quant.json`). Kernels always compute in f32 —
    /// quantized rows dequantize on read.
    pub precision: Precision,
    /// Durability: WAL records per segment before the log rotates into a
    /// fresh snapshot generation. Smaller values bound replay work at the
    /// cost of more frequent snapshot writes; only consulted when a
    /// [`Durability`](crate::persist::Durability) layer is attached.
    pub wal_rotate_records: usize,
}

/// Every field in declaration order, fixed width (60 bytes): `f32`/`f64`
/// as themselves, `usize` as `u64`, `bool` and the precision enum as one
/// byte each. The snapshot embeds this so recovery can refuse a store
/// written under a different configuration.
impl Wire for CocaConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.theta.encode(out);
        self.gamma_collect.encode(out);
        self.delta_collect.encode(out);
        self.alpha.encode(out);
        self.leave_phi_decay.encode(out);
        self.round_frames.encode(out);
        self.recency_base.encode(out);
        self.cache_budget_bytes.encode(out);
        self.enable_dca.encode(out);
        self.enable_gcu.encode(out);
        self.aca_deflation.encode(out);
        self.precision.encode(out);
        self.wal_rotate_records.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            theta: Wire::decode(r)?,
            gamma_collect: Wire::decode(r)?,
            delta_collect: Wire::decode(r)?,
            alpha: Wire::decode(r)?,
            leave_phi_decay: Wire::decode(r)?,
            round_frames: Wire::decode(r)?,
            recency_base: Wire::decode(r)?,
            cache_budget_bytes: Wire::decode(r)?,
            enable_dca: Wire::decode(r)?,
            enable_gcu: Wire::decode(r)?,
            aca_deflation: Wire::decode(r)?,
            precision: Wire::decode(r)?,
            wal_rotate_records: Wire::decode(r)?,
        })
    }
}

impl CocaConfig {
    /// Paper defaults for a model family under the 3 % accuracy-loss SLO.
    pub fn for_model(model: ModelId) -> Self {
        let theta = match model {
            ModelId::Vgg16Bn => 0.035,
            // The paper tunes Θ per family; transformers behave like the
            // deep ResNets in our geometry.
            _ => 0.012,
        };
        Self {
            theta,
            gamma_collect: 0.015,
            delta_collect: 0.25,
            alpha: 0.5,
            leave_phi_decay: 1.0, // churn decay off: the paper's static fleet
            round_frames: 300,
            recency_base: 0.20,
            cache_budget_bytes: 0, // 0 = auto: 1/8 of the task's full cache
            enable_dca: true,
            enable_gcu: true,
            aca_deflation: true,
            precision: Precision::F32,
            wal_rotate_records: 256,
        }
    }

    /// Paper thresholds for the 5 % accuracy-loss SLO (Table II).
    pub fn for_model_slo5(model: ModelId) -> Self {
        let mut cfg = Self::for_model(model);
        cfg.theta = match model {
            ModelId::Vgg16Bn => 0.027,
            _ => 0.008,
        };
        cfg
    }

    /// Returns a copy with the given hit threshold (used by sweeps).
    pub fn with_theta(mut self, theta: f32) -> Self {
        self.theta = theta;
        self
    }

    /// Returns a copy with the given cache budget.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.cache_budget_bytes = bytes;
        self
    }

    /// Returns a copy with the given round length F.
    pub fn with_round_frames(mut self, f: usize) -> Self {
        self.round_frames = f;
        self
    }

    /// Returns the config unchanged: the queue is the only upload
    /// pipeline (see [`MergeMode`]). Kept only because `benchmark/`
    /// names it.
    pub fn with_merge_mode(self, _mode: MergeMode) -> Self {
        self
    }

    /// Returns a copy with the given wire/table precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Returns a copy with the given WAL rotation threshold.
    pub fn with_wal_rotate(mut self, records: usize) -> Self {
        self.wal_rotate_records = records;
        self
    }

    /// Validates ranges; engine constructors call this.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.theta.is_finite() && self.theta > 0.0) {
            return Err(format!("theta must be positive, got {}", self.theta));
        }
        if !(0.0..1.0).contains(&self.alpha) {
            return Err("alpha must be in [0,1)".into());
        }
        if !(self.leave_phi_decay > 0.0 && self.leave_phi_decay <= 1.0) {
            return Err("leave_phi_decay must be in (0,1]".into());
        }
        if self.round_frames == 0 {
            return Err("round_frames must be positive".into());
        }
        if !(0.0..1.0).contains(&self.recency_base) || self.recency_base <= 0.0 {
            return Err("recency_base must be in (0,1)".into());
        }
        if self.wal_rotate_records == 0 {
            return Err("wal_rotate_records must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        assert!((cfg.theta - 0.012).abs() < 1e-9);
        assert!((cfg.alpha - 0.5).abs() < 1e-9);
        assert_eq!(cfg.round_frames, 300);
        assert!((cfg.recency_base - 0.20).abs() < 1e-12);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn vgg_gets_its_own_theta() {
        assert!((CocaConfig::for_model(ModelId::Vgg16Bn).theta - 0.035).abs() < 1e-9);
        assert!((CocaConfig::for_model_slo5(ModelId::Vgg16Bn).theta - 0.027).abs() < 1e-9);
        assert!((CocaConfig::for_model_slo5(ModelId::ResNet152).theta - 0.008).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_bad_values() {
        let good = CocaConfig::for_model(ModelId::ResNet101);
        assert!(good.with_theta(0.0).validate().is_err());
        let mut bad = good;
        bad.alpha = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.round_frames = 0;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.recency_base = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builder_helpers() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101)
            .with_theta(0.02)
            .with_budget(12345)
            .with_round_frames(150);
        assert!((cfg.theta - 0.02).abs() < 1e-9);
        assert_eq!(cfg.cache_budget_bytes, 12345);
        assert_eq!(cfg.round_frames, 150);
    }

    #[test]
    fn precision_defaults_and_builder() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        assert_eq!(cfg.precision, Precision::F32);
        let cfg = cfg.with_precision(Precision::I8);
        assert_eq!(cfg.precision, Precision::I8);
        assert!(cfg.validate().is_ok());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: CocaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.precision, Precision::I8);
    }

    #[test]
    fn wal_rotate_defaults_and_builder() {
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        assert_eq!(cfg.wal_rotate_records, 256, "default segment length");
        let cfg = cfg.with_wal_rotate(8);
        assert_eq!(cfg.wal_rotate_records, 8);
        assert!(cfg.validate().is_ok());
        let mut bad = cfg;
        bad.wal_rotate_records = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn wire_round_trips_every_field_and_rejects_bad_tags() {
        let mut cfg = CocaConfig::for_model(ModelId::Vgg16Bn)
            .with_precision(Precision::F16)
            .with_budget(12_345)
            .with_wal_rotate(7);
        cfg.enable_gcu = false;
        cfg.leave_phi_decay = 0.75;
        let mut bytes = Vec::new();
        cfg.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 * 4 + 4 * 8 + 4 + 8, "60 bytes");
        // enable_gcu (off) and the F16 tag sit where the layout puts them.
        assert_eq!((bytes[48], bytes[49], bytes[51]), (1, 0, 1));
        let mut r = Reader::new(&bytes);
        assert_eq!(CocaConfig::decode(&mut r).unwrap(), cfg);
        assert!(r.finish().is_ok());
        // The three bools, then the precision tag: every one is
        // range-checked. A short buffer errors.
        for at in 48..52 {
            let mut bad = bytes.clone();
            bad[at] = 9;
            assert!(
                CocaConfig::decode(&mut Reader::new(&bad)).is_err(),
                "byte {at}"
            );
        }
        let short = &bytes[..bytes.len() - 1];
        assert!(CocaConfig::decode(&mut Reader::new(short)).is_err());
    }

    #[test]
    fn merge_mode_serde_round_trips() {
        // The one pipeline has no field: `with_merge_mode` changes no byte
        // of either encoding, and the config still round-trips.
        let cfg = CocaConfig::for_model(ModelId::ResNet101);
        let queued = cfg.with_merge_mode(MergeMode::QueueAndFlush);
        assert_eq!(queued, cfg);
        let json = serde_json::to_string(&queued).unwrap();
        assert!(!json.contains("merge_mode"), "{json}");
        let back: CocaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
