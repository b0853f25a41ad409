//! Temporally local frame streams.
//!
//! The paper's test streams are batched so that consecutive samples share a
//! class ("to simulate temporal locality", §VI.A) — exactly the property
//! that makes inference caching worthwhile. The generator emits *runs* of
//! same-class frames with:
//!
//! * geometric run lengths (mean = the dataset's locality strength),
//! * a per-run difficulty level drawn from a bimodal mixture (streams are
//!   dominated by easy repeated content plus a hard tail — scene changes,
//!   unusual views), and
//! * intra-run correlation seeds, so the feature generator can make frames
//!   of one run genuinely resemble each other.

use rand::Rng;
use serde::{Deserialize, Serialize};

use coca_sim::SeedTree;

/// One simulated stream frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Frame index within this client's stream.
    pub seq: u64,
    /// Ground-truth class of the frame.
    pub class: usize,
    /// Position inside the current same-class run (0 = run start).
    pub run_pos: u32,
    /// Feature-noise scale for this frame (1.0 = nominal difficulty).
    pub difficulty: f32,
    /// Base difficulty of the whole run. Class ambiguity is a property of
    /// the *content* (the same hard-to-recognize object persists across a
    /// video segment), so the feature generator derives its confusion
    /// mixing from this run-level value rather than the per-frame one.
    pub run_difficulty: f32,
    /// Seed for per-frame noise in the feature generator.
    pub frame_seed: u64,
    /// Seed shared by all frames of the run (correlated noise component).
    pub run_seed: u64,
}

// The difficulty mixture. It reproduces the bimodal profile of video
// streams: a large easy mode (near-duplicate frames), a medium mode, and a
// hard tail. This bimodality is what yields the paper's Fig. 1(b) U-shaped
// per-layer hit profile — easy frames exit at shallow cache layers, hard
// frames only at deep ones.

/// Probability of an easy run.
const EASY_PROB: f64 = 0.42;
/// Probability of a hard run (medium = remainder).
const HARD_PROB: f64 = 0.20;
/// Difficulty range for easy runs.
const EASY: (f32, f32) = (0.40, 0.70);
/// Difficulty range for medium runs.
const MEDIUM: (f32, f32) = (0.90, 1.30);
/// Difficulty range for hard runs.
const HARD: (f32, f32) = (1.60, 2.40);
/// Multiplier applied to the first frame of a run (scene change).
const RUN_START_FACTOR: f32 = 1.35;
/// Multiplier applied to subsequent frames (near-duplicates).
const RUN_FOLLOW_FACTOR: f32 = 0.72;

/// One step of a piecewise popularity schedule: from the frame with
/// sequence number `from_seq` onward, the stream samples classes from
/// `class_weights` instead of the previous phase's weights.
///
/// Phases are keyed in **frame-sequence space**, not virtual time, on
/// purpose: two methods driven over the same scenario consume each
/// client's stream at different virtual-time rates, and the cross-method
/// fairness invariant (byte-identical frame streams, proven by the frame
/// digest) must survive popularity drift. A phase boundary therefore
/// applies when the client's own stream crosses `from_seq`, wherever that
/// falls in virtual time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopularityPhase {
    /// First frame sequence number governed by this phase.
    pub from_seq: u64,
    /// The phase's class-popularity distribution (same length as the
    /// stream's base weights; must have positive mass).
    pub class_weights: Vec<f64>,
}

/// Configuration of one client's stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Class-popularity distribution of this client (must sum to 1).
    pub class_weights: Vec<f64>,
    /// Mean same-class run length (≥ 1).
    pub mean_run_length: f64,
    /// If true, a new run never repeats the previous run's class (when more
    /// than one class has positive weight).
    pub forbid_immediate_repeat: bool,
    /// Probability that a new run's class recurs from the recent-class
    /// pool instead of the base distribution. Real stream data revisits
    /// the same handful of classes for minutes at a time (the same scene
    /// persists); this is the second level of the paper's temporal
    /// locality, on top of same-class frame runs.
    pub recurrence_prob: f64,
    /// Size of the recent-class pool.
    pub recurrence_window: usize,
    /// Piecewise popularity schedule (sorted by `from_seq`; empty = the
    /// base `class_weights` hold for the whole stream). A phase takes
    /// effect at the first run boundary at or after its `from_seq` — runs
    /// never change class mid-flight, matching how a scene change (not a
    /// popularity shift) ends a run.
    pub schedule: Vec<PopularityPhase>,
}

impl StreamConfig {
    /// A stream over `class_weights` with the given mean run length.
    pub fn new(class_weights: Vec<f64>, mean_run_length: f64) -> Self {
        assert!(
            !class_weights.is_empty(),
            "StreamConfig: empty class weights"
        );
        assert!(mean_run_length >= 1.0, "mean run length must be ≥ 1");
        Self {
            class_weights,
            mean_run_length,
            forbid_immediate_repeat: true,
            recurrence_prob: 0.80,
            recurrence_window: 10,
            schedule: Vec::new(),
        }
    }

    /// Builder: attaches a piecewise popularity schedule. Phases may be
    /// given in any order; they are sorted by `from_seq` (stable, so a
    /// later-listed phase wins a `from_seq` tie).
    ///
    /// # Panics
    /// Panics if any phase's weight vector length differs from the base
    /// weights or has non-positive mass.
    pub fn with_schedule(mut self, mut schedule: Vec<PopularityPhase>) -> Self {
        for phase in &schedule {
            assert_eq!(
                phase.class_weights.len(),
                self.class_weights.len(),
                "popularity phase class count mismatch"
            );
            assert!(
                phase.class_weights.iter().sum::<f64>() > 0.0,
                "popularity phase needs positive mass"
            );
        }
        schedule.sort_by_key(|p| p.from_seq);
        self.schedule = schedule;
        self
    }
}

/// Normalized cumulative distribution over `weights`.
fn build_cdf(weights: &[f64]) -> Vec<f64> {
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "class weights must have positive mass");
    let mut acc = 0.0;
    weights
        .iter()
        .map(|&w| {
            acc += w / sum;
            acc
        })
        .collect()
}

/// Infinite generator of temporally local frames.
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    cfg: StreamConfig,
    rng: rand::rngs::SmallRng,
    /// Cumulative distribution over classes for O(log n) sampling.
    cdf: Vec<f64>,
    /// Next phase of `cfg.schedule` to apply (all earlier phases applied).
    phase_idx: usize,
    seq: u64,
    // Current-run state.
    run_class: usize,
    run_remaining: u32,
    run_pos: u32,
    run_seed: u64,
    run_difficulty: f32,
    /// Recently visited classes (most recent last).
    recent: Vec<usize>,
}

impl StreamGenerator {
    /// Builds a generator; `seeds` should be a client-specific node.
    pub fn new(cfg: StreamConfig, seeds: &SeedTree) -> Self {
        let sum: f64 = cfg.class_weights.iter().sum();
        assert!(sum > 0.0, "class weights must have positive mass");
        let cdf = build_cdf(&cfg.class_weights);
        let rng = seeds.rng_for("stream");
        let mut gen = Self {
            cfg,
            rng,
            cdf,
            phase_idx: 0,
            seq: 0,
            run_class: usize::MAX,
            run_remaining: 0,
            run_pos: 0,
            run_seed: 0,
            run_difficulty: 1.0,
            recent: Vec::new(),
        };
        gen.start_run();
        gen
    }

    /// Applies every schedule phase whose `from_seq` has been reached.
    /// Consumes no randomness, so a schedule never perturbs the RNG stream
    /// of the frames it does not affect.
    fn advance_phases(&mut self) {
        while let Some(phase) = self.cfg.schedule.get(self.phase_idx) {
            if self.seq < phase.from_seq {
                break;
            }
            self.cfg.class_weights = phase.class_weights.clone();
            self.cdf = build_cdf(&self.cfg.class_weights);
            self.phase_idx += 1;
        }
    }

    fn sample_class(&mut self) -> usize {
        let positive = self.cfg.class_weights.iter().filter(|&&w| w > 0.0).count();
        // Second-level locality: revisit a recently seen class. Classes a
        // popularity phase zeroed out drop from the pool — the old scene
        // does not linger once its content is gone.
        let candidates: Vec<usize> = self
            .recent
            .iter()
            .copied()
            .filter(|&c| self.cfg.class_weights[c] > 0.0)
            .filter(|&c| !(self.cfg.forbid_immediate_repeat && positive > 1 && c == self.run_class))
            .collect();
        if !candidates.is_empty() && self.rng.gen_range(0.0..1.0) < self.cfg.recurrence_prob {
            return candidates[self.rng.gen_range(0..candidates.len())];
        }
        loop {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            let idx = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
            if self.cfg.forbid_immediate_repeat && positive > 1 && idx == self.run_class {
                continue;
            }
            if self.cfg.class_weights[idx] > 0.0 {
                return idx;
            }
        }
    }

    fn note_recent(&mut self, class: usize) {
        self.recent.retain(|&c| c != class);
        self.recent.push(class);
        let window = self.cfg.recurrence_window.max(1);
        if self.recent.len() > window {
            self.recent.remove(0);
        }
    }

    fn start_run(&mut self) {
        self.advance_phases();
        self.run_class = self.sample_class();
        self.note_recent(self.run_class);
        // Geometric length with mean L: success probability 1/L, min 1.
        let p = 1.0 / self.cfg.mean_run_length;
        let mut len = 1u32;
        while self.rng.gen_range(0.0..1.0) > p && len < 10_000 {
            len += 1;
        }
        self.run_remaining = len;
        self.run_pos = 0;
        self.run_seed = self.rng.gen();
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let (lo, hi) = if roll < EASY_PROB {
            EASY
        } else if roll < EASY_PROB + HARD_PROB {
            HARD
        } else {
            MEDIUM
        };
        self.run_difficulty = self.rng.gen_range(lo..hi);
    }

    /// Emits the next frame.
    pub fn next_frame(&mut self) -> Frame {
        if self.run_remaining == 0 {
            self.start_run();
        }
        let factor = if self.run_pos == 0 {
            RUN_START_FACTOR
        } else {
            RUN_FOLLOW_FACTOR
        };
        let jitter: f32 = self.rng.gen_range(0.9..1.1);
        let frame = Frame {
            seq: self.seq,
            class: self.run_class,
            run_pos: self.run_pos,
            difficulty: (self.run_difficulty * factor * jitter).max(0.05),
            run_difficulty: self.run_difficulty,
            frame_seed: self.rng.gen(),
            run_seed: self.run_seed,
        };
        self.seq += 1;
        self.run_pos += 1;
        self.run_remaining -= 1;
        frame
    }

    /// Emits `n` frames into a vector.
    pub fn take(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }

    /// The stream's class-weight vector.
    pub fn class_weights(&self) -> &[f64] {
        &self.cfg.class_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{long_tail_weights, uniform_weights};

    fn gen(weights: Vec<f64>, run: f64, seed: u64) -> StreamGenerator {
        StreamGenerator::new(StreamConfig::new(weights, run), &SeedTree::new(seed))
    }

    #[test]
    fn frames_follow_runs() {
        let mut g = gen(uniform_weights(10), 8.0, 1);
        let frames = g.take(1000);
        // Run positions restart at 0 and increment within a run.
        let mut prev: Option<Frame> = None;
        for f in &frames {
            if let Some(p) = prev {
                if f.run_pos > 0 {
                    assert_eq!(f.class, p.class, "class changed mid-run");
                    assert_eq!(f.run_pos, p.run_pos + 1);
                    assert_eq!(f.run_seed, p.run_seed);
                } else {
                    assert_ne!(f.class, p.class, "immediate repeat forbidden");
                }
            }
            prev = Some(*f);
        }
    }

    #[test]
    fn mean_run_length_is_close_to_requested() {
        let mut g = gen(uniform_weights(20), 12.0, 2);
        let frames = g.take(50_000);
        let runs = frames.iter().filter(|f| f.run_pos == 0).count();
        let mean = frames.len() as f64 / runs as f64;
        assert!((mean - 12.0).abs() < 1.5, "mean run length {mean}");
    }

    #[test]
    fn empirical_class_frequencies_match_weights() {
        let w = long_tail_weights(10, 20.0);
        let mut g = gen(w.clone(), 1.0, 3);
        // Run length 1 with forbid_immediate_repeat or recurrence biases
        // the marginal; disable both for this statistical check.
        g.cfg.forbid_immediate_repeat = false;
        g.cfg.recurrence_prob = 0.0;
        let frames = g.take(100_000);
        let mut counts = [0usize; 10];
        for f in &frames {
            counts[f.class] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / frames.len() as f64;
            assert!(
                (emp - w[i]).abs() < 0.01,
                "class {i}: emp {emp} vs {}",
                w[i]
            );
        }
    }

    #[test]
    fn run_start_is_harder_than_followers() {
        let mut g = gen(uniform_weights(5), 10.0, 4);
        let frames = g.take(20_000);
        let mean = |pred: &dyn Fn(&Frame) -> bool| -> f64 {
            let xs: Vec<f64> = frames
                .iter()
                .filter(|f| pred(f))
                .map(|f| f.difficulty as f64)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let start = mean(&|f: &Frame| f.run_pos == 0);
        let follow = mean(&|f: &Frame| f.run_pos > 0);
        assert!(start > follow * 1.3, "start {start} follow {follow}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(uniform_weights(7), 5.0, 9).take(100);
        let b = gen(uniform_weights(7), 5.0, 9).take(100);
        assert_eq!(a, b);
        let c = gen(uniform_weights(7), 5.0, 10).take(100);
        assert_ne!(a, c);
    }

    #[test]
    fn frames_are_pinned() {
        // FNV-1a over every field of 10 000 frames: the difficulty mixture's
        // constants reach these bits, so moving one changes the hash.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for b in word.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for f in gen(uniform_weights(10), 8.0, 15).take(10_000) {
            mix(f.seq);
            mix(f.class as u64);
            mix(u64::from(f.run_pos));
            mix(u64::from(f.difficulty.to_bits()));
            mix(u64::from(f.run_difficulty.to_bits()));
            mix(f.frame_seed);
            mix(f.run_seed);
        }
        assert_eq!(hash, 0x6f91_6c56_afbd_4e4a, "frame hash {hash:#018x}");
    }

    #[test]
    fn zero_weight_classes_never_appear() {
        let mut w = uniform_weights(6);
        w[2] = 0.0;
        w[4] = 0.0;
        let sum: f64 = w.iter().sum();
        for x in &mut w {
            *x /= sum;
        }
        let mut g = gen(w, 3.0, 5);
        for f in g.take(5000) {
            assert!(f.class != 2 && f.class != 4);
        }
    }

    #[test]
    fn single_class_stream_repeats() {
        let mut g = gen(vec![1.0], 4.0, 6);
        for f in g.take(100) {
            assert_eq!(f.class, 0);
        }
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_no_schedule() {
        let a = gen(uniform_weights(8), 6.0, 11).take(500);
        let cfg = StreamConfig::new(uniform_weights(8), 6.0).with_schedule(Vec::new());
        let b = StreamGenerator::new(cfg, &SeedTree::new(11)).take(500);
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_shifts_the_sampled_classes() {
        // Phase 1: only classes 0..4. Phase 2 (from frame 1000): only 4..8.
        let mut head = vec![0.0; 8];
        for w in head.iter_mut().take(4) {
            *w = 0.25;
        }
        let mut tail = vec![0.0; 8];
        for w in tail.iter_mut().skip(4) {
            *w = 0.25;
        }
        let cfg = StreamConfig::new(head, 5.0).with_schedule(vec![PopularityPhase {
            from_seq: 1000,
            class_weights: tail,
        }]);
        let frames = StreamGenerator::new(cfg, &SeedTree::new(12)).take(2000);
        for f in &frames[..1000] {
            assert!(f.class < 4, "frame {} class {}", f.seq, f.class);
        }
        // The boundary lands mid-run: the shift applies at the next run
        // start, so allow one trailing old-phase run.
        let first_new = frames[1000..]
            .iter()
            .position(|f| f.class >= 4)
            .expect("new phase classes appear");
        assert!(
            first_new < 64,
            "new phase did not take effect near the boundary"
        );
        for f in &frames[1000 + first_new..] {
            if f.run_pos == 0 || f.class >= 4 {
                assert!(f.class >= 4, "frame {} class {}", f.seq, f.class);
            }
        }
    }

    #[test]
    fn schedule_prefix_is_identical_to_unscheduled_stream() {
        // Frames strictly before the first phase boundary must be
        // byte-identical with and without the schedule: phase application
        // consumes no randomness.
        let base = uniform_weights(10);
        let plain = gen(base.clone(), 4.0, 13).take(300);
        let cfg = StreamConfig::new(base, 4.0).with_schedule(vec![PopularityPhase {
            from_seq: 300,
            class_weights: uniform_weights(10),
        }]);
        let scheduled = StreamGenerator::new(cfg, &SeedTree::new(13)).take(300);
        assert_eq!(plain, scheduled);
    }

    #[test]
    fn phase_zero_applies_from_the_first_frame() {
        let mut only7 = vec![0.0; 8];
        only7[7] = 1.0;
        let cfg = StreamConfig::new(uniform_weights(8), 4.0).with_schedule(vec![PopularityPhase {
            from_seq: 0,
            class_weights: only7,
        }]);
        let frames = StreamGenerator::new(cfg, &SeedTree::new(14)).take(100);
        assert!(frames.iter().all(|f| f.class == 7));
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn schedule_rejects_wrong_class_count() {
        let _ = StreamConfig::new(uniform_weights(8), 4.0).with_schedule(vec![PopularityPhase {
            from_seq: 0,
            class_weights: uniform_weights(5),
        }]);
    }
}
