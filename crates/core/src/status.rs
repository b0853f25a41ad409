//! Client status vectors τ and φ (paper §IV.C).
//!
//! * `τ_i` — "the number of inference processes since the last appearance
//!   of a sample of class i": reset to zero when class i is (predicted to
//!   be) observed, incremented otherwise.
//! * `φ_i` — occurrences of class i within the current round; cleared at
//!   round boundaries after upload.
//!
//! The client only knows its *predicted* labels, so both vectors track
//! predictions, not ground truth — exactly what a deployed system can do.

use coca_net::{FrameError, Reader, Wire};

/// Saturation cap for timestamps: far beyond any recency horizon the score
/// function can distinguish (0.2^(cap/F) underflows long before).
const TAU_CAP: u32 = 1_000_000;

/// The per-client status bookkeeping.
#[derive(Debug, Clone)]
pub struct ClientStatus {
    /// τ — steps since each class last appeared.
    timestamps: Vec<u32>,
    /// φ — per-round class occurrence counts. Carried as `u64` so the
    /// whole Φ pipeline (collect → wire → global Eq. 5) shares one
    /// integer type end to end; a round's counts stay far below `u32`
    /// range, which is what the wire codec packs them as.
    frequency: Vec<u64>,
}

/// `[u32 n][n × u32 τ][u32 m][m × u64 φ]` — the snapshot's registry
/// entry. Both lengths are checked against the table's class count by the
/// snapshot validator, not here: a status on its own has no table.
impl Wire for ClientStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        self.timestamps.encode(out);
        self.frequency.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            timestamps: Wire::decode(r)?,
            frequency: Wire::decode(r)?,
        })
    }
}

impl ClientStatus {
    /// Fresh status for `num_classes` classes. All timestamps start at the
    /// cap ("never seen"), so unseen classes score minimally in ACA.
    pub fn new(num_classes: usize) -> Self {
        Self {
            timestamps: vec![TAU_CAP; num_classes],
            frequency: vec![0; num_classes],
        }
    }

    /// Overwrites τ with a client-reported vector — the server-side
    /// mirror kept for durability snapshots. A length-mismatched report
    /// copies the overlapping prefix, the same truncating `zip`
    /// discipline the merge pipeline applies to ragged inputs.
    pub fn record_timestamps(&mut self, tau: &[u32]) {
        for (dst, &src) in self.timestamps.iter_mut().zip(tau) {
            *dst = src;
        }
    }

    /// Overwrites φ with a client-reported vector (server-side mirror;
    /// see [`ClientStatus::record_timestamps`]).
    pub fn record_frequency(&mut self, phi: &[u64]) {
        for (dst, &src) in self.frequency.iter_mut().zip(phi) {
            *dst = src;
        }
    }

    /// Records one inference whose (predicted) class is `class`.
    pub fn observe(&mut self, class: usize) {
        for (i, t) in self.timestamps.iter_mut().enumerate() {
            if i == class {
                *t = 0;
            } else if *t < TAU_CAP {
                *t += 1;
            }
        }
        self.frequency[class] += 1;
    }

    /// τ snapshot (uploaded with cache requests).
    pub fn timestamps(&self) -> &[u32] {
        &self.timestamps
    }

    /// φ snapshot (uploaded for global updates).
    pub fn frequency(&self) -> &[u64] {
        &self.frequency
    }

    /// Clears φ for the next round; τ persists across rounds.
    pub fn reset_round(&mut self) {
        self.frequency.iter_mut().for_each(|f| *f = 0);
    }

    /// Number of classes tracked.
    pub fn num_classes(&self) -> usize {
        self.timestamps.len()
    }

    /// Total observations this round.
    pub fn round_total(&self) -> u64 {
        self.frequency.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_resets_and_increments() {
        let mut s = ClientStatus::new(3);
        s.observe(1);
        assert_eq!(s.timestamps()[1], 0);
        assert_eq!(s.timestamps()[0], TAU_CAP); // still never seen
        s.observe(2);
        s.observe(2);
        assert_eq!(s.timestamps()[1], 2);
        assert_eq!(s.timestamps()[2], 0);
        assert_eq!(s.frequency(), &[0, 1, 2]);
        assert_eq!(s.round_total(), 3);
    }

    #[test]
    fn reset_round_keeps_timestamps() {
        let mut s = ClientStatus::new(2);
        s.observe(0);
        s.observe(1);
        s.reset_round();
        assert_eq!(s.frequency(), &[0, 0]);
        assert_eq!(s.timestamps()[0], 1);
        assert_eq!(s.timestamps()[1], 0);
    }

    #[test]
    fn timestamps_saturate() {
        let mut s = ClientStatus::new(2);
        s.observe(0); // τ_0 = 0, τ_1 stays at cap
        for _ in 0..10 {
            s.observe(0);
        }
        assert_eq!(s.timestamps()[1], TAU_CAP);
        assert_eq!(s.timestamps()[0], 0);
    }
}
