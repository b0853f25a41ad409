//! Client↔server protocol messages (§IV.A workflow).
//!
//! Each message has two faces: [`Wire`] — the dense binary encoding
//! `cocad` frames, write-ahead-log records and snapshots carry; and
//! [`WireSize`] — the *logical* byte count the virtual-time link model
//! charges (the real encoding adds only counts and tags to it).

use coca_math::Precision;

use coca_net::wire::{decode_seq, encode_seq};
use coca_net::{FrameError, Reader, Wire, WireSize};

use crate::collect::UpdateTable;
use crate::semantic::LocalCache;

/// Step 1: the client asks for a personalized cache, attaching its status.
#[derive(Debug, Clone)]
pub struct CacheRequest {
    /// Requesting client.
    pub client_id: u64,
    /// Round counter (0-based).
    pub round: u64,
    /// τ — class timestamps (steps since last appearance).
    pub timestamps: Vec<u32>,
    /// R — the client's standalone per-layer hit-ratio estimates.
    pub hit_ratio: Vec<f64>,
    /// Π — the client's cache budget in bytes.
    pub budget_bytes: u64,
}

impl WireSize for CacheRequest {
    fn wire_bytes(&self) -> usize {
        8 + 8 + 4 * self.timestamps.len() + 8 * self.hit_ratio.len() + 8
    }
}

/// `[u64 client][u64 round][u32 n][n × u32 τ][u32 m][m × f64 R][u64 Π]`.
impl Wire for CacheRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client_id.encode(out);
        self.round.encode(out);
        self.timestamps.encode(out);
        self.hit_ratio.encode(out);
        self.budget_bytes.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            client_id: Wire::decode(r)?,
            round: Wire::decode(r)?,
            timestamps: Wire::decode(r)?,
            hit_ratio: Wire::decode(r)?,
            budget_bytes: Wire::decode(r)?,
        })
    }
}

/// Step 2: the server's personalized allocation.
#[derive(Debug, Clone)]
pub struct CacheAllocation {
    /// Round this allocation answers.
    pub round: u64,
    /// The extracted sub-table of the global cache.
    pub cache: LocalCache,
    /// Precision the entry payload ships at. The `cache` values are
    /// always f32 in memory (dequantized/renormalized on extraction when
    /// the global table is quantized); this field is what the link model
    /// prices.
    pub precision: Precision,
}

impl WireSize for CacheAllocation {
    fn wire_bytes(&self) -> usize {
        // Entries dominate; plus a small header per layer (point id + class
        // ids).
        let headers: usize = self
            .cache
            .layers()
            .iter()
            .map(|l| 8 + 4 * l.classes.len())
            .sum();
        8 + headers + self.cache.total_bytes_at(self.precision)
    }
}

/// `[u64 round][LocalCache][u8 precision]`. The rows ship as f32 at every
/// precision; `precision` travels as the tag the link model prices by.
impl Wire for CacheAllocation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.cache.encode(out);
        self.precision.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            round: Wire::decode(r)?,
            cache: Wire::decode(r)?,
            precision: Wire::decode(r)?,
        })
    }
}

/// Step 3: end-of-round upload for global updates.
#[derive(Debug, Clone)]
pub struct UpdateUpload {
    /// Uploading client.
    pub client_id: u64,
    /// Round the collection happened in.
    pub round: u64,
    /// U — the collected cache-update table (Eq. 3).
    pub table: UpdateTable,
    /// φ — per-round class frequencies (Eq. 5 input). In-memory `u64`
    /// like the rest of the Φ pipeline; a round's counts are bounded by
    /// `frames_per_round`, so the wire codec packs each as 4 bytes.
    pub frequency: Vec<u64>,
    /// Precision the table payload ships at. Under a quantized config
    /// the sender *snapped* every vector onto this precision's grid
    /// before upload (`UpdateTable::quantize_in_place`), so the f32
    /// values carried in `table` are exactly the dequantized codes.
    pub precision: Precision,
}

impl WireSize for UpdateUpload {
    fn wire_bytes(&self) -> usize {
        // φ entries ship as u32 on the wire (counts ≤ frames per round).
        8 + 8 + self.table.wire_bytes_at(self.precision) + 4 * self.frequency.len()
    }
}

/// `[u64 client][u64 round][UpdateTable][u32 n][n × u64 φ][u8 precision]`.
/// φ ships at its in-memory width: the link model's 4-byte pricing rests
/// on a bound (`frames_per_round`) the codec cannot assume of its input.
impl Wire for UpdateUpload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client_id.encode(out);
        self.round.encode(out);
        self.table.encode(out);
        self.frequency.encode(out);
        self.precision.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            client_id: Wire::decode(r)?,
            round: Wire::decode(r)?,
            table: Wire::decode(r)?,
            frequency: Wire::decode(r)?,
            precision: Wire::decode(r)?,
        })
    }
}

/// One origin's share of a peer-sync delta: the sender's current merged
/// centroids for the classes whose Φ mass (attributed to `origin`) grew
/// since the last sync with the receiving peer, plus exactly that Φ
/// growth. Keeping deltas origin-attributed lets the receiver extend its
/// own provenance counts and lets cursor-based dedup guarantee each
/// origin's mass reaches each cell exactly once.
#[derive(Debug, Clone)]
pub struct PeerDeltaEntry {
    /// Cell whose clients originally uploaded this Φ mass.
    pub origin: u32,
    /// The sender's current merged view of the affected classes.
    pub table: UpdateTable,
    /// Per-class Φ growth since the last delta sent to this peer.
    pub frequency: Vec<u64>,
}

/// `[u32 origin][UpdateTable][u32 n][n × u64 Φ growth]`.
impl Wire for PeerDeltaEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.origin.encode(out);
        self.table.encode(out);
        self.frequency.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            origin: Wire::decode(r)?,
            table: Wire::decode(r)?,
            frequency: Wire::decode(r)?,
        })
    }
}

/// A cell→cell table delta ([`crate::server::CocaServer::export_delta`] →
/// [`crate::server::CocaServer::absorb_peer`]). Priced by the same wire
/// encoding as client uploads, so the topology's peer link charges sync
/// traffic and upload traffic with one cost model.
#[derive(Debug, Clone)]
pub struct PeerDelta {
    /// Sending cell.
    pub from_cell: u32,
    /// Precision the tables ship at (the sender's configured precision;
    /// vectors are snapped onto its grid before export).
    pub precision: Precision,
    /// Per-origin shares, ascending by origin cell id.
    pub entries: Vec<PeerDeltaEntry>,
}

impl PeerDelta {
    /// True iff the delta carries no mass (nothing new since last sync).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `[u32 from_cell][u8 precision][u32 n][n × PeerDeltaEntry]`.
impl Wire for PeerDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from_cell.encode(out);
        self.precision.encode(out);
        encode_seq(&self.entries, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Self {
            from_cell: Wire::decode(r)?,
            precision: Wire::decode(r)?,
            // An empty entry is an origin and two zero counts.
            entries: decode_seq(r, 12)?,
        })
    }
}

impl WireSize for PeerDelta {
    fn wire_bytes(&self) -> usize {
        // 8 header (from_cell + precision tag); per entry: 8 (origin +
        // lengths) + the upload wire encoding of table and φ.
        8 + self
            .entries
            .iter()
            .map(|e| 8 + e.table.wire_bytes_at(self.precision) + 4 * e.frequency.len())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::CacheLayer;
    use coca_net::{decode_message, encode_frame};

    #[test]
    fn request_wire_size_scales_with_classes() {
        let small = CacheRequest {
            client_id: 1,
            round: 0,
            timestamps: vec![0; 10],
            hit_ratio: vec![0.1; 5],
            budget_bytes: 1,
        };
        let large = CacheRequest {
            client_id: 1,
            round: 0,
            timestamps: vec![0; 100],
            hit_ratio: vec![0.1; 34],
            budget_bytes: 1,
        };
        assert!(large.wire_bytes() > small.wire_bytes());
        assert_eq!(small.wire_bytes(), 8 + 8 + 40 + 40 + 8);
    }

    #[test]
    fn allocation_wire_size_tracks_entries() {
        let mut layer = CacheLayer::new(3);
        layer.insert(0, vec![1.0, 0.0, 0.0, 0.0]);
        layer.insert(1, vec![0.0, 1.0, 0.0, 0.0]);
        let alloc = CacheAllocation {
            round: 2,
            cache: LocalCache::from_layers(vec![layer]),
            precision: Precision::F32,
        };
        // 8 (round) + 8 (layer header) + 2 class ids + 2 entries × 16 B.
        assert_eq!(alloc.wire_bytes(), 8 + 8 + 8 + 32);
        // Quantized pricing shrinks the payload, not the headers.
        let half = CacheAllocation {
            precision: Precision::F16,
            ..alloc.clone()
        };
        assert_eq!(half.wire_bytes(), 8 + 8 + 8 + 16);
        let tiny = CacheAllocation {
            precision: Precision::I8,
            ..alloc
        };
        assert_eq!(tiny.wire_bytes(), 8 + 8 + 8 + 2 * (4 + 4));
    }

    #[test]
    fn messages_serialize_round_trip() {
        let up = UpdateUpload {
            client_id: 3,
            round: 1,
            table: UpdateTable::new(),
            frequency: vec![1, 2, 3],
            precision: Precision::F32,
        };
        let back: UpdateUpload = decode_message(&encode_frame(&up).unwrap()).unwrap();
        assert_eq!(back.client_id, 3);
        assert_eq!(back.frequency, vec![1, 2, 3]);
        assert_eq!(back.precision, Precision::F32);
        assert_eq!(up.wire_bytes(), (8 + 8) + 12);
    }

    #[test]
    fn quantized_upload_prices_the_smaller_payload() {
        let mut table = UpdateTable::new();
        for c in 0..4 {
            table.absorb(c, 2, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.95);
        }
        let f32_bytes = UpdateUpload {
            client_id: 1,
            round: 0,
            table: table.clone(),
            frequency: vec![0; 8],
            precision: Precision::F32,
        }
        .wire_bytes();
        let i8_bytes = UpdateUpload {
            client_id: 1,
            round: 0,
            table,
            frequency: vec![0; 8],
            precision: Precision::I8,
        }
        .wire_bytes();
        // Payload: 4 cells × (8 key + 32 f32) vs 4 × (8 key + 8 + 4).
        assert_eq!(f32_bytes, 16 + 4 * 40 + 32);
        assert_eq!(i8_bytes, 16 + 4 * 20 + 32);
    }
}
