//! The daemon's wire protocol: one enum per direction, carried in
//! `[u32 BE length][payload]` frames ([`coca_net::wire`]). A payload is
//! `[u8 version][u8 variant tag][variant body]`: the version is
//! [`WIRE_VERSION`], the tag is the variant's position in the enum
//! (the numbers below are the contract — append, never renumber), and
//! the body is the variant's field in its own [`Wire`] encoding
//! (nothing for unit variants). Any other version or tag is a decode
//! error. `{:?}` of a decoded message is the debug view.
//!
//! Every client message is acknowledged with exactly one server message,
//! and a connection's replies come back in request order (the daemon
//! pins each connection to one worker). That makes the protocol usable
//! both closed-loop (send, wait, repeat) and open-loop (fire on a
//! schedule, pair replies FIFO with send timestamps).

use coca_core::proto::{CacheAllocation, CacheRequest, PeerDelta, UpdateUpload};
use coca_net::wire::{codec_err, WIRE_VERSION};
use coca_net::{FrameError, Reader, Wire};

/// Client → daemon messages.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// Introduce yourself; answered with [`ServerMsg::Profile`] — the
    /// shared-dataset standalone hit-ratio profile a fresh client needs
    /// to fill `CacheRequest::hit_ratio` before it has local estimates.
    Hello,
    /// §IV.A step 1: request a personalized cache allocation.
    Request(CacheRequest),
    /// §IV.A step 3: end-of-round update upload.
    Upload(UpdateUpload),
    /// Force a drain of the pending-upload queue (a no-op when it is
    /// empty).
    Flush,
    /// Ask for the global table digest. Does **not** flush: queued,
    /// unmerged uploads are not part of the table — send [`Self::Flush`]
    /// first when comparing against a flushed reference.
    Digest,
    /// A no-op: the upload queue drains at every boundary, so there is no
    /// watermark to set. The daemon answers [`ServerMsg::WatermarkSet`]
    /// without taking the server lock. This variant keeps its tag only
    /// because `benchmark/` sends `SetWatermark(0)` as its serve-path
    /// floor probe.
    SetWatermark(usize),
    /// A peer cell's table delta (`cocad --peers` sync): merged through
    /// [`coca_core::CocaServer::absorb_peer`]. Answered with
    /// [`ServerMsg::PeerAck`].
    Peer(PeerDelta),
    /// Trigger one outbound peer-sync tick now: the daemon exports a
    /// delta to each configured peer and ships it over that peer's
    /// connection. Answered with [`ServerMsg::SyncDone`] carrying the
    /// number of non-empty deltas sent.
    SyncNow,
    /// Stop the daemon: acknowledged with [`ServerMsg::ShuttingDown`],
    /// then the whole process winds down (acceptor, connection threads).
    Shutdown,
}

/// Daemon → client replies, one per [`ClientMsg`].
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// Reply to [`ClientMsg::Hello`]: the base hit-ratio profile.
    Profile(Vec<f64>),
    /// Reply to [`ClientMsg::Request`].
    Alloc(CacheAllocation),
    /// Reply to [`ClientMsg::Upload`], carrying the pending-queue depth
    /// after this upload.
    UploadAck(usize),
    /// Reply to [`ClientMsg::Flush`].
    FlushDone,
    /// Reply to [`ClientMsg::Digest`].
    Digest(u64),
    /// Reply to [`ClientMsg::SetWatermark`], the no-op probe.
    WatermarkSet,
    /// Reply to [`ClientMsg::Peer`]: `true` once the delta has merged.
    PeerAck(bool),
    /// Reply to [`ClientMsg::SyncNow`]: non-empty deltas shipped.
    SyncDone(usize),
    /// Reply to [`ClientMsg::Shutdown`].
    ShuttingDown,
}

/// Opens a message payload: the version byte, then the variant tag.
fn put_header(out: &mut Vec<u8>, tag: u8) {
    out.push(WIRE_VERSION);
    out.push(tag);
}

/// Checks the version byte and returns the variant tag.
fn take_header(r: &mut Reader<'_>) -> Result<u8, FrameError> {
    match u8::decode(r)? {
        WIRE_VERSION => u8::decode(r),
        other => codec_err(format!(
            "protocol version {other}, this end speaks {WIRE_VERSION}"
        )),
    }
}

impl Wire for ClientMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::Hello => put_header(out, 0),
            Self::Request(req) => {
                put_header(out, 1);
                req.encode(out);
            }
            Self::Upload(up) => {
                put_header(out, 2);
                up.encode(out);
            }
            Self::Flush => put_header(out, 3),
            Self::Digest => put_header(out, 4),
            Self::SetWatermark(n) => {
                put_header(out, 5);
                n.encode(out);
            }
            Self::Peer(delta) => {
                put_header(out, 6);
                delta.encode(out);
            }
            Self::SyncNow => put_header(out, 7),
            Self::Shutdown => put_header(out, 8),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match take_header(r)? {
            0 => Self::Hello,
            1 => Self::Request(Wire::decode(r)?),
            2 => Self::Upload(Wire::decode(r)?),
            3 => Self::Flush,
            4 => Self::Digest,
            5 => Self::SetWatermark(Wire::decode(r)?),
            6 => Self::Peer(Wire::decode(r)?),
            7 => Self::SyncNow,
            8 => Self::Shutdown,
            tag => return codec_err(format!("unknown ClientMsg tag {tag}")),
        })
    }
}

impl Wire for ServerMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::Profile(p) => {
                put_header(out, 0);
                p.encode(out);
            }
            Self::Alloc(alloc) => {
                put_header(out, 1);
                alloc.encode(out);
            }
            Self::UploadAck(queued) => {
                put_header(out, 2);
                queued.encode(out);
            }
            Self::FlushDone => put_header(out, 3),
            Self::Digest(d) => {
                put_header(out, 4);
                d.encode(out);
            }
            Self::WatermarkSet => put_header(out, 5),
            Self::PeerAck(merged) => {
                put_header(out, 6);
                merged.encode(out);
            }
            Self::SyncDone(shipped) => {
                put_header(out, 7);
                shipped.encode(out);
            }
            Self::ShuttingDown => put_header(out, 8),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match take_header(r)? {
            0 => Self::Profile(Wire::decode(r)?),
            1 => Self::Alloc(Wire::decode(r)?),
            2 => Self::UploadAck(Wire::decode(r)?),
            3 => Self::FlushDone,
            4 => Self::Digest(Wire::decode(r)?),
            5 => Self::WatermarkSet,
            6 => Self::PeerAck(Wire::decode(r)?),
            7 => Self::SyncDone(Wire::decode(r)?),
            8 => Self::ShuttingDown,
            tag => return codec_err(format!("unknown ServerMsg tag {tag}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::collect::UpdateTable;
    use coca_core::proto::PeerDeltaEntry;
    use coca_core::semantic::{CacheLayer, LocalCache};
    use coca_math::Precision;
    use coca_net::{decode_message, encode_frame};

    fn table() -> UpdateTable {
        let mut t = UpdateTable::new();
        t.absorb(7, 5, &[1.0, 0.0], 0.95);
        t.absorb(2, 5, &[0.6, 0.8], 0.95);
        t.absorb(1, 9, &[0.0, 0.0, -1.0], 0.95);
        t
    }

    fn client_msgs() -> Vec<ClientMsg> {
        vec![
            ClientMsg::Hello,
            ClientMsg::Request(CacheRequest {
                client_id: 11,
                round: 2,
                timestamps: vec![4, 0, u32::MAX],
                hit_ratio: vec![0.25, -0.0, f64::INFINITY],
                budget_bytes: 96 * 1024,
            }),
            ClientMsg::Upload(UpdateUpload {
                client_id: 4,
                round: 1,
                table: table(),
                frequency: vec![3, 0, u64::MAX],
                precision: Precision::I8,
            }),
            ClientMsg::Flush,
            ClientMsg::Digest,
            ClientMsg::SetWatermark(12),
            ClientMsg::Peer(PeerDelta {
                from_cell: 3,
                precision: Precision::F16,
                entries: vec![PeerDeltaEntry {
                    origin: 1,
                    table: table(),
                    frequency: vec![9, 8],
                }],
            }),
            ClientMsg::SyncNow,
            ClientMsg::Shutdown,
        ]
    }

    fn server_msgs() -> Vec<ServerMsg> {
        let mut layer = CacheLayer::new(3);
        layer.insert(5, vec![0.0, 1.0]);
        layer.insert(0, vec![0.6, 0.8]);
        vec![
            ServerMsg::Profile(vec![0.5, 0.125]),
            ServerMsg::Alloc(CacheAllocation {
                round: 7,
                cache: LocalCache::from_layers(vec![CacheLayer::new(9), layer]),
                precision: Precision::F32,
            }),
            ServerMsg::UploadAck(usize::MAX),
            ServerMsg::FlushDone,
            ServerMsg::Digest(0xDEAD_BEEF),
            ServerMsg::WatermarkSet,
            ServerMsg::PeerAck(true),
            ServerMsg::SyncDone(2),
            ServerMsg::ShuttingDown,
        ]
    }

    #[test]
    fn protocol_messages_round_trip_through_the_frame_codec() {
        // Every variant, in tag order: the frame opens with the version
        // byte and the variant's tag, and comes back unchanged. (The
        // upload's layer-5 rows were absorbed as 7, 2 and travel as 2, 7 —
        // `{:?}` sees the reorder, so compare against the canonical form
        // a second trip yields.)
        for (tag, m) in client_msgs().iter().enumerate() {
            let frame = encode_frame(m).unwrap();
            assert_eq!(frame[4..6], [WIRE_VERSION, tag as u8], "{m:?}");
            let back: ClientMsg = decode_message(&frame).unwrap();
            let again: ClientMsg = decode_message(&encode_frame(&back).unwrap()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{again:?}"));
            if !matches!(m, ClientMsg::Upload(_) | ClientMsg::Peer(_)) {
                assert_eq!(format!("{m:?}"), format!("{back:?}"));
            }
        }
        for (tag, m) in server_msgs().iter().enumerate() {
            let frame = encode_frame(m).unwrap();
            assert_eq!(frame[4..6], [WIRE_VERSION, tag as u8], "{m:?}");
            let back: ServerMsg = decode_message(&frame).unwrap();
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
        match decode_message(&encode_frame(&client_msgs()[2]).unwrap()).unwrap() {
            ClientMsg::Upload(up) => {
                assert_eq!(up.table.layer_groups()[0].classes, [2, 7]);
                assert_eq!(up.table.get(7, 5).unwrap(), [1.0, 0.0]);
                assert_eq!(up.frequency, [3, 0, u64::MAX]);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn unknown_versions_and_tags_are_decode_errors() {
        let good = encode_frame(&ClientMsg::Flush).unwrap().to_vec();
        assert!(decode_message::<ClientMsg>(&good).is_ok());
        for (at, byte) in [(4, WIRE_VERSION + 1), (4, 0), (5, 9), (5, 0xFF)] {
            let mut bad = good.clone();
            bad[at] = byte;
            assert!(
                matches!(decode_message::<ClientMsg>(&bad), Err(FrameError::Codec(_))),
                "byte {at} = {byte}"
            );
            assert!(matches!(
                decode_message::<ServerMsg>(&bad),
                Err(FrameError::Codec(_))
            ));
        }
        // A unit variant has no body: one stray byte is an error.
        let mut long = good;
        long.push(0);
        long[3] += 1;
        assert!(matches!(
            decode_message::<ClientMsg>(&long),
            Err(FrameError::Codec(_))
        ));
    }
}
