//! Durability for the CoCa server: checksummed snapshots + a write-ahead
//! log, with deterministic crash-point fault injection.
//!
//! The server is the single point holding everything the fleet built
//! together — the global cache table, the Φ pipeline, the pending upload
//! queue — so a crash without persistence silently discards
//! every client's contribution. This module gives [`crate::server::CocaServer`]
//! a WAL-before-mutation discipline:
//!
//! * Every state-mutating server event (request, upload, leave, flush) is
//!   appended to the WAL **before** the
//!   mutation applies, as one CRC-framed binary record — one `write(2)`
//!   per event.
//! * Every `wal_rotate_records` appends the log rotates: the current
//!   snapshot+WAL generation is *renamed* into the previous generation and
//!   a fresh checksummed snapshot of the full server state opens the next
//!   one.
//! * Recovery loads the newest valid snapshot (falling back one generation
//!   when the current snapshot is corrupt), replays the WAL tail through
//!   the same merge kernels the live server runs, and truncates a torn
//!   final record via its per-record CRC. Replay is bit-identical: a
//!   recovered run produces the same `frame_digest` and record bytes as
//!   the uninterrupted run (property-tested in `tests/proptest_recovery.rs`).
//!
//! ## On-disk format
//!
//! Both snapshots and WAL segments are sequences of frames:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! Payloads use the [`Wire`] encoding the socket frames use
//! (`coca_net::wire`: little-endian, fixed-width, a `u32` count before
//! every sequence, `usize` as `u64`). A WAL segment is zero or more
//! frames, one [`WalRecord`] each:
//!
//! ```text
//! [u8 tag][body]
//!   0 Request    CacheRequest
//!   2 Upload     UpdateUpload
//!   4 Leave      —
//!   5 Flush      —
//! ```
//!
//! Tags 1 and 3 (two retired upload entry points) and 6 (the retired
//! flush-watermark record) are never reused: a log holding one is refused.
//!
//! A snapshot is exactly one frame holding a [`Snapshot`]:
//!
//! ```text
//! [u8 version = 4]
//! [CocaConfig]                              85 bytes, fields in order
//! [GlobalCacheTable]                        precision, Φ, per-layer
//!                                           occupancy words + stores
//! [u32 n][n × ([u64 client id][ClientStatus])]   ascending by id
//! [u32 m][m × UpdateUpload]                 the pending queue, FIFO
//! [u8 0|1][AcaOutput]                       the static allocation
//! ```
//!
//! Each type documents its own layout beside its `Wire` impl. Decoding
//! checks every count against the bytes left in the frame before
//! allocating, rejects trailing bytes, and validates every cross-field
//! invariant ([`Snapshot::validate`]); the encoding is canonical, so
//! re-encoding a decoded snapshot or record reproduces its bytes exactly.
//! There is one format: a store written by an older build — one that
//! framed JSON payloads (version 1), one whose config still carried the
//! merge-mode and parallel-merge bytes (version 2), or one that carried
//! the flush-policy byte and the flush watermark (version 3) — fails the
//! version / tag byte and is refused with [`PersistError::Decode`], not
//! migrated.
//!
//! ## Torn writes and corruption
//!
//! Only the **final** record of the **current** WAL segment may be torn
//! (a crash mid-append); it fails its length or CRC check and is
//! truncated. A CRC failure anywhere else — a rotated segment, or a
//! snapshot — is data corruption, not a torn write: a corrupt *current*
//! snapshot falls back to the previous generation (previous snapshot +
//! previous WAL + current WAL), while a corrupt rotated WAL segment or a
//! doubly-corrupt snapshot pair is unrecoverable and reported as a typed
//! error, never a panic. A rotation is four storage operations and is not
//! itself a crash point of the fault model: [`CrashPlan`] faults fire at
//! append boundaries.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;

use coca_net::wire::{decode_seq, encode_seq, put_u32};
use coca_net::{FrameError, Reader, Wire};

use crate::aca::AcaOutput;
use crate::config::CocaConfig;
use crate::global::GlobalCacheTable;
use crate::proto::{CacheRequest, UpdateUpload};
use crate::status::ClientStatus;

/// Snapshot payload version byte (bumped on incompatible changes;
/// version 1 was the JSON payload, version 2 the 88-byte config, version 3
/// the 86-byte config and the flush watermark).
const SNAPSHOT_VERSION: u8 = 4;

/// Storage key of the current-generation snapshot.
pub const SNAP_CUR: &str = "snap.cur";
/// Storage key of the previous-generation snapshot.
pub const SNAP_PREV: &str = "snap.prev";
/// Storage key of the current WAL segment.
pub const WAL_CUR: &str = "wal.cur";
/// Storage key of the rotated (previous-generation) WAL segment.
pub const WAL_PREV: &str = "wal.prev";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8 — vendored shims
// carry no checksum crate. Eight table lookups fold eight input bytes per
// step; byte-at-a-time would be the largest stage of a 43 KB append.
// ---------------------------------------------------------------------------

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // Table k advances table k-1 by one more zero byte.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Replaces `out` with one frame whose payload is whatever `body` appends:
/// the header is reserved first and patched once the payload is in place,
/// so the payload is written exactly once, into its final position.
fn frame_with(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let len = u32::try_from(out.len() - 8).expect("frame payload exceeds u32");
    let crc = crc32(&out[8..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Frames `payload` as `[u32 len][u32 crc][payload]` (little-endian).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    frame_with(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Typed persistence/recovery errors. Corrupt or truncated bytes land
/// here — never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Neither the current nor the previous snapshot passed its CRC and
    /// schema validation (and at least one generation existed, so this is
    /// not a fresh store).
    NoValidSnapshot,
    /// A rotated (closed) WAL segment failed a length or CRC check. Only
    /// the final record of the *current* segment may legally be torn.
    CorruptClosedSegment(String),
    /// A CRC-valid frame carried a payload that failed to decode or
    /// validate — data corruption inside a committed record, or a store
    /// written in another format version.
    Decode(String),
    /// The snapshot was written under a different [`CocaConfig`] than the
    /// one the recovering server was constructed with.
    ConfigMismatch,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::NoValidSnapshot => {
                write!(f, "no snapshot generation passed CRC + schema validation")
            }
            PersistError::CorruptClosedSegment(msg) => {
                write!(f, "corrupt record in a rotated WAL segment: {msg}")
            }
            PersistError::Decode(msg) => write!(f, "committed record failed to decode: {msg}"),
            PersistError::ConfigMismatch => {
                write!(f, "snapshot was written under a different CocaConfig")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<FrameError> for PersistError {
    fn from(e: FrameError) -> Self {
        PersistError::Decode(e.to_string())
    }
}

/// Decodes a frame sequence into payload slices borrowed from `bytes`.
///
/// `lenient_tail` is the torn-write policy: when set (the *current* WAL
/// segment), an incomplete or CRC-failing **final** frame is truncated and
/// its byte count reported; frames before a valid successor must always
/// check out. When unset (snapshots, rotated segments), any invalid frame
/// is an error.
///
/// Returns `(payloads, committed_bytes, truncated_bytes)`.
pub fn decode_frames(
    bytes: &[u8],
    lenient_tail: bool,
) -> Result<(Vec<&[u8]>, usize, usize), PersistError> {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        // A frame that fails any of the three checks below is the torn
        // tail in lenient mode (truncate and stop) and corruption in
        // strict mode. Lenient decoding cannot distinguish mid-file
        // corruption from a torn write without reading ahead, but a torn
        // record can only ever be last — which is why only the current
        // segment decodes leniently.
        let invalid = if bytes.len() - pos < 8 {
            Some(format!("short header at byte {pos}"))
        } else {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if bytes.len() - pos - 8 < len {
                Some(format!("short payload at byte {pos}"))
            } else if crc32(&bytes[pos + 8..pos + 8 + len]) != crc {
                Some(format!("CRC mismatch at byte {pos}"))
            } else {
                payloads.push(&bytes[pos + 8..pos + 8 + len]);
                pos += 8 + len;
                None
            }
        };
        if let Some(msg) = invalid {
            if lenient_tail {
                return Ok((payloads, pos, bytes.len() - pos));
            }
            return Err(PersistError::CorruptClosedSegment(msg));
        }
    }
    Ok((payloads, pos, 0))
}

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// Key→bytes storage the durability layer writes through. Implementations
/// must make `append` cheap (it runs per server event). `Send + Sync` so
/// detached backends can sit in shared test fixtures.
pub trait Storage: Send + Sync {
    /// Full contents under `key`, or `None` when absent.
    fn load(&self, key: &str) -> Option<Vec<u8>>;
    /// Replaces the contents under `key`.
    fn save(&mut self, key: &str, bytes: &[u8]);
    /// Appends to the contents under `key` (creating it when absent).
    fn append(&mut self, key: &str, bytes: &[u8]);
    /// Removes `key` (no-op when absent).
    fn remove(&mut self, key: &str);
    /// Moves the contents under `from` to `to`, replacing what `to` held;
    /// an absent `from` leaves `to` absent too. Provided as
    /// load + save + remove; backends that can move without copying
    /// ([`DirStorage`]) override it — rotation renames a whole WAL
    /// segment through here.
    fn rename(&mut self, from: &str, to: &str) {
        match self.load(from) {
            Some(bytes) => {
                self.save(to, &bytes);
                self.remove(from);
            }
            None => self.remove(to),
        }
    }
    /// Requests that every write reach stable media before returning
    /// (fsync-per-append). Provided as a no-op: only backends with a
    /// volatile write path ([`DirStorage`]) have anything to sync, and
    /// most callers — the daemon included — keep the **default off**:
    /// the recovery contract tested throughout this crate is about
    /// *process* crashes (the page cache survives those), and
    /// fsync-per-WAL-append would dominate every benchmark. Set env
    /// `COCA_FSYNC=1` (or call this) when surviving power loss matters
    /// more than append latency.
    fn set_fsync(&mut self, _enabled: bool) {}
}

/// In-memory storage: the test and fault-injection backend. Extra helpers
/// corrupt or truncate stored bytes deterministically.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    map: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// XORs `0xFF` into byte `index % len` under `key` (fault injection).
    /// No-op on an absent or empty key.
    pub fn corrupt_byte(&mut self, key: &str, index: usize) {
        if let Some(bytes) = self.map.get_mut(key) {
            if !bytes.is_empty() {
                let i = index % bytes.len();
                bytes[i] ^= 0xFF;
            }
        }
    }

    /// Truncates the contents under `key` to `len` bytes (torn-write
    /// injection). No-op on an absent key.
    pub fn truncate(&mut self, key: &str, len: usize) {
        if let Some(bytes) = self.map.get_mut(key) {
            bytes.truncate(len);
        }
    }

    /// Bytes stored under `key` (test inspection).
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }
}

impl Storage for MemStorage {
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        self.map.get(key).cloned()
    }

    fn save(&mut self, key: &str, bytes: &[u8]) {
        self.map.insert(key.to_string(), bytes.to_vec());
    }

    fn append(&mut self, key: &str, bytes: &[u8]) {
        self.map
            .entry(key.to_string())
            .or_default()
            .extend_from_slice(bytes);
    }

    fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }
}

/// Directory-backed storage: one file per key. The deployment backend of
/// the daemon and the TCP example. The file last appended to stays open,
/// so per-event cost is one `write(2)` — no `open`/`close` around it.
///
/// By default writes land in the page cache only — crash-safe against
/// *process* death (the kernel still flushes), not power loss, and fast
/// enough to WAL-log every daemon event. Env `COCA_FSYNC=1`/`true` (read
/// at [`DirStorage::open`]) or [`Storage::set_fsync`] upgrades every
/// save/append to `fdatasync` before returning.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
    fsync: bool,
    /// The key last appended to and its open append handle. Dropped
    /// whenever that key is saved, removed or renamed (either side): the
    /// descriptor would keep following the old inode.
    tail: Option<(String, File)>,
}

impl DirStorage {
    /// Opens (creating if needed) `dir` as a durability directory. The
    /// fsync discipline defaults from env `COCA_FSYNC` (off when unset).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let fsync = std::env::var("COCA_FSYNC")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        Ok(Self {
            dir,
            fsync,
            tail: None,
        })
    }

    /// Whether save/append sync to stable media before returning.
    pub fn fsync(&self) -> bool {
        self.fsync
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(key)
    }

    /// Closes the append handle if it belongs to `key`.
    fn forget(&mut self, key: &str) {
        if self.tail.as_ref().is_some_and(|(k, _)| k == key) {
            self.tail = None;
        }
    }
}

impl Storage for DirStorage {
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(key)).ok()
    }

    fn save(&mut self, key: &str, bytes: &[u8]) {
        self.forget(key);
        if self.fsync {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(self.path(key))
                .expect("durability dir must stay writable");
            f.write_all(bytes)
                .and_then(|()| f.sync_data())
                .expect("durability dir must stay writable");
        } else {
            std::fs::write(self.path(key), bytes).expect("durability dir must stay writable");
        }
    }

    fn append(&mut self, key: &str, bytes: &[u8]) {
        if self.tail.as_ref().is_none_or(|(k, _)| k != key) {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(key))
                .expect("durability dir must stay writable");
            self.tail = Some((key.to_string(), f));
        }
        let (_, f) = self.tail.as_mut().expect("append handle opened above");
        f.write_all(bytes)
            .expect("durability dir must stay writable");
        if self.fsync {
            f.sync_data().expect("durability dir must stay writable");
        }
    }

    fn remove(&mut self, key: &str) {
        self.forget(key);
        let _ = std::fs::remove_file(self.path(key));
    }

    fn rename(&mut self, from: &str, to: &str) {
        self.forget(from);
        self.forget(to);
        match std::fs::rename(self.path(from), self.path(to)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => self.remove(to),
            Err(e) => panic!("durability dir must stay writable: {e}"),
        }
    }

    fn set_fsync(&mut self, enabled: bool) {
        self.fsync = enabled;
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Full mutable server state at one event boundary: everything replay
/// needs that [`crate::server::CocaServer::new`] does not reconstruct from
/// `(rt, cfg, seeds)`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The configuration the snapshot was written under — recovery under
    /// a different config is refused ([`PersistError::ConfigMismatch`]).
    pub config: CocaConfig,
    /// The global cache table (all `LayerSlot` precisions) + Φ.
    pub global: GlobalCacheTable,
    /// Server-side mirror of the last τ/φ each client reported, sorted by
    /// client id.
    pub clients: Vec<(u64, ClientStatus)>,
    /// The pending upload queue, FIFO order.
    pub pending: Vec<UpdateUpload>,
    /// The lazily computed static allocation (DCA-off runs), if any.
    pub static_alloc: Option<AcaOutput>,
}

/// Encodes the single-frame snapshot of the given state, every part by
/// reference — the live server snapshots itself through here without
/// cloning its table; [`Snapshot::to_bytes`] is the same call on owned
/// parts. `clients` must iterate ascending by id.
pub(crate) fn snapshot_frame<'a>(
    config: &CocaConfig,
    global: &GlobalCacheTable,
    clients: impl ExactSizeIterator<Item = (u64, &'a ClientStatus)>,
    pending: &[UpdateUpload],
    static_alloc: &Option<AcaOutput>,
) -> Vec<u8> {
    let mut out = Vec::new();
    frame_with(&mut out, |out| {
        out.push(SNAPSHOT_VERSION);
        config.encode(out);
        global.encode(out);
        put_u32(out, clients.len());
        for (id, status) in clients {
            id.encode(out);
            status.encode(out);
        }
        encode_seq(pending, out);
        static_alloc.encode(out);
    });
    out
}

impl Snapshot {
    /// Serializes to the single-frame byte form stored under a snapshot
    /// key.
    pub fn to_bytes(&self) -> Vec<u8> {
        snapshot_frame(
            &self.config,
            &self.global,
            self.clients.iter().map(|(id, st)| (*id, st)),
            &self.pending,
            &self.static_alloc,
        )
    }

    /// Parses the single-frame byte form, validating frame CRC, payload
    /// encoding and every invariant of [`Snapshot::validate`]. Exactly
    /// one frame must be present, and it must hold nothing but the
    /// snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let (payloads, _, _) = decode_frames(bytes, false)?;
        let [payload] = payloads.as_slice() else {
            return Err(PersistError::Decode(format!(
                "snapshot must be exactly one frame, got {}",
                payloads.len()
            )));
        };
        let mut r = Reader::new(payload);
        let version = u8::decode(&mut r)?;
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::Decode(format!(
                "Snapshot: unsupported version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        let snap = Self {
            config: Wire::decode(&mut r)?,
            global: Wire::decode(&mut r)?,
            clients: {
                // An empty status is its two counts.
                let n = r.count(16)?;
                (0..n)
                    .map(|_| Ok((u64::decode(&mut r)?, ClientStatus::decode(&mut r)?)))
                    .collect::<Result<_, FrameError>>()?
            },
            // An empty upload: two ids, two counts, the precision tag.
            pending: decode_seq(&mut r, 25)?,
            static_alloc: Wire::decode(&mut r)?,
        };
        r.finish()?;
        snap.validate().map_err(PersistError::Decode)?;
        Ok(snap)
    }

    /// The cross-field invariants a decoded snapshot must hold before a
    /// server adopts it (the table's own shape is checked as it decodes):
    /// a strictly id-sorted client registry shaped like the table, pending
    /// uploads the table can merge, a static allocation inside it.
    pub fn validate(&self) -> Result<(), String> {
        let classes = self.global.num_classes();
        let layers = self.global.num_layers();
        // Client registry: strictly id-sorted (the canonical byte form),
        // every status shaped like the table it mirrors.
        if let Some(w) = self.clients.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(format!(
                "Snapshot: client registry not strictly id-sorted at {}",
                w[1].0
            ));
        }
        for (id, st) in &self.clients {
            if st.timestamps().len() != classes || st.frequency().len() != classes {
                return Err(format!(
                    "Snapshot: client {id} status tracks {}/{} classes in a {classes}-class table",
                    st.timestamps().len(),
                    st.frequency().len()
                ));
            }
        }
        // Pending uploads must be mergeable into this table: φ length,
        // layer indices and per-layer entry dimensions all have to line
        // up.
        for (i, up) in self.pending.iter().enumerate() {
            if up.frequency.len() != classes {
                return Err(format!(
                    "Snapshot: pending upload {i} carries {} φ entries for {classes} classes",
                    up.frequency.len()
                ));
            }
            for g in up.table.layer_groups() {
                let layer = g.layer as usize;
                if layer >= layers {
                    return Err(format!(
                        "Snapshot: pending upload {i} touches layer {layer} of a {layers}-layer table"
                    ));
                }
                if let Some(d) = self.global.layer_dim(layer) {
                    if g.vectors.dim() != d {
                        return Err(format!(
                            "Snapshot: pending upload {i} layer {layer} dim {} vs table dim {d}",
                            g.vectors.dim()
                        ));
                    }
                }
                if let Some(&c) = g.classes.iter().find(|&&c| c as usize >= classes) {
                    return Err(format!(
                        "Snapshot: pending upload {i} layer {layer} touches class {c} of {classes}"
                    ));
                }
            }
        }
        if let Some(alloc) = &self.static_alloc {
            if alloc.hot_classes.iter().any(|&c| c >= classes)
                || alloc.layers.iter().any(|&j| j >= layers)
            {
                return Err("Snapshot: static allocation indexes outside the table".to_string());
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// One logged server event. Each variant carries exactly the input of the
/// public handler it mirrors, so replay drives the same code path — same
/// fused kernels, bit-identical state.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// `handle_request`: flush boundary, lazy static allocation, τ
    /// registry update.
    Request(CacheRequest),
    /// `handle_upload`: the upload entry point (enqueue).
    Upload(UpdateUpload),
    /// `on_client_leave`: flush + Φ decay.
    Leave,
    /// An explicit `flush_pending` call (run end, handover, peer sync).
    Flush,
}

/// A [`WalRecord`] by reference: what the server's log sites hand the
/// encoder, so logging an event never clones the event. The tag bytes
/// are shared with [`WalRecord::from_payload`]; 1 and 3 belonged to two
/// upload entry points and 6 to the flush watermark, none of which exist
/// any more. They are never reused, so a log that holds one is refused
/// rather than misread.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WalRef<'a> {
    Request(&'a CacheRequest),
    Upload(&'a UpdateUpload),
    Leave,
    Flush,
}

impl WalRef<'_> {
    /// Replaces `out` with this record's frame.
    pub(crate) fn frame_into(self, out: &mut Vec<u8>) {
        frame_with(out, |out| match self {
            WalRef::Request(req) => {
                out.push(0);
                req.encode(out);
            }
            WalRef::Upload(up) => {
                out.push(2);
                up.encode(out);
            }
            WalRef::Leave => out.push(4),
            WalRef::Flush => out.push(5),
        });
    }
}

impl WalRecord {
    fn as_ref(&self) -> WalRef<'_> {
        match self {
            WalRecord::Request(req) => WalRef::Request(req),
            WalRecord::Upload(up) => WalRef::Upload(up),
            WalRecord::Leave => WalRef::Leave,
            WalRecord::Flush => WalRef::Flush,
        }
    }

    /// Serializes to the framed byte form appended to a WAL segment.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.as_ref().frame_into(&mut out);
        out
    }

    /// Decodes one frame payload ([`decode_frames`] yields them), which
    /// must hold exactly one record.
    pub fn from_payload(payload: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(payload);
        let rec = match u8::decode(&mut r)? {
            0 => WalRecord::Request(Wire::decode(&mut r)?),
            2 => WalRecord::Upload(Wire::decode(&mut r)?),
            4 => WalRecord::Leave,
            5 => WalRecord::Flush,
            tag => {
                return Err(PersistError::Decode(format!(
                    "unknown WAL record tag {tag}"
                )))
            }
        };
        r.finish()?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// Crash-point injection
// ---------------------------------------------------------------------------

/// What the injected crash does to storage at the chosen event boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashFault {
    /// The process dies between events: the WAL ends cleanly after the
    /// previous record.
    Clean,
    /// The process dies mid-append: the first `keep % frame_len` bytes of
    /// the interrupted record reach storage (always a strict prefix, so
    /// the length/CRC check rejects it).
    Torn {
        /// Pre-modulo count of frame bytes that reach storage.
        keep: usize,
    },
    /// The crash (or the medium) additionally flips one byte of the
    /// *current* snapshot, forcing recovery onto the previous generation.
    SnapCorrupt {
        /// Pre-modulo index of the flipped byte.
        byte: usize,
    },
}

/// A deterministic crash plan: die at the boundary of server event
/// `at_event` (0-based WAL append index) with the given fault. The event
/// itself has not mutated state yet — recovery replays events
/// `0..at_event`, after which the interrupted event is redelivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// 0-based index of the WAL append the crash interrupts.
    pub at_event: u64,
    /// Storage damage done at the crash point.
    pub fault: CrashFault,
}

impl CrashPlan {
    /// Reads `COCA_CRASH_AT` (event index) + `COCA_CRASH_FAULT`
    /// (`clean` / `torn:<keep>` / `snap:<byte>`; default `clean`) — the
    /// env-driven injection path for whole-binary crash experiments.
    /// Unset or unparsable `COCA_CRASH_AT` means no plan.
    pub fn from_env() -> Option<Self> {
        let at_event: u64 = std::env::var("COCA_CRASH_AT").ok()?.parse().ok()?;
        let fault = match std::env::var("COCA_CRASH_FAULT").ok().as_deref() {
            Some(spec) if spec.starts_with("torn:") => CrashFault::Torn {
                keep: spec["torn:".len()..].parse().unwrap_or(0),
            },
            Some(spec) if spec.starts_with("snap:") => CrashFault::SnapCorrupt {
                byte: spec["snap:".len()..].parse().unwrap_or(0),
            },
            _ => CrashFault::Clean,
        };
        Some(Self { at_event, fault })
    }
}

/// Where recovery found its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotSource {
    /// The current-generation snapshot was valid.
    Current,
    /// The current snapshot was corrupt or absent; the previous
    /// generation (snapshot + rotated WAL) was replayed first.
    Previous,
    /// No snapshot was ever written: replay starts from the freshly
    /// constructed (genesis) server state.
    Genesis,
}

/// What a recovery did — surfaced for tests, experiments and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Which snapshot generation seeded the replay.
    pub source: SnapshotSource,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Bytes of torn final record truncated from the current segment.
    pub truncated_bytes: usize,
}

// ---------------------------------------------------------------------------
// Durability: the rotation + recovery state machine
// ---------------------------------------------------------------------------

/// Owns a [`Storage`] backend and runs the snapshot/WAL state machine for
/// one server: append, rotate, checkpoint, crash-fire, load-for-recovery.
/// Attached to a server via
/// [`CocaServer::attach_durability`](crate::server::CocaServer::attach_durability).
pub struct Durability {
    store: Box<dyn Storage>,
    /// WAL records per generation before a rotation snapshots the state.
    rotate_every: usize,
    /// Records appended to the current segment since the last rotation or
    /// checkpoint.
    records_in_cur: usize,
    /// Total records appended over the attachment's lifetime — the crash
    /// plan's event-index space.
    events: u64,
    crash: Option<CrashPlan>,
    /// The frame of the record being logged, reused across appends so a
    /// steady-state append allocates nothing (the server encodes each
    /// event into it by reference, see [`WalRef::frame_into`]).
    pub(crate) frame: Vec<u8>,
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Durability")
            .field("rotate_every", &self.rotate_every)
            .field("records_in_cur", &self.records_in_cur)
            .field("events", &self.events)
            .field("crash", &self.crash)
            .finish_non_exhaustive()
    }
}

impl Durability {
    /// Wraps `store`, rotating the WAL into a snapshot every
    /// `rotate_every` records (clamped to ≥ 1).
    pub fn new(store: Box<dyn Storage>, rotate_every: usize) -> Self {
        Self {
            store,
            rotate_every: rotate_every.max(1),
            records_in_cur: 0,
            events: 0,
            crash: None,
            frame: Vec::new(),
        }
    }

    /// Installs a crash plan (builder form).
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }

    /// Total WAL records appended so far — the crash plan's event space.
    pub fn events_logged(&self) -> u64 {
        self.events
    }

    /// True while an installed crash plan has not fired yet (tests assert
    /// their injected crash actually happened).
    pub fn crash_pending(&self) -> bool {
        self.crash.is_some()
    }

    /// The backend (test inspection).
    pub fn storage(&self) -> &dyn Storage {
        self.store.as_ref()
    }

    /// Mutable backend access (test fault injection).
    pub fn storage_mut(&mut self) -> &mut dyn Storage {
        self.store.as_mut()
    }

    /// Unwraps the backend.
    pub fn into_storage(self) -> Box<dyn Storage> {
        self.store
    }

    /// Writes the genesis snapshot on first attachment: both generations
    /// start as the attach-time state, so even a corrupt *first* current
    /// snapshot has a previous generation to fall back to. No-op when a
    /// current snapshot already exists (re-attachment after recovery).
    pub fn ensure_genesis(&mut self, snapshot_frame: &[u8]) {
        if self.store.load(SNAP_CUR).is_none() {
            self.store.save(SNAP_CUR, snapshot_frame);
            self.store.save(SNAP_PREV, snapshot_frame);
            self.store.save(WAL_CUR, &[]);
        }
    }

    /// True when the installed crash plan fires at the *next* append.
    pub fn crash_due(&self) -> bool {
        self.crash.is_some_and(|p| p.at_event == self.events)
    }

    /// Applies the due crash's storage damage (consuming the plan):
    /// tears a prefix of `frame` into the current segment and/or corrupts
    /// the current snapshot. The interrupted event's mutation has not
    /// happened yet — the caller recovers and then redelivers it.
    pub fn fire_crash(&mut self, frame: &[u8]) {
        let plan = self.crash.take().expect("fire_crash requires a due plan");
        match plan.fault {
            CrashFault::Clean => {}
            CrashFault::Torn { keep } => {
                // Any strict prefix fails the length or CRC check; an
                // empty prefix degenerates to a clean crash.
                let kept = keep % frame.len();
                self.store.append(WAL_CUR, &frame[..kept]);
            }
            CrashFault::SnapCorrupt { byte } => {
                if let Some(mut snap) = self.store.load(SNAP_CUR) {
                    if !snap.is_empty() {
                        let i = byte % snap.len();
                        snap[i] ^= 0xFF;
                        self.store.save(SNAP_CUR, &snap);
                    }
                }
            }
        }
    }

    /// True when the current segment is full and the next append must be
    /// preceded by a rotation.
    pub fn needs_rotation(&self) -> bool {
        self.records_in_cur >= self.rotate_every
    }

    /// Rotates generations: the current snapshot+WAL are renamed into the
    /// previous generation — no segment is read back or rewritten — and
    /// `snapshot_frame` (the state *before* the next record's mutation)
    /// opens a fresh one.
    pub fn rotate(&mut self, snapshot_frame: &[u8]) {
        self.store.rename(SNAP_CUR, SNAP_PREV);
        self.store.rename(WAL_CUR, WAL_PREV);
        self.store.save(WAL_CUR, &[]);
        self.store.save(SNAP_CUR, snapshot_frame);
        self.records_in_cur = 0;
    }

    /// Collapses both generations onto `snapshot_frame` and empties both
    /// WAL segments — the post-recovery fold (replayed records are inside
    /// the new snapshot) and the explicit-checkpoint operation.
    pub fn checkpoint(&mut self, snapshot_frame: &[u8]) {
        self.store.save(SNAP_CUR, snapshot_frame);
        self.store.save(SNAP_PREV, snapshot_frame);
        self.store.save(WAL_CUR, &[]);
        self.store.remove(WAL_PREV);
        self.records_in_cur = 0;
    }

    /// Appends one framed record to the current segment.
    pub fn append_frame(&mut self, frame: &[u8]) {
        self.store.append(WAL_CUR, frame);
        self.records_in_cur += 1;
        self.events += 1;
    }

    /// Loads the newest valid snapshot generation and the WAL records to
    /// replay on top of it, truncating a torn final record. `None`
    /// snapshot means genesis: no snapshot was ever written and replay
    /// starts from freshly constructed server state. The previous
    /// generation is only read when the current snapshot does not
    /// validate.
    pub fn load_for_recovery(
        &mut self,
    ) -> Result<(Option<Snapshot>, Vec<WalRecord>, RecoveryInfo), PersistError> {
        // The current segment is the only one that may end in a torn
        // record; rotated segments were closed cleanly.
        let wal_cur = self.store.load(WAL_CUR).unwrap_or_default();
        let (tail, _, truncated_bytes) = decode_frames(&wal_cur, true)?;
        let decode = |payloads: &[&[u8]]| -> Result<Vec<WalRecord>, PersistError> {
            payloads
                .iter()
                .map(|p| WalRecord::from_payload(p))
                .collect()
        };
        let done = |snap, records: Vec<WalRecord>, source| {
            let replayed = records.len();
            let info = RecoveryInfo {
                source,
                replayed,
                truncated_bytes,
            };
            Ok((snap, records, info))
        };

        let cur_snap = self.store.load(SNAP_CUR);
        if let Some(snap) = cur_snap
            .as_deref()
            .and_then(|b| Snapshot::from_bytes(b).ok())
        {
            return done(Some(snap), decode(&tail)?, SnapshotSource::Current);
        }
        let snap = match self.store.load(SNAP_PREV).map(|b| Snapshot::from_bytes(&b)) {
            Some(Ok(snap)) => Some(snap),
            // A snapshot existed but neither generation validates.
            Some(Err(_)) => return Err(PersistError::NoValidSnapshot),
            None if cur_snap.is_some() => return Err(PersistError::NoValidSnapshot),
            // Fresh store: genesis + whatever WAL exists (a store that
            // never rotated never wrote wal.prev either).
            None => None,
        };
        let wal_prev = self.store.load(WAL_PREV).unwrap_or_default();
        let (closed, _, _) = decode_frames(&wal_prev, false)?;
        let mut records = decode(&closed)?;
        records.extend(decode(&tail)?);
        let source = if snap.is_some() {
            SnapshotSource::Previous
        } else {
            SnapshotSource::Genesis
        };
        done(snap, records, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_version_3_snapshot_with_the_flush_policy_is_refused() {
        let snap = Snapshot {
            config: CocaConfig::for_model(coca_model::ModelId::ResNet101),
            global: GlobalCacheTable::new(3, 2),
            clients: Vec::new(),
            pending: Vec::new(),
            static_alloc: None,
        };
        let current = snap.to_bytes();
        assert!(Snapshot::from_bytes(&current).is_ok());
        let (payloads, _, _) = decode_frames(&current, false).unwrap();
        let mut payload = payloads[0].to_vec();
        assert_eq!(payload[0], SNAPSHOT_VERSION);
        // Version 3's 86-byte config held the flush-policy tag between the
        // four ablation bools and the precision tag, and the u64 flush
        // watermark sat between the pending queue and the static
        // allocation (here `None`, the payload's last byte).
        payload[0] = 3;
        payload.splice(1 + 76..1 + 76, [0u8]);
        let at = payload.len() - 1;
        payload.splice(at..at, 0u64.to_le_bytes());
        let err = Snapshot::from_bytes(&encode_frame(&payload)).unwrap_err();
        assert!(
            matches!(err, PersistError::Decode(ref m) if m.contains("version 3")),
            "{err}"
        );
    }

    #[test]
    fn a_watermark_record_is_refused() {
        // Tag 6 was the flush-watermark record: a log from an older build
        // that holds one is an unknown tag, not a misread.
        let mut payload = vec![6u8];
        payload.extend_from_slice(&9u64.to_le_bytes());
        let err = WalRecord::from_payload(&payload).unwrap_err();
        assert!(
            matches!(err, PersistError::Decode(ref m) if m.contains("unknown WAL record tag 6")),
            "{err}"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the slice-by-8 kernel replaced — kept here
    /// only as the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slice_by_8_crc_equals_the_bytewise_reference() {
        // Every length across the 8-byte stride boundary, at every
        // alignment of the same pseudo-random stream, then long buffers.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        let stream: Vec<u8> = (0..50_000).map(|_| next()).collect();
        for len in 0..=64 {
            for start in 0..8 {
                let buf = &stream[start..start + len];
                assert_eq!(crc32(buf), crc32_bytewise(buf), "len {len} start {start}");
            }
        }
        for (start, len) in [(0, 43_546), (3, 49_997), (7, 1_000), (1, 4_095)] {
            let buf = &stream[start..start + len];
            assert_eq!(crc32(buf), crc32_bytewise(buf), "len {len} start {start}");
        }
    }

    #[test]
    fn frames_round_trip_and_reject_any_strict_prefix() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"{\"k\":1}"];
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&encode_frame(p));
        }
        let (decoded, committed, truncated) = decode_frames(&bytes, false).unwrap();
        assert_eq!(decoded, payloads);
        assert_eq!(committed, bytes.len());
        assert_eq!(truncated, 0);

        // Every strict prefix leniently truncates to a whole-frame
        // boundary, and never truncates a complete record.
        let frame_ends: Vec<usize> = payloads
            .iter()
            .scan(0usize, |acc, p| {
                *acc += 8 + p.len();
                Some(*acc)
            })
            .collect();
        for cut in 0..bytes.len() {
            let (decoded, committed, truncated) = decode_frames(&bytes[..cut], true).unwrap();
            let whole = frame_ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            assert_eq!(committed + truncated, cut);
            // Strict mode refuses the same prefix unless it is
            // frame-aligned.
            let strict = decode_frames(&bytes[..cut], false);
            if frame_ends.contains(&cut) || cut == 0 {
                assert!(strict.is_ok());
            } else {
                assert!(matches!(strict, Err(PersistError::CorruptClosedSegment(_))));
            }
        }
    }

    #[test]
    fn corrupt_payload_byte_fails_crc() {
        let mut bytes = encode_frame(b"payload-bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frames(&bytes, false),
            Err(PersistError::CorruptClosedSegment(_))
        ));
        let (decoded, _, truncated) = decode_frames(&bytes, true).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(truncated, bytes.len());
    }

    #[test]
    fn mem_storage_append_and_fault_helpers() {
        let mut s = MemStorage::new();
        s.append("k", b"ab");
        s.append("k", b"cd");
        assert_eq!(s.load("k").as_deref(), Some(&b"abcd"[..]));
        s.corrupt_byte("k", 5); // 5 % 4 == 1
        assert_eq!(
            s.load("k").as_deref(),
            Some(&[b'a', b'b' ^ 0xFF, b'c', b'd'][..])
        );
        s.truncate("k", 1);
        assert_eq!(s.load("k").as_deref(), Some(&b"a"[..]));
        s.remove("k");
        assert!(s.load("k").is_none());
    }

    #[test]
    fn dir_storage_round_trips_through_files() {
        let dir = temp_dir("test");
        let mut s = DirStorage::open(&dir).unwrap();
        assert!(s.load(WAL_CUR).is_none());
        s.save(SNAP_CUR, b"snapshot");
        s.append(WAL_CUR, b"rec1");
        s.append(WAL_CUR, b"rec2");
        assert_eq!(s.load(SNAP_CUR).as_deref(), Some(&b"snapshot"[..]));
        assert_eq!(s.load(WAL_CUR).as_deref(), Some(&b"rec1rec2"[..]));
        s.remove(SNAP_CUR);
        assert!(s.load(SNAP_CUR).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_storage_fsync_toggle_keeps_bytes_identical() {
        // COCA_FSYNC changes the durability discipline, never the bytes.
        let dir = temp_dir("fsync");
        let mut s = DirStorage::open(&dir).unwrap();
        // Defaults off unless the env says otherwise (the benchmark mode).
        if std::env::var("COCA_FSYNC").is_err() {
            assert!(!s.fsync());
        }
        s.set_fsync(true);
        assert!(s.fsync());
        s.save(SNAP_CUR, b"snapshot");
        s.append(WAL_CUR, b"rec1");
        s.append(WAL_CUR, b"rec2");
        assert_eq!(s.load(SNAP_CUR).as_deref(), Some(&b"snapshot"[..]));
        assert_eq!(s.load(WAL_CUR).as_deref(), Some(&b"rec1rec2"[..]));
        // Synced saves truncate like unsynced ones (no stale tail).
        s.save(SNAP_CUR, b"v2");
        assert_eq!(s.load(SNAP_CUR).as_deref(), Some(&b"v2"[..]));
        // MemStorage takes the provided no-op.
        MemStorage::new().set_fsync(true);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "coca-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_storage_open_handle_follows_save_remove_and_rename() {
        // The append handle must never outlive the file it was opened
        // on: after a save, a remove or a rename of the appended key —
        // or a rename *onto* it — the next append lands where MemStorage
        // puts it.
        let dir = temp_dir("handle");
        let mut disk = DirStorage::open(&dir).unwrap();
        let mut mem = MemStorage::new();
        let script = |s: &mut dyn Storage| {
            s.append(WAL_CUR, b"a1");
            s.append(WAL_CUR, b"a2");
            s.save(WAL_CUR, b"S"); // append → save → append
            s.append(WAL_CUR, b"a3");
            s.rename(WAL_CUR, WAL_PREV); // append → rename → append
            s.append(WAL_CUR, b"a4");
            s.append(WAL_PREV, b"p1");
            s.append(WAL_CUR, b"a5"); // switching keys reopens
            s.rename(WAL_PREV, WAL_CUR); // rename onto the appended key
            s.append(WAL_CUR, b"a6");
            s.remove(WAL_CUR); // append → remove → append
            s.append(WAL_CUR, b"a7");
            s.rename(SNAP_CUR, SNAP_PREV); // absent source: target absent too
            s.save(SNAP_CUR, b"snap");
            s.rename(SNAP_CUR, SNAP_PREV);
        };
        script(&mut disk);
        script(&mut mem);
        for key in [SNAP_CUR, SNAP_PREV, WAL_CUR, WAL_PREV] {
            assert_eq!(disk.load(key), mem.load(key), "{key}");
        }
        assert_eq!(mem.load(WAL_CUR).as_deref(), Some(&b"a7"[..]));
        assert_eq!(mem.load(SNAP_PREV).as_deref(), Some(&b"snap"[..]));
        assert!(mem.load(SNAP_CUR).is_none() && mem.load(WAL_PREV).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_on_disk_matches_rotation_in_memory() {
        let dir = temp_dir("rotate");
        let mut disk = Durability::new(Box::new(DirStorage::open(&dir).unwrap()), 2);
        let mut mem = Durability::new(Box::new(MemStorage::new()), 2);
        for d in [&mut disk, &mut mem] {
            d.ensure_genesis(b"S0");
            for gen in 1..=3u8 {
                d.append_frame(&[b'r', gen, 0]);
                d.append_frame(&[b'r', gen, 1]);
                assert!(d.needs_rotation());
                d.rotate(&[b'S', gen]);
            }
            d.append_frame(b"tail");
        }
        for key in [SNAP_CUR, SNAP_PREV, WAL_CUR, WAL_PREV] {
            assert_eq!(disk.storage().load(key), mem.storage().load(key), "{key}");
        }
        assert_eq!(
            mem.storage().load(WAL_PREV).as_deref(),
            Some(&[b'r', 3, 0, b'r', 3, 1][..])
        );
        assert_eq!(mem.storage().load(WAL_CUR).as_deref(), Some(&b"tail"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_record_tags_are_variant_positions_and_unknown_tags_are_typed_errors() {
        for (tag, rec) in [(4u8, WalRecord::Leave), (5, WalRecord::Flush)] {
            let frame = rec.to_frame();
            assert_eq!(frame[8], tag);
            let (payloads, _, _) = decode_frames(&frame, false).unwrap();
            assert_eq!(
                WalRecord::from_payload(payloads[0]).unwrap().to_frame(),
                frame
            );
        }
        // A bare tag is the whole Leave record: 8 header bytes + 1.
        assert_eq!(WalRecord::Leave.to_frame().len(), 9);
        for bad in [&[1u8][..], &[3], &[6], &[7], &[255], b"{", &[]] {
            assert!(
                matches!(WalRecord::from_payload(bad), Err(PersistError::Decode(_))),
                "{bad:?}"
            );
        }
        // Trailing bytes after a complete record.
        assert!(matches!(
            WalRecord::from_payload(&[4, 0]),
            Err(PersistError::Decode(_))
        ));
        // A batch count the payload cannot hold, before any allocation.
        let mut batch = vec![3u8];
        batch.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            WalRecord::from_payload(&batch),
            Err(PersistError::Decode(_))
        ));
    }

    #[test]
    fn wal_record_frames_round_trip() {
        let flush = WalRecord::Flush.to_frame();
        let (payloads, _, _) = decode_frames(&flush, false).unwrap();
        assert!(matches!(
            WalRecord::from_payload(payloads[0]).unwrap(),
            WalRecord::Flush
        ));

        let leave = WalRecord::Leave.to_frame();
        let (payloads, _, _) = decode_frames(&leave, false).unwrap();
        assert!(matches!(
            WalRecord::from_payload(payloads[0]).unwrap(),
            WalRecord::Leave
        ));
    }

    #[test]
    fn crash_plan_env_parsing() {
        // from_env reads process-global state; exercise the parser by
        // setting and clearing within one test (tier-1 runs tests in one
        // process, so restore what we found).
        std::env::set_var("COCA_CRASH_AT", "12");
        std::env::set_var("COCA_CRASH_FAULT", "torn:5");
        assert_eq!(
            CrashPlan::from_env(),
            Some(CrashPlan {
                at_event: 12,
                fault: CrashFault::Torn { keep: 5 }
            })
        );
        std::env::set_var("COCA_CRASH_FAULT", "snap:33");
        assert_eq!(
            CrashPlan::from_env().unwrap().fault,
            CrashFault::SnapCorrupt { byte: 33 }
        );
        std::env::set_var("COCA_CRASH_FAULT", "clean");
        assert_eq!(CrashPlan::from_env().unwrap().fault, CrashFault::Clean);
        std::env::remove_var("COCA_CRASH_AT");
        std::env::remove_var("COCA_CRASH_FAULT");
        assert_eq!(CrashPlan::from_env(), None);
    }

    #[test]
    fn rotation_moves_generations_and_checkpoint_collapses_them() {
        let mut d = Durability::new(Box::new(MemStorage::new()), 2);
        d.ensure_genesis(b"S0");
        d.append_frame(b"r0");
        d.append_frame(b"r1");
        assert!(d.needs_rotation());
        d.rotate(b"S1");
        assert!(!d.needs_rotation());
        let get = |d: &Durability, k: &str| d.storage().load(k);
        assert_eq!(get(&d, SNAP_CUR).as_deref(), Some(&b"S1"[..]));
        assert_eq!(get(&d, SNAP_PREV).as_deref(), Some(&b"S0"[..]));
        assert_eq!(get(&d, WAL_PREV).as_deref(), Some(&b"r0r1"[..]));
        assert_eq!(get(&d, WAL_CUR).as_deref(), Some(&b""[..]));
        d.append_frame(b"r2");
        assert_eq!(d.events_logged(), 3);
        d.checkpoint(b"S2");
        assert_eq!(get(&d, SNAP_CUR).as_deref(), Some(&b"S2"[..]));
        assert_eq!(get(&d, SNAP_PREV).as_deref(), Some(&b"S2"[..]));
        assert_eq!(get(&d, WAL_CUR).as_deref(), Some(&b""[..]));
        assert!(get(&d, WAL_PREV).is_none());
        // The event counter survives checkpoints (crash indices are
        // lifetime-global).
        assert_eq!(d.events_logged(), 3);
    }
}
