//! Persistence-hardening property tests: **random corruption of snapshot
//! and WAL bytes never panics the recovery path** — it decodes, or it
//! errors through `Result`/typed `PersistError`, nothing else — and the
//! binary encoding is canonical: whatever decodes re-encodes to the bytes
//! it came from. The mutation strategy extends `proptest_wire.rs` to the
//! durability layer:
//!
//! * random snapshots (f32/f16/i8 tables, a non-empty pending queue) and
//!   random WAL records of all four variants round-trip bit-exactly and
//!   re-encode byte-identically;
//! * raw byte corruption of framed snapshots (caught by the CRC) *and*
//!   payload-level corruption re-framed with a **valid** CRC, so the
//!   decoder and every validator (occupancy-vs-row-count, layer dims, φ
//!   lengths, sorted client registry, i8 per-row scale invariants) get
//!   exercised past the checksum;
//! * every count field overwritten with `u32::MAX` is a typed error, not
//!   an allocation;
//! * corruption, truncation and cross-key swaps of whole storage states
//!   driven through `Durability::load_for_recovery`;
//! * one structurally invalid snapshot per preserved check (wrong version,
//!   unsorted registry, ragged τ/φ, out-of-range pending layers/dims/
//!   classes, allocation indices, precision tags, trailing bytes) produces
//!   its typed error — the table-shape checks have theirs beside
//!   `GlobalCacheTable`'s `Wire` impl;
//! * a record torn at every byte offset truncates leniently and is
//!   rejected strictly;
//! * the three retired record tags (1, 3, 6) are refused with a typed
//!   error, and a log of the four live tags, laid out byte by byte as
//!   every earlier build wrote it, replays to the live server's digest.

use coca::core::collect::UpdateTable;
use coca::core::persist::{
    decode_frames, encode_frame, Durability, MemStorage, PersistError, Snapshot, Storage,
    WalRecord, SNAP_CUR, SNAP_PREV, WAL_CUR, WAL_PREV,
};
use coca::core::proto::{CacheRequest, UpdateUpload};
use coca::core::CocaServer;
use coca::core::{AcaOutput, ClientStatus, GlobalCacheTable};
use coca::math::Precision;
use coca::net::Wire;
use coca::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// A server mid-flight: non-empty pending queue (the upload after the last
/// request), populated client registry, a few WAL generations on storage. Returns the live snapshot
/// bytes and the detached storage.
fn sample_state(precision: Precision) -> (Vec<u8>, Box<dyn Storage>) {
    let dataset = DatasetSpec::ucf101().subset(10);
    let seeds = SeedTree::new(41);
    let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
    let cfg = CocaConfig::for_model(ModelId::ResNet101).with_precision(precision);
    let mut server = CocaServer::new(&rt, cfg, &seeds);
    server.attach_durability(Durability::new(Box::new(MemStorage::new()), 2));
    let profile = server.base_hit_profile().to_vec();
    for id in 0..3u64 {
        let _ = server.handle_request(&CacheRequest {
            client_id: id,
            round: 0,
            timestamps: vec![id as u32; rt.num_classes()],
            hit_ratio: profile.clone(),
            budget_bytes: 48 * 1024,
        });
        server.handle_upload(sample_upload(&rt, id));
    }
    assert!(server.pending_uploads() > 0, "queue must be non-empty");
    let snap = server.snapshot().to_bytes();
    let d = server.detach_durability().unwrap();
    (snap, d.into_storage())
}

fn sample_upload(rt: &ModelRuntime, client_id: u64) -> UpdateUpload {
    let layer = 10usize;
    let mut table = UpdateTable::new();
    let dim = rt.feature_dim(layer);
    let mut v = vec![0.0f32; dim];
    v[(client_id as usize + 1) % dim] = 1.0;
    table.absorb(3, layer, &v, 0.0);
    let mut phi = vec![0u64; rt.num_classes()];
    phi[3] = 50 + client_id;
    UpdateUpload {
        client_id,
        round: 0,
        table,
        frequency: phi,
        precision: Precision::F32,
    }
}

/// The f32 sample state, built once — server construction is expensive
/// and every case copies before corrupting.
fn f32_state() -> &'static (Vec<u8>, Box<dyn Storage>) {
    use std::sync::OnceLock;
    static STATE: OnceLock<(Vec<u8>, Box<dyn Storage>)> = OnceLock::new();
    STATE.get_or_init(|| sample_state(Precision::F32))
}

/// Extracts the payload of a single-frame snapshot.
fn frame_payload(bytes: &[u8]) -> Vec<u8> {
    let (payloads, _, _) = decode_frames(bytes, false).unwrap();
    payloads[0].to_vec()
}

// ------------------------------------------------------ generators ----

fn random_unit(rng: &mut impl Rng, dim: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    v[0] += 2.0; // never the zero vector
    v
}

/// `n` distinct values below `below`, in random order.
fn distinct(rng: &mut impl Rng, n: usize, below: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..below).collect();
    (0..n.min(below))
        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
        .collect()
}

/// An upload into a table of `classes` classes whose layer `j` has
/// dimension `dims[j]`, cells absorbed in random order (the encoder has to
/// sort them), now and then a NaN or −0.0 lane.
fn upload(rng: &mut impl Rng, classes: usize, dims: &[usize]) -> UpdateUpload {
    let mut table = UpdateTable::new();
    let touched = rng.gen_range(0..=dims.len());
    for layer in distinct(rng, touched, dims.len()) {
        let cells = rng.gen_range(1..=classes.min(6));
        for class in distinct(rng, cells, classes) {
            let mut v = random_unit(rng, dims[layer]);
            match rng.gen_range(0..6) {
                0 => v[0] = f32::NAN,
                1 => v[0] = -0.0,
                _ => {}
            }
            table.absorb(class, layer, &v, 0.95);
        }
    }
    let precision = [Precision::F32, Precision::F16, Precision::I8][rng.gen_range(0..3usize)];
    table.quantize_in_place(precision);
    UpdateUpload {
        client_id: rng.gen(),
        round: rng.gen(),
        table,
        frequency: (0..classes).map(|_| rng.gen_range(0..1000)).collect(),
        precision,
    }
}

fn request(rng: &mut impl Rng) -> CacheRequest {
    CacheRequest {
        client_id: rng.gen(),
        round: rng.gen(),
        timestamps: (0..rng.gen_range(0..60)).map(|_| rng.gen()).collect(),
        hit_ratio: (0..rng.gen_range(0..20))
            .map(|_| match rng.gen_range(0..6) {
                0 => f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
                1 => -0.0,
                _ => rng.gen_range(-1.0..2.0),
            })
            .collect(),
        budget_bytes: rng.gen(),
    }
}

/// The tag bytes a WAL may hold. 1 and 3 named two upload entry points
/// and 6 the flush watermark, all gone; their numbers are retired, not
/// reused.
const LIVE_TAGS: [u8; 4] = [0, 2, 4, 5];

/// One record of the variant with the given (live) tag byte.
fn wal_record(rng: &mut impl Rng, tag: u8) -> WalRecord {
    let classes = rng.gen_range(1..40);
    let dims: Vec<usize> = (0..rng.gen_range(1..5))
        .map(|_| rng.gen_range(1..9))
        .collect();
    match tag {
        0 => WalRecord::Request(request(rng)),
        2 => WalRecord::Upload(upload(rng, classes, &dims)),
        4 => WalRecord::Leave,
        5 => WalRecord::Flush,
        _ => panic!("tag {tag} names no record"),
    }
}

/// A small random snapshot that satisfies every invariant: a sparsely
/// seeded table at `precision` (some layers untouched), a sorted client
/// registry, a non-empty pending queue that fits the table, and — half the
/// time — a static allocation.
fn snapshot(rng: &mut impl Rng, precision: Precision) -> Snapshot {
    let classes = rng.gen_range(1..140); // up to three occupancy words
    let dims: Vec<usize> = (0..rng.gen_range(1..5))
        .map(|_| rng.gen_range(1..9))
        .collect();
    let mut global = GlobalCacheTable::with_precision(classes, dims.len(), precision);
    for (layer, &dim) in dims.iter().enumerate() {
        if rng.gen_range(0..4) == 0 {
            continue; // a layer nothing ever touched
        }
        let cells = rng.gen_range(1..=classes);
        for class in distinct(rng, cells, classes) {
            global.set(class, layer, random_unit(rng, dim));
        }
    }
    global.seed_frequency(&(0..classes).map(|_| rng.gen()).collect::<Vec<u64>>());
    let registry = rng.gen_range(0..6);
    let mut ids = distinct(rng, registry, 1000);
    ids.sort_unstable();
    let clients = ids
        .into_iter()
        .map(|id| {
            let mut st = ClientStatus::new(classes);
            st.record_timestamps(&(0..classes).map(|_| rng.gen()).collect::<Vec<u32>>());
            st.record_frequency(&(0..classes).map(|_| rng.gen()).collect::<Vec<u64>>());
            (id as u64, st)
        })
        .collect();
    // A pending upload may only touch a layer at the dimension the table
    // committed for it (`dims`); untouched layers accept any.
    let pending = (0..rng.gen_range(1..4))
        .map(|_| upload(rng, classes, &dims))
        .collect();
    let static_alloc = (rng.gen_range(0..2) == 0).then(|| {
        let (hot, picked) = (rng.gen_range(0..=classes), rng.gen_range(0..=dims.len()));
        AcaOutput {
            hot_classes: distinct(rng, hot, classes),
            layers: distinct(rng, picked, dims.len()),
        }
    });
    Snapshot {
        config: CocaConfig::for_model(ModelId::ResNet101)
            .with_precision(precision)
            .with_theta(rng.gen_range(0.001..0.1))
            .with_budget(rng.gen_range(0..1 << 20))
            .with_wal_rotate(rng.gen_range(1..512)),
        global,
        clients,
        pending,
        static_alloc,
    }
}

proptest! {
    /// Random snapshots at every table precision, pending queue aboard,
    /// survive encode → decode → encode byte for byte; the decoded value
    /// passes validation and keeps its shape.
    #[test]
    fn random_snapshots_round_trip_bit_exactly(seed in 0u64..10_000) {
        let mut rng = SeedTree::new(seed).rng_for("snap-gen");
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            let snap = snapshot(&mut rng, precision);
            prop_assert!(snap.validate().is_ok(), "{:?}", snap.validate());
            let bytes = snap.to_bytes();
            let back = Snapshot::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.to_bytes(), bytes);
            prop_assert_eq!(back.global.digest(), snap.global.digest());
            prop_assert_eq!(back.config, snap.config);
            prop_assert_eq!(back.pending.len(), snap.pending.len());
            prop_assert_eq!(back.clients.len(), snap.clients.len());
            prop_assert_eq!(back.static_alloc, snap.static_alloc);
        }
    }

    /// Random records of all four variants: the frame decodes to a record
    /// that re-encodes to the same frame, under the tag byte it always
    /// had, and a segment of them torn at any byte keeps exactly the
    /// whole frames.
    #[test]
    fn random_wal_records_round_trip_bit_exactly(seed in 0u64..10_000) {
        let mut rng = SeedTree::new(seed).rng_for("wal-gen");
        let mut segment = Vec::new();
        let mut ends = Vec::new();
        for tag in LIVE_TAGS {
            let frame = wal_record(&mut rng, tag).to_frame();
            prop_assert_eq!(frame[8], tag);
            let (payloads, committed, truncated) = decode_frames(&frame, false).unwrap();
            prop_assert_eq!((payloads.len(), committed, truncated), (1, frame.len(), 0));
            let back = WalRecord::from_payload(payloads[0]).unwrap();
            prop_assert_eq!(back.to_frame(), frame.clone());
            segment.extend_from_slice(&frame);
            ends.push(segment.len());
        }
        let cut = rng.gen_range(0..=segment.len());
        let (payloads, committed, truncated) = decode_frames(&segment[..cut], true).unwrap();
        prop_assert_eq!(payloads.len(), ends.iter().filter(|&&e| e <= cut).count());
        prop_assert_eq!(committed + truncated, cut);
    }

    /// Raw byte corruption of a framed snapshot never panics — the CRC
    /// (or the validators, if the flip lands after a re-frame) turns it
    /// into a typed error or a harmless decode.
    #[test]
    fn mutated_snapshot_bytes_never_panic(seed in 0u64..1500, mutations in 1usize..24) {
        let mut rng = SeedTree::new(seed).rng_for("snap-mutate");
        let (snap, _) = f32_state();
        let mut bytes = snap.clone();
        for _ in 0..mutations {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen();
        }
        let _ = Snapshot::from_bytes(&bytes);
    }

    /// Payload-level corruption **re-framed with a valid CRC**: the
    /// decoder and every validator past the checksum must error, not
    /// panic (occupancy bitmaps, layer dims, i8 row scales included) —
    /// on the real server state and on small random snapshots, where a
    /// flipped byte is far likelier to land on structure than on a float.
    #[test]
    fn mutated_snapshot_payloads_never_panic(seed in 0u64..1500, mutations in 1usize..16) {
        let mut rng = SeedTree::new(seed).rng_for("payload-mutate");
        let small = [Precision::F32, Precision::F16, Precision::I8][(seed % 3) as usize];
        let small = snapshot(&mut rng, small).to_bytes();
        for snap in [&f32_state().0, &small] {
            let mut payload = frame_payload(snap);
            for _ in 0..mutations {
                let at = rng.gen_range(0..payload.len());
                payload[at] = rng.gen();
            }
            if let Ok(decoded) = Snapshot::from_bytes(&encode_frame(&payload)) {
                // Whatever survives is valid enough to write back out.
                let _ = decoded.to_bytes();
            }
        }
    }

    /// Truncating a framed snapshot at any byte never panics, and a cut
    /// anywhere inside the single frame is a typed error (a partial
    /// snapshot must never half-load).
    #[test]
    fn truncated_snapshots_error_cleanly(seed in 0u64..500) {
        let mut rng = SeedTree::new(seed).rng_for("snap-cut");
        let (snap, _) = f32_state();
        let cut = rng.gen_range(0..snap.len());
        prop_assert!(Snapshot::from_bytes(&snap[..cut]).is_err());
    }

    /// Randomly corrupting, truncating or deleting any of the four
    /// storage keys never panics the full recovery cascade — it recovers
    /// from a surviving generation or fails closed with a typed error.
    #[test]
    fn corrupted_stores_never_panic_recovery(
        seed in 0u64..1500,
        strikes in 1usize..6,
    ) {
        let mut rng = SeedTree::new(seed).rng_for("store-mutate");
        let (_, pristine) = f32_state();
        let mut store = MemStorage::new();
        for key in [SNAP_CUR, SNAP_PREV, WAL_CUR, WAL_PREV] {
            if let Some(bytes) = pristine.load(key) {
                store.save(key, &bytes);
            }
        }
        for _ in 0..strikes {
            let key = [SNAP_CUR, SNAP_PREV, WAL_CUR, WAL_PREV][rng.gen_range(0..4usize)];
            let Some(mut bytes) = store.load(key) else { continue };
            match rng.gen_range(0..3) {
                0 if !bytes.is_empty() => {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen();
                    store.save(key, &bytes);
                }
                1 => {
                    let keep = rng.gen_range(0..=bytes.len());
                    store.save(key, &bytes[..keep]);
                }
                _ => store.remove(key),
            }
        }
        let mut d = Durability::new(Box::new(store), 4);
        if let Ok((snap, records, _info)) = d.load_for_recovery() {
            // Whatever loads must be internally coherent enough to
            // re-serialize without panicking.
            if let Some(s) = snap {
                let _ = s.to_bytes();
            }
            for r in &records {
                let _ = r.to_frame();
            }
        }
    }

    /// WAL segment truncation recovers exactly the whole-frame prefix:
    /// lenient decoding reports `committed + truncated == cut` and every
    /// committed payload is a valid record.
    #[test]
    fn truncated_wal_recovers_the_whole_frame_prefix(seed in 0u64..800) {
        let mut rng = SeedTree::new(seed).rng_for("wal-cut");
        let (_, store) = f32_state();
        let wal = store
            .load(WAL_CUR)
            .filter(|w| !w.is_empty())
            .or_else(|| store.load(WAL_PREV))
            .unwrap();
        let cut = rng.gen_range(0..=wal.len());
        let (payloads, committed, truncated) = decode_frames(&wal[..cut], true).unwrap();
        prop_assert_eq!(committed + truncated, cut);
        for p in payloads {
            WalRecord::from_payload(p).unwrap();
        }
    }
}

/// A binary record torn at **every** byte offset: the lenient (current
/// segment) decode keeps the whole frames before the tear and reports the
/// rest truncated; the strict (closed segment) decode rejects every cut
/// that is not a frame boundary.
#[test]
fn a_record_torn_at_every_byte_truncates_leniently_and_is_rejected_strictly() {
    let mut rng = SeedTree::new(7).rng_for("torn");
    let first = WalRecord::Leave.to_frame();
    let second = wal_record(&mut rng, 2).to_frame();
    let mut segment = first.clone();
    segment.extend_from_slice(&second);
    for cut in 0..=segment.len() {
        let (payloads, committed, truncated) = decode_frames(&segment[..cut], true).unwrap();
        let whole = [first.len(), segment.len()]
            .iter()
            .filter(|&&end| end <= cut)
            .count();
        assert_eq!(payloads.len(), whole, "cut at {cut}");
        assert_eq!(committed + truncated, cut);
        assert_eq!(
            committed,
            [0, first.len(), segment.len()][whole],
            "cut at {cut}"
        );
        let strict = decode_frames(&segment[..cut], false);
        if truncated == 0 {
            assert!(strict.is_ok(), "cut at {cut} is frame-aligned");
        } else {
            assert!(
                matches!(strict, Err(PersistError::CorruptClosedSegment(_))),
                "cut at {cut}"
            );
        }
    }
    // The same tear inside a payload whose frame header survives intact
    // *and* whose length field is rewritten to match: the CRC still
    // refuses it.
    let mut short = second[..second.len() - 1].to_vec();
    let len = (short.len() - 8) as u32;
    short[..4].copy_from_slice(&len.to_le_bytes());
    let (payloads, _, truncated) = decode_frames(&short, true).unwrap();
    assert!(payloads.is_empty());
    assert_eq!(truncated, short.len());
}

/// Asserts `bytes` (a snapshot payload) re-framed decodes to a typed
/// `Decode` error mentioning `what`.
fn assert_payload_rejected(payload: &[u8], what: &str) {
    let err = Snapshot::from_bytes(&encode_frame(payload)).unwrap_err();
    assert!(
        matches!(err, PersistError::Decode(ref m) if m.contains(what)),
        "expected a decode error mentioning {what:?}, got {err}"
    );
}

/// Structurally invalid snapshots produce **typed** errors, not panics:
/// each constructed violation trips its dedicated check.
#[test]
fn invalid_snapshots_yield_typed_errors() {
    let (snap, _) = f32_state();
    let valid = Snapshot::from_bytes(snap).unwrap();
    let payload = frame_payload(snap);
    let rejected = |s: &Snapshot, what: &str| {
        assert!(
            s.validate().is_err_and(|m| m.contains(what)),
            "{:?}",
            s.validate()
        );
        let err = Snapshot::from_bytes(&s.to_bytes()).unwrap_err();
        assert!(
            matches!(err, PersistError::Decode(ref m) if m.contains(what)),
            "{err}"
        );
    };

    // Wrong version: the next one, the three before it, and the first
    // byte of the JSON payloads version 1 framed.
    assert_eq!(payload[0], 4);
    for version in [5u8, 3, 2, 1, b'{'] {
        let mut bumped = payload.clone();
        bumped[0] = version;
        assert_payload_rejected(&bumped, "version");
    }

    // Trailing bytes after the snapshot, inside its frame; an empty
    // payload; two frames where one belongs.
    let mut long = payload.clone();
    long.push(0);
    assert_payload_rejected(&long, "trailing");
    assert!(matches!(
        Snapshot::from_bytes(&encode_frame(&[])),
        Err(PersistError::Decode(_))
    ));
    let mut twice = snap.clone();
    twice.extend_from_slice(snap);
    let err = Snapshot::from_bytes(&twice).unwrap_err();
    assert!(
        matches!(err, PersistError::Decode(ref m) if m.contains("one frame")),
        "{err}"
    );

    // Precision tags: the config's (the last byte before its 8-byte
    // rotation period) and the table's (the first byte after the config).
    let config_len = {
        let mut bytes = Vec::new();
        valid.config.encode(&mut bytes);
        bytes.len()
    };
    for at in [1 + config_len - 9, 1 + config_len] {
        assert_eq!(payload[at], 0, "f32 tag at {at}");
        let mut bad = payload.clone();
        bad[at] = 3;
        assert_payload_rejected(&bad, "precision tag");
    }
    // A table that claims a codec its (dense) layers do not have.
    let mut bad = payload.clone();
    bad[1 + config_len] = 2;
    assert_payload_rejected(&bad, "dense layer");

    // Client registry not strictly sorted.
    let mut s = valid.clone();
    s.clients.reverse();
    assert!(s.clients.len() > 1);
    rejected(&s, "sorted");

    // Duplicate client id.
    let mut s = valid.clone();
    let dup = s.clients[0].clone();
    s.clients.insert(0, dup);
    rejected(&s, "sorted");

    // A status tracking another class count than the table's (τ and φ).
    let mut s = valid.clone();
    s.clients[0].1 = ClientStatus::new(valid.global.num_classes() + 1);
    rejected(&s, "status tracks");

    // Ragged pending φ.
    let mut s = valid.clone();
    s.pending[0].frequency.pop();
    rejected(&s, "φ");

    // Pending upload touching a layer outside the table.
    let mut s = valid.clone();
    let mut table = UpdateTable::new();
    table.absorb(0, 9_999, &[1.0, 0.0], 0.0);
    s.pending[0].table = table;
    rejected(&s, "layer");

    // Pending upload whose entry dimension contradicts the table's.
    let mut s = valid.clone();
    let mut table = UpdateTable::new();
    table.absorb(0, 10, &[1.0, 0.0], 0.0); // layer 10 is high-dimensional
    s.pending[0].table = table;
    rejected(&s, "dim");

    // Pending upload touching a class outside the table.
    let mut s = valid.clone();
    let dim = valid.global.layer_dim(10).unwrap();
    let mut table = UpdateTable::new();
    table.absorb(9_999, 10, &vec![1.0; dim], 0.0);
    s.pending[0].table = table;
    rejected(&s, "class 9999");

    // Static allocation indexing outside the table: classes, then layers.
    for (hot_classes, layers) in [(vec![usize::MAX], vec![0]), (vec![0], vec![9_999])] {
        let mut s = valid.clone();
        s.static_alloc = Some(AcaOutput {
            hot_classes,
            layers,
        });
        rejected(&s, "allocation");
    }
}

/// Every count in a snapshot payload, overwritten with `u32::MAX`, is a
/// typed error — rejected by arithmetic against the bytes left in the
/// frame, before anything is sized by it (a 4-billion-element allocation
/// would abort the test). Then the same overwrite at *every* offset of
/// small snapshots at each precision: wherever it lands — a count, a
/// dimension, a tag, a float — nothing panics.
#[test]
fn inflated_counts_are_typed_errors_not_allocations() {
    let len_of = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = Vec::new();
        f(&mut bytes);
        bytes.len()
    };
    let (snap, _) = f32_state();
    let valid = Snapshot::from_bytes(snap).unwrap();
    let payload = frame_payload(snap);
    let classes = valid.global.num_classes();
    let words = classes.div_ceil(64);

    // version | config | table: tag, Φ count, Φ, layer count, layer 0:
    // occupancy words, dim, row count …
    let table_at = 1 + len_of(&|b| valid.config.encode(b));
    let phi_count = table_at + 1;
    let layer_count = phi_count + 4 + 8 * classes;
    let layer0_rows = layer_count + 4 + 8 * words + 4;
    // … | registry count | client 0: id, τ count, τ, φ count …
    let clients_at = table_at + len_of(&|b| valid.global.encode(b));
    let tau_count = clients_at + 4 + 8;
    let phi0_count = tau_count + 4 + 4 * classes;
    // … | pending count | upload 0: client, round, table's layer count,
    // layer id, class count …
    let pending_at = clients_at
        + 4
        + valid
            .clients
            .iter()
            .map(|(_, st)| 8 + len_of(&|b| st.encode(b)))
            .sum::<usize>();
    let up0_layers = pending_at + 4 + 16;
    let up0_classes = up0_layers + 4 + 4;
    for at in [
        phi_count,
        layer_count,
        layer0_rows,
        clients_at,
        tau_count,
        phi0_count,
        pending_at,
        up0_layers,
        up0_classes,
    ] {
        let mut bad = payload.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_payload_rejected(&bad, "");
    }
    // The presence byte of the static allocation is the payload's last.
    assert!(valid.static_alloc.is_none());
    let mut bad = payload.clone();
    *bad.last_mut().unwrap() = 1;
    assert_payload_rejected(&bad, "");

    let mut rng = SeedTree::new(11).rng_for("inflate");
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let payload = frame_payload(&snapshot(&mut rng, precision).to_bytes());
        for at in 0..payload.len() - 3 {
            let mut bad = payload.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = Snapshot::from_bytes(&encode_frame(&bad));
        }
    }
    // Same for WAL records of every variant.
    for tag in LIVE_TAGS {
        let frame = wal_record(&mut rng, tag).to_frame();
        let payload = &frame[8..];
        for at in 0..payload.len().saturating_sub(3) {
            let mut bad = payload.to_vec();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = WalRecord::from_payload(&bad);
        }
    }
}

/// Snapshots round-trip byte-identically under every wire precision,
/// with a non-empty pending queue aboard — the canonical
/// re-serialization contract the recovery cascade relies on.
#[test]
fn snapshots_round_trip_byte_identically_under_every_precision() {
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let (bytes, _) = sample_state(precision);
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.config.precision, precision);
        assert_eq!(decoded.global.precision(), precision);
        assert!(
            !decoded.pending.is_empty(),
            "{precision:?}: the pending queue must survive the round trip"
        );
        assert!(!decoded.clients.is_empty());
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "{precision:?}: re-serialization must be byte-identical"
        );
    }
}

/// Tags 1 and 3 belonged to the merge-now and offline-batch upload entry
/// points, tag 6 to the flush watermark. A CRC-valid frame that carries
/// one — body in the layout those records had: one upload, a counted
/// sequence of uploads, a `u64` member count — is a typed decode error, and a segment that holds one, closed or current, fails
/// recovery with it. (Only a frame whose CRC does not validate is a torn
/// tail.)
#[test]
fn retired_wal_tags_are_refused_with_a_typed_error() {
    let mut rng = SeedTree::new(19).rng_for("retired");
    let up = upload(&mut rng, 12, &[4, 6]);
    let mut merge = vec![1u8];
    up.encode(&mut merge);
    let mut batch = vec![3u8];
    batch.extend_from_slice(&2u32.to_le_bytes());
    up.encode(&mut batch);
    up.encode(&mut batch);
    let mut watermark = vec![6u8];
    watermark.extend_from_slice(&3u64.to_le_bytes());
    for (payload, tag) in [
        (merge, 1u8),
        (batch, 3),
        (watermark, 6),
        (vec![1], 1),
        (vec![3], 3),
        (vec![6], 6),
    ] {
        let err = WalRecord::from_payload(&payload).unwrap_err();
        assert!(
            matches!(err, PersistError::Decode(ref m) if m.contains(&format!("tag {tag}"))),
            "{err}"
        );
        let good = WalRecord::Flush.to_frame();
        let mut segment = good.clone();
        segment.extend_from_slice(&encode_frame(&payload));
        for key in [WAL_CUR, WAL_PREV] {
            let mut store = MemStorage::new();
            store.save(key, &segment);
            let err = Durability::new(Box::new(store), 4)
                .load_for_recovery()
                .unwrap_err();
            assert!(matches!(err, PersistError::Decode(_)), "{key}: {err}");
        }
        // The torn-tail rule is untouched: cut anywhere inside the
        // retired frame and the current segment recovers the record
        // before it.
        let mut store = MemStorage::new();
        store.save(WAL_CUR, &segment[..segment.len() - 1]);
        let (_, records, info) = Durability::new(Box::new(store), 4)
            .load_for_recovery()
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(info.truncated_bytes, segment.len() - 1 - good.len());
    }
}

/// A store as any earlier build left it — genesis snapshot, then a WAL
/// segment holding each of the four live tags, every frame laid out here
/// byte by byte (`[u32 LE length][u32 LE crc32][tag][body]`) rather than
/// through `WalRecord` — recovers to the digest of a live server that
/// took the same calls.
#[test]
fn a_hand_written_log_of_the_live_tags_replays_to_the_live_digest() {
    let dataset = DatasetSpec::ucf101().subset(10);
    let seeds = SeedTree::new(43);
    let rt = ModelRuntime::new(ModelId::ResNet101, &dataset, &seeds);
    let cfg = CocaConfig::for_model(ModelId::ResNet101);
    let mut live = CocaServer::new(&rt, cfg, &seeds);
    let genesis = live.snapshot().to_bytes();
    let req = CacheRequest {
        client_id: 0,
        round: 0,
        timestamps: vec![0; rt.num_classes()],
        hit_ratio: live.base_hit_profile().to_vec(),
        budget_bytes: 48 * 1024,
    };
    let ups: Vec<UpdateUpload> = (0..4).map(|id| sample_upload(&rt, id)).collect();

    let mut wal = Vec::new();
    let mut log = |tag: u8, body: &dyn Fn(&mut Vec<u8>)| {
        let mut payload = vec![tag];
        body(&mut payload);
        wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wal.extend_from_slice(&coca::core::persist::crc32(&payload).to_le_bytes());
        wal.extend_from_slice(&payload);
    };
    // Two uploads queue; a request drains them; the third upload queues
    // and a leave drains it; one more upload after the last request stays
    // queued until the flush.
    for up in &ups[..2] {
        live.handle_upload(up.clone());
        log(2, &|b| up.encode(b));
    }
    let _ = live.handle_request(&req);
    log(0, &|b| req.encode(b));
    live.handle_upload(ups[2].clone());
    log(2, &|b| ups[2].encode(b));
    live.on_client_leave();
    log(4, &|_| {});
    live.handle_upload(ups[3].clone());
    log(2, &|b| ups[3].encode(b));
    assert_eq!(live.pending_uploads(), 1);
    live.flush_pending();
    log(5, &|_| {});

    let mut store = MemStorage::new();
    store.save(SNAP_CUR, &genesis);
    store.save(SNAP_PREV, &genesis);
    store.save(WAL_CUR, &wal);
    let (recovered, info) =
        CocaServer::recover(&rt, cfg, &seeds, Durability::new(Box::new(store), 64)).unwrap();
    assert_eq!(info.replayed, 7);
    assert_eq!(info.truncated_bytes, 0);
    assert_eq!(recovered.global().digest(), live.global().digest());
    assert_eq!(recovered.snapshot().to_bytes(), live.snapshot().to_bytes());
}
