//! Property tests for the binary frame codec (`coca::net::wire::Wire`).
//!
//! * **Round trips.** Random requests, allocations, uploads and peer
//!   deltas — random dimensions and class counts, f32/f16/i8 worlds,
//!   empty tables, NaN/±inf/−0.0 lanes — come back bit for bit: the
//!   decoded value is the one that went in, update tables read in
//!   canonical `(layer, class)` order.
//! * **Streaming.** Any sequence of frames, cut into any chunks by the
//!   transport, comes out of `FrameReader` as the messages
//!   `decode_message` yields frame by frame, in order.
//! * **Hostile bytes.** Mutated, truncated and length-inconsistent
//!   frames decode or error through `Result`, never panic; a count field
//!   overwritten with `u32::MAX` is a typed error, not an allocation.
//! * **Preserved checks.** One negative test per decode-time check the
//!   JSON boundary had, plus the ones binary adds (variant tag, version
//!   byte, trailing bytes).
//!
//! The vendored proptest shim has no byte-vector strategies, so inputs
//! derive from seeded RNGs — every case replays from its scalar
//! parameters.

use coca::core::collect::UpdateTable;
use coca::core::proto::{CacheAllocation, CacheRequest, PeerDelta, PeerDeltaEntry, UpdateUpload};
use coca::core::semantic::CacheLayer;
use coca::daemon::{ClientMsg, ServerMsg};
use coca::math::{random_unit, Precision};
use coca::net::wire::WIRE_VERSION;
use coca::net::{decode_message, encode_frame, FrameError, FrameReader, Wire};
use coca::prelude::*;
use proptest::prelude::*;
use rand::Rng;

// ------------------------------------------------------- generators ----

/// Lanes a float codec gets wrong first.
const ODD_F32: [f32; 6] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    f32::MIN_POSITIVE / 2.0, // subnormal
    f32::MAX,
];

fn precision(rng: &mut impl Rng) -> Precision {
    [Precision::F32, Precision::F16, Precision::I8][rng.gen_range(0..3usize)]
}

/// `n` distinct ids below `bound`, in random order.
fn distinct(rng: &mut impl Rng, n: usize, bound: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = Vec::new();
    while ids.len() < n {
        let id = rng.gen_range(0..bound);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

fn request(rng: &mut impl Rng) -> CacheRequest {
    let hit_ratio = (0..rng.gen_range(0..40))
        .map(|_| match rng.gen_range(0..8) {
            0 => f64::from(ODD_F32[rng.gen_range(0..ODD_F32.len())]),
            1 => f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
            _ => rng.gen_range(-1.0..2.0),
        })
        .collect();
    CacheRequest {
        client_id: rng.gen(),
        round: rng.gen(),
        timestamps: (0..rng.gen_range(0..120)).map(|_| rng.gen()).collect(),
        hit_ratio,
        budget_bytes: rng.gen(),
    }
}

/// A table absorbed in random cell order (so the wire has to sort it),
/// some vectors carrying NaN and −0.0 lanes, snapped onto `precision`'s
/// grid the way a quantized sender does. May be empty.
fn table(rng: &mut impl Rng, precision: Precision) -> UpdateTable {
    let mut t = UpdateTable::new();
    let layers = rng.gen_range(0..4);
    for layer in distinct(rng, layers, 40) {
        let dim = rng.gen_range(1..34);
        let cells = rng.gen_range(1..12);
        for class in distinct(rng, cells, 200) {
            let mut v = random_unit(rng, dim);
            match rng.gen_range(0..6) {
                0 => v[rng.gen_range(0..dim)] = f32::NAN, // poisons the row
                1 => v[rng.gen_range(0..dim)] = -0.0,
                _ => {}
            }
            t.absorb(class, layer, &v, 0.95);
        }
    }
    t.quantize_in_place(precision);
    t
}

/// A table with raw odd lanes (±inf, subnormals, NaN payloads), which
/// `absorb`'s normalization would wash out: decoded from a hand-assembled
/// `Wire` layer group, the only public constructor that takes rows
/// verbatim.
fn raw_table(rng: &mut impl Rng) -> UpdateTable {
    let dim: usize = rng.gen_range(1..9);
    let cells: usize = rng.gen_range(1..6);
    let mut classes: Vec<u32> = distinct(rng, cells, 50)
        .into_iter()
        .map(|c| c as u32)
        .collect();
    classes.sort_unstable();
    let floats: Vec<f32> = (0..cells * dim)
        .map(|_| match rng.gen_range(0..3) {
            0 => ODD_F32[rng.gen_range(0..ODD_F32.len())],
            1 => f32::from_bits(0x7fc0_1234),
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect();
    let mut p = Vec::new();
    1u32.encode(&mut p); // one layer group: layer 3
    3u32.encode(&mut p);
    put_u32s(&mut p, &classes);
    put_store(&mut p, dim as u32, cells as u32, &floats);
    decode_message(&frame(&p)).expect("ascending cells, one dim")
}

fn upload(rng: &mut impl Rng) -> UpdateUpload {
    let precision = precision(rng);
    UpdateUpload {
        client_id: rng.gen(),
        round: rng.gen(),
        table: if rng.gen_range(0..4) == 0 {
            raw_table(rng)
        } else {
            table(rng, precision)
        },
        frequency: (0..rng.gen_range(0..60)).map(|_| rng.gen()).collect(),
        precision,
    }
}

/// Unit rows (what the server extracts), the odd zero row (degenerate but
/// legal), layers in random point order, the odd empty layer.
fn allocation(rng: &mut impl Rng) -> CacheAllocation {
    let n = rng.gen_range(0..5);
    let layers = distinct(rng, n, 60)
        .into_iter()
        .map(|point| {
            let mut layer = CacheLayer::new(point);
            let dim = rng.gen_range(1..40);
            let entries = rng.gen_range(0..10);
            for class in distinct(rng, entries, 300) {
                let row = match rng.gen_range(0..8) {
                    0 => vec![0.0; dim],
                    1 => vec![-0.0; dim],
                    _ => random_unit(rng, dim),
                };
                layer.insert(class, row);
            }
            layer
        })
        .collect();
    CacheAllocation {
        round: rng.gen(),
        cache: LocalCache::from_layers(layers),
        precision: precision(rng),
    }
}

fn peer_delta(rng: &mut impl Rng) -> PeerDelta {
    let precision = precision(rng);
    let n = rng.gen_range(0..4);
    PeerDelta {
        from_cell: rng.gen(),
        precision,
        entries: distinct(rng, n, 9)
            .into_iter()
            .map(|origin| PeerDeltaEntry {
                origin: origin as u32,
                table: table(rng, precision),
                frequency: (0..rng.gen_range(0..30)).map(|_| rng.gen()).collect(),
            })
            .collect(),
    }
}

// ------------------------------------------------- field-for-field view ----

/// A message flattened to integers: every field, every length, every
/// float by its bits. Two messages are the same value iff their views
/// are equal; an update table is read in `(layer, class)` order, the
/// order the codec writes whatever order its cells were absorbed in.
#[derive(Debug, PartialEq)]
struct View(Vec<u64>);

impl View {
    fn u(&mut self, x: u64) {
        self.0.push(x);
    }
    fn f32s(&mut self, xs: &[f32]) {
        self.u(xs.len() as u64);
        self.0.extend(xs.iter().map(|x| u64::from(x.to_bits())));
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.u(xs.len() as u64);
        self.0.extend(xs.iter().map(|x| x.to_bits()));
    }
    fn u64s(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.u(xs.len() as u64);
        self.0.extend(xs);
    }
    fn table(&mut self, t: &UpdateTable) {
        self.u(t.layer_groups().len() as u64);
        for g in t.layer_groups() {
            let mut rows: Vec<usize> = (0..g.len()).collect();
            rows.sort_unstable_by_key(|&i| g.classes[i]);
            self.u(g.layer.into());
            self.u(g.vectors.dim() as u64);
            self.u(rows.len() as u64);
            for i in rows {
                self.u(g.classes[i].into());
                self.f32s(g.vectors.row(i));
            }
        }
    }
    fn precision(&mut self, p: Precision) {
        self.u(p as u64);
    }
}

trait Viewed {
    fn view_into(&self, v: &mut View);
    fn view(&self) -> View {
        let mut v = View(Vec::new());
        self.view_into(&mut v);
        v
    }
}

impl Viewed for CacheRequest {
    fn view_into(&self, v: &mut View) {
        v.u(self.client_id);
        v.u(self.round);
        v.u64s(self.timestamps.iter().map(|&t| t.into()));
        v.f64s(&self.hit_ratio);
        v.u(self.budget_bytes);
    }
}

impl Viewed for CacheAllocation {
    fn view_into(&self, v: &mut View) {
        v.u(self.round);
        v.u(self.cache.num_layers() as u64);
        for l in self.cache.layers() {
            v.u(l.point as u64);
            v.u64s(l.classes.iter().map(|&c| c as u64));
            v.u(l.vectors.dim() as u64);
            v.f32s(l.vectors.as_flat());
        }
        v.precision(self.precision);
    }
}

impl Viewed for UpdateUpload {
    fn view_into(&self, v: &mut View) {
        v.u(self.client_id);
        v.u(self.round);
        v.table(&self.table);
        v.u64s(self.frequency.iter().copied());
        v.precision(self.precision);
    }
}

impl Viewed for PeerDelta {
    fn view_into(&self, v: &mut View) {
        v.u(self.from_cell.into());
        v.precision(self.precision);
        v.u(self.entries.len() as u64);
        for e in &self.entries {
            v.u(e.origin.into());
            v.table(&e.table);
            v.u64s(e.frequency.iter().copied());
        }
    }
}

/// The codec contract for one message: the frame decodes to the value
/// that went in, a second trip through the wire changes nothing at all,
/// and the stream and message boundaries agree — the stream consumes
/// the frame whole and then ends.
fn check_round_trip<T: Wire + Viewed>(msg: &T) -> Result<T, TestCaseError> {
    let frame = encode_frame(msg).unwrap();
    let back: T = decode_message(&frame).unwrap();
    prop_assert_eq!(back.view(), msg.view());
    let again: T = decode_message(&encode_frame(&back).unwrap()).unwrap();
    prop_assert_eq!(again.view(), back.view());
    let mut stream = FrameReader::new(&frame[..]);
    let streamed: T = stream.next().unwrap().unwrap();
    prop_assert!(stream.next::<T>().unwrap().is_none());
    prop_assert_eq!(streamed.view(), back.view());
    Ok(back)
}

/// Layers ascending, rows ascending by class: the order a decoded table
/// is in, whatever order the sender absorbed its cells in.
fn canonical(t: &UpdateTable) -> bool {
    t.layer_groups().windows(2).all(|w| w[0].layer < w[1].layer)
        && t.layer_groups()
            .iter()
            .all(|g| g.classes.windows(2).all(|w| w[0] < w[1]))
}

proptest! {
    #[test]
    fn random_messages_round_trip_bit_exactly(seed in 0u64..4000) {
        let mut rng = SeedTree::new(seed).rng_for("wire-round-trip");
        check_round_trip(&request(&mut rng))?;
        check_round_trip(&allocation(&mut rng))?;
        let back = check_round_trip(&upload(&mut rng))?;
        prop_assert!(canonical(&back.table));
        let back = check_round_trip(&peer_delta(&mut rng))?;
        for e in &back.entries {
            prop_assert!(canonical(&e.table));
        }
    }
}

// -------------------------------------------------- streaming reader ----

/// A stream that serves each `read` at most the next scripted size (the
/// script exhausted: whatever the caller has room for).
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: std::vec::IntoIter<usize>,
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.data.len() - self.pos;
        let n = self.sizes.next().unwrap_or(left).min(left).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Reads the next message as `T` and checks it against the frame it was
/// sent in, decoded on its own.
fn next_matches<T: Wire + Viewed>(
    r: &mut FrameReader<Chunked>,
    frame: &[u8],
) -> Result<(), TestCaseError> {
    let streamed: T = r.next().unwrap().expect("a frame, not EOF");
    let whole: T = decode_message(frame).unwrap();
    prop_assert_eq!(streamed.view(), whole.view());
    Ok(())
}

proptest! {
    #[test]
    fn frame_reader_yields_the_sent_messages_under_any_chunking(
        seed in 0u64..1500,
        style in 0usize..4,
    ) {
        let mut rng = SeedTree::new(seed).rng_for("wire-stream");
        let frames: Vec<(usize, Vec<u8>)> = (0..rng.gen_range(1..7))
            .map(|_| {
                let kind = rng.gen_range(0..3usize);
                let frame = match kind {
                    0 => encode_frame(&request(&mut rng)),
                    1 => encode_frame(&allocation(&mut rng)),
                    _ => encode_frame(&upload(&mut rng)),
                };
                (kind, frame.unwrap())
            })
            .collect();
        let data = frames.iter().flat_map(|(_, f)| f.iter().copied()).collect::<Vec<u8>>();
        // Byte by byte; slivers that split the 4-byte length prefixes;
        // reads that straddle several frames; all at once.
        let sizes: Vec<usize> = match style {
            0 => vec![1; data.len()],
            1 => (0..data.len()).map(|_| rng.gen_range(1..4)).collect(),
            2 => (0..data.len()).map(|_| rng.gen_range(1..6000)).collect(),
            _ => Vec::new(),
        };
        let mut r = FrameReader::new(Chunked { data, pos: 0, sizes: sizes.into_iter() });
        for (kind, frame) in &frames {
            match kind {
                0 => next_matches::<CacheRequest>(&mut r, frame)?,
                1 => next_matches::<CacheAllocation>(&mut r, frame)?,
                _ => next_matches::<UpdateUpload>(&mut r, frame)?,
            }
        }
        prop_assert!(r.next::<CacheRequest>().unwrap().is_none(), "clean EOF after the last frame");
    }
}

// ----------------------------------------------------- hostile bytes ----

/// A realistic allocation frame: an actual extracted sub-table from a
/// seeded server (unit-norm rows, sorted layers — everything the
/// decoder's validators check).
fn sample_allocation() -> CacheAllocation {
    let sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    let scenario = Scenario::build(sc);
    let server = CocaServer::new(
        &scenario.rt,
        CocaConfig::for_model(ModelId::ResNet101),
        scenario.seeds(),
    );
    CacheAllocation {
        round: 3,
        cache: server.cache_for(&[1, 5, 9], &[0, 2, 4, 7]),
        precision: Precision::F32,
    }
}

fn sample_request() -> CacheRequest {
    CacheRequest {
        client_id: 11,
        round: 2,
        timestamps: vec![4; 10],
        hit_ratio: vec![0.25; 34],
        budget_bytes: 96 * 1024,
    }
}

fn sample_table() -> UpdateTable {
    let mut table = UpdateTable::new();
    table.absorb(2, 5, &[0.6, 0.8], 0.95);
    table.absorb(7, 5, &[1.0, 0.0], 0.95);
    table.absorb(1, 9, &[0.0, -1.0], 0.95);
    table
}

fn sample_upload() -> UpdateUpload {
    UpdateUpload {
        client_id: 4,
        round: 1,
        table: sample_table(),
        frequency: vec![3; 10],
        precision: Precision::F32,
    }
}

fn sample_delta() -> PeerDelta {
    PeerDelta {
        from_cell: 1,
        precision: Precision::F16,
        entries: vec![PeerDeltaEntry {
            origin: 0,
            table: sample_table(),
            frequency: vec![5; 10],
        }],
    }
}

/// Decodes `bytes` as every frame type through both decode boundaries:
/// a stream of frames read to its end, and one whole message. Success and
/// error are both fine; a panic fails the test.
fn decode_all_ways(bytes: &[u8]) {
    fn both<T: Wire>(bytes: &[u8]) {
        let mut stream = FrameReader::new(bytes);
        while let Ok(Some(_)) = stream.next::<T>() {}
        let _ = decode_message::<T>(bytes);
    }
    both::<CacheRequest>(bytes);
    both::<CacheAllocation>(bytes);
    both::<UpdateUpload>(bytes);
    both::<PeerDelta>(bytes);
    both::<ClientMsg>(bytes);
    both::<ServerMsg>(bytes);
}

/// Encoded once — building the allocation's server is expensive and the
/// frames are immutable inputs; every case copies before corrupting.
/// Bare protocol structs first, then the same payloads as the daemon
/// ships them (inside `ClientMsg`/`ServerMsg`).
fn valid_frames() -> &'static [Vec<u8>] {
    use std::sync::OnceLock;
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        vec![
            encode_frame(&sample_request()).unwrap(),
            encode_frame(&sample_allocation()).unwrap(),
            encode_frame(&sample_upload()).unwrap(),
            encode_frame(&sample_delta()).unwrap(),
            encode_frame(&ClientMsg::Request(sample_request())).unwrap(),
            encode_frame(&ClientMsg::Upload(sample_upload())).unwrap(),
            encode_frame(&ClientMsg::Peer(sample_delta())).unwrap(),
            encode_frame(&ServerMsg::Alloc(sample_allocation())).unwrap(),
        ]
    })
}

proptest! {
    /// Random in-place byte corruption of valid frames never panics any
    /// decode path — including corruption of the 4-byte length prefix.
    #[test]
    fn mutated_frames_never_panic(seed in 0u64..3000, mutations in 1usize..24) {
        let mut rng = SeedTree::new(seed).rng_for("mutate");
        for frame in valid_frames() {
            let mut bytes = frame.clone();
            for _ in 0..mutations {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen();
            }
            decode_all_ways(&bytes);
        }
    }

    /// Every truncation of a valid frame decodes without panicking: a
    /// stream that ends there is a torn frame (or, cut at 0, a clean EOF),
    /// the message boundary errors.
    #[test]
    fn truncated_frames_never_panic(seed in 0u64..500) {
        let mut rng = SeedTree::new(seed).rng_for("cut");
        for frame in valid_frames() {
            let cut = rng.gen_range(0..frame.len());
            let head = &frame[..cut];
            decode_all_ways(head);
            prop_assert!(decode_message::<CacheRequest>(head).is_err());
            let streamed = FrameReader::new(head).next::<CacheRequest>();
            prop_assert!(match cut {
                0 => matches!(streamed, Ok(None)),
                _ => matches!(streamed, Err(FrameError::Truncated)),
            });
        }
    }

    /// Splicing random trailing bytes after a valid frame: the stream
    /// boundary still decodes the frame, the message boundary reports the
    /// length inconsistency — and neither panics.
    #[test]
    fn length_inconsistent_buffers_never_panic(seed in 0u64..500, extra in 1usize..64) {
        let mut rng = SeedTree::new(seed).rng_for("pad");
        for frame in valid_frames() {
            let mut bytes = frame.clone();
            for _ in 0..extra {
                bytes.push(rng.gen());
            }
            decode_all_ways(&bytes);
            prop_assert!(decode_message::<UpdateUpload>(&bytes).is_err());
        }
    }
}

/// The unmutated frames round-trip — the mutation tests above would be
/// vacuous against frames that never decoded in the first place.
#[test]
fn valid_frames_round_trip() {
    let req_bytes = encode_frame(&sample_request()).unwrap();
    let req: CacheRequest = decode_message(&req_bytes).unwrap();
    assert_eq!(req.client_id, 11);
    assert_eq!(req.hit_ratio.len(), 34);

    let alloc_bytes = encode_frame(&sample_allocation()).unwrap();
    let alloc: CacheAllocation = decode_message(&alloc_bytes).unwrap();
    assert_eq!(alloc.round, 3);
    assert!(!alloc.cache.is_empty());

    let up_bytes = encode_frame(&sample_upload()).unwrap();
    let up: UpdateUpload = decode_message(&up_bytes).unwrap();
    assert_eq!(up.table.len(), 3);

    let delta_bytes = encode_frame(&sample_delta()).unwrap();
    let delta: PeerDelta = decode_message(&delta_bytes).unwrap();
    assert_eq!(delta.entries[0].table.len(), 3);
}

/// Overwrites 4 bytes at every offset of every valid frame's payload with
/// `u32::MAX`. Wherever that lands on a count, a dimension or a row
/// count, the decoder must answer with a typed error — it may not trust
/// the number with an allocation (a 4-billion-element `with_capacity`
/// would abort the test) or index past the frame. Offsets that are not
/// counts just make other garbage, which must not panic either.
#[test]
fn inflated_counts_are_typed_errors_not_allocations() {
    for frame in valid_frames() {
        for at in 4..frame.len() - 3 {
            let mut bytes = frame.clone();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            decode_all_ways(&bytes);
        }
    }

    // The count fields of each struct, by the layout README § "Wire
    // format" documents (offsets into the frame, after the 4-byte
    // prefix): each one, inflated, fails its own message's decode.
    fn assert_counts_rejected<T: Wire>(msg: &T, count_offsets: &[usize]) {
        let frame = encode_frame(msg).unwrap();
        for &at in count_offsets {
            let mut bytes = frame.clone();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(
                matches!(decode_message::<T>(&bytes), Err(FrameError::Codec(_))),
                "count at {at} trusted"
            );
        }
    }
    // client, round | τ count, 10 × τ | R count …
    assert_counts_rejected(&sample_request(), &[4 + 16, 4 + 16 + 4 + 40]);
    // client, round | layer count | layer 5: id, class count, 2 classes,
    // dim, rows, 2 × 2 f32 | layer 9: id, class count, 1 class, dim, rows,
    // 1 × 2 f32 | φ count …
    let table_at = 4 + 16;
    let l5 = table_at + 4;
    let l9 = l5 + 4 + 4 + 8 + 4 + 4 + 16;
    let phi = l9 + 4 + 4 + 4 + 4 + 4 + 8;
    assert_counts_rejected(
        &sample_upload(),
        &[
            table_at,
            l5 + 4,
            l5 + 16,
            l5 + 20,
            l9 + 4,
            l9 + 12,
            l9 + 16,
            phi,
        ],
    );
    // round | layer count | layer: point, class count …
    assert_counts_rejected(&sample_allocation(), &[4 + 8, 4 + 8 + 4 + 4]);
    // from_cell, precision | entry count | origin | table's layer count …
    assert_counts_rejected(&sample_delta(), &[4 + 5, 4 + 5 + 4 + 4]);
}

// ------------------------------------- one negative test per check ----

/// Wraps a hand-built payload in a length prefix.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// Appends `[u32 n][n × u32]`.
fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    (xs.len() as u32).encode(out);
    for x in xs {
        x.encode(out);
    }
}

/// Appends a store: `[u32 dim][u32 rows][floats]`.
fn put_store(out: &mut Vec<u8>, dim: u32, rows: u32, floats: &[f32]) {
    dim.encode(out);
    rows.encode(out);
    for x in floats {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// An allocation payload of the given `(point, classes, dim, floats)`
/// layers.
fn allocation_payload(layers: &[(u32, &[u32], u32, &[f32])], precision: u8) -> Vec<u8> {
    let mut p = Vec::new();
    7u64.encode(&mut p);
    (layers.len() as u32).encode(&mut p);
    for &(point, classes, dim, floats) in layers {
        point.encode(&mut p);
        put_u32s(&mut p, classes);
        put_store(&mut p, dim, classes.len() as u32, floats);
    }
    p.push(precision);
    p
}

/// An upload payload of the given `(layer, classes, dim, floats)` groups.
fn upload_payload(groups: &[(u32, &[u32], u32, &[f32])]) -> Vec<u8> {
    let mut p = Vec::new();
    4u64.encode(&mut p);
    1u64.encode(&mut p);
    (groups.len() as u32).encode(&mut p);
    for &(layer, classes, dim, floats) in groups {
        layer.encode(&mut p);
        put_u32s(&mut p, classes);
        put_store(&mut p, dim, classes.len() as u32, floats);
    }
    put_u32s(&mut p, &[]); // φ: count 0 (u64 elements, none present)
    p.push(0);
    p
}

fn codec_error<T: Wire>(payload: &[u8]) -> String {
    match decode_message::<T>(&frame(payload)) {
        Err(FrameError::Codec(why)) => why,
        Err(other) => panic!("expected a codec error, got {other}"),
        Ok(_) => panic!("hostile payload decoded"),
    }
}

#[test]
fn allocation_rows_must_be_unit_norm_and_parallel_to_classes() {
    let ok = allocation_payload(&[(1, &[7, 9], 2, &[0.6, 0.8, 0.0, 0.0])], 0);
    let alloc: CacheAllocation = decode_message(&frame(&ok)).unwrap();
    assert_eq!(alloc.cache.layers()[0].vector_for(7).unwrap(), [0.6, 0.8]);
    let non_unit = allocation_payload(&[(1, &[7], 2, &[3.0, 4.0])], 0);
    assert!(codec_error::<CacheAllocation>(&non_unit).contains("not unit-norm"));
    let nan = allocation_payload(&[(1, &[7], 2, &[f32::NAN, 0.0])], 0);
    assert!(codec_error::<CacheAllocation>(&nan).contains("not unit-norm"));
    // Two classes, one row.
    let mut ragged = Vec::new();
    7u64.encode(&mut ragged);
    1u32.encode(&mut ragged);
    1u32.encode(&mut ragged);
    put_u32s(&mut ragged, &[7, 9]);
    put_store(&mut ragged, 2, 1, &[1.0, 0.0]);
    ragged.push(0);
    assert!(codec_error::<CacheAllocation>(&ragged).contains("2 classes vs 1 vector rows"));
}

#[test]
fn allocation_layers_are_canonicalized_and_duplicate_points_rejected() {
    let unsorted = allocation_payload(&[(5, &[], 0, &[]), (1, &[], 0, &[])], 0);
    let alloc: CacheAllocation = decode_message(&frame(&unsorted)).unwrap();
    assert_eq!(alloc.cache.activated_points(), [1, 5]);
    let dup = allocation_payload(&[(2, &[], 0, &[]), (2, &[], 0, &[])], 0);
    assert!(codec_error::<CacheAllocation>(&dup).contains("duplicate cache layer"));
}

#[test]
fn update_tables_reject_duplicate_cells() {
    let unit = [1.0, 0.0, 0.0, 1.0];
    let ok = upload_payload(&[(5, &[2, 7], 2, &unit)]);
    assert_eq!(
        decode_message::<UpdateUpload>(&frame(&ok))
            .unwrap()
            .table
            .len(),
        2
    );
    let dup = upload_payload(&[(5, &[2, 2], 2, &unit)]);
    assert!(codec_error::<UpdateUpload>(&dup).contains("duplicate or out-of-order cell (2, 5)"));
    // The canonical order is part of the format: the decoder never has
    // to sort, and a frame has exactly one reading.
    let unsorted = upload_payload(&[(5, &[7, 2], 2, &unit)]);
    assert!(codec_error::<UpdateUpload>(&unsorted).contains("out-of-order cell"));
}

#[test]
fn update_tables_reject_mixed_dims_in_a_layer() {
    // One store per group fixes one dimension per group, so the only way
    // to give layer 5 cells of two widths is to open the layer twice —
    // which the format rules out, same dims or not.
    let mixed = upload_payload(&[(5, &[2], 2, &[1.0, 0.0]), (5, &[7], 1, &[1.0])]);
    assert!(codec_error::<UpdateUpload>(&mixed).contains("layer 5 repeats"));
    let backwards = upload_payload(&[(9, &[2], 1, &[1.0]), (5, &[7], 1, &[1.0])]);
    assert!(codec_error::<UpdateUpload>(&backwards).contains("out of order"));
}

#[test]
fn update_tables_reject_empty_vectors_and_ragged_groups() {
    // A cell whose vector has no lanes: rows without a dimension.
    let empty_vector = upload_payload(&[(5, &[2], 0, &[])]);
    assert!(codec_error::<UpdateUpload>(&empty_vector).contains("without a dim"));
    // A group with no cells at all.
    let no_cells = upload_payload(&[(5, &[], 2, &[])]);
    assert!(codec_error::<UpdateUpload>(&no_cells).contains("0 classes"));
    // Two classes, one row.
    let mut ragged = Vec::new();
    4u64.encode(&mut ragged);
    1u64.encode(&mut ragged);
    1u32.encode(&mut ragged);
    5u32.encode(&mut ragged);
    put_u32s(&mut ragged, &[2, 7]);
    put_store(&mut ragged, 2, 1, &[1.0, 0.0]);
    put_u32s(&mut ragged, &[]);
    ragged.push(0);
    assert!(codec_error::<UpdateUpload>(&ragged).contains("2 classes vs 1 vector rows"));
}

#[test]
fn precision_tags_out_of_range_are_rejected() {
    for tag in 0..=2 {
        let p = allocation_payload(&[], tag);
        assert!(decode_message::<CacheAllocation>(&frame(&p)).is_ok());
    }
    let p = allocation_payload(&[], 3);
    assert!(codec_error::<CacheAllocation>(&p).contains("unknown precision tag 3"));
}

#[test]
fn unknown_variant_tags_and_version_bytes_are_rejected() {
    assert!(decode_message::<ClientMsg>(&frame(&[WIRE_VERSION, 3])).is_ok());
    assert!(codec_error::<ClientMsg>(&[WIRE_VERSION, 9]).contains("unknown ClientMsg tag 9"));
    assert!(codec_error::<ServerMsg>(&[WIRE_VERSION, 200]).contains("unknown ServerMsg tag 200"));
    assert!(codec_error::<ClientMsg>(&[WIRE_VERSION + 1, 3]).contains("protocol version"));
    assert!(codec_error::<ServerMsg>(&[0, 3]).contains("protocol version"));
    // The old frames opened with `{` or `"`.
    assert!(codec_error::<ClientMsg>(b"\"Flush\"").contains("protocol version"));
}

#[test]
fn trailing_bytes_inside_a_frame_are_rejected() {
    let mut p = Vec::new();
    sample_request().encode(&mut p);
    assert!(decode_message::<CacheRequest>(&frame(&p)).is_ok());
    p.push(0);
    assert!(codec_error::<CacheRequest>(&p).contains("1 trailing bytes"));
    assert!(codec_error::<ClientMsg>(&[WIRE_VERSION, 3, 0]).contains("trailing"));
    // …and bytes trailing the frame itself are a length mismatch.
    let mut long = frame(&[WIRE_VERSION, 3]);
    long.push(0);
    assert!(matches!(
        decode_message::<ClientMsg>(&long),
        Err(FrameError::LengthMismatch { .. })
    ));
}
