//! Wire sizing, the binary message codec, and length-prefixed framing.
//!
//! Three concerns live here:
//!
//! * [`WireSize`] — how many bytes a message *logically* occupies on the
//!   wire (dense binary: f32 vectors at 4 bytes each plus small headers).
//!   The virtual-time link model charges this size. Implementations live
//!   next to each message type.
//! * [`Wire`] — the real encoding: a hand-written dense little-endian
//!   layout, implemented next to each message type and decoded through
//!   the bounds-checked [`Reader`] cursor. It carries what `WireSize`
//!   leaves out (a `u32` count per sequence, variant tags, the version
//!   byte), so a real frame runs a few percent over the priced size.
//! * [`encode_frame`]/[`decode_message`] — the byte framing the daemon
//!   speaks: a 4-byte big-endian length prefix followed by one
//!   [`Wire`]-encoded payload. [`FrameReader`] and [`write_message`] are
//!   the two ends of it over a blocking stream.
//!
//! ## Payload conventions
//!
//! Every integer and float is little-endian and fixed-width. A sequence
//! is a `u32` element count followed by the elements; the decoder checks
//! the count against the bytes left in the frame **before** allocating,
//! so a frame can never make the receiver reserve more than its own
//! length. In-memory `usize` values ship as `u64` and are range-checked
//! on the way back. A payload that ends early, runs long, or violates a
//! type's invariants decodes to [`FrameError::Codec`] — never a panic.
//! README § "Wire format" lists the layout of every message.

use std::io::{Read, Write};

use coca_math::{Precision, QuantizedStore, VectorStore};

/// Logical wire size of a message in bytes.
pub trait WireSize {
    /// Bytes this value occupies in a dense binary encoding.
    fn wire_bytes(&self) -> usize;
}

impl WireSize for Vec<f32> {
    fn wire_bytes(&self) -> usize {
        4 + self.len() * 4
    }
}

impl WireSize for Vec<f64> {
    fn wire_bytes(&self) -> usize {
        4 + self.len() * 8
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_bytes)
    }
}

/// Framing/parsing failures for the real transports.
#[derive(Debug)]
pub enum FrameError {
    /// Frame exceeds the hard cap (corrupt stream or protocol mismatch).
    TooLarge(usize),
    /// Buffer ends mid-frame where a complete message was required.
    Truncated,
    /// The length prefix disagrees with the buffer: a message-oriented
    /// frame was followed by trailing bytes.
    LengthMismatch {
        /// Bytes the frame claims (prefix + payload).
        frame_bytes: usize,
        /// Bytes actually present.
        buffer_bytes: usize,
    },
    /// Payload failed to decode.
    Codec(String),
    /// Transport failure underneath the framing (streaming readers and
    /// writers only; the buffer-oriented codecs never perform I/O).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::LengthMismatch {
                frame_bytes,
                buffer_bytes,
            } => write!(
                f,
                "length-inconsistent frame: prefix claims {frame_bytes} bytes, \
                 buffer holds {buffer_bytes}"
            ),
            FrameError::Codec(e) => write!(f, "codec error: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

// ------------------------------------------------------ payload codec ----

/// Version byte that opens every protocol message (the daemon's
/// `ClientMsg`/`ServerMsg`); a receiver rejects any other value.
pub const WIRE_VERSION: u8 = 1;

/// A value with a dense little-endian binary encoding — the payload of a
/// frame.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the cursor, advancing past it. Every
    /// invariant the type holds in memory is checked here: hostile bytes
    /// yield [`FrameError::Codec`], never a panic and never an allocation
    /// larger than the bytes left in the frame.
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// Shorthand for a [`FrameError::Codec`] result.
pub fn codec_err<T>(msg: impl Into<String>) -> Result<T, FrameError> {
    Err(FrameError::Codec(msg.into()))
}

/// Bounds-checked cursor over one frame payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Consumes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.buf.len() {
            return codec_err(format!(
                "payload ends inside a field: {n} bytes wanted, {} left",
                self.buf.len()
            ));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a sequence's `u32` element count and checks it against the
    /// bytes left — each element occupies at least `min_elem_bytes` — so
    /// the caller may size an allocation by the count it gets back.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = u32::decode(self)? as usize;
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.buf.len() => Ok(n),
            _ => codec_err(format!(
                "count {n} × {min_elem_bytes} bytes exceeds the {} left in the frame",
                self.buf.len()
            )),
        }
    }

    /// Succeeds iff the whole payload was consumed.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            codec_err(format!(
                "{} trailing bytes after the message",
                self.buf.len()
            ))
        }
    }
}

/// Appends an in-memory `usize` that ships as `u32`: a sequence count, a
/// vector dimension, a class or cache-point id.
///
/// # Panics
/// Panics if `n` exceeds `u32::MAX` — no count that large fits the 64 MiB
/// frame cap, and ids are bounded by the model's class and layer counts.
pub fn put_u32(out: &mut Vec<u8>, n: usize) {
    u32::try_from(n)
        .expect("count or id exceeds u32")
        .encode(out);
}

/// Encodes a sequence of composite values: count, then each element.
pub fn encode_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    put_u32(out, items.len());
    for item in items {
        item.encode(out);
    }
}

/// Decodes a sequence of composite values, each at least
/// `min_elem_bytes` on the wire. The vector grows as elements decode
/// rather than being sized by the count: an element's in-memory size may
/// exceed its wire size.
pub fn decode_seq<T: Wire>(
    r: &mut Reader<'_>,
    min_elem_bytes: usize,
) -> Result<Vec<T>, FrameError> {
    let n = r.count(min_elem_bytes)?;
    (0..n).map(|_| T::decode(r)).collect()
}

/// Fixed-width numbers, and vectors of them (count + packed elements).
macro_rules! wire_num {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                let raw = r.bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("bytes(n) yields n bytes")))
            }
        }

        impl Wire for Vec<$t> {
            fn encode(&self, out: &mut Vec<u8>) {
                put_u32(out, self.len());
                out.reserve(self.len() * std::mem::size_of::<$t>());
                for x in self {
                    x.encode(out);
                }
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                const W: usize = std::mem::size_of::<$t>();
                let n = r.count(W)?;
                Ok(r.bytes(n * W)?
                    .chunks_exact(W)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunks_exact(W)")))
                    .collect())
            }
        }
    )*};
}

wire_num!(u8, u32, u64, f32, f64);

/// `usize` ships as `u64`; the way back is range-checked.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let v = u64::decode(r)?;
        usize::try_from(v).or_else(|_| codec_err(format!("{v} does not fit this host's usize")))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => codec_err(format!("bool byte {other}")),
        }
    }
}

/// One presence byte (0 = `None`, 1 = `Some`), then the value.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        bool::decode(r)?.then(|| T::decode(r)).transpose()
    }
}

/// One tag byte: 0 = f32, 1 = f16, 2 = i8.
impl Wire for Precision {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::I8 => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match u8::decode(r)? {
            0 => Ok(Precision::F32),
            1 => Ok(Precision::F16),
            2 => Ok(Precision::I8),
            other => codec_err(format!("unknown precision tag {other}")),
        }
    }
}

/// `[u32 dim][u32 rows][rows · dim f32]` — the rows move as raw bytes
/// between the frame and the aligned store.
impl Wire for VectorStore {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.dim());
        put_u32(out, self.rows());
        self.extend_le_bytes(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let dim = u32::decode(r)? as usize;
        if dim == 0 {
            return match u32::decode(r)? {
                0 => Ok(VectorStore::empty()),
                rows => codec_err(format!("VectorStore: {rows} rows without a dim")),
            };
        }
        let row_bytes = dim
            .checked_mul(4)
            .ok_or_else(|| FrameError::Codec(format!("VectorStore: dim {dim} overflows")))?;
        let rows = r.count(row_bytes)?;
        VectorStore::from_le_bytes(dim, r.bytes(rows * row_bytes)?).map_err(FrameError::Codec)
    }
}

/// `[u8 precision][u32 dim][u32 rows][payload]` — the payload is the
/// store's raw codes ([`QuantizedStore::extend_le_bytes`]): `rows · dim`
/// i8 codes then `rows` f32 scales, or `rows · dim` f16 bit patterns.
impl Wire for QuantizedStore {
    fn encode(&self, out: &mut Vec<u8>) {
        self.precision().encode(out);
        put_u32(out, self.dim());
        put_u32(out, self.rows());
        self.extend_le_bytes(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let precision = Precision::decode(r)?;
        let dim = u32::decode(r)? as usize;
        let row_bytes = match precision {
            Precision::F32 => return codec_err("QuantizedStore: f32 payload"),
            Precision::F16 => dim.checked_mul(2),
            Precision::I8 => dim.checked_add(4),
        }
        .filter(|_| dim > 0)
        .ok_or_else(|| FrameError::Codec(format!("QuantizedStore: bad dim {dim}")))?;
        let rows = r.count(row_bytes)?;
        QuantizedStore::from_le_bytes(dim, rows, precision, r.bytes(rows * row_bytes)?)
            .map_err(FrameError::Codec)
    }
}

// ------------------------------------------------------------ framing ----

/// Hard cap on a single frame (64 MiB) — far above any CoCa exchange, low
/// enough to fail fast on garbage length prefixes.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes `[u32 big-endian length][payload]` for `msg` into `out`,
/// replacing its contents (the allocation is reused).
fn frame_into<T: Wire>(msg: &T, out: &mut Vec<u8>) -> Result<(), FrameError> {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    msg.encode(out);
    let len = out.len() - 4;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    out[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Decodes a payload that must be exactly one message.
fn decode_payload<T: Wire>(payload: &[u8]) -> Result<T, FrameError> {
    let mut r = Reader::new(payload);
    let msg = T::decode(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Reads the `[u32 big-endian length]` prefix at the head of `buf`.
/// Returns the whole frame's length (prefix + payload), `Ok(None)` when
/// fewer than four bytes have arrived, and [`FrameError::TooLarge`] for a
/// payload over [`MAX_FRAME_BYTES`].
fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    let Some((prefix, _)) = buf.split_first_chunk::<4>() else {
        return Ok(None);
    };
    match u32::from_be_bytes(*prefix) as usize {
        len if len > MAX_FRAME_BYTES => Err(FrameError::TooLarge(len)),
        len => Ok(Some(4 + len)),
    }
}

/// Encodes `msg` as `[u32 big-endian length][payload]` in a fresh buffer.
pub fn encode_frame<T: Wire>(msg: &T) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::new();
    frame_into(msg, &mut out)?;
    Ok(out)
}

/// Decodes exactly one complete frame occupying the whole buffer — the
/// message-oriented boundary (datagram-style transports that deliver one
/// frame per receive). Unlike the stream-oriented [`FrameReader`], for
/// which an incomplete frame means "wait for more bytes", a short or
/// length-inconsistent buffer here can never be completed and is an
/// error: [`FrameError::Truncated`] when the buffer ends mid-frame,
/// [`FrameError::LengthMismatch`] when bytes trail the frame the length
/// prefix delimits. Never panics, whatever the input.
pub fn decode_message<T: Wire>(buf: &[u8]) -> Result<T, FrameError> {
    match frame_len(buf)? {
        Some(used) if used == buf.len() => decode_payload(&buf[4..]),
        Some(used) if used < buf.len() => Err(FrameError::LengthMismatch {
            frame_bytes: used,
            buffer_bytes: buf.len(),
        }),
        _ => Err(FrameError::Truncated),
    }
}

/// First read size of a [`FrameReader`], and the floor of every later
/// one: a page, enough for any control message or small exchange.
const MIN_READ_BYTES: usize = 4096;

/// The receiving half of a framed connection: owns the stream's read half
/// and one buffer, and yields one `[u32 big-endian length][payload]`
/// message per [`FrameReader::next`] however the transport fragments or
/// coalesces frames — a socket is free to deliver a frame one byte per
/// `read`, or ten frames in one.
///
/// Every complete frame already buffered is decoded before another `read`
/// is issued, each `read` takes whatever the stream has, and a payload is
/// decoded where it landed (the same strict whole-message decode as
/// [`decode_message`], so payload errors carry the same typed causes
/// buffer callers see). The buffer is sized by the frames the connection
/// has carried: it starts at a page, keeps room for the largest frame
/// seen, and on the way to a larger one at most doubles the bytes that
/// have actually arrived — a length prefix alone never makes the receiver
/// commit memory, and one over [`MAX_FRAME_BYTES`] fails fast as
/// [`FrameError::TooLarge`] before any growth.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` holds bytes read but not yet decoded; everything
    /// past `end` is scratch for the next `read`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps the read half of a blocking stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Decodes the next message. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary (the peer closed between messages — a normal
    /// connection shutdown); a stream ending *inside* a frame is
    /// [`FrameError::Truncated`], and transport failures surface as
    /// [`FrameError::Io`]. A payload that fails to decode is consumed (the
    /// next call starts at the following frame); after any other error
    /// the stream is out of step with its framing.
    // Not `Iterator`: the caller names the message type call by call.
    #[allow(clippy::should_implement_trait)]
    pub fn next<T: Wire>(&mut self) -> Result<Option<T>, FrameError> {
        loop {
            let pending = &self.buf[self.start..self.end];
            let frame_bytes = frame_len(pending)?;
            if let Some(frame) = frame_bytes.and_then(|n| pending.get(..n)) {
                let msg = decode_payload(&frame[4..]);
                self.start += frame.len();
                return msg.map(Some);
            }
            if self.fill(frame_bytes)? == 0 {
                return if self.start == self.end {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                };
            }
        }
    }

    /// One `read` behind the pending bytes, which are an incomplete frame
    /// of `frame_bytes` (`None`: its prefix has not fully arrived).
    /// Returns the bytes read; 0 is EOF.
    fn fill(&mut self, frame_bytes: Option<usize>) -> Result<usize, FrameError> {
        // The pending tail is less than one frame: moving it to the front
        // gives the read the whole buffer.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let room = frame_bytes
            .map_or(0, |n| n.min(2 * self.end))
            .max(MIN_READ_BYTES);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Encodes `msg` into `buf` (the connection's frame scratch, reused
/// across calls), writes the frame to a blocking stream and flushes it —
/// the sending half of [`FrameReader`]. Transport failures surface as
/// [`FrameError::Io`].
pub fn write_message<W: Write, T: Wire>(
    w: &mut W,
    msg: &T,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    frame_into(msg, buf)?;
    w.write_all(buf).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in message: the framing tests need a payload, not a
    /// protocol.
    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u32,
        xs: Vec<f64>,
    }

    impl Wire for Demo {
        fn encode(&self, out: &mut Vec<u8>) {
            self.id.encode(out);
            self.xs.encode(out);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
            Ok(Self {
                id: u32::decode(r)?,
                xs: Vec::decode(r)?,
            })
        }
    }

    #[test]
    fn frame_round_trip() {
        let msg = Demo {
            id: 7,
            xs: vec![1.0, 2.5, -3.0],
        };
        let bytes = encode_frame(&msg).unwrap();
        assert_eq!(bytes.len(), 4 + 4 + 4 + 3 * 8, "prefix + id + count + xs");
        assert_eq!(decode_message::<Demo>(&bytes).unwrap(), msg);
        let mut r = FrameReader::new(&bytes[..]);
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), msg);
        assert_eq!(r.start, bytes.len(), "the frame is consumed whole");
        assert!(r.next::<Demo>().unwrap().is_none());
    }

    #[test]
    fn partial_frames_wait_for_more_data() {
        let msg = Demo {
            id: 1,
            xs: vec![0.0; 16],
        };
        let bytes = encode_frame(&msg).unwrap();
        // The first read ends inside the prefix, at its end, or inside
        // the payload: the reader asks for the rest before decoding.
        for cut in [1usize, 3, 4, bytes.len() - 1] {
            let mut r = FrameReader::new(ChunkedReader::new(bytes.clone(), vec![cut]));
            assert_eq!(r.next::<Demo>().unwrap().unwrap(), msg, "cut at {cut}");
            assert_eq!(r.inner.reads, 2, "cut at {cut} should be incomplete");
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let a = Demo { id: 1, xs: vec![] };
        let b = Demo {
            id: 2,
            xs: vec![9.0],
        };
        let mut stream = encode_frame(&a).unwrap();
        let used = stream.len();
        stream.extend_from_slice(&encode_frame(&b).unwrap());
        let mut r = FrameReader::new(&stream[..]);
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), a);
        assert_eq!(r.start, used);
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), b);
        assert_eq!(r.start, stream.len());
        assert!(r.next::<Demo>().unwrap().is_none());
    }

    #[test]
    fn message_decode_rejects_truncation_and_trailing_bytes() {
        let msg = Demo {
            id: 3,
            xs: vec![1.0, 2.0],
        };
        let bytes = encode_frame(&msg).unwrap();
        let back: Demo = decode_message(&bytes).unwrap();
        assert_eq!(back, msg);
        // Every proper prefix is Truncated — including the empty buffer
        // and a cut inside the length prefix.
        for cut in 0..bytes.len() {
            let r: Result<Demo, _> = decode_message(&bytes[..cut]);
            assert!(
                matches!(r, Err(FrameError::Truncated)),
                "cut at {cut} must be truncated"
            );
        }
        // Trailing bytes are a length inconsistency, not silently dropped.
        let mut long = bytes.clone();
        long.push(0x7f);
        let r: Result<Demo, _> = decode_message(&long);
        assert!(matches!(
            r,
            Err(FrameError::LengthMismatch {
                frame_bytes,
                buffer_bytes,
            }) if frame_bytes == bytes.len() && buffer_bytes == bytes.len() + 1
        ));
        // …and so are bytes trailing the message *inside* its frame.
        let mut padded = bytes.clone();
        padded.push(0);
        let len = (padded.len() - 4) as u32;
        padded[..4].copy_from_slice(&len.to_be_bytes());
        let r: Result<Demo, _> = decode_message(&padded);
        assert!(matches!(r, Err(FrameError::Codec(_))));
    }

    #[test]
    fn oversized_length_prefix_errors() {
        let mut garbage = u32::MAX.to_be_bytes().to_vec();
        garbage.extend_from_slice(&[0u8; 8]);
        let r: Result<Demo, _> = decode_message(&garbage);
        assert!(matches!(r, Err(FrameError::TooLarge(_))));
        let r = FrameReader::new(&garbage[..]).next::<Demo>();
        assert!(matches!(r, Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn corrupt_payload_is_a_codec_error() {
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"zzz");
        let r: Result<Demo, _> = decode_message(&buf);
        assert!(matches!(r, Err(FrameError::Codec(_))));
    }

    #[test]
    fn counts_are_checked_against_the_frame_before_allocating() {
        // A count of u32::MAX over an 8-byte-per-element sequence, in a
        // frame with nothing behind it: rejected by arithmetic alone.
        let mut payload = Vec::new();
        9u32.encode(&mut payload);
        u32::MAX.encode(&mut payload);
        let r: Result<Demo, _> = decode_payload(&payload);
        assert!(matches!(r, Err(FrameError::Codec(_))));
        // One element short is just as much an error as four billion.
        let mut r = Reader::new(&[2, 0, 0, 0, 0xAA]);
        assert!(r.count(1).is_err());
        let mut r = Reader::new(&[1, 0, 0, 0, 0xAA]);
        assert_eq!(r.count(1).unwrap(), 1);
        assert_eq!(r.bytes(1).unwrap(), [0xAA]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn scalar_tags_reject_out_of_range_bytes() {
        for (tag, want) in [
            (0u8, Precision::F32),
            (1, Precision::F16),
            (2, Precision::I8),
        ] {
            let mut out = Vec::new();
            want.encode(&mut out);
            assert_eq!(out, [tag]);
            assert_eq!(decode_payload::<Precision>(&out).unwrap(), want);
        }
        assert!(decode_payload::<Precision>(&[3]).is_err());
        assert!(decode_payload::<bool>(&[2]).is_err());
        assert!(decode_payload::<bool>(&[1]).unwrap());
        let mut out = Vec::new();
        usize::MAX.encode(&mut out);
        assert_eq!(decode_payload::<usize>(&out).unwrap(), usize::MAX);
    }

    #[test]
    fn vector_store_rows_round_trip_and_reject_bad_shapes() {
        let s = VectorStore::from_rows(&[[0.6f32, 0.8], [f32::NAN, -0.0]]);
        let mut out = Vec::new();
        s.encode(&mut out);
        assert_eq!(out.len(), 4 + 4 + 16);
        let back: VectorStore = decode_payload(&out).unwrap();
        let bits = |s: &VectorStore| s.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((back.dim(), bits(&back)), (2, bits(&s)));
        // A never-filled store and a drained one both survive.
        for s in [VectorStore::empty(), VectorStore::new(5)] {
            let mut out = Vec::new();
            s.encode(&mut out);
            assert_eq!(decode_payload::<VectorStore>(&out).unwrap(), s);
        }
        // Rows without a dim; more rows than the frame holds; a dim whose
        // row size overflows.
        let frame = |dim: u32, rows: u32, data: &[u8]| {
            let mut out = Vec::new();
            dim.encode(&mut out);
            rows.encode(&mut out);
            out.extend_from_slice(data);
            decode_payload::<VectorStore>(&out)
        };
        assert!(frame(0, 1, &[0; 4]).is_err());
        assert!(frame(2, 2, &[0; 8]).is_err());
        assert!(frame(2, u32::MAX, &[0; 8]).is_err());
        assert!(frame(u32::MAX, u32::MAX, &[]).is_err());
        assert!(frame(2, 1, &[0; 8]).is_ok());
    }

    #[test]
    fn quantized_stores_and_options_round_trip_and_reject_bad_shapes() {
        let src = VectorStore::from_rows(&[[0.6f32, -0.8], [0.0, 0.0], [1.0, 0.0]]);
        for precision in [Precision::I8, Precision::F16] {
            let q = QuantizedStore::quantize(&src, precision);
            let mut out = Vec::new();
            Some(q.clone()).encode(&mut out);
            assert_eq!(out.len(), 1 + 1 + 4 + 4 + q.bytes());
            assert_eq!(
                decode_payload::<Option<QuantizedStore>>(&out).unwrap(),
                Some(q)
            );
            // A row count the frame cannot hold, rejected before allocating.
            out[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_payload::<Option<QuantizedStore>>(&out).is_err());
        }
        assert_eq!(decode_payload::<Option<u32>>(&[0]).unwrap(), None);
        assert!(decode_payload::<Option<u32>>(&[2, 0, 0, 0, 0]).is_err());
        // An f32 "codec", a zero dim, and an unknown precision tag.
        let frame = |tag: u8, dim: u32| {
            let mut out = vec![tag];
            dim.encode(&mut out);
            0u32.encode(&mut out);
            decode_payload::<QuantizedStore>(&out)
        };
        assert!(frame(0, 4).is_err());
        assert!(frame(2, 0).is_err());
        assert!(frame(3, 4).is_err());
        assert!(frame(2, 4).is_ok());
    }

    /// A reader that hands bytes out in the given chunk sizes (then the
    /// remainder), mimicking arbitrary socket fragmentation, and counts
    /// the `read` calls it serves.
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        reads: usize,
    }

    impl ChunkedReader {
        fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
            Self {
                data,
                pos: 0,
                chunks,
                reads: 0,
            }
        }
    }

    impl std::io::Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(!buf.is_empty(), "a zero-length read cannot tell EOF apart");
            self.reads += 1;
            let cap = if self.chunks.is_empty() {
                buf.len()
            } else {
                self.chunks.remove(0).min(buf.len())
            };
            let n = cap.min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    // The six tests below kept the names they had when they covered the
    // `read_message` function `FrameReader` replaced.

    #[test]
    fn read_message_reassembles_any_split() {
        let msg = Demo {
            id: 42,
            xs: vec![1.0, -2.0, 3.5],
        };
        let bytes = encode_frame(&msg).unwrap();
        // Delivery split at every byte boundary: first `cut` bytes in one
        // chunk, the rest byte by byte (a zero-length chunk would read as
        // EOF under the `Read` contract, so cut = 0 emits none).
        for cut in 0..=bytes.len() {
            let chunks = (cut > 0)
                .then_some(cut)
                .into_iter()
                .chain(std::iter::repeat_n(1, bytes.len() - cut))
                .collect();
            let mut r = FrameReader::new(ChunkedReader::new(bytes.clone(), chunks));
            let back: Demo = r.next().unwrap().unwrap();
            assert_eq!(back, msg, "split at {cut}");
            // The stream is exhausted: the next read is a clean EOF.
            let next: Option<Demo> = r.next().unwrap();
            assert!(next.is_none(), "split at {cut}");
        }
    }

    #[test]
    fn read_message_streams_back_to_back_frames() {
        let a = Demo { id: 1, xs: vec![] };
        let b = Demo {
            id: 2,
            xs: vec![9.0],
        };
        // Large, small, large through one buffer: a shorter frame must
        // not see the tail of the longer one before it.
        let c = Demo {
            id: 3,
            xs: vec![0.25; 40],
        };
        let mut data = Vec::new();
        for m in [&c, &a, &b, &c] {
            data.extend_from_slice(&encode_frame(m).unwrap());
        }
        let mut r = FrameReader::new(ChunkedReader::new(data, vec![1; 4096]));
        for want in [&c, &a, &b, &c] {
            let got: Demo = r.next().unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(r.next::<Demo>().unwrap().is_none());
    }

    #[test]
    fn buffered_frames_all_decode_before_the_next_read() {
        let msgs: Vec<Demo> = (0..5)
            .map(|id| Demo {
                id,
                xs: vec![0.5; id as usize],
            })
            .collect();
        let mut data = Vec::new();
        for m in &msgs {
            data.extend_from_slice(&encode_frame(m).unwrap());
        }
        // One read delivers all five frames plus the first half of a
        // sixth; the second read delivers the rest.
        let tail = encode_frame(&msgs[4]).unwrap();
        let first = data.len() + tail.len() / 2;
        data.extend_from_slice(&tail);
        let mut r = FrameReader::new(ChunkedReader::new(data, vec![first]));
        for want in &msgs {
            assert_eq!(&r.next::<Demo>().unwrap().unwrap(), want);
            assert_eq!(r.inner.reads, 1, "frame {} was already buffered", want.id);
        }
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), msgs[4]);
        assert_eq!(r.inner.reads, 2);
        assert!(r.next::<Demo>().unwrap().is_none());
    }

    #[test]
    fn a_payload_error_leaves_the_stream_on_the_next_frame() {
        let good = Demo {
            id: 5,
            xs: vec![1.5],
        };
        let mut data = 3u32.to_be_bytes().to_vec();
        data.extend_from_slice(b"zzz");
        data.extend_from_slice(&encode_frame(&good).unwrap());
        let mut r = FrameReader::new(ChunkedReader::new(data, vec![]));
        assert!(matches!(r.next::<Demo>(), Err(FrameError::Codec(_))));
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), good);
    }

    #[test]
    fn read_message_rejects_mid_frame_eof_at_every_cut() {
        let msg = Demo {
            id: 3,
            xs: vec![1.0, 2.0],
        };
        let bytes = encode_frame(&msg).unwrap();
        for cut in 1..bytes.len() {
            let mut r = FrameReader::new(ChunkedReader::new(bytes[..cut].to_vec(), vec![]));
            let res: Result<Option<Demo>, _> = r.next();
            assert!(
                matches!(res, Err(FrameError::Truncated)),
                "eof at {cut} must be a torn frame"
            );
        }
    }

    #[test]
    fn read_message_caps_the_length_prefix() {
        let over_cap = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        for prefix in [u32::MAX.to_be_bytes(), over_cap] {
            // A good frame first, so "no growth" is measured on a buffer
            // that exists.
            let mut data = encode_frame(&Demo { id: 1, xs: vec![] }).unwrap();
            data.extend_from_slice(&prefix);
            data.extend_from_slice(&[0u8; 16]);
            let mut r = FrameReader::new(ChunkedReader::new(data, vec![]));
            assert!(r.next::<Demo>().unwrap().is_some());
            let before = r.buf.capacity();
            assert!(matches!(r.next::<Demo>(), Err(FrameError::TooLarge(_))));
            assert_eq!(r.buf.capacity(), before, "rejected before any growth");
        }
        // The cap itself is a legal length: the reader waits for payload.
        let mut r = FrameReader::new(ChunkedReader::new(
            (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec(),
            vec![],
        ));
        assert!(matches!(r.next::<Demo>(), Err(FrameError::Truncated)));
    }

    #[test]
    fn the_buffer_grows_with_the_bytes_that_arrive_not_the_prefix() {
        // 32 MiB announced, ten bytes delivered, then EOF.
        let mut data = (32u32 << 20).to_be_bytes().to_vec();
        data.extend_from_slice(&[7u8; 10]);
        let mut r = FrameReader::new(ChunkedReader::new(data, vec![]));
        assert!(matches!(r.next::<Demo>(), Err(FrameError::Truncated)));
        assert!(
            r.buf.capacity() <= 2 * MIN_READ_BYTES,
            "{} bytes committed for 14 received",
            r.buf.capacity()
        );
        // A frame that does arrive grows the buffer to fit it — by at most
        // doubling what is already there — and the buffer then stays.
        let big = Demo {
            id: 9,
            xs: vec![0.125; 5000],
        };
        let frame = encode_frame(&big).unwrap();
        let mut data = frame.clone();
        data.extend_from_slice(&frame);
        let mut r = FrameReader::new(ChunkedReader::new(data, vec![]));
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), big);
        let (reads, len) = (r.inner.reads, r.buf.len());
        assert!(len >= frame.len() && len <= 2 * frame.len());
        assert!(reads > 1, "a first 40 KB frame is not read on trust");
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), big);
        assert_eq!(r.inner.reads, reads + 1, "the second one is one read");
        assert_eq!(r.buf.len(), len);
    }

    #[test]
    fn read_message_surfaces_transport_errors() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "boom",
                ))
            }
        }
        let res: Result<Option<Demo>, _> = FrameReader::new(FailingReader).next();
        assert!(matches!(res, Err(FrameError::Io(_))));
    }

    #[test]
    fn write_message_round_trips_through_read_message() {
        let msg = Demo {
            id: 9,
            xs: vec![0.5],
        };
        let mut wire: Vec<u8> = Vec::new();
        let mut scratch = vec![0xEE; 64]; // stale contents are replaced
        write_message(&mut wire, &msg, &mut scratch).unwrap();
        assert_eq!(wire, encode_frame(&msg).unwrap());
        let mut r = FrameReader::new(std::io::Cursor::new(wire));
        assert_eq!(r.next::<Demo>().unwrap().unwrap(), msg);
    }

    #[test]
    fn wire_size_of_vectors() {
        let v: Vec<f32> = vec![0.0; 128];
        assert_eq!(v.wire_bytes(), 4 + 512);
        let o: Option<Vec<f32>> = None;
        assert_eq!(o.wire_bytes(), 1);
        let o = Some(v);
        assert_eq!(o.wire_bytes(), 1 + 4 + 512);
    }
}
