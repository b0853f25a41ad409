//! Quantized vector storage for the data that *moves*: wire frames and
//! global-table layers.
//!
//! The fused kernels stay f32 — quantized rows are **dequantized on
//! read** into the existing kernels. Two codecs:
//!
//! * **i8 with a per-row scale** — 4× smaller than f32 (plus 4 bytes of
//!   scale per row). Codes are `round(x / scale)` clamped to ±127 with
//!   `scale = max|x| / 127`; a quantize→dequantize round trip moves each
//!   element by at most half a step (`≤ max|x| / 254`, property-tested).
//! * **f16 (IEEE 754 binary16)** — 2× smaller, hand-rolled conversion
//!   with round-to-nearest-even (no external crates; the vendored shim
//!   policy). Relative error ≤ 2⁻¹¹ for normal values.
//!
//! Quantization is **opt-in and explicit**: `Precision::F32` is the
//! default everywhere and the committed-record reference. A value that
//! has been quantized and dequantized re-quantizes to the same codes
//! (snapping is idempotent), which is what lets a sender transmit
//! *snapped* f32 values while pricing the link at the quantized width.

use serde::{Deserialize, Serialize};

use crate::store::VectorStore;

/// Storage precision of a wire frame or global-table layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Dense f32 — the default and the record-regeneration reference.
    #[default]
    F32,
    /// IEEE 754 binary16, round-to-nearest-even (2× smaller).
    F16,
    /// i8 codes with one f32 scale per row (≈4× smaller).
    I8,
}

impl Precision {
    /// Parses a [`Precision::label`] (`"f32"`, `"f16"`, `"i8"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Self::F32),
            "f16" => Some(Self::F16),
            "i8" => Some(Self::I8),
            _ => None,
        }
    }

    /// The lower-case label (`"f32"` / `"f16"` / `"i8"`).
    pub fn label(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::F16 => "f16",
            Self::I8 => "i8",
        }
    }

    /// Payload bytes of `rows` rows of dimension `dim` at this
    /// precision (i8 carries one f32 scale per row).
    pub fn payload_bytes(self, rows: usize, dim: usize) -> usize {
        match self {
            Self::F32 => rows * dim * 4,
            Self::F16 => rows * dim * 2,
            Self::I8 => rows * (dim + 4),
        }
    }
}

// ------------------------------------------------------------ f16 codec ----

/// f32 → IEEE 754 binary16 bits, round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp = (b >> 23) & 0xff;
    let man = b & 0x007f_ffff;
    if exp == 0xff {
        // Inf stays Inf; any NaN becomes the canonical quiet NaN.
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }
    let unbiased = exp as i32 - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → Inf
    }
    if unbiased >= -14 {
        // Normal half: 10 mantissa bits survive; RNE on the 13 dropped.
        let mut out = (((unbiased + 15) as u16) << 10) | (man >> 13) as u16;
        let rem = man & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && out & 1 == 1) {
            out += 1; // a carry correctly rolls into the exponent
        }
        return sign | out;
    }
    if unbiased >= -25 {
        // Subnormal half: shift the hidden bit into range, RNE.
        let full = man | 0x0080_0000;
        let shift = (13 + (-14 - unbiased)) as u32;
        let mut out = (full >> shift) as u16;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && out & 1 == 1) {
            out += 1;
        }
        return sign | out;
    }
    sign // underflow → signed zero
}

/// IEEE 754 binary16 bits → f32 (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign32 = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    if exp == 0 {
        // Subnormal or zero: man · 2⁻²⁴, exact in f32.
        let mag = man as f32 * (1.0 / 16_777_216.0);
        return if sign32 != 0 { -mag } else { mag };
    }
    if exp == 0x1f {
        return f32::from_bits(sign32 | 0x7f80_0000 | (man << 13));
    }
    f32::from_bits(sign32 | ((exp as u32 + 112) << 23) | (man << 13))
}

// ------------------------------------------------------------- i8 codec ----

/// Per-row i8 scale: `max|x| / 127`, 0 for an all-zero (or all-NaN) row.
pub fn i8_row_scale(row: &[f32]) -> f32 {
    let mut max_abs = 0.0f32;
    for &x in row {
        let a = x.abs();
        if a > max_abs {
            max_abs = a; // NaN never compares greater
        }
    }
    max_abs / 127.0
}

/// Quantizes one element against a row scale (`round`, saturating; a
/// zero scale or NaN input maps to code 0).
#[inline]
pub fn i8_quantize(x: f32, scale: f32) -> i8 {
    if scale <= 0.0 {
        return 0;
    }
    (x / scale).round() as i8 // `as` saturates to ±127/−128, NaN → 0
}

/// Dequantizes one i8 code.
#[inline]
pub fn i8_dequantize(code: i8, scale: f32) -> f32 {
    code as f32 * scale
}

// ------------------------------------------------------ QuantizedStore ----

/// Codec-specific payload of a [`QuantizedStore`].
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    I8 { codes: Vec<i8>, scales: Vec<f32> },
    F16 { bits: Vec<u16> },
}

/// Row-major storage of equal-dimension vectors at reduced precision —
/// the wire/global-table twin of [`VectorStore`]. Rows quantize on
/// write and dequantize on read; kernels never see the codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStore {
    dim: usize,
    rows: usize,
    payload: Payload,
}

impl QuantizedStore {
    /// An empty store at the given precision.
    ///
    /// # Panics
    /// Panics if `dim` is 0 or `precision` is [`Precision::F32`] (dense
    /// f32 lives in [`VectorStore`]).
    pub fn new(dim: usize, precision: Precision) -> Self {
        assert!(dim > 0, "QuantizedStore: dim must be positive");
        let payload = match precision {
            Precision::F32 => panic!("QuantizedStore: use VectorStore for f32"),
            Precision::I8 => Payload::I8 {
                codes: Vec::new(),
                scales: Vec::new(),
            },
            Precision::F16 => Payload::F16 { bits: Vec::new() },
        };
        Self {
            dim,
            rows: 0,
            payload,
        }
    }

    /// A store of `rows` zero rows (a zero row has code 0 / scale 0).
    pub fn zeros(dim: usize, rows: usize, precision: Precision) -> Self {
        let mut s = Self::new(dim, precision);
        s.rows = rows;
        match &mut s.payload {
            Payload::I8 { codes, scales } => {
                codes.resize(rows * dim, 0);
                scales.resize(rows, 0.0);
            }
            Payload::F16 { bits } => bits.resize(rows * dim, 0),
        }
        s
    }

    /// Quantizes every row of `src` at the given precision.
    ///
    /// # Panics
    /// Panics if `src` has an unset dimension while holding rows, or
    /// `precision` is F32.
    pub fn quantize(src: &VectorStore, precision: Precision) -> Self {
        let dim = if src.dim() == 0 { 1 } else { src.dim() };
        let mut s = Self::new(dim, precision);
        for row in src.iter_rows() {
            s.push_row(row);
        }
        s
    }

    /// Row dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True iff the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The codec this store uses (never F32).
    pub fn precision(&self) -> Precision {
        match self.payload {
            Payload::I8 { .. } => Precision::I8,
            Payload::F16 { .. } => Precision::F16,
        }
    }

    /// Bytes occupied by the quantized payload.
    pub fn bytes(&self) -> usize {
        self.precision().payload_bytes(self.rows, self.dim)
    }

    /// Appends a row; returns its index.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn push_row(&mut self, row: &[f32]) -> usize {
        assert_eq!(
            row.len(),
            self.dim,
            "QuantizedStore: row dim {} vs store dim {}",
            row.len(),
            self.dim
        );
        match &mut self.payload {
            Payload::I8 { codes, scales } => {
                let scale = i8_row_scale(row);
                scales.push(scale);
                codes.extend(row.iter().map(|&x| i8_quantize(x, scale)));
            }
            Payload::F16 { bits } => bits.extend(row.iter().map(|&x| f32_to_f16_bits(x))),
        }
        self.rows += 1;
        self.rows - 1
    }

    /// Overwrites row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the dimension mismatches.
    pub fn set_row(&mut self, i: usize, row: &[f32]) {
        assert!(i < self.rows, "QuantizedStore: row {i} out of range");
        assert_eq!(
            row.len(),
            self.dim,
            "QuantizedStore: row dim {} vs store dim {}",
            row.len(),
            self.dim
        );
        let start = i * self.dim;
        match &mut self.payload {
            Payload::I8 { codes, scales } => {
                let scale = i8_row_scale(row);
                scales[i] = scale;
                for (c, &x) in codes[start..start + self.dim].iter_mut().zip(row) {
                    *c = i8_quantize(x, scale);
                }
            }
            Payload::F16 { bits } => {
                for (b, &x) in bits[start..start + self.dim].iter_mut().zip(row) {
                    *b = f32_to_f16_bits(x);
                }
            }
        }
    }

    /// Dequantizes row `i` into `out`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or `out.len() != dim`.
    pub fn dequantize_row_into(&self, i: usize, out: &mut [f32]) {
        assert!(i < self.rows, "QuantizedStore: row {i} out of range");
        assert_eq!(out.len(), self.dim, "QuantizedStore: bad output length");
        let start = i * self.dim;
        match &self.payload {
            Payload::I8 { codes, scales } => {
                let scale = scales[i];
                for (o, &c) in out.iter_mut().zip(&codes[start..start + self.dim]) {
                    *o = i8_dequantize(c, scale);
                }
            }
            Payload::F16 { bits } => {
                for (o, &b) in out.iter_mut().zip(&bits[start..start + self.dim]) {
                    *o = f16_bits_to_f32(b);
                }
            }
        }
    }

    /// Dequantizes row `i` into a fresh vector.
    pub fn dequantize_row(&self, i: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.dequantize_row_into(i, &mut out);
        out
    }

    /// Dequantizes the given rows, in order, into a fresh [`VectorStore`]
    /// (the gather `extract` path of a quantized table layer).
    pub fn dequantize_rows(&self, rows: &[usize]) -> VectorStore {
        let mut out = VectorStore::with_capacity(self.dim, rows.len());
        let mut tmp = vec![0.0; self.dim];
        for &r in rows {
            self.dequantize_row_into(r, &mut tmp);
            out.push_row(&tmp);
        }
        out
    }

    /// Dequantizes every row into a fresh [`VectorStore`].
    pub fn dequantize(&self) -> VectorStore {
        let all: Vec<usize> = (0..self.rows).collect();
        self.dequantize_rows(&all)
    }

    /// Appends the quantized payload to `out` as raw little-endian bytes
    /// ([`QuantizedStore::bytes`] of them) — the binary snapshot codec's
    /// payload shape. i8: the `rows · dim` codes, then the `rows` f32
    /// scales; f16: the `rows · dim` half-float bit patterns.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.bytes());
        match &self.payload {
            Payload::I8 { codes, scales } => {
                out.extend(codes.iter().map(|&c| c as u8));
                for s in scales {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            Payload::F16 { bits } => {
                for b in bits {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
        }
    }

    /// Rebuilds a `rows × dim` store at `precision` from the raw bytes
    /// [`QuantizedStore::extend_le_bytes`] writes. Errors — never panics —
    /// on a zero dimension, an f32 precision, a byte count other than the
    /// payload's, or i8 scales that break the per-row invariant.
    pub fn from_le_bytes(
        dim: usize,
        rows: usize,
        precision: Precision,
        bytes: &[u8],
    ) -> Result<Self, String> {
        if dim == 0 {
            return Err("QuantizedStore: dim must be positive".to_string());
        }
        let cells = rows
            .checked_mul(dim)
            .ok_or_else(|| format!("QuantizedStore: {rows} rows of dim {dim} overflow"))?;
        let payload = match precision {
            Precision::F32 => return Err("QuantizedStore: f32 payload".to_string()),
            Precision::I8 => {
                if cells.checked_add(rows.saturating_mul(4)) != Some(bytes.len()) {
                    return Err("QuantizedStore: ragged i8 payload".to_string());
                }
                let (codes, scales) = bytes.split_at(cells);
                let codes: Vec<i8> = codes.iter().map(|&b| b as i8).collect();
                let scales: Vec<f32> = scales
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
                    .collect();
                check_i8_scales(dim, &codes, &scales)?;
                Payload::I8 { codes, scales }
            }
            Precision::F16 => {
                if cells.checked_mul(2) != Some(bytes.len()) {
                    return Err("QuantizedStore: ragged f16 payload".to_string());
                }
                let bits = bytes
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes(c.try_into().expect("chunks_exact(2)")))
                    .collect();
                Payload::F16 { bits }
            }
        };
        Ok(Self { dim, rows, payload })
    }
}

/// The per-row i8 scale invariant every decode boundary enforces:
/// `max|x| / 127` is always finite and non-negative, and a zero scale can
/// only accompany an all-zero row (dequantizing nonzero codes by a zero
/// scale would silently erase the row; a NaN/inf scale would poison every
/// downstream kernel).
fn check_i8_scales(dim: usize, codes: &[i8], scales: &[f32]) -> Result<(), String> {
    for (r, &s) in scales.iter().enumerate() {
        if !s.is_finite() || s < 0.0 {
            return Err(format!(
                "QuantizedStore: row {r} scale {s} is not a finite non-negative max-abs/127"
            ));
        }
        if s == 0.0 && codes[r * dim..(r + 1) * dim].iter().any(|&c| c != 0) {
            return Err(format!(
                "QuantizedStore: row {r} has nonzero codes under a zero scale"
            ));
        }
    }
    Ok(())
}

/// Snaps `row` onto the representable grid of `precision` in place:
/// quantize → dequantize. A no-op for [`Precision::F32`]. Snapping is
/// idempotent, so a snapped row re-encodes to identical codes — the
/// sender can keep f32 buffers while the link prices quantized bytes.
pub fn snap_row(row: &mut [f32], precision: Precision) {
    match precision {
        Precision::F32 => {}
        Precision::F16 => {
            for x in row.iter_mut() {
                *x = f16_bits_to_f32(f32_to_f16_bits(*x));
            }
        }
        Precision::I8 => {
            let scale = i8_row_scale(row);
            for x in row.iter_mut() {
                *x = i8_dequantize(i8_quantize(*x, scale), scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_labels_and_bytes() {
        assert_eq!(Precision::parse("f16"), Some(Precision::F16));
        assert_eq!(Precision::parse("nope"), None);
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::F32.payload_bytes(3, 8), 96);
        assert_eq!(Precision::F16.payload_bytes(3, 8), 48);
        assert_eq!(Precision::I8.payload_bytes(3, 8), 36);
        assert_eq!(Precision::I8.label(), "i8");
    }

    #[test]
    fn f16_round_trips_exactly_representable_values() {
        for x in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            65504.0,
            -65504.0,
            6.1035156e-5,
        ] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn f16_handles_specials() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00, "overflow saturates to Inf");
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16_bits(1e-10), 0, "underflow to zero");
        assert_eq!(f32_to_f16_bits(-1e-10), 0x8000, "signed underflow");
        // Smallest subnormal: 2^-24.
        let tiny = 5.9604645e-8f32;
        assert_eq!(f32_to_f16_bits(tiny), 1);
        assert_eq!(f16_bits_to_f32(1), tiny);
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half;
        // RNE keeps the even mantissa (1.0).
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125), 0x3c00);
        // 1 + 3·2^-11 is halfway between odd 1+2^-10 and even 1+2^-9.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 0.00048828125), 0x3c02);
        // Just above halfway rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + 0.0005), 0x3c01);
    }

    #[test]
    fn f16_relative_error_bound() {
        for i in 0..2000 {
            let x = (i as f32 * 0.7369).sin() * 10.0;
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert!(
                (back - x).abs() <= x.abs() * (1.0 / 2048.0) + 1e-7,
                "{x} -> {back}"
            );
        }
    }

    #[test]
    fn i8_codec_bounds_and_edge_cases() {
        let row = [0.3f32, -0.9, 0.05, 0.9];
        let scale = i8_row_scale(&row);
        assert!((scale - 0.9 / 127.0).abs() < 1e-9);
        for &x in &row {
            let err = (i8_dequantize(i8_quantize(x, scale), scale) - x).abs();
            assert!(err <= scale * 0.5 + 1e-7, "{x}: err {err}");
        }
        assert_eq!(i8_quantize(1.0, 0.0), 0, "zero scale");
        assert_eq!(i8_quantize(f32::NAN, 0.1), 0, "NaN saturates to 0");
        assert_eq!(i8_quantize(1e9, 0.1), 127, "saturating cast");
        assert_eq!(i8_row_scale(&[0.0, 0.0]), 0.0);
        assert_eq!(i8_row_scale(&[f32::NAN, 0.5]), 0.5 / 127.0);
    }

    #[test]
    fn snap_is_idempotent() {
        for precision in [Precision::F16, Precision::I8] {
            let mut row: Vec<f32> = (0..37).map(|i| ((i * 17) as f32 * 0.31).sin()).collect();
            snap_row(&mut row, precision);
            let once = row.clone();
            snap_row(&mut row, precision);
            for (a, b) in row.iter().zip(&once) {
                assert_eq!(a.to_bits(), b.to_bits(), "{precision:?}");
            }
        }
        let mut row = vec![0.123_456_79f32];
        snap_row(&mut row, Precision::F32);
        assert_eq!(row[0], 0.123_456_79);
    }

    #[test]
    fn snapped_rows_requantize_to_identical_codes() {
        let row: Vec<f32> = (0..64).map(|i| ((i * 7) as f32 * 0.13).cos()).collect();
        let mut store = QuantizedStore::new(64, Precision::I8);
        store.push_row(&row);
        let snapped = store.dequantize_row(0);
        let mut store2 = QuantizedStore::new(64, Precision::I8);
        store2.push_row(&snapped);
        assert_eq!(store.dequantize_row(0), store2.dequantize_row(0));
        assert_eq!(store, store2);
    }

    #[test]
    fn store_round_trip_both_codecs() {
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|r| {
                (0..16)
                    .map(|i| ((r * 16 + i) as f32 * 0.17).sin())
                    .collect()
            })
            .collect();
        let dense = VectorStore::from_rows(&rows);
        for precision in [Precision::I8, Precision::F16] {
            let q = QuantizedStore::quantize(&dense, precision);
            assert_eq!(q.rows(), 5);
            assert_eq!(q.dim(), 16);
            assert_eq!(q.precision(), precision);
            assert!(q.bytes() < dense.bytes());
            let back = q.dequantize();
            assert_eq!(back.rows(), 5);
            for (orig, rec) in dense.iter_rows().zip(back.iter_rows()) {
                let bound = match precision {
                    Precision::I8 => i8_row_scale(orig) * 0.5 + 1e-7,
                    _ => 1e-3,
                };
                for (a, b) in orig.iter().zip(rec) {
                    assert!((a - b).abs() <= bound, "{precision:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn set_row_and_gather() {
        let mut q = QuantizedStore::zeros(4, 3, Precision::I8);
        assert!(q.dequantize_row(1).iter().all(|&x| x == 0.0));
        q.set_row(1, &[0.5, -0.5, 0.25, 0.0]);
        let picked = q.dequantize_rows(&[1, 0]);
        assert_eq!(picked.rows(), 2);
        assert!((picked.row(0)[0] - 0.5).abs() < 0.01);
        assert_eq!(picked.row(1), &[0.0, 0.0, 0.0, 0.0]);
        assert!(!q.is_empty());
        assert!(QuantizedStore::new(4, Precision::F16).is_empty());
    }

    #[test]
    fn i8_scale_invariants_are_validated() {
        // One i8 row of dim 2: its two codes, then its f32 scale.
        let row = |codes: [i8; 2], scale: f32| {
            let mut bytes: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
            bytes.extend_from_slice(&scale.to_le_bytes());
            QuantizedStore::from_le_bytes(2, 1, Precision::I8, &bytes)
        };
        // NaN / negative / infinite scales are typed errors, not panics.
        for bad in [f32::NAN, -0.5, f32::INFINITY] {
            assert!(row([1, 2], bad).is_err(), "scale {bad} must be rejected");
        }
        // A zero scale with nonzero codes would erase the row on read.
        assert!(row([1, 0], 0.0).is_err());
        // A zero scale over an all-zero row is the legitimate empty-row
        // encoding and must keep round-tripping.
        assert_eq!(row([0, 0], 0.0).unwrap().dequantize_row(0), &[0.0, 0.0]);
    }

    #[test]
    fn le_bytes_round_trip_and_reject_bad_payloads() {
        let src = VectorStore::from_rows(&[[0.6f32, -0.8, 0.0], [0.0, 0.0, 0.0]]);
        for precision in [Precision::I8, Precision::F16] {
            let q = QuantizedStore::quantize(&src, precision);
            let mut bytes = vec![0xAA]; // appended after existing content
            q.extend_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), 1 + q.bytes());
            let back = QuantizedStore::from_le_bytes(3, 2, precision, &bytes[1..]).unwrap();
            assert_eq!(back, q);
            // One byte short, one long, no dimension, an f32 "codec".
            assert!(QuantizedStore::from_le_bytes(3, 2, precision, &bytes[2..]).is_err());
            assert!(QuantizedStore::from_le_bytes(3, 2, precision, &bytes).is_err());
            assert!(QuantizedStore::from_le_bytes(0, 0, precision, &[]).is_err());
            assert!(QuantizedStore::from_le_bytes(usize::MAX, 2, precision, &[]).is_err());
        }
        assert!(QuantizedStore::from_le_bytes(3, 0, Precision::F32, &[]).is_err());
        // The i8 scale invariant holds at this boundary too.
        let mut bad = vec![1u8, 0, 0];
        bad.extend_from_slice(&0.0f32.to_le_bytes());
        assert!(QuantizedStore::from_le_bytes(3, 1, Precision::I8, &bad).is_err());
        bad[3..].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(QuantizedStore::from_le_bytes(3, 1, Precision::I8, &bad).is_err());
    }

    #[test]
    #[should_panic(expected = "use VectorStore for f32")]
    fn f32_payload_rejected() {
        QuantizedStore::new(4, Precision::F32);
    }
}
