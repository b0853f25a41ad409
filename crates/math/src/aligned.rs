//! [`AlignedF32`] — a growable f32 buffer whose allocation is 32-byte
//! aligned.
//!
//! [`crate::store::VectorStore`] keeps its flat row-major buffer in one of
//! these so that no 256-bit load of the AVX2 kernels in `crate::simd`
//! splits a cache line (rows whose byte offset is a multiple of 32 — any
//! row when `dim % 8 == 0`). The kernels use the same unaligned-load
//! instruction either way, so alignment never changes results; a split
//! line costs up to ~16 % per entry at d = 256 on an AVX-512 Xeon.
//!
//! The API is the small slice of `Vec<f32>` the store actually uses;
//! everything else comes through `Deref<Target = [f32]>`.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Allocation alignment in bytes (one AVX2 register).
pub const BUF_ALIGN: usize = 32;

/// A 32-byte-aligned growable `f32` buffer.
pub struct AlignedF32 {
    ptr: NonNull<f32>,
    len: usize,
    cap: usize,
}

// The buffer exclusively owns its allocation of plain f32s.
unsafe impl Send for AlignedF32 {}
unsafe impl Sync for AlignedF32 {}

impl AlignedF32 {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// An empty buffer with room for `cap` floats.
    pub fn with_capacity(cap: usize) -> Self {
        let mut b = Self::new();
        if cap > 0 {
            b.grow_to(cap);
        }
        b
    }

    /// A buffer of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        let mut b = Self::with_capacity(len);
        // Zero bytes are 0.0f32.
        unsafe { std::ptr::write_bytes(b.ptr.as_ptr(), 0, len) };
        b.len = len;
        b
    }

    /// A buffer holding a copy of `s`.
    pub fn from_slice(s: &[f32]) -> Self {
        let mut b = Self::with_capacity(s.len());
        b.extend_from_slice(s);
        b
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(
            cap.checked_mul(4).expect("AlignedF32: capacity overflow"),
            BUF_ALIGN,
        )
        .expect("AlignedF32: invalid layout")
    }

    fn grow_to(&mut self, min_cap: usize) {
        debug_assert!(min_cap > self.cap);
        let new_cap = min_cap.max(self.cap * 2).max(8);
        let layout = Self::layout(new_cap);
        let raw = unsafe { alloc(layout) } as *mut f32;
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        if self.len > 0 {
            unsafe { std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), ptr.as_ptr(), self.len) };
        }
        if self.cap > 0 {
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
        self.ptr = ptr;
        self.cap = new_cap;
    }

    /// Number of floats held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the buffer holds no floats.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in floats.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a copy of `s`.
    pub fn extend_from_slice(&mut self, s: &[f32]) {
        let need = self.len + s.len();
        if need > self.cap {
            self.grow_to(need);
        }
        unsafe {
            std::ptr::copy_nonoverlapping(s.as_ptr(), self.ptr.as_ptr().add(self.len), s.len())
        };
        self.len = need;
    }

    /// Shortens to `len` floats (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
        }
    }

    /// Drops every float (capacity kept).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The contents as a slice.
    pub fn as_slice(&self) -> &[f32] {
        self
    }
}

impl Drop for AlignedF32 {
    fn drop(&mut self) {
        if self.cap > 0 {
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

impl Deref for AlignedF32 {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedF32 {
    fn deref_mut(&mut self) -> &mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Default for AlignedF32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for AlignedF32 {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl PartialEq for AlignedF32 {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for AlignedF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self[..], f)
    }
}

impl From<&[f32]> for AlignedF32 {
    fn from(s: &[f32]) -> Self {
        Self::from_slice(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_32_byte_aligned() {
        for n in [1usize, 7, 8, 9, 100] {
            let b = AlignedF32::zeros(n);
            assert_eq!(b.as_ptr() as usize % BUF_ALIGN, 0, "len {n}");
            assert_eq!(b.len(), n);
            assert!(b.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn alignment_survives_growth() {
        let mut b = AlignedF32::new();
        for i in 0..100 {
            b.extend_from_slice(&[i as f32, (i + 1) as f32, (i + 2) as f32]);
            assert_eq!(b.as_ptr() as usize % BUF_ALIGN, 0, "after push {i}");
        }
        assert_eq!(b.len(), 300);
        assert_eq!(b[3], 1.0);
    }

    #[test]
    fn vec_like_operations() {
        let mut b = AlignedF32::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&b[1..3], &[2.0, 3.0]);
        b[0] = 9.0;
        b.truncate(2);
        assert_eq!(b.as_slice(), &[9.0, 2.0]);
        b.truncate(10); // no-op
        assert_eq!(b.len(), 2);
        let c = b.clone();
        assert_eq!(b, c);
        b.clear();
        assert!(b.is_empty());
        assert!(b.capacity() >= 2);
        assert_ne!(b, c);
        assert_eq!(format!("{c:?}"), "[9.0, 2.0]");
        let d: AlignedF32 = (&[0.5f32, 0.25][..]).into();
        assert_eq!(d.as_slice(), &[0.5, 0.25]);
        assert_eq!(AlignedF32::default().len(), 0);
    }

    #[test]
    fn with_capacity_reserves() {
        let b = AlignedF32::with_capacity(64);
        assert_eq!(b.len(), 0);
        assert!(b.capacity() >= 64);
    }
}
