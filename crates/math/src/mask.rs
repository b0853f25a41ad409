//! Occupancy tracking over contiguous stores: [`OccupancyBitmap`] and the
//! bitmap-backed [`SlotMap`].
//!
//! The columnar server-side tables keep **dense** row storage (one
//! [`crate::store::VectorStore`] row per logical slot, zero-filled until
//! populated) and mark which slots actually hold data in a packed `u64`
//! bitmap. Presence tests, population counts and ordered iteration over
//! populated slots are then word-at-a-time operations instead of
//! per-slot `Option` discriminant chasing.

/// A fixed-length packed bitmap: one bit per slot of a dense table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancyBitmap {
    /// Packed bits, little-endian within each word (bit `i` lives at
    /// `words[i / 64] >> (i % 64)`).
    words: Vec<u64>,
    /// Number of addressable bits.
    len: usize,
}

impl OccupancyBitmap {
    /// An all-clear bitmap over `len` slots.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bitmap addresses no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, i: usize) {
        assert!(i < self.len, "OccupancyBitmap: bit {i} of {}", self.len);
    }

    /// Whether slot `i` is occupied.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.check(i);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Marks slot `i` occupied; returns true iff it was clear before.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        self.check(i);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was_clear = *w & mask == 0;
        *w |= mask;
        was_clear
    }

    /// Clears slot `i`; returns true iff it was occupied before.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        self.check(i);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was_set = *w & mask != 0;
        *w &= !mask;
        was_set
    }

    /// Number of occupied slots (word-at-a-time popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the occupied slot indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// The packed words (the snapshot codec and diagnostics).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap over `len` slots from its packed words — the
    /// decode boundary of the binary snapshot codec.
    /// Errors on a word count other than `⌈len / 64⌉` and on set bits
    /// beyond `len` (ghost bits would corrupt `count_ones`).
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<Self, String> {
        if words.len() != len.div_ceil(64) {
            return Err(format!(
                "OccupancyBitmap: {} words for {len} bits",
                words.len()
            ));
        }
        if !len.is_multiple_of(64) && words.last().is_some_and(|&last| last >> (len % 64) != 0) {
            return Err("OccupancyBitmap: set bits beyond len".to_string());
        }
        Ok(Self { words, len })
    }
}

/// Sentinel row value for an id with no slot.
const NO_SLOT: u32 = u32::MAX;

/// An id → row slot map backed by a dense vector plus an
/// [`OccupancyBitmap`] of live ids.
///
/// Replaces `HashMap<u32, u32>` bookkeeping where ids are allocated by a
/// monotone counter (FoggyCache sample stores): lookups are one indexed
/// load, liveness is one bit test, and iteration over live ids is
/// bitmap-ordered (ascending) — deterministic without sorting.
///
/// Memory is O(largest id ever inserted) — 4 bytes per allocated id plus
/// one bit — and never shrinks. That is a deliberate trade: the callers
/// break ties (LRU victims, kNN tags) by id, so recycling freed ids
/// through a free list would reorder those deterministic tie-breaks and
/// perturb replay-identical runs. Ids stay monotone; the map pays a word
/// per id ever issued.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    /// `row_of[id]` — the row of `id`, or [`NO_SLOT`].
    row_of: Vec<u32>,
    /// Live ids.
    live: OccupancyBitmap,
    len: usize,
}

impl SlotMap {
    /// An empty map; grows as ids are inserted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no id is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn grow_to(&mut self, id: u32) {
        let need = id as usize + 1;
        if need > self.row_of.len() {
            // Amortized O(1): Vec::resize grows capacity geometrically.
            self.row_of.resize(need, NO_SLOT);
        }
        if need > self.live.len() {
            // The bitmap is pre-grown to the next power of two, so this
            // rebuild runs O(log max_id) times over a map's lifetime —
            // not once per monotone insert.
            let mut live = OccupancyBitmap::new(need.next_power_of_two().max(64));
            for i in self.live.iter_ones() {
                live.set(i);
            }
            self.live = live;
        }
    }

    /// Maps `id` to `row` (inserting or overwriting).
    pub fn insert(&mut self, id: u32, row: u32) {
        assert_ne!(row, NO_SLOT, "SlotMap: row sentinel in use");
        self.grow_to(id);
        if self.live.set(id as usize) {
            self.len += 1;
        }
        self.row_of[id as usize] = row;
    }

    /// The row of `id`, if live.
    #[inline]
    pub fn get(&self, id: u32) -> Option<u32> {
        let i = id as usize;
        (i < self.row_of.len() && self.live.get(i)).then(|| self.row_of[i])
    }

    /// Removes `id`, returning its row if it was live.
    pub fn remove(&mut self, id: u32) -> Option<u32> {
        let i = id as usize;
        if i < self.row_of.len() && self.live.clear(i) {
            self.len -= 1;
            let row = self.row_of[i];
            self.row_of[i] = NO_SLOT;
            Some(row)
        } else {
            None
        }
    }

    /// Iterates live `(id, row)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.live
            .iter_ones()
            .filter(|&i| i < self.row_of.len())
            .map(|i| (i as u32, self.row_of[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_clear_count() {
        let mut b = OccupancyBitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0));
        assert!(b.set(0));
        assert!(!b.set(0), "second set reports already-occupied");
        assert!(b.set(64));
        assert!(b.set(129));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "bit 8")]
    fn bitmap_bounds_panic() {
        let b = OccupancyBitmap::new(8);
        b.get(8);
    }

    #[test]
    fn from_words_round_trips_and_validates() {
        let mut b = OccupancyBitmap::new(70);
        b.set(3);
        b.set(69);
        assert_eq!(OccupancyBitmap::from_words(70, b.words().to_vec()), Ok(b));
        // Wrong word count and ghost bits are rejected.
        assert!(OccupancyBitmap::from_words(70, vec![0]).is_err());
        assert!(OccupancyBitmap::from_words(3, vec![16]).is_err()); // bit 4 beyond len 3
    }

    #[test]
    fn slot_map_grows_bitmap_geometrically() {
        // Regression: monotone inserts must not rebuild the bitmap per
        // id — it is pre-grown to the next power of two.
        let mut m = SlotMap::new();
        for id in 0..1000u32 {
            m.insert(id, id);
        }
        assert_eq!(m.live.len(), 1024, "bitmap pre-grown, not exact-fit");
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(999), Some(999));
    }

    #[test]
    fn slot_map_insert_get_remove() {
        let mut m = SlotMap::new();
        assert!(m.is_empty());
        m.insert(5, 0);
        m.insert(200, 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(5), Some(0));
        assert_eq!(m.get(6), None);
        m.insert(5, 7); // overwrite keeps len
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(5), Some(7));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(5, 7), (200, 1)]);
        assert_eq!(m.remove(5), Some(7));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(5), None);
    }
}
