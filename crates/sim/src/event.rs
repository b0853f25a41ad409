//! Deterministic discrete-event scheduling.
//!
//! The multi-client engine uses this to interleave client rounds and server
//! request processing in virtual time: clients schedule "request arrives at
//! server" events, the server schedules "response arrives at client" events,
//! and the queue pops them in timestamp order. Ties break by insertion
//! sequence, which keeps runs deterministic.
//!
//! [`EventQueue`] is a hierarchical timer wheel. Insertion and pop are
//! O(1) amortized, independent of how many events are pending, which is
//! what a 10⁵–10⁶-member fleet needs: a binary heap's `log n` comparisons
//! per operation (each touching a cache line of a multi-megabyte heap
//! array) dominate the event loop at that scale. The original
//! `BinaryHeap` min-queue lives on as a test-only reference in
//! `tests/proptest_event_queue.rs`, which pins the wheel to pop in exactly
//! its (timestamp, insertion-seq) order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of payload type `E` scheduled at a virtual instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number used to break timestamp ties (FIFO).
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels. Six levels cover `64^6 = 2^36` ticks from the cursor.
const LEVELS: usize = 6;
/// Nanoseconds per tick (as a shift): 2^16 ns ≈ 65.5 µs. Sub-tick ordering
/// is restored when a slot is drained (events sort by exact `(at, seq)`),
/// so tick granularity affects bucketing only, never pop order. The wheel
/// horizon is `2^(36+16) = 2^52` ns ≈ 52 virtual days; events beyond it
/// wait in an overflow heap and re-enter the wheel as the cursor advances.
const TICK_SHIFT: u32 = 16;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// A deterministic min-queue of timestamped events: a hierarchical timer
/// wheel with an overflow heap, popping in exact `(at, seq)` order.
///
/// Level `l` buckets events whose tick differs from the cursor in bit
/// range `[6l, 6(l+1))`; advancing the cursor onto a higher-level slot
/// re-buckets ("cascades") its events into strictly lower levels, and a
/// level-0 slot holds exactly one tick, so a drain only has to order the
/// slot's own (usually tiny) burst. A sorted `ready` buffer absorbs both
/// drained slots and events scheduled at instants the cursor has already
/// passed (the engine regularly schedules at *now*).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Absolute tick the wheel currently stands on. Invariants: every
    /// event in `ready` has tick < `cursor`; every event in a wheel slot
    /// has tick ≥ `cursor`; the cursor never passes an occupied slot.
    cursor: u64,
    /// `LEVELS × SLOTS` buckets, level-major.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level occupancy bitmap (bit `s` ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Already-due events, sorted *descending* by `(at, seq)` — pop takes
    /// from the end, insertion is a binary search (rare and short: only
    /// past-scheduled events land here between drains).
    ready: Vec<ScheduledEvent<E>>,
    /// Events beyond the wheel horizon, min-first (inverted `Ord`).
    overflow: BinaryHeap<ScheduledEvent<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            cursor: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(ScheduledEvent { at, seq, payload });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        if self.ready.is_empty() {
            self.settle();
        }
        let ev = self.ready.pop();
        debug_assert!(ev.is_some(), "settle must surface a due event");
        self.len -= ev.is_some() as usize;
        ev
    }

    /// Timestamp of the earliest pending event. Takes `&mut self` because
    /// surfacing the next event may advance the wheel cursor (which never
    /// changes *what* pops next, only where it is buffered).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.ready.is_empty() {
            self.settle();
        }
        self.ready.last().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Routes an event to `ready`, a wheel slot, or the overflow heap,
    /// depending on where its tick falls relative to the cursor.
    fn place(&mut self, ev: ScheduledEvent<E>) {
        let tick = tick_of(ev.at);
        if tick < self.cursor {
            let pos = self
                .ready
                .partition_point(|e| (e.at, e.seq) > (ev.at, ev.seq));
            self.ready.insert(pos, ev);
            return;
        }
        let dist = tick ^ self.cursor;
        let level = if dist == 0 {
            0
        } else {
            ((63 - dist.leading_zeros()) / LEVEL_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push(ev);
            return;
        }
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(ev);
        self.occupied[level] |= 1u64 << slot;
    }

    /// The next occupied wheel slot as `(level, slot, start_tick)`, where
    /// `start_tick` is the earliest tick the slot can contain. Occupied
    /// slots at distinct levels have strictly increasing starts, so the
    /// scan keeps the minimum (preferring higher levels on a defensive
    /// tie, so a cascade can never strand an equal-tick event above a
    /// drained level-0 slot).
    fn next_expiry(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let cs = (self.cursor >> shift) & (SLOTS as u64 - 1);
            // Slots behind the cursor's position are always empty at this
            // level (the cursor never passes an occupied slot).
            let pending = occ & !((1u64 << cs) - 1);
            debug_assert_ne!(pending, 0, "occupied slot behind the wheel cursor");
            let slot = pending.trailing_zeros() as usize;
            let span = 1u64 << (shift + LEVEL_BITS);
            let start = (self.cursor & !(span - 1)) | ((slot as u64) << shift);
            match best {
                Some((_, _, s)) if s < start => {}
                _ => best = Some((level, slot, start)),
            }
        }
        best
    }

    /// Advances the wheel until `ready` holds the earliest pending burst.
    /// Only called with `ready` empty and `len > 0`: drains the earliest
    /// level-0 slot (one exact tick) into `ready` in `(at, seq)` order,
    /// cascading higher-level slots and promoting due overflow events on
    /// the way.
    fn settle(&mut self) {
        debug_assert!(self.ready.is_empty());
        loop {
            let wheel = self.next_expiry();
            let over = self.overflow.peek().map(|e| tick_of(e.at));
            let (level, slot, start) = match (wheel, over) {
                (None, None) => {
                    debug_assert_eq!(self.len, 0, "events pending but nowhere to be found");
                    return;
                }
                (None, Some(tick)) => {
                    // Wheel empty: jump the cursor to the overflow front so
                    // it re-enters at level 0 (nothing can mis-level).
                    let ev = self.overflow.pop().expect("peeked overflow event");
                    self.cursor = self.cursor.max(tick);
                    self.place(ev);
                    continue;
                }
                (Some(w), over) => {
                    if over.is_some_and(|t| t <= w.2) {
                        // The overflow front is due before (or exactly at)
                        // the next slot: re-enter it first so an equal-tick
                        // event keeps its seq position within the burst.
                        let ev = self.overflow.pop().expect("peeked overflow event");
                        self.place(ev);
                        continue;
                    }
                    w
                }
            };
            let bucket = level * SLOTS + slot;
            let mut drained = std::mem::take(&mut self.slots[bucket]);
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // A level-0 slot holds exactly one tick; order the burst
                // by seq and expose it (descending — pop takes the end).
                debug_assert!(drained.iter().all(|e| tick_of(e.at) == start));
                drained.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                self.cursor = start + 1;
                // Keep the slot's allocation by swapping the (empty)
                // ready buffer into it.
                std::mem::swap(&mut self.ready, &mut drained);
                self.slots[bucket] = drained;
                return;
            }
            // Cascade: advancing onto the slot start re-buckets every
            // event into a strictly lower level (their ticks now agree
            // with the cursor on this level's bit range).
            self.cursor = start;
            for ev in drained.drain(..) {
                self.place(ev);
            }
            self.slots[bucket] = drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |ms| SimTime::from_millis_f64(ms);
        q.schedule(t(5.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(3.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis_f64(2.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_reports_earliest() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO + SimDuration::from_millis(9), ());
        q.schedule(SimTime::ZERO + SimDuration::from_millis(4), ());
        assert_eq!(q.peek_time().unwrap().as_millis_f64(), 4.0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn schedules_in_the_past_pop_first() {
        let mut q = EventQueue::new();
        let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        q.schedule(t(10), "later");
        assert_eq!(q.pop().unwrap().payload, "later");
        // The cursor now stands past t=10; schedule earlier instants.
        q.schedule(t(5), "past-b");
        q.schedule(t(1), "past-a");
        q.schedule(t(20), "future");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["past-a", "past-b", "future"]);
    }

    #[test]
    fn far_future_events_round_trip_the_overflow_heap() {
        let mut q = EventQueue::new();
        // ~115 virtual days — beyond the 2^52 ns wheel horizon.
        let far = SimTime::from_nanos(1u64 << 53);
        q.schedule(far, "far-b");
        q.schedule(SimTime::from_nanos(7), "near");
        q.schedule(far, "far-c");
        q.schedule(far + SimDuration::from_nanos(1), "far-d");
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.pop().unwrap().payload, "far-b");
        assert_eq!(q.pop().unwrap().payload, "far-c");
        assert_eq!(q.pop().unwrap().payload, "far-d");
        assert!(q.pop().is_none());
    }
}
