//! Property tests pinning the timer-wheel [`EventQueue`] to a reference
//! [`HeapEventQueue`] — the original `BinaryHeap` min-queue the wheel
//! replaced, kept here and nowhere else: identical
//! `(timestamp, insertion-seq)` pop order
//! under arbitrary interleavings of schedules and pops, including
//! same-instant bursts (FIFO ties), past-cursor schedules, and far-future
//! instants that land in the wheel's overflow heap.
//!
//! This is the determinism contract for PR 6's scheduler swap: every
//! committed record must regenerate byte-identically under either queue,
//! which reduces to the two queues agreeing on pop order event for event.

use std::collections::BinaryHeap;

use coca::sim::{EventQueue, ScheduledEvent, SimTime};
use proptest::prelude::*;

/// The reference min-queue: a `BinaryHeap` over [`ScheduledEvent`], whose
/// `Ord` is inverted so the earliest `(at, seq)` pops first. Same API as
/// the wheel, same pop order by construction.
struct HeapEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a payload at an absolute instant (ns).
    Schedule(u64),
    /// Pop once from both queues and compare.
    Pop,
}

/// Decodes one raw draw into an op. Schedules outnumber pops 3:2, and the
/// instants are spread over several regimes so a single run crosses wheel
/// levels, the overflow horizon (2^52 ns), and exact ties:
/// near-origin bursts (level 0 + FIFO ties), sub-tick neighbors sharing a
/// slot (tick = 2^16 ns), mid-range across levels, the horizon edge, and
/// deep overflow territory.
fn decode(x: u64) -> Op {
    match x % 5 {
        0 | 1 => Op::Pop,
        _ => {
            let regime = (x / 5) % 5;
            let v = x / 25;
            let ns = match regime {
                0 => v % 200_000,
                1 => 100_000 + (v % 64),
                2 => v % (1 << 40),
                3 => (1u64 << 52) - 1_000 + (v % 1_001_000),
                _ => (1u64 << 60) + (v % (1u64 << 60)),
            };
            Op::Schedule(ns)
        }
    }
}

fn drain_and_compare(wheel: &mut EventQueue<u32>, heap: &mut HeapEventQueue<u32>) {
    loop {
        assert_eq!(wheel.peek_time(), heap.peek_time(), "peek_time diverged");
        let (a, b) = (wheel.pop(), heap.pop());
        match (a, b) {
            (None, None) => break,
            (Some(x), Some(y)) => {
                assert_eq!((x.at, x.seq, x.payload), (y.at, y.seq, y.payload));
            }
            (x, y) => panic!("pop parity diverged: wheel={x:?} heap={y:?}"),
        }
    }
}

proptest! {
    /// Interleaved schedule/pop sequences produce identical pops, and the
    /// final drain empties both queues in the same order.
    #[test]
    fn wheel_matches_heap_under_interleaving(
        raw in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut payload = 0u32;
        for op in raw.into_iter().map(decode) {
            match op {
                Op::Schedule(ns) => {
                    let at = SimTime::from_nanos(ns);
                    wheel.schedule(at, payload);
                    heap.schedule(at, payload);
                    payload += 1;
                }
                Op::Pop => {
                    let (a, b) = (wheel.pop(), heap.pop());
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(
                                (x.at, x.seq, x.payload),
                                (y.at, y.seq, y.payload)
                            );
                        }
                        (x, y) => prop_assert!(false, "diverged: wheel={:?} heap={:?}", x, y),
                    }
                    prop_assert_eq!(wheel.len(), heap.len());
                }
            }
        }
        drain_and_compare(&mut wheel, &mut heap);
    }

    /// Same-instant bursts pop in exact insertion (FIFO) order even when
    /// interleaved with earlier and later events.
    #[test]
    fn same_timestamp_bursts_are_fifo(
        base in 0u64..(1 << 44),
        burst in 2usize..64,
        stagger in prop::collection::vec(0u64..(1 << 30), 0..16),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let at = SimTime::from_nanos(base);
        for k in 0..burst as u32 {
            wheel.schedule(at, k);
            heap.schedule(at, k);
        }
        for (i, off) in stagger.iter().enumerate() {
            let t = SimTime::from_nanos(base ^ off);
            let tag = 1_000 + i as u32;
            wheel.schedule(t, tag);
            heap.schedule(t, tag);
        }
        let mut last_burst: Option<u32> = None;
        while let Some(x) = wheel.pop() {
            let y = heap.pop().expect("heap ended early");
            assert_eq!((x.at, x.seq, x.payload), (y.at, y.seq, y.payload));
            if x.payload < 1_000 {
                if let Some(prev) = last_burst {
                    prop_assert!(x.payload == prev + 1, "burst popped out of FIFO order");
                }
                last_burst = Some(x.payload);
            }
        }
        prop_assert!(heap.pop().is_none());
        prop_assert_eq!(last_burst, Some(burst as u32 - 1));
    }

    /// Far-future (overflow-heap) events re-enter the wheel correctly: a
    /// workload living entirely past the 2^52 ns horizon still pops in
    /// exact (at, seq) order.
    #[test]
    fn overflow_events_reenter_in_order(
        offsets in prop::collection::vec(0u64..(1 << 56), 1..80),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let horizon = 1u64 << 52;
        for (i, off) in offsets.iter().enumerate() {
            let at = SimTime::from_nanos(horizon + off);
            wheel.schedule(at, i as u32);
            heap.schedule(at, i as u32);
        }
        drain_and_compare(&mut wheel, &mut heap);
    }
}

/// Past-cursor schedules (the engine regularly schedules at *now*) land in
/// the ready buffer and still interleave correctly with pending events.
#[test]
fn scheduling_behind_the_cursor_stays_ordered() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    for (at, tag) in [(500_000u64, 0u32), (1_000_000, 1), (2_000_000, 2)] {
        wheel.schedule(SimTime::from_nanos(at), tag);
        heap.schedule(SimTime::from_nanos(at), tag);
    }
    // Pop the first event: the wheel cursor advances past tick(500_000).
    let (a, b) = (wheel.pop().unwrap(), heap.pop().unwrap());
    assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
    // Now schedule before, at, and just after the popped instant.
    for (at, tag) in [(100u64, 10u32), (500_000, 11), (600_000, 12)] {
        wheel.schedule(SimTime::from_nanos(at), tag);
        heap.schedule(SimTime::from_nanos(at), tag);
    }
    let mut order = Vec::new();
    while let Some(x) = wheel.pop() {
        let y = heap.pop().unwrap();
        assert_eq!((x.at, x.seq, x.payload), (y.at, y.seq, y.payload));
        order.push(x.payload);
    }
    assert!(heap.pop().is_none());
    assert_eq!(order, vec![10, 11, 12, 1, 2]);
}

/// A deterministic miniature of `wheel_matches_heap_under_interleaving`:
/// sub-tick offsets, same-instant bursts and far horizons, one pop per
/// three schedules, then a full drain.
#[test]
fn interleaved_schedule_and_pop_matches_heap_reference() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut state = 0x5EEDu64;
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in 0..5_000u64 {
        let at = SimTime::from_nanos(match i % 5 {
            0 => step() % 1_000,
            1 => (step() % 64) * 65_536,
            2 => step() % (1 << 40),
            3 => 1 << 53,
            _ => step() % (1 << 22),
        });
        wheel.schedule(at, i);
        heap.schedule(at, i);
        if i % 3 == 0 {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
            }
        }
    }
    assert_eq!(wheel.len(), heap.len());
    while let Some(b) = heap.pop() {
        let a = wheel.pop().expect("wheel drained early");
        assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
    }
    assert!(wheel.pop().is_none());
}
