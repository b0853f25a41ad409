//! Frames computed on several threads, applied on one, in frame order.
//!
//! A CoCa frame splits into a pure phase — a function of the frame, the
//! installed cache and the client profile — and an apply phase that must
//! see the frames in order (see [`crate::client`]). [`InOrder::run`] runs
//! the pure phase of a round's frames on scoped threads and hands each
//! frame's result to one `apply` closure on the calling thread, strictly in
//! frame order, so a round ends in exactly the state a serial loop leaves.
//!
//! * **Blocks.** The frames come in contiguous blocks (CoCa's are runs: a
//!   run's noise is drawn once per layer by the thread that owns the run).
//!   Threads claim blocks in order from a counter, so a thread that draws
//!   cheap blocks simply claims more of them.
//! * **The calling thread works too.** It produces blocks like every other
//!   thread and, between two of its frames, applies whatever is next in
//!   order. With one worker nothing is spawned and the same loop produces
//!   and applies every frame.
//! * **Bounded hand-off.** A frame's floats travel from its producer to
//!   the applying thread through that producer's FIFO ring — reused from
//!   round to round and capped in floats, so what waits to be applied
//!   never grows past the cap. A producer whose ring is full sleeps until
//!   the applying thread drains it; nothing spins, and no heap block is
//!   allocated on one thread and freed on another.
//! * **Panics end the run.** A panic on any thread marks the round failed
//!   and wakes every sleeper; the others stop at their next frame, and the
//!   panic resumes on the calling thread.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A value on its own pair of cache lines, so two threads writing their
/// own buffers' headers never contend for a line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// A reusable in-order pipeline whose per-frame result is `M` plus a run
/// of floats. Owned by the caller across rounds so its buffers are reused.
#[derive(Debug)]
pub(crate) struct InOrder<M> {
    shared: Mutex<Shared<M>>,
    /// The applying thread sleeps here for the next frame in order.
    ready: Condvar,
    /// Producers sleep here for room in their ring.
    room: Condvar,
    /// Per thread: the floats of the frame it is producing.
    locals: Vec<Padded<Vec<f32>>>,
    /// The applying thread's copy of a published frame's floats.
    taken: Vec<f32>,
}

#[derive(Debug)]
struct Shared<M> {
    /// Next block to claim.
    next_block: usize,
    /// Next frame to apply.
    applied: usize,
    /// Per frame, once published: producer, result, float count.
    slots: Vec<Option<(usize, M, usize)>>,
    /// Per producer: the floats of its published, unapplied frames.
    rings: Vec<Ring>,
    /// Most floats a non-empty ring may hold.
    ring_cap: usize,
    applier_waits: bool,
    producers_wait: usize,
    failed: bool,
}

impl<M> Default for InOrder<M> {
    fn default() -> Self {
        Self {
            shared: Mutex::new(Shared {
                next_block: 0,
                applied: 0,
                slots: Vec::new(),
                rings: Vec::new(),
                ring_cap: 0,
                applier_waits: false,
                producers_wait: 0,
                failed: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            locals: Vec::new(),
            taken: Vec::new(),
        }
    }
}

/// The part of an [`InOrder`] every thread of a round shares.
struct Hub<'a, M> {
    shared: &'a Mutex<Shared<M>>,
    ready: &'a Condvar,
    room: &'a Condvar,
}

impl<M> Hub<'_, M> {
    /// The shared state. Poisoning is ignored: a panic is reported through
    /// `failed`, and no critical section leaves the state half-written.
    fn lock(&self) -> MutexGuard<'_, Shared<M>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, cv: &Condvar, g: MutexGuard<'g, Shared<M>>) -> MutexGuard<'g, Shared<M>> {
        cv.wait(g).unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks the round failed and wakes every sleeper if its thread unwinds.
struct FailOnUnwind<'s, 'a, M>(&'s Hub<'a, M>);

impl<M> Drop for FailOnUnwind<'_, '_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().failed = true;
            self.0.ready.notify_all();
            self.0.room.notify_all();
        }
    }
}

impl<M: Copy + Send> InOrder<M> {
    /// An idle pipeline; buffers are sized by the first round.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Runs `produce` for every frame of `blocks` and `apply` for each in
    /// frame order on the calling thread.
    ///
    /// `blocks` are contiguous and ascending from frame 0. `workers` holds
    /// one state per thread — `workers[0]` is the calling thread's — and
    /// `min(workers.len(), blocks.len()) − 1` scoped threads are spawned.
    /// `produce(worker, i, out)` appends frame `i`'s floats to the empty
    /// `out` and returns its result; `apply(i, result, floats)` receives
    /// them. A producer holds at most `ring_floats` published, unapplied
    /// floats (or one frame, if a frame is larger).
    ///
    /// # Panics
    /// Resumes the first panic of any thread, after every thread stopped.
    pub(crate) fn run<W: Send>(
        &mut self,
        workers: &mut [W],
        blocks: &[Range<usize>],
        ring_floats: usize,
        produce: impl Fn(&mut W, usize, &mut Vec<f32>) -> M + Sync,
        mut apply: impl FnMut(usize, M, &[f32]),
    ) {
        let frames = blocks.last().map_or(0, |b| b.end);
        debug_assert!(blocks.windows(2).all(|w| w[0].end == w[1].start));
        let threads = workers.len().min(blocks.len()).max(1);
        {
            let g = self
                .shared
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            g.next_block = 0;
            g.applied = 0;
            g.slots.clear();
            g.slots.resize(frames, None);
            if g.rings.len() < threads {
                g.rings.resize_with(threads, Ring::default);
            }
            for ring in &mut g.rings[..threads] {
                ring.reset(ring_floats);
            }
            g.ring_cap = ring_floats;
            g.applier_waits = false;
            g.producers_wait = 0;
            g.failed = false;
        }
        if self.locals.len() < threads {
            self.locals.resize_with(threads, Padded::default);
        }
        let sync = Hub {
            shared: &self.shared,
            ready: &self.ready,
            room: &self.room,
        };
        let (mine, theirs) = workers.split_first_mut().expect("at least one worker");
        let (my_local, their_locals) = self.locals.split_first_mut().expect("one local");
        let taken = &mut self.taken;
        let (sync, produce) = (&sync, &produce);
        std::thread::scope(|s| {
            let handles: Vec<_> = theirs
                .iter_mut()
                .zip(their_locals)
                .take(threads - 1)
                .enumerate()
                .map(|(i, (w, local))| {
                    s.spawn(move || produce_loop(sync, i + 1, w, &mut local.0, blocks, produce))
                })
                .collect();
            let applied = apply_loop(
                sync,
                mine,
                &mut my_local.0,
                taken,
                blocks,
                frames,
                produce,
                &mut apply,
            );
            if !applied {
                // A producer panicked: every thread has stopped or is
                // stopping; re-raise the first panic here.
                for h in handles {
                    if let Err(panic) = h.join() {
                        resume_unwind(panic);
                    }
                }
                unreachable!("a round failed without a panicking producer");
            }
        });
    }
}

/// A spawned producer: claims blocks and publishes their frames into ring
/// `p` until the blocks run out or the round fails.
fn produce_loop<W, M: Copy>(
    sync: &Hub<'_, M>,
    p: usize,
    worker: &mut W,
    local: &mut Vec<f32>,
    blocks: &[Range<usize>],
    produce: &impl Fn(&mut W, usize, &mut Vec<f32>) -> M,
) {
    let _fail = FailOnUnwind(sync);
    loop {
        let block = {
            let mut g = sync.lock();
            if g.failed || g.next_block == blocks.len() {
                return;
            }
            g.next_block += 1;
            blocks[g.next_block - 1].clone()
        };
        for i in block {
            local.clear();
            let result = produce(worker, i, local);
            let mut g = sync.lock();
            while !g.failed && !fits(&g, p, local.len()) {
                g.producers_wait += 1;
                g = sync.wait(sync.room, g);
                g.producers_wait -= 1;
            }
            if g.failed {
                return;
            }
            g.rings[p].push(local);
            g.slots[i] = Some((p, result, local.len()));
            if g.applier_waits && g.applied == i {
                sync.ready.notify_one();
            }
        }
    }
}

/// Whether `floats` more fit in ring `p`. An empty ring takes any frame,
/// so a frame larger than the cap cannot wedge its producer.
fn fits<M>(g: &Shared<M>, p: usize, floats: usize) -> bool {
    let ring = &g.rings[p];
    ring.len == 0 || ring.len + floats <= g.ring_cap
}

/// A FIFO of floats in one buffer, reused round after round: frames go in
/// whole and come out whole, in order.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<f32>,
    head: usize,
    len: usize,
}

impl Ring {
    /// Empties the ring and makes room for `cap` floats.
    fn reset(&mut self, cap: usize) {
        if self.buf.len() < cap {
            self.buf.resize(cap, 0.0);
        }
        self.head = 0;
        self.len = 0;
    }

    fn push(&mut self, xs: &[f32]) {
        if self.len + xs.len() > self.buf.len() {
            // Only an empty ring takes a frame over its capacity.
            debug_assert_eq!(self.len, 0);
            self.head = 0;
            self.buf.resize(xs.len(), 0.0);
        }
        let cap = self.buf.len();
        if xs.is_empty() {
            return;
        }
        let tail = (self.head + self.len) % cap;
        let (a, b) = xs.split_at(xs.len().min(cap - tail));
        self.buf[tail..tail + a.len()].copy_from_slice(a);
        self.buf[..b.len()].copy_from_slice(b);
        self.len += xs.len();
    }

    /// Moves the oldest `n` floats into `out`, replacing its contents.
    fn pop(&mut self, n: usize, out: &mut Vec<f32>) {
        out.clear();
        if n == 0 {
            return;
        }
        let cap = self.buf.len();
        let first = n.min(cap - self.head);
        out.extend_from_slice(&self.buf[self.head..self.head + first]);
        out.extend_from_slice(&self.buf[..n - first]);
        self.head = (self.head + n) % cap;
        self.len -= n;
    }
}

/// The calling thread: applies every frame in order and, whenever the next
/// one is not ready, produces frames of its own (ring 0). Returns `false`
/// if another thread panicked.
#[allow(clippy::too_many_arguments)]
fn apply_loop<W, M: Copy>(
    sync: &Hub<'_, M>,
    worker: &mut W,
    local: &mut Vec<f32>,
    taken: &mut Vec<f32>,
    blocks: &[Range<usize>],
    frames: usize,
    produce: &impl Fn(&mut W, usize, &mut Vec<f32>) -> M,
    apply: &mut impl FnMut(usize, M, &[f32]),
) -> bool {
    let _fail = FailOnUnwind(sync);
    // This thread's current block, and its last frame if not yet handed on.
    let mut block = 0..0;
    let mut own: Option<(usize, M)> = None;
    loop {
        let mut g = sync.lock();
        if g.failed {
            return false;
        }
        if let Some((i, result)) = own {
            if i == g.applied {
                // Next in order: apply it straight from the local buffer.
                g.applied += 1;
                drop(g);
                own = None;
                apply(i, result, local);
                continue;
            }
            if fits(&g, 0, local.len()) {
                g.rings[0].push(local);
                g.slots[i] = Some((0, result, local.len()));
                own = None;
            }
        }
        if g.applied == frames {
            return true;
        }
        let next = g.applied;
        if let Some((p, result, floats)) = g.slots[next].take() {
            g.rings[p].pop(floats, taken);
            g.applied += 1;
            if g.producers_wait > 0 {
                sync.room.notify_all();
            }
            drop(g);
            apply(next, result, taken);
            continue;
        }
        if own.is_none() {
            if block.is_empty() && g.next_block < blocks.len() {
                g.next_block += 1;
                block = blocks[g.next_block - 1].clone();
            }
            if let Some(i) = block.next() {
                drop(g);
                local.clear();
                own = Some((i, produce(worker, i, local)));
                continue;
            }
        }
        g.applier_waits = true;
        g = sync.wait(sync.ready, g);
        g.applier_waits = false;
    }
}

/// Runs `f` on its own thread and returns whether it panicked, failing
/// the test if it neither returns nor panics within a minute.
#[cfg(test)]
pub(crate) fn panics_within_a_minute(f: impl FnOnce() + Send + 'static) -> bool {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = tx.send(out.is_err());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the run hung instead of ending")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks of uneven lengths over `frames` frames.
    fn blocks(frames: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let (mut at, mut len) = (0, 1);
        while at < frames {
            let end = (at + len).min(frames);
            out.push(at..end);
            at = end;
            len = len % 7 + 1;
        }
        out
    }

    /// Frame `i`'s floats: `i % 5` copies of `i`, so sizes vary and some
    /// frames carry nothing.
    fn produce(_: &mut (), i: usize, out: &mut Vec<f32>) -> usize {
        out.extend(std::iter::repeat_n(i as f32, i % 5));
        i * 3
    }

    #[test]
    fn applies_every_frame_in_order_at_any_width() {
        for workers in [1, 2, 3, 5] {
            for ring in [1, 4, 1000] {
                let mut pipe = InOrder::new();
                // The same pipeline twice: buffers are reused across rounds.
                for frames in [200, 37] {
                    let mut seen = Vec::new();
                    pipe.run(
                        &mut vec![(); workers],
                        &blocks(frames),
                        ring,
                        produce,
                        |i, r, floats| {
                            assert_eq!(r, i * 3);
                            assert_eq!(floats, vec![i as f32; i % 5]);
                            seen.push(i);
                        },
                    );
                    assert_eq!(seen, (0..frames).collect::<Vec<_>>(), "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn an_empty_round_applies_nothing() {
        let mut pipe = InOrder::<usize>::new();
        pipe.run(&mut [(), ()], &[], 8, produce, |_, _, _| {
            panic!("no frames")
        });
    }

    #[test]
    fn a_panicking_worker_ends_the_round() {
        // Worker 1 panics on its first frame. The calling thread's first
        // frame waits until worker 1 has started one, so the panic happens
        // while the calling thread still has frames to apply.
        for ring in [1, 1000] {
            assert!(panics_within_a_minute(move || {
                let (started, wait) = std::sync::mpsc::channel();
                let (started, wait) = (Mutex::new(started), Mutex::new(wait));
                let mut pipe = InOrder::new();
                pipe.run(
                    &mut [0usize, 1],
                    &blocks(500),
                    ring,
                    |w, i, out| {
                        if *w == 1 {
                            started.lock().unwrap().send(()).unwrap();
                            panic!("worker 1 fails");
                        }
                        if i == 0 {
                            wait.lock().unwrap().recv().unwrap();
                        }
                        produce(&mut (), i, out)
                    },
                    |_, _, _| {},
                );
            }));
        }
    }

    #[test]
    fn a_panicking_applier_ends_the_round() {
        // The applying thread panics while a producer may be asleep on a
        // full ring; the producer must stop and the panic come out.
        for ring in [1, 1000] {
            assert!(panics_within_a_minute(move || {
                let mut pipe = InOrder::new();
                pipe.run(&mut [(), (), ()], &blocks(500), ring, produce, |i, _, _| {
                    assert!(i < 50, "apply fails at frame {i}");
                });
            }));
        }
    }
}
