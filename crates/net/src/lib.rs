//! # coca-net — networking substrate
//!
//! The paper's testbed wires Jetson clients to an edge server over WiFi and
//! exchanges caches via MPI. Two first-order effects matter to the
//! evaluation:
//!
//! 1. **Transfer time** of serialized caches/updates (< 1 MB per exchange,
//!    paper §VI.I) — modelled by [`link::LinkModel`] as one-way delay +
//!    bytes / bandwidth.
//! 2. **Server queueing** when many clients request allocations around the
//!    same round boundary (the paper's Fig. 10(b) response-latency growth
//!    from 60 → 160 clients) — modelled by [`queue::ServerQueue`], a
//!    single-server FIFO in virtual time.
//!
//! For running the protocol across real processes, [`wire`] provides the
//! binary message codec and length-prefixed framing that `cocad` and its
//! clients speak (`coca-daemon` owns the sockets).

pub mod link;
pub mod queue;
pub mod wire;

pub use link::{LinkChangePoint, LinkModel, LinkSchedule, TESTBED_BOOT_WINDOW_MS};
pub use queue::ServerQueue;
pub use wire::{
    decode_message, encode_frame, write_message, FrameError, FrameReader, Reader, Wire, WireSize,
};
