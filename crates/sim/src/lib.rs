//! # coca-sim — virtual-time simulation kernel
//!
//! The CoCa paper measures wall-clock latency on an NVIDIA Jetson TX2
//! testbed. This reproduction replaces the testbed with a *deterministic
//! virtual clock*: every model block, cache lookup and network transfer is
//! charged a calibrated amount of **virtual time**, so experiments are exact,
//! repeatable and independent of the host machine.
//!
//! The crate provides three small, orthogonal pieces:
//!
//! * [`time`] — [`SimTime`](time::SimTime) / [`SimDuration`](time::SimDuration),
//!   nanosecond-resolution virtual timestamps with ms-oriented helpers.
//! * [`rng`] — [`SeedTree`](rng::SeedTree), hierarchical deterministic seed
//!   derivation so every component gets an independent, reproducible RNG.
//! * [`event`] — [`EventQueue`](event::EventQueue), the discrete-event
//!   scheduler used by the multi-client engine (server queueing, staggered
//!   client rounds): a hierarchical timer wheel with O(1) amortized
//!   operations at fleet scale, property-pinned to a `BinaryHeap`
//!   reference's pop order in `tests/proptest_event_queue.rs`.

pub mod event;
pub mod rng;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::SeedTree;
pub use time::{SimDuration, SimTime};
