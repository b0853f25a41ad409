//! The degenerate method that prices the virtual-time engine alone:
//! `exp fleet`'s engine-scale sweep and the `engine_fleet_per_event`
//! bench row both run it through `drive_plan`.

use coca_core::driver::{FrameOutcome, FrameStep, MethodDriver, NoMsg};
use coca_data::Frame;
use coca_net::WireSize;
use coca_sim::SimDuration;

/// Fixed-size protocol message: big enough to exercise the link-pricing
/// path, small enough that transfer time never dominates scheduling.
#[derive(Debug, Clone, Copy)]
pub struct Blip;

impl WireSize for Blip {
    fn wire_bytes(&self) -> usize {
        96
    }
}

/// Constant per-frame compute, tiny request/upload round-trips, no cache
/// and no real inference: everything `drive_plan` spends on it is engine
/// machinery — stream generation, digest folding, timer-wheel scheduling,
/// FIFO pricing, recorders. It counts the three message kinds it handles,
/// so a member-round is `frames + 3` engine events (frames, request,
/// delivery, upload).
#[derive(Debug, Default)]
pub struct FleetNullDriver {
    /// Cache requests issued.
    pub requests: u64,
    /// Allocations installed.
    pub installs: u64,
    /// Uploads issued.
    pub uploads: u64,
}

impl FleetNullDriver {
    /// Engine events of a run that processed `frames` frames: the frames
    /// plus every request, delivery and upload counted.
    pub fn events(&self, frames: u64) -> u64 {
        frames + self.requests + self.installs + self.uploads
    }
}

impl MethodDriver for FleetNullDriver {
    type Request = Blip;
    type Alloc = Blip;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = Blip;

    fn name(&self) -> &str {
        "fleet-null"
    }

    fn cache_request(&mut self, _k: usize) -> Option<Blip> {
        self.requests += 1;
        Some(Blip)
    }

    fn serve_request(&mut self, _k: usize, _req: Blip) -> (Blip, SimDuration) {
        (Blip, SimDuration::from_micros(2))
    }

    fn install(&mut self, _k: usize, _alloc: Blip) {
        self.installs += 1;
    }

    fn process_frame(&mut self, _k: usize, _frame: &Frame) -> FrameStep<NoMsg> {
        FrameStep::Done(FrameOutcome {
            compute: SimDuration::from_micros(10),
            correct: true,
            hit_point: None,
        })
    }

    fn end_round(&mut self, _k: usize) -> Option<Blip> {
        self.uploads += 1;
        Some(Blip)
    }

    fn serve_upload(&mut self, _k: usize, _upload: Blip) -> SimDuration {
        SimDuration::from_micros(2)
    }
}
