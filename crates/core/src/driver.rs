//! The generic virtual-time method engine (`MethodDriver` + [`drive`]).
//!
//! The paper compares CoCa against FoggyCache-, SMTM- and LearnedCache-
//! style baselines under *identical* multi-client conditions. For those
//! numbers to be apples-to-apples, every method must execute inside the
//! same discrete-event loop: staggered client boots, link transfer delays,
//! and a single server FIFO queue that prices contention. This module
//! extracts that loop from the CoCa-specific engine so *any* method — the
//! full CoCa protocol, FoggyCache's per-frame remote lookups, or a purely
//! local cache policy — runs through one event loop and emits one report
//! shape.
//!
//! A method implements [`MethodDriver`]; the engine owns the workload
//! (frame streams from the shared [`Scenario`]), virtual time, the link
//! and the server queue. Per round and client the engine:
//!
//! 1. asks the driver for an optional **cache request** (CoCa's §IV.A
//!    step 1; purely local methods return `None` and boot straight into
//!    frames);
//! 2. prices request uplink, server FIFO queueing, driver-reported service
//!    time and allocation downlink, then **installs** the allocation;
//! 3. offers the driver the round's `frames_per_round` frames through one
//!    [`MethodDriver::process_frames`] call and folds each frame's outcome
//!    into the metrics in frame order. By default the driver runs
//!    [`MethodDriver::process_frame`] on one frame at a time, and a frame
//!    may pause there on a **server query** (FoggyCache's remote lookup):
//!    the engine turns it into a real request/response event pair — uplink,
//!    queue wait, service, downlink — and resumes the frame on delivery. A
//!    driver whose frames never pause may compute the round's frames in
//!    any order, on any number of threads — CoCa's runs their pure phase
//!    on every core (see [`crate::client::CocaClient`]) — as long as the
//!    outcomes come back in frame order;
//! 4. collects an optional end-of-round **upload** whose server-side merge
//!    cost is attributed to the uploading client's summary.
//!
//! Determinism: all randomness derives from the scenario's [`SeedTree`],
//! event ties break FIFO, and every consumed frame folds into an
//! order-independent digest so tests can assert two methods saw
//! byte-identical streams.
//!
//! ## Dynamic fleets
//!
//! The engine also executes **dynamic scenarios** (see
//! [`crate::spec::ScenarioSpec`]) through [`drive_plan`]: a [`DrivePlan`]
//! describes per-member boot instants, per-member round budgets (a `Leave`
//! truncates them) and per-member time-varying [`LinkSchedule`]s. A
//! mid-run joiner boots at its virtual join instant, issues a fresh cache
//! request and folds into the same frame digest; a leaver departs at its
//! final round boundary — its end-of-round upload and any in-flight
//! request/reply pairs drain through the FIFO before the queue empties.
//! Frame-consuming dynamics are keyed in *client-progress* space (rounds
//! or frame indices) rather than wall-clock virtual time precisely so the
//! cross-method digest invariant survives: methods progress through the
//! same streams at different speeds, but they consume identical frames.
//!
//! ## Multi-edge topologies
//!
//! A [`DrivePlan`] carries a [`TopologyPlan`]: N server cells, each with
//! its own FIFO queue, a client→cell assignment (mutable mid-run via
//! `Migrate` events, applied at round boundaries in client-progress
//! space), optional per-cell client↔cell link overrides, and a priced
//! periodic **peer-sync** event. At each sync tick the driver exports
//! table deltas ([`MethodDriver::sync_export`]); the engine prices each
//! over the topology's `peer_link`, routes the delivery through the
//! destination cell's FIFO, and hands it to
//! [`MethodDriver::sync_absorb`] — which may emit follow-up deltas (the
//! hub's broadcast leg). [`TopologyPlan::single`] — one cell, no
//! overrides, no sync — is what a plan without a topology carries: the
//! event sequence every pre-topology record was committed under, so
//! those records regenerate unchanged.

use coca_data::{Frame, StreamGenerator};
use coca_metrics::recorder::{LatencyRecorder, RunSummary};
use coca_metrics::WindowedSummary;
use coca_net::{LinkModel, LinkSchedule, ServerQueue, WireSize};
use coca_sim::{EventQueue, SimDuration, SimTime};
use rand::Rng;

use crate::engine::{EngineReport, Scenario};
use crate::spec::SyncMode;

/// What one fully processed frame cost and produced.
#[derive(Debug, Clone, Copy)]
pub struct FrameOutcome {
    /// Local virtual compute consumed by this step (excludes any network
    /// wait, which the engine accounts from event timestamps).
    pub compute: SimDuration,
    /// Whether the emitted prediction matched the frame's ground truth.
    pub correct: bool,
    /// Cache point of the hit, `None` for a full inference / miss.
    pub hit_point: Option<usize>,
}

/// Result of advancing one frame inside a driver.
#[derive(Debug)]
pub enum FrameStep<Q> {
    /// The frame finished locally.
    Done(FrameOutcome),
    /// The frame needs the server: `elapsed` local compute was spent, then
    /// `query` departs for the server. The engine delivers the reply to
    /// [`MethodDriver::resume_frame`].
    NeedServer {
        /// Local compute consumed before the query left.
        elapsed: SimDuration,
        /// The query message (its [`WireSize`] prices the uplink).
        query: Q,
    },
}

/// An uninhabited message type for protocol slots a method does not use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoMsg {}

impl WireSize for NoMsg {
    fn wire_bytes(&self) -> usize {
        match *self {}
    }
}

/// One method (client fleet + server), plugged into the generic engine.
///
/// All methods on `&mut self`: a driver owns both the per-client and the
/// server-side state of its method (FoggyCache's shared global store, the
/// CoCa server's global table, …). `k` is the client index within the
/// scenario.
pub trait MethodDriver {
    /// Round-start request (client → server).
    type Request: WireSize;
    /// Allocation answering a request (server → client).
    type Alloc: WireSize;
    /// Mid-frame query (client → server), e.g. FoggyCache remote lookup.
    type Query: WireSize;
    /// Reply to a mid-frame query (server → client).
    type Reply: WireSize;
    /// End-of-round upload (client → server).
    type Upload: WireSize;

    /// Method name as printed in tables; [`drive_plan`] copies it into
    /// [`EngineReport::method`].
    fn name(&self) -> &str;

    /// Client `k`'s round-start cache request; `None` for methods with no
    /// allocation phase (they boot straight into frame processing).
    fn cache_request(&mut self, _k: usize) -> Option<Self::Request> {
        None
    }

    /// Server handling of a cache request: the allocation plus the server
    /// compute charged to the FIFO queue.
    fn serve_request(&mut self, _k: usize, _req: Self::Request) -> (Self::Alloc, SimDuration) {
        unreachable!("driver returned a cache request but does not serve requests")
    }

    /// Installs a delivered allocation on client `k`.
    fn install(&mut self, _k: usize, _alloc: Self::Alloc) {
        unreachable!("driver returned a cache request but does not install allocations")
    }

    /// Processes the next frame on client `k`.
    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<Self::Query>;

    /// Processes client `k`'s next frames: `frames` draws the rest of its
    /// round from its stream, and every frame drawn goes to `step`, with
    /// its outcome, in frame order. `step` returns `false` when the frame
    /// paused on a server query; no further frame may be drawn then. The
    /// default runs [`MethodDriver::process_frame`] on one frame at a
    /// time. A driver whose frames never pause may draw them all first and
    /// compute them in any order, so long as the steps arrive in order.
    fn process_frames(
        &mut self,
        k: usize,
        frames: impl Iterator<Item = Frame>,
        mut step: impl FnMut(&Frame, FrameStep<Self::Query>) -> bool,
    ) {
        for frame in frames {
            let outcome = self.process_frame(k, &frame);
            if !step(&frame, outcome) {
                return;
            }
        }
    }

    /// Server handling of a mid-frame query: the reply plus the server
    /// compute charged to the FIFO queue.
    fn serve_query(&mut self, _k: usize, _query: Self::Query) -> (Self::Reply, SimDuration) {
        unreachable!("driver issued a server query but does not serve queries")
    }

    /// Resumes client `k`'s paused frame once the reply arrives.
    fn resume_frame(
        &mut self,
        _k: usize,
        _frame: &Frame,
        _reply: Self::Reply,
    ) -> FrameStep<Self::Query> {
        unreachable!("driver issued a server query but does not resume frames")
    }

    /// Client `k`'s end-of-round upload, if the method uploads anything.
    fn end_round(&mut self, _k: usize) -> Option<Self::Upload> {
        None
    }

    /// Server handling of an upload: the merge compute charged to the FIFO
    /// queue (and attributed to client `k`'s summary).
    fn serve_upload(&mut self, _k: usize, _upload: Self::Upload) -> SimDuration {
        unreachable!("driver returned an upload but does not serve uploads")
    }

    /// Cell-addressed variant of [`MethodDriver::serve_request`]. The
    /// engine always calls the `_at` form; single-server drivers keep the
    /// plain form and inherit this forwarding default (cell is always 0).
    fn serve_request_at(
        &mut self,
        _cell: usize,
        k: usize,
        req: Self::Request,
    ) -> (Self::Alloc, SimDuration) {
        self.serve_request(k, req)
    }

    /// Cell-addressed variant of [`MethodDriver::serve_upload`].
    fn serve_upload_at(&mut self, _cell: usize, k: usize, upload: Self::Upload) -> SimDuration {
        self.serve_upload(k, upload)
    }

    /// Client `k` re-homes from `from_cell` to `to_cell` at a round
    /// boundary (its goodbye upload already departed toward `from_cell`).
    /// Multi-cell drivers move per-client routing state here; the default
    /// does nothing. Never fired when `from_cell == to_cell`.
    fn on_migrate(&mut self, _k: usize, _from_cell: usize, _to_cell: usize) {}

    /// Peer-sync tick `seq`: the deltas each cell sends this tick. The
    /// engine prices each emission over the topology's peer link and
    /// delivers it to [`MethodDriver::sync_absorb`]. The default syncs
    /// nothing (single-server methods, baselines).
    fn sync_export(&mut self, _seq: u64) -> Vec<SyncEmit> {
        Vec::new()
    }

    /// A peer delta arrives at `emit.to_cell`: merge it and return the
    /// service time charged to that cell's FIFO, plus any follow-up
    /// emissions (e.g. the hub's broadcast once all spokes reported).
    fn sync_absorb(&mut self, _emit: &SyncEmit) -> (SimDuration, Vec<SyncEmit>) {
        (SimDuration::ZERO, Vec::new())
    }

    /// Client `k` departs the fleet before the run's natural end (fired at
    /// its final round boundary, after its goodbye upload was handed to
    /// the link). Methods with shared server state can retire the leaver's
    /// contributions here; the default does nothing.
    fn on_leave(&mut self, _k: usize) {}

    /// Fired once when the event queue drains — the run's quiesce point.
    /// Methods with deferred server-side work (CoCa's upload queue)
    /// apply it here so post-run inspection of server
    /// state sees every upload merged; the default does nothing.
    fn on_run_end(&mut self) {}
}

/// Method-agnostic engine knobs: how long to run and what the boot
/// pattern looks like. Two methods compared under the same `DriveConfig`
/// and [`Scenario`] face identical contention.
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Rounds each client executes.
    pub rounds: usize,
    /// Frames per round (CoCa's F; every method runs the same count).
    pub frames_per_round: usize,
    /// Clients boot uniformly at random within this window (ms).
    pub boot_window_ms: f64,
}

impl DriveConfig {
    /// Defaults: the paper's testbed boot window, read from `coca-net`,
    /// the single source of truth for the shared-testbed constants.
    pub fn new(rounds: usize, frames_per_round: usize) -> Self {
        Self {
            rounds,
            frames_per_round,
            boot_window_ms: coca_net::TESTBED_BOOT_WINDOW_MS,
        }
    }
}

/// Default width of the windowed (per-interval) metrics buckets.
pub const DEFAULT_METRICS_WINDOW_MS: f64 = 5_000.0;

/// One fleet member's lifecycle in a [`DrivePlan`].
#[derive(Debug, Clone, Copy)]
pub struct MemberPlan {
    /// `None`: part of the base fleet, boots uniformly at random inside
    /// the boot window. `Some(ms)`: joins mid-run at that virtual instant.
    pub join_at_ms: Option<f64>,
    /// Rounds this member executes before departing (a `Leave` event
    /// truncates the base round count).
    pub rounds: usize,
    /// Frames this member processes per round — `None` inherits the
    /// plan-wide [`DrivePlan::frames_per_round`]. A heterogeneous fleet
    /// (slow dashcams next to fast road-side units) gives its members
    /// different values; each still uploads at *its own* round boundary,
    /// so fast members round-trip the server more often per virtual
    /// second. Frame streams stay keyed by per-client sequence numbers,
    /// so the cross-method digest invariant is unaffected.
    pub frames_per_round: Option<usize>,
    /// True iff a `Leave` event cut this member short — the engine then
    /// notifies [`MethodDriver::on_leave`] at the departure boundary.
    pub leaves_early: bool,
}

/// One resolved client handover (compiled from a
/// [`MigrateEvent`](crate::spec::MigrateEvent), in timeline order).
#[derive(Debug, Clone, Copy)]
pub struct MigrationPlan {
    /// The migrating client.
    pub client: usize,
    /// Fires at the end of this 1-based completed-round count.
    pub after_rounds: usize,
    /// Destination cell.
    pub to_cell: usize,
}

/// The resolved multi-edge topology of a [`DrivePlan`].
/// [`TopologyPlan::single`] is the single-server world.
#[derive(Debug, Clone)]
pub struct TopologyPlan {
    /// Number of server cells (each gets its own FIFO queue).
    pub cells: usize,
    /// Initial client→cell assignment, one entry per member.
    pub assignment: Vec<usize>,
    /// Per-cell client↔cell link override; `None` keeps the client's own
    /// link schedule (the bit-identity choice for one-cell plans).
    pub cell_links: Vec<Option<LinkModel>>,
    /// Cell↔cell link pricing peer-sync traffic.
    pub peer_link: LinkModel,
    /// Peer-sync period (virtual ms); `None` disables syncing.
    pub sync_period_ms: Option<f64>,
    /// Delta exchange pattern.
    pub sync_mode: SyncMode,
    /// Handover events, in timeline order (later entries win when two
    /// target the same client and boundary).
    pub migrations: Vec<MigrationPlan>,
}

impl TopologyPlan {
    /// One cell, everyone on it, no link overrides, no sync — executes
    /// the exact event sequence of the pre-topology engine.
    pub fn single(num_clients: usize) -> Self {
        Self {
            cells: 1,
            assignment: vec![0; num_clients],
            cell_links: vec![None],
            peer_link: LinkModel::zero(),
            sync_period_ms: None,
            sync_mode: SyncMode::Gossip,
            migrations: Vec::new(),
        }
    }

    /// Whether this plan schedules peer-sync ticks.
    pub fn syncs(&self) -> bool {
        self.cells >= 2 && self.sync_period_ms.is_some()
    }

    /// The cell member `k` starts on.
    pub fn cell_of(&self, k: usize) -> usize {
        self.assignment.get(k).copied().unwrap_or(0)
    }
}

/// One peer-sync transmission: a table delta leaving `from_cell` for
/// `to_cell`. The driver keeps the payload itself, keyed by `payload`;
/// the engine only prices `bytes` over the peer link and routes the
/// delivery through the destination cell's FIFO queue.
#[derive(Debug, Clone, Copy)]
pub struct SyncEmit {
    /// Originating cell.
    pub from_cell: usize,
    /// Destination cell.
    pub to_cell: usize,
    /// Wire size of the delta (prices the peer-link transfer).
    pub bytes: usize,
    /// Driver-private payload key.
    pub payload: u64,
}

/// The fully resolved execution plan of one run: what [`drive_plan`]
/// executes. Built either statically from a [`DriveConfig`] (every member
/// boots in the window, runs the same rounds, shares one link) or from a
/// [`crate::spec::ScenarioSpec`] timeline (churn, link dynamics).
#[derive(Debug, Clone)]
pub struct DrivePlan {
    /// Frames per round (identical for every member and method).
    pub frames_per_round: usize,
    /// Base-fleet boot window (ms).
    pub boot_window_ms: f64,
    /// One entry per fleet member, joiners last (their indices extend the
    /// base fleet's).
    pub members: Vec<MemberPlan>,
    /// Per-member link schedule, parallel to `members`.
    pub links: Vec<LinkSchedule>,
    /// Width of the windowed-metrics buckets (ms).
    pub metrics_window_ms: f64,
    /// Keep one [`RunSummary`] per client (the default). When `false`,
    /// `EngineReport::per_client` holds a *single* fleet-aggregate
    /// summary — upload sojourns and frame outcomes from every client
    /// fold into index 0 — so metrics memory is O(1) in the fleet size.
    pub per_client: bool,
    /// Server-cell topology ([`TopologyPlan::single`] = one server).
    pub topology: TopologyPlan,
}

impl DrivePlan {
    /// The static plan a [`DriveConfig`] induces over `num_clients`
    /// members: everyone boots in the window, runs `cfg.rounds` rounds and
    /// shares the paper's router-based WiFi testbed link,
    /// [`LinkModel::default`] (≈2 ms one-way, 150 Mbit/s goodput), which
    /// every method runs under. [`drive`] under this plan is bit-identical to
    /// the pre-dynamics engine.
    pub fn from_config(cfg: &DriveConfig, num_clients: usize) -> Self {
        Self {
            frames_per_round: cfg.frames_per_round,
            boot_window_ms: cfg.boot_window_ms,
            members: vec![
                MemberPlan {
                    join_at_ms: None,
                    rounds: cfg.rounds,
                    frames_per_round: None,
                    leaves_early: false,
                };
                num_clients
            ],
            links: vec![LinkSchedule::fixed(LinkModel::default()); num_clients],
            metrics_window_ms: DEFAULT_METRICS_WINDOW_MS,
            per_client: true,
            topology: TopologyPlan::single(num_clients),
        }
    }

    /// Frames member `k` processes per round (its override, else the
    /// plan-wide value).
    pub fn member_frames(&self, k: usize) -> usize {
        self.members[k]
            .frames_per_round
            .unwrap_or(self.frames_per_round)
    }

    /// Total frames the plan consumes across all members.
    pub fn total_frames(&self) -> u64 {
        self.members
            .iter()
            .map(|m| (m.rounds * m.frames_per_round.unwrap_or(self.frames_per_round)) as u64)
            .sum()
    }
}

/// SplitMix64 finalizer used by the frame digest.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest contribution of one consumed frame. Public so
/// the engine-overhead bench can measure the digest component in
/// isolation (stream-gen / digest / scheduling split in `BENCH_engine.json`).
pub fn frame_digest(k: usize, frame: &Frame) -> u64 {
    let mut h = mix64(k as u64 ^ 0xC0CA);
    h = mix64(h ^ frame.seq);
    h = mix64(h ^ frame.class as u64);
    h = mix64(h ^ frame.frame_seed);
    h = mix64(h ^ frame.run_seed);
    h = mix64(h ^ frame.difficulty.to_bits() as u64);
    h
}

enum Ev<D: MethodDriver> {
    /// A no-request client boots straight into its frames.
    Begin { k: usize },
    /// A mid-run joiner boots: its first cache request (or first frame)
    /// departs.
    Join { k: usize },
    /// A cache request arrives at its cell (captured at emission, so a
    /// migration between send and arrival cannot reroute it).
    Request {
        k: usize,
        cell: usize,
        sent: SimTime,
        req: D::Request,
    },
    /// An allocation reaches the client.
    Deliver {
        k: usize,
        sent: SimTime,
        alloc: D::Alloc,
    },
    /// A mid-frame query arrives at its cell.
    Query {
        k: usize,
        cell: usize,
        sent: SimTime,
        query: D::Query,
    },
    /// A query reply reaches the client.
    Reply {
        k: usize,
        sent: SimTime,
        reply: D::Reply,
    },
    /// An end-of-round upload arrives at its cell — the cell the client
    /// was on when the round ended, so a handover's goodbye upload still
    /// drains at the *old* cell.
    Upload {
        k: usize,
        cell: usize,
        upload: D::Upload,
    },
    /// A peer-sync tick: every cell exports its deltas.
    SyncFire { seq: u64 },
    /// A peer delta arrives at `emit.to_cell`'s FIFO.
    SyncDeliver { emit: SyncEmit },
}

/// Per-client engine-side bookkeeping, kept to 16 bytes so a million-member
/// fleet costs 16 MB of state instead of gigabytes: round/frame counters
/// are `u32` (a plan cannot exceed 2³² of either per member) and the rare
/// paused-frame case is boxed out of line.
struct ClientState {
    rounds_left: u32,
    frames_done: u32,
    /// A frame paused on a server query: the frame plus the local compute
    /// and network wait accumulated so far. Boxed — only clients with a
    /// query in flight pay for it, and an idle member stays pointer-sized
    /// here instead of carrying an inline `Frame`.
    pending: Option<Box<(Frame, SimDuration)>>,
}

/// The per-frame and per-client metrics a run folds its outcomes into.
struct Recorders {
    /// One per client, or a single fleet aggregate when
    /// [`DrivePlan::per_client`] is off.
    summaries: Vec<RunSummary>,
    /// Fleet-wide hit/accuracy totals, recorded on the per-frame path —
    /// integer counts, so identical to merging the per-client recorders.
    fleet_hits: coca_metrics::HitRecorder,
    fleet_acc: coca_metrics::AccuracyRecorder,
    latency: LatencyRecorder,
    windowed: WindowedSummary,
}

impl Recorders {
    /// Folds one finished frame into summary slot `idx` and the fleet.
    fn record_frame(&mut self, idx: usize, total: SimDuration, o: &FrameOutcome, done_at: SimTime) {
        let s = &mut self.summaries[idx];
        s.latency.record(total);
        s.accuracy.record(o.correct);
        match o.hit_point {
            Some(p) => s.hits.record_hit(p, o.correct),
            None => s.hits.record_miss(o.correct),
        }
        self.fleet_acc.record(o.correct);
        match o.hit_point {
            Some(p) => self.fleet_hits.record_hit(p, o.correct),
            None => self.fleet_hits.record_miss(o.correct),
        }
        self.latency.record(total);
        self.windowed.record(
            done_at.as_millis_f64(),
            total.as_millis_f64(),
            o.correct,
            o.hit_point.is_some(),
        );
    }
}

/// Client `k`'s client↔cell transfer time at instant `t`: the cell's link
/// override when its current cell has one, else the client's own link
/// schedule — the float path of a topology-less plan, so one-cell plans
/// with no override stay bit-identical to it.
#[inline]
fn xfer(plan: &DrivePlan, cell: &[usize], k: usize, t: SimTime, bytes: usize) -> SimDuration {
    match plan.topology.cell_links[cell[k]] {
        Some(link) => link.transfer_time(bytes),
        None => plan.links[k].transfer_time(t, bytes),
    }
}

struct Exec<D: MethodDriver> {
    plan: DrivePlan,
    streams: Vec<StreamGenerator>,
    events: EventQueue<Ev<D>>,
    /// One FIFO per server cell (index = cell id; single-server plans
    /// have exactly one).
    queues: Vec<ServerQueue>,
    /// Current cell of each client (starts at the topology assignment,
    /// updated by migrations at round boundaries).
    cell: Vec<usize>,
    /// Members still running rounds — peer-sync ticks stop rescheduling
    /// once this hits zero, letting the event queue drain.
    active: usize,
    st: Vec<ClientState>,
    rec: Recorders,
    response_latency: LatencyRecorder,
    digest: u64,
    end_time: SimTime,
}

impl<D: MethodDriver> Exec<D> {
    /// Index of client `k`'s summary slot (0 when aggregating fleet-wide).
    #[inline]
    fn sum_idx(&self, k: usize) -> usize {
        if self.plan.per_client {
            k
        } else {
            0
        }
    }

    /// Runs client `k`'s frames synchronously in virtual time starting at
    /// `t`, until the round pauses on a server query or the client's
    /// rounds are exhausted. All link costs resolve against `k`'s link
    /// schedule at the emission instant.
    fn run_frames(&mut self, driver: &mut D, k: usize, mut t: SimTime) {
        let f = self.plan.member_frames(k) as u32;
        loop {
            if self.st[k].frames_done == f {
                self.st[k].frames_done = 0;
                self.st[k].rounds_left -= 1;
                // The client is busy until its upload is handed to the
                // link; the next request (or round) starts after that.
                // The upload's cell is captured *before* any migration at
                // this boundary: a handover's goodbye upload drains at
                // the old cell.
                let mut free_at = t;
                if let Some(upload) = driver.end_round(k) {
                    free_at = t + xfer(&self.plan, &self.cell, k, t, upload.wire_bytes());
                    self.events.schedule(
                        free_at,
                        Ev::Upload {
                            k,
                            cell: self.cell[k],
                            upload,
                        },
                    );
                }
                if self.st[k].rounds_left == 0 {
                    if self.plan.members[k].leaves_early {
                        // The leaver departs here; its goodbye upload (if
                        // any) is already on the link and drains through
                        // the FIFO behind it.
                        driver.on_leave(k);
                    }
                    self.active -= 1;
                    self.end_time = self.end_time.max(free_at);
                    return;
                }
                // Handover boundary: migrations keyed to this completed
                // round re-home the client before its next request, so
                // the request re-allocates at the new cell. Timeline
                // order applies (later entries win).
                let completed = self.plan.members[k].rounds - self.st[k].rounds_left as usize;
                for i in 0..self.plan.topology.migrations.len() {
                    let m = self.plan.topology.migrations[i];
                    if m.client == k && m.after_rounds == completed && self.cell[k] != m.to_cell {
                        driver.on_migrate(k, self.cell[k], m.to_cell);
                        self.cell[k] = m.to_cell;
                    }
                }
                t = free_at;
                if let Some(req) = driver.cache_request(k) {
                    self.events.schedule(
                        t + xfer(&self.plan, &self.cell, k, t, req.wire_bytes()),
                        Ev::Request {
                            k,
                            cell: self.cell[k],
                            sent: t,
                            req,
                        },
                    );
                    self.end_time = self.end_time.max(t);
                    return;
                }
                continue;
            }
            // The rest of the round goes to the driver in one call; the
            // frames' outcomes come back in frame order.
            let idx = self.sum_idx(k);
            let left = f - self.st[k].frames_done;
            let Exec {
                plan,
                streams,
                events,
                cell,
                st,
                rec,
                digest,
                end_time,
                ..
            } = self;
            let stream = &mut streams[k];
            let frames = (0..left).map(|_| {
                let frame = stream.next_frame();
                *digest ^= frame_digest(k, &frame);
                frame
            });
            let mut paused = false;
            driver.process_frames(k, frames, |frame, step| match step {
                FrameStep::Done(o) => {
                    rec.record_frame(idx, o.compute, &o, t + o.compute);
                    t += o.compute;
                    st[k].frames_done += 1;
                    true
                }
                FrameStep::NeedServer { elapsed, query } => {
                    t += elapsed;
                    st[k].pending = Some(Box::new((*frame, elapsed)));
                    events.schedule(
                        t + xfer(plan, cell, k, t, query.wire_bytes()),
                        Ev::Query {
                            k,
                            cell: cell[k],
                            sent: t,
                            query,
                        },
                    );
                    *end_time = (*end_time).max(t);
                    paused = true;
                    false
                }
            });
            if paused {
                return;
            }
        }
    }

    /// Boots client `k` at instant `now`: first cache request (or first
    /// frame) departs immediately.
    fn boot(&mut self, driver: &mut D, k: usize, now: SimTime) {
        match driver.cache_request(k) {
            Some(req) => {
                self.events.schedule(
                    now + xfer(&self.plan, &self.cell, k, now, req.wire_bytes()),
                    Ev::Request {
                        k,
                        cell: self.cell[k],
                        sent: now,
                        req,
                    },
                );
            }
            None => self.run_frames(driver, k, now),
        }
    }
}

/// Runs `driver` over `scenario` for `cfg.rounds × cfg.frames_per_round`
/// frames per client and returns the aggregated report. Shorthand for
/// [`drive_plan`] under the static plan `cfg` induces.
pub fn drive<D: MethodDriver>(
    scenario: &Scenario,
    driver: &mut D,
    cfg: &DriveConfig,
) -> EngineReport {
    drive_plan(
        scenario,
        driver,
        &DrivePlan::from_config(cfg, scenario.config().num_clients),
    )
}

/// Runs `driver` over `scenario` under an explicit [`DrivePlan`] —
/// possibly with mid-run joins, early leaves and time-varying links.
///
/// # Panics
/// Panics if the plan's member count disagrees with the scenario's client
/// count (a spec-materialized pair always agrees).
pub fn drive_plan<D: MethodDriver>(
    scenario: &Scenario,
    driver: &mut D,
    plan: &DrivePlan,
) -> EngineReport {
    let n = scenario.config().num_clients;
    assert_eq!(
        plan.members.len(),
        n,
        "plan members must match scenario clients"
    );
    assert_eq!(
        plan.links.len(),
        n,
        "plan links must match scenario clients"
    );
    assert_eq!(
        plan.topology.cell_links.len(),
        plan.topology.cells,
        "topology must carry one link slot per cell"
    );
    let l = scenario.rt.num_cache_points();
    let summary_slots = if plan.per_client { n } else { 1 };
    let mut exec: Exec<D> = Exec {
        plan: plan.clone(),
        streams: (0..n).map(|k| scenario.stream(k)).collect(),
        events: EventQueue::new(),
        queues: (0..plan.topology.cells)
            .map(|_| ServerQueue::new())
            .collect(),
        cell: (0..n).map(|k| plan.topology.cell_of(k)).collect(),
        active: plan.members.iter().filter(|m| m.rounds > 0).count(),
        st: (0..n)
            .map(|k| ClientState {
                rounds_left: u32::try_from(plan.members[k].rounds)
                    .expect("member round budget exceeds u32"),
                frames_done: 0,
                pending: None,
            })
            .collect(),
        rec: Recorders {
            summaries: (0..summary_slots).map(|_| RunSummary::new(l)).collect(),
            fleet_hits: coca_metrics::HitRecorder::new(l),
            fleet_acc: coca_metrics::AccuracyRecorder::new(),
            latency: LatencyRecorder::new(),
            windowed: WindowedSummary::new(plan.metrics_window_ms),
        },
        response_latency: LatencyRecorder::new(),
        digest: 0,
        end_time: SimTime::ZERO,
    };

    // Base-fleet staggered boots (same seed path as the original
    // CoCa-only engine — a static plan reproduces it bit for bit); mid-run
    // joiners get a boot event at their join instant instead.
    let boot_seeds = scenario.seeds().child("boot");
    for k in 0..n {
        if plan.members[k].rounds == 0 {
            continue;
        }
        match plan.members[k].join_at_ms {
            None => {
                let mut rng = boot_seeds.child_idx("client", k as u64).rng();
                let at =
                    SimTime::from_millis_f64(rng.gen_range(0.0..plan.boot_window_ms.max(1e-9)));
                match driver.cache_request(k) {
                    Some(req) => exec.events.schedule(
                        at + xfer(&exec.plan, &exec.cell, k, at, req.wire_bytes()),
                        Ev::Request {
                            k,
                            cell: exec.cell[k],
                            sent: at,
                            req,
                        },
                    ),
                    None => exec.events.schedule(at, Ev::Begin { k }),
                }
            }
            Some(ms) => {
                exec.events
                    .schedule(SimTime::from_millis_f64(ms), Ev::Join { k });
            }
        }
    }

    // Peer-sync ticks: the first fires one period in; each tick
    // reschedules the next while any member is still running rounds.
    if plan.topology.syncs() {
        let period = plan
            .topology
            .sync_period_ms
            .expect("syncs() implies a period");
        exec.events
            .schedule(SimTime::from_millis_f64(period), Ev::SyncFire { seq: 0 });
    }

    while let Some(ev) = exec.events.pop() {
        let now = ev.at;
        exec.end_time = exec.end_time.max(now);
        match ev.payload {
            Ev::Begin { k } => exec.run_frames(driver, k, now),
            Ev::Join { k } => exec.boot(driver, k, now),
            Ev::Request { k, cell, sent, req } => {
                let (alloc, service) = driver.serve_request_at(cell, k, req);
                let done = exec.queues[cell].serve(now, service);
                exec.events.schedule(
                    done.finish + xfer(&exec.plan, &exec.cell, k, done.finish, alloc.wire_bytes()),
                    Ev::Deliver { k, sent, alloc },
                );
            }
            Ev::Deliver { k, sent, alloc } => {
                exec.response_latency.record(now.saturating_since(sent));
                driver.install(k, alloc);
                exec.run_frames(driver, k, now);
            }
            Ev::Query {
                k,
                cell,
                sent,
                query,
            } => {
                let (reply, service) = driver.serve_query(k, query);
                let done = exec.queues[cell].serve(now, service);
                exec.events.schedule(
                    done.finish + xfer(&exec.plan, &exec.cell, k, done.finish, reply.wire_bytes()),
                    Ev::Reply { k, sent, reply },
                );
            }
            Ev::Reply { k, sent, reply } => {
                exec.response_latency.record(now.saturating_since(sent));
                let (frame, mut elapsed) = *exec.st[k]
                    .pending
                    .take()
                    .expect("reply without a paused frame");
                elapsed += now.saturating_since(sent);
                match driver.resume_frame(k, &frame, reply) {
                    FrameStep::Done(o) => {
                        let idx = exec.sum_idx(k);
                        exec.rec
                            .record_frame(idx, elapsed + o.compute, &o, now + o.compute);
                        exec.st[k].frames_done += 1;
                        exec.run_frames(driver, k, now + o.compute);
                    }
                    FrameStep::NeedServer {
                        elapsed: more,
                        query,
                    } => {
                        let t = now + more;
                        exec.st[k].pending = Some(Box::new((frame, elapsed + more)));
                        exec.events.schedule(
                            t + xfer(&exec.plan, &exec.cell, k, t, query.wire_bytes()),
                            Ev::Query {
                                k,
                                cell: exec.cell[k],
                                sent: t,
                                query,
                            },
                        );
                    }
                }
            }
            Ev::Upload { k, cell, upload } => {
                let service = driver.serve_upload_at(cell, k, upload);
                let svc = exec.queues[cell].serve(now, service);
                // Attribute the upload's queue sojourn (wait + merge
                // compute) to the uploading client's summary.
                let s = exec.sum_idx(k);
                exec.rec.summaries[s].upload.record(svc.sojourn_since(now));
            }
            Ev::SyncFire { seq } => {
                if exec.active > 0 {
                    for emit in driver.sync_export(seq) {
                        exec.events.schedule(
                            now + exec.plan.topology.peer_link.transfer_time(emit.bytes),
                            Ev::SyncDeliver { emit },
                        );
                    }
                    let period = exec
                        .plan
                        .topology
                        .sync_period_ms
                        .expect("sync tick without a period");
                    exec.events.schedule(
                        now + SimDuration::from_millis_f64(period),
                        Ev::SyncFire { seq: seq + 1 },
                    );
                }
            }
            Ev::SyncDeliver { emit } => {
                let (service, follow) = driver.sync_absorb(&emit);
                let svc = exec.queues[emit.to_cell].serve(now, service);
                for f in follow {
                    exec.events.schedule(
                        svc.finish + exec.plan.topology.peer_link.transfer_time(f.bytes),
                        Ev::SyncDeliver { emit: f },
                    );
                }
            }
        }
    }

    driver.on_run_end();

    // Fleet hit/accuracy totals come off the always-on per-frame
    // recorders — integer counts, bit-identical to the former end-of-run
    // merge over per-client summaries (and available even when the plan
    // keeps no per-client state).
    let rec = exec.rec;
    EngineReport {
        method: driver.name().to_string(),
        frames: rec.latency.count(),
        mean_latency_ms: rec.latency.mean_ms(),
        accuracy_pct: rec.fleet_acc.accuracy_pct(),
        hit_ratio: rec.fleet_hits.hit_ratio(),
        latency: rec.latency,
        response_latency: exec.response_latency,
        windowed: rec.windowed,
        per_client: rec.summaries,
        absorb: crate::client::AbsorbStats::default(),
        frame_digest: exec.digest,
        end_time: exec.end_time,
    }
}
