//! The CoCa instantiation of the virtual-time engine (§IV.A round
//! workflow, §VI.C/I) plus the workload model every method shares.
//!
//! Clients boot staggered, then loop: request cache → (link + server FIFO
//! queue + link) → run F frames locally → upload collected updates →
//! request again. All cross-device interaction resolves through the
//! discrete-event loop in [`crate::driver`], so runs are exactly
//! reproducible.
//!
//! [`Engine`] runs that protocol against N [`CocaServer`] cells — one
//! unless built [`Engine::with_cells`]. Every client is homed to one cell
//! (its traffic prices that cell's link and FIFO queue), each cell
//! allocates from its *own* merged view, and a periodic peer-sync tick
//! exchanges [`PeerDelta`]s over the topology's peer link: a **gossip**
//! ring (cell *i* → *(i+1) mod N*; mass reaches everywhere in at most
//! N−1 ticks) or **hub-and-spoke** (spokes → cell 0, which broadcasts
//! back once the last outstanding spoke delta lands). Both
//! [`SyncMode`]s ride the cursor-based provenance in
//! [`CocaServer::export_delta`], so each origin cell's Φ mass reaches
//! each other cell exactly once — fleet-wide Φ is conserved.
//!
//! [`Scenario`] pins down everything two *methods* must share to be
//! comparable (model, feature universe, client drift profiles, class
//! distributions, per-client streams); the baselines crate builds its
//! [`MethodDriver`](crate::driver::MethodDriver)s on the same scenario so
//! CoCa and every baseline see byte-identical frames through the same
//! event loop — [`EngineReport::frame_digest`] proves it per run.

use std::collections::BTreeMap;

use coca_data::partition::{client_distributions, NonIidLevel};
use coca_data::{DatasetSpec, Frame, PopularityPhase, StreamConfig, StreamGenerator};
use coca_metrics::recorder::{LatencyRecorder, RunSummary};
use coca_metrics::WindowedSummary;
use coca_model::{ClientProfile, ModelId, ModelRuntime};
use coca_net::WireSize;
use coca_sim::{SeedTree, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::client::{AbsorbStats, CocaClient, FramePool};
use crate::config::CocaConfig;
use crate::driver::{
    drive_plan, DriveConfig, DrivePlan, FrameOutcome, FrameStep, MethodDriver, NoMsg, SyncEmit,
};
use crate::proto::{CacheAllocation, CacheRequest, PeerDelta, UpdateUpload};
use crate::server::CocaServer;
use crate::spec::SyncMode;

/// Everything that defines the *workload* (shared across methods).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Model under test.
    pub model: ModelId,
    /// Dataset (or subset).
    pub dataset: DatasetSpec,
    /// Number of edge clients.
    pub num_clients: usize,
    /// Non-IID level `p = 1/ε` (0 = IID).
    pub non_iid: NonIidLevel,
    /// Population class popularity (uniform or long-tail); length must
    /// equal the dataset's class count.
    pub global_popularity: Vec<f64>,
    /// Per-client context-drift magnitude (non-IID feature shift).
    pub drift_mag: f32,
    /// Fraction of drift shared across clients.
    pub drift_shared_frac: f32,
    /// Override of the dataset's mean same-class run length.
    pub mean_run_length: Option<f64>,
    /// Master seed: fixes the universe, partitions and streams.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A scenario with uniform popularity and sensible defaults.
    pub fn new(model: ModelId, dataset: DatasetSpec) -> Self {
        let n = dataset.num_classes;
        Self {
            model,
            dataset,
            num_clients: 10,
            non_iid: NonIidLevel::IID,
            global_popularity: coca_data::distribution::uniform_weights(n),
            drift_mag: 0.25,
            drift_shared_frac: 0.7,
            mean_run_length: None,
            seed: 42,
        }
    }
}

/// A materialized workload: runtime + per-client profiles + distributions.
#[derive(Debug)]
pub struct Scenario {
    /// The simulated model (shared by every method).
    pub rt: ModelRuntime,
    /// Per-client drift profiles.
    pub profiles: Vec<ClientProfile>,
    /// Per-client class distributions.
    pub distributions: Vec<Vec<f64>>,
    cfg: ScenarioConfig,
    seeds: SeedTree,
    /// Per-client piecewise popularity schedules (empty = static streams).
    /// Set by [`crate::spec::ScenarioSpec::materialize`] from the
    /// timeline's `PopularityShift` events.
    schedules: Vec<Vec<PopularityPhase>>,
}

impl Scenario {
    /// Builds the scenario deterministically from its config.
    ///
    /// # Panics
    /// Panics if the popularity vector length mismatches the dataset.
    pub fn build(cfg: ScenarioConfig) -> Self {
        assert_eq!(
            cfg.global_popularity.len(),
            cfg.dataset.num_classes,
            "popularity length must match class count"
        );
        let seeds = SeedTree::new(cfg.seed);
        let rt = ModelRuntime::new(cfg.model, &cfg.dataset, &seeds.child("universe"));
        let profiles: Vec<ClientProfile> = (0..cfg.num_clients)
            .map(|k| {
                ClientProfile::new(
                    k as u64,
                    cfg.drift_mag,
                    cfg.drift_shared_frac,
                    &seeds.child("universe"),
                )
            })
            .collect();
        let distributions = client_distributions(
            &cfg.global_popularity,
            cfg.num_clients,
            cfg.non_iid,
            &seeds.child("partition"),
        );
        let schedules = vec![Vec::new(); cfg.num_clients];
        Self {
            rt,
            profiles,
            distributions,
            cfg,
            seeds,
            schedules,
        }
    }

    /// Attaches per-client piecewise popularity schedules (one vector per
    /// client; an empty vector leaves that client's stream static).
    ///
    /// # Panics
    /// Panics if the outer length mismatches the client count.
    pub fn set_popularity_schedules(&mut self, schedules: Vec<Vec<PopularityPhase>>) {
        assert_eq!(
            schedules.len(),
            self.cfg.num_clients,
            "one schedule slot per client"
        );
        self.schedules = schedules;
    }

    /// The scenario's configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The scenario's seed node (method drivers derive their own children).
    pub fn seeds(&self) -> &SeedTree {
        &self.seeds
    }

    /// A fresh, deterministic frame stream for client `k`. Every call
    /// returns an identical generator — methods compared on this scenario
    /// consume byte-identical streams. Popularity schedules attached via
    /// [`Scenario::set_popularity_schedules`] are baked in, so dynamic
    /// scenarios keep the same replayability guarantee.
    pub fn stream(&self, k: usize) -> StreamGenerator {
        let run = self
            .cfg
            .mean_run_length
            .unwrap_or(self.cfg.dataset.mean_run_length);
        let mut cfg = StreamConfig::new(self.distributions[k].clone(), run);
        if !self.schedules[k].is_empty() {
            cfg = cfg.with_schedule(self.schedules[k].clone());
        }
        StreamGenerator::new(cfg, &self.seeds.child_idx("client-stream", k as u64))
    }
}

/// Engine-level knobs on top of the scenario.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The CoCa configuration.
    pub coca: CocaConfig,
    /// Rounds each client executes.
    pub rounds: usize,
    /// Clients boot uniformly at random within this window.
    pub boot_window_ms: f64,
}

impl EngineConfig {
    /// Defaults used by the experiments. A static run prices the shared
    /// [`coca_net::LinkModel::default`] testbed link (≈2 ms one-way,
    /// 150 Mbit/s) — the *same* link every baseline driver runs under, so
    /// cross-method latency numbers price identical network conditions.
    pub fn new(coca: CocaConfig) -> Self {
        // Boot defaults come from DriveConfig (which in turn reads the
        // shared-testbed constants from coca-net) so CoCa and the
        // baseline drivers share a single source of truth.
        let shared = DriveConfig::new(10, coca.round_frames);
        Self {
            coca,
            rounds: shared.rounds,
            boot_window_ms: shared.boot_window_ms,
        }
    }

    /// The method-agnostic engine knobs this configuration induces.
    pub fn drive_config(&self) -> DriveConfig {
        DriveConfig {
            rounds: self.rounds,
            frames_per_round: self.coca.round_frames,
            boot_window_ms: self.boot_window_ms,
        }
    }
}

/// Aggregated outcome of one engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Row name of the method that ran, from [`MethodDriver::name`]
    /// (`"CoCa"`, `"Edge-Only"`, `"LRU"`, …).
    pub method: String,
    /// Frames processed across all clients.
    pub frames: u64,
    /// Mean end-to-end inference latency (ms).
    pub mean_latency_ms: f64,
    /// Overall accuracy (%): correct predictions / all frames.
    pub accuracy_pct: f64,
    /// Overall cache hit ratio.
    pub hit_ratio: f64,
    /// Global per-frame latency distribution.
    pub latency: LatencyRecorder,
    /// Cache-request response latencies (request sent → cache installed),
    /// the paper's Fig. 10(b) metric.
    pub response_latency: LatencyRecorder,
    /// Per-interval (virtual-time window) hit/latency/accuracy series —
    /// how drift and churn effects become visible over time.
    pub windowed: WindowedSummary,
    /// Per-client summaries — or a single fleet aggregate when the plan
    /// turned [`DrivePlan::per_client`](crate::driver::DrivePlan::per_client)
    /// off.
    pub per_client: Vec<RunSummary>,
    /// Collection-rule accounting summed over clients (CoCa only; zeroed
    /// for methods without collection rules).
    pub absorb: AbsorbStats,
    /// Order-independent digest of every `(client, frame)` consumed. Two
    /// methods run over the same scenario and length must agree exactly —
    /// the cross-method fairness invariant.
    pub frame_digest: u64,
    /// Virtual instant the last event completed.
    pub end_time: SimTime,
}

/// The CoCa protocol as a [`MethodDriver`]: requests/allocations/uploads
/// flow through the generic event loop to the client's home cell (the
/// loop only calls the cell-addressed `_at` forms; frames never query a
/// server mid-inference — CoCa resolves lookups locally), and the sync
/// hooks implement both exchange modes.
struct CocaDriver<'a> {
    rt: &'a ModelRuntime,
    servers: &'a mut [CocaServer],
    clients: &'a mut [CocaClient],
    /// One set of per-thread frame workers for the whole fleet: a client's
    /// round runs on all of them, and rounds run one after another.
    pool: FramePool,
    /// The frames of the round in flight.
    round: Vec<Frame>,
    /// Current home cell of each client — the driver's mirror of the
    /// event loop's routing state, needed because the leave hook is not
    /// cell-qualified.
    cell: Vec<usize>,
    sync_mode: SyncMode,
    /// In-flight sync payloads, keyed by the id carried in
    /// [`SyncEmit::payload`].
    payloads: BTreeMap<u64, PeerDelta>,
    next_payload: u64,
    /// Hub-and-spoke: spoke deltas exported but not yet absorbed by the
    /// hub. The broadcast back fires when this returns to zero.
    hub_outstanding: usize,
}

impl CocaDriver<'_> {
    /// Registers `delta` as an in-flight payload and returns the wire
    /// event the driver schedules over the peer link.
    fn emit(&mut self, to_cell: usize, delta: PeerDelta) -> SyncEmit {
        let emit = SyncEmit {
            from_cell: delta.from_cell as usize,
            to_cell,
            bytes: delta.wire_bytes(),
            payload: self.next_payload,
        };
        self.next_payload += 1;
        self.payloads.insert(emit.payload, delta);
        emit
    }

    /// The hub's broadcast leg: one delta per spoke, ascending spoke id.
    fn hub_broadcast(&mut self) -> Vec<SyncEmit> {
        let mut out = Vec::new();
        for spoke in 1..self.servers.len() {
            let delta = self.servers[0].export_delta(spoke as u32);
            if !delta.is_empty() {
                out.push(self.emit(spoke, delta));
            }
        }
        out
    }
}

impl MethodDriver for CocaDriver<'_> {
    type Request = CacheRequest;
    type Alloc = CacheAllocation;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = UpdateUpload;

    fn name(&self) -> &str {
        "CoCa"
    }

    fn cache_request(&mut self, k: usize) -> Option<CacheRequest> {
        Some(self.clients[k].cache_request())
    }

    fn serve_request_at(
        &mut self,
        cell: usize,
        _k: usize,
        req: CacheRequest,
    ) -> (CacheAllocation, SimDuration) {
        self.servers[cell].handle_request(&req)
    }

    fn install(&mut self, k: usize, alloc: CacheAllocation) {
        self.clients[k].install_cache(alloc.cache);
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<NoMsg> {
        let res = self.clients[k].process_frame(self.rt, frame, self.pool.scratch());
        FrameStep::Done(FrameOutcome {
            compute: res.latency,
            correct: res.correct,
            hit_point: res.hit_point,
        })
    }

    fn process_frames(
        &mut self,
        k: usize,
        frames: impl Iterator<Item = Frame>,
        mut step: impl FnMut(&Frame, FrameStep<NoMsg>) -> bool,
    ) {
        // CoCa frames never pause: draw the whole round, then run it on
        // every worker, outcomes in frame order.
        self.round.clear();
        self.round.extend(frames);
        let round = &self.round;
        self.clients[k].process_frames(self.rt, round, &mut self.pool, |frame, pass| {
            let outcome = FrameOutcome {
                compute: pass.latency,
                correct: pass.correct,
                hit_point: pass.hit_point,
            };
            let more = step(frame, FrameStep::Done(outcome));
            debug_assert!(more, "a finished frame cannot pause");
        });
    }

    fn end_round(&mut self, k: usize) -> Option<UpdateUpload> {
        Some(self.clients[k].end_round())
    }

    fn serve_upload_at(&mut self, cell: usize, _k: usize, upload: UpdateUpload) -> SimDuration {
        // Enqueues for the next flush boundary (request, leave, handover,
        // sync export/absorb, run end).
        self.servers[cell].handle_upload(upload)
    }

    fn on_leave(&mut self, k: usize) {
        // Drop the leaver's allocation; its collected knowledge stays in
        // its home cell's table (collaborative caching keeps what the
        // fleet learned) and propagates onward at the next sync tick. The
        // remaining clients re-run ACA at their next request, so the
        // freed budget and the post-churn global frequencies re-allocate
        // without any extra protocol step. With `leave_phi_decay < 1` the
        // cell additionally ages its global frequency mass:
        // `Φ ← ⌈β·Φ⌉` (off by default).
        let c = self.cell[k];
        self.servers[c].on_client_leave();
        self.clients[k].install_cache(crate::semantic::LocalCache::empty());
    }

    fn on_migrate(&mut self, k: usize, from_cell: usize, to_cell: usize) {
        // Handover: drain the old cell's queued uploads first — the
        // migrant's in-flight contribution must merge where it was
        // uploaded — then re-home. The client keeps serving from its
        // current allocation until its next request, which lands at the
        // new cell and re-allocates from that cell's merged view.
        self.servers[from_cell].flush_pending();
        self.cell[k] = to_cell;
    }

    fn on_run_end(&mut self) {
        // The tail of the run's uploads (those after the final request
        // boundary) is still queued; drain it so post-run inspection sees
        // every upload merged.
        for s in self.servers.iter_mut() {
            s.flush_pending();
        }
    }

    fn sync_export(&mut self, _seq: u64) -> Vec<SyncEmit> {
        // Every export drains its cell's queue first (a flush boundary
        // inside `CocaServer`), so deltas carry fully merged mass.
        let n = self.servers.len();
        let mut out = Vec::new();
        match self.sync_mode {
            SyncMode::Gossip => {
                // Ring: cell i → cell (i+1) mod n, ascending sender id.
                for i in 0..n {
                    let to = (i + 1) % n;
                    let delta = self.servers[i].export_delta(to as u32);
                    if !delta.is_empty() {
                        out.push(self.emit(to, delta));
                    }
                }
            }
            SyncMode::HubAndSpoke => {
                // Collect leg: every spoke → hub (cell 0), own-origin
                // mass only — third-party mass a spoke holds came from
                // the hub's own broadcasts and would double-count
                // there. The hub's broadcast back is emitted from
                // `sync_absorb` once the last outstanding spoke delta
                // lands.
                for spoke in 1..n {
                    let delta = self.servers[spoke].export_own_delta(0);
                    if !delta.is_empty() {
                        self.hub_outstanding += 1;
                        out.push(self.emit(0, delta));
                    }
                }
                if self.hub_outstanding == 0 {
                    // Nothing inbound this tick (quiet fleet): the hub
                    // may still hold mass the spokes lack — broadcast.
                    out.extend(self.hub_broadcast());
                }
            }
        }
        out
    }

    fn sync_absorb(&mut self, emit: &SyncEmit) -> (SimDuration, Vec<SyncEmit>) {
        let delta = self
            .payloads
            .remove(&emit.payload)
            .expect("sync payload delivered twice");
        // Uploads queued before the delta arrived merge before it: the
        // absorb drains the queue first.
        let service = self.servers[emit.to_cell].absorb_peer(&delta);
        let mut follow = Vec::new();
        if self.sync_mode == SyncMode::HubAndSpoke && emit.to_cell == 0 {
            self.hub_outstanding -= 1;
            if self.hub_outstanding == 0 {
                follow = self.hub_broadcast();
            }
        }
        (service, follow)
    }
}

/// The multi-client CoCa engine: N [`CocaServer`] cells over one shared
/// [`Scenario`] — one cell unless built [`Engine::with_cells`].
pub struct Engine {
    scenario: Scenario,
    cfg: EngineConfig,
    servers: Vec<CocaServer>,
    clients: Vec<CocaClient>,
}

impl Engine {
    /// Builds the single-server engine over a scenario.
    pub fn new(scenario: Scenario, cfg: EngineConfig) -> Self {
        Self::with_cells(scenario, cfg, 1)
    }

    /// Builds `cells` identical server cells over the scenario — how a
    /// topology spec is run. Every cell seeds from the same
    /// `(rt, cfg, seeds)`, so all start from the same genesis table
    /// (identical digests) and diverge only through the uploads their own
    /// clients contribute.
    ///
    /// # Panics
    /// Panics if `cells` is zero.
    pub fn with_cells(scenario: Scenario, mut cfg: EngineConfig, cells: usize) -> Self {
        assert!(cells > 0, "a topology needs at least one cell");
        if cfg.coca.cache_budget_bytes == 0 {
            // Auto budget: 1/8 of the full cache (paper's Fig. 1(a) sweet
            // spot is near 10 %).
            cfg.coca.cache_budget_bytes = scenario
                .rt
                .arch()
                .full_cache_bytes(scenario.rt.num_classes())
                / 8;
        }
        let servers: Vec<CocaServer> = (0..cells)
            .map(|i| {
                let mut s = CocaServer::new(&scenario.rt, cfg.coca, scenario.seeds());
                s.set_cell_id(i as u32);
                s
            })
            .collect();
        let clients: Vec<CocaClient> = scenario
            .profiles
            .iter()
            .enumerate()
            .map(|(k, p)| {
                CocaClient::new(
                    k as u64,
                    cfg.coca,
                    &scenario.rt,
                    p.clone(),
                    servers[0].base_hit_profile().to_vec(),
                )
            })
            .collect();
        Self {
            scenario,
            cfg,
            servers,
            clients,
        }
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The engine configuration (budget auto-fill applied).
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Cell 0 — *the* server of a one-cell engine (post-run inspection,
    /// e.g. the Fig. 2 experiment).
    pub fn server(&self) -> &CocaServer {
        &self.servers[0]
    }

    /// Mutable access to cell 0 — attaching/detaching a durability layer
    /// around a run (see `crate::persist`).
    pub fn server_mut(&mut self) -> &mut CocaServer {
        &mut self.servers[0]
    }

    /// Every cell (post-run inspection: per-cell digests, provenance).
    pub fn servers(&self) -> &[CocaServer] {
        &self.servers
    }

    /// Runs every client for the configured number of rounds against one
    /// cell through the generic event loop and returns the aggregated
    /// report.
    pub fn run(&mut self) -> EngineReport {
        let plan =
            DrivePlan::from_config(&self.cfg.drive_config(), self.scenario.config().num_clients);
        self.run_plan(&plan)
    }

    /// Runs CoCa under an explicit [`DrivePlan`] — the dynamic-scenario
    /// entry point (joins, leaves, link changes, and the topology:
    /// assignment, cell links, sync schedule, migrations).
    ///
    /// Each client round's frames run their pure phase on one thread per
    /// available core ([`std::thread::available_parallelism`], which
    /// honours the CPU affinity mask) and their apply phase in frame order
    /// on the calling thread (`CocaClient::process_frames`): the report
    /// is the same bits on any number of cores. Threads are spawned per
    /// round, never while the engine is built.
    ///
    /// # Panics
    /// Panics if the plan's topology names a different cell count than
    /// this engine was built with, and resumes any panic of a round's
    /// threads once all of them have stopped.
    pub fn run_plan(&mut self, plan: &DrivePlan) -> EngineReport {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_plan_on(plan, workers)
    }

    /// [`Engine::run_plan`] with the pure phase of every round on `workers`
    /// threads (the calling thread one of them) instead of one per
    /// available core. The report is the same at every count.
    pub(crate) fn run_plan_on(&mut self, plan: &DrivePlan, workers: usize) -> EngineReport {
        assert_eq!(
            plan.topology.cells,
            self.servers.len(),
            "plan topology and engine disagree on the number of cells"
        );
        let cell: Vec<usize> = (0..plan.members.len())
            .map(|k| plan.topology.cell_of(k))
            .collect();
        let mut driver = CocaDriver {
            rt: &self.scenario.rt,
            servers: &mut self.servers,
            clients: &mut self.clients,
            pool: FramePool::new(workers),
            round: Vec::new(),
            cell,
            sync_mode: plan.topology.sync_mode,
            payloads: BTreeMap::new(),
            next_payload: 0,
            hub_outstanding: 0,
        };
        let mut report = drive_plan(&self.scenario, &mut driver, plan);
        // CoCa-specific accounting the generic loop cannot see.
        let mut absorb = AbsorbStats::default();
        for c in &self.clients {
            absorb.merge(c.absorb_stats());
        }
        report.absorb = absorb;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScenarioSpec, TopologySpec};
    use coca_model::ModelId;

    fn small_cfg(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        cfg.num_clients = 4;
        cfg.seed = seed;
        cfg
    }

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::build(small_cfg(seed))
    }

    fn engine_cfg(rounds: usize) -> EngineConfig {
        let mut coca = CocaConfig::for_model(ModelId::ResNet101);
        coca.round_frames = 120; // keep tests quick
        let mut e = EngineConfig::new(coca);
        e.rounds = rounds;
        e
    }

    #[test]
    fn engine_runs_all_rounds_and_beats_edge_only() {
        let scenario = small_scenario(70);
        let full_ms = scenario.rt.full_compute().as_millis_f64();
        let mut engine = Engine::new(scenario, engine_cfg(4));
        let report = engine.run();
        assert_eq!(report.frames, 4 * 4 * 120);
        assert!(report.hit_ratio > 0.2, "hit ratio {}", report.hit_ratio);
        assert!(
            report.mean_latency_ms < full_ms,
            "mean {} vs edge-only {}",
            report.mean_latency_ms,
            full_ms
        );
        assert!(report.accuracy_pct > 60.0);
        assert_eq!(report.response_latency.count(), 4 * 4);
        assert_eq!(report.per_client.len(), 4);
    }

    #[test]
    fn engine_is_deterministic() {
        let r1 = Engine::new(small_scenario(71), engine_cfg(3)).run();
        let r2 = Engine::new(small_scenario(71), engine_cfg(3)).run();
        assert_eq!(r1.mean_latency_ms, r2.mean_latency_ms);
        assert_eq!(r1.accuracy_pct, r2.accuracy_pct);
        assert_eq!(r1.hit_ratio, r2.hit_ratio);
        assert_eq!(r1.end_time, r2.end_time);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = Engine::new(small_scenario(72), engine_cfg(2)).run();
        let r2 = Engine::new(small_scenario(73), engine_cfg(2)).run();
        assert_ne!(r1.mean_latency_ms, r2.mean_latency_ms);
    }

    #[test]
    fn scenario_streams_are_replayable() {
        let s = small_scenario(74);
        let a = s.stream(2).take(50);
        let b = s.stream(2).take(50);
        assert_eq!(a, b);
    }

    #[test]
    fn more_clients_increase_response_latency() {
        let mk = |n: usize| {
            let mut cfg = small_cfg(75);
            cfg.num_clients = n;
            let mut e = engine_cfg(2);
            e.boot_window_ms = 100.0; // force contention
            Engine::new(Scenario::build(cfg), e).run()
        };
        let small = mk(2);
        let big = mk(12);
        assert!(
            big.response_latency.mean_ms() > small.response_latency.mean_ms(),
            "big {} small {}",
            big.response_latency.mean_ms(),
            small.response_latency.mean_ms()
        );
    }

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(small_cfg(seed), 3, 120)
    }

    fn report_key(r: &EngineReport) -> (f64, f64, f64, u64, SimTime) {
        (
            r.mean_latency_ms,
            r.accuracy_pct,
            r.hit_ratio,
            r.frame_digest,
            r.end_time,
        )
    }

    #[test]
    fn one_cell_topology_matches_no_topology() {
        let (scenario_a, plan_a) = spec(81).materialize();
        let mut plain = Engine::new(scenario_a, engine_cfg(3));
        let plain_report = plain.run_plan(&plan_a);

        let (scenario_b, plan_b) = spec(81).topology(TopologySpec::uniform(1, 4)).materialize();
        let mut one_cell = Engine::with_cells(scenario_b, engine_cfg(3), 1);
        let report = one_cell.run_plan(&plan_b);

        assert_eq!(report_key(&plain_report), report_key(&report));
        assert_eq!(
            plain.server().global().digest(),
            one_cell.server().global().digest()
        );
    }

    #[test]
    fn two_cells_sync_and_converge() {
        for mode in [SyncMode::Gossip, SyncMode::HubAndSpoke] {
            let s = spec(82).topology(TopologySpec::uniform(2, 4).with_sync(500.0, mode));
            let (scenario, plan) = s.materialize();
            let mut multi = Engine::with_cells(scenario, engine_cfg(3), 2);
            let report = multi.run_plan(&plan);
            assert!(report.frames > 0);
            // Every cell saw the other's mass: provenance rows exist for
            // both origins on both cells.
            for cell in multi.servers() {
                assert_eq!(cell.merge_provenance().len(), 2, "mode {mode:?}");
            }
            // Syncs stop at run end, so full Φ convergence is not
            // guaranteed; the exact invariant is no echo: no cell holds
            // MORE of an origin's mass than the origin cell itself
            // recorded.
            for origin in 0..2u32 {
                let own: u64 = multi.servers()[origin as usize].merge_provenance()[&origin]
                    .iter()
                    .sum();
                for cell in multi.servers() {
                    if let Some(row) = cell.merge_provenance().get(&origin) {
                        assert!(row.iter().sum::<u64>() <= own, "echoed mass for {origin}");
                    }
                }
            }
        }
    }

    #[test]
    fn migration_rehomes_a_client() {
        let s = spec(83)
            .topology(TopologySpec::uniform(2, 4).with_sync(500.0, SyncMode::Gossip))
            .migrate(0, 1, 1);
        let (scenario, plan) = s.materialize();
        assert_eq!(plan.topology.migrations.len(), 1);
        let mut multi = Engine::with_cells(scenario, engine_cfg(3), 2);
        let report = multi.run_plan(&plan);
        assert!(report.frames > 0);
        // Client 0 (homed to cell 0 by round-robin) moved to cell 1 after
        // its first round; its later uploads landed there, so cell 1 has
        // own-origin Φ mass beyond what its two round-robin residents and
        // the sync stream explain — at minimum the row exists.
        assert!(multi.servers()[1].merge_provenance().contains_key(&1));
    }

    /// Everything a run reports — every float in its shortest round-trip
    /// form, so two equal renderings mean equal bits — plus each cell's
    /// final table digest.
    fn outcome(engine: &mut Engine, plan: &DrivePlan, workers: usize) -> (String, Vec<u64>) {
        let report = engine.run_plan_on(plan, workers);
        let digests = engine
            .servers()
            .iter()
            .map(|s| s.global().digest())
            .collect();
        (format!("{report:?}"), digests)
    }

    /// Runs the world `build` makes at 1, 2 and 3 workers and asserts the
    /// three outcomes are identical.
    fn assert_same_at_every_worker_count(build: impl Fn() -> (Engine, DrivePlan)) {
        let run = |workers| {
            let (mut engine, plan) = build();
            outcome(&mut engine, &plan, workers)
        };
        let one = run(1);
        assert!(one.0.contains("frame_digest"));
        for workers in [2, 3] {
            assert!(run(workers) == one, "{workers} workers differ from one");
        }
    }

    #[test]
    fn engine_sim_world_is_the_same_at_every_worker_count() {
        // The benchmark's world (ResNet101, UCF101-50, 4 clients, seed
        // 4600) at 6 rounds of 300 frames.
        assert_same_at_every_worker_count(|| {
            let mut cfg = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(50));
            cfg.num_clients = 4;
            cfg.seed = 4600;
            let mut e = EngineConfig::new(CocaConfig::for_model(ModelId::ResNet101));
            e.rounds = 6;
            let engine = Engine::new(Scenario::build(cfg), e);
            let plan = DrivePlan::from_config(&engine.config().drive_config(), 4);
            (engine, plan)
        });
    }

    #[test]
    fn churn_spec_is_the_same_at_every_worker_count() {
        // Joins, leaves and migrations: rounds of members start and stop
        // between the parallel rounds of the others.
        let json = include_str!("../../../results/specs/churn.json");
        let spec = ScenarioSpec::from_json(json).expect("churn spec parses");
        assert_same_at_every_worker_count(|| {
            let (scenario, plan) = spec.materialize();
            let mut coca = CocaConfig::for_model(spec.scenario.model);
            coca.round_frames = spec.frames_per_round;
            let cells = plan.topology.cells;
            (
                Engine::with_cells(scenario, EngineConfig::new(coca), cells),
                plan,
            )
        });
    }

    #[test]
    fn three_cells_are_the_same_at_every_worker_count() {
        assert_same_at_every_worker_count(|| {
            let s = spec(84)
                .topology(TopologySpec::uniform(3, 4).with_sync(400.0, SyncMode::HubAndSpoke))
                .migrate(1, 1, 2);
            let (scenario, plan) = s.materialize();
            (Engine::with_cells(scenario, engine_cfg(3), 3), plan)
        });
    }

    #[test]
    fn a_panicking_frame_worker_ends_the_run() {
        // The caches the servers allocate were built for ResNet101; the
        // clients' frames are synthesized by an AST runtime, whose vectors
        // disagree with every cached layer in dimension: the lookup of the
        // first frame panics, on whichever thread runs its pure phase.
        for workers in [1, 2, 3] {
            assert!(crate::ordered::panics_within_a_minute(move || {
                let mut engine = Engine::new(small_scenario(91), engine_cfg(2));
                let mut cfg = small_cfg(91);
                cfg.model = ModelId::AstBase;
                engine.scenario = Scenario::build(cfg);
                let plan = DrivePlan::from_config(&engine.config().drive_config(), 4);
                engine.run_plan_on(&plan, workers);
            }));
        }
    }

    #[test]
    fn a_panicking_apply_phase_ends_the_run() {
        // Each client's update table already holds ResNet50-sized rows
        // (frames processed on a foreign runtime): the first Eq. 3 absorb
        // into one of those cells panics on the applying thread, while the
        // other threads' pure phases run on.
        for workers in [1, 2, 3] {
            assert!(crate::ordered::panics_within_a_minute(move || {
                let mut engine = Engine::new(small_scenario(92), engine_cfg(2));
                let foreign = Scenario::build({
                    let mut cfg = small_cfg(92);
                    cfg.model = ModelId::ResNet50;
                    cfg
                });
                let mut scratch = crate::lookup::LookupScratch::new();
                for (k, client) in engine.clients.iter_mut().enumerate() {
                    for frame in foreign.stream(k).take(120) {
                        client.process_frame(&foreign.rt, &frame, &mut scratch);
                    }
                }
                let plan = DrivePlan::from_config(&engine.config().drive_config(), 4);
                engine.run_plan_on(&plan, workers);
            }));
        }
    }
}
