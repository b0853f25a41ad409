//! Declarative dynamic scenarios: [`ScenarioSpec`].
//!
//! The paper evaluates a *static* fleet: every client boots once, shares
//! one WiFi link and samples a frozen popularity distribution. A
//! [`ScenarioSpec`] promotes that implicit world into data — a base
//! workload ([`ScenarioConfig`]) plus a **timeline** of dynamics events —
//! so any experiment (churn, popularity drift, per-client link
//! degradation) is a JSON document instead of bespoke engine code.
//!
//! ## Event semantics and the fairness invariant
//!
//! The engine's cross-method fairness invariant — every method consumes
//! byte-identical frame streams, proven by the order-independent frame
//! digest — must survive dynamics. Methods traverse the same streams at
//! *different virtual-time rates*, so any event that changes **which
//! frames exist** must be keyed in client-progress space, while events
//! that only change **costs** can be keyed in virtual time:
//!
//! * [`JoinEvent`] (virtual time): a new client boots mid-run at `at_ms`
//!   and executes its own `rounds` rounds. The joiner's stream content
//!   depends only on its client index, never on the join instant.
//! * [`LeaveEvent`] (client progress): the client departs at the end of
//!   its `after_rounds`-th round — at whatever virtual instant it reaches
//!   that boundary. Its goodbye upload and any in-flight request/reply
//!   pairs drain through the server FIFO.
//! * [`PopularityShiftEvent`] (client progress): from stream frame
//!   `at_frame` onward the affected clients sample a transformed
//!   popularity (rotated head, explicit weights, or a seeded
//!   permutation). Compiled into piecewise schedules inside
//!   [`StreamGenerator`](coca_data::StreamGenerator).
//! * [`LinkChangeEvent`] (virtual time): from `at_ms` onward the affected
//!   clients' traffic is priced by a different [`LinkModel`], resolved at
//!   event-emission time.
//! * [`MigrateEvent`] (client progress): the client re-homes from its
//!   current server cell to `to_cell` at the end of its
//!   `after_rounds`-th round — the goodbye upload of the finished round
//!   still drains through the *old* cell's FIFO, the next cache request
//!   re-allocates at the new one. Requires a [`TopologySpec`].
//!
//! ## Multi-edge topology
//!
//! The optional [`TopologySpec`] replaces the implicit single server
//! with N collaborating server cells: each client is assigned to a
//! cell, each cell may override the client↔cell link, and cells
//! periodically exchange table deltas over a priced `peer_link`
//! (hub-and-spoke or gossip, see [`SyncMode`]). A one-cell topology —
//! and a spec with no topology at all — materializes a `DrivePlan`
//! byte-identical to the classic single-server path.
//!
//! A spec with an empty timeline and uniform links reproduces the static
//! engine bit for bit (asserted by tests).

use coca_data::PopularityPhase;
use coca_net::{LinkModel, LinkSchedule, TESTBED_BOOT_WINDOW_MS};
use coca_sim::{SeedTree, SimTime};
use serde::{Deserialize, Serialize};

use crate::driver::{
    DrivePlan, MemberPlan, MigrationPlan, TopologyPlan, DEFAULT_METRICS_WINDOW_MS,
};
use crate::engine::{Scenario, ScenarioConfig};

/// A new client joining the fleet mid-run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JoinEvent {
    /// Virtual boot instant (ms).
    pub at_ms: f64,
    /// Rounds the joiner executes (each `frames_per_round` frames).
    pub rounds: usize,
}

/// A client departing before the run's natural end.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LeaveEvent {
    /// The departing client (base-fleet index, or a joiner's index).
    pub client: usize,
    /// The client departs at the end of this round (1-based count of
    /// completed rounds; values ≥ the client's round budget are no-ops).
    pub after_rounds: usize,
}

/// How a popularity shift transforms the current class weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PopularityShift {
    /// Rotate the weight vector: the weight of class `c` moves to class
    /// `(c + n) mod C` — the long-tail head slides to new classes.
    Rotate(usize),
    /// Replace the weights outright (length must match the class count;
    /// normalized internally).
    Replace(Vec<f64>),
    /// Permute the weights with a deterministic shuffle drawn from this
    /// seed — a "re-draw" of which classes are hot.
    Permute(u64),
}

/// A popularity shift applied to one client or the whole fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopularityShiftEvent {
    /// Target client (`None` = every client, joiners included).
    pub client: Option<usize>,
    /// First stream frame (per-client sequence number) the shifted
    /// popularity governs.
    pub at_frame: u64,
    /// The transformation.
    pub shift: PopularityShift,
}

/// A link change applied to one client or the whole fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkChangeEvent {
    /// Target client (`None` = every client, joiners included).
    pub client: Option<usize>,
    /// Virtual instant (ms) the new link takes effect.
    pub at_ms: f64,
    /// The link model in force from `at_ms` onward.
    pub link: LinkModel,
}

/// A per-client device speed: how many frames the client processes per
/// round. Heterogeneous speeds model mixed fleets (paper §V runs uniform
/// Jetson TX2 clients; a deployment mixes dashcams and road-side units).
/// This is *plan structure*, not a timed event: it applies for the whole
/// run, and a member's round boundary — hence its upload/request cadence —
/// comes at its own frame count. Later entries targeting the same client
/// overwrite earlier ones.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DeviceSpeedEvent {
    /// Target client (`None` = every client, joiners included).
    pub client: Option<usize>,
    /// Frames per round for the target (replaces the spec-wide
    /// `frames_per_round`).
    pub frames_per_round: usize,
}

/// A client re-homing from its current server cell to another — the
/// multi-edge handover. Keyed in client progress (like [`LeaveEvent`])
/// so the frame digest is method-independent: the goodbye upload of the
/// finished round drains at the old cell, the next cache request
/// re-allocates from the new cell's merged view.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MigrateEvent {
    /// The migrating client (base-fleet index, or a joiner's index).
    pub client: usize,
    /// The handover happens at the end of this round (1-based count of
    /// completed rounds; values ≥ the client's round budget are no-ops).
    pub after_rounds: usize,
    /// Destination cell index in the spec's [`TopologySpec`].
    pub to_cell: usize,
}

/// How cells exchange table deltas at each sync tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncMode {
    /// Spokes push their deltas to cell 0 (the hub); once every spoke's
    /// delta has arrived the hub merges them in cell-id order and pushes
    /// the combined delta back out. Two peer-link hops end-to-end.
    HubAndSpoke,
    /// Ring gossip: cell `i` pushes its delta to cell `(i+1) mod N`.
    /// One hop per tick; knowledge takes `N-1` ticks to circulate.
    Gossip,
}

/// One server cell in a multi-edge topology.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellSpec {
    /// Client↔cell link override. `None` keeps each client's own link
    /// schedule (base link + `LinkChange` events) — the choice that
    /// makes a one-cell topology bit-identical to no topology at all.
    pub link: Option<LinkModel>,
}

/// A topology of collaborating server cells. Absent (`None` on the
/// spec) means the classic single server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologySpec {
    /// The server cells; index is the cell id.
    pub cells: Vec<CellSpec>,
    /// Client→cell assignment by client index. Clients beyond the
    /// vector's length (e.g. joiners) default to cell 0.
    pub assignment: Vec<usize>,
    /// Cell↔cell link pricing peer-sync traffic.
    pub peer_link: LinkModel,
    /// Peer-sync period (virtual ms). `None` disables syncing — cells
    /// evolve independently from the shared genesis table.
    pub sync_period_ms: Option<f64>,
    /// Delta exchange pattern.
    pub sync_mode: SyncMode,
}

impl TopologySpec {
    /// `cells` cells with round-robin client assignment, the testbed
    /// peer link, and syncing disabled.
    pub fn uniform(cells: usize, clients: usize) -> Self {
        Self {
            cells: vec![CellSpec { link: None }; cells.max(1)],
            assignment: (0..clients).map(|k| k % cells.max(1)).collect(),
            peer_link: LinkModel::testbed(),
            sync_period_ms: None,
            sync_mode: SyncMode::Gossip,
        }
    }

    /// Builder: enables periodic peer sync.
    pub fn with_sync(mut self, period_ms: f64, mode: SyncMode) -> Self {
        self.sync_period_ms = Some(period_ms);
        self.sync_mode = mode;
        self
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell client `k` starts on (unassigned tail → cell 0).
    pub fn cell_of(&self, k: usize) -> usize {
        self.assignment.get(k).copied().unwrap_or(0)
    }
}

/// One timeline entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Client churn: arrival.
    Join(JoinEvent),
    /// Client churn: departure.
    Leave(LeaveEvent),
    /// Popularity drift.
    PopularityShift(PopularityShiftEvent),
    /// Connectivity dynamics.
    LinkChange(LinkChangeEvent),
    /// Heterogeneous device speed (per-client `frames_per_round`).
    DeviceSpeed(DeviceSpeedEvent),
    /// Multi-edge handover: a client re-homes to another cell.
    Migrate(MigrateEvent),
}

/// Upper bound on any timeline instant (ms): ~11.5 virtual days. Keeps a
/// hostile or typo'd JSON spec from scheduling events (and thereby
/// windowed-metrics buckets) astronomically far into virtual time.
pub const MAX_EVENT_MS: f64 = 1.0e9;

/// A fully declarative dynamic scenario: base workload, engine lengths,
/// network defaults and a timeline of dynamics events. Serializable to
/// JSON (`coca-bench`'s `exp_scenario` binary runs one from a file).
#[derive(Debug, Clone, Deserialize)]
pub struct ScenarioSpec {
    /// The base workload (model, dataset, base fleet size, popularity,
    /// drift, seed).
    pub scenario: ScenarioConfig,
    /// Rounds each base-fleet client executes.
    pub rounds: usize,
    /// Frames per round (identical for every method).
    pub frames_per_round: usize,
    /// Base-fleet boot window (ms).
    pub boot_window_ms: f64,
    /// Link every client starts on.
    pub base_link: LinkModel,
    /// Width of the windowed-metrics buckets (ms).
    pub metrics_window_ms: f64,
    /// Dynamics events. Order only matters among `PopularityShift`s with
    /// equal `at_frame` targeting the same client (later entries compose
    /// on top) and among `Join`s (arrival order assigns client indices).
    pub timeline: Vec<ScenarioEvent>,
    /// Multi-edge server topology. `None` = the classic single server.
    pub topology: Option<TopologySpec>,
}

// Hand-written so the `topology` key is *omitted* (not `null`) when
// absent: every spec committed before the multi-edge refactor keeps its
// exact bytes under the regeneration gate. Deserialization stays
// derived — the shim reads a missing key as `Null`, which an `Option`
// field accepts as `None`.
impl Serialize for ScenarioSpec {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("scenario".into(), self.scenario.to_value());
        m.insert("rounds".into(), self.rounds.to_value());
        m.insert("frames_per_round".into(), self.frames_per_round.to_value());
        m.insert("boot_window_ms".into(), self.boot_window_ms.to_value());
        m.insert("base_link".into(), self.base_link.to_value());
        m.insert(
            "metrics_window_ms".into(),
            self.metrics_window_ms.to_value(),
        );
        m.insert("timeline".into(), self.timeline.to_value());
        if let Some(t) = &self.topology {
            m.insert("topology".into(), t.to_value());
        }
        serde::Value::Object(m)
    }
}

impl ScenarioSpec {
    /// A static spec: empty timeline, shared-testbed link and boot window.
    /// Materializing it reproduces the classic engine bit for bit.
    pub fn new(scenario: ScenarioConfig, rounds: usize, frames_per_round: usize) -> Self {
        Self {
            scenario,
            rounds,
            frames_per_round,
            boot_window_ms: TESTBED_BOOT_WINDOW_MS,
            base_link: LinkModel::testbed(),
            metrics_window_ms: DEFAULT_METRICS_WINDOW_MS,
            timeline: Vec::new(),
            topology: None,
        }
    }

    /// Builder: attaches a multi-edge [`TopologySpec`].
    pub fn topology(mut self, t: TopologySpec) -> Self {
        self.topology = Some(t);
        self
    }

    /// Builder: appends a [`MigrateEvent`].
    pub fn migrate(mut self, client: usize, after_rounds: usize, to_cell: usize) -> Self {
        self.timeline.push(ScenarioEvent::Migrate(MigrateEvent {
            client,
            after_rounds,
            to_cell,
        }));
        self
    }

    /// Builder: appends a [`JoinEvent`]; the joiner's client index is
    /// `base fleet size + number of joins listed before it`.
    pub fn join(mut self, at_ms: f64, rounds: usize) -> Self {
        self.timeline
            .push(ScenarioEvent::Join(JoinEvent { at_ms, rounds }));
        self
    }

    /// Builder: appends a [`LeaveEvent`].
    pub fn leave(mut self, client: usize, after_rounds: usize) -> Self {
        self.timeline.push(ScenarioEvent::Leave(LeaveEvent {
            client,
            after_rounds,
        }));
        self
    }

    /// Builder: appends a [`PopularityShiftEvent`].
    pub fn popularity_shift(
        mut self,
        client: Option<usize>,
        at_frame: u64,
        shift: PopularityShift,
    ) -> Self {
        self.timeline
            .push(ScenarioEvent::PopularityShift(PopularityShiftEvent {
                client,
                at_frame,
                shift,
            }));
        self
    }

    /// Builder: appends a [`DeviceSpeedEvent`].
    pub fn device_speed(mut self, client: Option<usize>, frames_per_round: usize) -> Self {
        self.timeline
            .push(ScenarioEvent::DeviceSpeed(DeviceSpeedEvent {
                client,
                frames_per_round,
            }));
        self
    }

    /// Builder: appends a [`LinkChangeEvent`].
    pub fn link_change(mut self, client: Option<usize>, at_ms: f64, link: LinkModel) -> Self {
        self.timeline
            .push(ScenarioEvent::LinkChange(LinkChangeEvent {
                client,
                at_ms,
                link,
            }));
        self
    }

    /// Number of joiners in the timeline.
    pub fn num_joins(&self) -> usize {
        self.timeline
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Join(_)))
            .count()
    }

    /// Total fleet size over the whole run: base fleet plus joiners.
    pub fn total_clients(&self) -> usize {
        self.scenario.num_clients + self.num_joins()
    }

    /// Structural validation with a readable error (used by the JSON
    /// entry points before materializing).
    pub fn validate(&self) -> Result<(), String> {
        if self.rounds == 0 || self.frames_per_round == 0 {
            return Err("rounds and frames_per_round must be positive".into());
        }
        if !(self.boot_window_ms.is_finite() && self.boot_window_ms >= 0.0) {
            return Err(format!("bad boot window {}", self.boot_window_ms));
        }
        if !(self.metrics_window_ms.is_finite() && self.metrics_window_ms > 0.0) {
            return Err(format!("bad metrics window {}", self.metrics_window_ms));
        }
        let classes = self.scenario.dataset.num_classes;
        let total = self.total_clients();
        let num_cells = self.topology.as_ref().map_or(1, TopologySpec::num_cells);
        if let Some(t) = &self.topology {
            if t.cells.is_empty() {
                return Err("topology must have at least one cell".into());
            }
            if t.assignment.len() > total {
                return Err(format!(
                    "topology assigns {} clients, fleet has {total}",
                    t.assignment.len()
                ));
            }
            for (k, &c) in t.assignment.iter().enumerate() {
                if c >= t.cells.len() {
                    return Err(format!(
                        "topology assigns client {k} to cell {c} of {}",
                        t.cells.len()
                    ));
                }
            }
            if let Some(p) = t.sync_period_ms {
                if !(p.is_finite() && p > 0.0 && p <= MAX_EVENT_MS) {
                    return Err(format!("sync period {p} outside (0, {MAX_EVENT_MS}] ms"));
                }
            }
        }
        for (i, ev) in self.timeline.iter().enumerate() {
            match ev {
                ScenarioEvent::Join(j) => {
                    if !(j.at_ms.is_finite() && (0.0..=MAX_EVENT_MS).contains(&j.at_ms)) {
                        return Err(format!(
                            "event {i}: join instant {} outside [0, {MAX_EVENT_MS}] ms",
                            j.at_ms
                        ));
                    }
                    if j.rounds == 0 {
                        return Err(format!("event {i}: joiner must run at least one round"));
                    }
                }
                ScenarioEvent::Leave(l) => {
                    if l.client >= total {
                        return Err(format!(
                            "event {i}: leave targets client {} of {total}",
                            l.client
                        ));
                    }
                    if l.after_rounds == 0 {
                        return Err(format!(
                            "event {i}: a client must complete at least one round before leaving"
                        ));
                    }
                }
                ScenarioEvent::PopularityShift(s) => {
                    if let Some(k) = s.client {
                        if k >= total {
                            return Err(format!(
                                "event {i}: popularity shift targets client {k} of {total}"
                            ));
                        }
                    }
                    match &s.shift {
                        PopularityShift::Rotate(_) | PopularityShift::Permute(_) => {}
                        PopularityShift::Replace(w) => {
                            if w.len() != classes {
                                return Err(format!(
                                    "event {i}: replacement weights have {} classes, dataset {classes}",
                                    w.len()
                                ));
                            }
                            if !w.iter().all(|x| x.is_finite() && *x >= 0.0)
                                || w.iter().sum::<f64>() <= 0.0
                            {
                                return Err(format!(
                                    "event {i}: replacement weights must be non-negative with positive mass"
                                ));
                            }
                        }
                    }
                }
                ScenarioEvent::LinkChange(c) => {
                    if let Some(k) = c.client {
                        if k >= total {
                            return Err(format!(
                                "event {i}: link change targets client {k} of {total}"
                            ));
                        }
                    }
                    if !(c.at_ms.is_finite() && (0.0..=MAX_EVENT_MS).contains(&c.at_ms)) {
                        return Err(format!(
                            "event {i}: link-change instant {} outside [0, {MAX_EVENT_MS}] ms",
                            c.at_ms
                        ));
                    }
                }
                ScenarioEvent::DeviceSpeed(d) => {
                    if let Some(k) = d.client {
                        if k >= total {
                            return Err(format!(
                                "event {i}: device speed targets client {k} of {total}"
                            ));
                        }
                    }
                    if d.frames_per_round == 0 {
                        return Err(format!(
                            "event {i}: a device must process at least one frame per round"
                        ));
                    }
                }
                ScenarioEvent::Migrate(m) => {
                    if m.client >= total {
                        return Err(format!(
                            "event {i}: migrate targets client {} of {total}",
                            m.client
                        ));
                    }
                    if m.after_rounds == 0 {
                        return Err(format!(
                            "event {i}: a client must complete at least one round before migrating"
                        ));
                    }
                    if m.to_cell >= num_cells {
                        return Err(format!(
                            "event {i}: migrate targets cell {} of {num_cells}",
                            m.to_cell
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// Parses and validates a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| format!("spec parse error: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Materializes the spec into the pair every runner consumes: the
    /// shared [`Scenario`] (with the total fleet — base plus joiners —
    /// and popularity schedules baked into the streams) and the resolved
    /// [`DrivePlan`] (membership, round budgets, link schedules).
    ///
    /// # Panics
    /// Panics if [`ScenarioSpec::validate`] fails.
    pub fn materialize(&self) -> (Scenario, DrivePlan) {
        if let Err(e) = self.validate() {
            panic!("invalid scenario spec: {e}");
        }
        let base = self.scenario.num_clients;
        let total = self.total_clients();
        let mut cfg = self.scenario.clone();
        cfg.num_clients = total;
        let mut scenario = Scenario::build(cfg);

        let topology = match &self.topology {
            Some(t) => TopologyPlan {
                cells: t.num_cells(),
                assignment: (0..total).map(|k| t.cell_of(k)).collect(),
                cell_links: t.cells.iter().map(|c| c.link).collect(),
                peer_link: t.peer_link,
                sync_period_ms: t.sync_period_ms,
                sync_mode: t.sync_mode,
                migrations: Vec::new(),
            },
            None => TopologyPlan::single(total),
        };
        let mut plan = DrivePlan {
            frames_per_round: self.frames_per_round,
            boot_window_ms: self.boot_window_ms,
            members: vec![
                MemberPlan {
                    join_at_ms: None,
                    rounds: self.rounds,
                    frames_per_round: None,
                    leaves_early: false,
                };
                total
            ],
            links: vec![LinkSchedule::fixed(self.base_link); total],
            metrics_window_ms: self.metrics_window_ms,
            per_client: true,
            topology,
        };

        // Pass 1a — joins first (arrival order assigns indices), so that
        // a Leave listed before the Join it targets still truncates the
        // joiner instead of being overwritten by the join's member plan.
        let mut next_joiner = base;
        for ev in &self.timeline {
            if let ScenarioEvent::Join(j) = ev {
                plan.members[next_joiner] = MemberPlan {
                    join_at_ms: Some(j.at_ms),
                    rounds: j.rounds,
                    frames_per_round: None,
                    leaves_early: false,
                };
                next_joiner += 1;
            }
        }
        // Pass 1b — leaves, device speeds and link changes
        // (order-independent among themselves: leaves take the min round
        // budget, speeds overwrite, link changes are keyed by their own
        // instants).
        for ev in &self.timeline {
            match ev {
                ScenarioEvent::Leave(l) => {
                    let m = &mut plan.members[l.client];
                    if l.after_rounds < m.rounds {
                        m.rounds = l.after_rounds;
                        m.leaves_early = true;
                    }
                }
                ScenarioEvent::DeviceSpeed(d) => match d.client {
                    Some(k) => plan.members[k].frames_per_round = Some(d.frames_per_round),
                    None => {
                        for m in &mut plan.members {
                            m.frames_per_round = Some(d.frames_per_round);
                        }
                    }
                },
                ScenarioEvent::LinkChange(c) => {
                    let at = SimTime::from_millis_f64(c.at_ms);
                    match c.client {
                        Some(k) => plan.links[k].push_change(at, c.link),
                        None => {
                            for link in &mut plan.links {
                                link.push_change(at, c.link);
                            }
                        }
                    }
                }
                ScenarioEvent::Migrate(m) => {
                    plan.topology.migrations.push(MigrationPlan {
                        client: m.client,
                        after_rounds: m.after_rounds,
                        to_cell: m.to_cell,
                    });
                }
                ScenarioEvent::Join(_) | ScenarioEvent::PopularityShift(_) => {}
            }
        }

        // Pass 2 — popularity schedules: compose shifts per client in
        // `at_frame` order (stable, so listed order breaks ties) on top of
        // each client's materialized base distribution.
        let mut shifts: Vec<&PopularityShiftEvent> = self
            .timeline
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::PopularityShift(s) => Some(s),
                _ => None,
            })
            .collect();
        if !shifts.is_empty() {
            shifts.sort_by_key(|s| s.at_frame);
            let mut current: Vec<Vec<f64>> = scenario.distributions.clone();
            let mut schedules: Vec<Vec<PopularityPhase>> = vec![Vec::new(); total];
            let permute_seeds = SeedTree::new(self.scenario.seed).child("popularity-permute");
            for s in shifts {
                let targets: Vec<usize> = match s.client {
                    Some(k) => vec![k],
                    None => (0..total).collect(),
                };
                for k in targets {
                    apply_shift(&mut current[k], &s.shift, &permute_seeds);
                    schedules[k].push(PopularityPhase {
                        from_seq: s.at_frame,
                        class_weights: current[k].clone(),
                    });
                }
            }
            scenario.set_popularity_schedules(schedules);
        }

        (scenario, plan)
    }
}

/// Applies one shift in place. `Replace` normalizes; `Rotate`/`Permute`
/// preserve mass by construction.
fn apply_shift(weights: &mut [f64], shift: &PopularityShift, permute_seeds: &SeedTree) {
    match shift {
        PopularityShift::Rotate(n) => {
            let c = weights.len();
            weights.rotate_right(n % c.max(1));
        }
        PopularityShift::Replace(w) => {
            let sum: f64 = w.iter().sum();
            for (dst, src) in weights.iter_mut().zip(w) {
                *dst = src / sum;
            }
        }
        PopularityShift::Permute(seed) => {
            // Fisher–Yates with a deterministic RNG derived from the
            // spec's master seed and the event's own seed.
            use rand::Rng;
            let mut rng = permute_seeds.child_idx("event", *seed).rng();
            for i in (1..weights.len()).rev() {
                let j = rng.gen_range(0..=i);
                weights.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_data::DatasetSpec;
    use coca_model::ModelId;
    use coca_sim::SimDuration;

    fn base_cfg(seed: u64) -> ScenarioConfig {
        let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
        sc.num_clients = 3;
        sc.seed = seed;
        sc
    }

    fn slow_link() -> LinkModel {
        LinkModel {
            one_way_delay: SimDuration::from_millis(25),
            bandwidth_bps: 2.0e6,
        }
    }

    #[test]
    fn static_spec_matches_drive_config_plan() {
        let spec = ScenarioSpec::new(base_cfg(600), 4, 100);
        assert_eq!(spec.total_clients(), 3);
        let (scenario, plan) = spec.materialize();
        assert_eq!(scenario.config().num_clients, 3);
        assert_eq!(plan.members.len(), 3);
        assert!(plan
            .members
            .iter()
            .all(|m| m.join_at_ms.is_none() && m.rounds == 4 && !m.leaves_early));
        assert!(plan.links.iter().all(|l| l.is_static()));
        assert_eq!(plan.total_frames(), 3 * 4 * 100);
    }

    #[test]
    fn joins_extend_the_fleet_in_arrival_order() {
        let spec = ScenarioSpec::new(base_cfg(601), 4, 100)
            .join(10_000.0, 2)
            .join(20_000.0, 3);
        assert_eq!(spec.total_clients(), 5);
        let (scenario, plan) = spec.materialize();
        assert_eq!(scenario.config().num_clients, 5);
        assert_eq!(plan.members[3].join_at_ms, Some(10_000.0));
        assert_eq!(plan.members[3].rounds, 2);
        assert_eq!(plan.members[4].join_at_ms, Some(20_000.0));
        assert_eq!(plan.members[4].rounds, 3);
        assert_eq!(plan.total_frames(), (3 * 4 + 2 + 3) * 100);
    }

    #[test]
    fn leave_truncates_rounds_and_flags_early_departure() {
        let spec = ScenarioSpec::new(base_cfg(602), 5, 50)
            .leave(1, 2)
            .leave(2, 9); // ≥ budget: a no-op
        let (_, plan) = spec.materialize();
        assert_eq!(plan.members[1].rounds, 2);
        assert!(plan.members[1].leaves_early);
        assert_eq!(plan.members[2].rounds, 5);
        assert!(!plan.members[2].leaves_early);
    }

    #[test]
    fn link_changes_compile_into_per_client_schedules() {
        let spec = ScenarioSpec::new(base_cfg(603), 3, 50)
            .link_change(Some(0), 5_000.0, slow_link())
            .link_change(None, 9_000.0, LinkModel::testbed());
        let (_, plan) = spec.materialize();
        assert!(!plan.links[0].is_static());
        assert_eq!(plan.links[0].changes().len(), 2);
        assert_eq!(plan.links[1].changes().len(), 1);
        let t = SimTime::from_millis_f64(6_000.0);
        assert_eq!(
            plan.links[0].link_at(t).one_way_delay,
            SimDuration::from_millis(25)
        );
        assert_eq!(
            plan.links[1].link_at(t).one_way_delay,
            LinkModel::testbed().one_way_delay
        );
    }

    #[test]
    fn popularity_shifts_compose_in_frame_order() {
        let spec = ScenarioSpec::new(base_cfg(604), 3, 50)
            // Listed out of order on purpose: frame order must win.
            .popularity_shift(Some(0), 400, PopularityShift::Rotate(3))
            .popularity_shift(None, 200, PopularityShift::Rotate(2));
        let (scenario, _) = spec.materialize();
        let base = scenario.distributions[0].clone();
        // Client 0's stream: rotate(2) at frame 200, then rotate(3) more
        // at frame 400 (total 5).
        let s = scenario.stream(0);
        // Indirect check: materialize twice → identical streams.
        let again = spec.materialize().0;
        let mut a = s;
        let mut b = again.stream(0);
        assert_eq!(a.take(1000), b.take(1000));
        // And the composed weight after both shifts is base rotated by 5.
        let mut expect = base;
        expect.rotate_right(2);
        expect.rotate_right(3);
        let mut c = again.stream(0);
        let _ = c.take(600); // past both boundaries
        let got = c.class_weights().to_vec();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    fn permute_is_deterministic_and_mass_preserving() {
        let mut w: Vec<f64> = (1..=8).map(|i| i as f64 / 36.0).collect();
        let mut v = w.clone();
        let seeds = SeedTree::new(42).child("popularity-permute");
        apply_shift(&mut w, &PopularityShift::Permute(7), &seeds);
        apply_shift(&mut v, &PopularityShift::Permute(7), &seeds);
        assert_eq!(w, v);
        assert!((w.iter().sum::<f64>() - v.iter().sum::<f64>()).abs() < 1e-12);
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut orig: Vec<f64> = (1..=8).map(|i| i as f64 / 36.0).collect();
        orig.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sorted, orig, "permutation must preserve the multiset");
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let spec = ScenarioSpec::new(base_cfg(605), 4, 120)
            .join(7_500.5, 2)
            .leave(0, 3)
            .popularity_shift(None, 300, PopularityShift::Permute(99))
            .popularity_shift(Some(1), 500, PopularityShift::Rotate(4))
            .link_change(Some(2), 12_000.0, slow_link());
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text).expect("round trip");
        assert_eq!(back.to_json(), text, "serialization must be stable");
        assert_eq!(back.total_clients(), spec.total_clients());
        // Materializations agree structurally.
        let (sa, pa) = spec.materialize();
        let (sb, pb) = back.materialize();
        assert_eq!(pa.total_frames(), pb.total_frames());
        for k in 0..spec.total_clients() {
            let mut x = sa.stream(k);
            let mut y = sb.stream(k);
            assert_eq!(x.take(400), y.take(400), "client {k} stream differs");
        }
    }

    #[test]
    fn validation_rejects_bad_targets() {
        let spec = ScenarioSpec::new(base_cfg(606), 3, 50).leave(7, 1);
        assert!(spec.validate().is_err());
        let spec = ScenarioSpec::new(base_cfg(607), 3, 50).popularity_shift(
            None,
            10,
            PopularityShift::Replace(vec![0.5; 3]),
        );
        assert!(spec.validate().is_err(), "wrong class count must fail");
        let mut ok = ScenarioSpec::new(base_cfg(608), 3, 50);
        ok.timeline.push(ScenarioEvent::Join(JoinEvent {
            at_ms: f64::NAN,
            rounds: 1,
        }));
        assert!(ok.validate().is_err());
        // Far-future instants are rejected before they can blow up the
        // windowed-metrics buckets.
        let far = ScenarioSpec::new(base_cfg(611), 3, 50).join(MAX_EVENT_MS * 10.0, 1);
        assert!(far.validate().is_err());
        let far_link =
            ScenarioSpec::new(base_cfg(612), 3, 50).link_change(None, 1.0e12, slow_link());
        assert!(far_link.validate().is_err());
    }

    #[test]
    fn leave_targeting_a_joiner_is_valid() {
        // Join adds client index 3; a leave may then target it.
        let spec = ScenarioSpec::new(base_cfg(609), 4, 50)
            .join(5_000.0, 3)
            .leave(3, 1);
        assert!(spec.validate().is_ok());
        let (_, plan) = spec.materialize();
        assert_eq!(plan.members[3].rounds, 1);
        assert!(plan.members[3].leaves_early);
    }

    #[test]
    fn device_speed_sets_per_member_frame_budgets() {
        let spec = ScenarioSpec::new(base_cfg(613), 2, 50)
            .join(5_000.0, 2)
            .device_speed(Some(1), 10);
        assert!(spec.validate().is_ok());
        let (_, plan) = spec.materialize();
        assert_eq!(plan.members[0].frames_per_round, None);
        assert_eq!(plan.members[1].frames_per_round, Some(10));
        assert_eq!(plan.member_frames(0), 50);
        assert_eq!(plan.member_frames(1), 10);
        // m0: 2×50, m1: 2×10, m2: 2×50, joiner m3: 2×50.
        assert_eq!(plan.total_frames(), 100 + 20 + 100 + 100);

        // A fleet-wide event (client: None) covers joiners too.
        let all = ScenarioSpec::new(base_cfg(614), 2, 50)
            .join(5_000.0, 2)
            .device_speed(None, 25);
        let (_, plan) = all.materialize();
        assert!(plan.members.iter().all(|m| m.frames_per_round == Some(25)));
        assert_eq!(plan.total_frames(), (3 * 2 + 2) * 25);
    }

    #[test]
    fn device_speed_validation_and_json_round_trip() {
        let bad_target = ScenarioSpec::new(base_cfg(615), 2, 50).device_speed(Some(9), 10);
        assert!(bad_target.validate().is_err());
        let zero = ScenarioSpec::new(base_cfg(616), 2, 50).device_speed(Some(0), 0);
        assert!(zero.validate().is_err(), "zero frames per round must fail");

        let spec = ScenarioSpec::new(base_cfg(617), 2, 50)
            .device_speed(Some(2), 12)
            .device_speed(None, 30);
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text).expect("round trip");
        assert_eq!(back.to_json(), text, "serialization must be stable");
        let (_, pa) = spec.materialize();
        let (_, pb) = back.materialize();
        assert_eq!(pa.total_frames(), pb.total_frames());
        // Later events win: the fleet-wide 30 overwrites client 2's 12.
        assert!(pb.members.iter().all(|m| m.frames_per_round == Some(30)));
    }

    #[test]
    fn leave_listed_before_its_join_still_applies() {
        // Joins are processed before leaves regardless of listed order, so
        // the join's member plan cannot overwrite the truncation.
        let spec = ScenarioSpec::new(base_cfg(610), 4, 50)
            .leave(3, 1)
            .join(5_000.0, 3);
        assert!(spec.validate().is_ok());
        let (_, plan) = spec.materialize();
        assert_eq!(plan.members[3].join_at_ms, Some(5_000.0));
        assert_eq!(plan.members[3].rounds, 1);
        assert!(plan.members[3].leaves_early);
    }
}
