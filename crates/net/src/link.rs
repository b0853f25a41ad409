//! Client↔server link cost model.
//!
//! [`LinkModel`] prices a single point-to-point link; [`LinkSchedule`]
//! makes it time-varying per client, so a scenario can degrade or upgrade
//! one client's connectivity mid-run (a handover to a congested AP, a move
//! from WiFi to cellular) while the rest of the fleet is unaffected.

use coca_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Shared-testbed boot window: clients boot uniformly at random within
/// this many milliseconds. The single source of truth for every engine
/// configuration (CoCa's `EngineConfig` and the generic `DriveConfig` both
/// read it from here).
pub const TESTBED_BOOT_WINDOW_MS: f64 = 2_000.0;

/// A point-to-point wireless link.
///
/// Transfer time = one-way propagation delay + payload / bandwidth. The
/// defaults model the paper's router-based WiFi testbed: ~2 ms one-way
/// delay and 150 Mbit/s goodput — a 1 MB cache download then costs
/// ≈ 55 ms, consistent with the paper's ~57 ms cache-response latencies at
/// low client counts (Fig. 10(b)).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkModel {
    /// One-way propagation + protocol-stack delay.
    pub one_way_delay: SimDuration,
    /// Goodput in bits per second.
    pub bandwidth_bps: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self {
            one_way_delay: SimDuration::from_millis_f64(2.0),
            bandwidth_bps: 150.0e6,
        }
    }
}

impl LinkModel {
    /// An idealized link with zero cost (unit tests, single-node runs).
    pub fn zero() -> Self {
        Self {
            one_way_delay: SimDuration::ZERO,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// Time to deliver `bytes` of payload one way.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let serialization = if self.bandwidth_bps.is_finite() && self.bandwidth_bps > 0.0 {
            SimDuration::from_millis_f64(bytes as f64 * 8.0 / self.bandwidth_bps * 1e3)
        } else {
            SimDuration::ZERO
        };
        self.one_way_delay + serialization
    }
}

/// One scheduled link change: from `at` onward the client uses `link`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkChangePoint {
    /// Virtual instant the change takes effect.
    pub at: SimTime,
    /// The link model in force from `at` onward.
    pub link: LinkModel,
}

/// A per-client, piecewise-constant link over virtual time.
///
/// The schedule starts on `base` and switches at each change point; the
/// engine resolves the model **at event-emission time** (the instant a
/// message is handed to the link), so a transfer started before a change
/// completes under the old model — matching how an in-flight packet train
/// is not re-priced mid-air.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkSchedule {
    base: LinkModel,
    /// Change points sorted by `at` ascending (enforced on construction).
    changes: Vec<LinkChangePoint>,
}

impl Default for LinkSchedule {
    fn default() -> Self {
        Self::fixed(LinkModel::default())
    }
}

impl LinkSchedule {
    /// A schedule that never changes: `link` for the whole run.
    pub fn fixed(link: LinkModel) -> Self {
        Self {
            base: link,
            changes: Vec::new(),
        }
    }

    /// Appends a change effective from `at`. Changes may be pushed in any
    /// order; the schedule keeps them sorted (ties resolve to the
    /// last-pushed change, mirroring "latest instruction wins").
    pub fn push_change(&mut self, at: SimTime, link: LinkModel) {
        let idx = self.changes.partition_point(|c| c.at <= at);
        self.changes.insert(idx, LinkChangePoint { at, link });
    }

    /// True iff the schedule has no change points (a static link).
    pub fn is_static(&self) -> bool {
        self.changes.is_empty()
    }

    /// The link model in force at instant `t`.
    pub fn link_at(&self, t: SimTime) -> LinkModel {
        match self.changes.partition_point(|c| c.at <= t) {
            0 => self.base,
            n => self.changes[n - 1].link,
        }
    }

    /// Time to deliver `bytes` one way on the link in force at `t`.
    pub fn transfer_time(&self, t: SimTime, bytes: usize) -> SimDuration {
        self.link_at(t).transfer_time(bytes)
    }

    /// The link in force before any change point.
    pub fn base(&self) -> LinkModel {
        self.base
    }

    /// The scheduled change points, sorted by time.
    pub fn changes(&self) -> &[LinkChangePoint] {
        &self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_megabyte_on_default_link_takes_tens_of_ms() {
        let link = LinkModel::default();
        let t = link.transfer_time(1_000_000).as_millis_f64();
        assert!((50.0..60.0).contains(&t), "1 MB transfer {t} ms");
    }

    #[test]
    fn empty_payload_costs_only_delay() {
        let link = LinkModel::default();
        assert_eq!(link.transfer_time(0), link.one_way_delay);
    }

    #[test]
    fn zero_link_is_free() {
        assert_eq!(LinkModel::zero().transfer_time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_is_monotone_in_bytes() {
        let link = LinkModel::default();
        assert!(link.transfer_time(2000) > link.transfer_time(1000));
    }

    #[test]
    fn static_schedule_matches_its_link_everywhere() {
        let s = LinkSchedule::fixed(LinkModel::default());
        assert!(s.is_static());
        for ms in [0.0, 1.0, 1e6] {
            let t = SimTime::from_millis_f64(ms);
            assert_eq!(
                s.transfer_time(t, 1234),
                LinkModel::default().transfer_time(1234)
            );
        }
    }

    #[test]
    fn schedule_switches_at_change_points() {
        let slow = LinkModel {
            one_way_delay: SimDuration::from_millis(20),
            bandwidth_bps: 1.0e6,
        };
        let mut s = LinkSchedule::fixed(LinkModel::default());
        s.push_change(SimTime::from_millis_f64(100.0), slow);
        assert!(!s.is_static());
        let before = SimTime::from_millis_f64(99.9);
        let at = SimTime::from_millis_f64(100.0);
        assert_eq!(s.link_at(before).one_way_delay, SimDuration::from_millis(2));
        // The change is inclusive at its instant.
        assert_eq!(s.link_at(at).one_way_delay, SimDuration::from_millis(20));
        assert!(s.transfer_time(at, 10_000) > s.transfer_time(before, 10_000));
    }

    #[test]
    fn out_of_order_pushes_are_sorted_and_last_wins_on_ties() {
        let a = LinkModel {
            one_way_delay: SimDuration::from_millis(5),
            bandwidth_bps: 1.0e6,
        };
        let b = LinkModel {
            one_way_delay: SimDuration::from_millis(9),
            bandwidth_bps: 1.0e6,
        };
        let t1 = SimTime::from_millis_f64(50.0);
        let t0 = SimTime::from_millis_f64(10.0);
        let mut s = LinkSchedule::fixed(LinkModel::default());
        s.push_change(t1, a);
        s.push_change(t0, b);
        assert_eq!(s.changes()[0].at, t0);
        assert_eq!(s.link_at(t0).one_way_delay, SimDuration::from_millis(9));
        // A second change at the same instant supersedes the first.
        s.push_change(t1, b);
        assert_eq!(s.link_at(t1).one_way_delay, SimDuration::from_millis(9));
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let mut s = LinkSchedule::fixed(LinkModel::default());
        s.push_change(
            SimTime::from_millis_f64(250.0),
            LinkModel {
                one_way_delay: SimDuration::from_millis(10),
                bandwidth_bps: 5.0e6,
            },
        );
        let text = serde::json::to_string(&s.to_value());
        let back = LinkSchedule::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.changes().len(), 1);
        let t = SimTime::from_millis_f64(300.0);
        assert_eq!(back.transfer_time(t, 4096), s.transfer_time(t, 4096));
    }
}
