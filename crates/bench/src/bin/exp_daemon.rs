//! Daemon serving experiment: closed-loop latency (p50/p99/p999) and
//! throughput of `cocad`'s serve path over real loopback TCP.
//!
//! This binary starts the daemon **in-process** (the same
//! `coca_daemon::serve` loop the `cocad` binary runs) on an ephemeral
//! loopback port and drives it with the closed-loop multi-client load
//! generator (one thread per client, per-request wall-clock latency
//! into the exactly mergeable `LatencyHistogram`).
//!
//! A final sequential verify pass (one op in flight) pins the digest
//! contract: the daemon must land the exact in-process reference state.
//! Every run asserts that MATCH and exact op accounting (every op sent
//! is served exactly once).
//!
//! **The latency/throughput row is wall-clock and host-dependent**
//! (like `fleet.json`'s `wall_ms`): it is measured on whatever machine
//! runs the binary. The digest fields are deterministic.
//!
//! Env knob (CI smoke): `COCA_DAEMON_QUICK=1` runs fewer rounds.

use std::net::TcpListener;

use coca_bench::output::{rows_table, save_record};
use coca_core::CocaServer;
use coca_daemon::{
    run_load, run_verify, serve, Arrival, DaemonHandle, RunSpec, ServerCore, Workload,
};
use coca_metrics::ExperimentRecord;
use coca_model::ModelId;

/// A fresh daemon for `spec` on an ephemeral loopback port.
fn start_daemon(spec: &RunSpec) -> DaemonHandle {
    let (rt, cfg, seeds) = spec.build();
    let core = ServerCore::new(CocaServer::new(&rt, cfg, &seeds));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    serve(core, listener).expect("daemon starts")
}

fn main() {
    let quick = std::env::var("COCA_DAEMON_QUICK").as_deref() == Ok("1");

    let spec = RunSpec {
        model: ModelId::ResNet101,
        classes: 30,
        seed: 4_600,
        precision: coca_math::Precision::F32,
    };
    let wl = Workload {
        spec,
        clients: 8,
        rounds: if quick { 5 } else { 30 },
    };

    let mut record = ExperimentRecord::new(
        "daemon",
        "cocad serve path over loopback TCP: closed-loop per-request \
         latency quantiles and throughput; wall-clock rows are \
         host-dependent, digests are deterministic",
    );
    record
        .param("model", format!("{:?}", spec.model))
        .param("classes", spec.classes)
        .param("seed", spec.seed)
        .param("merge_mode", "queue_and_flush")
        .param("clients", wl.clients)
        .param("rounds", wl.rounds)
        .param("arrival", "closed_loop")
        .param("quick", quick)
        .param("wall_clock_host_dependent", true);

    let handle = start_daemon(&spec);
    let report = run_load(
        handle.addr(),
        &wl,
        Arrival::Closed {
            think: std::time::Duration::ZERO,
        },
    )
    .expect("closed-loop run");
    handle.shutdown();
    let daemon_report = handle.join();
    let served = daemon_report.requests + daemon_report.uploads;
    assert_eq!(report.ops, wl.total_ops(), "load generator lost operations");
    assert_eq!(served, wl.total_ops(), "daemon under/over-served");
    let (p50, p99, p999, max) = (
        report.hist.p50().unwrap_or(0.0),
        report.hist.p99().unwrap_or(0.0),
        report.hist.p999().unwrap_or(0.0),
        report.hist.max_ms().unwrap_or(0.0),
    );
    record.push_row(&[
        ("ops", serde_json::json!(report.ops)),
        ("ops_served", serde_json::json!(served)),
        ("wall_s", serde_json::json!(report.wall.as_secs_f64())),
        ("ops_per_s", serde_json::json!(report.throughput_ops_s())),
        ("p50_ms", serde_json::json!(p50)),
        ("p99_ms", serde_json::json!(p99)),
        ("p999_ms", serde_json::json!(p999)),
        ("max_ms", serde_json::json!(max)),
    ]);

    // ---- Digest contract: a sequential pass over the wire must land
    // the exact in-process reference state.
    let handle = start_daemon(&spec);
    let verify_wl = Workload {
        rounds: if quick { 2 } else { 4 },
        ..wl
    };
    let outcome = run_verify(handle.addr(), &verify_wl).expect("verify run");
    handle.shutdown();
    handle.join();
    record.push_row(&[
        ("verify_ops", serde_json::json!(outcome.ops)),
        ("digest_match", serde_json::json!(outcome.matches())),
    ]);
    assert!(
        outcome.matches(),
        "daemon digest {:016x} diverged from the in-process reference {:016x}",
        outcome.daemon_digest,
        outcome.local_digest
    );

    save_record(&record);
    print!("{}", rows_table(&record));
}
