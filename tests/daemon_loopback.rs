//! Daemon digest-equivalence over real loopback TCP.
//!
//! The contract `cocad` ships under: driven with one operation in
//! flight at a time, the networked daemon finishes with the **same
//! global-table digest** as an in-process `CocaServer` fed the
//! identical sequence — for both lock modes (single mutex vs per-layer
//! sharded `RwLock`s), both merge modes, and the round-aligned flush
//! policy. The whole suite also runs under `--features simd` in CI, so
//! the digest must not move under the AVX2 kernels either.

use std::net::TcpListener;

use coca::core::MergeMode;
use coca::daemon::{
    run_load, run_verify, serve, serve_with_peers, shutdown_daemon, Arrival, ClientMsg,
    DaemonClient, LockMode, PeerSet, RunSpec, ServerCore, ServerMsg, Workload,
};
use coca::math::Precision;

fn small_workload(merge_mode: MergeMode, round_aligned: bool) -> Workload {
    Workload {
        spec: RunSpec {
            classes: 15,
            seed: 41,
            merge_mode,
            round_aligned,
            ..RunSpec::default()
        },
        clients: 3,
        rounds: 2,
    }
}

fn spawn_daemon(wl: &Workload, lock: LockMode, workers: usize) -> coca::daemon::DaemonHandle {
    let (rt, cfg, seeds) = wl.spec.build();
    let core = ServerCore::new(&rt, cfg, &seeds, lock);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    serve(core, listener, workers).expect("daemon starts")
}

#[test]
fn sequential_loopback_digest_matches_in_process_reference() {
    for merge_mode in [MergeMode::PerUpload, MergeMode::QueueAndFlush] {
        for lock in [LockMode::Single, LockMode::Sharded] {
            let wl = small_workload(merge_mode, false);
            let handle = spawn_daemon(&wl, lock, 2);
            let addr = handle.addr();
            let outcome = run_verify(addr, &wl).expect("verify run");
            assert!(
                outcome.matches(),
                "digest diverged over loopback ({merge_mode:?}, {}): \
                 daemon {:016x} vs reference {:016x}",
                lock.name(),
                outcome.daemon_digest,
                outcome.local_digest
            );
            assert_eq!(outcome.ops, wl.total_ops());
            assert!(shutdown_daemon(addr), "daemon should ack the shutdown");
            let report = handle.join();
            // The run drove every op plus a flush; the report digest is
            // post-flush, so it must still name the reference state.
            assert_eq!(
                report.digest,
                outcome.local_digest,
                "final report digest diverged ({merge_mode:?}, {})",
                lock.name()
            );
            assert_eq!(report.requests, wl.total_ops() / 2);
            assert_eq!(report.uploads, wl.total_ops() / 2);
            assert_eq!(report.server.is_some(), lock == LockMode::Single);
        }
    }
}

#[test]
fn round_aligned_watermark_survives_the_wire() {
    let wl = small_workload(MergeMode::QueueAndFlush, true);
    let handle = spawn_daemon(&wl, LockMode::Sharded, 2);
    let addr = handle.addr();
    let outcome = run_verify(addr, &wl).expect("verify run");
    assert!(
        outcome.matches(),
        "round-aligned digest diverged: daemon {:016x} vs reference {:016x}",
        outcome.daemon_digest,
        outcome.local_digest
    );
    assert!(shutdown_daemon(addr));
    handle.join();
}

#[test]
fn quantized_loopback_digest_matches_per_precision() {
    // --precision f16/i8: senders snap uploads onto the precision grid
    // and the daemon stores/serves the quantized table — the digest must
    // still land exactly on the in-process reference under the same
    // spec, for both lock modes. (f32 is the existing tests' default.)
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        for lock in [LockMode::Single, LockMode::Sharded] {
            let mut wl = small_workload(MergeMode::QueueAndFlush, false);
            wl.spec.precision = precision;
            let handle = spawn_daemon(&wl, lock, 2);
            let addr = handle.addr();
            let outcome = run_verify(addr, &wl).expect("verify run");
            assert!(
                outcome.matches(),
                "digest diverged over loopback at {} ({}): daemon {:016x} vs reference {:016x}",
                precision.label(),
                lock.name(),
                outcome.daemon_digest,
                outcome.local_digest
            );
            assert!(shutdown_daemon(addr));
            handle.join();
        }
    }
}

#[test]
fn peer_sync_ships_the_table_delta_over_loopback() {
    // Two daemons as cells 0 and 1: cell 0 takes the whole workload,
    // then a SyncNow ships its delta to cell 1 over real TCP. Cell 1's
    // post-sync digest must land exactly on an in-process reference
    // replaying the same export/absorb — the socket leg of the
    // multi-edge sync path must be digest-invisible.
    let wl = small_workload(MergeMode::PerUpload, false);
    let (rt, cfg, seeds) = wl.spec.build();

    // Daemon B (cell 1): no peers, single lock (peer sync needs it).
    let core_b = ServerCore::new(&rt, cfg, &seeds, LockMode::Single);
    core_b.set_cell_id(1);
    let listener_b = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle_b =
        serve_with_peers(core_b, listener_b, 2, PeerSet::default()).expect("daemon B starts");

    // Daemon A (cell 0): peers at B, sync only on explicit SyncNow.
    let core_a = ServerCore::new(&rt, cfg, &seeds, LockMode::Single);
    let peers = PeerSet::parse(&format!("1={}", handle_b.addr())).expect("peer list parses");
    let listener_a = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle_a = serve_with_peers(core_a, listener_a, 2, peers).expect("daemon A starts");

    // Drive the workload into A sequentially; run_verify replays the
    // identical sequence on its own reference, pinning A's digest.
    let outcome = run_verify(handle_a.addr(), &wl).expect("verify run");
    assert!(outcome.matches(), "cell 0 diverged before the sync");

    // In-process replay of the sync leg: the same merge history at cell
    // 0, exported to cell 1, absorbed at a fresh cell-1 server.
    let mut ref_a = coca::core::CocaServer::new(&rt, cfg, &seeds);
    for round in 0..wl.rounds {
        for k in 0..wl.clients {
            let profile = ref_a.base_hit_profile();
            let req = wl.request(&rt, profile, k, round);
            ref_a.handle_request(&req);
            ref_a.handle_upload(wl.upload(&rt, &seeds, k, round));
        }
    }
    ref_a.flush_pending();
    let mut ref_b = coca::core::CocaServer::new(&rt, cfg, &seeds);
    ref_b.set_cell_id(1);
    ref_b.absorb_peer(&ref_a.export_delta(1));

    // Fire the sync: A ships exactly one delta, B acks it inline.
    let mut client = DaemonClient::connect(handle_a.addr()).expect("connect to A");
    match client.call(&ClientMsg::SyncNow).expect("sync call") {
        ServerMsg::SyncDone(shipped) => assert_eq!(shipped, 1, "one peer, one delta"),
        other => panic!("expected SyncDone, got {other:?}"),
    }
    let mut client_b = DaemonClient::connect(handle_b.addr()).expect("connect to B");
    let digest_b = match client_b.call(&ClientMsg::Digest).expect("digest call") {
        ServerMsg::Digest(d) => d,
        other => panic!("expected Digest, got {other:?}"),
    };
    assert_eq!(
        digest_b,
        ref_b.global().digest(),
        "cell 1's post-sync table diverged from the in-process export/absorb replay"
    );

    assert!(shutdown_daemon(handle_a.addr()));
    handle_a.join();
    assert!(shutdown_daemon(handle_b.addr()));
    handle_b.join();
}

#[test]
fn a_silent_peer_costs_a_sync_its_timeout_and_nothing_else() {
    // A "peer" that accepts the connection and never answers. Before the
    // ship had timeouts, the worker serving `SyncNow` parked in a read
    // forever — and with it every connection pinned to that worker.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let silent_addr = silent.local_addr().expect("silent peer address");
    let (release, held) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let conn = silent.accept().expect("the daemon connects");
        let _ = held.recv(); // hold the socket open, unanswered
        drop(conn);
    });

    // One worker, so both client connections below are pinned to it.
    let wl = small_workload(MergeMode::PerUpload, false);
    let (rt, cfg, seeds) = wl.spec.build();
    let core = ServerCore::new(&rt, cfg, &seeds, LockMode::Single);
    let peers = PeerSet::parse(&format!("1={silent_addr}")).expect("peer list parses");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = serve_with_peers(core, listener, 1, peers).expect("daemon starts");
    // Give the table some mass: an empty delta is never shipped at all.
    assert!(run_verify(handle.addr(), &wl)
        .expect("verify run")
        .matches());

    let mut syncer = DaemonClient::connect(handle.addr()).expect("connect");
    let mut bystander = DaemonClient::connect(handle.addr()).expect("connect");
    let started = std::time::Instant::now();
    syncer.send(&ClientMsg::SyncNow).expect("send SyncNow");
    bystander.send(&ClientMsg::Digest).expect("send Digest");
    match syncer.recv().expect("the sync gives up on the silent peer") {
        ServerMsg::SyncDone(shipped) => assert_eq!(shipped, 0, "no ack, not shipped"),
        other => panic!("expected SyncDone, got {other:?}"),
    }
    // The daemon's own bound, not the client's 60 s read timeout.
    assert!(started.elapsed() < std::time::Duration::from_secs(20));
    match bystander
        .recv()
        .expect("the worker came back for its other connection")
    {
        ServerMsg::Digest(_) => {}
        other => panic!("expected Digest, got {other:?}"),
    }

    release.send(()).expect("peer thread is waiting");
    peer.join().expect("silent peer thread");
    assert!(shutdown_daemon(handle.addr()));
    handle.join();
}

#[test]
fn concurrent_closed_loop_serves_every_op_exactly_once() {
    // Concurrency makes arrival order (and thus the digest) run-to-run
    // dependent, but op accounting and Φ conservation are exact: the
    // daemon must serve 2 ops per client per round, no losses, no
    // duplicates, across a multi-worker pool.
    let wl = small_workload(MergeMode::QueueAndFlush, false);
    let handle = spawn_daemon(&wl, LockMode::Sharded, 4);
    let addr = handle.addr();
    let report = run_load(
        addr,
        &wl,
        Arrival::Closed {
            think: std::time::Duration::ZERO,
        },
    )
    .expect("load run");
    assert_eq!(report.ops, wl.total_ops());
    assert_eq!(report.hist.count(), wl.total_ops());
    assert!(report.hist.p999() >= report.hist.p50());
    handle.shutdown();
    let daemon_report = handle.join();
    assert_eq!(
        daemon_report.requests + daemon_report.uploads,
        wl.total_ops()
    );
}

#[test]
fn open_loop_pairs_every_reply() {
    let wl = small_workload(MergeMode::PerUpload, false);
    let handle = spawn_daemon(&wl, LockMode::Sharded, 2);
    let addr = handle.addr();
    let report = run_load(
        addr,
        &wl,
        Arrival::Open {
            period: std::time::Duration::from_micros(500),
        },
    )
    .expect("open-loop run");
    assert_eq!(report.ops, wl.total_ops());
    assert!(shutdown_daemon(addr));
    handle.join();
}
