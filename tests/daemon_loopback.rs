//! Daemon digest-equivalence over real loopback TCP.
//!
//! The contract `cocad` ships under: driven with one operation in
//! flight at a time, the networked daemon finishes with the **same
//! global-table digest** as an in-process `CocaServer` fed the
//! identical sequence. The whole suite also
//! runs under `--features simd` in CI, so the digest must not move under
//! the AVX2 kernels either.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use coca::core::CocaServer;
use coca::daemon::{
    run_load, run_verify, serve, serve_with_peers, shutdown_daemon, Arrival, ClientMsg,
    DaemonClient, PeerSet, RunSpec, ServerCore, ServerMsg, Workload,
};
use coca::math::Precision;
use coca::net::{encode_frame, FrameReader};

fn small_workload() -> Workload {
    Workload {
        spec: RunSpec {
            classes: 15,
            seed: 41,
            ..RunSpec::default()
        },
        clients: 3,
        rounds: 2,
    }
}

fn spawn_daemon(wl: &Workload) -> coca::daemon::DaemonHandle {
    let (rt, cfg, seeds) = wl.spec.build();
    let core = ServerCore::new(CocaServer::new(&rt, cfg, &seeds));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    serve(core, listener).expect("daemon starts")
}

#[test]
fn sequential_loopback_digest_matches_in_process_reference() {
    let wl = small_workload();
    let handle = spawn_daemon(&wl);
    let addr = handle.addr();
    let outcome = run_verify(addr, &wl).expect("verify run");
    assert!(
        outcome.matches(),
        "digest diverged over loopback: daemon {:016x} vs reference {:016x}",
        outcome.daemon_digest,
        outcome.local_digest
    );
    assert_eq!(outcome.ops, wl.total_ops());
    assert!(shutdown_daemon(addr), "daemon should ack the shutdown");
    let report = handle.join();
    // The run drove every op plus a flush; the report digest is
    // post-flush, so it must still name the reference state.
    assert_eq!(
        report.digest, outcome.local_digest,
        "final report digest diverged"
    );
    assert_eq!(report.requests, wl.total_ops() / 2);
    assert_eq!(report.uploads, wl.total_ops() / 2);
    // The server comes back whole: same table, nothing left queued.
    assert_eq!(report.server.global().digest(), report.digest);
    assert_eq!(report.server.pending_uploads(), 0);
}

#[test]
fn quantized_loopback_digest_matches_per_precision() {
    // --precision f16/i8: senders snap uploads onto the precision grid
    // and the daemon stores/serves the quantized table — the digest must
    // still land exactly on the in-process reference under the same
    // spec. (f32 is the existing tests' default.)
    for precision in [Precision::F32, Precision::F16, Precision::I8] {
        let mut wl = small_workload();
        wl.spec.precision = precision;
        let handle = spawn_daemon(&wl);
        let addr = handle.addr();
        let outcome = run_verify(addr, &wl).expect("verify run");
        assert!(
            outcome.matches(),
            "digest diverged over loopback at {}: daemon {:016x} vs reference {:016x}",
            precision.label(),
            outcome.daemon_digest,
            outcome.local_digest
        );
        assert!(shutdown_daemon(addr));
        handle.join();
    }
}

#[test]
fn peer_sync_ships_the_table_delta_over_loopback() {
    // Two daemons as cells 0 and 1: cell 0 takes the whole workload plus
    // one more upload that stays queued, then a SyncNow ships its delta
    // to cell 1 over real TCP. The export drains cell 0's queue first, so
    // the queued upload's φ travels too, and cell 1's post-sync digest
    // must land exactly on an in-process reference replaying the same
    // export/absorb — the socket leg of the multi-edge sync path must be
    // digest-invisible.
    let wl = small_workload();
    let (rt, cfg, seeds) = wl.spec.build();

    // Daemon B (cell 1): no peers.
    let mut server_b = CocaServer::new(&rt, cfg, &seeds);
    server_b.set_cell_id(1);
    let core_b = ServerCore::new(server_b);
    let listener_b = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle_b =
        serve_with_peers(core_b, listener_b, PeerSet::default()).expect("daemon B starts");

    // Daemon A (cell 0): peers at B, sync only on explicit SyncNow.
    let core_a = ServerCore::new(CocaServer::new(&rt, cfg, &seeds));
    let peers = PeerSet::parse(&format!("1={}", handle_b.addr())).expect("peer list parses");
    let listener_a = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle_a = serve_with_peers(core_a, listener_a, peers).expect("daemon A starts");

    // Drive the workload into A sequentially; run_verify replays the
    // identical sequence on its own reference, pinning A's digest.
    let outcome = run_verify(handle_a.addr(), &wl).expect("verify run");
    assert!(outcome.matches(), "cell 0 diverged before the sync");
    // One more upload, no request or flush after it: it sits in cell 0's
    // queue when the sync fires.
    let queued = wl.upload(&rt, &seeds, wl.clients, 0);
    let mut client = DaemonClient::connect(handle_a.addr()).expect("connect to A");
    match client
        .call(&ClientMsg::Upload(queued.clone()))
        .expect("upload call")
    {
        ServerMsg::UploadAck(depth) => assert_eq!(depth, 1, "the upload must stay queued"),
        other => panic!("expected UploadAck, got {other:?}"),
    }

    // In-process replay of the sync leg: the same merge history at cell
    // 0, exported to cell 1, absorbed at a fresh cell-1 server.
    let mut ref_a = CocaServer::new(&rt, cfg, &seeds);
    let mut sent_phi = vec![0u64; rt.num_classes()];
    for round in 0..wl.rounds {
        for k in 0..wl.clients {
            let profile = ref_a.base_hit_profile();
            let req = wl.request(&rt, profile, k, round);
            ref_a.handle_request(&req);
            let up = wl.upload(&rt, &seeds, k, round);
            for (s, p) in sent_phi.iter_mut().zip(&up.frequency) {
                *s += p;
            }
            ref_a.handle_upload(up);
        }
    }
    ref_a.flush_pending();
    for (s, p) in sent_phi.iter_mut().zip(&queued.frequency) {
        *s += p;
    }
    ref_a.handle_upload(queued);
    let mut ref_b = CocaServer::new(&rt, cfg, &seeds);
    ref_b.set_cell_id(1);
    let genesis_phi = ref_b.global().frequency().to_vec();
    ref_b.absorb_peer(&ref_a.export_delta(1));
    // Cell 1's Φ grew by every φ cell 0 took, the queued upload's too.
    let grown: Vec<u64> = ref_b
        .global()
        .frequency()
        .iter()
        .zip(&genesis_phi)
        .map(|(now, was)| now - was)
        .collect();
    assert_eq!(grown, sent_phi);

    // Fire the sync: A ships exactly one delta, B acks it inline.
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
    // ship had timeouts, the thread serving `SyncNow` parked in a read
    // forever.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let silent_addr = silent.local_addr().expect("silent peer address");
    let (release, held) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let conn = silent.accept().expect("the daemon connects");
        let _ = held.recv(); // hold the socket open, unanswered
        drop(conn);
    });

    let wl = small_workload();
    let (rt, cfg, seeds) = wl.spec.build();
    let core = ServerCore::new(CocaServer::new(&rt, cfg, &seeds));
    let peers = PeerSet::parse(&format!("1={silent_addr}")).expect("peer list parses");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = serve_with_peers(core, listener, peers).expect("daemon starts");
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
        .expect("the other connection is served throughout")
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
    // duplicates, across concurrent connections.
    let wl = small_workload();
    let handle = spawn_daemon(&wl);
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
    let wl = small_workload();
    let handle = spawn_daemon(&wl);
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

#[test]
fn a_client_that_never_reads_stalls_only_its_own_connection() {
    let wl = small_workload();
    let (rt, _, seeds) = wl.spec.build();
    let handle = spawn_daemon(&wl);
    let addr = handle.addr();
    let mut bystander = DaemonClient::connect(addr).expect("connect");
    let profile = bystander.hello().expect("hello");

    // Pipeline requests and never read a reply. The allocations fill
    // this connection's buffers until the daemon's write parks, its
    // reads stop with it, and the requests back up to this end: flow
    // control, not server memory, holds the flood. (Behind a shared
    // worker that parked write took every other connection with it, and
    // the reader in front of it queued requests without bound.)
    let request =
        encode_frame(&ClientMsg::Request(wl.request(&rt, &profile, 0, 0))).expect("request frame");
    let mut hog = TcpStream::connect(addr).expect("connect");
    hog.set_write_timeout(Some(Duration::from_millis(300)))
        .expect("write timeout");
    let mut pipelined = 0u32;
    while hog.write_all(&request).is_ok() {
        pipelined += 1;
        assert!(
            pipelined < 1_000_000,
            "a million unanswered requests accepted: nothing pushes back"
        );
    }

    let started = Instant::now();
    for round in 0..wl.rounds {
        for k in 0..wl.clients {
            let req = ClientMsg::Request(wl.request(&rt, &profile, k, round));
            match bystander.call(&req).expect("request round trip") {
                ServerMsg::Alloc(_) => {}
                other => panic!("expected Alloc, got {other:?}"),
            }
            let up = ClientMsg::Upload(wl.upload(&rt, &seeds, k, round));
            match bystander.call(&up).expect("upload round trip") {
                ServerMsg::UploadAck(_) => {}
                other => panic!("expected UploadAck, got {other:?}"),
            }
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the stalled connection delayed its neighbour: {:?}",
        started.elapsed()
    );

    // Teardown shuts the stalled socket down under its parked write.
    assert!(shutdown_daemon(addr));
    let report = handle.join();
    assert!(report.requests >= wl.total_ops() / 2);
    assert_eq!(report.uploads, wl.total_ops() / 2);
    drop(hog);
}

#[test]
fn daemons_that_sync_each_other_at_once_both_answer() {
    // Cells 0 and 1 name each other as peers and are told to sync at the
    // same instant: each must absorb the other's delta while its own
    // `SyncNow` is still waiting for the other's ack. With the sync and
    // the absorb behind one worker, the two daemons held each other's
    // for the whole peer timeout and shipped nothing.
    let wl = small_workload();
    let (rt, cfg, seeds) = wl.spec.build();
    let listeners = [(); 2].map(|()| TcpListener::bind("127.0.0.1:0").expect("bind loopback"));
    let addrs = listeners
        .each_ref()
        .map(|l| l.local_addr().expect("bound address"));
    let mut cell = 0u32;
    let handles = listeners.map(|listener| {
        let mut server = CocaServer::new(&rt, cfg, &seeds);
        server.set_cell_id(cell);
        let core = ServerCore::new(server);
        let other = 1 - cell;
        cell += 1;
        let peers =
            PeerSet::parse(&format!("{other}={}", addrs[other as usize])).expect("peer list");
        serve_with_peers(core, listener, peers).expect("daemon starts")
    });
    // Give both tables some mass: an empty delta is never shipped.
    for h in &handles {
        assert!(run_verify(h.addr(), &wl).expect("verify run").matches());
    }

    let go = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for h in &handles {
            let go = &go;
            scope.spawn(move || {
                let mut client = DaemonClient::connect(h.addr()).expect("connect");
                go.wait();
                let started = Instant::now();
                match client.call(&ClientMsg::SyncNow).expect("sync call") {
                    ServerMsg::SyncDone(shipped) => assert_eq!(shipped, 1, "the delta landed"),
                    other => panic!("expected SyncDone, got {other:?}"),
                }
                // The daemon's peer timeout is 2 s.
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "crossing syncs waited on each other: {:?}",
                    started.elapsed()
                );
            });
        }
    });

    for h in handles {
        assert!(shutdown_daemon(h.addr()));
        h.join();
    }
}

#[test]
fn frames_coalesced_into_one_write_are_answered_in_order() {
    let wl = small_workload();
    let handle = spawn_daemon(&wl);
    let mut bytes = Vec::new();
    // `SetWatermark` is the no-op probe: answered like any other frame.
    for msg in [
        ClientMsg::Hello,
        ClientMsg::SetWatermark(wl.clients),
        ClientMsg::Digest,
    ] {
        bytes.extend_from_slice(&encode_frame(&msg).expect("frame"));
    }
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    (&stream)
        .write_all(&bytes)
        .expect("one write, three frames");
    let mut replies = FrameReader::new(&stream);
    let mut next = || -> ServerMsg { replies.next().expect("reply").expect("not EOF") };
    assert!(matches!(next(), ServerMsg::Profile(_)));
    assert!(matches!(next(), ServerMsg::WatermarkSet));
    assert!(matches!(next(), ServerMsg::Digest(_)));
    handle.shutdown();
    handle.join();
}

#[test]
fn closed_connections_leave_no_socket_behind() {
    // Every accepted socket used to stay open in the daemon's registry
    // until `join`: a peer that ships a delta per sync tick (a fresh
    // connection each) walked the daemon into its descriptor limit.
    let wl = small_workload();
    let handle = spawn_daemon(&wl);
    let addr = handle.addr();
    // Linux only; elsewhere the registry count is the whole check.
    let open_fds = || std::fs::read_dir("/proc/self/fd").ok().map(Iterator::count);
    let before = open_fds();
    for _ in 0..300 {
        let mut client = DaemonClient::connect(addr).expect("connect");
        client.hello().expect("hello");
    }
    // The daemon sees each hang-up on that connection's own thread.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} closed connections still registered",
            handle.open_connections()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    if let (Some(before), Some(after)) = (before, open_fds()) {
        // Not an equality: the other tests of this binary open and close
        // sockets in the same process meanwhile. A leak is 300.
        assert!(
            after < before + 100,
            "open descriptors went from {before} to {after} over 300 closed connections"
        );
    }
    let outcome = run_verify(addr, &wl).expect("verify run");
    assert!(outcome.matches(), "the daemon still serves, digest-exact");
    assert!(shutdown_daemon(addr));
    handle.join();
}
