//! Distributed deployment over real TCP, served by the daemon library.
//!
//! Runs the CoCa protocol across actual sockets: `coca::daemon`'s
//! serving loop (an acceptor and one thread per connection) owns the
//! global cache table and ACA; client threads run simulated inference
//! locally and exchange `CacheRequest` / `CacheAllocation` /
//! `UpdateUpload` messages through the daemon's framed protocol — the
//! same serve path `cocad` ships. Virtual time still prices inference;
//! the sockets are real.
//!
//! The server runs with durability attached (single-lock mode): every
//! request/upload is WAL-logged to `target/coca-durability/` before it
//! mutates state, and after the run a standalone [`CocaServer::recover`]
//! from those files must rebuild the served state byte-for-byte — the
//! same crash-recovery contract the `proptest_recovery` suite pins
//! in-memory, here over a real on-disk store behind a real listener.
//!
//! ```sh
//! cargo run --release --example distributed_tcp
//! ```

use std::net::TcpListener;
use std::thread;

use coca::core::persist::DirStorage;
use coca::core::proto::CacheAllocation;
use coca::core::{CocaClient, CocaServer};
use coca::daemon::{serve, ClientMsg, DaemonClient, ServerCore, ServerMsg};
use coca::prelude::*;

const CLIENTS: usize = 3;
const ROUNDS: usize = 3;
const FRAMES: usize = 200;

fn main() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(30));
    sc.num_clients = CLIENTS;
    sc.seed = 99;
    // The default budget (0) means "auto" and is resolved by the engine;
    // when driving client/server directly, set Π explicitly — 1/8 of the
    // task's full cache, the Fig. 1(a) sweet spot.
    let budget = {
        let probe = Scenario::build(sc.clone());
        probe.rt.arch().full_cache_bytes(probe.rt.num_classes()) / 8
    };
    let coca_cfg = CocaConfig::for_model(ModelId::ResNet101)
        .with_round_frames(FRAMES)
        .with_budget(budget);

    // --- Server: a durability-attached CocaServer behind the daemon's
    // serving loop.
    let server_scenario = Scenario::build(sc.clone());
    let mut server = CocaServer::new(&server_scenario.rt, coca_cfg, server_scenario.seeds());
    // Snapshot + WAL on real files; a fresh directory per run so the
    // genesis snapshot matches this run's seeds. The WAL segment
    // length comes from the config (`wal_rotate_records`, default 256).
    let wal_dir = std::path::Path::new("target").join("coca-durability");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let store = DirStorage::open(&wal_dir).expect("open durability dir");
    server.attach_storage(Box::new(store));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(ServerCore::new(server), listener).expect("serve");
    let addr = handle.addr();
    println!("daemon listening on {addr}");

    // --- Client threads, each over its own TCP connection.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let sc = sc.clone();
            thread::spawn(move || {
                let scenario = Scenario::build(sc);
                let rt = &scenario.rt;
                let mut conn = DaemonClient::connect(addr).expect("connect");
                // In a real deployment the server ships the initial hit
                // profile with the model; here the Hello handshake
                // fetches it over the wire.
                let profile = conn.hello().expect("hello");
                let mut client = CocaClient::new(
                    k as u64,
                    coca_cfg,
                    rt,
                    scenario.profiles[k].clone(),
                    profile,
                );
                let mut stream = scenario.stream(k);
                let mut scratch = coca::core::LookupScratch::new();
                let mut total_ms = 0.0;
                let mut frames = 0u64;
                let mut correct = 0u64;
                for _ in 0..ROUNDS {
                    let alloc: CacheAllocation = match conn
                        .call(&ClientMsg::Request(client.cache_request()))
                        .expect("request round trip")
                    {
                        ServerMsg::Alloc(a) => a,
                        other => panic!("expected Alloc, got {other:?}"),
                    };
                    client.install_cache(alloc.cache);
                    for _ in 0..FRAMES {
                        let frame = stream.next_frame();
                        let r = client.process_frame(rt, &frame, &mut scratch);
                        total_ms += r.latency.as_millis_f64();
                        correct += u64::from(r.correct);
                        frames += 1;
                    }
                    let upload = client.end_round();
                    match conn
                        .call(&ClientMsg::Upload(upload))
                        .expect("upload round trip")
                    {
                        ServerMsg::UploadAck(_) => {}
                        other => panic!("expected UploadAck, got {other:?}"),
                    }
                }
                // Dropping the connection is the goodbye; the daemon's
                // connection thread sees clean EOF.
                (
                    k,
                    total_ms / frames as f64,
                    100.0 * correct as f64 / frames as f64,
                )
            })
        })
        .collect();

    let full = Scenario::build(sc).rt.full_compute().as_millis_f64();
    for h in handles {
        let (k, mean, acc) = h.join().expect("client thread");
        println!("client {k}: mean latency {mean:.2} ms (edge-only {full:.2}), accuracy {acc:.2}%");
    }

    handle.shutdown();
    let report = handle.join();
    println!(
        "daemon: {} allocations served, {} uploads merged, table digest {:016x}",
        report.requests, report.uploads, report.digest
    );

    // Crash-recovery check: rebuild a server from nothing but the
    // on-disk snapshot + WAL and compare it to the one the daemon
    // actually served.
    let mut served = report.server;
    let live_bytes = served.snapshot().to_bytes();
    let d = served.detach_durability().expect("durability attached");
    let events = d.events_logged();
    let (recovered, info) =
        CocaServer::recover(&server_scenario.rt, coca_cfg, server_scenario.seeds(), d)
            .expect("recovery from on-disk WAL");
    assert_eq!(
        recovered.snapshot().to_bytes(),
        live_bytes,
        "recovered server diverged from the served one"
    );
    println!(
        "daemon: recovered byte-identical state from {} ({events} WAL events, \
         {} replayed on top of the {:?} snapshot)",
        wal_dir.display(),
        info.replayed,
        info.source
    );
    println!("distributed CoCa run complete — protocol served by the cocad daemon core");
}
