//! `cocad` — the CoCa edge server as a standalone networked daemon.
//!
//! Binds a TCP listener, serves the §IV.A protocol until a `Shutdown`
//! message arrives, then prints a run summary (requests, uploads, final
//! table digest). Pair with `coca-loadgen` on the same spec flags.
//!
//! ```sh
//! cocad --addr 127.0.0.1:0 --addr-file /tmp/cocad.addr
//! ```

use std::net::TcpListener;
use std::process::ExitCode;

use coca_core::CocaServer;
use coca_daemon::serve::PeerSet;
use coca_daemon::{serve_with_peers, RunSpec, ServerCore};

const USAGE: &str = "\
cocad — the CoCa edge server daemon

USAGE: cocad [FLAGS]

Serving:
  --addr HOST:PORT     bind address (default 127.0.0.1:0, ephemeral)
  --addr-file PATH     write the bound address to PATH once listening

Peer topology (multi-edge):
  --cell-id N          this daemon's cell id (default 0)
  --peers LIST         comma-separated CELL=HOST:PORT peer daemons,
                       e.g. 1=127.0.0.1:4001,2=127.0.0.1:4002
  --sync-period-ms N   ship deltas to every peer each N ms (otherwise
                       sync fires only on an explicit SyncNow message)

World (must match the load generator):
  --model NAME         vgg16_bn | resnet50 | resnet101 | resnet152 | ast-base
                       (default resnet101)
  --classes N          UCF-101 class subset (default 30)
  --seed N             master seed (default 77)
  --precision P        f32 | f16 | i8 table/wire precision (default f32)
";

struct Opts {
    addr: String,
    addr_file: Option<String>,
    spec: RunSpec,
    cell_id: u32,
    peers: PeerSet,
    sync_period_ms: Option<u64>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        spec: RunSpec::default(),
        cell_id: 0,
        peers: PeerSet::default(),
        sync_period_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        if opts.spec.apply_flag(&flag, &value)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => opts.addr = value,
            "--addr-file" => opts.addr_file = Some(value),
            "--cell-id" => {
                opts.cell_id = value
                    .parse()
                    .map_err(|_| format!("bad --cell-id '{value}'"))?;
            }
            "--peers" => opts.peers = PeerSet::parse(&value)?,
            "--sync-period-ms" => {
                opts.sync_period_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --sync-period-ms '{value}'"))?,
                );
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if let Some(ms) = opts.sync_period_ms {
        opts.peers = std::mem::take(&mut opts.peers).with_period_ms(ms);
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (rt, cfg, seeds) = opts.spec.build();
    let mut server = CocaServer::new(&rt, cfg, &seeds);
    server.set_cell_id(opts.cell_id);
    let genesis = server.global().digest();
    let core = ServerCore::new(server);
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cocad: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let handle = match serve_with_peers(core, listener, opts.peers) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cocad: cannot start serving: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cocad: listening on {} ({:?} on {} classes, \
         genesis digest {genesis:016x})",
        handle.addr(),
        opts.spec.model,
        opts.spec.classes,
    );
    if let Some(path) = &opts.addr_file {
        // Written only after the listener is live, so a watcher that
        // sees the file can connect immediately.
        if let Err(e) = std::fs::write(path, handle.addr().to_string()) {
            eprintln!("cocad: cannot write --addr-file {path}: {e}");
            handle.shutdown();
            handle.join();
            return ExitCode::FAILURE;
        }
    }
    let report = handle.join();
    println!(
        "cocad: shut down after {} requests, {} uploads, {} flushes — \
         final table digest {:016x}",
        report.requests, report.uploads, report.flushes, report.digest
    );
    ExitCode::SUCCESS
}
