//! `daemon_bulk` and `daemon_small`: the shipped `cocad` binary as a child
//! process, driven over loopback by a closed loop of [`CLIENTS`] threads,
//! one connection each, one `Request` then one `Upload` per round.
//!
//! Closed because CoCa clients wait for every allocation and every upload
//! ack (§IV.A): offered load follows service rate and latency is service
//! time, not queueing.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use coca_core::CocaServer;
use coca_daemon::{ClientMsg, DaemonClient, RunSpec, ServerMsg};
use coca_math::Precision;
use coca_net::wire::MAX_FRAME_BYTES;
use coca_net::{decode_message, encode_frame, WireSize};

use crate::bench::Better;
use crate::ctx::{ms, us, Ctx, Outcome};
use crate::pools::{self, Pools, Round, Shape, CLIENTS, POOL_ROUNDS};
use crate::procfs::Proc;
use crate::stats::{med, Samples, Summary};
use crate::trace::{self, Span, Tracer};

/// Rounds per client of the sequential digest check before each window
/// (× [`CLIENTS`] × 2 = 64 operations).
const VERIFY_ROUNDS: usize = 16;
/// How long a starting or stopping `cocad` may take before it counts as hung.
const CHILD_TIMEOUT: Duration = Duration::from_secs(30);
/// Rounds per client a traced window records at most: spans are kept in
/// memory, eight to an operation.
const MAX_TRACED_ROUNDS: usize = 5000;
/// `SetWatermark` round trips behind `daemon.serve.floor_us`.
const FLOOR_CALLS: usize = 2000;

/// What `cocad` printed about itself on the way out.
#[derive(Debug, PartialEq, Eq)]
pub struct Served {
    pub requests: u64,
    pub uploads: u64,
}

/// Parses `cocad`'s final `shut down after R requests, U uploads, …` line.
pub fn parse_served(stdout: &str) -> Option<Served> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.contains("shut down after"))?;
    let before = |marker: &str| -> Option<u64> {
        line[..line.find(marker)?]
            .rsplit(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    Some(Served {
        requests: before(" requests")?,
        uploads: before(" uploads")?,
    })
}

/// A running `cocad` child. Dropping it kills the process, so no failure
/// path of the benchmark can leave a daemon behind.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout_path: PathBuf,
}

impl Daemon {
    /// Starts `cocad` with its default flags on an ephemeral loopback port
    /// and waits for the address-file handoff.
    fn spawn(cocad: &Path, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_path = dir.join("cocad.addr");
        let stdout_path = dir.join("cocad.stdout");
        let _ = std::fs::remove_file(&addr_path);
        let stdout = std::fs::File::create(&stdout_path)
            .map_err(|e| format!("{}: {e}", stdout_path.display()))?;
        let child = Command::new(cocad)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_path)
            .stdin(Stdio::null())
            .stdout(stdout)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cocad.display()))?;
        let mut daemon = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout_path,
        };
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            // The file appears before its contents are complete; only a
            // full address parses.
            if let Some(addr) = std::fs::read_to_string(&addr_path)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("cocad exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("cocad never wrote its address file".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn proc(&self, clk_tck: u64) -> Proc {
        Proc::child(self.child.id(), clk_tck)
    }

    /// `Shutdown` over the wire, then the child must exit 0 on its own.
    fn shutdown(mut self) -> Result<Served, String> {
        if !coca_daemon::shutdown_daemon(self.addr) {
            return Err("cocad did not acknowledge Shutdown".to_string());
        }
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() > deadline => {
                    return Err("cocad still running 30 s after Shutdown".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for cocad: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("cocad exited with {status}"));
        }
        let stdout = std::fs::read_to_string(&self.stdout_path)
            .map_err(|e| format!("{}: {e}", self.stdout_path.display()))?;
        parse_served(&stdout).ok_or_else(|| "cocad printed no shutdown summary".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Everything a window needs, as set-up leaves it.
struct Session {
    daemon: Daemon,
    clients: Vec<DaemonClient>,
    pools: Pools,
    /// Next pool round per client, so consecutive windows keep cycling.
    cursor: Vec<usize>,
    /// `Request` + `Upload` messages sent so far, for the exact-accounting gate.
    ops_sent: u64,
}

fn fe(e: coca_net::FrameError) -> String {
    format!("transport: {e}")
}

fn io(e: std::io::Error) -> String {
    format!("socket: {e}")
}

/// Set-up as a user pays it before the first operation: model runtime,
/// daemon start, connections + `Hello`, op pools.
fn setup(ctx: &Ctx, shape: Shape, tag: &str) -> Result<(Session, Duration), String> {
    let started = Instant::now();
    let spec = RunSpec::default();
    let (rt, _, _) = spec.build();
    let daemon = Daemon::spawn(&ctx.cocad, &ctx.tmp().join(tag))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut profile = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = DaemonClient::connect(daemon.addr).map_err(io)?;
        profile = c.hello().map_err(fe)?;
        clients.push(c);
    }
    let pools = pools::build(&rt, spec, &profile, ctx.seed, shape, POOL_ROUNDS);
    let took = started.elapsed();
    Ok((
        Session {
            daemon,
            clients,
            pools,
            cursor: vec![0; CLIENTS],
            ops_sent: 0,
        },
        took,
    ))
}

/// The digest contract on this run's own inputs: driven one operation at a
/// time, the daemon must land exactly where an in-process `CocaServer` fed
/// the same sequence lands. Returns that mirror server.
fn verify(s: &mut Session, out: &mut Outcome) -> Result<CocaServer, String> {
    let (rt, cfg, seeds) = RunSpec::default().build();
    let mut mirror = CocaServer::new(&rt, cfg, &seeds);
    for r in 0..VERIFY_ROUNDS {
        for k in 0..CLIENTS {
            let round = &s.pools[k][r];
            let (want, _) = mirror.handle_request(round.request());
            match s.clients[k].call(&round.request).map_err(fe)? {
                ServerMsg::Alloc(got) => out
                    .gate(got.cache.total_bytes() == want.cache.total_bytes(), || {
                        format!("verify: allocation diverged at round {r} client {k}")
                    }),
                other => return Err(format!("verify: expected Alloc, got {other:?}")),
            }
            mirror.handle_upload(round.upload().clone());
            match s.clients[k].call(&round.upload).map_err(fe)? {
                ServerMsg::UploadAck(_) => {}
                other => return Err(format!("verify: expected UploadAck, got {other:?}")),
            }
            s.ops_sent += 2;
        }
    }
    mirror.flush_pending();
    match s.clients[0].call(&ClientMsg::Flush).map_err(fe)? {
        ServerMsg::FlushDone => {}
        other => return Err(format!("verify: expected FlushDone, got {other:?}")),
    }
    let digest = match s.clients[0].call(&ClientMsg::Digest).map_err(fe)? {
        ServerMsg::Digest(d) => d,
        other => return Err(format!("verify: expected Digest, got {other:?}")),
    };
    let want = mirror.global().digest();
    out.gate(digest == want, || {
        format!("verify: daemon digest {digest:016x} != in-process {want:016x}")
    });
    Ok(mirror)
}

/// What one closed-loop window measured.
#[derive(Debug, Default)]
struct Window {
    request_ms: Samples,
    upload_ms: Samples,
    failed: u64,
    wall: Duration,
    /// CPU the daemon process burned over the window.
    server_cpu: Duration,
    /// CPU the load generator (this process) burned over the window.
    load_cpu: Duration,
}

impl Window {
    fn ops(&self) -> u64 {
        (self.request_ms.seen() + self.upload_ms.seen()) as u64
    }

    fn summaries(&self) -> Result<(Summary, Summary), String> {
        Summary::of(self.request_ms.kept())
            .zip(Summary::of(self.upload_ms.kept()))
            .ok_or_else(|| "a window completed no round".to_string())
    }
}

/// One client's closed loop for `duration` or `max_rounds`, whichever ends
/// first; `call` makes a round trip (plain or traced) and returns the
/// reply with the client-observed time.
fn client_loop<C>(
    pool: &[Round],
    cursor: &mut usize,
    duration: Duration,
    max_rounds: usize,
    mut call: C,
) -> Result<(Window, Instant), String>
where
    C: FnMut(&ClientMsg) -> Result<(ServerMsg, Duration), String>,
{
    let mut w = Window::default();
    let start = Instant::now();
    while start.elapsed() < duration && w.request_ms.seen() < max_rounds {
        let round = &pool[*cursor % pool.len()];
        *cursor += 1;
        let (reply, took) = call(&round.request)?;
        w.request_ms.push(ms(took));
        w.failed += u64::from(!matches!(reply, ServerMsg::Alloc(_)));
        let (reply, took) = call(&round.upload)?;
        w.upload_ms.push(ms(took));
        w.failed += u64::from(!matches!(reply, ServerMsg::UploadAck(_)));
    }
    Ok((w, Instant::now()))
}

/// Runs every client's loop at once behind a barrier and merges what they
/// measured; both processes' CPU clocks are read around the window.
fn run_window<F>(daemon: &Daemon, ctx: &Ctx, loops: Vec<F>) -> Result<Window, String>
where
    F: FnOnce() -> Result<(Window, Instant), String> + Send,
{
    let server = daemon.proc(ctx.clk_tck);
    let load = Proc::this(ctx.clk_tck);
    let barrier = Barrier::new(loops.len() + 1);
    let (cpu0, load0) = (server.cpu()?, load.cpu()?);
    let (start, parts) = std::thread::scope(|scope| {
        let handles: Vec<_> = loops
            .into_iter()
            .map(|f| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    f()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect();
        (start, parts)
    });
    let mut merged = Window {
        server_cpu: server.cpu()?.saturating_sub(cpu0),
        load_cpu: load.cpu()?.saturating_sub(load0),
        ..Window::default()
    };
    for part in parts {
        let (w, end) = part?;
        merged.request_ms.absorb(w.request_ms);
        merged.upload_ms.absorb(w.upload_ms);
        merged.failed += w.failed;
        merged.wall = merged.wall.max(end.saturating_duration_since(start));
    }
    Ok(merged)
}

/// An untraced window: the clients' own `DaemonClient::call`, timed around
/// the whole call, so it includes the client-side codec a real client pays.
fn plain_window(s: &mut Session, ctx: &Ctx, duration: Duration) -> Result<Window, String> {
    let loops: Vec<_> = s
        .clients
        .iter_mut()
        .zip(&s.pools)
        .zip(&mut s.cursor)
        .map(|((client, pool), cursor)| {
            move || {
                client_loop(pool, cursor, duration, usize::MAX, |msg| {
                    let t = Instant::now();
                    let reply = client.call(msg).map_err(fe)?;
                    Ok((reply, t.elapsed()))
                })
            }
        })
        .collect();
    let w = run_window(&s.daemon, ctx, loops)?;
    s.ops_sent += w.ops();
    Ok(w)
}

/// A connection the traced pass drives by hand, so each step of
/// `DaemonClient::call` gets its own span.
struct RawClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CHILD_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// `call` taken apart: encode · socket write · wait for the reply's
    /// bytes · decode, one span each under a root span for the operation.
    fn call(
        &mut self,
        msg: &ClientMsg,
        op: u64,
        tracer: &mut Tracer,
    ) -> Result<(ServerMsg, Duration), String> {
        let kind = match msg {
            ClientMsg::Request(_) => "request",
            _ => "upload",
        };
        let t0 = Instant::now();
        let frame = encode_frame(msg).map_err(fe)?;
        let t1 = Instant::now();
        self.writer.write_all(&frame).map_err(io)?;
        let t2 = Instant::now();
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix).map_err(io)?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(format!("daemon announced a {len}-byte frame"));
        }
        let mut reply = vec![0u8; 4 + len];
        reply[..4].copy_from_slice(&prefix);
        self.reader.read_exact(&mut reply[4..]).map_err(io)?;
        let t3 = Instant::now();
        let decoded: ServerMsg = decode_message(&reply).map_err(fe)?;
        let t4 = Instant::now();
        let root = tracer.push("daemon.load", kind, op, None, t0, t4);
        tracer.push("net.wire", "encode", op, Some(root), t0, t1);
        tracer.push("daemon.serve", "write", op, Some(root), t1, t2);
        tracer.push("daemon.serve", "wait", op, Some(root), t2, t3);
        tracer.push("net.wire", "decode", op, Some(root), t3, t4);
        Ok((decoded, t4 - t0))
    }
}

/// A traced window on fresh hand-driven connections.
fn traced_window(
    s: &mut Session,
    ctx: &Ctx,
    duration: Duration,
) -> Result<(Window, Tracer), String> {
    let epoch = Instant::now();
    let mut raws = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        raws.push((
            RawClient::connect(s.daemon.addr).map_err(io)?,
            Tracer::new(epoch),
        ));
    }
    let loops: Vec<_> = raws
        .iter_mut()
        .enumerate()
        .zip(&s.pools)
        .zip(&mut s.cursor)
        .map(|(((k, (raw, tracer)), pool), cursor)| {
            move || {
                // Operation ids are unique across threads: client in the
                // high half, sequence in the low.
                let mut op = (k as u64) << 32;
                client_loop(pool, cursor, duration, MAX_TRACED_ROUNDS, |msg| {
                    op += 1;
                    raw.call(msg, op, tracer)
                })
            }
        })
        .collect();
    let w = run_window(&s.daemon, ctx, loops)?;
    s.ops_sent += w.ops();
    let mut all = Tracer::new(epoch);
    for (_, tracer) in raws {
        all.absorb(tracer);
    }
    Ok((w, all))
}

/// Server-side stage costs of the pool's operations, measured by pushing
/// the same frames through `decode_message` → `handle_*` → `encode_frame`
/// in this process (µs per stage), plus the sizes involved.
#[derive(Debug, Default)]
struct Replay {
    decode_request: Vec<f64>,
    handle_request: Vec<f64>,
    encode_alloc: Vec<f64>,
    decode_upload: Vec<f64>,
    handle_upload: Vec<f64>,
    encode_ack: Vec<f64>,
    alloc_frame_bytes: Vec<f64>,
    upload_frame_bytes: Vec<f64>,
    alloc_inflation: Vec<f64>,
    upload_inflation: Vec<f64>,
}

fn replay(server: &mut CocaServer, pools: &Pools) -> Result<Replay, String> {
    let mut r = Replay::default();
    for round in pools.iter().flatten() {
        let frame = encode_frame(&round.request).map_err(fe)?;
        let t = Instant::now();
        let msg: ClientMsg = decode_message(&frame).map_err(fe)?;
        r.decode_request.push(us(t.elapsed()));
        let ClientMsg::Request(req) = msg else {
            unreachable!("a request frame decodes to a Request")
        };
        let t = Instant::now();
        let (alloc, _) = server.handle_request(&req);
        r.handle_request.push(us(t.elapsed()));
        let wire = alloc.wire_bytes() as f64;
        let reply = ServerMsg::Alloc(alloc);
        let t = Instant::now();
        let reply_frame = encode_frame(&reply).map_err(fe)?;
        r.encode_alloc.push(us(t.elapsed()));
        r.alloc_frame_bytes.push(reply_frame.len() as f64);
        r.alloc_inflation.push(reply_frame.len() as f64 / wire);

        let frame = encode_frame(&round.upload).map_err(fe)?;
        r.upload_frame_bytes.push(frame.len() as f64);
        r.upload_inflation
            .push(frame.len() as f64 / round.upload().wire_bytes() as f64);
        let t = Instant::now();
        let msg: ClientMsg = decode_message(&frame).map_err(fe)?;
        r.decode_upload.push(us(t.elapsed()));
        let ClientMsg::Upload(up) = msg else {
            unreachable!("an upload frame decodes to an Upload")
        };
        let t = Instant::now();
        server.handle_upload(up);
        r.handle_upload.push(us(t.elapsed()));
        let reply = ServerMsg::UploadAck(server.pending_uploads());
        let t = Instant::now();
        encode_frame(&reply).map_err(fe)?;
        r.encode_ack.push(us(t.elapsed()));
    }
    Ok(r)
}

/// Gives every `wait` span the server-side stages the replay measured as
/// children, so a wait's self time is what nothing measured explains:
/// socket transit, the reader→worker hand-off, wake-ups and locks. The
/// stages are replay medians, not this operation's own times: where they
/// add up to more than the wait they are cut off at its end, so no span
/// of the trace lies outside its parent.
fn attribute_waits(tracer: &mut Tracer, r: &Replay) {
    let request = [
        ("net.wire", "srv.decode", med(&r.decode_request)),
        ("core.server", "srv.handle", med(&r.handle_request)),
        ("net.wire", "srv.encode", med(&r.encode_alloc)),
    ];
    let upload = [
        ("net.wire", "srv.decode", med(&r.decode_upload)),
        ("core.server", "srv.handle", med(&r.handle_upload)),
        ("net.wire", "srv.encode", med(&r.encode_ack)),
    ];
    let waits: Vec<(usize, Span)> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "wait")
        .map(|(i, s)| (i, s.clone()))
        .collect();
    for (i, wait) in waits {
        let root = wait.parent.expect("a wait span hangs under its operation");
        let stages = if tracer.spans()[root].name == "request" {
            &request
        } else {
            &upload
        };
        let mut at = wait.start_ns;
        for &(layer, name, micros) in stages {
            let end = (at + (micros * 1e3) as u64).min(wait.end_ns);
            tracer.push_ns(layer, name, wait.op, Some(i), at, end);
            at = end;
        }
    }
}

/// Durations (µs) of the client-side stages, keyed by (operation, stage).
fn client_stages(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
    let mut out: BTreeMap<_, Vec<f64>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| spans[p].parent.is_none()) {
            out.entry((spans[p].name, s.name))
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
    }
    out
}

/// Frame bytes ÷ `WireSize::wire_bytes` for an i8 world's bulk exchange:
/// what the JSON encoding costs once the payload itself is quantized.
fn inflation_i8(seed: u64) -> Result<(f64, f64), String> {
    let spec = RunSpec {
        precision: Precision::I8,
        ..RunSpec::default()
    };
    let (rt, cfg, seeds) = spec.build();
    let mut server = CocaServer::new(&rt, cfg, &seeds);
    let profile = server.base_hit_profile().to_vec();
    let pools = pools::build(&rt, spec, &profile, seed, Shape::Bulk, 4);
    let r = replay(&mut server, &pools)?;
    Ok((med(&r.alloc_inflation), med(&r.upload_inflation)))
}

/// Stops the daemon and holds it to exact accounting: every operation the
/// benchmark sent was served, once.
fn finish(s: Session, out: &mut Outcome) -> Result<u64, String> {
    let sent = s.ops_sent;
    let served = s.daemon.shutdown()?;
    let total = served.requests + served.uploads;
    out.gate(total == sent, || {
        format!("cocad served {total} operations, the benchmark sent {sent}")
    });
    Ok(total)
}

/// Repeats set-up (a fresh daemon each time) and keeps the last session;
/// `setup_s` is the median over the repeats.
fn setup_median(ctx: &Ctx, shape: Shape, out: &mut Outcome) -> Result<Session, String> {
    let mut times = Vec::new();
    let mut session = None;
    for rep in 0..ctx.setup_reps() {
        if let Some(prev) = session.take() {
            finish(prev, out)?;
        }
        let (s, took) = setup(ctx, shape, &format!("daemon{rep}"))?;
        times.push(took.as_secs_f64());
        session = Some(s);
    }
    out.put_n("setup_s", med(&times), times.len());
    Ok(session.expect("at least one set-up ran"))
}

/// The untraced pass: end-to-end metrics only, each the best of the
/// window's slices.
pub fn run(ctx: &Ctx, shape: Shape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = setup_median(ctx, shape, &mut out)?;
    verify(&mut s, &mut out)?;
    plain_window(&mut s, ctx, ctx.warmup())?;
    let mut slices = Vec::new();
    for _ in 0..ctx.slices() {
        slices.push(plain_window(&mut s, ctx, ctx.slice())?);
    }
    let per_slice = |f: fn(&Window) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    // Operations in the shortest slice: the sample behind one slice's value.
    let n = slices.iter().map(Window::ops).min().unwrap_or(0) as usize;
    out.attempted = slices.iter().map(Window::ops).sum();
    out.failed = slices.iter().map(|w| w.failed).sum();
    out.put_best(
        "ops_per_s",
        Better::Higher,
        per_slice(|w| w.ops() as f64 / w.wall.as_secs_f64()),
        n,
    );
    out.put_best(
        "server_cpu_ms_per_op",
        Better::Lower,
        per_slice(|w| ms(w.server_cpu) / w.ops() as f64),
        n,
    );
    out.put("peak_rss_mb", s.daemon.proc(ctx.clk_tck).peak_rss_mb()?);
    finish(s, &mut out)?;
    Ok(out)
}

/// The traced pass: per-layer metrics only. An untraced reference window,
/// then a traced one on hand-driven connections, then the in-process
/// replay that attributes each wait.
pub fn run_traced(ctx: &Ctx, shape: Shape, name: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut s, _) = setup(ctx, shape, "daemon-traced")?;
    let mut mirror = verify(&mut s, &mut out)?;
    plain_window(&mut s, ctx, ctx.warmup())?;

    let floor: Vec<f64> = (0..if ctx.smoke { 200 } else { FLOOR_CALLS })
        .map(|_| {
            let t = Instant::now();
            s.clients[0]
                .call(&ClientMsg::SetWatermark(0))
                .map(|_| us(t.elapsed()))
                .map_err(fe)
        })
        .collect::<Result<_, _>>()?;

    let plain = plain_window(&mut s, ctx, ctx.trace_window())?;
    let (traced, mut tracer) = traced_window(&mut s, ctx, ctx.trace_window())?;
    let threads = s.daemon.proc(ctx.clk_tck).threads()?;
    let r = replay(&mut mirror, &s.pools)?;
    attribute_waits(&mut tracer, &r);

    let (req, up) = plain.summaries()?;
    let (treq, tup) = traced.summaries()?;
    out.attempted = plain.ops() + traced.ops();
    out.failed = plain.failed + traced.failed;
    let stages = client_stages(tracer.spans());
    let stage = |op, st| med(stages.get(&(op, st)).map_or(&[][..], Vec::as_slice));

    // Per-kind codec cost of one operation, client side as traced, server
    // side as replayed.
    let encode_request = stage("request", "encode") + med(&r.encode_alloc);
    let decode_request = med(&r.decode_request) + stage("request", "decode");
    let encode_upload = stage("upload", "encode") + med(&r.encode_ack);
    let decode_upload = med(&r.decode_upload) + stage("upload", "decode");
    let codec_round = encode_request + decode_request + encode_upload + decode_upload;
    let handler_round = med(&r.handle_request) + med(&r.handle_upload);
    let round_p50_us = (req.p50 + up.p50) * 1e3;
    // The reconciliation is against the operations the stages were traced
    // on: the traced window's own client-observed round.
    let traced_round_us = (treq.p50 + tup.p50) * 1e3;

    match shape {
        Shape::Bulk => {
            out.put_n(
                "net.wire.encode_alloc_us",
                med(&r.encode_alloc),
                r.encode_alloc.len(),
            );
            out.put_n(
                "net.wire.decode_alloc_us",
                stage("request", "decode"),
                treq.n,
            );
            out.put_n(
                "net.wire.encode_upload_us",
                stage("upload", "encode"),
                tup.n,
            );
            out.put_n(
                "net.wire.decode_upload_us",
                med(&r.decode_upload),
                r.decode_upload.len(),
            );
            let (alloc_i8, upload_i8) = inflation_i8(ctx.seed)?;
            out.put("net.wire.alloc_inflation_i8", alloc_i8);
            out.put("net.wire.upload_inflation_i8", upload_i8);
        }
        Shape::Small => {
            out.put_n(
                "net.wire.encode_small_us",
                (encode_request + encode_upload) / 2.0,
                treq.n,
            );
            out.put_n(
                "net.wire.decode_small_us",
                (decode_request + decode_upload) / 2.0,
                treq.n,
            );
        }
    }
    out.put("net.wire.alloc_frame_bytes", med(&r.alloc_frame_bytes));
    out.put("net.wire.upload_frame_bytes", med(&r.upload_frame_bytes));
    out.put("net.wire.alloc_inflation", med(&r.alloc_inflation));
    out.put("net.wire.upload_inflation", med(&r.upload_inflation));

    // Shares are ratios of medians — measured stages over the
    // client-observed round — so nothing bounds them at 1: replayed stages
    // that overstate what the daemon spent show as a share above it.
    out.put("net.wire.codec_share", codec_round / traced_round_us);
    out.put(
        "daemon.trace.accounted_share",
        (codec_round + handler_round) / traced_round_us,
    );

    out.put_n("daemon.serve.floor_us", med(&floor), floor.len());
    out.put(
        "daemon.serve.residual_us",
        (traced_round_us - codec_round - handler_round) / 2.0,
    );
    out.put("daemon.serve.threads", threads as f64);
    out.put("daemon.tax", round_p50_us / handler_round);
    out.put_n(
        "core.server.request_us",
        med(&r.handle_request),
        r.handle_request.len(),
    );
    out.put_n(
        "core.server.upload_us",
        med(&r.handle_upload),
        r.handle_upload.len(),
    );
    out.put_n("daemon.load.request_p50_ms", req.p50, req.n);
    out.put_n("daemon.load.upload_p50_ms", up.p50, up.n);
    out.put_n("daemon.load.request_p90_ms", req.p90, req.n);
    out.put_n("daemon.load.upload_p90_ms", up.p90, up.n);
    out.put_n("daemon.load.request_p99_ms", req.p99, req.n);
    out.put_n("daemon.load.upload_p99_ms", up.p99, up.n);
    out.put("daemon.load.max_ms", req.max.max(up.max));
    out.put(
        "daemon.load.cpu_ms_per_op",
        ms(plain.load_cpu) / plain.ops() as f64,
    );
    out.put("daemon.load.failed_ops", out.failed as f64);
    out.put(
        "trace.overhead_pct",
        (traced_round_us / round_p50_us - 1.0) * 100.0,
    );

    let sent = s.ops_sent;
    let served = finish(s, &mut out)?;
    out.put("daemon.load.ops_sent", sent as f64);
    out.put("daemon.serve.ops_served", served as f64);

    trace::write(&ctx.out, name, tracer.spans())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_summary_parses_from_cocads_own_wording() {
        let stdout = "cocad: listening on 127.0.0.1:40123 (sharded lock, 4 workers, \
                      ResNet101 on 30 classes, merge PerUpload, genesis digest 00ab)\n\
                      cocad: shut down after 1934 requests, 1933 uploads, 1 flushes — \
                      final table digest 0123456789abcdef\n";
        assert_eq!(
            parse_served(stdout),
            Some(Served {
                requests: 1934,
                uploads: 1933
            })
        );
        assert_eq!(parse_served("cocad: listening on 127.0.0.1:1\n"), None);
    }

    #[test]
    fn waits_get_the_replayed_server_stages_as_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push_ns("daemon.load", "upload", 9, None, 0, 10_000);
        t.push_ns("daemon.serve", "wait", 9, Some(root), 1_000, 9_000);
        let r = Replay {
            decode_upload: vec![2.0],
            handle_upload: vec![1.0],
            encode_ack: vec![0.5],
            // A request-side stage must not leak into an upload's wait.
            decode_request: vec![1000.0],
            ..Replay::default()
        };
        attribute_waits(&mut t, &r);
        let own = trace::self_times(t.spans());
        assert_eq!(t.spans().len(), 5);
        assert_eq!(
            own[1],
            8_000 - 3_500,
            "wait keeps only what no stage explains"
        );
        assert_eq!(t.spans()[3].layer, "core.server");
        assert_eq!((t.spans()[3].start_ns, t.spans()[3].end_ns), (3_000, 4_000));

        // A wait shorter than the replayed stages: they are cut off at its
        // end, and the operation's self times still sum to its duration.
        let mut t = Tracer::new(Instant::now());
        let root = t.push_ns("daemon.load", "upload", 9, None, 0, 4_000);
        t.push_ns("daemon.serve", "wait", 9, Some(root), 1_000, 3_500);
        attribute_waits(&mut t, &r);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns <= 3_500 || s.parent.is_none()));
        let own = trace::self_times(t.spans());
        assert_eq!(own[1], 0, "nothing of the wait is left unexplained");
        assert_eq!(own.iter().sum::<u64>(), 4_000);
        let layers = trace::layer_self_times(t.spans());
        assert_eq!(layers["net.wire"].1, 2_000);
        assert_eq!(layers["core.server"].1, 500);
    }
}
