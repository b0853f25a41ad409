//! `server_inproc` and `durable_ingest`: the `daemon_bulk` operation
//! stream fed single-threaded straight into `CocaServer::handle_request` /
//! `handle_upload` — no socket, no JSON frames — bare, or with a
//! `DirStorage` write-ahead log attached.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use coca_core::{CocaConfig, CocaServer, DirStorage, Durability, MergeMode, Snapshot, WalRecord};
use coca_daemon::RunSpec;
use coca_math::Precision;
use coca_model::ModelRuntime;
use coca_sim::SeedTree;

use crate::bench::Better;
use crate::ctx::{ms, us, Ctx, Outcome};
use crate::pools::{self, Pools, Shape, CLIENTS, POOL_ROUNDS};
use crate::procfs::Proc;
use crate::stats::{med, Samples, Summary};
use crate::trace::{self, Tracer};

/// WAL records left after the last rotation when a durable window ends, so
/// every recovery replays the same tail.
const WAL_TAIL: u64 = 200;
/// Spans a traced window records at most (they are kept in memory).
const MAX_TRACED_SPANS: usize = 100_000;
/// Rounds of the sequential determinism check before the window.
const VERIFY_ROUNDS: usize = 16;

/// One server and the inputs to drive it.
struct World {
    rt: ModelRuntime,
    cfg: CocaConfig,
    seeds: SeedTree,
    server: CocaServer,
    pools: Pools,
    /// Operations handled so far; selects the next pool round, and counts
    /// WAL records when storage is attached (one per operation).
    ops: u64,
}

/// Set-up: model runtime, server (seeded table, hit profile), op pools and
/// — for the durable workload — storage attach with its genesis snapshot.
fn setup(ctx: &Ctx, spec: RunSpec, wal_dir: Option<&Path>) -> Result<(World, Duration), String> {
    let started = Instant::now();
    let (rt, cfg, seeds) = spec.build();
    let mut server = CocaServer::new(&rt, cfg, &seeds);
    let profile = server.base_hit_profile().to_vec();
    let pools = pools::build(&rt, spec, &profile, ctx.seed, Shape::Bulk, POOL_ROUNDS);
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        let store = DirStorage::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        server.attach_storage(Box::new(store));
    }
    let took = started.elapsed();
    Ok((
        World {
            rt,
            cfg,
            seeds,
            server,
            pools,
            ops: 0,
        },
        took,
    ))
}

fn setup_median(ctx: &Ctx, wal_dir: Option<&Path>, out: &mut Outcome) -> Result<World, String> {
    let mut times = Vec::new();
    let mut world = None;
    for _ in 0..ctx.setup_reps() {
        let (w, took) = setup(ctx, RunSpec::default(), wal_dir)?;
        times.push(took.as_secs_f64());
        world = Some(w);
    }
    out.put_n("setup_s", med(&times), times.len());
    Ok(world.expect("at least one set-up ran"))
}

/// Sanity of the inputs and of the server's determinism: the first rounds
/// must produce non-empty allocations within budget, and a second server
/// fed the same sequence must land on the same digest.
fn verify(w: &mut World, out: &mut Outcome) {
    let mut mirror = CocaServer::new(&w.rt, w.cfg, &w.seeds);
    for r in 0..VERIFY_ROUNDS {
        for k in 0..CLIENTS {
            let round = &w.pools[k][r];
            let (got, _) = w.server.handle_request(round.request());
            let (want, _) = mirror.handle_request(round.request());
            let bytes = got.cache.total_bytes();
            out.gate(
                bytes > 0
                    && bytes as u64 <= round.request().budget_bytes
                    && bytes == want.cache.total_bytes(),
                || format!("verify: allocation of {bytes} bytes at round {r} client {k}"),
            );
            w.server.handle_upload(round.upload().clone());
            mirror.handle_upload(round.upload().clone());
            w.ops += 2;
        }
    }
    let (got, want) = (w.server.global().digest(), mirror.global().digest());
    out.gate(got == want, || {
        format!("verify: digest {got:016x} != a second server's {want:016x}")
    });
}

/// What one single-threaded window measured.
#[derive(Debug, Default)]
struct Window {
    request_us: Samples,
    upload_us: Samples,
    /// Sums of every timed call (the samples above are thinned).
    request_total_us: f64,
    upload_total_us: f64,
    /// Sum of the timed calls: the server's busy time.
    busy: Duration,
    cpu: Duration,
    cells_extracted: u64,
    cells_merged: u64,
}

impl Window {
    fn ops(&self) -> u64 {
        (self.request_us.seen() + self.upload_us.seen()) as u64
    }

    fn summaries(&self) -> Result<(Summary, Summary), String> {
        Summary::of(self.request_us.kept())
            .zip(Summary::of(self.upload_us.kept()))
            .ok_or_else(|| "a window completed no round".to_string())
    }
}

/// Feeds rounds (clients alternating) until `done(world ops, elapsed)`.
/// Each call is timed on its own; cloning the upload the handler consumes
/// and dropping the allocation it returns are the caller's costs and stay
/// outside the timed interval. With a tracer, every call leaves a span
/// under the given layer.
fn window(
    w: &mut World,
    clk_tck: u64,
    mut done: impl FnMut(u64, Duration) -> bool,
    mut tracer: Option<(&mut Tracer, &'static str)>,
) -> Result<Window, String> {
    let me = Proc::this(clk_tck);
    let cpu0 = me.cpu()?;
    let mut out = Window::default();
    let start = Instant::now();
    while !done(w.ops, start.elapsed())
        && tracer
            .as_ref()
            .is_none_or(|(t, _)| t.spans().len() < MAX_TRACED_SPANS)
    {
        let i = (w.ops / 2) as usize;
        let round = &w.pools[i % CLIENTS][(i / CLIENTS) % POOL_ROUNDS];
        let t0 = Instant::now();
        let (alloc, _) = w.server.handle_request(round.request());
        let t1 = Instant::now();
        out.cells_extracted += alloc
            .cache
            .layers()
            .iter()
            .map(|l| l.len() as u64)
            .sum::<u64>();
        drop(alloc);
        let upload = round.upload().clone();
        out.cells_merged += upload.table.len() as u64;
        let t2 = Instant::now();
        w.server.handle_upload(upload);
        let t3 = Instant::now();
        out.request_us.push(us(t1 - t0));
        out.upload_us.push(us(t3 - t2));
        out.request_total_us += us(t1 - t0);
        out.upload_total_us += us(t3 - t2);
        out.busy += (t1 - t0) + (t3 - t2);
        if let Some((t, layer)) = tracer.as_mut() {
            t.push(layer, "request", w.ops, None, t0, t1);
            t.push(layer, "upload", w.ops + 1, None, t2, t3);
        }
        w.ops += 2;
    }
    out.cpu = me.cpu()?.saturating_sub(cpu0);
    Ok(out)
}

fn for_time(limit: Duration) -> impl FnMut(u64, Duration) -> bool {
    move |_, elapsed| elapsed >= limit
}

/// A durable window also runs on until the WAL holds exactly [`WAL_TAIL`]
/// records past the last rotation.
fn for_time_then_tail(limit: Duration, rotate: u64) -> impl FnMut(u64, Duration) -> bool {
    move |records, elapsed| elapsed >= limit && records % rotate == WAL_TAIL % rotate
}

/// End-to-end metrics from a window's slices, each the best slice.
fn put_end_to_end(out: &mut Outcome, slices: &[Window]) {
    let per_slice = |f: fn(&Window) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let n = slices.iter().map(Window::ops).min().unwrap_or(0) as usize;
    out.attempted = slices.iter().map(Window::ops).sum();
    out.put_best(
        "ops_per_s",
        Better::Higher,
        per_slice(|w| w.ops() as f64 / w.busy.as_secs_f64()),
        n,
    );
    out.put_best(
        "server_cpu_ms_per_op",
        Better::Lower,
        per_slice(|w| ms(w.cpu) / w.ops() as f64),
        n,
    );
}

/// `server_inproc`, untraced.
pub fn run_bare(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut w = setup_median(ctx, None, &mut out)?;
    verify(&mut w, &mut out);
    window(&mut w, ctx.clk_tck, for_time(ctx.warmup()), None)?;
    let slices: Vec<Window> = (0..ctx.slices())
        .map(|_| window(&mut w, ctx.clk_tck, for_time(ctx.slice()), None))
        .collect::<Result<_, _>>()?;
    put_end_to_end(&mut out, &slices);
    out.put("peak_rss_mb", Proc::this(ctx.clk_tck).peak_rss_mb()?);
    Ok(out)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// What one `CocaServer::recover` from a directory did.
struct Recovered {
    took: Duration,
    digest: u64,
    replayed: usize,
}

/// Recovers from `dir` in place (recovery checkpoints the directory it
/// reads, so callers hand it a copy).
fn recover(w: &World, dir: &Path) -> Result<Recovered, String> {
    let store = DirStorage::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let durability = Durability::new(Box::new(store), w.cfg.wal_rotate_records);
    let t = Instant::now();
    let (server, info) = CocaServer::recover(&w.rt, w.cfg, &w.seeds, durability)
        .map_err(|e| format!("recover from {}: {e}", dir.display()))?;
    Ok(Recovered {
        took: t.elapsed(),
        digest: server.global().digest(),
        replayed: info.replayed,
    })
}

/// Recovers `times` from fresh copies of the live directory and holds each
/// to the durability contract: the live digest, a [`WAL_TAIL`]-record replay.
fn recover_gated(
    w: &World,
    wal_dir: &Path,
    times: usize,
    out: &mut Outcome,
) -> Result<(Vec<f64>, PathBuf), String> {
    let live = w.server.global().digest();
    let copy = wal_dir.with_extension("copy");
    let mut took = Vec::new();
    for _ in 0..times {
        copy_dir(wal_dir, &copy)?;
        let r = recover(w, &copy)?;
        out.gate(r.digest == live, || {
            format!("recovered digest {:016x} != live {live:016x}", r.digest)
        });
        out.gate(r.replayed as u64 == WAL_TAIL, || {
            format!(
                "recovery replayed {} records, expected {WAL_TAIL}",
                r.replayed
            )
        });
        took.push(ms(r.took));
    }
    Ok((took, copy))
}

/// `durable_ingest`, untraced. The last slice runs on until the WAL tail
/// is [`WAL_TAIL`] records, so the gated recovery always replays the same.
pub fn run_durable(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wal_dir = ctx.tmp().join("wal");
    let mut w = setup_median(ctx, Some(&wal_dir), &mut out)?;
    let rotate = w.cfg.wal_rotate_records as u64;
    window(&mut w, ctx.clk_tck, for_time(ctx.warmup()), None)?;
    let mut slices = Vec::new();
    for i in 0..ctx.slices() {
        slices.push(if i + 1 < ctx.slices() {
            window(&mut w, ctx.clk_tck, for_time(ctx.slice()), None)?
        } else {
            window(
                &mut w,
                ctx.clk_tck,
                for_time_then_tail(ctx.slice(), rotate),
                None,
            )?
        });
    }
    put_end_to_end(&mut out, &slices);
    recover_gated(&w, &wal_dir, 1, &mut out)?;
    out.put("peak_rss_mb", Proc::this(ctx.clk_tck).peak_rss_mb()?);
    Ok(out)
}

fn overhead_pct(plain: &Window, traced: &Window) -> Result<f64, String> {
    let (req, up) = plain.summaries()?;
    let (treq, tup) = traced.summaries()?;
    Ok(((treq.p50 + tup.p50) / (req.p50 + up.p50) - 1.0) * 100.0)
}

/// Cost of one explicit flush of a two-upload queue under queue-and-flush
/// (the per-upload default never has anything to flush).
fn flush_us(w: &World, reps: usize) -> f64 {
    let cfg = w.cfg.with_merge_mode(MergeMode::QueueAndFlush);
    let mut server = CocaServer::new(&w.rt, cfg, &w.seeds);
    let samples: Vec<f64> = (0..reps)
        .map(|r| {
            for k in 0..CLIENTS {
                server.handle_upload(w.pools[k][r % POOL_ROUNDS].upload().clone());
            }
            let t = Instant::now();
            server.flush_pending();
            us(t.elapsed())
        })
        .collect();
    med(&samples)
}

/// `server_inproc`, traced: per-layer metrics of `core.server`.
pub fn run_bare_traced(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut w, _) = setup(ctx, RunSpec::default(), None)?;
    verify(&mut w, &mut out);
    window(&mut w, ctx.clk_tck, for_time(ctx.warmup()), None)?;
    let plain = window(&mut w, ctx.clk_tck, for_time(ctx.trace_window()), None)?;
    let mut tracer = Tracer::new(Instant::now());
    let traced = window(
        &mut w,
        ctx.clk_tck,
        for_time(ctx.trace_window()),
        Some((&mut tracer, "core.server")),
    )?;
    out.attempted = plain.ops() + traced.ops();
    let (req, up) = plain.summaries()?;
    out.put_n("core.server.request_us", req.p50, req.n);
    out.put_n("core.server.upload_us", up.p50, up.n);
    out.put(
        "core.server.flush_us",
        flush_us(&w, if ctx.smoke { 8 } else { 64 }),
    );
    out.put(
        "core.server.extract_ns_per_cell",
        plain.request_total_us * 1e3 / plain.cells_extracted.max(1) as f64,
    );
    out.put(
        "core.server.merge_ns_per_cell",
        plain.upload_total_us * 1e3 / plain.cells_merged.max(1) as f64,
    );
    out.put("core.server.cells_extracted", plain.cells_extracted as f64);
    out.put("core.server.cells_merged", plain.cells_merged as f64);
    out.put(
        "core.server.table_bytes",
        w.server.global().store_bytes() as f64,
    );
    out.put("trace.overhead_pct", overhead_pct(&plain, &traced)?);

    // The same stream against an i8 table: the price of dequantizing
    // before every extract and merge.
    let i8_spec = RunSpec {
        precision: Precision::I8,
        ..RunSpec::default()
    };
    let (mut w8, _) = setup(ctx, i8_spec, None)?;
    window(&mut w8, ctx.clk_tck, for_time(ctx.warmup()), None)?;
    let win8 = window(&mut w8, ctx.clk_tck, for_time(ctx.trace_window()), None)?;
    let (req8, up8) = win8.summaries()?;
    out.put_n("core.server.request_us_i8", req8.p50, req8.n);
    out.put_n("core.server.upload_us_i8", up8.p50, up8.n);
    trace::write(&ctx.out, name, tracer.spans())?;
    Ok(out)
}

/// `durable_ingest`, traced: per-layer metrics of `core.persist`, each
/// durable operation split into the bare handler (measured on a second,
/// storage-less server) and what logging added.
pub fn run_durable_traced(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wal_dir = ctx.tmp().join("wal-traced");
    let (mut w, _) = setup(ctx, RunSpec::default(), Some(&wal_dir))?;
    let rotate = w.cfg.wal_rotate_records as u64;
    window(&mut w, ctx.clk_tck, for_time(ctx.warmup()), None)?;
    let plain = window(&mut w, ctx.clk_tck, for_time(ctx.trace_window()), None)?;
    let mut tracer = Tracer::new(Instant::now());
    let traced = window(
        &mut w,
        ctx.clk_tck,
        for_time_then_tail(ctx.trace_window(), rotate),
        Some((&mut tracer, "core.persist")),
    )?;
    out.attempted = plain.ops() + traced.ops();

    let (mut bare_world, _) = setup(ctx, RunSpec::default(), None)?;
    window(&mut bare_world, ctx.clk_tck, for_time(ctx.warmup()), None)?;
    let bare = window(
        &mut bare_world,
        ctx.clk_tck,
        for_time(ctx.trace_window()),
        None,
    )?;
    let (breq, bup) = bare.summaries()?;
    let (req, up) = plain.summaries()?;
    out.put_n("core.server.request_us", breq.p50, breq.n);
    out.put_n("core.server.upload_us", bup.p50, bup.n);
    out.put_n("core.persist.wal_append_us", up.p50 - bup.p50, up.n);
    out.put(
        "core.persist.log_share",
        1.0 - (breq.p50 + bup.p50) / (req.p50 + up.p50),
    );
    let wal_bytes: Vec<f64> = w
        .pools
        .iter()
        .flatten()
        .map(|r| WalRecord::Upload(r.upload().clone()).to_frame().len() as f64)
        .collect();
    out.put_n(
        "core.persist.wal_bytes_per_upload",
        med(&wal_bytes),
        wal_bytes.len(),
    );
    out.put("core.persist.rotations", (w.ops / rotate) as f64);

    // Every traced operation gets the bare handler as its child, so the
    // operation's self time is the logging it paid for.
    for (i, s) in tracer.spans().to_vec().iter().enumerate() {
        let bare_us = if s.name == "request" {
            breq.p50
        } else {
            bup.p50
        };
        let end = s.start_ns + (bare_us * 1e3) as u64;
        tracer.push_ns("core.server", "handle", s.op, Some(i), s.start_ns, end);
    }

    let reps = if ctx.smoke { 2 } else { 5 };
    let snaps: Vec<(f64, f64, f64)> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let bytes = w.server.snapshot().to_bytes();
            let encode = ms(t.elapsed());
            let t = Instant::now();
            let decoded = Snapshot::from_bytes(&bytes);
            let decode = ms(t.elapsed());
            out.gate(decoded.is_ok(), || {
                "a fresh snapshot failed to decode".into()
            });
            (encode, decode, bytes.len() as f64)
        })
        .collect();
    out.put_n(
        "core.persist.snapshot_encode_ms",
        med(&snaps.iter().map(|s| s.0).collect::<Vec<_>>()),
        reps,
    );
    out.put_n(
        "core.persist.snapshot_decode_ms",
        med(&snaps.iter().map(|s| s.1).collect::<Vec<_>>()),
        reps,
    );
    out.put("core.persist.snapshot_bytes", snaps[0].2);

    let (took, copy) = recover_gated(&w, &wal_dir, reps, &mut out)?;
    out.put_n("core.persist.recover_ms", med(&took), took.len());
    out.put("core.persist.replayed_records", WAL_TAIL as f64);
    // The copy is now checkpointed with an empty WAL: recovering it again
    // costs everything but the replay.
    let empty: Vec<f64> = (0..reps)
        .map(|_| recover(&w, &copy).map(|r| ms(r.took)))
        .collect::<Result<_, _>>()?;
    out.put(
        "core.persist.replay_us_per_record",
        (med(&took) - med(&empty)) * 1e3 / WAL_TAIL as f64,
    );
    out.put("trace.overhead_pct", overhead_pct(&plain, &traced)?);

    trace::write(&ctx.out, name, tracer.spans())?;
    Ok(out)
}
