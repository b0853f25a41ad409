//! Micro-benchmarks over the hot paths of the reproduction: a plain
//! `harness = false` program with one timer ([`measure_ns`], and
//! [`measure_ns_min3`] where the heap churns). It runs three sections in
//! order, and every row it prints is committed to a baseline at the repo
//! root or gated:
//!
//! 1. **Lookup kernels** (`BENCH_lookup.json`): the fused `score_top2`
//!    per entry at d ∈ {64, 256} × {8, 64, 512} entries, and the canonical
//!    scalar kernels against the runtime-dispatched AVX2 bodies.
//! 2. **Server tables** (`BENCH_server.json`): the whole-round batched
//!    merge and the gather extract per cell over a classes × layers ×
//!    fleet grid, then the durability costs (snapshot encode/decode, WAL
//!    append/replay per record, the table digest).
//! 3. **Engine** (`BENCH_engine.json`): `drive()`'s per-frame overhead
//!    with a degenerate driver (split into stream-gen / digest /
//!    scheduling), one real `CocaClient::process_frame`,
//!    `fill_random_unit` per coordinate, and the 2000-member fleet's cost
//!    per event through `drive_plan`.
//!
//! Environment knobs (both used by CI):
//!
//! * `COCA_BENCH_QUICK=1` — short measurement bursts (quick mode).
//! * `COCA_BENCH_ENFORCE=1` — fail on a >25 % regression vs the committed
//!   baselines (a committed key that is missing fails too), on a cost
//!   over its absolute ns budget (the fused kernel at d = 256 / 64
//!   entries, the fleet-scale batched merge, the five `persist_*` costs),
//!   or — with AVX2 dispatch active — a `simd_kernel_speedup` geomean
//!   below 1.5× (guard band under the committed ≥2×). Every gate prints
//!   its verdict; an enforced run measures all three sections, lists every
//!   failed gate at the end and then exits non-zero. The ns gates are
//!   host-relative: baselines are regenerated on the machine that commits
//!   them.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use coca_bench::fleet::FleetNullDriver;
use coca_core::driver::{
    drive, drive_plan, frame_digest, DriveConfig, DrivePlan, FrameOutcome, FrameStep, MethodDriver,
    NoMsg,
};
use coca_core::engine::{Scenario, ScenarioConfig};
use coca_core::{CocaConfig, CocaServer, LookupScratch};
use coca_data::{DatasetSpec, Frame};
use coca_math::vector::fill_random_unit;
use coca_math::{random_unit, ScoreScratch, VectorStore};
use coca_model::ModelId;
use coca_sim::{SeedTree, SimDuration};
use rand::{Rng, SeedableRng};

/// True when CI asked for short measurement bursts.
fn quick_mode() -> bool {
    std::env::var_os("COCA_BENCH_QUICK").is_some()
}

/// True when regressions vs the committed baselines must fail the run.
fn enforce_mode() -> bool {
    std::env::var_os("COCA_BENCH_ENFORCE").is_some()
}

/// Maximum tolerated per-frame regression vs a committed baseline.
const MAX_REGRESSION: f64 = 1.25;

/// The failed gates of this run, listed together by `main` at the end.
static FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Records a failed gate when the run enforces its gates.
fn fail(msg: String) {
    if enforce_mode() {
        FAILURES.lock().unwrap().push(msg);
    }
}

/// Mean ns per call of `f`, with a calibration warmup (quick mode shrinks
/// the measurement burst ~7×).
fn measure_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let target = if quick_mode() {
        Duration::from_millis(30)
    } else {
        Duration::from_millis(200)
    };
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < target / 10 || calls < 5 {
        black_box(f());
        calls += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / calls as f64;
    let n = ((target.as_secs_f64() / per_call.max(1e-9)) as u64).clamp(5, 2_000_000);
    let start = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// Minimum of three [`measure_ns`] bursts — damps allocator/page-fault
/// outliers on measurements whose working set churns the heap.
fn measure_ns_min3<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..3)
        .map(|_| measure_ns(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Path of a committed baseline at the repo root.
fn baseline_path(name: &str) -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push(name);
    path
}

/// Parses a committed baseline file, if present.
fn read_baseline(name: &str) -> Option<serde_json::Value> {
    let text = std::fs::read_to_string(baseline_path(name)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Fails the gate (under `COCA_BENCH_ENFORCE=1`) when `current_ns`
/// regressed more than [`MAX_REGRESSION`] over `committed_ns`, or when the
/// committed baseline has no value at `key` — a renamed or missing key
/// must not switch its gate off.
fn enforce_no_regression(label: &str, current_ns: f64, committed_ns: Option<f64>, key: &str) {
    let Some(committed) = committed_ns else {
        println!("gate  {label:<40} {current_ns:>10.1} ns, no committed {key}");
        fail(format!(
            "{label}: the committed baseline has no {key} to gate against"
        ));
        return;
    };
    let ratio = current_ns / committed.max(1e-9);
    let verdict = if ratio > MAX_REGRESSION {
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "gate  {label:<40} {current_ns:>10.1} ns vs committed {committed:.1} ns \
         ({ratio:.2}x, {verdict})"
    );
    if ratio > MAX_REGRESSION {
        fail(format!(
            "{label}: {current_ns:.1} ns regressed {ratio:.2}x over the committed \
             {committed:.1} ns baseline (limit {MAX_REGRESSION}x)"
        ));
    }
}

/// Fails the gate (under `COCA_BENCH_ENFORCE=1`) when `current_ns`
/// exceeds a fixed budget — the gate for costs whose committed trajectory
/// is a target met, not a baseline to drift from.
fn enforce_budget(label: &str, current_ns: f64, budget_ns: f64) {
    let verdict = if current_ns > budget_ns {
        "OVER BUDGET"
    } else {
        "ok"
    };
    println!("gate  {label:<40} {current_ns:>10.1} ns vs budget {budget_ns:.0} ns ({verdict})");
    if current_ns > budget_ns {
        fail(format!(
            "{label}: {current_ns:.1} ns is over its {budget_ns:.0} ns budget"
        ));
    }
}

fn scenario() -> Scenario {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(50));
    sc.seed = 9001;
    sc.num_clients = 1;
    Scenario::build(sc)
}

/// Per-entry cost of the fused `score_top2` kernel over a contiguous
/// [`VectorStore`] with reusable scratch, across the layer shapes the
/// paper's models produce. Refreshes `BENCH_lookup.json`, gates every
/// point against its committed cost and the headline point (d = 256,
/// 64 entries) against an absolute budget.
fn bench_lookup_kernels() {
    let committed = read_baseline("BENCH_lookup.json");
    let committed_fused = |dim: usize, entries: usize| -> Option<f64> {
        committed
            .as_ref()?
            .as_object()?
            .get("points")?
            .as_array()?
            .iter()
            .find(|p| {
                let o = p.as_object();
                o.and_then(|o| o.get("dim")?.as_u64()) == Some(dim as u64)
                    && o.and_then(|o| o.get("entries")?.as_u64()) == Some(entries as u64)
            })?
            .as_object()?
            .get("fused_ns_per_entry")?
            .as_f64()
    };

    let alpha = 0.85f32;
    const QUERIES: usize = 32;
    let mut points_json = Vec::new();
    let mut headline_ns = 0.0f64;
    for &dim in &[64usize, 256] {
        for &entries in &[8usize, 64, 512] {
            let mut rng = SeedTree::new(9005)
                .child_idx("kernel", (dim * 1000 + entries) as u64)
                .rng();
            let rows: Vec<Vec<f32>> = (0..entries).map(|_| random_unit(&mut rng, dim)).collect();
            let store = VectorStore::from_rows(&rows);
            let classes: Vec<usize> = (0..entries).collect();
            let queries: Vec<Vec<f32>> = (0..QUERIES).map(|_| random_unit(&mut rng, dim)).collect();

            // The fused path: one `score_top2` pass, reusable scratch.
            let mut scratch = ScoreScratch::new();
            let mut qi = 0usize;
            let fused_ns = measure_ns(|| {
                let q = &queries[qi % QUERIES];
                qi += 1;
                scratch.begin(entries);
                store.score_top2(q, &classes, alpha, &mut scratch)
            });

            let fused_per_entry = fused_ns / entries as f64;
            if dim == 256 && entries == 64 {
                headline_ns = fused_per_entry;
            }
            println!(
                "bench score_top2 d={dim:<4} entries={entries:<4} fused \
                 {fused_per_entry:>6.2} ns/entry"
            );
            enforce_no_regression(
                &format!("score_top2_fused_d{dim}_n{entries}"),
                fused_per_entry,
                committed_fused(dim, entries),
                &format!("points[dim={dim}, entries={entries}].fused_ns_per_entry"),
            );
            points_json.push(format!(
                "    {{\"dim\": {dim}, \"entries\": {entries}, \
                 \"fused_ns_per_entry\": {fused_per_entry:.2}}}"
            ));
        }
    }

    // Absolute budget at the headline point: about twice the committed
    // 31.18 ns/entry, so a slow runner passes and a return to a
    // per-entry scan that recomputes norms (~300 ns/entry) cannot.
    enforce_budget("score_top2_fused_d256_n64", headline_ns, 62.0);

    // --- Scalar-kernel vs dispatched-kernel rows. `matrix::scalar::*`
    // are the canonical 8-lane kernels every dispatcher falls back to;
    // the root fns route to the AVX2 bodies on an x86_64 host with AVX2
    // and to the same scalar bodies otherwise (both columns then measure
    // one code path and the ratio reads ~1.0x). The scalar column is itself
    // auto-vectorized by LLVM against the x86-64 SSE2 baseline, so an
    // active ratio is honest AVX2-over-SSE, not AVX2-over-naive.
    let simd_active = coca_math::simd_active();
    const SIMD_DIM: usize = 256;
    const SIMD_ENTRIES: usize = 64;
    let mut rng = SeedTree::new(9005).child_idx("simd", SIMD_DIM as u64).rng();
    let rows: Vec<Vec<f32>> = (0..SIMD_ENTRIES)
        .map(|_| random_unit(&mut rng, SIMD_DIM))
        .collect();
    let store = VectorStore::from_rows(&rows);
    let flat = store.as_flat();
    let classes: Vec<usize> = (0..SIMD_ENTRIES).collect();
    let queries: Vec<Vec<f32>> = (0..QUERIES)
        .map(|_| random_unit(&mut rng, SIMD_DIM))
        .collect();
    let src_rows_data: Vec<Vec<f32>> = (0..SIMD_ENTRIES)
        .map(|_| random_unit(&mut rng, SIMD_DIM))
        .collect();
    let src = VectorStore::from_rows(&src_rows_data);

    // Committed per-entry ns for a simd row — only comparable when the
    // committed file was produced in the same dispatch mode.
    let committed_simd = committed
        .as_ref()
        .and_then(|v| v.as_object()?.get("simd")?.as_object());
    let other_mode = committed_simd.and_then(|s| s.get("active")?.as_bool()) == Some(!simd_active);
    let committed_simd_ns = |kernel: &str| -> Option<f64> {
        committed_simd?
            .get("kernels")?
            .as_array()?
            .iter()
            .find(|k| k.as_object().and_then(|o| o.get("kernel")?.as_str()) == Some(kernel))?
            .as_object()?
            .get("dispatched_ns_per_entry")?
            .as_f64()
    };

    let mut qi = 0usize;
    let scalar_dot_ns = measure_ns(|| {
        let q = &queries[qi % QUERIES];
        qi += 1;
        let mut sum = 0.0f32;
        for r in 0..SIMD_ENTRIES {
            sum += coca_math::matrix::scalar::dot_unit(q, &flat[r * SIMD_DIM..(r + 1) * SIMD_DIM]);
        }
        sum
    });
    let mut qi = 0usize;
    let dispatched_dot_ns = measure_ns(|| {
        let q = &queries[qi % QUERIES];
        qi += 1;
        let mut sum = 0.0f32;
        for r in 0..SIMD_ENTRIES {
            sum += coca_math::dot_unit(q, &flat[r * SIMD_DIM..(r + 1) * SIMD_DIM]);
        }
        sum
    });

    let mut scratch = ScoreScratch::new();
    let mut qi = 0usize;
    let scalar_score_ns = measure_ns(|| {
        let q = &queries[qi % QUERIES];
        qi += 1;
        scratch.begin(SIMD_ENTRIES);
        coca_math::matrix::scalar::score_top2(flat, SIMD_DIM, q, &classes, alpha, &mut scratch)
    });
    let mut qi = 0usize;
    let dispatched_score_ns = measure_ns(|| {
        let q = &queries[qi % QUERIES];
        qi += 1;
        scratch.begin(SIMD_ENTRIES);
        coca_math::matrix::score_top2(flat, SIMD_DIM, q, &classes, alpha, &mut scratch)
    });

    // Eq. 4 merge jobs: every row merged with weight 0.9/0.1; the fused
    // renormalize keeps the destination rows unit across iterations, so
    // repeated measurement stays numerically stable.
    let mut dst = store.as_flat().to_vec();
    let job_rows: Vec<usize> = (0..SIMD_ENTRIES).collect();
    let w_old = vec![0.9f32; SIMD_ENTRIES];
    let w_new = vec![0.1f32; SIMD_ENTRIES];
    let scalar_merge_ns = measure_ns(|| {
        coca_math::matrix::scalar::merge_weighted_rows(
            &mut dst,
            SIMD_DIM,
            &job_rows,
            src.as_flat(),
            &job_rows,
            &w_old,
            &w_new,
        )
    });
    let dispatched_merge_ns = measure_ns(|| {
        coca_math::merge_weighted_rows(
            &mut dst,
            SIMD_DIM,
            &job_rows,
            src.as_flat(),
            &job_rows,
            &w_old,
            &w_new,
        )
    });

    let kernel_rows = [
        ("dot_unit", scalar_dot_ns, dispatched_dot_ns),
        ("score_top2", scalar_score_ns, dispatched_score_ns),
        ("merge_weighted_rows", scalar_merge_ns, dispatched_merge_ns),
    ];
    let mut kernels_json = Vec::new();
    let mut speedup_product = 1.0f64;
    for (kernel, scalar_ns, dispatched_ns) in kernel_rows {
        let scalar_pe = scalar_ns / SIMD_ENTRIES as f64;
        let dispatched_pe = dispatched_ns / SIMD_ENTRIES as f64;
        let speedup = scalar_pe / dispatched_pe.max(1e-9);
        speedup_product *= speedup;
        println!(
            "bench simd {kernel:<20} d={SIMD_DIM} scalar {scalar_pe:>6.2} ns/entry  \
             dispatched {dispatched_pe:>6.2} ns/entry  ({speedup:.2}x, simd {})",
            if simd_active { "on" } else { "off" }
        );
        let label = format!("simd_{kernel}_d{SIMD_DIM}");
        if other_mode {
            println!("gate  {label:<40} skipped (committed in the other dispatch mode)");
        } else {
            enforce_no_regression(
                &label,
                dispatched_pe,
                committed_simd_ns(kernel),
                &format!("simd.kernels[{kernel}].dispatched_ns_per_entry"),
            );
        }
        kernels_json.push(format!(
            "      {{\"kernel\": \"{kernel}\", \"scalar_ns_per_entry\": {scalar_pe:.2}, \
             \"dispatched_ns_per_entry\": {dispatched_pe:.2}, \"speedup\": {speedup:.2}}}"
        ));
    }
    let simd_kernel_speedup = speedup_product.powf(1.0 / kernel_rows.len() as f64);
    println!(
        "gate  simd_kernel_speedup (geomean over {} kernels, d={SIMD_DIM}): \
         {simd_kernel_speedup:.2}x (floor {SIMD_SPEEDUP_FLOOR}x when simd is active)",
        kernel_rows.len()
    );
    /// Enforcement floor for the AVX2-over-scalar geomean. The committed
    /// baseline shows ≥2×; the guard band absorbs scalar-side noise on
    /// shared runners.
    const SIMD_SPEEDUP_FLOOR: f64 = 1.5;
    if simd_active && simd_kernel_speedup < SIMD_SPEEDUP_FLOOR {
        fail(format!(
            "simd_kernel_speedup {simd_kernel_speedup:.2}x at d={SIMD_DIM} is below the \
             {SIMD_SPEEDUP_FLOOR}x enforcement floor with AVX2 dispatch active \
             (the committed baseline shows >=2x)"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"lookup_kernels\",\n  \"description\": \"per-entry Eq. 1/2 scoring \
         cost of the fused score_top2 over a contiguous VectorStore with reusable scratch; the \
         simd block compares the canonical scalar kernels against the runtime-dispatched AVX2 \
         bodies\",\n  \
         \"unit\": \"ns_per_entry\",\n  \"points\": [\n{}\n  ],\n  \
         \"simd\": {{\n    \"active\": {simd_active},\n    \"dim\": {SIMD_DIM},\n    \
         \"entries\": {SIMD_ENTRIES},\n    \"simd_kernel_speedup\": {simd_kernel_speedup:.2},\n    \
         \"note\": \"single-core container; the scalar column is the canonical 8-lane kernel, \
         auto-vectorized by LLVM to SSE, so active speedups are AVX2-over-SSE\",\n    \
         \"kernels\": [\n{}\n    ]\n  }},\n  \
         \"regenerate\": \"cargo bench -p coca-bench\"\n}}\n",
        points_json.join(",\n"),
        kernels_json.join(",\n")
    );
    match std::fs::write(baseline_path("BENCH_lookup.json"), json) {
        Ok(()) => println!(
            "[baseline written to {}]",
            baseline_path("BENCH_lookup.json").display()
        ),
        Err(e) => eprintln!("warning: could not write baseline: {e}"),
    }
}

/// Per-cell cost of the columnar server core (per-layer `VectorStore` +
/// occupancy bitmap, the whole-round batched merge production runs, gather
/// extract) across a classes × layers × fleet-size grid at a fixed entry
/// dimension. Refreshes `BENCH_server.json`, gates the grid-mean batched
/// merge and extract costs against their committed values and the
/// fleet-scale batched merge against an absolute budget.
fn bench_server_tables() {
    use coca_core::collect::UpdateTable;
    use coca_core::{GlobalCacheTable, MergeScratch};

    const DIM: usize = 256;
    let committed = read_baseline("BENCH_server.json");
    let committed_summary = |key: &str| -> Option<f64> {
        committed
            .as_ref()?
            .as_object()?
            .get("summary")?
            .as_object()?
            .get(key)?
            .as_f64()
    };

    let mut points_json = Vec::new();
    let mut batched_merge_all = Vec::new();
    let mut fused_extract_all = Vec::new();
    let mut batched_merge_at_scale = Vec::new();
    // 200 classes × deep layer stacks (34 = ResNet101's preset cache
    // points) is the fleet-scale regime the columnar layout targets: the
    // table outgrows cache, while the per-layer batched pass keeps one
    // layer's store hot.
    for &classes in &[20usize, 50, 200] {
        for &layers in &[4usize, 12, 34] {
            for &fleet in &[8usize, 32] {
                let mut rng = SeedTree::new(9006)
                    .child_idx("server", (classes * 10_000 + layers * 100 + fleet) as u64)
                    .rng();
                // A fully seeded table (the post-seeding steady state
                // every round works against).
                let mut columnar = GlobalCacheTable::new(classes, layers);
                for c in 0..classes {
                    for l in 0..layers {
                        columnar.set(c, l, random_unit(&mut rng, DIM));
                    }
                }
                columnar.seed_frequency(&vec![6; classes]);

                // One round of uploads: every client touches every layer
                // on ~40 % of the classes.
                let uploads: Vec<(UpdateTable, Vec<u64>)> = (0..fleet)
                    .map(|k| {
                        let mut u = UpdateTable::new();
                        for c in 0..classes {
                            if (c + k) % 5 < 2 {
                                for l in 0..layers {
                                    let v = random_unit(&mut rng, DIM);
                                    u.absorb(c, l, &v, 0.95);
                                }
                            }
                        }
                        let phi: Vec<u64> = (0..classes).map(|_| rng.gen_range(1u64..50)).collect();
                        (u, phi)
                    })
                    .collect();
                let merge_cells: usize = uploads.iter().map(|(u, _)| u.len()).sum();

                // Steady-state merge cost: the round's uploads folded into
                // the live table in one batched pass, repeatedly (Φ grows,
                // per-cell work is constant).
                let mut scratch = MergeScratch::new();
                let batch: Vec<(&UpdateTable, &[u64])> =
                    uploads.iter().map(|(u, phi)| (u, phi.as_slice())).collect();
                let batched_merge_ns = measure_ns_min3(|| {
                    columnar.merge_batch(&batch, 0.99, &mut scratch);
                }) / merge_cells as f64;

                // Extraction: one ACA-shaped personalized sub-table per
                // fleet member — half the classes (the hot set) at a
                // spread of the layers, the allocation-phase read path.
                let sel_layers: Vec<usize> = (0..layers).step_by(3).collect();
                let sel_classes: Vec<usize> = (0..classes).step_by(2).collect();
                let extract_cells = (sel_classes.len() * sel_layers.len() * fleet) as f64;
                let fused_extract_ns = measure_ns_min3(|| {
                    for _ in 0..fleet {
                        black_box(columnar.extract(&sel_layers, &sel_classes));
                    }
                }) / extract_cells;

                batched_merge_all.push(batched_merge_ns);
                fused_extract_all.push(fused_extract_ns);
                // Fleet-scale subset: the table no longer fits in cache
                // (≥ 2 MB of entries), the regime the batched per-layer
                // pass exists for.
                if classes * layers * DIM * 4 >= 2 << 20 {
                    batched_merge_at_scale.push(batched_merge_ns);
                }
                println!(
                    "bench server c={classes:<3} l={layers:<3} fleet={fleet:<4} \
                     batched merge {batched_merge_ns:>6.1} ns/cell  \
                     extract {fused_extract_ns:>5.1} ns/cell"
                );
                points_json.push(format!(
                    "    {{\"classes\": {classes}, \"layers\": {layers}, \"fleet\": {fleet}, \
                     \"batched_merge_ns_per_cell\": {batched_merge_ns:.2}, \
                     \"fused_extract_ns_per_cell\": {fused_extract_ns:.2}}}"
                ));
            }
        }
    }

    // Grid-level gates: individual points are allocator-noise sensitive
    // in quick mode, so every gate acts on a grid aggregate (arithmetic
    // mean over the grid, geometric mean over the fleet-scale subset).
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let geomean = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    let mean_merge = mean(&batched_merge_all);
    let mean_extract = mean(&fused_extract_all);
    let batched_at_scale = geomean(&batched_merge_at_scale);
    enforce_no_regression(
        "server_merge_grid_mean",
        mean_merge,
        committed_summary("mean_batched_merge_ns_per_cell"),
        "summary.mean_batched_merge_ns_per_cell",
    );
    enforce_no_regression(
        "server_extract_grid_mean",
        mean_extract,
        committed_summary("mean_fused_extract_ns_per_cell"),
        "summary.mean_fused_extract_ns_per_cell",
    );
    // The fleet-scale hot path: the whole-round batched per-layer merge
    // (the production form at fleet scale, bit-identical to the
    // sequential order) on the four grid points whose table outgrows
    // cache. Budget: under twice the committed 123.98 ns/cell, and under
    // the ~340 ns/cell of a boxed-row, hash-ordered per-upload merge.
    enforce_budget(
        "fleet_scale_batched_merge_ns_per_cell",
        batched_at_scale,
        210.0,
    );

    // -- durability: snapshot + WAL throughput -----------------------------
    // Priced on a mid-grid state (50 classes × 12 layers × dim 256, a
    // 32-client registry, an 8-upload pending queue): frame encode of the
    // full checksummed snapshot, decode+validate of the same bytes, WAL
    // record append through a Durability over MemStorage, the replay
    // decode (recovery's FrameScanner, one frame at a time into a reused
    // buffer: frame scan + CRC + payload→record), and the snapshot
    // table's digest (what `cocad` computes at genesis and on every
    // `Digest` message). These price the recovery subsystem's hot paths;
    // `tests/proptest_recovery.rs` pins their semantics.
    let (snapshot_bytes, snap_encode_ns, snap_decode_ns, wal_append_ns, wal_replay_ns, digest_ns) = {
        use coca_core::persist::{Durability, FrameScanner, MemStorage, Snapshot, WalRecord};
        use coca_core::proto::UpdateUpload;
        use coca_core::ClientStatus;
        use coca_model::ModelId;

        const P_CLASSES: usize = 50;
        const P_LAYERS: usize = 12;
        let mut rng = SeedTree::new(9007).child("persist").rng();
        let mut global = coca_core::GlobalCacheTable::new(P_CLASSES, P_LAYERS);
        for c in 0..P_CLASSES {
            for l in 0..P_LAYERS {
                global.set(c, l, random_unit(&mut rng, DIM));
            }
        }
        global.seed_frequency(&vec![6; P_CLASSES]);
        let clients: Vec<(u64, ClientStatus)> = (0..32u64)
            .map(|id| {
                let mut st = ClientStatus::new(P_CLASSES);
                let tau: Vec<u32> = (0..P_CLASSES).map(|_| rng.gen_range(0..500)).collect();
                let phi: Vec<u64> = (0..P_CLASSES).map(|_| rng.gen_range(0..80)).collect();
                st.record_timestamps(&tau);
                st.record_frequency(&phi);
                (id, st)
            })
            .collect();
        let mk_upload = |rng: &mut rand::rngs::SmallRng, id: u64| {
            let mut table = UpdateTable::new();
            for c in 0..P_CLASSES {
                if (c as u64 + id) % 5 < 2 {
                    for l in 0..P_LAYERS {
                        let v = random_unit(rng, DIM);
                        table.absorb(c, l, &v, 0.95);
                    }
                }
            }
            UpdateUpload {
                client_id: id,
                round: 0,
                table,
                frequency: (0..P_CLASSES).map(|_| rng.gen_range(1u64..50)).collect(),
                precision: coca_math::Precision::F32,
            }
        };
        let pending: Vec<UpdateUpload> = (0..8).map(|id| mk_upload(&mut rng, id)).collect();
        let snapshot = Snapshot {
            config: CocaConfig::for_model(ModelId::ResNet101),
            global,
            clients,
            pending,
            static_alloc: None,
        };

        let bytes = snapshot.to_bytes();
        let encode_ns = measure_ns_min3(|| black_box(snapshot.to_bytes()));
        let decode_ns = measure_ns_min3(|| black_box(Snapshot::from_bytes(&bytes).unwrap()));
        let digest_ns = measure_ns_min3(|| black_box(snapshot.global.digest()));

        let records: Vec<WalRecord> = (0..64u64)
            .map(|id| WalRecord::Upload(mk_upload(&mut rng, id)))
            .collect();
        let append_ns = measure_ns_min3(|| {
            let mut d = Durability::new(Box::new(MemStorage::new()), usize::MAX);
            for r in &records {
                d.append_frame(&r.to_frame());
            }
            black_box(d.events_logged())
        }) / records.len() as f64;
        let mut segment = Vec::new();
        for r in &records {
            segment.extend_from_slice(&r.to_frame());
        }
        let mut payload = Vec::new();
        let replay_ns = measure_ns_min3(|| {
            let mut scan = FrameScanner::new(segment.as_slice(), true);
            while scan.next_frame(&mut payload).unwrap() {
                black_box(WalRecord::from_payload(&payload).unwrap());
            }
        }) / records.len() as f64;
        (
            bytes.len(),
            encode_ns,
            decode_ns,
            append_ns,
            replay_ns,
            digest_ns,
        )
    };
    println!(
        "bench persist snapshot {snapshot_bytes} B: encode {:.2} ms ({:.0} MB/s), \
         decode+validate {:.2} ms; WAL append {:.1} us/record, replay decode {:.1} us/record; \
         table digest {:.2} ms",
        snap_encode_ns / 1e6,
        snapshot_bytes as f64 / (snap_encode_ns / 1e9) / 1e6,
        snap_decode_ns / 1e6,
        wal_append_ns / 1e3,
        wal_replay_ns / 1e3,
        digest_ns / 1e6,
    );
    // Absolute budgets, not ratios to the last committed run: at most
    // twice the committed numbers, so a slow runner passes and a return to
    // text payloads (15.6 ms append, 11.4 ms replay, 163 ms encode, 803 ms
    // decode on this state) or to a table-driven CRC (192 us append,
    // 146 us replay, 2.0 ms encode, 1.8 ms decode) cannot. The CRC pass
    // over the 245 KB record / 2.6 MB snapshot now folds with carry-less
    // multiplies at ~20 GB/s, so the first four are mostly the codec and
    // its copies; the digest is byte-wise FNV-1a over the table's 615 KB
    // `Wire` encoding (it hashed the JSON text at ~49 ms).
    enforce_budget("persist_snapshot_encode_ns", snap_encode_ns, 950_000.0);
    enforce_budget("persist_snapshot_decode_ns", snap_decode_ns, 1_400_000.0);
    enforce_budget("persist_wal_append_ns_per_record", wal_append_ns, 80_000.0);
    enforce_budget("persist_wal_replay_ns_per_record", wal_replay_ns, 70_000.0);
    enforce_budget("persist_table_digest_ns", digest_ns, 2_000_000.0);

    let json = format!(
        "{{\n  \"bench\": \"server_tables\",\n  \"description\": \"per-cell global-table cost \
         of the columnar per-layer VectorStore + occupancy bitmap: whole-round batched \
         merge, gather extract; dim 256, one round of uploads per fleet, \
         ACA-shaped sub-table extraction\",\n  \
         \"unit\": \"ns_per_cell\",\n  \"dim\": {DIM},\n  \"summary\": {{\n    \
         \"mean_batched_merge_ns_per_cell\": {mean_merge:.2},\n    \
         \"mean_fused_extract_ns_per_cell\": {mean_extract:.2},\n    \
         \"fleet_scale_batched_merge_ns_per_cell\": {batched_at_scale:.2},\n    \
         \"persist_snapshot_bytes\": {snapshot_bytes},\n    \
         \"persist_snapshot_encode_ns\": {snap_encode_ns:.0},\n    \
         \"persist_snapshot_decode_ns\": {snap_decode_ns:.0},\n    \
         \"persist_wal_append_ns_per_record\": {wal_append_ns:.0},\n    \
         \"persist_wal_replay_ns_per_record\": {wal_replay_ns:.0},\n    \
         \"persist_table_digest_ns\": {digest_ns:.0}\n  }},\n  \
         \"points\": [\n{}\n  ],\n  \
         \"regenerate\": \"cargo bench -p coca-bench\"\n}}\n",
        points_json.join(",\n")
    );
    match std::fs::write(baseline_path("BENCH_server.json"), json) {
        Ok(()) => println!(
            "[baseline written to {}]",
            baseline_path("BENCH_server.json").display()
        ),
        Err(e) => eprintln!("warning: could not write baseline: {e}"),
    }
}

/// End-to-end CoCa client frame processing (feature synthesis, lookup,
/// status, collection): ns per frame over a fixed window of 256 stream
/// frames, replayed so every burst prices the same hit/miss mix.
fn client_frame_ns() -> f64 {
    const FRAMES: usize = 256;
    let scenario = scenario();
    let rt = &scenario.rt;
    let cfg = CocaConfig::for_model(ModelId::ResNet101);
    let server = CocaServer::new(rt, cfg, scenario.seeds());
    let mut client = coca_core::CocaClient::new(
        0,
        cfg,
        rt,
        scenario.profiles[0].clone(),
        server.base_hit_profile().to_vec(),
    );
    let layers: Vec<usize> = vec![2, 6, 12, 20];
    let classes: Vec<usize> = (0..50).collect();
    client.install_cache(server.cache_for(&layers, &classes));
    let mut stream = scenario.stream(0);
    let frames: Vec<Frame> = (0..FRAMES).map(|_| stream.next_frame()).collect();
    let mut scratch = LookupScratch::new();
    let ns = measure_ns_min3(|| {
        for f in &frames {
            black_box(client.process_frame(rt, f, &mut scratch));
        }
    }) / FRAMES as f64;
    println!(
        "bench {:<40} {ns:>10.1} ns/frame",
        "client_frame_end_to_end"
    );
    ns
}

/// ns per coordinate of `fill_random_unit` at d = 128 (min of 3 bursts).
fn random_unit_ns_per_coord() -> f64 {
    const DIM: usize = 128;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(128);
    let mut v = vec![0.0f32; DIM];
    let ns = measure_ns_min3(|| {
        fill_random_unit(&mut rng, &mut v);
        v[0]
    }) / DIM as f64;
    println!(
        "bench {:<40} {ns:>10.2} ns/coordinate",
        "random_unit_per_coord"
    );
    ns
}

/// A fully degenerate method: constant compute, no server traffic. What
/// remains when it runs through `drive()` is pure engine overhead —
/// stream generation, digest folding, event scheduling, recorders.
struct NullDriver;

impl MethodDriver for NullDriver {
    type Request = NoMsg;
    type Alloc = NoMsg;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = NoMsg;

    fn name(&self) -> &str {
        "Null"
    }

    fn process_frame(&mut self, _k: usize, _frame: &Frame) -> FrameStep<NoMsg> {
        FrameStep::Done(FrameOutcome {
            compute: SimDuration::from_micros(10),
            correct: true,
            hit_point: None,
        })
    }
}

fn bench_engine_overhead() {
    let mut sc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(20));
    sc.seed = 9004;
    sc.num_clients = 4;
    let scenario = Scenario::build(sc);
    let cfg = DriveConfig::new(2, 250); // 4 × 2 × 250 = 2000 frames per run
    let frames: u64 = 4 * 2 * 250;
    let clients = 4usize;
    let per_client = 2 * 250usize;

    // The drive's cost per frame, split into the engine's three per-frame
    // components so a future regression localizes immediately:
    //
    // * stream-gen — producing the same frames the drive consumes,
    // * digest    — folding every (client, frame) into the fairness digest,
    // * scheduling — everything else `drive()` does (events, recorders),
    //   obtained by subtraction from the total.
    let warmup = drive(&scenario, &mut NullDriver, &cfg);
    assert_eq!(warmup.frames, frames);
    let per_frame_ns = measure_ns(|| drive(&scenario, &mut NullDriver, &cfg)) / frames as f64;

    let stream_gen_ns = measure_ns(|| {
        let mut last = 0u64;
        for k in 0..clients {
            let mut s = scenario.stream(k);
            for _ in 0..per_client {
                last = s.next_frame().frame_seed;
            }
        }
        last
    }) / frames as f64;

    let pregen: Vec<(usize, Frame)> = (0..clients)
        .flat_map(|k| {
            let mut s = scenario.stream(k);
            (0..per_client)
                .map(move |_| (k, s.next_frame()))
                .collect::<Vec<_>>()
        })
        .collect();
    let digest_ns = measure_ns(|| {
        let mut d = 0u64;
        for (k, f) in &pregen {
            d ^= frame_digest(*k, f);
        }
        d
    }) / frames as f64;

    let scheduling_ns = (per_frame_ns - stream_gen_ns - digest_ns).max(0.0);
    println!(
        "bench {:<40} {per_frame_ns:>10.1} ns/frame (engine overhead: \
         stream-gen {stream_gen_ns:.1} + digest {digest_ns:.1} + scheduling {scheduling_ns:.1})",
        "engine_overhead_per_frame"
    );
    let committed = read_baseline("BENCH_engine.json");
    let committed_top = |key: &str| committed.as_ref()?.as_object()?.get(key)?.as_f64();
    enforce_no_regression(
        "engine_overhead_per_frame",
        per_frame_ns,
        committed_top("per_frame_ns"),
        "per_frame_ns",
    );

    // What a real method does per frame: the CoCa client itself, whose
    // cost is nearly all feature synthesis.
    let client_frame_ns = client_frame_ns();
    enforce_no_regression(
        "client_frame_end_to_end",
        client_frame_ns,
        committed_top("client_frame_ns"),
        "client_frame_ns",
    );

    // Feature synthesis alone, per Gaussian coordinate: `client_frame_ns`
    // prices a cache that hits mostly at shallow layers and barely sees
    // it, so a lost four-lane dispatch would show only here. d = 128 is
    // the dim of 23 of ResNet101's 34 cache points.
    let random_unit_ns_per_coord = random_unit_ns_per_coord();
    enforce_no_regression(
        "random_unit_per_coord",
        random_unit_ns_per_coord,
        committed_top("random_unit_ns_per_coord"),
        "random_unit_ns_per_coord",
    );

    // Fleet-scale: the full protocol cadence (request → deliver → frames
    // → upload) at 2000 members through `drive_plan` with one
    // fleet-aggregate summary (`per_client: false`).
    // This is the timer wheel's load profile — thousands of pending boot
    // and delivery events — where a heap scheduler's log(n) pops show up.
    let fleet_clients = 2000usize;
    let fleet_rounds = 2usize;
    let fleet_frames = 10usize;
    let mut fsc = ScenarioConfig::new(ModelId::ResNet101, DatasetSpec::ucf101().subset(10));
    fsc.seed = 9005;
    fsc.num_clients = fleet_clients;
    let fleet_scenario = Scenario::build(fsc);
    let mut fleet_plan =
        DrivePlan::from_config(&DriveConfig::new(fleet_rounds, fleet_frames), fleet_clients);
    fleet_plan.per_client = false;
    let fleet_events = (fleet_clients * fleet_rounds * (fleet_frames + 3)) as u64;
    let mut warm_driver = FleetNullDriver::default();
    let warm = drive_plan(&fleet_scenario, &mut warm_driver, &fleet_plan);
    assert_eq!(
        warm.frames,
        (fleet_clients * fleet_rounds * fleet_frames) as u64
    );
    assert_eq!(warm_driver.events(warm.frames), fleet_events);
    let fleet_per_event_ns = measure_ns_min3(|| {
        drive_plan(
            &fleet_scenario,
            &mut FleetNullDriver::default(),
            &fleet_plan,
        )
        .frames
    }) / fleet_events as f64;
    println!(
        "bench {:<40} {fleet_per_event_ns:>10.1} ns/event ({fleet_clients} members, \
         {fleet_events} events per run)",
        "engine_fleet_per_event"
    );
    let committed_fleet = committed.as_ref().and_then(|v| {
        v.as_object()?
            .get("fleet")?
            .as_object()?
            .get("per_event_ns")?
            .as_f64()
    });
    enforce_no_regression(
        "engine_fleet_per_event",
        fleet_per_event_ns,
        committed_fleet,
        "fleet.per_event_ns",
    );

    // Refresh the committed baseline at the repo root.
    let json = format!(
        "{{\n  \"bench\": \"engine_drive_null\",\n  \"description\": \"drive() event-loop \
         overhead per frame with a degenerate driver, split into stream generation, digest \
         folding and scheduling (events + recorders, by subtraction); the fleet section is \
         the same degenerate protocol at 2000 members through drive_plan with fleet \
         metrics (one aggregate summary), in ns per event (frames + scheduled \
         request/deliver/upload events); client_frame_ns is one real CocaClient::process_frame \
         (ResNet101/UCF101-50, 4 cached layers), nearly all of it feature synthesis; \
         random_unit_ns_per_coord is fill_random_unit at d = 128 per coordinate\",\n  \
         \"clients\": 4,\n  \"rounds\": 2,\n  \"frames_per_round\": 250,\n  \
         \"per_frame_ns\": {per_frame_ns:.1},\n  \"client_frame_ns\": {client_frame_ns:.1},\n  \
         \"random_unit_ns_per_coord\": {random_unit_ns_per_coord:.1},\n  \
         \"components\": {{\n    \
         \"stream_gen_ns\": {stream_gen_ns:.1},\n    \"digest_ns\": {digest_ns:.1},\n    \
         \"scheduling_ns\": {scheduling_ns:.1}\n  }},\n  \"fleet\": {{\n    \
         \"clients\": {fleet_clients},\n    \"rounds\": {fleet_rounds},\n    \
         \"frames_per_round\": {fleet_frames},\n    \
         \"per_event_ns\": {fleet_per_event_ns:.1}\n  }},\n  \
         \"regenerate\": \"cargo bench -p coca-bench\"\n}}\n"
    );
    let path = baseline_path("BENCH_engine.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[baseline written to {}]", path.display()),
        Err(e) => eprintln!("warning: could not write baseline: {e}"),
    }
}

fn main() {
    bench_lookup_kernels();
    bench_server_tables();
    bench_engine_overhead();
    let failures = FAILURES.lock().unwrap();
    if !failures.is_empty() {
        eprintln!(
            "{} gate(s) failed — investigate or regenerate with `cargo bench -p coca-bench`:",
            failures.len()
        );
        for f in failures.iter() {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
