//! Machine-readable perf baseline: the tenth point of the repo's recorded
//! performance trajectory (`BENCH_PR2.json` → … → `BENCH_PR10.json`).
//!
//! Runs the six-pass estimator over a preferential-attachment snapshot —
//! a standalone single copy plus, at four copies, the engine's **fused**
//! sweep execution (one sweep per pass stage feeding every copy, with
//! cohort-level union probes) against the **copy-parallel standalone
//! reference** at the same worker count
//! (`degentri_engine::parallel_estimate_triangles_with`: one standalone
//! copy per pool task, each streaming the snapshot once per pass),
//! raced in interleaved rounds. A matching turnstile section measures the
//! dynamic estimator standalone, through `Engine::run_dynamic`, and as
//! its copy-parallel reference (`run_indexed_pool` over
//! `run_dynamic_copy_with`, then `aggregate_dynamic_copies`), at four
//! copies. Counter-mode parity sweeps (shards 1..=8 × workers {1, 2, 4})
//! and fused-vs-reference bit-identity are asserted on every run. The
//! JSON keeps its earlier key names: `engine_per_copy` and the mixed
//! batch's `unfused` cell are the reference side.
//!
//! The PR 6 **observability** section carries forward: the same fused
//! engine run with `EngineConfig::recording` on vs off (best-of-3 each),
//! asserted bit-identical, with the per-pass breakdown derived from the
//! recording run's `RunReport` and the main and dynamic `RunReport`s
//! written as JSON artifacts (`RUN_REPORT_PR10_main.json` /
//! `RUN_REPORT_PR10_dynamic.json`, prefix overridable via
//! `BENCH_REPORT_PREFIX`).
//!
//! New in PR 7: a **kernel attribution** section. The recorded
//! `RunReport` tallies now carry `kernel_batches`, so the emitted JSON
//! attributes each pass's items/ns and lane utilization
//! (`kernel_batches × LANES / items` for the main folds, bank-kernel
//! share for the turnstile folds). The lane-batched kernels are also
//! raced directly against their scalar references (`fold_cohort` vs
//! `fold_cohort_scalar`, the dynamic `fold` vs `fold_scalar`) on
//! identical inputs, and an asm smoke check disassembles the release
//! binary (when `objdump` is available) to confirm the kernels actually
//! autovectorized into packed-SIMD instructions.
//!
//! New in PR 8: a **fault-injection overhead** section. The engine now
//! carries per-job failure containment and a deterministic injection
//! harness (`degentri_core::faults`) that must be free when its
//! `fault-inject` feature is off — every probe compiles to an inlined
//! no-op. The emitted JSON records whether the harness was compiled in
//! and the fused path's ratio against the previous baseline's fused cell;
//! in the default (faults-disabled) build that ratio is gated at ≥ 0.99×.
//!
//! A **fusion matrix** section: every estimator job kind runs as its own
//! cohort, so three cells are measured: the ideal (3-pass oracle)
//! estimator fused vs its copy-parallel reference at scale
//! (`parallel_estimate_triangles_with_oracle_and`, with
//! `StreamStats::compute` inside the timed region as in the engine), the
//! dynamic cohort — whose shared probe passes walk one k-way-merged
//! **union key table** — against the previous baseline's fused-dynamic
//! cell, and a mixed main+ideal+dynamic batch on one snapshot whose
//! measured sweep count (6 + 3 + 4 + 1 = 14 at four copies) must land
//! strictly below the per-copy sum (53). Kernel attribution gains the
//! ideal passes via a recorded three-pass cohort run.
//!
//! New in PR 10: a **recovery** section. Jobs can now carry a
//! [`RetryPolicy`] and a [`QuorumPolicy`] (deterministic copy-level
//! retries with backoff, graceful degradation to the surviving-copy
//! aggregate). Idle policies must be pure metadata: the fused engine
//! cell is re-raced with both policies attached but never exercised
//! (nothing fires on a clean run), asserted bit-identical to the
//! retries-disabled default with every recovery counter at zero, and
//! its throughput ratio recorded and gated.
//!
//! If the previous baseline (`BENCH_PR9.json` by default) is readable, the
//! run prints per-pass deltas and computes the fused path's speedup over
//! the **previous engine path** (its recorded `engine_fused` /
//! `engine_copy_only` cells). With `BENCH_FAIL_ON_REGRESSION=1`
//! (set by the CI bench-smoke job) the process exits non-zero when
//!
//! * single-copy throughput regresses more than 25% below the baseline,
//! * the fused multi-copy path drops below 0.9× its copy-parallel
//!   reference (best-of on both sides; the 10% band absorbs scheduler
//!   noise on shared CI hardware),
//! * the fused dynamic engine path falls below 0.9× the standalone
//!   dynamic run (re-raced before failing),
//! * a lane-batched kernel falls below 1.0× its scalar reference
//!   (best-of-3 on both sides — the batched path must never lose), or
//! * the faults-disabled fused path falls below 0.99× the previous
//!   baseline's fused cell (containment plumbing must cost ≤ 1%), or
//! * the fused ideal path falls below 0.9× its copy-parallel reference at
//!   scale (best-of re-raced before failing), or
//! * the union-probe dynamic fused path falls below the previous
//!   baseline's fused-dynamic cell (re-raced before failing), or
//! * the mixed-kind batch's measured sweep count is not strictly below
//!   the per-copy sum, or
//! * the retry-configured-but-clean fused cell falls below 0.95× the
//!   retries-disabled default (idle recovery policies must be pure
//!   metadata; bit-identity is asserted unconditionally at measurement
//!   time).
//!
//! The recording-on vs recording-off throughput ratio is recorded in the
//! JSON (`observability.recorded_vs_silent`) but not gated.
//!
//!   cargo run --release -p degentri-bench --bin perf
//!   SCALE=4 WORKERS=8 BATCH=8192 cargo run --release -p degentri-bench --bin perf
//!   BENCH_OUT=/tmp/bench.json BENCH_BASELINE=BENCH_PR9.json cargo run --release -p degentri-bench --bin perf

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use degentri_bench::common;
use degentri_core::estimator::MainOutcome;
use degentri_core::lanes::LANES;
use degentri_core::{
    main_copy_seed, EstimatorConfig, MainCohortScratch, MainCopyStages, MainEstimator, MainStageAcc,
};
use degentri_dynamic::{
    aggregate_dynamic_copies, dynamic_copy_seed, run_dynamic_copy_with, DynamicCopyStages,
    DynamicEstimatorConfig, DynamicOutcome, DynamicTriangleEstimator,
};
use degentri_engine::{
    parallel_estimate_triangles_with, parallel_estimate_triangles_with_oracle_and, Engine,
    EngineConfig, EngineReport, EngineStats, JobSpec, QuorumPolicy, RetryPolicy,
};
use degentri_graph::triangles::count_triangles;
use degentri_stream::{
    run_indexed_pool, DynamicEdgeStream, DynamicMemoryStream, EdgeStream, MemoryStream,
    ShardedDynamicStream, ShardedStream, StreamOrder, StreamStats, DEFAULT_BATCH_SIZE,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to the system allocator; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const PASS_NAMES: [&str; 6] = [
    "p1_uniform_sample",
    "p2_degrees",
    "p3_neighbor_sample",
    "p4_closure",
    "p5_assignment_gather",
    "p6_assignment_closure",
];

/// One side of an engine race: every job's copy estimates (the two sides
/// must agree bit for bit), the physical sweeps the side cost, and the
/// engine's statistics when the side was the engine.
struct Side {
    copy_estimates: Vec<Vec<f64>>,
    sweeps: u64,
    stats: Option<EngineStats>,
}

impl Side {
    fn engine(report: &EngineReport) -> Self {
        Side {
            copy_estimates: report
                .jobs
                .iter()
                .map(|job| job.estimation().copy_estimates.clone())
                .collect(),
            sweeps: report.stats.sweeps_executed,
            stats: Some(report.stats),
        }
    }

    /// A copy-parallel standalone reference: every copy streams the
    /// snapshot once per pass, `sweeps` in total.
    fn reference(copy_estimates: Vec<Vec<f64>>, sweeps: u64) -> Self {
        Side {
            copy_estimates,
            sweeps,
            stats: None,
        }
    }

    fn fused_cohorts(&self) -> usize {
        self.stats.map_or(0, |stats| stats.fused_cohorts)
    }
}

/// One engine measurement: best-of-3 wall seconds plus the first report.
struct EngineCell {
    wall_seconds: f64,
    /// Logical copy-items per second (copies × passes × items / wall) —
    /// the job-level throughput comparable across scheduling strategies.
    logical_items_per_second: f64,
    /// Physical snapshot items per second (sweeps × items / wall).
    snapshot_items_per_second: f64,
    sweeps: u64,
    fused_cohorts: usize,
}

fn best_of<T>(reps: usize, mut run: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..reps {
        let (out, wall) = run();
        if best.as_ref().is_none_or(|&(_, b)| wall < b) {
            best = Some((out, wall));
        }
    }
    best.expect("at least one repetition")
}

/// Interleaved two-sided race: alternates `run(true)` / `run(false)`
/// within every round so a machine-drift window lands on both sides
/// equally, and keeps the best wall (with its output) per side. The
/// back-to-back `best_of` blocks this replaces let a multi-second slow
/// window poison exactly one side of a ratio gate.
fn race_pair<T>(reps: usize, mut run: impl FnMut(bool) -> (T, f64)) -> ((T, f64), (T, f64)) {
    let mut best: [Option<(T, f64)>; 2] = [None, None];
    for _ in 0..reps {
        for (side, arg) in [true, false].into_iter().enumerate() {
            let (out, wall) = run(arg);
            if best[side].as_ref().is_none_or(|&(_, b)| wall < b) {
                best[side] = Some((out, wall));
            }
        }
    }
    let [on, off] = best;
    (
        on.expect("at least one repetition"),
        off.expect("at least one repetition"),
    )
}

/// Everything measured for the main estimator's single-copy and engine
/// cells.
struct ModeReport {
    label: &'static str,
    wall_seconds: f64,
    edges_per_second: f64,
    outcome: MainOutcome,
    cold_allocs: u64,
    warm_allocs: u64,
    engine_fused: EngineCell,
    engine_per_copy: EngineCell,
}

/// Narrows `text` to everything after the first occurrence of `anchor` —
/// chained calls walk a nested hand-rolled JSON document without a JSON
/// dependency.
fn section_after<'a>(text: &'a str, anchor: &str) -> Option<&'a str> {
    text.find(anchor).map(|at| &text[at + anchor.len()..])
}

/// Parses the first `"field": <number>` in `text`.
fn number_after(text: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = section_after(text, &key)?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The counter-regime single-copy section of a baseline file (every
/// schema generation that records a counter regime).
fn baseline_single_copy(text: &str) -> Option<&str> {
    section_after(text, "\"counter_rng\"").and_then(|t| section_after(t, "\"single_copy\""))
}

/// The multi-copy engine cell of the counter regime in a baseline file:
/// `engine_fused` (PR5+) or `engine_copy_only` (PR4 and earlier).
fn baseline_counter_engine(text: &str) -> Option<f64> {
    let counter = section_after(text, "\"counter_rng\"")?;
    section_after(counter, "\"engine_fused\"")
        .or_else(|| section_after(counter, "\"engine_copy_only\""))
        .and_then(|t| number_after(t, "edges_per_second"))
}

/// The dynamic engine cell of a baseline file: `counter_engine_fused`
/// (PR5+) or `counter_engine_sharded` (PR4).
fn baseline_dynamic_engine(text: &str) -> Option<f64> {
    let dynamic = section_after(text, "\"dynamic\"")?;
    section_after(dynamic, "\"counter_engine_fused\"")
        .or_else(|| section_after(dynamic, "\"counter_engine_sharded\""))
        .and_then(|t| number_after(t, "updates_per_second"))
}

fn main() {
    let scale: usize = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1);
    let seed: u64 = std::env::var("SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    let baseline_path =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "BENCH_PR9.json".to_string());
    let report_prefix =
        std::env::var("BENCH_REPORT_PREFIX").unwrap_or_else(|_| "RUN_REPORT_PR10".to_string());
    let fail_on_regression = std::env::var("BENCH_FAIL_ON_REGRESSION")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);

    let n = 4_000 * scale;
    let graph = degentri_gen::barabasi_albert(n, 8, 1).expect("valid BA parameters");
    let exact = count_triangles(&graph);
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
    let m = EdgeStream::num_edges(&stream);

    let workers = common::engine_workers();
    let batch = common::engine_batch_size();
    let copies = 4usize;
    let config_for = || {
        EstimatorConfig::builder()
            .epsilon(0.1)
            .kappa(8)
            .triangle_lower_bound((exact / 2).max(1))
            .r_constant(20.0)
            .inner_constant(40.0)
            .assignment_constant(10.0)
            .copies(copies)
            .seed(seed)
            .try_build()
            .expect("bench configuration is valid")
    };

    eprintln!("perf: barabasi_albert(n = {n}, k = 8) — m = {m}, T = {exact}");
    eprintln!("perf: workers = {workers}, batch = {batch}, copies = {copies}");

    let copy_edges = 6_u64 * m as u64;
    let logical_edges = (copies as u64) * copy_edges;
    let engine_config = EngineConfig::builder()
        .workers(workers)
        .batch_size(batch)
        .try_build()
        .expect("engine configuration is valid");
    // One side of a six-pass race: the fused engine (`engine = true`) or
    // the copy-parallel standalone reference at the same worker count.
    let run_main_once = |engine: bool, stream: &MemoryStream, config: &EstimatorConfig| {
        if engine {
            let mut engine = Engine::new(engine_config);
            engine.submit(JobSpec::main("six-pass", config.clone()));
            let started = Instant::now();
            let report = engine.run(stream).expect("engine run succeeds");
            (Side::engine(&report), started.elapsed().as_secs_f64())
        } else {
            let started = Instant::now();
            let out = parallel_estimate_triangles_with(stream, config, &engine_config)
                .expect("reference run succeeds");
            let wall = started.elapsed().as_secs_f64();
            (
                Side::reference(vec![out.copy_estimates], 6 * config.copies as u64),
                wall,
            )
        }
    };
    // Races the fused engine against the reference and asserts the two
    // sides agree bit for bit.
    let race_engine = |reps: usize, run: &dyn Fn(bool) -> (Side, f64), what: &str| {
        let (fused, reference) = race_pair(reps, run);
        assert_eq!(
            fused.0.copy_estimates, reference.0.copy_estimates,
            "fused {what} execution must be bit-identical to the standalone reference"
        );
        (fused, reference)
    };
    let engine_cell = move |side: &Side, wall: f64| EngineCell {
        wall_seconds: wall,
        logical_items_per_second: logical_edges as f64 / wall.max(1e-12),
        snapshot_items_per_second: (side.sweeps * m as u64) as f64 / wall.max(1e-12),
        sweeps: side.sweeps,
        fused_cohorts: side.fused_cohorts(),
    };
    let counter_mode = {
        let label = "counter_rng";
        let config = config_for();
        let estimator = MainEstimator::new(config.clone());
        // The cold run counts setup allocations; the timed warm run
        // repeats it.
        let (cold_outcome, cold_allocs) =
            allocations_during(|| estimator.run_seeded_with(&stream, seed, batch));
        let cold_outcome = cold_outcome.expect("estimator run succeeds");
        let started = Instant::now();
        let (warm_outcome, warm_allocs) =
            allocations_during(|| estimator.run_seeded_with(&stream, seed, batch));
        let wall_seconds = started.elapsed().as_secs_f64();
        let warm_outcome = warm_outcome.expect("estimator run succeeds");
        assert_eq!(
            warm_outcome.estimate.to_bits(),
            cold_outcome.estimate.to_bits(),
            "a repeat run must not change results ({label})"
        );

        // Engine: the fused four-copy job vs its copy-parallel standalone
        // reference, raced in interleaved rounds so drift hits both sides
        // equally.
        let ((fused_side, fused_wall), (ref_side, ref_wall)) = race_engine(
            12,
            &|engine| run_main_once(engine, &stream, &config),
            "main",
        );

        ModeReport {
            label,
            wall_seconds,
            edges_per_second: copy_edges as f64 / wall_seconds.max(1e-12),
            outcome: warm_outcome,
            cold_allocs,
            warm_allocs,
            engine_fused: engine_cell(&fused_side, fused_wall),
            engine_per_copy: engine_cell(&ref_side, ref_wall),
        }
    };

    // ---- Fused-vs-reference at scale. The base graph (above) is
    // cache-resident — per-copy re-streaming costs almost nothing there, so
    // the fused-vs-reference ratio on it mostly measures scheduler noise.
    // The structural comparison (and its regression gate) runs on a 4x
    // larger snapshot, where traversal and probe working sets leave cache
    // and sweep sharing pays. ------------------------------------------
    let scale_n = 16_000 * scale;
    let scale_graph = degentri_gen::barabasi_albert(scale_n, 8, 1).expect("valid BA parameters");
    let scale_exact = count_triangles(&scale_graph);
    let scale_stream = MemoryStream::from_graph(&scale_graph, StreamOrder::UniformRandom(1));
    let scale_m = EdgeStream::num_edges(&scale_stream);
    let scale_config = EstimatorConfig::builder()
        .epsilon(0.1)
        .kappa(8)
        .triangle_lower_bound((scale_exact / 2).max(1))
        .r_constant(20.0)
        .inner_constant(40.0)
        .assignment_constant(10.0)
        .copies(copies)
        .seed(seed)
        .try_build()
        .expect("bench configuration is valid");
    let scale_logical = copies * 6 * scale_m;
    let scale_cell = |side: &Side, wall: f64, logical: usize| EngineCell {
        wall_seconds: wall,
        logical_items_per_second: logical as f64 / wall.max(1e-12),
        snapshot_items_per_second: (side.sweeps * scale_m as u64) as f64 / wall.max(1e-12),
        sweeps: side.sweeps,
        fused_cohorts: side.fused_cohorts(),
    };
    let ((scale_fused_side, scale_fused_wall), (scale_ref_side, scale_ref_wall)) = race_engine(
        8,
        &|engine| run_main_once(engine, &scale_stream, &scale_config),
        "main at scale",
    );
    let scale_fused = scale_cell(&scale_fused_side, scale_fused_wall, scale_logical);
    let scale_per_copy = scale_cell(&scale_ref_side, scale_ref_wall, scale_logical);
    eprintln!(
        "perf: at-scale (n = {scale_n}, m = {scale_m}) fused {:.0} items/s vs reference {:.0} items/s ({:.2}x)",
        scale_fused.logical_items_per_second,
        scale_per_copy.logical_items_per_second,
        scale_fused.logical_items_per_second / scale_per_copy.logical_items_per_second.max(1e-12)
    );

    // ---- Ideal fused-vs-reference at scale. Ideal copies
    // form their own cohort of 3-pass stage objects; the copy-parallel
    // reference re-streams the snapshot once per copy per pass and builds
    // its own degree table inside the timed region, as the engine does.
    // Same out-of-cache snapshot as the main comparison, same 0.9x gate
    // (re-raced below it before failing). ------------------------------
    let ideal_scale_logical = copies * 3 * scale_m;
    let run_scale_ideal_once = |engine: bool| {
        if engine {
            let mut engine = Engine::new(engine_config);
            engine.submit(JobSpec::ideal("three-pass", scale_config.clone()));
            let started = Instant::now();
            let report = engine.run(&scale_stream).expect("engine run succeeds");
            (Side::engine(&report), started.elapsed().as_secs_f64())
        } else {
            let started = Instant::now();
            let stats = StreamStats::compute(&scale_stream);
            let out = parallel_estimate_triangles_with_oracle_and(
                &scale_stream,
                &stats,
                &scale_config,
                &engine_config,
            )
            .expect("reference run succeeds");
            let wall = started.elapsed().as_secs_f64();
            (
                Side::reference(vec![out.copy_estimates], 3 * copies as u64 + 1),
                wall,
            )
        }
    };
    let ((ideal_sf_side, ideal_sf_wall), (ideal_sp_side, ideal_sp_wall)) =
        race_engine(8, &run_scale_ideal_once, "ideal");
    let mut ideal_scale_fused = scale_cell(&ideal_sf_side, ideal_sf_wall, ideal_scale_logical);
    let mut ideal_scale_per_copy = scale_cell(&ideal_sp_side, ideal_sp_wall, ideal_scale_logical);
    // 3 shared cohort passes + 1 oracle stats sweep; the reference pays
    // 3 passes per copy on top of the stats sweep.
    assert_eq!(ideal_scale_fused.sweeps, 3 + 1);
    assert_eq!(ideal_scale_fused.fused_cohorts, 1);
    assert!(ideal_scale_per_copy.sweeps > ideal_scale_fused.sweeps);
    let mut ideal_scale_ratio = ideal_scale_fused.logical_items_per_second
        / ideal_scale_per_copy.logical_items_per_second.max(1e-12);
    for _ in 0..2 {
        if ideal_scale_ratio >= 0.9 {
            break;
        }
        let ((fr, fw), (pr, pw)) = race_engine(8, &run_scale_ideal_once, "ideal");
        let f = scale_cell(&fr, fw, ideal_scale_logical);
        let p = scale_cell(&pr, pw, ideal_scale_logical);
        let retry = f.logical_items_per_second / p.logical_items_per_second.max(1e-12);
        eprintln!("perf: ideal at-scale retry — ratio {retry:.3} (was {ideal_scale_ratio:.3})");
        if retry > ideal_scale_ratio {
            ideal_scale_ratio = retry;
            ideal_scale_fused = f;
            ideal_scale_per_copy = p;
        }
    }
    eprintln!(
        "perf: ideal at-scale fused {:.0} items/s vs reference {:.0} items/s ({ideal_scale_ratio:.2}x)",
        ideal_scale_fused.logical_items_per_second,
        ideal_scale_per_copy.logical_items_per_second
    );

    // Fused-vs-reference bit-identity at the bench configuration.
    {
        let config = config_for();
        let (fused, _) = run_main_once(true, &stream, &config);
        let (reference, _) = run_main_once(false, &stream, &config);
        assert_eq!(
            fused.copy_estimates, reference.copy_estimates,
            "fused execution must be bit-identical to the standalone reference"
        );
        assert_eq!(fused.fused_cohorts(), 1);
        assert_eq!(fused.sweeps, 6);
        assert_eq!(reference.sweeps, (6 * copies) as u64);
    }

    // ---- Counter-mode parity sweep: shards 1..=8 × workers {1, 2, 4}. ----
    let counter_config = config_for();
    let counter_estimator = MainEstimator::new(counter_config.clone());
    let reference = counter_estimator
        .run_seeded(&stream, seed)
        .expect("counter reference run succeeds");
    let shard_workers_tested = [1usize, 2, 4];
    for shards in 1..=8usize {
        for &shard_workers in &shard_workers_tested {
            let view = ShardedStream::from_stream(&stream, shards);
            let out = counter_estimator
                .run_seeded_sharded(&view, seed, DEFAULT_BATCH_SIZE, shard_workers)
                .expect("sharded counter run succeeds");
            assert_eq!(
                out.estimate.to_bits(),
                reference.estimate.to_bits(),
                "counter mode must be bit-identical at shards {shards} workers {shard_workers}"
            );
            assert_eq!(out.d_r, reference.d_r);
            assert_eq!(out.assigned_hits, reference.assigned_hits);
            assert_eq!(out.space, reference.space);
            assert!(out.sharded, "all six passes must shard");
        }
    }

    // ---- Dynamic (turnstile) estimator: standalone vs the fused engine
    // vs the copy-parallel standalone reference, at four copies. -------
    let dyn_n = 1_200 * scale;
    let dyn_graph = degentri_gen::barabasi_albert(dyn_n, 6, 2).expect("valid BA parameters");
    let dyn_exact = count_triangles(&dyn_graph);
    let dyn_stream = DynamicMemoryStream::with_churn(&dyn_graph, 0.5, 3);
    let dyn_updates = dyn_stream.num_updates();
    let dyn_copies = 4usize;
    let dyn_config_for = || {
        DynamicEstimatorConfig::new(6, (dyn_exact / 2).max(1))
            .with_epsilon(0.25)
            .with_copies(dyn_copies)
            .with_seed(seed)
            .with_constants(1.0, 2.0)
            .with_max_samples(64)
    };
    // Every copy makes four passes over the update stream.
    let dyn_items_streamed = (dyn_copies as u64) * 4 * dyn_updates as u64;
    eprintln!(
        "perf: dynamic barabasi_albert(n = {dyn_n}, k = 6) — {} updates ({} deletions), T = {dyn_exact}, copies = {dyn_copies}",
        dyn_updates,
        dyn_stream.num_deletions()
    );

    struct DynCell {
        wall_seconds: f64,
        updates_per_second: f64,
        sweeps: u64,
    }
    let dyn_standalone_estimator = DynamicTriangleEstimator::new(dyn_config_for());
    let run_dyn_standalone_once = || {
        let started = Instant::now();
        let out = dyn_standalone_estimator
            .run(&dyn_stream)
            .expect("dynamic estimator run succeeds");
        (out, started.elapsed().as_secs_f64())
    };
    let run_dyn_standalone = || -> (DynamicOutcome, DynCell) {
        // Reps are ~40ms each — take many so the min straddles
        // multi-second thermal drift windows.
        let (out, wall) = best_of(16, run_dyn_standalone_once);
        (
            out,
            DynCell {
                wall_seconds: wall,
                updates_per_second: dyn_items_streamed as f64 / wall.max(1e-12),
                sweeps: (dyn_copies as u64) * 4,
            },
        )
    };
    // The copy-parallel turnstile reference: every copy on the pool,
    // aggregated by the standalone median.
    let dyn_reference = |config: &DynamicEstimatorConfig| -> DynamicOutcome {
        let copies: Vec<_> = run_indexed_pool(workers, config.copies, |copy| {
            run_dynamic_copy_with(&dyn_stream, config, copy, batch)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("reference dynamic run succeeds");
        aggregate_dynamic_copies(&copies)
    };
    let run_dyn_engine_once = |engine: bool| {
        let config = dyn_config_for();
        if engine {
            let mut engine = Engine::new(engine_config);
            engine.submit(JobSpec::dynamic("turnstile", config));
            let started = Instant::now();
            let report = engine
                .run_dynamic(&dyn_stream)
                .expect("engine dynamic run succeeds");
            (Side::engine(&report), started.elapsed().as_secs_f64())
        } else {
            let started = Instant::now();
            let out = dyn_reference(&config);
            let wall = started.elapsed().as_secs_f64();
            (
                Side::reference(vec![out.copy_estimates], 4 * config.copies as u64),
                wall,
            )
        }
    };
    let dyn_cell = |side: &Side, wall: f64| DynCell {
        wall_seconds: wall,
        updates_per_second: dyn_items_streamed as f64 / wall.max(1e-12),
        sweeps: side.sweeps,
    };
    let (dyn_ctr_outcome, dyn_ctr_cell) = run_dyn_standalone();
    let ((dyn_fused_side, dyn_fused_wall), (dyn_ref_side, dyn_ref_wall)) =
        race_engine(5, &run_dyn_engine_once, "dynamic");
    let dyn_fused_cell = dyn_cell(&dyn_fused_side, dyn_fused_wall);
    let dyn_per_copy_cell = dyn_cell(&dyn_ref_side, dyn_ref_wall);
    assert_eq!(
        dyn_fused_side.copy_estimates,
        vec![dyn_ctr_outcome.copy_estimates.clone()],
        "fused dynamic path must be bit-identical to the standalone counter run"
    );
    assert_eq!(
        dyn_ref_side.copy_estimates,
        vec![dyn_ctr_outcome.copy_estimates.clone()],
        "copy-parallel dynamic reference must be bit-identical to the standalone counter run"
    );
    assert_eq!(dyn_fused_side.fused_cohorts(), 1);
    assert_eq!(dyn_fused_side.sweeps, 4);
    assert_eq!(dyn_ref_side.sweeps, (4 * dyn_copies) as u64);

    // Counter-mode parity sweep: shards 1..=8 × workers {1, 2, 4} must be
    // bit-identical to the plain counter run.
    for shards in 1..=8usize {
        for &shard_workers in &shard_workers_tested {
            let view = ShardedDynamicStream::from_stream(&dyn_stream, shards);
            let out = dyn_standalone_estimator
                .run_sharded(&view, shard_workers)
                .expect("sharded dynamic run succeeds");
            assert_eq!(
                out.estimate.to_bits(),
                dyn_ctr_outcome.estimate.to_bits(),
                "dynamic counter mode must be bit-identical at shards {shards} workers {shard_workers}"
            );
            assert_eq!(out.copy_estimates, dyn_ctr_outcome.copy_estimates);
            assert_eq!(out.space, dyn_ctr_outcome.space);
        }
    }

    // ---- Mixed fusion-matrix batch: one engine run carrying all three
    // matrix cells — main, ideal, and dynamic — over the base snapshot,
    // against the three copy-parallel standalone references run back to
    // back. Sweep sharing is measured from the report, never assumed: the
    // gate below only requires the fused batch's physical sweep count to
    // land strictly under the per-copy sum. -------------------------------
    let mixed_inserts = DynamicMemoryStream::from_updates(
        EdgeStream::num_vertices(&stream),
        stream
            .edges()
            .iter()
            .map(|&edge| degentri_stream::EdgeUpdate::insert(edge))
            .collect(),
    );
    let run_mixed_once = |engine: bool| {
        if engine {
            let mut engine = Engine::new(engine_config);
            engine.submit(JobSpec::main("six-pass", config_for()));
            engine.submit(JobSpec::ideal("three-pass", config_for()));
            engine.submit(JobSpec::dynamic("turnstile", dyn_config_for()));
            let started = Instant::now();
            let report = engine.run(&stream).expect("engine run succeeds");
            (Side::engine(&report), started.elapsed().as_secs_f64())
        } else {
            let (config, dyn_config) = (config_for(), dyn_config_for());
            let started = Instant::now();
            let main = parallel_estimate_triangles_with(&stream, &config, &engine_config)
                .expect("reference run succeeds");
            let stats = StreamStats::compute(&stream);
            let ideal = parallel_estimate_triangles_with_oracle_and(
                &stream,
                &stats,
                &config,
                &engine_config,
            )
            .expect("reference run succeeds");
            let dynamic: Vec<_> = run_indexed_pool(workers, dyn_config.copies, |copy| {
                run_dynamic_copy_with(&mixed_inserts, &dyn_config, copy, batch)
            })
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("reference dynamic run succeeds");
            let dynamic = aggregate_dynamic_copies(&dynamic);
            let wall = started.elapsed().as_secs_f64();
            // Per-copy sum: 6 passes per main copy, 3 per ideal copy plus
            // the stats pass, 4 per turnstile copy.
            let sweeps = (6 * copies + 3 * copies + 1 + 4 * dyn_config.copies) as u64;
            let estimates = vec![
                main.copy_estimates,
                ideal.copy_estimates,
                dynamic.copy_estimates,
            ];
            (Side::reference(estimates, sweeps), wall)
        }
    };
    let ((mixed_fused, mixed_fused_wall), (mixed_unfused, mixed_unfused_wall)) =
        race_engine(3, &run_mixed_once, "mixed-batch");
    let mixed_stats = mixed_fused.stats.expect("the fused side is the engine");
    let mixed_fused_sweeps = mixed_fused.sweeps;
    let mixed_unfused_sweeps = mixed_unfused.sweeps;
    assert_eq!(
        mixed_stats.fused_sweeps + mixed_stats.per_copy_sweeps,
        mixed_fused_sweeps,
        "tier accounting must partition the mixed batch's sweeps"
    );
    eprintln!(
        "perf: mixed batch (main+ideal+dynamic) fused {mixed_fused_sweeps} sweeps \
         ({} cohort / {} other) in {mixed_fused_wall:.4}s vs per-copy \
         {mixed_unfused_sweeps} sweeps in {mixed_unfused_wall:.4}s",
        mixed_stats.fused_sweeps, mixed_stats.per_copy_sweeps
    );

    // ---- Observability: recording overhead + RunReport artifacts. --------
    // The same fused engine run, recording on vs off. Recording must be
    // observation-only (bit-identical results) and cheap (its throughput
    // ratio is recorded in the JSON, not gated). The recording run's
    // RunReport feeds the report-derived per-pass section of the emitted
    // JSON and is written to disk as an artifact for the CI bench-smoke
    // job to upload.
    let run_obs_engine = |recording: bool| -> (EngineReport, f64) {
        best_of(3, || {
            let mut engine = Engine::new(
                EngineConfig::builder()
                    .workers(workers)
                    .batch_size(batch)
                    .recording(recording)
                    .try_build()
                    .expect("engine configuration is valid"),
            );
            engine.submit(JobSpec::main("six-pass", config_for()));
            let started = Instant::now();
            let report = engine.run(&stream).expect("engine run succeeds");
            (report, started.elapsed().as_secs_f64())
        })
    };
    let (recorded_report, recorded_wall) = run_obs_engine(true);
    let (silent_report, silent_wall) = run_obs_engine(false);
    assert_eq!(
        recorded_report.jobs[0].estimation().copy_estimates,
        silent_report.jobs[0].estimation().copy_estimates,
        "recording must be observation-only"
    );
    assert!(
        recorded_report.run_report.is_some() && silent_report.run_report.is_none(),
        "exactly the recording run must assemble a RunReport"
    );
    // Throughput ratio: > 1 means the recording run was faster (noise);
    // < 0.95 means instrumentation costs more than a 5% budget.
    let recorded_vs_silent = silent_wall / recorded_wall.max(1e-12);
    let main_run_report = recorded_report
        .run_report
        .as_ref()
        .expect("recording run assembles a report");
    let dyn_recorded_report = {
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(workers)
                .batch_size(batch)
                .recording(true)
                .try_build()
                .expect("engine configuration is valid"),
        );
        engine.submit(JobSpec::dynamic("turnstile", dyn_config_for()));
        engine
            .run_dynamic(&dyn_stream)
            .expect("engine dynamic run succeeds")
    };
    assert_eq!(
        dyn_recorded_report.jobs[0].estimation().copy_estimates,
        dyn_ctr_outcome.copy_estimates,
        "dynamic recording must be observation-only"
    );
    let dyn_run_report = dyn_recorded_report
        .run_report
        .as_ref()
        .expect("recording run assembles a report");
    // The ideal (three-pass) kernel rows come from their own recorded run:
    // an all-ideal batch forms a cohort that reports under the ideal pass
    // names (new in PR 9).
    let ideal_recorded_report = {
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(workers)
                .batch_size(batch)
                .recording(true)
                .try_build()
                .expect("engine configuration is valid"),
        );
        engine.submit(JobSpec::ideal("three-pass", config_for()));
        engine.run(&stream).expect("engine run succeeds")
    };
    let ideal_run_report = ideal_recorded_report
        .run_report
        .as_ref()
        .expect("recording run assembles a report");
    assert_eq!(
        ideal_run_report.cohorts[0].label, "three-pass",
        "an all-ideal cohort must report under the ideal pass names"
    );
    let main_report_path = format!("{report_prefix}_main.json");
    let dyn_report_path = format!("{report_prefix}_dynamic.json");
    std::fs::write(&main_report_path, main_run_report.to_json()).expect("write main run report");
    std::fs::write(&dyn_report_path, dyn_run_report.to_json()).expect("write dynamic run report");
    eprintln!(
        "perf: recording on {recorded_wall:.4}s vs off {silent_wall:.4}s \
         (throughput ratio {recorded_vs_silent:.3}); run reports -> \
         {main_report_path}, {dyn_report_path}"
    );
    eprintln!("{main_run_report}");

    // ---- Recovery: idle retry/quorum policies must be pure metadata. -----
    // The same fused counter-mode engine run with a retry policy and a
    // best-effort quorum attached. Nothing fires on a clean run, so the
    // armed cell must stay bit-identical to the retries-disabled default
    // with every recovery counter at zero; the throughput ratio is raced
    // interleaved (drift hits both sides) and gated below.
    let run_recovery_engine = |armed: bool| -> (EngineReport, f64) {
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(workers)
                .batch_size(batch)
                .try_build()
                .expect("engine configuration is valid"),
        );
        let mut job = JobSpec::main("six-pass", config_for());
        if armed {
            job = job
                .retry(RetryPolicy::new(2))
                .quorum(QuorumPolicy::best_effort());
        }
        engine.submit(job);
        let started = Instant::now();
        let report = engine.run(&stream).expect("engine run succeeds");
        (report, started.elapsed().as_secs_f64())
    };
    let ((armed_report, armed_wall), (plain_report, plain_wall)) =
        race_pair(6, run_recovery_engine);
    assert_eq!(
        armed_report.jobs[0].estimation().estimate.to_bits(),
        plain_report.jobs[0].estimation().estimate.to_bits(),
        "idle recovery policies must not change the aggregate"
    );
    assert_eq!(
        armed_report.jobs[0].estimation().copy_estimates,
        plain_report.jobs[0].estimation().copy_estimates,
        "idle recovery policies must not change any copy"
    );
    assert!(
        !armed_report.jobs[0].is_degraded(),
        "a clean run must never degrade"
    );
    assert_eq!(
        (
            armed_report.stats.copies_retried,
            armed_report.stats.copies_quarantined,
            armed_report.stats.jobs_degraded,
        ),
        (0, 0, 0),
        "no recovery machinery may engage on a clean run"
    );
    // > 1 means the armed run was faster (noise); < 0.95 fails the gate.
    let recovery_idle_ratio = plain_wall / armed_wall.max(1e-12);
    eprintln!(
        "perf: recovery armed {armed_wall:.4}s vs default {plain_wall:.4}s \
         (throughput ratio {recovery_idle_ratio:.3}), bit-identical"
    );

    // ---- Kernel attribution: lane-batched kernels vs their scalar
    // references, raced directly through the fold entry points on
    // identical inputs (no engine, no scheduler) so the ratio isolates
    // the kernels themselves. The scalar references are the bit-identity
    // oracles of the parity tests; here they are the performance
    // baseline the batched path must never lose to. --------------------
    let main_edges: &[degentri_graph::Edge] = stream.edges();
    let main_vertices = EdgeStream::num_vertices(&stream);
    let drive_main_cohort = |scalar: bool| -> (Vec<u64>, f64) {
        let config = config_for();
        best_of(1, || {
            // Accumulate wall time around the fold loops only: plan
            // construction and pass finishing are identical on both sides
            // of the race and would dilute the kernel ratio toward 1.
            let mut folded = 0.0f64;
            let mut staged: Vec<MainCopyStages> = (0..copies)
                .map(|copy| {
                    MainCopyStages::new(
                        &config,
                        main_edges.len(),
                        main_vertices,
                        main_copy_seed(config.seed, copy),
                    )
                    .expect("bench stages are valid")
                })
                .collect();
            let mut scratch = MainCohortScratch::default();
            while staged.iter().any(|c| !c.finished()) {
                let plan = MainCopyStages::plan_cohort(&staged);
                let mut accs: Vec<MainStageAcc> = staged.iter().map(|c| c.begin_pass()).collect();
                let mut pos = 0u64;
                let started = Instant::now();
                for chunk in main_edges.chunks(batch) {
                    if scalar {
                        MainCopyStages::fold_cohort_scalar(&plan, &staged, &mut accs, pos, chunk);
                    } else {
                        MainCopyStages::fold_cohort(
                            &plan,
                            &staged,
                            &mut accs,
                            &mut scratch,
                            pos,
                            chunk,
                        );
                    }
                    pos += chunk.len() as u64;
                }
                folded += started.elapsed().as_secs_f64();
                drop(plan);
                for (copy, acc) in staged.iter_mut().zip(accs) {
                    copy.finish_pass(vec![acc]).expect("pass finishes");
                }
            }
            let bits: Vec<u64> = staged
                .into_iter()
                .map(|c| c.finish().expect("cohort finishes").estimate.to_bits())
                .collect();
            (bits, folded)
        })
    };
    let dyn_updates_slice = dyn_stream.updates();
    let dyn_vertices = DynamicEdgeStream::num_vertices(&dyn_stream);
    let drive_dyn_fold = |scalar: bool| -> (Vec<u64>, f64) {
        let config = dyn_config_for();
        best_of(1, || {
            // Same fold-only accounting as the main cohort race above.
            let mut folded = 0.0f64;
            let mut bits = Vec::with_capacity(dyn_copies);
            for copy in 0..dyn_copies {
                let mut stages = DynamicCopyStages::new(
                    &config,
                    dyn_updates_slice.len(),
                    dyn_vertices,
                    dynamic_copy_seed(config.seed, copy),
                )
                .expect("bench stages are valid");
                while !stages.finished() {
                    let mut acc = stages.begin_pass();
                    let mut pos = 0u64;
                    let started = Instant::now();
                    for chunk in dyn_updates_slice.chunks(batch) {
                        if scalar {
                            stages.fold_scalar(&mut acc, pos, chunk);
                        } else {
                            stages.fold(&mut acc, pos, chunk);
                        }
                        pos += chunk.len() as u64;
                    }
                    folded += started.elapsed().as_secs_f64();
                    stages.finish_pass(vec![acc]).expect("pass finishes");
                }
                bits.push(stages.finish().expect("copy finishes").estimate.to_bits());
            }
            (bits, folded)
        })
    };
    // Rounds are interleaved (scalar, lane, scalar, lane, …) so slow drift
    // of a noisy host penalizes both sides equally; each side keeps its
    // best round.
    let race = |drive: &dyn Fn(bool) -> (Vec<u64>, f64)| -> (Vec<u64>, Vec<u64>, f64, f64) {
        let mut scalar_wall = f64::INFINITY;
        let mut lane_wall = f64::INFINITY;
        let mut scalar_bits = Vec::new();
        let mut lane_bits = Vec::new();
        for _ in 0..3 {
            let (bits, wall) = drive(true);
            scalar_wall = scalar_wall.min(wall);
            scalar_bits = bits;
            let (bits, wall) = drive(false);
            lane_wall = lane_wall.min(wall);
            lane_bits = bits;
        }
        (lane_bits, scalar_bits, lane_wall, scalar_wall)
    };
    let (main_lane_bits, main_scalar_bits, main_lane_wall, main_scalar_wall) =
        race(&drive_main_cohort);
    assert_eq!(
        main_lane_bits, main_scalar_bits,
        "lane-batched cohort folds must be bit-identical to the scalar reference"
    );
    let (dyn_lane_bits, dyn_scalar_bits, dyn_lane_wall, dyn_scalar_wall) = race(&drive_dyn_fold);
    assert_eq!(
        dyn_lane_bits, dyn_scalar_bits,
        "lane-batched bank folds must be bit-identical to the scalar reference"
    );
    let kernel_main_lane_eps = logical_edges as f64 / main_lane_wall.max(1e-12);
    let kernel_main_scalar_eps = logical_edges as f64 / main_scalar_wall.max(1e-12);
    let kernel_main_ratio = kernel_main_lane_eps / kernel_main_scalar_eps.max(1e-12);
    let kernel_dyn_lane_ups = dyn_items_streamed as f64 / dyn_lane_wall.max(1e-12);
    let kernel_dyn_scalar_ups = dyn_items_streamed as f64 / dyn_scalar_wall.max(1e-12);
    let kernel_dyn_ratio = kernel_dyn_lane_ups / kernel_dyn_scalar_ups.max(1e-12);
    eprintln!(
        "perf: kernels — main cohort lane {kernel_main_lane_eps:.0} e/s vs scalar \
         {kernel_main_scalar_eps:.0} e/s ({kernel_main_ratio:.2}x); dynamic fold lane \
         {kernel_dyn_lane_ups:.0} upd/s vs scalar {kernel_dyn_scalar_ups:.0} upd/s \
         ({kernel_dyn_ratio:.2}x)"
    );

    // Asm smoke check: disassemble this very binary and count packed-SIMD
    // instructions — evidence the lane kernels autovectorized. Skipped
    // (reported as null) when objdump is not on the PATH; the runtime
    // lane-vs-scalar gate above still covers the payoff either way.
    let simd_instruction_count: Option<u64> = std::env::current_exe().ok().and_then(|exe| {
        let have_objdump = std::process::Command::new("objdump")
            .arg("--version")
            .output()
            .map(|out| out.status.success())
            .unwrap_or(false);
        if !have_objdump {
            return None;
        }
        // x86 packed-integer mnemonics plus aarch64 vector-register forms.
        let pattern = r"v?p(add|sub|mul|sll|srl|and|or|xor|cmpeq)[a-z]*q|v?movdq|vpbroadcast|v[0-9]+\.(2d|4s)";
        let counted = std::process::Command::new("sh")
            .arg("-c")
            .arg(format!(
                "objdump -d \"{}\" | grep -cE '{pattern}'",
                exe.display()
            ))
            .output()
            .ok()?;
        String::from_utf8_lossy(&counted.stdout).trim().parse().ok()
    });
    match simd_instruction_count {
        Some(count) => {
            eprintln!("perf: asm smoke — {count} packed-SIMD instructions in the release binary");
            assert!(
                count > 0,
                "release binary contains no packed-SIMD instructions; \
                 the lane kernels failed to autovectorize"
            );
        }
        None => eprintln!(
            "perf: asm smoke — objdump unavailable; runtime lane-vs-scalar gate stands alone"
        ),
    }

    // ---- Baseline comparison (per-pass deltas + PR-4 engine anchors). ----
    let baseline = std::fs::read_to_string(&baseline_path).ok();
    let baseline_counter = baseline
        .as_deref()
        .and_then(baseline_single_copy)
        .and_then(|t| number_after(t, "edges_per_second"));
    let baseline_engine_main = baseline.as_deref().and_then(baseline_counter_engine);
    let baseline_engine_dynamic = baseline.as_deref().and_then(baseline_dynamic_engine);
    let pass_eps = |outcome: &MainOutcome, pass: usize| {
        m as f64 / (outcome.pass_nanos[pass] as f64 / 1e9).max(1e-12)
    };
    if let Some(text) = baseline.as_deref() {
        eprintln!("perf: baseline {baseline_path} per-pass deltas (single copy):");
        let section = baseline_single_copy(text).unwrap_or(text);
        let mut rest = section;
        for (i, name) in PASS_NAMES.iter().enumerate() {
            let old = match section_after(rest, &format!("\"{name}\"")) {
                Some(after) => {
                    rest = after;
                    match number_after(after, "edges_per_second") {
                        Some(v) => v,
                        None => continue,
                    }
                }
                None => continue,
            };
            let ctr = pass_eps(&counter_mode.outcome, i);
            eprintln!(
                "perf:   {name}: baseline {old:.0} e/s, now {ctr:.0} e/s ({:+.1}%)",
                100.0 * (ctr / old - 1.0),
            );
        }
    } else {
        eprintln!("perf: baseline {baseline_path} not found; skipping deltas");
    }
    let fused_vs_per_copy_main =
        scale_fused.logical_items_per_second / scale_per_copy.logical_items_per_second.max(1e-12);
    let counter_fused = &counter_mode.engine_fused;
    let fused_vs_per_copy_small = counter_fused.logical_items_per_second
        / counter_mode
            .engine_per_copy
            .logical_items_per_second
            .max(1e-12);
    let fused_vs_per_copy_dynamic =
        dyn_fused_cell.updates_per_second / dyn_per_copy_cell.updates_per_second.max(1e-12);
    let mut fused_vs_pr4_main =
        baseline_engine_main.map(|old| counter_fused.logical_items_per_second / old.max(1e-12));
    // The PR-8 containment-overhead gate is a 1% band — tighter than
    // single-race scheduler noise. When the first fused measurement lands
    // under the band, re-race and keep the best ratio: the gate asks
    // whether the faults-disabled build can still reach the baseline, not
    // whether one sample happened to.
    if !degentri_core::faults::ENABLED {
        if let (Some(old), Some(ratio)) = (baseline_engine_main, fused_vs_pr4_main) {
            let mut best_ratio = ratio;
            let config = config_for();
            for _ in 0..2 {
                if best_ratio >= 0.99 {
                    break;
                }
                let ((side, wall), _) = race_engine(
                    12,
                    &|engine| run_main_once(engine, &stream, &config),
                    "main",
                );
                let retry = engine_cell(&side, wall).logical_items_per_second / old.max(1e-12);
                eprintln!("perf: fused overhead retry — ratio {retry:.3} (was {best_ratio:.3})");
                best_ratio = best_ratio.max(retry);
            }
            fused_vs_pr4_main = Some(best_ratio);
        }
    }
    let mut fused_vs_pr4_dynamic =
        baseline_engine_dynamic.map(|old| dyn_fused_cell.updates_per_second / old.max(1e-12));
    // The PR-9 union-probe gate: the dynamic cohort's shared probe passes
    // now walk one k-way-merged union key table, so the fused cell must at
    // least hold the previous baseline's fused-dynamic cell. A 0% band is
    // tighter than single-race scheduler noise — re-race below it and keep
    // the best ratio before gating.
    if let (Some(old), Some(ratio)) = (baseline_engine_dynamic, fused_vs_pr4_dynamic) {
        let mut best_ratio = ratio;
        for _ in 0..2 {
            if best_ratio >= 1.0 {
                break;
            }
            let ((side, wall), _) = race_engine(5, &run_dyn_engine_once, "dynamic");
            let retry = dyn_cell(&side, wall).updates_per_second / old.max(1e-12);
            eprintln!("perf: dynamic union-probe retry — ratio {retry:.3} (was {best_ratio:.3})");
            best_ratio = best_ratio.max(retry);
        }
        fused_vs_pr4_dynamic = Some(best_ratio);
    }
    // The dynamic fused engine must hold 0.9x the standalone dynamic run
    // of the same job (both execute the same stage objects; the engine
    // adds scheduling). Below the band, re-race both sides interleaved
    // and keep the best ratio, as the other 0.9x gates do.
    let mut dyn_fused_vs_standalone =
        dyn_fused_cell.updates_per_second / dyn_ctr_cell.updates_per_second.max(1e-12);
    for _ in 0..2 {
        if dyn_fused_vs_standalone >= 0.9 {
            break;
        }
        let ((_, engine_wall), (_, standalone_wall)) = race_pair(16, |engine| {
            let wall = if engine {
                run_dyn_engine_once(true).1
            } else {
                run_dyn_standalone_once().1
            };
            ((), wall)
        });
        // Both sides stream the same updates, so the throughput ratio is
        // the inverse wall ratio.
        let retry = standalone_wall / engine_wall.max(1e-12);
        eprintln!(
            "perf: dynamic fused-vs-standalone retry — ratio {retry:.3} (was {dyn_fused_vs_standalone:.3})"
        );
        dyn_fused_vs_standalone = dyn_fused_vs_standalone.max(retry);
    }
    eprintln!(
        "perf: main engine fused {:.0} items/s vs reference {:.0} items/s ({fused_vs_per_copy_small:.2}x small / {fused_vs_per_copy_main:.2}x at scale); vs baseline engine: {}",
        counter_fused.logical_items_per_second,
        counter_mode.engine_per_copy.logical_items_per_second,
        fused_vs_pr4_main.map_or("n/a".into(), |v| format!("{v:.2}x")),
    );
    eprintln!(
        "perf: dynamic engine fused {:.0} upd/s vs reference {:.0} upd/s ({fused_vs_per_copy_dynamic:.2}x), vs standalone {:.0} upd/s ({dyn_fused_vs_standalone:.2}x); vs baseline engine: {}",
        dyn_fused_cell.updates_per_second,
        dyn_per_copy_cell.updates_per_second,
        dyn_ctr_cell.updates_per_second,
        fused_vs_pr4_dynamic.map_or("n/a".into(), |v| format!("{v:.2}x")),
    );

    // ---- Emit BENCH_PR10.json (hand-rolled: no JSON dependency). ---------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"BENCH_PR10\",");
    let _ = writeln!(
        json,
        "  \"description\": \"recovery layer: copy-level graceful degradation and deterministic retries measured idle against the retries-disabled default (bit-identical, ratio gated), on top of the PR9 fusion matrix at 4 copies\","
    );
    let _ = writeln!(json, "  \"graph\": {{");
    let _ = writeln!(json, "    \"generator\": \"barabasi_albert\",");
    let _ = writeln!(json, "    \"n\": {n},");
    let _ = writeln!(json, "    \"m\": {m},");
    let _ = writeln!(json, "    \"triangles\": {exact}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"config\": {{");
    let _ = writeln!(json, "    \"workers\": {workers},");
    let _ = writeln!(json, "    \"batch_size\": {batch},");
    let _ = writeln!(json, "    \"copies\": {copies},");
    let _ = writeln!(json, "    \"seed\": {seed},");
    let _ = writeln!(json, "    \"scale\": {scale}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"modes\": {{");
    {
        let mode = &counter_mode;
        let _ = writeln!(json, "    \"{}\": {{", mode.label);
        let _ = writeln!(json, "      \"single_copy\": {{");
        let _ = writeln!(json, "        \"wall_seconds\": {:.6},", mode.wall_seconds);
        let _ = writeln!(
            json,
            "        \"edges_per_second\": {:.0},",
            mode.edges_per_second
        );
        let _ = writeln!(json, "        \"per_pass\": [");
        for (i, name) in PASS_NAMES.iter().enumerate() {
            let nanos = mode.outcome.pass_nanos[i];
            let eps = pass_eps(&mode.outcome, i);
            let comma = if i + 1 < PASS_NAMES.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "          {{ \"pass\": \"{name}\", \"nanos\": {nanos}, \"edges_per_second\": {eps:.0} }}{comma}"
            );
        }
        let _ = writeln!(json, "        ]");
        let _ = writeln!(json, "      }},");
        for (label, cell) in [
            ("engine_fused", &mode.engine_fused),
            ("engine_per_copy", &mode.engine_per_copy),
        ] {
            let _ = writeln!(json, "      \"{label}\": {{");
            let _ = writeln!(json, "        \"wall_seconds\": {:.6},", cell.wall_seconds);
            let _ = writeln!(json, "        \"sweeps_executed\": {},", cell.sweeps);
            let _ = writeln!(json, "        \"fused_cohorts\": {},", cell.fused_cohorts);
            let _ = writeln!(
                json,
                "        \"edges_per_second\": {:.0},",
                cell.logical_items_per_second
            );
            let _ = writeln!(
                json,
                "        \"snapshot_edges_per_second\": {:.0}",
                cell.snapshot_items_per_second
            );
            let _ = writeln!(json, "      }},");
        }
        let _ = writeln!(json, "      \"allocations\": {{");
        let _ = writeln!(json, "        \"cold_run\": {},", mode.cold_allocs);
        let _ = writeln!(json, "        \"warm_run\": {},", mode.warm_allocs);
        let _ = writeln!(json, "        \"edges_streamed_per_run\": {copy_edges},");
        let _ = writeln!(
            json,
            "        \"allocations_per_edge\": {:.6}",
            mode.warm_allocs as f64 / copy_edges as f64
        );
        let _ = writeln!(json, "      }}");
        let _ = writeln!(json, "    }}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"counter_parity\": {{");
    let _ = writeln!(json, "    \"shards_tested\": \"1..=8\",");
    let _ = writeln!(json, "    \"shard_workers_tested\": [1, 2, 4],");
    let _ = writeln!(json, "    \"bit_identical_across_shards\": true,");
    let _ = writeln!(json, "    \"all_six_passes_sharded\": true,");
    let _ = writeln!(json, "    \"fused_matches_per_copy\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"dynamic\": {{");
    let _ = writeln!(json, "    \"graph\": {{");
    let _ = writeln!(json, "      \"generator\": \"barabasi_albert\",");
    let _ = writeln!(json, "      \"n\": {dyn_n},");
    let _ = writeln!(json, "      \"m\": {},", dyn_graph.num_edges());
    let _ = writeln!(json, "      \"updates\": {dyn_updates},");
    let _ = writeln!(json, "      \"deletions\": {},", dyn_stream.num_deletions());
    let _ = writeln!(json, "      \"triangles\": {dyn_exact}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"copies\": {dyn_copies},");
    let _ = writeln!(
        json,
        "    \"updates_streamed_per_run\": {dyn_items_streamed},"
    );
    for (label, cell) in [
        ("counter_standalone", &dyn_ctr_cell),
        ("counter_engine_fused", &dyn_fused_cell),
        ("counter_engine_per_copy", &dyn_per_copy_cell),
    ] {
        let _ = writeln!(json, "    \"{label}\": {{");
        let _ = writeln!(json, "      \"wall_seconds\": {:.6},", cell.wall_seconds);
        let _ = writeln!(json, "      \"sweeps_executed\": {},", cell.sweeps);
        let _ = writeln!(
            json,
            "      \"updates_per_second\": {:.0}",
            cell.updates_per_second
        );
        let _ = writeln!(json, "    }},");
    }
    let _ = writeln!(
        json,
        "    \"fused_vs_counter_standalone\": {dyn_fused_vs_standalone:.3},"
    );
    let _ = writeln!(json, "    \"parity\": {{");
    let _ = writeln!(json, "      \"shards_tested\": \"1..=8\",");
    let _ = writeln!(json, "      \"shard_workers_tested\": [1, 2, 4],");
    let _ = writeln!(json, "      \"bit_identical_across_shards\": true,");
    let _ = writeln!(json, "      \"engine_matches_standalone\": true");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fused\": {{");
    let _ = writeln!(json, "    \"at_scale\": {{");
    let _ = writeln!(json, "      \"n\": {scale_n},");
    let _ = writeln!(json, "      \"m\": {scale_m},");
    for (label, cell) in [
        ("engine_fused", &scale_fused),
        ("engine_per_copy", &scale_per_copy),
    ] {
        let _ = writeln!(json, "      \"{label}\": {{");
        let _ = writeln!(json, "        \"wall_seconds\": {:.6},", cell.wall_seconds);
        let _ = writeln!(json, "        \"sweeps_executed\": {},", cell.sweeps);
        let _ = writeln!(json, "        \"fused_cohorts\": {},", cell.fused_cohorts);
        let _ = writeln!(
            json,
            "        \"edges_per_second\": {:.0},",
            cell.logical_items_per_second
        );
        let _ = writeln!(
            json,
            "        \"snapshot_edges_per_second\": {:.0}",
            cell.snapshot_items_per_second
        );
        let _ = writeln!(json, "      }},");
    }
    let _ = writeln!(json, "      \"comment\": \"structural fused-vs-reference comparison on an out-of-cache snapshot\"");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(
        json,
        "    \"main_fused_vs_per_copy\": {fused_vs_per_copy_main:.3},"
    );
    let _ = writeln!(
        json,
        "    \"main_fused_vs_per_copy_small_graph\": {fused_vs_per_copy_small:.3},"
    );
    let _ = writeln!(
        json,
        "    \"dynamic_fused_vs_per_copy\": {fused_vs_per_copy_dynamic:.3},"
    );
    let _ = writeln!(
        json,
        "    \"main_fused_vs_pr4_engine\": {},",
        fused_vs_pr4_main.map_or("null".to_string(), |v| format!("{v:.2}"))
    );
    let _ = writeln!(
        json,
        "    \"dynamic_fused_vs_pr4_engine\": {}",
        fused_vs_pr4_dynamic.map_or("null".to_string(), |v| format!("{v:.2}"))
    );
    let _ = writeln!(json, "  }},");
    // The PR-9 fusion-matrix cells: every job-kind × rng-mode combination
    // now runs fused, and these are the three new measurements proving it
    // pays — ideal cohorts at scale, union-probe dynamic passes against
    // the previous baseline, and the mixed batch's sweep collapse.
    let _ = writeln!(json, "  \"fusion_matrix\": {{");
    let _ = writeln!(json, "    \"ideal_at_scale\": {{");
    let _ = writeln!(json, "      \"n\": {scale_n},");
    let _ = writeln!(json, "      \"m\": {scale_m},");
    for (label, cell) in [
        ("engine_fused", &ideal_scale_fused),
        ("engine_per_copy", &ideal_scale_per_copy),
    ] {
        let _ = writeln!(json, "      \"{label}\": {{");
        let _ = writeln!(json, "        \"wall_seconds\": {:.6},", cell.wall_seconds);
        let _ = writeln!(json, "        \"sweeps_executed\": {},", cell.sweeps);
        let _ = writeln!(json, "        \"fused_cohorts\": {},", cell.fused_cohorts);
        let _ = writeln!(
            json,
            "        \"edges_per_second\": {:.0},",
            cell.logical_items_per_second
        );
        let _ = writeln!(
            json,
            "        \"snapshot_edges_per_second\": {:.0}",
            cell.snapshot_items_per_second
        );
        let _ = writeln!(json, "      }},");
    }
    let _ = writeln!(json, "      \"fused_vs_per_copy\": {ideal_scale_ratio:.3}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"dynamic_union_probe\": {{");
    let _ = writeln!(
        json,
        "      \"fused_updates_per_second\": {:.0},",
        dyn_fused_cell.updates_per_second
    );
    let _ = writeln!(
        json,
        "      \"vs_baseline_fused\": {}",
        fused_vs_pr4_dynamic.map_or("null".to_string(), |v| format!("{v:.3}"))
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"mixed_batch\": {{");
    let _ = writeln!(json, "      \"jobs\": [\"main\", \"ideal\", \"dynamic\"],");
    let _ = writeln!(json, "      \"fused\": {{");
    let _ = writeln!(json, "        \"wall_seconds\": {mixed_fused_wall:.6},");
    let _ = writeln!(json, "        \"sweeps_executed\": {mixed_fused_sweeps},");
    let _ = writeln!(
        json,
        "        \"fused_sweeps\": {},",
        mixed_stats.fused_sweeps
    );
    let _ = writeln!(
        json,
        "        \"per_copy_sweeps\": {},",
        mixed_stats.per_copy_sweeps
    );
    let _ = writeln!(
        json,
        "        \"fused_cohorts\": {}",
        mixed_stats.fused_cohorts
    );
    let _ = writeln!(json, "      }},");
    let _ = writeln!(json, "      \"unfused\": {{");
    let _ = writeln!(json, "        \"wall_seconds\": {mixed_unfused_wall:.6},");
    let _ = writeln!(json, "        \"sweeps_executed\": {mixed_unfused_sweeps}");
    let _ = writeln!(json, "      }},");
    let _ = writeln!(
        json,
        "      \"sweeps_saved\": {},",
        mixed_unfused_sweeps.saturating_sub(mixed_fused_sweeps)
    );
    let _ = writeln!(json, "      \"bit_identical\": true");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"observability\": {{");
    let _ = writeln!(json, "    \"recording_off\": {{");
    let _ = writeln!(json, "      \"wall_seconds\": {silent_wall:.6},");
    let _ = writeln!(
        json,
        "      \"edges_per_second\": {:.0}",
        logical_edges as f64 / silent_wall.max(1e-12)
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"recording_on\": {{");
    let _ = writeln!(json, "      \"wall_seconds\": {recorded_wall:.6},");
    let _ = writeln!(
        json,
        "      \"edges_per_second\": {:.0}",
        logical_edges as f64 / recorded_wall.max(1e-12)
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"recorded_vs_silent\": {recorded_vs_silent:.3},");
    let _ = writeln!(json, "    \"bit_identical\": true,");
    let _ = writeln!(
        json,
        "    \"run_report_artifacts\": [\"{main_report_path}\", \"{dyn_report_path}\"],"
    );
    // Per-pass rows derived from the RunReport rather than ad-hoc timers:
    // sweep self-time, plan self-time, and the shard fan-out of each pass.
    let _ = writeln!(json, "    \"report_per_pass\": [");
    let obs_cohort = &main_run_report.cohorts[0];
    for (i, pass) in obs_cohort.passes.iter().enumerate() {
        let comma = if i + 1 < obs_cohort.passes.len() {
            ","
        } else {
            ""
        };
        let eps = pass.items as f64 / (pass.sweep_nanos as f64 / 1e9).max(1e-12);
        let _ = writeln!(
            json,
            "      {{ \"pass\": \"{}\", \"plan_nanos\": {}, \"sweep_nanos\": {}, \"items\": {}, \"shards\": {}, \"edges_per_second\": {eps:.0} }}{comma}",
            pass.name,
            pass.plan_nanos,
            pass.sweep_nanos,
            pass.items,
            pass.shards.len()
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Per-kernel work/throughput attribution. Each row divides a pass's
    // fold-tally items by its sweep nanoseconds (copy-items per ns — the
    // kernel-level rate, which exceeds the snapshot rate by the fusion
    // factor) and reports lane utilization: the fraction of tally items
    // that went through the lane-batched kernel rather than the scalar
    // tail (`kernel_batches × LANES / items` for the main folds; for the
    // turnstile folds a batch is one whole-bank kernel invocation per
    // item, so the share is `kernel_batches / items`).
    let _ = writeln!(json, "  \"kernels\": {{");
    let _ = writeln!(json, "    \"lanes\": {LANES},");
    for (label, report, batch_items, comma) in [
        ("main_per_pass", &main_run_report, LANES as u64, ","),
        ("dynamic_per_pass", &dyn_run_report, 1u64, ","),
    ] {
        let cohort = &report.cohorts[0];
        let _ = writeln!(json, "    \"{label}\": [");
        for (i, pass) in cohort.passes.iter().enumerate() {
            let row_comma = if i + 1 < cohort.passes.len() { "," } else { "" };
            let items_per_ns = pass.tally.items as f64 / (pass.sweep_nanos as f64).max(1e-12);
            let utilization = if pass.tally.items == 0 {
                0.0
            } else {
                (pass.tally.kernel_batches * batch_items) as f64 / pass.tally.items as f64
            };
            let _ = writeln!(
                json,
                "      {{ \"pass\": \"{}\", \"items\": {}, \"updates\": {}, \"kernel_batches\": {}, \"items_per_ns\": {items_per_ns:.6}, \"lane_utilization\": {utilization:.4} }}{row_comma}",
                pass.name, pass.tally.items, pass.tally.updates, pass.tally.kernel_batches,
            );
        }
        let _ = writeln!(json, "    ]{comma}");
    }
    // The three-pass oracle estimator has no lane-batched kernels (its
    // probe passes are hash-table lookups), so its rows carry shard-summed
    // items and sweep self-time from the recorded all-ideal cohort run
    // instead of fold-tally lane utilization.
    let _ = writeln!(json, "    \"ideal_per_pass\": [");
    let ideal_cohort = &ideal_run_report.cohorts[0];
    for (i, pass) in ideal_cohort.passes.iter().enumerate() {
        let row_comma = if i + 1 < ideal_cohort.passes.len() {
            ","
        } else {
            ""
        };
        let items_per_ns = pass.items as f64 / (pass.sweep_nanos as f64).max(1e-12);
        let _ = writeln!(
            json,
            "      {{ \"pass\": \"{}\", \"items\": {}, \"sweep_nanos\": {}, \"shards\": {}, \"items_per_ns\": {items_per_ns:.6} }}{row_comma}",
            pass.name,
            pass.items,
            pass.sweep_nanos,
            pass.shards.len()
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"lane_vs_scalar\": {{");
    let _ = writeln!(json, "      \"main_cohort\": {{");
    let _ = writeln!(
        json,
        "        \"lane_edges_per_second\": {kernel_main_lane_eps:.0},"
    );
    let _ = writeln!(
        json,
        "        \"scalar_edges_per_second\": {kernel_main_scalar_eps:.0},"
    );
    let _ = writeln!(json, "        \"ratio\": {kernel_main_ratio:.3}");
    let _ = writeln!(json, "      }},");
    let _ = writeln!(json, "      \"dynamic_fold\": {{");
    let _ = writeln!(
        json,
        "        \"lane_updates_per_second\": {kernel_dyn_lane_ups:.0},"
    );
    let _ = writeln!(
        json,
        "        \"scalar_updates_per_second\": {kernel_dyn_scalar_ups:.0},"
    );
    let _ = writeln!(json, "        \"ratio\": {kernel_dyn_ratio:.3}");
    let _ = writeln!(json, "      }}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"asm_smoke\": {{");
    let _ = writeln!(
        json,
        "      \"packed_simd_instructions\": {}",
        simd_instruction_count.map_or("null".to_string(), |c| c.to_string())
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"vs_baseline\": {{");
    let _ = writeln!(json, "    \"file\": \"{baseline_path}\",");
    let _ = writeln!(
        json,
        "    \"baseline_counter_edges_per_second\": {},",
        baseline_counter.map_or("null".to_string(), |v| format!("{v:.0}"))
    );
    let _ = writeln!(
        json,
        "    \"counter_mode_delta_percent\": {},",
        baseline_counter.map_or("null".to_string(), |old| format!(
            "{:.1}",
            100.0 * (counter_mode.edges_per_second / old - 1.0)
        ))
    );
    let _ = writeln!(
        json,
        "    \"baseline_engine_main_edges_per_second\": {},",
        baseline_engine_main.map_or("null".to_string(), |v| format!("{v:.0}"))
    );
    let _ = writeln!(
        json,
        "    \"baseline_engine_dynamic_updates_per_second\": {}",
        baseline_engine_dynamic.map_or("null".to_string(), |v| format!("{v:.0}"))
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fault_injection\": {{");
    let _ = writeln!(
        json,
        "    \"harness_compiled_in\": {},",
        degentri_core::faults::ENABLED
    );
    let _ = writeln!(
        json,
        "    \"fused_vs_baseline_engine_ratio\": {}",
        fused_vs_pr4_main.map_or("null".to_string(), |v| format!("{v:.3}"))
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"recovery\": {{");
    let _ = writeln!(
        json,
        "    \"policies\": \"retry(2) + quorum best_effort, never exercised\","
    );
    let _ = writeln!(json, "    \"armed_wall_seconds\": {armed_wall:.6},");
    let _ = writeln!(json, "    \"default_wall_seconds\": {plain_wall:.6},");
    let _ = writeln!(
        json,
        "    \"armed_vs_default_ratio\": {recovery_idle_ratio:.3},"
    );
    let _ = writeln!(json, "    \"bit_identical_to_default\": true,");
    let _ = writeln!(json, "    \"copies_retried\": 0,");
    let _ = writeln!(json, "    \"copies_quarantined\": 0,");
    let _ = writeln!(json, "    \"jobs_degraded\": 0");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"parity\": {{");
    let _ = writeln!(json, "    \"fused_equals_per_copy\": true,");
    let _ = writeln!(json, "    \"repeat_run_preserves_results\": true");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    // Round-trip self-check: the schema this binary emits must stay
    // readable by its own baseline parser, or the next PR's regression
    // gate would silently disarm.
    let parsed = baseline_single_copy(&json)
        .and_then(|t| number_after(t, "edges_per_second"))
        .expect("emitted JSON must parse as its own baseline");
    assert!(
        (parsed - counter_mode.edges_per_second).abs() < 1.0,
        "baseline reader disagrees with emitted single-copy throughput"
    );
    assert!(
        baseline_single_copy(&json)
            .and_then(|t| section_after(t, "\"p5_assignment_gather\""))
            .and_then(|t| number_after(t, "edges_per_second"))
            .is_some(),
        "emitted JSON must expose the per-pass baseline anchors"
    );
    let self_engine_main =
        baseline_counter_engine(&json).expect("emitted JSON must expose the engine anchor");
    assert!(
        (self_engine_main - counter_fused.logical_items_per_second).abs() < 1.0,
        "baseline reader disagrees with emitted engine throughput"
    );
    let self_dynamic =
        baseline_dynamic_engine(&json).expect("emitted JSON must expose the dynamic anchor");
    assert!(
        (self_dynamic - dyn_fused_cell.updates_per_second).abs() < 1.0,
        "baseline reader disagrees with emitted dynamic throughput"
    );

    std::fs::write(&out_path, &json).expect("write bench output");
    eprintln!(
        "perf: single-copy {:.0} edges/s, engine fused {:.0} items/s ({} sweeps), reference {:.0} items/s ({} sweeps), warm allocs {}",
        counter_mode.edges_per_second,
        counter_fused.logical_items_per_second,
        counter_fused.sweeps,
        counter_mode.engine_per_copy.logical_items_per_second,
        counter_mode.engine_per_copy.sweeps,
        counter_mode.warm_allocs,
    );
    eprintln!("perf: wrote {out_path}");

    // ---- CI regression gates. -------------------------------------------
    let mut regressed = false;
    // >25% below the previous baseline fails single-copy throughput.
    if let Some(old) = baseline_counter {
        let measured = counter_mode.edges_per_second;
        if measured < 0.75 * old {
            regressed = true;
            eprintln!(
                "perf: REGRESSION — single-copy throughput {measured:.0} edges/s fell more \
                 than 25% below the {baseline_path} baseline of {old:.0} edges/s"
            );
        }
    }
    // >25% below the previous baseline fails the dynamic engine path too
    // (the PR-4 gate, carried forward).
    if let Some(old) = baseline_engine_dynamic {
        if dyn_fused_cell.updates_per_second < 0.75 * old {
            regressed = true;
            eprintln!(
                "perf: REGRESSION — dynamic engine throughput {:.0} upd/s fell more than 25% \
                 below the {baseline_path} baseline of {old:.0} upd/s",
                dyn_fused_cell.updates_per_second
            );
        }
    }
    // Fused execution must not fall below the copy-parallel reference (10%
    // band for scheduler noise; both sides are best-of).
    for (what, ratio) in [
        ("main", fused_vs_per_copy_main),
        ("dynamic", fused_vs_per_copy_dynamic),
        ("ideal", ideal_scale_ratio),
    ] {
        if ratio < 0.9 {
            regressed = true;
            eprintln!(
                "perf: REGRESSION — fused {what} throughput fell below the copy-parallel reference \
                 (ratio {ratio:.3})"
            );
        }
    }
    // PR-9 union-probe gate: the dynamic fused cell must hold the previous
    // baseline's fused-dynamic cell (best ratio after the re-race above).
    if let Some(ratio) = fused_vs_pr4_dynamic {
        if ratio < 1.0 {
            regressed = true;
            eprintln!(
                "perf: REGRESSION — union-probe dynamic fused throughput fell below the \
                 {baseline_path} fused-dynamic cell (ratio {ratio:.3})"
            );
        }
    }
    // Mixed-batch gate: one pool scheduling all three cohorts must
    // physically share sweeps — the measured count has to land strictly
    // below the per-copy sum.
    if mixed_fused_sweeps >= mixed_unfused_sweeps {
        regressed = true;
        eprintln!(
            "perf: REGRESSION — mixed batch executed {mixed_fused_sweeps} sweeps fused, not \
             strictly below the per-copy sum of {mixed_unfused_sweeps}"
        );
    }
    // A lane-batched kernel must never lose to its scalar reference
    // (best-of-3 on both sides; both race identical inputs, so there is
    // no noise band to grant — losing means the batching itself costs
    // more than it saves).
    for (what, ratio) in [
        ("main cohort", kernel_main_ratio),
        ("dynamic fold", kernel_dyn_ratio),
    ] {
        if ratio < 1.0 {
            regressed = true;
            eprintln!(
                "perf: REGRESSION — lane-batched {what} kernel fell below its scalar \
                 reference (ratio {ratio:.3})"
            );
        }
    }
    // Failure containment must be free when the injection harness is
    // compiled out: the fused engine cell may not fall below 0.99x the
    // previous baseline's fused cell. (With the `fault-inject` feature on,
    // probes are live and the gate does not apply.)
    if !degentri_core::faults::ENABLED {
        if let Some(ratio) = fused_vs_pr4_main {
            if ratio < 0.99 {
                regressed = true;
                eprintln!(
                    "perf: REGRESSION — faults-disabled fused engine throughput fell below \
                     0.99x the {baseline_path} fused cell (ratio {ratio:.3}); failure \
                     containment must cost <= 1%"
                );
            }
        }
    }
    // PR-10 recovery gate: idle retry/quorum policies must be pure
    // metadata. Bit-identity and zeroed counters were asserted at
    // measurement time; the armed cell's throughput gets the same 5%
    // noise band as the recording gate (both sides raced interleaved).
    if recovery_idle_ratio < 0.95 {
        regressed = true;
        eprintln!(
            "perf: REGRESSION — retry-configured-but-clean fused engine fell below 0.95x \
             the retries-disabled default (ratio {recovery_idle_ratio:.3}); idle recovery \
             policies must be pure metadata"
        );
    }
    // The dynamic fused engine must hold 0.9x the standalone dynamic run
    // measured in this very run (best ratio after the re-race above).
    if dyn_fused_vs_standalone < 0.9 {
        regressed = true;
        eprintln!(
            "perf: REGRESSION — dynamic fused engine fell below 0.9x the standalone \
             dynamic run (ratio {dyn_fused_vs_standalone:.3})"
        );
    }
    if regressed {
        if fail_on_regression {
            std::process::exit(1);
        }
        eprintln!("perf: (set BENCH_FAIL_ON_REGRESSION=1 to make this fatal)");
    }
}
