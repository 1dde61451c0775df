//! Engine throughput: an E1-style batch at increasing worker counts over
//! one shared graph snapshot, plus a narrow job on one worker and on many.
//!
//! Generates a preferential-attachment graph with ≥ 10^5 edges, submits the
//! paper's estimator and the ideal estimator as one engine job batch, runs
//! two Table-1 baselines side by side on a worker pool next to it (they
//! are not engine jobs), and reports the engine's wall time, streaming
//! throughput, worker utilization and the speedup over the single-worker
//! run. A second section runs a *narrow*
//! job (fewer copies than workers) twice — on one worker, and on the whole
//! pool, where its cohort's sweeps shard across every worker — and reports
//! both edges/sec. Estimates are bit-identical across worker counts
//! (asserted below) — the engine's contract is that scheduling changes
//! wall-clock time only.
//!
//!   cargo run --release --example engine_throughput
//!   WORKERS=8 cargo run --release --example engine_throughput   # extend the sweep

use degentri::baselines::{ExactStreamCounter, TriestImpr};
use degentri::engine::{Engine, EngineConfig, EngineReport, JobSpec};
use degentri::prelude::*;
use degentri::stream::run_indexed_pool;

fn submit_table1_jobs(engine: &mut Engine, t_hint: u64, seed: u64) {
    let config = EstimatorConfig::builder()
        .epsilon(0.1)
        .kappa(8)
        .triangle_lower_bound(t_hint.max(1))
        .r_constant(20.0)
        .inner_constant(40.0)
        .assignment_constant(10.0)
        .copies(8)
        .seed(seed)
        .try_build()
        .expect("example configuration is valid");
    engine.submit(JobSpec::main("this paper (6-pass)", config.clone()));
    engine.submit(JobSpec::ideal("ideal (3-pass, oracle)", config));
}

/// Runs the batch's Table-1 baselines side by side on `workers` threads.
fn run_baselines(
    stream: &MemoryStream,
    workers: usize,
    m: usize,
    seed: u64,
) -> Vec<(&'static str, BaselineOutcome)> {
    let baselines: [Box<dyn StreamingTriangleCounter + Send + Sync>; 2] = [
        Box::new(TriestImpr::new((m / 4).max(16), seed)),
        Box::new(ExactStreamCounter::new()),
    ];
    let outcomes = run_indexed_pool(workers, baselines.len(), |i| baselines[i].estimate(stream));
    ["triest-impr", "exact (store all)"]
        .into_iter()
        .zip(outcomes)
        .collect()
}

fn main() {
    let n = 13_000;
    let graph = degentri::gen::barabasi_albert(n, 8, 1).expect("valid BA parameters");
    let exact = degentri::graph::triangles::count_triangles(&graph);
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
    let m = EdgeStream::num_edges(&stream);
    assert!(m >= 100_000, "the instance must have at least 1e5 edges");
    println!("graph: barabasi_albert(n = {n}, k = 8) — m = {m} edges, T = {exact} triangles");

    let max_workers: usize = std::env::var("WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let mut sweep: Vec<usize> = vec![1, 2, 4];
    if !sweep.contains(&max_workers) {
        sweep.push(max_workers);
    }
    sweep.retain(|&w| w >= 1);
    sweep.sort_unstable();

    let mut reports: Vec<(usize, EngineReport)> = Vec::new();
    let mut baselines: Vec<Vec<(&str, BaselineOutcome)>> = Vec::new();
    for &workers in &sweep {
        let mut engine = Engine::new(EngineConfig::with_workers(workers));
        submit_table1_jobs(&mut engine, exact / 2, 42);
        let report = engine.run(&stream).expect("engine run succeeds");
        reports.push((workers, report));
        baselines.push(run_baselines(&stream, workers, m, 42));
    }

    // The determinism contract: identical estimates at every worker count.
    let reference = &reports[0].1;
    for ((workers, report), outcomes) in reports[1..].iter().zip(&baselines[1..]) {
        for (job, ref_job) in report.jobs.iter().zip(&reference.jobs) {
            assert_eq!(
                job.estimation().estimate.to_bits(),
                ref_job.estimation().estimate.to_bits(),
                "job {} differs at {workers} workers",
                job.label
            );
        }
        for ((label, outcome), (_, ref_outcome)) in outcomes.iter().zip(&baselines[0]) {
            assert_eq!(
                outcome.estimate.to_bits(),
                ref_outcome.estimate.to_bits(),
                "baseline {label} differs at {workers} workers"
            );
        }
    }

    println!("\nper-job estimates (identical at every worker count):");
    let rows = reference
        .jobs
        .iter()
        .map(|job| {
            let est = job.estimation();
            (
                job.label.as_str(),
                est.estimate,
                est.passes_per_copy,
                est.space,
            )
        })
        .chain(
            baselines[0]
                .iter()
                .map(|(label, o)| (*label, o.estimate, o.passes, o.space)),
        );
    for (label, estimate, passes, space) in rows {
        let err = 100.0 * (estimate - exact as f64).abs() / exact as f64;
        println!(
            "  {label:<24} estimate {estimate:>12.0}  err {err:>5.1}%  passes {passes}  words {}",
            space.peak_words
        );
    }

    println!("\nengine jobs only:");
    println!("workers  wall s   edges/s      utilization  speedup");
    let base_wall = reference.stats.wall_seconds;
    for (workers, report) in &reports {
        let s = &report.stats;
        println!(
            "{workers:>7}  {:>6.3}  {:>11.0}  {:>10.0}%  {:>6.2}x",
            s.wall_seconds,
            s.edges_per_second,
            100.0 * s.worker_utilization,
            base_wall / s.wall_seconds.max(1e-12)
        );
    }
    // ---- A narrow job on one worker and on the whole pool. ---------------
    // Two copies on `max_workers` workers: copy-level parallelism could use
    // at most two of them; the cohort's sweeps shard across all of them
    // instead (every pass is an order-insensitive fold).
    let narrow = EstimatorConfig::builder()
        .epsilon(0.1)
        .kappa(8)
        .triangle_lower_bound((exact / 2).max(1))
        .r_constant(20.0)
        .inner_constant(40.0)
        .assignment_constant(10.0)
        .copies(2)
        .seed(7)
        .try_build()
        .expect("example configuration is valid");
    let sweep_workers = max_workers.max(4);
    let run_narrow = |workers: usize| {
        let mut engine = Engine::new(EngineConfig::with_workers(workers));
        engine.submit(JobSpec::main("narrow six-pass", narrow.clone()));
        engine.run(&stream).expect("engine run succeeds")
    };
    let single = run_narrow(1);
    let pooled = run_narrow(sweep_workers);
    assert_eq!(
        single.jobs[0].estimation().estimate.to_bits(),
        pooled.jobs[0].estimation().estimate.to_bits(),
        "sharded sweeps must be bit-identical to unsharded ones"
    );
    println!("\nnarrow job (2 copies), 1 vs {sweep_workers} workers:");
    for report in [&single, &pooled] {
        let s = &report.stats;
        println!(
            "  {:>2} worker(s)  wall {:>6.3}s  {:>11.0} edges/s  {:>4.0}% utilization",
            s.workers,
            s.wall_seconds,
            s.edges_per_second,
            100.0 * s.worker_utilization
        );
    }

    let cores = degentri::engine::config::available_workers();
    println!(
        "\n(measured on {cores} available core(s); speedup tracks min(workers, cores),\n and sharded sweeps need spare physical cores to show a wall-clock win)"
    );
}
