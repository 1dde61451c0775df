//! Engine throughput: the Table-1 (E1-style) job batch at increasing worker
//! counts over one shared graph snapshot, plus a narrow job on one worker
//! and on many.
//!
//! Generates a preferential-attachment graph with ≥ 10^5 edges, submits the
//! paper's estimator plus a spread of baselines as one engine job batch,
//! and reports wall time, streaming throughput, worker utilization and the
//! speedup over the single-worker run. A second section runs a *narrow*
//! job (fewer copies than workers) twice — on one worker, and on the whole
//! pool, where its cohort's sweeps shard across every worker — and reports
//! both edges/sec. Estimates are bit-identical across worker counts
//! (asserted below) — the engine's contract is that scheduling changes
//! wall-clock time only.
//!
//!   cargo run --release --example engine_throughput
//!   WORKERS=8 cargo run --release --example engine_throughput   # extend the sweep

use degentri::engine::{Engine, EngineConfig, EngineReport, JobSpec};
use degentri::prelude::*;

fn submit_table1_jobs(engine: &mut Engine, m: usize, t_hint: u64, seed: u64) {
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
    engine.submit(JobSpec::baseline(
        "triest-impr",
        Box::new(degentri::baselines::TriestImpr::new((m / 4).max(16), seed)),
    ));
    engine.submit(JobSpec::baseline(
        "exact (store all)",
        Box::new(degentri::baselines::ExactStreamCounter::new()),
    ));
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
    for &workers in &sweep {
        let mut engine = Engine::new(EngineConfig::with_workers(workers));
        submit_table1_jobs(&mut engine, m, exact / 2, 42);
        let report = engine.run(&stream).expect("engine run succeeds");
        reports.push((workers, report));
    }

    // The engine's determinism contract: identical estimates at every
    // worker count.
    let reference = &reports[0].1;
    for (workers, report) in &reports[1..] {
        for (job, ref_job) in report.jobs.iter().zip(&reference.jobs) {
            assert_eq!(
                job.estimation().estimate.to_bits(),
                ref_job.estimation().estimate.to_bits(),
                "job {} differs at {workers} workers",
                job.label
            );
        }
    }

    println!("\nper-job estimates (identical at every worker count):");
    for job in &reference.jobs {
        let err = 100.0 * job.estimation().relative_error(exact);
        println!(
            "  {:<24} estimate {:>12.0}  err {err:>5.1}%  passes {}  words {}",
            job.label,
            job.estimation().estimate,
            job.estimation().passes_per_copy,
            job.estimation().space.peak_words
        );
    }

    println!("\nworkers  wall s   edges/s      utilization  speedup");
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
