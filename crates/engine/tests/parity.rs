//! Engine ↔ sequential-runner parity and determinism.
//!
//! The engine's contract is that parallelism changes wall-clock time only:
//! for the same configuration and seed it must produce bit-identical
//! `estimate` and `copy_estimates` to `degentri_core`'s sequential
//! (one-copy-at-a-time) runner, at every worker count, on every run —
//! through the scheduler and through the `parallel_estimate_*` entry
//! points alike.

use degentri_core::{
    estimate_triangles, estimate_triangles_with_oracle, EstimatorConfig, ExactDegreeOracle,
};
use degentri_engine::{
    parallel_estimate_triangles, parallel_estimate_triangles_with_oracle, Engine, EngineConfig,
    JobSpec,
};
use degentri_gen::{barabasi_albert, wheel};
use degentri_stream::{EdgeStream, MemoryStream, StreamOrder, StreamStats};

fn test_config(kappa: usize, t_hint: u64, copies: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(kappa)
        .triangle_lower_bound(t_hint)
        .r_constant(20.0)
        .inner_constant(40.0)
        .assignment_constant(15.0)
        .copies(copies)
        .seed(seed)
        .try_build()
        .expect("test configuration is valid")
}

#[test]
fn parallel_main_estimator_is_bit_identical_to_sequential() {
    let graph = wheel(900).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(11));
    let config = test_config(3, 449, 8, 42);

    let sequential = estimate_triangles(&stream, &config).unwrap();
    for workers in [1, 2, 3, 4, 8] {
        let parallel = parallel_estimate_triangles(&stream, &config, workers).unwrap();
        assert_eq!(
            parallel.copy_estimates, sequential.copy_estimates,
            "workers = {workers}"
        );
        assert_eq!(parallel.estimate.to_bits(), sequential.estimate.to_bits());
        assert_eq!(parallel.space, sequential.space);
        assert_eq!(parallel.passes_per_copy, sequential.passes_per_copy);
        assert_eq!(parallel.copies, sequential.copies);
    }
}

#[test]
fn parallel_ideal_estimator_is_bit_identical_to_sequential() {
    let graph = barabasi_albert(700, 5, 3).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(5));
    let config = test_config(5, 500, 6, 9);

    let oracle = ExactDegreeOracle::build(&stream);
    let sequential = estimate_triangles_with_oracle(&stream, &oracle, &config).unwrap();
    let stats = StreamStats::compute(&stream);
    for workers in [1, 3, 6] {
        let parallel =
            parallel_estimate_triangles_with_oracle(&stream, &stats, &config, workers).unwrap();
        assert_eq!(parallel.copy_estimates, sequential.copy_estimates);
        assert_eq!(parallel.estimate.to_bits(), sequential.estimate.to_bits());
    }
}

#[test]
fn batch_size_and_sharding_never_change_results() {
    let graph = barabasi_albert(600, 5, 9).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(3));
    let config = test_config(5, 700, 3, 31);
    let sequential = estimate_triangles(&stream, &config).unwrap();

    // Batch size sweep through the full-config entry point.
    for batch in [1, 17, 4096, 1 << 20] {
        let engine_config = EngineConfig::builder()
            .workers(2)
            .batch_size(batch)
            .try_build()
            .unwrap();
        let parallel =
            degentri_engine::parallel_estimate_triangles_with(&stream, &config, &engine_config)
                .unwrap();
        assert_eq!(parallel.copy_estimates, sequential.copy_estimates);
        assert_eq!(parallel.estimate.to_bits(), sequential.estimate.to_bits());
    }

    // Engine scheduling: the 3-copy cohort's shared sweeps run unsharded
    // on one worker and sharded across the whole pool on 9; the job
    // result must still match the sequential runner bit for bit.
    for workers in [1, 9] {
        let mut engine = Engine::with_workers(workers);
        engine.submit(JobSpec::main("sweep", config.clone()));
        let report = engine.run(&stream).unwrap();
        assert_eq!(
            report.jobs[0].estimation().copy_estimates,
            sequential.copy_estimates,
            "workers = {workers}"
        );
        assert_eq!(
            report.jobs[0].estimation().estimate.to_bits(),
            sequential.estimate.to_bits()
        );
        assert_eq!(report.stats.fused_cohorts, 1);
        assert_eq!(report.stats.workers, workers);
    }
}

#[test]
fn counter_mode_ideal_jobs_shard_across_spare_workers() {
    let graph = barabasi_albert(500, 5, 21).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(9));
    let config = test_config(5, 400, 2, 77);

    // 8 workers for 2 ideal copies → the copies fuse into one 3-pass
    // cohort whose shared sweeps shard across the whole pool: legal
    // because counter-based randomness makes the ideal estimator's
    // sampling passes order-insensitive.
    let mut engine = Engine::with_workers(8);
    engine.submit(JobSpec::ideal("ideal", config.clone()));
    let sharded = engine.run(&stream).unwrap();
    assert_eq!(sharded.stats.workers, 8);
    assert_eq!(sharded.stats.fused_cohorts, 1);

    // Bit-identical to a single worker and to the sequential oracle
    // runner.
    let mut engine = Engine::with_workers(1);
    engine.submit(JobSpec::ideal("ideal", config.clone()));
    let single = engine.run(&stream).unwrap();
    assert_eq!(single.stats.workers, 1);
    assert_eq!(
        sharded.jobs[0].estimation().copy_estimates,
        single.jobs[0].estimation().copy_estimates
    );
    let oracle = ExactDegreeOracle::build(&stream);
    let sequential = estimate_triangles_with_oracle(&stream, &oracle, &config).unwrap();
    assert_eq!(
        sharded.jobs[0].estimation().copy_estimates,
        sequential.copy_estimates
    );
    assert_eq!(
        sharded.jobs[0].estimation().estimate.to_bits(),
        sequential.estimate.to_bits()
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let graph = wheel(500).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(2));
    let config = test_config(3, 249, 7, 123);
    let first = parallel_estimate_triangles(&stream, &config, 4).unwrap();
    for _ in 0..3 {
        let again = parallel_estimate_triangles(&stream, &config, 4).unwrap();
        assert_eq!(again.copy_estimates, first.copy_estimates);
        assert_eq!(again.estimate.to_bits(), first.estimate.to_bits());
    }
}

#[test]
fn engine_jobs_match_direct_runs_and_report_throughput() {
    let graph = wheel(800).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(7));
    let m = EdgeStream::num_edges(&stream);
    let main_config = test_config(3, 399, 5, 77);
    let ideal_config = test_config(3, 399, 4, 13);

    let mut engine = Engine::new(EngineConfig::with_workers(4));
    engine.submit(JobSpec::main("main", main_config.clone()));
    engine.submit(JobSpec::ideal("ideal", ideal_config.clone()));
    let report = engine.run(&stream).unwrap();
    assert_eq!(report.jobs.len(), 2);

    // Main job: identical to the sequential public entry point.
    let sequential_main = estimate_triangles(&stream, &main_config).unwrap();
    assert_eq!(report.jobs[0].label, "main");
    assert_eq!(
        report.jobs[0].estimation().copy_estimates,
        sequential_main.copy_estimates
    );
    assert_eq!(
        report.jobs[0].estimation().estimate.to_bits(),
        sequential_main.estimate.to_bits()
    );

    // Ideal job: identical to the sequential oracle entry point.
    let oracle = ExactDegreeOracle::build(&stream);
    let sequential_ideal = estimate_triangles_with_oracle(&stream, &oracle, &ideal_config).unwrap();
    assert_eq!(
        report.jobs[1].estimation().copy_estimates,
        sequential_ideal.copy_estimates
    );

    // Throughput accounting counts *physical* snapshot traversals: the
    // five main copies share one six-pass cohort (6 sweeps), the 4 ideal
    // copies one three-pass cohort (3 sweeps), plus 1 oracle stats pass,
    // all over m edges.
    let expected_sweeps = (6 + 3 + 1) as u64;
    assert_eq!(report.stats.sweeps_executed, expected_sweeps);
    assert_eq!(report.stats.edges_streamed, expected_sweeps * m as u64);
    assert_eq!(report.stats.fused_cohorts, 2);
    assert_eq!(report.stats.tasks, 5 + 4);
    assert!(report.stats.edges_per_second > 0.0);
    assert!(report.stats.worker_utilization > 0.0);
    assert!(report.stats.busy_seconds >= 0.0);
    assert_eq!(report.stats.workers, 4);
}

#[test]
fn engine_is_deterministic_across_worker_counts() {
    let graph = wheel(400).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
    let config = test_config(3, 199, 6, 55);
    let run_with = |workers: usize| {
        let mut engine = Engine::with_workers(workers);
        engine.submit(JobSpec::main("a", config.clone()));
        engine.submit(JobSpec::main(
            "b",
            EstimatorConfig {
                seed: 99,
                ..config.clone()
            },
        ));
        engine.run(&stream).unwrap()
    };
    let reference = run_with(1);
    for workers in [2, 4, 7] {
        let report = run_with(workers);
        for (job, ref_job) in report.jobs.iter().zip(&reference.jobs) {
            assert_eq!(
                job.estimation().copy_estimates,
                ref_job.estimation().copy_estimates
            );
            assert_eq!(
                job.estimation().estimate.to_bits(),
                ref_job.estimation().estimate.to_bits()
            );
        }
    }
    // Different seeds genuinely produce different jobs.
    assert_ne!(
        reference.jobs[0].estimation().copy_estimates,
        reference.jobs[1].estimation().copy_estimates
    );
}

#[test]
fn engine_surfaces_estimator_errors() {
    let stream = MemoryStream::from_edges(4, Vec::new(), StreamOrder::AsGiven);
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::main("empty", test_config(3, 1, 3, 1)));
    assert!(engine.run(&stream).is_err());
}
