//! Engine-vs-standalone parity for the turnstile estimator: a
//! [`JobKind::Dynamic`] job scheduled by the engine must reproduce the
//! standalone [`DynamicTriangleEstimator::run`] bit for bit — across
//! worker counts, with unsharded and sharded cohort sweeps — because
//! copies carry the same derived seeds and the median aggregation is
//! shared.

use degentri_core::RngMode;
use degentri_dynamic::{DynamicEstimatorConfig, DynamicOutcome, DynamicTriangleEstimator};
use degentri_engine::{Engine, EngineConfig, EngineError, JobSpec};
use degentri_gen::{barabasi_albert, wheel};
use degentri_graph::triangles::count_triangles;
use degentri_stream::{
    DynamicMemoryStream, EdgeUpdate, MemoryStream, ShardedDynamicStream, StreamOrder,
};

fn workload() -> (DynamicMemoryStream, DynamicEstimatorConfig) {
    let g = barabasi_albert(140, 4, 5).unwrap();
    let stream = DynamicMemoryStream::with_churn(&g, 0.5, 23);
    let config = DynamicEstimatorConfig::new(4, count_triangles(&g).max(1) / 2)
        .with_epsilon(0.3)
        .with_copies(4)
        .with_seed(19)
        .with_max_samples(120);
    (stream, config)
}

fn assert_same(engine: &degentri_engine::JobResult, standalone: &DynamicOutcome, what: &str) {
    assert_eq!(
        engine.estimation().estimate.to_bits(),
        standalone.estimate.to_bits(),
        "{what}: estimate"
    );
    assert_eq!(
        engine.estimation().copy_estimates,
        standalone.copy_estimates,
        "{what}: copies"
    );
    assert_eq!(engine.estimation().space, standalone.space, "{what}: space");
    let dynamic = engine.dynamic().expect("dynamic outcome attached");
    assert_eq!(dynamic.surviving_edges, standalone.surviving_edges);
    assert_eq!(dynamic.triangles_found, standalone.triangles_found);
    assert_eq!(dynamic.r, standalone.r);
}

#[test]
fn engine_matches_standalone_across_workers_and_modes() {
    let (stream, config) = workload();
    let standalone = DynamicTriangleEstimator::new(config.clone())
        .run(&stream)
        .unwrap();
    for workers in [1usize, 2, 4] {
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(workers)
                .try_build()
                .unwrap(),
        );
        engine.submit(JobSpec::dynamic("turnstile", config.clone()));
        let report = engine.run_dynamic(&stream).unwrap();
        assert_same(&report.jobs[0], &standalone, &format!("workers {workers}"));
        assert_eq!(report.stats.tasks, config.copies);
        assert!(report.stats.edges_streamed > 0);
    }
}

#[test]
fn engine_forces_counter_mode_by_default() {
    let (stream, config) = workload();
    // The engine's result must equal a standalone counter-mode run.
    let counter = DynamicTriangleEstimator::new(config.clone().with_rng_mode(RngMode::Counter))
        .run(&stream)
        .unwrap();
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic("forced", config.clone()));
    let report = engine.run_dynamic(&stream).unwrap();
    assert_same(&report.jobs[0], &counter, "forced counter");
}

#[test]
fn spare_workers_shard_counter_mode_copies_bit_identically() {
    let (stream, config) = workload();
    // 2 copies on 8 workers: 4 shard workers per copy.
    let config = config.with_copies(2);
    let mut wide = Engine::with_workers(8);
    wide.submit(JobSpec::dynamic("sharded", config.clone()));
    let sharded = wide.run_dynamic(&stream).unwrap();
    // The fused cohort shards its shared sweeps across the whole pool.
    assert_eq!(sharded.stats.workers, 8);
    assert_eq!(sharded.stats.fused_cohorts, 1);

    // Bit-identical to the standalone estimator, which drives the same
    // copies one at a time.
    let standalone = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
    assert_same(&sharded.jobs[0], &standalone, "sharded sweeps");
}

#[test]
fn engine_copies_match_manual_sharded_copies_at_every_shard_count() {
    // The engine picks one shard count from its worker budget; the runner
    // API lets tests pin any shard count. All of them must agree with the
    // engine result (and with each other).
    let (stream, config) = workload();
    let config = config.with_rng_mode(RngMode::Counter).with_copies(2);
    let estimator = DynamicTriangleEstimator::new(config.clone());
    let mut engine = Engine::with_workers(8);
    engine.submit(JobSpec::dynamic("reference", config.clone()));
    let report = engine.run_dynamic(&stream).unwrap();
    for shards in 1..=8usize {
        for workers in [1usize, 2, 4] {
            let view = ShardedDynamicStream::from_stream(&stream, shards);
            let out = estimator.run_sharded(&view, workers).unwrap();
            assert_eq!(
                out.copy_estimates,
                report.jobs[0].estimation().copy_estimates,
                "shards {shards} workers {workers}"
            );
        }
    }
}

#[test]
fn many_dynamic_jobs_share_one_snapshot() {
    let (stream, config) = workload();
    let mut engine = Engine::with_workers(4);
    for (i, seed) in [1u64, 2, 3].iter().enumerate() {
        engine.submit(JobSpec::dynamic(
            format!("job {i}"),
            config.clone().with_seed(*seed).with_copies(2),
        ));
    }
    let report = engine.run_dynamic(&stream).unwrap();
    assert_eq!(report.jobs.len(), 3);
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!(job.label, format!("job {i}"));
        assert_eq!(job.tasks, 2);
        let standalone = DynamicTriangleEstimator::new(
            config
                .clone()
                .with_seed([1u64, 2, 3][i])
                .with_copies(2)
                .with_rng_mode(RngMode::Counter),
        )
        .run(&stream)
        .unwrap();
        assert_same(job, &standalone, &format!("job {i}"));
    }
    // The queue was drained; the engine is reusable.
    assert_eq!(engine.queued_jobs(), 0);
}

#[test]
fn entry_point_matrix_is_enforced() {
    let (dynamic_stream, dynamic_config) = workload();
    let g = wheel(60).unwrap();
    let edge_stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);

    // A turnstile job over an edge snapshot runs on the insert-only
    // materialization of the edges — bit-identical to the standalone
    // estimator fed the same stream as inserts.
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic("turnstile", dynamic_config.clone()));
    let report = engine.run(&edge_stream).unwrap();
    let inserts = edge_stream
        .edges()
        .iter()
        .map(|&edge| EdgeUpdate::insert(edge))
        .collect();
    let insert_stream = DynamicMemoryStream::from_updates(g.num_vertices(), inserts);
    let standalone =
        DynamicTriangleEstimator::new(dynamic_config.clone().with_rng_mode(RngMode::Counter))
            .run(&insert_stream)
            .unwrap();
    assert_same(&report.jobs[0], &standalone, "turnstile on edge snapshot");

    // An insert-only job cannot run over a dynamic snapshot.
    let main_config = degentri_core::EstimatorConfig::builder()
        .kappa(3)
        .triangle_lower_bound(59)
        .copies(2)
        .build();
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::main("insert-only", main_config));
    assert!(matches!(
        engine.run_dynamic(&dynamic_stream),
        Err(EngineError::UnsupportedJob { .. })
    ));

    // Invalid dynamic configurations fail validation up front.
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic(
        "bad",
        dynamic_config.clone().with_epsilon(2.0),
    ));
    assert!(matches!(
        engine.run_dynamic(&dynamic_stream),
        Err(EngineError::Dynamic(_))
    ));

    // An empty dynamic snapshot is rejected like the standalone runner.
    let empty = DynamicMemoryStream::from_updates(4, Vec::new());
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic("empty", dynamic_config));
    assert!(matches!(
        engine.run_dynamic(&empty),
        Err(EngineError::Dynamic(_))
    ));

    // An empty queue over a dynamic snapshot is a valid no-op.
    let mut engine = Engine::with_workers(2);
    let report = engine.run_dynamic(&dynamic_stream).unwrap();
    assert!(report.jobs.is_empty());
    assert_eq!(report.stats.tasks, 0);
}
