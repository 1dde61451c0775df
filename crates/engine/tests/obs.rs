//! Observability is observation-only: every estimate must be bit-identical
//! with recording on, off, or mixed across runs — for both estimators,
//! with unsharded and sharded cohort sweeps, and equal to the standalone
//! runners — and the assembled
//! [`RunReport`] must describe the run it came from (pass names, item
//! counts, self-times nested inside the wall time) and survive a JSON
//! round-trip.

use degentri_core::{EstimatorConfig, RngMode};
use degentri_dynamic::{DynamicEstimatorConfig, DynamicTriangleEstimator};
use degentri_engine::{Engine, EngineConfig, EngineReport, JobSpec};
use degentri_obs::{Counter, RunReport};
use degentri_stream::{DynamicMemoryStream, MemoryStream, StreamOrder};

fn main_config(copies: usize) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(5)
        .triangle_lower_bound(600)
        .r_constant(8.0)
        .inner_constant(16.0)
        .assignment_constant(6.0)
        .copies(copies)
        .seed(7)
        .rng_mode(RngMode::Counter)
        .try_build()
        .unwrap()
}

fn workload() -> MemoryStream {
    let graph = degentri_gen::barabasi_albert(400, 5, 3).unwrap();
    MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(4))
}

fn dynamic_workload() -> (DynamicMemoryStream, DynamicEstimatorConfig) {
    let graph = degentri_gen::barabasi_albert(200, 4, 9).unwrap();
    let stream = DynamicMemoryStream::with_churn(&graph, 0.5, 31);
    let config = DynamicEstimatorConfig::new(4, 80)
        .with_epsilon(0.3)
        .with_seed(13)
        .with_max_samples(96)
        .with_rng_mode(RngMode::Counter);
    (stream, config)
}

fn run_main(stream: &MemoryStream, engine_config: EngineConfig, copies: usize) -> EngineReport {
    let mut engine = Engine::new(engine_config);
    engine.submit(JobSpec::main("obs-main", main_config(copies)));
    engine.run(stream).unwrap()
}

fn run_dynamic(recording: bool, workers: usize) -> EngineReport {
    let (stream, config) = dynamic_workload();
    let mut engine = Engine::new(
        EngineConfig::builder()
            .workers(workers)
            .recording(recording)
            .try_build()
            .unwrap(),
    );
    engine.submit(JobSpec::dynamic("obs-dynamic", config));
    engine.run_dynamic(&stream).unwrap()
}

#[test]
fn recording_is_observation_only_for_main_jobs() {
    let stream = workload();
    let standalone = degentri_core::estimate_triangles(&stream, &main_config(4)).unwrap();
    // Unsharded sweeps on one worker, sharded sweeps on two and eight.
    for workers in [1, 2, 8] {
        let build = |recording: bool| {
            EngineConfig::builder()
                .workers(workers)
                .recording(recording)
                .try_build()
                .unwrap()
        };
        let on = run_main(&stream, build(true), 4);
        let off = run_main(&stream, build(false), 4);
        for report in [&on, &off] {
            assert_eq!(
                report.jobs[0].estimation().estimate.to_bits(),
                standalone.estimate.to_bits(),
                "workers={workers}"
            );
            assert_eq!(
                report.jobs[0].estimation().copy_estimates,
                standalone.copy_estimates
            );
        }
        assert!(on.run_report.is_some(), "recording run carries a report");
        assert!(off.run_report.is_none(), "silent run carries no report");
        // Recording never changes what was executed, only what was seen.
        assert_eq!(on.stats.sweeps_executed, off.stats.sweeps_executed);
        assert_eq!(on.stats.edges_streamed, off.stats.edges_streamed);
    }
}

#[test]
fn recording_is_observation_only_for_dynamic_jobs() {
    let (stream, config) = dynamic_workload();
    let standalone = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
    for workers in [1, 2, 4] {
        let on = run_dynamic(true, workers);
        let off = run_dynamic(false, workers);
        for report in [&on, &off] {
            assert_eq!(
                report.jobs[0].estimation().estimate.to_bits(),
                standalone.estimate.to_bits(),
                "workers={workers}"
            );
            assert_eq!(
                report.jobs[0].estimation().copy_estimates,
                standalone.copy_estimates
            );
        }
        assert!(on.run_report.is_some() && off.run_report.is_none());
    }
}

#[test]
fn fused_main_run_report_structure() {
    let stream = workload();
    let m = stream.edges().len() as u64;
    let copies = 4usize;
    let report = run_main(
        &stream,
        EngineConfig::builder()
            .workers(2)
            .recording(true)
            .try_build()
            .unwrap(),
        copies,
    );
    assert_eq!(report.stats.fused_cohorts, 1);
    let run: &RunReport = report.run_report.as_ref().unwrap();
    assert_eq!(run.cohorts.len(), 1);
    let cohort = &run.cohorts[0];
    assert_eq!(cohort.label, "six-pass");
    assert_eq!(cohort.copies, copies);
    assert_eq!(cohort.passes.len(), 6);
    for (pass, name) in cohort.passes.iter().zip([
        "p1_uniform_sample",
        "p2_degrees",
        "p3_neighbor_sample",
        "p4_closure",
        "p5_assignment_gather",
        "p6_assignment_closure",
    ]) {
        assert_eq!(pass.name, name);
        // One shared sweep sees the whole snapshot; every copy folds it.
        assert_eq!(pass.items, m);
        assert_eq!(pass.tally.items, m * copies as u64);
        assert_eq!(pass.shards.iter().map(|s| s.items).sum::<u64>(), m);
        assert!(!pass.shards.is_empty());
    }
    // Self-times nest inside the wall time and are not all zero.
    assert!(cohort.total_nanos() > 0);
    assert!(cohort.total_nanos() <= run.wall_nanos);
    // Job accounting in submission order, with a real queue latency.
    assert_eq!(run.jobs.len(), 1);
    assert_eq!(run.jobs[0].label, "obs-main");
    assert_eq!(run.jobs[0].tasks, copies);
    assert!(run.jobs[0].latency_nanos >= run.wall_nanos);
    // Merged metrics: six shared sweeps, each copy folding every item.
    assert_eq!(run.metrics.counter(Counter::SweepsExecuted), 6);
    assert_eq!(
        run.metrics.counter(Counter::ItemsFolded),
        6 * m * copies as u64
    );
    assert!(run.metrics.counter(Counter::ProbeHits) > 0);
    assert_eq!(run.metrics.counter(Counter::TasksExecuted), copies as u64);
    assert_eq!(run.metrics.counter(Counter::JobsCompleted), 1);
    assert_eq!(run.metrics.counter(Counter::CohortCopies), copies as u64);
}

#[test]
fn dynamic_run_report_and_per_pass_timings() {
    let report = run_dynamic(true, 2);
    let run = report.run_report.as_ref().unwrap();
    assert_eq!(run.cohorts.len(), 1);
    let cohort = &run.cohorts[0];
    assert_eq!(cohort.label, "turnstile");
    assert_eq!(cohort.passes.len(), 4);
    for (pass, name) in cohort.passes.iter().zip([
        "u1_l0_edge_sample",
        "u2_degrees",
        "u3_l0_neighbor_sample",
        "u4_closure",
    ]) {
        assert_eq!(pass.name, name);
        assert!(pass.tally.items > 0);
    }
    // The ℓ0 sketch bank is updated once per update per sampler in pass 1.
    assert!(run.metrics.counter(Counter::SketchUpdates) > 0);
    assert!(cohort.total_nanos() <= run.wall_nanos);
    // Satellite: the dynamic outcome now carries real per-pass wall times
    // (the fused driver records them through the same hook as the main
    // estimator), and they nest inside the run's wall time.
    let outcome = report.jobs[0].dynamic().unwrap();
    let pass_sum: u64 = outcome.pass_nanos.iter().sum();
    assert!(pass_sum > 0, "dynamic per-pass timings must be populated");
    assert!(pass_sum <= run.wall_nanos);
}

#[test]
fn run_report_json_round_trips_and_text_tree_names_passes() {
    let stream = workload();
    let report = run_main(
        &stream,
        EngineConfig::builder()
            .workers(2)
            .recording(true)
            .try_build()
            .unwrap(),
        4,
    );
    let run = report.run_report.unwrap();
    // Exact schema round-trip on a real report.
    let json = run.to_json();
    let parsed = RunReport::from_json(&json).unwrap();
    assert_eq!(parsed, run);
    // The text tree names the run, cohort, every pass, the job, and the
    // metrics summary.
    let tree = run.to_string();
    for needle in [
        "run ·",
        "cohort six-pass",
        "p1_uniform_sample",
        "p6_assignment_closure",
        "job obs-main",
        "metrics",
    ] {
        assert!(tree.contains(needle), "missing {needle:?} in:\n{tree}");
    }
}

#[test]
fn stats_display_reports_fusion_and_sweeps() {
    let stream = workload();
    let report = run_main(&stream, EngineConfig::with_workers(2), 4);
    let text = report.stats.to_string();
    assert!(text.contains("1 fused cohorts"), "{text}");
    assert!(text.contains("6 sweeps"), "{text}");
    // The invariant is enforced at stats construction.
    assert_eq!(
        report.stats.edges_streamed,
        report.stats.sweeps_executed * stream.edges().len() as u64
    );
}

/// `CohortReport::shards` is the count the sweeps actually used: every
/// pass carries exactly that many shard entries — one whole-snapshot shard
/// on one worker, and on two workers however many the partition cut from
/// the eight requested, fewer on a snapshot shorter than eight items.
#[test]
fn cohort_shard_count_matches_every_pass() {
    let short = MemoryStream::from_graph(&degentri_gen::wheel(4).unwrap(), StreamOrder::AsGiven);
    assert!(short.edges().len() < 8);
    for stream in [&short, &workload()] {
        for workers in [1, 2] {
            let mut engine = Engine::new(
                EngineConfig::builder()
                    .workers(workers)
                    .recording(true)
                    .try_build()
                    .unwrap(),
            );
            engine.submit(JobSpec::main("main", main_config(2)));
            engine.submit(JobSpec::dynamic("turnstile", dynamic_workload().1));
            let run = engine.run(stream).unwrap().run_report.unwrap();
            assert_eq!(run.cohorts.len(), 2);
            for cohort in &run.cohorts {
                assert!(!cohort.passes.is_empty());
                for pass in &cohort.passes {
                    assert_eq!(
                        pass.shards.len(),
                        cohort.shards,
                        "{} {} on {} items, workers={workers}",
                        cohort.label,
                        pass.name,
                        stream.edges().len()
                    );
                }
            }
        }
    }
}
