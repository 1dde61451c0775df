//! Mixed-kind batch parity: one engine run carrying main, ideal, and
//! dynamic jobs over a single edge snapshot must reproduce every job's
//! isolated run bit for bit — the fusion matrix (one cohort per job
//! kind) only changes how many physical sweeps the batch costs, never
//! any copy's estimate.

use degentri_core::{
    estimate_triangles, estimate_triangles_with_oracle, EstimatorConfig, ExactDegreeOracle,
    RngMode, TriangleEstimation,
};
use degentri_dynamic::{DynamicEstimatorConfig, DynamicTriangleEstimator};
use degentri_engine::{Engine, EngineConfig, JobSpec};
use degentri_stream::{DynamicMemoryStream, EdgeStream, EdgeUpdate, MemoryStream, StreamOrder};
use proptest::prelude::*;

fn workload() -> MemoryStream {
    let graph = degentri_gen::barabasi_albert(400, 5, 17).unwrap();
    MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(6))
}

fn main_config(copies: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(5)
        .triangle_lower_bound(500)
        .r_constant(8.0)
        .inner_constant(16.0)
        .assignment_constant(6.0)
        .copies(copies)
        .seed(seed)
        .try_build()
        .unwrap()
}

fn dyn_config(copies: usize, seed: u64) -> DynamicEstimatorConfig {
    DynamicEstimatorConfig::new(5, 200)
        .with_epsilon(0.3)
        .with_copies(copies)
        .with_seed(seed)
        .with_max_samples(96)
        .with_rng_mode(RngMode::Counter)
}

/// The standalone reference for a dynamic job scheduled on an edge
/// snapshot: the estimator fed the same edges as an insert-only update
/// stream.
fn dynamic_reference(
    stream: &MemoryStream,
    config: &DynamicEstimatorConfig,
) -> degentri_dynamic::DynamicOutcome {
    let inserts = stream
        .edges()
        .iter()
        .map(|&edge| EdgeUpdate::insert(edge))
        .collect();
    let insert_stream =
        DynamicMemoryStream::from_updates(EdgeStream::num_vertices(stream), inserts);
    DynamicTriangleEstimator::new(config.clone())
        .run(&insert_stream)
        .unwrap()
}

fn assert_estimation_eq(actual: &TriangleEstimation, expected: &TriangleEstimation, what: &str) {
    assert_eq!(
        actual.copy_estimates, expected.copy_estimates,
        "{what}: copy estimates"
    );
    assert_eq!(
        actual.estimate.to_bits(),
        expected.estimate.to_bits(),
        "{what}: aggregate"
    );
}

/// All three matrix cells in one batch, across worker counts and ragged
/// chunk boundaries: every job is bit-identical to its isolated run, and
/// the batch's physical sweep count collapses far below the unfused sum.
#[test]
fn mixed_kind_batches_match_isolated_runs_bit_for_bit() {
    let stream = workload();
    let counter = main_config(3, 41);
    let ideal = main_config(3, 43);
    let dynamic = dyn_config(3, 44);

    // Isolated references, computed once: the public sequential-runner
    // entry points (scheduling must never change what they produce).
    let counter_ref = estimate_triangles(&stream, &counter).unwrap();
    let oracle = ExactDegreeOracle::build(&stream);
    let ideal_ref = estimate_triangles_with_oracle(&stream, &oracle, &ideal).unwrap();
    let dynamic_ref = dynamic_reference(&stream, &dynamic);

    for workers in [1usize, 2, 4] {
        for batch in [383usize, 4096] {
            let mut engine = Engine::new(
                EngineConfig::builder()
                    .workers(workers)
                    .batch_size(batch)
                    .try_build()
                    .unwrap(),
            );
            engine.submit(JobSpec::main("counter", counter.clone()));
            engine.submit(JobSpec::ideal("ideal", ideal.clone()));
            engine.submit(JobSpec::dynamic("dynamic", dynamic.clone()));
            let report = engine.run(&stream).unwrap();
            let what = format!("workers {workers} batch {batch}");

            assert_estimation_eq(report.jobs[0].estimation(), &counter_ref, &what);
            assert_estimation_eq(report.jobs[1].estimation(), &ideal_ref, &what);
            assert_eq!(
                report.jobs[2].estimation().copy_estimates,
                dynamic_ref.copy_estimates,
                "{what}: dynamic copies"
            );
            assert_eq!(
                report.jobs[2].estimation().estimate.to_bits(),
                dynamic_ref.estimate.to_bits(),
                "{what}: dynamic aggregate"
            );

            // Sweep accounting: one cohort per kind — 6 six-pass sweeps,
            // 3 ideal sweeps, 4 turnstile sweeps — plus the oracle stats
            // pass.
            let fused_total = 6 + 3 + 4 + 1;
            let unfused_total = 3 * 6 + 3 * 3 + 3 * 4 + 1;
            assert_eq!(report.stats.sweeps_executed, fused_total, "{what}");
            assert!(
                report.stats.sweeps_executed < unfused_total,
                "{what}: fused batch must beat the unfused sum"
            );
            assert_eq!(
                report.stats.fused_cohorts, 3,
                "{what}: six-pass + ideal + turnstile"
            );
            assert!(report.stats.fused_sweeps > 0, "{what}");
            assert_eq!(
                report.stats.fused_sweeps + report.stats.per_copy_sweeps,
                report.stats.sweeps_executed,
                "{what}: tier accounting must partition the sweeps"
            );
        }
    }
}

/// A six-pass + turnstile batch matches the standalone runners, which
/// drive the same copies one at a time, and every sweep it makes is a
/// cohort sweep.
#[test]
fn main_and_turnstile_batch_matches_standalone_runs() {
    let stream = workload();
    let counter = main_config(2, 7);
    let dynamic = dyn_config(2, 8);

    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::main("main", counter.clone()));
    engine.submit(JobSpec::dynamic("dynamic", dynamic.clone()));
    let report = engine.run(&stream).unwrap();
    assert_estimation_eq(
        report.jobs[0].estimation(),
        &estimate_triangles(&stream, &counter).unwrap(),
        "main",
    );
    let dynamic_ref = dynamic_reference(&stream, &dynamic);
    assert_eq!(
        report.jobs[1].estimation().copy_estimates,
        dynamic_ref.copy_estimates
    );
    assert_eq!(
        report.jobs[1].estimation().estimate.to_bits(),
        dynamic_ref.estimate.to_bits()
    );
    // 6 + 4 cohort sweeps, against 2 × 6 + 2 × 4 copy by copy.
    assert_eq!(report.stats.sweeps_executed, 6 + 4);
    assert_eq!(report.stats.fused_sweeps, report.stats.sweeps_executed);
    assert_eq!(report.stats.per_copy_sweeps, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mixed-kind groupings — any mix of six-pass, ideal and
    /// turnstile jobs, each kind fused into its own cohort with its own
    /// pass budget — never change any copy's estimate.
    #[test]
    fn ragged_mixed_groupings_never_change_any_copys_estimate(
        job_shapes in proptest::collection::vec((0usize..3, 1usize..4, 0u64..1000), 1..5),
        workers in 1usize..5,
    ) {
        let stream = workload();
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(workers)
                .try_build()
                .unwrap(),
        );
        for (i, &(kind, copies, seed)) in job_shapes.iter().enumerate() {
            let label = format!("job-{i}");
            let _ = match kind {
                0 => engine.submit(JobSpec::main(label, main_config(copies, seed))),
                1 => engine.submit(JobSpec::ideal(label, main_config(copies, seed))),
                _ => engine.submit(JobSpec::dynamic(label, dyn_config(copies, seed))),
            };
        }
        let report = engine.run(&stream).unwrap();
        let oracle = ExactDegreeOracle::build(&stream);
        for (job, &(kind, copies, seed)) in report.jobs.iter().zip(job_shapes.iter()) {
            match kind {
                0 => {
                    let reference =
                        estimate_triangles(&stream, &main_config(copies, seed)).unwrap();
                    prop_assert_eq!(&job.estimation().copy_estimates, &reference.copy_estimates);
                }
                1 => {
                    let reference = estimate_triangles_with_oracle(
                        &stream,
                        &oracle,
                        &main_config(copies, seed),
                    )
                    .unwrap();
                    prop_assert_eq!(&job.estimation().copy_estimates, &reference.copy_estimates);
                }
                _ => {
                    let reference = dynamic_reference(&stream, &dyn_config(copies, seed));
                    prop_assert_eq!(&job.estimation().copy_estimates, &reference.copy_estimates);
                }
            }
        }
    }
}
