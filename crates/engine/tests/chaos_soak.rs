//! The chaos soak: seeded stochastic fault plans swept over a mixed
//! workload (plain, retrying, quorum-tolerant, and turnstile jobs) and
//! several worker counts. Whatever fires wherever it fires, every job
//! must land in exactly one of three lawful outcomes:
//!
//! 1. **Full strength** — bit-identical to the standalone runners.
//! 2. **Degraded** — the output aggregates *exactly* the surviving copies
//!    (checked bit-for-bit against the clean per-copy estimates), and the
//!    degradation record accounts for every configured copy.
//! 3. **Failed** — with an error the injection harness can actually
//!    produce. Never a torn aggregate, never a corrupted neighbor.
//!
//! Only compiled with `--features fault-inject` (CI's `chaos-soak` job).
//! `CHAOS_SOAK_SEEDS` overrides the number of plan seeds (default 8).
#![cfg(feature = "fault-inject")]

use degentri_core::faults::{self, FaultPlan};
use degentri_core::TriangleEstimation;
use degentri_core::{
    aggregate_copies, estimate_triangles, estimate_triangles_with_oracle, CopyContribution,
    EstimatorConfig, ExactDegreeOracle, RngMode,
};
use degentri_dynamic::{DynamicEstimatorConfig, DynamicOutcome, DynamicTriangleEstimator};
use degentri_engine::{
    Engine, EngineConfig, EngineError, JobKind, JobResult, JobSpec, QuorumPolicy, RetryPolicy,
};
use degentri_stream::{DynamicMemoryStream, EdgeStream, EdgeUpdate, MemoryStream, StreamOrder};

fn main_config(seed: u64, copies: usize) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(5)
        .triangle_lower_bound(600)
        .r_constant(8.0)
        .inner_constant(16.0)
        .assignment_constant(6.0)
        .copies(copies)
        .seed(seed)
        .rng_mode(RngMode::Counter)
        .try_build()
        .unwrap()
}

fn dyn_config(seed: u64, copies: usize) -> DynamicEstimatorConfig {
    DynamicEstimatorConfig::new(4, 80)
        .with_epsilon(0.3)
        .with_copies(copies)
        .with_seed(seed)
        .with_max_samples(96)
        .with_rng_mode(RngMode::Counter)
}

fn engine(workers: usize) -> Engine {
    Engine::new(
        EngineConfig::builder()
            .workers(workers)
            .try_build()
            .unwrap(),
    )
}

/// The soak's mixed batch: a plain job (all-or-nothing), a retrying
/// best-effort job, a quorum-tolerant ideal job, and a retrying turnstile
/// job — every recovery configuration in one cohort.
fn submit_all(engine: &mut Engine) {
    engine.submit(JobSpec::main("plain", main_config(101, 2)));
    engine.submit(
        JobSpec::main("retry", main_config(102, 3))
            .retry(RetryPolicy::new(2))
            .quorum(QuorumPolicy::best_effort()),
    );
    engine.submit(
        JobSpec::ideal("quorum-ideal", main_config(103, 3)).quorum(QuorumPolicy::at_least(1)),
    );
    engine.submit(
        JobSpec::dynamic("retry-dyn", dyn_config(104, 3))
            .retry(RetryPolicy::new(2))
            .quorum(QuorumPolicy::best_effort()),
    );
}

/// A turnstile outcome in the engine's common estimation shape.
fn dynamic_estimation(outcome: &DynamicOutcome) -> TriangleEstimation {
    TriangleEstimation {
        estimate: outcome.estimate,
        copy_estimates: outcome.copy_estimates.clone(),
        passes_per_copy: outcome.passes,
        space: outcome.space,
        copies: outcome.copies,
    }
}

/// An error the harness can actually inject (directly, or via the panic
/// containment layer). Anything else — above all `InvalidConfig` or a
/// silently wrong aggregate — is a soak failure.
fn is_lawful_error(error: &EngineError) -> bool {
    matches!(
        error,
        EngineError::Panicked { .. } | EngineError::Estimator(_) | EngineError::Dynamic(_)
    )
}

/// The median of the surviving copy estimates — exactly
/// `degentri_dynamic::aggregate_dynamic_copies`' aggregation rule.
fn median(estimates: &[f64]) -> f64 {
    let mut sorted = estimates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
    let mid = sorted.len() / 2;
    if sorted.is_empty() {
        0.0
    } else if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Asserts the trichotomy for one job against its clean reference.
/// Returns (failed, degraded) for the sweep's coverage accounting.
fn check_job(
    job: &JobResult,
    kind: &JobKind,
    clean: &TriangleEstimation,
    what: &str,
) -> (bool, bool) {
    let output = match &job.outcome {
        Err(error) => {
            assert!(is_lawful_error(error), "{what}: unlawful error {error:?}");
            return (true, false);
        }
        Ok(output) => output,
    };
    let est = &output.estimation;
    let Some(degradation) = &output.degraded else {
        // Full strength: bit-identical to the fault-free run.
        assert_eq!(
            est.estimate.to_bits(),
            clean.estimate.to_bits(),
            "{what}: full-strength estimate"
        );
        assert_eq!(est.copy_estimates, clean.copy_estimates, "{what}");
        return (false, false);
    };
    // Degraded: the record accounts for every configured copy, every
    // lost copy carries a lawful error, and the aggregate is exactly the
    // clean aggregate over the surviving subset.
    assert_eq!(
        degradation.copies_used + degradation.copies_lost,
        clean.copies,
        "{what}: degradation accounting"
    );
    assert_eq!(
        degradation.copy_errors.len(),
        degradation.copies_lost,
        "{what}"
    );
    for (copy, error) in &degradation.copy_errors {
        assert!(
            *copy < clean.copies,
            "{what}: lost copy {copy} out of range"
        );
        assert!(
            is_lawful_error(error),
            "{what}: unlawful copy error {error:?}"
        );
    }
    let lost: Vec<usize> = degradation.copy_errors.iter().map(|&(c, _)| c).collect();
    let surviving: Vec<f64> = (0..clean.copies)
        .filter(|c| !lost.contains(c))
        .map(|c| clean.copy_estimates[c])
        .collect();
    assert_eq!(
        est.copy_estimates, surviving,
        "{what}: degraded copies must be the clean survivors"
    );
    let expected = match kind {
        JobKind::Main(_) | JobKind::Ideal(_) => {
            let contributions: Vec<CopyContribution> = surviving
                .iter()
                .map(|&estimate| CopyContribution {
                    estimate,
                    passes: clean.passes_per_copy,
                    peak_words: 0,
                })
                .collect();
            aggregate_copies(&contributions).estimate
        }
        JobKind::Dynamic(_) => median(&surviving),
    };
    assert_eq!(
        est.estimate.to_bits(),
        expected.to_bits(),
        "{what}: degraded aggregate must equal the surviving-copy aggregate"
    );
    (false, true)
}

#[test]
fn seeded_chaos_soak_never_corrupts_any_job() {
    let seeds: u64 = std::env::var("CHAOS_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let graph = degentri_gen::barabasi_albert(300, 4, 3).unwrap();
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(4));

    // The fault-free reference for every job, from the standalone runners
    // (the turnstile job sees the edges as insertions), and each job's
    // kind (for the degraded-aggregate recomputation) — mirroring
    // `submit_all`.
    let kinds = [
        JobKind::Main(main_config(101, 2)),
        JobKind::Main(main_config(102, 3)),
        JobKind::Ideal(main_config(103, 3)),
        JobKind::Dynamic(dyn_config(104, 3)),
    ];
    let reference: Vec<TriangleEstimation> = faults::with_plan(FaultPlan::default(), || {
        let oracle = ExactDegreeOracle::build(&stream);
        let inserts = DynamicMemoryStream::from_updates(
            stream.num_vertices(),
            stream
                .edges()
                .iter()
                .map(|&e| EdgeUpdate::insert(e))
                .collect(),
        );
        kinds
            .iter()
            .map(|kind| match kind {
                JobKind::Main(config) => estimate_triangles(&stream, config).unwrap(),
                JobKind::Ideal(config) => {
                    estimate_triangles_with_oracle(&stream, &oracle, config).unwrap()
                }
                JobKind::Dynamic(config) => dynamic_estimation(
                    &DynamicTriangleEstimator::new(config.clone())
                        .run(&inserts)
                        .unwrap(),
                ),
            })
            .collect()
    });

    let mut fired_total = 0u64;
    let mut failures = 0usize;
    let mut degradations = 0usize;
    let mut retried = 0u64;
    for plan_seed in 1..=seeds {
        for workers in [1usize, 2, 4] {
            let what = format!("plan_seed={plan_seed} workers={workers}");
            let (report, observed) = faults::with_plan(FaultPlan::seeded(plan_seed, 40), || {
                let mut engine = engine(workers);
                submit_all(&mut engine);
                let report = engine.run(&stream).unwrap();
                (report, faults::report())
            });
            assert!(observed.total_probes() > 0, "{what}: no probes executed");
            fired_total += observed.total_fired();
            retried += report.stats.copies_retried;
            let mut run_failed = 0usize;
            let mut run_degraded = 0usize;
            for (i, job) in report.jobs.iter().enumerate() {
                let (failed, degraded) =
                    check_job(job, &kinds[i], &reference[i], &format!("{what} job={i}"));
                run_failed += usize::from(failed);
                run_degraded += usize::from(degraded);
            }
            // The run's own accounting agrees with the outcomes.
            assert_eq!(report.stats.jobs_failed, run_failed, "{what}");
            assert_eq!(report.stats.jobs_degraded, run_degraded, "{what}");
            failures += run_failed;
            degradations += run_degraded;
        }
    }
    // The soak must have exercised the machinery it claims to prove:
    // faults actually fired, and the recovery layer actually recovered.
    assert!(fired_total > 0, "no faults fired across the sweep");
    assert!(
        failures + degradations + retried as usize > 0,
        "no job ever failed, degraded, or retried across the sweep"
    );
}
