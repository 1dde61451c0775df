//! The recovery layer, proven end to end: copy-level containment keeps a
//! failing copy from sinking its job, deterministic retries re-run only
//! the failed copies (bit-identical, because counter-mode randomness keys
//! every draw by stream position and copy seed), and quorum policies
//! accept the surviving-copy aggregate when retries run dry.
//!
//! The root module needs no features (clean-run inertness of the new
//! policies); the `faulted` module drives the injection harness and only
//! compiles with `--features fault-inject`.

use std::time::Duration;

use degentri_core::{estimate_triangles, EstimatorConfig, RngMode, TriangleEstimation};
use degentri_engine::{
    Backoff, Engine, EngineConfig, EngineError, JobSpec, QuorumPolicy, RetryPolicy,
};
use degentri_stream::{MemoryStream, StreamOrder};

fn main_config(seed: u64) -> EstimatorConfig {
    main_config_copies(seed, 2)
}

fn main_config_copies(seed: u64, copies: usize) -> EstimatorConfig {
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

fn workload() -> MemoryStream {
    let graph = degentri_gen::barabasi_albert(300, 4, 3).unwrap();
    MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(4))
}

fn engine(workers: usize) -> Engine {
    Engine::new(
        EngineConfig::builder()
            .workers(workers)
            .try_build()
            .unwrap(),
    )
}

/// Runs `f` with an empty fault plan installed when the injection feature
/// is compiled in (the harness is process-global; see `fault_isolation`).
fn quiesced<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "fault-inject")]
    {
        degentri_core::faults::with_plan(degentri_core::faults::FaultPlan::default(), f)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        f()
    }
}

fn assert_bits(actual: &TriangleEstimation, expected: &TriangleEstimation, what: &str) {
    assert_eq!(
        actual.estimate.to_bits(),
        expected.estimate.to_bits(),
        "{what}: estimate"
    );
    assert_eq!(
        actual.copy_estimates, expected.copy_estimates,
        "{what}: copy estimates"
    );
}

/// Retry and quorum policies on a clean run are pure metadata: results,
/// stats, and the degradation field all match a policy-free run.
#[test]
fn recovery_policies_are_inert_on_clean_runs() {
    let stream = workload();
    let reference = quiesced(|| estimate_triangles(&stream, &main_config(31)).unwrap());
    quiesced(|| {
        for workers in [1usize, 2, 4] {
            let mut engine = engine(workers);
            engine.submit(
                JobSpec::main("tuned", main_config(31))
                    .retry(
                        RetryPolicy::new(3).with_backoff(Backoff::Fixed(Duration::from_millis(5))),
                    )
                    .quorum(QuorumPolicy::best_effort()),
            );
            let report = engine.run(&stream).unwrap();
            let what = format!("workers={workers}");
            assert!(report.jobs[0].is_ok(), "{what}");
            assert!(!report.jobs[0].is_degraded(), "{what}");
            assert_bits(report.jobs[0].estimation(), &reference, &what);
            assert_eq!(report.stats.copies_retried, 0, "{what}");
            assert_eq!(report.stats.copies_quarantined, 0, "{what}");
            assert_eq!(report.stats.jobs_degraded, 0, "{what}");
            assert_eq!(report.stats.retry_backoff_seconds, 0.0, "{what}");
        }
    });
}

/// `max_attempts = 0` is rejected up front, on the job and on the engine
/// default, before any task runs.
#[test]
fn zero_attempt_retry_policies_are_rejected() {
    let stream = workload();
    quiesced(|| {
        let mut engine = engine(1);
        engine.submit(JobSpec::main("bad", main_config(1)).retry(RetryPolicy::new(0)));
        assert!(matches!(
            engine.run(&stream),
            Err(EngineError::InvalidConfig { .. })
        ));
        assert!(EngineConfig::builder()
            .retry_policy(RetryPolicy::new(0))
            .try_build()
            .is_err());
    });
}

#[cfg(feature = "fault-inject")]
mod faulted {
    use super::*;
    use std::time::Instant;

    use degentri_core::faults::{self, FaultKind, FaultPlan, FaultSite};
    use degentri_core::{
        aggregate_copies, estimate_triangles_with_oracle, ideal_copy_seed, main_copy_seed,
        run_main_copy, CopyContribution, EstimatorError, ExactDegreeOracle, FaultRule,
    };
    use degentri_dynamic::{
        aggregate_dynamic_copies, dynamic_copy_seed, run_dynamic_copy, DynamicEstimatorConfig,
        DynamicTriangleEstimator,
    };
    use degentri_stream::DynamicMemoryStream;

    fn dyn_config(seed: u64, copies: usize) -> DynamicEstimatorConfig {
        DynamicEstimatorConfig::new(4, 80)
            .with_epsilon(0.3)
            .with_copies(copies)
            .with_seed(seed)
            .with_max_samples(96)
            .with_rng_mode(RngMode::Counter)
    }

    /// A transient `FailTimes(1)` fault heals on re-execution: the retry
    /// layer re-runs exactly the failed copy and the job comes back at
    /// full strength, bit-identical to the standalone run, at every worker
    /// count. The deterministic schedule also means two faulted runs agree
    /// with each other bit for bit.
    #[test]
    fn transient_fault_retries_back_to_full_strength() {
        let stream = workload();
        let seed = 71u64;
        let reference = quiesced(|| estimate_triangles(&stream, &main_config(seed)).unwrap());
        for workers in [1usize, 2, 4] {
            // Copy 1's third pass finish fails once, then heals.
            let plan = FaultPlan::single(
                FaultSite::MainFinish,
                main_copy_seed(seed, 1),
                2,
                FaultKind::FailTimes(1),
            );
            let run = || {
                faults::with_plan(plan.clone(), || {
                    let mut engine = engine(workers);
                    engine
                        .submit(JobSpec::main("job", main_config(seed)).retry(RetryPolicy::new(2)));
                    engine.run(&stream).unwrap()
                })
            };
            let report = run();
            let what = format!("workers={workers}");
            assert!(
                report.jobs[0].is_ok(),
                "{what}: {:?}",
                report.jobs[0].error()
            );
            assert!(!report.jobs[0].is_degraded(), "{what}");
            assert_bits(report.jobs[0].estimation(), &reference, &what);
            assert_eq!(report.stats.jobs_failed, 0, "{what}");
            assert_eq!(report.stats.copies_retried, 1, "{what}");
            assert_eq!(report.stats.copies_quarantined, 0, "{what}");
            // Only the failing copy left the cohort; the retry attempt
            // counts as a retry, not as another eviction.
            assert_eq!(report.stats.copies_evicted, 1, "{what}");
            // Re-running the identical faulted configuration (fresh plan,
            // fresh hit counters) reproduces the result exactly.
            let again = run();
            assert_bits(
                again.jobs[0].estimation(),
                report.jobs[0].estimation(),
                &what,
            );
        }
    }

    /// Ideal copies go through the same retry path: a one-shot panic at
    /// one ideal copy's pass boundary evicts that copy, the retry rebuilds
    /// and re-drives it as a one-member cohort, and the job comes back at
    /// full strength, bit-identical to the standalone oracle runner.
    #[test]
    fn transient_ideal_fault_retries_back_to_full_strength() {
        let stream = workload();
        let seed = 97u64;
        let config = main_config_copies(seed, 3);
        let reference = quiesced(|| {
            let oracle = ExactDegreeOracle::build(&stream);
            estimate_triangles_with_oracle(&stream, &oracle, &config).unwrap()
        });
        for workers in [1usize, 2, 4] {
            // Copy 1 panics once, at its second pass boundary.
            let plan = FaultPlan::single(
                FaultSite::PassBoundary,
                ideal_copy_seed(seed, 1),
                1,
                FaultKind::Panic,
            );
            let report = faults::with_plan(plan, || {
                let mut engine = engine(workers);
                engine.submit(JobSpec::ideal("ideal", config.clone()).retry(RetryPolicy::new(2)));
                engine.run(&stream).unwrap()
            });
            let what = format!("ideal workers={workers}");
            assert!(
                report.jobs[0].is_ok(),
                "{what}: {:?}",
                report.jobs[0].error()
            );
            assert!(!report.jobs[0].is_degraded(), "{what}");
            assert_bits(report.jobs[0].estimation(), &reference, &what);
            assert_eq!(report.stats.copies_evicted, 1, "{what}");
            assert_eq!(report.stats.copies_retried, 1, "{what}");
            assert_eq!(report.stats.copies_quarantined, 0, "{what}");
        }
    }

    /// A retry attempt probes `TaskStart` with the member's own fault key —
    /// for an ideal copy its ideal seed, the key its cohort's pass-boundary
    /// probes use. Both rules below target ideal copy 1: the pass-boundary
    /// panic sends it to the retry layer, and the task-start error must
    /// then cut the retry, so the job fails with exactly that error.
    #[test]
    fn ideal_retry_probes_task_start_with_the_ideal_fault_key() {
        let stream = workload();
        let seed = 101u64;
        let key = ideal_copy_seed(seed, 1);
        let plan = FaultPlan::targeted(vec![
            FaultRule {
                site: FaultSite::PassBoundary,
                key: Some(key),
                after_hits: 0,
                kind: FaultKind::Panic,
            },
            FaultRule {
                site: FaultSite::TaskStart,
                key: Some(key),
                after_hits: 0,
                kind: FaultKind::Error,
            },
        ]);
        let report = faults::with_plan(plan, || {
            let mut engine = engine(2);
            engine.submit(
                JobSpec::ideal("ideal", main_config_copies(seed, 3)).retry(RetryPolicy::new(2)),
            );
            engine.run(&stream).unwrap()
        });
        assert!(
            matches!(
                report.jobs[0].error(),
                Some(EngineError::Estimator(EstimatorError::Injected {
                    site: FaultSite::TaskStart,
                }))
            ),
            "got {:?}",
            report.jobs[0].outcome
        );
        assert_eq!(report.stats.copies_retried, 1);
        assert_eq!(report.stats.copies_quarantined, 1);
    }

    /// The turnstile estimator goes through the same retry path: a
    /// transient `DynamicFinish` fault is retried back to a full-strength
    /// result, bit-identical to the standalone estimator.
    #[test]
    fn transient_dynamic_fault_retries_back_to_full_strength() {
        let graph = degentri_gen::barabasi_albert(200, 4, 9).unwrap();
        let stream = DynamicMemoryStream::with_churn(&graph, 0.5, 31);
        let seed = 43u64;
        let reference = quiesced(|| {
            DynamicTriangleEstimator::new(dyn_config(seed, 2))
                .run(&stream)
                .unwrap()
        });
        for workers in [1usize, 2, 4] {
            let plan = FaultPlan::single(
                FaultSite::DynamicFinish,
                dynamic_copy_seed(seed, 1),
                1,
                FaultKind::FailTimes(1),
            );
            let report = faults::with_plan(plan, || {
                let mut engine = engine(workers);
                engine.submit(
                    JobSpec::dynamic("job", dyn_config(seed, 2)).retry(RetryPolicy::new(2)),
                );
                engine.run_dynamic(&stream).unwrap()
            });
            let what = format!("dynamic workers={workers}");
            assert!(
                report.jobs[0].is_ok(),
                "{what}: {:?}",
                report.jobs[0].error()
            );
            assert!(!report.jobs[0].is_degraded(), "{what}");
            let estimation = report.jobs[0].estimation();
            assert_eq!(
                estimation.estimate.to_bits(),
                reference.estimate.to_bits(),
                "{what}: estimate"
            );
            assert_eq!(
                estimation.copy_estimates, reference.copy_estimates,
                "{what}: copy estimates"
            );
            assert_eq!(report.stats.copies_retried, 1, "{what}");
        }
    }

    /// A persistent fault outlives the retry budget; the copy quarantines
    /// and the job succeeds degraded, with its aggregate equal — bit for
    /// bit — to the core API's aggregation over exactly the surviving
    /// copies. Without a tolerant quorum the same failure fails the job.
    #[test]
    fn persistent_fault_quarantines_into_the_degraded_aggregate() {
        let stream = workload();
        let seed = 73u64;
        let config = main_config_copies(seed, 3);
        // The reference: the surviving copies 0 and 2, aggregated by the
        // sequential building blocks the engine is bit-compatible with.
        let expected = quiesced(|| {
            let contributions: Vec<CopyContribution> = [0usize, 2]
                .iter()
                .map(|&copy| {
                    CopyContribution::from(&run_main_copy(&stream, &config, copy).unwrap())
                })
                .collect();
            aggregate_copies(&contributions)
        });
        let plan = || {
            FaultPlan::single(
                FaultSite::MainFinish,
                main_copy_seed(seed, 1),
                0,
                FaultKind::FailTimes(u64::MAX),
            )
        };
        for workers in [1usize, 2, 4] {
            let report = faults::with_plan(plan(), || {
                let mut engine = engine(workers);
                engine.submit(
                    JobSpec::main("job", config.clone())
                        .retry(RetryPolicy::new(2))
                        .quorum(QuorumPolicy::best_effort()),
                );
                engine.run(&stream).unwrap()
            });
            let what = format!("workers={workers}");
            assert!(
                report.jobs[0].is_ok(),
                "{what}: {:?}",
                report.jobs[0].error()
            );
            let degradation = report.jobs[0].degradation().expect("degraded").clone();
            assert_eq!(degradation.copies_used, 2, "{what}");
            assert_eq!(degradation.copies_lost, 1, "{what}");
            assert_eq!(degradation.copy_errors.len(), 1, "{what}");
            assert_eq!(degradation.copy_errors[0].0, 1, "{what}");
            assert!(
                matches!(
                    degradation.copy_errors[0].1,
                    EngineError::Estimator(EstimatorError::Injected {
                        site: FaultSite::MainFinish,
                    })
                ),
                "{what}: {:?}",
                degradation.copy_errors[0].1
            );
            assert_bits(report.jobs[0].estimation(), &expected, &what);
            assert_eq!(report.stats.jobs_degraded, 1, "{what}");
            assert_eq!(report.stats.copies_quarantined, 1, "{what}");
            // One retry attempt was spent before quarantining.
            assert_eq!(report.stats.copies_retried, 1, "{what}");
        }
        // A quorum demanding all three copies rejects the degraded result;
        // so does the default all-or-nothing policy.
        for quorum in [QuorumPolicy::at_least(3), QuorumPolicy::default()] {
            let report = faults::with_plan(plan(), || {
                let mut engine = engine(2);
                engine.submit(
                    JobSpec::main("job", config.clone())
                        .retry(RetryPolicy::new(2))
                        .quorum(quorum),
                );
                engine.run(&stream).unwrap()
            });
            assert!(
                matches!(
                    report.jobs[0].error(),
                    Some(EngineError::Estimator(EstimatorError::Injected {
                        site: FaultSite::MainFinish,
                    }))
                ),
                "quorum {quorum:?}: {:?}",
                report.jobs[0].error()
            );
            assert_eq!(report.stats.jobs_failed, 1);
        }
    }

    /// A retry budget of zero quarantines immediately: no attempts, no
    /// sleeps, straight to the degraded path.
    #[test]
    fn exhausted_retry_budget_quarantines_without_attempts() {
        let stream = workload();
        let seed = 77u64;
        let plan = FaultPlan::single(
            FaultSite::MainFinish,
            main_copy_seed(seed, 0),
            0,
            FaultKind::FailTimes(u64::MAX),
        );
        let report = faults::with_plan(plan, || {
            let mut engine = engine(2);
            engine.submit(
                JobSpec::main("job", main_config_copies(seed, 3))
                    .retry(RetryPolicy::new(5).with_budget(0))
                    .quorum(QuorumPolicy::best_effort()),
            );
            engine.run(&stream).unwrap()
        });
        assert!(report.jobs[0].is_degraded());
        assert_eq!(report.stats.copies_retried, 0);
        assert_eq!(report.stats.copies_quarantined, 1);
    }

    /// A retry whose backoff cannot fit before the job deadline
    /// short-circuits to `DeadlineExceeded` without sleeping: under a
    /// tolerant quorum the job degrades, under the default it fails — and
    /// either way the run returns long before the 10-second backoff.
    #[test]
    fn retry_exceeding_the_deadline_short_circuits_without_sleeping() {
        let stream = workload();
        let seed = 79u64;
        let plan = || {
            FaultPlan::single(
                FaultSite::MainFinish,
                main_copy_seed(seed, 1),
                0,
                FaultKind::FailTimes(u64::MAX),
            )
        };
        let policy = RetryPolicy::new(3).with_backoff(Backoff::Fixed(Duration::from_secs(10)));
        for (quorum, expect_degraded) in [
            (QuorumPolicy::best_effort(), true),
            (QuorumPolicy::default(), false),
        ] {
            let started = Instant::now();
            let report = faults::with_plan(plan(), || {
                let mut engine = engine(2);
                engine.submit(
                    JobSpec::main("job", main_config_copies(seed, 3))
                        .retry(policy)
                        .quorum(quorum)
                        .deadline(Duration::from_secs(2)),
                );
                engine.run(&stream).unwrap()
            });
            let elapsed = started.elapsed();
            let what = format!("degraded={expect_degraded}");
            assert!(
                elapsed < Duration::from_secs(8),
                "{what}: backoff slept through the deadline ({elapsed:?})"
            );
            if expect_degraded {
                let degradation = report.jobs[0].degradation().expect("degraded");
                assert!(
                    matches!(
                        degradation.copy_errors[0].1,
                        EngineError::DeadlineExceeded { .. }
                    ),
                    "{what}: {:?}",
                    degradation.copy_errors[0].1
                );
            } else {
                assert!(
                    matches!(
                        report.jobs[0].error(),
                        Some(EngineError::DeadlineExceeded { .. })
                    ),
                    "{what}: {:?}",
                    report.jobs[0].error()
                );
            }
        }
    }

    /// Cancelling the engine's token mid-backoff stops the sleep promptly
    /// (the retry layer sleeps in small cancellable slices) and surfaces
    /// `Cancelled` through the quarantine path; an already-finished
    /// batchmate keeps its result.
    #[test]
    fn cancellation_stops_a_backoff_sleep_promptly() {
        let stream = workload();
        let seed = 83u64;
        let clean_started = Instant::now();
        let reference = quiesced(|| estimate_triangles(&stream, &main_config(84)).unwrap());
        // Cancel well after the cohorts can have finished (the stuck job is
        // then parked in its 30-second backoff) but long before the sleep
        // would end on its own.
        let cancel_after = clean_started.elapsed() * 4 + Duration::from_millis(300);
        let plan = FaultPlan::single(
            FaultSite::MainFinish,
            main_copy_seed(seed, 0),
            0,
            FaultKind::FailTimes(u64::MAX),
        );
        let started = Instant::now();
        let report =
            faults::with_plan(plan, || {
                let mut engine = engine(2);
                let token = engine.cancel_token();
                engine.submit(JobSpec::main("healthy", main_config(84)));
                engine.submit(JobSpec::main("stuck", main_config(seed)).retry(
                    RetryPolicy::new(3).with_backoff(Backoff::Fixed(Duration::from_secs(30))),
                ));
                let canceller = std::thread::spawn(move || {
                    std::thread::sleep(cancel_after);
                    token.cancel();
                });
                let report = engine.run(&stream).unwrap();
                canceller.join().unwrap();
                report
            });
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(15),
            "cancel did not interrupt the backoff ({elapsed:?})"
        );
        assert!(report.jobs[0].is_ok(), "healthy batchmate failed");
        assert_bits(report.jobs[0].estimation(), &reference, "healthy batchmate");
        assert!(
            matches!(report.jobs[1].error(), Some(EngineError::Cancelled { .. })),
            "got {:?}",
            report.jobs[1].error()
        );
    }

    /// The degraded-dynamic guard: a mid-pass `BankFold` fault must not
    /// leave a partially-folded copy in the aggregate. The surviving
    /// estimate equals the core API's aggregation over exactly the copies
    /// whose four passes all completed, at every worker count.
    #[test]
    fn degraded_dynamic_job_aggregates_only_fully_finished_copies() {
        let graph = degentri_gen::barabasi_albert(200, 4, 9).unwrap();
        let stream = DynamicMemoryStream::with_churn(&graph, 0.5, 31);
        let seed = 89u64;
        let config = dyn_config(seed, 3);
        let expected = quiesced(|| {
            let survivors = [0usize, 2]
                .iter()
                .map(|&copy| run_dynamic_copy(&stream, &config, copy).unwrap())
                .collect::<Vec<_>>();
            aggregate_dynamic_copies(&survivors)
        });
        for workers in [1usize, 2, 4] {
            // Copy 1 dies inside its second fold chunk — mid-pass, so
            // its sketch bank holds torn state when it's evicted.
            let plan = FaultPlan::single(
                FaultSite::BankFold,
                dynamic_copy_seed(seed, 1),
                1,
                FaultKind::FailTimes(u64::MAX),
            );
            let report = faults::with_plan(plan, || {
                let mut engine = engine(workers);
                engine.submit(
                    JobSpec::dynamic("job", config.clone()).quorum(QuorumPolicy::best_effort()),
                );
                engine.run_dynamic(&stream).unwrap()
            });
            let what = format!("bank-fold workers={workers}");
            assert!(
                report.jobs[0].is_ok(),
                "{what}: {:?}",
                report.jobs[0].error()
            );
            let degradation = report.jobs[0].degradation().expect("degraded");
            assert_eq!(degradation.copies_used, 2, "{what}");
            assert_eq!(degradation.copies_lost, 1, "{what}");
            assert_eq!(degradation.copy_errors[0].0, 1, "{what}");
            assert_eq!(
                report.jobs[0].estimation().estimate.to_bits(),
                expected.estimate.to_bits(),
                "{what}: degraded aggregate must use only finished copies"
            );
            assert_eq!(
                report.jobs[0].estimation().copy_estimates,
                expected.copy_estimates,
                "{what}"
            );
        }
    }
}
