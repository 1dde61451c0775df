//! The containment invariant, proven end to end: a failing job — panic,
//! injected estimator error, missed deadline, or cancellation — fails
//! **alone**. Its batchmates' estimations stay bit-identical to the
//! standalone runners at every worker count (unsharded and sharded cohort
//! sweeps alike), because counter-mode randomness keys every draw by
//! stream position and copy seed, never by what else is in flight.
//!
//! The tests in the root module need no features; the `faulted` module
//! drives the deterministic injection harness and only compiles with
//! `--features fault-inject` (CI's `fault-smoke` job).

use std::time::Duration;

use degentri_core::{estimate_triangles, EstimatorConfig, RngMode, TriangleEstimation};
use degentri_engine::{Engine, EngineConfig, EngineError, JobSpec};
use degentri_stream::{MemoryStream, StreamOrder};

fn main_config(seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(5)
        .triangle_lower_bound(600)
        .r_constant(8.0)
        .inner_constant(16.0)
        .assignment_constant(6.0)
        .copies(2)
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

/// Runs `f` with an **empty** fault plan installed when the injection
/// feature is compiled in. The harness is process-global, so engine runs
/// that must stay fault-free have to serialize against tests that install
/// firing plans; without the feature this is a plain call.
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

/// The clean per-job estimations of a batch, from the standalone runner —
/// the bit-identity reference every containment test compares survivors
/// against.
fn clean_reference(stream: &MemoryStream, seeds: &[u64]) -> Vec<TriangleEstimation> {
    quiesced(|| {
        seeds
            .iter()
            .map(|&seed| estimate_triangles(stream, &main_config(seed)).unwrap())
            .collect()
    })
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

#[test]
fn zero_deadline_fails_only_its_job_at_every_worker_count() {
    let stream = workload();
    let reference = clean_reference(&stream, &[11, 12]);
    quiesced(|| {
        for workers in [1usize, 2, 4] {
            let mut engine = engine(workers);
            engine.submit(JobSpec::main("healthy", main_config(11)));
            engine.submit(JobSpec::main("late", main_config(12)).deadline(Duration::ZERO));
            let report = engine.run(&stream).unwrap();
            let what = format!("workers={workers}");
            assert!(report.jobs[0].is_ok(), "{what}: healthy job failed");
            assert_bits(report.jobs[0].estimation(), &reference[0], &what);
            // An already-expired deadline cuts the job before any pass
            // completes.
            assert!(
                matches!(
                    report.jobs[1].error(),
                    Some(EngineError::DeadlineExceeded {
                        completed_passes: 0
                    })
                ),
                "{what}: expected DeadlineExceeded(0), got {:?}",
                report.jobs[1].error()
            );
            assert_eq!(report.stats.jobs_failed, 1, "{what}");
            // Both copies of the late job left the cohort.
            assert_eq!(report.stats.copies_evicted, 2, "{what}");
        }
    });
}

#[test]
fn cancelled_token_cuts_every_job_and_reset_restores_the_engine() {
    let stream = workload();
    let reference = clean_reference(&stream, &[11]);
    quiesced(|| {
        let mut engine = engine(2);
        let token = engine.cancel_token();
        token.cancel();
        engine.submit(JobSpec::main("a", main_config(11)));
        engine.submit(JobSpec::main("b", main_config(12)));
        let report = engine.run(&stream).unwrap();
        for job in &report.jobs {
            assert!(
                matches!(job.error(), Some(EngineError::Cancelled { .. })),
                "expected Cancelled, got {:?}",
                job.error()
            );
        }
        assert_eq!(report.stats.jobs_failed, 2);
        // Nothing was streamed: every job was cut before its sweeps.
        assert_eq!(report.stats.sweeps_executed, 0);

        // The token is sticky until reset; afterwards the same engine runs
        // normally and reproduces the clean reference.
        token.reset();
        engine.submit(JobSpec::main("after-reset", main_config(11)));
        let report = engine.run(&stream).unwrap();
        assert!(report.jobs[0].is_ok(), "post-reset run failed");
        assert_bits(report.jobs[0].estimation(), &reference[0], "after reset");
    });
}

#[cfg(feature = "fault-inject")]
mod faulted {
    use super::*;
    use degentri_core::faults::{self, FaultKind, FaultPlan, FaultRule, FaultSite};
    use degentri_core::{main_copy_seed, EstimatorError};
    use degentri_dynamic::{
        dynamic_copy_seed, DynamicError, DynamicEstimatorConfig, DynamicTriangleEstimator,
    };
    use degentri_stream::{DynamicMemoryStream, EdgeStream};

    /// `MainFinish` fires once per pass per copy with the copy's derived
    /// seed as key, so a targeted rule fails the same logical job at every
    /// worker count (unsharded and sharded sweeps alike) — and the
    /// survivors must be bit-identical to the clean batch everywhere.
    #[test]
    fn targeted_finish_fault_fails_the_same_job_at_every_worker_count() {
        let stream = workload();
        let seeds = [21u64, 22, 23];
        let reference = clean_reference(&stream, &seeds);
        for kind in [FaultKind::Error, FaultKind::Panic] {
            for workers in [1usize, 2, 4] {
                // Copy 1 of the middle job, at its fourth finish (pass
                // index 3). A fresh install per run resets the harness hit
                // counters.
                let plan =
                    FaultPlan::single(FaultSite::MainFinish, main_copy_seed(seeds[1], 1), 3, kind);
                let report = faults::with_plan(plan, || {
                    let mut engine = engine(workers);
                    for (i, &seed) in seeds.iter().enumerate() {
                        engine.submit(JobSpec::main(format!("job-{i}"), main_config(seed)));
                    }
                    engine.run(&stream).unwrap()
                });
                let what = format!("{kind:?} workers={workers}");
                match kind {
                    FaultKind::Error => assert!(
                        matches!(
                            report.jobs[1].error(),
                            Some(EngineError::Estimator(EstimatorError::Injected {
                                site: FaultSite::MainFinish,
                            }))
                        ),
                        "{what}: got {:?}",
                        report.jobs[1].error()
                    ),
                    _ => assert!(
                        matches!(report.jobs[1].error(), Some(EngineError::Panicked { .. })),
                        "{what}: got {:?}",
                        report.jobs[1].error()
                    ),
                }
                for i in [0usize, 2] {
                    assert!(report.jobs[i].is_ok(), "{what}: job {i} failed");
                    assert_bits(report.jobs[i].estimation(), &reference[i], &what);
                }
                assert_eq!(report.stats.jobs_failed, 1, "{what}");
                assert_eq!(report.stats.copies_evicted, 2, "{what}");
            }
        }
    }

    /// `TaskStart` probes guard retry attempts only; a cohort's first
    /// execution has no such site, so a rule keyed by an estimator copy
    /// stays dormant without a retry policy.
    #[test]
    fn task_start_injection_is_dormant_without_retries() {
        let stream = workload();
        let seeds = [21u64, 22, 23];
        let reference = clean_reference(&stream, &seeds);
        let plan = FaultPlan::single(
            FaultSite::TaskStart,
            main_copy_seed(seeds[1], 0),
            0,
            FaultKind::Error,
        );
        let fused = faults::with_plan(plan, || {
            let mut engine = engine(2);
            for (i, &seed) in seeds.iter().enumerate() {
                engine.submit(JobSpec::main(format!("job-{i}"), main_config(seed)));
            }
            engine.run(&stream).unwrap()
        });
        assert_eq!(fused.stats.jobs_failed, 0);
        for (i, clean) in reference.iter().enumerate() {
            assert_bits(fused.jobs[i].estimation(), clean, "fused dormant");
        }
    }

    /// A persistent panic inside the cohort fold of one copy: every shared
    /// sweep that folds it unwinds, the driver re-runs the pass copy by
    /// copy to find the culprit, and only its job fails — at one worker
    /// (one inline shard) and on sharded pools alike. The other jobs
    /// re-fold their own copies and stay bit-identical to the clean batch.
    #[test]
    fn fold_panic_in_a_shared_sweep_fails_only_its_job() {
        let stream = workload();
        let seeds = [21u64, 22, 23];
        let reference = clean_reference(&stream, &seeds);
        for workers in [1usize, 2, 4] {
            let plan = FaultPlan::targeted(vec![FaultRule {
                site: FaultSite::MainFold,
                key: Some(main_copy_seed(seeds[1], 1)),
                after_hits: 0,
                kind: FaultKind::FailTimes(u64::MAX),
            }]);
            let report = faults::with_plan(plan, || {
                let mut engine = engine(workers);
                for (i, &seed) in seeds.iter().enumerate() {
                    engine.submit(JobSpec::main(format!("job-{i}"), main_config(seed)));
                }
                engine.run(&stream).unwrap()
            });
            let what = format!("workers={workers}");
            assert!(
                matches!(report.jobs[1].error(), Some(EngineError::Panicked { .. })),
                "{what}: got {:?}",
                report.jobs[1].error()
            );
            for i in [0usize, 2] {
                assert!(report.jobs[i].is_ok(), "{what}: job {i} failed");
                assert_bits(report.jobs[i].estimation(), &reference[i], &what);
            }
            assert_eq!(report.stats.jobs_failed, 1, "{what}");
        }
    }

    /// A panic at a fused pass boundary evicts exactly the targeted
    /// group; the union probe structures are rebuilt from the survivors
    /// and their results do not move.
    #[test]
    fn pass_boundary_panic_evicts_only_the_targeted_group() {
        let stream = workload();
        let seeds = [21u64, 22, 23];
        let reference = clean_reference(&stream, &seeds);
        for workers in [1usize, 2, 4] {
            let plan = FaultPlan::single(
                FaultSite::PassBoundary,
                main_copy_seed(seeds[1], 0),
                2,
                FaultKind::Panic,
            );
            let report = faults::with_plan(plan, || {
                let mut engine = engine(workers);
                for (i, &seed) in seeds.iter().enumerate() {
                    engine.submit(JobSpec::main(format!("job-{i}"), main_config(seed)));
                }
                engine.run(&stream).unwrap()
            });
            let what = format!("workers={workers}");
            assert!(
                matches!(report.jobs[1].error(), Some(EngineError::Panicked { .. })),
                "{what}: got {:?}",
                report.jobs[1].error()
            );
            assert_eq!(report.stats.copies_evicted, 2, "{what}");
            for i in [0usize, 2] {
                assert_bits(report.jobs[i].estimation(), &reference[i], &what);
            }
        }
    }

    /// An injected delay plus a short deadline: the slowed job dies with
    /// `DeadlineExceeded` and consistent partial accounting, while its
    /// batchmates — which shared the stalled sweeps — finish untouched.
    #[test]
    fn delay_fault_with_deadline_yields_deadline_exceeded() {
        let stream = workload();
        let seeds = [21u64, 22, 23];
        let reference = clean_reference(&stream, &seeds);
        let plan = FaultPlan::single(
            FaultSite::PassBoundary,
            main_copy_seed(seeds[1], 0),
            0,
            FaultKind::DelayMillis(40),
        );
        let report = faults::with_plan(plan, || {
            let mut engine = engine(2);
            engine.submit(JobSpec::main("job-0", main_config(seeds[0])));
            engine.submit(
                JobSpec::main("job-1", main_config(seeds[1])).deadline(Duration::from_millis(10)),
            );
            engine.submit(JobSpec::main("job-2", main_config(seeds[2])));
            engine.run(&stream).unwrap()
        });
        match report.jobs[1].error() {
            Some(&EngineError::DeadlineExceeded { completed_passes }) => {
                assert!(completed_passes < 6, "accounting: {completed_passes}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        for i in [0usize, 2] {
            assert_bits(report.jobs[i].estimation(), &reference[i], "delayed cohort");
        }
    }

    /// Seeded stochastic sweeps: whatever fires wherever it fires — fold
    /// panics (with their per-copy re-execution fallback), finish errors,
    /// delays — every job either fails cleanly or reports an estimation
    /// bit-identical to the fault-free run. No torn results, ever.
    #[test]
    fn seeded_fault_sweeps_never_corrupt_survivors() {
        let stream = workload();
        let seeds = [21u64, 22, 23];
        let reference = clean_reference(&stream, &seeds);
        let faults_before = faults::injected_count();
        let mut failures = 0usize;
        for plan_seed in 1u64..=3 {
            for workers in [1usize, 2, 4] {
                let report = faults::with_plan(FaultPlan::seeded(plan_seed, 8), || {
                    let mut engine = engine(workers);
                    for (i, &seed) in seeds.iter().enumerate() {
                        engine.submit(JobSpec::main(format!("job-{i}"), main_config(seed)));
                    }
                    engine.run(&stream).unwrap()
                });
                let what = format!("plan_seed={plan_seed} workers={workers}");
                for (i, job) in report.jobs.iter().enumerate() {
                    match job.output() {
                        Some(out) => {
                            assert_bits(&out.estimation, &reference[i], &what);
                        }
                        None => failures += 1,
                    }
                }
                assert_eq!(
                    report.stats.jobs_failed,
                    report.jobs.iter().filter(|j| !j.is_ok()).count(),
                    "{what}"
                );
            }
        }
        // The sweep must actually have exercised the harness.
        assert!(faults::injected_count() > faults_before, "no faults fired");
        assert!(failures > 0, "no job ever failed across the sweep");
    }

    /// The turnstile estimator's containment mirrors the six-pass one:
    /// a `DynamicFinish` fault fails its job at every worker count and the
    /// surviving dynamic job stays bit-identical to its standalone run.
    #[test]
    fn dynamic_finish_fault_is_contained() {
        let graph = degentri_gen::barabasi_albert(200, 4, 9).unwrap();
        let stream = DynamicMemoryStream::with_churn(&graph, 0.5, 31);
        let config = |seed: u64| {
            DynamicEstimatorConfig::new(4, 80)
                .with_epsilon(0.3)
                .with_copies(2)
                .with_seed(seed)
                .with_max_samples(96)
                .with_rng_mode(RngMode::Counter)
        };
        let reference = quiesced(|| {
            DynamicTriangleEstimator::new(config(41))
                .run(&stream)
                .unwrap()
        });
        for workers in [1usize, 2, 4] {
            let plan = FaultPlan::single(
                FaultSite::DynamicFinish,
                dynamic_copy_seed(42, 1),
                1,
                FaultKind::Error,
            );
            let report = faults::with_plan(plan, || {
                let mut engine = engine(workers);
                engine.submit(JobSpec::dynamic("a", config(41)));
                engine.submit(JobSpec::dynamic("b", config(42)));
                engine.run_dynamic(&stream).unwrap()
            });
            let what = format!("dynamic workers={workers}");
            assert!(report.jobs[0].is_ok(), "{what}");
            let survivor = report.jobs[0].estimation();
            assert_eq!(
                survivor.estimate.to_bits(),
                reference.estimate.to_bits(),
                "{what}: estimate"
            );
            assert_eq!(
                survivor.copy_estimates, reference.copy_estimates,
                "{what}: copy estimates"
            );
            assert!(
                matches!(
                    report.jobs[1].error(),
                    Some(EngineError::Dynamic(DynamicError::Injected {
                        site: FaultSite::DynamicFinish,
                    }))
                ),
                "{what}: got {:?}",
                report.jobs[1].error()
            );
            assert_eq!(report.stats.jobs_failed, 1, "{what}");
        }
    }

    /// Evicting an ideal or dynamic cohort member from the one-pool
    /// schedule — a mixed main + ideal + dynamic batch over one edge
    /// snapshot — leaves every surviving job bit-identical to its
    /// standalone run, at every worker count.
    #[test]
    fn mixed_cohort_member_eviction_leaves_survivors_bit_identical() {
        use degentri_core::{estimate_triangles_with_oracle, ideal_copy_seed, ExactDegreeOracle};
        use degentri_stream::EdgeUpdate;
        let stream = workload();
        let dyn_config = DynamicEstimatorConfig::new(4, 80)
            .with_epsilon(0.3)
            .with_copies(2)
            .with_seed(61)
            .with_max_samples(96)
            .with_rng_mode(RngMode::Counter);
        let submit_all = |engine: &mut Engine| {
            engine.submit(JobSpec::main("main", main_config(51)));
            engine.submit(JobSpec::ideal("ideal", main_config(52)));
            engine.submit(JobSpec::dynamic("dynamic", dyn_config.clone()));
        };
        // The standalone references; the turnstile job sees the edge
        // snapshot as an insert-only update stream.
        let reference: Vec<(f64, Vec<f64>)> = quiesced(|| {
            let oracle = ExactDegreeOracle::build(&stream);
            let inserts = DynamicMemoryStream::from_updates(
                stream.num_vertices(),
                stream
                    .edges()
                    .iter()
                    .map(|&e| EdgeUpdate::insert(e))
                    .collect(),
            );
            let main = estimate_triangles(&stream, &main_config(51)).unwrap();
            let ideal = estimate_triangles_with_oracle(&stream, &oracle, &main_config(52)).unwrap();
            let dynamic = DynamicTriangleEstimator::new(dyn_config.clone())
                .run(&inserts)
                .unwrap();
            vec![
                (main.estimate, main.copy_estimates),
                (ideal.estimate, ideal.copy_estimates),
                (dynamic.estimate, dynamic.copy_estimates),
            ]
        });
        // (victim job index, pass-boundary fault key of its copy 0).
        let victims = [
            (1usize, ideal_copy_seed(52, 0)),
            (2usize, dynamic_copy_seed(61, 0)),
        ];
        for (victim, key) in victims {
            for workers in [1usize, 2, 4] {
                let plan = FaultPlan::single(FaultSite::PassBoundary, key, 1, FaultKind::Panic);
                let report = faults::with_plan(plan, || {
                    let mut engine = engine(workers);
                    submit_all(&mut engine);
                    engine.run(&stream).unwrap()
                });
                let what = format!("victim={victim} workers={workers}");
                assert!(
                    matches!(
                        report.jobs[victim].error(),
                        Some(EngineError::Panicked { .. })
                    ),
                    "{what}: got {:?}",
                    report.jobs[victim].error()
                );
                assert_eq!(report.stats.jobs_failed, 1, "{what}");
                assert_eq!(report.stats.copies_evicted, 2, "{what}");
                for i in (0..3).filter(|&i| i != victim) {
                    assert!(report.jobs[i].is_ok(), "{what}: job {i} failed");
                    let (estimate, copies) = &reference[i];
                    let survivor = report.jobs[i].estimation();
                    assert_eq!(
                        survivor.estimate.to_bits(),
                        estimate.to_bits(),
                        "{what}: job {i} estimate"
                    );
                    assert_eq!(
                        &survivor.copy_estimates, copies,
                        "{what}: job {i} copy estimates"
                    );
                }
            }
        }
    }
}
