//! Fused-vs-standalone bit-identity: the fused cohort driver (one sweep
//! per pass stage feeding every copy, with cohort-level union probes)
//! must reproduce the standalone runners — which drive the same stage
//! objects one copy at a time — bit for bit, for both estimators, across
//! copies × shards × workers, and for any cohort grouping.

use degentri_core::{
    main_copy_seed, EstimatorConfig, MainCopyStages, MainStageAcc, RngMode, TriangleEstimation,
};
use degentri_dynamic::{
    dynamic_copy_seed, DynamicCopyStages, DynamicEstimatorConfig, DynamicTriangleEstimator,
};
use degentri_engine::{Engine, EngineConfig, JobSpec};
use degentri_graph::Edge;
use degentri_stream::{
    DynamicMemoryStream, EdgeUpdate, MemoryStream, ShardedSnapshot, Snapshot, StreamOrder,
};
use proptest::prelude::*;

fn main_config(copies: usize, seed: u64) -> EstimatorConfig {
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
    let graph = degentri_gen::barabasi_albert(500, 5, 3).unwrap();
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

/// A miniature fused driver with an explicit shard/worker plan — the
/// test-side twin of the engine's internal cohort driver, exercising the
/// public stage-object API (`plan_cohort` / `fold_cohort` / `finish_pass`)
/// at every sharding.
fn drive_main_cohort(
    stream: &MemoryStream,
    configs: &[&EstimatorConfig],
    shards: usize,
    workers: usize,
) -> Vec<f64> {
    let edges: &[Edge] = stream.edges();
    let n = degentri_stream::EdgeStream::num_vertices(stream);
    let mut copies: Vec<MainCopyStages> = Vec::new();
    for config in configs {
        for copy in 0..config.copies {
            copies.push(
                MainCopyStages::new(config, edges.len(), n, main_copy_seed(config.seed, copy))
                    .unwrap(),
            );
        }
    }
    let mut sweeps = 0u32;
    while copies.iter().any(|c| !c.finished()) {
        sweeps += 1;
        let plan = MainCopyStages::plan_cohort(&copies);
        let view: ShardedSnapshot<'_, Edge> = ShardedSnapshot::new(n, edges, shards);
        let copies_ref = &copies;
        let plan_ref = &plan;
        let per_shard: Vec<Vec<MainStageAcc>> = view.pass_sharded(workers, |s, slice| {
            let mut accs: Vec<MainStageAcc> = copies_ref.iter().map(|c| c.begin_pass()).collect();
            let mut scratch = degentri_core::MainCohortScratch::default();
            MainCopyStages::fold_cohort(
                plan_ref,
                copies_ref,
                &mut accs,
                &mut scratch,
                view.shard_range(s).start as u64,
                slice,
            );
            accs
        });
        // Transpose shard-major to copy-major, preserving shard order.
        let mut per_copy: Vec<Vec<MainStageAcc>> = (0..copies.len()).map(|_| Vec::new()).collect();
        for shard_accs in per_shard {
            for (k, acc) in shard_accs.into_iter().enumerate() {
                per_copy[k].push(acc);
            }
        }
        drop(plan);
        for (copy, accs) in copies.iter_mut().zip(per_copy) {
            copy.finish_pass(accs).unwrap();
        }
    }
    assert_eq!(sweeps, MainCopyStages::PASSES, "one sweep per pass stage");
    copies
        .into_iter()
        .map(|c| c.finish().unwrap().estimate)
        .collect()
}

#[test]
fn fused_cohorts_are_bit_identical_across_copies_shards_and_workers() {
    let stream = workload();
    for &copies in &[1usize, 4, 9] {
        let config = main_config(copies, 11);
        // Per-copy reference: the sequential stage driver.
        let reference: Vec<f64> = (0..copies)
            .map(|copy| {
                degentri_core::run_main_copy(&stream, &config, copy)
                    .unwrap()
                    .estimate
            })
            .collect();
        for shards in 1..=8usize {
            for &workers in &[1usize, 2, 4] {
                let fused = drive_main_cohort(&stream, &[&config], shards, workers);
                let fused_bits: Vec<u64> = fused.iter().map(|e| e.to_bits()).collect();
                let reference_bits: Vec<u64> = reference.iter().map(|e| e.to_bits()).collect();
                assert_eq!(
                    fused_bits, reference_bits,
                    "copies {copies} shards {shards} workers {workers}"
                );
            }
        }
    }
}

#[test]
fn fused_dynamic_cohorts_are_bit_identical_across_copies_shards_and_workers() {
    let (stream, base_config) = dynamic_workload();
    let updates: &[EdgeUpdate] = stream.updates();
    let n = degentri_stream::DynamicEdgeStream::num_vertices(&stream);
    for &copies in &[1usize, 4, 9] {
        let config = base_config.clone().with_copies(copies);
        let reference: Vec<f64> = (0..copies)
            .map(|copy| {
                degentri_dynamic::run_dynamic_copy(&stream, &config, copy)
                    .unwrap()
                    .estimate
            })
            .collect();
        for shards in 1..=8usize {
            for &workers in &[1usize, 2, 4] {
                let mut cohort: Vec<DynamicCopyStages> = (0..copies)
                    .map(|copy| {
                        DynamicCopyStages::new(
                            &config,
                            updates.len(),
                            n,
                            dynamic_copy_seed(config.seed, copy),
                        )
                        .unwrap()
                    })
                    .collect();
                while cohort.iter().any(|c| !c.finished()) {
                    let view: ShardedSnapshot<'_, EdgeUpdate> =
                        ShardedSnapshot::new(n, updates, shards);
                    let cohort_ref = &cohort;
                    let per_shard = view.pass_sharded(workers, |s, slice| {
                        let mut accs: Vec<_> = cohort_ref.iter().map(|c| c.begin_pass()).collect();
                        for (copy, acc) in cohort_ref.iter().zip(accs.iter_mut()) {
                            copy.fold(acc, view.shard_range(s).start as u64, slice);
                        }
                        accs
                    });
                    let mut per_copy: Vec<Vec<_>> = (0..cohort.len()).map(|_| Vec::new()).collect();
                    for shard_accs in per_shard {
                        for (k, acc) in shard_accs.into_iter().enumerate() {
                            per_copy[k].push(acc);
                        }
                    }
                    for (copy, accs) in cohort.iter_mut().zip(per_copy) {
                        copy.finish_pass(accs).unwrap();
                    }
                }
                let fused: Vec<u64> = cohort
                    .into_iter()
                    .map(|c| c.finish().unwrap().estimate.to_bits())
                    .collect();
                let reference_bits: Vec<u64> = reference.iter().map(|e| e.to_bits()).collect();
                assert_eq!(
                    fused, reference_bits,
                    "copies {copies} shards {shards} workers {workers}"
                );
            }
        }
    }
}

#[test]
fn engine_fused_path_matches_per_copy_path_for_both_estimators() {
    let stream = workload();
    let (dyn_stream, dyn_config) = dynamic_workload();
    for &copies in &[1usize, 4, 9] {
        // The standalone runners drive one copy at a time with the same
        // per-copy seeds.
        let config = main_config(copies, 7);
        let per_copy = degentri_core::estimate_triangles(&stream, &config).unwrap();
        let dyn_config = dyn_config.clone().with_copies(copies);
        let dyn_per_copy = DynamicTriangleEstimator::new(dyn_config.clone())
            .run(&dyn_stream)
            .unwrap();
        for &workers in &[1usize, 2, 4] {
            let mut engine = Engine::with_workers(workers);
            engine.submit(JobSpec::main("main", config.clone()));
            let fused: TriangleEstimation = engine
                .run(&stream)
                .unwrap()
                .jobs
                .remove(0)
                .into_estimation();
            assert_eq!(fused.copy_estimates, per_copy.copy_estimates);
            assert_eq!(fused.estimate.to_bits(), per_copy.estimate.to_bits());

            let mut engine = Engine::with_workers(workers);
            engine.submit(JobSpec::dynamic("dyn", dyn_config.clone()));
            let fused = engine.run_dynamic(&dyn_stream).unwrap().jobs.remove(0);
            assert_eq!(
                fused.estimation().copy_estimates,
                dyn_per_copy.copy_estimates
            );
            assert_eq!(
                fused.estimation().estimate.to_bits(),
                dyn_per_copy.estimate.to_bits()
            );
        }
    }
}

#[test]
fn fused_sweep_accounting_counts_physical_traversals() {
    let stream = workload();
    let m = degentri_stream::EdgeStream::num_edges(&stream) as u64;
    let config = main_config(4, 3);
    let mut engine = Engine::with_workers(1);
    engine.submit(JobSpec::main("a", config.clone()));
    engine.submit(JobSpec::main("b", config.clone().clone()));
    let report = engine.run(&stream).unwrap();
    // Two four-copy jobs fuse into one cohort: six shared sweeps total,
    // not 2 × 4 × 6.
    assert_eq!(report.stats.fused_cohorts, 1);
    assert_eq!(report.stats.sweeps_executed, 6);
    assert_eq!(report.stats.edges_streamed, 6 * m);
    assert_eq!(report.stats.tasks, 8);

    // The snapshot's own pass counter agrees with the engine's sweep
    // accounting: a fused run over a Snapshot reads the slice six times.
    let snapshot = Snapshot::of_edges(&stream).unwrap();
    let mut engine = Engine::with_workers(1);
    engine.submit(JobSpec::main("c", config));
    let report = engine.run_snapshot(&snapshot).unwrap();
    assert_eq!(report.stats.sweeps_executed, 6);

    // The turnstile cohort: three copies of four passes in four sweeps.
    let (dyn_stream, dyn_config) = dynamic_workload();
    let mut engine = Engine::with_workers(1);
    engine.submit(JobSpec::dynamic("d", dyn_config.clone().with_copies(3)));
    let report = engine.run_dynamic(&dyn_stream).unwrap();
    assert_eq!(report.stats.fused_cohorts, 1);
    assert_eq!(report.stats.sweeps_executed, 4);
    assert_eq!(
        report.stats.edges_streamed,
        4 * degentri_stream::DynamicEdgeStream::num_updates(&dyn_stream) as u64
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cohort groupings — any way of packing jobs (with any copy
    /// counts and seeds) into one engine run — never change any copy's
    /// estimate: every job matches its standalone sequential runner.
    #[test]
    fn random_cohort_groupings_never_change_any_copys_estimate(
        job_shapes in proptest::collection::vec((1usize..5, 0u64..1000), 1..4),
        workers in 1usize..5,
    ) {
        let stream = workload();
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(workers)
                .try_build()
                .unwrap(),
        );
        let configs: Vec<EstimatorConfig> = job_shapes
            .iter()
            .map(|&(copies, seed)| main_config(copies, seed))
            .collect();
        for (i, config) in configs.iter().enumerate() {
            engine.submit(JobSpec::main(format!("job-{i}"), config.clone()));
        }
        let report = engine.run(&stream).unwrap();
        prop_assert_eq!(report.stats.fused_cohorts, 1);
        for (result, config) in report.jobs.iter().zip(&configs) {
            let direct = degentri_core::estimate_triangles(&stream, config).unwrap();
            prop_assert_eq!(&result.estimation().copy_estimates, &direct.copy_estimates);
            prop_assert_eq!(
                result.estimation().estimate.to_bits(),
                direct.estimate.to_bits()
            );
        }
    }
}
