//! # degentri — degeneracy-parameterized streaming triangle counting
//!
//! An open-source reproduction of *"How the Degeneracy Helps for Triangle
//! Counting in Graph Streams"* (Suman K. Bera and C. Seshadhri, PODS 2020):
//! a constant-pass, arbitrary-order streaming algorithm that
//! `(1 ± ε)`-approximates the triangle count `T` of a graph with `m` edges
//! and degeneracy `κ` in `Õ(mκ/T)` words of space, together with every
//! substrate needed to run and evaluate it:
//!
//! * [`graph`] — CSR graphs, core decomposition / degeneracy, exact triangle
//!   counting (ground truth);
//! * [`gen`] — seeded graph generators, including the paper's wheel and
//!   triangle-book examples and the Section 6 lower-bound gadgets;
//! * [`stream`] — multi-pass edge streams, reservoir sampling, pass and
//!   word-level space accounting;
//! * [`core`] — the paper's estimators (warm-up Algorithm 1 and the six-pass
//!   Algorithm 2) and its triangle-to-edge assignment procedure
//!   (Algorithm 3);
//! * [`baselines`] — the prior streaming algorithms of the paper's Table 1,
//!   on the same substrate, for apples-to-apples comparison;
//! * [`cliques`] — the ℓ-clique generalization conjectured in Section 7
//!   (exact kClist counters plus the streaming estimator);
//! * [`sketch`] — linear sketches (k-wise hashing, CountMin, CountSketch,
//!   ℓ0 sampling) for turnstile streams;
//! * [`dynamic`] — the insert/delete (dynamic-stream) port of the estimator
//!   built on those sketches;
//! * [`engine`] — the parallel, batched estimation engine: copy-parallel
//!   execution of the estimators and a concurrent job scheduler over a
//!   shared stream snapshot;
//! * [`obs`] — first-party observability: lock-free per-worker metric
//!   lanes (counters, span timers, log2 histograms) and the
//!   [`RunReport`](obs::RunReport) run → cohort → pass → shard breakdown
//!   the engine assembles when recording is on.
//!
//! # Quickstart
//!
//! The umbrella crate simply re-exports the pieces and the most common entry
//! points so applications can depend on a single crate:
//!
//! ```
//! use degentri::prelude::*;
//!
//! let graph = degentri::gen::wheel(2000).unwrap();
//! let exact = degentri::graph::triangles::count_triangles(&graph);
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
//! let config = EstimatorConfig::builder()
//!     .epsilon(0.15)
//!     .kappa(3)
//!     .triangle_lower_bound(exact / 2)
//!     .seed(7)
//!     .build();
//! let estimate = estimate_triangles(&stream, &config).unwrap();
//! assert!(estimate.relative_error(exact) < 0.5);
//! ```
//!
//! # Quickstart, at scale: the engine path
//!
//! [`estimate_triangles`] runs the independent estimator copies one at a
//! time. The engine runs the same copies on a worker pool — bit-identical
//! results, wall-clock time divided by the available parallelism — and
//! batches whole *jobs* (different configurations, the oracle estimator,
//! the turnstile estimator) over one shared snapshot. The Table-1
//! baselines are not engine jobs; run them side by side on the same kind
//! of worker pool:
//!
//! ```
//! use degentri::engine::{parallel_estimate_triangles, Engine, EngineConfig, JobSpec};
//! use degentri::prelude::*;
//! use degentri::stream::run_indexed_pool;
//!
//! let graph = degentri::gen::wheel(2000).unwrap();
//! let exact = degentri::graph::triangles::count_triangles(&graph);
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
//! let config = EstimatorConfig::builder()
//!     .epsilon(0.15)
//!     .kappa(3)
//!     .triangle_lower_bound(exact / 2)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! // Drop-in parallel replacement for `estimate_triangles`:
//! let fast = parallel_estimate_triangles(&stream, &config, 4).unwrap();
//! assert_eq!(
//!     fast.copy_estimates,
//!     estimate_triangles(&stream, &config).unwrap().copy_estimates,
//! );
//!
//! // Many workloads, one shared snapshot, one worker pool:
//! let mut engine = Engine::new(EngineConfig::with_workers(4));
//! engine.submit(JobSpec::main("eps 0.15", config.clone()));
//! engine.submit(JobSpec::ideal("oracle model", config));
//! let report = engine.run(&stream).unwrap();
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.stats.edges_per_second > 0.0);
//!
//! // Baselines, two at a time:
//! let baselines: Vec<Box<dyn StreamingTriangleCounter + Send + Sync>> = vec![
//!     Box::new(degentri::baselines::TriestImpr::new(512, 3)),
//!     Box::new(degentri::baselines::ExactStreamCounter::new()),
//! ];
//! let outcomes = run_indexed_pool(2, baselines.len(), |i| baselines[i].estimate(&stream));
//! assert_eq!(outcomes[1].estimate, exact as f64);
//! ```
//!
//! # Quickstart: sharded passes
//!
//! Copy-level parallelism saturates once every worker has a copy; beyond
//! that, a single pass is serialized on one iterator. Every sampling
//! decision of the estimators is a pure function of `hash(seed, stream
//! position, draw index)` (see [`core::rng`] for the position-keyed
//! reservoir rule), so **every** pass of both insert-only estimators — all
//! six of Algorithm 2, all three of the ideal estimator — is a fold with an
//! associative merge. A [`ShardedStream`](stream::ShardedStream) view
//! partitions the snapshot into contiguous, order-preserving shards; the
//! passes run shard-parallel, with per-shard accumulators merged in shard
//! order — bit-identical results at any shard or worker count. The engine
//! shards every cohort sweep across its whole worker pool (see
//! [`EngineConfig`](engine::EngineConfig)'s `workers`); sharding is also
//! available directly, one copy at a time:
//!
//! ```
//! use degentri::core::MainEstimator;
//! use degentri::prelude::*;
//! use degentri::stream::DEFAULT_BATCH_SIZE;
//!
//! let graph = degentri::gen::wheel(2000).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
//! let config = EstimatorConfig::builder()
//!     .epsilon(0.15)
//!     .kappa(3)
//!     .triangle_lower_bound(999)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! let estimator = MainEstimator::new(config);
//! let plain = estimator.run_seeded(&stream, 7).unwrap();
//!
//! // Four shards on two shard workers:
//! let view = ShardedStream::from_stream(&stream, 4);
//! let sharded = estimator
//!     .run_seeded_sharded(&view, 7, DEFAULT_BATCH_SIZE, 2)
//!     .unwrap();
//! assert_eq!(sharded.estimate.to_bits(), plain.estimate.to_bits());
//! assert!(sharded.sharded); // all six passes ran shard-parallel
//! assert_eq!(view.passes(), 6); // sharding keeps the paper's pass budget
//! ```
//!
//! # Quickstart: one randomness regime, one implementation per estimator
//!
//! The estimators have a single randomness regime (counter-based, see
//! [`core::rng`]) and each has exactly one implementation: its stage
//! object (`begin_pass → fold → finish_pass`). The standalone runner
//! drives one copy per sweep, the engine's fused cohorts many copies per
//! sweep — the same folds on the same positions, so both report the same
//! estimates bit for bit:
//!
//! ```
//! use degentri::prelude::*;
//!
//! let graph = degentri::gen::wheel(2000).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
//! let config = EstimatorConfig::builder()
//!     .epsilon(0.15)
//!     .kappa(3)
//!     .triangle_lower_bound(999)
//!     .copies(4)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! let standalone = estimate_triangles(&stream, &config).unwrap();
//! let mut engine = Engine::new(EngineConfig::with_workers(2));
//! engine.submit(JobSpec::main("wheel", config));
//! let report = engine.run(&stream).unwrap();
//! assert_eq!(
//!     report.jobs[0].estimation().copy_estimates,
//!     standalone.copy_estimates,
//! );
//! assert_eq!(report.stats.fused_cohorts, 1);
//! ```
//!
//! # Quickstart: turnstile streams through the engine
//!
//! Insert/delete workloads run through the same engine: a
//! [`DynamicMemoryStream`] snapshot is shared across every submitted
//! `JobSpec::dynamic` job (no re-snapshotting between jobs). The
//! turnstile estimator's sketch folds are linear, so the turnstile
//! cohort's sweeps shard across the worker pool (a
//! [`ShardedDynamicStream`] view does the same for one standalone copy),
//! and results are bit-identical to the standalone `degentri::dynamic`
//! estimator at any worker count:
//!
//! ```
//! use degentri::dynamic::{DynamicEstimatorConfig, DynamicTriangleEstimator};
//! use degentri::prelude::*;
//!
//! let graph = degentri::gen::wheel(300).unwrap();
//! let exact = degentri::graph::triangles::count_triangles(&graph);
//! // Insert every edge, plus churn: extra copies inserted then deleted.
//! let stream = DynamicMemoryStream::with_churn(&graph, 0.5, 7);
//! let config = DynamicEstimatorConfig::new(3, exact / 2)
//!     .with_epsilon(0.3)
//!     .with_copies(2)
//!     .with_seed(11)
//!     .with_max_samples(150);
//!
//! // Standalone reference:
//! let standalone = DynamicTriangleEstimator::new(config.clone())
//!     .run(&stream)
//!     .unwrap();
//!
//! // The same job through the engine's shared dynamic-snapshot path:
//! let mut engine = Engine::new(EngineConfig::with_workers(4));
//! engine.submit(JobSpec::dynamic("churned wheel", config));
//! let report = engine.run_dynamic(&stream).unwrap();
//! assert_eq!(
//!     report.jobs[0].estimation().copy_estimates,
//!     standalone.copy_estimates,
//! );
//! let outcome = report.jobs[0].dynamic().unwrap();
//! assert_eq!(outcome.surviving_edges, graph.num_edges());
//! ```
//!
//! # Quickstart: fused sweep execution
//!
//! The engine runs every estimator copy **fused**: each estimator kind's
//! copies form one cohort of resumable stage objects
//! (`begin_pass → fold → finish_pass`), and the scheduler executes each
//! pass stage as **one** sweep over the snapshot that feeds every copy's
//! fold — with cohort-level union probe structures, so each edge pays one
//! lookup for the whole cohort instead of one per copy. A four-copy job
//! therefore reads the snapshot six times, not twenty-four, and results
//! stay bit-identical to the standalone runner, which reads it once per
//! copy per pass ([`estimate_triangles`]). One [`Snapshot`] entry point
//! serves both stream flavors:
//!
//! ```
//! use degentri::prelude::*;
//!
//! let graph = degentri::gen::wheel(400).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
//! let config = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(399)
//!     .copies(4)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! // The unified entry point: one snapshot enum for edges or updates.
//! let snapshot = Snapshot::of_edges(&stream).unwrap();
//! let mut engine = Engine::new(EngineConfig::with_workers(2));
//! engine.submit(JobSpec::main("wheel", config.clone()));
//! let fused = engine.run_snapshot(&snapshot).unwrap();
//! // Four copies of six passes in six shared physical sweeps.
//! assert_eq!(fused.stats.fused_cohorts, 1);
//! assert_eq!(fused.stats.sweeps_executed, 6);
//!
//! // The standalone runner reads the snapshot 24 times — and produces
//! // bit-identical estimates.
//! let per_copy = estimate_triangles(&stream, &config).unwrap();
//! assert_eq!(
//!     fused.jobs[0].estimation().copy_estimates,
//!     per_copy.copy_estimates,
//! );
//! assert_eq!(
//!     fused.jobs[0].estimation().estimate.to_bits(),
//!     per_copy.estimate.to_bits(),
//! );
//! ```
//!
//! # Quickstart: observability
//!
//! Flip [`EngineConfig`]'s `recording` switch and the run records metrics
//! into lock-free per-worker lanes and attaches a
//! [`RunReport`](obs::RunReport) to the [`EngineReport`](engine::EngineReport):
//! a run → cohort → pass → shard breakdown with self/total times, work
//! tallies (items folded, probe hits, sketch updates), per-job
//! queue-to-completion latency, and the merged counter/span/histogram
//! snapshot. Recording is observation-only — estimates are bit-identical
//! with it on or off — and the default (off) compiles the instrumentation
//! points down to nothing. The report prints as an aligned text tree and
//! serializes to a stable hand-rolled JSON schema:
//!
//! ```
//! use degentri::obs::RunReport;
//! use degentri::prelude::*;
//!
//! let graph = degentri::gen::wheel(400).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
//! let config = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(399)
//!     .copies(4)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! let mut engine = Engine::new(
//!     EngineConfig::builder()
//!         .workers(2)
//!         .recording(true)
//!         .try_build()
//!         .unwrap(),
//! );
//! engine.submit(JobSpec::main("wheel", config.clone()));
//! let recorded = engine.run(&stream).unwrap();
//!
//! // The report nests the fused cohort's six passes inside the run:
//! let report = recorded.run_report.as_ref().unwrap();
//! assert_eq!(report.cohorts[0].passes.len(), 6);
//! let tree = report.to_string();
//! assert!(tree.contains("cohort six-pass") && tree.contains("p2_degrees"));
//!
//! // ...round-trips through its JSON schema...
//! let parsed = RunReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(&parsed, report);
//!
//! // ...and recording never changes the estimate.
//! let mut silent = Engine::new(EngineConfig::with_workers(2));
//! silent.submit(JobSpec::main("wheel", config));
//! let baseline = silent.run(&stream).unwrap();
//! assert_eq!(
//!     recorded.jobs[0].estimation().copy_estimates,
//!     baseline.jobs[0].estimation().copy_estimates,
//! );
//! ```
//!
//! # Quickstart: robustness — retries, quorums, graceful degradation
//!
//! Execution failures are contained per job (a panicking, erroring, late,
//! or cancelled job never disturbs its batchmates), and an opt-in recovery
//! layer shrinks the failure unit further, to the **copy**: a
//! [`RetryPolicy`](engine::RetryPolicy) re-executes failed copies with
//! deterministic [`Backoff`](engine::Backoff) pacing — copy seeds are
//! position-keyed, so a retried copy reproduces its undisturbed result bit
//! for bit — and a [`QuorumPolicy`](engine::QuorumPolicy) lets a job that
//! still loses copies succeed **degraded**, aggregating exactly the
//! surviving copies and carrying a [`Degradation`](engine::Degradation)
//! record instead of an error. Both default off (all-or-nothing), and on a
//! clean run they are pure metadata:
//!
//! ```
//! use degentri::engine::{QuorumPolicy, RetryPolicy};
//! use degentri::prelude::*;
//!
//! let graph = degentri::gen::wheel(400).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
//! let config = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(399)
//!     .copies(3)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! let mut engine = Engine::new(EngineConfig::with_workers(2));
//! engine.submit(
//!     JobSpec::main("resilient", config.clone())
//!         .retry(RetryPolicy::new(2))          // one retry per failed copy
//!         .quorum(QuorumPolicy::at_least(2)),  // then accept 2-of-3
//! );
//! let report = engine.run(&stream).unwrap();
//!
//! // Nothing failed, so nothing engaged: full strength, zero retries,
//! // and bit-identical to a job submitted without any policies.
//! assert!(report.jobs[0].is_ok() && !report.jobs[0].is_degraded());
//! assert_eq!(report.stats.copies_retried, 0);
//! assert_eq!(report.stats.jobs_degraded, 0);
//!
//! let mut plain = Engine::new(EngineConfig::with_workers(2));
//! plain.submit(JobSpec::main("plain", config));
//! assert_eq!(
//!     report.jobs[0].estimation().copy_estimates,
//!     plain.run(&stream).unwrap().jobs[0].estimation().copy_estimates,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use degentri_baselines as baselines;
pub use degentri_cliques as cliques;
pub use degentri_core as core;
pub use degentri_dynamic as dynamic;
pub use degentri_engine as engine;
pub use degentri_gen as gen;
pub use degentri_graph as graph;
pub use degentri_obs as obs;
pub use degentri_sketch as sketch;
pub use degentri_stream as stream;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use degentri_baselines::{BaselineOutcome, StreamingTriangleCounter};
    pub use degentri_cliques::{count_cliques, CliqueEstimator, CliqueEstimatorConfig};
    pub use degentri_core::{
        estimate_triangles, estimate_triangles_with_oracle, EstimatorConfig, RngMode,
        TriangleEstimation,
    };
    pub use degentri_dynamic::{
        CounterSelection, DynamicEstimatorConfig, DynamicOutcome, DynamicTriangleEstimator,
    };
    pub use degentri_engine::{
        parallel_estimate_triangles, Engine, EngineConfig, EngineStats, JobSpec,
    };
    pub use degentri_graph::{CsrGraph, Edge, GraphBuilder, Triangle, VertexId};
    pub use degentri_obs::RunReport;
    pub use degentri_stream::{
        DynamicEdgeStream, DynamicMemoryStream, EdgeStream, EdgeUpdate, MemoryStream,
        ShardedDynamicStream, ShardedStream, Snapshot, SpaceReport, StreamOrder,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let g = degentri_gen::wheel(10).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);
        assert_eq!(EdgeStream::num_edges(&stream), 18);
        let _ = EstimatorConfig::builder().build();
    }

    #[test]
    fn engine_is_reachable_through_the_prelude() {
        use crate::prelude::*;
        let g = degentri_gen::wheel(60).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(59)
            .copies(3)
            .build();
        let parallel = parallel_estimate_triangles(&stream, &config, 2).unwrap();
        let sequential = estimate_triangles(&stream, &config).unwrap();
        assert_eq!(parallel.copy_estimates, sequential.copy_estimates);

        let mut engine = Engine::new(EngineConfig::with_workers(2));
        engine.submit(JobSpec::main("prelude", config));
        let report = engine.run(&stream).unwrap();
        assert_eq!(report.jobs.len(), 1);
        let _: EngineStats = report.stats;
    }
}
