//! # degentri-engine — parallel, batched estimation engine
//!
//! The paper's estimator (Algorithm 2 of Bera & Seshadhri, PODS 2020)
//! amplifies a constant-success-probability run by executing many
//! independent copies and taking the median of means — an embarrassingly
//! parallel structure that `degentri_core`'s standalone runner executes one
//! copy at a time. This crate is the scale-out layer on top of the same
//! building blocks:
//!
//! * [`parallel`] — copy-level parallelism: the `copies` independent copies
//!   of Algorithm 2 (or of the ideal estimator) run as standalone copies on
//!   a scoped worker pool with the *same* deterministic per-copy seeds as
//!   the standalone runner ([`degentri_core::main_copy_seed`]) and are
//!   folded with the same aggregation ([`degentri_core::aggregate_copies`]),
//!   so the result is bit-identical to [`degentri_core::estimate_triangles`]
//!   at any worker count.
//! * [`scheduler`] — job-level batching: an [`Engine`] accepts many
//!   [`JobSpec`]s (main, ideal or turnstile estimator) against one shared
//!   graph snapshot and drives every copy of every job through its kind's
//!   cohort, whose sweeps shard across the worker pool, returning
//!   per-job [`degentri_core::TriangleEstimation`]s plus engine-level
//!   throughput statistics ([`EngineStats`]). Turnstile (insert/delete)
//!   jobs go through the same scheduler over a shared **dynamic** snapshot:
//!   [`JobSpec::dynamic`] + [`Engine::run_dynamic`] run the
//!   `degentri-dynamic` estimator's copies as one cohort whose sweeps
//!   shard across the pool — bit-identical to the standalone estimator.
//! * batched streaming — the estimator hot loops consume the stream
//!   through [`degentri_stream::EdgeStream::pass_batched`], which
//!   in-memory snapshots serve as zero-copy slices; every copy the engine
//!   schedules benefits automatically.
//!
//! ```
//! use degentri_core::EstimatorConfig;
//! use degentri_engine::{Engine, EngineConfig, JobSpec};
//! use degentri_stream::{MemoryStream, StreamOrder};
//!
//! let graph = degentri_gen::wheel(600).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(1));
//! let config = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(299)
//!     .copies(6)
//!     .seed(7)
//!     .try_build()
//!     .unwrap();
//!
//! let mut engine = Engine::new(EngineConfig::with_workers(4));
//! engine.submit(JobSpec::main("wheel/main", config.clone()));
//! engine.submit(JobSpec::ideal("wheel/ideal", config));
//! let report = engine.run(&stream).unwrap();
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.stats.edges_per_second > 0.0);
//! ```
//!
//! ## The fusion matrix: every estimator job kind
//!
//! Sweep-sharing ("fused execution") is the only way the engine runs an
//! estimator copy. Each estimator has exactly one implementation, its
//! stage object, and each estimator kind's copies form one homogeneous
//! **cohort** that walks the snapshot together instead of each copy
//! re-streaming it:
//!
//! * six-pass copies share all six passes of Algorithm 2;
//! * ideal copies share the three passes of their own cohort of 3-pass
//!   stage objects ([`degentri_core::IdealCopyStages`]) over the run's
//!   one degree table;
//! * dynamic (turnstile) copies share the four passes of their own cohort,
//!   whose shared probe passes walk one k-way-merged **union key table**
//!   — and an edge snapshot serves them too, as an insert-only update
//!   stream.
//!
//! The cohorts run one after another, each sweep sharded across the
//! `workers` threads, and [`EngineStats`] splits the accounting
//! (`fused_sweeps` for the cohort driver, `per_copy_sweeps` for the
//! oracle stats pass, busy time likewise). The Table-1 baselines are not
//! engine jobs: they have no stage object, and callers run them directly.
//! Every cohort
//! stays bit-identical to the standalone runners, which drive the same
//! stage objects one copy at a time — fusion changes what a batch
//! *costs*, never what any copy computes:
//!
//! ```
//! use degentri_core::EstimatorConfig;
//! use degentri_dynamic::DynamicEstimatorConfig;
//! use degentri_engine::{Engine, EngineConfig, JobSpec};
//! use degentri_stream::{MemoryStream, StreamOrder};
//!
//! let graph = degentri_gen::wheel(400).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(3));
//! let main = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(399)
//!     .copies(3)
//!     .seed(11)
//!     .try_build()
//!     .unwrap();
//! let turnstile = DynamicEstimatorConfig::new(3, 399)
//!     .with_copies(3)
//!     .with_seed(12);
//!
//! let mut engine = Engine::new(EngineConfig::with_workers(4));
//! engine.submit(JobSpec::main("six-pass", main.clone()));
//! engine.submit(JobSpec::ideal("ideal", main));
//! engine.submit(JobSpec::dynamic("turnstile", turnstile));
//! let report = engine.run(&stream).unwrap();
//! assert!(report.jobs.iter().all(|job| job.is_ok()));
//! // 6 six-pass + 3 ideal + 4 turnstile cohort sweeps + 1 oracle stats
//! // pass — versus 40 sweeps copy by copy.
//! assert_eq!(report.stats.sweeps_executed, 6 + 3 + 4 + 1);
//! assert_eq!(report.stats.fused_cohorts, 3);
//! assert_eq!(
//!     report.stats.fused_sweeps + report.stats.per_copy_sweeps,
//!     report.stats.sweeps_executed
//! );
//! ```
//!
//! ## Robustness: containment, deadlines, cancellation
//!
//! Failures during execution are **contained per job** rather than failing
//! the run: each [`JobResult`] carries
//! `Result<JobOutput, EngineError>` in [`JobResult::outcome`], and a
//! panicking, erroring, late, or cancelled job never disturbs its
//! batchmates — the failing job's copies are evicted from their cohort's
//! shared probe structures and the survivors' results stay
//! **bit-identical** to a run submitted without the failed job
//! (counter-mode randomness keys every draw by position, never by what
//! else is in flight). Worker threads survive caught panics; only
//! pre-flight problems (invalid configs, invalid input when
//! [`EngineConfig::validate_input`] is on, empty dynamic streams) fail the
//! whole run as `Err`.
//!
//! Jobs accept a wall-clock budget via [`JobSpec::deadline`]; runs are
//! cooperatively cancellable from any thread through
//! [`Engine::cancel_token`]. Both surface as contained
//! [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`] outcomes
//! with partial-progress accounting:
//!
//! ```
//! use std::time::Duration;
//! use degentri_core::EstimatorConfig;
//! use degentri_engine::{Engine, EngineError, JobSpec};
//! use degentri_stream::{MemoryStream, StreamOrder};
//!
//! let graph = degentri_gen::wheel(400).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
//! let config = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(399)
//!     .copies(2)
//!     .try_build()
//!     .unwrap();
//!
//! let mut engine = Engine::with_workers(2);
//! engine.submit(JobSpec::main("healthy", config.clone()));
//! engine.submit(JobSpec::main("late", config).deadline(Duration::ZERO));
//! let report = engine.run(&stream).unwrap();
//! // The late job failed in isolation; its batchmate is untouched.
//! assert!(report.jobs[0].is_ok());
//! assert!(matches!(
//!     report.jobs[1].error(),
//!     Some(EngineError::DeadlineExceeded { .. })
//! ));
//! assert_eq!(report.stats.jobs_failed, 1);
//! ```
//!
//! For fault-drills there is a deterministic injection harness
//! (`degentri_core::faults`, behind the `fault-inject` feature) that can
//! trigger panics, errors, and delays at named engine sites; it compiles
//! to nothing when the feature is off.
//!
//! ## Recovery: quorums, degradation, deterministic retries
//!
//! Containment bounds the blast radius of a fault; the recovery layer
//! shrinks the failure unit further, from the job to the **copy**. The
//! estimators aggregate independent copies, so a job that loses one is
//! less accurate rather than dead:
//!
//! * [`QuorumPolicy`] (per job, [`JobSpec::quorum`]) lets a job succeed on
//!   a surviving-copy quorum. The output then aggregates exactly the
//!   surviving copies — bit-identical to what a clean run over that copy
//!   subset computes — and carries a [`Degradation`] record
//!   (`copies_used`, `copies_lost`, the per-copy errors).
//! * [`RetryPolicy`] ([`JobSpec::retry`] or the engine-wide
//!   [`EngineConfig::retry_policy`]) re-executes failed copies with
//!   [`Backoff`] pacing before any quorum decision: each failed copy is
//!   rebuilt and driven again as a one-member cohort. Copy seeds are
//!   position-keyed, so a retried copy reproduces its undisturbed result
//!   bit for bit; retries respect the job deadline and the cancel token,
//!   and a copy that exhausts its attempts quarantines into the degraded
//!   path.
//!
//! Both default off: an untouched configuration keeps the all-or-nothing
//! semantics above. Recovery is observation-transparent too — the run's
//! [`EngineStats`] counts `copies_retried`, `copies_quarantined`,
//! `jobs_degraded`, and backoff time:
//!
//! ```
//! use degentri_core::EstimatorConfig;
//! use degentri_engine::{Engine, EngineConfig, JobSpec, QuorumPolicy, RetryPolicy};
//! use degentri_stream::{MemoryStream, StreamOrder};
//!
//! let graph = degentri_gen::wheel(400).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
//! let config = EstimatorConfig::builder()
//!     .kappa(3)
//!     .triangle_lower_bound(399)
//!     .copies(3)
//!     .try_build()
//!     .unwrap();
//!
//! let mut engine = Engine::new(
//!     EngineConfig::builder()
//!         .workers(2)
//!         .retry_policy(RetryPolicy::new(2)) // one retry per failed copy
//!         .try_build()
//!         .unwrap(),
//! );
//! engine.submit(
//!     JobSpec::main("resilient", config).quorum(QuorumPolicy::at_least(2)),
//! );
//! let report = engine.run(&stream).unwrap();
//! // No faults here, so the job is at full strength and nothing retried —
//! // recovery changes outcomes only when copies actually fail.
//! assert!(report.jobs[0].is_ok());
//! assert!(!report.jobs[0].is_degraded());
//! assert_eq!(report.stats.copies_retried, 0);
//! assert_eq!(report.stats.jobs_degraded, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod config;
pub mod error;
mod fused;
pub mod job;
pub mod parallel;
pub mod scheduler;
pub mod stats;

pub use cancel::CancelToken;
pub use config::{EngineConfig, EngineConfigBuilder};
pub use error::EngineError;
pub use job::{
    Backoff, Degradation, JobKind, JobOutput, JobResult, JobSpec, QuorumPolicy, RetryPolicy,
};
pub use parallel::{
    parallel_estimate_triangles, parallel_estimate_triangles_with,
    parallel_estimate_triangles_with_oracle, parallel_estimate_triangles_with_oracle_and,
};
pub use scheduler::{Engine, EngineReport};
pub use stats::EngineStats;

/// Convenient result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
