//! # degentri-core — degeneracy-parameterized streaming triangle counting
//!
//! This crate implements the primary contribution of *"How the Degeneracy
//! Helps for Triangle Counting in Graph Streams"* (Bera & Seshadhri,
//! PODS 2020): a constant-pass, arbitrary-order streaming algorithm that
//! `(1 ± ε)`-approximates the triangle count `T` of a graph with `m` edges
//! and degeneracy `κ` using `Õ(mκ/T)` words of space.
//!
//! The pieces map directly onto the paper:
//!
//! * [`ideal::IdealEstimator`] — Algorithm 1 (Section 4): the 3-pass warm-up
//!   estimator in the degree-oracle model.
//! * [`estimator::MainEstimator`] — Algorithm 2 (Section 5): the six-pass
//!   estimator that removes the oracle by simulating degree-proportional
//!   sampling through a uniform edge sample `R`.
//! * [`assignment`] — Algorithm 3 (Section 5.1): the `IsAssigned` /
//!   `Assignment` procedure that uniquely assigns (almost all) triangles to
//!   low-triangle-degree edges so the estimator's variance stays bounded.
//! * [`heavy`] — Definitions 5.10/5.11 and Lemma 5.12: exact classification
//!   of ε-heavy and ε-costly edges/triangles, used to verify the lemma
//!   empirically.
//! * [`config`] — parameter derivation (`r`, `ℓ`, `s`, thresholds) from
//!   Lemmas 5.5, 5.7 and Theorem 5.13, with both paper-faithful and
//!   practical constant modes.
//! * [`median_of_means`] — the "median of the means" aggregation over
//!   independent estimator copies.
//! * [`runner`] — the public entry points [`estimate_triangles`] and
//!   [`estimate_triangles_with_oracle`] that orchestrate copies, pass
//!   counting and space accounting.
//! * [`theory`] — closed-form space bounds (`mκ/T`, `m^{3/2}/T`, `m/√T`,
//!   `m∆/T`, …) used by the experiments to compare measured space against
//!   predictions.
//!
//! ## Performance architecture
//!
//! The streaming hot path is organized around three layers:
//!
//! 1. **Order-insensitive folds** ([`stages`]): each pass of the six-pass
//!    estimator is a `begin_pass → fold(chunk) → finish_pass` stage whose
//!    counter-based randomness ([`rng`]) makes it a linear fold over the
//!    edge multiset — chunking, sharding and copy-fusion never change the
//!    merged result. The stage objects are each estimator's only
//!    implementation: standalone runs drive one copy per sweep, the
//!    engine's fused cohorts many copies per sweep.
//! 2. **Lane kernels** ([`lanes`]): the probe-bound passes (2, 4, 6)
//!    restructure their chunk loops into fixed `LANES`-wide blocks — one
//!    batched hash-mix strip, one batched sorted-table membership search,
//!    then branch-free masked stores into the accumulator. Blocks are
//!    tallied into per-pass `kernel_batches` so run reports expose lane
//!    utilization. Everything is bit-identical to the scalar reference
//!    (`fold_scalar`), which stays in-tree as the parity oracle and bench
//!    baseline.
//! 3. **Cohort fan-out** ([`stages::MainCopyStages::fold_cohort`]): fused
//!    multi-copy sweeps probe one union structure per pass and fan each
//!    hit out to its `(copy, slot)` targets. Heavy applies ride a stable
//!    counting scatter into copy-major runs (one tight loop per copy);
//!    cheap commutative applies (counter bumps, bitmap ORs) dispatch
//!    directly in stream order, where measurement shows the scatter's
//!    materialization cost exceeds its payoff.
//!
//! Two hard-won measurement notes live in [`lanes`]: branchless
//! conditional-move search descents lose to branchy `binary_search` on
//! large tables (cmov serializes the dependent-load chain that speculation
//! would overlap), and accumulator writes interleaved with tally updates
//! must be hoisted to locals so the compiler can keep hot-loop pointers in
//! registers.
//!
//! ```
//! use degentri_core::{estimate_triangles, EstimatorConfig};
//! use degentri_gen::wheel;
//! use degentri_stream::{MemoryStream, StreamOrder};
//!
//! let graph = wheel(2000).unwrap();
//! let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(7));
//! let config = EstimatorConfig::builder()
//!     .epsilon(0.15)
//!     .kappa(3)
//!     .triangle_lower_bound(1000)
//!     .seed(42)
//!     .build();
//! let result = estimate_triangles(&stream, &config).unwrap();
//! let exact = degentri_graph::triangles::count_triangles(&graph) as f64;
//! assert!((result.estimate - exact).abs() / exact < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod config;
pub mod error;
pub mod estimator;
pub mod faults;
pub mod heavy;
pub mod ideal;
pub mod lanes;
pub mod median_of_means;
pub mod oracle;
pub mod rng;
pub mod runner;
pub mod scratch;
pub mod stages;
pub mod theory;
pub mod validate;

pub use config::{DerivedParameters, EstimatorConfig, EstimatorConfigBuilder};
pub use error::EstimatorError;
pub use estimator::MainEstimator;
pub use faults::{FaultKind, FaultPlan, FaultRule, FaultSite};
pub use ideal::{IdealCopyStages, IdealEstimator, IdealStageAcc};
pub use oracle::{DegreeOracle, ExactDegreeOracle};
pub use rng::{CounterRng, RngMode};
pub use runner::{
    aggregate_copies, estimate_triangles, estimate_triangles_with_oracle, ideal_copy_seed,
    main_copy_seed, run_ideal_copy, run_ideal_copy_with, run_main_copy, run_main_copy_with,
    CopyContribution, TriangleEstimation,
};
pub use stages::{MainCohortPlan, MainCohortScratch, MainCopyStages, MainStageAcc};
pub use validate::{checked_edge, validate_edges};

/// Convenient result alias for estimator operations.
pub type Result<T> = std::result::Result<T, EstimatorError>;
