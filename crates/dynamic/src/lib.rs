//! # degentri-dynamic — triangle counting under edge deletions
//!
//! The paper's estimator is defined for insert-only streams. Table 1 of the
//! paper, however, also cites dynamic-stream (turnstile) results — streams
//! of edge insertions *and deletions* — and a natural question for any
//! would-be user is whether the degeneracy parameterization survives
//! deletions. This crate answers it constructively:
//!
//! * [`DynamicTriangleEstimator`] — a constant-pass port of Algorithm 2 in
//!   which every sampling primitive that reservoir sampling provided in the
//!   insert-only world is replaced by a *linear sketch* from
//!   [`degentri_sketch`]:
//!   uniform random surviving edges come from ℓ0 samplers over the edge
//!   universe, uniform random surviving neighbors come from ℓ0 samplers
//!   over the neighborhood of the sampled edge's lower-degree endpoint, and
//!   degrees / closure checks come from exact turnstile counters on the
//!   (few) tracked vertices and vertex pairs. Because every ingredient is a
//!   linear function of the update stream, deletions are handled for free.
//! * [`DynamicExactCounter`] — the Θ(m)-space turnstile baseline: maintain
//!   the net multiplicity of every edge and count triangles of the surviving
//!   graph exactly. This is the dynamic analogue of
//!   `degentri_baselines::ExactStreamCounter` and the ground-truth
//!   comparator for experiment E12.
//!
//! # Engine integration and position-keyed randomness
//!
//! The estimator derives every sketch seed and every degree-proportional
//! instance pick from pure keyed hashes of the configuration seed —
//! sketch `k` from `hash(seed, stream-tag, k)`, instance `i`'s pick from a
//! position-keyed rule over the sampled edge set `R` (see
//! [`CounterSelection`]). Per-update sketch randomness is keyed by the
//! **edge** (an insert and its later delete must hash identically to
//! cancel), so every pass is a linear, order-insensitive fold that a
//! [`degentri_stream::ShardedDynamicStream`] view can execute
//! shard-parallel with bit-identical results at any shard or worker count
//! (see [`estimator`]'s module docs for the full story). The stage object
//! [`DynamicCopyStages`] is the estimator's one implementation: standalone
//! runs drive one copy per sweep, the engine's fused cohorts many copies
//! per sweep.
//!
//! The per-copy building blocks ([`run_dynamic_copy`],
//! [`run_dynamic_copy_sharded`], [`aggregate_dynamic_copies`],
//! [`dynamic_copy_seed`]) are public so `degentri-engine` can schedule
//! turnstile jobs (`JobKind::Dynamic`) over one shared dynamic snapshot
//! with results bit-identical to the standalone
//! [`DynamicTriangleEstimator::run`].
//!
//! The substrate (update streams, churn workload generators, the surviving
//! graph) lives in [`degentri_stream::dynamic`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod estimator;
pub mod exact;
pub mod stages;
pub mod validate;

pub use error::DynamicError;
pub use estimator::{
    aggregate_dynamic_copies, dynamic_copy_seed, run_dynamic_copy, run_dynamic_copy_sharded,
    run_dynamic_copy_with, CounterSelection, DynamicCopyOutcome, DynamicEstimatorConfig,
    DynamicOutcome, DynamicTriangleEstimator,
};
pub use exact::DynamicExactCounter;
pub use stages::{counter_instance_picks, DynamicCohortPlan, DynamicCopyStages, DynamicStageAcc};
pub use validate::validate_updates;

/// Convenient result alias for dynamic-stream estimation.
pub type Result<T> = std::result::Result<T, DynamicError>;
