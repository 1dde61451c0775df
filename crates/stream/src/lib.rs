//! # degentri-stream — streaming substrate
//!
//! The multi-pass, arbitrary-order streaming model of the paper, made
//! concrete:
//!
//! * [`EdgeStream`] — a replayable stream of undirected edges. The concrete
//!   [`MemoryStream`] keeps the edges in memory (we are simulating the model,
//!   not short of RAM), but algorithms only access them through the trait,
//!   one pass at a time.
//! * [`StreamOrder`] — arbitrary-order semantics: as-given, uniformly
//!   permuted, sorted, or adversarially interleaved orderings.
//! * [`PassCounter`] — wraps a stream and counts how many passes an
//!   algorithm actually made, so the "constant pass" claims are checkable.
//! * [`SpaceMeter`] / [`SpaceReport`] — machine-word accounting of the state
//!   an algorithm retains between stream items; every estimator in the
//!   workspace charges its samples, counters and memo tables here, which is
//!   what the space-versus-`mκ/T` experiments measure.
//! * [`ReservoirSampler`] / [`WeightedReservoirSampler`] — uniform and
//!   weight-proportional (A-Chao) reservoir sampling, the two sampling
//!   primitives of Algorithms 1 and 2.
//! * [`StreamStats`] — single-pass computation of `n`, `m` and the degree
//!   vector (the substrate for the Section 4 degree oracle).
//! * [`DynamicEdgeStream`] / [`DynamicMemoryStream`] — insert/delete
//!   (turnstile) edge streams and workload constructors, the substrate for
//!   the dynamic-stream estimators of `degentri-dynamic`.
//! * [`snapshot`] — the unified snapshot layer: [`StreamSnapshot`] exposes
//!   any in-memory snapshot (edges *or* updates) as one zero-copy slice,
//!   [`Partition`]/[`ShardedSnapshot`] provide the shared contiguous,
//!   order-preserving sharding substrate, and [`ShardedStream`] /
//!   [`ShardedDynamicStream`] are its insert-only and turnstile faces —
//!   both with per-shard folds that merge bit-identically at any shard or
//!   worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod edge_stream;
pub mod hashing;
pub mod ordering;
pub mod passes;
pub mod pool;
pub mod reservoir;
pub mod sharded;
pub mod snapshot;
pub mod space;
pub mod stats;
pub mod weighted_reservoir;

pub use dynamic::{DynamicEdgeStream, DynamicMemoryStream, EdgeUpdate, UpdateKind};
pub use edge_stream::{EdgeStream, MemoryStream, DEFAULT_BATCH_SIZE};
pub use ordering::StreamOrder;
pub use passes::PassCounter;
pub use pool::{run_indexed_pool, run_indexed_pool_caught, TaskResult};
pub use reservoir::ReservoirSampler;
pub use sharded::ShardedStream;
pub use snapshot::{Partition, ShardedDynamicStream, ShardedSnapshot, Snapshot, StreamSnapshot};
pub use space::{SpaceMeter, SpaceReport};
pub use stats::StreamStats;
pub use weighted_reservoir::{WeightedReservoirSampler, WeightedSamplerBank};
