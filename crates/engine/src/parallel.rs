//! Copy-level parallelism: the independent copies of an estimator run on a
//! scoped worker pool.
//!
//! Copies use the exact per-copy seeds of the standalone runner
//! ([`degentri_core::main_copy_seed`] / [`degentri_core::ideal_copy_seed`])
//! and are aggregated in copy order with
//! [`degentri_core::aggregate_copies`], so the output is **bit-identical**
//! to [`degentri_core::estimate_triangles`] /
//! [`degentri_core::estimate_triangles_with_oracle`] at every worker count
//! — scheduling only changes wall-clock time.

use degentri_core::{
    aggregate_copies, run_ideal_copy_with, run_main_copy_with, CopyContribution, EstimatorConfig,
    TriangleEstimation,
};
use degentri_stream::{run_indexed_pool, EdgeStream, StreamStats};

use crate::config::EngineConfig;
use crate::Result;

/// Collects per-copy results in copy order, surfacing the first failure.
fn aggregate_results(
    results: Vec<degentri_core::Result<CopyContribution>>,
) -> Result<TriangleEstimation> {
    let mut contributions = Vec::with_capacity(results.len());
    for result in results {
        contributions.push(result?);
    }
    Ok(aggregate_copies(&contributions))
}

/// Runs `config.copies` independent copies of the six-pass estimator
/// (Algorithm 2) on up to `workers` threads and aggregates them with
/// median-of-means — the parallel equivalent of
/// [`degentri_core::estimate_triangles`], with bit-identical results.
pub fn parallel_estimate_triangles<S>(
    stream: &S,
    config: &EstimatorConfig,
    workers: usize,
) -> Result<TriangleEstimation>
where
    S: EdgeStream + Sync + ?Sized,
{
    parallel_estimate_triangles_with(stream, config, &EngineConfig::with_workers(workers))
}

/// [`parallel_estimate_triangles`] driven by a full [`EngineConfig`]
/// (worker count *and* batched-delivery chunk size). Results are
/// bit-identical at every configuration.
pub fn parallel_estimate_triangles_with<S>(
    stream: &S,
    config: &EstimatorConfig,
    engine_config: &EngineConfig,
) -> Result<TriangleEstimation>
where
    S: EdgeStream + Sync + ?Sized,
{
    engine_config.validate()?;
    config.validate()?;
    let batch = engine_config.batch_size;
    let results = run_indexed_pool(engine_config.workers, config.copies, |copy| {
        run_main_copy_with(stream, config, copy, batch).map(|o| CopyContribution::from(&o))
    });
    aggregate_results(results)
}

/// Runs `config.copies` copies of the ideal (degree-oracle) estimator on up
/// to `workers` threads — the parallel equivalent of
/// [`degentri_core::estimate_triangles_with_oracle`], with bit-identical
/// results.
///
/// The caller provides the one-pass [`StreamStats`] the oracle is built
/// from (compute it once with [`StreamStats::compute`]); every copy shares
/// the table by reference — `StreamStats` answers degree queries directly,
/// so nothing is cloned per copy.
pub fn parallel_estimate_triangles_with_oracle<S>(
    stream: &S,
    stats: &StreamStats,
    config: &EstimatorConfig,
    workers: usize,
) -> Result<TriangleEstimation>
where
    S: EdgeStream + Sync + ?Sized,
{
    parallel_estimate_triangles_with_oracle_and(
        stream,
        stats,
        config,
        &EngineConfig::with_workers(workers),
    )
}

/// [`parallel_estimate_triangles_with_oracle`] driven by a full
/// [`EngineConfig`].
pub fn parallel_estimate_triangles_with_oracle_and<S>(
    stream: &S,
    stats: &StreamStats,
    config: &EstimatorConfig,
    engine_config: &EngineConfig,
) -> Result<TriangleEstimation>
where
    S: EdgeStream + Sync + ?Sized,
{
    engine_config.validate()?;
    config.validate()?;
    let batch = engine_config.batch_size;
    let results = run_indexed_pool(engine_config.workers, config.copies, |copy| {
        run_ideal_copy_with(stream, stats, config, copy, batch).map(|o| CopyContribution::from(&o))
    });
    aggregate_results(results)
}
