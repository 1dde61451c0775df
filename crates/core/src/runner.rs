//! Public entry points: multi-copy estimation with median-of-means.
//!
//! A single run of Algorithm 2 succeeds with constant probability; the paper
//! amplifies this by running independent copies and reporting the median of
//! the means. [`estimate_triangles`] does exactly that (each copy gets its
//! own seed derived from the configuration seed), aggregates the space of
//! the copies as if they ran in parallel over the same six passes, and
//! reports everything an experiment needs in a [`TriangleEstimation`].
//!
//! The copies are embarrassingly parallel, so the single-copy building
//! blocks are public: [`run_main_copy`] / [`run_ideal_copy`] execute one
//! copy with its deterministic derived seed — by driving the estimator's
//! stage object ([`crate::MainCopyStages`] / [`crate::IdealCopyStages`])
//! one pass per sweep — and [`aggregate_copies`] folds any set of per-copy
//! results into a [`TriangleEstimation`] exactly as the copy loop here
//! does. `degentri-engine` schedules those same building blocks and stage
//! objects across worker threads, which is why its results are
//! bit-identical to this runner.

use degentri_stream::{EdgeStream, SpaceMeter, SpaceReport, DEFAULT_BATCH_SIZE};

use crate::config::EstimatorConfig;
use crate::estimator::{MainEstimator, MainOutcome};
use crate::ideal::{IdealEstimator, IdealOutcome};
use crate::median_of_means::median_of_means;
use crate::oracle::DegreeOracle;
use crate::Result;

/// Golden-ratio multiplier deriving per-copy seeds for the main estimator.
const MAIN_COPY_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplier deriving per-copy seeds for the ideal estimator.
const IDEAL_COPY_SEED_STRIDE: u64 = 0xD1B5_4A32_D192_ED03;

/// The deterministic seed of main-estimator copy `copy` for a configuration
/// seed. Shared by the sequential runner and the parallel engine so both
/// produce identical per-copy estimates.
pub fn main_copy_seed(config_seed: u64, copy: usize) -> u64 {
    config_seed.wrapping_add(MAIN_COPY_SEED_STRIDE.wrapping_mul(copy as u64 + 1))
}

/// The deterministic seed of ideal-estimator copy `copy` for a
/// configuration seed.
pub fn ideal_copy_seed(config_seed: u64, copy: usize) -> u64 {
    config_seed.wrapping_add(IDEAL_COPY_SEED_STRIDE.wrapping_mul(copy as u64 + 1))
}

/// Runs one copy of the six-pass estimator (Algorithm 2) with the seed
/// derived for `copy`. Copies are independent, so callers may execute them
/// in any order or concurrently and aggregate with [`aggregate_copies`].
pub fn run_main_copy<S: EdgeStream + ?Sized>(
    stream: &S,
    config: &EstimatorConfig,
    copy: usize,
) -> Result<MainOutcome> {
    run_main_copy_with(stream, config, copy, DEFAULT_BATCH_SIZE)
}

/// [`run_main_copy`] with an explicit chunk size. Bit-identical to
/// [`run_main_copy`] for any chunk size.
pub fn run_main_copy_with<S: EdgeStream + ?Sized>(
    stream: &S,
    config: &EstimatorConfig,
    copy: usize,
    batch_size: usize,
) -> Result<MainOutcome> {
    MainEstimator::new(config.clone()).run_seeded_with(
        stream,
        main_copy_seed(config.seed, copy),
        batch_size,
    )
}

/// Runs one copy of the ideal (degree-oracle) estimator with the seed
/// derived for `copy`.
pub fn run_ideal_copy<S, O>(
    stream: &S,
    oracle: &O,
    config: &EstimatorConfig,
    copy: usize,
) -> Result<IdealOutcome>
where
    S: EdgeStream + ?Sized,
    O: DegreeOracle + Sync,
{
    run_ideal_copy_with(stream, oracle, config, copy, DEFAULT_BATCH_SIZE)
}

/// [`run_ideal_copy`] with an explicit chunk size. Bit-identical to
/// [`run_ideal_copy`] for any chunk size.
pub fn run_ideal_copy_with<S, O>(
    stream: &S,
    oracle: &O,
    config: &EstimatorConfig,
    copy: usize,
    batch_size: usize,
) -> Result<IdealOutcome>
where
    S: EdgeStream + ?Sized,
    O: DegreeOracle + Sync,
{
    let mut copy_config = config.clone();
    copy_config.seed = ideal_copy_seed(config.seed, copy);
    IdealEstimator::new(copy_config).run_with(stream, oracle, batch_size)
}

/// One copy's contribution to a multi-copy aggregate: what
/// [`aggregate_copies`] needs from a [`MainOutcome`] or [`IdealOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyContribution {
    /// The copy's estimate `X`.
    pub estimate: f64,
    /// Passes the copy made over the stream.
    pub passes: u32,
    /// Peak words the copy retained.
    pub peak_words: u64,
}

impl From<&MainOutcome> for CopyContribution {
    fn from(o: &MainOutcome) -> Self {
        CopyContribution {
            estimate: o.estimate,
            passes: o.passes,
            peak_words: o.space.peak_words,
        }
    }
}

impl From<&IdealOutcome> for CopyContribution {
    fn from(o: &IdealOutcome) -> Self {
        CopyContribution {
            estimate: o.estimate,
            passes: o.passes,
            peak_words: o.space.peak_words,
        }
    }
}

/// Aggregates per-copy results (in copy order) into a
/// [`TriangleEstimation`]: median-of-means over `⌈copies/3⌉` groups, with
/// the copies' space composed in parallel — exactly the aggregation of the
/// sequential runner, so any scheduler that produces the same per-copy
/// results produces the same estimation.
pub fn aggregate_copies(contributions: &[CopyContribution]) -> TriangleEstimation {
    let mut copy_estimates = Vec::with_capacity(contributions.len());
    let mut meter = SpaceMeter::new();
    let mut passes = 0;
    for c in contributions {
        passes = c.passes;
        copy_estimates.push(c.estimate);
        let mut copy_meter = SpaceMeter::new();
        copy_meter.charge(c.peak_words);
        meter.absorb_parallel(&copy_meter);
    }
    let groups = copy_estimates.len().div_ceil(3).max(1);
    let estimate = median_of_means(&copy_estimates, groups).unwrap_or(0.0);
    TriangleEstimation {
        estimate,
        copies: copy_estimates.len(),
        copy_estimates,
        passes_per_copy: passes,
        space: meter.report(),
    }
}

/// Result of a (multi-copy) triangle estimation.
#[derive(Debug, Clone)]
pub struct TriangleEstimation {
    /// The aggregated estimate of the triangle count.
    pub estimate: f64,
    /// Estimates of the individual copies (before aggregation).
    pub copy_estimates: Vec<f64>,
    /// Passes over the stream made by one copy (copies share passes when run
    /// in parallel; 6 for the main estimator, 3 for the ideal one).
    pub passes_per_copy: u32,
    /// Total words of retained state across all copies (parallel
    /// composition, the honest way to account for independent copies that
    /// share the same passes).
    pub space: SpaceReport,
    /// Number of copies that were aggregated.
    pub copies: usize,
}

impl TriangleEstimation {
    /// Relative error against a known exact count.
    pub fn relative_error(&self, exact: u64) -> f64 {
        if exact == 0 {
            if self.estimate == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.estimate - exact as f64).abs() / exact as f64
        }
    }
}

/// Runs `config.copies` independent copies of the six-pass estimator
/// (Algorithm 2) and aggregates them with median-of-means.
pub fn estimate_triangles<S: EdgeStream + ?Sized>(
    stream: &S,
    config: &EstimatorConfig,
) -> Result<TriangleEstimation> {
    config.validate()?;
    let mut contributions = Vec::with_capacity(config.copies);
    for copy in 0..config.copies {
        let outcome: MainOutcome = run_main_copy(stream, config, copy)?;
        contributions.push(CopyContribution::from(&outcome));
    }
    Ok(aggregate_copies(&contributions))
}

/// Runs `config.copies` batched runs of the ideal (degree-oracle) estimator
/// of Section 4 and aggregates them with median-of-means.
///
/// The oracle's own `Θ(n)` table is charged to the model, not to the
/// reported space (see [`crate::oracle`]).
pub fn estimate_triangles_with_oracle<S, O>(
    stream: &S,
    oracle: &O,
    config: &EstimatorConfig,
) -> Result<TriangleEstimation>
where
    S: EdgeStream + ?Sized,
    O: DegreeOracle + Sync,
{
    config.validate()?;
    let mut contributions = Vec::with_capacity(config.copies);
    for copy in 0..config.copies {
        let outcome: IdealOutcome = run_ideal_copy(stream, oracle, config, copy)?;
        contributions.push(CopyContribution::from(&outcome));
    }
    Ok(aggregate_copies(&contributions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactDegreeOracle;
    use degentri_gen::{barabasi_albert, wheel};
    use degentri_graph::triangles::count_triangles;
    use degentri_stream::{MemoryStream, StreamOrder};

    #[test]
    fn multi_copy_main_estimator_is_accurate_on_wheel() {
        let g = wheel(1200).unwrap();
        let exact = count_triangles(&g);
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(5));
        let config = EstimatorConfig::builder()
            .epsilon(0.15)
            .kappa(3)
            .triangle_lower_bound(exact / 2)
            .r_constant(30.0)
            .inner_constant(60.0)
            .assignment_constant(30.0)
            .copies(9)
            .seed(77)
            .build();
        let result = estimate_triangles(&stream, &config).unwrap();
        assert_eq!(result.copies, 9);
        assert_eq!(result.passes_per_copy, 6);
        assert!(
            result.relative_error(exact) < 0.3,
            "estimate {} vs exact {exact}",
            result.estimate
        );
        assert!(result.space.peak_words > 0);
    }

    #[test]
    fn multi_copy_ideal_estimator_is_accurate_on_ba() {
        let g = barabasi_albert(900, 5, 13).unwrap();
        let exact = count_triangles(&g);
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(8));
        let oracle = ExactDegreeOracle::build(&stream);
        let config = EstimatorConfig::builder()
            .epsilon(0.15)
            .kappa(5)
            .triangle_lower_bound(exact / 2)
            .r_constant(30.0)
            .copies(5)
            .seed(3)
            .build();
        let result = estimate_triangles_with_oracle(&stream, &oracle, &config).unwrap();
        assert_eq!(result.passes_per_copy, 3);
        assert!(
            result.relative_error(exact) < 0.3,
            "estimate {} vs exact {exact}",
            result.estimate
        );
    }

    #[test]
    fn relative_error_handles_zero_exact() {
        let est = TriangleEstimation {
            estimate: 0.0,
            copy_estimates: vec![0.0],
            passes_per_copy: 6,
            space: SpaceReport::default(),
            copies: 1,
        };
        assert_eq!(est.relative_error(0), 0.0);
        let est = TriangleEstimation {
            estimate: 5.0,
            ..est
        };
        assert!(est.relative_error(0).is_infinite());
    }

    #[test]
    fn copies_are_independent_but_deterministic() {
        let g = wheel(300).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(299)
            .copies(4)
            .seed(11)
            .build();
        let a = estimate_triangles(&stream, &config).unwrap();
        let b = estimate_triangles(&stream, &config).unwrap();
        assert_eq!(a.copy_estimates, b.copy_estimates);
        // the copies themselves should not all be identical
        let first = a.copy_estimates[0];
        assert!(a.copy_estimates.iter().any(|&x| x != first));
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let g = wheel(50).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);
        let config = EstimatorConfig::builder().copies(0).build();
        assert!(estimate_triangles(&stream, &config).is_err());
    }

    #[test]
    fn copy_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..16).map(|c| main_copy_seed(7, c)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(main_copy_seed(7, 3), main_copy_seed(7, 3));
        assert_ne!(main_copy_seed(7, 0), ideal_copy_seed(7, 0));
    }

    #[test]
    fn single_copy_runs_plus_aggregation_match_the_sequential_runner() {
        let g = wheel(500).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(3));
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(499)
            .copies(6)
            .seed(21)
            .build();
        let sequential = estimate_triangles(&stream, &config).unwrap();
        let contributions: Vec<CopyContribution> = (0..config.copies)
            .map(|copy| CopyContribution::from(&run_main_copy(&stream, &config, copy).unwrap()))
            .collect();
        let rebuilt = aggregate_copies(&contributions);
        assert_eq!(rebuilt.estimate, sequential.estimate);
        assert_eq!(rebuilt.copy_estimates, sequential.copy_estimates);
        assert_eq!(rebuilt.space, sequential.space);
        assert_eq!(rebuilt.passes_per_copy, sequential.passes_per_copy);
    }

    #[test]
    fn aggregate_of_nothing_is_zero() {
        let agg = aggregate_copies(&[]);
        assert_eq!(agg.estimate, 0.0);
        assert_eq!(agg.copies, 0);
        assert_eq!(agg.space.peak_words, 0);
    }
}
