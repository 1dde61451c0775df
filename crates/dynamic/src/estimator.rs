//! The dynamic-stream (turnstile) port of the paper's estimator.
//!
//! Algorithm 2 needs three sampling primitives, all of which reservoir
//! sampling provides in the insert-only model:
//!
//! 1. a uniform random edge of the stream (to build `R`),
//! 2. the degree of a few tracked vertices (to weight `R` by `d_e`),
//! 3. a uniform random neighbor of a tracked vertex, plus a membership test
//!    for one specific edge (to close the sampled wedge).
//!
//! Under deletions none of these can be answered by reservoir sampling, but
//! each has a *linear-sketch* replacement: uniform surviving edges come from
//! [`degentri_sketch::L0Sampler`]s over the edge universe, degrees and
//! closure tests are exact signed counters on the (few) tracked keys, and
//! uniform surviving neighbors come from ℓ0 samplers over the neighborhood
//! of the tracked vertex. [`DynamicTriangleEstimator`] wires those pieces
//! into the same four-pass skeleton as the insert-only estimator.
//!
//! # Randomness and sharding
//!
//! Like the insert-only estimators, the turnstile estimator derives all
//! randomness from pure functions of the configuration seed (see
//! `degentri_core::rng`): sketch `k` of a bank is seeded by
//! `hash(seed, stream-tag, k, draw)` and the degree-proportional instance
//! picks come from one of two rules selected by [`CounterSelection`] — the
//! default prefix-sum inverse CDF (`O(log r)` per instance) or the
//! `WeightedPickCell` priority sweep of `degentri_core::rng` (`O(r)` per
//! instance, kept as the test oracle). Every copy executes through the
//! resumable stage object of [`crate::stages`] — the same implementation
//! whether a copy runs standalone, sharded, or inside the engine's fused
//! sweep cohorts.
//!
//! One subtlety distinguishes the turnstile port from the insert-only
//! estimators: the **per-update** randomness of a sketch must be keyed by
//! the *edge*, not by the update's stream position — an insertion and a
//! later deletion of the same edge must hash identically or they would not
//! cancel. The per-update work is therefore a deterministic **linear**
//! function of the update multiset, which is exactly what makes every pass
//! an order-insensitive fold: a sharded pass folds each contiguous update
//! shard into its own accumulator and merges the per-shard accumulators
//! (sketch sums are exact, signed counters add) **bit-identically** at any
//! shard or worker count. Stream positions are still threaded through the
//! folds — they are the carrier the insert-only passes key on — but the
//! turnstile decisions they feed (instance selection) happen at positions
//! *within `R`*, which are stable under deletions.
//!
//! Every ℓ0 bank shares one *fingerprint base* `z` (see
//! [`L0Sampler::with_fingerprint_base`]): the modular exponentiation
//! `z^edge` — by far the most expensive part of a sketch update — is
//! computed once per update and fanned out to the whole bank, instead of
//! once per recovery cell.
//!
//! [`L0Sampler::with_fingerprint_base`]: degentri_sketch::L0Sampler::with_fingerprint_base
//!
//! The estimator counts triangles *incident* to the sampled edges (and
//! divides by three); porting the assignment rule of Algorithm 3 would
//! reduce the variance on skewed instances exactly as in the insert-only
//! case, at the cost of one more sketch per candidate edge, and is left as
//! configuration for the ablation experiments. Space is
//! `Õ(mκ/T · polylog)` — each ℓ0 sampler costs `Θ(log²)` words, which is the
//! usual price of turnstile robustness.

use std::time::Instant;

use degentri_core::rng::RngMode;
use degentri_obs::PassTally;
use degentri_stream::{
    DynamicEdgeStream, ShardedDynamicStream, SpaceMeter, SpaceReport, DEFAULT_BATCH_SIZE,
};

use crate::error::DynamicError;
use crate::stages::{DynamicCopyStages, DynamicStageAcc};
use crate::Result;

/// How a copy picks its degree-proportional instances from the recovered
/// edge sample `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterSelection {
    /// Prefix-sum inverse CDF over position-keyed uniforms: pick `i`
    /// inverts one uniform `hash(seed, tag, i)` through the cumulative
    /// degree weights — `O(log r)` per instance. The default.
    #[default]
    PrefixCdf,
    /// The position-keyed [`WeightedPickCell`] sweep of PR 4: instance `i`
    /// scans all of `R` and keeps the position maximizing the
    /// Efraimidis–Spirakis priority — `O(r)` per instance. Kept as the
    /// distributional test oracle for [`CounterSelection::PrefixCdf`]
    /// (both draw weight-proportional picks; see
    /// `crates/dynamic/tests/proptests.rs`).
    PrioritySweep,
}

/// Configuration of the dynamic-stream triangle estimator.
#[derive(Debug, Clone)]
pub struct DynamicEstimatorConfig {
    /// Target relative accuracy ε.
    pub epsilon: f64,
    /// Degeneracy bound κ of the surviving graph.
    pub kappa: usize,
    /// Lower bound on the triangle count of the surviving graph.
    pub triangle_lower_bound: u64,
    /// Constant in front of the edge-sample size `r`.
    pub r_constant: f64,
    /// Constant in front of the inner-instance count.
    pub inner_constant: f64,
    /// Number of independent copies whose median is reported.
    pub copies: usize,
    /// Randomness seed.
    pub seed: u64,
    /// Hard cap on `r` and the inner-instance count.
    pub max_samples: usize,
    /// The instance-selection rule.
    pub counter_selection: CounterSelection,
}

impl DynamicEstimatorConfig {
    /// A configuration with sensible practical defaults for the given
    /// degeneracy bound and triangle lower bound.
    pub fn new(kappa: usize, triangle_lower_bound: u64) -> Self {
        DynamicEstimatorConfig {
            epsilon: 0.25,
            kappa: kappa.max(1),
            triangle_lower_bound: triangle_lower_bound.max(1),
            r_constant: 2.0,
            inner_constant: 2.0,
            copies: 3,
            seed: 0,
            max_samples: 200_000,
            counter_selection: CounterSelection::PrefixCdf,
        }
    }

    /// Sets the target accuracy ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the number of independent copies.
    pub fn with_copies(mut self, copies: usize) -> Self {
        self.copies = copies;
        self
    }

    /// Sets the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sample-size constants.
    pub fn with_constants(mut self, r_constant: f64, inner_constant: f64) -> Self {
        self.r_constant = r_constant;
        self.inner_constant = inner_constant;
        self
    }

    /// Caps both sample sizes.
    pub fn with_max_samples(mut self, cap: usize) -> Self {
        self.max_samples = cap.max(1);
        self
    }

    /// Accepts the randomness regime and changes nothing:
    /// [`RngMode::Counter`] is the only regime, so every configuration
    /// already runs under it. Kept so callers that name the regime
    /// explicitly still build.
    pub fn with_rng_mode(self, mode: RngMode) -> Self {
        let RngMode::Counter = mode;
        self
    }

    /// Selects the instance-selection rule (the default is
    /// the `O(log r)`-per-instance [`CounterSelection::PrefixCdf`];
    /// [`CounterSelection::PrioritySweep`] keeps PR 4's `O(r)` sweep,
    /// retained as the distributional test oracle).
    pub fn with_counter_selection(mut self, selection: CounterSelection) -> Self {
        self.counter_selection = selection;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(DynamicError::invalid_parameter(
                "epsilon must lie strictly between 0 and 1",
            ));
        }
        if self.kappa == 0 {
            return Err(DynamicError::invalid_parameter("kappa must be at least 1"));
        }
        if self.triangle_lower_bound == 0 {
            return Err(DynamicError::invalid_parameter(
                "triangle_lower_bound must be at least 1",
            ));
        }
        if self.copies == 0 {
            return Err(DynamicError::invalid_parameter("copies must be at least 1"));
        }
        if self.r_constant <= 0.0 || self.inner_constant <= 0.0 {
            return Err(DynamicError::invalid_parameter(
                "sample-size constants must be positive",
            ));
        }
        Ok(())
    }

    fn oversampling(&self) -> f64 {
        1.0 / (self.epsilon * self.epsilon)
    }

    /// Number of ℓ0 edge samplers (the analogue of `r`).
    pub fn derive_r(&self, m_hint: usize) -> usize {
        let target =
            self.r_constant * self.oversampling() * m_hint.max(1) as f64 * self.kappa as f64
                / self.triangle_lower_bound as f64;
        (target.ceil() as usize).clamp(1, self.max_samples.min(m_hint.max(1)))
    }

    /// Number of inner degree-proportional instances.
    pub fn derive_inner(&self, m_net: usize, r: usize, d_r: u64) -> usize {
        let target =
            self.inner_constant * self.oversampling() * m_net.max(1) as f64 * d_r.max(1) as f64
                / (r.max(1) as f64 * self.triangle_lower_bound as f64);
        (target.ceil() as usize).clamp(1, self.max_samples)
    }
}

/// Result of running the dynamic-stream estimator.
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// The triangle estimate for the surviving graph (median over copies).
    pub estimate: f64,
    /// Estimates of the individual copies, in copy order.
    pub copy_estimates: Vec<f64>,
    /// Passes over the update stream made by one copy.
    pub passes: u32,
    /// Retained-state space summed over all copies.
    pub space: SpaceReport,
    /// Number of independent copies run.
    pub copies: usize,
    /// Number of ℓ0 edge samplers per copy.
    pub r: usize,
    /// Number of inner instances per copy.
    pub inner_samples: usize,
    /// Triangles discovered across all copies (diagnostic).
    pub triangles_found: u64,
    /// Net number of surviving edges measured in pass 1.
    pub surviving_edges: usize,
    /// Wall time of each of the four passes: the per-pass maximum over the
    /// copies, so with concurrent copies the entries approximate the
    /// critical path of each pass tier.
    pub pass_nanos: [u64; 4],
}

impl DynamicOutcome {
    /// Relative error against a known exact count.
    pub fn relative_error(&self, exact: u64) -> f64 {
        if exact == 0 {
            if self.estimate.abs() < 1e-12 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.estimate - exact as f64).abs() / exact as f64
        }
    }
}

/// One copy's contribution to a multi-copy [`DynamicOutcome`] — what
/// [`aggregate_dynamic_copies`] needs from a single run. Copies are
/// independent, so a scheduler (the engine's `JobKind::Dynamic` path) may
/// execute them in any order or concurrently and aggregate afterwards,
/// bit-identically to [`DynamicTriangleEstimator::run`].
#[derive(Debug, Clone, Copy)]
pub struct DynamicCopyOutcome {
    /// The copy's incident-triangle estimate.
    pub estimate: f64,
    /// Retained-state space of this copy.
    pub space: SpaceReport,
    /// Closed wedges this copy observed (diagnostic).
    pub triangles_found: u64,
    /// Edges actually recovered into `R` by the ℓ0 bank.
    pub r: usize,
    /// Inner degree-proportional instances the copy ran.
    pub inner_samples: usize,
    /// Net surviving edges measured in pass 1.
    pub surviving_edges: usize,
    /// Wall time of each of the four passes of this copy.
    pub pass_nanos: [u64; 4],
    /// Per-pass work tallies (items folded / probe hits / sketch updates).
    pub pass_tallies: [PassTally; 4],
}

/// Equality over the *results* of a copy run.
/// [`pass_nanos`](DynamicCopyOutcome::pass_nanos) is deliberately
/// excluded: wall-clock timings legitimately differ between bit-identical
/// runs, and parity tests compare whole outcomes.
impl PartialEq for DynamicCopyOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.estimate.to_bits() == other.estimate.to_bits()
            && self.space == other.space
            && self.triangles_found == other.triangles_found
            && self.r == other.r
            && self.inner_samples == other.inner_samples
            && self.surviving_edges == other.surviving_edges
            && self.pass_tallies == other.pass_tallies
    }
}

/// Golden-ratio stride deriving per-copy seeds — the derivation the
/// multi-copy loop of [`DynamicTriangleEstimator::run`] uses, shared with
/// the engine so both produce identical per-copy estimates.
pub fn dynamic_copy_seed(config_seed: u64, copy: usize) -> u64 {
    config_seed.wrapping_add((copy as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Runs one copy of the turnstile estimator with the seed derived for
/// `copy` and the default batch size.
pub fn run_dynamic_copy<S: DynamicEdgeStream + ?Sized>(
    stream: &S,
    config: &DynamicEstimatorConfig,
    copy: usize,
) -> Result<DynamicCopyOutcome> {
    run_dynamic_copy_with(stream, config, copy, DEFAULT_BATCH_SIZE)
}

/// [`run_dynamic_copy`] with an explicit batched-delivery chunk size.
/// Bit-identical to [`run_dynamic_copy`] at any batch size.
pub fn run_dynamic_copy_with<S: DynamicEdgeStream + ?Sized>(
    stream: &S,
    config: &DynamicEstimatorConfig,
    copy: usize,
    batch_size: usize,
) -> Result<DynamicCopyOutcome> {
    drive_copy(
        config,
        stream,
        None,
        dynamic_copy_seed(config.seed, copy),
        batch_size.max(1),
    )
}

/// [`run_dynamic_copy`] over a sharded snapshot view: every pass runs
/// shard-parallel on up to `shard_workers` threads with per-shard sketch
/// banks and counters merged in shard order — bit-identical to the plain
/// copy at any shard or worker count.
pub fn run_dynamic_copy_sharded(
    view: &ShardedDynamicStream<'_>,
    config: &DynamicEstimatorConfig,
    copy: usize,
    batch_size: usize,
    shard_workers: usize,
) -> Result<DynamicCopyOutcome> {
    drive_copy(
        config,
        view,
        Some((view, shard_workers)),
        dynamic_copy_seed(config.seed, copy),
        batch_size.max(1),
    )
}

/// Aggregates per-copy results (in copy order) into a [`DynamicOutcome`]:
/// the median of the copy estimates, with the copies' space composed in
/// parallel — exactly the aggregation of the multi-copy loop of
/// [`DynamicTriangleEstimator::run`], so any scheduler producing the same
/// per-copy results produces the same outcome.
///
/// Every element must be a **fully finished** copy — a
/// [`DynamicCopyOutcome`] only exists once all four passes completed, so
/// a scheduler that degrades a job to a surviving-copy subset must drop a
/// failed copy's *stage state*, never synthesize a partial outcome for
/// it. (The engine's cohort eviction removes the staged copy itself,
/// which is what makes this contract hold under mid-pass faults.)
pub fn aggregate_dynamic_copies(copies: &[DynamicCopyOutcome]) -> DynamicOutcome {
    let copy_estimates: Vec<f64> = copies.iter().map(|c| c.estimate).collect();
    let mut sorted = copy_estimates.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
    let mid = sorted.len() / 2;
    let estimate = if sorted.is_empty() {
        0.0
    } else if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    let mut meter = SpaceMeter::new();
    let mut found = 0u64;
    let mut r_used = 0usize;
    let mut inner_used = 0usize;
    let mut m_net = 0usize;
    let mut pass_nanos = [0u64; 4];
    for c in copies {
        let mut copy_meter = SpaceMeter::new();
        copy_meter.charge(c.space.peak_words);
        copy_meter.release(c.space.peak_words - c.space.final_words);
        meter.absorb_parallel(&copy_meter);
        found += c.triangles_found;
        r_used = c.r;
        inner_used = c.inner_samples;
        m_net = c.surviving_edges;
        for (total, &nanos) in pass_nanos.iter_mut().zip(&c.pass_nanos) {
            *total = (*total).max(nanos);
        }
    }
    DynamicOutcome {
        estimate,
        copy_estimates,
        passes: 4,
        space: meter.report(),
        copies: copies.len(),
        r: r_used,
        inner_samples: inner_used,
        triangles_found: found,
        surviving_edges: m_net,
        pass_nanos,
    }
}

/// The ℓ0-sampling port of the paper's estimator to turnstile streams.
#[derive(Debug, Clone)]
pub struct DynamicTriangleEstimator {
    config: DynamicEstimatorConfig,
}

// Edges enter the ℓ0 sketches through the canonical `Edge::key` packing
// (smaller endpoint high, larger low) and come back out via
// `Edge::from_key` — the same bijection the insert-only hot loops probe
// with.

impl DynamicTriangleEstimator {
    /// Creates the estimator with the given configuration.
    pub fn new(config: DynamicEstimatorConfig) -> Self {
        DynamicTriangleEstimator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DynamicEstimatorConfig {
        &self.config
    }

    /// Runs `copies` independent copies and reports the median estimate.
    pub fn run<S: DynamicEdgeStream + ?Sized>(&self, stream: &S) -> Result<DynamicOutcome> {
        self.config.validate()?;
        if stream.num_updates() == 0 {
            return Err(DynamicError::EmptyStream);
        }
        let mut copies = Vec::with_capacity(self.config.copies);
        for copy in 0..self.config.copies {
            copies.push(run_dynamic_copy_with(
                stream,
                &self.config,
                copy,
                DEFAULT_BATCH_SIZE,
            )?);
        }
        Ok(aggregate_dynamic_copies(&copies))
    }

    /// [`run`](DynamicTriangleEstimator::run) over a sharded snapshot view,
    /// with every copy's passes folded on up to `shard_workers` threads
    /// (see [`run_dynamic_copy_sharded`]). Bit-identical to
    /// [`run`](DynamicTriangleEstimator::run) over the same updates at any
    /// shard or worker count.
    pub fn run_sharded(
        &self,
        view: &ShardedDynamicStream<'_>,
        shard_workers: usize,
    ) -> Result<DynamicOutcome> {
        self.config.validate()?;
        if view.num_updates() == 0 {
            return Err(DynamicError::EmptyStream);
        }
        let mut copies = Vec::with_capacity(self.config.copies);
        for copy in 0..self.config.copies {
            copies.push(run_dynamic_copy_sharded(
                view,
                &self.config,
                copy,
                DEFAULT_BATCH_SIZE,
                shard_workers,
            )?);
        }
        Ok(aggregate_dynamic_copies(&copies))
    }
}

/// Drives one copy through its four stage-object passes over a plain or
/// sharded snapshot — the standalone twin of the engine's fused sweep
/// driver (one copy per sweep here, many there; same
/// [`DynamicCopyStages`] implementation, hence bit-identical outcomes).
fn drive_copy<S: DynamicEdgeStream + ?Sized>(
    config: &DynamicEstimatorConfig,
    stream: &S,
    shard: Option<(&ShardedDynamicStream<'_>, usize)>,
    seed: u64,
    batch: usize,
) -> Result<DynamicCopyOutcome> {
    let mut stages =
        DynamicCopyStages::new(config, stream.num_updates(), stream.num_vertices(), seed)?;
    while !stages.finished() {
        let pass = stages.pass_index();
        let started = Instant::now();
        let accs: Vec<DynamicStageAcc> = match shard {
            Some((view, workers)) => {
                let stages_ref = &stages;
                view.pass_sharded(workers, |s, updates| {
                    let mut acc = stages_ref.begin_pass();
                    stages_ref.fold(&mut acc, view.shard_range(s).start as u64, updates);
                    acc
                })
            }
            None => {
                let mut acc = stages.begin_pass();
                let mut pos = 0u64;
                stream.pass_batched(batch, &mut |chunk| {
                    stages.fold(&mut acc, pos, chunk);
                    pos += chunk.len() as u64;
                });
                vec![acc]
            }
        };
        stages.finish_pass(accs)?;
        stages.set_pass_nanos(pass, started.elapsed().as_nanos() as u64);
    }
    stages.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use degentri_gen::{barabasi_albert, grid, wheel};
    use degentri_graph::triangles::count_triangles;
    use degentri_graph::Edge;
    use degentri_stream::DynamicMemoryStream;

    #[test]
    fn configuration_validation() {
        assert!(DynamicEstimatorConfig::new(3, 100).validate().is_ok());
        assert!(DynamicEstimatorConfig::new(3, 100)
            .with_epsilon(0.0)
            .validate()
            .is_err());
        assert!(DynamicEstimatorConfig::new(3, 100)
            .with_copies(0)
            .validate()
            .is_err());
        assert!(DynamicEstimatorConfig::new(3, 100)
            .with_constants(-1.0, 2.0)
            .validate()
            .is_err());
        let mut zero_kappa = DynamicEstimatorConfig::new(3, 100);
        zero_kappa.kappa = 0;
        assert!(zero_kappa.validate().is_err());
    }

    #[test]
    fn empty_stream_is_an_error() {
        let stream = DynamicMemoryStream::from_updates(4, Vec::new());
        let config = DynamicEstimatorConfig::new(2, 10);
        let out = DynamicTriangleEstimator::new(config).run(&stream);
        assert!(matches!(out, Err(DynamicError::EmptyStream)));
    }

    #[test]
    fn fully_cancelled_stream_is_an_error() {
        let g = wheel(50).unwrap();
        let stream = DynamicMemoryStream::insert_then_delete(&g, |_| false, 3);
        let config = DynamicEstimatorConfig::new(3, 10).with_copies(1);
        let out = DynamicTriangleEstimator::new(config).run(&stream);
        assert!(matches!(out, Err(DynamicError::EmptySurvivingGraph)));
    }

    #[test]
    fn accurate_on_an_insert_only_wheel() {
        let g = wheel(400).unwrap();
        let exact = count_triangles(&g);
        let stream = DynamicMemoryStream::insert_only(&g, 7);
        let config = DynamicEstimatorConfig::new(3, exact / 2)
            .with_epsilon(0.3)
            .with_copies(5)
            .with_seed(11);
        let out = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
        assert!(
            out.relative_error(exact) < 0.45,
            "estimate {} vs exact {exact}",
            out.estimate
        );
        assert_eq!(out.passes, 4);
        assert_eq!(out.surviving_edges, g.num_edges());
        assert_eq!(out.copy_estimates.len(), 5);
    }

    #[test]
    fn counter_mode_is_accurate_on_an_insert_only_wheel() {
        let g = wheel(400).unwrap();
        let exact = count_triangles(&g);
        let stream = DynamicMemoryStream::insert_only(&g, 7);
        let config = DynamicEstimatorConfig::new(3, exact / 2)
            .with_epsilon(0.3)
            .with_copies(5)
            .with_seed(11)
            .with_rng_mode(RngMode::Counter);
        let out = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
        assert!(
            out.relative_error(exact) < 0.45,
            "estimate {} vs exact {exact}",
            out.estimate
        );
        assert_eq!(out.surviving_edges, g.num_edges());
    }

    #[test]
    fn churn_deletions_do_not_bias_the_estimate() {
        let g = wheel(300).unwrap();
        let exact = count_triangles(&g);
        let stream = DynamicMemoryStream::with_churn(&g, 0.7, 13);
        assert!(stream.num_deletions() > 0);
        let config = DynamicEstimatorConfig::new(3, exact / 2)
            .with_epsilon(0.3)
            .with_copies(5)
            .with_seed(23);
        let out = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
        assert!(
            out.relative_error(exact) < 0.45,
            "estimate {} vs exact {exact}",
            out.estimate
        );
        // The net edge count must see through the churn.
        assert_eq!(out.surviving_edges, g.num_edges());
    }

    #[test]
    fn deleting_the_rim_removes_every_triangle() {
        let g = wheel(200).unwrap();
        let stream = DynamicMemoryStream::insert_then_delete(
            &g,
            |e| e.u().index() == 0 || e.v().index() == 0,
            5,
        );
        let config = DynamicEstimatorConfig::new(3, 50)
            .with_epsilon(0.3)
            .with_copies(3)
            .with_seed(1);
        let out = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
        assert_eq!(out.estimate, 0.0, "no triangles survive the deletions");
        assert_eq!(out.triangles_found, 0);
    }

    #[test]
    fn triangle_free_graphs_estimate_zero_under_churn() {
        let g = grid(12, 12).unwrap();
        let stream = DynamicMemoryStream::with_churn(&g, 0.5, 9);
        let config = DynamicEstimatorConfig::new(2, 20)
            .with_epsilon(0.3)
            .with_copies(3)
            .with_seed(3);
        let out = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn reasonable_on_a_churned_social_graph() {
        let g = barabasi_albert(250, 5, 3).unwrap();
        let exact = count_triangles(&g);
        let stream = DynamicMemoryStream::with_churn(&g, 0.4, 17);
        let config = DynamicEstimatorConfig::new(5, exact / 2)
            .with_epsilon(0.3)
            .with_copies(5)
            .with_seed(29)
            .with_max_samples(2000);
        let out = DynamicTriangleEstimator::new(config).run(&stream).unwrap();
        assert!(
            out.relative_error(exact) < 0.6,
            "estimate {} vs exact {exact}",
            out.estimate
        );
        assert!(out.space.peak_words > 0);
    }

    #[test]
    fn copy_runner_plus_aggregation_match_run() {
        let g = wheel(250).unwrap();
        let stream = DynamicMemoryStream::with_churn(&g, 0.5, 19);
        let config = DynamicEstimatorConfig::new(3, 120)
            .with_epsilon(0.3)
            .with_copies(4)
            .with_seed(7);
        let whole = DynamicTriangleEstimator::new(config.clone())
            .run(&stream)
            .unwrap();
        let copies: Vec<DynamicCopyOutcome> = (0..config.copies)
            .map(|c| run_dynamic_copy(&stream, &config, c).unwrap())
            .collect();
        let rebuilt = aggregate_dynamic_copies(&copies);
        assert_eq!(rebuilt.estimate.to_bits(), whole.estimate.to_bits());
        assert_eq!(rebuilt.copy_estimates, whole.copy_estimates);
        assert_eq!(rebuilt.space, whole.space);
        assert_eq!(rebuilt.triangles_found, whole.triangles_found);
    }

    #[test]
    fn batch_size_never_changes_a_copy() {
        let g = wheel(200).unwrap();
        let stream = DynamicMemoryStream::with_churn(&g, 0.6, 3);
        let config = DynamicEstimatorConfig::new(3, 100)
            .with_copies(1)
            .with_seed(5);
        let reference = run_dynamic_copy(&stream, &config, 0).unwrap();
        for batch in [1usize, 7, 64, 100_000] {
            let out = run_dynamic_copy_with(&stream, &config, 0, batch).unwrap();
            assert_eq!(
                out.estimate.to_bits(),
                reference.estimate.to_bits(),
                "batch {batch}"
            );
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn counter_mode_is_bit_identical_across_shards_and_workers() {
        let g = barabasi_albert(120, 4, 9).unwrap();
        let stream = DynamicMemoryStream::with_churn(&g, 0.5, 31);
        let config = DynamicEstimatorConfig::new(4, count_triangles(&g).max(1) / 2)
            .with_epsilon(0.3)
            .with_copies(2)
            .with_seed(13)
            .with_max_samples(120)
            .with_rng_mode(RngMode::Counter);
        let estimator = DynamicTriangleEstimator::new(config);
        let reference = estimator.run(&stream).unwrap();
        for shards in 1..=8usize {
            for workers in [1usize, 2, 4] {
                let view = degentri_stream::ShardedDynamicStream::from_stream(&stream, shards);
                let out = estimator.run_sharded(&view, workers).unwrap();
                assert_eq!(
                    out.estimate.to_bits(),
                    reference.estimate.to_bits(),
                    "shards {shards} workers {workers}"
                );
                assert_eq!(out.copy_estimates, reference.copy_estimates);
                assert_eq!(out.space, reference.space);
                assert_eq!(out.triangles_found, reference.triangles_found);
            }
        }
    }

    #[test]
    fn copy_seeds_are_deterministic_and_distinct() {
        let seeds: Vec<u64> = (0..16).map(|c| dynamic_copy_seed(7, c)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(dynamic_copy_seed(7, 0), 7, "copy 0 keeps the config seed");
    }

    #[test]
    fn aggregate_of_nothing_is_zero() {
        let agg = aggregate_dynamic_copies(&[]);
        assert_eq!(agg.estimate, 0.0);
        assert_eq!(agg.copies, 0);
        assert!(agg.copy_estimates.is_empty());
    }

    #[test]
    fn edge_key_roundtrip() {
        for (a, b) in [(0u32, 1u32), (7, 9), (1000, 2000), (123_456, 654_321)] {
            let e = Edge::from_raw(a, b);
            assert_eq!(Edge::from_key(e.key()), e);
        }
    }
}
