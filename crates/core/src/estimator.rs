//! Algorithm 2: the six-pass streaming estimator (Section 5 of the paper).
//!
//! The estimator removes the degree oracle of the warm-up by *simulating*
//! degree-proportional edge sampling through a uniform sample:
//!
//! 1. **Pass 1** — sample `r` edges uniformly at random (i.i.d.): the
//!    multiset `R`.
//! 2. **Pass 2** — compute `d_e` for every `e ∈ R` by counting the incident
//!    edges of `R`'s endpoints; this yields `d_R = Σ_{e∈R} d_e`.
//!    Offline, draw `ℓ` *instances*: edges of `R` sampled with probability
//!    `d_e / d_R` (Lemma 5.7 sets `ℓ`).
//! 3. **Pass 3** — for every instance, sample a uniform vertex `w` of
//!    `N(e)` (the lower-degree endpoint's neighborhood).
//! 4. **Pass 4** — check which instances close a triangle, i.e. whether the
//!    third edge is present in the stream.
//! 5. **Pass 5** — for every *distinct* candidate triangle, gather what the
//!    assignment procedure needs: the degrees of its three edges and, for
//!    each edge, `s` uniform neighbor samples (from both endpoints, since
//!    the lower-degree endpoint is only known once the degrees are).
//! 6. **Pass 6** — check which of those neighbor samples close triangles;
//!    this gives the estimates `Y_e` of Algorithm 3 and hence the
//!    assignment decision for every candidate triangle.
//!
//! An instance contributes `Y_i = 1` exactly when it found a triangle that
//! `IsAssigned` assigns to its sampled edge. The output is
//! `X = (m/r) · d_R · mean(Y_i)` — exactly line 13 of Algorithm 2.
//!
//! # Execution
//!
//! Every sampling decision is a pure function of `(seed, stream position,
//! draw index)` (see [`crate::rng`]), so **all six passes** are
//! order-insensitive folds: pass 1 gathers `R` at seed-derived positions,
//! pass 3 keeps per-instance position-keyed priority maxima, and pass 5
//! samples once per *distinct candidate endpoint* (distinct triangles
//! share endpoints, so the per-vertex table also removes duplicate
//! sampling work).
//!
//! The estimator has one implementation: the **stage object**
//! [`MainCopyStages`] of [`crate::stages`], which exposes each pass as
//! `begin_pass → fold(batch) → finish_pass`. This module's driver walks it
//! over a plain stream or a sharded snapshot view
//! ([`MainEstimator::run_seeded_sharded`]) — one copy per sweep — while
//! the engine's fused sweep driver feeds the *same* folds chunk by chunk
//! for many copies per sweep. Per-shard accumulators merge associatively
//! and commutatively, so the outcome — estimate, counters, space — is
//! **bit-identical** at every batch size, shard count, worker count and
//! cohort grouping.

use std::time::Instant;

use degentri_graph::Edge;
use degentri_obs::PassTally;
use degentri_stream::{EdgeStream, ShardedStream, SpaceReport, DEFAULT_BATCH_SIZE};

use crate::config::EstimatorConfig;
use crate::error::EstimatorError;
use crate::stages::{MainCopyStages, MainStageAcc};
use crate::Result;

/// Outcome of one run of the six-pass estimator.
#[derive(Debug, Clone)]
pub struct MainOutcome {
    /// The triangle-count estimate `X`.
    pub estimate: f64,
    /// Number of passes over the stream (always 6).
    pub passes: u32,
    /// Wall-clock nanoseconds spent inside each of the six stream passes
    /// (sampling/bookkeeping between passes is excluded) — the raw material
    /// of the per-pass throughput numbers in the bench harness.
    pub pass_nanos: [u64; 6],
    /// Whether the passes executed shard-parallel over a sharded view
    /// (all six shard together, or none do).
    pub sharded: bool,
    /// Words of retained state (samples, counters, memo tables).
    pub space: SpaceReport,
    /// Size of the uniform edge sample `R` actually used.
    pub r: usize,
    /// Number of inner instances `ℓ`.
    pub inner_samples: usize,
    /// `d_R = Σ_{e∈R} d_e` measured in pass 2.
    pub d_r: u64,
    /// Number of instances whose sampled wedge closed into a triangle.
    pub triangles_found: usize,
    /// Number of distinct candidate triangles that went through Assignment.
    pub distinct_triangles: usize,
    /// Number of instances whose triangle was assigned to their edge
    /// (the successes that drive the estimate).
    pub assigned_hits: usize,
    /// Observation-only fold-loop tallies per pass (items delivered, probe
    /// hits, occurrence updates).
    pub pass_tallies: [PassTally; 6],
}

/// The six-pass streaming estimator of Section 5.
#[derive(Debug, Clone)]
pub struct MainEstimator {
    config: EstimatorConfig,
}

impl MainEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        MainEstimator { config }
    }

    /// Runs the six-pass estimator once over `stream`.
    pub fn run<S: EdgeStream + ?Sized>(&self, stream: &S) -> Result<MainOutcome> {
        self.run_seeded(stream, self.config.seed)
    }

    /// Runs the estimator with an explicit seed (used by the multi-copy
    /// runner so each copy is independent).
    pub fn run_seeded<S: EdgeStream + ?Sized>(&self, stream: &S, seed: u64) -> Result<MainOutcome> {
        self.run_seeded_with(stream, seed, DEFAULT_BATCH_SIZE)
    }

    /// Runs the estimator with an explicit seed and chunk size. Results
    /// are bit-identical to [`run_seeded`](MainEstimator::run_seeded) for
    /// every `batch_size` — it only changes constant factors.
    pub fn run_seeded_with<S: EdgeStream + ?Sized>(
        &self,
        stream: &S,
        seed: u64,
        batch_size: usize,
    ) -> Result<MainOutcome> {
        self.run_impl(stream, None, seed, batch_size)
    }

    /// Runs the estimator over a sharded snapshot view, executing all six
    /// passes on up to `shard_workers` scoped threads. Per-shard
    /// accumulators are merged in shard order (sums, OR-ed bitmaps, and
    /// `(priority, position)` maxima are associative and commutative), so
    /// the outcome — estimate, counters, space — is **bit-identical** to
    /// [`run_seeded`](MainEstimator::run_seeded) over the same edges at
    /// every shard and worker count; sharding only changes wall-clock
    /// time.
    pub fn run_seeded_sharded(
        &self,
        sharded: &ShardedStream<'_>,
        seed: u64,
        batch_size: usize,
        shard_workers: usize,
    ) -> Result<MainOutcome> {
        self.run_impl(
            sharded,
            Some((sharded, shard_workers.max(1))),
            seed,
            batch_size,
        )
    }

    fn run_impl<S: EdgeStream + ?Sized>(
        &self,
        stream: &S,
        shard: Option<(&ShardedStream<'_>, usize)>,
        seed: u64,
        batch_size: usize,
    ) -> Result<MainOutcome> {
        self.config.validate()?;
        let m = stream.num_edges();
        if m == 0 {
            return Err(EstimatorError::EmptyStream);
        }
        let mut stages = MainCopyStages::new(&self.config, m, stream.num_vertices(), seed)?;
        drive_copy(&mut stages, stream, shard, batch_size.max(1))?;
        stages.finish()
    }

    /// The configuration this estimator runs with.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }
}

/// The `begin_pass → fold → finish_pass` protocol of a copy's stage
/// object, as [`drive_copy`] walks it. Implemented by the six-pass
/// [`MainCopyStages`] and the ideal estimator's
/// [`IdealCopyStages`](crate::IdealCopyStages).
pub(crate) trait CopyStages: Sync {
    /// The per-shard accumulator of one pass.
    type Acc: Send;
    fn finished(&self) -> bool;
    fn pass_index(&self) -> usize;
    fn set_sharded(&mut self, sharded: bool);
    fn set_pass_nanos(&mut self, pass: usize, nanos: u64);
    fn begin_pass(&self) -> Self::Acc;
    fn fold(&self, acc: &mut Self::Acc, pos: u64, chunk: &[Edge]);
    fn finish_pass(&mut self, accs: Vec<Self::Acc>) -> Result<()>;
}

impl CopyStages for MainCopyStages {
    type Acc = MainStageAcc;
    fn finished(&self) -> bool {
        MainCopyStages::finished(self)
    }
    fn pass_index(&self) -> usize {
        MainCopyStages::pass_index(self)
    }
    fn set_sharded(&mut self, sharded: bool) {
        MainCopyStages::set_sharded(self, sharded)
    }
    fn set_pass_nanos(&mut self, pass: usize, nanos: u64) {
        MainCopyStages::set_pass_nanos(self, pass, nanos)
    }
    fn begin_pass(&self) -> MainStageAcc {
        MainCopyStages::begin_pass(self)
    }
    fn fold(&self, acc: &mut MainStageAcc, pos: u64, chunk: &[Edge]) {
        MainCopyStages::fold(self, acc, pos, chunk)
    }
    fn finish_pass(&mut self, accs: Vec<MainStageAcc>) -> Result<()> {
        MainCopyStages::finish_pass(self, accs)
    }
}

/// Drives one copy's stage object through all its passes over a plain or
/// sharded snapshot. This is the standalone twin of the engine's fused
/// sweep driver: one copy per sweep here, many copies per sweep there —
/// the same stage implementation, hence bit-identical outcomes at every
/// batch size, shard count and worker count. Each pass's sweep time
/// (excluding `finish_pass`) is recorded on the copy.
pub(crate) fn drive_copy<C, S>(
    stages: &mut C,
    stream: &S,
    shard: Option<(&ShardedStream<'_>, usize)>,
    batch: usize,
) -> Result<()>
where
    C: CopyStages,
    S: EdgeStream + ?Sized,
{
    stages.set_sharded(shard.is_some());
    while !stages.finished() {
        let pass = stages.pass_index();
        let started = Instant::now();
        let accs: Vec<C::Acc> = match shard {
            Some((view, workers)) => {
                let stages_ref = &*stages;
                view.pass_sharded(workers, |s, edges| {
                    let mut acc = stages_ref.begin_pass();
                    stages_ref.fold(&mut acc, view.shard_range(s).start as u64, edges);
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
        let nanos = started.elapsed().as_nanos() as u64;
        stages.finish_pass(accs)?;
        stages.set_pass_nanos(pass, nanos);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use degentri_gen::{barabasi_albert, book, complete, grid, wheel};
    use degentri_graph::triangles::count_triangles;
    use degentri_graph::CsrGraph;
    use degentri_stream::{MemoryStream, PassCounter, StreamOrder};

    fn run_once(g: &CsrGraph, config: &EstimatorConfig, seed: u64) -> MainOutcome {
        let stream = MemoryStream::from_graph(g, StreamOrder::UniformRandom(1234));
        MainEstimator::new(config.clone())
            .run_seeded(&stream, seed)
            .unwrap()
    }

    /// Median estimate over several independent runs — what the public
    /// runner does; used here to make the accuracy tests statistically
    /// stable.
    fn median_estimate(g: &CsrGraph, config: &EstimatorConfig, copies: usize) -> f64 {
        let mut estimates: Vec<f64> = (0..copies)
            .map(|i| run_once(g, config, 1000 + i as u64).estimate)
            .collect();
        crate::median_of_means::median(&mut estimates)
    }

    fn config_for(g: &CsrGraph, kappa: usize, t_hint: u64) -> EstimatorConfig {
        let _ = g;
        EstimatorConfig::builder()
            .epsilon(0.15)
            .kappa(kappa)
            .triangle_lower_bound(t_hint)
            .r_constant(30.0)
            .inner_constant(60.0)
            .assignment_constant(30.0)
            .build()
    }

    #[test]
    fn uses_exactly_six_passes() {
        let g = wheel(300).unwrap();
        let stream = PassCounter::with_limit(MemoryStream::from_graph(&g, StreamOrder::AsGiven), 6);
        let config = config_for(&g, 3, 299);
        let out = MainEstimator::new(config).run(&stream).unwrap();
        assert_eq!(out.passes, 6);
        assert_eq!(stream.passes(), 6);
        assert!(!out.sharded);
    }

    #[test]
    fn six_passes_even_when_no_triangles_are_found() {
        let g = grid(15, 15).unwrap();
        let stream = PassCounter::with_limit(MemoryStream::from_graph(&g, StreamOrder::AsGiven), 6);
        let config = config_for(&g, 2, 1);
        let out = MainEstimator::new(config).run(&stream).unwrap();
        assert_eq!(stream.passes(), 6);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.triangles_found, 0);
    }

    #[test]
    fn accurate_on_wheel_graph() {
        let g = wheel(1500).unwrap();
        let exact = count_triangles(&g);
        let config = config_for(&g, 3, exact / 2);
        let estimate = median_estimate(&g, &config, 7);
        let err = (estimate - exact as f64).abs() / exact as f64;
        assert!(
            err < 0.3,
            "estimate {estimate} vs exact {exact} (err {err:.3})"
        );
    }

    #[test]
    fn accurate_on_book_graph_despite_extreme_skew() {
        let g = book(700).unwrap();
        let exact = count_triangles(&g);
        let config = config_for(&g, 2, exact / 2);
        let estimate = median_estimate(&g, &config, 7);
        let err = (estimate - exact as f64).abs() / exact as f64;
        assert!(
            err < 0.35,
            "estimate {estimate} vs exact {exact} (err {err:.3})"
        );
    }

    #[test]
    fn accurate_on_preferential_attachment() {
        let g = barabasi_albert(1200, 6, 21).unwrap();
        let exact = count_triangles(&g);
        let config = config_for(&g, 6, exact / 2);
        let estimate = median_estimate(&g, &config, 7);
        let err = (estimate - exact as f64).abs() / exact as f64;
        assert!(
            err < 0.35,
            "estimate {estimate} vs exact {exact} (err {err:.3})"
        );
    }

    #[test]
    fn accurate_on_complete_graph() {
        let g = complete(35).unwrap();
        let exact = count_triangles(&g);
        let config = config_for(&g, 34, exact / 2);
        let estimate = median_estimate(&g, &config, 7);
        let err = (estimate - exact as f64).abs() / exact as f64;
        assert!(
            err < 0.3,
            "estimate {estimate} vs exact {exact} (err {err:.3})"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = wheel(400).unwrap();
        let config = config_for(&g, 3, 399);
        let a = run_once(&g, &config, 42);
        let b = run_once(&g, &config, 42);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.d_r, b.d_r);
        assert_eq!(a.assigned_hits, b.assigned_hits);
        let c = run_once(&g, &config, 43);
        // different seed, almost surely a different sample
        assert!(a.estimate != c.estimate || a.d_r != c.d_r);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let g = wheel(500).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(9));
        let config = config_for(&g, 3, 499);
        let estimator = MainEstimator::new(config);
        let reference = estimator.run_seeded(&stream, 77).unwrap();
        for batch in [1, 7, 64, 100_000] {
            let out = estimator.run_seeded_with(&stream, 77, batch).unwrap();
            assert_eq!(out.estimate.to_bits(), reference.estimate.to_bits());
            assert_eq!(out.d_r, reference.d_r);
            assert_eq!(out.assigned_hits, reference.assigned_hits);
            assert_eq!(out.space, reference.space);
        }
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_sequential() {
        let g = barabasi_albert(500, 5, 3).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(4));
        let config = config_for(&g, 5, count_triangles(&g) / 2);
        let estimator = MainEstimator::new(config);
        let reference = estimator.run_seeded(&stream, 11).unwrap();
        for shards in 1..=8 {
            for workers in [1, 2, 4] {
                let view = ShardedStream::from_stream(&stream, shards);
                let out = estimator
                    .run_seeded_sharded(&view, 11, DEFAULT_BATCH_SIZE, workers)
                    .unwrap();
                assert_eq!(
                    out.estimate.to_bits(),
                    reference.estimate.to_bits(),
                    "shards {shards} workers {workers}"
                );
                assert_eq!(out.d_r, reference.d_r);
                assert_eq!(out.triangles_found, reference.triangles_found);
                assert_eq!(out.assigned_hits, reference.assigned_hits);
                assert_eq!(out.space, reference.space);
                // A sharded run shards every pass, still exactly six.
                assert!(out.sharded);
                assert_eq!(view.passes(), 6);
            }
        }
    }

    #[test]
    fn counter_mode_is_deterministic() {
        let g = barabasi_albert(600, 5, 7).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(2));
        let counter = MainEstimator::new(config_for(&g, 5, count_triangles(&g) / 2));
        let a = counter.run_seeded(&stream, 42).unwrap();
        let b = counter.run_seeded(&stream, 42).unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.d_r, b.d_r);
        assert_eq!(a.assigned_hits, b.assigned_hits);
        assert_eq!(a.space, b.space);
    }

    #[test]
    fn pass_timings_cover_all_six_passes() {
        let g = wheel(300).unwrap();
        let config = config_for(&g, 3, 299);
        let out = run_once(&g, &config, 3);
        assert_eq!(out.pass_nanos.len(), 6);
        // Wall-clock timers can in principle report zero for a trivial
        // pass, but the first (reservoir) pass always does real work.
        assert!(out.pass_nanos[0] > 0);
    }

    #[test]
    fn empty_stream_is_an_error() {
        let stream = MemoryStream::from_edges(4, Vec::new(), StreamOrder::AsGiven);
        let config = EstimatorConfig::builder().build();
        assert!(matches!(
            MainEstimator::new(config).run(&stream),
            Err(EstimatorError::EmptyStream)
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = wheel(100).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);
        let config = EstimatorConfig::builder().epsilon(2.0).build();
        assert!(matches!(
            MainEstimator::new(config).run(&stream),
            Err(EstimatorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn space_tracks_sample_sizes_not_graph_size() {
        // Same sample budget (r ∝ mκ/T is constant across wheel sizes), so
        // the retained state should stay roughly flat as the graph grows.
        // Use lean constants here so the absolute comparison against m is
        // meaningful at these small sizes (the default test constants trade
        // space for statistical headroom).
        let lean = |t: u64| {
            EstimatorConfig::builder()
                .epsilon(0.15)
                .kappa(3)
                .triangle_lower_bound(t)
                .r_constant(6.0)
                .inner_constant(12.0)
                .assignment_constant(4.0)
                .build()
        };
        let small = wheel(500).unwrap();
        let large = wheel(8000).unwrap();
        let config_small = lean(499);
        let config_large = lean(7999);
        let out_small = run_once(&small, &config_small, 5);
        let out_large = run_once(&large, &config_large, 5);
        let ratio = out_large.space.peak_words as f64 / out_small.space.peak_words.max(1) as f64;
        assert!(
            ratio < 5.0,
            "space should not scale with n: {} -> {} (ratio {ratio})",
            out_small.space.peak_words,
            out_large.space.peak_words
        );
        // ...and it is far below the trivial Θ(m) of storing the stream.
        assert!((out_large.space.peak_words as usize) < large.num_edges());
    }

    #[test]
    fn outcome_counters_are_consistent() {
        let g = wheel(800).unwrap();
        let config = config_for(&g, 3, 799);
        let out = run_once(&g, &config, 9);
        assert!(out.assigned_hits <= out.triangles_found);
        assert!(out.triangles_found <= out.inner_samples);
        assert!(out.distinct_triangles <= out.triangles_found);
        assert!(out.r > 0);
        assert!(out.d_r > 0);
    }
}
