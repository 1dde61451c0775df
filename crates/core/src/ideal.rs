//! Algorithm 1: the warm-up estimator in the degree-oracle model
//! (Section 4 of the paper).
//!
//! With free degree queries the estimator is simple:
//!
//! 1. **Pass 1** — sample an edge `e` with probability `d_e / d_E` (one
//!    weighted pick per estimator copy) and accumulate `d_E = Σ_e d_e`.
//! 2. **Pass 2** — sample a uniform vertex `w` from `N(e)`, the neighborhood
//!    of the lower-degree endpoint (one uniform pick over the incident
//!    edges).
//! 3. **Pass 3** — check whether `{e, w}` closes a triangle, i.e. whether the
//!    third edge is present in the stream.
//!
//! If a triangle τ was found and `IsAssigned(τ, e)` holds, the copy outputs
//! `X = d_E`, otherwise `X = 0`; the average over
//! `Θ(d_E / T) = Θ(mκ/T)` copies is a `(1 ± ε)` estimate. For the
//! assignment rule we use the paper's suggestion (Section 4,
//! "Implementation Details"): assign each triangle to its minimum-degree
//! edge with ties broken consistently — computable from the oracle alone.
//!
//! All copies share the same three passes: a batch keeps one weighted pick
//! cell, one neighbor pick cell and one closure query per copy. The picks
//! use position-keyed randomness (weighted Efraimidis–Spirakis priorities
//! for the pass-1 edge pick, uniform priorities for the pass-2 neighbor
//! pick — see [`crate::rng`]), so all three passes are order-insensitive
//! folds. The estimator has one implementation, the stage object
//! [`IdealCopyStages`]; [`IdealEstimator`] walks it with the six-pass
//! estimator's driver over a plain stream or, with
//! [`IdealEstimator::run_sharded`], a [`ShardedStream`] view — bit-identical
//! at every batch size, shard count and worker count.

use degentri_graph::{Edge, Triangle, VertexId};
use degentri_stream::hashing::hash_to_unit;
use degentri_stream::{EdgeStream, ShardedStream, SpaceMeter, SpaceReport, DEFAULT_BATCH_SIZE};

use crate::config::EstimatorConfig;
use crate::error::EstimatorError;
use crate::estimator::{drive_copy, CopyStages};
use crate::oracle::DegreeOracle;
use crate::rng::{streams, CounterRng, WeightedPickCell};
use crate::Result;

/// Outcome of one batched run of the ideal (degree-oracle) estimator.
#[derive(Debug, Clone)]
pub struct IdealOutcome {
    /// The triangle-count estimate.
    pub estimate: f64,
    /// Number of passes over the stream (always 3).
    pub passes: u32,
    /// Whether the passes executed shard-parallel over a sharded view
    /// (all three shard together, or none do).
    pub sharded: bool,
    /// Words of state retained by the estimator (the oracle's own table is
    /// charged to the model, not here — see [`crate::oracle`]).
    pub space: SpaceReport,
    /// Number of estimator copies (the `k` in the batch).
    pub copies: usize,
    /// How many copies found a triangle assigned to their sampled edge.
    pub successes: usize,
    /// The edge-degree sum `d_E` measured in pass 1.
    pub edge_degree_sum: u64,
}

/// The ideal estimator of Section 4.
#[derive(Debug, Clone)]
pub struct IdealEstimator {
    config: EstimatorConfig,
}

impl IdealEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        IdealEstimator { config }
    }

    /// Runs the estimator over `stream` using `oracle` for degree queries.
    ///
    /// The number of copies in the batch is the `r` derived from the
    /// configuration (`≈ c · mκ/T̂`, since `d_E ≤ 2mκ`).
    pub fn run<S, O>(&self, stream: &S, oracle: &O) -> Result<IdealOutcome>
    where
        S: EdgeStream + ?Sized,
        O: DegreeOracle + Sync,
    {
        self.run_with(stream, oracle, DEFAULT_BATCH_SIZE)
    }

    /// Runs the estimator with an explicit chunk size. Results are
    /// bit-identical to [`run`](IdealEstimator::run) for every
    /// `batch_size`.
    pub fn run_with<S, O>(&self, stream: &S, oracle: &O, batch_size: usize) -> Result<IdealOutcome>
    where
        S: EdgeStream + ?Sized,
        O: DegreeOracle + Sync,
    {
        self.run_impl(stream, None, oracle, batch_size)
    }

    /// Runs the estimator over a sharded snapshot view, executing all three
    /// passes on up to `shard_workers` scoped threads. Bit-identical to
    /// [`run_with`](IdealEstimator::run_with) over the same edges at every
    /// shard and worker count.
    pub fn run_sharded<O>(
        &self,
        sharded: &ShardedStream<'_>,
        oracle: &O,
        batch_size: usize,
        shard_workers: usize,
    ) -> Result<IdealOutcome>
    where
        O: DegreeOracle + Sync,
    {
        self.run_impl(
            sharded,
            Some((sharded, shard_workers.max(1))),
            oracle,
            batch_size,
        )
    }

    fn run_impl<S, O>(
        &self,
        stream: &S,
        shard: Option<(&ShardedStream<'_>, usize)>,
        oracle: &O,
        batch_size: usize,
    ) -> Result<IdealOutcome>
    where
        S: EdgeStream + ?Sized,
        O: DegreeOracle + Sync,
    {
        let mut stages = IdealCopyStages::new(
            &self.config,
            oracle,
            stream.num_edges(),
            stream.num_vertices(),
            self.config.seed,
        )?;
        drive_copy(&mut stages, stream, shard, batch_size.max(1))?;
        stages.finish()
    }

    /// The Section 4 assignment rule: a triangle is assigned to its edge of
    /// minimum edge-degree, ties broken towards the lexicographically
    /// smallest edge (consistent across calls because it is a pure function
    /// of the oracle).
    fn is_assigned_min_degree<O: DegreeOracle>(oracle: &O, triangle: Triangle, edge: Edge) -> bool {
        let target = triangle
            .edges()
            .into_iter()
            .min_by_key(|&e| (oracle.edge_degree(e), e))
            .expect("triangle has three edges");
        target == edge
    }
}

/// Per-shard accumulator of one [`IdealCopyStages`] pass. Variants follow
/// the pass structure; every merge is associative and commutative (max by
/// packed priority key, integer sums, bitmap ORs), so shard accumulators
/// merged in shard order reproduce the unsharded fold bit for bit.
#[derive(Debug, Clone)]
pub enum IdealStageAcc {
    /// Pass 1: per-copy weighted pick cells plus the shard's partial
    /// edge-degree sum.
    Pick(Vec<WeightedPickCell>, u64),
    /// Pass 2: per-copy uniform-neighbor pick cells.
    Neighbor(Vec<crate::rng::PickCell>),
    /// Pass 3: closure-membership bitmap words.
    Closure(Vec<u64>),
}

/// The ideal estimator of Section 4 as a three-pass **stage object**: the
/// same `begin_pass → fold → finish_pass` protocol as
/// [`MainCopyStages`](crate::MainCopyStages), so a batch of ideal copies
/// can join a fused cohort and ride shared snapshot sweeps instead of
/// traversing the stream three times per copy.
///
/// ## Protocol
///
/// A driver executes, for each of the three passes:
///
/// 1. [`begin_pass`](Self::begin_pass) once per shard (or once for an
///    unsharded sweep) to get an [`IdealStageAcc`];
/// 2. [`fold`](Self::fold) over the shard's chunks, passing each chunk's
///    **global stream position** (counter-mode randomness is keyed by
///    position, which shards know without seeing the rest of the stream);
/// 3. [`finish_pass`](Self::finish_pass) with the accumulators **in shard
///    order**, which merges them and arms the next pass.
///
/// After the third `finish_pass`, [`finish`](Self::finish) yields the
/// [`IdealOutcome`]. Because every merge is associative and commutative,
/// the result is bit-identical at every batch size, shard count, worker
/// count and cohort grouping — which is what lets the engine mix ideal
/// copies into cohorts freely, and [`IdealEstimator`] run the same object
/// one copy per sweep.
///
/// Unlike the six-pass object, an ideal copy holds a borrowed degree
/// oracle `O` (the engine passes the run's shared
/// [`StreamStats`](degentri_stream::StreamStats) table); the oracle's own
/// space is charged to the model, not to the copy.
#[derive(Debug)]
pub struct IdealCopyStages<'o, O: DegreeOracle + Sync> {
    oracle: &'o O,
    seed: u64,
    copies: usize,
    pass: usize,
    rng1: CounterRng,
    rng2: CounterRng,
    meter: SpaceMeter,
    samples: Vec<Edge>,
    d_e_sum: u64,
    vertices: crate::scratch::VertexSlotMap,
    lists: crate::scratch::SlotLists,
    neighbor: Vec<Option<VertexId>>,
    probes: crate::scratch::EdgeProbeSet,
    query_of_copy: Vec<Option<Edge>>,
    sharded: bool,
    pass_nanos: [u64; 3],
    outcome: Option<IdealOutcome>,
}

impl<'o, O: DegreeOracle + Sync> IdealCopyStages<'o, O> {
    /// Total passes a copy makes (the paper's budget: three).
    pub const PASSES: u32 = 3;

    /// Stable names of the three passes, in execution order (the keys the
    /// bench JSON and `RunReport` use).
    pub const PASS_NAMES: [&'static str; 3] = [
        "i1_weighted_edge_sample",
        "i2_neighbor_sample",
        "i3_closure",
    ];

    /// Prepares one ideal copy over a stream of `m` edges and `n` vertices
    /// with the given (already copy-derived) seed, querying degrees from
    /// `oracle`. The internal batch size is the `r` derived from the
    /// configuration.
    pub fn new(
        config: &EstimatorConfig,
        oracle: &'o O,
        m: usize,
        n: usize,
        seed: u64,
    ) -> Result<Self> {
        config.validate()?;
        if m == 0 {
            return Err(EstimatorError::EmptyStream);
        }
        let copies = config.derive(m, n).r.max(1);
        let mut meter = SpaceMeter::new();
        // 2 words per pick cell (packed priority+position key plus the
        // payload, as in the six-pass estimator's pass-5 cells), one word
        // for the running degree sum.
        meter.charge(2 * copies as u64);
        meter.charge_word();
        Ok(IdealCopyStages {
            oracle,
            seed,
            copies,
            pass: 0,
            rng1: CounterRng::new(seed, streams::IDEAL_EDGE),
            rng2: CounterRng::new(seed, streams::IDEAL_NEIGHBOR),
            meter,
            samples: Vec::new(),
            d_e_sum: 0,
            vertices: crate::scratch::VertexSlotMap::default(),
            lists: crate::scratch::SlotLists::default(),
            neighbor: Vec::new(),
            probes: crate::scratch::EdgeProbeSet::default(),
            query_of_copy: Vec::new(),
            sharded: false,
            pass_nanos: [0; 3],
            outcome: None,
        })
    }

    /// Index of the pass awaiting execution (0-based).
    pub fn pass_index(&self) -> usize {
        self.pass
    }

    /// Whether all three passes have completed.
    pub fn finished(&self) -> bool {
        self.pass >= 3
    }

    /// Marks the copy as executed over sharded sweeps (reported in
    /// [`IdealOutcome::sharded`]).
    pub fn set_sharded(&mut self, sharded: bool) {
        self.sharded = sharded;
    }

    /// Records the wall-clock time of the pass that just finished.
    pub fn set_pass_nanos(&mut self, pass: usize, nanos: u64) {
        if pass < 3 {
            self.pass_nanos[pass] = nanos;
        }
    }

    /// The copy-derived seed, doubling as the copy's stable
    /// fault-injection key in its cohort and in every retry attempt.
    pub fn fault_seed(&self) -> u64 {
        self.seed
    }

    /// A fresh accumulator for the current pass (one per shard, or a
    /// single one for an unsharded sweep).
    pub fn begin_pass(&self) -> IdealStageAcc {
        debug_assert!(!self.finished(), "begin_pass after the third pass");
        match self.pass {
            0 => IdealStageAcc::Pick(vec![WeightedPickCell::empty(); self.copies], 0),
            1 => IdealStageAcc::Neighbor(vec![crate::rng::PickCell::empty(); self.samples.len()]),
            _ => IdealStageAcc::Closure(vec![0u64; self.probes.bitmap_words()]),
        }
    }

    /// Folds one chunk whose first edge sits at global position `pos` into
    /// the accumulator. Pure per-position work — safe to run concurrently
    /// over disjoint shards.
    pub fn fold(&self, acc: &mut IdealStageAcc, pos: u64, chunk: &[Edge]) {
        match acc {
            IdealStageAcc::Pick(cells, dsum) => {
                for (off, &edge) in chunk.iter().enumerate() {
                    let p = pos + off as u64;
                    let w = self.oracle.edge_degree(edge) as f64;
                    *dsum += w as u64;
                    if w <= 0.0 {
                        continue;
                    }
                    let base = self.rng1.base(p);
                    for (k, cell) in cells.iter_mut().enumerate() {
                        let unit = hash_to_unit(CounterRng::derive(base, k as u64));
                        cell.offer(WeightedPickCell::priority_of(unit, w), p, edge.key());
                    }
                }
            }
            IdealStageAcc::Neighbor(cells) => {
                for (off, e) in chunk.iter().enumerate() {
                    let p = pos + off as u64;
                    let mut base_hash = None;
                    for endpoint in [e.u(), e.v()] {
                        if let Some(slot) = self.vertices.get(endpoint.raw()) {
                            let candidate = e.other(endpoint).expect("endpoint belongs to edge");
                            let base = *base_hash.get_or_insert_with(|| self.rng2.base(p));
                            for &i in self.lists.list(slot) {
                                cells[i as usize].offer(
                                    CounterRng::derive(base, i as u64),
                                    p,
                                    candidate.raw(),
                                );
                            }
                        }
                    }
                }
            }
            IdealStageAcc::Closure(bitmap) => {
                for e in chunk {
                    if let Some(i) = self.probes.probe(e.key()) {
                        crate::scratch::EdgeProbeSet::mark_in(bitmap, i);
                    }
                }
            }
        }
    }

    /// Consumes the pass's per-shard accumulators **in shard order**,
    /// merges them, performs the between-pass bookkeeping, and arms the
    /// next pass.
    pub fn finish_pass(&mut self, accs: Vec<IdealStageAcc>) -> Result<()> {
        debug_assert!(!self.finished(), "finish_pass after the third pass");
        match self.pass {
            0 => {
                let mut cells = vec![WeightedPickCell::empty(); self.copies];
                let mut total = 0u64;
                for acc in &accs {
                    let IdealStageAcc::Pick(shard_cells, dsum) = acc else {
                        return Err(EstimatorError::invalid_config(
                            "accumulator does not match pass 1",
                        ));
                    };
                    total += dsum;
                    for (cell, other) in cells.iter_mut().zip(shard_cells) {
                        cell.merge(other);
                    }
                }
                self.d_e_sum = total;
                self.samples = cells
                    .iter()
                    .filter_map(|c| c.value().map(Edge::from_key))
                    .collect();
                if self.samples.is_empty() {
                    return Err(EstimatorError::EmptyStream);
                }
                // Group copies by lower-degree endpoint for pass 2: CSR
                // lists keyed by base slot, in copy order, so pick cell `i`
                // (and therefore its randomness) belongs to copy `i`.
                self.vertices.reset(self.samples.len());
                for &e in &self.samples {
                    self.vertices
                        .insert(self.oracle.lower_degree_endpoint(e).raw());
                }
                self.lists.begin(self.vertices.len());
                for &e in &self.samples {
                    self.lists.count(
                        self.vertices
                            .get(self.oracle.lower_degree_endpoint(e).raw())
                            .expect("interned base"),
                    );
                }
                self.lists.finish_counts();
                for (i, &e) in self.samples.iter().enumerate() {
                    let slot = self
                        .vertices
                        .get(self.oracle.lower_degree_endpoint(e).raw())
                        .expect("interned base");
                    self.lists
                        .push(slot, u32::try_from(i).expect("copy count fits u32"));
                }
                self.neighbor = vec![None; self.samples.len()];
                self.meter.charge(2 * self.samples.len() as u64);
            }
            1 => {
                let mut cells = vec![crate::rng::PickCell::empty(); self.samples.len()];
                for acc in &accs {
                    let IdealStageAcc::Neighbor(shard_cells) = acc else {
                        return Err(EstimatorError::invalid_config(
                            "accumulator does not match pass 2",
                        ));
                    };
                    for (cell, other) in cells.iter_mut().zip(shard_cells) {
                        cell.merge(other);
                    }
                }
                for (slot, cell) in self.neighbor.iter_mut().zip(&cells) {
                    *slot = cell.value().map(VertexId::new);
                }
                // Build the closure queries for pass 3.
                self.probes.begin();
                self.query_of_copy = vec![None; self.samples.len()];
                for (i, &e) in self.samples.iter().enumerate() {
                    let base = self.oracle.lower_degree_endpoint(e);
                    let other = e.other(base).expect("edge endpoints");
                    if let Some(w) = self.neighbor[i] {
                        if w != other && w != base {
                            let q = Edge::new(other, w);
                            self.probes.add(q.key());
                            self.query_of_copy[i] = Some(q);
                        }
                    }
                }
                let closure_queries = self.probes.seal();
                self.meter
                    .charge(closure_queries as u64 + self.samples.len() as u64);
            }
            _ => {
                for acc in &accs {
                    let IdealStageAcc::Closure(bitmap) = acc else {
                        return Err(EstimatorError::invalid_config(
                            "accumulator does not match pass 3",
                        ));
                    };
                    self.probes.merge_bitmap(bitmap);
                }
                self.meter.charge(self.probes.hit_count() as u64);
                let mut successes = 0usize;
                for (i, &e) in self.samples.iter().enumerate() {
                    let Some(q) = self.query_of_copy[i] else {
                        continue;
                    };
                    if !self.probes.hit(q.key()) {
                        continue;
                    }
                    let base = self.oracle.lower_degree_endpoint(e);
                    let other = e.other(base).expect("edge endpoints");
                    let w = self.neighbor[i].expect("query implies a sampled neighbor");
                    let triangle = Triangle::new(base, other, w);
                    if IdealEstimator::is_assigned_min_degree(self.oracle, triangle, e) {
                        successes += 1;
                    }
                }
                let estimate = self.d_e_sum as f64 * successes as f64 / self.samples.len() as f64;
                self.outcome = Some(IdealOutcome {
                    estimate,
                    passes: 3,
                    sharded: self.sharded,
                    space: self.meter.report(),
                    copies: self.samples.len(),
                    successes,
                    edge_degree_sum: self.d_e_sum,
                });
            }
        }
        self.pass += 1;
        Ok(())
    }

    /// The finished outcome (valid once [`finished`](Self::finished)).
    pub fn finish(self) -> Result<IdealOutcome> {
        debug_assert!(self.finished(), "finish before the third pass completed");
        let pass_nanos = self.pass_nanos;
        // `IdealOutcome` has no per-pass timing field; timings surface
        // through the driver's pass traces instead.
        let _ = pass_nanos;
        self.outcome
            .ok_or_else(|| EstimatorError::invalid_config("stage pipeline did not complete"))
    }
}

impl<O: DegreeOracle + Sync> CopyStages for IdealCopyStages<'_, O> {
    type Acc = IdealStageAcc;
    fn finished(&self) -> bool {
        IdealCopyStages::finished(self)
    }
    fn pass_index(&self) -> usize {
        IdealCopyStages::pass_index(self)
    }
    fn set_sharded(&mut self, sharded: bool) {
        IdealCopyStages::set_sharded(self, sharded)
    }
    fn set_pass_nanos(&mut self, pass: usize, nanos: u64) {
        IdealCopyStages::set_pass_nanos(self, pass, nanos)
    }
    fn begin_pass(&self) -> IdealStageAcc {
        IdealCopyStages::begin_pass(self)
    }
    fn fold(&self, acc: &mut IdealStageAcc, pos: u64, chunk: &[Edge]) {
        IdealCopyStages::fold(self, acc, pos, chunk)
    }
    fn finish_pass(&mut self, accs: Vec<IdealStageAcc>) -> Result<()> {
        IdealCopyStages::finish_pass(self, accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactDegreeOracle;
    use degentri_gen::{book, complete, friendship, wheel};
    use degentri_graph::triangles::count_triangles;
    use degentri_graph::CsrGraph;
    use degentri_stream::{MemoryStream, PassCounter, StreamOrder};

    fn run_ideal(g: &CsrGraph, config: EstimatorConfig) -> IdealOutcome {
        let stream = MemoryStream::from_graph(g, StreamOrder::UniformRandom(99));
        let oracle = ExactDegreeOracle::build(&stream);
        IdealEstimator::new(config).run(&stream, &oracle).unwrap()
    }

    fn relative_error(estimate: f64, exact: u64) -> f64 {
        (estimate - exact as f64).abs() / exact as f64
    }

    #[test]
    fn uses_exactly_three_passes() {
        let g = wheel(200).unwrap();
        let stream = PassCounter::with_limit(MemoryStream::from_graph(&g, StreamOrder::AsGiven), 3);
        let oracle = ExactDegreeOracle::build(stream.inner());
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(100)
            .seed(1)
            .build();
        let out = IdealEstimator::new(config).run(&stream, &oracle).unwrap();
        assert_eq!(out.passes, 3);
        assert_eq!(stream.passes(), 3);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let g = wheel(600).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(5));
        let oracle = ExactDegreeOracle::build(&stream);
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(299)
            .seed(21)
            .build();
        let estimator = IdealEstimator::new(config);
        let reference = estimator.run(&stream, &oracle).unwrap();
        for batch in [1, 13, 4096] {
            let out = estimator.run_with(&stream, &oracle, batch).unwrap();
            assert_eq!(out.estimate.to_bits(), reference.estimate.to_bits());
            assert_eq!(out.successes, reference.successes);
            assert_eq!(out.space, reference.space);
        }
    }

    #[test]
    fn accurate_on_wheel_graph() {
        let g = wheel(1000).unwrap();
        let exact = count_triangles(&g);
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(exact / 2)
            .r_constant(60.0)
            .seed(7)
            .build();
        let out = run_ideal(&g, config);
        assert!(
            relative_error(out.estimate, exact) < 0.25,
            "estimate {} vs exact {exact}",
            out.estimate
        );
        assert_eq!(out.edge_degree_sum, g.edge_degree_sum());
    }

    #[test]
    fn accurate_on_complete_graph() {
        let g = complete(40).unwrap();
        let exact = count_triangles(&g);
        let config = EstimatorConfig::builder()
            .kappa(39)
            .triangle_lower_bound(exact / 2)
            .r_constant(20.0)
            .seed(3)
            .build();
        let out = run_ideal(&g, config);
        assert!(
            relative_error(out.estimate, exact) < 0.25,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn accurate_on_book_graph_despite_skew() {
        // The naive incident-triangle estimator has terrible variance here;
        // the assignment rule keeps the ideal estimator on track.
        let g = book(800).unwrap();
        let exact = count_triangles(&g);
        let config = EstimatorConfig::builder()
            .kappa(2)
            .triangle_lower_bound(exact)
            .r_constant(80.0)
            .seed(5)
            .build();
        let out = run_ideal(&g, config);
        assert!(
            relative_error(out.estimate, exact) < 0.3,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn zero_triangle_graph_estimates_zero() {
        let g = degentri_gen::grid(20, 20).unwrap();
        let config = EstimatorConfig::builder()
            .kappa(2)
            .triangle_lower_bound(1)
            .seed(2)
            .build();
        let out = run_ideal(&g, config);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.successes, 0);
    }

    #[test]
    fn friendship_graph_estimate() {
        let g = friendship(400).unwrap();
        let exact = count_triangles(&g);
        let config = EstimatorConfig::builder()
            .kappa(2)
            .triangle_lower_bound(exact)
            .r_constant(60.0)
            .seed(11)
            .build();
        let out = run_ideal(&g, config);
        assert!(
            relative_error(out.estimate, exact) < 0.3,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn counter_mode_is_accurate_and_uses_three_passes() {
        let g = wheel(1000).unwrap();
        let exact = count_triangles(&g);
        let stream = PassCounter::with_limit(
            MemoryStream::from_graph(&g, StreamOrder::UniformRandom(99)),
            3,
        );
        let oracle = ExactDegreeOracle::build(stream.inner());
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(exact / 2)
            .r_constant(60.0)
            .rng_mode(crate::rng::RngMode::Counter)
            .seed(7)
            .build();
        let out = IdealEstimator::new(config).run(&stream, &oracle).unwrap();
        assert_eq!(stream.passes(), 3);
        assert!(!out.sharded);
        assert_eq!(out.edge_degree_sum, g.edge_degree_sum());
        assert!(
            relative_error(out.estimate, exact) < 0.25,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn counter_mode_shards_all_three_passes_bit_identically() {
        use degentri_stream::ShardedStream;
        let g = degentri_gen::barabasi_albert(500, 5, 17).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(8));
        let oracle = ExactDegreeOracle::build(&stream);
        let config = EstimatorConfig::builder()
            .kappa(5)
            .triangle_lower_bound(count_triangles(&g).max(1))
            .rng_mode(crate::rng::RngMode::Counter)
            .seed(5)
            .build();
        let estimator = IdealEstimator::new(config);
        let reference = estimator.run(&stream, &oracle).unwrap();
        for shards in 1..=8 {
            for workers in [1, 2, 4] {
                let view = ShardedStream::from_stream(&stream, shards);
                let out = estimator
                    .run_sharded(&view, &oracle, 4096, workers)
                    .unwrap();
                assert_eq!(
                    out.estimate.to_bits(),
                    reference.estimate.to_bits(),
                    "shards {shards} workers {workers}"
                );
                assert_eq!(out.successes, reference.successes);
                assert_eq!(out.edge_degree_sum, reference.edge_degree_sum);
                assert_eq!(out.space, reference.space);
                assert!(out.sharded);
                assert_eq!(view.passes(), 3);
            }
        }
    }

    #[test]
    fn empty_stream_is_an_error() {
        let stream = MemoryStream::from_edges(3, Vec::new(), StreamOrder::AsGiven);
        let oracle = ExactDegreeOracle::build(&stream);
        let config = EstimatorConfig::builder().build();
        assert!(matches!(
            IdealEstimator::new(config).run(&stream, &oracle),
            Err(EstimatorError::EmptyStream)
        ));
    }

    /// Drives an [`IdealCopyStages`] to completion over `shards` contiguous
    /// slices of the edge list, merging shard accumulators in shard order —
    /// the same protocol the engine's cohort driver uses.
    fn drive_stages(
        config: &EstimatorConfig,
        stats: &degentri_stream::StreamStats,
        edges: &[Edge],
        n: usize,
        shards: usize,
    ) -> IdealOutcome {
        let mut stages = IdealCopyStages::new(config, stats, edges.len(), n, config.seed).unwrap();
        let view = degentri_stream::Partition::new(edges.len(), shards);
        while !stages.finished() {
            let mut accs = Vec::new();
            for s in 0..view.shards() {
                let range = view.range(s);
                let mut acc = stages.begin_pass();
                // Feed ragged chunks to exercise position bookkeeping.
                let mut pos = range.start;
                for chunk in edges[range.clone()].chunks(7) {
                    stages.fold(&mut acc, pos as u64, chunk);
                    pos += chunk.len();
                }
                accs.push(acc);
            }
            stages.finish_pass(accs).unwrap();
        }
        stages.finish().unwrap()
    }

    /// Outputs of the batched three-pass runner this crate shipped before
    /// the stage object became the estimator's only implementation,
    /// recorded on two fixed (graph, seed) cases: `(estimate bits,
    /// successes, edge_degree_sum, peak space words)`.
    const PINNED: [(u64, usize, u64, u64); 2] = [
        (0x4080_4415_2fab_4153, 21, 3594, 878),
        (0x408e_c677_d46c_efa9, 8, 23143, 1117),
    ];

    #[test]
    fn stage_driven_runner_reproduces_the_pinned_batched_outputs() {
        let wheel_graph = wheel(600).unwrap();
        let ba_graph = degentri_gen::barabasi_albert(500, 5, 17).unwrap();
        let ba_triangles = count_triangles(&ba_graph).max(1);
        let cases = [
            (&wheel_graph, 5u64, 3usize, 299u64, 21u64),
            (&ba_graph, 8, 5, ba_triangles, 5),
        ];
        for ((g, order, kappa, t, seed), pinned) in cases.into_iter().zip(PINNED) {
            let stream = MemoryStream::from_graph(g, StreamOrder::UniformRandom(order));
            let config = EstimatorConfig::builder()
                .kappa(kappa)
                .triangle_lower_bound(t)
                .seed(seed)
                .build();
            let oracle = ExactDegreeOracle::build(&stream);
            let out = IdealEstimator::new(config.clone())
                .run(&stream, &oracle)
                .unwrap();
            let observed = |o: &IdealOutcome| {
                (
                    o.estimate.to_bits(),
                    o.successes,
                    o.edge_degree_sum,
                    o.space.peak_words,
                )
            };
            assert_eq!(observed(&out), pinned, "seed {seed}");
            // The stage object driven shard by shard with ragged chunks
            // (and the engine's StreamStats oracle) lands on the same pins.
            let stats = degentri_stream::StreamStats::compute(&stream);
            let edges: Vec<Edge> = {
                let mut v = Vec::new();
                stream.pass_batched(4096, &mut |chunk| v.extend_from_slice(chunk));
                v
            };
            for shards in [1, 2, 3, 8] {
                let staged = drive_stages(&config, &stats, &edges, g.num_vertices(), shards);
                assert_eq!(observed(&staged), pinned, "seed {seed} shards {shards}");
                assert_eq!(staged.copies, out.copies);
            }
        }
    }

    #[test]
    fn stage_object_rejects_empty_streams() {
        let g = wheel(50).unwrap();
        let stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);
        let stats = degentri_stream::StreamStats::compute(&stream);
        let config = EstimatorConfig::builder().seed(1).build();
        assert!(matches!(
            IdealCopyStages::new(&config, &stats, 0, 50, 1),
            Err(EstimatorError::EmptyStream)
        ));
    }

    #[test]
    fn space_scales_with_copies_not_with_graph() {
        let small = wheel(200).unwrap();
        let large = wheel(4000).unwrap();
        // Same sample budget on both graphs: space should be comparable even
        // though the large graph has 20x the edges.
        let config = |t: u64| {
            EstimatorConfig::builder()
                .kappa(3)
                .triangle_lower_bound(t)
                .r_constant(10.0)
                .seed(9)
                .build()
        };
        let out_small = run_ideal(&small, config(199));
        let out_large = run_ideal(&large, config(3999));
        let ratio = out_large.space.peak_words as f64 / out_small.space.peak_words as f64;
        assert!(ratio < 4.0, "space ratio {ratio} should stay O(1)");
    }
}
