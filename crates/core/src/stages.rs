//! Resumable per-pass stage objects for the six-pass estimator — its one
//! implementation, and the building block of fused (copy-shared) sweep
//! execution.
//!
//! Counter-based randomness (see [`crate::rng`]) makes every pass of
//! Algorithm 2 a *linear, order-insensitive fold*. This module draws the
//! consequence: instead of a monolithic call that owns its six stream
//! sweeps, a copy is a [`MainCopyStages`] state machine exposing
//!
//! ```text
//!     begin_pass()  →  fold(batch)*  →  finish_pass(accumulators)
//! ```
//!
//! per pass. Whoever owns the snapshot decides how the sweeps happen:
//!
//! * the standalone estimator drives one copy per sweep (over a plain
//!   stream or a sharded view);
//! * the engine's **fused pass driver** executes one sweep per pass stage
//!   and feeds every in-flight copy's fold on each chunk, collapsing
//!   `passes × copies` snapshot traversals into `passes` — snapshot reads,
//!   chunk dispatch and memory bandwidth are paid once per cohort.
//!
//! Because the per-shard accumulators of a pass merge associatively and
//! commutatively (sums, OR-ed bitmaps, `(priority, position)` maxima), a
//! copy's outcome is **bit-identical** at every batch size, shard count,
//! worker count and cohort grouping: the single implementation here is the
//! one every execution path runs.
//!
//! The stage object owns all per-copy state (sample tables, probe sets,
//! slot maps); fused cohorts keep `copies` of them alive at once, which is
//! the honest space cost of running copies in parallel over shared passes
//! (the same parallel composition [`aggregate_copies`] has always
//! reported).
//!
//! [`aggregate_copies`]: crate::runner::aggregate_copies

use degentri_graph::{Edge, Triangle, VertexId};
use degentri_obs::PassTally;
use degentri_stream::hashing::FxHashMap;
use degentri_stream::{SpaceMeter, SpaceReport};

use crate::assignment::{decide_assignment, AssignmentMemo};
use crate::config::{DerivedParameters, EstimatorConfig};
use crate::error::EstimatorError;
use crate::estimator::MainOutcome;
use crate::lanes::{blocks_of, find_sorted_lanes, LANES};
use crate::rng::{streams, CounterRng, PickCell};
use crate::scratch::{EdgeProbeSet, SlotLists, VertexSlotMap};
use crate::Result;

/// Extracts one lane of `u` endpoints and one of `v` endpoints from a full
/// block — two plain strips the endpoint-probe kernels consume.
#[inline]
fn endpoint_lanes(block: &[Edge; LANES]) -> ([u32; LANES], [u32; LANES]) {
    let mut us = [0u32; LANES];
    let mut vs = [0u32; LANES];
    for (l, e) in block.iter().enumerate() {
        us[l] = e.u().raw();
        vs[l] = e.v().raw();
    }
    (us, vs)
}

/// Extracts a lane of packed edge keys from a full block (the probe keys
/// of the membership passes).
#[inline]
fn edge_key_lanes(block: &[Edge; LANES]) -> [u64; LANES] {
    let mut keys = [0u64; LANES];
    for (l, e) in block.iter().enumerate() {
        keys[l] = e.key();
    }
    keys
}

/// Both endpoints of a full block as two lanes in **interleaved** `(edge,
/// side)` order: lane group 0 holds `u0 v0 u1 v1 …`, group 1 the rest.
/// The cohort fan-out probes endpoints through these groups so collected
/// hits keep exactly the per-item order `u(e), v(e)` of the scalar fold —
/// which the order-sensitive pass-5 gather cursors rely on.
#[inline]
fn interleaved_endpoint_lanes(block: &[Edge; LANES]) -> [[u32; LANES]; 2] {
    let mut out = [[0u32; LANES]; 2];
    for (i, e) in block.iter().enumerate() {
        out[(2 * i) / LANES][(2 * i) % LANES] = e.u().raw();
        out[(2 * i + 1) / LANES][(2 * i + 1) % LANES] = e.v().raw();
    }
    out
}

/// A degree-proportional instance drawn from `R` (offline, after pass 2).
#[derive(Debug, Clone)]
struct Instance {
    /// The sampled edge `e ∈ R`.
    edge: Edge,
    /// Lower-degree endpoint of `edge` (its neighborhood is `N(e)`).
    base: VertexId,
    /// The other endpoint.
    other: VertexId,
    /// The uniform neighbor sampled in pass 3.
    neighbor: Option<VertexId>,
    /// The closing edge `(other, w)` checked in pass 4.
    closure: Option<Edge>,
    /// The candidate triangle, if pass 4 confirmed it.
    triangle: Option<Triangle>,
}

/// A candidate-triangle edge going through Assignment (passes 5–6). The
/// neighbor samples live in the per-*vertex* distinct-sample lists of the
/// stage object, not per candidate — distinct triangles share endpoints,
/// so per-candidate sample copies would duplicate both memory and work.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    edge: Edge,
    /// Degrees of the two endpoints, filled by pass 5.
    degree_u: u64,
    degree_v: u64,
    /// The final estimate `Y_e`.
    estimate: f64,
}

impl Candidate {
    /// Edge degree `d_e = min(d_u, d_v)` (valid after pass 5).
    fn edge_degree(&self) -> u64 {
        self.degree_u.min(self.degree_v)
    }

    /// The lower-degree endpoint (ties to `u`, matching the rest of the
    /// workspace) and the opposite endpoint.
    fn base_and_other(&self) -> (VertexId, VertexId) {
        if self.degree_u <= self.degree_v {
            (self.edge.u(), self.edge.v())
        } else {
            (self.edge.v(), self.edge.u())
        }
    }
}

/// The opaque per-pass fold accumulator of a [`MainCopyStages`] copy. A
/// driver obtains one per shard from [`MainCopyStages::begin_pass`], folds
/// item chunks into it **in increasing stream position**, and hands all of
/// a pass's accumulators back (in shard order) to
/// [`MainCopyStages::finish_pass`].
#[derive(Debug)]
pub struct MainStageAcc {
    acc: Acc,
    /// Observation-only fold counters (items delivered, probe hits,
    /// occurrence updates); merged across shards in
    /// [`MainCopyStages::finish_pass`] and surfaced via
    /// [`MainCopyStages::pass_tallies`]. Never consulted by the fold
    /// logic, so tallying cannot perturb results.
    tally: PassTally,
}

#[derive(Debug)]
enum Acc {
    /// Pass 1: `(slot, edge)` hits of the positional gather.
    Gather(Vec<(u32, Edge)>),
    /// Pass 2: per-tracked-endpoint degree counters.
    Counts(Vec<u64>),
    /// Pass 3: per-instance uniform-neighbor pick cells.
    Cells(Vec<PickCell>),
    /// Pass 4: membership hit bitmap over the closure queries, plus
    /// occurrence counts of every *potential* candidate endpoint (known
    /// since pass 3) — the degrees that turn pass 5 into a positional
    /// gather. `start` is the global position of the first folded chunk,
    /// the key the pass-5 accumulators use to find their occurrence
    /// offsets.
    Closure {
        bitmap: Vec<u64>,
        occ: Vec<u64>,
        start: Option<u64>,
    },
    /// Pass 5: the positional sample gather — per-base occurrence counters
    /// (offset-initialized from the pass-4 shard counts on the first fold)
    /// walking each base's sorted target list; a hit records
    /// `(base slot, neighbor, multiplicity)`.
    SampleGather {
        counters: Vec<u64>,
        cursors: Vec<u32>,
        hits: Vec<(u32, u32, u32)>,
        initialized: bool,
    },
    /// Pass 6: membership hit bitmap over the sealed probe set.
    Bitmap(Vec<u64>),
}

/// One counter-mode copy of the six-pass estimator as a resumable stage
/// pipeline (see the module docs). Construction derives everything that
/// does not depend on stream contents (sample sizes, pass-1 positions);
/// each of the six passes is then executed by an external driver as
/// `begin_pass → fold* → finish_pass`, and [`finish`](MainCopyStages::finish)
/// yields the [`MainOutcome`] after the sixth.
#[derive(Debug)]
pub struct MainCopyStages {
    config: EstimatorConfig,
    seed: u64,
    m: usize,
    n: usize,
    params: DerivedParameters,
    meter: SpaceMeter,
    /// Index of the pass awaiting execution (0-based; 6 = finished).
    pass: usize,
    pass_nanos: [u64; 6],
    pass_tallies: [PassTally; 6],
    sharded: bool,
    // Per-pass randomness streams (pure functions of the copy seed).
    rng_neighbor: CounterRng,
    rng_assignment: CounterRng,
    // Pass-1 state: seed-derived positions, sorted, then the gathered R.
    targets: Vec<(u64, u32)>,
    r_edges: Vec<Edge>,
    // Shared lookup tables (one key set at a time).
    vertices: VertexSlotMap,
    counts: Vec<u64>,
    lists: SlotLists,
    probes: EdgeProbeSet,
    // Pass-2 results.
    degrees: Vec<u64>,
    d_r: u64,
    // Instances (offline selection after pass 2).
    instances: Vec<Instance>,
    triangles_found: usize,
    // Candidate triangles and their edges (after pass 4).
    distinct_triangles: Vec<Triangle>,
    triangle_index: FxHashMap<Triangle, usize>,
    edge_index: FxHashMap<Edge, usize>,
    candidates: Vec<Candidate>,
    // Pass-4 occurrence totals per potential endpoint (= stream degrees).
    occ_totals: Vec<u64>,
    // Pass-5 gather state: the base-side vertices that need samples, each
    // base's sorted target occurrence numbers with multiplicities (CSR),
    // and the per-shard occurrence offsets keyed by shard start position.
    bases: VertexSlotMap,
    target_offsets: Vec<u32>,
    target_occ: Vec<u32>,
    target_mult: Vec<u32>,
    shard_offsets: FxHashMap<u64, Vec<u64>>,
    // Pass-5 results: per base vertex, the sampled distinct neighbors with
    // multiplicities (CSR over base slots).
    sample_offsets: Vec<u32>,
    sample_items: Vec<(u32, u32)>,
    sample_scratch: Vec<u32>,
    outcome: Option<MainOutcome>,
}

impl MainCopyStages {
    /// Prepares one copy over a stream of `m` edges and `n` vertices with
    /// the given (already copy-derived) seed.
    pub fn new(config: &EstimatorConfig, m: usize, n: usize, seed: u64) -> Result<Self> {
        config.validate()?;
        if m == 0 {
            return Err(EstimatorError::EmptyStream);
        }
        let params = config.derive(m, n);
        let mut meter = SpaceMeter::new();
        meter.charge(params.r as u64);
        // Slot j of R is the edge at the seed-derived position
        // `hash(j) mod m` — i.i.d. uniform positions, gathered in one
        // positional sweep with no per-edge randomness at all.
        let rng1 = CounterRng::new(seed, streams::MAIN_UNIFORM_SAMPLE);
        let mut targets: Vec<(u64, u32)> = (0..params.r)
            .map(|j| (rng1.bounded(j as u64, 0, m as u64), j as u32))
            .collect();
        targets.sort_unstable();
        Ok(MainCopyStages {
            config: config.clone(),
            seed,
            m,
            n,
            params,
            meter,
            pass: 0,
            pass_nanos: [0; 6],
            pass_tallies: [PassTally::default(); 6],
            sharded: false,
            rng_neighbor: CounterRng::new(seed, streams::MAIN_NEIGHBOR),
            rng_assignment: CounterRng::new(seed, streams::MAIN_ASSIGNMENT),
            targets,
            r_edges: Vec::new(),
            vertices: VertexSlotMap::default(),
            counts: Vec::new(),
            lists: SlotLists::default(),
            probes: EdgeProbeSet::default(),
            degrees: Vec::new(),
            d_r: 0,
            instances: Vec::new(),
            triangles_found: 0,
            distinct_triangles: Vec::new(),
            triangle_index: FxHashMap::default(),
            edge_index: FxHashMap::default(),
            candidates: Vec::new(),
            occ_totals: Vec::new(),
            bases: VertexSlotMap::default(),
            target_offsets: Vec::new(),
            target_occ: Vec::new(),
            target_mult: Vec::new(),
            shard_offsets: FxHashMap::default(),
            sample_offsets: Vec::new(),
            sample_items: Vec::new(),
            sample_scratch: Vec::new(),
            outcome: None,
        })
    }

    /// Total passes a copy makes (the paper's budget: six).
    pub const PASSES: u32 = 6;

    /// Index of the pass awaiting execution (0-based).
    pub fn pass_index(&self) -> usize {
        self.pass
    }

    /// Whether all six passes have completed.
    pub fn finished(&self) -> bool {
        self.pass >= 6
    }

    /// Marks the copy as executed over sharded sweeps (reported in
    /// [`MainOutcome::sharded`]).
    pub fn set_sharded(&mut self, sharded: bool) {
        self.sharded = sharded;
    }

    /// Records the wall-clock time of the pass that just finished.
    pub fn set_pass_nanos(&mut self, pass: usize, nanos: u64) {
        if pass < 6 {
            self.pass_nanos[pass] = nanos;
        }
    }

    /// Stable names of the six passes, in execution order (the keys the
    /// bench JSON and [`RunReport`](degentri_obs::RunReport) use).
    pub const PASS_NAMES: [&'static str; 6] = [
        "p1_uniform_sample",
        "p2_degrees",
        "p3_neighbor_sample",
        "p4_closure",
        "p5_assignment_gather",
        "p6_assignment_closure",
    ];

    /// Fold-loop tallies of the completed passes (zeroed for passes not
    /// yet run), merged across shards in finish order.
    pub fn pass_tallies(&self) -> &[PassTally; 6] {
        &self.pass_tallies
    }

    /// The copy-derived seed, doubling as the copy's stable fault-injection
    /// key: identical across the fused, per-copy, and sharded tiers, so a
    /// [`crate::faults::FaultPlan`] targets the same logical copy on every
    /// execution path.
    pub fn fault_seed(&self) -> u64 {
        self.seed
    }

    /// A fresh accumulator for the current pass. Drivers create one per
    /// shard (or a single one for an unsharded sweep); the shard partition
    /// must stay the same across all six passes of a copy (every driver in
    /// the workspace folds over one fixed snapshot view).
    pub fn begin_pass(&self) -> MainStageAcc {
        debug_assert!(!self.finished(), "begin_pass after the sixth pass");
        // Passes 2 and 4 allocate one extra *sink* slot past the tracked
        // range: the lane kernels bump it branchlessly on lookup misses and
        // the finish steps drop it, so the hot loop needs no hit branch.
        let acc = match self.pass {
            0 => Acc::Gather(Vec::new()),
            1 => Acc::Counts(vec![0; self.vertices.len() + 1]),
            2 => Acc::Cells(vec![PickCell::empty(); self.instances.len()]),
            3 => Acc::Closure {
                bitmap: vec![0; self.probes.bitmap_words()],
                occ: vec![0; self.vertices.len() + 1],
                start: None,
            },
            4 => Acc::SampleGather {
                counters: vec![0; self.bases.len()],
                cursors: self.target_offsets[..self.bases.len()].to_vec(),
                hits: Vec::new(),
                initialized: self.bases.is_empty(),
            },
            _ => Acc::Bitmap(vec![0; self.probes.bitmap_words()]),
        };
        MainStageAcc {
            acc,
            tally: PassTally::default(),
        }
    }

    /// Folds one chunk of the snapshot into `acc`. `pos` is the global
    /// stream position of the chunk's first edge — the carrier of every
    /// counter-mode sampling decision, so any shard can fold its chunks
    /// without observing the rest of the stream.
    ///
    /// The order-insensitive probe passes (2, 4 and 6) route through the
    /// [`lanes`](crate::lanes) kernels: full [`LANES`]-wide blocks take the
    /// branchless batched path and the sub-`LANES` tail falls back to
    /// [`fold_scalar`](MainCopyStages::fold_scalar)'s per-item logic —
    /// bit-identical, since the lane path only reorders commutative counter
    /// sums and bitmap ORs. The order-sensitive passes (1, 3, 5) always
    /// use the scalar fold.
    pub fn fold(&self, acc: &mut MainStageAcc, pos: u64, chunk: &[Edge]) {
        if crate::faults::ENABLED {
            crate::faults::probe(crate::faults::FaultSite::MainFold, self.seed);
        }
        match self.pass {
            1 | 3 | 5 => {}
            _ => return self.fold_scalar(acc, pos, chunk),
        }
        acc.tally.items += chunk.len() as u64;
        let (blocks, tail) = blocks_of(chunk);
        acc.tally.kernel_batches += blocks.len() as u64;
        match (&mut acc.acc, self.pass) {
            (Acc::Counts(counts), 1) => {
                let miss = self.vertices.len() as u32;
                // Hoist the accumulator vectors to plain slices and tally
                // into locals: the lane loops write every iteration, and
                // mixing those writes with `acc.tally` updates would force
                // the compiler to reload the Vec pointers each lane (the
                // writes could alias through `acc`). Locals keep the hot
                // loop entirely in registers.
                let counts: &mut [u64] = counts;
                let mut hits = 0u64;
                for block in blocks {
                    let (us, vs) = endpoint_lanes(block);
                    let su = self.vertices.get_lanes(&us, miss);
                    let sv = self.vertices.get_lanes(&vs, miss);
                    for l in 0..LANES {
                        counts[su[l] as usize] += 1;
                        counts[sv[l] as usize] += 1;
                        hits += (su[l] != miss) as u64 + (sv[l] != miss) as u64;
                    }
                }
                for e in tail {
                    if let Some(s) = self.vertices.get(e.u().raw()) {
                        counts[s as usize] += 1;
                        hits += 1;
                    }
                    if let Some(s) = self.vertices.get(e.v().raw()) {
                        counts[s as usize] += 1;
                        hits += 1;
                    }
                }
                acc.tally.hits += hits;
            }
            (Acc::Closure { bitmap, occ, start }, 3) => {
                if start.is_none() {
                    *start = Some(pos);
                }
                let miss = self.vertices.len() as u32;
                let table = self.probes.keys();
                let bitmap: &mut [u64] = bitmap;
                let occ: &mut [u64] = occ;
                let mut hits = 0u64;
                let mut updates = 0u64;
                for block in blocks {
                    if !bitmap.is_empty() {
                        let (idx, mask) = find_sorted_lanes(table, &edge_key_lanes(block));
                        for (l, &slot) in idx.iter().enumerate() {
                            let i = slot as usize;
                            bitmap[i / 64] |= (((mask >> l) & 1) as u64) << (i % 64);
                        }
                        hits += mask.count_ones() as u64;
                    }
                    let (us, vs) = endpoint_lanes(block);
                    let su = self.vertices.get_lanes(&us, miss);
                    let sv = self.vertices.get_lanes(&vs, miss);
                    for l in 0..LANES {
                        occ[su[l] as usize] += 1;
                        occ[sv[l] as usize] += 1;
                        updates += (su[l] != miss) as u64 + (sv[l] != miss) as u64;
                    }
                }
                for e in tail {
                    if let Some(i) = self.probes.probe(e.key()) {
                        EdgeProbeSet::mark_in(bitmap, i);
                        hits += 1;
                    }
                    if let Some(slot) = self.vertices.get(e.u().raw()) {
                        occ[slot as usize] += 1;
                        updates += 1;
                    }
                    if let Some(slot) = self.vertices.get(e.v().raw()) {
                        occ[slot as usize] += 1;
                        updates += 1;
                    }
                }
                acc.tally.hits += hits;
                acc.tally.updates += updates;
            }
            (Acc::Bitmap(bitmap), 5) => {
                let table = self.probes.keys();
                let bitmap: &mut [u64] = bitmap;
                let mut hits = 0u64;
                if !bitmap.is_empty() {
                    for block in blocks {
                        let (idx, mask) = find_sorted_lanes(table, &edge_key_lanes(block));
                        for (l, &slot) in idx.iter().enumerate() {
                            let i = slot as usize;
                            bitmap[i / 64] |= (((mask >> l) & 1) as u64) << (i % 64);
                        }
                        hits += mask.count_ones() as u64;
                    }
                    for e in tail {
                        if let Some(i) = self.probes.probe(e.key()) {
                            EdgeProbeSet::mark_in(bitmap, i);
                            hits += 1;
                        }
                    }
                }
                acc.tally.hits += hits;
            }
            _ => unreachable!("accumulator kind matches the current pass"),
        }
    }

    /// The scalar reference fold: per-item probes, no lane batching. This
    /// is the implementation every pass ran before the lane kernels landed;
    /// it stays public so the bit-identity sweeps and the perf bin's
    /// lane-vs-scalar gate can drive it directly. [`fold`](MainCopyStages::fold)
    /// delegates the order-sensitive passes (1, 3, 5) and all scalar tails
    /// here, so the two paths cannot diverge silently.
    pub fn fold_scalar(&self, acc: &mut MainStageAcc, pos: u64, chunk: &[Edge]) {
        acc.tally.items += chunk.len() as u64;
        match (&mut acc.acc, self.pass) {
            (Acc::Gather(hits), 0) => {
                let end = pos + chunk.len() as u64;
                let mut i = self.targets.partition_point(|&(p, _)| p < pos);
                while i < self.targets.len() && self.targets[i].0 < end {
                    hits.push((self.targets[i].1, chunk[(self.targets[i].0 - pos) as usize]));
                    i += 1;
                }
                acc.tally.hits = hits.len() as u64;
            }
            (Acc::Counts(counts), 1) => {
                for e in chunk {
                    if let Some(s) = self.vertices.get(e.u().raw()) {
                        counts[s as usize] += 1;
                        acc.tally.hits += 1;
                    }
                    if let Some(s) = self.vertices.get(e.v().raw()) {
                        counts[s as usize] += 1;
                        acc.tally.hits += 1;
                    }
                }
            }
            (Acc::Cells(cells), 2) => {
                // The position-keyed reservoir rule: every incident
                // occurrence of a tracked base offers the opposite endpoint
                // to each instance listed for that base.
                for (off, e) in chunk.iter().enumerate() {
                    let p = pos + off as u64;
                    let mut base_hash = None;
                    for endpoint in [e.u(), e.v()] {
                        if let Some(slot) = self.vertices.get(endpoint.raw()) {
                            let base = *base_hash.get_or_insert_with(|| self.rng_neighbor.base(p));
                            self.offer_neighbor(cells, slot, base, p, e, endpoint);
                            acc.tally.hits += 1;
                        }
                    }
                }
            }
            (Acc::Closure { bitmap, occ, start }, 3) => {
                if start.is_none() {
                    *start = Some(pos);
                }
                for e in chunk {
                    if let Some(i) = self.probes.probe(e.key()) {
                        EdgeProbeSet::mark_in(bitmap, i);
                        acc.tally.hits += 1;
                    }
                    if let Some(slot) = self.vertices.get(e.u().raw()) {
                        occ[slot as usize] += 1;
                        acc.tally.updates += 1;
                    }
                    if let Some(slot) = self.vertices.get(e.v().raw()) {
                        occ[slot as usize] += 1;
                        acc.tally.updates += 1;
                    }
                }
            }
            (
                Acc::SampleGather {
                    counters,
                    cursors,
                    hits,
                    initialized,
                },
                4,
            ) => {
                if !*initialized {
                    self.init_gather(counters, cursors, pos);
                    *initialized = true;
                }
                for e in chunk {
                    for endpoint in [e.u(), e.v()] {
                        if let Some(slot) = self.bases.get(endpoint.raw()) {
                            self.gather_occurrence(
                                counters,
                                cursors,
                                hits,
                                slot as usize,
                                e,
                                endpoint,
                            );
                            acc.tally.updates += 1;
                        }
                    }
                }
                acc.tally.hits = hits.len() as u64;
            }
            (Acc::Bitmap(bitmap), 5) => {
                for e in chunk {
                    if let Some(i) = self.probes.probe(e.key()) {
                        EdgeProbeSet::mark_in(bitmap, i);
                        acc.tally.hits += 1;
                    }
                }
            }
            _ => unreachable!("accumulator kind matches the current pass"),
        }
    }

    // ---- shared per-hit fold steps (used by both `fold` and
    // `fold_cohort`, so the per-copy and fused hot loops cannot diverge) --

    /// Pass 3, one tracked-base hit: offers the opposite endpoint of `e`
    /// to every instance cell listed for `slot`.
    #[inline]
    fn offer_neighbor(
        &self,
        cells: &mut [PickCell],
        slot: u32,
        base: u64,
        p: u64,
        e: &Edge,
        endpoint: VertexId,
    ) {
        let candidate = e.other(endpoint).expect("endpoint belongs to edge");
        for &i in self.lists.list(slot) {
            cells[i as usize].offer(CounterRng::derive(base, i as u64), p, candidate.raw());
        }
    }

    /// Pass 5, accumulator initialization at the first folded position:
    /// loads the per-shard occurrence offsets and seeks each base's cursor
    /// to the first target it could still match.
    fn init_gather(&self, counters: &mut [u64], cursors: &mut [u32], pos: u64) {
        let offsets = self
            .shard_offsets
            .get(&pos)
            .expect("pass-5 shard partition matches pass 4");
        counters.copy_from_slice(offsets);
        for (slot, cursor) in cursors.iter_mut().enumerate() {
            let lo = self.target_offsets[slot] as usize;
            let hi = self.target_offsets[slot + 1] as usize;
            let skip = self.target_occ[lo..hi].partition_point(|&o| (o as u64) < counters[slot]);
            *cursor = (lo + skip) as u32;
        }
    }

    /// Pass 5, one tracked-base occurrence: advances the base's occurrence
    /// counter and records the neighbor if this occurrence is a target.
    #[inline]
    fn gather_occurrence(
        &self,
        counters: &mut [u64],
        cursors: &mut [u32],
        hits: &mut Vec<(u32, u32, u32)>,
        slot: usize,
        e: &Edge,
        endpoint: VertexId,
    ) {
        let t = counters[slot];
        counters[slot] += 1;
        let cursor = cursors[slot] as usize;
        if cursor < self.target_offsets[slot + 1] as usize && self.target_occ[cursor] as u64 == t {
            let w = e.other(endpoint).expect("endpoint belongs to edge");
            hits.push((slot as u32, w.raw(), self.target_mult[cursor]));
            cursors[slot] = cursor as u32 + 1;
        }
    }

    /// Consumes the pass's per-shard accumulators **in shard order**,
    /// merges them (all merges are associative and commutative, so any
    /// sharding reproduces the unsharded fold bit for bit), performs the
    /// between-pass bookkeeping, and arms the next pass.
    pub fn finish_pass(&mut self, accs: Vec<MainStageAcc>) -> Result<()> {
        debug_assert!(!self.finished(), "finish_pass after the sixth pass");
        if crate::faults::ENABLED
            && crate::faults::injected(crate::faults::FaultSite::MainFinish, self.seed)
        {
            return Err(EstimatorError::Injected {
                site: crate::faults::FaultSite::MainFinish,
            });
        }
        let mut tally = PassTally::default();
        for acc in &accs {
            tally.merge(acc.tally);
        }
        self.pass_tallies[self.pass] = tally;
        match self.pass {
            0 => self.finish_gather(accs)?,
            1 => self.finish_degrees(accs),
            2 => self.finish_neighbors(accs),
            3 => self.finish_closure(accs),
            4 => self.finish_assignment_gather(accs),
            5 => self.finish_assignment_closure(accs),
            _ => unreachable!(),
        }
        self.pass += 1;
        Ok(())
    }

    /// The finished outcome (valid once [`finished`](Self::finished)).
    pub fn finish(self) -> Result<MainOutcome> {
        debug_assert!(self.finished(), "finish before the sixth pass completed");
        // The last pass's wall time is recorded by the driver *after*
        // finish_pass built the outcome, so refresh the timings here.
        let pass_nanos = self.pass_nanos;
        self.outcome
            .map(|mut outcome| {
                outcome.pass_nanos = pass_nanos;
                outcome
            })
            .ok_or_else(|| EstimatorError::invalid_config("stage pipeline did not complete"))
    }

    // ---- per-pass finish steps -----------------------------------------

    fn finish_gather(&mut self, accs: Vec<MainStageAcc>) -> Result<()> {
        // Every target position lies in [0, m), so every slot is written
        // exactly once; the placeholder never survives.
        let mut edges = vec![Edge::from_raw(0, 1); self.params.r];
        for acc in accs {
            let Acc::Gather(hits) = acc.acc else {
                unreachable!("pass-1 accumulator");
            };
            for (slot, edge) in hits {
                edges[slot as usize] = edge;
            }
        }
        self.r_edges = edges;
        if self.r_edges.is_empty() {
            return Err(EstimatorError::EmptyStream);
        }
        // Arm pass 2: the tracked endpoints become dense slots.
        let r = self.r_edges.len();
        self.vertices.reset(2 * r);
        for e in &self.r_edges {
            self.vertices.insert(e.u().raw());
            self.vertices.insert(e.v().raw());
        }
        self.meter.charge(self.vertices.len() as u64);
        Ok(())
    }

    fn finish_degrees(&mut self, accs: Vec<MainStageAcc>) {
        let tracked = self.vertices.len();
        let mut accs = accs.into_iter();
        let Some(MainStageAcc {
            acc: Acc::Counts(first),
            ..
        }) = accs.next()
        else {
            unreachable!("pass-2 accumulator");
        };
        self.counts = first;
        for acc in accs {
            let Acc::Counts(other) = acc.acc else {
                unreachable!("pass-2 accumulator");
            };
            for (total, c) in self.counts.iter_mut().zip(other) {
                *total += c;
            }
        }
        // Drop the lane kernels' miss-sink slot; only tracked endpoints
        // carry degrees.
        self.counts.truncate(tracked);
        debug_assert_eq!(self.counts.len(), tracked);
        let endpoint_degree = |v: VertexId| {
            self.counts[self.vertices.get(v.raw()).expect("tracked endpoint") as usize]
        };
        self.degrees = self
            .r_edges
            .iter()
            .map(|e| endpoint_degree(e.u()).min(endpoint_degree(e.v())))
            .collect();
        self.d_r = self.degrees.iter().sum();
        self.meter.charge(self.r_edges.len() as u64);

        // Offline: draw ℓ degree-proportional instances from R by
        // inverse-CDF over the counter stream (pick k is keyed by its
        // index in the offline stream of ℓ draws).
        let r = self.r_edges.len();
        let ell = self
            .config
            .derive_inner_samples(self.m, self.n, r, self.d_r.max(1));
        let cumulative: Vec<f64> = self
            .degrees
            .iter()
            .scan(0.0, |acc, &d| {
                *acc += d as f64;
                Some(*acc)
            })
            .collect();
        let total_weight = *cumulative.last().unwrap_or(&0.0);
        let inst_rng = CounterRng::new(self.seed, streams::MAIN_INSTANCES);
        self.instances = Vec::with_capacity(ell);
        for k in 0..ell {
            if total_weight <= 0.0 {
                break;
            }
            let target = inst_rng.unit(k as u64, 0) * total_weight;
            let idx = cumulative.partition_point(|&c| c <= target).min(r - 1);
            let edge = self.r_edges[idx];
            let (base, other) = if endpoint_degree(edge.u()) <= endpoint_degree(edge.v()) {
                (edge.u(), edge.v())
            } else {
                (edge.v(), edge.u())
            };
            self.instances.push(Instance {
                edge,
                base,
                other,
                neighbor: None,
                closure: None,
                triangle: None,
            });
        }
        self.meter.charge(3 * self.instances.len() as u64);

        // Arm pass 3: instances grouped by base vertex in CSR lists;
        // per-base iteration order equals instance order.
        self.vertices.reset(self.instances.len());
        for inst in &self.instances {
            self.vertices.insert(inst.base.raw());
        }
        self.lists.begin(self.vertices.len());
        for inst in &self.instances {
            self.lists
                .count(self.vertices.get(inst.base.raw()).expect("interned base"));
        }
        self.lists.finish_counts();
        for (i, inst) in self.instances.iter().enumerate() {
            let slot = self.vertices.get(inst.base.raw()).expect("interned base");
            self.lists
                .push(slot, u32::try_from(i).expect("instance count fits u32"));
        }
    }

    fn finish_neighbors(&mut self, accs: Vec<MainStageAcc>) {
        let mut accs = accs.into_iter();
        let Some(MainStageAcc {
            acc: Acc::Cells(mut cells),
            ..
        }) = accs.next()
        else {
            unreachable!("pass-3 accumulator");
        };
        for acc in accs {
            let Acc::Cells(other) = acc.acc else {
                unreachable!("pass-3 accumulator");
            };
            for (cell, o) in cells.iter_mut().zip(&other) {
                cell.merge(o);
            }
        }
        for (inst, cell) in self.instances.iter_mut().zip(&cells) {
            inst.neighbor = cell.value().map(VertexId::new);
        }
        // Arm pass 4: the closure queries, plus the *potential candidate
        // endpoints* — every vertex a confirmed triangle could involve
        // ({base, other, w} of each queried instance). Counting their
        // stream occurrences during the closure pass is what lets pass 5
        // gather its neighbor samples positionally instead of scanning an
        // `s`-slot priority table on every incident edge.
        self.probes.begin();
        self.vertices.reset(3 * self.instances.len());
        for inst in self.instances.iter_mut() {
            if let Some(w) = inst.neighbor {
                if w != inst.other && w != inst.base {
                    let q = Edge::new(inst.other, w);
                    inst.closure = Some(q);
                    self.probes.add(q.key());
                    self.vertices.insert(inst.base.raw());
                    self.vertices.insert(inst.other.raw());
                    self.vertices.insert(w.raw());
                }
            }
        }
        let closure_queries = self.probes.seal();
        self.meter.charge(closure_queries as u64);
        // Transient occurrence counters for the potential endpoints.
        self.meter.charge(self.vertices.len() as u64);
    }

    fn finish_closure(&mut self, accs: Vec<MainStageAcc>) {
        // Merge the hit bitmaps and the per-shard occurrence counts,
        // remembering each shard's prefix — the occurrence number every
        // potential endpoint has reached at that shard's start position —
        // for the pass-5 gather.
        let potential = self.vertices.len();
        self.occ_totals.clear();
        self.occ_totals.resize(potential, 0);
        let mut shard_counts: Vec<(u64, Vec<u64>)> = Vec::with_capacity(accs.len());
        for acc in accs {
            let Acc::Closure { bitmap, occ, start } = acc.acc else {
                unreachable!("pass-4 accumulator");
            };
            self.probes.merge_bitmap(&bitmap);
            for (total, c) in self.occ_totals.iter_mut().zip(&occ) {
                *total += c;
            }
            shard_counts.push((start.unwrap_or(0), occ));
        }
        self.meter.charge(self.probes.hit_count() as u64);
        self.triangles_found = 0;
        for inst in self.instances.iter_mut() {
            if let (Some(q), Some(w)) = (inst.closure, inst.neighbor) {
                if self.probes.hit(q.key()) {
                    inst.triangle = Some(Triangle::new(inst.base, inst.other, w));
                    self.triangles_found += 1;
                }
            }
        }
        // Gather the distinct candidate triangles and their edges; their
        // endpoint degrees are already known from the occurrence counts.
        self.distinct_triangles.clear();
        self.triangle_index.clear();
        self.candidates.clear();
        self.edge_index.clear();
        for inst in &self.instances {
            if let Some(t) = inst.triangle {
                if let std::collections::hash_map::Entry::Vacant(entry) =
                    self.triangle_index.entry(t)
                {
                    entry.insert(self.distinct_triangles.len());
                    self.distinct_triangles.push(t);
                    for e in t.edges() {
                        if let std::collections::hash_map::Entry::Vacant(entry) =
                            self.edge_index.entry(e)
                        {
                            entry.insert(self.candidates.len());
                            let degree_u = self.occ_totals[self
                                .vertices
                                .get(e.u().raw())
                                .expect("potential endpoint is tracked")
                                as usize];
                            let degree_v = self.occ_totals[self
                                .vertices
                                .get(e.v().raw())
                                .expect("potential endpoint is tracked")
                                as usize];
                            self.candidates.push(Candidate {
                                edge: e,
                                degree_u,
                                degree_v,
                                estimate: 0.0,
                            });
                        }
                    }
                }
            }
        }
        self.meter.charge(3 * self.distinct_triangles.len() as u64);
        self.meter.charge(4 * self.candidates.len() as u64);

        // Arm pass 5 — the positional sample gather. Degrees are known, so
        // sample slot `j` of base vertex `v` is simply *the neighbor at
        // `v`'s occurrence number `hash(v, j) mod d_v`* — i.i.d. uniform
        // with replacement over `N(v)`, a pure function of the seed that
        // every shard evaluates identically. Each base keeps its distinct
        // target occurrence numbers sorted (with multiplicities), and the
        // sweep advances one cursor per base — `O(1)` per incident edge
        // instead of the `s` priority offers of the table scheme.
        self.bases.reset(self.candidates.len());
        self.target_offsets.clear();
        self.target_offsets.push(0);
        self.target_occ.clear();
        self.target_mult.clear();
        let mut base_vertices: Vec<VertexId> = Vec::new();
        for i in 0..self.candidates.len() {
            let c = self.candidates[i];
            if (c.edge_degree() as f64) > self.params.degree_cutoff {
                continue; // Y_e = ∞, no sampling needed (Algorithm 3, line 9)
            }
            let (base, _) = c.base_and_other();
            let before = self.bases.len();
            let slot = self.bases.insert(base.raw());
            if (slot as usize) < before {
                continue; // base already has its targets
            }
            base_vertices.push(base);
            let d_v = self.occ_totals[self
                .vertices
                .get(base.raw())
                .expect("potential endpoint is tracked")
                as usize];
            self.sample_scratch.clear();
            if d_v > 0 {
                for j in 0..self.params.assignment_samples {
                    self.sample_scratch.push(self.rng_assignment.bounded(
                        base.raw() as u64,
                        j as u64,
                        d_v,
                    ) as u32);
                }
                self.sample_scratch.sort_unstable();
            }
            let mut i = 0;
            while i < self.sample_scratch.len() {
                let value = self.sample_scratch[i];
                let mut j = i + 1;
                while j < self.sample_scratch.len() && self.sample_scratch[j] == value {
                    j += 1;
                }
                self.target_occ.push(value);
                self.target_mult.push((j - i) as u32);
                i = j;
            }
            self.target_offsets.push(self.target_occ.len() as u32);
        }
        // Per-shard occurrence offsets for the bases, keyed by shard start.
        shard_counts.sort_by_key(|&(start, _)| start);
        let mut prefix = vec![0u64; potential];
        self.shard_offsets.clear();
        for (start, occ) in shard_counts {
            let row: Vec<u64> = base_vertices
                .iter()
                .map(|v| {
                    prefix[self
                        .vertices
                        .get(v.raw())
                        .expect("potential endpoint is tracked")
                        as usize]
                })
                .collect();
            self.shard_offsets.insert(start, row);
            for (p, c) in prefix.iter_mut().zip(&occ) {
                *p += c;
            }
        }
        // Transient gather state: targets, cursors and counters.
        self.meter
            .charge(2 * self.target_occ.len() as u64 + 2 * self.bases.len() as u64);
    }

    fn finish_assignment_gather(&mut self, accs: Vec<MainStageAcc>) {
        // Bucket the gathered `(base, neighbor, multiplicity)` hits into
        // the per-base sample lists. Distinct target occurrences map to
        // distinct neighbors, so no regrouping is needed; hits arrive in
        // deterministic shard/stream order.
        let base_count = self.bases.len();
        let mut per_slot = vec![0u32; base_count + 1];
        let mut all_hits: Vec<(u32, u32, u32)> = Vec::new();
        for acc in accs {
            let Acc::SampleGather { hits, .. } = acc.acc else {
                unreachable!("pass-5 accumulator");
            };
            for &(slot, _, _) in &hits {
                per_slot[slot as usize + 1] += 1;
            }
            all_hits.extend(hits);
        }
        for i in 1..per_slot.len() {
            per_slot[i] += per_slot[i - 1];
        }
        self.sample_offsets.clear();
        self.sample_offsets.extend_from_slice(&per_slot);
        self.sample_items.clear();
        self.sample_items.resize(all_hits.len(), (0, 0));
        let mut cursor = per_slot;
        for (slot, w, mult) in all_hits {
            let at = cursor[slot as usize] as usize;
            self.sample_items[at] = (w, mult);
            cursor[slot as usize] += 1;
        }
        // The transient gather state is gone; the retained sample lists
        // replace it.
        self.meter
            .release(2 * self.target_occ.len() as u64 + 2 * self.bases.len() as u64);
        self.meter.release(self.vertices.len() as u64);
        self.meter
            .charge(self.sample_items.len() as u64 + self.sample_offsets.len() as u64);
        // Arm pass 6: closure queries for the base-side samples of every
        // candidate edge below the degree cutoff.
        let mut probes = std::mem::take(&mut self.probes);
        probes.begin();
        for c in &self.candidates {
            if (c.edge_degree() as f64) > self.params.degree_cutoff {
                continue;
            }
            let (base, other) = c.base_and_other();
            for &(w, _) in self.samples_of(base) {
                if w != other.raw() && w != base.raw() {
                    probes.add(Edge::new(other, VertexId::new(w)).key());
                }
            }
        }
        let assign_queries = probes.seal();
        self.probes = probes;
        self.meter.charge(assign_queries as u64);
    }

    fn finish_assignment_closure(&mut self, accs: Vec<MainStageAcc>) {
        self.merge_bitmaps(accs);
        self.meter.charge(self.probes.hit_count() as u64);

        // Compute Y_e for every candidate edge (Algorithm 3, lines 8–16).
        let s = self.params.assignment_samples as f64;
        for i in 0..self.candidates.len() {
            let c = self.candidates[i];
            let d_e = c.edge_degree() as f64;
            if d_e > self.params.degree_cutoff {
                self.candidates[i].estimate = f64::INFINITY;
                continue;
            }
            let (base, other) = c.base_and_other();
            let mut hits = 0u64;
            for &(w, count) in self.samples_of(base) {
                if w != other.raw()
                    && w != base.raw()
                    && self.probes.hit(Edge::new(other, VertexId::new(w)).key())
                {
                    hits += count as u64;
                }
            }
            self.candidates[i].estimate = d_e * hits as f64 / s;
        }

        // Assignment decision per distinct triangle (memoized for
        // consistency, Definition 5.2 property (1)).
        let mut memo = AssignmentMemo::new();
        let mut decision_of: Vec<Option<Edge>> = Vec::with_capacity(self.distinct_triangles.len());
        for &t in &self.distinct_triangles {
            let decision = if let Some(d) = memo.get(&t) {
                d
            } else {
                let tri_edges = t.edges();
                let estimates: [(Edge, f64); 3] = [
                    (
                        tri_edges[0],
                        self.candidates[self.edge_index[&tri_edges[0]]].estimate,
                    ),
                    (
                        tri_edges[1],
                        self.candidates[self.edge_index[&tri_edges[1]]].estimate,
                    ),
                    (
                        tri_edges[2],
                        self.candidates[self.edge_index[&tri_edges[2]]].estimate,
                    ),
                ];
                let d = decide_assignment(&estimates, self.params.assignment_ceiling);
                memo.insert(t, d, &mut self.meter)
            };
            decision_of.push(decision);
        }

        // Final estimate.
        let mut assigned_hits = 0usize;
        for inst in &self.instances {
            if let Some(t) = inst.triangle {
                let idx = self.triangle_index[&t];
                if decision_of[idx] == Some(inst.edge) {
                    assigned_hits += 1;
                }
            }
        }
        let y = if self.instances.is_empty() {
            0.0
        } else {
            assigned_hits as f64 / self.instances.len() as f64
        };
        let r = self.r_edges.len();
        let estimate = (self.m as f64 / r as f64) * self.d_r as f64 * y;
        self.outcome = Some(MainOutcome {
            estimate,
            passes: Self::PASSES,
            pass_nanos: self.pass_nanos,
            sharded: self.sharded,
            space: self.meter.report(),
            r,
            inner_samples: self.instances.len(),
            d_r: self.d_r,
            triangles_found: self.triangles_found,
            distinct_triangles: self.distinct_triangles.len(),
            assigned_hits,
            pass_tallies: self.pass_tallies,
        });
    }

    // ---- helpers --------------------------------------------------------

    /// The distinct `(neighbor, multiplicity)` samples of a base vertex
    /// (valid after pass 5).
    fn samples_of(&self, v: VertexId) -> &[(u32, u32)] {
        let slot = self.bases.get(v.raw()).expect("interned base") as usize;
        &self.sample_items
            [self.sample_offsets[slot] as usize..self.sample_offsets[slot + 1] as usize]
    }

    fn merge_bitmaps(&mut self, accs: Vec<MainStageAcc>) {
        for acc in accs {
            let Acc::Bitmap(bitmap) = acc.acc else {
                unreachable!("membership accumulator");
            };
            self.probes.merge_bitmap(&bitmap);
        }
    }

    /// The current retained-space report (diagnostic).
    pub fn space(&self) -> SpaceReport {
        self.meter.report()
    }
}

// ---- cohort-fused execution -------------------------------------------
//
// Feeding many copies' folds per chunk amortizes the snapshot traversal,
// but naively it multiplies the *random-access* probe work by the copy
// count: every edge probes every copy's lookup table, and the combined
// tables fall out of cache. The cohort plan removes that multiplier: per
// pass it merges all copies' tracked keys into ONE union index mapping a
// key to the `(copy, slot)` pairs that track it, so each edge pays one
// probe (usually a miss) for the whole cohort and fans out only to the
// copies that actually hit — the per-copy accumulator updates are then
// exactly the ones the per-copy folds would have made, in a commutative
// order, so the merged results stay bit-identical.

/// A union vertex index over many copies' slot maps: one open-addressed
/// probe answers "which copies track this vertex, and under which slot".
#[derive(Debug, Default)]
struct UnionIndex {
    map: VertexSlotMap,
    offsets: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl UnionIndex {
    /// Builds the union of `(key, slot)` maps extracted per copy.
    fn build(copies: &[MainCopyStages], of: impl Fn(&MainCopyStages) -> &VertexSlotMap) -> Self {
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for (c, stages) in copies.iter().enumerate() {
            of(stages).for_each(|key, slot| triples.push((key, c as u32, slot)));
        }
        let mut map = VertexSlotMap::default();
        map.reset(triples.len());
        let mut counts: Vec<u32> = Vec::new();
        for &(key, _, _) in &triples {
            let union_slot = map.insert(key) as usize;
            if union_slot == counts.len() {
                counts.push(0);
            }
            counts[union_slot] += 1;
        }
        let mut offsets = vec![0u32; counts.len() + 1];
        for (i, &c) in counts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + c;
        }
        let mut cursor: Vec<u32> = offsets[..counts.len()].to_vec();
        let mut entries = vec![(0u32, 0u32); triples.len()];
        for &(key, copy, slot) in &triples {
            let union_slot = map.get(key).expect("key was interned") as usize;
            entries[cursor[union_slot] as usize] = (copy, slot);
            cursor[union_slot] += 1;
        }
        UnionIndex {
            map,
            offsets,
            entries,
        }
    }

    /// The `(copy, slot)` pairs tracking `key`, if any.
    #[inline]
    fn get(&self, key: u32) -> &[(u32, u32)] {
        match self.map.get(key) {
            Some(s) => self.entries_of(s),
            None => &[],
        }
    }

    /// The `(copy, slot)` pairs of an already-resolved union slot.
    #[inline]
    fn entries_of(&self, union_slot: u32) -> &[(u32, u32)] {
        let s = union_slot as usize;
        &self.entries[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// A union membership index over many copies' sealed probe sets: one
/// binary search answers "which copies query this edge, and at which
/// index of their probe set".
#[derive(Debug, Default)]
struct EdgeUnion {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl EdgeUnion {
    fn build(copies: &[MainCopyStages]) -> Self {
        // Every copy's sealed probe table is already sorted, so the union
        // comes from a k-way merge in (key, copy) order — exactly the
        // triple order a global `(key, copy, slot)` sort would produce,
        // without the O(N log N) pass over the concatenated tables (the
        // dominant plan-build cost of the membership passes).
        let tables: Vec<&[u64]> = copies.iter().map(|c| c.probes.keys()).collect();
        let total: usize = tables.iter().map(|t| t.len()).sum();
        let mut heads = vec![0usize; tables.len()];
        // Cached head keys (`u64::MAX` = exhausted; a real `u64::MAX` key
        // still merges correctly — the loop runs while any head remains).
        let mut head_keys: Vec<u64> = tables
            .iter()
            .map(|t| t.first().copied().unwrap_or(u64::MAX))
            .collect();
        let mut remaining = total;
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        let mut entries = Vec::with_capacity(total);
        while remaining > 0 {
            let key = head_keys.iter().copied().min().expect("cohort non-empty");
            keys.push(key);
            offsets.push(entries.len() as u32);
            // Drain each copy's run of this key in copy order, slots
            // ascending — the tie order of the sorted triples.
            for (c, table) in tables.iter().enumerate() {
                if head_keys[c] != key {
                    continue;
                }
                let mut at = heads[c];
                while at < table.len() && table[at] == key {
                    entries.push((c as u32, at as u32));
                    at += 1;
                }
                remaining -= at - heads[c];
                heads[c] = at;
                head_keys[c] = table.get(at).copied().unwrap_or(u64::MAX);
            }
            *offsets.last_mut().expect("offsets are non-empty") = entries.len() as u32;
        }
        EdgeUnion {
            keys,
            offsets,
            entries,
        }
    }

    /// The `(copy, probe index)` pairs querying `key`, if any.
    #[inline]
    fn get(&self, key: u64) -> &[(u32, u32)] {
        match self.keys.binary_search(&key) {
            Ok(i) => self.entries_of(i as u32),
            Err(_) => &[],
        }
    }

    /// The `(copy, probe index)` pairs at a resolved key index.
    #[inline]
    fn entries_of(&self, key_index: u32) -> &[(u32, u32)] {
        let i = key_index as usize;
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The per-pass union structures of one fused cohort of
/// [`MainCopyStages`] copies (all at the same pass index).
#[derive(Debug)]
pub struct MainCohortPlan {
    kind: PlanKind,
}

/// Reusable per-driver scratch for the scatter-based cohort fan-out:
/// probe hits collected in stream order, then counting-scattered into
/// copy-major runs so the apply phase is one tight loop per copy instead
/// of a branchy per-item dispatch over `accs`. Only passes whose per-hit
/// apply is heavy enough to amortize the materialization ride the scatter
/// (currently the neighbor-offer pass); the cheap commutative applies
/// dispatch directly in stream order. One instance lives per sweeping
/// thread (the fused driver allocates one per shard closure) and its
/// buffers are reused across chunks and passes.
#[derive(Debug, Default)]
pub struct MainCohortScratch {
    /// Vertex-probe hits in stream order: `(copy, slot, off·2 | side)`,
    /// where `off` indexes the chunk and `side` picks `u`/`v`.
    hits: Vec<(u32, u32, u32)>,
    /// Per-copy end offsets after the counting scatter.
    runs: Vec<u32>,
    /// Copy-major reordering of `hits` (stable, so per-copy stream order
    /// is preserved exactly).
    ordered: Vec<(u32, u32, u32)>,
}

/// Stable counting scatter of `items` into copy-major runs. After the
/// call, `runs[c]` is the **end** offset of copy `c`'s run in `ordered`
/// (its start is `runs[c - 1]`, or 0 for the first copy) — see
/// [`copy_run`].
fn scatter_runs<T: Copy + Default>(
    items: &[T],
    copies: usize,
    copy_of: impl Fn(&T) -> u32,
    runs: &mut Vec<u32>,
    ordered: &mut Vec<T>,
) {
    runs.clear();
    runs.resize(copies + 1, 0);
    for it in items {
        runs[copy_of(it) as usize + 1] += 1;
    }
    for c in 1..=copies {
        runs[c] += runs[c - 1];
    }
    // Grow-only: the scatter overwrites exactly `items.len()` slots (every
    // offset below each copy's end lands once), so zero-filling on every
    // chunk would be a wasted write pass over the buffer.
    if ordered.len() < items.len() {
        ordered.resize(items.len(), T::default());
    }
    for it in items {
        let c = copy_of(it) as usize;
        ordered[runs[c] as usize] = *it;
        runs[c] += 1;
    }
}

/// Copy `c`'s contiguous run after [`scatter_runs`].
#[inline]
fn copy_run<'a, T>(runs: &[u32], ordered: &'a [T], c: usize) -> &'a [T] {
    let start = if c == 0 { 0 } else { runs[c - 1] as usize };
    &ordered[start..runs[c] as usize]
}

/// Lane-probes every endpoint of the chunk against the union index and
/// invokes `sink(copy, slot, off·2 | side)` for each hit **in stream
/// order** (`u` before `v` per edge, edges in chunk order) — the
/// interleaved lane groups make the batched path emit hits in exactly the
/// scalar order. Passes whose per-hit apply is cheap and commutative feed
/// a direct-apply sink; the scatter-based passes feed a `Vec` push (see
/// [`collect_vertex_hits`]).
#[inline]
fn probe_vertex_hits(
    union: &UnionIndex,
    blocks: &[[Edge; LANES]],
    tail: &[Edge],
    mut sink: impl FnMut(u32, u32, u32),
) {
    const MISS: u32 = u32::MAX;
    for (b, block) in blocks.iter().enumerate() {
        let groups = interleaved_endpoint_lanes(block);
        for (g, keys) in groups.iter().enumerate() {
            let slots = union.map.get_lanes(keys, MISS);
            for (l, &s) in slots.iter().enumerate() {
                if s != MISS {
                    let occurrence = (g * LANES + l) as u32;
                    let off = (b * LANES) as u32 + (occurrence >> 1);
                    let side = occurrence & 1;
                    for &(copy, slot) in union.entries_of(s) {
                        sink(copy, slot, (off << 1) | side);
                    }
                }
            }
        }
    }
    let base = (blocks.len() * LANES) as u32;
    for (t, e) in tail.iter().enumerate() {
        for (side, endpoint) in [e.u(), e.v()].into_iter().enumerate() {
            for &(copy, slot) in union.get(endpoint.raw()) {
                sink(copy, slot, ((base + t as u32) << 1) | side as u32);
            }
        }
    }
}

/// Phase 1 of the scatter-based cohort fan-out: materializes the
/// [`probe_vertex_hits`] stream into `hits` for the counting scatter.
fn collect_vertex_hits(
    union: &UnionIndex,
    blocks: &[[Edge; LANES]],
    tail: &[Edge],
    hits: &mut Vec<(u32, u32, u32)>,
) {
    probe_vertex_hits(union, blocks, tail, |copy, slot, info| {
        hits.push((copy, slot, info));
    });
}

/// Lane search over the union's sorted keys, fanning each found key out to
/// its `(copy, probe index)` entries via `sink` — in stream order, so a
/// direct-apply sink reproduces the scalar order exactly.
#[inline]
fn probe_edge_hits(
    union: &EdgeUnion,
    blocks: &[[Edge; LANES]],
    tail: &[Edge],
    mut sink: impl FnMut(u32, u32),
) {
    for block in blocks {
        let (idx, mask) = find_sorted_lanes(&union.keys, &edge_key_lanes(block));
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            for &(copy, index) in union.entries_of(idx[l]) {
                sink(copy, index);
            }
        }
    }
    for e in tail {
        for &(copy, index) in union.get(e.key()) {
            sink(copy, index);
        }
    }
}

#[derive(Debug)]
enum PlanKind {
    /// Pass 1: the positional gathers are already O(log) per chunk per
    /// copy — a per-copy loop is optimal.
    PerCopy,
    /// Pass 2: union of the copies' tracked-endpoint maps.
    Degrees(UnionIndex),
    /// Pass 3: union of the copies' instance-base maps.
    Neighbors(UnionIndex),
    /// Pass 4: union closure queries plus union potential-endpoint maps.
    Closure {
        edges: EdgeUnion,
        vertices: UnionIndex,
    },
    /// Pass 5: union of the copies' gather-base maps.
    Gather(UnionIndex),
    /// Pass 6: union assignment closure queries.
    Membership(EdgeUnion),
}

impl MainCopyStages {
    /// Builds the union probe structures for the cohort's current pass.
    /// All copies must be at the same pass index (fused cohorts run in
    /// lockstep).
    pub fn plan_cohort(copies: &[MainCopyStages]) -> MainCohortPlan {
        let pass = copies.first().map_or(6, |c| c.pass);
        debug_assert!(
            copies.iter().all(|c| c.pass == pass),
            "cohort copies run in lockstep"
        );
        let kind = match pass {
            1 => PlanKind::Degrees(UnionIndex::build(copies, |c| &c.vertices)),
            2 => PlanKind::Neighbors(UnionIndex::build(copies, |c| &c.vertices)),
            3 => PlanKind::Closure {
                edges: EdgeUnion::build(copies),
                vertices: UnionIndex::build(copies, |c| &c.vertices),
            },
            4 => PlanKind::Gather(UnionIndex::build(copies, |c| &c.bases)),
            5 => PlanKind::Membership(EdgeUnion::build(copies)),
            _ => PlanKind::PerCopy,
        };
        MainCohortPlan { kind }
    }

    /// Folds one chunk into **every** copy's accumulator through the
    /// cohort plan, in two branchless phases: **collect** — lane-probe the
    /// union structures and append every `(copy, …)` hit in stream order —
    /// then **apply** — counting-scatter the hits into copy-major runs and
    /// replay each copy's run as one tight loop. The per-copy accumulator
    /// updates are exactly those of [`fold`](MainCopyStages::fold), and
    /// the stable scatter preserves per-copy stream order, so the merged
    /// pass results are bit-identical to per-copy folding (including the
    /// order-sensitive pass-5 gather). `accs[k]` belongs to `copies[k]`.
    pub fn fold_cohort(
        plan: &MainCohortPlan,
        copies: &[MainCopyStages],
        accs: &mut [MainStageAcc],
        scratch: &mut MainCohortScratch,
        pos: u64,
        chunk: &[Edge],
    ) {
        debug_assert_eq!(copies.len(), accs.len());
        if crate::faults::ENABLED {
            for stages in copies {
                crate::faults::probe(crate::faults::FaultSite::MainFold, stages.seed);
            }
        }
        if matches!(plan.kind, PlanKind::PerCopy) {
            // Pass 1: positional gathers are O(log) per chunk per copy —
            // the per-copy loop is already optimal (fold tallies itself).
            for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
                stages.fold(acc, pos, chunk);
            }
            return;
        }
        let (blocks, tail) = blocks_of(chunk);
        for acc in accs.iter_mut() {
            acc.tally.items += chunk.len() as u64;
            acc.tally.kernel_batches += blocks.len() as u64;
        }
        scratch.hits.clear();
        match &plan.kind {
            PlanKind::PerCopy => unreachable!("handled above"),
            PlanKind::Degrees(union) => {
                // The pass-2 apply is a bare counter bump — commutative and
                // cheaper than the copy-major scatter it would ride in —
                // so hits apply directly in stream order (bit-identical:
                // integer adds commute). Lane probing of the union is kept;
                // only the materialize/scatter/replay round-trip is skipped.
                probe_vertex_hits(union, blocks, tail, |copy, slot, _| {
                    let acc = &mut accs[copy as usize];
                    let Acc::Counts(counts) = &mut acc.acc else {
                        unreachable!("pass-2 accumulator");
                    };
                    counts[slot as usize] += 1;
                    acc.tally.hits += 1;
                });
            }
            PlanKind::Neighbors(union) => {
                collect_vertex_hits(union, blocks, tail, &mut scratch.hits);
                scatter_runs(
                    &scratch.hits,
                    copies.len(),
                    |h| h.0,
                    &mut scratch.runs,
                    &mut scratch.ordered,
                );
                for (c, acc) in accs.iter_mut().enumerate() {
                    let run = copy_run(&scratch.runs, &scratch.ordered, c);
                    if run.is_empty() {
                        continue;
                    }
                    let stages = &copies[c];
                    let Acc::Cells(cells) = &mut acc.acc else {
                        unreachable!("pass-3 accumulator");
                    };
                    for &(_, slot, info) in run {
                        let off = (info >> 1) as usize;
                        let e = &chunk[off];
                        let endpoint = if info & 1 == 0 { e.u() } else { e.v() };
                        let p = pos + off as u64;
                        let base = stages.rng_neighbor.base(p);
                        stages.offer_neighbor(cells, slot, base, p, e, endpoint);
                    }
                    acc.tally.hits += run.len() as u64;
                }
            }
            PlanKind::Closure { edges, vertices } => {
                for acc in accs.iter_mut() {
                    let Acc::Closure { start, .. } = &mut acc.acc else {
                        unreachable!("pass-4 accumulator");
                    };
                    if start.is_none() {
                        *start = Some(pos);
                    }
                }
                // Both applies are commutative single stores (bitmap OR,
                // occupancy bump), so hits go straight to their copy in
                // stream order — the scatter's tight-loop payoff cannot
                // recoup its materialization cost here.
                probe_edge_hits(edges, blocks, tail, |copy, index| {
                    let acc = &mut accs[copy as usize];
                    let Acc::Closure { bitmap, .. } = &mut acc.acc else {
                        unreachable!("pass-4 accumulator");
                    };
                    EdgeProbeSet::mark_in(bitmap, index as usize);
                    acc.tally.hits += 1;
                });
                probe_vertex_hits(vertices, blocks, tail, |copy, slot, _| {
                    let acc = &mut accs[copy as usize];
                    let Acc::Closure { occ, .. } = &mut acc.acc else {
                        unreachable!("pass-4 accumulator");
                    };
                    occ[slot as usize] += 1;
                    acc.tally.updates += 1;
                });
            }
            PlanKind::Gather(union) => {
                for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
                    let Acc::SampleGather {
                        counters,
                        cursors,
                        initialized,
                        ..
                    } = &mut acc.acc
                    else {
                        unreachable!("pass-5 accumulator");
                    };
                    if !*initialized {
                        stages.init_gather(counters, cursors, pos);
                        *initialized = true;
                    }
                }
                // Gather hits are sparse and the per-hit apply touches
                // per-copy cursor state anyway — direct stream-order
                // dispatch preserves each copy's hit order (the property
                // the stable scatter existed to protect) without the
                // materialize/scatter round-trip.
                probe_vertex_hits(union, blocks, tail, |copy, slot, info| {
                    let stages = &copies[copy as usize];
                    let acc = &mut accs[copy as usize];
                    let Acc::SampleGather {
                        counters,
                        cursors,
                        hits,
                        ..
                    } = &mut acc.acc
                    else {
                        unreachable!("pass-5 accumulator");
                    };
                    let off = (info >> 1) as usize;
                    let e = &chunk[off];
                    let endpoint = if info & 1 == 0 { e.u() } else { e.v() };
                    stages.gather_occurrence(counters, cursors, hits, slot as usize, e, endpoint);
                    acc.tally.updates += 1;
                });
                for acc in accs.iter_mut() {
                    let Acc::SampleGather { hits, .. } = &acc.acc else {
                        unreachable!("pass-5 accumulator");
                    };
                    acc.tally.hits = hits.len() as u64;
                }
            }
            PlanKind::Membership(union) => {
                // Membership marks are commutative bitmap ORs — direct
                // stream-order apply, same reasoning as the closure pass.
                probe_edge_hits(union, blocks, tail, |copy, index| {
                    let acc = &mut accs[copy as usize];
                    let Acc::Bitmap(bitmap) = &mut acc.acc else {
                        unreachable!("pass-6 accumulator");
                    };
                    EdgeProbeSet::mark_in(bitmap, index as usize);
                    acc.tally.hits += 1;
                });
            }
        }
    }

    /// The scalar reference cohort fold: per-item union probes with an
    /// immediate branchy fan-out over `accs` — the pre-lane implementation,
    /// kept public for the bit-identity sweeps and the perf bin's
    /// lane-vs-scalar cohort gate. Results are bit-identical to
    /// [`fold_cohort`](MainCopyStages::fold_cohort).
    pub fn fold_cohort_scalar(
        plan: &MainCohortPlan,
        copies: &[MainCopyStages],
        accs: &mut [MainStageAcc],
        pos: u64,
        chunk: &[Edge],
    ) {
        debug_assert_eq!(copies.len(), accs.len());
        // Every copy of the cohort sees the whole chunk, exactly as its
        // per-copy fold would have (the PerCopy arm delegates to `fold`,
        // which tallies for itself).
        if !matches!(plan.kind, PlanKind::PerCopy) {
            for acc in accs.iter_mut() {
                acc.tally.items += chunk.len() as u64;
            }
        }
        match &plan.kind {
            PlanKind::PerCopy => {
                for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
                    stages.fold(acc, pos, chunk);
                }
            }
            PlanKind::Degrees(union) => {
                for e in chunk {
                    for endpoint in [e.u(), e.v()] {
                        for &(copy, slot) in union.get(endpoint.raw()) {
                            let Acc::Counts(counts) = &mut accs[copy as usize].acc else {
                                unreachable!("pass-2 accumulator");
                            };
                            counts[slot as usize] += 1;
                            accs[copy as usize].tally.hits += 1;
                        }
                    }
                }
            }
            PlanKind::Neighbors(union) => {
                for (off, e) in chunk.iter().enumerate() {
                    let p = pos + off as u64;
                    for endpoint in [e.u(), e.v()] {
                        for &(copy, slot) in union.get(endpoint.raw()) {
                            let stages = &copies[copy as usize];
                            let base = stages.rng_neighbor.base(p);
                            let Acc::Cells(cells) = &mut accs[copy as usize].acc else {
                                unreachable!("pass-3 accumulator");
                            };
                            stages.offer_neighbor(cells, slot, base, p, e, endpoint);
                            accs[copy as usize].tally.hits += 1;
                        }
                    }
                }
            }
            PlanKind::Closure { edges, vertices } => {
                for acc in accs.iter_mut() {
                    let Acc::Closure { start, .. } = &mut acc.acc else {
                        unreachable!("pass-4 accumulator");
                    };
                    if start.is_none() {
                        *start = Some(pos);
                    }
                }
                for e in chunk {
                    for &(copy, index) in edges.get(e.key()) {
                        let Acc::Closure { bitmap, .. } = &mut accs[copy as usize].acc else {
                            unreachable!("pass-4 accumulator");
                        };
                        EdgeProbeSet::mark_in(bitmap, index as usize);
                        accs[copy as usize].tally.hits += 1;
                    }
                    for endpoint in [e.u(), e.v()] {
                        for &(copy, slot) in vertices.get(endpoint.raw()) {
                            let Acc::Closure { occ, .. } = &mut accs[copy as usize].acc else {
                                unreachable!("pass-4 accumulator");
                            };
                            occ[slot as usize] += 1;
                            accs[copy as usize].tally.updates += 1;
                        }
                    }
                }
            }
            PlanKind::Gather(union) => {
                for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
                    let Acc::SampleGather {
                        counters,
                        cursors,
                        initialized,
                        ..
                    } = &mut acc.acc
                    else {
                        unreachable!("pass-5 accumulator");
                    };
                    if !*initialized {
                        stages.init_gather(counters, cursors, pos);
                        *initialized = true;
                    }
                }
                for e in chunk {
                    for endpoint in [e.u(), e.v()] {
                        for &(copy, slot) in union.get(endpoint.raw()) {
                            let stages = &copies[copy as usize];
                            let Acc::SampleGather {
                                counters,
                                cursors,
                                hits,
                                ..
                            } = &mut accs[copy as usize].acc
                            else {
                                unreachable!("pass-5 accumulator");
                            };
                            stages.gather_occurrence(
                                counters,
                                cursors,
                                hits,
                                slot as usize,
                                e,
                                endpoint,
                            );
                            accs[copy as usize].tally.updates += 1;
                        }
                    }
                }
                for acc in accs.iter_mut() {
                    let Acc::SampleGather { hits, .. } = &acc.acc else {
                        unreachable!("pass-5 accumulator");
                    };
                    acc.tally.hits = hits.len() as u64;
                }
            }
            PlanKind::Membership(union) => {
                for e in chunk {
                    for &(copy, index) in union.get(e.key()) {
                        let Acc::Bitmap(bitmap) = &mut accs[copy as usize].acc else {
                            unreachable!("pass-6 accumulator");
                        };
                        EdgeProbeSet::mark_in(bitmap, index as usize);
                        accs[copy as usize].tally.hits += 1;
                    }
                }
            }
        }
    }
}
