//! Resumable per-pass stage objects for the turnstile estimator — its one
//! implementation, and the insert/delete twin of `degentri_core::stages`.
//!
//! Every pass of the turnstile estimator is a *linear* fold
//! of the update multiset (sketch sums, signed counters), so a copy
//! decomposes into four `begin_pass → fold(batch) → finish_pass` stages
//! that an external driver sweeps over the snapshot. The standalone
//! estimator drives one copy per sweep; the engine's fused driver feeds
//! every in-flight copy's fold on each chunk, collapsing
//! `4 × copies` snapshot traversals into `4`.
//!
//! Two hot-path properties of the stage folds:
//!
//! * **Prepared updates** — the fingerprint contribution `z^edge · delta`,
//!   the weighted index term and the field-reduced key are computed **once
//!   per update** for the whole sketch bank ([`SketchUpdate`]), with the
//!   `z^edge` power drawn from a tabulated square ladder
//!   ([`degentri_sketch::FingerprintPow`]), so a cell touch is three
//!   additions instead of a 128-bit modular exponentiation.
//! * **Lane-batched sampler banks** — both ℓ0 banks live in the flattened
//!   [`L0Bank`] structure-of-arrays, so each prepared update runs the
//!   whole bank as one strip-mined kernel: contiguous Horner coefficient
//!   lanes at the shared reduced key, mask buckets instead of hardware
//!   division, and the level-0 rows of every sampler in one compact
//!   region. [`DynamicCopyStages::fold_scalar`] keeps the sampler-by-
//!   sampler reference path for the bit-identity tests and the bench's
//!   kernel-attribution gate.
//!
//! All of these are bit-identical reorderings of the same linear
//! arithmetic, so per-copy, sharded, fused, batched and scalar execution
//! agree bit for bit at every batch size, shard count, worker count and
//! cohort grouping.

use degentri_core::faults;
use degentri_core::rng::{streams, CounterRng, WeightedPickCell};
use degentri_graph::{Edge, VertexId};
use degentri_obs::PassTally;
use degentri_sketch::hash::MERSENNE_PRIME;
use degentri_sketch::{L0Bank, L0Sampler, SketchUpdate};
use degentri_stream::{EdgeUpdate, SpaceMeter};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::DynamicError;
use crate::estimator::{CounterSelection, DynamicCopyOutcome, DynamicEstimatorConfig};
use crate::Result;

/// A degree-proportional instance: the sampled edge's endpoints, ordered
/// so `base` is the lower-degree one whose neighborhood is ℓ0-sampled.
#[derive(Debug, Clone, Copy)]
struct Instance {
    base: VertexId,
    other: VertexId,
}

/// Derives a shared fingerprint base `z ∈ [2, p)` for an ℓ0 bank from the
/// counter RNG (`which` separates the edge bank from the neighbor bank).
fn shared_fingerprint_base(seed: u64, which: u64) -> u64 {
    let rng = CounterRng::new(seed, streams::DYNAMIC_FINGERPRINT);
    2 + rng.draw(which, 0) % (MERSENNE_PRIME - 2)
}

/// The counter-mode degree-proportional instance picks over `R`: `inner`
/// positions of `degrees`, each drawn with probability `d_p / d_R`, by the
/// configured rule. Exposed so tests can hold the `O(r · inner)`
/// [`CounterSelection::PrioritySweep`] against the `O(inner · log r)`
/// [`CounterSelection::PrefixCdf`] as a distributional oracle: both are
/// weight-proportional, deterministic pure functions of `(seed, degrees)`.
/// Positions with zero degree are never picked; selection stops early only
/// when every degree is zero (the estimator rejects that stream earlier).
pub fn counter_instance_picks(
    selection: CounterSelection,
    seed: u64,
    degrees: &[u64],
    inner: usize,
) -> Vec<usize> {
    let r = degrees.len();
    let mut picks: Vec<usize> = Vec::with_capacity(inner);
    match selection {
        CounterSelection::PrioritySweep => {
            // The position-keyed WeightedPickCell rule: instance i keeps
            // the position p of R maximizing the Efraimidis–Spirakis
            // priority of hash(seed, tag, p, i) with weight d_p — O(r) per
            // instance.
            let inst_rng = CounterRng::new(seed, streams::DYNAMIC_INSTANCES);
            for i in 0..inner {
                let mut cell = WeightedPickCell::empty();
                for (p, &d) in degrees.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    let unit = inst_rng.unit(p as u64, i as u64);
                    cell.offer(
                        WeightedPickCell::priority_of(unit, d as f64),
                        p as u64,
                        p as u64,
                    );
                }
                let Some(pick) = cell.value() else {
                    break; // every degree is zero
                };
                picks.push(pick as usize);
            }
        }
        CounterSelection::PrefixCdf => {
            // Prefix-sum inverse CDF over the position-keyed uniforms:
            // pick i inverts one uniform hash(seed, tag, i) through the
            // cumulative degree weights — O(log r) per instance, the same
            // weight-proportional distribution as the sweep.
            let cumulative: Vec<f64> = degrees
                .iter()
                .scan(0.0, |acc, &d| {
                    *acc += d as f64;
                    Some(*acc)
                })
                .collect();
            let total_weight = *cumulative.last().unwrap_or(&0.0);
            let cdf_rng = CounterRng::new(seed, streams::DYNAMIC_INSTANCES_CDF);
            for i in 0..inner {
                if total_weight <= 0.0 {
                    break;
                }
                let target = cdf_rng.unit(i as u64, 0) * total_weight;
                // A zero-degree position never owns a CDF interval: the
                // partition point lands on the next position with weight
                // (ties resolve rightward past empty intervals).
                picks.push(cumulative.partition_point(|&c| c <= target).min(r - 1));
            }
        }
    }
    picks
}

/// The opaque per-pass fold accumulator of a [`DynamicCopyStages`] copy.
#[derive(Debug)]
pub struct DynamicStageAcc {
    acc: DynAcc,
    /// Observation-only fold counters (updates delivered, probe hits,
    /// sketch updates applied); merged across shards in
    /// [`DynamicCopyStages::finish_pass`] and surfaced via
    /// [`DynamicCopyStages::pass_tallies`].
    tally: PassTally,
}

#[derive(Debug)]
enum DynAcc {
    /// Pass 1: the lane-batched ℓ0 edge-sampler bank, the net edge count,
    /// and the per-chunk prepared-update scratch.
    Edges {
        bank: L0Bank,
        net: i64,
        prep: Vec<SketchUpdate>,
    },
    /// Pass 2: signed degree counters over the tracked endpoints.
    Degrees(Vec<i64>),
    /// Pass 3: the per-instance ℓ0 neighbor-sampler bank, flattened.
    Neighbors(L0Bank),
    /// Pass 4: signed counters over the distinct closure queries.
    Closure(Vec<i64>),
}

/// One counter-mode copy of the turnstile estimator as a resumable
/// four-pass stage pipeline (see the module docs).
#[derive(Debug)]
pub struct DynamicCopyStages {
    config: DynamicEstimatorConfig,
    seed: u64,
    n: usize,
    pass: usize,
    pass_nanos: [u64; 4],
    pass_tallies: [PassTally; 4],
    meter: SpaceMeter,
    edge_base: u64,
    neighbor_base: u64,
    edge_bank: L0Bank,
    r_edges: Vec<Edge>,
    m_net: usize,
    endpoints: Vec<u32>,
    endpoint_degree: Vec<i64>,
    degrees: Vec<u64>,
    d_r: u64,
    instances: Vec<Instance>,
    neighbor_bank: L0Bank,
    bases: Vec<u32>,
    list_starts: Vec<usize>,
    list_ids: Vec<usize>,
    queries: Vec<Option<u64>>,
    query_keys: Vec<u64>,
    outcome: Option<DynamicCopyOutcome>,
}

impl DynamicCopyStages {
    /// Total passes a copy makes over the update stream.
    pub const PASSES: u32 = 4;

    /// The copy-derived seed, doubling as the copy's stable fault-injection
    /// key: identical across the fused, per-copy, and sharded tiers, so a
    /// [`faults::FaultPlan`] targets the same logical copy on every
    /// execution path.
    pub fn fault_seed(&self) -> u64 {
        self.seed
    }

    /// Prepares one copy over a stream of `num_updates` updates and `n`
    /// vertices with the given (already copy-derived) seed.
    pub fn new(
        config: &DynamicEstimatorConfig,
        num_updates: usize,
        n: usize,
        seed: u64,
    ) -> Result<Self> {
        config.validate()?;
        if num_updates == 0 {
            return Err(DynamicError::EmptyStream);
        }
        let r_target = config.derive_r(num_updates);
        let edge_universe = (n as u64).saturating_mul(n as u64).max(4);
        let edge_base = shared_fingerprint_base(seed, 0);
        // Sampler k of the bank is a pure function of (seed, stream tag,
        // k); the whole bank shares one fingerprint base so `z^edge` is
        // computed once per update.
        let seeder = CounterRng::new(seed, streams::DYNAMIC_EDGE_SAMPLER);
        let edge_templates: Vec<L0Sampler> = (0..r_target)
            .map(|k| {
                let mut sampler_rng = StdRng::seed_from_u64(seeder.draw(k as u64, 0));
                L0Sampler::for_universe_with_base(edge_universe, edge_base, &mut sampler_rng)
            })
            .collect();
        // Flatten the bank once; every pass-1 accumulator clones the flat
        // arrays instead of a forest of per-sampler allocations.
        let edge_bank = L0Bank::from_samplers(edge_templates);
        Ok(DynamicCopyStages {
            config: config.clone(),
            seed,
            n,
            pass: 0,
            pass_nanos: [0; 4],
            pass_tallies: [PassTally::default(); 4],
            meter: SpaceMeter::new(),
            edge_base,
            neighbor_base: shared_fingerprint_base(seed, 1),
            edge_bank,
            r_edges: Vec::new(),
            m_net: 0,
            endpoints: Vec::new(),
            endpoint_degree: Vec::new(),
            degrees: Vec::new(),
            d_r: 0,
            instances: Vec::new(),
            neighbor_bank: L0Bank::from_samplers(Vec::new()),
            bases: Vec::new(),
            list_starts: Vec::new(),
            list_ids: Vec::new(),
            queries: Vec::new(),
            query_keys: Vec::new(),
            outcome: None,
        })
    }

    /// Index of the pass awaiting execution (0-based).
    pub fn pass_index(&self) -> usize {
        self.pass
    }

    /// Whether all four passes have completed.
    pub fn finished(&self) -> bool {
        self.pass >= 4
    }

    /// Stable names of the four passes, in execution order (the keys the
    /// bench JSON and [`RunReport`](degentri_obs::RunReport) use).
    pub const PASS_NAMES: [&'static str; 4] = [
        "u1_l0_edge_sample",
        "u2_degrees",
        "u3_l0_neighbor_sample",
        "u4_closure",
    ];

    /// Records the wall-clock time of the pass that just finished —
    /// the turnstile analogue of
    /// [`MainCopyStages::set_pass_nanos`](degentri_core::MainCopyStages::set_pass_nanos),
    /// surfaced through [`DynamicCopyOutcome::pass_nanos`].
    pub fn set_pass_nanos(&mut self, pass: usize, nanos: u64) {
        if pass < 4 {
            self.pass_nanos[pass] = nanos;
        }
    }

    /// Fold-loop tallies of the completed passes (zeroed for passes not
    /// yet run), merged across shards in finish order.
    pub fn pass_tallies(&self) -> &[PassTally; 4] {
        &self.pass_tallies
    }

    /// A fresh accumulator for the current pass (one per shard). Pass 1
    /// and pass 3 clone the configured sketch banks — sketches are linear,
    /// so per-shard clones merged in shard order equal one bank that saw
    /// the whole stream.
    pub fn begin_pass(&self) -> DynamicStageAcc {
        debug_assert!(!self.finished(), "begin_pass after the fourth pass");
        let acc = match self.pass {
            0 => DynAcc::Edges {
                bank: self.edge_bank.clone(),
                net: 0,
                prep: Vec::new(),
            },
            1 => DynAcc::Degrees(vec![0; self.endpoints.len()]),
            2 => DynAcc::Neighbors(self.neighbor_bank.clone()),
            _ => DynAcc::Closure(vec![0; self.query_keys.len()]),
        };
        DynamicStageAcc {
            acc,
            tally: PassTally::default(),
        }
    }

    /// Folds one chunk of the update snapshot into `acc`. Every fold is a
    /// linear function of the update multiset, so chunking and sharding
    /// never change the merged result.
    ///
    /// The sketch passes run their banks through the lane-batched
    /// [`L0Bank`] kernels; [`fold_scalar`](Self::fold_scalar) is the
    /// sampler-by-sampler reference producing bit-identical accumulators.
    pub fn fold(&self, acc: &mut DynamicStageAcc, _pos: u64, chunk: &[EdgeUpdate]) {
        if faults::ENABLED {
            faults::probe(faults::FaultSite::BankFold, self.seed);
        }
        acc.tally.items += chunk.len() as u64;
        match &mut acc.acc {
            DynAcc::Edges { bank, net, prep } => {
                // Prepare the chunk once (one tabulated exponentiation per
                // update for the whole bank), then run the bank's batched
                // kernel over each prepared update.
                prep.clear();
                for update in chunk {
                    *net += update.delta();
                    prep.push(bank.prepare(update.edge.key(), update.delta()));
                }
                bank.apply_batch(prep);
                // Every prepared update hit every sampler of the bank, as
                // one bank-wide kernel invocation each.
                acc.tally.updates += (chunk.len() * bank.samplers()) as u64;
                acc.tally.kernel_batches += chunk.len() as u64;
            }
            DynAcc::Degrees(deg) => {
                for update in chunk {
                    let delta = update.delta();
                    if let Ok(slot) = self.endpoints.binary_search(&update.edge.u().raw()) {
                        deg[slot] += delta;
                        acc.tally.hits += 1;
                    }
                    if let Ok(slot) = self.endpoints.binary_search(&update.edge.v().raw()) {
                        deg[slot] += delta;
                        acc.tally.hits += 1;
                    }
                }
            }
            DynAcc::Neighbors(bank) => {
                for update in chunk {
                    let delta = update.delta();
                    for endpoint in [update.edge.u(), update.edge.v()] {
                        if let Ok(b) = self.bases.binary_search(&endpoint.raw()) {
                            acc.tally.hits += 1;
                            let candidate = update
                                .edge
                                .other(endpoint)
                                .expect("endpoint belongs to edge")
                                .index() as u64;
                            let prepared = bank.prepare(candidate, delta);
                            for &i in &self.list_ids[self.list_starts[b]..self.list_starts[b + 1]] {
                                bank.apply_one(i, &prepared);
                                acc.tally.updates += 1;
                            }
                        }
                    }
                }
            }
            DynAcc::Closure(counts) => {
                for update in chunk {
                    if let Ok(q) = self.query_keys.binary_search(&update.edge.key()) {
                        counts[q] += update.delta();
                        acc.tally.hits += 1;
                    }
                }
            }
        }
    }

    /// The scalar reference fold: identical to [`fold`](Self::fold) except
    /// that the pass-1 bank processes the chunk sampler-outermost through
    /// [`L0Bank::apply_batch_scalar`] and updates are prepared by the
    /// square-and-multiply ladder. Accumulator state is bit-identical to
    /// the batched kernel's (only the `kernel_batches` tally differs —
    /// this path reports none); kept for the parity tests and as the
    /// baseline the bench's kernel-attribution gate measures against.
    pub fn fold_scalar(&self, acc: &mut DynamicStageAcc, _pos: u64, chunk: &[EdgeUpdate]) {
        if let DynAcc::Edges { bank, net, prep } = &mut acc.acc {
            acc.tally.items += chunk.len() as u64;
            prep.clear();
            for update in chunk {
                *net += update.delta();
                prep.push(SketchUpdate::prepare(
                    self.edge_base,
                    update.edge.key(),
                    update.delta(),
                ));
            }
            bank.apply_batch_scalar(prep);
            acc.tally.updates += (chunk.len() * bank.samplers()) as u64;
            return;
        }
        self.fold(acc, _pos, chunk);
    }

    /// Consumes the pass's per-shard accumulators in shard order, merges
    /// them, performs the between-pass bookkeeping, and arms the next
    /// pass. Passes 1 and 2 can fail with
    /// [`DynamicError::EmptySurvivingGraph`] exactly like the monolithic
    /// estimator.
    pub fn finish_pass(&mut self, accs: Vec<DynamicStageAcc>) -> Result<()> {
        debug_assert!(!self.finished(), "finish_pass after the fourth pass");
        if faults::ENABLED && faults::injected(faults::FaultSite::DynamicFinish, self.seed) {
            return Err(DynamicError::Injected {
                site: faults::FaultSite::DynamicFinish,
            });
        }
        let mut tally = PassTally::default();
        for acc in &accs {
            tally.merge(acc.tally);
        }
        self.pass_tallies[self.pass] = tally;
        match self.pass {
            0 => self.finish_edges(accs)?,
            1 => self.finish_degrees(accs)?,
            2 => self.finish_neighbors(accs),
            3 => self.finish_closure(accs),
            _ => unreachable!(),
        }
        self.pass += 1;
        Ok(())
    }

    /// The finished outcome (valid once [`finished`](Self::finished)).
    pub fn finish(self) -> Result<DynamicCopyOutcome> {
        debug_assert!(self.finished(), "finish before the fourth pass completed");
        // The last pass's wall time is recorded by the driver *after*
        // finish_pass built the outcome, so refresh the timings here.
        let pass_nanos = self.pass_nanos;
        self.outcome
            .map(|mut outcome| {
                outcome.pass_nanos = pass_nanos;
                outcome
            })
            .ok_or_else(|| DynamicError::invalid_parameter("stage pipeline did not complete"))
    }

    // ---- per-pass finish steps -----------------------------------------

    fn finish_edges(&mut self, accs: Vec<DynamicStageAcc>) -> Result<()> {
        let mut accs = accs.into_iter();
        let Some(DynamicStageAcc {
            acc:
                DynAcc::Edges {
                    bank: mut merged,
                    net: mut net_edges,
                    ..
                },
            ..
        }) = accs.next()
        else {
            unreachable!("pass-1 accumulator");
        };
        for acc in accs {
            let DynAcc::Edges { bank, net, .. } = acc.acc else {
                unreachable!("pass-1 accumulator");
            };
            net_edges += net;
            merged.merge(&bank);
        }
        self.meter.charge(merged.retained_words() + 1);
        if net_edges < 0 {
            // More deletes than inserts: no graph realizes the stream —
            // distinct from the legal (if fruitless) fully-deleted case.
            return Err(DynamicError::DeletesExceedInserts { net: net_edges });
        }
        if net_edges == 0 {
            return Err(DynamicError::EmptySurvivingGraph);
        }
        self.m_net = net_edges as usize;
        // Draw R from the samplers (each contributes at most one edge).
        self.r_edges = (0..merged.samplers())
            .filter_map(|s| merged.sample(s))
            .filter(|&(_, count)| count > 0)
            .map(|(idx, _)| Edge::from_key(idx))
            .collect();
        if self.r_edges.is_empty() {
            return Err(DynamicError::EmptySurvivingGraph);
        }
        // Arm pass 2: the tracked endpoints in one sorted slot table.
        self.endpoints = self
            .r_edges
            .iter()
            .flat_map(|e| [e.u().raw(), e.v().raw()])
            .collect();
        self.endpoints.sort_unstable();
        self.endpoints.dedup();
        self.meter.charge(self.endpoints.len() as u64);
        Ok(())
    }

    fn finish_degrees(&mut self, accs: Vec<DynamicStageAcc>) -> Result<()> {
        let mut accs = accs.into_iter();
        let Some(DynamicStageAcc {
            acc: DynAcc::Degrees(mut deg),
            ..
        }) = accs.next()
        else {
            unreachable!("pass-2 accumulator");
        };
        for acc in accs {
            let DynAcc::Degrees(other) = acc.acc else {
                unreachable!("pass-2 accumulator");
            };
            for (total, d) in deg.iter_mut().zip(other) {
                *total += d;
            }
        }
        self.endpoint_degree = deg;
        let degree_of = |v: VertexId| -> u64 {
            self.endpoints
                .binary_search(&v.raw())
                .ok()
                .map(|slot| self.endpoint_degree[slot].max(0) as u64)
                .unwrap_or(0)
        };
        self.degrees = self
            .r_edges
            .iter()
            .map(|e| degree_of(e.u()).min(degree_of(e.v())))
            .collect();
        self.d_r = self.degrees.iter().sum();
        self.meter.charge(self.r_edges.len() as u64);
        if self.d_r == 0 {
            return Err(DynamicError::EmptySurvivingGraph);
        }

        // Instance selection (offline, between passes): degree-proportional
        // picks from R, by the rule the configuration selects.
        let r = self.r_edges.len();
        let inner = self.config.derive_inner(self.m_net, r, self.d_r);
        let split_edge = |edge: Edge| {
            if degree_of(edge.u()) <= degree_of(edge.v()) {
                (edge.u(), edge.v())
            } else {
                (edge.v(), edge.u())
            }
        };
        let picks = counter_instance_picks(
            self.config.counter_selection,
            self.seed,
            &self.degrees,
            inner,
        );
        let seeder = CounterRng::new(self.seed, streams::DYNAMIC_NEIGHBOR_SAMPLER);
        self.instances = Vec::with_capacity(picks.len());
        let mut neighbor_templates: Vec<L0Sampler> = Vec::with_capacity(picks.len());
        for (i, &pick) in picks.iter().enumerate() {
            let (base, other) = split_edge(self.r_edges[pick]);
            self.instances.push(Instance { base, other });
            let mut sampler_rng = StdRng::seed_from_u64(seeder.draw(i as u64, 0));
            neighbor_templates.push(L0Sampler::for_universe_with_base(
                self.n as u64 + 1,
                self.neighbor_base,
                &mut sampler_rng,
            ));
        }
        self.neighbor_bank = L0Bank::from_samplers(neighbor_templates);

        // Arm pass 3: instances grouped by base vertex in one CSR table
        // (sorted bases + instance-id lists).
        self.bases = self.instances.iter().map(|inst| inst.base.raw()).collect();
        self.bases.sort_unstable();
        self.bases.dedup();
        self.list_starts = vec![0usize; self.bases.len() + 1];
        for inst in &self.instances {
            let b = self
                .bases
                .binary_search(&inst.base.raw())
                .expect("base was interned");
            self.list_starts[b + 1] += 1;
        }
        for b in 0..self.bases.len() {
            self.list_starts[b + 1] += self.list_starts[b];
        }
        self.list_ids = vec![0usize; self.instances.len()];
        let mut cursor = self.list_starts.clone();
        for (i, inst) in self.instances.iter().enumerate() {
            let b = self
                .bases
                .binary_search(&inst.base.raw())
                .expect("base was interned");
            self.list_ids[cursor[b]] = i;
            cursor[b] += 1;
        }
        Ok(())
    }

    fn finish_neighbors(&mut self, accs: Vec<DynamicStageAcc>) {
        let mut accs = accs.into_iter();
        let Some(DynamicStageAcc {
            acc: DynAcc::Neighbors(mut merged),
            ..
        }) = accs.next()
        else {
            unreachable!("pass-3 accumulator");
        };
        for acc in accs {
            let DynAcc::Neighbors(bank) = acc.acc else {
                unreachable!("pass-3 accumulator");
            };
            merged.merge(&bank);
        }
        self.meter
            .charge(merged.retained_words() + 2 * merged.samplers() as u64);
        let neighbors: Vec<Option<VertexId>> = (0..merged.samplers())
            .map(|s| {
                merged
                    .sample(s)
                    .filter(|&(_, count)| count > 0)
                    .map(|(idx, _)| VertexId::new(idx as u32))
            })
            .collect();
        // Arm pass 4: the distinct closure queries in one sorted key table.
        self.queries = self
            .instances
            .iter()
            .zip(&neighbors)
            .map(|(inst, neighbor)| match neighbor {
                Some(w) if *w != inst.other && *w != inst.base => {
                    Some(Edge::new(inst.other, *w).key())
                }
                _ => None,
            })
            .collect();
        self.query_keys = self.queries.iter().flatten().copied().collect();
        self.query_keys.sort_unstable();
        self.query_keys.dedup();
        self.meter.charge(self.query_keys.len() as u64);
    }

    // ---- cohort union probes -------------------------------------------

    /// Which passes share probe structures across a fused cohort: the two
    /// sorted-table passes (degrees and closure), where N copies' lookups
    /// collapse into one union binary search per update. The sketch passes
    /// (edge and neighbor sampling) stay per-copy — every copy folds its
    /// own bank and shares nothing.
    pub fn shares_probes(pass: usize) -> bool {
        matches!(pass, 1 | 3)
    }

    /// Builds the cohort's shared probe structures for the current pass.
    /// All copies must sit at the same pass index (the fused driver's
    /// lockstep invariant).
    pub fn plan_cohort(copies: &[Self]) -> DynamicCohortPlan {
        let Some(first) = copies.first() else {
            return DynamicCohortPlan {
                kind: DynPlanKind::PerCopy,
            };
        };
        debug_assert!(
            copies.iter().all(|c| c.pass == first.pass),
            "cohort copies must be in pass lockstep"
        );
        let kind = match first.pass {
            1 => DynPlanKind::Degrees(SlotUnion::build(
                copies.iter().map(|c| c.endpoints.as_slice()),
            )),
            3 => DynPlanKind::Closure(SlotUnion::build(
                copies.iter().map(|c| c.query_keys.as_slice()),
            )),
            _ => DynPlanKind::PerCopy,
        };
        DynamicCohortPlan { kind }
    }

    /// Folds one chunk into every copy's accumulator through the plan.
    ///
    /// On the sorted-table passes this is the tentpole sharing: **one**
    /// binary search on the union table per update endpoint (or edge key)
    /// fans the hit out to exactly the `(copy, slot)` pairs whose own
    /// table contains the key, so N turnstile copies cost one probe per
    /// item instead of N. The per-copy accumulator updates, tallies and
    /// fault probes are exactly the ones the per-copy folds would have
    /// made, in a commutative order — merged results stay bit-identical.
    /// The sketch passes fall back to the independent per-copy loop.
    pub fn fold_cohort(
        plan: &DynamicCohortPlan,
        copies: &[Self],
        accs: &mut [DynamicStageAcc],
        pos: u64,
        chunk: &[EdgeUpdate],
    ) {
        match &plan.kind {
            DynPlanKind::PerCopy => {
                for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
                    stages.fold(acc, pos, chunk);
                }
            }
            DynPlanKind::Degrees(union) => {
                Self::prefold_shared(copies, accs, chunk);
                for update in chunk {
                    let delta = update.delta();
                    for endpoint in [update.edge.u().raw(), update.edge.v().raw()] {
                        for &(copy, slot) in union.get(endpoint) {
                            let acc = &mut accs[copy as usize];
                            let DynAcc::Degrees(deg) = &mut acc.acc else {
                                unreachable!("pass-2 accumulator");
                            };
                            deg[slot as usize] += delta;
                            acc.tally.hits += 1;
                        }
                    }
                }
            }
            DynPlanKind::Closure(union) => {
                Self::prefold_shared(copies, accs, chunk);
                for update in chunk {
                    let delta = update.delta();
                    for &(copy, slot) in union.get(update.edge.key()) {
                        let acc = &mut accs[copy as usize];
                        let DynAcc::Closure(counts) = &mut acc.acc else {
                            unreachable!("pass-4 accumulator");
                        };
                        counts[slot as usize] += delta;
                        acc.tally.hits += 1;
                    }
                }
            }
        }
    }

    /// The per-copy chunk preamble of a shared union sweep: the same fault
    /// probe and item tally every copy's own [`fold`](Self::fold) would
    /// have issued for this chunk, so fault plans address copies
    /// identically in a shared sweep and in a copy's own fold.
    fn prefold_shared(copies: &[Self], accs: &mut [DynamicStageAcc], chunk: &[EdgeUpdate]) {
        if faults::ENABLED {
            for stages in copies {
                faults::probe(faults::FaultSite::BankFold, stages.seed);
            }
        }
        for acc in accs.iter_mut() {
            acc.tally.items += chunk.len() as u64;
        }
    }

    fn finish_closure(&mut self, accs: Vec<DynamicStageAcc>) {
        let mut accs = accs.into_iter();
        let Some(DynamicStageAcc {
            acc: DynAcc::Closure(mut counts),
            ..
        }) = accs.next()
        else {
            unreachable!("pass-4 accumulator");
        };
        for acc in accs {
            let DynAcc::Closure(other) = acc.acc else {
                unreachable!("pass-4 accumulator");
            };
            for (total, c) in counts.iter_mut().zip(other) {
                *total += c;
            }
        }
        let mut hits = 0u64;
        for key in self.queries.iter().flatten() {
            let q = self
                .query_keys
                .binary_search(key)
                .expect("query key was interned");
            if counts[q] > 0 {
                hits += 1;
            }
        }
        let y = hits as f64 / self.instances.len().max(1) as f64;
        // Incident-triangle estimator: every triangle is counted once per
        // containing edge, hence the division by three.
        let r = self.r_edges.len();
        let estimate = (self.m_net as f64 / r as f64) * self.d_r as f64 * y / 3.0;
        self.outcome = Some(DynamicCopyOutcome {
            estimate,
            space: self.meter.report(),
            triangles_found: hits,
            r,
            inner_samples: self.instances.len(),
            surviving_edges: self.m_net,
            pass_nanos: self.pass_nanos,
            pass_tallies: self.pass_tallies,
        });
    }
}

/// The shared probe structures of one fused cohort of
/// [`DynamicCopyStages`] copies (all at the same pass index), built by
/// [`DynamicCopyStages::plan_cohort`] and consumed by
/// [`DynamicCopyStages::fold_cohort`].
#[derive(Debug)]
pub struct DynamicCohortPlan {
    kind: DynPlanKind,
}

#[derive(Debug)]
enum DynPlanKind {
    /// The sketch passes (ℓ0 edge and neighbor sampling): every copy folds
    /// its own lane-batched bank; nothing to share.
    PerCopy,
    /// The degree pass: union of the copies' sorted endpoint tables.
    Degrees(SlotUnion<u32>),
    /// The closure pass: union of the copies' sorted query-key tables.
    Closure(SlotUnion<u64>),
}

/// A union membership index over many copies' sorted slot tables: one
/// binary search answers "which copies track this key, and under which
/// local slot" — the turnstile twin of the six-pass cohort's `EdgeUnion`.
#[derive(Debug)]
struct SlotUnion<K> {
    keys: Vec<K>,
    offsets: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl<K: Copy + Ord> SlotUnion<K> {
    /// K-way merge of the copies' sorted, deduplicated tables in
    /// `(key, copy)` order — exactly the order a global `(key, copy, slot)`
    /// sort would produce, without the `O(N log N)` pass over the
    /// concatenated tables.
    fn build<'t>(tables: impl Iterator<Item = &'t [K]>) -> Self
    where
        K: 't,
    {
        let tables: Vec<&[K]> = tables.collect();
        let total: usize = tables.iter().map(|t| t.len()).sum();
        let mut heads = vec![0usize; tables.len()];
        // Cached head keys (`None` = exhausted).
        let mut head_keys: Vec<Option<K>> = tables.iter().map(|t| t.first().copied()).collect();
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        let mut entries = Vec::with_capacity(total);
        while let Some(key) = head_keys.iter().flatten().copied().min() {
            keys.push(key);
            // Each copy's table is deduplicated, so a copy contributes at
            // most one `(copy, slot)` entry per union key; copies drain in
            // copy order — the tie order of the sorted triples.
            for (c, table) in tables.iter().enumerate() {
                if head_keys[c] != Some(key) {
                    continue;
                }
                entries.push((c as u32, heads[c] as u32));
                heads[c] += 1;
                head_keys[c] = table.get(heads[c]).copied();
            }
            offsets.push(entries.len() as u32);
        }
        SlotUnion {
            keys,
            offsets,
            entries,
        }
    }

    /// The `(copy, local slot)` pairs tracking `key`, if any.
    #[inline]
    fn get(&self, key: K) -> &[(u32, u32)] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::dynamic_copy_seed;
    use degentri_gen::barabasi_albert;
    use degentri_stream::{DynamicEdgeStream, DynamicMemoryStream};

    fn test_config() -> DynamicEstimatorConfig {
        DynamicEstimatorConfig::new(5, 200)
            .with_epsilon(0.3)
            .with_seed(29)
    }

    fn fresh_copies(
        config: &DynamicEstimatorConfig,
        num_updates: usize,
        n: usize,
        copies: usize,
    ) -> Vec<DynamicCopyStages> {
        (0..copies)
            .map(|c| {
                DynamicCopyStages::new(config, num_updates, n, dynamic_copy_seed(config.seed, c))
                    .expect("copy construction")
            })
            .collect()
    }

    /// Drives a whole cohort to completion. `shards` cuts the snapshot
    /// into contiguous ranges folded into separate accumulators (merged in
    /// shard order); within each shard the updates arrive in ragged
    /// chunks. `fused` folds through the union plan, otherwise through
    /// each copy's own `fold`.
    fn drive(
        copies: &mut [DynamicCopyStages],
        updates: &[EdgeUpdate],
        shards: usize,
        fused: bool,
    ) -> Vec<DynamicCopyOutcome> {
        while !copies[0].finished() {
            let plan = DynamicCopyStages::plan_cohort(copies);
            let mut per_copy_accs: Vec<Vec<DynamicStageAcc>> =
                (0..copies.len()).map(|_| Vec::new()).collect();
            let shard_len = updates.len().div_ceil(shards);
            for shard in updates.chunks(shard_len) {
                let mut accs: Vec<DynamicStageAcc> =
                    copies.iter().map(|c| c.begin_pass()).collect();
                let mut pos = 0u64;
                for chunk in shard.chunks(7) {
                    if fused {
                        DynamicCopyStages::fold_cohort(&plan, copies, &mut accs, pos, chunk);
                    } else {
                        for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
                            stages.fold(acc, pos, chunk);
                        }
                    }
                    pos += chunk.len() as u64;
                }
                for (k, acc) in accs.into_iter().enumerate() {
                    per_copy_accs[k].push(acc);
                }
            }
            for (stages, accs) in copies.iter_mut().zip(per_copy_accs) {
                stages.finish_pass(accs).expect("pass completes");
            }
        }
        copies
            .iter_mut()
            .map(|c| {
                let done = std::mem::replace(
                    c,
                    DynamicCopyStages::new(&test_config(), 1, 4, 0).expect("placeholder"),
                );
                done.finish().expect("outcome")
            })
            .collect()
    }

    #[test]
    fn union_probe_fold_matches_per_copy_folds_bit_for_bit() {
        let g = barabasi_albert(400, 5, 31).unwrap();
        let stream = DynamicMemoryStream::with_churn(&g, 0.5, 17);
        let updates: Vec<EdgeUpdate> = stream.updates().to_vec();
        let config = test_config();
        for copies in [1usize, 3, 5] {
            for shards in [1usize, 2, 3, 8] {
                let mut fused = fresh_copies(&config, updates.len(), stream.num_vertices(), copies);
                let mut reference =
                    fresh_copies(&config, updates.len(), stream.num_vertices(), copies);
                let fused_out = drive(&mut fused, &updates, shards, true);
                let ref_out = drive(&mut reference, &updates, shards, false);
                for (f, r) in fused_out.iter().zip(&ref_out) {
                    assert_eq!(
                        f.estimate.to_bits(),
                        r.estimate.to_bits(),
                        "copies={copies} shards={shards}"
                    );
                    assert_eq!(f.triangles_found, r.triangles_found);
                    assert_eq!(f.r, r.r);
                    assert_eq!(f.inner_samples, r.inner_samples);
                    assert_eq!(f.surviving_edges, r.surviving_edges);
                    assert_eq!(f.space, r.space);
                    assert_eq!(f.pass_tallies, r.pass_tallies);
                }
            }
        }
    }

    #[test]
    fn union_fold_shares_one_probe_per_item() {
        // On the sorted-table passes, the fused fold consults the union
        // table once per update (endpoint pair / edge key) regardless of
        // cohort width — measured here through the per-copy tallies: every
        // copy still observes all items, and its hit count equals its own
        // per-copy fold's (sharing changes the probe count, never the
        // accumulator traffic).
        let g = barabasi_albert(200, 4, 7).unwrap();
        let stream = DynamicMemoryStream::insert_only(&g, 5);
        let updates: Vec<EdgeUpdate> = stream.updates().to_vec();
        let config = test_config();
        let mut cohort = fresh_copies(&config, updates.len(), stream.num_vertices(), 4);
        let out = drive(&mut cohort, &updates, 2, true);
        for o in &out {
            assert_eq!(o.pass_tallies[1].items, updates.len() as u64);
            assert_eq!(o.pass_tallies[3].items, updates.len() as u64);
        }
    }

    #[test]
    fn slot_union_merges_ragged_tables() {
        let a: Vec<u32> = vec![2, 5, 9];
        let b: Vec<u32> = vec![5, 7];
        let c: Vec<u32> = vec![];
        let union = SlotUnion::build([a.as_slice(), b.as_slice(), c.as_slice()].into_iter());
        assert_eq!(union.keys, vec![2, 5, 7, 9]);
        assert_eq!(union.get(2), &[(0, 0)]);
        assert_eq!(union.get(5), &[(0, 1), (1, 0)]);
        assert_eq!(union.get(7), &[(1, 1)]);
        assert_eq!(union.get(9), &[(0, 2)]);
        assert_eq!(union.get(4), &[] as &[(u32, u32)]);
    }
}
