//! The cohort driver: one sweep per pass stage, feeding every in-flight
//! copy — the only way the engine runs an estimator copy.
//!
//! Every estimator exposes its copies as resumable stage objects
//! ([`degentri_core::MainCopyStages`], [`degentri_core::IdealCopyStages`],
//! [`degentri_dynamic::DynamicCopyStages`]): `begin_pass → fold(batch) →
//! finish_pass`. Running copies one after another costs `passes` sweeps
//! *per copy* — with 4+ copies per job the dominant cost is re-streaming
//! the same snapshot slice copy after copy. [`drive_cohort`] inverts the
//! loop nest: each pass stage is **one** sweep over the snapshot that
//! dispatches every copy's fold on each chunk, so snapshot traversal,
//! chunk dispatch and memory bandwidth are paid once per cohort (a chunk
//! is still hot in cache when the second copy folds it), collapsing
//! `passes × copies` sweeps into `passes`. A cohort is homogeneous — one
//! estimator kind — and a single copy (a retry) is a one-member cohort.
//!
//! Results are **bit-identical** to the standalone runners, which drive
//! the same stage objects one copy at a time: the driver calls the same
//! stage methods with the same chunk positions, and every pass's
//! per-shard accumulators merge associatively in shard order — so fusing,
//! sharding and cohort grouping change wall-clock time only (asserted
//! across the full copies × shards × workers sweep in
//! `crates/engine/tests/fused_parity.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use degentri_core::faults;
use degentri_core::{
    IdealCopyStages, IdealStageAcc, MainCohortPlan, MainCohortScratch, MainCopyStages, MainStageAcc,
};
use degentri_dynamic::{DynamicCohortPlan, DynamicCopyStages, DynamicStageAcc};
use degentri_graph::Edge;
use degentri_obs::{Counter, Hist, Recorder, ShardReport, Span};
use degentri_stream::{run_indexed_pool_caught, EdgeUpdate, ShardedSnapshot, StreamStats};

use crate::cancel::CancelToken;
use crate::{EngineError, Result};

/// One pass of a fused cohort as the driver observed it: plan-build and
/// sweep wall times plus the per-shard breakdown, in shard order. Collected
/// only when the recorder is enabled (the vector stays empty under
/// [`degentri_obs::NoopRecorder`]) and assembled into
/// [`degentri_obs::PassReport`]s by the scheduler.
#[derive(Debug, Clone, Default)]
pub(crate) struct PassTrace {
    /// Pass index within the cohort's budget.
    pub pass: usize,
    /// Nanoseconds spent building the cohort's union probe structures.
    pub plan_nanos: u64,
    /// Nanoseconds of the fused sweep (fold + shard merge hand-off).
    pub sweep_nanos: u64,
    /// Per-shard items and busy time; one whole-snapshot shard when the
    /// pass ran copy by copy.
    pub shards: Vec<ShardReport>,
}

/// A copy executable by the fused driver: the engine-facing facade over
/// the estimator crates' stage objects.
pub(crate) trait StagedCopy: Send + Sync + Sized {
    /// The snapshot item type (an edge or a signed update).
    type Item: Copy + Send + Sync;
    /// The opaque per-pass fold accumulator.
    type Acc: Send;
    /// Cohort-level union structures for the current pass (see
    /// [`plan_pass`](StagedCopy::plan_pass)); `()` when the copy type has
    /// no cross-copy probe sharing.
    type Plan: Send + Sync;
    /// Per-sweeping-thread scratch for the cohort fold (hit buffers for
    /// the branchless collect-then-apply fan-out); `()` when the copy type
    /// needs none. The driver allocates one per shard closure and reuses
    /// it across chunks and passes.
    type Scratch: Default + Send;

    fn finished(&self) -> bool;
    fn pass_index(&self) -> usize;
    fn begin_pass(&self) -> Self::Acc;
    fn finish_pass(&mut self, accs: Vec<Self::Acc>) -> Result<()>;
    fn record_pass_nanos(&mut self, pass: usize, nanos: u64);

    /// Builds the cohort's shared probe structures for the current pass.
    /// The default has none.
    fn plan_pass(copies: &[Self]) -> Self::Plan;

    /// Whether the cohort's copies share probe structures through the
    /// plan **on this pass**. When `false`, the unsharded sweep drives the
    /// copies one at a time — begin, fold the whole slice, finish — so
    /// each copy's pass state is freed before the next copy's is built:
    /// the peak working set stays one copy wide and the allocator hands
    /// the next copy the pages the previous one just released. When
    /// `true`, the fused sweep consults the pass's union plan once per
    /// item and fans out to the hitting copies. Bit-identical either way —
    /// independent copies never read each other's state and the folds are
    /// order-insensitive. Pass-dependent because the turnstile copies mix
    /// both shapes: their sorted-table passes share a union key table
    /// while their sketch passes fold private banks.
    fn shares_probes(pass: usize) -> bool {
        let _ = pass;
        true
    }

    /// Copy-interleave granularity for fused sweeps over a slice of
    /// `slice_len` items: the sweep folds this many items into every copy
    /// before moving to the next chunk. Copy types with shared union
    /// probes keep the configured batch (the shared lookups of a chunk
    /// stay cache-hot across copies); copy types whose cohort fold is an
    /// independent per-copy loop override this to the whole slice, so each
    /// copy's sketch working set stays resident instead of every chunk
    /// boundary evicting it with the other copies' state (this matters in
    /// the sharded arm, where copies still fold side by side). Either
    /// granularity is bit-identical — the folds are order-insensitive and
    /// each copy's accumulator sees exactly the same updates.
    fn cohort_batch(batch: usize, slice_len: usize) -> usize {
        let _ = slice_len;
        batch
    }

    /// Folds one chunk into every copy's accumulator through the plan.
    /// The default is the plain per-copy loop; implementations with union
    /// probe structures replace the `copies` independent lookups per item
    /// with one shared lookup that fans out to the hitting copies —
    /// bit-identical, since each copy receives exactly the updates its own
    /// fold would have produced.
    fn fold_cohort(
        plan: &Self::Plan,
        copies: &[Self],
        accs: &mut [Self::Acc],
        scratch: &mut Self::Scratch,
        pos: u64,
        chunk: &[Self::Item],
    );

    /// Folds one chunk into this copy alone — the standalone runners' path,
    /// which the fused fold mirrors bit for bit. The containment fallback uses
    /// it to re-execute a panicked fused sweep copy by copy (sound and
    /// repeatable because folds take `&self` and are deterministic), and
    /// the no-shared-probes serial arm uses it directly.
    fn fold_one(&self, acc: &mut Self::Acc, pos: u64, chunk: &[Self::Item]);
}

impl StagedCopy for MainCopyStages {
    type Item = Edge;
    type Acc = MainStageAcc;
    type Plan = MainCohortPlan;
    type Scratch = MainCohortScratch;

    fn finished(&self) -> bool {
        MainCopyStages::finished(self)
    }

    fn pass_index(&self) -> usize {
        MainCopyStages::pass_index(self)
    }

    fn begin_pass(&self) -> MainStageAcc {
        MainCopyStages::begin_pass(self)
    }

    fn finish_pass(&mut self, accs: Vec<MainStageAcc>) -> Result<()> {
        MainCopyStages::finish_pass(self, accs).map_err(crate::EngineError::from)
    }

    fn record_pass_nanos(&mut self, pass: usize, nanos: u64) {
        MainCopyStages::set_pass_nanos(self, pass, nanos)
    }

    fn plan_pass(copies: &[Self]) -> MainCohortPlan {
        MainCopyStages::plan_cohort(copies)
    }

    fn fold_cohort(
        plan: &MainCohortPlan,
        copies: &[Self],
        accs: &mut [MainStageAcc],
        scratch: &mut MainCohortScratch,
        pos: u64,
        chunk: &[Edge],
    ) {
        MainCopyStages::fold_cohort(plan, copies, accs, scratch, pos, chunk)
    }

    fn fold_one(&self, acc: &mut MainStageAcc, pos: u64, chunk: &[Edge]) {
        MainCopyStages::fold(self, acc, pos, chunk)
    }
}

impl StagedCopy for DynamicCopyStages {
    type Item = EdgeUpdate;
    type Acc = DynamicStageAcc;
    type Plan = DynamicCohortPlan;
    type Scratch = ();

    fn finished(&self) -> bool {
        DynamicCopyStages::finished(self)
    }

    fn pass_index(&self) -> usize {
        DynamicCopyStages::pass_index(self)
    }

    fn begin_pass(&self) -> DynamicStageAcc {
        DynamicCopyStages::begin_pass(self)
    }

    fn finish_pass(&mut self, accs: Vec<DynamicStageAcc>) -> Result<()> {
        DynamicCopyStages::finish_pass(self, accs).map_err(crate::EngineError::from)
    }

    fn record_pass_nanos(&mut self, pass: usize, nanos: u64) {
        DynamicCopyStages::set_pass_nanos(self, pass, nanos)
    }

    fn plan_pass(copies: &[Self]) -> DynamicCohortPlan {
        DynamicCopyStages::plan_cohort(copies)
    }

    fn shares_probes(pass: usize) -> bool {
        // The sorted-table passes (degrees, closure) fuse N copies'
        // lookups into one union binary search per update; the ℓ0 sketch
        // passes keep private banks per copy.
        DynamicCopyStages::shares_probes(pass)
    }

    fn cohort_batch(_batch: usize, slice_len: usize) -> usize {
        // On the sketch passes the cohort fold is an independent per-copy
        // loop, so chunk-interleaving the copies only evicts each bank's
        // sketch and touch-cache working set at every chunk boundary; on
        // the union passes the fold walks the chunk once for the whole
        // cohort, so granularity is cache-neutral. Whole-slice chunks are
        // right (or neutral) for every pass.
        slice_len
    }

    fn fold_cohort(
        plan: &DynamicCohortPlan,
        copies: &[Self],
        accs: &mut [DynamicStageAcc],
        _scratch: &mut (),
        pos: u64,
        chunk: &[EdgeUpdate],
    ) {
        DynamicCopyStages::fold_cohort(plan, copies, accs, pos, chunk)
    }

    fn fold_one(&self, acc: &mut DynamicStageAcc, pos: u64, chunk: &[EdgeUpdate]) {
        DynamicCopyStages::fold(self, acc, pos, chunk)
    }
}

/// One ideal-estimator copy as a cohort member: the 3-pass stage object
/// over the run's shared degree table. No cross-member probe structures
/// exist (`Plan = ()`), but the members still share the sweep —
/// `shares_probes` stays `true` so the driver feeds them all from one
/// traversal.
impl<'o> StagedCopy for IdealCopyStages<'o, StreamStats> {
    type Item = Edge;
    type Acc = IdealStageAcc;
    type Plan = ();
    type Scratch = ();

    fn finished(&self) -> bool {
        IdealCopyStages::finished(self)
    }

    fn pass_index(&self) -> usize {
        IdealCopyStages::pass_index(self)
    }

    fn begin_pass(&self) -> IdealStageAcc {
        IdealCopyStages::begin_pass(self)
    }

    fn finish_pass(&mut self, accs: Vec<IdealStageAcc>) -> Result<()> {
        IdealCopyStages::finish_pass(self, accs).map_err(crate::EngineError::from)
    }

    fn record_pass_nanos(&mut self, pass: usize, nanos: u64) {
        IdealCopyStages::set_pass_nanos(self, pass, nanos)
    }

    fn plan_pass(_copies: &[Self]) -> Self::Plan {}

    fn fold_cohort(
        _plan: &(),
        copies: &[Self],
        accs: &mut [IdealStageAcc],
        _scratch: &mut (),
        pos: u64,
        chunk: &[Edge],
    ) {
        for (stages, acc) in copies.iter().zip(accs.iter_mut()) {
            stages.fold(acc, pos, chunk);
        }
    }

    fn fold_one(&self, acc: &mut IdealStageAcc, pos: u64, chunk: &[Edge]) {
        IdealCopyStages::fold(self, acc, pos, chunk)
    }
}

/// How many shards each sweep worker gets to claim: a few shards per
/// worker smooths out load imbalance from uneven chunk costs without
/// shrinking shards below useful sizes.
pub(crate) const SHARDS_PER_WORKER: usize = 4;

/// Re-nests shard-major accumulators (`per_shard[s][k]`) into copy-major
/// (`per_copy[k][s]`), preserving shard order within each copy — the
/// order [`StagedCopy::finish_pass`] requires.
fn transpose<T>(per_shard: Vec<Vec<T>>, copies: usize) -> Vec<Vec<T>> {
    let shards = per_shard.len();
    let mut per_copy: Vec<Vec<T>> = (0..copies).map(|_| Vec::with_capacity(shards)).collect();
    for shard_accs in per_shard {
        for (k, acc) in shard_accs.into_iter().enumerate() {
            per_copy[k].push(acc);
        }
    }
    per_copy
}

/// Containment metadata carried alongside each cohort member, index-aligned
/// with the copies vector (the driver evicts both in sync).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CohortMemberMeta {
    /// Index of the job this copy belongs to — containment's default
    /// failure unit: when any copy of a group fails, the whole group is
    /// evicted, unless the member is [`contained`](Self::contained).
    pub group: usize,
    /// The copy's index within its job (per-copy seed index), used by the
    /// scheduler to keep fold-back ordering after evictions.
    pub copy: usize,
    /// Absolute deadline of the copy's job, when it has one.
    pub deadline: Option<Instant>,
    /// The copy's fault-injection key — its per-copy seed, so the same key
    /// addresses the copy at every fault site, in its cohort and in every
    /// retry attempt.
    pub fault_key: u64,
    /// Copy-level containment: when `true` (the member's job has a retry
    /// policy or a degradation-accepting quorum), a fault of this member
    /// evicts **only this member** — recorded in
    /// [`CohortOutcome::copy_failures`] — and its group keeps running.
    /// Deadlines and cancellation stay group-level either way (lockstep
    /// cohort copies are all equally late).
    pub contained: bool,
}

/// What [`drive_cohort`] did: completed sweeps, copies evicted by
/// containment, and the first error of each failed group (in eviction
/// order).
#[derive(Debug, Default)]
pub(crate) struct CohortOutcome {
    /// Completed shared sweeps (aborted sweeps are not counted, keeping
    /// `edges_streamed = sweeps × snapshot_len` an upper bound of what a
    /// cut run actually streamed).
    pub sweeps: u64,
    /// Copies removed from the cohort by evictions (group or copy level).
    pub evicted: usize,
    /// `(group, first error)` per failed group.
    pub failures: Vec<(usize, EngineError)>,
    /// `(group, copy, error)` per contained copy-level eviction: the
    /// member alone left the cohort; its group's survivors kept running
    /// (feeds the scheduler's retry/degradation layer).
    pub copy_failures: Vec<(usize, usize, EngineError)>,
    /// Measured thread-busy nanoseconds of the cohort's sweeps: the sum of
    /// per-shard fold times in the sharded arms, sweep wall time in the
    /// serial arms — the cohort side of the engine's busy-time split.
    pub busy_nanos: u64,
    /// Shards each sharded sweep was cut into: the snapshot partition's
    /// actual count, which is smaller than the requested
    /// `workers × SHARDS_PER_WORKER` on short snapshots, and 1 on one
    /// worker.
    pub shards: usize,
}

/// Whether `group` already failed during the current pass.
fn doomed(failures: &[(usize, EngineError)], group: usize) -> bool {
    failures.iter().any(|(g, _)| *g == group)
}

/// Whether member `k` should skip the rest of the current pass: it failed
/// itself, or a **non-contained** member of its group failed (dooming the
/// whole group). A contained sibling's failure never dooms survivors.
/// `failures` is keyed by member index, valid because evictions only
/// happen at pass boundaries.
fn member_doomed(failures: &[(usize, EngineError)], meta: &[CohortMemberMeta], k: usize) -> bool {
    failures
        .iter()
        .any(|&(j, _)| j == k || (meta[j].group == meta[k].group && !meta[j].contained))
}

/// Evicts the single `(group, copy)` member, recording a copy-level
/// failure. Survivor order is preserved.
fn evict_copy<C>(
    copies: &mut Vec<C>,
    meta: &mut Vec<CohortMemberMeta>,
    outcome: &mut CohortOutcome,
    group: usize,
    copy: usize,
    error: EngineError,
) {
    if let Some(k) = meta
        .iter()
        .position(|mm| mm.group == group && mm.copy == copy)
    {
        copies.remove(k);
        meta.remove(k);
        outcome.evicted += 1;
    }
    outcome.copy_failures.push((group, copy, error));
}

/// Resolves one pass's member-indexed failures into evictions: failures of
/// non-contained members evict their whole group (first error wins);
/// failures of contained members evict just that copy, unless the group
/// was fatally evicted in the same batch. Member indices stay valid until
/// the first eviction, so identities are resolved before any removal.
fn resolve_failures<C>(
    copies: &mut Vec<C>,
    meta: &mut Vec<CohortMemberMeta>,
    outcome: &mut CohortOutcome,
    failures: Vec<(usize, EngineError)>,
) {
    let mut group_fatal: Vec<(usize, EngineError)> = Vec::new();
    let mut copy_level: Vec<(usize, usize, EngineError)> = Vec::new();
    for (k, error) in failures {
        let mm = meta[k];
        if mm.contained {
            copy_level.push((mm.group, mm.copy, error));
        } else if !doomed(&group_fatal, mm.group) {
            group_fatal.push((mm.group, error));
        }
    }
    for (group, error) in group_fatal {
        evict_group(copies, meta, outcome, group, error);
    }
    for (group, copy, error) in copy_level {
        if doomed(&outcome.failures, group) {
            continue;
        }
        evict_copy(copies, meta, outcome, group, copy, error);
    }
}

/// Evicts every copy of `group` from the cohort, recording the group's
/// first error. Survivor order is preserved, so per-job fold-back ordering
/// is unaffected.
fn evict_group<C>(
    copies: &mut Vec<C>,
    meta: &mut Vec<CohortMemberMeta>,
    outcome: &mut CohortOutcome,
    group: usize,
    error: EngineError,
) {
    if !doomed(&outcome.failures, group) {
        outcome.failures.push((group, error));
    }
    let mut k = 0;
    while k < copies.len() {
        if meta[k].group == group {
            copies.remove(k);
            meta.remove(k);
            outcome.evicted += 1;
        } else {
            k += 1;
        }
    }
}

/// Evicts every remaining group with a clone of `error` (cancellation).
fn fail_all<C>(
    copies: &mut Vec<C>,
    meta: &mut Vec<CohortMemberMeta>,
    outcome: &mut CohortOutcome,
    error: &EngineError,
) {
    while let Some(mm) = meta.first() {
        let group = mm.group;
        evict_group(copies, meta, outcome, group, error.clone());
    }
}

/// Executes one copy's pass fold under a panic boundary: begin, fold the
/// whole slice chunk by chunk via [`StagedCopy::fold_one`], return the
/// accumulator (or the panic payload). `AssertUnwindSafe` is sound because
/// folds take `&self` — an unwinding fold cannot tear the copy, only the
/// local accumulator, which is discarded with the `Err`.
fn fold_copy_caught<C: StagedCopy>(
    copy: &C,
    batch: usize,
    items: &[C::Item],
    cancel: &CancelToken,
) -> std::thread::Result<C::Acc> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut acc = copy.begin_pass();
        let chunk_len = C::cohort_batch(batch, items.len()).max(1);
        let mut pos = 0u64;
        for chunk in items.chunks(chunk_len) {
            if cancel.is_cancelled() {
                break;
            }
            copy.fold_one(&mut acc, pos, chunk);
            pos += chunk.len() as u64;
        }
        acc
    }))
}

/// Finishes one copy's pass under a panic boundary. `AssertUnwindSafe` is
/// sound because a panicking `finish_pass` (`&mut self`) may tear the copy,
/// but the caller evicts the copy's whole group on `Err` — the torn state
/// is never observed again.
fn finish_copy_caught<C: StagedCopy>(
    copy: &mut C,
    accs: Vec<C::Acc>,
) -> std::thread::Result<Result<()>> {
    catch_unwind(AssertUnwindSafe(move || copy.finish_pass(accs)))
}

/// Executes one cohort of staged copies over a shared snapshot slice:
/// while any copy has passes left, run **one sweep** that feeds every
/// unfinished copy's fold chunk by chunk — cut into `workers ×`
/// [`SHARDS_PER_WORKER`] contiguous shards run on `workers` threads (the
/// calling thread plus scoped helpers, [`run_indexed_pool_caught`]), or
/// one whole-snapshot shard run inline on one worker. On one worker, passes without shared probes
/// ([`StagedCopy::shares_probes`] = `false`) drive each sweep
/// copy-at-a-time instead, keeping one copy's pass state live at a time.
///
/// ## Failure containment
///
/// Failures are contained at **group** (job) granularity, never at run
/// granularity:
///
/// * A copy that panics or returns an error — in a fold, a `finish_pass`,
///   or an injected pass-boundary fault — evicts its whole group from the
///   cohort: the group's copies leave `copies`/`meta`, the next pass's
///   plan is rebuilt from the survivors only, and the group's first error
///   is reported in the returned [`CohortOutcome`].
/// * Members with [`CohortMemberMeta::contained`] set shrink that unit to
///   the **copy**: only the faulting member is evicted (reported in
///   [`CohortOutcome::copy_failures`]) and its group's survivors keep
///   running in lockstep — eviction removes the member's stage object
///   outright, so a partially-folded pass state can never reach
///   `finish_pass` or the job's aggregate. Deadlines and cancellation
///   remain group-level: lockstep copies are all equally late.
/// * When a **shared** fused sweep panics, the driver cannot tell which
///   copy unwound, so it re-executes the pass copy by copy through
///   [`StagedCopy::fold_one`] under per-copy panic boundaries. This is
///   sound and bit-identical because folds take `&self` and are
///   deterministic — the per-copy path is exactly the reference semantics
///   the fused fold mirrors.
/// * Survivors are **bit-identical** to a run that never contained the
///   failed group: per-copy randomness is position-keyed (counter mode),
///   so a copy's accumulators are a pure function of its own seed and the
///   chunk positions, independent of which other copies share the sweep.
/// * Expired group deadlines evict at pass boundaries
///   ([`EngineError::DeadlineExceeded`] with the completed pass count);
///   a fired [`CancelToken`] fails every remaining group at the next
///   pass/chunk boundary ([`EngineError::Cancelled`]) and aborts the
///   in-flight sweep without counting it.
///
/// All copies of a cohort have the same pass budget, so survivors stay in
/// lockstep and, absent failures, the sweep count equals that budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_cohort<C: StagedCopy, R: Recorder>(
    copies: &mut Vec<C>,
    meta: &mut Vec<CohortMemberMeta>,
    cancel: &CancelToken,
    num_vertices: usize,
    items: &[C::Item],
    batch: usize,
    workers: usize,
    recorder: &R,
    trace: &mut Vec<PassTrace>,
) -> CohortOutcome {
    debug_assert_eq!(copies.len(), meta.len());
    let workers = workers.max(1);
    let batch = batch.max(1);
    let requested = if workers > 1 {
        workers * SHARDS_PER_WORKER
    } else {
        1
    };
    let view: ShardedSnapshot<'_, C::Item> = ShardedSnapshot::new(num_vertices, items, requested);
    let mut outcome = CohortOutcome {
        shards: view.shards(),
        ..CohortOutcome::default()
    };
    // Cohort copies share a pass budget, so they run in lockstep: every
    // sweep advances every surviving copy by one pass.
    while copies.iter().any(|c| !c.finished()) {
        debug_assert!(
            copies.iter().all(|c| !c.finished()),
            "cohort copies run in lockstep"
        );
        let completed = copies[0].pass_index();
        if cancel.is_cancelled() {
            fail_all(
                copies,
                meta,
                &mut outcome,
                &EngineError::Cancelled {
                    completed_passes: completed,
                },
            );
            break;
        }
        // One clock read per pass covers every group's deadline.
        let now = Instant::now();
        let mut expired: Vec<usize> = Vec::new();
        for mm in meta.iter() {
            if mm.deadline.is_some_and(|d| now >= d) && !expired.contains(&mm.group) {
                expired.push(mm.group);
            }
        }
        for group in expired {
            evict_group(
                copies,
                meta,
                &mut outcome,
                group,
                EngineError::DeadlineExceeded {
                    completed_passes: completed,
                },
            );
        }
        if copies.is_empty() {
            break;
        }
        // Pass-boundary fault probes, one per copy, keyed by the copy's
        // seed. An injected panic is contained to the probed copy's group
        // — or to the copy alone when the member opted into copy-level
        // containment.
        if faults::ENABLED {
            let mut hit: Vec<(usize, EngineError)> = Vec::new();
            for (k, mm) in meta.iter().enumerate() {
                let probed = catch_unwind(AssertUnwindSafe(|| {
                    faults::probe(faults::FaultSite::PassBoundary, mm.fault_key)
                }));
                if let Err(payload) = probed {
                    hit.push((k, EngineError::panicked(k, payload)));
                }
            }
            resolve_failures(copies, meta, &mut outcome, hit);
            if copies.is_empty() {
                break;
            }
        }
        let pass = copies[0].pass_index();
        let plan_started = Instant::now();
        let plan = C::plan_pass(copies);
        let plan_nanos = if R::ENABLED {
            plan_started.elapsed().as_nanos() as u64
        } else {
            0
        };
        let started = Instant::now();
        let mut shard_reports: Vec<ShardReport> = Vec::new();
        let mut pass_failures: Vec<(usize, EngineError)> = Vec::new();
        // `None` when the arm finishes copies inline (serial, no shared
        // probes); `Some(per-copy fold results)` otherwise, finished below
        // once the sweep clock stops.
        let mut copy_busy_nanos = 0u64;
        let copy_at_a_time = !C::shares_probes(pass) && workers == 1;
        let per_copy: Option<Vec<std::thread::Result<Vec<C::Acc>>>> = if copy_at_a_time {
            // Independent copies (no shared plan): drive them one at a
            // time — begin, fold the whole slice, finish — so only one
            // copy's pass state is live at once. Each copy's pass time
            // includes its finish, matching the standalone runners' clock.
            for (k, copy) in copies.iter_mut().enumerate() {
                if member_doomed(&pass_failures, meta, k) {
                    continue;
                }
                if cancel.is_cancelled() {
                    break;
                }
                let copy_started = Instant::now();
                match fold_copy_caught(copy, batch, items, cancel) {
                    Err(payload) => pass_failures.push((k, EngineError::panicked(k, payload))),
                    Ok(acc) => {
                        if cancel.is_cancelled() {
                            break;
                        }
                        let copy_pass = copy.pass_index();
                        match finish_copy_caught(copy, vec![acc]) {
                            Ok(Ok(())) => copy.record_pass_nanos(
                                copy_pass,
                                copy_started.elapsed().as_nanos() as u64,
                            ),
                            Ok(Err(e)) => pass_failures.push((k, e)),
                            Err(payload) => {
                                pass_failures.push((k, EngineError::panicked(k, payload)))
                            }
                        }
                    }
                }
                copy_busy_nanos += copy_started.elapsed().as_nanos() as u64;
            }
            None
        } else {
            let copies_ref: &[C] = copies;
            // Each shard folds its slice into fresh accumulators under its
            // own panic boundary and times itself. Any shard panic discards
            // the sweep and drops to the per-copy fallback below, which
            // isolates the unwinding copy. Sound because folds take
            // `&self`: an unwound shard leaves the copies untouched — only
            // its local accumulators (discarded) are torn.
            let results = run_indexed_pool_caught(workers, view.shards(), |s| {
                let shard_started = Instant::now();
                let slice = view.shard(s);
                let mut accs: Vec<C::Acc> = copies_ref.iter().map(|c| c.begin_pass()).collect();
                let mut scratch = C::Scratch::default();
                let mut pos = view.shard_range(s).start as u64;
                let batch = C::cohort_batch(batch, slice.len()).max(1);
                for chunk in slice.chunks(batch) {
                    if cancel.is_cancelled() {
                        break;
                    }
                    C::fold_cohort(&plan, copies_ref, &mut accs, &mut scratch, pos, chunk);
                    pos += chunk.len() as u64;
                }
                (accs, shard_started.elapsed().as_nanos() as u64)
            });
            if results.iter().all(|r| r.is_ok()) {
                let mut per_shard = Vec::with_capacity(results.len());
                for (s, (accs, nanos)) in results.into_iter().flatten().enumerate() {
                    copy_busy_nanos += nanos;
                    if R::ENABLED {
                        shard_reports.push(ShardReport {
                            items: view.shard(s).len() as u64,
                            nanos,
                        });
                    }
                    per_shard.push(accs);
                }
                Some(
                    transpose(per_shard, copies.len())
                        .into_iter()
                        .map(Ok)
                        .collect(),
                )
            } else {
                // The shared sweep panicked somewhere in the cohort fold.
                // Re-execute the pass copy by copy to isolate the unwinding
                // copy; survivors reproduce their fused accumulators bit
                // for bit (deterministic `&self` folds), so containment
                // never perturbs them.
                Some(
                    copies
                        .iter()
                        .map(|c| fold_copy_caught(c, batch, items, cancel).map(|a| vec![a]))
                        .collect(),
                )
            }
        };
        drop(plan);
        let nanos = started.elapsed().as_nanos() as u64;
        if cancel.is_cancelled() {
            // The sweep was aborted at a chunk boundary: evict the members
            // that already failed with their specific errors, then fail the
            // rest as cancelled. The aborted sweep is not counted.
            resolve_failures(copies, meta, &mut outcome, pass_failures);
            fail_all(
                copies,
                meta,
                &mut outcome,
                &EngineError::Cancelled {
                    completed_passes: completed,
                },
            );
            break;
        }
        if let Some(per_copy) = per_copy {
            for (k, result) in per_copy.into_iter().enumerate() {
                if member_doomed(&pass_failures, meta, k) {
                    continue;
                }
                match result {
                    Err(payload) => pass_failures.push((k, EngineError::panicked(k, payload))),
                    Ok(accs) => {
                        let copy_pass = copies[k].pass_index();
                        match finish_copy_caught(&mut copies[k], accs) {
                            Ok(Ok(())) => copies[k].record_pass_nanos(copy_pass, nanos),
                            Ok(Err(e)) => pass_failures.push((k, e)),
                            Err(payload) => {
                                pass_failures.push((k, EngineError::panicked(k, payload)))
                            }
                        }
                    }
                }
            }
        }
        if R::ENABLED {
            if shard_reports.is_empty() {
                // A pass that ran copy by copy (the copy-at-a-time arm or
                // the panic fallback) reports one whole-snapshot shard, so
                // every pass carries at least one.
                shard_reports.push(ShardReport {
                    items: items.len() as u64,
                    nanos,
                });
            }
            recorder.add(0, Counter::SweepsExecuted, 1);
            recorder.span(0, Span::PlanBuild, plan_nanos);
            recorder.span(0, Span::FusedSweep, nanos);
            recorder.observe(0, Hist::PassNanos, nanos);
            for (s, shard) in shard_reports.iter().enumerate() {
                recorder.observe(s, Hist::ShardNanos, shard.nanos);
            }
            trace.push(PassTrace {
                pass,
                plan_nanos,
                sweep_nanos: nanos,
                shards: std::mem::take(&mut shard_reports),
            });
        }
        outcome.sweeps += 1;
        // The sharded and copy-at-a-time arms measured their busy time
        // directly; the per-copy fallback, which re-folds inline, is
        // wall = busy.
        outcome.busy_nanos += if copy_busy_nanos > 0 {
            copy_busy_nanos
        } else {
            nanos
        };
        resolve_failures(copies, meta, &mut outcome, pass_failures);
    }
    outcome
}
