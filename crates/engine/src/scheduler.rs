//! The job scheduler: many estimation jobs over one shared snapshot.
//!
//! [`Engine::submit`] queues jobs (six-pass, ideal and turnstile
//! estimators at any ε/κ/seed); [`Engine::run_snapshot`] executes every
//! queued job over one [`Snapshot`] — the enum unifying insert-only edge
//! slices and turnstile update slices. The typed entry points
//! [`Engine::run`] (edges) and [`Engine::run_dynamic`] (updates) are thin
//! wrappers that borrow the stream's storage as a `Snapshot`
//! (materializing one owned copy for exotic streams that do not expose
//! their storage).
//!
//! Every estimator copy runs through one driver, the fused cohort driver
//! ([`crate::fused`]):
//!
//! * **Cohorts** — each estimator kind forms one homogeneous cohort per
//!   run (six-pass, ideal, turnstile) of stage objects
//!   (`begin_pass → fold → finish_pass`). Each pass stage is **one**
//!   physical sweep over the snapshot that feeds every copy of the cohort
//!   chunk by chunk, so `passes × copies` traversals collapse into
//!   `passes`. With more than one worker the sweep is sharded across
//!   `workers` threads (per-shard accumulators merge in shard order).
//! * **Retries** — a failed copy of a retry-enabled job is rebuilt by the
//!   member constructor cohort formation used and driven again as a
//!   one-member cohort on one worker.
//!
//! The Table-1 baselines have no stage object and are not engine jobs;
//! callers run them directly.
//!
//! Copies use the standalone runners' per-copy seeds ([`main_copy_seed`] /
//! [`ideal_copy_seed`] / [`dynamic_copy_seed`]) and the same stage
//! objects, so every scheduling decision — worker count, sharding, cohort
//! grouping, retries — produces **bit-identical** results; only wall-clock
//! time and the physical sweep count ([`EngineStats::sweeps_executed`])
//! change.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use degentri_core::faults;
use degentri_core::{
    ideal_copy_seed, main_copy_seed, validate_edges, CopyContribution, EstimatorError,
    IdealCopyStages, MainCopyStages,
};
use degentri_dynamic::{
    aggregate_dynamic_copies, dynamic_copy_seed, validate_updates, DynamicCopyOutcome,
    DynamicCopyStages, DynamicError,
};
use degentri_graph::Edge;
use degentri_obs::{
    CohortReport, Counter, Hist, JobReport, MetricsRecorder, NoopRecorder, PassReport, PassTally,
    Recorder, RunReport, Span,
};
use degentri_stream::{
    DynamicEdgeStream, EdgeStream, EdgeUpdate, ShardedStream, Snapshot, StreamStats,
};

use crate::cancel::CancelToken;
use crate::config::EngineConfig;
use crate::fused::{
    drive_cohort, CohortMemberMeta, CohortOutcome, PassTrace, StagedCopy, SHARDS_PER_WORKER,
};
use crate::job::{
    dynamic_estimation, Degradation, JobKind, JobOutput, JobResult, JobSpec, RetryPolicy,
};
use crate::stats::{EngineStats, RecoveryTotals};
use crate::{EngineError, Result};

/// A parallel, batched estimation engine over a shared stream snapshot.
///
/// ```
/// use degentri_core::EstimatorConfig;
/// use degentri_engine::{Engine, EngineConfig, JobSpec};
/// use degentri_stream::{MemoryStream, StreamOrder};
///
/// let graph = degentri_gen::wheel(400).unwrap();
/// let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
/// let config = EstimatorConfig::builder()
///     .kappa(3)
///     .triangle_lower_bound(399)
///     .copies(4)
///     .try_build()
///     .unwrap();
/// let mut engine = Engine::new(EngineConfig::with_workers(2));
/// engine.submit(JobSpec::main("wheel", config));
/// let report = engine.run(&stream).unwrap();
/// assert_eq!(report.jobs[0].estimation().copies, 4);
/// // The four copies shared one fused sweep per pass: six sweeps, not 24.
/// assert_eq!(report.stats.sweeps_executed, 6);
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    jobs: Vec<JobSpec>,
    /// Submission instants, parallel to `jobs` — the queue end of the
    /// per-job queue-to-completion latency reported when recording is on.
    submitted: Vec<Instant>,
    /// Cooperative cancellation flag shared with
    /// [`Engine::cancel_token`] holders; checked at pass/chunk/task
    /// boundaries during runs.
    cancel: CancelToken,
}

/// Everything one engine run produced: per-job results in submission order
/// plus engine-level statistics.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-job results, in submission order.
    pub jobs: Vec<JobResult>,
    /// Engine-level throughput statistics for the whole run.
    pub stats: EngineStats,
    /// The hierarchical run → cohort → pass → shard breakdown, present
    /// when [`EngineConfig::recording`] was on for the run (`None`
    /// otherwise — the instrumentation compiles to nothing).
    pub run_report: Option<RunReport>,
}

/// Per-job bookkeeping of one run, filled by the cohorts and the retry
/// layer, and drained into the [`JobResult`]s.
struct Ledger {
    /// First job-level error (deterministic order: later errors for the
    /// same job are dropped).
    job_errors: Vec<Option<EngineError>>,
    /// Contained jobs' per-copy errors (`(copy, error)`), feeding the
    /// retry layer and then the quorum-governed degraded assembly.
    copy_errors: Vec<Vec<(usize, EngineError)>>,
    /// Finished six-pass and ideal copies, keyed by copy index.
    contributions: Vec<Vec<(usize, CopyContribution)>>,
    /// Finished turnstile copies, keyed by copy index.
    dyn_contributions: Vec<Vec<(usize, DynamicCopyOutcome)>>,
    busy: Vec<Duration>,
    tasks: Vec<usize>,
}

impl Ledger {
    fn new(jobs: usize) -> Self {
        Ledger {
            job_errors: vec![None; jobs],
            copy_errors: (0..jobs).map(|_| Vec::new()).collect(),
            contributions: (0..jobs).map(|_| Vec::new()).collect(),
            dyn_contributions: (0..jobs).map(|_| Vec::new()).collect(),
            busy: vec![Duration::ZERO; jobs],
            tasks: vec![0; jobs],
        }
    }
}

/// Records a job's **first** error (deterministic order: later errors for
/// the same job are dropped).
fn fail_job(errors: &mut [Option<EngineError>], job: usize, error: EngineError) {
    if errors[job].is_none() {
        errors[job] = Some(error);
    }
}

/// The typed error of an injected task-start fault on a six-pass or ideal
/// copy.
fn estimator_task_start_error() -> EngineError {
    EngineError::Estimator(EstimatorError::Injected {
        site: faults::FaultSite::TaskStart,
    })
}

/// What the scheduler needs of one estimator kind beyond driving it: how
/// a finished copy reports, where its result goes, and how the kind's
/// cohort is labelled.
trait CopyKind: StagedCopy {
    /// A finished copy's contribution to its job's aggregate.
    type Output;
    /// The cohort's [`CohortReport`] label.
    const LABEL: &'static str;
    /// The stable pass names the cohort's [`PassReport`]s carry.
    const PASS_NAMES: &'static [&'static str];

    /// Consumes a copy whose passes are done into its contribution.
    fn finish_copy(self) -> Result<Self::Output>;

    /// The copy's per-pass fold tallies (empty when the kind keeps none).
    fn tallies(&self) -> &[PassTally] {
        &[]
    }

    /// The typed error of an injected task-start fault.
    fn task_start_error() -> EngineError;

    /// The ledger column holding this kind's finished copies.
    fn results(ledger: &mut Ledger) -> &mut [Vec<(usize, Self::Output)>];
}

impl CopyKind for MainCopyStages {
    type Output = CopyContribution;
    const LABEL: &'static str = "six-pass";
    const PASS_NAMES: &'static [&'static str] = &MainCopyStages::PASS_NAMES;

    fn finish_copy(self) -> Result<CopyContribution> {
        Ok(CopyContribution::from(&self.finish()?))
    }

    fn tallies(&self) -> &[PassTally] {
        self.pass_tallies()
    }

    fn task_start_error() -> EngineError {
        estimator_task_start_error()
    }

    fn results(ledger: &mut Ledger) -> &mut [Vec<(usize, CopyContribution)>] {
        &mut ledger.contributions
    }
}

impl CopyKind for IdealCopyStages<'_, StreamStats> {
    type Output = CopyContribution;
    const LABEL: &'static str = "three-pass";
    const PASS_NAMES: &'static [&'static str] = &IdealCopyStages::<StreamStats>::PASS_NAMES;

    fn finish_copy(self) -> Result<CopyContribution> {
        Ok(CopyContribution::from(&self.finish()?))
    }

    fn task_start_error() -> EngineError {
        estimator_task_start_error()
    }

    fn results(ledger: &mut Ledger) -> &mut [Vec<(usize, CopyContribution)>] {
        &mut ledger.contributions
    }
}

impl CopyKind for DynamicCopyStages {
    type Output = DynamicCopyOutcome;
    const LABEL: &'static str = "turnstile";
    const PASS_NAMES: &'static [&'static str] = &DynamicCopyStages::PASS_NAMES;

    fn finish_copy(self) -> Result<DynamicCopyOutcome> {
        Ok(self.finish()?)
    }

    fn tallies(&self) -> &[PassTally] {
        self.pass_tallies()
    }

    fn task_start_error() -> EngineError {
        EngineError::Dynamic(DynamicError::Injected {
            site: faults::FaultSite::TaskStart,
        })
    }

    fn results(ledger: &mut Ledger) -> &mut [Vec<(usize, DynamicCopyOutcome)>] {
        &mut ledger.dyn_contributions
    }
}

/// The one member constructor of a run: cohort formation and the retry
/// layer both build copy `copy` of job `job` here, so a retried copy is
/// exactly the copy that failed — same seed, same fault key, same
/// deadline and containment.
struct Members<'a> {
    jobs: &'a [JobSpec],
    deadline_at: &'a [Option<Instant>],
    contained: &'a [bool],
    num_vertices: usize,
    edge_count: usize,
    update_count: usize,
    stats: Option<&'a StreamStats>,
}

impl<'a> Members<'a> {
    /// The member metadata; `fault_key` is the copy's per-copy seed, the
    /// key that addresses the copy at every fault site on every path.
    fn meta(&self, job: usize, copy: usize, fault_key: u64) -> CohortMemberMeta {
        CohortMemberMeta {
            group: job,
            copy,
            deadline: self.deadline_at[job],
            fault_key,
            contained: self.contained[job],
        }
    }

    fn main(&self, job: usize, copy: usize) -> Result<(MainCopyStages, CohortMemberMeta)> {
        let config = self.jobs[job].kind.config().expect("main job has a config");
        let seed = main_copy_seed(config.seed, copy);
        let stages = MainCopyStages::new(config, self.edge_count, self.num_vertices, seed)?;
        Ok((stages, self.meta(job, copy, seed)))
    }

    fn ideal(
        &self,
        job: usize,
        copy: usize,
    ) -> Result<(IdealCopyStages<'a, StreamStats>, CohortMemberMeta)> {
        let config = self.jobs[job]
            .kind
            .config()
            .expect("ideal job has a config");
        let stats = self.stats.expect("stats built for ideal jobs");
        let seed = ideal_copy_seed(config.seed, copy);
        let stages = IdealCopyStages::new(config, stats, self.edge_count, self.num_vertices, seed)?;
        Ok((stages, self.meta(job, copy, seed)))
    }

    fn dynamic(&self, job: usize, copy: usize) -> Result<(DynamicCopyStages, CohortMemberMeta)> {
        let config = self.jobs[job]
            .kind
            .dynamic_config()
            .expect("dynamic job has a config");
        let seed = dynamic_copy_seed(config.seed, copy);
        let stages = DynamicCopyStages::new(config, self.update_count, self.num_vertices, seed)?;
        Ok((stages, self.meta(job, copy, seed)))
    }
}

/// One homogeneous cohort: the surviving members (stage objects plus
/// index-aligned metadata) and what driving them produced.
struct Cohort<C> {
    copies: Vec<C>,
    meta: Vec<CohortMemberMeta>,
    /// The job of every member that joined, evicted or not.
    joined: Vec<usize>,
    formation_nanos: u64,
    trace: Vec<PassTrace>,
    outcome: CohortOutcome,
}

impl<C: CopyKind> Cohort<C> {
    fn new() -> Self {
        Cohort {
            copies: Vec::new(),
            meta: Vec::new(),
            joined: Vec::new(),
            formation_nanos: 0,
            trace: Vec::new(),
            outcome: CohortOutcome::default(),
        }
    }

    /// Adds `copies` members built by `build(copy)`; a construction error
    /// fails the run (it is a pre-flight problem of the job's config).
    fn form(
        &mut self,
        copies: usize,
        build: impl Fn(usize) -> Result<(C, CohortMemberMeta)>,
    ) -> Result<()> {
        let started = Instant::now();
        for copy in 0..copies {
            let (stages, mm) = build(copy)?;
            self.copies.push(stages);
            self.joined.push(mm.group);
            self.meta.push(mm);
        }
        self.formation_nanos += started.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn drive<R: Recorder>(
        &mut self,
        cancel: &CancelToken,
        num_vertices: usize,
        items: &[C::Item],
        batch: usize,
        workers: usize,
        recorder: &R,
    ) {
        self.outcome = drive_cohort(
            &mut self.copies,
            &mut self.meta,
            cancel,
            num_vertices,
            items,
            batch,
            workers,
            recorder,
            &mut self.trace,
        );
    }

    /// Folds the driven cohort back into the run: containment failures
    /// into the ledger, task and pro-rata busy attribution for every
    /// member that joined, then each survivor's finish. Returns the
    /// cohort's report when `record` is set and the cohort had members.
    fn settle(
        self,
        ledger: &mut Ledger,
        totals: &mut DriverTotals,
        record: bool,
        workers: usize,
    ) -> Option<CohortReport> {
        let Cohort {
            copies,
            meta,
            joined,
            formation_nanos,
            trace,
            outcome,
        } = self;
        totals.sweeps += outcome.sweeps;
        totals.busy += Duration::from_nanos(outcome.busy_nanos);
        totals.evicted += outcome.evicted;
        for (group, error) in outcome.failures {
            fail_job(&mut ledger.job_errors, group, error);
        }
        // Copy-level evictions of contained members join the per-copy
        // error set headed for the retry layer.
        for (group, copy, error) in outcome.copy_failures {
            ledger.copy_errors[group].push((copy, error));
        }
        // The sweeps are shared, so per-copy busy time is not separable:
        // every member that started gets an equal share.
        let share = Duration::from_nanos(outcome.busy_nanos).div_f64(joined.len().max(1) as f64);
        for &job in &joined {
            ledger.tasks[job] += 1;
            ledger.busy[job] += share;
        }
        // Fold-loop tallies of the survivors, gathered before the stage
        // objects are consumed below.
        let report = (record && !joined.is_empty()).then(|| {
            let mut tallies = vec![PassTally::default(); C::PASS_NAMES.len()];
            for stages in &copies {
                for (total, &tally) in tallies.iter_mut().zip(stages.tallies()) {
                    total.merge(tally);
                }
            }
            CohortReport {
                label: C::LABEL.to_string(),
                copies: joined.len(),
                workers,
                shards: outcome.shards,
                formation_nanos,
                passes: pass_reports(&trace, C::PASS_NAMES, &tallies),
            }
        });
        finish_members(copies, &meta, ledger);
        report
    }
}

/// Sweeps, busy time and evictions of the cohort driver, summed over the
/// run's cohorts and retry attempts.
#[derive(Debug, Default)]
struct DriverTotals {
    sweeps: u64,
    busy: Duration,
    evicted: usize,
}

/// Consumes one cohort's eviction survivors: finishes each member under
/// panic containment, pushing its contribution (keyed by copy index) or
/// failing its job with the first error — for
/// [`contained`](CohortMemberMeta::contained) members, failing only the
/// copy, so its siblings keep contributing toward a quorum.
fn finish_members<C: CopyKind>(copies: Vec<C>, meta: &[CohortMemberMeta], ledger: &mut Ledger) {
    for (k, (stages, mm)) in copies.into_iter().zip(meta).enumerate() {
        let job = mm.group;
        if ledger.job_errors[job].is_some() {
            continue;
        }
        // `AssertUnwindSafe`: a panicking finish tears only this copy,
        // whose job (or copy) is failed here.
        let error = match catch_unwind(AssertUnwindSafe(|| stages.finish_copy())) {
            Ok(Ok(output)) => {
                C::results(ledger)[job].push((mm.copy, output));
                continue;
            }
            Ok(Err(e)) => e,
            Err(payload) => EngineError::panicked(k, payload),
        };
        if mm.contained {
            ledger.copy_errors[job].push((mm.copy, error));
        } else {
            fail_job(&mut ledger.job_errors, job, error);
        }
    }
}

/// The cut checks a retry attempt faces before any work: cancellation,
/// its job's deadline, then an injected task-start fault keyed by
/// `fault_key` (typed by `injected`).
fn start_checks(
    cancel: &CancelToken,
    deadline: Option<Instant>,
    fault_key: u64,
    injected: fn() -> EngineError,
) -> Result<()> {
    if cancel.is_cancelled() {
        return Err(EngineError::Cancelled {
            completed_passes: 0,
        });
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(EngineError::DeadlineExceeded {
            completed_passes: 0,
        });
    }
    if faults::ENABLED && faults::injected(faults::FaultSite::TaskStart, fault_key) {
        return Err(injected());
    }
    Ok(())
}

/// One retry attempt of a failed copy. The copy is rebuilt by the run's
/// member constructor, passes the [`start_checks`] with the member's own
/// fault key, and is then driven alone as a one-member cohort on one
/// worker (the calling thread), and finished. Completed sweeps are added
/// to `sweeps` whether or not the attempt succeeds.
fn retry_copy<C: CopyKind>(
    member: Result<(C, CohortMemberMeta)>,
    cancel: &CancelToken,
    num_vertices: usize,
    items: &[C::Item],
    batch: usize,
    sweeps: &mut u64,
) -> Result<C::Output> {
    let (stages, mm) = member?;
    start_checks(cancel, mm.deadline, mm.fault_key, C::task_start_error)?;
    let mut copies = vec![stages];
    let mut meta = vec![mm];
    let outcome = drive_cohort(
        &mut copies,
        &mut meta,
        cancel,
        num_vertices,
        items,
        batch,
        1,
        &NoopRecorder,
        &mut Vec::new(),
    );
    *sweeps += outcome.sweeps;
    if let Some((_, error)) = outcome.failures.into_iter().next() {
        return Err(error);
    }
    if let Some((_, _, error)) = outcome.copy_failures.into_iter().next() {
        return Err(error);
    }
    let stages = copies.pop().expect("a member that never failed survives");
    catch_unwind(AssertUnwindSafe(|| stages.finish_copy()))
        .unwrap_or_else(|payload| Err(EngineError::panicked(0, payload)))
}

/// Sleeps for `delay` in small slices, returning `false` as soon as the
/// cancel token fires — a cancelled run must not finish its backoff nap.
fn backoff_sleep(cancel: &CancelToken, delay: Duration) -> bool {
    const SLICE: Duration = Duration::from_millis(5);
    let until = Instant::now() + delay;
    loop {
        if cancel.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= until {
            return true;
        }
        std::thread::sleep((until - now).min(SLICE));
    }
}

/// What the retry layer did, feeding [`RecoveryTotals`].
#[derive(Debug, Default)]
struct RetryTally {
    retried: u64,
    quarantined: u64,
    backoff: Duration,
}

/// Drains every retry-enabled job's copy failures through its policy on
/// the calling thread, after the cohorts have finished.
///
/// Copies are retried in copy order, each driven to success or quarantine
/// before the next; `rerun(job, copy)` re-executes one copy and records
/// its contribution on success. Because copy seeds are position-keyed, a
/// successful re-execution is **bit-identical** to the copy never having
/// failed. Deterministic-by-construction schedule aside, the layer is
/// deadline- and cancel-aware: a backoff delay that cannot fit before the
/// job's deadline short-circuits to quarantine instead of sleeping, and
/// the sleep itself aborts promptly on cancellation. Cut errors
/// (deadline/cancel) are terminal — retrying them would only cut again.
/// Copies that exhaust `max_attempts` or the job's retry budget are
/// quarantined back into `copy_errors` for the quorum-governed degraded
/// assembly.
fn retry_failed_copies(
    retry_of: &[Option<RetryPolicy>],
    deadline_at: &[Option<Instant>],
    cancel: &CancelToken,
    job_errors: &[Option<EngineError>],
    copy_errors: &mut [Vec<(usize, EngineError)>],
    tally: &mut RetryTally,
    mut rerun: impl FnMut(usize, usize) -> std::result::Result<(), EngineError>,
) {
    for job in 0..retry_of.len() {
        let Some(policy) = retry_of[job] else {
            continue;
        };
        if job_errors[job].is_some() || copy_errors[job].is_empty() {
            continue;
        }
        let mut budget = policy.retry_budget.unwrap_or(usize::MAX);
        let mut pending = std::mem::take(&mut copy_errors[job]);
        pending.sort_by_key(|&(copy, _)| copy);
        let mut quarantined: Vec<(usize, EngineError)> = Vec::new();
        for (copy, mut error) in pending {
            // Attempts spent on this copy, the original execution included.
            let mut used = 1usize;
            loop {
                let cut = matches!(
                    error,
                    EngineError::DeadlineExceeded { .. } | EngineError::Cancelled { .. }
                );
                if cut || used >= policy.max_attempts || budget == 0 {
                    tally.quarantined += 1;
                    quarantined.push((copy, error));
                    break;
                }
                let delay = policy.delay(used);
                if !delay.is_zero() {
                    if deadline_at[job].is_some_and(|d| Instant::now() + delay >= d) {
                        tally.quarantined += 1;
                        quarantined.push((
                            copy,
                            EngineError::DeadlineExceeded {
                                completed_passes: 0,
                            },
                        ));
                        break;
                    }
                    let slept = Instant::now();
                    let finished = backoff_sleep(cancel, delay);
                    tally.backoff += slept.elapsed();
                    if !finished {
                        tally.quarantined += 1;
                        quarantined.push((
                            copy,
                            EngineError::Cancelled {
                                completed_passes: 0,
                            },
                        ));
                        break;
                    }
                }
                budget = budget.saturating_sub(1);
                tally.retried += 1;
                match rerun(job, copy) {
                    Ok(()) => break,
                    Err(e) => {
                        error = e;
                        used += 1;
                    }
                }
            }
        }
        copy_errors[job] = quarantined;
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            jobs: Vec::new(),
            submitted: Vec::new(),
            cancel: CancelToken::new(),
        }
    }

    /// Creates an engine with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Engine::new(EngineConfig::with_workers(workers))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// A clone of the engine's cancellation token. Call
    /// [`CancelToken::cancel`] from any thread to make in-flight runs fail
    /// their remaining jobs with [`EngineError::Cancelled`] at the next
    /// pass/chunk/task boundary. The token is sticky: [`CancelToken::reset`]
    /// re-arms the engine for subsequent runs.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Queues a job; returns its index, which is also its position in
    /// [`EngineReport::jobs`].
    pub fn submit(&mut self, spec: JobSpec) -> usize {
        self.jobs.push(spec);
        self.submitted.push(Instant::now());
        self.jobs.len() - 1
    }

    /// Number of jobs currently queued.
    pub fn queued_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Runs every queued job to completion over one snapshot (draining the
    /// queue) — the single entry point both stream flavors collapse into.
    /// Edge snapshots serve every job kind — [`JobKind::Main`] and
    /// [`JobKind::Ideal`] directly, and [`JobKind::Dynamic`] by
    /// materializing the edges as an insert-only update stream. Update
    /// snapshots serve [`JobKind::Dynamic`] jobs only; a non-turnstile job
    /// on one fails the run with [`EngineError::UnsupportedJob`].
    ///
    /// Failures are split in two classes. **Pre-flight** failures — an
    /// invalid engine or job configuration, a job of the wrong stream
    /// flavor, an empty stream, or (with
    /// [`EngineConfig::validate_input`]) a malformed input stream — fail
    /// the whole run with `Err` before any job starts. **Execution-time**
    /// failures — a panicking copy, an estimator error, an elapsed
    /// [`JobSpec::deadline`], a fired [`CancelToken`] — are contained per
    /// job: the failing job's [`JobResult::outcome`] carries the first
    /// error (in deterministic order) while every other job completes
    /// with results **bit-identical** to a run that never included the
    /// failed job.
    ///
    /// Recording ([`EngineConfig::recording`]) dispatches here: the run is
    /// monomorphized per recorder, so the `recording: false` instantiation
    /// carries [`NoopRecorder`]'s empty inlined methods — zero cost rather
    /// than a branch per instrumentation point.
    pub fn run_snapshot(&mut self, snapshot: &Snapshot<'_>) -> Result<EngineReport> {
        if self.config.recording {
            let recorder = MetricsRecorder::new(self.config.workers.max(1) * SHARDS_PER_WORKER);
            self.run_rec(snapshot, &recorder)
        } else {
            self.run_rec(snapshot, &NoopRecorder)
        }
    }

    /// Runs every queued job over an insert-only stream — a thin wrapper
    /// that borrows the stream's storage as a [`Snapshot::Edges`] (streams
    /// that do not expose their storage are materialized once, costing one
    /// extra pass) and calls [`Engine::run_snapshot`].
    pub fn run<S>(&mut self, stream: &S) -> Result<EngineReport>
    where
        S: EdgeStream + Sync + ?Sized,
    {
        match Snapshot::of_edges(stream) {
            Some(snapshot) => self.run_snapshot(&snapshot),
            None => {
                let mut edges: Vec<Edge> = Vec::with_capacity(stream.num_edges());
                stream.pass_batched(self.config.batch_size.max(1), &mut |chunk| {
                    edges.extend_from_slice(chunk)
                });
                self.run_snapshot(&Snapshot::Edges {
                    num_vertices: stream.num_vertices(),
                    edges: &edges,
                })
            }
        }
    }

    /// Runs every queued **turnstile** job ([`JobKind::Dynamic`]) over an
    /// insert/delete stream — a thin wrapper that borrows the stream's
    /// storage as a [`Snapshot::Updates`] (materializing once when the
    /// stream does not expose it) and calls [`Engine::run_snapshot`].
    /// Per-copy seeds and the median aggregation match the standalone
    /// [`DynamicTriangleEstimator::run`](degentri_dynamic::DynamicTriangleEstimator::run),
    /// so engine results are bit-identical to standalone results.
    pub fn run_dynamic<S>(&mut self, stream: &S) -> Result<EngineReport>
    where
        S: DynamicEdgeStream + Sync + ?Sized,
    {
        match Snapshot::of_updates(stream) {
            Some(snapshot) => self.run_snapshot(&snapshot),
            None => {
                let mut updates: Vec<EdgeUpdate> = Vec::with_capacity(stream.num_updates());
                stream.pass_batched(self.config.batch_size.max(1), &mut |chunk| {
                    updates.extend_from_slice(chunk)
                });
                self.run_snapshot(&Snapshot::Updates {
                    num_vertices: DynamicEdgeStream::num_vertices(stream),
                    updates: &updates,
                })
            }
        }
    }

    /// The scheduler body behind [`Engine::run_snapshot`], for both
    /// snapshot flavors.
    fn run_rec<R: Recorder>(
        &mut self,
        snapshot: &Snapshot<'_>,
        recorder: &R,
    ) -> Result<EngineReport> {
        let jobs: Vec<JobSpec> = self.jobs.drain(..).collect();
        let submitted: Vec<Instant> = self.submitted.drain(..).collect();

        // ---- Pre-flight: reject bad configurations and inputs ----------
        self.config.validate()?;
        let (num_vertices, edges, update_snapshot): (usize, &[Edge], Option<&[EdgeUpdate]>) =
            match *snapshot {
                Snapshot::Edges {
                    num_vertices,
                    edges,
                } => (num_vertices, edges, None),
                Snapshot::Updates {
                    num_vertices,
                    updates,
                } => (num_vertices, &[], Some(updates)),
            };
        for spec in &jobs {
            if update_snapshot.is_some() && !matches!(spec.kind, JobKind::Dynamic(_)) {
                return Err(EngineError::unsupported_job(format!(
                    "job '{}' is not a turnstile job; run it over an edge \
                     snapshot (Engine::run or Snapshot::Edges)",
                    spec.label
                )));
            }
            if let Some(config) = spec.kind.config() {
                config.validate()?;
            }
            if let Some(config) = spec.kind.dynamic_config() {
                config.validate()?;
            }
        }
        if self.config.validate_input {
            match update_snapshot {
                Some(updates) => validate_updates(num_vertices, updates)?,
                None => validate_edges(num_vertices, edges)?,
            }
        }
        let any_dynamic = jobs
            .iter()
            .any(|spec| matches!(spec.kind, JobKind::Dynamic(_)));
        let snapshot_len = update_snapshot.map_or(edges.len(), <[EdgeUpdate]>::len);
        if any_dynamic && snapshot_len == 0 {
            return Err(EngineError::Dynamic(DynamicError::EmptyStream));
        }
        // Per-job recovery plumbing: the retry policy in effect (job
        // override, else the engine default), and whether failures are
        // contained at copy granularity. A job opts into copy containment
        // by carrying a retry policy or a degradation-tolerant quorum.
        // Everything else keeps the all-or-nothing default.
        let retry_of: Vec<Option<RetryPolicy>> = jobs
            .iter()
            .map(|spec| spec.retry.or(self.config.retry_policy))
            .collect();
        if retry_of.iter().flatten().any(|p| p.max_attempts == 0) {
            return Err(EngineError::invalid_config(
                "retry.max_attempts must be at least 1",
            ));
        }
        let contained: Vec<bool> = jobs
            .iter()
            .zip(&retry_of)
            .map(|(spec, retry)| retry.is_some() || spec.quorum.allow_degraded)
            .collect();
        let batch = self.config.batch_size;

        // The run's timed region starts here, so the insert materialization
        // and the shared degree-table pass below are covered by the same
        // clock their items are charged to in `edges_streamed`.
        let started = Instant::now();
        let faults_before = faults::injected_count();
        let cancel = self.cancel.clone();
        // Per-job absolute deadlines, measured from run start.
        let deadline_at: Vec<Option<Instant>> = jobs
            .iter()
            .map(|spec| spec.deadline.map(|limit| started + limit))
            .collect();
        // Turnstile jobs are welcome on an edge snapshot too: each edge
        // becomes one insertion, materialized once for all of them.
        let inserts: Vec<EdgeUpdate> = if update_snapshot.is_none() && any_dynamic {
            edges.iter().map(|&edge| EdgeUpdate::insert(edge)).collect()
        } else {
            Vec::new()
        };
        let updates: &[EdgeUpdate] = update_snapshot.unwrap_or(&inserts);
        // The ideal estimator's degree table costs one pass over a plain
        // (zero-copy) view of the edges; build it once and share it across
        // every ideal job and copy.
        let stats_started = Instant::now();
        let ideal_stats: Option<StreamStats> = jobs
            .iter()
            .any(|spec| matches!(spec.kind, JobKind::Ideal(_)))
            .then(|| StreamStats::compute(&ShardedStream::new(num_vertices, edges, 1)));
        if R::ENABLED && ideal_stats.is_some() {
            recorder.span(
                0,
                Span::StatsPass,
                stats_started.elapsed().as_nanos() as u64,
            );
        }
        // Serial set-up is work this run performed: it belongs in busy
        // time just as the stats pass's edges are in `edges_streamed`.
        let setup_busy = started.elapsed();

        // ---- Cohort formation: one homogeneous cohort per kind ---------
        let members = Members {
            jobs: &jobs,
            deadline_at: &deadline_at,
            contained: &contained,
            num_vertices,
            edge_count: edges.len(),
            update_count: updates.len(),
            stats: ideal_stats.as_ref(),
        };
        let mut mains: Cohort<MainCopyStages> = Cohort::new();
        let mut ideals: Cohort<IdealCopyStages<'_, StreamStats>> = Cohort::new();
        let mut turnstiles: Cohort<DynamicCopyStages> = Cohort::new();
        for (job, spec) in jobs.iter().enumerate() {
            let copies = spec.kind.task_count();
            match spec.kind {
                JobKind::Main(_) => mains.form(copies, |copy| members.main(job, copy))?,
                JobKind::Ideal(_) => ideals.form(copies, |copy| members.ideal(job, copy))?,
                JobKind::Dynamic(_) => {
                    turnstiles.form(copies, |copy| members.dynamic(job, copy))?
                }
            }
        }
        if R::ENABLED {
            let formation_nanos =
                mains.formation_nanos + ideals.formation_nanos + turnstiles.formation_nanos;
            recorder.span(0, Span::CohortFormation, formation_nanos);
        }
        let cohort_copies = mains.joined.len() + ideals.joined.len() + turnstiles.joined.len();
        let fused_cohorts = [
            mains.joined.len(),
            ideals.joined.len(),
            turnstiles.joined.len(),
        ]
        .iter()
        .filter(|&&n| n > 0)
        .count();

        // ---- The cohorts, one after another ----------------------------
        // Each cohort's sweeps shard across `workers` threads.
        let workers = self.config.workers;
        let n = num_vertices;
        mains.drive(&cancel, n, edges, batch, workers, recorder);
        ideals.drive(&cancel, n, edges, batch, workers, recorder);
        turnstiles.drive(&cancel, n, updates, batch, workers, recorder);

        // ---- Fold everything back per job -------------------------------
        let mut ledger = Ledger::new(jobs.len());
        // Cohort sweeps and busy time are *measured* by the driver (shard
        // nanos summed over every shared sweep), not allocated from wall
        // time: the per-tier attribution in the stats below is only useful
        // if the split is real.
        let mut driver = DriverTotals::default();
        let cohort_reports: Vec<CohortReport> = [
            mains.settle(&mut ledger, &mut driver, R::ENABLED, workers),
            ideals.settle(&mut ledger, &mut driver, R::ENABLED, workers),
            turnstiles.settle(&mut ledger, &mut driver, R::ENABLED, workers),
        ]
        .into_iter()
        .flatten()
        .collect();
        let copies_evicted = driver.evicted;

        // ---- Deterministic retries --------------------------------------
        // Failed copies of retry-enabled jobs are rebuilt and re-driven as
        // one-member cohorts on this thread. Position-keyed seeds make
        // each re-execution bit-identical to the copy never having failed,
        // at any worker count; only wall-clock time (and the sweep count)
        // grows. Evictions inside a retry attempt count as retries, not
        // as cohort evictions.
        let mut retry_tally = RetryTally::default();
        if ledger.copy_errors.iter().any(|e| !e.is_empty()) {
            retry_failed_copies(
                &retry_of,
                &deadline_at,
                &cancel,
                &ledger.job_errors,
                &mut ledger.copy_errors,
                &mut retry_tally,
                |job, copy| {
                    let attempt_started = Instant::now();
                    let (n, sweeps) = (num_vertices, &mut driver.sweeps);
                    let result = match jobs[job].kind {
                        JobKind::Main(_) => {
                            retry_copy(members.main(job, copy), &cancel, n, edges, batch, sweeps)
                                .map(|c| ledger.contributions[job].push((copy, c)))
                        }
                        JobKind::Ideal(_) => {
                            retry_copy(members.ideal(job, copy), &cancel, n, edges, batch, sweeps)
                                .map(|c| ledger.contributions[job].push((copy, c)))
                        }
                        JobKind::Dynamic(_) => retry_copy(
                            members.dynamic(job, copy),
                            &cancel,
                            n,
                            updates,
                            batch,
                            sweeps,
                        )
                        .map(|c| ledger.dyn_contributions[job].push((copy, c))),
                    };
                    let spent = attempt_started.elapsed();
                    ledger.busy[job] += spent;
                    driver.busy += spent;
                    result
                },
            );
        }
        let wall = started.elapsed();

        let mut jobs_degraded = 0usize;
        let results: Vec<JobResult> = jobs
            .iter()
            .enumerate()
            .map(|(job, spec)| {
                // Unrecovered copy errors, in copy order (each copy's
                // first error — a retried copy that keeps failing reports
                // its quarantining error).
                let mut errors = std::mem::take(&mut ledger.copy_errors[job]);
                errors.sort_by_key(|&(copy, _)| copy);
                let outcome = match ledger.job_errors[job].take() {
                    Some(error) => Err(error),
                    None => {
                        let survivors = match &spec.kind {
                            JobKind::Main(_) | JobKind::Ideal(_) => ledger.contributions[job].len(),
                            JobKind::Dynamic(_) => ledger.dyn_contributions[job].len(),
                        };
                        // Quorum check: a job with unrecovered copy errors
                        // succeeds degraded when its policy tolerates the
                        // surviving subset, else it fails with the first
                        // error in copy order (min_copies = 0 behaves like
                        // 1 — an aggregate over zero copies is
                        // meaningless).
                        if !(errors.is_empty()
                            || (spec.quorum.allow_degraded
                                && survivors >= spec.quorum.min_copies.max(1)))
                        {
                            Err(errors.remove(0).1)
                        } else {
                            let degraded = if errors.is_empty() {
                                None
                            } else {
                                jobs_degraded += 1;
                                Some(Degradation {
                                    copies_used: survivors,
                                    copies_lost: errors.len(),
                                    copy_errors: errors,
                                })
                            };
                            // Copies aggregate in copy order regardless of
                            // when (first run or retry) they finished; a
                            // degraded job aggregates exactly its
                            // surviving copies.
                            Ok(match &spec.kind {
                                JobKind::Main(_) | JobKind::Ideal(_) => {
                                    ledger.contributions[job].sort_by_key(|&(copy, _)| copy);
                                    let copies: Vec<CopyContribution> =
                                        ledger.contributions[job].iter().map(|&(_, c)| c).collect();
                                    JobOutput {
                                        estimation: degentri_core::aggregate_copies(&copies),
                                        dynamic: None,
                                        degraded,
                                    }
                                }
                                JobKind::Dynamic(_) => {
                                    ledger.dyn_contributions[job].sort_by_key(|&(copy, _)| copy);
                                    let copies: Vec<DynamicCopyOutcome> = ledger.dyn_contributions
                                        [job]
                                        .iter()
                                        .map(|&(_, c)| c)
                                        .collect();
                                    let outcome = aggregate_dynamic_copies(&copies);
                                    JobOutput {
                                        estimation: dynamic_estimation(&outcome),
                                        dynamic: Some(outcome),
                                        degraded,
                                    }
                                }
                            })
                        }
                    }
                };
                JobResult {
                    label: spec.label.clone(),
                    outcome,
                    busy: ledger.busy[job],
                    tasks: ledger.tasks[job],
                }
            })
            .collect();
        let jobs_failed = results.iter().filter(|r| !r.is_ok()).count();
        let recovery = RecoveryTotals {
            jobs_failed,
            copies_evicted,
            copies_retried: retry_tally.retried,
            copies_quarantined: retry_tally.quarantined,
            jobs_degraded,
            retry_backoff: retry_tally.backoff,
        };

        let tiers = TierTotals {
            fused_sweeps: driver.sweeps,
            per_copy_sweeps: u64::from(ideal_stats.is_some()),
            fused_busy: driver.busy,
            per_copy_busy: setup_busy,
        };
        let run_report = R::ENABLED.then(|| {
            assemble_run_report(
                recorder,
                wall,
                workers,
                cohort_reports,
                &jobs,
                &submitted,
                &ledger.tasks,
                &ledger.busy,
                cohort_copies,
                &recovery,
                faults::injected_count().saturating_sub(faults_before),
                &tiers,
            )
        });

        Ok(EngineReport {
            jobs: results,
            stats: EngineStats::from_run(
                workers,
                cohort_copies,
                fused_cohorts,
                tiers.fused_sweeps + tiers.per_copy_sweeps,
                tiers.fused_sweeps,
                wall,
                tiers.fused_busy + tiers.per_copy_busy,
                tiers.fused_busy,
                snapshot_len as u64,
                recovery,
            ),
            run_report,
        })
    }
}

/// The run's sweep and busy totals split by execution path: the cohort
/// driver (cohorts and retried one-member cohorts, measured by the
/// driver) versus the serial set-up (the shared degree-table pass and the
/// insert materialization).
struct TierTotals {
    fused_sweeps: u64,
    per_copy_sweeps: u64,
    fused_busy: Duration,
    per_copy_busy: Duration,
}

/// Builds the [`PassReport`]s of one cohort from the fused driver's trace,
/// the estimator's stable pass names, and the cohort-summed fold tallies.
fn pass_reports(trace: &[PassTrace], names: &[&str], tallies: &[PassTally]) -> Vec<PassReport> {
    trace
        .iter()
        .map(|t| PassReport {
            name: names.get(t.pass).copied().unwrap_or("pass").to_string(),
            plan_nanos: t.plan_nanos,
            sweep_nanos: t.sweep_nanos,
            items: t.shards.iter().map(|s| s.items).sum(),
            tally: tallies.get(t.pass).copied().unwrap_or_default(),
            shards: t.shards.clone(),
        })
        .collect()
}

/// Assembles the [`RunReport`] at the end of a recording run: records the
/// run-level counters and per-job latency observations (so the merged
/// metrics snapshot embedded in the report includes them), then builds the
/// job breakdown in submission order.
#[allow(clippy::too_many_arguments)]
fn assemble_run_report<R: Recorder>(
    recorder: &R,
    wall: Duration,
    workers: usize,
    cohorts: Vec<CohortReport>,
    jobs: &[JobSpec],
    submitted: &[Instant],
    tasks_per_job: &[usize],
    busy_per_job: &[Duration],
    cohort_copies: usize,
    recovery: &RecoveryTotals,
    faults_injected: u64,
    tiers: &TierTotals,
) -> RunReport {
    let total_tasks: usize = tasks_per_job.iter().sum();
    recorder.add(0, Counter::TasksExecuted, total_tasks as u64);
    recorder.add(
        0,
        Counter::JobsCompleted,
        (jobs.len() - recovery.jobs_failed) as u64,
    );
    recorder.add(0, Counter::JobsFailed, recovery.jobs_failed as u64);
    recorder.add(0, Counter::CohortCopies, cohort_copies as u64);
    recorder.add(0, Counter::CohortEvictions, recovery.copies_evicted as u64);
    recorder.add(0, Counter::FaultsInjected, faults_injected);
    recorder.add(0, Counter::CopiesRetried, recovery.copies_retried);
    recorder.add(0, Counter::CopiesQuarantined, recovery.copies_quarantined);
    recorder.add(0, Counter::JobsDegraded, recovery.jobs_degraded as u64);
    recorder.add(
        0,
        Counter::RetryBackoffNanos,
        recovery.retry_backoff.as_nanos() as u64,
    );
    recorder.add(0, Counter::FusedSweeps, tiers.fused_sweeps);
    recorder.add(0, Counter::PerCopySweeps, tiers.per_copy_sweeps);
    recorder.add(
        0,
        Counter::FusedBusyNanos,
        tiers.fused_busy.as_nanos() as u64,
    );
    recorder.add(
        0,
        Counter::PerCopyBusyNanos,
        tiers.per_copy_busy.as_nanos() as u64,
    );
    for cohort in &cohorts {
        let mut items = 0u64;
        let mut hits = 0u64;
        let mut sketch_updates = 0u64;
        for pass in &cohort.passes {
            items += pass.tally.items;
            hits += pass.tally.hits;
            sketch_updates += pass.tally.updates;
        }
        recorder.add(0, Counter::ItemsFolded, items);
        recorder.add(0, Counter::ProbeHits, hits);
        recorder.add(0, Counter::SketchUpdates, sketch_updates);
    }
    let job_reports: Vec<JobReport> = jobs
        .iter()
        .enumerate()
        .map(|(job, spec)| {
            let latency_nanos = submitted
                .get(job)
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            recorder.observe(job, Hist::JobLatencyNanos, latency_nanos);
            JobReport {
                label: spec.label.clone(),
                tasks: tasks_per_job[job],
                busy_nanos: busy_per_job[job].as_nanos() as u64,
                latency_nanos,
            }
        })
        .collect();
    RunReport {
        wall_nanos: wall.as_nanos() as u64,
        workers,
        cohorts,
        jobs: job_reports,
        metrics: recorder.snapshot().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degentri_core::EstimatorConfig;
    use degentri_stream::{MemoryStream, StreamOrder};

    #[test]
    fn empty_engine_produces_empty_report() {
        let graph = degentri_gen::wheel(50).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
        let mut engine = Engine::with_workers(2);
        let report = engine.run(&stream).unwrap();
        assert!(report.jobs.is_empty());
        assert_eq!(report.stats.tasks, 0);
        assert_eq!(report.stats.edges_streamed, 0);
        assert_eq!(report.stats.fused_cohorts, 0);
        assert_eq!(report.stats.sweeps_executed, 0);
    }

    #[test]
    fn invalid_job_config_fails_before_running() {
        let graph = degentri_gen::wheel(50).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
        let mut engine = Engine::with_workers(2);
        engine.submit(JobSpec::main(
            "bad",
            EstimatorConfig::builder().epsilon(2.0).build(),
        ));
        assert!(engine.run(&stream).is_err());
        // The queue was drained; the engine is reusable.
        assert_eq!(engine.queued_jobs(), 0);
    }

    #[test]
    fn invalid_engine_config_fails_before_running() {
        let graph = degentri_gen::wheel(50).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
        let mut engine = Engine::new(EngineConfig::builder().batch_size(0).build());
        assert!(matches!(
            engine.run(&stream),
            Err(EngineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn submit_returns_report_indices() {
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(49)
            .copies(2)
            .build();
        let mut engine = Engine::with_workers(2);
        assert_eq!(engine.submit(JobSpec::main("a", config.clone())), 0);
        assert_eq!(engine.submit(JobSpec::ideal("b", config)), 1);
        assert_eq!(engine.queued_jobs(), 2);
        let graph = degentri_gen::wheel(50).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::AsGiven);
        let report = engine.run(&stream).unwrap();
        assert_eq!(report.jobs[0].label, "a");
        assert_eq!(report.jobs[1].label, "b");
        assert_eq!(report.jobs[0].tasks, 2);
    }

    #[test]
    fn engine_matches_the_standalone_runner_bit_for_bit() {
        let graph = degentri_gen::wheel(300).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(3));
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(299)
            .copies(3)
            .seed(5)
            .build();
        let standalone = degentri_core::estimate_triangles(&stream, &config).unwrap();
        // One worker (unsharded sweeps) and eight (sharded sweeps).
        for workers in [1, 8] {
            let mut engine = Engine::with_workers(workers);
            engine.submit(JobSpec::main("fused", config.clone()));
            let fused = engine.run(&stream).unwrap();
            assert_eq!(fused.stats.workers, workers);
            assert_eq!(fused.stats.fused_cohorts, 1);
            // Three copies of six passes in six shared sweeps.
            assert_eq!(fused.stats.sweeps_executed, 6);
            assert_eq!(fused.stats.edges_streamed, 6 * graph.num_edges() as u64);
            assert_eq!(
                fused.jobs[0].estimation().estimate.to_bits(),
                standalone.estimate.to_bits()
            );
            assert_eq!(
                fused.jobs[0].estimation().copy_estimates,
                standalone.copy_estimates
            );
        }
    }
}
