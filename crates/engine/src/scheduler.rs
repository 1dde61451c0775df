//! The job scheduler: many estimation jobs over one shared snapshot.
//!
//! [`Engine::submit`] queues jobs (different ε/κ/seed/algorithm, including
//! the Table-1 baselines through their common trait and the turnstile
//! estimator); [`Engine::run_snapshot`] executes every queued job over one
//! [`Snapshot`] — the enum unifying insert-only edge slices and turnstile
//! update slices — on a single scoped worker pool. The historical typed
//! entry points [`Engine::run`] (edges) and [`Engine::run_dynamic`]
//! (updates) are thin wrappers that borrow the stream's storage as a
//! `Snapshot` (materializing one owned copy for exotic streams that do not
//! expose their storage).
//!
//! Scheduling happens in two tiers:
//!
//! * **Fused cohorts** — estimator jobs, whose copies expose the
//!   resumable stage-object API (`begin_pass → fold → finish_pass`), are
//!   grouped into one cohort per snapshot flavor and executed by the
//!   fused pass driver ([`crate::fused`]): each pass stage is **one**
//!   physical sweep over the snapshot that feeds every in-flight copy's
//!   fold chunk by chunk, so `passes × copies` traversals collapse into
//!   `passes`. With spare workers the sweep itself is sharded (per-shard
//!   accumulators merge in shard order).
//! * **Per-copy tasks** — baselines, and every estimator job when fusion
//!   is off ([`EngineConfig::fused_execution`]), are flattened into
//!   independent tasks — one per estimator copy, one per baseline — and
//!   executed on the pool, each estimator copy driving its stage object
//!   one pass per sweep, including intra-copy sharded passes when the
//!   pool is wider than the task list.
//!
//! Both tiers use the same per-copy seeds ([`main_copy_seed`] /
//! [`ideal_copy_seed`] / [`dynamic_copy_seed`]) and the same fold
//! implementations, so every scheduling decision — fused or per-copy,
//! sharded or not, any worker count — produces **bit-identical** results;
//! only wall-clock time and the physical sweep count
//! ([`EngineStats::sweeps_executed`]) change.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use degentri_core::faults;
use degentri_core::{
    ideal_copy_seed, main_copy_seed, run_ideal_copy_sharded, run_ideal_copy_with,
    run_main_copy_sharded, run_main_copy_with, validate_edges, CopyContribution, EstimatorConfig,
    EstimatorError, IdealCopyStages, MainCopyStages,
};
use degentri_dynamic::{
    aggregate_dynamic_copies, dynamic_copy_seed, run_dynamic_copy_sharded, run_dynamic_copy_with,
    validate_updates, DynamicCopyOutcome, DynamicCopyStages, DynamicError, DynamicEstimatorConfig,
};
use degentri_graph::Edge;
use degentri_obs::{
    CohortReport, Counter, Hist, JobReport, MetricsRecorder, NoopRecorder, PassReport, PassTally,
    Recorder, RunReport, Span,
};
use degentri_stream::{
    run_queued, DynamicEdgeStream, EdgeStream, EdgeUpdate, ShardedDynamicStream, ShardedStream,
    Snapshot, StreamStats,
};

use crate::cancel::CancelToken;
use crate::config::EngineConfig;
use crate::fused::{
    drive_cohort, drive_edge_cohort, CohortMemberMeta, CohortOutcome, EdgeCohort, PassTrace,
};
use crate::job::{
    baseline_estimation, dynamic_estimation, Degradation, JobKind, JobOutput, JobResult, JobSpec,
    RetryPolicy,
};
use crate::stats::{EngineStats, RecoveryTotals};
use crate::{EngineError, Result};

/// How many shards each intra-copy or fused-sweep worker gets to claim: a
/// few shards per worker smooths out load imbalance from uneven chunk
/// costs without shrinking shards below useful sizes.
const SHARDS_PER_WORKER: usize = 4;

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

/// One per-copy schedulable unit of the non-fused tier.
#[derive(Debug, Clone, Copy)]
enum Task {
    MainCopy { job: usize, copy: usize },
    IdealCopy { job: usize, copy: usize },
    DynamicCopy { job: usize, copy: usize },
    Baseline { job: usize },
}

impl Task {
    fn job(&self) -> usize {
        match *self {
            Task::MainCopy { job, .. }
            | Task::IdealCopy { job, .. }
            | Task::DynamicCopy { job, .. }
            | Task::Baseline { job } => job,
        }
    }
}

/// One queued per-copy task's result slot, filled exactly once by the
/// worker that claims it: the caught (panic-contained) output plus the
/// task's busy time.
type TaskSlot<T> = Mutex<Option<std::thread::Result<(T, Duration)>>>;

/// What one per-copy task produced (plus how long it took).
enum TaskOutput {
    Copy(degentri_core::Result<CopyContribution>),
    Dynamic(degentri_dynamic::Result<DynamicCopyOutcome>),
    Baseline(degentri_baselines::BaselineOutcome),
    /// The task was cut before running (deadline elapsed or run cancelled).
    Cut(EngineError),
}

/// What one per-copy turnstile task produced.
enum DynTaskOutput {
    Copy(degentri_dynamic::Result<DynamicCopyOutcome>),
    /// The task was cut before running (deadline elapsed or run cancelled).
    Cut(EngineError),
}

/// Records a job's **first** error (deterministic task order: later errors
/// for the same job are dropped).
fn fail_job(errors: &mut [Option<EngineError>], job: usize, error: EngineError) {
    if errors[job].is_none() {
        errors[job] = Some(error);
    }
}

/// Records one copy's failure at the right granularity: contained jobs
/// collect per-copy errors (feeding the retry and degradation layers), all
/// others fail the whole job with its first error.
fn fail_copy(
    contained: &[bool],
    job_errors: &mut [Option<EngineError>],
    copy_errors: &mut [Vec<(usize, EngineError)>],
    job: usize,
    copy: usize,
    error: EngineError,
) {
    if contained[job] {
        copy_errors[job].push((copy, error));
    } else {
        fail_job(job_errors, job, error);
    }
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
/// the coordinator, after both execution tiers have finished.
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
    /// Edge snapshots serve every job kind — [`JobKind::Main`] /
    /// [`JobKind::Ideal`] / [`JobKind::Baseline`] directly, and
    /// [`JobKind::Dynamic`] by materializing the edges as an insert-only
    /// update stream. Update snapshots serve [`JobKind::Dynamic`] jobs
    /// only; a non-turnstile job on one fails the run with
    /// [`EngineError::UnsupportedJob`].
    ///
    /// Failures are split in two classes. **Pre-flight** failures — an
    /// invalid engine or job configuration, a job of the wrong stream
    /// flavor, an empty stream, or (with
    /// [`EngineConfig::validate_input`]) a malformed input stream — fail
    /// the whole run with `Err` before any job starts. **Execution-time**
    /// failures — a panicking copy, an estimator error, an elapsed
    /// [`JobSpec::deadline`], a fired [`CancelToken`] — are contained per
    /// job: the failing job's [`JobResult::outcome`] carries the first
    /// error (in deterministic task order) while every other job completes
    /// with results **bit-identical** to a run that never included the
    /// failed job.
    pub fn run_snapshot(&mut self, snapshot: &Snapshot<'_>) -> Result<EngineReport> {
        match *snapshot {
            Snapshot::Edges {
                num_vertices,
                edges,
            } => self.run_edges(num_vertices, edges),
            Snapshot::Updates {
                num_vertices,
                updates,
            } => self.run_updates(num_vertices, updates),
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

    /// Whether estimator jobs may fuse under this configuration. A
    /// fused cohort's only parallelism is its sharded sweeps, so with
    /// intra-task sharding disabled *and* a multi-worker pool, fusing
    /// would serialize work that per-copy scheduling runs copy-parallel —
    /// those configurations keep the per-copy tier (preserving the
    /// documented "copy-level parallelism only" meaning of the flag).
    fn fusion_enabled(&self) -> bool {
        self.config.fused_execution && (self.config.intra_task_sharding || self.config.workers <= 1)
    }

    /// The fused-sweep worker count and shard count for a cohort.
    fn cohort_parallelism(&self) -> (usize, usize) {
        let workers = if self.config.intra_task_sharding {
            self.config.workers.max(1)
        } else {
            1
        };
        (workers, workers * SHARDS_PER_WORKER)
    }

    /// Dispatches on [`EngineConfig::recording`]: the generic runner is
    /// monomorphized per recorder, so the `recording: false` instantiation
    /// carries [`NoopRecorder`]'s empty inlined methods — zero cost rather
    /// than a branch per instrumentation point.
    fn run_edges(&mut self, num_vertices: usize, edges: &[Edge]) -> Result<EngineReport> {
        if self.config.recording {
            let recorder = MetricsRecorder::new(self.config.workers.max(1) * SHARDS_PER_WORKER);
            self.run_edges_rec(num_vertices, edges, &recorder)
        } else {
            self.run_edges_rec(num_vertices, edges, &NoopRecorder)
        }
    }

    fn run_edges_rec<R: Recorder>(
        &mut self,
        num_vertices: usize,
        edges: &[Edge],
        recorder: &R,
    ) -> Result<EngineReport> {
        let jobs: Vec<JobSpec> = self.jobs.drain(..).collect();
        let submitted: Vec<Instant> = self.submitted.drain(..).collect();

        // Reject invalid configurations before any work starts.
        self.config.validate()?;
        // Each job's estimator configuration (`None` for other kinds).
        let configs: Vec<Option<&EstimatorConfig>> =
            jobs.iter().map(|spec| spec.kind.config()).collect();
        for config in configs.iter().flatten() {
            config.validate().map_err(EngineError::from)?;
        }
        // Turnstile jobs are welcome on an edge snapshot too: each edge
        // becomes one insertion, so a mixed main + ideal + dynamic batch
        // shares a single input.
        let dyn_configs: Vec<Option<&DynamicEstimatorConfig>> =
            jobs.iter().map(|spec| spec.kind.dynamic_config()).collect();
        for config in dyn_configs.iter().flatten() {
            config.validate().map_err(EngineError::from)?;
        }
        // Optional input hardening, still pre-flight: a malformed snapshot
        // fails the run before any job starts.
        if self.config.validate_input {
            validate_edges(num_vertices, edges).map_err(EngineError::from)?;
        }
        let batch = self.config.batch_size;
        let m = edges.len();

        // The run's timed region starts here so the shared degree-table
        // pass below is covered by the same clock that its edges are
        // charged to in `edges_streamed`.
        let started = Instant::now();
        let faults_before = faults::injected_count();
        let cancel = self.cancel.clone();
        // Per-job absolute deadlines, measured from run start.
        let deadline_at: Vec<Option<Instant>> = jobs
            .iter()
            .map(|spec| spec.deadline.map(|limit| started + limit))
            .collect();
        // Per-job contained errors (first error in deterministic task
        // order wins); populated by the per-copy and fused tiers below.
        let mut job_errors: Vec<Option<EngineError>> = vec![None; jobs.len()];
        // Per-job recovery plumbing: the retry policy in effect (job
        // override, else the engine default), and whether failures are
        // contained at copy granularity. A job opts into copy containment
        // by carrying a retry policy or a degradation-tolerant quorum;
        // baselines are single-task and never contained. Everything else
        // keeps the all-or-nothing default.
        let retry_of: Vec<Option<RetryPolicy>> = jobs
            .iter()
            .map(|spec| spec.retry.or(self.config.retry_policy))
            .collect();
        for policy in retry_of.iter().flatten() {
            if policy.max_attempts == 0 {
                return Err(EngineError::invalid_config(
                    "retry.max_attempts must be at least 1",
                ));
            }
        }
        let contained: Vec<bool> = jobs
            .iter()
            .enumerate()
            .map(|(job, spec)| {
                (retry_of[job].is_some() || spec.quorum.allow_degraded)
                    && !matches!(spec.kind, JobKind::Baseline(_))
            })
            .collect();
        // Contained jobs' per-copy errors (`(copy, error)`), feeding the
        // retry layer and then the quorum-governed degraded assembly.
        let mut copy_errors: Vec<Vec<(usize, EngineError)>> =
            jobs.iter().map(|_| Vec::new()).collect();

        // The whole snapshot behind one plain stream view (zero-copy); the
        // per-copy tier streams through it.
        let plain = ShardedStream::new(num_vertices, edges, 1);
        // Turnstile jobs see the same snapshot as an insert-only update
        // stream, materialized once for all of them.
        let dyn_updates: Vec<EdgeUpdate> = if jobs
            .iter()
            .any(|spec| matches!(spec.kind, JobKind::Dynamic(_)))
        {
            if edges.is_empty() {
                return Err(EngineError::Dynamic(DynamicError::EmptyStream));
            }
            edges.iter().map(|&edge| EdgeUpdate::insert(edge)).collect()
        } else {
            Vec::new()
        };
        let dyn_plain = ShardedDynamicStream::new(num_vertices, &dyn_updates, 1);

        // The ideal estimator's degree table costs one pass; build it
        // once — before cohort formation, whose fused ideal members
        // borrow it — and share it across every ideal job and copy.
        let stats_started = Instant::now();
        let ideal_stats: Option<StreamStats> = jobs
            .iter()
            .any(|spec| matches!(spec.kind, JobKind::Ideal(_)))
            .then(|| StreamStats::compute(&plain));
        if R::ENABLED && ideal_stats.is_some() {
            recorder.span(
                0,
                Span::StatsPass,
                stats_started.elapsed().as_nanos() as u64,
            );
        }
        let stats_pass = started.elapsed();

        // Tier split: with fusion enabled every estimator job fuses (the
        // six-pass and ideal copies share one edge cohort, turnstile copies
        // their own); baselines become per-copy tasks.
        let fusion = self.fusion_enabled();
        let formation_started = Instant::now();
        let mut cohort = EdgeCohort {
            mains: Vec::new(),
            main_meta: Vec::new(),
            ideals: Vec::new(),
            ideal_meta: Vec::new(),
        };
        let mut dyn_cohort: Vec<DynamicCopyStages> = Vec::new();
        let mut dyn_meta: Vec<CohortMemberMeta> = Vec::new();
        let mut cohort_of: Vec<(usize, usize)> = Vec::new();
        let mut tasks: Vec<Task> = Vec::new();
        for (job, spec) in jobs.iter().enumerate() {
            let count = spec.kind.task_count();
            match &spec.kind {
                JobKind::Main(config) if fusion => {
                    for copy in 0..count {
                        let seed = main_copy_seed(config.seed, copy);
                        cohort.mains.push(
                            MainCopyStages::new(config, m, num_vertices, seed)
                                .map_err(EngineError::from)?,
                        );
                        cohort.main_meta.push(CohortMemberMeta {
                            group: job,
                            copy,
                            deadline: deadline_at[job],
                            fault_key: seed,
                            contained: contained[job],
                        });
                        cohort_of.push((job, copy));
                    }
                }
                JobKind::Ideal(config) if fusion => {
                    let stats = ideal_stats.as_ref().expect("stats built for ideal jobs");
                    for copy in 0..count {
                        let seed = ideal_copy_seed(config.seed, copy);
                        cohort.ideals.push(
                            IdealCopyStages::new(config, stats, m, num_vertices, seed)
                                .map_err(EngineError::from)?,
                        );
                        cohort.ideal_meta.push(CohortMemberMeta {
                            group: job,
                            copy,
                            deadline: deadline_at[job],
                            fault_key: seed,
                            contained: contained[job],
                        });
                        cohort_of.push((job, copy));
                    }
                }
                JobKind::Dynamic(config) if fusion => {
                    for copy in 0..count {
                        let seed = dynamic_copy_seed(config.seed, copy);
                        dyn_cohort.push(
                            DynamicCopyStages::new(config, dyn_updates.len(), num_vertices, seed)
                                .map_err(EngineError::from)?,
                        );
                        dyn_meta.push(CohortMemberMeta {
                            group: job,
                            copy,
                            deadline: deadline_at[job],
                            fault_key: seed,
                            contained: contained[job],
                        });
                        cohort_of.push((job, copy));
                    }
                }
                JobKind::Main(_) => {
                    tasks.extend((0..count).map(|copy| Task::MainCopy { job, copy }));
                }
                JobKind::Ideal(_) => {
                    tasks.extend((0..count).map(|copy| Task::IdealCopy { job, copy }));
                }
                JobKind::Dynamic(_) => {
                    tasks.extend((0..count).map(|copy| Task::DynamicCopy { job, copy }));
                }
                JobKind::Baseline(_) => tasks.push(Task::Baseline { job }),
            }
        }
        let formation_nanos = formation_started.elapsed().as_nanos() as u64;
        if R::ENABLED {
            recorder.span(0, Span::CohortFormation, formation_nanos);
        }
        let edge_members = cohort.len();
        let dyn_members = dyn_cohort.len();
        // An all-ideal cohort runs only the 3 oracle passes; its report
        // rows carry the ideal pass names instead of the six-pass ones.
        let ideal_only = !cohort.ideals.is_empty() && edge_members == cohort.ideals.len();
        let cohort_copies = cohort_of.len();
        let any_cohort = cohort_copies > 0;

        let workers = self.config.effective_workers(tasks.len());

        // Intra-copy shard plan for the per-copy tier: when the pool is
        // wider than the task list *and no cohort shares it*, split each
        // shardable copy's passes across the spare workers instead of
        // leaving them idle. With a cohort on the queue the spare capacity
        // already has sweep shards to claim — nesting a second pool under
        // each task would only oversubscribe the machine.
        // Turnstile tasks on an edge snapshot always run unsharded (the
        // sharded dynamic view lives on the update-snapshot path), so they
        // are excluded from the shard plan.
        let shardable = tasks.iter().any(|task| {
            !matches!(task, Task::DynamicCopy { .. })
                && jobs[task.job()].kind.supports_intra_task_sharding()
        });
        let shard_workers =
            if self.config.intra_task_sharding && shardable && !tasks.is_empty() && !any_cohort {
                (self.config.workers / tasks.len()).max(1)
            } else {
                1
            };
        let sharded_view: Option<ShardedStream<'_>> = (shard_workers > 1)
            .then(|| ShardedStream::new(num_vertices, edges, shard_workers * SHARDS_PER_WORKER));
        let intra_task_workers = if sharded_view.is_some() {
            shard_workers
        } else {
            1
        };

        // The fault-injection key of one per-copy task: the task's
        // per-copy seed for estimator copies (the same key that addresses
        // the copy on the fused tier), the job index for baselines.
        let task_fault_key = |task: &Task| match *task {
            Task::MainCopy { job, copy } | Task::IdealCopy { job, copy } => {
                let seed = configs[job].map(|c| c.seed).unwrap_or_default();
                main_copy_seed(seed, copy)
            }
            Task::DynamicCopy { job, copy } => {
                let seed = dyn_configs[job].map(|c| c.seed).unwrap_or_default();
                dynamic_copy_seed(seed, copy)
            }
            Task::Baseline { job } => job as u64,
        };

        // One per-copy task body, shared by every pool worker; panics are
        // caught at the queue-job layer below.
        let run_task = |i: usize| -> (TaskOutput, Duration) {
            let task_started = Instant::now();
            let job = tasks[i].job();
            // Cut checks before any work: cancellation, then this
            // job's deadline, then an injected task-start fault.
            let cut = if cancel.is_cancelled() {
                Some(EngineError::Cancelled {
                    completed_passes: 0,
                })
            } else if deadline_at[job].is_some_and(|d| Instant::now() >= d) {
                Some(EngineError::DeadlineExceeded {
                    completed_passes: 0,
                })
            } else if faults::ENABLED
                && faults::injected(faults::FaultSite::TaskStart, task_fault_key(&tasks[i]))
            {
                Some(match tasks[i] {
                    Task::DynamicCopy { .. } => EngineError::Dynamic(DynamicError::Injected {
                        site: faults::FaultSite::TaskStart,
                    }),
                    _ => EngineError::Estimator(EstimatorError::Injected {
                        site: faults::FaultSite::TaskStart,
                    }),
                })
            } else {
                None
            };
            if let Some(error) = cut {
                return (TaskOutput::Cut(error), task_started.elapsed());
            }
            let output = match tasks[i] {
                Task::MainCopy { job, copy } => {
                    let config = configs[job].expect("main job has a config");
                    let result = match &sharded_view {
                        Some(view) => {
                            run_main_copy_sharded(view, config, copy, batch, intra_task_workers)
                        }
                        None => run_main_copy_with(&plain, config, copy, batch),
                    };
                    TaskOutput::Copy(result.map(|o| CopyContribution::from(&o)))
                }
                Task::IdealCopy { job, copy } => {
                    let config = configs[job].expect("ideal job has a config");
                    // Copies share the degree table by reference; StreamStats
                    // answers degree queries directly.
                    let stats = ideal_stats.as_ref().expect("stats built for ideal jobs");
                    let result = match &sharded_view {
                        Some(view) => run_ideal_copy_sharded(
                            view,
                            stats,
                            config,
                            copy,
                            batch,
                            intra_task_workers,
                        ),
                        None => run_ideal_copy_with(&plain, stats, config, copy, batch),
                    };
                    TaskOutput::Copy(result.map(|o| CopyContribution::from(&o)))
                }
                Task::DynamicCopy { job, copy } => {
                    let config = dyn_configs[job].expect("dynamic job has a config");
                    TaskOutput::Dynamic(run_dynamic_copy_with(&dyn_plain, config, copy, batch))
                }
                Task::Baseline { job } => {
                    let JobKind::Baseline(counter) = &jobs[job].kind else {
                        unreachable!("task kind matches job kind");
                    };
                    TaskOutput::Baseline(counter.estimate(&plain))
                }
            };
            let spent = task_started.elapsed();
            if R::ENABLED {
                let nanos = spent.as_nanos() as u64;
                recorder.span(i, Span::PerCopyTask, nanos);
                recorder.observe(i, Hist::TaskNanos, nanos);
            }
            (output, spent)
        };

        // ---- One pool, both tiers ------------------------------------------
        // Per-copy tasks queue up as coarse jobs; the cohort drivers then
        // run on the coordinator with the queue scope as their sweep pool,
        // so fused shard bursts cut to the front of the same queue and
        // interleave with straggler per-copy tasks instead of the two
        // tiers draining as serialized phases. Panic containment is
        // preserved: a panicking task parks `Err(payload)` in its slot and
        // the claiming worker survives.
        let (cohort_workers, cohort_shards) = self.cohort_parallelism();
        let pool_workers = if any_cohort {
            workers.max(cohort_workers)
        } else {
            workers.max(1)
        };
        let task_slots: Vec<TaskSlot<TaskOutput>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        let mut trace: Vec<PassTrace> = Vec::new();
        let mut dyn_trace: Vec<PassTrace> = Vec::new();
        let (cohort_outcome, dyn_outcome) = run_queued(pool_workers, |scope| {
            for i in 0..tasks.len() {
                let slots = &task_slots;
                let run_task = &run_task;
                scope.submit(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| run_task(i)));
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }));
            }
            let cohort_outcome = drive_edge_cohort(
                &mut cohort,
                &cancel,
                num_vertices,
                edges,
                batch,
                cohort_workers,
                cohort_shards,
                recorder,
                0,
                &mut trace,
                scope,
            );
            let dyn_outcome: CohortOutcome = drive_cohort(
                &mut dyn_cohort,
                &mut dyn_meta,
                &cancel,
                num_vertices,
                &dyn_updates,
                batch,
                cohort_workers,
                cohort_shards,
                recorder,
                0,
                &mut dyn_trace,
                scope,
            );
            (cohort_outcome, dyn_outcome)
        });
        let outputs: Vec<std::thread::Result<(TaskOutput, Duration)>> = task_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("run_queued drained every submitted task")
            })
            .collect();
        let fused_sweeps = cohort_outcome.sweeps + dyn_outcome.sweeps;
        let fused_busy = Duration::from_nanos(cohort_outcome.busy_nanos + dyn_outcome.busy_nanos);
        let copies_evicted = cohort_outcome.evicted + dyn_outcome.evicted;
        for (group, error) in cohort_outcome
            .failures
            .into_iter()
            .chain(dyn_outcome.failures)
        {
            fail_job(&mut job_errors, group, error);
        }
        // Copy-level evictions of contained members join the per-copy
        // error set headed for the retry layer.
        for (group, copy, error) in cohort_outcome
            .copy_failures
            .into_iter()
            .chain(dyn_outcome.copy_failures)
        {
            copy_errors[group].push((copy, error));
        }

        // Fold-loop tallies summed over the fused six-pass and turnstile
        // copies, gathered before the stage objects are consumed below.
        let cohort_tallies: Vec<PassTally> = if R::ENABLED && !cohort.mains.is_empty() {
            let mut tallies = vec![PassTally::default(); MainCopyStages::PASS_NAMES.len()];
            for stages in &cohort.mains {
                for (total, &tally) in tallies.iter_mut().zip(stages.pass_tallies()) {
                    total.merge(tally);
                }
            }
            tallies
        } else {
            Vec::new()
        };
        let dyn_tallies: Vec<PassTally> = if R::ENABLED && !dyn_cohort.is_empty() {
            let mut tallies = vec![PassTally::default(); DynamicCopyStages::PASS_NAMES.len()];
            for stages in &dyn_cohort {
                for (total, &tally) in tallies.iter_mut().zip(stages.pass_tallies()) {
                    total.merge(tally);
                }
            }
            tallies
        } else {
            Vec::new()
        };

        // Fold everything back per job. Contributions are keyed by copy
        // index so both tiers' copies aggregate in copy order regardless
        // of which tier (or in what interleaving the shared pool) executed
        // them.
        let mut contributions: Vec<Vec<(usize, CopyContribution)>> =
            jobs.iter().map(|_| Vec::new()).collect();
        let mut dyn_contributions: Vec<Vec<(usize, DynamicCopyOutcome)>> =
            jobs.iter().map(|_| Vec::new()).collect();
        let mut baseline_outcomes: Vec<Option<degentri_baselines::BaselineOutcome>> =
            jobs.iter().map(|_| None).collect();
        let mut busy_per_job: Vec<Duration> = vec![Duration::ZERO; jobs.len()];
        let mut tasks_per_job: Vec<usize> = vec![0; jobs.len()];
        // The serial degree-table pass is work this run performed: it
        // belongs in busy time just as its edges are in `edges_streamed`.
        let mut busy_total = stats_pass;
        let mut sweeps = if ideal_stats.is_some() { 1u64 } else { 0 };
        for (i, (task, caught)) in tasks.iter().zip(outputs).enumerate() {
            let job = task.job();
            tasks_per_job[job] += 1;
            let copy = match *task {
                Task::MainCopy { copy, .. }
                | Task::IdealCopy { copy, .. }
                | Task::DynamicCopy { copy, .. } => copy,
                Task::Baseline { .. } => 0,
            };
            match caught {
                // The task panicked; its worker survived and its payload
                // fails only this copy's job (or, for contained jobs, only
                // this copy).
                Err(payload) => fail_copy(
                    &contained,
                    &mut job_errors,
                    &mut copy_errors,
                    job,
                    copy,
                    EngineError::panicked(i, payload),
                ),
                Ok((output, spent)) => {
                    busy_per_job[job] += spent;
                    busy_total += spent;
                    match output {
                        TaskOutput::Copy(Ok(contribution)) => {
                            sweeps += contribution.passes as u64;
                            contributions[job].push((copy, contribution));
                        }
                        TaskOutput::Copy(Err(e)) => fail_copy(
                            &contained,
                            &mut job_errors,
                            &mut copy_errors,
                            job,
                            copy,
                            e.into(),
                        ),
                        TaskOutput::Dynamic(Ok(outcome)) => {
                            // Every per-copy turnstile run makes four passes.
                            sweeps += DynamicCopyStages::PASSES as u64;
                            dyn_contributions[job].push((copy, outcome));
                        }
                        TaskOutput::Dynamic(Err(e)) => fail_copy(
                            &contained,
                            &mut job_errors,
                            &mut copy_errors,
                            job,
                            copy,
                            e.into(),
                        ),
                        TaskOutput::Baseline(outcome) => {
                            sweeps += outcome.passes as u64;
                            baseline_outcomes[job] = Some(outcome);
                        }
                        // Deadline/cancel cuts of contained jobs become
                        // copy errors too: copies that completed earlier
                        // survive, keeping a quorum reachable.
                        TaskOutput::Cut(error) => fail_copy(
                            &contained,
                            &mut job_errors,
                            &mut copy_errors,
                            job,
                            copy,
                            error,
                        ),
                    }
                }
            }
        }
        // Fused sweeps and busy time are *measured* by the drivers (shard
        // nanos summed over every shared sweep), not allocated from wall
        // time: the per-tier attribution in the stats below is only useful
        // if the split is real.
        sweeps += fused_sweeps;
        busy_total += fused_busy;
        // Every fused copy started: its task count and pro-rata busy share
        // are attributed whether or not containment later evicted it (the
        // sweeps are shared — per-copy busy is not separable).
        for &(job, _copy) in &cohort_of {
            tasks_per_job[job] += 1;
            busy_per_job[job] += fused_busy.div_f64(cohort_copies.max(1) as f64);
        }
        // The cohorts hold the eviction survivors, in original order.
        let EdgeCohort {
            mains,
            main_meta,
            ideals,
            ideal_meta,
        } = cohort;
        finish_members(
            mains,
            &main_meta,
            &mut job_errors,
            &mut copy_errors,
            &mut contributions,
            |s| {
                s.finish()
                    .map(|o| CopyContribution::from(&o))
                    .map_err(EngineError::from)
            },
        );
        finish_members(
            ideals,
            &ideal_meta,
            &mut job_errors,
            &mut copy_errors,
            &mut contributions,
            |s| {
                s.finish()
                    .map(|o| CopyContribution::from(&o))
                    .map_err(EngineError::from)
            },
        );
        finish_members(
            dyn_cohort,
            &dyn_meta,
            &mut job_errors,
            &mut copy_errors,
            &mut dyn_contributions,
            |s| s.finish().map_err(EngineError::from),
        );

        // ---- Deterministic retries ------------------------------------------
        // Failed copies of retry-enabled jobs re-run on the coordinator,
        // unsharded. Position-keyed seeds make each re-execution
        // bit-identical to the copy never having failed, on any tier and
        // any worker count; only wall-clock time (and the sweep count)
        // grows. Retried attempts probe the same fault sites as fresh
        // per-copy tasks, so transient `FaultKind::FailTimes` windows heal
        // exactly as they would for an independent task.
        let mut retry_tally = RetryTally::default();
        if copy_errors.iter().any(|e| !e.is_empty()) {
            retry_failed_copies(
                &retry_of,
                &deadline_at,
                &cancel,
                &job_errors,
                &mut copy_errors,
                &mut retry_tally,
                |job, copy| {
                    let attempt_started = Instant::now();
                    // Same cut checks as a fresh per-copy task.
                    if cancel.is_cancelled() {
                        return Err(EngineError::Cancelled {
                            completed_passes: 0,
                        });
                    }
                    if deadline_at[job].is_some_and(|d| Instant::now() >= d) {
                        return Err(EngineError::DeadlineExceeded {
                            completed_passes: 0,
                        });
                    }
                    if faults::ENABLED {
                        let key = match &jobs[job].kind {
                            JobKind::Dynamic(_) => {
                                let seed = dyn_configs[job].map(|c| c.seed).unwrap_or_default();
                                dynamic_copy_seed(seed, copy)
                            }
                            _ => {
                                let seed = configs[job].map(|c| c.seed).unwrap_or_default();
                                main_copy_seed(seed, copy)
                            }
                        };
                        if faults::injected(faults::FaultSite::TaskStart, key) {
                            return Err(match &jobs[job].kind {
                                JobKind::Dynamic(_) => {
                                    EngineError::Dynamic(DynamicError::Injected {
                                        site: faults::FaultSite::TaskStart,
                                    })
                                }
                                _ => EngineError::Estimator(EstimatorError::Injected {
                                    site: faults::FaultSite::TaskStart,
                                }),
                            });
                        }
                    }
                    enum Retried {
                        Copy(CopyContribution),
                        Dynamic(DynamicCopyOutcome),
                    }
                    let caught = catch_unwind(AssertUnwindSafe(|| match &jobs[job].kind {
                        JobKind::Main(config) => run_main_copy_with(&plain, config, copy, batch)
                            .map(|o| Retried::Copy(CopyContribution::from(&o)))
                            .map_err(EngineError::from),
                        JobKind::Ideal(config) => {
                            let stats = ideal_stats.as_ref().expect("stats built for ideal jobs");
                            run_ideal_copy_with(&plain, stats, config, copy, batch)
                                .map(|o| Retried::Copy(CopyContribution::from(&o)))
                                .map_err(EngineError::from)
                        }
                        JobKind::Dynamic(config) => {
                            run_dynamic_copy_with(&dyn_plain, config, copy, batch)
                                .map(Retried::Dynamic)
                                .map_err(EngineError::from)
                        }
                        // Baselines are never contained, so their copies
                        // never reach the retry layer.
                        JobKind::Baseline(_) => unreachable!("baseline copies are never retried"),
                    }));
                    let spent = attempt_started.elapsed();
                    busy_per_job[job] += spent;
                    busy_total += spent;
                    match caught {
                        Err(payload) => Err(EngineError::panicked(copy, payload)),
                        Ok(Err(e)) => Err(e),
                        Ok(Ok(Retried::Copy(contribution))) => {
                            sweeps += contribution.passes as u64;
                            contributions[job].push((copy, contribution));
                            Ok(())
                        }
                        Ok(Ok(Retried::Dynamic(outcome))) => {
                            sweeps += DynamicCopyStages::PASSES as u64;
                            dyn_contributions[job].push((copy, outcome));
                            Ok(())
                        }
                    }
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
                let mut errors = std::mem::take(&mut copy_errors[job]);
                errors.sort_by_key(|&(copy, _)| copy);
                let outcome = match job_errors[job].take() {
                    Some(error) => Err(error),
                    None => {
                        let survivors = match &spec.kind {
                            JobKind::Main(_) | JobKind::Ideal(_) => contributions[job].len(),
                            JobKind::Dynamic(_) => dyn_contributions[job].len(),
                            JobKind::Baseline(_) => 1,
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
                            Ok(match &spec.kind {
                                JobKind::Main(_) | JobKind::Ideal(_) => {
                                    // Copies aggregate in copy order
                                    // regardless of which tier executed
                                    // them; a degraded job aggregates
                                    // exactly its surviving copies.
                                    contributions[job].sort_by_key(|&(copy, _)| copy);
                                    let copies: Vec<CopyContribution> =
                                        contributions[job].iter().map(|&(_, c)| c).collect();
                                    JobOutput {
                                        estimation: degentri_core::aggregate_copies(&copies),
                                        dynamic: None,
                                        degraded,
                                    }
                                }
                                JobKind::Baseline(_) => JobOutput {
                                    estimation: baseline_estimation(
                                        baseline_outcomes[job]
                                            .as_ref()
                                            .expect("baseline task completed"),
                                    ),
                                    dynamic: None,
                                    degraded,
                                },
                                JobKind::Dynamic(_) => {
                                    dyn_contributions[job].sort_by_key(|&(copy, _)| copy);
                                    let copies: Vec<DynamicCopyOutcome> =
                                        dyn_contributions[job].iter().map(|&(_, c)| c).collect();
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
                    busy: busy_per_job[job],
                    tasks: tasks_per_job[job],
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
            fused_sweeps,
            per_copy_sweeps: sweeps - fused_sweeps,
            fused_busy,
            per_copy_busy: busy_total.saturating_sub(fused_busy),
        };
        let run_report = if R::ENABLED {
            let mut cohorts: Vec<CohortReport> = Vec::new();
            if edge_members > 0 {
                cohorts.push(CohortReport {
                    label: if ideal_only { "three-pass" } else { "six-pass" }.to_string(),
                    copies: edge_members,
                    workers: cohort_workers,
                    shards: cohort_shards,
                    formation_nanos,
                    passes: if ideal_only {
                        pass_reports(
                            &trace,
                            &IdealCopyStages::<StreamStats>::PASS_NAMES,
                            &cohort_tallies,
                        )
                    } else {
                        pass_reports(&trace, &MainCopyStages::PASS_NAMES, &cohort_tallies)
                    },
                });
            }
            if dyn_members > 0 {
                cohorts.push(CohortReport {
                    label: "turnstile".to_string(),
                    copies: dyn_members,
                    workers: cohort_workers,
                    shards: cohort_shards,
                    formation_nanos: if edge_members > 0 { 0 } else { formation_nanos },
                    passes: pass_reports(&dyn_trace, &DynamicCopyStages::PASS_NAMES, &dyn_tallies),
                });
            }
            Some(assemble_run_report(
                recorder,
                wall,
                pool_workers,
                cohorts,
                &jobs,
                &submitted,
                &tasks_per_job,
                &busy_per_job,
                cohort_copies,
                &recovery,
                faults::injected_count().saturating_sub(faults_before),
                &tiers,
            ))
        } else {
            None
        };

        Ok(EngineReport {
            jobs: results,
            stats: EngineStats::from_run(
                pool_workers,
                intra_task_workers.max(if fused_sweeps > 0 { cohort_workers } else { 1 }),
                tasks.len() + cohort_copies,
                usize::from(edge_members > 0) + usize::from(dyn_members > 0),
                sweeps,
                tiers.fused_sweeps,
                wall,
                busy_total,
                tiers.fused_busy,
                m as u64,
                recovery,
            ),
            run_report,
        })
    }

    /// The update-snapshot twin of [`Engine::run_edges`]'s recording
    /// dispatch.
    fn run_updates(&mut self, num_vertices: usize, updates: &[EdgeUpdate]) -> Result<EngineReport> {
        if self.config.recording {
            let recorder = MetricsRecorder::new(self.config.workers.max(1) * SHARDS_PER_WORKER);
            self.run_updates_rec(num_vertices, updates, &recorder)
        } else {
            self.run_updates_rec(num_vertices, updates, &NoopRecorder)
        }
    }

    fn run_updates_rec<R: Recorder>(
        &mut self,
        num_vertices: usize,
        updates: &[EdgeUpdate],
        recorder: &R,
    ) -> Result<EngineReport> {
        let jobs: Vec<JobSpec> = self.jobs.drain(..).collect();
        let submitted: Vec<Instant> = self.submitted.drain(..).collect();

        // Reject invalid configurations before any work starts.
        self.config.validate()?;
        // Each job's turnstile configuration.
        let mut configs: Vec<&DynamicEstimatorConfig> = Vec::with_capacity(jobs.len());
        for spec in &jobs {
            let JobKind::Dynamic(config) = &spec.kind else {
                return Err(EngineError::unsupported_job(format!(
                    "job '{}' is not a turnstile job; run it over an edge \
                     snapshot (Engine::run or Snapshot::Edges)",
                    spec.label
                )));
            };
            config.validate().map_err(EngineError::from)?;
            configs.push(config);
        }
        if !jobs.is_empty() && updates.is_empty() {
            return Err(EngineError::Dynamic(DynamicError::EmptyStream));
        }
        if self.config.validate_input {
            validate_updates(num_vertices, updates).map_err(EngineError::from)?;
        }
        let batch = self.config.batch_size;
        let started = Instant::now();
        let faults_before = faults::injected_count();
        let cancel = self.cancel.clone();
        // Absolute per-job deadlines, measured from run start.
        let deadline_at: Vec<Option<Instant>> = jobs
            .iter()
            .map(|spec| spec.deadline.map(|limit| started + limit))
            .collect();
        // First contained error per job; `None` = still healthy.
        let mut job_errors: Vec<Option<EngineError>> = vec![None; jobs.len()];
        // Per-job recovery plumbing, mirroring the edge scheduler (every
        // job here is a turnstile job, so only the retry/quorum opt-in
        // matters).
        let retry_of: Vec<Option<RetryPolicy>> = jobs
            .iter()
            .map(|spec| spec.retry.or(self.config.retry_policy))
            .collect();
        for policy in retry_of.iter().flatten() {
            if policy.max_attempts == 0 {
                return Err(EngineError::invalid_config(
                    "retry.max_attempts must be at least 1",
                ));
            }
        }
        let contained: Vec<bool> = jobs
            .iter()
            .enumerate()
            .map(|(job, spec)| retry_of[job].is_some() || spec.quorum.allow_degraded)
            .collect();
        let mut copy_errors: Vec<Vec<(usize, EngineError)>> =
            jobs.iter().map(|_| Vec::new()).collect();

        // Tier split: with fusion enabled every copy joins one cohort;
        // otherwise copies run as per-copy tasks.
        let fusion = self.fusion_enabled();
        let formation_started = Instant::now();
        let mut cohort: Vec<DynamicCopyStages> = Vec::new();
        let mut cohort_of: Vec<(usize, usize)> = Vec::new();
        let mut meta: Vec<CohortMemberMeta> = Vec::new();
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        for (job, spec) in jobs.iter().enumerate() {
            for copy in 0..spec.kind.task_count() {
                if fusion {
                    cohort.push(
                        DynamicCopyStages::new(
                            configs[job],
                            updates.len(),
                            num_vertices,
                            dynamic_copy_seed(configs[job].seed, copy),
                        )
                        .map_err(EngineError::from)?,
                    );
                    cohort_of.push((job, copy));
                    meta.push(CohortMemberMeta {
                        group: job,
                        copy,
                        deadline: deadline_at[job],
                        fault_key: dynamic_copy_seed(configs[job].seed, copy),
                        contained: contained[job],
                    });
                } else {
                    tasks.push((job, copy));
                }
            }
        }
        let formation_nanos = formation_started.elapsed().as_nanos() as u64;
        if R::ENABLED {
            recorder.span(0, Span::CohortFormation, formation_nanos);
        }

        let plain = ShardedDynamicStream::new(num_vertices, updates, 1);
        let cohort_copies = cohort.len();
        let any_cohort = cohort_copies > 0;
        let workers = self.config.effective_workers(tasks.len());

        // Intra-copy shard plan for the per-copy tier, mirroring the edge
        // scheduler (including its rule that a cohort on the shared queue
        // suppresses nested per-task pools). Every turnstile copy shards.
        let shard_workers = if self.config.intra_task_sharding && !tasks.is_empty() && !any_cohort {
            (self.config.workers / tasks.len()).max(1)
        } else {
            1
        };
        let sharded_view: Option<ShardedDynamicStream<'_>> = (shard_workers > 1).then(|| {
            ShardedDynamicStream::new(num_vertices, updates, shard_workers * SHARDS_PER_WORKER)
        });
        let intra_task_workers = if sharded_view.is_some() {
            shard_workers
        } else {
            1
        };

        // One per-copy task body, with the same cut checks as the edge
        // scheduler; the fault key is the copy's dynamic per-copy seed.
        let run_task = |i: usize| -> (DynTaskOutput, Duration) {
            let (job, copy) = tasks[i];
            let config = configs[job];
            let task_started = Instant::now();
            let cut = if cancel.is_cancelled() {
                Some(EngineError::Cancelled {
                    completed_passes: 0,
                })
            } else if deadline_at[job].is_some_and(|d| Instant::now() >= d) {
                Some(EngineError::DeadlineExceeded {
                    completed_passes: 0,
                })
            } else if faults::ENABLED
                && faults::injected(
                    faults::FaultSite::TaskStart,
                    dynamic_copy_seed(config.seed, copy),
                )
            {
                Some(EngineError::Dynamic(DynamicError::Injected {
                    site: faults::FaultSite::TaskStart,
                }))
            } else {
                None
            };
            if let Some(error) = cut {
                return (DynTaskOutput::Cut(error), task_started.elapsed());
            }
            let output = match &sharded_view {
                Some(view) => run_dynamic_copy_sharded(view, config, copy, batch, shard_workers),
                None => run_dynamic_copy_with(&plain, config, copy, batch),
            };
            let spent = task_started.elapsed();
            if R::ENABLED {
                let nanos = spent.as_nanos() as u64;
                recorder.span(i, Span::PerCopyTask, nanos);
                recorder.observe(i, Hist::TaskNanos, nanos);
            }
            (DynTaskOutput::Copy(output), spent)
        };

        // ---- One pool, both tiers ------------------------------------------
        // Identical overlap scheme to the edge scheduler: per-copy tasks
        // queue as coarse jobs, the fused driver's sweep shards cut to the
        // front of the same queue, panics park in per-task slots.
        let (cohort_workers, cohort_shards) = self.cohort_parallelism();
        let pool_workers = if any_cohort {
            workers.max(cohort_workers)
        } else {
            workers.max(1)
        };
        let task_slots: Vec<TaskSlot<DynTaskOutput>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        let mut trace: Vec<PassTrace> = Vec::new();
        let cohort_outcome: CohortOutcome = run_queued(pool_workers, |scope| {
            for i in 0..tasks.len() {
                let slots = &task_slots;
                let run_task = &run_task;
                scope.submit(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| run_task(i)));
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }));
            }
            drive_cohort(
                &mut cohort,
                &mut meta,
                &cancel,
                num_vertices,
                updates,
                batch,
                cohort_workers,
                cohort_shards,
                recorder,
                0,
                &mut trace,
                scope,
            )
        });
        let outputs: Vec<std::thread::Result<(DynTaskOutput, Duration)>> = task_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("run_queued drained every submitted task")
            })
            .collect();
        let fused_sweeps = cohort_outcome.sweeps;
        let fused_busy = Duration::from_nanos(cohort_outcome.busy_nanos);
        let copies_evicted = cohort_outcome.evicted;
        for (group, error) in cohort_outcome.failures {
            fail_job(&mut job_errors, group, error);
        }
        for (group, copy, error) in cohort_outcome.copy_failures {
            copy_errors[group].push((copy, error));
        }

        // Fold-loop tallies summed over the cohort's copies, gathered
        // before the stage objects are consumed below.
        let cohort_tallies: Vec<PassTally> = if R::ENABLED && !cohort.is_empty() {
            let mut tallies = vec![PassTally::default(); DynamicCopyStages::PASS_NAMES.len()];
            for stages in &cohort {
                for (total, &tally) in tallies.iter_mut().zip(stages.pass_tallies()) {
                    total.merge(tally);
                }
            }
            tallies
        } else {
            Vec::new()
        };

        // Fold copy outputs back per job, in deterministic task order.
        let mut contributions: Vec<Vec<(usize, DynamicCopyOutcome)>> =
            jobs.iter().map(|_| Vec::new()).collect();
        let mut busy_per_job: Vec<Duration> = vec![Duration::ZERO; jobs.len()];
        let mut tasks_per_job: Vec<usize> = vec![0; jobs.len()];
        let mut busy_total = Duration::ZERO;
        let mut sweeps = 0u64;
        for (i, (&(job, copy), caught)) in tasks.iter().zip(outputs).enumerate() {
            tasks_per_job[job] += 1;
            match caught {
                Err(payload) => fail_copy(
                    &contained,
                    &mut job_errors,
                    &mut copy_errors,
                    job,
                    copy,
                    EngineError::panicked(i, payload),
                ),
                Ok((output, spent)) => {
                    busy_per_job[job] += spent;
                    busy_total += spent;
                    match output {
                        DynTaskOutput::Copy(Ok(contribution)) => {
                            // Every per-copy turnstile run makes four passes.
                            sweeps += DynamicCopyStages::PASSES as u64;
                            contributions[job].push((copy, contribution));
                        }
                        DynTaskOutput::Copy(Err(e)) => fail_copy(
                            &contained,
                            &mut job_errors,
                            &mut copy_errors,
                            job,
                            copy,
                            e.into(),
                        ),
                        DynTaskOutput::Cut(error) => fail_copy(
                            &contained,
                            &mut job_errors,
                            &mut copy_errors,
                            job,
                            copy,
                            error,
                        ),
                    }
                }
            }
        }
        sweeps += fused_sweeps;
        // Measured fused busy time, as in the edge scheduler.
        busy_total += fused_busy;
        // Task/busy attribution covers every copy that started, evicted or
        // not; `cohort`/`meta` below hold only the survivors.
        for &(job, _copy) in &cohort_of {
            tasks_per_job[job] += 1;
            busy_per_job[job] += fused_busy.div_f64(cohort_copies.max(1) as f64);
        }
        finish_members(
            cohort,
            &meta,
            &mut job_errors,
            &mut copy_errors,
            &mut contributions,
            |s| s.finish().map_err(EngineError::from),
        );

        // ---- Deterministic retries ------------------------------------------
        // Same layer as the edge scheduler: failed turnstile copies re-run
        // on the coordinator, bit-identically by position-keyed seeds.
        let mut retry_tally = RetryTally::default();
        if copy_errors.iter().any(|e| !e.is_empty()) {
            retry_failed_copies(
                &retry_of,
                &deadline_at,
                &cancel,
                &job_errors,
                &mut copy_errors,
                &mut retry_tally,
                |job, copy| {
                    let attempt_started = Instant::now();
                    if cancel.is_cancelled() {
                        return Err(EngineError::Cancelled {
                            completed_passes: 0,
                        });
                    }
                    if deadline_at[job].is_some_and(|d| Instant::now() >= d) {
                        return Err(EngineError::DeadlineExceeded {
                            completed_passes: 0,
                        });
                    }
                    if faults::ENABLED
                        && faults::injected(
                            faults::FaultSite::TaskStart,
                            dynamic_copy_seed(configs[job].seed, copy),
                        )
                    {
                        return Err(EngineError::Dynamic(DynamicError::Injected {
                            site: faults::FaultSite::TaskStart,
                        }));
                    }
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        run_dynamic_copy_with(&plain, configs[job], copy, batch)
                    }));
                    let spent = attempt_started.elapsed();
                    busy_per_job[job] += spent;
                    busy_total += spent;
                    match caught {
                        Err(payload) => Err(EngineError::panicked(copy, payload)),
                        Ok(Err(e)) => Err(e.into()),
                        Ok(Ok(outcome)) => {
                            sweeps += DynamicCopyStages::PASSES as u64;
                            contributions[job].push((copy, outcome));
                            Ok(())
                        }
                    }
                },
            );
        }
        let wall = started.elapsed();

        let mut jobs_degraded = 0usize;
        let results: Vec<JobResult> = jobs
            .iter()
            .enumerate()
            .map(|(job, spec)| {
                let mut errors = std::mem::take(&mut copy_errors[job]);
                errors.sort_by_key(|&(copy, _)| copy);
                let outcome = match job_errors[job].take() {
                    Some(error) => Err(error),
                    None => {
                        let survivors = contributions[job].len();
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
                            // which tier executed them; a degraded job
                            // aggregates exactly its surviving copies.
                            contributions[job].sort_by_key(|&(copy, _)| copy);
                            let copies: Vec<DynamicCopyOutcome> =
                                contributions[job].iter().map(|&(_, c)| c).collect();
                            let outcome = aggregate_dynamic_copies(&copies);
                            Ok(JobOutput {
                                estimation: dynamic_estimation(&outcome),
                                dynamic: Some(outcome),
                                degraded,
                            })
                        }
                    }
                };
                JobResult {
                    label: spec.label.clone(),
                    outcome,
                    busy: busy_per_job[job],
                    tasks: tasks_per_job[job],
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
            fused_sweeps,
            per_copy_sweeps: sweeps - fused_sweeps,
            fused_busy,
            per_copy_busy: busy_total.saturating_sub(fused_busy),
        };
        let run_report = if R::ENABLED {
            let cohorts: Vec<CohortReport> = (cohort_copies > 0)
                .then(|| CohortReport {
                    label: "turnstile".to_string(),
                    copies: cohort_copies,
                    workers: cohort_workers,
                    shards: cohort_shards,
                    formation_nanos,
                    passes: pass_reports(&trace, &DynamicCopyStages::PASS_NAMES, &cohort_tallies),
                })
                .into_iter()
                .collect();
            Some(assemble_run_report(
                recorder,
                wall,
                pool_workers,
                cohorts,
                &jobs,
                &submitted,
                &tasks_per_job,
                &busy_per_job,
                cohort_copies,
                &recovery,
                faults::injected_count().saturating_sub(faults_before),
                &tiers,
            ))
        } else {
            None
        };

        Ok(EngineReport {
            jobs: results,
            stats: EngineStats::from_run(
                pool_workers,
                intra_task_workers.max(if fused_sweeps > 0 { cohort_workers } else { 1 }),
                tasks.len() + cohort_copies,
                usize::from(cohort_copies > 0),
                sweeps,
                tiers.fused_sweeps,
                wall,
                busy_total,
                tiers.fused_busy,
                updates.len() as u64,
                recovery,
            ),
            run_report,
        })
    }
}

/// Consumes one cohort group's eviction survivors: finishes each member
/// under panic containment, pushing its contribution (keyed by copy index)
/// or failing its job with the first error — for
/// [`contained`](CohortMemberMeta::contained) members, failing only the
/// copy, so its siblings keep contributing toward a quorum.
fn finish_members<C, T>(
    copies: Vec<C>,
    meta: &[CohortMemberMeta],
    job_errors: &mut [Option<EngineError>],
    copy_errors: &mut [Vec<(usize, EngineError)>],
    out: &mut [Vec<(usize, T)>],
    finish: impl Fn(C) -> Result<T>,
) {
    for (k, (stages, mm)) in copies.into_iter().zip(meta).enumerate() {
        let job = mm.group;
        if job_errors[job].is_some() {
            continue;
        }
        // `AssertUnwindSafe`: a panicking finish tears only this copy,
        // whose job (or copy) is failed here.
        match catch_unwind(AssertUnwindSafe(|| finish(stages))) {
            Ok(Ok(outcome)) => out[job].push((mm.copy, outcome)),
            Ok(Err(e)) => {
                if mm.contained {
                    copy_errors[job].push((mm.copy, e));
                } else {
                    fail_job(job_errors, job, e);
                }
            }
            Err(payload) => {
                let error = EngineError::panicked(k, payload);
                if mm.contained {
                    copy_errors[job].push((mm.copy, error));
                } else {
                    fail_job(job_errors, job, error);
                }
            }
        }
    }
}

/// The run's sweep and busy totals split by execution tier: fused cohort
/// sweeps (measured by the drivers) versus per-copy tasks plus the shared
/// degree-table pass.
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
    fn fused_execution_matches_per_copy_scheduling() {
        let graph = degentri_gen::wheel(300).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(3));
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(299)
            .copies(3)
            .seed(5)
            .build();
        let mut engine = Engine::with_workers(1);
        engine.submit(JobSpec::main("fused", config.clone()));
        let fused = engine.run(&stream).unwrap();
        assert_eq!(fused.stats.fused_cohorts, 1);
        // Three copies of six passes in six shared sweeps.
        assert_eq!(fused.stats.sweeps_executed, 6);
        assert_eq!(fused.stats.edges_streamed, 6 * graph.num_edges() as u64);

        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(1)
                .fused_execution(false)
                .try_build()
                .unwrap(),
        );
        engine.submit(JobSpec::main("per-copy", config));
        let per_copy = engine.run(&stream).unwrap();
        assert_eq!(per_copy.stats.fused_cohorts, 0);
        assert_eq!(per_copy.stats.sweeps_executed, 18);
        assert_eq!(
            fused.jobs[0].estimation().estimate.to_bits(),
            per_copy.jobs[0].estimation().estimate.to_bits()
        );
        assert_eq!(
            fused.jobs[0].estimation().copy_estimates,
            per_copy.jobs[0].estimation().copy_estimates
        );
    }

    #[test]
    fn spare_workers_trigger_intra_copy_sharding() {
        let graph = degentri_gen::wheel(300).unwrap();
        let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(3));
        let config = EstimatorConfig::builder()
            .kappa(3)
            .triangle_lower_bound(299)
            .copies(2)
            .seed(5)
            .build();
        // 8 workers for 2 per-copy tasks (fusion off): 4 intra-copy shard
        // workers each.
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(8)
                .fused_execution(false)
                .try_build()
                .unwrap(),
        );
        engine.submit(JobSpec::main("sharded", config.clone()));
        let sharded = engine.run(&stream).unwrap();
        assert_eq!(sharded.stats.intra_task_workers, 4);

        // Copy-only scheduling (sharding disabled) must be bit-identical.
        let mut engine = Engine::new(
            EngineConfig::builder()
                .workers(8)
                .fused_execution(false)
                .intra_task_sharding(false)
                .try_build()
                .unwrap(),
        );
        engine.submit(JobSpec::main("copy-only", config.clone()));
        let copy_only = engine.run(&stream).unwrap();
        assert_eq!(copy_only.stats.intra_task_workers, 1);
        assert_eq!(
            sharded.jobs[0].estimation().estimate.to_bits(),
            copy_only.jobs[0].estimation().estimate.to_bits()
        );

        // ... and so must the fused path, sharded or not.
        let mut engine = Engine::with_workers(8);
        engine.submit(JobSpec::main("fused", config));
        let fused = engine.run(&stream).unwrap();
        assert_eq!(fused.stats.fused_cohorts, 1);
        assert_eq!(
            fused.jobs[0].estimation().copy_estimates,
            copy_only.jobs[0].estimation().copy_estimates
        );
    }
}
