//! Job specifications and per-job results.

use std::time::Duration;

use degentri_core::{EstimatorConfig, TriangleEstimation};
use degentri_dynamic::{DynamicEstimatorConfig, DynamicOutcome};

/// Per-job quorum policy gating graceful degradation.
///
/// The estimators aggregate independent copies (median-of-means / median),
/// so a job that loses a copy is less accurate, not dead. With
/// `allow_degraded` set, a job whose copy failures survive the retry layer
/// still succeeds as long as at least `min_copies` copies completed: its
/// output aggregates exactly the surviving copies and carries a
/// [`Degradation`] record. The default keeps today's all-or-nothing
/// semantics (any copy failure fails the job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    /// Minimum surviving copies required to accept a degraded result
    /// (effectively at least 1 — an aggregate over zero copies is
    /// meaningless, so `0` behaves like `1`).
    pub min_copies: usize,
    /// Whether the job may succeed with fewer copies than configured.
    pub allow_degraded: bool,
}

impl QuorumPolicy {
    /// Accept any non-empty surviving subset.
    pub fn best_effort() -> Self {
        QuorumPolicy {
            min_copies: 1,
            allow_degraded: true,
        }
    }

    /// Require at least `min_copies` survivors.
    pub fn at_least(min_copies: usize) -> Self {
        QuorumPolicy {
            min_copies,
            allow_degraded: true,
        }
    }
}

impl Default for QuorumPolicy {
    /// All-or-nothing: any copy failure fails the job.
    fn default() -> Self {
        QuorumPolicy {
            min_copies: 0,
            allow_degraded: false,
        }
    }
}

/// Backoff schedule between retry attempts of a failed copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// The same delay before every retry.
    Fixed(Duration),
    /// `base`, `2·base`, `4·base`, … capped at `cap`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Upper bound on any single delay.
        cap: Duration,
    },
}

/// Deterministic retry policy for failed copies.
///
/// Copy seeds are position-keyed (`RngMode::Counter`), so re-running only
/// the failed copies is bit-identical to an undisturbed run — retrying
/// never perturbs results, it only spends time. Retries run on the
/// calling thread once the cohorts finish, each failed copy driven again
/// as a one-member cohort; they respect the job deadline and the cancel
/// token (a retry that cannot fit before the deadline short-circuits
/// instead of sleeping), and a copy that exhausts its attempts is
/// quarantined into the degraded path governed by [`QuorumPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per copy including the original execution (≥ 1;
    /// `1` means no retries). Validated when a run starts.
    pub max_attempts: usize,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// Optional cap on total retries across all copies of one job; when
    /// spent, remaining failed copies quarantine immediately.
    pub retry_budget: Option<usize>,
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts per copy, no backoff
    /// delay, and no per-job budget.
    pub fn new(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: Backoff::Fixed(Duration::ZERO),
            retry_budget: None,
        }
    }

    /// Sets the backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Caps total retries across all copies of the job.
    pub fn with_budget(mut self, retries: usize) -> Self {
        self.retry_budget = Some(retries);
        self
    }

    /// The delay before retry number `retry` (1-based). Pure function, so
    /// the schedule is inspectable and testable without sleeping.
    pub fn delay(&self, retry: usize) -> Duration {
        match self.backoff {
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, cap } => {
                // Saturate the shift well before Duration overflows.
                let doublings = retry.saturating_sub(1).min(32) as u32;
                base.saturating_mul(1u32 << doublings.min(31)).min(cap)
            }
        }
    }
}

/// How a degraded job's output was reduced: which copies were lost and
/// what the surviving aggregate is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Copies whose results the aggregate uses.
    pub copies_used: usize,
    /// Copies lost to unrecovered failures.
    pub copies_lost: usize,
    /// The per-copy errors, in copy order (each copy's first unrecovered
    /// error).
    pub copy_errors: Vec<(usize, crate::EngineError)>,
}

/// What a job runs: an estimator whose copies the engine drives as stage
/// objects. The Table-1 baselines are not engine jobs; callers run them
/// directly through `degentri_baselines::StreamingTriangleCounter`.
#[derive(Debug)]
pub enum JobKind {
    /// The paper's six-pass estimator (Algorithm 2), `config.copies` copies
    /// aggregated by median-of-means.
    Main(EstimatorConfig),
    /// The three-pass ideal (degree-oracle) estimator of Section 4; the
    /// engine builds the degree table once per run and shares it.
    Ideal(EstimatorConfig),
    /// The turnstile (insert/delete) estimator of `degentri-dynamic`,
    /// `config.copies` copies aggregated by their median. Runs over a
    /// shared dynamic snapshot through
    /// [`Engine::run_dynamic`](crate::Engine::run_dynamic).
    Dynamic(DynamicEstimatorConfig),
}

impl JobKind {
    /// The insert-only estimator configuration, when the job has one.
    pub fn config(&self) -> Option<&EstimatorConfig> {
        match self {
            JobKind::Main(c) | JobKind::Ideal(c) => Some(c),
            JobKind::Dynamic(_) => None,
        }
    }

    /// The turnstile estimator configuration, when the job has one.
    pub fn dynamic_config(&self) -> Option<&DynamicEstimatorConfig> {
        match self {
            JobKind::Dynamic(c) => Some(c),
            _ => None,
        }
    }

    /// Number of schedulable tasks this job expands into — the engine
    /// schedules exactly this many. Zero only for a `copies = 0`
    /// configuration, which [`Engine::run`](crate::Engine::run) rejects
    /// during validation before expanding any job.
    pub fn task_count(&self) -> usize {
        match self {
            JobKind::Main(c) | JobKind::Ideal(c) => c.copies,
            JobKind::Dynamic(c) => c.copies,
        }
    }
}

/// One unit of work submitted to the engine.
#[derive(Debug)]
pub struct JobSpec {
    /// Human-readable label echoed in the [`JobResult`].
    pub label: String,
    /// What to run.
    pub kind: JobKind,
    /// Optional wall-clock budget, measured from run start. When it
    /// elapses, this job (alone) is cut at the next pass/task boundary with
    /// [`EngineError::DeadlineExceeded`](crate::EngineError::DeadlineExceeded);
    /// batchmates sharing the run are unaffected.
    pub deadline: Option<Duration>,
    /// Quorum policy for graceful degradation (default: all-or-nothing).
    pub quorum: QuorumPolicy,
    /// Retry policy for this job's failed copies, overriding the engine's
    /// [`retry_policy`](crate::EngineConfig::retry_policy) default; `None`
    /// falls back to the engine default (which itself defaults to no
    /// retries).
    pub retry: Option<RetryPolicy>,
}

impl JobSpec {
    /// A job running the paper's six-pass estimator.
    pub fn main(label: impl Into<String>, config: EstimatorConfig) -> Self {
        JobSpec {
            label: label.into(),
            kind: JobKind::Main(config),
            deadline: None,
            quorum: QuorumPolicy::default(),
            retry: None,
        }
    }

    /// A job running the ideal (degree-oracle) estimator.
    pub fn ideal(label: impl Into<String>, config: EstimatorConfig) -> Self {
        JobSpec {
            label: label.into(),
            kind: JobKind::Ideal(config),
            deadline: None,
            quorum: QuorumPolicy::default(),
            retry: None,
        }
    }

    /// A job running the turnstile (insert/delete) estimator over a shared
    /// dynamic snapshot (execute with
    /// [`Engine::run_dynamic`](crate::Engine::run_dynamic)) — or over a
    /// shared edge snapshot, which serves the copies the same edges as an
    /// insert-only update stream.
    pub fn dynamic(label: impl Into<String>, config: DynamicEstimatorConfig) -> Self {
        JobSpec {
            label: label.into(),
            kind: JobKind::Dynamic(config),
            deadline: None,
            quorum: QuorumPolicy::default(),
            retry: None,
        }
    }

    /// Caps this job's wall-clock time, measured from run start.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Sets the quorum policy for graceful degradation.
    pub fn quorum(mut self, policy: QuorumPolicy) -> Self {
        self.quorum = policy;
        self
    }

    /// Sets this job's retry policy (overriding the engine default).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }
}

/// The successful payload of a [`JobResult`].
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The aggregated estimation (for turnstile jobs: the median-of-copies
    /// outcome mapped into the common shape).
    pub estimation: TriangleEstimation,
    /// The full turnstile outcome (surviving edges, sketch counts, …) when
    /// this was a [`JobKind::Dynamic`] job; `None` otherwise.
    pub dynamic: Option<DynamicOutcome>,
    /// Present when the job succeeded with fewer copies than configured
    /// (copy failures survived the retry layer but a [`QuorumPolicy`]
    /// accepted the surviving subset); `None` for a full-strength result.
    pub degraded: Option<Degradation>,
}

/// Result of one job executed by the engine.
///
/// Execution-time failures (a panicking copy, an estimator error, a blown
/// deadline, cancellation) are contained *per job*: they land in this
/// struct's [`outcome`](JobResult::outcome) instead of failing the run, so
/// one bad job never discards its batchmates' finished work. Pre-flight
/// failures (invalid configuration, empty streams, jobs submitted to the
/// wrong entry point) still fail the whole run before any job starts.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The label of the submitted [`JobSpec`].
    pub label: String,
    /// The job's output, or the first error its tasks hit (in deterministic
    /// task order).
    pub outcome: Result<JobOutput, crate::EngineError>,
    /// Total CPU-busy time the job's tasks consumed across all workers
    /// (larger than the job's share of wall time when copies overlap;
    /// partial for jobs that failed mid-run).
    pub busy: Duration,
    /// Number of estimator copies that started.
    pub tasks: usize,
}

impl JobResult {
    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The contained error, when the job failed.
    pub fn error(&self) -> Option<&crate::EngineError> {
        self.outcome.as_ref().err()
    }

    /// The successful output, when there is one.
    pub fn output(&self) -> Option<&JobOutput> {
        self.outcome.as_ref().ok()
    }

    /// The aggregated estimation of a successful job.
    ///
    /// # Panics
    ///
    /// Panics when the job failed — check [`JobResult::is_ok`] or match on
    /// [`JobResult::outcome`] first if failures are expected.
    pub fn estimation(&self) -> &TriangleEstimation {
        match &self.outcome {
            Ok(output) => &output.estimation,
            Err(e) => panic!("job '{}' failed: {e}", self.label),
        }
    }

    /// The aggregated estimation of a successful job, by value.
    ///
    /// # Panics
    ///
    /// Panics when the job failed, like [`JobResult::estimation`].
    pub fn into_estimation(self) -> TriangleEstimation {
        match self.outcome {
            Ok(output) => output.estimation,
            Err(e) => panic!("job '{}' failed: {e}", self.label),
        }
    }

    /// The full turnstile outcome of a successful [`JobKind::Dynamic`] job;
    /// `None` for non-dynamic or failed jobs.
    pub fn dynamic(&self) -> Option<&DynamicOutcome> {
        self.output().and_then(|o| o.dynamic.as_ref())
    }

    /// The degradation record of a job that succeeded on a surviving-copy
    /// quorum; `None` for full-strength or failed jobs.
    pub fn degradation(&self) -> Option<&Degradation> {
        self.output().and_then(|o| o.degraded.as_ref())
    }

    /// Whether the job succeeded but with fewer copies than configured.
    pub fn is_degraded(&self) -> bool {
        self.degradation().is_some()
    }
}

/// Converts a turnstile outcome into the engine's common result shape
/// (the full outcome also travels on [`JobResult::dynamic`]).
pub(crate) fn dynamic_estimation(outcome: &DynamicOutcome) -> TriangleEstimation {
    TriangleEstimation {
        estimate: outcome.estimate,
        copy_estimates: outcome.copy_estimates.clone(),
        passes_per_copy: outcome.passes,
        space: outcome.space,
        copies: outcome.copies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degentri_stream::SpaceReport;

    #[test]
    fn job_kinds_expose_config_and_task_counts() {
        let config = EstimatorConfig::builder().copies(5).build();
        let main = JobSpec::main("m", config.clone());
        assert_eq!(main.kind.task_count(), 5);
        assert_eq!(main.kind.config().unwrap().copies, 5);
        let ideal = JobSpec::ideal("i", config);
        assert_eq!(ideal.kind.task_count(), 5);
        assert!(format!("{:?}", ideal.kind).contains("Ideal"));
    }

    #[test]
    fn dynamic_jobs_expose_their_config() {
        let config = DynamicEstimatorConfig::new(3, 50).with_copies(4);
        let job = JobSpec::dynamic("turnstile", config);
        assert_eq!(job.kind.task_count(), 4);
        assert!(job.kind.config().is_none());
        assert_eq!(job.kind.dynamic_config().unwrap().copies, 4);
        assert!(format!("{:?}", job.kind).contains("Dynamic"));
    }

    #[test]
    fn deadlines_attach_to_any_job_kind() {
        let config = EstimatorConfig::builder().copies(2).build();
        let job = JobSpec::main("m", config).deadline(Duration::from_millis(250));
        assert_eq!(job.deadline, Some(Duration::from_millis(250)));
        let plain = JobSpec::dynamic("d", DynamicEstimatorConfig::new(3, 50));
        assert_eq!(plain.deadline, None);
    }

    #[test]
    fn job_results_expose_outcomes_and_contained_errors() {
        let estimation = TriangleEstimation {
            estimate: 5.0,
            copy_estimates: vec![5.0],
            passes_per_copy: 6,
            space: SpaceReport {
                peak_words: 1,
                final_words: 1,
            },
            copies: 1,
        };
        let ok = JobResult {
            label: "ok".into(),
            outcome: Ok(JobOutput {
                estimation,
                dynamic: None,
                degraded: None,
            }),
            busy: Duration::ZERO,
            tasks: 1,
        };
        assert!(ok.is_ok());
        assert!(ok.error().is_none());
        assert_eq!(ok.estimation().estimate, 5.0);
        assert!(ok.dynamic().is_none());
        let failed = JobResult {
            label: "bad".into(),
            outcome: Err(crate::EngineError::DeadlineExceeded {
                completed_passes: 1,
            }),
            busy: Duration::ZERO,
            tasks: 1,
        };
        assert!(!failed.is_ok());
        assert!(failed.output().is_none());
        assert!(matches!(
            failed.error(),
            Some(crate::EngineError::DeadlineExceeded {
                completed_passes: 1
            })
        ));
        assert!(failed.dynamic().is_none());
        let caught = std::panic::catch_unwind(|| failed.estimation().estimate);
        assert!(caught.is_err(), "estimation() panics on a failed job");
    }

    #[test]
    fn recovery_policies_attach_to_jobs_and_default_off() {
        let config = EstimatorConfig::builder().copies(3).build();
        let plain = JobSpec::main("plain", config.clone());
        assert_eq!(plain.quorum, QuorumPolicy::default());
        assert!(!plain.quorum.allow_degraded);
        assert!(plain.retry.is_none());
        let tuned = JobSpec::main("tuned", config)
            .quorum(QuorumPolicy::at_least(2))
            .retry(RetryPolicy::new(3).with_budget(5));
        assert_eq!(tuned.quorum.min_copies, 2);
        assert!(tuned.quorum.allow_degraded);
        assert_eq!(tuned.retry.unwrap().max_attempts, 3);
        assert_eq!(tuned.retry.unwrap().retry_budget, Some(5));
        assert!(QuorumPolicy::best_effort().allow_degraded);
        assert_eq!(QuorumPolicy::best_effort().min_copies, 1);
    }

    #[test]
    fn backoff_schedules_are_pure_and_capped() {
        let fixed = RetryPolicy::new(4).with_backoff(Backoff::Fixed(Duration::from_millis(7)));
        assert_eq!(fixed.delay(1), Duration::from_millis(7));
        assert_eq!(fixed.delay(9), Duration::from_millis(7));
        let expo = RetryPolicy::new(8).with_backoff(Backoff::Exponential {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(45),
        });
        assert_eq!(expo.delay(1), Duration::from_millis(10));
        assert_eq!(expo.delay(2), Duration::from_millis(20));
        assert_eq!(expo.delay(3), Duration::from_millis(40));
        assert_eq!(expo.delay(4), Duration::from_millis(45)); // capped
        assert_eq!(expo.delay(1000), Duration::from_millis(45)); // no overflow
        assert_eq!(RetryPolicy::new(2).delay(1), Duration::ZERO);
    }
}
