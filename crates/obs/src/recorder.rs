//! The [`Recorder`] trait and its zero-cost disabled implementation.
//!
//! Instrumented code is generic over `R: Recorder` and branches on the
//! associated `const ENABLED`. With [`NoopRecorder`] the constant is
//! `false`: every `if R::ENABLED { … }` block is dead code after
//! monomorphization and every trait call inlines to an empty body, so the
//! disabled path compiles to exactly the uninstrumented program.
//!
//! Metric identities are closed enums rather than string keys so the
//! enabled recorder can use flat fixed-size arrays (no hashing, no
//! allocation on the hot path) and the JSON schema stays stable.

use crate::metrics::MetricsSnapshot;

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Shared sweeps executed over a snapshot (fused cohorts count one
    /// sweep per pass regardless of copy count).
    SweepsExecuted,
    /// Stream items (edges or updates) delivered into stage folds, summed
    /// over copies — a fused sweep feeding 4 copies counts `4 × m`.
    ItemsFolded,
    /// Probe-structure hits inside stage folds (tracked-endpoint bumps,
    /// neighbor-sample offers, closure-edge matches).
    ProbeHits,
    /// ℓ₀-sketch updates applied by the turnstile estimator's folds.
    SketchUpdates,
    /// Copies executed inside fused cohorts.
    CohortCopies,
    /// Estimator copies the run's cohorts started (a retried copy counts
    /// once).
    TasksExecuted,
    /// Jobs completed by the run.
    JobsCompleted,
    /// Jobs that finished with a contained per-job error.
    JobsFailed,
    /// Copies evicted from fused cohorts by containment (a failing job's
    /// copies leave the union; survivors are unperturbed).
    CohortEvictions,
    /// Faults fired by an installed fault-injection plan (always 0 without
    /// the `fault-inject` feature).
    FaultsInjected,
    /// Shared sweeps executed by the cohort driver (one sweep serves every
    /// cohort member; retried one-member cohorts included; subset of
    /// [`Counter::SweepsExecuted`]).
    FusedSweeps,
    /// Sweeps outside the cohort driver: the oracle stats pass
    /// (`SweepsExecuted - FusedSweeps`).
    PerCopySweeps,
    /// Measured shard-nanoseconds spent inside cohort sweeps and retries.
    FusedBusyNanos,
    /// Measured nanoseconds outside the cohort driver: the serial set-up
    /// before the cohorts form.
    PerCopyBusyNanos,
    /// Retry attempts executed for failed copies (each re-execution of
    /// one copy counts once, successful or not).
    CopiesRetried,
    /// Copies whose failures survived the retry layer and entered the
    /// quorum-governed degraded path.
    CopiesQuarantined,
    /// Jobs that succeeded on a surviving-copy quorum with fewer copies
    /// than configured.
    JobsDegraded,
    /// Wall-clock nanoseconds the retry layer slept in backoff delays.
    RetryBackoffNanos,
}

impl Counter {
    /// Number of counters (size of the flat per-lane array).
    pub const COUNT: usize = 18;
    /// All counters, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SweepsExecuted,
        Counter::ItemsFolded,
        Counter::ProbeHits,
        Counter::SketchUpdates,
        Counter::CohortCopies,
        Counter::TasksExecuted,
        Counter::JobsCompleted,
        Counter::JobsFailed,
        Counter::CohortEvictions,
        Counter::FaultsInjected,
        Counter::FusedSweeps,
        Counter::PerCopySweeps,
        Counter::FusedBusyNanos,
        Counter::PerCopyBusyNanos,
        Counter::CopiesRetried,
        Counter::CopiesQuarantined,
        Counter::JobsDegraded,
        Counter::RetryBackoffNanos,
    ];

    /// Flat array index of this counter.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::SweepsExecuted => "sweeps_executed",
            Counter::ItemsFolded => "items_folded",
            Counter::ProbeHits => "probe_hits",
            Counter::SketchUpdates => "sketch_updates",
            Counter::CohortCopies => "cohort_copies",
            Counter::TasksExecuted => "tasks_executed",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsFailed => "jobs_failed",
            Counter::CohortEvictions => "cohort_evictions",
            Counter::FaultsInjected => "faults_injected",
            Counter::FusedSweeps => "fused_sweeps",
            Counter::PerCopySweeps => "per_copy_sweeps",
            Counter::FusedBusyNanos => "fused_busy_nanos",
            Counter::PerCopyBusyNanos => "per_copy_busy_nanos",
            Counter::CopiesRetried => "copies_retried",
            Counter::CopiesQuarantined => "copies_quarantined",
            Counter::JobsDegraded => "jobs_degraded",
            Counter::RetryBackoffNanos => "retry_backoff_nanos",
        }
    }

    /// Inverse of [`Counter::name`].
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Span timers: total nanoseconds and invocation count per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Building a cohort's staged copies before the first sweep.
    CohortFormation,
    /// Building the per-pass union probe structures (cohort plan).
    PlanBuild,
    /// One shared sweep of a fused cohort (all copies, all shards).
    FusedSweep,
    /// The shared pre-pass computing stream statistics for oracle jobs.
    StatsPass,
}

impl Span {
    /// Number of spans (size of the flat per-lane arrays).
    pub const COUNT: usize = 4;
    /// All spans, in index order.
    pub const ALL: [Span; Span::COUNT] = [
        Span::CohortFormation,
        Span::PlanBuild,
        Span::FusedSweep,
        Span::StatsPass,
    ];

    /// Flat array index of this span.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Span::CohortFormation => "cohort_formation",
            Span::PlanBuild => "plan_build",
            Span::FusedSweep => "fused_sweep",
            Span::StatsPass => "stats_pass",
        }
    }

    /// Inverse of [`Span::name`].
    pub fn from_name(name: &str) -> Option<Span> {
        Span::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Log2-bucketed value distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Wall nanoseconds of one shared pass/sweep.
    PassNanos,
    /// Busy nanoseconds of one shard's fold within a sharded pass.
    ShardNanos,
    /// Per-job latency from submission to run completion.
    JobLatencyNanos,
}

impl Hist {
    /// Number of histograms (size of the flat per-lane array).
    pub const COUNT: usize = 3;
    /// All histograms, in index order.
    pub const ALL: [Hist; Hist::COUNT] = [Hist::PassNanos, Hist::ShardNanos, Hist::JobLatencyNanos];

    /// Flat array index of this histogram.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Hist::PassNanos => "pass_nanos",
            Hist::ShardNanos => "shard_nanos",
            Hist::JobLatencyNanos => "job_latency_nanos",
        }
    }

    /// Inverse of [`Hist::name`].
    pub fn from_name(name: &str) -> Option<Hist> {
        Hist::ALL.into_iter().find(|h| h.name() == name)
    }
}

/// An instrumentation sink. `lane` is a worker/shard/task index used by the
/// enabled recorder to spread concurrent writers over independent cache
/// lines; any value is accepted (lanes wrap modulo the buffer count), so
/// call sites never bounds-check.
pub trait Recorder: Sync {
    /// `false` only for [`NoopRecorder`]; instrumented code gates any
    /// non-trivial argument computation on this constant so the disabled
    /// path performs no extra work at all.
    const ENABLED: bool;

    /// Adds `n` to a counter.
    fn add(&self, lane: usize, counter: Counter, n: u64);

    /// Records one timed interval against a span site.
    fn span(&self, lane: usize, span: Span, nanos: u64);

    /// Records one observation into a histogram.
    fn observe(&self, lane: usize, hist: Hist, value: u64);

    /// Merged view of everything recorded so far; `None` when the recorder
    /// keeps no state (the no-op).
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// The disabled recorder: keeps nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&self, _lane: usize, _counter: Counter, _n: u64) {}

    #[inline(always)]
    fn span(&self, _lane: usize, _span: Span, _nanos: u64) {}

    #[inline(always)]
    fn observe(&self, _lane: usize, _hist: Hist, _value: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_names_round_trip() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for (i, s) in Span::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Span::from_name(s.name()), Some(s));
        }
        for (i, h) in Hist::ALL.into_iter().enumerate() {
            assert_eq!(h.index(), i);
            assert_eq!(Hist::from_name(h.name()), Some(h));
        }
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn noop_recorder_is_disabled_and_stateless() {
        const { assert!(!NoopRecorder::ENABLED) };
        let r = NoopRecorder;
        r.add(0, Counter::ItemsFolded, 10);
        r.span(1, Span::FusedSweep, 10);
        r.observe(2, Hist::PassNanos, 10);
        assert!(r.snapshot().is_none());
    }
}
