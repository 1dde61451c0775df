//! Engine-level throughput statistics.

use std::fmt;
use std::time::Duration;

/// Throughput statistics for one [`Engine::run`](crate::Engine::run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Worker threads the run used.
    pub workers: usize,
    /// Estimator copies the run's cohorts started (a retried copy counts
    /// once).
    pub tasks: usize,
    /// Fused cohorts the run executed: one per estimator kind with copies
    /// in the batch (six-pass, ideal, turnstile), each pass stage one
    /// shared snapshot sweep.
    pub fused_cohorts: usize,
    /// Physical snapshot traversals the run performed: cohort sweeps count
    /// once per *cohort* pass, plus the oracle stats pass. Always
    /// `edges_streamed / snapshot len`.
    pub sweeps_executed: u64,
    /// Sweeps executed by the cohort driver — the cohorts plus any retried
    /// one-member cohorts (one shared traversal serves every member).
    /// Subset of [`sweeps_executed`](Self::sweeps_executed).
    pub fused_sweeps: u64,
    /// Sweeps outside the cohort driver: the shared oracle stats pass (1
    /// when the run has ideal jobs, else 0), `sweeps_executed -
    /// fused_sweeps`.
    pub per_copy_sweeps: u64,
    /// Wall-clock time of the whole run in seconds.
    pub wall_seconds: f64,
    /// Total CPU-busy seconds summed over all workers (cohorts count
    /// measured shard-busy time summed over their sweep shards, retries
    /// their attempt time, and the serial set-up its wall time).
    pub busy_seconds: f64,
    /// Measured busy seconds attributable to the cohort driver (summed
    /// shard-busy time plus retry attempts). Subset of
    /// [`busy_seconds`](Self::busy_seconds).
    pub fused_busy_seconds: f64,
    /// Measured busy seconds outside the cohort driver: the serial set-up
    /// before the cohorts form (insert materialization and the oracle
    /// stats pass), `busy_seconds - fused_busy_seconds`.
    pub per_copy_busy_seconds: f64,
    /// Items the run physically streamed: `sweeps_executed × snapshot
    /// len`. Cohorts traverse the snapshot once per *shared* pass stage,
    /// so a 4-copy six-pass job contributes `6 × m`, not `24 × m`.
    pub edges_streamed: u64,
    /// Streaming throughput: [`edges_streamed`](Self::edges_streamed)
    /// divided by wall time.
    pub edges_per_second: f64,
    /// Fraction of worker capacity that was busy:
    /// `busy / (workers × wall)`, in `(0, 1]` up to timer jitter.
    pub worker_utilization: f64,
    /// Jobs whose outcome was a contained error (panic, estimator failure,
    /// deadline, cancellation). Their batchmates' results are unaffected.
    pub jobs_failed: usize,
    /// Copies evicted from fused cohorts by failure containment (the
    /// failing job's copies leave the union probe structures; survivors
    /// stay bit-identical to a run without the failed job).
    pub copies_evicted: usize,
    /// Retry attempts executed for failed copies under a
    /// [`RetryPolicy`](crate::RetryPolicy) (each re-execution of one copy
    /// counts once, successful or not).
    pub copies_retried: u64,
    /// Copies whose failures survived the retry layer (attempts or budget
    /// exhausted, or a deadline/cancellation cut short-circuited the
    /// retry): they enter the degraded path governed by each job's
    /// [`QuorumPolicy`](crate::QuorumPolicy).
    pub copies_quarantined: u64,
    /// Jobs that succeeded on a surviving-copy quorum with fewer copies
    /// than configured (their [`JobOutput::degraded`](crate::JobOutput)
    /// carries the details).
    pub jobs_degraded: usize,
    /// Wall-clock seconds the retry layer spent sleeping in backoff
    /// delays (calling-thread time, not sweep time).
    pub retry_backoff_seconds: f64,
}

/// The run's failure/recovery tallies, bundled so
/// [`EngineStats::from_run`] call sites stay readable as the set grows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecoveryTotals {
    pub jobs_failed: usize,
    pub copies_evicted: usize,
    pub copies_retried: u64,
    pub copies_quarantined: u64,
    pub jobs_degraded: usize,
    pub retry_backoff: Duration,
}

impl EngineStats {
    /// Builds the statistics from raw measurements. Takes the snapshot
    /// length rather than a caller-computed edge total: the
    /// `edges_streamed = sweeps_executed × snapshot_len` invariant is
    /// enforced here, in one place, instead of being re-derived (and
    /// potentially diverging) at every call site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_run(
        workers: usize,
        tasks: usize,
        fused_cohorts: usize,
        sweeps_executed: u64,
        fused_sweeps: u64,
        wall: Duration,
        busy: Duration,
        fused_busy: Duration,
        snapshot_len: u64,
        recovery: RecoveryTotals,
    ) -> Self {
        let edges_streamed = sweeps_executed * snapshot_len;
        let wall_seconds = wall.as_secs_f64();
        let busy_seconds = busy.as_secs_f64();
        let fused_busy_seconds = fused_busy.as_secs_f64();
        let denom = wall_seconds.max(1e-12);
        EngineStats {
            workers,
            tasks,
            fused_cohorts,
            sweeps_executed,
            fused_sweeps,
            per_copy_sweeps: sweeps_executed.saturating_sub(fused_sweeps),
            wall_seconds,
            busy_seconds,
            fused_busy_seconds,
            per_copy_busy_seconds: (busy_seconds - fused_busy_seconds).max(0.0),
            edges_streamed,
            edges_per_second: edges_streamed as f64 / denom,
            worker_utilization: busy_seconds / (denom * workers.max(1) as f64),
            jobs_failed: recovery.jobs_failed,
            copies_evicted: recovery.copies_evicted,
            copies_retried: recovery.copies_retried,
            copies_quarantined: recovery.copies_quarantined,
            jobs_degraded: recovery.jobs_degraded,
            retry_backoff_seconds: recovery.retry_backoff.as_secs_f64(),
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks on {} workers in {:.3}s — {:.0} edges/s, {:.0}% utilization, \
             {} fused cohorts, {} sweeps ({} fused / {} per-copy), \
             busy {:.3}s ({:.3}s fused / {:.3}s per-copy)",
            self.tasks,
            self.workers,
            self.wall_seconds,
            self.edges_per_second,
            100.0 * self.worker_utilization,
            self.fused_cohorts,
            self.sweeps_executed,
            self.fused_sweeps,
            self.per_copy_sweeps,
            self.busy_seconds,
            self.fused_busy_seconds,
            self.per_copy_busy_seconds,
        )?;
        // Failure/recovery counters only appear when something happened:
        // the healthy-run line stays short.
        if self.jobs_failed > 0 || self.copies_evicted > 0 {
            write!(
                f,
                ", {} jobs failed, {} copies evicted",
                self.jobs_failed, self.copies_evicted
            )?;
        }
        if self.copies_retried > 0 || self.copies_quarantined > 0 || self.jobs_degraded > 0 {
            write!(
                f,
                ", {} copies retried ({:.3}s backoff), {} quarantined, {} jobs degraded",
                self.copies_retried,
                self.retry_backoff_seconds,
                self.copies_quarantined,
                self.jobs_degraded,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_are_consistent() {
        let stats = EngineStats::from_run(
            4,
            10,
            1,
            20,
            6,
            Duration::from_millis(500),
            Duration::from_millis(1500),
            Duration::from_millis(600),
            50_000,
            RecoveryTotals {
                jobs_failed: 1,
                copies_evicted: 4,
                copies_retried: 3,
                copies_quarantined: 2,
                jobs_degraded: 1,
                retry_backoff: Duration::from_millis(250),
            },
        );
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.fused_cohorts, 1);
        assert_eq!(stats.sweeps_executed, 20);
        assert_eq!(stats.fused_sweeps, 6);
        assert_eq!(stats.per_copy_sweeps, 14);
        assert!((stats.fused_busy_seconds - 0.6).abs() < 1e-9);
        assert!((stats.per_copy_busy_seconds - 0.9).abs() < 1e-9);
        // The invariant is enforced at construction, not per call site.
        assert_eq!(stats.edges_streamed, stats.sweeps_executed * 50_000);
        assert!((stats.edges_per_second - 2_000_000.0).abs() < 1e-6);
        assert!((stats.worker_utilization - 0.75).abs() < 1e-9);
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.copies_evicted, 4);
        assert_eq!(stats.copies_retried, 3);
        assert_eq!(stats.copies_quarantined, 2);
        assert_eq!(stats.jobs_degraded, 1);
        assert!((stats.retry_backoff_seconds - 0.25).abs() < 1e-9);
    }

    #[test]
    fn display_covers_the_full_schema() {
        // One place asserts the human-readable schema: every tier split and
        // every recovery counter must be visible when non-zero.
        let stats = EngineStats::from_run(
            4,
            10,
            1,
            20,
            6,
            Duration::from_millis(500),
            Duration::from_millis(1500),
            Duration::from_millis(600),
            50_000,
            RecoveryTotals {
                jobs_failed: 1,
                copies_evicted: 4,
                copies_retried: 3,
                copies_quarantined: 2,
                jobs_degraded: 1,
                retry_backoff: Duration::from_millis(250),
            },
        );
        let text = stats.to_string();
        assert!(text.contains("4 workers") && text.contains("10 tasks"));
        assert!(text.contains("1 fused cohorts") && text.contains("20 sweeps"));
        assert!(text.contains("(6 fused / 14 per-copy)"), "{text}");
        assert!(
            text.contains("busy 1.500s (0.600s fused / 0.900s per-copy)"),
            "{text}"
        );
        assert!(text.contains("1 jobs failed") && text.contains("4 copies evicted"));
        assert!(text.contains("3 copies retried (0.250s backoff)"), "{text}");
        assert!(text.contains("2 quarantined") && text.contains("1 jobs degraded"));

        // A healthy run's line carries no failure/recovery noise.
        let clean = EngineStats::from_run(
            2,
            4,
            1,
            6,
            6,
            Duration::from_millis(100),
            Duration::from_millis(150),
            Duration::from_millis(150),
            1_000,
            RecoveryTotals::default(),
        );
        let text = clean.to_string();
        assert!(
            !text.contains("failed") && !text.contains("retried"),
            "{text}"
        );
        assert!(
            !text.contains("degraded") && !text.contains("quarantined"),
            "{text}"
        );
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let stats = EngineStats::from_run(
            1,
            1,
            0,
            0,
            0,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            10,
            RecoveryTotals::default(),
        );
        assert!(stats.edges_per_second.is_finite());
        assert!(stats.worker_utilization.is_finite());
    }
}
