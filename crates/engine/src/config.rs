//! Engine configuration.

use degentri_stream::DEFAULT_BATCH_SIZE;

use crate::error::EngineError;
use crate::job::RetryPolicy;
use crate::Result;

/// Configuration of an [`Engine`](crate::Engine) / of the parallel copy
/// runners: worker-pool size, batched-delivery chunk size, recording,
/// input validation, and the default retry policy.
///
/// No setting affects results, only wall-clock time: copies carry
/// deterministic seeds, sharded sweeps merge per-shard accumulators in
/// shard order, and batching only changes chunk boundaries — so any two
/// configurations produce bit-identical estimations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads (at least 1). Cohort sweeps shard across
    /// all of them.
    pub workers: usize,
    /// Edges delivered per chunk by the batched pass API (at least 1).
    pub batch_size: usize,
    /// Whether the run records metrics and assembles a
    /// [`RunReport`](degentri_obs::RunReport) on the
    /// [`EngineReport`](crate::EngineReport). Recording is observation-only
    /// — results are bit-identical with it on or off — and costs a few
    /// relaxed atomic increments per chunk plus per-pass clock reads.
    /// Defaults to `false`, which compiles the instrumentation points down
    /// to nothing via [`degentri_obs::NoopRecorder`].
    pub recording: bool,
    /// Whether runs validate the input stream up front —
    /// [`degentri_core::validate_edges`] for snapshots (out-of-range vertex
    /// ids), [`degentri_dynamic::validate_updates`] for update streams
    /// (out-of-range ids, per-edge deletes exceeding inserts). Validation
    /// failures are pre-flight: they fail the run before any job starts.
    /// Defaults to `false` (one extra O(stream) scan when enabled).
    pub validate_input: bool,
    /// Engine-wide default [`RetryPolicy`] for failed copies, applied to
    /// every job that does not set its own
    /// [`JobSpec::retry`](crate::JobSpec::retry). Defaults to `None` (no
    /// retries), preserving the all-or-nothing semantics. Retries re-run
    /// only the failed copies and are bit-identical by position-keyed
    /// seeds; see [`RetryPolicy`].
    pub retry_policy: Option<RetryPolicy>,
}

impl EngineConfig {
    /// A configuration using all available hardware parallelism and the
    /// default batch size.
    pub fn new() -> Self {
        EngineConfig {
            workers: available_workers(),
            batch_size: DEFAULT_BATCH_SIZE,
            recording: false,
            validate_input: false,
            retry_policy: None,
        }
    }

    /// A configuration with an explicit worker count (clamped to ≥ 1) and
    /// defaults for everything else.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers: workers.max(1),
            ..EngineConfig::new()
        }
    }

    /// Starts building a configuration from the defaults of
    /// [`EngineConfig::new`].
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::new(),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(EngineError::invalid_config("workers must be at least 1"));
        }
        if self.batch_size == 0 {
            return Err(EngineError::invalid_config("batch_size must be at least 1"));
        }
        if let Some(retry) = &self.retry_policy {
            if retry.max_attempts == 0 {
                return Err(EngineError::invalid_config(
                    "retry_policy.max_attempts must be at least 1",
                ));
            }
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

/// Builder for [`EngineConfig`], validating at
/// [`try_build`](EngineConfigBuilder::try_build) time.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the worker-pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the batched-delivery chunk size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Enables or disables metrics recording and
    /// [`RunReport`](degentri_obs::RunReport) assembly (off by default;
    /// observation-only either way).
    pub fn recording(mut self, yes: bool) -> Self {
        self.config.recording = yes;
        self
    }

    /// Enables or disables up-front input-stream validation (off by
    /// default; failures are pre-flight and fail the run).
    pub fn validate_input(mut self, yes: bool) -> Self {
        self.config.validate_input = yes;
        self
    }

    /// Sets the engine-wide default retry policy for failed copies (jobs
    /// may override it with [`JobSpec::retry`](crate::JobSpec::retry)).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.config.retry_policy = Some(policy);
        self
    }

    /// Validates and finishes building, rejecting zero workers or a zero
    /// batch size with [`EngineError::InvalidConfig`].
    pub fn try_build(self) -> Result<EngineConfig> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Finishes building without validating; invalid values surface from
    /// [`EngineConfig::validate`] when a run starts.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(EngineConfig::with_workers(0).workers, 1);
        assert_eq!(EngineConfig::with_workers(8).workers, 8);
        assert!(EngineConfig::default().workers >= 1);
        assert_eq!(EngineConfig::default().batch_size, DEFAULT_BATCH_SIZE);
        assert!(!EngineConfig::default().recording);
        assert!(!EngineConfig::default().validate_input);
        assert!(
            EngineConfig::builder()
                .validate_input(true)
                .try_build()
                .unwrap()
                .validate_input
        );
        assert!(
            EngineConfig::builder()
                .recording(true)
                .try_build()
                .unwrap()
                .recording
        );
    }

    #[test]
    fn builder_validates_batch_size_and_workers() {
        let ok = EngineConfig::builder()
            .workers(3)
            .batch_size(512)
            .try_build()
            .unwrap();
        assert_eq!(ok.workers, 3);
        assert_eq!(ok.batch_size, 512);
        assert!(EngineConfig::builder().batch_size(0).try_build().is_err());
        assert!(EngineConfig::builder().workers(0).try_build().is_err());
        // Retries default off; a zero-attempt policy is rejected.
        assert!(EngineConfig::default().retry_policy.is_none());
        let retrying = EngineConfig::builder()
            .retry_policy(RetryPolicy::new(3))
            .try_build()
            .unwrap();
        assert_eq!(retrying.retry_policy.unwrap().max_attempts, 3);
        assert!(EngineConfig::builder()
            .retry_policy(RetryPolicy::new(0))
            .try_build()
            .is_err());
        // Unvalidated build defers the error to validate().
        let bad = EngineConfig::builder().batch_size(0).build();
        assert!(bad.validate().is_err());
    }
}
