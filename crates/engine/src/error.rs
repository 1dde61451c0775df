//! Error type for the estimation engine.

use std::fmt;

use degentri_core::EstimatorError;
use degentri_dynamic::DynamicError;

/// Errors produced by engine configuration and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An estimator copy (or an up-front configuration validation) failed;
    /// the engine reports the first failure in deterministic task order.
    Estimator(EstimatorError),
    /// A turnstile estimator copy (or its configuration validation) failed.
    Dynamic(DynamicError),
    /// An [`EngineConfig`](crate::EngineConfig) was rejected by the builder.
    InvalidConfig {
        /// Human-readable description of the invalid parameter.
        reason: String,
    },
    /// A job was submitted to the wrong run entry point — turnstile jobs
    /// ([`JobKind::Dynamic`](crate::JobKind)) go through
    /// [`Engine::run_dynamic`](crate::Engine::run_dynamic), everything else
    /// through [`Engine::run`](crate::Engine::run).
    UnsupportedJob {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// One of the job's copies panicked. The panic was caught at the
    /// shard or cohort-pass boundary, the worker that caught it survived,
    /// and every other job ran to completion unperturbed.
    Panicked {
        /// Index of the cohort member that unwound.
        task: usize,
        /// The panic payload rendered as text, when it was a string.
        payload: String,
    },
    /// The job's [`deadline`](crate::JobSpec::deadline) elapsed before it
    /// finished; the job was cut at a pass/task boundary.
    DeadlineExceeded {
        /// Shared passes this job's copies had fully completed when the
        /// deadline fired (0 when a retry attempt was cut before it
        /// started).
        completed_passes: usize,
    },
    /// The run's [`CancelToken`](crate::CancelToken) fired while this job
    /// was still in flight.
    Cancelled {
        /// Shared passes this job's copies had fully completed when
        /// cancellation was observed (0 when a retry attempt was cut
        /// before it started).
        completed_passes: usize,
    },
}

impl EngineError {
    pub(crate) fn invalid_config(reason: impl Into<String>) -> Self {
        EngineError::InvalidConfig {
            reason: reason.into(),
        }
    }

    pub(crate) fn unsupported_job(reason: impl Into<String>) -> Self {
        EngineError::UnsupportedJob {
            reason: reason.into(),
        }
    }

    pub(crate) fn panicked(task: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        EngineError::Panicked {
            task,
            payload: panic_message(payload.as_ref()),
        }
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Estimator(e) => write!(f, "engine job failed: {e}"),
            EngineError::Dynamic(e) => write!(f, "engine dynamic job failed: {e}"),
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            EngineError::UnsupportedJob { reason } => {
                write!(f, "unsupported job for this run: {reason}")
            }
            EngineError::Panicked { task, payload } => {
                write!(f, "engine task {task} panicked: {payload}")
            }
            EngineError::DeadlineExceeded { completed_passes } => {
                write!(
                    f,
                    "job deadline exceeded after {completed_passes} completed pass(es)"
                )
            }
            EngineError::Cancelled { completed_passes } => {
                write!(
                    f,
                    "run cancelled after {completed_passes} completed pass(es)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Estimator(e) => Some(e),
            EngineError::Dynamic(e) => Some(e),
            EngineError::InvalidConfig { .. }
            | EngineError::UnsupportedJob { .. }
            | EngineError::Panicked { .. }
            | EngineError::DeadlineExceeded { .. }
            | EngineError::Cancelled { .. } => None,
        }
    }
}

impl From<EstimatorError> for EngineError {
    fn from(e: EstimatorError) -> Self {
        EngineError::Estimator(e)
    }
}

impl From<DynamicError> for EngineError {
    fn from(e: DynamicError) -> Self {
        EngineError::Dynamic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_displays_estimator_errors() {
        let e: EngineError = EstimatorError::EmptyStream.into();
        assert!(e.to_string().contains("empty"));
        assert_eq!(e, EngineError::Estimator(EstimatorError::EmptyStream));
    }

    #[test]
    fn wraps_and_displays_dynamic_errors() {
        let e: EngineError = DynamicError::EmptySurvivingGraph.into();
        assert!(e.to_string().contains("deleted"));
        assert_eq!(e, EngineError::Dynamic(DynamicError::EmptySurvivingGraph));
        let mismatch = EngineError::unsupported_job("turnstile job in Engine::run");
        assert!(mismatch.to_string().contains("turnstile"));
    }

    #[test]
    fn containment_variants_carry_partial_accounting() {
        let p = EngineError::panicked(3, Box::new("stage blew up"));
        assert_eq!(
            p,
            EngineError::Panicked {
                task: 3,
                payload: "stage blew up".to_string()
            }
        );
        assert!(p.to_string().contains("task 3"));
        let p2 = EngineError::panicked(0, Box::new(String::from("owned payload")));
        assert!(p2.to_string().contains("owned payload"));
        let p3 = EngineError::panicked(0, Box::new(42u32));
        assert!(p3.to_string().contains("non-string"));
        let d = EngineError::DeadlineExceeded {
            completed_passes: 2,
        };
        assert!(d.to_string().contains("deadline"));
        assert!(d.to_string().contains('2'));
        let c = EngineError::Cancelled {
            completed_passes: 0,
        };
        assert!(c.to_string().contains("cancelled"));
    }
}
