//! Cooperative run cancellation.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable cancellation flag shared between an
/// [`Engine`](crate::Engine) and whoever supervises it.
///
/// Cancellation is **cooperative**: the engine checks the token at pass
/// boundaries (and at chunk boundaries inside cohort sweeps, and before
/// each retry attempt) and fails the jobs still in flight
/// with [`EngineError::Cancelled`](crate::EngineError::Cancelled),
/// carrying the number of passes each had completed. Work already
/// finished is unaffected; the snapshot is never left mid-mutation
/// because stage folds only write their own accumulators.
///
/// The token is sticky across runs: a cancelled engine stays cancelled
/// (subsequent runs fail immediately) until [`CancelToken::reset`] is
/// called — mirroring how a service drains a poisoned queue before
/// reopening.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from any thread, any number of
    /// times.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Clears the flag so the engine can run again.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_sticky_until_reset_and_shared_across_clones() {
        let token = CancelToken::new();
        let peer = token.clone();
        assert!(!token.is_cancelled());
        peer.cancel();
        assert!(token.is_cancelled() && peer.is_cancelled());
        peer.cancel();
        assert!(token.is_cancelled());
        token.reset();
        assert!(!token.is_cancelled() && !peer.is_cancelled());
        assert!(format!("{token:?}").contains("cancelled"));
    }
}
