//! A minimal scoped worker pool for indexed tasks.
//!
//! One implementation of the "claim indices from an atomic counter on
//! scoped threads, return outputs in index order" pattern, shared by
//! [`ShardedStream::pass_sharded`](crate::ShardedStream::pass_sharded),
//! the engine's cohort sweeps and the copy-parallel runners — the
//! concurrency subtleties (clamping, claim loop, order-preserving results)
//! live in exactly one place.
//!
//! ## Panic containment
//!
//! Every task runs under [`std::panic::catch_unwind`], so a panicking task
//! never kills the worker thread that claimed it: the worker keeps claiming
//! remaining tasks. Results travel back through worker-local
//! vectors handed over at join time — there are no shared `Mutex` result
//! slots, so a second panic can never observe a poisoned lock and escalate
//! into a double-panic abort.
//!
//! [`run_indexed_pool_caught`] exposes the per-task outcomes
//! (`Ok(output)` or `Err(panic payload)`); [`run_indexed_pool`] keeps the
//! historical contract of resuming the first panic on the calling thread,
//! but only after every other task has completed.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of one pooled task: the task's output, or the payload of the
/// panic it unwound with.
pub type TaskResult<T> = std::thread::Result<T>;

/// Executes `count` indexed tasks on up to `workers` threads — the calling
/// thread plus `workers - 1` scoped threads — and returns each task's
/// outcome in task order, catching per-task panics.
///
/// Workers claim tasks from a shared atomic counter (dynamic load
/// balancing: uneven task costs do not idle workers until the tail). A
/// task that panics yields `Err(payload)` in its slot and the claiming
/// worker continues. Worker threads therefore never die early: every task
/// index is claimed and executed exactly once regardless of how many tasks
/// panic.
///
/// With one worker (or at most one task) everything runs inline on the
/// calling thread, with the same per-task catching.
pub fn run_indexed_pool_caught<T, F>(workers: usize, count: usize, task: F) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    // `AssertUnwindSafe` is sound here because the pool keeps no state of
    // its own across the unwind boundary: a panicking task only loses its
    // own output.
    let run_one = |i: usize| -> TaskResult<T> { catch_unwind(AssertUnwindSafe(|| task(i))) };
    if workers <= 1 || count <= 1 {
        return (0..count).map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<TaskResult<T>>> = Vec::with_capacity(count);
    results.resize_with(count, || None);
    std::thread::scope(|scope| {
        let claim = || {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                mine.push((i, run_one(i)));
            }
            mine
        };
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut claimed = claim();
        for helper in helpers {
            claimed.extend(helper.join().expect("pool worker catches every task panic"));
        }
        for (i, result) in claimed {
            results[i] = Some(result);
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every task index was claimed and completed"))
        .collect()
}

/// Executes `count` indexed tasks on up to `workers` scoped threads and
/// returns the outputs in task order.
///
/// See [`run_indexed_pool_caught`] for the claiming contract. If any task panics, the panic is resumed on the calling
/// thread — but only after every task has run, so one bad task cannot
/// abandon its batchmates mid-flight, and the resumed unwind never races
/// a second panic into an abort.
pub fn run_indexed_pool<T, F>(workers: usize, count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut results = run_indexed_pool_caught(workers, count, task);
    if let Some(pos) = results.iter().position(|r| r.is_err()) {
        match results.swap_remove(pos) {
            Err(payload) => resume_unwind(payload),
            Ok(_) => unreachable!("position() found an Err"),
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("checked above: no task panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_task_order() {
        for workers in [1, 2, 4, 9] {
            let out = run_indexed_pool(workers, 50, |i| i * 3);
            assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(run_indexed_pool(4, 0, |i| i).is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed_pool(3, 41, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 41);
        assert_eq!(counter.load(Ordering::Relaxed), 41);
    }

    #[test]
    fn panicking_task_is_contained_and_batchmates_complete() {
        for workers in [1, 2, 4] {
            let executed = AtomicUsize::new(0);
            let results = run_indexed_pool_caught(workers, 20, |i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 7 {
                    panic!("task 7 goes down");
                }
                i * 2
            });
            // Every task was claimed and executed despite the panic: no
            // worker thread died holding unclaimed indices.
            assert_eq!(executed.load(Ordering::Relaxed), 20);
            assert_eq!(results.len(), 20);
            for (i, r) in results.iter().enumerate() {
                if i == 7 {
                    let payload = r.as_ref().unwrap_err();
                    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                    assert!(msg.contains("task 7"), "unexpected payload: {msg:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn uncaught_variant_resumes_the_panic_after_all_tasks_ran() {
        let executed = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_indexed_pool(2, 10, |i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(executed.load(Ordering::Relaxed), 10);
    }
}
