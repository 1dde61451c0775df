//! A minimal scoped worker pool for indexed tasks.
//!
//! One implementation of the "claim indices from an atomic counter on
//! scoped threads, return outputs in index order" pattern, shared by
//! [`ShardedStream::pass_sharded`](crate::ShardedStream::pass_sharded) and
//! the engine's task scheduler — the concurrency subtleties (clamping,
//! claim loop, order-preserving results) live in exactly one place.
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

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Outcome of one pooled task: the task's output, or the payload of the
/// panic it unwound with.
pub type TaskResult<T> = std::thread::Result<T>;

/// One shard's result slot: its caught outcome plus busy nanoseconds,
/// filled exactly once by the worker that claims the shard.
type ShardSlot<T> = Mutex<Option<(TaskResult<T>, u64)>>;

/// Executes `count` indexed tasks on up to `workers` scoped threads and
/// returns each task's outcome in task order, catching per-task panics.
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
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, run_one(i)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            let mine = handle.join().expect("pool worker catches every task panic");
            for (i, result) in mine {
                results[i] = Some(result);
            }
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

/// Locks a mutex, ignoring poisoning: every closure that runs while
/// holding one of the queue's locks is panic-contained, so a poisoned
/// lock only means a *contained* panic happened elsewhere — the guarded
/// data (a job deque, a result slot, a countdown) is still coherent.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A job on the shared queue: runs once on whichever worker claims it.
pub type QueuedJob<'env> = Box<dyn FnOnce() + Send + 'env>;

struct QueueState<'env> {
    jobs: VecDeque<QueuedJob<'env>>,
    closed: bool,
}

/// A shared work queue that lets *one pool* execute both coarse tasks and
/// fine-grained sweep shards: coarse jobs go to the back, shard bursts cut
/// to the front (they block a coordinator, so they are latency-critical),
/// and every worker — including the coordinator between its own sweeps —
/// claims from the same deque. This is what lets a fused cohort's sweeps
/// overlap with straggler coarse tasks (the engine's baseline jobs)
/// instead of running as two serialized phases.
pub struct WorkQueue<'env> {
    state: Mutex<QueueState<'env>>,
    ready: Condvar,
}

impl<'env> WorkQueue<'env> {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push_back(&self, job: QueuedJob<'env>) {
        lock_ignore_poison(&self.state).jobs.push_back(job);
        self.ready.notify_one();
    }

    fn push_front(&self, job: QueuedJob<'env>) {
        lock_ignore_poison(&self.state).jobs.push_front(job);
        self.ready.notify_one();
    }

    fn try_pop(&self) -> Option<QueuedJob<'env>> {
        lock_ignore_poison(&self.state).jobs.pop_front()
    }

    /// Worker loop: next job, blocking while the queue is open but empty.
    /// Returns `None` once the queue is closed *and* drained.
    fn next_blocking(&self) -> Option<QueuedJob<'env>> {
        let mut state = lock_ignore_poison(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn close(&self) {
        lock_ignore_poison(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// The coordinator's handle inside [`run_queued`]: submits jobs, runs
/// sharded sweeps that the whole pool helps with, and lends a hand on
/// queued jobs while it waits.
pub struct QueueScope<'q, 'env> {
    queue: &'q WorkQueue<'env>,
}

impl<'q, 'env> QueueScope<'q, 'env> {
    /// Enqueues a job for any pool worker (possibly the coordinator
    /// itself, between sweeps) to execute. Jobs are expected to contain
    /// their own failures; as a last-resort firewall the claiming worker
    /// catches panics, so a bad job cannot kill a worker.
    pub fn submit(&self, job: QueuedJob<'env>) {
        self.queue.push_back(job);
    }

    /// Claims and runs one queued job on the coordinator thread. Returns
    /// `false` if the queue was empty.
    pub fn help_one(&mut self) -> bool {
        match self.queue.try_pop() {
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
                true
            }
            None => false,
        }
    }

    /// Runs `fold(shard)` for every shard in `0..count` with the whole
    /// pool's help and returns `(outcome, elapsed nanos)` per shard in
    /// shard order. Shard jobs cut to the *front* of the queue (the
    /// coordinator blocks on them), and the coordinator executes queued
    /// work — shards first, then whatever coarse jobs are pending — while
    /// it waits, so a sweep never idles the coordinator and pending tasks
    /// never starve a sweep. Panicking shards yield `Err(payload)` in
    /// their slot; the others complete normally.
    pub fn run_shards<T, F>(&mut self, count: usize, fold: F) -> Vec<(TaskResult<T>, u64)>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let slots: Vec<ShardSlot<T>> = (0..count).map(|_| Mutex::new(None)).collect();
        let remaining = Mutex::new(count);
        let done = Condvar::new();
        {
            let fold_ref: &(dyn Fn(usize) -> T + Sync) = &fold;
            let slots_ref = &slots;
            let remaining_ref = &remaining;
            let done_ref = &done;
            for shard in (0..count).rev() {
                let job: QueuedJob<'_> = Box::new(move || {
                    let started = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| fold_ref(shard)));
                    let nanos = started.elapsed().as_nanos() as u64;
                    *lock_ignore_poison(&slots_ref[shard]) = Some((outcome, nanos));
                    let mut left = lock_ignore_poison(remaining_ref);
                    *left -= 1;
                    if *left == 0 {
                        done_ref.notify_all();
                    }
                });
                // SAFETY: the job borrows `fold`, `slots`, `remaining` and
                // `done`, all locals of this call — shorter-lived than the
                // queue's 'env. Widening the lifetime is sound because this
                // function does not return until `remaining` reaches zero,
                // which happens only after every shard job has finished
                // executing (the countdown is decremented after the fold,
                // and the fold is panic-caught, so a panicking shard still
                // counts down). No queued job can outlive its borrows.
                #[allow(unsafe_code)]
                let job: QueuedJob<'env> =
                    unsafe { std::mem::transmute::<QueuedJob<'_>, QueuedJob<'env>>(job) };
                self.queue.push_front(job);
            }
            loop {
                if *lock_ignore_poison(&remaining) == 0 {
                    break;
                }
                if !self.help_one() {
                    // Queue momentarily empty but shards still in flight on
                    // other workers: wait for the countdown instead of
                    // spinning.
                    let left = lock_ignore_poison(&remaining);
                    if *left != 0 {
                        drop(
                            done.wait(left)
                                .unwrap_or_else(|poisoned| poisoned.into_inner()),
                        );
                    }
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                lock_ignore_poison(&slot)
                    .take()
                    .expect("run_shards returns only after every shard completed")
            })
            .collect()
    }
}

/// Runs `root` as the coordinator of a `workers`-wide pool sharing one
/// [`WorkQueue`]: `workers - 1` helper threads block on the queue, and the
/// coordinator both drives its own control flow and helps execute queued
/// jobs (via [`QueueScope::help_one`] / [`QueueScope::run_shards`]).
///
/// After `root` returns, the coordinator drains whatever is still queued,
/// closes the queue, and joins the helpers; all submitted jobs are
/// guaranteed to have executed by the time this returns.
pub fn run_queued<'env, R, G>(workers: usize, root: G) -> R
where
    G: for<'q> FnOnce(&mut QueueScope<'q, 'env>) -> R,
{
    let queue: WorkQueue<'env> = WorkQueue::new();
    let helpers = workers.max(1) - 1;
    if helpers == 0 {
        let mut scope = QueueScope { queue: &queue };
        let result = root(&mut scope);
        while scope.help_one() {}
        return result;
    }
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| {
                while let Some(job) = queue.next_blocking() {
                    // Same firewall as the coordinator: jobs contain their
                    // own failures, but a stray panic must not kill the
                    // worker.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
            });
        }
        let mut scope = QueueScope { queue: &queue };
        let result = root(&mut scope);
        while scope.help_one() {}
        queue.close();
        result
    })
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

    #[test]
    fn queued_jobs_all_execute_before_run_queued_returns() {
        for workers in [1, 2, 4] {
            let slots: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            run_queued(workers, |scope| {
                for (i, slot) in slots.iter().enumerate() {
                    scope.submit(Box::new(move || {
                        slot.fetch_add(i + 1, Ordering::Relaxed);
                    }));
                }
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(slot.load(Ordering::Relaxed), i + 1, "workers={workers}");
            }
        }
    }

    #[test]
    fn run_shards_returns_ordered_results_and_timings() {
        for workers in [1, 3, 8] {
            let out = run_queued(workers, |scope| scope.run_shards(17, |s| s * s));
            assert_eq!(out.len(), 17);
            for (s, (result, _nanos)) in out.iter().enumerate() {
                assert_eq!(*result.as_ref().unwrap(), s * s);
            }
            assert!(run_queued(workers, |scope| scope.run_shards(0, |s| s)).is_empty());
        }
    }

    #[test]
    fn run_shards_overlaps_with_pending_queued_jobs() {
        // Coarse jobs are already queued when a sweep starts: the sweep's
        // shards cut to the front (so the blocking coordinator is served
        // first), but the coarse jobs still complete before run_queued
        // returns — one pool runs both kinds of work.
        for workers in [1, 2, 4] {
            let coarse_done = AtomicUsize::new(0);
            let shard_sum = run_queued(workers, |scope| {
                for _ in 0..8 {
                    scope.submit(Box::new(|| {
                        coarse_done.fetch_add(1, Ordering::Relaxed);
                    }));
                }
                let shards = scope.run_shards(12, |s| s + 1);
                shards.into_iter().map(|(r, _)| r.unwrap()).sum::<usize>()
            });
            assert_eq!(shard_sum, (1..=12).sum::<usize>());
            assert_eq!(coarse_done.load(Ordering::Relaxed), 8, "workers={workers}");
        }
    }

    #[test]
    fn panicking_shard_is_contained_and_batchmates_complete() {
        for workers in [1, 2, 4] {
            let out = run_queued(workers, |scope| {
                scope.run_shards(9, |s| {
                    if s == 4 {
                        panic!("shard 4 goes down");
                    }
                    s * 10
                })
            });
            assert_eq!(out.len(), 9);
            for (s, (result, _)) in out.iter().enumerate() {
                if s == 4 {
                    assert!(result.is_err());
                } else {
                    assert_eq!(*result.as_ref().unwrap(), s * 10);
                }
            }
        }
    }

    #[test]
    fn panicking_queued_job_is_contained_and_later_jobs_run() {
        for workers in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            run_queued(workers, |scope| {
                scope.submit(Box::new(|| panic!("queued job goes down")));
                for _ in 0..5 {
                    scope.submit(Box::new(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }));
                }
            });
            assert_eq!(ran.load(Ordering::Relaxed), 5, "workers={workers}");
        }
    }

    #[test]
    fn sequential_run_shards_calls_share_one_pool() {
        for workers in [1, 4] {
            let (first, second) = run_queued(workers, |scope| {
                let a: usize = scope
                    .run_shards(5, |s| s)
                    .into_iter()
                    .map(|(r, _)| r.unwrap())
                    .sum();
                let b: usize = scope
                    .run_shards(7, |s| s * 2)
                    .into_iter()
                    .map(|(r, _)| r.unwrap())
                    .sum();
                (a, b)
            });
            assert_eq!(first, 10);
            assert_eq!(second, 42);
        }
    }
}
