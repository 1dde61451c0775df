//! Allocation accounting for the six-pass estimator hot loops.
//!
//! The acceptance criterion of the zero-allocation overhaul: after setup,
//! the pass loops must perform **no per-edge heap allocation**. A counting
//! global allocator makes that checkable — run the estimator on two graphs
//! with the same sample budget but a 16× edge-count gap; per-edge
//! allocation anywhere in the passes would add tens of thousands of
//! allocations on the larger graph, so the observed difference must stay
//! far below the edge-count difference.
//!
//! (This is an integration test — a separate crate — so the counting
//! allocator does not conflict with the library's `forbid(unsafe_code)`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use degentri_core::{EstimatorConfig, MainEstimator};
use degentri_stream::{MemoryStream, StreamOrder, DEFAULT_BATCH_SIZE};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (out, after - before)
}

/// Wheel graphs with `T̂ = n − 1`: the sample sizes `r ∝ mκ/T`, `s ∝ mκ/T`
/// are constant across sizes, so any allocation growth with `n` comes from
/// per-edge work in the passes.
fn wheel_config(n: usize) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(3)
        .triangle_lower_bound(n as u64 - 1)
        .r_constant(8.0)
        .inner_constant(16.0)
        .assignment_constant(6.0)
        .seed(7)
        .build()
}

#[test]
fn hot_loops_do_not_allocate_per_edge() {
    let small_n = 2_000;
    let large_n = 32_000;
    let small = degentri_gen::wheel(small_n).unwrap();
    let large = degentri_gen::wheel(large_n).unwrap();
    let small_stream = MemoryStream::from_graph(&small, StreamOrder::UniformRandom(3));
    let large_stream = MemoryStream::from_graph(&large, StreamOrder::UniformRandom(3));

    let run = |stream: &MemoryStream, n: usize| {
        MainEstimator::new(wheel_config(n))
            .run_seeded_with(stream, 42, DEFAULT_BATCH_SIZE)
            .unwrap()
    };

    // Warm-up: settles any lazily initialized process state.
    run(&small_stream, small_n);
    run(&large_stream, large_n);

    let ((), small_allocs) = allocations_during(|| {
        run(&small_stream, small_n);
    });
    let ((), large_allocs) = allocations_during(|| {
        run(&large_stream, large_n);
    });

    // The large graph streams 60k more edges per pass (× 6 passes). If any
    // pass allocated per edge, `large_allocs` would exceed `small_allocs`
    // by at least that many; the real difference is the per-sample noise of
    // slightly different triangle counts, orders of magnitude smaller.
    let edge_gap = 6 * 2 * (large_n - small_n) as u64;
    let diff = large_allocs.abs_diff(small_allocs);
    assert!(
        diff < edge_gap / 100,
        "allocation growth {diff} (small {small_allocs}, large {large_allocs}) suggests \
         per-edge allocation; per-pass edge gap is {edge_gap}"
    );
}

#[test]
fn repeat_runs_reach_a_steady_state() {
    let g = degentri_gen::wheel(4_000).unwrap();
    let stream = MemoryStream::from_graph(&g, StreamOrder::UniformRandom(9));
    let estimator = MainEstimator::new(wheel_config(4_000));

    let (_, cold) = allocations_during(|| {
        estimator
            .run_seeded_with(&stream, 1, DEFAULT_BATCH_SIZE)
            .unwrap()
    });
    let (_, warm) = allocations_during(|| {
        estimator
            .run_seeded_with(&stream, 1, DEFAULT_BATCH_SIZE)
            .unwrap()
    });
    // Identical seed and stream: the second run does the same work, so it
    // must not allocate more than the first.
    assert!(
        warm <= cold,
        "a repeat run should not increase allocations: cold {cold}, warm {warm}"
    );
}
