//! The unified snapshot layer: one sharding substrate for insert-only
//! **and** turnstile streams.
//!
//! PR 2 introduced [`ShardedStream`](crate::ShardedStream) — a contiguous,
//! order-preserving partition of a [`MemoryStream`](crate::MemoryStream)
//! snapshot whose per-shard accumulators merge bit-identically. The
//! turnstile side ([`DynamicMemoryStream`]) needs exactly the same
//! machinery over `&[EdgeUpdate]` instead of `&[Edge]`, so this module
//! factors the substrate out once:
//!
//! * [`Partition`] — the shared slicing rule: up to `S` contiguous shards
//!   of `⌈len / S⌉` items, never empty on a non-empty snapshot.
//! * [`StreamSnapshot`] — the trait unifying in-memory snapshots: anything
//!   that can expose its items as one zero-copy slice in global stream
//!   order. Implemented by [`MemoryStream`] (items = edges) and
//!   [`DynamicMemoryStream`] (items = updates), and by the sharded views
//!   themselves so views can be re-sharded.
//! * [`ShardedSnapshot`] — the generic sharded view every concrete view
//!   wraps: zero-copy shard slices, global index ranges (the carrier of
//!   position-keyed counter randomness), a pass counter, and
//!   [`pass_sharded`](ShardedSnapshot::pass_sharded) running one fold per
//!   shard on a scoped worker pool with the accumulators returned **in
//!   shard order**.
//! * [`ShardedDynamicStream`] — the turnstile twin of `ShardedStream`: it
//!   implements [`DynamicEdgeStream`] (plain passes walk the shards in
//!   global order), so the dynamic estimator runs over the view unchanged
//!   and only its shardable folds opt into the sharded pass.
//!
//! Pass accounting matches `ShardedStream`: a plain pass and a sharded
//! pass each count as exactly one pass (every item is delivered once).

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use degentri_graph::Edge;

use crate::dynamic::{DynamicEdgeStream, DynamicMemoryStream, EdgeUpdate};
use crate::edge_stream::MemoryStream;
use crate::pool::run_indexed_pool;

/// A contiguous, order-preserving partition of `len` positions into up to
/// `shards` shards of `⌈len / shards⌉` positions each. The actual shard
/// count can be lower when the ceiling division does not divide `len`
/// evenly — partitioning 10 positions 6 ways yields 5 shards of 2 — so
/// that no shard is ever empty on a non-empty snapshot (an empty snapshot
/// gets one empty shard).
#[derive(Debug, Clone)]
pub struct Partition {
    /// `shards + 1` offsets; shard `s` covers `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl Partition {
    /// Partitions `len` positions into up to `shards` contiguous shards.
    pub fn new(len: usize, shards: usize) -> Self {
        let per_shard = len.div_ceil(shards.clamp(1, len.max(1))).max(1);
        let mut bounds = Vec::with_capacity(len / per_shard + 2);
        let mut at = 0usize;
        bounds.push(0);
        while at < len {
            at = (at + per_shard).min(len);
            bounds.push(at);
        }
        if bounds.len() == 1 {
            bounds.push(0);
        }
        Partition { bounds }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The global index range shard `s` covers.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Total number of positions partitioned.
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("bounds are non-empty")
    }

    /// Whether the partition covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One in-memory snapshot of either stream flavor, behind one enum — the
/// argument of the engine's unified entry point. An insert-only snapshot
/// carries the edges of one pass in global stream order; a turnstile
/// snapshot carries the signed updates. Both are zero-copy borrows, so a
/// scheduler can serve many jobs (and many sharded views) from one
/// snapshot without re-materializing anything.
#[derive(Debug, Clone, Copy)]
pub enum Snapshot<'a> {
    /// An insert-only edge snapshot.
    Edges {
        /// Number of vertices `n` (vertex ids are `< n`).
        num_vertices: usize,
        /// The edges of one pass, in global stream order.
        edges: &'a [Edge],
    },
    /// A turnstile (insert/delete) update snapshot.
    Updates {
        /// Number of vertices `n`.
        num_vertices: usize,
        /// The signed updates of one pass, in global stream order.
        updates: &'a [EdgeUpdate],
    },
}

impl<'a> Snapshot<'a> {
    /// The edge snapshot of an insert-only stream that exposes its storage
    /// (see [`EdgeStream::as_edge_slice`]); `None` when it does not.
    pub fn of_edges<S: crate::EdgeStream + ?Sized>(stream: &'a S) -> Option<Self> {
        stream.as_edge_slice().map(|edges| Snapshot::Edges {
            num_vertices: crate::EdgeStream::num_vertices(stream),
            edges,
        })
    }

    /// The update snapshot of a turnstile stream that exposes its storage
    /// (see [`DynamicEdgeStream::as_update_slice`]); `None` when it does
    /// not.
    pub fn of_updates<S: DynamicEdgeStream + ?Sized>(stream: &'a S) -> Option<Self> {
        stream.as_update_slice().map(|updates| Snapshot::Updates {
            num_vertices: DynamicEdgeStream::num_vertices(stream),
            updates,
        })
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        match *self {
            Snapshot::Edges { num_vertices, .. } | Snapshot::Updates { num_vertices, .. } => {
                num_vertices
            }
        }
    }

    /// Number of items one pass delivers (edges or updates).
    pub fn len(&self) -> usize {
        match *self {
            Snapshot::Edges { edges, .. } => edges.len(),
            Snapshot::Updates { updates, .. } => updates.len(),
        }
    }

    /// Whether the snapshot holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The edge slice, when this is an insert-only snapshot.
    pub fn edges(&self) -> Option<&'a [Edge]> {
        match *self {
            Snapshot::Edges { edges, .. } => Some(edges),
            Snapshot::Updates { .. } => None,
        }
    }

    /// The update slice, when this is a turnstile snapshot.
    pub fn updates(&self) -> Option<&'a [EdgeUpdate]> {
        match *self {
            Snapshot::Updates { updates, .. } => Some(updates),
            Snapshot::Edges { .. } => None,
        }
    }
}

/// A zero-copy snapshot of a replayable stream: the items of one pass, in
/// global stream order, behind one slice. This is the engine-facing
/// contract that lets a scheduler share a single snapshot across many jobs
/// and build sharded views over it without re-snapshotting — uniformly for
/// insert-only edges and turnstile updates.
pub trait StreamSnapshot {
    /// The item one pass yields (an [`Edge`] or an [`EdgeUpdate`]).
    type Item: Copy + Send + Sync;

    /// Number of vertices `n` (vertex ids are `< n`).
    fn num_vertices(&self) -> usize;

    /// The items of one pass, in global stream order.
    fn items(&self) -> &[Self::Item];
}

impl StreamSnapshot for MemoryStream {
    type Item = Edge;

    fn num_vertices(&self) -> usize {
        crate::EdgeStream::num_vertices(self)
    }

    fn items(&self) -> &[Edge] {
        self.edges()
    }
}

impl StreamSnapshot for DynamicMemoryStream {
    type Item = EdgeUpdate;

    fn num_vertices(&self) -> usize {
        DynamicEdgeStream::num_vertices(self)
    }

    fn items(&self) -> &[EdgeUpdate] {
        self.updates()
    }
}

/// The generic sharded view over a snapshot slice: a [`Partition`] plus
/// the backing items and a pass counter. [`ShardedStream`] (edges) and
/// [`ShardedDynamicStream`] (updates) both wrap this, so the slicing,
/// ordering and worker-pool semantics live in exactly one place.
///
/// [`ShardedStream`]: crate::ShardedStream
#[derive(Debug)]
pub struct ShardedSnapshot<'a, T> {
    items: &'a [T],
    num_vertices: usize,
    partition: Partition,
    passes: AtomicU32,
}

impl<'a, T: Copy + Send + Sync> ShardedSnapshot<'a, T> {
    /// Creates a sharded view over `items` with up to `shards` contiguous
    /// shards (see [`Partition::new`] for the rounding rule).
    pub fn new(num_vertices: usize, items: &'a [T], shards: usize) -> Self {
        ShardedSnapshot {
            items,
            num_vertices,
            partition: Partition::new(items.len(), shards),
            passes: AtomicU32::new(0),
        }
    }

    /// Creates a sharded view of any [`StreamSnapshot`].
    pub fn from_snapshot<S: StreamSnapshot<Item = T>>(snapshot: &'a S, shards: usize) -> Self {
        ShardedSnapshot::new(snapshot.num_vertices(), snapshot.items(), shards)
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.partition.shards()
    }

    /// The items of shard `s` (zero-copy slice of the backing storage).
    pub fn shard(&self, s: usize) -> &'a [T] {
        &self.items[self.partition.range(s)]
    }

    /// The global index range shard `s` covers — the positions counter-mode
    /// randomness is keyed by.
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        self.partition.range(s)
    }

    /// The full item slice in global stream order.
    pub fn items(&self) -> &'a [T] {
        self.items
    }

    /// Number of passes started over this view (plain and sharded passes
    /// both count as one — every item is delivered exactly once per pass).
    pub fn passes(&self) -> u32 {
        self.passes.load(Ordering::Relaxed)
    }

    pub(crate) fn note_pass(&self) {
        self.passes.fetch_add(1, Ordering::Relaxed);
    }

    /// One pass over the snapshot, executed shard-parallel: `fold` runs
    /// once per shard (receiving the shard index and its zero-copy item
    /// slice) on up to `workers` scoped threads, and the per-shard
    /// accumulators are returned **in shard order** so the caller's merge
    /// is deterministic regardless of scheduling.
    ///
    /// `fold` must be order-insensitive across shards (counting, membership
    /// marking, linear sketch updates, position-keyed max-merges, …) for
    /// the merged result to equal a sequential pass; within a shard it sees
    /// the items in global stream order.
    pub fn pass_sharded<A, F>(&self, workers: usize, fold: F) -> Vec<A>
    where
        A: Send,
        F: Fn(usize, &[T]) -> A + Sync,
    {
        self.note_pass();
        run_indexed_pool(workers, self.shards(), |s| fold(s, self.shard(s)))
    }

    /// [`pass_sharded`](Self::pass_sharded) with per-shard wall-clock
    /// timing: each accumulator is paired with the nanoseconds its shard's
    /// fold spent on a pool worker. The fold results are bit-identical to
    /// the untimed pass — the clock reads bracket the fold and never feed
    /// back into it — so observability callers can switch between the two
    /// without perturbing outcomes.
    pub fn pass_sharded_timed<A, F>(&self, workers: usize, fold: F) -> Vec<(A, u64)>
    where
        A: Send,
        F: Fn(usize, &[T]) -> A + Sync,
    {
        self.note_pass();
        run_indexed_pool(workers, self.shards(), |s| {
            let started = Instant::now();
            let acc = fold(s, self.shard(s));
            (acc, started.elapsed().as_nanos() as u64)
        })
    }
}

/// A contiguous, order-preserving partition of a turnstile snapshot —
/// the [`DynamicEdgeStream`] twin of
/// [`ShardedStream`](crate::ShardedStream). Plain passes walk the shards
/// in global update order (so the dynamic estimator's pass budget and
/// sequential semantics are unchanged); shardable folds use
/// [`pass_sharded`](ShardedDynamicStream::pass_sharded).
#[derive(Debug)]
pub struct ShardedDynamicStream<'a> {
    inner: ShardedSnapshot<'a, EdgeUpdate>,
}

impl<'a> ShardedDynamicStream<'a> {
    /// Creates a sharded view over `updates` with up to `shards` contiguous
    /// shards.
    pub fn new(num_vertices: usize, updates: &'a [EdgeUpdate], shards: usize) -> Self {
        ShardedDynamicStream {
            inner: ShardedSnapshot::new(num_vertices, updates, shards),
        }
    }

    /// Creates a sharded view of a [`DynamicMemoryStream`] snapshot.
    pub fn from_stream(stream: &'a DynamicMemoryStream, shards: usize) -> Self {
        ShardedDynamicStream {
            inner: ShardedSnapshot::from_snapshot(stream, shards),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards()
    }

    /// The updates of shard `s` (zero-copy slice of the backing storage).
    pub fn shard(&self, s: usize) -> &'a [EdgeUpdate] {
        self.inner.shard(s)
    }

    /// The global index range shard `s` covers.
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        self.inner.shard_range(s)
    }

    /// The full update slice in global stream order.
    pub fn updates(&self) -> &'a [EdgeUpdate] {
        self.inner.items()
    }

    /// Number of passes started over this view.
    pub fn passes(&self) -> u32 {
        self.inner.passes()
    }

    /// One pass over the update stream, executed shard-parallel (see
    /// [`ShardedSnapshot::pass_sharded`]).
    pub fn pass_sharded<A, F>(&self, workers: usize, fold: F) -> Vec<A>
    where
        A: Send,
        F: Fn(usize, &[EdgeUpdate]) -> A + Sync,
    {
        self.inner.pass_sharded(workers, fold)
    }

    /// One timed pass over the update stream (see
    /// [`ShardedSnapshot::pass_sharded_timed`]).
    pub fn pass_sharded_timed<A, F>(&self, workers: usize, fold: F) -> Vec<(A, u64)>
    where
        A: Send,
        F: Fn(usize, &[EdgeUpdate]) -> A + Sync,
    {
        self.inner.pass_sharded_timed(workers, fold)
    }
}

impl StreamSnapshot for ShardedDynamicStream<'_> {
    type Item = EdgeUpdate;

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn items(&self) -> &[EdgeUpdate] {
        self.inner.items()
    }
}

impl DynamicEdgeStream for ShardedDynamicStream<'_> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_updates(&self) -> usize {
        self.inner.items().len()
    }

    fn pass(&self) -> Box<dyn Iterator<Item = EdgeUpdate> + '_> {
        self.inner.note_pass();
        Box::new(self.inner.items().iter().copied())
    }

    fn pass_batched(&self, batch_size: usize, visit: &mut dyn FnMut(&[EdgeUpdate])) {
        // Global stream order; shard boundaries do not affect plain passes.
        self.inner.note_pass();
        for chunk in self.inner.items().chunks(batch_size.max(1)) {
            visit(chunk);
        }
    }

    fn as_update_slice(&self) -> Option<&[EdgeUpdate]> {
        Some(self.inner.items())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degentri_graph::CsrGraph;

    fn graph() -> CsrGraph {
        CsrGraph::from_raw_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn partition_covers_every_position_in_order() {
        for len in 0..=12usize {
            for shards in 1..=(len + 3) {
                let p = Partition::new(len, shards);
                assert_eq!(p.len(), len);
                assert_eq!(p.is_empty(), len == 0);
                let mut at = 0usize;
                for s in 0..p.shards() {
                    let range = p.range(s);
                    assert_eq!(range.start, at);
                    if len > 0 {
                        assert!(!range.is_empty(), "len {len} shards {shards}");
                    }
                    at = range.end;
                }
                assert_eq!(at, len);
                assert!(p.shards() <= shards.max(1));
            }
        }
    }

    #[test]
    fn sharded_snapshot_is_generic_over_the_item_type() {
        let values: Vec<u64> = (0..17).collect();
        let view = ShardedSnapshot::new(0, &values, 4);
        let mut rebuilt = Vec::new();
        for s in 0..view.shards() {
            assert_eq!(view.shard(s), &values[view.shard_range(s)]);
            rebuilt.extend_from_slice(view.shard(s));
        }
        assert_eq!(rebuilt, values);
        let sums = view.pass_sharded(3, |_, items| items.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), values.iter().sum::<u64>());
        assert_eq!(view.passes(), 1);
    }

    #[test]
    fn snapshot_trait_unifies_both_stream_flavors() {
        let g = graph();
        let insert_only = crate::MemoryStream::from_graph(&g, crate::StreamOrder::AsGiven);
        assert_eq!(StreamSnapshot::items(&insert_only).len(), 7);
        assert_eq!(StreamSnapshot::num_vertices(&insert_only), 6);

        let dynamic = DynamicMemoryStream::with_churn(&g, 0.5, 3);
        assert_eq!(StreamSnapshot::items(&dynamic).len(), dynamic.num_updates());
        let view = ShardedDynamicStream::from_stream(&dynamic, 3);
        assert_eq!(StreamSnapshot::items(&view), dynamic.updates());
    }

    #[test]
    fn dynamic_view_preserves_global_update_order() {
        let g = graph();
        let s = DynamicMemoryStream::with_churn(&g, 0.6, 7);
        let sequential: Vec<EdgeUpdate> = s.pass().collect();
        for shards in 1..=9 {
            let view = ShardedDynamicStream::from_stream(&s, shards);
            assert_eq!(view.num_updates(), s.num_updates());
            assert_eq!(view.pass().collect::<Vec<_>>(), sequential);
            let mut batched = Vec::new();
            view.pass_batched(4, &mut |chunk| batched.extend_from_slice(chunk));
            assert_eq!(batched, sequential);
            assert_eq!(view.as_update_slice().unwrap(), s.updates());
            // Shards concatenate to the stream, ranges line up.
            let mut rebuilt = Vec::new();
            for i in 0..view.shards() {
                assert_eq!(&s.updates()[view.shard_range(i)], view.shard(i));
                rebuilt.extend_from_slice(view.shard(i));
            }
            assert_eq!(rebuilt, sequential, "shards {shards}");
            assert_eq!(view.passes(), 2);
        }
    }

    #[test]
    fn dynamic_sharded_pass_merges_in_shard_order_at_any_worker_count() {
        let g = graph();
        let s = DynamicMemoryStream::with_churn(&g, 0.8, 11);
        let sequential: Vec<EdgeUpdate> = s.pass().collect();
        for shards in 1..=8 {
            for workers in [1, 2, 4, 9] {
                let view = ShardedDynamicStream::from_stream(&s, shards);
                let parts: Vec<Vec<EdgeUpdate>> =
                    view.pass_sharded(workers, |_, updates| updates.to_vec());
                assert_eq!(parts.len(), view.shards());
                assert_eq!(parts.concat(), sequential, "shards {shards}");
                assert_eq!(view.passes(), 1);
            }
        }
    }

    #[test]
    fn dynamic_sharded_net_counts_match_sequential_counts() {
        let g = graph();
        let s = DynamicMemoryStream::with_churn(&g, 0.7, 5);
        let mut expect = 0i64;
        for u in s.pass() {
            expect += u.delta();
        }
        for shards in 1..=6 {
            let view = ShardedDynamicStream::from_stream(&s, shards);
            let nets = view.pass_sharded(3, |_, updates| {
                updates.iter().map(|u| u.delta()).sum::<i64>()
            });
            assert_eq!(nets.iter().sum::<i64>(), expect);
        }
    }

    #[test]
    fn empty_dynamic_snapshot_has_one_empty_shard() {
        let view = ShardedDynamicStream::new(3, &[], 4);
        assert_eq!(view.shards(), 1);
        assert!(view.shard(0).is_empty());
        assert_eq!(view.num_updates(), 0);
    }
}
