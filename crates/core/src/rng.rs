//! Counter-based per-edge randomness: the keyed RNG that makes every
//! estimator pass shard-parallel. It is the estimators' only randomness
//! regime.
//!
//! # Why a counter RNG
//!
//! A stateful generator would force the passes that consume it into a
//! single sequential stream: the `k`-th draw depends on the `k − 1` draws
//! before it, so the pass must visit the edges in one global order.
//! [`CounterRng`] removes the state: every random value is a pure function
//!
//! ```text
//!     draw(seed, stream, position, draw_index) = finalize(key ⊕ mix(position) ⊕ mix(draw_index))
//! ```
//!
//! of the configuration seed, a per-use *stream tag* (pass 1's positions,
//! pass 3's neighbor picks, …), the edge's **global stream position** and a
//! per-position draw index. Any shard can therefore compute the
//! randomness of *its* positions without observing the rest of the stream,
//! and any shard order reproduces the same decisions bit for bit.
//!
//! The finalizer is a *folded multiply* (the `mum` mixer of the
//! wyhash/wyrand family): one widening `64 × 64 → 128` multiplication of
//! two key-derived operands, with the high half XOR-folded into the low
//! half. PR 5 switched the counter streams from the SplitMix64 finalizer
//! to this mixer because the per-draw finalization is the single hottest
//! instruction sequence of the counter-mode estimator (pass 5 performs
//! `Σ deg(v) · s` of them per copy) and the folded multiply costs one
//! multiplication instead of two plus three xor-shifts — ~1.4× fewer
//! cycles per draw with the same statistical quality (wyrand, built from
//! exactly this mixer over a counter input, passes BigCrush; the
//! chi-square uniformity proptests in `crates/core/tests/proptests.rs`
//! cover the streams as used here). Counter-mode draws therefore differ
//! numerically from earlier releases — like any reseeding would — while
//! staying distribution-identical.
//!
//! # The position-keyed reservoir rule
//!
//! Classic reservoir sampling ("keep the `t`-th item with probability
//! `1/t`") makes accept/reject decisions that depend on how many items
//! were seen *so far* — inherently order-sensitive. The counter-based
//! rule derives the same distribution from position-keyed priorities:
//!
//! > Give every eligible item at stream position `p` the priority
//! > `h(p) = draw(seed, stream, p, j)` for sample slot `j`, and keep the
//! > item with the **largest** `(priority, position)` pair.
//!
//! The priorities are i.i.d. uniform 64-bit values, so every eligible item
//! is equally likely to hold the maximum: the winner is a uniform sample of
//! the eligible set, exactly like the reservoir slot it replaces. Distinct
//! slots `j` use independent priorities, so a bank of `s` slots yields `s`
//! i.i.d. uniform samples (sampling with replacement) — the form the
//! paper's analysis needs for `R` and for the Assignment neighbor samples.
//! Unlike the reservoir, the rule is a *fold with an associative,
//! commutative merge* (`max` over `(priority, position)`): per-shard maxima
//! merged in any order equal the sequential maximum, which is what lets
//! passes 1, 3 and 5 shard. [`PickCell`] packages one such slot;
//! [`WeightedPickCell`] is the weighted variant (Efraimidis–Spirakis):
//! priority `ln(u_p) / w_p` with `u_p` the position-keyed uniform draw
//! makes `P(item p wins) = w_p / Σ w` — the distribution of a weighted
//! reservoir (Chao's procedure), which is what the ideal estimator's pass 1
//! needs.
//!
//! When the stream length `m` is known up front (every [`EdgeStream`]
//! snapshot knows it), uniform sampling gets simpler still: slot `j` of the
//! pass-1 sample `R` is *the edge at position* `bounded(j, m)` — a pure
//! function of the seed, gathered in one positional sweep with no
//! per-edge randomness at all.
//!
//! Every sampling decision of the estimators follows the keyed rules
//! above, so results are bit-identical at every batch size, shard count
//! and worker count.
//!
//! [`EdgeStream`]: degentri_stream::EdgeStream

use degentri_stream::hashing::hash_to_unit;

/// How an estimator consumes randomness. [`RngMode::Counter`] is the only
/// regime; the type remains so configurations that name it keep building
/// (see `EstimatorConfigBuilder::rng_mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RngMode {
    /// Counter-based per-edge randomness: every sampling decision is a pure
    /// function of `(seed, stream tag, position, draw index)`, so **all**
    /// passes shard.
    #[default]
    Counter,
}

/// Stream tags separating the independent randomness streams of one run.
/// Two [`CounterRng`]s with the same seed but different tags are
/// independent for every `(position, draw)` pair.
pub mod streams {
    /// Pass 1 of the six-pass estimator: positions of the uniform sample `R`.
    pub const MAIN_UNIFORM_SAMPLE: u64 = 0x51;
    /// Offline instance selection (degree-proportional picks from `R`).
    pub const MAIN_INSTANCES: u64 = 0x52;
    /// Pass 3: uniform neighbor per instance.
    pub const MAIN_NEIGHBOR: u64 = 0x53;
    /// Pass 5: per-vertex Assignment neighbor samples.
    pub const MAIN_ASSIGNMENT: u64 = 0x54;
    /// Ideal estimator pass 1: weighted edge pick per copy.
    pub const IDEAL_EDGE: u64 = 0x61;
    /// Ideal estimator pass 2: uniform neighbor per copy.
    pub const IDEAL_NEIGHBOR: u64 = 0x62;
    /// [`GraphAssignmentOracle`](crate::assignment::GraphAssignmentOracle)
    /// neighbor queries (`hash(seed, vertex, draw)`).
    pub const ORACLE_NEIGHBOR: u64 = 0x71;
    /// Turnstile estimator pass 1: per-sampler seeds of the ℓ0 edge bank
    /// (`degentri-dynamic`; position = sampler index).
    pub const DYNAMIC_EDGE_SAMPLER: u64 = 0x81;
    /// Turnstile estimator pass 3: per-instance seeds of the ℓ0 neighbor
    /// samplers (position = instance index).
    pub const DYNAMIC_NEIGHBOR_SAMPLER: u64 = 0x82;
    /// Turnstile estimator: degree-proportional instance selection over the
    /// sampled edge set `R` (position = index in `R`, draw = instance).
    pub const DYNAMIC_INSTANCES: u64 = 0x83;
    /// Turnstile estimator: shared fingerprint bases of the ℓ0 sketch banks.
    pub const DYNAMIC_FINGERPRINT: u64 = 0x84;
    /// Turnstile estimator: prefix-sum inverse-CDF instance selection
    /// (position = instance index; the `O(inner · log r)` replacement for
    /// the `WeightedPickCell` sweep, selected by `CounterSelection`).
    pub const DYNAMIC_INSTANCES_CDF: u64 = 0x85;
}

/// Odd multiplier spreading positions before finalization (golden ratio).
const POSITION_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Odd multiplier spreading draw indices before finalization.
const DRAW_GAMMA: u64 = 0xD1B5_4A32_D192_ED03;

/// First operand constant of the folded-multiply mixer (wyhash's prime).
const MUM_XOR: u64 = 0xA076_1D64_78BD_642F;

/// Second operand constant of the folded-multiply mixer (wyhash's prime).
const MUM_ADD: u64 = 0xE703_7ED1_A0B4_28DB;

/// The folded-multiply ("mum") finalizer: one widening multiplication of
/// two key-derived operands with the high half XOR-folded into the low —
/// the cheapest known mixer of full 64-bit avalanche quality (the wyrand
/// generator is exactly this function over a counter). This is the hottest
/// instruction sequence of the counter-mode estimator, so it trades the
/// SplitMix64 finalizer's two multiplications and three xor-shifts for a
/// single multiplication.
#[inline]
fn mum_mix(x: u64) -> u64 {
    let product = (x ^ MUM_XOR) as u128 * x.wrapping_add(MUM_ADD) as u128;
    (product >> 64) as u64 ^ product as u64
}

/// A keyed counter RNG: pure-function randomness over `(position, draw)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Creates the randomness stream `stream` of a run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        CounterRng {
            key: mum_mix(mum_mix(seed).wrapping_add(stream.wrapping_mul(DRAW_GAMMA))),
        }
    }

    /// The per-position base hash. Hot loops that take several draws at one
    /// position compute this once and fan out with [`CounterRng::derive`].
    #[inline]
    pub fn base(&self, position: u64) -> u64 {
        mum_mix(self.key ^ position.wrapping_mul(POSITION_GAMMA))
    }

    /// Derives draw `draw` from a per-position [`base`](CounterRng::base)
    /// hash (one folded-multiply finalization per draw).
    #[inline]
    pub fn derive(base: u64, draw: u64) -> u64 {
        mum_mix(base.wrapping_add(draw.wrapping_mul(DRAW_GAMMA)))
    }

    /// The uniform 64-bit value of `(position, draw)`.
    #[inline]
    pub fn draw(&self, position: u64, draw: u64) -> u64 {
        Self::derive(self.base(position), draw)
    }

    /// The uniform `f64` in `[0, 1)` of `(position, draw)`.
    #[inline]
    pub fn unit(&self, position: u64, draw: u64) -> f64 {
        hash_to_unit(self.draw(position, draw))
    }

    /// The uniform value in `[0, span)` of `(position, draw)`
    /// (multiply-shift bounding; `span` must be positive).
    #[inline]
    pub fn bounded(&self, position: u64, draw: u64, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.draw(position, draw) as u128 * span as u128) >> 64) as u64
    }
}

/// Low bits of a packed pick-cell key holding the stream position; the
/// priority occupies the high bits. Positions must stay below `2³²` — a
/// stream position is an index into in-memory edge/update storage, which
/// the workspace never grows past that (4G edges would already be 32 GiB
/// of snapshot).
const POSITION_BITS: u32 = 32;
const POSITION_MASK: u64 = (1u64 << POSITION_BITS) - 1;

#[inline]
fn pack_key(priority_bits: u64, position: u64) -> u64 {
    debug_assert!(position <= POSITION_MASK, "stream position exceeds 2^32");
    (priority_bits & !POSITION_MASK) | (position & POSITION_MASK)
}

/// Maps an `f64` priority to bits whose unsigned order equals the float
/// order (the usual total-order trick: flip all bits of negatives, set the
/// sign bit of non-negatives). Efraimidis–Spirakis priorities are ≤ 0, so
/// in practice only the first branch fires, but the mapping is monotone
/// over all non-NaN floats.
#[inline]
fn ordered_priority_bits(priority: f64) -> u64 {
    let bits = priority.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1u64 << 63)
    }
}

/// One order-insensitive uniform-pick slot: keeps the offered value with
/// the largest `(priority, position)` pair, stored as **one packed `u64`
/// word** — the priority's high 32 bits above the position's low 32 bits —
/// so a bank of cells costs 2 words per slot instead of 3 and the pass-5
/// sample table moves a third less memory. Positions are unique per offer
/// stream, so packed keys are unique and the max-merge stays a total
/// order: folding offers shard-by-shard and [`merge`](PickCell::merge)-ing
/// the per-shard cells in any order is bit-identical to offering
/// sequentially — the position-keyed reservoir rule (see the module docs).
/// Truncating the priority to 32 bits leaves the winner uniform up to
/// `2⁻³²`-probability ties, which the position then breaks
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickCell {
    /// Packed `(priority high bits, position low bits)` of the held value.
    key: u64,
    /// The held payload ([`PickCell::EMPTY`] when no offer was accepted).
    value: u32,
}

impl PickCell {
    /// Payload sentinel marking an empty cell. The payload space is one
    /// value short of the full `u32` range: offering `u32::MAX` itself is
    /// rejected by a debug assertion (vertex ids never reach it — a graph
    /// would need 2³² + 1 vertices).
    pub const EMPTY: u32 = u32::MAX;

    /// An empty cell; any real offer replaces it.
    pub const fn empty() -> Self {
        PickCell {
            key: 0,
            value: Self::EMPTY,
        }
    }

    /// Offers a value; the cell keeps the largest packed
    /// `(priority, position)` key.
    #[inline]
    pub fn offer(&mut self, priority: u64, position: u64, value: u32) {
        debug_assert_ne!(
            value,
            Self::EMPTY,
            "payload collides with the empty sentinel"
        );
        let key = pack_key(priority, position);
        if self.value == Self::EMPTY || key > self.key {
            self.key = key;
            self.value = value;
        }
    }

    /// Merges another cell (e.g. a per-shard accumulator) into this one.
    #[inline]
    pub fn merge(&mut self, other: &PickCell) {
        if other.value != Self::EMPTY && (self.value == Self::EMPTY || other.key > self.key) {
            *self = *other;
        }
    }

    /// The packed `(priority, position)` key of the held value.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The stream position of the held value (the key's low bits).
    #[inline]
    pub fn position(&self) -> u64 {
        self.key & POSITION_MASK
    }

    /// The held value, if any offer was accepted.
    #[inline]
    pub fn value(&self) -> Option<u32> {
        (self.value != Self::EMPTY).then_some(self.value)
    }
}

impl Default for PickCell {
    fn default() -> Self {
        PickCell::empty()
    }
}

/// The weighted analogue of [`PickCell`] (Efraimidis–Spirakis priorities):
/// offer items with priority `ln(u) / w` for a position-keyed uniform `u`
/// and weight `w > 0`; the item with the largest `(priority, position)`
/// wins with probability `w / Σ w` — the distribution of a single-slot
/// weighted reservoir, with the same associative, commutative merge. Like
/// [`PickCell`], priority and position are packed into one `u64` word: the
/// float priority maps to order-preserving bits (negatives flipped) whose
/// high 32 bits sit above the position's low 32, so the cell is 2 words
/// and — no float field left — carries a total order by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedPickCell {
    /// Packed `(ordered priority bits, position)` of the held item.
    key: u64,
    /// The held payload ([`WeightedPickCell::EMPTY`] when empty).
    value: u64,
}

impl WeightedPickCell {
    /// Payload sentinel marking an empty cell.
    pub const EMPTY: u64 = u64::MAX;

    /// An empty cell; any real offer replaces it.
    pub const fn empty() -> Self {
        WeightedPickCell {
            key: 0,
            value: Self::EMPTY,
        }
    }

    /// The Efraimidis–Spirakis priority of a `(uniform, weight)` pair.
    /// `unit ∈ [0, 1)` and `weight > 0` keep the result in `[-∞, 0)` — in
    /// particular never NaN, so the max-merge is a total order.
    #[inline]
    pub fn priority_of(unit: f64, weight: f64) -> f64 {
        debug_assert!(weight > 0.0);
        unit.ln() / weight
    }

    /// Offers an item; the cell keeps the largest packed
    /// `(priority, position)` key. Like [`PickCell`], the payload space
    /// excludes the sentinel value (`u64::MAX` is not a valid
    /// [`Edge::key`](degentri_graph::Edge::key) — it would need both
    /// packed endpoints at `u32::MAX`).
    #[inline]
    pub fn offer(&mut self, priority: f64, position: u64, value: u64) {
        debug_assert_ne!(
            value,
            Self::EMPTY,
            "payload collides with the empty sentinel"
        );
        let key = pack_key(ordered_priority_bits(priority), position);
        if self.value == Self::EMPTY || key > self.key {
            self.key = key;
            self.value = value;
        }
    }

    /// Merges another cell (e.g. a per-shard accumulator) into this one.
    #[inline]
    pub fn merge(&mut self, other: &WeightedPickCell) {
        if other.value != Self::EMPTY && (self.value == Self::EMPTY || other.key > self.key) {
            *self = *other;
        }
    }

    /// The packed `(priority, position)` key of the held item.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The stream position of the held item (the key's low bits).
    #[inline]
    pub fn position(&self) -> u64 {
        self.key & POSITION_MASK
    }

    /// The held value, if any offer was accepted.
    #[inline]
    pub fn value(&self) -> Option<u64> {
        (self.value != Self::EMPTY).then_some(self.value)
    }
}

impl Default for WeightedPickCell {
    fn default() -> Self {
        WeightedPickCell::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rng_is_a_pure_function() {
        let a = CounterRng::new(7, streams::MAIN_NEIGHBOR);
        let b = CounterRng::new(7, streams::MAIN_NEIGHBOR);
        assert_eq!(a.draw(3, 4), b.draw(3, 4));
        assert_eq!(a.unit(9, 0), b.unit(9, 0));
        assert_eq!(a.bounded(1, 2, 100), b.bounded(1, 2, 100));
    }

    #[test]
    fn seeds_streams_positions_and_draws_all_separate() {
        let base = CounterRng::new(7, streams::MAIN_NEIGHBOR);
        assert_ne!(
            base.draw(3, 4),
            CounterRng::new(8, streams::MAIN_NEIGHBOR).draw(3, 4)
        );
        assert_ne!(
            base.draw(3, 4),
            CounterRng::new(7, streams::MAIN_ASSIGNMENT).draw(3, 4)
        );
        assert_ne!(base.draw(3, 4), base.draw(4, 4));
        assert_ne!(base.draw(3, 4), base.draw(3, 5));
    }

    #[test]
    fn base_plus_derive_equals_draw() {
        let rng = CounterRng::new(11, streams::MAIN_ASSIGNMENT);
        let base = rng.base(42);
        for draw in 0..16 {
            assert_eq!(CounterRng::derive(base, draw), rng.draw(42, draw));
        }
    }

    #[test]
    fn unit_and_bounded_stay_in_range() {
        let rng = CounterRng::new(3, streams::MAIN_UNIFORM_SAMPLE);
        for p in 0..1000u64 {
            let u = rng.unit(p, 0);
            assert!((0.0..1.0).contains(&u));
            assert!(rng.bounded(p, 0, 17) < 17);
        }
    }

    #[test]
    fn pick_cell_keeps_the_maximum_and_merges_associatively() {
        // Priorities live in the key's high 32 bits, so distinct small
        // priorities must be shifted up to stay distinct after packing.
        let offers = [
            (5u64 << 32, 0u64, 10u32),
            (9 << 32, 1, 11),
            (9 << 32, 0, 12),
            (1 << 32, 7, 13),
        ];
        let mut sequential = PickCell::empty();
        for (pri, pos, v) in offers {
            sequential.offer(pri, pos, v);
        }
        assert_eq!(sequential.value(), Some(11));
        // Any split into shards, merged in any order, agrees.
        for split in 1..offers.len() {
            let (left, right) = offers.split_at(split);
            let mut a = PickCell::empty();
            let mut b = PickCell::empty();
            for &(pri, pos, v) in left {
                a.offer(pri, pos, v);
            }
            for &(pri, pos, v) in right {
                b.offer(pri, pos, v);
            }
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, sequential);
            assert_eq!(ba, sequential);
        }
    }

    #[test]
    fn empty_pick_cells_merge_to_empty() {
        let mut cell = PickCell::empty();
        cell.merge(&PickCell::empty());
        assert_eq!(cell.value(), None);
        let mut w = WeightedPickCell::empty();
        w.merge(&WeightedPickCell::empty());
        assert_eq!(w.value(), None);
    }

    #[test]
    fn pick_cell_is_uniform_over_offers() {
        // 8 items, priorities drawn from the counter RNG: each should win
        // about 1/8 of the time over many independent draw indices.
        let rng = CounterRng::new(123, streams::MAIN_NEIGHBOR);
        let mut wins = [0u32; 8];
        let trials = 8000u64;
        for t in 0..trials {
            let mut cell = PickCell::empty();
            for p in 0..8u64 {
                cell.offer(rng.draw(p, t), p, p as u32);
            }
            wins[cell.value().unwrap() as usize] += 1;
        }
        let expected = trials as f64 / 8.0;
        for (i, &w) in wins.iter().enumerate() {
            let dev = (w as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "item {i} won {w} of {trials}");
        }
    }

    #[test]
    fn weighted_pick_cell_is_weight_proportional() {
        // Weights 1, 2, 7 → win probabilities 0.1, 0.2, 0.7.
        let rng = CounterRng::new(5, streams::IDEAL_EDGE);
        let weights = [1.0f64, 2.0, 7.0];
        let mut wins = [0u32; 3];
        let trials = 20_000u64;
        for t in 0..trials {
            let mut cell = WeightedPickCell::empty();
            for (p, &w) in weights.iter().enumerate() {
                let pri = WeightedPickCell::priority_of(rng.unit(p as u64, t), w);
                cell.offer(pri, p as u64, p as u64);
            }
            wins[cell.value().unwrap() as usize] += 1;
        }
        let p: Vec<f64> = wins.iter().map(|&h| h as f64 / trials as f64).collect();
        assert!((p[0] - 0.1).abs() < 0.02, "{p:?}");
        assert!((p[1] - 0.2).abs() < 0.02, "{p:?}");
        assert!((p[2] - 0.7).abs() < 0.02, "{p:?}");
    }

    #[test]
    fn weighted_priorities_are_never_nan() {
        assert!(WeightedPickCell::priority_of(0.0, 1.0).is_infinite());
        assert!(!WeightedPickCell::priority_of(0.0, 1.0).is_nan());
        assert!(WeightedPickCell::priority_of(0.999, 1e9) <= 0.0);
    }

    #[test]
    fn packed_cells_are_two_words() {
        // The packing satellite: priority + position share one u64, so a
        // cell is key + payload — at most two machine words.
        assert!(std::mem::size_of::<PickCell>() <= 16);
        assert_eq!(std::mem::size_of::<WeightedPickCell>(), 16);
    }

    #[test]
    fn equal_truncated_priorities_break_ties_by_position() {
        let mut cell = PickCell::empty();
        // Same high 32 priority bits (the low 32 are dropped by packing):
        // the later position must win, deterministically.
        cell.offer((7 << 32) | 99, 3, 1);
        cell.offer((7 << 32) | 11, 8, 2);
        assert_eq!(cell.value(), Some(2));
        assert_eq!(cell.position(), 8);
        let mut reversed = PickCell::empty();
        reversed.offer((7 << 32) | 11, 8, 2);
        reversed.offer((7 << 32) | 99, 3, 1);
        assert_eq!(reversed, cell);
    }

    #[test]
    fn ordered_priority_bits_preserve_float_order() {
        let values = [f64::NEG_INFINITY, -1e300, -2.5, -1.0, -1e-9, -0.0, 0.0, 1.0];
        for pair in values.windows(2) {
            assert!(
                ordered_priority_bits(pair[0]) <= ordered_priority_bits(pair[1]),
                "{} should map below {}",
                pair[0],
                pair[1]
            );
        }
        assert!(ordered_priority_bits(-1.0) < ordered_priority_bits(-0.5));
    }

    #[test]
    fn packed_keys_expose_their_position() {
        let mut cell = WeightedPickCell::empty();
        cell.offer(WeightedPickCell::priority_of(0.5, 2.0), 42, 7);
        assert_eq!(cell.position(), 42);
        assert_eq!(cell.key() & 0xFFFF_FFFF, 42);
        assert_eq!(cell.value(), Some(7));
    }
}
