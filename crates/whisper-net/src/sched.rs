//! Deterministic event schedulers for the discrete-event engine.
//!
//! Two interchangeable priority queues sit behind [`EventQueue`]:
//!
//! * [`Scheduler::Heap`] — the classic `BinaryHeap` (`O(log n)`
//!   push/pop), kept as the reference implementation;
//! * [`Scheduler::Wheel`] — a hierarchical calendar queue
//!   ([`CalendarQueue`]): timing-wheel buckets over the discrete sim
//!   clock with an overflow heap for far-future timers, giving `O(1)`
//!   amortised push/pop on dense event streams, in memory proportional
//!   to the buckets that hold events (drained second-level buckets pass
//!   their allocation on to the next one that fills).
//!
//! Both pop in exactly the same order — ascending by the canonical
//! event key `(at µs, src, seq)` (see DESIGN.md §12/§14) — so the
//! choice of scheduler is invisible to simulation traces. Keys must be
//! unique; the engine guarantees this via per-source monotone `seq`
//! counters. The determinism matrix in `tests/determinism.rs` diffs
//! heap-vs-wheel traces byte for byte, and `tests/proptests.rs` drives
//! randomized streams (same-instant ties, crash-deferral re-keys,
//! far-future promotions) through both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Canonical scheduling key: `(at µs, src, seq)`.
///
/// `at` is the virtual due time in microseconds, `src` the canonical
/// source lane (0 for control events, `node + 1` for node events) and
/// `seq` a per-source monotone counter. Lexicographic order on this
/// triple is the engine-wide total event order.
pub type EventKey = (u64, u64, u64);

/// Types that expose a canonical [`EventKey`] can be scheduled.
pub trait Keyed {
    /// The item's scheduling key. Must be stable for the lifetime of
    /// the item while it sits in a queue, and unique per queue.
    fn key(&self) -> EventKey;
}

/// Which queue implementation an [`EventQueue`] uses.
///
/// Selected per simulation via `SimConfig::with_scheduler`; traces are
/// byte-identical either way (asserted by the determinism matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Reference `BinaryHeap` scheduler (`O(log n)` push/pop).
    Heap,
    /// Hierarchical calendar queue (`O(1)` amortised on dense streams).
    Wheel,
}

/// Heap adapter ordering items by their canonical key (min via
/// `Reverse`).
struct ByKey<T: Keyed>(T);

impl<T: Keyed> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T: Keyed> Eq for ByKey<T> {}
impl<T: Keyed> PartialOrd for ByKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Keyed> Ord for ByKey<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// Log2 of the level-0 granule in microseconds (256 µs per bucket).
const G0_SHIFT: u32 = 8;
/// Log2 of the bucket count per wheel level.
const BUCKET_BITS: u32 = 10;
/// Buckets per wheel level.
const NB: u64 = 1 << BUCKET_BITS;
/// Bucket index mask.
const MASK: u64 = NB - 1;

/// Deterministic hierarchical calendar queue.
///
/// Two timing-wheel levels over the discrete sim clock plus an
/// overflow heap:
///
/// * **L0** — 1024 buckets of 2⁸ µs (256 µs) granules ⇒ ≈ 262 ms span;
/// * **L1** — 1024 buckets of 2¹⁸ µs (≈ 262 ms) granules ⇒ ≈ 268 s
///   span; drained one granule at a time into L0 as the cursor crosses
///   an L1 boundary. A drained bucket's allocation goes onto a spare
///   list and the next L1 bucket to receive its first item takes it, so
///   L1 memory follows the buckets that hold items, not all 1024;
/// * **overflow** — a `BinaryHeap` for items due beyond the L1 span
///   (long-lived timers), promoted into the wheels as their window
///   comes into range.
///
/// Buckets are unordered until first drained; the cursor bucket is
/// lazily sorted **descending** by key once and popped from the back,
/// so each item pays one `O(1)` placement plus an `O(log b)` share of
/// its bucket's sort (`b` = bucket occupancy). Late arrivals into the
/// already-sorted cursor bucket (same-instant sends, clamped
/// re-inserts after an idle jump) are placed by binary search, which
/// keeps pops globally key-ordered — the property the determinism
/// matrix relies on.
pub struct CalendarQueue<T: Keyed> {
    /// Level-0 buckets (256 µs granules).
    l0: Vec<Vec<T>>,
    /// Whether the corresponding L0 bucket is currently sorted
    /// (descending by key). Only ever true for the cursor bucket.
    l0_sorted: Vec<bool>,
    /// Level-1 buckets (≈ 262 ms granules). One without capacity takes
    /// a spare at its first push.
    l1: Vec<Vec<T>>,
    /// Emptied allocations of drained L1 buckets, handed on by `place`.
    l1_spares: Vec<Vec<T>>,
    /// Items due beyond the L1 span.
    overflow: BinaryHeap<Reverse<ByKey<T>>>,
    /// Cursor: the L0 granule currently being drained.
    cur0: u64,
    /// Total items across all tiers.
    len: usize,
    /// Items currently in the L0 ring.
    l0_len: usize,
    /// Items currently in the L1 ring.
    l1_len: usize,
}

impl<T: Keyed> CalendarQueue<T> {
    /// An empty queue with the cursor at virtual time zero.
    pub fn new() -> Self {
        CalendarQueue {
            l0: (0..NB).map(|_| Vec::new()).collect(),
            l0_sorted: vec![false; NB as usize],
            l1: (0..NB).map(|_| Vec::new()).collect(),
            l1_spares: Vec::new(),
            overflow: BinaryHeap::new(),
            cur0: 0,
            len: 0,
            l0_len: 0,
            l1_len: 0,
        }
    }

    /// Pre-size every L0 bucket for an expected total of `n` items so
    /// steady-state pushes never grow a bucket.
    pub fn reserve(&mut self, n: usize) {
        let per_bucket = n >> BUCKET_BITS;
        if per_bucket == 0 {
            return;
        }
        for b in &mut self.l0 {
            b.reserve(per_bucket);
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item.
    pub fn push(&mut self, item: T) {
        let d0 = item.key().0 >> G0_SHIFT;
        self.place(item, d0);
        self.len += 1;
    }

    /// Remove and return the item with the smallest key.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.advance_to_nonempty();
        let b = (self.cur0 & MASK) as usize;
        self.sort_cursor_bucket(b);
        let item = self.l0[b].pop().expect("cursor bucket nonempty after advance");
        self.len -= 1;
        self.l0_len -= 1;
        Some(item)
    }

    /// The smallest key currently queued, without removing its item.
    ///
    /// Takes `&mut self` because peeking advances the cursor to the
    /// next occupied granule and sorts its bucket (both cached for the
    /// following [`pop`](Self::pop)).
    pub fn peek_key(&mut self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        self.advance_to_nonempty();
        let b = (self.cur0 & MASK) as usize;
        self.sort_cursor_bucket(b);
        Some(self.l0[b].last().expect("cursor bucket nonempty after advance").key())
    }

    /// Route an item to its tier. `d0` is the item's L0 granule
    /// (`at >> G0_SHIFT`). Maintains `l0_len`/`l1_len` but not `len`.
    fn place(&mut self, item: T, d0: u64) {
        let cur0 = self.cur0;
        if d0 <= cur0 {
            // Current-granule or late arrival (the cursor can sit past
            // a quiet granule after an idle jump): clamp into the
            // cursor bucket, preserving sortedness if already sorted.
            let b = (cur0 & MASK) as usize;
            if self.l0_sorted[b] {
                let key = item.key();
                let idx = self.l0[b].partition_point(|x| x.key() > key);
                self.l0[b].insert(idx, item);
            } else {
                self.l0[b].push(item);
            }
            self.l0_len += 1;
        } else if d0 - cur0 < NB {
            self.l0[(d0 & MASK) as usize].push(item);
            self.l0_len += 1;
        } else {
            let d1 = d0 >> BUCKET_BITS;
            let cur1 = cur0 >> BUCKET_BITS;
            if d1 - cur1 < NB {
                let bucket = &mut self.l1[(d1 & MASK) as usize];
                if bucket.capacity() == 0 {
                    if let Some(spare) = self.l1_spares.pop() {
                        *bucket = spare;
                    }
                }
                bucket.push(item);
                self.l1_len += 1;
            } else {
                self.overflow.push(Reverse(ByKey(item)));
            }
        }
    }

    /// Sort the cursor bucket descending by key (once per drain).
    fn sort_cursor_bucket(&mut self, b: usize) {
        if !self.l0_sorted[b] {
            self.l0[b].sort_unstable_by_key(|x| Reverse(x.key()));
            self.l0_sorted[b] = true;
        }
    }

    /// Move the cursor to the next granule with a nonempty L0 bucket,
    /// promoting L1/overflow windows as boundaries are crossed.
    /// Requires `len > 0`.
    fn advance_to_nonempty(&mut self) {
        loop {
            let b = (self.cur0 & MASK) as usize;
            if !self.l0[b].is_empty() {
                return;
            }
            self.l0_sorted[b] = false;
            if self.l0_len > 0 {
                // Walk: something is within the current L0 window.
                self.cur0 += 1;
                if self.cur0 & MASK == 0 {
                    self.promote();
                }
                continue;
            }
            if self.l1_len > 0 {
                // Jump to the nearest occupied L1 granule. Every L1
                // item satisfies cur1 < d1 < cur1 + NB (window
                // invariant), so each bucket holds exactly one granule
                // value and the scan below finds the minimum.
                let cur1 = self.cur0 >> BUCKET_BITS;
                let g = (1..NB)
                    .map(|k| cur1 + k)
                    .find(|g| !self.l1[(g & MASK) as usize].is_empty())
                    .expect("l1_len > 0 implies an occupied L1 bucket in window");
                self.cur0 = g << BUCKET_BITS;
                self.promote();
                continue;
            }
            // Only overflow left: jump straight to its minimum granule.
            let top = self.overflow.peek().expect("len > 0 with empty wheels");
            let d1 = (top.0 .0.key().0 >> G0_SHIFT) >> BUCKET_BITS;
            self.cur0 = d1 << BUCKET_BITS;
            self.promote();
        }
    }

    /// Pull newly-eligible overflow items and drain the L1 bucket at
    /// the (new) current L1 granule into L0. Called whenever `cur0`
    /// crosses an L1 boundary.
    fn promote(&mut self) {
        let cur1 = self.cur0 >> BUCKET_BITS;
        loop {
            let eligible = match self.overflow.peek() {
                Some(top) => ((top.0 .0.key().0 >> G0_SHIFT) >> BUCKET_BITS) < cur1 + NB,
                None => false,
            };
            if !eligible {
                break;
            }
            let Reverse(ByKey(item)) = self.overflow.pop().expect("peeked above");
            let d0 = item.key().0 >> G0_SHIFT;
            self.place(item, d0);
        }
        let b = (cur1 & MASK) as usize;
        let mut bucket = std::mem::take(&mut self.l1[b]);
        self.l1_len -= bucket.len();
        for item in bucket.drain(..) {
            let d0 = item.key().0 >> G0_SHIFT;
            self.place(item, d0);
        }
        // The bucket's turn comes again one wrap of the wheel (268 s)
        // later; the buckets filling now are the ones a few granules
        // ahead, so the emptied allocation goes to whichever needs one
        // next. The steady state still allocates nothing, and holds as
        // many allocations as L1 buckets are occupied at once. (A granule
        // in which nothing was due has none to pass on.)
        if bucket.capacity() > 0 {
            self.l1_spares.push(bucket);
        }
    }

    /// Items all L1 allocations together have room for, spares included.
    #[cfg(test)]
    fn l1_capacity(&self) -> usize {
        self.l1.iter().chain(&self.l1_spares).map(Vec::capacity).sum()
    }
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-shard event queue: a [`Scheduler`]-selected priority queue
/// popping items in ascending canonical-key order.
pub struct EventQueue<T: Keyed> {
    inner: Inner<T>,
}

enum Inner<T: Keyed> {
    Heap(BinaryHeap<Reverse<ByKey<T>>>),
    Wheel(CalendarQueue<T>),
}

impl<T: Keyed> EventQueue<T> {
    /// An empty queue using the given scheduler.
    pub fn new(sched: Scheduler) -> Self {
        EventQueue {
            inner: match sched {
                Scheduler::Heap => Inner::Heap(BinaryHeap::new()),
                Scheduler::Wheel => Inner::Wheel(CalendarQueue::new()),
            },
        }
    }

    /// Pre-size internal storage for an expected population of `n`
    /// concurrently-queued items.
    pub fn reserve(&mut self, n: usize) {
        match &mut self.inner {
            Inner::Heap(h) => h.reserve(n),
            Inner::Wheel(w) => w.reserve(n),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Wheel(w) => w.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an item.
    pub fn push(&mut self, item: T) {
        match &mut self.inner {
            Inner::Heap(h) => h.push(Reverse(ByKey(item))),
            Inner::Wheel(w) => w.push(item),
        }
    }

    /// Remove and return the item with the smallest key.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.inner {
            Inner::Heap(h) => h.pop().map(|Reverse(ByKey(item))| item),
            Inner::Wheel(w) => w.pop(),
        }
    }

    /// The smallest key queued, if any (`&mut` for the wheel's cursor
    /// advance; see [`CalendarQueue::peek_key`]).
    pub fn peek_key(&mut self) -> Option<EventKey> {
        match &mut self.inner {
            Inner::Heap(h) => h.peek().map(|r| r.0 .0.key()),
            Inner::Wheel(w) => w.peek_key(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Item(EventKey);
    impl Keyed for Item {
        fn key(&self) -> EventKey {
            self.0
        }
    }

    fn drain(q: &mut CalendarQueue<Item>) -> Vec<EventKey> {
        let mut out = Vec::new();
        while let Some(it) = q.pop() {
            out.push(it.0);
        }
        out
    }

    #[test]
    fn pops_in_key_order_across_tiers() {
        let mut q = CalendarQueue::new();
        // Overflow (far future), L1 (mid), L0 (near), same-granule ties.
        let keys = [
            (5, 3, 0),
            (5, 1, 0),
            (5, 1, 1),
            (300, 0, 0),
            (100_000, 2, 0),      // later L0 window
            (5_000_000, 4, 0),    // L1 tier
            (400_000_000, 9, 0),  // overflow tier (> 268 s)
            (400_000_000, 2, 0),  // overflow tie on `at`
        ];
        for k in keys {
            q.push(Item(k));
        }
        let mut expect: Vec<EventKey> = keys.to_vec();
        expect.sort();
        assert_eq!(drain(&mut q), expect);
        assert!(q.is_empty());
    }

    #[test]
    fn late_push_after_idle_jump_still_sorts_first() {
        let mut q = CalendarQueue::new();
        q.push(Item((300_000_000, 1, 0))); // parks cursor far ahead on peek
        assert_eq!(q.peek_key(), Some((300_000_000, 1, 0)));
        // The engine can schedule work at an earlier granule than the
        // cursor (harness injection after an idle skip): it must still
        // pop first.
        q.push(Item((10, 1, 0)));
        q.push(Item((300_000_000, 0, 5)));
        assert_eq!(q.pop(), Some(Item((10, 1, 0))));
        assert_eq!(q.pop(), Some(Item((300_000_000, 0, 5))));
        assert_eq!(q.pop(), Some(Item((300_000_000, 1, 0))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sorted_cursor_bucket_accepts_interleaved_pushes() {
        let mut q = CalendarQueue::new();
        for src in [9u64, 3, 7] {
            q.push(Item((50, src, 0)));
        }
        assert_eq!(q.pop(), Some(Item((50, 3, 0)))); // sorts the bucket
        q.push(Item((50, 1, 0))); // binary-insert into sorted bucket
        q.push(Item((60, 0, 0)));
        assert_eq!(q.pop(), Some(Item((50, 1, 0))));
        assert_eq!(q.pop(), Some(Item((50, 7, 0))));
        assert_eq!(q.pop(), Some(Item((50, 9, 0))));
        assert_eq!(q.pop(), Some(Item((60, 0, 0))));
    }

    /// A steady load of timers 1–20 s ahead occupies some 77 L1 buckets
    /// at a time, and over a wrap of the wheel every one of the 1 024
    /// takes its turn. L1 memory must follow the occupied buckets: were
    /// each drained bucket to keep its allocation for its next turn 268 s
    /// later, all 1 024 would end up sized for a full granule — over 25
    /// times the items ever queued at once.
    #[test]
    fn l1_capacity_follows_the_occupied_buckets() {
        const STEP_US: u64 = 700;
        const REVOLUTION_US: u64 = 1 << (G0_SHIFT + 2 * BUCKET_BITS);
        let mut wheel = CalendarQueue::new();
        // As the engine does for a known population: L0 buckets that
        // never grow, so that any growth seen below is L1's.
        wheel.reserve(16 << BUCKET_BITS);
        let mut heap = BinaryHeap::new();
        let (mut now, mut seq, mut lcg, mut peak_len) = (0u64, 0u64, 1u64, 0usize);
        let capacities = |q: &CalendarQueue<Item>| {
            (q.l1_capacity(), q.l0.iter().map(Vec::capacity).sum::<usize>(), q.overflow.capacity())
        };
        let mut at_previous_end = capacities(&wheel);
        for revolution in 1..=3 {
            while now < revolution * REVOLUTION_US + 20_000_000 {
                now += STEP_US;
                while wheel.peek_key().is_some_and(|key| key.0 <= now) {
                    let Reverse(expected) = heap.pop().expect("the heap holds the same items");
                    assert_eq!(wheel.pop().map(|item| item.0), Some(expected));
                }
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (now + 1_000_000 + (lcg >> 33) % 19_000_000, 1, seq);
                seq += 1;
                wheel.push(Item(key));
                heap.push(Reverse(key));
                peak_len = peak_len.max(wheel.len());
            }
            assert!(
                wheel.l1_capacity() < 8 * peak_len,
                "revolution {revolution}: L1 has room for {} items, at most {peak_len} were queued",
                wheel.l1_capacity()
            );
            if revolution == 3 {
                assert_eq!(capacities(&wheel), at_previous_end, "the third revolution allocated");
            }
            at_previous_end = capacities(&wheel);
        }
        assert!(now > 805_000_000 && peak_len > 10_000);
    }

    #[test]
    fn event_queue_variants_agree() {
        let keys: Vec<EventKey> =
            (0..500).map(|i| ((i * 7919) % 100_000, i % 5, i)).collect();
        let mut heap = EventQueue::new(Scheduler::Heap);
        let mut wheel = EventQueue::new(Scheduler::Wheel);
        wheel.reserve(keys.len());
        for &k in &keys {
            heap.push(Item(k));
            wheel.push(Item(k));
        }
        assert_eq!(heap.len(), wheel.len());
        loop {
            assert_eq!(heap.peek_key(), wheel.peek_key());
            match (heap.pop(), wheel.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
