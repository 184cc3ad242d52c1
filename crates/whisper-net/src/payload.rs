//! Reference-counted message payloads and the per-shard buffer pool.
//!
//! Every simulated packet used to carry its own `Vec<u8>`, allocated at
//! the sender and freed after delivery — one heap round-trip per event,
//! which dominates the engine's per-event cost at 100k+ nodes. This
//! module removes that traffic:
//!
//! * [`Payload`] is a zero-dependency `Arc<[u8]>`-style buffer. Cloning
//!   is a reference-count bump, so fan-out (the same bytes sent to N
//!   peers) shares one allocation instead of making N copies.
//! * [`PayloadPool`] is a free list of retired buffers keyed by
//!   power-of-two size class. Each engine shard owns one: buffers are
//!   drawn at encode time ([`Ctx::send_wire`](crate::sim::Ctx::send_wire))
//!   and recycled after `on_message` returns, when the engine holds the
//!   only reference. The pool retains the reference-counted box together
//!   with the bytes, so a recycled buffer becomes the next payload
//!   without touching the allocator at all.
//! * [`PayloadWriter`] is a pool buffer being filled: the one window in
//!   which a payload's bytes are mutable, which is what lets a protocol
//!   write a wire image once and transform it in place (a relay copying
//!   a body into its outgoing packet and stripping its cipher layer
//!   there) before [`PayloadWriter::finish`] freezes it.
//!
//! # Ownership and aliasing rules (DESIGN.md §13)
//!
//! A `Payload` is **immutable for its entire lifetime as a message**: it
//! is filled exactly once (at encode time, while uniquely owned) and
//! never mutated afterwards. Protocols receive `&Payload` in
//! `on_message` and may clone it freely; clones are snapshots — the
//! engine only returns a buffer to the pool when `Arc::strong_count`
//! proves no other reference exists, so reuse is never observable.
//! Pools are strictly shard-local: a buffer freed on shard *i* can only
//! be reused by shard *i*, which is why pool hit/miss statistics (the
//! `net.pool_*` counters) are the one counter family that legitimately
//! varies with the shard count, and why they are exempt from the
//! determinism-trace comparison — exactly like the `*_wall_us` samples.
//! Everything else (payload bytes, event order, and — for a fixed
//! pooling mode — the `net.alloc*` / `net.payload_*` provenance
//! counters) stays byte-identical for any shard count, and the delivered
//! bytes are identical whether pooling is on or off. The provenance
//! counters deliberately *differ* between pooling modes: that difference
//! is the allocations-per-event measurement.

use crate::wire::WireWriter;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Smallest buffer capacity the pool retains (class 0).
const MIN_CLASS_CAP: usize = 64;
/// Number of power-of-two size classes (64 B … 8 KiB, last unbounded).
const NUM_CLASSES: usize = 8;
/// Retained buffers per class; beyond this, returned buffers are freed.
const CLASS_LIMIT: usize = 4096;

/// An immutable, reference-counted message payload.
///
/// Constructed from a `Vec<u8>` (fresh allocation) or drawn from a
/// [`PayloadPool`] (recycled buffer); cloning bumps a reference count.
/// The `pooled` provenance flag feeds the engine's deterministic
/// allocation accounting (`net.alloc_bytes` vs `net.payload_pooled`) —
/// it never affects behaviour.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    pooled: bool,
}

impl Payload {
    /// Wraps a freshly allocated buffer (counted as an allocation at the
    /// engine boundary).
    pub fn fresh(buf: Vec<u8>) -> Self {
        Payload { buf: Arc::new(buf), pooled: false }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Whether the backing storage was drawn from a [`PayloadPool`].
    pub fn is_pooled(&self) -> bool {
        self.pooled
    }

    /// Whether other clones of this payload are alive.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.buf) > 1
    }

}

/// A payload under construction in a buffer drawn from a [`PayloadPool`]
/// ([`Ctx::payload_writer`](crate::sim::Ctx::payload_writer)).
///
/// Derefs to the [`WireWriter`] filling it; [`WireWriter::as_mut_slice`]
/// reaches the bytes already written, so they can be transformed in place
/// while the buffer is still uniquely owned. [`PayloadWriter::finish`]
/// ends that window: from then on the bytes are an immutable [`Payload`].
#[derive(Debug)]
pub struct PayloadWriter {
    /// The pool's reference-counted box, its buffer moved into `writer`.
    shell: Arc<Vec<u8>>,
    writer: WireWriter,
    pooled: bool,
}

impl PayloadWriter {
    /// Starts a payload in `shell`, a buffer nobody else holds. `pooled`
    /// is false when the owning pool is disabled, so the unpooled
    /// reference configuration accounts the same bytes as fresh
    /// allocations.
    fn new(mut shell: Arc<Vec<u8>>, pooled: bool) -> Self {
        let buf = std::mem::take(Arc::get_mut(&mut shell).expect("pool buffers have one owner"));
        PayloadWriter { shell, writer: WireWriter::from_vec(buf), pooled }
    }

    /// Freezes the written bytes into a payload.
    pub fn finish(mut self) -> Payload {
        *Arc::get_mut(&mut self.shell).expect("the shell never left this writer") =
            self.writer.into_bytes();
        Payload { buf: self.shell, pooled: self.pooled }
    }
}

impl Deref for PayloadWriter {
    type Target = WireWriter;
    fn deref(&self) -> &WireWriter {
        &self.writer
    }
}

impl DerefMut for PayloadWriter {
    fn deref_mut(&mut self) -> &mut WireWriter {
        &mut self.writer
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Self {
        Payload::fresh(buf)
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.buf.len())
            .field("pooled", &self.pooled)
            .field("shared", &self.is_shared())
            .finish()
    }
}

/// Host-side (never trace-visible) pool statistics, drained into the
/// exempt `net.pool_*` counters at metric sync points.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PoolStats {
    /// Buffers served from a free list.
    pub hits: u64,
    /// Requests served by a fresh allocation.
    pub misses: u64,
    /// Bytes allocated on misses (capacity requested).
    pub miss_bytes: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Returns dropped because a clone was still alive.
    pub drop_shared: u64,
    /// Returns dropped because the class was full (or the buffer tiny).
    pub drop_full: u64,
}

/// A free list of retired payload buffers, keyed by power-of-two size
/// class. One per engine shard; never shared across shards or threads.
///
/// Every retained buffer is a uniquely owned `Arc<Vec<u8>>` — the box a
/// [`Payload`] travels in, kept with the bytes it boxed.
#[derive(Debug)]
pub struct PayloadPool {
    enabled: bool,
    classes: Vec<Vec<Arc<Vec<u8>>>>,
    stats: PoolStats,
}

impl PayloadPool {
    /// Creates a pool. A disabled pool always misses and never retains —
    /// the engine's `pooling: false` determinism-reference configuration.
    pub fn new(enabled: bool) -> Self {
        PayloadPool { enabled, classes: vec![Vec::new(); NUM_CLASSES], stats: PoolStats::default() }
    }

    /// Smallest class whose buffers are guaranteed to hold `len` bytes.
    fn class_for_take(len: usize) -> usize {
        let mut class = 0;
        while class < NUM_CLASSES - 1 && (MIN_CLASS_CAP << class) < len {
            class += 1;
        }
        class
    }

    /// Largest class whose minimum capacity `cap` satisfies.
    fn class_for_put(cap: usize) -> usize {
        let mut class = 0;
        while class < NUM_CLASSES - 1 && (MIN_CLASS_CAP << (class + 1)) <= cap {
            class += 1;
        }
        class
    }

    /// Takes an empty buffer with capacity ≥ `min_capacity` when one is
    /// available (preferring the tightest size class), else allocates.
    ///
    /// A disabled pool records no statistics: its allocations surface as
    /// fresh-provenance payloads in the deterministic `net.allocs`
    /// accounting instead, so the honest total heap-allocation figure is
    /// always `net.allocs + net.pool_misses` with no double counting.
    pub fn take(&mut self, min_capacity: usize) -> Vec<u8> {
        Arc::try_unwrap(self.take_shared(min_capacity)).expect("pool buffers have one owner")
    }

    /// [`PayloadPool::take`], box included.
    fn take_shared(&mut self, min_capacity: usize) -> Arc<Vec<u8>> {
        let start = Self::class_for_take(min_capacity);
        // Miss allocations are rounded up to their class's guarantee so a
        // returned buffer lands back in the class future same-size takes
        // scan first (an exact-size allocation would recycle one class
        // down and never be found again).
        let cap = min_capacity.max(MIN_CLASS_CAP << start);
        if self.enabled {
            // Tightest fitting class first, then larger ones. The top
            // class is unbounded above, so a buffer served from it for an
            // oversized request may still need to grow — harmless.
            for class in start..NUM_CLASSES {
                if let Some(buf) = self.classes[class].pop() {
                    self.stats.hits += 1;
                    return buf;
                }
            }
            self.stats.misses += 1;
            self.stats.miss_bytes += cap as u64;
        }
        Arc::new(Vec::with_capacity(cap))
    }

    /// Starts a payload of `len` bytes in a buffer from this pool.
    pub(crate) fn writer(&mut self, len: usize) -> PayloadWriter {
        PayloadWriter::new(self.take_shared(len), self.enabled)
    }

    /// Returns a payload's buffer to the free list when the engine holds
    /// the only reference; otherwise the storage is simply dropped (or
    /// kept alive by its clones).
    pub fn recycle(&mut self, payload: Payload) {
        if !self.enabled {
            return;
        }
        let mut shared = payload.buf;
        let Some(buf) = Arc::get_mut(&mut shared) else {
            self.stats.drop_shared += 1;
            return;
        };
        let cap = buf.capacity();
        if cap < MIN_CLASS_CAP {
            self.stats.drop_full += 1;
            return;
        }
        let class = Self::class_for_put(cap);
        if self.classes[class].len() >= CLASS_LIMIT {
            self.stats.drop_full += 1;
            return;
        }
        buf.clear();
        self.stats.recycled += 1;
        self.classes[class].push(shared);
    }

    /// Drains and resets the accumulated statistics.
    pub(crate) fn take_stats(&mut self) -> PoolStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let p = Payload::fresh(vec![1, 2, 3]);
        assert!(!p.is_shared());
        let q = p.clone();
        assert!(p.is_shared() && q.is_shared());
        assert_eq!(&p[..], &q[..]);
        drop(q);
        assert!(!p.is_shared());
    }

    #[test]
    fn pool_round_trip_reuses_capacity() {
        let mut pool = PayloadPool::new(true);
        let buf = pool.take(100);
        assert!(buf.capacity() >= 100);
        let cap = buf.capacity();
        pool.recycle(Payload::fresh(buf));
        let again = pool.take(100);
        assert_eq!(again.capacity(), cap, "same buffer came back");
        assert!(again.is_empty(), "recycled buffers are cleared");
        let stats = pool.take_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recycled, 1);
    }

    #[test]
    fn shared_payloads_are_never_recycled() {
        let mut pool = PayloadPool::new(true);
        let p = pool.writer(64).finish();
        let clone = p.clone();
        pool.recycle(p);
        // The clone still sees its bytes; the buffer was not retained.
        assert_eq!(clone.len(), 0);
        let stats = pool.take_stats();
        assert_eq!(stats.recycled, 0);
        assert_eq!(stats.drop_shared, 1);
        assert!(pool.take(64).capacity() >= 64); // fresh, not the shared one
    }

    #[test]
    fn disabled_pool_allocates_and_records_nothing() {
        let mut pool = PayloadPool::new(false);
        let buf = pool.take(64);
        pool.recycle(Payload::fresh(buf));
        let again = pool.take(64);
        assert!(again.capacity() >= 64);
        // Allocations on a disabled pool are accounted as fresh payloads
        // by the engine tally, never as pool misses.
        let stats = pool.take_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.recycled, 0);
    }

    #[test]
    fn size_classes_fit_requests() {
        // A recycled large buffer must not be served for a request it
        // fits, unless its class guarantees the capacity.
        let mut pool = PayloadPool::new(true);
        let mut big = pool.take(4096);
        big.extend_from_slice(&[0u8; 4096]);
        let big_cap = big.capacity();
        pool.recycle(Payload::fresh(big));
        let served = pool.take(2048);
        assert!(served.capacity() >= 2048);
        assert_eq!(served.capacity(), big_cap, "larger class serves smaller need");
    }

    #[test]
    fn class_boundaries() {
        assert_eq!(PayloadPool::class_for_take(0), 0);
        assert_eq!(PayloadPool::class_for_take(64), 0);
        assert_eq!(PayloadPool::class_for_take(65), 1);
        assert_eq!(PayloadPool::class_for_take(1 << 20), NUM_CLASSES - 1);
        assert_eq!(PayloadPool::class_for_put(64), 0);
        assert_eq!(PayloadPool::class_for_put(127), 0);
        assert_eq!(PayloadPool::class_for_put(128), 1);
        assert_eq!(PayloadPool::class_for_put(1 << 20), NUM_CLASSES - 1);
    }
}
