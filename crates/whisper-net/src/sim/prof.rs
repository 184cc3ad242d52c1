//! The hot-path profiler's per-shard buckets.

use crate::metrics::Metrics;

/// Per-shard hot-path profiler: wall-clock nanoseconds attributed to
/// engine buckets, flushed into the `prof.*` counters at metric sync
/// points. Like the `net.pool_*` family, `prof.*` counters are host-side measurements and therefore **exempt
/// from the determinism-trace comparison** — wall time legitimately
/// varies with shard count, thread policy and machine load. Disabled
/// (the default) the profiler costs one branch per event; nothing
/// trace-visible ever depends on it either way.
///
/// Bucket structure (see DESIGN.md §16):
///
/// * `sched_ns` — event-queue peek/pop time.
/// * `dispatch_ns` — everything from pop to dispatch return; contains
///   `callback_ns`, and the difference is engine bookkeeping (NAT
///   filtering, traffic accounting, effect application).
/// * `callback_ns` — protocol callback time; contains the `encode_ns` /
///   `decode_ns` / `crypto_model_ns` sub-buckets reported by [`Ctx`].
/// * `windows` — lookahead windows this shard ran; `barrier_wait_ns` —
///   from its arrival at each window's barrier to its release (threaded
///   driver only). A waiter may spin, so this is time CPU accounting
///   cannot tell from work.
#[derive(Default)]
pub(super) struct ProfTally {
    pub(super) enabled: bool,
    pub(super) sched_ns: u64,
    pub(super) dispatch_ns: u64,
    pub(super) callback_ns: u64,
    pub(super) encode_ns: u64,
    pub(super) decode_ns: u64,
    pub(super) crypto_model_ns: u64,
    pub(super) events: u64,
    pub(super) windows: u64,
    pub(super) barrier_wait_ns: u64,
}

impl ProfTally {
    pub(super) fn new(enabled: bool) -> Self {
        ProfTally { enabled, ..ProfTally::default() }
    }

    /// Drains the accumulated buckets into the exempt `prof.*` counters,
    /// keeping the `enabled` flag.
    pub(super) fn flush(&mut self, metrics: &mut Metrics) {
        let engine_ns = self.dispatch_ns.saturating_sub(self.callback_ns);
        for (name, v) in [
            ("prof.sched_ns", self.sched_ns),
            ("prof.engine_ns", engine_ns),
            ("prof.callback_ns", self.callback_ns),
            ("prof.encode_ns", self.encode_ns),
            ("prof.decode_ns", self.decode_ns),
            ("prof.crypto_model_ns", self.crypto_model_ns),
            ("prof.events", self.events),
            ("prof.windows", self.windows),
            ("prof.barrier_wait_ns", self.barrier_wait_ns),
        ] {
            if v > 0 {
                metrics.count(name, v);
            }
        }
        *self = ProfTally::new(self.enabled);
    }
}
