//! Engine configuration: [`SimConfig`] and the NAT lease every emulated
//! device uses.

use crate::latency::NetProfile;
use crate::sched::Scheduler;
use crate::time::SimDuration;

/// NAT association-rule lease time. The paper quotes Cisco's defaults:
/// 5 minutes for UDP, 24 hours for TCP — and WHISPER's connection reuse
/// relies on the long TCP-style leases (§II-C; DESIGN.md §7), so every
/// emulated device leases for 2 hours.
pub const NAT_LEASE: SimDuration = SimDuration::from_secs(7200);

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for all engine randomness. Every per-node stream and the
    /// harness RNG derive from it.
    pub seed: u64,
    /// Latency/loss environment.
    pub profile: NetProfile,
    /// Number of engine shards (≥ 1). Nodes are partitioned by
    /// `NodeId % shards`; traces are byte-identical for any value.
    /// Sharding requires `profile.min_delay() > 0`.
    pub shards: usize,
    /// Thread policy for `shards > 1`: `None` (default) uses worker
    /// threads only when the host has more than one CPU, `Some(true)`
    /// forces threads, `Some(false)` forces the sequential interleave.
    /// The choice never affects traces — it is pure wall-clock policy.
    pub threads: Option<bool>,
    /// Whether shards recycle payload buffers through their
    /// [`PayloadPool`](crate::payload::PayloadPool) (default `true`). `false` is a reference
    /// configuration of the determinism matrix, not a product mode: the
    /// trace is byte-identical with pooling on or off — only the exempt
    /// `net.pool_*` statistics and the allocation-accounting counters
    /// (`net.alloc*`, `net.payload_pooled`) reflect the setting.
    pub pooling: bool,
    /// Per-shard event-queue implementation (default
    /// [`Scheduler::Wheel`], the hierarchical calendar queue).
    /// [`Scheduler::Heap`] is the reference the determinism matrix
    /// compares the wheel against: both pop in canonical key order, so
    /// traces are byte-identical either way (DESIGN.md §14).
    pub scheduler: Scheduler,
    /// Expected final node count, used to pre-reserve per-shard arena,
    /// queue-bucket and exchange capacity at build time (0 = no
    /// pre-reservation). Purely a performance knob.
    pub expected_nodes: usize,
    /// Whether the hot-path profiler is on (default `false`): wall-clock
    /// time per event is attributed to scheduler / engine / callback /
    /// encode / decode / crypto-model buckets and flushed into the
    /// `prof.*` counters, which — like `net.pool_*` — are exempt from
    /// the determinism-trace comparison. Traces are byte-identical with
    /// profiling on or off.
    pub profiling: bool,
}

impl SimConfig {
    /// The engine defaults on `profile`.
    fn with_profile(seed: u64, profile: NetProfile) -> Self {
        SimConfig {
            seed,
            profile,
            shards: 1,
            threads: None,
            pooling: true,
            scheduler: Scheduler::Wheel,
            expected_nodes: 0,
            profiling: false,
        }
    }

    /// Cluster profile with the given seed.
    pub fn cluster(seed: u64) -> Self {
        Self::with_profile(seed, NetProfile::cluster())
    }

    /// PlanetLab profile with the given seed.
    pub fn planetlab(seed: u64) -> Self {
        Self::with_profile(seed, NetProfile::planetlab())
    }

    /// Instant, lossless network for logic-focused tests.
    pub fn ideal(seed: u64) -> Self {
        Self::with_profile(seed, NetProfile::ideal())
    }

    /// Returns the config with `shards` engine shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a simulation needs at least one shard");
        self.shards = shards;
        self
    }

    /// Returns the config with an explicit thread policy (see
    /// [`SimConfig::threads`]).
    pub fn with_threads(mut self, threads: bool) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns the config with payload-buffer pooling on or off (see
    /// [`SimConfig::pooling`]).
    pub fn with_pooling(mut self, pooling: bool) -> Self {
        self.pooling = pooling;
        self
    }

    /// Returns the config with the given event-queue scheduler (see
    /// [`SimConfig::scheduler`]). Traces are byte-identical for either
    /// choice; the determinism matrix runs both, nothing else selects
    /// the heap.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns the config with an expected node count for capacity
    /// pre-reservation (see [`SimConfig::expected_nodes`]).
    pub fn with_expected_nodes(mut self, nodes: usize) -> Self {
        self.expected_nodes = nodes;
        self
    }

    /// Returns the config with the hot-path profiler on or off (see
    /// [`SimConfig::profiling`]).
    pub fn with_profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }
}
