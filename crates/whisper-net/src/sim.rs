//! The discrete-event engine.
//!
//! A [`Sim`] owns a population of protocol instances (one per simulated
//! host) partitioned across one or more **shards**. Each shard owns an
//! event queue (a calendar queue or a binary heap, selectable via
//! [`SimConfig::with_scheduler`]; see [`crate::sched`]) and the arena of
//! per-node state, split SoA-style into dense hot flag/traffic arrays
//! and cold slots (protocol box, NAT device, RNG streams). With
//! `shards = 1` (the default) the engine is the classic single-queue
//! event loop; with more shards it advances in conservative lookahead
//! windows bounded by the minimum cross-shard link latency, exchanging
//! cross-shard sends as batched per-destination vectors at window
//! barriers — shard after shard, or each shard on a scoped thread that
//! lives for one [`Sim::run_until`]. The threads cross one
//! spin-then-sleep barrier per window (`barrier.rs`): what they hand
//! each other — mailboxes, the time of the next event, a panic flag —
//! exists in two copies used by alternate windows, so a thread may run
//! ahead into the next window while another still reads the last.
//!
//! # The determinism contract
//!
//! Two runs with the same seed produce **byte-identical traces and
//! metrics for any shard count and any thread policy**. This holds
//! because nothing trace-visible depends on partitioning:
//!
//! * Events are ordered by a canonical key `(time, source, sequence)`
//!   where `source` is the originating node (or the control plane) and
//!   `sequence` a per-source counter — not a global insertion counter.
//! * Every node draws from its own RNG streams derived from
//!   `(seed, node id)` via [`StdRng::for_stream_lane`]: one lane for
//!   protocol randomness, one for link randomness (latency, loss,
//!   burst-loss chains). Engine draws happen at send time in the
//!   sender's shard.
//! * Cross-shard messages are exchanged at window barriers and can only
//!   land in future windows (the window length never exceeds the
//!   profile's [`minimum delay`](crate::latency::NetProfile::min_delay)),
//!   so each shard processes an identical event sequence regardless of
//!   when its neighbours run.
//! * Message bytes travel as reference-counted [`Payload`] buffers
//!   recycled through shard-local pools ([`crate::payload`]); pooling is
//!   invisible to the trace — only the exempt `net.pool_*` statistics
//!   reflect it (DESIGN.md §13).
//!
//! See `DESIGN.md` §12 for the full algorithm and the rules code must
//! follow to preserve the contract (no wall clock, no `HashMap`
//! iteration order in trace-visible paths).
//!
//! Protocols implement [`Protocol`] and interact with the world only
//! through [`Ctx`], which *records* effects (sends, timers); the engine
//! applies them once the callback returns. This keeps the borrow
//! structure simple and the event order well-defined.

use crate::barrier::WindowBarrier;
use crate::fault::{Fault, FaultPlan, FaultState};
use crate::id::{Endpoint, NodeId};
use crate::latency::NetProfile;
use crate::metrics::{Metrics, Traffic, HEADER_OVERHEAD};
use crate::nat::{NatDevice, NatType};
use crate::payload::{Payload, PayloadPool, PayloadWriter};
use crate::sched::{EventKey, EventQueue, Keyed, Scheduler};
use crate::time::{SimDuration, SimTime};
use crate::wire::WireEncode;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use whisper_rand::rngs::StdRng;

/// RNG stream lane for protocol randomness ([`Ctx::rng`]).
const LANE_PROTO: u64 = 0;
/// RNG stream lane for link randomness (delay, loss, burst chains).
const LANE_LINK: u64 = 1;
/// RNG stream lane for the harness generator ([`Sim::rng`]).
const LANE_HARNESS: u64 = 2;

/// Event-source class for control-plane events (node starts scheduled by
/// the harness, scripted fault instants). Sorts before every node source
/// at equal times, so crash/restart handling precedes deferred protocol
/// events at the same instant.
const CONTROL_SRC: u64 = 0;

/// A protocol stack running on one simulated host.
///
/// All callbacks receive a [`Ctx`] for interacting with the network.
///
/// # Reentrancy and threading
///
/// Callbacks are never reentered: the engine runs at most one callback
/// per node at a time, and effects recorded through [`Ctx`] are applied
/// only after the callback returns — a message a callback sends can
/// never be delivered (even to `self`) before that callback finishes.
/// Implementations must be [`Send`] because a sharded simulation may run
/// a node's callbacks on its shard's thread, a new one in every run; they
/// never run on two threads concurrently, and a given node's callbacks
/// always execute in deterministic event order.
pub trait Protocol: Send {
    /// Invoked once when the node is added to the simulation.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// Invoked for every delivered message. `from` identifies the sending
    /// host and `from_ep` its externally observed endpoint (which is what
    /// a real socket would report, and what NAT traversal must use).
    ///
    /// `data` derefs to `&[u8]`; implementations that want to hold on to
    /// the bytes past the callback may [`Payload::clone`] them (a
    /// reference-count bump), which also keeps the buffer out of the
    /// engine's recycling pool for as long as the clone lives.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload);

    /// Invoked when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// Invoked when the node comes back up after a scripted
    /// crash-and-restart fault ([`crate::fault::Fault::CrashRestart`]).
    ///
    /// The process restarted: volatile protocol state is presumed lost,
    /// and implementations should clear it here. Timers that would have
    /// fired while the node was down are delivered *after* this callback
    /// (at the restart instant, in their original relative order). The
    /// default does nothing, which models a protocol whose state survives
    /// restarts (or a test protocol that does not care).
    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Downcasting support so experiment harnesses can inspect node state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Effects recorded by a protocol callback, applied by the engine
/// afterwards.
enum Effect {
    Send { to: Endpoint, data: Payload },
    Timer { delay: SimDuration, token: u64 },
}

/// Deterministic allocation accounting for one callback, flushed into
/// the metric counters (`net.allocs` / `net.alloc_bytes` /
/// `net.payload_cloned` / `net.payload_pooled`) after the callback
/// returns. Classification depends only on payload provenance — never on
/// pool contents — so these counters are byte-identical for any shard
/// count (unlike the `net.pool_*` family, which is shard-local by
/// nature).
#[derive(Default)]
struct AllocTally {
    allocs: u64,
    alloc_bytes: u64,
    cloned: u64,
    pooled: u64,
}

impl AllocTally {
    fn flush(self, metrics: &mut Metrics) {
        if self.allocs > 0 {
            metrics.count("net.allocs", self.allocs);
            metrics.count("net.alloc_bytes", self.alloc_bytes);
        }
        if self.cloned > 0 {
            metrics.count("net.payload_cloned", self.cloned);
        }
        if self.pooled > 0 {
            metrics.count("net.payload_pooled", self.pooled);
        }
    }
}

/// Per-shard hot-path profiler: wall-clock nanoseconds attributed to
/// engine buckets, flushed into the `prof.*` counters at metric sync
/// points. Like the `net.pool_*` family (and the `*_wall_us` samples),
/// `prof.*` counters are host-side measurements and therefore **exempt
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
struct ProfTally {
    enabled: bool,
    sched_ns: u64,
    dispatch_ns: u64,
    callback_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    crypto_model_ns: u64,
    events: u64,
    windows: u64,
    barrier_wait_ns: u64,
}

impl ProfTally {
    fn new(enabled: bool) -> Self {
        ProfTally { enabled, ..ProfTally::default() }
    }

    /// Drains the accumulated buckets into the exempt `prof.*` counters,
    /// keeping the `enabled` flag.
    fn flush(&mut self, metrics: &mut Metrics) {
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

/// Per-callback profiler scratch carried by [`Ctx`] (mirroring
/// [`AllocTally`]), flushed into the shard's [`ProfTally`] after the
/// callback returns.
#[derive(Default)]
struct ProfCtx {
    enabled: bool,
    encode_ns: u64,
    decode_ns: u64,
    crypto_model_ns: u64,
}

impl ProfCtx {
    fn new(enabled: bool) -> Self {
        ProfCtx { enabled, ..ProfCtx::default() }
    }

    fn flush(self, tally: &mut ProfTally) {
        tally.encode_ns += self.encode_ns;
        tally.decode_ns += self.decode_ns;
        tally.crypto_model_ns += self.crypto_model_ns;
    }
}

/// The execution context handed to protocol callbacks.
pub struct Ctx<'a> {
    now: SimTime,
    id: NodeId,
    nat_type: NatType,
    rng: &'a mut StdRng,
    metrics: &'a mut Metrics,
    pool: &'a mut PayloadPool,
    tally: AllocTally,
    prof: ProfCtx,
    effects: Vec<Effect>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's NAT type (a real node knows whether it is publicly
    /// reachable, e.g. via STUN-style probing; we expose it directly).
    pub fn nat_type(&self) -> NatType {
        self.nat_type
    }

    /// Queues a message to `to`. Delivery is subject to latency, loss and
    /// the destination's NAT filtering; there is no failure notification,
    /// exactly like UDP.
    ///
    /// Accepts anything convertible into a [`Payload`]: a `Vec<u8>`
    /// (counted as a fresh allocation at the engine boundary) or a
    /// `Payload` clone (fan-out: N sends of the same bytes share one
    /// buffer). Hot paths that build a message just to send it should
    /// prefer [`Ctx::send_wire`], which encodes into a pooled buffer.
    pub fn send_to(&mut self, to: Endpoint, data: impl Into<Payload>) {
        let data = data.into();
        if data.is_pooled() {
            self.tally.pooled += 1;
        } else if data.is_shared() {
            self.tally.cloned += 1;
        } else {
            self.tally.allocs += 1;
            self.tally.alloc_bytes += data.len() as u64;
        }
        self.effects.push(Effect::Send { to, data });
    }

    /// Encodes `msg` into a buffer drawn from the shard's payload pool
    /// and queues it to `to` — the allocation-free way to send a wire
    /// message (steady state recycles the buffer of a delivered packet).
    pub fn send_wire<M: WireEncode>(&mut self, to: Endpoint, msg: &M) {
        let payload = self.encode_payload(msg);
        self.send_to(to, payload);
    }

    /// Encodes `msg` into a pooled buffer without sending it. Use this
    /// for fan-out: encode once, then [`Ctx::send_to`] a clone per
    /// destination — N sends, one buffer.
    ///
    /// The buffer is pre-sized from [`WireEncode::encoded_len`], so the
    /// pool serves the exact size class and the writer never reallocates
    /// mid-encode.
    pub fn encode_payload<M: WireEncode>(&mut self, msg: &M) -> Payload {
        let t0 = self.prof.enabled.then(std::time::Instant::now);
        let len = msg.encoded_len();
        let mut w = self.pool.writer(len);
        msg.encode(&mut w);
        debug_assert_eq!(w.len(), len, "encoded_len() disagrees with encode()");
        let payload = w.finish();
        if let Some(t0) = t0 {
            self.prof.encode_ns += t0.elapsed().as_nanos() as u64;
        }
        payload
    }

    /// Starts a payload of `len` bytes in a buffer drawn from the shard's
    /// payload pool, for a protocol that writes its wire image by hand:
    /// fill it through the [`WireWriter`](crate::wire::WireWriter) it
    /// derefs to, transform the
    /// written bytes in place if need be, [`PayloadWriter::finish`] it and
    /// hand the result to [`Ctx::send_to`]. Accounted like
    /// [`Ctx::send_wire`] (pool provenance, no allocation).
    pub fn payload_writer(&mut self, len: usize) -> PayloadWriter {
        self.pool.writer(len)
    }

    /// Hands back a payload that will not be sent after all (its bytes
    /// were copied elsewhere): if nobody else holds it, its buffer returns
    /// to the shard's pool, as a delivered packet's does.
    pub fn recycle(&mut self, payload: Payload) {
        self.pool.recycle(payload);
    }

    /// Arms a one-shot timer that fires `delay` from now with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::Timer { delay, token });
    }

    /// Deterministic randomness source: this node's private protocol RNG
    /// stream, a pure function of `(seed, node id)`. Drawing more or
    /// fewer values here never perturbs any other node's randomness or
    /// the network schedule.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The metric sink (shard-local during a run; merged deterministically
    /// into the global sink at run boundaries).
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Whether the hot-path profiler is on
    /// ([`SimConfig::with_profiling`]). Protocols can use this to skip
    /// assembling expensive diagnostic values when nobody is measuring.
    pub fn prof_enabled(&self) -> bool {
        self.prof.enabled
    }

    /// Runs `f` and attributes its wall time to the protocol-decode
    /// profiler bucket (`prof.decode_ns`). A no-op wrapper when the
    /// profiler is off. The closure's *result* must not feed back into
    /// protocol behaviour differently depending on profiling — only
    /// timing is recorded, so this is trivially true for pure decoding.
    pub fn prof_decode<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = self.prof.enabled.then(std::time::Instant::now);
        let r = f();
        if let Some(t0) = t0 {
            self.prof.decode_ns += t0.elapsed().as_nanos() as u64;
        }
        r
    }

    /// Attributes `ns` wall nanoseconds to the encode bucket
    /// (`prof.encode_ns`), for a protocol that writes its wire image by
    /// hand into a [`Ctx::payload_writer`] buffer where
    /// [`Ctx::encode_payload`] would have timed the encode itself. Read
    /// the clock only when [`Ctx::prof_enabled`].
    pub fn prof_encode_ns(&mut self, ns: u64) {
        if self.prof.enabled {
            self.prof.encode_ns += ns;
        }
    }

    /// Attributes `ns` wall nanoseconds to the crypto cost-model bucket
    /// (`prof.crypto_model_ns`) — the time spent *computing* deterministic
    /// crypto charges, as opposed to the simulated time they add.
    pub fn prof_crypto_model_ns(&mut self, ns: u64) {
        if self.prof.enabled {
            self.prof.crypto_model_ns += ns;
        }
    }
}

enum EventKind {
    Deliver {
        to: Endpoint,
        from: NodeId,
        from_ep: Endpoint,
        data: Payload,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Start {
        node: NodeId,
    },
    /// Scripted crash: the node goes down until `restart_at`.
    FaultCrash {
        node: NodeId,
        restart_at: SimTime,
    },
    /// Scripted restart of a crashed node.
    FaultRestart {
        node: NodeId,
    },
    /// Scripted NAT rebind (fresh device, same type).
    FaultRebind {
        node: NodeId,
    },
}

/// An event with its canonical, shard-invariant ordering key
/// `(at, src, seq)`. `src` is [`CONTROL_SRC`] for control-plane events
/// and `node.0 + 1` for node-originated ones; `seq` is a per-source
/// monotone counter, so keys are globally unique and compare identically
/// for any partitioning of nodes over shards.
struct Event {
    at: SimTime,
    src: u64,
    seq: u64,
    kind: EventKind,
}

impl Keyed for Event {
    fn key(&self) -> EventKey {
        (self.at.as_micros(), self.src, self.seq)
    }
}

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
    /// [`PayloadPool`] (default `true`). `false` is a reference
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

/// Hot per-node state, flattened into its shard's arena.
struct Slot {
    id: NodeId,
    /// `None` once the node has been removed (ids are never reused, so
    /// the slot itself stays to keep the arena dense).
    proto: Option<Box<dyn Protocol>>,
    nat: NatDevice,
    /// Protocol randomness ([`Ctx::rng`]); lane [`LANE_PROTO`].
    proto_rng: StdRng,
    /// Link randomness (delay/loss/burst draws at send time); lane
    /// [`LANE_LINK`].
    link_rng: StdRng,
    /// Next sequence number for events this node originates.
    seq: u64,
    /// `Some(restart_at)` while crashed by a fault.
    down_until: Option<SimTime>,
    /// Per-fault Gilbert–Elliott chain state for this node's uplink
    /// (indexed like the installed fault list, grown lazily).
    ge_bad: Vec<bool>,
}

/// Read-only engine environment shared by all shards during a window.
struct EngineEnv<'a> {
    cfg: &'a SimConfig,
    fault: &'a FaultState,
}

/// Hot-flag bit: the slot holds a live (non-removed) protocol.
const HOT_ALIVE: u8 = 1;
/// Hot-flag bit: the node is crashed by a fault (`down_until` is set).
const HOT_DOWN: u8 = 2;
/// Hot-flag bit: the node's NAT type is `Public`, so inbound filtering
/// always passes and outbound packets leave from port 0: neither the
/// dispatch loop nor the send path touches the NAT device.
const HOT_PUBLIC: u8 = 4;

/// One shard: an event queue plus the arena of nodes it owns.
///
/// Per-node state is split structure-of-arrays style (DESIGN.md §14):
/// the dispatch loop's pre-delivery checks read only the dense `hot`
/// flag bytes and `traffic` counters, while the cold [`Slot`] (protocol
/// box, NAT device, RNG streams) is touched only once a callback
/// actually runs.
struct Shard {
    index: usize,
    nshards: u64,
    now: SimTime,
    queue: EventQueue<Event>,
    slots: Vec<Slot>,
    /// Dense per-slot flag bytes ([`HOT_ALIVE`] | [`HOT_DOWN`] |
    /// [`HOT_PUBLIC`]), parallel to `slots`. Invariants: `HOT_DOWN` ⇔
    /// `slot.down_until.is_some()`, `HOT_ALIVE` ⇔ `slot.proto.is_some()`.
    hot: Vec<u8>,
    /// Dense per-slot traffic deltas, parallel to `slots`; folded into
    /// the master sink at sync points via `traffic_dirty`.
    traffic: Vec<Traffic>,
    /// Positions with a nonzero `traffic` delta since the last sync.
    traffic_dirty: Vec<u32>,
    /// Delta metric sink, emptied into the master sink at run boundaries.
    metrics: Metrics,
    /// Shard-local payload buffer pool; delivered buffers are recycled
    /// here and handed back out by [`Ctx::send_wire`].
    pool: PayloadPool,
    /// Hot-path profiler buckets, drained into the exempt `prof.*`
    /// counters at metric sync points.
    prof: ProfTally,
    /// Per-destination-shard outboxes for cross-shard sends, swapped
    /// wholesale at window barriers (entry `index` is unused).
    outboxes: Vec<Vec<Event>>,
    /// Queued `Deliver` events (maintained incrementally; O(1) reads).
    in_flight: u64,
    /// Live (non-removed) nodes in this shard.
    live: usize,
    /// The effect list lent to each callback's [`Ctx`] and drained
    /// afterwards; empty between callbacks, its capacity kept so a
    /// callback that sends does not allocate one.
    effects: Vec<Effect>,
}

impl Shard {
    fn new(index: usize, cfg: &SimConfig) -> Self {
        let nshards = cfg.shards as u64;
        let mut queue = EventQueue::new(cfg.scheduler);
        let mut slots = Vec::new();
        let mut hot = Vec::new();
        let mut traffic = Vec::new();
        if cfg.expected_nodes > 0 {
            let per_shard = cfg.expected_nodes / cfg.shards + 1;
            // Start events + a steady-state in-flight share per node.
            queue.reserve(per_shard * 2);
            slots.reserve(per_shard);
            hot.reserve(per_shard);
            traffic.reserve(per_shard);
        }
        Shard {
            index,
            nshards,
            now: SimTime::ZERO,
            queue,
            slots,
            hot,
            traffic,
            traffic_dirty: Vec::new(),
            metrics: Metrics::new(),
            pool: PayloadPool::new(cfg.pooling),
            prof: ProfTally::new(cfg.profiling),
            outboxes: (0..cfg.shards).map(|_| Vec::new()).collect(),
            in_flight: 0,
            live: 0,
            effects: Vec::new(),
        }
    }

    /// Credits `bytes` of payload to slot `pos` in the dense traffic
    /// array (`up = true` for the uplink direction), marking the slot
    /// dirty on first touch since the last sync.
    #[inline]
    fn record_traffic(
        traffic: &mut [Traffic],
        dirty: &mut Vec<u32>,
        pos: usize,
        up: bool,
        bytes: usize,
    ) {
        let t = &mut traffic[pos];
        if t.up_msgs | t.down_msgs == 0 {
            dirty.push(pos as u32);
        }
        let total = (bytes + HEADER_OVERHEAD) as u64;
        if up {
            t.up_bytes += total;
            t.up_msgs += 1;
        } else {
            t.down_bytes += total;
            t.down_msgs += 1;
        }
    }

    /// Arena position of `id`, if this shard owns such a slot.
    fn slot_pos(&self, id: NodeId) -> Option<usize> {
        let pos = (id.0 / self.nshards) as usize;
        (id.0 % self.nshards == self.index as u64 && pos < self.slots.len()).then_some(pos)
    }

    /// Time of the earliest queued event in µs (`u64::MAX` if empty).
    /// `&mut` because peeking may advance the calendar-queue cursor.
    fn head_us(&mut self) -> u64 {
        self.queue.peek_key().map(|k| k.0).unwrap_or(u64::MAX)
    }

    /// Processes every queued event with `at < horizon_us`. Events for
    /// other shards are appended to the per-destination `outboxes`.
    fn run_window(&mut self, horizon_us: u64, env: &EngineEnv<'_>) {
        let profiling = self.prof.enabled;
        self.prof.windows += profiling as u64;
        loop {
            let t_sched = profiling.then(std::time::Instant::now);
            let Some(key) = self.queue.peek_key() else { break };
            if key.0 >= horizon_us {
                if let Some(t0) = t_sched {
                    self.prof.sched_ns += t0.elapsed().as_nanos() as u64;
                }
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            if let Some(t0) = t_sched {
                self.prof.sched_ns += t0.elapsed().as_nanos() as u64;
            }
            if matches!(ev.kind, EventKind::Deliver { .. }) {
                self.in_flight -= 1;
            }
            self.now = ev.at;
            // Tags exist to merge the series of several shards; one shard
            // records in canonical order as it is.
            if self.nshards > 1 {
                self.metrics.set_tag(Some(key));
            }
            let t_disp = profiling.then(std::time::Instant::now);
            self.dispatch(ev, env);
            if let Some(t0) = t_disp {
                self.prof.dispatch_ns += t0.elapsed().as_nanos() as u64;
                self.prof.events += 1;
            }
        }
        self.metrics.set_tag(None);
    }

    fn dispatch(&mut self, ev: Event, env: &EngineEnv<'_>) {
        match ev.kind {
            EventKind::Start { node } => {
                let Some(pos) = self.slot_pos(node) else { return };
                let hot = self.hot[pos];
                if hot & HOT_ALIVE == 0 {
                    return; // removed before it started
                }
                if hot & HOT_DOWN != 0 {
                    // Defer to the restart instant, reusing the original
                    // key so the relative order of deferred events is
                    // preserved (the control-class restart still sorts
                    // first).
                    let up_at = self.slots[pos].down_until.expect("HOT_DOWN set");
                    self.queue.push(Event {
                        at: up_at.max(self.now),
                        src: ev.src,
                        seq: ev.seq,
                        kind: EventKind::Start { node },
                    });
                    return;
                }
                self.invoke(pos, env, None, |proto, ctx| proto.on_start(ctx));
            }
            EventKind::Timer { node, token } => {
                let Some(pos) = self.slot_pos(node) else { return };
                let hot = self.hot[pos];
                if hot & HOT_ALIVE == 0 {
                    return;
                }
                // A crashed node runs nothing; its timers are deferred to
                // the restart instant and fire *after* the restart
                // callback (control events sort first at equal times).
                if hot & HOT_DOWN != 0 {
                    let up_at = self.slots[pos].down_until.expect("HOT_DOWN set");
                    self.queue.push(Event {
                        at: up_at.max(self.now),
                        src: ev.src,
                        seq: ev.seq,
                        kind: EventKind::Timer { node, token },
                    });
                    return;
                }
                self.invoke(pos, env, None, |proto, ctx| proto.on_timer(ctx, token));
            }
            EventKind::FaultCrash { node, restart_at } => {
                let Some(pos) = self.slot_pos(node) else { return };
                let slot = &mut self.slots[pos];
                if slot.proto.is_none() {
                    return; // already removed by churn
                }
                slot.down_until = Some(restart_at);
                self.hot[pos] |= HOT_DOWN;
                // The host reboots: its NAT device forgets every binding.
                slot.nat = NatDevice::new(slot.nat.nat_type());
                self.metrics.count("net.fault_crash", 1);
            }
            EventKind::FaultRestart { node } => {
                let Some(pos) = self.slot_pos(node) else { return };
                if self.slots[pos].down_until.take().is_some() {
                    self.hot[pos] &= !HOT_DOWN;
                    self.metrics.count("net.fault_restart", 1);
                    self.invoke(pos, env, None, |proto, ctx| proto.on_crash_restart(ctx));
                }
            }
            EventKind::FaultRebind { node } => {
                let Some(pos) = self.slot_pos(node) else { return };
                let slot = &mut self.slots[pos];
                if slot.proto.is_some() {
                    slot.nat = NatDevice::new(slot.nat.nat_type());
                    self.metrics.count("net.fault_nat_rebind", 1);
                }
            }
            EventKind::Deliver { to, from, from_ep, data } => {
                let Some(pos) = self.slot_pos(to.node) else {
                    self.metrics.count("net.drop_dead_target", 1);
                    return;
                };
                let hot = self.hot[pos];
                if hot & HOT_ALIVE == 0 {
                    self.metrics.count("net.drop_dead_target", 1);
                    return;
                }
                if hot & HOT_DOWN != 0 {
                    self.metrics.count("net.drop_crashed", 1);
                    return;
                }
                // Public nodes accept everything: skip the NAT device
                // (its `inbound` is unconditionally true and draws no
                // state), so the happy path stays on the hot arrays.
                if hot & HOT_PUBLIC == 0
                    && !self.slots[pos].nat.inbound(to.port, from_ep, self.now)
                {
                    self.metrics.count("net.nat_blocked", 1);
                    return;
                }
                Self::record_traffic(
                    &mut self.traffic,
                    &mut self.traffic_dirty,
                    pos,
                    false,
                    data.len(),
                );
                self.invoke(pos, env, None, |proto, ctx| {
                    proto.on_message(ctx, from, from_ep, &data)
                });
                // The engine's reference is the last one unless the
                // protocol cloned the payload; recycle the buffer for a
                // future send. Shared buffers are left alone, so reuse is
                // never observable (DESIGN.md §13).
                self.pool.recycle(data);
            }
        }
    }

    /// Runs one callback on the slot and applies its effects; `None` if
    /// the slot holds no live protocol. The callback's [`Ctx`] records
    /// into `sink`, or into this shard's delta sink when there is none.
    fn invoke<R>(
        &mut self,
        pos: usize,
        env: &EngineEnv<'_>,
        sink: Option<&mut Metrics>,
        f: impl FnOnce(&mut dyn Protocol, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let now = self.now;
        let (result, mut effects) = {
            let Shard { slots, metrics, pool, prof, effects, .. } = self;
            let slot = &mut slots[pos];
            let mut proto = slot.proto.take()?;
            let mut ctx = Ctx {
                now,
                id: slot.id,
                nat_type: slot.nat.nat_type(),
                rng: &mut slot.proto_rng,
                metrics: sink.unwrap_or(metrics),
                pool,
                tally: AllocTally::default(),
                prof: ProfCtx::new(prof.enabled),
                effects: std::mem::take(effects),
            };
            let t_cb = prof.enabled.then(std::time::Instant::now);
            let result = f(proto.as_mut(), &mut ctx);
            if let Some(t0) = t_cb {
                prof.callback_ns += t0.elapsed().as_nanos() as u64;
            }
            let effects = std::mem::take(&mut ctx.effects);
            std::mem::take(&mut ctx.tally).flush(ctx.metrics);
            std::mem::take(&mut ctx.prof).flush(prof);
            slot.proto = Some(proto);
            (result, effects)
        };
        self.apply_effects(pos, &mut effects, env);
        self.effects = effects;
        Some(result)
    }

    /// Applies and drains `effects`.
    fn apply_effects(&mut self, pos: usize, effects: &mut Vec<Effect>, env: &EngineEnv<'_>) {
        let nshards = self.nshards;
        let index = self.index as u64;
        let now = self.now;
        let Shard {
            slots, hot, metrics, queue, in_flight, traffic, traffic_dirty, outboxes, ..
        } = self;
        let public = hot[pos] & HOT_PUBLIC != 0;
        let slot = &mut slots[pos];
        let from = slot.id;
        for effect in effects.drain(..) {
            match effect {
                Effect::Timer { delay, token } => {
                    let ev = Event {
                        at: now + delay,
                        src: from.0 + 1,
                        seq: slot.seq,
                        kind: EventKind::Timer { node: from, token },
                    };
                    slot.seq += 1;
                    queue.push(ev);
                }
                Effect::Send { to, data } => {
                    Self::record_traffic(traffic, traffic_dirty, pos, true, data.len());
                    // Loopback: skip NAT and loss, deliver with link delay.
                    if to.node == from {
                        let delay = env.cfg.profile.link.sample(&mut slot.link_rng);
                        let from_ep = Endpoint { node: from, port: 0 };
                        let ev = Event {
                            at: now + delay,
                            src: from.0 + 1,
                            seq: slot.seq,
                            kind: EventKind::Deliver { to, from, from_ep, data },
                        };
                        slot.seq += 1;
                        *in_flight += 1;
                        queue.push(ev);
                        continue;
                    }
                    let src_port =
                        if public { 0 } else { slot.nat.outbound(to, now, NAT_LEASE) };
                    let from_ep = Endpoint { node: from, port: src_port };
                    if env.fault.partition_blocks(now, from, to.node) {
                        metrics.count("net.drop_partition", 1);
                        continue;
                    }
                    if env.cfg.profile.sample_loss(&mut slot.link_rng) {
                        metrics.count("net.lost", 1);
                        continue;
                    }
                    if env.fault.burst_drop(now, &mut slot.ge_bad, &mut slot.link_rng) {
                        metrics.count("net.lost_burst", 1);
                        continue;
                    }
                    let mut delay = env.cfg.profile.sample_delay(&mut slot.link_rng);
                    let factor = env.fault.delay_factor(now);
                    if factor > 1 {
                        delay = delay * factor;
                        metrics.count("net.delay_spiked", 1);
                    }
                    let ev = Event {
                        at: now + delay,
                        src: from.0 + 1,
                        seq: slot.seq,
                        kind: EventKind::Deliver { to, from, from_ep, data },
                    };
                    slot.seq += 1;
                    let dest = (to.node.0 % nshards) as usize;
                    if dest == index as usize {
                        *in_flight += 1;
                        queue.push(ev);
                    } else {
                        outboxes[dest].push(ev);
                    }
                }
            }
        }
    }
}

/// The cross-shard mailboxes, in two generations: `boxes[g][dst][src]`
/// holds what shard `src` sent shard `dst` in a window posted to
/// generation `g`. A window is the three steps [`Shard::run_window`],
/// [`Mailboxes::post`], [`Mailboxes::collect`], and every driver goes
/// through them in that order with all posts of a window before its first
/// collect (DESIGN.md §12). The threaded driver posts window `k` to
/// generation `k mod 2`, so that a shard already running window `k + 1`
/// fills other boxes than the ones a slower shard is still draining; the
/// sequential callers, for which a window's collects end before the next
/// one's posts begin, use generation 0 alone. Either way a box is locked
/// by its source only while posting and by its destination only while
/// collecting: the locks make the hand-over safe and are never contended.
struct Mailboxes {
    boxes: [Vec<Vec<Mutex<Vec<Event>>>>; 2],
}

impl Mailboxes {
    fn new(shards: usize) -> Self {
        let row = || (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let generation = || (0..shards).map(|_| row()).collect();
        Mailboxes { boxes: [generation(), generation()] }
    }

    /// Hands `shard`'s nonempty outboxes to their destinations by
    /// swapping each with the box of `generation` its destination drained
    /// earlier: both vectors keep their capacity, so the steady state
    /// moves events without allocating. Returns the earliest arrival time
    /// posted, in µs (`u64::MAX` if nothing was).
    fn post(&self, generation: usize, shard: &mut Shard) -> u64 {
        let src = shard.index;
        let mut earliest_us = u64::MAX;
        for (dst, outbox) in shard.outboxes.iter_mut().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            earliest_us = outbox.iter().map(|ev| ev.at.as_micros()).fold(earliest_us, u64::min);
            let mut mailbox =
                self.boxes[generation][dst][src].lock().expect("no panic holds a mailbox");
            debug_assert!(mailbox.is_empty(), "collected before the next post");
            std::mem::swap(outbox, &mut *mailbox);
        }
        earliest_us
    }

    /// Drains everything posted to `shard` in `generation` into its
    /// queue. Event keys make the queue's contents order-insensitive, so
    /// the order of draining cannot leak into the trace.
    fn collect(&self, generation: usize, shard: &mut Shard) {
        for mailbox in &self.boxes[generation][shard.index] {
            let mut mailbox = mailbox.lock().expect("no panic holds a mailbox");
            for ev in mailbox.drain(..) {
                debug_assert!(
                    matches!(ev.kind, EventKind::Deliver { .. }),
                    "only deliveries cross shards"
                );
                shard.in_flight += 1;
                shard.queue.push(ev);
            }
        }
    }
}

/// The discrete-event simulator.
pub struct Sim {
    cfg: SimConfig,
    now: SimTime,
    shards: Vec<Shard>,
    fault: FaultState,
    /// Harness RNG ([`Sim::rng`]), independent of all engine streams.
    harness_rng: StdRng,
    /// Master metric sink; shard deltas are merged into it at run
    /// boundaries.
    metrics: Metrics,
    next_node_id: u64,
    /// Sequence counter for control-plane events.
    control_seq: u64,
    /// Conservative lookahead window length in µs (unbounded with one
    /// shard).
    lookahead_us: u64,
    /// Where the shard threads of a run meet once per window; `None`
    /// when `run_until` runs the shards in turn on the caller's thread
    /// (trace-invariant either way). Built once: whether its waiters may
    /// spin depends on the host's core count, which is slow to ask for.
    barrier: Option<WindowBarrier>,
    mail: Mailboxes,
}

impl Sim {
    /// Creates an empty simulation.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0`, or if `cfg.shards > 1` with a profile
    /// whose [`NetProfile::min_delay`] is zero (conservative lookahead
    /// needs a positive minimum cross-shard latency).
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.shards >= 1, "a simulation needs at least one shard");
        let lookahead_us = if cfg.shards == 1 {
            // Everything is local to the single shard: one window covers
            // any run.
            u64::MAX
        } else {
            cfg.profile.min_delay().as_micros()
        };
        assert!(
            lookahead_us > 0,
            "sharded simulation requires profile.min_delay() > 0 \
             (the lookahead window would be empty)"
        );
        let threaded = cfg.shards > 1
            && cfg.threads.unwrap_or_else(|| {
                std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) > 1
            });
        let barrier = threaded.then(|| WindowBarrier::for_shards(cfg.shards));
        let harness_rng = StdRng::for_stream_lane(cfg.seed, 0, LANE_HARNESS);
        let shards = (0..cfg.shards).map(|i| Shard::new(i, &cfg)).collect();
        Sim {
            mail: Mailboxes::new(cfg.shards),
            cfg,
            now: SimTime::ZERO,
            shards,
            fault: FaultState::default(),
            harness_rng,
            metrics: Metrics::new(),
            next_node_id: 0,
            control_seq: 0,
            lookahead_us,
            barrier,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.live).sum()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live node identifiers in ascending order (deterministic).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .shards
            .iter()
            .flat_map(|s| s.slots.iter().filter(|sl| sl.proto.is_some()).map(|sl| sl.id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether `id` is currently live.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|sl| sl.proto.is_some())
    }

    /// The NAT type of a live node.
    pub fn nat_type(&self, id: NodeId) -> Option<NatType> {
        let slot = self.slot(id)?;
        slot.proto.as_ref()?;
        Some(slot.nat.nat_type())
    }

    /// The metric sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metric sink (e.g. to reset between phases).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The harness RNG, for harness-level random choices that must stay
    /// deterministic (topology sampling, victim selection, …).
    /// Independent of every engine and per-node stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.harness_rng
    }

    /// Adds a node behind a NAT device of type `nat_type` and schedules
    /// its `on_start` at the current time. Returns its fresh identifier.
    ///
    /// Ids are assigned sequentially and never reused, which keeps every
    /// shard's arena dense (`NodeId % shards` picks the shard,
    /// `NodeId / shards` the slot).
    pub fn add_node(&mut self, protocol: Box<dyn Protocol>, nat_type: NatType) -> NodeId {
        let id = NodeId(self.next_node_id);
        self.next_node_id += 1;
        let seed = self.cfg.seed;
        let nshards = self.cfg.shards as u64;
        let shard = &mut self.shards[(id.0 % nshards) as usize];
        debug_assert_eq!(shard.slots.len() as u64, id.0 / nshards, "arena must stay dense");
        shard.slots.push(Slot {
            id,
            proto: Some(protocol),
            nat: NatDevice::new(nat_type),
            proto_rng: StdRng::for_stream_lane(seed, id.0, LANE_PROTO),
            link_rng: StdRng::for_stream_lane(seed, id.0, LANE_LINK),
            seq: 0,
            down_until: None,
            ge_bad: Vec::new(),
        });
        shard.hot.push(HOT_ALIVE | if nat_type.is_public() { HOT_PUBLIC } else { 0 });
        shard.traffic.push(Traffic::default());
        shard.live += 1;
        self.push_control(self.now, id, EventKind::Start { node: id });
        id
    }

    /// Removes a node abruptly (crash semantics: no notification, pending
    /// messages to it are dropped, its NAT state disappears). O(1).
    pub fn remove_node(&mut self, id: NodeId) {
        let shard = &mut self.shards[(id.0 % self.cfg.shards as u64) as usize];
        if let Some(pos) = shard.slot_pos(id) {
            let slot = &mut shard.slots[pos];
            if slot.proto.take().is_some() {
                slot.down_until = None;
                slot.nat = NatDevice::new(slot.nat.nat_type());
                shard.hot[pos] &= !(HOT_ALIVE | HOT_DOWN);
                shard.live -= 1;
            }
        }
    }

    /// Installs a [`FaultPlan`]: windowed faults (partition, burst loss,
    /// latency spike) take effect on the send path while their window is
    /// active; point-in-time faults (crash/restart, NAT rebind) are
    /// scheduled through the ordinary event queues as control-plane
    /// events, so their ordering relative to protocol events is
    /// deterministic (control events sort first at equal instants). May
    /// be called more than once; plans accumulate. Instants already in
    /// the past fire immediately.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for fault in &plan.faults {
            match *fault {
                Fault::CrashRestart { node, at, restart_at } => {
                    self.push_control(at, node, EventKind::FaultCrash { node, restart_at });
                    self.push_control(restart_at, node, EventKind::FaultRestart { node });
                }
                Fault::NatRebind { node, at } => {
                    self.push_control(at, node, EventKind::FaultRebind { node });
                }
                _ => {}
            }
        }
        self.fault.install(plan);
    }

    /// Whether `id` is currently crashed by a
    /// [`Fault::CrashRestart`]. O(1).
    pub fn is_down(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|sl| sl.down_until.is_some())
    }

    /// Number of messages currently in flight (queued `Deliver` events).
    /// The drop-attribution identity is
    /// `sends == deliveries + Σ drop counters + in_flight`.
    pub fn in_flight_msgs(&self) -> u64 {
        self.shards.iter().map(|s| s.in_flight).sum()
    }

    /// Immutable access to a node's protocol state, downcast to `T`.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.slot(id)?.proto.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node's protocol state, downcast to `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.slot_mut(id)?.proto.as_mut()?.as_any_mut().downcast_mut::<T>()
    }

    /// Invokes `f` on the node as if from a protocol callback — used by
    /// harnesses to inject application commands (e.g. "issue a DHT
    /// lookup"). Effects are applied as usual. Returns `false` if the
    /// node is missing, crashed, or not a `T`.
    pub fn with_node_ctx<T: 'static>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>),
    ) -> bool {
        let si = (id.0 % self.cfg.shards as u64) as usize;
        let Sim { cfg, fault, shards, metrics, mail, now, .. } = self;
        let shard = &mut shards[si];
        let Some(pos) = shard.slot_pos(id) else { return false };
        if shard.hot[pos] & HOT_DOWN != 0 {
            return false; // a crashed node cannot run callbacks
        }
        shard.now = *now;
        // Harness time has no event tag for the shard-delta merge to order
        // samples by: record straight into the master sink.
        let applied = shard.invoke(pos, &EngineEnv { cfg, fault }, Some(metrics), |proto, ctx| {
            proto.as_any_mut().downcast_mut::<T>().map(|node| f(node, ctx)).is_some()
        });
        mail.post(0, shard);
        for shard in shards.iter_mut() {
            mail.collect(0, shard);
        }
        self.sync_metrics();
        applied == Some(true)
    }

    /// Runs events until the queues are exhausted or `deadline` is
    /// reached; time ends exactly at `deadline`. The clock never runs
    /// backwards: a deadline earlier than [`Sim::now`] is a no-op.
    pub fn run_until(&mut self, deadline: SimTime) {
        let deadline = deadline.max(self.now);
        if self.barrier.is_some() {
            self.run_windows_threaded(deadline.as_micros());
        } else {
            self.run_windows(deadline.as_micros());
        }
        for shard in &mut self.shards {
            shard.now = deadline;
        }
        self.now = deadline;
        self.sync_metrics();
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Runs for `secs` seconds of simulated time.
    pub fn run_for_secs(&mut self, secs: u64) {
        self.run_for(SimDuration::from_secs(secs));
    }

    /// End of the conservative window that starts at the earliest queued
    /// event `t_next`, or `None` once nothing is due by the deadline.
    fn horizon(t_next: u64, lookahead_us: u64, deadline_us: u64) -> Option<u64> {
        (t_next <= deadline_us)
            .then(|| t_next.saturating_add(lookahead_us).min(deadline_us.saturating_add(1)))
    }

    /// The sequential driver: every shard runs the window and posts in
    /// turn, then every shard collects. Byte-identical to the threaded
    /// driver.
    fn run_windows(&mut self, deadline_us: u64) {
        let Sim { cfg, fault, shards, mail, lookahead_us, .. } = self;
        let env = EngineEnv { cfg, fault };
        loop {
            let t_next = shards.iter_mut().map(Shard::head_us).min().unwrap_or(u64::MAX);
            let Some(horizon) = Self::horizon(t_next, *lookahead_us, deadline_us) else { break };
            for shard in shards.iter_mut() {
                shard.run_window(horizon, &env);
                mail.post(0, shard);
            }
            for shard in shards.iter_mut() {
                mail.collect(0, shard);
            }
        }
    }

    /// The threaded driver: one scoped thread per shard runs the same
    /// steps and crosses **one** barrier per window, between its post and
    /// its collect. Before the barrier of window `k` each thread publishes,
    /// in generation `k mod 2` of `next_at`, the earlier of its queue head
    /// and the earliest arrival it posted; after it, each reads that
    /// generation of every shard. The minimum over heads before the
    /// collects and over everything posted *is* the minimum over heads
    /// after the collects, so every thread computes the horizon the
    /// sequential driver would and nothing has to coordinate them. What a
    /// thread writes in window `k + 1` — published minimum, mailboxes,
    /// panic flag — is generation `(k + 1) mod 2`, which no thread still
    /// reads or drains: generation `k mod 2` is written again in window
    /// `k + 2` only, after barrier `k + 1`, at which every thread arrives
    /// with its reads and its collect of window `k` done. The threads end
    /// with the run.
    ///
    /// A callback that panics must not leave the other threads waiting
    /// at a barrier nobody will complete: the thread that caught it still
    /// arrives, all of them leave after that barrier, and the panic
    /// resumes in the caller.
    fn run_windows_threaded(&mut self, deadline_us: u64) {
        let Sim { cfg, fault, shards, mail, lookahead_us, barrier, .. } = self;
        let (env, mail, lookahead_us) = (EngineEnv { cfg, fault }, &*mail, *lookahead_us);
        let barrier = barrier.as_ref().expect("a threaded simulation has its barrier");
        let t_first = shards.iter_mut().map(Shard::head_us).min().unwrap_or(u64::MAX);
        let nshards = shards.len();
        let generation = || (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect::<Vec<_>>();
        let next_at = [generation(), generation()];
        let panicked = [AtomicBool::new(false), AtomicBool::new(false)];
        let run_shard = |shard: &mut Shard| {
            let mut t_next = t_first;
            for window in 0usize.. {
                let Some(horizon) = Self::horizon(t_next, lookahead_us, deadline_us) else { break };
                let parity = window % 2;
                let (next_at, panicked) = (&next_at[parity], &panicked[parity]);
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    shard.run_window(horizon, &env);
                    let earliest_us = shard.head_us().min(mail.post(parity, shard));
                    next_at[shard.index].store(earliest_us, Ordering::SeqCst);
                }));
                if ran.is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                let arrived = shard.prof.enabled.then(std::time::Instant::now);
                barrier.wait(); // every post made, minimum published, panic flagged
                if let Some(t0) = arrived {
                    shard.prof.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
                }
                if let Err(panic) = ran {
                    resume_unwind(panic);
                }
                if panicked.load(Ordering::SeqCst) {
                    break;
                }
                t_next = next_at.iter().map(|a| a.load(Ordering::SeqCst)).min().unwrap_or(u64::MAX);
                mail.collect(parity, shard);
            }
        };
        std::thread::scope(|scope| {
            // One thread per shard; the caller only waits. Measured: with
            // the caller running a shard itself, the benchmark's sharded
            // workload peaked 12-50 % more resident memory.
            let threads: Vec<_> =
                shards.iter_mut().map(|shard| scope.spawn(move || run_shard(shard))).collect();
            for thread in threads {
                if let Err(panic) = thread.join() {
                    resume_unwind(panic);
                }
            }
        });
    }

    /// Pushes a control-plane event (owned by `node`'s shard).
    fn push_control(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        let at = at.max(self.now);
        let seq = self.control_seq;
        self.control_seq += 1;
        let si = (node.0 % self.cfg.shards as u64) as usize;
        self.shards[si].queue.push(Event { at, src: CONTROL_SRC, seq, kind });
    }

    fn slot(&self, id: NodeId) -> Option<&Slot> {
        let shard = &self.shards[(id.0 % self.cfg.shards as u64) as usize];
        let pos = shard.slot_pos(id)?;
        Some(&shard.slots[pos])
    }

    fn slot_mut(&mut self, id: NodeId) -> Option<&mut Slot> {
        let shard = &mut self.shards[(id.0 % self.cfg.shards as u64) as usize];
        let pos = shard.slot_pos(id)?;
        Some(&mut shard.slots[pos])
    }

    /// Drains every shard's delta metrics into the master sink in
    /// canonical event order; the shard sinks come back empty, with the
    /// memory they had. Pool statistics are flushed here too — into
    /// the `net.pool_*` counters, which are shard-local by nature and
    /// therefore exempt from the determinism-trace comparison (DESIGN.md
    /// §13), like the `*_wall_us` samples.
    fn sync_metrics(&mut self) {
        let Sim { shards, metrics, .. } = self;
        for s in shards.iter_mut() {
            let stats = s.pool.take_stats();
            for (name, v) in [
                ("net.pool_hits", stats.hits),
                ("net.pool_misses", stats.misses),
                ("net.pool_miss_bytes", stats.miss_bytes),
                ("net.pool_recycled", stats.recycled),
                ("net.pool_drop_shared", stats.drop_shared),
                ("net.pool_drop_full", stats.drop_full),
            ] {
                if v > 0 {
                    metrics.count(name, v);
                }
            }
            s.prof.flush(metrics);
            // Fold the dense per-slot traffic deltas into the per-node
            // totals (dirty positions only, then reset).
            let (nshards, base) = (s.nshards, s.index as u64);
            for pos in s.traffic_dirty.drain(..) {
                let t = std::mem::take(&mut s.traffic[pos as usize]);
                metrics.add_traffic(NodeId(pos as u64 * nshards + base), t);
            }
        }
        match shards.as_mut_slice() {
            [only] => metrics.append_shard_delta(&mut only.metrics),
            many => {
                let mut deltas: Vec<&mut Metrics> =
                    many.iter_mut().map(|s| &mut s.metrics).collect();
                metrics.merge_shard_deltas(&mut deltas);
            }
        }
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.len())
            .field("shards", &self.shards.len())
            .field(
                "pending_events",
                &self.shards.iter().map(|s| s.queue.len()).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::NatType;

    /// Test protocol: pings a target on start, echoes everything back,
    /// counts deliveries, re-arms a periodic timer.
    struct Pinger {
        target: Option<Endpoint>,
        received: Vec<(NodeId, Vec<u8>)>,
        timer_fires: u32,
        periodic: bool,
    }

    impl Pinger {
        fn new() -> Self {
            Pinger { target: None, received: Vec::new(), timer_fires: 0, periodic: false }
        }
    }

    impl Protocol for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(t) = self.target {
                ctx.send_to(t, b"ping".to_vec());
            }
            if self.periodic {
                ctx.set_timer(SimDuration::from_secs(1), 1);
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: NodeId,
            from_ep: Endpoint,
            data: &Payload,
        ) {
            self.received.push((from, data.to_vec()));
            if data.as_slice() == b"ping" {
                ctx.send_to(from_ep, b"pong".to_vec());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timer_fires += 1;
            if self.periodic && self.timer_fires < 5 {
                ctx.set_timer(SimDuration::from_secs(1), token);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_between_public_nodes() {
        let mut sim = Sim::new(SimConfig::ideal(1));
        let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let mut a_proto = Pinger::new();
        a_proto.target = Some(Endpoint::public(b));
        let a = sim.add_node(Box::new(a_proto), NatType::Public);
        sim.run_for_secs(1);
        let a_state: &Pinger = sim.node(a).unwrap();
        assert_eq!(a_state.received.len(), 1);
        assert_eq!(a_state.received[0].1, b"pong");
        let b_state: &Pinger = sim.node(b).unwrap();
        assert_eq!(b_state.received[0].0, a);
    }

    #[test]
    fn reply_to_natted_sender_via_observed_endpoint() {
        // A is behind a port-restricted NAT; B replies to A's observed
        // endpoint and the reply passes the filter.
        let mut sim = Sim::new(SimConfig::ideal(2));
        let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let mut a_proto = Pinger::new();
        a_proto.target = Some(Endpoint::public(b));
        let a = sim.add_node(Box::new(a_proto), NatType::PortRestrictedCone);
        sim.run_for_secs(1);
        let a_state: &Pinger = sim.node(a).unwrap();
        assert_eq!(a_state.received.len(), 1, "pong must traverse A's NAT");
    }

    #[test]
    fn unsolicited_message_to_natted_node_blocked() {
        let mut sim = Sim::new(SimConfig::ideal(3));
        let victim = sim.add_node(Box::new(Pinger::new()), NatType::RestrictedCone);
        let mut a_proto = Pinger::new();
        // Guess an endpoint; nothing was opened, so it must be dropped.
        a_proto.target = Some(Endpoint { node: victim, port: 1 });
        sim.add_node(Box::new(a_proto), NatType::Public);
        sim.run_for_secs(1);
        let v: &Pinger = sim.node(victim).unwrap();
        assert!(v.received.is_empty());
        assert_eq!(sim.metrics().counter("net.nat_blocked"), 1);
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut sim = Sim::new(SimConfig::ideal(4));
        let mut p = Pinger::new();
        p.periodic = true;
        let id = sim.add_node(Box::new(p), NatType::Public);
        sim.run_for_secs(10);
        let state: &Pinger = sim.node(id).unwrap();
        assert_eq!(state.timer_fires, 5);
    }

    #[test]
    fn dead_node_receives_nothing() {
        let mut sim = Sim::new(SimConfig::ideal(5));
        let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let mut a_proto = Pinger::new();
        a_proto.target = Some(Endpoint::public(b));
        sim.add_node(Box::new(a_proto), NatType::Public);
        sim.remove_node(b);
        sim.run_for_secs(1);
        assert_eq!(sim.metrics().counter("net.drop_dead_target"), 1);
        assert!(!sim.contains(b));
    }

    #[test]
    fn bandwidth_is_accounted() {
        let mut sim = Sim::new(SimConfig::ideal(6));
        let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let mut a_proto = Pinger::new();
        a_proto.target = Some(Endpoint::public(b));
        let a = sim.add_node(Box::new(a_proto), NatType::Public);
        sim.run_for_secs(1);
        let ta = sim.metrics().traffic(a);
        let tb = sim.metrics().traffic(b);
        assert_eq!(ta.up_msgs, 1);
        assert_eq!(ta.down_msgs, 1);
        assert_eq!(tb.up_msgs, 1);
        assert!(ta.up_bytes > 4, "headers counted");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Sim::new(SimConfig::cluster(seed));
            let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
            for _ in 0..20 {
                let mut p = Pinger::new();
                p.target = Some(Endpoint::public(b));
                p.periodic = true;
                sim.add_node(Box::new(p), NatType::RestrictedCone);
            }
            sim.run_for_secs(30);
            let t = sim.metrics().traffic(b);
            (t.down_bytes, t.up_bytes)
        }
        assert_eq!(run(7), run(7));
        assert_eq!(run(8), run(8));
    }

    #[test]
    fn with_node_ctx_injects_commands() {
        let mut sim = Sim::new(SimConfig::ideal(8));
        let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let a = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let ok = sim.with_node_ctx::<Pinger>(a, |_p, ctx| {
            ctx.send_to(Endpoint::public(b), b"ping".to_vec());
        });
        assert!(ok);
        sim.run_for_secs(1);
        let b_state: &Pinger = sim.node(b).unwrap();
        assert_eq!(b_state.received.len(), 1);
    }

    #[test]
    fn run_until_lands_exactly_on_deadline() {
        let mut sim = Sim::new(SimConfig::ideal(9));
        sim.run_until(SimTime::from_micros(123_456));
        assert_eq!(sim.now().as_micros(), 123_456);
    }

    /// The heart of the sharding contract: the same seed produces the
    /// same trace for 1, 2 and 4 shards, sequential or threaded.
    #[test]
    fn sharded_run_matches_single_shard() {
        fn run(shards: usize, threads: bool) -> Vec<u8> {
            let cfg = SimConfig::cluster(21)
                .with_shards(shards)
                .with_threads(threads)
                .with_profiling(true);
            let mut sim = Sim::new(cfg);
            let hub = sim.add_node(Box::new(Pinger::new()), NatType::Public);
            for _ in 0..7 {
                let mut p = Pinger::new();
                p.target = Some(Endpoint::public(hub));
                p.periodic = true;
                sim.add_node(Box::new(p), NatType::RestrictedCone);
            }
            sim.run_for_secs(10);
            // Everything but the host-side families: pool statistics are
            // shard-local by design, and profiling is ON here to prove
            // that all else stays byte-identical under it.
            sim.metrics().deterministic_trace()
        }
        let base = run(1, false);
        assert_eq!(base, run(2, false), "2 shards, sequential");
        assert_eq!(base, run(2, true), "2 shards, threaded");
        assert_eq!(base, run(4, false), "4 shards, sequential");
        assert_eq!(base, run(4, true), "4 shards, threaded");
    }

    /// Profiling populates the `prof.*` buckets; leaving it off (the
    /// default) emits none of them.
    #[test]
    fn profiler_buckets_accumulate_only_when_enabled() {
        fn run(profiling: bool) -> Vec<(&'static str, u64)> {
            let mut sim = Sim::new(SimConfig::cluster(33).with_profiling(profiling));
            let hub = sim.add_node(Box::new(Pinger::new()), NatType::Public);
            let mut p = Pinger::new();
            p.target = Some(Endpoint::public(hub));
            p.periodic = true;
            sim.add_node(Box::new(p), NatType::Public);
            sim.run_for_secs(5);
            sim.metrics()
                .counter_names()
                .filter(|n| n.starts_with("prof."))
                .map(|n| (n, sim.metrics().counter(n)))
                .collect()
        }
        assert!(run(false).is_empty(), "profiler off must emit no prof.* counters");
        let on = run(true);
        let get = |name: &str| on.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        assert!(get("prof.events") > 0, "events dispatched under the profiler");
        assert!(get("prof.sched_ns") > 0, "scheduler bucket populated");
        // dispatch time contains the callback time, so the derived
        // engine bucket plus callbacks can never exceed dispatch totals.
        assert!(get("prof.callback_ns") > 0, "callback bucket populated");
    }
}
