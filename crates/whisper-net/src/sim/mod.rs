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
//! Two runs with the same seed produce **byte-identical traces
//! ([`Metrics::deterministic_trace`]) for any shard count and any thread
//! policy**. This holds because nothing trace-visible depends on
//! partitioning:
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
//! * Message bytes travel as reference-counted [`Payload`](crate::Payload) buffers
//!   recycled through shard-local pools ([`crate::payload`]); pooling is
//!   invisible to the trace — only the exempt `net.pool_*` statistics
//!   reflect it (DESIGN.md §13).
//! * Sample series compare as multisets: each shard's delta is appended
//!   to the master sink in turn, so a series' stored order depends on the
//!   shard count, and [`Metrics::deterministic_trace`] sorts it away.
//!
//! See `DESIGN.md` §12 for the full algorithm and the rules code must
//! follow to preserve the contract (no wall clock, no `HashMap`
//! iteration order in trace-visible paths).
//!
//! Protocols implement [`Protocol`] and interact with the world only
//! through [`Ctx`], which *records* effects (sends, timers); the engine
//! applies them once the callback returns. This keeps the borrow
//! structure simple and the event order well-defined.

mod config;
mod ctx;
mod prof;
mod shard;

pub use config::{SimConfig, NAT_LEASE};
pub use ctx::{Ctx, Protocol};
pub use shard::DROP_CAUSES;

use crate::barrier::WindowBarrier;
use crate::fault::{Fault, FaultPlan, FaultState};
use crate::id::NodeId;
use crate::metrics::{Metrics, Traffic};
use crate::nat::{NatDevice, NatType};
use crate::time::{SimDuration, SimTime};
use shard::{
    EngineEnv, Event, EventKind, Shard, Slot, CONTROL_SRC, HOT_ALIVE, HOT_DOWN, HOT_PUBLIC,
};
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
    /// Master metric sink; shard deltas are folded into it at run
    /// boundaries and after every harness callback.
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
    /// whose [`NetProfile::min_delay`](crate::latency::NetProfile::min_delay) is zero (conservative lookahead
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
    pub fn in_flight_msgs(&self) -> u64 {
        self.shards.iter().map(|s| s.in_flight).sum()
    }

    /// The drop-attribution identity's remainder, `Σup − Σdown − Σ
    /// drops under [`DROP_CAUSES`] − in flight`: the messages sent that
    /// were neither delivered, dropped for a named cause nor are still on
    /// their way. Zero between runs unless a message vanished.
    pub fn unattributed_msgs(&self) -> i64 {
        let traffic = self.metrics.traffic_snapshot();
        let up: u64 = traffic.values().map(|t| t.up_msgs).sum();
        let down: u64 = traffic.values().map(|t| t.down_msgs).sum();
        let drops: u64 = DROP_CAUSES.iter().map(|name| self.metrics.counter(name)).sum();
        up as i64 - (down + drops + self.in_flight_msgs()) as i64
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
        let Sim { cfg, fault, shards, mail, now, .. } = self;
        let shard = &mut shards[si];
        let Some(pos) = shard.slot_pos(id) else { return false };
        if shard.hot[pos] & HOT_DOWN != 0 {
            return false; // a crashed node cannot run callbacks
        }
        shard.now = *now;
        let applied = shard.invoke(pos, &EngineEnv { cfg, fault }, |proto, ctx| {
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

    /// Folds every shard's delta metrics into the master sink, one
    /// additive [`Metrics::absorb_shard_delta`] per shard, so a series'
    /// stored order depends on the shard count and nothing else does; the
    /// shard sinks come back empty, with the memory they had. Pool
    /// statistics are flushed here too — into the `net.pool_*` counters,
    /// which are shard-local by nature and therefore exempt from the
    /// determinism-trace comparison (DESIGN.md §13), like the `prof.*`
    /// counters.
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
            metrics.absorb_shard_delta(&mut s.metrics);
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
mod tests;
