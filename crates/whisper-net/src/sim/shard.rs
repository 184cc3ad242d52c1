//! One shard of the engine: its event queue, the arena of nodes it owns,
//! the window loop, event dispatch and the application of a callback's
//! effects.

use super::ctx::{AllocTally, Ctx, Effect, ProfCtx, Protocol};
use super::prof::ProfTally;
use super::{SimConfig, NAT_LEASE};
use crate::fault::FaultState;
use crate::id::{Endpoint, NodeId};
use crate::metrics::{Metrics, Traffic, HEADER_OVERHEAD};
use crate::nat::NatDevice;
use crate::payload::{Payload, PayloadPool};
use crate::sched::{EventKey, EventQueue, Keyed};
use crate::time::SimTime;
use whisper_rand::rngs::StdRng;

/// Event-source class for control-plane events (node starts scheduled by
/// the harness, scripted fault instants). Sorts before every node source
/// at equal times, so crash/restart handling precedes deferred protocol
/// events at the same instant.
pub(super) const CONTROL_SRC: u64 = 0;

pub(super) enum EventKind {
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
pub(super) struct Event {
    pub(super) at: SimTime,
    pub(super) src: u64,
    pub(super) seq: u64,
    pub(super) kind: EventKind,
}

impl Keyed for Event {
    fn key(&self) -> EventKey {
        (self.at.as_micros(), self.src, self.seq)
    }
}

/// Hot per-node state, flattened into its shard's arena.
pub(super) struct Slot {
    pub(super) id: NodeId,
    /// `None` once the node has been removed (ids are never reused, so
    /// the slot itself stays to keep the arena dense).
    pub(super) proto: Option<Box<dyn Protocol>>,
    pub(super) nat: NatDevice,
    /// Protocol randomness ([`Ctx::rng`]); lane
    /// [`LANE_PROTO`](super::LANE_PROTO).
    pub(super) proto_rng: StdRng,
    /// Link randomness (delay/loss/burst draws at send time); lane
    /// [`LANE_LINK`](super::LANE_LINK).
    pub(super) link_rng: StdRng,
    /// Next sequence number for events this node originates.
    pub(super) seq: u64,
    /// `Some(restart_at)` while crashed by a fault.
    pub(super) down_until: Option<SimTime>,
    /// Per-fault Gilbert–Elliott chain state for this node's uplink
    /// (indexed like the installed fault list, grown lazily).
    pub(super) ge_bad: Vec<bool>,
}

impl Slot {
    /// The next event this node originates: `kind` at `at`, under the
    /// node's next key.
    fn event(&mut self, at: SimTime, kind: EventKind) -> Event {
        let seq = self.seq;
        self.seq += 1;
        Event { at, src: self.id.0 + 1, seq, kind }
    }
}

/// Read-only engine environment shared by all shards during a window.
pub(super) struct EngineEnv<'a> {
    pub(super) cfg: &'a SimConfig,
    pub(super) fault: &'a FaultState,
}

/// Hot-flag bit: the slot holds a live (non-removed) protocol.
pub(super) const HOT_ALIVE: u8 = 1;
/// Hot-flag bit: the node is crashed by a fault (`down_until` is set).
pub(super) const HOT_DOWN: u8 = 2;
/// Hot-flag bit: the node's NAT type is `Public`, so inbound filtering
/// always passes and outbound packets leave from port 0: neither the
/// dispatch loop nor the send path touches the NAT device.
pub(super) const HOT_PUBLIC: u8 = 4;

/// One shard: an event queue plus the arena of nodes it owns.
///
/// Per-node state is split structure-of-arrays style (DESIGN.md §14):
/// the dispatch loop's pre-delivery checks read only the dense `hot`
/// flag bytes and `traffic` counters, while the cold [`Slot`] (protocol
/// box, NAT device, RNG streams) is touched only once a callback
/// actually runs.
pub(super) struct Shard {
    pub(super) index: usize,
    pub(super) nshards: u64,
    pub(super) now: SimTime,
    pub(super) queue: EventQueue<Event>,
    pub(super) slots: Vec<Slot>,
    /// Dense per-slot flag bytes ([`HOT_ALIVE`] | [`HOT_DOWN`] |
    /// [`HOT_PUBLIC`]), parallel to `slots`. Invariants: `HOT_DOWN` ⇔
    /// `slot.down_until.is_some()`, `HOT_ALIVE` ⇔ `slot.proto.is_some()`.
    pub(super) hot: Vec<u8>,
    /// Dense per-slot traffic deltas, parallel to `slots`; folded into
    /// the master sink at sync points via `traffic_dirty`.
    pub(super) traffic: Vec<Traffic>,
    /// Positions with a nonzero `traffic` delta since the last sync.
    pub(super) traffic_dirty: Vec<u32>,
    /// Delta metric sink, emptied into the master sink at run boundaries.
    pub(super) metrics: Metrics,
    /// Shard-local payload buffer pool; delivered buffers are recycled
    /// here and handed back out by [`Ctx::send_wire`].
    pub(super) pool: PayloadPool,
    /// Hot-path profiler buckets, drained into the exempt `prof.*`
    /// counters at metric sync points.
    pub(super) prof: ProfTally,
    /// Per-destination-shard outboxes for cross-shard sends, swapped
    /// wholesale at window barriers (entry `index` is unused).
    pub(super) outboxes: Vec<Vec<Event>>,
    /// Queued `Deliver` events (maintained incrementally; O(1) reads).
    pub(super) in_flight: u64,
    /// Live (non-removed) nodes in this shard.
    pub(super) live: usize,
    /// The effect list lent to each callback's [`Ctx`] and drained
    /// afterwards; empty between callbacks, its capacity kept so a
    /// callback that sends does not allocate one.
    pub(super) effects: Vec<Effect>,
}

impl Shard {
    pub(super) fn new(index: usize, cfg: &SimConfig) -> Self {
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
    pub(super) fn slot_pos(&self, id: NodeId) -> Option<usize> {
        let pos = (id.0 / self.nshards) as usize;
        (id.0 % self.nshards == self.index as u64 && pos < self.slots.len()).then_some(pos)
    }

    /// Time of the earliest queued event in µs (`u64::MAX` if empty).
    /// `&mut` because peeking may advance the calendar-queue cursor.
    pub(super) fn head_us(&mut self) -> u64 {
        self.queue.peek_key().map(|k| k.0).unwrap_or(u64::MAX)
    }

    /// Processes every queued event with `at < horizon_us`. Events for
    /// other shards are appended to the per-destination `outboxes`.
    pub(super) fn run_window(&mut self, horizon_us: u64, env: &EngineEnv<'_>) {
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
            let t_disp = profiling.then(std::time::Instant::now);
            self.dispatch(ev, env);
            if let Some(t0) = t_disp {
                self.prof.dispatch_ns += t0.elapsed().as_nanos() as u64;
                self.prof.events += 1;
            }
        }
    }

    fn dispatch(&mut self, ev: Event, env: &EngineEnv<'_>) {
        match ev.kind {
            EventKind::Start { node } | EventKind::Timer { node, .. } => {
                self.run_on_node(node, ev, env)
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
                    self.invoke(pos, env, |proto, ctx| proto.on_crash_restart(ctx));
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
                self.invoke(pos, env, |proto, ctx| proto.on_message(ctx, from, from_ep, &data));
                // The engine's reference is the last one unless the
                // protocol cloned the payload; recycle the buffer for a
                // future send. Shared buffers are left alone, so reuse is
                // never observable (DESIGN.md §13).
                self.pool.recycle(data);
            }
        }
    }

    /// Runs a `Start` or `Timer` event on its node, unless the node was
    /// removed. A crashed node runs nothing: the event is re-queued at the
    /// restart instant under its original key, so deferred events keep
    /// their relative order and fire *after* the restart callback (the
    /// control-class restart sorts first at equal times).
    fn run_on_node(&mut self, node: NodeId, ev: Event, env: &EngineEnv<'_>) {
        let Some(pos) = self.slot_pos(node) else { return };
        let hot = self.hot[pos];
        if hot & HOT_ALIVE == 0 {
            return;
        }
        if hot & HOT_DOWN != 0 {
            let up_at = self.slots[pos].down_until.expect("HOT_DOWN set");
            self.queue.push(Event { at: up_at.max(self.now), ..ev });
            return;
        }
        match ev.kind {
            EventKind::Timer { token, .. } => {
                self.invoke(pos, env, |proto, ctx| proto.on_timer(ctx, token))
            }
            _ => self.invoke(pos, env, |proto, ctx| proto.on_start(ctx)),
        };
    }

    /// Runs one callback on the slot and applies its effects; `None` if
    /// the slot holds no live protocol. The callback's [`Ctx`] records
    /// into this shard's delta sink, event and harness callbacks alike.
    pub(super) fn invoke<R>(
        &mut self,
        pos: usize,
        env: &EngineEnv<'_>,
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
                metrics,
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
                    queue.push(slot.event(now + delay, EventKind::Timer { node: from, token }));
                }
                Effect::Send { to, data } => {
                    Self::record_traffic(traffic, traffic_dirty, pos, true, data.len());
                    let (from_ep, delay) = if to.node == from {
                        // Loopback: skip NAT and loss, deliver with link delay.
                        let delay = env.cfg.profile.link.sample(&mut slot.link_rng);
                        (Endpoint { node: from, port: 0 }, delay)
                    } else {
                        let src_port =
                            if public { 0 } else { slot.nat.outbound(to, now, NAT_LEASE) };
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
                        (Endpoint { node: from, port: src_port }, delay)
                    };
                    // Loopback stays on this shard, like any send to it.
                    let ev =
                        slot.event(now + delay, EventKind::Deliver { to, from, from_ep, data });
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
