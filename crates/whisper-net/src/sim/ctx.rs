//! What a protocol sees of the engine: the [`Protocol`] callbacks, the
//! [`Ctx`] they run with, and the per-callback tallies a `Ctx` carries
//! until the engine flushes them.

use super::prof::ProfTally;
use crate::id::{Endpoint, NodeId};
use crate::metrics::Metrics;
use crate::nat::NatType;
use crate::payload::{Payload, PayloadPool, PayloadWriter};
use crate::time::{SimDuration, SimTime};
use crate::wire::WireEncode;
use std::any::Any;
use whisper_rand::rngs::StdRng;

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
pub(super) enum Effect {
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
pub(super) struct AllocTally {
    allocs: u64,
    alloc_bytes: u64,
    cloned: u64,
    pooled: u64,
}

impl AllocTally {
    pub(super) fn flush(self, metrics: &mut Metrics) {
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

/// Per-callback profiler scratch carried by [`Ctx`] (mirroring
/// [`AllocTally`]), flushed into the shard's [`ProfTally`] after the
/// callback returns.
#[derive(Default)]
pub(super) struct ProfCtx {
    enabled: bool,
    encode_ns: u64,
    decode_ns: u64,
    crypto_model_ns: u64,
}

impl ProfCtx {
    pub(super) fn new(enabled: bool) -> Self {
        ProfCtx { enabled, ..ProfCtx::default() }
    }

    pub(super) fn flush(self, tally: &mut ProfTally) {
        tally.encode_ns += self.encode_ns;
        tally.decode_ns += self.decode_ns;
        tally.crypto_model_ns += self.crypto_model_ns;
    }
}

/// The execution context handed to protocol callbacks.
pub struct Ctx<'a> {
    pub(super) now: SimTime,
    pub(super) id: NodeId,
    pub(super) nat_type: NatType,
    pub(super) rng: &'a mut StdRng,
    pub(super) metrics: &'a mut Metrics,
    pub(super) pool: &'a mut PayloadPool,
    pub(super) tally: AllocTally,
    pub(super) prof: ProfCtx,
    pub(super) effects: Vec<Effect>,
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
    /// ([`SimConfig::with_profiling`](super::SimConfig::with_profiling)). Protocols can use this to skip
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
