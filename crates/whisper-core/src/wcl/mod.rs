//! The WHISPER communication layer (paper §III).
//!
//! A WCL route is a fixed-length onion path `S → A → B → D`:
//!
//! * `A` — any node from the source's connection backlog (a NAT-resilient
//!   path to it is known to be open);
//! * `B` — a **P-node** that can reach `D`: for a NATted destination one
//!   of the Π P-nodes the destination advertises (they hold an open
//!   association towards it), for a public destination any known P-node;
//! * the onion header hides, from every relay, whether its successor is
//!   another mix or the destination, providing relationship anonymity;
//! * the body is AES-encrypted under a key only `D` can recover,
//!   providing content confidentiality.
//!
//! Sends that expect an answer register in a pending table; if no
//! response arrives in time the WCL rebuilds an **alternative path**
//! (different `A` and/or `B`) and retries, up to Π times — the machinery
//! measured by Table I. A tracked send ends in exactly one way: answered
//! at the first try, answered after a retry, abandoned for want of an
//! alternative path, abandoned with its retries exhausted, or lost with
//! the process that made it.
//!
//! # Circuit amortization
//!
//! The paper pays the full onion cost — three hybrid seals at the source
//! and one RSA decrypt per hop — on *every* packet. This implementation
//! amortizes it (see `whisper_crypto::circuit` and DESIGN.md § "Circuit
//! amortization"): the first packet on a route is a normal RSA onion
//! whose layers additionally deliver per-hop AES link keys; each hop
//! stores them in a bounded, TTL'd circuit table, and subsequent packets
//! to the same destination are layered AES-CTR only. A relay that has
//! lost its circuit state silently drops the packet; the source's
//! ordinary retry machinery then tears the stale route down and
//! re-establishes over a fresh RSA onion.
//!
//! # A circuit is a conversation
//!
//! Every hop also remembers the neighbour the establishing onion came
//! from, so the destination can answer on the circuit the question came
//! in on: once the layer above has authenticated who sent what arrived
//! ([`Wcl::bind_return`]), an untracked send to that peer leaves as a
//! *return packet* towards the previous hop, gains one CTR layer per
//! relay and is opened by the source, the only holder of all link keys.
//! An answer thus crosses the three links that carried its question —
//! no second RSA onion, no second route that nothing ever confirms — and
//! a retry's alternative path is the answer's alternative path. The
//! binding holds for the half [`CIRCUIT_TTL`] the source itself trusts
//! the circuit for; without one (an answer by a third party, a late one)
//! the send builds its own route as before. The one answer that goes out
//! before its asker is authenticated takes the way back bound to nobody
//! (`Wcl::answer_on`), or is not sent.
//!
//! What a payload opens with only to say who is talking (a [`Preamble`])
//! is sent the first time on a circuit and left out afterwards; the
//! receiving end keeps it ([`Wcl::hear`], [`Wcl::heard`]) for exactly as
//! long as it keeps the circuit.

mod circuit_path;
mod onion_path;
mod recovery;
mod routes;

use crate::ppss::PrivateEntry;
use circuit_path::{CircuitPacket, CIRCUIT_TAG, RETURN_TAG};
use onion_path::{OnionView, WCL_TAG};
use recovery::Recovery;
use routes::{Conversation, RouteCache};
use std::collections::{BTreeMap, HashMap};
use whisper_crypto::circuit::{CircuitId, CircuitTable};
use whisper_crypto::rsa::PublicKey;
use whisper_net::sim::Ctx;
use whisper_net::{NodeId, SimDuration};
use whisper_pss::{timer, NylonCore};

/// Onion-layer hop address: the node id plus its reachability class —
/// exactly what a real address (public IP vs. relayed endpoint) conveys.
fn hop_addr(node: NodeId, public: bool) -> Vec<u8> {
    let mut out = node.to_bytes().to_vec();
    out.push(public as u8);
    out
}

/// Parses a hop address produced by [`hop_addr`].
fn parse_hop_addr(bytes: &[u8]) -> Option<(NodeId, bool)> {
    if bytes.len() != 9 || bytes[8] > 1 {
        return None;
    }
    Some((NodeId::from_bytes(&bytes[..8])?, bytes[8] == 1))
}

/// A P-node gateway able to reach a destination, with its public key
/// (needed to seal the next-to-last onion layer).
#[derive(Clone, Debug, PartialEq)]
pub struct GatewayInfo {
    /// The P-node.
    pub node: NodeId,
    /// Its public key.
    pub key: PublicKey,
}

whisper_net::wire_format!(GatewayInfo { node, key });

/// WCL configuration.
#[derive(Clone, Debug)]
pub struct WclConfig {
    /// Number of mixes on a path (2 in the paper: `A` and `B`). Larger
    /// values tolerate `f − 1` colluding mixes at extra cost (§III-A
    /// footnote; exercised by the path-length ablation).
    pub mixes: usize,
    /// Adaptive retransmission timeout (Jacobson/Karn): one smoothed
    /// estimate per source, fed by the answers from every destination,
    /// with exponential backoff and deterministic jitter. When `false`,
    /// every retry waits exactly [`RETRY_TIMEOUT`] (the paper's fixed
    /// timer); [`RETRY_TIMEOUT`] also seeds the RTO of a source that has
    /// not been answered yet.
    pub adaptive_rto: bool,
}

/// Π — gateways a NATted node advertises in its entry (paper: 3).
pub const GATEWAYS: usize = 3;
/// How long to wait for a response before retrying over an alternative
/// path (the paper's fixed timer).
pub const RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Maximum retries (Π in the paper).
pub const MAX_RETRIES: usize = 3;
/// How long a relay keeps a circuit alive. The source refreshes its
/// cached route after half this, so a live conversation never races
/// relay expiry.
pub const CIRCUIT_TTL: SimDuration = SimDuration::from_secs(120);
/// Maximum circuits a relay stores (oldest evicted first).
const CIRCUIT_CAPACITY: usize = 1024;
/// A tracked send answered at its first attempt (Table I's "Success").
const FIRST_SUCCESS: &str = "wcl.route_first_success";
/// A tracked send answered after a retry ("Alt.").
const ALT_SUCCESS: &str = "wcl.route_alt_success";
/// A tracked send abandoned because no alternative path could be built
/// ("No alt.").
const NO_ALT: &str = "wcl.route_no_alt";
/// A tracked send abandoned after 1 + [`MAX_RETRIES`] attempts.
const EXHAUSTED: &str = "wcl.route_exhausted";
/// Tracked sends lost with the process that made them.
const RESTART_DROPPED: &str = "wcl.restart_pending_dropped";

impl Default for WclConfig {
    fn default() -> Self {
        WclConfig {
            mixes: 2,
            adaptive_rto: true,
        }
    }
}

/// Upcalls from the WCL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WclEvent {
    /// A confidential payload arrived (this node is the destination). The
    /// source is intentionally *not* identified at this layer.
    Delivered {
        /// The decrypted payload.
        payload: Vec<u8>,
        /// The circuit it arrived on or established (`None` for an onion
        /// that set none up).
        via: Option<Arrival>,
    },
    /// A tracked send gave up: its retries ran out, or no alternative
    /// path could be built.
    RouteFailed {
        /// The message id passed to [`Wcl::send`].
        msg_id: u64,
        /// The unreachable destination.
        dest: NodeId,
    },
}

/// The circuit a payload was delivered on: how the layer above names it
/// when it binds the sender to it or keeps what the sender stated on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// On its way out, at the destination of the circuit this node
    /// carries under the id.
    Forward(CircuitId),
    /// On its way back, at the source of the route of this node's whose
    /// first hop listens under the id.
    Return(CircuitId),
}

/// The leading `len` bytes of a payload that only say who is talking and
/// on what `topic`: stated once per circuit and direction. The rest of the
/// payload must stand on its own as a message for a receiver that has
/// [heard](Wcl::hear) them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Preamble {
    /// Bytes of the payload the preamble occupies.
    pub len: usize,
    /// What it is about; a change of topic (or of length) is stated anew.
    pub topic: u128,
}

struct PendingSend {
    dest: PrivateEntry,
    payload: Vec<u8>,
    once: Option<Preamble>,
    attempts: usize,
    used_first_mixes: Vec<NodeId>,
    used_gateways: Vec<NodeId>,
    sent_at: whisper_net::SimTime,
}

/// Per-node WCL state, over the Nylon PSS it owns and sends through.
pub struct Wcl {
    cfg: WclConfig,
    /// The layer below: the connection backlog mixes and gateways come
    /// from, the node's identity key, and the links packets leave on.
    nylon: NylonCore,
    pending: HashMap<u64, PendingSend>,
    next_msg_id: u64,
    /// Source side: destination → cached circuit route.
    routes: RouteCache,
    /// Relay/destination side: circuits this node carries, each
    /// destination's with what was said on it once something was.
    circuits: CircuitTable<Option<Box<Conversation>>>,
    /// Destination side: the circuit each authenticated peer last spoke
    /// on, which answers to it ride back. Checked against the table at
    /// every use, and swept against it when it outgrows the table's
    /// capacity, so it never holds more than that plus one.
    return_ways: BTreeMap<NodeId, CircuitId>,
    /// What tracked sends have taught this source: its one retry timer.
    recovery: Recovery,
    /// Where a circuit packet addressed to this node is decrypted: lent
    /// out as the payload of [`WclEvent::Delivered`] and handed back
    /// through [`Wcl::reclaim`], so a delivery allocates nothing once
    /// the buffer has grown to the largest payload seen.
    deliver_buf: Vec<u8>,
}

impl std::fmt::Debug for Wcl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wcl")
            .field("nylon", &self.nylon)
            .field("pending", &self.pending.len())
            .field("routes", &self.cached_routes())
            .field("circuits", &self.circuits.len())
            .finish()
    }
}

impl Wcl {
    /// Creates WCL state over `nylon`.
    pub fn new(cfg: WclConfig, nylon: NylonCore) -> Self {
        assert!(cfg.mixes >= 1, "at least one mix required");
        let circuits = CircuitTable::new(CIRCUIT_CAPACITY, CIRCUIT_TTL.as_micros());
        Wcl {
            recovery: Recovery::new(cfg.adaptive_rto),
            cfg,
            nylon,
            pending: HashMap::new(),
            next_msg_id: 1,
            routes: RouteCache::default(),
            circuits,
            return_ways: BTreeMap::new(),
            deliver_buf: Vec::new(),
        }
    }

    /// Models a process restart with full volatile-state loss: pending
    /// sends, cached routes, carried circuits — with the return bindings
    /// onto them and everything said on either — and the RTT estimate all
    /// vanish, and Nylon restarts beneath. Invoked from
    /// `WhisperNode::on_crash_restart` when a scripted
    /// [`whisper_net::fault::Fault::CrashRestart`] brings the node back.
    pub fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        if !self.pending.is_empty() {
            ctx.metrics().count(RESTART_DROPPED, self.pending.len() as u64);
        }
        self.pending.clear();
        self.flush_circuits();
        self.recovery.clear();
        self.nylon.on_restart(ctx);
    }

    /// The Nylon PSS this layer sends over.
    pub fn nylon(&self) -> &NylonCore {
        &self.nylon
    }

    /// Mutable Nylon access: its callbacks, and bootstrap configuration.
    pub fn nylon_mut(&mut self) -> &mut NylonCore {
        &mut self.nylon
    }

    /// This node's fresh private-view entry: its identity key and, for a
    /// NATted node, the first [`GATEWAYS`] P-nodes of its connection
    /// backlog whose keys it knows — the gateways a route to it ends
    /// through.
    pub fn entry(&self) -> PrivateEntry {
        let public = self.nylon.is_public();
        let gateways = if public {
            Vec::new()
        } else {
            self.nylon
                .cb()
                .publics()
                .filter_map(|e| e.key.clone().map(|key| GatewayInfo { node: e.node, key }))
                .take(GATEWAYS)
                .collect()
        };
        PrivateEntry {
            node: self.nylon.id(),
            age: 0,
            public,
            key: self.nylon.keypair().public().clone(),
            gateways,
        }
    }

    /// Drops all circuit state — the relay table, any cached source
    /// routes, the return bindings, what was said on any of them — as a
    /// node restart would. Test hook for the miss-and-rebuild path; the
    /// protocol itself calls it on a restart only.
    pub fn flush_circuits(&mut self) {
        self.circuits.clear();
        self.routes = RouteCache::default();
        self.return_ways.clear();
    }

    /// Hands back the payload of a [`WclEvent::Delivered`] once the layer
    /// above is done with it, so the next delivery decrypts into the same
    /// storage. Optional: a payload that is kept instead is simply
    /// replaced by a fresh allocation.
    pub fn reclaim(&mut self, payload: Vec<u8>) {
        if payload.capacity() > self.deliver_buf.capacity() {
            self.deliver_buf = payload;
        }
    }

    /// Number of circuits this node currently carries for others.
    pub fn carried_circuits(&self) -> usize {
        self.circuits.len()
    }

    /// The configuration.
    pub fn config(&self) -> &WclConfig {
        &self.cfg
    }

    /// Allocates a fresh message id for a tracked send.
    pub fn alloc_msg_id(&mut self) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    /// Sends `payload` confidentially to `dest` — its private-view entry,
    /// whose `age` plays no part — without tracking
    /// (fire-and-forget, used for responses): back on the circuit `dest`
    /// last spoke to this node on while that is [bound](Wcl::bind_return)
    /// and fresh, over a route of this node's own otherwise. `once` marks
    /// what of the payload a circuit carries only the first time.
    ///
    /// Returns `false` if no path could be constructed.
    pub fn send_untracked(
        &mut self,
        ctx: &mut Ctx<'_>,
        dest: &PrivateEntry,
        payload: &[u8],
        once: Option<Preamble>,
    ) -> bool {
        let bound = self.return_ways.get(&dest.node).copied();
        self.send_back(ctx, bound, payload, once)
            || self.try_send(ctx, dest, payload, once, (&[], &[])).is_some()
    }

    /// Answers what arrived `via` back on the circuit it came in on,
    /// bound to nobody: the way for an answer that goes out before its
    /// asker is authenticated, which must reach whoever asked and nobody
    /// the question merely names. Returns `false`, and sends nothing,
    /// without such a circuit: the asker's tracked send retries on a
    /// fresh one.
    pub(crate) fn answer_on(&mut self, ctx: &mut Ctx<'_>, via: Option<Arrival>, payload: &[u8]) -> bool {
        let way = match via {
            Some(Arrival::Forward(cid)) => Some(cid),
            _ => None,
        };
        self.send_back(ctx, way, payload, None)
    }

    /// The counters of the ways a tracked [`Wcl::send`] ends — the four
    /// of Table I and a restart's loss. Each send counts
    /// `wcl.route_attempts` once and, unless it is still pending, exactly
    /// one of these once.
    pub const SEND_OUTCOMES: [&'static str; 5] = [FIRST_SUCCESS, ALT_SUCCESS, NO_ALT, EXHAUSTED, RESTART_DROPPED];

    /// Sends `payload` confidentially to `dest`, tracking it for retries:
    /// if [`Wcl::notify_response`] is not called with `msg_id` before the
    /// retry timeout, an alternative path is tried (up to [`MAX_RETRIES`]).
    /// `once` is as for [`Wcl::send_untracked`]; a retry, which builds a
    /// fresh circuit, states it again. How it ends is counted under one of
    /// [`Wcl::SEND_OUTCOMES`].
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dest: &PrivateEntry,
        payload: Vec<u8>,
        once: Option<Preamble>,
        msg_id: u64,
    ) -> bool {
        ctx.metrics().count("wcl.route_attempts", 1);
        let Some((a, b)) = self.try_send(ctx, dest, &payload, once, (&[], &[])) else {
            // Could not even build the first path; treated as "no
            // alternative" immediately, and its destination recorded as
            // for a retry that ran out of paths, so Table I counts it.
            ctx.metrics().count(NO_ALT, 1);
            ctx.metrics().sample("wcl.failed_dest_noalt", dest.node.0 as f64);
            return false;
        };
        self.pending.insert(
            msg_id,
            PendingSend {
                dest: dest.clone(),
                payload,
                once,
                attempts: 1,
                used_first_mixes: vec![a],
                used_gateways: vec![b],
                sent_at: ctx.now(),
            },
        );
        let delay = self.recovery.retry_delay(ctx, 1);
        ctx.set_timer(delay, timer::token(timer::WCL_RETRY, msg_id));
        true
    }

    /// Tells the WCL that the request behind `msg_id` got its answer;
    /// updates the Table I counters and the RTT estimator (Karn's rule:
    /// only first-attempt responses are unambiguous).
    pub fn notify_response(&mut self, ctx: &mut Ctx<'_>, msg_id: u64) {
        if let Some(p) = self.pending.remove(&msg_id) {
            // Fig. 7's "total rtt": request out, answer back, in
            // simulated seconds.
            let rtt = ctx.now().since(p.sent_at).as_secs_f64();
            ctx.metrics().sample("wcl.rtt_s", rtt);
            let first_try = p.attempts <= 1;
            if first_try {
                ctx.metrics().count(FIRST_SUCCESS, 1);
            } else {
                ctx.metrics().count(ALT_SUCCESS, 1);
                // Route-repair latency: first attempt out → answer over
                // the repaired path back.
                ctx.metrics().sample("wcl.repair_s", rtt);
            }
            self.recovery.on_answer(first_try.then_some(rtt));
        }
    }

    /// Whether `msg_id` is still awaiting a response.
    pub fn is_pending(&self, msg_id: u64) -> bool {
        self.pending.contains_key(&msg_id)
    }

    /// Tracked sends still awaiting a response or a retry timer.
    pub fn pending_sends(&self) -> usize {
        self.pending.len()
    }

    /// Handles a retry timer. Returns a [`WclEvent::RouteFailed`] when the
    /// send is abandoned, and records its destination — under
    /// `wcl.failed_dest_exhausted` or `wcl.failed_dest_noalt`, beside the
    /// count of the outcome — so experiment harnesses can separate genuine
    /// route failures from destination deaths post hoc (the paper's Table
    /// I footnote excludes the latter).
    pub fn on_retry_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Option<WclEvent> {
        let msg_id = timer::payload(token);
        let mut p = self.pending.remove(&msg_id)?;
        let now = ctx.now();
        // The unanswered route is suspect — a relay may have lost its
        // circuit state or a link may have died — so tear down the cached
        // circuit before (re)building: the retry must not reuse it. (An
        // answer that was only slow still finds its way back on it.)
        if self.routes.retire(p.dest.node, now) {
            ctx.metrics().count("wcl.circuit_teardown", 1);
        }
        let dest = p.dest.node;
        if p.attempts > MAX_RETRIES {
            ctx.metrics().count(EXHAUSTED, 1);
            ctx.metrics().sample("wcl.failed_dest_exhausted", dest.0 as f64);
            return Some(WclEvent::RouteFailed { msg_id, dest });
        }
        let avoid = (&p.used_first_mixes[..], &p.used_gateways[..]);
        let Some((a, b)) = self.try_send(ctx, &p.dest, &p.payload, p.once, avoid) else {
            ctx.metrics().count(NO_ALT, 1);
            ctx.metrics().sample("wcl.failed_dest_noalt", dest.0 as f64);
            return Some(WclEvent::RouteFailed { msg_id, dest });
        };
        ctx.metrics().count("wcl.route_retry", 1);
        p.attempts += 1;
        p.used_first_mixes.push(a);
        p.used_gateways.push(b);
        let delay = self.recovery.retry_delay(ctx, p.attempts);
        self.pending.insert(msg_id, p);
        ctx.set_timer(delay, timer::token(timer::WCL_RETRY, msg_id));
        None
    }

    /// Whether a cached circuit route to `dest` exists (test hook).
    pub fn has_cached_route(&self, dest: NodeId) -> bool {
        self.routes.current.contains_key(&dest)
    }

    /// Number of cached circuit routes, expired or given-up ones still
    /// held included (test hook).
    pub fn cached_routes(&self) -> usize {
        self.routes.by_first_cid.len()
    }

    /// Processes an incoming Nylon `App` payload that `prev` — a node and
    /// whether it is public — sent. If it is a WCL onion packet this node
    /// either relays it (one onion layer peeled) or delivers it
    /// (destination layer); if it is a circuit packet the node strips or
    /// adds one CTR layer and forwards or delivers.
    ///
    /// Returns `None` if the payload is neither (the caller may try other
    /// parsers), and for a packet that carries one of the two tags but is
    /// not well-formed — dropped, and counted under `wcl.malformed`.
    pub fn on_app_payload(
        &mut self,
        ctx: &mut Ctx<'_>,
        prev: (NodeId, bool),
        data: &[u8],
    ) -> Option<WclEvent> {
        let handled = match data.first() {
            Some(&WCL_TAG) => ctx
                .prof_decode(|| OnionView::from_wire(data))
                .map(|packet| self.on_onion_packet(ctx, prev, packet)),
            Some(&CIRCUIT_TAG | &RETURN_TAG) => ctx
                .prof_decode(|| CircuitPacket::from_wire(data))
                .map(|packet| self.on_circuit_packet(ctx, packet)),
            _ => return None,
        };
        handled.unwrap_or_else(|_| {
            ctx.metrics().count("wcl.malformed", 1);
            None
        })
    }
}

/// Runs `work` — onion or circuit crypto, handed the context for its
/// randomness — and records what it cost: the Table II per-class samples,
/// in the deterministic model's microseconds so traces are
/// host-independent (host time goes to the profiler, when it is on).
/// Returns the work's value and the cost.
fn crypto_sampled<'a, T>(
    ctx: &mut Ctx<'a>,
    is_public: bool,
    work: impl FnOnce(&mut Ctx<'a>) -> T,
) -> (T, whisper_crypto::costs::CryptoCosts) {
    let cost_before = whisper_crypto::costs::snapshot();
    let wall_started = ctx.prof_enabled().then(std::time::Instant::now);
    let value = work(ctx);
    let cost = whisper_crypto::costs::snapshot().since(cost_before);
    if let Some(started) = wall_started {
        ctx.prof_crypto_model_ns(started.elapsed().as_nanos() as u64);
    }
    let (rsa, aes) = if is_public {
        ("crypto.rsa_us.pnode", "crypto.aes_us.pnode")
    } else {
        ("crypto.rsa_us.nnode", "crypto.aes_us.nnode")
    };
    ctx.metrics().sample(rsa, cost.rsa_model_ns() as f64 / 1000.0);
    ctx.metrics().sample(aes, cost.aes_model_ns() as f64 / 1000.0);
    (value, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_crypto::circuit::CircuitEntry;
    use whisper_crypto::rsa::KeyPair;
    use whisper_net::SimTime;
    use whisper_pss::NylonConfig;
    use whisper_rand::SeedableRng;

    fn wcl_with(cfg: WclConfig) -> Wcl {
        let nylon = NylonConfig::default();
        let key = KeyPair::generate(nylon.rsa, &mut whisper_rand::rngs::StdRng::seed_from_u64(1));
        Wcl::new(cfg, NylonCore::new(nylon, key))
    }

    #[test]
    fn msg_ids_are_unique() {
        let mut wcl = wcl_with(WclConfig::default());
        let a = wcl.alloc_msg_id();
        let b = wcl.alloc_msg_id();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one mix")]
    fn zero_mixes_rejected() {
        wcl_with(WclConfig { mixes: 0, ..WclConfig::default() });
    }

    fn ends_here(wcl: &mut Wcl, now: SimTime, id: u64) -> Option<Arrival> {
        let cid = CircuitId(id.to_be_bytes());
        let entry = CircuitEntry::new(whisper_crypto::aes::AesKey([0; 16]), vec![], None);
        wcl.carry_circuit(now, cid, entry);
        Some(Arrival::Forward(cid))
    }

    /// What was heard on a circuit lives in the circuit's slot and nowhere
    /// else: expiry, the capacity bound and a flush take both at once, a
    /// slot that comes back under the same id comes back empty, and the
    /// return bindings — checked against the table at every use — never
    /// outnumber what the table can hold by more than one.
    #[test]
    fn what_a_circuit_heard_leaves_with_its_slot() {
        let mut wcl = wcl_with(WclConfig::default());
        let t0 = SimTime::from_micros(1_000_000);
        let via = ends_here(&mut wcl, t0, 1);
        assert_eq!(wcl.heard(t0, via), None, "nothing said yet");
        wcl.hear(t0, via, 7, b"who talks");
        wcl.hear(t0, via, 8, b"who talks now");
        assert_eq!(wcl.heard(t0, via), Some((8, &b"who talks now"[..])), "the latest statement");
        let other = ends_here(&mut wcl, t0, 2);
        assert_eq!(wcl.heard(t0, other), None, "per circuit");
        let unknown = Some(Arrival::Forward(CircuitId([9; 8])));
        wcl.hear(t0, unknown, 7, b"into the void");
        wcl.hear(t0, Some(Arrival::Return(CircuitId([3; 8]))), 7, b"no such route");
        wcl.hear(t0, None, 7, b"no circuit at all");
        assert_eq!(wcl.heard(t0, unknown), None);
        assert_eq!(wcl.heard(t0, None), None);

        // The TTL: the slot still sits in the queue, and says nothing.
        let lapsed = t0 + CIRCUIT_TTL;
        assert_eq!(wcl.carried_circuits(), 2);
        assert_eq!(wcl.heard(lapsed, via), None);
        // The same id again is a new circuit.
        let again = ends_here(&mut wcl, lapsed, 1);
        assert_eq!(wcl.heard(lapsed, again), None);

        // The capacity bound: the oldest slot goes, with what it heard.
        let via = ends_here(&mut wcl, lapsed, 10);
        wcl.hear(lapsed, via, 7, b"who talks");
        for id in 0..CIRCUIT_CAPACITY as u64 - 1 {
            let via = ends_here(&mut wcl, lapsed, 100 + id);
            wcl.bind_return(lapsed, via, NodeId(id));
        }
        assert_eq!(wcl.heard(lapsed, via), Some((7, &b"who talks"[..])), "the table is just full");
        ends_here(&mut wcl, lapsed, 11);
        assert_eq!(wcl.carried_circuits(), CIRCUIT_CAPACITY);
        assert_eq!(wcl.heard(lapsed, via), None);

        // Bindings onto circuits that are gone are swept when the map
        // reaches the table's capacity, not kept one per peer ever heard.
        let over = lapsed + CIRCUIT_TTL;
        for id in 0..3 * CIRCUIT_CAPACITY as u64 {
            let via = ends_here(&mut wcl, over, 5000 + id);
            wcl.bind_return(over, via, NodeId(5000 + id));
            assert!(wcl.return_ways.len() <= CIRCUIT_CAPACITY);
        }
        let via = ends_here(&mut wcl, over, 1);
        wcl.hear(over, via, 7, b"who talks");
        wcl.flush_circuits();
        assert_eq!((wcl.carried_circuits(), wcl.return_ways.len()), (0, 0));
        let again = ends_here(&mut wcl, over, 1);
        assert_eq!(wcl.heard(over, again), None);
    }

    #[test]
    fn flush_circuits_clears_all_state() {
        let mut wcl = wcl_with(WclConfig::default());
        wcl.circuits.insert(
            0,
            CircuitId([1; 8]),
            CircuitEntry::new(whisper_crypto::aes::AesKey([0; 16]), vec![], None),
        );
        assert_eq!(wcl.carried_circuits(), 1);
        wcl.flush_circuits();
        assert_eq!(wcl.carried_circuits(), 0);
        assert_eq!(wcl.cached_routes(), 0);
    }
}
