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
//! the send builds its own route as before.
//!
//! What a payload opens with only to say who is talking (a [`Preamble`])
//! is sent the first time on a circuit and left out afterwards; the
//! receiving end keeps it ([`Wcl::hear`], [`Wcl::heard`]) for exactly as
//! long as it keeps the circuit.

mod recovery;

use recovery::Recovery;
use whisper_rand::seq::SliceRandom;
use whisper_rand::Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use whisper_crypto::aes::CtrNonce;
use whisper_crypto::circuit::{
    self, CircuitEntry, CircuitId, CircuitTable, Direction, HopSetup, SourceCircuit,
};
use whisper_crypto::onion::{self, PeelResult};
use whisper_crypto::rsa::PublicKey;
use whisper_net::payload::PayloadWriter;
use whisper_net::sim::Ctx;
use whisper_net::wire::{bytes_len, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_net::{NodeId, SimDuration, SimTime};
use whisper_pss::transport::SendOutcome;
use whisper_pss::NylonCore;

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

/// Timer token kind used by WCL retry timers (low byte).
pub const TIMER_WCL_RETRY: u64 = 4;

/// Packs a retry-timer token for a message id.
pub fn retry_token(msg_id: u64) -> u64 {
    TIMER_WCL_RETRY | (msg_id << 8)
}

/// Recovers the message id from a retry token.
pub fn msg_id_of_token(token: u64) -> u64 {
    token >> 8
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

impl WireEncode for GatewayInfo {
    fn encode(&self, w: &mut WireWriter) {
        w.put(&self.node);
        // Cached canonical blob: no per-send key re-serialization.
        w.put_bytes(self.key.wire_bytes());
    }

    fn encoded_len(&self) -> usize {
        8 + bytes_len(self.key.wire_bytes())
    }
}

impl WireDecode for GatewayInfo {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = r.take()?;
        let key =
            PublicKey::from_bytes(r.take_bytes()?).ok_or(WireError::new("bad gateway key"))?;
        Ok(GatewayInfo { node, key })
    }
}

/// Everything a source must know about a destination to build a WCL
/// route (a PPSS private-view entry carries exactly this).
#[derive(Clone, Debug, PartialEq)]
pub struct DestInfo {
    /// The destination node.
    pub node: NodeId,
    /// Whether it is a P-node.
    pub public: bool,
    /// Its public key.
    pub key: PublicKey,
    /// Π P-nodes that can reach it (empty for public destinations).
    pub gateways: Vec<GatewayInfo>,
}

/// WCL configuration.
#[derive(Clone, Debug)]
pub struct WclConfig {
    /// Number of mixes on a path (2 in the paper: `A` and `B`). Larger
    /// values tolerate `f − 1` colluding mixes at extra cost (§III-A
    /// footnote; exercised by the path-length ablation).
    pub mixes: usize,
    /// Adaptive retransmission timeout (Jacobson/Karn): a smoothed
    /// per-destination estimate with exponential backoff and
    /// deterministic jitter. When `false`, every retry waits exactly [`RETRY_TIMEOUT`]
    /// (the paper's fixed timer); [`RETRY_TIMEOUT`] also seeds the RTO
    /// for destinations with no RTT sample yet.
    pub adaptive_rto: bool,
}

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
    /// A tracked send gave up after exhausting retries.
    RouteFailed {
        /// The message id passed to [`Wcl::send`].
        msg_id: u64,
        /// The unreachable destination.
        dest: NodeId,
        /// `true` if no alternative path could even be constructed.
        no_alternative: bool,
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

/// What the two ends of a circuit have stated to each other on it, as one
/// end holds it: lives and dies with the route (source) or the circuit
/// slot (destination).
#[derive(Debug, Default)]
struct Conversation {
    /// The preamble this end last sent in full.
    said: Option<Preamble>,
    /// The topic and bytes of the preamble the other end last sent.
    heard: Option<(u128, Vec<u8>)>,
}

impl Conversation {
    /// What of `payload` has to travel, given what was already said.
    fn unsaid<'p>(&self, payload: &'p [u8], once: Option<Preamble>) -> &'p [u8] {
        match once.filter(|_| self.said == once) {
            Some(said) => payload.get(said.len..).unwrap_or(payload),
            None => payload,
        }
    }
}

/// The wire format of an RSA onion packet (inside a Nylon `App`
/// payload): the layered header and the AES-encrypted body, each behind
/// its length.
///
/// Like a [`CircuitPacket`], only ever a view of a delivered payload: a
/// mix reads the header, peels it, and copies the body — which it forwards
/// verbatim — once, into its outgoing buffer behind the inner header
/// ([`onion_frame`]).
#[derive(Clone, Copy, Debug, PartialEq)]
struct OnionView<'a> {
    header: &'a [u8],
    body: &'a [u8],
}

const WCL_TAG: u8 = 0xC1;

/// Writes an onion packet: the one place that knows the layout
/// [`OnionView::from_wire`] reads.
fn put_onion(w: &mut WireWriter, header: &[u8], body: &[u8]) {
    w.put_u8(WCL_TAG);
    w.put_bytes(header);
    w.put_bytes(body);
}

/// Writes a whole outgoing onion packet — Nylon framing, then
/// [`put_onion`] — into a pool buffer.
fn onion_frame(ctx: &mut Ctx<'_>, nylon: &NylonCore, header: &[u8], body: &[u8]) -> PayloadWriter {
    let mut frame = nylon.begin_app(ctx, 1 + bytes_len(header) + bytes_len(body));
    put_onion(&mut frame, header, body);
    frame
}

impl<'a> OnionView<'a> {
    fn from_wire(wire: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(wire);
        if r.take_u8()? != WCL_TAG {
            return Err(WireError::new("not a WCL packet"));
        }
        let (header, body) = (r.take_bytes()?, r.take_bytes()?);
        r.finish()?;
        Ok(OnionView { header, body })
    }
}

/// The steady-state wire format once a circuit exists: no RSA header at
/// all, just the hop-local circuit id, the CTR nonce for this link, and
/// the layered body. Every field changes at each hop (the id is
/// hop-local, the nonce is hash-chained on the way out and stepped by a
/// keyed offset on the way back, the body loses or gains one CTR layer),
/// so adjacent links share no bytes. The tag says which way the packet
/// travels — as the two addresses of its datagram do.
///
/// A circuit packet is only ever a view of a delivered payload: a relay
/// reads the id and the nonce, copies the body into its outgoing buffer
/// behind a fresh header ([`put_circuit_header`]) and strips its layer
/// there; nothing on the way owns a `Vec`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct CircuitPacket<'a> {
    direction: Direction,
    cid: CircuitId,
    nonce: CtrNonce,
    body: &'a [u8],
}

const CIRCUIT_TAG: u8 = 0xC2;
const RETURN_TAG: u8 = 0xC3;

/// Wire size of a circuit packet with a `body_len`-byte body.
const fn circuit_packet_len(body_len: usize) -> usize {
    1 + 8 + 8 + 4 + body_len
}

/// Writes everything of a circuit packet but the body; the caller appends
/// exactly `body_len` bytes.
fn put_circuit_header(
    w: &mut WireWriter,
    direction: Direction,
    cid: CircuitId,
    nonce: &CtrNonce,
    body_len: usize,
) {
    w.put_u8(match direction {
        Direction::Forward => CIRCUIT_TAG,
        Direction::Return => RETURN_TAG,
    });
    w.put_raw(&cid.0);
    w.put_raw(&nonce.0);
    w.put_u32(body_len as u32);
}

/// Writes a whole outgoing circuit packet — Nylon framing, circuit header
/// and a copy of `body` — into a pool buffer, returning it with the
/// offset of the body: the one place the body is copied to, and where the
/// caller then applies its CTR layers in place.
fn circuit_frame(
    ctx: &mut Ctx<'_>,
    nylon: &NylonCore,
    direction: Direction,
    cid: CircuitId,
    nonce: &CtrNonce,
    body: &[u8],
) -> (PayloadWriter, usize) {
    let mut frame = nylon.begin_app(ctx, circuit_packet_len(body.len()));
    put_circuit_header(&mut frame, direction, cid, nonce, body.len());
    let body_at = frame.len();
    frame.put_raw(body);
    (frame, body_at)
}

impl<'a> CircuitPacket<'a> {
    fn from_wire(wire: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(wire);
        let direction = match r.take_u8()? {
            CIRCUIT_TAG => Direction::Forward,
            RETURN_TAG => Direction::Return,
            _ => return Err(WireError::new("not a circuit packet")),
        };
        let cid = CircuitId(r.take_raw(8)?.try_into().expect("8 bytes taken"));
        let nonce = CtrNonce(r.take_raw(8)?.try_into().expect("8 bytes taken"));
        let body = r.take_bytes()?;
        r.finish()?;
        Ok(CircuitPacket { direction, cid, nonce, body })
    }
}

struct PendingSend {
    dest: DestInfo,
    payload: Vec<u8>,
    once: Option<Preamble>,
    attempts: usize,
    used_first_mixes: Vec<NodeId>,
    used_gateways: Vec<NodeId>,
    sent_at: whisper_net::SimTime,
}

impl PendingSend {
    /// The mixes `A` and `B` of the latest attempt.
    fn last_relays(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.used_first_mixes.last().into_iter().chain(self.used_gateways.last()).copied()
    }
}

/// The source's cached route to one destination: the circuit keys, where
/// to inject packets, and which mixes the route runs through (needed so
/// retries can avoid them).
struct CachedRoute {
    circuit: SourceCircuit,
    first_hop: (NodeId, bool),
    mixes: (NodeId, NodeId),
    expires: whisper_net::SimTime,
    talk: Conversation,
}

/// The source's route cache: after an insert at time `t` it holds exactly
/// the routes unexpired at `t`, so a node that keeps meeting new
/// destinations does not keep a dead route (three AES schedules) for
/// each one it ever spoke to.
///
/// A held route is two things: what sends to its destination ride while it
/// is that destination's *current* route, and — for as long as it is held
/// — where return packets on its circuit end. A retry that gives up on a
/// route takes the first away and leaves the second: the answer that was
/// merely slow still comes home.
#[derive(Default)]
struct RouteCache {
    /// Every held route under the id its first hop listens on, which is
    /// the id return packets come back under. `BTreeMap`s so nothing ever
    /// depends on hash iteration order.
    by_first_cid: BTreeMap<CircuitId, CachedRoute>,
    /// The route sends to each destination ride.
    current: BTreeMap<NodeId, CircuitId>,
    /// `(expires, first cid, dest)` of every insert, in insertion order —
    /// which is expiry order, the lifetime being one constant.
    expiry: VecDeque<(SimTime, CircuitId, NodeId)>,
}

impl RouteCache {
    /// The current route to `dest`.
    fn get_mut(&mut self, dest: NodeId) -> Option<&mut CachedRoute> {
        self.by_first_cid.get_mut(self.current.get(&dest)?)
    }

    /// Caches `route` as the current one to `dest` after collecting every
    /// expired one.
    fn insert(&mut self, now: SimTime, dest: NodeId, route: CachedRoute) {
        while let Some(&(_, cid, old)) = self.expiry.front().filter(|(e, ..)| *e <= now) {
            self.expiry.pop_front();
            self.by_first_cid.remove(&cid);
            if self.current.get(&old) == Some(&cid) {
                self.current.remove(&old);
            }
        }
        let cid = route.circuit.first_cid;
        self.expiry.push_back((route.expires, cid, dest));
        self.current.insert(dest, cid);
        self.by_first_cid.insert(cid, route);
    }

    /// Stops sends to `dest` riding its current route, which stays held as
    /// the end of its circuit's way back. `true` if that took a route that
    /// had not expired out of use.
    fn retire(&mut self, dest: NodeId, now: SimTime) -> bool {
        let retired = self.current.remove(&dest).and_then(|cid| self.by_first_cid.get(&cid));
        retired.is_some_and(|route| route.expires > now)
    }

    fn clear(&mut self) {
        self.by_first_cid.clear();
        self.current.clear();
        self.expiry.clear();
    }
}

/// Per-node WCL state.
pub struct Wcl {
    cfg: WclConfig,
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
    /// What tracked sends have taught this source: the retry timer per
    /// destination and which relays to steer around.
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
            .field("pending", &self.pending.len())
            .field("routes", &self.cached_routes())
            .field("circuits", &self.circuits.len())
            .finish()
    }
}

impl Wcl {
    /// Creates WCL state.
    pub fn new(cfg: WclConfig) -> Self {
        assert!(cfg.mixes >= 1, "at least one mix required");
        let circuits = CircuitTable::new(CIRCUIT_CAPACITY, CIRCUIT_TTL.as_micros());
        Wcl {
            recovery: Recovery::new(cfg.adaptive_rto),
            cfg,
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
    /// onto them and everything said on either — RTT estimates and relay
    /// health all vanish. Invoked from
    /// `WhisperNode::on_crash_restart` when a scripted
    /// [`whisper_net::fault::Fault::CrashRestart`] brings the node back.
    pub fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        if !self.pending.is_empty() {
            ctx.metrics().count("wcl.restart_pending_dropped", self.pending.len() as u64);
        }
        self.pending.clear();
        self.flush_circuits();
        self.recovery.clear();
    }

    /// Drops all circuit state — the relay table, any cached source
    /// routes, the return bindings, what was said on any of them — as a
    /// node restart would. Test hook for the miss-and-rebuild path; the
    /// protocol itself calls it on a restart only.
    pub fn flush_circuits(&mut self) {
        self.circuits.clear();
        self.routes.clear();
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

    /// Sends `payload` confidentially to `dest` without tracking
    /// (fire-and-forget, used for responses): back on the circuit `dest`
    /// last spoke to this node on while that is [bound](Wcl::bind_return)
    /// and fresh, over a route of this node's own otherwise. `once` marks
    /// what of the payload a circuit carries only the first time.
    ///
    /// Returns `false` if no path could be constructed.
    pub fn send_untracked(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        dest: &DestInfo,
        payload: &[u8],
        once: Option<Preamble>,
    ) -> bool {
        self.send_back(ctx, nylon, dest.node, payload, once)
            || self.try_send(ctx, nylon, dest, payload, once, (&[], &[])).is_some()
    }

    /// Notes that `peer` — whom the layer above has authenticated as the
    /// sender of what arrived `via` — is at the far end of that circuit:
    /// untracked sends to it ride the circuit back from now on. The last
    /// circuit a peer spoke on wins, so whoever replays a member's
    /// credentials on a circuit of its own holds the binding only until
    /// the member speaks again.
    pub fn bind_return(&mut self, now: SimTime, via: Option<Arrival>, peer: NodeId) {
        let Some(Arrival::Forward(cid)) = via else {
            return; // the way back from a source is its route
        };
        if let Some(bound) = self.return_ways.get_mut(&peer) {
            *bound = cid;
            return;
        }
        if self.return_ways.len() >= CIRCUIT_CAPACITY {
            let (circuits, now_us) = (&self.circuits, now.as_micros());
            self.return_ways.retain(|_, cid| circuits.lookup(now_us, *cid).is_some());
        }
        self.return_ways.insert(peer, cid);
    }

    /// What is kept of the conversation on the circuit `via`, if the
    /// circuit still exists (a destination's record starts here).
    fn talk_mut(&mut self, now: SimTime, via: Arrival) -> Option<&mut Conversation> {
        match via {
            Arrival::Forward(cid) => {
                let (_, talk) = self.circuits.slot_mut(now.as_micros(), cid)?;
                Some(talk.get_or_insert_with(Box::default))
            }
            Arrival::Return(cid) => self.routes.by_first_cid.get_mut(&cid).map(|route| &mut route.talk),
        }
    }

    /// Keeps `preamble` — what the far end of the circuit `via` has just
    /// stated about itself on `topic`, authenticated by the layer above —
    /// for as long as this node keeps the circuit, as the bytes it came
    /// in.
    pub fn hear(&mut self, now: SimTime, via: Option<Arrival>, topic: u128, preamble: &[u8]) {
        if let Some(talk) = via.and_then(|via| self.talk_mut(now, via)) {
            let (was, bytes) = talk.heard.get_or_insert_with(Default::default);
            *was = topic;
            bytes.clear();
            bytes.extend_from_slice(preamble);
        }
    }

    /// The topic and bytes last [heard](Wcl::hear) on the circuit `via`.
    pub fn heard(&mut self, now: SimTime, via: Option<Arrival>) -> Option<(u128, &[u8])> {
        let (topic, bytes) = self.talk_mut(now, via?)?.heard.as_ref()?;
        Some((*topic, bytes))
    }

    /// Sends `payload` back on the circuit `peer` is bound to: this node's
    /// CTR layer, then the previous hop. `false` — and nothing sent — when
    /// there is no such circuit any more, counted under the reason.
    fn send_back(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        peer: NodeId,
        payload: &[u8],
        once: Option<Preamble>,
    ) -> bool {
        let Some(&cid) = self.return_ways.get(&peer) else {
            ctx.metrics().count("wcl.return_unbound", 1);
            return false;
        };
        // Good for as long as the source itself trusts the circuit: the
        // first half of its life here.
        let half_life_on = ctx.now().as_micros() + CIRCUIT_TTL.as_micros() / 2;
        let way = self.circuits.slot_mut(half_life_on, cid).and_then(|(entry, talk)| {
            Some((entry, talk, parse_hop_addr(entry.prev_hop())?))
        });
        let Some((entry, talk, (prev, prev_public))) = way else {
            self.return_ways.remove(&peer);
            ctx.metrics().count("wcl.return_stale", 1);
            return false;
        };
        let talk = talk.get_or_insert_with(Box::default);
        let body = talk.unsaid(payload, once);
        let nonce = CtrNonce::random(ctx.rng());
        let (mut frame, body_at) = circuit_frame(ctx, nylon, Direction::Return, cid, &nonce, body);
        let layered = &mut frame.as_mut_slice()[body_at..];
        let cost = layer_sampled(ctx, nylon.is_public(), entry, Direction::Return, &nonce, layered);
        ctx.metrics().sample("wcl.circuit_seal_us", cost.aes_model_ns() as f64 / 1000.0);
        if nylon.send_app_frame(ctx, prev, prev_public, &[], frame) == SendOutcome::Failed {
            ctx.metrics().count("wcl.return_stale", 1);
            return false;
        }
        talk.said = once.or(talk.said);
        ctx.metrics().count("wcl.circuit_hit", 1);
        ctx.metrics().count("wcl.return_sent", 1);
        if body.len() < payload.len() {
            ctx.metrics().count("wcl.short_sent", 1);
        }
        true
    }

    /// Sends `payload` confidentially to `dest`, tracking it for retries:
    /// if [`Wcl::notify_response`] is not called with `msg_id` before the
    /// retry timeout, an alternative path is tried (up to [`MAX_RETRIES`]).
    /// `once` is as for [`Wcl::send_untracked`]; a retry, which builds a
    /// fresh circuit, states it again.
    ///
    /// Counts the Table I statistics: `wcl.route_first_success`,
    /// `wcl.route_alt_success`, `wcl.route_no_alt`,
    /// `wcl.route_exhausted`.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        dest: &DestInfo,
        payload: Vec<u8>,
        once: Option<Preamble>,
        msg_id: u64,
    ) -> bool {
        ctx.metrics().count("wcl.route_attempts", 1);
        let Some((a, b)) = self.try_send(ctx, nylon, dest, &payload, once, (&[], &[])) else {
            // Could not even build the first path; treated as "no
            // alternative" immediately.
            ctx.metrics().count("wcl.route_no_alt", 1);
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
        let delay = self.recovery.retry_delay(ctx, dest.node, 1);
        ctx.set_timer(delay, retry_token(msg_id));
        true
    }

    /// Tells the WCL that the request behind `msg_id` got its answer;
    /// updates the Table I counters, the RTT estimator (Karn's rule:
    /// only first-attempt responses are unambiguous) and the health of
    /// the relays that carried it.
    pub fn notify_response(&mut self, ctx: &mut Ctx<'_>, msg_id: u64) {
        if let Some(p) = self.pending.remove(&msg_id) {
            // Fig. 7's "total rtt": request out, answer back, in
            // simulated seconds.
            let rtt = ctx.now().since(p.sent_at).as_secs_f64();
            ctx.metrics().sample("wcl.rtt_s", rtt);
            let first_try = p.attempts <= 1;
            if first_try {
                ctx.metrics().count("wcl.route_first_success", 1);
            } else {
                ctx.metrics().count("wcl.route_alt_success", 1);
                // Route-repair latency: first attempt out → answer over
                // the repaired path back.
                ctx.metrics().sample("wcl.repair_s", rtt);
            }
            self.recovery.on_answer(p.dest.node, first_try.then_some(rtt), p.last_relays());
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
    /// send is abandoned.
    pub fn on_retry_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        token: u64,
    ) -> Option<WclEvent> {
        let msg_id = msg_id_of_token(token);
        let mut p = self.pending.remove(&msg_id)?;
        let now = ctx.now();
        // The unanswered route is suspect — a relay may have lost its
        // circuit state or a link may have died — so tear down the cached
        // circuit before (re)building: the retry must not reuse it. (An
        // answer that was only slow still finds its way back on it.)
        if self.routes.retire(p.dest.node, now) {
            ctx.metrics().count("wcl.circuit_teardown", 1);
        }
        self.recovery.on_timeout(ctx, p.last_relays());
        if p.attempts > MAX_RETRIES {
            ctx.metrics().count("wcl.route_exhausted", 1);
            return Some(WclEvent::RouteFailed {
                msg_id,
                dest: p.dest.node,
                no_alternative: false,
            });
        }
        let retry = self.try_send(
            ctx,
            nylon,
            &p.dest,
            &p.payload,
            p.once,
            (&p.used_first_mixes, &p.used_gateways),
        );
        match retry {
            Some((a, b)) => {
                ctx.metrics().count("wcl.route_retry", 1);
                p.attempts += 1;
                p.used_first_mixes.push(a);
                p.used_gateways.push(b);
                let delay = self.recovery.retry_delay(ctx, p.dest.node, p.attempts);
                self.pending.insert(msg_id, p);
                ctx.set_timer(delay, retry_token(msg_id));
                None
            }
            None => {
                ctx.metrics().count("wcl.route_no_alt", 1);
                Some(WclEvent::RouteFailed {
                    msg_id,
                    dest: p.dest.node,
                    no_alternative: true,
                })
            }
        }
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

    /// Builds a path avoiding the first mixes and the gateways in `avoid`
    /// and sends. Returns the `(A, B)` pair used, or `None` when no path
    /// can be constructed.
    fn try_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        dest: &DestInfo,
        payload: &[u8],
        once: Option<Preamble>,
        (avoid_a, avoid_b): (&[NodeId], &[NodeId]),
    ) -> Option<(NodeId, NodeId)> {
        let me = nylon.id();
        let now = ctx.now();

        // Steady-state fast path: a cached circuit carries the packet with
        // three CTR layers and zero RSA. Skipped when a retry is steering
        // away from specific mixes — those want a *different* path.
        if avoid_a.is_empty() && avoid_b.is_empty() {
            if let Some(route) = self.routes.get_mut(dest.node) {
                if route.expires > now {
                    let (first_hop, mixes) = (route.first_hop, route.mixes);
                    let nonce0 = CtrNonce::random(ctx.rng());
                    let body = route.talk.unsaid(payload, once);
                    // The packet is written once, straight into the
                    // outgoing buffer, and sealed there.
                    let (mut frame, body_at) = circuit_frame(
                        ctx,
                        nylon,
                        Direction::Forward,
                        route.circuit.first_cid,
                        &nonce0,
                        body,
                    );
                    let cost = crypto_sampled(ctx, nylon.is_public(), || {
                        route.circuit.seal_in_place(&nonce0, &mut frame.as_mut_slice()[body_at..])
                    });
                    ctx.metrics().sample(
                        "wcl.circuit_seal_us",
                        cost.aes_model_ns() as f64 / 1000.0,
                    );
                    let outcome = nylon.send_app_frame(ctx, first_hop.0, first_hop.1, &[], frame);
                    if outcome != SendOutcome::Failed {
                        route.talk.said = once.or(route.talk.said);
                        ctx.metrics().count("wcl.circuit_hit", 1);
                        if body.len() < payload.len() {
                            ctx.metrics().count("wcl.short_sent", 1);
                        }
                        return Some(mixes);
                    }
                    // The link into the circuit is gone; tear the route
                    // down and fall through to a fresh RSA onion.
                    ctx.metrics().count("wcl.circuit_teardown", 1);
                }
                self.routes.retire(dest.node, now);
            }
        }

        // Gateway B: a P-node able to reach D. For NATted destinations it
        // must come from the destination's advertised gateways; public
        // destinations accept any P-node we know (paper §IV-B), preferring
        // our CB publics.
        let mut b_candidates: Vec<GatewayInfo> = if dest.public {
            let mut from_cb: Vec<GatewayInfo> = nylon
                .cb()
                .publics()
                .filter(|e| e.node != dest.node && e.node != me)
                .filter_map(|e| e.key.clone().map(|key| GatewayInfo { node: e.node, key }))
                .collect();
            if from_cb.is_empty() {
                from_cb = dest.gateways.clone();
            }
            from_cb
        } else {
            dest.gateways.clone()
        };
        b_candidates.retain(|g| !avoid_b.contains(&g.node) && g.node != me && g.node != dest.node);

        // First mix A: a CB entry with a known key and a still-open path
        // from us. Falls back to B candidates as a degenerate choice only
        // if the CB is empty (bootstrap corner).
        let mut a_candidates: Vec<(NodeId, bool, PublicKey)> = nylon
            .cb()
            .iter()
            .filter(|e| {
                e.node != dest.node
                    && e.node != me
                    && !avoid_a.contains(&e.node)
                    && e.key.is_some()
                    && nylon.can_reach_directly(e.node, e.public, now)
            })
            .map(|e| (e.node, e.public, e.key.clone().expect("filtered")))
            .collect();

        // Relay health bias: suspects go while healthier candidates exist.
        self.recovery.keep_healthy(ctx, &mut b_candidates, |g| g.node);
        self.recovery.keep_healthy(ctx, &mut a_candidates, |(n, _, _)| *n);

        // Mixes must be distinct: drop A candidates equal to the chosen B
        // later; choose B first for simplicity.
        let b = {
            let mut rngs: Vec<&GatewayInfo> = b_candidates.iter().collect();
            rngs.shuffle(ctx.rng());
            rngs.first().map(|g| (*g).clone())
        }?;
        a_candidates.retain(|(n, _, _)| *n != b.node);
        if a_candidates.is_empty() {
            return None;
        }
        let a = a_candidates[ctx.rng().gen_range(0..a_candidates.len())].clone();

        // Intermediate extra mixes for paths longer than 2 (ablation):
        // additional P-nodes from the CB between A and B.
        let mut path: Vec<(PublicKey, Vec<u8>)> = Vec::with_capacity(self.cfg.mixes + 1);
        path.push((a.2.clone(), hop_addr(a.0, a.1)));
        if self.cfg.mixes > 2 {
            let extras: Vec<GatewayInfo> = nylon
                .cb()
                .publics()
                .filter(|e| {
                    e.node != a.0 && e.node != b.node && e.node != dest.node && e.node != me
                })
                .filter_map(|e| e.key.clone().map(|key| GatewayInfo { node: e.node, key }))
                .take(self.cfg.mixes - 2)
                .collect();
            if extras.len() < self.cfg.mixes - 2 {
                return None;
            }
            for extra in extras {
                path.push((extra.key, hop_addr(extra.node, true)));
            }
        }
        path.push((b.key.clone(), hop_addr(b.node, true)));
        path.push((dest.key.clone(), hop_addr(dest.node, dest.public)));

        let cost_before = whisper_crypto::costs::snapshot();
        let build_started = ctx.prof_enabled().then(std::time::Instant::now);
        // The onion doubles as circuit establishment: each layer carries
        // that hop's link key and circuit ids.
        let (src_circuit, setups) = circuit::establish(path.len(), ctx.rng());
        let exts: Vec<Vec<u8>> = setups.iter().map(|s| s.encode()).collect();
        let packet = onion::build_onion_ext(&path, payload, &exts, ctx.rng()).ok()?;
        let cost = whisper_crypto::costs::snapshot().since(cost_before);
        if let Some(started) = build_started {
            ctx.prof_crypto_model_ns(started.elapsed().as_nanos() as u64);
        }
        // The sample is the deterministic model cost (see DESIGN.md
        // § "Deterministic crypto accounting"); host time goes to the
        // profiler only, and only when it is on.
        ctx.metrics().sample(
            "wcl.build_path_us",
            (cost.aes_model_ns() + cost.rsa_model_ns()) as f64 / 1000.0,
        );
        sample_crypto_cost(ctx, nylon.is_public(), &cost);
        ctx.metrics().count("wcl.paths_built", 1);
        let frame = onion_frame(ctx, nylon, &packet.header, &packet.body);
        let outcome = nylon.send_app_frame(ctx, a.0, a.1, &[], frame);
        if outcome == SendOutcome::Failed {
            return None;
        }
        // Cache for half the relay-side TTL: the source always
        // re-establishes well before any relay forgets the circuit.
        let expires = now + SimDuration::from_micros(CIRCUIT_TTL.as_micros() / 2);
        self.routes.insert(
            now,
            dest.node,
            CachedRoute {
                circuit: src_circuit,
                first_hop: (a.0, a.1),
                mixes: (a.0, b.node),
                expires,
                // The onion stated it on every circuit it set up.
                talk: Conversation { said: once, heard: None },
            },
        );
        ctx.metrics().count("wcl.circuit_established", 1);
        Some((a.0, b.node))
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
        nylon: &mut NylonCore,
        prev: (NodeId, bool),
        data: &[u8],
    ) -> Option<WclEvent> {
        let handled = match data.first() {
            Some(&WCL_TAG) => ctx
                .prof_decode(|| OnionView::from_wire(data))
                .map(|packet| self.on_onion_packet(ctx, nylon, prev, packet)),
            Some(&CIRCUIT_TAG | &RETURN_TAG) => ctx
                .prof_decode(|| CircuitPacket::from_wire(data))
                .map(|packet| self.on_circuit_packet(ctx, nylon, packet)),
            _ => return None,
        };
        handled.unwrap_or_else(|_| {
            ctx.metrics().count("wcl.malformed", 1);
            None
        })
    }

    /// Handles a full RSA onion packet (the first packet of a route).
    fn on_onion_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        prev: (NodeId, bool),
        packet: OnionView<'_>,
    ) -> Option<WclEvent> {
        let cost_before = whisper_crypto::costs::snapshot();
        let peel_started = ctx.prof_enabled().then(std::time::Instant::now);
        let peeled = onion::peel_with_body(nylon.keypair(), packet.header, packet.body);
        let cost = whisper_crypto::costs::snapshot().since(cost_before);
        if let Some(started) = peel_started {
            ctx.prof_crypto_model_ns(started.elapsed().as_nanos() as u64);
        }
        ctx.metrics().sample(
            "wcl.peel_us",
            (cost.aes_model_ns() + cost.rsa_model_ns()) as f64 / 1000.0,
        );
        sample_crypto_cost(ctx, nylon.is_public(), &cost);
        match peeled {
            Ok(PeelResult::Relay { next_hop, header, ext }) => {
                let Some((next, next_public)) = parse_hop_addr(&next_hop) else {
                    ctx.metrics().count("wcl.bad_next_hop", 1);
                    return None;
                };
                self.install_circuit(ctx, &ext, next_hop, prev);
                ctx.metrics().count("wcl.relayed", 1);
                let fwd = onion_frame(ctx, nylon, &header, packet.body);
                // A mix reaches the next hop through an existing contact
                // (B → D relies on D's earlier ping) or directly when the
                // next hop is public. No rendezvous chains here: a mix
                // must not interrogate the network about the next hop.
                let outcome = nylon.send_app_frame(ctx, next, next_public, &[], fwd);
                if outcome == SendOutcome::Failed {
                    ctx.metrics().count("wcl.relay_drop", 1);
                }
                None
            }
            Ok(PeelResult::Destination { payload, ext }) => {
                let via = self.install_circuit(ctx, &ext, Vec::new(), prev).map(Arrival::Forward);
                ctx.metrics().count("wcl.delivered", 1);
                Some(WclEvent::Delivered { payload, via })
            }
            Err(_) => {
                ctx.metrics().count("wcl.peel_failed", 1);
                None
            }
        }
    }

    /// Stores the circuit state a just-peeled onion layer delivered for
    /// this node, with the neighbour the onion came from as the way back,
    /// and returns the id it listens under (no-op for layers without an
    /// extension).
    fn install_circuit(
        &mut self,
        ctx: &mut Ctx<'_>,
        ext: &[u8],
        next_hop: Vec<u8>,
        prev: (NodeId, bool),
    ) -> Option<CircuitId> {
        if ext.is_empty() {
            return None;
        }
        let Some(setup) = HopSetup::decode(ext) else {
            ctx.metrics().count("wcl.circuit_bad_setup", 1);
            return None;
        };
        let entry = CircuitEntry::new(setup.key, next_hop, setup.cid_out)
            .reached_from(&hop_addr(prev.0, prev.1));
        self.carry_circuit(ctx.now(), setup.cid_in, entry);
        ctx.metrics().count("wcl.circuit_installed", 1);
        Some(setup.cid_in)
    }

    /// Stores `entry` as the circuit packets under `cid_in` ride from
    /// `now` on. Public as a test hook, for circuit state no setup
    /// extension this node parses would have produced.
    pub fn carry_circuit(&mut self, now: SimTime, cid_in: CircuitId, entry: CircuitEntry) {
        self.circuits.insert(now.as_micros(), cid_in, entry);
    }

    /// Handles a steady-state circuit packet: one CTR layer stripped (on
    /// the way out) or added (on the way back), then forwarded under the
    /// id of the next link or delivered. Unknown or expired circuit ids are
    /// silently dropped — the source's retry machinery recovers by
    /// re-establishing over RSA.
    fn on_circuit_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        packet: CircuitPacket<'_>,
    ) -> Option<WclEvent> {
        let now_us = ctx.now().as_micros();
        // The entry, and where its packet goes on: to which neighbour and
        // under which id. The way out ends where there is no outbound id;
        // the way back ends at the source, which carries no entry for it.
        let hop = match packet.direction {
            Direction::Forward => self
                .circuits
                .lookup(now_us, packet.cid)
                .map(|entry| (entry, entry.cid_out().map(|cid_out| (entry.next_hop(), cid_out)))),
            Direction::Return => self
                .circuits
                .lookup_return(now_us, packet.cid)
                .map(|(cid_in, entry)| (entry, Some((entry.prev_hop(), cid_in)))),
        };
        let Some((entry, onward)) = hop else {
            if packet.direction == Direction::Return {
                if let Some(home) = self.on_return_home(ctx, nylon.is_public(), packet) {
                    return Some(home);
                }
            }
            ctx.metrics().count("wcl.circuit_miss_drop", 1);
            return None;
        };
        // The body is copied exactly once — into the buffer it leaves in
        // (the next hop's packet, or the delivery buffer) — and this hop's
        // layer is applied there, in place, with the entry's cached key
        // schedule (the entry is borrowed, not cloned: a clone would copy
        // the schedule per packet).
        match onward {
            Some((hop_addr, cid_onward)) => {
                // Checked before any work is spent on the body. (Only a
                // source that lies in its own setup extension gets here:
                // `on_onion_packet` installs hops it has parsed.)
                let Some((next, next_public)) = parse_hop_addr(hop_addr) else {
                    ctx.metrics().count("wcl.bad_next_hop", 1);
                    return None;
                };
                // The nonce this hop's layer is under, and the one the
                // packet leaves with.
                let (layer_nonce, onward_nonce) = match packet.direction {
                    Direction::Forward => (packet.nonce, circuit::next_nonce(&packet.nonce)),
                    Direction::Return => {
                        let stepped = entry.return_nonce(&packet.nonce);
                        (stepped, stepped)
                    }
                };
                let (mut frame, body_at) = circuit_frame(
                    ctx,
                    nylon,
                    packet.direction,
                    cid_onward,
                    &onward_nonce,
                    packet.body,
                );
                let body = &mut frame.as_mut_slice()[body_at..];
                let public = nylon.is_public();
                let cost = layer_sampled(ctx, public, entry, packet.direction, &layer_nonce, body);
                ctx.metrics().sample("wcl.circuit_fwd_us", cost.aes_model_ns() as f64 / 1000.0);
                ctx.metrics().count("wcl.relayed", 1);
                ctx.metrics().count("wcl.circuit_forwarded", 1);
                let outcome = nylon.send_app_frame(ctx, next, next_public, &[], frame);
                if outcome == SendOutcome::Failed {
                    ctx.metrics().count("wcl.relay_drop", 1);
                }
                None
            }
            None => {
                let mut payload = lend(&mut self.deliver_buf, packet.body);
                let public = nylon.is_public();
                let cost =
                    layer_sampled(ctx, public, entry, packet.direction, &packet.nonce, &mut payload);
                ctx.metrics().sample("wcl.circuit_fwd_us", cost.aes_model_ns() as f64 / 1000.0);
                ctx.metrics().count("wcl.delivered", 1);
                ctx.metrics().count("wcl.circuit_delivered", 1);
                Some(WclEvent::Delivered { payload, via: Some(Arrival::Forward(packet.cid)) })
            }
        }
    }

    /// A return packet at the end of its way: if this node holds the route
    /// whose first hop listens under the packet's id — in use or given up
    /// on — every hop's layer is stripped and the payload delivered.
    fn on_return_home(
        &mut self,
        ctx: &mut Ctx<'_>,
        is_public: bool,
        packet: CircuitPacket<'_>,
    ) -> Option<WclEvent> {
        let route = self.routes.by_first_cid.get_mut(&packet.cid)?;
        let mut payload = lend(&mut self.deliver_buf, packet.body);
        crypto_sampled(ctx, is_public, || {
            route.circuit.open_return_in_place(&packet.nonce, &mut payload)
        });
        ctx.metrics().count("wcl.delivered", 1);
        ctx.metrics().count("wcl.circuit_delivered", 1);
        ctx.metrics().count("wcl.return_delivered", 1);
        Some(WclEvent::Delivered { payload, via: Some(Arrival::Return(packet.cid)) })
    }
}

/// The delivery buffer, lent out holding a copy of `body` for the last
/// layers to come off in place ([`Wcl::reclaim`] takes it back).
fn lend(deliver_buf: &mut Vec<u8>, body: &[u8]) -> Vec<u8> {
    let mut payload = std::mem::take(deliver_buf);
    payload.clear();
    payload.extend_from_slice(body);
    payload
}

/// Runs `work` — circuit crypto — and records what it cost under the
/// deterministic model (the Table II per-class samples; host time goes to
/// the profiler, when it is on), returning the cost.
fn crypto_sampled(
    ctx: &mut Ctx<'_>,
    is_public: bool,
    work: impl FnOnce(),
) -> whisper_crypto::costs::CryptoCosts {
    let cost_before = whisper_crypto::costs::snapshot();
    let wall_started = ctx.prof_enabled().then(std::time::Instant::now);
    work();
    let cost = whisper_crypto::costs::snapshot().since(cost_before);
    if let Some(started) = wall_started {
        ctx.prof_crypto_model_ns(started.elapsed().as_nanos() as u64);
    }
    sample_crypto_cost(ctx, is_public, &cost);
    cost
}

/// Applies `entry`'s layer for `direction` to `body` in place, sampled as
/// [`crypto_sampled`] does.
fn layer_sampled(
    ctx: &mut Ctx<'_>,
    is_public: bool,
    entry: &CircuitEntry,
    direction: Direction,
    nonce: &CtrNonce,
    body: &mut [u8],
) -> whisper_crypto::costs::CryptoCosts {
    crypto_sampled(ctx, is_public, || entry.apply_in_place(direction, nonce, body))
}

/// Samples the per-class crypto cost metrics (Table II) from a
/// [`whisper_crypto::costs::CryptoCosts`] delta, using the deterministic
/// model nanoseconds so traces are host-independent.
fn sample_crypto_cost(
    ctx: &mut Ctx<'_>,
    is_public: bool,
    cost: &whisper_crypto::costs::CryptoCosts,
) {
    ctx.metrics().sample(
        if is_public { "crypto.rsa_us.pnode" } else { "crypto.rsa_us.nnode" },
        cost.rsa_model_ns() as f64 / 1000.0,
    );
    ctx.metrics().sample(
        if is_public { "crypto.aes_us.pnode" } else { "crypto.aes_us.nnode" },
        cost.aes_model_ns() as f64 / 1000.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_token_round_trip() {
        let t = retry_token(42);
        assert_eq!(t & 0xFF, TIMER_WCL_RETRY);
        assert_eq!(msg_id_of_token(t), 42);
    }

    #[test]
    fn msg_ids_are_unique() {
        let mut wcl = Wcl::new(WclConfig::default());
        let a = wcl.alloc_msg_id();
        let b = wcl.alloc_msg_id();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one mix")]
    fn zero_mixes_rejected() {
        Wcl::new(WclConfig { mixes: 0, ..WclConfig::default() });
    }

    fn onion_wire(header: &[u8], body: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        put_onion(&mut w, header, body);
        w.into_bytes()
    }

    /// The onion view accepts exactly the images its writer produces.
    #[test]
    fn onion_view_reads_what_its_writer_writes_and_nothing_else() {
        let cases: [(&[u8], &[u8]); 3] = [(&[1, 2, 3], &[4, 5]), (&[9; 300], &[]), (&[], &[7; 70])];
        for (header, body) in cases {
            let wire = onion_wire(header, body);
            assert_eq!(OnionView::from_wire(&wire).unwrap(), OnionView { header, body });
        }
        let wire = onion_wire(&[1, 2, 3], &[4, 5]);
        assert_eq!(wire, [0xC1, 0, 0, 0, 3, 1, 2, 3, 0, 0, 0, 2, 4, 5], "the bytes on the wire");
        for cut in 0..wire.len() {
            assert!(OnionView::from_wire(&wire[..cut]).is_err(), "truncated to {cut} bytes");
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        assert!(OnionView::from_wire(&trailing).is_err(), "one trailing byte");
        let mut circuit = wire;
        circuit[0] = CIRCUIT_TAG;
        assert!(OnionView::from_wire(&circuit).is_err(), "a 0xC2 image");
        assert!(OnionView::from_wire(&[0xFF, 0, 0]).is_err());
        assert!(OnionView::from_wire(&[]).is_err(), "the empty slice");
    }

    #[test]
    fn circuit_packet_wire_round_trip() {
        let body = [1u8, 2, 3, 4];
        for (direction, tag) in [(Direction::Forward, CIRCUIT_TAG), (Direction::Return, RETURN_TAG)] {
            let mut w = WireWriter::new();
            put_circuit_header(&mut w, direction, CircuitId([7; 8]), &CtrNonce([9; 8]), body.len());
            w.put_raw(&body);
            let bytes = w.into_bytes();
            assert_eq!(bytes[0], tag);
            assert_eq!(bytes.len(), circuit_packet_len(body.len()));
            let packet =
                CircuitPacket { direction, cid: CircuitId([7; 8]), nonce: CtrNonce([9; 8]), body: &body };
            assert_eq!(CircuitPacket::from_wire(&bytes).unwrap(), packet);
            assert!(CircuitPacket::from_wire(&bytes[..bytes.len() - 1]).is_err(), "truncated body");
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(CircuitPacket::from_wire(&trailing).is_err(), "trailing bytes");
            // The WCL wire formats never parse as each other.
            assert!(OnionView::from_wire(&bytes).is_err());
        }
        assert!(CircuitPacket::from_wire(&onion_wire(&[1], &[2])).is_err());
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
        let mut wcl = Wcl::new(WclConfig::default());
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
        let mut wcl = Wcl::new(WclConfig::default());
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
