//! The Nylon PSS protocol core: gossip cycles, NAT-resilient exchange
//! delivery, the P-node-biased view, the public key sampling service and
//! the connection backlog maintenance.
//!
//! [`NylonCore`] is written sans-I/O-style: it is driven by `on_start` /
//! `on_message` / `on_timer` calls and returns [`NylonEvent`]s for the
//! layer above (the WCL embeds a `NylonCore` inside its own node type).
//! [`NylonNode`] is a thin [`Protocol`] wrapper for running the PSS
//! standalone, as the Fig. 5 / Fig. 6 experiments do.
//!
//! How a message reaches a peer is the [`Transport`]'s business: the core
//! hands it every send, the sender of every direct packet and the open
//! request or acknowledgement that reaches its destination. The core
//! itself forwards a [`NylonMsg::Chain`] one hop along its rendezvous
//! chain, unwraps the message that reaches it — an open request's or
//! acknowledgement's among them — and answers a `Punch` with its key. A
//! gossip answer that an acknowledgement carries ends the exchange at
//! once, but its entries wait for the `PunchAck` that proves the direct
//! channel they assume.

use crate::backlog::{CbEntry, ConnectionBacklog};
use crate::config::NylonConfig;
use crate::messages::{ChainBody, GossipView, NylonMsg};
use crate::timer;
use crate::transport::{SendOutcome, Transport};
use crate::view::{Entry, View, ViewEntry};
use std::collections::HashMap;
use std::time::Instant;
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::payload::PayloadWriter;
use whisper_net::sim::{Ctx, Protocol};
use whisper_net::nat::NatType;
use whisper_net::wire::{WireDecode, WireLen, WireSink};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};

/// PSS cycle period (paper: 10 s).
pub const CYCLE: SimDuration = SimDuration::from_secs(10);

/// Stale-peer eviction: view entries whose age exceeds this many cycles
/// are dropped at the start of each gossip cycle, so killed or partitioned
/// peers leave every live view within a bounded number of rounds (the Π
/// bias would otherwise keep dead P-nodes alive forever). It comfortably
/// exceeds the age a live entry can reach between refreshes
/// ([`NylonConfig::validate`] holds a configuration to that), or healthy
/// peers would be purged too.
pub const MAX_AGE: u16 = 20;

/// How long a pending CB ping may stay unanswered before we retry another
/// candidate.
const PING_PENDING_TTL: SimDuration = SimDuration::from_secs(5);

/// Upcalls from the PSS to the layer above.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NylonEvent {
    /// An application payload arrived (sent by a peer's `send_app`).
    Payload {
        /// Originating node: the first hop of the chain that relayed it,
        /// or the node that sent it directly.
        from: NodeId,
        /// Opaque upper-layer bytes.
        data: Vec<u8>,
    },
    /// A gossip exchange we initiated completed successfully.
    GossipCompleted {
        /// The exchange partner.
        partner: NodeId,
    },
}

/// How a message came: the relays that carried it, the one this node
/// heard from first (empty when the sender sent it directly), and whether
/// that one is a P-node.
#[derive(Clone, Copy)]
struct Via<'a> {
    relays: &'a [NodeId],
    head_public: bool,
}

impl Via<'_> {
    const DIRECT: Via<'static> = Via { relays: &[], head_public: false };
}

/// A decoded message: gossip as a view of the packet, everything else
/// owned.
enum Incoming<'a> {
    Gossip(GossipView<'a>),
    Other(NylonMsg),
}

impl Incoming<'_> {
    /// `None` for what [`NylonMsg::from_wire`] rejects.
    fn parse(data: &[u8]) -> Option<Incoming<'_>> {
        match NylonMsg::gossip_view(data) {
            Some(gossip) => Some(Incoming::Gossip(gossip)),
            None => NylonMsg::from_wire(data).ok().map(Incoming::Other),
        }
    }
}

/// The Nylon protocol state of one node.
pub struct NylonCore {
    cfg: NylonConfig,
    keypair: KeyPair,
    id: NodeId,
    nat: NatType,
    view: View,
    /// The gossip buffer being shipped; kept for its allocation.
    buffer: Vec<Entry>,
    cb: ConnectionBacklog,
    transport: Transport,
    bootstrap: Vec<NodeId>,
    outstanding: Option<(NodeId, u64)>,
    gossip_gen: u64,
    ping_pending: HashMap<NodeId, SimTime>,
    cycles_run: u64,
}

impl std::fmt::Debug for NylonCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NylonCore")
            .field("id", &self.id)
            .field("nat", &self.nat)
            .field("view", &self.view.len())
            .field("cb", &self.cb.len())
            .finish()
    }
}

impl NylonCore {
    /// Creates a node with the given configuration and RSA key pair.
    pub fn new(cfg: NylonConfig, keypair: KeyPair) -> Self {
        cfg.validate();
        let cb = ConnectionBacklog::new(cfg.cb_capacity());
        NylonCore {
            cfg,
            keypair,
            id: NodeId(u64::MAX),
            nat: NatType::Symmetric,
            view: View::new(),
            buffer: Vec::new(),
            cb,
            transport: Transport::new(),
            bootstrap: Vec::new(),
            outstanding: None,
            gossip_gen: 0,
            ping_pending: HashMap::new(),
            cycles_run: 0,
        }
    }

    /// Registers public bootstrap nodes; they seed the initial view.
    pub fn set_bootstrap(&mut self, nodes: Vec<NodeId>) {
        self.bootstrap = nodes;
    }

    // ---------------------------------------------------------------
    // Accessors used by the WCL / experiments
    // ---------------------------------------------------------------

    /// This node's identifier (valid after `on_start`).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is a P-node.
    pub fn is_public(&self) -> bool {
        self.nat.is_public()
    }

    /// The configuration.
    pub fn config(&self) -> &NylonConfig {
        &self.cfg
    }

    /// This node's key pair.
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The connection backlog.
    pub fn cb(&self) -> &ConnectionBacklog {
        &self.cb
    }

    /// Number of completed gossip cycles (diagnostics).
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// The `getPeer()` API of Fig. 1: a uniformly random view entry, with
    /// the NAT type and the chain a send to it needs.
    pub fn get_peer(&self, ctx: &mut Ctx<'_>) -> Option<Entry> {
        self.view.random(ctx.rng()).copied()
    }

    /// Whether a direct send to `to` would currently work.
    pub fn can_reach_directly(&self, to: NodeId, to_public: bool, now: SimTime) -> bool {
        self.transport.can_reach_directly(to, to_public, now)
    }

    /// Sends an opaque upper-layer payload to `to`: the payload copied
    /// into a [`NylonCore::begin_app`] frame, for a caller that holds it
    /// as a `Vec` already.
    pub fn send_app(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: NodeId,
        to_nat: Option<NatType>,
        route_hint: &[NodeId],
        payload: Vec<u8>,
    ) -> SendOutcome {
        let mut frame = Self::begin_app(ctx, payload.len());
        frame.put_raw(&payload);
        self.send_app_frame(ctx, to, to_nat, route_hint, frame)
    }

    /// Starts an application message (a [`NylonMsg::App`]) of
    /// `payload_len` payload bytes in a pool buffer, positioned after the
    /// Nylon framing: the caller appends exactly `payload_len` bytes — and
    /// may rework them in place through
    /// [`whisper_net::wire::WireWriter::as_mut_slice`] — then passes the
    /// finished buffer to [`NylonCore::send_app_frame`]. An upper layer
    /// writes its packet once, where it leaves from. The framing depends on
    /// the length alone, so no node is needed to start one.
    pub fn begin_app(ctx: &mut Ctx<'_>, payload_len: usize) -> PayloadWriter {
        let header = WireLen::of(|n| NylonMsg::put_app_header(n, payload_len));
        let mut frame = ctx.payload_writer(header + payload_len);
        NylonMsg::put_app_header(&mut frame, payload_len);
        frame
    }

    /// Sends an application message built with [`NylonCore::begin_app`] —
    /// the one way application bytes leave a node.
    ///
    /// `to_nat` and `route_hint` come from whatever directory entry the
    /// caller holds (CB entry, view entry, or PPSS private-view entry): the
    /// peer's NAT type (`None` for a NATted peer of unknown type) and the
    /// rendezvous chain that reaches it.
    pub fn send_app_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: NodeId,
        to_nat: Option<NatType>,
        route_hint: &[NodeId],
        frame: PayloadWriter,
    ) -> SendOutcome {
        let frame = frame.finish();
        debug_assert!(NylonMsg::app_view(&frame).is_some(), "payload_len bytes must follow begin_app");
        self.transport.send_with(ctx, to, to_nat, route_hint, |_, _| frame)
    }

    // ---------------------------------------------------------------
    // Protocol driver entry points
    // ---------------------------------------------------------------

    /// Must be called once when the node starts.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.id = ctx.id();
        self.nat = ctx.nat_type();
        self.seed_view();
        // Desynchronize cycles across nodes.
        let offset = SimDuration::from_micros(
            whisper_rand::Rng::gen_range(ctx.rng(), 0..CYCLE.as_micros()),
        );
        ctx.set_timer(offset, timer::token(timer::GOSSIP_CYCLE, 0));
    }

    /// Models a process restart with full volatile-state loss: the view,
    /// connection backlog (learned keys with it), transport contacts and any
    /// in-flight gossip state vanish. Identity, configuration and the
    /// bootstrap list survive (they live on disk), and the view is
    /// re-seeded from the bootstrap list so the next gossip cycle —
    /// whose timer the simulator defers across the outage — re-joins
    /// the overlay.
    pub fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        ctx.metrics().count("pss.restarts", 1);
        self.view = View::new();
        self.cb = ConnectionBacklog::new(self.cfg.cb_capacity());
        self.transport = Transport::new();
        self.outstanding = None;
        self.ping_pending.clear();
        self.seed_view();
    }

    /// Puts every bootstrap node — public by definition — into the view
    /// as a fresh entry: how a node joins, re-joins after a restart and
    /// recovers from an empty view.
    fn seed_view(&mut self) {
        for &node in self.bootstrap.iter().filter(|&&b| b != self.id) {
            self.view.insert(ViewEntry { node, age: 0, public: true, route: vec![] });
        }
    }

    /// Timer dispatch.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match timer::kind(token) {
            timer::GOSSIP_CYCLE => {
                self.do_gossip_cycle(ctx);
                ctx.set_timer(CYCLE, timer::token(timer::GOSSIP_CYCLE, 0));
            }
            timer::GOSSIP_TIMEOUT => {
                let gen = timer::payload(token);
                if let Some((partner, g)) = self.outstanding {
                    if g == gen {
                        // The healer policy drops unresponsive oldest
                        // entries so failed nodes leave views quickly.
                        if let Some(e) = self.view.get(partner) {
                            ctx.metrics().count(
                                if e.is_public() { "pss.timeout_removed_public" } else { "pss.timeout_removed_natted" },
                                1,
                            );
                        }
                        self.view.remove(partner);
                        self.outstanding = None;
                        ctx.metrics().count("pss.gossip_timeout", 1);
                    }
                }
            }
            _ => {}
        }
    }

    /// The allocation-free front door for application traffic: if `data`
    /// is an [`NylonMsg::App`] message, does everything
    /// [`NylonCore::on_message`] does for one — the sender's contact is
    /// noted — and returns the payload as a view of `data`, where
    /// `on_message` would copy it into a [`NylonEvent::Payload`] inside a
    /// fresh `Vec`; its originator is `from`. For anything else returns
    /// `None` and does nothing; the caller then passes `data` to
    /// [`NylonCore::on_message`].
    pub fn on_app_message<'d>(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        data: &'d [u8],
    ) -> Option<&'d [u8]> {
        let app = ctx.prof_decode(|| NylonMsg::app_view(data))?;
        self.transport.note_contact(from, from_ep, ctx.now());
        Some(app)
    }

    /// Message dispatch; returns the upcall event the message makes, if
    /// any: one message makes at most one.
    pub fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        data: &[u8],
    ) -> Option<NylonEvent> {
        let Some(msg) = ctx.prof_decode(|| Incoming::parse(data)) else {
            ctx.metrics().count("pss.malformed", 1);
            return None;
        };
        self.transport.note_contact(from, from_ep, ctx.now());
        self.handle(ctx, from, from_ep, Via::DIRECT, msg)
    }

    // ---------------------------------------------------------------
    // Gossip
    // ---------------------------------------------------------------

    /// Fills the gossip buffer for `partner` from the current view.
    fn fill_buffer(&mut self, ctx: &mut Ctx<'_>, partner: NodeId) {
        let skipped = self.view.fill_buffer(
            &mut self.buffer,
            Entry::new(self.id, 0, self.nat, &[]),
            partner,
            self.cfg.gossip_len,
            self.id,
            self.cfg.max_route,
            ctx.rng(),
        );
        if skipped > 0 {
            ctx.metrics().count("pss.chain_full_skipped", skipped as u64);
        }
    }

    /// Ships the gossip buffer to `to`, written straight into a pool
    /// buffer, with this node's key unless it is relayed. The relays have
    /// no use for the key, and `to` can use it — as a first mix — only
    /// for a sender it reaches directly, which a relayed message does not
    /// make it: a relayed exchange that opens the way (a public
    /// requester's) gives it the key next time, an open's the `Punch` and
    /// `PunchAck` that follow it, a pair that can only relay never. A first
    /// contact carries the key: its target reaches the sender as soon as
    /// it arrives.
    fn send_gossip(
        &mut self,
        ctx: &mut Ctx<'_>,
        request: bool,
        to: NodeId,
        to_nat: Option<NatType>,
        route_hint: &[NodeId],
    ) -> SendOutcome {
        let (id, public, key_sampling) = (self.id, self.is_public(), self.cfg.key_sampling);
        let (keypair, buffer) = (&self.keypair, &self.buffer);
        self.transport.send_with(ctx, to, to_nat, route_hint, |ctx, relayed| {
            let key = (key_sampling && !relayed).then(|| keypair.public().wire_bytes());
            let t0 = ctx.prof_enabled().then(Instant::now);
            let len = NylonMsg::gossip_len(buffer, key);
            let mut wire = ctx.payload_writer(len);
            NylonMsg::put_gossip(&mut wire, request, id, public, buffer, key);
            debug_assert_eq!(wire.len(), len, "gossip_len() disagrees with put_gossip()");
            let wire = wire.finish();
            if let Some(t0) = t0 {
                ctx.prof_encode_ns(t0.elapsed().as_nanos() as u64);
            }
            wire
        })
    }

    fn do_gossip_cycle(&mut self, ctx: &mut Ctx<'_>) {
        self.cycles_run += 1;
        self.view.increment_ages();
        // Stale-peer eviction: entries no refresh has touched for
        // `MAX_AGE` cycles belong to dead or unreachable peers — without
        // this, the Π bias keeps re-injecting dead P-nodes into merged
        // views, poisoning gateway selection indefinitely.
        let evicted = self.view.evict_older_than(MAX_AGE);
        if evicted > 0 {
            ctx.metrics().count("pss.stale_evicted", evicted as u64);
        }
        if self.view.is_empty() {
            // Rejoin through the bootstrap list.
            self.seed_view();
        }
        let Some(&partner_entry) = self.view.oldest() else {
            return;
        };
        let partner = partner_entry.node;
        self.fill_buffer(ctx, partner);
        ctx.metrics().count("pss.gossip_initiated", 1);
        let outcome =
            self.send_gossip(ctx, true, partner, Some(partner_entry.nat), partner_entry.route());
        if outcome == SendOutcome::Failed {
            ctx.metrics().count(
                if partner_entry.is_public() { "pss.sendfail_removed_public" } else { "pss.sendfail_removed_natted" },
                1,
            );
            self.view.remove(partner);
            return;
        }
        ctx.metrics().count(
            if partner_entry.is_public() { "pss.partner_public" } else { "pss.partner_natted" },
            1,
        );
        self.gossip_gen += 1;
        self.outstanding = Some((partner, self.gossip_gen));
        let timeout = SimDuration::from_micros(CYCLE.as_micros() / 2);
        ctx.set_timer(timeout, timer::token(timer::GOSSIP_TIMEOUT, self.gossip_gen));
    }

    fn key_payload(&self) -> Option<Vec<u8>> {
        self.cfg.key_sampling.then(|| self.keypair.public().to_bytes())
    }

    /// The key a message from a peer carried, as `bytes`: `held` — what
    /// the connection backlog has for that peer — when it is that very
    /// key (the usual case, and no parse), else `bytes` parsed. A message
    /// without a valid key leaves the peer with `held`.
    fn key_from(bytes: Option<&[u8]>, held: Option<PublicKey>) -> Option<PublicKey> {
        match (bytes, held) {
            (Some(bytes), Some(held)) if held.wire_bytes() == bytes => Some(held),
            (Some(bytes), held) => PublicKey::from_bytes(bytes).or(held),
            (None, held) => held,
        }
    }

    /// A message from `node` carried `key`: its backlog entry, if it has
    /// one, takes it.
    fn learn_key(&mut self, node: NodeId, key: Option<&[u8]>) {
        if let Some(held) = self.cb.get(node).map(|e| e.key.clone()) {
            if let Some(key) = Self::key_from(key, held) {
                self.cb.set_key(node, key);
            }
        }
    }

    /// Puts `node` at the head of the backlog with the key its message
    /// carried, or else the key the backlog had for it. With key sampling
    /// on, the backlog holds peers whose key it knows: one heard only in
    /// relayed gossip, which carries no key, waits for a direct message.
    fn insert_cb(&mut self, node: NodeId, public: bool, key: Option<&[u8]>) {
        let held = self.cb.get(node).and_then(|e| e.key.clone());
        let key = Self::key_from(key, held);
        if key.is_some() || !self.cfg.key_sampling {
            self.cb.insert(CbEntry { node, public, key }, self.cfg.pi);
        }
    }

    /// Keeps Π P-nodes in the CB by pinging view P-nodes not yet present
    /// (the paper's "empty message" that opens a path from the P-node back
    /// to us).
    fn maintain_cb(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.pi == 0 {
            return;
        }
        let now = ctx.now();
        self.ping_pending.retain(|_, t| now.since(*t) < PING_PENDING_TTL);
        let missing = self.cb.missing_publics(self.cfg.pi);
        let in_flight = self.ping_pending.len();
        if missing <= in_flight {
            return;
        }
        let candidates: Vec<NodeId> = self
            .view
            .entries()
            .iter()
            .filter(|e| e.is_public() && !self.cb.contains(e.node) && !self.ping_pending.contains_key(&e.node))
            .map(|e| e.node)
            .take(missing - in_flight)
            .collect();
        if candidates.is_empty() {
            return;
        }
        // The ping is identical for every candidate: encode once, fan out
        // reference-counted clones (one allocation for N sends).
        let ping = NylonMsg::Ping { from: self.id, key: self.key_payload() };
        let wire = ctx.encode_payload(&ping);
        for candidate in candidates {
            ctx.send_to(Endpoint::public(candidate), wire.clone());
            ctx.metrics().count("pss.cb_ping_sent", 1);
            self.ping_pending.insert(candidate, now);
        }
    }

    // ---------------------------------------------------------------
    // Message handling
    // ---------------------------------------------------------------

    fn handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        outer_from: NodeId,
        outer_ep: Endpoint,
        via: Via<'_>,
        msg: Incoming<'_>,
    ) -> Option<NylonEvent> {
        match msg {
            Incoming::Gossip(gossip) => self.handle_gossip(ctx, gossip, via),
            Incoming::Other(msg) => self.handle_msg(ctx, outer_from, outer_ep, msg),
        }
    }

    /// Both halves of a gossip exchange, read from the packet, which came
    /// directly or as the inner message of a relayed one: `via`.
    fn handle_gossip(
        &mut self,
        ctx: &mut Ctx<'_>,
        gossip: GossipView<'_>,
        via: Via<'_>,
    ) -> Option<NylonEvent> {
        let GossipView { request, sender, sender_public, .. } = gossip;
        if request {
            // Build the reply from the *pre-merge* view, as the
            // push-pull exchange prescribes.
            self.fill_buffer(ctx, sender);
            self.merge_gossip(&gossip, via);
            self.send_gossip(ctx, false, sender, sender_public.then_some(NatType::Public), &[]);
            self.maintain_cb(ctx);
            ctx.metrics().count("pss.gossip_served", 1);
            None
        } else {
            self.merge_gossip(&gossip, via);
            Some(self.gossip_completed(ctx, sender))
        }
    }

    /// Ends this node's exchange with `partner`, whose answer came: the
    /// connection backlog is kept after every exchange, whether or not
    /// the answer's entries are merged yet.
    fn gossip_completed(&mut self, ctx: &mut Ctx<'_>, partner: NodeId) -> NylonEvent {
        if matches!(self.outstanding, Some((p, _)) if p == partner) {
            self.outstanding = None;
        }
        self.maintain_cb(ctx);
        ctx.metrics().count("pss.gossip_completed", 1);
        NylonEvent::GossipCompleted { partner }
    }

    /// Merges the shipped entries, each with the chain that reaches it
    /// from here ([`Entry::received`]), into the view and puts the sender,
    /// with the key it shipped, at the head of the connection backlog.
    fn merge_gossip(&mut self, gossip: &GossipView<'_>, via: Via<'_>) {
        let (sender, sender_public, max_route) =
            (gossip.sender, gossip.sender_public, self.cfg.max_route);
        self.view.merge_entries(
            gossip.entries().filter_map(|e| {
                e.received(sender, sender_public, via.relays, via.head_public, max_route)
            }),
            self.id,
            self.cfg.view_size,
            self.cfg.pi,
            self.cfg.oldest_p_discard,
        );
        self.insert_cb(sender, sender_public, gossip.key);
    }

    /// Handles `inner`, the message a chain carried to this node from
    /// `from`, as one that came `via` and from `from_ep`.
    fn handle_inner(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        via: Via<'_>,
        inner: &[u8],
    ) -> Option<NylonEvent> {
        match Incoming::parse(inner) {
            // No honest sender nests (`Transport::send_with` wraps
            // gossip and `App` frames only), and unwrapping level by level
            // would let one packet, a few thousand deep, overflow this
            // thread's stack.
            Some(Incoming::Other(NylonMsg::Chain { .. })) => {
                ctx.metrics().count("pss.relayed_nested", 1);
                None
            }
            Some(inner_msg) => self.handle(ctx, from, from_ep, via, inner_msg),
            None => None,
        }
    }

    /// Handles `inner`, which the chain that took the hops `taken` (origin
    /// first) carried to this node from `outer_ep`, as a relayed message:
    /// the way it came, walked backwards, is a working route to its
    /// origin — each relay holds the contact of the one it took the packet
    /// from. Remember it, then process the inner message as one the origin
    /// sent over it.
    fn handle_relayed(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut taken: Vec<NodeId>,
        outer_ep: Endpoint,
        inner: &[u8],
    ) -> Option<NylonEvent> {
        let from = taken[0];
        taken.reverse();
        self.transport.note_reply_route(from, taken.clone(), ctx.now());
        let via = Via { relays: &taken[..taken.len() - 1], head_public: outer_ep.port == 0 };
        ctx.metrics().count("pss.relayed_delivered", 1);
        self.handle_inner(ctx, from, outer_ep, via, inner)
    }

    fn handle_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        outer_from: NodeId,
        outer_ep: Endpoint,
        msg: NylonMsg,
    ) -> Option<NylonEvent> {
        match msg {
            NylonMsg::GossipReq { .. } | NylonMsg::GossipResp { .. } => {
                debug_assert!(false, "Incoming::parse hands gossip to handle_gossip as a view");
            }
            NylonMsg::Chain { remaining, mut taken, mut body } => {
                // The first hop alone stamps the endpoint it saw the origin
                // at, over whatever the sender wrote there — and clears it
                // if the packet did not come straight from the origin.
                if let ChainBody::OpenReq(seen, _) | ChainBody::OpenAck(seen, _) | ChainBody::Contact(seen, _) =
                    &mut body
                {
                    if taken.len() == 1 {
                        *seen = (outer_from == taken[0]).then_some(outer_ep);
                    }
                }
                if let Some((&next, rest)) = remaining.split_first() {
                    ctx.metrics().count("pss.relayed_forwarded", 1);
                    taken.push(self.id);
                    let fwd = NylonMsg::Chain { remaining: rest.to_vec(), taken, body };
                    let ep = self.transport.next_hop_ep(ctx, next);
                    ctx.send_wire(ep, &fwd);
                    return None;
                }
                let from = taken[0];
                return match body {
                    ChainBody::Contact(Some(stamp), inner) => {
                        // Final destination of a cone-NATted origin's
                        // message: where its first hop saw it is where our
                        // answer gets in, unless we hold a contact for it
                        // already. Process the inner message as one the
                        // origin sent from there.
                        let ep = self.transport.contact_or_stamp(from, stamp, ctx.now());
                        self.handle_inner(ctx, from, ep, Via::DIRECT, &inner)
                    }
                    ChainBody::Relayed(inner) | ChainBody::Contact(None, inner) => {
                        self.handle_relayed(ctx, taken, outer_ep, &inner)
                    }
                    ChainBody::OpenReq(requester_ep, inner) => {
                        // Punched once; the answer to the message rides
                        // back in the acknowledgement.
                        self.transport.on_open_req(ctx, from, requester_ep);
                        let event = self.handle_relayed(ctx, taken, outer_ep, &inner);
                        self.transport.end_open_req(ctx);
                        event
                    }
                    ChainBody::OpenAck(target_ep, mut inner) => {
                        // The answer to our open request. Our `Punch` goes
                        // where the target's punch left from, and only its
                        // `PunchAck` leaves a contact. A gossip answer ends
                        // the exchange now, but its entries hold for a node
                        // that reaches the target directly: they wait for
                        // that `PunchAck`. Any other answer is handled as
                        // a relayed message.
                        let answered = NylonMsg::gossip_view(&inner).filter(|g| !g.request).map(|g| g.sender);
                        let held = if answered.is_some() { std::mem::take(&mut inner) } else { Vec::new() };
                        let key = self.key_payload();
                        if !self.transport.on_open_ack(ctx, from, target_ep, key, held) {
                            return None;
                        }
                        match answered {
                            Some(partner) => Some(self.gossip_completed(ctx, partner)),
                            None => self.handle_relayed(ctx, taken, outer_ep, &inner),
                        }
                    }
                };
            }
            NylonMsg::Punch { from, key } => {
                // A punch that got in; answered with this node's key. The
                // requester of an open sends its key in one: each side of
                // the new channel takes the other into its backlog.
                self.insert_cb(from, outer_ep.port == 0, key.as_deref());
                ctx.send_wire(outer_ep, &NylonMsg::PunchAck { from: self.id, key: self.key_payload() });
            }
            NylonMsg::PunchAck { from, key } => {
                // The answer to an open's `Punch` proves the channel the
                // held gossip answer's entries need.
                if let Some(held) = self.transport.on_punch_ack(outer_from, ctx.now()) {
                    ctx.metrics().count("pss.open_punch_ok", 1);
                    if let Some(gossip) = NylonMsg::gossip_view(&held) {
                        self.merge_gossip(&gossip, Via::DIRECT);
                        self.maintain_cb(ctx);
                    }
                }
                self.insert_cb(from, outer_ep.port == 0, key.as_deref());
            }
            NylonMsg::Ping { from, key } => {
                self.learn_key(from, key.as_deref());
                let pong = NylonMsg::Pong { from: self.id, key: self.key_payload() };
                ctx.send_wire(outer_ep, &pong);
            }
            NylonMsg::Pong { from, key } => {
                self.ping_pending.remove(&from);
                // Pings target P-nodes only, so the pong sender is public.
                self.insert_cb(from, true, key.as_deref());
            }
            NylonMsg::App { payload } => return Some(NylonEvent::Payload { from: outer_from, data: payload }),
        }
        None
    }

}

/// A standalone PSS node: [`NylonCore`] wrapped as a [`Protocol`].
#[derive(Debug)]
pub struct NylonNode {
    core: NylonCore,
    payloads_received: u64,
}

impl NylonNode {
    /// Creates a standalone PSS node.
    pub fn new(core: NylonCore) -> Self {
        NylonNode { core, payloads_received: 0 }
    }

    /// The wrapped protocol core.
    pub fn core(&self) -> &NylonCore {
        &self.core
    }

    /// Mutable access to the wrapped core.
    pub fn core_mut(&mut self) -> &mut NylonCore {
        &mut self.core
    }

    /// Number of application payloads received (diagnostics).
    pub fn payloads_received(&self) -> u64 {
        self.payloads_received
    }
}

impl Protocol for NylonNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        if let Some(NylonEvent::Payload { .. }) = self.core.on_message(ctx, from, from_ep, data) {
            self.payloads_received += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.core.on_timer(ctx, token);
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.core.on_restart(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
