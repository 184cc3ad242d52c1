//! The Nylon PSS protocol core: gossip cycles, NAT-resilient exchange
//! delivery, the P-node-biased view, the public key sampling service and
//! the connection backlog maintenance.
//!
//! [`NylonCore`] is written sans-I/O-style: it is driven by `on_start` /
//! `on_message` / `on_timer` calls and returns [`NylonEvent`]s for the
//! layer above (the WCL embeds a `NylonCore` inside its own node type).
//! [`NylonNode`] is a thin [`Protocol`] wrapper for running the PSS
//! standalone, as the Fig. 5 / Fig. 6 experiments do.

use crate::backlog::{CbEntry, ConnectionBacklog};
use crate::config::NylonConfig;
use crate::descriptors::DescriptorStore;
use crate::messages::{GossipView, NylonMsg, APP_HEADER_LEN};
use crate::transport::{peer_of_token, SendOutcome, Transport, TIMER_OPEN_TIMEOUT};
use crate::view::{Entry, View, ViewEntry};
use std::collections::HashMap;
use std::time::Instant;
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::payload::PayloadWriter;
use whisper_net::sim::{Ctx, Protocol};
use whisper_net::nat::can_hole_punch;
use whisper_net::wire::WireDecode;
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};

/// PSS cycle period (paper: 10 s).
pub const CYCLE: SimDuration = SimDuration::from_secs(10);
/// Group-descriptor blobs piggybacked per gossip message (the relay-level
/// dissemination of [`crate::descriptors`]).
pub const DESCRIPTOR_GOSSIP: usize = 2;
/// Capacity of the relay-level descriptor store.
pub const DESCRIPTOR_CAP: usize = 256;

/// Timer token: periodic gossip cycle.
const TIMER_GOSSIP_CYCLE: u64 = 1;
/// Timer token kind: gossip response timeout (generation in the high bits).
const TIMER_GOSSIP_TIMEOUT: u64 = 2;
/// Timer token kind: delayed re-punch towards an opening peer (peer id in
/// the high bits). Real hole punching repeats its probes: the first punch
/// can be filtered if it beats the other side's own outbound packet (e.g.
/// symmetric → restricted-cone), while a later one passes.
const TIMER_PUNCH_RETRY: u64 = 8;
/// How many delayed re-punches to send, and their spacing.
const PUNCH_RETRIES: u8 = 2;
const PUNCH_RETRY_DELAY: SimDuration = SimDuration::from_millis(250);

/// How long a pending CB ping may stay unanswered before we retry another
/// candidate.
const PING_PENDING_TTL: SimDuration = SimDuration::from_secs(5);

/// Upcalls from the PSS to the layer above.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NylonEvent {
    /// An application payload arrived (sent by a peer's `send_app`).
    Payload {
        /// Originating node.
        from: NodeId,
        /// Opaque upper-layer bytes.
        data: Vec<u8>,
    },
    /// A gossip exchange we initiated completed successfully.
    GossipCompleted {
        /// The exchange partner.
        partner: NodeId,
    },
    /// A fresher group-descriptor blob was merged into the relay store
    /// (the layer above verifies and interprets it; this layer only
    /// relays).
    Descriptor {
        /// Blob identifier (a group id, opaque here).
        id: u128,
        /// LWW version of the merged blob.
        version: u64,
        /// Opaque blob bytes.
        bytes: Vec<u8>,
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
    public: bool,
    view: View,
    /// The gossip buffer being shipped; kept for its allocation.
    buffer: Vec<Entry>,
    cb: ConnectionBacklog,
    transport: Transport,
    bootstrap: Vec<NodeId>,
    outstanding: Option<(NodeId, u64)>,
    gossip_gen: u64,
    ping_pending: HashMap<NodeId, SimTime>,
    punch_retries: HashMap<NodeId, (Endpoint, u8)>,
    cycles_run: u64,
    descs: DescriptorStore,
}

impl std::fmt::Debug for NylonCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NylonCore")
            .field("id", &self.id)
            .field("public", &self.public)
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
        let descs = DescriptorStore::new(DESCRIPTOR_CAP);
        NylonCore {
            cfg,
            keypair,
            id: NodeId(u64::MAX),
            public: false,
            view: View::new(),
            buffer: Vec::new(),
            cb,
            transport: Transport::new(),
            bootstrap: Vec::new(),
            outstanding: None,
            gossip_gen: 0,
            ping_pending: HashMap::new(),
            punch_retries: HashMap::new(),
            cycles_run: 0,
            descs,
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
        self.public
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

    /// The relay-level group-descriptor store.
    pub fn descriptors(&self) -> &DescriptorStore {
        &self.descs
    }

    /// Publishes (or refreshes) a descriptor blob into the relay store;
    /// it will piggyback on subsequent gossip exchanges. Returns `true`
    /// when the blob was news under the store's LWW rule.
    pub fn publish_descriptor(&mut self, id: u128, version: u64, bytes: &[u8]) -> bool {
        self.descs.offer(id, version, bytes)
    }

    /// The `getPeer()` API of Fig. 1: a uniformly random view entry.
    pub fn get_peer(&self, ctx: &mut Ctx<'_>) -> Option<ViewEntry> {
        self.view.random(ctx.rng()).map(ViewEntry::from)
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
        to_public: bool,
        route_hint: &[NodeId],
        payload: Vec<u8>,
    ) -> SendOutcome {
        let mut frame = self.begin_app(ctx, payload.len());
        frame.put_raw(&payload);
        self.send_app_frame(ctx, to, to_public, route_hint, frame)
    }

    /// Starts an application message (a [`NylonMsg::App`]) of
    /// `payload_len` payload bytes in a pool buffer, positioned after the
    /// Nylon framing: the caller appends exactly `payload_len` bytes — and
    /// may rework them in place through
    /// [`whisper_net::wire::WireWriter::as_mut_slice`] — then passes the
    /// finished buffer to [`NylonCore::send_app_frame`]. An upper layer
    /// writes its packet once, where it leaves from.
    pub fn begin_app(&self, ctx: &mut Ctx<'_>, payload_len: usize) -> PayloadWriter {
        let mut frame = ctx.payload_writer(APP_HEADER_LEN + payload_len);
        NylonMsg::put_app_header(&mut frame, self.id, payload_len);
        frame
    }

    /// Sends an application message built with [`NylonCore::begin_app`] —
    /// the one way application bytes leave a node.
    ///
    /// `to_public` and `route_hint` come from whatever directory entry the
    /// caller holds (CB entry, view entry, or PPSS private-view entry).
    pub fn send_app_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: NodeId,
        to_public: bool,
        route_hint: &[NodeId],
        frame: PayloadWriter,
    ) -> SendOutcome {
        let frame = frame.finish();
        debug_assert!(NylonMsg::app_view(&frame).is_some(), "payload_len bytes must follow begin_app");
        self.transport.send_encoded(ctx, self.id, to, to_public, frame, route_hint)
    }

    // ---------------------------------------------------------------
    // Protocol driver entry points
    // ---------------------------------------------------------------

    /// Must be called once when the node starts.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.id = ctx.id();
        self.public = ctx.nat_type().is_public();
        self.seed_view();
        // Desynchronize cycles across nodes.
        let offset = SimDuration::from_micros(
            whisper_rand::Rng::gen_range(ctx.rng(), 0..CYCLE.as_micros()),
        );
        ctx.set_timer(offset, TIMER_GOSSIP_CYCLE);
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
        self.punch_retries.clear();
        self.descs.clear();
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

    /// Timer dispatch; returns upcall events.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Vec<NylonEvent> {
        match token & 0xFF {
            TIMER_GOSSIP_CYCLE => {
                self.do_gossip_cycle(ctx);
                ctx.set_timer(CYCLE, TIMER_GOSSIP_CYCLE);
            }
            TIMER_GOSSIP_TIMEOUT => {
                let gen = token >> 8;
                if let Some((partner, g)) = self.outstanding {
                    if g == gen {
                        // The healer policy drops unresponsive oldest
                        // entries so failed nodes leave views quickly.
                        if let Some(e) = self.view.get(partner) {
                            ctx.metrics().count(
                                if e.public { "pss.timeout_removed_public" } else { "pss.timeout_removed_natted" },
                                1,
                            );
                        }
                        self.view.remove(partner);
                        self.outstanding = None;
                        ctx.metrics().count("pss.gossip_timeout", 1);
                    }
                }
            }
            TIMER_OPEN_TIMEOUT => {
                let peer = peer_of_token(token);
                self.transport.on_open_timeout(ctx, self.id, peer);
            }
            TIMER_PUNCH_RETRY => {
                let peer = peer_of_token(token);
                if let Some((ep, remaining)) = self.punch_retries.remove(&peer) {
                    let punch = NylonMsg::Punch { from: self.id };
                    ctx.send_wire(ep, &punch);
                    if remaining > 1 {
                        self.punch_retries.insert(peer, (ep, remaining - 1));
                        ctx.set_timer(PUNCH_RETRY_DELAY, TIMER_PUNCH_RETRY | (peer.0 << 8));
                    }
                }
            }
            _ => {}
        }
        Vec::new()
    }

    /// The allocation-free front door for application traffic: if `data`
    /// is an [`NylonMsg::App`] message, does everything
    /// [`NylonCore::on_message`] does for one — the sender's contact is
    /// noted, a pending hole punch towards it completes — and returns the
    /// originator and the payload as a view of `data`, where `on_message`
    /// would copy the payload into a [`NylonEvent::Payload`] inside a
    /// fresh `Vec`. For anything else returns `None` and does nothing;
    /// the caller then passes `data` to [`NylonCore::on_message`].
    pub fn on_app_message<'d>(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        data: &'d [u8],
    ) -> Option<(NodeId, &'d [u8])> {
        let app = ctx.prof_decode(|| NylonMsg::app_view(data))?;
        self.note_direct_packet(ctx, from, from_ep);
        Some(app)
    }

    /// Any direct packet proves a working return path to `from` and
    /// completes a pending hole punch towards it.
    fn note_direct_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint) {
        self.transport.note_contact(from, from_ep, ctx.now());
        self.transport.on_established(ctx, from, from_ep);
        if !self.punch_retries.is_empty() {
            self.punch_retries.remove(&from);
        }
    }

    /// Message dispatch; returns upcall events.
    pub fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        data: &[u8],
    ) -> Vec<NylonEvent> {
        let Some(msg) = ctx.prof_decode(|| Incoming::parse(data)) else {
            ctx.metrics().count("pss.malformed", 1);
            return Vec::new();
        };
        self.note_direct_packet(ctx, from, from_ep);
        let mut events = Vec::new();
        self.handle(ctx, from, from_ep, Via::DIRECT, msg, &mut events);
        events
    }

    // ---------------------------------------------------------------
    // Gossip
    // ---------------------------------------------------------------

    /// Fills the gossip buffer for `partner` from the current view.
    fn fill_buffer(&mut self, ctx: &mut Ctx<'_>, partner: NodeId) {
        let skipped = self.view.fill_buffer(
            &mut self.buffer,
            Entry::new(self.id, 0, self.public, &[]),
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

    /// Ships the gossip buffer to `to` with this node's key and the next
    /// batch of descriptor blobs, written straight into a pool buffer.
    fn send_gossip(
        &mut self,
        ctx: &mut Ctx<'_>,
        request: bool,
        to: NodeId,
        to_public: bool,
        route_hint: &[NodeId],
    ) -> SendOutcome {
        // Exactly one batch per message: drawing it advances the cursors.
        let descs = self.descs.next_batch(DESCRIPTOR_GOSSIP);
        let key = self.cfg.key_sampling.then(|| self.keypair.public().wire_bytes());
        let t0 = ctx.prof_enabled().then(Instant::now);
        let len = NylonMsg::gossip_len(&self.buffer, key, &descs);
        let mut wire = ctx.payload_writer(len);
        NylonMsg::put_gossip(&mut wire, request, self.id, self.public, &self.buffer, key, &descs);
        debug_assert_eq!(wire.len(), len, "gossip_len() disagrees with put_gossip()");
        let wire = wire.finish();
        if let Some(t0) = t0 {
            ctx.prof_encode_ns(t0.elapsed().as_nanos() as u64);
        }
        self.transport.send_encoded(ctx, self.id, to, to_public, wire, route_hint)
    }

    fn do_gossip_cycle(&mut self, ctx: &mut Ctx<'_>) {
        self.cycles_run += 1;
        self.view.increment_ages();
        // Stale-peer eviction: entries no refresh has touched for
        // `max_age` cycles belong to dead or unreachable peers — without
        // this, the Π bias keeps re-injecting dead P-nodes into merged
        // views, poisoning gateway selection indefinitely.
        if self.cfg.max_age > 0 {
            let evicted = self.view.evict_older_than(self.cfg.max_age);
            if evicted > 0 {
                ctx.metrics().count("pss.stale_evicted", evicted as u64);
            }
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
            self.send_gossip(ctx, true, partner, partner_entry.public, partner_entry.route());
        if outcome == SendOutcome::Failed {
            ctx.metrics().count(
                if partner_entry.public { "pss.sendfail_removed_public" } else { "pss.sendfail_removed_natted" },
                1,
            );
            self.view.remove(partner);
            return;
        }
        ctx.metrics().count(
            if partner_entry.public { "pss.partner_public" } else { "pss.partner_natted" },
            1,
        );
        self.gossip_gen += 1;
        self.outstanding = Some((partner, self.gossip_gen));
        let timeout = SimDuration::from_micros(CYCLE.as_micros() / 2);
        ctx.set_timer(timeout, TIMER_GOSSIP_TIMEOUT | (self.gossip_gen << 8));
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
    /// carried, or else the key the backlog had for it.
    fn insert_cb(&mut self, node: NodeId, public: bool, key: Option<&[u8]>) {
        let held = self.cb.get(node).and_then(|e| e.key.clone());
        let key = Self::key_from(key, held);
        self.cb.insert(CbEntry { node, public, key }, self.cfg.pi);
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
            .filter(|e| e.public && !self.cb.contains(e.node) && !self.ping_pending.contains_key(&e.node))
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

    /// Passes `msg` on to `next`, the next hop of the chain it travels.
    fn forward(&mut self, ctx: &mut Ctx<'_>, next: NodeId, msg: &NylonMsg) {
        let ep = self.transport.next_hop_ep(ctx, next);
        ctx.send_wire(ep, msg);
    }

    fn handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        outer_from: NodeId,
        outer_ep: Endpoint,
        via: Via<'_>,
        msg: Incoming<'_>,
        events: &mut Vec<NylonEvent>,
    ) {
        match msg {
            Incoming::Gossip(gossip) => self.handle_gossip(ctx, gossip, via, events),
            Incoming::Other(msg) => self.handle_msg(ctx, outer_from, outer_ep, msg, events),
        }
    }

    /// Both halves of a gossip exchange, read from the packet, which came
    /// directly or as the inner message of a relayed one: `via`.
    fn handle_gossip(
        &mut self,
        ctx: &mut Ctx<'_>,
        gossip: GossipView<'_>,
        via: Via<'_>,
        events: &mut Vec<NylonEvent>,
    ) {
        let GossipView { request, sender, sender_public, .. } = gossip;
        // Fold piggybacked blobs into the store; every merged-fresh blob
        // surfaces as a `NylonEvent::Descriptor` for the layer above.
        for (id, version, bytes) in gossip.descs() {
            if self.descs.offer(id, version, bytes) {
                ctx.metrics().count("pss.desc_merged", 1);
                events.push(NylonEvent::Descriptor { id, version, bytes: bytes.to_vec() });
            }
        }
        if request {
            // Build the reply from the *pre-merge* view, as the
            // push-pull exchange prescribes.
            self.fill_buffer(ctx, sender);
            self.merge_gossip(&gossip, via);
            self.send_gossip(ctx, false, sender, sender_public, &[]);
            self.maintain_cb(ctx);
            ctx.metrics().count("pss.gossip_served", 1);
        } else {
            if matches!(self.outstanding, Some((p, _)) if p == sender) {
                self.outstanding = None;
            }
            self.merge_gossip(&gossip, via);
            self.maintain_cb(ctx);
            ctx.metrics().count("pss.gossip_completed", 1);
            events.push(NylonEvent::GossipCompleted { partner: sender });
        }
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
        self.insert_cb(gossip.sender, gossip.sender_public, gossip.key);
    }

    fn handle_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        outer_from: NodeId,
        outer_ep: Endpoint,
        msg: NylonMsg,
        events: &mut Vec<NylonEvent>,
    ) {
        match msg {
            NylonMsg::GossipReq { .. } | NylonMsg::GossipResp { .. } => {
                debug_assert!(false, "Incoming::parse hands gossip to handle_gossip as a view");
            }
            NylonMsg::Relayed { from, remaining, mut path_back, inner } => {
                if let Some((&next, rest)) = remaining.split_first() {
                    // Forward one hop.
                    path_back.push(self.id);
                    let fwd =
                        NylonMsg::Relayed { from, remaining: rest.to_vec(), path_back, inner };
                    self.forward(ctx, next, &fwd);
                    ctx.metrics().count("pss.relayed_forwarded", 1);
                } else {
                    // Final destination: the way the message came, walked
                    // backwards, is a working route to `from` — each relay
                    // holds the contact of the one it took the packet
                    // from. Remember it, then process the inner message
                    // as one `from` sent over it.
                    path_back.reverse();
                    if !path_back.is_empty() {
                        self.transport.note_reply_route(from, path_back.clone(), ctx.now());
                    }
                    let via = Via {
                        relays: &path_back[..path_back.len().saturating_sub(1)],
                        head_public: outer_ep.port == 0,
                    };
                    ctx.metrics().count("pss.relayed_delivered", 1);
                    match Incoming::parse(&inner) {
                        // No honest sender nests (`Transport::send_encoded`
                        // wraps gossip and `App` frames only), and unwrapping
                        // level by level would let one packet, a few
                        // thousand deep, overflow this thread's stack.
                        Some(Incoming::Other(NylonMsg::Relayed { .. })) => {
                            ctx.metrics().count("pss.relayed_nested", 1);
                        }
                        Some(inner_msg) => self.handle(ctx, from, outer_ep, via, inner_msg, events),
                        None => {}
                    }
                }
            }
            NylonMsg::OpenReq {
                requester,
                requester_nat,
                mut requester_ep,
                remaining,
                mut path_back,
            } => {
                // The first relay (receiving straight from the requester)
                // records the externally observed endpoint.
                if requester_ep.is_none() && outer_from == requester {
                    requester_ep = Some(outer_ep);
                }
                if let Some((&next, rest)) = remaining.split_first() {
                    path_back.push(self.id);
                    let fwd = NylonMsg::OpenReq {
                        requester,
                        requester_nat,
                        requester_ep,
                        remaining: rest.to_vec(),
                        path_back,
                    };
                    self.forward(ctx, next, &fwd);
                } else {
                    // We are the target: unless the two NAT types rule it
                    // out, punch towards the requester (with delayed
                    // re-punches — the first probe can race the
                    // requester's own outbound packet through its filter);
                    // either way answer along the reverse path.
                    let nat = ctx.nat_type();
                    if let Some(rep) = requester_ep.filter(|_| can_hole_punch(requester_nat, nat)) {
                        let punch = NylonMsg::Punch { from: self.id };
                        ctx.send_wire(rep, &punch);
                        self.punch_retries.insert(requester, (rep, PUNCH_RETRIES));
                        ctx.set_timer(PUNCH_RETRY_DELAY, TIMER_PUNCH_RETRY | (requester.0 << 8));
                    }
                    path_back.reverse();
                    if let Some((&next, rest)) = path_back.split_first() {
                        let ack = NylonMsg::OpenAck {
                            target: self.id,
                            target_nat: nat,
                            target_ep: None,
                            remaining: rest.to_vec(),
                        };
                        self.forward(ctx, next, &ack);
                    }
                    ctx.metrics().count("pss.open_served", 1);
                }
            }
            NylonMsg::OpenAck { target, target_nat, mut target_ep, remaining } => {
                if target_ep.is_none() && outer_from == target {
                    target_ep = Some(outer_ep);
                }
                if let Some((&next, rest)) = remaining.split_first() {
                    let remaining = rest.to_vec();
                    let fwd = NylonMsg::OpenAck { target, target_nat, target_ep, remaining };
                    self.forward(ctx, next, &fwd);
                } else if self.transport.on_open_ack(ctx, self.id, target, target_nat) {
                    // We are the requester, and the pair can be punched:
                    // punch towards the target's observed endpoint. Any
                    // direct answer (PunchAck or the target's own punch)
                    // establishes the channel.
                    if let Some(tep) = target_ep {
                        // Double punch: encode once, send two clones.
                        let punch = NylonMsg::Punch { from: self.id };
                        let wire = ctx.encode_payload(&punch);
                        ctx.send_to(tep, wire.clone());
                        ctx.send_to(tep, wire);
                    }
                }
            }
            NylonMsg::Punch { .. } => {
                // Contact already recorded by `on_message`; acknowledge so
                // the puncher learns its probe went through.
                let ack = NylonMsg::PunchAck { from: self.id };
                ctx.send_wire(outer_ep, &ack);
            }
            NylonMsg::PunchAck { .. } => {
                // Contact recorded at the outer level; nothing else to do.
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
            NylonMsg::App { from, payload } => {
                events.push(NylonEvent::Payload { from, data: payload });
            }
        }
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
        for event in self.core.on_message(ctx, from, from_ep, data) {
            if matches!(event, NylonEvent::Payload { .. }) {
                self.payloads_received += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = self.core.on_timer(ctx, token);
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
