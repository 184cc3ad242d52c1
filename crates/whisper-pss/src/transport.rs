//! NAT-resilient message delivery: contact tracking, rendezvous-chain
//! relaying, and the whole hole-punching handshake — both of its ends.
//!
//! A node can reach a peer directly when it holds a *fresh contact* — an
//! endpoint it recently received a packet from (replying to a sender
//! always traverses the sender's NAT while the association rule lives).
//! Otherwise it relays messages along the peer's rendezvous chain, whose
//! first message to a stranger asks, where it can, for the way to a direct
//! channel. All of these travel as one [`NylonMsg::Chain`] with a different
//! [`ChainBody`]; the node core only forwards it, and hands what reaches
//! its destination here.
//!
//! How a message travels is decided in one place, `Transport::plan`,
//! before the message is written — a relayed one carries no key. A first
//! message to a stranger goes by the requester's own NAT type and — for
//! a handshake only — the one its view entry gives the peer (a send that
//! names no type takes the peer to be symmetric):
//! - a public node has no NAT to open: the chain carries the message, and
//!   the peer answers to its public address;
//! - a node behind a cone NAT (full or restricted) keeps one mapping for
//!   every destination: the chain carries the message with the endpoint
//!   its first hop saw it at ([`ChainBody::Contact`]), the peer takes that
//!   for its contact — unless it holds one: a stamp never replaces a
//!   contact — and answers there directly, and the answer opens the
//!   channel both ways. A restricted-cone node first sends the peer one
//!   `Punch`, which opens its own filter to any port of the peer's host;
//! - a port-restricted or symmetric node whose NAT and the peer's cannot
//!   be punched ([`can_hole_punch`]) relays at once;
//! - any other runs the handshake, which carries the message that starts
//!   it ([`ChainBody::OpenReq`]). Its NAT lets no punch in before its own
//!   packet to the peer, and that can only follow the answer: the peer
//!   punches the endpoint the first hop stamped once — lost, but it
//!   leaves the peer's NAT a rule for the requester — and its answer rides
//!   back over the chain in the [`ChainBody::OpenAck`], with the endpoint
//!   the first hop back saw the peer at. The requester sends that endpoint
//!   one keyed `Punch`, which the peer's rule lets in and answers with a
//!   keyed `PunchAck`: the direct channel opens behind the exchange, and
//!   the `PunchAck`, a direct packet, leaves the peer's contact. The peer,
//!   which a punch can reach, is never symmetric, so that endpoint is
//!   where its punch left from. The endpoint is never taken for the
//!   contact itself — any hop of the chain can forge an acknowledgement
//!   that names one. Nothing is timed: until a `PunchAck` comes, or if
//!   the acknowledgement is lost, the chain is the way to the peer.
//!
//! Whether a punch that is attempted succeeds is decided by the emulated
//! NAT devices, not by this code.

use crate::messages::{ChainBody, NylonMsg};
use std::collections::HashMap;
use whisper_net::nat::{can_hole_punch, NatType};
use whisper_net::sim::Ctx;
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};

/// Validity window for a learned contact. Kept below the (TCP-style) NAT
/// association lease so we never use an endpoint whose association rule
/// is about to expire. The simulator's lease
/// ([`whisper_net::sim::NAT_LEASE`]) is 2 hours; real Cisco TCP leases
/// are 24 hours (paper §II-C).
pub const CONTACT_TTL: SimDuration = SimDuration::from_secs(5760);

/// Validity window for a relayed reverse route, and for an open request
/// that waits for its acknowledgement.
pub const REPLY_ROUTE_TTL: SimDuration = SimDuration::from_secs(120);

/// How a message was (or was not) handed to the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Sent directly to a known-good endpoint.
    Direct,
    /// Wrapped and forwarded along a relay chain.
    Relayed,
    /// No contact, no reply route, no usable chain: dropped.
    Failed,
}

/// How a message goes out: [`Transport::plan`]'s decision, which
/// [`Transport::send_with`] carries out.
enum Plan<'a> {
    /// Straight to a fresh contact, or to a public peer's address.
    Direct(Endpoint),
    /// To the requester whose open request this node is handling: the
    /// answer, as the [`ChainBody::OpenAck`]'s image, over the hops the
    /// request took, reversed.
    Ack(&'a [NodeId]),
    /// Wrapped, over a fresh reverse route.
    Reply(&'a [NodeId]),
    /// From a public node, which has no NAT to open: wrapped, down the
    /// rendezvous chain; the peer answers to its public address.
    Relay,
    /// From a cone-NATted node, whose NAT keeps one mapping for every
    /// destination: down the chain as a [`ChainBody::Contact`], which the
    /// peer answers at the endpoint the first hop saw — at once through
    /// a full cone, and through a restricted one, which admits any port
    /// of a host it has sent to, after one `Punch` towards the peer. The
    /// chain becomes the reply route until the answer leaves a contact.
    Contact { punch: bool },
    /// From a port-restricted or symmetric node that no punch can join
    /// to the peer: wrapped, down the chain, which becomes the reply
    /// route.
    Unpunchable,
    /// From a port-restricted or symmetric node that a punch can join to
    /// the peer: down the chain as a [`ChainBody::OpenReq`], which the
    /// peer answers over the chain and which opens the direct channel
    /// behind that answer. The chain becomes the reply route until then.
    Open,
    /// No contact, no reply route, no chain: dropped.
    Fail,
}

/// A per-peer table of values with an expiry time each. A lookup never
/// returns an expired value; expired entries are dropped in one sweep
/// whenever the table has doubled since the last one, so it holds at most
/// twice the peers heard from within the time to live, at amortised
/// constant cost per insertion.
#[derive(Debug)]
struct Expiring<V> {
    map: HashMap<NodeId, (V, SimTime)>,
    /// Size at which the next sweep runs.
    sweep_at: usize,
}

impl<V> Default for Expiring<V> {
    fn default() -> Self {
        Expiring { map: HashMap::new(), sweep_at: Self::FIRST_SWEEP }
    }
}

impl<V> Expiring<V> {
    const FIRST_SWEEP: usize = 16;

    fn insert(&mut self, peer: NodeId, value: V, expires: SimTime, now: SimTime) {
        self.map.insert(peer, (value, expires));
        if self.map.len() >= self.sweep_at {
            self.map.retain(|_, (_, expires)| *expires > now);
            self.sweep_at = (2 * self.map.len()).max(Self::FIRST_SWEEP);
        }
    }

    fn get(&self, peer: NodeId, now: SimTime) -> Option<&V> {
        self.map.get(&peer).filter(|(_, expires)| *expires > now).map(|(value, _)| value)
    }

    /// Removes `peer`'s value; returns it if it had not expired.
    fn take(&mut self, peer: NodeId, now: SimTime) -> Option<V> {
        self.map.remove(&peer).filter(|(_, expires)| *expires > now).map(|(value, _)| value)
    }
}

/// The per-node transport state.
#[derive(Debug, Default)]
pub struct Transport {
    /// Where each NATted peer's packets last came from.
    contacts: Expiring<Endpoint>,
    reply_routes: Expiring<Vec<NodeId>>,
    /// The peers this node sent an open request, for as long as the
    /// request's chain is their reply route, by how far the open got.
    opens: Expiring<Open>,
    /// The requester whose open request this node is handling: the first
    /// message to it is the answer the [`ChainBody::OpenAck`] carries,
    /// over the reply route the request left.
    answering: Option<NodeId>,
}

/// How far an open this node started got.
#[derive(Debug, PartialEq, Eq)]
enum Open {
    /// The request is out; its acknowledgement has not come.
    Requested,
    /// The acknowledgement came and this node's `Punch` is out; the
    /// peer's `PunchAck` has not come. Holds what of the answer waits for
    /// it.
    Punched(Vec<u8>),
}

impl Transport {
    /// Creates empty transport state.
    pub fn new() -> Self {
        Transport::default()
    }

    /// Records that a packet was just received from `peer` at `ep`:
    /// replying to that endpoint will traverse `peer`'s NAT while the
    /// association lives.
    ///
    /// Only a NATted sender needs the record. A public host's packets
    /// leave from port 0, so its contact would be
    /// [`Endpoint::public`]`(peer)` — the address every sender falls back
    /// to for a peer its directory marks public, with or without one.
    pub fn note_contact(&mut self, peer: NodeId, ep: Endpoint, now: SimTime) {
        if ep.port != 0 {
            self.contacts.insert(peer, ep, now + CONTACT_TTL, now);
        }
    }

    /// Where to answer a first contact from `peer` that its first hop saw
    /// at `stamp`: the fresh contact already held for `peer`, or else
    /// `stamp`, which becomes it. A stamp never replaces a contact: only
    /// the hops the message names vouch for it, and any node can name
    /// itself the first hop of a message it forged. An honest origin
    /// loses nothing: its cone NAT keeps one mapping for every
    /// destination, so its stamp is the contact already held.
    pub(crate) fn contact_or_stamp(&mut self, peer: NodeId, stamp: Endpoint, now: SimTime) -> Endpoint {
        self.contact(peer, now).unwrap_or_else(|| {
            self.note_contact(peer, stamp, now);
            stamp
        })
    }

    /// Records a working relayed route to `origin` (relays first, then
    /// `origin` itself), learned from a relayed message's hops taken.
    pub fn note_reply_route(&mut self, origin: NodeId, route: Vec<NodeId>, now: SimTime) {
        self.reply_routes.insert(origin, route, now + REPLY_ROUTE_TTL, now);
    }

    /// The fresh endpoint recorded for the NATted `peer`, if any.
    pub fn contact(&self, peer: NodeId, now: SimTime) -> Option<Endpoint> {
        self.contacts.get(peer, now).copied()
    }

    /// Whether a direct send to `peer` is currently possible.
    pub fn can_reach_directly(&self, peer: NodeId, peer_public: bool, now: SimTime) -> bool {
        peer_public || self.contact(peer, now).is_some()
    }

    /// Where to send what goes to `next`, a hop of a rendezvous chain or
    /// of a relayed message's way back: its contact, or — none is kept
    /// for a public hop — its public address, counted as
    /// `pss.fwd_no_contact`. Over a valid chain only a P-node is ever
    /// addressed that way; a NATted one drops the packet at its NAT.
    pub fn next_hop_ep(&self, ctx: &mut Ctx<'_>, next: NodeId) -> Endpoint {
        self.contact(next, ctx.now()).unwrap_or_else(|| {
            ctx.metrics().count("pss.fwd_no_contact", 1);
            Endpoint::public(next)
        })
    }

    /// Sends a message to `to` using the best available mechanism, written
    /// once the way it goes is known: `encode` writes it into a pool
    /// buffer ([`Ctx::payload_writer`]), told whether it travels relayed —
    /// as a body whose relays, and whose destination, have no use for the
    /// sender's key. A direct send hands that buffer to the network as it
    /// is, with no further copy; relaying copies the bytes into the
    /// wrapper that needs them and hands the buffer back to the pool.
    ///
    /// * `to_nat` — the peer's NAT type as the caller's directory entry
    ///   gives it; `None` for a NATted peer of unknown type, taken to be
    ///   [`NatType::Symmetric`], the type that promises least;
    /// * `route_hint` — rendezvous chain from a view entry (first element
    ///   must be a node we can reach), used for relaying / punching.
    ///
    /// Returns how the message travelled.
    pub(crate) fn send_with(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: NodeId,
        to_nat: Option<NatType>,
        route_hint: &[NodeId],
        encode: impl FnOnce(&mut Ctx<'_>, bool) -> Payload,
    ) -> SendOutcome {
        let plan = self.plan(ctx, to, to_nat, route_hint);
        let relayed = matches!(plan, Plan::Ack(_) | Plan::Reply(_) | Plan::Relay | Plan::Unpunchable | Plan::Open);
        let wire = encode(ctx, relayed);
        let chain = || [route_hint, &[to]].concat();
        match plan {
            Plan::Direct(ep) => {
                ctx.send_to(ep, wire);
                return SendOutcome::Direct;
            }
            Plan::Ack(route) => {
                let inner = unpooled(ctx, wire);
                self.send_chain(ctx, route, ChainBody::OpenAck(None, inner));
                self.answering = None;
            }
            Plan::Reply(route) => {
                let inner = unpooled(ctx, wire);
                self.send_chain(ctx, route, ChainBody::Relayed(inner));
                ctx.metrics().count("pss.relayed_sent", 1);
            }
            Plan::Relay => {
                let inner = unpooled(ctx, wire);
                self.send_chain(ctx, &chain(), ChainBody::Relayed(inner));
                ctx.metrics().count("pss.relayed_sent", 1);
            }
            Plan::Contact { punch } => {
                let inner = unpooled(ctx, wire);
                if punch {
                    ctx.send_wire(Endpoint::public(to), &NylonMsg::Punch { from: ctx.id(), key: None });
                }
                self.first_over(ctx, to, chain(), ChainBody::Contact(None, inner), "pss.contact_sent");
            }
            Plan::Unpunchable => {
                let inner = unpooled(ctx, wire);
                self.first_over(ctx, to, chain(), ChainBody::Relayed(inner), "pss.open_unpunchable");
            }
            Plan::Open => {
                let inner = unpooled(ctx, wire);
                self.opens.insert(to, Open::Requested, ctx.now() + REPLY_ROUTE_TTL, ctx.now());
                self.first_over(ctx, to, chain(), ChainBody::OpenReq(None, inner), "pss.open_started");
            }
            Plan::Fail => {
                ctx.recycle(wire);
                ctx.metrics().count("pss.send_failed", 1);
                return SendOutcome::Failed;
            }
        }
        SendOutcome::Relayed
    }

    /// The way a message to `to` goes: the transport's one routing
    /// decision, read before the message is written.
    fn plan(&self, ctx: &Ctx<'_>, to: NodeId, to_nat: Option<NatType>, route_hint: &[NodeId]) -> Plan<'_> {
        let now = ctx.now();
        // 0. The answer to the open request being handled.
        if let Some(route) = self.answering.filter(|&r| r == to).and_then(|r| self.reply_routes.get(r, now)) {
            return Plan::Ack(route);
        }
        // 1. Fresh direct contact (a NATted peer whose association towards
        //    us is open); 2. public peer: always addressable.
        let to_public = to_nat.is_some_and(NatType::is_public);
        if let Some(ep) = self.contact(to, now).or(to_public.then_some(Endpoint::public(to))) {
            return Plan::Direct(ep);
        }
        // 3. Fresh relayed reverse route.
        if let Some(route) = self.reply_routes.get(to, now).filter(|r| !r.is_empty()) {
            return Plan::Reply(route);
        }
        // 4. Rendezvous chain.
        if route_hint.is_empty() {
            return Plan::Fail;
        }
        match ctx.nat_type() {
            NatType::Public => Plan::Relay,
            nat @ (NatType::FullCone | NatType::RestrictedCone) => {
                Plan::Contact { punch: nat == NatType::RestrictedCone }
            }
            nat if can_hole_punch(nat, to_nat.unwrap_or(NatType::Symmetric)) => Plan::Open,
            _ => Plan::Unpunchable,
        }
    }

    /// Sends `body` from this node along the non-empty `route` (relays
    /// first, destination last).
    fn send_chain(&self, ctx: &mut Ctx<'_>, route: &[NodeId], body: ChainBody) {
        let msg = NylonMsg::Chain { remaining: route[1..].to_vec(), taken: vec![ctx.id()], body };
        let ep = self.next_hop_ep(ctx, route[0]);
        ctx.send_wire(ep, &msg);
    }

    /// Counts `why` and sends `body`, a first message to `peer`, over
    /// `chain`, which ends in `peer` and so is never empty; the chain is
    /// the way to `peer` until its answer leaves a contact: what follows,
    /// or a retry after a lost answer, goes over it as a `Relayed`.
    fn first_over(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: NodeId,
        chain: Vec<NodeId>,
        body: ChainBody,
        why: &'static str,
    ) {
        ctx.metrics().count(why, 1);
        self.send_chain(ctx, &chain, body);
        self.note_reply_route(peer, chain, ctx.now());
    }

    /// This node is the target of an open request from `requester`,
    /// whose first hop, if it stamped the request, saw the requester at
    /// `requester_ep`. The requester asks only where a punch can work, and
    /// its NAT lets none in before its own packet to us, which follows our
    /// answer: punch once — lost, but it leaves our NAT the rule that lets
    /// the requester's `Punch` in. The caller handles the request's
    /// message as a relayed one, whose hops back become the reply route
    /// the answer takes as the [`ChainBody::OpenAck`]'s image, then calls
    /// [`Transport::end_open_req`].
    pub(crate) fn on_open_req(&mut self, ctx: &mut Ctx<'_>, requester: NodeId, requester_ep: Option<Endpoint>) {
        if let Some(ep) = requester_ep {
            ctx.send_wire(ep, &NylonMsg::Punch { from: ctx.id(), key: None });
        }
        self.answering = Some(requester);
        ctx.metrics().count("pss.open_served", 1);
    }

    /// Ends the handling of an open request: a message that got no answer
    /// (an application frame) gets an empty [`ChainBody::OpenAck`].
    pub(crate) fn end_open_req(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if let Some(route) = self.answering.take().and_then(|requester| self.reply_routes.get(requester, now)) {
            self.send_chain(ctx, route, ChainBody::OpenAck(None, Vec::new()));
        }
    }

    /// The acknowledgement of an open request came back from `peer`, and
    /// the first hop back saw it at `peer_ep`. If this node waits for it,
    /// one `Punch` carrying `key` goes to `peer_ep`, through the rule the
    /// peer's own punch left, `held` waits for the peer's `PunchAck`, and
    /// this returns `true`: the answer inside is the peer's. The peer is
    /// never symmetric — a requester runs the handshake only towards a
    /// peer it can punch — so its NAT keeps one mapping for every
    /// destination, and `peer_ep` is where its punch left from. `peer_ep`
    /// is not taken for the peer's contact: only the hops the
    /// acknowledgement names vouch for it, and any hop of the chain can
    /// forge one that names itself the first. The peer's `PunchAck`, a
    /// direct packet, leaves the contact ([`Transport::on_punch_ack`]). An
    /// acknowledgement of no open this node waits for, or with no
    /// endpoint, returns `false`: it plants nothing and sends nothing.
    pub(crate) fn on_open_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: NodeId,
        peer_ep: Option<Endpoint>,
        key: Option<Vec<u8>>,
        held: Vec<u8>,
    ) -> bool {
        let now = ctx.now();
        let Some(ep) = peer_ep.filter(|_| self.opens.get(peer, now) == Some(&Open::Requested)) else {
            return false;
        };
        self.opens.insert(peer, Open::Punched(held), now + REPLY_ROUTE_TTL, now);
        ctx.send_wire(ep, &NylonMsg::Punch { from: ctx.id(), key });
        true
    }

    /// A `PunchAck` came from `peer`. If it answers the `Punch` of an open
    /// this node started, that open ends and this returns what of its
    /// answer was held for it. Only one that came straight from the peer,
    /// which leaves its contact, can: a hop of the chain can relay one in
    /// the peer's name.
    pub(crate) fn on_punch_ack(&mut self, peer: NodeId, now: SimTime) -> Option<Vec<u8>> {
        if self.contact(peer, now).is_none() || !matches!(self.opens.get(peer, now), Some(Open::Punched(_))) {
            return None;
        }
        match self.opens.take(peer, now) {
            Some(Open::Punched(held)) => Some(held),
            _ => None,
        }
    }
}

/// The bytes of `wire` as the `Vec` a relayed wrapper holds; the buffer
/// goes back, or the pool is a buffer short.
fn unpooled(ctx: &mut Ctx<'_>, wire: Payload) -> Vec<u8> {
    let inner = wire.to_vec();
    ctx.recycle(wire);
    inner
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_net::sim::{Protocol, Sim, SimConfig};

    /// A host whose transport the test drives.
    struct Sender(Transport);

    impl Protocol for Sender {
        fn on_start(&mut self, _: &mut Ctx<'_>) {}
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A port-restricted node opens towards one new peer a second, over a
    /// rendezvous node that does not exist, so no acknowledgement ever
    /// comes: the opens waiting for one stay within twice those started in
    /// the time an open waits, as the other tables do.
    #[test]
    fn the_open_table_stays_bounded_when_no_acknowledgement_comes() {
        let mut sim = Sim::new(SimConfig::ideal(1));
        let id = sim.add_node(Box::new(Sender(Transport::new())), NatType::PortRestrictedCone);
        let ttl = REPLY_ROUTE_TTL.as_secs();
        for s in 0..5 * ttl {
            sim.with_node_ctx::<Sender>(id, |sender, ctx| {
                let peer = NodeId(1_000 + s);
                let app = |ctx: &mut Ctx<'_>, _| ctx.encode_payload(&NylonMsg::App { payload: vec![] });
                let outcome = sender.0.send_with(ctx, peer, Some(NatType::FullCone), &[NodeId(999)], app);
                assert_eq!(outcome, SendOutcome::Relayed);
            });
            sim.run_for_secs(1);
            let waiting = sim.node::<Sender>(id).unwrap().0.opens.map.len() as u64;
            assert!(waiting <= 2 * ttl + 2, "{waiting} opens held at {s} s");
        }
        assert_eq!(sim.metrics().counter("pss.open_started"), 5 * ttl);
    }

    #[test]
    fn contacts_expire() {
        let mut t = Transport::new();
        let ep = Endpoint { node: NodeId(2), port: 7 };
        t.note_contact(NodeId(2), ep, SimTime::ZERO);
        assert_eq!(t.contact(NodeId(2), SimTime::ZERO), Some(ep));
        let late = SimTime::ZERO + CONTACT_TTL + SimDuration::from_secs(1);
        assert_eq!(t.contact(NodeId(2), late), None);
    }

    #[test]
    fn can_reach_directly_logic() {
        let mut t = Transport::new();
        assert!(t.can_reach_directly(NodeId(5), true, SimTime::ZERO), "public");
        assert!(!t.can_reach_directly(NodeId(5), false, SimTime::ZERO));
        t.note_contact(NodeId(5), Endpoint { node: NodeId(5), port: 3 }, SimTime::ZERO);
        assert!(t.can_reach_directly(NodeId(5), false, SimTime::ZERO));
    }

    #[test]
    fn only_natted_senders_leave_a_contact() {
        let mut t = Transport::new();
        t.note_contact(NodeId(5), Endpoint::public(NodeId(5)), SimTime::ZERO);
        assert_eq!(t.contact(NodeId(5), SimTime::ZERO), None);
        assert!(t.contacts.map.is_empty());
        assert!(t.can_reach_directly(NodeId(5), true, SimTime::ZERO), "its directory entry says so");
    }

    #[test]
    fn expired_entries_are_swept_as_the_table_doubles() {
        let mut t = Transport::new();
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        // One new NATted peer a second, far more than are ever live.
        let ttl = REPLY_ROUTE_TTL.as_secs();
        for s in 0..20 * ttl {
            t.note_reply_route(NodeId(s), vec![NodeId(1), NodeId(s)], at(s));
            assert!(t.reply_routes.map.len() as u64 <= 2 * ttl + 2, "at {s} s");
            if s >= 1 {
                assert!(t.reply_routes.get(NodeId(s - 1), at(s)).is_some(), "live entries survive");
            }
        }
        for s in 0..3 * CONTACT_TTL.as_secs() {
            t.note_contact(NodeId(s), Endpoint { node: NodeId(s), port: 7 }, at(s));
        }
        assert!(t.contacts.map.len() as u64 <= 2 * CONTACT_TTL.as_secs() + 2);
        let now = at(3 * CONTACT_TTL.as_secs());
        assert_eq!(t.contact(NodeId(0), now), None);
        assert!(t.contact(NodeId(3 * CONTACT_TTL.as_secs() - 1), now).is_some());
    }
}
