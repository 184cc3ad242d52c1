//! NAT-resilient message delivery: contact tracking, rendezvous-chain
//! relaying, and the whole hole-punching handshake — both of its ends,
//! their timers and the rule that answers a punch.
//!
//! A node can reach a peer directly when it holds a *fresh contact* — an
//! endpoint it recently received a packet from (replying to a sender
//! always traverses the sender's NAT while the association rule lives).
//! Otherwise it relays messages along the peer's rendezvous chain, or
//! first opens a hole through both NATs with an open request and its
//! acknowledgement, coordinated over that chain. All of these travel as
//! one [`NylonMsg::Chain`] with a different [`ChainBody`]; the node core
//! only forwards it, and hands what reaches its destination here.
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
//! - any other runs the handshake. The handshake carries no NAT type, and
//!   the target punches whenever it is asked, then re-punches
//!   ([`PUNCH_RETRY_DELAY`]) until the requester's first direct packet
//!   arrives, which it answers. The requester's NAT lets no punch in, so
//!   it sends what it queued straight to the endpoint the acknowledgement
//!   names — the queued message is the punch; the peer, which a punch can
//!   reach, is never symmetric. Each message goes out once: what went
//!   directly is not relayed again when the time-out ([`OPEN_TIMEOUT`])
//!   ends an open that got no answer.
//!
//! Whether a punch that is attempted succeeds is decided by the emulated
//! NAT devices, not by this code.

use crate::messages::{ChainBody, NylonMsg};
use crate::timer;
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

/// How long to wait for hole punching before falling back to relayed
/// delivery: what a lost handshake message or punch costs.
pub const OPEN_TIMEOUT: SimDuration = SimDuration::from_millis(800);

/// Validity window for a relayed reverse route.
pub const REPLY_ROUTE_TTL: SimDuration = SimDuration::from_secs(120);

/// How a message was (or was not) handed to the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Sent directly to a known-good endpoint.
    Direct,
    /// Wrapped and forwarded along a relay chain.
    Relayed,
    /// Queued while a hole-punching handshake runs: sent to the endpoint
    /// the acknowledgement names, or to where the peer's first direct
    /// packet came from; relayed on time-out only if it never went
    /// directly.
    Queued,
    /// No contact, no reply route, no usable chain: dropped.
    Failed,
}

/// How a message goes out: [`Transport::plan`]'s decision, which
/// [`Transport::send_with`] carries out.
enum Plan<'a> {
    /// Straight to a fresh contact, or to a public peer's address.
    Direct(Endpoint),
    /// Wrapped, over a fresh reverse route.
    Reply(&'a [NodeId]),
    /// Behind the handshake already running towards the peer.
    Queue,
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
    /// to the peer, or time: wrapped, down the chain, which becomes the
    /// reply route.
    Unpunchable,
    /// From a port-restricted or symmetric node: queued while a
    /// hole-punching handshake runs; it ends in a direct channel or in
    /// the time-out, which relays over the same chain.
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
}

#[derive(Clone, Debug)]
struct PendingOpen {
    /// Relay chain (last element = target) used for the handshake and the
    /// relay fallback.
    chain: Vec<NodeId>,
    /// Serialized inner messages awaiting delivery.
    queued: Vec<Vec<u8>>,
    /// Where the queue was sent when the acknowledgement came, if it has:
    /// a direct packet from there completes the open without sending it
    /// again.
    sent_to: Option<Endpoint>,
}

/// How many delayed re-punches a target sends. Real hole punching repeats
/// its probes: the first punch can be filtered if it beats the other
/// side's own outbound packet (e.g. symmetric → restricted-cone), while a
/// later one passes.
const PUNCH_RETRIES: u8 = 2;

/// The spacing of a target's delayed re-punches.
pub const PUNCH_RETRY_DELAY: SimDuration = SimDuration::from_millis(250);

/// What a direct packet is to the rule that answers the packet ending a
/// target's punching ([`Transport::on_direct_packet`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// A [`NylonMsg::Punch`].
    Punch,
    /// A [`NylonMsg::PunchAck`], or a gossip request, which its response
    /// answers.
    Answered,
    /// Anything else.
    Other,
}

/// The per-node transport state.
#[derive(Debug, Default)]
pub struct Transport {
    /// Where each NATted peer's packets last came from.
    contacts: Expiring<Endpoint>,
    reply_routes: Expiring<Vec<NodeId>>,
    /// The opens this node requested, by target.
    opens: HashMap<NodeId, PendingOpen>,
    /// The requesters whose open this node served: where to re-punch each
    /// and how many re-punches are left. An entry lives until the first
    /// direct packet from its requester, which it has answered, or until
    /// [`OPEN_TIMEOUT`] after the request.
    punching: HashMap<NodeId, (Endpoint, u8)>,
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
    /// buffer ([`Ctx::payload_writer`]), told whether it travels as a
    /// [`ChainBody::Relayed`] — a body whose relays, and whose destination,
    /// have no use for the sender's key. A direct send hands that buffer to
    /// the network as it is, with no further copy; relaying or queueing
    /// copies the bytes into the wrapper that needs them and hands the
    /// buffer back to the pool.
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
        let wire = encode(ctx, matches!(plan, Plan::Reply(_) | Plan::Relay | Plan::Unpunchable));
        let chain = || [route_hint, &[to]].concat();
        match plan {
            Plan::Direct(ep) => {
                ctx.send_to(ep, wire);
                SendOutcome::Direct
            }
            Plan::Reply(route) => {
                let inner = unpooled(ctx, wire);
                self.send_chain(ctx, route, ChainBody::Relayed(inner));
                ctx.metrics().count("pss.relayed_sent", 1);
                SendOutcome::Relayed
            }
            Plan::Queue => {
                let inner = unpooled(ctx, wire);
                if let Some(open) = self.opens.get_mut(&to) {
                    if let Some(ep) = open.sent_to {
                        ctx.send_to(ep, inner.clone());
                    }
                    open.queued.push(inner);
                }
                SendOutcome::Queued
            }
            Plan::Relay => {
                let inner = unpooled(ctx, wire);
                self.send_chain(ctx, &chain(), ChainBody::Relayed(inner));
                ctx.metrics().count("pss.relayed_sent", 1);
                SendOutcome::Relayed
            }
            Plan::Contact { punch } => {
                let inner = unpooled(ctx, wire);
                if punch {
                    ctx.send_wire(Endpoint::public(to), &NylonMsg::Punch { from: ctx.id() });
                }
                let chain = chain();
                self.send_chain(ctx, &chain, ChainBody::Contact(None, inner));
                ctx.metrics().count("pss.contact_sent", 1);
                // Until the peer's answer leaves a contact, the chain is
                // the way back to it: what follows, or a retry after a
                // lost first contact, goes over it as a `Relayed`.
                self.note_reply_route(to, chain, ctx.now());
                SendOutcome::Relayed
            }
            Plan::Unpunchable => {
                let inner = unpooled(ctx, wire);
                self.relay_over(ctx, to, chain(), [inner], "pss.open_unpunchable");
                SendOutcome::Relayed
            }
            Plan::Open => {
                let (inner, chain) = (unpooled(ctx, wire), chain());
                self.send_chain(ctx, &chain, ChainBody::OpenReq(None));
                ctx.metrics().count("pss.open_started", 1);
                self.opens.insert(to, PendingOpen { chain, queued: vec![inner], sent_to: None });
                ctx.set_timer(OPEN_TIMEOUT, timer::token(timer::OPEN_TIMEOUT, to.0));
                SendOutcome::Queued
            }
            Plan::Fail => {
                ctx.recycle(wire);
                ctx.metrics().count("pss.send_failed", 1);
                SendOutcome::Failed
            }
        }
    }

    /// The way a message to `to` goes: the transport's one routing
    /// decision, read before the message is written.
    fn plan(&self, ctx: &Ctx<'_>, to: NodeId, to_nat: Option<NatType>, route_hint: &[NodeId]) -> Plan<'_> {
        let now = ctx.now();
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
        if self.opens.contains_key(&to) {
            return Plan::Queue;
        }
        match ctx.nat_type() {
            NatType::Public => Plan::Relay,
            nat @ (NatType::FullCone | NatType::RestrictedCone) => {
                Plan::Contact { punch: nat == NatType::RestrictedCone }
            }
            nat if opens(nat, to, to_nat) => Plan::Open,
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

    /// Counts `why`, relays `messages` over `chain`, which ends in `peer`
    /// and so is never empty, and keeps the chain as the reply route to
    /// `peer`: what follows takes it and starts no handshake.
    fn relay_over(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: NodeId,
        chain: Vec<NodeId>,
        messages: impl IntoIterator<Item = Vec<u8>>,
        why: &'static str,
    ) {
        ctx.metrics().count(why, 1);
        for inner in messages {
            self.send_chain(ctx, &chain, ChainBody::Relayed(inner));
        }
        self.note_reply_route(peer, chain, ctx.now());
    }

    /// Handles a transport timer; any other token is ignored.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let peer = NodeId(timer::payload(token));
        match timer::kind(token) {
            timer::OPEN_TIMEOUT => self.on_open_timeout(ctx, peer),
            timer::PUNCH_RETRY => self.on_punch_retry(ctx, peer),
            _ => {}
        }
    }

    /// The open towards `peer` timed out: a punch that should have worked
    /// did not, within [`OPEN_TIMEOUT`], and the chain takes over. What
    /// was queued is relayed (`pss.open_relay_fallback`) — unless it went
    /// to the endpoint the acknowledgement named, and what was queued
    /// after it followed it there: then it went once, as any direct send,
    /// and only the peer's answer is missing (`pss.open_unanswered`).
    fn on_open_timeout(&mut self, ctx: &mut Ctx<'_>, peer: NodeId) {
        let Some(open) = self.opens.remove(&peer) else {
            return; // handshake completed in time
        };
        if open.sent_to.is_some() {
            self.relay_over(ctx, peer, open.chain, [], "pss.open_unanswered");
        } else {
            self.relay_over(ctx, peer, open.chain, open.queued, "pss.open_relay_fallback");
        }
    }

    /// A re-punch towards the requester `peer` is due; the timer after the
    /// last one, due [`OPEN_TIMEOUT`] after the request, ends the wait for
    /// the requester's first direct packet.
    fn on_punch_retry(&mut self, ctx: &mut Ctx<'_>, peer: NodeId) {
        let entry = self.punching.remove(&peer);
        if let Some((ep, left)) = entry.filter(|&(_, left)| left > 0) {
            ctx.send_wire(ep, &NylonMsg::Punch { from: ctx.id() });
            self.punching.insert(peer, (ep, left - 1));
            let last = OPEN_TIMEOUT - PUNCH_RETRY_DELAY * u64::from(PUNCH_RETRIES);
            let next = if left > 1 { PUNCH_RETRY_DELAY } else { last };
            ctx.set_timer(next, timer::token(timer::PUNCH_RETRY, peer.0));
        }
    }

    /// This node is the target of an open request that took the hops
    /// `taken` (requester first) and, if the first hop stamped it, saw the
    /// requester at `requester_ep`. The requester asks only where a punch
    /// can work: punch towards it, with delayed re-punches — the first
    /// probe can race the requester's own outbound packet through its
    /// filter — and answer back along the hops taken.
    pub(crate) fn on_open_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut taken: Vec<NodeId>,
        requester_ep: Option<Endpoint>,
    ) {
        // A requester id no timer token holds, which no node has, is forged:
        // it gets its answer, and no punches to time.
        if let Some(ep) = requester_ep.filter(|_| taken[0].0 < timer::PAYLOAD_BOUND) {
            ctx.send_wire(ep, &NylonMsg::Punch { from: ctx.id() });
            self.punching.insert(taken[0], (ep, PUNCH_RETRIES));
            ctx.set_timer(PUNCH_RETRY_DELAY, timer::token(timer::PUNCH_RETRY, taken[0].0));
        }
        taken.reverse();
        self.send_chain(ctx, &taken, ChainBody::OpenAck(None));
        ctx.metrics().count("pss.open_served", 1);
    }

    /// Handles the acknowledgement of the open request sent to `peer`,
    /// which the chain's last hop saw at `peer_ep`. An open that has
    /// completed needs nothing. Otherwise the queued messages are the
    /// punch: they go to `peer_ep`, through the hole the peer's own punch
    /// opened in its NAT, and the open waits for the peer's direct answer.
    /// A requester runs the handshake only towards a peer it can punch,
    /// never a symmetric one: the peer's NAT keeps one mapping for every
    /// destination, so `peer_ep` is where its punch left from.
    pub fn on_open_ack(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, peer_ep: Option<Endpoint>) {
        let Some(open) = self.opens.get_mut(&peer).filter(|open| open.sent_to.is_none()) else {
            return;
        };
        if let Some(ep) = peer_ep {
            for inner in &open.queued {
                ctx.send_to(ep, inner.clone());
            }
            open.sent_to = Some(ep);
        }
    }

    /// A packet came straight from `from` at `from_ep`: it proves a
    /// working return path, completes a pending open towards `from` — its
    /// queue goes to `from_ep` unless it went there already — and ends
    /// our punching towards it. The packet that ends our punching is
    /// answered directly, so that its sender's open ends on a direct
    /// packet: a gossip request by the response, anything else but a
    /// `PunchAck` by one `PunchAck`. A punch is answered unless it
    /// completed our own open: our queue went or goes to the puncher, and
    /// that answers it.
    pub(crate) fn on_direct_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        arrival: Arrival,
    ) {
        self.note_contact(from, from_ep, ctx.now());
        // Called for every direct packet, and there is rarely a handshake
        // in flight: an empty map is not worth hashing into.
        let open = if self.opens.is_empty() { None } else { self.opens.remove(&from) };
        let opened = open.is_some();
        if let Some(open) = open {
            ctx.metrics().count("pss.open_punch_ok", 1);
            if open.sent_to != Some(from_ep) {
                for inner in open.queued {
                    ctx.send_to(from_ep, inner);
                }
            }
        }
        let ended = !self.punching.is_empty() && self.punching.remove(&from).is_some();
        let answer = match arrival {
            Arrival::Punch => !opened,
            Arrival::Answered => false,
            Arrival::Other => ended,
        };
        if answer {
            ctx.send_wire(from_ep, &NylonMsg::PunchAck { from: ctx.id() });
        }
    }
}

/// Whether a node behind `nat` with no contact for `to` opens a hole
/// towards it rather than relay: it is port-restricted or symmetric and a
/// punch can work against `to_nat` (a peer of no stated type is taken to
/// be symmetric) — and can be timed, which it cannot for an id no timer
/// token holds: no node has one, so a forged view entry's.
fn opens(nat: NatType, to: NodeId, to_nat: Option<NatType>) -> bool {
    matches!(nat, NatType::PortRestrictedCone | NatType::Symmetric)
        && can_hole_punch(nat, to_nat.unwrap_or(NatType::Symmetric))
        && to.0 < timer::PAYLOAD_BOUND
}

/// The bytes of `wire` as the `Vec` a relayed wrapper or the hole-punch
/// queue holds; the buffer goes back, or the pool is a buffer short.
fn unpooled(ctx: &mut Ctx<'_>, wire: Payload) -> Vec<u8> {
    let inner = wire.to_vec();
    ctx.recycle(wire);
    inner
}

#[cfg(test)]
mod tests {
    use super::*;

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
