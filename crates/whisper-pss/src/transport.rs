//! NAT-resilient message delivery: contact tracking, rendezvous-chain
//! relaying, and the hole-punching state machine.
//!
//! A node can reach a peer directly when it holds a *fresh contact* — an
//! endpoint it recently received a packet from (replying to a sender
//! always traverses the sender's NAT while the association rule lives).
//! Otherwise it either relays messages along the peer's rendezvous chain
//! or first attempts to punch a hole through both NATs via an
//! `OpenReq`/`OpenAck`/`Punch` handshake coordinated over that chain.
//! The handshake runs only where it can achieve something: a public
//! node has no NAT to open, so it relays at once and the peer answers it
//! directly; and the two ends tell each other their NAT types, so a pair
//! that cannot be punched ([`can_hole_punch`]) is relayed as soon as the
//! acknowledgement arrives. Whether a punch that is attempted succeeds
//! is decided by the emulated NAT devices, not by this code.

use crate::messages::NylonMsg;
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
    /// Queued while a hole-punching handshake runs; will be flushed
    /// directly on success or relayed on timeout.
    Queued,
    /// No contact, no reply route, no usable chain: dropped.
    Failed,
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
}

/// Timer token kinds used by the transport (low byte of the token).
pub const TIMER_OPEN_TIMEOUT: u64 = 3;

/// Packs an open-timeout token for `peer`.
pub fn open_timeout_token(peer: NodeId) -> u64 {
    TIMER_OPEN_TIMEOUT | (peer.0 << 8)
}

/// Recovers the peer from an open-timeout token.
pub fn peer_of_token(token: u64) -> NodeId {
    NodeId(token >> 8)
}

/// The per-node transport state.
#[derive(Debug, Default)]
pub struct Transport {
    /// Where each NATted peer's packets last came from.
    contacts: Expiring<Endpoint>,
    reply_routes: Expiring<Vec<NodeId>>,
    opens: HashMap<NodeId, PendingOpen>,
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

    /// Records a working relayed route to `origin` (relays first, then
    /// `origin` itself), learned from a relayed message's `path_back`.
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

    /// Sends `wire` — a message the caller has encoded into a pool buffer
    /// ([`Ctx::payload_writer`]) — to `to` using the best available
    /// mechanism. A direct send hands that buffer to the network as it
    /// is, with no further copy; relaying or queueing copies the bytes
    /// into the wrapper that needs them and hands the buffer back to the
    /// pool.
    ///
    /// * `to_public` — whether the peer is directly reachable;
    /// * `route_hint` — rendezvous chain from a view entry (first element
    ///   must be a node we can reach), used for relaying / punching;
    /// * `me` — our node id.
    ///
    /// Returns how the message travelled.
    pub fn send_encoded(
        &mut self,
        ctx: &mut Ctx<'_>,
        me: NodeId,
        to: NodeId,
        to_public: bool,
        wire: Payload,
        route_hint: &[NodeId],
    ) -> SendOutcome {
        let now = ctx.now();
        // 1. Fresh direct contact (a NATted peer whose association towards
        //    us is open); 2. public peer: always addressable.
        if let Some(ep) = self.contact(to, now).or(to_public.then_some(Endpoint::public(to))) {
            ctx.send_to(ep, wire);
            return SendOutcome::Direct;
        }
        // 3. Fresh relayed reverse route.
        if let Some(route) = self.reply_routes.get(to, now).filter(|r| !r.is_empty()) {
            let inner = unpooled(ctx, wire);
            self.relay(ctx, me, route, inner);
            ctx.metrics().count("pss.relayed_sent", 1);
            return SendOutcome::Relayed;
        }
        // 4. Rendezvous chain.
        if !route_hint.is_empty() {
            let inner = unpooled(ctx, wire);
            if let Some(open) = self.opens.get_mut(&to) {
                open.queued.push(inner);
                return SendOutcome::Queued;
            }
            let mut chain = route_hint.to_vec();
            chain.push(to);
            let nat = ctx.nat_type();
            if nat.is_public() {
                // No NAT of ours to open: the chain carries the message
                // and the peer answers to our public address.
                self.relay(ctx, me, &chain, inner);
                ctx.metrics().count("pss.relayed_sent", 1);
                return SendOutcome::Relayed;
            }
            // Queue the message and start a hole-punching handshake; it
            // ends in a direct channel, in the peer's word that the two
            // NATs cannot be punched, or in the timeout — and the last
            // two relay over the same chain.
            let open = NylonMsg::OpenReq {
                requester: me,
                requester_nat: nat,
                requester_ep: None,
                remaining: chain[1..].to_vec(),
                path_back: vec![me],
            };
            let first_ep = self.next_hop_ep(ctx, chain[0]);
            ctx.send_wire(first_ep, &open);
            ctx.metrics().count("pss.open_started", 1);
            self.opens.insert(to, PendingOpen { chain, queued: vec![inner] });
            ctx.set_timer(OPEN_TIMEOUT, open_timeout_token(to));
            return SendOutcome::Queued;
        }
        ctx.recycle(wire);
        ctx.metrics().count("pss.send_failed", 1);
        SendOutcome::Failed
    }

    /// Relays the wire image `inner` along the non-empty `route` (relays
    /// first, destination last).
    fn relay(&self, ctx: &mut Ctx<'_>, me: NodeId, route: &[NodeId], inner: Vec<u8>) {
        let relayed = NylonMsg::Relayed {
            from: me,
            remaining: route[1..].to_vec(),
            path_back: vec![me],
            inner,
        };
        let ep = self.next_hop_ep(ctx, route[0]);
        ctx.send_wire(ep, &relayed);
    }

    /// Ends the handshake towards `peer`, if one is still pending, without
    /// a direct channel: counts `why` and relays what was queued over the
    /// chain, which ends in `peer` and so is never empty.
    fn relay_queued(&mut self, ctx: &mut Ctx<'_>, me: NodeId, peer: NodeId, why: &'static str) {
        let Some(open) = self.opens.remove(&peer) else {
            return; // handshake completed in time
        };
        ctx.metrics().count(why, 1);
        for inner in open.queued {
            self.relay(ctx, me, &open.chain, inner);
        }
        // Follow-ups take the chain as a reply route and do not restart
        // the handshake.
        self.note_reply_route(peer, open.chain, ctx.now());
    }

    /// Handles the open-timeout timer for `peer`: a punch that should
    /// have worked did not, within [`OPEN_TIMEOUT`].
    pub fn on_open_timeout(&mut self, ctx: &mut Ctx<'_>, me: NodeId, peer: NodeId) {
        self.relay_queued(ctx, me, peer, "pss.open_relay_fallback");
    }

    /// Handles the acknowledgement of the open request sent to `peer`,
    /// which is behind a `peer_nat`: `true` if a punch is worth sending.
    /// If the two NAT types rule it out, relays what was queued at once.
    pub fn on_open_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        me: NodeId,
        peer: NodeId,
        peer_nat: NatType,
    ) -> bool {
        let punchable = can_hole_punch(ctx.nat_type(), peer_nat);
        if !punchable {
            self.relay_queued(ctx, me, peer, "pss.open_unpunchable");
        }
        punchable
    }

    /// Completes an open handshake towards `peer` (a direct packet
    /// arrived): flushes queued messages to the now-known endpoint.
    pub fn on_established(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, ep: Endpoint) {
        // Called for every direct packet, and there is rarely a handshake
        // in flight: an empty map is not worth hashing into.
        if self.opens.is_empty() {
            return;
        }
        if let Some(open) = self.opens.remove(&peer) {
            ctx.metrics().count("pss.open_punch_ok", 1);
            for inner in open.queued {
                ctx.send_to(ep, inner);
            }
        }
    }
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
    fn token_round_trip() {
        let t = open_timeout_token(NodeId(123456));
        assert_eq!(t & 0xFF, TIMER_OPEN_TIMEOUT);
        assert_eq!(peer_of_token(t), NodeId(123456));
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
