//! The circuit path in both directions: the AES-CTR packets that ride a
//! route once its onion has set the circuit up — out from the source
//! through the relays to the destination, and back on the circuit from
//! the destination to the source.

use super::routes::{CachedRoute, Conversation};
use super::{
    crypto_sampled, parse_hop_addr, Arrival, Preamble, Wcl, WclEvent, CIRCUIT_CAPACITY, CIRCUIT_TTL,
};
use whisper_crypto::aes::CtrNonce;
use whisper_crypto::circuit::{self, CircuitEntry, CircuitId, Direction};
use whisper_net::payload::PayloadWriter;
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireError, WireLen, WireReader, WireSink};
use whisper_net::{nat::NatType, NodeId, SimTime};
use whisper_pss::transport::SendOutcome;
use whisper_pss::NylonCore;

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
pub(super) struct CircuitPacket<'a> {
    direction: Direction,
    cid: CircuitId,
    nonce: CtrNonce,
    body: &'a [u8],
}

pub(super) const CIRCUIT_TAG: u8 = 0xC2;
pub(super) const RETURN_TAG: u8 = 0xC3;

/// Wire size of a circuit packet with a `body_len`-byte body.
fn circuit_packet_len(body_len: usize) -> usize {
    let header = |n: &mut WireLen| {
        put_circuit_header(n, Direction::Forward, CircuitId([0; 8]), &CtrNonce([0; 8]), body_len)
    };
    WireLen::of(header) + body_len
}

/// Writes everything of a circuit packet but the body; the caller appends
/// exactly `body_len` bytes.
fn put_circuit_header<W: WireSink>(
    w: &mut W,
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
    w.put_len(body_len);
}

/// Writes a whole outgoing circuit packet — Nylon framing, circuit header
/// and a copy of `body` — into a pool buffer, returning it with the
/// offset of the body: the one place the body is copied to, and where the
/// caller then applies its CTR layers in place.
fn circuit_frame(
    ctx: &mut Ctx<'_>,
    direction: Direction,
    cid: CircuitId,
    nonce: &CtrNonce,
    body: &[u8],
) -> (PayloadWriter, usize) {
    let mut frame = NylonCore::begin_app(ctx, circuit_packet_len(body.len()));
    put_circuit_header(&mut frame, direction, cid, nonce, body.len());
    let body_at = frame.len();
    frame.put_raw(body);
    (frame, body_at)
}

impl<'a> CircuitPacket<'a> {
    pub(super) fn from_wire(wire: &'a [u8]) -> Result<Self, WireError> {
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

impl Wcl {
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

    /// Sends `payload` back on the circuit this node carries under `way`:
    /// this node's CTR layer, then the previous hop. `false` — and nothing
    /// sent — without a circuit (`wcl.return_unbound`), or when it is gone
    /// or no longer fresh, or the link to the previous hop is
    /// (`wcl.return_stale`).
    pub(super) fn send_back(
        &mut self,
        ctx: &mut Ctx<'_>,
        way: Option<CircuitId>,
        payload: &[u8],
        once: Option<Preamble>,
    ) -> bool {
        let Some(cid) = way else {
            ctx.metrics().count("wcl.return_unbound", 1);
            return false;
        };
        // Good for as long as the source itself trusts the circuit: the
        // first half of its life here.
        let half_life_on = ctx.now().as_micros() + CIRCUIT_TTL.as_micros() / 2;
        let way = self.circuits.slot_mut(half_life_on, cid).and_then(|(entry, talk)| {
            Some((entry, talk, parse_hop_addr(entry.prev_hop())?))
        });
        let Some((entry, talk, prev)) = way else {
            ctx.metrics().count("wcl.return_stale", 1);
            return false;
        };
        let talk = talk.get_or_insert_with(Box::default);
        let public = self.nylon.is_public();
        let sent = send_on_circuit(
            ctx,
            (Direction::Return, cid),
            talk,
            payload,
            once,
            |ctx, nonce, body| layer_sampled(ctx, public, entry, Direction::Return, nonce, body),
            |ctx, frame| self.nylon.send_app_frame(ctx, prev.0, prev.1.then_some(NatType::Public), &[], frame),
        );
        ctx.metrics().count(if sent { "wcl.return_sent" } else { "wcl.return_stale" }, 1);
        sent
    }

    /// Sends `payload` to `dest` on its current route while the source
    /// trusts it: three CTR layers and zero RSA. Returns the route's mixes,
    /// or `None` when there is no such route; one that has expired, or
    /// whose link in is gone, is taken out of use.
    pub(super) fn send_on_route(
        &mut self,
        ctx: &mut Ctx<'_>,
        dest: NodeId,
        payload: &[u8],
        once: Option<Preamble>,
    ) -> Option<(NodeId, NodeId)> {
        let now = ctx.now();
        let route = self.routes.get_mut(dest)?;
        if route.expires > now {
            let CachedRoute { circuit, first_hop: (to, to_public), mixes, talk, .. } = route;
            let public = self.nylon.is_public();
            let sent = send_on_circuit(
                ctx,
                (Direction::Forward, circuit.first_cid),
                talk,
                payload,
                once,
                |ctx, nonce, body| {
                    crypto_sampled(ctx, public, |_| circuit.seal_in_place(nonce, body));
                },
                |ctx, frame| self.nylon.send_app_frame(ctx, *to, to_public.then_some(NatType::Public), &[], frame),
            );
            if sent {
                return Some(*mixes);
            }
            // The link into the circuit is gone; tear the route down, and
            // the caller falls through to a fresh RSA onion.
            ctx.metrics().count("wcl.circuit_teardown", 1);
        }
        self.routes.retire(dest, now);
        None
    }

    /// Handles a steady-state circuit packet: one CTR layer stripped (on
    /// the way out) or added (on the way back), then forwarded under the
    /// id of the next link or delivered. Unknown or expired circuit ids are
    /// silently dropped — the source's retry machinery recovers by
    /// re-establishing over RSA.
    pub(super) fn on_circuit_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
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
                if let Some(home) = self.on_return_home(ctx, packet) {
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
                let (mut frame, body_at) =
                    circuit_frame(ctx, packet.direction, cid_onward, &onward_nonce, packet.body);
                let body = &mut frame.as_mut_slice()[body_at..];
                layer_sampled(ctx, self.nylon.is_public(), entry, packet.direction, &layer_nonce, body);
                ctx.metrics().count("wcl.relayed", 1);
                ctx.metrics().count("wcl.circuit_forwarded", 1);
                let outcome = self.nylon.send_app_frame(ctx, next, next_public.then_some(NatType::Public), &[], frame);
                if outcome == SendOutcome::Failed {
                    ctx.metrics().count("wcl.relay_drop", 1);
                }
                None
            }
            None => {
                let public = self.nylon.is_public();
                let via = Arrival::Forward(packet.cid);
                Some(deliver(ctx, &mut self.deliver_buf, packet.body, via, |ctx, payload| {
                    layer_sampled(ctx, public, entry, packet.direction, &packet.nonce, payload)
                }))
            }
        }
    }

    /// A return packet at the end of its way: if this node holds the route
    /// whose first hop listens under the packet's id — in use or given up
    /// on — every hop's layer is stripped and the payload delivered, and
    /// the route, unless it has expired, is its destination's current one
    /// again.
    fn on_return_home(&mut self, ctx: &mut Ctx<'_>, packet: CircuitPacket<'_>) -> Option<WclEvent> {
        let is_public = self.nylon.is_public();
        let route = self.routes.by_first_cid.get_mut(&packet.cid)?;
        if route.expires > ctx.now() {
            self.routes.current.insert(route.dest, packet.cid);
        }
        let via = Arrival::Return(packet.cid);
        let home = deliver(ctx, &mut self.deliver_buf, packet.body, via, |ctx, payload| {
            crypto_sampled(ctx, is_public, |_| {
                route.circuit.open_return_in_place(&packet.nonce, payload)
            });
        });
        ctx.metrics().count("wcl.return_delivered", 1);
        Some(home)
    }
}

/// Sends what of `payload` is still unsaid on `talk` as one circuit packet
/// headed `(direction, cid)`: a fresh nonce, the packet written once into
/// its outgoing buffer, this end's layers applied there by `layer`, and
/// the buffer handed to `send` for the neighbour it goes to. `false`, and
/// nothing said, when the link to that neighbour is gone.
fn send_on_circuit(
    ctx: &mut Ctx<'_>,
    (direction, cid): (Direction, CircuitId),
    talk: &mut Conversation,
    payload: &[u8],
    once: Option<Preamble>,
    layer: impl FnOnce(&mut Ctx<'_>, &CtrNonce, &mut [u8]),
    send: impl FnOnce(&mut Ctx<'_>, PayloadWriter) -> SendOutcome,
) -> bool {
    let body = talk.unsaid(payload, once);
    let nonce = CtrNonce::random(ctx.rng());
    let (mut frame, body_at) = circuit_frame(ctx, direction, cid, &nonce, body);
    layer(ctx, &nonce, &mut frame.as_mut_slice()[body_at..]);
    if send(ctx, frame) == SendOutcome::Failed {
        return false;
    }
    talk.said = once.or(talk.said);
    ctx.metrics().count("wcl.circuit_hit", 1);
    if body.len() < payload.len() {
        ctx.metrics().count("wcl.short_sent", 1);
    }
    true
}

/// Hands up a circuit packet's `body` once `open` has taken its last
/// layers off, in place, in the delivery buffer: lent out holding a copy
/// of the body ([`Wcl::reclaim`] takes it back).
fn deliver(
    ctx: &mut Ctx<'_>,
    deliver_buf: &mut Vec<u8>,
    body: &[u8],
    via: Arrival,
    open: impl FnOnce(&mut Ctx<'_>, &mut [u8]),
) -> WclEvent {
    let mut payload = std::mem::take(deliver_buf);
    payload.clear();
    payload.extend_from_slice(body);
    open(ctx, &mut payload);
    ctx.metrics().count("wcl.delivered", 1);
    ctx.metrics().count("wcl.circuit_delivered", 1);
    WclEvent::Delivered { payload, via: Some(via) }
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
) {
    crypto_sampled(ctx, is_public, |_| entry.apply_in_place(direction, nonce, body));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcl::onion_path::OnionView;
    use whisper_net::wire::WireWriter;

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
        // An onion packet: header [1], body [2].
        assert!(CircuitPacket::from_wire(&[0xC1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 2]).is_err());
    }
}
