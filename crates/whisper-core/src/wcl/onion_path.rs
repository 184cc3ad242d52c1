//! The onion path: the RSA onion a source builds for a route's first
//! packet, and what each mix and the destination do with it — peel a
//! layer, install the circuit state it carries, forward or deliver.

use super::routes::{CachedRoute, Conversation};
use super::{
    crypto_sampled, hop_addr, parse_hop_addr, Arrival, GatewayInfo, Preamble, Wcl, WclEvent,
    CIRCUIT_TTL,
};
use crate::ppss::PrivateEntry;
use whisper_crypto::circuit::{self, CircuitEntry, CircuitId, HopSetup};
use whisper_crypto::onion::{self, PeelResult};
use whisper_crypto::rsa::PublicKey;
use whisper_net::payload::PayloadWriter;
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireError, WireLen, WireReader, WireSink};
use whisper_net::{nat::NatType, NodeId, SimDuration, SimTime};
use whisper_pss::transport::SendOutcome;
use whisper_pss::NylonCore;
use whisper_rand::seq::SliceRandom;
use whisper_rand::Rng;

/// The wire format of an RSA onion packet (inside a Nylon `App`
/// payload): the layered header and the AES-encrypted body, each behind
/// its length.
///
/// Like a [`CircuitPacket`], only ever a view of a delivered payload: a
/// mix reads the header, peels it, and copies the body — which it forwards
/// verbatim — once, into its outgoing buffer behind the inner header
/// ([`onion_frame`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct OnionView<'a> {
    header: &'a [u8],
    body: &'a [u8],
}

pub(super) const WCL_TAG: u8 = 0xC1;

/// Writes an onion packet: the one place that knows the layout
/// [`OnionView::from_wire`] reads.
fn put_onion<W: WireSink>(w: &mut W, header: &[u8], body: &[u8]) {
    w.put_u8(WCL_TAG);
    w.put_bytes(header);
    w.put_bytes(body);
}

/// Writes a whole outgoing onion packet — Nylon framing, then
/// [`put_onion`] — into a pool buffer.
fn onion_frame(ctx: &mut Ctx<'_>, header: &[u8], body: &[u8]) -> PayloadWriter {
    let mut frame = NylonCore::begin_app(ctx, WireLen::of(|n| put_onion(n, header, body)));
    put_onion(&mut frame, header, body);
    frame
}

impl<'a> OnionView<'a> {
    pub(super) fn from_wire(wire: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(wire);
        if r.take_u8()? != WCL_TAG {
            return Err(WireError::new("not a WCL packet"));
        }
        let (header, body) = (r.take_bytes()?, r.take_bytes()?);
        r.finish()?;
        Ok(OnionView { header, body })
    }
}

impl Wcl {
    /// Builds a path avoiding the first mixes and the gateways in `avoid`
    /// and sends. Returns the `(A, B)` pair used, or `None` when no path
    /// can be constructed.
    pub(super) fn try_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dest: &PrivateEntry,
        payload: &[u8],
        once: Option<Preamble>,
        (avoid_a, avoid_b): (&[NodeId], &[NodeId]),
    ) -> Option<(NodeId, NodeId)> {
        let now = ctx.now();

        // Steady-state fast path: a cached circuit carries the packet with
        // three CTR layers and zero RSA. Skipped when a retry is steering
        // away from specific mixes — those want a *different* path.
        if avoid_a.is_empty() && avoid_b.is_empty() {
            if let Some(mixes) = self.send_on_route(ctx, dest.node, payload, once) {
                return Some(mixes);
            }
        }
        let nylon = &self.nylon;
        let me = nylon.id();

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

        let (built, cost) = crypto_sampled(ctx, nylon.is_public(), |ctx| {
            // The onion doubles as circuit establishment: each layer
            // carries that hop's link key and circuit ids.
            let (src_circuit, setups) = circuit::establish(path.len(), ctx.rng());
            let exts: Vec<Vec<u8>> = setups.iter().map(|s| s.encode()).collect();
            onion::build_onion_ext(&path, payload, &exts, ctx.rng()).map(|p| (src_circuit, p))
        });
        let (src_circuit, packet) = built.ok()?;
        // The sample is the deterministic model cost (see DESIGN.md
        // § "Deterministic crypto accounting"); host time goes to the
        // profiler only, and only when it is on.
        ctx.metrics().sample(
            "wcl.build_path_us",
            (cost.aes_model_ns() + cost.rsa_model_ns()) as f64 / 1000.0,
        );
        ctx.metrics().count("wcl.paths_built", 1);
        let frame = onion_frame(ctx, &packet.header, &packet.body);
        let outcome = self.nylon.send_app_frame(ctx, a.0, a.1.then_some(NatType::Public), &[], frame);
        if outcome == SendOutcome::Failed {
            return None;
        }
        // Cache for half the relay-side TTL: the source always
        // re-establishes well before any relay forgets the circuit.
        let expires = now + SimDuration::from_micros(CIRCUIT_TTL.as_micros() / 2);
        self.routes.insert(
            now,
            CachedRoute {
                dest: dest.node,
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

    /// Handles a full RSA onion packet (the first packet of a route).
    pub(super) fn on_onion_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        prev: (NodeId, bool),
        packet: OnionView<'_>,
    ) -> Option<WclEvent> {
        let (peeled, cost) = crypto_sampled(ctx, self.nylon.is_public(), |_| {
            onion::peel_with_body(self.nylon.keypair(), packet.header, packet.body)
        });
        ctx.metrics().sample(
            "wcl.peel_us",
            (cost.aes_model_ns() + cost.rsa_model_ns()) as f64 / 1000.0,
        );
        match peeled {
            Ok(PeelResult::Relay { next_hop, header, ext }) => {
                let Some((next, next_public)) = parse_hop_addr(&next_hop) else {
                    ctx.metrics().count("wcl.bad_next_hop", 1);
                    return None;
                };
                self.install_circuit(ctx, &ext, next_hop, prev);
                ctx.metrics().count("wcl.relayed", 1);
                let fwd = onion_frame(ctx, &header, packet.body);
                // A mix reaches the next hop through an existing contact
                // (B → D relies on D's earlier ping) or directly when the
                // next hop is public. No rendezvous chains here: a mix
                // must not interrogate the network about the next hop.
                let outcome = self.nylon.send_app_frame(ctx, next, next_public.then_some(NatType::Public), &[], fwd);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcl::circuit_path::CIRCUIT_TAG;
    use whisper_net::wire::WireWriter;

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
        assert_eq!(wire, [0xC1, 3, 1, 2, 3, 2, 4, 5], "the bytes on the wire");
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
}
