//! The WCL decoders on hostile bytes (ROADMAP item 4 (a), the WCL slice;
//! `nylon_decoders.rs` is the template). Onion (`0xC1`), circuit (`0xC2`)
//! and return (`0xC3`) packets taken off the wire of a running stack, each
//! where it arrived, then cut short, grown, spliced, bit-flipped, given a
//! length that claims the whole remaining input or a length prefix no
//! decoder may take (wider than it needs, claiming 2⁶² − 1, cut short), and
//! handed back to the node that received it as the payload of a Nylon `App`
//! message: the node does not panic, a packet that carries a WCL tag and is
//! not well-formed is counted under `wcl.malformed` and nothing else is,
//! and the largest single allocation the node makes stays within what the
//! input can fill — or, where the node sent one datagram in answer, the
//! pool buffer that holds it. Then the circuit setup (`HopSetup`) an onion
//! layer carries, from a source that lies in it.

mod lengths;
mod watching;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use whisper_core::ppss::messages::PpssMsg;
use whisper_core::{GroupId, WclEvent, WhisperConfig, WhisperNode};
use whisper_crypto::aes::{AesKey, CtrNonce};
use whisper_crypto::circuit::{self, CircuitEntry, CircuitId, Direction, DEST_SETUP_LEN, RELAY_SETUP_LEN};
use whisper_crypto::onion::build_onion_ext;
use whisper_crypto::rsa::KeyPair;
use whisper_net::metrics::HEADER_OVERHEAD;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode, WireReader, WireSink, WireWriter};
use whisper_net::{Endpoint, NodeId, Payload, SimTime};
use whisper_pss::messages::NylonMsg;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// A WCL packet as it arrived: at which node, from whom and where from,
/// and the `App` payload that carried it.
#[derive(Clone)]
struct Arrived {
    at: NodeId,
    from: NodeId,
    from_ep: Endpoint,
    packet: Vec<u8>,
}

/// The last few WCL packets of each tag that any node received.
type WireLog = Arc<Mutex<BTreeMap<u8, Vec<Arrived>>>>;

/// How many packets of each tag the log keeps: the latest, whose circuits
/// are still carried when they are handed back.
const KEPT: usize = 4;

/// The most circuits a node's table holds.
const CIRCUIT_CAPACITY: u64 = 1024;

/// The largest single allocation handling a packet may make whatever its
/// size: a new counter's slot in the metrics table takes a few hundred
/// bytes.
const BOOKKEEPING: usize = 512;

/// A stack that logs the WCL packets it receives before it handles them.
struct Tap {
    inner: WhisperNode,
    log: WireLog,
}

impl Protocol for Tap {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        if let Some(packet) = NylonMsg::app_view(data) {
            if let Some(&tag @ 0xC1..=0xC3) = packet.first() {
                let mut log = self.log.lock().unwrap();
                let kept = log.entry(tag).or_default();
                if kept.len() == KEPT {
                    kept.remove(0);
                }
                kept.push(Arrived { at: ctx.id(), from, from_ep, packet: packet.to_vec() });
            }
        }
        self.inner.on_message(ctx, from, from_ep, data);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Whether `packet` is a well-formed WCL packet, read by the layout alone:
/// the tag, then for an onion two length-prefixed byte strings (header,
/// body), for a circuit or return packet a 16-byte circuit id and nonce
/// and one (body), and nothing behind. `None` for a packet without a WCL
/// tag, which is not the WCL's to parse.
fn well_formed(packet: &[u8]) -> Option<bool> {
    let mut r = WireReader::new(packet);
    let read = match r.take_u8().ok()? {
        0xC1 => r.take_bytes().and_then(|_| r.take_bytes()).and_then(|_| r.finish()),
        0xC2 | 0xC3 => r.take_raw(16).and_then(|_| r.take_bytes()).and_then(|_| r.finish()),
        _ => return None,
    };
    Some(read.is_ok())
}

/// Where the length prefixes of a well-formed `packet` sit: an onion's
/// behind its tag and behind its header, a circuit packet's behind its
/// tag, id and nonce.
fn length_prefixes(packet: &[u8]) -> Vec<usize> {
    match packet[0] {
        0xC1 => {
            let (header, width) = lengths::len_at(packet, 1);
            vec![1, 1 + width + header]
        }
        _ => vec![17],
    }
}

/// A 30-node stack, most of it behind NATs, with a group that has gossiped
/// for a while: the last [`KEPT`] WCL packets of each tag that arrived
/// anywhere. Before it runs, each node's circuit table carries as many
/// circuits as it can hold and drops them again, keeping the storage: a
/// circuit a hostile packet installs later never grows the table, so the
/// amortised doubling of the node's own tables is not charged to it.
fn running_stack() -> (Sim, Vec<Arrived>) {
    let cfg = WhisperConfig::default();
    let log = WireLog::default();
    let mut keys = StdRng::seed_from_u64(37);
    let mut sim = Sim::new(SimConfig::cluster(37));
    let dist = NatDistribution::paper_default();
    let ids: Vec<NodeId> = (0..30u64)
        .map(|i| {
            let mut node = WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut keys));
            node.nylon_mut().set_bootstrap([NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect());
            node.with_api(|api, _| {
                for cid in 0..CIRCUIT_CAPACITY {
                    let [cid_in, cid_out] = [cid, !cid].map(|id| CircuitId(id.to_be_bytes()));
                    let entry = CircuitEntry::new(AesKey([0; 16]), Vec::new(), Some(cid_out));
                    api.wcl.carry_circuit(SimTime::ZERO, cid_in, entry);
                }
                api.wcl.flush_circuits();
            });
            let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
            sim.add_node(Box::new(Tap { inner: node, log: log.clone() }), nat)
        })
        .collect();
    sim.run_for_secs(150);
    let leader = ids[3];
    let mut group = GroupId(0);
    sim.with_node_ctx::<Tap>(leader, |tap, ctx| group = tap.inner.create_group(ctx, "wire"));
    for &m in &ids[4..12] {
        let invitation = sim.node::<Tap>(leader).unwrap().inner.invite(group, m).unwrap();
        sim.with_node_ctx::<Tap>(m, |tap, ctx| tap.inner.join_group(ctx, invitation));
    }
    sim.run_for_secs(300);
    // Members and leader talk: a member's sends ride its circuit to the
    // leader, and the leader's answers ride the same circuits back.
    for round in 0..20u8 {
        for &m in &ids[4..12] {
            for (from, to) in [(m, leader), (leader, m)] {
                sim.with_node_ctx::<Tap>(from, |tap, ctx| {
                    tap.inner.with_api(|api, _| api.send_private(ctx, group, to, vec![round; 64], false));
                });
            }
        }
        sim.run_for_secs(2);
    }

    let log = log.lock().unwrap();
    for tag in 0xC1..=0xC3 {
        let kept = log.get(&tag).map_or(0, Vec::len);
        assert_eq!(kept, KEPT, "no packets with tag {tag:#04x} on the wire");
    }
    (sim, log.values().flatten().cloned().collect())
}

#[test]
fn wcl_decoders_are_total_on_hostile_bytes() {
    let (sim, images) = running_stack();
    // The unmutated images are well-formed, and each prefix said to be a
    // length is one: one byte more breaks the image.
    for image in &images {
        assert_eq!(well_formed(&image.packet), Some(true), "{:02x?}", image.packet);
        for at in length_prefixes(&image.packet) {
            let claimed = lengths::with_len(&image.packet, at, lengths::len_at(&image.packet, at).0 + 1);
            assert_eq!(well_formed(&claimed), Some(false), "no length at {at}");
        }
    }

    let sim = RefCell::new(sim);
    whisper_rand::check::check(1024, "wcl_decoders_are_total_on_hostile_bytes", |g| {
        let image = &images[g.gen_range(0..images.len())];
        let packet = &image.packet;
        let hostile = match g.gen_range(0..7u8) {
            0 => [&packet[..1], &g.bytes(300)].concat(),
            1 => packet[..g.gen_range(0..packet.len())].to_vec(),
            2 => [&packet[..], &g.bytes(8), &[0]].concat(),
            3 => {
                let other = &images[g.gen_range(0..images.len())].packet;
                let (head, tail) = (g.gen_range(0..=packet.len()), g.gen_range(0..=other.len()));
                [&packet[..head], &other[tail..]].concat()
            }
            4 => {
                let mut flipped = packet.clone();
                flipped[g.gen_range(0..packet.len())] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
            5 => {
                // A length that claims every byte left, or any length.
                let prefixes = length_prefixes(packet);
                let at = prefixes[g.gen_range(0..prefixes.len())];
                if g.gen() {
                    lengths::claiming_the_rest(packet, at, lengths::len_at(packet, at).1)
                } else {
                    lengths::with_len(packet, at, g.gen::<u32>() as usize)
                }
            }
            _ => {
                // A length prefix no decoder may take.
                let prefixes = length_prefixes(packet);
                let at = prefixes[g.gen_range(0..prefixes.len())];
                lengths::refused_prefix(g, packet, at)
            }
        };
        let sim = &mut *sim.borrow_mut();
        let wire = NylonMsg::App { payload: hostile.clone() }.to_wire();
        sim.metrics_mut().reset_counters_and_samples();
        let mut largest = 0;
        let before = sim.metrics().traffic(image.at);
        sim.with_node_ctx::<Tap>(image.at, |tap, ctx| {
            let delivered = Payload::fresh(wire.clone());
            let handled = || tap.inner.on_message(ctx, image.from, image.from_ep, &delivered);
            largest = watching::largest_during(handled).1;
        });
        let refused = well_formed(&hostile) == Some(false);
        assert_eq!(sim.metrics().counter("wcl.malformed"), refused as u64, "{hostile:02x?}");
        // What the input can fill: a copy of it in a pooled buffer, whose
        // sizes are powers of two, or the node's bookkeeping of any packet
        // (a counter's first slot) — never what a length claims. And the
        // pooled buffer of a lone datagram the node sent in answer, which
        // can outgrow the request: an honest 913-byte PPSS exchange request
        // is answered with 1 175 or 1 346. Where the node sent more than one,
        // none is exempt.
        let after = sim.metrics().traffic(image.at);
        let answer = match after.up_msgs - before.up_msgs {
            1 => usize::try_from(after.up_bytes - before.up_bytes).expect("one datagram") - HEADER_OVERHEAD,
            _ => 0,
        };
        let fill = wire.len().max(answer).next_power_of_two().max(BOOKKEEPING);
        assert!(largest <= fill, "{largest} B allocated for {} B: {hostile:02x?}", wire.len());
    });
}

/// Where a lying source's onion layer is handed: to a mix, whose layer
/// names the next hop, or to the destination, whose layer names none.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Hop {
    Relay,
    Destination,
}

/// What a payload handed to `node` — as arriving from `sender`, a public
/// node — came to: delivered by the WCL, and if so whether the PPSS took
/// it as one of its messages.
fn hand_over(sim: &mut Sim, node: NodeId, sender: NodeId, packet: &[u8]) -> (bool, bool) {
    let mut outcome = (false, false);
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        n.with_api(|api, _| {
            let Some(WclEvent::Delivered { payload, via }) =
                api.wcl.on_app_payload(ctx, api.nylon, (sender, true), packet)
            else {
                return;
            };
            outcome = (true, api.ppss.on_delivered(ctx, api.nylon, api.wcl, via, &payload).is_some());
        });
    });
    outcome
}

/// A payload no PPSS message parses from.
const NOT_PPSS: &[u8] = b"\xEEno PPSS message";

/// `HopSetup` from a lying source (ROADMAP item 3 (c)): onion layers whose
/// setup extension is cut, grown or bit-flipped, of every length up to 40
/// bytes, or of the other hop's form, each handed to a mix and to a
/// destination of a running stack, then a circuit packet on every circuit
/// that got installed. Nothing panics; `wcl.circuit_bad_setup` counts
/// exactly the foreign lengths and `wcl.circuit_installed` the two forms.
/// A circuit packet on a swapped form ends in `wcl.bad_next_hop` (the
/// relay form at a destination, which holds no next hop) or in a delivery
/// the PPSS rejects (the destination form at a mix); a forward only ever
/// leaves a mix, towards the next hop its own layer named.
#[test]
fn setup_extensions_from_a_lying_source_end_in_a_count_or_a_rejection() {
    let cfg = WhisperConfig::default();
    let mut rng = StdRng::seed_from_u64(41);
    let mut sim = Sim::new(SimConfig::cluster(41));
    let ids: Vec<NodeId> = (0..3u64)
        .map(|i| {
            let mut node = WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut rng));
            node.nylon_mut().set_bootstrap(vec![NodeId((i + 1) % 3)]);
            sim.add_node(Box::new(node), NatType::Public)
        })
        .collect();
    sim.run_for_secs(60);
    let (sender, relay, dest) = (ids[0], ids[1], ids[2]);
    let key = |sim: &Sim, node| sim.node::<WhisperNode>(node).unwrap().nylon().keypair().public().clone();
    let addr = |node: NodeId| [&node.to_bytes()[..], &[1]].concat();
    let bytes = |rng: &mut StdRng, len: usize| (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>();
    assert!(PpssMsg::from_wire(NOT_PPSS).is_err());

    // Every length up to 40, then the two honest forms as they are, cut
    // short, grown and with a bit flipped.
    let mut exts: Vec<Vec<u8>> = (0..=40).map(|len| bytes(&mut rng, len)).collect();
    let (_, setups) = circuit::establish(2, &mut rng);
    for form in setups.iter().map(|s| s.encode()) {
        let more = rng.gen_range(1..=8usize);
        let grown = bytes(&mut rng, more);
        let cut = form[..rng.gen_range(0..form.len())].to_vec();
        exts.extend([form.clone(), cut, [&form[..], &grown].concat()]);
        for _ in 0..4 {
            let mut flipped = form.clone();
            flipped[rng.gen_range(0..form.len())] ^= 1 << rng.gen_range(0..8u32);
            exts.push(flipped);
        }
    }

    for ext in &exts {
        for hop in [Hop::Relay, Hop::Destination] {
            let (at, path, layers) = match hop {
                Hop::Relay => (
                    relay,
                    vec![(key(&sim, relay), addr(relay)), (key(&sim, dest), addr(dest))],
                    vec![ext.clone(), Vec::new()],
                ),
                Hop::Destination => (dest, vec![(key(&sim, dest), addr(dest))], vec![ext.clone()]),
            };
            let onion = build_onion_ext(&path, NOT_PPSS, &layers, &mut rng).unwrap();
            let mut wire = WireWriter::new();
            wire.put_u8(0xC1);
            wire.put_bytes(&onion.header);
            wire.put_bytes(&onion.body);
            sim.metrics_mut().reset_counters_and_samples();
            let (delivered, accepted) = hand_over(&mut sim, at, sender, &wire.into_bytes());
            let case = format!("{hop:?}, {} B: {ext:02x?}", ext.len());
            assert_eq!((delivered, accepted), (hop == Hop::Destination, false), "{case}");
            let installed = [RELAY_SETUP_LEN, DEST_SETUP_LEN].contains(&ext.len());
            let foreign = !ext.is_empty() && !installed;
            let m = sim.metrics();
            assert_eq!(m.counter("wcl.circuit_bad_setup"), foreign as u64, "{case}");
            assert_eq!(m.counter("wcl.circuit_installed"), installed as u64, "{case}");
            if !installed {
                continue;
            }

            // A packet on the circuit, sealed under the key the layer gave:
            // what a hop that delivers it hands up is `NOT_PPSS`.
            let cid = CircuitId(ext[..8].try_into().unwrap());
            let key_at = if ext.len() == RELAY_SETUP_LEN { 16 } else { 8 };
            let link_key = AesKey(ext[key_at..key_at + 16].try_into().unwrap());
            let nonce = CtrNonce(rng.gen());
            let mut body = NOT_PPSS.to_vec();
            let sealer = CircuitEntry::new(link_key, Vec::new(), None);
            sealer.apply_in_place(Direction::Forward, &nonce, &mut body);
            let mut wire = WireWriter::new();
            wire.put_u8(0xC2);
            wire.put_raw(&cid.0);
            wire.put_raw(&nonce.0);
            wire.put_bytes(&body);
            sim.metrics_mut().reset_counters_and_samples();
            let (delivered, accepted) = hand_over(&mut sim, at, sender, &wire.into_bytes());
            let m = sim.metrics();
            let (forwarded, bad_hop) = (m.counter("wcl.circuit_forwarded"), m.counter("wcl.bad_next_hop"));
            let expected = match (hop, ext.len()) {
                // Honest at a mix: on to the hop its layer named.
                (Hop::Relay, RELAY_SETUP_LEN) => (false, 1, 0),
                // Swapped at a destination: no next hop to go to.
                (Hop::Destination, RELAY_SETUP_LEN) => (false, 0, 1),
                // Honest at a destination, or swapped at a mix: delivered,
                // and the PPSS takes none of it.
                _ => (true, 0, 0),
            };
            assert_eq!((delivered, forwarded, bad_hop), expected, "{case}");
            assert!(!accepted, "{case}");
        }
    }
}
