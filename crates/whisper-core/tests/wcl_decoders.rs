//! The WCL decoders on hostile bytes (ROADMAP item 4 (a), the WCL slice;
//! `nylon_decoders.rs` is the template). Onion (`0xC1`), circuit (`0xC2`)
//! and return (`0xC3`) packets taken off the wire of a running stack, each
//! where it arrived, then cut short, grown, spliced, bit-flipped or given a
//! length that claims the whole remaining input, and handed back to the
//! node that received it as the payload of a Nylon `App` message: the node
//! does not panic, a packet that carries a WCL tag and is not well-formed
//! is counted under `wcl.malformed` and nothing else is, and the largest
//! single allocation the node makes stays within what the input can fill.

mod watching;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::{WireEncode, WireReader};
use whisper_net::{Endpoint, NodeId, Payload};
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
        if let Some((_, packet)) = NylonMsg::app_view(data) {
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

/// Where the length prefixes of a well-formed `packet` sit.
fn length_prefixes(packet: &[u8]) -> Vec<usize> {
    match packet[0] {
        0xC1 => {
            let header = u32::from_be_bytes(packet[1..5].try_into().expect("4 bytes")) as usize;
            vec![1, 5 + header]
        }
        _ => vec![17],
    }
}

/// A 30-node stack, most of it behind NATs, with a group that has gossiped
/// for a while: the last [`KEPT`] WCL packets of each tag that arrived
/// anywhere.
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
            let mut claimed = image.packet.clone();
            let len = u32::from_be_bytes(claimed[at..at + 4].try_into().expect("4 bytes"));
            claimed[at..at + 4].copy_from_slice(&(len + 1).to_be_bytes());
            assert_eq!(well_formed(&claimed), Some(false), "no length at {at}");
        }
    }

    let sim = RefCell::new(sim);
    whisper_rand::check::check(1024, "wcl_decoders_are_total_on_hostile_bytes", |g| {
        let image = &images[g.gen_range(0..images.len())];
        let packet = &image.packet;
        let hostile = match g.gen_range(0..6u8) {
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
            _ => {
                // A length that claims every byte left, or any length.
                let prefixes = length_prefixes(packet);
                let at = prefixes[g.gen_range(0..prefixes.len())];
                let claim = if g.gen() { (packet.len() - at - 4) as u32 } else { g.gen() };
                let mut claimed = packet.clone();
                claimed[at..at + 4].copy_from_slice(&claim.to_be_bytes());
                claimed
            }
        };
        let sim = &mut *sim.borrow_mut();
        let wire = NylonMsg::App { from: image.from, payload: hostile.clone() }.to_wire();
        sim.metrics_mut().reset_counters_and_samples();
        let mut largest = 0;
        sim.with_node_ctx::<Tap>(image.at, |tap, ctx| {
            let delivered = Payload::fresh(wire.clone());
            let handled = || tap.inner.on_message(ctx, image.from, image.from_ep, &delivered);
            largest = watching::largest_during(handled).1;
        });
        let refused = well_formed(&hostile) == Some(false);
        assert_eq!(sim.metrics().counter("wcl.malformed"), refused as u64, "{hostile:02x?}");
        // What the input can fill: a copy of it in a pooled buffer, whose
        // sizes are powers of two, or the node's bookkeeping of any packet
        // (a counter's first slot) — never what a length claims.
        let fill = wire.len().next_power_of_two().max(BOOKKEEPING);
        assert!(largest <= fill, "{largest} B allocated for {} B: {hostile:02x?}", wire.len());
    });
}
