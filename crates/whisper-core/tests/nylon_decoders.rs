//! The Nylon decoders on hostile bytes (ROADMAP item 4 (a), the Nylon
//! slice; `ppss_decoders.rs` is the template). Datagrams taken off the wire
//! of a running stack — gossip requests and responses, relayed messages, a
//! cone-NATted stranger's first message, open requests and the answers
//! their acknowledgements carry, keyed punches and application frames among
//! them — then cut short, grown, spliced, bit-flipped, given a sequence length
//! that claims the whole remaining input, a length prefix no decoder may
//! take (wider than it needs, claiming 2⁶² − 1, cut short) or a NAT-type
//! byte of any value:
//! `NylonMsg::from_wire` refuses it or reads back exactly what it was given
//! — but for the NAT type of a NATted view entry, which the owned form
//! reads as NATted and writes as symmetric — `NylonMsg::gossip_view` and
//! `NylonMsg::app_view` accept exactly what it decodes as their kind and
//! allocate nothing, the owned decoder reserves no more than the input can
//! fill, and a node handed it does not panic.

mod lengths;
mod watching;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode, WireLen, WireSink};
use whisper_net::{Endpoint, NodeId, Payload};
use whisper_pss::messages::{ChainBody, NylonMsg};
use whisper_pss::ViewEntry;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// Every datagram a node received, in delivery order.
type WireLog = Arc<Mutex<Vec<Vec<u8>>>>;

/// A stack that logs every datagram before it handles it.
struct Tap {
    inner: WhisperNode,
    log: WireLog,
}

impl Protocol for Tap {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, ep: Endpoint, data: &Payload) {
        self.log.lock().unwrap().push(data.to_vec());
        self.inner.on_message(ctx, from, ep, data);
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

/// A datagram, the offsets of the sequence and byte-string length
/// prefixes in it and those of its NAT-type bytes.
type Image = (Vec<u8>, Vec<usize>, Vec<usize>);

/// Where the length prefixes of `msg`'s image sit: behind the tag, the
/// sender, if the message names one, and what precedes each, as the codec
/// sizes it.
fn length_prefixes(msg: &NylonMsg) -> Vec<usize> {
    match msg {
        NylonMsg::GossipReq { entries, key, .. } | NylonMsg::GossipResp { entries, key, .. } => {
            let key_at = 1 + 8 + 1 + WireLen::of(|n| n.put_seq(entries)) + 1;
            [Some(10), key.as_ref().map(|_| key_at)].into_iter().flatten().collect()
        }
        NylonMsg::Chain { remaining, taken, body } => {
            // The hops left, the hops taken, then the body: a relayed
            // message's byte string, or one behind the optional endpoint
            // of a cone-NATted origin's message or of an open's.
            let taken_at = 1 + WireLen::of(|n| n.put_seq(remaining));
            let body_at = taken_at + WireLen::of(|n| n.put_seq(taken));
            let inner_at = match body {
                ChainBody::Relayed(_) => body_at,
                ChainBody::Contact(seen, _) | ChainBody::OpenReq(seen, _) | ChainBody::OpenAck(seen, _) => {
                    body_at + WireLen::of(|n| n.put_opt(seen))
                }
            };
            vec![1, taken_at, inner_at]
        }
        NylonMsg::Ping { key: Some(_), .. }
        | NylonMsg::Pong { key: Some(_), .. }
        | NylonMsg::Punch { key: Some(_), .. }
        | NylonMsg::PunchAck { key: Some(_), .. } => vec![10],
        NylonMsg::App { .. } => vec![1],
        _ => vec![],
    }
}

/// Where the NAT types of `msg`'s image sit: in each view entry of a
/// gossip message.
fn nat_bytes(msg: &NylonMsg) -> Vec<usize> {
    match msg {
        NylonMsg::GossipReq { entries, .. } | NylonMsg::GossipResp { entries, .. } => {
            // Behind the tag, sender, flag and count; in an entry, behind
            // its node and age.
            let mut at = 1 + 8 + 1 + WireLen::of(|n| n.put_len(entries.len()));
            entries
                .iter()
                .map(|entry| {
                    at += entry.encoded_len();
                    at - entry.encoded_len() + 8 + 2
                })
                .collect()
        }
        _ => vec![],
    }
}

/// `wire`, a datagram that decodes as `msg`, as the owned form writes it
/// back: the NAT type of every NATted view entry symmetric.
fn as_owned_writes(wire: &[u8], msg: &NylonMsg) -> Vec<u8> {
    let mut owned = wire.to_vec();
    for at in nat_bytes(msg) {
        if owned[at] != 0 {
            owned[at] = NatType::Symmetric.to_wire()[0];
        }
    }
    owned
}

/// A 30-node stack, most of it behind NATs, with a group that has gossiped
/// for a while: up to three datagrams of every kind it put on the wire —
/// relayed ones told apart by what they carry — and a node to hand hostile
/// bytes to.
fn running_stack() -> (Sim, NodeId, Vec<Image>) {
    let cfg = WhisperConfig::default();
    let log = WireLog::default();
    let mut keys = StdRng::seed_from_u64(31);
    let mut sim = Sim::new(SimConfig::cluster(31));
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

    let mut kinds: BTreeMap<(u8, Option<u8>), Vec<Image>> = BTreeMap::new();
    let mut entry_codes = [false; 5];
    for datagram in log.lock().unwrap().iter() {
        let msg = NylonMsg::from_wire(datagram).expect("an honest datagram decodes");
        for at in nat_bytes(&msg) {
            entry_codes[datagram[at] as usize] = true;
        }
        let inner = match &msg {
            NylonMsg::Chain {
                body:
                    ChainBody::Relayed(inner)
                    | ChainBody::Contact(_, inner)
                    | ChainBody::OpenReq(_, inner)
                    | ChainBody::OpenAck(_, inner),
                ..
            } => inner.first().copied(),
            _ => None,
        };
        let same = kinds.entry((datagram[0], inner)).or_default();
        if same.len() < 3 {
            same.push((datagram.clone(), length_prefixes(&msg), nat_bytes(&msg)));
        }
    }
    assert_eq!(entry_codes, [true; 5], "view entries of every NAT type were shipped");
    let seen: Vec<(u8, Option<u8>)> = kinds.keys().copied().collect();
    // Gossip both ways, relayed gossip, gossip from a cone-NATted stranger
    // and from a port-restricted or symmetric one, its answer in the
    // acknowledgement, the punch and the answer behind it, and application
    // frames.
    let wanted = [
        (1, None),
        (2, None),
        (3, Some(1)),
        (11, Some(1)),
        (4, Some(1)),
        (5, Some(2)),
        (6, None),
        (7, None),
        (10, None),
    ];
    for kind in wanted {
        assert!(seen.contains(&kind), "no datagram of kind {kind:?} on the wire; saw {seen:?}");
    }
    (sim, ids[20], kinds.into_values().flatten().collect())
}

#[test]
fn nylon_decoders_are_total_on_hostile_bytes() {
    let (sim, target, images) = running_stack();
    // The unmutated images read back as themselves, each prefix said to be
    // a length is one — one element more breaks the image — and each byte
    // said to be a NAT type is one: it takes the codes 0–4 and no other.
    // Gossip takes one exactly when the owned decoder does.
    for (image, prefixes, nats) in &images {
        let msg = NylonMsg::from_wire(image).expect("an honest datagram decodes");
        assert_eq!(msg.to_wire(), as_owned_writes(image, &msg));
        let gossip = matches!(msg, NylonMsg::GossipReq { .. } | NylonMsg::GossipResp { .. });
        for &at in nats {
            for code in 0..=u8::MAX {
                let mut coded = image.clone();
                coded[at] = code;
                let tag = image[0];
                assert_eq!(NylonMsg::from_wire(&coded).is_ok(), code <= 4, "tag {tag}: code {code}");
                assert_eq!(NylonMsg::gossip_view(&coded).is_some(), gossip && code <= 4, "code {code}");
            }
        }
        for &at in prefixes {
            let claimed = lengths::with_len(image, at, lengths::len_at(image, at).0 + 1);
            assert!(NylonMsg::from_wire(&claimed).is_err(), "tag {}: no length at {at}", image[0]);
        }
    }

    let sim = RefCell::new(sim);
    whisper_rand::check::check(1024, "nylon_decoders_are_total_on_hostile_bytes", |g| {
        let (image, prefixes, nats) = &images[g.gen_range(0..images.len())];
        let hostile = match g.gen_range(0..8u8) {
            0 => [&image[..1], &g.bytes(300)].concat(),
            1 => image[..g.gen_range(0..image.len())].to_vec(),
            2 => [&image[..], &g.bytes(8), &[0]].concat(),
            3 => {
                let (other, _, _) = &images[g.gen_range(0..images.len())];
                let (head, tail) = (g.gen_range(0..=image.len()), g.gen_range(0..=other.len()));
                [&image[..head], &other[tail..]].concat()
            }
            4 => {
                let mut flipped = image.clone();
                flipped[g.gen_range(0..image.len())] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
            5 if !nats.is_empty() => {
                // A NAT type of any value, or one of the five.
                let mut coded = image.clone();
                let code = if g.gen() { g.gen() } else { g.gen_range(0..5) };
                coded[nats[g.gen_range(0..nats.len())]] = code;
                coded
            }
            6 if !prefixes.is_empty() => {
                // A length prefix no decoder may take.
                let at = prefixes[g.gen_range(0..prefixes.len())];
                lengths::refused_prefix(g, image, at)
            }
            _ => {
                // A length that claims every byte left, one per element:
                // over a prefix, or over a byte anywhere when there is none.
                let (at, replaced) = match prefixes.len() {
                    0 => (g.gen_range(0..image.len()), 1),
                    n => {
                        let at = prefixes[g.gen_range(0..n)];
                        (at, lengths::len_at(image, at).1)
                    }
                };
                lengths::claiming_the_rest(image, at, replaced)
            }
        };
        let (decoded, largest) = watching::largest_during(|| NylonMsg::from_wire(&hostile));
        let (views, viewed) =
            watching::largest_during(|| (NylonMsg::gossip_view(&hostile).is_some(), NylonMsg::app_view(&hostile)));
        // Nothing a Nylon message holds is denser in memory than its view
        // entries — a 12-byte wire entry is a `ViewEntry` in memory — and
        // a `Vec` grows to at most twice the items it holds, and to no
        // fewer than four.
        let items = (2 * hostile.len() / 12).max(4);
        assert!(largest <= items * size_of::<ViewEntry>(), "{largest} B reserved for {} B", hostile.len());
        assert_eq!(viewed, 0, "a borrowed view allocated");
        let (gossip, app) = views;
        if let Ok(msg) = &decoded {
            let owned = as_owned_writes(&hostile, msg);
            assert_eq!(msg.to_wire(), owned, "accepted, but not what it reads back as");
        }
        if let Ok(msg @ (NylonMsg::GossipReq { entries, .. } | NylonMsg::GossipResp { entries, .. })) =
            &decoded
        {
            for (entry, at) in entries.iter().zip(nat_bytes(msg)) {
                let code = hostile[at];
                assert_eq!(entry.public, code == 0, "code {code}: read as NATted iff not 0");
            }
        }
        let as_gossip = matches!(decoded, Ok(NylonMsg::GossipReq { .. } | NylonMsg::GossipResp { .. }));
        assert_eq!(gossip, as_gossip, "gossip_view and from_wire disagree");
        match (&decoded, app) {
            (Ok(NylonMsg::App { payload }), Some(view)) => assert_eq!(&payload[..], view),
            (Ok(NylonMsg::App { .. }), None) => panic!("app_view declined an App"),
            (_, app) => assert!(app.is_none(), "app_view accepted what from_wire does not read as an App"),
        }

        // A stack handed the datagram, from a peer it knows or not.
        let from = NodeId(g.gen_range(0..30u64));
        let sim = &mut *sim.borrow_mut();
        sim.with_node_ctx::<Tap>(target, |tap, ctx| {
            let port = if from.0 < 2 { 0 } else { 1 };
            tap.inner.on_message(ctx, from, Endpoint { node: from, port }, &Payload::fresh(hostile));
        });
    });
}
