//! Property-based tests for the PSS layer: view-merge invariants under
//! arbitrary inputs, backlog invariants, and message-decoding totality.
//!
//! Written against `whisper_rand::check`: seeded case generation with
//! shrink-on-failure reporting.

use whisper_net::nat::NatType;
use whisper_net::wire::{WireDecode, WireEncode, WireLen, WireSink};
use whisper_net::{Endpoint, NodeId};
use whisper_pss::backlog::{CbEntry, ConnectionBacklog};
use whisper_pss::messages::{ChainBody, NylonMsg};
use whisper_pss::view::{Entry, View, ViewEntry, ROUTE_CAP};
use whisper_rand::check::{check, Gen};
use whisper_rand::Rng;

fn gen_entry(g: &mut Gen) -> ViewEntry {
    // `public` is a fixed attribute of a node in reality, so derive it
    // from the node id to keep generated populations consistent.
    let node = g.gen_range(0..40u64);
    ViewEntry {
        node: NodeId(node),
        age: g.gen_range(0..30u16),
        public: node % 3 == 0,
        route: g.vec(2, |g| NodeId(g.gen_range(0..40u64))),
    }
}

/// Merge invariants hold for arbitrary inputs: bounded size, no
/// duplicates, no self-entry, and at least min(Π, available publics)
/// P-nodes kept.
#[test]
fn merge_invariants() {
    // A case once found and shrunk: the node itself among the entries held,
    // the only P-node held and shipped again, fresher, among NATted ones.
    // (As found, the P-node arrived marked NATted: the merge keeps that
    // fresher copy, and a node's class is fixed in every generated case.)
    let entry = |node: u64, age: u16, public: bool| ViewEntry { node: NodeId(node), age, public, route: vec![] };
    let natted = |node: u64| entry(node, 0, false);
    let initial = [30, 0, 1, 2].map(natted).into_iter().chain([entry(18, 6, true)]);
    let initial = initial.chain([3, 4].map(natted)).collect();
    let received = vec![natted(5), natted(6), entry(18, 0, true), natted(7)];
    assert_merge_invariants(initial, received, 3, 1, false, NodeId(0));

    check(128, "merge_invariants", |g| {
        let initial = g.vec(14, gen_entry);
        let received = g.vec(14, gen_entry);
        let cap = g.gen_range(1..12usize);
        let pi = g.gen_range(0..5usize).min(cap);
        let discard: bool = g.gen();
        let me = NodeId(g.gen_range(0..40u64));
        assert_merge_invariants(initial, received, cap, pi, discard, me);
    });
}

fn assert_merge_invariants(
    initial: Vec<ViewEntry>,
    received: Vec<ViewEntry>,
    cap: usize,
    pi: usize,
    discard: bool,
    me: NodeId,
) {
    let mut view = View::new();
    for e in initial {
        if e.node != me {
            view.insert(e);
        }
    }
    // Count distinct publics available in the union.
    let mut union_nodes = std::collections::HashMap::new();
    let held = view.entries().iter().map(|e| (e.node, e.is_public()));
    for (node, public) in held.chain(received.iter().map(|e| (e.node, e.public))) {
        if node != me {
            union_nodes.entry(node).or_insert(public);
        }
    }
    let avail_publics = union_nodes.values().filter(|p| **p).count();
    let avail_total = union_nodes.len();

    view.merge(received, me, cap, pi, discard);

    assert!(view.len() <= cap, "size bound");
    assert_eq!(view.len(), view.len().min(avail_total));
    assert!(!view.contains(me), "no self-entry");
    let mut seen = std::collections::HashSet::new();
    for e in view.entries() {
        assert!(seen.insert(e.node), "duplicate {:?}", e.node);
    }
    if view.len() == cap {
        // Π is satisfied whenever enough publics existed.
        let expect = pi.min(avail_publics);
        assert!(
            view.p_count() >= expect.min(cap),
            "Π violated: {} < {}",
            view.p_count(),
            expect
        );
    }
}

/// Merge keeps, for every retained node, the freshest copy seen.
#[test]
fn merge_keeps_freshest_copy() {
    check(128, "merge_keeps_freshest_copy", |g| {
        let node = g.gen_range(0..5u64);
        let age_a = g.gen_range(0..30u16);
        let age_b = g.gen_range(0..30u16);
        let mut view = View::new();
        view.insert(ViewEntry { node: NodeId(node), age: age_a, public: false, route: vec![] });
        view.merge(
            vec![ViewEntry { node: NodeId(node), age: age_b, public: false, route: vec![] }],
            NodeId(99),
            10,
            0,
            false,
        );
        assert_eq!(view.get(NodeId(node)).unwrap().age, age_a.min(age_b));
    });
}

/// The backlog never exceeds capacity, never duplicates, and never
/// drops below Π publics as long as Π publics were ever inserted and
/// the capacity allows.
#[test]
fn backlog_invariants() {
    check(128, "backlog_invariants", |g| {
        let mut ops = g.vec(58, |g| (g.gen_range(0..30u64), g.gen::<bool>()));
        ops.push((g.gen_range(0..30u64), g.gen())); // at least one op
        let cap = g.gen_range(1..12usize);
        let pi = g.gen_range(0..4usize).min(cap);
        let mut cb = ConnectionBacklog::new(cap);
        let mut max_p_inserted = 0usize;
        for (node, public) in ops {
            cb.insert(CbEntry { node: NodeId(node), public, key: None }, pi);
            let distinct_p: std::collections::HashSet<_> =
                cb.iter().filter(|e| e.public).map(|e| e.node).collect();
            max_p_inserted = max_p_inserted.max(distinct_p.len());
            assert!(cb.len() <= cap);
            let mut seen = std::collections::HashSet::new();
            for e in cb.iter() {
                assert!(seen.insert(e.node));
            }
        }
        // Protection: once the CB held k ≤ Π publics, evictions never
        // push it below min(k, Π) while the rest of the queue has
        // N-nodes to evict instead.
        assert!(cb.p_count() <= cap);
    });
}

/// Message decoding is total on arbitrary bytes.
#[test]
fn nylon_msg_decode_never_panics() {
    check(128, "nylon_msg_decode_never_panics", |g| {
        let bytes = g.bytes(299);
        let _ = NylonMsg::from_wire(&bytes);
    });
}

/// Entry decoding is total on arbitrary bytes.
#[test]
fn view_entry_decode_never_panics() {
    check(128, "view_entry_decode_never_panics", |g| {
        let bytes = g.bytes(99);
        let _ = ViewEntry::from_wire(&bytes);
    });
}

fn gen_endpoint(g: &mut Gen) -> Endpoint {
    Endpoint { node: NodeId(g.gen_range(0..40u64)), port: g.gen() }
}

fn gen_nat(g: &mut Gen) -> NatType {
    match g.gen_range(0..5usize) {
        0 => NatType::Public,
        natted => NatType::NATTED[natted - 1],
    }
}

fn gen_opt<T>(g: &mut Gen, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    g.gen::<bool>().then(|| f(g))
}

/// An arbitrary [`NylonMsg`], uniformly across the eleven kinds on the
/// wire: a chain message once for each of its bodies.
fn gen_msg(g: &mut Gen) -> NylonMsg {
    let gen_path = |g: &mut Gen| g.vec(4, |g| NodeId(g.gen_range(0..40u64)));
    let gen_chain = |g: &mut Gen, body| NylonMsg::Chain {
        remaining: gen_path(g),
        // The origin, then the relays.
        taken: [vec![NodeId(g.gen_range(0..40u64))], gen_path(g)].concat(),
        body,
    };
    match g.gen_range(0..11u8) {
        0 => NylonMsg::GossipReq {
            sender: NodeId(g.gen_range(0..40u64)),
            sender_public: g.gen(),
            entries: g.vec(6, gen_entry),
            key: gen_opt(g, |g| g.bytes(60)),
            descs: vec![],
        },
        1 => NylonMsg::GossipResp {
            sender: NodeId(g.gen_range(0..40u64)),
            sender_public: g.gen(),
            entries: g.vec(6, gen_entry),
            key: gen_opt(g, |g| g.bytes(60)),
            descs: vec![],
        },
        2 => {
            let inner = g.bytes(80);
            gen_chain(g, ChainBody::Relayed(inner))
        }
        3 => {
            let (requester_ep, inner) = (gen_opt(g, gen_endpoint), g.bytes(80));
            gen_chain(g, ChainBody::OpenReq(requester_ep, inner))
        }
        4 => {
            let (target_ep, inner) = (gen_opt(g, gen_endpoint), g.bytes(80));
            gen_chain(g, ChainBody::OpenAck(target_ep, inner))
        }
        10 => {
            let (origin_ep, inner) = (gen_opt(g, gen_endpoint), g.bytes(80));
            gen_chain(g, ChainBody::Contact(origin_ep, inner))
        }
        5 => NylonMsg::Punch { from: NodeId(g.gen_range(0..40u64)), key: gen_opt(g, |g| g.bytes(60)) },
        6 => NylonMsg::PunchAck { from: NodeId(g.gen_range(0..40u64)), key: gen_opt(g, |g| g.bytes(60)) },
        7 => NylonMsg::Ping { from: NodeId(g.gen_range(0..40u64)), key: gen_opt(g, |g| g.bytes(60)) },
        8 => NylonMsg::Pong { from: NodeId(g.gen_range(0..40u64)), key: gen_opt(g, |g| g.bytes(60)) },
        _ => NylonMsg::App { payload: g.bytes(120) },
    }
}

/// Every message round-trips through the codec, and `encoded_len()` —
/// the serialization fast path's exact pre-sizing contract (DESIGN.md
/// §16) — agrees byte-for-byte with what `encode()` actually writes.
#[test]
fn nylon_msg_round_trip_and_exact_len() {
    check(256, "nylon_msg_round_trip_and_exact_len", |g| {
        let msg = gen_msg(g);
        let bytes = msg.to_wire();
        assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len mismatch for {msg:?}");
        assert_eq!(NylonMsg::from_wire(&bytes).unwrap(), msg);
    });
}

/// [`ViewEntry`] round-trips with an exact `encoded_len()`.
#[test]
fn view_entry_round_trip_and_exact_len() {
    check(128, "view_entry_round_trip_and_exact_len", |g| {
        let entry = gen_entry(g);
        let bytes = entry.to_wire();
        assert_eq!(bytes.len(), entry.encoded_len());
        assert_eq!(ViewEntry::from_wire(&bytes).unwrap(), entry);
    });
}

/// Offset of an entry's NAT type in its wire image: behind node and age.
const ENTRY_NAT_AT: usize = 8 + 2;

/// The byte an entry carries for its node's NAT type: each of the codes
/// 0–4 round-trips through [`Entry`] as its type, the owned form reads the
/// four NATted ones as NATted (and converts back to a symmetric entry),
/// and both decoders refuse every code above 4.
#[test]
fn an_entry_carries_its_nat_type_and_nothing_else() {
    check(256, "an_entry_carries_its_nat_type_and_nothing_else", |g| {
        let route = g.vec(ROUTE_CAP, |g| NodeId(g.gen_range(0..40u64)));
        let nat = gen_nat(g);
        let entry = Entry::new(NodeId(g.gen_range(0..40u64)), g.gen(), nat, &route);
        let mut wire = entry.to_wire();
        assert_eq!(wire[ENTRY_NAT_AT..ENTRY_NAT_AT + 1], nat.to_wire()[..]);
        assert_eq!(Entry::from_wire(&wire), Ok(entry));
        let owned = ViewEntry::from_wire(&wire).expect("the owned form reads what Entry does");
        assert_eq!(owned, ViewEntry::from(&entry));
        assert_eq!(owned.public, nat.is_public());
        let natted_as = if nat.is_public() { NatType::Public } else { NatType::Symmetric };
        assert_eq!(Entry::from(&owned).nat, natted_as);
        assert_eq!(owned.to_wire(), Entry::from(&owned).to_wire());
        wire[ENTRY_NAT_AT] = g.gen_range(5..=u8::MAX);
        assert!(Entry::from_wire(&wire).is_err());
        assert!(ViewEntry::from_wire(&wire).is_err());
    });
}

/// The borrowed gossip decoder accepts exactly what the owned one decodes
/// as a gossip message — neither takes a chain beyond the cap or a NAT
/// type above 4 — and lends the same sender, flag, entries (read as the
/// owned form reads them) and key: on honest encodings of every variant
/// and on truncated, extended, bit-flipped and arbitrary byte strings.
#[test]
fn gossip_view_agrees_with_the_owned_decoder() {
    check(2048, "gossip_view_agrees_with_the_owned_decoder", |g| {
        let mut msg = gen_msg(g);
        // Offsets of the tag, of the sender's flag and (gossip only) of
        // the entries' NAT types and the key's presence byte: where one
        // wrong value decides.
        let mut decisive = vec![0, 9];
        if let NylonMsg::GossipReq { entries, .. } | NylonMsg::GossipResp { entries, .. } = &mut msg
        {
            // Chains up to the cap and, in one message of four, one beyond.
            for entry in entries.iter_mut() {
                entry.route = g.vec(ROUTE_CAP, |g| NodeId(g.gen_range(0..40u64)));
            }
            if let Some(entry) = entries.last_mut().filter(|_| g.gen_range(0..4u8) == 0) {
                entry.route = vec![NodeId(7); ROUTE_CAP + g.gen_range(1..3usize)];
            }
            let mut at = 10 + WireLen::of(|n| n.put_len(entries.len()));
            for entry in entries.iter() {
                decisive.push(at + ENTRY_NAT_AT);
                at += entry.encoded_len();
            }
            decisive.push(at);
        }
        let mut wire = msg.to_wire();
        match g.gen_range(0..6u8) {
            0 => {}
            1 => wire.truncate(g.gen_range(0..=wire.len())),
            2 => wire.extend(g.bytes(12)),
            3 => {
                for _ in 0..g.gen_range(1..4u8) {
                    let at = g.gen_range(0..wire.len());
                    wire[at] ^= 1 << g.gen_range(0..8u8);
                }
            }
            4 => {
                let at = decisive[g.gen_range(0..decisive.len())].min(wire.len() - 1);
                wire[at] = g.gen_range(0..7u8);
            }
            _ => wire = g.bytes(120),
        }
        let view = NylonMsg::gossip_view(&wire);
        let (request, sender, sender_public, entries, key) = match NylonMsg::from_wire(&wire) {
            Ok(NylonMsg::GossipReq { sender, sender_public, entries, key, .. }) => {
                (true, sender, sender_public, entries, key)
            }
            Ok(NylonMsg::GossipResp { sender, sender_public, entries, key, .. }) => {
                (false, sender, sender_public, entries, key)
            }
            _ => {
                assert!(view.is_none(), "the view accepted what the owned decoder did not");
                return;
            }
        };
        let view = view.expect("the view declined a gossip message");
        assert_eq!((view.request, view.sender, view.sender_public), (request, sender, sender_public));
        assert_eq!(view.key, key.as_deref());
        assert_eq!(view.entries().map(|e| ViewEntry::from(&e)).collect::<Vec<ViewEntry>>(), entries);
    });
}
