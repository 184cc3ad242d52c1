//! Property-based tests for the PSS layer: view-merge invariants under
//! arbitrary inputs, backlog invariants, and message-decoding totality.
//!
//! Written against `whisper_rand::check`: seeded case generation with
//! shrink-on-failure reporting.

use whisper_net::nat::NatType;
use whisper_net::wire::{WireDecode, WireEncode};
use whisper_net::{Endpoint, NodeId};
use whisper_pss::backlog::{CbEntry, ConnectionBacklog};
use whisper_pss::descriptors::DescriptorBlob;
use whisper_pss::messages::NylonMsg;
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
    check(128, "merge_invariants", |g| {
        let initial = g.vec(14, gen_entry);
        let received = g.vec(14, gen_entry);
        let cap = g.gen_range(1..12usize);
        let pi = g.gen_range(0..5usize).min(cap);
        let discard: bool = g.gen();
        let me = NodeId(g.gen_range(0..40u64));
        let mut view = View::new();
        for e in initial {
            if e.node != me {
                view.insert(e);
            }
        }
        // Count distinct publics available in the union.
        let mut union_nodes = std::collections::HashMap::new();
        let held = view.entries().iter().map(|e| (e.node, e.public));
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
    });
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

fn gen_blob(g: &mut Gen) -> DescriptorBlob {
    DescriptorBlob {
        id: ((g.gen::<u64>() as u128) << 64) | g.gen::<u64>() as u128,
        version: g.gen(),
        bytes: g.bytes(40),
    }
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

/// An arbitrary [`NylonMsg`], uniformly across all ten variants.
fn gen_msg(g: &mut Gen) -> NylonMsg {
    let gen_path = |g: &mut Gen| g.vec(4, |g| NodeId(g.gen_range(0..40u64)));
    match g.gen_range(0..10u8) {
        0 => NylonMsg::GossipReq {
            sender: NodeId(g.gen_range(0..40u64)),
            sender_public: g.gen(),
            entries: g.vec(6, gen_entry),
            key: gen_opt(g, |g| g.bytes(60)),
            descs: g.vec(3, gen_blob),
        },
        1 => NylonMsg::GossipResp {
            sender: NodeId(g.gen_range(0..40u64)),
            sender_public: g.gen(),
            entries: g.vec(6, gen_entry),
            key: gen_opt(g, |g| g.bytes(60)),
            descs: g.vec(3, gen_blob),
        },
        2 => NylonMsg::Relayed {
            from: NodeId(g.gen_range(0..40u64)),
            remaining: gen_path(g),
            path_back: gen_path(g),
            inner: g.bytes(80),
        },
        3 => NylonMsg::OpenReq {
            requester: NodeId(g.gen_range(0..40u64)),
            requester_nat: gen_nat(g),
            requester_ep: gen_opt(g, gen_endpoint),
            remaining: gen_path(g),
            path_back: gen_path(g),
        },
        4 => NylonMsg::OpenAck {
            target: NodeId(g.gen_range(0..40u64)),
            target_nat: gen_nat(g),
            target_ep: gen_opt(g, gen_endpoint),
            remaining: gen_path(g),
        },
        5 => NylonMsg::Punch { from: NodeId(g.gen_range(0..40u64)) },
        6 => NylonMsg::PunchAck { from: NodeId(g.gen_range(0..40u64)) },
        7 => NylonMsg::Ping { from: NodeId(g.gen_range(0..40u64)), key: gen_opt(g, |g| g.bytes(60)) },
        8 => NylonMsg::Pong { from: NodeId(g.gen_range(0..40u64)), key: gen_opt(g, |g| g.bytes(60)) },
        _ => NylonMsg::App { from: NodeId(g.gen_range(0..40u64)), payload: g.bytes(120) },
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

/// The NAT type an `OpenReq` / `OpenAck` carries is one of the five or the
/// message is refused: whatever the byte holds, decoding neither panics
/// nor settles for a default type.
#[test]
fn open_handshake_refuses_unknown_nat_codes() {
    const NAT_AT: usize = 1 + 8; // behind the tag and the requester / target
    check(512, "open_handshake_refuses_unknown_nat_codes", |g| {
        let path = g.vec(4, |g| NodeId(g.gen_range(0..40u64)));
        let msg = if g.gen() {
            NylonMsg::OpenReq {
                requester: NodeId(g.gen_range(0..40u64)),
                requester_nat: gen_nat(g),
                requester_ep: gen_opt(g, gen_endpoint),
                remaining: path.clone(),
                path_back: path,
            }
        } else {
            NylonMsg::OpenAck {
                target: NodeId(g.gen_range(0..40u64)),
                target_nat: gen_nat(g),
                target_ep: gen_opt(g, gen_endpoint),
                remaining: path,
            }
        };
        let mut wire = msg.to_wire();
        let code: u8 = if g.gen() { g.gen_range(0..8u8) } else { g.gen() };
        wire[NAT_AT] = code;
        match (NylonMsg::from_wire(&wire), NatType::from_wire(&[code])) {
            (Ok(NylonMsg::OpenReq { requester_nat: nat, .. }), Ok(expected))
            | (Ok(NylonMsg::OpenAck { target_nat: nat, .. }), Ok(expected)) => {
                assert_eq!(nat, expected)
            }
            (Err(_), Err(_)) => assert!(code >= 5, "code {code} is a NAT type"),
            (decoded, nat) => panic!("code {code}: message {decoded:?}, NAT type {nat:?}"),
        }
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

/// [`DescriptorBlob`] round-trips with an exact `encoded_len()`.
#[test]
fn descriptor_blob_round_trip_and_exact_len() {
    check(128, "descriptor_blob_round_trip_and_exact_len", |g| {
        let blob = gen_blob(g);
        let bytes = blob.to_wire();
        assert_eq!(bytes.len(), blob.encoded_len());
        assert_eq!(DescriptorBlob::from_wire(&bytes).unwrap(), blob);
    });
}

/// The borrowed gossip decoder accepts exactly what the owned one decodes
/// as a gossip message — neither takes a chain beyond the cap — and lends
/// the same sender, flag, entries, key and blobs: on honest encodings of
/// every variant and on truncated, extended, bit-flipped and arbitrary
/// byte strings.
#[test]
fn gossip_view_agrees_with_the_owned_decoder() {
    check(2048, "gossip_view_agrees_with_the_owned_decoder", |g| {
        let mut msg = gen_msg(g);
        // Offsets of the tag, of the sender's flag and (gossip only) of
        // the key's presence byte: where one wrong value decides.
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
            decisive.push(10 + whisper_net::wire::seq_len(entries));
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
                wire[at] = g.gen_range(0..4u8);
            }
            _ => wire = g.bytes(120),
        }
        let view = NylonMsg::gossip_view(&wire);
        let (request, sender, sender_public, entries, key, descs) = match NylonMsg::from_wire(&wire)
        {
            Ok(NylonMsg::GossipReq { sender, sender_public, entries, key, descs }) => {
                (true, sender, sender_public, entries, key, descs)
            }
            Ok(NylonMsg::GossipResp { sender, sender_public, entries, key, descs }) => {
                (false, sender, sender_public, entries, key, descs)
            }
            _ => {
                assert!(view.is_none(), "the view accepted what the owned decoder did not");
                return;
            }
        };
        let view = view.expect("the view declined a gossip message");
        assert_eq!((view.request, view.sender, view.sender_public), (request, sender, sender_public));
        assert_eq!(view.key, key.as_deref());
        assert_eq!(
            view.entries().collect::<Vec<Entry>>(),
            entries.iter().map(Entry::from).collect::<Vec<Entry>>()
        );
        let blobs: Vec<DescriptorBlob> = view
            .descs()
            .map(|(id, version, bytes)| DescriptorBlob { id, version, bytes: bytes.to_vec() })
            .collect();
        assert_eq!(blobs, descs);
    });
}
