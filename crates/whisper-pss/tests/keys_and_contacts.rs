//! Where a peer's key and contact live: the key a message carries goes
//! into the connection-backlog entry of its sender and nowhere else, and
//! the transport remembers where NATted senders' packets came from — a
//! public sender is reachable at its public endpoint anyway. And what
//! the transport makes of that knowledge: the five routes an application
//! frame can take out of a node, and the two ends of an open.

use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode, WireSink};
use whisper_net::{Endpoint, NodeId, Payload};
use whisper_pss::messages::{ChainBody, NylonMsg};
use whisper_pss::transport::SendOutcome;
use whisper_pss::view::ViewEntry;
use whisper_pss::{NylonConfig, NylonCore, NylonNode};
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

/// A lone public node; messages are handed to it as if they had just
/// arrived.
fn lone_node() -> (Sim, NodeId, StdRng) {
    lone_node_behind(NatType::Public)
}

fn lone_node_behind(nat: NatType) -> (Sim, NodeId, StdRng) {
    let cfg = NylonConfig::default();
    let mut keyrng = StdRng::seed_from_u64(42);
    let mut sim = Sim::new(SimConfig::cluster(42));
    let core = NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, &mut keyrng));
    let id = sim.add_node(Box::new(NylonNode::new(core)), nat);
    sim.run_for_secs(1);
    (sim, id, keyrng)
}

fn deliver(sim: &mut Sim, to: NodeId, from_ep: Endpoint, msg: &NylonMsg) {
    let wire = msg.to_wire();
    assert!(sim.with_node_ctx::<NylonNode>(to, |node, ctx| {
        drop(node.core_mut().on_message(ctx, from_ep.node, from_ep, &wire));
    }));
}

fn gossip_req(sender: NodeId, key: Option<Vec<u8>>) -> NylonMsg {
    NylonMsg::GossipReq { sender, sender_public: false, entries: vec![], key, descs: vec![] }
}

fn cb_key(sim: &Sim, id: NodeId, peer: NodeId) -> Option<PublicKey> {
    sim.node::<NylonNode>(id).unwrap().core().cb().get(peer).expect("peer in the CB").key.clone()
}

#[test]
fn the_backlog_entry_holds_the_key_its_sender_shipped() {
    let (mut sim, id, mut keyrng) = lone_node();
    let rsa = NylonConfig::default().rsa;
    let first = KeyPair::generate(rsa, &mut keyrng).public().clone();
    let second = KeyPair::generate(rsa, &mut keyrng).public().clone();
    let peer = NodeId(77);
    let peer_ep = Endpoint { node: peer, port: 9 };

    deliver(&mut sim, id, peer_ep, &gossip_req(peer, Some(first.to_bytes())));
    assert_eq!(cb_key(&sim, id, peer), Some(first.clone()));

    // Keyless, and malformed in each way the strict parser rejects —
    // empty, shorter than a key, led by a zero byte: the entry keeps the
    // key it has.
    let zero_led = [&[0][..], &second.to_bytes()].concat();
    for key in [None, Some(vec![]), Some(vec![0xFF; 20]), Some(zero_led)] {
        deliver(&mut sim, id, peer_ep, &gossip_req(peer, key));
        assert_eq!(cb_key(&sim, id, peer), Some(first.clone()));
    }
    // A ping carries a key too; so does the pong that puts a P-node in.
    deliver(&mut sim, id, peer_ep, &NylonMsg::Ping { from: peer, key: Some(second.to_bytes()) });
    assert_eq!(cb_key(&sim, id, peer), Some(second.clone()));
    deliver(&mut sim, id, peer_ep, &gossip_req(peer, Some(first.to_bytes())));
    assert_eq!(cb_key(&sim, id, peer), Some(first.clone()), "the latest key shipped wins");
    let p_node = NodeId(78);
    deliver(
        &mut sim,
        id,
        Endpoint::public(p_node),
        &NylonMsg::Pong { from: p_node, key: Some(second.to_bytes()) },
    );
    assert_eq!(cb_key(&sim, id, p_node), Some(second));
    // A ping from a stranger leaves no trace: there is no entry to hold it.
    deliver(&mut sim, id, peer_ep, &NylonMsg::Ping { from: NodeId(79), key: Some(first.to_bytes()) });
    assert!(sim.node::<NylonNode>(id).unwrap().core().cb().get(NodeId(79)).is_none());

    // A restart forgets the backlog and the keys with it: a keyless
    // message — gossip that rode a chain ships none — puts no peer in,
    // since the backlog holds peers whose key it knows.
    sim.with_node_ctx::<NylonNode>(id, |node, ctx| node.core_mut().on_restart(ctx));
    assert!(sim.node::<NylonNode>(id).unwrap().core().cb().is_empty());
    deliver(&mut sim, id, peer_ep, &gossip_req(peer, None));
    let cb = |sim: &Sim| sim.node::<NylonNode>(id).unwrap().core().cb().get(peer).cloned();
    assert!(cb(&sim).is_none(), "nothing remembered the key across the restart");
    deliver(&mut sim, id, peer_ep, &gossip_req(peer, Some(first.to_bytes())));
    assert_eq!(cb_key(&sim, id, peer), Some(first), "in with the key it shipped");
}

/// A modulus of `len` bytes, top bit set, odd or even as asked.
fn modulus_image(len: usize, odd: bool) -> Vec<u8> {
    let mut n: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
    n[0] |= 0x80;
    n[len - 1] = if odd { n[len - 1] | 1 } else { n[len - 1] & !1 };
    n
}

/// A key no node could have made — 4 KiB, whose every use would cost
/// what thousands of real keys do; a Sim384-sized even one; a 512-bit
/// odd one — is refused where the message is read: the backlog entry
/// of its sender keeps the key it had.
#[test]
fn a_key_no_node_makes_leaves_the_backlog_key_as_it_was() {
    let (mut sim, id, mut keyrng) = lone_node();
    let held = KeyPair::generate(NylonConfig::default().rsa, &mut keyrng).public().clone();
    let peer = NodeId(77);
    let peer_ep = Endpoint { node: peer, port: 9 };
    deliver(&mut sim, id, peer_ep, &gossip_req(peer, Some(held.to_bytes())));
    assert_eq!(cb_key(&sim, id, peer), Some(held.clone()));
    for (len, odd) in [(4096, true), (48, false), (64, true)] {
        let key = Some(modulus_image(len, odd));
        deliver(&mut sim, id, peer_ep, &NylonMsg::Ping { from: peer, key: key.clone() });
        assert_eq!(cb_key(&sim, id, peer), Some(held.clone()), "a ping with {len} bytes, odd {odd}");
        deliver(&mut sim, id, peer_ep, &gossip_req(peer, key));
        assert_eq!(cb_key(&sim, id, peer), Some(held.clone()), "gossip with {len} bytes, odd {odd}");
    }
}

#[test]
fn contacts_are_kept_for_natted_senders_only_and_both_stay_reachable() {
    let (mut sim, id, _) = lone_node();
    let natted = Endpoint { node: NodeId(70), port: 4242 };
    let public = Endpoint::public(NodeId(71));
    deliver(&mut sim, id, natted, &NylonMsg::Punch { from: natted.node, key: None });
    deliver(&mut sim, id, public, &NylonMsg::Punch { from: public.node, key: None });
    let now = sim.now();
    let core = sim.node::<NylonNode>(id).unwrap().core();
    // Asked about a peer it is told nothing of, the transport answers
    // from its contacts alone.
    assert!(core.can_reach_directly(natted.node, false, now), "contact recorded");
    assert!(!core.can_reach_directly(public.node, false, now), "no contact needed, none kept");
    assert!(core.can_reach_directly(public.node, true, now));

    let sent_before = sim.metrics().counter("net.payload_pooled");
    sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
        let core = node.core_mut();
        // The directory entry a sender holds says which kind the peer is.
        let public_nat = Some(NatType::Public);
        assert_eq!(core.send_app(ctx, natted.node, None, &[], b"x".to_vec()), SendOutcome::Direct);
        assert_eq!(core.send_app(ctx, public.node, public_nat, &[], b"x".to_vec()), SendOutcome::Direct);
    });
    assert_eq!(sim.metrics().counter("net.payload_pooled"), sent_before + 2, "both left directly");
    assert_eq!(sim.metrics().counter("pss.send_failed"), 0);
}

/// A relayed message is unwrapped once, at its destination. A chain
/// message inside a relayed one is nothing an honest sender builds, and unwrapping
/// it level by level let a single packet exhaust the stack (a debug build
/// died at 1 000 levels, a release build at 5 000): the inner one is
/// dropped and counted, and the node lives on.
#[test]
fn a_relayed_message_is_unwrapped_once_however_deep_the_sender_nested() {
    let (mut sim, id, mut keyrng) = lone_node();
    let (peer, relay) = (NodeId(77), Endpoint { node: NodeId(76), port: 9 });
    let relayed = |inner: Vec<u8>| NylonMsg::Chain {
        remaining: vec![],
        taken: vec![peer, relay.node],
        body: ChainBody::Relayed(inner),
    };

    let mut wire = NylonMsg::Punch { from: peer, key: None }.to_wire();
    for _ in 0..10_000 {
        wire = relayed(wire).to_wire();
    }
    assert!(sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
        drop(node.core_mut().on_message(ctx, relay.node, relay, &wire));
    }));
    assert_eq!(sim.metrics().counter("pss.relayed_delivered"), 1);
    assert_eq!(sim.metrics().counter("pss.relayed_nested"), 1);

    // What relays do carry still arrives: a gossip request, wrapped once.
    let key = KeyPair::generate(NylonConfig::default().rsa, &mut keyrng).public().clone();
    let request = gossip_req(peer, Some(key.to_bytes())).to_wire();
    deliver(&mut sim, id, relay, &relayed(request));
    assert_eq!(cb_key(&sim, id, peer), Some(key), "the relayed request was merged");
    assert_eq!(sim.metrics().counter("pss.relayed_delivered"), 2);
    assert_eq!(sim.metrics().counter("pss.relayed_nested"), 1);
}

/// A chain message names its origin once, as the first of the hops taken:
/// one with no hops taken has no origin, and is refused as malformed — at
/// its destination and on its way, whatever it carries — before anything
/// reads it.
#[test]
fn a_chain_message_with_no_origin_is_malformed() {
    let (mut sim, id, _) = lone_node();
    let from = Endpoint { node: NodeId(76), port: 9 };
    let ep = Some(from);
    let mut sent = 0;
    let bodies = [
        ChainBody::Relayed(b"x".to_vec()),
        ChainBody::Contact(ep, b"x".to_vec()),
        ChainBody::OpenReq(ep, b"x".to_vec()),
        ChainBody::OpenAck(None, vec![]),
    ];
    for body in bodies {
        for remaining in [vec![], vec![NodeId(75)]] {
            let msg = NylonMsg::Chain { remaining, taken: vec![], body: body.clone() };
            deliver(&mut sim, id, from, &msg);
            sent += 1;
            assert_eq!(sim.metrics().counter("pss.malformed"), sent, "{msg:?}");
        }
    }
    assert_eq!(sim.in_flight_msgs(), 0, "nothing forwarded, answered or punched");
    let m = sim.metrics();
    assert_eq!(m.counter("pss.relayed_delivered") + m.counter("pss.open_served"), 0);
}

/// The endpoint a chain message's body carries, if it has the room for one.
fn stamp(body: &ChainBody) -> Option<Endpoint> {
    match body {
        ChainBody::Relayed(_) => None,
        ChainBody::Contact(seen, _) | ChainBody::OpenReq(seen, _) | ChainBody::OpenAck(seen, _) => *seen,
    }
}

/// The endpoint in an open body, or in a cone-NATted origin's message, is
/// where the first hop saw the origin — the target punches it or answers
/// there, the requester takes it for the target's contact and punches it. The first hop writes it over whatever the
/// sender put there, and clears it when the packet did not come straight
/// from the origin the message names; a later hop leaves it as it is.
#[test]
fn an_endpoint_stamp_belongs_to_the_first_hop_alone() {
    let (mut sim, id, _) = lone_node();
    let next = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let (origin, relay) = (Endpoint { node: NodeId(70), port: 9 }, Endpoint { node: NodeId(71), port: 4 });
    let aimed = Some(Endpoint { node: NodeId(72), port: 80 });
    let bodies = [
        ChainBody::Contact(aimed, b"x".to_vec()),
        ChainBody::OpenReq(aimed, b"x".to_vec()),
        ChainBody::OpenAck(aimed, vec![]),
    ];
    for body in bodies {
        // (who hands it over, the hops taken, the stamp the next hop gets)
        let cases = [
            (origin, vec![origin.node], Some(origin)),
            (relay, vec![origin.node], None),
            (relay, vec![origin.node, relay.node], aimed),
        ];
        for (from, taken, stamped) in cases {
            let msg = NylonMsg::Chain { remaining: vec![next], taken, body: body.clone() };
            deliver(&mut sim, id, from, &msg);
            sim.run_for_secs(1);
            let got = sim.node_mut::<Recorder>(next).unwrap().got.pop().expect("forwarded");
            let Ok(NylonMsg::Chain { body: forwarded, .. }) = NylonMsg::from_wire(&got) else {
                panic!("not a chain message: {got:02x?}");
            };
            assert_eq!(stamp(&forwarded), stamped, "{msg:?} from {from:?}");
        }
    }
}

/// A stamp reaches the destination from a hop the message names as its
/// first, and any node can name itself that: a `Contact` forged to look
/// two hops old, stamped with an endpoint of the forger's choosing, is
/// answered at the contact the destination holds for the origin, and
/// leaves that contact, and what is sent after it, where they were.
#[test]
fn a_stamp_never_replaces_a_fresh_contact() {
    let (mut sim, id, _) = lone_node();
    let victim = sim.add_node(Box::<Recorder>::default(), NatType::FullCone);
    let elsewhere = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let got = |sim: &mut Sim, host: NodeId| std::mem::take(&mut sim.node_mut::<Recorder>(host).unwrap().got);
    // The victim's own packet leaves the destination its contact.
    assert!(sim.with_node_ctx::<Recorder>(victim, |_, ctx| {
        ctx.send_wire(Endpoint::public(id), &NylonMsg::Punch { from: victim, key: None });
    }));
    sim.run_for_secs(1);
    assert!(sim.node::<NylonNode>(id).unwrap().core().can_reach_directly(victim, false, sim.now()));
    got(&mut sim, victim);

    let forger = Endpoint::public(NodeId(71));
    let forged = NylonMsg::Chain {
        remaining: vec![],
        taken: vec![victim, forger.node],
        body: ChainBody::Contact(Some(Endpoint { node: elsewhere, port: 80 }), gossip_req(victim, None).to_wire()),
    };
    deliver(&mut sim, id, forger, &forged);
    sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
        let outcome = node.core_mut().send_app(ctx, victim, None, &[], PAYLOAD.to_vec());
        assert_eq!(outcome, SendOutcome::Direct);
    });
    sim.run_for_secs(1);
    assert!(got(&mut sim, elsewhere).is_empty(), "nothing went where the stamp pointed");
    let msgs: Vec<_> = got(&mut sim, victim).iter().map(|wire| NylonMsg::from_wire(wire)).collect();
    let answered = msgs.iter().any(|m| matches!(m, Ok(NylonMsg::GossipResp { .. })));
    let sent = msgs.iter().any(|m| matches!(m, Ok(NylonMsg::App { .. })));
    assert!(msgs.len() == 2 && answered && sent, "the answer and the next send reach the victim: {msgs:?}");
}

/// A first contact that gets no answer is not sent again by the
/// transport, and nothing after it is sent as one: the chain it went over
/// is the way to the peer until the peer's answer leaves a contact, so
/// what follows — or the retry of a request whose answer was lost — goes
/// over it as a `Relayed`, costing nothing when the answer comes.
#[test]
fn a_first_contact_leaves_its_chain_as_the_way_to_the_peer_until_the_answer() {
    let (mut sim, id, _) = lone_node_behind(NatType::FullCone);
    let relay = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let stranger = NodeId(70);
    let send = |sim: &mut Sim| {
        let mut outcome = None;
        assert!(sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
            outcome = Some(node.core_mut().send_app(ctx, stranger, None, &[relay], PAYLOAD.to_vec()));
        }));
        outcome.unwrap()
    };
    for _ in 0..2 {
        assert_eq!(send(&mut sim), SendOutcome::Relayed);
        sim.run_for_secs(1);
    }
    let bodies: Vec<_> = std::mem::take(&mut sim.node_mut::<Recorder>(relay).unwrap().got)
        .iter()
        .map(|wire| match NylonMsg::from_wire(wire) {
            Ok(NylonMsg::Chain { body, .. }) => body,
            other => panic!("not a chain message: {other:?}"),
        })
        .collect();
    let app = NylonMsg::App { payload: PAYLOAD.to_vec() }.to_wire();
    assert_eq!(bodies, [ChainBody::Contact(None, app.clone()), ChainBody::Relayed(app)]);
    assert_eq!(sim.metrics().counter("pss.contact_sent"), 1);

    deliver(&mut sim, id, Endpoint { node: stranger, port: 9 }, &NylonMsg::PunchAck { from: stranger, key: None });
    assert_eq!(send(&mut sim), SendOutcome::Direct, "the answer left a contact");
}

/// Every packet `host` was sent since the last call, decoded.
fn taken_from(sim: &mut Sim, host: NodeId) -> Vec<NylonMsg> {
    let got = std::mem::take(&mut sim.node_mut::<Recorder>(host).unwrap().got);
    got.iter().map(|wire| NylonMsg::from_wire(wire).expect("a Nylon message")).collect()
}

/// The target of an open request punches the endpoint the first hop
/// stamped, once and keyless, handles the message inside as a relayed one
/// and answers it once, in the acknowledgement, over the hops the request
/// took: a gossip request by its response, keyless as relayed gossip is;
/// an application frame, which gets no answer, by an empty one.
#[test]
fn an_open_request_is_answered_once_in_its_acknowledgement() {
    let (mut sim, id, _) = lone_node_behind(NatType::FullCone);
    let relay = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let requester = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let stamp = Endpoint { node: requester, port: 5 };
    let request = |inner: Vec<u8>| NylonMsg::Chain {
        remaining: vec![],
        taken: vec![requester, relay],
        body: ChainBody::OpenReq(Some(stamp), inner),
    };
    let gossip = gossip_req(requester, None).to_wire();
    let app = NylonMsg::App { payload: PAYLOAD.to_vec() }.to_wire();
    for (inner, event) in [(gossip, false), (app, true)] {
        let mut got = None;
        let wire = request(inner.clone()).to_wire();
        sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
            got = node.core_mut().on_message(ctx, relay, Endpoint::public(relay), &wire);
        });
        assert_eq!(got.is_some(), event, "only the application frame makes an upcall");
        sim.run_for_secs(1);
        assert_eq!(taken_from(&mut sim, requester), [NylonMsg::Punch { from: id, key: None }]);
        let back = taken_from(&mut sim, relay);
        let [NylonMsg::Chain { remaining, taken, body: ChainBody::OpenAck(None, answer) }] = &back[..] else {
            panic!("not one acknowledgement: {back:?}");
        };
        assert_eq!((&remaining[..], &taken[..]), (&[requester][..], &[id][..]));
        match NylonMsg::gossip_view(answer) {
            Some(response) => {
                assert!(!event && !response.request && response.sender == id);
                assert_eq!(response.key, None, "relayed gossip carries no key");
            }
            None => assert!(event && answer.is_empty(), "an empty acknowledgement: {answer:02x?}"),
        }
    }
    assert_eq!(sim.metrics().counter("pss.open_served"), 2);
}

/// An acknowledgement counts only for an open this node started and still
/// waits for: before it sends one, and after the first acknowledgement,
/// an acknowledgement plants no contact, sends no `Punch` and hands
/// nothing up. The one in between ends the exchange and sends the
/// requester's one `Punch`, with its key, to the endpoint it names — but
/// leaves no contact: the target's `PunchAck`, a direct packet, does, and
/// counts as `pss.open_punch_ok` once, as the answer of that open alone.
/// The answer's entries, which hold for a node that reaches the target
/// directly, enter the view with that `PunchAck` — not with one a hop
/// relays in the target's name.
#[test]
fn an_open_acknowledgement_counts_only_for_an_open_this_node_started() {
    let (mut sim, id, _) = lone_node_behind(NatType::PortRestrictedCone);
    let relay = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let target = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let target_ep = Endpoint { node: target, port: 5 };
    let itself = ViewEntry { node: target, age: 0, public: false, route: vec![] };
    let response =
        NylonMsg::GossipResp { sender: target, sender_public: false, entries: vec![itself], key: None, descs: vec![] };
    let in_view = |sim: &Sim| sim.node::<NylonNode>(id).unwrap().core().view().contains(target);
    let ack = NylonMsg::Chain {
        remaining: vec![],
        taken: vec![target, relay],
        body: ChainBody::OpenAck(Some(target_ep), response.to_wire()),
    }
    .to_wire();
    let acknowledge = |sim: &mut Sim| {
        let mut event = None;
        sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
            event = node.core_mut().on_message(ctx, relay, Endpoint::public(relay), &ack);
        });
        sim.run_for_secs(1);
        (event, sim.node::<NylonNode>(id).unwrap().core().can_reach_directly(target, false, sim.now()))
    };
    assert_eq!(acknowledge(&mut sim), (None, false), "no open was started");
    assert!(taken_from(&mut sim, target).is_empty(), "and no Punch sent");

    sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
        let outcome = node.core_mut().send_app(ctx, target, Some(NatType::FullCone), &[relay], PAYLOAD.to_vec());
        assert_eq!(outcome, SendOutcome::Relayed);
    });
    sim.run_for_secs(1);
    let [NylonMsg::Chain { body: ChainBody::OpenReq(..), .. }] = &taken_from(&mut sim, relay)[..] else {
        panic!("no open request");
    };
    let key = sim.node::<NylonNode>(id).unwrap().core().keypair().public().to_bytes();
    let completed = Some(whisper_pss::NylonEvent::GossipCompleted { partner: target });
    assert_eq!(acknowledge(&mut sim), (completed, false), "the answer, and no contact from the stamp");
    assert!(!in_view(&sim), "the answer's entries wait for the PunchAck");
    assert_eq!(taken_from(&mut sim, target), [NylonMsg::Punch { from: id, key: Some(key) }]);
    assert_eq!(acknowledge(&mut sim), (None, false), "one acknowledgement per open");
    assert!(taken_from(&mut sim, target).is_empty(), "one Punch");

    let punch_ack = NylonMsg::PunchAck { from: target, key: None };
    let relayed =
        NylonMsg::Chain { remaining: vec![], taken: vec![target, relay], body: ChainBody::Relayed(punch_ack.to_wire()) };
    deliver(&mut sim, id, Endpoint::public(relay), &relayed);
    assert_eq!(sim.metrics().counter("pss.open_punch_ok"), 0, "a PunchAck relayed in the target's name");
    assert!(!in_view(&sim));
    deliver(&mut sim, id, target_ep, &punch_ack);
    let reaches = sim.node::<NylonNode>(id).unwrap().core().can_reach_directly(target, false, sim.now());
    assert!(reaches && in_view(&sim), "the PunchAck left the contact, and the answer's entries");
    deliver(&mut sim, id, target_ep, &punch_ack);
    assert_eq!(sim.metrics().counter("pss.open_punch_ok"), 1, "the open's PunchAck, and no other");
}

/// Any hop of a chain can forge the acknowledgement of an open that went
/// over it, named two hops old so that nobody stamps it again, with an
/// endpoint of its choosing. The requester sends that endpoint its
/// `Punch` and nothing else: the endpoint does not become the target's
/// contact, and what the requester sends the target next goes down the
/// chain, to the target.
#[test]
fn a_forged_acknowledgement_leaves_the_way_to_the_target_where_it_was() {
    let (mut sim, id, _) = lone_node_behind(NatType::PortRestrictedCone);
    let relay = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let target = NodeId(70);
    let elsewhere = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let send = |sim: &mut Sim| {
        let mut outcome = None;
        assert!(sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
            outcome = Some(node.core_mut().send_app(ctx, target, Some(NatType::FullCone), &[relay], PAYLOAD.to_vec()));
        }));
        sim.run_for_secs(1);
        outcome.unwrap()
    };
    assert_eq!(send(&mut sim), SendOutcome::Relayed);
    let [NylonMsg::Chain { body: ChainBody::OpenReq(..), .. }] = &taken_from(&mut sim, relay)[..] else {
        panic!("no open request");
    };

    let forged = NylonMsg::Chain {
        remaining: vec![],
        taken: vec![target, relay],
        body: ChainBody::OpenAck(Some(Endpoint { node: elsewhere, port: 80 }), vec![]),
    };
    deliver(&mut sim, id, Endpoint::public(relay), &forged);
    sim.run_for_secs(1);
    let [NylonMsg::Punch { from, .. }] = &taken_from(&mut sim, elsewhere)[..] else {
        panic!("not one Punch where the stamp pointed");
    };
    assert_eq!(*from, id);
    assert!(!sim.node::<NylonNode>(id).unwrap().core().can_reach_directly(target, false, sim.now()));

    assert_eq!(send(&mut sim), SendOutcome::Relayed);
    assert!(taken_from(&mut sim, elsewhere).is_empty(), "nothing more went where the stamp pointed");
    let app = NylonMsg::App { payload: PAYLOAD.to_vec() }.to_wire();
    let down_the_chain = NylonMsg::Chain { remaining: vec![target], taken: vec![id], body: ChainBody::Relayed(app) };
    assert_eq!(taken_from(&mut sim, relay), [down_the_chain], "the next send goes down the chain to the target");
}

/// A host that keeps every packet it is sent, as sent.
#[derive(Default)]
struct Recorder {
    got: Vec<Vec<u8>>,
}

impl Protocol for Recorder {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, data: &Payload) {
        self.got.push(data.to_vec());
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const PAYLOAD: &[u8] = b"one payload, two ways in, three ways out";

/// The five ways an application message leaves a node.
#[derive(Clone, Copy, Debug)]
enum Route {
    /// To a peer the sender's directory marks public.
    Direct,
    /// Wrapped, over the reverse route a relayed message left behind.
    Relayed,
    /// From a port-restricted sender to a peer a punch can reach: inside an
    /// open request, over the peer's rendezvous chain, at once.
    OpenedAtOnce,
    /// From a public sender, which has no NAT to punch: wrapped, over the
    /// peer's rendezvous chain, at once.
    RelayedAtOnce,
    /// From a full-cone sender, whose NAT lets the peer's answer in:
    /// wrapped with room for the endpoint its first hop sees it at, over
    /// the peer's rendezvous chain, at once.
    ContactAtOnce,
}

/// Sends one payload out of a lone node over `route` — as a `Vec` through
/// `send_app`, or written into a `begin_app` frame — and returns what the
/// host at the other end of the first link received, with the sender's
/// allocation accounting.
fn send_over(route: Route, framed: bool) -> (Vec<Vec<u8>>, [u64; 3]) {
    // A port-restricted sender: a restricted-cone one would also send
    // the peer a `Punch` that opens its own filter.
    let (mut sim, id, _) = lone_node_behind(match route {
        Route::OpenedAtOnce => NatType::PortRestrictedCone,
        Route::ContactAtOnce => NatType::FullCone,
        _ => NatType::Public,
    });
    let peer = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let stranger = NodeId(70);
    // `to`, what the sender's directory says of it, the rendezvous chain.
    let (to, to_nat, hint, expected) = match route {
        Route::Direct => (peer, Some(NatType::Public), vec![], SendOutcome::Direct),
        Route::Relayed => {
            // A relayed message from the stranger came in over the peer
            // (one that asks for no answer, so the peer hears nothing else).
            let relayed = NylonMsg::Chain {
                remaining: vec![],
                taken: vec![stranger, peer],
                body: ChainBody::Relayed(NylonMsg::PunchAck { from: stranger, key: None }.to_wire()),
            };
            deliver(&mut sim, id, Endpoint::public(peer), &relayed);
            (stranger, None, vec![], SendOutcome::Relayed)
        }
        // The peer is the stranger's rendezvous node; the directory says
        // a punch can reach the stranger.
        Route::OpenedAtOnce => (stranger, Some(NatType::FullCone), vec![peer], SendOutcome::Relayed),
        Route::RelayedAtOnce | Route::ContactAtOnce => (stranger, None, vec![peer], SendOutcome::Relayed),
    };
    sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
        let core = node.core_mut();
        let outcome = if framed {
            let mut frame = NylonCore::begin_app(ctx, PAYLOAD.len());
            frame.put_raw(PAYLOAD);
            core.send_app_frame(ctx, to, to_nat, &hint, frame)
        } else {
            core.send_app(ctx, to, to_nat, &hint, PAYLOAD.to_vec())
        };
        assert_eq!(outcome, expected, "{route:?}");
    });
    sim.run_for_secs(1);
    let m = sim.metrics();
    let accounting =
        [m.counter("net.allocs"), m.counter("net.alloc_bytes"), m.counter("net.payload_pooled")];
    assert_eq!(m.counter("pss.send_failed"), 0);
    (sim.node::<Recorder>(peer).unwrap().got.clone(), accounting)
}

/// `send_app` is `begin_app` + `send_app_frame` with a copy in front: the
/// same bytes reach the network over every route the transport can take,
/// and the sender is charged the same allocations for them.
#[test]
fn a_payload_leaves_as_the_same_bytes_whichever_way_it_was_handed_over() {
    let app = NylonMsg::App { payload: PAYLOAD.to_vec() };
    let routes = [Route::Direct, Route::Relayed, Route::OpenedAtOnce, Route::RelayedAtOnce, Route::ContactAtOnce];
    for route in routes {
        let (owned, owned_accounting) = send_over(route, false);
        let (framed, framed_accounting) = send_over(route, true);
        assert_eq!(owned, framed, "{route:?}: bytes on the wire");
        assert_eq!(owned_accounting, framed_accounting, "{route:?}: allocs, alloc_bytes, pooled");
        // And they are the message the owned codec spells out.
        let sender = NodeId(0);
        let body = match route {
            Route::Direct => None,
            Route::Relayed | Route::RelayedAtOnce => Some(ChainBody::Relayed(app.to_wire())),
            Route::ContactAtOnce => Some(ChainBody::Contact(None, app.to_wire())),
            Route::OpenedAtOnce => Some(ChainBody::OpenReq(None, app.to_wire())),
        };
        let on_the_wire = match body {
            None => app.to_wire(),
            Some(body) => NylonMsg::Chain { remaining: vec![NodeId(70)], taken: vec![sender], body }.to_wire(),
        };
        assert_eq!(owned, [on_the_wire], "{route:?}");
    }
}
