//! Where a peer's key and contact live: the key a message carries goes
//! into the connection-backlog entry of its sender and nowhere else, and
//! the transport remembers where NATted senders' packets came from — a
//! public sender is reachable at its public endpoint anyway. And what
//! the transport makes of that knowledge: the four routes an application
//! frame can take out of a node.

use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::WireEncode;
use whisper_net::{Endpoint, NodeId, Payload, SimDuration};
use whisper_pss::messages::NylonMsg;
use whisper_pss::transport::{SendOutcome, OPEN_TIMEOUT};
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

    // Keyless, and malformed in each way the strict parser rejects: the
    // entry keeps the key it has.
    let mut trailing = second.to_bytes();
    trailing.push(0);
    for key in [None, Some(vec![]), Some(vec![0xFF; 20]), Some(trailing)] {
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

    // A restart forgets the backlog and the keys with it.
    sim.with_node_ctx::<NylonNode>(id, |node, ctx| node.core_mut().on_restart(ctx));
    assert!(sim.node::<NylonNode>(id).unwrap().core().cb().is_empty());
    deliver(&mut sim, id, peer_ep, &gossip_req(peer, None));
    assert_eq!(cb_key(&sim, id, peer), None, "nothing remembered the key across the restart");
}

#[test]
fn contacts_are_kept_for_natted_senders_only_and_both_stay_reachable() {
    let (mut sim, id, _) = lone_node();
    let natted = Endpoint { node: NodeId(70), port: 4242 };
    let public = Endpoint::public(NodeId(71));
    deliver(&mut sim, id, natted, &NylonMsg::Punch { from: natted.node });
    deliver(&mut sim, id, public, &NylonMsg::Punch { from: public.node });
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
        assert_eq!(core.send_app(ctx, natted.node, false, &[], b"x".to_vec()), SendOutcome::Direct);
        assert_eq!(core.send_app(ctx, public.node, true, &[], b"x".to_vec()), SendOutcome::Direct);
    });
    assert_eq!(sim.metrics().counter("net.payload_pooled"), sent_before + 2, "both left directly");
    assert_eq!(sim.metrics().counter("pss.send_failed"), 0);
}

/// A relayed message is unwrapped once, at its destination. A `Relayed`
/// inside a `Relayed` is nothing an honest sender builds, and unwrapping
/// it level by level let a single packet exhaust the stack (a debug build
/// died at 1 000 levels, a release build at 5 000): the inner one is
/// dropped and counted, and the node lives on.
#[test]
fn a_relayed_message_is_unwrapped_once_however_deep_the_sender_nested() {
    let (mut sim, id, mut keyrng) = lone_node();
    let (peer, relay) = (NodeId(77), Endpoint { node: NodeId(76), port: 9 });
    let relayed = |inner: Vec<u8>| NylonMsg::Relayed {
        from: peer,
        remaining: vec![],
        path_back: vec![relay.node],
        inner,
    };

    let mut wire = NylonMsg::Punch { from: peer }.to_wire();
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

/// The four ways an application message leaves a node.
#[derive(Clone, Copy, Debug)]
enum Route {
    /// To a peer the sender's directory marks public.
    Direct,
    /// Wrapped, over the reverse route a relayed message left behind.
    Relayed,
    /// From a NATted sender: held while a hole punch runs, sent when the
    /// peer's own packet arrives.
    PunchedThrough,
    /// From a public sender, which has no NAT to punch: wrapped, over the
    /// peer's rendezvous chain, at once.
    RelayedAtOnce,
}

/// Sends one payload out of a lone node over `route` — as a `Vec` through
/// `send_app`, or written into a `begin_app` frame — and returns what the
/// host at the other end of the first link received, with the sender's
/// allocation accounting.
fn send_over(route: Route, framed: bool) -> (Vec<Vec<u8>>, [u64; 3]) {
    let (mut sim, id, _) = lone_node_behind(match route {
        Route::PunchedThrough => NatType::RestrictedCone,
        _ => NatType::Public,
    });
    let peer = sim.add_node(Box::<Recorder>::default(), NatType::Public);
    let stranger = NodeId(70);
    // `to`, what the sender's directory says of it, the rendezvous chain.
    let (to, to_public, hint, expected) = match route {
        Route::Direct => (peer, true, vec![], SendOutcome::Direct),
        Route::Relayed => {
            // A relayed message from the stranger came in over the peer
            // (one that asks for no answer, so the peer hears nothing else).
            let relayed = NylonMsg::Relayed {
                from: stranger,
                remaining: vec![],
                path_back: vec![stranger, peer],
                inner: NylonMsg::PunchAck { from: stranger }.to_wire(),
            };
            deliver(&mut sim, id, Endpoint::public(peer), &relayed);
            (stranger, false, vec![], SendOutcome::Relayed)
        }
        // The directory knows a rendezvous node for the peer and no more.
        Route::PunchedThrough => (peer, false, vec![stranger], SendOutcome::Queued),
        // The peer is the stranger's rendezvous node.
        Route::RelayedAtOnce => (stranger, false, vec![peer], SendOutcome::Relayed),
    };
    sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
        let core = node.core_mut();
        let outcome = if framed {
            let mut frame = core.begin_app(ctx, PAYLOAD.len());
            frame.put_raw(PAYLOAD);
            core.send_app_frame(ctx, to, to_public, &hint, frame)
        } else {
            core.send_app(ctx, to, to_public, &hint, PAYLOAD.to_vec())
        };
        assert_eq!(outcome, expected, "{route:?}");
    });
    if let Route::PunchedThrough = route {
        sim.run_for(SimDuration::from_micros(OPEN_TIMEOUT.as_micros() / 2));
        assert!(sim.node::<Recorder>(peer).unwrap().got.is_empty(), "held while the punch runs");
        // Any direct packet from the peer completes the handshake.
        deliver(&mut sim, id, Endpoint::public(peer), &NylonMsg::PunchAck { from: peer });
    }
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
    let app = |from: NodeId| NylonMsg::App { from, payload: PAYLOAD.to_vec() };
    for route in [Route::Direct, Route::Relayed, Route::PunchedThrough, Route::RelayedAtOnce] {
        let (owned, owned_accounting) = send_over(route, false);
        let (framed, framed_accounting) = send_over(route, true);
        assert_eq!(owned, framed, "{route:?}: bytes on the wire");
        assert_eq!(owned_accounting, framed_accounting, "{route:?}: allocs, alloc_bytes, pooled");
        // And they are the message the owned codec spells out.
        let sender = NodeId(0);
        let on_the_wire = match route {
            Route::Direct => vec![app(sender).to_wire()],
            Route::Relayed | Route::RelayedAtOnce => vec![NylonMsg::Relayed {
                from: sender,
                remaining: vec![NodeId(70)],
                path_back: vec![sender],
                inner: app(sender).to_wire(),
            }
            .to_wire()],
            Route::PunchedThrough => vec![app(sender).to_wire()],
        };
        assert_eq!(owned, on_the_wire, "{route:?}");
    }
}
