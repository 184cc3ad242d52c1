//! Validates that hole punching *emerges* correctly from the packet-level
//! NAT emulation: for every pair of NAT types, a first message to a
//! stranger must leave a direct channel exactly when the theoretical
//! matrix (`can_hole_punch`) says it can — through the answer to a
//! cone-NATted requester's endpoint, or through the open handshake that
//! carries the exchange starting it — and must deliver the payload over
//! the rendezvous chain either way, once. Under [`SimConfig::ideal`] every
//! hop costs 1 µs, so the tests read one-way-delay counts off the clock.

use whisper_crypto::rsa::KeyPair;
use whisper_net::fault::FaultPlan;
use whisper_net::nat::{can_hole_punch, NatType};
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::WireDecode;
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};
use whisper_pss::messages::{ChainBody, NylonMsg};
use whisper_pss::transport::SendOutcome;
use whisper_pss::{NylonConfig, NylonCore, NylonEvent};
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

/// One hop under [`SimConfig::ideal`].
const HOP: SimDuration = SimDuration::from_micros(1);

/// Long after anything a first message sets off has landed.
const SETTLE: SimDuration = SimDuration::from_secs(2);

/// A PSS node that keeps every datagram it receives, counts the payloads
/// among them, notes who sent it a `Punch` and times the gossip exchanges
/// it starts.
struct Probe {
    core: NylonCore,
    heard: Vec<Vec<u8>>,
    payloads: u64,
    punched_by: Vec<NodeId>,
    /// When the exchange now outstanding was started.
    started: Option<SimTime>,
    /// Partner and start-to-completion time of every exchange completed.
    exchanges: Vec<(NodeId, SimDuration)>,
}

impl Protocol for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        self.heard.push(data.to_vec());
        if let Ok(NylonMsg::Punch { from, .. }) = NylonMsg::from_wire(data) {
            self.punched_by.push(from);
        }
        match self.core.on_message(ctx, from, from_ep, data) {
            Some(NylonEvent::Payload { .. }) => self.payloads += 1,
            Some(NylonEvent::GossipCompleted { partner }) => {
                if let Some(t0) = self.started.take() {
                    self.exchanges.push((partner, ctx.now().since(t0)));
                }
            }
            None => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // The gossip-cycle timer is the one that advances `cycles_run`.
        let cycles = self.core.cycles_run();
        self.core.on_timer(ctx, token);
        if self.core.cycles_run() != cycles {
            self.started = Some(ctx.now());
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn probe(sim: &Sim, node: NodeId) -> &Probe {
    sim.node::<Probe>(node).expect("a probe")
}

/// One public rendezvous/bootstrap node plus nodes A and B behind the
/// given NAT types, on the network `profile` makes of `seed`, after
/// `warm_s` seconds of gossip: everyone has talked to the RV, A and B have
/// open associations towards it and the RV has contacts for both, so it
/// can relay and coordinate. Returns the sim, A and B.
fn trio(
    profile: fn(u64) -> SimConfig,
    nat_a: NatType,
    nat_b: NatType,
    seed: u64,
    warm_s: u64,
) -> (Sim, NodeId, NodeId) {
    let cfg = NylonConfig::default();
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(profile(seed));

    let mut add = |sim: &mut Sim, nat: NatType, bootstrap: Vec<NodeId>| {
        let mut core = NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, &mut keyrng));
        core.set_bootstrap(bootstrap);
        let node = Probe { core, heard: vec![], payloads: 0, punched_by: vec![], started: None, exchanges: vec![] };
        sim.add_node(Box::new(node), nat)
    };
    let rv = add(&mut sim, NatType::Public, vec![]);
    let a = add(&mut sim, nat_a, vec![rv]);
    let b = add(&mut sim, nat_b, vec![rv]);
    sim.run_for_secs(warm_s);
    (sim, a, b)
}

/// A [`trio`] in which A and B have each gossiped with the RV and not yet
/// with one another — one cycle and a second's grace; a seed under which
/// an early riser's second cycle already went to the other is refused —
/// so that what A sends B next has the chain and nothing else to go by.
fn strangers_on(
    profile: fn(u64) -> SimConfig,
    nat_a: NatType,
    nat_b: NatType,
    seed: u64,
) -> (Sim, NodeId, NodeId) {
    let (sim, a, b) = trio(profile, nat_a, nat_b, seed, 11);
    let m = sim.metrics();
    assert_eq!(m.counter("pss.gossip_served"), m.counter("pss.gossip_completed"));
    assert!(m.counter("pss.gossip_completed") >= 2, "seed {seed}: A and B have met the RV");
    assert!(!have_met(&sim), "seed {seed}: A and B have met already, pick another");
    (sim, a, b)
}

/// Whether A and B of a [`trio`] have sent one another anything.
fn have_met(sim: &Sim) -> bool {
    let met = ["pss.open_started", "pss.open_unpunchable", "pss.relayed_sent", "pss.contact_sent"];
    met.iter().any(|c| sim.metrics().counter(c) > 0)
}

/// [`strangers_on`] the ideal network, from the first seed from `seed` on
/// under which A and B have not met.
fn ideal_strangers(nat_a: NatType, nat_b: NatType, seed: u64) -> (Sim, NodeId, NodeId) {
    let unmet = (seed..).find(|&s| !have_met(&trio(SimConfig::ideal, nat_a, nat_b, s, 11).0));
    strangers_on(SimConfig::ideal, nat_a, nat_b, unmet.expect("some seed"))
}

/// [`strangers_on`] the cluster profile.
fn strangers(nat_a: NatType, nat_b: NatType, seed: u64) -> (Sim, NodeId, NodeId) {
    strangers_on(SimConfig::cluster, nat_a, nat_b, seed)
}

/// A sends an app payload to B through the rendezvous chain [rv] — node
/// 0, the first added — naming B's NAT type as `b_nat`.
fn send_typed_over_rv(sim: &mut Sim, a: NodeId, b: NodeId, b_nat: Option<NatType>, payload: &[u8]) {
    sim.with_node_ctx::<Probe>(a, |node, ctx| {
        node.core.send_app(ctx, b, b_nat, &[NodeId(0)], payload.to_vec());
    });
}

/// [`send_typed_over_rv`] with B's true NAT type, as a view entry gives it.
fn send_over_rv(sim: &mut Sim, a: NodeId, b: NodeId, payload: &[u8]) {
    let b_nat = sim.nat_type(b);
    send_typed_over_rv(sim, a, b, b_nat, payload);
}

fn payloads_received(sim: &Sim, node: NodeId) -> u64 {
    sim.node::<Probe>(node).map_or(0, |n| n.payloads)
}

/// Whether a node behind `nat` reaches a stranger without a handshake:
/// its cone NAT lets the answer to where its first hop saw it in.
fn cone(nat: NatType) -> bool {
    matches!(nat, NatType::FullCone | NatType::RestrictedCone)
}

/// Has A of a [`trio`] send to B over the RV, and B answer A the same way.
/// Returns (payloads delivered to B, how B's answer left, payloads
/// delivered to A).
fn try_pair(nat_a: NatType, nat_b: NatType, seed: u64) -> (u64, SendOutcome, u64) {
    // A few gossip cycles, in which A and B may well meet: the outcome
    // is the same from whichever exchange first reaches a stranger.
    let (mut sim, a, b) = trio(SimConfig::cluster, nat_a, nat_b, seed, 45);
    send_over_rv(&mut sim, a, b, b"punch me");
    sim.run_for_secs(10);
    let mut answer = SendOutcome::Failed;
    sim.with_node_ctx::<Probe>(b, |node, ctx| {
        answer = node.core.send_app(ctx, a, Some(nat_a), &[NodeId(0)], b"answer".to_vec());
    });
    sim.run_for_secs(10);
    (payloads_received(&sim, b), answer, payloads_received(&sim, a))
}

/// A direct channel — B answers A straight through A's NAT, with no relay
/// — exists after a first message exactly where theory says a punch can
/// work.
#[test]
fn punching_outcomes_match_theory_for_all_nat_pairs() {
    let natted = NatType::NATTED;
    for (i, &nat_a) in natted.iter().enumerate() {
        for (j, &nat_b) in natted.iter().enumerate() {
            let seed = 1000 + (i * 4 + j) as u64;
            let (delivered, answer, answered) = try_pair(nat_a, nat_b, seed);
            let pair = format!("{nat_a:?} → {nat_b:?}");
            assert_eq!(delivered, 1, "{pair}: payload must arrive exactly once (direct or relayed)");
            assert_eq!(answered, 1, "{pair}: the answer must arrive exactly once");
            let direct = answer == SendOutcome::Direct;
            assert_eq!(direct, can_hole_punch(nat_a, nat_b), "{pair}: emergent channel disagrees with theory");
        }
    }
}

#[test]
fn public_targets_never_need_punching() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate() {
        let (delivered, _, _) = try_pair(nat_a, NatType::Public, 2000 + i as u64);
        assert_eq!(delivered, 1, "{nat_a:?} → Public must deliver");
    }
}

/// A chain send that names no NAT type takes the target to be symmetric,
/// the type that promises least, whatever its true type (here full-cone):
/// a requester that needs a handshake cannot punch a symmetric NAT, so it
/// relays at once. A cone-NATted requester reads only its own NAT type and
/// sends with its endpoint, as to any peer.
#[test]
fn an_untyped_chain_send_takes_the_target_to_be_symmetric() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate() {
        let (mut sim, a, b) = ideal_strangers(nat_a, NatType::FullCone, 6400 + 100 * i as u64);
        send_typed_over_rv(&mut sim, a, b, None, b"as if symmetric");
        sim.run_for(SETTLE);
        assert_eq!(payloads_received(&sim, b), 1, "{nat_a:?}: exactly once");
        let m = sim.metrics();
        assert_eq!(m.counter("pss.contact_sent"), cone(nat_a) as u64, "{nat_a:?}");
        assert_eq!(m.counter("pss.open_unpunchable"), !cone(nat_a) as u64, "{nat_a:?}");
        assert_eq!(m.counter("pss.open_started"), 0, "{nat_a:?}");
    }
}

/// Nothing is timed: cut A off while the acknowledgement travels, and the
/// payload has still arrived — it rode the open request — while A holds no
/// contact for B. The chain stays the way to B: the next payload goes over
/// it as a `Relayed`, and no second open starts.
#[test]
fn a_lost_acknowledgement_leaves_the_chain_as_the_way_to_the_peer() {
    let pairs = [
        (NatType::PortRestrictedCone, NatType::RestrictedCone, 7778),
        (NatType::Symmetric, NatType::FullCone, 7779),
    ];
    for (nat_a, nat_b, seed) in pairs {
        let (mut sim, a, b) = strangers(nat_a, nat_b, seed);
        let sent_at = sim.now();
        let cut = FaultPlan::new().partition([a], sent_at + SimDuration::from_micros(1), sent_at + SETTLE);
        sim.install_fault_plan(cut);
        send_over_rv(&mut sim, a, b, b"rode the request");
        sim.run_for(SETTLE * 2);
        let pair = format!("{nat_a:?} → {nat_b:?}");
        assert!(sim.metrics().counter("net.drop_partition") >= 1, "{pair}: the acknowledgement was lost");
        assert_eq!(payloads_received(&sim, b), 1, "{pair}: delivered with the request");
        let now = sim.now();
        assert!(!probe(&sim, a).core.can_reach_directly(b, false, now), "{pair}: no contact");
        let relayed = sim.metrics().counter("pss.relayed_sent");
        send_over_rv(&mut sim, a, b, b"over the chain");
        sim.run_for(SETTLE);
        assert_eq!(payloads_received(&sim, b), 2, "{pair}");
        let m = sim.metrics();
        assert_eq!(m.counter("pss.relayed_sent"), relayed + 1, "{pair}: relayed over the chain");
        assert_eq!(m.counter("pss.open_started"), 1, "{pair}: one open");
        assert_eq!(m.counter("pss.open_punch_ok"), 0, "{pair}");
    }
}

/// Every pair of NATted strangers that needs a handshake and can be
/// punched: the payload rides the open request (k + 1 delays), the
/// target's punch dies at the requester's NAT, and its empty
/// acknowledgement comes back (2k + 2). The requester then sends its one
/// `Punch`, through the rule the target's punch left, which leaves the
/// target a contact (2k + 3), and the target's `PunchAck` leaves the
/// requester one (2k + 4): a direct channel both ways. Each message went
/// once, and only the target's punch was refused.
#[test]
fn punchable_strangers_open_behind_the_first_exchange() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate() {
        for (j, &nat_b) in NatType::NATTED.iter().enumerate() {
            if cone(nat_a) || !can_hole_punch(nat_a, nat_b) {
                continue;
            }
            let pair = format!("{nat_a:?} → {nat_b:?}");
            let (mut sim, a, b) = ideal_strangers(nat_a, nat_b, 3000 + 100 * (i * 4 + j) as u64);
            let blocked_before = sim.metrics().counter("net.nat_blocked");
            send_over_rv(&mut sim, a, b, b"with the request");
            sim.run_for(HOP * 2);
            assert_eq!(payloads_received(&sim, b), 1, "{pair}: k + 1 delays");
            let reaches = |sim: &Sim, x, y| probe(sim, x).core.can_reach_directly(y, false, sim.now());
            sim.run_for(HOP);
            assert!(!reaches(&sim, a, b), "{pair}: the acknowledgement is on its way");
            sim.run_for(HOP);
            assert!(!reaches(&sim, a, b), "{pair}: 2k + 2 delays, the Punch is on its way");
            assert!(!reaches(&sim, b, a), "{pair}: and has not got in");
            sim.run_for(HOP);
            assert!(reaches(&sim, b, a), "{pair}: 2k + 3, the requester's punch got in");
            assert_eq!(sim.metrics().counter("pss.open_punch_ok"), 0, "{pair}: the PunchAck is on its way");
            sim.run_for(HOP);
            assert!(reaches(&sim, a, b), "{pair}: 2k + 4, the PunchAck left a contact");
            assert_eq!(sim.metrics().counter("pss.open_punch_ok"), 1, "{pair}: 2k + 4, answered");
            sim.run_for(SETTLE);
            assert_eq!(payloads_received(&sim, b), 1, "{pair}: exactly once");
            assert_eq!(probe(&sim, b).punched_by, [a], "{pair}: one Punch left the requester");
            let m = sim.metrics();
            assert_eq!(m.counter("net.nat_blocked") - blocked_before, 1, "{pair}: the target's punch, at A");
            assert_eq!(m.counter("pss.relayed_delivered"), 2, "{pair}: the request's payload, its acknowledgement");
            assert_eq!(m.counter("pss.open_punch_ok"), 1, "{pair}");
        }
    }
}

/// A cone-NATted requester's first payload to a stranger rides the chain
/// (k + 1 delays) with the endpoint its first hop saw it at; the target
/// takes that for the requester's contact, so its answer goes straight
/// there, gets in (k + 2), and leaves the requester a contact for it too.
/// No handshake message is sent, and no punch reaches the requester.
#[test]
fn cone_strangers_meet_without_a_handshake() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate().filter(|(_, &n)| cone(n)) {
        for (j, &nat_b) in NatType::NATTED.iter().enumerate() {
            let pair = format!("{nat_a:?} → {nat_b:?}");
            let (mut sim, a, b) = ideal_strangers(nat_a, nat_b, 8000 + 100 * (i * 4 + j) as u64);
            let sent_at = sim.now();
            send_over_rv(&mut sim, a, b, b"with my endpoint");
            sim.run_for(HOP);
            assert_eq!(payloads_received(&sim, b), 0, "{pair}: one hop to go");
            sim.run_for(HOP);
            assert_eq!(payloads_received(&sim, b), 1, "{pair}: k + 1 delays");
            let mut answer = SendOutcome::Failed;
            sim.with_node_ctx::<Probe>(b, |node, ctx| {
                answer = node.core.send_app(ctx, a, Some(nat_a), &[NodeId(0)], b"answer".to_vec());
            });
            assert_eq!(answer, SendOutcome::Direct, "{pair}: the target holds a contact");
            sim.run_for(HOP);
            assert_eq!(payloads_received(&sim, a), 1, "{pair}: the answer got in, k + 2 delays");
            assert_eq!(sim.now().since(sent_at), HOP * 3);
            let now = sim.now();
            assert!(probe(&sim, a).core.can_reach_directly(b, false, now), "{pair}: and left a contact");
            sim.run_for(SETTLE);
            assert_eq!((payloads_received(&sim, a), payloads_received(&sim, b)), (1, 1), "{pair}");
            assert!(probe(&sim, a).punched_by.is_empty(), "{pair}: no punch reached the requester");
            let m = sim.metrics();
            assert_eq!(m.counter("pss.contact_sent"), 1, "{pair}");
            let handshake = ["pss.open_started", "pss.open_served", "pss.open_unpunchable", "pss.relayed_delivered"];
            for counter in handshake {
                assert_eq!(m.counter(counter), 0, "{pair}: {counter}");
            }
        }
    }
}

/// One-way delays of a first gossip exchange over a k-hop chain: the
/// table of DESIGN.md §7, "When no punch is attempted". A port-restricted
/// or symmetric requester's exchange goes over the chain both ways whatever
/// the target: relayed where no punch can join the two, inside the open
/// request and its acknowledgement where one can.
fn delays(requester: NatType, k: u64) -> u64 {
    if cone(requester) {
        k + 2 // the request over the chain, the response straight back
    } else {
        2 * k + 2
    }
}

/// The first gossip exchange between two NATted nodes goes over the
/// one-hop chain through the RV, and takes the one-way delays its two NAT
/// types need. A cone-NATted requester starts no open, and afterwards
/// each side reaches the other directly; a pair that cannot be punched
/// starts no open at all.
#[test]
fn a_first_exchange_takes_what_the_two_nat_types_need() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate() {
        for (j, &nat_b) in NatType::NATTED.iter().enumerate() {
            let pair = format!("{nat_a:?} / {nat_b:?}");
            let (mut sim, a, b) = trio(SimConfig::ideal, nat_a, nat_b, 4000 + (i * 4 + j) as u64, 0);
            let first = |sim: &Sim| {
                let with = |x, y| probe(sim, x).exchanges.iter().find(|e| e.0 == y).map(|e| (x, e.1));
                with(a, b).or(with(b, a))
            };
            while first(&sim).is_none() && sim.now().as_micros() < 120_000_000 {
                sim.run_for_secs(1);
            }
            let (requester, took) = first(&sim).unwrap_or_else(|| panic!("{pair}: A and B never met"));
            let (req, tgt) = if requester == a { (nat_a, nat_b) } else { (nat_b, nat_a) };
            let opens = (!cone(req) && can_hole_punch(req, tgt)) as u64;
            let unpunchable = !can_hole_punch(req, tgt) as u64;
            assert_eq!(took.as_micros(), delays(req, 1), "{req:?} → {tgt:?}: delays");
            let m = sim.metrics();
            assert_eq!(m.counter("pss.contact_sent"), cone(req) as u64, "{req:?} → {tgt:?}");
            assert_eq!(m.counter("pss.open_started"), opens, "{req:?} → {tgt:?}");
            assert_eq!(m.counter("pss.open_punch_ok"), opens, "{req:?} → {tgt:?}");
            assert_eq!(m.counter("pss.open_unpunchable"), unpunchable, "{req:?} → {tgt:?}");
            if cone(req) {
                let now = sim.now();
                let reaches = |x, y| probe(&sim, x).core.can_reach_directly(y, false, now);
                assert!(reaches(a, b) && reaches(b, a), "{req:?} → {tgt:?}: a direct channel both ways");
            }
        }
    }
}

/// Key sampling ships a node's key in every gossip message but a relayed
/// one — inside a `Relayed`, an open request or its acknowledgement: the
/// relays have no use for it, and the peer can use it only once it reaches
/// the sender directly — which a first contact (a cone-NATted requester's)
/// makes it at once, the keyed `Punch` and `PunchAck` behind an open's
/// exchange a moment later, a public requester's relayed exchange the next
/// time, and a pair that can only relay never. So every pair that a punch
/// can join ends up holding each other's key, and a pair that cannot holds
/// neither: its gossip, relayed both ways, goes keyless.
#[test]
fn keys_ride_everything_but_relayed_gossip() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate() {
        for (j, &nat_b) in NatType::NATTED.iter().enumerate() {
            let pair = format!("{nat_a:?} / {nat_b:?}");
            let (mut sim, a, b) = trio(SimConfig::ideal, nat_a, nat_b, 4100 + (i * 4 + j) as u64, 0);
            sim.run_for_secs(60);
            let mut relayed = 0;
            for node in [NodeId(0), a, b] {
                for datagram in &probe(&sim, node).heard {
                    let (wire, keyless) = match NylonMsg::from_wire(datagram) {
                        Ok(NylonMsg::Chain {
                            body:
                                ChainBody::Relayed(inner) | ChainBody::OpenReq(_, inner) | ChainBody::OpenAck(_, inner),
                            ..
                        }) => (inner, true),
                        Ok(NylonMsg::Chain { body: ChainBody::Contact(_, inner), .. }) => (inner, false),
                        _ => (datagram.clone(), false),
                    };
                    let Some(gossip) = NylonMsg::gossip_view(&wire) else { continue };
                    assert_eq!(gossip.key.is_none(), keyless, "{pair}: {gossip:?}");
                    relayed += keyless as u32;
                }
            }
            let met = probe(&sim, a).exchanges.iter().any(|e| e.0 == b) || probe(&sim, b).exchanges.iter().any(|e| e.0 == a);
            assert!(met, "{pair}: A and B never met");
            let key_of = |x: NodeId, y: NodeId| probe(&sim, x).core.cb().get(y).and_then(|e| e.key.clone());
            let held = [key_of(a, b).is_some(), key_of(b, a).is_some()];
            if can_hole_punch(nat_a, nat_b) {
                assert_eq!(held, [true, true], "{pair}: each holds the other's key");
            } else {
                assert!(relayed > 0, "{pair}: relayed gossip");
                assert_eq!(held, [false, false], "{pair}: no key rode a relay");
            }
        }
    }
}

/// No node's id reaches 2⁵⁶, the most a timer token holds, but a forged
/// view entry or chain message can name one. Nothing the handshake does is
/// timed, so an open towards it starts like any other, and an open request
/// from it — stamped by a hop behind the first, which no hop re-stamps —
/// is served like any other: neither panics.
#[test]
fn an_open_to_or_from_any_peer_id_is_handled_alike() {
    let (mut sim, a, b) = trio(SimConfig::cluster, NatType::PortRestrictedCone, NatType::Public, 7, 11);
    let forged = NodeId(u64::MAX);
    let opened = sim.metrics().counter("pss.open_started");
    send_typed_over_rv(&mut sim, a, forged, Some(NatType::RestrictedCone), b"to nobody");
    assert_eq!(sim.metrics().counter("pss.open_started"), opened + 1);

    let served = sim.metrics().counter("pss.open_served");
    let request = NylonMsg::Chain {
        remaining: vec![],
        taken: vec![forged, a],
        body: ChainBody::OpenReq(Some(Endpoint::public(a)), vec![]),
    };
    sim.with_node_ctx::<Probe>(a, |_, ctx| ctx.send_wire(Endpoint::public(b), &request));
    sim.run_for_secs(5);
    assert_eq!(sim.metrics().counter("pss.open_served"), served + 1);
}
