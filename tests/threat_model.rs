//! Threat-model tests (paper §II-A): the guarantees WHISPER makes against
//! honest-but-curious observers, checked end-to-end over the full stack.
//!
//! * **Content privacy** — no relay or link observer sees plaintext.
//! * **Membership privacy** — no third party can tell that two nodes
//!   belong to the same group, and non-members cannot elicit any reaction
//!   that would reveal membership.
//! * **Relationship anonymity** — a mix knows its predecessor and
//!   successor but never source and destination together.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper::core::{GroupId, WhisperConfig, WhisperNode};
use whisper::crypto::onion::{build_onion, peel, PeelResult};
use whisper::crypto::rsa::{KeyPair, RsaKeySize};
use whisper::net::nat::{NatDistribution, NatType};
use whisper::net::sim::{Sim, SimConfig};
use whisper::net::NodeId;

fn build_net(n: usize, seed: u64) -> (Sim, Vec<NodeId>) {
    let cfg = WhisperConfig::default();
    let mut key_rng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..n as u64 {
        let mut node =
            WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut key_rng));
        let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
        node.nylon_mut()
            .set_bootstrap(vec![NodeId(0), NodeId(1)].into_iter().filter(|x| x.0 != i).collect());
        ids.push(sim.add_node(Box::new(node), nat));
    }
    sim.run_for_secs(250);
    (sim, ids)
}

fn form_group(sim: &mut Sim, leader: NodeId, members: &[NodeId], name: &str) -> GroupId {
    let mut group = GroupId::from_name(name);
    sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        group = node.create_group(ctx, name);
    });
    for &m in members {
        let inv = sim
            .node::<WhisperNode>(leader)
            .unwrap()
            .invite(group, m)
            .unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| node.join_group(ctx, inv));
    }
    group
}

/// Content privacy at the cryptographic layer: a secret payload sent over
/// a WCL-style onion never appears in any byte a relay or observer sees.
#[test]
fn content_never_visible_to_relays_or_links() {
    let mut rng = StdRng::seed_from_u64(1);
    let keys: Vec<KeyPair> =
        (0..3).map(|_| KeyPair::generate(RsaKeySize::Sim384, &mut rng)).collect();
    let secret = b"WHISPER-SECRET: coordinates 47.0N 6.9E, meet at dawn";
    let path: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.public().clone(), vec![i as u8; 9]))
        .collect();
    let packet = build_onion(&path, secret, &mut rng).unwrap();

    // Observer of the S→A link sees header+body: no plaintext window.
    let leaks = |bytes: &[u8]| {
        bytes
            .windows(12)
            .any(|w| secret.windows(12).any(|s| s == w))
    };
    assert!(!leaks(&packet.header) && !leaks(&packet.body), "link S→A leaks");

    // Mix A peels one layer: what it forwards still reveals nothing.
    let PeelResult::Relay { header, .. } = peel(&keys[0], &packet.header).unwrap() else {
        panic!("A relays");
    };
    assert!(!leaks(&header) && !leaks(&packet.body), "link A→B leaks");

    // Mix B likewise.
    let PeelResult::Relay { header, .. } = peel(&keys[1], &header).unwrap() else {
        panic!("B relays");
    };
    assert!(!leaks(&header) && !leaks(&packet.body), "link B→D leaks");
}

/// Relationship anonymity: a mix learns only its successor; the bytes it
/// forwards differ from the bytes it received, so even an observer of
/// both its links cannot match them by content.
#[test]
fn mix_cannot_link_source_and_destination() {
    let mut rng = StdRng::seed_from_u64(2);
    let a = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
    let b = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
    let d = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
    let path = vec![
        (a.public().clone(), b"AAAAAAAA\0".to_vec()),
        (b.public().clone(), b"BBBBBBBB\0".to_vec()),
        (d.public().clone(), b"DDDDDDDD\0".to_vec()),
    ];
    let packet = build_onion(&path, b"payload", &mut rng).unwrap();

    // A sees the next hop (B) but cannot peel further to find D.
    let PeelResult::Relay { next_hop, header, .. } = peel(&a, &packet.header).unwrap() else {
        panic!()
    };
    assert_eq!(next_hop, b"BBBBBBBB\0");
    assert!(
        peel(&a, &header).is_err(),
        "A must not be able to open B's layer and discover D"
    );
    // What A received and what A forwards share no ciphertext bytes at
    // any 16-byte window (headers are re-encrypted per hop).
    assert!(!header
        .windows(16)
        .any(|w| packet.header.windows(16).any(|o| o == w)));
}

/// Relationship anonymity on the *steady-state* circuit path: once a
/// circuit is cached, packets carry only `(cid, nonce, body)`. Every one
/// of those three fields changes across each hop — circuit ids are
/// per-hop local, the nonce advances through a hash chain, and the body
/// loses one CTR layer — so an observer of two links (or a compromised
/// mix watching both its sides) cannot match an incoming circuit packet
/// to an outgoing one by content, same as for the RSA onion it replaces.
/// The same holds on the way back, where the ids are the ones of the way
/// out, the nonce moves by a keyed step per hop and the body *gains* a
/// layer per hop — and for a packet out against a packet back.
#[test]
fn circuit_packets_unlinkable_across_hops() {
    use whisper::crypto::aes::CtrNonce;
    use whisper::crypto::circuit::{self, CircuitEntry, Direction, HopSetup};

    let mut rng = StdRng::seed_from_u64(6);
    let (source, setups) = circuit::establish(3, &mut rng);
    let payload = vec![0u8; 512]; // worst case: all-zero plaintext
    let nonce0 = CtrNonce::random(&mut rng);
    let sealed = circuit::seal_layers(&source.keys, &nonce0, &payload);

    // Reconstruct what each link carries: (cid, nonce, body) per hop.
    let mut links = Vec::new();
    let mut nonce = nonce0;
    let mut body = sealed;
    for setup in &setups {
        links.push((setup.cid_in, nonce, body.clone()));
        CircuitEntry::new(setup.key, Vec::new(), setup.cid_out).peel_in_place(&nonce, &mut body);
        nonce = circuit::next_nonce(&nonce);
    }
    assert_eq!(body, payload, "destination recovers the plaintext");

    // The answer: the destination draws a nonce and adds its layer, every
    // relay steps the nonce and adds its own; each hands the packet to the
    // hop before it under the id that hop forwards under. The source opens
    // all layers from the one nonce it receives.
    let entries: Vec<CircuitEntry> =
        setups.iter().map(|s| CircuitEntry::new(s.key, Vec::new(), s.cid_out)).collect();
    let mut links_back = Vec::new();
    let mut nonce = CtrNonce::random(&mut rng);
    let mut body = payload.clone();
    for (hop, entry) in entries.iter().enumerate().rev() {
        if entry.cid_out().is_some() {
            nonce = entry.return_nonce(&nonce);
        }
        entry.apply_in_place(Direction::Return, &nonce, &mut body);
        links_back.push((setups[hop].cid_in, nonce, body.clone()));
    }
    let mut opened = body;
    source.open_return_in_place(&nonce, &mut opened);
    assert_eq!(opened, payload, "the source recovers the plaintext");
    let all_links: Vec<_> = links.iter().chain(&links_back).collect();
    for (i, (_, nonce_a, body_a)) in all_links.iter().enumerate() {
        for (_, nonce_b, body_b) in &all_links[i + 1..] {
            assert_ne!(nonce_a.0, nonce_b.0, "a nonce twice, on any two links either way");
            assert!(
                !body_a.windows(16).any(|w| body_b.windows(16).any(|o| o == w)),
                "bodies share ciphertext between two links"
            );
        }
    }

    for pair in links.windows(2).chain(links_back.windows(2)) {
        let ((cid_a, nonce_a, body_a), (cid_b, nonce_b, body_b)) = (&pair[0], &pair[1]);
        // All three visible fields change between adjacent links.
        assert_ne!(cid_a, cid_b, "circuit ids are per-hop local");
        assert_ne!(nonce_a.0, nonce_b.0, "the nonce chain advances");
        assert!(
            !body_a
                .windows(16)
                .any(|w| body_b.windows(16).any(|o| o == w)),
            "bodies share ciphertext across a hop"
        );
        // And the whole packets share no window either (cid ‖ nonce ‖ body
        // as it would sit in a datagram).
        let flat = |cid: &circuit::CircuitId, n: &CtrNonce, b: &[u8]| {
            let mut v = cid.0.to_vec();
            v.extend_from_slice(&n.0);
            v.extend_from_slice(b);
            v
        };
        let wire_a = flat(cid_a, nonce_a, body_a);
        let wire_b = flat(cid_b, nonce_b, body_b);
        assert!(
            !wire_a
                .windows(8)
                .any(|w| wire_b.windows(8).any(|o| o == w)),
            "adjacent links share an 8-byte window"
        );
    }

    // A mix also learns nothing about the far end from its setup record:
    // the relay encoding carries only local ids and its own link key.
    for setup in &setups[..2] {
        let enc = setup.encode();
        assert_eq!(enc.len(), circuit::RELAY_SETUP_LEN);
        assert_eq!(HopSetup::decode(&enc).unwrap().cid_in, setup.cid_in);
    }
}

/// Membership privacy, active probe: a non-member replays bytes it could
/// plausibly forge; members never react, so the prober cannot distinguish
/// a member from a non-member.
#[test]
fn membership_invisible_to_active_prober() {
    let (mut sim, ids) = build_net(30, 3);
    let leader = ids[4];
    let members: Vec<NodeId> = ids[5..11].to_vec();
    let group = form_group(&mut sim, leader, &members, "invisible");
    sim.run_for_secs(300);

    let prober = ids[20];
    let member_target = members[0];
    let nonmember_target = ids[21];

    // The prober fabricates a group id guess and a bogus passport and
    // probes both a member and a non-member through ordinary payloads.
    use whisper::core::ppss::messages::PpssMsg;
    use whisper::core::Passport;
    use whisper::net::wire::WireEncode;
    let forged = PpssMsg::AppData {
        group,
        passport: Passport { node: prober, signature: vec![0u8; 48] },
        data: b"are you in the group?".to_vec(),
        reply_entry: None,
    }
    .to_wire();

    let up_before: Vec<u64> = [member_target, nonmember_target]
        .iter()
        .map(|t| sim.metrics().traffic(*t).up_msgs)
        .collect();
    // Deliver the forged payload as a plain Nylon app message to each
    // target (the prober can do this: both are reachable peers).
    for target in [member_target, nonmember_target] {
        sim.with_node_ctx::<WhisperNode>(prober, |node, ctx| {
            node.with_api(|api, _| {
                let hint: Vec<NodeId> = vec![];
                api.nylon.send_app(ctx, target, true, &hint, forged.clone());
            });
        });
    }
    // Quiesce background gossip comparison: measure over a tiny window.
    sim.run_for_secs(2);
    let up_after: Vec<u64> = [member_target, nonmember_target]
        .iter()
        .map(|t| sim.metrics().traffic(*t).up_msgs)
        .collect();
    // Neither target reacted to the probe itself (any messages they sent
    // in the window are their own gossip; the member sent no *more* than
    // the non-member as a consequence of the probe).
    let member_delta = up_after[0] - up_before[0];
    let nonmember_delta = up_after[1] - up_before[1];
    assert!(
        member_delta <= nonmember_delta + 2,
        "member visibly reacted to probe: {member_delta} vs {nonmember_delta}"
    );
    // And the prober of course gained no group state.
    assert!(sim
        .node::<WhisperNode>(prober)
        .unwrap()
        .ppss()
        .group(group)
        .is_none());

    // Over the WCL this time, so that it reaches the PPSS: an exchange
    // request that plants a revocation of a real member and asks for an
    // answer. A member checks the passport before it would fold or answer
    // anything: it answers nothing, revokes nobody, and reacts no more than
    // the non-member, which knows no such group.
    let entry_of = |sim: &mut Sim, id: NodeId| {
        let mut entry = None;
        sim.with_node_ctx::<WhisperNode>(id, |node, _| node.with_api(|api, _| entry = Some(api.my_entry())));
        entry.expect("up")
    };
    let planted = members[1];
    let asking = PpssMsg::Exchange {
        group,
        passport: Passport { node: prober, signature: vec![0u8; 48] },
        from_entry: Box::new(entry_of(&mut sim, prober)),
        entries: vec![],
        exchange_id: 1,
        is_response: false,
        hb: Default::default(),
        election: None,
        new_key: None,
        revoked: vec![planted],
    }
    .to_wire();
    let counters = |sim: &Sim| {
        ["ppss.dropped_bad_passport", "ppss.dropped_unknown_group"]
            .map(|name| sim.metrics().counter(name))
    };
    let (before, up_before) = (counters(&sim), [member_target, nonmember_target].map(|t| sim.metrics().traffic(t).up_msgs));
    for target in [member_target, nonmember_target] {
        let dest = entry_of(&mut sim, target).dest_info();
        sim.with_node_ctx::<WhisperNode>(prober, |node, ctx| {
            node.with_api(|api, _| assert!(api.wcl.send_untracked(ctx, api.nylon, &dest, &asking, None)));
        });
    }
    sim.run_for_secs(2);
    let after = counters(&sim);
    assert_eq!((after[0] - before[0], after[1] - before[1]), (1, 1), "each target dropped it, by name");
    let up_after = [member_target, nonmember_target].map(|t| sim.metrics().traffic(t).up_msgs);
    let (member_delta, nonmember_delta) = (up_after[0] - up_before[0], up_after[1] - up_before[1]);
    assert!(member_delta <= nonmember_delta + 2, "member reacted: {member_delta} vs {nonmember_delta}");
    let state = sim.node::<WhisperNode>(member_target).unwrap().ppss().group(group).unwrap();
    assert!(!state.revoked().contains(&planted), "the member folded the prober's revocation");
}

/// Membership privacy at the relays: the signed group descriptors every
/// node stores and re-gossips, non-members included, name no member. A
/// group forms and its leader revokes a member; then the group's
/// descriptor is in non-members' relay stores, and no descriptor there
/// carries a membership dot.
#[test]
fn relayed_descriptors_name_no_member() {
    use std::collections::BTreeSet;
    use whisper::core::ppss::descriptor::GroupDescriptor;
    use whisper::net::wire::WireDecode;
    let (mut sim, ids) = build_net(30, 12);
    let leader = ids[4];
    let members: Vec<NodeId> = ids[5..15].to_vec();
    let group = form_group(&mut sim, leader, &members, "unnamed");
    sim.run_for_secs(300);
    sim.with_node_ctx::<WhisperNode>(leader, |node, _| assert!(node.remove_member(group, members[0])));
    sim.run_for_secs(300);

    let (mut relaying, mut named) = (0, Vec::new());
    for &id in ids.iter().filter(|&&id| id != leader && !members.contains(&id)) {
        let store = sim.node::<WhisperNode>(id).unwrap().nylon().descriptors();
        for blob in store.ids() {
            let desc = GroupDescriptor::from_wire(store.get(blob).unwrap().1).expect("a descriptor");
            relaying += usize::from(desc.group == group);
            named.extend(desc.adds.iter().chain(&desc.removes).map(|dot| (id, dot.node)));
        }
    }
    assert!(relaying > 0, "no non-member relays the group's descriptor");
    let distinct: BTreeSet<NodeId> = named.iter().map(|&(_, member)| member).collect();
    assert!(
        named.is_empty(),
        "{} non-members' relay stores name {} members: {distinct:?}",
        named.iter().map(|&(id, _)| id).collect::<BTreeSet<_>>().len(),
        distinct.len(),
    );
}

/// A passive observer classifying nodes by traffic volume cannot separate
/// group members from non-members among NATted nodes (membership privacy
/// against traffic counting, within a small factor: members do strictly
/// more work, but relays/mixes smear the signal across non-members too).
#[test]
fn members_not_trivially_identifiable_by_message_counts() {
    let (mut sim, ids) = build_net(40, 4);
    let leader = ids[4];
    let members: Vec<NodeId> = ids[5..17].to_vec();
    let _group = form_group(&mut sim, leader, &members, "quiet");
    sim.run_for_secs(600);

    let in_group: Vec<NodeId> = std::iter::once(leader).chain(members.iter().copied()).collect();
    let outside: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|id| !in_group.contains(id) && id.0 >= 2)
        .collect();
    let avg = |set: &[NodeId]| -> f64 {
        set.iter()
            .map(|id| sim.metrics().traffic(*id).up_msgs as f64)
            .sum::<f64>()
            / set.len() as f64
    };
    let members_avg = avg(&in_group);
    let outside_avg = avg(&outside);
    // Outsiders carry relay/mix/gateway traffic for the group, so the
    // volume gap stays small — no clean separation by counting messages.
    assert!(
        members_avg / outside_avg < 3.0,
        "members stand out by traffic volume: {members_avg:.0} vs {outside_avg:.0}"
    );
    // Sanity: the group did communicate.
    assert!(sim.metrics().counter("wcl.delivered") > 50);
}

/// A WHISPER stack with a tap on its wire: every datagram the node
/// receives is logged — where, from whom, the bytes — before the stack
/// sees it.
struct Tap {
    inner: WhisperNode,
    log: WireLog,
}

/// `(receiver, sender, datagram)` in delivery order. `Arc<Mutex<…>>`
/// rather than `Rc<RefCell<…>>`: `Protocol` requires `Send` since the
/// engine grew sharded (threaded) execution.
type WireLog = std::sync::Arc<std::sync::Mutex<Vec<(NodeId, NodeId, Vec<u8>)>>>;

impl whisper::net::sim::Protocol for Tap {
    fn on_start(&mut self, ctx: &mut whisper::net::sim::Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_message(
        &mut self,
        ctx: &mut whisper::net::sim::Ctx<'_>,
        from: NodeId,
        ep: whisper::net::Endpoint,
        data: &whisper::net::Payload,
    ) {
        self.log.lock().unwrap().push((ctx.id(), from, data.to_vec()));
        self.inner.on_message(ctx, from, ep, data);
    }
    fn on_timer(&mut self, ctx: &mut whisper::net::sim::Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `n` tapped stacks running the chaos suite's request/response app, PSS
/// warmed up.
fn build_tapped_net(n: u64, seed: u64) -> (Sim, Vec<NodeId>, WireLog) {
    let cfg = WhisperConfig::default();
    let log = WireLog::default();
    let mut key_rng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..n {
        let key = KeyPair::generate(cfg.nylon.rsa, &mut key_rng);
        let app = Box::<whisper_bench::chaos::EchoApp>::default();
        let mut node = WhisperNode::with_app(cfg.clone(), key, app);
        let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
        node.nylon_mut()
            .set_bootstrap(vec![NodeId(0), NodeId(1)].into_iter().filter(|x| x.0 != i).collect());
        ids.push(sim.add_node(Box::new(Tap { inner: node, log: log.clone() }), nat));
    }
    sim.run_for_secs(250);
    (sim, ids, log)
}

/// `leader` founds a group and `members` join it.
fn form_tapped_group(sim: &mut Sim, leader: NodeId, members: &[NodeId], name: &str) -> GroupId {
    let mut group = GroupId::from_name(name);
    sim.with_node_ctx::<Tap>(leader, |tap, ctx| group = tap.inner.create_group(ctx, name));
    for &m in members {
        let inv = sim.node::<Tap>(leader).unwrap().inner.invite(group, m).unwrap();
        sim.with_node_ctx::<Tap>(m, |tap, ctx| tap.inner.join_group(ctx, inv));
    }
    sim.run_for_secs(5);
    group
}

/// `asker` puts a tracked question to `to`; the app there answers it.
fn ask(sim: &mut Sim, asker: NodeId, group: GroupId, to: NodeId, nonce: u64) {
    use whisper_bench::chaos::EchoApp;
    sim.with_node_ctx::<Tap>(asker, |tap, ctx| {
        tap.inner.with_api(|api, app| {
            let app = app.as_any_mut().downcast_mut::<EchoApp>().expect("the net's app");
            assert!(app.request(ctx, api, group, to, nonce), "a route");
        });
    });
}

fn acked(sim: &Sim, node: NodeId) -> u64 {
    sim.node::<Tap>(node).unwrap().inner.app::<whisper_bench::chaos::EchoApp>().unwrap().acked
}

/// One WCL packet as it crossed one link.
#[derive(Clone, Debug)]
struct Crossing {
    at: NodeId,
    from: NodeId,
    /// `0xC1` onion, `0xC2` circuit packet out, `0xC3` circuit packet back.
    tag: u8,
    /// The whole WCL packet; for circuit packets id, nonce and body too.
    packet: Vec<u8>,
}

impl Crossing {
    fn cid(&self) -> &[u8] {
        &self.packet[1..9]
    }
    fn nonce(&self) -> &[u8] {
        &self.packet[9..17]
    }
    fn body(&self) -> &[u8] {
        &self.packet[21..]
    }
}

/// The WCL packets among the datagrams logged from `since` on.
fn wcl_crossings(log: &WireLog, since: usize) -> Vec<Crossing> {
    use whisper::pss::messages::NylonMsg;
    let log = log.lock().unwrap();
    let wcl = log[since..].iter().filter_map(|(at, from, datagram)| {
        let (_, packet) = NylonMsg::app_view(datagram)?;
        let tag = *packet.first().filter(|tag| (0xC1..=0xC3).contains(*tag))?;
        Some(Crossing { at: *at, from: *from, tag, packet: packet.to_vec() })
    });
    wcl.collect()
}

/// The return direction under the threat model, on the live stack. Two
/// members converse; the second question and its answer are pure circuit
/// traffic, three crossings each way. A relay sees, on the way back, the
/// two neighbours it saw on the way out and nobody else; every field of
/// the packet — id, nonce, body — differs on every link in both
/// directions; and nothing that crossed any link at any time, the first
/// answer with the answerer's passport and entry included, shows the
/// group id, a passport, an entry key or the answer to anyone. A relay
/// hands a return packet to the neighbour its circuit was set up from,
/// whoever it was that sent it.
#[test]
fn a_return_packet_shows_a_relay_its_two_neighbours_and_nothing_else() {
    let (mut sim, ids, log) = build_tapped_net(25, 8);
    let (asker, answerer) = (ids[5], ids[4]);
    let group = form_tapped_group(&mut sim, answerer, &[asker], "both ways");
    let conversation_from = log.lock().unwrap().len();
    ask(&mut sim, asker, group, answerer, 1);
    sim.run_for_secs(2);
    assert_eq!(acked(&sim, asker), 1);
    // The exchange to look at: nothing else of the two nodes on the wire.
    let mut nonce = 1;
    let (out, back) = loop {
        let since = log.lock().unwrap().len();
        nonce += 1;
        assert!(nonce < 40, "no quiet window");
        ask(&mut sim, asker, group, answerer, nonce);
        sim.run_for_secs(1);
        let crossings = wcl_crossings(&log, since);
        let side = |tag| -> Vec<Crossing> { crossings.iter().filter(|c| c.tag == tag).cloned().collect() };
        if crossings.len() == 6 && side(0xC2).len() == 3 {
            break (side(0xC2), side(0xC3));
        }
    };
    assert_eq!(acked(&sim, asker), nonce, "every question answered");

    // S → A → B → D out, D → B → A → S back.
    let (a, b) = (out[0].at, out[1].at);
    let hops = |side: &[Crossing]| -> Vec<(NodeId, NodeId)> { side.iter().map(|c| (c.from, c.at)).collect() };
    assert_eq!(hops(&out), [(asker, a), (a, b), (b, answerer)]);
    assert_eq!(hops(&back), [(answerer, b), (b, a), (a, asker)], "the same neighbours, backwards");
    let all: Vec<&Crossing> = out.iter().chain(&back).collect();
    for (i, x) in all.iter().enumerate() {
        for y in &all[i + 1..] {
            assert_ne!(x.nonce(), y.nonce(), "a nonce on two links");
            assert!(
                !x.body().windows(16).any(|w| y.body().windows(16).any(|o| o == w)),
                "two links share ciphertext"
            );
            // An id is local to a link, the same both ways on it.
            let same_link = (x.from, x.at) == (y.at, y.from);
            assert_eq!(x.cid() == y.cid(), same_link, "{x:?} / {y:?}");
        }
    }

    // What no link ever carried in the clear, long forms included.
    let crossings = wcl_crossings(&log, conversation_from);
    let stated = |c: &&Crossing| c.tag == 0xC3 && c.packet.len() > back[0].packet.len() + 50;
    assert!(crossings.iter().any(|c| stated(&c)), "the first answer carried the passport");
    let answerer_stack = &sim.node::<Tap>(answerer).unwrap().inner;
    let passport = answerer_stack.ppss().group(group).unwrap().passport().clone();
    let entry_key = answerer_stack.nylon().keypair().public().to_bytes();
    let answer = [&b"R"[..], &nonce.to_le_bytes()].concat();
    let secrets: [(&str, &[u8], usize); 4] = [
        ("the group id", &group.0.to_be_bytes(), 16),
        ("a passport", &passport.signature, 16),
        ("an entry", &entry_key, 16),
        ("the answer", &answer, 9),
    ];
    for crossing in &crossings {
        for (what, secret, window) in secrets {
            let shown = crossing.packet.windows(window).any(|w| secret.windows(window).any(|s| s == w));
            assert!(!shown, "{what} visible at {} from {}", crossing.at, crossing.from);
        }
    }

    // A stranger replays B's return packet at B: it goes where the
    // circuit came from — to A — and nowhere else.
    let stranger = ids[20];
    let since = log.lock().unwrap().len();
    sim.with_node_ctx::<Tap>(stranger, |tap, ctx| {
        tap.inner.with_api(|api, _| api.nylon.send_app(ctx, b, true, &[], back[0].packet.clone()));
    });
    sim.run_for(whisper::net::SimDuration::from_millis(300));
    let replayed: Vec<(NodeId, NodeId)> =
        wcl_crossings(&log, since).iter().filter(|c| c.tag == 0xC3).map(|c| (c.from, c.at)).collect();
    assert_eq!(replayed, [(stranger, b), (b, a), (a, asker)]);
}

/// A member that presents another member's credentials — it has seen them
/// in every message that member sent it — on a circuit of its own becomes,
/// for the destination, the way back to that member: the last circuit a
/// peer was authenticated on wins. It keeps that only until the member
/// itself speaks again: from then on the answers to the member ride the
/// member's own circuit.
#[test]
fn a_borrowed_passport_holds_the_way_back_only_until_its_owner_speaks() {
    use whisper::core::ppss::messages::PpssMsg;
    use whisper::net::wire::WireEncode;

    let (mut sim, ids, log) = build_tapped_net(25, 9);
    let (leader, member, thief) = (ids[4], ids[5], ids[6]);
    let group = form_tapped_group(&mut sim, leader, &[member, thief], "borrowed");
    let members_stack = &sim.node::<Tap>(member).unwrap().inner;
    let passport = members_stack.ppss().group(group).unwrap().passport().clone();
    let mut members_entry = None;
    sim.with_node_ctx::<Tap>(member, |tap, _| tap.inner.with_api(|api, _| members_entry = Some(api.my_entry())));
    let mut leader_entry = None;
    sim.with_node_ctx::<Tap>(leader, |tap, _| tap.inner.with_api(|api, _| leader_entry = Some(api.my_entry())));
    let forged = PpssMsg::AppData {
        group,
        passport,
        data: [&b"Q"[..], &77u64.to_le_bytes()].concat(),
        reply_entry: members_entry,
    }
    .to_wire();

    // Where return packets end, from `since` on.
    let ends_of_returns = |since: usize| -> Vec<NodeId> {
        let back: Vec<Crossing> = wcl_crossings(&log, since).into_iter().filter(|c| c.tag == 0xC3).collect();
        // The last crossing of each walk back: nobody forwarded it on.
        back.iter().filter(|c| !back.iter().any(|next| next.from == c.at)).map(|c| c.at).collect()
    };
    let since = log.lock().unwrap().len();
    let dest = leader_entry.expect("the leader is up").dest_info();
    sim.with_node_ctx::<Tap>(thief, |tap, ctx| {
        tap.inner.with_api(|api, _| assert!(api.wcl.send_untracked(ctx, api.nylon, &dest, &forged, None)));
    });
    sim.run_for(whisper::net::SimDuration::from_millis(500));
    assert_eq!(ends_of_returns(since), [thief], "the answer meant for the member went to the thief");

    // The member speaks: the way back to it is its own circuit again.
    let since = log.lock().unwrap().len();
    ask(&mut sim, member, group, leader, 1);
    sim.run_for(whisper::net::SimDuration::from_millis(500));
    assert_eq!(acked(&sim, member), 1);
    sim.with_node_ctx::<Tap>(leader, |tap, ctx| {
        tap.inner.with_api(|api, _| assert!(api.send_private(ctx, group, member, b"Xunprompted".to_vec(), false)));
    });
    sim.run_for(whisper::net::SimDuration::from_millis(500));
    assert_eq!(ends_of_returns(since), [member, member], "the answer and what the leader sent next");
}

/// Under one link key a packet out and a packet back can never be under
/// the same keystream, even with the same nonce: the two directions count
/// from opposite halves of the counter space.
#[test]
fn no_keystream_block_serves_both_directions() {
    use whisper::crypto::aes::{AesKey, CtrNonce};
    use whisper::crypto::circuit::{CircuitEntry, Direction};

    let hop = CircuitEntry::new(AesKey([0x42; 16]), Vec::new(), None);
    let nonce = CtrNonce([7; 8]);
    let keystream = |direction| {
        let mut zeros = vec![0u8; 16 * 1024];
        hop.apply_in_place(direction, &nonce, &mut zeros);
        zeros
    };
    let (out, back) = (keystream(Direction::Forward), keystream(Direction::Return));
    let blocks = |stream: &[u8]| -> std::collections::BTreeSet<Vec<u8>> {
        stream.chunks(16).map(<[u8]>::to_vec).collect()
    };
    assert_eq!(blocks(&out).len(), 1024, "a keystream does not repeat");
    assert!(blocks(&out).is_disjoint(&blocks(&back)));
}

/// An exchange that carries a non-empty revoked set is sealed like any
/// other: over a group's first five cycles, with a member revoked after
/// the second and the revocation travelling in every exchange from then
/// on, nothing any link carries shows the group id or a member's passport.
/// (That an exchange is larger when revocations exist is a size channel;
/// the traffic-analysis adversary it would serve is parked, DESIGN.md §15.)
#[test]
fn an_exchange_carrying_a_non_empty_revoked_set_shows_relays_no_group_id_or_passport() {
    let (mut sim, ids, log) = build_tapped_net(25, 10);
    let (leader, members) = (ids[3], &ids[4..12]);
    let from = log.lock().unwrap().len();
    let group = form_tapped_group(&mut sim, leader, members, "revocations");
    sim.run_for_secs(120);
    sim.with_node_ctx::<Tap>(leader, |tap, _| assert!(tap.inner.remove_member(group, members[0])));
    sim.run_for_secs(180);
    let spread = members[1..]
        .iter()
        .filter_map(|&m| sim.node::<Tap>(m)?.inner.ppss().group(group))
        .filter(|state| !state.revoked().is_empty())
        .count();
    assert!(spread > 0, "no exchange carried the revocation");
    let passports: Vec<Vec<u8>> = std::iter::once(&leader)
        .chain(members)
        .filter_map(|&m| Some(sim.node::<Tap>(m)?.inner.ppss().group(group)?.passport().signature.clone()))
        .collect();
    assert!(passports.len() > members.len() / 2, "the group formed");
    let shows = |packet: &[u8], secret: &[u8]| packet.windows(16).any(|w| secret.windows(16).any(|s| s == w));
    for crossing in wcl_crossings(&log, from) {
        assert!(!shows(&crossing.packet, &group.0.to_be_bytes()), "the group id at {}", crossing.at);
        for passport in &passports {
            assert!(!shows(&crossing.packet, passport), "a passport at {}", crossing.at);
        }
    }
}

/// End-to-end content privacy over the live stack: a secret string sent
/// between group members never crosses any *other* node in plaintext —
/// checked by inspecting every byte every third node ever received.
#[test]
fn live_stack_payloads_opaque_to_third_parties() {
    let (mut sim, ids, log) = build_tapped_net(25, 5);
    let leader = ids[3];
    let group = form_tapped_group(&mut sim, leader, &ids[4..10], "tapped");
    sim.run_for_secs(300);

    let secret = b"THE-VERY-SECRET-PAYLOAD-0xTAPPED";
    let mut recipient = None;
    sim.with_node_ctx::<Tap>(leader, |tap, ctx| {
        tap.inner.with_api(|api, _| {
            if let Some(peer) = api.private_view(group).first().map(|e| e.node) {
                api.send_private(ctx, group, peer, secret.to_vec(), false);
                recipient = Some(peer);
            }
        });
    });
    let recipient = recipient.expect("leader has a private view");
    sim.run_for_secs(20);

    // Scan everything every node received: the secret may appear in the
    // clear nowhere. (It reaches the recipient only *after* onion
    // decryption, which the tap — sitting on the wire — never sees.)
    let log = log.lock().unwrap();
    assert!(!log.is_empty());
    for (node, _, bytes) in log.iter() {
        let leaked = bytes
            .windows(16)
            .any(|w| secret.windows(16).any(|s| s == w));
        assert!(!leaked, "plaintext visible on the wire at {node} (recipient {recipient})");
    }
}
