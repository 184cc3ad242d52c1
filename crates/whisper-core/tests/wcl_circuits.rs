//! Circuit amortization lifecycle tests: cache hit on the second send,
//! TTL expiry, and miss-and-rebuild after a relay loses its state. These
//! pin the behavior DESIGN.md § "Circuit amortization" promises, on the
//! same minimal controlled topology as `wcl_paths.rs`. Three tests are the
//! hostile side of the same path: setup extensions, installed next hops
//! and packets no honest source produces. The last group has source and
//! destination *converse* in a private group: the answer rides back on
//! the circuit its question came in on, who is talking is said once per
//! circuit, and all of that is forgotten with the circuit.

use std::cell::RefCell;
use std::collections::HashMap;
use whisper_core::ppss::messages::PpssMsg;
use whisper_core::wcl::{Arrival, CIRCUIT_TTL};
use whisper_core::{
    GroupApp, GroupId, PrivateEntry, WclEvent, WhisperApi, WhisperConfig, WhisperNode,
};
use whisper_crypto::aes::AesKey;
use whisper_crypto::circuit::{CircuitEntry, CircuitId, HopSetup, DEST_SETUP_LEN, RELAY_SETUP_LEN};
use whisper_crypto::onion::{build_onion_ext, OnionPacket};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode, WireLen, WireSink, WireWriter};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration};
use whisper_pss::messages::{ChainBody, NylonMsg};
use whisper_rand::check::Gen;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// How long a source keeps a route cached, in seconds: half the
/// relay-side TTL.
fn source_cache_secs() -> u64 {
    CIRCUIT_TTL.as_secs() / 2
}

/// Asks and answers inside a private group: a question is `'Q'` and a
/// nonce, tracked, with the asker's entry; its answer is `'A'` and the
/// nonce, sent to that entry — at once, or `answer_after` later.
#[derive(Default)]
struct Talker {
    answer_after: Option<SimDuration>,
    /// Nonce → tracked send of every question still unanswered.
    asked: HashMap<u64, u64>,
    /// Nonces whose answers arrived, in arrival order.
    answered: Vec<u64>,
    /// Questions heard, and answers owed until their timer fires.
    heard: u64,
    owed: Vec<(GroupId, PrivateEntry, Vec<u8>)>,
}

impl Talker {
    fn ask(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId, to: NodeId, nonce: u64) {
        let question = [&b"Q"[..], &nonce.to_le_bytes()].concat();
        let msg_id = api.send_private_tracked(ctx, group, to, question, true).expect("a route");
        self.asked.insert(nonce, msg_id);
    }
}

impl GroupApp for Talker {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        _from: NodeId,
        data: &[u8],
        reply_entry: Option<PrivateEntry>,
    ) {
        let nonce = u64::from_le_bytes(data[1..9].try_into().expect("a tag and a nonce"));
        match (data[0], reply_entry) {
            (b'Q', Some(asker)) => {
                self.heard += 1;
                let answer = [&b"A"[..], &data[1..]].concat();
                match self.answer_after {
                    Some(delay) => {
                        self.owed.push((group, asker, answer));
                        api.set_app_timer(ctx, delay, 0);
                    }
                    None => drop(api.send_private_to_entry(ctx, group, &asker, answer, false)),
                }
            }
            (b'A', _) => {
                if let Some(msg_id) = self.asked.remove(&nonce) {
                    api.wcl.notify_response(ctx, msg_id);
                    self.answered.push(nonce);
                }
            }
            other => panic!("neither question nor answer: {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, _token: u64) {
        if !self.owed.is_empty() {
            let (group, asker, answer) = self.owed.remove(0);
            api.send_private_to_entry(ctx, group, &asker, answer, false);
        }
    }

    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_>, _api: &mut WhisperApi<'_>) {
        self.asked.clear();
        self.owed.clear();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Rig {
    sim: Sim,
    source: NodeId,
    dest: NodeId,
    publics: Vec<NodeId>,
}

/// Same shape as the `wcl_paths.rs` rig: two bootstraps, a few P-nodes,
/// NATted source and destination, PSS warmed up; every node runs a
/// [`Talker`], which does nothing until a group exists.
fn rig(cfg: WhisperConfig, extra_publics: usize, seed: u64) -> Rig {
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));
    let mk = |boot: bool, keyrng: &mut StdRng| {
        let key = KeyPair::generate(cfg.nylon.rsa, keyrng);
        let mut node = WhisperNode::with_app(cfg.clone(), key, Box::<Talker>::default());
        if !boot {
            node.nylon_mut().set_bootstrap(vec![NodeId(0), NodeId(1)]);
        }
        node
    };
    let b0 = sim.add_node(Box::new(mk(true, &mut keyrng)), NatType::Public);
    let b1 = sim.add_node(Box::new(mk(true, &mut keyrng)), NatType::Public);
    sim.with_node_ctx::<WhisperNode>(b0, |n, _| n.nylon_mut().set_bootstrap(vec![b1]));
    sim.with_node_ctx::<WhisperNode>(b1, |n, _| n.nylon_mut().set_bootstrap(vec![b0]));
    let mut publics = vec![b0, b1];
    publics.extend(
        (0..extra_publics).map(|_| sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::Public)),
    );
    let source = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::RestrictedCone);
    let dest = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::PortRestrictedCone);
    sim.run_for_secs(250);
    Rig { sim, source, dest, publics }
}

fn entry_of(sim: &mut Sim, dest: NodeId) -> PrivateEntry {
    let mut info = None;
    sim.with_node_ctx::<WhisperNode>(dest, |node, _| {
        node.with_api(|api, _| {
            info = Some(api.my_entry());
        });
    });
    info.expect("dest alive")
}

fn send_untracked(sim: &mut Sim, source: NodeId, dest: &PrivateEntry, payload: &[u8]) -> bool {
    let mut sent = false;
    sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
        node.with_api(|api, _| {
            sent = api.wcl.send_untracked(ctx, dest, payload, None);
        });
    });
    sent
}

/// Sends `payload` tracked; nobody answers at this layer, so every retry
/// fires.
fn send_tracked(sim: &mut Sim, source: NodeId, dest: &PrivateEntry, payload: &[u8]) {
    let mut sent = false;
    sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, dest, payload.to_vec(), None, id);
        });
    });
    assert!(sent);
}

#[test]
fn second_send_rides_the_cached_circuit() {
    let mut r = rig(WhisperConfig::default(), 6, 201);
    let dest_entry = entry_of(&mut r.sim, r.dest);

    // First send: full RSA onion, establishing the circuit along the way.
    assert!(send_untracked(&mut r.sim, r.source, &dest_entry, b"first"));
    r.sim.run_for_secs(5);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_established"), 1);
    assert_eq!(m.counter("wcl.circuit_hit"), 0);
    assert_eq!(m.counter("wcl.delivered"), 1);
    // All 3 hops (A, B, D) installed the circuit state from their layer.
    assert_eq!(m.counter("wcl.circuit_installed"), 3);

    // Second send: no RSA at all — pure circuit forwarding.
    assert!(send_untracked(&mut r.sim, r.source, &dest_entry, b"second"));
    r.sim.run_for_secs(5);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_established"), 1, "no re-establishment");
    assert_eq!(m.counter("wcl.circuit_hit"), 1);
    assert_eq!(m.counter("wcl.circuit_forwarded"), 2, "A and B each stripped a layer");
    assert_eq!(m.counter("wcl.circuit_delivered"), 1);
    assert_eq!(m.counter("wcl.delivered"), 2);
    // The relay-count invariant holds across both packet formats.
    assert_eq!(m.counter("wcl.relayed"), 2 * m.counter("wcl.delivered"));
    assert_eq!(m.counter("wcl.circuit_miss_drop"), 0);
}

#[test]
fn circuit_ttl_expires_and_reestablishes() {
    let mut r = rig(WhisperConfig::default(), 6, 202);
    let dest_entry = entry_of(&mut r.sim, r.dest);

    assert!(send_untracked(&mut r.sim, r.source, &dest_entry, b"establish"));
    // The source cache (CIRCUIT_TTL / 2) and the relay TTL both lapse.
    r.sim.run_for(CIRCUIT_TTL + SimDuration::from_secs(10));

    assert!(send_untracked(&mut r.sim, r.source, &dest_entry, b"after expiry"));
    r.sim.run_for_secs(5);
    let m = r.sim.metrics();
    assert_eq!(
        m.counter("wcl.circuit_established"),
        2,
        "expired route must be re-established, not reused"
    );
    assert_eq!(m.counter("wcl.circuit_hit"), 0);
    assert_eq!(m.counter("wcl.delivered"), 2);
    assert_eq!(m.counter("wcl.circuit_miss_drop"), 0, "the source never races relay expiry");
}

#[test]
fn relay_state_loss_drops_then_retry_rebuilds() {
    let mut r = rig(WhisperConfig::default(), 6, 203);
    let dest_entry = entry_of(&mut r.sim, r.dest);

    assert!(send_untracked(&mut r.sim, r.source, &dest_entry, b"establish"));
    r.sim.run_for_secs(5);
    assert_eq!(r.sim.metrics().counter("wcl.delivered"), 1);

    // Every node except the source loses its circuit state (churn /
    // restart). The source's cached route is now a dangling pointer.
    let victims: Vec<NodeId> = r.publics.iter().copied().chain([r.dest]).collect();
    for node in victims {
        r.sim.with_node_ctx::<WhisperNode>(node, |n, _| {
            n.with_api(|api, _| api.wcl.flush_circuits());
        });
    }

    // An untracked send rides the stale circuit and dies at the first
    // relay — fire-and-forget means nobody notices.
    assert!(send_untracked(&mut r.sim, r.source, &dest_entry, b"into the void"));
    r.sim.run_for_secs(5);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_hit"), 1);
    assert_eq!(m.counter("wcl.circuit_miss_drop"), 1);
    assert_eq!(m.counter("wcl.delivered"), 1, "the dropped packet never arrives");

    // A *tracked* send recovers: the first attempt also dies on the stale
    // circuit, the retry timer tears the route down and rebuilds over a
    // fresh RSA onion.
    send_tracked(&mut r.sim, r.source, &dest_entry, b"must arrive");
    r.sim.run_for_secs(30);
    let m = r.sim.metrics();
    assert!(m.counter("wcl.circuit_teardown") >= 1, "stale route torn down");
    assert!(m.counter("wcl.route_retry") >= 1, "retry machinery engaged");
    assert!(
        m.counter("wcl.circuit_established") >= 2,
        "rebuild goes through a fresh RSA establishment"
    );
    assert!(m.counter("wcl.delivered") >= 2, "the tracked payload arrives after rebuild");
}

fn cached_routes(sim: &mut Sim, node: NodeId) -> usize {
    let mut routes = 0;
    sim.with_node_ctx::<WhisperNode>(node, |n, _| {
        n.with_api(|api, _| routes = api.wcl.cached_routes());
    });
    routes
}

#[test]
fn route_cache_holds_unexpired_routes_only() {
    let mut r = rig(WhisperConfig::default(), 6, 204);
    // One route each to four destinations, as a node with random-view
    // peers accretes them.
    let early: Vec<NodeId> = r.publics[2..5].iter().copied().chain([r.dest]).collect();
    for &dest in &early {
        let info = entry_of(&mut r.sim, dest);
        assert!(send_untracked(&mut r.sim, r.source, &info, b"hello"));
    }
    assert_eq!(cached_routes(&mut r.sim, r.source), 4);
    r.sim.run_for_secs(source_cache_secs() - 10);
    let late = entry_of(&mut r.sim, r.publics[5]);
    assert!(send_untracked(&mut r.sim, r.source, &late, b"hello"));
    assert_eq!(cached_routes(&mut r.sim, r.source), 5, "nothing has expired yet");
    r.sim.run_for_secs(12); // the first four lapse, the fifth has 48 s left
    // The next establishment (towards a destination seen before or not)
    // collects every expired route.
    let again = entry_of(&mut r.sim, early[0]);
    assert!(send_untracked(&mut r.sim, r.source, &again, b"hello again"));
    assert_eq!(cached_routes(&mut r.sim, r.source), 2, "the fifth route and the new one");
    assert_eq!(r.sim.metrics().counter("wcl.circuit_established"), 6);
    assert_eq!(r.sim.metrics().counter("wcl.circuit_teardown"), 0);
}

#[test]
fn retry_on_an_expired_route_counts_no_teardown() {
    let mut cfg = WhisperConfig::default();
    cfg.wcl.adaptive_rto = false; // a retry exactly 2 s after its send
    let mut r = rig(cfg, 6, 205);
    let held = entry_of(&mut r.sim, r.publics[2]);
    let swept = entry_of(&mut r.sim, r.dest);
    // Two routes that lapse together, as they do for conversations whose
    // peers have gone quiet ...
    assert!(send_untracked(&mut r.sim, r.source, &held, b"hello"));
    assert!(send_untracked(&mut r.sim, r.source, &swept, b"hello"));
    // ... and on each, shortly before, a tracked send nobody answers.
    r.sim.run_for(SimDuration::from_millis(source_cache_secs() * 1000 - 1800));
    send_tracked(&mut r.sim, r.source, &held, b"anyone?");
    r.sim.run_for(SimDuration::from_millis(600));
    send_tracked(&mut r.sim, r.source, &swept, b"anyone?");
    assert_eq!(r.sim.metrics().counter("wcl.circuit_hit"), 2, "both rode their circuits");
    // The first retry finds its route lapsed but still held; the path it
    // builds instead is an establishment, which sweeps every lapsed route
    // before the second retry looks for its own.
    r.sim.run_for(SimDuration::from_millis(1500));
    assert_eq!(r.sim.metrics().counter("wcl.route_retry"), 1);
    assert_eq!(cached_routes(&mut r.sim, r.source), 1, "the rebuilt route only");
    r.sim.run_for(SimDuration::from_millis(600));
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.route_retry"), 2, "both first retries ran, no second one yet");
    assert_eq!(m.counter("wcl.circuit_teardown"), 0, "no live circuit was ever torn down");
}

/// Runs `f` on `node`'s stack inside a callback of its own.
fn in_callback<R>(
    sim: &mut Sim,
    node: NodeId,
    f: impl FnOnce(&mut WhisperApi<'_>, &mut Ctx<'_>) -> R,
) -> R {
    let mut result = None;
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        result = Some(n.with_api(|api, _| f(api, ctx)));
    });
    result.expect("node alive")
}

/// The neighbour packets handed to a WCL directly claim to come from.
const SENDER: NodeId = NodeId(9_000);

/// Hands `packet` to `node`'s WCL as the payload of a Nylon `App` message
/// that has just arrived from [`SENDER`].
fn hand_to_wcl(sim: &mut Sim, node: NodeId, packet: &[u8]) -> Option<WclEvent> {
    in_callback(sim, node, |api, ctx| {
        api.wcl.on_app_payload(ctx, (SENDER, true), packet)
    })
}

fn carried_circuits(sim: &mut Sim, node: NodeId) -> usize {
    in_callback(sim, node, |api, _| api.wcl.carried_circuits())
}

fn public_key_of(sim: &mut Sim, node: NodeId) -> PublicKey {
    in_callback(sim, node, |api, _| api.wcl.nylon().keypair().public().clone())
}

/// The address of a public `node` as an onion layer names it.
fn public_hop_addr(node: NodeId) -> Vec<u8> {
    let mut addr = node.to_bytes().to_vec();
    addr.push(1);
    addr
}

/// The wire image of an onion packet (tag `0xC1`).
fn onion_wire(onion: &OnionPacket) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(0xC1);
    w.put_bytes(&onion.header);
    w.put_bytes(&onion.body);
    w.into_bytes()
}

/// The wire image of a circuit packet on its way out (tag `0xC2`) or back
/// (`0xC3`).
fn circuit_wire(tag: u8, cid: CircuitId, nonce: [u8; 8], body: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(tag);
    w.put_raw(&cid.0);
    w.put_raw(&nonce);
    w.put_bytes(body);
    w.into_bytes()
}

/// `head`, a prefix for `len` that no decoder may take, then `tail`: `len`
/// in eight bytes, wider than it needs; eight bytes that claim 2⁶² − 1;
/// or the first two bytes of a four-byte prefix, and nothing behind.
fn refused_len(g: &mut Gen, head: &[u8], len: usize, tail: &[u8]) -> Vec<u8> {
    match g.gen_range(0..3u8) {
        0 => [head, &(0xC000_0000_0000_0000 | len as u64).to_be_bytes(), tail].concat(),
        1 => [head, &[0xFF; 8], tail].concat(),
        _ => [head, &[0x80, 0]].concat(),
    }
}

/// A setup extension of a foreign length is the source's problem, not the
/// packet's: the hop counts it, installs nothing, and the layer it came
/// in is relayed or delivered all the same.
#[test]
fn foreign_length_setup_is_counted_and_the_layer_still_travels() {
    let mut r = rig(WhisperConfig::default(), 6, 206);
    let (relay, dest) = (r.publics[2], r.publics[3]);
    let path = [
        (public_key_of(&mut r.sim, relay), public_hop_addr(relay)),
        (public_key_of(&mut r.sim, dest), public_hop_addr(dest)),
    ];
    // Neither 24 nor 32 bytes: one short of the relay form, one beyond
    // the destination form.
    let exts = [vec![0xAA; RELAY_SETUP_LEN - 1], vec![0xBB; DEST_SETUP_LEN + 1]];
    let mut rng = StdRng::seed_from_u64(206);
    let onion = build_onion_ext(&path, b"rides on regardless", &exts, &mut rng).unwrap();
    r.sim.metrics_mut().reset_counters_and_samples();

    let at_relay = hand_to_wcl(&mut r.sim, relay, &onion_wire(&onion));
    assert!(at_relay.is_none(), "a relay delivers nothing");
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_bad_setup"), 1, "the relay's extension");
    assert_eq!(m.counter("wcl.relayed"), 1, "and its layer went on");
    r.sim.run_for_secs(2);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_bad_setup"), 2, "the destination's extension");
    assert_eq!(m.counter("wcl.delivered"), 1, "and its layer was delivered");
    assert_eq!(m.counter("wcl.circuit_installed"), 0);
    assert_eq!(m.counter("wcl.peel_failed") + m.counter("wcl.bad_next_hop"), 0);
    for node in [relay, dest] {
        assert_eq!(carried_circuits(&mut r.sim, node), 0, "nothing installed at {node:?}");
    }
}

/// A circuit whose stored next hop does not parse — which no setup this
/// node peeled itself can have installed — drops its packets before any
/// work is spent on the body: no CTR pass, no frame, nothing sent. (A hop
/// longer than an address is no entry at all: `CircuitEntry::new` refuses
/// it.)
#[test]
fn malformed_next_hop_drops_the_packet_before_any_work() {
    let mut r = rig(WhisperConfig::default(), 6, 207);
    let relay = r.publics[2];
    let good = public_hop_addr(r.publics[3]);
    let bad_hops: [Vec<u8>; 4] = [
        Vec::new(),                      // a destination's, under a relay's ids
        good[..8].to_vec(),              // the flag byte missing
        [&good[..8], &[2]].concat(),     // a flag that is neither class
        [&good[..8], &[0xFF]].concat(),
    ];
    let now = r.sim.now();
    for (i, hop) in bad_hops.iter().enumerate() {
        let entry = CircuitEntry::new(AesKey([7; 16]), hop.clone(), Some(CircuitId([0xEE; 8])));
        in_callback(&mut r.sim, relay, |api, _| {
            api.wcl.carry_circuit(now, CircuitId([i as u8; 8]), entry)
        });
    }
    r.sim.metrics_mut().reset_counters_and_samples();
    let sent_before = r.sim.metrics().traffic(relay).up_msgs;
    let cost_before = whisper_crypto::costs::snapshot();
    for i in 0..bad_hops.len() {
        let packet = circuit_wire(0xC2, CircuitId([i as u8; 8]), [3; 8], &[0x5A; 256]);
        assert!(hand_to_wcl(&mut r.sim, relay, &packet).is_none());
    }
    assert_eq!(whisper_crypto::costs::snapshot(), cost_before, "no AES block was touched");
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.bad_next_hop"), bad_hops.len() as u64);
    assert_eq!(m.traffic(relay).up_msgs, sent_before, "nothing left the node");
    for untouched in ["wcl.relayed", "wcl.circuit_forwarded", "wcl.relay_drop", "wcl.delivered"] {
        assert_eq!(m.counter(untouched), 0, "{untouched}");
    }
}

/// Totality of the decoders on a node that holds keys — its RSA key, a
/// circuit ending here, a circuit passing through with a way back, a
/// group it leads — so that a well-formed packet *would* be delivered,
/// forwarded, installed or handed to the application.
///
/// Whatever follows a `0xC2` or `0xC3` tag — random bytes, a valid packet
/// of a carried circuit, either way, cut short or grown, one with a bit
/// flipped in a field the hop itself reads (tag, circuit id, length) or
/// one whose length no decoder may take (wider than it needs, claiming
/// 2⁶² − 1, cut short) — and whatever follows a `0xC1` tag — random
/// bytes, an onion sealed for this very node cut short or grown, or one
/// with a bit flipped in the tag or in either length field, or either
/// length refused the same ways — `Wcl::on_app_payload` returns without
/// panicking, delivers nothing, forwards nothing and installs nothing, and
/// a packet that still carries its tag is counted under the name of its
/// drop. The borrowed onion view refuses what the owned decoder it
/// replaced refused. `HopSetup::decode` takes any extension, accepting
/// exactly its two lengths. (A flip in a circuit packet's nonce or body is
/// a well-formed packet: CTR carries no integrity, the garbage it decrypts
/// to is the PPSS signature check's to reject.)
///
/// One layer up, whatever the circuit delivers under an application tag —
/// the long or the short image of a message cut short, grown, spliced
/// with the other or with a bit flipped anywhere — `Ppss::on_delivered`
/// refuses, drops under a name, or hands up as a message from the one
/// member that ever stated who it is on that circuit, in the group it
/// stated it for; a short form never borrows an identity from anywhere
/// else, and nothing it hands up is larger than what came in.
#[test]
fn circuit_decoders_are_total_on_hostile_bytes() {
    let cfg = WhisperConfig::default();
    let mut keyrng = StdRng::seed_from_u64(208);
    let keypair = KeyPair::generate(cfg.nylon.rsa, &mut keyrng);
    let next = KeyPair::generate(cfg.nylon.rsa, &mut keyrng);
    let mut sim = Sim::new(SimConfig::ideal(208));
    let node = sim.add_node(Box::new(WhisperNode::new(cfg, keypair.clone())), NatType::Public);
    sim.run_for_secs(1); // started: the node knows its id
    // One circuit ending here and one passing through, so that a packet
    // which did name them would be delivered or forwarded — on under
    // `onward` towards node 9, or back under `passing` towards node 8.
    let (ending, passing, onward) = (CircuitId([0x11; 8]), CircuitId([0x22; 8]), CircuitId([0x33; 8]));
    let now = sim.now();
    in_callback(&mut sim, node, |api, _| {
        let ends_here = CircuitEntry::new(AesKey([1; 16]), Vec::new(), None);
        api.wcl.carry_circuit(now, ending, ends_here.reached_from(&public_hop_addr(NodeId(8))));
        let through = CircuitEntry::new(AesKey([2; 16]), public_hop_addr(NodeId(9)), Some(onward));
        api.wcl.carry_circuit(now, passing, through.reached_from(&public_hop_addr(NodeId(8))));
    });
    // Two onions this node can peel, each layer with a circuit to install:
    // one it is the destination of, one it is to relay.
    let setup = |cid_out| {
        HopSetup { cid_in: CircuitId([0x44; 8]), cid_out, key: AesKey([4; 16]) }.encode()
    };
    let path = [
        (keypair.public().clone(), public_hop_addr(node)),
        (next.public().clone(), public_hop_addr(NodeId(9))),
    ];
    let for_here =
        build_onion_ext(&path[..1], &[0x5A; 60], &[setup(None)], &mut keyrng).unwrap();
    let through_here = build_onion_ext(
        &path,
        &[0x5A; 60],
        &[setup(Some(CircuitId([0x55; 8]))), setup(None)],
        &mut keyrng,
    )
    .unwrap();

    // Two groups this node leads, and the two images of a message in the
    // first from the one member there is: itself.
    let (mut spoken, mut silent) = (GroupId(0), GroupId(0));
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        spoken = n.create_group(ctx, "spoken in");
        silent = n.create_group(ctx, "never spoken in");
    });
    let (passport, entry) = in_callback(&mut sim, node, |api, _| {
        (api.ppss.group(spoken).expect("led").passport().clone(), api.my_entry())
    });
    let long = PpssMsg::AppData {
        group: spoken,
        passport,
        data: vec![0xD7; 40],
        reply_entry: Some(entry.clone()),
    }
    .to_wire();
    let short = |group| PpssMsg::AppShort { group, data: vec![0xD7; 40] }.to_wire();
    // What the PPSS makes of `wire` arriving on the circuit that ends here:
    // `None` for a refusal to parse, else the application messages handed
    // up as (group, sender, length, whether an entry came along).
    let deliver = |sim: &mut Sim, wire: &[u8]| {
        let via = Some(Arrival::Forward(ending));
        let events =
            in_callback(sim, node, |api, ctx| api.ppss.on_delivered(ctx, api.wcl, via, wire))?;
        let handed_up = events.into_iter().map(|event| match event {
            whisper_core::PpssEvent::AppMessage { group, from, data, reply_entry } => {
                (group, from, data.len(), reply_entry.is_some())
            }
            other => panic!("{other:?} from an application message"),
        });
        Some(handed_up.collect::<Vec<_>>())
    };
    let context_misses = |sim: &Sim| sim.metrics().counter("ppss.context_miss");
    // Nobody has said who talks on this circuit: a short form is dropped,
    // not attributed to the only member there could be.
    assert_eq!(deliver(&mut sim, &short(spoken)), Some(vec![]));
    assert_eq!(context_misses(&sim), 1);
    let stated = vec![(spoken, node, 40, true)];
    assert_eq!(deliver(&mut sim, &long), Some(stated.clone()));
    assert_eq!(deliver(&mut sim, &short(spoken)), Some(stated.clone()), "what was stated holds");
    // Stated for one group is not stated for another, member of it or not.
    assert_eq!(deliver(&mut sim, &short(silent)), Some(vec![]));
    assert_eq!(context_misses(&sim), 2);

    let sim = RefCell::new(sim);
    whisper_rand::check::check(512, "circuit_decoders_are_total_on_hostile_bytes", |g| {
        let sim = &mut *sim.borrow_mut();
        let body = g.bytes(80);
        let valid = match g.gen_range(0..3u8) {
            0 => circuit_wire(0xC2, ending, g.gen(), &body),
            1 => circuit_wire(0xC2, passing, g.gen(), &body),
            _ => circuit_wire(0xC3, onward, g.gen(), &body),
        };
        // Tag, id and nonce are bytes 0..17, the body length behind them.
        let body_at = 17 + WireLen::of(|n| n.put_len(body.len()));
        let circuit_packet = match g.gen_range(0..5u8) {
            0 => [&valid[..1], &g.bytes(120)].concat(),
            1 => valid[..g.gen_range(0..valid.len())].to_vec(),
            2 => [&valid[..], &g.bytes(8), &[0]].concat(),
            3 => refused_len(g, &valid[..17], body.len(), &valid[body_at..]),
            _ => {
                let at = if g.gen_bool(0.7) { g.gen_range(0..9) } else { g.gen_range(17..body_at) };
                let mut flipped = valid;
                flipped[at] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
        };
        let onion = if g.gen_bool(0.5) { &for_here } else { &through_here };
        let valid = onion_wire(onion);
        // The tag is byte 0, the header length behind it, the body
        // length behind the header.
        let header_at = 1 + WireLen::of(|n| n.put_len(onion.header.len()));
        let body_len_at = header_at + onion.header.len();
        let body_at = body_len_at + WireLen::of(|n| n.put_len(onion.body.len()));
        let onion_packet = match g.gen_range(0..5u8) {
            0 => [&[0xC1][..], &g.bytes(200)].concat(),
            1 => valid[..g.gen_range(0..valid.len())].to_vec(),
            2 => [&valid[..], &g.bytes(8), &[0]].concat(),
            3 if g.gen_bool(0.5) => refused_len(g, &valid[..1], onion.header.len(), &valid[header_at..]),
            3 => refused_len(g, &valid[..body_len_at], onion.body.len(), &valid[body_at..]),
            _ => {
                let at = match g.gen_range(0..3u8) {
                    0 => 0,
                    1 => g.gen_range(1..header_at),
                    _ => g.gen_range(body_len_at..body_at),
                };
                let mut flipped = valid;
                flipped[at] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
        };
        for packet in [circuit_packet, onion_packet] {
            let drops = |sim: &Sim| -> u64 {
                ["wcl.malformed", "wcl.peel_failed", "wcl.circuit_miss_drop"]
                    .iter()
                    .map(|name| sim.metrics().counter(name))
                    .sum()
            };
            let dropped_before = drops(sim);
            assert!(hand_to_wcl(sim, node, &packet).is_none(), "delivered {packet:02x?}");
            assert_eq!(carried_circuits(sim, node), 2, "installed from {packet:02x?}");
            let m = sim.metrics();
            assert_eq!(m.counter("wcl.delivered") + m.counter("wcl.relayed"), 0);
            assert_eq!(m.counter("wcl.circuit_installed"), 0);
            assert_eq!(m.traffic(node).up_msgs, 0, "nothing sent");
            // A packet whose tag survived is a WCL packet, and its drop has
            // a name; any other first byte is somebody else's to parse.
            let tagged = matches!(packet.first(), Some(0xC1..=0xC3));
            assert_eq!(drops(sim) - dropped_before, tagged as u64, "{packet:02x?}");
        }

        let ext = g.bytes(40);
        match HopSetup::decode(&ext) {
            Some(setup) => {
                assert!([DEST_SETUP_LEN, RELAY_SETUP_LEN].contains(&ext.len()));
                assert_eq!(setup.encode(), ext, "what was accepted reads back");
            }
            None => assert!(![DEST_SETUP_LEN, RELAY_SETUP_LEN].contains(&ext.len())),
        }

        let (valid, other) = if g.gen_bool(0.5) { (&long, short(spoken)) } else { (&short(silent), long.clone()) };
        let message = match g.gen_range(0..5u8) {
            0 => [&valid[..1], &g.bytes(300)].concat(),
            1 => valid[..g.gen_range(0..valid.len())].to_vec(),
            2 => [&valid[..], &g.bytes(8), &[0]].concat(),
            3 => {
                let (head, tail) = (g.gen_range(0..=valid.len()), g.gen_range(0..=other.len()));
                [&valid[..head], &other[tail..]].concat()
            }
            _ => {
                let mut flipped = valid.clone();
                flipped[g.gen_range(0..valid.len())] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
        };
        let misses_before = context_misses(sim);
        for (group, from, len, _) in deliver(sim, &message).unwrap_or_default() {
            assert_eq!((group, from), (spoken, node), "attributed by guess: {message:02x?}");
            assert!(len <= message.len());
        }
        // A short form about anything but what was stated is a miss.
        if let Ok(PpssMsg::AppShort { group, .. }) = PpssMsg::from_wire(&message) {
            let missed = context_misses(sim) - misses_before;
            assert_eq!(missed, (group != spoken) as u64, "{message:02x?}");
        }
    });

    // The control: untouched, the packets do what the mutants must not.
    let sim = &mut *sim.borrow_mut();
    let delivered = hand_to_wcl(sim, node, &onion_wire(&for_here));
    let via = Some(Arrival::Forward(CircuitId([0x44; 8])));
    assert_eq!(delivered, Some(WclEvent::Delivered { payload: vec![0x5A; 60], via }));
    assert!(hand_to_wcl(sim, node, &onion_wire(&through_here)).is_none());
    let m = sim.metrics();
    assert_eq!((m.counter("wcl.delivered"), m.counter("wcl.relayed")), (1, 1));
    assert_eq!(m.counter("wcl.circuit_installed"), 2);
    assert_eq!(m.traffic(node).up_msgs, 1, "the relayed onion left for its next hop");
    assert!(hand_to_wcl(sim, node, &circuit_wire(0xC3, onward, [3; 8], &[0x5A; 60])).is_none());
    let m = sim.metrics();
    assert_eq!((m.counter("wcl.relayed"), m.counter("wcl.circuit_forwarded")), (2, 1));
    assert_eq!(m.traffic(node).up_msgs, 2, "the return packet left for the previous hop");
    assert_eq!(deliver(sim, &short(spoken)), Some(stated), "and the stated context still holds");
}

/// A host that keeps every datagram it is sent.
#[derive(Default)]
struct Inbox(Vec<Vec<u8>>);

impl Protocol for Inbox {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, data: &Payload) {
        self.0.push(data.to_vec());
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A WCL packet that came over a rendezvous chain reaches the WCL with the
/// chain's first hop as its previous hop, not with the relay that handed
/// it on: the circuit its onion sets up here leads back to the origin, so
/// a return packet on it leaves wrapped for the origin, over the relay.
#[test]
fn a_relayed_wcl_packet_reaches_the_wcl_from_the_chains_first_hop() {
    let cfg = WhisperConfig::default();
    let mut keyrng = StdRng::seed_from_u64(210);
    let keypair = KeyPair::generate(cfg.nylon.rsa, &mut keyrng);
    let next = KeyPair::generate(cfg.nylon.rsa, &mut keyrng);
    let mut sim = Sim::new(SimConfig::ideal(210));
    let node = sim.add_node(Box::new(WhisperNode::new(cfg, keypair.clone())), NatType::Public);
    let relay = sim.add_node(Box::<Inbox>::default(), NatType::Public);
    let origin = NodeId(8_000);
    sim.run_for_secs(1);
    // An onion this node is to mix on towards node 9, setting up a circuit
    // in under one id and out under another.
    let (cid_in, cid_out) = (CircuitId([0x44; 8]), CircuitId([0x55; 8]));
    let setup = HopSetup { cid_in, cid_out: Some(cid_out), key: AesKey([4; 16]) }.encode();
    let path = [
        (keypair.public().clone(), public_hop_addr(node)),
        (next.public().clone(), public_hop_addr(NodeId(9))),
    ];
    let onion = build_onion_ext(&path, &[0x5A; 60], &[setup, vec![]], &mut keyrng).unwrap();
    let relayed = NylonMsg::Chain {
        remaining: vec![],
        taken: vec![origin, relay],
        body: ChainBody::Relayed(NylonMsg::App { payload: onion_wire(&onion) }.to_wire()),
    };
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        n.on_message(ctx, relay, Endpoint::public(relay), &Payload::fresh(relayed.to_wire()));
    });
    assert_eq!(sim.metrics().counter("wcl.circuit_installed"), 1);
    assert!(hand_to_wcl(&mut sim, node, &circuit_wire(0xC3, cid_out, [3; 8], &[0x5A; 60])).is_none());
    sim.run_for_secs(1);
    let got = &sim.node::<Inbox>(relay).unwrap().0;
    assert_eq!(got.len(), 1, "one datagram to the relay");
    let Ok(NylonMsg::Chain { remaining, taken, body: ChainBody::Relayed(inner) }) = NylonMsg::from_wire(&got[0])
    else {
        panic!("not a relayed message: {:02x?}", got[0]);
    };
    assert_eq!((remaining, taken), (vec![origin], vec![node]), "wrapped for the origin");
    assert_eq!(NylonMsg::app_view(&inner).and_then(|packet| packet.first().copied()), Some(0xC3));
}

/// Runs `f` on `node`'s [`Talker`] with the stack's API.
fn talker<R>(
    sim: &mut Sim,
    node: NodeId,
    f: impl FnOnce(&mut Talker, &mut WhisperApi<'_>, &mut Ctx<'_>) -> R,
) -> R {
    let mut result = None;
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        result = Some(n.with_api(|api, app| {
            f(app.as_any_mut().downcast_mut::<Talker>().expect("the rig's app"), api, ctx)
        }));
    });
    result.expect("node alive")
}

fn ask(r: &mut Rig, group: GroupId, nonce: u64) {
    let dest = r.dest;
    talker(&mut r.sim, r.source, |app, api, ctx| app.ask(ctx, api, group, dest, nonce));
}

fn answered(r: &mut Rig) -> Vec<u64> {
    talker(&mut r.sim, r.source, |app, _, _| app.answered.clone())
}

fn pending_sends(sim: &mut Sim, node: NodeId) -> usize {
    in_callback(sim, node, |api, _| api.wcl.pending_sends())
}

/// The destination founds a group and the source joins it. Returns the
/// group and the P-nodes the source's route to the destination — built
/// for the join request, and ridden by every question of the next minute
/// — runs through: those that carried a circuit when the request arrived,
/// before any answer could have set one up.
fn converse(r: &mut Rig) -> (GroupId, Vec<NodeId>) {
    let (source, dest) = (r.source, r.dest);
    let mut invitation = None;
    r.sim.with_node_ctx::<WhisperNode>(dest, |n, ctx| {
        let group = n.create_group(ctx, "conversation");
        invitation = n.invite(group, source);
    });
    let invitation = invitation.expect("the creator leads");
    let group = invitation.group;
    r.sim.with_node_ctx::<WhisperNode>(source, |n, ctx| n.join_group(ctx, invitation));
    while r.sim.metrics().counter("wcl.delivered") == 0 {
        r.sim.run_for(SimDuration::from_millis(1));
    }
    let publics = r.publics.clone();
    let way_out: Vec<NodeId> =
        publics.into_iter().filter(|&p| carried_circuits(&mut r.sim, p) > 0).collect();
    assert_eq!(way_out.len(), 2, "the two mixes of the request's route");
    r.sim.run_for_secs(3);
    assert_eq!(r.sim.metrics().counter("ppss.joins_completed"), 1);
    (group, way_out)
}

/// Asks question `nonce` at a moment when nothing else of the two nodes is
/// under way — no tracked send pending, no PPSS cycle inside the window —
/// with the counters reset, and runs `window`.
fn ask_in_quiet(r: &mut Rig, group: GroupId, nonce: &mut u64, window: SimDuration) {
    for _ in 0..40 {
        let busy = pending_sends(&mut r.sim, r.source) + pending_sends(&mut r.sim, r.dest);
        r.sim.metrics_mut().reset_counters_and_samples();
        *nonce += 1;
        ask(r, group, *nonce);
        r.sim.run_for(window);
        let m = r.sim.metrics();
        if busy + (m.counter("ppss.exchanges_initiated") + m.counter("ppss.exchanges_served")) as usize == 0 {
            return;
        }
    }
    panic!("no quiet window in 40 tries");
}

/// The black hole this PR closes. Source and destination have talked; a
/// node that carries no part of the source's route loses its state.
/// Before, the destination answered over a route of its own, through
/// mixes of its own choosing, which it cached and never heard back about:
/// with one of *those* gone, every answer vanished while the source tore
/// down its own working path four times over. Now the answer crosses the
/// links its question crossed, so what the rest of the network forgets
/// cannot matter: answered at the first attempt, no RSA onion built for
/// it, one return packet sent and one delivered.
#[test]
fn an_answer_rides_back_on_the_circuit_its_question_came_in_on() {
    let mut r = rig(WhisperConfig::default(), 6, 209);
    let (group, way_out) = converse(&mut r);
    let mut nonce = 0;
    ask_in_quiet(&mut r, group, &mut nonce, SimDuration::from_secs(2));
    assert_eq!(answered(&mut r).last(), Some(&nonce), "they talk");

    let bystanders: Vec<NodeId> =
        r.publics.iter().copied().filter(|p| !way_out.contains(p)).collect();
    for node in bystanders {
        in_callback(&mut r.sim, node, |api, _| api.wcl.flush_circuits());
    }
    ask_in_quiet(&mut r, group, &mut nonce, SimDuration::from_secs(2));
    assert_eq!(answered(&mut r).last(), Some(&nonce), "answered");
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.route_first_success"), 1, "at the first attempt");
    for idle in ["wcl.route_retry", "wcl.route_exhausted", "wcl.circuit_miss_drop", "wcl.paths_built"] {
        assert_eq!(m.counter(idle), 0, "{idle}");
    }
    assert_eq!((m.counter("wcl.return_sent"), m.counter("wcl.return_delivered")), (1, 1));
    assert_eq!(m.counter("wcl.circuit_hit"), 2, "question and answer, no RSA for either");
    // Both were the short form: each side had said who it is.
    assert_eq!(m.counter("wcl.short_sent"), 2);
    assert_eq!(m.counter("wcl.circuit_forwarded"), 4, "two mixes, each way");
    assert_eq!(m.counter("wcl.relayed"), 4);
}

/// Restarts `node` on the spot, as a scripted crash with no outage would.
fn restart(sim: &mut Sim, node: NodeId) {
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| n.on_crash_restart(ctx));
}

/// A destination that restarts between question and answer has forgotten
/// the circuit, who was bound to it and the answer it owed: the question
/// is asked again — over a fresh onion, since the old circuit now ends in
/// a miss — and answered on the circuit *that* set up. Nothing panics and
/// no tracked send is left unresolved.
#[test]
fn a_destination_that_restarts_before_answering_is_asked_again() {
    let mut r = rig(WhisperConfig::default(), 6, 210);
    let (group, _) = converse(&mut r);
    talker(&mut r.sim, r.dest, |app, _, _| app.answer_after = Some(SimDuration::from_millis(300)));
    ask(&mut r, group, 1);
    r.sim.run_for_secs(2);
    assert_eq!(answered(&mut r), [1]);

    r.sim.metrics_mut().reset_counters_and_samples();
    ask(&mut r, group, 2);
    r.sim.run_for(SimDuration::from_millis(150));
    assert_eq!(talker(&mut r.sim, r.dest, |app, _, _| app.owed.len()), 1, "heard, not yet answered");
    restart(&mut r.sim, r.dest);
    assert_eq!(carried_circuits(&mut r.sim, r.dest), 0);
    r.sim.run_for_secs(20);
    assert_eq!(answered(&mut r), [1, 2]);
    let m = r.sim.metrics();
    assert!(m.counter("wcl.route_retry") >= 1, "asked again");
    assert_eq!(m.counter("wcl.route_alt_success"), 1);
    assert!(m.counter("wcl.return_delivered") >= 1, "answered on the new circuit");
    assert_eq!(pending_sends(&mut r.sim, r.source) + pending_sends(&mut r.sim, r.dest), 0);
}

/// A source that restarts has forgotten its routes, and with them where
/// return packets end: the answer to a question it asked before arrives
/// under an id it no longer knows and is a named drop.
#[test]
fn a_source_that_restarts_drops_the_late_answer() {
    let mut r = rig(WhisperConfig::default(), 6, 211);
    let (group, _) = converse(&mut r);
    talker(&mut r.sim, r.dest, |app, _, _| app.answer_after = Some(SimDuration::from_millis(300)));
    r.sim.metrics_mut().reset_counters_and_samples();
    ask(&mut r, group, 1);
    r.sim.run_for(SimDuration::from_millis(150));
    restart(&mut r.sim, r.source);
    assert_eq!(cached_routes(&mut r.sim, r.source), 0);
    r.sim.run_for_secs(2);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.restart_pending_dropped"), 1);
    assert_eq!(m.counter("wcl.return_sent"), 1, "the destination answered");
    assert_eq!(m.counter("wcl.circuit_miss_drop"), 1, "into a circuit nobody is at the end of");
    assert_eq!(m.counter("wcl.return_delivered"), 0);
    assert_eq!(answered(&mut r), [0u64; 0]);
    assert_eq!(pending_sends(&mut r.sim, r.source), 0);
}

/// The tombstone is the one PPSS answer that goes out before anything is
/// authenticated, and it shares its question's fate all the same: it
/// rides back on the circuit the exchange request came in on, bound to
/// nobody. The node the request names as its sender — a third node here
/// — hears nothing, no onion is built for it, and the member that asked
/// applies the deletion and has its tracked send answered.
#[test]
fn a_tombstone_answers_whoever_asked_not_whoever_the_request_names() {
    let mut r = rig(WhisperConfig::default(), 6, 213);
    let (group, way_out) = converse(&mut r);
    let (asker, holder) = (r.source, r.dest);
    let named = *r.publics[2..].iter().find(|p| !way_out.contains(p)).expect("a bystander");
    // The holder leads the group and deletes it while the asker is out of
    // its view, so no push goes the asker's way.
    r.sim.with_node_ctx::<WhisperNode>(holder, |n, ctx| {
        n.with_api(|api, _| api.ppss.on_route_failed(0, asker));
        assert!(n.delete_group(ctx, group));
    });
    let (named_entry, holder_entry) = (entry_of(&mut r.sim, named), entry_of(&mut r.sim, holder));
    in_callback(&mut r.sim, named, |api, _| api.wcl.flush_circuits());
    r.sim.metrics_mut().reset_counters_and_samples();
    in_callback(&mut r.sim, asker, |api, ctx| {
        let passport = api.ppss.group(group).expect("the asker holds the group").passport().clone();
        let exchange_id = api.wcl.alloc_msg_id();
        let request = PpssMsg::Exchange {
            group,
            passport,
            from_entry: Box::new(named_entry),
            entries: Vec::new(),
            exchange_id,
            is_response: false,
            hb: Default::default(),
            election: None,
            new_key: None,
            revoked: Vec::new(),
        };
        assert!(api.wcl.send(ctx, &holder_entry, request.to_wire(), None, exchange_id));
    });
    r.sim.run_for_secs(2);

    let m = r.sim.metrics();
    assert_eq!(m.counter("ppss.exchanges_initiated"), 0, "no exchange but the one above");
    assert_eq!(m.counter("wcl.paths_built"), 0, "no onion towards the node named");
    assert_eq!(m.counter("wcl.return_sent"), 1, "the answer rode the request's circuit");
    assert_eq!(m.counter("wcl.route_first_success"), 1, "and answered the asker's send");
    assert_eq!(m.counter("ppss.resurrection_blocked"), 1, "the holder refused the request once");
    assert_eq!(carried_circuits(&mut r.sim, named), 0, "nothing reached the node named");
    in_callback(&mut r.sim, asker, |api, _| {
        assert!(api.ppss.group(group).is_none(), "the asker applied the tombstone");
        assert!(api.ppss.tombstone(group).is_some());
    });
}

/// Who is talking is said once per circuit and checked every time: a
/// member the leader revokes is refused on its very next message, a short
/// one on a circuit that carried its passport before the revocation.
#[test]
fn a_revoked_member_is_refused_on_its_next_short_form() {
    let mut r = rig(WhisperConfig::default(), 6, 212);
    let (group, _) = converse(&mut r);
    for nonce in 1..=2 {
        ask(&mut r, group, nonce);
        r.sim.run_for_secs(1);
    }
    assert_eq!(answered(&mut r), [1, 2]);
    assert!(r.sim.metrics().counter("wcl.short_sent") >= 2, "the second exchange was short");
    let (source, dest) = (r.source, r.dest);
    r.sim.with_node_ctx::<WhisperNode>(dest, |n, _| assert!(n.remove_member(group, source)));

    r.sim.metrics_mut().reset_counters_and_samples();
    ask(&mut r, group, 3);
    r.sim.run_for(SimDuration::from_millis(200));
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.short_sent"), 1, "sent short, on the circuit of before");
    assert_eq!(m.counter("ppss.dropped_bad_passport"), 1, "and refused");
    assert_eq!(m.counter("ppss.context_miss"), 0, "for who it is, not for want of knowing");
    assert_eq!(talker(&mut r.sim, dest, |app, _, _| app.heard), 2);
    r.sim.run_for_secs(40);
    assert_eq!(answered(&mut r), [1, 2], "nor on any retry, which states the passport again");
}
