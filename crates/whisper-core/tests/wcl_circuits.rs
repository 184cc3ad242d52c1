//! Circuit amortization lifecycle tests: cache hit on the second send,
//! TTL expiry, and miss-and-rebuild after a relay loses its state. These
//! pin the behavior DESIGN.md § "Circuit amortization" promises, on the
//! same minimal controlled topology as `wcl_paths.rs`. The last three
//! tests are the hostile side of the same path: setup extensions,
//! installed next hops and circuit packets no honest source produces.

use std::cell::RefCell;
use whisper_core::wcl::CIRCUIT_TTL;
use whisper_core::{DestInfo, WclEvent, WhisperApi, WhisperConfig, WhisperNode};
use whisper_crypto::aes::AesKey;
use whisper_crypto::circuit::{CircuitEntry, CircuitId, HopSetup, DEST_SETUP_LEN, RELAY_SETUP_LEN};
use whisper_crypto::onion::{build_onion_ext, OnionPacket};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Sim, SimConfig};
use whisper_net::wire::WireWriter;
use whisper_net::{NodeId, SimDuration};
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// How long a source keeps a route cached, in seconds: half the
/// relay-side TTL.
fn source_cache_secs() -> u64 {
    CIRCUIT_TTL.as_secs() / 2
}

struct Rig {
    sim: Sim,
    source: NodeId,
    dest: NodeId,
    publics: Vec<NodeId>,
}

/// Same shape as the `wcl_paths.rs` rig: two bootstraps, a few P-nodes,
/// NATted source and destination, PSS warmed up.
fn rig(cfg: WhisperConfig, extra_publics: usize, seed: u64) -> Rig {
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));
    let mk = |boot: bool, keyrng: &mut StdRng| {
        let mut node = WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, keyrng));
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

fn dest_info_of(sim: &mut Sim, dest: NodeId) -> DestInfo {
    let mut info = None;
    sim.with_node_ctx::<WhisperNode>(dest, |node, _| {
        node.with_api(|api, _| {
            info = Some(api.my_entry().dest_info());
        });
    });
    info.expect("dest alive")
}

fn send_untracked(sim: &mut Sim, source: NodeId, dest_info: &DestInfo, payload: &[u8]) -> bool {
    let mut sent = false;
    sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
        node.with_api(|api, _| {
            sent = api.wcl.send_untracked(ctx, api.nylon, dest_info, payload);
        });
    });
    sent
}

/// Sends `payload` tracked; nobody answers at this layer, so every retry
/// fires.
fn send_tracked(sim: &mut Sim, source: NodeId, dest_info: &DestInfo, payload: &[u8]) {
    let mut sent = false;
    sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, dest_info, payload.to_vec(), id);
        });
    });
    assert!(sent);
}

#[test]
fn second_send_rides_the_cached_circuit() {
    let mut r = rig(WhisperConfig::default(), 6, 201);
    let dest_info = dest_info_of(&mut r.sim, r.dest);

    // First send: full RSA onion, establishing the circuit along the way.
    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"first"));
    r.sim.run_for_secs(5);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_established"), 1);
    assert_eq!(m.counter("wcl.circuit_hit"), 0);
    assert_eq!(m.counter("wcl.delivered"), 1);
    // All 3 hops (A, B, D) installed the circuit state from their layer.
    assert_eq!(m.counter("wcl.circuit_installed"), 3);

    // Second send: no RSA at all — pure circuit forwarding.
    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"second"));
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
    let dest_info = dest_info_of(&mut r.sim, r.dest);

    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"establish"));
    // The source cache (CIRCUIT_TTL / 2) and the relay TTL both lapse.
    r.sim.run_for(CIRCUIT_TTL + SimDuration::from_secs(10));

    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"after expiry"));
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
    let dest_info = dest_info_of(&mut r.sim, r.dest);

    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"establish"));
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
    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"into the void"));
    r.sim.run_for_secs(5);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.circuit_hit"), 1);
    assert_eq!(m.counter("wcl.circuit_miss_drop"), 1);
    assert_eq!(m.counter("wcl.delivered"), 1, "the dropped packet never arrives");

    // A *tracked* send recovers: the first attempt also dies on the stale
    // circuit, the retry timer tears the route down and rebuilds over a
    // fresh RSA onion.
    send_tracked(&mut r.sim, r.source, &dest_info, b"must arrive");
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
        let info = dest_info_of(&mut r.sim, dest);
        assert!(send_untracked(&mut r.sim, r.source, &info, b"hello"));
    }
    assert_eq!(cached_routes(&mut r.sim, r.source), 4);
    r.sim.run_for_secs(source_cache_secs() - 10);
    let late = dest_info_of(&mut r.sim, r.publics[5]);
    assert!(send_untracked(&mut r.sim, r.source, &late, b"hello"));
    assert_eq!(cached_routes(&mut r.sim, r.source), 5, "nothing has expired yet");
    r.sim.run_for_secs(12); // the first four lapse, the fifth has 48 s left
    // The next establishment (towards a destination seen before or not)
    // collects every expired route.
    let again = dest_info_of(&mut r.sim, early[0]);
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
    let held = dest_info_of(&mut r.sim, r.publics[2]);
    let swept = dest_info_of(&mut r.sim, r.dest);
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

/// Hands `packet` to `node`'s WCL as the payload of a Nylon `App` message
/// that has just arrived.
fn hand_to_wcl(sim: &mut Sim, node: NodeId, packet: &[u8]) -> Option<WclEvent> {
    in_callback(sim, node, |api, ctx| api.wcl.on_app_payload(ctx, api.nylon, packet))
}

fn carried_circuits(sim: &mut Sim, node: NodeId) -> usize {
    in_callback(sim, node, |api, _| api.wcl.carried_circuits())
}

fn public_key_of(sim: &mut Sim, node: NodeId) -> PublicKey {
    in_callback(sim, node, |api, _| api.nylon.keypair().public().clone())
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

/// The wire image of a circuit packet (tag `0xC2`).
fn circuit_wire(cid: CircuitId, nonce: [u8; 8], body: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(0xC2);
    w.put_raw(&cid.0);
    w.put_raw(&nonce);
    w.put_bytes(body);
    w.into_bytes()
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
/// work is spent on the body: no CTR pass, no frame, nothing sent.
#[test]
fn malformed_next_hop_drops_the_packet_before_any_work() {
    let mut r = rig(WhisperConfig::default(), 6, 207);
    let relay = r.publics[2];
    let good = public_hop_addr(r.publics[3]);
    let bad_hops: [Vec<u8>; 5] = [
        Vec::new(),                      // a destination's, under a relay's ids
        good[..8].to_vec(),              // the flag byte missing
        [&good[..], &[0]].concat(),      // a byte too many
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
        let packet = circuit_wire(CircuitId([i as u8; 8]), [3; 8], &[0x5A; 256]);
        assert!(hand_to_wcl(&mut r.sim, relay, &packet).is_none());
    }
    assert_eq!(whisper_crypto::costs::snapshot(), cost_before, "no AES block was touched");
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.bad_next_hop"), bad_hops.len() as u64);
    assert_eq!(m.traffic(relay).up_msgs, sent_before, "nothing left the node");
    for untouched in ["wcl.relayed", "wcl.circuit_forwarded", "wcl.relay_drop", "wcl.delivered"] {
        assert_eq!(m.counter(untouched), 0, "{untouched}");
    }
    assert!(m.samples("wcl.circuit_fwd_us").is_empty(), "no peel was sampled");
}

/// Totality of the WCL's decoders on a node that holds keys — its RSA
/// key, a circuit ending here, a circuit passing through — so that a
/// well-formed packet *would* be delivered, forwarded or installed.
///
/// Whatever follows a `0xC2` tag — random bytes, a valid packet of a
/// carried circuit cut short or grown, or one with a bit flipped in a
/// field the hop itself reads (tag, circuit id, length) — and whatever
/// follows a `0xC1` tag — random bytes, an onion sealed for this very node
/// cut short or grown, or one with a bit flipped in the tag or in either
/// length field — `Wcl::on_app_payload` returns without panicking,
/// delivers nothing, forwards nothing and installs nothing, and a packet
/// that still carries its tag is counted under the name of its drop. The
/// borrowed onion view refuses what the owned decoder it replaced refused.
/// `HopSetup::decode` takes any extension, accepting exactly its two
/// lengths. (A flip in a circuit packet's nonce or body is a well-formed
/// packet: CTR carries no integrity, the garbage it decrypts to is the
/// PPSS signature check's to reject.)
#[test]
fn circuit_decoders_are_total_on_hostile_bytes() {
    let cfg = WhisperConfig::default();
    let mut keyrng = StdRng::seed_from_u64(208);
    let keypair = KeyPair::generate(cfg.nylon.rsa, &mut keyrng);
    let next = KeyPair::generate(cfg.nylon.rsa, &mut keyrng);
    let mut sim = Sim::new(SimConfig::ideal(208));
    let node = sim.add_node(Box::new(WhisperNode::new(cfg, keypair.clone())), NatType::Public);
    // One circuit ending here and one passing through, so that a packet
    // which did name them would be delivered or forwarded.
    let (ending, passing) = (CircuitId([0x11; 8]), CircuitId([0x22; 8]));
    let now = sim.now();
    in_callback(&mut sim, node, |api, _| {
        let ends_here = CircuitEntry::new(AesKey([1; 16]), Vec::new(), None);
        api.wcl.carry_circuit(now, ending, ends_here);
        let through = CircuitEntry::new(
            AesKey([2; 16]),
            public_hop_addr(NodeId(9)),
            Some(CircuitId([0x33; 8])),
        );
        api.wcl.carry_circuit(now, passing, through);
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

    let sim = RefCell::new(sim);
    whisper_rand::check::check(512, "circuit_decoders_are_total_on_hostile_bytes", |g| {
        let sim = &mut *sim.borrow_mut();
        let body = g.bytes(80);
        let valid = circuit_wire(if g.gen_bool(0.5) { ending } else { passing }, g.gen(), &body);
        let circuit_packet = match g.gen_range(0..4u8) {
            0 => [&[0xC2][..], &g.bytes(120)].concat(),
            1 => valid[..g.gen_range(0..valid.len())].to_vec(),
            2 => [&valid[..], &g.bytes(8), &[0]].concat(),
            _ => {
                // Tag and id are bytes 0..9, the body length bytes 17..21.
                let at = if g.gen_bool(0.7) { g.gen_range(0..9) } else { g.gen_range(17..21) };
                let mut flipped = valid;
                flipped[at] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
        };
        let onion = if g.gen_bool(0.5) { &for_here } else { &through_here };
        let valid = onion_wire(onion);
        let onion_packet = match g.gen_range(0..4u8) {
            0 => [&[0xC1][..], &g.bytes(200)].concat(),
            1 => valid[..g.gen_range(0..valid.len())].to_vec(),
            2 => [&valid[..], &g.bytes(8), &[0]].concat(),
            _ => {
                // The tag is byte 0, the header length bytes 1..5, the
                // body length the four bytes behind the header.
                let body_len_at = 5 + onion.header.len();
                let at = match g.gen_range(0..3u8) {
                    0 => 0,
                    1 => g.gen_range(1..5),
                    _ => g.gen_range(body_len_at..body_len_at + 4),
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
            let tagged = matches!(packet.first(), Some(0xC1 | 0xC2));
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
    });

    // The control: untouched, both onions do what the mutants must not.
    let sim = &mut *sim.borrow_mut();
    let delivered = hand_to_wcl(sim, node, &onion_wire(&for_here));
    assert_eq!(delivered, Some(WclEvent::Delivered { payload: vec![0x5A; 60] }));
    assert!(hand_to_wcl(sim, node, &onion_wire(&through_here)).is_none());
    let m = sim.metrics();
    assert_eq!((m.counter("wcl.delivered"), m.counter("wcl.relayed")), (1, 1));
    assert_eq!(m.counter("wcl.circuit_installed"), 2);
    assert_eq!(m.traffic(node).up_msgs, 1, "the relayed onion left for its next hop");
}
