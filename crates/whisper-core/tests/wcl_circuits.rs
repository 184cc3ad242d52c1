//! Circuit amortization lifecycle tests: cache hit on the second send,
//! TTL expiry, and miss-and-rebuild after a relay loses its state. These
//! pin the behavior DESIGN.md § "Circuit amortization" promises, on the
//! same minimal controlled topology as `wcl_paths.rs`.

use whisper_core::{DestInfo, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::NatType;
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::{NodeId, SimDuration};
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

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
    let mut cfg = WhisperConfig::default();
    cfg.wcl.circuit_ttl = SimDuration::from_secs(10);
    let mut r = rig(cfg, 6, 202);
    let dest_info = dest_info_of(&mut r.sim, r.dest);

    assert!(send_untracked(&mut r.sim, r.source, &dest_info, b"establish"));
    r.sim.run_for_secs(30); // source cache (ttl/2 = 5 s) and relay ttl both lapse

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
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &dest_info, b"must arrive".to_vec(), id);
        });
    });
    assert!(sent);
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
    let mut cfg = WhisperConfig::default();
    cfg.wcl.circuit_ttl = SimDuration::from_secs(10); // source cache: 5 s
    let mut r = rig(cfg, 6, 204);
    // One route each to four destinations, as a node with random-view
    // peers accretes them.
    let early: Vec<NodeId> = r.publics[2..5].iter().copied().chain([r.dest]).collect();
    for &dest in &early {
        let info = dest_info_of(&mut r.sim, dest);
        assert!(send_untracked(&mut r.sim, r.source, &info, b"hello"));
    }
    assert_eq!(cached_routes(&mut r.sim, r.source), 4);
    r.sim.run_for_secs(4);
    let late = dest_info_of(&mut r.sim, r.publics[5]);
    assert!(send_untracked(&mut r.sim, r.source, &late, b"hello"));
    assert_eq!(cached_routes(&mut r.sim, r.source), 5, "nothing has expired yet");
    r.sim.run_for_secs(2); // the first four lapse, the fifth has 3 s left
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
    // The route lapses (1 s) before the first retry (2 s), as it does for
    // a conversation whose peer has gone quiet.
    cfg.wcl.circuit_ttl = SimDuration::from_secs(2);
    cfg.wcl.adaptive_rto = false;
    let mut r = rig(cfg, 6, 205);
    let silent = dest_info_of(&mut r.sim, r.dest);
    let other = dest_info_of(&mut r.sim, r.publics[2]);
    // A tracked send nobody answers at this layer: every retry fires.
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &silent, b"anyone?".to_vec(), id);
        });
    });
    assert!(sent);
    r.sim.run_for(SimDuration::from_millis(1500));
    // An establishment elsewhere sweeps the lapsed route before the retry
    // looks for it ...
    assert!(send_untracked(&mut r.sim, r.source, &other, b"hello"));
    assert_eq!(cached_routes(&mut r.sim, r.source), 1);
    // ... and the later retries find theirs lapsed but still held.
    r.sim.run_for_secs(30);
    let m = r.sim.metrics();
    assert!(m.counter("wcl.route_retry") >= 2, "retries ran");
    assert_eq!(m.counter("wcl.circuit_teardown"), 0, "no live circuit was ever torn down");
}
