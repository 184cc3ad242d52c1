//! Focused WCL route-construction tests on a minimal, fully controlled
//! topology: one source, a handful of backlog candidates, one NATted
//! destination with explicit gateways. These pin down the §III-A path
//! rules that the larger integration tests only exercise statistically.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper_core::{DestInfo, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::NatType;
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::NodeId;

struct Rig {
    sim: Sim,
    source: NodeId,
    dest: NodeId,
    publics: Vec<NodeId>,
}

/// Builds: two bootstraps, `extra_publics` P-nodes, one NATted source and
/// one NATted destination, and lets the PSS warm up so CBs fill and keys
/// spread.
fn rig(extra_publics: usize, seed: u64) -> Rig {
    let cfg = WhisperConfig::default();
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
    let publics: Vec<NodeId> = (0..extra_publics)
        .map(|_| sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::Public))
        .collect();
    let source = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::RestrictedCone);
    let dest = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::PortRestrictedCone);
    sim.run_for_secs(250);
    Rig { sim, source, dest, publics }
}

/// The destination's own advertised contact info, as PPSS would ship it.
fn dest_info_of(sim: &mut Sim, dest: NodeId) -> DestInfo {
    let mut info = None;
    sim.with_node_ctx::<WhisperNode>(dest, |node, _| {
        node.with_api(|api, _| {
            info = Some(api.my_entry().dest_info());
        });
    });
    info.expect("dest alive")
}

#[test]
fn tracked_send_to_natted_dest_succeeds_and_notifies() {
    let mut r = rig(6, 101);
    let dest_info = dest_info_of(&mut r.sim, r.dest);
    assert!(!dest_info.public);
    assert!(
        dest_info.gateways.len() >= 2,
        "dest advertises Π gateways (got {})",
        dest_info.gateways.len()
    );
    // Source sends a tracked payload (a raw PPSS-opaque blob).
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &dest_info, b"probe".to_vec(), None, id);
        });
    });
    assert!(sent, "path must be constructible after warm-up");
    r.sim.run_for_secs(30);
    // Nothing answers a raw blob, so the tracked send retries over
    // alternative paths; every copy that arrives crossed exactly two
    // mixes (the 4-node path S → A → B → D).
    let delivered = r.sim.metrics().counter("wcl.delivered");
    let relayed = r.sim.metrics().counter("wcl.relayed");
    assert!(delivered >= 1, "at least the first copy arrives");
    assert_eq!(relayed, 2 * delivered, "every delivery crossed exactly 2 mixes");
}

#[test]
fn send_fails_cleanly_when_natted_dest_has_no_gateways() {
    let mut r = rig(6, 102);
    let mut dest_info = dest_info_of(&mut r.sim, r.dest);
    dest_info.gateways.clear();
    let mut sent = true;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &dest_info, b"probe".to_vec(), None, id);
        });
    });
    assert!(!sent, "no gateway ⇒ no path to a NATted destination");
    assert_eq!(r.sim.metrics().counter("wcl.route_no_alt"), 1);
}

#[test]
fn public_dest_uses_cb_publics_as_gateway() {
    let mut r = rig(6, 103);
    // Target one of the extra publics; ship NO gateways at all (the
    // source must fall back to its own CB publics, paper §IV-B).
    let target = r.publics[0];
    let mut dest_info = dest_info_of(&mut r.sim, target);
    assert!(dest_info.public);
    dest_info.gateways.clear();
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            sent = api.wcl.send_untracked(ctx, api.nylon, &dest_info, b"to public", None);
        });
    });
    assert!(sent);
    r.sim.run_for_secs(5);
    assert_eq!(r.sim.metrics().counter("wcl.delivered"), 1);
}

#[test]
fn longer_paths_use_more_relays() {
    let mut cfg = WhisperConfig::default();
    cfg.wcl.mixes = 4;
    let mut keyrng = StdRng::seed_from_u64(104);
    let mut sim = Sim::new(SimConfig::cluster(104));
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
    for _ in 0..8 {
        sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::Public);
    }
    let source = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::RestrictedCone);
    let dest = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::FullCone);
    sim.run_for_secs(250);

    let dest_info = dest_info_of(&mut sim, dest);
    let mut sent = false;
    sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
        node.with_api(|api, _| {
            sent = api.wcl.send_untracked(ctx, api.nylon, &dest_info, b"long path", None);
        });
    });
    assert!(sent);
    sim.run_for_secs(5);
    assert_eq!(sim.metrics().counter("wcl.delivered"), 1);
    // 4 mixes ⇒ 4 relay peels before the destination.
    assert_eq!(sim.metrics().counter("wcl.relayed"), 4);
}

#[test]
fn retries_avoid_previously_used_mixes() {
    let mut r = rig(6, 105);
    let dest_info = dest_info_of(&mut r.sim, r.dest);
    // Kill the destination so every attempt times out and the retry
    // machinery walks through alternative gateways.
    r.sim.remove_node(r.dest);
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            let id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &dest_info, b"doomed".to_vec(), None, id);
        });
    });
    assert!(sent, "first path still constructible (gateways are alive)");
    r.sim.run_for_secs(30);
    let m = r.sim.metrics();
    let retries = m.counter("wcl.route_retry");
    assert!(retries >= 1, "alternative paths must be attempted");
    // Each retry used a different gateway, so attempts are bounded by the
    // advertised gateway count.
    assert!(
        retries <= dest_info.gateways.len() as u64,
        "{} retries for {} gateways",
        retries,
        dest_info.gateways.len()
    );
    // The send eventually failed one way or the other.
    assert!(m.counter("wcl.route_no_alt") + m.counter("wcl.route_exhausted") >= 1);
    assert_eq!(m.counter("wcl.route_first_success"), 0);
}

/// Exhausted-retries branch of `on_retry_timer`: alternatives keep
/// existing (a public destination falls back to the source's CB publics,
/// of which there are plenty), but `max_retries` is hit first. The
/// failure is `wcl.route_exhausted` with `no_alternative: false`, and
/// both the pending entry and any cached circuit route are gone.
#[test]
fn route_failed_exhausted_clears_pending_and_cached_route() {
    let mut r = rig(10, 106);
    let target = r.publics[0];
    let dest_info = dest_info_of(&mut r.sim, target);
    r.sim.remove_node(target);
    let mut msg_id = 0;
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            msg_id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &dest_info, b"doomed".to_vec(), None, msg_id);
        });
    });
    assert!(sent, "plenty of live relays to build the first path");
    // Adaptive RTO backoff: ~2 + 4 + 8 + 16 s plus jitter.
    r.sim.run_for_secs(90);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.route_exhausted"), 1, "retries must run dry");
    assert_eq!(m.counter("wcl.route_no_alt"), 0, "alternatives never ran out");
    assert_eq!(m.counter("wcl.route_retry"), 3, "max_retries alternative paths tried");
    let node = r.sim.node::<WhisperNode>(r.source).unwrap();
    assert!(!node.wcl().is_pending(msg_id), "pending entry must be dropped");
    assert!(
        !node.wcl().has_cached_route(target),
        "cached circuit route must be torn down"
    );
}

/// No-alternative branch of `on_retry_timer`: a NATted destination
/// advertises exactly Π gateways, and once each has been tried the next
/// timer finds no unused path. The failure is `wcl.route_no_alt` with
/// `no_alternative: true`, again leaving no pending entry or cached
/// route behind.
#[test]
fn route_failed_no_alternative_clears_pending_and_cached_route() {
    let mut r = rig(6, 107);
    let dest_info = dest_info_of(&mut r.sim, r.dest);
    let gateways = dest_info.gateways.len();
    assert!(gateways >= 2, "dest advertises Π gateways");
    r.sim.remove_node(r.dest);
    let mut msg_id = 0;
    let mut sent = false;
    r.sim.with_node_ctx::<WhisperNode>(r.source, |node, ctx| {
        node.with_api(|api, _| {
            msg_id = api.wcl.alloc_msg_id();
            sent = api.wcl.send(ctx, api.nylon, &dest_info, b"doomed".to_vec(), None, msg_id);
        });
    });
    assert!(sent);
    r.sim.run_for_secs(60);
    let m = r.sim.metrics();
    assert_eq!(m.counter("wcl.route_no_alt"), 1, "gateway list must run out");
    assert_eq!(m.counter("wcl.route_exhausted"), 0, "max_retries never reached");
    assert_eq!(
        m.counter("wcl.route_retry"),
        gateways as u64 - 1,
        "one retry per remaining gateway"
    );
    let node = r.sim.node::<WhisperNode>(r.source).unwrap();
    assert!(!node.wcl().is_pending(msg_id), "pending entry must be dropped");
    assert!(
        !node.wcl().has_cached_route(r.dest),
        "cached circuit route must be torn down"
    );
}
