//! End-to-end tests of the Nylon PSS over the simulated network: view
//! convergence under NATs, the P-node bias, CB maintenance and the key
//! sampling service.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Sim, SimConfig};
use whisper_pss::graph::OverlaySnapshot;
use whisper_pss::{NylonConfig, NylonCore, NylonNode};

/// Builds a network of `n` nodes (the first `bootstraps` are public
/// bootstrap nodes) and runs it for `secs` simulated seconds.
fn build_network(
    n: usize,
    bootstraps: usize,
    cfg: &NylonConfig,
    sim_cfg: SimConfig,
    secs: u64,
) -> (Sim, Vec<whisper_net::NodeId>) {
    build_network_with_ratio(n, bootstraps, cfg, sim_cfg, secs, 0.30)
}

/// Like [`build_network`] with an explicit fraction of public nodes.
fn build_network_with_ratio(
    n: usize,
    bootstraps: usize,
    cfg: &NylonConfig,
    sim_cfg: SimConfig,
    secs: u64,
    public_ratio: f64,
) -> (Sim, Vec<whisper_net::NodeId>) {
    let mut keyrng = StdRng::seed_from_u64(0xBEEF);
    let mut sim = Sim::new(sim_cfg);
    let dist = NatDistribution::with_public_ratio(public_ratio);
    let mut ids = Vec::new();

    // Bootstrap nodes first (public, known to everyone).
    for _ in 0..bootstraps {
        let core = NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, &mut keyrng));
        ids.push(sim.add_node(Box::new(NylonNode::new(core)), NatType::Public));
    }
    let boot = ids.clone();
    for _ in bootstraps..n {
        let mut core = NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, &mut keyrng));
        core.set_bootstrap(boot.clone());
        let nat = dist.sample(sim.rng());
        ids.push(sim.add_node(Box::new(NylonNode::new(core)), nat));
    }
    // Bootstraps also need to join the gossip (they know each other).
    for &b in &boot {
        let others: Vec<_> = boot.iter().copied().filter(|x| *x != b).collect();
        sim.with_node_ctx::<NylonNode>(b, |node, _| {
            node.core_mut().set_bootstrap(others.clone());
        });
    }
    sim.run_for_secs(secs);
    (sim, ids)
}

fn snapshot(sim: &Sim, ids: &[whisper_net::NodeId]) -> OverlaySnapshot {
    OverlaySnapshot::new(
        ids.iter()
            .filter(|id| sim.contains(**id))
            .map(|id| {
                let node: &NylonNode = sim.node(*id).expect("live node");
                (*id, node.core().view().nodes().collect())
            })
            .collect(),
    )
}

#[test]
fn views_fill_and_connect() {
    let cfg = NylonConfig::default();
    let (sim, ids) = build_network(60, 2, &cfg, SimConfig::cluster(1), 300);
    let mut full = 0;
    for &id in &ids {
        let node: &NylonNode = sim.node(id).unwrap();
        let v = node.core().view();
        assert!(v.len() >= cfg.view_size / 2, "node {id} view has {} entries", v.len());
        if v.len() == cfg.view_size {
            full += 1;
        }
        assert!(!v.contains(id), "no self-entry");
    }
    assert!(full as f64 >= ids.len() as f64 * 0.9, "{full}/{} full views", ids.len());
}

#[test]
fn gossip_actually_completes_through_nats() {
    let cfg = NylonConfig::default();
    let (sim, ids) = build_network(60, 2, &cfg, SimConfig::cluster(2), 300);
    let completed = sim.metrics().counter("pss.gossip_completed");
    let initiated = sim.metrics().counter("pss.gossip_initiated");
    // ~30 cycles × 60 nodes; a large majority must complete despite 70%
    // of nodes being NATted.
    assert!(initiated > 1000, "initiated {initiated}");
    assert!(
        completed as f64 >= initiated as f64 * 0.7,
        "completed {completed} of {initiated}"
    );
    // NAT traversal machinery was genuinely exercised.
    let punches = sim.metrics().counter("pss.open_punch_ok");
    let relays = sim.metrics().counter("pss.relayed_delivered");
    assert!(punches > 0, "hole punching succeeded at least once");
    assert!(relays > 0, "relaying used for symmetric NATs");
    let _ = ids;
}

#[test]
fn pi_bias_keeps_publics_in_views() {
    let cfg = NylonConfig::with_pi(3);
    let (sim, ids) = build_network(80, 2, &cfg, SimConfig::cluster(3), 400);
    let mut satisfied = 0;
    for &id in &ids {
        let node: &NylonNode = sim.node(id).unwrap();
        if node.core().view().p_count() >= 3 {
            satisfied += 1;
        }
    }
    assert!(
        satisfied as f64 >= ids.len() as f64 * 0.9,
        "{satisfied}/{} views hold Π=3 P-nodes",
        ids.len()
    );
}

#[test]
fn bias_matters_when_publics_are_scarce() {
    // With only ~10% P-nodes, an unbiased view holds ~1 public on
    // average; the Π=3 bias must force more in (paper §III-B-1 example).
    let biased_cfg = NylonConfig::with_pi(3);
    let unbiased_cfg = NylonConfig::with_pi(0);
    let (bsim, bids) =
        build_network_with_ratio(80, 2, &biased_cfg, SimConfig::cluster(4), 400, 0.10);
    let (usim, uids) =
        build_network_with_ratio(80, 2, &unbiased_cfg, SimConfig::cluster(4), 400, 0.10);
    let avg = |sim: &Sim, ids: &[whisper_net::NodeId]| {
        let total: usize = ids
            .iter()
            .map(|id| sim.node::<NylonNode>(*id).unwrap().core().view().p_count())
            .sum();
        total as f64 / ids.len() as f64
    };
    let biased = avg(&bsim, &bids);
    let unbiased = avg(&usim, &uids);
    assert!(
        biased > unbiased + 0.5,
        "biased {biased:.2} vs unbiased {unbiased:.2}"
    );
    assert!(biased >= 2.5, "biased {biased:.2} short of Π=3");
}

#[test]
fn cb_holds_pi_publics_with_keys() {
    let cfg = NylonConfig::with_pi(3);
    let (sim, ids) = build_network(60, 2, &cfg, SimConfig::cluster(5), 400);
    let mut ok = 0;
    let mut keys_ok = 0;
    for &id in &ids {
        let node: &NylonNode = sim.node(id).unwrap();
        let cb = node.core().cb();
        if cb.p_count() >= 3 {
            ok += 1;
        }
        // The key sampling service must have provided keys for CB entries.
        let with_key = cb.iter().filter(|e| e.key.is_some()).count();
        if !cb.is_empty() && with_key as f64 >= cb.len() as f64 * 0.8 {
            keys_ok += 1;
        }
    }
    assert!(ok as f64 >= ids.len() as f64 * 0.85, "{ok}/{} CBs hold Π publics", ids.len());
    assert!(keys_ok as f64 >= ids.len() as f64 * 0.85, "{keys_ok}/{} CBs keyed", ids.len());
}

#[test]
fn overlay_has_low_clustering() {
    let cfg = NylonConfig::default();
    let (sim, ids) = build_network(100, 2, &cfg, SimConfig::cluster(6), 400);
    let snap = snapshot(&sim, &ids);
    let mean_cc = snap.mean_clustering();
    // A random graph with c=10 out of 100 nodes has expected clustering
    // around 0.1–0.2; aggregates (cliques) would push it towards 1.
    assert!(mean_cc < 0.45, "mean clustering {mean_cc}");
    // Everyone is reachable: no node with in-degree 0 after convergence.
    let in_deg = snap.in_degrees();
    let isolated = ids.iter().filter(|id| in_deg.get(id) == Some(&0)).count();
    assert!(isolated <= ids.len() / 20, "{isolated} isolated nodes");
}

#[test]
fn key_sampling_off_means_no_keys() {
    let cfg = NylonConfig { key_sampling: false, ..NylonConfig::default() };
    let (sim, ids) = build_network(40, 2, &cfg, SimConfig::cluster(7), 200);
    for &id in &ids {
        let node: &NylonNode = sim.node(id).unwrap();
        assert!(node.core().cb().iter().all(|e| e.key.is_none()));
    }
}

#[test]
fn app_payloads_flow_between_neighbours() {
    let cfg = NylonConfig::default();
    let (mut sim, ids) = build_network(40, 2, &cfg, SimConfig::cluster(8), 200);
    // Every node sends a payload to a random neighbour of its view.
    for &id in &ids {
        sim.with_node_ctx::<NylonNode>(id, |node, ctx| {
            let Some(peer) = node.core().get_peer(ctx) else { return };
            let core = node.core_mut();
            core.send_app(ctx, peer.node, peer.public, &peer.route, b"hello".to_vec());
        });
    }
    sim.run_for_secs(30);
    let delivered: u64 = ids
        .iter()
        .map(|id| sim.node::<NylonNode>(*id).unwrap().payloads_received())
        .sum();
    assert!(
        delivered as f64 >= ids.len() as f64 * 0.8,
        "{delivered}/{} payloads delivered",
        ids.len()
    );
}

/// End-to-end use of the churn module: the Table I script shape (scaled
/// down) applied to a running PSS through `run_with_churn`; the overlay
/// must stay connected and views must purge departed nodes over time.
#[test]
fn pss_survives_scripted_churn() {
    use whisper_net::churn::{run_with_churn, ChurnPhase, ChurnScript};
    use whisper_net::{SimDuration, SimTime};

    let cfg = NylonConfig::default();
    let (mut sim, ids) = build_network(80, 2, &cfg, SimConfig::cluster(90), 250);
    let bootstraps = [ids[0], ids[1]];
    let script = ChurnScript {
        phases: vec![ChurnPhase::ConstChurn {
            from: SimTime::ZERO + SimDuration::from_secs(250),
            to: SimTime::ZERO + SimDuration::from_secs(850),
            fraction: 0.05, // 5% per minute
            interval: SimDuration::from_secs(60),
            replacement_ratio: 1.0,
        }],
        stop_at: SimTime::ZERO + SimDuration::from_secs(1000),
    };
    let mut keyrng = StdRng::seed_from_u64(0xC0C0);
    run_with_churn(
        &mut sim,
        &script,
        |sim| {
            let mut core =
                NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, &mut keyrng));
            core.set_bootstrap(bootstraps.to_vec());
            let nat = NatDistribution::paper_default().sample(sim.rng());
            sim.add_node(Box::new(NylonNode::new(core)), nat)
        },
        &bootstraps,
        |_, _| {},
    );
    assert_eq!(sim.len(), 80, "full replacement keeps the population");

    // Views contain mostly live nodes and stay near-full.
    let live = sim.node_ids();
    let mut dead_refs = 0usize;
    let mut total_refs = 0usize;
    let mut full_views = 0usize;
    for &id in &live {
        let Some(node) = sim.node::<NylonNode>(id) else { continue };
        let v = node.core().view();
        if v.len() >= cfg.view_size - 2 {
            full_views += 1;
        }
        for entry in v.entries() {
            total_refs += 1;
            if !sim.contains(entry.node) {
                dead_refs += 1;
            }
        }
    }
    assert!(
        full_views as f64 >= live.len() as f64 * 0.85,
        "{full_views}/{} views near-full after churn",
        live.len()
    );
    assert!(
        (dead_refs as f64) < total_refs as f64 * 0.25,
        "{dead_refs}/{total_refs} dead references linger"
    );
}

/// Stale-peer eviction (ISSUE: Nylon stale-peer eviction): kill a
/// quarter of the network with no replacement; after `max_age` plus
/// diffusion slack, **no** live node's view may reference a dead peer,
/// every surviving entry's age is hard-bounded by `max_age`, and the
/// eviction path itself must have fired.
///
/// The healer policy (oldest-first partner selection + removal on
/// timeout) already cleans dead entries in `view_size` cycles or so, so
/// eviction only becomes observable when views are large relative to
/// the gossip rate — hence the 30-entry views here. What eviction adds
/// over the healer is the *hard* staleness bound, independent of view
/// size.
#[test]
fn eviction_purges_dead_peers_and_bounds_staleness() {
    let cfg = NylonConfig {
        view_size: 30,
        gossip_len: 5,
        max_age: 13,
        ..NylonConfig::default()
    };
    cfg.validate();
    let (mut sim, ids) = build_network(80, 2, &cfg, SimConfig::cluster(91), 300);
    let victims: Vec<_> = ids.iter().copied().skip(2).step_by(4).collect();
    for &v in &victims {
        sim.remove_node(v);
    }
    // max_age cycles plus diffusion slack: a dead entry's age only grows
    // (nobody re-injects it at age 0), so this bounds its lifetime.
    let cycles = cfg.max_age as u64 + 7;
    sim.run_for_secs(cycles * whisper_pss::nylon::CYCLE.as_secs());
    let mut checked = 0usize;
    for &id in &ids {
        let Some(node) = sim.node::<NylonNode>(id) else { continue };
        checked += 1;
        let view = node.core().view();
        assert!(!view.is_empty(), "views must not empty out under eviction");
        for entry in view.entries() {
            assert!(
                sim.contains(entry.node),
                "live node {id:?} still references dead peer {:?} after {cycles} cycles",
                entry.node
            );
            assert!(
                entry.age <= cfg.max_age,
                "entry age {} exceeds the max_age bound {}",
                entry.age,
                cfg.max_age
            );
        }
    }
    assert!(checked >= 50, "most of the population is still alive");
    assert!(
        sim.metrics().counter("pss.stale_evicted") > 0,
        "the eviction path must have fired"
    );
}
