//! Sorted private directory with range queries, built on GosSkip — the
//! skip-list overlay the paper lists among the protocols that run
//! unchanged over the PPSS. Where the private T-Chord index answers
//! "who stores X?", GosSkip answers "who holds anything between A and
//! B?" — e.g. a confidential employee directory sharded by timestamp or
//! name, invisible to outsiders.
//!
//! ```sh
//! cargo run --release --example sorted_directory
//! ```

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper::apps::gosskip::GosSkipApp;
use whisper::core::{GroupId, WhisperConfig, WhisperNode};
use whisper::crypto::rsa::KeyPair;
use whisper::net::nat::{NatDistribution, NatType};
use whisper::net::sim::{Sim, SimConfig};
use whisper::net::NodeId;

fn main() {
    let group = GroupId::from_name("sorted-directory");
    let cfg = WhisperConfig::default();
    let mut key_rng = StdRng::seed_from_u64(31);
    let mut sim = Sim::new(SimConfig::cluster(31));
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..40u64 {
        // Each member's application key: its "record shard" position.
        let app = Box::new(GosSkipApp::new(group, i * 100));
        let mut node = WhisperNode::with_app(
            cfg.clone(),
            KeyPair::generate(cfg.nylon.rsa, &mut key_rng),
            app,
        );
        let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
        node.nylon_mut()
            .set_bootstrap(vec![NodeId(0), NodeId(1)].into_iter().filter(|n| n.0 != i).collect());
        ids.push(sim.add_node(Box::new(node), nat));
    }
    sim.run_for_secs(250);

    let host = ids[4];
    sim.with_node_ctx::<WhisperNode>(host, |node, ctx| {
        node.create_group(ctx, "sorted-directory");
    });
    let members: Vec<NodeId> = ids[5..18].to_vec();
    for &m in &members {
        let inv = sim.node::<WhisperNode>(host).unwrap().invite(group, m).unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| node.join_group(ctx, inv));
    }
    println!("letting GosSkip sort {} members by shard key...", members.len() + 1);
    sim.run_for_secs(700);

    let joined: Vec<NodeId> = std::iter::once(host)
        .chain(members.iter().copied())
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    let mut keys: Vec<u64> = joined.iter().map(|m| m.0 * 100).collect();
    keys.sort_unstable();
    println!("members sorted by shard: {keys:?}");

    // Point search: who owns shard position 777?
    sim.with_node_ctx::<WhisperNode>(host, |node, ctx| {
        node.with_api(|api, app| {
            let app: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
            app.search(ctx, api, 777);
        });
    });
    // Range query: every shard in [500, 1200].
    sim.with_node_ctx::<WhisperNode>(host, |node, ctx| {
        node.with_api(|api, app| {
            let app: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
            app.range(ctx, api, 500, 1200);
        });
    });
    sim.run_for_secs(60);

    let app: &GosSkipApp = sim.node::<WhisperNode>(host).unwrap().app().unwrap();
    for s in app.searches() {
        println!(
            "point search {} -> owner {} (key {}) in {} hops, {:.0} ms",
            s.target,
            s.owner,
            s.owner_key,
            s.hops,
            s.delay.as_secs_f64() * 1000.0
        );
    }
    for r in app.ranges() {
        let mut found = r.keys.clone();
        found.sort_unstable();
        println!(
            "range [500, 1200] -> shards {found:?} in {:.0} ms",
            r.delay.as_secs_f64() * 1000.0
        );
    }
    println!(
        "all confidential: {} onion deliveries",
        sim.metrics().counter("wcl.delivered")
    );
}
