//! Private index (paper §V-G motivation): a group of nodes operates a
//! Chord DHT *inside* a WHISPER private group — e.g. to share the
//! location of sensitive data — so that outsiders can neither read the
//! index traffic nor learn who participates.
//!
//! ```sh
//! cargo run --release --example private_index
//! ```

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper::apps::chord::{ChordKey, IdealRing};
use whisper::apps::tchord::TChordApp;
use whisper::core::{GroupId, WhisperConfig, WhisperNode};
use whisper::crypto::rsa::KeyPair;
use whisper::net::nat::{NatDistribution, NatType};
use whisper::net::sim::{Sim, SimConfig};
use whisper::net::NodeId;

fn main() {
    let group = GroupId::from_name("private-index");
    let cfg = WhisperConfig::default();
    let mut key_rng = StdRng::seed_from_u64(7);
    let mut sim = Sim::new(SimConfig::cluster(7));
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..80u64 {
        let app = Box::new(TChordApp::new(group));
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
    println!("warming up the system-wide PSS...");
    sim.run_for_secs(250);

    // 20 of the 80 nodes form the private index.
    let leader = ids[4];
    sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        node.create_group(ctx, "private-index");
    });
    let members: Vec<NodeId> = ids[5..24].to_vec();
    for &m in &members {
        let inv = sim
            .node::<WhisperNode>(leader)
            .unwrap()
            .invite(group, m)
            .unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| node.join_group(ctx, inv));
    }
    println!("letting T-Chord build the ring over the PPSS (15 simulated minutes)...");
    sim.run_for_secs(900);

    let joined: Vec<NodeId> = std::iter::once(leader)
        .chain(members.iter().copied())
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    let ring = IdealRing::new(&joined);
    let converged = joined
        .iter()
        .filter(|m| {
            let app: &TChordApp = sim.node::<WhisperNode>(**m).unwrap().app().unwrap();
            app.neighbors().successors.first().copied() == ring.successor_of(**m)
        })
        .count();
    println!("ring: {}/{} members know their true successor", converged, joined.len());

    // Store-and-find emulation: every member looks up the owner of a few
    // document keys; replies come back over single WCL paths.
    let documents = ["design.pdf", "ledger.db", "sources.txt", "keys.asc"];
    for (i, &m) in joined.iter().enumerate().take(8) {
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| {
            node.with_api(|api, app| {
                let app: &mut TChordApp = app.as_any_mut().downcast_mut().unwrap();
                let doc = documents[i % documents.len()];
                let key = ChordKey::of_data(doc.as_bytes());
                app.lookup(ctx, api, key);
            });
        });
    }
    sim.run_for_secs(90);

    let mut completed = 0;
    let mut correct = 0;
    for &m in &joined {
        let app: &TChordApp = sim.node::<WhisperNode>(m).unwrap().app().unwrap();
        for r in app.completed() {
            completed += 1;
            if ring.owner(r.key).1 == r.owner {
                correct += 1;
            }
            println!(
                "  lookup {:?} -> owner {} in {} hops, {:.0} ms",
                r.key,
                r.owner,
                r.hops,
                r.delay.as_secs_f64() * 1000.0
            );
        }
    }
    println!("lookups completed: {completed} (correct owner: {correct})");
    println!(
        "all of it confidential: {} onion deliveries, 0 plaintext bytes on any link",
        sim.metrics().counter("wcl.delivered")
    );
}
