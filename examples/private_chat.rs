//! Private chat room — the application class the paper's introduction
//! opens with. Members of a private group exchange chat lines through
//! gossip broadcast; every line travels over onion routes, and outsiders
//! can neither read a word nor tell who is in the room.
//!
//! ```sh
//! cargo run --release --example private_chat
//! ```

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper::apps::broadcast::BroadcastApp;
use whisper::core::{GroupId, WhisperConfig, WhisperNode};
use whisper::crypto::rsa::KeyPair;
use whisper::net::nat::{NatDistribution, NatType};
use whisper::net::sim::{Sim, SimConfig};
use whisper::net::NodeId;

fn main() {
    let room = GroupId::from_name("the-back-room");
    let cfg = WhisperConfig::default();
    let mut key_rng = StdRng::seed_from_u64(23);
    let mut sim = Sim::new(SimConfig::cluster(23));
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..35u64 {
        let app = Box::new(BroadcastApp::new(room));
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

    // Ten nodes join the room.
    let host = ids[4];
    sim.with_node_ctx::<WhisperNode>(host, |node, ctx| {
        node.create_group(ctx, "the-back-room");
    });
    let guests: Vec<NodeId> = ids[5..14].to_vec();
    for &g in &guests {
        let inv = sim.node::<WhisperNode>(host).unwrap().invite(room, g).unwrap();
        sim.with_node_ctx::<WhisperNode>(g, |node, ctx| node.join_group(ctx, inv));
    }
    sim.run_for_secs(250);

    // Everyone says something.
    let lines = [
        "did anyone read chapter 4?",
        "yes - the ending is wild",
        "careful, walls have ears",
        "not these walls :)",
        "meeting moved to thursday",
        "who brings the samizdat?",
        "i will",
        "same time?",
        "same time.",
        "ok. vanishing now",
    ];
    let mut speakers: Vec<NodeId> = vec![host];
    speakers.extend(&guests);
    for (i, &speaker) in speakers.iter().enumerate() {
        let line = lines[i % lines.len()].as_bytes().to_vec();
        sim.with_node_ctx::<WhisperNode>(speaker, |node, ctx| {
            node.with_api(|api, app| {
                let app: &mut BroadcastApp = app.as_any_mut().downcast_mut().unwrap();
                app.publish(ctx, api, line);
            });
        });
        sim.run_for_secs(5);
    }
    // Let the gossip rounds spread everything.
    sim.run_for_secs(120);

    println!("room transcript as seen by each member:");
    let mut complete = 0;
    for &m in &speakers {
        let node: &WhisperNode = sim.node(m).unwrap();
        let app: &BroadcastApp = node.app().unwrap();
        let n = app.delivered().len();
        println!("  {m}: {n}/{} lines", speakers.len());
        if n == speakers.len() {
            complete += 1;
        }
    }
    println!("members with the complete transcript: {complete}/{}", speakers.len());

    // Show one member's view of the room.
    let app: &BroadcastApp = sim.node::<WhisperNode>(guests[0]).unwrap().app().unwrap();
    println!("\ntranscript at {}:", guests[0]);
    for event in app.delivered() {
        println!("  <{}> {}", event.id.origin, String::from_utf8_lossy(&event.payload));
    }
    println!(
        "\nconfidential deliveries: {}; every line crossed ≥2 mixes encrypted",
        sim.metrics().counter("wcl.delivered")
    );
}
