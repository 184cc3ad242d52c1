//! Group resilience: watch a private group survive the death of its
//! leader. Heartbeats stop flowing, members run the gossip-based leader
//! election (max-aggregation over hashed identifiers, paper §IV-A), the
//! winner generates a new group key and announces it signed with its
//! identity, and the group keeps admitting new members afterwards.
//!
//! ```sh
//! cargo run --release --example group_resilience
//! ```

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper::core::{GroupId, WhisperConfig, WhisperNode};
use whisper::crypto::rsa::KeyPair;
use whisper::net::nat::{NatDistribution, NatType};
use whisper::net::sim::{Sim, SimConfig};
use whisper::net::NodeId;

fn main() {
    let cfg = WhisperConfig::default();

    let mut key_rng = StdRng::seed_from_u64(99);
    let mut sim = Sim::new(SimConfig::cluster(99));
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..30u64 {
        let mut node =
            WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut key_rng));
        let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
        node.nylon_mut()
            .set_bootstrap(vec![NodeId(0), NodeId(1)].into_iter().filter(|n| n.0 != i).collect());
        ids.push(sim.add_node(Box::new(node), nat));
    }
    sim.run_for_secs(250);

    let leader = ids[3];
    let group = GroupId::from_name("resilient");
    sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        node.create_group(ctx, "resilient");
    });
    for &m in &ids[4..12] {
        let inv = sim.node::<WhisperNode>(leader).unwrap().invite(group, m).unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| node.join_group(ctx, inv));
    }
    sim.run_for_secs(600); // 10 PPSS cycles
    let members: Vec<NodeId> = ids[4..12]
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    println!("group formed: leader {leader} + {} members, epoch 0", members.len());

    println!("\n*** killing the leader ***\n");
    sim.remove_node(leader);
    sim.run_for_secs(2400); // 40 cycles: silence, election, key gossip

    let wins = sim.metrics().counter("ppss.elections_won");
    let adoptions = sim.metrics().counter("ppss.new_key_accepted");
    println!("elections won: {wins}; new-key adoptions gossiped: {adoptions}");
    let mut new_leader = None;
    for &m in &members {
        let Some(node) = sim.node::<WhisperNode>(m) else { continue };
        let state = node.ppss().group(group).unwrap();
        println!(
            "  {m}: epoch {}, {} keys in history, leader={}",
            state.epoch(),
            state.key_history().len(),
            state.is_leader()
        );
        if state.is_leader() {
            new_leader = Some(m);
        }
    }

    // The new leader can admit members using the new group key; old
    // passports stay valid through the key history.
    if let Some(new_leader) = new_leader {
        let newcomer = ids[15];
        let inv = sim
            .node::<WhisperNode>(new_leader)
            .unwrap()
            .invite(group, newcomer)
            .expect("new leader holds the group key");
        sim.with_node_ctx::<WhisperNode>(newcomer, |node, ctx| node.join_group(ctx, inv));
        sim.run_for_secs(240);
        let joined = sim
            .node::<WhisperNode>(newcomer)
            .is_some_and(|n| n.ppss().group(group).is_some());
        println!("\nnew member admitted by elected leader {new_leader}: {joined}");
    } else {
        println!("\n(no single leader visible yet — the announcement is still gossiping)");
    }
}
