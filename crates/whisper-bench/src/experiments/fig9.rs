//! Fig. 9 — Routing delays of a private T-Chord DHT: a 60-node group
//! inside a 400-node cluster bootstraps a Chord ring with T-Chord over
//! the PPSS; 350 random queries are routed over confidential WCL paths,
//! with replies returned over a single WCL path using contact info
//! shipped with the query.

use crate::harness::{NetBuilder, BOOTSTRAPS};
use crate::report;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};
use whisper_apps::chord::{ChordKey, IdealRing};
use whisper_apps::tchord::TChordApp;
use whisper_core::{GroupId, WhisperNode};
use whisper_net::stats::Cdf;
use whisper_net::NodeId;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// DHT group size.
    pub group_size: usize,
    /// Number of random queries (the paper routes 350).
    pub queries: usize,
    /// Warm-up + convergence seconds.
    pub converge: u64,
}

/// Engine seed.
const SEED: u64 = 11;

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params { nodes: 400, group_size: 60, queries: 350, converge: 1100 }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 120, group_size: 20, queries: 80, converge: 900 }
    }
}

/// Fig. 9: the ring T-Chord built and the queries routed over it.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// What was run.
    pub params: Params,
    /// Members that joined the DHT group.
    pub joined: usize,
    /// Joined members whose first successor is the ideal ring's.
    pub correct_successors: usize,
    /// Queries issued.
    pub issued: usize,
    /// Queries answered.
    pub completed: usize,
    /// Answers that came from the key's owner on the ideal ring.
    pub correct_owner: usize,
    /// Routing delay of each answered query, seconds.
    pub delays_s: Cdf,
    /// Routing hops of each answered query.
    pub hops: Cdf,
}

/// Runs the experiment.
pub fn run(params: &Params) -> Fig9 {
    let group = GroupId::from_name("fig9-0");
    let mut net = NetBuilder::cluster(params.nodes, SEED).build_whisper(move |_| Box::new(TChordApp::new(group)));
    net.sim.run_for_secs(300);

    let leader = net.publics()[BOOTSTRAPS]; // skip bootstraps
    let groups = net.create_groups(&[leader], "fig9");
    let gid = groups[0];
    assert_eq!(gid, group, "group id derivation must be stable");
    let mut members: Vec<NodeId> = vec![leader];
    for &id in net.ids.clone().iter() {
        if members.len() >= params.group_size {
            break;
        }
        if id.0 >= BOOTSTRAPS as u64 && id != leader {
            net.join(leader, gid, id);
            members.push(id);
        }
    }
    net.sim.run_for_secs(params.converge);

    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            net.sim
                .node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(gid).is_some())
        })
        .collect();
    let ring = IdealRing::new(&joined);

    // Ring quality before querying.
    let correct_succ = joined
        .iter()
        .filter(|m| {
            let node: &WhisperNode = net.sim.node(**m).unwrap();
            let app: &TChordApp = node.app().unwrap();
            app.neighbors().successors.first().copied() == ring.successor_of(**m)
        })
        .count();

    // Issue the queries from random members.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x93);
    let mut issued = 0;
    for q in 0..params.queries {
        let from = joined[rng.gen_range(0..joined.len())];
        let key = ChordKey::of_data(&(q as u64).to_be_bytes());
        net.sim.with_node_ctx::<WhisperNode>(from, |node, ctx| {
            node.with_api(|api, app| {
                let app: &mut TChordApp = app.as_any_mut().downcast_mut().unwrap();
                if app.lookup(ctx, api, key).is_some() {
                    issued += 1;
                }
            });
        });
        // Pace the queries slightly so they do not all collide.
        net.sim.run_for(whisper_net::SimDuration::from_millis(500));
    }
    net.sim.run_for_secs(120);

    let mut delays = Cdf::new();
    let mut hops = Cdf::new();
    let mut correct_owner = 0usize;
    let mut completed = 0usize;
    for &m in &joined {
        let node: &WhisperNode = net.sim.node(m).unwrap();
        let app: &TChordApp = node.app().unwrap();
        for r in app.completed() {
            completed += 1;
            delays.push(r.delay.as_secs_f64());
            hops.push(r.hops as f64);
            if ring.owner(r.key).1 == r.owner {
                correct_owner += 1;
            }
        }
    }
    Fig9 {
        params: params.clone(),
        joined: joined.len(),
        correct_successors: correct_succ,
        issued,
        completed,
        correct_owner,
        delays_s: delays,
        hops,
    }
}

impl Fig9 {
    /// Prints Fig. 9-style output.
    pub fn print(&self) {
        report::banner("Figure 9", "private T-Chord DHT routing delays (cluster)");
        let params = &self.params;
        println!(
            "nodes={} group={} queries={}",
            params.nodes, params.group_size, params.queries
        );
        println!("members joined: {}/{}", self.joined, params.group_size);
        println!("correct successors: {}/{} (T-Chord convergence)", self.correct_successors, self.joined);
        report::section("results");
        let (issued, completed) = (self.issued, self.completed);
        println!(
            "queries issued: {issued}, completed: {completed} ({:.1}%), correct owner: {}/{completed}",
            completed as f64 / issued.max(1) as f64 * 100.0,
            self.correct_owner
        );
        report::cdf("routing delay (s)", &self.delays_s, 11);
        report::cdf("routing hops", &self.hops, 6);
        println!("(paper: delays range ~0.19 s to ~1.5 s depending on route length)");
    }
}
