//! The benchmark's own population builder.
//!
//! The seed drives only the *generator* here: keys, NAT mix, group
//! membership, session plan, churn. The stack receives the generated
//! inputs, and [`Inputs::digest`] is a hash of them.

use std::time::Instant;

use crate::host;
use crate::load::{GossipNode, LoadApp, LoadCfg};
use crate::spec::Spec;
use crate::trace::Traced;
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_crypto::sha256::Sha256;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Protocol, Sim, SimConfig};
use whisper_net::{NodeId, SimDuration};
use whisper_pss::{NylonConfig, NylonCore};
use whisper_rand::rngs::StdRng;
use whisper_rand::Rng;

/// Public bootstrap nodes every node starts from.
pub const BOOTSTRAPS: usize = 2;
/// Share of P-nodes among the other nodes (the paper's default mix).
const PUBLIC_RATIO: f64 = 0.30;
/// A round of joins (every member's next group) runs in steps of this
/// many simulated seconds until every handshake of the round is done.
const JOIN_STEP_S: u64 = 5;
/// Steps (three PPSS cycles) after which the next round starts anyway.
const JOIN_STEPS_MAX: usize = 36;

// Generator lanes: independent random streams of one seed.
const LANE_KEYS: u64 = 1;
const LANE_NAT: u64 = 2;
const LANE_GROUPS: u64 = 3;
const LANE_SESSIONS: u64 = 4;
const LANE_CHURN: u64 = 5;
const LANE_ENGINE: u64 = 6;

fn lane(seed: u64, lane: u64) -> StdRng {
    StdRng::for_stream(seed ^ 0x5748_4953_5045_5221, lane) // "WHISPER!"
}

/// Key `i` depends only on `(seed, i)`, so any thread count generates
/// the same keys.
fn gen_keys(count: usize, cfg: &NylonConfig, seed: u64) -> Vec<KeyPair> {
    let threads = host::nproc().min(count.max(1));
    let key_seed = lane(seed, LANE_KEYS).gen::<u64>();
    let mut out: Vec<Option<KeyPair>> = vec![None; count];
    let chunk = count.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (t, slots) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, slot) in slots.iter_mut().enumerate() {
                    let mut rng = StdRng::for_stream(key_seed, (t * chunk + i) as u64);
                    *slot = Some(KeyPair::generate(cfg.rsa, &mut rng));
                }
            });
        }
    });
    out.into_iter().map(|k| k.expect("every slot was filled")).collect()
}

/// Everything the generator hands to the stack.
pub struct Inputs {
    /// Distinct keys; node `i` uses `keys[i % keys.len()]`.
    pub keys: Vec<KeyPair>,
    pub nat: Vec<NatType>,
    pub engine_seed: u64,
    /// Node index of each group's leader.
    pub leaders: Vec<usize>,
    /// Per node: the groups (by index) it joins, in join order.
    pub membership: Vec<Vec<usize>>,
    /// Per node and joined group: first request this long after the
    /// sessions open, µs.
    pub session_start_us: Vec<Vec<u64>>,
    /// Churn victims, replacement keys, NAT types and groups.
    pub churn_rng: StdRng,
    /// SHA-256 of all of the above, hex.
    pub digest: String,
}

/// Generates the inputs of `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let cfg = WhisperConfig::default();
    let distinct = spec.key_cycle.unwrap_or(spec.nodes).min(spec.nodes);
    let keys = gen_keys(distinct, &cfg.nylon, seed);

    let dist = NatDistribution::with_public_ratio(PUBLIC_RATIO);
    let mut rng = lane(seed, LANE_NAT);
    let nat: Vec<NatType> = (0..spec.nodes)
        .map(|i| if i < BOOTSTRAPS { NatType::Public } else { dist.sample(&mut rng) })
        .collect();

    let leaders: Vec<usize> =
        (BOOTSTRAPS..spec.nodes).filter(|&i| nat[i].is_public()).take(spec.groups).collect();
    assert_eq!(leaders.len(), spec.groups, "enough P-nodes to lead every group");

    let mut rng = lane(seed, LANE_GROUPS);
    let mut membership = vec![Vec::new(); spec.nodes];
    for (i, joined) in membership.iter_mut().enumerate().skip(BOOTSTRAPS) {
        if spec.groups == 0 || leaders.contains(&i) {
            continue;
        }
        let mut picks: Vec<usize> = (0..spec.groups).collect();
        for k in 0..spec.groups_per_member.min(spec.groups) {
            let j = rng.gen_range(k..picks.len());
            picks.swap(k, j);
            joined.push(picks[k]);
        }
    }

    let mut rng = lane(seed, LANE_SESSIONS);
    let think_us = (spec.think_ms * 1000).max(1);
    let session_start_us: Vec<Vec<u64>> = membership
        .iter()
        .map(|joined| joined.iter().map(|_| rng.gen_range(0..think_us)).collect())
        .collect();

    let engine_seed = lane(seed, LANE_ENGINE).gen::<u64>();
    let churn_seed = lane(seed, LANE_CHURN).gen::<u64>();

    let mut h = Sha256::new();
    // The inputs proper; names, shard counts and phase lengths are not.
    h.update(
        format!(
            "{} {} {} {:?} {} {} {:?} {} {:?} {}",
            spec.nodes,
            spec.full_stack,
            spec.planetlab,
            spec.key_cycle,
            spec.groups,
            spec.groups_per_member,
            spec.dest,
            spec.think_ms,
            spec.payloads,
            spec.churn
        )
        .as_bytes(),
    );
    for key in &keys {
        h.update(key.public().wire_bytes());
    }
    for t in &nat {
        h.update(format!("{t:?}").as_bytes());
    }
    for &l in &leaders {
        h.update(&(l as u64).to_le_bytes());
    }
    for (joined, starts) in membership.iter().zip(&session_start_us) {
        h.update(&(joined.len() as u64).to_le_bytes());
        for (&g, &s) in joined.iter().zip(starts) {
            h.update(&(g as u64).to_le_bytes());
            h.update(&s.to_le_bytes());
        }
    }
    h.update(&engine_seed.to_le_bytes());
    h.update(&churn_seed.to_le_bytes());

    Inputs {
        keys,
        nat,
        engine_seed,
        leaders,
        membership,
        session_start_us,
        churn_rng: StdRng::for_stream(churn_seed, 0),
        digest: hex(&h.finalize()),
    }
}

/// Lower-case hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Median call times of the group-formation API, measured at the call
/// boundary while the population forms its groups (`ppss.probe.*`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FormationTimes {
    pub create_group_ns: f64,
    pub invite_ns: f64,
    pub join_ns: f64,
}

/// A built population.
pub struct Population {
    pub sim: Sim,
    pub spec: Spec,
    pub traced: bool,
    pub cfg: WhisperConfig,
    /// All node ids ever added, in creation order (bootstraps first).
    pub ids: Vec<NodeId>,
    pub leaders: Vec<NodeId>,
    pub groups: Vec<GroupId>,
    pub churn_rng: StdRng,
    pub formation: FormationTimes,
}

fn boxed<P: Protocol + 'static>(node: P, traced: bool) -> Box<dyn Protocol> {
    if traced {
        Box::new(Traced(node))
    } else {
        Box::new(node)
    }
}

fn bootstrap_list(me: usize) -> Vec<NodeId> {
    (0..BOOTSTRAPS).filter(|&b| b != me).map(|b| NodeId(b as u64)).collect()
}

impl Population {
    /// Adds the nodes; nothing has run yet.
    pub fn build(spec: &Spec, inputs: &Inputs, traced: bool) -> Population {
        let cfg = WhisperConfig::default();
        let base = if spec.planetlab {
            SimConfig::planetlab(inputs.engine_seed)
        } else {
            SimConfig::cluster(inputs.engine_seed)
        };
        let shards = spec.shards();
        let mut sim_cfg =
            base.with_expected_nodes(spec.nodes).with_shards(shards).with_profiling(traced);
        if shards > 1 {
            sim_cfg = sim_cfg.with_threads(true);
        }
        let mut sim = Sim::new(sim_cfg);
        let mut ids = Vec::with_capacity(spec.nodes);
        for (i, &nat) in inputs.nat.iter().enumerate() {
            let key = inputs.keys[i % inputs.keys.len()].clone();
            let node = if spec.full_stack {
                let app = LoadApp::new(load_cfg(spec, traced, false));
                let mut node = WhisperNode::with_app(cfg.clone(), key, Box::new(app));
                node.nylon_mut().set_bootstrap(bootstrap_list(i));
                boxed(node, traced)
            } else {
                let mut core = NylonCore::new(cfg.nylon.clone(), key);
                core.set_bootstrap(bootstrap_list(i));
                boxed(GossipNode::new(core), traced)
            };
            ids.push(sim.add_node(node, nat));
        }
        let leaders = inputs.leaders.iter().map(|&i| ids[i]).collect();
        let mut pop = Population {
            sim,
            spec: spec.clone(),
            traced,
            cfg,
            ids,
            leaders,
            groups: Vec::new(),
            churn_rng: inputs.churn_rng.clone(),
            formation: FormationTimes::default(),
        };
        pop.warm_up(inputs);
        pop
    }

    /// Warm-up, group formation, session opening and ramp.
    fn warm_up(&mut self, inputs: &Inputs) {
        let spec = self.spec.clone();
        self.sim.run_for_secs(spec.warm_s);
        if !spec.full_stack {
            return;
        }
        let mut create_ns = Vec::new();
        for (g, &leader) in self.leaders.iter().enumerate() {
            let name = format!("bench-{g}");
            let mut gid = GroupId::from_name(&name);
            self.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
                let t0 = Instant::now();
                gid = node.create_group(ctx, &name);
                create_ns.push(t0.elapsed().as_nanos() as f64);
            });
            self.groups.push(gid);
        }
        let (mut invite_ns, mut join_ns) = (Vec::new(), Vec::new());
        for round in 0..spec.groups_per_member {
            let mut joining = Vec::new();
            for (i, joined) in inputs.membership.iter().enumerate() {
                if let Some(&g) = joined.get(round) {
                    let (i_ns, j_ns) = self.join(g, self.ids[i]);
                    invite_ns.push(i_ns);
                    join_ns.push(j_ns);
                    joining.push((self.ids[i], self.groups[g]));
                }
            }
            // A member never has two handshakes pending: `Ppss` retries
            // pending joins in hash order, which would make a node with
            // two of them unreplayable.
            let is_member = |sim: &Sim, (id, group): &(NodeId, GroupId)| {
                sim.node::<WhisperNode>(*id).is_some_and(|n| n.ppss().group(*group).is_some())
            };
            for step in 0..JOIN_STEPS_MAX {
                if step > 0 && joining.iter().all(|j| is_member(&self.sim, j)) {
                    break;
                }
                self.sim.run_for_secs(JOIN_STEP_S);
            }
        }
        self.formation = FormationTimes {
            create_group_ns: host::median(create_ns),
            invite_ns: host::median(invite_ns),
            join_ns: host::median(join_ns),
        };
        self.sim.run_for_secs(spec.settle_s);
        for (i, joined) in inputs.membership.iter().enumerate() {
            for (&g, &start_us) in joined.iter().zip(&inputs.session_start_us[i]) {
                let group = self.groups[g];
                self.sim.with_node_ctx::<WhisperNode>(self.ids[i], |node, ctx| {
                    node.with_api(|api, app| {
                        let app = app.as_any_mut().downcast_mut::<LoadApp>().expect("LoadApp");
                        app.open_session(ctx, api, group, SimDuration::from_micros(start_us));
                    });
                });
            }
        }
        self.advance(spec.ramp_s);
    }

    /// `member` joins group `g` on its leader's invitation. Returns the
    /// (invite, join) call times in ns.
    fn join(&mut self, g: usize, member: NodeId) -> (f64, f64) {
        let (leader, group) = (self.leaders[g], self.groups[g]);
        let t0 = Instant::now();
        let invitation = self
            .sim
            .node::<WhisperNode>(leader)
            .and_then(|n| n.invite(group, member))
            .expect("leaders stay up and lead their group");
        let invite_ns = t0.elapsed().as_nanos() as f64;
        let mut join_ns = 0.0;
        self.sim.with_node_ctx::<WhisperNode>(member, |node, ctx| {
            let t0 = Instant::now();
            node.join_group(ctx, invitation);
            join_ns = t0.elapsed().as_nanos() as f64;
        });
        (invite_ns, join_ns)
    }

    /// Runs `secs` of simulated time, applying churn rounds on the way.
    /// Churn rounds fall on multiples of the churn period, and `secs` is
    /// one too wherever churn is on.
    pub fn advance(&mut self, secs: u64) {
        if !self.spec.churn {
            self.sim.run_for_secs(secs);
            return;
        }
        let period = crate::spec::CHURN_PERIOD_S;
        assert!(secs.is_multiple_of(period), "churned phases are whole churn periods");
        for _ in 0..secs / period {
            self.churn_round();
            self.sim.run_for_secs(period);
        }
    }

    /// Table I churn: 1 % of the population leaves, as many fresh nodes
    /// join, each into one random group.
    fn churn_round(&mut self) {
        let protected = |id: &NodeId| (id.0 as usize) < BOOTSTRAPS || self.leaders.contains(id);
        let mut candidates: Vec<NodeId> =
            self.sim.node_ids().into_iter().filter(|id| !protected(id)).collect();
        let leaving = (self.sim.len() as f64 * 0.01).round() as usize;
        for _ in 0..leaving.min(candidates.len()) {
            let victim = candidates.swap_remove(self.churn_rng.gen_range(0..candidates.len()));
            self.sim.remove_node(victim);
        }
        let dist = NatDistribution::with_public_ratio(PUBLIC_RATIO);
        for _ in 0..leaving {
            let key = KeyPair::generate(self.cfg.nylon.rsa, &mut self.churn_rng);
            let nat = dist.sample(&mut self.churn_rng);
            let g = self.churn_rng.gen_range(0..self.groups.len());
            let app = LoadApp::new(load_cfg(&self.spec, self.traced, true));
            let mut node = WhisperNode::with_app(self.cfg.clone(), key, Box::new(app));
            node.nylon_mut().set_bootstrap(bootstrap_list(usize::MAX));
            let id = self.sim.add_node(boxed(node, self.traced), nat);
            self.ids.push(id);
            // The handshake is retried every PPSS cycle until the leader
            // answers; the app opens its session in `on_joined`.
            self.join(g, id);
        }
    }
}

fn load_cfg(spec: &Spec, traced: bool, open_on_join: bool) -> LoadCfg {
    LoadCfg {
        dest: spec.dest,
        think: SimDuration::from_millis(spec.think_ms),
        payloads: spec.payloads,
        traced,
        open_on_join,
    }
}
