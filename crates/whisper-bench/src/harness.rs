//! Shared experiment scaffolding: deterministic population builders and
//! group formation.

use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};
use whisper_core::node::NoApp;
use whisper_core::{GroupApp, GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::{KeyPair, RsaKeySize};
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Protocol, Sim, SimConfig};
use whisper_net::NodeId;
use whisper_pss::{NylonConfig, NylonCore, NylonNode};

/// `f` of every item, in the items' order, computed in parallel across
/// CPU cores. Each result depends only on its item, so the output is
/// identical regardless of thread scheduling.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let parts: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
            .collect();
        parts.into_iter().flat_map(|part| part.join().expect("a worker panicked")).collect()
    })
}

/// Generates `count` key pairs deterministically, in parallel across CPU
/// cores. Key `i` depends only on `(seed, i)`, so the result is identical
/// regardless of thread scheduling.
pub fn gen_keys_parallel(count: usize, size: RsaKeySize, seed: u64) -> Vec<KeyPair> {
    let streams: Vec<u64> = (0..count as u64).collect();
    par_map(&streams, |&idx| KeyPair::generate(size, &mut StdRng::for_stream(seed, idx)))
}

/// Public bootstrap nodes at the head of every population: nodes `0` and
/// `1` bootstrap from each other, every later one from both.
pub const BOOTSTRAPS: usize = 2;

/// Declarative description of a simulated population.
#[derive(Clone, Debug)]
pub struct NetBuilder {
    /// Number of nodes (including the [`BOOTSTRAPS`]).
    pub nodes: usize,
    /// Fraction of public nodes among non-bootstrap nodes.
    pub public_ratio: f64,
    /// Engine + environment configuration.
    pub sim: SimConfig,
    /// Protocol stack configuration.
    pub whisper: WhisperConfig,
    /// Generate at most this many distinct key pairs and cycle them
    /// across the population (`None` = one key per node). `scale_smoke`
    /// sets this: RSA keygen is O(nodes) and would dominate a 10k-node
    /// build, while a smoke run only needs *plausible* keys, not unique
    /// ones.
    pub key_cycle: Option<usize>,
}

impl NetBuilder {
    /// The paper's defaults on a cluster profile.
    pub fn cluster(nodes: usize, seed: u64) -> Self {
        NetBuilder {
            nodes,
            public_ratio: 0.30,
            sim: SimConfig::cluster(seed),
            whisper: WhisperConfig::default(),
            key_cycle: None,
        }
    }

    /// Generates the population's key material, honouring
    /// [`NetBuilder::key_cycle`], from a seed of its own derived from the
    /// engine seed.
    fn population_keys(&self, size: RsaKeySize) -> Vec<KeyPair> {
        let distinct = self.key_cycle.unwrap_or(self.nodes).min(self.nodes).max(1);
        let keys = gen_keys_parallel(distinct, size, self.sim.seed ^ 0x4B45_5953); // "KEYS"
        (0..self.nodes).map(|i| keys[i % distinct].clone()).collect()
    }

    /// The paper's defaults on the PlanetLab profile.
    pub fn planetlab(nodes: usize, seed: u64) -> Self {
        NetBuilder { sim: SimConfig::planetlab(seed), ..NetBuilder::cluster(nodes, seed) }
    }

    /// Node `i`'s NAT type and bootstrap list: the [`BOOTSTRAPS`] are
    /// public and bootstrap from each other, every later node draws its
    /// NAT type from the engine's harness RNG and bootstraps from all of
    /// them.
    fn place(&self, i: usize, sim: &mut Sim) -> (NatType, Vec<NodeId>) {
        let bootstraps = (0..BOOTSTRAPS as u64).map(NodeId);
        if i < BOOTSTRAPS {
            (NatType::Public, bootstraps.filter(|n| n.0 != i as u64).collect())
        } else {
            let dist = NatDistribution::with_public_ratio(self.public_ratio);
            (dist.sample(sim.rng()), bootstraps.collect())
        }
    }

    /// A fresh engine holding the population: node `i` is what `make`
    /// builds from its key (of `size`, see [`NetBuilder::key_cycle`]) and
    /// its bootstrap list, [placed](NetBuilder::place) in turn.
    fn populate(
        &self,
        size: RsaKeySize,
        make: impl Fn(usize, KeyPair, Vec<NodeId>) -> Box<dyn Protocol>,
    ) -> (Sim, Vec<NodeId>) {
        let keys = self.population_keys(size);
        // The builder knows the population size, so the engine can
        // pre-reserve per-shard arenas and scheduler buckets up front.
        let mut sim = Sim::new(self.sim.clone().with_expected_nodes(self.nodes));
        let mut ids = Vec::with_capacity(self.nodes);
        for (i, key) in keys.into_iter().enumerate() {
            let (nat, bootstrap) = self.place(i, &mut sim);
            ids.push(sim.add_node(make(i, key, bootstrap), nat));
        }
        (sim, ids)
    }

    /// A full stack running `app`, bootstrapping from `bootstrap`.
    fn whisper_node(&self, key: KeyPair, app: Box<dyn GroupApp>, bootstrap: Vec<NodeId>) -> Box<dyn Protocol> {
        let mut node = WhisperNode::with_app(self.whisper.clone(), key, app);
        node.nylon_mut().set_bootstrap(bootstrap);
        Box::new(node)
    }

    /// Builds a network of plain PSS nodes ([`NylonNode`]) — used by the
    /// Fig. 5 / Fig. 6 experiments that evaluate the PSS layer alone.
    pub fn build_pss(&self, nylon_cfg: &NylonConfig) -> PssNet {
        let (sim, ids) = self.populate(nylon_cfg.rsa, |_, key, bootstrap| {
            let mut core = NylonCore::new(nylon_cfg.clone(), key);
            core.set_bootstrap(bootstrap);
            Box::new(NylonNode::new(core))
        });
        PssNet { sim, ids }
    }

    /// The preamble of the churn and route experiments: builds the
    /// population without an app, lets the PSS converge for `warmup` s,
    /// runs [`WhisperNet::form_groups`] and resets the counters and
    /// samples. Returns the network, the leaders and the groups.
    pub fn grouped(
        &self,
        warmup: u64,
        groups: usize,
        prefix: &str,
        seed: u64,
        settle: u64,
    ) -> (WhisperNet, Vec<NodeId>, Vec<GroupId>) {
        let mut net = self.build_whisper(|_| Box::new(NoApp));
        net.sim.run_for_secs(warmup);
        let (leaders, gids, _) = net.form_groups(groups, prefix, seed, settle);
        net.sim.metrics_mut().reset_counters_and_samples();
        (net, leaders, gids)
    }

    /// Builds a network of full WHISPER stacks, with an app plugin per
    /// node supplied by `make_app`.
    pub fn build_whisper(&self, make_app: impl Fn(usize) -> Box<dyn GroupApp>) -> WhisperNet {
        let (sim, ids) = self.populate(self.whisper.nylon.rsa, |i, key, bootstrap| {
            self.whisper_node(key, make_app(i), bootstrap)
        });
        WhisperNet { sim, ids, builder: self.clone() }
    }
}

/// A running PSS-only population.
pub struct PssNet {
    /// The simulator.
    pub sim: Sim,
    /// All node ids in creation order (bootstraps first).
    pub ids: Vec<NodeId>,
}

/// The live nodes among `ids` that are public (or, `public == false`,
/// NATted).
fn live_by_nat(sim: &Sim, ids: &[NodeId], public: bool) -> Vec<NodeId> {
    let wanted = |id: &NodeId| sim.nat_type(*id).is_some_and(|t| t.is_public() == public);
    ids.iter().copied().filter(wanted).collect()
}

impl PssNet {
    /// Ids of live public nodes.
    pub fn publics(&self) -> Vec<NodeId> {
        live_by_nat(&self.sim, &self.ids, true)
    }

    /// Ids of live NATted nodes.
    pub fn natted(&self) -> Vec<NodeId> {
        live_by_nat(&self.sim, &self.ids, false)
    }
}

/// A running full-stack population.
pub struct WhisperNet {
    /// The simulator.
    pub sim: Sim,
    /// All node ids in creation order (bootstraps first).
    pub ids: Vec<NodeId>,
    /// The builder that produced this network (for spawning replacements
    /// under churn).
    pub builder: NetBuilder,
}

impl WhisperNet {
    /// Ids of live public nodes.
    pub fn publics(&self) -> Vec<NodeId> {
        live_by_nat(&self.sim, &self.ids, true)
    }

    /// Ids of live NATted nodes.
    pub fn natted(&self) -> Vec<NodeId> {
        live_by_nat(&self.sim, &self.ids, false)
    }

    /// Live node ids.
    pub fn live(&self) -> Vec<NodeId> {
        self.ids
            .iter()
            .copied()
            .filter(|id| self.sim.contains(*id))
            .collect()
    }

    /// Creates one group per leader (leaders must be live members of the
    /// network) and returns the group ids.
    pub fn create_groups(&mut self, leaders: &[NodeId], prefix: &str) -> Vec<GroupId> {
        let mut groups = Vec::with_capacity(leaders.len());
        for (i, &leader) in leaders.iter().enumerate() {
            let name = format!("{prefix}-{i}");
            let mut gid = GroupId::from_name(&name);
            self.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
                gid = node.create_group(ctx, &name);
            });
            groups.push(gid);
        }
        groups
    }

    /// Makes `member` join `group` using an invitation from `leader`.
    /// Returns `false` when the leader is gone or not a leader.
    pub fn join(&mut self, leader: NodeId, group: GroupId, member: NodeId) -> bool {
        let Some(node) = self.sim.node::<WhisperNode>(leader) else {
            return false;
        };
        let Some(invitation) = node.invite(group, member) else {
            return false;
        };
        self.sim.with_node_ctx::<WhisperNode>(member, |node, ctx| {
            node.join_group(ctx, invitation);
        })
    }

    /// Each of the first `groups` live P-nodes leads one group
    /// (`{prefix}-{i}`), every other non-bootstrap node joins one of them
    /// (drawn from `seed`), then `settle` s pass. Returns the leaders, the
    /// groups and each group's members.
    pub fn form_groups(
        &mut self,
        groups: usize,
        prefix: &str,
        seed: u64,
        settle: u64,
    ) -> (Vec<NodeId>, Vec<GroupId>, Vec<Vec<NodeId>>) {
        let leaders: Vec<NodeId> = self.publics().into_iter().take(groups).collect();
        assert_eq!(leaders.len(), groups, "not enough P-nodes for leaders");
        let gids = self.create_groups(&leaders, prefix);
        let membership = self.subscribe_members(&leaders, &gids, 1, seed);
        self.sim.run_for_secs(settle);
        (leaders, gids, membership)
    }

    /// Live nodes other than the bootstraps and `leaders`: the ones churn
    /// and faults may take down.
    pub fn expendable(&self, leaders: &[NodeId]) -> Vec<NodeId> {
        let core = |id: &NodeId| id.0 < BOOTSTRAPS as u64 || leaders.contains(id);
        self.live().into_iter().filter(|id| !core(id)).collect()
    }

    /// Number of live members of `group`.
    pub fn member_count(&self, group: GroupId) -> usize {
        self.live()
            .into_iter()
            .filter(|id| {
                self.sim
                    .node::<WhisperNode>(*id)
                    .is_some_and(|n| n.ppss().group(group).is_some())
            })
            .count()
    }

    /// Spawns a fresh node (used as a churn replacement), optionally
    /// joining `join_spec = (leader, group)` once started.
    pub fn spawn_node(
        &mut self,
        key_rng: &mut StdRng,
        join_spec: Option<(NodeId, GroupId)>,
    ) -> NodeId {
        let key = KeyPair::generate(self.builder.whisper.nylon.rsa, key_rng);
        let (nat, bootstrap) = self.builder.place(self.ids.len(), &mut self.sim);
        let id = self.sim.add_node(self.builder.whisper_node(key, Box::new(NoApp), bootstrap), nat);
        self.ids.push(id);
        if let Some((leader, group)) = join_spec {
            self.join(leader, group, id);
        }
        id
    }

    /// Distributes the non-bootstrap population over `groups`: node `i`
    /// joins `per_node` groups chosen deterministically. Returns the
    /// membership map (group index → members).
    pub fn subscribe_members(
        &mut self,
        leaders: &[NodeId],
        groups: &[GroupId],
        per_node: usize,
        seed: u64,
    ) -> Vec<Vec<NodeId>> {
        let mut membership = vec![Vec::new(); groups.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let candidates: Vec<NodeId> = self
            .live()
            .into_iter()
            .filter(|id| id.0 >= BOOTSTRAPS as u64 && !leaders.contains(id))
            .collect();
        for member in candidates {
            let mut picks: Vec<usize> = (0..groups.len()).collect();
            for k in 0..per_node.min(groups.len()) {
                let j = rng.gen_range(k..picks.len());
                picks.swap(k, j);
                let gi = picks[k];
                if self.join(leaders[gi], groups[gi], member) {
                    membership[gi].push(member);
                }
            }
        }
        membership
    }

    /// Table I's churn script, 100 % replacement: for `secs / 60` minutes,
    /// at the end of each minute `percent` % of the population leaves
    /// (random live nodes other than the leaders and bootstraps) and as
    /// many fresh nodes each join a random group (the PPSS join retries
    /// until the leader answers). Replacement keys are drawn from
    /// `key_seed`, their groups from `group_seed`. Ends with 30 s in which
    /// in-flight retries resolve.
    pub fn churn(
        &mut self,
        secs: u64,
        percent: f64,
        leaders: &[NodeId],
        groups: &[GroupId],
        key_seed: u64,
        group_seed: u64,
    ) {
        let mut key_rng = StdRng::seed_from_u64(key_seed);
        let mut group_rng = StdRng::seed_from_u64(group_seed);
        let per_min = (self.builder.nodes as f64 * percent / 100.0).round() as usize;
        for _minute in 0..secs / 60 {
            self.sim.run_for_secs(60);
            for _ in 0..per_min {
                let candidates = self.expendable(leaders);
                if candidates.is_empty() {
                    break;
                }
                let victim = candidates[self.sim.rng().gen_range(0..candidates.len())];
                self.sim.remove_node(victim);
            }
            for _ in 0..per_min {
                let gi = group_rng.gen_range(0..groups.len());
                self.spawn_node(&mut key_rng, Some((leaders[gi], groups[gi])));
            }
        }
        self.sim.run_for_secs(30);
    }

    /// The route outcomes since the last counter reset, counted the
    /// Table I way. The paper's footnote 3 excludes destination failures
    /// ("we do not consider that the failure of the destination node is a
    /// WCL route failure"); like the authors we have ground truth: a failed
    /// route whose destination has left the network is a destination
    /// failure, one whose destination is alive a routing failure. (Under
    /// 100 %-replacement churn node ids are never reused, so liveness at
    /// the end equals liveness at the failure for departed nodes.) A live
    /// destination that no alternative reached and one whose retries ran
    /// out both count as "No alt.": the paper's table has no column for
    /// "alternatives existed, none answered".
    pub fn routes(&self) -> Routes {
        let m = self.sim.metrics();
        let failed = [m.samples("wcl.failed_dest_noalt"), m.samples("wcl.failed_dest_exhausted")].concat();
        let no_alt = failed.iter().filter(|&&dest| self.sim.contains(NodeId(dest as u64))).count() as u64;
        let (first, alt) = (m.counter("wcl.route_first_success"), m.counter("wcl.route_alt_success"));
        Routes { first, alt, no_alt, dest_failures: failed.len() as u64 - no_alt }
    }
}

/// Route outcomes, as [`WhisperNet::routes`] counts them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Routes {
    /// Routes that succeeded on the first attempt.
    pub first: u64,
    /// Routes that succeeded over an alternative path.
    pub alt: u64,
    /// Routes to a live destination that no path reached.
    pub no_alt: u64,
    /// Failed routes whose destination had left (in no share).
    pub dest_failures: u64,
}

impl Routes {
    /// Column headers matching [`Routes`]'s `Display`.
    pub const HEADER: &'static str =
        "   Success       Alt.    No alt.       routes    dest-fail";

    /// Success, Alt. and No alt. in % of the routes that count.
    pub fn shares(&self) -> [f64; 3] {
        let total = (self.first + self.alt + self.no_alt).max(1);
        [self.first, self.alt, self.no_alt].map(|n| n as f64 / total as f64 * 100.0)
    }

    /// Route attempts, destination failures included.
    pub fn attempts(&self) -> u64 {
        self.first + self.alt + self.no_alt + self.dest_failures
    }
}

impl std::fmt::Display for Routes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [success, alt, no_alt] = self.shares();
        let (attempts, dest_failures) = (self.attempts(), self.dest_failures);
        write!(f, "{success:>9.2}% {alt:>9.2}% {no_alt:>9.2}% {attempts:>12} {dest_failures:>12}")
    }
}
