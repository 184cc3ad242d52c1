//! Shared experiment scaffolding: deterministic population builders and
//! group formation.

use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};
use whisper_core::{GroupApp, GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::{KeyPair, RsaKeySize};
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::NodeId;
use whisper_pss::{NylonConfig, NylonCore, NylonNode};

/// Generates `count` key pairs deterministically, in parallel across CPU
/// cores. Key `i` depends only on `(seed, i)`, so the result is identical
/// regardless of thread scheduling.
pub fn gen_keys_parallel(count: usize, size: RsaKeySize, seed: u64) -> Vec<KeyPair> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(count.max(1));
    let mut out: Vec<Option<KeyPair>> = vec![None; count];
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, s) in slot.iter_mut().enumerate() {
                    let idx = t * chunk + i;
                    let mut rng = StdRng::for_stream(seed, idx as u64);
                    *s = Some(KeyPair::generate(size, &mut rng));
                }
            });
        }
    });
    out.into_iter().map(|k| k.expect("filled")).collect()
}

/// Declarative description of a simulated population.
#[derive(Clone, Debug)]
pub struct NetBuilder {
    /// Number of nodes (including bootstraps).
    pub nodes: usize,
    /// Number of public bootstrap nodes (at least 1).
    pub bootstraps: usize,
    /// Fraction of public nodes among non-bootstrap nodes.
    pub public_ratio: f64,
    /// Engine + environment configuration.
    pub sim: SimConfig,
    /// Protocol stack configuration.
    pub whisper: WhisperConfig,
    /// Seed for key generation (distinct from the engine seed).
    pub key_seed: u64,
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
            bootstraps: 2,
            public_ratio: 0.30,
            sim: SimConfig::cluster(seed),
            whisper: WhisperConfig::default(),
            key_seed: seed ^ 0x4B45_5953, // "KEYS"
            key_cycle: None,
        }
    }

    /// Generates the population's key material, honouring
    /// [`NetBuilder::key_cycle`].
    fn population_keys(&self, size: RsaKeySize) -> Vec<KeyPair> {
        let distinct = self.key_cycle.unwrap_or(self.nodes).min(self.nodes).max(1);
        let keys = gen_keys_parallel(distinct, size, self.key_seed);
        (0..self.nodes).map(|i| keys[i % distinct].clone()).collect()
    }

    /// The paper's defaults on the PlanetLab profile.
    pub fn planetlab(nodes: usize, seed: u64) -> Self {
        NetBuilder { sim: SimConfig::planetlab(seed), ..NetBuilder::cluster(nodes, seed) }
    }

    /// Builds a network of plain PSS nodes ([`NylonNode`]) — used by the
    /// Fig. 5 / Fig. 6 experiments that evaluate the PSS layer alone.
    pub fn build_pss(&self, nylon_cfg: &NylonConfig) -> PssNet {
        let keys = self.population_keys(nylon_cfg.rsa);
        // The builder knows the population size, so the engine can
        // pre-reserve per-shard arenas and scheduler buckets up front.
        let mut sim = Sim::new(self.sim.clone().with_expected_nodes(self.nodes));
        let dist = NatDistribution::with_public_ratio(self.public_ratio);
        let mut ids = Vec::with_capacity(self.nodes);
        for (i, key) in keys.into_iter().enumerate() {
            let mut core = NylonCore::new(nylon_cfg.clone(), key);
            let nat = if i < self.bootstraps {
                NatType::Public
            } else {
                dist.sample(sim.rng())
            };
            if i >= self.bootstraps {
                core.set_bootstrap((0..self.bootstraps as u64).map(NodeId).collect());
            } else {
                core.set_bootstrap(
                    (0..self.bootstraps as u64)
                        .map(NodeId)
                        .filter(|n| n.0 != i as u64)
                        .collect(),
                );
            }
            ids.push(sim.add_node(Box::new(NylonNode::new(core)), nat));
        }
        PssNet { sim, ids }
    }

    /// Builds a network of full WHISPER stacks, with an app plugin per
    /// node supplied by `make_app`.
    pub fn build_whisper(
        &self,
        make_app: impl Fn(usize) -> Box<dyn GroupApp>,
    ) -> WhisperNet {
        let keys = self.population_keys(self.whisper.nylon.rsa);
        let mut sim = Sim::new(self.sim.clone().with_expected_nodes(self.nodes));
        let dist = NatDistribution::with_public_ratio(self.public_ratio);
        let mut ids = Vec::with_capacity(self.nodes);
        for (i, key) in keys.into_iter().enumerate() {
            let mut node = WhisperNode::with_app(self.whisper.clone(), key, make_app(i));
            let nat = if i < self.bootstraps {
                NatType::Public
            } else {
                dist.sample(sim.rng())
            };
            if i >= self.bootstraps {
                node.nylon_mut()
                    .set_bootstrap((0..self.bootstraps as u64).map(NodeId).collect());
            } else {
                node.nylon_mut().set_bootstrap(
                    (0..self.bootstraps as u64)
                        .map(NodeId)
                        .filter(|n| n.0 != i as u64)
                        .collect(),
                );
            }
            ids.push(sim.add_node(Box::new(node), nat));
        }
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

impl PssNet {
    /// Ids of live public nodes.
    pub fn publics(&self) -> Vec<NodeId> {
        self.ids
            .iter()
            .copied()
            .filter(|id| self.sim.nat_type(*id).is_some_and(|t| t.is_public()))
            .collect()
    }

    /// Ids of live NATted nodes.
    pub fn natted(&self) -> Vec<NodeId> {
        self.ids
            .iter()
            .copied()
            .filter(|id| self.sim.nat_type(*id).is_some_and(|t| !t.is_public()))
            .collect()
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
        self.ids
            .iter()
            .copied()
            .filter(|id| self.sim.nat_type(*id).is_some_and(|t| t.is_public()))
            .collect()
    }

    /// Ids of live NATted nodes.
    pub fn natted(&self) -> Vec<NodeId> {
        self.ids
            .iter()
            .copied()
            .filter(|id| self.sim.nat_type(*id).is_some_and(|t| !t.is_public()))
            .collect()
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
        let cfg = &self.builder.whisper;
        let key = KeyPair::generate(cfg.nylon.rsa, key_rng);
        let mut node = WhisperNode::new(cfg.clone(), key);
        node.nylon_mut()
            .set_bootstrap((0..self.builder.bootstraps as u64).map(NodeId).collect());
        let dist = NatDistribution::with_public_ratio(self.builder.public_ratio);
        let nat = dist.sample(self.sim.rng());
        let id = self.sim.add_node(Box::new(node), nat);
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
            .filter(|id| id.0 >= self.builder.bootstraps as u64 && !leaders.contains(id))
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
}
