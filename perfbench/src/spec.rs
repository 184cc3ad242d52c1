//! The five workloads: what each one runs and at what size.
//!
//! Every workload runs product defaults (`WhisperConfig::default()`,
//! Sim384 keys). The only inputs are the ones below plus the seed.

/// How a session picks the destination of each request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// One private-view peer chosen when the session opens and pinned
    /// with `make_persistent`: every request rides the same circuit.
    Pinned,
    /// Drawn uniformly from the private view for every request.
    RandomView,
}

/// One workload's inputs. Times are simulated seconds.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists and at what size it runs, in one line.
    pub why: &'static str,
    /// Population size, bootstraps included.
    pub nodes: usize,
    /// `true`: full WHISPER stacks with the load app; `false`: PSS only.
    pub full_stack: bool,
    /// PlanetLab latency/loss profile instead of the cluster profile.
    pub planetlab: bool,
    /// Distinct RSA keys, cycled over the population (`None`: one each).
    pub key_cycle: Option<usize>,
    /// Engine shards = worker threads = `min(nproc, 4)` instead of 1.
    pub multi_thread: bool,
    /// Private groups, led by the first P-nodes after the bootstraps.
    pub groups: usize,
    /// Groups each non-leader member joins (one session per group).
    pub groups_per_member: usize,
    /// Destination policy of every session.
    pub dest: Dest,
    /// Think time between a reply and the session's next request, ms.
    pub think_ms: u64,
    /// Request payload sizes, used round-robin; the reply echoes them.
    pub payloads: &'static [usize],
    /// Table I churn: every 60 s, 1 % of the nodes leave and as many join.
    pub churn: bool,
    /// PSS convergence before groups are formed.
    pub warm_s: u64,
    /// Private-view convergence after the joins.
    pub settle_s: u64,
    /// Load running before the counters are reset.
    pub ramp_s: u64,
    /// Length of one measured window.
    pub window_s: u64,
}

/// Number of windows whose simulated results are reported and hashed.
/// Windows after these only add host-time samples.
pub const PREFIX_WINDOWS: usize = 3;

/// A request unanswered this long has failed.
pub const DEADLINE_MS: u64 = 30_000;

/// Seconds between churn rounds (Table I script).
pub const CHURN_PERIOD_S: u64 = 60;

const GOSSIP: Spec = Spec {
    name: "gossip_scale",
    why: "20000 PSS-only nodes, 1 shard, warm 60 s, 10 s windows: engine, scheduler, Nylon and wire codec do all the work, WCL/PPSS/crypto none",
    nodes: 20_000,
    full_stack: false,
    planetlab: false,
    key_cycle: Some(256),
    multi_thread: false,
    groups: 0,
    groups_per_member: 0,
    dest: Dest::Pinned,
    think_ms: 0,
    payloads: &[],
    churn: false,
    warm_s: 60,
    settle_s: 0,
    ramp_s: 0,
    window_s: 10,
};

const PRIVATE: Spec = Spec {
    name: "circuit_steady",
    why: "1000 full stacks, 20 groups, one pinned session each, think 100 ms, 32/256/1024 B echo, 2 s windows: circuit fast path, AES seal/peel, relay forwarding; RSA under 2 %",
    nodes: 1000,
    full_stack: true,
    planetlab: false,
    key_cycle: None,
    multi_thread: false,
    groups: 20,
    groups_per_member: 1,
    dest: Dest::Pinned,
    think_ms: 100,
    payloads: &[32, 256, 1024],
    churn: false,
    warm_s: 100,
    settle_s: 70,
    ramp_s: 2,
    window_s: 2,
};

/// The workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Spec> {
    vec![
        GOSSIP,
        Spec {
            name: "gossip_scale_mt",
            why: "gossip_scale's inputs on min(nproc,4) shards and threads: times the worker pool on more than one core; its sim_digest must equal gossip_scale's",
            multi_thread: true,
            ..GOSSIP
        },
        PRIVATE,
        Spec {
            name: "onion_cold",
            why: "250 full stacks, 5 groups, 4 groups and sessions per member, random view peer, think 40 s, 256 B, 40 s windows: revisits outlive the route cache, so most sends build an RSA onion",
            nodes: 250,
            groups: 5,
            groups_per_member: 4,
            dest: Dest::RandomView,
            think_ms: 40_000,
            payloads: &[256],
            ramp_s: 40,
            window_s: 40,
            ..PRIVATE
        },
        Spec {
            name: "churn_planetlab",
            why: "400 full stacks on the PlanetLab profile, 8 groups, random view peer, think 2 s, 256 B, 1 %/min churn with replacement, 60 s windows: retries, alternative routes, rebuilds",
            nodes: 400,
            planetlab: true,
            groups: 8,
            dest: Dest::RandomView,
            think_ms: 2000,
            payloads: &[256],
            churn: true,
            ramp_s: 60,
            window_s: 60,
            ..PRIVATE
        },
    ]
}

impl Spec {
    /// The same workload shrunk for `--smoke`: every code path, schema
    /// and check, no reportable numbers.
    pub fn smoke(&self) -> Spec {
        let nodes = if self.full_stack { 150 } else { 2000 };
        Spec {
            nodes,
            groups: self.groups.min(4),
            warm_s: self.warm_s.min(40),
            settle_s: self.settle_s.min(65),
            ramp_s: if self.churn { CHURN_PERIOD_S } else { self.ramp_s.min(20) },
            window_s: if self.churn { CHURN_PERIOD_S } else { self.window_s.min(10) },
            ..self.clone()
        }
    }

    /// Engine shards (and worker threads) this workload runs on.
    pub fn shards(&self) -> usize {
        if self.multi_thread {
            crate::host::nproc().min(4)
        } else {
            1
        }
    }
}
