//! Deterministic fault injection.
//!
//! A [`FaultPlan`] scripts failures against a running [`crate::sim::Sim`]:
//! network partitions, Gilbert–Elliott burst loss, latency spikes,
//! crash-and-restart of individual nodes, and NAT rebinding. The plan is
//! *data*, not callbacks — the engine interprets it at well-defined points
//! (send time, delivery time, and scripted instants routed through the
//! ordinary event queue), and every probabilistic decision draws from the
//! sending node's link RNG stream. Two runs with the same seed and the
//! same plan therefore produce byte-identical traces — for any shard
//! count — which is what makes chaos scenarios regression-testable (see
//! `tests/chaos.rs` and DESIGN.md §11–12).
//!
//! Every packet a fault kills is attributed to a named metric counter
//! (`net.drop_partition`, `net.lost_burst`, `net.drop_crashed`, …); the
//! chaos suite asserts that the sum of those counters plus deliveries
//! plus in-flight messages equals the number of sends — no silent loss.

use crate::id::NodeId;
use crate::time::SimTime;
use std::collections::BTreeSet;
use whisper_rand::rngs::StdRng;
use whisper_rand::Rng;

/// Per-packet probability that a sender's Gilbert–Elliott chain enters
/// the bad (bursty) state.
const P_GOOD_TO_BAD: f64 = 0.02;
/// Per-packet probability that the chain leaves the bad state: bursts
/// last ~4 packets on average.
const P_BAD_TO_GOOD: f64 = 0.25;
/// Loss probability in the bad state; the good state loses nothing. Mean
/// loss over a long window is ≈ `P_GOOD_TO_BAD / (P_GOOD_TO_BAD +
/// P_BAD_TO_GOOD) · LOSS_BAD` ≈ 4%.
const LOSS_BAD: f64 = 0.6;
/// Multiplier on every sampled one-way delay while a latency spike is
/// active: a path's tens of milliseconds become hundreds.
const SPIKE_FACTOR: u64 = 10;

/// Steps a two-state Markov (Gilbert–Elliott) burst-loss chain once for
/// one packet; returns whether it is lost.
///
/// Each **sending node** runs its own chain (modelling a bursty uplink),
/// stepped once per packet that node sends while the fault window is
/// active: first the state may flip (good ↔ bad), then the packet is lost
/// with the state's loss probability. The chain draws from the sender's
/// link RNG stream, so its trajectory is a pure function of
/// `(seed, sender)` — independent of how nodes are partitioned across
/// simulator shards.
fn burst_step(bad: &mut bool, rng: &mut StdRng) -> bool {
    if rng.gen_bool(if *bad { P_BAD_TO_GOOD } else { P_GOOD_TO_BAD }) {
        *bad = !*bad;
    }
    *bad && rng.gen_bool(LOSS_BAD)
}

/// One scripted failure.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Bisects the network: while active, any packet whose sender and
    /// receiver are on opposite sides of `island` is dropped (counted as
    /// `net.drop_partition`). Heals at `heal_at`.
    Partition {
        /// One side of the bisection; everything else is the other side.
        island: BTreeSet<NodeId>,
        /// When the partition appears.
        from: SimTime,
        /// When it heals.
        heal_at: SimTime,
    },
    /// Applies a Gilbert–Elliott burst-loss chain per sender to every
    /// packet sent while the window `[from, to)` is active (drops counted
    /// as `net.lost_burst`).
    BurstLoss {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// Multiplies every sampled one-way delay by 10 while the window
    /// `[from, to)` is active (counted as `net.delay_spiked`).
    LatencySpike {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// Crashes `node` at `at` and restarts it at `restart_at`. While down
    /// the node receives nothing (`net.drop_crashed`), its timers are
    /// deferred to the restart instant, and its NAT bindings are wiped.
    /// On restart the engine invokes
    /// [`crate::sim::Protocol::on_crash_restart`] so the protocol can
    /// model volatile-state loss.
    CrashRestart {
        /// The node that crashes.
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Restart instant (must be ≥ `at`).
        restart_at: SimTime,
    },
    /// Replaces `node`'s NAT device with a fresh one of the same type at
    /// `at`: every mapping and association rule vanishes, exactly like a
    /// consumer NAT rebooting (counted as `net.fault_nat_rebind`).
    NatRebind {
        /// The node whose NAT reboots.
        node: NodeId,
        /// Rebind instant.
        at: SimTime,
    },
}

/// An ordered script of [`Fault`]s, installed into a sim with
/// [`crate::sim::Sim::install_fault_plan`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The scripted faults, in installation order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a partition of `island` vs. the rest over `[from, heal_at)`.
    pub fn partition(
        mut self,
        island: impl IntoIterator<Item = NodeId>,
        from: SimTime,
        heal_at: SimTime,
    ) -> Self {
        self.faults.push(Fault::Partition {
            island: island.into_iter().collect(),
            from,
            heal_at,
        });
        self
    }

    /// Adds a burst-loss window.
    pub fn burst_loss(mut self, from: SimTime, to: SimTime) -> Self {
        self.faults.push(Fault::BurstLoss { from, to });
        self
    }

    /// Adds a latency-spike window.
    pub fn latency_spike(mut self, from: SimTime, to: SimTime) -> Self {
        self.faults.push(Fault::LatencySpike { from, to });
        self
    }

    /// Adds a crash-and-restart of `node`.
    pub fn crash_restart(mut self, node: NodeId, at: SimTime, restart_at: SimTime) -> Self {
        assert!(restart_at >= at, "restart_at must not precede the crash");
        self.faults.push(Fault::CrashRestart { node, at, restart_at });
        self
    }

    /// Adds a NAT rebind of `node`.
    pub fn nat_rebind(mut self, node: NodeId, at: SimTime) -> Self {
        self.faults.push(Fault::NatRebind { node, at });
        self
    }
}

/// Engine-side runtime state for installed faults. Owned by the sim and
/// shared read-only across shards; methods are called from the
/// send/deliver paths. Mutable per-sender chain state (the Gilbert–Elliott
/// `bad` flags) lives in the per-node arena slots, not here, so shards
/// never contend on it.
#[derive(Clone, Debug, Default)]
pub(crate) struct FaultState {
    faults: Vec<Fault>,
}

impl FaultState {
    /// Appends a plan's faults (point-in-time actions are scheduled by the
    /// sim separately, through the event queue).
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.faults.extend(plan.faults);
    }

    /// Whether an active partition separates `a` from `b`.
    pub(crate) fn partition_blocks(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::Partition { island, from, heal_at } => {
                now >= *from && now < *heal_at && island.contains(&a) != island.contains(&b)
            }
            _ => false,
        })
    }

    /// Steps every active burst-loss chain of one sender once; returns
    /// whether any of them drops this packet. `ge_bad` is the sender's
    /// per-fault chain state (indexed like `faults`, grown lazily) and
    /// `rng` the sender's link RNG — both are shard-local, so traces are
    /// independent of shard count, and no draw happens outside an active
    /// window, so traces outside fault windows are unchanged.
    pub(crate) fn burst_drop(
        &self,
        now: SimTime,
        ge_bad: &mut Vec<bool>,
        rng: &mut StdRng,
    ) -> bool {
        let mut dropped = false;
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::BurstLoss { from, to } = f {
                if now >= *from && now < *to {
                    if ge_bad.len() <= i {
                        ge_bad.resize(i + 1, false);
                    }
                    if burst_step(&mut ge_bad[i], rng) {
                        dropped = true;
                    }
                }
            }
        }
        dropped
    }

    /// The delay multiplier currently in force: [`SPIKE_FACTOR`] while
    /// any spike is active, however many overlap, and 1 otherwise.
    pub(crate) fn delay_factor(&self, now: SimTime) -> u64 {
        let spiking = self.faults.iter().any(
            |f| matches!(f, Fault::LatencySpike { from, to } if now >= *from && now < *to),
        );
        if spiking {
            SPIKE_FACTOR
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::SeedableRng;

    #[test]
    fn partition_blocks_only_across_the_cut() {
        let mut fs = FaultState::default();
        fs.install(FaultPlan::new().partition(
            [NodeId(1), NodeId(2)],
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        ));
        let mid = SimTime::from_micros(15);
        assert!(fs.partition_blocks(mid, NodeId(1), NodeId(3)));
        assert!(fs.partition_blocks(mid, NodeId(3), NodeId(2)));
        assert!(!fs.partition_blocks(mid, NodeId(1), NodeId(2)), "same island");
        assert!(!fs.partition_blocks(mid, NodeId(3), NodeId(4)), "same island");
        assert!(!fs.partition_blocks(SimTime::from_micros(5), NodeId(1), NodeId(3)));
        assert!(
            !fs.partition_blocks(SimTime::from_micros(20), NodeId(1), NodeId(3)),
            "heals at heal_at"
        );
    }

    #[test]
    fn burst_chain_is_deterministic_and_window_scoped() {
        let run = |seed| {
            let mut fs = FaultState::default();
            fs.install(FaultPlan::new().burst_loss(SimTime::from_micros(0), SimTime::from_micros(100)));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ge_bad = Vec::new();
            (0..200u64)
                .map(|i| fs.burst_drop(SimTime::from_micros(i), &mut ge_bad, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same drop pattern");
        assert!(a[..100].iter().any(|&d| d), "the chain drops something");
        assert!(a[100..].iter().all(|&d| !d), "no drops outside the window");
    }

    #[test]
    fn burst_losses_cluster() {
        // The point of Gilbert–Elliott: losses arrive in runs, not
        // independently. Count adjacent drop pairs and compare with what
        // independent losses at the same rate would produce.
        let mut fs = FaultState::default();
        fs.install(FaultPlan::new().burst_loss(SimTime::ZERO, SimTime::from_micros(100_000)));
        let mut rng = StdRng::seed_from_u64(7);
        let mut ge_bad = Vec::new();
        let drops: Vec<bool> = (0..50_000u64)
            .map(|i| fs.burst_drop(SimTime::from_micros(i), &mut ge_bad, &mut rng))
            .collect();
        let total = drops.iter().filter(|&&d| d).count() as f64;
        let pairs = drops.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let rate = total / drops.len() as f64;
        // Independent losses: P(pair) = rate²; bursty losses do far better.
        let independent_pairs = rate * rate * drops.len() as f64;
        assert!(
            pairs > 3.0 * independent_pairs,
            "losses do not cluster: {pairs} adjacent pairs vs {independent_pairs:.1} expected if independent"
        );
    }

    #[test]
    fn overlapping_spikes_multiply_once() {
        let mut fs = FaultState::default();
        fs.install(
            FaultPlan::new()
                .latency_spike(SimTime::from_micros(0), SimTime::from_micros(100))
                .latency_spike(SimTime::from_micros(50), SimTime::from_micros(150)),
        );
        assert_eq!(fs.delay_factor(SimTime::from_micros(10)), SPIKE_FACTOR);
        assert_eq!(fs.delay_factor(SimTime::from_micros(75)), SPIKE_FACTOR, "two active, once");
        assert_eq!(fs.delay_factor(SimTime::from_micros(120)), SPIKE_FACTOR);
        assert_eq!(fs.delay_factor(SimTime::from_micros(150)), 1, "ends at `to`");
        assert_eq!(fs.delay_factor(SimTime::from_micros(200)), 1);
    }

    #[test]
    #[should_panic(expected = "restart_at must not precede")]
    fn crash_restart_validates_order() {
        let _ = FaultPlan::new().crash_restart(
            NodeId(1),
            SimTime::from_micros(10),
            SimTime::from_micros(5),
        );
    }
}
