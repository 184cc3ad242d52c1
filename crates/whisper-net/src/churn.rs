//! Churn scripting in the shape of the SPLAY churn module's scripts.
//!
//! The paper's Table I script (printed under the table) is:
//!
//! ```text
//! from 0s to 30s join 1000
//! at 300s set replacement ratio to 100%
//! from 300s to 1200s const churn X% each 60s
//! at 1200s stop
//! ```
//!
//! [`ChurnScript`] expresses that family of scripts; [`run_with_churn`]
//! executes one against a [`Sim`], creating nodes through a caller-provided
//! factory and killing uniformly random victims; the PSS churn tests
//! drive it. Table I does not: its replacement nodes must join a private
//! group and its leaders must survive, so `whisper-bench` runs the
//! script's churn phase in `WhisperNet::churn`.

use crate::id::NodeId;
use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use whisper_rand::Rng;

/// One scripted churn phase.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnPhase {
    /// Join `count` nodes spread uniformly over `[from, to]`.
    RampJoin {
        /// Phase start.
        from: SimTime,
        /// Phase end.
        to: SimTime,
        /// Number of nodes to join.
        count: usize,
    },
    /// Every `interval` within `[from, to)`, kill `fraction` of the
    /// current population and join `fraction * replacement_ratio` new
    /// nodes.
    ConstChurn {
        /// Phase start.
        from: SimTime,
        /// Phase end (exclusive).
        to: SimTime,
        /// Fraction of the population churned per interval (e.g. `0.01`
        /// for 1%).
        fraction: f64,
        /// Interval between churn rounds.
        interval: SimDuration,
        /// How many joins per leave (1.0 keeps the population stable).
        replacement_ratio: f64,
    },
}

/// A churn script: an ordered list of phases and a stop time.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnScript {
    /// The scripted phases.
    pub phases: Vec<ChurnPhase>,
    /// When the run ends.
    pub stop_at: SimTime,
}

impl ChurnScript {
    /// All times at which the driver must act, sorted and deduplicated.
    pub fn ticks(&self) -> Vec<SimTime> {
        let mut ticks = Vec::new();
        for phase in &self.phases {
            match *phase {
                ChurnPhase::RampJoin { from, to, count } => {
                    // One tick per joining node, spread uniformly.
                    let span = to.since(from).as_micros();
                    for i in 0..count {
                        let off = if count > 1 {
                            span * i as u64 / (count as u64 - 1)
                        } else {
                            0
                        };
                        ticks.push(from + SimDuration::from_micros(off));
                    }
                }
                ChurnPhase::ConstChurn { from, to, interval, .. } => {
                    let mut t = from;
                    while t < to {
                        ticks.push(t);
                        t += interval;
                    }
                }
            }
        }
        ticks.push(self.stop_at);
        ticks.sort_unstable();
        ticks.dedup();
        ticks
    }

    /// The action scheduled at time `t` given the current population.
    pub fn action_at(&self, t: SimTime, population: usize) -> ChurnAction {
        let mut action = ChurnAction::default();
        for phase in &self.phases {
            match *phase {
                ChurnPhase::RampJoin { from, to, count } => {
                    let span = to.since(from).as_micros();
                    for i in 0..count {
                        let off = if count > 1 {
                            span * i as u64 / (count as u64 - 1)
                        } else {
                            0
                        };
                        if from + SimDuration::from_micros(off) == t {
                            action.join += 1;
                        }
                    }
                }
                ChurnPhase::ConstChurn { from, to, fraction, interval, replacement_ratio } => {
                    if t >= from && t < to {
                        let since = t.since(from).as_micros();
                        if since.is_multiple_of(interval.as_micros()) {
                            let leave = (population as f64 * fraction).round() as usize;
                            action.leave += leave;
                            action.join += (leave as f64 * replacement_ratio).round() as usize;
                        }
                    }
                }
            }
        }
        action
    }
}

/// Joins and leaves to apply at one tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnAction {
    /// Nodes to add.
    pub join: usize,
    /// Nodes to remove.
    pub leave: usize,
}

/// Runs `sim` under `script`.
///
/// * `factory` is called for every join; it must add one node to the
///   simulation (choosing protocol stack and NAT type) and return its id.
/// * `protected` nodes are never selected as churn victims (e.g. the
///   bootstrap node).
/// * `on_tick` is invoked after each tick has been applied, letting the
///   harness snapshot metrics mid-run.
pub fn run_with_churn(
    sim: &mut Sim,
    script: &ChurnScript,
    mut factory: impl FnMut(&mut Sim) -> NodeId,
    protected: &[NodeId],
    mut on_tick: impl FnMut(&mut Sim, SimTime),
) {
    for tick in script.ticks() {
        sim.run_until(tick);
        let action = script.action_at(tick, sim.len());
        // Kills first, then joins — a replacement never replaces itself.
        for _ in 0..action.leave {
            let candidates: Vec<NodeId> = sim
                .node_ids()
                .into_iter()
                .filter(|id| !protected.contains(id))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let victim = candidates[sim.rng().gen_range(0..candidates.len())];
            sim.remove_node(victim);
        }
        for _ in 0..action.join {
            factory(sim);
        }
        on_tick(sim, tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::NatType;
    use crate::sim::{Ctx, Protocol, SimConfig};
    use crate::Endpoint;

    struct Noop;
    impl Protocol for Noop {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &crate::Payload) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn ramp_join_reaches_target_population() {
        let mut sim = Sim::new(SimConfig::ideal(1));
        let script = ChurnScript {
            phases: vec![ChurnPhase::RampJoin {
                from: SimTime::ZERO,
                to: SimTime::from_micros(10_000_000),
                count: 50,
            }],
            stop_at: SimTime::from_micros(20_000_000),
        };
        run_with_churn(
            &mut sim,
            &script,
            |sim| sim.add_node(Box::new(Noop), NatType::Public),
            &[],
            |_, _| {},
        );
        assert_eq!(sim.len(), 50);
    }

    #[test]
    fn const_churn_keeps_population_stable_with_full_replacement() {
        let mut sim = Sim::new(SimConfig::ideal(2));
        for _ in 0..100 {
            sim.add_node(Box::new(Noop), NatType::Public);
        }
        let script = ChurnScript {
            phases: vec![ChurnPhase::ConstChurn {
                from: SimTime::ZERO,
                to: SimTime::from_micros(300_000_000),
                fraction: 0.05,
                interval: SimDuration::from_secs(60),
                replacement_ratio: 1.0,
            }],
            stop_at: SimTime::from_micros(300_000_000),
        };
        let mut ticks = 0;
        run_with_churn(
            &mut sim,
            &script,
            |sim| sim.add_node(Box::new(Noop), NatType::Public),
            &[],
            |sim, _| {
                ticks += 1;
                assert_eq!(sim.len(), 100);
            },
        );
        assert_eq!(ticks, 6); // t = 0, 60, ..., 300 (stop tick included)
    }

    #[test]
    fn population_shrinks_without_replacement() {
        let mut sim = Sim::new(SimConfig::ideal(3));
        for _ in 0..100 {
            sim.add_node(Box::new(Noop), NatType::Public);
        }
        let script = ChurnScript {
            phases: vec![ChurnPhase::ConstChurn {
                from: SimTime::ZERO,
                to: SimTime::from_micros(120_000_000),
                fraction: 0.10,
                interval: SimDuration::from_secs(60),
                replacement_ratio: 0.0,
            }],
            stop_at: SimTime::from_micros(120_000_000),
        };
        run_with_churn(
            &mut sim,
            &script,
            |sim| sim.add_node(Box::new(Noop), NatType::Public),
            &[],
            |_, _| {},
        );
        assert_eq!(sim.len(), 81); // 100 → 90 → 81
    }

    #[test]
    fn protected_nodes_survive() {
        let mut sim = Sim::new(SimConfig::ideal(4));
        let bootstrap = sim.add_node(Box::new(Noop), NatType::Public);
        for _ in 0..20 {
            sim.add_node(Box::new(Noop), NatType::Public);
        }
        let script = ChurnScript {
            phases: vec![ChurnPhase::ConstChurn {
                from: SimTime::ZERO,
                to: SimTime::from_micros(600_000_000),
                fraction: 0.5,
                interval: SimDuration::from_secs(60),
                replacement_ratio: 0.0,
            }],
            stop_at: SimTime::from_micros(600_000_000),
        };
        run_with_churn(
            &mut sim,
            &script,
            |sim| sim.add_node(Box::new(Noop), NatType::Public),
            &[bootstrap],
            |_, _| {},
        );
        assert!(sim.contains(bootstrap));
    }
}
