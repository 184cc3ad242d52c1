//! Measurement plumbing: per-node traffic accounting and generic named
//! counters / sample series.
//!
//! The simulator credits every sent and delivered message automatically
//! (including an IP+UDP header overhead, so "bandwidth" means what a host
//! would see on its uplink). Protocols additionally record their own
//! counters (e.g. WCL route successes) and sample series (e.g. RSA CPU
//! time per operation) through [`Metrics`].

use crate::id::NodeId;
use std::collections::BTreeMap;

/// Bytes of IP + UDP headers charged to every message.
pub const HEADER_OVERHEAD: usize = 28;

/// Cumulative traffic of one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes sent (uplink), headers included.
    pub up_bytes: u64,
    /// Bytes received (downlink), headers included.
    pub down_bytes: u64,
    /// Messages sent.
    pub up_msgs: u64,
    /// Messages delivered.
    pub down_msgs: u64,
}

/// Canonical event key used to order sample series across shards:
/// `(time in µs, source class/id, per-source sequence number)`. Every
/// event the sharded engine dispatches carries one, and keys compare the
/// same way regardless of how nodes are partitioned.
pub(crate) type SampleTag = (u64, u64, u64);

/// Metric sink shared by the simulator and all protocols.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-series event tags, parallel to `samples`, populated only while
    /// the engine has a current-event tag set. Used to merge per-shard
    /// sample series back into the canonical global order.
    tags: BTreeMap<&'static str, Vec<SampleTag>>,
    /// Tag stamped on every sample recorded until the next `set_tag`.
    cur_tag: Option<SampleTag>,
    traffic: BTreeMap<NodeId, Traffic>,
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments counter `name` by `delta`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Appends a sample to series `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
        if let Some(tag) = self.cur_tag {
            self.tags.entry(name).or_default().push(tag);
        }
    }

    /// Sets (or clears) the event tag stamped on subsequent samples.
    ///
    /// The engine sets this to the current event's canonical key before
    /// invoking a protocol callback and clears it at window boundaries;
    /// harness-time samples (no tag) are appended directly to the master
    /// sink and never merged.
    pub(crate) fn set_tag(&mut self, tag: Option<SampleTag>) {
        self.cur_tag = tag;
    }

    /// Folds per-shard delta sinks into `self`.
    ///
    /// Counters and traffic merge by addition. Sample series are merged by
    /// their event tags: within one shard samples were recorded in
    /// nondecreasing tag order (shards process events in canonical key
    /// order), so a k-way merge reproduces exactly the series a 1-shard
    /// run would have recorded. Tags never collide across shards because
    /// each event key contains its source id.
    pub(crate) fn merge_shard_deltas(&mut self, deltas: Vec<Metrics>) {
        for d in &deltas {
            for (&name, &v) in &d.counters {
                *self.counters.entry(name).or_insert(0) += v;
            }
            for (&node, &t) in &d.traffic {
                self.add_traffic(node, t);
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for d in &deltas {
            for &name in d.samples.keys() {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        for name in names {
            // One (tags, values, cursor) run per shard that touched the
            // series; repeatedly emit the run with the smallest head tag.
            let mut runs: Vec<(&[SampleTag], &[f64], usize)> = deltas
                .iter()
                .filter_map(|d| {
                    let vals = d.samples.get(name)?;
                    let tags = d.tags.get(name).map(Vec::as_slice).unwrap_or(&[]);
                    debug_assert_eq!(
                        tags.len(),
                        vals.len(),
                        "shard-delta series {name} must be fully tagged"
                    );
                    Some((tags, vals.as_slice(), 0usize))
                })
                .collect();
            let out = self.samples.entry(name).or_default();
            loop {
                let mut best: Option<usize> = None;
                for (i, (tags, _, cur)) in runs.iter().enumerate() {
                    if *cur < tags.len()
                        && best.is_none_or(|b| tags[*cur] < runs[b].0[runs[b].2])
                    {
                        best = Some(i);
                    }
                }
                let Some(i) = best else { break };
                let (_, vals, cur) = &mut runs[i];
                out.push(vals[*cur]);
                *cur += 1;
            }
        }
    }

    /// All samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Names of all counters, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.counters.keys().copied()
    }

    /// Names of all sample series, sorted.
    pub fn sample_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.samples.keys().copied()
    }

    /// Adds a whole [`Traffic`] delta to `node` (used by the engine to
    /// fold dense per-shard traffic arrays into the sink).
    pub(crate) fn add_traffic(&mut self, node: NodeId, t: Traffic) {
        let e = self.traffic.entry(node).or_default();
        e.up_bytes += t.up_bytes;
        e.down_bytes += t.down_bytes;
        e.up_msgs += t.up_msgs;
        e.down_msgs += t.down_msgs;
    }

    /// Cumulative traffic of `node`.
    pub fn traffic(&self, node: NodeId) -> Traffic {
        self.traffic.get(&node).copied().unwrap_or_default()
    }

    /// Snapshot of every node's cumulative traffic; diff two snapshots to
    /// get per-epoch bandwidth.
    pub fn traffic_snapshot(&self) -> BTreeMap<NodeId, Traffic> {
        self.traffic.clone()
    }

    /// Resets counters and samples but keeps traffic (useful between
    /// warm-up and measurement phases).
    pub fn reset_counters_and_samples(&mut self) {
        self.counters.clear();
        self.samples.clear();
        self.tags.clear();
    }
}

/// Difference in traffic between two snapshots, per node.
pub fn traffic_delta(
    before: &BTreeMap<NodeId, Traffic>,
    after: &BTreeMap<NodeId, Traffic>,
) -> BTreeMap<NodeId, Traffic> {
    let mut out = BTreeMap::new();
    for (&node, &t_after) in after {
        let t_before = before.get(&node).copied().unwrap_or_default();
        out.insert(
            node,
            Traffic {
                up_bytes: t_after.up_bytes - t_before.up_bytes,
                down_bytes: t_after.down_bytes - t_before.down_bytes,
                up_msgs: t_after.up_msgs - t_before.up_msgs,
                down_msgs: t_after.down_msgs - t_before.down_msgs,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count("x", 2);
        m.count("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("unknown"), 0);
    }

    #[test]
    fn samples_accumulate() {
        let mut m = Metrics::new();
        m.sample("rtt", 1.0);
        m.sample("rtt", 2.5);
        assert_eq!(m.samples("rtt"), &[1.0, 2.5]);
        assert!(m.samples("other").is_empty());
    }

    fn up(bytes: u64) -> Traffic {
        Traffic { up_bytes: bytes, up_msgs: 1, ..Traffic::default() }
    }

    #[test]
    fn traffic_deltas_add_up_per_node() {
        let mut m = Metrics::new();
        let n = NodeId(1);
        m.add_traffic(n, up(128));
        m.add_traffic(n, Traffic { down_bytes: 78, down_msgs: 1, ..Traffic::default() });
        m.add_traffic(n, up(40));
        assert_eq!(
            m.traffic(n),
            Traffic { up_bytes: 168, down_bytes: 78, up_msgs: 2, down_msgs: 1 }
        );
        assert_eq!(m.traffic(NodeId(2)), Traffic::default());
    }

    #[test]
    fn snapshot_delta() {
        let mut m = Metrics::new();
        let n = NodeId(1);
        m.add_traffic(n, up(128));
        let before = m.traffic_snapshot();
        m.add_traffic(n, up(228));
        m.add_traffic(NodeId(2), Traffic { down_bytes: 38, down_msgs: 1, ..Traffic::default() });
        let after = m.traffic_snapshot();
        let delta = traffic_delta(&before, &after);
        assert_eq!(delta[&n].up_bytes, 228);
        assert_eq!(delta[&n].up_msgs, 1);
        assert_eq!(delta[&NodeId(2)].down_msgs, 1);
    }

    #[test]
    fn reset_keeps_traffic() {
        let mut m = Metrics::new();
        m.count("c", 1);
        m.sample("s", 1.0);
        m.add_traffic(NodeId(1), up(38));
        m.reset_counters_and_samples();
        assert_eq!(m.counter("c"), 0);
        assert!(m.samples("s").is_empty());
        assert_eq!(m.traffic(NodeId(1)).up_msgs, 1);
    }
}
