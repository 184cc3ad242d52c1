//! Measurement plumbing: per-node traffic accounting and generic named
//! counters / sample series.
//!
//! The simulator credits every sent and delivered message automatically
//! (including an IP+UDP header overhead, so "bandwidth" means what a host
//! would see on its uplink). Protocols additionally record their own
//! counters (e.g. WCL route successes) and sample series (e.g. RSA CPU
//! time per operation) through [`Metrics`].
//!
//! # Sinks keep their memory
//!
//! A sink is written all the time and emptied often — a shard's delta
//! sink at the end of every run, the master sink whenever a harness
//! resets it between phases — so emptying one frees nothing: a counter
//! slot stays in its tree as "not counted since", a series keeps its
//! capacity as "no values since", and both read exactly as if they had
//! been removed ([`Metrics::counter_names`] and [`Metrics::sample_names`]
//! list what was recorded since the last reset, nothing else). A steady
//! run therefore records and hands over its samples without allocating.

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

/// One sample series. Empty means not sampled since the last reset.
#[derive(Debug, Default)]
struct Series {
    values: Vec<f64>,
    /// The event tag of each value, populated only while the engine has a
    /// current-event tag set — in the shard sinks of a run on more than
    /// one shard, where the tags merge the per-shard series back into the
    /// canonical global order. Empty everywhere else.
    tags: Vec<SampleTag>,
}

/// Metric sink shared by the simulator and all protocols.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `None`: not counted since the last reset.
    counters: BTreeMap<&'static str, Option<u64>>,
    samples: BTreeMap<&'static str, Series>,
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
        *self.counters.entry(name).or_default().get_or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().flatten().unwrap_or(0)
    }

    /// Appends a sample to series `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        let series = self.samples.entry(name).or_default();
        series.values.push(value);
        if let Some(tag) = self.cur_tag {
            series.tags.push(tag);
        }
    }

    /// Sets (or clears) the event tag stamped on subsequent samples.
    ///
    /// On more than one shard the engine sets this to the current event's
    /// canonical key before invoking a protocol callback and clears it at
    /// window boundaries. A single shard records its events in canonical
    /// order already and never tags; harness-time samples (no tag) are
    /// appended directly to the master sink and never merged.
    pub(crate) fn set_tag(&mut self, tag: Option<SampleTag>) {
        self.cur_tag = tag;
    }

    /// Moves the counters of `delta` into `self`.
    fn take_counters(&mut self, delta: &mut Metrics) {
        for (&name, slot) in &mut delta.counters {
            if let Some(v) = slot.take() {
                self.count(name, v);
            }
        }
    }

    /// Folds the delta sink of a single-shard run into `self` and leaves
    /// it empty. Counters merge by addition; every series was recorded in
    /// canonical event order, so it is appended as it is — or, where
    /// `self` holds nothing of that series, exchanged for the empty one,
    /// which moves no sample at all.
    pub(crate) fn append_shard_delta(&mut self, delta: &mut Metrics) {
        self.take_counters(delta);
        for (&name, run) in &mut delta.samples {
            debug_assert!(run.tags.is_empty(), "a single shard does not tag {name}");
            if run.values.is_empty() {
                continue;
            }
            let out = &mut self.samples.entry(name).or_default().values;
            if out.is_empty() {
                std::mem::swap(out, &mut run.values);
            } else {
                out.extend_from_slice(&run.values);
                run.values.clear();
            }
        }
    }

    /// Folds per-shard delta sinks into `self` and leaves them empty.
    ///
    /// Counters merge by addition. Sample series are merged by
    /// their event tags: within one shard samples were recorded in
    /// nondecreasing tag order (shards process events in canonical key
    /// order), so a k-way merge reproduces exactly the series a 1-shard
    /// run would have recorded. Tags never collide across shards because
    /// each event key contains its source id.
    pub(crate) fn merge_shard_deltas(&mut self, deltas: &mut [&mut Metrics]) {
        for d in deltas.iter_mut() {
            self.take_counters(d);
        }
        let mut names: Vec<&'static str> = Vec::new();
        for d in deltas.iter() {
            for (&name, run) in &d.samples {
                if !run.values.is_empty() && !names.contains(&name) {
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
                    let run = d.samples.get(name)?;
                    debug_assert_eq!(
                        run.tags.len(),
                        run.values.len(),
                        "shard-delta series {name} must be fully tagged"
                    );
                    Some((run.tags.as_slice(), run.values.as_slice(), 0usize))
                })
                .collect();
            let out = &mut self.samples.entry(name).or_default().values;
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
        for d in deltas.iter_mut() {
            d.clear_samples();
        }
    }

    /// Empties every series, keeping its capacity.
    fn clear_samples(&mut self) {
        for series in self.samples.values_mut() {
            series.values.clear();
            series.tags.clear();
        }
    }

    /// All samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |series| &series.values)
    }

    /// Names of all counters, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.counters.iter().filter(|(_, slot)| slot.is_some()).map(|(&name, _)| name)
    }

    /// Names of all sample series, sorted.
    pub fn sample_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.samples.iter().filter(|(_, series)| !series.values.is_empty()).map(|(&name, _)| name)
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

    /// Every deterministic observable of this sink, serialized: all
    /// counters and sample series, then per-node traffic — except the
    /// families of host-side measurements, which legitimately differ
    /// between two runs of one simulation: the `net.pool_*` counters
    /// (which shard's pool served a buffer depends on the shard layout),
    /// the `prof.*` counters (wall-clock profiler buckets) and the
    /// `*_wall_us` series (wall-clock samples). Two runs of the same
    /// simulation — any shard count, thread policy, scheduler or profiler
    /// setting, and a fixed pooling mode — must produce equal traces; this
    /// is the one definition of what that comparison exempts. Callers
    /// append what else they compare (the final clock, protocol state).
    pub fn deterministic_trace(&self) -> Vec<u8> {
        let host_side = |name: &&str| {
            name.starts_with("net.pool_") || name.starts_with("prof.") || name.ends_with("_wall_us")
        };
        let mut out = Vec::new();
        for name in self.counter_names().filter(|n| !host_side(n)) {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&self.counter(name).to_le_bytes());
        }
        for name in self.sample_names().filter(|n| !host_side(n)) {
            out.extend_from_slice(name.as_bytes());
            out.extend(self.samples(name).iter().flat_map(|v| v.to_le_bytes()));
        }
        for (node, t) in &self.traffic {
            let row = [node.0, t.up_msgs, t.down_msgs, t.up_bytes, t.down_bytes];
            out.extend(row.iter().flat_map(|v| v.to_le_bytes()));
        }
        out
    }

    /// Resets counters and samples but keeps traffic (useful between
    /// warm-up and measurement phases). Nothing recorded before is
    /// readable afterwards, by value or by name.
    pub fn reset_counters_and_samples(&mut self) {
        for slot in self.counters.values_mut() {
            *slot = None;
        }
        self.clear_samples();
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

    fn names(m: &Metrics) -> (Vec<&'static str>, Vec<&'static str>) {
        (m.counter_names().collect(), m.sample_names().collect())
    }

    /// A reset sink keeps its slots but shows none of them: names come
    /// back one by one, as each is recorded again.
    #[test]
    fn reset_hides_every_name_until_it_is_recorded_again() {
        let mut m = Metrics::new();
        m.count("c.one", 1);
        m.count("c.zero", 0);
        m.sample("s.one", 1.0);
        m.sample("s.two", 2.0);
        assert_eq!(names(&m), (vec!["c.one", "c.zero"], vec!["s.one", "s.two"]));
        m.reset_counters_and_samples();
        assert_eq!(names(&m), (vec![], vec![]));
        m.count("c.zero", 0);
        m.sample("s.two", 3.0);
        assert_eq!(names(&m), (vec!["c.zero"], vec!["s.two"]), "a zero count is a count");
        assert_eq!(m.counter("c.one"), 0);
        assert!(m.samples("s.one").is_empty());
        assert_eq!(m.samples("s.two"), &[3.0]);
    }

    /// One shard: counters add, series are appended in the order recorded
    /// (exchanged where the master holds none), and the delta sink comes
    /// back empty but not deallocated.
    #[test]
    fn single_shard_delta_is_appended_and_left_empty() {
        let mut master = Metrics::new();
        master.count("c", 1);
        master.sample("held", 1.0);
        let mut delta = Metrics::new();
        for round in 0..3 {
            delta.count("c", 2);
            delta.count("only_delta", 1);
            delta.sample("held", 2.0);
            delta.sample("new", round as f64);
            delta.sample("new", 9.0);
            master.append_shard_delta(&mut delta);
            assert_eq!(names(&delta), (vec![], vec![]), "round {round}");
            assert_eq!(delta.counter("c"), 0);
        }
        assert_eq!(master.counter("c"), 7);
        assert_eq!(master.counter("only_delta"), 3);
        assert_eq!(master.samples("held"), &[1.0, 2.0, 2.0, 2.0]);
        assert_eq!(master.samples("new"), &[0.0, 9.0, 1.0, 9.0, 2.0, 9.0]);
        // After a reset the master hands its emptied series over in
        // exchange: nothing is copied, nothing is freed.
        master.reset_counters_and_samples();
        delta.sample("new", 5.0);
        let recorded_at = delta.samples("new").as_ptr();
        master.append_shard_delta(&mut delta);
        assert_eq!(master.samples("new"), &[5.0]);
        assert_eq!(master.samples("new").as_ptr(), recorded_at);
        assert_eq!(names(&master), (vec![], vec!["new"]));
        assert!(delta.samples["new"].values.capacity() >= 6, "the master's old series");
    }

    /// Several shards: the tagged series interleave by event key, a
    /// series only one shard touched included, and the deltas come back
    /// empty.
    #[test]
    fn tagged_shard_deltas_merge_in_event_order() {
        let mut master = Metrics::new();
        master.sample("s", 0.0);
        let (mut a, mut b) = (Metrics::new(), Metrics::new());
        for (sink, time, value) in [(0, 10, 1.0), (1, 20, 2.0), (1, 30, 3.0), (0, 40, 4.0)] {
            let sink = if sink == 0 { &mut a } else { &mut b };
            sink.set_tag(Some((time, 1, 0)));
            sink.sample("s", value);
            sink.count("c", 1);
        }
        b.sample("only_b", 7.0);
        master.merge_shard_deltas(&mut [&mut a, &mut b]);
        assert_eq!(master.samples("s"), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(master.samples("only_b"), &[7.0]);
        assert_eq!(master.counter("c"), 4);
        for delta in [&a, &b] {
            assert_eq!(names(delta), (vec![], vec![]));
        }
        // A second run through the same sinks starts from nothing.
        a.set_tag(Some((50, 1, 0)));
        a.sample("s", 5.0);
        master.merge_shard_deltas(&mut [&mut a, &mut b]);
        assert_eq!(master.samples("s"), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(master.samples("only_b"), &[7.0]);
    }

    /// The trace holds every counter, series and traffic row but one name
    /// from each host-side family, whose values it must not see.
    #[test]
    fn deterministic_trace_exempts_the_host_side_families() {
        let record = |host_side: u64| {
            let mut m = Metrics::new();
            m.count("net.allocs", 3);
            m.sample("wcl.rtt_s", 0.25);
            m.add_traffic(NodeId(4), up(66));
            m.count("net.pool_hits", host_side);
            m.count("prof.callback_ns", host_side);
            m.sample("ppss.journal_replay_wall_us", host_side as f64);
            m
        };
        let trace = record(1).deterministic_trace();
        assert_eq!(trace, record(2).deterministic_trace(), "host-side values are not in it");
        let find = |needle: &[u8]| trace.windows(needle.len()).any(|w| w == needle);
        assert!(find(b"net.allocs") && find(b"wcl.rtt_s"));
        assert!(find(&0.25f64.to_le_bytes()) && find(&66u64.to_le_bytes()));
        assert!(!find(b"pool_") && !find(b"prof.") && !find(b"wall_us"));
        // Everything else is: a counter, a sample or a byte of traffic
        // more is a different trace.
        for change in [
            |m: &mut Metrics| m.count("net.allocs", 1),
            |m: &mut Metrics| m.sample("wcl.rtt_s", 0.25),
            |m: &mut Metrics| m.add_traffic(NodeId(4), up(1)),
        ] {
            let mut m = record(1);
            change(&mut m);
            assert_ne!(m.deterministic_trace(), trace);
        }
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
