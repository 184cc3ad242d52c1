//! Measurement plumbing: per-node traffic accounting and generic named
//! counters / sample series.
//!
//! The simulator credits every sent and delivered message automatically
//! (including an IP+UDP header overhead, so "bandwidth" means what a host
//! would see on its uplink). Protocols additionally record their own
//! counters (e.g. WCL route successes) and sample series (e.g. RSA CPU
//! time per operation) through [`Metrics`].
//!
//! # A series is a multiset
//!
//! Every reader of a series takes a sum, a count, a mean, a CDF or a set,
//! so a series promises its values and not their order: on one shard they
//! are stored in event order, on more each shard's delta is appended in
//! turn at the end of a run. [`Metrics::deterministic_trace`] sorts every
//! series before it serializes it, so two runs that differ only in their
//! shard count still compare equal.
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

/// Metric sink shared by the simulator and all protocols.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `None`: not counted since the last reset.
    counters: BTreeMap<&'static str, Option<u64>>,
    /// Empty: not sampled since the last reset.
    samples: BTreeMap<&'static str, Vec<f64>>,
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
        self.samples.entry(name).or_default().push(value);
    }

    /// Folds a shard's delta sink into `self` and leaves it empty. Counters
    /// add; each series is appended — or, where `self` holds none of it,
    /// exchanged for `self`'s empty one, which moves no sample. The fold is
    /// additive, so the shards may come in any order.
    pub(crate) fn absorb_shard_delta(&mut self, delta: &mut Metrics) {
        for (&name, slot) in &mut delta.counters {
            if let Some(v) = slot.take() {
                self.count(name, v);
            }
        }
        for (&name, run) in &mut delta.samples {
            if run.is_empty() {
                continue;
            }
            let out = self.samples.entry(name).or_default();
            if out.is_empty() {
                std::mem::swap(out, run);
            } else {
                out.extend_from_slice(run);
                run.clear();
            }
        }
    }

    /// All samples recorded under `name`, a multiset: on one shard they
    /// are stored in event order, on more shard after shard, so their
    /// order depends on the shard count and nothing may read it.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Names of all counters, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.counters.iter().filter(|(_, slot)| slot.is_some()).map(|(&name, _)| name)
    }

    /// Names of all sample series, sorted.
    pub fn sample_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.samples.iter().filter(|(_, series)| !series.is_empty()).map(|(&name, _)| name)
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
    /// counter families of host-side measurements, which legitimately
    /// differ between two runs of one simulation: `net.pool_*` (which
    /// shard's pool served a buffer depends on the shard layout) and
    /// `prof.*` (wall-clock profiler buckets). Two runs of the same
    /// simulation — any shard count, thread policy, scheduler or profiler
    /// setting, and a fixed pooling mode — must produce equal traces; this
    /// is the one definition of what that comparison exempts. A series
    /// enters sorted by [`f64::total_cmp`], so it compares as a multiset
    /// (its stored order depends on the shard count). Callers append what
    /// else they compare (the final clock, protocol state).
    pub fn deterministic_trace(&self) -> Vec<u8> {
        let host_side = |name: &&str| name.starts_with("net.pool_") || name.starts_with("prof.");
        let mut out = Vec::new();
        for name in self.counter_names().filter(|n| !host_side(n)) {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&self.counter(name).to_le_bytes());
        }
        for name in self.sample_names() {
            out.extend_from_slice(name.as_bytes());
            let mut sorted = self.samples(name).to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            out.extend(sorted.iter().flat_map(|v| v.to_le_bytes()));
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
        for series in self.samples.values_mut() {
            series.clear();
        }
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

    /// A delta is absorbed additively: counters add, series are appended
    /// in the order recorded (exchanged where the master holds none), and
    /// the delta sink comes back empty but not deallocated.
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
            master.absorb_shard_delta(&mut delta);
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
        master.absorb_shard_delta(&mut delta);
        assert_eq!(master.samples("new"), &[5.0]);
        assert_eq!(master.samples("new").as_ptr(), recorded_at);
        assert_eq!(names(&master), (vec![], vec!["new"]));
        assert!(delta.samples["new"].capacity() >= 6, "the master's old series");
    }

    /// The values of series `name`, sorted: the multiset it stands for.
    fn sorted(m: &Metrics, name: &str) -> Vec<f64> {
        let mut values = m.samples(name).to_vec();
        values.sort_unstable_by(f64::total_cmp);
        values
    }

    /// One record stream split over two shard sinks folds, in either
    /// order, into what a single sink recorded: the same counters and the
    /// same values — of a series only one shard touched too — and both
    /// deltas come back empty, so a second run starts from nothing.
    #[test]
    fn shard_deltas_fold_in_any_order() {
        // (recorded on `a`?, value), in event order.
        let stream = [(true, 1.0), (false, 2.0), (false, 3.0), (true, 4.0), (true, 2.0)];
        let record = || {
            let (mut single, mut a, mut b) = (Metrics::new(), Metrics::new(), Metrics::new());
            for (on_a, value) in stream {
                for sink in [&mut single, if on_a { &mut a } else { &mut b }] {
                    sink.sample("s", value);
                    sink.count("c", 1);
                }
            }
            for sink in [&mut single, &mut b] {
                sink.sample("only_b", 7.0);
            }
            (single, a, b)
        };
        for a_first in [true, false] {
            let (single, mut a, mut b) = record();
            let mut master = Metrics::new();
            let (first, second) = if a_first { (&mut a, &mut b) } else { (&mut b, &mut a) };
            master.absorb_shard_delta(first);
            master.absorb_shard_delta(second);
            assert_eq!(names(&master), names(&single), "a first: {a_first}");
            assert_eq!(master.counter("c"), single.counter("c"));
            for name in ["s", "only_b"] {
                assert_eq!(sorted(&master, name), sorted(&single, name), "a first: {a_first}");
            }
            for delta in [&a, &b] {
                assert_eq!(names(delta), (vec![], vec![]));
            }
            a.sample("s", 5.0);
            master.absorb_shard_delta(&mut a);
            master.absorb_shard_delta(&mut b);
            assert_eq!(sorted(&master, "s"), [1.0, 2.0, 2.0, 3.0, 4.0, 5.0]);
            assert_eq!(master.samples("only_b"), &[7.0]);
        }
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
            m
        };
        let trace = record(1).deterministic_trace();
        assert_eq!(trace, record(2).deterministic_trace(), "host-side values are not in it");
        let find = |needle: &[u8]| trace.windows(needle.len()).any(|w| w == needle);
        assert!(find(b"net.allocs") && find(b"wcl.rtt_s"));
        assert!(find(&0.25f64.to_le_bytes()) && find(&66u64.to_le_bytes()));
        assert!(!find(b"pool_") && !find(b"prof."));
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

    /// The trace reads a series as a multiset: the same values stored in
    /// another order — as another shard count stores them — give the same
    /// bytes, other values of the same count and sum do not.
    #[test]
    fn deterministic_trace_does_not_see_sample_order() {
        let record = |values: [f64; 4]| {
            let mut m = Metrics::new();
            for v in values {
                m.sample("wcl.rtt_s", v);
            }
            m.deterministic_trace()
        };
        let trace = record([0.5, 2.0, -0.0, 2.0]);
        assert_eq!(trace, record([2.0, -0.0, 2.0, 0.5]));
        assert_eq!(trace, record([2.0, 2.0, 0.5, -0.0]));
        assert_ne!(trace, record([0.5, 2.0, 0.0, 2.0]), "-0.0 is not 0.0");
        assert_ne!(trace, record([1.0, 1.5, -0.0, 2.0]));
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
