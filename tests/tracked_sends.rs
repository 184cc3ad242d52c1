//! The contract of a tracked WCL send, on a network that loses nothing:
//! it is answered at the first try. A lossless 60-node cluster forms
//! three groups by invitation and gossips for six PPSS cycles; every
//! join and every exchange is a tracked send, and none of them may have
//! engaged the recovery machinery — no retry, no exhausted route, no
//! suspected relay, no torn-down circuit — nor been admitted twice.

use whisper_bench::harness::NetBuilder;
use whisper_core::node::NoApp;
use whisper_core::ppss::CYCLE;
use whisper_core::WhisperNode;
use whisper_net::NodeId;

fn every_tracked_send_is_answered_first_try(seed: u64) {
    let mut net = NetBuilder::cluster(60, seed).build_whisper(|_| Box::new(NoApp));
    net.sim.run_for_secs(150);
    let leaders: Vec<NodeId> = net.publics().into_iter().take(3).collect();
    let groups = net.create_groups(&leaders, "tracked");
    let membership = net.subscribe_members(&leaders, &groups, 1, seed ^ 0x51);
    let joiners: usize = membership.iter().map(Vec::len).sum();
    let bootstraps = net.builder.bootstraps;
    let other_leaders = leaders.iter().filter(|l| l.0 >= bootstraps as u64).count();
    assert_eq!(joiners, 60 - bootstraps - other_leaders, "all but bootstraps and leaders join");
    net.sim.run_for(CYCLE * 6);

    let m = net.sim.metrics();
    let count = |name: &str| m.counter(name);
    assert_eq!(count("ppss.join_attempts"), joiners as u64, "one request per join");
    assert_eq!(count("ppss.joins_accepted"), joiners as u64, "one admission per join");
    assert_eq!(count("ppss.joins_completed"), joiners as u64, "every join completed");
    for idle in
        ["wcl.route_exhausted", "wcl.route_retry", "wcl.relay_suspected", "wcl.circuit_teardown"]
    {
        assert_eq!(count(idle), 0, "{idle} on a lossless network");
    }
    let pending: usize = net
        .live()
        .into_iter()
        .map(|id| net.sim.node::<WhisperNode>(id).expect("live").wcl().pending_sends())
        .sum();
    assert!(count("wcl.route_attempts") > 2 * joiners as u64, "exchanges ran too");
    assert_eq!(
        count("wcl.route_attempts"),
        count("wcl.route_first_success") + pending as u64,
        "every tracked send was answered first try or is still waiting"
    );

    // One live admission dot per member in each leader's OR-set: its own
    // and one per joiner, none issued twice.
    for ((&leader, &group), members) in leaders.iter().zip(&groups).zip(&membership) {
        let node = net.sim.node::<WhisperNode>(leader).expect("leaders stay");
        let state = node.ppss().group(group).expect("the leader's group");
        let (adds, removes) = state.membership().dots();
        assert!(removes.is_empty());
        let mut admitted: Vec<NodeId> = adds.iter().map(|d| d.node).collect();
        admitted.sort_unstable();
        let mut expected: Vec<NodeId> = members.iter().copied().chain([leader]).collect();
        expected.sort_unstable();
        assert_eq!(admitted, expected, "group led by {leader}: one dot per member");
    }
}

#[test]
fn every_tracked_send_is_answered_first_try_seed_7() {
    every_tracked_send_is_answered_first_try(7);
}

#[test]
fn every_tracked_send_is_answered_first_try_seed_13() {
    every_tracked_send_is_answered_first_try(13);
}
