//! How fast a group's membership OR-set converges, on the PlanetLab
//! profile: 120 stacks, two groups of fewer than `EXCHANGE_DOTS` members
//! each — small enough that an exchange's window is the whole set — every
//! member's OR-set equal to its leader's within a fixed number of PPSS
//! cycles. The bound is what the always-ship exchange of PR 9 takes on the
//! same seed, measured at `ef9b323`: sending a window only to a side that
//! lacks it must not take longer.
//!
//! The count is fragile, at the parent as here: one extra RNG draw at every
//! second completed exchange moves `ef9b323` from 4 to 6 cycles on seed 7
//! and from 4 to 5 on seed 13, while leaving what each exchange merges
//! alone. The bound per seed is therefore the most cycles `ef9b323` takes
//! under that family of perturbations (none, and a draw at every second,
//! third, fifth, seventh or eleventh exchange); this tree takes 5 on both
//! seeds unperturbed (EXPERIMENTS.md@70f897e § "A third of onion_cold's bytes were
//! membership the partner already had").

use whisper_bench::harness::{NetBuilder, WhisperNet};
use whisper_core::node::NoApp;
use whisper_core::ppss::descriptor::EXCHANGE_DOTS;
use whisper_core::ppss::CYCLE;
use whisper_core::{GroupId, WhisperNode};
use whisper_net::NodeId;

/// PPSS cycles after the invitations until every member of both groups
/// holds its leader's OR-set (`None`: not within `limit`).
fn cycles_to_converge(seed: u64, limit: u32) -> Option<u32> {
    let mut net = NetBuilder::planetlab(120, seed).build_whisper(|_| Box::new(NoApp));
    net.sim.run_for_secs(150);
    let leaders: Vec<NodeId> = net.publics().into_iter().take(2).collect();
    let groups = net.create_groups(&leaders, "converge");
    let members = net.subscribe_members(&leaders, &groups, 1, seed ^ 0x51);
    assert!(members.iter().all(|m| m.len() < EXCHANGE_DOTS), "groups this small fit one window");
    let converged = |net: &WhisperNet, leader: NodeId, group: GroupId, of: &[NodeId]| {
        let held = |id| net.sim.node::<WhisperNode>(id)?.ppss().group(group).map(|s| s.membership().dots());
        let led = held(leader).expect("leaders stay");
        of.iter().all(|&m| held(m).is_some_and(|dots| dots == led))
    };
    (1..=limit).find(|_| {
        net.sim.run_for(CYCLE);
        leaders.iter().zip(&groups).zip(&members).all(|((&l, &g), m)| converged(&net, l, g, m))
    })
}

#[test]
fn small_groups_converge_as_fast_as_shipping_every_window_seed_7() {
    assert!(cycles_to_converge(7, 6).is_some(), "not converged after 6 cycles");
}

#[test]
fn small_groups_converge_as_fast_as_shipping_every_window_seed_13() {
    assert!(cycles_to_converge(13, 5).is_some(), "not converged after 5 cycles");
}
