//! Full-stack integration tests: Nylon → WCL → PPSS running over the
//! simulated NATted network. These exercise the paper's core claims:
//! private groups form, private views converge, message content and
//! membership stay hidden from non-members, dead members are pruned, and
//! leadership survives leader failure.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper_core::ppss::journal::Journal;
use whisper_core::ppss::messages::PpssMsg;
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::wire::WireEncode;
use whisper_net::NodeId;

struct Net {
    sim: Sim,
    ids: Vec<NodeId>,
}

/// Builds `n` WHISPER nodes (first two are public bootstraps) and warms
/// the system-wide PSS up for `warmup` seconds.
fn build(n: usize, cfg: &WhisperConfig, sim_cfg: SimConfig, warmup: u64) -> Net {
    let mut keyrng = StdRng::seed_from_u64(0xD0D0);
    let mut sim = Sim::new(sim_cfg);
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..n {
        let mut node =
            WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut keyrng));
        let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
        if i >= 2 {
            node.nylon_mut().set_bootstrap(vec![NodeId(0), NodeId(1)]);
        }
        ids.push(sim.add_node(Box::new(node), nat));
    }
    sim.with_node_ctx::<WhisperNode>(ids[0], |node, _| {
        node.nylon_mut().set_bootstrap(vec![NodeId(1)]);
    });
    sim.with_node_ctx::<WhisperNode>(ids[1], |node, _| {
        node.nylon_mut().set_bootstrap(vec![NodeId(0)]);
    });
    sim.run_for_secs(warmup);
    Net { sim, ids }
}

/// Makes `leader` create a group and invites `members` into it.
fn form_group(net: &mut Net, leader: NodeId, members: &[NodeId], name: &str) -> GroupId {
    let mut group = GroupId::from_name(name);
    net.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        group = node.create_group(ctx, name);
    });
    for &m in members {
        let inv = net
            .sim
            .node::<WhisperNode>(leader)
            .expect("leader alive")
            .invite(group, m)
            .expect("leader can invite");
        net.sim.with_node_ctx::<WhisperNode>(m, |node, ctx| {
            node.join_group(ctx, inv);
        });
    }
    group
}

fn members_of(net: &Net, group: GroupId, ids: &[NodeId]) -> Vec<NodeId> {
    ids.iter()
        .copied()
        .filter(|id| {
            net.sim
                .node::<WhisperNode>(*id)
                .map(|n| n.ppss().group(group).is_some())
                .unwrap_or(false)
        })
        .collect()
}

#[test]
fn group_forms_and_private_views_converge() {
    let cfg = WhisperConfig::default();
    let mut net = build(40, &cfg, SimConfig::cluster(10), 250);
    let leader = net.ids[5];
    let members: Vec<NodeId> = net.ids[6..20].to_vec();
    let group = form_group(&mut net, leader, &members, "private-chat");
    net.sim.run_for_secs(600); // 10 PPSS cycles

    let joined = members_of(&net, group, &net.ids);
    assert!(
        joined.len() >= 13,
        "{} of {} members joined",
        joined.len(),
        members.len() + 1
    );

    // Private views are populated and contain only actual members.
    let mut populated = 0;
    for &m in &joined {
        let node: &WhisperNode = net.sim.node(m).unwrap();
        let state = node.ppss().group(group).unwrap();
        if state.view().len() >= 3 {
            populated += 1;
        }
        for entry in state.view() {
            assert!(
                joined.contains(&entry.node),
                "non-member {:?} in private view of {m:?}",
                entry.node
            );
        }
    }
    assert!(populated >= joined.len() * 3 / 4, "{populated}/{} populated", joined.len());

    // Non-members never acquired group state (checked by construction
    // above) and exchanges really flowed through onion routes.
    assert!(net.sim.metrics().counter("wcl.delivered") > 0);
    assert!(net.sim.metrics().counter("ppss.exchanges_completed") > 0);
}

#[test]
fn forged_passport_is_silently_ignored() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(11), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..12].to_vec();
    let group = form_group(&mut net, leader, &members, "sealed");
    net.sim.run_for_secs(300);

    // A non-member steals a member's contact entry (as a network observer
    // might) and sends a forged exchange with a garbage passport.
    let outsider = net.ids[20];
    let victim_entry = {
        let node: &WhisperNode = net.sim.node(leader).unwrap();
        node.ppss().group(group).unwrap().view().first().cloned()
    };
    let Some(victim_entry) = victim_entry else {
        panic!("leader has an empty private view");
    };
    let forged = PpssMsg::Exchange {
        group,
        passport: whisper_core::Passport { node: outsider, signature: vec![0xAB; 48] },
        from_entry: Box::new(victim_entry.clone()),
        entries: vec![],
        exchange_id: 1,
        is_response: false,
        hb: Default::default(),
        election: None,
        new_key: None,
        revoked: vec![],
    }
    .to_wire();
    let before = net.sim.metrics().counter("ppss.dropped_bad_passport");
    net.sim.with_node_ctx::<WhisperNode>(outsider, |node, ctx| {
        node.with_api(|api, _| {
            let dest = victim_entry.dest_info();
            api.wcl.send_untracked(ctx, api.nylon, &dest, &forged, None);
        });
    });
    net.sim.run_for_secs(30);
    let after = net.sim.metrics().counter("ppss.dropped_bad_passport");
    assert!(after > before, "forged message must be dropped on passport check");
    // And the outsider still has no group state.
    let node: &WhisperNode = net.sim.node(outsider).unwrap();
    assert!(node.ppss().group(group).is_none());
}

#[test]
fn dead_members_are_pruned_from_private_views() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(12), 250);
    let leader = net.ids[3];
    let members: Vec<NodeId> = net.ids[4..14].to_vec();
    let group = form_group(&mut net, leader, &members, "churny");
    net.sim.run_for_secs(600); // 10 PPSS cycles

    let victim = members[0];
    assert!(members_of(&net, group, &net.ids).contains(&victim));
    net.sim.remove_node(victim);
    // Pruning is epidemic: a holder drops the dead entry only after
    // itself exhausting WCL retries against it, and fresh copies keep
    // circulating until every holder has; give it a realistic horizon.
    net.sim.run_for_secs(1800);

    for &m in &members_of(&net, group, &net.ids) {
        let node: &WhisperNode = net.sim.node(m).unwrap();
        let state = node.ppss().group(group).unwrap();
        assert!(
            !state.view().iter().any(|e| e.node == victim),
            "{m:?} still lists the dead member"
        );
    }
    assert!(net.sim.metrics().counter("wcl.route_exhausted") > 0
        || net.sim.metrics().counter("wcl.route_no_alt") > 0);
}

#[test]
fn leader_election_after_leader_death() {
    let cfg = WhisperConfig::default();
    let mut net = build(25, &cfg, SimConfig::cluster(13), 250);
    let leader = net.ids[3];
    let members: Vec<NodeId> = net.ids[4..12].to_vec();
    let group = form_group(&mut net, leader, &members, "survivable");
    net.sim.run_for_secs(600); // 10 PPSS cycles
    let joined: Vec<NodeId> = members_of(&net, group, &net.ids);
    assert!(joined.len() >= 6, "{} joined", joined.len());

    net.sim.remove_node(leader);
    net.sim.run_for_secs(2400); // 40 cycles: silence, election, key gossip

    assert!(
        net.sim.metrics().counter("ppss.elections_won") >= 1,
        "someone must win the election"
    );
    // At least one surviving member is now a leader with a bumped epoch,
    // and the new key disseminated to others.
    let survivors = members_of(&net, group, &net.ids);
    let new_leaders: Vec<NodeId> = survivors
        .iter()
        .copied()
        .filter(|id| {
            net.sim
                .node::<WhisperNode>(*id)
                .unwrap()
                .ppss()
                .group(group)
                .unwrap()
                .is_leader()
        })
        .collect();
    assert!(!new_leaders.is_empty(), "no new leader emerged");
    let adopted = survivors
        .iter()
        .filter(|id| {
            net.sim
                .node::<WhisperNode>(**id)
                .unwrap()
                .ppss()
                .group(group)
                .unwrap()
                .epoch()
                >= 1
        })
        .count();
    assert!(
        adopted * 2 >= survivors.len(),
        "{adopted}/{} adopted the new epoch",
        survivors.len()
    );
}

#[test]
fn persistent_paths_survive_view_turnover() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(14), 250);
    let leader = net.ids[3];
    let members: Vec<NodeId> = net.ids[4..14].to_vec();
    let group = form_group(&mut net, leader, &members, "pcp");
    net.sim.run_for_secs(600); // 10 PPSS cycles

    // Leader pins its first private-view member.
    let mut pinned = None;
    net.sim.with_node_ctx::<WhisperNode>(leader, |node, _| {
        node.with_api(|api, _| {
            let first = api.private_view(group).first().map(|e| e.node);
            if let Some(n) = first {
                api.ppss.make_persistent(group, n);
                pinned = Some(n);
            }
        });
    });
    let pinned = pinned.expect("leader had a view entry to pin");
    net.sim.run_for_secs(1200); // 20 cycles of view turnover, 10 PCP refreshes

    let node: &WhisperNode = net.sim.node(leader).unwrap();
    let state = node.ppss().group(group).unwrap();
    assert!(state.pcp().contains_key(&pinned), "PCP entry evicted");
    assert!(net.sim.metrics().counter("ppss.pcp_refreshes") > 0);

    // The pinned member can still be messaged even if it left the view.
    let mut sent = false;
    net.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        node.with_api(|api, _| {
            sent = api.send_private(ctx, group, pinned, b"still there?".to_vec(), false);
        });
    });
    assert!(sent, "send over the persistent path failed");
}

#[test]
fn multi_group_memberships_stay_separate() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(15), 250);
    let leader_a = net.ids[3];
    let leader_b = net.ids[4];
    let shared: Vec<NodeId> = net.ids[5..10].to_vec();
    let only_a: Vec<NodeId> = net.ids[10..14].to_vec();
    let mut members_a = shared.clone();
    members_a.extend(&only_a);
    let ga = form_group(&mut net, leader_a, &members_a, "group-a");
    let gb = form_group(&mut net, leader_b, &shared, "group-b");
    net.sim.run_for_secs(600);

    // Nodes only in A must never appear in any B view.
    for &id in &net.ids {
        let Some(node) = net.sim.node::<WhisperNode>(id) else { continue };
        if let Some(state) = node.ppss().group(gb) {
            for e in state.view() {
                assert!(
                    !only_a.contains(&e.node),
                    "group-A-only member {:?} leaked into a group-B view",
                    e.node
                );
            }
        }
    }
    // Shared members hold both groups independently.
    let both = shared
        .iter()
        .filter(|id| {
            let n = net.sim.node::<WhisperNode>(**id).unwrap();
            n.ppss().group(ga).is_some() && n.ppss().group(gb).is_some()
        })
        .count();
    assert!(both >= shared.len() - 1, "{both}/{} hold both", shared.len());
}

// ---------------------------------------------------------------------
// Durable group lifecycle: journal replay, corruption salvage, deletion
// tombstones, relayed descriptors and exchange-carried membership.
// ---------------------------------------------------------------------

/// Every member adopts the leader's signed descriptor from the relay
/// gossip, and a revocation spreads to every member through the exchanges
/// alone: no descriptor is signed for it, and nobody keeps the revoked
/// node in its view.
#[test]
fn members_adopt_the_descriptor_and_exchanges_spread_a_revocation() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(21), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..13].to_vec();
    let group = form_group(&mut net, leader, &members, "descr-prop");
    net.sim.run_for_secs(600);

    let joined = members_of(&net, group, &net.ids);
    assert!(joined.len() >= 8, "{} joined", joined.len());
    let adopted = joined
        .iter()
        .filter(|&&m| net.sim.node::<WhisperNode>(m).unwrap().ppss().group(group).unwrap().latest_descriptor().is_some())
        .count();
    assert!(adopted >= joined.len() - 1, "{adopted}/{} members adopted a descriptor", joined.len());

    let revoked = *joined.iter().find(|&&m| m != leader).expect("a member");
    net.sim.with_node_ctx::<WhisperNode>(leader, |node, _| assert!(node.remove_member(group, revoked)));
    net.sim.run_for_secs(4 * 60);
    for &m in joined.iter().filter(|&&m| m != revoked) {
        let state = net.sim.node::<WhisperNode>(m).unwrap().ppss().group(group).unwrap();
        assert!(state.revoked().contains(&revoked), "{m} does not hold the revocation");
        assert!(state.view().iter().all(|e| e.node != revoked), "{m} keeps {revoked} in its view");
    }
    let metrics = net.sim.metrics();
    assert_eq!(metrics.counter("ppss.desc_published"), 1, "signed once, at birth");
    assert!(metrics.counter("ppss.desc_adopted") > 0, "members adopted");
    assert!(metrics.counter("pss.desc_merged") > 0, "relays carried blobs");
    assert!(
        !metrics.samples("ppss.desc_prop_s").is_empty(),
        "propagation latency sampled"
    );
}

/// A revocation sticks: a revoked member that has lost the group and
/// sends its `JoinReq` again, with an accreditation issued before the
/// revocation, gets no passport back — its leader refuses it, under
/// `ppss.join_rejected_revoked` — and every other member still drops what
/// comes under its old passport.
#[test]
fn a_revoked_member_that_asks_again_is_not_admitted() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(27), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..13].to_vec();
    let group = form_group(&mut net, leader, &members, "sticky");
    net.sim.run_for_secs(300);
    let joined = members_of(&net, group, &net.ids);
    let victim = *joined.iter().find(|&&m| m != leader).expect("a member");
    let passport =
        net.sim.node::<WhisperNode>(victim).unwrap().ppss().group(group).unwrap().passport().clone();
    let invitation = net.sim.node::<WhisperNode>(leader).unwrap().invite(group, victim).unwrap();

    net.sim.with_node_ctx::<WhisperNode>(leader, |node, _| assert!(node.remove_member(group, victim)));
    net.sim.run_for_secs(6 * 60);
    // The victim loses its disk, restarts with nothing and asks again.
    net.sim.with_node_ctx::<WhisperNode>(victim, |node, ctx| {
        *node.ppss_mut().journal_mut() = Journal::new();
        node.ppss_mut().on_restart(ctx);
        node.join_group(ctx, invitation);
    });
    let completed = net.sim.metrics().counter("ppss.joins_completed");
    net.sim.run_for_secs(5 * 60);
    let metrics = net.sim.metrics();
    assert!(
        net.sim.node::<WhisperNode>(victim).unwrap().ppss().group(group).is_none(),
        "a passport came back"
    );
    assert_eq!(metrics.counter("ppss.joins_completed"), completed);
    assert!(metrics.counter("ppss.join_rejected_revoked") > 0, "the leader did not refuse it by name");

    let data = PpssMsg::AppData { group, passport, data: b"still here".to_vec(), reply_entry: None }.to_wire();
    let others: Vec<NodeId> = joined.iter().copied().filter(|&m| m != victim).collect();
    let dropped = metrics.counter("ppss.dropped_bad_passport");
    for &m in &others {
        net.sim.with_node_ctx::<WhisperNode>(m, |node, ctx| {
            let events = node.with_api(|api, _| api.ppss.on_delivered(ctx, api.nylon, api.wcl, None, &data));
            assert_eq!(events, Some(vec![]), "{m} admits the revoked {victim}");
        });
    }
    assert_eq!(net.sim.metrics().counter("ppss.dropped_bad_passport") - dropped, others.len() as u64);
}

/// A revocation reaches every member of a large group. The leader of a
/// 150-member group revokes one; every exchange carries the whole revoked
/// set, and so the revocation goes from member to member until every other
/// member holds it, within six PPSS cycles.
#[test]
fn a_revocation_reaches_every_member_of_a_150_member_group() {
    let cfg = WhisperConfig::default();
    let mut net = build(170, &cfg, SimConfig::cluster(26), 250);
    let leader = net.ids[5];
    let members: Vec<NodeId> = net.ids[10..159].to_vec();
    let group = form_group(&mut net, leader, &members, "wide");
    net.sim.run_for_secs(5 * 60);
    let joined = members_of(&net, group, &net.ids);
    assert_eq!(joined.len(), 150, "the group formed");

    let revoked = members[0];
    net.sim.with_node_ctx::<WhisperNode>(leader, |node, _| assert!(node.remove_member(group, revoked)));
    let others: Vec<NodeId> = joined.iter().copied().filter(|&m| m != leader && m != revoked).collect();
    let mut cycles = 0;
    loop {
        let missing = others
            .iter()
            .filter(|&&m| {
                let state = net.sim.node::<WhisperNode>(m).and_then(|n| n.ppss().group(group));
                !state.is_some_and(|s| s.revoked().contains(&revoked))
            })
            .count();
        if missing == 0 {
            break;
        }
        assert!(cycles < 6, "after {cycles} cycles {missing} of {} members still admit {revoked}", others.len());
        net.sim.run_for_secs(60);
        cycles += 1;
    }
    eprintln!("revocation reached all {} other members in {cycles} cycles", others.len());
}

#[test]
fn groups_survive_crash_restart_via_journal_replay() {
    use whisper_net::fault::FaultPlan;
    use whisper_net::SimDuration;

    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(22), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..13].to_vec();
    let group = form_group(&mut net, leader, &members, "durable");
    net.sim.run_for_secs(400);
    let joined = members_of(&net, group, &net.ids);
    let victim = *joined.iter().find(|id| **id != leader).expect("a member joined");

    let now = net.sim.now();
    let plan = FaultPlan::new().crash_restart(
        victim,
        now + SimDuration::from_secs(5),
        now + SimDuration::from_secs(60),
    );
    net.sim.install_fault_plan(plan);
    net.sim.run_for_secs(70);

    // Immediately after restart the group state is back — rebuilt from
    // journal replay alone, not from any surviving in-memory state.
    assert!(net.sim.metrics().counter("ppss.journal_replayed") > 0, "journal replayed");
    assert!(
        net.sim.metrics().counter("ppss.journal_groups_restored") >= 1,
        "group restored from journal"
    );
    {
        let node: &WhisperNode = net.sim.node(victim).unwrap();
        assert!(node.ppss().group(group).is_some(), "group survived the crash");
    }

    // ... and the member re-converges: its private view repopulates from
    // the journaled contacts within a few PPSS cycles.
    net.sim.run_for_secs(300);
    let node: &WhisperNode = net.sim.node(victim).unwrap();
    let state = node.ppss().group(group).expect("still a member");
    assert!(
        state.view().len() >= 2,
        "view repopulated after restart ({} entries)",
        state.view().len()
    );
}

#[test]
fn damaged_journals_salvage_their_valid_prefix_on_restart() {
    use whisper_net::fault::FaultPlan;
    use whisper_net::SimDuration;

    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(23), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..13].to_vec();
    let group = form_group(&mut net, leader, &members, "salvage");
    net.sim.run_for_secs(400);
    let joined = members_of(&net, group, &net.ids);
    let mut non_leaders = joined.iter().copied().filter(|id| *id != leader);
    let flip_victim = non_leaders.next().expect("member one");
    let cut_victim = non_leaders.next().expect("member two");

    // Damage the journals *in place*: flip a bit inside the last record
    // of one, shear the tail off the other — the torn-write and
    // bit-rot failure modes a real disk produces.
    net.sim.with_node_ctx::<WhisperNode>(flip_victim, |node, _| {
        let raw = node.ppss_mut().journal_mut().raw_mut();
        let len = raw.len();
        raw[len - 3] ^= 0x10;
    });
    net.sim.with_node_ctx::<WhisperNode>(cut_victim, |node, _| {
        let raw = node.ppss_mut().journal_mut().raw_mut();
        let len = raw.len();
        raw.truncate(len - 7);
    });

    let now = net.sim.now();
    let plan = FaultPlan::new()
        .crash_restart(
            flip_victim,
            now + SimDuration::from_secs(2),
            now + SimDuration::from_secs(40),
        )
        .crash_restart(
            cut_victim,
            now + SimDuration::from_secs(2),
            now + SimDuration::from_secs(40),
        );
    net.sim.install_fault_plan(plan);
    net.sim.run_for_secs(60);

    // The damage is *attributed* (named counters, never silent) and the
    // valid prefix still restores the group: earlier snapshots of the
    // same group precede the damaged tail.
    let attributed = net.sim.metrics().counter("ppss.journal_corrupt")
        + net.sim.metrics().counter("ppss.journal_truncated");
    assert!(attributed >= 1, "journal damage attributed to a named counter");
    for victim in [flip_victim, cut_victim] {
        let node: &WhisperNode = net.sim.node(victim).unwrap();
        assert!(
            node.ppss().group(group).is_some(),
            "{victim:?} salvaged its group from the valid journal prefix"
        );
    }
}

#[test]
fn deleted_groups_never_resurrect() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(24), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..13].to_vec();
    let group = form_group(&mut net, leader, &members, "doomed");
    net.sim.run_for_secs(400);
    let joined = members_of(&net, group, &net.ids);
    assert!(joined.len() >= 8, "{} joined before deletion", joined.len());

    // Save an invitation from before the deletion: the resurrection
    // attempt below presents otherwise-valid credentials.
    let stale_invite = net
        .sim
        .node::<WhisperNode>(leader)
        .unwrap()
        .invite(group, net.ids[20])
        .expect("leader can invite");

    net.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        assert!(node.delete_group(ctx, group), "leader deletes its group");
    });
    // Tombstone descriptors ride the relay gossip to every member.
    net.sim.run_for_secs(600);

    let survivors = members_of(&net, group, &net.ids);
    assert!(
        survivors.is_empty(),
        "{} nodes still hold the deleted group: {survivors:?}",
        survivors.len()
    );
    assert!(
        net.sim.metrics().counter("ppss.groups_deleted") as usize >= joined.len(),
        "every member tore the group down"
    );

    // A node presenting a pre-deletion invitation cannot rejoin: the
    // tombstone is sticky ("tombstones are forever").
    net.sim.with_node_ctx::<WhisperNode>(net.ids[20], |node, ctx| {
        node.join_group(ctx, stale_invite);
    });
    net.sim.run_for_secs(120);
    assert!(
        net.sim
            .node::<WhisperNode>(net.ids[20])
            .unwrap()
            .ppss()
            .group(group)
            .is_none(),
        "stale invitation must not resurrect a deleted group"
    );
    assert!(
        net.sim.metrics().counter("ppss.resurrection_blocked") > 0,
        "the blocked attempt is attributed"
    );
}
