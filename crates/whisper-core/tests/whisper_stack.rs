//! Full-stack integration tests: Nylon → WCL → PPSS running over the
//! simulated NATted network. These exercise the paper's core claims:
//! private groups form, private views converge, message content and
//! membership stay hidden from non-members, dead members are pruned, and
//! leadership survives leader failure.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper_core::ppss::descriptor::{MemberDot, Membership, Window, EXCHANGE_DOTS};
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
        window: [0; 16],
        dots: None,
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
/// gossip, and every member's OR-set covers the group — the work of the
/// exchange windows, since descriptors name no member.
#[test]
fn members_adopt_the_descriptor_and_exchanges_converge_membership() {
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(21), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..13].to_vec();
    let group = form_group(&mut net, leader, &members, "descr-prop");
    net.sim.run_for_secs(600);

    let joined = members_of(&net, group, &net.ids);
    assert!(joined.len() >= 8, "{} joined", joined.len());

    // Every member eventually adopts a signed descriptor, and the OR-set
    // converges: exchange windows carry every admission dot, old ones to
    // late joiners included, so each member's membership covers (nearly)
    // the whole group.
    let mut adopted = 0;
    let mut converged = 0;
    for &m in &joined {
        let node: &WhisperNode = net.sim.node(m).unwrap();
        let state = node.ppss().group(group).unwrap();
        if state.latest_descriptor().is_some() {
            adopted += 1;
        }
        if state.membership().members().len() >= joined.len() - 1 {
            converged += 1;
        }
    }
    assert!(
        adopted >= joined.len() - 1,
        "{adopted}/{} members adopted a descriptor",
        joined.len()
    );
    assert!(
        converged >= joined.len() - 1,
        "{converged}/{} memberships converged",
        joined.len()
    );
    let metrics = net.sim.metrics();
    assert_eq!(metrics.counter("ppss.desc_published"), 1, "signed once, at birth");
    assert!(metrics.counter("ppss.desc_adopted") > 0, "members adopted");
    assert!(metrics.counter("pss.desc_merged") > 0, "relays carried blobs");
    assert!(
        !metrics.samples("ppss.desc_prop_s").is_empty(),
        "propagation latency sampled"
    );
}

/// The dots `node` holds for `group`, if it is a member.
fn held(net: &Net, node: NodeId, group: GroupId) -> Option<Membership> {
    net.sim.node::<WhisperNode>(node)?.ppss().group(group).map(|s| s.membership().clone())
}

/// Whether `of` holds every dot of `window`.
fn holds(of: &Membership, window: &Window) -> bool {
    let (adds, removes) = of.dots();
    let all = |dots: &[MemberDot], set: &[MemberDot]| dots.iter().all(|d| set.binary_search(d).is_ok());
    all(&window.adds, &adds) && all(&window.removes, &removes)
}

/// What an exchange does guarantee for the membership OR-set, in a group
/// with more admissions than one window holds: once it has completed, the
/// requester holds the responder's newest `EXCHANGE_DOTS` dots of each kind
/// and the responder the requester's — the window the request stated, or
/// the one the response shipped. (Not that the group converges: see the
/// ignored test below.) A leader with a dozen real members admits a
/// hundred more that no route reaches; then, member after member, one
/// exchange is started by hand towards the partner the cycle picks, and
/// the two sides' windows before and after are compared with what each
/// holds once the answer — and the follow-up, when asked for — are in.
#[test]
fn a_completed_exchange_leaves_each_side_the_others_window() {
    use whisper_core::ppss::messages::PrivateEntry;
    let cfg = WhisperConfig::default();
    let mut net = build(30, &cfg, SimConfig::cluster(25), 250);
    let leader = net.ids[4];
    let members: Vec<NodeId> = net.ids[5..17].to_vec();
    let group = form_group(&mut net, leader, &members, "wide");
    net.sim.run_for_secs(300);
    let mut real = members_of(&net, group, &net.ids);
    assert!(real.len() >= 12, "{} joined", real.len());

    // A hundred admissions of nodes nobody can route to (NATted, no
    // gateways): the leader's OR-set outgrows one window.
    let key = net.sim.node::<WhisperNode>(leader).unwrap().nylon().keypair().public().clone();
    for i in 0..100 {
        let node = NodeId(10_000 + i);
        let invitation = net.sim.node::<WhisperNode>(leader).unwrap().invite(group, node).unwrap();
        let entry = PrivateEntry { node, age: 0, public: false, key: key.clone(), gateways: vec![] };
        let request =
            PpssMsg::JoinReq { group, accreditation: invitation.accreditation, entry }.to_wire();
        net.sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| {
            n.with_api(|api, _| api.ppss.on_delivered(ctx, api.nylon, api.wcl, None, &request));
        });
    }
    assert!(held(&net, leader, group).unwrap().dots().0.len() > EXCHANGE_DOTS + 40);

    let (mut completed, mut differed) = (0, 0);
    for _round in 0..3 {
        real.sort_unstable();
        for &a in &real {
            let view = net.sim.node::<WhisperNode>(a).unwrap().ppss().group(group).unwrap().view().to_vec();
            // The partner the cycle picks: the oldest entry.
            let Some(b) = view.iter().max_by_key(|e| (e.age, e.node)).map(|e| e.node) else { continue };
            if !real.contains(&b) {
                continue; // an admitted node no route reaches
            }
            let ours = held(&net, a, group).unwrap().window().clone();
            let theirs_before = held(&net, b, group).unwrap().window().clone();
            net.sim.with_node_ctx::<WhisperNode>(a, |n, ctx| {
                n.with_api(|api, _| api.ppss.on_cycle(ctx, api.nylon, api.wcl));
            });
            net.sim.run_for_secs(2);
            let view = net.sim.node::<WhisperNode>(a).unwrap().ppss().group(group).unwrap().view().to_vec();
            if !view.iter().any(|e| e.node == b && e.age == 0) {
                continue; // no answer yet: the exchange has not completed
            }
            completed += 1;
            differed += usize::from(ours != theirs_before);
            let (a_now, b_now) = (held(&net, a, group).unwrap(), held(&net, b, group).unwrap());
            assert!(holds(&b_now, &ours), "{b} lacks the window {a} stated");
            // A window only ever trades dots for newer ones: what it held
            // before and after, it held when it answered.
            let kept = |before: &[MemberDot], after: &[MemberDot]| -> Vec<MemberDot> {
                before.iter().filter(|d| after.contains(d)).copied().collect()
            };
            let theirs_after = b_now.window();
            let answered = Window {
                adds: kept(&theirs_before.adds, &theirs_after.adds),
                removes: kept(&theirs_before.removes, &theirs_after.removes),
            };
            assert!(holds(&a_now, &answered), "{a} lacks the window {b} answered with");
        }
    }
    assert!(completed >= 20, "only {completed} exchanges completed");
    assert!(differed >= 5, "only {differed} of {completed} exchanges had windows to ship");
}

/// **Not what the OR-set does today** (EXPERIMENTS.md@70f897e § "A third of
/// onion_cold's bytes were membership the partner already had"): every
/// exchange ships the newest `EXCHANGE_DOTS` dots only, so in a group with
/// more members than that nobody ever re-ships the older admissions, and a
/// member holds its leader's whole set only if it was there to hear each
/// dot while it was among the newest. Convergence waits for delta journal
/// records (ROADMAP, "Resident set per node").
#[test]
#[ignore = "fails: a group larger than one window does not converge"]
fn a_150_member_group_converges_to_the_leaders_set() {
    let cfg = WhisperConfig::default();
    let mut net = build(170, &cfg, SimConfig::cluster(26), 250);
    let leader = net.ids[5];
    let members: Vec<NodeId> = net.ids[10..160].to_vec();
    let group = form_group(&mut net, leader, &members, "wide");
    net.sim.run_for_secs(20 * 60);
    let joined = members_of(&net, group, &net.ids);
    let led = held(&net, leader, group).unwrap();
    let mut shares: Vec<f64> = joined
        .iter()
        .map(|&m| held(&net, m, group).unwrap().dots().0.len() as f64 / led.dots().0.len() as f64)
        .collect();
    shares.sort_by(f64::total_cmp);
    let converged = joined.iter().filter(|&&m| held(&net, m, group).unwrap() == led).count();
    assert_eq!(
        converged,
        joined.len(),
        "after 20 cycles {converged} of {} members hold the leader's {} admissions; \
         held share min {:.2} median {:.2} max {:.2}",
        joined.len(),
        led.dots().0.len(),
        shares[0],
        shares[shares.len() / 2],
        shares[shares.len() - 1],
    );
}

/// What a group larger than one window does guarantee: a revocation
/// reaches every member. The leader of a 150-member group revokes one;
/// the remove dot heads the leader's window, and exchanges carry it from
/// member to member until every other member holds it, within six PPSS
/// cycles (four on this seed).
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
            .filter(|&&m| !held(&net, m, group).is_some_and(|s| s.is_revoked(revoked)))
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
