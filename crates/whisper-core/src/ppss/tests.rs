use super::*;
use crate::ppss::descriptor::GroupDescriptor;
use crate::ppss::group::PASSPORT_MEMO_CAP;
use crate::ppss::lifecycle::Record;
use crate::{WhisperConfig, WhisperNode};
use whisper_crypto::rsa::RsaKeySize;
use whisper_net::nat::NatType;
use whisper_net::sim::{Sim, SimConfig};
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

/// Delivers `msg` to the PPSS of `node` as the WCL would, returning
/// the events it raised.
fn deliver(sim: &mut Sim, node: NodeId, msg: &PpssMsg) -> Vec<PpssEvent> {
    let wire = msg.to_wire();
    let mut events = None;
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        n.with_api(|api, _| {
            events = api.ppss.on_delivered(ctx, api.wcl, None, &wire)
        });
    });
    events.expect("a PPSS message")
}

fn app_data(group: GroupId, passport: Passport) -> PpssMsg {
    PpssMsg::AppData { group, passport, data: vec![1, 2, 3], reply_entry: None }
}

/// The passport memo end to end: a remembered passport is accepted
/// without changing what is delivered or counted, a forgery for a
/// remembered node is still dropped under `ppss.dropped_bad_passport`,
/// the memo stays bounded, and it does not survive the group state —
/// neither a restart (state rebuilt from the journal) nor a deletion.
#[test]
fn passport_memo_is_exact_bounded_and_volatile() {
    let cfg = WhisperConfig::default();
    let key = KeyPair::generate(cfg.nylon.rsa, &mut StdRng::seed_from_u64(1));
    let mut sim = Sim::new(SimConfig::cluster(5));
    let me = sim.add_node(Box::new(WhisperNode::new(cfg, key)), NatType::Public);
    sim.run_for_secs(1);
    let mut group = GroupId(0);
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| group = n.create_group(ctx, "memo"));
    let memo_len = |sim: &Sim| {
        let state = sim.node::<WhisperNode>(me).unwrap().ppss().group(group);
        state.map(|s| s.verified_passports().len())
    };
    let group_key = {
        let node = sim.node::<WhisperNode>(me).unwrap();
        node.ppss().groups[&group].leader_key.clone().expect("the creator leads")
    };
    let bad = |sim: &Sim| sim.metrics().counter("ppss.dropped_bad_passport");

    let peer = Passport::issue(&group_key, group, NodeId(100));
    let expected = vec![PpssEvent::AppMessage {
        group,
        from: NodeId(100),
        data: vec![1, 2, 3],
        reply_entry: None,
    }];
    assert_eq!(memo_len(&sim), Some(0));
    assert_eq!(deliver(&mut sim, me, &app_data(group, peer.clone())), expected, "verified");
    assert_eq!(memo_len(&sim), Some(1));
    assert_eq!(deliver(&mut sim, me, &app_data(group, peer.clone())), expected, "remembered");
    assert_eq!(bad(&sim), 0);

    // A forged signature for the remembered node: dropped, counted,
    // nothing delivered, nothing remembered.
    let mut forged = peer.clone();
    forged.signature[0] ^= 0x80;
    assert_eq!(deliver(&mut sim, me, &app_data(group, forged)), vec![]);
    assert_eq!(bad(&sim), 1);
    assert_eq!(memo_len(&sim), Some(1));

    // More members than the memo holds: bounded, and nobody rejected.
    for n in 0..PASSPORT_MEMO_CAP as u64 + 8 {
        let p = Passport::issue(&group_key, group, NodeId(1000 + n));
        assert_eq!(deliver(&mut sim, me, &app_data(group, p)).len(), 1);
    }
    assert_eq!(memo_len(&sim), Some(PASSPORT_MEMO_CAP));
    assert_eq!(bad(&sim), 1);

    // A restart rebuilds the state from the journal: the memo is gone
    // and the passport verifies again from scratch.
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| n.ppss_mut().on_restart(ctx));
    assert_eq!(memo_len(&sim), Some(0), "the memo is volatile");
    assert_eq!(deliver(&mut sim, me, &app_data(group, peer.clone())), expected);
    assert_eq!(memo_len(&sim), Some(1));

    // Deletion takes the memo with the rest of the group state; the
    // once-remembered passport now opens nothing.
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| assert!(n.delete_group(ctx, group)));
    assert_eq!(memo_len(&sim), None);
    assert_eq!(deliver(&mut sim, me, &app_data(group, peer)), vec![]);
    assert_eq!(sim.metrics().counter("ppss.resurrection_blocked"), 1);
}

/// A `JoinReq` the leader has already answered is answered again, with
/// the same passport: the joiner whose ack never took effect asks a
/// second time and gets a passport that verifies. The leader journals
/// nothing for an answer.
#[test]
fn repeated_join_request_is_answered_with_the_same_passport() {
    let cfg = WhisperConfig::default();
    let mut keys = StdRng::seed_from_u64(3);
    let mut sim = Sim::new(SimConfig::cluster(7));
    let ids: Vec<NodeId> = (0..6u64)
        .map(|i| {
            let key = KeyPair::generate(cfg.nylon.rsa, &mut keys);
            let mut node = WhisperNode::new(cfg.clone(), key);
            let boot = [NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect();
            node.nylon_mut().set_bootstrap(boot);
            sim.add_node(Box::new(node), NatType::Public)
        })
        .collect();
    sim.run_for_secs(250);
    let (leader, joiner) = (ids[2], ids[5]);
    let mut invitation = None;
    sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| {
        let group = n.create_group(ctx, "once");
        invitation = n.invite(group, joiner);
    });
    let invitation = invitation.expect("the creator leads");
    let group = invitation.group;
    let request = |sim: &mut Sim| {
        let inv = invitation.clone();
        sim.with_node_ctx::<WhisperNode>(joiner, |n, ctx| n.join_group(ctx, inv));
        sim.run_for(CYCLE * 2); // the handshake, then the leader's cycles
    };
    let passport = |sim: &Sim| sim.node::<WhisperNode>(joiner).unwrap().ppss().groups[&group].passport.clone();
    let count = |sim: &Sim, name: &str| sim.metrics().counter(name);

    request(&mut sim);
    assert_eq!(count(&sim, "ppss.joins_completed"), 1);
    let first = passport(&sim);

    // The joiner is back where it was before the ack arrived.
    sim.with_node_ctx::<WhisperNode>(joiner, |n, _| n.ppss_mut().groups.clear());
    request(&mut sim);
    assert_eq!(count(&sim, "ppss.joins_completed"), 2, "the second ack is valid too");
    assert_eq!(count(&sim, "ppss.join_ack_invalid"), 0);
    assert_eq!(count(&sim, "ppss.joins_accepted"), 2);
    assert_eq!(passport(&sim), first, "the same passport");
    assert_eq!(count(&sim, "wcl.route_retry") + count(&sim, "wcl.route_exhausted"), 0);

    // A third request, as the WCL would deliver it: answered, not
    // journaled.
    let mut entry = None;
    sim.with_node_ctx::<WhisperNode>(joiner, |n, _| n.with_api(|api, _| entry = Some(api.my_entry())));
    let journal = sim.node::<WhisperNode>(leader).unwrap().ppss().journal().raw().to_vec();
    let accreditation = invitation.accreditation.clone();
    deliver(&mut sim, leader, &PpssMsg::JoinReq { group, accreditation, entry: entry.unwrap() });
    assert_eq!(count(&sim, "ppss.joins_accepted"), 3);
    assert_eq!(sim.node::<WhisperNode>(leader).unwrap().ppss().journal().raw(), &journal[..], "nothing journaled");
}

/// `create_group` refuses a name this node already holds: nothing is
/// created or replaced, and the refusal is counted.
#[test]
fn create_group_refuses_a_held_name() {
    let cfg = WhisperConfig::default();
    let key = KeyPair::generate(cfg.nylon.rsa, &mut StdRng::seed_from_u64(5));
    let mut sim = Sim::new(SimConfig::cluster(9));
    let me = sim.add_node(Box::new(WhisperNode::new(cfg, key)), NatType::Public);
    sim.run_for_secs(1);
    let create = |sim: &mut Sim| {
        let mut created = None;
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
            created = n.with_api(|api, _| api.ppss.create_group(ctx, api.wcl, "taken"));
        });
        created
    };
    let group = create(&mut sim).expect("a new name");
    let key = |sim: &Sim| sim.node::<WhisperNode>(me).unwrap().ppss().groups[&group].current_key().clone();
    let before = key(&sim);
    assert_eq!(create(&mut sim), None);
    assert_eq!(sim.metrics().counter("ppss.create_refused_held"), 1);
    assert_eq!(sim.metrics().counter("ppss.groups_created"), 1);
    assert_eq!(key(&sim), before, "the held group is untouched");
}

/// `create_group` refuses the name of a deleted group: the tombstone
/// wins, nothing is created, and the refusal is counted.
#[test]
fn create_group_refuses_a_deleted_name() {
    let cfg = WhisperConfig::default();
    let key = KeyPair::generate(cfg.nylon.rsa, &mut StdRng::seed_from_u64(6));
    let mut sim = Sim::new(SimConfig::cluster(10));
    let me = sim.add_node(Box::new(WhisperNode::new(cfg, key)), NatType::Public);
    sim.run_for_secs(1);
    let mut again = Some(GroupId(0));
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
        let group = n.create_group(ctx, "gone");
        assert!(n.delete_group(ctx, group));
        again = n.with_api(|api, _| api.ppss.create_group(ctx, api.wcl, "gone"));
    });
    assert_eq!(again, None);
    assert_eq!(sim.metrics().counter("ppss.resurrection_blocked"), 1);
    assert!(sim.node::<WhisperNode>(me).unwrap().ppss().group(GroupId::from_name("gone")).is_none());
}

/// The revoked set is a grow-only CRDT through the journal: replicas
/// that revoke, exchange (push-pull union, journaled on change as
/// `handle_exchange` does) and crash-restart from their journals in any
/// interleaving never lose a revoked node, and once every pair has
/// exchanged they all hold every node any of them revoked.
#[test]
fn revoked_sets_converge_under_any_interleaving_and_restart() {
    use whisper_rand::Rng;
    let key = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(7));
    let group = GroupId::from_name("revocations");
    let replica = |node: u64| {
        let mut ppss = Ppss::new(PpssConfig::default());
        let passport = Passport { node: NodeId(node), signature: vec![1; 48] };
        let state = GroupState::fresh(vec![key.public().clone()], None, passport, 0);
        ppss.groups.insert(group, Box::new(state));
        ppss.journal_group(group);
        ppss
    };
    let revoked = |p: &Ppss| p.groups[&group].revoked.clone();
    let fold = |p: &mut Ppss, nodes: &[NodeId]| {
        if p.groups.get_mut(&group).unwrap().fold_revoked(nodes) {
            p.journal_group(group);
        }
    };
    let exchange = |rs: &mut [Ppss], a: usize, b: usize| {
        let request: Vec<NodeId> = revoked(&rs[a]).into_iter().collect();
        fold(&mut rs[b], &request);
        let response: Vec<NodeId> = revoked(&rs[b]).into_iter().collect();
        fold(&mut rs[a], &response);
    };
    whisper_rand::check::check(200, "revoked_sets_converge_under_any_interleaving_and_restart", |g| {
        let mut replicas: Vec<Ppss> = (0..g.gen_range(2..=5u64)).map(replica).collect();
        let n = replicas.len();
        let mut everything = BTreeSet::new();
        for _ in 0..g.gen_range(0..60) {
            let before: Vec<BTreeSet<NodeId>> = replicas.iter().map(revoked).collect();
            let r = g.gen_range(0..n);
            match g.gen_range(0..3u8) {
                0 => {
                    let node = NodeId(g.gen_range(100..140));
                    everything.insert(node);
                    fold(&mut replicas[r], &[node]);
                }
                1 => {
                    let other = (r + g.gen_range(1..n)) % n;
                    exchange(&mut replicas, r, other);
                }
                _ => {
                    let p = &mut replicas[r];
                    p.groups.clear();
                    for record in &p.journal.replay().records {
                        p.apply_record(record).expect("a record this code wrote");
                    }
                }
            }
            for (now, then) in replicas.iter().map(revoked).zip(&before) {
                assert!(now.is_superset(then), "a revoked node left a set");
            }
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    exchange(&mut replicas, i, j);
                }
            }
        }
        for p in &replicas {
            assert_eq!(revoked(p), everything, "converged on every revocation");
        }
    });
}

/// A live group signs nothing; deletion signs once. A group that
/// admits 39 members, revokes one and changes leader in an election
/// holds and journals no tombstone; deleting it there keeps one, signed
/// under the elected leader's key and naming no member, and journals it.
/// Revoking the same member twice is refused.
#[test]
fn a_live_group_signs_nothing_and_deletion_signs_once() {
    let cfg = WhisperConfig::default();
    let key = KeyPair::generate(cfg.nylon.rsa, &mut StdRng::seed_from_u64(4));
    let mut sim = Sim::new(SimConfig::cluster(8));
    let me = sim.add_node(Box::new(WhisperNode::new(cfg, key)), NatType::Public);
    sim.run_for_secs(1);
    let mut group = GroupId(0);
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| group = n.create_group(ctx, "forty"));
    // 39 join requests, as the WCL would deliver them; the acks find
    // no route, which changes nothing about the admissions.
    let key = sim.node::<WhisperNode>(me).unwrap().nylon().keypair().public().clone();
    let joiners: Vec<NodeId> = (0..39).map(|i| NodeId(1000 + i)).collect();
    for &node in &joiners {
        let invitation = sim.node::<WhisperNode>(me).unwrap().invite(group, node).unwrap();
        let entry = PrivateEntry { node, age: 0, public: false, key: key.clone(), gateways: vec![] };
        deliver(&mut sim, me, &PpssMsg::JoinReq { group, accreditation: invitation.accreditation, entry });
    }
    sim.run_for(CYCLE * 3);
    sim.with_node_ctx::<WhisperNode>(me, |n, _| {
        assert!(n.remove_member(group, joiners[0]));
        assert!(!n.remove_member(group, joiners[0]), "revoked already");
    });
    // The leader steps down; alone, it hears no heartbeat and wins
    // the election that follows, under a new group key.
    sim.with_node_ctx::<WhisperNode>(me, |n, _| n.ppss_mut().groups.get_mut(&group).unwrap().leader_key = None);
    sim.run_for(CYCLE * (HB_MISS_THRESHOLD + ELECTION_CYCLES + 3));

    let node = sim.node::<WhisperNode>(me).unwrap();
    let state = node.ppss().group(group).unwrap();
    assert_eq!(sim.metrics().counter("ppss.joins_accepted"), 39);
    assert_eq!(sim.metrics().counter("ppss.elections_won"), 1);
    assert!(state.is_leader() && state.epoch() == 1 && state.key_history().len() == 2);
    assert_eq!(state.revoked(), &BTreeSet::from([joiners[0]]));
    let tombstones = |ppss: &Ppss| {
        let records = ppss.journal().replay().records;
        records.iter().filter(|r| matches!(Record::from_wire(r), Ok(Record::Tombstone { .. }))).count()
    };
    assert!(node.ppss().tombstone(group).is_none(), "a live group signed a descriptor");
    assert_eq!(tombstones(node.ppss()), 0);
    let history = state.key_history().to_vec();

    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| assert!(n.delete_group(ctx, group)));
    let ppss = sim.node::<WhisperNode>(me).unwrap().ppss();
    assert_eq!(ppss.deleted.keys().collect::<Vec<_>>(), [&group], "deletion signs once");
    assert_eq!(tombstones(ppss), 1, "the tombstone is journaled");
    let tomb = GroupDescriptor::from_wire(ppss.tombstone(group).unwrap()).unwrap();
    assert!(tomb.tombstone && tomb.epoch == 1 && tomb.verify(&history[1..]));
    assert!(tomb.adds.is_empty() && tomb.removes.is_empty(), "the tombstone names a member");
}

/// The periodic checkpoint drops the one before last: however many
/// have run, the journal holds a few records per group and no more
/// storage than twice that — and a restart from it restores exactly
/// what a restart from the append-only history (every checkpoint
/// appending its snapshots behind all the stale ones) would.
#[test]
fn checkpoints_keep_the_journal_bounded_and_replay_equivalent() {
    let cfg = WhisperConfig::default();
    let mut sim = Sim::new(SimConfig::cluster(6));
    let mut keys = StdRng::seed_from_u64(2);
    let mut add = |sim: &mut Sim| {
        let key = KeyPair::generate(cfg.nylon.rsa, &mut keys);
        sim.add_node(Box::new(WhisperNode::new(cfg.clone(), key)), NatType::Public)
    };
    let (me, other) = (add(&mut sim), add(&mut sim));
    sim.run_for_secs(1);

    // The append-only history, kept beside the real journal: what is
    // appended to the one is appended to the other, and a checkpoint
    // adds the snapshots it wrote.
    let mut history = Journal::new();
    let mut seen = Journal::new();
    let mut track = |sim: &Sim, checkpoint: bool| {
        let ppss = sim.node::<WhisperNode>(me).unwrap().ppss();
        let real = ppss.journal().clone();
        if checkpoint {
            // The snapshots this checkpoint wrote end the journal.
            let records = real.replay().records;
            let snapshots: Vec<_> =
                records.iter().filter(|r| matches!(Record::from_wire(r), Ok(Record::Group { .. }))).collect();
            for record in &snapshots[snapshots.len() - ppss.groups.len()..] {
                history.append(record);
            }
        } else {
            assert!(real.raw().starts_with(seen.raw()), "appends only between checkpoints");
            history.raw_mut().extend_from_slice(&real.raw()[seen.len_bytes()..]);
        }
        seen = real;
        history.len_bytes()
    };

    // Every record kind: two live groups, a tombstone, a pending join
    // (towards a leader no route reaches, so it stays pending).
    let mut invitation = None;
    sim.with_node_ctx::<WhisperNode>(other, |n, ctx| {
        let theirs = n.create_group(ctx, "theirs");
        invitation = n.invite(theirs, me);
    });
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
        n.create_group(ctx, "one");
        n.create_group(ctx, "two");
        let doomed = n.create_group(ctx, "doomed");
        assert!(n.delete_group(ctx, doomed));
        n.join_group(ctx, invitation.take().expect("the creator leads"));
    });
    track(&sim, false);

    let cycle = |sim: &mut Sim| {
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
            n.with_api(|api, _| api.ppss.on_cycle(ctx, api.wcl));
        });
    };
    for cycles in 1..=8 * 12u32 {
        cycle(&mut sim);
        let history_bytes = track(&sim, cycles % 8 == 0);
        // Event-driven appends between checkpoints: a group is born,
        // another dies.
        if cycles == 20 || cycles == 45 {
            sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
                if cycles == 20 {
                    n.create_group(ctx, "three");
                } else {
                    assert!(n.delete_group(ctx, GroupId::from_name("one")));
                }
            });
            track(&sim, false);
        }
        if cycles % 8 == 0 {
            // A checkpoint is one record per live group, the pending
            // join, and one tombstone per deleted group; the journal
            // holds the last two and the appends between them,
            // whatever the number of checkpoints behind those.
            let checkpoint = |at: u32| match at {
                ..20 => 2 + 1 + 1,
                20..45 => 3 + 1 + 1,
                _ => 2 + 1 + 2,
            };
            // The birth appends once, the deletion once.
            let between = u32::from((cycles - 8..cycles).contains(&20))
                + u32::from((cycles - 8..cycles).contains(&45));
            let records = (checkpoint(cycles - 8) + between + checkpoint(cycles)) as usize;
            let journal = sim.node::<WhisperNode>(me).unwrap().ppss().journal();
            if cycles > 8 {
                // (The first checkpoint had none before it to drop.)
                assert_eq!(journal.replay().records.len(), records, "after {cycles} cycles");
            }
            assert!(journal.len_bytes() < 1024 * records);
            assert!(journal.capacity_bytes() <= 2 * journal.len_bytes());
            let checkpoints = (cycles / 8) as usize;
            assert!(history_bytes > journal.len_bytes() * checkpoints / 4, "history grows");
        }
    }

    let restored_from = |sim: &mut Sim, disk: &Journal| {
        let mut folded = Vec::new();
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
            *n.ppss_mut().journal_mut() = disk.clone();
            n.ppss_mut().on_restart(ctx);
            folded = n.ppss().journal().raw().to_vec();
        });
        folded
    };
    let from_history = restored_from(&mut sim, &history);
    let from_compacted = restored_from(&mut sim, &seen);
    assert!(!from_compacted.is_empty());
    assert_eq!(from_history, from_compacted, "replay folds to the same state");
}

/// A member no route reaches leaves every group that holds it, whichever
/// tracked send found that out — here an application's, which no exchange
/// was waiting on: gone from both views and from the PCP it was pinned in,
/// one `MemberUnreachable` per group that held it.
#[test]
fn a_failed_route_evicts_its_member_from_every_group() {
    let key = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(8));
    let entry = |node: u64| PrivateEntry {
        node: NodeId(node),
        age: 0,
        public: true,
        key: key.public().clone(),
        gateways: vec![],
    };
    let (dest, other) = (NodeId(7), NodeId(8));
    let mut ppss = Ppss::new(PpssConfig::default());
    let [pinned, viewed, unrelated] = ["pinned", "viewed", "unrelated"].map(GroupId::from_name);
    for (group, view) in [
        (pinned, vec![entry(7), entry(8)]),
        (viewed, vec![entry(8), entry(7)]),
        (unrelated, vec![entry(8)]),
    ] {
        let passport = Passport { node: NodeId(1), signature: vec![1; 48] };
        let mut state = GroupState::fresh(vec![key.public().clone()], None, passport, 0);
        state.view = view;
        ppss.groups.insert(group, Box::new(state));
    }
    ppss.groups.get_mut(&pinned).unwrap().pcp.insert(dest, entry(7));

    let app_msg_id = 99;
    let events = ppss.on_route_failed(app_msg_id, dest);
    let mut held = [pinned, viewed];
    held.sort();
    let expected = held.map(|group| PpssEvent::MemberUnreachable { group, node: dest });
    assert_eq!(events, expected, "one event per group that held it, in group order");
    for group in [pinned, viewed, unrelated] {
        let state = &ppss.groups[&group];
        assert_eq!(state.view.iter().map(|e| e.node).collect::<Vec<_>>(), vec![other], "{group:?}");
        assert!(state.pcp.is_empty(), "{group:?}");
    }
}

/// The journal's three record kinds, pinned byte for byte: replaying
/// these images builds a state whose snapshot writes them back
/// unchanged, and a record with a byte too many, or an unknown tag, is
/// refused.
#[test]
fn journal_records_keep_their_bytes() {
    let pair = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(8));
    let key = pair.public().to_wire();
    let id = |n: u8| [[0; 15].as_slice(), &[n]].concat();
    // node, age 3, P-node, key, one gateway (n100 and its key).
    let entry = |n: u8| [&[0, 0, 0, 0, 0, 0, 0, n, 0, 3, 1][..], &key, &[1, 0, 0, 0, 0, 0, 0, 0, 100], &key].concat();
    let group = [
        &[1][..],
        &id(1),
        &[1],
        &key,
        &[1],
        &pair.to_wire(),
        &[0, 0, 0, 0, 0, 0, 0, 9, 3, 7, 7, 7],
        &[0, 0, 0, 0, 0, 0, 0, 5],
        &[2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 6],
        &[1],
        &entry(10),
    ]
    .concat();
    let pending = [&[3][..], &id(2), &key, &[2, 5, 5], &entry(11)].concat();
    let tombstone = [&[2][..], &id(3), &[4, 0xDE, 0xAD, 0xBE, 0xEF]].concat();
    let records = vec![group, pending, tombstone];

    let mut ppss = Ppss::new(PpssConfig::default());
    for record in &records {
        ppss.apply_record(record).expect("a pinned record");
    }
    assert_eq!(ppss.groups[&GroupId(1)].epoch(), 5);
    assert_eq!(ppss.pending_joins[&GroupId(2)].invitation.accreditation, [5, 5]);
    assert_eq!(ppss.deleted[&GroupId(3)], [0xDE, 0xAD, 0xBE, 0xEF]);
    assert_eq!(ppss.snapshot_records(), records);
    for record in &records {
        assert!(ppss.apply_record(&[record.as_slice(), &[0]].concat()).is_err(), "a trailing byte");
        assert!(ppss.apply_record(&record[..record.len() - 1]).is_err(), "a byte short");
    }
    assert!(ppss.apply_record(&[4]).is_err(), "an unknown tag");
}
