//! End-to-end tests of applications running inside WHISPER private
//! groups: T-Chord ring convergence and confidential lookups (paper
//! §V-G), probabilistic broadcast to every member (the paper's private
//! chat rooms), and what each app keeps across a crash-restart.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper_apps::chord::{ChordKey, IdealRing};
use whisper_apps::tchord::TChordApp;
use whisper_core::{GroupApp, GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::NodeId;

/// Builds `n` nodes whose app plugin is produced by `make_app`, warms up
/// the PSS, then forms one group over `member_count` nodes led by node 3,
/// the first of the members it returns.
fn build_group(
    n: usize,
    member_count: usize,
    cfg: &WhisperConfig,
    sim_cfg: SimConfig,
    make_app: impl Fn(GroupId) -> Box<dyn GroupApp>,
    warmup: u64,
) -> (Sim, GroupId, Vec<NodeId>) {
    let group = GroupId::from_name("app-group");
    let mut keyrng = StdRng::seed_from_u64(0xAB);
    let mut sim = Sim::new(sim_cfg);
    let dist = NatDistribution::paper_default();
    let mut ids = Vec::new();
    for i in 0..n {
        let mut node = WhisperNode::with_app(
            cfg.clone(),
            KeyPair::generate(cfg.nylon.rsa, &mut keyrng),
            make_app(group),
        );
        let nat = if i < 2 { NatType::Public } else { dist.sample(sim.rng()) };
        if i >= 2 {
            node.nylon_mut().set_bootstrap(vec![NodeId(0), NodeId(1)]);
        } else {
            node.nylon_mut().set_bootstrap(vec![NodeId((i as u64 + 1) % 2)]);
        }
        ids.push(sim.add_node(Box::new(node), nat));
    }
    sim.run_for_secs(warmup);

    let leader = ids[3];
    sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
        node.create_group(ctx, "app-group");
    });
    let members: Vec<NodeId> = ids[4..4 + member_count - 1].to_vec();
    for &m in &members {
        let inv = sim
            .node::<WhisperNode>(leader)
            .unwrap()
            .invite(group, m)
            .unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| node.join_group(ctx, inv));
    }
    let mut all_members = vec![leader];
    all_members.extend(members);
    (sim, group, all_members)
}

#[test]
fn tchord_ring_converges_and_lookups_find_owners() {
    let cfg = WhisperConfig::default();
    let (mut sim, group, members) = build_group(
        30,
        12,
        &cfg,
        SimConfig::cluster(77),
        |g| Box::new(TChordApp::new(g)),
        250,
    );
    sim.run_for_secs(900); // PPSS + T-Man convergence

    // Which members actually joined?
    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    assert!(joined.len() >= 10, "{}/12 joined", joined.len());

    // Ring convergence: most members know their true successor.
    let ring = IdealRing::new(&joined);
    let mut correct_succ = 0;
    for &m in &joined {
        let node: &WhisperNode = sim.node(m).unwrap();
        let app: &TChordApp = node.app().expect("tchord app");
        if let (Some(sel), Some(truth)) =
            (app.neighbors().successors.first(), ring.successor_of(m))
        {
            if *sel == truth {
                correct_succ += 1;
            }
        }
    }
    assert!(
        correct_succ as f64 >= joined.len() as f64 * 0.75,
        "{correct_succ}/{} correct successors",
        joined.len()
    );

    // Lookups: every member queries random keys; owners must match the
    // ideal ring computed over the *joined* membership.
    let mut issued = 0;
    for (i, &m) in joined.iter().enumerate() {
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| {
            node.with_api(|api, app| {
                let app: &mut TChordApp = app.as_any_mut().downcast_mut().unwrap();
                for q in 0..5u64 {
                    let key = ChordKey::of_data(&(i as u64 * 100 + q).to_be_bytes());
                    if app.lookup(ctx, api, key).is_some() {
                        issued += 1;
                    }
                }
            });
        });
    }
    assert!(issued >= 40, "only {issued} lookups issued");
    sim.run_for_secs(180);

    let mut completed = 0;
    let mut correct_owner = 0;
    for &m in &joined {
        let node: &WhisperNode = sim.node(m).unwrap();
        let app: &TChordApp = node.app().unwrap();
        for result in app.completed() {
            completed += 1;
            let (_, truth) = ring.owner(result.key);
            if truth == result.owner {
                correct_owner += 1;
            }
        }
    }
    assert!(
        completed as f64 >= issued as f64 * 0.8,
        "{completed}/{issued} lookups completed"
    );
    assert!(
        correct_owner as f64 >= completed as f64 * 0.9,
        "{correct_owner}/{completed} correct owners"
    );
}

/// Retries walk the outstanding lookups in issue order: a member holds 8
/// lookups that nobody answers, re-issues all of them in one cycle — each
/// through a WCL route that draws from the node RNG — and two such runs in
/// one process leave equal traces.
#[test]
fn tchord_retries_are_deterministic() {
    let run = || {
        let (mut sim, group, members) = build_group(
            24,
            8,
            &WhisperConfig::default(),
            SimConfig::cluster(83),
            |g| Box::new(TChordApp::new(g)),
            250,
        );
        sim.run_for_secs(300);
        let querier = members[1];
        // Every other member's T-Chord now serves another group, so it
        // ignores this group's lookups.
        let elsewhere = GroupId::from_name("elsewhere");
        for &m in members.iter().filter(|m| **m != querier) {
            sim.with_node_ctx::<WhisperNode>(m, |node, _| {
                node.with_api(|_, app| {
                    *app.as_any_mut().downcast_mut::<TChordApp>().unwrap() = TChordApp::new(elsewhere);
                });
            });
        }
        sim.with_node_ctx::<WhisperNode>(querier, |node, ctx| {
            node.with_api(|api, app| {
                let tc: &mut TChordApp = app.as_any_mut().downcast_mut().unwrap();
                for q in 0..64u64 {
                    if tc.pending_count() == 8 {
                        break;
                    }
                    tc.lookup(ctx, api, ChordKey::of_data(&q.to_be_bytes()));
                }
                assert_eq!(tc.pending_count(), 8, "8 lookups routed into {group:?}");
            });
        });
        // The retry delay is half a cycle, so each timer tick finds all 8
        // overdue at once; by the third such tick the routes the first
        // issue built have expired, and each retry builds a fresh one.
        sim.run_for_secs(110);
        assert_eq!(sim.metrics().counter("tchord.lookups_retried"), 3 * 8);
        let mut trace = sim.metrics().deterministic_trace();
        trace.extend_from_slice(&sim.now().as_micros().to_le_bytes());
        trace
    };
    assert!(run() == run(), "two runs of one simulation left different traces");
}

#[test]
fn broadcast_reaches_all_members() {
    use whisper_apps::broadcast::BroadcastApp;
    let cfg = WhisperConfig::default();
    let (mut sim, group, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(79),
        |g| Box::new(BroadcastApp::new(g)),
        250,
    );
    sim.run_for_secs(250);
    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    assert!(joined.len() >= 8, "{} joined", joined.len());

    // Three members publish two events each.
    let mut published = 0;
    for &speaker in joined.iter().take(3) {
        sim.with_node_ctx::<WhisperNode>(speaker, |node, ctx| {
            node.with_api(|api, app| {
                let app: &mut BroadcastApp = app.as_any_mut().downcast_mut().unwrap();
                app.publish(ctx, api, b"one".to_vec());
                app.publish(ctx, api, b"two".to_vec());
                published += 2;
            });
        });
    }
    sim.run_for_secs(180); // a dozen broadcast cycles

    let mut full = 0;
    for &m in &joined {
        let app: &BroadcastApp = sim.node::<WhisperNode>(m).unwrap().app().unwrap();
        if app.delivered().len() >= published {
            full += 1;
        }
    }
    assert!(
        full >= joined.len() - 1,
        "{full}/{} members received all {published} events",
        joined.len()
    );
}

// ---------------------------------------------------------------------
// Crash-restart regressions: every app's `on_crash_restart` must drop
// exactly the volatile state (in-flight bookkeeping, overlay caches) and
// keep exactly the durable state (surfaced results, sequence counters).
// ---------------------------------------------------------------------

#[test]
fn tchord_crash_restart_drops_inflight_and_regrows_the_ring() {
    let cfg = WhisperConfig::default();
    let (mut sim, group, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(81),
        |g| Box::new(TChordApp::new(g)),
        250,
    );
    sim.run_for_secs(700);
    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    assert!(joined.len() >= 8, "{} joined", joined.len());
    let subject = joined[1];

    // Create in-flight state, then crash the app.
    sim.with_node_ctx::<WhisperNode>(subject, |node, ctx| {
        node.with_api(|api, app| {
            {
                let tc: &mut TChordApp = app.as_any_mut().downcast_mut().unwrap();
                tc.lookup(ctx, api, ChordKey::of_data(b"doomed-query"));
                assert!(tc.pending_count() >= 1, "lookup is in flight");
                assert!(!tc.neighbors().successors.is_empty(), "ring formed");
            }
            app.on_crash_restart(ctx, api);
            let tc: &TChordApp = app.as_any().downcast_ref().unwrap();
            assert_eq!(tc.pending_count(), 0, "in-flight lookups died with the process");
            assert!(tc.neighbors().successors.is_empty(), "ring cache dropped");
            assert!(tc.neighbors().predecessor.is_none(), "predecessor dropped");
            assert!(tc.my_key().is_some(), "ring key re-derivable, kept");
        });
    });

    // The overlay is regrown from the PPSS within a few T-Man cycles —
    // the reset is a clean slate, not a dead end.
    sim.run_for_secs(400);
    let app: &TChordApp = sim.node::<WhisperNode>(subject).unwrap().app().unwrap();
    assert!(
        !app.neighbors().successors.is_empty(),
        "ring regrew after restart"
    );
}

#[test]
fn broadcast_crash_restart_never_reuses_sequence_numbers() {
    use whisper_apps::broadcast::BroadcastApp;
    let cfg = WhisperConfig::default();
    let (mut sim, group, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(83),
        |g| Box::new(BroadcastApp::new(g)),
        250,
    );
    sim.run_for_secs(250);
    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    assert!(joined.len() >= 8, "{} joined", joined.len());
    let speaker = joined[1];

    let mut pre_crash_seq = 0;
    sim.with_node_ctx::<WhisperNode>(speaker, |node, ctx| {
        node.with_api(|api, app| {
            let id = {
                let bc: &mut BroadcastApp = app.as_any_mut().downcast_mut().unwrap();
                bc.publish(ctx, api, b"before-crash".to_vec())
            };
            pre_crash_seq = id.seq;
            app.on_crash_restart(ctx, api);
            let bc: &mut BroadcastApp = app.as_any_mut().downcast_mut().unwrap();
            // The sequence counter is the app's durable journal: reusing
            // a pre-crash seq would collide event ids and silently lose
            // events at every subscriber's dedup set.
            let id2 = bc.publish(ctx, api, b"after-crash".to_vec());
            assert!(id2.seq > pre_crash_seq, "sequence numbers never reused");
            assert_eq!(bc.published(), 2, "publish count survives the crash");
        });
    });

    // Both events — including the pre-crash one, whose payload buffer
    // was wiped — reach the other members via anti-entropy from peers
    // that already held it.
    sim.run_for_secs(240);
    let mut got_both = 0;
    for &m in &joined {
        if m == speaker {
            continue;
        }
        let app: &BroadcastApp = sim.node::<WhisperNode>(m).unwrap().app().unwrap();
        let from_speaker = app
            .delivered()
            .iter()
            .filter(|e| e.id.origin == speaker)
            .count();
        if from_speaker >= 2 {
            got_both += 1;
        }
    }
    assert!(
        got_both >= joined.len() - 2,
        "{got_both}/{} members hold both events across the crash",
        joined.len() - 1
    );
}
