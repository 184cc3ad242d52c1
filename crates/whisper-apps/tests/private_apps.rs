//! End-to-end tests of applications running inside WHISPER private
//! groups: T-Chord ring convergence and confidential lookups (paper
//! §V-G), and gossip aggregation used for size estimation.

use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;
use whisper_apps::aggregation::{AggregateKind, AggregationApp};
use whisper_apps::chord::{ChordKey, IdealRing};
use whisper_apps::tchord::{TChordApp, TChordConfig};
use whisper_core::{GroupApp, GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::{NodeId, SimDuration};

/// Builds `n` nodes whose app plugin is produced by `make_app`, warms up
/// the PSS, then forms one group over `member_count` nodes led by node 3.
fn build_group(
    n: usize,
    member_count: usize,
    cfg: &WhisperConfig,
    sim_cfg: SimConfig,
    make_app: impl Fn(GroupId) -> Box<dyn GroupApp>,
    warmup: u64,
) -> (Sim, GroupId, NodeId, Vec<NodeId>) {
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
    (sim, group, leader, all_members)
}

#[test]
fn tchord_ring_converges_and_lookups_find_owners() {
    let cfg = WhisperConfig::default();
    let tcfg = TChordConfig { cycle: SimDuration::from_secs(20), ..TChordConfig::default() };
    let (mut sim, group, _leader, members) = build_group(
        30,
        12,
        &cfg,
        SimConfig::cluster(77),
        |g| Box::new(TChordApp::new(g, TChordConfig::default())),
        250,
    );
    let _ = tcfg;
    let _ = group;
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

#[test]
fn aggregation_estimates_group_size() {
    let cfg = WhisperConfig::default();
    let group_size = 10usize;
    let (mut sim, group, leader, members) = build_group(
        24,
        group_size,
        &cfg,
        SimConfig::cluster(78),
        |g| {
            Box::new(AggregationApp::new(
                g,
                AggregateKind::Average,
                0.0,
                SimDuration::from_secs(20),
            ))
        },
        250,
    );
    // Seed: the leader holds 1.0, everyone else 0 → average = 1/n.
    sim.with_node_ctx::<WhisperNode>(leader, |node, _| {
        node.with_api(|_, app| {
            let app: &mut AggregationApp = app.as_any_mut().downcast_mut().unwrap();
            *app = AggregationApp::new(
                group,
                AggregateKind::Average,
                1.0,
                SimDuration::from_secs(20),
            );
        });
    });
    for _ in 0..12 {
        sim.run_for_secs(100);
        if std::env::var("AGG_DEBUG").is_ok() {
            let vals: Vec<f64> = members
                .iter()
                .filter_map(|m| sim.node::<WhisperNode>(*m))
                .filter_map(|n| n.app::<AggregationApp>())
                .map(|a| a.estimate())
                .collect();
            let sum: f64 = vals.iter().sum();
            eprintln!("t={} sum={:.4} vals={:?}", sim.now().as_secs(), sum,
                vals.iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>());
        }
    }

    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    assert!(joined.len() >= group_size - 2);

    // Mass conservation: the sum of estimates stays 1, so the average
    // estimate over members ≈ 1/|members| and size estimates are sane.
    let estimates: Vec<f64> = joined
        .iter()
        .map(|m| {
            sim.node::<WhisperNode>(*m)
                .unwrap()
                .app::<AggregationApp>()
                .unwrap()
                .estimate()
        })
        .collect();
    let exchanged: u64 = joined
        .iter()
        .map(|m| {
            sim.node::<WhisperNode>(*m)
                .unwrap()
                .app::<AggregationApp>()
                .unwrap()
                .exchanges()
        })
        .sum();
    assert!(exchanged > 50, "only {exchanged} exchanges");
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    let implied_size = 1.0 / mean;
    // Exchange atomicity is not guaranteed over lossy confidential
    // routes, so mass conservation (and hence the size estimate) is
    // approximate; an order-of-magnitude estimate is the realistic
    // guarantee (Jelasity et al. discuss exactly this failure mode).
    assert!(
        implied_size >= joined.len() as f64 / 2.5 && implied_size <= joined.len() as f64 * 2.5,
        "implied size {implied_size:.1} vs actual {}",
        joined.len()
    );
    // Convergence: estimates are close to each other.
    let max = estimates.iter().cloned().fold(f64::MIN, f64::max);
    let min = estimates.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min.max(1e-9) < 10.0, "estimates spread too wide: {min}..{max}");
}

#[test]
fn broadcast_reaches_all_members() {
    use whisper_apps::broadcast::{BroadcastApp, BroadcastConfig};
    let cfg = WhisperConfig::default();
    let (mut sim, group, leader, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(79),
        |g| Box::new(BroadcastApp::new(g, BroadcastConfig::default())),
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
        if std::env::var("BCAST_DEBUG").is_ok() {
            let node = sim.node::<WhisperNode>(m).unwrap();
            let view: Vec<_> = node.ppss().group(group).unwrap().view().iter().map(|e| e.node).collect();
            eprintln!("{m}: delivered={} view={:?}", app.delivered().len(), view);
        }
        if app.delivered().len() >= published {
            full += 1;
        }
    }
    assert!(
        full >= joined.len() - 1,
        "{full}/{} members received all {published} events",
        joined.len()
    );
    let _ = leader;
}

#[test]
fn gosskip_sorted_overlay_answers_point_and_range_queries() {
    use whisper_apps::gosskip::{GosSkipApp, GosSkipConfig};
    let cfg = WhisperConfig::default();
    // Application keys: spread deterministically; node id * 1000 keeps
    // the order obvious.
    let (mut sim, group, _leader, members) = build_group(
        26,
        12,
        &cfg,
        SimConfig::cluster(80),
        |g| Box::new(GosSkipApp::new(g, 0, GosSkipConfig::default())),
        250,
    );
    // Assign real keys now that ids are known (node id × 1000).
    for &m in &members {
        sim.with_node_ctx::<WhisperNode>(m, |node, _| {
            node.with_api(|_, app| {
                let app: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
                *app = GosSkipApp::new(group, m.0 * 1000, GosSkipConfig::default());
            });
        });
    }
    sim.run_for_secs(700);

    let joined: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|m| {
            sim.node::<WhisperNode>(*m)
                .is_some_and(|n| n.ppss().group(group).is_some())
        })
        .collect();
    assert!(joined.len() >= 10, "{} joined", joined.len());
    let mut keys: Vec<u64> = joined.iter().map(|m| m.0 * 1000).collect();
    keys.sort_unstable();

    // Sorted-list convergence: most members know their true right
    // neighbour.
    let mut correct = 0;
    for &m in &joined {
        let app: &GosSkipApp = sim.node::<WhisperNode>(m).unwrap().app().unwrap();
        let my_key = m.0 * 1000;
        let truth = keys.iter().copied().find(|k| *k > my_key);
        let (_, right) = app.list_neighbors();
        if right.map(|d| d.key) == truth {
            correct += 1;
        }
    }
    assert!(
        correct as f64 >= joined.len() as f64 * 0.7,
        "{correct}/{} correct right neighbours",
        joined.len()
    );

    // Point searches from several members.
    let mut issued = 0;
    for (i, &m) in joined.iter().enumerate().take(6) {
        sim.with_node_ctx::<WhisperNode>(m, |node, ctx| {
            node.with_api(|api, app| {
                let app: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
                let target = keys[(i * 3) % keys.len()] + 1; // between keys
                if app.search(ctx, api, target).is_some() {
                    issued += 1;
                }
            });
        });
    }
    // One range query covering roughly half the key space.
    let lo = keys[1];
    let hi = keys[keys.len() / 2];
    let asker = joined[0];
    sim.with_node_ctx::<WhisperNode>(asker, |node, ctx| {
        node.with_api(|api, app| {
            let app: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
            app.range(ctx, api, lo, hi);
        });
    });
    sim.run_for_secs(90);

    let mut completed = 0;
    for &m in &joined {
        let app: &GosSkipApp = sim.node::<WhisperNode>(m).unwrap().app().unwrap();
        completed += app.searches().len();
    }
    assert!(
        completed as f64 >= issued as f64 * 0.6,
        "{completed}/{issued} searches completed"
    );

    let app: &GosSkipApp = sim.node::<WhisperNode>(asker).unwrap().app().unwrap();
    if let Some(range) = app.ranges().first() {
        let expected: Vec<u64> = keys.iter().copied().filter(|k| (lo..=hi).contains(k)).collect();
        let mut got = range.keys.clone();
        got.sort_unstable();
        let hit = got.iter().filter(|k| expected.contains(k)).count();
        assert!(
            hit as f64 >= expected.len() as f64 * 0.6,
            "range returned {hit}/{} expected keys",
            expected.len()
        );
    }
}

// ---------------------------------------------------------------------
// Crash-restart regressions: every app's `on_crash_restart` must drop
// exactly the volatile state (in-flight bookkeeping, overlay caches) and
// keep exactly the durable state (surfaced results, sequence counters).
// ---------------------------------------------------------------------

#[test]
fn tchord_crash_restart_drops_inflight_and_regrows_the_ring() {
    let cfg = WhisperConfig::default();
    let (mut sim, group, _leader, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(81),
        |g| Box::new(TChordApp::new(g, TChordConfig::default())),
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
fn gosskip_crash_restart_keeps_surfaced_results_only() {
    use whisper_apps::gosskip::{GosSkipApp, GosSkipConfig};
    let cfg = WhisperConfig::default();
    let (mut sim, group, _leader, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(82),
        |g| Box::new(GosSkipApp::new(g, 0, GosSkipConfig::default())),
        250,
    );
    for &m in &members {
        sim.with_node_ctx::<WhisperNode>(m, |node, _| {
            node.with_api(|_, app| {
                let app: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
                *app = GosSkipApp::new(group, m.0 * 1000, GosSkipConfig::default());
            });
        });
    }
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

    // Complete one search so a surfaced result exists.
    sim.with_node_ctx::<WhisperNode>(subject, |node, ctx| {
        node.with_api(|api, app| {
            let gs: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
            gs.search(ctx, api, joined[3].0 * 1000 + 1);
        });
    });
    sim.run_for_secs(90);
    let surfaced = sim
        .node::<WhisperNode>(subject)
        .unwrap()
        .app::<GosSkipApp>()
        .unwrap()
        .searches()
        .len();

    sim.with_node_ctx::<WhisperNode>(subject, |node, ctx| {
        node.with_api(|api, app| {
            {
                let gs: &mut GosSkipApp = app.as_any_mut().downcast_mut().unwrap();
                // Leave a search in flight when the crash hits.
                gs.search(ctx, api, joined[4].0 * 1000 + 1);
            }
            app.on_crash_restart(ctx, api);
            let gs: &GosSkipApp = app.as_any().downcast_ref().unwrap();
            assert_eq!(gs.searches().len(), surfaced, "surfaced results survive");
            let (left, right) = gs.list_neighbors();
            assert!(left.is_none() && right.is_none(), "overlay cache dropped");
        });
    });

    // The sorted overlay regrows; the orphaned search never resurfaces a
    // duplicate result.
    sim.run_for_secs(400);
    let app: &GosSkipApp = sim.node::<WhisperNode>(subject).unwrap().app().unwrap();
    let (_, right) = app.list_neighbors();
    assert!(right.is_some(), "overlay regrew after restart");
}

#[test]
fn broadcast_crash_restart_never_reuses_sequence_numbers() {
    use whisper_apps::broadcast::{BroadcastApp, BroadcastConfig};
    let cfg = WhisperConfig::default();
    let (mut sim, group, _leader, members) = build_group(
        26,
        10,
        &cfg,
        SimConfig::cluster(83),
        |g| Box::new(BroadcastApp::new(g, BroadcastConfig::default())),
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
