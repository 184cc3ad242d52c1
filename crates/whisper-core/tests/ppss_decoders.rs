//! The PPSS decoders on hostile bytes (ROADMAP item 4 (a), the PPSS slice;
//! `wcl_circuits.rs::circuit_decoders_are_total_on_hostile_bytes` is the
//! template). Every message kind — the exchange request and response, each
//! carrying the sender's non-empty revoked set, the deletion that carries a
//! tombstone, and the rest — and the signed tombstone of a deletion, built
//! from a running group's own state, then cut short, grown, spliced,
//! bit-flipped, given a sequence length that claims the whole remaining
//! input or a length prefix no decoder may take (wider than it needs,
//! claiming 2⁶² − 1, cut short): `PpssMsg::from_wire` and
//! `GroupDescriptor::from_wire` refuse it or read back exactly what they
//! were given, never reserve more than the input for it, and a member
//! handed it does not panic. A validly signed descriptor that is not a
//! tombstone changes no state. The journal's group and pending-join
//! records, mangled the same ways and framed with a valid checksum, fail a
//! restart on that disk only as counted bad records.

mod lengths;
mod watching;

use std::cell::RefCell;
use whisper_core::ppss::descriptor::GroupDescriptor;
use whisper_core::ppss::group::{issue_accreditation, Invitation, Passport};
use whisper_core::ppss::journal::Journal;
use whisper_core::ppss::messages::{Heartbeat, PpssMsg};
use whisper_core::{GroupId, PpssEvent, PrivateEntry, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::nat::NatType;
use whisper_net::sim::{Protocol, Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireLen, WireReader, WireSink, WireWriter};
use whisper_net::NodeId;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// What reads an image: the PPSS message decoder or the descriptor's.
#[derive(Clone, Copy, Debug)]
enum Decoder {
    Ppss,
    Descriptor,
}

impl Decoder {
    /// Decodes `bytes` and re-encodes what it read.
    fn read_back(self, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        match self {
            Decoder::Ppss => PpssMsg::from_wire(bytes).map(|m| m.to_wire()),
            Decoder::Descriptor => GroupDescriptor::from_wire(bytes).map(|d| d.to_wire()),
        }
    }
}

/// An image, its decoder and the offsets of the sequence length prefixes
/// in it.
type Image = (Decoder, Vec<u8>, Vec<usize>);

/// A running group — leader, three members, a revocation, some cycles of
/// exchanges — and every kind of PPSS message as its state makes them,
/// and the tombstone of a second group the leader deleted, which the
/// first member still holds. Returns the sim, the leader, that member and
/// the images.
fn running_group() -> (Sim, NodeId, NodeId, Vec<Image>) {
    let cfg = WhisperConfig::default();
    let mut keys = StdRng::seed_from_u64(25);
    let mut sim = Sim::new(SimConfig::cluster(25));
    let ids: Vec<NodeId> = (0..8u64)
        .map(|i| {
            let mut node = WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut keys));
            node.nylon_mut().set_bootstrap([NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect());
            sim.add_node(Box::new(node), NatType::Public)
        })
        .collect();
    sim.run_for_secs(150);
    let (leader, member) = (ids[2], ids[3]);
    let mut group = GroupId(0);
    let mut doomed = GroupId(0);
    sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| {
        group = n.create_group(ctx, "hostile");
        doomed = n.create_group(ctx, "doomed");
    });
    for &m in &ids[3..6] {
        let invitation = sim.node::<WhisperNode>(leader).unwrap().invite(group, m).unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |n, ctx| n.join_group(ctx, invitation));
    }
    let invitation = sim.node::<WhisperNode>(leader).unwrap().invite(doomed, member).unwrap();
    sim.with_node_ctx::<WhisperNode>(member, |n, ctx| n.join_group(ctx, invitation));
    sim.run_for_secs(200);
    sim.with_node_ctx::<WhisperNode>(leader, |n, _| assert!(n.remove_member(group, ids[5])));
    sim.run_for_secs(200);

    let mut entry = None;
    sim.with_node_ctx::<WhisperNode>(member, |n, _| n.with_api(|api, _| entry = Some(api.my_entry())));
    let entry = entry.expect("the member is up");
    let stack = |id| sim.node::<WhisperNode>(id).unwrap();
    let state = stack(member).ppss().group(group).expect("joined");
    let led = stack(leader).ppss().group(group).unwrap();
    let passport = state.passport().clone();
    assert!(!state.revoked().is_empty() && !state.view().is_empty(), "a group that has gossiped");
    let exchange = |is_response: bool| PpssMsg::Exchange {
        group,
        passport: passport.clone(),
        from_entry: Box::new(entry.clone()),
        entries: state.view().to_vec(),
        exchange_id: 77,
        is_response,
        hb: Heartbeat { epoch: state.epoch(), seq: 9 },
        election: None,
        new_key: None,
        revoked: state.revoked().iter().copied().collect(),
    };
    // Where the sequences start: behind the tag, the group and what
    // precedes them, as the codec sizes it.
    let passport_end = 1 + 16 + passport.encoded_len();
    let entries_at = passport_end + entry.encoded_len();
    let after_entries = entries_at + WireLen::of(|n| n.put_seq(state.view()));
    let revoked_at = after_entries + 8 + 1 + 16 + 1 + 1;
    let key_history = led.key_history().to_vec();
    let history_len = WireLen::of(|n| n.put_seq(&key_history));
    let accreditation = stack(leader).invite(group, NodeId(7)).unwrap().accreditation;
    // Behind the group, epoch, sequence, key hash and tombstone flag.
    let adds_at = 16 + 8 + 8 + 32 + 1;
    let messages = vec![
        (exchange(false), vec![entries_at, revoked_at]),
        (exchange(true), vec![entries_at, revoked_at]),
        (PpssMsg::JoinReq { group, accreditation, entry: entry.clone() }, vec![]),
        (
            PpssMsg::JoinAck {
                group,
                passport: passport.clone(),
                key_history,
                entries: led.view().to_vec(),
            },
            vec![passport_end, passport_end + history_len],
        ),
        (
            PpssMsg::AppData {
                group,
                passport: passport.clone(),
                data: b"hostile".to_vec(),
                reply_entry: Some(entry.clone()),
            },
            vec![],
        ),
        (PpssMsg::AppShort { group, data: b"hostile".to_vec() }, vec![]),
        (PpssMsg::PcpRefresh { group, passport, entry, respond: true }, vec![]),
    ];
    let mut images: Vec<Image> =
        messages.into_iter().map(|(msg, seqs)| (Decoder::Ppss, msg.to_wire(), seqs)).collect();
    // The sim does not run on: the member holds `doomed` while the
    // leader's push of the tombstone waits in the queue.
    assert!(stack(member).ppss().group(doomed).is_some(), "the member joined both");
    sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| assert!(n.delete_group(ctx, doomed)));
    let tombstone = sim.node::<WhisperNode>(leader).unwrap().ppss().tombstone(doomed).unwrap().to_vec();
    let deleted = PpssMsg::Deleted { tombstone: tombstone.clone(), exchange_id: 77 };
    images.push((Decoder::Ppss, deleted.to_wire(), vec![1]));
    let adds = GroupDescriptor::from_wire(&tombstone).expect("a tombstone as signed").adds;
    let removes_at = adds_at + WireLen::of(|n| n.put_seq(&adds));
    images.push((Decoder::Descriptor, tombstone, vec![adds_at, removes_at]));
    (sim, leader, member, images)
}

#[test]
fn ppss_decoders_are_total_on_hostile_bytes() {
    let (sim, leader, member, images) = running_group();
    // The unmutated images read back as themselves, and each prefix said
    // to be a sequence length is one: one element more breaks the image.
    for (decoder, image, seqs) in &images {
        assert_eq!(decoder.read_back(image).as_ref(), Ok(image));
        for &at in seqs {
            let claimed = lengths::with_len(image, at, lengths::len_at(image, at).0 + 1);
            assert!(decoder.read_back(&claimed).is_err(), "{decoder:?}: no sequence at {at}");
        }
    }

    let sim = RefCell::new(sim);
    whisper_rand::check::check(512, "ppss_decoders_are_total_on_hostile_bytes", |g| {
        let (decoder, image, seqs) = &images[g.gen_range(0..images.len())];
        let hostile = match g.gen_range(0..7u8) {
            0 => [&image[..1], &g.bytes(300)].concat(),
            1 => image[..g.gen_range(0..image.len())].to_vec(),
            2 => [&image[..], &g.bytes(8), &[0]].concat(),
            3 => {
                let (_, other, _) = &images[g.gen_range(0..images.len())];
                let (head, tail) = (g.gen_range(0..=image.len()), g.gen_range(0..=other.len()));
                [&image[..head], &other[tail..]].concat()
            }
            4 => {
                let mut flipped = image.clone();
                flipped[g.gen_range(0..image.len())] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
            5 if !seqs.is_empty() => {
                // A length prefix no decoder may take.
                let at = seqs[g.gen_range(0..seqs.len())];
                lengths::refused_prefix(g, image, at)
            }
            _ => {
                // A length that claims every byte left, one per element:
                // over a sequence's count, or over a byte anywhere when
                // there is none.
                let (at, replaced) = match seqs.len() {
                    0 => (g.gen_range(0..image.len()), 1),
                    n => {
                        let at = seqs[g.gen_range(0..n)];
                        (at, lengths::len_at(image, at).1)
                    }
                };
                lengths::claiming_the_rest(image, at, replaced)
            }
        };
        let (decoded, largest) = watching::largest_during(|| decoder.read_back(&hostile));
        if let Ok(read) = &decoded {
            assert_eq!(read, &hostile, "accepted, but not what it reads back as");
        }
        // A parsed key holds a few hundred bytes of Montgomery context,
        // whatever its length; nothing else may outgrow the input.
        assert!(largest <= hostile.len() + 512, "{largest} B reserved for {} B", hostile.len());

        // Messages go to the leader; tombstones, pushed as a deletion
        // would push them, to the member that still holds the deleted
        // group, which checks their signatures.
        let sim = &mut *sim.borrow_mut();
        let mut handled = None;
        let to = match decoder {
            Decoder::Ppss => leader,
            Decoder::Descriptor => member,
        };
        sim.with_node_ctx::<WhisperNode>(to, |n, ctx| {
            let unparseable = ctx.metrics().counter("ppss.desc_unparseable");
            let wire = match decoder {
                Decoder::Ppss => hostile.clone(),
                Decoder::Descriptor => PpssMsg::Deleted { tombstone: hostile.clone(), exchange_id: 0 }.to_wire(),
            };
            let delivered = n.with_api(|api, _| api.ppss.on_delivered(ctx, api.wcl, None, &wire).is_some());
            handled = Some(match decoder {
                Decoder::Ppss => delivered,
                Decoder::Descriptor => ctx.metrics().counter("ppss.desc_unparseable") == unparseable,
            });
        });
        assert_eq!(handled.expect("the node is up"), decoded.is_ok());
    });
}

/// Two public stacks; the first has asked to join a group whose key is
/// returned, so that the test can write what its leader would send.
/// Returns the sim, the joiner, the group and the group's key.
fn a_pending_join(seed: u64) -> (Sim, NodeId, GroupId, KeyPair) {
    let cfg = WhisperConfig::default();
    let mut keys = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));
    let ids: Vec<NodeId> = (0..2u64)
        .map(|i| {
            let mut node = WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut keys));
            node.nylon_mut().set_bootstrap(vec![NodeId(1 - i)]);
            sim.add_node(Box::new(node), NatType::Public)
        })
        .collect();
    sim.run_for_secs(30);
    let (me, other) = (ids[0], ids[1]);
    let group_key = KeyPair::generate(cfg.nylon.rsa, &mut keys);
    let group = GroupId::from_name("live");
    let mut entry_point = None;
    sim.with_node_ctx::<WhisperNode>(other, |n, _| n.with_api(|api, _| entry_point = Some(api.my_entry())));
    let invitation = Invitation {
        group,
        group_key: group_key.public().clone(),
        accreditation: issue_accreditation(&group_key, group, me),
        entry_point: entry_point.unwrap(),
    };
    sim.with_node_ctx::<WhisperNode>(me, |n, ctx| n.join_group(ctx, invitation));
    (sim, me, group, group_key)
}

/// Hands `wire` to `node`'s PPSS as the WCL delivers a payload: its events,
/// or `None` for what does not parse.
fn deliver_wire(sim: &mut Sim, node: NodeId, wire: &[u8]) -> Option<Vec<PpssEvent>> {
    let mut events = None;
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        events = n.with_api(|api, _| api.ppss.on_delivered(ctx, api.wcl, None, wire));
    });
    events
}

/// A join acknowledgement's key history is keys, parsed with the message:
/// one with an image that is no key is refused whole and counted, not
/// judged on the keys that do parse.
#[test]
fn a_join_ack_with_a_key_that_does_not_parse_is_refused() {
    let (mut sim, me, group, group_key) = a_pending_join(27);
    let stranger = KeyPair::generate(WhisperConfig::default().nylon.rsa, &mut StdRng::seed_from_u64(28));
    let ack = |key_history| PpssMsg::JoinAck {
        group,
        passport: Passport::issue(&group_key, group, me),
        key_history,
        entries: vec![],
    };
    // An older key, its image led by a zero byte, then the current one.
    let mut wire = ack(vec![stranger.public().clone(), group_key.public().clone()]).to_wire();
    let image = stranger.public().wire_bytes();
    let at = wire.windows(image.len()).position(|w| w == image).expect("the older key's image");
    wire[at] = 0;
    assert_eq!(deliver_wire(&mut sim, me, &wire), None, "refused at decode");
    assert_eq!(sim.metrics().counter("ppss.malformed"), 1);
    let joined = |sim: &Sim| sim.node::<WhisperNode>(me).unwrap().ppss().group(group).is_some();
    assert!(!joined(&sim), "no group from an ack that does not parse");
    assert_eq!(sim.metrics().counter("ppss.join_ack_invalid"), 0, "never got as far as a check");
    // The same ack with the key whole is taken.
    let wire = ack(vec![stranger.public().clone(), group_key.public().clone()]).to_wire();
    let events = deliver_wire(&mut sim, me, &wire).expect("parses");
    assert!(events.contains(&PpssEvent::Joined { group }), "{events:?}");
    assert!(joined(&sim));
}

/// A descriptor that verifies under the group's key but is no tombstone
/// changes nothing at a member: no epoch, no event, no journal record —
/// it is only counted. The same key's tombstone deletes the group.
/// An exchange whose sender entry carries a key no node could have made —
/// an odd 4 KiB modulus, whose every use would cost what thousands of
/// real keys do — is refused at decode and counted, before any of it is
/// used; the same exchange with the entry's own key parses.
#[test]
fn an_exchange_whose_entry_carries_an_oversized_key_is_malformed() {
    let (mut sim, me, group, group_key) = a_pending_join(29);
    let mut entry = None;
    sim.with_node_ctx::<WhisperNode>(me, |n, _| n.with_api(|api, _| entry = Some(api.my_entry())));
    let entry = entry.expect("the member is up");
    let wire = PpssMsg::Exchange {
        group,
        passport: Passport::issue(&group_key, group, me),
        from_entry: Box::new(entry.clone()),
        entries: vec![],
        exchange_id: 77,
        is_response: false,
        hb: Heartbeat::default(),
        election: None,
        new_key: None,
        revoked: Default::default(),
    }
    .to_wire();
    assert!(PpssMsg::from_wire(&wire).is_ok());
    let framed = |image: &[u8]| {
        let mut w = WireWriter::new();
        w.put_bytes(image);
        w.into_bytes()
    };
    let real = framed(entry.key.wire_bytes());
    let at = wire.windows(real.len()).position(|w| w == real).expect("the entry's key");
    let mut oversized = vec![0x5A; 4096];
    oversized[0] = 0xC5;
    oversized[4095] = 0x5B;
    let hostile = [&wire[..at], &framed(&oversized), &wire[at + real.len()..]].concat();
    assert_eq!(deliver_wire(&mut sim, me, &hostile), None, "refused at decode");
    assert_eq!(sim.metrics().counter("ppss.malformed"), 1);
}

#[test]
fn a_validly_signed_live_descriptor_changes_no_state() {
    let (mut sim, me, group, group_key) = a_pending_join(26);
    let ack = PpssMsg::JoinAck {
        group,
        passport: Passport::issue(&group_key, group, me),
        key_history: vec![group_key.public().clone()],
        entries: vec![],
    };
    let deliver = |sim: &mut Sim, msg: PpssMsg| deliver_wire(sim, me, &msg.to_wire()).unwrap();
    let pushed = |desc: &GroupDescriptor| PpssMsg::Deleted { tombstone: desc.to_wire(), exchange_id: 0 };
    deliver(&mut sim, ack);
    let epoch = |sim: &Sim| sim.node::<WhisperNode>(me).unwrap().ppss().group(group).map(|s| s.epoch());
    let journal = |sim: &Sim| sim.node::<WhisperNode>(me).unwrap().ppss().journal().raw().to_vec();
    assert_eq!(epoch(&sim), Some(0), "joined");
    let before = journal(&sim);

    let history = [group_key.public().clone()];
    let sign = |tombstone| GroupDescriptor::sign(&group_key, group, 5, 1, &history, tombstone, vec![], vec![], 0);
    let live = sign(false);
    assert!(live.verify(&history));
    assert_eq!(deliver(&mut sim, pushed(&live)), vec![]);
    assert_eq!(epoch(&sim), Some(0), "the descriptor's epoch was adopted");
    assert_eq!(journal(&sim), before, "the descriptor was journaled");
    assert_eq!(sim.metrics().counter("ppss.desc_ignored"), 1);

    assert_eq!(deliver(&mut sim, pushed(&sign(true))), vec![PpssEvent::GroupDeleted { group }]);
    assert_eq!(epoch(&sim), None);
}

/// Journal record tags, as the PPSS writes them.
const REC_GROUP: u8 = 1;
const REC_TOMBSTONE: u8 = 2;
const REC_PENDING: u8 = 3;

/// Reads a journal record as a restart does: `Err` when its layout does
/// not hold or a key in it does not parse; else the offsets of its length
/// prefixes.
fn read_record(record: &[u8]) -> Result<Vec<usize>, WireError> {
    let mut r = WireReader::new(record);
    let at = |r: &WireReader<'_>| record.len() - r.remaining();
    let mut prefixes = Vec::new();
    match r.take_u8()? {
        REC_GROUP => {
            r.take::<GroupId>()?;
            prefixes.push(at(&r));
            r.take_seq::<PublicKey>()?;
            let leader_at = at(&r) + 1;
            let leader: Option<KeyPair> = r.take_opt()?;
            prefixes.extend(leader.as_ref().map(|_| leader_at));
            // The passport's signature, behind its node.
            prefixes.push(at(&r) + 8);
            r.take::<Passport>()?;
            r.take_u64()?;
            prefixes.push(at(&r));
            r.take_seq::<NodeId>()?;
            prefixes.push(at(&r));
            r.take_seq::<PrivateEntry>()?;
        }
        REC_TOMBSTONE => {
            r.take::<GroupId>()?;
            r.take_bytes()?;
        }
        REC_PENDING => {
            r.take::<GroupId>()?;
            prefixes.push(at(&r));
            r.take::<PublicKey>()?;
            prefixes.push(at(&r));
            r.take_bytes()?;
            // The entry point's key behind its node, age and flag, then
            // its gateways.
            let key_at = at(&r) + 8 + 2 + 1;
            let entry: PrivateEntry = r.take()?;
            prefixes.extend([key_at, key_at + WireLen::of(|n| n.put(&entry.key))]);
        }
        _ => return Err(WireError::new("journal record tag")),
    }
    r.finish()?;
    Ok(prefixes)
}

/// Crash-restarts `node` on `disk` and returns the bad records the
/// replay counted.
fn restart_on(sim: &mut Sim, node: NodeId, disk: Journal) -> u64 {
    let mut bad = 0;
    sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
        let before = ctx.metrics().counter("ppss.journal_bad_record");
        *n.ppss_mut().journal_mut() = disk;
        n.on_crash_restart(ctx);
        bad = ctx.metrics().counter("ppss.journal_bad_record") - before;
    });
    bad
}

/// Each group and pending-join record of the leader's journal, cut short,
/// grown, bit-flipped, given a length that claims more than the input
/// holds or a length prefix no decoder may take, re-framed with a valid
/// checksum among the intact others: the leader restarts on that disk
/// without panicking,
/// `ppss.journal_bad_record` counts the record exactly when it does not
/// parse, and no group whose tombstone record is intact comes back.
#[test]
fn journal_records_are_total_on_hostile_bytes() {
    let (mut sim, leader, member, _) = running_group();
    // A join the leader started and nobody has answered yet.
    let mut later = GroupId(0);
    sim.with_node_ctx::<WhisperNode>(member, |n, ctx| later = n.create_group(ctx, "later"));
    let invitation = sim.node::<WhisperNode>(member).unwrap().invite(later, leader).unwrap();
    sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| n.join_group(ctx, invitation));
    let records = sim.node::<WhisperNode>(leader).unwrap().ppss().journal().replay().records;
    let tombstoned: Vec<GroupId> = records
        .iter()
        .filter(|r| r[0] == REC_TOMBSTONE)
        .map(|r| GroupId::from_wire(&r[1..17]).unwrap())
        .collect();
    let targets: Vec<usize> =
        (0..records.len()).filter(|&i| matches!(records[i][0], REC_GROUP | REC_PENDING)).collect();
    for tag in [REC_GROUP, REC_PENDING] {
        assert!(targets.iter().any(|&i| records[i][0] == tag), "no record tagged {tag}");
    }
    assert!(!tombstoned.is_empty(), "the leader deleted a group");
    let disk = |records: &[Vec<u8>]| {
        let mut journal = Journal::new();
        for record in records {
            journal.append(record);
        }
        journal
    };
    assert_eq!(restart_on(&mut sim, leader, disk(&records)), 0, "the intact journal");

    let sim = RefCell::new(sim);
    whisper_rand::check::check(256, "journal_records_are_total_on_hostile_bytes", |g| {
        let target = targets[g.gen_range(0..targets.len())];
        let record = &records[target];
        let prefixes = read_record(record).expect("a record as written");
        let hostile = match g.gen_range(0..5u8) {
            0 => record[..g.gen_range(0..record.len())].to_vec(),
            1 => [&record[..], &g.bytes(8), &[0]].concat(),
            2 => {
                let mut flipped = record.clone();
                flipped[g.gen_range(0..record.len())] ^= 1 << g.gen_range(0..8u32);
                flipped
            }
            3 => {
                let at = prefixes[g.gen_range(0..prefixes.len())];
                let claimed = if g.gen() { u32::MAX as usize } else { record.len() - at };
                lengths::with_len(record, at, claimed)
            }
            _ => {
                let at = prefixes[g.gen_range(0..prefixes.len())];
                lengths::refused_prefix(g, record, at)
            }
        };
        let mut mangled = records.clone();
        mangled[target] = hostile.clone();
        let sim = &mut *sim.borrow_mut();
        let bad = restart_on(sim, leader, disk(&mangled));
        match read_record(&hostile) {
            Err(e) => assert_eq!(bad, 1, "unparseable ({e}), not counted"),
            Ok(_) => assert_eq!(bad, 0, "parses, but counted"),
        }
        let ppss = sim.node::<WhisperNode>(leader).unwrap().ppss();
        for &group in &tombstoned {
            assert!(ppss.group(group).is_none() && ppss.tombstone(group).is_some(), "{group:?} restored");
        }
    });
}
