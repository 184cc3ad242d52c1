//! The PPSS decoders on hostile bytes (ROADMAP item 4 (a), the PPSS
//! slice; `wcl_circuits.rs::circuit_decoders_are_total_on_hostile_bytes`
//! is the template). Every message kind — the exchange request and
//! response, each carrying the sender's non-empty revoked set, and the
//! rest — and the group's signed descriptor, built from a running group's
//! own state, then cut short, grown, spliced, bit-flipped or given a
//! sequence length that claims the whole remaining input:
//! `PpssMsg::from_wire` and `GroupDescriptor::from_wire` refuse it or
//! read back exactly what they were given, never reserve more than the
//! input for it, and a member handed it does not panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use whisper_core::ppss::descriptor::GroupDescriptor;
use whisper_core::ppss::messages::{Heartbeat, PpssMsg};
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::NatType;
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode, WireError};
use whisper_net::NodeId;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

thread_local! {
    /// The largest single heap request this thread made since the reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting per thread the largest request.
struct Watching;

fn note(size: usize) {
    // `try_with`: a thread tearing its locals down still allocates.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every request is passed unchanged to `System`, whose contract is
// the one this impl inherits; the only addition is an update of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

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
/// exchanges — and every kind of PPSS message, and the group descriptor,
/// as its state makes them.
fn running_group() -> (Sim, NodeId, Vec<Image>) {
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
    sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| group = n.create_group(ctx, "hostile"));
    for &m in &ids[3..6] {
        let invitation = sim.node::<WhisperNode>(leader).unwrap().invite(group, m).unwrap();
        sim.with_node_ctx::<WhisperNode>(m, |n, ctx| n.join_group(ctx, invitation));
    }
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
    // precedes them.
    let passport_end = 1 + 16 + passport.encoded_len();
    let entries_at = passport_end + entry.encoded_len();
    let after_entries = entries_at + 4 + state.view().iter().map(|e| e.encoded_len()).sum::<usize>();
    let revoked_at = after_entries + 8 + 1 + 16 + 1 + 1;
    let key_history: Vec<Vec<u8>> = led.key_history().iter().map(|k| k.to_bytes()).collect();
    let history_len = 4 + key_history.iter().map(|k| 4 + k.len()).sum::<usize>();
    let accreditation = stack(leader).invite(group, NodeId(7)).unwrap().accreditation;
    let descriptor = led.latest_descriptor().expect("signed at birth").to_wire();
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
    images.push((Decoder::Descriptor, descriptor, vec![adds_at, adds_at + 4]));
    (sim, leader, images)
}

#[test]
fn ppss_decoders_are_total_on_hostile_bytes() {
    let (sim, leader, images) = running_group();
    // The unmutated images read back as themselves, and each prefix said
    // to be a sequence length is one: one element more breaks the image.
    for (decoder, image, seqs) in &images {
        assert_eq!(decoder.read_back(image).as_ref(), Ok(image));
        for &at in seqs {
            let count = u32::from_be_bytes(image[at..at + 4].try_into().expect("4 bytes"));
            let mut claimed = image.clone();
            claimed[at..at + 4].copy_from_slice(&(count + 1).to_be_bytes());
            assert!(decoder.read_back(&claimed).is_err(), "{decoder:?}: no sequence at {at}");
        }
    }

    let sim = RefCell::new(sim);
    whisper_rand::check::check(512, "ppss_decoders_are_total_on_hostile_bytes", |g| {
        let (decoder, image, seqs) = &images[g.gen_range(0..images.len())];
        let hostile = match g.gen_range(0..6u8) {
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
            _ => {
                // A length that claims every byte left, one per element.
                let at = match seqs.len() {
                    0 => g.gen_range(0..image.len() - 4),
                    n => seqs[g.gen_range(0..n)],
                };
                let mut claimed = image.clone();
                claimed[at..at + 4].copy_from_slice(&((image.len() - at - 4) as u32).to_be_bytes());
                claimed
            }
        };
        LARGEST.with(|n| n.set(0));
        let decoded = decoder.read_back(&hostile);
        let largest = LARGEST.with(Cell::get);
        if let Ok(read) = &decoded {
            assert_eq!(read, &hostile, "accepted, but not what it reads back as");
        }
        // A parsed key holds a few hundred bytes of Montgomery context,
        // whatever its length; nothing else may outgrow the input.
        assert!(largest <= hostile.len() + 512, "{largest} B reserved for {} B", hostile.len());

        let sim = &mut *sim.borrow_mut();
        let mut handled = None;
        sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| {
            handled = Some(match decoder {
                Decoder::Ppss => n.with_api(|api, _| api.ppss.on_delivered(ctx, api.nylon, api.wcl, None, &hostile).is_some()),
                Decoder::Descriptor => {
                    let unparseable = ctx.metrics().counter("ppss.desc_unparseable");
                    n.ppss_mut().on_descriptor(ctx, &hostile);
                    ctx.metrics().counter("ppss.desc_unparseable") == unparseable
                }
            });
        });
        assert_eq!(handled.expect("the leader is up"), decoded.is_ok());
    });
}
