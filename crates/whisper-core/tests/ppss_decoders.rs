//! The PPSS decoder on hostile bytes (ROADMAP item 4 (1), the PPSS slice;
//! `wcl_circuits.rs::circuit_decoders_are_total_on_hostile_bytes` is the
//! template). Every message kind — the exchange request, the response
//! that ships a window and asks for one, the follow-up that answers it,
//! and the rest — built from a running group's own state, then cut short,
//! grown, spliced, bit-flipped or given a sequence length that claims the
//! whole remaining input: `PpssMsg::from_wire` refuses it or reads back
//! exactly what it was given, never reserves more than the input for it,
//! and a member handed it does not panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use whisper_core::ppss::messages::{Heartbeat, PpssMsg};
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::NatType;
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::wire::{WireDecode, WireEncode};
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

/// A message image and the offsets of the sequence length prefixes in it.
type Image = (Vec<u8>, Vec<usize>);

/// A running group — leader, three members, some cycles of exchanges —
/// and every kind of PPSS message as its state makes them.
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
    sim.run_for_secs(400);

    let mut entry = None;
    sim.with_node_ctx::<WhisperNode>(member, |n, _| n.with_api(|api, _| entry = Some(api.my_entry())));
    let entry = entry.expect("the member is up");
    let stack = |id| sim.node::<WhisperNode>(id).unwrap();
    let state = stack(member).ppss().group(group).expect("joined");
    let led = stack(leader).ppss().group(group).unwrap();
    let passport = state.passport().clone();
    let window = state.membership().window().clone();
    assert!(!window.adds.is_empty() && !state.view().is_empty(), "a group that has gossiped");
    let exchange = |is_response: bool, dots| PpssMsg::Exchange {
        group,
        passport: passport.clone(),
        from_entry: Box::new(entry.clone()),
        entries: state.view().to_vec(),
        exchange_id: 77,
        is_response,
        hb: Heartbeat { epoch: state.epoch(), seq: 9 },
        election: None,
        new_key: None,
        window: state.membership().window_digest(),
        dots,
    };
    // Where the sequences start: behind the tag, the group and what
    // precedes them.
    let passport_end = 1 + 16 + passport.encoded_len();
    let entries_at = passport_end + entry.encoded_len();
    let after_entries = entries_at + 4 + state.view().iter().map(|e| e.encoded_len()).sum::<usize>();
    let window_at = after_entries + 8 + 1 + 16 + 1 + 1 + 16;
    let key_history: Vec<Vec<u8>> = led.key_history().iter().map(|k| k.to_bytes()).collect();
    let history_len = 4 + key_history.iter().map(|k| 4 + k.len()).sum::<usize>();
    let accreditation = stack(leader).invite(group, NodeId(7)).unwrap().accreditation;
    let images = vec![
        (exchange(false, None), vec![entries_at]),
        (exchange(true, Some(window.clone())), vec![entries_at, window_at]),
        (PpssMsg::Dots { group, passport: passport.clone(), dots: (*window).clone() }, vec![passport_end]),
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
    let images = images.into_iter().map(|(msg, seqs)| (msg.to_wire(), seqs)).collect();
    (sim, leader, images)
}

#[test]
fn ppss_decoders_are_total_on_hostile_bytes() {
    let (sim, leader, images) = running_group();
    // The unmutated images read back as themselves, and each prefix said
    // to be a sequence length is one: one element more breaks the image.
    for (image, seqs) in &images {
        assert_eq!(PpssMsg::from_wire(image).map(|m| m.to_wire()).as_ref(), Ok(image));
        for &at in seqs {
            let count = u32::from_be_bytes(image[at..at + 4].try_into().expect("4 bytes"));
            let mut claimed = image.clone();
            claimed[at..at + 4].copy_from_slice(&(count + 1).to_be_bytes());
            assert!(PpssMsg::from_wire(&claimed).is_err(), "no sequence at {at}");
        }
    }

    let sim = RefCell::new(sim);
    whisper_rand::check::check(512, "ppss_decoders_are_total_on_hostile_bytes", |g| {
        let (image, seqs) = &images[g.gen_range(0..images.len())];
        let hostile = match g.gen_range(0..6u8) {
            0 => [&image[..1], &g.bytes(300)].concat(),
            1 => image[..g.gen_range(0..image.len())].to_vec(),
            2 => [&image[..], &g.bytes(8), &[0]].concat(),
            3 => {
                let (other, _) = &images[g.gen_range(0..images.len())];
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
        let decoded = PpssMsg::from_wire(&hostile);
        let largest = LARGEST.with(Cell::get);
        if let Ok(msg) = &decoded {
            assert_eq!(msg.to_wire(), hostile, "accepted, but not what it reads back as");
        }
        // A parsed key holds a few hundred bytes of Montgomery context,
        // whatever its length; nothing else may outgrow the input.
        assert!(largest <= hostile.len() + 512, "{largest} B reserved for {} B", hostile.len());

        let sim = &mut *sim.borrow_mut();
        let mut handled = None;
        sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| {
            handled = Some(n.with_api(|api, _| api.ppss.on_delivered(ctx, api.nylon, api.wcl, None, &hostile)));
        });
        assert_eq!(handled.expect("the leader is up").is_some(), decoded.is_ok());
    });
}
