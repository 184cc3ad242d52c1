//! Property-based tests for the network substrate: wire-codec round
//! trips and fuzzed decoding, NAT filter laws, CDF invariants.
//!
//! Written against `whisper_rand::check`: seeded case generation with
//! shrink-on-failure reporting.

use whisper_net::nat::{NatDevice, NatType};
use whisper_net::sched::{EventKey, EventQueue, Keyed, Scheduler};
use whisper_net::stats::Cdf;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireLen, WireReader, WireSink, WireWriter};
use whisper_net::{Endpoint, NodeId, SimDuration, SimTime};
use whisper_rand::check::check;
use whisper_rand::Rng;

#[test]
fn primitives_round_trip() {
    check(128, "primitives_round_trip", |g| {
        let a: u8 = g.gen();
        let b: u16 = g.gen();
        let c: u32 = g.gen();
        let d: u64 = g.gen();
        let bytes = g.bytes(99);
        let mut w = WireWriter::new();
        w.put_u8(a);
        w.put_u16(b);
        w.put_u32(c);
        w.put_u64(d);
        w.put_bytes(&bytes);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_u8().unwrap(), a);
        assert_eq!(r.take_u16().unwrap(), b);
        assert_eq!(r.take_u32().unwrap(), c);
        assert_eq!(r.take_u64().unwrap(), d);
        assert_eq!(r.take_bytes().unwrap(), &bytes[..]);
        assert!(r.finish().is_ok());
    });
}

/// `len` as a `width`-byte prefix: the width's two-bit code above the
/// value, whether or not the value needs that many bytes.
fn len_in_width(len: u64, width: usize) -> Vec<u8> {
    let v = len | u64::from(width.trailing_zeros()) << (8 * width - 2);
    v.to_be_bytes()[8 - width..].to_vec()
}

/// A length at each edge of each width takes the fewest bytes that hold
/// it — the bytes RFC 9000 §16 spells — reads back, and counts as written.
#[test]
fn lengths_round_trip_at_every_width_edge() {
    let edges: [(usize, &[u8]); 8] = [
        (0, &[0x00]),
        (63, &[0x3F]),
        (64, &[0x40, 0x40]),
        (16_383, &[0x7F, 0xFF]),
        (16_384, &[0x80, 0x00, 0x40, 0x00]),
        ((1 << 30) - 1, &[0xBF, 0xFF, 0xFF, 0xFF]),
        (1 << 30, &[0xC0, 0, 0, 0, 0x40, 0, 0, 0]),
        ((1 << 62) - 1, &[0xFF; 8]),
    ];
    for (len, image) in edges {
        let mut w = WireWriter::new();
        w.put_len(len);
        assert_eq!(w.into_bytes(), image, "{len}");
        assert_eq!(WireLen::of(|n| n.put_len(len)), image.len(), "{len}");
        let mut r = WireReader::new(image);
        assert_eq!(r.take_len(), Ok(len));
        r.finish().unwrap();
        // Cut short anywhere, it is refused.
        for cut in 0..image.len() {
            assert_eq!(WireReader::new(&image[..cut]).take_len(), Err(WireError::new("truncated input")));
        }
    }
}

/// No length is written wider than it needs, and none that was is read:
/// every value below 2¹⁴ in each wider form, and values of every width in
/// each form wider than theirs.
#[test]
fn every_non_minimal_length_is_refused() {
    let refused = |len: u64, width: usize| {
        let image = len_in_width(len, width);
        let read = WireReader::new(&image).take_len();
        assert_eq!(read, Err(WireError::new("length not in its shortest form")), "{len} in {width} bytes");
    };
    for len in 0..1 << 14 {
        for width in [4, 8].into_iter().chain((len < 64).then_some(2)) {
            refused(len, width);
        }
    }
    check(512, "every_non_minimal_length_is_refused", |g| {
        let len = g.gen_range(0..1u64 << 30);
        refused(len, 8);
        refused(len & 0x3FFF, 4);
    });
}

#[test]
#[should_panic(expected = "2^62")]
fn a_length_no_width_holds_is_not_written() {
    WireWriter::new().put_len(1 << 62);
}

/// A sequence count beyond the bytes left is refused by the count check,
/// ahead of the reservation it would size: whatever its width, and by one
/// element as by 2⁶² − 1. A count of exactly the bytes left reads.
#[test]
fn take_seq_refuses_a_count_beyond_the_input_before_it_allocates() {
    for left in [0usize, 1, 63, 64, 300] {
        for claim in [left + 1, 1 << 20, (1 << 62) - 1] {
            let mut w = WireWriter::new();
            w.put_len(claim);
            w.put_raw(&vec![7; left]);
            let image = w.into_bytes();
            let read = WireReader::new(&image).take_seq::<u8>();
            assert_eq!(read, Err(WireError::new("sequence length exceeds input")), "{claim} for {left}");
        }
        let mut w = WireWriter::new();
        w.put_seq(&vec![7u8; left]);
        assert_eq!(WireReader::new(&w.into_bytes()).take_seq::<u8>(), Ok(vec![7; left]));
    }
}

#[test]
fn sequences_round_trip() {
    check(128, "sequences_round_trip", |g| {
        let items = g.vec(49, |g| g.gen::<u64>());
        let mut w = WireWriter::new();
        w.put_seq(&items);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_seq::<u64>().unwrap(), items);
    });
}

#[test]
fn decoding_garbage_never_panics() {
    check(128, "decoding_garbage_never_panics", |g| {
        let bytes = g.bytes(199);
        // All decoders must be total: Err on junk, never panic.
        let mut r = WireReader::new(&bytes);
        let _ = r.take_seq::<u64>();
        let _ = Endpoint::from_wire(&bytes);
        let _ = NodeId::from_wire(&bytes);
        let _ = bool::from_wire(&bytes);
        let _ = Vec::<u8>::from_wire(&bytes);
    });
}

#[test]
fn endpoint_round_trip() {
    check(128, "endpoint_round_trip", |g| {
        let ep = Endpoint { node: NodeId(g.gen()), port: g.gen() };
        assert_eq!(Endpoint::from_wire(&ep.to_wire()).unwrap(), ep);
    });
}

/// Reply-to-sender always works while the association lives, for
/// every NAT type: if a device lets a packet OUT to `dst`, a packet
/// back IN from exactly `dst` to the allocated port passes.
#[test]
fn reply_to_sender_always_traverses() {
    check(128, "reply_to_sender_always_traverses", |g| {
        let nat = NatType::NATTED[g.gen_range(0..4usize)];
        let dst = Endpoint { node: NodeId(g.gen()), port: g.gen() };
        let delay_s = g.gen_range(0..7000u64);
        let mut dev = NatDevice::new(nat);
        let lease = SimDuration::from_secs(7200);
        let t0 = SimTime::ZERO;
        let port = dev.outbound(dst, t0, lease);
        let later = t0 + SimDuration::from_secs(delay_s);
        assert!(dev.inbound(port, dst, later), "{nat:?} blocked a reply");
    });
}

/// No NAT type accepts unsolicited traffic to a never-allocated port.
#[test]
fn unsolicited_port_always_blocked() {
    check(128, "unsolicited_port_always_blocked", |g| {
        let nat = NatType::NATTED[g.gen_range(0..4usize)];
        let src: u64 = g.gen();
        let port = g.gen_range(1..u16::MAX);
        let dev = NatDevice::new(nat);
        let source = Endpoint { node: NodeId(src), port: 1 };
        let accepted = dev.inbound(port, source, SimTime::ZERO);
        assert!(!accepted);
    });
}

#[test]
fn cdf_percentiles_are_monotone_and_bounded() {
    check(128, "cdf_percentiles_are_monotone_and_bounded", |g| {
        let mut samples = g.vec(198, |g| g.gen_range(-1e9..1e9f64));
        samples.push(g.gen_range(-1e9..1e9f64)); // at least one sample
        let mut c = Cdf::from_samples(samples.iter().copied());
        let lo = c.min();
        let hi = c.max();
        let mut last = lo;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = c.percentile(p);
            assert!(v >= last && v >= lo && v <= hi, "p{p}: {v}");
            last = v;
        }
        let mean = c.mean();
        assert!(mean >= lo && mean <= hi);
    });
}

#[test]
fn cdf_fraction_below_is_monotone() {
    check(128, "cdf_fraction_below_is_monotone", |g| {
        let mut samples = g.vec(99, |g| g.gen_range(0.0..1000.0f64));
        samples.push(g.gen_range(0.0..1000.0f64)); // 1..=100 samples
        let mut probes = g.vec(8, |g| g.gen_range(0.0..1000.0f64));
        probes.push(g.gen_range(0.0..1000.0f64));
        probes.push(g.gen_range(0.0..1000.0f64)); // 2..=10 probes
        let mut c = Cdf::from_samples(samples);
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for p in probes {
            let f = c.fraction_below(p);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= last);
            last = f;
        }
    });
}

/// A bare event key, for driving the schedulers without a full [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Item(u64, u64, u64);

impl Keyed for Item {
    fn key(&self) -> EventKey {
        (self.0, self.1, self.2)
    }
}

/// The scheduler-equivalence law behind the determinism contract
/// (DESIGN.md §14): a randomized stream of pushes, pops and peeks —
/// same-key-prefix ties, crash-deferral re-keys (same `(src, seq)`
/// pushed again at a later time), and far-future timers that land in
/// the calendar queue's overflow tier and must be promoted on idle
/// jumps — produces byte-identical pop/peek sequences from the
/// hierarchical calendar queue and the reference binary heap.
#[test]
fn calendar_queue_matches_reference_heap() {
    check(96, "calendar_queue_matches_reference_heap", |g| {
        let mut heap = EventQueue::new(Scheduler::Heap);
        let mut wheel = EventQueue::new(Scheduler::Wheel);
        wheel.reserve(64); // exercise the pre-reserve path too
        let mut now = 0u64; // time of the last pop; pushes never precede it
        let mut seq = 0u64;
        let mut ats: Vec<u64> = vec![0]; // previously used times, for exact ties
        let push = |heap: &mut EventQueue<Item>,
                        wheel: &mut EventQueue<Item>,
                        ats: &mut Vec<u64>,
                        at: u64,
                        src: u64,
                        seq: u64| {
            ats.push(at);
            heap.push(Item(at, src, seq));
            wheel.push(Item(at, src, seq));
        };
        for _ in 0..g.gen_range(1..=160usize) {
            match g.gen_range(0..10u32) {
                // Near-cursor push: short offsets cover same-granule
                // (`at >> 8` collision) ordering inside one L0 bucket;
                // exact reuse of an earlier `at` covers full `(at, src,
                // seq)` tie-breaking.
                0..=3 => {
                    let at = if g.gen_range(0..4u32) == 0 {
                        let reused = ats[g.gen_range(0..ats.len())];
                        reused.max(now)
                    } else {
                        now + g.gen_range(0..5_000u64)
                    };
                    let src = g.gen_range(0..4u64);
                    seq += 1;
                    push(&mut heap, &mut wheel, &mut ats, at, src, seq);
                }
                // Mid-range push: lands in the L1 day wheel.
                4..=5 => {
                    let at = now + g.gen_range(1 << 18..1 << 26);
                    seq += 1;
                    push(&mut heap, &mut wheel, &mut ats, at, 1, seq);
                }
                // Far-future push: beyond the L1 span, into the overflow
                // heap; later pops force promotion across tiers.
                6 => {
                    let at = now + (1u64 << 28) + g.gen_range(0..1 << 30);
                    seq += 1;
                    push(&mut heap, &mut wheel, &mut ats, at, 2, seq);
                }
                // Pop from both; keys (and lengths) must agree at every
                // step. A popped timer is occasionally re-armed later
                // with the *same* `(src, seq)` — the engine's
                // crash-deferral re-key.
                _ => {
                    assert_eq!(heap.peek_key(), wheel.peek_key());
                    let (h, w) = (heap.pop(), wheel.pop());
                    assert_eq!(h, w, "pop order diverged");
                    assert_eq!(heap.len(), wheel.len());
                    if let Some(item) = h {
                        now = item.0;
                        if g.gen_range(0..3u32) == 0 {
                            let at = now + g.gen_range(1..100_000u64);
                            push(&mut heap, &mut wheel, &mut ats, at, item.1, item.2);
                        }
                    }
                }
            }
        }
        // Drain: every remaining item must come out in the same order.
        loop {
            assert_eq!(heap.peek_key(), wheel.peek_key());
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w, "drain order diverged");
            if h.is_none() {
                break;
            }
        }
        assert!(heap.is_empty() && wheel.is_empty());
    });
}
