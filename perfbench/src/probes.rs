//! Unit-cost probes: the benchmark calling one layer's public function
//! directly on workload-shaped inputs (payloads of 32/256/1024 bytes,
//! 3-hop paths, views of 10, gossip buffers of 5) and reporting the
//! median time of at least 1 000 calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::host;
use crate::population::Population;
use whisper_core::ppss::descriptor::{GroupDescriptor, MemberDot};
use whisper_core::{GroupId, WhisperConfig, WhisperNode};
use whisper_crypto::aes::{Aes128, AesKey, CtrNonce};
use whisper_crypto::circuit::{self, CircuitEntry};
use whisper_crypto::onion::{self, PeelResult};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_crypto::sha256::Sha256;
use whisper_net::payload::PayloadPool;
use whisper_net::sched::{EventKey, EventQueue, Keyed, Scheduler};
use whisper_net::wire::{WireDecode, WireEncode};
use whisper_net::{NodeId, Payload};
use whisper_pss::messages::NylonMsg;
use whisper_pss::{View, ViewEntry};
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// Probe name → median ns (ms for `keygen_ms`) per call.
#[derive(Clone, Default)]
pub struct Probes {
    pub values: BTreeMap<&'static str, f64>,
}

/// Median time of one call of `f` in ns: `samples` timings of `batch`
/// back-to-back calls each.
fn time_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    assert!(samples * batch >= 1000, "a probe is the median of at least 1000 calls");
    let per_call = (0..samples).map(|_| {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        t0.elapsed().as_nanos() as f64 / batch as f64
    });
    host::median(per_call.collect())
}

struct QueueItem(EventKey);

impl Keyed for QueueItem {
    fn key(&self) -> EventKey {
        self.0
    }
}

fn view_entry(node: u64, age: u16) -> ViewEntry {
    ViewEntry {
        node: NodeId(node),
        age,
        public: node.is_multiple_of(3),
        route: vec![NodeId(node + 1)],
    }
}

/// A 3-hop onion path (two mixes and the destination) over `keys`.
fn path_of(keys: &[KeyPair]) -> Vec<(PublicKey, Vec<u8>)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let mut addr = NodeId(i as u64 + 1).to_bytes().to_vec();
            addr.push(1);
            (k.public().clone(), addr)
        })
        .collect()
}

/// Probes that need no population: net, pss, crypto and the descriptor
/// half of ppss. Measured once per process.
pub fn run_static() -> Probes {
    static ONCE: OnceLock<Probes> = OnceLock::new();
    ONCE.get_or_init(measure_static).clone()
}

fn measure_static() -> Probes {
    let mut probes = Probes::default();
    let v = &mut probes.values;
    let cfg = WhisperConfig::default();
    let mut rng = StdRng::seed_from_u64(0x50_52_4F_42_45); // "PROBE"

    // net
    let mut queue: EventQueue<QueueItem> = EventQueue::new(Scheduler::Wheel);
    let (mut now_us, mut seq) = (0u64, 0u64);
    for _ in 0..10_000 {
        seq += 1;
        queue.push(QueueItem((rng.gen_range(0..10_000_000), 1, seq)));
    }
    v.insert(
        "net.probe.queue_push_pop_ns",
        time_ns(200, 50, || {
            seq += 1;
            // Gossip-like: due within one 10 s cycle of the current time.
            queue.push(QueueItem((now_us + rng.gen_range(0..10_000_000), 1, seq)));
            now_us = queue.pop().expect("the queue never drains").0 .0;
        }),
    );
    let mut pool = PayloadPool::new(true);
    v.insert(
        "net.probe.payload_take_recycle_ns",
        time_ns(200, 50, || {
            let mut buf = pool.take(256);
            buf.resize(256, 7);
            pool.recycle(black_box(Payload::fresh(buf)));
        }),
    );

    // pss
    let ny = &cfg.nylon;
    let mut base = View::new();
    for i in 0..ny.view_size as u64 {
        base.insert(view_entry(10 + i, i as u16));
    }
    let received: Vec<ViewEntry> =
        (0..ny.gossip_len as u64).map(|i| view_entry(15 + 2 * i, i as u16)).collect();
    v.insert(
        "pss.probe.view_merge_ns",
        time_ns(200, 10, || {
            let mut view = base.clone();
            view.merge(received.clone(), NodeId(1), ny.view_size, ny.pi, ny.oldest_p_discard);
            black_box(view);
        }),
    );
    v.insert(
        "pss.probe.make_buffer_ns",
        time_ns(200, 10, || {
            black_box(base.make_buffer(
                view_entry(1, 0),
                NodeId(12),
                ny.gossip_len,
                NodeId(1),
                ny.max_route,
                &mut rng,
            ));
        }),
    );
    let key = KeyPair::generate(ny.rsa, &mut rng);
    let gossip = NylonMsg::GossipReq {
        sender: NodeId(1),
        sender_public: true,
        entries: received.clone(),
        key: Some(key.public().to_bytes()),
        descs: Vec::new(),
    };
    let wire = gossip.to_wire();
    v.insert("pss.probe.gossip_encode_ns", time_ns(200, 10, || drop(black_box(gossip.to_wire()))));
    v.insert(
        "pss.probe.gossip_decode_ns",
        time_ns(200, 10, || drop(black_box(NylonMsg::from_wire(&wire)))),
    );

    // crypto: RSA
    let keygen_ms = (0..15).map(|_| {
        let t0 = Instant::now();
        black_box(KeyPair::generate(ny.rsa, &mut rng));
        t0.elapsed().as_secs_f64() * 1e3
    });
    v.insert("crypto.probe.keygen_ms", host::median(keygen_ms.collect()));
    let secret = [0x5Au8; 16];
    let sealed = key.public().encrypt(&secret, &mut rng).expect("16 bytes fit a Sim384 modulus");
    v.insert(
        "crypto.probe.rsa_encrypt_ns",
        time_ns(1000, 1, || drop(black_box(key.public().encrypt(&secret, &mut rng)))),
    );
    v.insert(
        "crypto.probe.rsa_decrypt_ns",
        time_ns(1000, 1, || drop(black_box(key.decrypt(&sealed)))),
    );
    let message = [0xA5u8; 64];
    let signature = key.sign(&message);
    v.insert("crypto.probe.rsa_sign_ns", time_ns(1000, 1, || drop(black_box(key.sign(&message)))));
    v.insert(
        "crypto.probe.rsa_verify_ns",
        time_ns(1000, 1, || drop(black_box(key.public().verify(&message, &signature)))),
    );

    // crypto: onions over a 3-hop path
    let hops: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(ny.rsa, &mut rng)).collect();
    let path = path_of(&hops);
    let body_256 = vec![0xC3u8; 256];
    v.insert(
        "crypto.probe.onion_build3_ns",
        time_ns(1000, 1, || drop(black_box(onion::build_onion(&path, &body_256, &mut rng)))),
    );
    for (name, size) in
        [("crypto.probe.onion_peel_ns", 256), ("crypto.probe.onion_peel_1024_ns", 1024)]
    {
        let packet = onion::build_onion(&path, &vec![0xC3u8; size], &mut rng).expect("3-hop onion");
        // The mix's peel (one RSA decrypt + header strip) and, with the
        // inner header, the destination's (decrypt + body AES).
        let Ok(PeelResult::Relay { header, .. }) = onion::peel(&hops[0], &packet.header) else {
            panic!("the first hop of a 3-hop onion relays");
        };
        let Ok(PeelResult::Relay { header: last, .. }) = onion::peel(&hops[1], &header) else {
            panic!("the second hop of a 3-hop onion relays");
        };
        v.insert(
            name,
            time_ns(1000, 1, || {
                drop(black_box(onion::peel_with_body(&hops[2], &last, &packet.body)))
            }),
        );
    }

    // crypto: circuits
    let keys: Vec<AesKey> = (0..3).map(|_| AesKey::random(&mut rng)).collect();
    let nonce = CtrNonce::random(&mut rng);
    let entry = CircuitEntry::new(keys[0], Vec::new(), None);
    for (seal_name, peel_name, size) in [
        ("crypto.probe.circuit_seal3_32_ns", "crypto.probe.circuit_peel_32_ns", 32),
        ("crypto.probe.circuit_seal3_256_ns", "crypto.probe.circuit_peel_256_ns", 256),
        ("crypto.probe.circuit_seal3_1024_ns", "crypto.probe.circuit_peel_1024_ns", 1024),
    ] {
        let payload = vec![0x3Cu8; size];
        v.insert(
            seal_name,
            time_ns(200, 10, || drop(black_box(circuit::seal_layers(&keys, &nonce, &payload)))),
        );
        let mut body = payload.clone();
        v.insert(peel_name, time_ns(200, 10, || entry.peel_in_place(&nonce, black_box(&mut body))));
    }
    let aes = Aes128::new(&keys[0]);
    let mut kib = vec![0u8; 1024];
    v.insert(
        "crypto.probe.aes_ctr_ns_per_kib",
        time_ns(200, 10, || aes.ctr_apply_in_place(&nonce, black_box(&mut kib))),
    );
    v.insert(
        "crypto.probe.sha256_ns_per_kib",
        time_ns(200, 10, || {
            black_box(Sha256::digest(&kib));
        }),
    );

    // ppss: descriptors as a leader publishes them
    let group = GroupId::from_name("probe");
    let history = vec![key.public().clone()];
    let dots = |n: u64| -> Vec<MemberDot> {
        (0..n).map(|i| MemberDot { node: NodeId(i), epoch: 0, counter: i }).collect()
    };
    let desc = GroupDescriptor::sign(&key, group, 0, 1, &history, false, dots(8), Vec::new(), 0);
    v.insert(
        "ppss.probe.descriptor_sign_ns",
        time_ns(1000, 1, || {
            drop(black_box(GroupDescriptor::sign(
                &key,
                group,
                0,
                1,
                &history,
                false,
                dots(8),
                Vec::new(),
                0,
            )))
        }),
    );
    v.insert(
        "ppss.probe.descriptor_verify_ns",
        time_ns(1000, 1, || {
            black_box(desc.verify(&history));
        }),
    );
    probes
}

/// `wcl.probe.*`: a timed `send_private_tracked` to a private-view peer
/// without and with a cached route, on the population as the measured
/// phase left it (digests are already taken; the sends are never run).
pub fn run_wcl(probes: &mut Probes, pop: &mut Population) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let payload = vec![0x42u8; 256];
    'rounds: for _ in 0..4 {
        for &id in &pop.ids.clone() {
            pop.sim.with_node_ctx::<WhisperNode>(id, |node, ctx| {
                node.with_api(|api, _| {
                    let Some(group) = api.ppss.group_ids().first().copied() else {
                        return;
                    };
                    let me = api.id();
                    let Some(dest) =
                        api.private_view(group).iter().map(|e| e.node).find(|n| *n != me)
                    else {
                        return;
                    };
                    api.wcl.flush_circuits();
                    let t0 = Instant::now();
                    let sent = api.send_private_tracked(ctx, group, dest, payload.clone(), true);
                    let cold_ns = t0.elapsed().as_nanos() as f64;
                    if sent.is_none() || !api.wcl.has_cached_route(dest) {
                        return;
                    }
                    let t0 = Instant::now();
                    let sent = api.send_private_tracked(ctx, group, dest, payload.clone(), true);
                    let warm_ns = t0.elapsed().as_nanos() as f64;
                    if sent.is_some() {
                        cold.push(cold_ns);
                        warm.push(warm_ns);
                    }
                });
            });
            if cold.len() >= 1000 {
                break 'rounds;
            }
        }
    }
    probes.values.insert("wcl.probe.send_cold_ns", host::median(cold));
    probes.values.insert("wcl.probe.send_warm_ns", host::median(warm));
}
