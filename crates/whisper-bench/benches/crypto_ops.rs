//! Micro-benchmarks of the cryptographic substrate: the primitives whose
//! costs drive Table II and the Fig. 7 breakdown.
//!
//! Run with `cargo bench --offline --bench crypto_ops`; pass a substring
//! after `--` to filter (e.g. `-- rsa`).

use whisper_crypto::aes::{Aes128, AesKey, CtrNonce};
use whisper_crypto::circuit;
use whisper_crypto::onion::{build_onion, peel, PeelResult};
use whisper_crypto::rsa::{KeyPair, RsaKeySize};
use whisper_crypto::sha256::Sha256;
use whisper_rand::bench::{BatchSize, Bench, Throughput};
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

fn bench_rsa(c: &mut Bench) {
    let mut group = c.group("rsa");
    group.sample_size(10);
    for size in [RsaKeySize::Sim384, RsaKeySize::Std1024] {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(size, &mut rng);
        let msg = vec![7u8; 24];
        let ct = kp.public().encrypt(&msg, &mut rng).unwrap();
        let sig = kp.sign(&msg);

        group.bench_function(format!("keygen/{}", size.bits()), |b| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| KeyPair::generate(size, &mut rng))
        });
        group.bench_function(format!("encrypt/{}", size.bits()), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| kp.public().encrypt(&msg, &mut rng).unwrap())
        });
        group.bench_function(format!("decrypt/{}", size.bits()), |b| {
            b.iter(|| kp.decrypt(&ct).unwrap())
        });
        group.bench_function(format!("sign/{}", size.bits()), |b| b.iter(|| kp.sign(&msg)));
        group.bench_function(format!("verify/{}", size.bits()), |b| {
            b.iter(|| kp.public().verify(&msg, &sig).unwrap())
        });
    }
    group.finish();
}

fn bench_aes(c: &mut Bench) {
    let mut group = c.group("aes128_ctr");
    let mut rng = StdRng::seed_from_u64(4);
    let cipher = Aes128::new(&AesKey::random(&mut rng));
    let nonce = CtrNonce::random(&mut rng);
    for size in [64usize, 1024, 20 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| b.iter(|| cipher.ctr_apply(&nonce, &data)));
        // The kernel a CPU without AES-NI runs, in place like the row the
        // dispatcher gets beside it (`hardware_kernel()` says which one
        // that was).
        let mut buf = data.clone();
        group.bench_function(format!("in_place/{size}B"), |b| {
            b.iter(|| cipher.ctr_apply_in_place(&nonce, &mut buf))
        });
        group.bench_function(format!("in_place_portable/{size}B"), |b| {
            b.iter(|| cipher.ctr_apply_in_place_portable(&nonce, &mut buf))
        });
    }
    group.finish();
    println!("aes128_ctr: hardware kernel = {}", Aes128::hardware_kernel());
}

fn bench_sha256(c: &mut Bench) {
    let mut group = c.group("sha256");
    for size in [64usize, 4096] {
        let data = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| b.iter(|| Sha256::digest(&data)));
    }
    group.finish();
}

/// The WCL hot path: building a 4-node onion (S → A → B → D, i.e. 3
/// sealed layers) and peeling one layer at a mix.
fn bench_onion(c: &mut Bench) {
    let mut group = c.group("onion");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let keys: Vec<KeyPair> =
        (0..3).map(|_| KeyPair::generate(RsaKeySize::Sim384, &mut rng)).collect();
    let path: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.public().clone(), vec![i as u8; 9]))
        .collect();
    let payload = vec![0u8; 4096]; // a PPSS view exchange sized body

    group.bench_function("build_3_layers", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| build_onion(&path, &payload, &mut rng).unwrap())
    });
    group.bench_function("peel_one_layer", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter_batched(
            || build_onion(&path, &payload, &mut rng).unwrap(),
            |packet| {
                let PeelResult::Relay { .. } = peel(&keys[0], &packet.header).unwrap() else {
                    panic!("first hop relays")
                };
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The amortized steady-state path: three layered CTR passes at the
/// source, one stripped per hop. Compare with `onion/build_3_layers` and
/// `onion/peel_one_layer` to see what circuit caching removes.
fn bench_circuit(c: &mut Bench) {
    let mut group = c.group("circuit");
    let mut rng = StdRng::seed_from_u64(9);
    let (source, setups) = circuit::establish(3, &mut rng);
    let nonce0 = CtrNonce::random(&mut rng);
    for size in [256usize, 1024, 4096] {
        let payload = vec![0xCDu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("seal_3_layers/{size}B"), |b| {
            b.iter(|| circuit::seal_layers(&source.keys, &nonce0, &payload))
        });
        // The path WCL takes: schedules cached at establishment, layers
        // applied in place (CTR is an involution, so re-sealing the same
        // buffer each iteration times identical work).
        let mut body = payload.clone();
        group.bench_function(format!("seal_3_layers_cached/{size}B"), |b| {
            b.iter(|| source.seal_in_place(&nonce0, &mut body))
        });
        let sealed = circuit::seal_layers(&source.keys, &nonce0, &payload);
        group.bench_function(format!("peel_one_layer/{size}B"), |b| {
            b.iter(|| circuit::peel_layer(&setups[0].key, &nonce0, &sealed))
        });
    }
    group.finish();
}

fn bench_bignum(c: &mut Bench) {
    use whisper_crypto::bignum::BigUint;
    let mut group = c.group("bignum");
    let mut rng = StdRng::seed_from_u64(8);
    for limbs in [8usize, 16, 32, 64] {
        let bytes_a: Vec<u8> = (0..limbs * 8).map(|_| rng.gen()).collect();
        let bytes_b: Vec<u8> = (0..limbs * 8).map(|_| rng.gen()).collect();
        let a = BigUint::from_bytes_be(&bytes_a);
        let b = BigUint::from_bytes_be(&bytes_b);
        // `mul` dispatches to Karatsuba above the 48-limb threshold.
        group.bench_function(format!("mul/{}bit", limbs * 64), |bench| {
            bench.iter(|| a.mul(&b))
        });
        group.bench_function(format!("div_rem/{}bit", limbs * 64), |bench| {
            let d = BigUint::from_bytes_be(&bytes_b[..limbs * 4]);
            bench.iter(|| a.div_rem(&d))
        });
    }
    group.finish();
}

/// Fixed-window vs binary Montgomery exponentiation — the PR 7 RSA
/// hot-path change. The 512-bit cell is one CRT half of a `Std1024`
/// decrypt/sign (the private-op core); the 1024-bit cell is the
/// non-CRT worst case. Derived `modpow_window_speedup_*` ratios land
/// in the JSON export; binary scans one bit per iteration while the
/// 4-bit window does 4 squarings plus at most one table multiply per
/// 4 bits, so the expected win is ~1.15–1.25× on random exponents.
fn bench_modpow(c: &mut Bench) {
    use whisper_crypto::bignum::{BigUint, Montgomery};
    let mut rng = StdRng::seed_from_u64(10);
    {
        let mut group = c.group("bignum");
        for bits in [512usize, 1024] {
            let limbs = bits / 64;
            let mut modulus_bytes: Vec<u8> = (0..limbs * 8).map(|_| rng.gen()).collect();
            modulus_bytes[0] |= 0x80; // full width
            *modulus_bytes.last_mut().unwrap() |= 1; // odd, as Montgomery requires
            let modulus = BigUint::from_bytes_be(&modulus_bytes);
            let base_bytes: Vec<u8> = (0..limbs * 8 - 1).map(|_| rng.gen()).collect();
            let exp_bytes: Vec<u8> = (0..limbs * 8).map(|_| rng.gen()).collect();
            let base = BigUint::from_bytes_be(&base_bytes);
            let exp = BigUint::from_bytes_be(&exp_bytes);
            let mont = Montgomery::new(&modulus);
            group.bench_function(format!("modpow_window/{bits}bit"), |b| {
                b.iter(|| mont.pow(&base, &exp))
            });
            group.bench_function(format!("modpow_binary/{bits}bit"), |b| {
                b.iter(|| mont.pow_binary(&base, &exp))
            });
        }
        group.finish();
    }
    for bits in [512usize, 1024] {
        let win = c.median_of(&format!("bignum/modpow_window/{bits}bit"));
        let bin = c.median_of(&format!("bignum/modpow_binary/{bits}bit"));
        if let (Some(win), Some(bin)) = (win, bin) {
            let speedup = bin / win;
            println!(
                "bignum/modpow_window_speedup_{bits}bit      {speedup:.2}x \
                 (binary {:.1} µs vs 4-bit window {:.1} µs)",
                bin / 1e3,
                win / 1e3,
            );
            c.record(format!("bignum/modpow_window_speedup_{bits}bit"), speedup);
        }
    }
}

fn main() {
    let mut bench = Bench::from_args();
    bench_rsa(&mut bench);
    bench_modpow(&mut bench);
    bench_aes(&mut bench);
    bench_sha256(&mut bench);
    bench_onion(&mut bench);
    bench_circuit(&mut bench);
    bench_bignum(&mut bench);
    bench.emit_json();
}
