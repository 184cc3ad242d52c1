//! Property-based tests for the cryptographic substrate: arithmetic laws
//! for the bignum, round-trip laws for AES/RSA/hybrid/onion, and
//! incremental-hash consistency for SHA-256.
//!
//! Written against `whisper_rand::check` — each property draws its inputs
//! from a seeded [`Gen`] and asserts with the ordinary `assert!` family;
//! failures are shrunk and reported with a reproduction seed.

use std::sync::OnceLock;
use whisper_crypto::aes::{Aes128, AesKey, CtrNonce};
use whisper_crypto::bignum::BigUint;
use whisper_crypto::hybrid;
use whisper_crypto::onion::{build_onion, peel, peel_with_body, PeelResult};
use whisper_crypto::rsa::{KeyPair, RsaKeySize};
use whisper_crypto::sha256::Sha256;
use whisper_rand::check::check;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

/// Key generation is expensive; share a deterministic pool across cases.
fn test_keys() -> &'static [KeyPair; 3] {
    static KEYS: OnceLock<[KeyPair; 3]> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xFEED);
        [
            KeyPair::generate(RsaKeySize::Sim384, &mut rng),
            KeyPair::generate(RsaKeySize::Sim384, &mut rng),
            KeyPair::generate(RsaKeySize::Sim512, &mut rng),
        ]
    })
}

#[test]
fn bytes_round_trip() {
    check(64, "bytes_round_trip", |g| {
        let bytes = g.bytes(63);
        let v = big(&bytes);
        let back = v.to_bytes_be();
        // Leading zeros are dropped; the numeric value is preserved.
        assert_eq!(big(&back), v);
    });
}

#[test]
fn addition_is_commutative_and_sub_inverts() {
    check(64, "addition_is_commutative_and_sub_inverts", |g| {
        let (a, b) = (big(&g.bytes(47)), big(&g.bytes(47)));
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).sub(&b), a);
    });
}

#[test]
fn multiplication_distributes() {
    check(64, "multiplication_distributes", |g| {
        let (a, b, c) = (big(&g.bytes(31)), big(&g.bytes(31)), big(&g.bytes(31)));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.mul(&b), b.mul(&a));
    });
}

#[test]
fn division_invariant() {
    check(64, "division_invariant", |g| {
        let n = big(&g.bytes(63));
        let mut d_bytes = g.bytes(39);
        // Force a nonzero divisor instead of discarding the case.
        d_bytes.push(g.gen_range(1..=255u8));
        let d = big(&d_bytes);
        let (q, r) = n.div_rem(&d);
        assert!(r < d);
        assert_eq!(q.mul(&d).add(&r), n);
    });
}

/// The allocation-free word remainder agrees with the general division
/// for values of 1–33 limbs and divisors over the whole word range
/// (small ones, where the quotient is long, as often as large ones).
#[test]
fn rem_u64_matches_rem() {
    check(256, "rem_u64_matches_rem", |g| {
        let limbs = g.gen_range(1..=33usize);
        let bytes: Vec<u8> = (0..limbs * 8).map(|_| g.gen()).collect();
        let n = big(&bytes);
        let d = (g.gen::<u64>() >> g.gen_range(0..64u32)).max(1);
        let expected = n.rem(&BigUint::from(d));
        assert_eq!(BigUint::from(n.rem_u64(d)), expected, "{limbs} limbs mod {d}");
        assert_eq!(n.rem_u64(u64::MAX), n.rem(&BigUint::from(u64::MAX)).to_u64().unwrap());
        assert_eq!(n.rem_u64(1), 0);
        assert_eq!(BigUint::zero().rem_u64(d), 0);
    });
}

#[test]
fn shifts_invert() {
    check(64, "shifts_invert", |g| {
        let v = big(&g.bytes(31));
        let s = g.gen_range(0..200usize);
        assert_eq!(v.shl(s).shr(s), v);
    });
}

#[test]
fn modpow_matches_naive() {
    check(64, "modpow_matches_naive", |g| {
        let base: u64 = g.gen();
        let exp = g.gen_range(0..64u64);
        let m = g.gen_range(3..u64::MAX) | 1; // odd: exercise the Montgomery path
        let fast = BigUint::from(base).modpow(&BigUint::from(exp), &BigUint::from(m));
        // Naive u128 square-and-multiply.
        let mut acc: u128 = 1;
        let b = (base % m) as u128;
        for i in (0..64).rev() {
            acc = acc * acc % m as u128;
            if (exp >> i) & 1 == 1 {
                acc = acc * b % m as u128;
            }
        }
        assert_eq!(fast.to_u64(), Some(acc as u64));
    });
}

#[test]
fn modinv_verifies() {
    check(64, "modinv_verifies", |g| {
        let a = BigUint::from(g.gen_range(1..u64::MAX));
        let m = BigUint::from(g.gen_range(3..u64::MAX));
        if let Some(inv) = a.modinv(&m) {
            assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
            assert!(inv < m);
        } else {
            assert!(!a.gcd(&m).is_one());
        }
    });
}

#[test]
fn aes_ctr_round_trips() {
    check(64, "aes_ctr_round_trips", |g| {
        let data = g.bytes(599);
        let key: [u8; 16] = g.gen();
        let nonce: [u8; 8] = g.gen();
        let cipher = Aes128::new(&AesKey(key));
        let n = CtrNonce(nonce);
        assert_eq!(cipher.ctr_apply(&n, &cipher.ctr_apply(&n, &data)), data);
    });
}

#[test]
fn sha256_incremental_equals_oneshot() {
    check(64, "sha256_incremental_equals_oneshot", |g| {
        let data = g.bytes(499);
        let split = g.gen_range(0..500usize).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    });
}

#[test]
fn rsa_round_trips() {
    check(64, "rsa_round_trips", |g| {
        let msg = g.bytes(36);
        let seed: u64 = g.gen();
        let which = g.gen_range(0..3usize);
        let kp = &test_keys()[which];
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = kp.public().encrypt(&msg, &mut rng).unwrap();
        assert_eq!(kp.decrypt(&ct).unwrap(), msg);
    });
}

#[test]
fn rsa_signatures_verify_and_bind() {
    check(64, "rsa_signatures_verify_and_bind", |g| {
        let msg = g.bytes(199);
        let which = g.gen_range(0..3usize);
        let kp = &test_keys()[which];
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig).is_ok());
        let mut other = msg.clone();
        other.push(0);
        assert!(kp.public().verify(&other, &sig).is_err());
    });
}

#[test]
fn hybrid_round_trips() {
    check(64, "hybrid_round_trips", |g| {
        let msg = g.bytes(1999);
        let seed: u64 = g.gen();
        let kp = &test_keys()[0];
        let mut rng = StdRng::seed_from_u64(seed);
        let blob = hybrid::seal(kp.public(), &msg, &mut rng).unwrap();
        assert_eq!(hybrid::open(kp, &blob).unwrap(), msg);
    });
}

#[test]
fn onion_full_walk() {
    check(64, "onion_full_walk", |g| {
        let msg = g.bytes(499);
        let seed: u64 = g.gen();
        let keys = test_keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let path: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.public().clone(), vec![i as u8 + 1]))
            .collect();
        let packet = build_onion(&path, &msg, &mut rng).unwrap();
        let mut header = packet.header.clone();
        for (i, k) in keys.iter().enumerate().take(keys.len() - 1) {
            match peel(k, &header).unwrap() {
                PeelResult::Relay { next_hop, header: inner, .. } => {
                    assert_eq!(next_hop, vec![i as u8 + 2]);
                    header = inner;
                }
                PeelResult::Destination { .. } => panic!("early destination"),
            }
        }
        match peel_with_body(&keys[keys.len() - 1], &header, &packet.body).unwrap() {
            PeelResult::Destination { payload, .. } => assert_eq!(payload, msg),
            PeelResult::Relay { .. } => panic!("expected destination"),
        }
    });
}

#[test]
fn rsa_decrypt_never_panics_on_garbage() {
    check(64, "rsa_decrypt_never_panics_on_garbage", |g| {
        let bytes = g.bytes(63);
        let kp = &test_keys()[0];
        let _ = kp.decrypt(&bytes); // must return Err, not panic
    });
}

#[test]
fn peel_never_panics_on_garbage() {
    check(64, "peel_never_panics_on_garbage", |g| {
        let bytes = g.bytes(199);
        let kp = &test_keys()[0];
        let _ = peel(kp, &bytes); // must return Err, not panic
    });
}
