// The reference algorithms (FIPS 197, TAOCP 4.3.1, CIOS) are specified
// index-wise; keeping the indices makes them auditable against the spec.
#![allow(clippy::needless_range_loop)]

//! Primality testing (Miller–Rabin) and random prime generation.

use super::{with_scratch, BigUint, Montgomery, STACK_LIMBS};
use whisper_rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Number of Miller–Rabin rounds; gives an error probability far below
/// 2^-80 for random candidates.
const MR_ROUNDS: usize = 24;

/// Tests `n` for primality with trial division plus Miller–Rabin.
///
/// Returns `true` if `n` is (very probably) prime. Deterministic and exact
/// for all `n` representable in `u64`.
pub fn is_probable_prime<R: Rng>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    // Trial division, one pass over `n` per run of primes whose product
    // fits a word: `n mod p = (n mod product) mod p` for every p in the
    // run, and the second reduction is word arithmetic.
    let mut run_start = 0;
    while run_start < SMALL_PRIMES.len() {
        let mut product = 1u64;
        let mut run_end = run_start;
        while let Some(longer) =
            SMALL_PRIMES.get(run_end).and_then(|&p| product.checked_mul(p))
        {
            product = longer;
            run_end += 1;
        }
        let residue = n.rem_u64(product);
        let run = &SMALL_PRIMES[run_start..run_end];
        if let Some(&p) = run.iter().find(|&&p| residue.is_multiple_of(p)) {
            // A multiple of p is prime exactly when it is p.
            return n.to_u64() == Some(p);
        }
        run_start = run_end;
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let s = trailing_zeros(&n_minus_1);
    let d = n_minus_1.shr(s);

    // One context per candidate: every witness is raised and squared in
    // the candidate's Montgomery domain, where 1 and n − 1 read `one` and
    // `minus_one`.
    let ctx = Montgomery::new(n);
    let k = ctx.limbs();
    with_scratch::<{ 4 * STACK_LIMBS }, _>(4 * k, |scratch| {
        let (one, rest) = scratch.split_at_mut(k);
        let (minus_one, rest) = rest.split_at_mut(k);
        let (x, tmp) = rest.split_at_mut(k);
        ctx.mont_one(one, tmp);
        ctx.sub_mod(minus_one, x, one); // x is still zero
        for round in 0..MR_ROUNDS {
            // Use fixed small bases first (strong for 64-bit inputs), then
            // random bases for larger candidates.
            let a = if round < SMALL_PRIMES.len().min(12) {
                BigUint::from(SMALL_PRIMES[round])
            } else {
                random_below(rng, &n_minus_1)
            };
            if a.is_zero() || a.is_one() {
                continue;
            }
            let mut muls = ctx.pow_mont(x, &a, &d);
            let mut passes = x == one || x == minus_one;
            for _ in 1..s {
                if passes {
                    break;
                }
                ctx.square(x, tmp);
                muls += 1;
                passes = x == minus_one;
            }
            ctx.charge(muls);
            if !passes {
                return false;
            }
        }
        true
    })
}

/// Generates a random prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so products of two such primes have
/// exactly `2*bits` bits, as RSA key generation requires) and the low bit
/// is forced to 1.
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn gen_prime<R: Rng>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = random_bits(rng, bits);
        // Force exact bit length with the two top bits set, and oddness.
        candidate = candidate
            .add(&BigUint::one().shl(bits - 1))
            .add(&BigUint::one().shl(bits - 2));
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        // Trim in the unlikely event the additions overflowed the length.
        if candidate.bits() != bits {
            continue;
        }
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Uniformly random value with at most `bits` bits (top two bits cleared so
/// `gen_prime` can set them without overflow).
fn random_bits<R: Rng>(rng: &mut R, bits: usize) -> BigUint {
    let limbs = bits.div_ceil(64);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
    let top_bits = bits - (limbs - 1) * 64;
    if top_bits < 64 {
        v[limbs - 1] &= (1u64 << top_bits) - 1;
    }
    let mut out = BigUint::from_limbs(v);
    // Clear the two top bit positions (they are re-set by the caller).
    for b in [bits - 1, bits - 2] {
        if out.bit(b) {
            out = out.sub(&BigUint::one().shl(b));
        }
    }
    out
}

/// Uniformly random value in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub(crate) fn random_below<R: Rng>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero());
    let bits = bound.bits();
    let limbs = bits.div_ceil(64);
    loop {
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * 64;
        if top_bits < 64 {
            v[limbs - 1] &= (1u64 << top_bits) - 1;
        }
        let out = BigUint::from_limbs(v);
        if out < *bound {
            return out;
        }
    }
}

fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut tz = 0;
    for &limb in &n.limbs {
        if limb == 0 {
            tz += 64;
        } else {
            tz += limb.trailing_zeros() as usize;
            break;
        }
    }
    tz
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_primes_detected() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 101, 65537, 1_000_000_007] {
            assert!(is_probable_prime(&BigUint::from(p), &mut r), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 91, 561, 41041, 1_000_000_008] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut r), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825_265] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut r), "{c}");
        }
    }

    #[test]
    fn generated_primes_have_exact_length() {
        let mut r = rng();
        for bits in [64usize, 128, 192] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit set");
        }
    }

    #[test]
    fn generated_prime_passes_independent_test() {
        let mut r = rng();
        let p = gen_prime(96, &mut r);
        let mut r2 = StdRng::seed_from_u64(999);
        assert!(is_probable_prime(&p, &mut r2));
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = BigUint::from(1000u64);
        for _ in 0..200 {
            let v = random_below(&mut r, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn trailing_zeros_counts() {
        assert_eq!(trailing_zeros(&BigUint::from(8u64)), 3);
        assert_eq!(trailing_zeros(&BigUint::from(1u64)), 0);
        assert_eq!(trailing_zeros(&BigUint::from_limbs(vec![0, 4])), 66);
    }
}
