// The reference algorithms (FIPS 197, TAOCP 4.3.1, CIOS) are specified
// index-wise; keeping the indices makes them auditable against the spec.
#![allow(clippy::needless_range_loop)]

//! Modular arithmetic: Montgomery-accelerated exponentiation and modular
//! inverses.

use super::BigUint;
use std::cmp::Ordering;

/// Montgomery context for a fixed odd modulus.
///
/// Conversion into Montgomery form costs one division; each multiplication
/// inside the domain is then division-free (CIOS algorithm) and writes
/// into limbs the caller owns, so an exponentiation allocates nothing.
/// Operands are little-endian limb slices of exactly the modulus's limb
/// count, zero padded.
#[derive(Clone)]
pub struct Montgomery {
    /// The modulus; normalized, so its limb count is the operand width.
    m: BigUint,
    /// `-m[0]^-1 mod 2^64`.
    n0: u64,
    /// `R^2 mod m` where `R = 2^(64*limbs)` — used to enter the domain.
    r2: Vec<u64>,
}

/// Widest modulus (1024 bits, the Std1024 public key) whose working limbs
/// live on the stack; wider ones — no RSA size here — take one heap
/// buffer per operation.
pub(crate) const STACK_LIMBS: usize = 16;

/// Runs `f` over `limbs` zeroed scratch limbs, on the stack when they
/// fit `STACK` (each caller's need at [`STACK_LIMBS`]) and on the heap
/// otherwise.
pub(crate) fn with_scratch<const STACK: usize, T>(
    limbs: usize,
    f: impl FnOnce(&mut [u64]) -> T,
) -> T {
    if limbs <= STACK {
        f(&mut [0u64; STACK][..limbs])
    } else {
        f(&mut vec![0u64; limbs])
    }
}

/// CIOS Montgomery multiplication, the one multiplication body:
/// `out = a * b * R^-1 mod m` for `a < R` and `b < m`, all of `m.len()`
/// limbs. `out` doubles as the running sum `t[0..n]` of the textbook
/// algorithm, whose two top limbs stay in registers.
#[inline(always)]
fn cios(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], n0: u64) {
    let n = m.len();
    assert!(out.len() == n && a.len() == n && b.len() == n, "operand width");
    out.fill(0);
    let mut top = 0u64; // t[n]
    for i in 0..n {
        // t += a[i] * b
        let mut carry: u128 = 0;
        for j in 0..n {
            let s = out[j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            out[j] = s as u64;
            carry = s >> 64;
        }
        let s = top as u128 + carry;
        let (t_n, t_n1) = (s as u64, (s >> 64) as u64);

        // Reduce: make t divisible by 2^64 and shift down one limb.
        let u = out[0].wrapping_mul(n0);
        let mut carry: u128 = (out[0] as u128 + u as u128 * m[0] as u128) >> 64;
        for j in 1..n {
            let s = out[j] as u128 + u as u128 * m[j] as u128 + carry;
            out[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = t_n as u128 + carry;
        out[n - 1] = s as u64;
        top = t_n1 + (s >> 64) as u64;
    }
    // The result `top:out` is < 2m: subtract m if needed.
    if top != 0 || cmp_limbs(out, m) != Ordering::Less {
        let borrow = sub_limbs(out, m);
        debug_assert_eq!(borrow, top);
    }
}

/// [`cios`] at a width known at compile time, so its loops unroll and
/// every bounds check folds away.
fn cios_fixed<const N: usize>(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], n0: u64) {
    const WIDTH: &str = "operand width";
    let out: &mut [u64; N] = out.try_into().expect(WIDTH);
    let a: &[u64; N] = a.try_into().expect(WIDTH);
    let b: &[u64; N] = b.try_into().expect(WIDTH);
    let m: &[u64; N] = m.try_into().expect(WIDTH);
    cios(out, a, b, m, n0);
}

impl Montgomery {
    /// Creates a context.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero.
    pub fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_zero() && !modulus.is_even(), "Montgomery modulus must be odd");
        let n = modulus.limbs.len();
        let n0 = inv64(modulus.limbs[0]).wrapping_neg();
        // R^2 mod m computed as 2^(128*len) mod m via shifting.
        let mut r2 = BigUint::one().shl(n * 64 * 2).rem(modulus).limbs;
        r2.resize(n, 0);
        Montgomery { m: modulus.clone(), n0, r2 }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.m
    }

    /// Operand width in limbs.
    pub(crate) fn limbs(&self) -> usize {
        self.m.limbs.len()
    }

    /// `out = a * b * R^-1 mod m` for `a < R`, `b < m`: [`cios`],
    /// instantiated at the widths RSA uses — the CRT halves and public
    /// moduli of Sim384 (3 and 6 limbs) and Std1024 (8 and 16) — and run
    /// over plain slices at any other.
    pub(crate) fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let (m, n0) = (&self.m.limbs[..], self.n0);
        match m.len() {
            3 => cios_fixed::<3>(out, a, b, m, n0),
            6 => cios_fixed::<6>(out, a, b, m, n0),
            8 => cios_fixed::<8>(out, a, b, m, n0),
            16 => cios_fixed::<16>(out, a, b, m, n0),
            _ => cios(out, a, b, m, n0),
        }
    }

    /// `acc = acc² * R^-1 mod m`; `tmp` is scratch.
    pub(crate) fn square(&self, acc: &mut [u64], tmp: &mut [u64]) {
        self.mul(tmp, acc, acc);
        acc.copy_from_slice(tmp);
    }

    /// `out = (a - b) mod m` for `a, b < m`.
    pub(crate) fn sub_mod(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        out.copy_from_slice(a);
        if sub_limbs(out, b) != 0 {
            add_limbs(out, &self.m.limbs);
        }
    }

    /// `out = v mod m`, zero padded to the operand width.
    fn load(&self, out: &mut [u64], v: &BigUint) {
        let reduced;
        let v = if *v < self.m {
            v
        } else {
            reduced = v.rem(&self.m);
            &reduced
        };
        out[..v.limbs.len()].copy_from_slice(&v.limbs);
        out[v.limbs.len()..].fill(0);
    }

    /// Enters the domain: `out = v * R mod m`, for any `v < R`.
    pub(crate) fn to_mont(&self, out: &mut [u64], v: &[u64]) {
        self.mul(out, v, &self.r2);
    }

    /// `out = R mod m`, the domain's one; `tmp` is scratch.
    pub(crate) fn mont_one(&self, out: &mut [u64], tmp: &mut [u64]) {
        set_one(tmp);
        self.to_mont(out, tmp);
    }

    /// Leaves the domain: `out = v * R^-1 mod m`; `tmp` is scratch.
    #[allow(clippy::wrong_self_convention)] // converts `v`, not `self`
    fn from_mont(&self, out: &mut [u64], v: &[u64], tmp: &mut [u64]) {
        set_one(tmp);
        self.mul(out, tmp, v);
    }

    /// Accounts `muls` multiplications in [`crate::costs`] as `n²`
    /// deterministic limb-operation units each (one unit per CIOS
    /// inner-loop step).
    pub(crate) fn charge(&self, muls: u64) {
        let n = self.limbs() as u64;
        crate::costs::add_rsa_limb_ops(muls * n * n);
    }

    /// Exponents below this many bits use plain square-and-multiply: the
    /// fixed-window table costs `WINDOW_TABLE_MULS` multiplications up
    /// front, which never amortizes for short, sparse exponents like the
    /// RSA public exponent 65537 (binary: 18 muls; windowed: ≈ 35).
    const WINDOW_MIN_BITS: usize = 64;

    /// Computes `base^exp mod m`.
    ///
    /// Long exponents (private-key operations: CRT decrypt, sign) run
    /// fixed-window left-to-right exponentiation with
    /// `2^WINDOW_BITS`-ary precomputation; short ones fall back to
    /// plain square-and-multiply. For a uniformly random `e`-bit
    /// exponent, binary costs `e` squarings plus `e/2` multiplies while
    /// the 4-bit window costs `e` squarings plus `e/4 · 15/16` table
    /// multiplies plus 14 precompute multiplies — ≈ 17% fewer
    /// multiplications at RSA sizes.
    ///
    /// Accounts `n² × multiplications` deterministic limb-operation units
    /// in [`crate::costs`], so the cost model tracks the actual
    /// multiplication count of this exact exponent and window schedule —
    /// which is therefore frozen: every simulated crypto cost depends on
    /// it.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs()];
        self.pow_into(&mut out, base, exp);
        BigUint::from_limbs(out)
    }

    /// [`pow`](Self::pow) into caller-owned limbs: no heap allocation
    /// when `base` is already reduced.
    pub(crate) fn pow_into(&self, out: &mut [u64], base: &BigUint, exp: &BigUint) {
        self.run(out, exp, |acc| self.pow_mont(acc, base, exp));
    }

    /// Plain left-to-right binary square-and-multiply at any exponent
    /// length — the oracle the windowed path is validated against. Same
    /// deterministic limb-op accounting as [`Montgomery::pow`].
    #[cfg(test)]
    fn pow_binary(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs()];
        self.run(&mut out, exp, |acc| self.binary_mont(acc, base, exp));
        BigUint::from_limbs(out)
    }

    /// Runs one exponentiation `schedule` — which leaves its result in
    /// the domain and returns its multiplication count — then leaves the
    /// domain into `out` and charges the lot, once.
    fn run(&self, out: &mut [u64], exp: &BigUint, schedule: impl FnOnce(&mut [u64]) -> u64) {
        if exp.is_zero() {
            // x^0: no multiplication runs and none is charged.
            return self.load(out, &BigUint::one());
        }
        let n = self.limbs();
        with_scratch::<{ 2 * STACK_LIMBS }, _>(2 * n, |scratch| {
            let (acc, tmp) = scratch.split_at_mut(n);
            let muls = schedule(acc);
            self.from_mont(out, acc, tmp);
            self.charge(muls + 1);
        })
    }

    /// `acc = base^exp` for `exp > 0`, left in the Montgomery domain, by
    /// the schedule [`pow`](Self::pow) describes. Returns the number of
    /// multiplications run, for the caller to charge.
    pub(crate) fn pow_mont(&self, acc: &mut [u64], base: &BigUint, exp: &BigUint) -> u64 {
        if exp.bits() < Self::WINDOW_MIN_BITS {
            return self.binary_mont(acc, base, exp);
        }
        let n = self.limbs();
        with_scratch::<{ (TABLE_SIZE + 1) * STACK_LIMBS }, _>((TABLE_SIZE + 1) * n, |scratch| {
            let (table, tmp) = scratch.split_at_mut(TABLE_SIZE * n);
            // table[d] = base^d in the domain (table[0], the one, only
            // seeds the accumulator: zero windows are squarings only).
            self.load(tmp, base);
            self.to_mont(&mut table[n..2 * n], tmp);
            self.mont_one(&mut table[..n], tmp);
            let mut muls: u64 = 2; // the two to_mont conversions above
            for d in 2..TABLE_SIZE {
                let (lower, upper) = table.split_at_mut(d * n);
                self.mul(&mut upper[..n], &lower[(d - 1) * n..], &lower[n..2 * n]);
                muls += 1;
            }
            debug_assert_eq!(muls, 2 + WINDOW_TABLE_MULS);

            // Left-to-right over 4-bit windows, most significant first. The
            // top window may be short; processing it like any other keeps the
            // loop uniform (leading squarings of 1 are still multiplications
            // and are accounted as such — the cost model charges what runs).
            let bits = exp.bits();
            let windows = bits.div_ceil(WINDOW_BITS);
            acc.copy_from_slice(&table[..n]);
            let mut acc = Accumulator { ctx: self, value: acc, spare: tmp, swapped: false };
            for w in (0..windows).rev() {
                for _ in 0..WINDOW_BITS {
                    acc.mul(None);
                    muls += 1;
                }
                let mut digit = 0usize;
                for b in 0..WINDOW_BITS {
                    let bit_idx = w * WINDOW_BITS + (WINDOW_BITS - 1 - b);
                    digit <<= 1;
                    if bit_idx < bits && exp.bit(bit_idx) {
                        digit |= 1;
                    }
                }
                if digit != 0 {
                    acc.mul(Some(&table[digit * n..(digit + 1) * n]));
                    muls += 1;
                }
            }
            acc.finish();
            muls
        })
    }

    /// [`pow_mont`](Self::pow_mont) by binary square-and-multiply.
    fn binary_mont(&self, acc: &mut [u64], base: &BigUint, exp: &BigUint) -> u64 {
        let n = self.limbs();
        with_scratch::<{ 2 * STACK_LIMBS }, _>(2 * n, |scratch| {
            let (mb, tmp) = scratch.split_at_mut(n);
            self.load(tmp, base);
            self.to_mont(mb, tmp);
            self.mont_one(acc, tmp);
            let mut muls: u64 = 2; // the two to_mont conversions above
            let mut acc = Accumulator { ctx: self, value: acc, spare: tmp, swapped: false };
            for i in (0..exp.bits()).rev() {
                acc.mul(None);
                muls += 1;
                if exp.bit(i) {
                    acc.mul(Some(mb));
                    muls += 1;
                }
            }
            acc.finish();
            muls
        })
    }
}

/// The running value of an exponentiation. A multiplication cannot write
/// over its own operand, so the value alternates between the caller's
/// limbs and a spare buffer instead of being copied back after each of
/// the hundreds of multiplications.
struct Accumulator<'a> {
    ctx: &'a Montgomery,
    value: &'a mut [u64],
    spare: &'a mut [u64],
    /// Whether the value currently sits in `spare`.
    swapped: bool,
}

impl Accumulator<'_> {
    /// `value = value * b * R^-1 mod m`, squaring when `b` is `None`.
    fn mul(&mut self, b: Option<&[u64]>) {
        let (from, to) = if self.swapped {
            (&*self.spare, &mut *self.value)
        } else {
            (&*self.value, &mut *self.spare)
        };
        self.ctx.mul(to, from, b.unwrap_or(from));
        self.swapped = !self.swapped;
    }

    /// Leaves the value in the caller's limbs.
    fn finish(self) {
        if self.swapped {
            self.value.copy_from_slice(self.spare);
        }
    }
}

/// Window width of the fixed-window exponentiation (4 bits = hexadecimal
/// digits). 4 is the sweet spot at 512–2048-bit exponents: width 5 would
/// double the table cost (30 muls) for one fewer table multiply per 20
/// exponent bits.
const WINDOW_BITS: usize = 4;
/// Entries of the power table of the windowed exponentiation.
const TABLE_SIZE: usize = 1 << WINDOW_BITS;
/// Multiplications spent building the table (entries 2..16; entry 0 is
/// one, entry 1 is the base).
const WINDOW_TABLE_MULS: u64 = TABLE_SIZE as u64 - 2;

fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// `a -= b` over equal widths; returns the borrow out.
fn sub_limbs(a: &mut [u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 || b2;
    }
    borrow as u64
}

/// `a += b` over equal widths, dropping the carry out.
fn add_limbs(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(carry as u64);
        *x = s;
        carry = c1 || c2;
    }
}

fn set_one(limbs: &mut [u64]) {
    limbs.fill(0);
    limbs[0] = 1;
}

/// Inverse of an odd `m` modulo 2^64 by Newton iteration.
fn inv64(m: u64) -> u64 {
    debug_assert!(m & 1 == 1);
    let mut x = m; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
    }
    debug_assert_eq!(m.wrapping_mul(x), 1);
    x
}

impl BigUint {
    /// Computes `self^exp mod modulus` by Montgomery multiplication,
    /// building the context (one division for `R² mod m`) on each call;
    /// callers that reuse a modulus keep a [`Montgomery`] instead, as the
    /// RSA key pair does for its primes and Miller–Rabin for its
    /// candidate. Every modulus here is odd: an RSA modulus, a prime or a
    /// prime candidate.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero, as [`Montgomery::new`] does.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        Montgomery::new(modulus).pow(self, exp)
    }

    /// Computes the multiplicative inverse of `self` modulo `modulus`, if
    /// `gcd(self, modulus) == 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid, tracking only the Bezout coefficient of `self`.
        // Coefficients are signed; we carry (magnitude, negative?) pairs.
        let mut r0 = self.rem(modulus);
        let mut r1 = modulus.clone();
        if r0.is_zero() {
            return None;
        }
        let mut t0 = (BigUint::one(), false);
        let mut t1 = (BigUint::zero(), false);
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            // (t0, t1) = (t1, t0 - q * t1)
            let qt1 = (q.mul(&t1.0), t1.1);
            let new_t = signed_sub(&t0, &qt1);
            r0 = std::mem::replace(&mut r1, r);
            t0 = std::mem::replace(&mut t1, new_t);
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem(modulus);
        if neg && !mag.is_zero() {
            Some(modulus.sub(&mag))
        } else {
            Some(mag)
        }
    }

    /// Computes `gcd(self, other)` by the Euclidean algorithm.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = std::mem::replace(&mut b, r);
        }
        a
    }
}

/// `a - b` on (magnitude, negative?) signed pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        (false, true) => (a.0.add(&b.0), false),  // a + |b|
        (true, false) => (a.0.add(&b.0), true),   // -(|a| + b)
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        (true, true) => {
            // -|a| + |b|
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn modpow_small() {
        assert_eq!(big(2).modpow(&big(10), &big(1001)), big(23)); // 1024 mod 1001
        assert_eq!(big(3).modpow(&big(0), &big(7)), big(1));
        assert_eq!(big(7).modpow(&big(3), &big(1)), BigUint::zero());
        assert_eq!(big(5).modpow(&big(117), &big(19)), big(1)); // 5^18 ≡ 1, 117 = 6*18+9 → 5^9 mod 19
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p.
        let p = big(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(big(a).modpow(&p.sub(&big(1)), &p), big(1));
        }
    }

    #[test]
    fn modpow_multi_limb() {
        // Check Montgomery against the naive path on a multi-limb odd modulus.
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff61, 0x1234_5678_9abc_def1]);
        let base = BigUint::from_limbs(vec![0xdead_beef, 0xcafe]);
        let exp = big(65537);
        let fast = base.modpow(&exp, &m);
        // Naive square-and-multiply with explicit reduction.
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul(&acc).rem(&m);
            if exp.bit(i) {
                acc = acc.mul(&base).rem(&m);
            }
        }
        assert_eq!(fast, acc);
    }

    /// Deterministic pseudo-random limbs for exponentiation tests
    /// (splitmix64 — no RNG dependency inside the bignum module).
    fn mix_limbs(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn windowed_pow_matches_binary() {
        let mut m_limbs = mix_limbs(1, 4);
        m_limbs[0] |= 1; // odd modulus
        let m = BigUint::from_limbs(m_limbs);
        let ctx = Montgomery::new(&m);
        for seed in 2..8u64 {
            let base = BigUint::from_limbs(mix_limbs(seed, 3));
            // Exponents straddling the window threshold, including
            // multi-limb ones with long zero runs.
            for exp in [
                BigUint::from(65537u64),
                BigUint::from_limbs(mix_limbs(seed + 100, 2)),
                BigUint::from_limbs(vec![1, 0, 0, 0x8000_0000_0000_0000]),
                BigUint::from_limbs(mix_limbs(seed + 200, 8)),
            ] {
                assert_eq!(
                    ctx.pow(&base, &exp),
                    ctx.pow_binary(&base, &exp),
                    "windowed and binary exponentiation diverged (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn windowed_pow_costs_fewer_limb_ops_on_long_exponents() {
        let mut m_limbs = mix_limbs(9, 8);
        m_limbs[0] |= 1;
        let m = BigUint::from_limbs(m_limbs);
        let ctx = Montgomery::new(&m);
        let base = BigUint::from_limbs(mix_limbs(10, 7));
        let exp = BigUint::from_limbs(mix_limbs(11, 8)); // ~512-bit exponent
        let before = crate::costs::snapshot();
        let _ = ctx.pow_binary(&base, &exp);
        let binary = crate::costs::snapshot().since(before).rsa_limb_ops;
        let before = crate::costs::snapshot();
        let _ = ctx.pow(&base, &exp);
        let windowed = crate::costs::snapshot().since(before).rsa_limb_ops;
        // Expected ≈ 649/771 ≈ 0.84 of the binary cost for a random
        // 512-bit exponent; assert a conservative corridor.
        assert!(windowed < binary, "windowed ({windowed}) not cheaper than binary ({binary})");
        assert!(
            windowed * 100 <= binary * 92 && windowed * 100 >= binary * 70,
            "windowed/binary ratio out of corridor: {windowed}/{binary}"
        );
        // Short exponents take the binary path, so the table is never
        // wasted on e = 65537.
        let e = BigUint::from(65537u64);
        let before = crate::costs::snapshot();
        let _ = ctx.pow(&base, &e);
        let short_windowed = crate::costs::snapshot().since(before).rsa_limb_ops;
        let before = crate::costs::snapshot();
        let _ = ctx.pow_binary(&base, &e);
        let short_binary = crate::costs::snapshot().since(before).rsa_limb_ops;
        assert_eq!(short_windowed, short_binary, "short exponents must use the binary path");
    }

    #[test]
    fn inv64_works() {
        for m in [1u64, 3, 5, 0xffff_ffff_ffff_ffff, 0x1234_5678_9abc_def1] {
            assert_eq!(m.wrapping_mul(inv64(m)), 1);
        }
    }

    #[test]
    fn modinv_basic() {
        let inv = big(3).modinv(&big(7)).unwrap();
        assert_eq!(inv, big(5)); // 3*5 = 15 ≡ 1 mod 7
        assert_eq!(big(2).modinv(&big(4)), None); // gcd 2
        assert_eq!(big(0).modinv(&big(7)), None);
    }

    #[test]
    fn modinv_round_trip() {
        let m = big(1_000_000_007);
        for a in [2u64, 3, 999, 123_456_789] {
            let inv = big(a).modinv(&m).unwrap();
            assert_eq!(big(a).mul(&inv).rem(&m), big(1));
        }
    }

    #[test]
    fn modinv_multi_limb() {
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff61, 0x1234_5678_9abc_def1]);
        let a = BigUint::from_limbs(vec![0x1111_2222, 0x42]);
        let inv = a.modinv(&m).unwrap();
        assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn montgomery_round_trip() {
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff61, 0x1234_5678_9abc_def1]);
        let ctx = Montgomery::new(&m);
        let v = [0xabcdef, 0x77];
        let (mut domain, mut back, mut tmp) = ([0u64; 2], [0u64; 2], [0u64; 2]);
        ctx.to_mont(&mut domain, &v);
        ctx.from_mont(&mut back, &domain, &mut tmp);
        assert_eq!(back, v);
    }

    /// The one multiplication body against schoolbook `mul` then `rem`,
    /// through a `to_mont`/`from_mont` round trip: random odd moduli of
    /// every width from 1 to 33 limbs — the four specialised ones and the
    /// slice path around and beyond them — full-width and short in the
    /// top limb, with 0, 1 and m − 1 among the operands, and with the
    /// final conditional subtraction seen both taken and not at each
    /// width.
    #[test]
    fn mul_matches_mul_then_rem_at_every_width() {
        use std::cell::Cell;
        use whisper_rand::check::check;
        use whisper_rand::Rng;

        for width in 1..=33usize {
            let (subtracted, kept) = (Cell::new(0u32), Cell::new(0u32));
            check(6, "mul_matches_mul_then_rem_at_every_width", |g| {
                for full_width in [true, false] {
                    let mut m: Vec<u64> = (0..width).map(|_| g.gen()).collect();
                    m[width - 1] = if full_width {
                        m[width - 1] | 1 << 63
                    } else {
                        m[width - 1] >> g.gen_range(1..64u32) | 1
                    };
                    m[0] |= 1;
                    let m = BigUint::from_limbs(m);
                    let ctx = Montgomery::new(&m);
                    assert_eq!(ctx.limbs(), width);
                    // R and -m^-1 mod R, to replay the reduction below.
                    let r = BigUint::one().shl(64 * width);
                    let n_prime = r.sub(&m.modinv(&r).expect("odd"));

                    let mut below_m =
                        || BigUint::from_limbs((0..width).map(|_| g.gen()).collect()).rem(&m);
                    let operands = [
                        BigUint::zero(),
                        BigUint::one().rem(&m),
                        m.sub(&BigUint::one()),
                        below_m(),
                        below_m(),
                    ];
                    let pad = |v: &BigUint| {
                        let mut limbs = v.limbs.clone();
                        limbs.resize(width, 0);
                        limbs
                    };
                    for a in &operands {
                        for b in &operands {
                            let mut buf = vec![0u64; 5 * width];
                            let (am, rest) = buf.split_at_mut(width);
                            let (bm, rest) = rest.split_at_mut(width);
                            let (cm, rest) = rest.split_at_mut(width);
                            let (c, tmp) = rest.split_at_mut(width);
                            ctx.to_mont(am, &pad(a));
                            ctx.to_mont(bm, &pad(b));
                            ctx.mul(cm, am, bm);
                            ctx.from_mont(c, cm, tmp);
                            assert_eq!(BigUint::from_limbs(c.to_vec()), a.mul(b).rem(&m));

                            // What the body holds before its conditional
                            // subtraction: t = (am*bm + u*m) / R with
                            // u = am*bm * -m^-1 mod R.
                            let product =
                                BigUint::from_limbs(am.to_vec()).mul(&BigUint::from_limbs(bm.to_vec()));
                            let u = product.rem(&r).mul(&n_prime).rem(&r);
                            let t = product.add(&u.mul(&m)).shr(64 * width);
                            let (counter, reduced) =
                                if t >= m { (&subtracted, t.sub(&m)) } else { (&kept, t) };
                            counter.set(counter.get() + 1);
                            assert_eq!(BigUint::from_limbs(cm.to_vec()), reduced);
                        }
                    }
                }
            });
            assert!(
                subtracted.get() > 0 && kept.get() > 0,
                "width {width}: final subtraction taken {} times, skipped {}",
                subtracted.get(),
                kept.get()
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn montgomery_rejects_even() {
        Montgomery::new(&big(10));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn modpow_rejects_even() {
        big(7).modpow(&big(3), &big(10));
    }
}
