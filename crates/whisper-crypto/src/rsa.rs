//! RSA key generation, encryption and signatures.
//!
//! The construction follows PKCS#1 v1.5 block formatting (type 1 blocks for
//! signatures, type 2 for encryption), with one simplification: signatures
//! embed the raw SHA-256 digest rather than an ASN.1 `DigestInfo`
//! structure. Private-key operations use the Chinese Remainder Theorem.
//!
//! # Key sizes
//!
//! The WHISPER paper uses 1 KB public keys on the wire. Reproducing
//! thousand-node experiments with full-size keys would spend most of the
//! wall clock in key *generation*, so [`RsaKeySize`] offers "sim-grade"
//! short moduli (384/512 bits) for large simulations next to the standard
//! 1024/2048-bit sizes used by the crypto cost benchmarks (Table II).
//!
//! ```
//! use whisper_crypto::rsa::{KeyPair, RsaKeySize};
//! use whisper_rand::SeedableRng;
//!
//! # fn main() -> Result<(), whisper_crypto::CryptoError> {
//! let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(1);
//! let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
//! let ct = kp.public().encrypt(b"hi", &mut rng)?;
//! assert_eq!(kp.decrypt(&ct)?, b"hi");
//! # Ok(())
//! # }
//! ```

use crate::bignum::{gen_prime, mul_acc, with_scratch, BigUint, Montgomery, STACK_LIMBS};
use crate::sha256::Sha256;
use crate::CryptoError;
use std::sync::Arc;
use whisper_rand::Rng;

/// Supported RSA modulus sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RsaKeySize {
    /// 384-bit modulus — sim-grade, fast keygen, fits hybrid session keys.
    Sim384,
    /// 512-bit modulus — sim-grade.
    Sim512,
    /// 1024-bit modulus — the realistic size used for CPU-cost experiments.
    Std1024,
    /// 2048-bit modulus.
    Std2048,
}

impl RsaKeySize {
    /// Modulus size in bits.
    pub fn bits(self) -> usize {
        match self {
            RsaKeySize::Sim384 => 384,
            RsaKeySize::Sim512 => 512,
            RsaKeySize::Std1024 => 1024,
            RsaKeySize::Std2048 => 2048,
        }
    }

    /// Modulus size in bytes.
    pub fn bytes(self) -> usize {
        self.bits() / 8
    }
}

/// An RSA public key `(n, e)`.
///
/// A key is immutable once built, and the protocol layers copy keys
/// around constantly (view entries, gateway lists, destination
/// descriptors, onion paths), so the handle is a shared pointer: a clone
/// is a reference-count bump, not three buffer copies. Equality and
/// hashing are by value.
///
/// The canonical wire serialization (`len(n) ‖ n ‖ len(e) ‖ e`) is
/// computed once at construction and cached, so the hot gossip paths
/// that ship the same unchanged key on every exchange never re-serialize
/// it — see [`wire_bytes`](Self::wire_bytes).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PublicKey(Arc<KeyParts>);

#[derive(PartialEq, Eq, Hash)]
struct KeyParts {
    n: BigUint,
    e: BigUint,
    k: usize, // modulus length in bytes
    /// Cached canonical serialization; a pure function of `(n, e)`, so
    /// the derived `PartialEq`/`Hash` stay consistent.
    wire: Vec<u8>,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({} bits, fp {:02x?})", self.0.n.bits(), self.fingerprint())
    }
}

/// An RSA key pair with CRT acceleration parameters.
///
/// The Montgomery contexts of both primes are built once, with the key,
/// and a private-key operation runs on their fixed-width limbs from the
/// two exponentiations through the recombination.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    p: CrtPrime,
    q: CrtPrime,
    /// Inverse of the smaller prime modulo the larger, in the larger
    /// one's Montgomery form.
    coeff: Vec<u64>,
}

/// One prime of a key pair with its share of the private exponent.
#[derive(Clone)]
struct CrtPrime {
    ctx: Montgomery,
    /// `d mod (prime − 1)`.
    exp: BigUint,
}

/// The recombination runs modulo the larger prime: the other prime's
/// residue is then already reduced, whichever order the primes were
/// generated or serialized in.
fn larger_first<'a>(p: &'a CrtPrime, q: &'a CrtPrime) -> (&'a CrtPrime, &'a CrtPrime) {
    if p.ctx.modulus() > q.ctx.modulus() {
        (p, q)
    } else {
        (q, p)
    }
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "KeyPair({} bits)", self.public.0.n.bits())
    }
}

const PUBLIC_EXPONENT: u64 = 65537;
/// Minimum PKCS#1 v1.5 padding overhead: 2 header bytes, >= 8 padding
/// bytes, 1 separator.
const PAD_OVERHEAD: usize = 11;
/// The shortest modulus a key may have, in bytes: what a signature block
/// needs (2 header bytes, a separator, a 32-byte digest), and what
/// [`crate::hybrid::seal`] needs to encrypt its 24-byte secret behind 11
/// bytes of padding. Shorter keys are refused where they are parsed.
pub const MIN_MODULUS_BYTES: usize = 35;

impl KeyPair {
    /// Generates a fresh key pair of the given size.
    pub fn generate<R: Rng>(size: RsaKeySize, rng: &mut R) -> Self {
        let half = size.bits() / 2;
        loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(half, rng);
            if let Some(pair) = Self::from_primes(p, q, BigUint::from(PUBLIC_EXPONENT)) {
                debug_assert_eq!(pair.public.0.k, size.bytes());
                return pair;
            }
        }
    }

    /// Derives the key pair of two distinct odd primes and a public
    /// exponent, or `None` when they make no usable key: equal or even
    /// "primes", an exponent with no inverse, or a modulus whose bit
    /// length is not a whole number of bytes or is under
    /// [`MIN_MODULUS_BYTES`].
    fn from_primes(p: BigUint, q: BigUint, e: BigUint) -> Option<Self> {
        if p == q || p.is_even() || q.is_even() {
            return None;
        }
        let one = BigUint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        let d = e.modinv(&p1.mul(&q1))?;
        let n = p.mul(&q);
        if !n.bits().is_multiple_of(8) || n.bits() < 8 * MIN_MODULUS_BYTES {
            return None;
        }
        let k = n.bits() / 8;
        let p = CrtPrime { exp: d.rem(&p1), ctx: Montgomery::new(&p) };
        let q = CrtPrime { exp: d.rem(&q1), ctx: Montgomery::new(&q) };
        let (hi, lo) = larger_first(&p, &q);
        let inv = lo.ctx.modulus().modinv(hi.ctx.modulus())?;
        let mut inv = inv.limbs;
        inv.resize(hi.ctx.limbs(), 0);
        let mut coeff = vec![0u64; inv.len()];
        hi.ctx.to_mont(&mut coeff, &inv);
        Some(KeyPair { public: PublicKey::assemble(n, e, k), p, q, coeff })
    }

    /// The public half of this key pair.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Raw CRT-accelerated private-key operation `c^d mod n` (Garner's
    /// recombination): with `hi > lo` the two primes,
    /// `m = m_lo + lo · (lo⁻¹ · (m_hi − m_lo) mod hi)`.
    fn private_op(&self, c: &BigUint) -> BigUint {
        let (hi, lo) = larger_first(&self.p, &self.q);
        let (nh, nl) = (hi.ctx.limbs(), lo.ctx.limbs());
        with_scratch::<{ 4 * STACK_LIMBS }, _>(4 * nh, |scratch| {
            let (m_hi, rest) = scratch.split_at_mut(nh);
            // The smaller prime's residue, zero padded to the larger
            // one's width.
            let (m_lo, rest) = rest.split_at_mut(nh);
            let (diff, h) = rest.split_at_mut(nh);
            hi.ctx.pow_into(m_hi, c, &hi.exp);
            lo.ctx.pow_into(&mut m_lo[..nl], c, &lo.exp);
            hi.ctx.sub_mod(diff, m_hi, m_lo);
            hi.ctx.mul(h, diff, &self.coeff);
            let mut m = vec![0u64; nh + nl];
            m[..nl].copy_from_slice(&m_lo[..nl]);
            mul_acc(&mut m, h, &lo.ctx.modulus().limbs);
            BigUint::from_limbs(m)
        })
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext produced by
    /// [`PublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CiphertextOutOfRange`] if the ciphertext does
    /// not fit the modulus and [`CryptoError::InvalidPadding`] if the
    /// decrypted block is not well-formed (e.g. the ciphertext was produced
    /// for a different key).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.0.n {
            return Err(CryptoError::CiphertextOutOfRange);
        }
        let m = self.private_op(&c);
        let em = m.to_bytes_be_padded(self.public.0.k);
        // EM = 0x00 0x02 PS 0x00 M
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::InvalidPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::InvalidPadding)?;
        if sep < 8 {
            // Padding string must be at least 8 bytes.
            return Err(CryptoError::InvalidPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Serializes the full key pair as `len(p) ‖ p ‖ len(q) ‖ q ‖ len(e) ‖ e`
    /// (two-byte big-endian length prefixes). The CRT parameters are
    /// recomputed on load, so the encoding stays minimal (~3/2 the modulus
    /// size). Used by the PPSS group journal to persist a leader's group
    /// key across crash-restart; never sent on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let p = self.p.ctx.modulus().to_bytes_be();
        let q = self.q.ctx.modulus().to_bytes_be();
        let e = self.public.0.e.to_bytes_be();
        let mut out = Vec::with_capacity(6 + p.len() + q.len() + e.len());
        for part in [&p, &q, &e] {
            out.extend_from_slice(&(part.len() as u16).to_be_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    /// Parses a key pair serialized by [`to_bytes`](Self::to_bytes),
    /// rebuilding the CRT acceleration parameters. Returns `None` on
    /// malformed input (wrong framing, equal or even primes,
    /// non-invertible exponent, or a modulus whose bit length is not a
    /// whole number of bytes or is under [`MIN_MODULUS_BYTES`]).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        fn take<'a>(bytes: &mut &'a [u8]) -> Option<&'a [u8]> {
            let len = u16::from_be_bytes([*bytes.first()?, *bytes.get(1)?]) as usize;
            let part = bytes.get(2..2 + len)?;
            *bytes = &bytes[2 + len..];
            Some(part)
        }
        let mut rest = bytes;
        let p = BigUint::from_bytes_be(take(&mut rest)?);
        let q = BigUint::from_bytes_be(take(&mut rest)?);
        let e = BigUint::from_bytes_be(take(&mut rest)?);
        if !rest.is_empty() {
            return None;
        }
        Self::from_primes(p, q, e)
    }

    /// Signs `message` (SHA-256 digest in a PKCS#1 v1.5 type-1 block).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let digest = Sha256::digest(message);
        let k = self.public.0.k;
        // EM = 0x00 0x01 0xFF...0xFF 0x00 digest
        let mut em = vec![0xFFu8; k];
        em[0] = 0x00;
        em[1] = 0x01;
        em[k - 33] = 0x00;
        em[k - 32..].copy_from_slice(&digest);
        let m = BigUint::from_bytes_be(&em);
        self.private_op(&m).to_bytes_be_padded(k)
    }
}

impl PublicKey {
    /// Builds a key from its parts, computing the cached canonical wire
    /// serialization. [`PublicKey::from_bytes`], which accepts that
    /// serialization only, keeps its input instead.
    fn assemble(n: BigUint, e: BigUint, k: usize) -> PublicKey {
        let n_bytes = n.to_bytes_be();
        let e_bytes = e.to_bytes_be();
        let mut wire = Vec::with_capacity(4 + n_bytes.len() + e_bytes.len());
        wire.extend_from_slice(&(n_bytes.len() as u16).to_be_bytes());
        wire.extend_from_slice(&n_bytes);
        wire.extend_from_slice(&(e_bytes.len() as u16).to_be_bytes());
        wire.extend_from_slice(&e_bytes);
        PublicKey(Arc::new(KeyParts { n, e, k, wire }))
    }

    /// Maximum plaintext size for a single [`encrypt`](Self::encrypt) call.
    pub fn max_payload(&self) -> usize {
        self.0.k - PAD_OVERHEAD
    }

    /// Modulus length in bytes.
    pub fn modulus_bytes(&self) -> usize {
        self.0.k
    }

    /// Encrypts `message` with PKCS#1 v1.5 type-2 padding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if `message` exceeds
    /// [`max_payload`](Self::max_payload).
    pub fn encrypt<R: Rng>(&self, message: &[u8], rng: &mut R) -> Result<Vec<u8>, CryptoError> {
        if message.len() > self.max_payload() {
            return Err(CryptoError::MessageTooLong {
                message_len: message.len(),
                max_len: self.max_payload(),
            });
        }
        let mut em = vec![0u8; self.0.k];
        em[1] = 0x02;
        let ps_len = self.0.k - 3 - message.len();
        for b in &mut em[2..2 + ps_len] {
            *b = rng.gen_range(1..=255u8);
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(message);
        let m = BigUint::from_bytes_be(&em);
        let c = m.modpow(&self.0.e, &self.0.n);
        Ok(c.to_bytes_be_padded(self.0.k))
    }

    /// Verifies a signature produced by [`KeyPair::sign`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] if the signature does not
    /// match `message` under this key.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let s = BigUint::from_bytes_be(signature);
        if s >= self.0.n {
            return Err(CryptoError::BadSignature);
        }
        let v = s.modpow(&self.0.e, &self.0.n);
        let em = v.to_bytes_be_padded(self.0.k);
        if em[0] != 0x00 || em[1] != 0x01 {
            return Err(CryptoError::BadSignature);
        }
        if em[2..self.0.k - 33].iter().any(|&b| b != 0xFF) || em[self.0.k - 33] != 0x00 {
            return Err(CryptoError::BadSignature);
        }
        let digest = Sha256::digest(message);
        if em[self.0.k - 32..] != digest {
            return Err(CryptoError::BadSignature);
        }
        Ok(())
    }

    /// Serializes the key as `len(n) ‖ n ‖ len(e) ‖ e` (two-byte
    /// big-endian length prefixes). Returns a copy of the cached blob;
    /// use [`wire_bytes`](Self::wire_bytes) to avoid the allocation.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.wire.clone()
    }

    /// The cached canonical serialization, borrowed. Writers embedding
    /// the key in a wire message can copy straight from this slice
    /// instead of re-serializing the (unchanged) key on every send.
    pub fn wire_bytes(&self) -> &[u8] {
        &self.0.wire
    }

    /// Parses a key serialized by [`to_bytes`](Self::to_bytes) — exactly
    /// those byte strings: `n` and `e` in their minimal big-endian form
    /// (no leading zero byte, `e` not empty) and nothing after `e`. One
    /// key therefore has one encoding, and the input itself becomes the
    /// cached [`wire_bytes`](Self::wire_bytes). A modulus under
    /// [`MIN_MODULUS_BYTES`] is refused: it could neither check a
    /// signature nor seal a secret.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let n_len = u16::from_be_bytes([*bytes.first()?, *bytes.get(1)?]) as usize;
        let n_bytes = bytes.get(2..2 + n_len)?;
        let rest = &bytes[2 + n_len..];
        let e_len = u16::from_be_bytes([*rest.first()?, *rest.get(1)?]) as usize;
        if rest.len() != 2 + e_len {
            return None;
        }
        let e_bytes = &rest[2..];
        if *n_bytes.first()? == 0 || *e_bytes.first()? == 0 {
            return None;
        }
        let n = BigUint::from_bytes_be(n_bytes);
        if !n.bits().is_multiple_of(8) || n.bits() < 8 * MIN_MODULUS_BYTES {
            return None;
        }
        let k = n.bits() / 8;
        let e = BigUint::from_bytes_be(e_bytes);
        Some(PublicKey(Arc::new(KeyParts { n, e, k, wire: bytes.to_vec() })))
    }

    /// Short (8-byte) SHA-256-based fingerprint, used as a compact key
    /// identifier in view entries.
    pub fn fingerprint(&self) -> [u8; 8] {
        let digest = Sha256::digest(&self.0.wire);
        let mut fp = [0u8; 8];
        fp.copy_from_slice(&digest[..8]);
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    fn keypair() -> KeyPair {
        KeyPair::generate(RsaKeySize::Sim384, &mut rng())
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut r = rng();
        let kp = keypair();
        for msg in [&b""[..], b"x", b"hello world", &[0u8; 37]] {
            let ct = kp.public().encrypt(msg, &mut r).unwrap();
            assert_eq!(ct.len(), kp.public().modulus_bytes());
            assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn message_too_long_rejected() {
        let mut r = rng();
        let kp = keypair();
        let too_long = vec![1u8; kp.public().max_payload() + 1];
        assert!(matches!(
            kp.public().encrypt(&too_long, &mut r),
            Err(CryptoError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn decrypt_with_wrong_key_fails() {
        let mut r = rng();
        let kp1 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let kp2 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let ct = kp1.public().encrypt(b"secret", &mut r).unwrap();
        assert!(kp2.decrypt(&ct).is_err());
    }

    #[test]
    fn ciphertext_out_of_range_rejected() {
        let kp = keypair();
        let huge = vec![0xFF; kp.public().modulus_bytes() + 1];
        assert_eq!(kp.decrypt(&huge), Err(CryptoError::CiphertextOutOfRange));
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair();
        let sig = kp.sign(b"the membership stays secret");
        kp.public().verify(b"the membership stays secret", &sig).unwrap();
    }

    #[test]
    fn tampered_message_fails_verification() {
        let kp = keypair();
        let sig = kp.sign(b"original");
        assert_eq!(
            kp.public().verify(b"tampered", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let kp = keypair();
        let mut sig = kp.sign(b"original");
        sig[10] ^= 1;
        assert_eq!(
            kp.public().verify(b"original", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn signature_from_other_key_fails() {
        let mut r = rng();
        let kp1 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let kp2 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let kp = keypair();
        let bytes = kp.public().to_bytes();
        let parsed = PublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, kp.public());
        assert_eq!(parsed.fingerprint(), kp.public().fingerprint());
    }

    #[test]
    fn cached_wire_blob_matches_fresh_encode() {
        // The cached blob must equal a from-scratch serialization of
        // (n, e) on every construction path: generate, parse, and
        // key-pair reload.
        fn fresh_encode(key: &PublicKey) -> Vec<u8> {
            let n = key.0.n.to_bytes_be();
            let e = key.0.e.to_bytes_be();
            let mut out = Vec::with_capacity(4 + n.len() + e.len());
            out.extend_from_slice(&(n.len() as u16).to_be_bytes());
            out.extend_from_slice(&n);
            out.extend_from_slice(&(e.len() as u16).to_be_bytes());
            out.extend_from_slice(&e);
            out
        }
        let kp = keypair();
        assert_eq!(kp.public().wire_bytes(), fresh_encode(kp.public()).as_slice());
        assert_eq!(kp.public().to_bytes(), kp.public().wire_bytes());
        let parsed = PublicKey::from_bytes(&kp.public().to_bytes()).unwrap();
        assert_eq!(parsed.wire_bytes(), kp.public().wire_bytes());
        let reloaded = KeyPair::from_bytes(&kp.to_bytes()).unwrap();
        assert_eq!(reloaded.public().wire_bytes(), kp.public().wire_bytes());
    }

    #[test]
    fn keypair_serialization_round_trip() {
        let kp = keypair();
        let bytes = kp.to_bytes();
        let parsed = KeyPair::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.public(), kp.public());
        // The rebuilt CRT parameters must actually work.
        let sig = parsed.sign(b"journal replay");
        kp.public().verify(b"journal replay", &sig).unwrap();
        let mut r = rng();
        let ct = kp.public().encrypt(b"secret", &mut r).unwrap();
        assert_eq!(parsed.decrypt(&ct).unwrap(), b"secret");
    }

    #[test]
    fn keypair_from_garbage_is_none() {
        assert!(KeyPair::from_bytes(&[]).is_none());
        assert!(KeyPair::from_bytes(&[0x00, 0x02, 0x01]).is_none()); // truncated
        let mut bytes = keypair().to_bytes();
        bytes.push(0); // trailing garbage
        assert!(KeyPair::from_bytes(&bytes).is_none());
    }

    #[test]
    fn public_key_from_garbage_is_none() {
        assert!(PublicKey::from_bytes(&[]).is_none());
        assert!(PublicKey::from_bytes(&[0xFF]).is_none());
        assert!(PublicKey::from_bytes(&[0x00, 0x10, 0x01]).is_none()); // truncated
    }

    /// One key, one encoding: whatever `to_bytes` would not have written
    /// is rejected, so the bytes a parsed key caches are the bytes that
    /// arrived.
    #[test]
    fn public_key_parsing_is_strict() {
        fn encode(n: &[u8], e: &[u8]) -> Vec<u8> {
            let mut out = (n.len() as u16).to_be_bytes().to_vec();
            out.extend_from_slice(n);
            out.extend_from_slice(&(e.len() as u16).to_be_bytes());
            out.extend_from_slice(e);
            out
        }
        let mut r = rng();
        for size in
            [RsaKeySize::Sim384, RsaKeySize::Sim512, RsaKeySize::Std1024, RsaKeySize::Std2048]
        {
            let kp = KeyPair::generate(size, &mut r);
            let parsed = PublicKey::from_bytes(&kp.public().to_bytes()).unwrap();
            assert_eq!(&parsed, kp.public());
            assert_eq!(parsed.wire_bytes(), kp.public().wire_bytes());
        }
        let key = keypair();
        let (n, e) = (key.public().0.n.to_bytes_be(), key.public().0.e.to_bytes_be());
        assert_eq!(PublicKey::from_bytes(&encode(&n, &e)).as_ref(), Some(key.public()));
        let mut trailing = encode(&n, &e);
        trailing.push(0);
        assert!(PublicKey::from_bytes(&trailing).is_none(), "trailing byte");
        let zero_led = |v: &[u8]| [&[0u8][..], v].concat();
        assert!(PublicKey::from_bytes(&encode(&zero_led(&n), &e)).is_none(), "zero-led n");
        assert!(PublicKey::from_bytes(&encode(&n, &zero_led(&e))).is_none(), "zero-led e");
        assert!(PublicKey::from_bytes(&encode(&n, &[])).is_none(), "empty e");
        assert!(PublicKey::from_bytes(&encode(&[], &e)).is_none(), "empty n");
    }

    #[test]
    fn fingerprints_differ_between_keys() {
        let mut r = rng();
        let a = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let b = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        assert_ne!(a.public().fingerprint(), b.public().fingerprint());
    }

    const SIZES: [RsaKeySize; 4] =
        [RsaKeySize::Sim384, RsaKeySize::Sim512, RsaKeySize::Std1024, RsaKeySize::Std2048];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Key generation draws from the RNG in a fixed order — every
    /// simulated population depends on it. `SHA-256(to_bytes())` of the
    /// generated pair and the RNG's next word, recorded with the
    /// implementation before the allocation-free Montgomery path (whose
    /// Miller–Rabin stays inside one context per candidate).
    #[test]
    fn generated_keys_match_recorded_goldens() {
        let goldens = [
            (7, "02aef0c3c3ae1052f13313c2eb81dd071ee4b215f9fa660e7489effdb55d4bc1", 0x2858d67304f04c2a),
            (11, "4949452fe852c607a5f9aa3981f0bbda3fbcb1844dbe9b73cceabd1c8b8f9d8f", 0xe39e1237b395a9ff),
            (7, "b7456615a87137a6695d3bdf7d78b5bd90dfc61b3d703ec84a15ee6c0a06243d", 0xb164af00e0b8c9e6),
            (11, "973d6cdba15f776f011e6e0baed252dc77a5ddf0b6fdbc07f4d302b3a2e88ac3", 0xdc6e285ede8e9c2b),
            (7, "9e2f6705119658abc96ef5f465525b1586a467e2a14da58896b0146a87718189", 0x7cb73b07aafb0291),
            (11, "a9e9855d4b7c9d1da63c59fb4f051dbf26463e7746cc7eb6da35e8c6c7a5908e", 0xc2c17a75fcfac153),
            (7, "84e8257eeb6e8791d407bff0194edbe8916baef1100d2a50f131c769a73fc499", 0xda56d4b2be7ad5fd),
            (11, "ddcc070d9c424a71d7b239ead48a3d6982c65076ac493a4a8ed2ca0ff37d1288", 0x1e8adf4c7f59cb9d_u64),
        ];
        for (i, (seed, digest, next_word)) in goldens.into_iter().enumerate() {
            let size = SIZES[i / 2];
            let mut r = StdRng::seed_from_u64(seed);
            let kp = KeyPair::generate(size, &mut r);
            assert_eq!(hex(&Sha256::digest(&kp.to_bytes())), digest, "{size:?} seed {seed}");
            assert_eq!(r.gen::<u64>(), next_word, "{size:?} seed {seed}: RNG position");
        }
    }

    /// The cost model charges the multiplications that run, and those
    /// are frozen: limb-operation units of one operation of each kind
    /// under a seeded Sim384 key, with the outputs, as recorded before
    /// the rewrite.
    #[test]
    fn operation_costs_and_outputs_match_recorded_goldens() {
        let mut r = StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let units = |op: &mut dyn FnMut()| {
            let before = crate::costs::snapshot();
            op();
            crate::costs::snapshot().since(before).rsa_limb_ops
        };
        let (mut ct, mut sig) = (Vec::new(), Vec::new());
        assert_eq!(units(&mut || ct = kp.public().encrypt(b"golden", &mut r).unwrap()), 792);
        assert_eq!(units(&mut || assert_eq!(kp.decrypt(&ct).unwrap(), b"golden")), 4527);
        assert_eq!(units(&mut || sig = kp.sign(b"golden")), 4527);
        assert_eq!(units(&mut || kp.public().verify(b"golden", &sig).unwrap()), 792);
        assert_eq!(
            hex(&ct),
            "731e5d5800b0ddb5b5a903277b998c4be15ea16f6c08b5f9dba5e2aecbf1ae15\
             af920a6e8f510f7096fb593d87d016ac"
        );
        assert_eq!(
            hex(&sig),
            "018870c0e3e43b280ad9959b2a4815855e6e1bdd228361e43a02a04f5472ab13\
             42e3ba0f91e9e494da914f653ab3302a"
        );
    }

    /// Round trips and every rejection, at each key size — which between
    /// them run the multiplication at all six specialised widths.
    #[test]
    fn all_sizes_round_trip_and_reject() {
        for (i, size) in SIZES.into_iter().enumerate() {
            let mut r = StdRng::seed_from_u64(100 + i as u64);
            let kp = KeyPair::generate(size, &mut r);
            let other = KeyPair::generate(size, &mut r);
            let k = kp.public().modulus_bytes();
            assert_eq!(k, size.bytes());

            let msg = vec![0xA5u8; kp.public().max_payload()];
            let ct = kp.public().encrypt(&msg, &mut r).unwrap();
            assert_eq!(kp.decrypt(&ct).unwrap(), msg, "{size:?}");
            assert_eq!(other.decrypt(&ct), Err(CryptoError::InvalidPadding), "{size:?}");
            assert_eq!(kp.decrypt(&vec![0xFF; k]), Err(CryptoError::CiphertextOutOfRange));

            let sig = kp.sign(&msg);
            kp.public().verify(&msg, &sig).unwrap();
            assert_eq!(kp.public().verify(b"another", &sig), Err(CryptoError::BadSignature));
            assert_eq!(other.public().verify(&msg, &sig), Err(CryptoError::BadSignature));
            assert_eq!(kp.public().verify(&msg, &vec![0xFF; k]), Err(CryptoError::BadSignature));

            // The reloaded pair rebuilds its contexts and is the same key.
            let reloaded = KeyPair::from_bytes(&kp.to_bytes()).unwrap();
            assert_eq!(reloaded.to_bytes(), kp.to_bytes());
            assert_eq!(reloaded.decrypt(&ct).unwrap(), msg, "{size:?}");
            assert_eq!(reloaded.sign(&msg), sig, "{size:?}");
        }
    }

    /// Primes of different limb widths, in either order: the
    /// recombination runs modulo whichever is larger.
    #[test]
    fn uneven_primes_work_in_either_order() {
        let mut r = rng();
        let (p, q) = (gen_prime(192, &mut r), gen_prime(128, &mut r));
        let e = BigUint::from(PUBLIC_EXPONENT);
        for (p, q) in [(p.clone(), q.clone()), (q, p)] {
            let kp = KeyPair::from_primes(p, q, e.clone()).expect("320-bit modulus");
            let ct = kp.public().encrypt(b"uneven", &mut r).unwrap();
            assert_eq!(kp.decrypt(&ct).unwrap(), b"uneven");
            kp.public().verify(b"uneven", &kp.sign(b"uneven")).unwrap();
            assert_eq!(KeyPair::from_bytes(&kp.to_bytes()).unwrap().to_bytes(), kp.to_bytes());
        }
    }

    #[test]
    fn keypair_with_even_or_equal_primes_is_none() {
        let mut r = rng();
        let p = gen_prime(192, &mut r);
        let e = BigUint::from(PUBLIC_EXPONENT);
        assert!(KeyPair::from_primes(p.clone(), p.clone(), e.clone()).is_none());
        let even = p.add(&BigUint::one());
        assert!(KeyPair::from_primes(p.clone(), even.clone(), e.clone()).is_none());
        assert!(KeyPair::from_primes(even, p, e).is_none());
    }

    #[test]
    fn key_sizes_report_bits() {
        assert_eq!(RsaKeySize::Sim384.bits(), 384);
        assert_eq!(RsaKeySize::Std1024.bytes(), 128);
    }

    #[test]
    fn debug_output_hides_private_material() {
        let kp = keypair();
        let s = format!("{kp:?}");
        assert!(s.contains("384"));
        assert!(!s.contains("dp"));
    }
}
