//! Hybrid encryption: RSA-sealed AES session keys.
//!
//! An onion layer (or any message larger than an RSA block) is protected by
//! drawing a fresh AES-128 key `k` and CTR nonce, encrypting the payload
//! with AES-CTR, and sealing `k ‖ nonce` under the recipient's RSA public
//! key. This mirrors how WHISPER encodes content "using symmetric
//! encryption with a random key k" whose transport is protected by the
//! mixes' public keys (paper §III-A).
//!
//! A sealed layer is one RSA block — exactly the recipient's
//! [`modulus_bytes`](crate::rsa::PublicKey::modulus_bytes) — followed by
//! the AES-CTR body, and nothing else: no length travels, because the
//! opener splits the layer at its own modulus length.

use crate::aes::{Aes128, AesKey, CtrNonce};
use crate::rsa::{KeyPair, PublicKey};
use crate::CryptoError;
use whisper_rand::Rng;

/// Size of the sealed header payload: 16-byte AES key + 8-byte CTR nonce.
const SESSION_SECRET_LEN: usize = 24;

/// Seals `plaintext` for `recipient`: `RSA(k ‖ nonce) ‖ AES-CTR(plaintext)`.
///
/// # Errors
///
/// Returns an error if the recipient's modulus is too small to carry a
/// session secret (all supported [`RsaKeySize`](crate::rsa::RsaKeySize)s
/// are large enough).
pub fn seal<R: Rng>(
    recipient: &PublicKey,
    plaintext: &[u8],
    rng: &mut R,
) -> Result<Vec<u8>, CryptoError> {
    let key = AesKey::random(rng);
    let nonce = CtrNonce::random(rng);
    let mut secret = [0u8; SESSION_SECRET_LEN];
    secret[..16].copy_from_slice(&key.0);
    secret[16..].copy_from_slice(&nonce.0);
    let mut sealed = recipient.encrypt(&secret, rng)?;
    let block = sealed.len();
    sealed.extend_from_slice(plaintext);
    Aes128::new(&key).ctr_apply_in_place(&nonce, &mut sealed[block..]);
    Ok(sealed)
}

/// Opens a layer sealed for `keypair`'s public key.
///
/// # Errors
///
/// Fails with [`CryptoError::MalformedSealedLayer`] when `sealed` is
/// shorter than one RSA block — before any decryption — or its block
/// carries no session secret, and with [`CryptoError::InvalidPadding`]
/// when it was sealed for a different key or has been corrupted.
pub fn open(keypair: &KeyPair, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let block = keypair.public().modulus_bytes();
    if sealed.len() < block {
        return Err(CryptoError::MalformedSealedLayer);
    }
    let (sealed_key, body) = sealed.split_at(block);
    let secret = keypair.decrypt(sealed_key)?;
    if secret.len() != SESSION_SECRET_LEN {
        return Err(CryptoError::MalformedSealedLayer);
    }
    let mut key = [0u8; 16];
    key.copy_from_slice(&secret[..16]);
    let mut nonce = [0u8; 8];
    nonce.copy_from_slice(&secret[16..]);
    Ok(Aes128::new(&AesKey(key)).ctr_apply(&CtrNonce(nonce), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeySize;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn setup() -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        (kp, rng)
    }

    #[test]
    fn seal_open_round_trip() {
        let (kp, mut rng) = setup();
        for len in [0usize, 1, 100, 5000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let blob = seal(kp.public(), &msg, &mut rng).unwrap();
            assert_eq!(open(&kp, &blob).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn open_with_wrong_key_fails() {
        let (kp, mut rng) = setup();
        let other = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let blob = seal(kp.public(), b"secret", &mut rng).unwrap();
        assert!(open(&other, &blob).is_err());
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (kp, mut rng) = setup();
        let msg = b"confidential group traffic".to_vec();
        let sealed = seal(kp.public(), &msg, &mut rng).unwrap();
        let body = &sealed[kp.public().modulus_bytes()..];
        assert_ne!(body, msg);
        // No plaintext substring leaks into the body.
        assert!(!body.windows(5).any(|w| msg.windows(5).any(|m| m == w)));
    }

    #[test]
    fn sealing_twice_differs() {
        let (kp, mut rng) = setup();
        let a = seal(kp.public(), b"same message", &mut rng).unwrap();
        let b = seal(kp.public(), b"same message", &mut rng).unwrap();
        let k = kp.public().modulus_bytes();
        assert_ne!(a[..k], b[..k]);
        assert_ne!(a[k..], b[k..]);
    }

    /// A sealed layer is one RSA block and the body: nothing else.
    #[test]
    fn a_layer_is_one_block_and_its_body() {
        let (kp, mut rng) = setup();
        for len in [0usize, 1, 100] {
            let sealed = seal(kp.public(), &vec![7; len], &mut rng).unwrap();
            assert_eq!(sealed.len(), kp.public().modulus_bytes() + len);
        }
    }

    /// Anything shorter than one block is refused, before any decryption.
    #[test]
    fn truncated_wire_rejected() {
        let (kp, mut rng) = setup();
        let sealed = seal(kp.public(), b"wire format", &mut rng).unwrap();
        let k = kp.public().modulus_bytes();
        for cut in [0, 1, 10, k - 1] {
            let before = crate::costs::snapshot();
            let opened = open(&kp, &sealed[..cut]);
            assert_eq!(opened, Err(CryptoError::MalformedSealedLayer), "cut {cut}");
            let decrypted = crate::costs::snapshot().since(before).rsa_limb_ops;
            assert_eq!(decrypted, 0, "cut {cut}: an RSA operation ran");
        }
        // One block with the body cut opens to the body's prefix.
        assert_eq!(open(&kp, &sealed[..k + 4]).unwrap(), b"wire");
    }

    #[test]
    fn corrupted_header_fails_open() {
        let (kp, mut rng) = setup();
        let mut sealed = seal(kp.public(), b"payload", &mut rng).unwrap();
        sealed[5] ^= 0xFF;
        assert!(open(&kp, &sealed).is_err());
    }
}
