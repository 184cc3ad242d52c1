//! The onion construction of paper §III-A.
//!
//! The source `S` draws a random symmetric key `k`, encrypts the content
//! with it, and builds a layered header: the innermost layer — sealed for
//! the destination `D` — carries `(k, ⊥)`; each outer layer — sealed for a
//! mix `M` — carries the identity of the next hop and the inner layer.
//! Every node on the path peels exactly one layer with its private key:
//! mixes learn only the next hop, and `D` learns it is the destination
//! because the next hop is `⊥`.
//!
//! Addresses are opaque byte strings here; the WCL layer above maps them
//! to node identifiers.
//!
//! Each layer is a [`hybrid`] sealed layer — one RSA block, then the
//! AES-CTR body — whose plaintext is, for the destination,
//! `TAG_DEST ‖ k ‖ nonce ‖ ext` and, for a mix,
//! `TAG_RELAY ‖ bytes(next hop) ‖ bytes(ext) ‖ inner layer`, a `bytes`
//! field being a [`WireSink::put_bytes`] string.
//!
//! ```
//! use whisper_crypto::onion::{build_onion, peel, PeelResult};
//! use whisper_crypto::rsa::{KeyPair, RsaKeySize};
//! use whisper_rand::SeedableRng;
//!
//! # fn main() -> Result<(), whisper_crypto::CryptoError> {
//! let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(5);
//! let mix = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
//! let dest = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
//! let path = [
//!     (mix.public().clone(), b"mix-addr".to_vec()),
//!     (dest.public().clone(), b"dst-addr".to_vec()),
//! ];
//! let packet = build_onion(&path, b"payload", &mut rng)?;
//! let PeelResult::Relay { next_hop, header, .. } = peel(&mix, &packet.header)? else {
//!     panic!("mix should relay");
//! };
//! assert_eq!(next_hop, b"dst-addr");
//! let PeelResult::Destination { payload, .. } = peel_with_body(&dest, &header, &packet.body)?
//! else {
//!     panic!("dest should terminate");
//! };
//! # use whisper_crypto::onion::peel_with_body;
//! assert_eq!(payload, b"payload");
//! # Ok(())
//! # }
//! ```

use crate::aes::{Aes128, AesKey, CtrNonce};
use crate::hybrid;
use crate::rsa::{KeyPair, PublicKey};
use crate::CryptoError;
use whisper_net::wire::{WireReader, WireSink, WireWriter};
use whisper_rand::Rng;

// Every layer carries an opaque per-hop extension blob, empty when the
// hop gets none ([`crate::circuit`] delivers link-key setups in it).
const TAG_DEST: u8 = 2;
const TAG_RELAY: u8 = 3;

/// A fully built onion: the layered routing header plus the AES-encrypted
/// body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnionPacket {
    /// Nested sealed layers; peel with [`peel`].
    pub header: Vec<u8>,
    /// Content encrypted under the session key carried by the innermost
    /// layer.
    pub body: Vec<u8>,
}

impl OnionPacket {
    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        self.header.len() + self.body.len()
    }
}

/// Outcome of peeling one onion layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PeelResult {
    /// This node is a mix: forward `header` (and the unchanged body) to
    /// `next_hop`.
    Relay {
        /// Opaque address of the next hop.
        next_hop: Vec<u8>,
        /// The inner header to forward.
        header: Vec<u8>,
        /// Per-hop extension delivered to this mix (empty if the sender
        /// gave it none); carries e.g. a circuit
        /// [`crate::circuit::HopSetup`].
        ext: Vec<u8>,
    },
    /// This node is the destination; `payload` is the decrypted content.
    Destination {
        /// The decrypted message content.
        payload: Vec<u8>,
        /// Per-hop extension delivered to the destination (empty if the
        /// sender gave it none).
        ext: Vec<u8>,
    },
}

/// Builds an onion over `path` (mixes in forwarding order, destination
/// last) with no extensions: [`build_onion_ext`] with `exts = &[]`. The
/// sender transmits the packet to `path[0]`; each layer `i` carries the
/// address of `path[i + 1]`.
///
/// # Errors
///
/// Propagates RSA errors (e.g. a modulus too small for the session
/// secret).
///
/// # Panics
///
/// Panics if `path` is empty.
pub fn build_onion<R: Rng>(
    path: &[(PublicKey, Vec<u8>)],
    payload: &[u8],
    rng: &mut R,
) -> Result<OnionPacket, CryptoError> {
    build_onion_ext(path, payload, &[], rng)
}

/// Like [`build_onion`], but layer `i` additionally carries the opaque
/// extension `exts[i]`, readable only by hop `i`. This is how circuit
/// establishment ([`crate::circuit`]) piggybacks per-hop link keys on the
/// first onion of a route. An empty extension travels as one of length
/// zero; `exts = &[]` gives every hop an empty one.
///
/// # Errors
///
/// Propagates RSA errors (e.g. a modulus too small for the session
/// secret).
///
/// # Panics
///
/// Panics if `path` is empty, or if `exts` is non-empty and its length
/// differs from `path`'s.
pub fn build_onion_ext<R: Rng>(
    path: &[(PublicKey, Vec<u8>)],
    payload: &[u8],
    exts: &[Vec<u8>],
    rng: &mut R,
) -> Result<OnionPacket, CryptoError> {
    assert!(!path.is_empty(), "onion path must have at least one hop");
    assert!(
        exts.is_empty() || exts.len() == path.len(),
        "one extension per hop (or none at all)"
    );
    static NO_EXT: Vec<u8> = Vec::new();
    let ext_of = |i: usize| exts.get(i).unwrap_or(&NO_EXT);

    let key = AesKey::random(rng);
    let nonce = CtrNonce::random(rng);
    let body = Aes128::new(&key).ctr_apply(&nonce, payload);

    // Innermost layer, for the destination: TAG_DEST ‖ k ‖ nonce ‖ ext.
    let (dest_key, _) = path.last().expect("non-empty");
    let dest_ext = ext_of(path.len() - 1);
    let mut inner_plain = Vec::with_capacity(1 + 16 + 8 + dest_ext.len());
    inner_plain.push(TAG_DEST);
    inner_plain.extend_from_slice(&key.0);
    inner_plain.extend_from_slice(&nonce.0);
    inner_plain.extend_from_slice(dest_ext);
    let mut header = hybrid::seal(dest_key, &inner_plain, rng)?;

    // Wrap for each mix in reverse order; layer for path[i] names path[i+1]:
    // TAG_RELAY ‖ bytes(next hop) ‖ bytes(ext) ‖ inner header.
    for i in (0..path.len() - 1).rev() {
        let (mix_key, _) = &path[i];
        let (_, next_addr) = &path[i + 1];
        let ext = ext_of(i);
        let mut plain = WireWriter::with_capacity(5 + next_addr.len() + ext.len() + header.len());
        plain.put_u8(TAG_RELAY);
        plain.put_bytes(next_addr);
        plain.put_bytes(ext);
        plain.put_raw(&header);
        header = hybrid::seal(mix_key, &plain.into_bytes(), rng)?;
    }

    Ok(OnionPacket { header, body })
}

/// Peels one layer of an onion header with this node's private key.
///
/// # Errors
///
/// Fails when the layer is encrypted for a different key or structurally
/// malformed.
pub fn peel(keypair: &KeyPair, header: &[u8]) -> Result<PeelResult, CryptoError> {
    let plain = hybrid::open(keypair, header)?;
    match plain.split_first() {
        Some((&TAG_DEST, rest)) => {
            if rest.len() < 24 {
                return Err(CryptoError::MalformedOnion("bad destination layer length"));
            }
            // `payload` here is the raw 24-byte session secret; callers
            // that hold the body should use `peel_with_body`, which turns
            // it into the decrypted content.
            Ok(PeelResult::Destination {
                payload: rest[..24].to_vec(),
                ext: rest[24..].to_vec(),
            })
        }
        Some((&TAG_RELAY, rest)) => {
            let mut r = WireReader::new(rest);
            let truncated = |_| CryptoError::MalformedOnion("truncated relay layer");
            let next_hop = r.take_bytes().map_err(truncated)?.to_vec();
            let ext = r.take_bytes().map_err(truncated)?.to_vec();
            let header = r.take_raw(r.remaining()).map_err(truncated)?.to_vec();
            if header.is_empty() {
                return Err(CryptoError::MalformedOnion("missing inner header"));
            }
            Ok(PeelResult::Relay { next_hop, header, ext })
        }
        _ => Err(CryptoError::MalformedOnion("unknown layer tag")),
    }
}

/// Peels the final layer and decrypts the body: the variant of [`peel`]
/// used by the destination.
///
/// If the layer is a relay layer, behaves exactly like [`peel`]. If it is
/// the destination layer, returns the decrypted content.
///
/// # Errors
///
/// Same conditions as [`peel`].
pub fn peel_with_body(
    keypair: &KeyPair,
    header: &[u8],
    body: &[u8],
) -> Result<PeelResult, CryptoError> {
    match peel(keypair, header)? {
        PeelResult::Destination { payload: secret, ext } => {
            let mut key = [0u8; 16];
            key.copy_from_slice(&secret[..16]);
            let mut nonce = [0u8; 8];
            nonce.copy_from_slice(&secret[16..24]);
            let payload = Aes128::new(&AesKey(key)).ctr_apply(&CtrNonce(nonce), body);
            Ok(PeelResult::Destination { payload, ext })
        }
        relay => Ok(relay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeySize;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn keys(n: usize, rng: &mut StdRng) -> Vec<KeyPair> {
        (0..n).map(|_| KeyPair::generate(RsaKeySize::Sim384, rng)).collect()
    }

    /// Builds the paper's canonical 4-node path S → A → B → D (S not in the
    /// onion) and walks the packet through it.
    #[test]
    fn full_path_walk() {
        let mut rng = StdRng::seed_from_u64(11);
        let ks = keys(3, &mut rng); // A, B, D
        let path: Vec<_> = ks
            .iter()
            .zip([b"A".to_vec(), b"B".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let packet = build_onion(&path, b"private view exchange", &mut rng).unwrap();

        let PeelResult::Relay { next_hop, header, .. } = peel(&ks[0], &packet.header).unwrap() else {
            panic!("A must relay");
        };
        assert_eq!(next_hop, b"B");

        let PeelResult::Relay { next_hop, header, .. } = peel(&ks[1], &header).unwrap() else {
            panic!("B must relay");
        };
        assert_eq!(next_hop, b"D");

        let PeelResult::Destination { payload, .. } =
            peel_with_body(&ks[2], &header, &packet.body).unwrap()
        else {
            panic!("D must terminate");
        };
        assert_eq!(payload, b"private view exchange");
    }

    #[test]
    fn single_hop_path() {
        let mut rng = StdRng::seed_from_u64(12);
        let ks = keys(1, &mut rng);
        let path = [(ks[0].public().clone(), b"D".to_vec())];
        let packet = build_onion(&path, b"direct", &mut rng).unwrap();
        let PeelResult::Destination { payload, .. } =
            peel_with_body(&ks[0], &packet.header, &packet.body).unwrap()
        else {
            panic!()
        };
        assert_eq!(payload, b"direct");
    }

    #[test]
    fn mix_cannot_read_content_or_inner_layers() {
        let mut rng = StdRng::seed_from_u64(13);
        let ks = keys(3, &mut rng);
        let path: Vec<_> = ks
            .iter()
            .zip([b"A".to_vec(), b"B".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let secret = b"the payload a mix must never see";
        let packet = build_onion(&path, secret, &mut rng).unwrap();

        // The body never contains the plaintext.
        assert!(!packet.body.windows(8).any(|w| secret.windows(8).any(|s| s == w)));

        // A peels its layer but what it forwards does not reveal D's
        // address or the payload.
        let PeelResult::Relay { next_hop, header, .. } = peel(&ks[0], &packet.header).unwrap() else {
            panic!()
        };
        assert_eq!(next_hop, b"B");
        assert!(peel(&ks[0], &header).is_err(), "A cannot peel B's layer");
    }

    #[test]
    fn wrong_key_cannot_peel() {
        let mut rng = StdRng::seed_from_u64(14);
        let ks = keys(2, &mut rng);
        let outsider = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let path: Vec<_> = ks
            .iter()
            .zip([b"A".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let packet = build_onion(&path, b"x", &mut rng).unwrap();
        assert!(peel(&outsider, &packet.header).is_err());
    }

    #[test]
    fn relay_cannot_tell_if_next_is_destination() {
        // The bytes a mix forwards look identical in structure whether the
        // next hop is another mix or the destination: both are sealed
        // layers, one RSA block and its AES-CTR body, with no tag or
        // length in the clear. We verify that the forwarded header opens
        // under the right key in both cases and under no other.
        let mut rng = StdRng::seed_from_u64(15);
        let ks = keys(3, &mut rng);
        // Path of length 2: A then D. A's forwarded header IS D's layer.
        let path2: Vec<_> = ks[..2]
            .iter()
            .zip([b"A".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let p2 = build_onion(&path2, b"x", &mut rng).unwrap();
        let PeelResult::Relay { header: h2, .. } = peel(&ks[0], &p2.header).unwrap() else {
            panic!()
        };
        // Path of length 3: A, B, D. A's forwarded header is B's (relay) layer.
        let path3: Vec<_> = ks
            .iter()
            .zip([b"A".to_vec(), b"B".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let p3 = build_onion(&path3, b"x", &mut rng).unwrap();
        let PeelResult::Relay { header: h3, .. } = peel(&ks[0], &p3.header).unwrap() else {
            panic!()
        };
        // Both are well-formed sealed layers; the only visible difference
        // is length, which depends on remaining depth — the paper's 4-node
        // fixed-length paths make even that uniform.
        assert!(hybrid::open(&ks[1], &h2).is_ok(), "D's layer opens under D's key");
        assert!(hybrid::open(&ks[1], &h3).is_ok(), "B's layer opens under B's key");
        for h in [&h2, &h3] {
            assert!(hybrid::open(&ks[0], h).is_err() && hybrid::open(&ks[2], h).is_err());
        }
        assert_ne!(h2.len(), h3.len());
    }

    /// No extensions and empty ones are the same onion, and every hop
    /// peels an empty extension from it.
    #[test]
    fn empty_extensions_travel_as_zero_length_ones() {
        let mut rng = StdRng::seed_from_u64(19);
        let ks = keys(3, &mut rng);
        let path: Vec<_> = ks
            .iter()
            .zip([b"A".to_vec(), b"B".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let packet = build_onion(&path, b"x", &mut StdRng::seed_from_u64(1)).unwrap();
        let empties = vec![Vec::new(); 3];
        let same = build_onion_ext(&path, b"x", &empties, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(packet, same);
        let mut header = packet.header;
        for mix in &ks[..2] {
            let PeelResult::Relay { header: inner, ext, .. } = peel(mix, &header).unwrap() else {
                panic!("a mix relays")
            };
            assert!(ext.is_empty());
            header = inner;
        }
        let PeelResult::Destination { payload, ext } = peel_with_body(&ks[2], &header, &packet.body)
            .unwrap()
        else {
            panic!("the last hop is the destination")
        };
        assert_eq!((payload.as_slice(), ext.as_slice()), (&b"x"[..], &[][..]));
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut rng = StdRng::seed_from_u64(16);
        let ks = keys(1, &mut rng);
        let path = [(ks[0].public().clone(), b"D".to_vec())];
        let packet = build_onion(&path, b"x", &mut rng).unwrap();
        let mut corrupted = packet.header.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x55;
        assert!(peel(&ks[0], &corrupted).is_err());
    }

    #[test]
    fn empty_payload_supported() {
        let mut rng = StdRng::seed_from_u64(17);
        let ks = keys(2, &mut rng);
        let path: Vec<_> = ks
            .iter()
            .zip([b"A".to_vec(), b"D".to_vec()])
            .map(|(k, a)| (k.public().clone(), a))
            .collect();
        let packet = build_onion(&path, b"", &mut rng).unwrap();
        assert!(packet.body.is_empty());
        let PeelResult::Relay { header, .. } = peel(&ks[0], &packet.header).unwrap() else {
            panic!()
        };
        let PeelResult::Destination { payload, .. } =
            peel_with_body(&ks[1], &header, &packet.body).unwrap()
        else {
            panic!()
        };
        assert!(payload.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_path_panics() {
        let mut rng = StdRng::seed_from_u64(18);
        let _ = build_onion(&[], b"x", &mut rng);
    }
}
