#![deny(missing_docs)]
#![deny(unsafe_code)]
//! Cryptographic substrate for the WHISPER middleware reproduction.
//!
//! This crate implements, from scratch, every cryptographic primitive the
//! WHISPER paper (ICDCS 2011) relies on:
//!
//! * [`bignum`] — arbitrary-precision unsigned integer arithmetic
//!   (schoolbook and Montgomery multiplication, Knuth division,
//!   Miller–Rabin primality, prime generation),
//! * [`rsa`] — RSA key generation, PKCS#1-v1.5-style encryption and
//!   signatures with CRT-accelerated private-key operations,
//! * [`aes`] — the AES-128 block cipher and a CTR stream mode,
//! * [`sha256`] — the SHA-256 hash function,
//! * [`hybrid`] — RSA-sealed AES session keys ("seal"/"open"),
//! * [`onion`] — the layered onion construction of paper §III-A: a small
//!   RSA-protected routing header plus an AES-protected body,
//! * [`circuit`] — circuit amortization: per-hop AES link keys established
//!   through the first onion so steady-state packets skip RSA entirely.
//!
//! # Security disclaimer
//!
//! This is a *research reproduction*. The implementations are functionally
//! correct (and extensively tested against their specifications) but are
//! **not constant-time, not side-channel hardened, and must not be used to
//! protect real data**. Simulation configurations additionally use short
//! RSA moduli (384–512 bits) so that thousand-node experiments finish in
//! reasonable time; see `RsaKeySize` in [`rsa`].
//!
//! # Example
//!
//! ```
//! use whisper_crypto::rsa::{KeyPair, RsaKeySize};
//! use whisper_crypto::hybrid;
//! use whisper_rand::SeedableRng;
//!
//! # fn main() -> Result<(), whisper_crypto::CryptoError> {
//! let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(42);
//! let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
//! let sealed = hybrid::seal(kp.public(), b"the content stays private", &mut rng)?;
//! let opened = hybrid::open(&kp, &sealed)?;
//! assert_eq!(opened, b"the content stays private");
//! # Ok(())
//! # }
//! ```

pub mod aes;
pub mod bignum;
pub mod circuit;
pub mod costs;
pub mod hybrid;
pub mod onion;
pub mod rsa;
pub mod sha256;

mod error;

pub use error::CryptoError;
