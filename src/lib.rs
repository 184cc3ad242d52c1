#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # WHISPER — confidential group communication middleware
//!
//! A from-scratch Rust reproduction of *"WHISPER: Middleware for
//! Confidential Communication in Large-Scale Networks"* (Schiavoni,
//! Rivière, Felber — ICDCS 2011).
//!
//! This umbrella crate re-exports the whole stack:
//!
//! * [`crypto`] — bignum/RSA/AES/SHA-256 primitives and the onion
//!   construction (crate `whisper-crypto`),
//! * [`net`] — the deterministic discrete-event network simulator with NAT
//!   emulation, latency profiles and churn scripting (crate `whisper-net`),
//! * [`pss`] — the Nylon NAT-resilient peer sampling service, its
//!   P-node-biased variant and the public key sampling service (crate
//!   `whisper-pss`),
//! * [`core`] — the WHISPER communication layer (WCL) and the private
//!   peer sampling service (PPSS) — the paper's contribution (crate
//!   `whisper-core`),
//! * [`apps`] — the applications above the PPSS: probabilistic broadcast
//!   for private chat rooms, and T-Man, Chord and T-Chord for the paper's
//!   demo application, a private DHT (crate `whisper-apps`); the leader
//!   election's max-aggregation is the PPSS's own,
//! * [`rand`] — the in-tree deterministic randomness substrate: the
//!   xoshiro256++ [`rand::StdRng`], per-node stream splitting, the
//!   property-test helper and the bench harness (crate `whisper-rand`).
//!   The workspace has **zero external dependencies** and never reads OS
//!   entropy — every random draw is rooted in an explicit seed.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-vs-measured comparison.

pub use whisper_apps as apps;
pub use whisper_core as core;
pub use whisper_crypto as crypto;
pub use whisper_net as net;
pub use whisper_pss as pss;
pub use whisper_rand as rand;
