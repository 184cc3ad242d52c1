#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Applications running on top of the WHISPER PPSS.
//!
//! These serve two roles in the paper:
//!
//! * **the chat-room class** — [`broadcast`] implements a probabilistic
//!   broadcast (lpbcast-style, the paper's reference \[5\]) for private
//!   chat rooms and live-stream control channels;
//! * **the demo application** — [`chord`] + [`tman`] + [`tchord`]
//!   reproduce §V-G: a private Chord DHT bootstrapped with T-Chord (the
//!   T-Man-based gossip construction of the Chord ring), where every
//!   message travels over confidential WCL routes and query replies come
//!   back over a single WCL path using contact info shipped with the
//!   query.
//!
//! The paper's other gossip protocol, the leader election's
//! max-aggregation (§IV-A), is the PPSS's own (`ppss/election.rs` in
//! `whisper-core`).
//!
//! An app is built from the group it serves and nothing else. Its gossip
//! cycle, view and exchange sizes and hop budgets are constants beside
//! the code that reads them: every caller ran the same values.

pub mod broadcast;
pub mod chord;
pub mod tchord;
pub mod tman;
