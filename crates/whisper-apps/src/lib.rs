#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Applications and higher-level gossip protocols running on top of the
//! WHISPER PPSS.
//!
//! These serve two roles in the paper:
//!
//! * **building blocks** — [`aggregation`] implements the gossip-based
//!   aggregation of Jelasity et al. used for leader election (§IV-A) and
//!   network size estimation;
//! * **the chat-room class** — [`broadcast`] implements a probabilistic
//!   broadcast (lpbcast-style, the paper's reference \[5\]) for private
//!   chat rooms and live-stream control channels;
//! * **the demo application** — [`chord`] + [`tman`] + [`tchord`]
//!   reproduce §V-G: a private Chord DHT bootstrapped with T-Chord (the
//!   T-Man-based gossip construction of the Chord ring), where every
//!   message travels over confidential WCL routes and query replies come
//!   back over a single WCL path using contact info shipped with the
//!   query.

pub mod aggregation;
pub mod broadcast;
pub mod chord;
pub mod gosskip;
pub mod tchord;
pub mod tman;
