#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Applications and higher-level gossip protocols running on top of the
//! WHISPER PPSS.
//!
//! These serve four roles in the paper:
//!
//! * **building blocks** — [`aggregation`] implements the gossip-based
//!   averaging of Jelasity et al., which also estimates the network size;
//! * **the chat-room class** — [`broadcast`] implements a probabilistic
//!   broadcast (lpbcast-style, the paper's reference \[5\]) for private
//!   chat rooms and live-stream control channels;
//! * **the demo application** — [`chord`] + [`tman`] + [`tchord`]
//!   reproduce §V-G: a private Chord DHT bootstrapped with T-Chord (the
//!   T-Man-based gossip construction of the Chord ring), where every
//!   message travels over confidential WCL routes and query replies come
//!   back over a single WCL path using contact info shipped with the
//!   query;
//! * **a sorted overlay** — [`gosskip`] runs the same T-Man exchange to
//!   keep members in application order and answer range queries.
//!
//! An app is built from the group it serves (GosSkip also takes the
//! member's key, aggregation its start value). Its gossip cycle,
//! view and exchange sizes and hop budgets are constants beside the code
//! that reads them: every caller ran the same values.

pub mod aggregation;
pub mod broadcast;
pub mod chord;
pub mod gosskip;
pub mod tchord;
pub mod tman;
