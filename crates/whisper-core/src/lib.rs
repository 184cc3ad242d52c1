#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The WHISPER middleware: the paper's contribution.
//!
//! Two layers (paper Fig. 1):
//!
//! * [`wcl`] — the **WHISPER communication layer**: confidential one-way
//!   channels between two nodes over a 4-node onion path `S → A → B → D`,
//!   where `A` comes from the source's connection backlog and `B` is a
//!   P-node advertised by the destination. Guarantees content
//!   confidentiality and relationship anonymity, with automatic retries
//!   over alternative paths (Table I).
//! * [`ppss`] — the **private peer sampling service**: per-group private
//!   views exchanged strictly over WCL routes, group management
//!   (accreditations, passports, leaders, key history), gossip-based
//!   leader election, and persistent paths (the PCP) for applications.
//!
//! [`node::WhisperNode`] assembles the full stack
//! (`Nylon → WCL → PPSS → application`) as a single simulator protocol;
//! applications plug in through [`node::GroupApp`].

pub mod node;
pub mod ppss;
pub mod wcl;

pub use node::{GroupApp, WhisperApi, WhisperConfig, WhisperNode};
pub use ppss::group::{GroupId, Invitation, Passport};
pub use ppss::{Ppss, PpssConfig, PpssEvent, PrivateEntry};
pub use wcl::{GatewayInfo, Wcl, WclConfig, WclEvent};
