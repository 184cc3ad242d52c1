#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Nylon: a NAT-resilient gossip peer sampling service (PSS), plus the two
//! WHISPER-specific extensions of paper §III-B.
//!
//! The PSS provides every node with a continuously refreshed partial view
//! of the network that approximates a uniform random sample. This
//! implementation follows the Nylon design the paper builds on
//! (Kermarrec et al., ICDCS'09):
//!
//! * gossip exchanges use the *healer* strategy of the Jelasity et al.
//!   framework (exchange with the oldest entry, keep the freshest),
//! * view entries carry **rendezvous chains** — the reverse gossip path an
//!   entry travelled, back to the nearest public node — so that any node
//!   in a view can be reached through a chain of relays even when it sits
//!   behind a NAT; a stored chain can always be walked hop by hop
//!   ([`view`]),
//! * connection establishment performs real **hole punching** through
//!   those rendezvous nodes where a punch can succeed, and relays over
//!   them where it cannot: for the symmetric/port-sensitive combinations
//!   of the emulated NAT devices of `whisper-net`, which a requester reads
//!   off the view entry — an entry carries its node's NAT type — before
//!   it sends, and when the handshake times out. A requester waits only
//!   for what the two NATs need: the peer's punch where its own NAT lets
//!   it in, else the acknowledgement, after which the queued message
//!   itself is the punch ([`transport`]).
//!
//! WHISPER's additions (paper §III-B):
//!
//! 1. **P-node availability enforcement** — view truncation is biased so
//!    that at least Π public nodes stay in every view (and, to bound the
//!    extra load on P-nodes, the oldest P-nodes *above* Π are discarded
//!    first).
//! 2. **Public key sampling** — gossip partners piggyback their public
//!    keys, giving every node the keys of its connection backlog.
//!
//! The crate also provides the **connection backlog** (CB) of paper
//! §III-A — the FIFO of recently contacted nodes from which WCL onion
//! paths are built — and the graph instrumentation (in-degree
//! distribution, clustering coefficient) used by Fig. 5.
//!
//! Nothing here knows of private groups: gossip carries view entries and
//! keys only, and everything about a group — its deletion included —
//! travels inside WCL-sealed [`messages::NylonMsg::App`] payloads between
//! its members.

pub mod backlog;
pub mod config;
pub mod graph;
pub mod messages;
pub mod nylon;
pub mod timer;
pub mod transport;
pub mod view;

pub use backlog::{CbEntry, ConnectionBacklog};
pub use config::NylonConfig;
pub use nylon::{NylonCore, NylonEvent, NylonNode};
pub use view::{View, ViewEntry};
