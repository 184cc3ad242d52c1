#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Deterministic discrete-event network simulator for the WHISPER
//! reproduction.
//!
//! This crate stands in for the paper's testbeds (a 22-machine cluster
//! running 1,000 nodes and a 400-node PlanetLab slice, both driven by the
//! SPLAY framework). It provides:
//!
//! * [`sim`] — a seeded, sharded, discrete-event engine. Protocols
//!   implement [`sim::Protocol`] and interact with the world through
//!   [`sim::Ctx`] (send packets, arm timers, record metrics). Nodes are
//!   partitioned across shards that may run on worker threads; the shard
//!   count and thread policy are pure performance knobs — the trace is
//!   byte-identical for any setting (the determinism contract,
//!   DESIGN.md §12).
//! * [`nat`] — per-node NAT device emulation with the four device types of
//!   paper §V-A (`full_cone`, `restricted_cone`, `port_restricted_cone`,
//!   `sym`), per-connection filtering rules and association-rule lease
//!   times. Hole-punching success and failure *emerge* from honest port
//!   allocation and filtering, they are not table-driven.
//! * [`latency`] — link latency/loss models calibrated to the paper's two
//!   environments (switched-cluster and PlanetLab profiles).
//! * [`wire`] — a small binary codec; every simulated message is really
//!   encoded, so byte counts (and therefore bandwidth results) come from
//!   actual serialized sizes.
//! * [`payload`] — reference-counted message buffers ([`Payload`]) and
//!   the per-shard recycling pools that make the event hot path
//!   allocation-lean (fan-out clones instead of copies, buffers reused
//!   across events).
//! * [`sched`] — the per-shard event schedulers: a reference binary
//!   heap and a hierarchical calendar queue (timing-wheel buckets over
//!   the sim clock plus an overflow tier), both popping in canonical
//!   `(at, src, seq)` order so the choice is invisible to traces
//!   (DESIGN.md §14).
//! * [`metrics`] — per-node bandwidth accounting and generic
//!   counters/samples shared by the experiment harness.
//! * [`stats`] — CDF / percentile helpers used to print the paper's plots.
//!
//! Two runs with the same seed and the same driver program produce
//! identical results — on one shard or eight, sequential or threaded.
//!
//! ```
//! use whisper_net::sim::{Sim, SimConfig};
//! use whisper_net::nat::NatType;
//!
//! let mut sim = Sim::new(SimConfig::cluster(42));
//! // ... add nodes, then run:
//! sim.run_for_secs(10);
//! assert_eq!(sim.now().as_secs(), 10);
//! ```

pub mod fault;
pub mod latency;
pub mod metrics;
pub mod nat;
pub mod payload;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod wire;

mod barrier;
mod id;
mod time;

pub use id::{Endpoint, NodeId};
pub use payload::Payload;
pub use time::{SimDuration, SimTime};
