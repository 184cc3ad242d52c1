//! NAT device emulation.
//!
//! Reproduces the SPLAY NAT-emulation feature described in paper §V-A: the
//! four major device types (`full_cone`, `restricted_cone`,
//! `port_restricted_cone`, `sym`), per-connection filtering rules
//! following RFC 5382/4787 semantics, and association-rule lease times.
//!
//! Ports are allocated honestly — cone devices reuse one external port for
//! every destination while symmetric devices allocate a fresh port per
//! remote endpoint — so hole-punching outcomes *emerge* from the filter
//! rules rather than being table-driven. [`can_hole_punch`] states the
//! expected theoretical outcome and the test suite checks that emulation
//! and theory agree.

use crate::id::Endpoint;
use crate::time::{SimDuration, SimTime};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_rand::Rng;

/// The NAT behaviour of a simulated host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NatType {
    /// Directly reachable host (a "P-node" in the paper).
    Public,
    /// Full-cone NAT: once a mapping exists, any remote endpoint may send
    /// to it.
    FullCone,
    /// Restricted-cone NAT: inbound allowed only from hosts the internal
    /// node has contacted.
    RestrictedCone,
    /// Port-restricted-cone NAT: inbound allowed only from exact
    /// host:port endpoints the internal node has contacted.
    PortRestrictedCone,
    /// Symmetric NAT: a distinct external port per remote endpoint;
    /// inbound allowed only from that exact endpoint.
    Symmetric,
}

impl NatType {
    /// The four NATted types, in the paper's order.
    pub const NATTED: [NatType; 4] = [
        NatType::FullCone,
        NatType::RestrictedCone,
        NatType::PortRestrictedCone,
        NatType::Symmetric,
    ];

    /// Whether this host is directly reachable (a P-node).
    pub fn is_public(self) -> bool {
        matches!(self, NatType::Public)
    }
}

/// One byte: 0 for a public host, 1–4 for the NATted types in
/// [`NatType::NATTED`]'s order.
impl WireEncode for NatType {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            NatType::Public => 0,
            NatType::FullCone => 1,
            NatType::RestrictedCone => 2,
            NatType::PortRestrictedCone => 3,
            NatType::Symmetric => 4,
        });
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

/// A code outside the five types is an error, never a default type.
impl WireDecode for NatType {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(NatType::Public),
            code @ 1..=4 => Ok(NatType::NATTED[code as usize - 1]),
            _ => Err(WireError::new("unknown NAT type")),
        }
    }
}

/// Whether RV-coordinated hole punching can establish a direct
/// bidirectional session between hosts behind NATs of types `a` and `b`.
///
/// Sessions involving a symmetric NAT fail against port-sensitive filters
/// (the other side cannot predict the fresh per-destination port); all
/// other combinations succeed. This mirrors the observation the paper
/// cites from NATCracker \[20\] and is verified against the packet-level
/// emulation by this crate's tests.
pub fn can_hole_punch(a: NatType, b: NatType) -> bool {
    use NatType::*;
    match (a, b) {
        (Public, _) | (_, Public) => true,
        (Symmetric, Symmetric) => false,
        (Symmetric, PortRestrictedCone) | (PortRestrictedCone, Symmetric) => false,
        _ => true,
    }
}

/// Distribution of NAT types over a node population.
#[derive(Clone, Copy, Debug)]
pub struct NatDistribution {
    /// Fraction of public nodes in `[0, 1]`.
    pub public_ratio: f64,
}

impl NatDistribution {
    /// The paper's default: 70% of nodes behind NAT devices, evenly split
    /// between the four types (§V-A, following Casado & Freedman \[4\]).
    pub fn paper_default() -> Self {
        NatDistribution { public_ratio: 0.30 }
    }

    /// A distribution with the given fraction of public nodes; NATted
    /// nodes are split evenly between the four device types.
    pub fn with_public_ratio(public_ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&public_ratio));
        NatDistribution { public_ratio }
    }

    /// Samples a NAT type.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> NatType {
        if rng.gen_bool(self.public_ratio) {
            NatType::Public
        } else {
            NatType::NATTED[rng.gen_range(0..4)]
        }
    }
}

/// State of one emulated NAT device (one per simulated host).
///
/// The state is flat: a cone device is its current external port and one
/// vector of association rules, a symmetric device one vector of sessions.
/// Every packet of a NATted host crosses its device twice, so neither
/// operation chases a pointer per mapping.
#[derive(Debug, Clone)]
pub struct NatDevice {
    nat_type: NatType,
    next_port: u16,
    state: State,
}

#[derive(Debug, Clone)]
enum State {
    Public,
    /// The three cone types share one external port among all
    /// destinations. The port lives while any rule does; when the last
    /// rule has expired the next outbound packet takes a fresh port, and
    /// packets to an earlier port are refused — an abandoned mapping
    /// needs no storage.
    Cone {
        /// Current external port; 0 before the first outbound packet.
        port: u16,
        /// Unexpired-or-not-yet-pruned rules, sorted by remote endpoint:
        /// a port-restricted filter is one binary search, a restricted
        /// one a partition point on the node.
        rules: Vec<(Endpoint, SimTime)>,
        /// A lower bound on the earliest expiry among `rules`: nothing is
        /// pruned before it has passed.
        earliest: SimTime,
        /// The latest expiry among `rules`: the port is alive until then.
        latest: SimTime,
    },
    /// A symmetric device maps every remote endpoint to a port of its
    /// own. Sessions stay in allocation order; an inbound packet is
    /// matched to the first session holding its port.
    Symmetric(Vec<Session>),
}

/// One symmetric-NAT mapping: packets to `remote` leave from `port`, and
/// only `remote` may answer to it, until `expires`.
#[derive(Debug, Clone, Copy)]
struct Session {
    remote: Endpoint,
    port: u16,
    expires: SimTime,
}

/// Dead symmetric sessions are collected when a new one is needed and
/// more than this many are held, so a device's state is bounded by this
/// plus its live sessions.
const SYMMETRIC_GC_ABOVE: usize = 512;

impl NatDevice {
    /// Creates a device of the given type.
    pub fn new(nat_type: NatType) -> Self {
        let state = match nat_type {
            NatType::Public => State::Public,
            NatType::Symmetric => State::Symmetric(Vec::new()),
            _ => State::Cone {
                port: 0,
                rules: Vec::new(),
                earliest: SimTime::ZERO,
                latest: SimTime::ZERO,
            },
        };
        NatDevice { nat_type, next_port: 1, state }
    }

    /// The device type.
    pub fn nat_type(&self) -> NatType {
        self.nat_type
    }

    /// Registers an outbound packet towards `dst` and returns the external
    /// source port the packet leaves with (0 for public hosts).
    ///
    /// Creates or refreshes the association rule, whose lease expires at
    /// `now + lease`.
    pub fn outbound(&mut self, dst: Endpoint, now: SimTime, lease: SimDuration) -> u16 {
        let expires = now + lease;
        match &mut self.state {
            State::Public => 0,
            State::Cone { port, rules, earliest, latest } => {
                if *latest <= now {
                    // Every rule has expired (or there never was one):
                    // the mapping is gone, a new one takes the next port.
                    rules.clear();
                    *port = alloc_port(&mut self.next_port);
                    *earliest = expires;
                } else if *earliest <= now {
                    rules.retain(|&(_, exp)| exp > now);
                    *earliest = rules.iter().map(|&(_, exp)| exp).min().unwrap_or(expires);
                }
                match rules.binary_search_by_key(&dst, |&(ep, _)| ep) {
                    Ok(at) => {
                        let old = std::mem::replace(&mut rules[at].1, expires);
                        if old == *latest && expires < old {
                            // A shorter lease than last time pulled the
                            // longest-lived rule in.
                            *latest = rules.iter().map(|&(_, exp)| exp).max().unwrap_or(expires);
                        }
                    }
                    Err(at) => rules.insert(at, (dst, expires)),
                }
                *earliest = (*earliest).min(expires);
                *latest = (*latest).max(expires);
                *port
            }
            State::Symmetric(sessions) => {
                if let Some(session) =
                    sessions.iter_mut().find(|s| s.remote == dst && s.expires > now)
                {
                    session.expires = expires;
                    return session.port;
                }
                if sessions.len() > SYMMETRIC_GC_ABOVE {
                    sessions.retain(|s| s.expires > now);
                }
                let port = alloc_port(&mut self.next_port);
                sessions.push(Session { remote: dst, port, expires });
                port
            }
        }
    }

    /// Filters an inbound packet addressed to external port `dst_port`
    /// arriving from `src`. Returns `true` if the device delivers it to
    /// the internal host.
    pub fn inbound(&self, dst_port: u16, src: Endpoint, now: SimTime) -> bool {
        match &self.state {
            State::Public => true,
            State::Cone { port, rules, latest, .. } => {
                if dst_port != *port || *latest <= now {
                    return false; // not the current mapping, or all its rules expired
                }
                match self.nat_type {
                    NatType::RestrictedCone => {
                        let from = rules.partition_point(|&(ep, _)| ep.node < src.node);
                        rules[from..]
                            .iter()
                            .take_while(|&&(ep, _)| ep.node == src.node)
                            .any(|&(_, exp)| exp > now)
                    }
                    NatType::PortRestrictedCone => rules
                        .binary_search_by_key(&src, |&(ep, _)| ep)
                        .is_ok_and(|at| rules[at].1 > now),
                    _ => true, // full cone
                }
            }
            State::Symmetric(sessions) => sessions
                .iter()
                .find(|s| s.port == dst_port)
                .is_some_and(|s| s.expires > now && s.remote == src),
        }
    }
}

/// Hands out external ports 1, 2, … 65535, 1, …
fn alloc_port(next_port: &mut u16) -> u16 {
    let port = *next_port;
    *next_port = next_port.wrapping_add(1).max(1);
    port
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;

    fn ep(node: u64, port: u16) -> Endpoint {
        Endpoint { node: NodeId(node), port }
    }

    const LEASE: SimDuration = SimDuration::from_micros(300_000_000); // 300 s
    const T0: SimTime = SimTime::ZERO;

    /// The device as it was before its state went flat — a vector of
    /// mappings, each with a vector of contacts, scanned and pruned on
    /// every packet — kept as the oracle of the model-based test below.
    mod reference {
        use super::super::{Endpoint, NatType, SimDuration, SimTime};

        pub struct NatDevice {
            nat_type: NatType,
            mappings: Vec<Mapping>,
            next_port: u16,
        }

        struct Mapping {
            external_port: u16,
            /// For symmetric devices, the single remote endpoint this
            /// mapping was created towards; `None` for cone devices.
            symmetric_remote: Option<Endpoint>,
            /// Remote endpoints the internal host has sent to through
            /// this mapping, with association-rule expiry times.
            contacts: Vec<(Endpoint, SimTime)>,
        }

        impl Mapping {
            fn prune(&mut self, now: SimTime) {
                self.contacts.retain(|&(_, exp)| exp > now);
            }

            fn alive(&self, now: SimTime) -> bool {
                self.contacts.iter().any(|&(_, exp)| exp > now)
            }
        }

        impl NatDevice {
            pub fn new(nat_type: NatType) -> Self {
                NatDevice { nat_type, mappings: Vec::new(), next_port: 1 }
            }

            pub fn outbound(&mut self, dst: Endpoint, now: SimTime, lease: SimDuration) -> u16 {
                if self.nat_type.is_public() {
                    return 0;
                }
                let expires = now + lease;
                let idx = match self.nat_type {
                    NatType::Symmetric => self
                        .mappings
                        .iter()
                        .position(|m| m.symmetric_remote == Some(dst) && m.alive(now)),
                    _ => self.mappings.iter().position(|m| m.alive(now)),
                };
                let idx = match idx {
                    Some(i) => i,
                    None => {
                        let port = self.alloc_port(now);
                        self.mappings.push(Mapping {
                            external_port: port,
                            symmetric_remote: (self.nat_type == NatType::Symmetric).then_some(dst),
                            contacts: Vec::new(),
                        });
                        self.mappings.len() - 1
                    }
                };
                let mapping = &mut self.mappings[idx];
                mapping.prune(now);
                match mapping.contacts.iter_mut().find(|(ep, _)| *ep == dst) {
                    Some(entry) => entry.1 = expires,
                    None => mapping.contacts.push((dst, expires)),
                }
                mapping.external_port
            }

            pub fn inbound(&mut self, dst_port: u16, src: Endpoint, now: SimTime) -> bool {
                if self.nat_type.is_public() {
                    return true;
                }
                let Some(mapping) =
                    self.mappings.iter_mut().find(|m| m.external_port == dst_port)
                else {
                    return false;
                };
                mapping.prune(now);
                if mapping.contacts.is_empty() {
                    return false; // all association rules expired
                }
                match self.nat_type {
                    NatType::Public => true,
                    NatType::FullCone => true,
                    NatType::RestrictedCone => {
                        mapping.contacts.iter().any(|(ep, _)| ep.node == src.node)
                    }
                    NatType::PortRestrictedCone => {
                        mapping.contacts.iter().any(|(ep, _)| *ep == src)
                    }
                    NatType::Symmetric => mapping.symmetric_remote == Some(src),
                }
            }

            fn alloc_port(&mut self, now: SimTime) -> u16 {
                if self.mappings.len() > 512 {
                    self.mappings.retain(|m| m.alive(now));
                }
                let port = self.next_port;
                self.next_port = self.next_port.wrapping_add(1).max(1);
                port
            }
        }
    }

    /// Model-based: random streams of outbound and inbound packets, with
    /// time stepping across lease expiry, give the same ports and the
    /// same verdicts on the flat device as on the reference — for every
    /// device type, short and long leases, packets aimed at current,
    /// abandoned and never-used ports, and (symmetric) more remotes than
    /// the garbage-collection threshold.
    #[test]
    fn flat_device_matches_the_reference_model() {
        use whisper_rand::check::check;
        let types = [
            NatType::Public,
            NatType::FullCone,
            NatType::RestrictedCone,
            NatType::PortRestrictedCone,
            NatType::Symmetric,
        ];
        check(200, "flat_device_matches_the_reference_model", |g| {
            let nat_type = types[g.gen_range(0..types.len())];
            let mut flat = NatDevice::new(nat_type);
            let mut model = reference::NatDevice::new(nat_type);
            // A few nodes with a few ports each, so restricted filters
            // see same-node-other-port sources; or a crowd of remotes, so
            // a symmetric device collects garbage.
            let crowd = g.gen_range(0..4u8) == 0;
            let (nodes, ports, steps) = if crowd { (700u64, 1u16, 1500) } else { (6, 3, 300) };
            let lease_s = [2u64, 30, 600];
            let mut now = T0;
            let mut seen_ports = vec![1u16];
            for step in 0..steps {
                // Mostly small steps, sometimes past every lease.
                now += SimDuration::from_millis(match g.gen_range(0..20u8) {
                    0 => 700_000,
                    1..=4 => g.gen_range(0..40_000),
                    _ => g.gen_range(0..500),
                });
                let remote = ep(g.gen_range(0..nodes), g.gen_range(0..ports));
                if g.gen_range(0..3u8) > 0 {
                    let lease = SimDuration::from_secs(lease_s[g.gen_range(0..lease_s.len())]);
                    let port = flat.outbound(remote, now, lease);
                    assert_eq!(
                        port,
                        model.outbound(remote, now, lease),
                        "{nat_type:?} step {step}: outbound to {remote:?}"
                    );
                    seen_ports.push(port);
                } else {
                    let to = match g.gen_range(0..8u8) {
                        0 => g.gen_range(0..2000u16),
                        _ => seen_ports[seen_ports.len() - 1 - g.gen_range(0..seen_ports.len().min(6))],
                    };
                    assert_eq!(
                        flat.inbound(to, remote, now),
                        model.inbound(to, remote, now),
                        "{nat_type:?} step {step}: inbound to port {to} from {remote:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn public_passes_everything() {
        let mut d = NatDevice::new(NatType::Public);
        assert_eq!(d.outbound(ep(2, 0), T0, LEASE), 0);
        assert!(d.inbound(0, ep(99, 7), T0));
    }

    #[test]
    fn cone_reuses_one_port() {
        for t in [NatType::FullCone, NatType::RestrictedCone, NatType::PortRestrictedCone] {
            let mut d = NatDevice::new(t);
            let p1 = d.outbound(ep(2, 0), T0, LEASE);
            let p2 = d.outbound(ep(3, 0), T0, LEASE);
            assert_eq!(p1, p2, "{t:?} must reuse its port");
        }
    }

    #[test]
    fn symmetric_allocates_per_destination() {
        let mut d = NatDevice::new(NatType::Symmetric);
        let p1 = d.outbound(ep(2, 0), T0, LEASE);
        let p2 = d.outbound(ep(3, 0), T0, LEASE);
        let p1_again = d.outbound(ep(2, 0), T0, LEASE);
        assert_ne!(p1, p2);
        assert_eq!(p1, p1_again);
    }

    #[test]
    fn full_cone_accepts_any_source_once_open() {
        let mut d = NatDevice::new(NatType::FullCone);
        let port = d.outbound(ep(2, 0), T0, LEASE);
        assert!(d.inbound(port, ep(99, 5), T0));
    }

    #[test]
    fn restricted_cone_filters_by_host() {
        let mut d = NatDevice::new(NatType::RestrictedCone);
        let port = d.outbound(ep(2, 9), T0, LEASE);
        assert!(d.inbound(port, ep(2, 1234), T0), "same host, other port: pass");
        assert!(!d.inbound(port, ep(3, 9), T0), "other host: blocked");
    }

    #[test]
    fn port_restricted_cone_filters_by_endpoint() {
        let mut d = NatDevice::new(NatType::PortRestrictedCone);
        let port = d.outbound(ep(2, 9), T0, LEASE);
        assert!(d.inbound(port, ep(2, 9), T0));
        assert!(!d.inbound(port, ep(2, 10), T0), "same host, wrong port: blocked");
        assert!(!d.inbound(port, ep(3, 9), T0));
    }

    #[test]
    fn symmetric_filters_by_exact_mapping() {
        let mut d = NatDevice::new(NatType::Symmetric);
        let p_to_2 = d.outbound(ep(2, 9), T0, LEASE);
        let p_to_3 = d.outbound(ep(3, 4), T0, LEASE);
        assert!(d.inbound(p_to_2, ep(2, 9), T0));
        assert!(!d.inbound(p_to_2, ep(3, 4), T0), "wrong mapping");
        assert!(d.inbound(p_to_3, ep(3, 4), T0));
        assert!(!d.inbound(p_to_2, ep(2, 10), T0), "same host, wrong source port");
    }

    #[test]
    fn unknown_port_blocked() {
        let d = NatDevice::new(NatType::FullCone);
        assert!(!d.inbound(42, ep(2, 0), T0));
    }

    #[test]
    fn lease_expiry_closes_the_hole() {
        let mut d = NatDevice::new(NatType::RestrictedCone);
        let port = d.outbound(ep(2, 0), T0, LEASE);
        let just_before = T0 + LEASE - SimDuration::from_micros(1);
        assert!(d.inbound(port, ep(2, 0), just_before));
        let after = T0 + LEASE + SimDuration::from_micros(1);
        assert!(!d.inbound(port, ep(2, 0), after), "association expired");
    }

    #[test]
    fn refreshing_extends_the_lease() {
        let mut d = NatDevice::new(NatType::RestrictedCone);
        let port = d.outbound(ep(2, 0), T0, LEASE);
        let mid = T0 + SimDuration::from_secs(200);
        assert_eq!(d.outbound(ep(2, 0), mid, LEASE), port);
        let late = T0 + SimDuration::from_secs(400); // past original lease
        assert!(d.inbound(port, ep(2, 0), late));
    }

    #[test]
    fn expired_symmetric_mapping_gets_fresh_port() {
        let mut d = NatDevice::new(NatType::Symmetric);
        let p1 = d.outbound(ep(2, 0), T0, LEASE);
        let later = T0 + LEASE + SimDuration::from_secs(1);
        let p2 = d.outbound(ep(2, 0), later, LEASE);
        assert_ne!(p1, p2, "new session, new port");
    }

    #[test]
    fn nat_type_is_one_byte_on_the_wire_and_unknown_codes_are_refused() {
        let all = std::iter::once(NatType::Public).chain(NatType::NATTED);
        for (code, t) in all.enumerate() {
            assert_eq!(t.to_wire(), [code as u8]);
            assert_eq!(NatType::from_wire(&[code as u8]), Ok(t));
        }
        for code in 5..=u8::MAX {
            assert!(NatType::from_wire(&[code]).is_err(), "code {code}");
        }
        assert!(NatType::from_wire(&[]).is_err());
    }

    #[test]
    fn hole_punch_matrix() {
        use NatType::*;
        // Symmetric pairs with port-sensitive filters fail, all else works.
        assert!(!can_hole_punch(Symmetric, Symmetric));
        assert!(!can_hole_punch(Symmetric, PortRestrictedCone));
        assert!(!can_hole_punch(PortRestrictedCone, Symmetric));
        assert!(can_hole_punch(Symmetric, FullCone));
        assert!(can_hole_punch(Symmetric, RestrictedCone));
        assert!(can_hole_punch(FullCone, FullCone));
        assert!(can_hole_punch(RestrictedCone, PortRestrictedCone));
        for t in [FullCone, RestrictedCone, PortRestrictedCone, Symmetric] {
            assert!(can_hole_punch(Public, t));
            assert!(can_hole_punch(t, Public));
        }
    }

    #[test]
    fn distribution_respects_public_ratio() {
        use whisper_rand::SeedableRng;
        let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(1);
        let dist = NatDistribution::paper_default();
        let n = 10_000;
        let mut public = 0;
        let mut by_type = std::collections::HashMap::new();
        for _ in 0..n {
            let t = dist.sample(&mut rng);
            if t.is_public() {
                public += 1;
            } else {
                *by_type.entry(t).or_insert(0usize) += 1;
            }
        }
        let ratio = public as f64 / n as f64;
        assert!((ratio - 0.30).abs() < 0.02, "got {ratio}");
        // NATted types evenly split.
        for (_, count) in by_type {
            let frac = count as f64 / n as f64;
            assert!((frac - 0.175).abs() < 0.02, "got {frac}");
        }
    }
}
