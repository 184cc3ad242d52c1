use crate::wire::{WireDecode, WireError, WireReader, WireSink};
use std::fmt;

/// Identifier of a simulated node (one node = one host).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl NodeId {
    /// Serializes to 8 big-endian bytes (used as the opaque onion-layer
    /// address format).
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Parses the 8-byte form produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Option<NodeId> {
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(NodeId(u64::from_be_bytes(arr)))
    }
}

impl crate::wire::WireEncode for NodeId {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_u64(self.0);
    }
}

impl WireDecode for NodeId {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.take_u64()?))
    }
}

/// A node's externally visible transport endpoint.
///
/// Public nodes always use port 0. NATted nodes are reachable only on
/// external ports allocated by their NAT device; for symmetric NATs the
/// port differs per destination, which is exactly what makes hole punching
/// fail against port-sensitive filters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// The host.
    pub node: NodeId,
    /// External port on the host's NAT device (0 for public hosts).
    pub port: u16,
}

impl Endpoint {
    /// Endpoint of a public (un-NATted) host.
    pub fn public(node: NodeId) -> Endpoint {
        Endpoint { node, port: 0 }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

impl crate::wire::WireEncode for Endpoint {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_u64(self.node.0);
        w.put_u16(self.port);
    }
}

impl WireDecode for Endpoint {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Endpoint {
            node: NodeId(r.take_u64()?),
            port: r.take_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_bytes_round_trip() {
        let id = NodeId(0xdead_beef_1234);
        assert_eq!(NodeId::from_bytes(&id.to_bytes()), Some(id));
        assert_eq!(NodeId::from_bytes(&[1, 2, 3]), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(format!("{:?}", Endpoint { node: NodeId(7), port: 9 }), "n7:9");
    }

    #[test]
    fn public_endpoint_uses_port_zero() {
        assert_eq!(Endpoint::public(NodeId(3)).port, 0);
    }
}
