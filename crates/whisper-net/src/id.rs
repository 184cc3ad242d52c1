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

crate::wire_format!(NodeId(id));

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

crate::wire_format!(Endpoint { node, port });

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
    fn endpoint_wire_image_is_node_then_port() {
        use crate::wire::{WireDecode, WireEncode};
        let ep = Endpoint { node: NodeId(0x0102_0304_0506_0708), port: 0x090A };
        assert_eq!(ep.to_wire(), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(Endpoint::from_wire(&ep.to_wire()), Ok(ep));
        assert!(Endpoint::from_wire(&[1, 2, 3, 4, 5, 6, 7, 8, 9]).is_err());
    }

    #[test]
    fn public_endpoint_uses_port_zero() {
        assert_eq!(Endpoint::public(NodeId(3)).port, 0);
    }
}
