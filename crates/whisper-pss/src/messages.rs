//! Wire messages of the Nylon PSS layer.
//!
//! Everything a node puts on the wire is one of these messages, serialized
//! with the `whisper-net` codec. Upper layers (WCL/PPSS) travel inside
//! [`NylonMsg::App`] payloads.

use crate::descriptors::DescriptorBlob;
use crate::view::{Entry, ViewEntry};
use whisper_net::wire::{
    bytes_len, opt_len, seq_len, WireDecode, WireEncode, WireError, WireReader, WireWriter,
};
use whisper_net::nat::NatType;
use whisper_net::{Endpoint, NodeId};

/// A Nylon-layer message.
#[derive(Clone, Debug, PartialEq)]
pub enum NylonMsg {
    /// Gossip exchange request: the initiator's buffer (its own fresh
    /// entry first), optionally piggybacking its public key (the key
    /// sampling service).
    GossipReq {
        /// Initiator.
        sender: NodeId,
        /// Whether the initiator is a P-node.
        sender_public: bool,
        /// Shipped view subset.
        entries: Vec<ViewEntry>,
        /// Serialized public key, if key sampling is on.
        key: Option<Vec<u8>>,
        /// Piggybacked group-descriptor blobs (relay-level anti-entropy).
        descs: Vec<DescriptorBlob>,
    },
    /// Gossip exchange response (same shape as the request).
    GossipResp {
        /// Responder.
        sender: NodeId,
        /// Whether the responder is a P-node.
        sender_public: bool,
        /// Shipped view subset.
        entries: Vec<ViewEntry>,
        /// Serialized public key, if key sampling is on.
        key: Option<Vec<u8>>,
        /// Piggybacked group-descriptor blobs (relay-level anti-entropy).
        descs: Vec<DescriptorBlob>,
    },
    /// A message relayed along a rendezvous chain. `remaining` lists the
    /// hops still to traverse; its last element is the final destination.
    /// `path_back` accumulates the hops traversed so far (origin first),
    /// giving the destination a working reverse route.
    Relayed {
        /// Originator.
        from: NodeId,
        /// Hops left; last element is the destination.
        remaining: Vec<NodeId>,
        /// Hops already traversed, origin first.
        path_back: Vec<NodeId>,
        /// Serialized inner [`NylonMsg`].
        inner: Vec<u8>,
    },
    /// Hole-punching request travelling along a rendezvous chain towards
    /// the target (the last element of `remaining`). The first relay fills
    /// `requester_ep` with the endpoint it observed.
    OpenReq {
        /// The node that wants to open a direct channel.
        requester: NodeId,
        /// The requester's NAT type: a target whose own type rules a
        /// punch out ([`whisper_net::nat::can_hole_punch`]) sends none.
        requester_nat: NatType,
        /// Requester's externally observed endpoint (filled by the first
        /// relay).
        requester_ep: Option<Endpoint>,
        /// Hops left; last element is the target.
        remaining: Vec<NodeId>,
        /// Hops traversed, origin first.
        path_back: Vec<NodeId>,
    },
    /// Answer to [`NylonMsg::OpenReq`], travelling the reverse path. The
    /// first relay to forward it fills `target_ep`.
    OpenAck {
        /// The target that accepted the open request.
        target: NodeId,
        /// The target's NAT type: a requester whose own type rules a
        /// punch out relays over the chain at once.
        target_nat: NatType,
        /// Target's externally observed endpoint (filled by the first
        /// relay on the way back).
        target_ep: Option<Endpoint>,
        /// Hops left on the reverse path; last element is the requester.
        remaining: Vec<NodeId>,
    },
    /// Hole-punching probe sent directly to a (guessed) endpoint.
    Punch {
        /// Sender.
        from: NodeId,
    },
    /// Acknowledgement of a [`NylonMsg::Punch`]; tells the puncher its
    /// probe traversed the NAT.
    PunchAck {
        /// Sender.
        from: NodeId,
    },
    /// The "empty message" of paper §III-A used when inserting a P-node
    /// into the connection backlog: opens the sender's NAT towards the
    /// P-node so that the P-node can later reach it.
    Ping {
        /// Sender.
        from: NodeId,
        /// Sender's serialized public key (the pinged P-node may need to
        /// seal onion layers back to us).
        key: Option<Vec<u8>>,
    },
    /// Reply to [`NylonMsg::Ping`], carrying the P-node's public key so
    /// the pinger can use it as an onion next-to-last hop.
    Pong {
        /// Sender (the P-node).
        from: NodeId,
        /// The P-node's serialized public key.
        key: Option<Vec<u8>>,
    },
    /// Opaque upper-layer payload (WCL packets, PPSS exchanges, ...).
    App {
        /// Originator.
        from: NodeId,
        /// Upper-layer bytes.
        payload: Vec<u8>,
    },
}

const TAG_GOSSIP_REQ: u8 = 1;
const TAG_GOSSIP_RESP: u8 = 2;
const TAG_RELAYED: u8 = 3;
const TAG_OPEN_REQ: u8 = 4;
const TAG_OPEN_ACK: u8 = 5;
const TAG_PUNCH: u8 = 6;
const TAG_PUNCH_ACK: u8 = 7;
const TAG_PING: u8 = 8;
const TAG_PONG: u8 = 9;
const TAG_APP: u8 = 10;

/// Bytes a [`NylonMsg::App`] puts in front of its payload: tag,
/// originator, payload length.
pub const APP_HEADER_LEN: usize = 1 + 8 + 4;

/// A [`NylonMsg::GossipReq`] or [`NylonMsg::GossipResp`] read where it
/// was delivered ([`NylonMsg::gossip_view`]): the fixed fields by value,
/// entries, key and descriptor blobs as views of the packet.
#[derive(Clone, Copy, Debug)]
pub struct GossipView<'a> {
    /// Whether this is the request of an exchange (else the response).
    pub request: bool,
    /// The sender of the message.
    pub sender: NodeId,
    /// Whether the sender is a P-node.
    pub sender_public: bool,
    /// The sender's serialized public key, if it shipped one.
    pub key: Option<&'a [u8]>,
    /// The encoded entry sequence, validated.
    entries: &'a [u8],
    /// The encoded blob sequence, validated.
    descs: &'a [u8],
}

impl<'a> GossipView<'a> {
    /// The shipped view subset, as shipped: the receiver stores what
    /// [`Entry::received`] makes of each.
    pub fn entries(&self) -> impl Iterator<Item = Entry> + 'a {
        seq_items(self.entries, |r| r.take())
    }

    /// The piggybacked descriptor blobs as `(id, version, bytes)`.
    pub fn descs(&self) -> impl Iterator<Item = (u128, u64, &'a [u8])> + 'a {
        seq_items(self.descs, DescriptorBlob::take_view)
    }
}

/// The items of the encoded sequence `seq`, which [`take_seq_view`] has
/// walked before.
fn seq_items<'a, T>(
    seq: &'a [u8],
    item: impl Fn(&mut WireReader<'a>) -> Result<T, WireError> + 'a,
) -> impl Iterator<Item = T> + 'a {
    let mut r = WireReader::new(seq);
    let count = r.take_u32().unwrap_or(0);
    (0..count).map_while(move |_| item(&mut r).ok())
}

/// Walks one encoded sequence as [`WireReader::take_seq`] would, decoding
/// each item with `item`, and returns the bytes it spans in `wire`, the
/// reader's input.
fn take_seq_view<'a, T>(
    r: &mut WireReader<'a>,
    wire: &'a [u8],
    item: impl Fn(&mut WireReader<'a>) -> Result<T, WireError>,
) -> Result<&'a [u8], WireError> {
    let start = wire.len() - r.remaining();
    // An item takes at least a byte: a count beyond the input, which
    // `take_seq` refuses before it allocates, fails here on the way.
    for _ in 0..r.take_u32()? {
        item(r)?;
    }
    Ok(&wire[start..wire.len() - r.remaining()])
}

impl NylonMsg {
    /// Decodes `wire` as a gossip message without copying. `None` for any
    /// other (or a malformed) message — exactly when
    /// [`WireDecode::from_wire`] would not yield a
    /// [`NylonMsg::GossipReq`] or [`NylonMsg::GossipResp`].
    pub fn gossip_view(wire: &[u8]) -> Option<GossipView<'_>> {
        let mut r = WireReader::new(wire);
        let request = match r.take_u8().ok()? {
            TAG_GOSSIP_REQ => true,
            TAG_GOSSIP_RESP => false,
            _ => return None,
        };
        let sender = r.take().ok()?;
        let sender_public = r.take().ok()?;
        let entries = take_seq_view(&mut r, wire, |r| r.take::<Entry>()).ok()?;
        let key = match r.take_u8().ok()? {
            0 => None,
            1 => Some(r.take_bytes().ok()?),
            _ => return None,
        };
        let descs = take_seq_view(&mut r, wire, DescriptorBlob::take_view).ok()?;
        r.finish().ok()?;
        Some(GossipView { request, sender, sender_public, key, entries, descs })
    }

    /// Exact length of the gossip message [`NylonMsg::put_gossip`] writes.
    pub fn gossip_len<E: WireEncode>(
        entries: &[E],
        key: Option<&[u8]>,
        descs: &[DescriptorBlob],
    ) -> usize {
        1 + 8 + 1 + seq_len(entries) + 1 + key.map_or(0, bytes_len) + seq_len(descs)
    }

    /// Writes a gossip message — the one place that knows its layout,
    /// for the owned codec (`E` = [`ViewEntry`]) and for a sender writing
    /// straight into its outgoing buffer (`E` = [`Entry`]) alike.
    pub fn put_gossip<E: WireEncode>(
        w: &mut WireWriter,
        request: bool,
        sender: NodeId,
        sender_public: bool,
        entries: &[E],
        key: Option<&[u8]>,
        descs: &[DescriptorBlob],
    ) {
        w.put_u8(if request { TAG_GOSSIP_REQ } else { TAG_GOSSIP_RESP });
        w.put(&sender);
        w.put(&sender_public);
        w.put_seq(entries);
        match key {
            Some(key) => {
                w.put_u8(1);
                w.put_bytes(key);
            }
            None => w.put_u8(0),
        }
        w.put_seq(descs);
    }

    /// Writes the part of an [`NylonMsg::App`] that precedes its payload;
    /// the caller appends exactly `payload_len` bytes to complete the
    /// message. This is how an upper layer builds its packet directly in
    /// the outgoing buffer instead of handing over a `Vec` to be copied
    /// into one.
    pub fn put_app_header(w: &mut WireWriter, from: NodeId, payload_len: usize) {
        w.put_u8(TAG_APP);
        w.put(&from);
        w.put_u32(payload_len as u32);
    }

    /// Decodes `wire` as an [`NylonMsg::App`] without copying: the
    /// originator and the payload as a view of `wire`. `None` for any
    /// other (or a malformed) message — exactly when
    /// [`WireDecode::from_wire`] would not yield an `App`.
    pub fn app_view(wire: &[u8]) -> Option<(NodeId, &[u8])> {
        let mut r = WireReader::new(wire);
        if r.take_u8().ok()? != TAG_APP {
            return None;
        }
        let from = r.take().ok()?;
        let payload = r.take_bytes().ok()?;
        r.finish().ok()?;
        Some((from, payload))
    }
}

impl WireEncode for NylonMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            NylonMsg::GossipReq { sender, sender_public, entries, key, descs }
            | NylonMsg::GossipResp { sender, sender_public, entries, key, descs } => {
                let request = matches!(self, NylonMsg::GossipReq { .. });
                NylonMsg::put_gossip(
                    w,
                    request,
                    *sender,
                    *sender_public,
                    entries,
                    key.as_deref(),
                    descs,
                );
            }
            NylonMsg::Relayed { from, remaining, path_back, inner } => {
                w.put_u8(TAG_RELAYED);
                w.put(from);
                w.put_seq(remaining);
                w.put_seq(path_back);
                w.put_bytes(inner);
            }
            NylonMsg::OpenReq { requester, requester_nat, requester_ep, remaining, path_back } => {
                w.put_u8(TAG_OPEN_REQ);
                w.put(requester);
                w.put(requester_nat);
                w.put_opt(requester_ep);
                w.put_seq(remaining);
                w.put_seq(path_back);
            }
            NylonMsg::OpenAck { target, target_nat, target_ep, remaining } => {
                w.put_u8(TAG_OPEN_ACK);
                w.put(target);
                w.put(target_nat);
                w.put_opt(target_ep);
                w.put_seq(remaining);
            }
            NylonMsg::Punch { from } => {
                w.put_u8(TAG_PUNCH);
                w.put(from);
            }
            NylonMsg::PunchAck { from } => {
                w.put_u8(TAG_PUNCH_ACK);
                w.put(from);
            }
            NylonMsg::Ping { from, key } => {
                w.put_u8(TAG_PING);
                w.put(from);
                w.put_opt(key);
            }
            NylonMsg::Pong { from, key } => {
                w.put_u8(TAG_PONG);
                w.put(from);
                w.put_opt(key);
            }
            NylonMsg::App { from, payload } => {
                w.put_u8(TAG_APP);
                w.put(from);
                w.put_bytes(payload);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            NylonMsg::GossipReq { entries, key, descs, .. }
            | NylonMsg::GossipResp { entries, key, descs, .. } => {
                NylonMsg::gossip_len(entries, key.as_deref(), descs)
            }
            NylonMsg::Relayed { remaining, path_back, inner, .. } => {
                1 + 8 + seq_len(remaining) + seq_len(path_back) + bytes_len(inner)
            }
            NylonMsg::OpenReq { requester_ep, remaining, path_back, .. } => {
                1 + 8 + 1 + opt_len(requester_ep) + seq_len(remaining) + seq_len(path_back)
            }
            NylonMsg::OpenAck { target_ep, remaining, .. } => {
                1 + 8 + 1 + opt_len(target_ep) + seq_len(remaining)
            }
            NylonMsg::Punch { .. } | NylonMsg::PunchAck { .. } => 1 + 8,
            NylonMsg::Ping { key, .. } | NylonMsg::Pong { key, .. } => 1 + 8 + opt_len(key),
            NylonMsg::App { payload, .. } => 1 + 8 + bytes_len(payload),
        }
    }
}

impl WireDecode for NylonMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            TAG_GOSSIP_REQ => NylonMsg::GossipReq {
                sender: r.take()?,
                sender_public: r.take()?,
                entries: r.take_seq()?,
                key: r.take_opt()?,
                descs: r.take_seq()?,
            },
            TAG_GOSSIP_RESP => NylonMsg::GossipResp {
                sender: r.take()?,
                sender_public: r.take()?,
                entries: r.take_seq()?,
                key: r.take_opt()?,
                descs: r.take_seq()?,
            },
            TAG_RELAYED => NylonMsg::Relayed {
                from: r.take()?,
                remaining: r.take_seq()?,
                path_back: r.take_seq()?,
                inner: r.take_bytes()?.to_vec(),
            },
            TAG_OPEN_REQ => NylonMsg::OpenReq {
                requester: r.take()?,
                requester_nat: r.take()?,
                requester_ep: r.take_opt()?,
                remaining: r.take_seq()?,
                path_back: r.take_seq()?,
            },
            TAG_OPEN_ACK => NylonMsg::OpenAck {
                target: r.take()?,
                target_nat: r.take()?,
                target_ep: r.take_opt()?,
                remaining: r.take_seq()?,
            },
            TAG_PUNCH => NylonMsg::Punch { from: r.take()? },
            TAG_PUNCH_ACK => NylonMsg::PunchAck { from: r.take()? },
            TAG_PING => NylonMsg::Ping { from: r.take()?, key: r.take_opt()? },
            TAG_PONG => NylonMsg::Pong { from: r.take()?, key: r.take_opt()? },
            TAG_APP => NylonMsg::App { from: r.take()?, payload: r.take_bytes()?.to_vec() },
            _ => return Err(WireError::new("unknown Nylon message tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_net::wire::{WireDecode, WireEncode};

    fn round_trip(msg: NylonMsg) {
        let bytes = msg.to_wire();
        assert_eq!(NylonMsg::from_wire(&bytes).unwrap(), msg);
    }

    #[test]
    fn gossip_round_trip() {
        round_trip(NylonMsg::GossipReq {
            sender: NodeId(1),
            sender_public: true,
            entries: vec![ViewEntry {
                node: NodeId(2),
                age: 3,
                public: false,
                route: vec![NodeId(4)],
            }],
            key: Some(vec![1, 2, 3]),
            descs: vec![DescriptorBlob { id: 7, version: 3, bytes: vec![9; 20] }],
        });
        round_trip(NylonMsg::GossipResp {
            sender: NodeId(1),
            sender_public: false,
            entries: vec![],
            key: None,
            descs: vec![],
        });
    }

    #[test]
    fn relayed_round_trip() {
        round_trip(NylonMsg::Relayed {
            from: NodeId(1),
            remaining: vec![NodeId(2), NodeId(3)],
            path_back: vec![NodeId(1)],
            inner: b"inner".to_vec(),
        });
    }

    #[test]
    fn open_handshake_round_trip() {
        round_trip(NylonMsg::OpenReq {
            requester: NodeId(1),
            requester_nat: NatType::Symmetric,
            requester_ep: Some(Endpoint { node: NodeId(1), port: 9 }),
            remaining: vec![NodeId(5)],
            path_back: vec![NodeId(1), NodeId(4)],
        });
        round_trip(NylonMsg::OpenAck {
            target: NodeId(5),
            target_nat: NatType::FullCone,
            target_ep: None,
            remaining: vec![NodeId(4), NodeId(1)],
        });
        round_trip(NylonMsg::Punch { from: NodeId(7) });
        round_trip(NylonMsg::PunchAck { from: NodeId(7) });
    }

    #[test]
    fn ping_pong_round_trip() {
        round_trip(NylonMsg::Ping { from: NodeId(1), key: Some(vec![9; 40]) });
        round_trip(NylonMsg::Pong { from: NodeId(2), key: None });
    }

    #[test]
    fn app_round_trip() {
        round_trip(NylonMsg::App { from: NodeId(1), payload: vec![0; 1000] });
    }

    #[test]
    fn app_view_and_header_agree_with_the_owned_codec() {
        let msg = NylonMsg::App { from: NodeId(77), payload: vec![5; 300] };
        let wire = msg.to_wire();
        assert_eq!(NylonMsg::app_view(&wire), Some((NodeId(77), &[5u8; 300][..])));
        let mut w = WireWriter::new();
        NylonMsg::put_app_header(&mut w, NodeId(77), 300);
        assert_eq!(w.len(), APP_HEADER_LEN);
        w.put_raw(&[5; 300]);
        assert_eq!(w.into_bytes(), wire);
        // Whatever the owned decoder rejects or decodes as another
        // variant, the view declines too.
        assert_eq!(NylonMsg::app_view(&wire[..wire.len() - 1]), None, "truncated");
        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(NylonMsg::app_view(&trailing), None, "trailing bytes");
        assert_eq!(NylonMsg::app_view(&NylonMsg::Punch { from: NodeId(1) }.to_wire()), None);
        assert_eq!(NylonMsg::app_view(&[]), None);
    }

    #[test]
    fn garbage_rejected() {
        assert!(NylonMsg::from_wire(&[42]).is_err());
        assert!(NylonMsg::from_wire(&[]).is_err());
        // Valid message with trailing garbage.
        let mut bytes = NylonMsg::Punch { from: NodeId(1) }.to_wire();
        bytes.push(0);
        assert!(NylonMsg::from_wire(&bytes).is_err());
    }
}
