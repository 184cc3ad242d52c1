//! Wire messages of the Nylon PSS layer.
//!
//! Everything a node puts on the wire is one of these messages, serialized
//! with the `whisper-net` codec. Upper layers (WCL/PPSS) travel inside
//! [`NylonMsg::App`] payloads.

use crate::view::{Entry, ViewEntry};
use std::convert::Infallible;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireLen, WireReader, WireSink};
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
        /// Always empty and never on the wire (a sequence of a type with
        /// no values): the benchmark's gossip probe names the field.
        descs: Vec<Infallible>,
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
        /// Always empty and never on the wire (a sequence of a type with
        /// no values): the benchmark's gossip probe names the field.
        descs: Vec<Infallible>,
    },
    /// A message walking a rendezvous chain: the one form of a relayed
    /// message, of a NATted node's first message to a stranger and of the
    /// answer to a port-restricted or symmetric one's. Each relay pushes
    /// itself onto `taken` and passes the message on to the first of
    /// `remaining`; the first hop alone stamps the endpoint it saw the
    /// origin at into a body that has one.
    Chain {
        /// Hops left; the last one is the destination.
        remaining: Vec<NodeId>,
        /// Hops taken, origin first: never empty (the decoder refuses a
        /// chain message with no origin), and the destination walks it
        /// backwards to reach the origin.
        taken: Vec<NodeId>,
        /// What the chain carries.
        body: ChainBody,
    },
    /// Hole-punching probe sent directly to an endpoint a first hop saw:
    /// by the target of an open request, keyless, to leave its own NAT a
    /// rule for the requester; by the requester, once the acknowledgement
    /// names the target's endpoint, with its key — or, by a restricted-cone
    /// requester, to the target's public address, to open its own filter
    /// to the target's answer.
    Punch {
        /// Sender.
        from: NodeId,
        /// Sender's serialized public key, if it has one to give.
        key: Option<Vec<u8>>,
    },
    /// The answer to a [`NylonMsg::Punch`] that got through, with the
    /// answerer's key: the channel works both ways, and the requester of
    /// an open takes the endpoint it came from for the target's contact.
    PunchAck {
        /// Sender.
        from: NodeId,
        /// Sender's serialized public key, if key sampling is on.
        key: Option<Vec<u8>>,
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
    /// Opaque upper-layer payload (WCL packets, PPSS exchanges, ...). It
    /// names no originator: that is the datagram's sender, or for a
    /// relayed one the first hop its chain took.
    App {
        /// Upper-layer bytes.
        payload: Vec<u8>,
    },
}

/// What a [`NylonMsg::Chain`] carries; on the wire, its tag is the
/// message's.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainBody {
    /// The wire image of a message for the destination, relayed there.
    Relayed(Vec<u8>),
    /// The wire image of a message for the destination, from an origin
    /// behind a cone NAT, with the origin's endpoint as the first hop saw
    /// it: the destination takes that endpoint for the origin's contact
    /// and answers there directly.
    Contact(Option<Endpoint>, Vec<u8>),
    /// The wire image of a message for the destination, from an origin
    /// behind a port-restricted or symmetric NAT, with the origin's
    /// endpoint as the first hop saw it: the destination punches that
    /// endpoint once, handles the message as a relayed one and answers in
    /// an [`ChainBody::OpenAck`].
    OpenReq(Option<Endpoint>, Vec<u8>),
    /// The answer to an open request — the wire image of the destination's
    /// answer to its message, or nothing — travelling back over the hops
    /// the request took, with the target's endpoint as the first hop saw
    /// it: the requester punches that endpoint, and a gossip answer's
    /// entries wait for the target's `PunchAck`.
    OpenAck(Option<Endpoint>, Vec<u8>),
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
const TAG_CONTACT: u8 = 11;

/// A [`NylonMsg::GossipReq`] or [`NylonMsg::GossipResp`] read where it
/// was delivered ([`NylonMsg::gossip_view`]): the fixed fields by value,
/// entries and key as views of the packet.
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
}

impl<'a> GossipView<'a> {
    /// The shipped view subset, as shipped: the receiver stores what
    /// [`Entry::received`] makes of each.
    pub fn entries(&self) -> impl Iterator<Item = Entry> + 'a {
        let mut r = WireReader::new(self.entries);
        let count = r.take_len().unwrap_or(0);
        (0..count).map_while(move |_| r.take().ok())
    }
}

/// Walks one encoded entry sequence as [`WireReader::take_seq`] would and
/// returns the bytes it spans in `wire`, the reader's input.
fn take_entries_view<'a>(r: &mut WireReader<'a>, wire: &'a [u8]) -> Result<&'a [u8], WireError> {
    let start = wire.len() - r.remaining();
    // An entry takes at least a byte: a count beyond the input, which
    // `take_seq` refuses before it allocates, fails here on the way.
    for _ in 0..r.take_len()? {
        r.take::<Entry>()?;
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
        let entries = take_entries_view(&mut r, wire).ok()?;
        let key = match r.take_u8().ok()? {
            0 => None,
            1 => Some(r.take_bytes().ok()?),
            _ => return None,
        };
        r.finish().ok()?;
        Some(GossipView { request, sender, sender_public, key, entries })
    }

    /// Exact length of the gossip message [`NylonMsg::put_gossip`] writes.
    pub fn gossip_len<E: WireEncode>(entries: &[E], key: Option<&[u8]>) -> usize {
        WireLen::of(|n| NylonMsg::put_gossip(n, true, NodeId(0), false, entries, key))
    }

    /// Writes a gossip message — the one place that knows its layout,
    /// for the owned codec (`E` = [`ViewEntry`]) and for a sender writing
    /// straight into its outgoing buffer (`E` = [`Entry`]) alike.
    pub fn put_gossip<E: WireEncode, W: WireSink>(
        w: &mut W,
        request: bool,
        sender: NodeId,
        sender_public: bool,
        entries: &[E],
        key: Option<&[u8]>,
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
    }

    /// Writes the part of an [`NylonMsg::App`] that precedes its payload;
    /// the caller appends exactly `payload_len` bytes to complete the
    /// message. This is how an upper layer builds its packet directly in
    /// the outgoing buffer instead of handing over a `Vec` to be copied
    /// into one.
    pub fn put_app_header<W: WireSink>(w: &mut W, payload_len: usize) {
        w.put_u8(TAG_APP);
        w.put_len(payload_len);
    }

    /// Decodes `wire` as an [`NylonMsg::App`] without copying: the payload
    /// as a view of `wire`. `None` for any other (or a malformed) message
    /// — exactly when [`WireDecode::from_wire`] would not yield an `App`.
    pub fn app_view(wire: &[u8]) -> Option<&[u8]> {
        let mut r = WireReader::new(wire);
        if r.take_u8().ok()? != TAG_APP {
            return None;
        }
        let payload = r.take_bytes().ok()?;
        r.finish().ok()?;
        Some(payload)
    }
}

impl WireEncode for NylonMsg {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            NylonMsg::GossipReq { sender, sender_public, entries, key, .. }
            | NylonMsg::GossipResp { sender, sender_public, entries, key, .. } => {
                let request = matches!(self, NylonMsg::GossipReq { .. });
                NylonMsg::put_gossip(w, request, *sender, *sender_public, entries, key.as_deref());
            }
            NylonMsg::Chain { remaining, taken, body } => {
                w.put_u8(match body {
                    ChainBody::Relayed(_) => TAG_RELAYED,
                    ChainBody::Contact(..) => TAG_CONTACT,
                    ChainBody::OpenReq(..) => TAG_OPEN_REQ,
                    ChainBody::OpenAck(..) => TAG_OPEN_ACK,
                });
                w.put_seq(remaining);
                w.put_seq(taken);
                match body {
                    ChainBody::Relayed(inner) => w.put_bytes(inner),
                    ChainBody::Contact(ep, inner) | ChainBody::OpenReq(ep, inner) | ChainBody::OpenAck(ep, inner) => {
                        w.put_opt(ep);
                        w.put_bytes(inner);
                    }
                }
            }
            NylonMsg::Punch { from, key } => {
                w.put_u8(TAG_PUNCH);
                w.put(from);
                w.put_opt(key);
            }
            NylonMsg::PunchAck { from, key } => {
                w.put_u8(TAG_PUNCH_ACK);
                w.put(from);
                w.put_opt(key);
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
            NylonMsg::App { payload } => {
                w.put_u8(TAG_APP);
                w.put_bytes(payload);
            }
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
                descs: Vec::new(),
            },
            TAG_GOSSIP_RESP => NylonMsg::GossipResp {
                sender: r.take()?,
                sender_public: r.take()?,
                entries: r.take_seq()?,
                key: r.take_opt()?,
                descs: Vec::new(),
            },
            tag @ (TAG_RELAYED | TAG_CONTACT | TAG_OPEN_REQ | TAG_OPEN_ACK) => {
                let remaining = r.take_seq()?;
                let taken: Vec<NodeId> = r.take_seq()?;
                if taken.is_empty() {
                    return Err(WireError::new("chain message with no origin"));
                }
                let body = if tag == TAG_RELAYED {
                    ChainBody::Relayed(r.take_bytes()?.to_vec())
                } else {
                    let (seen, inner) = (r.take_opt()?, r.take_bytes()?.to_vec());
                    match tag {
                        TAG_CONTACT => ChainBody::Contact(seen, inner),
                        TAG_OPEN_REQ => ChainBody::OpenReq(seen, inner),
                        _ => ChainBody::OpenAck(seen, inner),
                    }
                };
                NylonMsg::Chain { remaining, taken, body }
            }
            TAG_PUNCH => NylonMsg::Punch { from: r.take()?, key: r.take_opt()? },
            TAG_PUNCH_ACK => NylonMsg::PunchAck { from: r.take()?, key: r.take_opt()? },
            TAG_PING => NylonMsg::Ping { from: r.take()?, key: r.take_opt()? },
            TAG_PONG => NylonMsg::Pong { from: r.take()?, key: r.take_opt()? },
            TAG_APP => NylonMsg::App { payload: r.take_bytes()?.to_vec() },
            _ => return Err(WireError::new("unknown Nylon message tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_net::wire::{WireDecode, WireEncode, WireWriter};

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
            descs: vec![],
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
    fn chain_and_punch_round_trip() {
        let chain = |body| NylonMsg::Chain {
            remaining: vec![NodeId(2), NodeId(3)],
            taken: vec![NodeId(1), NodeId(4)],
            body,
        };
        round_trip(chain(ChainBody::Relayed(b"inner".to_vec())));
        round_trip(chain(ChainBody::Contact(Some(Endpoint { node: NodeId(1), port: 9 }), b"in".to_vec())));
        round_trip(chain(ChainBody::Contact(None, vec![])));
        round_trip(chain(ChainBody::OpenReq(Some(Endpoint { node: NodeId(1), port: 9 }), b"req".to_vec())));
        round_trip(chain(ChainBody::OpenAck(None, vec![])));
        round_trip(chain(ChainBody::OpenAck(Some(Endpoint { node: NodeId(3), port: 2 }), b"ack".to_vec())));
        round_trip(NylonMsg::Punch { from: NodeId(7), key: None });
        round_trip(NylonMsg::PunchAck { from: NodeId(7), key: Some(vec![4; 48]) });
    }

    #[test]
    fn ping_pong_round_trip() {
        round_trip(NylonMsg::Ping { from: NodeId(1), key: Some(vec![9; 40]) });
        round_trip(NylonMsg::Pong { from: NodeId(2), key: None });
    }

    #[test]
    fn app_round_trip() {
        round_trip(NylonMsg::App { payload: vec![0; 1000] });
    }

    #[test]
    fn app_view_and_header_agree_with_the_owned_codec() {
        let msg = NylonMsg::App { payload: vec![5; 300] };
        let wire = msg.to_wire();
        assert_eq!(NylonMsg::app_view(&wire), Some(&[5u8; 300][..]));
        let mut w = WireWriter::new();
        NylonMsg::put_app_header(&mut w, 300);
        assert_eq!(w.len(), 1 + 2, "the tag and a two-byte length");
        w.put_raw(&[5; 300]);
        assert_eq!(w.into_bytes(), wire);
        // Whatever the owned decoder rejects or decodes as another
        // variant, the view declines too.
        assert_eq!(NylonMsg::app_view(&wire[..wire.len() - 1]), None, "truncated");
        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(NylonMsg::app_view(&trailing), None, "trailing bytes");
        assert_eq!(NylonMsg::app_view(&NylonMsg::Punch { from: NodeId(1), key: None }.to_wire()), None);
        assert_eq!(NylonMsg::app_view(&[]), None);
    }

    #[test]
    fn garbage_rejected() {
        assert!(NylonMsg::from_wire(&[42]).is_err());
        assert!(NylonMsg::from_wire(&[]).is_err());
        // Valid message with trailing garbage.
        let mut bytes = NylonMsg::Punch { from: NodeId(1), key: None }.to_wire();
        bytes.push(0);
        assert!(NylonMsg::from_wire(&bytes).is_err());
    }
}
