//! PPSS wire messages. All of them travel *inside* WCL onion payloads:
//! relays and observers only ever see ciphertext.

use crate::ppss::group::{GroupId, Passport};
use crate::wcl::GatewayInfo;
use whisper_crypto::rsa::PublicKey;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireLen, WireReader, WireSink};
use whisper_net::NodeId;

/// One entry of a private view (paper §IV-B): the member's identity and
/// everything needed to open a confidential WCL route to it — what the
/// WCL sends to ([`crate::wcl::Wcl::send`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PrivateEntry {
    /// The member.
    pub node: NodeId,
    /// Entry freshness (same semantics as the system-wide PSS).
    pub age: u16,
    /// Whether the member is a P-node.
    pub public: bool,
    /// The member's own public key.
    pub key: PublicKey,
    /// Π P-nodes that can reach the member (empty for P-nodes).
    pub gateways: Vec<GatewayInfo>,
}

whisper_net::wire_format!(PrivateEntry { node, age, public, key, gateways: seq });

/// Leader liveness information piggybacked on exchanges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Heartbeat {
    /// Leadership epoch (bumped by each election).
    pub epoch: u64,
    /// Monotone sequence number within the epoch.
    pub seq: u64,
}

whisper_net::wire_format!(Heartbeat { epoch, seq });

/// A leader-election proposal: the gossip-aggregated maximum wins
/// (paper §IV-A). What it proposes is a function of the proposer
/// ([`proposal_value`](crate::ppss::election::proposal_value)), which
/// every receiver computes for itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionBallot {
    /// The epoch being elected (`current epoch + 1`).
    pub round: u64,
    /// The proposer.
    pub node: NodeId,
}

whisper_net::wire_format!(ElectionBallot { round, node });

/// Announcement of a freshly elected leader's new group public key,
/// "signed by their identity" (paper §IV-A).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NewKeyAnnouncement {
    /// The new leadership epoch.
    pub epoch: u64,
    /// The new group public key.
    pub group_key: PublicKey,
    /// The leader's identity key.
    pub signer_key: PublicKey,
    /// Signature by the leader's identity key over `epoch ‖ group_key`.
    pub signature: Vec<u8>,
}

impl NewKeyAnnouncement {
    /// The signed message.
    pub fn message(epoch: u64, group_key: &[u8]) -> Vec<u8> {
        let mut m = b"whisper-newkey".to_vec();
        m.extend_from_slice(&epoch.to_be_bytes());
        m.extend_from_slice(group_key);
        m
    }

    /// Verifies the announcement's signature; the keys were parsed when
    /// it was decoded.
    pub fn verify(&self) -> Option<PublicKey> {
        let message = Self::message(self.epoch, self.group_key.wire_bytes());
        self.signer_key.verify(&message, &self.signature).ok()?;
        Some(self.group_key.clone())
    }
}

whisper_net::wire_format!(NewKeyAnnouncement { epoch, group_key, signer_key, signature });

/// A PPSS message (always inside a WCL payload).
#[derive(Clone, Debug, PartialEq)]
pub enum PpssMsg {
    /// Join request presented to a leader.
    JoinReq {
        /// Target group.
        group: GroupId,
        /// Signed accreditation.
        accreditation: Vec<u8>,
        /// The applicant's own entry (so the leader can answer over WCL).
        entry: PrivateEntry,
    },
    /// Leader's acceptance.
    JoinAck {
        /// Target group.
        group: GroupId,
        /// The new member's passport.
        passport: Passport,
        /// The group key history, oldest first (last = current).
        key_history: Vec<PublicKey>,
        /// Bootstrap entries for the private view.
        entries: Vec<PrivateEntry>,
    },
    /// Private view exchange (request or response).
    Exchange {
        /// Target group.
        group: GroupId,
        /// Sender's passport.
        passport: Passport,
        /// Sender's fresh entry (also the reply address for requests).
        /// Boxed to keep the enum's in-memory footprint close to the
        /// other variants (clippy: `large_enum_variant`); the wire
        /// format is unchanged.
        from_entry: Box<PrivateEntry>,
        /// Shipped view subset.
        entries: Vec<PrivateEntry>,
        /// Correlates responses with requests (the requester's WCL
        /// message id, echoed back).
        exchange_id: u64,
        /// `false` for requests, `true` for responses.
        is_response: bool,
        /// Leader liveness gossip.
        hb: Heartbeat,
        /// Ongoing election ballot, if any.
        election: Option<ElectionBallot>,
        /// Latest group-key change announcement, if any.
        new_key: Option<NewKeyAnnouncement>,
        /// The sender's whole revoked set, sorted: the receiver folds it
        /// into its own by union.
        revoked: Vec<NodeId>,
    },
    /// Application payload between group members. On the wire, who is
    /// talking comes first — passport and reply entry, the message's
    /// [`Preamble`](crate::wcl::Preamble) — and what follows is an
    /// [`PpssMsg::AppShort`] image.
    AppData {
        /// Target group.
        group: GroupId,
        /// Sender's passport.
        passport: Passport,
        /// Opaque application bytes.
        data: Vec<u8>,
        /// Optionally, the sender's entry so the receiver can reply with a
        /// single WCL path (the T-Chord pattern of §V-G).
        reply_entry: Option<PrivateEntry>,
    },
    /// An [`PpssMsg::AppData`] without passport and reply entry: what of
    /// it travels on a circuit that has already carried both in this
    /// direction. The receiver supplies them from what it kept.
    AppShort {
        /// Target group.
        group: GroupId,
        /// Opaque application bytes.
        data: Vec<u8>,
    },
    /// Persistent-path refresh (paper §IV-C): updates the stored entry
    /// (and therefore the Π gateway P-nodes) for a PCP member.
    PcpRefresh {
        /// Target group.
        group: GroupId,
        /// Sender's passport.
        passport: Passport,
        /// The sender's fresh entry.
        entry: PrivateEntry,
        /// Whether the receiver should answer with its own fresh entry.
        respond: bool,
    },
    /// A group's deletion, as its leader signed it: pushed by the leader
    /// and then once by every member that applies it, to the private view
    /// and PCP, and the answer of a node that holds it to any exchange
    /// request for the group.
    Deleted {
        /// The image of the signed tombstone
        /// ([`GroupDescriptor`](crate::ppss::descriptor::GroupDescriptor));
        /// the receiver parses and verifies it.
        tombstone: Vec<u8>,
        /// The exchange request this answers, echoed so that the
        /// requester's tracked send ends; 0 when pushed.
        exchange_id: u64,
    },
}

const TAG_JOIN_REQ: u8 = 1;
const TAG_JOIN_ACK: u8 = 2;
const TAG_EXCHANGE: u8 = 3;
const TAG_APP_DATA: u8 = 4;
const TAG_PCP_REFRESH: u8 = 5;
const TAG_APP_SHORT: u8 = 6;
const TAG_DELETED: u8 = 7;

/// Wire size of the [`PpssMsg::AppShort`] carrying `data` — and so of what
/// an [`PpssMsg::AppData`] image ends in, behind its preamble.
pub fn app_short_len(data: &[u8]) -> usize {
    WireLen::of(|n| PpssMsg::put_app_short(n, &GroupId(0), data))
}

impl WireEncode for PpssMsg {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            PpssMsg::JoinReq { group, accreditation, entry } => {
                w.put_u8(TAG_JOIN_REQ);
                w.put(group);
                w.put_bytes(accreditation);
                w.put(entry);
            }
            PpssMsg::JoinAck { group, passport, key_history, entries } => {
                w.put_u8(TAG_JOIN_ACK);
                w.put(group);
                w.put(passport);
                w.put_seq(key_history);
                w.put_seq(entries);
            }
            PpssMsg::Exchange {
                group,
                passport,
                from_entry,
                entries,
                exchange_id,
                is_response,
                hb,
                election,
                new_key,
                revoked,
            } => {
                w.put_u8(TAG_EXCHANGE);
                w.put(group);
                w.put(passport);
                w.put(from_entry.as_ref());
                w.put_seq(entries);
                w.put_u64(*exchange_id);
                w.put(is_response);
                w.put(hb);
                w.put_opt(election);
                w.put_opt(new_key);
                w.put_seq(revoked);
            }
            PpssMsg::AppData { group, passport, data, reply_entry } => {
                w.put_u8(TAG_APP_DATA);
                w.put(passport);
                w.put_opt(reply_entry);
                PpssMsg::put_app_short(w, group, data);
            }
            PpssMsg::AppShort { group, data } => PpssMsg::put_app_short(w, group, data),
            PpssMsg::PcpRefresh { group, passport, entry, respond } => {
                w.put_u8(TAG_PCP_REFRESH);
                w.put(group);
                w.put(passport);
                w.put(entry);
                w.put(respond);
            }
            PpssMsg::Deleted { tombstone, exchange_id } => {
                w.put_u8(TAG_DELETED);
                w.put_bytes(tombstone);
                w.put_u64(*exchange_id);
            }
        }
    }
}

impl PpssMsg {
    /// The group the message is about; `None` for a
    /// [`PpssMsg::Deleted`], whose group only its signed tombstone names.
    pub fn group(&self) -> Option<GroupId> {
        match self {
            PpssMsg::JoinReq { group, .. }
            | PpssMsg::JoinAck { group, .. }
            | PpssMsg::Exchange { group, .. }
            | PpssMsg::AppData { group, .. }
            | PpssMsg::AppShort { group, .. }
            | PpssMsg::PcpRefresh { group, .. } => Some(*group),
            PpssMsg::Deleted { .. } => None,
        }
    }

    fn put_app_short<W: WireSink>(w: &mut W, group: &GroupId, data: &[u8]) {
        w.put_u8(TAG_APP_SHORT);
        w.put(group);
        w.put_bytes(data);
    }
}

// Not a field list: the `AppData` image ends in an `AppShort` image, which a circuit sends alone.
impl WireDecode for PpssMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            TAG_JOIN_REQ => PpssMsg::JoinReq {
                group: r.take()?,
                accreditation: r.take_bytes()?.to_vec(),
                entry: r.take()?,
            },
            TAG_JOIN_ACK => PpssMsg::JoinAck {
                group: r.take()?,
                passport: r.take()?,
                key_history: r.take_seq()?,
                entries: r.take_seq()?,
            },
            TAG_EXCHANGE => PpssMsg::Exchange {
                group: r.take()?,
                passport: r.take()?,
                from_entry: Box::new(r.take()?),
                entries: r.take_seq()?,
                exchange_id: r.take_u64()?,
                is_response: r.take()?,
                hb: r.take()?,
                election: r.take_opt()?,
                new_key: r.take_opt()?,
                revoked: r.take_seq()?,
            },
            TAG_APP_DATA => {
                let (passport, reply_entry) = (r.take()?, r.take_opt()?);
                if r.take_u8()? != TAG_APP_SHORT {
                    return Err(WireError::new("no message behind the preamble"));
                }
                let (group, data) = (r.take()?, r.take_bytes()?.to_vec());
                PpssMsg::AppData { group, passport, data, reply_entry }
            }
            TAG_APP_SHORT => PpssMsg::AppShort { group: r.take()?, data: r.take_bytes()?.to_vec() },
            TAG_PCP_REFRESH => PpssMsg::PcpRefresh {
                group: r.take()?,
                passport: r.take()?,
                entry: r.take()?,
                respond: r.take()?,
            },
            TAG_DELETED => {
                PpssMsg::Deleted { tombstone: r.take_bytes()?.to_vec(), exchange_id: r.take_u64()? }
            }
            _ => return Err(WireError::new("unknown PPSS message tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;
    use whisper_crypto::rsa::{KeyPair, RsaKeySize};

    fn key() -> PublicKey {
        KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(3))
            .public()
            .clone()
    }

    fn entry(node: u64) -> PrivateEntry {
        PrivateEntry {
            node: NodeId(node),
            age: 1,
            public: false,
            key: key(),
            gateways: vec![GatewayInfo { node: NodeId(100), key: key() }],
        }
    }

    fn round_trip(msg: PpssMsg) {
        let bytes = msg.to_wire();
        assert_eq!(PpssMsg::from_wire(&bytes).unwrap(), msg);
    }

    #[test]
    fn private_entry_round_trip() {
        let e = entry(5);
        assert_eq!(PrivateEntry::from_wire(&e.to_wire()).unwrap(), e);
    }

    #[test]
    fn all_messages_round_trip() {
        let passport = Passport { node: NodeId(1), signature: vec![9; 48] };
        round_trip(PpssMsg::JoinReq {
            group: GroupId(7),
            accreditation: vec![1, 2],
            entry: entry(1),
        });
        round_trip(PpssMsg::JoinAck {
            group: GroupId(7),
            passport: passport.clone(),
            key_history: vec![key(), entry(9).gateways[0].key.clone()],
            entries: vec![entry(2), entry(3)],
        });
        round_trip(PpssMsg::Exchange {
            group: GroupId(7),
            passport: passport.clone(),
            from_entry: Box::new(entry(1)),
            entries: vec![entry(4)],
            exchange_id: 99,
            is_response: true,
            hb: Heartbeat { epoch: 2, seq: 17 },
            election: Some(ElectionBallot { round: 3, node: NodeId(5) }),
            new_key: None,
            revoked: vec![NodeId(3), NodeId(8)],
        });
        let request = PpssMsg::Exchange {
            group: GroupId(7),
            passport: passport.clone(),
            from_entry: Box::new(entry(1)),
            entries: vec![],
            exchange_id: 98,
            is_response: false,
            hb: Heartbeat::default(),
            election: None,
            new_key: None,
            revoked: vec![],
        };
        round_trip(request.clone());
        let mut response = request;
        if let PpssMsg::Exchange { is_response, .. } = &mut response {
            *is_response = true;
        }
        round_trip(response);
        round_trip(PpssMsg::AppData {
            group: GroupId(7),
            passport: passport.clone(),
            data: vec![0; 256],
            reply_entry: Some(entry(1)),
        });
        round_trip(PpssMsg::PcpRefresh {
            group: GroupId(7),
            passport,
            entry: entry(1),
            respond: true,
        });
        round_trip(PpssMsg::AppShort { group: GroupId(7), data: vec![0; 256] });
        round_trip(PpssMsg::Deleted { tombstone: vec![3; 200], exchange_id: 42 });
    }

    /// A long application message is its preamble followed by the image of
    /// the short one: cutting the first off leaves the second, and its
    /// length follows from the data alone.
    #[test]
    fn app_data_ends_in_its_short_form() {
        let passport = Passport { node: NodeId(1), signature: vec![9; 48] };
        for reply_entry in [None, Some(entry(1))] {
            for data in [vec![], vec![7u8; 300]] {
                let long = PpssMsg::AppData {
                    group: GroupId(7),
                    passport: passport.clone(),
                    data: data.clone(),
                    reply_entry: reply_entry.clone(),
                }
                .to_wire();
                let short = PpssMsg::AppShort { group: GroupId(7), data: data.clone() }.to_wire();
                assert_eq!(short.len(), app_short_len(&data));
                assert_eq!(long[long.len() - short.len()..], short[..]);
                // The preamble alone, or with a foreign message behind it,
                // is no message.
                assert!(PpssMsg::from_wire(&long[..long.len() - short.len()]).is_err());
                let mut foreign = long.clone();
                foreign[long.len() - short.len()] = TAG_APP_DATA;
                assert!(PpssMsg::from_wire(&foreign).is_err());
            }
        }
    }

    #[test]
    fn new_key_announcement_verification() {
        let mut rng = StdRng::seed_from_u64(4);
        let leader_identity = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let new_group = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let group_key = new_group.public().clone();
        let ann = NewKeyAnnouncement {
            epoch: 2,
            signature: leader_identity.sign(&NewKeyAnnouncement::message(2, group_key.wire_bytes())),
            group_key,
            signer_key: leader_identity.public().clone(),
        };
        assert_eq!(NewKeyAnnouncement::from_wire(&ann.to_wire()).unwrap(), ann);
        assert_eq!(ann.verify().as_ref(), Some(new_group.public()));
        // Tampered epoch fails.
        let mut bad = ann.clone();
        bad.epoch = 3;
        assert!(bad.verify().is_none());
        // Tampered key fails.
        let mut bad = ann.clone();
        bad.group_key = leader_identity.public().clone();
        assert!(bad.verify().is_none());
        // A key that does not parse is refused with the message.
        let wire = ann.to_wire();
        let at = wire.windows(ann.group_key.modulus_bytes()).position(|w| w == ann.group_key.wire_bytes());
        let mut zero_led = wire.clone();
        zero_led[at.expect("the key's image")] = 0;
        assert!(NewKeyAnnouncement::from_wire(&zero_led).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(PpssMsg::from_wire(&[0xEE]).is_err());
        assert!(PrivateEntry::from_wire(&[1, 2, 3]).is_err());
    }
}
