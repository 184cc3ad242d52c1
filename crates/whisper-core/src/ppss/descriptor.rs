//! Signed group descriptors: how a leader deletes its group (the
//! group-lifecycle design of "Pretty Private Group Management" grafted
//! onto the paper's passport/accreditation machinery).
//!
//! The paper's PPSS has no descriptor. A member learns its group's epoch
//! from leader heartbeats and each new key from the signed announcement,
//! both inside WCL-sealed exchanges (§IV-A), and a live group signs
//! nothing else. Deletion alone takes a [`GroupDescriptor`]: a small
//! (~200 byte) RSA-signed tombstone stating the group, the deleter's epoch
//! and a hash of its key history, signed by a leader in
//! `Ppss::delete_group`. It travels inside the group, WCL-sealed like
//! every PPSS message, as a
//! [`PpssMsg::Deleted`](crate::ppss::messages::PpssMsg::Deleted): the
//! leader pushes it to its private view and persistent connection pool,
//! every member that verifies it pushes it on once the same way, and a
//! node that holds it answers any exchange request for the group with it,
//! which reaches the members the push missed at their next exchange. No
//! relay ever sees it, so no outsider learns a group's id, live or
//! deleted.
//!
//! Members hold no membership list. A passport proves admission on its
//! own (paper §III), so all a member keeps besides it is the group's
//! *revoked set*: the nodes a leader has revoked, grow-only, on
//! `GroupState` (`ppss/mod.rs`). Every PPSS exchange, request and response
//! alike, carries the sender's whole set inside the WCL-sealed,
//! passport-checked message, and the receiver folds it in by union. A
//! descriptor's `adds`, `removes` and `seq` are left empty or zero by
//! leaders and ignored by members; the fields stay because the
//! benchmark's signing probe fills them.
//!
//! ## Merge rules
//!
//! Two replicas that have seen any interleaving of tombstones and
//! exchanges converge on what they saw, because every component is a
//! join-semilattice:
//!
//! * **Revocations**: a grow-only set of node ids, merged by union. A
//!   node that enters it never leaves it: its passport stops admitting it
//!   at every member that holds the set, and its leader refuses its
//!   `JoinReq` from then on. Every exchange ships the whole set, so
//!   replicas converge at every group size, within the rounds a rumour
//!   takes to reach every member by push-pull. The cost is 8 bytes per
//!   revocation in every exchange and in the journal record of the group.
//! * **Deletion**: a member that verifies a tombstone destroys the
//!   group's state and journals the id in its sticky deleted set, which
//!   blocks joining, re-creating and re-admitting the group forever. Any
//!   verified descriptor that is not a tombstone changes nothing. A node
//!   keeps the first tombstone it verified; co-leaders' tombstones are
//!   all deletions, so which one it keeps changes nothing. Resurrection is
//!   impossible by construction, not by timeout.

use crate::ppss::group::GroupId;
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_crypto::sha256::Sha256;
use whisper_net::wire::{WireEncode, WireSink, WireWriter};
use whisper_net::NodeId;

/// Domain separator for descriptor signatures (nothing else in the stack
/// signs bytes with this prefix).
const SIGN_DOMAIN: &[u8] = b"whisper-descr-v1";

/// One membership-change event: `node` was admitted (or that admission
/// was revoked) under `epoch`, with a per-leader `counter` making the dot
/// unique. Only a descriptor's `adds` and `removes` still hold dots, and
/// leaders leave both empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberDot {
    /// The member the dot is about.
    pub node: NodeId,
    /// Leadership epoch that produced the dot.
    pub epoch: u64,
    /// Per-epoch admission counter (unique per leader decision).
    pub counter: u64,
}

whisper_net::wire_format!(MemberDot { node, epoch, counter });

/// Hash of a group key history (oldest first), pinned into descriptors so
/// members can detect that a descriptor was signed under a history they
/// have not caught up with yet.
pub fn key_history_hash(history: &[PublicKey]) -> [u8; 32] {
    let mut m = WireWriter::new();
    for k in history {
        m.put(k);
    }
    Sha256::digest(&m.into_bytes())
}

/// An RSA-signed statement about a group; leaders sign only deletion
/// tombstones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupDescriptor {
    /// The group.
    pub group: GroupId,
    /// Leadership epoch the signer held when publishing.
    pub epoch: u64,
    /// Publish sequence: zero as leaders sign, ignored by members.
    pub seq: u64,
    /// [`key_history_hash`] of the signer's key history.
    pub key_hash: [u8; 32],
    /// Deletion tombstone: the only kind a member acts on.
    pub tombstone: bool,
    /// Admission dots: empty as leaders sign descriptors, and ignored by
    /// members (revocations travel in PPSS exchanges only).
    pub adds: Vec<MemberDot>,
    /// Revocation dots: empty and ignored, as `adds`.
    pub removes: Vec<MemberDot>,
    /// Simulated publish time in microseconds (deletion-propagation
    /// measurement; not covered by any correctness rule).
    pub born_at: u64,
    /// The group public key the signature verifies under, parsed with
    /// the descriptor like every key in the stack.
    pub signer_key: PublicKey,
    /// RSA signature over the domain `whisper-descr-v1` and every field
    /// above, as the image writes them.
    pub signature: Vec<u8>,
}

whisper_net::wire_format!(GroupDescriptor {
    group, epoch, seq, key_hash, tombstone, adds: seq, removes: seq, born_at, signer_key, signature
});

impl GroupDescriptor {
    /// What the signature covers: [`SIGN_DOMAIN`], then the descriptor's
    /// image up to its signature.
    fn signed_body(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_raw(SIGN_DOMAIN);
        w.put(self);
        let mut body = w.into_bytes();
        body.truncate(body.len() - self.signature.encoded_len());
        body
    }

    /// Builds and signs a descriptor with the group private key (leader
    /// operation).
    #[allow(clippy::too_many_arguments)]
    pub fn sign(
        key: &KeyPair,
        group: GroupId,
        epoch: u64,
        seq: u64,
        history: &[PublicKey],
        tombstone: bool,
        adds: Vec<MemberDot>,
        removes: Vec<MemberDot>,
        born_at: u64,
    ) -> GroupDescriptor {
        let mut d = GroupDescriptor {
            group,
            epoch,
            seq,
            key_hash: key_history_hash(history),
            tombstone,
            adds,
            removes,
            born_at,
            signer_key: key.public().clone(),
            signature: Vec::new(),
        };
        d.signature = key.sign(&d.signed_body());
        d
    }

    /// Verifies the signature against a key history: the signer key must
    /// be a current-or-past group key (same acceptance rule as passports,
    /// so a tombstone from a leader we have not caught up with via its
    /// `NewKeyAnnouncement` yet still verifies once the key lands).
    pub fn verify(&self, history: &[PublicKey]) -> bool {
        history.contains(&self.signer_key) && self.signer_key.verify(&self.signed_body(), &self.signature).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_crypto::rsa::RsaKeySize;
    use whisper_net::wire::WireDecode;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn key(seed: u64) -> KeyPair {
        KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(seed))
    }

    fn dot(n: u64, epoch: u64, counter: u64) -> MemberDot {
        MemberDot { node: NodeId(n), epoch, counter }
    }

    fn descriptor(gk: &KeyPair, epoch: u64, seq: u64, tombstone: bool) -> GroupDescriptor {
        GroupDescriptor::sign(
            gk,
            GroupId::from_name("crdt"),
            epoch,
            seq,
            &[gk.public().clone()],
            tombstone,
            vec![dot(9, epoch, 1)],
            vec![],
            12_345,
        )
    }

    #[test]
    fn wire_round_trip() {
        let gk = key(1);
        let d = descriptor(&gk, 3, 7, false);
        let parsed = GroupDescriptor::from_wire(&d.to_wire()).unwrap();
        assert_eq!(parsed, d);
        assert!(parsed.verify(&[gk.public().clone()]));
    }

    /// A tombstone with eight dots, byte for byte: its image, and the
    /// body its signature covers — the domain, then every field but the
    /// signature, as the image writes them.
    #[test]
    fn image_and_signed_body_are_pinned() {
        let gk = key(1);
        let history = [gk.public().clone()];
        let group = GroupId(0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF);
        let adds = (1..=6).map(|n| dot(n, 3, 10 + n)).collect();
        let removes = vec![dot(7, 2, 20), dot(8, 2, 21)];
        let d = GroupDescriptor::sign(&gk, group, 3, 7, &history, true, adds, removes, 0x0102_0304_0506_0708);
        let be = |v: u64| v.to_be_bytes();
        let dots = |dots: &[(u64, u64, u64)]| -> Vec<u8> {
            let mut out = vec![dots.len() as u8];
            for &(node, epoch, counter) in dots {
                out.extend([be(node), be(epoch), be(counter)].concat());
            }
            out
        };
        let body = [
            &[0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF][..],
            &be(3),
            &be(7),
            &key_history_hash(&history),
            &[1],
            &dots(&[(1, 3, 11), (2, 3, 12), (3, 3, 13), (4, 3, 14), (5, 3, 15), (6, 3, 16)]),
            &dots(&[(7, 2, 20), (8, 2, 21)]),
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[48],
            gk.public().wire_bytes(),
        ]
        .concat();
        assert_eq!(d.signature.len(), 48);
        assert_eq!(d.to_wire(), [&body[..], &[48], &d.signature].concat());
        let signed = [&b"whisper-descr-v1"[..], &body].concat();
        assert!(gk.public().verify(&signed, &d.signature).is_ok(), "the signature covers another body");
    }

    #[test]
    fn stays_small_on_the_wire() {
        let gk = key(1);
        let mut d = descriptor(&gk, 3, 7, false);
        d.adds = vec![dot(1, 3, 1), dot(2, 3, 2)];
        d.removes = vec![dot(3, 2, 9), dot(4, 1, 4)];
        d.signature = gk.sign(b"resize"); // size only; not re-verified here
        let len = d.to_wire().len();
        assert!(len < 400, "descriptor must stay small, got {len} bytes");
    }

    #[test]
    fn signature_covers_every_field() {
        let gk = key(1);
        let base = descriptor(&gk, 3, 7, false);
        let history = [gk.public().clone()];
        assert!(base.verify(&history));
        for mutate in [
            |d: &mut GroupDescriptor| d.epoch += 1,
            |d: &mut GroupDescriptor| d.seq += 1,
            |d: &mut GroupDescriptor| d.tombstone = true,
            |d: &mut GroupDescriptor| d.key_hash[0] ^= 1,
            |d: &mut GroupDescriptor| d.adds.push(dot(66, 3, 2)),
            |d: &mut GroupDescriptor| d.removes.push(dot(9, 3, 1)),
            |d: &mut GroupDescriptor| d.born_at += 1,
        ] {
            let mut forged = base.clone();
            mutate(&mut forged);
            assert!(!forged.verify(&history), "mutation must break the signature");
        }
    }

    #[test]
    fn verification_needs_the_signer_in_history() {
        let gk = key(1);
        let other = key(2);
        let d = descriptor(&gk, 1, 1, false);
        assert!(!d.verify(&[other.public().clone()]), "unknown signer fails closed");
        assert!(
            d.verify(&[other.public().clone(), gk.public().clone()]),
            "past keys in the history stay acceptable"
        );
    }

    #[test]
    fn key_history_hash_changes_with_rotation() {
        let a = key(1);
        let b = key(2);
        let h1 = key_history_hash(&[a.public().clone()]);
        let h2 = key_history_hash(&[a.public().clone(), b.public().clone()]);
        assert_ne!(h1, h2);
        assert_eq!(h1, key_history_hash(&[a.public().clone()]));
    }
}
