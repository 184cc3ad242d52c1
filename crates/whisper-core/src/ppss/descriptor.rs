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
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireSink, WireWriter};
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

impl WireEncode for MemberDot {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put(&self.node);
        w.put_u64(self.epoch);
        w.put_u64(self.counter);
    }
}

impl WireDecode for MemberDot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(MemberDot { node: r.take()?, epoch: r.take_u64()?, counter: r.take_u64()? })
    }
}

/// Hash of a group key history (oldest first), pinned into descriptors so
/// members can detect that a descriptor was signed under a history they
/// have not caught up with yet.
pub fn key_history_hash(history: &[PublicKey]) -> [u8; 32] {
    let mut m = Vec::new();
    for k in history {
        let bytes = k.to_bytes();
        m.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        m.extend_from_slice(&bytes);
    }
    Sha256::digest(&m)
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
    /// Serialized group public key the signature verifies under.
    pub signer_key: Vec<u8>,
    /// RSA signature over the descriptor message.
    pub signature: Vec<u8>,
}

fn descriptor_message(d: &GroupDescriptor) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_raw(SIGN_DOMAIN);
    w.put(&d.group);
    w.put_u64(d.epoch);
    w.put_u64(d.seq);
    w.put_raw(&d.key_hash);
    w.put(&d.tombstone);
    w.put_seq(&d.adds);
    w.put_seq(&d.removes);
    w.put_u64(d.born_at);
    w.put_bytes(&d.signer_key);
    w.into_bytes()
}

impl GroupDescriptor {
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
            signer_key: key.public().to_bytes(),
            signature: Vec::new(),
        };
        d.signature = key.sign(&descriptor_message(&d));
        d
    }

    /// Verifies the signature against a key history: the signer key must
    /// be a current-or-past group key (same acceptance rule as passports,
    /// so a tombstone from a leader we have not caught up with via its
    /// `NewKeyAnnouncement` yet still verifies once the key lands).
    pub fn verify(&self, history: &[PublicKey]) -> bool {
        let Some(signer) = PublicKey::from_bytes(&self.signer_key) else {
            return false;
        };
        if !history.contains(&signer) {
            return false;
        }
        signer.verify(&descriptor_message(self), &self.signature).is_ok()
    }
}

impl WireEncode for GroupDescriptor {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put(&self.group);
        w.put_u64(self.epoch);
        w.put_u64(self.seq);
        w.put_raw(&self.key_hash);
        w.put(&self.tombstone);
        w.put_seq(&self.adds);
        w.put_seq(&self.removes);
        w.put_u64(self.born_at);
        w.put_bytes(&self.signer_key);
        w.put_bytes(&self.signature);
    }
}

impl WireDecode for GroupDescriptor {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let group = r.take()?;
        let epoch = r.take_u64()?;
        let seq = r.take_u64()?;
        let mut key_hash = [0u8; 32];
        key_hash.copy_from_slice(r.take_raw(32)?);
        Ok(GroupDescriptor {
            group,
            epoch,
            seq,
            key_hash,
            tombstone: r.take()?,
            adds: r.take_seq()?,
            removes: r.take_seq()?,
            born_at: r.take_u64()?,
            signer_key: r.take_bytes()?.to_vec(),
            signature: r.take_bytes()?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_crypto::rsa::RsaKeySize;
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
