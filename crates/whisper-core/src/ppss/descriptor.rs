//! Signed group descriptors and the CRDT merge that keeps replicas
//! convergent across partitions (the group-lifecycle design of
//! "Pretty Private Group Management" grafted onto the paper's
//! passport/accreditation machinery).
//!
//! A [`GroupDescriptor`] is a small (~200–300 byte) RSA-signed summary of
//! a group's durable state: leadership epoch, a hash of the key history,
//! a bounded membership delta, and a deletion tombstone flag. Leaders
//! sign and publish one whenever durable state changes; descriptors then
//! travel as opaque blobs piggybacked on Nylon gossip exchanges (see
//! `whisper_pss::descriptors`), so propagation needs no extra messages
//! and reaches non-members (who relay but cannot verify — only members
//! hold the key history a signature checks against).
//!
//! ## Merge rules
//!
//! Two replicas that have seen any interleaving of descriptors converge
//! because every component is a join-semilattice:
//!
//! * **Descriptor state** (epoch, key hash): epoch-dominated
//!   last-writer-wins — ordered by `(tombstone, epoch, seq)`, with a
//!   deterministic byte tiebreak for the co-leader case where two valid
//!   descriptors share an `(epoch, seq)`.
//! * **Membership**: an OR-set with tombstoned dots. Every join is an
//!   *add dot* `(node, epoch, counter)` unique per admission; a removal
//!   tombstones the specific dots it observed. Merge is dot-set union,
//!   and a node is a member iff it has an add dot that no replica has
//!   tombstoned. Re-admission after removal works naturally (a fresh dot
//!   is not covered by old remove dots).
//! * **Deletion**: the tombstone flag is sticky — it dominates every
//!   epoch forever, so once any replica has seen a verified deletion, no
//!   sequence of stale descriptors, rejoining nodes or partition healing
//!   can resurrect the group. Resurrection is impossible by construction,
//!   not by timeout.

use crate::ppss::group::GroupId;
use std::collections::BTreeSet;
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_crypto::sha256::Sha256;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_net::NodeId;

/// Domain separator for descriptor signatures (nothing else in the stack
/// signs bytes with this prefix).
const SIGN_DOMAIN: &[u8] = b"whisper-descr-v1";

/// Maximum add + remove dots shipped per descriptor. Descriptors are a
/// *delta* of the most recent membership changes, re-gossiped every
/// anti-entropy round; the accumulated OR-set lives at the members.
pub const DELTA_DOTS: usize = 4;

/// One membership-change event: `node` was admitted (or that admission
/// was revoked) under `epoch`, with a per-leader `counter` making the dot
/// unique.
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
    fn encode(&self, w: &mut WireWriter) {
        w.put(&self.node);
        w.put_u64(self.epoch);
        w.put_u64(self.counter);
    }

    fn encoded_len(&self) -> usize {
        24
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

/// An RSA-signed summary of a group's durable state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupDescriptor {
    /// The group.
    pub group: GroupId,
    /// Leadership epoch the signer held when publishing.
    pub epoch: u64,
    /// Publish sequence within the epoch (LWW tiebreak).
    pub seq: u64,
    /// [`key_history_hash`] of the signer's key history.
    pub key_hash: [u8; 32],
    /// Deletion tombstone: sticky, dominates every epoch forever.
    pub tombstone: bool,
    /// Recent admission dots (bounded delta, see [`DELTA_DOTS`]).
    pub adds: Vec<MemberDot>,
    /// Recent revocation dots (bounded delta).
    pub removes: Vec<MemberDot>,
    /// Simulated publish time in microseconds (propagation-latency
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
    /// so descriptors from a leader we have not caught up with via its
    /// `NewKeyAnnouncement` yet still verify once the key lands).
    pub fn verify(&self, history: &[PublicKey]) -> bool {
        let Some(signer) = PublicKey::from_bytes(&self.signer_key) else {
            return false;
        };
        if !history.contains(&signer) {
            return false;
        }
        signer.verify(&descriptor_message(self), &self.signature).is_ok()
    }

    /// Relay-level LWW version for the unverified blob store: tombstones
    /// pin the maximum (they can never be displaced), everything else
    /// orders by epoch then publish sequence.
    pub fn version(&self) -> u64 {
        if self.tombstone {
            u64::MAX
        } else {
            (self.epoch << 24) | (self.seq & 0xFF_FFFF)
        }
    }

    /// The epoch-dominated LWW order (strict): tombstones dominate
    /// everything, then epoch, then sequence, then — for the co-leader
    /// tie — the lexicographically greater signed bytes, so every replica
    /// picks the same winner without coordination.
    pub fn dominates(&self, other: &GroupDescriptor) -> bool {
        let lhs = (self.tombstone, self.epoch, self.seq);
        let rhs = (other.tombstone, other.epoch, other.seq);
        if lhs != rhs {
            return lhs > rhs;
        }
        (&self.signer_key, &self.signature) > (&other.signer_key, &other.signature)
    }
}

impl WireEncode for GroupDescriptor {
    fn encode(&self, w: &mut WireWriter) {
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

    fn encoded_len(&self) -> usize {
        use whisper_net::wire::{bytes_len, seq_len};
        16 + 8 + 8 + 32 + 1
            + seq_len(&self.adds)
            + seq_len(&self.removes)
            + 8
            + bytes_len(&self.signer_key)
            + bytes_len(&self.signature)
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

/// The accumulated membership OR-set of one group, grown from descriptor
/// deltas. Plain dot-set union on merge; deterministic iteration (sorted
/// sets) everywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Membership {
    adds: BTreeSet<MemberDot>,
    removes: BTreeSet<MemberDot>,
}

impl Membership {
    /// An empty membership.
    pub fn new() -> Membership {
        Membership::default()
    }

    /// Rebuilds a membership from journaled dot sets.
    pub fn from_dots(adds: Vec<MemberDot>, removes: Vec<MemberDot>) -> Membership {
        Membership {
            adds: adds.into_iter().collect(),
            removes: removes.into_iter().collect(),
        }
    }

    /// Records an admission dot (leader operation).
    pub fn add(&mut self, dot: MemberDot) {
        self.adds.insert(dot);
    }

    /// Tombstones every known add dot of `node` (leader operation).
    /// Returns the dots revoked — these go into the next descriptor delta.
    pub fn remove(&mut self, node: NodeId) -> Vec<MemberDot> {
        let dots: Vec<MemberDot> = self
            .adds
            .iter()
            .filter(|d| d.node == node && !self.removes.contains(d))
            .copied()
            .collect();
        self.removes.extend(dots.iter().copied());
        dots
    }

    /// Folds a descriptor's delta in. Returns `true` when anything new
    /// was learned.
    pub fn apply(&mut self, desc: &GroupDescriptor) -> bool {
        let mut changed = false;
        for d in &desc.adds {
            changed |= self.adds.insert(*d);
        }
        for d in &desc.removes {
            changed |= self.removes.insert(*d);
        }
        changed
    }

    /// Full-state merge with another replica. Returns `true` on change.
    pub fn merge(&mut self, other: &Membership) -> bool {
        let before = (self.adds.len(), self.removes.len());
        self.adds.extend(other.adds.iter().copied());
        self.removes.extend(other.removes.iter().copied());
        before != (self.adds.len(), self.removes.len())
    }

    /// Whether `node` has a live (un-tombstoned) admission dot.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.adds
            .iter()
            .any(|d| d.node == node && !self.removes.contains(d))
    }

    /// Whether `node` was admitted once and every admission this replica
    /// knows of has been tombstoned since. (A node this replica has not
    /// heard about at all is neither a member nor revoked.)
    pub fn is_revoked(&self, node: NodeId) -> bool {
        self.removes.iter().any(|d| d.node == node) && !self.is_member(node)
    }

    /// Current members, sorted (deterministic).
    pub fn members(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .adds
            .iter()
            .filter(|d| !self.removes.contains(d))
            .map(|d| d.node)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All known dots, for journaling.
    pub fn dots(&self) -> (Vec<MemberDot>, Vec<MemberDot>) {
        (self.adds.iter().copied().collect(), self.removes.iter().copied().collect())
    }

    /// The most recent dots (highest `(epoch, counter)` first), bounded,
    /// for the next descriptor delta.
    pub fn recent_dots(&self, cap: usize) -> (Vec<MemberDot>, Vec<MemberDot>) {
        fn top(set: &BTreeSet<MemberDot>, cap: usize) -> Vec<MemberDot> {
            let mut v: Vec<MemberDot> = set.iter().copied().collect();
            v.sort_unstable_by_key(|d| std::cmp::Reverse((d.epoch, d.counter, d.node)));
            v.truncate(cap);
            v
        }
        (top(&self.adds, cap), top(&self.removes, cap))
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
    fn lww_order_is_epoch_dominated() {
        let gk = key(1);
        let old = descriptor(&gk, 2, 9, false);
        let new = descriptor(&gk, 3, 1, false);
        assert!(new.dominates(&old), "higher epoch wins regardless of seq");
        assert!(!old.dominates(&new));
        let later_seq = descriptor(&gk, 3, 2, false);
        assert!(later_seq.dominates(&new));
    }

    #[test]
    fn equal_epoch_seq_ties_break_deterministically() {
        // Two co-leaders (the paper allows several) publish at the same
        // (epoch, seq): both replicas must pick the same winner.
        let a = descriptor(&key(1), 3, 1, false);
        let b = descriptor(&key(2), 3, 1, false);
        assert_ne!(a, b);
        assert!(a.dominates(&b) ^ b.dominates(&a), "exactly one wins");
    }

    #[test]
    fn tombstone_dominates_every_epoch_forever() {
        let gk = key(1);
        let tomb = descriptor(&gk, 1, 0, true);
        let futuristic = descriptor(&gk, 1000, 999, false);
        assert!(tomb.dominates(&futuristic), "deleted is deleted");
        assert!(!futuristic.dominates(&tomb));
        assert_eq!(tomb.version(), u64::MAX, "relay LWW can never displace it");
        assert!(futuristic.version() < u64::MAX);
    }

    #[test]
    fn orset_add_remove_readd() {
        let mut m = Membership::new();
        m.add(dot(5, 1, 1));
        assert!(m.is_member(NodeId(5)));
        let revoked = m.remove(NodeId(5));
        assert_eq!(revoked, vec![dot(5, 1, 1)]);
        assert!(!m.is_member(NodeId(5)));
        // Re-admission under a fresh dot is not covered by the old
        // remove.
        m.add(dot(5, 2, 1));
        assert!(m.is_member(NodeId(5)));
        assert_eq!(m.members(), vec![NodeId(5)]);
    }

    #[test]
    fn merge_is_commutative_idempotent_and_convergent() {
        // Three replicas see different interleavings of the same deltas.
        let deltas = [
            (vec![dot(1, 1, 1), dot(2, 1, 2)], vec![]),
            (vec![dot(3, 1, 3)], vec![dot(2, 1, 2)]),
            (vec![dot(2, 2, 1)], vec![dot(1, 1, 1)]),
        ];
        let gk = key(1);
        let descs: Vec<GroupDescriptor> = deltas
            .iter()
            .map(|(a, r)| {
                GroupDescriptor::sign(
                    &gk,
                    GroupId::from_name("crdt"),
                    1,
                    1,
                    &[gk.public().clone()],
                    false,
                    a.clone(),
                    r.clone(),
                    0,
                )
            })
            .collect();
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 2, 0]];
        let replicas: Vec<Membership> = orders
            .iter()
            .map(|order| {
                let mut m = Membership::new();
                for &i in order {
                    m.apply(&descs[i]);
                    m.apply(&descs[i]); // idempotent
                }
                m
            })
            .collect();
        assert_eq!(replicas[0], replicas[1]);
        assert_eq!(replicas[1], replicas[2]);
        assert_eq!(replicas[0].members(), vec![NodeId(2), NodeId(3)]);
        // Full-state merge agrees with delta application.
        let mut a = replicas[0].clone();
        assert!(!a.merge(&replicas[1]), "nothing new between converged replicas");
    }

    #[test]
    fn recent_dots_are_bounded_and_newest_first() {
        let mut m = Membership::new();
        for i in 0..10 {
            m.add(dot(i, 1, i));
        }
        let (adds, removes) = m.recent_dots(DELTA_DOTS);
        assert_eq!(adds.len(), DELTA_DOTS);
        assert!(removes.is_empty());
        assert_eq!(adds[0].counter, 9, "newest dot first");
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
