//! Signed group descriptors and the CRDT merge that keeps replicas
//! convergent across partitions (the group-lifecycle design of
//! "Pretty Private Group Management" grafted onto the paper's
//! passport/accreditation machinery).
//!
//! A [`GroupDescriptor`] is a small (~200–300 byte) RSA-signed summary of
//! what a group is, not who is in it: leadership epoch, a hash of the key
//! history and a deletion tombstone flag. A leader signs one when it holds
//! none at its current epoch (at the group's birth, and after an election)
//! and when it deletes the group; descriptors then travel as opaque blobs
//! piggybacked on Nylon gossip exchanges (see `whisper_pss::descriptors`),
//! so propagation needs no extra messages and reaches non-members, who
//! relay what they can neither verify (only members hold the key history
//! a signature checks against) nor read a member from.
//!
//! Membership travels one way only: as [`Window`]s of dots inside the
//! WCL-sealed, passport-checked PPSS exchanges (`PpssMsg::Exchange` and
//! its `PpssMsg::Dots` follow-up). A descriptor's `adds` and `removes`
//! are always empty as leaders sign them, and members ignore any dots
//! one carries.
//!
//! ## Merge rules
//!
//! Two replicas that have seen any interleaving of descriptors and
//! windows converge on what they saw, because every component is a
//! join-semilattice:
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
//!   is not covered by old remove dots). Windows carry only the newest
//!   [`EXCHANGE_DOTS`] of each kind, so a group larger than that does not
//!   converge on old admissions (see there).
//! * **Deletion**: the tombstone flag is sticky — it dominates every
//!   epoch forever, so once any replica has seen a verified deletion, no
//!   sequence of stale descriptors, rejoining nodes or partition healing
//!   can resurrect the group. Resurrection is impossible by construction,
//!   not by timeout.

use crate::ppss::group::GroupId;
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_crypto::sha256::Sha256;
use whisper_net::wire::{seq_len, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_net::NodeId;

/// Domain separator for descriptor signatures (nothing else in the stack
/// signs bytes with this prefix).
const SIGN_DOMAIN: &[u8] = b"whisper-descr-v1";

/// Domain separator for [`Window::digest`] (nothing else in the stack
/// hashes bytes with this prefix).
const WINDOW_DOMAIN: &[u8] = b"whisper-window-v1";

/// Admission and removal dots in a membership's [`Window`]: what a PPSS
/// exchange ships to a partner whose window differs. Descriptors name no
/// member, so these pairwise merges are the only way a dot reaches a
/// member other than the leader that minted it: a new admission, an old
/// one for a late joiner, a revocation — but only the newest
/// `EXCHANGE_DOTS` of each kind: nobody ever re-ships the 65th-newest
/// dot, so in a group of more than this many members the OR-sets do
/// **not** converge on old admissions (only the leader holds them all;
/// EXPERIMENTS.md@70f897e § "A third of onion_cold's bytes were membership the
/// partner already had"). A revocation is among the newest removes for
/// as long as fewer than this many follow it.
pub const EXCHANGE_DOTS: usize = 64;

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
    /// Admission dots: empty as leaders sign descriptors, and ignored by
    /// members (membership travels in exchange [`Window`]s only). The
    /// field stays because the benchmark's signing probe fills it.
    pub adds: Vec<MemberDot>,
    /// Revocation dots: empty and ignored, as `adds`.
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

/// Digest of a [`Window`]: what an exchange says of its sender's window
/// instead of the window itself.
pub type WindowDigest = [u8; 16];

/// The newest [`EXCHANGE_DOTS`] add dots and the newest `EXCHANGE_DOTS`
/// remove dots of a membership, newest (highest `(epoch, counter)`) first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Admission dots.
    pub adds: Vec<MemberDot>,
    /// Revocation dots.
    pub removes: Vec<MemberDot>,
}

/// The order of a window: newest first.
fn newest_first(d: &MemberDot) -> Reverse<(u64, u64, NodeId)> {
    Reverse((d.epoch, d.counter, d.node))
}

/// The newest [`EXCHANGE_DOTS`] of `dots`, newest first, each once.
fn newest(dots: impl Iterator<Item = MemberDot>) -> Vec<MemberDot> {
    let mut v: Vec<MemberDot> = dots.collect();
    v.sort_unstable_by_key(newest_first);
    v.dedup();
    v.truncate(EXCHANGE_DOTS);
    v.shrink_to_fit(); // a membership keeps its window for as long as it holds still
    v
}

impl Window {
    /// The window of `other`'s holder once it has merged this one: the
    /// newest dots of a union are among the newest of either part, so this
    /// is what that holder would ship after the merge — computed here
    /// without its whole set.
    pub fn joined(&self, other: &Window) -> Window {
        Window {
            adds: newest(self.adds.iter().chain(&other.adds).copied()),
            removes: newest(self.removes.iter().chain(&other.removes).copied()),
        }
    }

    /// The dots of this window that `other` does not hold: all that merging
    /// this one into `other`'s holder can teach it.
    pub fn minus(&self, other: &Window) -> Window {
        let missing = |mine: &[MemberDot], theirs: &[MemberDot]| -> Vec<MemberDot> {
            let held = |d: &MemberDot| theirs.binary_search_by_key(&newest_first(d), newest_first).is_ok();
            mine.iter().filter(|d| !held(d)).copied().collect()
        };
        Window {
            adds: missing(&self.adds, &other.adds),
            removes: missing(&self.removes, &other.removes),
        }
    }

    /// Whether the window holds no dot at all.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }

    /// The domain-separated SHA-256 of the window's wire image, truncated
    /// to 16 bytes: equal digests are equal windows.
    pub fn digest(&self) -> WindowDigest {
        let mut h = Sha256::new();
        h.update(WINDOW_DOMAIN);
        h.update(&self.to_wire());
        h.finalize()[..16].try_into().expect("16 of 32 bytes")
    }
}

impl WireEncode for Window {
    fn encode(&self, w: &mut WireWriter) {
        w.put_seq(&self.adds);
        w.put_seq(&self.removes);
    }

    fn encoded_len(&self) -> usize {
        seq_len(&self.adds) + seq_len(&self.removes)
    }
}

impl WireDecode for Window {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let window = Window { adds: r.take_seq()?, removes: r.take_seq()? };
        if window.adds.len().max(window.removes.len()) > EXCHANGE_DOTS {
            return Err(WireError::new("window wider than EXCHANGE_DOTS"));
        }
        Ok(window)
    }
}

/// The accumulated membership OR-set of one group: the leader's own
/// admissions and revocations, and the windows of its holder's exchanges.
/// Plain dot-set union on merge; deterministic iteration (sorted sets)
/// everywhere.
#[derive(Clone, Debug, Default)]
pub struct Membership {
    adds: BTreeSet<MemberDot>,
    removes: BTreeSet<MemberDot>,
    /// The [`Window`] of the two sets and its digest, computed on first
    /// use after a change and shared with whoever still needs the window
    /// as it was when they read it.
    window: OnceCell<(Arc<Window>, WindowDigest)>,
}

impl PartialEq for Membership {
    fn eq(&self, other: &Membership) -> bool {
        (&self.adds, &self.removes) == (&other.adds, &other.removes)
    }
}

impl Eq for Membership {}

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
            window: OnceCell::new(),
        }
    }

    /// Records an admission dot (leader operation).
    pub fn add(&mut self, dot: MemberDot) {
        if self.adds.insert(dot) {
            self.window.take();
        }
    }

    /// Tombstones every known add dot of `node` (leader operation).
    /// Returns the dots revoked; they head the window, which carries them
    /// to the members over the leader's next exchanges.
    pub fn remove(&mut self, node: NodeId) -> Vec<MemberDot> {
        let dots: Vec<MemberDot> = self
            .adds
            .iter()
            .filter(|d| d.node == node && !self.removes.contains(d))
            .copied()
            .collect();
        if !dots.is_empty() {
            self.removes.extend(dots.iter().copied());
            self.window.take();
        }
        dots
    }

    /// Folds a partner's window in. Returns `true` when anything new was
    /// learned.
    pub fn merge(&mut self, window: &Window) -> bool {
        let mut changed = false;
        for d in &window.adds {
            changed |= self.adds.insert(*d);
        }
        for d in &window.removes {
            changed |= self.removes.insert(*d);
        }
        if changed {
            self.window.take();
        }
        changed
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

    /// The newest dots, as an exchange ships them: a handle on the cached
    /// window, which a later change replaces rather than alters.
    pub fn window(&self) -> &Arc<Window> {
        &self.cached().0
    }

    /// [`Window::digest`] of [`Membership::window`], cached with it.
    pub fn window_digest(&self) -> WindowDigest {
        self.cached().1
    }

    /// The window an exchange response ships to a requester that stated
    /// `theirs`: this one when it differs, nothing when the two are equal
    /// and merging either into the other could teach nothing.
    pub fn window_unless(&self, theirs: WindowDigest) -> Option<Arc<Window>> {
        (self.window_digest() != theirs).then(|| self.window().clone())
    }

    fn cached(&self) -> &(Arc<Window>, WindowDigest) {
        self.window.get_or_init(|| {
            let window = Window {
                adds: newest(self.adds.iter().copied()),
                removes: newest(self.removes.iter().copied()),
            };
            let digest = window.digest();
            (Arc::new(window), digest)
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
        // Three replicas see different interleavings of the same windows.
        let windows = [
            Window { adds: vec![dot(1, 1, 1), dot(2, 1, 2)], removes: vec![] },
            Window { adds: vec![dot(3, 1, 3)], removes: vec![dot(2, 1, 2)] },
            Window { adds: vec![dot(2, 2, 1)], removes: vec![dot(1, 1, 1)] },
        ];
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 2, 0]];
        let replicas: Vec<Membership> = orders
            .iter()
            .map(|order| {
                let mut m = Membership::new();
                for &i in order {
                    m.merge(&windows[i]);
                    assert!(!m.merge(&windows[i]), "idempotent");
                }
                m
            })
            .collect();
        assert_eq!(replicas[0], replicas[1]);
        assert_eq!(replicas[1], replicas[2]);
        assert_eq!(replicas[0].members(), vec![NodeId(2), NodeId(3)]);
        let mut a = replicas[0].clone();
        assert!(!a.merge(replicas[1].window()), "nothing new between converged replicas");
    }

    #[test]
    fn windows_are_bounded_and_newest_first() {
        let mut m = Membership::new();
        for i in 0..100 {
            m.add(dot(i, 1, i));
        }
        let window = m.window().clone();
        assert!(window.removes.is_empty());
        assert_eq!(window.adds.len(), EXCHANGE_DOTS);
        assert_eq!(window.adds[0].counter, 99, "newest dot first");
        assert_eq!(window.adds[EXCHANGE_DOTS - 1].counter, 100 - EXCHANGE_DOTS as u64);
    }

    /// The cached window and digest follow every change — and only a
    /// change — and a window handed out earlier stays what it was.
    #[test]
    fn the_cached_window_follows_the_sets() {
        let mut m = Membership::new();
        let empty = m.window_digest();
        m.add(dot(1, 1, 1));
        let one = m.window().clone();
        assert_ne!(m.window_digest(), empty);
        assert_eq!(m.window_digest(), one.digest());
        m.add(dot(1, 1, 1));
        assert!(Arc::ptr_eq(&one, m.window()), "nothing new, nothing recomputed");
        m.remove(NodeId(1));
        assert_eq!(one.removes, vec![], "the handed-out window is unchanged");
        assert_eq!(m.window().removes, vec![dot(1, 1, 1)]);
        assert_eq!(m.window_digest(), m.window().digest());
        assert!(!m.merge(&one), "a subset folds to nothing");
        let mut other = Membership::new();
        assert!(other.merge(m.window()));
        assert_eq!(other, m, "equal sets, whatever either has cached");
        assert_eq!(other.window_digest(), m.window_digest());
    }

    /// The per-exchange contract: over random pairs of replicas — 0 to 200
    /// admissions under up to three epochs, some revoked, each side holding
    /// a random part of them, windows equal and unequal — one exchange
    /// under the digest rules (request states its digest; the response
    /// ships its window only when that differs; the requester folds what
    /// the responder would have shipped after merging the requester's, and
    /// follows up with what the responder's window lacks) leaves both sides
    /// with exactly the sets the always-ship rules of PR 9 left them with.
    #[test]
    fn one_exchange_folds_what_shipping_both_windows_did() {
        use std::cell::Cell;
        use whisper_rand::check::Gen;
        use whisper_rand::Rng;
        let (equal, differ, followed) = (Cell::new(0), Cell::new(0), Cell::new(0));
        whisper_rand::check::check(400, "one_exchange_folds_what_shipping_both_windows_did", |g| {
            let epochs = g.gen_range(1..=3u64);
            let minted: Vec<MemberDot> = (0..g.gen_range(0..=200u64))
                .map(|i| dot(g.gen_range(0..120), g.gen_range(0..epochs), i))
                .collect();
            let revoked: Vec<MemberDot> = minted.iter().filter(|_| g.gen_bool(0.2)).copied().collect();
            let pick = |g: &mut Gen, dots: &[MemberDot], share: f64| -> Vec<MemberDot> {
                dots.iter().filter(|_| g.gen_bool(share)).copied().collect()
            };
            let part = |g: &mut Gen| {
                let share = g.gen_range(0.0..1.0);
                let adds = pick(g, &minted, share);
                Membership::from_dots(adds, pick(g, &revoked, share))
            };
            let requester = part(g);
            let responder = match g.gen_range(0..3u8) {
                // Equal windows: the same replica, or one that also holds
                // dots too old for either window.
                0 => requester.clone(),
                1 => {
                    let mut older = requester.clone();
                    let floor = older.window().adds.last().copied();
                    let old = minted.iter().filter(|d| floor.is_some_and(|f| newest_first(d) > newest_first(&f)));
                    older.merge(&Window { adds: old.copied().collect(), removes: vec![] });
                    older
                }
                _ => part(g),
            };

            // PR 9: both windows ship; the responder merges first.
            let (mut a_then, mut b_then) = (requester.clone(), responder.clone());
            b_then.merge(a_then.window());
            let answer = b_then.window().clone();
            a_then.merge(&answer);

            // Now: the digest, the window when it differs, the follow-up.
            let (mut a, mut b) = (requester, responder);
            let ours = a.window().clone();
            let bump = |n: &Cell<u32>| n.set(n.get() + 1);
            if let Some(theirs) = b.window_unless(a.window_digest()) {
                bump(&differ);
                a.merge(&theirs.joined(&ours));
                let missing = ours.minus(&theirs);
                assert!(Window::from_wire(&missing.to_wire()).is_ok());
                if !missing.is_empty() {
                    bump(&followed);
                    b.merge(&missing);
                }
            } else {
                bump(&equal);
            }
            assert_eq!(a, a_then, "the requester's set");
            assert_eq!(b, b_then, "the responder's set");
            assert_eq!(a.window_digest(), b.window_digest(), "the windows agree after it");
        });
        let (equal, differ, followed) = (equal.get(), differ.get(), followed.get());
        assert!(equal > 50 && differ > 50 && followed > 20, "{equal} / {differ} / {followed}");
    }

    /// A window is at most `EXCHANGE_DOTS` wide on the wire as in memory;
    /// the decoder refuses a wider one.
    #[test]
    fn windows_round_trip_and_wider_ones_are_refused() {
        let mut m = Membership::new();
        for i in 0..70 {
            m.add(dot(i, 2, i));
        }
        m.remove(NodeId(3));
        let window = m.window();
        assert_eq!(Window::from_wire(&window.to_wire()).unwrap(), **window);
        let wide = Window { adds: (0..65).map(|i| dot(i, 1, i)).collect(), removes: vec![] };
        assert!(Window::from_wire(&wide.to_wire()).is_err());
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
