//! Private group identities, accreditations, passports and invitations
//! (paper §IV-A).
//!
//! A group has a public/private key pair: every member knows the public
//! key (and the history of past keys after leader changes), while only
//! leaders hold the private key. A **passport** is the member's node
//! identifier signed with the group's private key; it accompanies all
//! intra-group traffic, and messages with invalid passports are silently
//! ignored — which is what keeps memberships invisible to non-members. An
//! **accreditation** is a temporary token a prospective member presents
//! to a leader when joining.

use crate::ppss::messages::PrivateEntry;
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_crypto::sha256::Sha256;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireSink};
use whisper_net::NodeId;

/// Identifier of a private group (derived from its name; the name itself
/// never travels on the wire).
///
/// 128 bits of a domain-separated SHA-256 — wide enough that two distinct
/// group names colliding on one id requires ~2^64 *deliberately chosen*
/// names (birthday bound), versus ~2^32 for the 64-bit id this replaced.
/// The domain prefix keeps the digest distinct from every other use of
/// `Sha256(name)` in the stack, so no other subsystem's hash of the same
/// string can alias a group id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u128);

impl std::fmt::Debug for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{:032x}", self.0)
    }
}

impl GroupId {
    /// Derives the identifier from a human-readable group name.
    pub fn from_name(name: &str) -> GroupId {
        let mut m = b"whisper-group-v1".to_vec();
        m.extend_from_slice(name.as_bytes());
        let digest = Sha256::digest(&m);
        GroupId(u128::from_be_bytes(digest[..16].try_into().expect("16 bytes")))
    }
}

impl WireEncode for GroupId {
    fn encode<W: WireSink>(&self, w: &mut W) {
        // The codec has no native u128; split into two big-endian u64s.
        w.put_u64((self.0 >> 64) as u64);
        w.put_u64(self.0 as u64);
    }
}

impl WireDecode for GroupId {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let hi = r.take_u64()?;
        let lo = r.take_u64()?;
        Ok(GroupId(((hi as u128) << 64) | lo as u128))
    }
}

fn passport_message(group: GroupId, node: NodeId) -> Vec<u8> {
    let mut m = b"whisper-passport".to_vec();
    m.extend_from_slice(&group.0.to_be_bytes());
    m.extend_from_slice(&node.to_bytes());
    m
}

fn accreditation_message(group: GroupId, node: NodeId) -> Vec<u8> {
    let mut m = b"whisper-accredit".to_vec();
    m.extend_from_slice(&group.0.to_be_bytes());
    m.extend_from_slice(&node.to_bytes());
    m
}

/// A member's proof of membership: its node id signed with the group's
/// private key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Passport {
    /// The member.
    pub node: NodeId,
    /// Signature over the passport message by a group private key.
    pub signature: Vec<u8>,
}

impl Passport {
    /// Issues a passport for `node` (leader operation).
    pub fn issue(group_key: &KeyPair, group: GroupId, node: NodeId) -> Passport {
        Passport { node, signature: group_key.sign(&passport_message(group, node)) }
    }

    /// Verifies against the group key history (any current or past group
    /// key makes the passport valid, per §IV-A).
    pub fn verify(&self, group: GroupId, history: &[PublicKey]) -> bool {
        let msg = passport_message(group, self.node);
        history.iter().any(|k| k.verify(&msg, &self.signature).is_ok())
    }
}

impl WireEncode for Passport {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put(&self.node);
        w.put_bytes(&self.signature);
    }
}

impl WireDecode for Passport {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Passport { node: r.take()?, signature: r.take_bytes()?.to_vec() })
    }
}

/// Passports one holder bothers to remember having verified.
pub const PASSPORT_MEMO_CAP: usize = 64;

/// The passports a group member has already verified, so that the one a
/// peer attaches to every message costs an RSA verification once instead
/// of once per message.
///
/// One memo belongs to one group state and is only ever asked about that
/// group's id and key history. The history only grows, and
/// [`Passport::verify`] accepts a signature that verifies under *any* key
/// of it, so a `(node, signature)` pair that verified once verifies
/// forever: a hit is exactly as valid as a re-verification. Anything else
/// — another node, or one flipped bit of the signature — misses and takes
/// the full check. The memo dies with the group state (deletion, or the
/// restart that rebuilds the state from the journal), holds one entry per
/// node and at most [`PASSPORT_MEMO_CAP`] of them, the oldest making room.
#[derive(Debug, Default)]
pub struct PassportMemo {
    verified: Vec<Passport>,
    /// Slot the next newcomer overwrites once the memo is full.
    oldest: usize,
}

impl PassportMemo {
    /// [`Passport::verify`], remembering successes.
    pub fn verify(&mut self, passport: &Passport, group: GroupId, history: &[PublicKey]) -> bool {
        let slot = self.verified.iter().position(|p| p.node == passport.node);
        if slot.is_some_and(|i| self.verified[i].signature == passport.signature) {
            return true;
        }
        if !passport.verify(group, history) {
            return false;
        }
        match slot {
            // A second valid passport of a known node (re-issued under a
            // newer group key) replaces the first.
            Some(i) => self.verified[i] = passport.clone(),
            None if self.verified.len() < PASSPORT_MEMO_CAP => self.verified.push(passport.clone()),
            None => {
                self.verified[self.oldest] = passport.clone();
                self.oldest = (self.oldest + 1) % PASSPORT_MEMO_CAP;
            }
        }
        true
    }

    /// Passports currently remembered.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

/// Issues a joining accreditation for `node` (leader operation).
pub fn issue_accreditation(group_key: &KeyPair, group: GroupId, node: NodeId) -> Vec<u8> {
    group_key.sign(&accreditation_message(group, node))
}

/// Verifies an accreditation against the group key history.
pub fn verify_accreditation(
    accreditation: &[u8],
    group: GroupId,
    node: NodeId,
    history: &[PublicKey],
) -> bool {
    let msg = accreditation_message(group, node);
    history.iter().any(|k| k.verify(&msg, accreditation).is_ok())
}

/// An invitation to join a private group, delivered out of band (the
/// paper mentions web interfaces, instant messaging, email, or another
/// application on the system-wide PSS).
#[derive(Clone, Debug, PartialEq)]
pub struct Invitation {
    /// The group to join.
    pub group: GroupId,
    /// The group's current public key.
    pub group_key: PublicKey,
    /// Signed accreditation for the invited node.
    pub accreditation: Vec<u8>,
    /// A member to contact for the join handshake (typically a leader).
    pub entry_point: PrivateEntry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;
    use whisper_crypto::rsa::RsaKeySize;

    fn group_key() -> KeyPair {
        KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn group_id_is_stable_and_distinct() {
        let a = GroupId::from_name("alpha");
        assert_eq!(a, GroupId::from_name("alpha"));
        assert_ne!(a, GroupId::from_name("beta"));
    }

    #[test]
    fn group_id_is_domain_separated_from_bare_hashes() {
        // The id must not equal the truncated bare SHA-256 of the name —
        // otherwise any subsystem hashing the same string produces ids
        // that alias groups.
        let bare = Sha256::digest(b"alpha");
        let bare_id = u128::from_be_bytes(bare[..16].try_into().unwrap());
        assert_ne!(GroupId::from_name("alpha").0, bare_id);
    }

    #[test]
    fn group_id_uses_full_128_bits() {
        // Both halves of the id must vary with the name; a regression to
        // a 64-bit hash (upper half constant) would reopen the collision
        // exposure this widening fixed.
        let ids: Vec<GroupId> = ["a", "b", "c", "d"].iter().map(|n| GroupId::from_name(n)).collect();
        let hi: std::collections::BTreeSet<u64> = ids.iter().map(|g| (g.0 >> 64) as u64).collect();
        let lo: std::collections::BTreeSet<u64> = ids.iter().map(|g| g.0 as u64).collect();
        assert_eq!(hi.len(), ids.len(), "upper 64 bits must vary");
        assert_eq!(lo.len(), ids.len(), "lower 64 bits must vary");
    }

    #[test]
    fn group_id_wire_round_trip() {
        let g = GroupId::from_name("round-trip");
        assert_eq!(GroupId::from_wire(&g.to_wire()).unwrap(), g);
        assert_eq!(g.to_wire().len(), 16);
    }

    #[test]
    fn passport_round_trip_and_verification() {
        let gk = group_key();
        let g = GroupId::from_name("chat");
        let p = Passport::issue(&gk, g, NodeId(7));
        assert!(p.verify(g, &[gk.public().clone()]));
        // Wire round trip preserves validity.
        let parsed = Passport::from_wire(&p.to_wire()).unwrap();
        assert!(parsed.verify(g, &[gk.public().clone()]));
    }

    #[test]
    fn passport_invalid_for_other_group_or_node() {
        let gk = group_key();
        let g = GroupId::from_name("chat");
        let p = Passport::issue(&gk, g, NodeId(7));
        assert!(!p.verify(GroupId::from_name("other"), &[gk.public().clone()]));
        let forged = Passport { node: NodeId(8), signature: p.signature.clone() };
        assert!(!forged.verify(g, &[gk.public().clone()]));
    }

    #[test]
    fn passport_valid_under_key_history() {
        let old = group_key();
        let new = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(2));
        let g = GroupId::from_name("chat");
        let p = Passport::issue(&old, g, NodeId(7));
        let history = vec![old.public().clone(), new.public().clone()];
        assert!(p.verify(g, &history), "old passports stay valid");
        let p_new = Passport::issue(&new, g, NodeId(7));
        assert!(p_new.verify(g, &history));
        assert!(!p.verify(g, &[new.public().clone()]), "without history: invalid");
    }

    #[test]
    fn memo_answers_like_verify_and_stays_bounded() {
        let gk = group_key();
        let g = GroupId::from_name("chat");
        let history = [gk.public().clone()];
        let mut memo = PassportMemo::default();
        let p = Passport::issue(&gk, g, NodeId(7));
        assert!(memo.verify(&p, g, &history));
        assert_eq!(memo.len(), 1);
        // A hit needs no key at all: the pair is what is remembered.
        assert!(memo.verify(&p, g, &[]), "memoised pair");
        // One flipped bit of a memoised node's signature is a miss, and
        // the full check rejects it; the good passport keeps working.
        let mut forged = p.clone();
        forged.signature[3] ^= 1;
        assert!(!memo.verify(&forged, g, &history));
        assert!(!memo.verify(&Passport { node: NodeId(8), ..p.clone() }, g, &history));
        assert_eq!(memo.len(), 1, "failures are not remembered");
        assert!(memo.verify(&p, g, &history));
        // Re-issued under a rotated key: the newer passport takes the
        // node's slot, and the older one still verifies the slow way.
        let rotated = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(2));
        let grown = [gk.public().clone(), rotated.public().clone()];
        let p2 = Passport::issue(&rotated, g, NodeId(7));
        assert!(memo.verify(&p2, g, &grown));
        assert_eq!(memo.len(), 1, "one entry per node");
        assert!(memo.verify(&p, g, &grown));
        // Bounded: many members, constant memory, nobody locked out.
        for n in 100..100 + 2 * PASSPORT_MEMO_CAP as u64 {
            assert!(memo.verify(&Passport::issue(&gk, g, NodeId(n)), g, &history));
            assert!(memo.len() <= PASSPORT_MEMO_CAP);
        }
        assert_eq!(memo.len(), PASSPORT_MEMO_CAP);
        assert!(memo.verify(&Passport::issue(&gk, g, NodeId(100)), g, &history), "evicted, re-verified");
    }

    #[test]
    fn accreditation_verification() {
        let gk = group_key();
        let g = GroupId::from_name("chat");
        let acc = issue_accreditation(&gk, g, NodeId(9));
        assert!(verify_accreditation(&acc, g, NodeId(9), &[gk.public().clone()]));
        assert!(!verify_accreditation(&acc, g, NodeId(10), &[gk.public().clone()]));
        assert!(!verify_accreditation(b"junk", g, NodeId(9), &[gk.public().clone()]));
    }

    #[test]
    fn credentials_survive_multiple_key_rotations() {
        // Three leadership generations: credentials issued under any of
        // them must verify against the accumulated history — a member
        // that joined in epoch 0 stays a member through every election.
        let g = GroupId::from_name("chat");
        let generations: Vec<KeyPair> = (0..3)
            .map(|i| KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(40 + i)))
            .collect();
        let history: Vec<_> = generations.iter().map(|k| k.public().clone()).collect();
        for (i, gk) in generations.iter().enumerate() {
            let p = Passport::issue(gk, g, NodeId(i as u64));
            assert!(p.verify(g, &history), "generation {i} passport verifies");
            let acc = issue_accreditation(gk, g, NodeId(i as u64));
            assert!(
                verify_accreditation(&acc, g, NodeId(i as u64), &history),
                "generation {i} accreditation verifies"
            );
            // Prefixes of the history that predate the signer reject it:
            // a credential cannot be older than its own key.
            assert!(
                !p.verify(g, &history[..i]),
                "generation {i} passport must not verify under earlier keys only"
            );
        }
    }

    #[test]
    fn revoked_keys_fail_closed() {
        // A compromised generation gets struck from the history; every
        // credential it issued dies with it, while the surviving
        // generations' credentials stay valid.
        let g = GroupId::from_name("chat");
        let honest = group_key();
        let compromised = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(66));
        let full = vec![honest.public().clone(), compromised.public().clone()];
        let revoked = vec![honest.public().clone()];

        let p_bad = Passport::issue(&compromised, g, NodeId(7));
        let acc_bad = issue_accreditation(&compromised, g, NodeId(7));
        assert!(p_bad.verify(g, &full), "valid before revocation");
        assert!(!p_bad.verify(g, &revoked), "passport dies with its key");
        assert!(
            !verify_accreditation(&acc_bad, g, NodeId(7), &revoked),
            "accreditation dies with its key"
        );
        let p_good = Passport::issue(&honest, g, NodeId(8));
        assert!(p_good.verify(g, &revoked), "honest credentials survive");
        assert!(!p_bad.verify(g, &[]), "empty history rejects everything");
    }

    #[test]
    fn passport_and_accreditation_domains_are_separate() {
        // An accreditation must not double as a passport.
        let gk = group_key();
        let g = GroupId::from_name("chat");
        let acc = issue_accreditation(&gk, g, NodeId(9));
        let fake = Passport { node: NodeId(9), signature: acc };
        assert!(!fake.verify(g, &[gk.public().clone()]));
    }
}
