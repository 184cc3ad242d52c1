//! Relay-level group-descriptor dissemination.
//!
//! Group descriptors (see `whisper-core`'s `ppss::descriptor`) travel the
//! network as **opaque versioned blobs** piggybacked on the PSS gossip
//! that runs anyway: every [`crate::messages::NylonMsg::GossipReq`] /
//! `GossipResp` carries up to [`crate::nylon::DESCRIPTOR_GOSSIP`] blobs. At
//! this layer nobody verifies signatures — non-members relay descriptors
//! they cannot check (only members hold the key history), which is
//! exactly what gives descriptors network-wide reach without revealing
//! who is a member: a descriptor states a group's epoch, key-history hash
//! and deletion flag, and names no member (membership travels only inside
//! the WCL-sealed PPSS exchanges).
//!
//! Convergence is plain last-writer-wins per id on `(version, bytes)`:
//! the publisher derives `version` from `(epoch, seq)` and pins deletion
//! tombstones at `u64::MAX`, so a tombstone can never be displaced by any
//! stale descriptor. Which blobs piggyback on a given exchange is chosen
//! by a deterministic rotating cursor over the sorted id space — every
//! stored blob keeps being re-offered round-robin, which is the
//! anti-entropy repair: a node that lost its store (crash-restart wipes
//! it; it is volatile by design) is refilled by its neighbours within a
//! few cycles, and members re-publish their latest verified descriptor
//! each PPSS cycle as the durable root of the repair.

use std::collections::BTreeMap;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};

/// An opaque versioned descriptor blob as it travels in gossip messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DescriptorBlob {
    /// Identifier (the group id; opaque at this layer).
    pub id: u128,
    /// LWW version (`u64::MAX` = tombstone, never displaced).
    pub version: u64,
    /// Opaque payload (a serialized, signed `GroupDescriptor`).
    pub bytes: Vec<u8>,
}

impl WireEncode for DescriptorBlob {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64((self.id >> 64) as u64);
        w.put_u64(self.id as u64);
        w.put_u64(self.version);
        w.put_bytes(&self.bytes);
    }
    fn encoded_len(&self) -> usize {
        24 + whisper_net::wire::bytes_len(&self.bytes)
    }
}

impl DescriptorBlob {
    /// Reads one blob as `(id, version, bytes)`, the bytes a view of the
    /// reader's input: what [`DescriptorBlob::decode`] accepts, uncopied.
    pub(crate) fn take_view<'a>(r: &mut WireReader<'a>) -> Result<(u128, u64, &'a [u8]), WireError> {
        let hi = r.take_u64()?;
        let lo = r.take_u64()?;
        Ok((((hi as u128) << 64) | lo as u128, r.take_u64()?, r.take_bytes()?))
    }
}

impl WireDecode for DescriptorBlob {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (id, version, bytes) = DescriptorBlob::take_view(r)?;
        Ok(DescriptorBlob { id, version, bytes: bytes.to_vec() })
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Stored {
    version: u64,
    bytes: Vec<u8>,
}

/// A bounded store of the freshest descriptor blob per id.
#[derive(Clone, Debug)]
pub struct DescriptorStore {
    entries: BTreeMap<u128, Stored>,
    /// Rotating anti-entropy cursor: index into the sorted id space of
    /// the next non-tombstone blob to offer.
    cursor: usize,
    /// Separate rotating cursor over the tombstones (see
    /// [`DescriptorStore::next_batch`]).
    tomb_cursor: usize,
    cap: usize,
}

impl DescriptorStore {
    /// An empty store holding at most `cap` blobs.
    pub fn new(cap: usize) -> DescriptorStore {
        DescriptorStore { entries: BTreeMap::new(), cursor: 0, tomb_cursor: 0, cap: cap.max(1) }
    }

    /// Number of blobs held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored blob for `id`.
    pub fn get(&self, id: u128) -> Option<(u64, &[u8])> {
        self.entries.get(&id).map(|s| (s.version, s.bytes.as_slice()))
    }

    /// Sorted ids currently held.
    pub fn ids(&self) -> Vec<u128> {
        self.entries.keys().copied().collect()
    }

    /// Offers a blob (locally published or received in gossip). Returns
    /// `true` when it is news — strictly fresher than what was held under
    /// LWW on `(version, bytes)` — and was stored.
    pub fn offer(&mut self, id: u128, version: u64, bytes: &[u8]) -> bool {
        if let Some(held) = self.entries.get(&id) {
            if (held.version, held.bytes.as_slice()) >= (version, bytes) {
                return false;
            }
            self.entries
                .insert(id, Stored { version, bytes: bytes.to_vec() });
            return true;
        }
        if self.entries.len() >= self.cap {
            // Deterministic eviction: displace the smallest
            // (version, id) — but never a tombstone, and never for a
            // blob that is itself staler than everything held.
            let Some((&victim_id, victim)) = self
                .entries
                .iter()
                .min_by_key(|(cid, s)| (s.version, **cid))
            else {
                return false;
            };
            if (victim.version, victim_id) >= (version, id) || victim.version == u64::MAX {
                return false;
            }
            self.entries.remove(&victim_id);
        }
        self.entries
            .insert(id, Stored { version, bytes: bytes.to_vec() });
        true
    }

    /// The next `n` blobs to piggyback, advancing the rotating cursors so
    /// successive exchanges walk the whole store (deterministic
    /// anti-entropy; no randomness involved).
    ///
    /// Deletion tombstones always ride **first**: a tombstone's epidemic
    /// spread is a security property (the resurrection window only closes
    /// once every member has heard), so the rotation dilution that is fine
    /// for ordinary descriptors — each blob shipping once every
    /// `len / n` exchanges — must not slow tombstones down. With more
    /// tombstones than slots they round-robin among themselves; remaining
    /// slots go to the ordinary rotation.
    pub fn next_batch(&mut self, n: usize) -> Vec<DescriptorBlob> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n.min(self.entries.len()));
        let tombs: Vec<u128> = self
            .entries
            .iter()
            .filter(|(_, s)| s.version == u64::MAX)
            .map(|(id, _)| *id)
            .collect();
        if !tombs.is_empty() {
            let take = n.min(tombs.len());
            for k in 0..take {
                let id = tombs[(self.tomb_cursor + k) % tombs.len()];
                let s = &self.entries[&id];
                out.push(DescriptorBlob { id, version: s.version, bytes: s.bytes.clone() });
            }
            self.tomb_cursor = (self.tomb_cursor + take) % tombs.len();
        }
        let rest = n - out.len();
        if rest > 0 {
            let ids: Vec<u128> = self
                .entries
                .iter()
                .filter(|(_, s)| s.version != u64::MAX)
                .map(|(id, _)| *id)
                .collect();
            if !ids.is_empty() {
                let take = rest.min(ids.len());
                for k in 0..take {
                    let id = ids[(self.cursor + k) % ids.len()];
                    let s = &self.entries[&id];
                    out.push(DescriptorBlob { id, version: s.version, bytes: s.bytes.clone() });
                }
                self.cursor = (self.cursor + take) % ids.len();
            }
        }
        out
    }

    /// Drops everything (crash-restart: the store is volatile; gossip and
    /// member republish repair it).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cursor = 0;
        self.tomb_cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trip() {
        let b = DescriptorBlob { id: u128::MAX - 7, version: 42, bytes: vec![1, 2, 3] };
        assert_eq!(DescriptorBlob::from_wire(&b.to_wire()).unwrap(), b);
    }

    #[test]
    fn offer_is_lww() {
        let mut s = DescriptorStore::new(8);
        assert!(s.offer(1, 5, b"v5"));
        assert!(!s.offer(1, 4, b"older"), "stale version rejected");
        assert!(!s.offer(1, 5, b"v5"), "identical blob is not news");
        assert!(s.offer(1, 6, b"v6"));
        assert_eq!(s.get(1), Some((6, b"v6".as_slice())));
    }

    #[test]
    fn equal_version_ties_break_on_bytes() {
        let mut s = DescriptorStore::new(8);
        assert!(s.offer(1, 5, b"aaa"));
        assert!(s.offer(1, 5, b"bbb"), "lexicographically greater bytes win");
        assert!(!s.offer(1, 5, b"aaa"));
    }

    #[test]
    fn tombstones_can_never_be_displaced() {
        let mut s = DescriptorStore::new(2);
        assert!(s.offer(1, u64::MAX, b"tomb"));
        assert!(!s.offer(1, 999, b"stale"));
        // Eviction pressure never selects the tombstone.
        assert!(s.offer(2, 10, b"b"));
        assert!(s.offer(3, 11, b"c"), "evicts id 2, not the tombstone");
        assert_eq!(s.get(1), Some((u64::MAX, b"tomb".as_slice())));
        assert!(s.get(2).is_none());
    }

    #[test]
    fn capped_eviction_is_deterministic() {
        let mut s = DescriptorStore::new(2);
        assert!(s.offer(5, 3, b"a"));
        assert!(s.offer(6, 7, b"b"));
        // Staler than everything held: rejected outright.
        assert!(!s.offer(7, 1, b"c"));
        // Fresher: displaces the smallest (version, id) = id 5.
        assert!(s.offer(8, 9, b"d"));
        assert_eq!(s.ids(), vec![6, 8]);
    }

    #[test]
    fn next_batch_rotates_over_the_whole_store() {
        let mut s = DescriptorStore::new(8);
        for id in [10u128, 20, 30] {
            s.offer(id, 1, b"x");
        }
        let seen: Vec<u128> = (0..3)
            .flat_map(|_| s.next_batch(2))
            .map(|b| b.id)
            .collect();
        assert_eq!(seen.len(), 6);
        for id in [10u128, 20, 30] {
            assert!(
                seen.iter().filter(|&&x| x == id).count() == 2,
                "cursor must visit every blob evenly, got {seen:?}"
            );
        }
    }

    #[test]
    fn tombstones_ride_every_batch() {
        let mut s = DescriptorStore::new(16);
        for id in 0..8u128 {
            s.offer(id, 1, b"live");
        }
        s.offer(99, u64::MAX, b"tomb");
        // The tombstone is in EVERY batch; the remaining slot still
        // rotates over all ordinary blobs.
        let mut ordinary = Vec::new();
        for _ in 0..8 {
            let batch = s.next_batch(2);
            assert!(
                batch.iter().any(|b| b.id == 99 && b.version == u64::MAX),
                "tombstone missing from a batch"
            );
            ordinary.extend(batch.into_iter().filter(|b| b.id != 99).map(|b| b.id));
        }
        for id in 0..8u128 {
            assert!(ordinary.contains(&id), "rotation starved blob {id}");
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = DescriptorStore::new(8);
        s.offer(1, 1, b"x");
        s.next_batch(1);
        s.clear();
        assert!(s.is_empty());
        assert!(s.next_batch(2).is_empty());
    }
}
