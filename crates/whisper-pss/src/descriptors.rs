//! Relay-level dissemination of group deletions.
//!
//! A leader that deletes its group signs a tombstone descriptor (see
//! `whisper-core`'s `ppss::descriptor`) and hands it to this store as an
//! **opaque blob**. Blobs piggyback on the PSS gossip that runs anyway:
//! every [`crate::messages::NylonMsg::GossipReq`] / `GossipResp` carries
//! up to [`crate::nylon::DESCRIPTOR_GOSSIP`] of them. At this layer nobody
//! verifies signatures — non-members relay tombstones they cannot check
//! (only members hold the key history), which gives a deletion
//! network-wide reach, members that were offline or partitioned included.
//! A live group publishes nothing here: its epoch and keys travel only
//! inside the WCL-sealed PPSS exchanges, so a relay learns the id of a
//! group only once the group is deleted.
//!
//! Convergence is last-writer-wins per id on the bytes: co-leaders that
//! delete the same group at once sign different tombstones, and every
//! store keeps the greater. Which blobs piggyback on a given exchange is
//! chosen by one deterministic cursor rotating over the sorted id space,
//! so every stored blob keeps being re-offered round-robin — the
//! anti-entropy repair that refills a node whose store a crash-restart
//! wiped (it is volatile by design). A full store refuses new ids.

use std::collections::BTreeMap;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};

/// An opaque descriptor blob as it travels in gossip messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DescriptorBlob {
    /// Identifier (the group id; opaque at this layer).
    pub id: u128,
    /// Opaque payload (a serialized, signed `GroupDescriptor`).
    pub bytes: Vec<u8>,
}

impl WireEncode for DescriptorBlob {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64((self.id >> 64) as u64);
        w.put_u64(self.id as u64);
        w.put_bytes(&self.bytes);
    }
    fn encoded_len(&self) -> usize {
        16 + whisper_net::wire::bytes_len(&self.bytes)
    }
}

impl DescriptorBlob {
    /// Reads one blob as `(id, bytes)`, the bytes a view of the reader's
    /// input: what [`DescriptorBlob::decode`] accepts, uncopied.
    pub(crate) fn take_view<'a>(r: &mut WireReader<'a>) -> Result<(u128, &'a [u8]), WireError> {
        let hi = r.take_u64()?;
        let lo = r.take_u64()?;
        Ok((((hi as u128) << 64) | lo as u128, r.take_bytes()?))
    }
}

impl WireDecode for DescriptorBlob {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (id, bytes) = DescriptorBlob::take_view(r)?;
        Ok(DescriptorBlob { id, bytes: bytes.to_vec() })
    }
}

/// A bounded store of the greatest blob per id.
#[derive(Clone, Debug)]
pub struct DescriptorStore {
    entries: BTreeMap<u128, Vec<u8>>,
    /// Rotating anti-entropy cursor: index into the sorted id space of
    /// the next blob to offer.
    cursor: usize,
    cap: usize,
}

impl DescriptorStore {
    /// An empty store holding at most `cap` blobs.
    pub fn new(cap: usize) -> DescriptorStore {
        DescriptorStore { entries: BTreeMap::new(), cursor: 0, cap: cap.max(1) }
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
    pub fn get(&self, id: u128) -> Option<&[u8]> {
        self.entries.get(&id).map(Vec::as_slice)
    }

    /// Sorted ids currently held.
    pub fn ids(&self) -> Vec<u128> {
        self.entries.keys().copied().collect()
    }

    /// Offers a blob (locally published or received in gossip). Returns
    /// `true` when it is news — a new id while there is room, or greater
    /// bytes than held for its id — and was stored.
    pub fn offer(&mut self, id: u128, bytes: &[u8]) -> bool {
        let room = self.entries.len() < self.cap;
        match self.entries.get_mut(&id) {
            Some(held) if held.as_slice() >= bytes => false,
            Some(held) => {
                *held = bytes.to_vec();
                true
            }
            None if !room => false,
            None => {
                self.entries.insert(id, bytes.to_vec());
                true
            }
        }
    }

    /// The next `n` blobs to piggyback, advancing the rotating cursor so
    /// successive exchanges walk the whole store (deterministic
    /// anti-entropy; no randomness involved).
    pub fn next_batch(&mut self, n: usize) -> Vec<DescriptorBlob> {
        let len = self.entries.len();
        if len == 0 {
            return Vec::new();
        }
        let take = n.min(len);
        // The store never shrinks but by `clear`, so the cursor stays
        // below `len`.
        let out = self
            .entries
            .iter()
            .cycle()
            .skip(self.cursor)
            .take(take)
            .map(|(&id, bytes)| DescriptorBlob { id, bytes: bytes.clone() })
            .collect();
        self.cursor = (self.cursor + take) % len;
        out
    }

    /// Drops everything (crash-restart: the store is volatile; gossip
    /// repairs it).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trip() {
        let b = DescriptorBlob { id: u128::MAX - 7, bytes: vec![1, 2, 3] };
        assert_eq!(DescriptorBlob::from_wire(&b.to_wire()).unwrap(), b);
    }

    #[test]
    fn offer_keeps_the_greater_bytes() {
        let mut s = DescriptorStore::new(8);
        assert!(s.offer(1, b"bbb"));
        assert!(!s.offer(1, b"aaa"), "lesser bytes are not news");
        assert!(!s.offer(1, b"bbb"), "identical blob is not news");
        assert!(s.offer(1, b"ccc"));
        assert_eq!(s.get(1), Some(b"ccc".as_slice()));
    }

    #[test]
    fn a_full_store_refuses_new_ids() {
        let mut s = DescriptorStore::new(2);
        assert!(s.offer(1, b"a"));
        assert!(s.offer(2, b"b"));
        assert!(!s.offer(3, b"z"), "no room, nothing displaced");
        assert!(s.offer(1, b"c"), "a held id still converges");
        assert_eq!(s.ids(), vec![1, 2]);
    }

    #[test]
    fn one_rotation_visits_every_id() {
        let mut s = DescriptorStore::new(8);
        for id in [10u128, 20, 30] {
            s.offer(id, b"x");
        }
        let seen: Vec<u128> = (0..3).flat_map(|_| s.next_batch(2)).map(|b| b.id).collect();
        assert_eq!(seen, vec![10, 20, 30, 10, 20, 30]);
    }
}
