//! The connection backlog (CB) of paper §III-A.
//!
//! A FIFO of the nodes most recently contacted through a *successful
//! gossip exchange* (bidirectional by construction, so a NAT-resilient
//! path exists both ways). The WCL draws the first onion hop `S → A` from
//! the source's CB and the next-to-last hop `B` from the destination's Π
//! P-node entries. The CB must therefore always contain at least Π
//! P-nodes; maintenance of that invariant is driven by
//! [`ConnectionBacklog::missing_publics`].

use std::collections::VecDeque;
use whisper_crypto::rsa::PublicKey;
use whisper_net::NodeId;

/// One backlog entry: a recently contacted peer whose public key is known
/// (learned through the key sampling service).
#[derive(Clone, Debug, PartialEq)]
pub struct CbEntry {
    /// The peer.
    pub node: NodeId,
    /// Whether the peer is a P-node.
    pub public: bool,
    /// The peer's public key, if key sampling is enabled.
    pub key: Option<PublicKey>,
}

/// The FIFO connection backlog (capacity 2 × c in the paper).
#[derive(Clone, Debug)]
pub struct ConnectionBacklog {
    entries: VecDeque<CbEntry>,
    capacity: usize,
}

impl ConnectionBacklog {
    /// Creates an empty backlog with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CB capacity must be positive");
        ConnectionBacklog { entries: VecDeque::with_capacity(capacity), capacity }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the backlog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries from freshest to oldest.
    pub fn iter(&self) -> impl Iterator<Item = &CbEntry> {
        self.entries.iter()
    }

    /// Whether `node` is present.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// The entry for `node`, if present.
    pub fn get(&self, node: NodeId) -> Option<&CbEntry> {
        self.entries.iter().find(|e| e.node == node)
    }

    /// Number of P-node entries.
    pub fn p_count(&self) -> usize {
        self.entries.iter().filter(|e| e.public).count()
    }

    /// The P-node entries, freshest first.
    pub fn publics(&self) -> impl Iterator<Item = &CbEntry> {
        self.entries.iter().filter(|e| e.public)
    }

    /// Inserts `entry` at the head (re-inserting an existing node moves it
    /// to the head and refreshes its key). Evicts from the tail beyond
    /// capacity, but never evicts a P-node while at most `pi` P-nodes
    /// remain — the tail-most N-node is evicted instead (paper: the CB
    /// must retain Π P-nodes for WCL path construction).
    pub fn insert(&mut self, entry: CbEntry, pi: usize) {
        self.entries.retain(|e| e.node != entry.node);
        self.entries.push_front(entry);
        while self.entries.len() > self.capacity {
            // Find the eviction victim from the tail: the oldest entry,
            // unless evicting it would leave fewer than Π P-nodes.
            let p_count = self.p_count();
            let victim = self
                .entries
                .iter()
                .rposition(|e| !e.public || p_count > pi)
                .unwrap_or(self.entries.len() - 1);
            self.entries.remove(victim);
        }
    }

    /// How many more P-nodes are needed to satisfy Π.
    pub fn missing_publics(&self, pi: usize) -> usize {
        pi.saturating_sub(self.p_count())
    }

    /// Updates the stored key for `node` if present.
    pub fn set_key(&mut self, node: NodeId, key: PublicKey) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == node) {
            e.key = Some(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: u64, public: bool) -> CbEntry {
        CbEntry { node: NodeId(node), public, key: None }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut cb = ConnectionBacklog::new(3);
        for i in 0..5 {
            cb.insert(entry(i, false), 0);
        }
        assert_eq!(cb.len(), 3);
        let order: Vec<u64> = cb.iter().map(|e| e.node.0).collect();
        assert_eq!(order, vec![4, 3, 2], "freshest first, oldest evicted");
    }

    #[test]
    fn reinsert_moves_to_head() {
        let mut cb = ConnectionBacklog::new(3);
        cb.insert(entry(1, false), 0);
        cb.insert(entry(2, false), 0);
        cb.insert(entry(1, false), 0);
        let order: Vec<u64> = cb.iter().map(|e| e.node.0).collect();
        assert_eq!(order, vec![1, 2]);
        assert_eq!(cb.len(), 2);
    }

    #[test]
    fn p_nodes_protected_from_eviction() {
        let mut cb = ConnectionBacklog::new(3);
        cb.insert(entry(100, true), 1);
        cb.insert(entry(1, false), 1);
        cb.insert(entry(2, false), 1);
        cb.insert(entry(3, false), 1); // would evict P-node 100 at tail
        assert!(cb.contains(NodeId(100)), "single P-node must survive");
        assert_eq!(cb.len(), 3);
        assert!(!cb.contains(NodeId(1)), "oldest N-node evicted instead");
    }

    #[test]
    fn excess_p_nodes_evictable() {
        let mut cb = ConnectionBacklog::new(2);
        cb.insert(entry(100, true), 1);
        cb.insert(entry(101, true), 1);
        cb.insert(entry(102, true), 1);
        assert_eq!(cb.len(), 2);
        assert!(!cb.contains(NodeId(100)), "beyond Π, oldest P evicted normally");
    }

    #[test]
    fn missing_publics() {
        let mut cb = ConnectionBacklog::new(10);
        assert_eq!(cb.missing_publics(3), 3);
        cb.insert(entry(100, true), 3);
        cb.insert(entry(1, false), 3);
        assert_eq!(cb.missing_publics(3), 2);
        assert_eq!(cb.missing_publics(0), 0);
    }

    #[test]
    fn set_key_updates_entry() {
        use whisper_rand::SeedableRng;
        use whisper_crypto::rsa::{KeyPair, RsaKeySize};
        let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let mut cb = ConnectionBacklog::new(4);
        cb.insert(entry(1, false), 0);
        cb.set_key(NodeId(1), kp.public().clone());
        assert_eq!(cb.get(NodeId(1)).unwrap().key.as_ref(), Some(kp.public()));
        cb.set_key(NodeId(9), kp.public().clone()); // absent: no-op
        assert!(cb.get(NodeId(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        ConnectionBacklog::new(0);
    }
}
