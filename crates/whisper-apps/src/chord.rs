//! Chord ring arithmetic, neighbour selection and greedy routing
//! (Stoica et al. \[24\]), used by the T-Chord construction of §V-G.
//!
//! Keys live on a 64-bit identifier ring. This module is pure logic: the
//! gossip-based construction lives in [`crate::tchord`], and an *ideal*
//! ring ([`IdealRing`]) provides the ground truth that tests and the
//! Fig. 9 harness compare against.

use whisper_crypto::sha256::Sha256;
use whisper_net::NodeId;

/// Number of finger-table entries (one per bit of the key space).
pub const FINGER_BITS: usize = 64;

/// A position on the Chord ring.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChordKey(pub u64);

whisper_net::wire_format!(ChordKey(key));

impl std::fmt::Debug for ChordKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

impl ChordKey {
    /// The canonical key of a node: a hash of its identifier.
    pub fn of_node(node: NodeId) -> ChordKey {
        let digest = Sha256::digest(&node.to_bytes());
        ChordKey(u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")))
    }

    /// The canonical key of an arbitrary data item.
    pub fn of_data(data: &[u8]) -> ChordKey {
        let digest = Sha256::digest(data);
        ChordKey(u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")))
    }

    /// Clockwise distance from `self` to `other` (0 for equal keys).
    pub fn cw_distance(self, other: ChordKey) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Whether `self` lies in the clockwise-open interval `(from, to]`.
    fn in_interval_oc(self, from: ChordKey, to: ChordKey) -> bool {
        if from == to {
            return true; // full circle
        }
        from.cw_distance(self) != 0 && from.cw_distance(self) <= from.cw_distance(to)
    }

    /// The finger start `self + 2^i`.
    fn finger_start(self, i: usize) -> ChordKey {
        debug_assert!(i < FINGER_BITS);
        ChordKey(self.0.wrapping_add(1u64 << i))
    }
}

/// A node's Chord neighbour set, derived from an arbitrary candidate set
/// (the output of the T-Chord gossip, or of an ideal global view).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RingNeighbors {
    /// Immediate successors, closest first.
    pub successors: Vec<(ChordKey, NodeId)>,
    /// Immediate predecessor.
    pub predecessor: Option<(ChordKey, NodeId)>,
    /// Finger table: for each populated level, the first node clockwise
    /// of `me + 2^i`. Deduplicated and sorted by level.
    pub fingers: Vec<(ChordKey, NodeId)>,
}

impl RingNeighbors {
    /// Selects successors, predecessor and fingers for `me` from
    /// `candidates` (the T-Man ranking step of T-Chord).
    pub fn select(
        me: ChordKey,
        candidates: &[(ChordKey, NodeId)],
        successor_count: usize,
    ) -> RingNeighbors {
        let mut others: Vec<(ChordKey, NodeId)> = candidates
            .iter()
            .copied()
            .filter(|(k, _)| *k != me)
            .collect();
        others.sort_unstable();
        others.dedup();
        if others.is_empty() {
            return RingNeighbors::default();
        }
        // Successors: smallest clockwise distance from me.
        let mut by_cw = others.clone();
        by_cw.sort_by_key(|(k, _)| me.cw_distance(*k));
        let successors: Vec<(ChordKey, NodeId)> =
            by_cw.iter().copied().take(successor_count).collect();
        // Predecessor: largest clockwise distance (= closest ccw).
        let predecessor = by_cw.last().copied();
        // Fingers: first node at or after each finger start.
        let mut fingers: Vec<(ChordKey, NodeId)> = Vec::new();
        for i in 0..FINGER_BITS {
            let start = me.finger_start(i);
            let best = others
                .iter()
                .copied()
                .min_by_key(|(k, _)| start.cw_distance(*k));
            if let Some(f) = best {
                if fingers.last() != Some(&f) {
                    fingers.push(f);
                }
            }
        }
        fingers.dedup();
        RingNeighbors { successors, predecessor, fingers }
    }

    /// All distinct neighbours (successors + predecessor + fingers).
    pub fn all(&self) -> Vec<(ChordKey, NodeId)> {
        let mut out = self.successors.clone();
        out.extend(self.predecessor);
        out.extend(self.fingers.iter().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether `me` owns `key` — i.e. `key ∈ (predecessor, me]`.
    pub fn owns(&self, me: ChordKey, key: ChordKey) -> bool {
        match self.predecessor {
            Some((pred, _)) => key.in_interval_oc(pred, me),
            None => true, // alone on the ring
        }
    }

    /// Greedy routing step: the closest preceding neighbour of `key` —
    /// the known node inside `(me, key]` farthest clockwise from `me`.
    /// When no neighbour lies in that arc the first successor is used
    /// (it then owns the key, or knows better than we do).
    pub fn next_hop(&self, me: ChordKey, key: ChordKey) -> Option<(ChordKey, NodeId)> {
        let to_key = me.cw_distance(key);
        self.all()
            .into_iter()
            .filter(|(k, _)| {
                let d = me.cw_distance(*k);
                d != 0 && d <= to_key
            })
            .max_by_key(|(k, _)| me.cw_distance(*k))
            .or_else(|| self.successors.first().copied())
    }
}

/// The perfect Chord ring over a known member set: ground truth for
/// convergence tests and the ideal-routing baseline of Fig. 9.
#[derive(Clone, Debug)]
pub struct IdealRing {
    members: Vec<(ChordKey, NodeId)>,
}

impl IdealRing {
    /// Builds the ring for `nodes`.
    pub fn new(nodes: &[NodeId]) -> IdealRing {
        let mut members: Vec<(ChordKey, NodeId)> =
            nodes.iter().map(|n| (ChordKey::of_node(*n), *n)).collect();
        members.sort_unstable();
        IdealRing { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member owning `key` (its successor on the ring).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn owner(&self, key: ChordKey) -> (ChordKey, NodeId) {
        assert!(!self.members.is_empty(), "owner() on empty ring");
        match self.members.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.members[i],
            Err(i) => self.members[i % self.members.len()],
        }
    }

    /// The true successor of `node`.
    pub fn successor_of(&self, node: NodeId) -> Option<(ChordKey, NodeId)> {
        let pos = self.members.iter().position(|(_, n)| *n == node)?;
        Some(self.members[(pos + 1) % self.members.len()])
    }

    /// The true predecessor of `node`.
    #[cfg(test)]
    fn predecessor_of(&self, node: NodeId) -> Option<(ChordKey, NodeId)> {
        let pos = self.members.iter().position(|(_, n)| *n == node)?;
        Some(self.members[(pos + self.members.len() - 1) % self.members.len()])
    }

    /// Members in ring order.
    pub fn members(&self) -> &[(ChordKey, NodeId)] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn keys_are_stable_and_spread() {
        let a = ChordKey::of_node(NodeId(1));
        assert_eq!(a, ChordKey::of_node(NodeId(1)));
        assert_ne!(a, ChordKey::of_node(NodeId(2)));
        assert_ne!(ChordKey::of_data(b"x"), ChordKey::of_data(b"y"));
    }

    #[test]
    fn interval_logic() {
        let a = ChordKey(10);
        let b = ChordKey(20);
        assert!(ChordKey(15).in_interval_oc(a, b));
        assert!(ChordKey(20).in_interval_oc(a, b));
        assert!(!ChordKey(10).in_interval_oc(a, b));
        assert!(!ChordKey(25).in_interval_oc(a, b));
        // Wrapping interval.
        let hi = ChordKey(u64::MAX - 5);
        let lo = ChordKey(5);
        assert!(ChordKey(u64::MAX).in_interval_oc(hi, lo));
        assert!(ChordKey(3).in_interval_oc(hi, lo));
        assert!(!ChordKey(100).in_interval_oc(hi, lo));
        // Degenerate full circle.
        assert!(ChordKey(42).in_interval_oc(a, a));
    }

    #[test]
    fn cw_distance_wraps() {
        assert_eq!(ChordKey(10).cw_distance(ChordKey(15)), 5);
        assert_eq!(ChordKey(15).cw_distance(ChordKey(10)), u64::MAX - 4);
        assert_eq!(ChordKey(7).cw_distance(ChordKey(7)), 0);
    }

    #[test]
    fn neighbor_selection_matches_ideal_ring() {
        let ns = nodes(50);
        let ring = IdealRing::new(&ns);
        let candidates: Vec<(ChordKey, NodeId)> = ring.members().to_vec();
        for &node in &ns {
            let me = ChordKey::of_node(node);
            let sel = RingNeighbors::select(me, &candidates, 3);
            assert_eq!(
                sel.successors[0],
                ring.successor_of(node).unwrap(),
                "successor of {node}"
            );
            assert_eq!(
                sel.predecessor,
                ring.predecessor_of(node),
                "predecessor of {node}"
            );
        }
    }

    #[test]
    fn ownership_partitioning_is_exact() {
        let ns = nodes(20);
        let ring = IdealRing::new(&ns);
        let candidates: Vec<(ChordKey, NodeId)> = ring.members().to_vec();
        for probe in 0..500u64 {
            let key = ChordKey::of_data(&probe.to_be_bytes());
            let (_, true_owner) = ring.owner(key);
            // Exactly one node claims ownership.
            let claimants: Vec<NodeId> = ns
                .iter()
                .copied()
                .filter(|n| {
                    let me = ChordKey::of_node(*n);
                    RingNeighbors::select(me, &candidates, 3).owns(me, key)
                })
                .collect();
            assert_eq!(claimants, vec![true_owner], "key {key:?}");
        }
    }

    #[test]
    fn greedy_routing_reaches_owner_in_log_hops() {
        let ns = nodes(128);
        let ring = IdealRing::new(&ns);
        let candidates: Vec<(ChordKey, NodeId)> = ring.members().to_vec();
        // Precompute everyone's neighbours from the ideal candidate set.
        let neighbours: std::collections::HashMap<NodeId, RingNeighbors> = ns
            .iter()
            .map(|n| (*n, RingNeighbors::select(ChordKey::of_node(*n), &candidates, 3)))
            .collect();
        for probe in 0..100u64 {
            let key = ChordKey::of_data(&probe.to_be_bytes());
            let (_, owner) = ring.owner(key);
            let mut at = ns[(probe % 128) as usize];
            let mut hops = 0;
            loop {
                let me = ChordKey::of_node(at);
                let nb = &neighbours[&at];
                if nb.owns(me, key) {
                    break;
                }
                let (_, next) = nb.next_hop(me, key).expect("route exists");
                assert_ne!(next, at, "routing made no progress");
                at = next;
                hops += 1;
                assert!(hops <= 20, "too many hops for key {key:?}");
            }
            assert_eq!(at, owner, "key {key:?} routed to wrong owner");
            assert!(hops <= 10, "expected O(log 128) hops, got {hops}");
        }
    }

    #[test]
    fn ideal_ring_owner_wraps() {
        let ring = IdealRing::new(&nodes(5));
        // A key beyond the largest member key wraps to the smallest.
        let largest = ring.members().last().unwrap().0;
        let probe = ChordKey(largest.0.wrapping_add(1));
        assert_eq!(ring.owner(probe), ring.members()[0]);
    }

    #[test]
    fn empty_candidates_yield_default() {
        let sel = RingNeighbors::select(ChordKey(1), &[], 3);
        assert!(sel.successors.is_empty());
        assert!(sel.owns(ChordKey(1), ChordKey(99)), "alone: owns everything");
        assert_eq!(sel.next_hop(ChordKey(1), ChordKey(99)), None);
    }

    #[test]
    fn single_member_ring() {
        let ring = IdealRing::new(&[NodeId(7)]);
        let key = ChordKey::of_data(b"anything");
        assert_eq!(ring.owner(key).1, NodeId(7));
        assert_eq!(ring.successor_of(NodeId(7)).unwrap().1, NodeId(7));
    }
}
