//! T-Man (Jelasity et al. \[12\]): gossip-based overlay topology
//! construction driven by a ranking function — the exchange T-Chord and
//! GosSkip both run.
//!
//! T-Man maintains, per node, a bounded view of peer descriptors ordered
//! by a problem-specific *ranking*. Each cycle a node exchanges its best
//! descriptors with a well-ranked partner and keeps the best of the
//! union; with an appropriate ranking the views converge in a few cycles
//! to the target topology (a ring for T-Chord, a sorted list for GosSkip,
//! and so on).
//!
//! The ranking is supplied per call: it usually depends on the local
//! node's own position (e.g. ring distance from the local Chord key).

use std::collections::HashMap;
use whisper_core::PrivateEntry;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireSink};
use whisper_net::NodeId;
use whisper_rand::Rng;

/// A peer descriptor usable in a T-Man view: what the overlay ranks by,
/// and the private-view entry that opens a confidential route to the node.
pub trait Descriptor: Clone {
    /// Where the node is reached.
    fn entry(&self) -> &PrivateEntry;

    /// The node this descriptor names (views are deduplicated by node).
    fn node(&self) -> NodeId {
        self.entry().node
    }
}

/// One T-Man exchange message: the sender's own descriptor, then the best
/// of its view.
#[derive(Clone, Debug, PartialEq)]
pub struct Exchange<D> {
    /// The sender's descriptor first, then its best-ranked ones.
    pub descriptors: Vec<D>,
    /// Whether the receiver answers with an exchange of its own.
    pub respond: bool,
}

impl<D: WireEncode> WireEncode for Exchange<D> {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_seq(&self.descriptors);
        w.put(&self.respond);
    }
}

impl<D: WireDecode> WireDecode for Exchange<D> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Exchange { descriptors: r.take_seq()?, respond: r.take()? })
    }
}

/// The T-Man protocol at one node: the ranked view, a directory of every
/// descriptor learned, and the cycle count that picks the partners.
#[derive(Clone, Debug)]
pub struct TMan<D: Descriptor> {
    /// Every descriptor learned, by node: the overlay's candidates for
    /// links the ranking does not keep (fingers, list neighbours).
    pub directory: HashMap<NodeId, D>,
    view: Vec<D>,
    view_cap: usize,
    exchange_len: usize,
    cycles: u64,
}

impl<D: Descriptor> TMan<D> {
    /// A node that knows nobody yet, keeping `view_cap` ranked
    /// descriptors and offering its best `exchange_len`.
    ///
    /// # Panics
    ///
    /// Panics if `view_cap` is zero.
    pub fn new(view_cap: usize, exchange_len: usize) -> Self {
        assert!(view_cap > 0, "T-Man view capacity must be positive");
        TMan { directory: HashMap::new(), view: Vec::new(), view_cap, exchange_len, cycles: 0 }
    }

    /// The ranked view, best first: offers and well-ranked partners come
    /// from here.
    pub fn view(&self) -> &[D] {
        &self.view
    }

    /// Cycles run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Learns `descriptors` (`me` aside): into the directory, and into the
    /// view — where a descriptor replaces the one held for its node — which
    /// is then ranked by `rank` (smaller is better) and cut to capacity.
    pub fn learn(&mut self, me: NodeId, descriptors: Vec<D>, rank: impl Fn(&D) -> u64) {
        for d in descriptors.into_iter().filter(|d| d.node() != me) {
            self.directory.insert(d.node(), d.clone());
            match self.view.iter_mut().find(|held| held.node() == d.node()) {
                Some(held) => *held = d,
                None => self.view.push(d),
            }
        }
        self.view.sort_by_key(|d| (rank(d), d.node()));
        self.view.truncate(self.view_cap);
    }

    /// Forgets `node` (it was found unreachable).
    pub fn forget(&mut self, node: NodeId) {
        self.directory.remove(&node);
        self.view.retain(|d| d.node() != node);
    }

    /// Forgets everybody (crash-restart: view and directory are volatile
    /// caches the cycles regrow).
    pub fn clear(&mut self) {
        self.view.clear();
        self.directory.clear();
    }

    /// Runs one cycle: the partner — the best-ranked descriptor on even
    /// cycles, which refines the topology, and a random member of
    /// `private_view` on odd ones, which keeps long links flowing — and
    /// the offer for it, which opens with `mine`. `None` when there is no
    /// partner.
    pub fn start(
        &mut self,
        rng: &mut impl Rng,
        private_view: &[PrivateEntry],
        mine: D,
    ) -> Option<(PrivateEntry, Exchange<D>)> {
        self.cycles += 1;
        let partner = if self.cycles.is_multiple_of(2) {
            self.view.first().map(Descriptor::entry)
        } else if private_view.is_empty() {
            None
        } else {
            Some(&private_view[rng.gen_range(0..private_view.len())])
        };
        Some((partner?.clone(), self.offer(mine, true)))
    }

    /// Takes in an exchange that arrived; when it asks for an answer,
    /// returns the answer — opening with `mine` — and the entry of its
    /// sender to send it to.
    pub fn on_exchange(
        &mut self,
        me: NodeId,
        exchange: Exchange<D>,
        mine: D,
        rank: impl Fn(&D) -> u64,
    ) -> Option<(PrivateEntry, Exchange<D>)> {
        let sender = exchange.descriptors.first().filter(|_| exchange.respond);
        let sender = sender.map(|d| d.entry().clone());
        self.learn(me, exchange.descriptors, rank);
        Some((sender?, self.offer(mine, false)))
    }

    /// Our descriptor, then the best `exchange_len`: T-Man ships its best
    /// candidates so the partner's view improves fastest.
    fn offer(&self, mine: D, respond: bool) -> Exchange<D> {
        let best = self.view.iter().take(self.exchange_len).cloned();
        Exchange { descriptors: std::iter::once(mine).chain(best).collect(), respond }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use whisper_crypto::rsa::{KeyPair, PublicKey, RsaKeySize};
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    #[derive(Clone, Debug, PartialEq)]
    struct Item {
        entry: PrivateEntry,
        value: u64,
    }

    impl Descriptor for Item {
        fn entry(&self) -> &PrivateEntry {
            &self.entry
        }
    }

    fn entry(node: u64) -> PrivateEntry {
        static KEY: OnceLock<PublicKey> = OnceLock::new();
        let key = KEY.get_or_init(|| {
            KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(1)).public().clone()
        });
        let key = key.clone();
        PrivateEntry { node: NodeId(node), age: 0, public: true, key, gateways: vec![] }
    }

    fn item(node: u64, value: u64) -> Item {
        Item { entry: entry(node), value }
    }

    fn nodes(items: &[Item]) -> Vec<u64> {
        items.iter().map(|d| d.node().0).collect()
    }

    /// The view keeps the best `view_cap` by rank, one per node (the
    /// latest descriptor wins) and never our own; the directory keeps every
    /// node learned.
    #[test]
    fn learning_ranks_dedupes_and_truncates() {
        let mut tman = TMan::new(3, 2);
        let learned = vec![item(1, 50), item(2, 10), item(0, 0), item(3, 30), item(4, 20)];
        tman.learn(NodeId(0), learned, |d| d.value);
        assert_eq!(nodes(tman.view()), [2, 4, 3], "ranked ascending, capped at 3");
        assert_eq!(tman.directory.len(), 4, "everyone but ourselves");
        tman.learn(NodeId(0), vec![item(1, 5)], |d| d.value);
        assert_eq!(nodes(tman.view()), [1, 2, 4]);
        assert_eq!(tman.directory[&NodeId(1)].value, 5);
    }

    /// Odd cycles draw a partner from the private view, even ones take the
    /// best-ranked descriptor; every offer is our own descriptor and then
    /// the best `exchange_len`, and only a request is answered — at the
    /// entry of the descriptor it opens with.
    #[test]
    fn partners_alternate_and_offers_open_with_the_sender() {
        let me = NodeId(0);
        let mut tman = TMan::new(8, 2);
        let mut rng = StdRng::seed_from_u64(7);
        tman.learn(me, vec![item(0, 0), item(3, 30), item(1, 10), item(2, 20)], |d| d.value);
        assert!(tman.start(&mut rng, &[], item(0, 0)).is_none(), "odd cycle, empty private view");
        let (partner, offer) = tman.start(&mut rng, &[], item(0, 0)).expect("even cycle");
        assert_eq!((partner.node, tman.cycles()), (NodeId(1), 2), "the best-ranked descriptor");
        assert_eq!((nodes(&offer.descriptors), offer.respond), (vec![0, 1, 2], true));
        let members = [entry(8), entry(9)];
        let (partner, _) = tman.start(&mut rng, &members, item(0, 0)).expect("odd cycle");
        assert!(members.contains(&partner), "a private-view member");

        let request = Exchange { descriptors: vec![item(5, 5), item(6, 60)], respond: true };
        let (to, answer) = tman.on_exchange(me, request, item(0, 0), |d| d.value).expect("asked");
        assert_eq!(to.node, NodeId(5));
        assert_eq!((nodes(&answer.descriptors), answer.respond), (vec![0, 5, 1], false));
        let answer = Exchange { descriptors: vec![item(4, 4)], respond: false };
        assert!(tman.on_exchange(me, answer, item(0, 0), |d| d.value).is_none());
        assert_eq!(tman.view()[0].node(), NodeId(4), "an answer is learned");
        tman.forget(NodeId(4));
        assert!(!tman.directory.contains_key(&NodeId(4)));
        assert_eq!(nodes(tman.view()), [5, 1, 2, 3, 6], "nor in the view");
    }

    #[test]
    fn converges_to_target_topology() {
        // T-Man converging to a sorted line: 20 nodes with random values;
        // ranking = |value - mine|; every node's private view holds all
        // the others. After a few cycles each node's best entry is its
        // true line neighbour.
        let values: &[u64] = &[
            55, 3, 78, 12, 91, 44, 67, 23, 88, 5, 31, 72, 19, 60, 97, 8, 40, 83, 27, 50,
        ];
        let n = values.len();
        let rank = |i: usize| move |d: &Item| d.value.abs_diff(values[i]);
        let mine = |i: usize| item(i as u64, values[i]);
        let mut nodes: Vec<TMan<Item>> = (0..n).map(|_| TMan::new(4, 4)).collect();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            for i in 0..n {
                let members: Vec<PrivateEntry> =
                    (0..n).filter(|&j| j != i).map(|j| entry(j as u64)).collect();
                let Some((partner, offer)) = nodes[i].start(&mut rng, &members, mine(i)) else {
                    continue;
                };
                let p = partner.node.0 as usize;
                let answer = nodes[p].on_exchange(NodeId(p as u64), offer, mine(p), rank(p));
                let (to, answer) = answer.expect("a request is answered");
                assert_eq!(to.node, NodeId(i as u64), "answered at the sender's entry");
                assert!(nodes[i].on_exchange(NodeId(i as u64), answer, mine(i), rank(i)).is_none());
            }
        }
        // Check: each node's best entry is its true nearest neighbour.
        let mut correct = 0;
        for i in 0..n {
            let true_nearest = (0..n)
                .filter(|j| *j != i)
                .min_by_key(|j| values[*j].abs_diff(values[i]))
                .unwrap();
            if nodes[i].view().first().map(|d| d.node().0) == Some(true_nearest as u64) {
                correct += 1;
            }
        }
        assert!(correct >= n - 2, "{correct}/{n} nodes found their neighbour");
    }
}
