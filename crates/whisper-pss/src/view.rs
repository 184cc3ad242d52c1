//! Partial views and the biased truncation policy of paper §III-B-1.
//!
//! An entry exists in two forms. [`Entry`] is what a [`View`] stores and
//! what the gossip path moves: the rendezvous chain sits inline, at most
//! [`ROUTE_CAP`] hops, so an entry is `Copy` and merging, evicting and
//! sorting touch no heap. [`ViewEntry`], with its chain in a `Vec`, is
//! the owned form at the boundary — what tests, the owned message codec
//! and callers outside the crate construct and read.

use whisper_rand::seq::SliceRandom;
use whisper_rand::Rng;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_net::NodeId;

/// Longest rendezvous chain a stored entry holds
/// ([`NylonConfig::max_route`](crate::NylonConfig::max_route) may not
/// exceed it; a longer chain received from a peer is cut to it).
pub const ROUTE_CAP: usize = 3;

/// One entry of a PSS view, in its owned form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewEntry {
    /// The node this entry points to.
    pub node: NodeId,
    /// Freshness: 0 when the node inserts itself, +1 every local cycle.
    pub age: u16,
    /// Whether the node is publicly reachable (a P-node).
    pub public: bool,
    /// Rendezvous chain: `route[0]` is a node the *holder* of this entry
    /// can contact and that can (transitively) reach `node`. Grows by one
    /// as the entry is forwarded, capped by configuration.
    pub route: Vec<NodeId>,
}

/// Writes the wire image both forms of an entry share.
fn put_entry(w: &mut WireWriter, node: NodeId, age: u16, public: bool, route: &[NodeId]) {
    w.put(&node);
    w.put_u16(age);
    w.put(&public);
    w.put_seq(route);
}

/// Exact length of what [`put_entry`] writes.
fn entry_len(route: &[NodeId]) -> usize {
    8 + 2 + 1 + whisper_net::wire::seq_len(route)
}

impl WireEncode for ViewEntry {
    fn encode(&self, w: &mut WireWriter) {
        put_entry(w, self.node, self.age, self.public, &self.route);
    }

    fn encoded_len(&self) -> usize {
        entry_len(&self.route)
    }
}

impl WireDecode for ViewEntry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ViewEntry {
            node: r.take()?,
            age: r.take_u16()?,
            public: r.take()?,
            route: r.take_seq()?,
        })
    }
}

/// One entry of a PSS view as the view stores it: the fields of
/// [`ViewEntry`] with the rendezvous chain inline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The node this entry points to.
    pub node: NodeId,
    /// Freshness: 0 when the node inserts itself, +1 every local cycle.
    pub age: u16,
    /// Whether the node is publicly reachable (a P-node).
    pub public: bool,
    hops: u8,
    /// The first `hops` are the chain; the rest stay `NodeId(0)` so that
    /// the derived equality compares chains.
    route: [NodeId; ROUTE_CAP],
}

impl Entry {
    /// An entry with the first [`ROUTE_CAP`] hops of `route`.
    pub fn new(node: NodeId, age: u16, public: bool, route: &[NodeId]) -> Entry {
        let hops = route.len().min(ROUTE_CAP);
        let mut inline = [NodeId(0); ROUTE_CAP];
        inline[..hops].copy_from_slice(&route[..hops]);
        Entry { node, age, public, hops: hops as u8, route: inline }
    }

    /// The rendezvous chain (see [`ViewEntry::route`]).
    pub fn route(&self) -> &[NodeId] {
        &self.route[..self.hops as usize]
    }

    /// This entry as shipped to a gossip partner by `via`: `via` in front
    /// of the chain, which keeps at most `max_route` hops.
    fn forwarded(&self, via: NodeId, max_route: usize) -> Entry {
        let kept = self.route().len().min(max_route.saturating_sub(1)).min(ROUTE_CAP - 1);
        let mut route = [NodeId(0); ROUTE_CAP];
        route[0] = via;
        route[1..=kept].copy_from_slice(&self.route[..kept]);
        Entry { hops: kept as u8 + 1, route, ..*self }
    }
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("node", &self.node)
            .field("age", &self.age)
            .field("public", &self.public)
            .field("route", &self.route())
            .finish()
    }
}

impl From<&ViewEntry> for Entry {
    fn from(e: &ViewEntry) -> Entry {
        Entry::new(e.node, e.age, e.public, &e.route)
    }
}

impl From<&Entry> for ViewEntry {
    fn from(e: &Entry) -> ViewEntry {
        ViewEntry { node: e.node, age: e.age, public: e.public, route: e.route().to_vec() }
    }
}

/// The wire image of an [`Entry`] is that of the [`ViewEntry`] it
/// converts to.
impl WireEncode for Entry {
    fn encode(&self, w: &mut WireWriter) {
        put_entry(w, self.node, self.age, self.public, self.route());
    }

    fn encoded_len(&self) -> usize {
        entry_len(self.route())
    }
}

/// Accepts exactly the byte strings [`ViewEntry`] decodes from, keeping
/// the first [`ROUTE_CAP`] hops of the chain.
impl WireDecode for Entry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut entry = Entry::new(r.take()?, r.take_u16()?, r.take()?, &[]);
        // A hop count beyond the input, which `take_seq` refuses before
        // it allocates, runs into the end of the input here.
        for i in 0..r.take_u32()? as usize {
            let hop = r.take()?;
            if i < ROUTE_CAP {
                entry.route[i] = hop;
                entry.hops = i as u8 + 1;
            }
        }
        Ok(entry)
    }
}

/// A bounded partial view with the healer merge policy and WHISPER's
/// P-node bias.
#[derive(Clone, Debug, Default)]
pub struct View {
    entries: Vec<Entry>,
}

impl View {
    /// Creates an empty view.
    pub fn new() -> Self {
        View::default()
    }

    /// The entries, in no particular order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `node` is present.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// The entry for `node`, if present.
    pub fn get(&self, node: NodeId) -> Option<&Entry> {
        self.entries.iter().find(|e| e.node == node)
    }

    /// Node identifiers currently in the view.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.node)
    }

    /// Number of P-node entries.
    pub fn p_count(&self) -> usize {
        self.entries.iter().filter(|e| e.public).count()
    }

    /// Inserts an entry directly (bootstrap); replaces an existing entry
    /// for the same node if the new one is fresher.
    pub fn insert(&mut self, entry: ViewEntry) {
        self.absorb(Entry::from(&entry));
    }

    /// Adds `entry`, or lets it replace the entry for the same node if it
    /// is the fresher of the two.
    fn absorb(&mut self, entry: Entry) {
        match self.entries.iter_mut().find(|e| e.node == entry.node) {
            Some(existing) => {
                if entry.age < existing.age {
                    *existing = entry;
                }
            }
            None => self.entries.push(entry),
        }
    }

    /// Removes the entry for `node` (e.g. after a failed exchange, as the
    /// healer policy prescribes for unresponsive peers).
    pub fn remove(&mut self, node: NodeId) {
        self.entries.retain(|e| e.node != node);
    }

    /// Ages every entry by one cycle (saturating).
    pub fn increment_ages(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// Stale-peer eviction: removes every entry whose age exceeds
    /// `max_age` cycles, returning how many were dropped. Counters the Π
    /// bias, which would otherwise keep copies of a dead P-node's entry
    /// circulating (and being selected as relays) forever.
    pub fn evict_older_than(&mut self, max_age: u16) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.age <= max_age);
        before - self.entries.len()
    }

    /// The oldest entry — the healer's exchange partner. Ties are broken
    /// by node id for determinism.
    pub fn oldest(&self) -> Option<&Entry> {
        self.entries.iter().max_by_key(|e| (e.age, e.node))
    }

    /// A uniformly random entry (the `getPeer()` API of Fig. 1).
    pub fn random<R: Rng>(&self, rng: &mut R) -> Option<&Entry> {
        self.entries.choose(rng)
    }

    /// Builds the gossip buffer to ship to a partner: the sender's own
    /// fresh entry followed by up to `len - 1` random others (excluding
    /// the partner itself). Forwarded entries get `via` prepended to their
    /// rendezvous chain, capped at `max_route`.
    ///
    /// The owned form of [`View::fill_buffer`].
    pub fn make_buffer<R: Rng>(
        &self,
        self_entry: ViewEntry,
        partner: NodeId,
        len: usize,
        via: NodeId,
        max_route: usize,
        rng: &mut R,
    ) -> Vec<ViewEntry> {
        let mut buffer = Vec::new();
        self.fill_buffer(&mut buffer, Entry::from(&self_entry), partner, len, via, max_route, rng);
        std::iter::once(self_entry).chain(buffer[1..].iter().map(ViewEntry::from)).collect()
    }

    /// [`View::make_buffer`] into `buffer`, whose earlier contents are
    /// dropped and whose allocation is reused. Draws from `rng` what a
    /// shuffle of the candidate entries draws, whatever `len` is.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_buffer<R: Rng>(
        &self,
        buffer: &mut Vec<Entry>,
        self_entry: Entry,
        partner: NodeId,
        len: usize,
        via: NodeId,
        max_route: usize,
        rng: &mut R,
    ) {
        buffer.clear();
        buffer.push(self_entry);
        buffer.extend(self.entries.iter().filter(|e| e.node != partner && e.node != via));
        buffer[1..].shuffle(rng);
        buffer.truncate(len.max(1));
        for entry in &mut buffer[1..] {
            *entry = entry.forwarded(via, max_route);
        }
    }

    /// Merges `received` entries and truncates to `cap` with the healer
    /// policy (keep lowest ages), applying the P-node bias:
    ///
    /// * at least `pi` P-nodes are kept when available (forcing out the
    ///   oldest N-nodes if the unbiased selection would drop below Π);
    /// * with `oldest_p_discard`, P-nodes *beyond* Π are discarded oldest
    ///   first in favour of fresher N-nodes, bounding P-node in-degree.
    ///
    /// Entries pointing at `me` are ignored.
    ///
    /// The owned form of [`View::merge_entries`].
    pub fn merge(
        &mut self,
        received: Vec<ViewEntry>,
        me: NodeId,
        cap: usize,
        pi: usize,
        oldest_p_discard: bool,
    ) {
        self.merge_entries(received.iter().map(Entry::from), me, cap, pi, oldest_p_discard);
    }

    /// [`View::merge`] of entries as they are stored, in place: the view's
    /// own vector holds the union, is sorted and is cut.
    pub fn merge_entries(
        &mut self,
        received: impl IntoIterator<Item = Entry>,
        me: NodeId,
        cap: usize,
        pi: usize,
        oldest_p_discard: bool,
    ) {
        // Union, deduplicated by node keeping the freshest copy.
        for entry in received {
            if entry.node != me {
                self.absorb(entry);
            }
        }
        // Deterministic healer order: freshest first. Nodes are unique,
        // so the keys are and an unstable sort has one possible result.
        self.entries.sort_unstable_by_key(|e| (e.age, e.node));
        if self.entries.len() <= cap {
            return;
        }
        // The first `cap` entries are kept, the older ones are spare.
        let p_in_kept = self.entries[..cap].iter().filter(|e| e.public).count();
        if p_in_kept < pi {
            // The Π bias kicks in only when the unbiased healer would
            // leave too few P-nodes: force spare P-nodes in, pushing
            // out the oldest kept N-nodes. With `oldest_p_discard`
            // (the paper's refinement) the *freshest* spare P-nodes
            // are chosen, so the protected slots rotate and no single
            // stale P-node accumulates in-degree; without it the
            // oldest spares are taken — the protected P-nodes then
            // never change, concentrating load (and keeping possibly
            // dead P-nodes around), which is exactly the effect the
            // ablation quantifies.
            let mut needed = pi - p_in_kept;
            let len = self.entries.len();
            for k in 0..len - cap {
                if needed == 0 {
                    break;
                }
                let replacement = self.entries[if oldest_p_discard { cap + k } else { len - 1 - k }];
                if !replacement.public {
                    continue;
                }
                needed -= 1;
                // It takes the place of the oldest kept N-node and goes
                // behind the kept entries.
                if let Some(pos) = self.entries[..cap].iter().rposition(|e| !e.public) {
                    self.entries[pos..cap].rotate_left(1);
                    self.entries[cap - 1] = replacement;
                }
            }
        }
        self.entries.truncate(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn e(node: u64, age: u16, public: bool) -> ViewEntry {
        ViewEntry { node: NodeId(node), age, public, route: vec![] }
    }

    /// `merge` and `make_buffer` as they were when a view held owned
    /// entries, kept as the oracles of the two tests below.
    mod oracle {
        use super::super::ViewEntry;
        use whisper_net::NodeId;
        use whisper_rand::seq::SliceRandom;
        use whisper_rand::Rng;

        pub fn make_buffer<R: Rng>(
            entries: &[ViewEntry],
            self_entry: ViewEntry,
            partner: NodeId,
            len: usize,
            via: NodeId,
            max_route: usize,
            rng: &mut R,
        ) -> Vec<ViewEntry> {
            let mut buffer = vec![self_entry];
            let mut candidates: Vec<&ViewEntry> =
                entries.iter().filter(|e| e.node != partner && e.node != via).collect();
            candidates.shuffle(rng);
            for entry in candidates.into_iter().take(len.saturating_sub(1)) {
                let mut forwarded = entry.clone();
                let mut route = Vec::with_capacity(max_route);
                route.push(via);
                route.extend(forwarded.route.iter().copied().take(max_route.saturating_sub(1)));
                forwarded.route = route;
                buffer.push(forwarded);
            }
            buffer
        }

        pub fn merge(
            entries: Vec<ViewEntry>,
            received: Vec<ViewEntry>,
            me: NodeId,
            cap: usize,
            pi: usize,
            oldest_p_discard: bool,
        ) -> Vec<ViewEntry> {
            let mut union: Vec<ViewEntry> = entries;
            for entry in received {
                if entry.node == me {
                    continue;
                }
                match union.iter_mut().find(|e| e.node == entry.node) {
                    Some(existing) => {
                        if entry.age < existing.age {
                            *existing = entry;
                        }
                    }
                    None => union.push(entry),
                }
            }
            union.sort_by_key(|e| (e.age, e.node));

            if union.len() <= cap {
                return union;
            }

            let mut kept: Vec<ViewEntry> = union.drain(..cap).collect();
            let mut spare: Vec<ViewEntry> = union; // older entries, sorted

            if pi > 0 {
                let p_in_kept = kept.iter().filter(|e| e.public).count();
                if p_in_kept < pi {
                    let needed = pi - p_in_kept;
                    let mut spare_publics: Vec<ViewEntry> = Vec::new();
                    if oldest_p_discard {
                        spare.retain(|e| {
                            if e.public && spare_publics.len() < needed {
                                spare_publics.push(e.clone());
                                false
                            } else {
                                true
                            }
                        });
                    } else {
                        for e in spare.iter().rev() {
                            if e.public && spare_publics.len() < needed {
                                spare_publics.push(e.clone());
                            }
                        }
                        spare.retain(|e| !spare_publics.iter().any(|p| p.node == e.node));
                    }
                    for replacement in spare_publics {
                        // Remove the oldest non-public entry.
                        if let Some(pos) = kept.iter().rposition(|e| !e.public) {
                            kept.remove(pos);
                            kept.push(replacement);
                        }
                    }
                }
            }
            kept
        }
    }

    fn gen_entry(g: &mut whisper_rand::check::Gen) -> ViewEntry {
        // Few nodes, so views and buffers overlap, carry duplicates and
        // point at `me`; publicity is a property of the node.
        let node = g.gen_range(0..24u64);
        ViewEntry {
            node: NodeId(node),
            age: g.gen_range(0..12u16),
            public: node % 3 == 0,
            route: g.vec(ROUTE_CAP, |g| NodeId(g.gen_range(0..24u64))),
        }
    }

    fn owned(view: &View) -> Vec<ViewEntry> {
        view.entries().iter().map(ViewEntry::from).collect()
    }

    #[test]
    fn merge_matches_the_owned_oracle() {
        whisper_rand::check::check(400, "merge_matches_the_owned_oracle", |g| {
            let me = NodeId(g.gen_range(0..24u64));
            let mut view = View::new();
            for entry in g.vec(14, gen_entry) {
                view.insert(entry);
            }
            let received = g.vec(8, gen_entry); // duplicates and `me` included
            let pi = if g.gen() { 3 } else { 0 };
            let discard: bool = g.gen();
            let expected = oracle::merge(owned(&view), received.clone(), me, 10, pi, discard);
            view.merge(received, me, 10, pi, discard);
            assert_eq!(owned(&view), expected, "same entries in the same order");
        });
    }

    #[test]
    fn buffer_bytes_and_rng_draws_match_the_owned_oracle() {
        use whisper_net::wire::WireWriter;
        whisper_rand::check::check(400, "buffer_bytes_and_rng_draws_match_the_owned_oracle", |g| {
            let mut view = View::new();
            for entry in g.vec(12, gen_entry) {
                view.insert(entry);
            }
            let me = NodeId(g.gen_range(0..24u64));
            let partner = NodeId(g.gen_range(0..24u64));
            let (len, max_route) = (g.gen_range(0..8usize), g.gen_range(0..=ROUTE_CAP));
            let self_entry = ViewEntry { node: me, age: 0, public: g.gen(), route: vec![] };
            let seed = g.gen();
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let mut expected = WireWriter::new();
            expected.put_seq(&oracle::make_buffer(
                &owned(&view),
                self_entry.clone(),
                partner,
                len,
                me,
                max_route,
                &mut oracle_rng,
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buffer = vec![Entry::new(NodeId(99), 9, true, &[NodeId(9)])]; // stale scratch
            view.fill_buffer(
                &mut buffer,
                Entry::from(&self_entry),
                partner,
                len,
                me,
                max_route,
                &mut rng,
            );
            let mut written = WireWriter::new();
            written.put_seq(&buffer);
            assert_eq!(written.into_bytes(), expected.into_bytes());
            assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "same draws");
        });
    }

    #[test]
    fn inline_entries_cut_chains_to_the_cap() {
        use whisper_net::wire::{WireDecode, WireEncode};
        let long: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let owned = ViewEntry { node: NodeId(9), age: 4, public: true, route: long.clone() };
        let inline = Entry::from(&owned);
        assert_eq!(inline.route(), &long[..ROUTE_CAP]);
        assert_eq!(Entry::from_wire(&owned.to_wire()).unwrap(), inline, "decode cuts alike");
        let short = Entry::new(NodeId(9), 4, true, &long[..2]);
        assert_eq!(short.to_wire(), ViewEntry::from(&short).to_wire());
        assert_eq!(Entry::from_wire(&short.to_wire()).unwrap(), short);
        assert_ne!(short, Entry::new(NodeId(9), 4, true, &long[..1]));
    }

    #[test]
    fn insert_keeps_freshest() {
        let mut v = View::new();
        v.insert(e(1, 5, false));
        v.insert(e(1, 2, false));
        assert_eq!(v.get(NodeId(1)).unwrap().age, 2);
        v.insert(e(1, 9, false));
        assert_eq!(v.get(NodeId(1)).unwrap().age, 2, "older copy ignored");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn evict_older_than_drops_only_stale_entries() {
        let mut v = View::new();
        v.insert(e(1, 5, false));
        v.insert(e(2, 20, true));
        v.insert(e(3, 21, true));
        v.insert(e(4, 40, false));
        assert_eq!(v.evict_older_than(20), 2, "ages 21 and 40 evicted");
        assert_eq!(v.len(), 2);
        assert!(v.get(NodeId(2)).is_some(), "age == max_age survives");
        assert!(v.get(NodeId(3)).is_none());
        assert_eq!(v.evict_older_than(20), 0, "idempotent");
    }

    #[test]
    fn oldest_selection_deterministic() {
        let mut v = View::new();
        v.insert(e(1, 3, false));
        v.insert(e(2, 7, false));
        v.insert(e(3, 7, false));
        // Tie on age: larger node id wins, deterministically.
        assert_eq!(v.oldest().unwrap().node, NodeId(3));
    }

    #[test]
    fn ages_increment_saturating() {
        let mut v = View::new();
        v.insert(e(1, u16::MAX, false));
        v.insert(e(2, 1, false));
        v.increment_ages();
        assert_eq!(v.get(NodeId(1)).unwrap().age, u16::MAX);
        assert_eq!(v.get(NodeId(2)).unwrap().age, 2);
    }

    #[test]
    fn merge_dedupes_and_truncates_by_age() {
        let mut v = View::new();
        for i in 0..5 {
            v.insert(e(i, i as u16, false));
        }
        let received = vec![e(10, 0, false), e(0, 3, false)];
        v.merge(received, NodeId(99), 4, 0, false);
        assert_eq!(v.len(), 4);
        assert!(v.contains(NodeId(10)), "fresh entry kept");
        assert_eq!(v.get(NodeId(0)).unwrap().age, 0, "freshest copy kept");
        assert!(!v.contains(NodeId(4)), "oldest dropped");
    }

    #[test]
    fn merge_ignores_self() {
        let mut v = View::new();
        v.merge(vec![e(7, 0, false)], NodeId(7), 10, 0, false);
        assert!(v.is_empty());
    }

    #[test]
    fn pi_bias_forces_public_nodes_in() {
        let mut v = View::new();
        // 8 fresh N-nodes, 3 old P-nodes.
        for i in 0..8 {
            v.insert(e(i, 0, false));
        }
        for i in 100..103 {
            v.insert(e(i, 50, true));
        }
        v.merge(vec![], NodeId(99), 8, 3, false);
        assert_eq!(v.len(), 8);
        assert_eq!(v.p_count(), 3, "Π P-nodes forced in despite high age");
    }

    #[test]
    fn pi_bias_keeps_what_exists_when_not_enough_publics() {
        let mut v = View::new();
        for i in 0..10 {
            v.insert(e(i, 0, false));
        }
        v.insert(e(100, 50, true));
        v.merge(vec![], NodeId(99), 8, 3, false);
        assert_eq!(v.p_count(), 1, "only one P-node exists in the union");
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn unbiased_truncation_when_pi_zero() {
        let mut v = View::new();
        for i in 0..8 {
            v.insert(e(i, 0, false));
        }
        for i in 100..103 {
            v.insert(e(i, 50, true));
        }
        v.merge(vec![], NodeId(99), 8, 0, false);
        assert_eq!(v.p_count(), 0, "old P-nodes dropped without bias");
    }

    #[test]
    fn pi_at_or_below_natural_share_leaves_composition_unbiased() {
        // Plenty of fresh P-nodes: the bias must not alter the unbiased
        // healer outcome (the paper's "very small effect" claim).
        let mut v = View::new();
        for i in 0..6 {
            v.insert(e(100 + i, i as u16, true));
        }
        for i in 0..6 {
            v.insert(e(i, 3, false));
        }
        let mut unbiased = v.clone();
        unbiased.merge(vec![], NodeId(99), 8, 0, false);
        v.merge(vec![], NodeId(99), 8, 2, true);
        assert_eq!(v.p_count(), unbiased.p_count(), "bias inactive when Π satisfied");
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn forced_publics_are_freshest_with_discard_bias_oldest_without() {
        // Kept set would hold zero publics; Π = 1 forces one in. With the
        // oldest-P-discard refinement the freshest spare P is chosen;
        // without it, the oldest (sticky, load-concentrating) one.
        let build = || {
            let mut v = View::new();
            for i in 0..8 {
                v.insert(e(i, 0, false)); // 8 fresh N-nodes fill the cap
            }
            v.insert(e(100, 10, true)); // fresher spare P
            v.insert(e(101, 20, true)); // older spare P
            v
        };
        let mut with_discard = build();
        with_discard.merge(vec![], NodeId(99), 8, 1, true);
        assert!(with_discard.contains(NodeId(100)), "freshest spare P chosen");
        assert!(!with_discard.contains(NodeId(101)));

        let mut without = build();
        without.merge(vec![], NodeId(99), 8, 1, false);
        assert!(without.contains(NodeId(101)), "oldest spare P chosen");
        assert!(!without.contains(NodeId(100)));
    }

    #[test]
    fn oldest_p_discard_requires_spare_n_nodes() {
        let mut v = View::new();
        for i in 0..8 {
            v.insert(e(100 + i, 0, true));
        }
        v.merge(vec![e(200, 9, true)], NodeId(99), 4, 1, true);
        // No N-nodes at all: publics stay.
        assert_eq!(v.p_count(), 4);
    }

    #[test]
    fn make_buffer_includes_self_first_and_prepends_route() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = View::new();
        let mut entry = e(5, 2, false);
        entry.route = vec![NodeId(50), NodeId(51), NodeId(52)];
        v.insert(entry);
        v.insert(e(6, 1, true));
        let me = NodeId(42);
        let self_entry = ViewEntry { node: me, age: 0, public: true, route: vec![] };
        let buf = v.make_buffer(self_entry.clone(), NodeId(6), 3, me, 3, &mut rng);
        assert_eq!(buf[0], self_entry);
        assert_eq!(buf.len(), 2, "partner excluded, so only node 5 remains");
        assert_eq!(buf[1].node, NodeId(5));
        assert_eq!(
            buf[1].route,
            vec![me, NodeId(50), NodeId(51)],
            "sender prepended, chain capped at 3"
        );
    }

    #[test]
    fn make_buffer_respects_len() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = View::new();
        for i in 0..20 {
            v.insert(e(i, 0, false));
        }
        let self_entry = ViewEntry { node: NodeId(42), age: 0, public: true, route: vec![] };
        let buf = v.make_buffer(self_entry, NodeId(0), 5, NodeId(42), 3, &mut rng);
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn wire_round_trip() {
        use whisper_net::wire::{WireDecode, WireEncode};
        let entry = ViewEntry {
            node: NodeId(9),
            age: 77,
            public: true,
            route: vec![NodeId(1), NodeId(2)],
        };
        let bytes = entry.to_wire();
        assert_eq!(ViewEntry::from_wire(&bytes).unwrap(), entry);
    }
}
