//! Partial views and the biased truncation policy of paper §III-B-1.
//!
//! An entry exists in two forms. [`Entry`] is what a [`View`] stores and
//! what the gossip path moves: the rendezvous chain sits inline, at most
//! [`ROUTE_CAP`] hops, so an entry is `Copy` and merging, evicting and
//! sorting touch no heap. [`ViewEntry`], with its chain in a `Vec`, is
//! the owned form at the boundary — what tests, the owned message codec
//! and callers outside the crate construct and read.
//!
//! A stored chain is *valid by construction*: its holder can send
//! directly to the first hop, every hop to the next and the last to the
//! target, where "directly" means that the next node is public or that a
//! live contact for it is held. What a node ships ([`View::fill_buffer`])
//! and what it stores of what it is shipped ([`Entry::received`]) are the
//! two steps that keep it so (DESIGN.md §7).

use whisper_rand::seq::SliceRandom;
use whisper_rand::Rng;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_net::NodeId;

/// Longest rendezvous chain an entry holds
/// ([`NylonConfig::max_route`](crate::NylonConfig::max_route) may not
/// exceed it). A chain is never cut to fit — what is left would end at a
/// node that has never met the target: an entry whose chain cannot grow
/// is not forwarded, and a longer chain received from a peer is refused
/// by the decoder.
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
    /// can send to directly, every hop can send directly to the next and
    /// the last to `node`. Empty for a public `node`. A forwarder puts
    /// itself in front unless the first hop is a P-node, which anyone
    /// reaches; a chain that is full is not forwarded.
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

/// Refuses a chain of more than [`ROUTE_CAP`] hops, as [`Entry`] does.
impl WireDecode for ViewEntry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let entry = Entry::decode(r)?;
        Ok(ViewEntry::from(&entry))
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
    /// Whether the chain's first hop is known to be a P-node — there is
    /// a first hop, then — so that the chain is as good in anyone's hands
    /// as in the holder's. Not on the wire: [`Entry::received`] works it
    /// out from who sent the entry.
    head_public: bool,
    /// The first `hops` are the chain; the rest stay `NodeId(0)` so that
    /// the derived equality compares chains.
    route: [NodeId; ROUTE_CAP],
}

impl Entry {
    /// An entry with the chain `route`, whose first hop is not known to
    /// be public.
    ///
    /// # Panics
    ///
    /// Panics if `route` has more than [`ROUTE_CAP`] hops.
    pub fn new(node: NodeId, age: u16, public: bool, route: &[NodeId]) -> Entry {
        assert!(route.len() <= ROUTE_CAP, "a rendezvous chain has at most ROUTE_CAP hops");
        let mut inline = [NodeId(0); ROUTE_CAP];
        inline[..route.len()].copy_from_slice(route);
        Entry { node, age, public, hops: route.len() as u8, head_public: false, route: inline }
    }

    /// The rendezvous chain (see [`ViewEntry::route`]).
    pub fn route(&self) -> &[NodeId] {
        &self.route[..self.hops as usize]
    }

    /// This entry with `front` ahead of its chain, whose new first hop is
    /// public or not as `head_public` says; `None` if that makes more
    /// than `max_route` hops.
    fn behind(&self, front: &[NodeId], head_public: bool, max_route: usize) -> Option<Entry> {
        let hops = front.len() + self.hops as usize;
        if hops > max_route.min(ROUTE_CAP) {
            return None;
        }
        let mut route = [NodeId(0); ROUTE_CAP];
        route[..front.len()].copy_from_slice(front);
        route[front.len()..hops].copy_from_slice(self.route());
        Some(Entry { hops: hops as u8, head_public, route, ..*self })
    }

    /// This entry as `via`, its holder, ships it to a gossip partner —
    /// who reaches `via` directly, having just exchanged a packet with
    /// it. A public target needs no chain. A chain that starts at a
    /// P-node serves the partner as it serves `via`, and goes unchanged:
    /// no chain grows past the P-node nearest its target. Any other
    /// chain gets `via` in front, or — being `max_route` hops already —
    /// is not shipped at all: `None`.
    fn forwarded(&self, via: NodeId, max_route: usize) -> Option<Entry> {
        if self.public {
            Some(Entry::new(self.node, self.age, true, &[]))
        } else if self.head_public {
            Some(*self)
        } else {
            self.behind(&[via], false, max_route)
        }
    }

    /// This entry, shipped by `sender`, as its receiver stores it — or
    /// `None` if the receiver could not use it.
    ///
    /// `via` is how the message came: empty when `sender` sent it
    /// directly, else the relays that carried it, the one the receiver
    /// heard from (`via_head_public` says whether that one is a P-node)
    /// first. A chain whose first hop is a P-node holds for anyone; it is
    /// one unless it is `sender`, who puts itself in front of what it
    /// forwards, and `sender` is NATted. The sender's own entry and a
    /// chain that starts at a NATted sender hold for a node that reaches
    /// the sender directly; a receiver that was reached over `via`
    /// reaches it over `via` reversed — each relay holds the contact of
    /// the one it took the packet from — and stores that in front, or
    /// nothing if it exceeds `max_route` hops.
    pub fn received(
        &self,
        sender: NodeId,
        sender_public: bool,
        via: &[NodeId],
        via_head_public: bool,
        max_route: usize,
    ) -> Option<Entry> {
        if self.public {
            return Some(Entry::new(self.node, self.age, true, &[]));
        }
        match self.route().first() {
            // Only the target itself vouches for being reachable directly.
            None if self.node != sender => None,
            Some(&head) if head != sender || sender_public => {
                Some(Entry { head_public: true, ..*self })
            }
            _ if via.is_empty() => Some(Entry { head_public: false, ..*self }),
            _ => self.behind(via, via_head_public, max_route),
        }
    }
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("node", &self.node)
            .field("age", &self.age)
            .field("public", &self.public)
            .field("route", &self.route())
            .field("head_public", &self.head_public)
            .finish()
    }
}

/// # Panics
///
/// Panics if the chain has more than [`ROUTE_CAP`] hops.
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

/// Refuses a chain of more than [`ROUTE_CAP`] hops: no honest peer ships
/// one, and no part of it is a chain.
impl WireDecode for Entry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut entry = Entry::new(r.take()?, r.take_u16()?, r.take()?, &[]);
        let hops = r.take_u32()? as usize;
        if hops > ROUTE_CAP {
            return Err(WireError::new("rendezvous chain longer than ROUTE_CAP"));
        }
        for hop in &mut entry.route[..hops] {
            *hop = r.take()?;
        }
        entry.hops = hops as u8;
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
    /// the partner itself), each as `via` forwards it — `via` in front of
    /// a chain that does not start at a P-node, no chain for a public
    /// target, and an entry whose chain is `max_route` hops already left
    /// out.
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
    /// dropped and whose allocation is reused; returns how many entries
    /// were left out for their full chains. Draws from `rng` what a
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
    ) -> usize {
        buffer.clear();
        buffer.push(self_entry);
        buffer.extend(self.entries.iter().filter(|e| e.node != partner && e.node != via));
        buffer[1..].shuffle(rng);
        // The first `len - 1` of the shuffled candidates that can be
        // forwarded, moved up over those that cannot.
        let (mut kept, mut skipped) = (1, 0);
        for at in 1..buffer.len() {
            if kept >= len {
                break;
            }
            match buffer[at].forwarded(via, max_route) {
                Some(entry) => {
                    buffer[kept] = entry;
                    kept += 1;
                }
                None => skipped += 1,
            }
        }
        buffer.truncate(kept);
        skipped
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

    /// `merge` as it was when a view held owned entries, and the
    /// forwarding rule of `make_buffer` spelled out over them: the
    /// oracles of the two tests below.
    mod oracle {
        use super::super::ViewEntry;
        use whisper_net::NodeId;
        use whisper_rand::seq::SliceRandom;
        use whisper_rand::Rng;

        /// `entries` pairs each entry with whether its chain's first hop
        /// is known to be a P-node.
        pub fn make_buffer<R: Rng>(
            entries: &[(ViewEntry, bool)],
            self_entry: ViewEntry,
            partner: NodeId,
            len: usize,
            via: NodeId,
            max_route: usize,
            rng: &mut R,
        ) -> Vec<ViewEntry> {
            let mut buffer = vec![self_entry];
            let mut candidates: Vec<&(ViewEntry, bool)> =
                entries.iter().filter(|(e, _)| e.node != partner && e.node != via).collect();
            candidates.shuffle(rng);
            for (entry, head_public) in candidates {
                if buffer.len() >= len {
                    break;
                }
                let mut forwarded = entry.clone();
                if entry.public {
                    forwarded.route.clear();
                } else if entry.route.is_empty() || !head_public {
                    if entry.route.len() >= max_route {
                        continue; // full: left out, never cut
                    }
                    forwarded.route.insert(0, via);
                }
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
            // Entries as they are stored: received from a sender that is
            // the first hop of some chains, public or not — so some chains
            // start at a P-node and some do not — and, now and then, over
            // a relay.
            let (sender, sender_public) = (NodeId(g.gen_range(0..24u64)), g.gen());
            let relays = g.vec(1, |_| NodeId(30));
            let received = g.vec(12, gen_entry);
            let mut view = View::new();
            view.merge_entries(
                received.iter().filter_map(|e| {
                    Entry::from(e).received(sender, sender_public, &relays, g.gen(), ROUTE_CAP)
                }),
                NodeId(99),
                12,
                0,
                false,
            );
            let with_heads: Vec<(ViewEntry, bool)> =
                view.entries().iter().map(|e| (ViewEntry::from(e), e.head_public)).collect();
            let me = NodeId(g.gen_range(0..24u64));
            let partner = NodeId(g.gen_range(0..24u64));
            let (len, max_route) = (g.gen_range(0..8usize), g.gen_range(0..=ROUTE_CAP));
            let self_entry = ViewEntry { node: me, age: 0, public: g.gen(), route: vec![] };
            let seed = g.gen();
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let mut expected = WireWriter::new();
            expected.put_seq(&oracle::make_buffer(
                &with_heads,
                self_entry.clone(),
                partner,
                len,
                me,
                max_route,
                &mut oracle_rng,
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buffer = vec![Entry::new(NodeId(99), 9, true, &[NodeId(9)])]; // stale scratch
            let skipped = view.fill_buffer(
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
            for shipped in &buffer[1..] {
                assert_eq!(shipped.public, shipped.route().is_empty(), "a chain iff NATted");
            }
            if len > view.len() {
                let candidates = view.nodes().filter(|&n| n != partner && n != me).count();
                assert_eq!(buffer.len() - 1 + skipped, candidates, "left out or shipped");
            }
            assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "same draws");
        });
    }

    #[test]
    fn chains_beyond_the_cap_are_refused_not_cut() {
        use whisper_net::wire::{WireDecode, WireEncode};
        let long: Vec<NodeId> = (1..=5).map(NodeId).collect();
        for hops in 0..=long.len() {
            let route = long[..hops].to_vec();
            let owned = ViewEntry { node: NodeId(9), age: 4, public: false, route };
            let wire = owned.to_wire();
            if hops <= ROUTE_CAP {
                let inline = Entry::from(&owned);
                assert_eq!(inline.route(), &long[..hops]);
                assert_eq!(inline.to_wire(), wire);
                assert_eq!(Entry::from_wire(&wire), Ok(inline));
                assert_eq!(ViewEntry::from_wire(&wire), Ok(owned));
            } else {
                assert!(Entry::from_wire(&wire).is_err(), "{hops} hops");
                assert!(ViewEntry::from_wire(&wire).is_err(), "{hops} hops, owned decoder");
            }
        }
        let short = Entry::new(NodeId(9), 4, false, &long[..2]);
        assert_ne!(short, Entry::new(NodeId(9), 4, false, &long[..1]));
    }

    /// What a receiver stores for each kind of entry a sender ships:
    /// nodes 1–3 are NATted, `P` is public.
    #[test]
    fn a_received_chain_is_one_its_receiver_can_walk() {
        const P: NodeId = NodeId(100);
        let (target, sender, other, relay) = (NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        let shipped = |route: &[NodeId]| Entry::new(target, 5, false, route);
        let direct = |e: Entry, public| e.received(sender, public, &[], false, ROUTE_CAP);
        let relayed = |e: Entry, max| e.received(sender, false, &[relay, P], false, max);

        // Sent directly. A chain that starts at the sender is as public
        // as the sender; any other first hop is one the sender did not
        // have to cover, a P-node.
        let stored = direct(shipped(&[sender, other]), false).unwrap();
        assert_eq!((stored.route(), stored.head_public), (&[sender, other][..], false));
        assert!(direct(shipped(&[sender, other]), true).unwrap().head_public);
        let stored = direct(shipped(&[P, other]), false).unwrap();
        assert_eq!((stored.route(), stored.head_public), (&[P, other][..], true));
        // The sender's own entry holds for whoever heard the sender; an
        // empty chain for another NATted node holds for nobody.
        let own = Entry::new(sender, 0, false, &[]);
        assert_eq!(direct(own, false).unwrap().route(), &[]);
        assert_eq!(direct(shipped(&[]), false), None);
        // A public target needs no chain, whatever was shipped.
        let public = Entry::new(P, 3, true, &[sender]);
        assert_eq!(direct(public, false), Some(Entry::new(P, 3, true, &[])));

        // Relayed over [P, relay] — heard from `relay`. What leans on the
        // sender gets the way back in front, or is not taken when that is
        // too long; what starts at a P-node is left alone.
        let stored = relayed(own, ROUTE_CAP).unwrap();
        assert_eq!((stored.route(), stored.head_public), (&[relay, P][..], false));
        assert_eq!(relayed(shipped(&[sender]), ROUTE_CAP).unwrap().route(), &[relay, P, sender]);
        assert_eq!(relayed(shipped(&[sender, other]), ROUTE_CAP), None);
        assert_eq!(relayed(shipped(&[sender]), 2), None, "max_route, not only the cap");
        assert_eq!(relayed(shipped(&[P, other]), ROUTE_CAP).unwrap().route(), &[P, other]);
        let heard_from_public = own.received(sender, false, &[P], true, ROUTE_CAP).unwrap();
        assert!(heard_from_public.head_public);
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
        let (me, sender, p_node) = (NodeId(42), NodeId(50), NodeId(60));
        let natted = |node: u64, route: &[NodeId]| Entry::new(NodeId(node), 2, false, route);
        let mut v = View::new();
        v.merge_entries(
            [
                // Heard from the NATted sender itself: no chain yet.
                Entry::new(sender, 0, false, &[]),
                // Chains that start at the NATted sender, one of them full.
                natted(5, &[sender, NodeId(51)]),
                natted(6, &[sender, NodeId(51), NodeId(52)]),
                // A chain that starts at a P-node.
                natted(7, &[p_node, NodeId(71)]),
                // A public target, shipped with a chain nobody needs.
                Entry::new(NodeId(8), 1, true, &[sender]),
            ]
            .iter()
            .filter_map(|e| e.received(sender, false, &[], false, ROUTE_CAP)),
            me,
            10,
            0,
            false,
        );
        assert_eq!(v.len(), 5);
        let self_entry = ViewEntry { node: me, age: 0, public: true, route: vec![] };
        let buf = v.make_buffer(self_entry.clone(), NodeId(9), 10, me, ROUTE_CAP, &mut rng);
        assert_eq!(buf[0], self_entry);
        let route_of =
            |node: u64| buf[1..].iter().find(|e| e.node == NodeId(node)).map(|e| e.route.clone());
        assert_eq!(route_of(sender.0), Some(vec![me]), "we heard it, the partner hears us");
        assert_eq!(route_of(5), Some(vec![me, sender, NodeId(51)]), "before a NATted head");
        assert_eq!(route_of(6), None, "a full chain is left out, not cut");
        assert_eq!(route_of(7), Some(vec![p_node, NodeId(71)]), "a P-node head serves anyone");
        assert_eq!(route_of(8), Some(vec![]), "a public target needs no chain");
        assert_eq!(buf.len(), 5);
        let mut buffer = Vec::new();
        let own = Entry::from(&self_entry);
        let skipped = v.fill_buffer(&mut buffer, own, NodeId(9), 10, me, ROUTE_CAP, &mut rng);
        assert_eq!((buffer.len(), skipped), (5, 1));
        // The partner and the forwarder themselves are not shipped.
        let buf = v.make_buffer(self_entry, NodeId(7), 10, sender, ROUTE_CAP, &mut rng);
        assert!(buf[1..].iter().all(|e| e.node != NodeId(7) && e.node != sender));
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
