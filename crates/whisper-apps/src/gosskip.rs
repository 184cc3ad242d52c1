//! GosSkip (Guerraoui et al. \[13\]): a gossip-built, skip-list-like sorted
//! overlay — one of the overlay construction protocols the paper lists as
//! PPSS applications. Unlike Chord's hashed ring, GosSkip keeps
//! *application order*, so it answers range queries: "all members with
//! keys in `[a, b]`".
//!
//! Simplified construction, faithful in structure:
//!
//! * every member owns an application key (here: any `u64`);
//! * every member deterministically has a *level* `ℓ` with probability
//!   `2^-ℓ` (derived from a hash of its identifier, as in skip graphs);
//! * T-Man-style gossip converges each member's neighbour table towards
//!   its nearest left/right neighbours **per level**;
//! * searches descend: long hops at high levels, short hops at level 0;
//! * range queries walk the level-0 list.
//!
//! All traffic runs inside a private group over WCL routes.

use crate::tman::{Descriptor, Exchange, TMan};
use std::collections::HashMap;
use whisper_core::{GroupApp, GroupId, PrivateEntry, WhisperApi};
use whisper_crypto::sha256::Sha256;
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode};
use whisper_net::{NodeId, SimDuration, SimTime};

/// The deterministic skip level of a node: number of trailing zero bits
/// of a hash of its id, capped. Level ℓ occurs with probability 2^-ℓ.
pub fn level_of(node: NodeId) -> u8 {
    let digest = Sha256::digest(&node.to_bytes());
    let v = u64::from_be_bytes(digest[8..16].try_into().expect("8 bytes"));
    (v.trailing_zeros() as u8).min(15)
}

/// A GosSkip descriptor: application key, skip level, contact entry.
#[derive(Clone, Debug, PartialEq)]
pub struct SkipDescriptor {
    /// The member's application key (sort order).
    pub key: u64,
    /// The member's skip level.
    pub level: u8,
    /// Contact information.
    pub entry: PrivateEntry,
}

impl Descriptor for SkipDescriptor {
    fn entry(&self) -> &PrivateEntry {
        &self.entry
    }
}

whisper_net::wire_format!(SkipDescriptor { key, level, entry });

#[derive(Clone, Debug, PartialEq)]
enum SkipMsg {
    Exchange(Exchange<SkipDescriptor>),
    Search { query_id: u64, target: u64, origin: SkipDescriptor, hops: u8 },
    SearchReply { query_id: u64, owner: NodeId, owner_key: u64, hops: u8 },
    Range { query_id: u64, lo: u64, hi: u64, origin: SkipDescriptor, acc: Vec<u64>, hops: u8 },
    RangeReply { query_id: u64, keys: Vec<u64> },
}

whisper_net::wire_format!(enum SkipMsg, "unknown GosSkip tag" {
    1 => Exchange(exchange),
    2 => Search { query_id, target, origin, hops },
    3 => SearchReply { query_id, owner, owner_key, hops },
    4 => Range { query_id, lo, hi, origin, acc: seq, hops },
    5 => RangeReply { query_id, keys: seq },
});

/// Gossip period.
const CYCLE: SimDuration = SimDuration::from_secs(30);

/// Search and range hop budget.
const TTL: u8 = 48;

/// A completed point search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// The query.
    pub query_id: u64,
    /// The target key.
    pub target: u64,
    /// The answering owner.
    pub owner: NodeId,
    /// The owner's key.
    pub owner_key: u64,
    /// Hops taken.
    pub hops: u8,
    /// End-to-end delay.
    pub delay: SimDuration,
}

/// A completed range query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeResult {
    /// The query.
    pub query_id: u64,
    /// Keys found in `[lo, hi]`.
    pub keys: Vec<u64>,
    /// End-to-end delay.
    pub delay: SimDuration,
}

const SKIP_TIMER: u64 = 4;

/// The GosSkip application.
#[derive(Debug)]
pub struct GosSkipApp {
    group: GroupId,
    my_key: u64,
    my_level: Option<u8>,
    tman: TMan<SkipDescriptor>,
    pending_search: HashMap<u64, (u64, SimTime)>,
    pending_range: HashMap<u64, SimTime>,
    searches: Vec<SearchResult>,
    ranges: Vec<RangeResult>,
    next_query: u64,
}

impl GosSkipApp {
    /// Creates the app for `group`; `key` is this member's application
    /// key (the sort dimension).
    pub fn new(group: GroupId, key: u64) -> Self {
        GosSkipApp {
            group,
            tman: TMan::default(),
            my_key: key,
            my_level: None,
            pending_search: HashMap::new(),
            pending_range: HashMap::new(),
            searches: Vec::new(),
            ranges: Vec::new(),
            next_query: 1,
        }
    }

    /// This member's application key.
    pub fn key(&self) -> u64 {
        self.my_key
    }

    /// Completed point searches.
    pub fn searches(&self) -> &[SearchResult] {
        &self.searches
    }

    /// Completed range queries.
    pub fn ranges(&self) -> &[RangeResult] {
        &self.ranges
    }

    /// The current left/right neighbours at level 0, if known.
    pub fn list_neighbors(&self) -> (Option<&SkipDescriptor>, Option<&SkipDescriptor>) {
        let left = self
            .tman
            .directory
            .values()
            .filter(|d| d.key < self.my_key)
            .max_by_key(|d| (d.key, d.node()));
        let right = self
            .tman
            .directory
            .values()
            .filter(|d| d.key > self.my_key)
            .min_by_key(|d| (d.key, d.node()));
        (left, right)
    }

    fn my_descriptor(&mut self, api: &WhisperApi<'_>) -> SkipDescriptor {
        let level = *self.my_level.get_or_insert_with(|| level_of(api.id()));
        SkipDescriptor { key: self.my_key, level, entry: api.my_entry() }
    }

    fn rank(me: u64, d: &SkipDescriptor) -> u64 {
        // Nearest-in-key-space, with a bonus for high-level nodes so the
        // view keeps the long links a skip structure needs.
        let dist = me.abs_diff(d.key);
        dist >> d.level.min(8)
    }

    fn seed_from_ppss(&mut self, api: &WhisperApi<'_>) {
        // PPSS entries carry no application key; GosSkip only learns keys
        // from its own exchanges. Until a member's own exchange arrives,
        // its directory descriptor carries an *estimated* key, derived the
        // way members derive their default keys.
        for entry in api.private_view(self.group) {
            self.tman.directory.entry(entry.node).or_insert_with(|| SkipDescriptor {
                key: default_key_of(entry.node),
                level: level_of(entry.node),
                entry: entry.clone(),
            });
        }
    }

    /// Greedy skip routing: the known node closest to `target` without
    /// regard to direction, strictly closer than us.
    fn next_hop(&self, target: u64) -> Option<&SkipDescriptor> {
        let my_dist = self.my_key.abs_diff(target);
        self.tman
            .directory
            .values()
            .filter(|d| d.key.abs_diff(target) < my_dist)
            .min_by_key(|d| (d.key.abs_diff(target), d.node()))
    }

    /// Whether this member owns `target`: no known member is closer.
    fn owns(&self, target: u64) -> bool {
        self.next_hop(target).is_none()
    }

    /// Issues a point search for `target`.
    pub fn search(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        target: u64,
    ) -> Option<u64> {
        let query_id = self.next_query;
        self.next_query += 1;
        if self.owns(target) {
            self.searches.push(SearchResult {
                query_id,
                target,
                owner: api.id(),
                owner_key: self.my_key,
                hops: 0,
                delay: SimDuration::ZERO,
            });
            return Some(query_id);
        }
        let origin = self.my_descriptor(api);
        let msg = SkipMsg::Search { query_id, target, origin, hops: 0 };
        self.pending_search.insert(query_id, (target, ctx.now()));
        if !self.forward(ctx, api, target, &msg) {
            self.pending_search.remove(&query_id);
            return None;
        }
        Some(query_id)
    }

    /// Issues a range query for `[lo, hi]`: routes to the owner of `lo`,
    /// then walks right through level-0 successors accumulating keys.
    pub fn range(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        lo: u64,
        hi: u64,
    ) -> Option<u64> {
        assert!(lo <= hi, "empty range");
        let query_id = self.next_query;
        self.next_query += 1;
        let origin = self.my_descriptor(api);
        self.pending_range.insert(query_id, ctx.now());
        let msg = SkipMsg::Range { query_id, lo, hi, origin, acc: vec![], hops: 0 };
        // Deliver locally if we own `lo`.
        if self.owns(lo) {
            self.handle_range(ctx, api, msg);
            return Some(query_id);
        }
        if !self.forward(ctx, api, lo, &msg) {
            self.pending_range.remove(&query_id);
            return None;
        }
        Some(query_id)
    }

    fn forward(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        target: u64,
        msg: &SkipMsg,
    ) -> bool {
        let Some(next) = self.next_hop(target).cloned() else {
            ctx.metrics().count("gosskip.no_route", 1);
            return false;
        };
        api.send_private_to_entry(ctx, self.group, &next.entry, msg.to_wire(), false)
    }

    fn handle_range(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, msg: SkipMsg) {
        let SkipMsg::Range { query_id, lo, hi, origin, mut acc, hops } = msg else {
            return;
        };
        if (lo..=hi).contains(&self.my_key) {
            acc.push(self.my_key);
        }
        // Continue right along the sorted list while successors can still
        // fall inside the range.
        let right = self.list_neighbors().1.cloned();
        let continue_right = right.as_ref().is_some_and(|r| r.key <= hi);
        if continue_right && hops < TTL {
            let next = right.expect("checked");
            let fwd = SkipMsg::Range { query_id, lo, hi, origin, acc, hops: hops + 1 };
            api.send_private_to_entry(ctx, self.group, &next.entry, fwd.to_wire(), false);
        } else {
            // Done: report back to the origin over a single WCL path.
            let reply = SkipMsg::RangeReply { query_id, keys: acc };
            if origin.node() == api.id() {
                // Local origin: record directly.
                if let SkipMsg::RangeReply { query_id, keys } = reply {
                    if let Some(start) = self.pending_range.remove(&query_id) {
                        self.ranges.push(RangeResult {
                            query_id,
                            keys,
                            delay: ctx.now().since(start),
                        });
                    }
                }
            } else {
                api.send_private_to_entry(ctx, self.group, &origin.entry, reply.to_wire(), false);
            }
        }
    }
}

/// The default application key of a node when none is known yet: a hash
/// of its identifier (members using explicit keys override it through
/// their exchanges).
pub fn default_key_of(node: NodeId) -> u64 {
    let digest = Sha256::digest(&node.to_bytes());
    u64::from_be_bytes(digest[16..24].try_into().expect("8 bytes"))
}

impl GroupApp for GosSkipApp {
    fn on_joined(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if group == self.group {
            self.my_level = Some(level_of(api.id()));
            api.set_app_timer(ctx, CYCLE, SKIP_TIMER);
        }
    }

    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_>, _api: &mut WhisperApi<'_>) {
        // Outstanding searches can never resolve (their reply path died
        // with the process); the skip-graph view and directory are
        // volatile caches regrown by the T-Man cycle. Results already
        // surfaced stay, and the level is re-derived from the node id.
        self.pending_search.clear();
        self.pending_range.clear();
        self.tman.clear();
        self.my_level = None;
    }

    fn on_view_updated(&mut self, _ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if group == self.group {
            self.seed_from_ppss(api);
        }
    }

    fn on_member_unreachable(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _api: &mut WhisperApi<'_>,
        group: GroupId,
        node: NodeId,
    ) {
        if group != self.group {
            return;
        }
        self.tman.forget(node);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, token: u64) {
        if token != SKIP_TIMER {
            return;
        }
        api.set_app_timer(ctx, CYCLE, SKIP_TIMER);
        self.seed_from_ppss(api);
        let mine = self.my_descriptor(api);
        let Some((partner, offer)) = self.tman.start(ctx.rng(), api.private_view(self.group), mine)
        else {
            return;
        };
        ctx.metrics().count("gosskip.exchanges", 1);
        let offer = SkipMsg::Exchange(offer).to_wire();
        api.send_private_to_entry(ctx, self.group, &partner, offer, false);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        _from: NodeId,
        data: &[u8],
        _reply_entry: Option<PrivateEntry>,
    ) {
        if group != self.group {
            return;
        }
        let Ok(msg) = SkipMsg::from_wire(data) else {
            return;
        };
        match msg {
            SkipMsg::Exchange(exchange) => {
                let (me, mine) = (self.my_key, self.my_descriptor(api));
                if let Some((partner, answer)) =
                    self.tman.on_exchange(api.id(), exchange, mine, |d| Self::rank(me, d))
                {
                    let answer = SkipMsg::Exchange(answer).to_wire();
                    api.send_private_to_entry(ctx, self.group, &partner, answer, false);
                }
            }
            SkipMsg::Search { query_id, target, origin, hops } => {
                self.tman.directory.insert(origin.node(), origin.clone());
                if self.owns(target) {
                    let reply = SkipMsg::SearchReply {
                        query_id,
                        owner: api.id(),
                        owner_key: self.my_key,
                        hops: hops + 1,
                    };
                    ctx.metrics().count("gosskip.searches_answered", 1);
                    api.send_private_to_entry(
                        ctx,
                        self.group,
                        &origin.entry,
                        reply.to_wire(),
                        false,
                    );
                } else if hops < TTL {
                    let fwd = SkipMsg::Search { query_id, target, origin, hops: hops + 1 };
                    self.forward(ctx, api, target, &fwd);
                }
            }
            SkipMsg::SearchReply { query_id, owner, owner_key, hops } => {
                if let Some((target, start)) = self.pending_search.remove(&query_id) {
                    self.searches.push(SearchResult {
                        query_id,
                        target,
                        owner,
                        owner_key,
                        hops,
                        delay: ctx.now().since(start),
                    });
                }
            }
            msg @ SkipMsg::Range { .. } => {
                self.handle_range(ctx, api, msg);
            }
            SkipMsg::RangeReply { query_id, keys } => {
                if let Some(start) = self.pending_range.remove(&query_id) {
                    self.ranges.push(RangeResult {
                        query_id,
                        keys,
                        delay: ctx.now().since(start),
                    });
                }
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_follow_geometric_distribution() {
        let mut by_level = [0usize; 16];
        for i in 0..4096u64 {
            by_level[level_of(NodeId(i)) as usize] += 1;
        }
        // Roughly half the nodes at level 0, a quarter at level 1, ...
        assert!((by_level[0] as f64 / 4096.0 - 0.5).abs() < 0.05);
        assert!((by_level[1] as f64 / 4096.0 - 0.25).abs() < 0.05);
        assert!(by_level[4] < by_level[1]);
    }

    #[test]
    fn wire_round_trips() {
        use whisper_rand::SeedableRng;
        use whisper_crypto::rsa::{KeyPair, RsaKeySize};
        let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let d = SkipDescriptor {
            key: 42,
            level: 3,
            entry: PrivateEntry {
                node: NodeId(7),
                age: 0,
                public: true,
                key: kp.public().clone(),
                gateways: vec![],
            },
        };
        for msg in [
            SkipMsg::Exchange(Exchange { descriptors: vec![d.clone()], respond: true }),
            SkipMsg::Search { query_id: 1, target: 9, origin: d.clone(), hops: 2 },
            SkipMsg::SearchReply { query_id: 1, owner: NodeId(3), owner_key: 8, hops: 3 },
            SkipMsg::Range {
                query_id: 2,
                lo: 1,
                hi: 5,
                origin: d,
                acc: vec![2, 3],
                hops: 1,
            },
            SkipMsg::RangeReply { query_id: 2, keys: vec![2, 3, 4] },
        ] {
            assert_eq!(SkipMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        }
        assert!(SkipMsg::from_wire(&[77]).is_err());
    }

    #[test]
    fn wire_bytes_are_pinned() {
        use whisper_rand::SeedableRng;
        use whisper_crypto::rsa::{KeyPair, RsaKeySize};
        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut whisper_rand::rngs::StdRng::seed_from_u64(3));
        let entry = PrivateEntry { node: NodeId(7), age: 0, public: true, key: kp.public().clone(), gateways: vec![] };
        let d = SkipDescriptor { key: 42, level: 3, entry };
        let u = |v: u64| v.to_be_bytes();
        let d_image = [&u(42)[..], &[3], &u(7), &[0, 0, 1], &kp.public().to_wire(), &[0]].concat();
        for (msg, bytes) in [
            (
                SkipMsg::Exchange(Exchange { descriptors: vec![d.clone()], respond: true }),
                [&[1, 1][..], &d_image, &[1]].concat(),
            ),
            (
                SkipMsg::Search { query_id: 1, target: 9, origin: d.clone(), hops: 2 },
                [&[2][..], &u(1), &u(9), &d_image, &[2]].concat(),
            ),
            (
                SkipMsg::SearchReply { query_id: 1, owner: NodeId(3), owner_key: 8, hops: 3 },
                [&[3][..], &u(1), &u(3), &u(8), &[3]].concat(),
            ),
            (
                SkipMsg::Range { query_id: 2, lo: 1, hi: 5, origin: d, acc: vec![2, 3], hops: 1 },
                [&[4][..], &u(2), &u(1), &u(5), &d_image, &[2], &u(2), &u(3), &[1]].concat(),
            ),
            (
                SkipMsg::RangeReply { query_id: 2, keys: vec![2, 3, 4] },
                [&[5][..], &u(2), &[3], &u(2), &u(3), &u(4)].concat(),
            ),
        ] {
            assert_eq!(msg.to_wire(), bytes, "{msg:?}");
            assert_eq!(SkipMsg::from_wire(&bytes), Ok(msg));
        }
    }

    #[test]
    fn default_keys_are_spread() {
        let a = default_key_of(NodeId(1));
        let b = default_key_of(NodeId(2));
        assert_ne!(a, b);
        assert_eq!(a, default_key_of(NodeId(1)));
    }
}
