//! T-Chord (Montresor, Jelasity, Babaoglu \[15\]): gossip-based
//! construction of a Chord ring inside a WHISPER private group — the
//! application experiment of paper §V-G.
//!
//! Every node derives its ring position from its identifier, then runs a
//! T-Man exchange over the PPSS: view exchanges ship `(key, entry)`
//! descriptors; ranking by ring proximity makes views converge to the
//! true ring neighbourhood within a few cycles, while a descriptor
//! directory provides the long links used as fingers. Lookups route
//! greedily (closest preceding neighbour); the reply travels back to the
//! querying node over a *single* WCL path, using the contact information
//! (identity, public key, Π gateway P-nodes) the query ships along —
//! exactly the pattern described for Fig. 9.

use crate::chord::{ChordKey, RingNeighbors};
use crate::tman::{Descriptor, Exchange, TMan};
use std::collections::HashMap;
use whisper_core::{GroupApp, GroupId, PrivateEntry, WhisperApi};
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireSink};
use whisper_net::{NodeId, SimDuration, SimTime};

/// A T-Chord descriptor: a ring position plus the PPSS entry needed to
/// open a confidential route to the node.
#[derive(Clone, Debug, PartialEq)]
pub struct ChordDescriptor {
    /// The node's ring key.
    pub key: ChordKey,
    /// Its private-view entry.
    pub entry: PrivateEntry,
}

impl Descriptor for ChordDescriptor {
    fn entry(&self) -> &PrivateEntry {
        &self.entry
    }
}

impl WireEncode for ChordDescriptor {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_u64(self.key.0);
        w.put(&self.entry);
    }
}

impl WireDecode for ChordDescriptor {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ChordDescriptor { key: ChordKey(r.take_u64()?), entry: r.take()? })
    }
}

/// T-Chord wire messages (inside PPSS `AppData`).
#[derive(Clone, Debug, PartialEq)]
enum TChordMsg {
    Exchange(Exchange<ChordDescriptor>),
    Lookup { query_id: u64, key: ChordKey, origin: ChordDescriptor, hops: u8 },
    LookupReply { query_id: u64, owner: NodeId, owner_key: ChordKey, hops: u8 },
}

impl WireEncode for TChordMsg {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            TChordMsg::Exchange(exchange) => {
                w.put_u8(1);
                w.put(exchange);
            }
            TChordMsg::Lookup { query_id, key, origin, hops } => {
                w.put_u8(2);
                w.put_u64(*query_id);
                w.put_u64(key.0);
                w.put(origin);
                w.put_u8(*hops);
            }
            TChordMsg::LookupReply { query_id, owner, owner_key, hops } => {
                w.put_u8(3);
                w.put_u64(*query_id);
                w.put(owner);
                w.put_u64(owner_key.0);
                w.put_u8(*hops);
            }
        }
    }
}

impl WireDecode for TChordMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            1 => TChordMsg::Exchange(r.take()?),
            2 => TChordMsg::Lookup {
                query_id: r.take_u64()?,
                key: ChordKey(r.take_u64()?),
                origin: r.take()?,
                hops: r.take_u8()?,
            },
            3 => TChordMsg::LookupReply {
                query_id: r.take_u64()?,
                owner: r.take()?,
                owner_key: ChordKey(r.take_u64()?),
                hops: r.take_u8()?,
            },
            _ => return Err(WireError::new("unknown T-Chord tag")),
        })
    }
}

/// T-Chord configuration.
#[derive(Clone, Debug)]
pub struct TChordConfig {
    /// T-Man exchange period.
    pub cycle: SimDuration,
    /// Ranked-view capacity.
    pub view_cap: usize,
    /// Descriptors shipped per exchange.
    pub exchange_len: usize,
    /// Successor-list length.
    pub successors: usize,
    /// Lookup hop budget.
    pub lookup_ttl: u8,
    /// Re-issue a lookup if no reply arrived after this long.
    pub lookup_retry: SimDuration,
    /// Give up after this many (re-)issues.
    pub lookup_attempts: u32,
}

impl Default for TChordConfig {
    fn default() -> Self {
        TChordConfig {
            cycle: SimDuration::from_secs(30),
            view_cap: 20,
            exchange_len: 8,
            successors: 3,
            lookup_ttl: 32,
            lookup_retry: SimDuration::from_secs(15),
            lookup_attempts: 4,
        }
    }
}

/// A completed lookup, as recorded at the querying node.
#[derive(Clone, Debug, PartialEq)]
pub struct LookupResult {
    /// The query.
    pub query_id: u64,
    /// The key looked up.
    pub key: ChordKey,
    /// The responding owner.
    pub owner: NodeId,
    /// Routing hops taken.
    pub hops: u8,
    /// End-to-end delay (issue → reply).
    pub delay: whisper_net::SimDuration,
}

const TCHORD_TIMER: u64 = 2;

#[derive(Clone, Debug)]
struct PendingLookup {
    key: ChordKey,
    started: SimTime,
    last_sent: SimTime,
    attempts: u32,
}

/// The T-Chord application.
#[derive(Debug)]
pub struct TChordApp {
    group: GroupId,
    cfg: TChordConfig,
    my_key: Option<ChordKey>,
    tman: TMan<ChordDescriptor>,
    neighbors: RingNeighbors,
    pending: HashMap<u64, PendingLookup>,
    completed: Vec<LookupResult>,
    next_query: u64,
}

impl TChordApp {
    /// Creates the app for `group`.
    pub fn new(group: GroupId, cfg: TChordConfig) -> Self {
        TChordApp {
            group,
            tman: TMan::new(cfg.view_cap, cfg.exchange_len),
            cfg,
            my_key: None,
            neighbors: RingNeighbors::default(),
            pending: HashMap::new(),
            completed: Vec::new(),
            next_query: 1,
        }
    }

    /// This node's ring key (known after start).
    pub fn my_key(&self) -> Option<ChordKey> {
        self.my_key
    }

    /// The current ring neighbour selection.
    pub fn neighbors(&self) -> &RingNeighbors {
        &self.neighbors
    }

    /// Completed lookups, in completion order.
    pub fn completed(&self) -> &[LookupResult] {
        &self.completed
    }

    /// Outstanding lookups.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// T-Man cycles run.
    pub fn cycles(&self) -> u64 {
        self.tman.cycles()
    }

    /// Issues a lookup for `key`; the result lands in
    /// [`completed`](Self::completed). Returns the query id, or `None`
    /// when the node has no routing state yet.
    pub fn lookup(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        key: ChordKey,
    ) -> Option<u64> {
        let me = self.ensure_key(api);
        let query_id = self.next_query;
        self.next_query += 1;
        if self.neighbors.owns(me, key) {
            // We hold the key ourselves: zero network hops.
            self.completed.push(LookupResult {
                query_id,
                key,
                owner: api.id(),
                hops: 0,
                delay: whisper_net::SimDuration::ZERO,
            });
            return Some(query_id);
        }
        let origin = ChordDescriptor { key: me, entry: api.my_entry() };
        let msg = TChordMsg::Lookup { query_id, key, origin, hops: 0 };
        self.pending.insert(
            query_id,
            PendingLookup { key, started: ctx.now(), last_sent: ctx.now(), attempts: 1 },
        );
        if !self.route(ctx, api, key, &msg) {
            self.pending.remove(&query_id);
            return None;
        }
        Some(query_id)
    }

    /// Re-issues lookups whose replies are overdue (confidential routes
    /// are lossy under stale gateway information; the issuer retries,
    /// mirroring the WCL's alternative-path policy).
    fn retry_stale_lookups(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>) {
        let now = ctx.now();
        let retry_after = self.cfg.lookup_retry;
        let max_attempts = self.cfg.lookup_attempts;
        let me = self.ensure_key(api);
        let stale: Vec<(u64, ChordKey)> = self
            .pending
            .iter()
            .filter(|(_, p)| now.since(p.last_sent) >= retry_after)
            .map(|(id, p)| (*id, p.key))
            .collect();
        for (query_id, key) in stale {
            let p = self.pending.get_mut(&query_id).expect("listed");
            if p.attempts >= max_attempts {
                self.pending.remove(&query_id);
                ctx.metrics().count("tchord.lookups_abandoned", 1);
                continue;
            }
            p.attempts += 1;
            p.last_sent = now;
            let origin = ChordDescriptor { key: me, entry: api.my_entry() };
            let msg = TChordMsg::Lookup { query_id, key, origin, hops: 0 };
            ctx.metrics().count("tchord.lookups_retried", 1);
            self.route(ctx, api, key, &msg);
        }
    }

    fn ensure_key(&mut self, api: &WhisperApi<'_>) -> ChordKey {
        *self.my_key.get_or_insert_with(|| ChordKey::of_node(api.id()))
    }

    fn rank_of(me: ChordKey, d: &ChordDescriptor) -> u64 {
        // Symmetric ring proximity: keeps both successors and
        // predecessors; fingers come from the directory.
        me.cw_distance(d.key).min(d.key.cw_distance(me))
    }

    fn reselect(&mut self, me: ChordKey) {
        let candidates: Vec<(ChordKey, NodeId)> =
            self.tman.directory.values().map(|d| (d.key, d.node())).collect();
        self.neighbors = RingNeighbors::select(me, &candidates, self.cfg.successors);
    }

    /// Seeds the candidate pool from the PPSS private view.
    fn seed_from_ppss(&mut self, api: &WhisperApi<'_>) {
        let me = self.ensure_key(api);
        let descriptors: Vec<ChordDescriptor> = api
            .private_view(self.group)
            .iter()
            .map(|e| ChordDescriptor { key: ChordKey::of_node(e.node), entry: e.clone() })
            .collect();
        self.tman.learn(api.id(), descriptors, |d| Self::rank_of(me, d));
        self.reselect(me);
    }

    fn my_descriptor(&mut self, api: &WhisperApi<'_>) -> ChordDescriptor {
        ChordDescriptor { key: self.ensure_key(api), entry: api.my_entry() }
    }

    /// Routes `msg` greedily towards `key`. Returns `false` when no next
    /// hop is known.
    fn route(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        key: ChordKey,
        msg: &TChordMsg,
    ) -> bool {
        let me = self.ensure_key(api);
        let Some((_, next)) = self.neighbors.next_hop(me, key) else {
            ctx.metrics().count("tchord.no_route", 1);
            return false;
        };
        let Some(target) = self.tman.directory.get(&next).cloned() else {
            ctx.metrics().count("tchord.no_route", 1);
            return false;
        };
        api.send_private_to_entry(ctx, self.group, &target.entry, msg.to_wire(), false)
    }
}

impl GroupApp for TChordApp {
    fn on_joined(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if group == self.group {
            self.ensure_key(api);
            api.set_app_timer(ctx, self.cfg.cycle, TCHORD_TIMER);
        }
    }

    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_>, _api: &mut WhisperApi<'_>) {
        // In-flight lookups reference WCL message state that died with
        // the process; the routing view, directory and ring neighbours
        // are volatile caches the T-Man cycle regrows from the PPSS.
        // Completed lookups were already surfaced to the caller and the
        // ring key is re-derived deterministically from the node id.
        self.pending.clear();
        self.tman.clear();
        self.neighbors = RingNeighbors::default();
    }

    fn on_view_updated(&mut self, _ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if group == self.group {
            self.seed_from_ppss(api);
        }
    }

    fn on_member_unreachable(
        &mut self,
        _ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        node: NodeId,
    ) {
        if group != self.group {
            return;
        }
        // Drop the dead member from all routing state and re-derive the
        // ring neighbours (Chord stabilization on failure).
        self.tman.forget(node);
        let me = self.ensure_key(api);
        self.reselect(me);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, token: u64) {
        if token != TCHORD_TIMER {
            return;
        }
        api.set_app_timer(ctx, self.cfg.cycle, TCHORD_TIMER);
        self.seed_from_ppss(api);
        self.retry_stale_lookups(ctx, api);
        let mine = self.my_descriptor(api);
        let Some((partner, offer)) = self.tman.start(ctx.rng(), api.private_view(self.group), mine)
        else {
            return;
        };
        ctx.metrics().count("tchord.exchanges", 1);
        let offer = TChordMsg::Exchange(offer).to_wire();
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
        let Ok(msg) = TChordMsg::from_wire(data) else {
            return;
        };
        match msg {
            TChordMsg::Exchange(exchange) => {
                let me = self.ensure_key(api);
                let mine = self.my_descriptor(api);
                let rank = |d: &ChordDescriptor| Self::rank_of(me, d);
                let answer = self.tman.on_exchange(api.id(), exchange, mine, rank);
                self.reselect(me);
                if let Some((partner, answer)) = answer {
                    let answer = TChordMsg::Exchange(answer).to_wire();
                    api.send_private_to_entry(ctx, self.group, &partner, answer, false);
                }
            }
            TChordMsg::Lookup { query_id, key, origin, hops } => {
                let me = self.ensure_key(api);
                // Learn the originator on the way (free ring maintenance).
                self.tman.directory.insert(origin.node(), origin.clone());
                if self.neighbors.owns(me, key) {
                    let reply = TChordMsg::LookupReply {
                        query_id,
                        owner: api.id(),
                        owner_key: me,
                        hops: hops + 1,
                    };
                    ctx.metrics().count("tchord.lookups_answered", 1);
                    // Single WCL path straight back to the querying node,
                    // using the shipped contact info.
                    api.send_private_to_entry(
                        ctx,
                        self.group,
                        &origin.entry,
                        reply.to_wire(),
                        false,
                    );
                } else if hops >= self.cfg.lookup_ttl {
                    ctx.metrics().count("tchord.lookups_ttl_exceeded", 1);
                } else {
                    let fwd = TChordMsg::Lookup { query_id, key, origin, hops: hops + 1 };
                    ctx.metrics().count("tchord.lookups_forwarded", 1);
                    self.route(ctx, api, key, &fwd);
                }
            }
            TChordMsg::LookupReply { query_id, owner, owner_key, hops } => {
                if let Some(p) = self.pending.remove(&query_id) {
                    let _ = owner_key;
                    self.completed.push(LookupResult {
                        query_id,
                        key: p.key,
                        owner,
                        hops,
                        delay: ctx.now().since(p.started),
                    });
                    ctx.metrics().count("tchord.lookups_completed", 1);
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
    fn descriptor_wire_round_trip() {
        use whisper_rand::SeedableRng;
        use whisper_crypto::rsa::{KeyPair, RsaKeySize};
        let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let d = ChordDescriptor {
            key: ChordKey(42),
            entry: PrivateEntry {
                node: NodeId(7),
                age: 0,
                public: true,
                key: kp.public().clone(),
                gateways: vec![],
            },
        };
        assert_eq!(ChordDescriptor::from_wire(&d.to_wire()).unwrap(), d);
        let msg = TChordMsg::Lookup {
            query_id: 9,
            key: ChordKey(1),
            origin: d.clone(),
            hops: 3,
        };
        assert_eq!(TChordMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        let msg = TChordMsg::LookupReply {
            query_id: 9,
            owner: NodeId(3),
            owner_key: ChordKey(1),
            hops: 4,
        };
        assert_eq!(TChordMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        let msg = TChordMsg::Exchange(Exchange { descriptors: vec![d], respond: true });
        assert_eq!(TChordMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        assert!(TChordMsg::from_wire(&[7]).is_err());
    }

    #[test]
    fn config_defaults() {
        let c = TChordConfig::default();
        assert_eq!(c.cycle.as_secs(), 30);
        assert!(c.view_cap >= c.exchange_len);
    }
}
