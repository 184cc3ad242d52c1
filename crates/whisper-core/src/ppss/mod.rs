//! The private peer sampling service (paper §IV).
//!
//! One [`Ppss`] instance manages all the private groups a node belongs
//! to; every group is handled independently (a node never discloses one
//! group's membership to another group's members). All PPSS traffic —
//! join handshakes, private view exchanges, application data, persistent
//! path refreshes — travels through WCL onion routes, so neither content
//! nor the fact that two members talk is visible to outsiders.

pub mod descriptor;
pub mod election;
mod exchange;
pub mod group;
pub mod journal;
mod lifecycle;
pub mod messages;

use crate::wcl::{Arrival, Preamble, Wcl};
use election::{ElectionOutcome, LeaderTracker};
use group::{GroupId, Passport, PassportMemo};
use journal::Journal;
use lifecycle::PendingJoin;
pub use messages::PrivateEntry;
use messages::{app_short_len, NewKeyAnnouncement, PpssMsg};
use std::collections::{BTreeMap, BTreeSet};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode, WireReader};
use whisper_net::{NodeId, SimDuration};
use whisper_pss::timer;
use whisper_rand::Rng;

/// Entries shipped per exchange (paper: 5).
pub const GOSSIP_LEN: usize = 5;
/// PPSS cycle period (paper: 1 minute).
pub const CYCLE: SimDuration = SimDuration::from_secs(60);
/// PCP refresh period (lower frequency than gossip; bounded by the NAT
/// association lease).
pub const PCP_REFRESH: SimDuration = SimDuration::from_secs(120);
/// Heartbeat-silent cycles before a leader election starts.
pub const HB_MISS_THRESHOLD: u64 = 4;
/// Aggregation cycles before an election round is decided.
pub const ELECTION_CYCLES: u64 = 3;

/// PPSS configuration.
#[derive(Clone, Debug)]
pub struct PpssConfig {
    /// Private view size per group.
    ///
    /// Must be strictly larger than [`GOSSIP_LEN`]: when every exchange
    /// ships the whole view, age-0 copies of a *dead* member's entry
    /// replicate faster than holders age them (each transfer duplicates
    /// the freshest copy), and views freeze at an all-fresh fixed point
    /// in which failed nodes are never pruned. Shipping a strict subset
    /// keeps the duplication rate below the aging rate, which is exactly
    /// why the classic PSS exchanges `c/2` of `c` entries.
    pub view_size: usize,
}

impl PpssConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when `view_size <= GOSSIP_LEN` (see `view_size` docs: a
    /// full-view exchange breaks failure pruning).
    pub fn validate(&self) {
        assert!(GOSSIP_LEN < self.view_size, "PPSS view_size must exceed GOSSIP_LEN");
    }
}

impl Default for PpssConfig {
    fn default() -> Self {
        PpssConfig { view_size: 8 }
    }
}

/// Upcalls from the PPSS.
#[derive(Clone, Debug, PartialEq)]
pub enum PpssEvent {
    /// The join handshake for `group` completed; the node is a member.
    Joined {
        /// The group.
        group: GroupId,
    },
    /// The private view of `group` changed.
    ViewUpdated {
        /// The group.
        group: GroupId,
    },
    /// Application data from a fellow group member.
    AppMessage {
        /// The group.
        group: GroupId,
        /// The authenticated sender (passport-verified).
        from: NodeId,
        /// Application bytes.
        data: Vec<u8>,
        /// The sender's entry, when it shipped one for replies.
        reply_entry: Option<PrivateEntry>,
    },
    /// A member could not be reached over any WCL route and was dropped
    /// from the private view.
    MemberUnreachable {
        /// The group.
        group: GroupId,
        /// The dropped member.
        node: NodeId,
    },
    /// This node won a leader election.
    BecameLeader {
        /// The group.
        group: GroupId,
        /// The new leadership epoch.
        epoch: u64,
    },
    /// A verified deletion descriptor arrived (or this node deleted the
    /// group locally): all group state is gone, and the tombstone makes
    /// re-joining or re-creating the group impossible forever.
    GroupDeleted {
        /// The deleted group.
        group: GroupId,
    },
}

/// State of one group membership.
pub struct GroupState {
    /// Group key history, oldest first; the last entry is current.
    key_history: Vec<PublicKey>,
    /// The group private key (leaders only).
    leader_key: Option<KeyPair>,
    /// Our passport.
    passport: Passport,
    /// The private view.
    view: Vec<PrivateEntry>,
    /// Persistent connection pool: entries kept fresh independently of
    /// the view.
    pcp: BTreeMap<NodeId, PrivateEntry>,
    /// Leader liveness / election state.
    tracker: LeaderTracker,
    /// Latest verified key announcement, piggybacked for dissemination.
    latest_announcement: Option<NewKeyAnnouncement>,
    /// The nodes revoked from the group, as a leader revoked them or an
    /// exchange brought them: grow-only, merged by union, shipped whole in
    /// every exchange (sealed by the WCL, behind the passport check).
    revoked: BTreeSet<NodeId>,
    /// Peers' passports already verified against `key_history` (which
    /// only grows, so a remembered pass stays a pass). Volatile: it is
    /// born empty with the state, on join and on journal replay alike.
    verified: PassportMemo,
}

impl GroupState {
    /// The current private view.
    pub fn view(&self) -> &[PrivateEntry] {
        &self.view
    }

    /// Whether this node holds the group private key.
    pub fn is_leader(&self) -> bool {
        self.leader_key.is_some()
    }

    /// The group key history (oldest first).
    pub fn key_history(&self) -> &[PublicKey] {
        &self.key_history
    }

    /// The persistent connection pool entries.
    pub fn pcp(&self) -> &BTreeMap<NodeId, PrivateEntry> {
        &self.pcp
    }

    /// Current leadership epoch.
    pub fn epoch(&self) -> u64 {
        self.tracker.epoch
    }

    /// The nodes this member knows to be revoked from the group.
    pub fn revoked(&self) -> &BTreeSet<NodeId> {
        &self.revoked
    }

    /// This node's own passport for the group.
    pub fn passport(&self) -> &Passport {
        &self.passport
    }

    /// The memo of verified peer passports (diagnostics).
    pub fn verified_passports(&self) -> &PassportMemo {
        &self.verified
    }

    /// Whether `passport` proves membership of `group` (this state's
    /// group) under the key history, and this node has not learned that
    /// its holder was revoked since it was issued.
    fn admits(&mut self, group: GroupId, passport: &Passport) -> bool {
        self.verified.verify(passport, group, &self.key_history)
            && !self.revoked.contains(&passport.node)
    }

    fn current_key(&self) -> &PublicKey {
        self.key_history.last().expect("non-empty history")
    }
}

/// The private peer sampling service of one node.
pub struct Ppss {
    cfg: PpssConfig,
    /// Boxed: a B-tree node holds eleven values, so inline states would
    /// take eleven states' room for the one or two groups a node has.
    groups: BTreeMap<GroupId, Box<GroupState>>,
    pending_joins: BTreeMap<GroupId, PendingJoin>,
    started: bool,
    cycles_run: u64,
    /// The node's "disk": every durable group change is appended here,
    /// and [`Ppss::on_restart`] rebuilds the group table *only* from a
    /// replay of it.
    journal: Journal,
    /// Groups whose deletion this node has verified, each with the signed
    /// tombstone that deleted it. Sticky: nothing in here can ever be
    /// joined, re-created or exchanged about again, and an exchange
    /// request for one is answered with its tombstone.
    deleted: BTreeMap<GroupId, Vec<u8>>,
}

impl std::fmt::Debug for Ppss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ppss").field("groups", &self.groups.len()).finish()
    }
}

impl Ppss {
    /// Creates an empty PPSS.
    pub fn new(cfg: PpssConfig) -> Self {
        Ppss {
            cfg,
            groups: BTreeMap::new(),
            pending_joins: BTreeMap::new(),
            started: false,
            cycles_run: 0,
            journal: Journal::new(),
            deleted: BTreeMap::new(),
        }
    }

    /// Number of PPSS cycles this node has run (diagnostics).
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// The configuration.
    pub fn config(&self) -> &PpssConfig {
        &self.cfg
    }

    /// Groups this node belongs to, in id order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// The state of `group`, if this node is a member.
    pub fn group(&self, group: GroupId) -> Option<&GroupState> {
        self.groups.get(&group).map(|state| &**state)
    }

    /// The image of the signed tombstone that deleted `group` here, if one
    /// did.
    pub fn tombstone(&self, group: GroupId) -> Option<&[u8]> {
        self.deleted.get(&group).map(Vec::as_slice)
    }

    /// The group journal (the node's durable "disk").
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Mutable journal access — exists so fault-injection tests can
    /// truncate tails and flip bits the way real storage does.
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Must be called once at node start: arms the cycle timers.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.cfg.validate();
        if self.started {
            return;
        }
        self.started = true;
        let offset = SimDuration::from_micros(ctx.rng().gen_range(0..CYCLE.as_micros()));
        ctx.set_timer(offset, timer::token(timer::PPSS_CYCLE, 0));
        ctx.set_timer(PCP_REFRESH, timer::token(timer::PCP_REFRESH, 0));
    }

    /// Adds `node` (taken from the private view) to the persistent
    /// connection pool of `group`. Returns `false` if unknown.
    pub fn make_persistent(&mut self, group: GroupId, node: NodeId) -> bool {
        let Some(state) = self.groups.get_mut(&group) else {
            return false;
        };
        let Some(entry) = state.view.iter().find(|e| e.node == node).cloned() else {
            return false;
        };
        state.pcp.insert(node, entry);
        true
    }

    /// The wire image of an application message to `group` — the one
    /// place a [`PpssMsg::AppData`] is built — with our entry when the
    /// receiver is to reply directly, and how much of it says only who is
    /// talking: the WCL leaves that out on a circuit that has carried it.
    /// `None` if we are not a member.
    pub(crate) fn app_data(
        &self,
        wcl: &Wcl,
        group: GroupId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> Option<(Vec<u8>, Preamble)> {
        let passport = self.groups.get(&group)?.passport.clone();
        let reply_entry = with_reply_entry.then(|| wcl.entry());
        let message_len = app_short_len(&data);
        let wire = PpssMsg::AppData { group, passport, data, reply_entry }.to_wire();
        let once = Preamble { len: wire.len() - message_len, topic: group.0 };
        Some((wire, once))
    }

    /// Where to reach member `to` of `group`: its pinned entry, else the
    /// one in the private view.
    pub(crate) fn member(&self, group: GroupId, to: NodeId) -> Option<&PrivateEntry> {
        let state = self.groups.get(&group)?;
        state.pcp.get(&to).or_else(|| state.view.iter().find(|e| e.node == to))
    }

    // ----------------------------------------------------------------
    // Timers
    // ----------------------------------------------------------------

    /// Runs one PPSS cycle for every group; re-arms the timer.
    pub fn on_cycle(&mut self, ctx: &mut Ctx<'_>, wcl: &mut Wcl) -> Vec<PpssEvent> {
        let mut events = Vec::new();
        let mut to_journal: Vec<GroupId> = Vec::new();
        self.cycles_run += 1;
        ctx.set_timer(CYCLE, timer::token(timer::PPSS_CYCLE, 0));
        let pending: Vec<GroupId> = self.pending_joins.keys().copied().collect();
        for group in pending {
            self.try_pending_join(ctx, wcl, group);
        }
        let my_entry = wcl.entry();
        let me = my_entry.node;
        for (&group, state) in &mut self.groups {
            // Leader heartbeats / member election bookkeeping.
            if state.is_leader() {
                state.tracker.beat();
            } else if let ElectionOutcome::Won { epoch } =
                state.tracker.on_cycle(me, HB_MISS_THRESHOLD, ELECTION_CYCLES)
            {
                let identity = wcl.nylon().keypair();
                let new_key = KeyPair::generate(wcl.nylon().config().rsa, ctx.rng());
                let group_key = new_key.public().clone();
                let ann = NewKeyAnnouncement {
                    epoch,
                    signature: identity
                        .sign(&NewKeyAnnouncement::message(epoch, group_key.wire_bytes())),
                    group_key,
                    signer_key: identity.public().clone(),
                };
                state.key_history.push(new_key.public().clone());
                // Keep the old passport: it stays valid through
                // the key history, and members that have not yet
                // learned the new key would reject a new-key
                // passport — and with it, the announcement itself.
                state.leader_key = Some(new_key);
                state.latest_announcement = Some(ann);
                to_journal.push(group);
                ctx.metrics().count("ppss.elections_won", 1);
                events.push(PpssEvent::BecameLeader { group, epoch });
            }
            state.start_exchange(ctx, wcl, group, &my_entry, &mut events);
        }
        if self.cycles_run.is_multiple_of(8) {
            // Periodic checkpoint: refresh every group's journaled contact
            // cache so a crash long after the last membership change still
            // restarts with recent neighbours. The checkpoint before last
            // goes, so the journal stays a few records per group.
            let records = self.snapshot_records();
            self.journal.checkpoint_with(records.iter().map(|r| r.as_slice()));
        } else {
            for group in to_journal {
                self.journal_group(group);
            }
        }
        events
    }

    /// Refreshes every persistent connection (paper §IV-C); re-arms the
    /// timer.
    pub fn on_pcp_refresh(&mut self, ctx: &mut Ctx<'_>, wcl: &mut Wcl) {
        ctx.set_timer(PCP_REFRESH, timer::token(timer::PCP_REFRESH, 0));
        let my_entry = wcl.entry();
        for (&group, state) in &self.groups {
            for target in state.pcp.values() {
                let msg = PpssMsg::PcpRefresh {
                    group,
                    passport: state.passport.clone(),
                    entry: my_entry.clone(),
                    respond: true,
                };
                ctx.metrics().count("ppss.pcp_refreshes", 1);
                wcl.send_untracked(ctx, target, &msg.to_wire(), None);
            }
        }
    }

    /// Handles a WCL route failure for a tracked send, whichever it was —
    /// an exchange, a join or the application's: the paper treats
    /// exhausted retries as the death of the destination, so `dest` leaves
    /// the view and the PCP of every group that holds it.
    pub fn on_route_failed(&mut self, msg_id: u64, dest: NodeId) -> Vec<PpssEvent> {
        let mut events = Vec::new();
        // In group order: the events reach the application in this order.
        for (&group, state) in &mut self.groups {
            if state.view.iter().any(|e| e.node == dest) || state.pcp.contains_key(&dest) {
                events.push(state.drop_unreachable(group, dest));
            }
        }
        for pending in self.pending_joins.values_mut() {
            if pending.msg_id == Some(msg_id) {
                pending.msg_id = None; // retried next cycle
            }
        }
        events
    }

    // ----------------------------------------------------------------
    // Message handling (called for every WCL-delivered payload)
    // ----------------------------------------------------------------

    /// Processes a confidential payload delivered by the WCL on the
    /// circuit `via`: once its sender is authenticated, answers to it ride
    /// that circuit back. Returns `None` if it does not parse as a PPSS
    /// message — a key in it that does not parse included — and counts it
    /// as `ppss.malformed`.
    pub fn on_delivered(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        payload: &[u8],
    ) -> Option<Vec<PpssEvent>> {
        let Ok(msg) = PpssMsg::from_wire(payload) else {
            ctx.metrics().count("ppss.malformed", 1);
            return None;
        };
        let mut events = Vec::new();
        if let Some(tombstone) = msg.group().and_then(|group| self.deleted.get(&group)) {
            // A verified tombstone outranks every message about the
            // group, including join handshakes still in flight. An
            // exchange request comes from a member the deletion has not
            // reached yet: its answer is the tombstone, back on the
            // circuit the request came in on — nothing is authenticated
            // here, so not to whoever the request names.
            ctx.metrics().count("ppss.resurrection_blocked", 1);
            if let PpssMsg::Exchange { exchange_id, is_response: false, .. } = &msg {
                let answer = PpssMsg::Deleted { tombstone: tombstone.clone(), exchange_id: *exchange_id };
                wcl.answer_on(ctx, via, &answer.to_wire());
            }
            return Some(events);
        }
        match msg {
            PpssMsg::JoinReq { group, accreditation, entry } => {
                self.handle_join_req(ctx, wcl, via, group, accreditation, entry);
            }
            PpssMsg::JoinAck { group, passport, key_history, entries } => {
                self.handle_join_ack(ctx, wcl, group, passport, key_history, entries, &mut events);
            }
            msg @ PpssMsg::Exchange { .. } => {
                self.handle_exchange(ctx, wcl, via, msg, &mut events);
            }
            PpssMsg::AppData { group, passport, data, reply_entry } => {
                // What the sender stated about itself: the bytes between
                // the tag and the message proper.
                let stated = Some(&payload[1..payload.len() - app_short_len(&data)]);
                self.handle_app_data(
                    ctx, wcl, via, group, passport, reply_entry, stated, data, &mut events,
                );
            }
            PpssMsg::AppShort { group, data } => {
                // Who is talking is what the circuit's far end stated on
                // it, about this group, while this node has carried it;
                // anything else would be a guess.
                let kept = wcl.heard(ctx.now(), via).filter(|(topic, _)| *topic == group.0);
                let Some((passport, reply_entry)) = kept.and_then(|(_, stated)| {
                    let mut r = WireReader::new(stated);
                    let from = (r.take().ok()?, r.take_opt().ok()?);
                    r.finish().ok().map(|()| from)
                }) else {
                    ctx.metrics().count("ppss.context_miss", 1);
                    return Some(events);
                };
                self.handle_app_data(
                    ctx, wcl, via, group, passport, reply_entry, None, data, &mut events,
                );
            }
            PpssMsg::PcpRefresh { group, passport, entry, respond } => {
                let Some(state) = self.admit(ctx, wcl, via, group, &passport, Some(entry.node))
                else {
                    return Some(events);
                };
                // Refresh wherever we hold this member.
                if state.pcp.contains_key(&entry.node) {
                    state.pcp.insert(entry.node, entry.clone());
                }
                if let Some(existing) = state.view.iter_mut().find(|e| e.node == entry.node) {
                    *existing = entry.clone();
                }
                if respond {
                    let msg = PpssMsg::PcpRefresh {
                        group,
                        passport: state.passport.clone(),
                        entry: wcl.entry(),
                        respond: false,
                    };
                    wcl.send_untracked(ctx, &entry, &msg.to_wire(), None);
                }
            }
            PpssMsg::Deleted { tombstone, exchange_id } => {
                events = self.on_descriptor(ctx, wcl, &tombstone, exchange_id);
            }
        }
        Some(events)
    }

    /// The admission gate in front of every message one member sends
    /// another: the state of `group`, if this node holds it and `passport`
    /// admits its holder — who must be `claimed`, when the message names
    /// the node it comes from — with answers to that holder bound to the
    /// circuit `via`. Anything else is dropped, counted by name
    /// (`ppss.dropped_unknown_group`, `ppss.dropped_bad_passport`) and
    /// answered with nothing: the sender learns nothing about our
    /// membership (paper §IV-A).
    fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        group: GroupId,
        passport: &Passport,
        claimed: Option<NodeId>,
    ) -> Option<&mut GroupState> {
        let Some(state) = self.groups.get_mut(&group) else {
            ctx.metrics().count("ppss.dropped_unknown_group", 1);
            return None;
        };
        if !state.admits(group, passport) || claimed.is_some_and(|node| node != passport.node) {
            ctx.metrics().count("ppss.dropped_bad_passport", 1);
            return None;
        }
        wcl.bind_return(ctx.now(), via, passport.node);
        Some(state)
    }

    /// An application message from the holder of `passport`, who stated
    /// it and its reply entry in this very message (`stated`, as they
    /// arrived) or earlier on the same circuit: checked the same either
    /// way, then handed up.
    #[allow(clippy::too_many_arguments)]
    fn handle_app_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        group: GroupId,
        passport: Passport,
        reply_entry: Option<PrivateEntry>,
        stated: Option<&[u8]>,
        data: Vec<u8>,
        events: &mut Vec<PpssEvent>,
    ) {
        if self.admit(ctx, wcl, via, group, &passport, None).is_none() {
            return;
        }
        if let Some(stated) = stated {
            wcl.hear(ctx.now(), via, group.0, stated);
        }
        events.push(PpssEvent::AppMessage { group, from: passport.node, data, reply_entry });
    }
}

#[cfg(test)]
mod tests;
