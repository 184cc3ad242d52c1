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
pub mod group;
pub mod journal;
pub mod messages;

use crate::wcl::{Arrival, DestInfo, GatewayInfo, Preamble, Wcl};
use descriptor::{GroupDescriptor, MemberDot, Membership, DELTA_DOTS};
use election::{ElectionOutcome, LeaderTracker};
use group::{
    issue_accreditation, verify_accreditation, GroupId, Invitation, Passport, PassportMemo,
};
use journal::Journal;
pub use messages::PrivateEntry;
use messages::{app_short_len, ElectionBallot, Heartbeat, NewKeyAnnouncement, PpssMsg};
use whisper_rand::Rng;
use std::collections::{BTreeSet, HashMap};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use whisper_net::{NodeId, SimDuration};
use whisper_pss::NylonCore;

/// Timer token: the PPSS gossip cycle (all groups share one timer).
pub const TIMER_PPSS_CYCLE: u64 = 5;
/// Timer token: persistent-connection-pool refresh.
pub const TIMER_PCP_REFRESH: u64 = 6;

/// Entries shipped per exchange (paper: 5).
pub const GOSSIP_LEN: usize = 5;
/// Π — gateways advertised per NATted member (paper: 3).
pub const GATEWAYS: usize = 3;
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
    pcp: HashMap<NodeId, PrivateEntry>,
    /// Leader liveness / election state.
    tracker: LeaderTracker,
    /// Outstanding exchange: (partner, WCL msg id).
    outstanding: Option<(NodeId, u64)>,
    /// Latest verified key announcement, piggybacked for dissemination.
    latest_announcement: Option<NewKeyAnnouncement>,
    /// Accumulated membership OR-set, grown from descriptor deltas.
    membership: Membership,
    /// Latest verified descriptor under the epoch-dominated LWW order.
    latest_descriptor: Option<GroupDescriptor>,
    /// Publish sequence of the last descriptor this node signed.
    desc_seq: u64,
    /// Next admission counter (leaders; makes membership dots unique).
    next_dot: u64,
    /// Durable state changed since the last descriptor publish (leader).
    dirty: bool,
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
    pub fn pcp(&self) -> &HashMap<NodeId, PrivateEntry> {
        &self.pcp
    }

    /// Current leadership epoch.
    pub fn epoch(&self) -> u64 {
        self.tracker.epoch
    }

    /// The accumulated membership OR-set.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The latest verified group descriptor, if any arrived or was
    /// published yet.
    pub fn latest_descriptor(&self) -> Option<&GroupDescriptor> {
        self.latest_descriptor.as_ref()
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
            && !self.membership.is_revoked(passport.node)
    }

    fn current_key(&self) -> &PublicKey {
        self.key_history.last().expect("non-empty history")
    }

    fn merge_entries(&mut self, me: NodeId, entries: Vec<PrivateEntry>, cap: usize) {
        for entry in entries {
            if entry.node == me {
                continue;
            }
            match self.view.iter_mut().find(|e| e.node == entry.node) {
                Some(existing) => {
                    if entry.age <= existing.age {
                        *existing = entry;
                    }
                }
                None => self.view.push(entry),
            }
        }
        self.view.sort_by_key(|e| (e.age, e.node));
        self.view.truncate(cap);
    }
}

impl GroupState {
    /// A freshly initialised group state (no descriptor seen yet).
    fn fresh(
        key_history: Vec<PublicKey>,
        leader_key: Option<KeyPair>,
        passport: Passport,
        tracker: LeaderTracker,
    ) -> GroupState {
        GroupState {
            key_history,
            leader_key,
            passport,
            view: Vec::new(),
            pcp: HashMap::new(),
            tracker,
            outstanding: None,
            latest_announcement: None,
            membership: Membership::new(),
            latest_descriptor: None,
            desc_seq: 0,
            next_dot: 0,
            dirty: false,
            verified: PassportMemo::default(),
        }
    }
}

// --------------------------------------------------------------------
// Journal records
// --------------------------------------------------------------------

/// Journal size that triggers a compaction (rewrite as one snapshot per
/// group) between two periodic checkpoints, which drop old records
/// anyway: the bound on what event-driven appends can pile up in eight
/// cycles.
const JOURNAL_COMPACT_BYTES: usize = 128 * 1024;

/// Admission/removal dots piggybacked on each member-to-member exchange.
/// Descriptors carry only [`DELTA_DOTS`]-sized deltas, so these pairwise
/// merges are what make the membership OR-set converge: a late joiner
/// learns old admissions from the members it gossips with. The cap keeps
/// exchanges bounded; groups larger than this still converge, just over
/// more cycles (each exchange ships the newest dots, older ones arrive
/// transitively from peers that already hold them).
const EXCHANGE_DOTS: usize = 64;

/// Record tag: a full durable snapshot of one group.
const REC_GROUP: u8 = 1;
/// Record tag: the group was deleted; sticky forever.
const REC_TOMBSTONE: u8 = 2;
/// Record tag: a join handshake was started from an invitation.
const REC_PENDING: u8 = 3;

/// Serializes the durable slice of one group's state: everything a node
/// must still know after losing RAM — keys, passport, epoch, membership
/// dots, the latest descriptor and a contact cache to re-bootstrap the
/// private view from. Volatile state (in-flight exchanges, the PCP
/// freshness, announcements) is deliberately absent.
fn encode_group_record(group: GroupId, state: &GroupState) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REC_GROUP);
    w.put(&group);
    let keys: Vec<Vec<u8>> = state.key_history.iter().map(|k| k.to_bytes()).collect();
    w.put_seq(&keys);
    w.put_opt(&state.leader_key.as_ref().map(|k| k.to_bytes()));
    w.put(&state.passport);
    w.put_u64(state.tracker.epoch);
    w.put_u64(state.desc_seq);
    w.put_u64(state.next_dot);
    w.put_opt(&state.latest_descriptor);
    let (adds, removes) = state.membership.dots();
    w.put_seq(&adds);
    w.put_seq(&removes);
    // Contact cache: the private view plus PCP at checkpoint time,
    // sorted so the record bytes are independent of HashMap order.
    let mut contacts: Vec<PrivateEntry> = state.view.clone();
    for e in state.pcp.values() {
        if !contacts.iter().any(|c| c.node == e.node) {
            contacts.push(e.clone());
        }
    }
    contacts.sort_by_key(|e| e.node);
    w.put_seq(&contacts);
    w.into_bytes()
}

fn encode_tombstone_record(group: GroupId) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REC_TOMBSTONE);
    w.put(&group);
    w.into_bytes()
}

fn encode_pending_record(group: GroupId, invitation: &Invitation) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REC_PENDING);
    w.put(&group);
    w.put_bytes(&invitation.group_key.to_bytes());
    w.put_bytes(&invitation.accreditation);
    w.put(&invitation.entry_point);
    w.into_bytes()
}

/// A pending join: retried every cycle until the ack arrives.
struct PendingJoin {
    invitation: Invitation,
    msg_id: Option<u64>,
}

/// The private peer sampling service of one node.
pub struct Ppss {
    cfg: PpssConfig,
    groups: HashMap<GroupId, GroupState>,
    pending_joins: HashMap<GroupId, PendingJoin>,
    started: bool,
    cycles_run: u64,
    /// The node's "disk": every durable group change is appended here,
    /// and [`Ppss::on_restart`] rebuilds the group table *only* from a
    /// replay of it.
    journal: Journal,
    /// Groups whose deletion this node has verified. Sticky: nothing in
    /// here can ever be joined, re-created or gossiped about again.
    deleted: BTreeSet<GroupId>,
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
            groups: HashMap::new(),
            pending_joins: HashMap::new(),
            started: false,
            cycles_run: 0,
            journal: Journal::new(),
            deleted: BTreeSet::new(),
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

    /// Groups this node belongs to, sorted (deterministic).
    pub fn group_ids(&self) -> Vec<GroupId> {
        let mut ids: Vec<GroupId> = self.groups.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The state of `group`, if this node is a member.
    pub fn group(&self, group: GroupId) -> Option<&GroupState> {
        self.groups.get(&group)
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
        ctx.set_timer(offset, TIMER_PPSS_CYCLE);
        ctx.set_timer(PCP_REFRESH, TIMER_PCP_REFRESH);
    }

    /// Builds this node's fresh private-view entry: identity key plus Π
    /// gateway P-nodes drawn from the Nylon connection backlog.
    pub fn my_entry(&self, nylon: &NylonCore) -> PrivateEntry {
        let public = nylon.is_public();
        let gateways = if public {
            Vec::new()
        } else {
            nylon
                .cb()
                .publics()
                .filter_map(|e| e.key.clone().map(|key| GatewayInfo { node: e.node, key }))
                .take(GATEWAYS)
                .collect()
        };
        PrivateEntry {
            node: nylon.id(),
            age: 0,
            public,
            key: nylon.keypair().public().clone(),
            gateways,
        }
    }

    // ----------------------------------------------------------------
    // Group management API (the `createGroup` / `joinGroup` /
    // `authorizeJoin` interface of Fig. 1)
    // ----------------------------------------------------------------

    /// Creates a new private group with this node as its leader.
    ///
    /// # Panics
    ///
    /// Panics if the node already belongs to a group with this name, or
    /// if a group with this name was deleted: the tombstone is sticky, so
    /// the name can never be reused (resurrection is impossible by
    /// construction).
    pub fn create_group(&mut self, ctx: &mut Ctx<'_>, nylon: &NylonCore, name: &str) -> GroupId {
        let id = GroupId::from_name(name);
        assert!(!self.groups.contains_key(&id), "already a member of {name:?}");
        assert!(!self.deleted.contains(&id), "group {name:?} was deleted; tombstones are forever");
        let group_key = KeyPair::generate(nylon.config().rsa, ctx.rng());
        let passport = Passport::issue(&group_key, id, nylon.id());
        let mut tracker = LeaderTracker::new();
        tracker.beat();
        let mut state =
            GroupState::fresh(vec![group_key.public().clone()], Some(group_key), passport, tracker);
        state.membership.add(MemberDot { node: nylon.id(), epoch: 0, counter: 0 });
        state.next_dot = 1;
        state.dirty = true;
        self.groups.insert(id, state);
        ctx.metrics().count("ppss.groups_created", 1);
        self.journal_group(id);
        id
    }

    /// Issues an invitation for `invitee` (leader operation; the
    /// `authorizeJoin` API).
    ///
    /// Returns `None` if this node is not a leader of `group`.
    pub fn invite(
        &self,
        nylon: &NylonCore,
        group: GroupId,
        invitee: NodeId,
    ) -> Option<Invitation> {
        let state = self.groups.get(&group)?;
        let leader_key = state.leader_key.as_ref()?;
        Some(Invitation {
            group,
            group_key: state.current_key().clone(),
            accreditation: issue_accreditation(leader_key, group, invitee),
            entry_point: self.my_entry(nylon),
        })
    }

    /// Starts the join handshake using an out-of-band invitation. The
    /// request is retried every PPSS cycle until the leader answers.
    pub fn join_group(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        invitation: Invitation,
    ) {
        let group = invitation.group;
        if self.groups.contains_key(&group) {
            return;
        }
        if self.deleted.contains(&group) {
            // The invitation outlived the group; the tombstone wins.
            ctx.metrics().count("ppss.resurrection_blocked", 1);
            return;
        }
        self.journal.append(&encode_pending_record(group, &invitation));
        self.pending_joins
            .insert(group, PendingJoin { invitation, msg_id: None });
        self.try_pending_join(ctx, nylon, wcl, group);
    }

    fn try_pending_join(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        group: GroupId,
    ) {
        let entry = self.my_entry(nylon);
        let Some(pending) = self.pending_joins.get_mut(&group) else {
            return;
        };
        if pending.msg_id.is_some_and(|id| wcl.is_pending(id)) {
            return; // a request is still in flight
        }
        let msg = PpssMsg::JoinReq {
            group,
            accreditation: pending.invitation.accreditation.clone(),
            entry,
        };
        let msg_id = wcl.alloc_msg_id();
        pending.msg_id = Some(msg_id);
        let dest = pending.invitation.entry_point.dest_info();
        ctx.metrics().count("ppss.join_attempts", 1);
        wcl.send(ctx, nylon, &dest, msg.to_wire(), None, msg_id);
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

    /// Deletes `group` (leader operation): publishes a signed deletion
    /// tombstone into the relay-level descriptor store, journals the
    /// tombstone, and drops all local group state. Returns the events to
    /// dispatch, or `None` if this node is not a leader of the group.
    ///
    /// Deletion is permanent by construction: the tombstone descriptor
    /// pins the relay LWW maximum (no stale descriptor can displace it),
    /// every member that verifies it destroys its state the same way,
    /// and the local tombstone set blocks joins and re-creation forever.
    pub fn delete_group(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        group: GroupId,
    ) -> Option<Vec<PpssEvent>> {
        let state = self.groups.get_mut(&group)?;
        let leader_key = state.leader_key.as_ref()?;
        state.desc_seq += 1;
        let tomb = GroupDescriptor::sign(
            leader_key,
            group,
            state.tracker.epoch,
            state.desc_seq,
            &state.key_history,
            true,
            Vec::new(),
            Vec::new(),
            ctx.now().as_micros(),
        );
        nylon.publish_descriptor(group.0, tomb.version(), &tomb.to_wire());
        self.groups.remove(&group);
        self.pending_joins.remove(&group);
        self.deleted.insert(group);
        self.journal.append(&encode_tombstone_record(group));
        ctx.metrics().count("ppss.groups_deleted", 1);
        Some(vec![PpssEvent::GroupDeleted { group }])
    }

    /// Revokes `node`'s membership (leader operation): tombstones its
    /// admission dots in the OR-set — the revocation travels in the next
    /// published descriptor — and drops it from the view and PCP.
    /// Returns `false` when not a leader or `node` had no live dots.
    pub fn remove_member(&mut self, group: GroupId, node: NodeId) -> bool {
        let Some(state) = self.groups.get_mut(&group) else {
            return false;
        };
        if state.leader_key.is_none() {
            return false;
        }
        let revoked = state.membership.remove(node);
        if revoked.is_empty() {
            return false;
        }
        state.view.retain(|e| e.node != node);
        state.pcp.remove(&node);
        state.dirty = true;
        self.journal_group(group);
        true
    }

    /// The wire image of an application message to `group` — the one
    /// place a [`PpssMsg::AppData`] is built — with our entry when the
    /// receiver is to reply directly, and how much of it says only who is
    /// talking: the WCL leaves that out on a circuit that has carried it.
    /// `None` if we are not a member.
    fn app_data(
        &self,
        nylon: &NylonCore,
        group: GroupId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> Option<(Vec<u8>, Preamble)> {
        let passport = self.groups.get(&group)?.passport.clone();
        let reply_entry = with_reply_entry.then(|| self.my_entry(nylon));
        let message_len = app_short_len(&data);
        let wire = PpssMsg::AppData { group, passport, data, reply_entry }.to_wire();
        let once = Preamble { len: wire.len() - message_len, topic: group.0 };
        Some((wire, once))
    }

    /// Where to reach member `to` of `group`: its pinned entry, else the
    /// one in the private view.
    fn member_dest(&self, group: GroupId, to: NodeId) -> Option<DestInfo> {
        let state = self.groups.get(&group)?;
        let entry = state.pcp.get(&to).or_else(|| state.view.iter().find(|e| e.node == to))?;
        Some(entry.dest_info())
    }

    /// Sends application bytes to a group member over a WCL route,
    /// optionally shipping our entry so the member can reply directly.
    ///
    /// Returns `false` when the target is not in the view/PCP or no route
    /// could be built.
    #[allow(clippy::too_many_arguments)]
    pub fn send_app(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        group: GroupId,
        to: NodeId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        let Some(dest) = self.member_dest(group, to) else {
            return false;
        };
        self.app_data(nylon, group, data, with_reply_entry)
            .is_some_and(|(wire, once)| wcl.send_untracked(ctx, nylon, &dest, &wire, Some(once)))
    }

    /// Like [`Ppss::send_app`], but tracked through the WCL retry
    /// machinery: on success returns the message id, which the caller
    /// must resolve via [`Wcl::notify_response`] once the application's
    /// answer arrives (request/response apps and the chaos harness use
    /// this to measure end-to-end delivery).
    #[allow(clippy::too_many_arguments)]
    pub fn send_app_tracked(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        group: GroupId,
        to: NodeId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> Option<u64> {
        let dest = self.member_dest(group, to)?;
        let (wire, once) = self.app_data(nylon, group, data, with_reply_entry)?;
        let msg_id = wcl.alloc_msg_id();
        wcl.send(ctx, nylon, &dest, wire, Some(once), msg_id).then_some(msg_id)
    }

    /// Sends application bytes to an explicit entry (e.g. one shipped in
    /// a query for the reply, the §V-G T-Chord pattern).
    #[allow(clippy::too_many_arguments)]
    pub fn send_app_to_entry(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        group: GroupId,
        to: &PrivateEntry,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        self.app_data(nylon, group, data, with_reply_entry).is_some_and(|(wire, once)| {
            wcl.send_untracked(ctx, nylon, &to.dest_info(), &wire, Some(once))
        })
    }

    // ----------------------------------------------------------------
    // Timers
    // ----------------------------------------------------------------

    /// Runs one PPSS cycle for every group; re-arms the timer.
    pub fn on_cycle(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
    ) -> Vec<PpssEvent> {
        let mut events = Vec::new();
        let mut to_journal: Vec<GroupId> = Vec::new();
        self.cycles_run += 1;
        ctx.set_timer(CYCLE, TIMER_PPSS_CYCLE);
        // Retry pending joins — in sorted order: each retry draws from the
        // node RNG (route choice, onion padding), so walking the `HashMap`
        // in its per-process order would make the run irreproducible.
        let mut pending: Vec<GroupId> = self.pending_joins.keys().copied().collect();
        pending.sort_unstable();
        for group in pending {
            self.try_pending_join(ctx, nylon, wcl, group);
        }
        let my_entry = self.my_entry(nylon);
        let me = nylon.id();
        let my_key = nylon.keypair().public().clone(); // a handle, not a copy
        let my_key_bytes = my_key.wire_bytes();
        let groups: Vec<GroupId> = self.group_ids();
        for group in groups {
            let state = self.groups.get_mut(&group).expect("listed");
            // Leader heartbeats / member election bookkeeping.
            if state.is_leader() {
                state.tracker.beat();
            } else {
                match state.tracker.on_cycle(me, my_key_bytes, HB_MISS_THRESHOLD, ELECTION_CYCLES)
                {
                    ElectionOutcome::Won { epoch } => {
                        let new_key = KeyPair::generate(nylon.config().rsa, ctx.rng());
                        let group_key = new_key.public().to_bytes();
                        let ann = NewKeyAnnouncement {
                            epoch,
                            signature: nylon
                                .keypair()
                                .sign(&NewKeyAnnouncement::message(epoch, &group_key)),
                            group_key,
                            signer: me,
                            signer_key: my_key_bytes.to_vec(),
                        };
                        state.key_history.push(new_key.public().clone());
                        // Keep the old passport: it stays valid through
                        // the key history, and members that have not yet
                        // learned the new key would reject a new-key
                        // passport — and with it, the announcement itself.
                        state.leader_key = Some(new_key);
                        state.latest_announcement = Some(ann);
                        state.dirty = true;
                        to_journal.push(group);
                        ctx.metrics().count("ppss.elections_won", 1);
                        events.push(PpssEvent::BecameLeader { group, epoch });
                    }
                    ElectionOutcome::Idle => {}
                }
            }
            // Leaders publish a fresh signed descriptor whenever durable
            // state changed (admissions, revocations, epoch/key changes)
            // — and once at group birth so even an unchanged group has a
            // descriptor circulating.
            if state.is_leader() && (state.dirty || state.latest_descriptor.is_none()) {
                state.desc_seq += 1;
                let (adds, removes) = state.membership.recent_dots(DELTA_DOTS);
                let key = state.leader_key.as_ref().expect("leader");
                let desc = GroupDescriptor::sign(
                    key,
                    group,
                    state.tracker.epoch,
                    state.desc_seq,
                    &state.key_history,
                    false,
                    adds,
                    removes,
                    ctx.now().as_micros(),
                );
                state.latest_descriptor = Some(desc);
                state.dirty = false;
                ctx.metrics().count("ppss.desc_published", 1);
                to_journal.push(group);
            }
            // Every member re-offers its latest verified descriptor to
            // the relay store each cycle. The store itself is volatile
            // (a restarted relay loses it), so the members are the
            // durable root the deterministic anti-entropy repair grows
            // back from.
            if let Some(desc) = &state.latest_descriptor {
                nylon.publish_descriptor(group.0, desc.version(), &desc.to_wire());
            }
            // Age the private view and gossip with its oldest member.
            for e in &mut state.view {
                e.age = e.age.saturating_add(1);
            }
            let Some(partner) = state
                .view
                .iter()
                .max_by_key(|e| (e.age, e.node))
                .cloned()
            else {
                continue;
            };
            let buffer = Self::build_buffer(state, partner.node, ctx);
            let (member_adds, member_removes) = state.membership.recent_dots(EXCHANGE_DOTS);
            let msg_id = wcl.alloc_msg_id();
            let msg = PpssMsg::Exchange {
                group,
                passport: state.passport.clone(),
                from_entry: Box::new(my_entry.clone()),
                entries: buffer,
                exchange_id: msg_id,
                is_response: false,
                hb: state.tracker.heartbeat(),
                election: state.tracker.ballot(),
                new_key: state.latest_announcement.clone(),
                member_adds,
                member_removes,
            };
            state.outstanding = Some((partner.node, msg_id));
            ctx.metrics().count("ppss.exchanges_initiated", 1);
            if !wcl.send(ctx, nylon, &partner.dest_info(), msg.to_wire(), None, msg_id) {
                // No route constructible at all (e.g. every advertised
                // gateway is gone): without this, the unreachable partner
                // would stay the oldest entry and be re-selected forever.
                state.outstanding = None;
                state.view.retain(|e| e.node != partner.node);
                state.pcp.remove(&partner.node);
                events.push(PpssEvent::MemberUnreachable { group, node: partner.node });
            }
        }
        if self.cycles_run.is_multiple_of(8) {
            // Periodic checkpoint: refresh every group's journaled contact
            // cache so a crash long after the last membership change still
            // restarts with recent neighbours. The checkpoint before last
            // goes, so the journal stays a few records per group.
            let records = self.snapshot_records();
            self.journal.checkpoint_with(records.iter().map(|r| r.as_slice()));
        } else {
            to_journal.sort_unstable();
            to_journal.dedup();
            for group in to_journal {
                self.journal_group(group);
            }
        }
        events
    }

    /// Refreshes every persistent connection (paper §IV-C); re-arms the
    /// timer.
    pub fn on_pcp_refresh(&mut self, ctx: &mut Ctx<'_>, nylon: &mut NylonCore, wcl: &mut Wcl) {
        ctx.set_timer(PCP_REFRESH, TIMER_PCP_REFRESH);
        let my_entry = self.my_entry(nylon);
        let groups: Vec<GroupId> = self.group_ids();
        for group in groups {
            let state = self.groups.get_mut(&group).expect("listed");
            // Sorted for the same reason as the pending joins in
            // `on_cycle`: every refresh draws from the node RNG.
            let mut targets: Vec<PrivateEntry> = state.pcp.values().cloned().collect();
            targets.sort_unstable_by_key(|e| e.node);
            let passport = state.passport.clone();
            for target in targets {
                let msg = PpssMsg::PcpRefresh {
                    group,
                    passport: passport.clone(),
                    entry: my_entry.clone(),
                    respond: true,
                };
                ctx.metrics().count("ppss.pcp_refreshes", 1);
                wcl.send_untracked(ctx, nylon, &target.dest_info(), &msg.to_wire(), None);
            }
        }
    }

    /// Rebuilds group state after a crash-restart — **only** from a
    /// journal replay.
    ///
    /// The in-memory group table is discarded wholesale: anything that
    /// was never journaled is lost, exactly like a process that forgot
    /// to fsync. The journal replay salvages the longest valid prefix of
    /// the "disk" (see [`journal::Journal::replay`]); a truncated tail
    /// or corrupt record is attributed to `ppss.journal_truncated` /
    /// `ppss.journal_corrupt` and everything after it is dropped.
    /// Restored groups come back with their keys, passport, epoch,
    /// membership dots, latest descriptor and a journaled contact cache
    /// as the private view; all in-flight state (outstanding exchanges,
    /// the PCP, pending announcements) is volatile and starts empty.
    pub fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let replay_started = std::time::Instant::now();
        let recovery = self.journal.replay();
        if recovery.truncated > 0 {
            ctx.metrics().count("ppss.journal_truncated", recovery.truncated);
        }
        if recovery.corrupt > 0 {
            ctx.metrics().count("ppss.journal_corrupt", recovery.corrupt);
        }
        ctx.metrics().count("ppss.journal_replayed", recovery.records.len() as u64);
        self.groups.clear();
        self.pending_joins.clear();
        self.deleted.clear();
        for record in &recovery.records {
            if self.apply_record(record).is_err() {
                // A checksummed record that fails to parse means an
                // encoding bug, not storage damage — count it loudly.
                ctx.metrics().count("ppss.journal_bad_record", 1);
            }
        }
        ctx.metrics()
            .count("ppss.journal_groups_restored", self.groups.len() as u64);
        // Rewrite the salvaged state as a clean journal: the damaged
        // tail is gone for good, and the next crash replays from
        // exactly what this restart reconstructed.
        self.compact_journal();
        // Wall-clock recovery time: host-dependent, and excluded from
        // determinism traces by its `_wall_us` suffix.
        ctx.metrics().sample(
            "ppss.journal_replay_wall_us",
            replay_started.elapsed().as_nanos() as f64 / 1000.0,
        );
    }

    /// Folds one journaled record into the group table (replay order
    /// matters: later records win, tombstones win over everything).
    fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError> {
        let mut r = WireReader::new(record);
        match r.take_u8()? {
            REC_GROUP => {
                let group: GroupId = r.take()?;
                let keys: Vec<Vec<u8>> = r.take_seq()?;
                let leader_bytes: Option<Vec<u8>> = r.take_opt()?;
                let passport: Passport = r.take()?;
                let epoch = r.take_u64()?;
                let desc_seq = r.take_u64()?;
                let next_dot = r.take_u64()?;
                let latest_descriptor: Option<GroupDescriptor> = r.take_opt()?;
                let adds: Vec<MemberDot> = r.take_seq()?;
                let removes: Vec<MemberDot> = r.take_seq()?;
                let contacts: Vec<PrivateEntry> = r.take_seq()?;
                r.finish()?;
                if self.deleted.contains(&group) {
                    return Ok(()); // a tombstone never un-deletes
                }
                let key_history: Vec<PublicKey> =
                    keys.iter().filter_map(|b| PublicKey::from_bytes(b)).collect();
                if key_history.len() != keys.len() {
                    return Err(WireError::new("journaled group key"));
                }
                let leader_key = match leader_bytes {
                    Some(b) => {
                        Some(KeyPair::from_bytes(&b).ok_or(WireError::new("journaled key pair"))?)
                    }
                    None => None,
                };
                let mut tracker = LeaderTracker::new();
                tracker.accept_new_epoch(epoch);
                if leader_key.is_some() {
                    tracker.beat();
                }
                let mut state = GroupState::fresh(key_history, leader_key, passport, tracker);
                state.membership = Membership::from_dots(adds, removes);
                state.latest_descriptor = latest_descriptor;
                state.desc_seq = desc_seq;
                state.next_dot = next_dot;
                state.view = contacts;
                // A restarted leader republishes on its next cycle so
                // the network relearns the descriptor it is the durable
                // root for.
                state.dirty = state.leader_key.is_some();
                self.pending_joins.remove(&group); // the join completed
                self.groups.insert(group, state);
            }
            REC_TOMBSTONE => {
                let group: GroupId = r.take()?;
                r.finish()?;
                self.groups.remove(&group);
                self.pending_joins.remove(&group);
                self.deleted.insert(group);
            }
            REC_PENDING => {
                let group: GroupId = r.take()?;
                let key_bytes: Vec<u8> = r.take_bytes()?.to_vec();
                let accreditation: Vec<u8> = r.take_bytes()?.to_vec();
                let entry_point: PrivateEntry = r.take()?;
                r.finish()?;
                if self.groups.contains_key(&group) || self.deleted.contains(&group) {
                    return Ok(());
                }
                let group_key =
                    PublicKey::from_bytes(&key_bytes).ok_or(WireError::new("journaled invite"))?;
                self.pending_joins.insert(
                    group,
                    PendingJoin {
                        invitation: Invitation { group, group_key, accreditation, entry_point },
                        msg_id: None,
                    },
                );
            }
            _ => return Err(WireError::new("journal record tag")),
        }
        Ok(())
    }

    /// Appends a fresh snapshot of `group` to the journal, compacting
    /// when the log has grown past the threshold.
    fn journal_group(&mut self, group: GroupId) {
        let Some(state) = self.groups.get(&group) else {
            return;
        };
        let record = encode_group_record(group, state);
        self.journal.append(&record);
        if self.journal.len_bytes() > JOURNAL_COMPACT_BYTES {
            self.compact_journal();
        }
    }

    /// Rewrites the journal as one snapshot of the durable state.
    fn compact_journal(&mut self) {
        let records = self.snapshot_records();
        self.journal.reset_with(records.iter().map(|r| r.as_slice()));
    }

    /// The durable state as records: one snapshot per live group, one
    /// pending record per outstanding join and one tombstone per deleted
    /// group.
    fn snapshot_records(&self) -> Vec<Vec<u8>> {
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut ids: Vec<GroupId> = self.groups.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            records.push(encode_group_record(id, &self.groups[&id]));
        }
        let mut pending: Vec<GroupId> = self.pending_joins.keys().copied().collect();
        pending.sort_unstable();
        for id in pending {
            records.push(encode_pending_record(id, &self.pending_joins[&id].invitation));
        }
        for id in &self.deleted {
            records.push(encode_tombstone_record(*id));
        }
        records
    }

    /// Handles a WCL route failure for a tracked send.
    pub fn on_route_failed(&mut self, msg_id: u64, dest: NodeId) -> Vec<PpssEvent> {
        let mut events = Vec::new();
        for (gid, state) in self.groups.iter_mut() {
            if state.outstanding == Some((dest, msg_id)) {
                state.outstanding = None;
                // The paper treats exhausted retries as destination
                // failure: drop it from the private view.
                state.view.retain(|e| e.node != dest);
                state.pcp.remove(&dest);
                events.push(PpssEvent::MemberUnreachable { group: *gid, node: dest });
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
    /// message.
    pub fn on_delivered(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        payload: &[u8],
    ) -> Option<Vec<PpssEvent>> {
        let msg = PpssMsg::from_wire(payload).ok()?;
        let mut events = Vec::new();
        let gid = match &msg {
            PpssMsg::JoinReq { group, .. }
            | PpssMsg::JoinAck { group, .. }
            | PpssMsg::Exchange { group, .. }
            | PpssMsg::AppData { group, .. }
            | PpssMsg::AppShort { group, .. }
            | PpssMsg::PcpRefresh { group, .. } => *group,
        };
        if self.deleted.contains(&gid) {
            // A verified tombstone outranks every message about the
            // group, including join handshakes still in flight.
            ctx.metrics().count("ppss.resurrection_blocked", 1);
            return Some(events);
        }
        match msg {
            PpssMsg::JoinReq { group, accreditation, entry } => {
                self.handle_join_req(ctx, nylon, wcl, via, group, accreditation, entry);
            }
            PpssMsg::JoinAck { group, passport, key_history, entries } => {
                self.handle_join_ack(
                    ctx, nylon, wcl, group, passport, key_history, entries, &mut events,
                );
            }
            PpssMsg::Exchange {
                group,
                passport,
                from_entry,
                entries,
                exchange_id,
                is_response,
                hb,
                election,
                new_key,
                member_adds,
                member_removes,
            } => {
                self.handle_exchange(
                    ctx, nylon, wcl, via, group, passport, *from_entry, entries, exchange_id,
                    is_response, hb, election, new_key, member_adds, member_removes,
                    &mut events,
                );
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
                let my_entry = self.my_entry(nylon);
                let Some(state) = self.groups.get_mut(&group) else {
                    return Some(events);
                };
                if !state.admits(group, &passport) || passport.node != entry.node {
                    ctx.metrics().count("ppss.dropped_bad_passport", 1);
                    return Some(events);
                }
                wcl.bind_return(ctx.now(), via, passport.node);
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
                        entry: my_entry,
                        respond: false,
                    };
                    wcl.send_untracked(ctx, nylon, &entry.dest_info(), &msg.to_wire(), None);
                }
            }
        }
        Some(events)
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
        let Some(state) = self.groups.get_mut(&group) else {
            ctx.metrics().count("ppss.dropped_unknown_group", 1);
            return;
        };
        if !state.admits(group, &passport) {
            ctx.metrics().count("ppss.dropped_bad_passport", 1);
            return;
        }
        wcl.bind_return(ctx.now(), via, passport.node);
        if let Some(stated) = stated {
            wcl.hear(ctx.now(), via, group.0, stated);
        }
        events.push(PpssEvent::AppMessage { group, from: passport.node, data, reply_entry });
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_join_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        group: GroupId,
        accreditation: Vec<u8>,
        entry: PrivateEntry,
    ) {
        let my_entry = self.my_entry(nylon);
        let cap = self.cfg.view_size;
        let me = nylon.id();
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        let Some(leader_key) = state.leader_key.as_ref() else {
            // Not a leader: silently ignore (never reveal membership).
            ctx.metrics().count("ppss.join_ignored_not_leader", 1);
            return;
        };
        if !verify_accreditation(&accreditation, group, entry.node, &state.key_history) {
            ctx.metrics().count("ppss.join_rejected", 1);
            return;
        }
        wcl.bind_return(ctx.now(), via, entry.node);
        let passport = Passport::issue(leader_key, group, entry.node);
        // A retransmitted request — its ack was lost, or is still on its
        // way — is answered again, not admitted again.
        let admitted = !state.membership.is_member(entry.node);
        if admitted {
            // The admission gets a unique dot; it rides the next
            // descriptor so every member's OR-set learns of the join.
            let dot = MemberDot {
                node: entry.node,
                epoch: state.tracker.epoch,
                counter: state.next_dot,
            };
            state.next_dot += 1;
            state.membership.add(dot);
            state.dirty = true;
        }
        // Seed the joiner with a slice of our view plus ourselves.
        let mut entries = vec![my_entry];
        entries.extend(state.view.iter().take(GOSSIP_LEN).cloned());
        let ack = PpssMsg::JoinAck {
            group,
            passport,
            key_history: state.key_history.iter().map(|k| k.to_bytes()).collect(),
            entries,
        };
        state.merge_entries(me, vec![entry.clone()], cap);
        ctx.metrics().count(if admitted { "ppss.joins_accepted" } else { "ppss.join_reacked" }, 1);
        wcl.send_untracked(ctx, nylon, &entry.dest_info(), &ack.to_wire(), None);
        if admitted {
            self.journal_group(group);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_join_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        group: GroupId,
        passport: Passport,
        key_history: Vec<Vec<u8>>,
        entries: Vec<PrivateEntry>,
        events: &mut Vec<PpssEvent>,
    ) {
        let Some(pending) = self.pending_joins.get(&group) else {
            return;
        };
        let history: Vec<PublicKey> = key_history
            .iter()
            .filter_map(|b| PublicKey::from_bytes(b))
            .collect();
        // The invitation's key must appear in the history, and our new
        // passport must verify: otherwise someone is feeding us a fake
        // group.
        if !history.contains(&pending.invitation.group_key)
            || passport.node != nylon.id()
            || !passport.verify(group, &history)
        {
            ctx.metrics().count("ppss.join_ack_invalid", 1);
            return;
        }
        // The ack is the answer to the tracked `JoinReq`.
        if let Some(msg_id) = self.pending_joins.remove(&group).and_then(|p| p.msg_id) {
            wcl.notify_response(ctx, msg_id);
        }
        let mut state = GroupState::fresh(history, None, passport, LeaderTracker::new());
        state.merge_entries(nylon.id(), entries, self.cfg.view_size);
        self.groups.insert(group, state);
        ctx.metrics().count("ppss.joins_completed", 1);
        self.journal_group(group);
        events.push(PpssEvent::Joined { group });
        events.push(PpssEvent::ViewUpdated { group });
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_exchange(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        group: GroupId,
        passport: Passport,
        from_entry: PrivateEntry,
        entries: Vec<PrivateEntry>,
        exchange_id: u64,
        is_response: bool,
        hb: Heartbeat,
        election: Option<ElectionBallot>,
        new_key: Option<NewKeyAnnouncement>,
        member_adds: Vec<MemberDot>,
        member_removes: Vec<MemberDot>,
        events: &mut Vec<PpssEvent>,
    ) {
        let my_entry = self.my_entry(nylon);
        let me = nylon.id();
        let cfg = self.cfg.clone();
        let Some(state) = self.groups.get_mut(&group) else {
            ctx.metrics().count("ppss.dropped_unknown_group", 1);
            return;
        };
        if !state.admits(group, &passport) || passport.node != from_entry.node {
            // Invalid passports are ignored silently (paper §IV-A): the
            // sender learns nothing about our membership.
            ctx.metrics().count("ppss.dropped_bad_passport", 1);
            return;
        }
        wcl.bind_return(ctx.now(), via, passport.node);
        // Key-change announcements are processed *before* heartbeats:
        // hearing an epoch-N heartbeat must not stop us from installing
        // the epoch-N group key. Elections can produce several winners
        // (the paper allows "one or several leaders"); every validly
        // signed key for a current-or-newer epoch joins the history so
        // passports from any co-leader verify.
        let mut journal_after = false;
        if let Some(ann) = new_key {
            if ann.epoch >= state.tracker.epoch {
                if let Some(group_key) = ann.verify() {
                    if !state.key_history.contains(&group_key) {
                        state.key_history.push(group_key);
                        ctx.metrics().count("ppss.new_key_accepted", 1);
                        journal_after = true;
                    }
                    state.tracker.accept_new_epoch(ann.epoch);
                    let fresher = state
                        .latest_announcement
                        .as_ref()
                        .is_none_or(|cur| ann.epoch >= cur.epoch);
                    if fresher {
                        state.latest_announcement = Some(ann);
                    }
                }
            }
        }
        // Liveness / election gossip.
        state.tracker.observe_heartbeat(hb);
        if let Some(ballot) = election {
            state.tracker.observe_ballot(ballot);
        }
        // Membership anti-entropy: fold the peer's dots into our OR-set.
        // This, not the (latest-only, bounded-delta) descriptor, is what
        // carries old admissions to late joiners.
        if state.membership.merge(&Membership::from_dots(member_adds, member_removes.clone())) {
            journal_after = true;
            state.dirty = true;
            ctx.metrics().count("ppss.membership_folded", 1);
        }
        // Explicitly-removed nodes leave the view immediately instead of
        // lingering until liveness pruning notices.
        for dot in &member_removes {
            if !state.membership.is_member(dot.node) {
                state.view.retain(|e| e.node != dot.node);
                state.pcp.remove(&dot.node);
            }
        }
        if !is_response {
            // Answer with our own buffer (built pre-merge).
            let buffer = Self::build_buffer(state, from_entry.node, ctx);
            let (member_adds, member_removes) = state.membership.recent_dots(EXCHANGE_DOTS);
            let resp = PpssMsg::Exchange {
                group,
                passport: state.passport.clone(),
                from_entry: Box::new(my_entry.clone()),
                entries: buffer,
                exchange_id,
                is_response: true,
                hb: state.tracker.heartbeat(),
                election: state.tracker.ballot(),
                new_key: state.latest_announcement.clone(),
                member_adds,
                member_removes,
            };
            ctx.metrics().count("ppss.exchanges_served", 1);
            wcl.send_untracked(ctx, nylon, &from_entry.dest_info(), &resp.to_wire(), None);
        } else {
            if state.outstanding == Some((from_entry.node, exchange_id)) {
                state.outstanding = None;
            }
            wcl.notify_response(ctx, exchange_id);
            ctx.metrics().count("ppss.exchanges_completed", 1);
        }
        let mut received = entries;
        received.push(from_entry);
        state.merge_entries(me, received, cfg.view_size);
        if journal_after {
            // The key history (and possibly the epoch) changed — that is
            // durable state; losing it on crash would orphan passports.
            self.journal_group(group);
        }
        events.push(PpssEvent::ViewUpdated { group });
    }

    /// Processes a descriptor blob surfaced by the Nylon relay layer.
    ///
    /// Non-members relay blobs without ever reaching this point (the
    /// store merge happens inside `whisper-pss`); members verify the
    /// signature against their key history and fold verified descriptors
    /// into the group CRDT. A verified deletion tombstone destroys the
    /// group on the spot, forever.
    pub fn on_descriptor(&mut self, ctx: &mut Ctx<'_>, bytes: &[u8]) -> Vec<PpssEvent> {
        let mut events = Vec::new();
        let Ok(desc) = GroupDescriptor::from_wire(bytes) else {
            ctx.metrics().count("ppss.desc_unparseable", 1);
            return events;
        };
        let group = desc.group;
        if self.deleted.contains(&group) {
            if !desc.tombstone {
                ctx.metrics().count("ppss.resurrection_blocked", 1);
            }
            return events;
        }
        let Some(state) = self.groups.get_mut(&group) else {
            return events; // not a member: relay-only, nothing to verify
        };
        if !desc.verify(&state.key_history) {
            // Signed under a key we have not learned yet (it will verify
            // once the NewKeyAnnouncement lands), or forged. Either way:
            // fail closed.
            ctx.metrics().count("ppss.desc_unverified", 1);
            return events;
        }
        if desc.tombstone {
            self.groups.remove(&group);
            self.pending_joins.remove(&group);
            self.deleted.insert(group);
            self.journal.append(&encode_tombstone_record(group));
            ctx.metrics().count("ppss.groups_deleted", 1);
            events.push(PpssEvent::GroupDeleted { group });
            return events;
        }
        let mut changed = state.membership.apply(&desc);
        if desc.epoch > state.tracker.epoch {
            // The signer verified, so a higher epoch is authoritative
            // even before its heartbeats reach us.
            state.tracker.accept_new_epoch(desc.epoch);
            changed = true;
        }
        let fresher = state
            .latest_descriptor
            .as_ref()
            .is_none_or(|cur| desc.dominates(cur));
        if fresher {
            let now = ctx.now().as_micros();
            if now >= desc.born_at {
                ctx.metrics()
                    .sample("ppss.desc_prop_s", (now - desc.born_at) as f64 / 1e6);
            }
            ctx.metrics().count("ppss.desc_adopted", 1);
            state.latest_descriptor = Some(desc);
            changed = true;
        }
        if changed {
            self.journal_group(group);
            events.push(PpssEvent::ViewUpdated { group });
        }
        events
    }

    /// Builds the exchange buffer: a random [`GOSSIP_LEN`]-sized subset of
    /// the view, excluding the partner (our fresh entry travels separately as
    /// `from_entry`).
    fn build_buffer(state: &GroupState, partner: NodeId, ctx: &mut Ctx<'_>) -> Vec<PrivateEntry> {
        use whisper_rand::seq::SliceRandom;
        let mut candidates: Vec<&PrivateEntry> =
            state.view.iter().filter(|e| e.node != partner).collect();
        candidates.shuffle(ctx.rng());
        candidates.into_iter().take(GOSSIP_LEN).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppss::group::PASSPORT_MEMO_CAP;
    use crate::{WhisperConfig, WhisperNode};
    use whisper_net::nat::NatType;
    use whisper_net::sim::{Sim, SimConfig};
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    /// Delivers `msg` to the PPSS of `node` as the WCL would, returning
    /// the events it raised.
    fn deliver(sim: &mut Sim, node: NodeId, msg: &PpssMsg) -> Vec<PpssEvent> {
        let wire = msg.to_wire();
        let mut events = None;
        sim.with_node_ctx::<WhisperNode>(node, |n, ctx| {
            n.with_api(|api, _| {
                events = api.ppss.on_delivered(ctx, api.nylon, api.wcl, None, &wire)
            });
        });
        events.expect("a PPSS message")
    }

    fn app_data(group: GroupId, passport: Passport) -> PpssMsg {
        PpssMsg::AppData { group, passport, data: vec![1, 2, 3], reply_entry: None }
    }

    /// The passport memo end to end: a remembered passport is accepted
    /// without changing what is delivered or counted, a forgery for a
    /// remembered node is still dropped under `ppss.dropped_bad_passport`,
    /// the memo stays bounded, and it does not survive the group state —
    /// neither a restart (state rebuilt from the journal) nor a deletion.
    #[test]
    fn passport_memo_is_exact_bounded_and_volatile() {
        let cfg = WhisperConfig::default();
        let key = KeyPair::generate(cfg.nylon.rsa, &mut StdRng::seed_from_u64(1));
        let mut sim = Sim::new(SimConfig::cluster(5));
        let me = sim.add_node(Box::new(WhisperNode::new(cfg, key)), NatType::Public);
        sim.run_for_secs(1);
        let mut group = GroupId(0);
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| group = n.create_group(ctx, "memo"));
        let memo_len = |sim: &Sim| {
            let state = sim.node::<WhisperNode>(me).unwrap().ppss().group(group);
            state.map(|s| s.verified_passports().len())
        };
        let group_key = {
            let node = sim.node::<WhisperNode>(me).unwrap();
            node.ppss().groups[&group].leader_key.clone().expect("the creator leads")
        };
        let bad = |sim: &Sim| sim.metrics().counter("ppss.dropped_bad_passport");

        let peer = Passport::issue(&group_key, group, NodeId(100));
        let expected = vec![PpssEvent::AppMessage {
            group,
            from: NodeId(100),
            data: vec![1, 2, 3],
            reply_entry: None,
        }];
        assert_eq!(memo_len(&sim), Some(0));
        assert_eq!(deliver(&mut sim, me, &app_data(group, peer.clone())), expected, "verified");
        assert_eq!(memo_len(&sim), Some(1));
        assert_eq!(deliver(&mut sim, me, &app_data(group, peer.clone())), expected, "remembered");
        assert_eq!(bad(&sim), 0);

        // A forged signature for the remembered node: dropped, counted,
        // nothing delivered, nothing remembered.
        let mut forged = peer.clone();
        forged.signature[0] ^= 0x80;
        assert_eq!(deliver(&mut sim, me, &app_data(group, forged)), vec![]);
        assert_eq!(bad(&sim), 1);
        assert_eq!(memo_len(&sim), Some(1));

        // More members than the memo holds: bounded, and nobody rejected.
        for n in 0..PASSPORT_MEMO_CAP as u64 + 8 {
            let p = Passport::issue(&group_key, group, NodeId(1000 + n));
            assert_eq!(deliver(&mut sim, me, &app_data(group, p)).len(), 1);
        }
        assert_eq!(memo_len(&sim), Some(PASSPORT_MEMO_CAP));
        assert_eq!(bad(&sim), 1);

        // A restart rebuilds the state from the journal: the memo is gone
        // and the passport verifies again from scratch.
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| n.ppss_mut().on_restart(ctx));
        assert_eq!(memo_len(&sim), Some(0), "the memo is volatile");
        assert_eq!(deliver(&mut sim, me, &app_data(group, peer.clone())), expected);
        assert_eq!(memo_len(&sim), Some(1));

        // Deletion takes the memo with the rest of the group state; the
        // once-remembered passport now opens nothing.
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| assert!(n.delete_group(ctx, group)));
        assert_eq!(memo_len(&sim), None);
        assert_eq!(deliver(&mut sim, me, &app_data(group, peer)), vec![]);
        assert_eq!(sim.metrics().counter("ppss.resurrection_blocked"), 1);
    }

    /// A `JoinReq` the leader has already admitted is answered again, not
    /// admitted again: the joiner whose ack never took effect asks a second
    /// time and gets a passport that verifies, while the leader's OR-set
    /// keeps the one dot it issued and nothing is republished.
    #[test]
    fn repeated_join_request_is_acked_again_but_admitted_once() {
        let cfg = WhisperConfig::default();
        let mut keys = StdRng::seed_from_u64(3);
        let mut sim = Sim::new(SimConfig::cluster(7));
        let ids: Vec<NodeId> = (0..6u64)
            .map(|i| {
                let key = KeyPair::generate(cfg.nylon.rsa, &mut keys);
                let mut node = WhisperNode::new(cfg.clone(), key);
                let boot = [NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect();
                node.nylon_mut().set_bootstrap(boot);
                sim.add_node(Box::new(node), NatType::Public)
            })
            .collect();
        sim.run_for_secs(250);
        let (leader, joiner) = (ids[2], ids[5]);
        let mut invitation = None;
        sim.with_node_ctx::<WhisperNode>(leader, |n, ctx| {
            let group = n.create_group(ctx, "once");
            invitation = n.invite(group, joiner);
        });
        let invitation = invitation.expect("the creator leads");
        let group = invitation.group;
        let request = |sim: &mut Sim| {
            let inv = invitation.clone();
            sim.with_node_ctx::<WhisperNode>(joiner, |n, ctx| n.join_group(ctx, inv));
            sim.run_for(CYCLE * 2); // the handshake, then a descriptor publish
        };
        let leader_sees = |sim: &Sim| {
            let state = &sim.node::<WhisperNode>(leader).unwrap().ppss().groups[&group];
            let dots = state.membership.dots().0.iter().filter(|d| d.node == joiner).count();
            (dots, state.desc_seq, state.dirty)
        };
        let count = |sim: &Sim, name: &str| sim.metrics().counter(name);

        request(&mut sim);
        assert_eq!(count(&sim, "ppss.joins_completed"), 1);
        let (dots, desc_seq, dirty) = leader_sees(&sim);
        assert_eq!((dots, dirty), (1, false), "admitted and published");

        // The joiner is back where it was before the ack arrived.
        sim.with_node_ctx::<WhisperNode>(joiner, |n, _| n.ppss_mut().groups.clear());
        request(&mut sim);
        assert_eq!(count(&sim, "ppss.joins_completed"), 2, "the second ack is valid too");
        assert_eq!(count(&sim, "ppss.join_ack_invalid"), 0);
        assert_eq!(count(&sim, "ppss.joins_accepted"), 1);
        assert_eq!(count(&sim, "ppss.join_reacked"), 1);
        assert_eq!(leader_sees(&sim), (1, desc_seq, false), "one dot, nothing republished");
        assert_eq!(count(&sim, "wcl.route_retry") + count(&sim, "wcl.route_exhausted"), 0);
    }

    /// The periodic checkpoint drops the one before last: however many
    /// have run, the journal holds a few records per group and no more
    /// storage than twice that — and a restart from it restores exactly
    /// what a restart from the append-only history (every checkpoint
    /// appending its snapshots behind all the stale ones) would.
    #[test]
    fn checkpoints_keep_the_journal_bounded_and_replay_equivalent() {
        let cfg = WhisperConfig::default();
        let mut sim = Sim::new(SimConfig::cluster(6));
        let mut keys = StdRng::seed_from_u64(2);
        let mut add = |sim: &mut Sim| {
            let key = KeyPair::generate(cfg.nylon.rsa, &mut keys);
            sim.add_node(Box::new(WhisperNode::new(cfg.clone(), key)), NatType::Public)
        };
        let (me, other) = (add(&mut sim), add(&mut sim));
        sim.run_for_secs(1);

        // The append-only history, kept beside the real journal: what is
        // appended to the one is appended to the other, and a checkpoint
        // adds the snapshots it wrote.
        let mut history = Journal::new();
        let mut seen = Journal::new();
        let mut track = |sim: &Sim, checkpoint: bool| {
            let ppss = sim.node::<WhisperNode>(me).unwrap().ppss();
            let real = ppss.journal().clone();
            if checkpoint {
                // The snapshots this checkpoint wrote end the journal.
                let records = real.replay().records;
                let snapshots: Vec<_> = records.iter().filter(|r| r[0] == REC_GROUP).collect();
                for record in &snapshots[snapshots.len() - ppss.groups.len()..] {
                    history.append(record);
                }
            } else {
                assert!(real.raw().starts_with(seen.raw()), "appends only between checkpoints");
                history.raw_mut().extend_from_slice(&real.raw()[seen.len_bytes()..]);
            }
            seen = real;
            history.len_bytes()
        };

        // Every record kind: two live groups, a tombstone, a pending join
        // (towards a leader no route reaches, so it stays pending).
        let mut invitation = None;
        sim.with_node_ctx::<WhisperNode>(other, |n, ctx| {
            let theirs = n.create_group(ctx, "theirs");
            invitation = n.invite(theirs, me);
        });
        sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
            n.create_group(ctx, "one");
            n.create_group(ctx, "two");
            let doomed = n.create_group(ctx, "doomed");
            assert!(n.delete_group(ctx, doomed));
            n.join_group(ctx, invitation.take().expect("the creator leads"));
        });
        track(&sim, false);

        let cycle = |sim: &mut Sim| {
            sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
                n.with_api(|api, _| api.ppss.on_cycle(ctx, api.nylon, api.wcl));
            });
        };
        for cycles in 1..=8 * 12u32 {
            cycle(&mut sim);
            let history_bytes = track(&sim, cycles % 8 == 0);
            // Event-driven appends between checkpoints: a group is born,
            // another dies.
            if cycles == 20 || cycles == 45 {
                sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
                    if cycles == 20 {
                        n.create_group(ctx, "three");
                    } else {
                        assert!(n.delete_group(ctx, GroupId::from_name("one")));
                    }
                });
                track(&sim, false);
            }
            if cycles % 8 == 0 {
                // A checkpoint is one record per live group, the pending
                // join, and one tombstone per deleted group; the journal
                // holds the last two and the appends between them,
                // whatever the number of checkpoints behind those.
                let checkpoint = |at: u32| match at {
                    ..20 => 2 + 1 + 1,
                    20..45 => 3 + 1 + 1,
                    _ => 2 + 1 + 2,
                };
                // The birth appends twice (creation, first descriptor),
                // the deletion once.
                let between = 2 * u32::from((cycles - 8..cycles).contains(&20))
                    + u32::from((cycles - 8..cycles).contains(&45));
                let records = (checkpoint(cycles - 8) + between + checkpoint(cycles)) as usize;
                let journal = sim.node::<WhisperNode>(me).unwrap().ppss().journal();
                if cycles > 8 {
                    // (The first checkpoint had none before it to drop.)
                    assert_eq!(journal.replay().records.len(), records, "after {cycles} cycles");
                }
                assert!(journal.len_bytes() < 1024 * records);
                assert!(journal.capacity_bytes() <= 2 * journal.len_bytes());
                let checkpoints = (cycles / 8) as usize;
                assert!(history_bytes > journal.len_bytes() * checkpoints / 4, "history grows");
            }
        }

        let restored_from = |sim: &mut Sim, disk: &Journal| {
            let mut folded = Vec::new();
            sim.with_node_ctx::<WhisperNode>(me, |n, ctx| {
                *n.ppss_mut().journal_mut() = disk.clone();
                n.ppss_mut().on_restart(ctx);
                folded = n.ppss().journal().raw().to_vec();
            });
            folded
        };
        let from_history = restored_from(&mut sim, &history);
        let from_compacted = restored_from(&mut sim, &seen);
        assert!(!from_compacted.is_empty());
        assert_eq!(from_history, from_compacted, "replay folds to the same state");
    }
}
