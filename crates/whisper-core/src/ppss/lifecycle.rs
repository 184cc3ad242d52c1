//! A group's life on one node: create, invite, join, revoke, delete, the
//! tombstone that outlives it, and the journal that carries all of it
//! across a crash.

use super::descriptor::GroupDescriptor;
use super::election::LeaderTracker;
use super::group::{issue_accreditation, verify_accreditation, Invitation, PassportMemo};
use super::messages::PpssMsg;
use super::{GroupId, GroupState, Passport, Ppss, PpssEvent, PrivateEntry, GOSSIP_LEN};
use crate::wcl::{Arrival, Wcl};
use std::collections::{BTreeMap, BTreeSet};
use whisper_crypto::rsa::{KeyPair, PublicKey};
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode, WireError};
use whisper_net::NodeId;

impl GroupState {
    /// A freshly initialised group state at leadership `epoch`; a leader
    /// starts with its first heartbeat.
    pub(super) fn fresh(
        key_history: Vec<PublicKey>,
        leader_key: Option<KeyPair>,
        passport: Passport,
        epoch: u64,
    ) -> GroupState {
        let mut tracker = LeaderTracker::new();
        tracker.accept_new_epoch(epoch);
        if leader_key.is_some() {
            tracker.beat();
        }
        GroupState {
            key_history,
            leader_key,
            passport,
            view: Vec::new(),
            pcp: BTreeMap::new(),
            tracker,
            latest_announcement: None,
            revoked: BTreeSet::new(),
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

/// One journal record: what a replay folds into the group table.
// A record lives only between its image and the state it is folded into
// or taken from, so the size of its largest variant costs nothing.
#[allow(clippy::large_enum_variant)]
pub(super) enum Record {
    /// The durable slice of one group's state: everything a node must
    /// still know after losing RAM — keys, passport, epoch, revoked set
    /// and a contact cache to re-bootstrap the private view from.
    /// Volatile state (in-flight exchanges, the PCP freshness,
    /// announcements) is deliberately absent.
    Group {
        group: GroupId,
        key_history: Vec<PublicKey>,
        leader_key: Option<KeyPair>,
        passport: Passport,
        epoch: u64,
        revoked: Vec<NodeId>,
        contacts: Vec<PrivateEntry>,
    },
    /// The group was deleted, under the signed tombstone the record
    /// keeps; sticky forever.
    Tombstone { group: GroupId, tombstone: Vec<u8> },
    /// A join handshake was started from this invitation.
    Pending(Invitation),
}

whisper_net::wire_format!(enum Record, "journal record tag" {
    1 => Group {
        group, key_history: seq, leader_key: opt, passport, epoch, revoked: seq, contacts: seq
    },
    2 => Tombstone { group, tombstone },
    3 => Pending(invitation),
});

/// The snapshot record of one group. Its contact cache is the private
/// view plus the PCP at checkpoint time, sorted by node: the view is in
/// no order of its own.
fn encode_group_record(group: GroupId, state: &GroupState) -> Vec<u8> {
    let mut contacts: Vec<PrivateEntry> = state.view.clone();
    for e in state.pcp.values() {
        if !contacts.iter().any(|c| c.node == e.node) {
            contacts.push(e.clone());
        }
    }
    contacts.sort_by_key(|e| e.node);
    Record::Group {
        group,
        key_history: state.key_history.clone(),
        leader_key: state.leader_key.clone(),
        passport: state.passport.clone(),
        epoch: state.tracker.epoch,
        revoked: state.revoked.iter().copied().collect(),
        contacts,
    }
    .to_wire()
}

/// A pending join: retried every cycle until the ack arrives.
pub(super) struct PendingJoin {
    pub(super) invitation: Invitation,
    pub(super) msg_id: Option<u64>,
}

impl Ppss {
    // ----------------------------------------------------------------
    // Group management API (the `createGroup` / `joinGroup` /
    // `authorizeJoin` interface of Fig. 1)
    // ----------------------------------------------------------------

    /// Creates a new private group with this node as its leader.
    ///
    /// Returns `None`, creating nothing, if the node already belongs to a
    /// group with this name (`ppss.create_refused_held`), or if a group
    /// with this name was deleted (`ppss.resurrection_blocked`): the
    /// tombstone is sticky, so the name can never be reused.
    pub fn create_group(&mut self, ctx: &mut Ctx<'_>, wcl: &Wcl, name: &str) -> Option<GroupId> {
        let id = GroupId::from_name(name);
        if self.groups.contains_key(&id) {
            ctx.metrics().count("ppss.create_refused_held", 1);
            return None;
        }
        if self.deleted.contains_key(&id) {
            ctx.metrics().count("ppss.resurrection_blocked", 1);
            return None;
        }
        let group_key = KeyPair::generate(wcl.nylon().config().rsa, ctx.rng());
        let passport = Passport::issue(&group_key, id, wcl.nylon().id());
        let state =
            GroupState::fresh(vec![group_key.public().clone()], Some(group_key), passport, 0);
        self.groups.insert(id, Box::new(state));
        ctx.metrics().count("ppss.groups_created", 1);
        self.journal_group(id);
        Some(id)
    }

    /// Issues an invitation for `invitee` (leader operation; the
    /// `authorizeJoin` API).
    ///
    /// Returns `None` if this node is not a leader of `group`.
    pub fn invite(&self, wcl: &Wcl, group: GroupId, invitee: NodeId) -> Option<Invitation> {
        let state = self.groups.get(&group)?;
        let leader_key = state.leader_key.as_ref()?;
        Some(Invitation {
            group,
            group_key: state.current_key().clone(),
            accreditation: issue_accreditation(leader_key, group, invitee),
            entry_point: wcl.entry(),
        })
    }

    /// Starts the join handshake using an out-of-band invitation. The
    /// request is retried every PPSS cycle until the leader answers.
    pub fn join_group(&mut self, ctx: &mut Ctx<'_>, wcl: &mut Wcl, invitation: Invitation) {
        let group = invitation.group;
        if self.groups.contains_key(&group) {
            return;
        }
        if self.deleted.contains_key(&group) {
            // The invitation outlived the group; the tombstone wins.
            ctx.metrics().count("ppss.resurrection_blocked", 1);
            return;
        }
        self.journal.append(&Record::Pending(invitation.clone()).to_wire());
        self.pending_joins
            .insert(group, PendingJoin { invitation, msg_id: None });
        self.try_pending_join(ctx, wcl, group);
    }

    pub(super) fn try_pending_join(&mut self, ctx: &mut Ctx<'_>, wcl: &mut Wcl, group: GroupId) {
        let Some(pending) = self.pending_joins.get_mut(&group) else {
            return;
        };
        if pending.msg_id.is_some_and(|id| wcl.is_pending(id)) {
            return; // a request is still in flight
        }
        let msg = PpssMsg::JoinReq {
            group,
            accreditation: pending.invitation.accreditation.clone(),
            entry: wcl.entry(),
        };
        let msg_id = wcl.alloc_msg_id();
        pending.msg_id = Some(msg_id);
        ctx.metrics().count("ppss.join_attempts", 1);
        wcl.send(ctx, &pending.invitation.entry_point, msg.to_wire(), None, msg_id);
    }

    /// Deletes `group` (leader operation): signs a deletion tombstone —
    /// the only descriptor a leader signs — and deletes the group here as
    /// a member that verified it would: pushes it to the private view and
    /// PCP, journals it and drops all local group state. Returns the
    /// events to dispatch, or `None` if this node is not a leader of the
    /// group.
    ///
    /// Deletion is permanent by construction: every member that verifies
    /// the tombstone destroys its state the same way, and the local
    /// tombstone set blocks joins and re-creation forever.
    pub fn delete_group(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        group: GroupId,
    ) -> Option<Vec<PpssEvent>> {
        let state = self.groups.get(&group)?;
        let leader_key = state.leader_key.as_ref()?;
        let tomb = GroupDescriptor::sign(
            leader_key,
            group,
            state.tracker.epoch,
            0,
            &state.key_history,
            true,
            Vec::new(),
            Vec::new(),
            ctx.now().as_micros(),
        );
        Some(self.delete_here(ctx, wcl, group, tomb.to_wire()))
    }

    /// Forgets `group` for good under `tombstone`, its signed image: the
    /// tombstone goes to every member in the private view and the PCP, in
    /// a [`PpssMsg::Deleted`] each, then [`Ppss::bury`] and the journal
    /// record.
    fn delete_here(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        group: GroupId,
        tombstone: Vec<u8>,
    ) -> Vec<PpssEvent> {
        if let Some(state) = self.groups.get(&group) {
            // By node, as the PCP refresh goes: every send draws from the
            // node RNG.
            let targets: BTreeMap<NodeId, &PrivateEntry> =
                state.pcp.values().chain(&state.view).map(|e| (e.node, e)).collect();
            let push = PpssMsg::Deleted { tombstone: tombstone.clone(), exchange_id: 0 }.to_wire();
            for target in targets.values() {
                wcl.send_untracked(ctx, target, &push, None);
            }
        }
        self.journal.append(&Record::Tombstone { group, tombstone: tombstone.clone() }.to_wire());
        self.bury(group, tombstone);
        ctx.metrics().count("ppss.groups_deleted", 1);
        vec![PpssEvent::GroupDeleted { group }]
    }

    /// Forgets `group`: its state and any pending join go, the tombstone
    /// stays.
    fn bury(&mut self, group: GroupId, tombstone: Vec<u8>) {
        self.groups.remove(&group);
        self.pending_joins.remove(&group);
        self.deleted.insert(group, tombstone);
    }

    /// Revokes `node`'s membership (leader operation): adds it to the
    /// revoked set and drops it from the view and PCP. The revocation
    /// reaches the members in the leader's next exchanges and spreads
    /// between them from there; no descriptor is signed for it. Returns
    /// `false` when not a leader or `node` was revoked already.
    pub fn remove_member(&mut self, group: GroupId, node: NodeId) -> bool {
        let Some(state) = self.groups.get_mut(&group) else {
            return false;
        };
        if state.leader_key.is_none() || !state.fold_revoked(&[node]) {
            return false;
        }
        self.journal_group(group);
        true
    }

    /// Rebuilds group state after a crash-restart — **only** from a
    /// journal replay.
    ///
    /// The in-memory group table is discarded wholesale: anything that
    /// was never journaled is lost, exactly like a process that forgot
    /// to fsync. The journal replay salvages the longest valid prefix of
    /// the "disk" (see [`Journal::replay`](super::journal::Journal::replay)); a truncated tail
    /// or corrupt record is attributed to `ppss.journal_truncated` /
    /// `ppss.journal_corrupt` and everything after it is dropped.
    /// Restored groups come back with their keys, passport, epoch,
    /// revoked set and a journaled contact cache as the private view;
    /// all in-flight state (outstanding exchanges, the PCP, pending
    /// announcements) is volatile and starts empty.
    pub fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
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
    }

    /// Folds one journaled record into the group table (replay order
    /// matters: later records win, tombstones win over everything).
    pub(super) fn apply_record(&mut self, record: &[u8]) -> Result<(), WireError> {
        match Record::from_wire(record)? {
            Record::Group { group, key_history, leader_key, passport, epoch, revoked, contacts } => {
                if self.deleted.contains_key(&group) {
                    return Ok(()); // a tombstone never un-deletes
                }
                let mut state = GroupState::fresh(key_history, leader_key, passport, epoch);
                state.revoked = revoked.into_iter().collect();
                state.view = contacts;
                self.pending_joins.remove(&group); // the join completed
                self.groups.insert(group, Box::new(state));
            }
            Record::Tombstone { group, tombstone } => self.bury(group, tombstone),
            Record::Pending(invitation) => {
                let group = invitation.group;
                if !self.groups.contains_key(&group) && !self.deleted.contains_key(&group) {
                    self.pending_joins.insert(group, PendingJoin { invitation, msg_id: None });
                }
            }
        }
        Ok(())
    }

    /// Appends a fresh snapshot of `group` to the journal, compacting
    /// when the log has grown past the threshold.
    pub(super) fn journal_group(&mut self, group: GroupId) {
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
    pub(super) fn compact_journal(&mut self) {
        let records = self.snapshot_records();
        self.journal.reset_with(records.iter().map(|r| r.as_slice()));
    }

    /// The durable state as records: one snapshot per live group, one
    /// pending record per outstanding join and one tombstone per deleted
    /// group.
    pub(super) fn snapshot_records(&self) -> Vec<Vec<u8>> {
        let groups = self.groups.iter().map(|(&id, state)| encode_group_record(id, state));
        let pending =
            self.pending_joins.values().map(|p| Record::Pending(p.invitation.clone()).to_wire());
        let deleted = self.deleted.iter().map(|(&group, tombstone)| {
            Record::Tombstone { group, tombstone: tombstone.clone() }.to_wire()
        });
        groups.chain(pending).chain(deleted).collect()
    }

    pub(super) fn handle_join_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        group: GroupId,
        accreditation: Vec<u8>,
        entry: PrivateEntry,
    ) {
        let cap = self.cfg.view_size;
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        let Some(leader_key) = state.leader_key.as_ref() else {
            // Not a leader: silently ignore (never reveal membership).
            ctx.metrics().count("ppss.join_ignored_not_leader", 1);
            return;
        };
        if state.revoked.contains(&entry.node) {
            // A revocation sticks: the accreditation it was admitted with
            // does not admit it again.
            ctx.metrics().count("ppss.join_rejected_revoked", 1);
            return;
        }
        if !verify_accreditation(&accreditation, group, entry.node, &state.key_history) {
            ctx.metrics().count("ppss.join_rejected", 1);
            return;
        }
        wcl.bind_return(ctx.now(), via, entry.node);
        // The passport is a deterministic signature: a retransmitted
        // request — its ack was lost, or is still on its way — gets the
        // same one again. Nothing is journaled: the passport is all the
        // admission there is.
        let passport = Passport::issue(leader_key, group, entry.node);
        // Seed the joiner with a slice of our view plus ourselves.
        let mut entries = vec![wcl.entry()];
        entries.extend(state.view.iter().take(GOSSIP_LEN).cloned());
        let ack = PpssMsg::JoinAck {
            group,
            passport,
            key_history: state.key_history.clone(),
            entries,
        };
        state.merge_entries(wcl.nylon().id(), vec![entry.clone()], cap);
        ctx.metrics().count("ppss.joins_accepted", 1);
        wcl.send_untracked(ctx, &entry, &ack.to_wire(), None);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_join_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        group: GroupId,
        passport: Passport,
        history: Vec<PublicKey>,
        entries: Vec<PrivateEntry>,
        events: &mut Vec<PpssEvent>,
    ) {
        let Some(pending) = self.pending_joins.get(&group) else {
            return;
        };
        // The invitation's key must appear in the history, and our new
        // passport must verify: otherwise someone is feeding us a fake
        // group.
        if !history.contains(&pending.invitation.group_key)
            || passport.node != wcl.nylon().id()
            || !passport.verify(group, &history)
        {
            ctx.metrics().count("ppss.join_ack_invalid", 1);
            return;
        }
        // The ack is the answer to the tracked `JoinReq`.
        if let Some(msg_id) = self.pending_joins.remove(&group).and_then(|p| p.msg_id) {
            wcl.notify_response(ctx, msg_id);
        }
        let mut state = GroupState::fresh(history, None, passport, 0);
        state.merge_entries(wcl.nylon().id(), entries, self.cfg.view_size);
        self.groups.insert(group, Box::new(state));
        ctx.metrics().count("ppss.joins_completed", 1);
        self.journal_group(group);
        events.push(PpssEvent::Joined { group });
        events.push(PpssEvent::ViewUpdated { group });
    }

    /// Handles a [`PpssMsg::Deleted`]: `bytes` is the tombstone it
    /// carried, `exchange_id` the request it answers (0 when pushed).
    ///
    /// A tombstone that does not parse — its signer key one no node could
    /// have made included — is counted (`ppss.desc_unparseable`) by member
    /// and non-member alike, and goes no further. A member verifies the
    /// signature against its key history. A verified deletion tombstone
    /// destroys the group on the spot, forever, and goes on to the view
    /// and PCP ([`Ppss::delete_here`]); any other verified descriptor says
    /// nothing the exchanges do not, and is dropped. A non-member has
    /// nothing to verify it against and drops it. An answer ends the
    /// tracked exchange request it echoes once this node holds the group
    /// deleted under these very bytes: asking again would only bring them
    /// again.
    pub(super) fn on_descriptor(
        &mut self,
        ctx: &mut Ctx<'_>,
        wcl: &mut Wcl,
        bytes: &[u8],
        exchange_id: u64,
    ) -> Vec<PpssEvent> {
        let Ok(desc) = GroupDescriptor::from_wire(bytes) else {
            ctx.metrics().count("ppss.desc_unparseable", 1);
            return Vec::new();
        };
        let group = desc.group;
        let mut events = Vec::new();
        if self.deleted.contains_key(&group) {
            if !desc.tombstone {
                ctx.metrics().count("ppss.resurrection_blocked", 1);
            }
        } else if let Some(state) = self.groups.get(&group) {
            if !desc.verify(&state.key_history) {
                // Signed under a key we have not learned yet (it will
                // verify once the NewKeyAnnouncement lands), or forged.
                // Either way: fail closed.
                ctx.metrics().count("ppss.desc_unverified", 1);
            } else if !desc.tombstone {
                ctx.metrics().count("ppss.desc_ignored", 1);
            } else {
                let now = ctx.now().as_micros();
                if now >= desc.born_at {
                    ctx.metrics().sample("ppss.deletion_prop_s", (now - desc.born_at) as f64 / 1e6);
                }
                events = self.delete_here(ctx, wcl, group, bytes.to_vec());
            }
        }
        if exchange_id != 0 && self.deleted.get(&group).is_some_and(|held| held == bytes) {
            wcl.notify_response(ctx, exchange_id);
        }
        events
    }
}
