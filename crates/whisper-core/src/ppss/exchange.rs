//! The private view exchange (paper §IV-B): what a member ships its
//! partner, and how either side folds what it receives.

use super::messages::PpssMsg;
use super::{GroupId, GroupState, Ppss, PpssEvent, PrivateEntry, GOSSIP_LEN};
use crate::wcl::{Arrival, Wcl};
use whisper_net::sim::Ctx;
use whisper_net::wire::WireEncode;
use whisper_net::NodeId;
use whisper_pss::NylonCore;

impl GroupState {
    /// Ages the private view and starts an exchange with its oldest member.
    /// A partner no route reaches at all is dropped on the spot: it would
    /// otherwise stay the oldest entry and be picked again forever.
    pub(super) fn start_exchange(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        group: GroupId,
        my_entry: &PrivateEntry,
        events: &mut Vec<PpssEvent>,
    ) {
        for e in &mut self.view {
            e.age = e.age.saturating_add(1);
        }
        let Some(partner) = self.view.iter().max_by_key(|e| (e.age, e.node)).cloned() else {
            return;
        };
        let msg_id = wcl.alloc_msg_id();
        let msg = self.exchange_msg(ctx, group, partner.node, my_entry, msg_id, false);
        self.outstanding = Some((partner.node, msg_id));
        ctx.metrics().count("ppss.exchanges_initiated", 1);
        if !wcl.send(ctx, nylon, &partner, msg.to_wire(), None, msg_id) {
            // No route constructible at all (e.g. every advertised gateway
            // is gone).
            events.push(self.drop_unreachable(group, partner.node));
        }
    }

    /// The exchange message to `partner`, request or response: our entry,
    /// a random [`GOSSIP_LEN`]-sized subset of the view without the
    /// partner, and what the group gossips beside them — heartbeat, ballot,
    /// key announcement and the whole revoked set.
    fn exchange_msg(
        &self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        partner: NodeId,
        my_entry: &PrivateEntry,
        exchange_id: u64,
        is_response: bool,
    ) -> PpssMsg {
        PpssMsg::Exchange {
            group,
            passport: self.passport.clone(),
            from_entry: Box::new(my_entry.clone()),
            entries: self.build_buffer(partner, ctx),
            exchange_id,
            is_response,
            hb: self.tracker.heartbeat(),
            election: self.tracker.ballot(),
            new_key: self.latest_announcement.clone(),
            revoked: self.revoked.iter().copied().collect(),
        }
    }

    /// Builds the exchange buffer: a random [`GOSSIP_LEN`]-sized subset of
    /// the view, excluding the partner (our fresh entry travels separately
    /// as `from_entry`).
    fn build_buffer(&self, partner: NodeId, ctx: &mut Ctx<'_>) -> Vec<PrivateEntry> {
        use whisper_rand::seq::SliceRandom;
        let mut candidates: Vec<&PrivateEntry> =
            self.view.iter().filter(|e| e.node != partner).collect();
        candidates.shuffle(ctx.rng());
        candidates.into_iter().take(GOSSIP_LEN).cloned().collect()
    }

    /// Drops `node`, a member no route reaches, from the view and the PCP,
    /// and forgets the exchange outstanding with it, if any: one with
    /// another partner is still in flight.
    pub(super) fn drop_unreachable(&mut self, group: GroupId, node: NodeId) -> PpssEvent {
        self.outstanding.take_if(|&mut (partner, _)| partner == node);
        self.view.retain(|e| e.node != node);
        self.pcp.remove(&node);
        PpssEvent::MemberUnreachable { group, node }
    }

    pub(super) fn merge_entries(&mut self, me: NodeId, entries: Vec<PrivateEntry>, cap: usize) {
        for entry in entries {
            if entry.node == me || self.revoked.contains(&entry.node) {
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

    /// Folds revocations into the revoked set — `true` when that taught
    /// anything — and drops whoever is newly revoked from the view and PCP
    /// at once instead of leaving them to liveness pruning.
    pub(super) fn fold_revoked(&mut self, revoked: &[NodeId]) -> bool {
        let mut changed = false;
        for &node in revoked {
            if self.revoked.insert(node) {
                self.view.retain(|e| e.node != node);
                self.pcp.remove(&node);
                changed = true;
            }
        }
        changed
    }
}

impl Ppss {
    /// An exchange request or response `msg`, as [`Ppss::on_delivered`]
    /// dispatches it: answered if a request, folded in either way.
    pub(super) fn handle_exchange(
        &mut self,
        ctx: &mut Ctx<'_>,
        nylon: &mut NylonCore,
        wcl: &mut Wcl,
        via: Option<Arrival>,
        msg: PpssMsg,
        events: &mut Vec<PpssEvent>,
    ) {
        let PpssMsg::Exchange {
            group,
            passport,
            from_entry,
            entries,
            exchange_id,
            is_response,
            hb,
            election,
            new_key,
            revoked,
        } = msg
        else {
            unreachable!("dispatched on its tag");
        };
        let my_entry = self.my_entry(nylon);
        let me = nylon.id();
        let cfg = self.cfg.clone();
        let Some(state) = self.admit(ctx, wcl, via, group, &passport, Some(from_entry.node)) else {
            return;
        };
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
        // Revocations — the only membership members keep, and the only way
        // it travels (descriptors name no member). A responder folds the
        // request's set before it answers with its own, so one exchange
        // leaves both sides with the union.
        journal_after |= state.fold_revoked(&revoked);
        if !is_response {
            let resp =
                state.exchange_msg(ctx, group, from_entry.node, &my_entry, exchange_id, true);
            ctx.metrics().count("ppss.exchanges_served", 1);
            wcl.send_untracked(ctx, nylon, &from_entry, &resp.to_wire(), None);
        } else {
            state.outstanding.take_if(|&mut sent| sent == (from_entry.node, exchange_id));
            wcl.notify_response(ctx, exchange_id);
            ctx.metrics().count("ppss.exchanges_completed", 1);
        }
        let mut received = entries;
        received.push(*from_entry);
        state.merge_entries(me, received, cfg.view_size);
        if journal_after {
            // The key history (and possibly the epoch) or the revoked set
            // changed — that is durable state; losing it on crash would
            // orphan passports or re-admit the revoked.
            self.journal_group(group);
        }
        events.push(PpssEvent::ViewUpdated { group });
    }
}
