//! Probabilistic broadcast inside a private group — the "private chat
//! room" application class the paper's introduction motivates.
//!
//! The protocol is a lightweight variant of lpbcast (Eugster et al. \[5\],
//! one of the PSS applications the paper cites): every member buffers the
//! most recent events it has seen; each cycle it pushes its digest (and
//! any events the partner is missing) to a few random members of its
//! private view. Events are identified by `(origin, sequence)`; duplicate
//! suppression makes delivery idempotent and the push-with-recovery
//! exchange makes dissemination complete w.h.p. within a few cycles —
//! all of it over confidential WCL routes.

use std::collections::{BTreeMap, BTreeSet};
use whisper_core::{GroupApp, GroupId, WhisperApi};
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode};
use whisper_net::{NodeId, SimDuration};

/// Identifier of a broadcast event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// The publishing member.
    pub origin: NodeId,
    /// The publisher's sequence number.
    pub seq: u64,
}

whisper_net::wire_format!(EventId { origin, seq });

/// A broadcast event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Identifier.
    pub id: EventId,
    /// Application payload (e.g. a chat line).
    pub payload: Vec<u8>,
}

whisper_net::wire_format!(Event { id, payload });

#[derive(Clone, Debug, PartialEq)]
enum BcastMsg {
    /// Push: fresh events plus the sender's digest of known ids.
    /// `push` is true for spontaneous rounds (they elicit pulls and
    /// push-backs) and false for responses (which must not).
    Gossip { events: Vec<Event>, digest: Vec<EventId>, push: bool },
    /// Pull: ids the sender is missing (learned from a digest).
    Request { ids: Vec<EventId> },
}

whisper_net::wire_format!(enum BcastMsg, "unknown broadcast tag" {
    1 => Gossip { events: seq, digest: seq, push },
    2 => Request { ids: seq },
});

/// Gossip period.
const CYCLE: SimDuration = SimDuration::from_secs(15);

/// Members pushed to per cycle.
const FANOUT: usize = 2;

/// Fresh events shipped per push.
const EVENTS_PER_PUSH: usize = 8;

/// Events buffered: beyond it the oldest are forgotten, so late joiners
/// recover only this window.
const BUFFER: usize = 256;

const BCAST_TIMER: u64 = 3;

/// The probabilistic broadcast application.
#[derive(Debug)]
pub struct BroadcastApp {
    group: GroupId,
    /// All known events, ordered by id (bounded by [`BUFFER`]).
    store: BTreeMap<EventId, Vec<u8>>,
    /// Ids seen (kept slightly longer than payloads for dedup).
    seen: BTreeSet<EventId>,
    /// Delivery log in arrival order.
    delivered: Vec<Event>,
    next_seq: u64,
    published: u64,
}

impl BroadcastApp {
    /// Creates the app for `group`.
    pub fn new(group: GroupId) -> Self {
        BroadcastApp {
            group,
            store: BTreeMap::new(),
            seen: BTreeSet::new(),
            delivered: Vec::new(),
            next_seq: 0,
            published: 0,
        }
    }

    /// Events delivered so far, in arrival order (includes own
    /// publications).
    pub fn delivered(&self) -> &[Event] {
        &self.delivered
    }

    /// Number of events this node published.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Publishes `payload` to the group. Returns the event id.
    pub fn publish(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        payload: Vec<u8>,
    ) -> EventId {
        let id = EventId { origin: api.id(), seq: self.next_seq };
        self.next_seq += 1;
        self.published += 1;
        self.accept(Event { id, payload });
        // Eager push to kick off dissemination without waiting a cycle.
        self.push_round(ctx, api);
        id
    }

    fn accept(&mut self, event: Event) -> bool {
        if !self.seen.insert(event.id) {
            return false;
        }
        self.store.insert(event.id, event.payload.clone());
        self.delivered.push(event);
        while self.store.len() > BUFFER {
            let oldest = *self.store.keys().next().expect("non-empty");
            self.store.remove(&oldest);
        }
        true
    }

    fn digest(&self) -> Vec<EventId> {
        self.store.keys().copied().collect()
    }

    fn freshest_events(&self) -> Vec<Event> {
        self.delivered
            .iter()
            .rev()
            .take(EVENTS_PER_PUSH)
            .filter(|e| self.store.contains_key(&e.id))
            .cloned()
            .collect()
    }

    fn push_round(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>) {
        let view = api.private_view(self.group);
        if view.is_empty() {
            return;
        }
        let mut targets: Vec<NodeId> = view.iter().map(|e| e.node).collect();
        use whisper_rand::seq::SliceRandom;
        targets.shuffle(ctx.rng());
        let msg = BcastMsg::Gossip {
            events: self.freshest_events(),
            digest: self.digest(),
            push: true,
        };
        let wire = msg.to_wire();
        for target in targets.into_iter().take(FANOUT) {
            // Ship our entry so receivers can pull missing events from us
            // even when we are absent from their private view.
            api.send_private(ctx, self.group, target, wire.clone(), true);
        }
    }
}

impl GroupApp for BroadcastApp {
    fn on_joined(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if group == self.group {
            api.set_app_timer(ctx, CYCLE, BCAST_TIMER);
        }
    }

    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_>, _api: &mut WhisperApi<'_>) {
        // The payload buffer is volatile — anti-entropy refills it from
        // peers. The dedup set, delivery log and sequence counter model
        // the app's own durable journal: a publisher that reused
        // sequence numbers after a crash would collide with its pre-crash
        // event ids and silently lose events at every subscriber.
        self.store.clear();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, token: u64) {
        if token != BCAST_TIMER {
            return;
        }
        api.set_app_timer(ctx, CYCLE, BCAST_TIMER);
        self.push_round(ctx, api);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        from: NodeId,
        data: &[u8],
        reply_entry: Option<whisper_core::PrivateEntry>,
    ) {
        if group != self.group {
            return;
        }
        let Ok(msg) = BcastMsg::from_wire(data) else {
            return;
        };
        match msg {
            BcastMsg::Gossip { events, digest, push } => {
                for event in events {
                    self.accept(event);
                }
                if !push {
                    return; // a pull/push-back response; never answer it
                }
                // Anti-entropy runs both ways. Pull: recover anything the
                // digest shows that we lack.
                let missing: Vec<EventId> = digest
                    .iter()
                    .filter(|id| !self.seen.contains(id))
                    .copied()
                    .collect();
                if !missing.is_empty() {
                    let req = BcastMsg::Request { ids: missing }.to_wire();
                    api.reply(ctx, self.group, from, reply_entry.as_ref(), req, true);
                }
                // Push-back: hand the pusher whatever it is missing — this
                // is how a member that appears in few views still recovers
                // (its own outgoing pushes expose its digest).
                let digest_set: BTreeSet<EventId> = digest.into_iter().collect();
                let they_lack: Vec<Event> = self
                    .store
                    .iter()
                    .filter(|(id, _)| !digest_set.contains(id))
                    .take(2 * EVENTS_PER_PUSH)
                    .map(|(id, payload)| Event { id: *id, payload: payload.clone() })
                    .collect();
                if !they_lack.is_empty() {
                    let back =
                        BcastMsg::Gossip { events: they_lack, digest: vec![], push: false }
                            .to_wire();
                    api.reply(ctx, self.group, from, reply_entry.as_ref(), back, false);
                }
            }
            BcastMsg::Request { ids } => {
                let events: Vec<Event> = ids
                    .into_iter()
                    .filter_map(|id| {
                        self.store.get(&id).map(|p| Event { id, payload: p.clone() })
                    })
                    .collect();
                if !events.is_empty() {
                    let resp =
                        BcastMsg::Gossip { events, digest: vec![], push: false }.to_wire();
                    api.reply(ctx, self.group, from, reply_entry.as_ref(), resp, false);
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

    fn event(origin: u64, seq: u64, payload: &[u8]) -> Event {
        Event { id: EventId { origin: NodeId(origin), seq }, payload: payload.to_vec() }
    }

    #[test]
    fn accept_dedupes() {
        let mut app = BroadcastApp::new(GroupId(1));
        assert!(app.accept(event(1, 0, b"hello")));
        assert!(!app.accept(event(1, 0, b"hello")));
        assert_eq!(app.delivered().len(), 1);
    }

    #[test]
    fn buffer_bounded_but_seen_remembered() {
        let mut app = BroadcastApp::new(GroupId(1));
        for seq in 0..BUFFER as u64 + 6 {
            app.accept(event(1, seq, b"x"));
        }
        assert_eq!(app.store.len(), BUFFER);
        assert_eq!(app.store.keys().next().map(|id| id.seq), Some(6), "the oldest go first");
        assert_eq!(app.delivered().len(), BUFFER + 6, "deliveries are not forgotten");
        assert!(!app.accept(event(1, 0, b"x")), "evicted events stay deduplicated");
    }

    #[test]
    fn digest_lists_store_contents() {
        let mut app = BroadcastApp::new(GroupId(1));
        app.accept(event(1, 0, b"a"));
        app.accept(event(2, 5, b"b"));
        let digest = app.digest();
        assert_eq!(digest.len(), 2);
        assert!(digest.contains(&EventId { origin: NodeId(2), seq: 5 }));
    }

    #[test]
    fn freshest_events_are_the_most_recent() {
        let mut app = BroadcastApp::new(GroupId(1));
        for seq in 0..EVENTS_PER_PUSH as u64 + 3 {
            app.accept(event(1, seq, b"x"));
        }
        let fresh: Vec<u64> = app.freshest_events().iter().map(|e| e.id.seq).collect();
        assert_eq!(fresh, (3..EVENTS_PER_PUSH as u64 + 3).rev().collect::<Vec<_>>(), "newest first");
    }

    #[test]
    fn wire_round_trips() {
        let msg = BcastMsg::Gossip {
            events: vec![event(1, 2, b"payload")],
            digest: vec![EventId { origin: NodeId(1), seq: 2 }],
            push: true,
        };
        assert_eq!(BcastMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        let msg = BcastMsg::Request { ids: vec![EventId { origin: NodeId(9), seq: 0 }] };
        assert_eq!(BcastMsg::from_wire(&msg.to_wire()).unwrap(), msg);
        assert!(BcastMsg::from_wire(&[9, 9]).is_err());
    }

    #[test]
    fn wire_bytes_are_pinned() {
        let gossip = BcastMsg::Gossip {
            events: vec![event(1, 2, b"hi")],
            digest: vec![EventId { origin: NodeId(3), seq: 4 }],
            push: true,
        };
        let bytes = [
            &[1, 1][..],
            &[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 2, b'h', b'i'],
            &[1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4],
            &[1],
        ]
        .concat();
        assert_eq!(gossip.to_wire(), bytes);
        assert_eq!(BcastMsg::from_wire(&bytes), Ok(gossip));
        let request = BcastMsg::Request { ids: vec![EventId { origin: NodeId(9), seq: 5 }] };
        let bytes = [2, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 5];
        assert_eq!(request.to_wire(), bytes);
        assert_eq!(BcastMsg::from_wire(&bytes), Ok(request));
    }
}
