//! The source's route cache and what the two ends of a circuit have
//! said to each other on it.

use super::{Arrival, Preamble, Wcl};
use std::collections::{BTreeMap, VecDeque};
use whisper_crypto::circuit::{CircuitId, SourceCircuit};
use whisper_net::{NodeId, SimTime};

/// What the two ends of a circuit have stated to each other on it, as one
/// end holds it: lives and dies with the route (source) or the circuit
/// slot (destination).
#[derive(Debug, Default)]
pub(super) struct Conversation {
    /// The preamble this end last sent in full.
    pub(super) said: Option<Preamble>,
    /// The topic and bytes of the preamble the other end last sent.
    pub(super) heard: Option<(u128, Vec<u8>)>,
}

impl Conversation {
    /// What of `payload` has to travel, given what was already said.
    pub(super) fn unsaid<'p>(&self, payload: &'p [u8], once: Option<Preamble>) -> &'p [u8] {
        match once.filter(|_| self.said == once) {
            Some(said) => payload.get(said.len..).unwrap_or(payload),
            None => payload,
        }
    }
}

/// The source's cached route to `dest`: the circuit keys, where to inject
/// packets, and which mixes the route runs through (needed so retries can
/// avoid them).
pub(super) struct CachedRoute {
    pub(super) dest: NodeId,
    pub(super) circuit: SourceCircuit,
    pub(super) first_hop: (NodeId, bool),
    pub(super) mixes: (NodeId, NodeId),
    pub(super) expires: whisper_net::SimTime,
    pub(super) talk: Conversation,
}

/// The source's route cache: after an insert at time `t` it holds exactly
/// the routes unexpired at `t`, so a node that keeps meeting new
/// destinations does not keep a dead route (three AES schedules) for
/// each one it ever spoke to.
///
/// A held route is two things: what sends to its destination ride while it
/// is that destination's *current* route, and — for as long as it is held
/// — where return packets on its circuit end. A retry that gives up on a
/// route takes the first away and leaves the second: the answer that was
/// merely slow still comes home, and gives the route back: sends ride the
/// route an answer last came home on, while it is unexpired. That route
/// is known to work both ways, and what its far end stated on it has been
/// heard here; a retry's route whose answer was lost is neither, and the
/// short answers its far end sends next could not be read.
#[derive(Default)]
pub(super) struct RouteCache {
    /// Every held route under the id its first hop listens on, which is
    /// the id return packets come back under. `BTreeMap`s so nothing ever
    /// depends on hash iteration order.
    pub(super) by_first_cid: BTreeMap<CircuitId, CachedRoute>,
    /// The route sends to each destination ride.
    pub(super) current: BTreeMap<NodeId, CircuitId>,
    /// `(expires, first cid, dest)` of every insert, in insertion order —
    /// which is expiry order, the lifetime being one constant.
    pub(super) expiry: VecDeque<(SimTime, CircuitId, NodeId)>,
}

impl RouteCache {
    /// The current route to `dest`.
    pub(super) fn get_mut(&mut self, dest: NodeId) -> Option<&mut CachedRoute> {
        self.by_first_cid.get_mut(self.current.get(&dest)?)
    }

    /// Caches `route` as the current one to its destination after
    /// collecting every expired one.
    pub(super) fn insert(&mut self, now: SimTime, route: CachedRoute) {
        while let Some(&(_, cid, old)) = self.expiry.front().filter(|(e, ..)| *e <= now) {
            self.expiry.pop_front();
            self.by_first_cid.remove(&cid);
            if self.current.get(&old) == Some(&cid) {
                self.current.remove(&old);
            }
        }
        let cid = route.circuit.first_cid;
        self.expiry.push_back((route.expires, cid, route.dest));
        self.current.insert(route.dest, cid);
        self.by_first_cid.insert(cid, route);
    }

    /// Stops sends to `dest` riding its current route, which stays held as
    /// the end of its circuit's way back. `true` if that took a route that
    /// had not expired out of use.
    pub(super) fn retire(&mut self, dest: NodeId, now: SimTime) -> bool {
        let retired = self.current.remove(&dest).and_then(|cid| self.by_first_cid.get(&cid));
        retired.is_some_and(|route| route.expires > now)
    }
}

impl Wcl {
    /// What is kept of the conversation on the circuit `via`, if the
    /// circuit still exists (a destination's record starts here).
    fn talk_mut(&mut self, now: SimTime, via: Arrival) -> Option<&mut Conversation> {
        match via {
            Arrival::Forward(cid) => {
                let (_, talk) = self.circuits.slot_mut(now.as_micros(), cid)?;
                Some(talk.get_or_insert_with(Box::default))
            }
            Arrival::Return(cid) => self.routes.by_first_cid.get_mut(&cid).map(|route| &mut route.talk),
        }
    }

    /// Keeps `preamble` — what the far end of the circuit `via` has just
    /// stated about itself on `topic`, authenticated by the layer above —
    /// for as long as this node keeps the circuit, as the bytes it came
    /// in.
    pub fn hear(&mut self, now: SimTime, via: Option<Arrival>, topic: u128, preamble: &[u8]) {
        if let Some(talk) = via.and_then(|via| self.talk_mut(now, via)) {
            let (was, bytes) = talk.heard.get_or_insert_with(Default::default);
            *was = topic;
            bytes.clear();
            bytes.extend_from_slice(preamble);
        }
    }

    /// The topic and bytes last [heard](Wcl::hear) on the circuit `via`.
    pub fn heard(&mut self, now: SimTime, via: Option<Arrival>) -> Option<(u128, &[u8])> {
        let (topic, bytes) = self.talk_mut(now, via?)?.heard.as_ref()?;
        Some((*topic, bytes))
    }
}
