//! Gossip-based aggregation (Jelasity, Montresor, Babaoglu \[8\]).
//!
//! Push-pull averaging / maximum computation over a gossip overlay. The
//! paper uses max-aggregation for leader election (§IV-A); the average
//! variant also yields decentralized network size estimation (every node
//! starts at 0 except one seed at 1; the average converges to `1/n`).
//!
//! [`AggregationState`] is the pure per-node state machine (unit-testable
//! without a network); [`AggregationApp`] runs it inside a private group
//! as a [`GroupApp`].

use whisper_core::{GroupApp, GroupId, WhisperApi};
use whisper_net::sim::Ctx;
use whisper_net::wire::{WireDecode, WireEncode, WireError, WireReader, WireSink};
use whisper_net::{NodeId, SimDuration};

/// Which aggregate is being computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKind {
    /// Converges to the global average of initial values.
    Average,
    /// Converges to the global maximum.
    Maximum,
}

/// The per-node aggregation state.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregationState {
    kind: AggregateKind,
    value: f64,
    exchanges: u64,
}

impl AggregationState {
    /// Creates state with an initial local value.
    pub fn new(kind: AggregateKind, initial: f64) -> Self {
        AggregationState { kind, value: initial, exchanges: 0 }
    }

    /// The current estimate.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of exchanges performed (diagnostics).
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// The initiator side of a push-pull exchange: combines with the
    /// partner's value and returns what the partner must adopt.
    pub fn exchange(&mut self, partner_value: f64) -> f64 {
        self.exchanges += 1;
        match self.kind {
            AggregateKind::Average => {
                let merged = (self.value + partner_value) / 2.0;
                self.value = merged;
                merged
            }
            AggregateKind::Maximum => {
                let merged = self.value.max(partner_value);
                self.value = merged;
                merged
            }
        }
    }

    /// The responder side: answers with its pre-merge value and adopts
    /// the merged one.
    pub fn respond(&mut self, initiator_value: f64) -> f64 {
        let mine = self.value;
        self.exchange(initiator_value);
        mine
    }
}

/// Wire format of the aggregation exchange.
#[derive(Clone, Debug, PartialEq)]
enum AggMsg {
    Request { value: f64 },
    Response { value: f64 },
}

impl WireEncode for AggMsg {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            AggMsg::Request { value } => {
                w.put_u8(1);
                w.put_u64(value.to_bits());
            }
            AggMsg::Response { value } => {
                w.put_u8(2);
                w.put_u64(value.to_bits());
            }
        }
    }
}

impl WireDecode for AggMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            1 => Ok(AggMsg::Request { value: f64::from_bits(r.take_u64()?) }),
            2 => Ok(AggMsg::Response { value: f64::from_bits(r.take_u64()?) }),
            _ => Err(WireError::new("unknown aggregation tag")),
        }
    }
}

const AGG_TIMER: u64 = 1;

/// Gossip aggregation as a private-group application.
#[derive(Debug)]
pub struct AggregationApp {
    group: GroupId,
    state: AggregationState,
    cycle: SimDuration,
}

impl AggregationApp {
    /// Creates the app for `group`, starting from `initial`.
    pub fn new(group: GroupId, kind: AggregateKind, initial: f64, cycle: SimDuration) -> Self {
        AggregationApp { group, state: AggregationState::new(kind, initial), cycle }
    }

    /// The current estimate.
    pub fn estimate(&self) -> f64 {
        self.state.value()
    }

    /// Exchanges performed so far.
    pub fn exchanges(&self) -> u64 {
        self.state.exchanges()
    }
}

impl GroupApp for AggregationApp {
    // No `on_crash_restart` override: the push-pull exchange keeps no
    // in-flight bookkeeping (a lost response simply leaves this node's
    // full value in place, which is the mass-conserving failure mode),
    // so the default no-op is the correct volatile-state reset.

    fn on_joined(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if group == self.group {
            api.set_app_timer(ctx, self.cycle, AGG_TIMER);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, token: u64) {
        if token != AGG_TIMER {
            return;
        }
        api.set_app_timer(ctx, self.cycle, AGG_TIMER);
        // Pick a random private-view member and push our value.
        let view = api.private_view(self.group);
        if view.is_empty() {
            return;
        }
        let pick = whisper_rand::Rng::gen_range(ctx.rng(), 0..view.len());
        let partner = view[pick].node;
        let msg = AggMsg::Request { value: self.state.value() }.to_wire();
        // Ship our entry so the partner can answer even when we are not
        // in its (small) private view — the push-pull exchange must be
        // atomic or mass conservation degrades into a random walk.
        api.send_private(ctx, self.group, partner, msg, true);
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
        let Ok(msg) = AggMsg::from_wire(data) else {
            return;
        };
        match msg {
            AggMsg::Request { value } => {
                // Merge ONLY if the counter-value actually leaves for the
                // initiator: a one-sided merge destroys (or mints) mass.
                let resp = AggMsg::Response { value: self.state.value() }.to_wire();
                if api.reply(ctx, self.group, from, reply_entry.as_ref(), resp, false) {
                    self.state.exchange(value);
                } else {
                    ctx.metrics().count("agg.exchange_aborted", 1);
                }
            }
            AggMsg::Response { value } => {
                self.state.exchange(value);
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
    fn average_converges_pairwise() {
        // Emulate rounds of random pairwise exchanges; variance decays.
        let mut nodes: Vec<AggregationState> = (0..16)
            .map(|i| AggregationState::new(AggregateKind::Average, i as f64))
            .collect();
        let true_mean = 7.5;
        for round in 0..30 {
            for i in 0..nodes.len() {
                let j = (i + round + 1) % nodes.len();
                if i == j {
                    continue;
                }
                let (a, b) = if i < j {
                    let (l, r) = nodes.split_at_mut(j);
                    (&mut l[i], &mut r[0])
                } else {
                    let (l, r) = nodes.split_at_mut(i);
                    (&mut r[0], &mut l[j])
                };
                let theirs = b.respond(a.value());
                a.exchange(theirs);
            }
        }
        for n in &nodes {
            assert!((n.value() - true_mean).abs() < 0.01, "value {}", n.value());
        }
    }

    #[test]
    fn average_preserves_mass() {
        let mut a = AggregationState::new(AggregateKind::Average, 10.0);
        let mut b = AggregationState::new(AggregateKind::Average, 2.0);
        let before = a.value() + b.value();
        let theirs = b.respond(a.value());
        a.exchange(theirs);
        assert_eq!(a.value() + b.value(), before, "mass conservation");
        assert_eq!(a.value(), 6.0);
        assert_eq!(b.value(), 6.0);
    }

    #[test]
    fn maximum_spreads() {
        let mut a = AggregationState::new(AggregateKind::Maximum, 1.0);
        let mut b = AggregationState::new(AggregateKind::Maximum, 9.0);
        let theirs = b.respond(a.value());
        a.exchange(theirs);
        assert_eq!(a.value(), 9.0);
        assert_eq!(b.value(), 9.0);
    }

    #[test]
    fn exchange_counting() {
        let mut a = AggregationState::new(AggregateKind::Average, 0.0);
        a.exchange(2.0);
        a.exchange(2.0);
        assert_eq!(a.exchanges(), 2);
    }

    #[test]
    fn wire_round_trip() {
        let m = AggMsg::Request { value: 1.25 };
        assert_eq!(AggMsg::from_wire(&m.to_wire()).unwrap(), m);
        let m = AggMsg::Response { value: -7.5 };
        assert_eq!(AggMsg::from_wire(&m.to_wire()).unwrap(), m);
        assert!(AggMsg::from_wire(&[9]).is_err());
    }
}
