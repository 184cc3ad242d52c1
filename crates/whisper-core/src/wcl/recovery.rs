//! What a source remembers from one tracked send to the next: how long an
//! answer from each destination takes, and which relays sat on routes
//! that went unanswered.
//!
//! The paper's WCL recovers from an unanswered route in one way — a fixed
//! timer, then an alternative path, at most Π times (§III-A). The two
//! mechanisms here only tune that: *when* the timer fires
//! ([`Recovery::retry_delay`]) and *which* relays an alternative path
//! prefers ([`Recovery::keep_healthy`]). Both are fed by the outcome of
//! tracked sends alone ([`Recovery::on_answer`], [`Recovery::on_timeout`]).

use super::RETRY_TIMEOUT;
use std::collections::BTreeMap;
use whisper_net::sim::Ctx;
use whisper_net::{NodeId, SimDuration, SimTime};
use whisper_rand::Rng;

/// Lower clamp on the adaptive RTO (guards against a few lucky fast RTTs
/// producing a hair-trigger timer).
const RTO_MIN: SimDuration = SimDuration::from_millis(250);
/// Upper clamp on the adaptive RTO, including backoff.
const RTO_MAX: SimDuration = SimDuration::from_secs(10);
/// Relay suspicion score above which path construction steers away from
/// a relay while healthier candidates exist.
const SUSPICION_THRESHOLD: f64 = 1.5;
/// Half-life of relay suspicion decay: a relay implicated in a failed
/// route is forgiven exponentially as evidence ages.
const SUSPICION_HALF_LIFE: SimDuration = SimDuration::from_secs(60);

/// Per-destination smoothed RTT state (Jacobson's algorithm, the same
/// EWMA every production transport uses). Units are seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RttEstimate {
    srtt: f64,
    rttvar: f64,
}

impl RttEstimate {
    /// Seeds the estimator from the first sample (RFC 6298 §2.2).
    fn first(rtt: f64) -> Self {
        RttEstimate { srtt: rtt, rttvar: rtt / 2.0 }
    }

    /// Folds in a subsequent sample (RFC 6298 §2.3: β = 1/4, α = 1/8).
    fn update(&mut self, rtt: f64) {
        self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - rtt).abs();
        self.srtt = 0.875 * self.srtt + 0.125 * rtt;
    }

    /// The retransmission timeout this estimate implies, before clamping
    /// and backoff.
    fn rto_secs(&self) -> f64 {
        self.srtt + 4.0 * self.rttvar
    }
}

/// Base RTO with exponential backoff: clamp to `[min_us, max_us]`, then
/// double per failed attempt (attempt 1 = no backoff), capped at
/// `max_us`. Pure so the arithmetic is unit-testable without a sim.
fn rto_backoff_us(base_us: u64, attempts: usize, min_us: u64, max_us: u64) -> u64 {
    let clamped = base_us.clamp(min_us, max_us.max(min_us));
    let shift = attempts.saturating_sub(1).min(16) as u32;
    clamped.saturating_mul(1u64 << shift).min(max_us.max(min_us))
}

/// A relay's suspicion score plus when it was last touched; the effective
/// score decays exponentially from `updated`.
#[derive(Clone, Copy, Debug)]
struct Suspicion {
    score: f64,
    updated: SimTime,
}

/// Exponentially decayed suspicion score.
fn decayed_score(score: f64, updated: SimTime, now: SimTime) -> f64 {
    let elapsed = now.since(updated).as_secs_f64();
    score * 0.5_f64.powf(elapsed / SUSPICION_HALF_LIFE.as_secs_f64())
}

/// The recovery state of one source.
pub(super) struct Recovery {
    /// [`super::WclConfig::adaptive_rto`].
    adaptive_rto: bool,
    /// Per-destination smoothed RTT (Karn-filtered: only first-attempt
    /// responses feed it).
    rtt: BTreeMap<NodeId, RttEstimate>,
    /// Cross-message relay health: relays implicated in unanswered routes
    /// accumulate suspicion that decays over time.
    health: BTreeMap<NodeId, Suspicion>,
}

impl Recovery {
    pub(super) fn new(adaptive_rto: bool) -> Self {
        Recovery { adaptive_rto, rtt: BTreeMap::new(), health: BTreeMap::new() }
    }

    /// The retransmission timeout for attempt number `attempts` towards
    /// `dest`.
    ///
    /// Fixed mode returns [`RETRY_TIMEOUT`] unchanged (and draws no
    /// randomness). Adaptive mode computes `srtt + 4·rttvar` (seeded from
    /// [`RETRY_TIMEOUT`] when no sample exists), clamps to
    /// `[RTO_MIN, RTO_MAX]`, doubles per failed attempt, and applies
    /// ±12.5% deterministic jitter from the sim RNG so synchronized
    /// failures do not retry in lockstep.
    pub(super) fn retry_delay(
        &self,
        ctx: &mut Ctx<'_>,
        dest: NodeId,
        attempts: usize,
    ) -> SimDuration {
        if !self.adaptive_rto {
            return RETRY_TIMEOUT;
        }
        let base_us = self
            .rtt
            .get(&dest)
            .map_or(RETRY_TIMEOUT.as_micros(), |e| (e.rto_secs() * 1e6) as u64);
        let backed = rto_backoff_us(base_us, attempts, RTO_MIN.as_micros(), RTO_MAX.as_micros());
        let jitter = ctx.rng().gen_range(0..(backed / 4).max(1));
        let us = backed - backed / 8 + jitter;
        ctx.metrics().sample("wcl.rto_s", us as f64 / 1e6);
        SimDuration::from_micros(us)
    }

    /// An attempt through `relays` to `dest` was answered: the relays are
    /// healthy, and `first_try_rtt` — the round trip in seconds when the
    /// answer came to the first attempt, the only unambiguous one (Karn's
    /// rule) — feeds the estimator.
    pub(super) fn on_answer(
        &mut self,
        dest: NodeId,
        first_try_rtt: Option<f64>,
        relays: impl Iterator<Item = NodeId>,
    ) {
        if let Some(rtt) = first_try_rtt {
            self.rtt
                .entry(dest)
                .and_modify(|e| e.update(rtt))
                .or_insert_with(|| RttEstimate::first(rtt));
        }
        for relay in relays {
            self.health.remove(&relay);
        }
    }

    /// An attempt through `relays` went unanswered: each is implicated
    /// (its score decayed first, then +1), which biases future path
    /// construction away from it until the suspicion decays.
    pub(super) fn on_timeout(&mut self, ctx: &mut Ctx<'_>, relays: impl Iterator<Item = NodeId>) {
        let now = ctx.now();
        for relay in relays {
            let s = self.health.entry(relay).or_insert(Suspicion { score: 0.0, updated: now });
            s.score = decayed_score(s.score, s.updated, now) + 1.0;
            s.updated = now;
            ctx.metrics().count("wcl.relay_suspected", 1);
        }
    }

    /// Drops the candidates whose decayed suspicion exceeds the threshold
    /// — while healthier ones exist: never empties a candidate list, a
    /// suspect relay beats no relay.
    pub(super) fn keep_healthy<T>(
        &self,
        ctx: &mut Ctx<'_>,
        candidates: &mut Vec<T>,
        node: impl Fn(&T) -> NodeId,
    ) {
        let now = ctx.now();
        let suspect = |c: &T| {
            let score = self.health.get(&node(c)).map(|s| decayed_score(s.score, s.updated, now));
            score.is_some_and(|score| score >= SUSPICION_THRESHOLD)
        };
        let suspects = candidates.iter().filter(|c| suspect(c)).count();
        if 0 < suspects && suspects < candidates.len() {
            ctx.metrics().count("wcl.relay_avoided", suspects as u64);
            candidates.retain(|c| !suspect(c));
        }
    }

    /// Forgets everything, as a process restart does.
    pub(super) fn clear(&mut self) {
        self.rtt.clear();
        self.health.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_estimator_follows_jacobson() {
        let mut e = RttEstimate::first(0.1);
        assert!((e.srtt - 0.1).abs() < 1e-12);
        assert!((e.rttvar - 0.05).abs() < 1e-12);
        assert!((e.rto_secs() - 0.3).abs() < 1e-12, "srtt + 4·rttvar");
        // A stream of identical samples shrinks the variance towards 0,
        // so the RTO converges on srtt.
        for _ in 0..200 {
            e.update(0.1);
        }
        assert!((e.srtt - 0.1).abs() < 1e-6);
        assert!(e.rto_secs() < 0.11, "variance decays on a stable path");
        // A spike widens the variance again.
        e.update(0.5);
        assert!(e.rto_secs() > 0.4, "rto reacts to a late sample");
    }

    #[test]
    fn rto_backoff_clamps_and_doubles() {
        let (min, max) = (250_000u64, 10_000_000u64);
        assert_eq!(rto_backoff_us(1_000, 1, min, max), min, "clamped up");
        assert_eq!(rto_backoff_us(20_000_000, 1, min, max), max, "clamped down");
        assert_eq!(rto_backoff_us(400_000, 1, min, max), 400_000);
        assert_eq!(rto_backoff_us(400_000, 2, min, max), 800_000);
        assert_eq!(rto_backoff_us(400_000, 3, min, max), 1_600_000);
        assert_eq!(rto_backoff_us(400_000, 9, min, max), max, "backoff capped");
        // Degenerate attempt counts do not overflow.
        assert_eq!(rto_backoff_us(400_000, 0, min, max), 400_000);
        assert_eq!(rto_backoff_us(max, 10_000, min, max), max);
    }

    #[test]
    fn suspicion_decays_with_half_life() {
        let (t0, hl) = (SimTime::ZERO, SUSPICION_HALF_LIFE);
        assert_eq!(decayed_score(2.0, t0, t0), 2.0);
        assert!((decayed_score(2.0, t0, t0 + hl) - 1.0).abs() < 1e-9);
        assert!((decayed_score(2.0, t0, t0 + hl + hl) - 0.5).abs() < 1e-9);
    }
}
