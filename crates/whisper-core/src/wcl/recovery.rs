//! What a source remembers from one tracked send to the next: how long an
//! answer takes.
//!
//! The round-trip estimate is one per source, not one per destination.
//! Every route draws a fresh `A` and `B`, so a round trip belongs to the
//! path of that send rather than to its destination. A table per
//! destination starves: each entry holds a sample or two, and many first
//! attempts still wait the fixed timer. One estimate fed by every answer
//! learns from all of them.
//!
//! The paper's WCL recovers from an unanswered route in one way — a fixed
//! timer, then an alternative path, at most Π times (§III-A) — and keeps
//! no memory of relays across messages; neither does this one. The
//! estimate here only tunes *when* that timer fires
//! ([`Recovery::retry_delay`]), fed by the answers to tracked sends
//! ([`Recovery::on_answer`]). Which relays a retry avoids is the send's
//! own business: the `A` and `B` it already tried.

use super::RETRY_TIMEOUT;
use whisper_net::sim::Ctx;
use whisper_net::SimDuration;
use whisper_rand::Rng;

/// Lower clamp on the adaptive RTO (guards against a few lucky fast RTTs
/// producing a hair-trigger timer).
const RTO_MIN: SimDuration = SimDuration::from_millis(250);
/// Upper clamp on the adaptive RTO, including backoff.
const RTO_MAX: SimDuration = SimDuration::from_secs(10);

/// Smoothed RTT state (Jacobson's algorithm, the same EWMA every
/// production transport uses). Units are seconds.
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

/// The recovery state of one source: one retry clock for every
/// destination.
pub(super) struct Recovery {
    /// [`super::WclConfig::adaptive_rto`].
    adaptive_rto: bool,
    /// The smoothed RTT of this source's tracked sends, whatever their
    /// destination (Karn-filtered: only first-attempt responses feed it);
    /// `None` until one is answered.
    rtt: Option<RttEstimate>,
}

impl Recovery {
    pub(super) fn new(adaptive_rto: bool) -> Self {
        Recovery { adaptive_rto, rtt: None }
    }

    /// The retransmission timeout for attempt number `attempts`, towards
    /// any destination.
    ///
    /// Fixed mode returns [`RETRY_TIMEOUT`] unchanged (and draws no
    /// randomness). Adaptive mode computes `srtt + 4·rttvar` (seeded from
    /// [`RETRY_TIMEOUT`] while this source has no answer yet), clamps to
    /// `[RTO_MIN, RTO_MAX]`, doubles per failed attempt, and applies
    /// ±12.5% deterministic jitter from the sim RNG so synchronized
    /// failures do not retry in lockstep.
    pub(super) fn retry_delay(&self, ctx: &mut Ctx<'_>, attempts: usize) -> SimDuration {
        if !self.adaptive_rto {
            return RETRY_TIMEOUT;
        }
        let base_us =
            self.rtt.map_or(RETRY_TIMEOUT.as_micros(), |e| (e.rto_secs() * 1e6) as u64);
        let backed = rto_backoff_us(base_us, attempts, RTO_MIN.as_micros(), RTO_MAX.as_micros());
        let jitter = ctx.rng().gen_range(0..(backed / 4).max(1));
        let us = backed - backed / 8 + jitter;
        ctx.metrics().sample("wcl.rto_s", us as f64 / 1e6);
        SimDuration::from_micros(us)
    }

    /// A tracked send was answered: `first_try_rtt` — the round trip in
    /// seconds when the answer came to the first attempt, the only
    /// unambiguous one (Karn's rule) — feeds the estimator.
    pub(super) fn on_answer(&mut self, first_try_rtt: Option<f64>) {
        if let Some(rtt) = first_try_rtt {
            match &mut self.rtt {
                Some(e) => e.update(rtt),
                None => self.rtt = Some(RttEstimate::first(rtt)),
            }
        }
    }

    /// Forgets everything, as a process restart does.
    pub(super) fn clear(&mut self) {
        self.rtt = None;
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

    /// The retry clock is the source's, not a destination's: answers from
    /// two destinations set the timer towards a third that never answered,
    /// and a restart puts it back on [`RETRY_TIMEOUT`].
    #[test]
    fn one_clock_for_every_destination() {
        use crate::WhisperNode;
        use whisper_crypto::rsa::{KeyPair, RsaKeySize};
        use whisper_net::nat::NatType;
        use whisper_net::sim::{Sim, SimConfig};
        use whisper_rand::{rngs::StdRng, SeedableRng};

        let key = KeyPair::generate(RsaKeySize::Sim384, &mut StdRng::seed_from_u64(1));
        let mut sim = Sim::new(SimConfig::cluster(1));
        let me = sim.add_node(Box::new(WhisperNode::new(Default::default(), key)), NatType::Public);
        let within = |d: SimDuration, rto: f64| {
            let secs = d.as_secs_f64();
            (rto * 0.875..=rto * 1.125).contains(&secs)
        };
        sim.with_node_ctx::<WhisperNode>(me, |_, ctx| {
            let mut recovery = Recovery::new(true);
            let fixed = RETRY_TIMEOUT.as_secs_f64();
            assert!(within(recovery.retry_delay(ctx, 1), fixed), "a source never answered");
            // First-try answers from A and from B.
            recovery.on_answer(Some(0.4));
            recovery.on_answer(Some(0.4));
            // srtt 0.4 s, rttvar 0.15 s: the RTO towards C is 1 s.
            let learned = recovery.retry_delay(ctx, 1);
            assert!(within(learned, 1.0), "towards C: {learned:?}");
            assert!(within(recovery.retry_delay(ctx, 2), 2.0), "doubled per retry");
            // An answer to a retry is ambiguous and teaches nothing.
            recovery.on_answer(None);
            assert!(within(recovery.retry_delay(ctx, 1), 1.0), "Karn's rule");
            recovery.clear();
            assert!(within(recovery.retry_delay(ctx, 1), fixed), "forgotten on restart");
        });
    }
}
