//! Leader liveness tracking and gossip-based leader election
//! (paper §IV-A).
//!
//! Leaders emit heartbeats through the exchange gossip. When a member
//! sees no heartbeat progress for a configurable number of PPSS cycles it
//! proposes a value (the hash of its identifier) and the group runs a
//! gossip max-aggregation; after a few cycles each node knows the highest
//! proposal, and the proposer of that value becomes the new leader,
//! generates a new group key pair and announces the public half signed by
//! its identity.

use crate::ppss::messages::{ElectionBallot, Heartbeat};
use whisper_crypto::sha256::Sha256;
use whisper_net::NodeId;

/// The proposal value for a node: a hash of its identifier (paper: "a
/// value based on the hash of its identifier").
pub fn proposal_value(node: NodeId) -> u64 {
    let digest = Sha256::digest(&node.to_bytes());
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

/// Outcome of one election tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElectionOutcome {
    /// Nothing to do.
    Idle,
    /// The local node decided it won the round.
    Won {
        /// The epoch the winner now leads.
        epoch: u64,
    },
}

#[derive(Clone, Debug)]
struct Election {
    /// The best ballot seen, whose round is the election's.
    best: ElectionBallot,
    cycles: u64,
}

/// Tracks leader liveness and any in-flight election for one group.
#[derive(Clone, Debug)]
pub struct LeaderTracker {
    /// Current leadership epoch.
    pub epoch: u64,
    last_seq: u64,
    cycles_since_progress: u64,
    election: Option<Election>,
}

impl LeaderTracker {
    /// Fresh tracker at epoch 0.
    pub fn new() -> Self {
        LeaderTracker { epoch: 0, last_seq: 0, cycles_since_progress: 0, election: None }
    }

    /// Heartbeat the group currently believes in.
    pub fn heartbeat(&self) -> Heartbeat {
        Heartbeat { epoch: self.epoch, seq: self.last_seq }
    }

    /// Cycles since the last heartbeat progress (diagnostics).
    pub fn staleness(&self) -> u64 {
        self.cycles_since_progress
    }

    /// Whether an election is running.
    pub fn electing(&self) -> bool {
        self.election.is_some()
    }

    /// The ballot to piggyback on outgoing exchanges, if an election is
    /// running.
    pub fn ballot(&self) -> Option<ElectionBallot> {
        self.election.as_ref().map(|e| e.best.clone())
    }

    /// Ingests a heartbeat seen in an exchange.
    pub fn observe_heartbeat(&mut self, hb: Heartbeat) {
        if (hb.epoch, hb.seq) > (self.epoch, self.last_seq) {
            self.epoch = hb.epoch;
            self.last_seq = hb.seq;
            self.cycles_since_progress = 0;
            // A live(r) leader cancels any stale election for an older
            // round.
            self.election.take_if(|e| e.best.round <= self.epoch);
        }
    }

    /// Ingests an election ballot seen in an exchange; keeps the maximum
    /// (gossip max-aggregation).
    pub fn observe_ballot(&mut self, ballot: ElectionBallot) {
        if ballot.round <= self.epoch {
            return; // stale round
        }
        match &mut self.election {
            Some(e) if e.best.round == ballot.round => {
                if (proposal_value(ballot.node), ballot.node)
                    > (proposal_value(e.best.node), e.best.node)
                {
                    e.best = ballot;
                }
            }
            Some(e) if e.best.round > ballot.round => {}
            _ => self.election = Some(Election { best: ballot, cycles: 0 }),
        }
    }

    /// Called by a *leader* each PPSS cycle to advance its heartbeat. A
    /// sequence number already at `u64::MAX` (a leader adopts any higher
    /// one it hears) stays there.
    pub fn beat(&mut self) {
        self.last_seq = self.last_seq.saturating_add(1);
        self.cycles_since_progress = 0;
    }

    /// Called by a member each PPSS cycle.
    ///
    /// * `me` — who proposes when an election must start;
    /// * `miss_threshold` — cycles without heartbeat progress before
    ///   proposing;
    /// * `decide_after` — cycles of aggregation before declaring the
    ///   winner.
    pub fn on_cycle(
        &mut self,
        me: NodeId,
        miss_threshold: u64,
        decide_after: u64,
    ) -> ElectionOutcome {
        self.cycles_since_progress += 1;
        if let Some(e) = &mut self.election {
            e.cycles += 1;
            if e.cycles >= decide_after {
                let round = e.best.round;
                if e.best.node == me {
                    self.accept_new_epoch(round);
                    return ElectionOutcome::Won { epoch: round };
                }
                // Losers wait for the winner's announcement; if none comes
                // (winner died mid-election) staleness keeps growing and a
                // new round starts below.
                if e.cycles >= decide_after + miss_threshold {
                    self.election = None;
                }
            }
            return ElectionOutcome::Idle;
        }
        // No round starts past the last epoch.
        if let Some(round) = self.epoch.checked_add(1) {
            if self.cycles_since_progress > miss_threshold {
                let best = ElectionBallot { round, node: me };
                self.election = Some(Election { best, cycles: 0 });
            }
        }
        ElectionOutcome::Idle
    }

    /// Acknowledges an externally verified new-key announcement for
    /// `epoch`; resets liveness tracking.
    pub fn accept_new_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.last_seq = 0;
            self.cycles_since_progress = 0;
            self.election = None;
        }
    }
}

impl Default for LeaderTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppss::{ELECTION_CYCLES, HB_MISS_THRESHOLD};

    fn ballot(round: u64, node: u64) -> ElectionBallot {
        ElectionBallot { round, node: NodeId(node) }
    }

    #[test]
    fn heartbeat_progress_resets_staleness() {
        let mut t = LeaderTracker::new();
        t.on_cycle(NodeId(1), 5, 3);
        t.on_cycle(NodeId(1), 5, 3);
        assert_eq!(t.staleness(), 2);
        t.observe_heartbeat(Heartbeat { epoch: 0, seq: 1 });
        assert_eq!(t.staleness(), 0);
        t.observe_heartbeat(Heartbeat { epoch: 0, seq: 1 }); // no progress
        t.on_cycle(NodeId(1), 5, 3);
        assert_eq!(t.staleness(), 1);
    }

    #[test]
    fn election_starts_after_threshold() {
        let mut t = LeaderTracker::new();
        for _ in 0..=5 {
            assert_eq!(t.on_cycle(NodeId(1), 5, 3), ElectionOutcome::Idle);
        }
        assert!(t.electing());
        assert_eq!(t.ballot().unwrap().node, NodeId(1));
    }

    #[test]
    fn max_aggregation_keeps_best_ballot() {
        let mut t = LeaderTracker::new();
        t.observe_ballot(ballot(1, 10));
        t.observe_ballot(ballot(1, 20));
        let best = [10u64, 20]
            .into_iter()
            .max_by_key(|n| (proposal_value(NodeId(*n)), NodeId(*n)))
            .unwrap();
        assert_eq!(t.ballot().unwrap().node, NodeId(best));
    }

    #[test]
    fn winner_detects_victory() {
        let me = NodeId(42);
        let mut t = LeaderTracker::new();
        // I start proposing after the threshold...
        for _ in 0..=6 {
            t.on_cycle(me, 5, 3);
        }
        assert!(t.electing());
        // ...nobody outbids me, so after `decide_after` cycles I win.
        let mut outcome = ElectionOutcome::Idle;
        for _ in 0..4 {
            outcome = t.on_cycle(me, 5, 3);
            if outcome != ElectionOutcome::Idle {
                break;
            }
        }
        assert_eq!(outcome, ElectionOutcome::Won { epoch: 1 });
        assert_eq!(t.epoch, 1);
        assert!(!t.electing());
    }

    #[test]
    fn loser_defers_to_higher_ballot() {
        let me = NodeId(1);
        let rival = NodeId(2);
        let (low, high) = if proposal_value(me) < proposal_value(rival) {
            (me, rival)
        } else {
            (rival, me)
        };
        let mut t = LeaderTracker::new();
        for _ in 0..=6 {
            t.on_cycle(low, 5, 3);
        }
        t.observe_ballot(ballot(1, high.0));
        for _ in 0..5 {
            assert_eq!(t.on_cycle(low, 5, 3), ElectionOutcome::Idle);
        }
        let _ = low;
    }

    #[test]
    fn fresh_heartbeat_cancels_election() {
        let mut t = LeaderTracker::new();
        t.observe_ballot(ballot(1, 9));
        assert!(t.electing());
        t.observe_heartbeat(Heartbeat { epoch: 1, seq: 1 });
        assert!(!t.electing(), "epoch-1 leader is alive; round-1 election moot");
    }

    #[test]
    fn stale_ballots_ignored() {
        let mut t = LeaderTracker::new();
        t.accept_new_epoch(3);
        t.observe_ballot(ballot(2, 9));
        assert!(!t.electing());
    }

    #[test]
    fn accept_new_epoch_monotone() {
        let mut t = LeaderTracker::new();
        t.accept_new_epoch(2);
        assert_eq!(t.epoch, 2);
        t.accept_new_epoch(1);
        assert_eq!(t.epoch, 2, "older epochs ignored");
    }

    /// A heartbeat at the last epoch, then silence: the round after it
    /// would overflow the epoch, so none starts.
    #[test]
    fn no_round_starts_past_the_last_epoch() {
        let mut t = LeaderTracker::new();
        t.observe_heartbeat(Heartbeat { epoch: u64::MAX, seq: u64::MAX });
        for _ in 0..=HB_MISS_THRESHOLD {
            let outcome = t.on_cycle(NodeId(1), HB_MISS_THRESHOLD, ELECTION_CYCLES);
            assert_eq!(outcome, ElectionOutcome::Idle);
        }
        assert!(!t.electing());
        assert_eq!(t.heartbeat(), Heartbeat { epoch: u64::MAX, seq: u64::MAX });
    }

    /// A leader that adopts the last sequence number of its own epoch
    /// keeps beating at it.
    #[test]
    fn a_leader_at_the_last_seq_still_beats() {
        let mut t = LeaderTracker::new();
        t.accept_new_epoch(3);
        t.observe_heartbeat(Heartbeat { epoch: 3, seq: u64::MAX });
        t.beat();
        assert_eq!(t.heartbeat(), Heartbeat { epoch: 3, seq: u64::MAX });
        assert_eq!(t.staleness(), 0);
    }

    #[test]
    fn leader_beat_advances_heartbeat() {
        let mut t = LeaderTracker::new();
        t.beat();
        t.beat();
        assert_eq!(t.heartbeat(), Heartbeat { epoch: 0, seq: 2 });
    }
}
