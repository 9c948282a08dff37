//! Two-phase commit, with cooperative termination and the blocking window.

use std::collections::BTreeMap;

use simnet::{CncPhase, Context, NetConfig, Node, NodeId, Sim, Time, Timer};

use crate::msg::{CommitMsg, TxnState};

/// Span protocol label; instances are transaction ids.
const SPAN: &str = "2pc";

const DECISION_TIMEOUT: u64 = 1;
/// Participant timeout before starting cooperative termination (µs).
const TIMEOUT_US: u64 = 30_000;

/// Where the 2PC coordinator — or Paxos Commit's leader coordinator — may
/// crash (fault injection), mirroring [`crate::three_phase::CrashPoint`].
/// Both protocols have only one interesting spot: inside the blocking
/// window, after every vote arrived and before any decision escapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Run to completion.
    None,
    /// Freeze after collecting all yes votes (before any decision escapes).
    AfterVotes,
}

/// The 2PC coordinator (node 0). Drives one transaction.
pub struct Coordinator {
    n_participants: usize,
    /// Coordinator's own decision state.
    pub state: TxnState,
    votes: BTreeMap<NodeId, bool>,
    txn: u64,
    /// Injected fault: freezing at the crash point models the
    /// crash-inside-the-window scenario without racing the simulator clock.
    pub crash_point: CrashPoint,
}

impl Coordinator {
    /// Creates the coordinator for `n_participants` cohorts.
    pub fn new(n_participants: usize) -> Self {
        Coordinator {
            n_participants,
            state: TxnState::Initial,
            votes: BTreeMap::new(),
            txn: 1,
            crash_point: CrashPoint::None,
        }
    }

    fn decide(&mut self, ctx: &mut Context<CommitMsg>, commit: bool) {
        self.state = if commit {
            TxnState::Committed
        } else {
            TxnState::Aborted
        };
        let txn = self.txn;
        ctx.phase(SPAN, txn, 0, CncPhase::Decision);
        ctx.span_close(SPAN, txn, 0);
        let msg = if commit {
            CommitMsg::GlobalCommit { txn }
        } else {
            CommitMsg::GlobalAbort { txn }
        };
        ctx.broadcast(msg);
    }
}

impl Node for Coordinator {
    type Msg = CommitMsg;

    fn on_start(&mut self, ctx: &mut Context<CommitMsg>) {
        // 2PC has no leader election (the coordinator is fixed); voting is
        // its value-discovery phase — learning whether commit is possible.
        ctx.span_open(SPAN, self.txn, 0);
        ctx.phase(SPAN, self.txn, 0, CncPhase::ValueDiscovery);
        ctx.broadcast(CommitMsg::VoteRequest { txn: self.txn });
        self.state = TxnState::Ready;
    }

    fn on_message(&mut self, ctx: &mut Context<CommitMsg>, from: NodeId, msg: CommitMsg) {
        match msg {
            CommitMsg::Vote { txn, yes } if txn == self.txn => {
                if self.state.is_final() {
                    return;
                }
                if !yes {
                    // One no is enough: abort immediately.
                    self.decide(ctx, false);
                    return;
                }
                self.votes.insert(from, yes);
                if self.votes.len() >= self.n_participants {
                    if self.crash_point == CrashPoint::AfterVotes {
                        // Freeze inside the blocking window.
                        return;
                    }
                    self.decide(ctx, true);
                }
            }
            CommitMsg::StateRequest { txn, .. } if txn == self.txn => {
                ctx.send(
                    from,
                    CommitMsg::StateReport {
                        txn,
                        state: self.state,
                    },
                );
            }
            _ => {}
        }
    }
}

/// A 2PC participant.
pub struct Participant {
    /// This participant's vote.
    vote_yes: bool,
    /// Current transaction state.
    pub state: TxnState,
    txn: u64,
    n_nodes_hint: usize,
    /// State reports gathered during cooperative termination.
    reports: BTreeMap<NodeId, TxnState>,
    /// How many times this participant entered cooperative termination and
    /// remained blocked (all peers `Ready`).
    pub blocked_rounds: u64,
}

impl Participant {
    /// Creates a participant with a fixed vote.
    pub fn new(vote_yes: bool) -> Self {
        Participant {
            vote_yes,
            state: TxnState::Initial,
            txn: 1,
            n_nodes_hint: 0,
            reports: BTreeMap::new(),
            blocked_rounds: 0,
        }
    }

    fn finish(&mut self, commit: bool) {
        let new = if commit {
            TxnState::Committed
        } else {
            TxnState::Aborted
        };
        if self.state.is_final() {
            assert_eq!(self.state, new, "2PC atomicity violated");
        }
        self.state = new;
    }

    /// Cooperative termination resolution rule.
    fn try_resolve(&mut self, ctx: &mut Context<CommitMsg>) {
        // Any final state seen → adopt it.
        if let Some(state) = self.reports.values().find(|s| s.is_final()) {
            let commit = *state == TxnState::Committed;
            self.finish(commit);
            // Help others.
            let txn = self.txn;
            ctx.broadcast(if commit {
                CommitMsg::GlobalCommit { txn }
            } else {
                CommitMsg::GlobalAbort { txn }
            });
            return;
        }
        // Any peer still Initial → the coordinator cannot have committed:
        // abort is safe.
        if self.reports.values().any(|s| *s == TxnState::Initial) {
            self.finish(false);
            let txn = self.txn;
            ctx.broadcast(CommitMsg::GlobalAbort { txn });
            return;
        }
        // Everyone Ready (the uncertainty window): must block. Re-arm and
        // hope the coordinator recovers.
        if self.reports.len() >= self.n_nodes_hint.saturating_sub(2) {
            self.blocked_rounds += 1;
            ctx.set_timer(TIMEOUT_US, DECISION_TIMEOUT);
        }
    }
}

impl Node for Participant {
    type Msg = CommitMsg;

    fn on_start(&mut self, _ctx: &mut Context<CommitMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<CommitMsg>, from: NodeId, msg: CommitMsg) {
        match msg {
            CommitMsg::VoteRequest { txn } => {
                self.txn = txn;
                self.n_nodes_hint = ctx.n_nodes();
                if self.state != TxnState::Initial {
                    return;
                }
                if self.vote_yes {
                    self.state = TxnState::Ready; // locks held from here on
                    ctx.send(from, CommitMsg::Vote { txn, yes: true });
                    // Await the decision; if it never comes, run the
                    // termination protocol.
                    ctx.set_timer(TIMEOUT_US, DECISION_TIMEOUT);
                } else {
                    self.state = TxnState::Aborted; // unilateral abort
                    ctx.send(from, CommitMsg::Vote { txn, yes: false });
                }
            }
            CommitMsg::GlobalCommit { txn } if txn == self.txn => {
                ctx.span_close(SPAN, txn, 0);
                self.finish(true);
            }
            CommitMsg::GlobalAbort { txn } if txn == self.txn => {
                ctx.span_close(SPAN, txn, 0);
                self.finish(false);
            }
            CommitMsg::StateRequest { txn, .. } if txn == self.txn => {
                ctx.send(
                    from,
                    CommitMsg::StateReport {
                        txn,
                        state: self.state,
                    },
                );
            }
            CommitMsg::StateReport { txn, state } if txn == self.txn
                && self.state == TxnState::Ready => {
                    self.reports.insert(from, state);
                    self.try_resolve(ctx);
                }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<CommitMsg>, timer: Timer) {
        if timer.kind == DECISION_TIMEOUT && self.state == TxnState::Ready {
            // Cooperative termination: ask everyone (including the maybe-
            // recovered coordinator) for their state.
            self.reports.clear();
            ctx.broadcast(CommitMsg::StateRequest {
                txn: self.txn,
                round: 0,
            });
        }
    }
}

simnet::node_enum! {
    /// A 2PC process.
    pub enum TwoPcProc: CommitMsg {
        /// The coordinator (node 0).
        Coordinator(Coordinator),
        /// A voting participant.
        Participant(Participant),
    }
}

/// Builds a 2PC instance: coordinator (node 0) plus one participant per
/// vote in `votes`.
pub fn build(votes: &[bool], config: NetConfig, seed: u64) -> Sim<TwoPcProc> {
    build_with_crash(votes, CrashPoint::None, config, seed)
}

/// Builds a 2PC instance with the coordinator crashing at `crash_point`,
/// mirroring [`crate::three_phase::build`]. With
/// [`CrashPoint::AfterVotes`] the coordinator freezes inside the blocking
/// window and is then crashed outright so it cannot answer state requests —
/// the canonical 2PC blocking scenario.
pub fn build_with_crash(
    votes: &[bool],
    crash_point: CrashPoint,
    config: NetConfig,
    seed: u64,
) -> Sim<TwoPcProc> {
    let mut sim = Sim::new(config, seed);
    let mut coord = Coordinator::new(votes.len());
    coord.crash_point = crash_point;
    sim.add_node(coord);
    for &v in votes {
        sim.add_node(Participant::new(v));
    }
    if crash_point != CrashPoint::None {
        // The frozen coordinator also stops answering state requests.
        sim.crash_at(NodeId(0), Time(10_000));
    }
    sim
}

/// Collects participants' final states.
pub fn participant_states(sim: &Sim<TwoPcProc>) -> Vec<TxnState> {
    sim.nodes()
        .filter_map(|(_, p)| match p {
            TwoPcProc::Participant(p) => Some(p.state),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Time;

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let mut sim = build(&[true, true, true], NetConfig::lan(), 1);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Committed));
        // Phase structure: 3 vote-requests, 3 votes, 3 commits.
        assert_eq!(sim.metrics().kind("vote-request"), 3);
        assert_eq!(sim.metrics().kind("vote"), 3);
        assert_eq!(sim.metrics().kind("global-commit"), 3);
    }

    #[test]
    fn single_no_aborts_everywhere() {
        let mut sim = build(&[true, false, true], NetConfig::lan(), 2);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Aborted));
    }

    #[test]
    fn blocking_window_blocks_forever() {
        // Coordinator freezes after collecting all yes votes and before any
        // decision escapes: cooperative termination sees all-Ready and must
        // block — 2PC's fundamental weakness.
        let mut sim = build_with_crash(
            &[true, true, true],
            CrashPoint::AfterVotes,
            NetConfig::lan(),
            3,
        );
        sim.run_until(Time::from_secs(2));
        let states = participant_states(&sim);
        assert!(
            states.iter().all(|s| *s == TxnState::Ready),
            "participants must stay blocked: {states:?}"
        );
        let blocked: u64 = sim
            .nodes()
            .filter_map(|(_, p)| match p {
                TwoPcProc::Participant(p) => Some(p.blocked_rounds),
                _ => None,
            })
            .sum();
        assert!(blocked > 0, "termination protocol ran and found no exit");
    }

    #[test]
    fn cooperative_termination_resolves_partial_decision() {
        // Coordinator sends GlobalCommit to exactly one participant then
        // crashes: the others learn the outcome from that peer.
        let mut sim = build(&[true, true, true], NetConfig::lan(), 4);
        // Let the vote-requests and votes travel normally, then make the
        // decision broadcast crawl on two of the three links so only one
        // participant hears it before the coordinator dies.
        use simnet::DelayModel;
        sim.run_until(Time(100));
        sim.set_link_delay(NodeId(0), NodeId(2), DelayModel::Fixed(10_000_000));
        sim.set_link_delay(NodeId(0), NodeId(3), DelayModel::Fixed(10_000_000));
        sim.crash_at(NodeId(0), Time(5_000));
        sim.run_until(Time::from_secs(2));
        let states = participant_states(&sim);
        assert!(
            states.iter().all(|s| *s == TxnState::Committed),
            "peers should learn the decision cooperatively: {states:?}"
        );
    }

    #[test]
    fn participant_crash_before_voting_aborts() {
        // A participant that never votes ⇒ coordinator never gets all
        // votes; other participants' termination protocol sees an Initial
        // peer... but here the crashed node can't answer. The coordinator
        // simply never decides commit, and peers stay Ready (conservative).
        // To keep the transaction live, real systems put a timeout at the
        // coordinator: model it by the coordinator aborting on timeout.
        let mut sim = build(&[true, true, true], NetConfig::lan(), 5);
        sim.crash_at(NodeId(2), Time(0));
        sim.run_until(Time::from_secs(1));
        let states = participant_states(&sim);
        // The crashed one is stuck Initial; live ones hold Ready (blocked)
        // since nobody can rule out a commit.
        assert_eq!(states[1], TxnState::Initial);
        for s in [states[0], states[2]] {
            assert!(
                s == TxnState::Ready || s == TxnState::Aborted,
                "unexpected state {s:?}"
            );
        }
    }

    #[test]
    fn message_counts_are_linear() {
        for n in [3usize, 6, 9] {
            let votes = vec![true; n];
            let mut sim = build(&votes, NetConfig::lan(), 6);
            sim.run_until(Time::from_secs(1));
            assert_eq!(sim.metrics().sent, 3 * n as u64, "3 linear phases");
        }
    }
}
