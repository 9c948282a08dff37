//! Three-phase commit: non-blocking atomic commitment.
//!
//! 3PC inserts a *pre-commit* phase between voting and committing: the
//! commit decision is replicated to the cohorts **before** anyone commits —
//! the same "make the decision fault-tolerant" move Paxos makes in the C&C
//! framework. If the coordinator fails, the cohorts elect a successor and
//! run the termination protocol:
//!
//! * any cohort already **committed/aborted** → adopt that outcome;
//! * any cohort **pre-committed** → the decision was commit: finish it;
//! * otherwise → abort is safe (nobody can have committed).

use std::collections::BTreeMap;

use simnet::{CncPhase, Context, NetConfig, Node, NodeId, Sim, Time, Timer};

use crate::msg::{CommitMsg, TxnState};

/// Span protocol label; instances are transaction ids.
const SPAN: &str = "3pc";

const DECISION_TIMEOUT: u64 = 1;
const TIMEOUT_US: u64 = 30_000;

/// Which stage the 3PC coordinator may crash at (fault injection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Run to completion.
    None,
    /// Freeze after collecting all yes votes (before pre-commit escapes).
    AfterVotes,
    /// Freeze after broadcasting pre-commit (before global-commit).
    AfterPreCommit,
}

/// The 3PC coordinator (node 0).
pub struct Coordinator {
    n_participants: usize,
    /// Coordinator's decision state.
    pub state: TxnState,
    votes: BTreeMap<NodeId, bool>,
    precommit_acks: BTreeMap<NodeId, ()>,
    txn: u64,
    /// Injected fault.
    pub crash_point: CrashPoint,
}

impl Coordinator {
    /// Creates the coordinator.
    pub fn new(n_participants: usize) -> Self {
        Coordinator {
            n_participants,
            state: TxnState::Initial,
            votes: BTreeMap::new(),
            precommit_acks: BTreeMap::new(),
            txn: 1,
            crash_point: CrashPoint::None,
        }
    }
}

impl Node for Coordinator {
    type Msg = CommitMsg;

    fn on_start(&mut self, ctx: &mut Context<CommitMsg>) {
        ctx.span_open(SPAN, self.txn, 0);
        ctx.phase(SPAN, self.txn, 0, CncPhase::ValueDiscovery);
        ctx.broadcast(CommitMsg::VoteRequest { txn: self.txn });
        self.state = TxnState::Ready;
    }

    fn on_message(&mut self, ctx: &mut Context<CommitMsg>, from: NodeId, msg: CommitMsg) {
        match msg {
            CommitMsg::Vote { txn, yes } if txn == self.txn => {
                if self.state != TxnState::Ready {
                    return;
                }
                if !yes {
                    self.state = TxnState::Aborted;
                    ctx.phase(SPAN, txn, 0, CncPhase::Decision);
                    ctx.span_close(SPAN, txn, 0);
                    ctx.broadcast(CommitMsg::GlobalAbort { txn });
                    return;
                }
                self.votes.insert(from, yes);
                if self.votes.len() >= self.n_participants {
                    if self.crash_point == CrashPoint::AfterVotes {
                        return;
                    }
                    self.state = TxnState::PreCommitted;
                    // Pre-commit replicates the decision before anyone acts
                    // on it — 3PC's fault-tolerant agreement phase.
                    ctx.phase(SPAN, txn, 0, CncPhase::Agreement);
                    ctx.broadcast(CommitMsg::PreCommit { txn });
                }
            }
            CommitMsg::PreCommitAck { txn } if txn == self.txn => {
                if self.state != TxnState::PreCommitted {
                    return;
                }
                self.precommit_acks.insert(from, ());
                if self.precommit_acks.len() >= self.n_participants {
                    if self.crash_point == CrashPoint::AfterPreCommit {
                        return;
                    }
                    self.state = TxnState::Committed;
                    ctx.phase(SPAN, txn, 0, CncPhase::Decision);
                    ctx.span_close(SPAN, txn, 0);
                    ctx.broadcast(CommitMsg::GlobalCommit { txn });
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

/// A 3PC participant with termination-protocol recovery.
pub struct Participant {
    vote_yes: bool,
    /// Current state.
    pub state: TxnState,
    txn: u64,
    /// Reports gathered while acting as recovery coordinator.
    reports: BTreeMap<NodeId, TxnState>,
    recovering: bool,
    /// Times this participant led a recovery round.
    pub recoveries_led: u64,
}

impl Participant {
    /// Creates a participant with a fixed vote.
    pub fn new(vote_yes: bool) -> Self {
        Participant {
            vote_yes,
            state: TxnState::Initial,
            txn: 1,
            reports: BTreeMap::new(),
            recovering: false,
            recoveries_led: 0,
        }
    }

    fn finish(&mut self, commit: bool) {
        let new = if commit {
            TxnState::Committed
        } else {
            TxnState::Aborted
        };
        if self.state.is_final() {
            assert_eq!(self.state, new, "3PC atomicity violated");
        }
        self.state = new;
    }

    fn arm_watchdog(&mut self, ctx: &mut Context<CommitMsg>) {
        // Staggered by id: the lowest live cohort recovers first.
        let delay = TIMEOUT_US * u64::from(ctx.id().0);
        ctx.set_timer(delay, DECISION_TIMEOUT);
    }

    /// Termination protocol decision rule, applied once all live cohorts
    /// reported (we approximate "all live" as "everyone who answered before
    /// another timeout period"; with crash faults only this is safe).
    fn resolve(&mut self, ctx: &mut Context<CommitMsg>) {
        let txn = self.txn;
        ctx.phase(SPAN, txn, 1, CncPhase::Decision);
        ctx.span_close(SPAN, txn, 1);
        if let Some(s) = self.reports.values().find(|s| s.is_final()) {
            let commit = *s == TxnState::Committed;
            self.finish(commit);
            ctx.broadcast(if commit {
                CommitMsg::GlobalCommit { txn }
            } else {
                CommitMsg::GlobalAbort { txn }
            });
        } else if self
            .reports
            .values()
            .chain(std::iter::once(&self.state))
            .any(|s| *s == TxnState::PreCommitted)
        {
            // Someone pre-committed ⇒ every cohort voted yes and the
            // decision was commit.
            self.finish(true);
            ctx.broadcast(CommitMsg::GlobalCommit { txn });
        } else {
            // Nobody past Ready: abort is safe.
            self.finish(false);
            ctx.broadcast(CommitMsg::GlobalAbort { txn });
        }
        self.recovering = false;
    }
}

impl Node for Participant {
    type Msg = CommitMsg;

    fn on_start(&mut self, _ctx: &mut Context<CommitMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<CommitMsg>, from: NodeId, msg: CommitMsg) {
        match msg {
            CommitMsg::VoteRequest { txn } => {
                self.txn = txn;
                if self.state != TxnState::Initial {
                    return;
                }
                if self.vote_yes {
                    self.state = TxnState::Ready;
                    ctx.send(from, CommitMsg::Vote { txn, yes: true });
                    self.arm_watchdog(ctx);
                } else {
                    self.state = TxnState::Aborted;
                    ctx.send(from, CommitMsg::Vote { txn, yes: false });
                }
            }
            CommitMsg::PreCommit { txn } if txn == self.txn && self.state == TxnState::Ready => {
                self.state = TxnState::PreCommitted;
                ctx.send(from, CommitMsg::PreCommitAck { txn });
                self.arm_watchdog(ctx);
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
            CommitMsg::StateReport { txn, state } if txn == self.txn && self.recovering => {
                self.reports.insert(from, state);
                // Resolve as soon as every *other participant* that is
                // still alive could have answered; with n participants
                // we expect up to n-1 reports, but any single
                // PreCommitted/final report is already decisive. For
                // all-Ready we wait for everyone we can hear (handled
                // in the timer re-check).
                let decisive = state.is_final() || state == TxnState::PreCommitted;
                if decisive || self.reports.len() >= ctx.n_nodes().saturating_sub(2) {
                    self.resolve(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<CommitMsg>, timer: Timer) {
        if timer.kind == DECISION_TIMEOUT && !self.state.is_final() {
            if self.recovering {
                // Nobody decisive answered in time: resolve with what we
                // have (crash-only model makes this safe).
                self.resolve(ctx);
                return;
            }
            // Become the recovery coordinator — 3PC's only leader-election
            // moment: the lowest live cohort takes over the decision.
            ctx.phase(SPAN, self.txn, 1, CncPhase::LeaderElection);
            self.recovering = true;
            self.recoveries_led += 1;
            self.reports.clear();
            ctx.broadcast(CommitMsg::StateRequest {
                txn: self.txn,
                round: 1,
            });
            ctx.set_timer(TIMEOUT_US, DECISION_TIMEOUT);
        }
    }
}

simnet::node_enum! {
    /// A 3PC process.
    pub enum ThreePcProc: CommitMsg {
        /// The coordinator (node 0).
        Coordinator(Coordinator),
        /// A voting participant.
        Participant(Participant),
    }
}

/// Builds a 3PC instance with the coordinator crashing at `crash_point`.
pub fn build(
    votes: &[bool],
    crash_point: CrashPoint,
    config: NetConfig,
    seed: u64,
) -> Sim<ThreePcProc> {
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
pub fn participant_states(sim: &Sim<ThreePcProc>) -> Vec<TxnState> {
    sim.nodes()
        .filter_map(|(_, p)| match p {
            ThreePcProc::Participant(p) => Some(p.state),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_yes_commits_in_three_phases() {
        let mut sim = build(&[true, true, true], CrashPoint::None, NetConfig::lan(), 1);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Committed));
        let m = sim.metrics();
        assert_eq!(m.kind("vote-request"), 3);
        assert_eq!(m.kind("pre-commit"), 3);
        assert_eq!(m.kind("global-commit"), 3);
    }

    #[test]
    fn any_no_aborts() {
        let mut sim = build(&[true, false, true], CrashPoint::None, NetConfig::lan(), 2);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Aborted));
        assert_eq!(sim.metrics().kind("pre-commit"), 0);
    }

    #[test]
    fn coordinator_crash_after_votes_aborts_not_blocks() {
        // Where 2PC blocks forever, 3PC's termination protocol aborts.
        let mut sim = build(
            &[true, true, true],
            CrashPoint::AfterVotes,
            NetConfig::lan(),
            3,
        );
        sim.run_until(Time::from_secs(3));
        let states = participant_states(&sim);
        assert!(
            states.iter().all(|s| *s == TxnState::Aborted),
            "3PC must terminate with abort: {states:?}"
        );
    }

    #[test]
    fn coordinator_crash_after_precommit_commits() {
        // Pre-commit reached the cohorts: the decision is recoverable and
        // must be commit.
        let mut sim = build(
            &[true, true, true],
            CrashPoint::AfterPreCommit,
            NetConfig::lan(),
            4,
        );
        sim.run_until(Time::from_secs(3));
        let states = participant_states(&sim);
        assert!(
            states.iter().all(|s| *s == TxnState::Committed),
            "pre-committed transaction must commit: {states:?}"
        );
    }

    #[test]
    fn all_outcomes_agree_under_random_crash_times() {
        // Sweep the coordinator crash over the whole protocol window; in
        // every case all surviving participants agree.
        for crash_ms in [1u64, 2, 3, 5, 8, 13, 21] {
            let mut sim = build(&[true, true, true], CrashPoint::None, NetConfig::lan(), 5);
            sim.crash_at(NodeId(0), Time::from_millis(crash_ms));
            sim.run_until(Time::from_secs(3));
            let states = participant_states(&sim);
            let finals: std::collections::BTreeSet<_> =
                states.iter().filter(|s| s.is_final()).copied().collect();
            assert!(
                finals.len() <= 1,
                "crash at {crash_ms}ms produced mixed outcomes: {states:?}"
            );
            assert!(
                states.iter().all(|s| s.is_final()),
                "crash at {crash_ms}ms left someone blocked: {states:?}"
            );
        }
    }

    #[test]
    fn recovery_is_led_by_lowest_cohort() {
        let mut sim = build(
            &[true, true, true],
            CrashPoint::AfterVotes,
            NetConfig::lan(),
            6,
        );
        sim.run_until(Time::from_secs(3));
        let leaders: Vec<u64> = sim
            .nodes()
            .filter_map(|(_, p)| match p {
                ThreePcProc::Participant(p) => Some(p.recoveries_led),
                _ => None,
            })
            .collect();
        assert!(leaders[0] >= 1, "node 1 (lowest) should lead: {leaders:?}");
    }
}
