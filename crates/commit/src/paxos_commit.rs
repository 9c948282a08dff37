//! Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit").
//!
//! Atomic commitment recast as consensus: one Paxos instance per resource
//! manager's prepared/aborted vote, sharing a single acceptor set of
//! `2F + 1` acceptors, with `F + 1` coordinators any one of which can drive
//! the decision. The transaction commits iff every instance chooses
//! `Prepared`.
//!
//! Each acceptor keeps one [`consensus_core::Register`] per RM instance,
//! and a ballot is a [`consensus_core::Ballot`] `⟨num, coordinator⟩`. The
//! fast path is [`Ballot::ZERO`]: each RM acts as the phase-1-free proposer
//! of its *own* instance and sends `Phase2a⟨ZERO⟩` straight to the
//! acceptors. A backup coordinator that suspects the leader runs phase 1
//! for the undecided instances at its next ballot `⟨num + 1, own id⟩`,
//! which no other coordinator can pick; an acceptor answers it only when
//! the ballot is strictly higher than its promise, Gray & Lamport's rule. If
//! a quorum reports no accepted value the backup is *free* to choose
//! `Aborted` — this is what makes the protocol non-blocking where 2PC
//! stalls.
//!
//! With `F = 0` the protocol *is* 2PC, and this crate runs 2PC that way.
//! The one acceptor is co-located with the single coordinator, so
//! `Phase2b` becomes a local delivery and the wire carries 2PC's three
//! linear phases (vote-request, vote, decision — `3n` messages). Nothing is
//! replicated, so the run reports no fault-tolerant agreement phase, and a
//! leader crash inside the window blocks every prepared RM.

use std::collections::BTreeMap;

use consensus_core::quorum::Phase;
use consensus_core::{Ballot, QuorumSpec, Register, Tally};
use simnet::{CncPhase, Context, NetConfig, Node, NodeId, Payload, Sim, Time, Timer};

use crate::msg::TxnState;

/// Span protocol label; the single transaction is instance [`TXN`].
const SPAN: &str = "paxos-commit";
/// Transaction id driven by one sim instance.
const TXN: u64 = 1;

/// Backup-coordinator watchdog timer kind.
const WATCHDOG: u64 = 1;
/// Blocked-RM timer kind: a prepared RM re-sends its vote.
const RM_BLOCK: u64 = 2;
/// Timeout before a backup coordinator (or blocked RM) acts (µs); 3PC's
/// cohorts wait as long, so crash schedules are comparable.
const TIMEOUT_US: u64 = 30_000;

/// Where the leader coordinator may crash (fault injection), mirroring
/// [`crate::three_phase::CrashPoint`]. Paxos Commit — 2PC at `F = 0` — has
/// only one interesting spot: inside the blocking window, after every vote
/// was learned and before any decision escapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Run to completion.
    None,
    /// Freeze after learning every yes vote (before any decision escapes).
    AfterVotes,
}

/// The value decided by one per-RM Paxos instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Vote {
    /// The RM is prepared to commit.
    Prepared,
    /// The RM aborted (or a recovering coordinator chose the free abort).
    Aborted,
}

/// Node layout: acceptors on nodes `0..2F+1`, coordinators co-located on
/// nodes `0..F+1` (node 0 is the initial leader), RMs after the acceptors.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Tolerated coordinator/acceptor crash faults.
    pub f: usize,
    /// Number of resource managers (voting participants).
    pub n_rms: usize,
}

impl Layout {
    /// Acceptor-set size `2F + 1`.
    pub fn n_acceptors(&self) -> usize {
        2 * self.f + 1
    }

    /// Coordinator count `F + 1`.
    pub fn n_coordinators(&self) -> usize {
        self.f + 1
    }

    /// Acceptor majority `F + 1`.
    pub fn quorum(&self) -> usize {
        self.f + 1
    }

    /// The acceptors' quorum system: majorities of [`Layout::quorum`].
    fn quorums(&self) -> QuorumSpec {
        QuorumSpec::from(self.n_acceptors())
    }

    /// Total sim nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_acceptors() + self.n_rms
    }

    /// Acceptor node ids.
    pub fn acceptors(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_acceptors() as u32).map(NodeId)
    }

    /// Coordinator node ids (a prefix of the acceptors).
    pub fn coordinators(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_coordinators() as u32).map(NodeId)
    }

    /// RM node ids.
    pub fn rms(&self) -> impl Iterator<Item = NodeId> {
        let base = self.n_acceptors() as u32;
        (base..base + self.n_rms as u32).map(NodeId)
    }
}

/// Wire messages of Paxos Commit.
#[derive(Clone, Debug)]
pub enum PcMsg {
    /// Leader asks every RM to prepare (begins the transaction).
    VoteRequest,
    /// Proposer → acceptors: accept `vote` for `instance` at `ballot`.
    /// [`Ballot::ZERO`] comes from the instance's own RM (the fast path);
    /// higher ballots come from a recovering coordinator.
    Phase2a {
        /// Per-RM Paxos instance (the RM's index).
        instance: u32,
        /// Paxos ballot.
        ballot: Ballot,
        /// Proposed vote value.
        vote: Vote,
    },
    /// Acceptor → coordinators: accepted `vote` at `ballot`.
    Phase2b {
        /// Per-RM Paxos instance.
        instance: u32,
        /// Paxos ballot.
        ballot: Ballot,
        /// Accepted vote value.
        vote: Vote,
    },
    /// Recovering coordinator → acceptors: promise request.
    Phase1a {
        /// Per-RM Paxos instance.
        instance: u32,
        /// Takeover ballot.
        ballot: Ballot,
    },
    /// Acceptor → recovering coordinator: promise, reporting any accepted
    /// value.
    Phase1b {
        /// Per-RM Paxos instance.
        instance: u32,
        /// The promised ballot (echoed).
        ballot: Ballot,
        /// Highest accepted `(ballot, vote)`, if any.
        accepted: Option<(Ballot, Vote)>,
    },
    /// Coordinator → RMs (and peer coordinators): the global decision.
    Outcome {
        /// Commit (true) or abort (false).
        commit: bool,
    },
}

impl Payload for PcMsg {
    fn kind(&self) -> &'static str {
        match self {
            PcMsg::VoteRequest => "vote-request",
            PcMsg::Phase2a { .. } => "phase2a",
            PcMsg::Phase2b { .. } => "phase2b",
            PcMsg::Phase1a { .. } => "phase1a",
            PcMsg::Phase1b { .. } => "phase1b",
            PcMsg::Outcome { .. } => "outcome",
        }
    }
}

/// Sends `msg` to `to`, short-circuiting co-located roles: a message to the
/// node itself is queued for local dispatch instead of hitting the wire.
/// This is what collapses `Phase2b` to zero messages at `F = 0`.
fn post(ctx: &mut Context<PcMsg>, out: &mut Vec<(NodeId, PcMsg)>, to: NodeId, msg: PcMsg) {
    if to == ctx.id() {
        out.push((ctx.id(), msg));
    } else {
        ctx.send(to, msg);
    }
}

/// One member of the shared acceptor set: a register per RM instance,
/// its vote in slot 0.
pub struct Acceptor {
    layout: Layout,
    registers: BTreeMap<u32, Register<Vote>>,
}

impl Acceptor {
    fn new(layout: Layout) -> Self {
        Acceptor {
            layout,
            registers: BTreeMap::new(),
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<PcMsg>,
        from: NodeId,
        msg: PcMsg,
        out: &mut Vec<(NodeId, PcMsg)>,
    ) {
        match msg {
            PcMsg::Phase2a {
                instance,
                ballot,
                vote,
            } => {
                let register = self.registers.entry(instance).or_default();
                if register.accept(ballot, 0, vote).is_ok() {
                    for c in self.layout.coordinators() {
                        post(
                            ctx,
                            out,
                            c,
                            PcMsg::Phase2b {
                                instance,
                                ballot,
                                vote,
                            },
                        );
                    }
                }
            }
            PcMsg::Phase1a { instance, ballot } => {
                let register = self.registers.entry(instance).or_default();
                if register.prepare(ballot) == Ok(true) {
                    let accepted = register.accepted(0).copied();
                    let reply = PcMsg::Phase1b {
                        instance,
                        ballot,
                        accepted,
                    };
                    post(ctx, out, from, reply);
                }
            }
            _ => {}
        }
    }
}

/// One of the `F + 1` coordinators. Index 0 is the initial leader; backups
/// watch with staggered timeouts and take over undecided instances.
pub struct Coordinator {
    layout: Layout,
    /// Index among coordinators (0 = initial leader).
    idx: usize,
    /// Injected fault on the leader.
    pub crash_point: CrashPoint,
    /// Chosen vote per instance.
    learned: BTreeMap<u32, Vote>,
    /// Phase2b tallies per `(instance, ballot)`.
    tally2b: BTreeMap<(u32, Ballot), Tally<Vote>>,
    /// Phase1b tallies per instance during a takeover.
    recovery: BTreeMap<u32, Tally<Vote>>,
    /// Current takeover ballot (zero until the first takeover round).
    ballot: Ballot,
    /// The global decision, once known.
    pub decided: Option<bool>,
    /// Whether this coordinator already broadcast (or saw) the decision.
    announced: bool,
    /// Frozen at the crash point (leader only).
    frozen: bool,
    /// Takeover span (round 1) currently open.
    span1_open: bool,
    marked_agreement: bool,
}

impl Coordinator {
    fn new(layout: Layout, idx: usize) -> Self {
        Coordinator {
            layout,
            idx,
            crash_point: CrashPoint::None,
            learned: BTreeMap::new(),
            tally2b: BTreeMap::new(),
            recovery: BTreeMap::new(),
            ballot: Ballot::ZERO,
            decided: None,
            announced: false,
            frozen: false,
            span1_open: false,
            marked_agreement: false,
        }
    }

    fn is_leader(&self) -> bool {
        self.idx == 0
    }

    fn on_start(&mut self, ctx: &mut Context<PcMsg>) {
        if self.is_leader() {
            // No leader election on the fast path; asking for votes is the
            // value-discovery phase, as in 2PC.
            ctx.span_open(SPAN, TXN, 0);
            ctx.phase(SPAN, TXN, 0, CncPhase::ValueDiscovery);
            for rm in self.layout.rms() {
                ctx.send(rm, PcMsg::VoteRequest);
            }
        } else {
            // Staggered watchdogs: backup i acts after i timeouts.
            ctx.set_timer(TIMEOUT_US * self.idx as u64, WATCHDOG);
        }
    }

    /// Sends the decision to every RM and peer coordinator.
    fn announce(&mut self, ctx: &mut Context<PcMsg>, out: &mut Vec<(NodeId, PcMsg)>, commit: bool) {
        self.announced = true;
        for rm in self.layout.rms() {
            post(ctx, out, rm, PcMsg::Outcome { commit });
        }
        for c in self.layout.coordinators() {
            if c != ctx.id() {
                post(ctx, out, c, PcMsg::Outcome { commit });
            }
        }
    }

    /// Closes the takeover span if one is open.
    fn settle_takeover_span(&mut self, ctx: &mut Context<PcMsg>) {
        if self.span1_open {
            ctx.phase(SPAN, TXN, 1, CncPhase::Decision);
            ctx.span_close(SPAN, TXN, 1);
            self.span1_open = false;
        }
    }

    /// Decides as soon as the outcome is determined: any instance chosen
    /// `Aborted`, or all instances chosen `Prepared`.
    fn maybe_decide(&mut self, ctx: &mut Context<PcMsg>, out: &mut Vec<(NodeId, PcMsg)>) {
        if self.decided.is_some() || self.frozen {
            return;
        }
        let any_abort = self.learned.values().any(|v| *v == Vote::Aborted);
        let all_prepared = self.learned.len() >= self.layout.n_rms && !any_abort;
        if !any_abort && !all_prepared {
            return;
        }
        let commit = all_prepared;
        if commit && self.is_leader() && self.crash_point == CrashPoint::AfterVotes {
            // Freeze inside the window: every vote learned, no decision out.
            self.frozen = true;
            return;
        }
        self.decided = Some(commit);
        if self.is_leader() {
            ctx.phase(SPAN, TXN, 0, CncPhase::Decision);
            ctx.span_close(SPAN, TXN, 0);
            self.announce(ctx, out, commit);
        } else if self.span1_open {
            // Decision reached by takeover.
            self.settle_takeover_span(ctx);
            self.announce(ctx, out, commit);
        }
        // A passively-learning backup records the outcome and stays quiet;
        // its watchdog re-announces only if the leader's decision never
        // reached the RMs.
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<PcMsg>,
        from: NodeId,
        msg: PcMsg,
        out: &mut Vec<(NodeId, PcMsg)>,
    ) {
        match msg {
            PcMsg::Phase2b {
                instance,
                ballot,
                vote,
            } => {
                // At F = 0 the only acceptor is the leader itself: nothing is
                // replicated, so 2PC has no fault-tolerant agreement phase.
                let replicated = self.layout.f >= 1;
                if replicated && self.is_leader() && !self.marked_agreement && !self.frozen {
                    ctx.phase(SPAN, TXN, 0, CncPhase::Agreement);
                    self.marked_agreement = true;
                }
                let quorums = self.layout.quorums();
                let tally = (self.tally2b.entry((instance, ballot)))
                    .or_insert_with(|| Tally::new(quorums, Phase::Agreement));
                tally.vote(from, [(0, ballot, vote)]);
                if tally.reached() {
                    self.learned.entry(instance).or_insert(vote);
                    self.maybe_decide(ctx, out);
                }
            }
            PcMsg::Phase1b {
                instance,
                ballot,
                accepted,
            } => {
                if ballot != self.ballot {
                    return; // stale takeover round
                }
                let Some(gather) = self.recovery.get_mut(&instance) else {
                    return; // already re-proposed (or never ours)
                };
                gather.vote(from, accepted.map(|(b, v)| (0, b, v)));
                if gather.reached() {
                    // Paxos rule: re-propose the highest-ballot accepted
                    // value; a quorum with nothing accepted frees us to
                    // choose — and Paxos Commit chooses Aborted.
                    let vote = gather.value(0).copied().unwrap_or(Vote::Aborted);
                    self.recovery.remove(&instance);
                    if !self.marked_agreement {
                        ctx.phase(SPAN, TXN, 1, CncPhase::Agreement);
                        self.marked_agreement = true;
                    }
                    let ballot = self.ballot;
                    for a in self.layout.acceptors() {
                        post(
                            ctx,
                            out,
                            a,
                            PcMsg::Phase2a {
                                instance,
                                ballot,
                                vote,
                            },
                        );
                    }
                }
            }
            PcMsg::Outcome { commit } => {
                // A peer coordinator already drove the decision.
                self.decided = Some(commit);
                self.announced = true;
                self.settle_takeover_span(ctx);
            }
            _ => {}
        }
    }

    fn on_watchdog(&mut self, ctx: &mut Context<PcMsg>, out: &mut Vec<(NodeId, PcMsg)>) {
        if let Some(commit) = self.decided {
            // Learned passively but the RMs may still be waiting (the
            // leader could have crashed between learning and announcing).
            if !self.announced {
                self.settle_takeover_span(ctx);
                self.announce(ctx, out, commit);
            }
            return;
        }
        // Take over the undecided instances at a fresh, globally unique
        // ballot: the embedded id tells the coordinators' ballots apart.
        self.ballot = self.ballot.next_for(ctx.id());
        if !self.span1_open {
            ctx.span_open(SPAN, TXN, 1);
            ctx.phase(SPAN, TXN, 1, CncPhase::LeaderElection);
            self.span1_open = true;
        }
        self.recovery.clear();
        for instance in 0..self.layout.n_rms as u32 {
            if self.learned.contains_key(&instance) {
                continue;
            }
            let tally = Tally::new(self.layout.quorums(), Phase::Election);
            self.recovery.insert(instance, tally);
            let ballot = self.ballot;
            for a in self.layout.acceptors() {
                post(ctx, out, a, PcMsg::Phase1a { instance, ballot });
            }
        }
        // Retry with a higher ballot if this round stalls.
        ctx.set_timer(TIMEOUT_US * (self.idx as u64 + 1), WATCHDOG);
    }
}

/// A resource manager: the proposer of its own vote instance.
pub struct Rm {
    layout: Layout,
    /// This RM's Paxos instance (its index).
    instance: u32,
    vote_yes: bool,
    /// Current transaction state.
    pub state: TxnState,
    /// Times the RM's decision timeout fired while still uncertain.
    pub blocked_rounds: u64,
}

impl Rm {
    fn new(layout: Layout, instance: u32, vote_yes: bool) -> Self {
        Rm {
            layout,
            instance,
            vote_yes,
            state: TxnState::Initial,
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
            assert_eq!(self.state, new, "Paxos Commit atomicity violated");
        }
        self.state = new;
    }

    /// Ballot-0 fast path: propose our own vote directly to the acceptors.
    fn cast_vote(&mut self, ctx: &mut Context<PcMsg>, out: &mut Vec<(NodeId, PcMsg)>) {
        let vote = if self.vote_yes {
            Vote::Prepared
        } else {
            Vote::Aborted
        };
        let instance = self.instance;
        for a in self.layout.acceptors() {
            post(
                ctx,
                out,
                a,
                PcMsg::Phase2a {
                    instance,
                    ballot: Ballot::ZERO,
                    vote,
                },
            );
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<PcMsg>,
        _from: NodeId,
        msg: PcMsg,
        out: &mut Vec<(NodeId, PcMsg)>,
    ) {
        match msg {
            PcMsg::VoteRequest => {
                if self.state != TxnState::Initial {
                    return;
                }
                if self.vote_yes {
                    self.state = TxnState::Ready; // locks held from here on
                    ctx.set_timer(TIMEOUT_US, RM_BLOCK);
                } else {
                    self.state = TxnState::Aborted; // unilateral abort
                }
                self.cast_vote(ctx, out);
            }
            PcMsg::Outcome { commit } => {
                if self.state.is_final() {
                    self.finish(commit); // asserts consistency
                    return;
                }
                ctx.span_close(SPAN, TXN, 0);
                self.finish(commit);
            }
            _ => {}
        }
    }

    fn on_block_timer(&mut self, ctx: &mut Context<PcMsg>, out: &mut Vec<(NodeId, PcMsg)>) {
        if self.state == TxnState::Ready {
            self.blocked_rounds += 1;
            // Re-propose in case the first Phase2a was lost.
            self.cast_vote(ctx, out);
            ctx.set_timer(TIMEOUT_US, RM_BLOCK);
        }
    }
}

/// One Paxos Commit process: a node may co-locate an acceptor with a
/// coordinator (nodes `0..F+1`), be a plain acceptor, or host an RM.
pub struct PcProc {
    /// Acceptor role, if this node is in the acceptor set.
    pub acceptor: Option<Acceptor>,
    /// Coordinator role, if this node is one of the `F + 1` coordinators.
    pub coordinator: Option<Coordinator>,
    /// RM role, if this node hosts a resource manager.
    pub rm: Option<Rm>,
}

impl PcProc {
    /// Dispatches messages to roles, looping over co-located deliveries.
    fn drain(&mut self, ctx: &mut Context<PcMsg>, mut pending: Vec<(NodeId, PcMsg)>) {
        while let Some((from, msg)) = pending.pop() {
            let mut out = Vec::new();
            match &msg {
                PcMsg::VoteRequest => {
                    if let Some(rm) = self.rm.as_mut() {
                        rm.on_message(ctx, from, msg, &mut out);
                    }
                }
                PcMsg::Outcome { .. } => {
                    if let Some(rm) = self.rm.as_mut() {
                        rm.on_message(ctx, from, msg.clone(), &mut out);
                    }
                    if let Some(c) = self.coordinator.as_mut() {
                        c.on_message(ctx, from, msg, &mut out);
                    }
                }
                PcMsg::Phase2a { .. } | PcMsg::Phase1a { .. } => {
                    if let Some(a) = self.acceptor.as_mut() {
                        a.on_message(ctx, from, msg, &mut out);
                    }
                }
                PcMsg::Phase2b { .. } | PcMsg::Phase1b { .. } => {
                    if let Some(c) = self.coordinator.as_mut() {
                        c.on_message(ctx, from, msg, &mut out);
                    }
                }
            }
            pending.extend(out);
        }
    }
}

impl Node for PcProc {
    type Msg = PcMsg;

    fn on_start(&mut self, ctx: &mut Context<PcMsg>) {
        if let Some(c) = self.coordinator.as_mut() {
            c.on_start(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<PcMsg>, from: NodeId, msg: PcMsg) {
        self.drain(ctx, vec![(from, msg)]);
    }

    fn on_timer(&mut self, ctx: &mut Context<PcMsg>, timer: Timer) {
        let mut out = Vec::new();
        match timer.kind {
            WATCHDOG => {
                if let Some(c) = self.coordinator.as_mut() {
                    c.on_watchdog(ctx, &mut out);
                }
            }
            RM_BLOCK => {
                if let Some(rm) = self.rm.as_mut() {
                    rm.on_block_timer(ctx, &mut out);
                }
            }
            _ => {}
        }
        self.drain(ctx, out);
    }
}

/// Builds a Paxos Commit instance tolerating `f` coordinator/acceptor
/// faults: `2f + 1` acceptors (coordinators co-located on the first
/// `f + 1`, node 0 leading) plus one RM per vote in `votes`.
pub fn build(votes: &[bool], f: usize, config: NetConfig, seed: u64) -> Sim<PcProc> {
    build_with_crash(votes, f, CrashPoint::None, config, seed)
}

/// Builds a Paxos Commit instance with the leader crashing at
/// `crash_point`, as [`crate::three_phase::build`] does: with
/// [`CrashPoint::AfterVotes`] the leader freezes after learning every vote,
/// before any decision escapes, and is then crashed outright. At
/// `F = 0` the RMs block — 2PC's blocking window; at `F ≥ 1` a backup
/// coordinator drives the commit to completion.
pub fn build_with_crash(
    votes: &[bool],
    f: usize,
    crash_point: CrashPoint,
    config: NetConfig,
    seed: u64,
) -> Sim<PcProc> {
    let layout = Layout {
        f,
        n_rms: votes.len(),
    };
    let mut sim = Sim::new(config, seed);
    for a in 0..layout.n_acceptors() {
        let coordinator = (a < layout.n_coordinators()).then(|| {
            let mut c = Coordinator::new(layout, a);
            if a == 0 {
                c.crash_point = crash_point;
            }
            c
        });
        sim.add_node(PcProc {
            acceptor: Some(Acceptor::new(layout)),
            coordinator,
            rm: None,
        });
    }
    for (i, &v) in votes.iter().enumerate() {
        sim.add_node(PcProc {
            acceptor: None,
            coordinator: None,
            rm: Some(Rm::new(layout, i as u32, v)),
        });
    }
    if crash_point != CrashPoint::None {
        // The frozen leader also stops answering; its co-located acceptor
        // dies with it (the remaining 2F acceptors still hold a majority
        // only when F ≥ 1).
        sim.crash_at(NodeId(0), Time(10_000));
    }
    sim
}

/// Collects RM final states in instance order.
pub fn participant_states(sim: &Sim<PcProc>) -> Vec<TxnState> {
    sim.nodes()
        .filter_map(|(_, p)| p.rm.as_ref().map(|rm| rm.state))
        .collect()
}

/// Sums `blocked_rounds` across RMs.
pub fn blocked_rounds(sim: &Sim<PcProc>) -> u64 {
    sim.nodes()
        .filter_map(|(_, p)| p.rm.as_ref().map(|rm| rm.blocked_rounds))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_yes_commits_everywhere() {
        // F = 0 (2PC) runs the same input in `crate::two_phase`'s tests.
        let mut sim = build(&[true, true, true], 1, NetConfig::lan(), 1);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Committed));
    }

    #[test]
    fn single_no_aborts_everywhere() {
        let mut sim = build(&[true, false, true], 1, NetConfig::lan(), 2);
        sim.run_until(Time::from_secs(1));
        assert!(participant_states(&sim)
            .iter()
            .all(|s| *s == TxnState::Aborted));
    }

    #[test]
    fn f0_reduces_to_two_pc_message_pattern() {
        // F = 0: one acceptor co-located with the only coordinator. The
        // Phase2b deliveries are local, so the wire carries exactly 2PC's
        // three linear phases: n vote-requests, n votes (Phase2a), n
        // decisions.
        for n in [3usize, 6, 9] {
            let votes = vec![true; n];
            let mut sim = build(&votes, 0, NetConfig::lan(), 6);
            sim.run_until(Time::from_secs(1));
            assert!(participant_states(&sim)
                .iter()
                .all(|s| *s == TxnState::Committed));
            assert_eq!(sim.metrics().sent, 3 * n as u64, "3 linear phases");
            assert_eq!(sim.metrics().kind("vote-request"), n as u64);
            assert_eq!(sim.metrics().kind("phase2a"), n as u64);
            assert_eq!(sim.metrics().kind("outcome"), n as u64);
            assert_eq!(sim.metrics().kind("phase2b"), 0);
            assert_eq!(sim.metrics().kind("phase1a"), 0);
        }
    }

    #[test]
    fn f0_outcomes_match_two_pc_across_seeds() {
        // 2PC's rule, which F = 0 must follow and F = 1 must keep: every RM
        // commits iff every vote is yes, and otherwise every RM aborts.
        let patterns: [&[bool]; 4] = [
            &[true, true, true],
            &[true, false, true],
            &[false, false, false],
            &[true, true, true, true, false],
        ];
        for seed in 0..8u64 {
            for f in [0, 1] {
                for votes in patterns {
                    let mut pc = build(votes, f, NetConfig::lan(), seed);
                    pc.run_until(Time::from_secs(1));
                    let outcome = if votes.iter().all(|&v| v) {
                        TxnState::Committed
                    } else {
                        TxnState::Aborted
                    };
                    assert_eq!(
                        participant_states(&pc),
                        vec![outcome; votes.len()],
                        "F={f}, seed {seed}, votes {votes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn f0_blocking_window_blocks_forever() {
        // The degenerate case inherits 2PC's fatal flaw: with F = 0 the
        // crashed leader takes the only acceptor with it and the RMs hold
        // their locks forever.
        let mut sim = build_with_crash(
            &[true, true, true],
            0,
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
        assert!(blocked_rounds(&sim) > 0, "RMs noticed and found no exit");
    }

    #[test]
    fn f1_survives_the_same_crash_schedule() {
        // Identical crash schedule, F = 1: acceptors 1 and 2 still hold a
        // majority with the ballot-0 Prepared votes, so the backup
        // coordinator's takeover re-proposes them and commits.
        let mut sim = build_with_crash(
            &[true, true, true],
            1,
            CrashPoint::AfterVotes,
            NetConfig::lan(),
            3,
        );
        sim.run_until(Time::from_secs(2));
        let states = participant_states(&sim);
        assert!(
            states.iter().all(|s| *s == TxnState::Committed),
            "backup coordinator must complete the commit: {states:?}"
        );
    }

    #[test]
    fn takeover_free_aborts_an_unvoted_instance() {
        // An RM that dies before voting leaves its instance empty; the
        // backup's phase 1 finds no accepted value and is free to choose
        // Aborted — non-blocking where 2PC would hold locks (its F = 0 case
        // is `crate::two_phase`'s `participant_crash_before_voting_aborts`).
        let mut sim = build(&[true, true, true], 1, NetConfig::lan(), 4);
        let first_rm = Layout { f: 1, n_rms: 3 }.rms().next().expect("three RMs");
        sim.crash_at(first_rm, Time(0)); // never votes
        sim.run_until(Time::from_secs(2));
        let states = participant_states(&sim);
        assert_eq!(states[0], TxnState::Initial, "crashed RM is frozen");
        assert!(
            states[1..].iter().all(|s| *s == TxnState::Aborted),
            "live RMs must be released by the free abort: {states:?}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = build_with_crash(
                &[true, true, true, true],
                1,
                CrashPoint::AfterVotes,
                NetConfig::lan(),
                seed,
            );
            sim.run_until(Time::from_secs(2));
            (participant_states(&sim), sim.metrics().sent)
        };
        assert_eq!(run(9), run(9));
    }
}
