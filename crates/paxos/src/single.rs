//! Single-decree Paxos, following the tutorial's pseudocode exactly.
//!
//! Per-acceptor variables (initial values as on the slides):
//!
//! * `BallotNum ← ⟨0,0⟩` — latest ballot the acceptor took part in (phase 1);
//! * `AcceptNum ← ⟨0,0⟩` — latest ballot it accepted a value in (phase 2);
//! * `AcceptVal ← ⊥`    — latest accepted value.
//!
//! The three live in slot 0 of a [`consensus_core::Register`], the acceptor
//! every Paxos variant shares; [`PaxosNode::ballot_num`],
//! [`PaxosNode::accept_num`] and [`PaxosNode::accept_val`] read them under
//! the slides' names. The proposer's phase-1b count and the learner's
//! phase-2b count are [`consensus_core::Tally`]s, so an acceptor counts once
//! however often the network delivers its reply.
//!
//! Phase 1 (*prepare*): a node that believes it is the leader picks a new
//! unique ballot and learns the outcome of all smaller ballots from a
//! majority. Phase 2 (*accept*): it proposes its own initial value, or the
//! received value with the highest `AcceptNum`, and a value accepted by a
//! majority is decided. The decision is disseminated asynchronously.
//!
//! Every node here plays all three roles (proposer, acceptor, learner); a
//! node proposes only if configured with an initial value and a start delay.

use std::collections::BTreeMap;

use consensus_core::quorum::Phase;
use consensus_core::{Ballot, QuorumSpec, Register, Tally};
use simnet::{CncPhase, Context, Node, NodeId, Payload, Timer};

/// Span protocol label; single-decree Paxos decides one instance (0).
const SPAN: &str = "paxos";

/// Wire messages of single-decree Paxos. Kinds match the slide labels.
#[derive(Clone, Debug)]
pub enum PaxosMsg {
    /// Phase 1a: `("prepare", BallotNum)`.
    Prepare {
        /// Proposer's new ballot.
        ballot: Ballot,
    },
    /// Phase 1b: `("ack", bal, AcceptNum, AcceptVal)`.
    Ack {
        /// Ballot being acked.
        ballot: Ballot,
        /// Acceptor's `AcceptNum`.
        accept_num: Ballot,
        /// Acceptor's `AcceptVal` (`⊥` = `None`).
        accept_val: Option<u64>,
    },
    /// Rejection carrying the acceptor's current promise, so a preempted
    /// proposer learns which ballot to beat. (An optimization over silent
    /// denial; the slides' proposers learn of preemption by timeout.)
    Nack {
        /// The ballot that was rejected.
        ballot: Ballot,
        /// The acceptor's current `BallotNum`.
        promised: Ballot,
    },
    /// Phase 2a: `("accept", BallotNum, myVal)` — the proposal.
    Accept {
        /// Proposer's ballot.
        ballot: Ballot,
        /// Proposed value.
        value: u64,
    },
    /// Phase 2b: `("accepted", b, v)` sent to the leader.
    Accepted {
        /// Accepting ballot.
        ballot: Ballot,
        /// Accepted value.
        value: u64,
    },
    /// Decision dissemination (asynchronous).
    Decide {
        /// The chosen value.
        value: u64,
    },
}

impl Payload for PaxosMsg {
    fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::Prepare { .. } => "prepare",
            PaxosMsg::Ack { .. } => "ack",
            PaxosMsg::Nack { .. } => "nack",
            PaxosMsg::Accept { .. } => "accept",
            PaxosMsg::Accepted { .. } => "accepted",
            PaxosMsg::Decide { .. } => "decide",
        }
    }
}

/// What a preempted proposer does before retrying with a higher ballot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RetryPolicy {
    /// Give up after the first preemption.
    Never,
    /// Retry after a fixed delay — two such proposers can livelock forever
    /// (the liveness figure).
    Fixed(u64),
    /// Retry after a uniformly random delay in `[min, max]` — the slide's
    /// "randomized delay before restarting" fix.
    Randomized {
        /// Minimum backoff (µs).
        min: u64,
        /// Maximum backoff (µs).
        max: u64,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProposerPhase {
    Idle,
    Preparing,
    Accepting,
    Done,
}

const START_PROPOSAL: u64 = 1;
const RETRY: u64 = 2;
const DEADLINE: u64 = 3;

/// A Paxos process: acceptor + learner, optionally proposer.
pub struct PaxosNode {
    spec: QuorumSpec,

    /// Acceptor state (durable across crashes), in slot 0.
    acceptor: Register<u64>,

    // ---- learner state ----
    /// The decided value, once learned.
    pub decided: Option<u64>,
    /// `accepted` senders per ballot (learner-side decision rule).
    accepted_votes: BTreeMap<Ballot, Tally<u64>>,

    // ---- proposer state (volatile) ----
    my_value: Option<u64>,
    propose_after: Option<u64>,
    retry: RetryPolicy,
    phase: ProposerPhase,
    current_ballot: Ballot,
    acks: Tally<u64>,
    /// Highest ballot seen in any Nack, to jump past it on retry.
    preempted_by: Ballot,
    /// How long an attempt may run before the proposer gives up and applies
    /// its retry policy.
    deadline_us: u64,
    /// Number of prepare attempts (the livelock experiment reads this).
    pub attempts: u64,
}

impl PaxosNode {
    /// A pure acceptor/learner.
    pub fn acceptor(n: usize) -> Self {
        let spec = QuorumSpec::from(n);
        PaxosNode {
            spec,
            acceptor: Register::default(),
            decided: None,
            accepted_votes: BTreeMap::new(),
            my_value: None,
            propose_after: None,
            retry: RetryPolicy::Never,
            phase: ProposerPhase::Idle,
            current_ballot: Ballot::ZERO,
            acks: Tally::new(spec, Phase::Election),
            preempted_by: Ballot::ZERO,
            deadline_us: 30_000,
            attempts: 0,
        }
    }

    /// A proposer that will propose `value` after `delay` µs, retrying per
    /// `retry` whenever an attempt exceeds its deadline without deciding.
    pub fn proposer(n: usize, value: u64, delay: u64, retry: RetryPolicy) -> Self {
        let mut node = Self::acceptor(n);
        node.my_value = Some(value);
        node.propose_after = Some(delay);
        node.retry = retry;
        node
    }

    /// Overrides the per-attempt deadline (µs). The livelock experiment
    /// uses short deadlines so proposers keep preempting each other.
    #[must_use]
    pub fn with_deadline(mut self, deadline_us: u64) -> Self {
        self.deadline_us = deadline_us;
        self
    }

    /// Latest ballot this acceptor took part in (phase 1).
    pub fn ballot_num(&self) -> Ballot {
        self.acceptor.promise()
    }

    /// Latest ballot it accepted a value in (phase 2).
    pub fn accept_num(&self) -> Ballot {
        self.acceptor.accepted(0).map_or(Ballot::ZERO, |&(b, _)| b)
    }

    /// Latest accepted value.
    pub fn accept_val(&self) -> Option<u64> {
        self.acceptor.accepted(0).map(|&(_, v)| v)
    }

    /// Phase 1: `BallotNum ← ⟨BallotNum.num+1, myId⟩; send ("prepare", BallotNum) to all`.
    fn start_prepare(&mut self, ctx: &mut Context<PaxosMsg>) {
        let base = self.ballot_num().max(self.preempted_by);
        self.current_ballot = base.next_for(ctx.id());
        self.phase = ProposerPhase::Preparing;
        self.acks = Tally::new(self.spec, Phase::Election);
        if self.attempts == 0 {
            ctx.span_open(SPAN, 0, self.current_ballot.num);
        }
        self.attempts += 1;
        // Phase 1 doubles as leader election: winning the promise quorum
        // makes this proposer the coordinator for its ballot.
        ctx.phase(SPAN, 0, self.current_ballot.num, CncPhase::LeaderElection);
        ctx.broadcast_all(PaxosMsg::Prepare {
            ballot: self.current_ballot,
        });
        ctx.set_timer(self.deadline_us, DEADLINE);
    }

    fn schedule_retry(&mut self, ctx: &mut Context<PaxosMsg>) {
        self.phase = ProposerPhase::Idle;
        match self.retry {
            RetryPolicy::Never => {}
            RetryPolicy::Fixed(d) => {
                ctx.set_timer(d, RETRY);
            }
            RetryPolicy::Randomized { min, max } => {
                use rand::Rng;
                let d = ctx.rng().gen_range(min..=max.max(min + 1));
                ctx.set_timer(d, RETRY);
            }
        }
    }
}

impl Node for PaxosNode {
    type Msg = PaxosMsg;

    fn on_start(&mut self, ctx: &mut Context<PaxosMsg>) {
        if let Some(d) = self.propose_after {
            ctx.set_timer(d, START_PROPOSAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<PaxosMsg>, from: NodeId, msg: PaxosMsg) {
        match msg {
            // ---------------- acceptor ----------------
            // Promise not to accept smaller ballots in the future.
            PaxosMsg::Prepare { ballot } => {
                let reply = match self.acceptor.prepare(ballot) {
                    Ok(_) => PaxosMsg::Ack {
                        ballot,
                        accept_num: self.accept_num(),
                        accept_val: self.accept_val(),
                    },
                    Err(promised) => PaxosMsg::Nack { ballot, promised },
                };
                ctx.send(from, reply);
            }
            PaxosMsg::Accept { ballot, value } => {
                let reply = match self.acceptor.accept(ballot, 0, value) {
                    Ok(_) => PaxosMsg::Accepted { ballot, value },
                    Err(promised) => PaxosMsg::Nack { ballot, promised },
                };
                ctx.send(from, reply);
            }

            // ---------------- proposer ----------------
            PaxosMsg::Ack {
                ballot,
                accept_num,
                accept_val,
            } => {
                if self.phase == ProposerPhase::Preparing && ballot == self.current_ballot {
                    self.acks.vote(from, accept_val.map(|v| (0, accept_num, v)));
                    if self.acks.reached() {
                        // "if all vals = ⊥ then myVal = initial value
                        //  else myVal = received val with highest b".
                        ctx.phase(SPAN, 0, ballot.num, CncPhase::ValueDiscovery);
                        let value = (self.acks.value(0).copied())
                            .or(self.my_value)
                            .expect("proposer always has an initial value");
                        self.phase = ProposerPhase::Accepting;
                        ctx.phase(SPAN, 0, ballot.num, CncPhase::Agreement);
                        ctx.broadcast_all(PaxosMsg::Accept {
                            ballot: self.current_ballot,
                            value,
                        });
                    }
                }
            }
            PaxosMsg::Nack {
                ballot: _,
                promised,
            } => {
                // Remember the preempting ballot so the next attempt jumps
                // past it; the retry itself is driven by the deadline timer
                // (the slides' proposers learn of preemption by timeout).
                self.preempted_by = self.preempted_by.max(promised);
            }

            // ---------------- learner ----------------
            PaxosMsg::Accepted { ballot, value } => {
                let spec = self.spec;
                let votes = (self.accepted_votes.entry(ballot))
                    .or_insert_with(|| Tally::new(spec, Phase::Agreement));
                votes.vote(from, [(0, ballot, value)]);
                if votes.reached() && self.decided.is_none() {
                    self.decided = Some(value);
                    self.phase = ProposerPhase::Done;
                    ctx.phase(SPAN, 0, ballot.num, CncPhase::Decision);
                    ctx.span_close(SPAN, 0, ballot.num);
                    // Propagate the decision to all, asynchronously.
                    ctx.broadcast(PaxosMsg::Decide { value });
                }
            }
            PaxosMsg::Decide { value } => {
                if let Some(prev) = self.decided {
                    assert_eq!(prev, value, "Paxos safety violated at {}", ctx.id());
                } else {
                    self.decided = Some(value);
                    ctx.phase(SPAN, 0, 0, CncPhase::Decision);
                    ctx.span_close(SPAN, 0, 0);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PaxosMsg>, timer: Timer) {
        match timer.kind {
            START_PROPOSAL | RETRY
                if self.decided.is_none() && self.phase == ProposerPhase::Idle =>
            {
                self.start_prepare(ctx);
            }
            DEADLINE
                if self.decided.is_none()
                    && matches!(
                        self.phase,
                        ProposerPhase::Preparing | ProposerPhase::Accepting
                    ) =>
            {
                self.schedule_retry(ctx);
            }
            _ => {}
        }
    }

    /// Acceptor state (`BallotNum`, `AcceptNum`, `AcceptVal`) is durable;
    /// proposer state is volatile and not resumed.
    fn on_restart(&mut self, _ctx: &mut Context<PaxosMsg>) {
        self.phase = ProposerPhase::Idle;
        self.acks = Tally::new(self.spec, Phase::Election);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetConfig, NodeId, Sim, Time};

    fn cluster(n: usize, seed: u64) -> Sim<PaxosNode> {
        let mut sim = Sim::new(NetConfig::lan(), seed);
        for _ in 0..n {
            sim.add_node(PaxosNode::acceptor(n));
        }
        sim
    }

    fn all_decided(sim: &Sim<PaxosNode>, expect: u64) {
        for (id, node) in sim.nodes() {
            if sim.is_alive(id) {
                assert_eq!(node.decided, Some(expect), "node {id} wrong decision");
            }
        }
    }

    #[test]
    fn single_proposer_decides_own_value() {
        let mut sim = cluster(5, 1);
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 42, 0, RetryPolicy::Never);
        sim.run_until(Time::from_secs(1));
        all_decided(&sim, 42);
    }

    #[test]
    fn message_flow_matches_slides() {
        let mut sim = cluster(3, 2);
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(3, 7, 0, RetryPolicy::Never);
        sim.record_trace(true);
        sim.run_until(Time::from_secs(1));
        let m = sim.metrics();
        // Prepare to the 2 others, acks back, accepts out, accepteds back,
        // decide out: each 2 messages.
        assert_eq!(m.kind("prepare"), 2);
        assert_eq!(m.kind("ack"), 2);
        assert_eq!(m.kind("accept"), 2);
        assert_eq!(m.kind("accepted"), 2);
        assert_eq!(m.kind("decide"), 2);
        // Phase order on the trace.
        let kinds: Vec<_> = sim
            .trace()
            .iter()
            .filter(|t| t.event == simnet::TraceEvent::Send)
            .map(|t| t.kind)
            .collect();
        let first_accept = kinds.iter().position(|k| *k == "accept").unwrap();
        let last_prepare = kinds.iter().rposition(|k| *k == "prepare").unwrap();
        assert!(last_prepare < first_accept, "phase 1 precedes phase 2");
    }

    #[test]
    fn o_n_message_complexity() {
        // Message count grows linearly in n: 5 linear exchanges.
        let mut counts = Vec::new();
        for n in [3usize, 5, 7, 9] {
            let mut sim = cluster(n, 3);
            *sim.node_mut(NodeId(0)) = PaxosNode::proposer(n, 1, 0, RetryPolicy::Never);
            sim.run_until(Time::from_secs(1));
            counts.push(sim.metrics().sent as usize);
        }
        for (i, n) in [3usize, 5, 7, 9].iter().enumerate() {
            assert_eq!(counts[i], 5 * (n - 1), "expected exactly 5(n-1) messages");
        }
    }

    #[test]
    fn value_survives_leader_crash_after_acceptance() {
        // The slide's leader-crash walkthrough: v accepted by a majority;
        // any new leader must recover v.
        let mut sim = cluster(5, 4);
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 111, 0, RetryPolicy::Never);
        // Second proposer wakes late with a different value.
        *sim.node_mut(NodeId(1)) = PaxosNode::proposer(5, 222, 20_000, RetryPolicy::Fixed(10_000));
        // Crash the first leader after accepts are out (~1.6ms) but before
        // it can learn/disseminate (~2.4ms would be safe; use 2ms).
        sim.crash_at(NodeId(0), Time(2_000));
        sim.run_until(Time::from_secs(1));
        // Whatever was decided, it is one value everywhere.
        let decisions: std::collections::BTreeSet<_> = sim
            .nodes()
            .filter(|(id, _)| sim.is_alive(*id))
            .filter_map(|(_, n)| n.decided)
            .collect();
        assert_eq!(decisions.len(), 1, "conflicting decisions: {decisions:?}");
        // And if 111 reached a majority before the crash, 222's proposer
        // must have adopted it (checked by safety assert inside nodes).
    }

    #[test]
    fn competing_proposers_still_agree() {
        for seed in 0..10 {
            let mut sim = cluster(5, 100 + seed);
            *sim.node_mut(NodeId(0)) = PaxosNode::proposer(
                5,
                10,
                0,
                RetryPolicy::Randomized {
                    min: 1_000,
                    max: 20_000,
                },
            );
            *sim.node_mut(NodeId(4)) = PaxosNode::proposer(
                5,
                20,
                200,
                RetryPolicy::Randomized {
                    min: 1_000,
                    max: 20_000,
                },
            );
            sim.run_until(Time::from_secs(5));
            let decisions: std::collections::BTreeSet<_> =
                sim.nodes().filter_map(|(_, n)| n.decided).collect();
            assert_eq!(decisions.len(), 1, "seed {seed}: {decisions:?}");
        }
    }

    #[test]
    fn tolerates_f_crash_faults() {
        // n = 5 tolerates f = 2 crashed acceptors.
        let mut sim = cluster(5, 6);
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 9, 0, RetryPolicy::Never);
        sim.crash_at(NodeId(3), Time(0));
        sim.crash_at(NodeId(4), Time(0));
        sim.run_until(Time::from_secs(1));
        for id in [0u32, 1, 2] {
            assert_eq!(sim.node(NodeId(id)).decided, Some(9));
        }
    }

    #[test]
    fn blocks_without_quorum() {
        // 3 of 5 crashed: no majority, no decision — but no wrong decision.
        let mut sim = cluster(5, 7);
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 9, 0, RetryPolicy::Fixed(5_000));
        for id in [2u32, 3, 4] {
            sim.crash_at(NodeId(id), Time(0));
        }
        sim.run_until(Time::from_millis(200));
        for (_, node) in sim.nodes() {
            assert_eq!(node.decided, None);
        }
    }

    #[test]
    fn acceptor_state_survives_restart() {
        let mut sim = cluster(3, 8);
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(3, 5, 0, RetryPolicy::Never);
        sim.run_until(Time::from_secs(1));
        all_decided(&sim, 5);
        let before = (
            sim.node(NodeId(1)).ballot_num(),
            sim.node(NodeId(1)).accept_val(),
        );
        sim.crash_at(NodeId(1), sim.now() + 10);
        sim.restart_at(NodeId(1), sim.now() + 1_000);
        sim.run_until(sim.now() + 10_000);
        let after = (
            sim.node(NodeId(1)).ballot_num(),
            sim.node(NodeId(1)).accept_val(),
        );
        assert_eq!(before, after, "durable acceptor state lost on restart");
    }

    #[test]
    fn learner_counts_each_acceptor_once_when_replies_are_duplicated() {
        // Every message is delivered twice. Node 0's accept reaches only
        // acceptors 0 and 1 before the partition, so their duplicated
        // `accepted` replies are two votes of five, not four: node 0 must
        // not decide 100 while the majority side decides 200.
        let net = NetConfig::synchronous()
            .with_delay(simnet::DelayModel::Fixed(500))
            .with_duplicate_prob(1.0);
        let mut sim: Sim<PaxosNode> = Sim::new(net, 1);
        for _ in 0..5 {
            sim.add_node(PaxosNode::acceptor(5));
        }
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 100, 0, RetryPolicy::Never);
        *sim.node_mut(NodeId(4)) = PaxosNode::proposer(5, 200, 10_000, RetryPolicy::Never);
        let sides = vec![vec![NodeId(0), NodeId(1)], (2..5).map(NodeId).collect()];
        sim.partition_at(Time(900), sides);
        sim.run_until(Time::from_secs(1));
        let decided: Vec<Option<u64>> = sim.nodes().map(|(_, n)| n.decided).collect();
        assert_eq!(decided, [None, None, Some(200), Some(200), Some(200)]);
    }

    #[test]
    fn message_loss_is_tolerated_with_retries() {
        // 20% loss: attempts may fail, but the deadline-driven retry loop
        // eventually decides, and always on the proposer's value.
        let mut sim: Sim<PaxosNode> = Sim::new(NetConfig::lan().with_drop_prob(0.2), 9);
        for _ in 0..5 {
            sim.add_node(PaxosNode::acceptor(5));
        }
        *sim.node_mut(NodeId(0)) = PaxosNode::proposer(
            5,
            77,
            0,
            RetryPolicy::Randomized {
                min: 2_000,
                max: 10_000,
            },
        )
        .with_deadline(10_000);
        sim.run_until(Time::from_secs(5));
        assert_eq!(sim.node(NodeId(0)).decided, Some(77));
        for (_, node) in sim.nodes() {
            if let Some(v) = node.decided {
                assert_eq!(v, 77);
            }
        }
    }
}

#[cfg(test)]
mod safety_props {
    use super::*;
    use proptest::prelude::*;
    use simnet::{NetConfig, NodeId, Sim, Time};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Agreement holds under arbitrary proposer start times, crash
        /// times, and network seeds: at most one value is ever decided.
        #[test]
        fn prop_at_most_one_decision(
            seed in 0u64..10_000,
            delay2 in 0u64..10_000,
            crash_at in 500u64..10_000,
            victim in 0u32..5,
        ) {
            let mut sim: Sim<PaxosNode> = Sim::new(NetConfig::lan(), seed);
            for _ in 0..5 {
                sim.add_node(PaxosNode::acceptor(5));
            }
            *sim.node_mut(NodeId(0)) = PaxosNode::proposer(
                5, 100, 0,
                RetryPolicy::Randomized { min: 1_000, max: 10_000 },
            );
            *sim.node_mut(NodeId(1)) = PaxosNode::proposer(
                5, 200, delay2,
                RetryPolicy::Randomized { min: 1_000, max: 10_000 },
            );
            sim.crash_at(NodeId(victim), Time(crash_at));
            sim.run_until(Time::from_secs(2));
            // Safety: the set of decided values has at most one element
            // (the in-node asserts also fire on any decide conflict).
            let decisions: std::collections::BTreeSet<u64> =
                sim.nodes().filter_map(|(_, n)| n.decided).collect();
            prop_assert!(decisions.len() <= 1, "{decisions:?}");
            for v in decisions {
                prop_assert!(v == 100 || v == 200, "non-proposed value {v}");
            }
        }

        /// With a quorum of live acceptors and patient retries, some value
        /// is eventually decided (liveness under partial synchrony).
        #[test]
        fn prop_decides_with_live_quorum(seed in 0u64..5_000, victim in 2u32..5) {
            let mut sim: Sim<PaxosNode> = Sim::new(NetConfig::lan(), seed);
            for _ in 0..5 {
                sim.add_node(PaxosNode::acceptor(5));
            }
            *sim.node_mut(NodeId(0)) = PaxosNode::proposer(
                5, 7, 0,
                RetryPolicy::Randomized { min: 2_000, max: 15_000 },
            );
            sim.crash_at(NodeId(victim), Time(100));
            sim.run_until(Time::from_secs(5));
            prop_assert_eq!(sim.node(NodeId(0)).decided, Some(7));
        }
    }
}
