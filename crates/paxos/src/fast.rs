//! Fast Paxos: trading quorum size for message delays.
//!
//! Basic Paxos needs **3** message delays from client request to learning
//! (client → leader → accept → accepted). Fast Paxos allows **2** when
//!
//! 1. the system has `3f + 1` nodes instead of `2f + 1`, and
//! 2. the client sends its request to *multiple destinations* directly.
//!
//! The coordinator issues an **Any** message; thereafter a backup may select
//! its own value — the first client value it receives — and send *Accepted*
//! straight to the coordinator. If a fast quorum (`⌈3n/4⌉`) accepted the
//! same value it is chosen in 2 delays. When concurrent clients collide, the
//! coordinator picks the value with the most votes (the slide: "chooses the
//! value with the majority quorum if exists") and falls back to a classic
//! round.
//!
//! A replica's promise and accepted value are slot 0 of the shared
//! [`consensus_core::Register`]; only a client value that arrives before
//! *Any* waits outside it, as Fast Paxos state.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::{Ballot, Register};
use simnet::{Context, NetConfig, Node, NodeId, Payload, Sim, Time, Timer};

/// Fast Paxos wire messages.
#[derive(Clone, Debug)]
pub enum FpMsg {
    /// Coordinator's *Any* message enabling fast acceptance.
    Any {
        /// The fast round's ballot.
        ballot: Ballot,
    },
    /// Client's value, sent directly to all replicas ("Accept!").
    ClientValue {
        /// Proposed value.
        value: u64,
    },
    /// Replica → coordinator: value accepted in the fast round.
    FastAccepted {
        /// Fast ballot.
        ballot: Ballot,
        /// Accepted value.
        value: u64,
    },
    /// Classic round proposal after a collision.
    ClassicAccept {
        /// Recovery ballot.
        ballot: Ballot,
        /// Coordinator-chosen value.
        value: u64,
    },
    /// Classic round acknowledgement.
    ClassicAccepted {
        /// Recovery ballot.
        ballot: Ballot,
        /// Accepted value.
        value: u64,
    },
    /// The decision.
    Commit {
        /// Chosen value.
        value: u64,
    },
}

impl Payload for FpMsg {
    fn kind(&self) -> &'static str {
        match self {
            FpMsg::Any { .. } => "any",
            FpMsg::ClientValue { .. } => "accept!",
            FpMsg::FastAccepted { .. } => "accepted",
            FpMsg::ClassicAccept { .. } => "classic-accept",
            FpMsg::ClassicAccepted { .. } => "classic-accepted",
            FpMsg::Commit { .. } => "commit",
        }
    }
}

/// Fast quorum: `⌈3n/4⌉` — the smallest size for which any two fast
/// quorums intersect in enough correct acceptors that a recovering
/// coordinator can identify a possibly-chosen value.
pub fn fast_quorum(n: usize) -> usize {
    (3 * n).div_ceil(4)
}

/// Classic quorum: `2f + 1` with `f = ⌊(n−1)/3⌋`.
pub fn classic_quorum(n: usize) -> usize {
    2 * ((n - 1) / 3) + 1
}

const COLLISION_FALLBACK: u64 = 1;
const SEND_VALUE: u64 = 2;

/// A Fast Paxos replica. Node 0 doubles as the coordinator/leader.
pub struct FpReplica {
    n_replicas: usize,
    /// Fast-quorum size used by the coordinator (default `⌈3n/4⌉`;
    /// overridable for the quorum-size ablation).
    pub fast_quorum_size: usize,
    // --- acceptor ---
    acceptor: Register<u64>,
    any_enabled: Option<Ballot>,
    /// A client value that arrived before *Any*, accepted once it does.
    early_value: Option<u64>,
    // --- coordinator (node 0 only) ---
    is_coordinator: bool,
    fast_votes: BTreeMap<u64, BTreeSet<NodeId>>,
    responders: BTreeSet<NodeId>,
    classic_votes: BTreeSet<NodeId>,
    classic_value: Option<u64>,
    in_classic: bool,
    /// The decision, once known.
    pub decided: Option<u64>,
    /// Simulated time at which the coordinator learned the decision.
    pub decided_at: Option<Time>,
    /// Whether the decision needed a classic (collision recovery) round.
    pub took_classic_round: bool,
}

impl FpReplica {
    /// Creates a replica; `coordinator` marks node 0's extra role.
    pub fn new(n_replicas: usize, coordinator: bool) -> Self {
        FpReplica {
            n_replicas,
            fast_quorum_size: fast_quorum(n_replicas),
            acceptor: Register::default(),
            any_enabled: None,
            early_value: None,
            is_coordinator: coordinator,
            fast_votes: BTreeMap::new(),
            responders: BTreeSet::new(),
            classic_votes: BTreeSet::new(),
            classic_value: None,
            in_classic: false,
            decided: None,
            decided_at: None,
            took_classic_round: false,
        }
    }

    fn decide(&mut self, ctx: &mut Context<FpMsg>, value: u64) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(value);
        self.decided_at = Some(ctx.now());
        ctx.broadcast(FpMsg::Commit { value });
    }

    /// Accepts `value` in the fast round and reports it to the coordinator.
    fn fast_accept(&mut self, ctx: &mut Context<FpMsg>, ballot: Ballot, value: u64) {
        if self.acceptor.accept(ballot, 0, value).is_ok() {
            ctx.send(NodeId(0), FpMsg::FastAccepted { ballot, value });
        }
    }

    fn start_classic_round(&mut self, ctx: &mut Context<FpMsg>) {
        if self.in_classic || self.decided.is_some() {
            return;
        }
        self.in_classic = true;
        self.took_classic_round = true;
        // "Chooses the value with the majority quorum if exists" — otherwise
        // the most-voted value (ties: smallest), a valid coordinator pick.
        let value = self
            .fast_votes
            .iter()
            .max_by_key(|(v, votes)| (votes.len(), std::cmp::Reverse(**v)))
            .map(|(v, _)| *v)
            .unwrap_or(0);
        self.classic_value = Some(value);
        self.classic_votes.clear();
        let ballot = self.acceptor.promise().next_for(ctx.id());
        self.acceptor
            .prepare(ballot)
            .expect("a successor ballot is never refused");
        ctx.broadcast_all(FpMsg::ClassicAccept { ballot, value });
    }
}

impl Node for FpReplica {
    type Msg = FpMsg;

    fn on_start(&mut self, ctx: &mut Context<FpMsg>) {
        if self.is_coordinator {
            let ballot = Ballot::new(1, 0);
            self.acceptor
                .prepare(ballot)
                .expect("the first ballot is never refused");
            ctx.broadcast_all(FpMsg::Any { ballot });
            // If responses stall (crashed replica / collision without full
            // attendance), recover via a classic round.
            ctx.set_timer(20_000, COLLISION_FALLBACK);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<FpMsg>, from: NodeId, msg: FpMsg) {
        match msg {
            FpMsg::Any { ballot } => {
                if self.acceptor.prepare(ballot).is_ok() {
                    self.any_enabled = Some(ballot);
                    // A value that raced ahead of Any can now be accepted.
                    if let Some(value) = self.early_value.take() {
                        self.fast_accept(ctx, ballot, value);
                    }
                }
            }
            FpMsg::ClientValue { value } => {
                // Fast acceptance: first client value wins locally.
                let first = self.early_value.is_none() && self.acceptor.accepted(0).is_none();
                if first && !self.in_classic && self.decided.is_none() {
                    match self.any_enabled {
                        Some(ballot) => self.fast_accept(ctx, ballot, value),
                        None => self.early_value = Some(value),
                    }
                }
            }
            FpMsg::FastAccepted { ballot, value } => {
                if !self.is_coordinator || self.in_classic || self.decided.is_some() {
                    return;
                }
                let promise = self.acceptor.promise();
                if Some(ballot) != self.any_enabled.or(Some(promise)) && ballot != promise {
                    return;
                }
                self.responders.insert(from);
                self.fast_votes.entry(value).or_default().insert(from);
                let fq = self.fast_quorum_size;
                if let Some((v, _)) = self
                    .fast_votes
                    .iter()
                    .find(|(_, votes)| votes.len() >= fq)
                    .map(|(v, s)| (*v, s.len()))
                {
                    self.decide(ctx, v);
                } else if self.responders.len() >= self.n_replicas - 1 {
                    // Everyone (but me) answered and no value reached the
                    // fast quorum: collision.
                    self.start_classic_round(ctx);
                }
            }
            FpMsg::ClassicAccept { ballot, value } => {
                if self.acceptor.accept(ballot, 0, value).is_ok() {
                    self.any_enabled = None;
                    ctx.send(from, FpMsg::ClassicAccepted { ballot, value });
                }
            }
            FpMsg::ClassicAccepted { ballot, value } => {
                if self.is_coordinator && self.in_classic && ballot == self.acceptor.promise() {
                    self.classic_votes.insert(from);
                    if self.classic_votes.len() >= classic_quorum(self.n_replicas) {
                        self.decide(ctx, value);
                    }
                }
            }
            FpMsg::Commit { value } => {
                if let Some(prev) = self.decided {
                    assert_eq!(prev, value, "Fast Paxos safety violated");
                } else {
                    self.decided = Some(value);
                    self.decided_at = Some(ctx.now());
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<FpMsg>, timer: Timer) {
        if timer.kind == COLLISION_FALLBACK
            && self.is_coordinator
            && self.decided.is_none()
            && !self.in_classic
            && !self.fast_votes.is_empty()
        {
            self.start_classic_round(ctx);
        }
    }
}

/// A Fast Paxos client: sends its value to **all** replicas after a delay.
pub struct FpClient {
    n_replicas: usize,
    value: u64,
    delay: u64,
    /// When the value was sent.
    pub sent_at: Option<Time>,
    /// The decision as observed by this client.
    pub learned: Option<u64>,
    /// Time from send to learning (µs).
    pub latency: Option<u64>,
}

impl FpClient {
    /// Creates a client proposing `value` after `delay` µs.
    pub fn new(n_replicas: usize, value: u64, delay: u64) -> Self {
        FpClient {
            n_replicas,
            value,
            delay,
            sent_at: None,
            learned: None,
            latency: None,
        }
    }
}

impl Node for FpClient {
    type Msg = FpMsg;

    fn on_start(&mut self, ctx: &mut Context<FpMsg>) {
        ctx.set_timer(self.delay, SEND_VALUE);
    }

    fn on_message(&mut self, ctx: &mut Context<FpMsg>, _from: NodeId, msg: FpMsg) {
        if let FpMsg::Commit { value } = msg {
            if self.learned.is_none() {
                self.learned = Some(value);
                if let Some(sent) = self.sent_at {
                    self.latency = Some(ctx.now().saturating_sub(sent));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<FpMsg>, timer: Timer) {
        if timer.kind == SEND_VALUE {
            self.sent_at = Some(ctx.now());
            for r in 0..self.n_replicas {
                ctx.send(NodeId::from(r), FpMsg::ClientValue { value: self.value });
            }
        }
    }
}

simnet::node_enum! {
    /// A Fast Paxos process.
    pub enum FastProc: FpMsg {
        /// Replica (node 0 = coordinator).
        Replica(FpReplica),
        /// Proposing client.
        Client(FpClient),
    }
}

/// Builds a Fast Paxos instance: `n` replicas plus one client per
/// `(value, delay)` pair.
pub fn build(n: usize, clients: &[(u64, u64)], config: NetConfig, seed: u64) -> Sim<FastProc> {
    let mut sim = Sim::new(config, seed);
    for i in 0..n {
        sim.add_node(FpReplica::new(n, i == 0));
    }
    for &(value, delay) in clients {
        sim.add_node(FpClient::new(n, value, delay));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::DelayModel;

    fn fixed_net() -> NetConfig {
        NetConfig::synchronous().with_delay(DelayModel::Fixed(500))
    }

    #[test]
    fn quorum_sizes() {
        assert_eq!(fast_quorum(4), 3);
        assert_eq!(fast_quorum(7), 6);
        assert_eq!(classic_quorum(4), 3);
        assert_eq!(classic_quorum(7), 5);
    }

    #[test]
    fn fast_round_decides_in_two_delays() {
        // Single client: no collision, decision in 2 one-way delays after
        // the client sends (client→replicas, replicas→coordinator).
        let mut sim = build(4, &[(7, 2_000)], fixed_net(), 1);
        sim.run_until(Time::from_secs(1));
        let coord = match sim.node(NodeId(0)) {
            FastProc::Replica(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(coord.decided, Some(7));
        assert!(!coord.took_classic_round);
        // Sent at 2000, learned at coordinator at 2000 + 2×500 = 3000.
        assert_eq!(coord.decided_at, Some(Time(3_000)));
    }

    #[test]
    fn collision_falls_back_to_classic_round() {
        // Two clients, same instant, different values: replicas split,
        // no fast quorum, coordinator resolves with a classic round.
        let mut sim = build(4, &[(1, 1_000), (2, 1_000)], fixed_net(), 3);
        // Make the race real: jitter client→replica links so neither value
        // sweeps all replicas.
        for c in [4u32, 5] {
            for r in 0..4u32 {
                sim.set_link_delay(NodeId(c), NodeId(r), DelayModel::Uniform(300, 900));
            }
        }
        sim.run_until(Time::from_secs(1));
        let coord = match sim.node(NodeId(0)) {
            FastProc::Replica(r) => r,
            _ => unreachable!(),
        };
        let decided = coord.decided.expect("must still decide");
        assert!(decided == 1 || decided == 2);
        // All replicas agree.
        for (_, p) in sim.nodes() {
            if let FastProc::Replica(r) = p {
                if let Some(v) = r.decided {
                    assert_eq!(v, decided);
                }
            }
        }
    }

    #[test]
    fn collision_rate_grows_with_contention() {
        let classic_rounds = |n_clients: usize| {
            let mut collided = 0;
            for seed in 0..20 {
                let clients: Vec<(u64, u64)> =
                    (0..n_clients).map(|i| (i as u64 + 1, 1_000)).collect();
                let mut sim = build(4, &clients, NetConfig::lan(), 100 + seed);
                sim.run_until(Time::from_secs(1));
                if let FastProc::Replica(r) = sim.node(NodeId(0)) {
                    assert!(r.decided.is_some(), "seed {seed} undecided");
                    if r.took_classic_round {
                        collided += 1;
                    }
                }
            }
            collided
        };
        let solo = classic_rounds(1);
        let contended = classic_rounds(3);
        assert_eq!(solo, 0, "a single client never collides");
        assert!(
            contended > 0,
            "three concurrent clients should collide sometimes"
        );
    }

    #[test]
    fn client_learns_the_decision() {
        let mut sim = build(4, &[(9, 500)], fixed_net(), 4);
        sim.run_until(Time::from_secs(1));
        if let FastProc::Client(c) = sim.node(NodeId(4)) {
            assert_eq!(c.learned, Some(9));
            // client→replica (500) + replica→coord (500) + commit→client (500)
            assert_eq!(c.latency, Some(1_500));
        } else {
            panic!("node 4 is the client");
        }
    }

    #[test]
    fn fast_quorum_size_ablation() {
        // Larger fast quorums collide more often under contention (harder
        // to reach unanimity), smaller ones decide fast more often — the
        // price being reduced fault overlap (which real Fast Paxos forbids
        // below ⌈3n/4⌉; the ablation shows *why* the knob matters).
        let classic_rate = |fq: usize| {
            let mut collided = 0;
            for seed in 0..20 {
                let clients: Vec<(u64, u64)> = (0..2).map(|i| (i + 1, 1_000)).collect();
                let mut sim = build(8, &clients, NetConfig::lan(), 300 + seed);
                for r in 0..8u32 {
                    if let FastProc::Replica(rep) = sim.node_mut(NodeId(r)) {
                        rep.fast_quorum_size = fq;
                    }
                }
                sim.run_until(Time::from_secs(1));
                if let FastProc::Replica(r) = sim.node(NodeId(0)) {
                    if r.took_classic_round {
                        collided += 1;
                    }
                }
            }
            collided
        };
        let strict = classic_rate(8); // unanimity required
        let standard = classic_rate(fast_quorum(8)); // 6 of 8
        assert!(
            strict >= standard,
            "stricter fast quorums should collide at least as often: {strict} vs {standard}"
        );
    }

    #[test]
    fn tolerates_one_crashed_replica() {
        let mut sim = build(4, &[(5, 1_000)], fixed_net(), 5);
        sim.crash_at(NodeId(3), Time(0));
        sim.run_until(Time::from_secs(1));
        if let FastProc::Replica(r) = sim.node(NodeId(0)) {
            assert_eq!(r.decided, Some(5), "3 of 4 replicas = fast quorum");
        }
    }
}
