//! Workload clients of the SMR shell.
//!
//! A [`Session`] is the protocol-independent half of every workload client:
//! the deterministic command stream, closed/open-loop pacing, the
//! outstanding set, and the latency and invoke/response records the
//! checkers read. [`Client`] adds the leader-following policy Multi-Paxos
//! and Raft share — send to the believed leader, follow `NotLeader` hints,
//! resend on silence — over any message type that implements
//! [`ClientWire`]. Protocols whose clients talk to replicas differently
//! (the BFT family collects a quorum of matching replies and escalates by
//! broadcast — `bft::shell::VotingClient`) wrap a `Session` in their own
//! node and implement [`WorkloadClient`].

use std::collections::BTreeMap;

use simnet::{Context, Node, NodeId, Payload, Time, Timer, TraceCtx};

use crate::history::HistorySink;
use crate::smr::{Command, KvCommand, KvResponse, ReadMode, Str};
use crate::workload::{KvMix, KvWorkload, LatencyRecorder, WorkloadMode};

/// One client's workload and its records.
pub struct Session {
    workload: KvWorkload,
    total: usize,
    mode: WorkloadMode,
    /// Completed commands.
    pub completed: usize,
    /// Issued-but-unreplied commands, by client sequence number.
    outstanding: BTreeMap<u64, (Command<KvCommand>, Time)>,
    /// Request → reply latencies.
    pub latencies: LatencyRecorder,
    /// Invoke/response history for safety checking.
    pub history: HistorySink,
}

impl Session {
    /// A session for client `client_id` (== its node id) that will issue
    /// `total` commands drawn from `mix`.
    pub fn new(client_id: u32, total: usize, mix: KvMix, seed: u64, mode: WorkloadMode) -> Self {
        Session {
            workload: KvWorkload::new(client_id, mix, seed),
            total,
            mode,
            completed: 0,
            outstanding: BTreeMap::new(),
            latencies: LatencyRecorder::new(),
            history: HistorySink::new(),
        }
    }

    /// Whether all commands completed.
    pub fn done(&self) -> bool {
        self.completed >= self.total
    }

    /// Generates the next command and records its invocation, unless the
    /// workload is exhausted.
    pub fn issue(&mut self, now: Time) -> Option<Command<KvCommand>> {
        if !self.remaining() {
            return None;
        }
        let cmd = self.workload.next_command();
        self.history
            .invoke(cmd.client, cmd.seq, cmd.op.clone(), now.0);
        self.outstanding.insert(cmd.seq, (cmd.clone(), now));
        Some(cmd)
    }

    /// Whether commands are still to be generated.
    pub fn remaining(&self) -> bool {
        (self.workload.issued() as usize) < self.total
    }

    /// Whether `seq` was issued and has no accepted reply yet.
    pub fn is_outstanding(&self, seq: u64) -> bool {
        self.outstanding.contains_key(&seq)
    }

    /// Issued-but-unreplied commands in sequence order.
    pub fn outstanding(&self) -> impl Iterator<Item = &Command<KvCommand>> {
        self.outstanding.values().map(|(cmd, _)| cmd)
    }

    /// Whether any command awaits its reply.
    pub fn has_outstanding(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// Accepts `output` as the reply to `seq`. Returns `false` (recording
    /// nothing) when `seq` is not outstanding — a duplicate or stale reply.
    pub fn complete(&mut self, seq: u64, output: KvResponse, now: Time) -> bool {
        let Some((cmd, sent_at)) = self.outstanding.remove(&seq) else {
            return false;
        };
        self.history.complete(cmd.client, cmd.seq, now.0, output);
        self.latencies.record(sent_at, now);
        self.completed += 1;
        true
    }

    /// Closed loop: the next command is issued when a reply arrives.
    pub fn is_closed_loop(&self) -> bool {
        self.mode == WorkloadMode::Closed
    }

    /// Open loop: the fixed inter-arrival time (≥ 1 µs).
    pub fn open_interval(&self) -> Option<u64> {
        match self.mode {
            WorkloadMode::Closed => None,
            WorkloadMode::Open { interval_us } => Some(interval_us.max(1)),
        }
    }
}

/// A client node the cluster harness can harvest.
pub trait WorkloadClient: Node {
    /// The client's workload and records.
    fn session(&self) -> &Session;
}

/// What a client-facing message means to [`Client`].
pub enum Inbound {
    /// The reply to command `seq`.
    Reply {
        /// Client sequence number.
        seq: u64,
        /// State-machine output.
        output: KvResponse,
    },
    /// The replier does not lead; `hint` is its best guess at who does.
    NotLeader {
        /// Sequence the client sent.
        seq: u64,
        /// Suggested leader.
        hint: NodeId,
    },
    /// A fast-path read reply (geo read path).
    ReadReply {
        /// Reader client id.
        client: u32,
        /// Read sequence number.
        seq: u64,
        /// The value — meaningful unless `mode` is [`ReadMode::Nack`].
        value: Option<Str>,
        /// How the read was served.
        mode: ReadMode,
    },
    /// Replica-to-replica traffic; clients ignore it.
    Other,
}

/// The client-facing corner of a protocol's message type.
pub trait ClientWire: Payload {
    /// Wraps a command as a submission.
    fn request(cmd: Command<KvCommand>) -> Self;

    /// Builds a fast-path read of `key`, identified by `(client, seq)`.
    fn read_request(client: u32, seq: u64, key: Str) -> Self;

    /// Classifies an inbound message.
    fn classify(self) -> Inbound;
}

const CLIENT_RETRY: u64 = 1;
const CLIENT_ISSUE: u64 = 2;
const CLIENT_NUDGE: u64 = 3;

/// Silence after which outstanding commands are resent (µs).
const RETRY_US: u64 = 100_000;

/// Delay before resending after a `NotLeader` redirect. A single armed
/// nudge (instead of an immediate resend per redirect) bounds redirect
/// traffic to one resend per client per interval: with a transmit-limited
/// NIC, stale redirects otherwise arrive from a growing queue and every
/// bounce triggers another bounce — a self-sustaining request storm.
const NUDGE_US: u64 = 2_000;

/// The leader-following workload client: closed loop (one outstanding
/// command, the default) or open loop (fixed inter-arrival time, several
/// outstanding).
pub struct Client<M> {
    /// The workload and its records.
    pub session: Session,
    n_replicas: usize,
    /// Causal root span per outstanding command (when tracing is enabled).
    trace_roots: BTreeMap<u64, TraceCtx>,
    leader_guess: NodeId,
    nudge_armed: bool,
    /// Consecutive `CLIENT_RETRY` expiries with no reply or redirect.
    retry_strikes: u8,
    /// Fast-read replies landed at this node, keyed by `(reader client id,
    /// read sequence number)`: `(value, mode)`. Filled by the geo read
    /// path, which borrows stub clients as regional read gateways (several
    /// routers may share one gateway, hence the compound key); the classic
    /// workload never touches it.
    pub read_replies: BTreeMap<(u32, u64), (Option<Str>, ReadMode)>,
    wire: std::marker::PhantomData<M>,
}

impl<M: ClientWire> Client<M> {
    /// Wraps `session` for a cluster of `n_replicas` (node ids `0..n`).
    pub fn new(session: Session, n_replicas: usize) -> Self {
        Client {
            session,
            n_replicas,
            trace_roots: BTreeMap::new(),
            leader_guess: NodeId(0),
            nudge_armed: false,
            retry_strikes: 0,
            read_replies: BTreeMap::new(),
            wire: std::marker::PhantomData,
        }
    }

    fn issue_next(&mut self, ctx: &mut Context<M>) {
        let Some(cmd) = self.session.issue(ctx.now()) else {
            return;
        };
        // Root the command's causal trace (no-op unless tracing is on); the
        // request send below inherits it automatically.
        if let Some(tc) = ctx.trace_begin(&format!("op c{} s{}", cmd.client, cmd.seq)) {
            self.trace_roots.insert(cmd.seq, tc);
        }
        ctx.send(self.leader_guess, M::request(cmd));
        ctx.set_timer(RETRY_US, CLIENT_RETRY);
    }

    fn resend_all(&mut self, ctx: &mut Context<M>) {
        for cmd in self.session.outstanding() {
            // Retransmits stay on the command's original trace, not the
            // trace of whatever message happened to trigger the retry.
            ctx.set_trace_ctx(self.trace_roots.get(&cmd.seq).copied());
            ctx.send(self.leader_guess, M::request(cmd.clone()));
        }
        ctx.set_trace_ctx(None);
        if self.session.has_outstanding() {
            ctx.set_timer(RETRY_US, CLIENT_RETRY);
        }
    }
}

impl<M: ClientWire> WorkloadClient for Client<M> {
    fn session(&self) -> &Session {
        &self.session
    }
}

impl<M: ClientWire> Node for Client<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.issue_next(ctx);
        if let Some(interval) = self.session.open_interval() {
            ctx.set_timer(interval, CLIENT_ISSUE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        match msg.classify() {
            Inbound::Reply { seq, output } => {
                self.retry_strikes = 0;
                if self.session.complete(seq, output, ctx.now()) {
                    if let Some(tc) = self.trace_roots.remove(&seq) {
                        ctx.trace_close(tc);
                    }
                    if self.session.is_closed_loop() {
                        self.issue_next(ctx);
                    }
                }
            }
            Inbound::NotLeader { seq, hint } => {
                self.retry_strikes = 0;
                if self.session.is_outstanding(seq) {
                    // Follow the hint unless it points back at the
                    // replier; then probe round-robin.
                    self.leader_guess = if hint != from && hint.index() < self.n_replicas {
                        hint
                    } else {
                        NodeId::from((from.index() + 1) % self.n_replicas)
                    };
                    if !self.nudge_armed {
                        self.nudge_armed = true;
                        ctx.set_timer(NUDGE_US, CLIENT_NUDGE);
                    }
                }
            }
            Inbound::ReadReply {
                client,
                seq,
                value,
                mode,
            } => {
                self.read_replies.insert((client, seq), (value, mode));
            }
            Inbound::Other => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<M>, timer: Timer) {
        match timer.kind {
            CLIENT_RETRY if self.session.has_outstanding() => {
                // First expiry resends to the current guess (the reply may
                // just be slow under load); only repeated silence rotates —
                // eagerly rotating off a live-but-saturated leader turns
                // every >100 ms reply into a redirect round-trip.
                self.retry_strikes = self.retry_strikes.saturating_add(1);
                if self.retry_strikes >= 2 {
                    self.retry_strikes = 0;
                    self.leader_guess =
                        NodeId::from((self.leader_guess.index() + 1) % self.n_replicas);
                }
                self.resend_all(ctx);
            }
            CLIENT_NUDGE => {
                self.nudge_armed = false;
                if self.session.has_outstanding() {
                    self.resend_all(ctx);
                }
            }
            CLIENT_ISSUE => {
                self.issue_next(ctx);
                if let Some(interval) = self.session.open_interval() {
                    if self.session.remaining() {
                        ctx.set_timer(interval, CLIENT_ISSUE);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetConfig, Sim};

    /// The smallest wire type a leader-following client can run over.
    #[derive(Clone, Debug)]
    pub enum Stub {
        Request(u64),
        Reply(u64),
        NotLeader(u64, NodeId),
    }

    impl Payload for Stub {}

    impl ClientWire for Stub {
        fn request(cmd: Command<KvCommand>) -> Self {
            Stub::Request(cmd.seq)
        }

        fn read_request(_client: u32, seq: u64, _key: Str) -> Self {
            Stub::Request(seq)
        }

        fn classify(self) -> Inbound {
            match self {
                Stub::Reply(seq) => Inbound::Reply {
                    seq,
                    output: KvResponse::Ok,
                },
                Stub::NotLeader(seq, hint) => Inbound::NotLeader { seq, hint },
                Stub::Request(_) => Inbound::Other,
            }
        }
    }

    /// A silent replica: records when each request arrived, never answers.
    #[derive(Default)]
    pub struct Recorder {
        got: Vec<(u64, u64)>,
    }

    impl Node for Recorder {
        type Msg = Stub;

        fn on_start(&mut self, _ctx: &mut Context<Stub>) {}

        fn on_message(&mut self, ctx: &mut Context<Stub>, _from: NodeId, msg: Stub) {
            if let Stub::Request(seq) = msg {
                self.got.push((ctx.now().0, seq));
            }
        }
    }

    simnet::node_enum! {
        pub enum Proc: Stub {
            Replica(Recorder),
            Client(Client<Stub>),
        }
    }

    const CLIENT: NodeId = NodeId(3);

    /// Three silent replicas and one client, on a fixed 500 µs network.
    fn sim(total: usize, mode: WorkloadMode) -> Sim<Proc> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        for _ in 0..3 {
            sim.add_node(Recorder::default());
        }
        let session = Session::new(CLIENT.0, total, KvMix::default(), 1, mode);
        sim.add_node(Client::<Stub>::new(session, 3));
        sim
    }

    /// Arrival times of the requests replica `r` has seen.
    fn arrivals(sim: &Sim<Proc>, r: u32) -> Vec<u64> {
        match sim.node(NodeId(r)) {
            Proc::Replica(rec) => rec.got.iter().map(|&(at, _)| at).collect(),
            Proc::Client(_) => unreachable!("nodes 0..3 are replicas"),
        }
    }

    #[test]
    fn follows_a_hint_unless_it_points_back_at_the_replier() {
        let mut sim = sim(1, WorkloadMode::Closed);
        // Replica 0 redirects to 2: the nudge resends there.
        sim.inject(
            NodeId(0),
            CLIENT,
            Stub::NotLeader(0, NodeId(2)),
            Time(1_000),
        );
        sim.run_until(Time(10_000));
        assert_eq!(arrivals(&sim, 0), [500]);
        assert_eq!(arrivals(&sim, 2), [1_000 + NUDGE_US + 500]);
        // Replica 2 names itself (it does not know better): probe the next
        // replica round-robin instead of bouncing off 2 forever.
        sim.inject(
            NodeId(2),
            CLIENT,
            Stub::NotLeader(0, NodeId(2)),
            Time(10_000),
        );
        sim.run_until(Time(20_000));
        assert_eq!(arrivals(&sim, 0), [500, 10_000 + NUDGE_US + 500]);
        // A hint outside the replica set is ignored the same way.
        sim.inject(
            NodeId(0),
            CLIENT,
            Stub::NotLeader(0, NodeId(7)),
            Time(20_000),
        );
        sim.run_until(Time(30_000));
        assert_eq!(arrivals(&sim, 1), [20_000 + NUDGE_US + 500]);
    }

    #[test]
    fn any_number_of_redirects_arms_one_nudge() {
        let mut sim = sim(1, WorkloadMode::Closed);
        for i in 0..5 {
            sim.inject(
                NodeId(0),
                CLIENT,
                Stub::NotLeader(0, NodeId(1)),
                Time(1_000 + i),
            );
        }
        // A redirect for a command that is not outstanding moves nothing.
        sim.inject(
            NodeId(0),
            CLIENT,
            Stub::NotLeader(9, NodeId(2)),
            Time(1_010),
        );
        sim.run_until(Time(50_000));
        assert_eq!(arrivals(&sim, 1), [1_000 + NUDGE_US + 500], "one resend");
        assert_eq!(arrivals(&sim, 2), [] as [u64; 0]);
    }

    #[test]
    fn first_silent_retry_resends_and_only_the_second_rotates() {
        let mut sim = sim(1, WorkloadMode::Closed);
        sim.run_until(Time(250_000));
        assert_eq!(arrivals(&sim, 0), [500, RETRY_US + 500]);
        assert_eq!(arrivals(&sim, 1), [2 * RETRY_US + 500]);
        // A reply resets the strike count and, closed loop, ends the run.
        sim.inject(NodeId(1), CLIENT, Stub::Reply(0), Time(250_000));
        sim.run_until(Time(1_000_000));
        assert_eq!(arrivals(&sim, 1).len(), 1);
        match sim.node(CLIENT) {
            Proc::Client(c) => assert!(c.session.done()),
            Proc::Replica(_) => unreachable!("node 3 is the client"),
        }
    }

    #[test]
    fn open_loop_stops_arming_the_issue_timer_at_total() {
        let mut sim = sim(3, WorkloadMode::Open { interval_us: 1_000 });
        sim.run_until(Time(50_000));
        assert_eq!(arrivals(&sim, 0), [500, 1_500, 2_500], "one per interval");
        // Two issue-timer fires (the third command exhausts the workload, so
        // nothing is re-armed); the first retry timer is not due yet.
        assert_eq!(sim.metrics().timer_fires, 2);
    }
}
