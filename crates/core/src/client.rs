//! Workload clients of the SMR shell.
//!
//! A [`Session`] is the protocol-independent half of every workload client:
//! the deterministic command stream, closed/open-loop pacing, the
//! outstanding set, and the latency and invoke/response records the
//! checkers read. [`ClientMsg`] is the client side of every protocol's wire,
//! carried in an [`Envelope`] beside the protocol's peer messages.
//! [`Client`] adds the leader-following policy Multi-Paxos and Raft share —
//! send to the believed leader, follow `NotLeader` hints, resend on silence.
//! Protocols whose clients talk to replicas differently (the BFT family
//! collects a quorum of matching replies and escalates by broadcast —
//! `bft::shell::VotingClient`) wrap a `Session` in their own node and
//! implement [`WorkloadClient`].

use std::collections::BTreeMap;

use simnet::{Context, Node, NodeId, Payload, Time, Timer, TraceCtx};

use crate::codec::{put_command, put_str, wire_size};
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

/// The client side of every SMR protocol's wire, declared once: what a
/// workload client, a store router's stub or a read gateway exchanges with
/// replicas. It rides beside each protocol's own peer messages in an
/// [`Envelope`].
#[derive(Clone, Debug)]
pub enum ClientMsg {
    /// A command submission.
    Request(Command<KvCommand>),
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
    /// A fast-path linearizable read of `key` (the geo read path; the
    /// classic workload never sends one).
    Read {
        /// Reader client id.
        client: u32,
        /// Read sequence number, echoed back verbatim.
        seq: u64,
        /// Key to read.
        key: Str,
    },
    /// The answer to a [`ClientMsg::Read`].
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
}

impl Payload for ClientMsg {
    fn kind(&self) -> &'static str {
        match self {
            ClientMsg::Request(_) => "request",
            ClientMsg::Reply { .. } => "reply",
            ClientMsg::NotLeader { .. } => "not-leader",
            ClientMsg::Read { .. } => "read",
            ClientMsg::ReadReply { .. } => "read-resp",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| match self {
            ClientMsg::Request(cmd) => put_command(w, cmd),
            ClientMsg::Read { key, .. } => put_str(w, key),
            _ => {}
        })
    }
}

/// The wire of one SMR protocol: [`ClientMsg`] beside the protocol's own
/// peer messages `P`.
#[derive(Clone, Debug)]
pub enum Envelope<P> {
    /// Client traffic.
    Client(ClientMsg),
    /// The protocol's own messages.
    Peer(P),
}

impl<P> Envelope<P> {
    /// A submission of `cmd`.
    pub fn request(cmd: Command<KvCommand>) -> Self {
        Envelope::Client(ClientMsg::Request(cmd))
    }

    /// The reply to `cmd`.
    pub fn reply(cmd: &Command<KvCommand>, output: KvResponse) -> Self {
        Envelope::Client(ClientMsg::Reply {
            seq: cmd.seq,
            output,
        })
    }
}

impl<P> From<P> for Envelope<P> {
    fn from(msg: P) -> Self {
        Envelope::Peer(msg)
    }
}

impl<P: Payload> Payload for Envelope<P> {
    fn kind(&self) -> &'static str {
        match self {
            Envelope::Client(msg) => msg.kind(),
            Envelope::Peer(msg) => msg.kind(),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Envelope::Client(msg) => msg.size_bytes(),
            Envelope::Peer(msg) => msg.size_bytes(),
        }
    }
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
pub struct Client<P> {
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
    wire: std::marker::PhantomData<P>,
}

impl<P: Payload> Client<P> {
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

    fn issue_next(&mut self, ctx: &mut Context<Envelope<P>>) {
        let Some(cmd) = self.session.issue(ctx.now()) else {
            return;
        };
        // Root the command's causal trace (no-op unless tracing is on); the
        // request send below inherits it automatically.
        if let Some(tc) = ctx.trace_begin(&format!("op c{} s{}", cmd.client, cmd.seq)) {
            self.trace_roots.insert(cmd.seq, tc);
        }
        ctx.send(self.leader_guess, Envelope::request(cmd));
        ctx.set_timer(RETRY_US, CLIENT_RETRY);
    }

    fn resend_all(&mut self, ctx: &mut Context<Envelope<P>>) {
        for cmd in self.session.outstanding() {
            // Retransmits stay on the command's original trace, not the
            // trace of whatever message happened to trigger the retry.
            ctx.set_trace_ctx(self.trace_roots.get(&cmd.seq).copied());
            ctx.send(self.leader_guess, Envelope::request(cmd.clone()));
        }
        ctx.set_trace_ctx(None);
        if self.session.has_outstanding() {
            ctx.set_timer(RETRY_US, CLIENT_RETRY);
        }
    }
}

impl<P: Payload> WorkloadClient for Client<P> {
    fn session(&self) -> &Session {
        &self.session
    }
}

impl<P: Payload> Node for Client<P> {
    type Msg = Envelope<P>;

    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.issue_next(ctx);
        if let Some(interval) = self.session.open_interval() {
            ctx.set_timer(interval, CLIENT_ISSUE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Envelope<P>>, from: NodeId, msg: Envelope<P>) {
        let Envelope::Client(msg) = msg else {
            return;
        };
        match msg {
            ClientMsg::Reply { seq, output } => {
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
            ClientMsg::NotLeader { seq, hint } => {
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
            ClientMsg::ReadReply {
                client,
                seq,
                value,
                mode,
            } => {
                self.read_replies.insert((client, seq), (value, mode));
            }
            ClientMsg::Request(_) | ClientMsg::Read { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Envelope<P>>, timer: Timer) {
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

    /// A protocol with no peer messages: the smallest wire a leader-following
    /// client can run over.
    #[derive(Clone, Debug)]
    pub struct NoPeer;

    impl Payload for NoPeer {}

    type Wire = Envelope<NoPeer>;

    /// A silent replica: records when each request arrived, never answers.
    #[derive(Default)]
    pub struct Recorder {
        got: Vec<(u64, u64)>,
    }

    impl Node for Recorder {
        type Msg = Wire;

        fn on_start(&mut self, _ctx: &mut Context<Wire>) {}

        fn on_message(&mut self, ctx: &mut Context<Wire>, _from: NodeId, msg: Wire) {
            if let Envelope::Client(ClientMsg::Request(cmd)) = msg {
                self.got.push((ctx.now().0, cmd.seq));
            }
        }
    }

    simnet::node_enum! {
        pub enum Proc: Wire {
            Replica(Recorder),
            Client(Client<NoPeer>),
        }
    }

    fn not_leader(seq: u64, hint: u32) -> Wire {
        let hint = NodeId(hint);
        Envelope::Client(ClientMsg::NotLeader { seq, hint })
    }

    const CLIENT: NodeId = NodeId(3);

    /// Three silent replicas and one client, on a fixed 500 µs network.
    fn sim(total: usize, mode: WorkloadMode) -> Sim<Proc> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        for _ in 0..3 {
            sim.add_node(Recorder::default());
        }
        let session = Session::new(CLIENT.0, total, KvMix::default(), 1, mode);
        sim.add_node(Client::<NoPeer>::new(session, 3));
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
        sim.inject(NodeId(0), CLIENT, not_leader(0, 2), Time(1_000));
        sim.run_until(Time(10_000));
        assert_eq!(arrivals(&sim, 0), [500]);
        assert_eq!(arrivals(&sim, 2), [1_000 + NUDGE_US + 500]);
        // Replica 2 names itself (it does not know better): probe the next
        // replica round-robin instead of bouncing off 2 forever.
        sim.inject(NodeId(2), CLIENT, not_leader(0, 2), Time(10_000));
        sim.run_until(Time(20_000));
        assert_eq!(arrivals(&sim, 0), [500, 10_000 + NUDGE_US + 500]);
        // A hint outside the replica set is ignored the same way.
        sim.inject(NodeId(0), CLIENT, not_leader(0, 7), Time(20_000));
        sim.run_until(Time(30_000));
        assert_eq!(arrivals(&sim, 1), [20_000 + NUDGE_US + 500]);
    }

    #[test]
    fn any_number_of_redirects_arms_one_nudge() {
        let mut sim = sim(1, WorkloadMode::Closed);
        for i in 0..5 {
            sim.inject(NodeId(0), CLIENT, not_leader(0, 1), Time(1_000 + i));
        }
        // A redirect for a command that is not outstanding moves nothing.
        sim.inject(NodeId(0), CLIENT, not_leader(9, 2), Time(1_010));
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
        let reply = ClientMsg::Reply {
            seq: 0,
            output: KvResponse::Ok,
        };
        sim.inject(NodeId(1), CLIENT, Envelope::Client(reply), Time(250_000));
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
