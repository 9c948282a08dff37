//! Workload clients of the SMR shell.
//!
//! A [`Session`] is the protocol-independent half of every workload client:
//! the deterministic command stream, closed/open-loop pacing, the
//! outstanding set, and the latency and invoke/response records the
//! checkers read. [`ClientMsg`] is the client side of every protocol's wire,
//! carried in an [`Envelope`] beside the protocol's peer messages.
//!
//! [`Client`] is the one client node all nine protocols run. It never asks
//! which protocol it serves: each protocol's `SmrProtocol::client` sets three
//! policy values, and they are all that differ.
//! - [`Target`] — where a first attempt goes: the leader guess that follows
//!   `NotLeader` hints (Multi-Paxos, Raft), a fixed primary (PBFT, MinBFT,
//!   CheapBFT, XFT, SeeMoRe, Zyzzyva), or every replica (HotStuff).
//! - [`Silence`] — what silence does, and after how long: resend to the
//!   target, or broadcast with an optional alarm ahead of the requests
//!   (CheapBFT's `Panic`).
//! - An [`Accept`] policy — when an output is accepted. [`Quorum`] covers
//!   eight protocols: the first reply, `quorum` matching replies, or one reply
//!   from a trusted node. Zyzzyva's policy (in `bft`) also sees peer
//!   messages, sends and owns a timer, because there the client takes part
//!   in agreement.

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
    /// Commands a closed loop keeps in flight.
    window: usize,
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
            window: 1,
            completed: 0,
            outstanding: BTreeMap::new(),
            latencies: LatencyRecorder::new(),
            history: HistorySink::new(),
        }
    }

    /// Keeps `k` commands in flight instead of one: a closed loop that gives
    /// a pipelined protocol something to overlap (HotStuff's client window).
    /// The open loop has no window.
    #[must_use]
    pub fn with_window(mut self, k: usize) -> Self {
        self.window = k.max(1);
        self
    }

    /// Commands a closed loop keeps in flight (1 unless widened).
    pub fn window(&self) -> usize {
        self.window
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

/// The first timer kind an [`Accept`] policy may arm: the client hands it
/// every timer of this kind or above.
pub const ACCEPT_TIMER: u64 = 4;

/// Delay before resending after a `NotLeader` redirect. A single armed
/// nudge (instead of an immediate resend per redirect) bounds redirect
/// traffic to one resend per client per interval: with a transmit-limited
/// NIC, stale redirects otherwise arrive from a growing queue and every
/// bounce triggers another bounce — a self-sustaining request storm.
const NUDGE_US: u64 = 2_000;

/// Where a client's first attempt at a command goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The replica believed to lead: this one at first, then wherever a
    /// `NotLeader` hint points (one nudge resends after any number of
    /// redirects).
    Leader(NodeId),
    /// A fixed primary.
    Primary(NodeId),
    /// Every replica.
    All,
}

/// What a client does when the given number of µs pass without an answer.
#[derive(Clone, Debug)]
pub enum Silence<P> {
    /// Resend every outstanding command to the target. The first expiry
    /// keeps a leader guess (the reply may just be slow under load); the
    /// second in a row moves it to the next replica — eagerly rotating off a
    /// live-but-saturated leader turns every slow reply into a redirect
    /// round-trip.
    Resend(u64),
    /// Send the alarm, if any, and then every outstanding command to every
    /// replica — which is what lets backups notice a faulty primary.
    Broadcast(u64, Option<P>),
}

/// A command's accepted output: `(seq, output)`.
pub type Answer = (u64, KvResponse);

/// When a client accepts an output as a command's answer.
pub trait Accept<P> {
    /// `from` answered outstanding command `seq` with `output`: whether that
    /// is the answer.
    fn on_reply(&mut self, seq: u64, output: &KvResponse, from: NodeId) -> bool;

    /// A command has just been sent for the first time.
    fn on_issue(&mut self, _ctx: &mut Context<Envelope<P>>) {}

    /// A peer message reached the client: the `(seq, output)` it completes.
    fn on_peer(&mut self, _session: &Session, _from: NodeId, _msg: P) -> Option<Answer> {
        None
    }

    /// A timer of kind [`ACCEPT_TIMER`] or above fired.
    fn on_timer(&mut self, _ctx: &mut Context<Envelope<P>>, _session: &Session) {}
}

/// Accepts an output once `quorum` distinct replicas report exactly it, or
/// at once from any of nodes `0..trusted`. A quorum of one keeps no votes.
#[derive(Debug, Default)]
pub struct Quorum {
    quorum: usize,
    trusted: usize,
    /// `(seq, output, replier)` for every reply to a command not yet
    /// accepted.
    votes: Vec<(u64, KvResponse, NodeId)>,
}

impl Quorum {
    /// Accepts at `quorum` matching replies.
    pub fn of(quorum: usize) -> Self {
        Quorum {
            quorum,
            ..Quorum::default()
        }
    }

    /// Also takes a single reply from any of nodes `0..n` as definitive
    /// (SeeMoRe's private cloud can crash but not lie).
    #[must_use]
    pub fn trusting(self, trusted: usize) -> Self {
        Quorum { trusted, ..self }
    }
}

impl<P> Accept<P> for Quorum {
    fn on_reply(&mut self, seq: u64, output: &KvResponse, from: NodeId) -> bool {
        if self.quorum <= 1 {
            return true;
        }
        let vote = (seq, output.clone(), from);
        if !self.votes.contains(&vote) {
            self.votes.push(vote);
        }
        let matching = self.votes.iter().filter(|v| v.0 == seq && v.1 == *output);
        let accepted = from.index() < self.trusted || matching.count() >= self.quorum;
        if accepted {
            self.votes.retain(|(s, ..)| *s != seq);
        }
        accepted
    }
}

/// The workload client node: closed loop (a window of outstanding commands,
/// one by default) or open loop (fixed inter-arrival time, several
/// outstanding), under the three policies of the module docs.
pub struct Client<P, A = Quorum> {
    /// The workload and its records.
    pub session: Session,
    n_replicas: usize,
    target: Target,
    silence: Silence<P>,
    /// When an output is accepted.
    pub accept: A,
    /// Causal root span per outstanding command (when tracing is enabled).
    trace_roots: BTreeMap<u64, TraceCtx>,
    nudge_armed: bool,
    /// Consecutive `CLIENT_RETRY` expiries with no reply or redirect.
    retry_strikes: u8,
    /// Fast-read replies landed at this node, keyed by `(reader client id,
    /// read sequence number)`: `(value, mode)`. Filled by the geo read
    /// path, which borrows stub clients as regional read gateways (several
    /// routers may share one gateway, hence the compound key); the classic
    /// workload never touches it.
    pub read_replies: BTreeMap<(u32, u64), (Option<Str>, ReadMode)>,
}

impl<P: Payload, A: Accept<P>> Client<P, A> {
    /// Wraps `session` for a cluster of `n` replicas (node ids `0..n`).
    pub fn new(session: Session, n: usize, target: Target, silence: Silence<P>, accept: A) -> Self {
        Client {
            session,
            n_replicas: n,
            target,
            silence,
            accept,
            trace_roots: BTreeMap::new(),
            nudge_armed: false,
            retry_strikes: 0,
            read_replies: BTreeMap::new(),
        }
    }

    /// Issues commands while the window has room.
    fn top_up(&mut self, ctx: &mut Context<Envelope<P>>) {
        while self.session.outstanding.len() < self.session.window && self.issue_next(ctx) {}
    }

    fn issue_next(&mut self, ctx: &mut Context<Envelope<P>>) -> bool {
        let Some(cmd) = self.session.issue(ctx.now()) else {
            return false;
        };
        // Root the command's causal trace (no-op unless tracing is on); the
        // request send below inherits it automatically.
        if let Some(tc) = ctx.trace_begin(&format!("op c{} s{}", cmd.client, cmd.seq)) {
            self.trace_roots.insert(cmd.seq, tc);
        }
        self.send(ctx, Envelope::request(cmd), false);
        self.accept.on_issue(ctx);
        self.arm_retry(ctx);
        true
    }

    /// Arms the retry timer — the one place it is armed: after every first
    /// attempt and every resend. Nothing cancels one.
    fn arm_retry(&self, ctx: &mut Context<Envelope<P>>) {
        let (Silence::Resend(after_us) | Silence::Broadcast(after_us, _)) = self.silence;
        ctx.set_timer(after_us, CLIENT_RETRY);
    }

    /// Sends `msg` to every replica, or else where the target says.
    fn send(&self, ctx: &mut Context<Envelope<P>>, msg: Envelope<P>, to_all: bool) {
        match self.target {
            Target::Leader(to) | Target::Primary(to) if !to_all => ctx.send(to, msg),
            _ => ctx.send_many((0..self.n_replicas).map(NodeId::from), msg),
        }
    }

    /// Sends every outstanding command again and arms the retry.
    fn resend(&self, ctx: &mut Context<Envelope<P>>, to_all: bool) {
        for cmd in self.session.outstanding() {
            // Retransmits stay on the command's original trace, not the
            // trace of whatever message happened to trigger the retry.
            ctx.set_trace_ctx(self.trace_roots.get(&cmd.seq).copied());
            self.send(ctx, Envelope::request(cmd.clone()), to_all);
        }
        ctx.set_trace_ctx(None);
        if self.session.has_outstanding() {
            self.arm_retry(ctx);
        }
    }
}

impl<P: Payload, A: Accept<P>> Node for Client<P, A> {
    type Msg = Envelope<P>;

    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        match self.session.open_interval() {
            None => self.top_up(ctx),
            Some(interval) => {
                self.issue_next(ctx);
                ctx.set_timer(interval, CLIENT_ISSUE);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Envelope<P>>, from: NodeId, msg: Envelope<P>) {
        let answer = match msg {
            Envelope::Peer(msg) => self.accept.on_peer(&self.session, from, msg),
            Envelope::Client(ClientMsg::Reply { seq, output }) => {
                self.retry_strikes = 0;
                let outstanding = self.session.is_outstanding(seq);
                let accepted = outstanding && self.accept.on_reply(seq, &output, from);
                accepted.then_some((seq, output))
            }
            Envelope::Client(ClientMsg::NotLeader { seq, hint }) => {
                self.retry_strikes = 0;
                let Target::Leader(guess) = &mut self.target else {
                    return;
                };
                if self.session.is_outstanding(seq) {
                    // Follow the hint unless it points back at the
                    // replier; then probe round-robin.
                    *guess = if hint != from && hint.index() < self.n_replicas {
                        hint
                    } else {
                        NodeId::from((from.index() + 1) % self.n_replicas)
                    };
                    if !self.nudge_armed {
                        self.nudge_armed = true;
                        ctx.set_timer(NUDGE_US, CLIENT_NUDGE);
                    }
                }
                None
            }
            Envelope::Client(ClientMsg::ReadReply {
                client,
                seq,
                value,
                mode,
            }) => {
                self.read_replies.insert((client, seq), (value, mode));
                None
            }
            Envelope::Client(ClientMsg::Request(_) | ClientMsg::Read { .. }) => None,
        };
        // An accepted answer completes its command and, closed loop,
        // refills the window.
        let Some((seq, output)) = answer else {
            return;
        };
        if self.session.complete(seq, output, ctx.now()) {
            if let Some(tc) = self.trace_roots.remove(&seq) {
                ctx.trace_close(tc);
            }
            if self.session.is_closed_loop() {
                self.top_up(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Envelope<P>>, timer: Timer) {
        match timer.kind {
            CLIENT_RETRY if self.session.has_outstanding() => match &self.silence {
                Silence::Resend(_) => {
                    self.retry_strikes = self.retry_strikes.saturating_add(1);
                    if self.retry_strikes >= 2 {
                        self.retry_strikes = 0;
                        if let Target::Leader(guess) = &mut self.target {
                            *guess = NodeId::from((guess.index() + 1) % self.n_replicas);
                        }
                    }
                    self.resend(ctx, false);
                }
                Silence::Broadcast(_, alarm) => {
                    if let Some(alarm) = alarm {
                        self.send(ctx, alarm.clone().into(), true);
                    }
                    self.resend(ctx, true);
                }
            },
            CLIENT_NUDGE => {
                self.nudge_armed = false;
                if self.session.has_outstanding() {
                    self.resend(ctx, false);
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
            kind if kind >= ACCEPT_TIMER => self.accept.on_timer(ctx, &self.session),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetConfig, Sim};

    /// A protocol with no peer messages: the smallest wire a client can run
    /// over.
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

    /// Multi-Paxos' and Raft's retry period.
    const RETRY_US: u64 = 100_000;

    /// The leader-following client Multi-Paxos and Raft run.
    fn leader_following(s: Session, n: usize) -> Client<NoPeer> {
        let target = Target::Leader(NodeId(0));
        Client::new(s, n, target, Silence::Resend(RETRY_US), Quorum::of(1))
    }

    /// `n` silent replicas and the client `build` makes from its session
    /// (`total` commands, seed 1), on a fixed 500 µs network.
    fn sim_of(
        n: usize,
        total: usize,
        mode: WorkloadMode,
        build: impl FnOnce(Session) -> Client<NoPeer>,
    ) -> Sim<Proc> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        for _ in 0..n {
            sim.add_node(Recorder::default());
        }
        let session = Session::new(n as u32, total, KvMix::default(), 1, mode);
        sim.add_node(build(session));
        sim
    }

    /// Three silent replicas and one leader-following client.
    fn sim(total: usize, mode: WorkloadMode) -> Sim<Proc> {
        sim_of(3, total, mode, |s| leader_following(s, 3))
    }

    /// Arrival times of the requests replica `r` has seen.
    fn arrivals(sim: &Sim<Proc>, r: u32) -> Vec<u64> {
        match sim.node(NodeId(r)) {
            Proc::Replica(rec) => rec.got.iter().map(|&(at, _)| at).collect(),
            Proc::Client(_) => unreachable!("node {r} is a replica"),
        }
    }

    /// The client under test (the last node).
    fn client(sim: &Sim<Proc>) -> &Client<NoPeer> {
        match sim.node(NodeId::from(sim.n_nodes() - 1)) {
            Proc::Client(c) => c,
            Proc::Replica(_) => unreachable!("the last node is the client"),
        }
    }

    /// Replicas of the acceptance table: `3f+1` with `f = 1`.
    const N: usize = 4;

    /// The BFT silence policy, at a period no row reaches.
    fn broadcast() -> Silence<NoPeer> {
        Silence::Broadcast(50_000, None)
    }

    #[test]
    fn acceptance_decision_table() {
        // (policy, replies as (replier, seq, output), completes?) — one
        // command (seq 0) outstanding among four replicas.
        type Policy = fn(Session) -> Client<NoPeer>;
        let leader: Policy = |s| leader_following(s, N);
        // PBFT: f+1 = 2 matching replies.
        let pbft: Policy = |s| {
            let primary = Target::Primary(NodeId(0));
            Client::new(s, N, primary, broadcast(), Quorum::of(2))
        };
        // SeeMoRe: the same, but node 0 (the private cloud) is trusted.
        let seemore: Policy = |s| {
            let primary = Target::Primary(NodeId(0));
            Client::new(s, N, primary, broadcast(), Quorum::of(2).trusting(1))
        };
        // HotStuff: f+1 matching replies from any replica.
        let hotstuff: Policy = |s| Client::new(s, N, Target::All, broadcast(), Quorum::of(2));
        type Row = (
            &'static str,
            Policy,
            &'static [(u32, u64, &'static str)],
            bool,
        );
        let table: [Row; 13] = [
            ("leader", leader, &[(1, 0, "a")], true),
            ("leader", leader, &[(1, 7, "a")], false),
            ("pbft", pbft, &[(1, 0, "a")], false),
            ("pbft", pbft, &[(1, 0, "a"), (2, 0, "a")], true),
            ("pbft", pbft, &[(1, 0, "a"), (2, 0, "b")], false),
            ("pbft", pbft, &[(1, 0, "a"), (1, 0, "a")], false),
            ("pbft", pbft, &[(1, 7, "a"), (2, 7, "a")], false),
            ("seemore", seemore, &[(0, 0, "a")], true),
            ("seemore", seemore, &[(1, 0, "a")], false),
            ("seemore", seemore, &[(1, 0, "a"), (3, 0, "a")], true),
            ("hotstuff", hotstuff, &[(3, 0, "a"), (2, 0, "a")], true),
            (
                "hotstuff",
                hotstuff,
                &[(1, 0, "forged"), (2, 0, "honest")],
                false,
            ),
            ("hotstuff", hotstuff, &[(0, 0, "a")], false),
        ];
        for (name, policy, replies, completes) in table {
            let mut sim = sim_of(N, 1, WorkloadMode::Closed, policy);
            for (i, &(from, seq, out)) in replies.iter().enumerate() {
                let output = KvResponse::Value(Some(out.into()));
                let reply = Envelope::Client(ClientMsg::Reply { seq, output });
                sim.inject(NodeId(from), NodeId::from(N), reply, Time(1_000 + i as u64));
            }
            sim.run_until(Time(10_000));
            let c = client(&sim);
            assert_eq!(c.session.done(), completes, "{name} {replies:?}");
            if name == "leader" {
                // A quorum of one never allocates vote state.
                assert_eq!(c.accept.votes.capacity(), 0);
            }
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
        assert!(client(&sim).session.done());
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

    #[test]
    fn a_window_keeps_k_commands_in_flight() {
        let window = |s: Session| Client::new(s, N, Target::All, broadcast(), Quorum::of(1));
        let mut sim = sim_of(N, 5, WorkloadMode::Closed, |s| window(s.with_window(3)));
        sim.run_until(Time(10_000));
        assert_eq!(arrivals(&sim, 2), [500, 500, 500], "three at once");
        // One answer frees one slot.
        let output = KvResponse::Ok;
        let reply = Envelope::Client(ClientMsg::Reply { seq: 1, output });
        sim.inject(NodeId(2), NodeId::from(N), reply, Time(10_000));
        sim.run_until(Time(20_000));
        assert_eq!(arrivals(&sim, 2), [500, 500, 500, 10_500]);
    }
}
