//! The BFT corner of the SMR shell: the reply-voting workload client and the
//! `decided_log` shape of protocols that execute one command at a time.
//!
//! A BFT client cannot trust a single reply. It accepts an output once a
//! protocol-specific quorum of replicas report the *same* output, and it
//! escalates silence by broadcasting every outstanding request to all
//! replicas — which is what lets backups notice a faulty primary. PBFT,
//! MinBFT, CheapBFT, XFT and SeeMoRe differ only in what a [`VoteWire`]
//! impl and the [`VotingClient`] builders state; Zyzzyva (the client *is*
//! the commitment point) and HotStuff (windowed broadcast) keep their own
//! nodes over the same [`Session`].

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use consensus_core::driver::DecidedEntry;
use consensus_core::{Command, KvCommand, KvResponse, Session, WorkloadClient};
use simnet::{Context, Node, NodeId, Payload, Timer};

use crate::sim_crypto::digest_of;

/// The client-facing corner of a BFT protocol's message type.
pub trait VoteWire: Payload {
    /// Silence after which every outstanding request is broadcast (µs).
    const RETRY_US: u64;

    /// Wraps a command as a submission.
    fn request(cmd: Command<KvCommand>) -> Self;

    /// `(seq, output)` if this is a replica's reply to a client.
    fn reply(self) -> Option<(u64, KvResponse)>;

    /// What a retry sends every replica ahead of the requests. CheapBFT's
    /// client is its fault detector: silence raises `Panic`.
    fn alarm() -> Option<Self> {
        None
    }
}

const CLIENT_RETRY: u64 = 1;
const CLIENT_ISSUE: u64 = 2;

/// Node ids `0..n` — every replica, as a broadcast target list.
pub fn replica_ids(n: usize) -> impl Iterator<Item = NodeId> + Clone {
    (0..n).map(NodeId::from)
}

/// Reply votes per outstanding request: seq → output digest → repliers.
pub type ReplyVotes = BTreeMap<u64, BTreeMap<u64, BTreeSet<NodeId>>>;

/// Records `from`'s vote for `output` as the reply to `seq` and returns how
/// many distinct replicas now report exactly that output.
pub fn count_vote(votes: &mut ReplyVotes, seq: u64, output: &KvResponse, from: NodeId) -> usize {
    let matching = votes
        .entry(seq)
        .or_default()
        .entry(digest_of(output).0)
        .or_default();
    matching.insert(from);
    matching.len()
}

/// The reply-voting workload client: optimistically sends each request to
/// the primary only, accepts an output at `quorum` matching replies, and on
/// silence broadcasts every outstanding request to all replicas. Closed
/// loop by default (one outstanding request), optionally open loop with a
/// fixed issue interval so batching experiments can saturate the primary.
pub struct VotingClient<M> {
    /// The workload and its records.
    pub session: Session,
    n_replicas: usize,
    quorum: usize,
    primary: NodeId,
    /// Replies from nodes `0..trusted` are definitive on their own.
    trusted: usize,
    votes: ReplyVotes,
    wire: PhantomData<M>,
}

impl<M: VoteWire> VotingClient<M> {
    /// A client of replicas `0..n_replicas` that accepts an output at
    /// `quorum` matching replies and first tries node 0.
    pub fn new(session: Session, n_replicas: usize, quorum: usize) -> Self {
        VotingClient {
            session,
            n_replicas,
            quorum,
            primary: NodeId(0),
            trusted: 0,
            votes: ReplyVotes::new(),
            wire: PhantomData,
        }
    }

    /// Sends first attempts to `primary` instead of node 0.
    #[must_use]
    pub fn to_primary(mut self, primary: NodeId) -> Self {
        self.primary = primary;
        self
    }

    /// Takes a single reply from any of nodes `0..n` as definitive
    /// (SeeMoRe's private cloud can crash but not lie).
    #[must_use]
    pub fn trusting(mut self, n: usize) -> Self {
        self.trusted = n;
        self
    }

    fn issue_next(&mut self, ctx: &mut Context<M>) {
        let Some(cmd) = self.session.issue(ctx.now()) else {
            return;
        };
        ctx.send(self.primary, M::request(cmd));
        ctx.set_timer(M::RETRY_US, CLIENT_RETRY);
    }
}

impl<M: VoteWire> WorkloadClient for VotingClient<M> {
    fn session(&self) -> &Session {
        &self.session
    }
}

impl<M: VoteWire> Node for VotingClient<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.issue_next(ctx);
        if let Some(interval) = self.session.open_interval() {
            ctx.set_timer(interval, CLIENT_ISSUE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        let Some((seq, output)) = msg.reply() else {
            return;
        };
        if !self.session.is_outstanding(seq) {
            return;
        }
        let matching = count_vote(&mut self.votes, seq, &output, from);
        if matching >= self.quorum || from.index() < self.trusted {
            self.votes.remove(&seq);
            self.session.complete(seq, output, ctx.now());
            if self.session.is_closed_loop() {
                self.issue_next(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<M>, timer: Timer) {
        match timer.kind {
            CLIENT_RETRY if self.session.has_outstanding() => {
                // Escalate: every replica sees every pending request, which
                // is what ultimately deposes a faulty primary.
                let replicas = replica_ids(self.n_replicas);
                if let Some(alarm) = M::alarm() {
                    ctx.send_many(replicas.clone(), alarm);
                }
                for cmd in self.session.outstanding() {
                    ctx.send_many(replicas.clone(), M::request(cmd.clone()));
                }
                ctx.set_timer(M::RETRY_US, CLIENT_RETRY);
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

/// Appends one [`DecidedEntry`] per command of `executed`, indexed by
/// execution order — the `decided_log` shape of protocols whose replicas
/// execute a single totally ordered command sequence.
pub fn decided_commands<'a>(
    executed: impl IntoIterator<Item = &'a Command<KvCommand>>,
    node: u32,
    out: &mut Vec<DecidedEntry>,
) {
    out.extend(
        executed
            .into_iter()
            .enumerate()
            .map(|(i, cmd)| DecidedEntry {
                node,
                index: i as u64,
                op: format!("{cmd:?}"),
                origin: Some((cmd.client, cmd.seq)),
            }),
    );
}

/// Unit-test harness: one client under test among silent replicas.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use consensus_core::workload::KvMix;
    use consensus_core::WorkloadMode;
    use simnet::{NetConfig, Sim};

    /// A silent replica that records `(arrival µs, message)`, or the client.
    pub enum Harness<C: Node> {
        Silent(Vec<(u64, C::Msg)>),
        Client(C),
    }

    impl<C: Node> Node for Harness<C> {
        type Msg = C::Msg;

        fn on_start(&mut self, ctx: &mut Context<C::Msg>) {
            if let Harness::Client(c) = self {
                c.on_start(ctx);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<C::Msg>, from: NodeId, msg: C::Msg) {
            match self {
                Harness::Silent(got) => got.push((ctx.now().0, msg)),
                Harness::Client(c) => c.on_message(ctx, from, msg),
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<C::Msg>, timer: Timer) {
            if let Harness::Client(c) = self {
                c.on_timer(ctx, timer);
            }
        }
    }

    /// `n` silent replicas plus the client `build` makes from its session
    /// (`total` commands, seed 1), on a fixed 500 µs network.
    pub fn sim<C: Node>(
        n: usize,
        total: usize,
        mode: WorkloadMode,
        build: impl FnOnce(Session) -> C,
    ) -> Sim<Harness<C>> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        for _ in 0..n {
            sim.add_node(Harness::Silent(Vec::new()));
        }
        let session = Session::new(n as u32, total, KvMix::default(), 1, mode);
        sim.add_node(Harness::Client(build(session)));
        sim
    }

    /// What replica `r` received, in arrival order.
    pub fn received<C: Node>(sim: &Sim<Harness<C>>, r: usize) -> &[(u64, C::Msg)] {
        match sim.node(NodeId::from(r)) {
            Harness::Silent(got) => got,
            Harness::Client(_) => unreachable!("node {r} is the client"),
        }
    }

    /// The client under test (the last node).
    pub fn client<C: Node>(sim: &Sim<Harness<C>>) -> &C {
        match sim.node(NodeId::from(sim.n_nodes() - 1)) {
            Harness::Client(c) => c,
            Harness::Silent(_) => unreachable!("the last node is the client"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{client, received, sim};
    use super::*;
    use consensus_core::WorkloadMode;
    use simnet::Time;

    /// The smallest wire type a voting client can run over; replies carry
    /// the output's `Value` payload so tests can forge disagreeing ones.
    #[derive(Clone, Debug, PartialEq)]
    enum Stub {
        Request(u64),
        Reply(u64, &'static str),
        Alarm,
    }

    impl Payload for Stub {}

    impl VoteWire for Stub {
        const RETRY_US: u64 = 50_000;

        fn request(cmd: Command<KvCommand>) -> Self {
            Stub::Request(cmd.seq)
        }

        fn reply(self) -> Option<(u64, KvResponse)> {
            match self {
                Stub::Reply(seq, v) => Some((seq, KvResponse::Value(Some(v.into())))),
                _ => None,
            }
        }
    }

    /// Like [`Stub`], for a protocol whose retry raises an alarm first.
    #[derive(Clone, Debug, PartialEq)]
    struct Alarmed(Stub);

    impl Payload for Alarmed {}

    impl VoteWire for Alarmed {
        const RETRY_US: u64 = Stub::RETRY_US;

        fn request(cmd: Command<KvCommand>) -> Self {
            Alarmed(Stub::request(cmd))
        }

        fn reply(self) -> Option<(u64, KvResponse)> {
            self.0.reply()
        }

        fn alarm() -> Option<Self> {
            Some(Alarmed(Stub::Alarm))
        }
    }

    const N: usize = 4;
    const CLIENT: NodeId = NodeId(N as u32);

    #[test]
    fn acceptance_decision_table() {
        // (trusted prefix, replies as (replier, seq, output), completes?) —
        // quorum 2 of 4 replicas, one command (seq 0) outstanding.
        type Row = (usize, &'static [(u32, u64, &'static str)], bool);
        let table: [Row; 7] = [
            (0, &[(1, 0, "a")], false),
            (0, &[(1, 0, "a"), (2, 0, "a")], true),
            (0, &[(1, 0, "a"), (2, 0, "b")], false),
            (0, &[(1, 0, "a"), (1, 0, "a")], false),
            (0, &[(1, 7, "a"), (2, 7, "a")], false),
            (1, &[(0, 0, "a")], true),
            (1, &[(1, 0, "a")], false),
        ];
        for (trusted, replies, completes) in table {
            let mut sim = sim(N, 1, WorkloadMode::Closed, |s| {
                VotingClient::<Stub>::new(s, N, 2).trusting(trusted)
            });
            for (i, &(from, seq, out)) in replies.iter().enumerate() {
                let at = Time(1_000 + i as u64);
                sim.inject(NodeId(from), CLIENT, Stub::Reply(seq, out), at);
            }
            sim.run_until(Time(10_000));
            let done = client(&sim).session.done();
            assert_eq!(done, completes, "trusted={trusted} {replies:?}");
        }
    }

    #[test]
    fn first_attempt_goes_to_the_primary_only() {
        let mut sim = sim(N, 1, WorkloadMode::Closed, |s| {
            VotingClient::<Stub>::new(s, N, 2).to_primary(NodeId(2))
        });
        sim.run_until(Time(10_000));
        assert_eq!(received(&sim, 2), [(500, Stub::Request(0))]);
        assert!(received(&sim, 0).is_empty());
    }

    #[test]
    fn retry_broadcasts_every_outstanding_command_to_all_replicas() {
        // Open loop: three commands outstanding when the first retry fires.
        let mut sim = sim(N, 3, WorkloadMode::Open { interval_us: 1_000 }, |s| {
            VotingClient::<Stub>::new(s, N, 2)
        });
        sim.run_until(Time(Stub::RETRY_US + 600));
        let requests = [Stub::Request(0), Stub::Request(1), Stub::Request(2)];
        for r in 1..N {
            let got: Vec<&Stub> = received(&sim, r).iter().map(|(_, m)| m).collect();
            assert_eq!(got, requests.iter().collect::<Vec<_>>(), "replica {r}");
        }
        assert_eq!(received(&sim, 0).len(), 6, "first attempts plus the retry");
    }

    #[test]
    fn retry_sends_the_alarm_ahead_of_the_requests_when_the_protocol_has_one() {
        let mut sim = sim(N, 1, WorkloadMode::Closed, |s| {
            VotingClient::<Alarmed>::new(s, N, 2)
        });
        sim.run_until(Time(Stub::RETRY_US + 600));
        for r in 1..N {
            let got: Vec<&Stub> = received(&sim, r).iter().map(|(_, m)| &m.0).collect();
            assert_eq!(got, [&Stub::Alarm, &Stub::Request(0)], "replica {r}");
        }
    }

    #[test]
    fn open_loop_stops_arming_the_issue_timer_at_total() {
        let mut sim = sim(N, 3, WorkloadMode::Open { interval_us: 1_000 }, |s| {
            VotingClient::<Stub>::new(s, N, 2)
        });
        sim.run_until(Time(40_000));
        let arrivals: Vec<u64> = received(&sim, 0).iter().map(|(at, _)| *at).collect();
        assert_eq!(arrivals, [500, 1_500, 2_500], "one per interval");
        // Two issue-timer fires (the third command exhausts the workload, so
        // nothing is re-armed); the first retry timer is not due yet.
        assert_eq!(sim.metrics().timer_fires, 2);
    }

    #[test]
    fn decided_commands_index_by_execution_order() {
        let cmds: Vec<Command<KvCommand>> = (0..3)
            .map(|seq| Command {
                client: 9,
                seq,
                op: KvCommand::Get {
                    key: format!("k{seq}").into(),
                },
            })
            .collect();
        let mut out = Vec::new();
        decided_commands(&cmds, 2, &mut out);
        for (i, e) in out.iter().enumerate() {
            let i = i as u64;
            assert_eq!((e.node, e.index, e.origin), (2, i, Some((9, i))));
            assert_eq!(e.op, format!("{:?}", cmds[i as usize]));
        }
        assert_eq!(out.len(), 3);
    }
}
