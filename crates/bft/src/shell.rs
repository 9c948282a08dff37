//! The BFT corner of the SMR shell — what the seven protocols share beyond
//! `consensus_core`, written once.
//!
//! **Client.** There is no BFT client node: every protocol runs
//! `consensus_core::Client` and sets its three policies as values. A BFT
//! client cannot trust a single reply, so five protocols send a first attempt
//! to the primary, broadcast every outstanding request on silence (which is
//! what lets backups notice a faulty primary; CheapBFT raises `Panic` ahead
//! of it), and accept an output at a [`consensus_core::Quorum`] of *matching*
//! replies (SeeMoRe: or one from the trusted private cloud). HotStuff aims at
//! every replica, because its leader rotates; Zyzzyva's client is the
//! commitment point, so its acceptance policy ([`crate::zyzzyva::Speculative`])
//! takes part in agreement. The tests below pin the primary / broadcast /
//! alarm policies on the one client.
//!
//! **Replica half.** Plain structs the handlers call, not a node with hooks:
//! the protocols differ in who receives a proposal, what sequences and
//! attests it and which quorum decides it at nearly every line of their
//! agreement phases, so those stay in the protocol files. What does not
//! differ lives here. An [`Executor`] owns the dedup machine, the executed
//! command record, the relayed-and-unanswered request set and the executed
//! frontier, and provides request admission ([`Executor::admit`]), the
//! execute step, the in-order drain and history replay. A [`Voter`] is the
//! one view change of PBFT, MinBFT and XFT: it owns the view, the vote set
//! with each voter's certified claims ([`Vote`]: PBFT's prepared batches
//! above its stable checkpoint, executed or not; MinBFT's and XFT's whole
//! log), the join and install quorums each protocol fixes, and the progress
//! watchdog (a [`simnet::LiveTimer`] armed through [`watch`]); the new
//! primary and every backup compute the new view from the votes with one
//! function, [`new_view`]. A protocol keeps what it claims and how it
//! re-bases its instances on the new view.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::codec::{put_command, Sink};
pub use consensus_core::shell::{in_flight, peers, replica_ids};
use consensus_core::{Command, DedupKvMachine, Envelope, KvCommand, KvResponse};
use simnet::{CncPhase, Context, LiveTimer, NodeId, Payload};

/// Resends the cached reply if `cmd` already executed on `machine`.
pub fn answer_cached<P: Payload>(
    machine: &DedupKvMachine,
    ctx: &mut Context<Envelope<P>>,
    cmd: &Command<KvCommand>,
) -> bool {
    let Some(output) = machine.cached(cmd.client, cmd.seq) else {
        return false;
    };
    ctx.send(NodeId(cmd.client), Envelope::reply(cmd, output.clone()));
    true
}

/// Hands out an instance's command for execution, once: `None` unless it is
/// `decided`, has a command and is not yet `executed` (which this sets).
pub fn take_ready(
    cmd: &Option<Command<KvCommand>>,
    decided: bool,
    executed: &mut bool,
) -> Option<Command<KvCommand>> {
    let cmd = cmd.as_ref().filter(|_| decided && !*executed)?;
    *executed = true;
    Some(cmd.clone())
}

/// What [`Executor::admit`] made of a client request.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Answered from the dedup cache, or ordered and not yet executed:
    /// nothing left to do.
    Handled,
    /// New, and this replica is the primary: order it.
    Order,
    /// New, and relayed to the primary; the caller's watchdog watches it.
    Relayed,
}

/// What every replica owns whatever its agreement protocol: the dedup
/// machine, the executed commands in order, the requests relayed to the
/// primary and not yet executed here, and the executed frontier.
#[derive(Default)]
pub struct Executor {
    machine: DedupKvMachine,
    history: Vec<Command<KvCommand>>,
    pending: BTreeSet<(u32, u64)>,
    /// Highest executed instance in the protocol's current numbering (a view
    /// change or protocol switch re-bases it; the history is never cut).
    pub executed_upto: u64,
}

impl Executor {
    /// The replicated machine.
    pub fn machine(&self) -> &DedupKvMachine {
        &self.machine
    }

    /// Every command executed so far, in order — also the state-transfer
    /// payload of a view change or protocol switch.
    pub fn history(&self) -> &[Command<KvCommand>] {
        &self.history
    }

    /// Whether a request relayed to the primary is still unexecuted.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Request admission: an executed request is answered from the cache, one
    /// among `ordered` is swallowed; a new one is the caller's to order if it
    /// is `primary`, and is otherwise relayed there and remembered.
    pub fn admit<'a, P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        cmd: &Command<KvCommand>,
        primary: NodeId,
        ordered: impl IntoIterator<Item = &'a Command<KvCommand>>,
    ) -> Admission {
        if answer_cached(&self.machine, ctx, cmd) {
            Admission::Handled
        } else if primary != ctx.id() {
            self.pending.insert((cmd.client, cmd.seq));
            ctx.send(primary, Envelope::request(cmd.clone()));
            Admission::Relayed
        } else if in_flight(cmd, ordered) {
            Admission::Handled
        } else {
            Admission::Order
        }
    }

    /// Applies `cmd`, forgets it as pending and records it; the caller
    /// replies with the output.
    pub fn apply(&mut self, cmd: &Command<KvCommand>) -> KvResponse {
        let output = self.machine.apply_cmd(cmd);
        self.pending.remove(&(cmd.client, cmd.seq));
        self.history.push(cmd.clone());
        output
    }

    /// [`Executor::apply`], then the reply to the client.
    pub fn execute<P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        cmd: &Command<KvCommand>,
    ) {
        let output = self.apply(cmd);
        ctx.send(NodeId(cmd.client), Envelope::reply(cmd, output));
    }

    /// Executes instances in order from the frontier for as long as `ready`
    /// hands out the next one's command (see [`take_ready`]); `after` runs
    /// once per executed command, the frontier already on its instance.
    pub fn drain<P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        mut ready: impl FnMut(u64) -> Option<Command<KvCommand>>,
        mut after: impl FnMut(&mut Self, &mut Context<Envelope<P>>, &Command<KvCommand>),
    ) {
        while let Some(cmd) = ready(self.executed_upto + 1) {
            self.execute(ctx, &cmd);
            self.executed_upto += 1;
            after(self, ctx, &cmd);
        }
    }

    /// The vote of a replica whose log is one command per position (MinBFT,
    /// XFT): the executed history, then the command `held(n)` at each
    /// instance `n` from the frontier on up to the first gap, each claimed at
    /// its position in `view`.
    pub fn vote<'a>(
        &'a self,
        view: u64,
        held: impl Fn(u64) -> Option<&'a Command<KvCommand>>,
    ) -> Vote {
        let held = (self.executed_upto + 1..).map_while(held);
        let log = self.history.iter().chain(held).zip(1..);
        let claims = log.map(|(cmd, n)| (view, n, vec![cmd.clone()])).collect();
        Vote { floor: 0, claims }
    }

    /// Enters the view installed with `votes` when the log is one command
    /// per position: executes each command of [`new_view`] past the history,
    /// in order, and re-bases the frontier on `base`. A command the dedup
    /// table has seen is answered from it and still recorded, so every
    /// replica's history keeps the log's positions.
    pub fn adopt<P: Payload>(&mut self, ctx: &mut Context<Envelope<P>>, votes: &Votes, base: u64) {
        let next = self.history.len() as u64 + 1;
        for cmd in new_view(votes).range(next..).flat_map(|(_, cmds)| cmds) {
            self.execute(ctx, cmd);
        }
        self.executed_upto = base;
    }

    /// Replays a transferred history: commands the dedup table has not seen
    /// execute (and are answered), the rest are skipped.
    pub fn replay<P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        history: Vec<Command<KvCommand>>,
    ) {
        for cmd in history {
            if self.machine.cached(cmd.client, cmd.seq).is_none() {
                self.execute(ctx, &cmd);
            }
        }
    }
}

/// Timer kind of a replica's progress watchdog.
pub const VIEW_TIMER: u64 = 1;

/// Arms the progress `watchdog` unless it is running: `base_us` plus a
/// per-node stagger.
pub fn watch<M: Payload>(watchdog: &mut LiveTimer, ctx: &mut Context<M>, base_us: u64) {
    let timeout = base_us + 10_000 * u64::from(ctx.id().0);
    watchdog.arm_if_idle(ctx, timeout, VIEW_TIMER);
}

/// A batch a replica holds at a sequence number, carried into a view change:
/// `(view, n, commands)`, certified in `view` — prepared or committed there
/// (PBFT), or in the USIG-ordered log of that view (MinBFT, XFT).
pub type Claim = (u64, u64, Vec<Command<KvCommand>>);

/// What one replica carries into a view change.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Vote {
    /// Its stable checkpoint: what lies at or below it is settled (PBFT;
    /// MinBFT and XFT carry the whole log, from 0).
    pub floor: u64,
    /// What it holds above the floor.
    pub claims: Vec<Claim>,
}

/// The votes a view is installed with, one per voter; its `NewView` carries
/// them.
pub type Votes = BTreeMap<NodeId, Vote>;

/// Counts `vote`'s commands into a message's wire size.
pub fn put_vote(w: &mut impl Sink, vote: &Vote) {
    let cmds = vote.claims.iter().flat_map(|c| &c.2);
    cmds.for_each(|cmd| put_command(w, cmd));
}

/// A protocol's view-change demand, which the [`Voter`] sends.
pub trait Demand: Payload {
    /// The demand for `new_view`, carrying the sender's `vote`.
    fn demand(new_view: u64, vote: Vote) -> Self;
}

/// The new view, computed alike by its primary and every backup from the
/// votes it is installed with: above the highest floor, per sequence number
/// the claim of the highest view, and a null request (no commands) in each
/// gap below the highest claim.
pub fn new_view(votes: &Votes) -> BTreeMap<u64, Vec<Command<KvCommand>>> {
    let floor = votes.values().map(|v| v.floor).max().unwrap_or(0);
    let mut best: BTreeMap<u64, &Claim> = BTreeMap::new();
    for claim in votes.values().flat_map(|v| &v.claims) {
        let held = best.entry(claim.1).or_insert(claim);
        if held.0 < claim.0 {
            *held = claim;
        }
    }
    let top = best.keys().next_back().map_or(floor, |&n| n.max(floor));
    let batch = |n| best.get(&n).map_or_else(Vec::new, |c| c.2.clone());
    (floor + 1..=top).map(|n| (n, batch(n))).collect()
}

/// The view change of PBFT, MinBFT and XFT: the primary of view `v` is
/// `v mod n`; `join` demands for a view make a replica demand it too, with
/// its own vote; its primary installs it at `install` votes and announces
/// them, and every replica computes the view's log from them with
/// [`new_view`]. A replica takes no normal-case message once it has demanded
/// a view past the one it is in.
#[derive(Default)]
pub struct Voter {
    n: usize,
    join: usize,
    install: usize,
    timeout_us: u64,
    span: &'static str,
    /// Current view.
    pub view: u64,
    /// View changes completed.
    pub view_changes: u64,
    votes: BTreeMap<u64, Votes>,
    asked: u64,
    watchdog: LiveTimer,
}

impl Voter {
    /// A voter among `n` replicas with the protocol's `join` and `install`
    /// quorums, whose watchdog runs `timeout_us` (plus the per-node stagger)
    /// and whose spans are labelled `span`.
    pub fn new(n: usize, join: usize, install: usize, timeout_us: u64, span: &'static str) -> Self {
        Voter {
            n,
            join,
            install,
            timeout_us,
            span,
            ..Voter::default()
        }
    }

    /// The primary of view `v`.
    pub fn primary_of(&self, v: u64) -> NodeId {
        NodeId((v % self.n as u64) as u32)
    }

    /// The current primary.
    pub fn primary(&self) -> NodeId {
        self.primary_of(self.view)
    }

    /// Whether normal-case messages of `view` are taken here: it is the
    /// current view, and no later one has been demanded since.
    pub fn serving(&self, view: u64) -> bool {
        view == self.view && self.asked <= self.view
    }

    /// Starts the watchdog unless it is running. Its period grows with the
    /// views demanded past the current one, so cascading view changes
    /// eventually find a live primary.
    pub fn arm<M: Payload>(&mut self, ctx: &mut Context<M>) {
        let escalation = self.asked.saturating_sub(self.view).min(4);
        watch(&mut self.watchdog, ctx, self.timeout_us * (1 + escalation));
    }

    /// Progress: restarts the watchdog while work is `pending`, stops it
    /// otherwise.
    pub fn progress<M: Payload>(&mut self, ctx: &mut Context<M>, pending: bool) {
        self.watchdog.cancel(ctx);
        if pending {
            self.arm(ctx);
        }
    }

    /// Demands `new_view` with this replica's `vote`, then installs it if it
    /// is this replica's and the votes suffice.
    fn demand<P: Demand>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        new_view: u64,
        next: u64,
        vote: Vote,
    ) -> Option<Votes> {
        let me = ctx.id();
        ctx.phase(self.span, next, new_view, CncPhase::LeaderElection);
        self.asked = new_view;
        let demand = P::demand(new_view, vote.clone());
        ctx.send_many(peers(self.n, me), demand.into());
        self.votes.entry(new_view).or_default().insert(me, vote);
        self.try_install(ctx, new_view)
    }

    fn try_install<M: Payload>(&mut self, ctx: &mut Context<M>, v: u64) -> Option<Votes> {
        let votes = self.votes.get(&v)?;
        if votes.len() < self.install || self.primary_of(v) != ctx.id() {
            return None;
        }
        let votes = votes.clone();
        self.enter(ctx, v);
        Some(votes)
    }

    fn enter<M: Payload>(&mut self, ctx: &mut Context<M>, v: u64) {
        self.view = v;
        self.asked = v;
        self.view_changes += 1;
        self.votes.retain(|&w, _| w > v);
        self.watchdog.cancel(ctx);
    }

    /// `from` demands `new_view` with `vote`. A demand for a view not past
    /// ours is ignored; at `join` demands this replica demands the view too,
    /// once, with `mine()`, its vote (`next` is the instance its span names).
    /// Returns the votes when they install the view here, as its primary: the
    /// caller enters [`new_view`] of them and announces them.
    pub fn on_view_change<P: Demand>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        from: NodeId,
        new_view: u64,
        vote: Vote,
        next: u64,
        mine: impl FnOnce() -> Vote,
    ) -> Option<Votes> {
        if new_view <= self.view {
            return None;
        }
        let votes = self.votes.entry(new_view).or_default();
        votes.insert(from, vote);
        if self.asked < new_view && votes.len() >= self.join {
            return self.demand(ctx, new_view, next, mine());
        }
        self.try_install(ctx, new_view)
    }

    /// `from` announces `view` installed with `votes`. Returns whether it is
    /// that view's primary, the view is past ours and the votes suffice — the
    /// view is then installed here, and the caller enters [`new_view`] of
    /// them.
    pub fn on_new_view<M: Payload>(
        &mut self,
        ctx: &mut Context<M>,
        from: NodeId,
        view: u64,
        votes: &Votes,
    ) -> bool {
        let install = view > self.view && from == self.primary_of(view);
        let install = install && votes.len() >= self.install;
        if install {
            self.enter(ctx, view);
        }
        install
    }

    /// The watchdog fired. A `stalled` replica demands the first view nobody
    /// has been asked for yet, with `mine()`, and keeps watching; it returns
    /// what [`Voter::on_view_change`] does.
    pub fn on_timeout<P: Demand>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        stalled: bool,
        next: u64,
        mine: impl FnOnce() -> Vote,
    ) -> Option<Votes> {
        self.watchdog.fired();
        if !stalled {
            return None;
        }
        let new_view = self.view.max(self.asked) + 1;
        let installed = self.demand(ctx, new_view, next, mine());
        self.arm(ctx);
        installed
    }
}

/// Unit-test harness: one client under test among silent replicas.
#[cfg(test)]
pub(crate) mod testkit {
    use consensus_core::workload::KvMix;
    use consensus_core::{Session, WorkloadMode};
    use simnet::{Context, NetConfig, Node, NodeId, Sim, Timer};

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
        let session = Session::new(n as u32, total, KvMix::default(), 1, mode);
        sim_of(n, build(session))
    }

    /// `n` silent nodes plus `node` under test (the last), on a fixed 500 µs
    /// network.
    pub fn sim_of<C: Node>(n: usize, node: C) -> Sim<Harness<C>> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        for _ in 0..n {
            sim.add_node(Harness::Silent(Vec::new()));
        }
        sim.add_node(Harness::Client(node));
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
    use super::testkit::{received, sim, Harness};
    use super::*;
    use consensus_core::{Client, ClientMsg, Quorum, Session, Silence, Target, WorkloadMode};
    use simnet::{Sim, Time};

    /// A protocol's one peer message: the alarm a retry may raise.
    #[derive(Clone, Debug, PartialEq)]
    struct Alarm;

    impl Payload for Alarm {}

    const RETRY_US: u64 = 50_000;
    const N: usize = 4;

    /// The BFT client: first attempts to `primary`, `alarm` and a broadcast
    /// on silence, accepted at two matching replies.
    fn voting(s: Session, primary: u32, alarm: Option<Alarm>) -> Client<Alarm> {
        let target = Target::Primary(NodeId(primary));
        Client::new(
            s,
            N,
            target,
            Silence::Broadcast(RETRY_US, alarm),
            Quorum::of(2),
        )
    }

    /// What a silent replica saw: a request by sequence number, or an alarm.
    #[derive(Clone, Debug, PartialEq)]
    enum Stub {
        Request(u64),
        Alarm,
    }

    /// `(arrival µs, what)` for everything replica `r` received.
    fn got(sim: &Sim<Harness<Client<Alarm>>>, r: usize) -> Vec<(u64, Stub)> {
        let what = |msg: &Envelope<Alarm>| match msg {
            Envelope::Client(ClientMsg::Request(cmd)) => Stub::Request(cmd.seq),
            Envelope::Peer(_) => Stub::Alarm,
            Envelope::Client(other) => panic!("a client sent {other:?}"),
        };
        let got = received(sim, r).iter();
        got.map(|(at, msg)| (*at, what(msg))).collect()
    }

    #[test]
    fn first_attempt_goes_to_the_primary_only() {
        let mut sim = sim(N, 1, WorkloadMode::Closed, |s| voting(s, 2, None));
        sim.run_until(Time(10_000));
        assert_eq!(got(&sim, 2), [(500, Stub::Request(0))]);
        assert!(received(&sim, 0).is_empty());
    }

    #[test]
    fn retry_broadcasts_every_outstanding_command_to_all_replicas() {
        // Open loop: three commands outstanding when the first retry fires.
        let open = WorkloadMode::Open { interval_us: 1_000 };
        let mut sim = sim(N, 3, open, |s| voting(s, 0, None));
        sim.run_until(Time(RETRY_US + 600));
        let requests = [Stub::Request(0), Stub::Request(1), Stub::Request(2)];
        for r in 1..N {
            let got: Vec<Stub> = got(&sim, r).into_iter().map(|(_, m)| m).collect();
            assert_eq!(got, requests, "replica {r}");
        }
        assert_eq!(received(&sim, 0).len(), 6, "first attempts plus the retry");
    }

    #[test]
    fn retry_sends_the_alarm_ahead_of_the_requests_when_the_protocol_has_one() {
        let mut sim = sim(N, 1, WorkloadMode::Closed, |s| voting(s, 0, Some(Alarm)));
        sim.run_until(Time(RETRY_US + 600));
        for r in 1..N {
            let got: Vec<Stub> = got(&sim, r).into_iter().map(|(_, m)| m).collect();
            assert_eq!(got, [Stub::Alarm, Stub::Request(0)], "replica {r}");
        }
    }

    #[test]
    fn open_loop_stops_arming_the_issue_timer_at_total() {
        let open = WorkloadMode::Open { interval_us: 1_000 };
        let mut sim = sim(N, 3, open, |s| voting(s, 0, None));
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
        let mut exec = Executor::default();
        for cmd in &cmds {
            exec.apply(cmd);
        }
        let mut harvest = consensus_core::Harvest::default();
        harvest.commands(2, exec.history());
        let out = harvest.into_entries();
        for (i, e) in out.iter().enumerate() {
            let i = i as u64;
            assert_eq!((e.node, e.index, e.origin), (2, i, Some((9, i))));
            assert_eq!(*e.op, format!("{:?}", cmds[i as usize]));
        }
        assert_eq!(out.len(), 3);
    }
}

#[cfg(test)]
mod replica_tests {
    use super::testkit::{client, received, sim_of, Harness};
    use super::*;
    use consensus_core::{ClientMsg, StateMachine as _};
    use simnet::{Node, Sim, Time, Timer};

    /// Everything a replica under test can be told, or send: a request and a
    /// reply travel as [`ClientMsg`]s, the rest as this rig's peer messages.
    #[derive(Clone, Debug, PartialEq)]
    enum Wire {
        Request(Command<KvCommand>),
        Reply(u64),
        /// Instance `n` is decided with this command.
        Decide(u64, Command<KvCommand>),
        History(Vec<Command<KvCommand>>),
        ViewChange(u64, Vote),
        NewView(u64, Votes),
        /// Progress was made; are relayed requests still pending?
        Progress(bool),
    }

    impl Payload for Wire {}

    impl Demand for Wire {
        fn demand(new_view: u64, vote: Vote) -> Self {
            Wire::ViewChange(new_view, vote)
        }
    }

    impl Wire {
        /// On the wire: a request as the client message it is.
        fn send(self) -> Envelope<Wire> {
            match self {
                Wire::Request(cmd) => Envelope::Client(ClientMsg::Request(cmd)),
                peer => Envelope::Peer(peer),
            }
        }

        /// Off the wire: a request or a reply as its script step.
        fn seen(msg: &Envelope<Wire>) -> Wire {
            match msg {
                Envelope::Client(ClientMsg::Request(cmd)) => Wire::Request(cmd.clone()),
                Envelope::Client(ClientMsg::Reply { seq, .. }) => Wire::Reply(*seq),
                Envelope::Peer(peer) => peer.clone(),
                Envelope::Client(other) => panic!("the rig never sends {other:?}"),
            }
        }
    }

    const N: usize = 4;
    /// The replica under test: node 4 of 5, so primary of views 4, 9, ….
    const RIG: NodeId = NodeId(N as u32);
    const TIMEOUT_US: u64 = 20_000;

    /// The smallest replica the shared pieces can run in: it orders nothing
    /// itself — instances arrive decided — and records what the executor and
    /// the voter answered. It joins a view at two demands and installs it at
    /// three votes.
    struct Rig {
        primary: NodeId,
        exec: Executor,
        voter: Voter,
        instances: BTreeMap<u64, (Option<Command<KvCommand>>, bool)>,
        admissions: Vec<Admission>,
        executed: Vec<u64>,
        installed: Vec<bool>,
        stalled: bool,
    }

    impl Rig {
        fn new(primary: NodeId) -> Self {
            Rig {
                primary,
                exec: Executor::default(),
                voter: Voter::new(N + 1, 2, 3, TIMEOUT_US, "rig"),
                instances: BTreeMap::new(),
                admissions: Vec::new(),
                executed: Vec::new(),
                installed: Vec::new(),
                stalled: true,
            }
        }
    }

    impl Node for Rig {
        type Msg = Envelope<Wire>;

        fn on_start(&mut self, _ctx: &mut Context<Envelope<Wire>>) {}

        fn on_message(&mut self, ctx: &mut Context<Envelope<Wire>>, from: NodeId, msg: Self::Msg) {
            match Wire::seen(&msg) {
                Wire::Request(cmd) => {
                    let ordered = self.instances.values().filter(|(_, executed)| !executed);
                    let ordered = ordered.filter_map(|(c, _)| c.as_ref());
                    let admission = self.exec.admit(ctx, &cmd, self.primary, ordered);
                    match admission {
                        Admission::Order => {
                            let n = self.instances.len() as u64 + 1;
                            self.instances.insert(n, (Some(cmd), false));
                        }
                        Admission::Relayed => self.voter.arm(ctx),
                        Admission::Handled => {}
                    }
                    self.admissions.push(admission);
                }
                Wire::Decide(n, cmd) => {
                    self.instances.insert(n, (Some(cmd), false));
                    let (instances, executed) = (&mut self.instances, &mut self.executed);
                    self.exec.drain(
                        ctx,
                        |n| {
                            let (cmd, done) = instances.get_mut(&n)?;
                            take_ready(cmd, true, done)
                        },
                        |exec, _, _| executed.push(exec.executed_upto),
                    );
                }
                Wire::History(history) => self.exec.replay(ctx, history),
                Wire::ViewChange(v, vote) => {
                    let (instances, view) = (&self.instances, self.voter.view);
                    let mine = || self.exec.vote(view, |n| instances.get(&n)?.0.as_ref());
                    let next = self.exec.executed_upto + 1;
                    let installed = self.voter.on_view_change(ctx, from, v, vote, next, mine);
                    self.installed.push(installed.is_some());
                }
                Wire::NewView(v, votes) => {
                    let installed = self.voter.on_new_view(ctx, from, v, &votes);
                    self.installed.push(installed);
                }
                Wire::Progress(pending) => self.voter.progress(ctx, pending),
                Wire::Reply(_) => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Envelope<Wire>>, timer: Timer) {
            assert_eq!(timer.kind, VIEW_TIMER);
            let next = self.exec.executed_upto + 1;
            let installed = self
                .voter
                .on_timeout(ctx, self.stalled, next, Vote::default);
            assert!(installed.is_none());
        }
    }

    /// A put by client 0 (a silent node, so its replies are recorded).
    fn put(seq: u64) -> Command<KvCommand> {
        let (key, value) = (format!("k{seq}").into(), format!("v{seq}").into());
        let op = KvCommand::Put { key, value };
        Command { client: 0, seq, op }
    }

    /// Delivers `msgs` to the rig from node 1, one per millisecond, and runs
    /// past the last.
    fn tell(sim: &mut Sim<Harness<Rig>>, msgs: impl IntoIterator<Item = Wire>) {
        tell_from(sim, msgs.into_iter().map(|msg| (1, msg)));
    }

    /// [`tell`], each message from the node it names.
    fn tell_from(sim: &mut Sim<Harness<Rig>>, msgs: impl IntoIterator<Item = (u32, Wire)>) {
        let start = sim.now().0;
        let mut at = start;
        for (from, msg) in msgs {
            at += 1_000;
            sim.inject(NodeId(from), RIG, msg.send(), Time(at));
        }
        sim.run_until(Time(at + 900));
    }

    /// The views the rig demanded, as replica 3 saw them.
    fn demands(sim: &Sim<Harness<Rig>>) -> Vec<u64> {
        let demanded = got(sim, 3).into_iter().map(|msg| match msg {
            Wire::ViewChange(v, _) => v,
            other => panic!("the rig sent replica 3 {other:?}"),
        });
        demanded.collect()
    }

    /// A demand for `v` carrying an empty vote.
    fn demand(v: u64) -> Wire {
        Wire::ViewChange(v, Vote::default())
    }

    /// An announcement of `v` installed with votes from `voters`.
    fn announce(v: u64, voters: impl IntoIterator<Item = u32>) -> Wire {
        let votes = voters.into_iter().map(|id| (NodeId(id), Vote::default()));
        Wire::NewView(v, votes.collect())
    }

    fn got(sim: &Sim<Harness<Rig>>, r: usize) -> Vec<Wire> {
        received(sim, r)
            .iter()
            .map(|(_, m)| Wire::seen(m))
            .collect()
    }

    #[test]
    fn an_executed_request_is_answered_from_the_cache_without_a_second_record() {
        let mut sim = sim_of(N, Rig::new(RIG));
        tell(
            &mut sim,
            [
                Wire::Decide(1, put(0)),
                Wire::Request(put(0)),
                Wire::Request(put(0)),
            ],
        );
        let rig = client(&sim);
        assert_eq!(rig.admissions, [Admission::Handled, Admission::Handled]);
        assert_eq!(
            got(&sim, 0),
            [Wire::Reply(0), Wire::Reply(0), Wire::Reply(0)]
        );
        assert_eq!(rig.exec.history(), [put(0)]);
        assert_eq!(rig.exec.machine().kv().applied(), 1);
    }

    #[test]
    fn an_ordered_but_unexecuted_duplicate_is_swallowed() {
        let mut sim = sim_of(N, Rig::new(RIG));
        tell(&mut sim, [Wire::Request(put(0)), Wire::Request(put(0))]);
        let rig = client(&sim);
        assert_eq!(rig.admissions, [Admission::Order, Admission::Handled]);
        assert_eq!(rig.instances.len(), 1);
        assert!(
            (0..N).all(|r| received(&sim, r).is_empty()),
            "no reply, no relay"
        );
    }

    #[test]
    fn a_backup_relays_a_new_request_to_the_primary_and_watches_it() {
        let mut sim = sim_of(N, Rig::new(NodeId(2)));
        tell(&mut sim, [Wire::Request(put(0)), Wire::Request(put(0))]);
        let rig = client(&sim);
        assert_eq!(rig.admissions, [Admission::Relayed, Admission::Relayed]);
        assert!(rig.exec.has_pending());
        assert_eq!(got(&sim, 2), [Wire::Request(put(0)), Wire::Request(put(0))]);
        // Executing it clears the watch.
        tell(&mut sim, [Wire::Decide(1, put(0))]);
        assert!(!client(&sim).exec.has_pending());
    }

    #[test]
    fn instances_decided_out_of_order_execute_in_order_and_stop_at_a_gap() {
        let mut sim = sim_of(N, Rig::new(RIG));
        tell(&mut sim, [Wire::Decide(2, put(1)), Wire::Decide(3, put(2))]);
        assert!(client(&sim).executed.is_empty(), "instance 1 is missing");
        tell(&mut sim, [Wire::Decide(1, put(0)), Wire::Decide(5, put(4))]);
        let rig = client(&sim);
        assert_eq!(rig.executed, [1, 2, 3], "instance 4 is missing");
        assert_eq!(rig.exec.executed_upto, 3);
        assert_eq!(rig.exec.history(), [put(0), put(1), put(2)]);
        assert_eq!(
            got(&sim, 0),
            [Wire::Reply(0), Wire::Reply(1), Wire::Reply(2)]
        );
    }

    #[test]
    fn replaying_an_overlapping_history_applies_only_the_missing_suffix() {
        let history: Vec<_> = (0..4).map(put).collect();
        let mut lagging = sim_of(N, Rig::new(RIG));
        tell(
            &mut lagging,
            [
                Wire::Decide(1, put(0)),
                Wire::Decide(2, put(1)),
                Wire::History(history.clone()),
            ],
        );
        let mut fresh = sim_of(N, Rig::new(RIG));
        tell(&mut fresh, [Wire::History(history.clone())]);
        let (lagging, fresh) = (client(&lagging), client(&fresh));
        assert_eq!(lagging.exec.history(), history);
        assert_eq!(lagging.exec.machine().kv().applied(), 4);
        assert_eq!(
            lagging.exec.machine().digest(),
            fresh.exec.machine().digest()
        );
        assert_eq!(
            lagging.exec.executed_upto, 2,
            "replay leaves re-basing to the caller"
        );
    }

    #[test]
    fn view_change_decision_table() {
        let mut sim = sim_of(N, Rig::new(RIG));
        tell(&mut sim, [Wire::Decide(1, put(0))]);
        // A demand for a view at or below ours is ignored.
        tell(&mut sim, [demand(0)]);
        assert!(demands(&sim).is_empty());
        // One voter demanding view 2, twice, is short of the join quorum.
        tell(&mut sim, [demand(2), demand(2)]);
        assert!(demands(&sim).is_empty());
        // A second voter makes the rig demand it too — once, with its log.
        tell_from(&mut sim, [(2, demand(2)), (3, demand(2))]);
        assert_eq!(demands(&sim), [2]);
        let mine = Vote {
            floor: 0,
            claims: vec![(0, 1, vec![put(0)])],
        };
        assert_eq!(got(&sim, 3), [Wire::ViewChange(2, mine)]);
        // Four votes for view 2, but node 2 is its primary; having demanded
        // it, the rig takes no more messages of view 0.
        let rig = client(&sim);
        assert_eq!(rig.installed, [false; 5]);
        assert_eq!(rig.voter.view, 0);
        assert!(!rig.voter.serving(0));
        // View 4 is the rig's: two demands and its own vote install it here.
        tell_from(&mut sim, [(1, demand(4)), (2, demand(4))]);
        let rig = client(&sim);
        assert_eq!(rig.installed[5..], [false, true]);
        assert_eq!((rig.voter.view, rig.voter.view_changes), (4, 1));
        assert_eq!(rig.voter.primary(), RIG);
        assert!(rig.voter.serving(4));
        // Only a view's primary can announce it, never an older view, and
        // only with an install quorum of votes.
        tell(
            &mut sim,
            [
                announce(5, [0, 1, 2]),
                announce(3, [0, 1, 2]),
                announce(11, [0, 1]),
                announce(6, [0, 1, 2]),
            ],
        );
        let rig = client(&sim);
        assert_eq!(
            rig.installed[7..],
            [false, false, false, true],
            "sent by node 1"
        );
        assert_eq!((rig.voter.view, rig.voter.view_changes), (6, 2));
    }

    #[test]
    fn a_new_view_keeps_every_held_batch_and_fills_gaps_with_null_requests() {
        let batch = |seqs: &[u64]| seqs.iter().copied().map(put).collect::<Vec<_>>();
        // Node 0 executed batch 3 in view 1 (its checkpoint is at 2); node
        // 1, behind, still holds the batch view 0 prepared there; node 2
        // prepared batch 6 in view 1 and nothing between.
        let votes = Votes::from([
            (
                NodeId(0),
                Vote {
                    floor: 2,
                    claims: vec![(1, 3, batch(&[3, 4]))],
                },
            ),
            (
                NodeId(1),
                Vote {
                    floor: 0,
                    claims: vec![(0, 1, batch(&[0])), (0, 3, batch(&[9]))],
                },
            ),
            (
                NodeId(2),
                Vote {
                    floor: 0,
                    claims: vec![(1, 6, batch(&[6]))],
                },
            ),
        ]);
        let log: Vec<(u64, Vec<Command<KvCommand>>)> = new_view(&votes).into_iter().collect();
        assert_eq!(
            log,
            [
                (3, batch(&[3, 4])),
                (4, vec![]),
                (5, vec![]),
                (6, batch(&[6]))
            ],
            "above the highest checkpoint, the highest view's batch, nulls in the gaps"
        );
        // Nothing claimed above the checkpoint: the view starts empty there.
        let settled = Votes::from([(
            NodeId(0),
            Vote {
                floor: 4,
                claims: vec![],
            },
        )]);
        assert!(new_view(&settled).is_empty());
    }

    #[test]
    fn a_stalled_timeout_demands_the_next_unasked_view_and_keeps_watching() {
        let mut sim = sim_of(N, Rig::new(NodeId(2)));
        // Joining view 3 makes it the highest view asked for; the relayed
        // request starts the watchdog, whose period grows with the views
        // asked past the current one.
        tell_from(&mut sim, [(1, demand(3)), (2, demand(3))]);
        let arrival = sim.now().0 + 1_000;
        tell(&mut sim, [Wire::Request(put(0))]);
        let period = |asked: u64| TIMEOUT_US * (1 + asked) + 10_000 * u64::from(RIG.0);
        let second = arrival + period(3) + period(4);
        sim.run_until(Time(second + 900));
        assert_eq!(demands(&sim), [3, 4, 5]);
        // Not stalled: the next timeout demands nothing and stops watching.
        match sim.node_mut(RIG) {
            Harness::Client(rig) => rig.stalled = false,
            Harness::Silent(_) => unreachable!(),
        }
        sim.run_until(Time(second + 3 * period(4)));
        assert_eq!(demands(&sim), [3, 4, 5]);
        assert_eq!(sim.metrics().timer_fires, 3);
    }

    #[test]
    fn progress_restarts_the_watchdog_only_while_requests_are_pending() {
        let timeout = TIMEOUT_US + 10_000 * u64::from(RIG.0);
        for (pending, fires) in [(false, 0), (true, 1)] {
            let mut sim = sim_of(N, Rig::new(NodeId(2)));
            tell(&mut sim, [Wire::Request(put(0)), Wire::Progress(pending)]);
            // The request's own timer was due at 1 ms + timeout; progress at
            // 2 ms cancelled it and, if pending, started a new one.
            sim.run_until(Time(1_500 + timeout));
            assert_eq!(sim.metrics().timer_fires, 0, "pending={pending}");
            sim.run_until(Time(2_500 + timeout));
            assert_eq!(sim.metrics().timer_fires, fires, "pending={pending}");
        }
    }
}
