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
//! execute step, the in-order drain and history replay. A [`Voter`] owns the
//! view, the view-change votes and the progress watchdog (a
//! [`simnet::LiveTimer`] armed through [`watch`]), and makes the vote /
//! join-once / install decisions MinBFT and XFT share (PBFT's votes carry
//! prepared claims, so it keeps them and borrows the watchdog only).

use std::collections::{BTreeMap, BTreeSet};

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

/// View-change voting as MinBFT and XFT do it: the primary of view `v` is
/// `v mod n`, any single demand makes a replica join, and `quorum` demands
/// install the view at its primary.
pub struct Voter {
    n: usize,
    quorum: usize,
    timeout_us: u64,
    span: &'static str,
    /// Current view.
    pub view: u64,
    /// View changes completed.
    pub view_changes: u64,
    vc_votes: BTreeMap<u64, BTreeSet<NodeId>>,
    max_vc_sent: u64,
    watchdog: LiveTimer,
}

impl Voter {
    /// A voter among `n` replicas whose watchdog runs `timeout_us` (plus the
    /// per-node stagger) and whose spans are labelled `span`.
    pub fn new(n: usize, quorum: usize, timeout_us: u64, span: &'static str) -> Self {
        Voter {
            n,
            quorum,
            timeout_us,
            span,
            view: 0,
            view_changes: 0,
            vc_votes: BTreeMap::new(),
            max_vc_sent: 0,
            watchdog: LiveTimer::default(),
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

    /// Starts the watchdog unless it is running.
    pub fn arm<M: Payload>(&mut self, ctx: &mut Context<M>) {
        watch(&mut self.watchdog, ctx, self.timeout_us);
    }

    /// Progress: restarts the watchdog while relayed requests are `pending`,
    /// stops it otherwise.
    pub fn progress<M: Payload>(&mut self, ctx: &mut Context<M>, pending: bool) {
        self.watchdog.cancel(ctx);
        if pending {
            self.arm(ctx);
        }
    }

    fn demand<P: Payload>(&mut self, ctx: &mut Context<Envelope<P>>, new_view: u64, demand: P) {
        let me = ctx.id();
        self.max_vc_sent = new_view;
        self.vc_votes.entry(new_view).or_default().insert(me);
        ctx.send_many(peers(self.n, me), demand.into());
    }

    /// `from` demands `new_view` (`demand` is that message, to pass on). A
    /// stale demand is ignored; the first one for a view makes this replica
    /// join it, once. Returns `true` when a quorum demands a view this
    /// replica is primary of — the view is then installed here, and the
    /// caller re-bases its instances (the next of which is `next`) and
    /// announces it.
    pub fn on_view_change<P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        from: NodeId,
        new_view: u64,
        next: u64,
        demand: P,
    ) -> bool {
        if new_view <= self.view {
            return false;
        }
        self.vc_votes.entry(new_view).or_default().insert(from);
        if self.max_vc_sent < new_view {
            ctx.phase(self.span, next, new_view, CncPhase::LeaderElection);
            self.demand(ctx, new_view, demand);
        }
        let install =
            self.vc_votes[&new_view].len() >= self.quorum && self.primary_of(new_view) == ctx.id();
        if install {
            self.view = new_view;
            self.view_changes += 1;
            self.watchdog.cancel(ctx);
        }
        install
    }

    /// `from` announces `view`. Returns whether it is that view's primary and
    /// the view is not behind ours — it is then installed here.
    pub fn on_new_view(&mut self, from: NodeId, view: u64) -> bool {
        let install = view >= self.view && from == self.primary_of(view);
        if install {
            self.view = view;
            self.view_changes += 1;
        }
        install
    }

    /// The watchdog fired. A `stalled` replica demands (with `demand(v)`) the
    /// first view nobody has been asked for yet and keeps watching.
    pub fn on_timeout<P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        stalled: bool,
        demand: impl FnOnce(u64) -> P,
    ) {
        self.watchdog.fired();
        if stalled {
            let new_view = self.view.max(self.max_vc_sent) + 1;
            self.demand(ctx, new_view, demand(new_view));
            self.arm(ctx);
        }
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
        ViewChange(u64),
        NewView(u64),
        /// Progress was made; are relayed requests still pending?
        Progress(bool),
    }

    impl Payload for Wire {}

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
    /// the voter answered.
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
                voter: Voter::new(N + 1, 2, TIMEOUT_US, "rig"),
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
                Wire::ViewChange(v) => {
                    let next = self.exec.executed_upto + 1;
                    let demand = Wire::ViewChange(v);
                    let installed = self.voter.on_view_change(ctx, from, v, next, demand);
                    self.installed.push(installed);
                }
                Wire::NewView(v) => self.installed.push(self.voter.on_new_view(from, v)),
                Wire::Progress(pending) => self.voter.progress(ctx, pending),
                Wire::Reply(_) => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Envelope<Wire>>, timer: Timer) {
            assert_eq!(timer.kind, VIEW_TIMER);
            self.voter.on_timeout(ctx, self.stalled, Wire::ViewChange);
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
        let start = sim.now().0;
        let mut at = start;
        for msg in msgs {
            at += 1_000;
            sim.inject(NodeId(1), RIG, msg.send(), Time(at));
        }
        sim.run_until(Time(at + 900));
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
        let demands = |sim: &Sim<Harness<Rig>>| got(sim, 3);
        // A demand for a view at or below ours is ignored.
        tell(&mut sim, [Wire::ViewChange(0)]);
        assert!(demands(&sim).is_empty());
        // The first demand for view 2 makes the rig join — once.
        tell(&mut sim, [Wire::ViewChange(2), Wire::ViewChange(2)]);
        assert_eq!(demands(&sim), [Wire::ViewChange(2)]);
        // Votes {1, rig} reach the quorum of 2, but node 2 is view 2's primary.
        assert_eq!(client(&sim).installed, [false, false, false]);
        assert_eq!(client(&sim).voter.view, 0);
        // View 4 is the rig's: the same quorum installs it here.
        tell(&mut sim, [Wire::ViewChange(4)]);
        let rig = client(&sim);
        assert_eq!(rig.installed.last(), Some(&true));
        assert_eq!((rig.voter.view, rig.voter.view_changes), (4, 1));
        assert_eq!(rig.voter.primary(), RIG);
        // Only a view's primary can announce it, and never an older view.
        tell(
            &mut sim,
            [Wire::NewView(5), Wire::NewView(3), Wire::NewView(6)],
        );
        let rig = client(&sim);
        assert_eq!(rig.installed[4..], [false, false, true], "sent by node 1");
        assert_eq!((rig.voter.view, rig.voter.view_changes), (6, 2));
    }

    #[test]
    fn a_stalled_timeout_demands_the_next_unasked_view_and_keeps_watching() {
        let mut sim = sim_of(N, Rig::new(NodeId(2)));
        // Joining view 3 makes it the highest view asked for; the relayed
        // request starts the watchdog.
        tell(&mut sim, [Wire::ViewChange(3), Wire::Request(put(0))]);
        let timeout = TIMEOUT_US + 10_000 * u64::from(RIG.0);
        sim.run_until(Time(2_000 + 2 * timeout + 900));
        let demands: Vec<Wire> = got(&sim, 3);
        assert_eq!(
            demands,
            [
                Wire::ViewChange(3),
                Wire::ViewChange(4),
                Wire::ViewChange(5)
            ]
        );
        // Not stalled: the next timeout demands nothing and stops watching.
        match sim.node_mut(RIG) {
            Harness::Client(rig) => rig.stalled = false,
            Harness::Silent(_) => unreachable!(),
        }
        sim.run_until(Time(2_000 + 5 * timeout));
        assert_eq!(got(&sim, 3).len(), 3);
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
