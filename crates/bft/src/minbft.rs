//! MinBFT (Veronese et al.): BFT with a trusted monotonic counter.
//!
//! The USIG (Unique Sequential Identifier Generator) is a tamper-proof
//! component every replica owns. All messages are attested by it, so *a
//! Byzantine node may decide not to send a message or send it corrupted,
//! but it cannot send two different messages to different replicas* bearing
//! the same identifier — equivocation is impossible by construction. That
//! single property halves the replica bound (`2f+1` instead of `3f+1`) and
//! removes a phase: per the tutorial, MinBFT *requires the same number of
//! replicas, communication phases and message complexity as Paxos* — two
//! phases (prepare, commit) with leader-centric `O(N)` traffic, plus an
//! asynchronous decide.
//!
//! The primary's USIG counter doubles as the sequence number, which is why
//! no explicit ordering agreement is needed: counters are unique,
//! sequential, and unforgeable.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::{
    Cluster, Command, DedupKvMachine, KvCommand, KvResponse, Session, SmrProtocol,
};
use simnet::{CncPhase, Context, Node, NodeId, Timer, TimerId};

/// Span protocol label; instances are USIG counters, rounds are views.
const SPAN: &str = "minbft";

use crate::shell::{decided_commands, VoteWire, VotingClient};
use crate::sim_crypto::{digest_of, Usig, UsigCert, UsigVerifier};

/// MinBFT wire messages.
#[derive(Clone, Debug)]
pub enum MinMsg {
    /// Client request.
    Request {
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Reply to the client (`f+1` matching required).
    Reply {
        /// Client id.
        client: u32,
        /// Client sequence.
        seq: u64,
        /// Output.
        output: KvResponse,
    },
    /// Primary's USIG-attested ordering: the counter *is* the sequence
    /// number (within the view).
    Prepare {
        /// View.
        view: u64,
        /// USIG attestation by the primary.
        ui: UsigCert,
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Backup's USIG-attested endorsement, sent to the primary.
    Commit {
        /// View.
        view: u64,
        /// The prepared counter being endorsed.
        n: u64,
        /// Backup's own USIG attestation.
        ui: UsigCert,
    },
    /// Primary's (asynchronous) decision notification.
    Decide {
        /// View.
        view: u64,
        /// The committed counter.
        n: u64,
    },
    /// View-change demand.
    ViewChange {
        /// Proposed view.
        new_view: u64,
    },
    /// New primary installation with state transfer: the executed history
    /// lets lagging backups catch up (the dedup client table makes replay
    /// idempotent), and `counter_base` attests where the new primary's
    /// USIG counter stands, so verifiers fast-forward.
    NewView {
        /// The view.
        view: u64,
        /// The new primary's current USIG counter.
        counter_base: u64,
        /// Commands the new primary has executed, in order.
        history: Vec<Command<KvCommand>>,
    },
}

impl simnet::Payload for MinMsg {
    fn kind(&self) -> &'static str {
        match self {
            MinMsg::Request { .. } => "request",
            MinMsg::Reply { .. } => "reply",
            MinMsg::Prepare { .. } => "prepare",
            MinMsg::Commit { .. } => "commit",
            MinMsg::Decide { .. } => "decide",
            MinMsg::ViewChange { .. } => "view-change",
            MinMsg::NewView { .. } => "new-view",
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            MinMsg::NewView { history, .. } => 32 + history.len() * 64,
            _ => 72,
        }
    }
}

#[derive(Debug, Default)]
struct MinInstance {
    cmd: Option<Command<KvCommand>>,
    commits: BTreeSet<NodeId>,
    decided: bool,
    executed: bool,
}

const VIEW_TIMER: u64 = 1;

/// A MinBFT replica (cluster size `2f+1`).
pub struct MinReplica {
    n_replicas: usize,
    /// Fault bound `f = ⌊(n−1)/2⌋`.
    pub f: usize,
    /// Current view.
    pub view: u64,
    usig: Usig,
    verifier: UsigVerifier,
    /// Instances of the current view, keyed by primary counter.
    instances: BTreeMap<u64, MinInstance>,
    /// Counter value at which the current view started (primary's first
    /// prepare of the view is `view_base + 1`).
    view_base: u64,
    /// Executed command history (also the state-transfer payload).
    history: Vec<Command<KvCommand>>,
    /// Highest executed counter in the current view.
    executed_counter: u64,
    machine: DedupKvMachine,
    pending_requests: BTreeSet<(u32, u64)>,
    view_timer: Option<TimerId>,
    vc_votes: BTreeMap<u64, BTreeSet<NodeId>>,
    max_vc_sent: u64,
    /// Completed view changes.
    pub view_changes: u64,
}

impl MinReplica {
    /// Creates a replica; cluster size must be `2f+1`. Its USIG is bound to
    /// the node id when the node starts.
    pub fn new(n_replicas: usize) -> Self {
        MinReplica {
            n_replicas,
            f: (n_replicas - 1) / 2,
            view: 0,
            usig: Usig::new(NodeId(0)),
            verifier: UsigVerifier::new(),
            instances: BTreeMap::new(),
            view_base: 0,
            history: Vec::new(),
            executed_counter: 0,
            machine: DedupKvMachine::default(),
            pending_requests: BTreeSet::new(),
            view_timer: None,
            vc_votes: BTreeMap::new(),
            max_vc_sent: 0,
            view_changes: 0,
        }
    }

    /// The machine.
    pub fn machine(&self) -> &DedupKvMachine {
        &self.machine
    }

    /// Executed commands so far.
    pub fn executed(&self) -> usize {
        self.history.len()
    }

    /// The primary of view `v`.
    pub fn primary_of(&self, v: u64) -> NodeId {
        NodeId((v % self.n_replicas as u64) as u32)
    }

    fn quorum(&self) -> usize {
        self.f + 1
    }

    fn peer_replicas(&self, me: NodeId) -> Vec<NodeId> {
        (0..self.n_replicas)
            .map(NodeId::from)
            .filter(|id| *id != me)
            .collect()
    }

    fn arm_view_timer(&mut self, ctx: &mut Context<MinMsg>) {
        if self.view_timer.is_none() {
            let timeout = 50_000 + 10_000 * u64::from(ctx.id().0);
            self.view_timer = Some(ctx.set_timer(timeout, VIEW_TIMER));
        }
    }

    fn disarm_view_timer(&mut self, ctx: &mut Context<MinMsg>) {
        if let Some(t) = self.view_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<MinMsg>) {
        loop {
            let next = self.executed_counter + 1;
            let ready = self
                .instances
                .get(&next)
                .is_some_and(|i| i.decided && !i.executed);
            if !ready {
                return;
            }
            let cmd = {
                let inst = self.instances.get_mut(&next).expect("ready");
                inst.executed = true;
                inst.cmd.clone().expect("decided instance has command")
            };
            self.apply(ctx, cmd);
            self.executed_counter = next;
            self.disarm_view_timer(ctx);
            if !self.pending_requests.is_empty() {
                self.arm_view_timer(ctx);
            }
        }
    }

    fn apply(&mut self, ctx: &mut Context<MinMsg>, cmd: Command<KvCommand>) {
        let output = self.machine.apply_cmd(&cmd);
        self.pending_requests.remove(&(cmd.client, cmd.seq));
        self.history.push(cmd.clone());
        ctx.send(
            NodeId(cmd.client),
            MinMsg::Reply {
                client: cmd.client,
                seq: cmd.seq,
                output,
            },
        );
    }
}

impl Node for MinReplica {
    type Msg = MinMsg;

    fn on_start(&mut self, ctx: &mut Context<MinMsg>) {
        self.usig.bind(ctx.id());
    }

    fn on_message(&mut self, ctx: &mut Context<MinMsg>, from: NodeId, msg: MinMsg) {
        match msg {
            MinMsg::Request { cmd } => {
                if let Some(out) = self.machine.cached(cmd.client, cmd.seq) {
                    ctx.send(
                        NodeId(cmd.client),
                        MinMsg::Reply {
                            client: cmd.client,
                            seq: cmd.seq,
                            output: out.clone(),
                        },
                    );
                    return;
                }
                if self.primary_of(self.view) == ctx.id() {
                    let in_flight = self.instances.values().any(|i| {
                        !i.executed
                            && i.cmd
                                .as_ref()
                                .is_some_and(|c| c.client == cmd.client && c.seq == cmd.seq)
                    });
                    if in_flight {
                        return;
                    }
                    // Order it: the USIG counter is the sequence number.
                    let ui = self.usig.create(digest_of(&cmd));
                    let n = ui.counter;
                    ctx.span_open(SPAN, n, self.view);
                    ctx.phase(SPAN, n, self.view, CncPhase::ValueDiscovery);
                    let me = ctx.id();
                    let inst = self.instances.entry(n).or_default();
                    inst.cmd = Some(cmd.clone());
                    inst.commits.insert(me); // the prepare is the primary's commit
                    let view = self.view;
                    ctx.send_many(self.peer_replicas(me), MinMsg::Prepare { view, ui, cmd });
                } else {
                    self.pending_requests.insert((cmd.client, cmd.seq));
                    let primary = self.primary_of(self.view);
                    ctx.send(primary, MinMsg::Request { cmd });
                    self.arm_view_timer(ctx);
                }
            }

            MinMsg::Prepare { view, ui, cmd } => {
                if view != self.view || from != self.primary_of(view) {
                    return;
                }
                // USIG verification: the attestation must cover exactly
                // this command and be the next counter from this primary —
                // this is what forecloses equivocation.
                if !self.verifier.verify(&ui, digest_of(&cmd)) {
                    return;
                }
                let n = ui.counter;
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_none() {
                    ctx.span_open(SPAN, n, view);
                    ctx.phase(SPAN, n, view, CncPhase::Agreement);
                }
                inst.cmd = Some(cmd);
                inst.commits.insert(from);
                // Endorse with our own USIG.
                let my_ui = self.usig.create(digest_of(&(view, n)));
                ctx.send(from, MinMsg::Commit { view, n, ui: my_ui });
                self.arm_view_timer(ctx);
            }

            MinMsg::Commit { view, n, ui } => {
                if view != self.view || self.primary_of(view) != ctx.id() {
                    return;
                }
                if !self.verifier.verify_monotonic(&ui, digest_of(&(view, n))) {
                    return;
                }
                let quorum = self.quorum();
                let inst = self.instances.entry(n).or_default();
                inst.commits.insert(from);
                if inst.commits.len() >= quorum && !inst.decided {
                    inst.decided = true;
                    ctx.phase(SPAN, n, view, CncPhase::Decision);
                    ctx.span_close(SPAN, n, view);
                    let me = ctx.id();
                    ctx.send_many(self.peer_replicas(me), MinMsg::Decide { view, n });
                    self.try_execute(ctx);
                }
            }

            MinMsg::Decide { view, n } => {
                if view != self.view {
                    return;
                }
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_some() {
                    if !inst.decided {
                        ctx.phase(SPAN, n, view, CncPhase::Decision);
                        ctx.span_close(SPAN, n, view);
                    }
                    inst.decided = true;
                    self.try_execute(ctx);
                }
            }

            MinMsg::ViewChange { new_view } => {
                if new_view <= self.view {
                    return;
                }
                self.vc_votes.entry(new_view).or_default().insert(from);
                // Join once anyone demands it (with n = 2f+1, a single
                // honest demand suffices to probe; safety comes from the
                // new primary's quorum).
                if self.max_vc_sent < new_view {
                    self.max_vc_sent = new_view;
                    ctx.phase(
                        SPAN,
                        self.executed_counter + 1,
                        new_view,
                        CncPhase::LeaderElection,
                    );
                    let me = ctx.id();
                    self.vc_votes.entry(new_view).or_default().insert(me);
                    ctx.send_many(self.peer_replicas(me), MinMsg::ViewChange { new_view });
                }
                let votes = self.vc_votes[&new_view].len();
                if votes >= self.quorum() && self.primary_of(new_view) == ctx.id() {
                    // Install ourselves as primary with state transfer.
                    self.view = new_view;
                    self.view_changes += 1;
                    self.instances.clear();
                    self.view_base = self.usig.counter();
                    self.executed_counter = self.usig.counter();
                    let view = self.view;
                    let counter_base = self.usig.counter();
                    let history = self.history.clone();
                    self.disarm_view_timer(ctx);
                    let me = ctx.id();
                    ctx.send_many(
                        self.peer_replicas(me),
                        MinMsg::NewView {
                            view,
                            counter_base,
                            history,
                        },
                    );
                }
            }

            MinMsg::NewView {
                view,
                counter_base,
                history,
            } => {
                if view < self.view || from != self.primary_of(view) {
                    return;
                }
                self.view = view;
                self.view_changes += 1;
                self.instances.clear();
                self.disarm_view_timer(ctx);
                // State transfer: replay missing commands (the dedup
                // client table suppresses ones we already executed).
                for cmd in history {
                    if self.machine.cached(cmd.client, cmd.seq).is_none() {
                        self.apply(ctx, cmd);
                    }
                }
                // The new primary's prepares continue from its attested
                // counter base: fast-forward its verification window and
                // re-base execution.
                self.verifier.fast_forward(from, counter_base);
                self.executed_counter = counter_base;
                self.view_base = counter_base;
                if !self.pending_requests.is_empty() {
                    self.arm_view_timer(ctx);
                }
            }

            MinMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<MinMsg>, timer: Timer) {
        if timer.kind == VIEW_TIMER {
            self.view_timer = None;
            let stalled = !self.pending_requests.is_empty()
                || self
                    .instances
                    .values()
                    .any(|i| i.cmd.is_some() && !i.executed);
            if stalled {
                let new_view = self.view.max(self.max_vc_sent) + 1;
                self.max_vc_sent = new_view;
                let me = ctx.id();
                self.vc_votes.entry(new_view).or_default().insert(me);
                ctx.send_many(self.peer_replicas(me), MinMsg::ViewChange { new_view });
                self.arm_view_timer(ctx);
            }
        }
    }
}

/// The client accepts an output at `f+1` matching replies.
impl VoteWire for MinMsg {
    const RETRY_US: u64 = 150_000;

    fn request(cmd: Command<KvCommand>) -> Self {
        MinMsg::Request { cmd }
    }

    fn reply(self) -> Option<(u64, KvResponse)> {
        match self {
            MinMsg::Reply { seq, output, .. } => Some((seq, output)),
            _ => None,
        }
    }
}

/// MinBFT as a log protocol of the SMR shell.
pub struct MinBft;

impl SmrProtocol for MinBft {
    const NAME: &'static str = "minbft";
    type Shape = usize;
    type Msg = MinMsg;
    type Replica = MinReplica;
    type Client = VotingClient<MinMsg>;

    /// One request per USIG counter: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> MinReplica {
        MinReplica::new(n_replicas)
    }

    fn client(n_replicas: usize, session: Session) -> VotingClient<MinMsg> {
        VotingClient::new(session, n_replicas, (n_replicas - 1) / 2 + 1)
    }

    fn is_leader(replica: &MinReplica, id: NodeId) -> bool {
        replica.primary_of(replica.view) == id
    }

    fn applied_len(replica: &MinReplica) -> u64 {
        replica.history.len() as u64
    }

    fn machine(replica: &MinReplica) -> &DedupKvMachine {
        &replica.machine
    }

    fn decided(replica: &MinReplica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_commands(&replica.history, node, out);
    }
}

/// A ready-to-run MinBFT cluster (`2f+1` replicas).
pub type MinCluster = Cluster<MinBft>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;
    use simnet::{NetConfig, Time};

    #[test]
    fn three_replicas_tolerate_one_fault() {
        // n = 2f+1 = 3 for f = 1 — the headline saving over PBFT's 4.
        let mut cluster = MinCluster::new(3, 1, 10, NetConfig::lan(), 1);
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
    }

    #[test]
    fn two_phases_linear_messages() {
        let mut cluster = MinCluster::new(3, 1, 10, NetConfig::lan(), 2);
        assert!(cluster.run(Time::from_secs(10)));
        let m = cluster.sim.metrics();
        assert!(m.kind("prepare") > 0);
        assert!(m.kind("commit") > 0);
        // Leader-centric: commits go to the primary only, so commits ≈
        // prepares (both (n−1) per request) — not (n−1)² as in PBFT.
        let ratio = m.kind("commit") as f64 / m.kind("prepare") as f64;
        assert!(
            ratio < 1.5,
            "commit/prepare ratio {ratio} suggests all-to-all"
        );
    }

    #[test]
    fn crashed_backup_is_tolerated() {
        let mut cluster = MinCluster::new(3, 1, 10, NetConfig::lan(), 3);
        cluster.sim.crash_at(NodeId(2), Time::ZERO);
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
    }

    #[test]
    fn primary_crash_view_change() {
        let mut cluster = MinCluster::new(3, 1, 10, NetConfig::lan(), 4);
        cluster.sim.run_until(Time::from_millis(10));
        cluster.sim.crash_at(NodeId(0), Time::from_millis(11));
        assert!(
            cluster.run(Time::from_secs(30)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 10);
        let vc = cluster.replicas().map(|r| r.view_changes).max().unwrap();
        assert!(vc >= 1);
    }

    #[test]
    fn usig_blocks_equivocation() {
        // A Byzantine primary tries to send different commands to the two
        // backups under the same attestation. The receivers re-digest the
        // command: the certificate no longer matches → rejected → view
        // change → honest primary serves.
        use simnet::{FilterAction, FnFilter};
        let mut cluster = MinCluster::new(3, 1, 5, NetConfig::lan(), 5);
        cluster.sim.set_filter(
            NodeId(0),
            Box::new(FnFilter(
                |_f, to: NodeId, msg: &MinMsg, _r: &mut rand_chacha::ChaCha20Rng| {
                    if let MinMsg::Prepare { view, ui, cmd } = msg {
                        let mut cmd = cmd.clone();
                        cmd.op = KvCommand::Put {
                            key: format!("forged-{to}").into(),
                            value: "evil".into(),
                        };
                        // The attacker cannot re-attest: the USIG is
                        // tamper-proof, so it must reuse the old cert.
                        return FilterAction::Replace(MinMsg::Prepare {
                            view: *view,
                            ui: *ui,
                            cmd,
                        });
                    }
                    FilterAction::Deliver
                },
            )),
        );
        assert!(
            cluster.run(Time::from_secs(60)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 5);
        let view = cluster.replicas().map(|r| r.view).max().unwrap();
        assert!(view >= 1, "the equivocating primary must be deposed");
    }

    #[test]
    fn replicas_converge() {
        let mut cluster = MinCluster::new(3, 1, 15, NetConfig::lan(), 6);
        assert!(cluster.run(Time::from_secs(10)));
        cluster.sim.run_for(300_000);
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.executed() >= 15)
            .map(|r| r.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn fewer_replicas_than_pbft_for_same_f() {
        // f = 1: MinBFT 3 vs PBFT 4; f = 2: 5 vs 7.
        for f in [1usize, 2] {
            let minbft_n = 2 * f + 1;
            let pbft_n = 3 * f + 1;
            assert!(minbft_n < pbft_n);
            let mut cluster = MinCluster::new(minbft_n, 1, 5, NetConfig::lan(), 7);
            assert!(cluster.run(Time::from_secs(10)));
        }
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = MinCluster::new(3, 1, 8, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(10));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(8), run(8));
    }
}
