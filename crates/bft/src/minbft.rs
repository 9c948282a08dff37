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

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::BatchConfig;
use consensus_core::{
    Client, ClientMsg, Cluster, Command, DedupKvMachine, Envelope, Harvest, KvCommand, Quorum,
    Session, Silence, SmrProtocol, Target,
};
use simnet::{CncPhase, Context, Node, NodeId, Timer};

/// Span protocol label; instances are USIG counters, rounds are views.
const SPAN: &str = "minbft";

use crate::shell::{peers, put_vote, take_ready, Admission, Demand, Executor};
use crate::shell::{Vote, Voter, Votes, VIEW_TIMER};
use crate::sim_crypto::{digest_of, Usig, UsigCert, UsigVerifier};

/// MinBFT messages between replicas.
#[derive(Clone, Debug)]
pub enum MinMsg {
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
    /// View-change demand, carrying the sender's log.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// The sender's executed history, then its prepared commands.
        vote: Vote,
    },
    /// New primary installation: the `f+1` logs it was installed with, from
    /// which every replica computes the view's log and catches up, and
    /// `base`, where the new primary's USIG counter stands, so verifiers
    /// fast-forward.
    NewView {
        /// The view.
        view: u64,
        /// The new primary's current USIG counter.
        base: u64,
        /// The votes it was installed with.
        votes: Votes,
    },
}

impl simnet::Payload for MinMsg {
    fn kind(&self) -> &'static str {
        match self {
            MinMsg::Prepare { .. } => "prepare",
            MinMsg::Commit { .. } => "commit",
            MinMsg::Decide { .. } => "decide",
            MinMsg::ViewChange { .. } => "view-change",
            MinMsg::NewView { .. } => "new-view",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| match self {
            MinMsg::Prepare { cmd, .. } => put_command(w, cmd),
            MinMsg::ViewChange { vote, .. } => put_vote(w, vote),
            MinMsg::NewView { votes, .. } => votes.values().for_each(|v| put_vote(w, v)),
            _ => {}
        })
    }
}

impl Demand for MinMsg {
    fn demand(new_view: u64, vote: Vote) -> Self {
        MinMsg::ViewChange { new_view, vote }
    }
}

/// The MinBFT wire: client messages beside [`MinMsg`].
type Wire = Envelope<MinMsg>;

#[derive(Debug, Default)]
struct MinInstance {
    cmd: Option<Command<KvCommand>>,
    commits: BTreeSet<NodeId>,
    decided: bool,
    executed: bool,
}

/// A MinBFT replica (cluster size `2f+1`).
pub struct MinReplica {
    n_replicas: usize,
    /// Fault bound `f = ⌊(n−1)/2⌋`.
    pub f: usize,
    /// The view, the view-change votes and the watchdog.
    pub voter: Voter,
    usig: Usig,
    verifier: UsigVerifier,
    /// Instances of the current view, keyed by primary counter.
    instances: BTreeMap<u64, MinInstance>,
    /// Prepares whose counter is past the next one expected, by counter:
    /// verified in order once the gap fills.
    ahead: BTreeMap<u64, (UsigCert, Command<KvCommand>)>,
    /// The machine and the executed history (also the view-change log); its
    /// frontier is the highest executed counter of the view.
    pub exec: Executor,
}

impl MinReplica {
    /// Creates a replica; cluster size must be `2f+1`. Its USIG is bound to
    /// the node id when the node starts.
    pub fn new(n_replicas: usize) -> Self {
        let f = (n_replicas - 1) / 2;
        MinReplica {
            n_replicas,
            f,
            voter: Voter::new(n_replicas, 1, f + 1, 50_000, SPAN),
            usig: Usig::new(NodeId(0)),
            verifier: UsigVerifier::new(),
            instances: BTreeMap::new(),
            ahead: BTreeMap::new(),
            exec: Executor::default(),
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<Wire>) {
        let (instances, voter) = (&mut self.instances, &mut self.voter);
        self.exec.drain(
            ctx,
            |n| {
                let i = instances.get_mut(&n)?;
                take_ready(&i.cmd, i.decided, &mut i.executed)
            },
            |exec, ctx, _| voter.progress(ctx, exec.has_pending()),
        );
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, cmd: Command<KvCommand>) {
        let me = ctx.id();
        let ordered = self.instances.values().filter(|i| !i.executed);
        let ordered = ordered.filter_map(|i| i.cmd.as_ref());
        match self.exec.admit(ctx, &cmd, self.voter.primary(), ordered) {
            Admission::Handled => {}
            Admission::Relayed => self.voter.arm(ctx),
            Admission::Order => {
                // Order it: the USIG counter is the sequence number.
                let ui = self.usig.create(digest_of(&cmd));
                let n = ui.counter;
                let view = self.voter.view;
                ctx.span_open(SPAN, n, view);
                ctx.phase(SPAN, n, view, CncPhase::ValueDiscovery);
                let inst = self.instances.entry(n).or_default();
                inst.cmd = Some(cmd.clone());
                inst.commits.insert(me); // the prepare is the primary's commit
                let prepare = MinMsg::Prepare { view, ui, cmd };
                ctx.send_many(peers(self.n_replicas, me), prepare.into());
            }
        }
    }

    /// A backup's part in a verified `Prepare`: hold it and endorse it with
    /// our own USIG.
    fn on_prepare(&mut self, ctx: &mut Context<Wire>, ui: UsigCert, cmd: Command<KvCommand>) {
        let (view, n, primary) = (self.voter.view, ui.counter, self.voter.primary());
        let inst = self.instances.entry(n).or_default();
        if inst.cmd.is_none() {
            ctx.span_open(SPAN, n, view);
            ctx.phase(SPAN, n, view, CncPhase::Agreement);
        }
        inst.cmd = Some(cmd);
        inst.commits.insert(primary);
        let my_ui = self.usig.create(digest_of(&(view, n)));
        ctx.send(primary, MinMsg::Commit { view, n, ui: my_ui }.into());
        self.voter.arm(ctx);
    }

    /// Enters the view installed with `votes`: executes its log, drops the
    /// old view's instances and numbers the next from the new primary's
    /// counter `base`. The view's primary then announces it.
    fn enter(&mut self, ctx: &mut Context<Wire>, votes: Votes, base: u64) {
        self.exec.adopt(ctx, &votes, base);
        self.instances.clear();
        self.ahead.clear();
        self.voter.progress(ctx, self.exec.has_pending());
        let (view, primary) = (self.voter.view, self.voter.primary());
        if primary == ctx.id() {
            let announce = MinMsg::NewView { view, base, votes };
            ctx.send_many(peers(self.n_replicas, primary), announce.into());
        }
    }
}

impl Node for MinReplica {
    type Msg = Wire;

    fn on_start(&mut self, ctx: &mut Context<Wire>) {
        self.usig.bind(ctx.id());
    }

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let me = ctx.id();
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(ClientMsg::Request(cmd)) => return self.on_request(ctx, cmd),
            Envelope::Client(_) => return,
        };
        match msg {
            MinMsg::Prepare { view, ui, cmd } => {
                if !self.voter.serving(view) || from != self.voter.primary() {
                    return;
                }
                // USIG verification, in counter order: the attestation must
                // cover exactly this command and be the next counter from
                // this primary — this is what forecloses equivocation.
                self.ahead.insert(ui.counter, (ui, cmd));
                while let Some(next) = self.ahead.first_entry() {
                    if *next.key() > self.verifier.last(from) + 1 {
                        break;
                    }
                    let (ui, cmd) = next.remove();
                    if self.verifier.verify(&ui, digest_of(&cmd)) {
                        self.on_prepare(ctx, ui, cmd);
                    }
                }
            }

            MinMsg::Commit { view, n, ui } => {
                if !self.voter.serving(view) || self.voter.primary() != me {
                    return;
                }
                if !self.verifier.verify_monotonic(&ui, digest_of(&(view, n))) {
                    return;
                }
                let inst = self.instances.entry(n).or_default();
                inst.commits.insert(from);
                if inst.commits.len() > self.f && !inst.decided {
                    inst.decided = true;
                    ctx.phase(SPAN, n, view, CncPhase::Decision);
                    ctx.span_close(SPAN, n, view);
                    ctx.send_many(
                        peers(self.n_replicas, me),
                        MinMsg::Decide { view, n }.into(),
                    );
                    self.try_execute(ctx);
                }
            }

            MinMsg::Decide { view, n } => {
                if !self.voter.serving(view) {
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

            // Join once anyone demands it (with n = 2f+1, a single honest
            // demand suffices to probe; safety comes from the f+1 logs the
            // new view is computed from).
            MinMsg::ViewChange { new_view, vote } => {
                let (instances, view) = (&self.instances, self.voter.view);
                let mine = || self.exec.vote(view, |n| instances.get(&n)?.cmd.as_ref());
                let next = self.exec.executed_upto + 1;
                if let Some(votes) = self
                    .voter
                    .on_view_change(ctx, from, new_view, vote, next, mine)
                {
                    self.enter(ctx, votes, self.usig.counter());
                }
            }

            MinMsg::NewView { view, base, votes } => {
                if self.voter.on_new_view(ctx, from, view, &votes) {
                    self.verifier.fast_forward(from, base);
                    self.enter(ctx, votes, base);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        if timer.kind == VIEW_TIMER {
            let unexecuted = |i: &MinInstance| i.cmd.is_some() && !i.executed;
            let stalled = self.exec.has_pending() || self.instances.values().any(unexecuted);
            let (instances, view) = (&self.instances, self.voter.view);
            let mine = || self.exec.vote(view, |n| instances.get(&n)?.cmd.as_ref());
            let next = self.exec.executed_upto + 1;
            if let Some(votes) = self.voter.on_timeout(ctx, stalled, next, mine) {
                self.enter(ctx, votes, self.usig.counter());
            }
        }
    }
}

/// MinBFT as a log protocol of the SMR shell.
pub struct MinBft;

impl SmrProtocol for MinBft {
    const NAME: &'static str = "minbft";
    type Shape = usize;
    type Peer = MinMsg;
    type Replica = MinReplica;
    type Accept = Quorum;

    /// One request per USIG counter: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> MinReplica {
        MinReplica::new(n_replicas)
    }

    /// The client accepts an output at `f+1` matching replies.
    fn client(n: usize, session: Session) -> Client<MinMsg> {
        let quorum = Quorum::of((n - 1) / 2 + 1);
        let silence = Silence::Broadcast(150_000, None);
        Client::new(session, n, Target::Primary(NodeId(0)), silence, quorum)
    }

    fn is_leader(replica: &MinReplica, id: NodeId) -> bool {
        replica.voter.primary() == id
    }

    fn applied_len(replica: &MinReplica) -> u64 {
        replica.exec.history().len() as u64
    }

    fn machine(replica: &MinReplica) -> &DedupKvMachine {
        replica.exec.machine()
    }

    fn decided(replica: &MinReplica, node: u32, out: &mut Harvest) {
        out.commands(node, replica.exec.history());
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
        let vc = cluster
            .replicas()
            .map(|r| r.voter.view_changes)
            .max()
            .unwrap();
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
                |_f, to: NodeId, msg: &Wire, _r: &mut rand_chacha::ChaCha20Rng| {
                    if let Envelope::Peer(MinMsg::Prepare { view, ui, cmd }) = msg {
                        let mut cmd = cmd.clone();
                        cmd.op = KvCommand::Put {
                            key: format!("forged-{to}").into(),
                            value: "evil".into(),
                        };
                        // The attacker cannot re-attest: the USIG is
                        // tamper-proof, so it must reuse the old cert.
                        let (view, ui) = (*view, *ui);
                        return FilterAction::Replace(MinMsg::Prepare { view, ui, cmd }.into());
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
        let view = cluster.replicas().map(|r| r.voter.view).max().unwrap();
        assert!(view >= 1, "the equivocating primary must be deposed");
    }

    #[test]
    fn replicas_converge() {
        let mut cluster = MinCluster::new(3, 1, 15, NetConfig::lan(), 6);
        assert!(cluster.run(Time::from_secs(10)));
        cluster.sim.run_for(300_000);
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.exec.history().len() >= 15)
            .map(|r| r.exec.machine().digest())
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
