//! Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).
//!
//! The tutorial's summary, all implemented here:
//!
//! * **Configuration**: `3f+1` replicas; quorums of `2f+1`; any two quorums
//!   intersect in at least one *correct* replica (`f+1` overlap).
//! * **Normal case** (three phases): *pre-prepare* picks the order of
//!   requests, *prepare* ensures order within views, *commit* ensures order
//!   across views. A replica executes request `m` once `m` is committed and
//!   all lower sequence numbers have executed; the client waits for `f+1`
//!   matching replies. Steady state costs `O(n²)` messages because prepare
//!   and commit are all-to-all.
//! * **View change**: timeouts trigger it; each view-change message carries
//!   every batch its sender prepared above its stable checkpoint, executed or
//!   not, and the new primary needs `2f+1` of them. Its `NEW-VIEW` carries
//!   them on, and every replica re-proposes the same log from them (the
//!   highest-view batch per sequence number, null requests in the gaps) —
//!   `O(n³)` message complexity (each of `O(n)` view-changes carries
//!   `O(n)`-sized certificates to `O(n)` receivers). The vote path is
//!   [`crate::shell::Voter`], shared with MinBFT and XFT.
//! * **Garbage collection**: periodic checkpoints; `2f+1` matching
//!   checkpoint messages form a stable proof allowing the log below the
//!   checkpoint to be discarded.
//!
//! Why not plain Paxos with Byzantine nodes? A malicious primary could
//! assign the same sequence number to different requests — the extra
//! (prepare) phase makes any two replicas that prepare the same `(v, n)`
//! agree on the request digest, which is exactly what the tests exercise
//! with an equivocating primary.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::{BatchConfig, Wave};
use consensus_core::{
    Client, ClientMsg, Cluster, Command, DedupKvMachine, Envelope, Harvest, KvCommand, Quorum,
    ReplicatedLog, Session, Silence, SmrOp, SmrProtocol, StateMachine, Target,
};
use rand_chacha::ChaCha20Rng;
use simnet::{CncPhase, Context, Filter, FilterAction, FnFilter, Node, NodeId, Timer};

use crate::shell::{answer_cached, in_flight, new_view, peers, put_vote, Demand, Vote, Voter};
use crate::shell::{Votes, VIEW_TIMER};
use crate::sim_crypto::{digest_of, Digest};

/// Span protocol label; instances are sequence numbers, rounds are views.
const SPAN: &str = "pbft";

/// PBFT messages between replicas.
#[derive(Clone, Debug)]
pub enum PbftMsg {
    /// Phase 1: primary assigns sequence number `n` to a batch of requests.
    PrePrepare {
        /// Current view.
        view: u64,
        /// Assigned sequence number.
        n: u64,
        /// Digest of the batch.
        digest: Digest,
        /// The batched requests (one under `BatchConfig::unbatched()`).
        cmds: Vec<Command<KvCommand>>,
    },
    /// Phase 2: backups agree on the order within the view.
    Prepare {
        /// View.
        view: u64,
        /// Sequence number.
        n: u64,
        /// Request digest.
        digest: Digest,
    },
    /// Phase 3: replicas ensure the order survives view changes.
    Commit {
        /// View.
        view: u64,
        /// Sequence number.
        n: u64,
        /// Request digest.
        digest: Digest,
    },
    /// Periodic state checkpoint.
    Checkpoint {
        /// Sequence number of the checkpoint.
        n: u64,
        /// State digest after executing up to `n`.
        state: Digest,
    },
    /// View-change vote: the sender's last stable checkpoint and every
    /// batch prepared above it, executed or not.
    ViewChange {
        /// Proposed new view.
        new_view: u64,
        /// The sender's stable checkpoint and prepared batches.
        vote: Vote,
    },
    /// New primary's installation message: the `2f+1` votes from which every
    /// replica computes the view's pre-prepares.
    NewView {
        /// The new view.
        view: u64,
        /// The votes it was installed with.
        votes: Votes,
    },
}

impl simnet::Payload for PbftMsg {
    fn kind(&self) -> &'static str {
        match self {
            PbftMsg::PrePrepare { .. } => "pre-prepare",
            PbftMsg::Prepare { .. } => "prepare",
            PbftMsg::Commit { .. } => "commit",
            PbftMsg::Checkpoint { .. } => "checkpoint",
            PbftMsg::ViewChange { .. } => "view-change",
            PbftMsg::NewView { .. } => "new-view",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| {
            let mut put = |cmds: &[Command<KvCommand>]| cmds.iter().for_each(|c| put_command(w, c));
            match self {
                PbftMsg::PrePrepare { cmds, .. } => put(cmds),
                PbftMsg::ViewChange { vote, .. } => put_vote(w, vote),
                PbftMsg::NewView { votes, .. } => votes.values().for_each(|v| put_vote(w, v)),
                _ => {}
            }
        })
    }
}

impl Demand for PbftMsg {
    fn demand(new_view: u64, vote: Vote) -> Self {
        PbftMsg::ViewChange { new_view, vote }
    }
}

/// The PBFT wire: client messages beside [`PbftMsg`].
pub type PbftWire = Envelope<PbftMsg>;

#[derive(Debug, Default)]
struct Instance {
    cmds: Option<Vec<Command<KvCommand>>>,
    digest: Digest,
    view: u64,
    pre_prepared: bool,
    prepares: BTreeSet<NodeId>,
    commits: BTreeSet<NodeId>,
    prepared: bool,
    committed: bool,
    executed: bool,
}

/// Flush timer for underfull request batches (primary only).
const BATCH_FLUSH: u64 = 2;

/// Default checkpoint interval (sequence numbers between checkpoints).
pub const CHECKPOINT_INTERVAL: u64 = 16;

/// A PBFT replica.
pub struct PbftReplica {
    n_replicas: usize,
    /// Fault bound `f = ⌊(n−1)/3⌋`.
    pub f: usize,
    /// The view (primary = `view mod n`), the view-change votes and the
    /// watchdog.
    pub voter: Voter,
    next_seq: u64,
    /// Last stable checkpoint sequence number.
    pub low_water: u64,
    instances: BTreeMap<u64, Instance>,
    /// Executes one batch of commands per slot (sequence `n` lives at slot
    /// `n − 1`).
    exec: ReplicatedLog<DedupKvMachine>,
    /// Requests accepted by the primary but not yet assigned a sequence
    /// number — the next batch. Under `BatchConfig::unbatched()` every
    /// request is ordered immediately in its own sequence number.
    wave: Wave<Command<KvCommand>>,
    /// Highest executed sequence number.
    pub executed_upto: u64,
    checkpoint_interval: u64,
    /// Checkpoint votes: (n, digest) → voters.
    checkpoint_votes: BTreeMap<(u64, Digest), BTreeSet<NodeId>>,
    /// Client requests relayed to the primary and not yet executed — these
    /// are what the view-change watchdog watches.
    pending_requests: BTreeSet<(u32, u64)>,
}

impl PbftReplica {
    /// Creates an unbatched replica in a cluster of `n_replicas = 3f+1`.
    pub fn new(n_replicas: usize) -> Self {
        Self::new_with(n_replicas, BatchConfig::unbatched())
    }

    /// Creates a replica with an explicit batching config.
    pub fn new_with(n_replicas: usize, batch: BatchConfig) -> Self {
        assert!(n_replicas >= 4, "PBFT needs at least 3f+1 = 4 replicas");
        let f = (n_replicas - 1) / 3;
        PbftReplica {
            n_replicas,
            f,
            voter: Voter::new(n_replicas, f + 1, 2 * f + 1, 40_000, SPAN),
            next_seq: 0,
            low_water: 0,
            instances: BTreeMap::new(),
            exec: ReplicatedLog::new(),
            wave: Wave::new(batch, BATCH_FLUSH),
            executed_upto: 0,
            checkpoint_interval: CHECKPOINT_INTERVAL,
            checkpoint_votes: BTreeMap::new(),
            pending_requests: BTreeSet::new(),
        }
    }

    /// Overrides the checkpoint interval (ablation experiments).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, k: u64) -> Self {
        self.checkpoint_interval = k;
        self
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self, me: NodeId) -> bool {
        self.voter.primary() == me
    }

    /// Quorum size `2f+1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Number of retained (non-GC'd) log instances.
    pub fn log_len(&self) -> usize {
        self.instances.len()
    }

    /// The replicated state machine.
    pub fn machine(&self) -> &DedupKvMachine {
        self.exec.machine()
    }

    /// The execution log (sequence `n` lives at slot `n - 1`) — what safety
    /// checkers compare across replicas.
    pub fn exec_log(&self) -> &ReplicatedLog<DedupKvMachine> {
        &self.exec
    }

    fn has_pending_work(&self) -> bool {
        !self.pending_requests.is_empty()
            || self
                .instances
                .values()
                .any(|i| i.pre_prepared && !i.executed)
    }

    fn instance(&mut self, n: u64) -> &mut Instance {
        self.instances.entry(n).or_default()
    }

    /// Answers an executed request from the client table; orders a new one
    /// at the primary, or relays it there and watches it. A client's request
    /// is relayed each time it arrives, another replica's relay only the
    /// first time: two replicas that disagree on the view would otherwise
    /// bounce it between them until one of them moves.
    fn on_request(&mut self, ctx: &mut Context<PbftWire>, from: NodeId, cmd: Command<KvCommand>) {
        if answer_cached(self.exec.machine(), ctx, &cmd) {
            return;
        }
        if self.is_primary(ctx.id()) {
            self.enqueue(ctx, cmd);
        } else {
            let fresh = self.pending_requests.insert((cmd.client, cmd.seq));
            if fresh || from.index() >= self.n_replicas {
                ctx.send(self.voter.primary(), Envelope::request(cmd));
            }
            self.voter.arm(ctx);
        }
    }

    /// Primary path: accept a new request into the batch queue.
    fn enqueue(&mut self, ctx: &mut Context<PbftWire>, cmd: Command<KvCommand>) {
        let ordered = self.instances.values();
        let ordered = ordered.filter(|i| i.view == self.voter.view && !i.executed);
        let ordered = ordered.flat_map(|i| i.cmds.iter().flatten());
        if in_flight(&cmd, ordered.chain(self.wave.items())) {
            return;
        }
        self.wave.push(ctx, cmd);
        self.try_flush(ctx);
    }

    /// Assigns sequence numbers to queued batches as the batch policy
    /// releases them; the window counts assigned-but-unexecuted sequences
    /// (executions drain it and re-trigger this).
    fn try_flush(&mut self, ctx: &mut Context<PbftWire>) {
        if !self.is_primary(ctx.id()) {
            return;
        }
        loop {
            let in_flight = self.next_seq.saturating_sub(self.executed_upto) as usize;
            let Some(k) = self.wave.ripe(ctx, in_flight) else {
                return;
            };
            self.flush_one(ctx, k);
        }
    }

    /// Primary path: bind the oldest `k` queued requests to the next
    /// sequence number.
    fn flush_one(&mut self, ctx: &mut Context<PbftWire>, k: usize) {
        let cmds = self.wave.take(ctx, k);
        self.next_seq += 1;
        let n = self.next_seq;
        let digest = digest_of(&cmds);
        let view = self.voter.view;
        // Pre-prepare is where the primary binds a value to a sequence
        // number — PBFT's value-discovery phase.
        ctx.span_open(SPAN, n, view);
        ctx.phase(SPAN, n, view, CncPhase::ValueDiscovery);
        let me = ctx.id();
        let inst = self.instance(n);
        inst.cmds = Some(cmds.clone());
        inst.digest = digest;
        inst.view = view;
        inst.pre_prepared = true;
        inst.prepares.insert(me); // the pre-prepare is the primary's prepare
        ctx.send_many(
            peers(self.n_replicas, me),
            PbftMsg::PrePrepare {
                view,
                n,
                digest,
                cmds,
            }
            .into(),
        );
        self.voter.arm(ctx);
    }

    fn maybe_prepared(&mut self, ctx: &mut Context<PbftWire>, n: u64) {
        let (quorum, view, me) = (self.quorum(), self.voter.view, ctx.id());
        let inst = self.instance(n);
        if !inst.pre_prepared || inst.prepared || inst.prepares.len() < quorum {
            return;
        }
        inst.prepared = true;
        inst.commits.insert(me);
        let digest = inst.digest;
        ctx.phase(SPAN, n, view, CncPhase::Agreement);
        ctx.send_many(
            peers(self.n_replicas, me),
            PbftMsg::Commit { view, n, digest }.into(),
        );
        self.maybe_committed(ctx, n);
    }

    fn maybe_committed(&mut self, ctx: &mut Context<PbftWire>, n: u64) {
        let quorum = self.quorum();
        let inst = self.instance(n);
        if inst.committed || !inst.prepared || inst.commits.len() < quorum {
            return;
        }
        inst.committed = true;
        let view = inst.view;
        ctx.phase(SPAN, n, view, CncPhase::Decision);
        ctx.span_close(SPAN, n, view);
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<PbftWire>) {
        loop {
            let next = self.executed_upto + 1;
            let ready = self
                .instances
                .get(&next)
                .is_some_and(|i| i.committed && !i.executed);
            if !ready {
                break;
            }
            let inst = self.instance(next);
            inst.executed = true;
            let cmds = inst.cmds.clone().expect("committed instance has commands");
            // Sequence numbers execute strictly in order, so deciding slot
            // `next − 1` applies exactly that slot.
            let outputs = self.exec.decide((next - 1) as usize, SmrOp::Batch(cmds));
            self.executed_upto = next;
            let cmds = self.instances[&next].cmds.as_deref().expect("cloned above");
            for cmd in cmds {
                self.pending_requests.remove(&(cmd.client, cmd.seq));
            }
            for (_, outs) in outputs {
                for (cmd, output) in cmds.iter().zip(outs) {
                    ctx.send(NodeId(cmd.client), Envelope::reply(cmd, output));
                }
            }
            // Progress: reset the watchdog.
            let pending = self.has_pending_work();
            self.voter.progress(ctx, pending);
            // Executions drain the pipeline window: more batches may flush.
            self.try_flush(ctx);
            // Checkpoint?
            if next.is_multiple_of(self.checkpoint_interval) {
                let (state, me) = (Digest(self.exec.machine().digest()), ctx.id());
                let votes = self.checkpoint_votes.entry((next, state)).or_default();
                votes.insert(me);
                ctx.send_many(
                    peers(self.n_replicas, me),
                    PbftMsg::Checkpoint { n: next, state }.into(),
                );
                self.maybe_stable_checkpoint(next, state);
            }
        }
    }

    fn maybe_stable_checkpoint(&mut self, n: u64, state: Digest) {
        let quorum = self.quorum();
        let stable = self
            .checkpoint_votes
            .get(&(n, state))
            .is_some_and(|votes| votes.len() >= quorum);
        if stable && n > self.low_water {
            self.low_water = n;
            // Discard everything at or below the stable checkpoint.
            self.instances.retain(|&seq, _| seq > n);
            self.checkpoint_votes.retain(|&(seq, _), _| seq > n);
            self.exec.truncate_prefix(n as usize);
        }
    }

    /// Enters the view installed with `votes`: queued requests and those
    /// relayed to the old primary are dropped (their clients' retries
    /// re-send them), instances that did not commit are abandoned, and the
    /// view's log is pre-prepared afresh at its sequence numbers. The view's
    /// primary then announces it.
    fn enter(&mut self, ctx: &mut Context<PbftWire>, votes: Votes) {
        let (view, primary) = (self.voter.view, self.voter.primary());
        let log = new_view(&votes);
        self.next_seq = log.keys().fold(self.executed_upto, |top, &n| top.max(n));
        self.wave.reset();
        self.pending_requests.clear();
        self.instances.retain(|_, i| i.committed);
        for (n, cmds) in log {
            self.accept_pre_prepare(ctx, view, n, digest_of(&cmds), cmds, primary);
        }
        if primary == ctx.id() {
            let announce = PbftMsg::NewView { view, votes };
            ctx.send_many(peers(self.n_replicas, primary), announce.into());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn accept_pre_prepare(
        &mut self,
        ctx: &mut Context<PbftWire>,
        view: u64,
        n: u64,
        digest: Digest,
        cmds: Vec<Command<KvCommand>>,
        from: NodeId,
    ) {
        if !self.voter.serving(view) || n <= self.low_water {
            return;
        }
        let me = ctx.id();
        let inst = self.instance(n);
        if inst.pre_prepared && inst.view == view && inst.digest != digest {
            // Equivocation within a view: refuse the second assignment.
            return;
        }
        if inst.pre_prepared && inst.view < view {
            // New view re-proposal supersedes the old instance state (the
            // votes of this view that overtook it stay).
            inst.prepares.clear();
            inst.commits.clear();
            inst.prepared = false;
            inst.committed = inst.committed && inst.digest == digest;
        }
        let newly_seen = !inst.pre_prepared;
        inst.cmds = Some(cmds);
        inst.digest = digest;
        inst.view = view;
        inst.pre_prepared = true;
        inst.prepares.insert(from); // primary's implicit prepare
        inst.prepares.insert(me);
        if newly_seen {
            ctx.span_open(SPAN, n, view);
            ctx.phase(SPAN, n, view, CncPhase::ValueDiscovery);
        }
        ctx.send_many(
            peers(self.n_replicas, me),
            PbftMsg::Prepare { view, n, digest }.into(),
        );
        self.voter.arm(ctx);
        self.maybe_prepared(ctx, n);
    }
}

impl Node for PbftReplica {
    type Msg = PbftWire;

    fn on_start(&mut self, _ctx: &mut Context<PbftWire>) {}

    fn on_message(&mut self, ctx: &mut Context<PbftWire>, from: NodeId, msg: PbftWire) {
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(ClientMsg::Request(cmd)) => return self.on_request(ctx, from, cmd),
            Envelope::Client(_) => return,
        };
        match msg {
            PbftMsg::PrePrepare {
                view,
                n,
                digest,
                cmds,
            } => {
                if from != self.voter.primary_of(view) {
                    return; // only the view's primary may pre-prepare
                }
                if digest != digest_of(&cmds) {
                    return; // corrupted assignment
                }
                self.accept_pre_prepare(ctx, view, n, digest, cmds, from);
            }

            PbftMsg::Prepare { view, n, digest } => {
                if !self.voter.serving(view) || n <= self.low_water {
                    return;
                }
                let inst = self.instance(n);
                if inst.pre_prepared && inst.digest != digest {
                    return; // mismatched prepare
                }
                inst.prepares.insert(from);
                self.maybe_prepared(ctx, n);
            }

            PbftMsg::Commit { view, n, digest } => {
                if !self.voter.serving(view) || n <= self.low_water {
                    return;
                }
                let inst = self.instance(n);
                if inst.pre_prepared && inst.digest != digest {
                    return;
                }
                inst.commits.insert(from);
                self.maybe_committed(ctx, n);
            }

            PbftMsg::Checkpoint { n, state } => {
                self.checkpoint_votes
                    .entry((n, state))
                    .or_default()
                    .insert(from);
                self.maybe_stable_checkpoint(n, state);
            }

            PbftMsg::ViewChange { new_view, vote } => {
                let (instances, floor) = (&self.instances, self.low_water);
                let mine = || prepared(instances, floor);
                let next = self.executed_upto + 1;
                if let Some(votes) = self
                    .voter
                    .on_view_change(ctx, from, new_view, vote, next, mine)
                {
                    self.enter(ctx, votes);
                }
            }

            PbftMsg::NewView { view, votes } => {
                if self.voter.on_new_view(ctx, from, view, &votes) {
                    self.enter(ctx, votes);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PbftWire>, timer: Timer) {
        match timer.kind {
            VIEW_TIMER => {
                // The primary failed us: demand a view change.
                let stalled = self.has_pending_work();
                let (instances, floor) = (&self.instances, self.low_water);
                let mine = || prepared(instances, floor);
                let next = self.executed_upto + 1;
                if let Some(votes) = self.voter.on_timeout(ctx, stalled, next, mine) {
                    self.enter(ctx, votes);
                }
            }
            BATCH_FLUSH => {
                let overdue = self.wave.expire(self.is_primary(ctx.id()));
                if overdue {
                    self.try_flush(ctx);
                }
            }
            _ => {}
        }
    }
}

/// PBFT's vote: the stable checkpoint `floor` and every batch prepared or
/// committed above it, executed or not, in the view it was prepared in.
fn prepared(instances: &BTreeMap<u64, Instance>, floor: u64) -> Vote {
    let held = instances.iter().filter(|(_, i)| i.prepared || i.committed);
    let claims = held.filter_map(|(&n, i)| Some((i.view, n, i.cmds.clone()?)));
    let claims = claims.collect();
    Vote { floor, claims }
}

/// PBFT as a log protocol of the SMR shell.
pub struct Pbft;

impl SmrProtocol for Pbft {
    const NAME: &'static str = "pbft";
    type Shape = usize;
    type Peer = PbftMsg;
    type Replica = PbftReplica;
    type Accept = Quorum;

    fn replica(n_replicas: usize, batch: BatchConfig) -> PbftReplica {
        PbftReplica::new_with(n_replicas, batch)
    }

    /// `f+1` matching replies include one from a correct replica; the
    /// broadcast after 150 ms of silence shows every backup a request a
    /// faulty primary sits on.
    fn client(n: usize, session: Session) -> Client<PbftMsg> {
        let quorum = Quorum::of((n - 1) / 3 + 1);
        let silence = Silence::Broadcast(150_000, None);
        Client::new(session, n, Target::Primary(NodeId(0)), silence, quorum)
    }

    fn is_leader(replica: &PbftReplica, id: NodeId) -> bool {
        replica.is_primary(id)
    }

    fn applied_len(replica: &PbftReplica) -> u64 {
        replica.executed_upto
    }

    fn machine(replica: &PbftReplica) -> &DedupKvMachine {
        replica.machine()
    }

    /// A Byzantine replica's *outbound* messages may have lied, but its
    /// local execution log is honestly built from what it received, so its
    /// harvest is still evidence about the protocol.
    fn decided(replica: &PbftReplica, node: u32, out: &mut Harvest) {
        out.slots(node, replica.exec_log());
    }

    fn equivocation_filter() -> Option<Box<dyn Filter<PbftWire>>> {
        Some(Box::new(equivocation_filter()))
    }
}

/// A PBFT process.
pub type PbftProc = consensus_core::Proc<Pbft>;

/// A ready-to-run PBFT cluster.
pub type PbftCluster = Cluster<Pbft>;

/// Checks that all live replicas that executed the same prefix agree on
/// the state digest.
pub trait StateAgreement {
    /// Panics on divergence; returns the longest executed prefix.
    fn check_state_agreement(&self) -> u64;
}

impl StateAgreement for PbftCluster {
    fn check_state_agreement(&self) -> u64 {
        let live: Vec<&PbftReplica> = self
            .sim
            .nodes()
            .filter(|(id, _)| self.sim.is_alive(*id))
            .filter_map(|(_, p)| match p {
                PbftProc::Replica(r) => Some(r),
                _ => None,
            })
            .collect();
        let max_exec = live.iter().map(|r| r.executed_upto).max().unwrap_or(0);
        // Digest comparison is only meaningful at equal prefixes; compare
        // replicas that executed exactly the same amount.
        let mut by_prefix: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for r in &live {
            by_prefix
                .entry(r.executed_upto)
                .or_default()
                .insert(r.machine().digest());
        }
        for (prefix, digests) in &by_prefix {
            assert!(
                digests.len() <= 1,
                "replicas diverged at prefix {prefix}: {digests:?}"
            );
        }
        max_exec
    }
}

/// The equivocation lie for PBFT: odd-numbered destinations receive a forged
/// ordering (a command no client sent, with a self-consistent digest) in
/// place of the node's real `PrePrepare`/`Prepare`; even destinations hear
/// the truth. Splitting the backups this way is the classic attempt to get
/// two quorums to prepare different requests at the same sequence number.
/// The digest matches the forged batch, so only quorum intersection — not
/// digest checking — protects the cluster. PBFT declares it as its
/// [`SmrProtocol::equivocation_filter`], which the nemesis opens in
/// `Equivocate` windows.
pub fn equivocation_filter() -> impl Filter<PbftWire> {
    // The forged request names the Byzantine node *itself* as the client.
    // Real PBFT authenticates client requests, so a lying primary cannot
    // impersonate an honest client — but it can always submit a request of
    // its own, which is exactly what this models. Using an honest client's
    // id here would poison that client's dedup entry in the replicas'
    // client tables (a later real command with a lower sequence number
    // would get the forged command's cached reply — an out-of-model forgery
    // the harness once flagged as a linearizability violation). Replies for
    // the forged request go to `NodeId(0)`, a replica, which ignores stray
    // `Reply` messages; the key is outside the workload's keyspace so
    // histories are untouched even if the lie were ever to commit.
    let forged = vec![Command {
        client: 0,
        seq: 9_999,
        op: KvCommand::Put {
            key: "evil".into(),
            value: "forged".into(),
        },
    }];
    FnFilter(
        move |_from, to: NodeId, msg: &PbftWire, _rng: &mut ChaCha20Rng| {
            if to.0.is_multiple_of(2) {
                return FilterAction::Deliver;
            }
            let lie = match msg {
                Envelope::Peer(PbftMsg::PrePrepare { view, n, .. }) => PbftMsg::PrePrepare {
                    view: *view,
                    n: *n,
                    digest: digest_of(&forged),
                    cmds: forged.clone(),
                },
                Envelope::Peer(PbftMsg::Prepare { view, n, .. }) => PbftMsg::Prepare {
                    view: *view,
                    n: *n,
                    digest: digest_of(&forged),
                },
                _ => return FilterAction::Deliver,
            };
            FilterAction::Replace(lie.into())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::driver::{ClusterDriver, DecidedEntry, DriverConfig};
    use consensus_core::WorkloadMode;
    use simnet::{NetConfig, Time};

    #[test]
    fn commits_requests_fault_free() {
        let mut cluster = PbftCluster::new(4, 1, 10, NetConfig::lan(), 1);
        assert!(
            cluster.run(Time::from_secs(10)),
            "{}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 10);
        assert!(cluster.check_state_agreement() >= 10);
    }

    #[test]
    fn three_phases_on_the_wire() {
        let mut cluster = PbftCluster::new(4, 1, 5, NetConfig::lan(), 2);
        assert!(cluster.run(Time::from_secs(10)));
        let m = cluster.sim.metrics();
        assert!(m.kind("pre-prepare") >= 5 * 3);
        assert!(m.kind("prepare") > 0);
        assert!(m.kind("commit") > 0);
        // Prepare and commit are all-to-all: each ≈ n(n−1) per request vs
        // pre-prepare's (n−1).
        assert!(m.kind("prepare") > 2 * m.kind("pre-prepare"));
    }

    #[test]
    fn quadratic_message_growth() {
        let mut per_request = Vec::new();
        for n in [4usize, 7, 10] {
            let mut cluster = PbftCluster::new(n, 1, 10, NetConfig::lan(), 3);
            assert!(cluster.run(Time::from_secs(30)));
            per_request.push(cluster.sim.metrics().sent as f64 / 10.0);
        }
        // Quadratic: going 4 → 10 replicas should grow messages by more
        // than the linear ratio 10/4 = 2.5.
        let growth = per_request[2] / per_request[0];
        assert!(
            growth > 4.0,
            "expected ≫ linear growth, got {growth:.1} ({per_request:?})"
        );
    }

    #[test]
    fn tolerates_f_crashed_backups() {
        let mut cluster = PbftCluster::new(4, 1, 10, NetConfig::lan(), 4);
        cluster.sim.crash_at(NodeId(3), Time::ZERO);
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
        cluster.check_state_agreement();
    }

    #[test]
    fn primary_crash_triggers_view_change() {
        let mut cluster = PbftCluster::new(4, 1, 10, NetConfig::lan(), 5);
        cluster.sim.run_until(Time::from_millis(10));
        cluster.sim.crash_at(NodeId(0), Time::from_millis(11));
        assert!(
            cluster.run(Time::from_secs(30)),
            "only {} completed",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 10);
        cluster.check_state_agreement();
        let vc = cluster
            .replicas()
            .map(|r| r.voter.view_changes)
            .max()
            .unwrap();
        assert!(vc >= 1, "view change must have happened");
        let view = cluster.replicas().map(|r| r.voter.view).max().unwrap();
        assert!(view >= 1);
    }

    #[test]
    fn replicas_that_disagree_on_the_view_do_not_bounce_a_relay() {
        // Node 0 sits alone in view 3 (primary: node 3) while node 3 is in
        // view 0 (primary: node 0), as after a loss burst cut node 0 off.
        // The client's request reaches node 0, which relays it to node 3,
        // which relayed it straight back, and so on until a view change.
        // With every message duplicated each bounce doubled the traffic: a
        // `pbft+batch` nemesis trial under a duplicate burst (seed 5) sent
        // 80 million requests. A replica now relays another replica's relay
        // only the first time it sees the request.
        let net = NetConfig::lan().with_duplicate_prob(1.0);
        let mut cluster = PbftCluster::new(4, 1, 1, net, 5);
        if let PbftProc::Replica(r) = cluster.sim.node_mut(NodeId(0)) {
            r.voter.view = 3;
        }
        cluster.sim.set_max_events(1_000_000);
        cluster.sim.run_until(Time::from_millis(40));
        let requests = cluster.sim.metrics().kind("request");
        assert!(requests < 100, "{requests} requests in 40 ms");
    }

    #[test]
    fn equivocating_primary_cannot_split_the_cluster() {
        // The primary sends different commands (hence digests) to different
        // backups for the same sequence number. Prepares won't match, the
        // request stalls, a view change fires, and an honest primary takes
        // over. Safety is never violated.
        let mut cluster = PbftCluster::new(4, 1, 8, NetConfig::lan(), 6);
        cluster
            .sim
            .set_filter(NodeId(0), Box::new(equivocation_filter()));
        assert!(
            cluster.run(Time::from_secs(60)),
            "honest primary must eventually serve: {}",
            cluster.total_completed()
        );
        cluster.check_state_agreement();
        // A view change happened to escape the malicious primary.
        let view = cluster.replicas().map(|r| r.voter.view).max().unwrap();
        assert!(view >= 1, "should have left view 0");
    }

    #[test]
    fn checkpoints_garbage_collect_the_log() {
        let mut cluster = PbftCluster::new(4, 1, 40, NetConfig::lan(), 7);
        assert!(cluster.run(Time::from_secs(30)));
        // Let checkpoint traffic settle.
        cluster.sim.run_for(200_000);
        for r in cluster.replicas() {
            assert!(
                r.low_water >= CHECKPOINT_INTERVAL,
                "stable checkpoint expected, low_water={}",
                r.low_water
            );
            assert!(
                (r.log_len() as u64) < 40,
                "log should have been GC'd: {} entries",
                r.log_len()
            );
        }
    }

    #[test]
    fn byzantine_backup_noise_is_harmless() {
        // A backup spams wrong prepares/commits; quorums of 2f+1 honest
        // replicas are unaffected.
        let mut cluster = PbftCluster::new(4, 1, 10, NetConfig::lan(), 8);
        cluster.sim.set_filter(
            NodeId(3),
            Box::new(FnFilter(
                |_f, _t: NodeId, msg: &PbftWire, _r: &mut rand_chacha::ChaCha20Rng| {
                    let digest = Digest(0xBAD);
                    let noise = match msg {
                        Envelope::Peer(PbftMsg::Prepare { view, n, .. }) => PbftMsg::Prepare {
                            view: *view,
                            n: *n,
                            digest,
                        },
                        Envelope::Peer(PbftMsg::Commit { view, n, .. }) => PbftMsg::Commit {
                            view: *view,
                            n: *n,
                            digest,
                        },
                        _ => return FilterAction::Deliver,
                    };
                    FilterAction::Replace(noise.into())
                },
            )),
        );
        assert!(cluster.run(Time::from_secs(20)));
        assert_eq!(cluster.total_completed(), 10);
        cluster.check_state_agreement();
    }

    #[test]
    fn checkpoint_interval_ablation() {
        // Smaller checkpoint intervals keep the retained log smaller (at
        // the cost of more checkpoint traffic) — the F12 ablation.
        let run = |interval: u64| {
            let mut cluster = PbftCluster::new(4, 1, 40, NetConfig::lan(), 12);
            for i in 0..4 {
                if let PbftProc::Replica(r) = cluster.sim.node_mut(NodeId(i)) {
                    *r = PbftReplica::new(4).with_checkpoint_interval(interval);
                }
            }
            assert!(cluster.run(Time::from_secs(30)));
            cluster.sim.run_for(300_000);
            let max_log = cluster.replicas().map(|r| r.log_len()).max().unwrap();
            let ckpt_msgs = cluster.sim.metrics().kind("checkpoint");
            (max_log, ckpt_msgs)
        };
        let (log_small, msgs_small) = run(4);
        let (log_large, msgs_large) = run(32);
        assert!(
            log_small <= log_large,
            "tighter checkpoints should retain less: {log_small} vs {log_large}"
        );
        assert!(
            msgs_small > msgs_large,
            "tighter checkpoints cost more traffic: {msgs_small} vs {msgs_large}"
        );
    }

    #[test]
    fn multiple_clients() {
        let mut cluster = PbftCluster::new(4, 3, 10, NetConfig::lan(), 9);
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 30);
        cluster.check_state_agreement();
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = PbftCluster::new(4, 1, 10, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(10));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(11), run(11));
    }

    /// Per-command `(client, seq)` sequence of the most-executed replica,
    /// flattened across batches in execution order.
    fn flattened_origins(cluster: &PbftCluster) -> Vec<(u32, u64)> {
        let log = cluster.decided_log();
        let best = log
            .iter()
            .map(|e| e.node)
            .fold((0u32, 0usize), |(best, best_len), node| {
                let len = log.iter().filter(|e| e.node == node).count();
                if len > best_len {
                    (node, len)
                } else {
                    (best, best_len)
                }
            });
        let mut mine: Vec<&DecidedEntry> = log.iter().filter(|e| e.node == best.0).collect();
        mine.sort_by_key(|e| e.index);
        mine.iter().filter_map(|e| e.origin).collect()
    }

    #[test]
    fn batched_runs_execute_the_same_command_sequence() {
        // Same seed + workload ⇒ the flattened executed command sequence is
        // identical whatever the batch shape. Synchronous delays keep the
        // arrival order independent of per-message RNG draws.
        let run = |batch: BatchConfig| {
            let mut cluster = PbftCluster::new_with(
                4,
                2,
                20,
                NetConfig::synchronous(),
                42,
                batch,
                WorkloadMode::Closed,
            );
            // Keep every executed slot: checkpoint GC would otherwise free
            // the prefix we want to compare.
            for i in 0..4 {
                if let PbftProc::Replica(r) = cluster.sim.node_mut(NodeId(i)) {
                    *r = PbftReplica::new_with(4, batch).with_checkpoint_interval(1_000);
                }
            }
            assert!(cluster.run(Time::from_secs(60)), "batch {batch:?} stalled");
            flattened_origins(&cluster)
        };
        let baseline = run(BatchConfig::unbatched());
        assert_eq!(baseline.len(), 40);
        for batch in [
            BatchConfig::new(4, 200, 2),
            BatchConfig::new(8, 500, 4),
            BatchConfig::new(2, 0, 1),
        ] {
            assert_eq!(run(batch), baseline, "batch {batch:?} diverged");
        }
    }

    #[test]
    fn primary_crash_under_batched_config_recovers() {
        // A primary dies with batches in flight; the view change re-proposes
        // prepared batches and client retries re-inject the rest.
        let mut cluster = PbftCluster::new_with(
            4,
            1,
            10,
            NetConfig::lan(),
            5,
            BatchConfig::new(4, 300, 2),
            WorkloadMode::Closed,
        );
        cluster.sim.run_until(Time::from_millis(10));
        cluster.sim.crash_at(NodeId(0), Time::from_millis(11));
        assert!(
            cluster.run(Time::from_secs(60)),
            "only {} completed",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 10);
        cluster.check_state_agreement();
    }

    #[test]
    fn open_loop_clients_build_real_batches() {
        // Open-loop arrivals outpace the pipeline window, so the primary's
        // queue fills and multi-command batches actually form.
        let mut cluster = PbftCluster::new_with(
            4,
            2,
            30,
            NetConfig::lan(),
            9,
            BatchConfig::new(8, 400, 2),
            WorkloadMode::Open { interval_us: 200 },
        );
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 60);
        cluster.check_state_agreement();
        let h = &cluster.sim.metrics().batch_size;
        assert!(
            h.max().unwrap_or(0) > 1,
            "batches never formed: max {:?}",
            h.max()
        );
    }

    #[test]
    fn cluster_driver_trait_drives_and_harvests() {
        let mut cluster = PbftCluster::from_config(&DriverConfig::new(4, 2, 5, 7));
        let drv: &mut dyn ClusterDriver = &mut cluster;
        assert_eq!(drv.protocol(), "pbft");
        assert_eq!(drv.n_replicas(), 4);
        assert!(drv.run(Time::from_secs(10)));
        assert!(drv.all_done());
        assert_eq!(drv.completed_ops(), 10);
        assert_eq!(drv.state_digests().len(), 4);
        assert_eq!(drv.history().len(), 10);
        assert_eq!(drv.issued().len(), 10);
        assert_eq!(drv.latencies().count(), 10);
        let log = drv.decided_log();
        assert!(
            log.iter()
                .filter(|e| e.node == 0 && e.origin.is_some())
                .count()
                >= 10
        );
        assert!(drv.metrics().sent > 0);
    }

    #[test]
    fn byzantine_window_hooks_install_and_clear() {
        // PBFT's declared lie, installed as the nemesis installs it, stalls
        // view 0; after the window closes and a view change lands, the
        // workload completes.
        let mut cluster = PbftCluster::from_config(&DriverConfig::new(4, 1, 8, 6));
        let lie = Pbft::equivocation_filter().expect("PBFT declares a lie");
        cluster.sim.set_filter(NodeId(0), lie);
        cluster.run_until(Time::from_millis(300));
        cluster.sim.clear_filter(NodeId(0));
        assert!(cluster.run(Time::from_secs(60)), "never recovered");
        cluster.check_state_agreement();
    }
}
