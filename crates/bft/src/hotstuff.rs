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
//!   commands occupy the four phases simultaneously (the pipeline figure);
//!   [`HsConfig::window`] lets each client keep that many in flight.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::BatchConfig;
use consensus_core::{
    Client, ClientMsg, Cluster, ClusterShape, Command, DedupKvMachine, Envelope, Harvest,
    KvCommand, Quorum, Session, Silence, SmrProtocol, Target,
};
use simnet::{CncPhase, Context, Node, NodeId};

/// Span protocol label; instances are HotStuff view/instance numbers.
const SPAN: &str = "hotstuff";

use crate::shell::{answer_cached, replica_ids, take_ready, Executor};
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

/// HotStuff messages between replicas.
#[derive(Clone, Debug)]
pub enum HsMsg {
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

    /// A QC is constant-size thanks to threshold signatures: the envelope.
    fn size_bytes(&self) -> usize {
        wire_size(|w| match self {
            HsMsg::Propose { cmd, .. } | HsMsg::QcAnnounce { cmd: Some(cmd), .. } => {
                put_command(w, cmd)
            }
            _ => {}
        })
    }
}

/// The HotStuff wire: client messages beside [`HsMsg`].
type Wire = Envelope<HsMsg>;

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
    /// Commands each closed-loop client keeps in flight (pipelining needs
    /// more than one to show gains).
    pub window: usize,
}

impl HsConfig {
    /// Non-pipelined, rotating-leader configuration (the slide default).
    pub fn rotating(n_replicas: usize) -> Self {
        HsConfig {
            n_replicas,
            rotate: true,
            pipeline: false,
            window: 1,
        }
    }

    /// Pipelined fixed-leader configuration (the pipeline figure).
    pub fn pipelined(n_replicas: usize) -> Self {
        HsConfig {
            n_replicas,
            rotate: false,
            pipeline: true,
            window: 1,
        }
    }
}

impl ClusterShape for HsConfig {
    fn n_replicas(&self) -> usize {
        self.n_replicas
    }
}

/// The slide default: rotating leaders, no pipelining.
impl From<usize> for HsConfig {
    fn from(n_replicas: usize) -> Self {
        HsConfig::rotating(n_replicas)
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
    /// The machine, the executed commands and the highest executed instance.
    pub exec: Executor,
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
            exec: Executor::default(),
            led: 0,
        }
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

    fn maybe_start_instances(&mut self, ctx: &mut Context<Wire>) {
        loop {
            let n = self.next_instance.max(self.exec.executed_upto) + 1;
            if n > self.exec.executed_upto + self.window() {
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
            ctx.send_many(
                replica_ids(self.cfg.n_replicas),
                HsMsg::Propose { n, cmd }.into(),
            );
        }
    }

    fn on_qc_complete(&mut self, ctx: &mut Context<Wire>, n: u64, phase: HsPhase) {
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
        let announce = HsMsg::QcAnnounce { n, phase, qc, cmd };
        ctx.send_many(replica_ids(self.cfg.n_replicas), announce.into());
    }

    fn advance_phase(&mut self, ctx: &mut Context<Wire>, n: u64, completed: HsPhase) {
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
            ctx.send(
                leader,
                HsMsg::Vote {
                    n,
                    phase: next,
                    digest,
                }
                .into(),
            );
        } else {
            self.try_execute(ctx);
            // Leader of the next instance may now start (rotation) and the
            // pipeline may slide.
            self.maybe_start_instances(ctx);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<Wire>) {
        let (instances, queued) = (&mut self.instances, &mut self.queued);
        self.exec.drain(
            ctx,
            |n| {
                let i = instances.get_mut(&n)?;
                take_ready(&i.cmd, i.decided, &mut i.executed)
            },
            |_, _, cmd| {
                queued.remove(&(cmd.client, cmd.seq));
            },
        );
    }
}

impl Node for HsReplica {
    type Msg = Wire;

    fn on_start(&mut self, _ctx: &mut Context<Wire>) {}

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(ClientMsg::Request(cmd)) => {
                if !answer_cached(self.exec.machine(), ctx, &cmd) {
                    if self.queued.insert((cmd.client, cmd.seq)) {
                        self.queue.push_back(cmd);
                    }
                    self.maybe_start_instances(ctx);
                }
                return;
            }
            Envelope::Client(_) => return,
        };
        match msg {
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
                    }
                    .into(),
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
        }
    }
}

/// HotStuff as a log protocol of the SMR shell.
pub struct HotStuff;

impl SmrProtocol for HotStuff {
    const NAME: &'static str = "hotstuff";
    type Shape = HsConfig;
    type Peer = HsMsg;
    type Replica = HsReplica;
    type Accept = Quorum;

    /// One command per instance: `batch` is ignored.
    fn replica(cfg: HsConfig, _batch: BatchConfig) -> HsReplica {
        HsReplica::new(cfg)
    }

    /// First attempts go to every replica: the leader rotates, so there is
    /// no one to aim at. Decides carry threshold QCs, but the client still
    /// waits for `f+1` matching replies, like PBFT's.
    fn client(cfg: HsConfig, session: Session) -> Client<HsMsg> {
        let quorum = Quorum::of((cfg.n_replicas - 1) / 3 + 1);
        let silence = Silence::Broadcast(200_000, None);
        let session = session.with_window(cfg.window);
        Client::new(session, cfg.n_replicas, Target::All, silence, quorum)
    }

    fn is_leader(replica: &HsReplica, id: NodeId) -> bool {
        replica.leader_of(replica.exec.executed_upto + 1) == id
    }

    fn applied_len(replica: &HsReplica) -> u64 {
        replica.exec.executed_upto
    }

    fn machine(replica: &HsReplica) -> &DedupKvMachine {
        replica.exec.machine()
    }

    fn decided(replica: &HsReplica, node: u32, out: &mut Harvest) {
        out.commands(node, replica.exec.history());
    }
}

/// A ready-to-run HotStuff cluster (`3f+1` replicas).
pub type HsCluster = Cluster<HotStuff>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;
    use simnet::{NetConfig, Time};

    #[test]
    fn commits_with_rotating_leaders() {
        let mut cluster = HsCluster::new(HsConfig::rotating(4), 1, 12, NetConfig::lan(), 1);
        assert!(
            cluster.run(Time::from_secs(20)),
            "{}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 12);
        // Every replica led some instances (rotation).
        let leaders_used = cluster.replicas().filter(|r| r.led > 0).count();
        assert_eq!(leaders_used, 4, "all four replicas should lead");
    }

    #[test]
    fn linear_message_complexity_vs_quadratic() {
        // messages/command grows linearly with n (each phase is n→1 or
        // 1→n), unlike PBFT.
        let mut per_cmd = Vec::new();
        for n in [4usize, 7, 10] {
            let mut cluster = HsCluster::new(HsConfig::rotating(n), 1, 10, NetConfig::lan(), 3);
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
        let mut cluster = HsCluster::new(HsConfig::rotating(4), 1, 20, NetConfig::lan(), 4);
        assert!(cluster.run(Time::from_secs(30)));
        cluster.sim.run_for(200_000);
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.exec.executed_upto >= 20)
            .map(|r| r.exec.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn pipeline_improves_throughput() {
        let run = |cfg: HsConfig, window: usize| {
            let cfg = HsConfig { window, ..cfg };
            let mut cluster = HsCluster::new(cfg, 1, 30, NetConfig::lan(), 5);
            assert!(cluster.run(Time::from_secs(60)));
            cluster.sim.now().as_micros()
        };
        let sequential = run(
            HsConfig {
                n_replicas: 4,
                rotate: false,
                pipeline: false,
                window: 1,
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
                window: 1,
            },
            1,
            8,
            NetConfig::lan(),
            6,
        );
        cluster.sim.crash_at(NodeId(2), Time::ZERO);
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 8);
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = HsCluster::new(HsConfig::rotating(4), 1, 8, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(20));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn a_lost_request_is_rebroadcast_instead_of_stalling_the_run() {
        // 2 % loss, seed 1: the only message lost before the first retry is
        // the second command's `Request` to the fixed leader (at 5.1 ms), so
        // nobody ever proposes it. The retry timer rebroadcasts it.
        let fixed = HsConfig {
            n_replicas: 4,
            rotate: false,
            pipeline: false,
            window: 1,
        };
        let lossy = NetConfig::lan().with_drop_prob(0.02);
        let mut cluster = HsCluster::new(fixed, 1, 10, lossy, 1);
        assert!(
            cluster.run(Time::from_secs(20)),
            "stalled at {}",
            cluster.total_completed()
        );
        assert!(cluster.sim.metrics().dropped_loss > 0);
    }

    #[test]
    fn f_forged_replies_plus_one_honest_do_not_complete_a_request() {
        use crate::shell::testkit::{client, sim};
        use consensus_core::WorkloadMode;

        let reply = |value: &str| {
            let output = consensus_core::KvResponse::Value(Some(value.into()));
            Envelope::Client(ClientMsg::Reply { seq: 0, output })
        };
        let mut sim = sim(4, 1, WorkloadMode::Closed, |session| {
            HotStuff::client(HsConfig::rotating(4), session)
        });
        // f = 1 Byzantine replica lies; one honest replica answers.
        sim.inject(NodeId(1), NodeId(4), reply("forged"), Time(1_000));
        sim.inject(NodeId(2), NodeId(4), reply("honest"), Time(1_001));
        sim.run_until(Time(5_000));
        assert!(!client(&sim).session.done(), "f+1 replies must *match*");
        sim.inject(NodeId(3), NodeId(4), reply("honest"), Time(6_000));
        sim.run_until(Time(10_000));
        assert!(client(&sim).session.done());
    }
}
