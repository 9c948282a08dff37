//! CheapBFT (Kapitza et al., EuroSys '12): resource-efficient BFT with
//! trusted hardware and active/passive replication.
//!
//! The trusted **CASH** subsystem (modelled by [`crate::sim_crypto::Usig`])
//! assigns unique counter values and creates/validates message
//! certificates; it can fail only by crashing. That lets the normal-case
//! protocol run with just **`f+1` active replicas**:
//!
//! 1. **CheapTiny** — the default protocol: only the `f+1` active replicas
//!    agree (prepare/commit with CASH certificates); the `f` passive
//!    replicas merely receive state *updates*.
//! 2. **CheapSwitch** — on any suspected fault a replica (or client)
//!    broadcasts **PANIC**; replicas exchange the abort history and switch.
//! 3. **MinBFT** — the fallback involving all `2f+1` replicas; eventually
//!    the system may switch back to CheapTiny (not modelled — the
//!    experiment measures the cost of the switch itself).

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::{
    ClientMsg, Cluster, Command, DedupKvMachine, Envelope, KvCommand, Session, SmrProtocol,
};
use simnet::{CncPhase, Context, Node, NodeId, Timer};

/// Span protocol label; instances are sequence numbers.
const SPAN: &str = "cheapbft";

use crate::shell::{
    decided_commands, peers, replica_ids, take_ready, Admission, Executor, VotingClient, Watchdog,
    VIEW_TIMER,
};
use crate::sim_crypto::{digest_of, Usig, UsigCert, UsigVerifier};

/// Which protocol the cluster is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// CheapTiny: `f+1` active replicas.
    CheapTiny,
    /// Fallback: all `2f+1` replicas, MinBFT-style.
    MinBft,
}

/// CheapBFT messages between replicas, and the client's alarm.
#[derive(Clone, Debug)]
pub enum CheapMsg {
    /// Primary's CASH-certified ordering. The sequence number restarts at
    /// 1 in each protocol epoch; the CASH certificate attests the
    /// `(protocol, seq, command)` binding. (MinBFT's stricter counter≡seq
    /// binding lives in `crate::minbft`; CheapBFT's threat experiments here
    /// cover crash and silent faults.)
    Prepare {
        /// Protocol under which this was sent.
        proto: Protocol,
        /// Epoch-local sequence number.
        seq: u64,
        /// CASH certificate over `(proto, seq, cmd)`.
        ui: UsigCert,
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Active replica's CASH-certified endorsement (to the primary).
    Commit {
        /// Protocol.
        proto: Protocol,
        /// Sequence being endorsed.
        n: u64,
        /// Endorser's certificate.
        ui: UsigCert,
    },
    /// Decision notification (also the state *update* for passive
    /// replicas, who apply it without having participated in agreement).
    Update {
        /// Protocol.
        proto: Protocol,
        /// Sequence.
        n: u64,
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Fault suspicion: triggers CheapSwitch.
    Panic,
    /// Abort-history broadcast during CheapSwitch: the sender's executed
    /// history, so everyone resumes MinBFT from a common state.
    SwitchHistory {
        /// Executed commands, in order.
        history: Vec<Command<KvCommand>>,
    },
}

impl simnet::Payload for CheapMsg {
    fn kind(&self) -> &'static str {
        match self {
            CheapMsg::Prepare { .. } => "prepare",
            CheapMsg::Commit { .. } => "commit",
            CheapMsg::Update { .. } => "update",
            CheapMsg::Panic => "panic",
            CheapMsg::SwitchHistory { .. } => "switch",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| match self {
            CheapMsg::Prepare { cmd, .. } | CheapMsg::Update { cmd, .. } => put_command(w, cmd),
            CheapMsg::SwitchHistory { history } => history.iter().for_each(|c| put_command(w, c)),
            _ => {}
        })
    }
}

/// The CheapBFT wire: client messages beside [`CheapMsg`].
type Wire = Envelope<CheapMsg>;

#[derive(Debug, Default)]
struct CheapInstance {
    cmd: Option<Command<KvCommand>>,
    commits: BTreeSet<NodeId>,
    decided: bool,
    executed: bool,
}

/// The primary never changes: a fault switches the protocol, not the leader.
const PRIMARY: NodeId = NodeId(0);

/// A CheapBFT replica. Nodes `0..=f` are initially active; the rest are
/// passive.
pub struct CheapReplica {
    n_replicas: usize,
    /// Primary's epoch-local sequence counter.
    next_seq: u64,
    /// Fault bound `f = ⌊(n−1)/2⌋`.
    pub f: usize,
    /// Current protocol.
    pub proto: Protocol,
    usig: Usig,
    verifier: UsigVerifier,
    instances: BTreeMap<u64, CheapInstance>,
    /// The machine and the executed history (also the abort history of a
    /// switch); its frontier restarts with the protocol epoch.
    pub exec: Executor,
    /// Watches relayed requests; it is never disarmed, and firing with one
    /// still unexecuted raises `Panic`.
    progress: Watchdog,
    /// Whether this replica already panicked.
    panicked: bool,
}

impl CheapReplica {
    /// Creates a replica for a `2f+1` cluster. Its CASH counter is bound to
    /// the node id when the node starts.
    pub fn new(n_replicas: usize) -> Self {
        CheapReplica {
            n_replicas,
            next_seq: 0,
            f: (n_replicas - 1) / 2,
            proto: Protocol::CheapTiny,
            usig: Usig::new(NodeId(0)),
            verifier: UsigVerifier::new(),
            instances: BTreeMap::new(),
            exec: Executor::default(),
            progress: Watchdog::default(),
            panicked: false,
        }
    }

    /// The active replica set under the current protocol.
    pub fn active_set(&self) -> Vec<NodeId> {
        match self.proto {
            Protocol::CheapTiny => replica_ids(self.f + 1).collect(),
            Protocol::MinBft => replica_ids(self.n_replicas).collect(),
        }
    }

    /// Is `id` active right now?
    pub fn is_active(&self, id: NodeId) -> bool {
        self.active_set().contains(&id)
    }

    fn try_execute(&mut self, ctx: &mut Context<Wire>) {
        let instances = &mut self.instances;
        let ready = |n| {
            let i = instances.get_mut(&n)?;
            take_ready(&i.cmd, i.decided, &mut i.executed)
        };
        self.exec.drain(ctx, ready, |_, _, _| {});
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, cmd: Command<KvCommand>) {
        let me = ctx.id();
        let ordered = self.instances.values().filter(|i| !i.executed);
        let ordered = ordered.filter_map(|i| i.cmd.as_ref());
        match self.exec.admit(ctx, &cmd, PRIMARY, ordered) {
            Admission::Handled => {}
            Admission::Relayed => self.progress.arm(ctx, 60_000),
            Admission::Order => {
                self.next_seq += 1;
                let n = self.next_seq;
                ctx.span_open(SPAN, n, 0);
                ctx.phase(SPAN, n, 0, CncPhase::ValueDiscovery);
                let proto = self.proto;
                let ui = self.usig.create(digest_of(&(proto_tag(proto), n, &cmd)));
                let inst = self.instances.entry(n).or_default();
                inst.cmd = Some(cmd.clone());
                inst.commits.insert(me);
                // Prepare goes only to the *active* replicas.
                let targets = self.active_set().into_iter().filter(|id| *id != me);
                let prepare = CheapMsg::Prepare {
                    proto,
                    seq: n,
                    ui,
                    cmd,
                };
                ctx.send_many(targets, prepare.into());
            }
        }
    }

    fn panic(&mut self, ctx: &mut Context<Wire>) {
        if self.panicked {
            return;
        }
        self.panicked = true;
        let me = ctx.id();
        ctx.send_many(peers(self.n_replicas, me), CheapMsg::Panic.into());
        // Broadcast our abort history so everyone converges.
        let history = self.exec.history().to_vec();
        let switch = CheapMsg::SwitchHistory { history };
        ctx.send_many(peers(self.n_replicas, me), switch.into());
    }

    fn enter_minbft(&mut self) {
        if self.proto == Protocol::MinBft {
            return;
        }
        self.proto = Protocol::MinBft;
        self.instances.clear();
        // Sequence numbering restarts in the new protocol epoch.
        self.next_seq = 0;
        self.exec.executed_upto = 0;
    }
}

impl Node for CheapReplica {
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
            CheapMsg::Prepare {
                proto,
                seq,
                ui,
                cmd,
            } => {
                if proto != self.proto || from != PRIMARY || !self.is_active(me) {
                    return;
                }
                let attested = digest_of(&(proto_tag(proto), seq, &cmd));
                if !self.verifier.verify_monotonic(&ui, attested) {
                    return;
                }
                let inst = self.instances.entry(seq).or_default();
                if inst.cmd.is_none() {
                    ctx.span_open(SPAN, seq, 0);
                    ctx.phase(SPAN, seq, 0, CncPhase::Agreement);
                }
                inst.cmd = Some(cmd);
                inst.commits.insert(from);
                let ui = self.usig.create(digest_of(&(proto_tag(proto), seq)));
                ctx.send(from, CheapMsg::Commit { proto, n: seq, ui }.into());
            }

            CheapMsg::Commit { proto, n, ui } => {
                if proto != self.proto || PRIMARY != me {
                    return;
                }
                let attested = digest_of(&(proto_tag(proto), n));
                if !self.verifier.verify_monotonic(&ui, attested) {
                    return;
                }
                // In CheapTiny **all** `f+1` active replicas must endorse (no
                // spare redundancy — that is the point); in MinBFT mode,
                // `f+1` of `2f+1`.
                let inst = self.instances.entry(n).or_default();
                inst.commits.insert(from);
                if inst.commits.len() > self.f && !inst.decided {
                    inst.decided = true;
                    ctx.phase(SPAN, n, 0, CncPhase::Decision);
                    ctx.span_close(SPAN, n, 0);
                    let cmd = inst.cmd.clone().expect("prepared");
                    // Updates serve both as decide for actives and state
                    // transfer for passives.
                    let update = CheapMsg::Update { proto, n, cmd };
                    ctx.send_many(peers(self.n_replicas, me), update.into());
                    self.try_execute(ctx);
                }
            }

            CheapMsg::Update { proto, n, cmd } => {
                if proto != self.proto || from != PRIMARY {
                    return;
                }
                let inst = self.instances.entry(n).or_default();
                inst.cmd.get_or_insert(cmd);
                if !inst.decided {
                    ctx.phase(SPAN, n, 0, CncPhase::Decision);
                    ctx.span_close(SPAN, n, 0);
                }
                inst.decided = true;
                self.try_execute(ctx);
            }

            CheapMsg::Panic => {
                // Any panic triggers the switch protocol.
                self.panic(ctx);
                self.enter_minbft();
            }

            CheapMsg::SwitchHistory { history } => {
                // Adopt any commands we miss, then run under MinBFT.
                self.exec.replay(ctx, history);
                self.enter_minbft();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        if timer.kind == VIEW_TIMER {
            self.progress.fired();
            if self.exec.has_pending() {
                // Something is stuck: PANIC.
                self.panic(ctx);
                self.enter_minbft();
            }
        }
    }
}

fn proto_tag(p: Protocol) -> u8 {
    match p {
        Protocol::CheapTiny => 0,
        Protocol::MinBft => 1,
    }
}

/// CheapBFT as a log protocol of the SMR shell.
pub struct CheapBft;

impl SmrProtocol for CheapBft {
    const NAME: &'static str = "cheapbft";
    type Shape = usize;
    type Peer = CheapMsg;
    type Replica = CheapReplica;
    type Client = VotingClient<CheapMsg>;

    /// One request per sequence number: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> CheapReplica {
        CheapReplica::new(n_replicas)
    }

    /// The client accepts an output at `f+1` matching replies. It is also
    /// CheapBFT's fault detector: a missing reply raises `Panic` at all
    /// replicas.
    fn client(n_replicas: usize, session: Session) -> VotingClient<CheapMsg> {
        VotingClient::new(session, n_replicas, (n_replicas - 1) / 2 + 1, 150_000)
            .with_alarm(CheapMsg::Panic)
    }

    fn is_leader(_replica: &CheapReplica, id: NodeId) -> bool {
        PRIMARY == id
    }

    fn applied_len(replica: &CheapReplica) -> u64 {
        replica.exec.history().len() as u64
    }

    fn machine(replica: &CheapReplica) -> &DedupKvMachine {
        replica.exec.machine()
    }

    fn decided(replica: &CheapReplica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_commands(replica.exec.history(), node, out);
    }
}

/// A ready-to-run CheapBFT cluster (`2f+1` replicas).
pub type CheapCluster = Cluster<CheapBft>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;
    use simnet::{NetConfig, Time};

    #[test]
    fn cheaptiny_uses_only_f_plus_one_actives() {
        // n = 3 (f = 1): actives = {0, 1}; node 2 is passive.
        let mut cluster = CheapCluster::new(3, 1, 10, NetConfig::lan(), 1);
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
        // No panic, still CheapTiny.
        for r in cluster.replicas() {
            assert_eq!(r.proto, Protocol::CheapTiny);
        }
        // The passive replica never sent a prepare/commit...
        let m = cluster.sim.metrics();
        // prepares: primary → 1 active backup (1 per req); commits: 1 per
        // req. Updates: to both others.
        assert_eq!(m.kind("prepare"), 10);
        assert_eq!(m.kind("commit"), 10);
        assert_eq!(m.kind("update"), 20);
        assert_eq!(m.kind("panic"), 0);
    }

    #[test]
    fn passive_replica_catches_up_via_updates() {
        let mut cluster = CheapCluster::new(3, 1, 10, NetConfig::lan(), 2);
        assert!(cluster.run(Time::from_secs(10)));
        cluster.sim.run_for(300_000);
        let executed: Vec<usize> = cluster.replicas().map(|r| r.exec.history().len()).collect();
        assert!(
            executed.iter().all(|&e| e == 10),
            "passive replica lags: {executed:?}"
        );
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .map(|r| r.exec.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn active_backup_crash_triggers_switch_to_minbft() {
        // Active backup (node 1) dies: CheapTiny can't form its all-active
        // quorum; the client panics; the cluster switches to MinBFT and
        // completes with {0, 2}.
        let mut cluster = CheapCluster::new(3, 1, 6, NetConfig::lan(), 3);
        cluster.sim.run_until(Time::from_millis(5));
        cluster.sim.crash_at(NodeId(1), Time::from_millis(6));
        assert!(
            cluster.run(Time::from_secs(60)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 6);
        for (i, r) in cluster.replicas().enumerate() {
            if cluster.sim.is_alive(NodeId::from(i)) {
                assert_eq!(r.proto, Protocol::MinBft, "replica {i} didn't switch");
            }
        }
        assert!(cluster.sim.metrics().kind("panic") > 0);
        assert!(cluster.sim.metrics().kind("switch") > 0);
    }

    #[test]
    fn message_savings_versus_full_participation() {
        // CheapTiny's normal case touches f+1 replicas; MinBFT's touches
        // 2f+1. Compare messages per request, fault-free.
        let mut cheap = CheapCluster::new(3, 1, 20, NetConfig::lan(), 4);
        assert!(cheap.run(Time::from_secs(10)));
        let cheap_msgs = cheap.sim.metrics().sent as f64 / 20.0;
        let mut min = crate::minbft::MinCluster::new(3, 1, 20, NetConfig::lan(), 4);
        assert!(min.run(Time::from_secs(10)));
        let min_msgs = min.sim.metrics().sent as f64 / 20.0;
        assert!(
            cheap_msgs < min_msgs,
            "CheapTiny ({cheap_msgs}) should beat MinBFT ({min_msgs})"
        );
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = CheapCluster::new(3, 1, 8, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(10));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(5), run(5));
    }
}
