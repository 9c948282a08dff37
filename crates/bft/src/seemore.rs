//! SeeMoRe (Amiri et al., ICDE 2020): hybrid-cloud consensus with `m`
//! malicious and `c` crash faults.
//!
//! Setting: nodes in the **private cloud** are trusted but few (crash-only);
//! nodes in the **public cloud** are plentiful but untrusted (Byzantine).
//! Network size `3m + 2c + 1`. Three modes trade load, latency and message
//! complexity:
//!
//! * **Mode 1 — trusted primary, centralized coordination**: the primary is
//!   private; two phases (primary→backups proposal, backups→primary
//!   decision making); quorum `2m + c + 1`; `O(n)` messages.
//! * **Mode 2 — trusted primary, decentralized coordination**: the primary
//!   is still private but the private cloud is *not* involved in phase 2:
//!   `3m + 1` public **proxies** decide among themselves; quorum `2m + 1`;
//!   `O(n²)`; two phases. Goal: reduce load on the private cloud.
//! * **Mode 3 — untrusted primary, decentralized coordination**: the
//!   primary is public, so an extra *proposal validation* phase guards
//!   against equivocation; three phases; quorum `2m + 1`; `O(n²)`.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::{
    Client, ClientMsg, Cluster, ClusterShape, Command, DedupKvMachine, Envelope, KvCommand, Quorum,
    Session, Silence, SmrProtocol, Target,
};
use simnet::{CncPhase, Context, Node, NodeId};

/// Span protocol label; instances are sequence numbers.
const SPAN: &str = "seemore";

use crate::shell::{decided_commands, peers, take_ready, Admission, Executor};
use crate::sim_crypto::{digest_of, Digest};

/// The three SeeMoRe operating modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Trusted primary, centralized coordination.
    One,
    /// Trusted primary, decentralized (public-proxy) coordination.
    Two,
    /// Untrusted primary, decentralized coordination.
    Three,
}

/// Cluster parameters.
#[derive(Clone, Copy, Debug)]
pub struct SeeMoReConfig {
    /// Max malicious (public-cloud) faults.
    pub m: usize,
    /// Max crash (private-cloud) faults.
    pub c: usize,
    /// Operating mode.
    pub mode: Mode,
}

impl SeeMoReConfig {
    /// Total nodes: `3m + 2c + 1`.
    pub fn n(&self) -> usize {
        3 * self.m + 2 * self.c + 1
    }

    /// Private-cloud size (`2c + 1` trusted nodes: enough to survive `c`
    /// crashes).
    pub fn n_private(&self) -> usize {
        2 * self.c + 1
    }

    /// The decision quorum for this mode.
    pub fn quorum(&self) -> usize {
        match self.mode {
            Mode::One => 2 * self.m + self.c + 1,
            Mode::Two | Mode::Three => 2 * self.m + 1,
        }
    }

    /// Communication phases in the common case.
    pub fn phases(&self) -> usize {
        match self.mode {
            Mode::One | Mode::Two => 2,
            Mode::Three => 3,
        }
    }

    /// Nodes `0..n_private` are private; the rest are public.
    pub fn is_private(&self, id: NodeId) -> bool {
        id.index() < self.n_private()
    }

    /// The primary: private node 0 in modes 1–2, first public node in
    /// mode 3.
    pub fn primary(&self) -> NodeId {
        match self.mode {
            Mode::One | Mode::Two => NodeId(0),
            Mode::Three => NodeId::from(self.n_private()),
        }
    }

    /// The proxy set for decentralized modes: `3m + 1` nodes — the public
    /// cloud plus one private node to make up the count.
    pub fn proxies(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = (self.n_private()..self.n()).map(NodeId::from).collect();
        while v.len() < 3 * self.m + 1 {
            v.insert(
                0,
                NodeId::from(self.n_private() - 1 - (3 * self.m + 1 - v.len() - 1)),
            );
        }
        v.truncate(3 * self.m + 1);
        v
    }
}

impl ClusterShape for SeeMoReConfig {
    fn n_replicas(&self) -> usize {
        self.n()
    }
}

/// The mode-1 deployment of `n = 5k+1` nodes that tolerates as many
/// malicious as crash faults (`m = c = k`).
impl From<usize> for SeeMoReConfig {
    fn from(n: usize) -> Self {
        let k = n.saturating_sub(1) / 5;
        assert!(
            k >= 1 && n == 5 * k + 1,
            "no m = c SeeMoRe deployment has {n} nodes"
        );
        SeeMoReConfig {
            m: k,
            c: k,
            mode: Mode::One,
        }
    }
}

/// SeeMoRe messages between replicas.
#[derive(Clone, Debug)]
pub enum SmMsg {
    /// Phase 1: the primary's proposal.
    Propose {
        /// Sequence number.
        n: u64,
        /// The command.
        cmd: Command<KvCommand>,
        /// Digest.
        digest: Digest,
    },
    /// Mode 3 phase 2: proxies echo the proposal to validate the untrusted
    /// primary didn't equivocate.
    Validate {
        /// Sequence.
        n: u64,
        /// Echoed digest.
        digest: Digest,
    },
    /// Decision-making vote (to the primary in mode 1; among proxies in
    /// modes 2–3).
    Ack {
        /// Sequence.
        n: u64,
        /// Digest being acknowledged.
        digest: Digest,
    },
    /// Decision dissemination.
    Decide {
        /// Sequence.
        n: u64,
        /// The command (so non-proxy nodes can execute).
        cmd: Command<KvCommand>,
    },
}

impl simnet::Payload for SmMsg {
    fn kind(&self) -> &'static str {
        match self {
            SmMsg::Propose { .. } => "propose",
            SmMsg::Validate { .. } => "validate",
            SmMsg::Ack { .. } => "ack",
            SmMsg::Decide { .. } => "decide",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| {
            if let SmMsg::Propose { cmd, .. } | SmMsg::Decide { cmd, .. } = self {
                put_command(w, cmd);
            }
        })
    }
}

/// The SeeMoRe wire: client messages beside [`SmMsg`].
type Wire = Envelope<SmMsg>;

#[derive(Debug, Default)]
struct SmInstance {
    cmd: Option<Command<KvCommand>>,
    digest: Digest,
    validates: BTreeSet<NodeId>,
    validated: bool,
    acks: BTreeSet<NodeId>,
    decided: bool,
    executed: bool,
}

/// A SeeMoRe replica.
pub struct SmReplica {
    /// Configuration.
    pub cfg: SeeMoReConfig,
    next_seq: u64,
    instances: BTreeMap<u64, SmInstance>,
    /// The machine, the executed commands and the executed prefix length.
    pub exec: Executor,
}

impl SmReplica {
    /// Creates a replica.
    pub fn new(cfg: SeeMoReConfig) -> Self {
        SmReplica {
            cfg,
            next_seq: 0,
            instances: BTreeMap::new(),
            exec: Executor::default(),
        }
    }

    fn is_proxy(&self, id: NodeId) -> bool {
        match self.cfg.mode {
            Mode::One => false,
            Mode::Two | Mode::Three => self.cfg.proxies().contains(&id),
        }
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, cmd: Command<KvCommand>) {
        let me = ctx.id();
        if self.cfg.primary() != me {
            ctx.send(self.cfg.primary(), Envelope::request(cmd));
            return;
        }
        let ordered = self.instances.values().filter(|i| !i.executed);
        let ordered = ordered.filter_map(|i| i.cmd.as_ref());
        if self.exec.admit(ctx, &cmd, me, ordered) != Admission::Order {
            return;
        }
        self.next_seq += 1;
        let n = self.next_seq;
        let digest = digest_of(&cmd);
        ctx.span_open(SPAN, n, 0);
        ctx.phase(SPAN, n, 0, CncPhase::ValueDiscovery);
        let inst = self.instances.entry(n).or_default();
        inst.cmd = Some(cmd.clone());
        inst.digest = digest;
        inst.validated = self.cfg.mode != Mode::Three;
        if self.cfg.mode == Mode::One {
            // The trusted primary's own vote counts toward the
            // 2m+c+1 quorum.
            inst.acks.insert(me);
        }
        ctx.send_many(
            peers(self.cfg.n(), me),
            SmMsg::Propose { n, cmd, digest }.into(),
        );
    }

    fn decide(&mut self, ctx: &mut Context<Wire>, n: u64) {
        ctx.phase(SPAN, n, 0, CncPhase::Decision);
        ctx.span_close(SPAN, n, 0);
        let cmd = {
            let inst = self.instances.entry(n).or_default();
            if inst.decided {
                return;
            }
            inst.decided = true;
            inst.cmd.clone()
        };
        if let Some(cmd) = cmd {
            ctx.send_many(
                peers(self.cfg.n(), ctx.id()),
                SmMsg::Decide { n, cmd }.into(),
            );
        }
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<Wire>) {
        let instances = &mut self.instances;
        let ready = |n| {
            let i = instances.get_mut(&n)?;
            take_ready(&i.cmd, i.decided, &mut i.executed)
        };
        self.exec.drain(ctx, ready, |_, _, _| {});
    }
}

impl Node for SmReplica {
    type Msg = Wire;

    fn on_start(&mut self, _ctx: &mut Context<Wire>) {}

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(ClientMsg::Request(cmd)) => return self.on_request(ctx, cmd),
            Envelope::Client(_) => return,
        };
        match msg {
            SmMsg::Propose { n, cmd, digest } => {
                if from != self.cfg.primary() || digest != digest_of(&cmd) {
                    return;
                }
                let me = ctx.id();
                let proxies = self.cfg.proxies();
                {
                    let inst = self.instances.entry(n).or_default();
                    if inst.cmd.is_some() && inst.digest != digest {
                        return; // equivocation: keep the first proposal
                    }
                    if inst.cmd.is_none() {
                        ctx.span_open(SPAN, n, 0);
                        ctx.phase(SPAN, n, 0, CncPhase::Agreement);
                    }
                    inst.cmd = Some(cmd);
                    inst.digest = digest;
                }
                match self.cfg.mode {
                    Mode::One => {
                        // Centralized: everyone acks to the trusted primary.
                        self.instances.entry(n).or_default().validated = true;
                        ctx.send(from, SmMsg::Ack { n, digest }.into());
                    }
                    Mode::Two => {
                        // Decentralized: proxies ack among themselves.
                        self.instances.entry(n).or_default().validated = true;
                        if self.is_proxy(me) {
                            ctx.send_many(proxies.iter().copied(), SmMsg::Ack { n, digest }.into());
                        }
                    }
                    Mode::Three => {
                        // Untrusted primary: validate first.
                        if self.is_proxy(me) {
                            ctx.send_many(
                                proxies.iter().copied(),
                                SmMsg::Validate { n, digest }.into(),
                            );
                        }
                    }
                }
            }

            SmMsg::Validate { n, digest } => {
                if self.cfg.mode != Mode::Three || !self.is_proxy(ctx.id()) {
                    return;
                }
                let quorum = self.cfg.quorum();
                let proxies = self.cfg.proxies();
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_some() && inst.digest != digest {
                    return;
                }
                inst.validates.insert(from);
                if inst.validates.len() >= quorum && !inst.validated {
                    inst.validated = true;
                    let d = if inst.cmd.is_some() {
                        inst.digest
                    } else {
                        digest
                    };
                    ctx.send_many(proxies.iter().copied(), SmMsg::Ack { n, digest: d }.into());
                }
            }

            SmMsg::Ack { n, digest } => {
                let quorum = self.cfg.quorum();
                let me = ctx.id();
                // Mode 1: only the primary collects; modes 2–3: proxies.
                let collector = match self.cfg.mode {
                    Mode::One => self.cfg.primary() == me,
                    Mode::Two | Mode::Three => self.is_proxy(me),
                };
                if !collector {
                    return;
                }
                let ready = {
                    let inst = self.instances.entry(n).or_default();
                    if inst.cmd.is_some() && inst.digest != digest {
                        return;
                    }
                    if !inst.validated && self.cfg.mode == Mode::Three {
                        // Acks can arrive before our own validation quorum;
                        // buffer them.
                    }
                    inst.acks.insert(from);
                    inst.acks.len() >= quorum && inst.cmd.is_some()
                };
                if ready {
                    self.decide(ctx, n);
                }
            }

            SmMsg::Decide { n, cmd } => {
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_none() {
                    inst.digest = digest_of(&cmd);
                    inst.cmd = Some(cmd);
                }
                if !inst.decided {
                    ctx.phase(SPAN, n, 0, CncPhase::Decision);
                    ctx.span_close(SPAN, n, 0);
                }
                inst.decided = true;
                self.try_execute(ctx);
            }
        }
    }
}

/// SeeMoRe as a log protocol of the SMR shell.
pub struct SeeMoRe;

impl SmrProtocol for SeeMoRe {
    const NAME: &'static str = "seemore";
    type Shape = SeeMoReConfig;
    type Peer = SmMsg;
    type Replica = SmReplica;
    type Accept = Quorum;

    /// One request per sequence number: `batch` is ignored.
    fn replica(cfg: SeeMoReConfig, _batch: BatchConfig) -> SmReplica {
        SmReplica::new(cfg)
    }

    /// The client accepts an output at `m+1` matching replies (a correct
    /// node is among them), or at one reply from the private cloud, which
    /// can crash but not lie.
    fn client(cfg: SeeMoReConfig, session: Session) -> Client<SmMsg> {
        let quorum = Quorum::of(cfg.m + 1).trusting(cfg.n_private());
        let target = Target::Primary(cfg.primary());
        let silence = Silence::Broadcast(200_000, None);
        Client::new(session, cfg.n(), target, silence, quorum)
    }

    fn is_leader(replica: &SmReplica, id: NodeId) -> bool {
        replica.cfg.primary() == id
    }

    fn applied_len(replica: &SmReplica) -> u64 {
        replica.exec.executed_upto
    }

    fn machine(replica: &SmReplica) -> &DedupKvMachine {
        replica.exec.machine()
    }

    fn decided(replica: &SmReplica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_commands(replica.exec.history(), node, out);
    }
}

/// A ready-to-run SeeMoRe cluster (`3m+2c+1` replicas).
pub type SmCluster = Cluster<SeeMoRe>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;
    use simnet::{DropAll, NetConfig, Time};

    fn cfg(m: usize, c: usize, mode: Mode) -> SeeMoReConfig {
        SeeMoReConfig { m, c, mode }
    }

    #[test]
    fn config_math_matches_slides() {
        let k = cfg(1, 1, Mode::One);
        assert_eq!(k.n(), 6); // 3m+2c+1
        assert_eq!(k.quorum(), 4); // 2m+c+1
        assert_eq!(k.phases(), 2);
        let k2 = cfg(1, 1, Mode::Two);
        assert_eq!(k2.quorum(), 3); // 2m+1
        assert_eq!(k2.phases(), 2);
        let k3 = cfg(1, 1, Mode::Three);
        assert_eq!(k3.phases(), 3);
        assert_eq!(k3.proxies().len(), 4); // 3m+1
        assert!(k.is_private(NodeId(0)));
        assert!(!k.is_private(NodeId(5)));
    }

    #[test]
    fn all_three_modes_commit() {
        for mode in [Mode::One, Mode::Two, Mode::Three] {
            let mut cluster = SmCluster::new(cfg(1, 1, mode), 1, 8, NetConfig::lan(), 1);
            assert!(
                cluster.run(Time::from_secs(20)),
                "{mode:?}: {}",
                cluster.total_completed()
            );
            assert_eq!(cluster.total_completed(), 8, "{mode:?}");
        }
    }

    #[test]
    fn mode1_is_linear_modes23_quadratic() {
        let msgs = |mode| {
            let mut cluster = SmCluster::new(cfg(1, 1, mode), 1, 10, NetConfig::lan(), 2);
            assert!(cluster.run(Time::from_secs(20)));
            cluster.sim.metrics().sent as f64 / 10.0
        };
        let m1 = msgs(Mode::One);
        let m2 = msgs(Mode::Two);
        let m3 = msgs(Mode::Three);
        assert!(
            m2 > m1,
            "decentralized coordination costs more: {m1} vs {m2}"
        );
        assert!(m3 > m2, "validation phase adds messages: {m2} vs {m3}");
    }

    #[test]
    fn mode3_has_validation_phase() {
        let mut cluster = SmCluster::new(cfg(1, 1, Mode::Three), 1, 5, NetConfig::lan(), 3);
        assert!(cluster.run(Time::from_secs(20)));
        assert!(cluster.sim.metrics().kind("validate") > 0);
        let mut c1 = SmCluster::new(cfg(1, 1, Mode::One), 1, 5, NetConfig::lan(), 3);
        assert!(c1.run(Time::from_secs(20)));
        assert_eq!(c1.sim.metrics().kind("validate"), 0);
    }

    #[test]
    fn tolerates_c_private_crashes_and_m_public_mutes() {
        for mode in [Mode::One, Mode::Two] {
            let k = cfg(1, 1, mode);
            let mut cluster = SmCluster::new(k, 1, 6, NetConfig::lan(), 4);
            // Crash one private node outside the proxy set: c = 1.
            cluster.sim.crash_at(NodeId(1), Time::ZERO);
            // Mute one public node: m = 1 (it still receives but never
            // sends — a silent Byzantine fault).
            cluster.sim.set_filter(NodeId(5), Box::new(DropAll));
            assert!(
                cluster.run(Time::from_secs(30)),
                "{mode:?}: {}",
                cluster.total_completed()
            );
            assert_eq!(cluster.total_completed(), 6, "{mode:?}");
        }
    }

    #[test]
    fn replicas_converge() {
        let mut cluster = SmCluster::new(cfg(1, 1, Mode::One), 1, 12, NetConfig::lan(), 5);
        assert!(cluster.run(Time::from_secs(20)));
        cluster.sim.run_for(300_000);
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.exec.executed_upto >= 12)
            .map(|r| r.exec.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = SmCluster::new(cfg(1, 1, Mode::Two), 1, 6, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(20));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(6), run(6));
    }
}
