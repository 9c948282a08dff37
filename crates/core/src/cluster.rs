//! The SMR shell's cluster harness: one simulation hosting replicas
//! `0..n_replicas` and workload clients above them, for any log protocol.
//!
//! A protocol crate implements [`SmrProtocol`] for a marker type — naming its
//! message, replica and client types and how to read a replica's decided
//! log, applied frontier and machine — and gets [`Cluster`], its builders,
//! and the one [`ClusterDriver`] impl in return. Everything protocol-specific
//! (election, replication, the commit rule, read fast paths) stays inside
//! `Replica::on_message` / `on_timer`.

use std::collections::HashMap;

use simnet::{
    CausalSpan, Context, DiskModel, Filter, Metrics, NetConfig, Node, NodeId, Payload, RunOutcome,
    Sim, Time, Timer,
};
use storage::DurableEngine;

use crate::client::{Accept, Client, Envelope, Session};
use crate::driver::{BatchConfig, ClusterDriver, DecidedEntry, DriverConfig};
use crate::durable::Disk;
use crate::history::{ClientRecord, HistorySink};
use crate::quorum::QuorumSpec;
use crate::smr::{
    Command, DedupKvMachine, KvCommand, ReplicatedLog, Slot, SmrOp, StateMachine, Str,
};
use crate::workload::{LatencyRecorder, WorkloadMode};

/// What a protocol's replicas and clients are built from: the replica count
/// itself, or a quorum system or deployment config that determines it.
pub trait ClusterShape: Copy {
    /// Number of replicas (nodes `0..n`).
    fn n_replicas(&self) -> usize;
}

impl ClusterShape for usize {
    fn n_replicas(&self) -> usize {
        *self
    }
}

impl ClusterShape for QuorumSpec {
    fn n_replicas(&self) -> usize {
        self.n()
    }
}

/// What a log protocol supplies to the SMR shell.
pub trait SmrProtocol: Sized + 'static {
    /// Stable protocol name (e.g. `"multi-paxos"`).
    const NAME: &'static str;
    /// What a replica (besides the batch config) and a client (besides its
    /// session) are built from.
    type Shape: ClusterShape;
    /// The protocol's own messages between replicas; client messages ride
    /// beside them in the [`Envelope`].
    type Peer: Payload;
    /// Server replica.
    type Replica: Node<Msg = Envelope<Self::Peer>>;
    /// When a client accepts an output.
    type Accept: Accept<Self::Peer>;

    /// Builds one replica.
    fn replica(shape: Self::Shape, batch: BatchConfig) -> Self::Replica;

    /// Builds one client around its workload `session`: where its first
    /// attempts go, what silence does, and when it accepts an output.
    fn client(shape: Self::Shape, session: Session) -> Client<Self::Peer, Self::Accept>;

    /// Whether `replica` (node `id`) currently believes it leads.
    fn is_leader(replica: &Self::Replica, id: NodeId) -> bool;

    /// Length of the prefix `replica` has applied to its machine.
    fn applied_len(replica: &Self::Replica) -> u64;

    /// The replicated state machine.
    fn machine(replica: &Self::Replica) -> &DedupKvMachine;

    /// Pushes every entry `replica` (node `node`) knows to be decided.
    fn decided(replica: &Self::Replica, node: u32, out: &mut Harvest);

    /// The one place a protocol declares its Byzantine behaviour: the
    /// outbound filter a lying replica runs, for protocols whose fault
    /// model includes Byzantine replicas. `None` (the default) marks a
    /// crash-fault protocol, which the nemesis never gives a Byzantine
    /// window.
    fn equivocation_filter() -> Option<Box<dyn Filter<Envelope<Self::Peer>>>> {
        None
    }
}

/// A protocol whose replicas can run on a durable storage engine.
pub trait DurableProtocol: SmrProtocol {
    /// `replica`'s durable side.
    fn disk(replica: &mut Self::Replica) -> &mut Disk;
}

/// A process of protocol `P`: replica or client.
pub enum Proc<P: SmrProtocol> {
    /// Server replica.
    Replica(P::Replica),
    /// Workload client (boxed, so a `Proc` is sized by its replica).
    Client(Box<Client<P::Peer, P::Accept>>),
}

impl<P: SmrProtocol> Node for Proc<P> {
    type Msg = Envelope<P::Peer>;

    fn on_start(&mut self, ctx: &mut Context<Envelope<P::Peer>>) {
        match self {
            Proc::Replica(n) => n.on_start(ctx),
            Proc::Client(n) => n.on_start(ctx),
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<Envelope<P::Peer>>,
        from: NodeId,
        msg: Envelope<P::Peer>,
    ) {
        match self {
            Proc::Replica(n) => n.on_message(ctx, from, msg),
            Proc::Client(n) => n.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Envelope<P::Peer>>, timer: Timer) {
        match self {
            Proc::Replica(n) => n.on_timer(ctx, timer),
            Proc::Client(n) => n.on_timer(ctx, timer),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<Envelope<P::Peer>>) {
        match self {
            Proc::Replica(n) => n.on_restart(ctx),
            Proc::Client(n) => n.on_restart(ctx),
        }
    }

    fn on_crash(&mut self) {
        match self {
            Proc::Replica(n) => n.on_crash(),
            Proc::Client(n) => n.on_crash(),
        }
    }
}

/// A ready-to-run cluster of protocol `P` with clients.
pub struct Cluster<P: SmrProtocol> {
    /// The simulation.
    pub sim: Sim<Proc<P>>,
    /// Number of replicas (nodes `0..n_replicas`).
    pub n_replicas: usize,
    /// Number of clients (nodes `n_replicas..`).
    pub n_clients: usize,
}

impl<P: SmrProtocol> Cluster<P> {
    /// Builds an unbatched, closed-loop cluster: the replicas `shape` calls
    /// for plus `n_clients` clients issuing `cmds_per_client` commands each.
    pub fn new(
        shape: P::Shape,
        n_clients: usize,
        cmds_per_client: usize,
        net: NetConfig,
        seed: u64,
    ) -> Self {
        Self::new_with(
            shape,
            n_clients,
            cmds_per_client,
            net,
            seed,
            BatchConfig::unbatched(),
            WorkloadMode::Closed,
        )
    }

    /// Builds a cluster with explicit batching and client-pacing configs.
    pub fn new_with(
        shape: P::Shape,
        n_clients: usize,
        cmds_per_client: usize,
        net: NetConfig,
        seed: u64,
        batch: BatchConfig,
        mode: WorkloadMode,
    ) -> Self {
        let cfg = DriverConfig::new(shape.n_replicas(), n_clients, cmds_per_client, seed)
            .with_net(net)
            .with_batch(batch)
            .with_mode(mode);
        Self::build(shape, &cfg)
    }

    /// Builds `cfg.n_replicas` replicas of `shape`, then `cfg.n_clients`
    /// clients issuing `cfg.cmds_per_client` commands each.
    pub fn build(shape: P::Shape, cfg: &DriverConfig) -> Self {
        assert_eq!(
            shape.n_replicas(),
            cfg.n_replicas,
            "shape must match replica count"
        );
        let mut sim = Sim::new(cfg.net.clone(), cfg.seed);
        for _ in 0..cfg.n_replicas {
            sim.add_node(Proc::Replica(P::replica(shape, cfg.batch)));
        }
        for c in 0..cfg.n_clients {
            let id = (cfg.n_replicas + c) as u32;
            let session = Session::new(id, cfg.cmds_per_client, cfg.mix, cfg.seed, cfg.mode);
            sim.add_node(Proc::Client(Box::new(P::client(shape, session))));
        }
        Cluster {
            sim,
            n_replicas: cfg.n_replicas,
            n_clients: cfg.n_clients,
        }
    }

    /// Applies `f` to every replica. A builder — call before the first
    /// step; this is how protocol-only knobs (leases, snapshot thresholds)
    /// reach the replicas.
    #[must_use]
    pub fn map_replicas(mut self, mut f: impl FnMut(&mut P::Replica)) -> Self {
        for i in 0..self.n_replicas {
            if let Proc::Replica(r) = self.sim.node_mut(NodeId::from(i)) {
                f(r);
            }
        }
        self
    }

    /// Runs until all clients finish or `horizon` passes. Returns whether
    /// every client completed.
    pub fn run(&mut self, horizon: Time) -> bool {
        loop {
            let outcome = self.sim.run_for(10_000);
            if self.all_done() {
                return true;
            }
            if self.sim.now() >= horizon || outcome == RunOutcome::Quiescent {
                return self.all_done();
            }
        }
    }

    /// Whether every client completed its workload.
    pub fn all_done(&self) -> bool {
        self.clients().all(|c| c.session.done())
    }

    /// Iterates over client states.
    pub fn clients(&self) -> impl Iterator<Item = &Client<P::Peer, P::Accept>> {
        self.sim.nodes().filter_map(|(_, p)| match p {
            Proc::Client(c) => Some(&**c),
            Proc::Replica(_) => None,
        })
    }

    /// Iterates over replica states.
    pub fn replicas(&self) -> impl Iterator<Item = &P::Replica> {
        self.sim.nodes().filter_map(|(_, p)| match p {
            Proc::Replica(r) => Some(r),
            Proc::Client(_) => None,
        })
    }

    /// The current leader, if exactly one *live* replica claims leadership.
    pub fn leader(&self) -> Option<NodeId> {
        let mut leaders = self.sim.nodes().filter_map(|(id, p)| match p {
            Proc::Replica(r) if P::is_leader(r, id) && self.sim.is_alive(id) => Some(id),
            _ => None,
        });
        let first = leaders.next();
        first.filter(|_| leaders.next().is_none())
    }

    /// Total commands completed across clients.
    pub fn total_completed(&self) -> usize {
        self.clients().map(|c| c.session.completed).sum()
    }

    /// Aggregated latency recorder across clients.
    pub fn latencies(&self) -> LatencyRecorder {
        let mut agg = LatencyRecorder::new();
        for c in self.clients() {
            for &s in c.session.latencies.samples() {
                agg.record_micros(s);
            }
        }
        agg
    }
}

impl<P: DurableProtocol> Cluster<P> {
    /// Attaches a fresh durable engine over `model` to every replica and
    /// checkpoints every `threshold` applied entries: WAL-before-ack,
    /// checkpointing, and real crash recovery all activate.
    #[must_use]
    pub fn with_durability(self, threshold: usize, model: DiskModel) -> Self {
        self.map_replicas(|r| P::disk(r).attach(threshold, DurableEngine::new(model)))
    }
}

/// Sub-index stride for flattening batched slots into per-command
/// [`DecidedEntry`] indices: command `j` of slot `i` gets `i·2²⁰ + j`.
const SUB_INDEX: u64 = 1 << 20;

/// One [`ClusterDriver::decided_log`] call: the entries harvested so far, and
/// a memo that renders each decided command once, so every replica that
/// decided it shares one [`Str`].
///
/// The memo is keyed by origin `(client, seq)` and Raft term, and reuses a
/// rendering only for a command `==` to the one it was made for — O(1) when
/// the payloads are shared `Arc`s, and a forgery that reuses an origin still
/// gets a rendering of its own.
#[derive(Default)]
pub struct Harvest {
    entries: Vec<DecidedEntry>,
    memo: HashMap<MemoKey, Renderings>,
}

/// Raft term (the label) and origin `(client, seq)`, which a no-op lacks.
type MemoKey = (Option<u64>, Option<(u32, u64)>);

/// The renderings made under one key, each beside the command it renders
/// (`None`: a no-op).
type Renderings = Vec<(Option<Command<KvCommand>>, Str)>;

impl Harvest {
    /// Appends every slot of `log` that holds a value through [`Harvest::op`],
    /// unlabelled — the `decided_log` shape of protocols that decide
    /// [`SmrOp`]s slot by slot.
    pub fn slots(&mut self, node: u32, log: &ReplicatedLog<DedupKvMachine>) {
        for i in 0..log.len() {
            if let Slot::Decided(op) | Slot::Applied(op) = log.slot(i) {
                self.op(node, i, None, op);
            }
        }
    }

    /// Appends `op`, decided at log index `index` on `node`, as one entry per
    /// command, each rendering prefixed `t{term}:` when a `term` is given (a
    /// no-op yields one entry without an origin).
    pub fn op(&mut self, node: u32, index: usize, term: Option<u64>, op: &SmrOp) {
        let base = index as u64 * SUB_INDEX;
        if matches!(op, SmrOp::Noop) {
            self.push(node, base, term, None);
        }
        for (j, cmd) in op.commands().iter().enumerate() {
            self.push(node, base + j as u64, term, Some(cmd));
        }
    }

    /// Appends one entry per command of `executed`, indexed by execution
    /// order — the `decided_log` shape of protocols whose replicas execute a
    /// single totally ordered command sequence.
    pub fn commands<'a>(
        &mut self,
        node: u32,
        executed: impl IntoIterator<Item = &'a Command<KvCommand>>,
    ) {
        for (i, cmd) in executed.into_iter().enumerate() {
            self.push(node, i as u64, None, Some(cmd));
        }
    }

    /// The harvested entries, in the order they were pushed.
    pub fn into_entries(self) -> Vec<DecidedEntry> {
        self.entries
    }

    fn push(&mut self, node: u32, index: u64, term: Option<u64>, cmd: Option<&Command<KvCommand>>) {
        let origin = cmd.map(|c| (c.client, c.seq));
        let known = self.memo.entry((term, origin)).or_default();
        let op = match known.iter().find(|(c, _)| c.as_ref() == cmd) {
            Some((_, op)) => op.clone(),
            None => {
                let label = term.map(|t| format!("t{t}:")).unwrap_or_default();
                let op: Str = match cmd {
                    Some(cmd) => format!("{label}{cmd:?}"),
                    None => format!("{label}Noop"),
                }
                .into();
                known.push((cmd.cloned(), op.clone()));
                op
            }
        };
        self.entries.push(DecidedEntry {
            node,
            index,
            op,
            origin,
        });
    }
}

impl<P: SmrProtocol> ClusterDriver for Cluster<P>
where
    P::Shape: From<usize>,
{
    fn from_config(cfg: &DriverConfig) -> Self {
        Self::build(P::Shape::from(cfg.n_replicas), cfg)
    }

    fn protocol(&self) -> &'static str {
        P::NAME
    }

    fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    fn now(&self) -> Time {
        self.sim.now()
    }

    fn run_until(&mut self, at: Time) -> RunOutcome {
        let mut guard = 0;
        loop {
            let outcome = self.sim.run_until(at);
            if outcome != RunOutcome::Stopped || guard > 10_000 {
                return outcome;
            }
            guard += 1;
        }
    }

    fn run(&mut self, horizon: Time) -> bool {
        Cluster::run(self, horizon)
    }

    fn all_done(&self) -> bool {
        Cluster::all_done(self)
    }

    fn completed_ops(&self) -> usize {
        self.total_completed()
    }

    fn decided_log(&self) -> Vec<DecidedEntry> {
        let mut harvest = Harvest::default();
        for (id, proc_) in self.sim.nodes() {
            if let Proc::Replica(r) = proc_ {
                P::decided(r, id.0, &mut harvest);
            }
        }
        harvest.into_entries()
    }

    fn state_digests(&self) -> Vec<(u32, u64, u64)> {
        self.sim
            .nodes()
            .filter_map(|(id, p)| match p {
                Proc::Replica(r) => Some((id.0, P::applied_len(r), P::machine(r).digest())),
                Proc::Client(_) => None,
            })
            .collect()
    }

    fn history(&self) -> Vec<ClientRecord> {
        HistorySink::merge(self.clients().map(|c| &c.session.history))
    }

    fn latencies(&self) -> LatencyRecorder {
        Cluster::latencies(self)
    }

    fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    fn enable_tracing(&mut self, site: u32) {
        self.sim.enable_tracing(site);
    }

    fn causal_spans(&self) -> Vec<CausalSpan> {
        self.sim.causal_spans().to_vec()
    }

    fn open_span_instances(&self) -> usize {
        self.sim.open_instance_count()
    }

    fn crash_at(&mut self, node: NodeId, at: Time) {
        self.sim.crash_at(node, at);
    }

    fn restart_at(&mut self, node: NodeId, at: Time) {
        self.sim.restart_at(node, at);
    }

    fn partition_at(&mut self, at: Time, groups: Vec<Vec<NodeId>>) {
        self.sim.partition_at(at, groups);
    }

    fn heal_at(&mut self, at: Time) {
        self.sim.heal_at(at);
    }

    fn set_drop_prob(&mut self, p: f64) {
        self.sim.set_drop_prob(p);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn get(client: u32, seq: u64) -> Command<KvCommand> {
        Command {
            client,
            seq,
            op: KvCommand::Get {
                key: format!("k{seq}").into(),
            },
        }
    }

    #[test]
    fn commands_index_by_execution_order() {
        let cmds: Vec<Command<KvCommand>> = (0..3).map(|seq| get(9, seq)).collect();
        let mut h = Harvest::default();
        h.commands(2, &cmds);
        let log = h.into_entries();
        for (i, e) in log.iter().enumerate() {
            let i = i as u64;
            assert_eq!((e.node, e.index, e.origin), (2, i, Some((9, i))));
            assert_eq!(*e.op, format!("{:?}", cmds[i as usize]));
        }
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn one_rendering_per_labelled_command_with_format_bytes() {
        let batch = SmrOp::Batch(vec![get(9, 0), get(9, 1)]);
        let mut h = Harvest::default();
        h.op(0, 3, Some(2), &batch);
        h.op(1, 3, Some(2), &batch.clone());
        h.op(2, 3, Some(5), &batch);
        h.op(0, 4, Some(2), &SmrOp::Noop);
        h.op(1, 4, Some(2), &SmrOp::Noop);
        h.op(2, 4, None, &SmrOp::Noop);
        let log = h.into_entries();

        let base = 3 * SUB_INDEX;
        let shape: Vec<_> = log.iter().map(|e| (e.node, e.index, e.origin)).collect();
        let origins = [Some((9, 0)), Some((9, 1))];
        assert_eq!(
            shape[..2],
            [(0, base, origins[0]), (0, base + 1, origins[1])]
        );
        assert_eq!(
            shape[6..],
            [
                (0, 4 * SUB_INDEX, None),
                (1, 4 * SUB_INDEX, None),
                (2, 4 * SUB_INDEX, None)
            ]
        );
        assert_eq!(*log[0].op, format!("t2:{:?}", get(9, 0)));
        assert_eq!(*log[4].op, format!("t5:{:?}", get(9, 0)));
        assert_eq!((&*log[6].op, &*log[8].op), ("t2:Noop", "Noop"));

        // Same command, same term: one allocation across replicas; another
        // term or another command: a rendering of its own.
        assert!(Arc::ptr_eq(&log[0].op, &log[2].op));
        assert!(Arc::ptr_eq(&log[1].op, &log[3].op));
        assert!(Arc::ptr_eq(&log[6].op, &log[7].op));
        assert!(!Arc::ptr_eq(&log[0].op, &log[1].op));
        assert!(!Arc::ptr_eq(&log[0].op, &log[4].op));
    }
}
