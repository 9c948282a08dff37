//! The replica half of the SMR shell for the log protocols, Multi-Paxos and
//! Raft, modelled on `bft::shell`: plain structs and functions their handlers
//! call, not a node with hooks. The two protocols differ in election and in
//! which entries a new leader may commit; what they do around the log is
//! written here once. Their durable side is [`crate::durable::Disk`], beside
//! the record format it writes.
//!
//! **The applied half.** [`Core`] is what both replicas hold alike: the
//! applied log, the disk, the parked reads, the proposer wave, who awaits
//! each command's reply, the election timer and the checkpoint floor. Its
//! steps are the ones both took the same way: apply one decided entry, sync
//! a decision it resolved and reply ([`Core::apply`]), restart and restore
//! ([`Core::restart`]), the common half of a state install
//! ([`Core::install`]) and the checkpoint trigger. Election, ack counting,
//! the commit rule, catch-up and each protocol's checkpoint records and
//! replay stay with the protocol.
//!
//! **Request intake.** [`intake`] answers a [`ClientMsg::Request`] this
//! replica will not order — `NotLeader` with the caller's hint, or the dedup
//! table's cached reply — and hands a new command back. [`in_flight`] is the
//! one test that swallows a retry of a command still being ordered; each
//! protocol keeps its own in-flight set (queued and proposed, or the
//! uncommitted log suffix) and the step that orders the command.
//!
//! **The read path.** [`Reads`] parks a [`ClientMsg::Read`] until an index it
//! must observe has applied, answers it from the applied machine, or NACKs
//! it, and drops what is parked on restart. A protocol supplies only the
//! confirmation: a Multi-Paxos lease confirms at once, at the applied
//! frontier; Raft's read-index at the leader's commit index, or at the index
//! a follower's `ReadIndexR` brings back.

use std::collections::BTreeMap;

use simnet::{Context, LiveTimer, NodeId, Payload};
use storage::StorageStats;

use crate::client::{ClientMsg, Envelope};
use crate::driver::{BatchConfig, Wave};
use crate::durable::{Disk, Restored};
use crate::smr::{
    Command, DedupKvMachine, KvCommand, KvResponse, Log, ReadMode, ReplicatedLog, SmrOp, Str,
};

/// A log replica's context: its protocol's messages `P` beside the client's.
type Ctx<'a, P> = Context<'a, Envelope<P>>;

/// Timer kind of a log replica's election timer, [`Core::election`].
pub const ELECTION: u64 = 1;
/// Timer kind of a log replica's batch flush timer, armed by [`Core::wave`].
pub const FLUSH: u64 = 3;

/// Node ids `0..n` — every replica, as a multicast target list. Protocol
/// multicast must target this set, not the whole simulation: clients share
/// the node space, and on a transmit-limited NIC every stray delivery costs
/// the sender serialization time.
pub fn replica_ids(n: usize) -> impl Iterator<Item = NodeId> + Clone {
    (0..n).map(NodeId::from)
}

/// Every replica but `me`.
pub fn peers(n: usize, me: NodeId) -> impl Iterator<Item = NodeId> + Clone {
    replica_ids(n).filter(move |id| *id != me)
}

/// Whether `cmd`'s `(client, seq)` is among `ordered` — the commands a
/// leader has queued or proposed and not yet applied or executed.
pub fn in_flight<'a>(
    cmd: &Command<KvCommand>,
    ordered: impl IntoIterator<Item = &'a Command<KvCommand>>,
) -> bool {
    let mut ordered = ordered.into_iter();
    ordered.any(|c| c.client == cmd.client && c.seq == cmd.seq)
}

/// Answers a request this replica will not order, to `from`: `NotLeader`
/// with `hint` when it does not lead (`hint` is `Some`), else the cached
/// reply when `machine` already applied the command. `from` is the request's
/// sender, which need not be `cmd.client`: the store's stub clients submit
/// for others. A new command comes back for the caller to order.
pub fn intake<P: Payload>(
    ctx: &mut Context<Envelope<P>>,
    from: NodeId,
    cmd: Command<KvCommand>,
    machine: &DedupKvMachine,
    hint: Option<NodeId>,
) -> Option<Command<KvCommand>> {
    let seq = cmd.seq;
    let reply = match (hint, machine.cached(cmd.client, seq)) {
        (Some(hint), _) => Envelope::Client(ClientMsg::NotLeader { seq, hint }),
        (None, Some(output)) => Envelope::reply(&cmd, output.clone()),
        (None, None) => return Some(cmd),
    };
    ctx.send(from, reply);
    None
}

/// Refuses fast read `id` at once: the reader falls back to the log path.
pub fn nack<P: Payload>(ctx: &mut Context<Envelope<P>>, to: NodeId, id: (u32, u64)) {
    answer(ctx, to, id, None, ReadMode::Nack);
}

/// Sends read `id`'s reply to `to`.
fn answer<P: Payload>(
    ctx: &mut Context<Envelope<P>>,
    to: NodeId,
    (client, seq): (u32, u64),
    value: Option<Str>,
    mode: ReadMode,
) {
    let reply = ClientMsg::ReadReply {
        client,
        seq,
        value,
        mode,
    };
    ctx.send(to, Envelope::Client(reply));
}

/// A parked read: its key, who gets the answer, and the index it must
/// observe (`None` while its confirmation is in flight).
#[derive(Debug)]
struct Parked {
    key: Str,
    reply_to: NodeId,
    at: Option<usize>,
}

/// Fast reads parked until the index each must observe has applied,
/// keyed by `(client, seq)`. Volatile: a restart drops them and the readers'
/// timeouts fall back to the log.
#[derive(Debug)]
pub struct Reads {
    /// How a served read was served.
    mode: ReadMode,
    parked: BTreeMap<(u32, u64), Parked>,
}

impl Reads {
    /// No reads parked; a served one is answered with `mode`.
    pub fn new(mode: ReadMode) -> Self {
        let parked = BTreeMap::new();
        Reads { mode, parked }
    }

    /// Parks read `id` of `key` from `reply_to` until index `at` has applied
    /// (`None`: until [`Reads::confirm`]); [`Reads::serve`] answers it.
    pub fn park(&mut self, reply_to: NodeId, id: (u32, u64), key: Str, at: Option<usize>) {
        self.parked.insert(id, Parked { key, reply_to, at });
    }

    /// Read `id`'s confirmation: `Some(index)` answers it once `index` has
    /// applied, `None` NACKs it. A read not parked here is ignored.
    pub fn confirm<P: Payload>(
        &mut self,
        ctx: &mut Context<Envelope<P>>,
        log: &Log,
        id: (u32, u64),
        at: Option<usize>,
    ) {
        if at.is_none() {
            if let Some(p) = self.parked.remove(&id) {
                nack(ctx, p.reply_to, id);
            }
        } else if let Some(p) = self.parked.get_mut(&id) {
            p.at = at;
            self.serve(ctx, log);
        }
    }

    /// Answers every read whose index `log` has applied, in `(client, seq)`
    /// order, from the applied machine: the value reflects every write
    /// acknowledged before the read was confirmed.
    pub fn serve<P: Payload>(&mut self, ctx: &mut Context<Envelope<P>>, log: &Log) {
        let (applied, mode) = (log.applied_len(), self.mode);
        self.parked.retain(|&id, p| {
            let ready = p.at.is_some_and(|at| applied >= at);
            if ready {
                let value = log.machine().kv().get(&p.key).cloned();
                answer(ctx, p.reply_to, id, value, mode);
            }
            !ready
        });
    }
}

/// What a Multi-Paxos and a Raft replica hold and do alike, around the log
/// their own protocol decides. `T` is what the leader's wave queues.
#[derive(Debug)]
pub struct Core<T> {
    /// The applied side: the state machine and the entries it reflects.
    pub log: ReplicatedLog<DedupKvMachine>,
    /// The durable side: every record a message reveals goes to its WAL
    /// before the message leaves.
    pub disk: Disk,
    /// Fast reads parked until their index applies.
    pub reads: Reads,
    /// The leader's work not yet proposed, flushed on [`FLUSH`] timers.
    pub wave: Wave<T>,
    /// The one live election timer, of kind [`ELECTION`].
    pub election: LiveTimer,
    /// The applied length the last checkpoint or install reflects: entries
    /// below it are compacted away.
    pub floor: usize,
    /// Who submitted each command this node ordered, by `(client, seq)`:
    /// whoever applies it replies to that sender.
    replies: BTreeMap<(u32, u64), NodeId>,
    /// The replies of the entry being applied, held until its decision is
    /// synced. Empty between calls; kept to reuse its buffer.
    out: Vec<(u32, u64, KvResponse)>,
}

impl<T> Core<T> {
    /// An empty log over a detached disk that checkpoints every `threshold`
    /// applied entries; reads served are answered as `reads`.
    pub fn new(batch: BatchConfig, threshold: usize, reads: ReadMode) -> Self {
        Core {
            log: ReplicatedLog::new(),
            disk: Disk::new(threshold),
            reads: Reads::new(reads),
            wave: Wave::new(batch, FLUSH),
            election: LiveTimer::default(),
            floor: 0,
            replies: BTreeMap::new(),
            out: Vec::new(),
        }
    }

    /// Storage counters, when a durable engine is attached.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.disk.stats()
    }

    /// The replicated state machine.
    pub fn machine(&self) -> &DedupKvMachine {
        self.log.machine()
    }

    /// Records `from` as the sender to answer once `cmd` applies here.
    pub fn await_reply(&mut self, cmd: &Command<KvCommand>, from: NodeId) {
        self.replies.insert((cmd.client, cmd.seq), from);
    }

    /// Applies `op` as the entry at the frontier (through
    /// [`ReplicatedLog::apply`]), syncs a transaction decision it resolved,
    /// then replies to each command's recorded sender: WAL before decision.
    pub fn apply<P: Payload>(&mut self, ctx: &mut Ctx<'_, P>, op: &SmrOp) {
        let (out, index) = (&mut self.out, self.disk.index());
        let reply = |c: &Command<KvCommand>, r| out.push((c.client, c.seq, r));
        let resolved = self.log.apply(op, index, reply);
        self.release(ctx, resolved);
    }

    /// [`Core::apply`] for the decided slot at the frontier of a log with
    /// holes; returns its index, or `None` while the frontier is undecided.
    pub fn apply_decided<P: Payload>(&mut self, ctx: &mut Ctx<'_, P>) -> Option<usize> {
        let (out, index) = (&mut self.out, self.disk.index());
        let reply = |c: &Command<KvCommand>, r| out.push((c.client, c.seq, r));
        let (slot, resolved) = self.log.apply_decided(index, reply)?;
        self.release(ctx, resolved);
        Some(slot)
    }

    /// Syncs a resolved decision, then sends the replies a sender awaits.
    fn release<P: Payload>(&mut self, ctx: &mut Ctx<'_, P>, resolved: bool) {
        if resolved {
            self.disk.sync(ctx);
        }
        for (client, seq, output) in self.out.drain(..) {
            if let Some(to) = self.replies.remove(&(client, seq)) {
                ctx.send(to, Envelope::Client(ClientMsg::Reply { seq, output }));
            }
        }
    }

    /// Whether the log applied a checkpoint threshold past [`Core::floor`];
    /// counts the checkpoint the caller then takes and moves the floor to.
    pub fn checkpoint_due(&mut self) -> bool {
        self.disk.checkpoint_due(self.log.applied_len(), self.floor)
    }

    /// The common half of a state transfer: the log takes a peer's
    /// `machine` as the state of its first `at` entries through
    /// [`Disk::install`], the floor moves to `at`, and parked reads that
    /// state satisfies are answered. The caller drops what the install
    /// absorbed and checkpoints.
    pub fn install(&mut self, ctx: &mut Ctx<'_, impl Payload>, machine: DedupKvMachine, at: usize) {
        self.disk.install(&mut self.log, machine, at);
        self.floor = at;
        self.reads.serve(ctx, &self.log);
    }

    /// A restart: forgets the replies owed, parked reads, the wave and the
    /// election timer, then restores through [`Disk::restore`], which
    /// installs the checkpoint into the log; the floor moves to it. The
    /// caller replays the records that come back, then calls
    /// [`Disk::recovered`]. `None` when detached: the log stays in place.
    pub fn restart(&mut self) -> Option<Restored> {
        self.replies.clear();
        self.reads.parked.clear();
        self.wave.reset();
        self.election.fired();
        let restored = self.disk.restore(&mut self.log)?;
        self.floor = restored.index;
        Some(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smr::{KvResponse, StateMachine};
    use simnet::{NetConfig, Node, Sim};
    use storage::MemEngine;

    /// What a test tells the replica under test, beside client traffic.
    #[derive(Clone, Debug)]
    enum Step {
        /// Read `id`'s confirmation arrives.
        Confirm((u32, u64), Option<usize>),
        /// `op` is decided at the frontier and applies.
        Apply(SmrOp),
        /// A leader queues an item in its wave.
        Queue,
        /// The replica restarted.
        Restart,
    }

    impl Payload for Step {}

    /// Node 0 runs the shell as a log replica would; every other node
    /// records the client messages that reach it.
    enum Probe {
        Replica {
            core: Box<Core<()>>,
            /// Where the next client read parks.
            park_at: Option<usize>,
            /// `Some` while the replica does not lead.
            hint: Option<NodeId>,
            /// Commands [`intake`] handed back; the core awaits their reply.
            handed: Vec<Command<KvCommand>>,
        },
        Recorder(Vec<ClientMsg>),
    }

    impl Node for Probe {
        type Msg = Envelope<Step>;

        fn on_start(&mut self, _: &mut Context<Envelope<Step>>) {}

        fn on_message(&mut self, ctx: &mut Context<Envelope<Step>>, from: NodeId, msg: Self::Msg) {
            let Probe::Replica {
                core,
                park_at,
                hint,
                handed,
            } = self
            else {
                let Probe::Recorder(got) = self else {
                    unreachable!()
                };
                let Envelope::Client(msg) = msg else {
                    unreachable!()
                };
                return got.push(msg);
            };
            match msg {
                Envelope::Client(ClientMsg::Read { client, seq, key }) => {
                    core.reads.park(from, (client, seq), key, *park_at);
                    core.reads.serve(ctx, &core.log);
                }
                Envelope::Client(ClientMsg::Request(cmd)) => {
                    if let Some(cmd) = intake(ctx, from, cmd, core.machine(), *hint) {
                        core.await_reply(&cmd, from);
                        handed.push(cmd);
                    }
                }
                Envelope::Peer(Step::Confirm(id, at)) => core.reads.confirm(ctx, &core.log, id, at),
                Envelope::Peer(Step::Apply(op)) => {
                    core.apply(ctx, &op);
                    core.reads.serve(ctx, &core.log);
                }
                Envelope::Peer(Step::Queue) => core.wave.push(ctx, ()),
                Envelope::Peer(Step::Restart) => assert!(core.restart().is_none(), "detached"),
                Envelope::Client(other) => panic!("a replica never receives {other:?}"),
            }
        }
    }

    /// The replica under test over `disk`'s engine, if any, and three
    /// recorders, on a fixed-delay network.
    fn rig_over(disk: Option<MemEngine>) -> Sim<Probe> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        let mut core = Core::new(BatchConfig::unbatched(), usize::MAX, ReadMode::ReadIndex);
        if let Some(engine) = disk {
            core.disk.attach(usize::MAX, engine);
        }
        sim.add_node(Probe::Replica {
            core: Box::new(core),
            park_at: None,
            hint: None,
            handed: Vec::new(),
        });
        for _ in 0..3 {
            sim.add_node(Probe::Recorder(Vec::new()));
        }
        sim
    }

    /// A detached replica under test and three recorders.
    fn rig() -> Sim<Probe> {
        rig_over(None)
    }

    /// Delivers `msg` from node `from` to the replica and lets every reply land.
    fn deliver(sim: &mut Sim<Probe>, from: u32, msg: Envelope<Step>) {
        let now = sim.now();
        sim.inject(NodeId(from), NodeId(0), msg, now);
        sim.run_for(10_000);
    }

    fn read(sim: &mut Sim<Probe>, from: u32, (client, seq): (u32, u64)) {
        let key = "k".into();
        deliver(
            sim,
            from,
            Envelope::Client(ClientMsg::Read { client, seq, key }),
        );
    }

    fn put(client: u32, seq: u64, value: &str) -> Command<KvCommand> {
        let (key, value) = ("k".into(), value.into());
        let op = KvCommand::Put { key, value };
        Command { client, seq, op }
    }

    fn apply(sim: &mut Sim<Probe>, cmd: Command<KvCommand>) {
        deliver(sim, 3, Envelope::Peer(Step::Apply(SmrOp::Cmd(cmd))));
    }

    fn core(sim: &Sim<Probe>) -> &Core<()> {
        let Probe::Replica { core, .. } = sim.node(NodeId(0)) else {
            unreachable!()
        };
        core
    }

    fn replica(sim: &mut Sim<Probe>) -> (&mut Option<usize>, &mut Option<NodeId>) {
        let Probe::Replica { park_at, hint, .. } = sim.node_mut(NodeId(0)) else {
            unreachable!()
        };
        (park_at, hint)
    }

    fn handed(sim: &Sim<Probe>) -> Vec<(u32, u64)> {
        let Probe::Replica { handed, .. } = sim.node(NodeId(0)) else {
            unreachable!()
        };
        handed.iter().map(|c| (c.client, c.seq)).collect()
    }

    fn got(sim: &Sim<Probe>, node: u32) -> &[ClientMsg] {
        let Probe::Recorder(got) = sim.node(NodeId(node)) else {
            unreachable!()
        };
        got
    }

    /// The read replies node `node` received: `(client, seq, value, mode)`.
    fn replies(sim: &Sim<Probe>, node: u32) -> Vec<(u32, u64, Option<String>, ReadMode)> {
        let brief = |msg: &ClientMsg| match msg {
            ClientMsg::ReadReply {
                client,
                seq,
                value,
                mode,
            } => (*client, *seq, value.as_ref().map(|v| v.to_string()), *mode),
            other => panic!("not a read reply: {other:?}"),
        };
        got(sim, node).iter().map(brief).collect()
    }

    /// The command replies node `node` received: `(seq, output)`.
    fn answers(sim: &Sim<Probe>, node: u32) -> Vec<(u64, KvResponse)> {
        let brief = |msg: &ClientMsg| match msg {
            ClientMsg::Reply { seq, output } => (*seq, output.clone()),
            other => panic!("not a reply: {other:?}"),
        };
        got(sim, node).iter().map(brief).collect()
    }

    #[test]
    fn a_reply_goes_once_to_the_recorded_sender_and_never_for_an_unrecorded_command() {
        let mut sim = rig();
        deliver(&mut sim, 1, Envelope::request(put(3, 4, "v")));
        assert_eq!(handed(&sim), [(3, 4)]);
        apply(&mut sim, put(9, 1, "w")); // nobody here awaits it
        apply(&mut sim, put(3, 4, "v"));
        // Decided again at a later index: answered from the dedup table,
        // but the sender was answered already.
        apply(&mut sim, put(3, 4, "v"));
        assert_eq!(answers(&sim, 1), [(4, KvResponse::Ok)]);
        assert!(got(&sim, 2).is_empty() && got(&sim, 3).is_empty());
        assert_eq!(core(&sim).log.applied_len(), 3);
    }

    #[test]
    fn a_resolved_decision_is_synced_in_the_handler_that_sends_its_reply() {
        let mut sim = rig_over(Some(MemEngine::new()));
        let (key, value) = ("~dec.t1.0".into(), "commit".into());
        let decision = Command {
            client: 3,
            seq: 4,
            op: KvCommand::Put { key, value },
        };
        deliver(&mut sim, 1, Envelope::request(decision.clone()));
        // Apply it and stop as soon as its handler returns: the reply is on
        // the wire, not delivered.
        let now = sim.now();
        let step = Envelope::Peer(Step::Apply(SmrOp::Cmd(decision)));
        sim.inject(NodeId(3), NodeId(0), step, now);
        sim.run_for(0);
        assert!(got(&sim, 1).is_empty(), "the reply landed already");
        // A crash now loses every unsynced record; the decision survives.
        let Probe::Replica { core, .. } = sim.node_mut(NodeId(0)) else {
            unreachable!()
        };
        assert_eq!(core.disk.txn_decisions_logged, 1);
        let restored = core.disk.restore(&mut ReplicatedLog::new());
        assert!(restored.expect("attached").records.is_empty());
        let tabled = core.disk.txn_decisions().get("~dec.t1.0").map(|v| &**v);
        assert_eq!(tabled, Some("commit"), "the decision was not synced");
        sim.run_for(10_000);
        assert_eq!(answers(&sim, 1), [(4, KvResponse::Ok)]);
    }

    #[test]
    fn a_restart_drops_replies_reads_and_the_wave_and_leaves_a_detached_log() {
        let mut sim = rig();
        apply(&mut sim, put(9, 1, "v1"));
        deliver(&mut sim, 1, Envelope::request(put(3, 4, "v")));
        read(&mut sim, 2, (2, 1));
        deliver(&mut sim, 3, Envelope::Peer(Step::Queue));
        assert_eq!(core(&sim).wave.len(), 1);
        let digest = core(&sim).machine().digest();
        deliver(&mut sim, 3, Envelope::Peer(Step::Restart));
        assert!(core(&sim).wave.is_empty(), "the wave survived");
        assert_eq!(core(&sim).log.applied_len(), 1);
        assert_eq!(core(&sim).machine().digest(), digest);
        apply(&mut sim, put(3, 4, "v"));
        deliver(&mut sim, 3, Envelope::Peer(Step::Confirm((2, 1), Some(0))));
        assert!(got(&sim, 1).is_empty(), "a reply outlived the restart");
        assert!(
            got(&sim, 2).is_empty(),
            "a parked read outlived the restart"
        );
    }

    #[test]
    fn a_confirmed_read_is_answered_once_and_only_after_its_index_applies() {
        let mut sim = rig();
        *replica(&mut sim).0 = Some(2);
        read(&mut sim, 1, (1, 1));
        apply(&mut sim, put(9, 1, "v1"));
        assert!(
            replies(&sim, 1).is_empty(),
            "answered before index 2 applied"
        );
        apply(&mut sim, put(9, 2, "v2"));
        let served = vec![(1, 1, Some("v2".into()), ReadMode::ReadIndex)];
        assert_eq!(replies(&sim, 1), served);
        apply(&mut sim, put(9, 3, "v3"));
        assert_eq!(replies(&sim, 1), served, "answered twice");
    }

    #[test]
    fn a_read_confirmed_later_waits_for_the_confirmation() {
        let mut sim = rig();
        apply(&mut sim, put(9, 1, "v1"));
        read(&mut sim, 1, (1, 1));
        assert!(
            replies(&sim, 1).is_empty(),
            "answered before it was confirmed"
        );
        deliver(&mut sim, 3, Envelope::Peer(Step::Confirm((1, 1), Some(1))));
        let served = vec![(1, 1, Some("v1".into()), ReadMode::ReadIndex)];
        assert_eq!(replies(&sim, 1), served);
    }

    #[test]
    fn a_refused_confirmation_nacks_exactly_once() {
        let mut sim = rig();
        read(&mut sim, 1, (1, 1));
        for at in [None, None, Some(0)] {
            deliver(&mut sim, 3, Envelope::Peer(Step::Confirm((1, 1), at)));
        }
        assert_eq!(replies(&sim, 1), [(1, 1, None, ReadMode::Nack)]);
    }

    #[test]
    fn a_restart_drops_parked_reads() {
        let mut sim = rig();
        read(&mut sim, 1, (1, 1));
        *replica(&mut sim).0 = Some(1);
        read(&mut sim, 2, (2, 1));
        deliver(&mut sim, 3, Envelope::Peer(Step::Restart));
        deliver(&mut sim, 3, Envelope::Peer(Step::Confirm((1, 1), Some(0))));
        deliver(&mut sim, 3, Envelope::Peer(Step::Confirm((1, 1), None)));
        apply(&mut sim, put(9, 1, "v1"));
        assert!(replies(&sim, 1).is_empty() && replies(&sim, 2).is_empty());
    }

    #[test]
    fn ready_reads_are_answered_in_client_seq_order() {
        let mut sim = rig();
        *replica(&mut sim).0 = Some(1);
        for id in [(3, 1), (1, 7), (1, 2), (2, 5)] {
            read(&mut sim, 1, id);
        }
        apply(&mut sim, put(9, 1, "v1"));
        let order: Vec<(u32, u64)> = (replies(&sim, 1).into_iter())
            .map(|(client, seq, ..)| (client, seq))
            .collect();
        assert_eq!(order, [(1, 2), (1, 7), (2, 5), (3, 1)]);
    }

    #[test]
    fn not_leader_carries_the_hint_to_the_sender() {
        let mut sim = rig();
        *replica(&mut sim).1 = Some(NodeId(2));
        deliver(&mut sim, 1, Envelope::request(put(3, 4, "v")));
        let [ClientMsg::NotLeader { seq: 4, hint }] = got(&sim, 1) else {
            panic!("{:?}", got(&sim, 1))
        };
        assert_eq!(*hint, NodeId(2));
        assert!(handed(&sim).is_empty() && got(&sim, 3).is_empty());
    }

    #[test]
    fn a_cached_reply_goes_to_the_sender_not_the_commands_client() {
        let mut sim = rig();
        apply(&mut sim, put(3, 4, "v"));
        deliver(&mut sim, 1, Envelope::request(put(3, 4, "v")));
        let [ClientMsg::Reply { seq: 4, output }] = got(&sim, 1) else {
            panic!("{:?}", got(&sim, 1))
        };
        assert_eq!(*output, KvResponse::Ok);
        assert!(handed(&sim).is_empty() && got(&sim, 3).is_empty());
    }

    #[test]
    fn a_new_command_is_handed_back_unanswered() {
        let mut sim = rig();
        apply(&mut sim, put(3, 4, "v"));
        deliver(&mut sim, 1, Envelope::request(put(3, 5, "w")));
        assert_eq!(handed(&sim), [(3, 5)]);
        assert!(got(&sim, 1).is_empty() && got(&sim, 3).is_empty());
    }
}
