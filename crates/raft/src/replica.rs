//! The Raft replica state machine, including §7 log compaction: replicas
//! snapshot their applied state, truncate the log behind the snapshot, and
//! bring far-behind followers up to date with `InstallSnapshot`.

use std::collections::BTreeMap;

use consensus_core::{
    BatchConfig, Batcher, ClientMsg, Command, DedupKvMachine, Envelope, Flush, KvCommand, ReadMode,
    ReplicatedLog, SmrOp, Str,
};
use simnet::causal::cat;
use simnet::{CncPhase, Context, LiveTimer, Node, NodeId, Time, Timer, TraceCtx};

use crate::durable::{
    decode_record, decode_snapshot, encode_record, encode_snapshot, Index, WalRecord,
};
use crate::msg::{Entry, RaftMsg};

/// Span protocol label; instances are log indices, rounds are terms.
const SPAN: &str = "raft";

/// The Raft wire: client messages beside [`RaftMsg`].
type Wire = Envelope<RaftMsg>;

/// A replica's current role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive: responds to leaders and candidates.
    Follower,
    /// Soliciting votes after an election timeout.
    Candidate,
    /// Handles all client requests and drives replication.
    Leader,
}

const ELECTION: u64 = 1;
const HEARTBEAT: u64 = 2;
/// Flush timer for underfull replication batches (leader only).
const FLUSH: u64 = 3;

/// Heartbeat period (µs).
const HB_PERIOD: u64 = 10_000;
/// Max entries shipped per AppendEntries.
const BATCH: usize = 32;
/// Default applied-entry count that triggers a snapshot.
pub const SNAPSHOT_THRESHOLD: usize = 64;
/// Read-index quorum-contact window (µs): the leader confirms a read's
/// commit index only while a majority answered an `AppendEntries` within
/// this long. Deliberately *below* the minimum election timeout
/// (`5 · HB_PERIOD`), so a deposed leader's window always closes before a
/// successor can commit new writes — that inequality is what makes the
/// contact-based confirmation safe without extra round-trips.
const READ_CONTACT_US: u64 = 4 * HB_PERIOD;

/// A fast read parked at this replica until its commit index is confirmed
/// (by the leader) and locally applied.
struct PendingRead {
    /// Key to serve once ready.
    key: Str,
    /// Node the [`ClientMsg::ReadReply`] goes back to.
    reply_to: NodeId,
    /// Leader-confirmed commit index the read must wait for (`None` while
    /// the read-index round-trip is still in flight).
    ready_at: Option<usize>,
}

/// A Raft server.
pub struct Replica {
    n_replicas: usize,

    // --- persistent state ---
    /// Latest term this server has seen.
    pub current_term: u64,
    /// Candidate voted for in the current term.
    pub voted_for: Option<NodeId>,
    /// The retained log: the entries after the snapshot, `log[0]` at
    /// absolute index `snapshot.0 + 1`.
    log: Vec<Entry>,
    /// `(index, term)` of the last entry the snapshot absorbed — `(0, 0)`
    /// before the first one. Entries up to it are gone.
    snapshot: (usize, u64),
    /// The applied side, as Multi-Paxos keeps it: the state machine (shipped
    /// whole in `InstallSnapshot`) and the entries it reflects,
    /// `1..=exec.applied_len()`.
    exec: ReplicatedLog<DedupKvMachine>,

    // --- volatile state ---
    /// Current role.
    pub role: Role,
    /// Highest log index known committed (absolute).
    pub commit_index: usize,
    votes: usize,
    election_timer: LiveTimer,
    leader_hint: Option<NodeId>,

    // --- leader state ---
    next_index: Vec<usize>,
    match_index: Vec<usize>,
    pending_reply: BTreeMap<usize, NodeId>,
    /// Causal context and arrival time per unflushed log index, so the
    /// replication wave can emit queue-wait spans and chain under the
    /// oldest batched command's trace (tracing only; always maintained).
    pending_trace: BTreeMap<usize, (TraceCtx, Time)>,
    /// Elections this replica has won.
    pub elections_won: u64,

    // --- replication batching (leader only) ---
    /// Batching/pipelining policy. Under `BatchConfig::unbatched()` every
    /// appended entry triggers an immediate fan-out, exactly as before the
    /// knob existed.
    batcher: Batcher,
    /// Entries appended to the leader's log but not yet shipped to
    /// followers. They form the next `AppendEntries` wave.
    unflushed: usize,

    // --- compaction ---
    snapshot_threshold: usize,
    /// Snapshots this replica has taken locally.
    pub snapshots_taken: u64,
    /// Snapshots received and installed from a leader.
    pub snapshots_installed: u64,

    // --- durability ---
    /// The durable side: with an engine attached, term/vote/log changes go
    /// to its WAL *before* the message they justify leaves, checkpoints
    /// absorb the applied prefix, and applied KV state is mirrored into its
    /// primary index. Detached, the historical everything-in-RAM behaviour.
    /// Also holds what the last crash recovery cost and the transaction
    /// decision table.
    pub durable: storage::Durable,

    // --- read-index fast reads (geo read path) ---
    /// Reads parked here until confirmed + applied, keyed by
    /// `(client, seq)`. Volatile: cleared on restart (the caller's timeout
    /// falls back to the log path).
    pending_reads: BTreeMap<(u32, u64), PendingRead>,
    /// Leader: arrival time of the last `AppendResponse` per peer, for the
    /// quorum-contact check. Sim-clock based — read-index needs no
    /// synchronized clocks, which is its advantage over leases.
    last_contact: BTreeMap<usize, Time>,
    /// First index appended under the current leadership (the no-op from
    /// `become_leader`). Reads are confirmable only once it commits.
    term_start_index: usize,
    /// Fast reads this replica served from its applied state.
    pub read_index_served: u64,
    /// Read requests NACKed back to the caller (fallback to the log path).
    pub read_nacks: u64,
}

impl Replica {
    /// Creates an unbatched replica for a cluster of `n_replicas`.
    pub fn new(n_replicas: usize) -> Self {
        Self::new_with(n_replicas, BatchConfig::unbatched())
    }

    /// Creates a replica with an explicit batching config.
    pub fn new_with(n_replicas: usize, batch: BatchConfig) -> Self {
        Replica {
            n_replicas,
            current_term: 0,
            voted_for: None,
            log: Vec::new(),
            snapshot: (0, 0),
            exec: ReplicatedLog::new(),
            role: Role::Follower,
            commit_index: 0,
            votes: 0,
            election_timer: LiveTimer::default(),
            leader_hint: None,
            next_index: Vec::new(),
            match_index: Vec::new(),
            pending_reply: BTreeMap::new(),
            pending_trace: BTreeMap::new(),
            elections_won: 0,
            batcher: Batcher::new(batch),
            unflushed: 0,
            snapshot_threshold: SNAPSHOT_THRESHOLD,
            snapshots_taken: 0,
            snapshots_installed: 0,
            durable: storage::Durable::default(),
            pending_reads: BTreeMap::new(),
            last_contact: BTreeMap::new(),
            term_start_index: 0,
            read_index_served: 0,
            read_nacks: 0,
        }
    }

    /// Overrides the snapshot threshold (compaction experiments).
    pub fn set_snapshot_threshold(&mut self, t: usize) {
        self.snapshot_threshold = t.max(1);
    }

    /// Attaches a durable storage engine: the WAL-before-message
    /// discipline, checkpointing and crash recovery all activate.
    pub fn attach_engine(&mut self, engine: Box<dyn storage::StorageEngine>) {
        self.durable.attach(engine);
    }

    /// Storage counters, when a durable engine is attached.
    pub fn storage_stats(&self) -> Option<storage::StorageStats> {
        self.durable.engine().map(|e| e.stats())
    }

    /// Durable mode: the transaction decision records this replica has
    /// applied (decision key → `commit`/`abort`), survives crash recovery.
    pub fn txn_decisions(&self) -> &BTreeMap<Str, Str> {
        self.durable.txn_decisions()
    }

    /// Appends a protocol record to the WAL. Without an engine the record
    /// is never built, so a RAM-mode replica clones no entry for it.
    fn wal_log(&mut self, rec: impl FnOnce() -> WalRecord) {
        self.durable.log(|| encode_record(&rec()));
    }

    /// Appends `entry` to the log and its `Append` record to the WAL;
    /// returns the entry's index.
    fn append(&mut self, entry: Entry) -> usize {
        let index = self.last_log_index() + 1;
        self.wal_log(|| WalRecord::Append {
            index,
            entry: entry.clone(),
        });
        self.log.push(entry);
        index
    }

    /// Persists the Figure-2 hard state (`current_term`, `voted_for`) —
    /// called whenever either changes; the sync rides the handler's group
    /// commit before its response leaves.
    fn log_hard_state(&mut self) {
        let (term, voted_for) = (self.current_term, self.voted_for);
        self.wal_log(|| WalRecord::HardState { term, voted_for });
    }

    /// Writes the machine state through the engine as a snapshot (which
    /// truncates the WAL) and re-logs every record still live: the hard
    /// state, the retained log suffix, and the commit index. After this,
    /// recovery = snapshot load + WAL replay.
    fn persist_checkpoint(&mut self) {
        let (term, voted_for, (offset, offset_term)) =
            (self.current_term, self.voted_for, self.snapshot);
        let hard_state = WalRecord::HardState { term, voted_for };
        let appends = (offset + 1..)
            .zip(&self.log)
            .map(|(index, entry)| WalRecord::Append {
                index,
                entry: entry.clone(),
            });
        let index = self.commit_index;
        let commit = (index > offset).then_some(WalRecord::Commit { index });
        let live = std::iter::once(hard_state).chain(appends).chain(commit);
        self.durable.checkpoint(
            || encode_snapshot(self.exec.machine(), offset, offset_term),
            live.map(|rec| encode_record(&rec)),
        );
    }

    /// Crash recovery: reformat the engine's volatile layers, load the
    /// last checkpoint, replay the WAL in order. Everything the
    /// pre-durability model declared axiomatically persistent (term, vote,
    /// log, machine) is rebuilt here from actual on-disk bytes — and the
    /// disk charges for every read, which is what recovery-time
    /// experiments measure.
    fn recover_from(&mut self, recovery: storage::Recovery) {
        self.current_term = 0;
        self.voted_for = None;
        self.log.clear();
        self.snapshot = (0, 0);
        self.exec = ReplicatedLog::new();
        self.commit_index = 0;
        self.leader_hint = None;
        if let Some(blob) = recovery.snapshot {
            let (machine, index, term) = decode_snapshot(&blob).expect("checkpoint blob decodes");
            self.exec.install(machine, index);
            let kv = self.exec.machine().kv();
            self.durable.rebuild_index(kv.iter(), kv.txn_decisions());
            self.snapshot = (index, term);
            self.commit_index = index;
        }
        let mut commit = self.commit_index;
        for raw in &recovery.records {
            let rec = decode_record(raw).expect("CRC-valid WAL record decodes");
            match rec {
                WalRecord::HardState { term, voted_for } => {
                    if term >= self.current_term {
                        self.current_term = term;
                        self.voted_for = voted_for;
                    }
                }
                WalRecord::Append { index, entry } => {
                    if index <= self.snapshot.0 {
                        continue; // absorbed by the checkpoint
                    }
                    let rel = index - self.snapshot.0 - 1;
                    self.log.truncate(rel);
                    assert_eq!(rel, self.log.len(), "WAL append out of order at {index}");
                    self.log.push(entry);
                }
                WalRecord::Truncate { from } => {
                    if from > self.snapshot.0 {
                        self.log.truncate(from - self.snapshot.0 - 1);
                    }
                }
                WalRecord::Commit { index } => commit = commit.max(index),
                WalRecord::TxnDecision { key, value } => {
                    self.durable.note_decisions([(&key, &value)]);
                }
            }
        }
        // Re-apply to the recovered commit frontier (never past the log —
        // an unsynced `Commit` may reference entries that didn't survive;
        // the next leader round re-commits them).
        self.commit_index = commit.min(self.last_log_index());
        self.apply_committed(None);
        self.durable.recovered(self.snapshot.0);
    }

    /// Absolute index of the last log entry.
    pub fn last_log_index(&self) -> usize {
        self.snapshot.0 + self.log.len()
    }

    /// Term of the last log entry.
    pub fn last_log_term(&self) -> u64 {
        self.log.last().map_or(self.snapshot.1, |e| e.term)
    }

    /// Absolute index of the last entry the snapshot absorbed (entries up
    /// to it are gone).
    pub fn snapshot_index(&self) -> usize {
        self.snapshot.0
    }

    /// Number of retained log entries.
    pub fn retained_len(&self) -> usize {
        self.log.len()
    }

    /// The replicated state machine.
    pub fn machine(&self) -> &DedupKvMachine {
        self.exec.machine()
    }

    /// Highest log index applied to the machine: the number of entries it
    /// reflects.
    pub fn last_applied(&self) -> usize {
        self.exec.applied_len()
    }

    /// Entry at absolute `index`, if still retained.
    pub fn entry(&self, index: usize) -> Option<&Entry> {
        let rel = index.checked_sub(self.snapshot.0 + 1)?;
        self.log.get(rel)
    }

    /// Term at absolute `index`: the snapshot's own term at its index,
    /// `None` below it (compacted away) or beyond the end.
    pub fn term_at(&self, index: usize) -> Option<u64> {
        if index == self.snapshot.0 {
            return Some(self.snapshot.1);
        }
        self.entry(index).map(|e| e.term)
    }

    fn majority(&self) -> usize {
        self.n_replicas / 2 + 1
    }

    /// Highest log index already included in a replication wave. Entries
    /// above it are queued for the next `AppendEntries` fan-out.
    fn flushed_tip(&self) -> usize {
        self.last_log_index() - self.unflushed
    }

    /// Ships the queued entries as one wave when the batch policy releases
    /// them: full, overdue, or configured for immediate flushing — but never
    /// while `pipeline_window` uncommitted entries are already on the wire
    /// (commits drain the window and re-trigger this via
    /// [`Self::set_commit_index`]). `AppendEntries` carries a range, so the
    /// whole queue goes out however many batches it holds.
    fn maybe_flush(&mut self, ctx: &mut Context<Wire>) {
        if self.role != Role::Leader {
            return;
        }
        loop {
            let in_flight = self.flushed_tip().saturating_sub(self.commit_index);
            match self.batcher.poll(self.unflushed, in_flight) {
                Flush::Take(_) => {
                    self.take_wave(ctx);
                    self.replicate_all(ctx);
                }
                Flush::Arm(delay) => {
                    ctx.set_timer(delay, FLUSH);
                    return;
                }
                Flush::Hold => return,
            }
        }
    }

    /// Turns the queued entries into the next wave: the caller's fan-out
    /// ships them. Emits their queue-wait spans and rebinds the send context
    /// to the oldest one, so the `AppendEntries` fan-out chains under the
    /// first batched command's trace — exactly the Multi-Paxos convention.
    fn take_wave(&mut self, ctx: &mut Context<Wire>) {
        ctx.record_batch(self.unflushed as u64);
        let wave_from = self.flushed_tip() + 1;
        self.unflushed = 0;
        let mut first: Option<TraceCtx> = None;
        for i in wave_from..=self.last_log_index() {
            if let Some(&(tc, enqueued)) = self.pending_trace.get(&i) {
                if ctx.now() > enqueued {
                    ctx.trace_span_since(tc, "batch-queue", cat::QUEUE, enqueued);
                }
                first = first.or(Some(tc));
            }
        }
        if first.is_some() {
            ctx.set_trace_ctx(first);
        }
    }

    fn reset_batching(&mut self) {
        self.unflushed = 0;
        self.batcher.reset();
    }

    fn reset_election_timer(&mut self, ctx: &mut Context<Wire>) {
        use rand::Rng;
        // Raft's randomized timeout: [5, 10] heartbeat periods.
        let timeout = ctx.rng().gen_range(5 * HB_PERIOD..=10 * HB_PERIOD);
        self.election_timer.restart(ctx, timeout, ELECTION);
    }

    fn become_follower(&mut self, ctx: &mut Context<Wire>, term: u64) {
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
            self.log_hard_state();
        }
        self.role = Role::Follower;
        self.reset_batching();
        self.reset_election_timer(ctx);
    }

    fn start_election(&mut self, ctx: &mut Context<Wire>) {
        self.current_term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(ctx.id());
        self.votes = 1; // own vote
        self.log_hard_state();
        self.durable.sync(ctx); // term + self-vote durable before soliciting
        self.reset_election_timer(ctx);
        ctx.phase(
            SPAN,
            self.commit_index as u64 + 1,
            self.current_term,
            CncPhase::LeaderElection,
        );
        // Multicast to the replica set only (`0..n_replicas`): clients share
        // the node space, and with a transmit-limited NIC every stray
        // delivery costs the sender serialization time.
        let me = ctx.id();
        ctx.send_many(
            (0..self.n_replicas).map(NodeId::from).filter(|&r| r != me),
            RaftMsg::RequestVote {
                term: self.current_term,
                last_log_index: self.last_log_index(),
                last_log_term: self.last_log_term(),
            }
            .into(),
        );
        if self.votes >= self.majority() {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Context<Wire>) {
        self.role = Role::Leader;
        self.reset_batching();
        self.elections_won += 1;
        self.leader_hint = Some(ctx.id());
        self.next_index = vec![self.last_log_index() + 1; self.n_replicas];
        self.match_index = vec![0; self.n_replicas];
        // A no-op entry lets the new leader commit entries from earlier
        // terms immediately (the commit rule only counts current-term
        // entries). Flushing the inherited suffix this way is Raft's form
        // of the C&C value-discovery phase.
        ctx.phase(
            SPAN,
            self.last_log_index() as u64 + 1,
            self.current_term,
            CncPhase::ValueDiscovery,
        );
        self.append(Entry {
            term: self.current_term,
            op: SmrOp::Noop,
        });
        self.durable.sync(ctx); // the no-op is durable before it replicates
        self.match_index[ctx.id().index()] = self.last_log_index();
        // Reads are confirmable only after this no-op commits; contact
        // history from older terms never carries over.
        self.term_start_index = self.last_log_index();
        self.last_contact.clear();
        self.replicate_all(ctx);
        ctx.set_timer(HB_PERIOD, HEARTBEAT);
    }

    fn replicate_all(&mut self, ctx: &mut Context<Wire>) {
        for peer in 0..self.n_replicas {
            let peer = NodeId::from(peer);
            if peer != ctx.id() {
                self.replicate_to(ctx, peer);
            }
        }
    }

    fn replicate_to(&mut self, ctx: &mut Context<Wire>, peer: NodeId) {
        let next = self.next_index[peer.index()].max(1);
        let offset = self.snapshot.0;
        if next <= offset {
            // The entries the follower needs are compacted: ship the
            // machine instead, labelled with the index it reflects.
            let applied = self.exec.applied_len();
            let term = self
                .term_at(applied)
                .expect("the applied index is retained or the snapshot's");
            ctx.send(
                peer,
                RaftMsg::InstallSnapshot {
                    term: self.current_term,
                    last_included_index: applied,
                    last_included_term: term,
                    machine: Box::new(self.exec.machine().clone()),
                }
                .into(),
            );
            // Optimistic, like the entry path below: don't re-ship the
            // snapshot on every trigger while this one is in flight.
            self.next_index[peer.index()] = applied + 1;
            return;
        }
        let prev_log_index = next - 1;
        let prev_log_term = self
            .term_at(prev_log_index)
            .expect("prev ≥ the snapshot index is retained");
        let rel_next = next - offset - 1;
        // Ship at most a wire batch, and never past the flushed tip:
        // queued-but-unflushed entries wait for their wave (an empty
        // entries list is just a heartbeat).
        let end = (rel_next + BATCH.max(self.batcher.max_batch()))
            .min(self.log.len())
            .min(self.flushed_tip() - offset)
            .max(rel_next);
        let entries: Vec<Entry> = self.log[rel_next..end].to_vec();
        // Advance `next_index` optimistically to just past what was shipped,
        // so concurrent triggers (new requests, acks, heartbeats) don't
        // re-ship the in-flight suffix — without this, every trigger
        // re-sends everything unacked and the AppendEntries↔ack ping-pong
        // saturates a transmit-limited NIC. A lost wave self-heals: the
        // next heartbeat's consistency check fails at the follower, whose
        // nack hint walks `next_index` back down.
        self.next_index[peer.index()] = offset + end + 1;
        ctx.send(
            peer,
            RaftMsg::AppendEntries {
                term: self.current_term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit: self.commit_index,
            }
            .into(),
        );
    }

    fn advance_commit(&mut self, ctx: &mut Context<Wire>) {
        for n in (self.commit_index + 1..=self.last_log_index()).rev() {
            if self.term_at(n) != Some(self.current_term) {
                continue;
            }
            let replicated = self.match_index.iter().filter(|&&m| m >= n).count();
            if replicated >= self.majority() {
                self.set_commit_index(ctx, n);
                break;
            }
        }
    }

    fn set_commit_index(&mut self, ctx: &mut Context<Wire>, index: usize) {
        let index = index.min(self.last_log_index());
        if index > self.commit_index {
            self.commit_index = index;
            self.wal_log(|| WalRecord::Commit { index });
        }
        self.apply_committed(Some(&mut *ctx));
        // A fresh applied frontier may unlock parked fast reads.
        self.serve_ready_reads(ctx);
        self.maybe_snapshot();
        // Commits drain the pipeline window: a held-back wave may now ship.
        self.maybe_flush(ctx);
    }

    /// Applies every committed entry the machine does not reflect yet,
    /// through the apply step Multi-Paxos shares ([`ReplicatedLog::apply`]).
    /// Live, each entry also closes its span, syncs a transaction decision
    /// it resolved before the reply that releases the transaction leaves
    /// (WAL-before-decision), and the leader replies; replaying a recovered
    /// log (`ctx` is `None`) does none of that.
    fn apply_committed(&mut self, mut ctx: Option<&mut Context<Wire>>) {
        while self.exec.applied_len() < self.commit_index {
            let i = self.exec.applied_len() + 1;
            let op = &self.log[i - self.snapshot.0 - 1].op;
            let mut reply = None;
            let resolved = self
                .exec
                .apply(op, Index::of(&mut self.durable), |cmd, out| {
                    reply = Some((cmd.seq, out));
                });
            let Some(ctx) = ctx.as_deref_mut() else {
                continue;
            };
            self.pending_trace.remove(&i);
            ctx.phase(SPAN, i as u64, self.current_term, CncPhase::Decision);
            ctx.span_close(SPAN, i as u64, self.current_term);
            if resolved {
                self.durable.sync(ctx);
            }
            let client_node = (self.role == Role::Leader)
                .then(|| self.pending_reply.remove(&i))
                .flatten();
            if let (Some(client_node), Some((seq, output))) = (client_node, reply) {
                let reply = ClientMsg::Reply { seq, output };
                ctx.send(client_node, Envelope::Client(reply));
            }
        }
    }

    /// Compact the applied prefix once it exceeds the threshold.
    fn maybe_snapshot(&mut self) {
        let (applied, offset) = (self.exec.applied_len(), self.snapshot.0);
        if applied - offset < self.snapshot_threshold {
            return;
        }
        let term = self.term_at(applied).expect("applied entries are retained");
        self.log.drain(..applied - offset);
        self.snapshot = (applied, term);
        self.snapshots_taken += 1;
        // Durable mode: the checkpoint truncates the WAL and re-logs the
        // retained suffix, so recovery cost stays bounded.
        self.persist_checkpoint();
    }

    fn log_up_to_date(&self, last_index: usize, last_term: u64) -> bool {
        last_term > self.last_log_term()
            || (last_term == self.last_log_term() && last_index >= self.last_log_index())
    }

    /// Leader-side: whether this leader may confirm read indices right now —
    /// a majority (counting itself) answered an `AppendEntries` within the
    /// contact window, and the current term's no-op has committed (before
    /// that, `commit_index` may miss writes the previous leader
    /// acknowledged).
    fn can_confirm_reads(&self, ctx: &Context<Wire>) -> bool {
        if self.role != Role::Leader || self.commit_index < self.term_start_index {
            return false;
        }
        let now = ctx.now();
        let fresh = self
            .last_contact
            .values()
            .filter(|&&t| now.0.saturating_sub(t.0) <= READ_CONTACT_US)
            .count();
        fresh + 1 >= self.majority()
    }

    /// Serves every parked read whose confirmed commit index has applied
    /// locally. The value comes from the applied machine, so it reflects
    /// every write acknowledged before the read arrived.
    fn serve_ready_reads(&mut self, ctx: &mut Context<Wire>) {
        let ready: Vec<(u32, u64)> = self
            .pending_reads
            .iter()
            .filter(|(_, p)| p.ready_at.is_some_and(|i| self.exec.applied_len() >= i))
            .map(|(&k, _)| k)
            .collect();
        for (client, seq) in ready {
            let p = self
                .pending_reads
                .remove(&(client, seq))
                .expect("just listed");
            self.read_index_served += 1;
            let value = self.exec.machine().kv().get(&p.key).cloned();
            let mode = ReadMode::ReadIndex;
            let reply = ClientMsg::ReadReply {
                client,
                seq,
                value,
                mode,
            };
            ctx.send(p.reply_to, Envelope::Client(reply));
        }
    }

    /// Refuses a fast read: the caller falls back to the log path.
    fn nack_read(&mut self, ctx: &mut Context<Wire>, client: u32, seq: u64, to: NodeId) {
        self.read_nacks += 1;
        let (value, mode) = (None, ReadMode::Nack);
        let reply = ClientMsg::ReadReply {
            client,
            seq,
            value,
            mode,
        };
        ctx.send(to, Envelope::Client(reply));
    }

    /// A command goes into the leader's log; a read is served through
    /// read-index confirmation.
    fn on_client(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: ClientMsg) {
        match msg {
            ClientMsg::Request(cmd) => self.on_request(ctx, from, cmd),
            ClientMsg::Read { client, seq, key } => {
                if self.role == Role::Leader {
                    if self.can_confirm_reads(ctx) {
                        self.pending_reads.insert(
                            (client, seq),
                            PendingRead {
                                key,
                                reply_to: from,
                                ready_at: Some(self.commit_index),
                            },
                        );
                        self.serve_ready_reads(ctx);
                    } else {
                        self.nack_read(ctx, client, seq, from);
                    }
                } else if let Some(leader) = self.leader_hint {
                    // Park the read and ask the leader to confirm its
                    // commit index; we serve from local applied state once
                    // it both confirms and applies here.
                    self.pending_reads.insert(
                        (client, seq),
                        PendingRead {
                            key,
                            reply_to: from,
                            ready_at: None,
                        },
                    );
                    ctx.send(leader, RaftMsg::ReadIndexQ { client, seq }.into());
                } else {
                    self.nack_read(ctx, client, seq, from);
                }
            }
            // Replicas never receive the other client messages.
            _ => {}
        }
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, from: NodeId, cmd: Command<KvCommand>) {
        if self.role != Role::Leader {
            let hint = self.leader_hint.unwrap_or(NodeId(0));
            let not_leader = ClientMsg::NotLeader { seq: cmd.seq, hint };
            ctx.send(from, Envelope::Client(not_leader));
            return;
        }
        if let Some(out) = self.exec.machine().cached(cmd.client, cmd.seq) {
            ctx.send(from, Envelope::reply(&cmd, out.clone()));
            return;
        }
        let uncommitted_from = self.commit_index.saturating_sub(self.snapshot.0);
        let in_flight = self.log[uncommitted_from.min(self.log.len())..]
            .iter()
            .any(|e| matches!(&e.op, SmrOp::Cmd(c) if c.client == cmd.client && c.seq == cmd.seq));
        if in_flight {
            return;
        }
        let index = self.append(Entry {
            term: self.current_term,
            op: SmrOp::Cmd(cmd),
        });
        self.durable.sync(ctx); // entry durable before the leader counts it
        ctx.span_open(SPAN, index as u64, self.current_term);
        ctx.phase(SPAN, index as u64, self.current_term, CncPhase::Agreement);
        self.match_index[ctx.id().index()] = index;
        self.pending_reply.insert(index, from);
        if let Some(tc) = ctx.trace_ctx() {
            self.pending_trace.insert(index, (tc, ctx.now()));
        }
        self.unflushed += 1;
        self.maybe_flush(ctx);
    }
}

impl Node for Replica {
    type Msg = Wire;

    fn on_start(&mut self, ctx: &mut Context<Wire>) {
        self.reset_election_timer(ctx);
        // Bias node 0 to win the first election fast: fire almost at once.
        if ctx.id() == NodeId(0) {
            self.election_timer.restart(ctx, 1_000, ELECTION);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(msg) => return self.on_client(ctx, from, msg),
        };
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                if term > self.current_term {
                    self.become_follower(ctx, term);
                }
                let grant = term == self.current_term
                    && (self.voted_for.is_none() || self.voted_for == Some(from))
                    && self.log_up_to_date(last_log_index, last_log_term);
                if grant {
                    self.voted_for = Some(from);
                    self.log_hard_state();
                    self.reset_election_timer(ctx);
                }
                self.durable.sync(ctx); // term/vote durable before the response
                ctx.send(
                    from,
                    RaftMsg::VoteResponse {
                        term: self.current_term,
                        granted: grant,
                    }
                    .into(),
                );
            }

            RaftMsg::VoteResponse { term, granted } => {
                if term > self.current_term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role == Role::Candidate && term == self.current_term && granted {
                    self.votes += 1;
                    if self.votes >= self.majority() {
                        self.become_leader(ctx);
                    }
                }
            }

            RaftMsg::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term < self.current_term {
                    ctx.send(
                        from,
                        RaftMsg::AppendResponse {
                            term: self.current_term,
                            success: false,
                            match_index: 0,
                        }
                        .into(),
                    );
                    return;
                }
                self.become_follower(ctx, term);
                self.leader_hint = Some(from);

                if prev_log_index < self.snapshot.0 {
                    // We have a snapshot past `prev`: ask the leader to
                    // resume from our offset.
                    self.durable.sync(ctx); // any term bump durable first
                    ctx.send(
                        from,
                        RaftMsg::AppendResponse {
                            term: self.current_term,
                            success: false,
                            match_index: self.snapshot.0,
                        }
                        .into(),
                    );
                    return;
                }

                // Consistency check.
                let ok = self.term_at(prev_log_index) == Some(prev_log_term);
                if !ok {
                    let hint = prev_log_index
                        .saturating_sub(1)
                        .min(self.last_log_index())
                        .max(self.snapshot.0);
                    self.durable.sync(ctx); // any term bump durable first
                    ctx.send(
                        from,
                        RaftMsg::AppendResponse {
                            term: self.current_term,
                            success: false,
                            match_index: hint,
                        }
                        .into(),
                    );
                    return;
                }
                // Append, truncating conflicts.
                let mut index = prev_log_index;
                for entry in entries {
                    index += 1;
                    match self.entry(index) {
                        Some(existing) if existing.term == entry.term => {}
                        Some(_) => {
                            assert!(
                                index > self.commit_index,
                                "attempted to truncate a committed entry"
                            );
                            self.log.truncate(index - self.snapshot.0 - 1);
                            self.wal_log(|| WalRecord::Truncate { from: index });
                            self.append(entry);
                        }
                        None => {
                            self.append(entry);
                        }
                    }
                }
                if leader_commit > self.commit_index {
                    let last_new = index;
                    self.set_commit_index(ctx, leader_commit.min(last_new));
                }
                // One group commit covers the term bump, every appended
                // entry, and the commit advance — WAL-before-ack.
                self.durable.sync(ctx);
                ctx.send(
                    from,
                    RaftMsg::AppendResponse {
                        term: self.current_term,
                        success: true,
                        match_index: index,
                    }
                    .into(),
                );
            }

            RaftMsg::InstallSnapshot {
                term,
                last_included_index,
                last_included_term,
                machine,
            } => {
                if term < self.current_term {
                    return;
                }
                self.become_follower(ctx, term);
                self.leader_hint = Some(from);
                let offset = self.snapshot.0;
                if last_included_index <= offset {
                    return; // stale snapshot
                }
                // Keep our suffix if the snapshot is a prefix of our log;
                // otherwise discard the whole log.
                let prefix = self.term_at(last_included_index) == Some(last_included_term);
                let absorbed = if prefix {
                    last_included_index - offset
                } else {
                    self.log.len()
                };
                self.log.drain(..absorbed);
                self.snapshot = (last_included_index, last_included_term);
                self.exec.install(*machine, last_included_index);
                self.commit_index = self.commit_index.max(last_included_index);
                self.snapshots_installed += 1;
                // The applied frontier jumped: parked fast reads may serve.
                self.serve_ready_reads(ctx);
                // Durable mode: rebuild the on-disk index from the shipped
                // state and checkpoint it, so the install survives a crash
                // that follows the ack.
                let kv = self.exec.machine().kv();
                self.durable.rebuild_index(kv.iter(), kv.txn_decisions());
                self.persist_checkpoint();
                ctx.send(
                    from,
                    RaftMsg::AppendResponse {
                        term: self.current_term,
                        success: true,
                        match_index: last_included_index,
                    }
                    .into(),
                );
            }

            RaftMsg::AppendResponse {
                term,
                success,
                match_index,
            } => {
                if term > self.current_term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role != Role::Leader || term != self.current_term {
                    return;
                }
                let peer = from.index();
                // Any same-term response counts as contact: the peer is
                // reachable and still recognizes this leadership.
                self.last_contact.insert(peer, ctx.now());
                if success {
                    self.match_index[peer] = self.match_index[peer].max(match_index);
                    // Never regress an optimistic `next_index` on a (possibly
                    // stale) ack — regressing would re-ship the in-flight
                    // suffix and restart the ping-pong.
                    self.next_index[peer] = self.next_index[peer].max(self.match_index[peer] + 1);
                    self.advance_commit(ctx);
                    if self.next_index[peer] <= self.flushed_tip() {
                        self.replicate_to(ctx, from);
                    }
                } else {
                    self.next_index[peer] = (match_index + 1).clamp(1, self.last_log_index() + 1);
                    self.replicate_to(ctx, from);
                }
            }

            RaftMsg::ReadIndexQ { client, seq } => {
                let index = self.can_confirm_reads(ctx).then_some(self.commit_index);
                ctx.send(from, RaftMsg::ReadIndexR { client, seq, index }.into());
            }

            RaftMsg::ReadIndexR { client, seq, index } => match index {
                None => {
                    if let Some(p) = self.pending_reads.remove(&(client, seq)) {
                        self.nack_read(ctx, client, seq, p.reply_to);
                    }
                }
                Some(index) => {
                    if let Some(p) = self.pending_reads.get_mut(&(client, seq)) {
                        p.ready_at = Some(index);
                        self.serve_ready_reads(ctx);
                    }
                }
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        match timer.kind {
            ELECTION if self.role != Role::Leader => self.start_election(ctx),
            HEARTBEAT if self.role == Role::Leader => {
                // The heartbeat fan-out ships everything anyway: fold any
                // queued wave into it.
                if self.unflushed > 0 {
                    self.take_wave(ctx);
                    self.batcher.drained();
                }
                self.replicate_all(ctx);
                ctx.set_timer(HB_PERIOD, HEARTBEAT);
            }
            FLUSH => {
                let pending = self.role == Role::Leader && self.unflushed > 0;
                self.batcher.expire(pending);
                if pending {
                    self.maybe_flush(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<Wire>) {
        // Leadership and volatile indices never survive a restart.
        self.role = Role::Follower;
        self.votes = 0;
        self.pending_reply.clear();
        self.pending_trace.clear();
        self.pending_reads.clear();
        self.last_contact.clear();
        self.reset_batching();
        self.election_timer.fired();
        if let Some(recovery) = self.durable.restart() {
            // Durable mode: term, vote, log, and machine exist only as WAL
            // records and checkpoints. Rebuild them the honest way.
            self.recover_from(recovery);
        }
        // else: the historical RAM model — current_term, voted_for, log,
        // snapshot, and machine are axiomatically durable and still here.
        self.reset_election_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_replica_invariants() {
        let r = Replica::new(3);
        assert_eq!(r.role, Role::Follower);
        assert_eq!(r.last_log_index(), 0);
        assert_eq!(r.last_log_term(), 0);
        assert_eq!(r.commit_index, 0);
        assert_eq!(r.snapshot_index(), 0);
        assert_eq!(r.term_at(0), Some(0), "the empty log's snapshot");
        assert_eq!(r.entry(0), None);
    }

    #[test]
    fn log_up_to_date_rule() {
        let mut r = Replica::new(3);
        r.log.push(Entry {
            term: 2,
            op: SmrOp::Noop,
        });
        assert!(r.log_up_to_date(1, 3));
        assert!(r.log_up_to_date(1, 2));
        assert!(r.log_up_to_date(2, 2));
        assert!(!r.log_up_to_date(10, 1));
    }

    #[test]
    fn term_at_respects_compaction_boundaries() {
        let mut r = Replica::new(3);
        for t in 1..=5u64 {
            r.log.push(Entry {
                term: t,
                op: SmrOp::Noop,
            });
        }
        // Commit and apply three of the five, then snapshot at index 3.
        r.commit_index = 3;
        r.apply_committed(None);
        r.snapshot_threshold = 1;
        r.maybe_snapshot();
        assert_eq!(r.snapshot_index(), 3);
        assert_eq!(r.term_at(3), Some(3), "the snapshot keeps its term");
        assert_eq!(r.entry(3), None, "no entry stands in for the snapshot");
        assert_eq!(r.term_at(2), None, "compacted entries are gone");
        assert_eq!(r.entry(4).map(|e| e.term), Some(4), "the suffix stays");
        assert_eq!(r.last_log_index(), 5);
        assert_eq!(r.retained_len(), 2);
    }
}
