//! The Raft replica state machine, including §7 log compaction: replicas
//! snapshot their applied state, truncate the log behind the snapshot, and
//! bring far-behind followers up to date with `InstallSnapshot`.

use std::collections::BTreeMap;

use consensus_core::durable::{Restored, WalRecord};
use consensus_core::quorum::Phase;
use consensus_core::shell::{self, peers, Core, ELECTION, FLUSH};
use consensus_core::{
    Ballot, BatchConfig, ClientMsg, Command, Envelope, KvCommand, QuorumSpec, ReadMode, SmrOp,
    Tally,
};
use simnet::{CncPhase, Context, Node, NodeId, Time, Timer};

use crate::msg::{Entry, RaftMsg};

/// The pid of a `Promise` that records a term without a vote.
const NO_VOTE: u32 = u32::MAX;

/// An entry's `Accept` record: Raft has one leader per term, so the ballot
/// is the entry's term and its pid carries nothing.
fn accept(index: usize, entry: &Entry) -> WalRecord {
    WalRecord::Accept {
        index,
        ballot: Ballot::new(entry.term, 0),
        op: entry.op.clone(),
    }
}

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

const HEARTBEAT: u64 = 2;

/// Heartbeat period (µs).
const HB_PERIOD: u64 = 10_000;
/// Max entries shipped per AppendEntries.
const MAX_ENTRIES: usize = 32;
/// Default applied-entry count that triggers a snapshot.
pub const SNAPSHOT_THRESHOLD: usize = 64;
/// Read-index quorum-contact window (µs): the leader confirms a read's
/// commit index only while a majority answered an `AppendEntries` within
/// this long. Deliberately *below* the minimum election timeout
/// (`5 · HB_PERIOD`), so a deposed leader's window always closes before a
/// successor can commit new writes — that inequality is what makes the
/// contact-based confirmation safe without extra round-trips.
const READ_CONTACT_US: u64 = 4 * HB_PERIOD;

/// A Raft server. It derefs to its [`Core`]: `r.disk`, `r.machine()` and
/// `r.storage_stats()` are the core's.
pub struct Replica {
    n_replicas: usize,

    // --- persistent state ---
    /// Latest term this server has seen.
    pub current_term: u64,
    /// Candidate voted for in the current term.
    pub voted_for: Option<NodeId>,
    /// The retained log: the entries after the snapshot, `log[0]` at
    /// absolute index `core.floor + 1`.
    log: Vec<Entry>,
    /// The term of the last entry the snapshot absorbed, at index
    /// `core.floor` — 0 before the first one. Entries up to it are gone.
    snapshot_term: u64,
    /// The applied side, as Multi-Paxos keeps it: the state machine (shipped
    /// whole in `InstallSnapshot`) and the entries it reflects,
    /// `1..=core.log.applied_len()`; the disk, which checkpoints every
    /// [`SNAPSHOT_THRESHOLD`] applied entries unless told otherwise; the
    /// read-index reads; and the wave, the commands the leader has not
    /// appended yet, which go into the log as one entry when it is released
    /// (under `BatchConfig::unbatched()` each command at once).
    core: Core,

    // --- volatile state ---
    /// Current role.
    pub role: Role,
    /// Highest log index known committed (absolute).
    pub commit_index: usize,
    /// The current candidacy's granted votes, one per voter.
    votes: Tally<()>,
    leader_hint: Option<NodeId>,

    // --- leader state ---
    next_index: Vec<usize>,
    match_index: Vec<usize>,
    /// Elections this replica has won.
    pub elections_won: u64,

    // --- read-index fast reads (geo read path) ---
    /// Leader: arrival time of the last `AppendResponse` per peer, for the
    /// quorum-contact check. Sim-clock based — read-index needs no
    /// synchronized clocks, which is its advantage over leases.
    last_contact: BTreeMap<usize, Time>,
    /// First index appended under the current leadership (the no-op from
    /// `become_leader`). Reads are confirmable only once it commits.
    term_start_index: usize,
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
            snapshot_term: 0,
            core: Core::new(batch, SNAPSHOT_THRESHOLD, ReadMode::ReadIndex),
            role: Role::Follower,
            commit_index: 0,
            votes: Tally::new(QuorumSpec::Majority { n: n_replicas }, Phase::Election),
            leader_hint: None,
            next_index: Vec::new(),
            match_index: Vec::new(),
            elections_won: 0,
            last_contact: BTreeMap::new(),
            term_start_index: 0,
        }
    }

    /// Appends `entry` to the log and its `Accept` record to the WAL;
    /// returns the entry's index.
    fn append(&mut self, entry: Entry) -> usize {
        let index = self.last_log_index() + 1;
        self.core.disk.log(|| accept(index, &entry));
        self.log.push(entry);
        index
    }

    /// Persists the Figure-2 hard state (`current_term`, `voted_for`) —
    /// called whenever either changes; the sync rides the handler's group
    /// commit before its response leaves.
    fn log_hard_state(&mut self) {
        let promise = self.hard_state();
        self.core.disk.log(|| promise);
    }

    /// The Figure-2 hard state as a `Promise`: the term is the ballot's
    /// number, the vote its pid ([`NO_VOTE`] for none).
    fn hard_state(&self) -> WalRecord {
        let pid = self.voted_for.map_or(NO_VOTE, |n| n.0);
        WalRecord::Promise {
            ballot: Ballot::new(self.current_term, pid),
        }
    }

    /// Writes the machine state through the engine as a snapshot (which
    /// truncates the WAL) and re-logs every record still live: the hard
    /// state, the retained log suffix, and the commit index. After this,
    /// recovery = snapshot load + WAL replay.
    fn persist_checkpoint(&mut self) {
        let (offset, offset_term) = (self.core.floor, self.snapshot_term);
        let hard_state = self.hard_state();
        let appends = (offset + 1..)
            .zip(&self.log)
            .map(|(index, entry)| accept(index, entry));
        let index = self.commit_index;
        let commit = (index > offset).then_some(WalRecord::Commit { index });
        let live = std::iter::once(hard_state).chain(appends).chain(commit);
        (self.core.disk).checkpoint(self.core.log.machine(), offset, offset_term, live);
    }

    /// Crash recovery: replay, in order, the WAL records [`Core::restart`]
    /// handed back over the checkpoint it installed. Everything the
    /// pre-durability model declared axiomatically persistent (term, vote,
    /// log, machine) is rebuilt here from actual on-disk bytes — and the
    /// disk charges for every read, which is what recovery-time experiments
    /// measure.
    fn recover_from(&mut self, restored: Restored) {
        self.current_term = 0;
        self.voted_for = None;
        self.log.clear();
        self.snapshot_term = restored.term;
        self.commit_index = restored.index;
        self.leader_hint = None;
        let mut commit = self.commit_index;
        for rec in restored.records {
            match rec {
                WalRecord::Promise { ballot } => {
                    if ballot.num >= self.current_term {
                        self.current_term = ballot.num;
                        self.voted_for = (ballot.pid != NO_VOTE).then_some(NodeId(ballot.pid));
                    }
                }
                WalRecord::Accept { index, ballot, op } => {
                    if index <= self.core.floor {
                        continue; // absorbed by the checkpoint
                    }
                    // Replaying an append drops every entry at and above
                    // it: a conflicting suffix needs no record of its own.
                    let rel = index - self.core.floor - 1;
                    self.log.truncate(rel);
                    assert_eq!(rel, self.log.len(), "WAL append out of order at {index}");
                    self.log.push(Entry {
                        term: ballot.num,
                        op,
                    });
                }
                WalRecord::Commit { index } => commit = commit.max(index),
                rec => panic!("Raft never logs {rec:?}"),
            }
        }
        // Re-apply to the recovered commit frontier (never past the log —
        // an unsynced `Commit` may reference entries that didn't survive;
        // the next leader round re-commits them).
        self.commit_index = commit.min(self.last_log_index());
        self.apply_committed(None);
        self.core.disk.recovered(self.core.floor);
    }

    /// Absolute index of the last log entry.
    pub fn last_log_index(&self) -> usize {
        self.core.floor + self.log.len()
    }

    /// Term of the last log entry.
    pub fn last_log_term(&self) -> u64 {
        self.log.last().map_or(self.snapshot_term, |e| e.term)
    }

    /// Absolute index of the last entry the snapshot absorbed (entries up
    /// to it are gone).
    pub fn snapshot_index(&self) -> usize {
        self.core.floor
    }

    /// Number of retained log entries.
    pub fn retained_len(&self) -> usize {
        self.log.len()
    }

    /// Highest log index applied to the machine: the number of entries it
    /// reflects.
    pub fn last_applied(&self) -> usize {
        self.core.log.applied_len()
    }

    /// Entry at absolute `index`, if still retained.
    pub fn entry(&self, index: usize) -> Option<&Entry> {
        let rel = index.checked_sub(self.core.floor + 1)?;
        self.log.get(rel)
    }

    /// Term at absolute `index`: the snapshot's own term at its index,
    /// `None` below it (compacted away) or beyond the end.
    pub fn term_at(&self, index: usize) -> Option<u64> {
        if index == self.core.floor {
            return Some(self.snapshot_term);
        }
        self.entry(index).map(|e| e.term)
    }

    fn majority(&self) -> usize {
        self.n_replicas / 2 + 1
    }

    /// The retained entries above the commit index.
    fn uncommitted(&self) -> &[Entry] {
        let from = self.commit_index.saturating_sub(self.core.floor);
        &self.log[from.min(self.log.len())..]
    }

    /// Flushes the queued commands when the batch policy releases them:
    /// full, overdue, or configured for immediate flushing — but never while
    /// `pipeline_window` commands above the commit index are on the wire
    /// (commits drain the window and re-trigger this via
    /// [`Self::set_commit_index`]).
    fn maybe_flush(&mut self, ctx: &mut Context<Wire>) {
        if self.role != Role::Leader {
            return;
        }
        let in_flight = self.uncommitted().iter().map(|e| e.op.commands().len());
        if self.core.wave.ripe(ctx, in_flight.sum()).is_some() {
            self.flush(ctx);
        }
    }

    /// Appends the whole queue as one entry, durable before the leader
    /// counts it, opens its instance and ships it.
    fn flush(&mut self, ctx: &mut Context<Wire>) {
        let op = self.core.batch(ctx, self.core.wave.len());
        let index = self.append(Entry {
            term: self.current_term,
            op,
        });
        self.core.disk.sync(ctx); // entry durable before the leader counts it
        ctx.span_open(SPAN, index as u64, self.current_term);
        ctx.phase(SPAN, index as u64, self.current_term, CncPhase::Agreement);
        self.match_index[ctx.id().index()] = index;
        self.replicate_all(ctx);
    }

    fn reset_election_timer(&mut self, ctx: &mut Context<Wire>) {
        use rand::Rng;
        // Raft's randomized timeout: [5, 10] heartbeat periods.
        let timeout = ctx.rng().gen_range(5 * HB_PERIOD..=10 * HB_PERIOD);
        self.core.election.restart(ctx, timeout, ELECTION);
    }

    fn become_follower(&mut self, ctx: &mut Context<Wire>, term: u64) {
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
            self.log_hard_state();
        }
        self.role = Role::Follower;
        self.core.wave.reset();
        self.reset_election_timer(ctx);
    }

    fn start_election(&mut self, ctx: &mut Context<Wire>) {
        self.current_term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(ctx.id());
        self.votes = Tally::new(QuorumSpec::Majority { n: self.n_replicas }, Phase::Election);
        self.votes.vote(ctx.id(), []);
        self.log_hard_state();
        self.core.disk.sync(ctx); // term + self-vote durable before soliciting
        self.reset_election_timer(ctx);
        ctx.phase(
            SPAN,
            self.commit_index as u64 + 1,
            self.current_term,
            CncPhase::LeaderElection,
        );
        ctx.send_many(
            peers(self.n_replicas, ctx.id()),
            RaftMsg::RequestVote {
                term: self.current_term,
                last_log_index: self.last_log_index(),
                last_log_term: self.last_log_term(),
            }
            .into(),
        );
        if self.votes.reached() {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Context<Wire>) {
        self.role = Role::Leader;
        self.core.wave.reset();
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
        self.core.disk.sync(ctx); // the no-op is durable before it replicates
        self.match_index[ctx.id().index()] = self.last_log_index();
        // Reads are confirmable only after this no-op commits; contact
        // history from older terms never carries over.
        self.term_start_index = self.last_log_index();
        self.last_contact.clear();
        self.replicate_all(ctx);
        ctx.set_timer(HB_PERIOD, HEARTBEAT);
    }

    fn replicate_all(&mut self, ctx: &mut Context<Wire>) {
        for peer in peers(self.n_replicas, ctx.id()) {
            self.replicate_to(ctx, peer);
        }
    }

    fn replicate_to(&mut self, ctx: &mut Context<Wire>, peer: NodeId) {
        let next = self.next_index[peer.index()].max(1);
        let offset = self.core.floor;
        if next <= offset {
            // The entries the follower needs are compacted: ship the
            // machine instead, labelled with the index it reflects.
            let applied = self.core.log.applied_len();
            let term = self
                .term_at(applied)
                .expect("the applied index is retained or the snapshot's");
            ctx.send(
                peer,
                RaftMsg::InstallSnapshot {
                    term: self.current_term,
                    last_included_index: applied,
                    last_included_term: term,
                    machine: Box::new(self.core.log.machine().clone()),
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
        // Ship at most `MAX_ENTRIES` (an empty entries list is just a
        // heartbeat).
        let end = (rel_next + MAX_ENTRIES).min(self.log.len()).max(rel_next);
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
            self.core.disk.log(|| WalRecord::Commit { index });
        }
        self.apply_committed(Some(&mut *ctx));
        // A fresh applied frontier may unlock parked fast reads.
        self.core.reads.serve(ctx, &self.core.log);
        self.maybe_snapshot();
        // Commits drain the pipeline window: a held-back wave may now ship.
        self.maybe_flush(ctx);
    }

    /// Applies every committed entry the machine does not reflect yet.
    /// Live, each entry closes its span and goes through the step Multi-Paxos
    /// shares ([`Core::apply`]: sync a resolved decision, then reply to the
    /// command's sender); replaying a recovered log (`ctx` is `None`) only
    /// applies ([`consensus_core::ReplicatedLog::apply`]).
    fn apply_committed(&mut self, mut ctx: Option<&mut Context<Wire>>) {
        while self.core.log.applied_len() < self.commit_index {
            let i = self.core.log.applied_len() + 1;
            let op = &self.log[i - self.core.floor - 1].op;
            let Some(ctx) = ctx.as_deref_mut() else {
                self.core.log.apply(op, self.core.disk.index(), |_, _| {});
                continue;
            };
            ctx.phase(SPAN, i as u64, self.current_term, CncPhase::Decision);
            ctx.span_close(SPAN, i as u64, self.current_term);
            self.core.apply(ctx, op);
        }
    }

    /// Compact the applied prefix once it exceeds the threshold.
    fn maybe_snapshot(&mut self) {
        if !self.core.checkpoint_due() {
            return;
        }
        let applied = self.core.log.applied_len();
        let term = self.term_at(applied).expect("applied entries are retained");
        self.log.drain(..applied - self.core.floor);
        (self.core.floor, self.snapshot_term) = (applied, term);
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

    /// A command goes into the leader's log; a read is served through
    /// read-index confirmation.
    fn on_client(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: ClientMsg) {
        match msg {
            ClientMsg::Request(cmd) => self.on_request(ctx, from, cmd),
            ClientMsg::Read { client, seq, key } => {
                if self.can_confirm_reads(ctx) {
                    let at = Some(self.commit_index);
                    self.core.reads.park(from, (client, seq), key, at);
                    self.core.reads.serve(ctx, &self.core.log);
                } else if let Some(leader) = self.leader_hint.filter(|_| self.role != Role::Leader)
                {
                    // Park the read and ask the leader to confirm its
                    // commit index; we serve from local applied state once
                    // it both confirms and applies here.
                    self.core.reads.park(from, (client, seq), key, None);
                    ctx.send(leader, RaftMsg::ReadIndexQ { client, seq }.into());
                } else {
                    shell::nack(ctx, from, (client, seq));
                }
            }
            // Replicas never receive the other client messages.
            _ => {}
        }
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, from: NodeId, cmd: Command<KvCommand>) {
        let hint = (self.role != Role::Leader).then(|| self.leader_hint.unwrap_or(NodeId(0)));
        let Some(cmd) = shell::intake(ctx, from, cmd, self.core.log.machine(), hint) else {
            return;
        };
        // Unless queued or appended and uncommitted (a retry while we decide).
        let queued = self.core.wave.items().map(|(c, _)| c);
        let appended = self.uncommitted().iter().flat_map(|e| e.op.commands());
        if !shell::in_flight(&cmd, queued.chain(appended)) {
            self.core.wave.push(ctx, (cmd, from));
            self.maybe_flush(ctx);
        }
    }
}

impl std::ops::Deref for Replica {
    type Target = Core;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl std::ops::DerefMut for Replica {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.core
    }
}

impl Node for Replica {
    type Msg = Wire;

    fn on_start(&mut self, ctx: &mut Context<Wire>) {
        self.reset_election_timer(ctx);
        // Bias node 0 to win the first election fast: fire almost at once.
        if ctx.id() == NodeId(0) {
            self.core.election.restart(ctx, 1_000, ELECTION);
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
                self.core.disk.sync(ctx); // term/vote durable before the response
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
                    self.votes.vote(from, []);
                    if self.votes.reached() {
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

                if prev_log_index < self.core.floor {
                    // We have a snapshot past `prev`: ask the leader to
                    // resume from our offset.
                    self.core.disk.sync(ctx); // any term bump durable first
                    ctx.send(
                        from,
                        RaftMsg::AppendResponse {
                            term: self.current_term,
                            success: false,
                            match_index: self.core.floor,
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
                        .max(self.core.floor);
                    self.core.disk.sync(ctx); // any term bump durable first
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
                            self.log.truncate(index - self.core.floor - 1);
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
                self.core.disk.sync(ctx);
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
                let offset = self.core.floor;
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
                self.snapshot_term = last_included_term;
                // The applied frontier jumps: parked fast reads may serve.
                self.core.install(ctx, *machine, last_included_index);
                self.commit_index = self.commit_index.max(last_included_index);
                // Checkpoint the install, so it survives a crash that
                // follows the ack.
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
                    if self.next_index[peer] <= self.last_log_index() {
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

            RaftMsg::ReadIndexR { client, seq, index } => {
                self.core
                    .reads
                    .confirm(ctx, &self.core.log, (client, seq), index);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        match timer.kind {
            ELECTION if self.role != Role::Leader => self.start_election(ctx),
            HEARTBEAT if self.role == Role::Leader => {
                // The heartbeat fan-out ships everything anyway: fold any
                // queued commands into it.
                if self.core.wave.is_empty() {
                    self.replicate_all(ctx);
                } else {
                    self.flush(ctx);
                }
                ctx.set_timer(HB_PERIOD, HEARTBEAT);
            }
            FLUSH if self.core.wave.expire(self.role == Role::Leader) => self.maybe_flush(ctx),
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<Wire>) {
        // Leadership and volatile indices never survive a restart.
        self.role = Role::Follower;
        self.last_contact.clear();
        if let Some(restored) = self.core.restart() {
            // Durable mode: term, vote, log, and machine exist only as WAL
            // records and checkpoints. Rebuild them the honest way.
            self.recover_from(restored);
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

    /// A `Promise` whose pid is [`NO_VOTE`] replays as a term without a
    /// vote; any other pid as the vote. The latest term wins.
    #[test]
    fn replayed_promise_maps_to_term_and_vote() {
        let replay = |pids: &[(u64, u32)]| {
            let mut r = Replica::new(3);
            r.disk.attach(SNAPSHOT_THRESHOLD, storage::MemEngine::new());
            // Logged and synced with no checkpoint: restore's WAL-only case.
            for &(term, pid) in pids {
                r.disk.log(|| WalRecord::Promise {
                    ballot: Ballot::new(term, pid),
                });
            }
            r.disk.engine_mut().expect("attached").sync();
            let restored = r.core.restart().expect("attached");
            r.recover_from(restored);
            (r.current_term, r.voted_for)
        };
        assert_eq!(replay(&[(5, 1), (6, NO_VOTE)]), (6, None));
        assert_eq!(replay(&[(6, NO_VOTE), (6, 2)]), (6, Some(NodeId(2))));
        assert_eq!(replay(&[(7, 0), (6, 2)]), (7, Some(NodeId(0))));
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
        r.disk.set_snapshot_threshold(1);
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
