//! Multi-Paxos: a separate Basic-Paxos instance per log entry, with the
//! tutorial's optimization — *run phase 1 only when the leader changes*.
//!
//! Phase 1 is the "view change / recovery mode"; phase 2 is the "normal
//! mode". Every message carries the leader's ballot, and replicas respond
//! only to messages with the "right" (highest) ballot. The full client loop
//! of the Multi-Paxos slide is implemented:
//!
//! 1. the client sends a command to the server it believes is leader;
//! 2. the server uses Paxos to choose the command as the value of a log
//!    entry (`accept` / `accepted` with an **index** argument);
//! 3. the server waits for previous entries to apply, then applies the new
//!    command to the state machine (via [`consensus_core::ReplicatedLog`]);
//! 4. the server returns the state machine's result to the client.
//!
//! Quorums are pluggable via [`consensus_core::QuorumSpec`]: with
//! `Majority` this is classic Multi-Paxos; with `Flexible`/`Grid` it is
//! **Flexible Paxos** (see [`crate::flexible`]) — no algorithm changes, just
//! a different quorum test, exactly as Howard, Malkhi & Spiegelman observe.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::cluster::decided_slots;
use consensus_core::codec::{put_op, wire_size};
use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::durable::{Disk, Restored, WalRecord};
use consensus_core::quorum::Phase;
use consensus_core::shell::{self, peers, replica_ids, Core, ELECTION, FLUSH};
use consensus_core::smr::Slot;
use consensus_core::{
    Ballot, Client, ClientMsg, Cluster, DedupKvMachine, DurableProtocol, Envelope, Quorum,
    QuorumSpec, ReadMode, Register, Session, Silence, SmrOp, SmrProtocol, Tally, Target,
};
use simnet::{CncPhase, Context, Node, NodeId, Payload, Time, Timer};

/// Span protocol label; instances are log indices.
const SPAN: &str = "multi-paxos";

/// Multi-Paxos messages between replicas.
#[derive(Clone, Debug)]
pub enum MpMsg {
    /// Phase 1a (view change): taken only on leader change.
    Prepare {
        /// Candidate's ballot.
        ballot: Ballot,
        /// First log index the candidate needs state for.
        low: usize,
    },
    /// Phase 1b: accepted entries at or above `low`.
    PrepareAck {
        /// Echoed ballot.
        ballot: Ballot,
        /// The responder's snapshot floor: indices below it were compacted
        /// away and can no longer be reported as accepted entries. A
        /// candidate whose log ends below any responder's floor must catch
        /// up (state transfer) before leading. Always 0 until snapshots are
        /// enabled, so default runs are unchanged.
        floor: usize,
        /// `(index, accept ballot, value)` triples.
        entries: Vec<(usize, Ballot, SmrOp)>,
    },
    /// Phase 2a with the slide's extra **index** argument.
    Accept {
        /// Leader ballot.
        ballot: Ballot,
        /// Log index.
        index: usize,
        /// Proposed op.
        op: SmrOp,
        /// Leader-local send time; echoed back in [`MpMsg::Accepted`] so the
        /// leader can date lease grants from *before* the message left
        /// (send-time basis makes the one-way delay eat into the lease
        /// rather than extend it). Inert unless leases are enabled.
        sent: Time,
    },
    /// Phase 2b.
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Log index.
        index: usize,
        /// The `sent` stamp echoed from the [`MpMsg::Accept`] this answers.
        sent: Time,
    },
    /// Asynchronous decision dissemination.
    Decide {
        /// Log index.
        index: usize,
        /// Decided op.
        op: SmrOp,
    },
    /// Leader lease renewal.
    Heartbeat {
        /// Leader ballot.
        ballot: Ballot,
        /// Leader's applied frontier; a follower further behind than this
        /// asks to catch up (only when snapshots are enabled — the request
        /// path is gated so default runs stay byte-identical).
        decided: usize,
    },
    /// "Resend me decisions from `from_index`" — sent by a lagging follower
    /// (heartbeat shows the leader ahead) or an aborting candidate (a
    /// `PrepareAck` reported a floor above its log end).
    CatchUpRequest {
        /// First index the requester is missing.
        from_index: usize,
    },
    /// Multi-Paxos install-snapshot: full machine state through `floor`,
    /// sent when the requested index was compacted away on the responder.
    InstallState {
        /// Applied length the machine reflects.
        floor: usize,
        /// The checkpointed state machine.
        machine: Box<DedupKvMachine>,
    },
}

/// The Multi-Paxos wire: client messages beside [`MpMsg`].
type Wire = Envelope<MpMsg>;

impl Payload for MpMsg {
    fn kind(&self) -> &'static str {
        match self {
            MpMsg::Prepare { .. } => "prepare",
            MpMsg::PrepareAck { .. } => "prepare-ack",
            MpMsg::Accept { .. } => "accept",
            MpMsg::Accepted { .. } => "accepted",
            MpMsg::Decide { .. } => "decide",
            MpMsg::Heartbeat { .. } => "heartbeat",
            MpMsg::CatchUpRequest { .. } => "catch-up",
            MpMsg::InstallState { .. } => "install-state",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| match self {
            MpMsg::PrepareAck { entries, .. } => entries.iter().for_each(|(.., op)| put_op(w, op)),
            MpMsg::Accept { op, .. } | MpMsg::Decide { op, .. } => put_op(w, op),
            _ => {}
        })
    }
}

const HEARTBEAT: u64 = 2;

/// Heartbeat period (µs).
const HB_PERIOD: u64 = 10_000;
/// Leader-lease length (µs): an acceptor that echoed an `Accept` honors its
/// sender's leadership this long on its own clock.
const LEASE_US: u64 = 30_000;
/// Clock skew (µs) the lease math tolerates. Lease reads are refused
/// whenever the sim's skew oracle reports a larger bound.
const MAX_SKEW_US: u64 = 5_000;

#[derive(Debug)]
struct Proposal {
    op: SmrOp,
    acks: BTreeSet<NodeId>,
    decided: bool,
}

/// A Multi-Paxos replica (acceptor + potential leader). It derefs to its
/// [`Core`]: `r.log`, `r.disk` and `r.storage_stats()` are the core's.
pub struct Replica {
    /// Cluster quorum configuration.
    spec: QuorumSpec,
    /// The acceptor: one promise over the whole log and each index's
    /// accepted `(ballot, op)` (durable).
    acceptor: Register<SmrOp>,
    /// The applied log, disk, reads and wave (commands with their senders).
    /// Never checkpoints unless a threshold is set; `floor` is the first log
    /// index not absorbed by a checkpoint (slots below it are `Slot::Empty`
    /// and `accepted` is pruned below it).
    core: Core,
    /// Whether this replica currently leads.
    pub is_leader: bool,
    /// Candidate election state.
    electing: bool,
    election_ballot: Ballot,
    /// Phase-1b replies of the current election.
    prepare_tally: Tally<SmrOp>,
    /// Leader state.
    next_index: usize,
    /// The open window of this leadership's proposals: an entry goes once it
    /// is both decided and applied (see [`Replica::retire_proposal`]).
    proposals: BTreeMap<usize, Proposal>,
    /// Candidate-side: highest snapshot floor reported in `PrepareAck`s of
    /// the current election, and who reported it.
    prepare_max_floor: usize,
    prepare_floor_holder: NodeId,
    /// Clock-bound leader leases, the one switch geo shards set. On, the
    /// leader answers a [`ClientMsg::Read`] locally while an Agreement
    /// quorum of acceptors granted it a lease within the last `LEASE_US`
    /// (30 ms), acceptors refuse to elect anyone else while honoring an
    /// unexpired lease, and reads are NACKed whenever the skew oracle
    /// exceeds `MAX_SKEW_US` (5 ms). Off — the default — the lease fast
    /// path costs nothing: no extra messages, timers, or RNG draws, so
    /// lease-off runs stay bit-identical to the pre-lease protocol.
    pub leases: bool,
    /// Acceptor side: whose lease this node currently honors (volatile;
    /// `None` during the post-restart grace period, which gates promises
    /// for every candidate).
    lease_holder: Option<NodeId>,
    /// Acceptor side: local-clock expiry of the honored lease / grace
    /// period. While unexpired this node refuses `Prepare`s from anyone but
    /// the holder and will not start elections itself.
    lease_until: Time,
    /// Leader side: per-acceptor send-time of the newest `Accept` that
    /// acceptor echoed back. A lease read is legal only while an Agreement
    /// quorum of these stamps is fresher than [`LEASE_US`] (minus skew).
    lease_grants: BTreeMap<NodeId, Time>,
    /// Leader side: first log index proposed under this leadership. Lease
    /// reads wait until the re-proposed tail of the previous term has
    /// applied, so the local machine reflects every acknowledged write.
    lease_floor: usize,
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

impl Replica {
    /// Creates an unbatched replica; `spec` says how many replicas there
    /// are (nodes `0..n`; clients have higher ids).
    pub fn new(spec: QuorumSpec) -> Self {
        Self::new_with(spec, BatchConfig::unbatched())
    }

    /// Creates a replica with the given batching/pipelining config.
    pub fn new_with(spec: QuorumSpec, batch: BatchConfig) -> Self {
        Replica {
            spec,
            acceptor: Register::default(),
            // Lease reads: confirmed at the applied frontier, so answered
            // at once.
            core: Core::new(batch, usize::MAX, ReadMode::Lease),
            is_leader: false,
            electing: false,
            election_ballot: Ballot::ZERO,
            prepare_tally: Tally::new(spec, Phase::Election),
            next_index: 0,
            proposals: BTreeMap::new(),
            prepare_max_floor: 0,
            prepare_floor_holder: NodeId(0),
            leases: false,
            lease_holder: None,
            lease_until: Time(0),
            lease_grants: BTreeMap::new(),
            lease_floor: 0,
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut Context<Wire>) {
        use rand::Rng;
        // Randomized, id-staggered timeout: avoids duelling candidates.
        let base = 40_000 + 20_000 * u64::from(ctx.id().0);
        let jitter = ctx.rng().gen_range(0..10_000);
        self.core.election.restart(ctx, base + jitter, ELECTION);
    }

    fn start_election(&mut self, ctx: &mut Context<Wire>) {
        self.electing = true;
        self.is_leader = false;
        self.election_ballot = self.acceptor.promise().next_for(ctx.id());
        self.prepare_tally = Tally::new(self.spec, Phase::Election);
        self.prepare_max_floor = 0;
        self.prepare_floor_holder = NodeId(0);
        let low = self.core.log.applied_len();
        ctx.phase(
            SPAN,
            low as u64,
            self.election_ballot.num,
            CncPhase::LeaderElection,
        );
        ctx.send_many(
            replica_ids(self.spec.n()),
            MpMsg::Prepare {
                ballot: self.election_ballot,
                low,
            }
            .into(),
        );
    }

    fn become_leader(&mut self, ctx: &mut Context<Wire>) {
        self.electing = false;
        self.is_leader = true;
        self.proposals.clear();
        self.lease_grants.clear();
        // Adopt the highest-ballot value for every discovered index and
        // re-propose it under my ballot; fill gaps with no-ops.
        let fresh = Tally::new(self.spec, Phase::Election);
        let discovered = std::mem::replace(&mut self.prepare_tally, fresh).into_values();
        let max_idx = discovered.keys().max().copied();
        let low = self.core.log.applied_len();
        self.next_index = max_idx.map_or(low, |m| m + 1).max(low);
        for index in low..self.next_index {
            // Re-proposing a discovered value is the C&C value-discovery
            // phase made concrete: the new leader adopts what phase 1 found.
            // Every discovered in-flight slot is re-proposed here regardless
            // of the pipeline window — with batching the window gates only
            // *new* flushes, never view-change recovery, so holes in the old
            // leader's window are always filled (with no-ops if undiscovered).
            ctx.phase(
                SPAN,
                index as u64,
                self.acceptor.promise().num,
                CncPhase::ValueDiscovery,
            );
            let op = discovered
                .get(&index)
                .map(|(_, op)| op.clone())
                .unwrap_or(SmrOp::Noop);
            self.propose(ctx, index, op);
        }
        // Lease reads wait for the re-proposed tail to apply: below this
        // index the local machine may still miss writes the previous leader
        // acknowledged.
        self.lease_floor = self.next_index;
        ctx.set_timer(HB_PERIOD, HEARTBEAT);
        let hb = MpMsg::Heartbeat {
            ballot: self.acceptor.promise(),
            decided: self.core.log.applied_len(),
        };
        ctx.send_many(peers(self.spec.n(), ctx.id()), hb.into());
        self.try_flush(ctx);
    }

    /// Drops leadership and any leader-only batching state. Queued commands
    /// are abandoned; clients retransmit to the new leader.
    fn step_down(&mut self) {
        self.is_leader = false;
        self.core.wave.reset();
        self.lease_grants.clear();
    }

    /// Undecided proposals currently in flight.
    fn in_flight(&self) -> usize {
        self.proposals.values().filter(|p| !p.decided).count()
    }

    /// Proposes queued commands as the batch policy releases them. With the
    /// unbatched default (no delay, window = ∞) that is immediately, one
    /// command per slot, reproducing the pre-batching behaviour
    /// message-for-message.
    fn try_flush(&mut self, ctx: &mut Context<Wire>) {
        if !self.is_leader {
            return;
        }
        // `in_flight` scans the proposal table: ask only with work queued.
        while !self.core.wave.is_empty() {
            let Some(k) = self.core.wave.ripe(ctx, self.in_flight()) else {
                return;
            };
            let index = self.next_index;
            self.next_index += 1;
            let op = self.core.batch(ctx, k);
            self.propose(ctx, index, op);
        }
    }

    /// Forgets the proposal at `index` if it is both decided and applied.
    /// Nothing can ask for it again: `in_flight` counts undecided proposals
    /// only, a late `Accepted` for a missing entry is ignored exactly like
    /// one for a decided entry, and the dedup table answers a retried
    /// `Request` for any applied command before the in-flight test is
    /// consulted. A proposal that is decided but held behind a gap stays (a
    /// retry must still be swallowed, not re-proposed at a new slot), and so
    /// does one whose slot a stale `Decide` applied before its own quorum
    /// arrived (`in_flight` counts it until then).
    fn retire_proposal(&mut self, index: usize) {
        if index < self.core.log.applied_len()
            && self.proposals.get(&index).is_some_and(|p| p.decided)
        {
            self.proposals.remove(&index);
        }
    }

    fn propose(&mut self, ctx: &mut Context<Wire>, index: usize, op: SmrOp) {
        self.proposals.insert(
            index,
            Proposal {
                op: op.clone(),
                acks: BTreeSet::new(),
                decided: false,
            },
        );
        let ballot = self.acceptor.promise();
        ctx.span_open(SPAN, index as u64, ballot.num);
        ctx.phase(SPAN, index as u64, ballot.num, CncPhase::Agreement);
        ctx.send_many(
            replica_ids(self.spec.n()),
            MpMsg::Accept {
                ballot,
                index,
                op,
                sent: ctx.local_now(),
            }
            .into(),
        );
    }

    fn on_decided(&mut self, ctx: &mut Context<Wire>, index: usize, op: SmrOp) {
        // Slots below the snapshot floor were compacted away; a stale
        // Decide for one must not resurrect the slot.
        if index < self.core.floor {
            return;
        }
        self.core.log.record(index, op);
        while let Some(i) = self.core.apply_decided(ctx) {
            self.retire_proposal(i);
        }
        self.maybe_snapshot();
        // A decided slot may free pipeline-window room for queued commands.
        self.try_flush(ctx);
        debug_assert!(
            self.proposals
                .range(..self.core.log.applied_len())
                .all(|(_, p)| !p.decided),
            "a proposal that is decided and applied must have been retired"
        );
    }

    /// Takes a checkpoint once enough new entries applied since the last
    /// floor: prune accepted entries and the log below the applied
    /// frontier, then persist (when durable) so the WAL restarts empty.
    fn maybe_snapshot(&mut self) {
        if self.core.checkpoint_due() {
            let applied = self.core.log.applied_len();
            self.acceptor.prune_below(applied);
            self.core.log.truncate_prefix(applied);
            self.core.floor = applied;
            self.persist_checkpoint();
        }
    }

    /// Writes the machine state through the engine as a snapshot (which
    /// truncates the WAL) and re-logs every record still live: the promise,
    /// accepted entries at or above the applied frontier, and decided-but-
    /// unapplied slots. After this, recovery = snapshot load + WAL replay.
    fn persist_checkpoint(&mut self) {
        let (log, applied) = (&self.core.log, self.core.log.applied_len());
        let ballot = self.acceptor.promise();
        let promise = (ballot != Ballot::ZERO).then_some(WalRecord::Promise { ballot });
        let accepts = (self.acceptor.accepted_since(applied)).map(|(index, (ballot, op))| {
            WalRecord::Accept {
                index,
                ballot: *ballot,
                op: op.clone(),
            }
        });
        let decides = (applied..log.len()).filter_map(|index| match log.slot(index) {
            Slot::Decided(op) => Some(WalRecord::Decide {
                index,
                op: op.clone(),
            }),
            _ => None,
        });
        let live = promise.into_iter().chain(accepts).chain(decides);
        self.core.disk.checkpoint(log.machine(), applied, 0, live);
    }

    /// Crash recovery: replay, in order, the WAL records [`Core::restart`]
    /// handed back over the checkpoint it installed. Everything the
    /// pre-durability model declared axiomatically durable (promised,
    /// accepted, the log) is rebuilt here from actual on-disk bytes — and
    /// the disk charges for every read, which is what recovery-time
    /// experiments measure.
    fn recover_from(&mut self, ctx: &mut Context<Wire>, restored: Restored) {
        self.acceptor = Register::default();
        for rec in restored.records {
            match rec {
                WalRecord::Promise { ballot } => {
                    let _ = self.acceptor.prepare(ballot);
                }
                WalRecord::Accept { index, ballot, op } => {
                    if index >= self.core.floor {
                        self.acceptor.restore(ballot, index, op);
                    }
                }
                WalRecord::Decide { index, op } => {
                    self.on_decided(ctx, index, op);
                }
                rec => panic!("Multi-Paxos never logs {rec:?}"),
            }
        }
        self.core.disk.recovered(self.core.floor);
    }

    /// Whether an unexpired lease (or post-restart grace period, when
    /// `lease_holder` is `None`) forbids this acceptor from promising to —
    /// or electing — `candidate`. Without this gate a new leader could
    /// commit writes concurrent with the old leader's local lease reads.
    fn lease_gates(&self, ctx: &Context<Wire>, candidate: NodeId) -> bool {
        self.leases && ctx.local_now() < self.lease_until && self.lease_holder != Some(candidate)
    }

    /// Whether this leader's lease authorizes a local read at local time
    /// `at`: the skew oracle is within tolerance, the previous term's
    /// re-proposed tail has fully applied (so the local machine reflects
    /// every acknowledged write), and an Agreement quorum of acceptors
    /// echoed an `Accept` sent within the last [`LEASE_US`]. The
    /// [`MAX_SKEW_US`] margin is subtracted so a grantor whose clock jumps
    /// forward (expiring its grant early in real time) cannot be counted.
    fn lease_valid_at(&self, ctx: &Context<Wire>, at: Time) -> bool {
        if !self.leases || !self.is_leader || ctx.clock_skew_bound() > MAX_SKEW_US {
            return false;
        }
        if self.core.log.applied_len() < self.lease_floor {
            return false;
        }
        let fresh: BTreeSet<NodeId> = self
            .lease_grants
            .iter()
            .filter(|(_, sent)| at.0 + MAX_SKEW_US < sent.0 + LEASE_US)
            .map(|(&id, _)| id)
            .collect();
        self.spec.is_quorum(&fresh, Phase::Agreement)
    }
}

impl Replica {
    /// A command goes to the leader's queue, a read to the lease fast path.
    fn on_client(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: ClientMsg) {
        match msg {
            ClientMsg::Request(cmd) => {
                // The leader hint is the proposer of the highest promise.
                let hint = (!self.is_leader).then(|| self.acceptor.promise().proposer());
                let Some(cmd) = shell::intake(ctx, from, cmd, self.core.log.machine(), hint) else {
                    return;
                };
                // Unless queued or proposed (a retry while we decide).
                let queued = self.core.wave.items().map(|(c, _)| c);
                let proposed = self.proposals.values().flat_map(|p| p.op.commands());
                if !shell::in_flight(&cmd, queued.chain(proposed)) {
                    self.core.wave.push(ctx, (cmd, from));
                    self.try_flush(ctx);
                }
            }
            ClientMsg::Read { client, seq, key } => {
                if self.lease_valid_at(ctx, ctx.local_now()) {
                    let at = Some(self.core.log.applied_len());
                    self.core.reads.park(from, (client, seq), key, at);
                    self.core.reads.serve(ctx, &self.core.log);
                } else {
                    shell::nack(ctx, from, (client, seq));
                }
            }
            // Replicas never receive the other client messages.
            _ => {}
        }
    }
}

impl Node for Replica {
    type Msg = Wire;

    fn on_start(&mut self, ctx: &mut Context<Wire>) {
        // Node 0 bootstraps leadership immediately; others wait.
        if ctx.id() == NodeId(0) {
            self.start_election(ctx);
        }
        self.arm_election_timer(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(msg) => return self.on_client(ctx, from, msg),
        };
        match msg {
            MpMsg::Prepare { ballot, low } => {
                if self.lease_gates(ctx, ballot.proposer()) {
                    // Honoring another node's unexpired lease (or in the
                    // post-restart grace period): promising now would let a
                    // new leader commit writes the lease holder can't see.
                    return;
                }
                if let Ok(rose) = self.acceptor.prepare(ballot) {
                    if self.is_leader && ballot.proposer() != ctx.id() {
                        self.step_down();
                    }
                    if rose {
                        self.core.disk.log(|| WalRecord::Promise { ballot });
                    }
                    self.core.disk.sync(ctx); // promise durable before the ack leaves
                    self.arm_election_timer(ctx);
                    let entries: Vec<(usize, Ballot, SmrOp)> = (self.acceptor.accepted_since(low))
                        .map(|(i, (b, op))| (i, *b, op.clone()))
                        .collect();
                    ctx.send(
                        from,
                        MpMsg::PrepareAck {
                            ballot,
                            floor: self.core.floor,
                            entries,
                        }
                        .into(),
                    );
                }
            }

            MpMsg::PrepareAck {
                ballot,
                floor,
                entries,
            } => {
                if self.electing && ballot == self.election_ballot {
                    if floor > self.prepare_max_floor {
                        self.prepare_max_floor = floor;
                        self.prepare_floor_holder = from;
                    }
                    self.prepare_tally.vote(from, entries);
                    if self.prepare_tally.reached() && self.acceptor.promise() == ballot {
                        if self.prepare_max_floor > self.core.log.applied_len() {
                            // A responder compacted entries this candidate
                            // has never applied: phase 1 can no longer
                            // discover them. Abort, fetch the checkpoint,
                            // and let the election timer retry once caught
                            // up — the quorum-intersection argument then
                            // holds again above the floor.
                            self.electing = false;
                            ctx.send(
                                self.prepare_floor_holder,
                                MpMsg::CatchUpRequest {
                                    from_index: self.core.log.applied_len(),
                                }
                                .into(),
                            );
                            return;
                        }
                        self.become_leader(ctx);
                    }
                }
            }

            MpMsg::Accept {
                ballot,
                index,
                op,
                sent,
            } => {
                if index < self.core.floor {
                    return; // compacted away; checked before the promise moves
                }
                if let Ok(rose) = self.acceptor.prepare(ballot) {
                    if self.is_leader && ballot.proposer() != ctx.id() {
                        self.step_down();
                    }
                    if rose {
                        self.core.disk.log(|| WalRecord::Promise { ballot });
                    }
                    self.core.disk.log(|| WalRecord::Accept {
                        index,
                        ballot,
                        op: op.clone(),
                    });
                    self.core.disk.sync(ctx); // accept durable before the ack leaves
                    let stored = self.acceptor.accept(ballot, index, op);
                    debug_assert_eq!(stored, Ok(false), "the promise was taken above");
                    self.arm_election_timer(ctx);
                    if self.leases {
                        // Accepting doubles as a lease grant: honor the
                        // sender's leadership for `LEASE_US` of local clock.
                        self.lease_holder = Some(ballot.proposer());
                        let until = Time(ctx.local_now().0 + LEASE_US);
                        self.lease_until = self.lease_until.max(until);
                    }
                    ctx.send(
                        from,
                        MpMsg::Accepted {
                            ballot,
                            index,
                            sent,
                        }
                        .into(),
                    );
                }
            }

            MpMsg::Accepted {
                ballot,
                index,
                sent,
            } => {
                if self.is_leader && ballot == self.acceptor.promise() {
                    if self.leases {
                        // Renewal rides on normal phase-2 traffic: date the
                        // grant from when the Accept left, not when the echo
                        // returned, so delays shorten the usable lease.
                        let g = self.lease_grants.entry(from).or_insert(sent);
                        *g = (*g).max(sent);
                    }
                    let spec = self.spec;
                    if let Some(p) = self.proposals.get_mut(&index) {
                        if p.decided {
                            return;
                        }
                        p.acks.insert(from);
                        if spec.is_quorum(&p.acks, Phase::Agreement) {
                            p.decided = true;
                            let op = p.op.clone();
                            ctx.phase(SPAN, index as u64, ballot.num, CncPhase::Decision);
                            ctx.span_close(SPAN, index as u64, ballot.num);
                            if matches!(self.core.log.slot(index), Slot::Empty) {
                                self.core.disk.log(|| WalRecord::Decide {
                                    index,
                                    op: op.clone(),
                                });
                                self.core.disk.sync(ctx);
                            }
                            ctx.send_many(
                                peers(self.spec.n(), ctx.id()),
                                MpMsg::Decide {
                                    index,
                                    op: op.clone(),
                                }
                                .into(),
                            );
                            // A stale `Decide` may have applied the slot
                            // before this quorum arrived.
                            self.retire_proposal(index);
                            self.on_decided(ctx, index, op);
                        }
                    }
                }
            }

            MpMsg::Decide { index, op } => {
                if index < self.core.floor {
                    return; // compacted away; the effect is in the snapshot
                }
                let promised = self.acceptor.promise().num;
                ctx.phase(SPAN, index as u64, promised, CncPhase::Decision);
                ctx.span_close(SPAN, index as u64, promised);
                if matches!(self.core.log.slot(index), Slot::Empty) {
                    self.core.disk.log(|| WalRecord::Decide {
                        index,
                        op: op.clone(),
                    });
                    self.core.disk.sync(ctx); // decision durable before it applies
                }
                self.on_decided(ctx, index, op.clone());
                // Decisions are also (implicitly) accepted state.
                self.acceptor.note_decided(index, op);
            }

            MpMsg::Heartbeat { ballot, decided } => {
                if self.acceptor.prepare(ballot).is_ok() {
                    if self.is_leader && ballot.proposer() != ctx.id() {
                        self.step_down();
                    }
                    self.arm_election_timer(ctx);
                    // Catch-up probe: only with compaction enabled, so the
                    // default protocol's message trace is untouched. The
                    // heartbeat period naturally rate-limits requests.
                    if self.core.disk.compacts() && decided > self.core.log.applied_len() {
                        ctx.send(
                            from,
                            MpMsg::CatchUpRequest {
                                from_index: self.core.log.applied_len(),
                            }
                            .into(),
                        );
                    }
                }
            }

            MpMsg::CatchUpRequest { from_index } => {
                // Serve from local state: ship the checkpoint if the caller
                // is below our floor, then re-send decisions we still hold.
                let mut start = from_index;
                if from_index < self.core.floor {
                    let applied = self.core.log.applied_len();
                    ctx.send(
                        from,
                        MpMsg::InstallState {
                            floor: applied,
                            machine: Box::new(self.core.log.machine().clone()),
                        }
                        .into(),
                    );
                    start = applied;
                }
                let mut sent = 0;
                for index in start..self.core.log.len() {
                    if sent >= 64 {
                        break; // bounded burst; the next heartbeat re-probes
                    }
                    if let Slot::Decided(op) | Slot::Applied(op) = self.core.log.slot(index) {
                        ctx.send(
                            from,
                            MpMsg::Decide {
                                index,
                                op: op.clone(),
                            }
                            .into(),
                        );
                        sent += 1;
                    }
                }
            }

            MpMsg::InstallState { floor, machine } => {
                if floor <= self.core.log.applied_len() {
                    return; // stale: we already applied past it
                }
                // Preserve any decided-but-unapplied tail above the incoming
                // floor; `install` drops it, so re-decide afterwards.
                let tail: Vec<(usize, SmrOp)> = (floor..self.core.log.len())
                    .filter_map(|i| match self.core.log.slot(i) {
                        Slot::Decided(op) => Some((i, op.clone())),
                        _ => None,
                    })
                    .collect();
                self.core.install(ctx, *machine, floor);
                // The install applied every slot below `floor` at once.
                self.proposals.retain(|&i, p| !(p.decided && i < floor));
                self.acceptor.prune_below(floor);
                self.persist_checkpoint();
                for (index, op) in tail {
                    self.on_decided(ctx, index, op);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        match timer.kind {
            ELECTION => {
                // An unexpired lease held by someone else gates elections:
                // re-arm and try again once it lapses.
                if !self.is_leader && !self.lease_gates(ctx, ctx.id()) {
                    self.start_election(ctx);
                }
                self.arm_election_timer(ctx);
            }
            HEARTBEAT if self.is_leader => {
                let hb = MpMsg::Heartbeat {
                    ballot: self.acceptor.promise(),
                    decided: self.core.log.applied_len(),
                };
                ctx.send_many(peers(self.spec.n(), ctx.id()), hb.into());
                ctx.set_timer(HB_PERIOD, HEARTBEAT);
                // Lease renewal rides the log: when idle and the lease
                // would lapse within its half-life, propose a no-op so
                // fresh Accepts (and their echoed grants) circulate.
                if self.leases
                    && self.in_flight() == 0
                    && !self.lease_valid_at(ctx, Time(ctx.local_now().0 + LEASE_US / 2))
                {
                    let index = self.next_index;
                    self.next_index += 1;
                    self.propose(ctx, index, SmrOp::Noop);
                }
            }
            // The open batch's grace period is over: flush underfull as
            // soon as the pipeline window allows.
            FLUSH if self.core.wave.expire(self.is_leader) => self.try_flush(ctx),
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<Wire>) {
        // Leadership and in-flight bookkeeping never survive a restart.
        self.step_down();
        self.electing = false;
        self.proposals.clear();
        if self.leases {
            // Lease grants are volatile, so a restarted acceptor no longer
            // remembers whom it promised quiescence to. Observe a grace
            // period of one full lease before promising to *anyone* —
            // otherwise the quorum-intersection argument behind lease reads
            // breaks (the restarted node could elect a new leader while the
            // old one still serves local reads).
            self.lease_holder = None;
            self.lease_until = Time(ctx.local_now().0 + LEASE_US);
        }
        if let Some(restored) = self.core.restart() {
            // Durable mode: promised/accepted/log exist only as WAL records
            // and checkpoints. Rebuild them the honest way.
            self.recover_from(ctx, restored);
        }
        // else: the historical RAM model — promised/accepted/log are
        // axiomatically durable and still in place.
        self.arm_election_timer(ctx);
    }
}

/// Multi-Paxos as a log protocol of the SMR shell.
pub struct MultiPaxos;

impl SmrProtocol for MultiPaxos {
    const NAME: &'static str = "multi-paxos";
    type Shape = QuorumSpec;
    type Peer = MpMsg;
    type Replica = Replica;
    type Accept = Quorum;

    fn replica(spec: QuorumSpec, batch: BatchConfig) -> Replica {
        Replica::new_with(spec, batch)
    }

    fn client(spec: QuorumSpec, session: Session) -> Client<MpMsg> {
        let target = Target::Leader(NodeId(0));
        let silence = Silence::Resend(100_000);
        Client::new(session, spec.n(), target, silence, Quorum::of(1))
    }

    fn is_leader(replica: &Replica, _id: NodeId) -> bool {
        replica.is_leader
    }

    fn applied_len(replica: &Replica) -> u64 {
        replica.log.applied_len() as u64
    }

    fn machine(replica: &Replica) -> &DedupKvMachine {
        replica.log.machine()
    }

    fn decided(replica: &Replica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_slots(&replica.log, node, out);
    }
}

impl DurableProtocol for MultiPaxos {
    fn disk(replica: &mut Replica) -> &mut Disk {
        &mut replica.disk
    }
}

/// A Multi-Paxos process: replica or client.
pub type Proc = consensus_core::Proc<MultiPaxos>;

/// A ready-to-run Multi-Paxos cluster with clients. Leases and RAM-only
/// snapshots are per-replica knobs: `cluster.map_replicas(|r|
/// r.leases = true)`.
pub type MultiPaxosCluster = Cluster<MultiPaxos>;

/// Asserts that all replica logs agree on their common applied prefix and
/// returns the shortest applied length.
pub trait LogConsistency {
    /// Panics on the first index where two applied logs differ.
    fn check_log_consistency(&self) -> usize;
}

impl LogConsistency for MultiPaxosCluster {
    fn check_log_consistency(&self) -> usize {
        let replicas: Vec<&Replica> = self.replicas().collect();
        let min_applied = replicas
            .iter()
            .map(|r| r.log.applied_len())
            .min()
            .unwrap_or(0);
        for i in 0..min_applied {
            let mut ops: Vec<&SmrOp> = Vec::new();
            for r in &replicas {
                if let Slot::Applied(op) = r.log.slot(i) {
                    ops.push(op);
                }
            }
            for pair in ops.windows(2) {
                assert_eq!(pair[0], pair[1], "divergent logs at index {i}");
            }
        }
        min_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::driver::{ClusterDriver, DriverConfig};
    use consensus_core::{Command, KvCommand, StateMachine as _, Str, WorkloadMode};
    use simnet::{DiskModel, NetConfig};
    use storage::DurableEngine;

    fn majority_cluster(n: usize, clients: usize, cmds: usize, seed: u64) -> MultiPaxosCluster {
        MultiPaxosCluster::new(
            QuorumSpec::Majority { n },
            clients,
            cmds,
            NetConfig::lan(),
            seed,
        )
    }

    #[test]
    fn commits_client_commands() {
        let mut cluster = majority_cluster(3, 1, 10, 1);
        assert!(cluster.run(Time::from_secs(10)), "workload must finish");
        assert_eq!(cluster.total_completed(), 10);
        assert!(cluster.check_log_consistency() >= 10);
    }

    #[test]
    fn multiple_clients_interleave_safely() {
        let mut cluster = majority_cluster(5, 3, 20, 2);
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 60);
        cluster.check_log_consistency();
        // Every applied command index appears exactly once per log.
        let lead = cluster.leader().expect("stable leader");
        let _ = lead;
    }

    #[test]
    fn phase1_runs_only_on_leader_change() {
        let mut cluster = majority_cluster(3, 1, 30, 3);
        assert!(cluster.run(Time::from_secs(10)));
        let prepares = cluster.sim.metrics().kind("prepare");
        let accepts = cluster.sim.metrics().kind("accept");
        // One election: 2 prepare messages (n-1=2). Accepts: ≥ 30 indices × 2.
        assert!(
            prepares <= 4,
            "phase 1 should run once, saw {prepares} prepares"
        );
        assert!(accepts >= 60, "normal mode is all phase 2: {accepts}");
    }

    #[test]
    fn leader_crash_triggers_view_change_and_recovery() {
        let mut cluster = majority_cluster(5, 2, 25, 4);
        // Let some commands commit, then kill the leader.
        cluster.sim.run_until(Time::from_millis(80));
        let leader = cluster.leader().expect("leader by 80ms");
        cluster.sim.crash_at(leader, Time::from_millis(81));
        assert!(
            cluster.run(Time::from_secs(30)),
            "clients must finish after failover: {} done",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 50);
        cluster.check_log_consistency();
        // A new leader emerged, different from the crashed one (allow the
        // cluster to settle out of any in-flight election first).
        let mut new_leader = cluster.leader();
        for _ in 0..20 {
            if new_leader.is_some() {
                break;
            }
            cluster.sim.run_for(100_000);
            new_leader = cluster.leader();
        }
        let new_leader = new_leader.expect("new leader");
        assert_ne!(new_leader, leader);
    }

    #[test]
    fn replica_crash_restart_preserves_state() {
        let mut cluster = majority_cluster(3, 1, 20, 5);
        cluster.sim.run_until(Time::from_millis(50));
        // Crash a follower mid-run and bring it back.
        cluster.sim.crash_at(NodeId(2), Time::from_millis(51));
        cluster.sim.restart_at(NodeId(2), Time::from_millis(200));
        assert!(cluster.run(Time::from_secs(20)));
        assert_eq!(cluster.total_completed(), 20);
        cluster.check_log_consistency();
    }

    #[test]
    fn duplicate_requests_apply_once() {
        // Lossy network forces client retries; the client table must dedup.
        let mut cluster = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 3 },
            1,
            15,
            NetConfig::lan().with_drop_prob(0.05),
            6,
        );
        assert!(cluster.run(Time::from_secs(60)));
        cluster.check_log_consistency();
        // Count applied (non-noop) commands per (client, seq): must be ≤ 1
        // effective application — verify via machine digests matching across
        // replicas (dedup is deterministic state).
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.log.applied_len() >= 15)
            .map(|r| {
                // Only compare replicas that applied the full prefix.
                r.log.machine().digest()
            })
            .collect();
        assert!(digests.len() <= 1, "replica state diverged: {digests:?}");
    }

    fn durable_replica() -> Replica {
        let mut r = Replica::new(QuorumSpec::Majority { n: 3 });
        r.disk
            .attach(usize::MAX, DurableEngine::new(DiskModel::ssd()));
        r
    }

    #[test]
    fn range_cross_check_uses_the_reply_of_its_own_log_position() {
        let mut r = durable_replica();
        let cmd = |client, op| SmrOp::Cmd(Command { client, seq: 1, op });
        let range = || KvCommand::Range {
            start: "a".into(),
            end: "z".into(),
            limit: 10,
        };
        let put = |key: &str| KvCommand::Put {
            key: key.into(),
            value: "v".into(),
        };
        // Slots decided out of order apply in one pass: slot 1's range is
        // mirrored — checked against the index — before slot 2's key lands.
        r.log.record(2, cmd(3, put("k2")));
        r.log.record(1, cmd(2, range()));
        r.log.record(0, cmd(1, put("k0")));
        // A retransmission of the same range that a later leader proposed
        // afresh: the machine answers it from its client table, with rows
        // that no longer describe the index.
        r.log.record(3, cmd(2, range()));
        let mut applied = 0;
        while r
            .core
            .log
            .apply_decided(r.core.disk.index(), |_, _| {})
            .is_some()
        {
            applied += 1;
        }
        assert_eq!(applied, 4);
        let index = r.disk.engine_mut().expect("attached above").scan("a", "z");
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut cluster = majority_cluster(3, 2, 10, seed);
            cluster.run(Time::from_secs(10));
            (
                cluster.total_completed(),
                cluster.sim.metrics().sent,
                cluster.latencies().mean() as u64,
            )
        };
        assert_eq!(run(7), run(7));
    }

    /// Flattened decided `(client, seq)` sequence from the replica with the
    /// longest applied prefix.
    fn flattened_decisions(cluster: &MultiPaxosCluster) -> Vec<(u32, u64)> {
        let r = cluster
            .replicas()
            .max_by_key(|r| r.log.applied_len())
            .expect("replicas");
        let mut seq = Vec::new();
        for i in 0..r.log.applied_len() {
            if let Slot::Applied(op) = r.log.slot(i) {
                seq.extend(op.commands().iter().map(|c| (c.client, c.seq)));
            }
        }
        seq
    }

    #[test]
    fn batched_runs_decide_the_same_command_sequence() {
        // Same seed + workload under a synchronous (draw-free) network:
        // every batched/pipelined config must decide exactly the sequence
        // the unbatched default decides, merely grouped into fewer slots.
        let decided = |batch: BatchConfig| {
            let mut cluster = MultiPaxosCluster::new_with(
                QuorumSpec::Majority { n: 3 },
                2,
                20,
                NetConfig::synchronous(),
                42,
                batch,
                WorkloadMode::Closed,
            );
            assert!(
                cluster.run(Time::from_secs(30)),
                "{} stalled",
                batch.label()
            );
            cluster.check_log_consistency();
            flattened_decisions(&cluster)
        };
        let unbatched = decided(BatchConfig::unbatched());
        assert_eq!(unbatched.len(), 40);
        for b in [
            BatchConfig::new(4, 200, 2),
            BatchConfig::new(8, 500, 4),
            BatchConfig::new(2, 0, 1),
        ] {
            assert_eq!(decided(b), unbatched, "config {} diverged", b.label());
        }
    }

    fn replica(cluster: &MultiPaxosCluster, id: NodeId) -> &Replica {
        let Proc::Replica(r) = cluster.sim.node(id) else {
            panic!("{id:?} is a replica")
        };
        r
    }

    #[test]
    fn proposal_table_holds_only_the_open_window() {
        // `smr-small`'s Multi-Paxos cell: 48 closed-loop clients × 50
        // commands over a transmit-limited NIC.
        let mut cluster = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 5 },
            48,
            50,
            NetConfig::lan().with_nic(30, 50),
            7,
        );
        let mut peak = 0;
        while !cluster.all_done() {
            cluster.sim.run_for(500);
            assert!(cluster.sim.now() < Time::from_secs(60), "stalled");
            let outstanding: usize = (cluster.clients())
                .map(|c| c.session.outstanding().count())
                .sum();
            if let Some(leader) = cluster.leader() {
                let open = replica(&cluster, leader).proposals.len();
                assert!(
                    open <= outstanding,
                    "{open} proposals, {outstanding} commands open"
                );
                peak = peak.max(open);
            }
        }
        assert!(peak > 8, "the window never opened (peak {peak})");
        cluster.sim.run_for(200_000); // the last slots' remaining echoes
        let leader = cluster.leader().expect("stable leader");
        assert!(replica(&cluster, leader).proposals.is_empty());
        cluster.check_log_consistency();

        // FNV-1a of the decided `(client, seq)` sequence; the wire-size epoch.
        let decided = flattened_decisions(&cluster);
        assert_eq!(decided.len(), 2_400);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (client, seq) in decided {
            for b in u64::from(client)
                .to_le_bytes()
                .into_iter()
                .chain(seq.to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, DECIDED_48X50);
    }
    const DECIDED_48X50: u64 = 16571317263816423973;

    #[test]
    fn duplicate_request_for_a_decided_slot_behind_a_gap_is_swallowed() {
        let mut cluster = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 3 },
            1,
            0,
            NetConfig::synchronous(),
            1,
        );
        cluster.sim.run_for(5_000);
        let leader = cluster.leader().expect("node 0 bootstraps leadership");
        let request = |seq| {
            let key = format!("k{seq}").into();
            let op = KvCommand::Put {
                key,
                value: "v".into(),
            };
            Envelope::request(Command { client: 3, seq, op })
        };
        // Slot 0's Accepts reach nobody but the leader itself; slot 1's reach
        // everyone, so slot 1 is decided and waits behind the gap.
        cluster.sim.set_filter(leader, Box::new(simnet::DropAll));
        let now = cluster.sim.now();
        cluster.sim.inject(NodeId(3), leader, request(1), now);
        cluster.sim.run_for(100);
        cluster.sim.clear_filter(leader);
        let now = cluster.sim.now();
        cluster.sim.inject(NodeId(3), leader, request(2), now);
        cluster.sim.run_for(5_000);
        let state = |cluster: &MultiPaxosCluster| {
            let r = replica(cluster, leader);
            let table: Vec<(usize, bool)> =
                r.proposals.iter().map(|(&i, p)| (i, p.decided)).collect();
            (
                table,
                r.next_index,
                r.log.applied_len(),
                cluster.sim.metrics().kind("accept"),
            )
        };
        let held = state(&cluster);
        assert_eq!(held.0, vec![(0, false), (1, true)]);
        assert_eq!((held.1, held.2), (2, 0));

        // The client retries the command of the decided slot: it is neither
        // applied (so the dedup table cannot answer) nor to be proposed again.
        let now = cluster.sim.now();
        cluster.sim.inject(NodeId(3), leader, request(2), now);
        cluster.sim.run_for(5_000);
        assert_eq!(state(&cluster), held, "the retry was re-proposed");

        // One acceptor's echo for slot 0 closes the gap: both slots apply and
        // both proposals go.
        let r = replica(&cluster, leader);
        let echo = MpMsg::Accepted {
            ballot: r.acceptor.promise(),
            index: 0,
            sent: Time(0),
        };
        let now = cluster.sim.now();
        cluster.sim.inject(NodeId(1), leader, echo.into(), now);
        cluster.sim.run_for(5_000);
        let (table, next_index, applied, _) = state(&cluster);
        assert_eq!((table, next_index, applied), (vec![], 2, 2));
    }

    #[test]
    fn leader_crash_with_pipeline_window_refills_in_flight_slots() {
        // Regression: with a pipeline window > 1 a leader crash leaves
        // several undecided slots (possibly with holes). The new leader's
        // phase 1 must re-propose every discovered slot and no-op-fill the
        // holes, regardless of the window.
        let mut cluster = MultiPaxosCluster::new_with(
            QuorumSpec::Majority { n: 5 },
            4,
            10,
            NetConfig::lan(),
            11,
            BatchConfig::new(2, 300, 4),
            WorkloadMode::Closed,
        );
        cluster.sim.run_until(Time::from_millis(80));
        let leader = cluster.leader().expect("leader by 80ms");
        cluster.sim.crash_at(leader, Time::from_millis(81));
        assert!(
            cluster.run(Time::from_secs(30)),
            "clients stalled after failover: {} done",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 40);
        cluster.check_log_consistency();
    }

    #[test]
    fn open_loop_clients_build_real_batches() {
        // Open-loop arrivals outpace the pipeline window, so the leader's
        // queue fills and multi-command batches actually form.
        let mut cluster = MultiPaxosCluster::new_with(
            QuorumSpec::Majority { n: 3 },
            2,
            30,
            NetConfig::lan(),
            9,
            BatchConfig::new(8, 400, 2),
            WorkloadMode::Open { interval_us: 200 },
        );
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 60);
        cluster.check_log_consistency();
        let h = &cluster.sim.metrics().batch_size;
        assert!(
            h.max().unwrap_or(0) > 1,
            "batches never formed: max {:?}",
            h.max()
        );
    }

    #[test]
    fn cluster_driver_trait_drives_and_harvests() {
        let mut cluster = MultiPaxosCluster::from_config(&DriverConfig::new(3, 2, 5, 7));
        let drv: &mut dyn ClusterDriver = &mut cluster;
        assert_eq!(drv.protocol(), "multi-paxos");
        assert_eq!(drv.n_replicas(), 3);
        assert!(drv.run(Time::from_secs(10)));
        assert!(drv.all_done());
        assert_eq!(drv.completed_ops(), 10);
        assert_eq!(drv.state_digests().len(), 3);
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
        // Crash-fault protocol: it declares no lie.
        assert!(MultiPaxos::equivocation_filter().is_none());
    }

    #[test]
    fn snapshots_bound_log_growth() {
        // Mirror of raft's test: with a snapshot threshold of 8, a 40-command
        // workload must checkpoint at least once and retain well under 40
        // slots — the log stays bounded against the checkpoint.
        let mut cluster =
            majority_cluster(3, 1, 40, 21).map_replicas(|r| r.disk.set_snapshot_threshold(8));
        assert!(cluster.run(Time::from_secs(20)));
        assert_eq!(cluster.total_completed(), 40);
        cluster.sim.run_for(300_000); // let followers settle / catch up
        cluster.check_log_consistency();
        for r in cluster.replicas() {
            assert!(
                r.disk.snapshots_taken >= 1,
                "replica never checkpointed (floor {})",
                r.floor
            );
            assert!(
                r.log.retained_len() < 40,
                "log not compacted: {} slots retained",
                r.log.retained_len()
            );
        }
    }

    #[test]
    fn durability_does_not_change_decisions() {
        // The disk model is pure accounting — attaching engines must not
        // perturb message timing. Under a draw-free synchronous network the
        // run must be observably identical: same decided sequence when the
        // log is kept (huge threshold), and the same final machine digest
        // and message count even when compaction empties old slots.
        let run = |threshold: Option<usize>| {
            let mut cluster = MultiPaxosCluster::new(
                QuorumSpec::Majority { n: 3 },
                2,
                20,
                NetConfig::synchronous(),
                42,
            );
            if let Some(t) = threshold {
                cluster = cluster.with_durability(t, simnet::DiskModel::ssd());
            }
            assert!(cluster.run(Time::from_secs(30)));
            cluster.check_log_consistency();
            let digest = cluster
                .replicas()
                .max_by_key(|r| r.log.applied_len())
                .expect("replicas")
                .log
                .machine()
                .digest();
            (
                flattened_decisions(&cluster),
                digest,
                cluster.sim.metrics().sent,
            )
        };
        let (base_seq, base_digest, base_sent) = run(None);
        assert_eq!(base_seq.len(), 40);
        // No compaction: byte-for-byte identical decisions and traffic.
        assert_eq!(run(Some(usize::MAX)), (base_seq, base_digest, base_sent));
        // Compaction at 8: old slots are emptied so the flattened sequence
        // shrinks, but the state and the message trace must not change.
        let (_, digest8, sent8) = run(Some(8));
        assert_eq!(digest8, base_digest);
        assert_eq!(sent8, base_sent);
    }

    #[test]
    fn durable_replica_recovers_from_wal_and_snapshot() {
        let mut cluster =
            majority_cluster(3, 1, 30, 22).with_durability(8, simnet::DiskModel::ssd());
        assert!(cluster.run(Time::from_secs(20)));
        assert_eq!(cluster.total_completed(), 30);
        cluster.sim.run_for(300_000);
        // The promise and whether the replica has recovered yet.
        let promise = |cluster: &MultiPaxosCluster| {
            let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
                panic!("node 2 is a replica")
            };
            let recoveries = r.storage_stats().expect("durable engine").recoveries;
            (r.acceptor.promise(), recoveries)
        };
        let digest_before = {
            let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
                panic!("node 2 is a replica")
            };
            assert!(
                r.disk.snapshots_taken >= 1,
                "needs a checkpoint to recover from"
            );
            r.log.machine().digest()
        };
        // A candidate's `Prepare` lifts node 2's promise above every ballot
        // it accepted under, so only its `Promise` record can restore it.
        let now = cluster.sim.now();
        let ballot = promise(&cluster).0.next_for(NodeId(1));
        let prepare = MpMsg::Prepare { ballot, low: 0 }.into();
        cluster.sim.inject(NodeId(1), NodeId(2), prepare, now);
        // Crash + restart: recovery must come from the checkpoint (not a
        // full replay from slot 0) and reproduce the exact machine state,
        // and the `Promise` record the promise it held.
        cluster.sim.crash_at(NodeId(2), Time(now.0 + 1_000));
        cluster.sim.restart_at(NodeId(2), Time(now.0 + 50_000));
        cluster.sim.run_until(Time(now.0 + 1_000));
        let (before, _) = promise(&cluster);
        {
            let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
                panic!("node 2 is a replica")
            };
            let accepted = r.acceptor.accepted_since(0).map(|(_, (b, _))| *b).max();
            assert!(before >= ballot && accepted < Some(before), "{accepted:?}");
        }
        cluster.sim.run_until(Time(now.0 + 50_000));
        assert_eq!(promise(&cluster), (before, 1), "the promise must survive");
        cluster.sim.run_for(500_000);
        let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
            panic!("node 2 is a replica")
        };
        assert!(
            r.disk.recovered_floor > 0,
            "recovery replayed from slot 0 instead of the snapshot"
        );
        assert_eq!(
            r.log.machine().digest(),
            digest_before,
            "state must survive"
        );
        let stats = r.storage_stats().expect("durable engine");
        assert_eq!(stats.recoveries, 1);
        assert!(
            r.disk.last_recovery_io_us > 0,
            "recovery must charge disk time"
        );
        cluster.check_log_consistency();
    }

    #[test]
    fn lagging_replica_catches_up_via_install_state() {
        // Crash a follower early, let the survivors compact past its log
        // end, then bring it back: phase-1 entries below the floor are gone,
        // so only the install-state path can repair it.
        let mut cluster =
            majority_cluster(3, 2, 30, 23).with_durability(4, simnet::DiskModel::ssd());
        cluster.sim.crash_at(NodeId(2), Time::from_millis(20));
        assert!(cluster.run(Time::from_secs(20)), "quorum of 2 must finish");
        assert_eq!(cluster.total_completed(), 60);
        let leader_floor = cluster.replicas().map(|r| r.floor).max().expect("replicas");
        assert!(leader_floor > 0, "survivors never compacted");
        let now = cluster.sim.now();
        cluster.sim.restart_at(NodeId(2), Time(now.0 + 1_000));
        // Several heartbeat periods: probe, install, decide-resend rounds.
        cluster.sim.run_for(2_000_000);
        let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
            panic!("node 2 is a replica")
        };
        assert!(
            r.disk.snapshots_installed >= 1,
            "laggard never installed a peer checkpoint (applied {}, floor {leader_floor})",
            r.log.applied_len()
        );
        assert!(
            r.log.applied_len() >= leader_floor,
            "laggard still behind the compaction floor"
        );
        cluster.check_log_consistency();
    }

    /// A follower misses a `Delete`, its peers compact past it, and
    /// `InstallState` lands their machine on its *live* index, which still
    /// holds the deleted key. The index rebuild prunes what the incoming
    /// state no longer has before it upserts, so the key is gone and the
    /// next `Range` over it finds only the machine's rows (a stale row
    /// would trip the engine-vs-machine scan check). No generated workload
    /// emits `Delete`.
    #[test]
    fn install_state_drops_a_key_the_incoming_state_no_longer_has() {
        let mut cluster = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 3 },
            1,
            0,
            NetConfig::synchronous(),
            1,
        )
        .with_durability(2, DiskModel::ssd());
        cluster.sim.run_for(5_000);
        let leader = cluster.leader().expect("node 0 bootstraps leadership");
        let (client, laggard) = (NodeId(3), NodeId(2));
        let mut seq = 0;
        let mut submit = |cluster: &mut MultiPaxosCluster, op| {
            seq += 1;
            let cmd = Command { client: 3, seq, op };
            let now = cluster.sim.now();
            cluster
                .sim
                .inject(client, leader, Envelope::request(cmd), now);
            cluster.sim.run_for(3_000);
        };
        let put = |key: &str| KvCommand::Put {
            key: key.into(),
            value: "v".into(),
        };
        submit(&mut cluster, put("doomed"));
        let Proc::Replica(r) = cluster.sim.node_mut(laggard) else {
            panic!("node 2 is a replica")
        };
        let mirrored = r.disk.engine_mut().expect("durable").scan("", "~");
        assert_eq!(mirrored.len(), 1, "the laggard mirrored the put");

        // Cut the laggard off, delete the key, and push its peers' floor
        // past its log end.
        let now = cluster.sim.now();
        let rest = vec![NodeId(0), NodeId(1), client];
        cluster.sim.partition_at(now, vec![rest, vec![laggard]]);
        submit(
            &mut cluster,
            KvCommand::Delete {
                key: "doomed".into(),
            },
        );
        for key in ["a", "b", "c", "d"] {
            submit(&mut cluster, put(key));
        }
        assert!(replica(&cluster, leader).floor > replica(&cluster, laggard).log.len());

        // Heal: the next heartbeat's probe is answered with `InstallState`.
        let now = cluster.sim.now();
        cluster.sim.heal_at(now);
        cluster.sim.run_for(30_000);
        assert_eq!(replica(&cluster, laggard).disk.snapshots_installed, 1);
        let Proc::Replica(r) = cluster.sim.node_mut(laggard) else {
            panic!("node 2 is a replica")
        };
        let keys: Vec<String> = (r.disk.engine_mut().expect("durable").scan("", "~"))
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        assert_eq!(keys, ["a", "b", "c", "d"], "the deleted key left the index");
        let (start, end) = ("a".into(), "z".into());
        submit(
            &mut cluster,
            KvCommand::Range {
                start,
                end,
                limit: 16,
            },
        );
    }

    #[test]
    fn throughput_scales_down_with_cluster_size() {
        // Larger clusters ⇒ more messages per command (O(n) per decision).
        let mut msgs_per_cmd = Vec::new();
        for n in [3usize, 5, 7] {
            let mut cluster = majority_cluster(n, 1, 20, 8);
            assert!(cluster.run(Time::from_secs(20)));
            let m = cluster.sim.metrics();
            msgs_per_cmd.push(m.sent as f64 / 20.0);
        }
        assert!(
            msgs_per_cmd[0] < msgs_per_cmd[1] && msgs_per_cmd[1] < msgs_per_cmd[2],
            "messages/command should grow with n: {msgs_per_cmd:?}"
        );
    }

    #[test]
    fn tracing_produces_chained_roots_and_fsync_spans() {
        // A traced durable run yields: one closed root "op" span per command,
        // consensus traffic chained under those roots, and wal-fsync charges
        // on the replicas — without changing decisions or traffic.
        let run = |traced: bool| {
            let mut cluster = majority_cluster(3, 2, 10, 31)
                .with_durability(usize::MAX, simnet::DiskModel::ssd());
            if traced {
                cluster.sim.enable_tracing(7);
            }
            assert!(cluster.run(Time::from_secs(20)));
            let digest = cluster
                .replicas()
                .max_by_key(|r| r.log.applied_len())
                .expect("replicas")
                .log
                .machine()
                .digest();
            (digest, cluster.sim.metrics().sent, cluster)
        };
        let (base_digest, base_sent, _) = run(false);
        let (digest, sent, cluster) = run(true);
        assert_eq!(digest, base_digest, "tracing must not change decisions");
        assert_eq!(sent, base_sent, "tracing must not change traffic");

        let spans = cluster.sim.causal_spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.cat == "op" && s.trace_id == s.id)
            .collect();
        assert_eq!(roots.len(), 20, "one root span per client command");
        assert!(
            roots.iter().all(|r| r.end > r.start),
            "every root must be closed by its Reply"
        );
        for root in &roots {
            let children = spans
                .iter()
                .filter(|s| s.trace_id == root.trace_id && s.id != root.id)
                .count();
            assert!(children >= 4, "request/accept/accepted/reply at minimum");
        }
        assert!(
            spans
                .iter()
                .any(|s| s.cat == "wal-fsync" && s.end > s.start),
            "durable replicas must record fsync charges"
        );
        // Span ids carry the site tag in the high bits.
        assert!(spans.iter().all(|s| s.id >> 40 == 8 && s.site == 7));
    }

    /// Helper: the current leader plus one `(key, value)` it has applied.
    fn leader_and_sample(cluster: &MultiPaxosCluster) -> (NodeId, Str, Str) {
        let leader = cluster.leader().expect("stable leader");
        let Proc::Replica(r) = cluster.sim.node(leader) else {
            panic!("leader is a replica")
        };
        let (k, v) = r.log.machine().kv().iter().next().expect("applied writes");
        (leader, k.clone(), v.clone())
    }

    #[test]
    fn lease_reads_serve_locally_and_nack_past_skew_bound() {
        let mut cluster = majority_cluster(3, 1, 10, 12).map_replicas(|r| r.leases = true);
        assert!(cluster.run(Time::from_secs(10)));
        let (leader, key, want) = leader_and_sample(&cluster);
        let client = NodeId(3);
        let at = cluster.sim.now();
        cluster.sim.inject(
            client,
            leader,
            Envelope::Client(ClientMsg::Read {
                client: 3,
                seq: 1,
                key: key.clone(),
            }),
            at,
        );
        cluster.sim.run_for(50_000);
        {
            let Proc::Client(c) = cluster.sim.node(client) else {
                panic!("node 3 is a client")
            };
            assert_eq!(
                c.read_replies.get(&(3, 1)),
                Some(&(Some(want), ReadMode::Lease)),
                "lease-holding leader must answer locally"
            );
        }
        // Skew one replica past the tolerance: the oracle trips and every
        // subsequent fast read must NACK (fall back to the log path).
        cluster.sim.set_clock_skew(NodeId(0), 20_000);
        let at = cluster.sim.now();
        cluster.sim.inject(
            client,
            leader,
            Envelope::Client(ClientMsg::Read {
                client: 3,
                seq: 2,
                key,
            }),
            at,
        );
        cluster.sim.run_for(50_000);
        let Proc::Client(c) = cluster.sim.node(client) else {
            panic!("node 3 is a client")
        };
        assert_eq!(
            c.read_replies.get(&(3, 2)),
            Some(&(None, ReadMode::Nack)),
            "skew past the bound must force fallback, never a stale serve"
        );
    }

    #[test]
    fn idle_leader_renews_lease_through_the_log() {
        // After the workload drains, only heartbeat-driven no-op proposals
        // can keep the lease alive. Run well past several lease lifetimes
        // and verify a fast read still serves locally.
        let mut cluster = majority_cluster(3, 1, 15, 13).map_replicas(|r| r.leases = true);
        assert!(cluster.run(Time::from_secs(5)));
        cluster.sim.run_for(500_000); // ≫ LEASE_US with no client traffic
        let (leader, key, want) = leader_and_sample(&cluster);
        let at = cluster.sim.now();
        cluster.sim.inject(
            NodeId(3),
            leader,
            Envelope::Client(ClientMsg::Read {
                client: 3,
                seq: 9,
                key,
            }),
            at,
        );
        cluster.sim.run_for(50_000);
        let Proc::Client(c) = cluster.sim.node(NodeId(3)) else {
            panic!("node 3 is a client")
        };
        assert_eq!(
            c.read_replies.get(&(3, 9)),
            Some(&(Some(want), ReadMode::Lease))
        );
        let renewals: usize = cluster
            .replicas()
            .map(|r| r.log.applied_len())
            .max()
            .unwrap_or(0);
        assert!(renewals > 5, "no-op renewals must have landed in the log");
    }

    #[test]
    fn partitioned_leader_stops_serving_lease_reads() {
        // A leader cut off from its acceptors keeps self-delivering Accepts
        // (local hops bypass partitions), so only the *quorum* freshness
        // check stands between it and stale reads.
        let mut cluster = majority_cluster(3, 1, 10, 14).map_replicas(|r| r.leases = true);
        assert!(cluster.run(Time::from_secs(10)));
        let (leader, key, _) = leader_and_sample(&cluster);
        let now = cluster.sim.now();
        // The probing client shares the minority side so the NACK can reach
        // it; only the leader↔acceptor links are severed.
        let rest: Vec<NodeId> = (0..3).map(NodeId::from).filter(|&n| n != leader).collect();
        cluster
            .sim
            .partition_at(Time(now.0 + 1_000), vec![vec![leader, NodeId(3)], rest]);
        // Run far past lease expiry; the isolated leader's grants go stale.
        cluster.sim.run_for(400_000);
        let at = cluster.sim.now();
        cluster.sim.inject(
            NodeId(3),
            leader,
            Envelope::Client(ClientMsg::Read {
                client: 3,
                seq: 5,
                key,
            }),
            at,
        );
        cluster.sim.run_for(50_000);
        let Proc::Client(c) = cluster.sim.node(NodeId(3)) else {
            panic!("node 3 is a client")
        };
        assert_eq!(
            c.read_replies.get(&(3, 5)),
            Some(&(None, ReadMode::Nack)),
            "an isolated ex-leader must refuse fast reads once its lease lapses"
        );
    }

    #[test]
    fn lease_mode_preserves_the_committed_command_sequence() {
        // Leases add renewal no-ops and grant bookkeeping but must not
        // change which client commands commit or their order.
        let decided = |lease: bool| {
            let mut cluster = MultiPaxosCluster::new(
                QuorumSpec::Majority { n: 3 },
                2,
                20,
                NetConfig::synchronous(),
                42,
            );
            if lease {
                cluster = cluster.map_replicas(|r| r.leases = true);
            }
            assert!(cluster.run(Time::from_secs(30)));
            cluster.check_log_consistency();
            flattened_decisions(&cluster)
        };
        let base = decided(false);
        assert_eq!(base.len(), 40);
        assert_eq!(decided(true), base);
    }
}
