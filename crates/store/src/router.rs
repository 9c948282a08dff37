//! The forward path: a router issues its workload and coordinates its own
//! transactions.
//!
//! A router is the 2PC coordinator *process*, but — following Gray &
//! Lamport's *Consensus on Transaction Commit* — every piece of 2PC state it
//! produces is a replicated log entry in some shard:
//!
//! 1. **Intent** — `~txn.<tid> = "<participant shards>"` on the coordinator
//!    shard (who is involved, for recovery).
//! 2. **Init** — `~dec.<tid> = "pending"` on the coordinator shard.
//! 3. **Prepare** — `~prep.<tid>.s<k> = "<write-set>"` on every participant
//!    shard (the participant's yes vote *and* its redo log).
//! 4. **Decide** — compare-and-swap `~dec.<tid>: pending → commit|abort` on
//!    the coordinator shard. Log order serializes concurrent deciders;
//!    exactly one CAS swaps. *This entry is the commit point.*
//! 5. **Apply** — data writes `key = value@<tid>`, issued only after the
//!    decision entry is observed durable.
//!
//! That is [`CommitBackend::TwoPhaseOverConsensus`]. Raw
//! [`CommitBackend::TwoPhase`] skips step 2 and writes a plain decision
//! record in step 4; [`CommitBackend::PaxosCommit`] replaces steps 2–4 with
//! one vote register per participant (`VoteInit`, `Vote`) whose log-ordered
//! resolution is the commit point, and a derived decision record.
//!
//! If the router crashes at *any* point, the recovery actor
//! (`recovery.rs`) re-derives the outcome purely from replicated state.
//!
//! The `buggy_early_writes` knob re-creates the classic early-dissemination
//! bug: the coordinator applies the decision — it disseminates the data
//! writes — *before* its decision entry is replicated. A router crash in
//! that window leaves the txn formally undecided, recovery's abort-CAS
//! wins, and the "committed" writes are already visible as orphaned aborted
//! state — the nemesis atomicity checker catches exactly this.

use std::collections::VecDeque;

use consensus_core::smr::{KvCommand, KvResponse, Str};
use consensus_core::txn::{self, TxnDecision, TxnId, TxnPhase};
use consensus_core::ReadMode;

use crate::config::{
    decision_cas, decision_get, decision_put, encode_intent, intent_key, put, vote_cas, vote_get,
    CommitBackend, ROUTER_BASE,
};
use crate::engine::ShardEngine;
use crate::geo::ReadOutcome;
use crate::port::{Pending, Port, Step};
use crate::recovery::Abandoned;
use crate::shard_map::ShardMap;
use crate::workload::WorkItem;

/// Where a router may be crashed relative to a transaction's lifecycle,
/// mirroring `atomic_commit::three_phase::CrashPoint` one layer up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterCrashPoint {
    /// After the decision entry is initialized, before any prepare.
    BeforePrepare,
    /// After all prepare records are durable, before the decision CAS.
    AfterPrepare,
    /// After the commit decision is durable, before any data write.
    AfterDecide,
    /// Buggy mode only: after the early data writes are applied, before
    /// the decision CAS is even submitted — the maximal-damage window of
    /// the early-dissemination bug.
    AfterEarlyWrites,
}

/// A completed transaction as the issuing router saw it.
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    /// Transaction id.
    pub tid: TxnId,
    /// Final decision.
    pub decision: TxnDecision,
    /// Number of shards the transaction spanned.
    pub span: usize,
    /// Completion time (µs).
    pub at: u64,
    /// Begin-to-outcome latency (µs).
    pub latency_us: u64,
}

/// A completed merged range scan as the issuing router saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Issuing router's client id.
    pub client: u32,
    /// Scan start key (inclusive).
    pub start: Str,
    /// Scan end key (exclusive).
    pub end: Str,
    /// Maximum entries requested.
    pub limit: usize,
    /// Merged result: per-shard scans concatenated, sorted by key, and
    /// truncated to `limit` — the deterministic global top-`limit`.
    pub entries: Vec<(Str, Str)>,
    /// Completion time (µs).
    pub at: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    Single,
    /// Range scan: per-shard sub-scans in flight, merge pending.
    Range,
    /// Geo fast read in flight (or its log fallback after a NACK/timeout).
    GeoRead,
    Intent,
    Init,
    Prepare,
    /// Paxos Commit: vote registers being initialized to `pending`.
    VoteInit,
    /// Paxos Commit: per-participant vote CASes in flight.
    Vote,
    /// Buggy mode only: data writes in flight *before* the decision CAS.
    EarlyWrite,
    Decide,
    ReadDecision,
    Write,
}

#[derive(Clone, Debug)]
struct ActiveTxn {
    tid: TxnId,
    writes: Vec<(String, String)>,
    coord: usize,
    participants: Vec<usize>,
    backend: CommitBackend,
    intend_abort: bool,
    decided: Option<TxnDecision>,
    /// What the plain decision put (non-CAS backends) will record once
    /// acked.
    planned: Option<TxnDecision>,
    /// Paxos Commit: resolved vote per participant (`true` = prepared).
    votes: Vec<Option<bool>>,
    /// Remaining data writes per participant (parallel to `participants`).
    queues: Vec<VecDeque<(String, String)>>,
    /// Buggy mode: the data writes already applied before the decision.
    wrote_early: bool,
    started: u64,
}

impl ActiveTxn {
    /// What the coordinator decides when nothing interferes.
    fn intended(&self) -> TxnDecision {
        if self.intend_abort {
            TxnDecision::Abort
        } else {
            TxnDecision::Commit
        }
    }

    /// Sends the next queued data write of participant `i`, if any: one
    /// outstanding write per shard.
    fn send_write<E: ShardEngine>(&mut self, port: &mut Port, cx: &mut Step<'_, E>, i: usize) {
        if let Some((key, value)) = self.queues[i].pop_front() {
            port.send(cx, self.participants[i], put(key, value));
        }
    }
}

/// The transaction a commit phase runs inside.
fn active(txn: &mut Option<ActiveTxn>) -> &mut ActiveTxn {
    txn.as_mut()
        .expect("commit phases run inside a transaction")
}

/// The writes of `writes` that land on `shard`.
fn shard_writes(
    map: &ShardMap,
    writes: &[(String, String)],
    shard: usize,
) -> Vec<(String, String)> {
    let on_shard = |(k, _): &&(String, String)| map.group_of(k) == shard;
    writes.iter().filter(on_shard).cloned().collect()
}

pub(crate) struct Router {
    idx: usize,
    port: Port,
    map: ShardMap,
    /// Home region (always 0 on non-geo stores).
    region: usize,
    pub items: Vec<WorkItem>,
    next_item: usize,
    txn_counter: u64,
    phase: Phase,
    txn: Option<ActiveTxn>,
    /// The range scan being merged (`at` is set on completion).
    range: Option<RangeOutcome>,
    pub ranges: Vec<RangeOutcome>,
    pub geo_reads: Vec<ReadOutcome>,
    pub outcomes: Vec<TxnOutcome>,
    pub crashed: bool,
    pub crash_at: Option<u64>,
    pub restart_at: Option<u64>,
    pub crash_on: Option<(u64, RouterCrashPoint)>,
    /// The transaction a crash just orphaned, until the store hands it to
    /// the recovery actor.
    pub orphan: Option<Abandoned>,
}

impl Router {
    pub fn new(idx: usize, map: ShardMap, region: usize, items: Vec<WorkItem>) -> Self {
        Router {
            idx,
            port: Port::new(ROUTER_BASE + idx as u32),
            map,
            region,
            items,
            next_item: 0,
            txn_counter: 0,
            phase: Phase::Idle,
            txn: None,
            range: None,
            ranges: Vec::new(),
            geo_reads: Vec::new(),
            outcomes: Vec::new(),
            crashed: false,
            crash_at: None,
            restart_at: None,
            crash_on: None,
            orphan: None,
        }
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Whether the whole workload has been issued and answered.
    pub fn done(&self) -> bool {
        self.phase == Phase::Idle && self.next_item >= self.items.len() && self.port.idle()
    }

    fn crash<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        self.crashed = true;
        self.port.forget_pending();
        self.range = None;
        self.phase = Phase::Idle;
        let idx = self.idx;
        match self.txn.take() {
            Some(ActiveTxn { tid, coord, .. }) => {
                cx.note(format_args!("r{idx} crash mid-txn {tid} (to recovery)"));
                let at = cx.now;
                self.orphan = Some(Abandoned { tid, coord, at });
            }
            None => cx.note(format_args!("r{idx} crash")),
        }
    }

    /// Crashes the router if it was told to die at `point` of the current
    /// transaction; says whether it did.
    fn crashes_at<E: ShardEngine>(
        &mut self,
        point: RouterCrashPoint,
        cx: &mut Step<'_, E>,
    ) -> bool {
        let number = self.txn.as_ref().map(|t| t.tid.number);
        let hit = self
            .crash_on
            .is_some_and(|(n, p)| p == point && Some(n) == number);
        if hit {
            self.crash(cx);
        }
        hit
    }

    /// One harness step: fault schedule, replies, then the current phase.
    pub fn step<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, buggy: bool) {
        if self.crash_at.is_some_and(|t| cx.now >= t) && !self.crashed {
            self.crash_at = None;
            self.crash(cx);
        }
        if self.restart_at.is_some_and(|t| cx.now >= t) {
            self.restart_at = None;
            if self.crashed {
                // The restarted router does not resume its in-flight
                // transaction — that already belongs to recovery. It picks
                // up the rest of its workload.
                self.crashed = false;
                cx.note(format_args!("r{} restart", self.idx));
            }
        }
        if self.crashed {
            return;
        }

        let done = self.port.poll(cx);
        self.advance(cx, done, buggy);
    }

    fn start_next<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let Some(item) = self.items.get(self.next_item).cloned() else {
            return;
        };
        self.next_item += 1;
        match item {
            WorkItem::Single(op) => {
                let key = match &op {
                    KvCommand::Put { key, .. }
                    | KvCommand::Get { key }
                    | KvCommand::Delete { key }
                    | KvCommand::Cas { key, .. } => key,
                    // Scans span shards and are their own work item.
                    KvCommand::Range { .. } => unreachable!("ranges use WorkItem::Range"),
                };
                self.port.send(cx, self.map.group_of(key), op);
                self.phase = Phase::Single;
            }
            WorkItem::Range { start, end, limit } => {
                // Hash partitioning scatters any key interval across every
                // shard, so the scan fans out to all of them with the same
                // limit: the global top-`limit` is always contained in the
                // union of the per-shard top-`limit`s.
                let (idx, fanout) = (self.idx, cx.shards.len());
                cx.note(format_args!(
                    "r{idx} range [{start},{end}) limit={limit} fanout={fanout}"
                ));
                for shard in 0..fanout {
                    let (start, end) = (start.clone(), end.clone());
                    self.port
                        .send(cx, shard, KvCommand::Range { start, end, limit });
                }
                self.range = Some(RangeOutcome {
                    client: self.port.client(),
                    start,
                    end,
                    limit,
                    entries: Vec::new(),
                    at: 0,
                });
                self.phase = Phase::Range;
            }
            WorkItem::Txn {
                writes,
                abort,
                backend,
            } => {
                let tid = TxnId::new(self.port.client(), self.txn_counter);
                self.txn_counter += 1;
                let coord = self.map.group_of(&writes[0].0);
                let mut participants: Vec<usize> =
                    writes.iter().map(|(k, _)| self.map.group_of(k)).collect();
                participants.sort_unstable();
                participants.dedup();
                // The default backend keeps the historical trace line (and
                // therefore historical fingerprints) byte-identical.
                let suffix = match backend {
                    CommitBackend::TwoPhaseOverConsensus => String::new(),
                    other => format!(" backend={}", other.tag()),
                };
                let (idx, span) = (self.idx, participants.len());
                cx.note(format_args!(
                    "r{idx} {tid} begin span={span} coord=s{coord}{suffix}"
                ));
                let intent = encode_intent(backend, &participants);
                self.port.send(cx, coord, put(intent_key(tid), intent));
                self.txn = Some(ActiveTxn {
                    tid,
                    writes,
                    coord,
                    votes: vec![None; span],
                    participants,
                    backend,
                    intend_abort: abort,
                    decided: None,
                    planned: None,
                    queues: Vec::new(),
                    wrote_early: false,
                    started: cx.now,
                });
                self.phase = Phase::Intent;
            }
            WorkItem::GeoRead { key } => {
                let (idx, region, shard) = (self.idx, self.region, self.map.group_of(&key));
                let target = self.port.send_read(cx, shard, key.clone(), region);
                cx.note(format_args!(
                    "r{idx} georead {key} shard=s{shard} target={target} region={region}"
                ));
                self.phase = Phase::GeoRead;
            }
        }
    }

    fn merge_range<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        done: Vec<(Pending, KvResponse)>,
    ) {
        let acc = self.range.as_mut().expect("range phase has a scan");
        for (_, resp) in done {
            if let KvResponse::Entries(entries) = resp {
                acc.entries.extend(entries);
            }
        }
        if !self.port.idle() {
            return;
        }
        let mut out = self.range.take().expect("range phase has a scan");
        // Shards own disjoint key sets, so a plain sort is a duplicate-free
        // merge; the global result is its first `limit` keys.
        out.entries.sort();
        out.entries.truncate(out.limit);
        out.at = cx.now;
        let (idx, n) = (self.idx, out.entries.len());
        cx.note(format_args!(
            "r{idx} range [{},{}) -> {n} entries",
            out.start, out.end
        ));
        self.ranges.push(out);
        self.phase = Phase::Idle;
    }

    /// Closes out a geo read once the port completed it, on whichever path.
    fn finish_geo_read<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        done: Vec<(Pending, KvResponse)>,
    ) {
        let Some((p, resp)) = done.into_iter().next() else {
            return;
        };
        let (KvCommand::Get { key }, Some(fast)) = (p.op, p.fast) else {
            unreachable!("the geo-read phase has one fast read in flight");
        };
        let mode = fast.mode.expect("a completed read was served somehow");
        let target_region = cx.shards[p.shard].replica_region(fast.target);
        // Log fallbacks are never local: they pay the full consensus round.
        let local = mode != ReadMode::Log && target_region == Some(self.region);
        let idx = self.idx;
        cx.note(format_args!(
            "r{idx} georead {key} -> mode={mode:?} local={local}"
        ));
        self.geo_reads.push(ReadOutcome {
            client: self.port.client(),
            key,
            shard: p.shard,
            region: self.region,
            target_region,
            mode,
            value: match resp {
                KvResponse::Value(v) => v,
                _ => None,
            },
            at: cx.now,
            latency_us: cx.now - p.issued,
            local,
        });
        self.phase = Phase::Idle;
    }

    /// What the current phase does with this step's replies.
    fn advance<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        done: Vec<(Pending, KvResponse)>,
        buggy: bool,
    ) {
        match self.phase {
            Phase::Idle => self.start_next(cx),
            Phase::Single => {
                if !done.is_empty() {
                    self.phase = Phase::Idle;
                }
            }
            Phase::Range => self.merge_range(cx, done),
            Phase::GeoRead => self.finish_geo_read(cx, done),
            Phase::Intent => {
                if done.is_empty() {
                    return;
                }
                let t = active(&mut self.txn);
                let (tid, coord) = (t.tid, t.coord);
                match t.backend {
                    CommitBackend::TwoPhaseOverConsensus => {
                        let init = put(txn::decision_key(tid), txn::DECISION_PENDING);
                        self.port.send(cx, coord, init);
                        self.phase = Phase::Init;
                    }
                    // Raw 2PC has no replicated pending-init: the open
                    // decision lives only in this router process.
                    CommitBackend::TwoPhase => self.prepare(cx),
                    CommitBackend::PaxosCommit => {
                        // One vote register per participant, initialized to
                        // `pending` in that participant's own shard log —
                        // one Paxos instance per vote.
                        for &s in &t.participants {
                            let init = put(txn::vote_key(tid, s), txn::VOTE_PENDING);
                            self.port.send(cx, s, init);
                        }
                        self.phase = Phase::VoteInit;
                    }
                }
            }
            Phase::Init => {
                if !done.is_empty() {
                    self.prepare(cx);
                }
            }
            Phase::VoteInit => {
                if !self.port.idle() || self.crashes_at(RouterCrashPoint::BeforePrepare, cx) {
                    return;
                }
                let (idx, t) = (self.idx, active(&mut self.txn));
                cx.note(format_args!(
                    "r{idx} {} phase=vote shards={:?}",
                    t.tid, t.participants
                ));
                // Cast each participant's vote: a CAS the shard log
                // serializes against any recovery free-abort. Prepared
                // votes carry the shard-local write-set (the redo log).
                for (i, &s) in t.participants.iter().enumerate() {
                    let vote = if t.intend_abort && i == 0 {
                        txn::VOTE_ABORTED.to_string()
                    } else {
                        txn::vote_prepared(&shard_writes(&self.map, &t.writes, s))
                    };
                    self.port.send(cx, s, vote_cas(t.tid, s, vote));
                }
                self.phase = Phase::Vote;
            }
            Phase::Vote => {
                let t = active(&mut self.txn);
                for (p, resp) in &done {
                    let vote = match (&p.op, resp) {
                        (KvCommand::Cas { new, .. }, KvResponse::CasResult { swapped: true }) => {
                            txn::parse_vote(new)
                        }
                        // Someone else (recovery's free abort) resolved this
                        // register first; learn the chosen value from the log.
                        (KvCommand::Cas { .. }, KvResponse::CasResult { swapped: false }) => None,
                        (KvCommand::Get { .. }, KvResponse::Value(Some(v))) => txn::parse_vote(v),
                        _ => continue,
                    };
                    let Some(i) = t.participants.iter().position(|&s| s == p.shard) else {
                        continue;
                    };
                    match vote {
                        Some(writes) => t.votes[i] = Some(writes.is_some()),
                        // Resolved by another coordinator (or still
                        // unparsed): read the register.
                        None => self.port.send(cx, p.shard, vote_get(t.tid, p.shard)),
                    }
                }
                let waiting = !self.port.idle() || t.votes.iter().any(Option::is_none);
                if waiting || self.crashes_at(RouterCrashPoint::AfterPrepare, cx) {
                    return;
                }
                let t = active(&mut self.txn);
                let decision = if t.votes.iter().all(|v| *v == Some(true)) {
                    TxnDecision::Commit
                } else {
                    TxnDecision::Abort
                };
                t.planned = Some(decision);
                // The commit point already happened — it is the log-ordered
                // resolution of the vote registers. The decision record is
                // derived state any coordinator re-computes identically.
                self.port.send(cx, t.coord, decision_put(t.tid, decision));
                self.phase = Phase::Decide;
            }
            Phase::Prepare => {
                if !self.port.idle() || self.crashes_at(RouterCrashPoint::AfterPrepare, cx) {
                    return;
                }
                let t = active(&mut self.txn);
                let decision = t.intended();
                if buggy && decision == TxnDecision::Commit {
                    // BUG (opt-in): disseminate the data writes *now*, before
                    // the decision entry is replicated. Until the CAS lands,
                    // the txn is still formally undecided — a router crash in
                    // this window lets recovery's abort-CAS win while the
                    // "committed" writes are already visible.
                    return self.start_writes(cx, Phase::EarlyWrite);
                }
                let op = if t.backend == CommitBackend::TwoPhase {
                    // Raw 2PC: the decision is a plain record. Until this
                    // put is durable, the outcome exists only in this
                    // process — the classic blocking window.
                    t.planned = Some(decision);
                    decision_put(t.tid, decision)
                } else {
                    decision_cas(t.tid, decision)
                };
                self.port.send(cx, t.coord, op);
                self.phase = Phase::Decide;
            }
            Phase::EarlyWrite => {
                if !self.drain_writes(cx, &done) {
                    return;
                }
                active(&mut self.txn).wrote_early = true;
                if self.crashes_at(RouterCrashPoint::AfterEarlyWrites, cx) {
                    return;
                }
                let t = active(&mut self.txn);
                let op = decision_cas(t.tid, TxnDecision::Commit);
                self.port.send(cx, t.coord, op);
                self.phase = Phase::Decide;
            }
            Phase::Decide => {
                let t = active(&mut self.txn);
                for (p, resp) in &done {
                    match (&p.op, resp) {
                        (KvCommand::Cas { .. }, KvResponse::CasResult { swapped: true }) => {
                            t.decided = Some(t.intended());
                        }
                        (KvCommand::Cas { .. }, KvResponse::CasResult { swapped: false }) => {
                            // Someone else (recovery) resolved the decision
                            // first; learn it from the log.
                            self.port.send(cx, t.coord, decision_get(t.tid));
                            self.phase = Phase::ReadDecision;
                            return;
                        }
                        // Non-CAS backends: the planned decision record is
                        // durable.
                        (KvCommand::Put { .. }, KvResponse::Ok) => t.decided = t.planned,
                        _ => {}
                    }
                }
                match t.decided {
                    Some(TxnDecision::Abort) => self.finish_txn(cx, TxnDecision::Abort),
                    Some(TxnDecision::Commit) => {
                        if self.crashes_at(RouterCrashPoint::AfterDecide, cx) {
                            return;
                        }
                        self.start_writes(cx, Phase::Write);
                    }
                    None => {}
                }
            }
            Phase::ReadDecision => {
                let Some((p, resp)) = done.into_iter().next() else {
                    return;
                };
                let decision = match resp {
                    KvResponse::Value(Some(v)) => TxnDecision::parse(&v),
                    _ => None,
                };
                active(&mut self.txn).decided = decision;
                match decision {
                    Some(TxnDecision::Commit) => self.start_writes(cx, Phase::Write),
                    Some(TxnDecision::Abort) => self.finish_txn(cx, TxnDecision::Abort),
                    // Still pending (only possible transiently): re-read.
                    None => self.port.send(cx, p.shard, p.op),
                }
            }
            Phase::Write => {
                if self.drain_writes(cx, &done) {
                    self.finish_txn(cx, TxnDecision::Commit);
                }
            }
        }
    }

    /// Writes one prepare record per participant shard — the participant's
    /// yes vote *and* its redo log — shared by the consensus-2PC and raw-2PC
    /// backends.
    fn prepare<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        if self.crashes_at(RouterCrashPoint::BeforePrepare, cx) {
            return;
        }
        let (idx, t) = (self.idx, active(&mut self.txn));
        cx.note(format_args!(
            "r{idx} {} phase={} shards={:?}",
            t.tid,
            TxnPhase::Prepare.label(),
            t.participants
        ));
        for &s in &t.participants {
            let record = txn::encode_writes(&shard_writes(&self.map, &t.writes, s));
            self.port
                .send(cx, s, put(txn::prepare_key(t.tid, s), record));
        }
        self.phase = Phase::Prepare;
    }

    /// Queues the tagged data writes per participant, sends each queue's
    /// head, and enters `phase` to drain them. A buggy router that already
    /// wrote early has nothing left to send.
    fn start_writes<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, phase: Phase) {
        self.phase = phase;
        let t = active(&mut self.txn);
        if t.wrote_early {
            return;
        }
        let (tid, map) = (t.tid, &self.map);
        let queue = |&s| {
            let tagged = |(k, v): (String, String)| (k, txn::tag_value(&v, tid));
            let on_shard = shard_writes(map, &t.writes, s);
            on_shard.into_iter().map(tagged).collect()
        };
        t.queues = t.participants.iter().map(queue).collect();
        for i in 0..t.participants.len() {
            t.send_write(&mut self.port, cx, i);
        }
    }

    /// Keeps one data write outstanding per shard. True once every queue is
    /// drained and every write acknowledged.
    fn drain_writes<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        done: &[(Pending, KvResponse)],
    ) -> bool {
        let t = active(&mut self.txn);
        for (p, _) in done {
            if let Some(i) = t.participants.iter().position(|&s| s == p.shard) {
                t.send_write(&mut self.port, cx, i);
            }
        }
        self.port.idle() && t.queues.iter().all(VecDeque::is_empty)
    }

    fn finish_txn<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, decision: TxnDecision) {
        let t = self.txn.take().expect("finishing without an active txn");
        let (idx, span) = (self.idx, t.participants.len());
        cx.note(format_args!(
            "r{idx} {} phase={} decision={} span={span}",
            t.tid,
            TxnPhase::Decide.label(),
            decision.as_str()
        ));
        self.outcomes.push(TxnOutcome {
            tid: t.tid,
            decision,
            span,
            at: cx.now,
            latency_us: cx.now - t.started,
        });
        self.phase = Phase::Idle;
    }
}
