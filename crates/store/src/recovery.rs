//! The termination path: the recovery actor finishes what crashed routers
//! left behind, and the audit reader takes the post-run snapshot.
//!
//! If a router crashes at *any* point of a transaction, the recovery actor
//! re-derives the outcome purely from replicated state. Under 2PC over
//! consensus it CASes the decision to `abort` (winning iff the decision was
//! still open), and otherwise completes the writes recorded in the prepare
//! entries. Under Paxos Commit it walks the vote registers, free-aborting any
//! that is still open, and commits iff every register resolved prepared.
//! Under raw 2PC there is nothing to force: a transaction whose decision
//! record never became durable stalls forever. Unreplicated 2PC blocks in
//! this exact scenario — `atomic_commit::paxos_commit` at `F = 0` with
//! `CrashPoint::AfterVotes` demonstrates the contrast.

use consensus_core::smr::{KvCommand, KvResponse};
use consensus_core::txn::{self, TxnDecision, TxnId, TxnPhase};

use crate::config::{
    decision_cas, decision_get, decision_put, decode_intent, get, intent_key, put, vote_cas,
    vote_get, CommitBackend, AUDIT_CLIENT, RECOVERY_CLIENT, RECOVERY_DELAY_US,
};
use crate::engine::ShardEngine;
use crate::port::{Port, Step};
use crate::shard_map::ShardMap;

/// A crashed router's in-flight transaction, queued for recovery.
#[derive(Clone, Debug)]
pub(crate) struct Abandoned {
    pub tid: TxnId,
    pub coord: usize,
    pub at: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RecPhase {
    Idle,
    Intent,
    AbortCas,
    GetDecision,
    GetPrepare,
    /// Paxos Commit: free-abort CAS on the current vote register.
    VoteCas,
    /// Paxos Commit: reading a vote register another coordinator resolved.
    VoteGet,
    /// Non-CAS backends: writing the derived decision record.
    PutDecision,
    Write,
}

struct RecTask {
    tid: TxnId,
    coord: usize,
    backend: CommitBackend,
    participants: Vec<usize>,
    /// Index of the participant whose prepare record (2PC) or vote register
    /// (Paxos Commit) is being read.
    cursor: usize,
    /// Tagged data writes harvested from those records so far.
    writes: Vec<(String, String)>,
    /// Outcome derived from the vote registers (Paxos Commit).
    decision: Option<TxnDecision>,
    write_idx: usize,
}

impl RecTask {
    /// Takes over one participant's redo log and moves on to the next
    /// participant; says whether there is one.
    fn harvest(&mut self, writes: Vec<(String, String)>) -> bool {
        let tagged = |(k, v): (String, String)| (k, txn::tag_value(&v, self.tid));
        self.writes.extend(writes.into_iter().map(tagged));
        self.cursor += 1;
        self.cursor < self.participants.len()
    }
}

pub(crate) struct Recovery {
    port: Port,
    pub queue: Vec<Abandoned>,
    phase: RecPhase,
    task: Option<RecTask>,
    pub recovered: Vec<(TxnId, TxnDecision)>,
    /// Raw-2PC transactions recovery had to give up on: the coordinator
    /// died holding the only copy of the open decision. These block
    /// forever — the availability gap the replicated backends close.
    pub stalled: Vec<TxnId>,
}

impl Recovery {
    pub fn new() -> Self {
        Recovery {
            port: Port::new(RECOVERY_CLIENT),
            queue: Vec::new(),
            phase: RecPhase::Idle,
            task: None,
            recovered: Vec::new(),
            stalled: Vec::new(),
        }
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Whether nothing is queued or being terminated.
    pub fn quiesced(&self) -> bool {
        self.queue.is_empty() && self.phase == RecPhase::Idle
    }

    fn task(&mut self) -> &mut RecTask {
        self.task.as_mut().expect("recovery phases work on a task")
    }

    /// Sends `op` and waits for its reply in `next`.
    fn ask<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        shard: usize,
        op: KvCommand,
        next: RecPhase,
    ) {
        self.port.send(cx, shard, op);
        self.phase = next;
    }

    /// Tries to close the decision register as aborted.
    fn abort_cas<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let (tid, coord) = (self.task().tid, self.task().coord);
        let op = decision_cas(tid, TxnDecision::Abort);
        self.ask(cx, coord, op, RecPhase::AbortCas);
    }

    fn get_decision<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let (tid, coord) = (self.task().tid, self.task().coord);
        self.ask(cx, coord, decision_get(tid), RecPhase::GetDecision);
    }

    /// Reads the current participant's prepare record.
    fn get_prepare<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let task = self.task();
        let (tid, shard) = (task.tid, task.participants[task.cursor]);
        let op = get(txn::prepare_key(tid, shard));
        self.ask(cx, shard, op, RecPhase::GetPrepare);
    }

    /// Gray–Lamport termination: free-aborts the current vote register if it
    /// is still open. The shard log serializes the race with the (possibly
    /// in-flight) vote.
    fn free_abort<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let task = self.task();
        let (tid, shard) = (task.tid, task.participants[task.cursor]);
        let op = vote_cas(tid, shard, txn::VOTE_ABORTED.to_string());
        self.ask(cx, shard, op, RecPhase::VoteCas);
    }

    /// Records the outcome recovery derived from the vote registers and makes
    /// it durable as a plain decision record. Every coordinator derives the
    /// same outcome from the same (immutable once resolved) registers, so
    /// concurrent writers always write the same value.
    fn put_decision<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, decision: TxnDecision) {
        let task = self.task();
        task.decision = Some(decision);
        let (tid, coord) = (task.tid, task.coord);
        self.ask(
            cx,
            coord,
            decision_put(tid, decision),
            RecPhase::PutDecision,
        );
    }

    /// Re-applies the next harvested write — one at a time, idempotent,
    /// routed by the shard map — or finishes once all are acknowledged.
    fn write_or_finish<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, map: &ShardMap) {
        let task = self.task();
        let Some((key, value)) = task.writes.get(task.write_idx).cloned() else {
            return self.finish(cx, TxnDecision::Commit);
        };
        let shard = map.group_of(&key);
        self.ask(cx, shard, put(key, value), RecPhase::Write);
    }

    fn finish<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, decision: TxnDecision) {
        let task = self.task.take().expect("finishing without a task");
        cx.note(format_args!(
            "recovery {} phase={} decision={}",
            task.tid,
            TxnPhase::Decide.label(),
            decision.as_str()
        ));
        self.recovered.push((task.tid, decision));
        self.phase = RecPhase::Idle;
    }

    /// Gives up on a raw-2PC transaction whose only decision copy died with
    /// its coordinator: there is nothing in any log that can resolve it.
    fn stall<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let task = self.task.take().expect("stalling without a task");
        cx.note(format_args!(
            "recovery {} stalled (no durable decision; raw 2pc blocks)",
            task.tid
        ));
        self.stalled.push(task.tid);
        self.phase = RecPhase::Idle;
    }

    /// Claims the first abandoned transaction whose grace period is over and
    /// reads its intent record.
    fn claim<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        let due = |a: &Abandoned| cx.now >= a.at + RECOVERY_DELAY_US;
        let Some(pos) = self.queue.iter().position(due) else {
            return;
        };
        let Abandoned { tid, coord, .. } = self.queue.remove(pos);
        cx.note(format_args!("recovery {tid} claim"));
        self.task = Some(RecTask {
            tid,
            coord,
            backend: CommitBackend::TwoPhaseOverConsensus,
            participants: Vec::new(),
            cursor: 0,
            writes: Vec::new(),
            decision: None,
            write_idx: 0,
        });
        self.ask(cx, coord, get(intent_key(tid)), RecPhase::Intent);
    }

    /// One harness step. Recovery has at most one op in flight, so each phase
    /// is "what to do with that op's reply".
    pub fn step<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, map: &ShardMap) {
        let done = self.port.poll(cx);
        if self.phase == RecPhase::Idle {
            return self.claim(cx);
        }
        let Some((p, resp)) = done.into_iter().next() else {
            return;
        };
        let swapped = resp == KvResponse::CasResult { swapped: true };
        match self.phase {
            RecPhase::Idle => unreachable!("an idle actor claimed and returned above"),
            RecPhase::Intent => {
                let KvResponse::Value(Some(intent)) = resp else {
                    // The intent never became durable: the transaction
                    // registered nothing, so nothing can ever commit.
                    return self.finish(cx, TxnDecision::Abort);
                };
                let task = self.task();
                (task.backend, task.participants) = decode_intent(&intent);
                match task.backend {
                    CommitBackend::TwoPhaseOverConsensus => self.abort_cas(cx),
                    // Raw 2PC leaves nothing to force: either a decision
                    // record survived or the transaction is stuck.
                    CommitBackend::TwoPhase => self.get_decision(cx),
                    CommitBackend::PaxosCommit => self.free_abort(cx),
                }
            }
            // We closed the decision: abort is durable, and the router
            // (sound) never wrote data without a durable commit — nothing to
            // undo.
            RecPhase::AbortCas if swapped => self.finish(cx, TxnDecision::Abort),
            RecPhase::AbortCas => self.get_decision(cx),
            RecPhase::GetDecision => {
                let raw = self.task().backend == CommitBackend::TwoPhase;
                let decision = match &resp {
                    KvResponse::Value(Some(v)) => Some(TxnDecision::parse(v)),
                    _ => None,
                };
                match decision {
                    Some(Some(TxnDecision::Commit)) => self.get_prepare(cx),
                    Some(Some(TxnDecision::Abort)) => self.finish(cx, TxnDecision::Abort),
                    // No durable decision anywhere (or unresolvable garbage):
                    // the only copy died with the coordinator process.
                    // Blocked.
                    _ if raw => self.stall(cx),
                    // Back to pending is impossible, but an interleaved init
                    // can surface it transiently: retry the abort CAS.
                    Some(None) => self.abort_cas(cx),
                    // Decision key absent: the init write never became
                    // durable, so no commit CAS can ever succeed.
                    None => self.finish(cx, TxnDecision::Abort),
                }
            }
            // We closed this vote register as aborted; the whole transaction
            // aborts, and the (durable) register makes every future
            // coordinator agree.
            RecPhase::VoteCas if swapped => self.put_decision(cx, TxnDecision::Abort),
            RecPhase::VoteCas => {
                // The register was already resolved (vote or free abort);
                // learn the chosen value from the log.
                let read = vote_get(self.task().tid, p.shard);
                self.ask(cx, p.shard, read, RecPhase::VoteGet);
            }
            RecPhase::VoteGet => match resp {
                KvResponse::Value(Some(v)) => match txn::parse_vote(&v) {
                    Some(Some(writes)) => {
                        // Prepared: harvest the shard-local redo log and
                        // terminate the next register.
                        if self.task().harvest(writes) {
                            self.free_abort(cx);
                        } else {
                            // Every register resolved prepared: the
                            // transaction had already passed its commit point
                            // when the coordinator died. Commit it.
                            self.put_decision(cx, TxnDecision::Commit);
                        }
                    }
                    Some(None) => self.put_decision(cx, TxnDecision::Abort),
                    // Transiently pending/garbage: re-read.
                    None => self.port.send(cx, p.shard, p.op),
                },
                // The register was never initialized durably — the
                // coordinator died before the vote phase and no vote can
                // ever be cast. Free abort.
                KvResponse::Value(None) => self.put_decision(cx, TxnDecision::Abort),
                _ => self.port.send(cx, p.shard, p.op),
            },
            RecPhase::PutDecision => {
                if resp == KvResponse::Ok {
                    match self.task().decision.expect("put-decision has an outcome") {
                        TxnDecision::Commit => self.write_or_finish(cx, map),
                        TxnDecision::Abort => self.finish(cx, TxnDecision::Abort),
                    }
                }
            }
            RecPhase::GetPrepare => match resp {
                KvResponse::Value(Some(v)) => {
                    if self.task().harvest(txn::decode_writes(&v)) {
                        self.get_prepare(cx);
                    } else {
                        self.write_or_finish(cx, map);
                    }
                }
                // A committed transaction always has durable prepare
                // records; a transient miss just means the replica we read
                // lagged. Retry.
                _ => self.port.send(cx, p.shard, p.op),
            },
            RecPhase::Write => {
                self.task().write_idx += 1;
                self.write_or_finish(cx, map);
            }
        }
    }
}

/// The post-run audit reader: one serializable `Get` per pool key, through
/// the owning shard's log, one at a time.
pub(crate) struct Audit {
    port: Port,
    pub keys: Vec<(usize, String)>,
    idx: usize,
    pub started: bool,
}

impl Audit {
    pub fn new(keys: Vec<(usize, String)>) -> Self {
        Audit {
            port: Port::new(AUDIT_CLIENT),
            keys,
            idx: 0,
            started: false,
        }
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Whether every pool key has been read.
    pub fn done(&self) -> bool {
        self.started && self.idx >= self.keys.len() && self.port.idle()
    }

    pub fn step<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) {
        self.port.poll(cx);
        if self.port.idle() && self.idx < self.keys.len() {
            let (shard, key) = self.keys[self.idx].clone();
            self.idx += 1;
            self.port.send(cx, shard, get(key));
        }
    }
}
