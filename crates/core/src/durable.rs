//! The replicated log's durable side, written once for Multi-Paxos and
//! Raft: one set of WAL records, one snapshot header, and [`Disk`], the one
//! handle through which a log replica meets its storage engine. The two
//! protocols differ in their phases, not in what a replica must remember: a
//! promise, the entries it accepted, what it learned was decided, and the
//! transaction decisions it resolved. Ops, commands, replies and the machine
//! body encode through [`crate::codec`]; every byte is explicit, which also
//! keeps the WAL record table in the generated docs honest.
//!
//! ## WAL records
//!
//! | tag | record | payload | Multi-Paxos | Raft |
//! |---|---|---|---|---|
//! | 1 | `Promise` | ballot `(num: u64, pid: u32)` | its promise | `(current_term, voted_for)`; pid `u32::MAX` = no vote |
//! | 2 | `Accept` | index `u64`, ballot, op | an accept | an append, ballot `(entry term, 0)` |
//! | 3 | `Decide` | index `u64`, op | a learned decision | — |
//! | 4 | `TxnDecision` | key `str`, value `str` | yes | yes |
//! | 5 | `Commit` | commit index `u64` | — | its commit index |
//!
//! Raft has one leader per term, so an append's ballot carries no pid; a
//! conflicting suffix needs no record of its own, because replaying an
//! append drops every entry at and above its index. `Commit` is a recovery
//! accelerator, not a safety requirement: it lets a restarted Raft replica
//! re-apply to its old frontier without waiting for a leader round-trip.
//!
//! `TxnDecision` is the store's WAL-before-decision discipline made explicit:
//! when an applied entry resolves a 2PC decision record (`~dec.<tid>`), the
//! replica logs the resolved `(key, value)` as its own record and syncs
//! before the reply that releases the transaction leaves. On recovery these
//! records, plus the decision entries in the snapshot, rebuild the decision
//! table without replaying the command history.
//!
//! ## Snapshot blob
//!
//! The index the machine reflects (`u64`), the term of the entry there
//! (`u64`; Multi-Paxos writes 0), then the [`DedupKvMachine`] body
//! ([`crate::codec::put_machine`]). Restoring must reproduce the machine
//! digest bit-for-bit — the nemesis fingerprint oracle depends on it.
//!
//! ## The contract a replica keeps through [`Disk`]
//!
//! **Log, then sync, before the acknowledgement.** A replica [`log`]s a
//! record for every state change a message of its protocol will reveal — a
//! promise or vote before its answer, an accept or append before its
//! acknowledgement, a decision before applying — and calls [`sync`] in the
//! same handler *before* the reply that reveals it leaves: one sync
//! group-commits whatever the handler logged. A resolved 2PC decision is
//! logged by the apply step itself, through [`Disk`] as its
//! [`PrimaryIndex`], and follows the same rule.
//!
//! **Detached costs nothing.** Without an engine a replica keeps the
//! historical everything-in-RAM model: [`log`] never builds its record (so
//! no op is cloned for it), [`sync`] and [`checkpoint`] return at once, and
//! [`restore`] hands back nothing.
//!
//! **The index is a mirror.** Applied state is upserted into the engine's
//! primary index, not synchronously durable; after a crash [`restore`]
//! rebuilds it from the checkpoint, and [`recovered`] reports what that
//! cost. *What* an applied command writes there is
//! [`KvCommand::mirror`](crate::KvCommand::mirror)'s rule.
//!
//! Page checksums and detect-and-refetch recovery belong behind this handle.
//!
//! [`log`]: Disk::log
//! [`sync`]: Disk::sync
//! [`checkpoint`]: Disk::checkpoint
//! [`restore`]: Disk::restore
//! [`recovered`]: Disk::recovered

use std::collections::BTreeMap;

use simnet::{Context, Payload};
use storage::{StorageEngine, StorageStats};

use crate::codec::{
    get_machine, get_op, put_machine, put_op, put_str, put_u32, put_u64, Count, Reader, Sink,
};
use crate::smr::{KvStore, Log};
use crate::{Ballot, DedupKvMachine, PrimaryIndex, SmrOp, Str};

/// A WAL record, as either protocol writes it.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A promise (Multi-Paxos) or a term and vote (Raft) was made: never
    /// accept lower ballots, never vote twice in a term.
    Promise {
        /// The promised ballot.
        ballot: Ballot,
    },
    /// An op was accepted (Multi-Paxos) or appended (Raft) at an index.
    Accept {
        /// Log index.
        index: usize,
        /// Accepting ballot; Raft's is the entry's term.
        ballot: Ballot,
        /// Accepted op.
        op: SmrOp,
    },
    /// A slot's decision was learned.
    Decide {
        /// Log index.
        index: usize,
        /// Decided op.
        op: SmrOp,
    },
    /// An applied entry resolved a transaction decision record, persisted
    /// *before* the releasing reply leaves (WAL-before-decision).
    TxnDecision {
        /// The decision key (`~dec.<tid>`).
        key: Str,
        /// The resolved decision value (`commit` / `abort`).
        value: Str,
    },
    /// The commit index advanced (recovery accelerator, not safety).
    Commit {
        /// New commit index.
        index: usize,
    },
}

fn put_ballot(buf: &mut impl Sink, b: Ballot) {
    put_u64(buf, b.num);
    put_u32(buf, b.pid);
}

fn get_ballot(r: &mut Reader) -> Option<Ballot> {
    let num = r.get_u64()?;
    let pid = r.get_u32()?;
    Some(Ballot::new(num, pid))
}

/// Encodes a WAL record. A first pass over a [`Count`] sizes the buffer, so
/// the bytes are written once and never moved by a regrow.
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut count = Count::default();
    put_record(&mut count, rec);
    let mut buf = Vec::with_capacity(count.0);
    put_record(&mut buf, rec);
    buf
}

fn put_record(buf: &mut impl Sink, rec: &WalRecord) {
    match rec {
        WalRecord::Promise { ballot } => {
            put_u32(buf, 1);
            put_ballot(buf, *ballot);
        }
        WalRecord::Accept { index, ballot, op } => {
            put_u32(buf, 2);
            put_u64(buf, *index as u64);
            put_ballot(buf, *ballot);
            put_op(buf, op);
        }
        WalRecord::Decide { index, op } => {
            put_u32(buf, 3);
            put_u64(buf, *index as u64);
            put_op(buf, op);
        }
        WalRecord::TxnDecision { key, value } => {
            put_u32(buf, 4);
            put_str(buf, key);
            put_str(buf, value);
        }
        WalRecord::Commit { index } => {
            put_u32(buf, 5);
            put_u64(buf, *index as u64);
        }
    }
}

/// Decodes a WAL record. The WAL hands recovery only CRC-valid records (a
/// torn tail ends the log before this is called), so `None` means the
/// writer and this decoder disagree on the format — [`Disk::restore`] panics.
fn decode_record(bytes: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(bytes);
    let rec = match r.get_u32()? {
        1 => WalRecord::Promise {
            ballot: get_ballot(&mut r)?,
        },
        2 => WalRecord::Accept {
            index: r.get_u64()? as usize,
            ballot: get_ballot(&mut r)?,
            op: get_op(&mut r)?,
        },
        3 => WalRecord::Decide {
            index: r.get_u64()? as usize,
            op: get_op(&mut r)?,
        },
        4 => WalRecord::TxnDecision {
            key: r.get_str()?,
            value: r.get_str()?,
        },
        5 => WalRecord::Commit {
            index: r.get_u64()? as usize,
        },
        _ => return None,
    };
    (r.remaining() == 0).then_some(rec)
}

/// Serializes a machine checkpoint into a fresh buffer, the bytes
/// [`Disk::checkpoint`] encodes straight into the engine's own.
pub fn encode_snapshot(machine: &DedupKvMachine, index: usize, term: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    snapshot_into(&mut buf, machine, index, term);
    buf
}

/// Writes a machine checkpoint into the empty `buf`: the state after the
/// entries up to `index`, whose entry had `term`. A first pass sizes it, as
/// for a WAL record: a megabyte checkpoint is written once, not copied at
/// every doubling.
fn snapshot_into(buf: &mut Vec<u8>, machine: &DedupKvMachine, index: usize, term: u64) {
    debug_assert!(buf.is_empty());
    let mut count = Count::default();
    put_snapshot(&mut count, machine, index, term);
    if buf.capacity() < count.0 {
        // Not `reserve`: a regrow would copy the last blob's stale bytes.
        *buf = Vec::with_capacity(count.0.max(2 * buf.capacity()));
    }
    put_snapshot(buf, machine, index, term);
}

fn put_snapshot(buf: &mut impl Sink, machine: &DedupKvMachine, index: usize, term: u64) {
    put_u64(buf, index as u64);
    put_u64(buf, term);
    put_machine(buf, machine);
}

/// Deserializes a checkpoint back into `(machine, index, term)`. The
/// restored machine's digest equals the snapshotted one bit-for-bit.
fn decode_snapshot(bytes: &[u8]) -> Option<(DedupKvMachine, usize, u64)> {
    let mut r = Reader::new(bytes);
    let index = r.get_u64()? as usize;
    let term = r.get_u64()?;
    let machine = get_machine(&mut r)?;
    (r.remaining() == 0).then_some((machine, index, term))
}

/// What a restarted replica replays after [`Disk::restore`] installed its
/// checkpoint: the index the checkpoint reflects and that entry's term (0
/// and 0 without one), and the WAL records after it in log order, the
/// decisions already tabled.
#[derive(Debug)]
pub struct Restored {
    /// The index the checkpointed machine reflects.
    pub index: usize,
    /// The term of the entry at `index`.
    pub term: u64,
    /// Every record synced after the checkpoint but the `TxnDecision`s.
    pub records: Vec<WalRecord>,
}

/// A log replica's durable side: an optional engine, its checkpoint
/// bookkeeping, what the last crash recovery cost and the transaction
/// decision table. With an engine attached, every state change a message
/// reveals goes to the WAL before the message leaves, checkpoints absorb
/// the applied prefix, and applied state is mirrored into the engine's
/// index; detached, the everything-in-RAM model.
#[derive(Debug)]
pub struct Disk {
    engine: Option<Box<dyn StorageEngine>>,
    /// Whether records were logged since the last sync.
    dirty: bool,
    /// Checkpoint every this-many newly applied entries; `usize::MAX` never.
    threshold: usize,
    /// Checkpoints this replica took itself.
    pub snapshots_taken: u64,
    /// Checkpoints installed from a peer (state transfer).
    pub snapshots_installed: u64,
    /// Device time on the clock when the last restart began.
    restart_io_us: u64,
    /// Floor restored by the most recent crash recovery (0 = none / cold).
    pub recovered_floor: usize,
    /// Records replayed from the WAL by the most recent recovery.
    pub last_recovery_replayed: u64,
    /// Disk time the most recent recovery charged (µs), re-mirroring the
    /// index included.
    pub last_recovery_io_us: u64,
    /// Transaction decision records (`~dec.<tid>` → `commit` / `abort`)
    /// this replica applied: logged as first-class WAL records, rebuilt on
    /// recovery from checkpoint + WAL without replaying the command history.
    txn_decisions: BTreeMap<Str, Str>,
    /// Decision records appended to the WAL over this replica's lifetime.
    pub txn_decisions_logged: u64,
}

impl Disk {
    /// Detached, checkpointing every `threshold` applied entries.
    pub fn new(threshold: usize) -> Self {
        Disk {
            engine: None,
            dirty: false,
            threshold,
            snapshots_taken: 0,
            snapshots_installed: 0,
            restart_io_us: 0,
            recovered_floor: 0,
            last_recovery_replayed: 0,
            last_recovery_io_us: 0,
            txn_decisions: BTreeMap::new(),
            txn_decisions_logged: 0,
        }
    }

    /// Attaches `engine` and checkpoints every `threshold` applied entries:
    /// the WAL-before-ack discipline, checkpointing and crash recovery all
    /// activate.
    pub fn attach(&mut self, threshold: usize, engine: impl StorageEngine + 'static) {
        self.set_snapshot_threshold(threshold);
        self.engine = Some(Box::new(engine));
    }

    /// Checkpoints (and compacts the log) every `threshold` applied entries,
    /// with or without an engine: a RAM replica still bounds its log.
    pub fn set_snapshot_threshold(&mut self, threshold: usize) {
        self.threshold = threshold.max(1);
    }

    /// Whether this replica checkpoints at all.
    pub fn compacts(&self) -> bool {
        self.threshold != usize::MAX
    }

    /// Whether a log applied to `applied` is a threshold past the last
    /// checkpoint at `floor`; counts the checkpoint the caller then takes.
    pub fn checkpoint_due(&mut self, applied: usize, floor: usize) -> bool {
        let due = applied.saturating_sub(floor) >= self.threshold;
        self.snapshots_taken += u64::from(due);
        due
    }

    /// The attached engine, if any.
    pub fn engine(&self) -> Option<&dyn StorageEngine> {
        self.engine.as_deref()
    }

    /// The attached engine, for reading its primary index. Records go
    /// through [`Disk::log`], which tracks what is unsynced.
    pub fn engine_mut(&mut self) -> Option<&mut (dyn StorageEngine + 'static)> {
        self.engine.as_deref_mut()
    }

    /// The attached engine's counters.
    pub fn stats(&self) -> Option<StorageStats> {
        self.engine().map(|e| e.stats())
    }

    /// This handle as the apply step's index, when an engine is attached.
    pub fn index(&mut self) -> Option<&mut Self> {
        self.engine.is_some().then_some(self)
    }

    /// The decision records this replica has applied.
    pub fn txn_decisions(&self) -> &BTreeMap<Str, Str> {
        &self.txn_decisions
    }

    /// Appends a protocol record to the WAL. Detached, `rec` is never
    /// called, so a RAM replica clones no op for it.
    pub fn log(&mut self, rec: impl FnOnce() -> WalRecord) {
        if let Some(engine) = self.engine.as_mut() {
            engine.log_record(&encode_record(&rec()));
            self.dirty = true;
        }
    }

    /// Group-commits everything logged since the last sync and charges the
    /// modeled device time to the handler's causal trace. A no-op — no
    /// flush, no span — when nothing is outstanding.
    pub fn sync<M: Payload>(&mut self, ctx: &mut Context<M>) {
        let Some(engine) = self.engine.as_mut().filter(|_| self.dirty) else {
            return;
        };
        self.dirty = false;
        let spent = engine.sync();
        if spent > 0 {
            ctx.charge_io("wal-sync", spent);
        }
    }

    /// Checkpoints: writes `machine`, the state after the entries up to
    /// `index` (whose entry had `term`), as the snapshot — which truncates
    /// the WAL — then re-logs the `live` records, the ones the snapshot does
    /// not absorb, and syncs. After this, recovery = snapshot load + WAL
    /// replay. Detached, nothing is encoded and `live` is never walked.
    pub fn checkpoint(
        &mut self,
        machine: &DedupKvMachine,
        index: usize,
        term: u64,
        live: impl IntoIterator<Item = WalRecord>,
    ) {
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        engine.write_snapshot_with(&mut |buf| snapshot_into(buf, machine, index, term));
        live.into_iter()
            .for_each(|rec| engine.log_record(&encode_record(&rec)));
        engine.sync();
        self.dirty = false;
    }

    /// Crash recovery's shared first step: drops the engine's volatile
    /// layers and the decision table, installs the checkpoint's machine into
    /// `log` and rebuilds the primary index from it (a fresh machine at 0
    /// without a checkpoint, the index untouched), then decodes every WAL
    /// record synced after it and tables each `TxnDecision`. The disk
    /// charges for every read. `None` when detached. The replica replays the
    /// records that come back — any its protocol does not write panics, as
    /// an undecodable one does — and then calls [`Disk::recovered`].
    pub fn restore(&mut self, log: &mut Log) -> Option<Restored> {
        let engine = self.engine.as_mut()?;
        self.restart_io_us = engine.stats().io_time_us;
        engine.crash();
        let recovery = engine.recover();
        self.dirty = false;
        self.txn_decisions.clear();
        self.last_recovery_replayed = recovery.records.len() as u64;
        let (machine, index, term) = match &recovery.snapshot {
            Some(blob) => decode_snapshot(blob).expect("checkpoint blob decodes"),
            None => Default::default(),
        };
        log.install(machine, index);
        if recovery.snapshot.is_some() {
            self.rebuild_index(log.machine().kv());
        }
        let mut records = Vec::with_capacity(recovery.records.len());
        for raw in &recovery.records {
            match decode_record(raw).expect("CRC-valid WAL record decodes") {
                WalRecord::TxnDecision { key, value } => {
                    self.txn_decisions.insert(key, value);
                }
                rec => records.push(rec),
            }
        }
        Some(Restored {
            index,
            term,
            records,
        })
    }

    /// Crash recovery, last step: records the checkpoint `floor` the replica
    /// restarted from and the device time spent since [`Disk::restore`]
    /// began, its replay included.
    pub fn recovered(&mut self, floor: usize) {
        let now = self.engine().map_or(0, |e| e.stats().io_time_us);
        self.recovered_floor = floor;
        self.last_recovery_io_us = now - self.restart_io_us;
    }

    /// The common half of a state transfer: `log` takes a peer's `machine`
    /// as the state of its first `floor` entries, the engine's index is
    /// rebuilt to hold exactly that state, and the install is counted. The
    /// caller then drops what the install absorbed and checkpoints.
    pub fn install(&mut self, log: &mut Log, machine: DedupKvMachine, floor: usize) {
        log.install(machine, floor);
        self.rebuild_index(log.machine().kv());
        self.snapshots_installed += 1;
    }

    /// The durable half of installing a whole machine state, which may land
    /// on a live index: rebuilds the primary index to hold exactly `kv`'s
    /// rows. One full scan finds the keys `kv` lacks and deletes them, in
    /// key order; then every row is upserted, in key order. The disk charges
    /// for all of it, which is the rebuild I/O recovery-time experiments
    /// measure. Then the decisions `kv` holds re-seed the decision table;
    /// WAL replay adds anything resolved after them.
    fn rebuild_index(&mut self, kv: &KvStore) {
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        let rows: BTreeMap<&str, &str> = kv.iter().map(|(k, v)| (&**k, &**v)).collect();
        for (stale, _) in engine.scan("", "\u{10FFFF}") {
            if !rows.contains_key(stale.as_str()) {
                engine.delete(&stale);
            }
        }
        for (key, value) in rows {
            engine.put(key, value);
        }
        let decisions = kv.txn_decisions().map(|(k, v)| (k.clone(), v.clone()));
        self.txn_decisions.extend(decisions);
    }

    fn engine_index(&mut self) -> &mut dyn StorageEngine {
        self.engine
            .as_deref_mut()
            .expect("only an attached handle is an index")
    }
}

/// The handle as the apply step's index: applied state is mirrored into the
/// engine, and a resolved decision is tabled and logged as a
/// [`WalRecord::TxnDecision`]. Only an attached handle is lent
/// ([`Disk::index`]).
impl PrimaryIndex for Disk {
    fn put(&mut self, key: &str, value: &str) {
        self.engine_index().put(key, value);
    }

    fn delete(&mut self, key: &str) {
        self.engine_index().delete(key);
    }

    fn scan(&mut self, start: &str, end: &str) -> Vec<(String, String)> {
        self.engine_index().scan(start, end)
    }

    fn log_decision(&mut self, key: &Str, value: &Str) {
        self.txn_decisions.insert(key.clone(), value.clone());
        self.txn_decisions_logged += 1;
        let (key, value) = (key.clone(), value.clone());
        self.log(|| WalRecord::TxnDecision { key, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Command, KvCommand, StateMachine};
    use simnet::{DiskModel, NetConfig, Node, NodeId, Sim};
    use storage::{DurableEngine, MemEngine};

    fn cmd(client: u32, seq: u64, op: KvCommand) -> Command<KvCommand> {
        Command { client, seq, op }
    }

    fn cas() -> SmrOp {
        SmrOp::Cmd(cmd(
            9,
            4,
            KvCommand::Cas {
                key: "k".into(),
                expect: "a".into(),
                new: "b".into(),
            },
        ))
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::Promise {
                ballot: Ballot::new(7, 2),
            },
            // Raft's term with no vote.
            WalRecord::Promise {
                ballot: Ballot::new(8, u32::MAX),
            },
            WalRecord::Accept {
                index: 42,
                ballot: Ballot::new(3, 1),
                op: cas(),
            },
            WalRecord::Accept {
                index: 1,
                ballot: Ballot::new(1, 0),
                op: SmrOp::Noop,
            },
            WalRecord::Decide {
                index: 0,
                op: SmrOp::Noop,
            },
            WalRecord::Decide {
                index: 5,
                op: SmrOp::Batch(vec![
                    cmd(
                        1,
                        1,
                        KvCommand::Put {
                            key: "x".into(),
                            value: "y".into(),
                        },
                    ),
                    cmd(2, 3, KvCommand::Get { key: "x".into() }),
                    cmd(2, 4, KvCommand::Delete { key: "x".into() }),
                    cmd(
                        3,
                        1,
                        KvCommand::Range {
                            start: "a".into(),
                            end: "q".into(),
                            limit: 16,
                        },
                    ),
                ]),
            },
            WalRecord::TxnDecision {
                key: "~dec.t100.3".into(),
                value: "commit".into(),
            },
            // This module's own two string fields, ≥ 4 KiB and multi-byte.
            WalRecord::TxnDecision {
                key: "".into(),
                value: "é✓\u{10FFFF}".repeat(1024).into(),
            },
            WalRecord::Commit { index: 40 },
        ];
        for rec in records {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[6, 0, 0, 0]), None, "unknown tag");
        for rec in [
            WalRecord::Promise {
                ballot: Ballot::ZERO,
            },
            WalRecord::Commit { index: 3 },
        ] {
            let mut bytes = encode_record(&rec);
            bytes.push(0);
            assert_eq!(decode_record(&bytes), None, "trailing bytes are corruption");
        }
    }

    #[test]
    fn snapshot_round_trips_digest_exactly() {
        let mut m = DedupKvMachine::default();
        for i in 0..20u32 {
            m.apply(&SmrOp::Cmd(cmd(
                i % 3,
                u64::from(i),
                KvCommand::Put {
                    key: format!("k{i}").into(),
                    value: format!("v{i}").into(),
                },
            )));
        }
        m.apply(&SmrOp::Cmd(cmd(0, 50, KvCommand::Get { key: "k1".into() })));
        m.apply(&SmrOp::Cmd(cmd(
            1,
            51,
            KvCommand::Cas {
                key: "k2".into(),
                expect: "nope".into(),
                new: "x".into(),
            },
        )));
        m.apply(&SmrOp::Cmd(cmd(
            2,
            52,
            KvCommand::Range {
                start: "k0".into(),
                end: "k3".into(),
                limit: 8,
            },
        )));
        let blob = encode_snapshot(&m, 23, 5);
        let (restored, index, term) = decode_snapshot(&blob).expect("decodes");
        assert_eq!((index, term), (23, 5));
        assert_eq!(restored.digest(), m.digest(), "digest must survive");
        assert_eq!(restored.kv().applied(), m.kv().applied());
        // Truncated blobs never half-decode.
        for cut in 0..blob.len() {
            assert!(decode_snapshot(&blob[..cut]).is_none(), "cut {cut}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The WAL and checkpoint formats are a contract with every disk image
    /// already written. Recorded when Multi-Paxos and Raft came to share one
    /// record set: a Multi-Paxos record and a Raft promise kept their bytes,
    /// a Raft append gained a pid word, a Multi-Paxos snapshot a term word.
    #[test]
    fn golden_bytes_pin_the_formats() {
        let record = |rec| hex(&encode_record(&rec));
        let accept = |pid| WalRecord::Accept {
            index: 42,
            ballot: Ballot::new(3, pid),
            op: cas(),
        };
        assert_eq!(
            record(accept(1)),
            "020000002a00000000000000030000000000000001000000010000000900000004000000\
             0000000003000000010000006b01000000610100000062"
        );
        assert_eq!(
            record(accept(0)),
            "020000002a00000000000000030000000000000000000000010000000900000004000000\
             0000000003000000010000006b01000000610100000062"
        );
        let promise = WalRecord::Promise {
            ballot: Ballot::new(7, u32::MAX),
        };
        assert_eq!(record(promise), "010000000700000000000000ffffffff");
        assert_eq!(
            record(WalRecord::TxnDecision {
                key: "~dec.t1".into(),
                value: "commit".into(),
            }),
            "04000000070000007e6465632e743106000000636f6d6d6974"
        );
        let commit = WalRecord::Commit { index: 40 };
        assert_eq!(record(commit), "050000002800000000000000");
        let mut m = DedupKvMachine::default();
        m.apply(&SmrOp::Cmd(cmd(
            1,
            1,
            KvCommand::Put {
                key: "x".into(),
                value: "y".into(),
            },
        )));
        m.apply(&SmrOp::Cmd(cmd(2, 3, KvCommand::Get { key: "x".into() })));
        assert_eq!(
            hex(&encode_snapshot(&m, 2, 7)),
            "020000000000000007000000000000000200000000000000010000000100000078010000\
             00790200000001000000010000000000000000000000020000000300000000000000020000000100000079"
        );
        assert_eq!(
            hex(&encode_snapshot(&m, 2, 0)),
            "020000000000000000000000000000000200000000000000010000000100000078010000\
             00790200000001000000010000000000000000000000020000000300000000000000020000000100000079"
        );
    }

    /// The counting pass sizes each buffer exactly: nothing is regrown, and
    /// nothing is left over.
    #[test]
    fn records_and_snapshots_are_encoded_into_buffers_sized_once() {
        let records = [
            WalRecord::Promise {
                ballot: Ballot::new(7, 2),
            },
            WalRecord::Accept {
                index: 42,
                ballot: Ballot::new(3, 1),
                op: cas(),
            },
            WalRecord::Decide {
                index: 5,
                op: SmrOp::Batch(vec![cmd(1, 1, KvCommand::Get { key: "x".into() }); 16]),
            },
            WalRecord::TxnDecision {
                key: "~dec.t1".into(),
                value: "commit".into(),
            },
            WalRecord::Commit { index: 40 },
        ];
        for rec in &records {
            let buf = encode_record(rec);
            assert_eq!(buf.capacity(), buf.len(), "{rec:?}");
        }
        let mut m = DedupKvMachine::default();
        for i in 0..1000u64 {
            m.apply(&SmrOp::Cmd(cmd(
                (i % 9) as u32,
                i,
                KvCommand::Put {
                    key: format!("key{i}").into(),
                    value: "v".repeat(100).into(),
                },
            )));
        }
        let blob = encode_snapshot(&m, 1000, 3);
        assert!(blob.len() > 100_000);
        assert_eq!(blob.capacity(), blob.len());
    }

    /// Recorded at the parent of the `Arc<str>` change, with `String`
    /// fields: empty and multi-byte strings, and both reply shapes that
    /// carry them, encode to the same bytes whatever owns the text.
    #[test]
    fn shared_strings_encode_to_the_bytes_owned_strings_did() {
        let c = |seq, op| Command { client: 1, seq, op };
        let cmds = vec![
            c(
                0,
                KvCommand::Put {
                    key: "".into(),
                    value: "é✓".into(),
                },
            ),
            c(1, KvCommand::Get { key: "".into() }),
            c(
                2,
                KvCommand::Range {
                    start: "".into(),
                    end: "\u{10FFFF}".into(),
                    limit: 3,
                },
            ),
        ];
        let rec = encode_record(&WalRecord::Decide {
            index: 5,
            op: SmrOp::Batch(cmds.clone()),
        });
        assert_eq!(
            hex(&rec),
            "0300000005000000000000000200000003000000010000000000000000000000000000000000000005000000c3a9e29c930100000001000000000000000100000000000000010000000200000000000000040000000000000004000000f48fbfbf0300000000000000"
        );
        let mut m = DedupKvMachine::default();
        m.apply(&SmrOp::Batch(cmds[..2].to_vec()));
        assert_eq!(
            hex(&encode_snapshot(&m, 1, 2)),
            "010000000000000002000000000000000200000000000000010000000000000005000000c3a9e29c93010000000100000001000000000000000200000005000000c3a9e29c93"
        );
        m.apply(&SmrOp::Batch(cmds[2..].to_vec()));
        assert_eq!(
            hex(&encode_snapshot(&m, 1, 2)),
            "010000000000000002000000000000000300000000000000010000000000000005000000c3a9e29c930100000001000000020000000000000004000000010000000000000005000000c3a9e29c93"
        );
    }

    /// A snapshot with one map entry and one cached reply: enough for a sweep
    /// to walk the header and reach into the shared machine body.
    fn small_snapshot() -> Vec<u8> {
        let mut m = DedupKvMachine::default();
        let (key, value) = ("a".into(), "v".into());
        m.apply(&SmrOp::Cmd(cmd(1, 1, KvCommand::Put { key, value })));
        encode_snapshot(&m, 4, 2)
    }

    fn gets(n: u32) -> SmrOp {
        SmrOp::from_batch(
            (0..n).map(|seq| cmd(1, u64::from(seq), KvCommand::Get { key: "k".into() })),
        )
    }

    /// `bytes` with the four bytes at `at` replaced by `word`.
    fn with_word(bytes: &[u8], at: usize, word: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        out
    }

    /// A count word is input: `0xFFFF_FFFF` items cannot fit in the bytes
    /// that follow it, and the decoder must say so (`None`) rather than
    /// reserve for them. The counts inside ops, replies and the machine body
    /// are `crate::codec`'s; these are the ones this module's own framing
    /// leads up to.
    #[test]
    fn decoders_reject_a_hostile_count_without_reserving_for_it() {
        // Index, term, kv applied, then the map's count: 28 bytes.
        let snapshot = small_snapshot();
        assert!(decode_snapshot(&snapshot).is_some());
        assert!(decode_snapshot(&with_word(&snapshot[..28], 24, u32::MAX)).is_none());
        // Tag, index, op tag, then the batch's count; an accept adds a ballot.
        let (index, op) = (5, gets(2));
        let ballot = Ballot::new(2, 0);
        for (rec, at) in [
            (
                WalRecord::Decide {
                    index,
                    op: op.clone(),
                },
                16,
            ),
            (WalRecord::Accept { index, ballot, op }, 28),
        ] {
            let bytes = encode_record(&rec);
            assert!(decode_record(&bytes).is_some());
            assert_eq!(decode_record(&with_word(&bytes, at, u32::MAX)), None);
        }
    }

    /// Every single-word corruption of each record and of a snapshot by a
    /// boundary value, at every offset: whichever tag, index, ballot, length
    /// or count the word lands on, the decoder must come back — `Some` or
    /// `None` — instead of aborting.
    #[test]
    fn decoders_survive_every_single_word_corruption_of_a_valid_encoding() {
        const WORDS: [u32; 5] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        let ballot = Ballot::new(3, 1);
        let (key, value) = ("~dec.t1".into(), "commit".into());
        let records = [
            WalRecord::Promise { ballot },
            WalRecord::Accept {
                index: 2,
                ballot,
                op: gets(3),
            },
            WalRecord::Decide {
                index: 2,
                op: gets(3),
            },
            WalRecord::TxnDecision { key, value },
            WalRecord::Commit { index: 2 },
        ];
        for bytes in records.iter().map(encode_record) {
            for at in 0..bytes.len() - 3 {
                for word in WORDS {
                    let _ = decode_record(&with_word(&bytes, at, word));
                }
            }
        }
        let snapshot = small_snapshot();
        for at in 0..snapshot.len() - 3 {
            for word in WORDS {
                let _ = decode_snapshot(&with_word(&snapshot, at, word));
            }
        }
    }

    #[derive(Clone, Debug)]
    struct Quiet;

    impl Payload for Quiet {
        fn kind(&self) -> &'static str {
            "quiet"
        }
    }

    /// A node that runs `script` over its handle once, inside a handler —
    /// the only place a `Context` exists.
    struct Probe {
        disk: Disk,
        script: fn(&mut Disk, &mut Context<Quiet>),
    }

    impl Node for Probe {
        type Msg = Quiet;

        fn on_start(&mut self, ctx: &mut Context<Quiet>) {
            (self.script)(&mut self.disk, ctx);
        }

        fn on_message(&mut self, _: &mut Context<Quiet>, _: NodeId, _: Quiet) {}
    }

    /// Runs `script` in a traced one-node simulation; returns the handle
    /// and the names of the spans the run recorded.
    fn probe(disk: Disk, script: fn(&mut Disk, &mut Context<Quiet>)) -> (Disk, Vec<String>) {
        let mut sim: Sim<Probe> = Sim::new(NetConfig::synchronous(), 1);
        sim.enable_tracing(1);
        let id = sim.add_node(Probe { disk, script });
        sim.run_for(1_000);
        let spans = sim.causal_spans().iter().map(|s| s.name.clone()).collect();
        let disk = std::mem::replace(&mut sim.node_mut(id).disk, Disk::new(usize::MAX));
        (disk, spans)
    }

    fn attached(engine: impl StorageEngine + 'static) -> Disk {
        let mut disk = Disk::new(usize::MAX);
        disk.attach(usize::MAX, engine);
        disk
    }

    fn commit(index: usize) -> WalRecord {
        WalRecord::Commit { index }
    }

    /// A log with one applied entry: what a detached restore must not touch.
    fn one_applied() -> Log {
        let mut log = Log::new();
        log.decide(0, SmrOp::Noop);
        log
    }

    #[test]
    fn a_detached_handle_builds_no_record_and_charges_nothing() {
        let (mut disk, spans) = probe(Disk::new(usize::MAX), |d, ctx| {
            d.log(|| unreachable!("no engine, no record"));
            d.checkpoint(
                &DedupKvMachine::default(),
                0,
                0,
                std::iter::from_fn(|| unreachable!("no engine, no live record")),
            );
            d.sync(ctx);
        });
        assert!(spans.is_empty(), "{spans:?}");
        let mut log = one_applied();
        assert!(disk.restore(&mut log).is_none() && disk.stats().is_none());
        assert_eq!(log.applied_len(), 1, "a detached restore installs nothing");
    }

    #[test]
    fn sync_flushes_and_charges_once_per_dirty_handler() {
        let engine = DurableEngine::new(DiskModel::ssd());
        let (disk, spans) = probe(attached(engine), |d, ctx| {
            // Nothing logged: no flush, no device time, no span.
            let idle = d.stats().expect("attached");
            d.sync(ctx);
            assert_eq!(d.stats().expect("attached"), idle);
            // Two records, one group commit, one charge; the second sync
            // finds nothing outstanding.
            d.log(|| commit(1));
            d.log(|| commit(2));
            d.sync(ctx);
            let io = d.stats().expect("attached").io_time_us;
            assert!(io > idle.io_time_us);
            d.sync(ctx);
            assert_eq!(d.stats().expect("attached").io_time_us, io);
        });
        assert_eq!(spans, ["wal-sync"]);
        let stats = disk.stats().expect("attached");
        assert_eq!((stats.wal_appends, stats.wal_flushes), (2, 1));
    }

    #[test]
    fn a_checkpoint_leaves_exactly_the_relogged_records_for_recovery() {
        let (mut disk, spans) = probe(attached(MemEngine::new()), |d, ctx| {
            d.log(|| commit(1));
            d.sync(ctx);
            d.log(|| commit(2)); // absorbed, never synced
            let live = [WalRecord::Promise {
                ballot: Ballot::new(3, 1),
            }];
            d.checkpoint(
                &DedupKvMachine::default(),
                4,
                2,
                live.into_iter().chain([commit(5)]),
            );
            // The checkpoint synced what it re-logged: nothing is dirty.
            d.sync(ctx);
        });
        assert!(spans.is_empty(), "a MemEngine charges no device time");
        let stats = disk.stats().expect("attached");
        assert_eq!((stats.snapshots_written, stats.wal_flushes), (1, 2));
        let restored = disk.restore(&mut Log::new()).expect("attached");
        assert_eq!((restored.index, restored.term), (4, 2));
        let promise = WalRecord::Promise {
            ballot: Ballot::new(3, 1),
        };
        assert_eq!(restored.records, [promise, commit(5)]);
    }

    #[test]
    fn rebuild_index_leaves_exactly_the_incoming_rows() {
        let mut disk = attached(MemEngine::new());
        let engine = disk.engine_mut().expect("attached");
        engine.put("stale", "x");
        engine.put("kept", "old");
        let mut machine = DedupKvMachine::default();
        for (seq, (key, value)) in [("kept", "new"), ("fresh", "y"), ("~dec.t1.0", "commit")]
            .into_iter()
            .enumerate()
        {
            let (key, value) = (key.into(), value.into());
            machine.apply(&SmrOp::Cmd(cmd(
                1,
                seq as u64,
                KvCommand::Put { key, value },
            )));
        }
        let mut log = Log::new();
        disk.install(&mut log, machine.clone(), 3);
        let rows = disk.engine_mut().expect("attached").scan("", "\u{10FFFF}");
        let want = [("fresh", "y"), ("kept", "new"), ("~dec.t1.0", "commit")]
            .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(rows, want);
        let decision: BTreeMap<Str, Str> = [("~dec.t1.0".into(), "commit".into())].into();
        assert_eq!(
            disk.txn_decisions(),
            &decision,
            "the state's decisions are tabled"
        );
        assert_eq!((log.applied_len(), disk.snapshots_installed), (3, 1));
        assert_eq!(log.machine().digest(), machine.digest());
        // Detached, there is no index to rebuild and no table to seed.
        let mut detached = Disk::new(usize::MAX);
        detached.install(&mut Log::new(), machine, 3);
        assert!(detached.txn_decisions().is_empty());
    }

    #[test]
    fn restart_reports_the_replay_count_and_io_delta_the_engine_shows() {
        let mut disk = attached(DurableEngine::new(DiskModel::ssd()));
        let (key, value): (Str, Str) = ("~dec.t1.0".into(), "commit".into());
        disk.index().expect("attached").log_decision(&key, &value);
        let decision = WalRecord::TxnDecision {
            key: key.clone(),
            value: value.clone(),
        };
        let live = [commit(1), decision];
        disk.checkpoint(&DedupKvMachine::default(), 0, 0, live);
        // A record and a decision, tabled and logged but never synced: the
        // crash loses both.
        disk.log(|| commit(2));
        let lost: Str = "~dec.t2.0".into();
        disk.index().expect("attached").log_decision(&lost, &value);
        assert_eq!(
            (disk.txn_decisions().len(), disk.txn_decisions_logged),
            (2, 2)
        );

        let before = disk.stats().expect("attached");
        let restored = disk.restore(&mut Log::new()).expect("attached");
        assert_eq!(restored.records, [commit(1)], "the unsynced record is gone");
        let synced: BTreeMap<Str, Str> = [(key, value)].into();
        assert_eq!(
            disk.txn_decisions(),
            &synced,
            "the table is cleared and rebuilt from disk only"
        );
        disk.recovered(7);

        let after = disk.stats().expect("attached");
        assert_eq!(disk.recovered_floor, 7);
        assert_eq!(disk.last_recovery_replayed, 2);
        assert_eq!(
            disk.last_recovery_replayed,
            after.records_replayed - before.records_replayed
        );
        assert_eq!(
            disk.last_recovery_io_us,
            after.io_time_us - before.io_time_us
        );
        assert!(disk.last_recovery_io_us > 0);
        assert_eq!(
            (disk.txn_decisions().len(), disk.txn_decisions_logged),
            (1, 2)
        );
    }

    /// The shared restore step: the checkpoint's machine and applied length
    /// land in the replica's log, its index and term come back and its rows
    /// are in the index; the WAL's decisions are tabled beside the
    /// checkpoint's, and every other record is handed back in order.
    /// Detached, there is nothing to restore.
    #[test]
    fn restore_tables_decisions_and_hands_back_the_other_records() {
        let mut machine = DedupKvMachine::default();
        let (key, value) = ("a".into(), "v".into());
        machine.apply(&SmrOp::Cmd(cmd(1, 1, KvCommand::Put { key, value })));
        let mut disk = attached(MemEngine::new());
        let (key, value): (Str, Str) = ("~dec.t1".into(), "commit".into());
        let records = [
            WalRecord::Promise {
                ballot: Ballot::new(3, 1),
            },
            WalRecord::TxnDecision {
                key: key.clone(),
                value: value.clone(),
            },
            commit(5),
        ];
        disk.checkpoint(&machine, 4, 2, records.clone());
        let mut log = one_applied();
        let restored = disk.restore(&mut log).expect("attached");
        assert_eq!((restored.index, restored.term), (4, 2));
        assert_eq!(log.machine().digest(), machine.digest());
        assert_eq!(log.applied_len(), 4);
        assert_eq!(restored.records, [records[0].clone(), records[2].clone()]);
        assert_eq!(disk.txn_decisions().get(&key), Some(&value));
        let rows = disk.engine_mut().expect("attached").scan("", "\u{10FFFF}");
        assert_eq!(rows, [("a".to_string(), "v".to_string())]);
    }

    proptest::proptest! {
        /// Arbitrary bytes — word soup biased towards small tags and counts,
        /// so decoding gets past the first match arm — never panic a decoder.
        #[test]
        fn prop_decoders_survive_arbitrary_bytes(
            words in proptest::collection::vec((0u8..4, 0u32..=u32::MAX), 0..24),
            tail in proptest::collection::vec(0u8..=255, 0..4),
        ) {
            let mut bytes = Vec::new();
            for (kind, word) in words {
                put_u32(&mut bytes, if kind == 0 { word } else { word % 7 });
            }
            bytes.extend(tail);
            let _ = decode_record(&bytes);
            let _ = decode_snapshot(&bytes);
        }
    }
}
