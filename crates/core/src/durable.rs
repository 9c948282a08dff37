//! The replicated log's durable format, written once for Multi-Paxos and
//! Raft: one set of WAL records, one snapshot header, one restore step, and
//! the engine handle as the apply step's [`PrimaryIndex`]. The two protocols
//! differ in their phases, not in what a replica must remember: a promise,
//! the entries it accepted, what it learned was decided, and the
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
//! A replica logs a record *before* the externally visible action it
//! justifies — a promise or vote before its answer, an accept or append
//! before its acknowledgement, a decision before applying — and syncs in the
//! same handler, so one flush group-commits everything a message triggered
//! (the contract is [`storage::Durable`]'s). Raft has one leader per term, so
//! an append's ballot carries no pid; a conflicting suffix needs no record of
//! its own, because replaying an append drops every entry at and above its
//! index. `Commit` is a recovery accelerator, not a safety requirement: it
//! lets a restarted Raft replica re-apply to its old frontier without waiting
//! for a leader round-trip.
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

use storage::{Durable, StorageEngine};

use crate::codec::{
    get_machine, get_op, put_machine, put_op, put_str, put_u32, put_u64, Count, Reader, Sink,
};
use crate::{Ballot, DedupKvMachine, PrimaryIndex, SmrOp, Str};

/// The engine handle as the apply step's index: applied state is mirrored
/// into the engine, and a resolved decision is tabled and logged as a
/// [`WalRecord::TxnDecision`]. Only an attached handle is lent ([`index`]).
impl PrimaryIndex for Durable {
    fn put(&mut self, key: &str, value: &str) {
        engine(self).put(key, value);
    }

    fn delete(&mut self, key: &str) {
        engine(self).delete(key);
    }

    fn scan(&mut self, start: &str, end: &str) -> Vec<(String, String)> {
        engine(self).scan(start, end)
    }

    fn log_decision(&mut self, key: &Str, value: &Str) {
        let (k, v) = (key.clone(), value.clone());
        let record = encode_record(&WalRecord::TxnDecision { key: k, value: v });
        Durable::log_decision(self, key, value, record);
    }
}

fn engine(durable: &mut Durable) -> &mut dyn StorageEngine {
    durable
        .engine_mut()
        .expect("only an attached handle is an index")
}

/// `durable` as the apply step's index, when an engine is attached.
pub fn index(durable: &mut Durable) -> Option<&mut Durable> {
    durable.engine().is_some().then_some(durable)
}

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
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
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
/// writer and this decoder disagree on the format — [`restore`] panics.
pub fn decode_record(bytes: &[u8]) -> Option<WalRecord> {
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

/// Serializes a machine checkpoint: the state after the entries up to
/// `index`, whose entry had `term`. Sized by a first pass, as
/// [`encode_record`] is: a megabyte checkpoint is written once, not copied
/// at every doubling.
pub fn encode_snapshot(machine: &DedupKvMachine, index: usize, term: u64) -> Vec<u8> {
    let mut count = Count::default();
    put_snapshot(&mut count, machine, index, term);
    let mut buf = Vec::with_capacity(count.0);
    put_snapshot(&mut buf, machine, index, term);
    buf
}

fn put_snapshot(buf: &mut impl Sink, machine: &DedupKvMachine, index: usize, term: u64) {
    put_u64(buf, index as u64);
    put_u64(buf, term);
    put_machine(buf, machine);
}

/// Deserializes a checkpoint back into `(machine, index, term)`. The
/// restored machine's digest equals the snapshotted one bit-for-bit.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(DedupKvMachine, usize, u64)> {
    let mut r = Reader::new(bytes);
    let index = r.get_u64()? as usize;
    let term = r.get_u64()?;
    let machine = get_machine(&mut r)?;
    (r.remaining() == 0).then_some((machine, index, term))
}

/// What a restarted replica rebuilds its state from: the checkpoint's
/// machine, the index it reflects and that entry's term (a fresh machine at
/// 0 without a checkpoint), and the WAL records after it in log order, the
/// decisions already tabled.
#[derive(Debug)]
pub struct Restored {
    /// The checkpointed machine.
    pub machine: DedupKvMachine,
    /// The index the machine reflects.
    pub index: usize,
    /// The term of the entry at `index`.
    pub term: u64,
    /// Every record synced after the checkpoint but the `TxnDecision`s.
    pub records: Vec<WalRecord>,
}

/// Crash recovery's shared first step: [`Durable::restart`], then the
/// checkpoint decoded and the primary index rebuilt from its machine, then
/// every WAL record decoded and each `TxnDecision` tabled. `None` when
/// detached. The replica installs what comes back, replays the records its
/// protocol writes — any other panics, as an undecodable one does — and
/// then calls [`Durable::recovered`].
pub fn restore(durable: &mut Durable) -> Option<Restored> {
    let recovery = durable.restart()?;
    let (machine, index, term) = match recovery.snapshot {
        Some(blob) => {
            let snapshot = decode_snapshot(&blob).expect("checkpoint blob decodes");
            let kv = snapshot.0.kv();
            durable.rebuild_index(kv.iter(), kv.txn_decisions());
            snapshot
        }
        None => (DedupKvMachine::default(), 0, 0),
    };
    let mut records = Vec::with_capacity(recovery.records.len());
    for raw in &recovery.records {
        match decode_record(raw).expect("CRC-valid WAL record decodes") {
            WalRecord::TxnDecision { key, value } => durable.note_decisions([(&key, &value)]),
            rec => records.push(rec),
        }
    }
    Some(Restored {
        machine,
        index,
        term,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Command, KvCommand, StateMachine};

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

    /// The shared restore step: the checkpoint's machine, index and term
    /// come back and its rows are in the index; the WAL's decisions are
    /// tabled beside the checkpoint's, and every other record is handed back
    /// in order. Detached, there is nothing to restore.
    #[test]
    fn restore_tables_decisions_and_hands_back_the_other_records() {
        assert!(restore(&mut Durable::default()).is_none());
        let mut machine = DedupKvMachine::default();
        let (key, value) = ("a".into(), "v".into());
        machine.apply(&SmrOp::Cmd(cmd(1, 1, KvCommand::Put { key, value })));
        let mut durable = Durable::default();
        durable.attach(Box::new(storage::MemEngine::new()));
        let (key, value): (Str, Str) = ("~dec.t1".into(), "commit".into());
        let records = [
            WalRecord::Promise {
                ballot: Ballot::new(3, 1),
            },
            WalRecord::TxnDecision {
                key: key.clone(),
                value: value.clone(),
            },
            WalRecord::Commit { index: 5 },
        ];
        durable.checkpoint(
            || encode_snapshot(&machine, 4, 2),
            records.iter().map(encode_record),
        );
        let restored = restore(&mut durable).expect("attached");
        assert_eq!((restored.index, restored.term), (4, 2));
        assert_eq!(restored.machine.digest(), machine.digest());
        assert_eq!(restored.records, [records[0].clone(), records[2].clone()]);
        assert_eq!(durable.txn_decisions().get(&key), Some(&value));
        let rows = engine(&mut durable).scan("", "\u{10FFFF}");
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
