//! On-disk formats for durable Raft: this protocol's WAL records and the
//! header of its snapshot. Ops, commands, replies and the machine body are
//! the SMR shell's types and encode through [`consensus_core::codec`], the
//! same bytes Multi-Paxos writes; the records around them carry Raft's own
//! persistent state.
//!
//! ## WAL records
//!
//! | tag | record | payload |
//! |---|---|---|
//! | 1 | `HardState` | `current_term: u64`, `voted_for: u32` (`MAX` = none) |
//! | 2 | `Append` | absolute index `u64`, entry (term + op) |
//! | 3 | `Truncate` | first absolute index dropped `u64` |
//! | 4 | `Commit` | commit index `u64` |
//! | 5 | `TxnDecision` | key `str`, value `str` |
//!
//! Figure 2 of the Raft paper marks `currentTerm`, `votedFor`, and `log[]`
//! persistent: the replica logs a `HardState` whenever term or vote
//! changes and an `Append`/`Truncate` whenever the log does, and syncs
//! before the externally visible message each change justifies — a vote
//! before the `VoteResponse`, an append before the `AppendResponse` (or,
//! on the leader, before the entry is replicated); the contract is
//! [`storage::Durable`]'s. `Commit` records are an optimization, not a
//! safety requirement (Raft's commit index is volatile): replaying them
//! lets a restarted replica re-apply to its old frontier without waiting
//! for a leader round-trip.
//!
//! `TxnDecision` carries the store's WAL-before-decision discipline: when
//! an applied entry resolves a 2PC decision record (`~dec.<tid>`), the
//! replica logs the resolved `(key, value)` as its own record and syncs
//! before the reply that releases the transaction leaves.
//!
//! ## Snapshot blob
//!
//! `last_included_index`, `last_included_term`, then the
//! [`DedupKvMachine`] body ([`consensus_core::codec::put_machine`]). The
//! index is the one the machine reflects: the machine is the state after
//! applying exactly the entries up to it, which is what a restarted replica
//! installs it as. Restoring must reproduce the machine digest bit-for-bit
//! — the nemesis fingerprint oracle depends on it.

use consensus_core::codec::{
    get_machine, get_op, put_machine, put_op, put_str, put_u32, put_u64, Reader,
};
use consensus_core::{DedupKvMachine, PrimaryIndex, Str};
use simnet::NodeId;
use storage::{Durable, StorageEngine};

use crate::msg::Entry;

/// The engine handle as the shared apply step's [`PrimaryIndex`]: resolved
/// decisions go to the WAL as [`WalRecord::TxnDecision`].
pub(crate) struct Index<'a>(&'a mut Durable);

impl<'a> Index<'a> {
    /// `durable` as an index, when an engine is attached.
    pub(crate) fn of(durable: &'a mut Durable) -> Option<Self> {
        durable.engine().is_some().then_some(Index(durable))
    }

    fn engine(&mut self) -> &mut dyn StorageEngine {
        self.0.engine_mut().expect("attached")
    }
}

impl PrimaryIndex for Index<'_> {
    fn put(&mut self, key: &str, value: &str) {
        self.engine().put(key, value);
    }

    fn delete(&mut self, key: &str) {
        self.engine().delete(key);
    }

    fn scan(&mut self, start: &str, end: &str) -> Vec<(String, String)> {
        self.engine().scan(start, end)
    }

    fn log_decision(&mut self, key: &Str, value: &Str) {
        let (k, v) = (key.clone(), value.clone());
        let record = encode_record(&WalRecord::TxnDecision { key: k, value: v });
        self.0.log_decision(key, value, record);
    }
}

/// Sentinel for `voted_for: None` on the wire.
const NO_VOTE: u32 = u32::MAX;

/// WAL record decoded back from bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Term and vote changed: both persist atomically (Figure 2).
    HardState {
        /// Latest term this server has seen.
        term: u64,
        /// Candidate voted for in that term.
        voted_for: Option<NodeId>,
    },
    /// An entry was appended at an absolute index.
    Append {
        /// Absolute log index.
        index: usize,
        /// The entry.
        entry: Entry,
    },
    /// Conflicting suffix dropped: entries at `from` and above are gone.
    Truncate {
        /// First absolute index dropped.
        from: usize,
    },
    /// The commit index advanced (recovery accelerator, not safety).
    Commit {
        /// New commit index.
        index: usize,
    },
    /// An applied entry resolved a transaction decision record: persisted
    /// *before* the releasing reply leaves (WAL-before-decision).
    TxnDecision {
        /// The decision key (`~dec.<tid>`).
        key: Str,
        /// The resolved decision value (`commit` / `abort`).
        value: Str,
    },
}

fn put_entry(buf: &mut Vec<u8>, entry: &Entry) {
    put_u64(buf, entry.term);
    put_op(buf, &entry.op);
}

fn get_entry(r: &mut Reader) -> Option<Entry> {
    Some(Entry {
        term: r.get_u64()?,
        op: get_op(r)?,
    })
}

/// Encodes a WAL record.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        WalRecord::HardState { term, voted_for } => {
            put_u32(&mut buf, 1);
            put_u64(&mut buf, *term);
            put_u32(&mut buf, voted_for.map_or(NO_VOTE, |n| n.0));
        }
        WalRecord::Append { index, entry } => {
            put_u32(&mut buf, 2);
            put_u64(&mut buf, *index as u64);
            put_entry(&mut buf, entry);
        }
        WalRecord::Truncate { from } => {
            put_u32(&mut buf, 3);
            put_u64(&mut buf, *from as u64);
        }
        WalRecord::Commit { index } => {
            put_u32(&mut buf, 4);
            put_u64(&mut buf, *index as u64);
        }
        WalRecord::TxnDecision { key, value } => {
            put_u32(&mut buf, 5);
            put_str(&mut buf, key);
            put_str(&mut buf, value);
        }
    }
    buf
}

/// Decodes a WAL record. The WAL hands recovery only CRC-valid records (a
/// torn tail ends the log before this is called), so `None` means the
/// writer and this decoder disagree on the format — callers panic.
pub fn decode_record(bytes: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(bytes);
    let rec = match r.get_u32()? {
        1 => WalRecord::HardState {
            term: r.get_u64()?,
            voted_for: match r.get_u32()? {
                NO_VOTE => None,
                n => Some(NodeId(n)),
            },
        },
        2 => WalRecord::Append {
            index: r.get_u64()? as usize,
            entry: get_entry(&mut r)?,
        },
        3 => WalRecord::Truncate {
            from: r.get_u64()? as usize,
        },
        4 => WalRecord::Commit {
            index: r.get_u64()? as usize,
        },
        5 => WalRecord::TxnDecision {
            key: r.get_str()?,
            value: r.get_str()?,
        },
        _ => return None,
    };
    (r.remaining() == 0).then_some(rec)
}

/// Serializes a machine checkpoint covering the log through
/// `last_included_index` (whose entry had `last_included_term`).
pub fn encode_snapshot(
    machine: &DedupKvMachine,
    last_included_index: usize,
    last_included_term: u64,
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, last_included_index as u64);
    put_u64(&mut buf, last_included_term);
    put_machine(&mut buf, machine);
    buf
}

/// Deserializes a checkpoint back into
/// `(machine, last_included_index, last_included_term)`. The restored
/// machine's digest equals the snapshotted one bit-for-bit.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(DedupKvMachine, usize, u64)> {
    let mut r = Reader::new(bytes);
    let last_included_index = r.get_u64()? as usize;
    let last_included_term = r.get_u64()?;
    let machine = get_machine(&mut r)?;
    (r.remaining() == 0).then_some((machine, last_included_index, last_included_term))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::{Command, KvCommand, SmrOp, StateMachine};

    fn cmd(client: u32, seq: u64, op: KvCommand) -> SmrOp {
        SmrOp::Cmd(Command { client, seq, op })
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::HardState {
                term: 7,
                voted_for: Some(NodeId(2)),
            },
            WalRecord::HardState {
                term: 8,
                voted_for: None,
            },
            WalRecord::Append {
                index: 42,
                entry: Entry {
                    term: 7,
                    op: cmd(
                        9,
                        4,
                        KvCommand::Cas {
                            key: "k".into(),
                            expect: "a".into(),
                            new: "b".into(),
                        },
                    ),
                },
            },
            WalRecord::Append {
                index: 1,
                entry: Entry {
                    term: 1,
                    op: SmrOp::Noop,
                },
            },
            WalRecord::Append {
                index: 3,
                entry: Entry {
                    term: 2,
                    op: cmd(
                        1,
                        6,
                        KvCommand::Range {
                            start: "a".into(),
                            end: "q".into(),
                            limit: 16,
                        },
                    ),
                },
            },
            WalRecord::Append {
                index: 4,
                entry: Entry {
                    term: 2,
                    op: SmrOp::Batch(vec![
                        Command {
                            client: 2,
                            seq: 3,
                            op: KvCommand::Get { key: "x".into() },
                        },
                        Command {
                            client: 2,
                            seq: 4,
                            op: KvCommand::Delete { key: "x".into() },
                        },
                    ]),
                },
            },
            WalRecord::Truncate { from: 17 },
            WalRecord::Commit { index: 40 },
            WalRecord::TxnDecision {
                key: "~dec.t100.3".into(),
                value: "commit".into(),
            },
            // This module's own two string fields, ≥ 4 KiB and multi-byte.
            WalRecord::TxnDecision {
                key: "".into(),
                value: "é✓\u{10FFFF}".repeat(1024).into(),
            },
        ];
        for rec in records {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[9, 0, 0, 0]), None, "unknown tag");
        let mut ok = encode_record(&WalRecord::Commit { index: 3 });
        ok.push(0);
        assert_eq!(decode_record(&ok), None, "trailing bytes are corruption");
    }

    #[test]
    fn snapshot_round_trips_digest_exactly() {
        let mut m = DedupKvMachine::default();
        for i in 0..20u32 {
            m.apply(&cmd(
                i % 3,
                u64::from(i),
                KvCommand::Put {
                    key: format!("k{i}").into(),
                    value: format!("v{i}").into(),
                },
            ));
        }
        m.apply(&cmd(0, 50, KvCommand::Get { key: "k1".into() }));
        m.apply(&cmd(
            1,
            51,
            KvCommand::Cas {
                key: "k2".into(),
                expect: "nope".into(),
                new: "x".into(),
            },
        ));
        m.apply(&cmd(
            2,
            52,
            KvCommand::Range {
                start: "k0".into(),
                end: "k3".into(),
                limit: 8,
            },
        ));
        let blob = encode_snapshot(&m, 23, 5);
        let (restored, idx, term) = decode_snapshot(&blob).expect("decodes");
        assert_eq!((idx, term), (23, 5));
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
    /// already written; these bytes were recorded before `SmrOp` grew its
    /// `Batch` variant.
    #[test]
    fn golden_bytes_pin_the_formats() {
        let append = encode_record(&WalRecord::Append {
            index: 42,
            entry: Entry {
                term: 7,
                op: cmd(
                    9,
                    4,
                    KvCommand::Cas {
                        key: "k".into(),
                        expect: "a".into(),
                        new: "b".into(),
                    },
                ),
            },
        });
        assert_eq!(
            hex(&append),
            "020000002a00000000000000070000000000000001000000090000000400000000000000\
             03000000010000006b01000000610100000062"
        );
        let mut m = DedupKvMachine::default();
        m.apply(&cmd(
            1,
            1,
            KvCommand::Put {
                key: "x".into(),
                value: "y".into(),
            },
        ));
        m.apply(&cmd(2, 3, KvCommand::Get { key: "x".into() }));
        assert_eq!(
            hex(&encode_snapshot(&m, 2, 7)),
            "020000000000000007000000000000000200000000000000010000000100000078010000\
             00790200000001000000010000000000000000000000020000000300000000000000020000000100000079"
        );
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
        let rec = encode_record(&WalRecord::Append {
            index: 5,
            entry: Entry {
                term: 2,
                op: SmrOp::Batch(cmds.clone()),
            },
        });
        assert_eq!(
            hex(&rec),
            "02000000050000000000000002000000000000000200000003000000010000000000000000000000000000000000000005000000c3a9e29c930100000001000000000000000100000000000000010000000200000000000000040000000000000004000000f48fbfbf0300000000000000"
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
        m.apply(&cmd(1, 1, KvCommand::Put { key, value }));
        encode_snapshot(&m, 4, 2)
    }

    fn gets(n: u32) -> Entry {
        let op = SmrOp::from_batch((0..n).map(|seq| Command {
            client: 1,
            seq: u64::from(seq),
            op: KvCommand::Get { key: "k".into() },
        }));
        Entry { term: 2, op }
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
    /// are `consensus_core::codec`'s; these are the two this module's own
    /// framing leads up to.
    #[test]
    fn decoders_reject_a_hostile_count_without_reserving_for_it() {
        // Index, term, kv applied, then the map's count: 28 bytes.
        let snapshot = small_snapshot();
        assert!(decode_snapshot(&snapshot).is_some());
        assert!(decode_snapshot(&with_word(&snapshot[..28], 24, u32::MAX)).is_none());
        // tag, index, term, op tag, then the batch's count.
        let record = encode_record(&WalRecord::Append {
            index: 5,
            entry: gets(2),
        });
        assert!(decode_record(&record).is_some());
        assert_eq!(decode_record(&with_word(&record, 24, u32::MAX)), None);
    }

    /// Every single-word corruption of this module's records and snapshot by
    /// a boundary value, at every offset: whichever tag, index, term, vote,
    /// length or count the word lands on, the decoder must come back —
    /// `Some` or `None` — instead of aborting.
    #[test]
    fn decoders_survive_every_single_word_corruption_of_a_valid_encoding() {
        const WORDS: [u32; 5] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        let (key, value) = ("~dec.t1".into(), "commit".into());
        let records = [
            WalRecord::HardState {
                term: 2,
                voted_for: Some(NodeId(1)),
            },
            WalRecord::Append {
                index: 2,
                entry: gets(3),
            },
            WalRecord::Truncate { from: 2 },
            WalRecord::Commit { index: 2 },
            WalRecord::TxnDecision { key, value },
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
                put_u32(&mut bytes, if kind == 0 { word } else { word % 6 });
            }
            bytes.extend(tail);
            let _ = decode_record(&bytes);
            let _ = decode_snapshot(&bytes);
        }
    }
}
