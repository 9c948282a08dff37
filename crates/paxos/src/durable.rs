//! On-disk formats for durable Multi-Paxos: this protocol's WAL records and
//! the header of its snapshot. Ops, commands, replies and the machine body
//! are the SMR shell's types and encode through [`consensus_core::codec`],
//! the same bytes Raft writes; every byte is explicit, which also keeps the
//! WAL record format table in the generated docs honest.
//!
//! ## WAL records
//!
//! | tag | record | payload |
//! |---|---|---|
//! | 1 | `Promise` | ballot `(num: u64, pid: u32)` |
//! | 2 | `Accept` | index `u64`, ballot, op |
//! | 3 | `Decide` | index `u64`, op |
//! | 4 | `TxnDecision` | key `str`, value `str` |
//!
//! The replica logs a record *before* the externally visible action it
//! justifies — promise before `PrepareAck`, accept before `Accepted`,
//! decide before applying — and syncs in the same handler, so one flush
//! group-commits everything a message triggered (the contract is
//! [`storage::Durable`]'s).
//!
//! `TxnDecision` is the store's WAL-before-decision discipline made
//! explicit: when an applied slot resolves a 2PC decision record
//! (`~dec.<tid>`), the coordinator-shard replica additionally logs the
//! resolved `(key, value)` as its own first-class record and syncs before
//! the reply that releases the transaction leaves. On recovery these
//! records (plus any decision entries in the snapshot) rebuild a dedicated
//! decision table, so a restarted replica can answer "what did `tid`
//! decide?" without replaying the whole command history.
//!
//! ## Snapshot blob
//!
//! `applied_len`, then the [`DedupKvMachine`] body
//! ([`consensus_core::codec::put_machine`]). Restoring must reproduce the
//! machine digest bit-for-bit — the nemesis fingerprint oracle depends on it.

use consensus_core::codec::{
    get_machine, get_op, put_machine, put_op, put_str, put_u32, put_u64, Reader,
};
use consensus_core::{Ballot, DedupKvMachine, PrimaryIndex, SmrOp, Str};
use storage::{Durable, StorageEngine};

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

/// WAL record decoded back from bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A promise was made: never accept lower ballots again.
    Promise {
        /// The promised ballot.
        ballot: Ballot,
    },
    /// An op was accepted for a slot under a ballot.
    Accept {
        /// Log index.
        index: usize,
        /// Accepting ballot.
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
    /// An applied slot resolved a transaction decision record: the
    /// coordinator shard persists the outcome as a first-class WAL entry
    /// *before* the releasing reply leaves (WAL-before-decision).
    TxnDecision {
        /// The decision key (`~dec.<tid>`).
        key: Str,
        /// The resolved decision value (`commit` / `abort`).
        value: Str,
    },
}

fn put_ballot(buf: &mut Vec<u8>, b: Ballot) {
    put_u64(buf, b.num);
    put_u32(buf, b.pid);
}

fn get_ballot(r: &mut Reader) -> Option<Ballot> {
    let num = r.get_u64()?;
    let pid = r.get_u32()?;
    Some(Ballot::new(num, pid))
}

/// Encodes a WAL record.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        WalRecord::Promise { ballot } => {
            put_u32(&mut buf, 1);
            put_ballot(&mut buf, *ballot);
        }
        WalRecord::Accept { index, ballot, op } => {
            put_u32(&mut buf, 2);
            put_u64(&mut buf, *index as u64);
            put_ballot(&mut buf, *ballot);
            put_op(&mut buf, op);
        }
        WalRecord::Decide { index, op } => {
            put_u32(&mut buf, 3);
            put_u64(&mut buf, *index as u64);
            put_op(&mut buf, op);
        }
        WalRecord::TxnDecision { key, value } => {
            put_u32(&mut buf, 4);
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
        _ => return None,
    };
    (r.remaining() == 0).then_some(rec)
}

/// Serializes a machine checkpoint: the state after `applied_len` entries.
pub fn encode_snapshot(machine: &DedupKvMachine, applied_len: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, applied_len as u64);
    put_machine(&mut buf, machine);
    buf
}

/// Deserializes a checkpoint back into `(machine, applied_len)`. The
/// restored machine's digest equals the snapshotted one bit-for-bit.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(DedupKvMachine, usize)> {
    let mut r = Reader::new(bytes);
    let applied_len = r.get_u64()? as usize;
    let machine = get_machine(&mut r)?;
    (r.remaining() == 0).then_some((machine, applied_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::{Command, KvCommand, StateMachine};

    fn cmd(client: u32, seq: u64, op: KvCommand) -> Command<KvCommand> {
        Command { client, seq, op }
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::Promise {
                ballot: Ballot::new(7, 2),
            },
            WalRecord::Accept {
                index: 42,
                ballot: Ballot::new(3, 1),
                op: SmrOp::Cmd(cmd(
                    9,
                    4,
                    KvCommand::Cas {
                        key: "k".into(),
                        expect: "a".into(),
                        new: "b".into(),
                    },
                )),
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
        let mut ok = encode_record(&WalRecord::Promise {
            ballot: Ballot::ZERO,
        });
        ok.push(0);
        assert_eq!(decode_record(&ok), None, "trailing bytes are corruption");
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
        let blob = encode_snapshot(&m, 23);
        let (restored, applied_len) = decode_snapshot(&blob).expect("decodes");
        assert_eq!(applied_len, 23);
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

    /// Bytes recorded before `put_command` stopped re-tagging through a
    /// temporary buffer: the WAL and checkpoint formats are a contract with
    /// every disk image already written.
    #[test]
    fn golden_bytes_pin_the_formats() {
        let accept = encode_record(&WalRecord::Accept {
            index: 42,
            ballot: Ballot::new(3, 1),
            op: SmrOp::Cmd(cmd(
                9,
                4,
                KvCommand::Cas {
                    key: "k".into(),
                    expect: "a".into(),
                    new: "b".into(),
                },
            )),
        });
        assert_eq!(
            hex(&accept),
            "020000002a00000000000000030000000000000001000000010000000900000004000000\
             0000000003000000010000006b01000000610100000062"
        );
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
            hex(&encode_snapshot(&m, 2)),
            "020000000000000002000000000000000100000001000000780100000079020000000100\
             0000010000000000000000000000020000000300000000000000020000000100000079"
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
            hex(&encode_snapshot(&m, 1)),
            "01000000000000000200000000000000010000000000000005000000c3a9e29c93010000000100000001000000000000000200000005000000c3a9e29c93"
        );
        m.apply(&SmrOp::Batch(cmds[2..].to_vec()));
        assert_eq!(
            hex(&encode_snapshot(&m, 1)),
            "01000000000000000300000000000000010000000000000005000000c3a9e29c930100000001000000020000000000000004000000010000000000000005000000c3a9e29c93"
        );
    }

    /// A snapshot with one map entry and one cached reply: enough for a sweep
    /// to walk the header and reach into the shared machine body.
    fn small_snapshot() -> Vec<u8> {
        let mut m = DedupKvMachine::default();
        let (key, value) = ("a".into(), "v".into());
        m.apply(&SmrOp::Cmd(cmd(1, 1, KvCommand::Put { key, value })));
        encode_snapshot(&m, 4)
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
    /// are `consensus_core::codec`'s; these are the two this module's own
    /// framing leads up to.
    #[test]
    fn decoders_reject_a_hostile_count_without_reserving_for_it() {
        // applied_len, kv applied, then the map's count: 20 bytes.
        let snapshot = small_snapshot();
        assert!(decode_snapshot(&snapshot).is_some());
        assert!(decode_snapshot(&with_word(&snapshot[..20], 16, u32::MAX)).is_none());
        // tag, index, op tag, then the batch's count.
        let record = encode_record(&WalRecord::Decide {
            index: 5,
            op: gets(2),
        });
        assert!(decode_record(&record).is_some());
        assert_eq!(decode_record(&with_word(&record, 16, u32::MAX)), None);
    }

    /// Every single-word corruption of this module's records and snapshot by
    /// a boundary value, at every offset: whichever tag, index, ballot,
    /// length or count the word lands on, the decoder must come back —
    /// `Some` or `None` — instead of aborting.
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
