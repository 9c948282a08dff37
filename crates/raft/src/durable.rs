//! On-disk formats for durable Raft: WAL records and machine snapshots,
//! hand-encoded via [`storage::codec`] (the workspace has no serde derive —
//! every byte here is explicit). Ops, commands, replies and the machine
//! checkpoint encode exactly as in `paxos::durable`; the records around
//! them carry Raft's own persistent state.
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
//! changes and an `Append`/`Truncate` whenever the log does, and `sync`s
//! before the externally visible message each change justifies — a vote
//! before the `VoteResponse`, an append before the `AppendResponse` (or,
//! on the leader, before the entry is replicated). `Commit` records are an
//! optimization, not a safety requirement (Raft's commit index is
//! volatile): replaying them lets a restarted replica re-apply to its old
//! frontier without waiting for a leader round-trip.
//!
//! `TxnDecision` carries the store's WAL-before-decision discipline: when
//! an applied entry resolves a 2PC decision record (`~dec.<tid>`), the
//! replica logs the resolved `(key, value)` as its own record and syncs
//! before the reply that releases the transaction leaves.
//!
//! ## Snapshot blob
//!
//! `last_included_index`, `last_included_term`, then the
//! [`DedupKvMachine`]: KV applied-counter, KV entries, client table.
//! Restoring must reproduce the machine digest bit-for-bit — the nemesis
//! fingerprint oracle depends on it.

use consensus_core::{Command, DedupKvMachine, KvCommand, KvResponse, KvStore, SmrOp, Str};
use simnet::NodeId;
use storage::codec::{put_str, put_u32, put_u64, Reader};

use crate::msg::Entry;

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

/// Least encoded size of a command (client, seq, op tag) and of a key–value
/// pair (two length words): what bounds a decoder's reservation for a count
/// read from the bytes.
const MIN_COMMAND_BYTES: usize = 16;
const MIN_PAIR_BYTES: usize = 8;

fn put_kv_command(buf: &mut Vec<u8>, op: &KvCommand) {
    match op {
        KvCommand::Put { key, value } => {
            put_u32(buf, 0);
            put_str(buf, key);
            put_str(buf, value);
        }
        KvCommand::Get { key } => {
            put_u32(buf, 1);
            put_str(buf, key);
        }
        KvCommand::Delete { key } => {
            put_u32(buf, 2);
            put_str(buf, key);
        }
        KvCommand::Cas { key, expect, new } => {
            put_u32(buf, 3);
            put_str(buf, key);
            put_str(buf, expect);
            put_str(buf, new);
        }
        KvCommand::Range { start, end, limit } => {
            put_u32(buf, 4);
            put_str(buf, start);
            put_str(buf, end);
            put_u64(buf, *limit as u64);
        }
    }
}

fn get_kv_command(r: &mut Reader) -> Option<KvCommand> {
    Some(match r.get_u32()? {
        0 => KvCommand::Put {
            key: r.get_str()?,
            value: r.get_str()?,
        },
        1 => KvCommand::Get { key: r.get_str()? },
        2 => KvCommand::Delete { key: r.get_str()? },
        3 => KvCommand::Cas {
            key: r.get_str()?,
            expect: r.get_str()?,
            new: r.get_str()?,
        },
        4 => KvCommand::Range {
            start: r.get_str()?,
            end: r.get_str()?,
            limit: r.get_u64()? as usize,
        },
        _ => return None,
    })
}

fn put_command(buf: &mut Vec<u8>, cmd: &Command<KvCommand>) {
    put_u32(buf, cmd.client);
    put_u64(buf, cmd.seq);
    put_kv_command(buf, &cmd.op);
}

fn get_command(r: &mut Reader) -> Option<Command<KvCommand>> {
    let client = r.get_u32()?;
    let seq = r.get_u64()?;
    let op = get_kv_command(r)?;
    Some(Command { client, seq, op })
}

fn put_op(buf: &mut Vec<u8>, op: &SmrOp) {
    match op {
        SmrOp::Noop => put_u32(buf, 0),
        SmrOp::Cmd(cmd) => {
            put_u32(buf, 1);
            put_command(buf, cmd);
        }
        SmrOp::Batch(cmds) => {
            put_u32(buf, 2);
            put_u32(buf, cmds.len() as u32);
            for c in cmds {
                put_command(buf, c);
            }
        }
    }
}

fn get_op(r: &mut Reader) -> Option<SmrOp> {
    Some(match r.get_u32()? {
        0 => SmrOp::Noop,
        1 => SmrOp::Cmd(get_command(r)?),
        2 => {
            let n = r.get_u32()? as usize;
            let mut cmds = r.vec_for(n, MIN_COMMAND_BYTES);
            for _ in 0..n {
                cmds.push(get_command(r)?);
            }
            SmrOp::Batch(cmds)
        }
        _ => return None,
    })
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

fn put_response(buf: &mut Vec<u8>, out: &KvResponse) {
    match out {
        KvResponse::Ok => put_u32(buf, 0),
        KvResponse::Value(None) => put_u32(buf, 1),
        KvResponse::Value(Some(v)) => {
            put_u32(buf, 2);
            put_str(buf, v);
        }
        KvResponse::CasResult { swapped } => {
            put_u32(buf, 3);
            put_u32(buf, u32::from(*swapped));
        }
        KvResponse::Entries(entries) => {
            put_u32(buf, 4);
            put_u32(buf, entries.len() as u32);
            for (k, v) in entries {
                put_str(buf, k);
                put_str(buf, v);
            }
        }
    }
}

fn get_response(r: &mut Reader) -> Option<KvResponse> {
    Some(match r.get_u32()? {
        0 => KvResponse::Ok,
        1 => KvResponse::Value(None),
        2 => KvResponse::Value(Some(r.get_str()?)),
        3 => KvResponse::CasResult {
            swapped: r.get_u32()? != 0,
        },
        4 => {
            let n = r.get_u32()? as usize;
            let mut entries = r.vec_for(n, MIN_PAIR_BYTES);
            for _ in 0..n {
                let k = r.get_str()?;
                let v = r.get_str()?;
                entries.push((k, v));
            }
            KvResponse::Entries(entries)
        }
        _ => return None,
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
    put_u64(&mut buf, machine.kv().applied());
    put_u32(&mut buf, machine.kv().len() as u32);
    for (k, v) in machine.kv().iter() {
        put_str(&mut buf, k);
        put_str(&mut buf, v);
    }
    put_u32(&mut buf, machine.client_table().len() as u32);
    for (client, (seq, out)) in machine.client_table() {
        put_u32(&mut buf, *client);
        put_u64(&mut buf, *seq);
        put_response(&mut buf, out);
    }
    buf
}

/// Deserializes a checkpoint back into
/// `(machine, last_included_index, last_included_term)`. The restored
/// machine's digest equals the snapshotted one bit-for-bit.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(DedupKvMachine, usize, u64)> {
    let mut r = Reader::new(bytes);
    let last_included_index = r.get_u64()? as usize;
    let last_included_term = r.get_u64()?;
    let kv_applied = r.get_u64()?;
    let n_kv = r.get_u32()? as usize;
    let mut entries = r.vec_for(n_kv, MIN_PAIR_BYTES);
    for _ in 0..n_kv {
        let k = r.get_str()?;
        let v = r.get_str()?;
        entries.push((k, v));
    }
    let n_clients = r.get_u32()? as usize;
    let clients = (0..n_clients)
        .map(|_| Some((r.get_u32()?, (r.get_u64()?, get_response(&mut r)?))))
        .collect::<Option<_>>()?;
    let machine = DedupKvMachine::restore(KvStore::restore(entries, kv_applied), clients);
    (r.remaining() == 0).then_some((machine, last_included_index, last_included_term))
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine;

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
            c(0, KvCommand::Put { key: "".into(), value: "é✓".into() }),
            c(1, KvCommand::Get { key: "".into() }),
            c(2, KvCommand::Range { start: "".into(), end: "\u{10FFFF}".into(), limit: 3 }),
        ];
        let rec = encode_record(&WalRecord::Append { index: 5, entry: Entry { term: 2, op: SmrOp::Batch(cmds.clone()) } });
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

    const GLYPHS: [&str; 4] = ["a", "é", "✓", "\u{10FFFF}"];
    const REPEATS: [usize; 4] = [0, 1, 9, 4096];

    /// Empty, short and ≥ 4 KiB strings of 1- to 4-byte characters.
    fn text((glyph, repeat): (usize, usize)) -> Str {
        GLYPHS[glyph].repeat(REPEATS[repeat]).into()
    }

    proptest::proptest! {
        /// `decode(encode(x)) == x` wherever a `Str` is stored: commands in
        /// log records, decision records, the snapshot's map and the
        /// replies (`Value`, `Entries`) in its client table.
        #[test]
        fn prop_every_string_field_round_trips(
            raw in proptest::collection::vec(
                (0u8..5, (0usize..4, 0usize..4), (0usize..4, 0usize..4), (0usize..4, 0usize..4)),
                1..6,
            )
        ) {
            use proptest::prelude::*;
            let cmds: Vec<Command<KvCommand>> = raw
                .iter()
                .enumerate()
                .map(|(i, &(kind, a, b, c))| {
                    let (key, value, new) = (text(a), text(b), text(c));
                    let op = match kind {
                        0 => KvCommand::Put { key, value },
                        1 => KvCommand::Get { key },
                        2 => KvCommand::Delete { key },
                        3 => KvCommand::Cas { key, expect: value, new },
                        _ => KvCommand::Range { start: key, end: value, limit: i + 1 },
                    };
                    Command { client: i as u32 % 3, seq: i as u64, op }
                })
                .collect();
            let op = SmrOp::from_batch(cmds.iter().cloned());
            let rec = WalRecord::Append { index: 5, entry: Entry { term: 2, op } };
            prop_assert_eq!(decode_record(&encode_record(&rec)), Some(rec));
            let dec = WalRecord::TxnDecision { key: text(raw[0].1), value: text(raw[0].2) };
            prop_assert_eq!(decode_record(&encode_record(&dec)), Some(dec));
            let mut m = DedupKvMachine::default();
            for c in &cmds {
                m.apply_cmd(c);
            }
            let back = decode_snapshot(&encode_snapshot(&m, 1, 2)).expect("decodes").0;
            prop_assert_eq!(back.kv().iter().collect::<Vec<_>>(), m.kv().iter().collect::<Vec<_>>());
            prop_assert_eq!(back.client_table(), m.client_table());
            prop_assert_eq!(back.digest(), m.digest());
        }
    }

    /// A machine whose snapshot holds every shape a decoder reads: map
    /// entries and a client table with `Value`, `CasResult` and `Entries`
    /// replies.
    fn busy_machine() -> DedupKvMachine {
        let mut m = DedupKvMachine::default();
        let put = |key: &str| KvCommand::Put {
            key: key.into(),
            value: "v".into(),
        };
        let (start, end) = ("a".into(), "z".into());
        let range = KvCommand::Range {
            start,
            end,
            limit: 8,
        };
        let (key, expect, new) = ("a".into(), "v".into(), "w".into());
        let ops = [put("a"), put("b"), range, KvCommand::Cas { key, expect, new }];
        for (client, op) in ops.into_iter().enumerate() {
            let (client, seq) = (client as u32 % 3, client as u64);
            m.apply_cmd(&Command { client, seq, op });
        }
        m
    }

    /// `bytes` with the four bytes at `at` replaced by `word`.
    fn with_word(bytes: &[u8], at: usize, word: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        out
    }

    /// Every single-word corruption of `bytes` by a boundary value, at every
    /// offset: whichever count, length or tag the word lands on, the decoder
    /// under test must come back — `Some` or `None` — instead of aborting on
    /// a reservation the bytes cannot back.
    fn word_mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        const WORDS: [u32; 5] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        let offsets = 0..bytes.len().saturating_sub(3);
        offsets.flat_map(move |at| WORDS.map(|w| with_word(bytes, at, w)))
    }

    /// A count word is input. `0xFFFF_FFFF` items cannot fit in the bytes
    /// that follow it, and the decoder must say so (`None`) rather than
    /// reserve for them — which, at 24 or 32 bytes an item, aborted the
    /// process before the first item was read.
    #[test]
    fn decoders_reject_a_hostile_count_without_reserving_for_it() {
        // Index, term, kv applied, then the map's count: 28 bytes.
        let snapshot = encode_snapshot(&busy_machine(), 4, 2);
        assert!(decode_snapshot(&with_word(&snapshot[..28], 24, u32::MAX)).is_none());
        // tag, index, term, op tag, then the batch's count.
        let op = SmrOp::Batch(vec![Command {
            client: 1,
            seq: 2,
            op: KvCommand::Get { key: "k".into() },
        }]);
        let entry = Entry { term: 2, op };
        let record = encode_record(&WalRecord::Append { index: 5, entry });
        assert!(decode_record(&record).is_some());
        assert_eq!(decode_record(&with_word(&record, 24, u32::MAX)), None);
        // An `Entries` reply in the client table: empty map, one client.
        let mut entries = Vec::new();
        put_u64(&mut entries, 1);
        put_u64(&mut entries, 1);
        put_u64(&mut entries, 1);
        put_u32(&mut entries, 0);
        put_u32(&mut entries, 1);
        put_u32(&mut entries, 7);
        put_u64(&mut entries, 3);
        put_response(&mut entries, &KvResponse::Entries(Vec::new()));
        assert!(decode_snapshot(&entries).is_some());
        let count_at = entries.len() - 4;
        assert!(decode_snapshot(&with_word(&entries, count_at, u32::MAX)).is_none());
    }

    #[test]
    fn decoders_survive_every_single_word_corruption_of_a_valid_encoding() {
        let op = SmrOp::from_batch((0..3u32).map(|seq| Command {
            client: 1,
            seq: u64::from(seq),
            op: KvCommand::Get { key: "k".into() },
        }));
        let (key, value) = ("~dec.t1".into(), "commit".into());
        let records = [
            WalRecord::Append { index: 2, entry: Entry { term: 2, op } },
            WalRecord::HardState { term: 2, voted_for: Some(NodeId(1)) },
            WalRecord::TxnDecision { key, value },
        ];
        for record in records {
            for bytes in word_mutations(&encode_record(&record)) {
                let _ = decode_record(&bytes);
            }
        }
        for bytes in word_mutations(&encode_snapshot(&busy_machine(), 4, 2)) {
            let _ = decode_snapshot(&bytes);
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
