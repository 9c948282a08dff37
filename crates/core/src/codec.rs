//! The byte format of the SMR shell's types: little-endian primitives, the
//! [`Reader`] cursor, and one `put_*` / `get_*` pair each for [`KvCommand`],
//! [`Command`], [`SmrOp`], [`KvResponse`] and the [`DedupKvMachine`] body.
//!
//! The same `put_*` path prices every SMR message on the wire: a message
//! costs [`ENVELOPE_BYTES`] plus the bytes these functions write for each
//! command and op it carries, counted into a [`Count`] sink without
//! allocating ([`wire_size`]). Replies and state transfers pay the envelope
//! alone for now: priced by their bytes, a 1 KiB read reply at a saturated
//! leader and a megabyte snapshot in one message push today's unbounded
//! NIC queues into retry storms (ROADMAP 1b).
//!
//! The workspace builds with no registry access, so there is no serde
//! derive: every byte is explicit. [`crate::durable`] wraps these in the WAL
//! records and snapshot header both log protocols write; what a command, a
//! reply or a state machine looks like on disk is decided here, once, for
//! both Multi-Paxos and Raft — a format change or a decoder hardening
//! (ROADMAP 5d) has one place to happen.
//!
//! Decoders take bytes that came off a disk. Every `get_*` returns `None` on
//! an underrun, an unknown tag or invalid UTF-8 instead of panicking, and a
//! count word read from the bytes never sizes an allocation by itself
//! ([`Reader::vec_for`]).

use crate::smr::{Command, DedupKvMachine, KvCommand, KvResponse, KvStore, SmrOp, Str};

/// Where encoded bytes go: a buffer, or a [`Count`] that only sizes them.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that keeps only the number of bytes written to it.
#[derive(Debug, Default)]
pub struct Count(pub usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// What every SMR message pays on the wire besides what it carries: the
/// header, sender and receiver, the protocol's ballot, term or view and
/// sequence numbers, digests and authenticators. One value for all nine
/// protocols.
pub const ENVELOPE_BYTES: usize = 64;

/// The wire size of a message whose payload `carried` writes:
/// [`ENVELOPE_BYTES`] plus the bytes of each command and op.
pub fn wire_size(carried: impl FnOnce(&mut Count)) -> usize {
    let mut count = Count::default();
    carried(&mut count);
    ENVELOPE_BYTES + count.0
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut impl Sink, v: u32) {
    buf.put(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut impl Sink, v: u64) {
    buf.put(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string (`u32` length + bytes).
pub fn put_bytes(buf: &mut impl Sink, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.put(v);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl Sink, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// A cursor over encoded bytes. Every `get_*` returns `None` on underrun
/// instead of panicking, so decoders double as corruption detectors.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An empty `Vec` for the `n` items a count word announced, each at least
    /// `min_item_bytes` long. The count is outside input, so the reservation
    /// is capped at what the unread bytes could hold: a hostile count costs a
    /// `None` from the item reads, not an allocation failure.
    pub fn vec_for<T>(&self, n: usize, min_item_bytes: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / min_item_bytes))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string into the one allocation its
    /// holders then share.
    pub fn get_str(&mut self) -> Option<Str> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).ok().map(Str::from)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
}

/// Least encoded size of a command (client, seq, op tag) and of a key–value
/// pair (two length words): what bounds a decoder's reservation for a count
/// read from the bytes.
const MIN_COMMAND_BYTES: usize = 16;
const MIN_PAIR_BYTES: usize = 8;

/// Appends a key-value command: a `u32` variant tag, then its fields.
pub fn put_kv_command(buf: &mut impl Sink, op: &KvCommand) {
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

/// Reads a key-value command.
pub fn get_kv_command(r: &mut Reader) -> Option<KvCommand> {
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

/// Appends a client command: client id, sequence number, operation.
pub fn put_command(buf: &mut impl Sink, cmd: &Command<KvCommand>) {
    put_u32(buf, cmd.client);
    put_u64(buf, cmd.seq);
    put_kv_command(buf, &cmd.op);
}

/// Reads a client command.
pub fn get_command(r: &mut Reader) -> Option<Command<KvCommand>> {
    let client = r.get_u32()?;
    let seq = r.get_u64()?;
    let op = get_kv_command(r)?;
    Some(Command { client, seq, op })
}

/// Appends a log-slot op: no-op, one command, or a counted batch.
pub fn put_op(buf: &mut impl Sink, op: &SmrOp) {
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

/// Reads a log-slot op.
pub fn get_op(r: &mut Reader) -> Option<SmrOp> {
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

/// Appends a state-machine reply.
pub fn put_response(buf: &mut impl Sink, out: &KvResponse) {
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
            put_pairs(buf, entries.len(), entries.iter().map(|(k, v)| (k, v)));
        }
    }
}

/// Reads a state-machine reply.
pub fn get_response(r: &mut Reader) -> Option<KvResponse> {
    Some(match r.get_u32()? {
        0 => KvResponse::Ok,
        1 => KvResponse::Value(None),
        2 => KvResponse::Value(Some(r.get_str()?)),
        3 => KvResponse::CasResult {
            swapped: r.get_u32()? != 0,
        },
        4 => KvResponse::Entries(get_pairs(r)?),
        _ => return None,
    })
}

/// A `u32` count, then that many `(key, value)` string pairs.
fn put_pairs<'a>(buf: &mut impl Sink, n: usize, pairs: impl Iterator<Item = (&'a Str, &'a Str)>) {
    put_u32(buf, n as u32);
    for (k, v) in pairs {
        put_str(buf, k);
        put_str(buf, v);
    }
}

fn get_pairs(r: &mut Reader) -> Option<Vec<(Str, Str)>> {
    let n = r.get_u32()? as usize;
    let mut pairs = r.vec_for(n, MIN_PAIR_BYTES);
    for _ in 0..n {
        pairs.push((r.get_str()?, r.get_str()?));
    }
    Some(pairs)
}

/// Appends the body of a machine checkpoint: the KV applied-counter, the KV
/// entries in key order, then the client table (`client`, `seq`, cached
/// reply). A protocol's snapshot is its own header followed by this.
pub fn put_machine(buf: &mut impl Sink, machine: &DedupKvMachine) {
    put_u64(buf, machine.kv().applied());
    put_pairs(buf, machine.kv().len(), machine.kv().iter());
    put_u32(buf, machine.client_table().len() as u32);
    for (client, (seq, out)) in machine.client_table() {
        put_u32(buf, *client);
        put_u64(buf, *seq);
        put_response(buf, out);
    }
}

/// Reads a machine checkpoint body. The restored machine's digest equals
/// the snapshotted one bit-for-bit — the nemesis fingerprint oracle depends
/// on it.
pub fn get_machine(r: &mut Reader) -> Option<DedupKvMachine> {
    let kv_applied = r.get_u64()?;
    let entries = get_pairs(r)?;
    let n_clients = r.get_u32()? as usize;
    let clients = (0..n_clients)
        .map(|_| Some((r.get_u32()?, (r.get_u64()?, get_response(r)?))))
        .collect::<Option<_>>()?;
    Some(DedupKvMachine::restore(
        KvStore::restore(entries, kv_applied),
        clients,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32(), Some(7));
        assert_eq!(r.get_u64(), Some(u64::MAX - 3));
        assert_eq!(r.get_str().as_deref(), Some("héllo"));
        assert_eq!(r.get_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u32(), None, "underrun reads are None, not panics");
    }

    #[test]
    fn truncated_string_decodes_as_none() {
        let mut buf = Vec::new();
        put_str(&mut buf, "payload");
        buf.truncate(buf.len() - 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str(), None);
    }

    fn encoded<T: ?Sized>(put: fn(&mut Vec<u8>, &T), value: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        put(&mut buf, value);
        buf
    }

    /// Decodes all of `bytes` with `get`: `None` also when bytes are left.
    fn decoded<T>(get: fn(&mut Reader) -> Option<T>, bytes: &[u8]) -> Option<T> {
        let mut r = Reader::new(bytes);
        get(&mut r).filter(|_| r.remaining() == 0)
    }

    const GLYPHS: [&str; 4] = ["a", "é", "✓", "\u{10FFFF}"];
    const REPEATS: [usize; 4] = [0, 1, 9, 4096];

    /// Empty, short and ≥ 4 KiB strings of 1- to 4-byte characters.
    fn text((glyph, repeat): (usize, usize)) -> Str {
        GLYPHS[glyph].repeat(REPEATS[repeat]).into()
    }

    proptest::proptest! {
        /// `decode(encode(x)) == x` wherever a `Str` is stored: commands in
        /// an op, the machine's map and the replies (`Value`, `Entries`) in
        /// its client table.
        #[test]
        fn prop_every_string_field_round_trips(
            raw in proptest::collection::vec(
                (0u8..5, (0usize..4, 0usize..4), (0usize..4, 0usize..4), (0usize..4, 0usize..4)),
                1..6,
            )
        ) {
            use crate::smr::StateMachine;
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
            prop_assert_eq!(decoded(get_op, &encoded(put_op, &op)), Some(op));
            let mut m = DedupKvMachine::default();
            for c in &cmds {
                m.apply_cmd(c);
            }
            for (_, reply) in m.client_table().values() {
                let back = decoded(get_response, &encoded(put_response, reply));
                prop_assert_eq!(back.as_ref(), Some(reply));
            }
            let back = decoded(get_machine, &encoded(put_machine, &m)).expect("decodes");
            prop_assert_eq!(back.kv().iter().collect::<Vec<_>>(), m.kv().iter().collect::<Vec<_>>());
            prop_assert_eq!(back.client_table(), m.client_table());
            prop_assert_eq!(back.digest(), m.digest());
        }
    }

    /// A machine whose body holds every shape a decoder reads: map entries
    /// and a client table with `Value`, `CasResult` and `Entries` replies.
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
        let ops = [
            put("a"),
            put("b"),
            range,
            KvCommand::Cas { key, expect, new },
        ];
        for (client, op) in ops.into_iter().enumerate() {
            let (client, seq) = (client as u32 % 3, client as u64);
            m.apply_cmd(&Command { client, seq, op });
        }
        m
    }

    fn gets(n: u32) -> SmrOp {
        SmrOp::from_batch((0..n).map(|seq| Command {
            client: 1,
            seq: u64::from(seq),
            op: KvCommand::Get { key: "k".into() },
        }))
    }

    /// `bytes` with the four bytes at `at` replaced by `word`.
    fn with_word(bytes: &[u8], at: usize, word: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        out
    }

    /// A count word is input. `0xFFFF_FFFF` items cannot fit in the bytes
    /// that follow it, and the decoder must say so (`None`) rather than
    /// reserve for them — which, at 24 or 32 bytes an item, aborted the
    /// process before the first item was read.
    #[test]
    fn decoders_reject_a_hostile_count_without_reserving_for_it() {
        // kv applied, then the map's count.
        let body = encoded(put_machine, &busy_machine());
        assert!(decoded(get_machine, &body).is_some());
        assert!(decoded(get_machine, &with_word(&body[..12], 8, u32::MAX)).is_none());
        // op tag, then the batch's count.
        let op = encoded(put_op, &gets(2));
        assert!(decoded(get_op, &op).is_some());
        assert_eq!(decoded(get_op, &with_word(&op, 4, u32::MAX)), None);
        // reply tag, then the row count — alone and in a client table.
        let reply = encoded(put_response, &KvResponse::Entries(Vec::new()));
        assert!(decoded(get_response, &reply).is_some());
        assert_eq!(decoded(get_response, &with_word(&reply, 4, u32::MAX)), None);
        let mut table = Vec::new();
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        put_u32(&mut table, 1);
        put_u32(&mut table, 7);
        put_u64(&mut table, 3);
        table.extend(&reply);
        assert!(decoded(get_machine, &table).is_some());
        let count_at = table.len() - 4;
        assert!(decoded(get_machine, &with_word(&table, count_at, u32::MAX)).is_none());
    }

    /// Every single-word corruption of a valid encoding by a boundary value,
    /// at every offset: whichever count, length or tag the word lands on,
    /// the decoder must come back — `Some` or `None` — instead of aborting
    /// on a reservation the bytes cannot back.
    #[test]
    fn decoders_survive_every_single_word_corruption_of_a_valid_encoding() {
        const WORDS: [u32; 5] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        fn sweep<T>(get: fn(&mut Reader) -> Option<T>, bytes: &[u8]) {
            for at in 0..bytes.len().saturating_sub(3) {
                for word in WORDS {
                    let _ = decoded(get, &with_word(bytes, at, word));
                }
            }
        }
        let machine = busy_machine();
        sweep(get_op, &encoded(put_op, &gets(3)));
        for (_, reply) in machine.client_table().values() {
            sweep(get_response, &encoded(put_response, reply));
        }
        sweep(get_machine, &encoded(put_machine, &machine));
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
            let _ = decoded(get_op, &bytes);
            let _ = decoded(get_response, &bytes);
            let _ = decoded(get_machine, &bytes);
        }
    }
}
