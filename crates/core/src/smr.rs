//! State machine replication building blocks.
//!
//! The tutorial's SMR picture: clients submit commands; a consensus module
//! on each server agrees on a single order; every server applies the same
//! deterministic commands in the same order, so replicas stay consistent.
//! This module provides the pieces every protocol crate shares: a generic
//! [`StateMachine`], concrete deterministic machines, and a [`ReplicatedLog`]
//! that applies entries strictly in order ("server waits for previous log
//! entries to be applied, then applies the new command").

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::txn::is_txn_decision;

/// A key or value: allocated once where it is made, shared by refcount on
/// every hop after that (`Arc`, not `Rc`, so a simulation stays `Send`).
pub type Str = Arc<str>;

/// A deterministic command with a client-visible identity, so replies can be
/// matched to requests and duplicates suppressed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Command<Op> {
    /// Issuing client.
    pub client: u32,
    /// Client-local sequence number (monotone per client).
    pub seq: u64,
    /// The operation to apply.
    pub op: Op,
}

impl<Op: fmt::Display> fmt::Display for Command<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}#{}: {}", self.client, self.seq, self.op)
    }
}

/// A deterministic state machine: same commands in the same order ⇒ same
/// state and same outputs on every replica.
pub trait StateMachine: Default {
    /// Operations this machine executes.
    type Op: Clone + fmt::Debug;
    /// Responses it produces.
    type Output: Clone + fmt::Debug + PartialEq;

    /// Applies one operation and returns its output.
    fn apply(&mut self, op: &Self::Op) -> Self::Output;

    /// A digest of the current state, used for checkpoint agreement (PBFT)
    /// and divergence detection in tests. Must be a pure function of the
    /// applied history.
    fn digest(&self) -> u64;
}

/// Operations of the replicated key-value store used by the examples and
/// most experiments.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum KvCommand {
    /// Bind `key` to `value`.
    Put {
        /// Key to write.
        key: Str,
        /// Value to store.
        value: Str,
    },
    /// Read `key`.
    Get {
        /// Key to read.
        key: Str,
    },
    /// Remove `key`.
    Delete {
        /// Key to remove.
        key: Str,
    },
    /// Compare-and-swap: set `key` to `new` iff it currently equals
    /// `expect`.
    Cas {
        /// Key to update.
        key: Str,
        /// Expected current value.
        expect: Str,
        /// Replacement value.
        new: Str,
    },
    /// Ordered scan of `[start, end)`, returning at most `limit` entries.
    /// The only multi-key command: shards serve it from their sorted
    /// primary index (B+ tree in durable mode), and routers merge per-shard
    /// results into one globally ordered answer.
    Range {
        /// First key included.
        start: Str,
        /// First key excluded.
        end: Str,
        /// Maximum entries returned.
        limit: usize,
    },
}

impl fmt::Display for KvCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvCommand::Put { key, value } => write!(f, "put {key}={value}"),
            KvCommand::Get { key } => write!(f, "get {key}"),
            KvCommand::Delete { key } => write!(f, "del {key}"),
            KvCommand::Cas { key, expect, new } => write!(f, "cas {key}:{expect}→{new}"),
            KvCommand::Range { start, end, limit } => {
                write!(f, "range [{start},{end})#{limit}")
            }
        }
    }
}

/// Replies of the key-value store.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum KvResponse {
    /// Write acknowledged.
    Ok,
    /// Read result (None = absent).
    Value(Option<Str>),
    /// CAS outcome.
    CasResult {
        /// Whether the swap happened.
        swapped: bool,
    },
    /// Range-scan result: `(key, value)` pairs in ascending key order.
    Entries(Vec<(Str, Str)>),
}

impl KvResponse {
    /// Panics unless this is a range result holding exactly the first `limit`
    /// of `rows` — how a durable replica checks the scan of its on-disk
    /// index against the answer the machine gave at that point of the log.
    pub fn check_index_scan(&self, mut rows: Vec<(String, String)>, limit: usize) {
        rows.truncate(limit);
        let rows = rows.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        assert!(
            matches!(self, KvResponse::Entries(e) if e.iter().map(|(k, v)| (&**k, &**v)).eq(rows)),
            "engine index diverged from machine on range scan"
        );
    }
}

/// A durable replica's primary index, as an applied command is mirrored
/// into it. Both log protocols lend their durable handle,
/// [`crate::durable::Disk`], through this trait.
pub trait PrimaryIndex {
    /// Upserts `key`.
    fn put(&mut self, key: &str, value: &str);
    /// Removes `key`.
    fn delete(&mut self, key: &str);
    /// The rows of `[start, end)` in key order.
    fn scan(&mut self, start: &str, end: &str) -> Vec<(String, String)>;
    /// Tables a resolved transaction decision record and appends it to the
    /// WAL in the protocol's own record format.
    fn log_decision(&mut self, key: &Str, value: &Str);
}

impl KvCommand {
    /// Mirrors this command into a durable replica's primary index, given
    /// `out`, the machine's actual reply to it — so a failed CAS writes
    /// nothing. A range writes nothing either, but the index serves the scan
    /// too, charging the honest B+ tree I/O, and its rows must be the reply
    /// ([`KvResponse::check_index_scan`]). Returns whether the write resolved
    /// a transaction decision record ([`crate::txn::is_txn_decision`]),
    /// which is then logged too: the replica syncs before the reply leaves.
    pub fn mirror(&self, out: &KvResponse, index: &mut impl PrimaryIndex) -> bool {
        let (key, value) = match self {
            KvCommand::Put { key, value } => (key, value),
            KvCommand::Cas { key, new, .. }
                if matches!(out, KvResponse::CasResult { swapped: true }) =>
            {
                (key, new)
            }
            KvCommand::Delete { key } => {
                index.delete(key);
                return false;
            }
            KvCommand::Range { start, end, limit } => {
                out.check_index_scan(index.scan(start, end), *limit);
                return false;
            }
            KvCommand::Cas { .. } | KvCommand::Get { .. } => return false,
        };
        index.put(key, value);
        let decision = is_txn_decision(key, value);
        if decision {
            index.log_decision(key, value);
        }
        decision
    }
}

/// How a linearizable read was (or was not) served on the fast path.
///
/// Multi-Paxos leaders answer reads locally while they hold a quorum-granted
/// **lease** bounded by the clock-skew oracle; Raft followers answer from
/// their applied state after a **read-index** round-trip confirms the
/// leader's commit index. Either side replies [`ReadMode::Nack`] when the
/// fast path is not currently safe, telling the caller to fall back to the
/// ordinary log path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadMode {
    /// Served locally by a leader holding an unexpired quorum lease.
    Lease,
    /// Served by a follower after a Raft read-index confirmation.
    ReadIndex,
    /// Served through the replicated log (the slow, always-safe path).
    Log,
    /// Fast path refused; the value field of the reply is meaningless and
    /// the caller must retry through the log.
    Nack,
}

/// A deterministic in-memory key-value store.
#[derive(Clone, Debug, Default)]
pub struct KvStore {
    map: BTreeMap<Str, Str>,
    applied: u64,
}

impl KvStore {
    /// Direct read access (test assertions).
    pub fn get(&self, key: &str) -> Option<&Str> {
        self.map.get(key)
    }

    /// Number of operations applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates entries in key order (snapshot serialization).
    pub fn iter(&self) -> impl Iterator<Item = (&Str, &Str)> {
        self.map.iter()
    }

    /// The entries that are resolved transaction decision records, in key
    /// order: what a checkpoint re-seeds a replica's decision table from.
    pub fn txn_decisions(&self) -> impl Iterator<Item = (&Str, &Str)> {
        self.iter().filter(|(k, v)| is_txn_decision(k, v))
    }

    /// Rebuilds a store from serialized state. `applied` must be the
    /// original operation count — the digest covers it, so a recovered
    /// replica only matches its peers if the count round-trips exactly.
    pub fn restore(entries: Vec<(Str, Str)>, applied: u64) -> Self {
        KvStore {
            map: entries.into_iter().collect(),
            applied,
        }
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Ordered scan of `[start, end)`, at most `limit` entries — the pure
    /// read that [`KvCommand::Range`] applies through the log. Exposed so
    /// durable replicas can cross-check their on-disk index scan against
    /// the authoritative machine state.
    pub fn scan(&self, start: &str, end: &str, limit: usize) -> Vec<(Str, Str)> {
        use std::ops::Bound;
        if start > end {
            return Vec::new(); // `BTreeMap::range` panics on inverted bounds
        }
        self.map
            .range::<str, _>((Bound::Included(start), Bound::Excluded(end)))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl StateMachine for KvStore {
    type Op = KvCommand;
    type Output = KvResponse;

    fn apply(&mut self, op: &KvCommand) -> KvResponse {
        self.applied += 1;
        match op {
            KvCommand::Put { key, value } => {
                self.map.insert(key.clone(), value.clone());
                KvResponse::Ok
            }
            KvCommand::Get { key } => KvResponse::Value(self.map.get(&**key).cloned()),
            KvCommand::Delete { key } => {
                self.map.remove(&**key);
                KvResponse::Ok
            }
            KvCommand::Cas { key, expect, new } => {
                let swapped = match self.map.get(&**key) {
                    Some(v) if v == expect => {
                        self.map.insert(key.clone(), new.clone());
                        true
                    }
                    _ => false,
                };
                KvResponse::CasResult { swapped }
            }
            KvCommand::Range { start, end, limit } => {
                KvResponse::Entries(self.scan(start, end, *limit))
            }
        }
    }

    fn digest(&self) -> u64 {
        // FNV-1a over the sorted map plus the applied count: cheap, stable,
        // and collision-resistant enough for divergence detection in tests.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (k, v) in &self.map {
            mix(k.as_bytes());
            mix(&[0xFF]);
            mix(v.as_bytes());
            mix(&[0xFE]);
        }
        mix(&self.applied.to_le_bytes());
        h
    }
}

/// A trivial counter machine — handy where the value under agreement is a
/// single integer (the tutorial's "agree on a single value" examples).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    /// Current total.
    pub total: i64,
    applied: u64,
}

impl StateMachine for Counter {
    type Op = i64;
    type Output = i64;

    fn apply(&mut self, op: &i64) -> i64 {
        self.applied += 1;
        self.total += op;
        self.total
    }

    fn digest(&self) -> u64 {
        (self.total as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.applied
    }
}

/// The status of one log slot.
#[derive(Clone, Debug, PartialEq)]
pub enum Slot<Op> {
    /// Nothing known for this index.
    Empty,
    /// A value has been decided (consensus reached) but not yet applied.
    Decided(Op),
    /// Decided and applied to the state machine.
    Applied(Op),
}

/// A replicated log with in-order application.
///
/// The consensus module decides values for arbitrary indices (possibly out
/// of order — Multi-Paxos instances are independent); the log applies them
/// to the state machine strictly sequentially, exactly as in the tutorial's
/// Multi-Paxos step 3.
#[derive(Debug)]
pub struct ReplicatedLog<S: StateMachine> {
    slots: Vec<Slot<S::Op>>,
    machine: S,
    next_apply: usize,
}

impl<S: StateMachine> Default for ReplicatedLog<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: StateMachine> ReplicatedLog<S> {
    /// Creates an empty log over a fresh state machine.
    pub fn new() -> Self {
        ReplicatedLog {
            slots: Vec::new(),
            machine: S::default(),
            next_apply: 0,
        }
    }

    /// Records the decision for `index` and applies every newly contiguous
    /// prefix entry. Returns the outputs produced by this call in order.
    pub fn decide(&mut self, index: usize, op: S::Op) -> Vec<(usize, S::Output)>
    where
        S::Op: PartialEq + fmt::Debug,
    {
        self.record(index, op);
        let mut produced = Vec::new();
        while let Some(op) = self.take_decided() {
            let slot = self.next_apply;
            produced.push((slot, self.machine.apply(&op)));
            self.slots[slot] = Slot::Applied(op);
            self.next_apply += 1;
        }
        produced
    }

    /// Records the decision for `index` without applying anything.
    ///
    /// Re-deciding an index with the same value is idempotent; deciding it
    /// with a *different* value panics — that is a safety violation the
    /// protocol must never commit.
    pub fn record(&mut self, index: usize, op: S::Op)
    where
        S::Op: PartialEq + fmt::Debug,
    {
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || Slot::Empty);
        }
        match &self.slots[index] {
            Slot::Empty => self.slots[index] = Slot::Decided(op),
            Slot::Decided(existing) | Slot::Applied(existing) => assert!(
                *existing == op,
                "safety violation: slot {index} decided twice with different values: {existing:?} vs {op:?}"
            ),
        }
    }

    /// Takes the op of the slot at the frontier if it is decided; the caller
    /// applies it and puts it back as `Slot::Applied`.
    fn take_decided(&mut self) -> Option<S::Op> {
        let slot = self.slots.get_mut(self.next_apply)?;
        match std::mem::replace(slot, Slot::Empty) {
            Slot::Decided(op) => Some(op),
            other => {
                *slot = other;
                None
            }
        }
    }

    /// Index of the next unapplied slot (= length of the applied prefix).
    pub fn applied_len(&self) -> usize {
        self.next_apply
    }

    /// One past the highest slot decided since the last install, gaps
    /// included.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been decided since the last install.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The state of slot `index`.
    pub fn slot(&self, index: usize) -> &Slot<S::Op> {
        self.slots.get(index).unwrap_or(&Slot::Empty)
    }

    /// The underlying state machine.
    pub fn machine(&self) -> &S {
        &self.machine
    }

    /// Drops applied entries up to `index` (exclusive), modelling PBFT-style
    /// checkpoint garbage collection. The state machine retains the effect.
    /// Returns how many slots were truncated. Slots keep their absolute
    /// indices; truncated slots read as `Applied` history being gone, so
    /// `slot()` reports `Empty` for them — callers must consult
    /// [`ReplicatedLog::applied_len`] first, as PBFT's checkpoint protocol
    /// does.
    pub fn truncate_prefix(&mut self, index: usize) -> usize {
        let cut = index.min(self.next_apply);
        let mut freed = 0;
        for slot in self.slots.iter_mut().take(cut) {
            if !matches!(slot, Slot::Empty) {
                *slot = Slot::Empty;
                freed += 1;
            }
        }
        freed
    }

    /// Slots still holding a value (decided or applied) — the log's actual
    /// memory footprint after compaction, the quantity snapshot thresholds
    /// bound.
    pub fn retained_len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Slot::Empty))
            .count()
    }

    /// Installs a snapshot: replaces the state machine with `machine`,
    /// whose state must reflect exactly the first `applied_len` entries.
    /// Every slot reads as `Empty` afterwards: the history below
    /// `applied_len` is gone, as after [`ReplicatedLog::truncate_prefix`],
    /// and callers that want to keep a decided tail above it re-decide it.
    pub fn install(&mut self, machine: S, applied_len: usize) {
        self.slots.clear();
        self.machine = machine;
        self.next_apply = applied_len;
    }
}

/// The applied side both log protocols keep.
pub(crate) type Log = ReplicatedLog<DedupKvMachine>;

impl ReplicatedLog<DedupKvMachine> {
    /// The apply step both log protocols share: applies `op` as the entry at
    /// the frontier, one command at a time. A command is *fresh* when the
    /// machine's dedup table does not hold it before it applies; each fresh
    /// one is mirrored into `index` right after it applies. A duplicate
    /// decided again at a later index is answered from the table without
    /// touching the store, so its payload is never mirrored over newer
    /// state. `reply` then receives the command and its reply.
    ///
    /// Returns whether a command resolved a transaction decision record:
    /// its WAL record is logged, and the caller syncs before a reply leaves.
    pub fn apply(
        &mut self,
        op: &SmrOp,
        mut index: Option<&mut impl PrimaryIndex>,
        mut reply: impl FnMut(&Command<KvCommand>, KvResponse),
    ) -> bool {
        let mut resolved = false;
        for cmd in op.commands() {
            let fresh = index.is_some() && self.machine.cached(cmd.client, cmd.seq).is_none();
            let out = self.machine.apply_cmd(cmd);
            if let Some(index) = index.as_deref_mut().filter(|_| fresh) {
                resolved |= cmd.op.mirror(&out, index);
            }
            reply(cmd, out);
        }
        self.next_apply += 1;
        resolved
    }

    /// Applies the slot at the frontier through [`ReplicatedLog::apply`] if
    /// it is decided, and returns its index and whether it resolved a
    /// decision record. Called until `None`, one slot at a time, so the
    /// caller can sync and reply between slots.
    pub fn apply_decided(
        &mut self,
        index: Option<&mut impl PrimaryIndex>,
        reply: impl FnMut(&Command<KvCommand>, KvResponse),
    ) -> Option<(usize, bool)> {
        let op = self.take_decided()?;
        let slot = self.next_apply;
        let resolved = self.apply(&op, index, reply);
        self.slots[slot] = Slot::Applied(op);
        Some((slot, resolved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn put(k: &str, v: &str) -> KvCommand {
        KvCommand::Put {
            key: k.into(),
            value: v.into(),
        }
    }

    /// A primary index that records, in order, what it is asked.
    #[derive(Default)]
    pub(super) struct Recorder(pub(super) Vec<String>);

    impl PrimaryIndex for Recorder {
        fn put(&mut self, key: &str, value: &str) {
            self.0.push(format!("put {key}={value}"));
        }

        fn delete(&mut self, key: &str) {
            self.0.push(format!("del {key}"));
        }

        fn scan(&mut self, start: &str, end: &str) -> Vec<(String, String)> {
            self.0.push(format!("scan [{start},{end})"));
            Vec::new()
        }

        fn log_decision(&mut self, key: &Str, value: &Str) {
            self.0.push(format!("decision {key}={value}"));
        }
    }

    /// What `cmd` mirrors given the reply `out`, and whether it resolved a
    /// decision record.
    fn mirrored(cmd: &KvCommand, out: KvResponse) -> (Vec<String>, bool) {
        let mut index = Recorder::default();
        let decision = cmd.mirror(&out, &mut index);
        (index.0, decision)
    }

    #[test]
    fn index_write_follows_the_reply_not_the_request() {
        let (k, v, w): (Str, Str, Str) = ("k".into(), "v".into(), "w".into());
        let writes = |ops: &[&str]| (ops.iter().map(|op| op.to_string()).collect(), false);
        assert_eq!(
            mirrored(&put("k", "v"), KvResponse::Ok),
            writes(&["put k=v"])
        );
        let cas = KvCommand::Cas {
            key: k.clone(),
            expect: v.clone(),
            new: w.clone(),
        };
        let swapped = |swapped| KvResponse::CasResult { swapped };
        assert_eq!(mirrored(&cas, swapped(true)), writes(&["put k=w"]));
        assert_eq!(mirrored(&cas, swapped(false)), writes(&[]));
        let delete = KvCommand::Delete { key: k.clone() };
        assert_eq!(mirrored(&delete, KvResponse::Ok), writes(&["del k"]));
        let get = KvCommand::Get { key: k.clone() };
        assert_eq!(mirrored(&get, KvResponse::Value(None)), writes(&[]));
        let range = KvCommand::Range {
            start: "a".into(),
            end: "z".into(),
            limit: 3,
        };
        let entries = KvResponse::Entries(Vec::new());
        assert_eq!(mirrored(&range, entries), writes(&["scan [a,z)"]));
    }

    #[test]
    fn index_write_flags_a_resolved_decision_record_only() {
        let decision = |cmd: KvCommand, out| mirrored(&cmd, out).1;
        let resolve = |new: &str| KvCommand::Cas {
            key: "~dec.t100.3".into(),
            expect: "pending".into(),
            new: new.into(),
        };
        let swapped = KvResponse::CasResult { swapped: true };
        let logged = ["put ~dec.t100.3=commit", "decision ~dec.t100.3=commit"];
        assert_eq!(
            mirrored(&resolve("commit"), swapped.clone()),
            (logged.map(String::from).to_vec(), true)
        );
        assert!(decision(put("~dec.t100.3", "abort"), KvResponse::Ok));
        assert!(!decision(put("~dec.t100.3", "pending"), KvResponse::Ok));
        assert!(!decision(put("k", "commit"), KvResponse::Ok));
        let (lost, not_swapped) = (resolve("abort"), KvResponse::CasResult { swapped: false });
        assert_eq!(mirrored(&lost, not_swapped), (Vec::new(), false));

        let mut kv = KvStore::default();
        for cmd in [
            put("a", "commit"),
            put("~dec.t1.0", "pending"),
            put("~dec.t2.0", "abort"),
        ] {
            kv.apply(&cmd);
        }
        let decided: Vec<(&str, &str)> = kv.txn_decisions().map(|(k, v)| (&**k, &**v)).collect();
        assert_eq!(decided, [("~dec.t2.0", "abort")]);
    }

    #[test]
    fn an_index_scan_is_checked_against_the_reply_up_to_the_limit() {
        let rows = |keys: &[&str]| -> Vec<(String, String)> {
            keys.iter()
                .map(|k| (k.to_string(), "v".to_string()))
                .collect()
        };
        let reply = KvResponse::Entries(vec![("a".into(), "v".into()), ("b".into(), "v".into())]);
        reply.check_index_scan(rows(&["a", "b"]), 2);
        reply.check_index_scan(rows(&["a", "b", "c"]), 2);
        let diverged = |reply: &KvResponse, keys: &[&str], limit| {
            let (reply, rows) = (reply.clone(), rows(keys));
            std::panic::catch_unwind(move || reply.check_index_scan(rows, limit)).is_err()
        };
        assert!(
            diverged(&reply, &["a", "b", "c"], 3),
            "a row the machine never returned"
        );
        assert!(diverged(&reply, &["a"], 2), "a row the index lost");
        assert!(diverged(&KvResponse::Ok, &[], 2), "not a range reply");
    }

    #[test]
    fn kv_basic_ops() {
        let mut kv = KvStore::default();
        assert_eq!(kv.apply(&put("a", "1")), KvResponse::Ok);
        assert_eq!(
            kv.apply(&KvCommand::Get { key: "a".into() }),
            KvResponse::Value(Some("1".into()))
        );
        assert_eq!(
            kv.apply(&KvCommand::Cas {
                key: "a".into(),
                expect: "1".into(),
                new: "2".into()
            }),
            KvResponse::CasResult { swapped: true }
        );
        assert_eq!(
            kv.apply(&KvCommand::Cas {
                key: "a".into(),
                expect: "1".into(),
                new: "3".into()
            }),
            KvResponse::CasResult { swapped: false }
        );
        kv.apply(&KvCommand::Delete { key: "a".into() });
        assert_eq!(
            kv.apply(&KvCommand::Get { key: "a".into() }),
            KvResponse::Value(None)
        );
        assert_eq!(kv.applied(), 6);
    }

    #[test]
    fn kv_range_scans_in_order_with_limit() {
        let mut kv = KvStore::default();
        for k in ["b", "a", "d", "c", "~ctl"] {
            kv.apply(&put(k, &format!("v{k}")));
        }
        assert_eq!(
            kv.apply(&KvCommand::Range {
                start: "a".into(),
                end: "z".into(),
                limit: 10
            }),
            KvResponse::Entries(vec![
                ("a".into(), "va".into()),
                ("b".into(), "vb".into()),
                ("c".into(), "vc".into()),
                ("d".into(), "vd".into()),
            ]),
            "sorted, bounded, control keys above 'z' excluded"
        );
        assert_eq!(
            kv.apply(&KvCommand::Range {
                start: "b".into(),
                end: "d".into(),
                limit: 1
            }),
            KvResponse::Entries(vec![("b".into(), "vb".into())]),
            "limit truncates; end is exclusive"
        );
        assert_eq!(kv.scan("a", "c", 10).len(), 2);
        assert!(
            kv.scan("c", "a", 10).is_empty(),
            "inverted bounds are empty, not a panic"
        );
        assert_eq!(kv.applied(), 7, "ranges count as applied operations");
    }

    #[test]
    fn kv_digest_detects_divergence() {
        let mut a = KvStore::default();
        let mut b = KvStore::default();
        a.apply(&put("x", "1"));
        b.apply(&put("x", "2"));
        assert_ne!(a.digest(), b.digest());
        let mut c = KvStore::default();
        c.apply(&put("x", "1"));
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn log_applies_in_order_despite_out_of_order_decisions() {
        let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
        assert!(log.decide(2, 30).is_empty());
        assert!(log.decide(1, 20).is_empty());
        let out = log.decide(0, 10);
        // Deciding index 0 unblocks 1 and 2.
        assert_eq!(out, vec![(0, 10), (1, 30), (2, 60)]);
        assert_eq!(log.applied_len(), 3);
        assert_eq!(log.machine().total, 60);
    }

    #[test]
    fn log_decide_is_idempotent() {
        let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
        log.decide(0, 5);
        let again = log.decide(0, 5);
        assert!(again.is_empty());
        assert_eq!(log.machine().total, 5);
    }

    #[test]
    #[should_panic(expected = "safety violation")]
    fn log_panics_on_conflicting_decision() {
        let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
        log.decide(0, 5);
        log.decide(0, 6);
    }

    #[test]
    fn truncate_prefix_frees_applied_slots_only() {
        let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
        for i in 0..5 {
            log.decide(i, 1);
        }
        log.decide(7, 1); // gap at 5,6; 7 stays Decided
        assert_eq!(log.applied_len(), 5);
        let freed = log.truncate_prefix(10); // capped at applied prefix
        assert_eq!(freed, 5);
        assert_eq!(*log.slot(7), Slot::Decided(1));
        assert_eq!(log.machine().total, 5, "state machine keeps the effect");
    }

    #[test]
    fn retained_len_tracks_compaction() {
        let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
        for i in 0..6 {
            log.decide(i, 1);
        }
        assert_eq!(log.retained_len(), 6);
        log.truncate_prefix(4);
        assert_eq!(log.retained_len(), 2);
        assert_eq!(log.applied_len(), 6, "apply frontier unaffected");
    }

    #[test]
    fn install_replaces_machine_and_frontier() {
        let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
        log.decide(0, 3);
        let mut snap = Counter::default();
        snap.apply(&10);
        snap.apply(&32);
        let digest = snap.digest();
        log.install(snap, 2);
        assert_eq!(log.applied_len(), 2);
        assert_eq!(log.retained_len(), 0);
        assert_eq!(log.machine().total, 42);
        assert_eq!(log.machine().digest(), digest);
        // Decisions resume above the installed frontier.
        let out = log.decide(2, 8);
        assert_eq!(out, vec![(2, 50)]);
    }

    #[test]
    fn kv_restore_round_trips_digest() {
        let mut kv = KvStore::default();
        kv.apply(&put("a", "1"));
        kv.apply(&put("b", "2"));
        kv.apply(&KvCommand::Get { key: "a".into() });
        let entries = || kv.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let restored = KvStore::restore(entries(), kv.applied());
        assert_eq!(restored.digest(), kv.digest());
        // Applied count matters: same map, different history ⇒ different digest.
        assert_ne!(KvStore::restore(entries(), 2).digest(), kv.digest());
    }

    #[test]
    fn command_display() {
        let c = Command {
            client: 3,
            seq: 9,
            op: put("k", "v"),
        };
        assert_eq!(c.to_string(), "c3#9: put k=v");
    }

    proptest! {
        /// Two replicas applying any same command sequence in the same order
        /// reach identical digests (determinism — the SMR premise).
        #[test]
        fn prop_kv_determinism(ops in proptest::collection::vec(0u8..4, 0..40)) {
            let cmds: Vec<KvCommand> = ops.iter().enumerate().map(|(i, &o)| {
                let key: Str = format!("k{}", i % 5).into();
                match o {
                    0 => KvCommand::Put { key, value: format!("v{i}").into() },
                    1 => KvCommand::Get { key },
                    2 => KvCommand::Delete { key },
                    _ => KvCommand::Cas { key, expect: format!("v{}", i.saturating_sub(5)).into(), new: format!("w{i}").into() },
                }
            }).collect();
            let mut a = KvStore::default();
            let mut b = KvStore::default();
            let outs_a: Vec<_> = cmds.iter().map(|c| a.apply(c)).collect();
            let outs_b: Vec<_> = cmds.iter().map(|c| b.apply(c)).collect();
            prop_assert_eq!(outs_a, outs_b);
            prop_assert_eq!(a.digest(), b.digest());
        }

        /// The log applies every decided prefix exactly once, in index
        /// order, no matter in what order decisions arrive.
        #[test]
        fn prop_log_order_independence(order in Just((0..8usize).collect::<Vec<_>>()).prop_shuffle()) {
            let mut log: ReplicatedLog<Counter> = ReplicatedLog::new();
            let mut applied = Vec::new();
            for &i in &order {
                applied.extend(log.decide(i, i as i64 + 1).into_iter().map(|(i, _)| i));
            }
            prop_assert_eq!(log.applied_len(), 8);
            prop_assert_eq!(applied, (0..8).collect::<Vec<_>>());
        }
    }
}

/// The log operation every SMR protocol crate replicates: a leader-change
/// no-op, one client command, or several commands decided as one slot.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrOp {
    /// Gap filler proposed during leader recovery; applies nothing.
    Noop,
    /// A client command.
    Cmd(Command<KvCommand>),
    /// Several client commands decided as one slot (leader-side batching),
    /// applied in order.
    Batch(Vec<Command<KvCommand>>),
}

impl SmrOp {
    /// Wraps the commands of one slot: a singleton stays [`SmrOp::Cmd`], so
    /// unbatched runs are byte-identical on the wire and in the WAL.
    pub fn from_batch(mut cmds: impl ExactSizeIterator<Item = Command<KvCommand>>) -> Self {
        if cmds.len() == 1 {
            SmrOp::Cmd(cmds.next().expect("len 1"))
        } else {
            SmrOp::Batch(cmds.collect())
        }
    }

    /// The client commands this op carries, in apply order.
    pub fn commands(&self) -> &[Command<KvCommand>] {
        match self {
            SmrOp::Noop => &[],
            SmrOp::Cmd(cmd) => std::slice::from_ref(cmd),
            SmrOp::Batch(cmds) => cmds,
        }
    }
}

/// A key-value machine with built-in duplicate suppression: the client table
/// (last applied sequence number and cached reply per client) is part of the
/// deterministic state, so replicas dedup identically. Its state after a
/// command sequence does not depend on how the sequence was cut into
/// [`SmrOp`]s, so digests are comparable across batch configurations.
#[derive(Clone, Debug, Default)]
pub struct DedupKvMachine {
    kv: KvStore,
    client_table: BTreeMap<u32, (u64, KvResponse)>,
}

impl DedupKvMachine {
    /// Cached reply for `(client, seq)` if that command (or a later one from
    /// the same client) already applied.
    pub fn cached(&self, client: u32, seq: u64) -> Option<&KvResponse> {
        self.client_table
            .get(&client)
            .filter(|(s, _)| *s >= seq)
            .map(|(_, out)| out)
    }

    /// The underlying store.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The dedup table: per client, the last applied sequence number and
    /// its cached reply (snapshot serialization).
    pub fn client_table(&self) -> &BTreeMap<u32, (u64, KvResponse)> {
        &self.client_table
    }

    /// Rebuilds a machine from serialized parts. Digest-faithful: restoring
    /// the exact `kv` and `client_table` reproduces the original digest
    /// bit-for-bit, which snapshot codecs depend on.
    pub fn restore(kv: KvStore, client_table: BTreeMap<u32, (u64, KvResponse)>) -> Self {
        DedupKvMachine { kv, client_table }
    }

    /// Applies one command under the dedup rule: a `(client, seq)` at or
    /// below the client's last applied sequence number is answered from the
    /// client table without touching the store.
    pub fn apply_cmd(&mut self, cmd: &Command<KvCommand>) -> KvResponse {
        if let Some(out) = self.cached(cmd.client, cmd.seq) {
            return out.clone();
        }
        let out = self.kv.apply(&cmd.op);
        self.client_table.insert(cmd.client, (cmd.seq, out.clone()));
        out
    }
}

impl StateMachine for DedupKvMachine {
    type Op = SmrOp;
    /// One reply per command in the op (empty for no-ops).
    type Output = Vec<KvResponse>;

    fn apply(&mut self, op: &SmrOp) -> Vec<KvResponse> {
        op.commands().iter().map(|c| self.apply_cmd(c)).collect()
    }

    fn digest(&self) -> u64 {
        let mut h = self.kv.digest();
        for (c, (s, _)) in &self.client_table {
            h = h
                .rotate_left(7)
                .wrapping_add(u64::from(*c).wrapping_mul(31).wrapping_add(*s));
        }
        h
    }
}

#[cfg(test)]
mod dedup_tests {
    use super::tests::Recorder;
    use super::*;
    use proptest::prelude::*;

    fn cmd(client: u32, seq: u64, key: &str, value: &str) -> SmrOp {
        SmrOp::Cmd(Command {
            client,
            seq,
            op: KvCommand::Put {
                key: key.into(),
                value: value.into(),
            },
        })
    }

    #[test]
    fn duplicates_return_cached_output_without_reapplying() {
        let mut m = DedupKvMachine::default();
        m.apply(&cmd(1, 0, "k", "a"));
        let applied_before = m.kv().applied();
        let out = m.apply(&cmd(1, 0, "k", "a"));
        assert_eq!(out, vec![KvResponse::Ok]);
        assert_eq!(m.kv().applied(), applied_before, "no re-application");
    }

    #[test]
    fn noop_applies_nothing() {
        let mut m = DedupKvMachine::default();
        assert_eq!(m.apply(&SmrOp::Noop), vec![]);
        assert_eq!(m.kv().applied(), 0);
    }

    #[test]
    fn cached_respects_sequence_order() {
        let mut m = DedupKvMachine::default();
        m.apply(&cmd(2, 5, "k", "v"));
        assert!(m.cached(2, 5).is_some());
        assert!(m.cached(2, 4).is_some(), "older seqs count as applied");
        assert!(m.cached(2, 6).is_none());
        assert!(m.cached(3, 0).is_none());
    }

    #[test]
    fn restore_round_trips_digest() {
        let mut m = DedupKvMachine::default();
        m.apply(&cmd(1, 0, "k", "a"));
        m.apply(&cmd(2, 1, "j", "b"));
        let restored = DedupKvMachine::restore(m.kv().clone(), m.client_table().clone());
        assert_eq!(restored.digest(), m.digest());
        assert_eq!(restored.cached(1, 0), m.cached(1, 0));
    }

    #[test]
    fn digest_includes_client_table() {
        let mut a = DedupKvMachine::default();
        let mut b = DedupKvMachine::default();
        a.apply(&cmd(1, 0, "k", "v"));
        b.apply(&cmd(1, 1, "k", "v"));
        assert_ne!(a.digest(), b.digest(), "same kv, different client table");
    }

    #[test]
    fn a_decided_batch_shares_its_strings_with_the_store_and_the_replies() {
        let cmd = |seq, op| Command { client: 1, seq, op };
        let value: Str = "x".repeat(1024).into();
        let put = |seq, key: &str| {
            let (key, value) = (key.into(), value.clone());
            cmd(seq, KvCommand::Put { key, value })
        };
        let mut log: ReplicatedLog<DedupKvMachine> = ReplicatedLog::new();
        let issued = vec![put(0, "a"), put(1, "b")];
        log.decide(0, SmrOp::Batch(issued.clone()));
        let stored = log.machine().kv().get("b").expect("applied");
        assert!(Arc::ptr_eq(stored, &value), "apply must not copy the value");
        let outs = log.decide(1, SmrOp::Cmd(cmd(2, KvCommand::Get { key: "b".into() })));
        let [(1, reply)] = outs.as_slice() else {
            panic!("one slot applied: {outs:?}")
        };
        let [KvResponse::Value(Some(read))] = reply.as_slice() else {
            panic!("one read reply: {reply:?}")
        };
        assert!(
            Arc::ptr_eq(read, &value),
            "a read reply shares the stored value"
        );
        let cached = log.machine().cached(1, 2).expect("dedup cache");
        assert!(matches!(cached, KvResponse::Value(Some(v)) if Arc::ptr_eq(v, &value)));
    }

    #[test]
    fn the_apply_step_mirrors_a_duplicate_never_and_a_fresh_command_once() {
        let put = |client, seq, key: &str, value: &str| Command {
            client,
            seq,
            op: KvCommand::Put {
                key: key.into(),
                value: value.into(),
            },
        };
        let mut log: ReplicatedLog<DedupKvMachine> = ReplicatedLog::new();
        // Inside one batch: c1#1's retransmission after c2#1 wrote over it.
        log.record(
            0,
            SmrOp::Batch(vec![
                put(1, 1, "k", "a"),
                put(2, 1, "k", "b"),
                put(1, 1, "k", "a"),
            ]),
        );
        // Across two slots that apply in one pass: slot 2, decided first,
        // holds c1#2 again after slot 1 applied it.
        log.record(2, SmrOp::Cmd(put(1, 2, "k", "c")));
        log.record(1, SmrOp::Cmd(put(1, 2, "k", "c")));
        let mut index = Recorder::default();
        let mut replies = Vec::new();
        let mut slots = Vec::new();
        while let Some(slot) = log.apply_decided(Some(&mut index), |cmd, out| {
            replies.push((cmd.client, cmd.seq, out));
        }) {
            slots.push(slot);
        }
        assert_eq!(slots, [(0, false), (1, false), (2, false)]);
        assert_eq!(index.0, ["put k=a", "put k=b", "put k=c"]);
        assert_eq!(replies.len(), 5, "a duplicate is answered all the same");
        assert_eq!(log.machine().kv().get("k"), Some(&"c".into()));

        // A fresh write that resolves a decision record also logs it, and
        // the step says so: the caller syncs before the reply leaves.
        let decision = SmrOp::Cmd(put(3, 1, "~dec.t1.0", "commit"));
        assert!(log.apply(&decision, Some(&mut index), |_, _| {}));
        assert_eq!(
            index.0[3..],
            ["put ~dec.t1.0=commit", "decision ~dec.t1.0=commit"]
        );
    }

    #[test]
    fn singleton_batches_stay_cmd() {
        let one = |seq| Command {
            client: 1,
            seq,
            op: KvCommand::Get { key: "k".into() },
        };
        assert_eq!(SmrOp::from_batch([one(0)].into_iter()), SmrOp::Cmd(one(0)));
        assert_eq!(
            SmrOp::from_batch([one(0), one(1)].into_iter()),
            SmrOp::Batch(vec![one(0), one(1)])
        );
    }

    proptest! {
        /// Any chunking of one flattened command sequence into
        /// `Noop`/`Cmd`/`Batch` ops — duplicates of earlier `(client, seq)`s
        /// included — yields the same digest, the same store and the same
        /// per-command replies as applying the commands one at a time.
        #[test]
        fn prop_state_is_independent_of_how_commands_are_chunked(
            raw in proptest::collection::vec((0u32..3, 0u8..5, 0usize..4, 0u8..4), 1..40),
            cuts in proptest::collection::vec(0usize..5, 1..40),
        ) {
            let mut next_seq = [0u64; 3];
            let mut cmds: Vec<Command<KvCommand>> = Vec::new();
            for (i, &(client, kind, key, dup)) in raw.iter().enumerate() {
                if dup == 0 && !cmds.is_empty() {
                    // A retransmission decided again at a later position.
                    cmds.push(cmds[i % cmds.len()].clone());
                    continue;
                }
                let seq = next_seq[client as usize];
                next_seq[client as usize] += 1;
                let key: Str = format!("k{key}").into();
                let op = match kind {
                    0 => KvCommand::Put { key, value: format!("v{i}").into() },
                    1 => KvCommand::Get { key },
                    2 => KvCommand::Delete { key },
                    3 => KvCommand::Cas { key, expect: format!("v{}", i / 2).into(), new: format!("w{i}").into() },
                    _ => KvCommand::Range { start: "k0".into(), end: key, limit: 3 },
                };
                cmds.push(Command { client, seq, op });
            }

            let mut flat = DedupKvMachine::default();
            let flat_replies: Vec<KvResponse> = cmds.iter().map(|c| flat.apply_cmd(c)).collect();

            let mut chunked = DedupKvMachine::default();
            let mut replies = Vec::new();
            let mut rest = cmds.as_slice();
            for &cut in &cuts {
                let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                rest = tail;
                let op = match chunk {
                    [] => SmrOp::Noop,
                    [one] => SmrOp::Cmd(one.clone()),
                    many => SmrOp::Batch(many.to_vec()),
                };
                replies.extend(chunked.apply(&op));
            }
            replies.extend(chunked.apply(&SmrOp::Batch(rest.to_vec())));
            prop_assert_eq!(replies, flat_replies);
            prop_assert_eq!(chunked.digest(), flat.digest());
            prop_assert_eq!(
                chunked.kv().iter().collect::<Vec<_>>(),
                flat.kv().iter().collect::<Vec<_>>()
            );
        }
    }
}
