//! Client-visible operation histories.
//!
//! A *history* is the external record of a run: for every client operation,
//! when it was invoked, and (if the client heard back) when it completed and
//! with what response. Safety checkers consume histories instead of poking at
//! protocol internals — linearizability (Herlihy & Wing) is *defined* over
//! exactly this invoke/response structure, and validity ("only proposed
//! values are decided") needs the set of operations clients actually issued.
//!
//! Cluster drivers own one [`HistorySink`] per client; the nemesis harness
//! collects and merges them after a run. Recording is append-only and cheap
//! enough to leave on unconditionally.

use std::fmt;

use crate::smr::{KvCommand, KvResponse};

/// The lifecycle of one client operation.
///
/// `(client, seq)` is the operation's identity — the same pair protocols use
/// for deduplication — so a record can be matched against what ended up in a
/// replicated log. An operation with `completed == None` was invoked but
/// never acknowledged; a linearizability checker must consider both the
/// possibility that it took effect and that it was lost.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientRecord {
    /// Issuing client id.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u64,
    /// The operation itself.
    pub op: KvCommand,
    /// Invocation time (simulated µs).
    pub invoked: u64,
    /// Completion time and the response the client accepted, if any.
    pub completed: Option<(u64, KvResponse)>,
}

impl ClientRecord {
    /// Whether the client observed a response.
    pub fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// Completion time, if the operation completed.
    pub fn completed_at(&self) -> Option<u64> {
        self.completed.as_ref().map(|&(t, _)| t)
    }

    /// The response, if the operation completed.
    pub fn response(&self) -> Option<&KvResponse> {
        self.completed.as_ref().map(|(_, r)| r)
    }
}

/// Append-only recorder of one client's invoke/response events.
///
/// Retransmissions are *not* new invocations: `invoke` is called once per
/// fresh operation, and a duplicate `(client, seq)` invoke (or a completion
/// for an operation that was never invoked or already completed) is ignored
/// rather than corrupting the history. A client's `seq`s only grow, so a
/// fresh invoke is told from a duplicate without a search, and a completion
/// searches back only over the ops invoked after it: a sink that records a
/// whole run of one router's ops stays linear.
#[derive(Clone, Default)]
pub struct HistorySink {
    records: Vec<ClientRecord>,
    /// Each client's highest invoked `seq`; one entry per client, and a
    /// sink rarely holds more than one client.
    newest: Vec<(u32, u64)>,
}

/// The records alone: `newest` is derived from them.
impl fmt::Debug for HistorySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistorySink")
            .field("records", &self.records)
            .finish()
    }
}

impl HistorySink {
    /// An empty sink.
    pub fn new() -> Self {
        HistorySink::default()
    }

    /// Records the invocation of a fresh operation.
    pub fn invoke(&mut self, client: u32, seq: u64, op: KvCommand, at: u64) {
        match self.newest.iter().position(|&(c, _)| c == client) {
            None => self.newest.push((client, seq)),
            Some(i) if seq > self.newest[i].1 => self.newest[i].1 = seq,
            Some(_) if self.find(client, seq).is_some() => return, // retransmission
            Some(_) => {}
        }
        self.records.push(ClientRecord {
            client,
            seq,
            op,
            invoked: at,
            completed: None,
        });
    }

    /// Records the completion of a previously invoked operation.
    pub fn complete(&mut self, client: u32, seq: u64, at: u64, response: KvResponse) {
        if let Some(i) = self.find(client, seq) {
            if self.records[i].completed.is_none() {
                self.records[i].completed = Some((at, response));
            }
        }
    }

    fn find(&self, client: u32, seq: u64) -> Option<usize> {
        let &(_, newest) = self.newest.iter().find(|(c, _)| *c == client)?;
        if seq > newest {
            return None; // never invoked
        }
        // The op being completed is almost always among the newest records.
        self.records
            .iter()
            .rposition(|r| r.client == client && r.seq == seq)
    }

    /// All records, in invocation order.
    pub fn records(&self) -> &[ClientRecord] {
        &self.records
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merges several per-client sinks into one history, ordered by
    /// invocation time (ties broken by client id for determinism).
    pub fn merge<'a, I>(sinks: I) -> Vec<ClientRecord>
    where
        I: IntoIterator<Item = &'a HistorySink>,
    {
        let mut all: Vec<ClientRecord> = sinks
            .into_iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        all.sort_by_key(|r| (r.invoked, r.client, r.seq));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(k: &str, v: &str) -> KvCommand {
        KvCommand::Put {
            key: k.into(),
            value: v.into(),
        }
    }

    #[test]
    fn records_invoke_and_complete() {
        let mut h = HistorySink::new();
        h.invoke(1, 0, put("a", "x"), 100);
        assert_eq!(h.len(), 1);
        assert!(!h.records()[0].is_complete());
        h.complete(1, 0, 900, KvResponse::Ok);
        assert_eq!(h.records()[0].completed_at(), Some(900));
        assert_eq!(h.records()[0].response(), Some(&KvResponse::Ok));
    }

    #[test]
    fn duplicate_invokes_and_completions_are_ignored() {
        let mut h = HistorySink::new();
        h.invoke(1, 0, put("a", "x"), 100);
        h.invoke(1, 0, put("a", "x"), 500); // retransmission
        assert_eq!(h.len(), 1);
        assert_eq!(h.records()[0].invoked, 100);
        h.complete(1, 0, 900, KvResponse::Ok);
        h.complete(1, 0, 950, KvResponse::Value(None)); // late duplicate reply
        assert_eq!(h.records()[0].response(), Some(&KvResponse::Ok));
        // Completing an unknown op does nothing.
        h.complete(2, 7, 1000, KvResponse::Ok);
        h.complete(1, 9, 1000, KvResponse::Ok);
        assert_eq!(h.len(), 1);
        // A fresh op below the client's newest seq is still recorded, once.
        h.invoke(1, 5, put("b", "y"), 1100);
        h.invoke(1, 3, put("c", "z"), 1200);
        h.invoke(1, 3, put("c", "z"), 1300);
        h.complete(1, 3, 1400, KvResponse::Ok);
        let ops: Vec<_> = h.records().iter().map(|r| (r.seq, r.invoked)).collect();
        assert_eq!(ops, [(0, 100), (5, 1100), (3, 1200)]);
        assert_eq!(h.records()[2].completed_at(), Some(1400));
    }

    /// Seven clients' ops interleaved in one long sink: every op invoked,
    /// then retransmitted; most completed, then answered again late; some
    /// completed only late, the last of those never; completions for a
    /// client that invoked nothing.
    #[test]
    fn ten_thousand_ops_keep_the_first_invoke_and_the_first_completion() {
        let mut h = HistorySink::new();
        let n = 10_000u64;
        let id = |i: u64| ((i % 7) as u32, i / 7);
        for i in 0..n {
            let (client, seq) = id(i);
            h.invoke(client, seq, put("k", "v"), i);
            if i >= 3 {
                // A retransmission of an op three back.
                let (c, s) = id(i - 3);
                h.invoke(c, s, put("k", "retry"), i + n);
            }
            if i % 5 != 4 {
                h.complete(client, seq, 2 * n + i, KvResponse::Ok);
            }
            if i >= 10 {
                // A late duplicate reply for an op ten back.
                let (c, s) = id(i - 10);
                h.complete(c, s, 4 * n + i, KvResponse::Value(None));
            }
            // An op no one invoked.
            h.complete(99, i, 5 * n, KvResponse::Ok);
        }
        assert_eq!(h.len(), n as usize);
        for (i, r) in (0..n).zip(h.records()) {
            assert_eq!((r.client, r.seq), id(i));
            assert_eq!(r.invoked, i);
            assert_eq!(r.op, put("k", "v"));
            let want = if i % 5 != 4 {
                Some((2 * n + i, KvResponse::Ok))
            } else if i + 10 < n {
                Some((4 * n + i + 10, KvResponse::Value(None)))
            } else {
                None
            };
            assert_eq!(r.completed, want, "op {i}");
        }
    }

    #[test]
    fn merge_orders_by_invocation_time() {
        let mut a = HistorySink::new();
        a.invoke(0, 0, put("k", "1"), 300);
        let mut b = HistorySink::new();
        b.invoke(1, 0, put("k", "2"), 100);
        b.invoke(1, 1, put("k", "3"), 300);
        let merged = HistorySink::merge([&a, &b]);
        assert_eq!(merged.len(), 3);
        assert_eq!((merged[0].client, merged[0].invoked), (1, 100));
        // Tie at t=300 broken by client id.
        assert_eq!(merged[1].client, 0);
        assert_eq!(merged[2].client, 1);
    }
}
