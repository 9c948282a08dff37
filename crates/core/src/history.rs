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
/// rather than corrupting the history.
#[derive(Clone, Debug, Default)]
pub struct HistorySink {
    records: Vec<ClientRecord>,
}

impl HistorySink {
    /// An empty sink.
    pub fn new() -> Self {
        HistorySink::default()
    }

    /// Records the invocation of a fresh operation.
    pub fn invoke(&mut self, client: u32, seq: u64, op: KvCommand, at: u64) {
        if self.find(client, seq).is_some() {
            return; // retransmission, already recorded
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
        // The op being completed is almost always the newest record.
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
        assert_eq!(h.len(), 1);
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
