//! How a harness actor talks to a shard: one [`Port`] per router, one for the
//! recovery actor, one for the audit reader.
//!
//! A port is a sequential client of the shard logs. Its contract:
//!
//! * **At most once by `(client, seq)`.** [`Port::send`] allocates the next
//!   sequence number, records one history invoke and (when tracing) opens one
//!   root span; the shard's dedup table applies the command once however
//!   often it is broadcast.
//! * **Retransmit every [`RETRY_US`]** while no reply is visible, always under
//!   the op's original trace context, so a retransmission continues the same
//!   causal trace instead of starting a new one.
//! * **Completion is read from the dedup table** ([`ShardEngine::reply_for`]):
//!   [`Port::poll`] hands back every op some replica has applied, in
//!   submission order, after recording its one history completion and closing
//!   its root span.
//! * **A fast read keeps one history record.** [`Port::send_read`] aims a
//!   lease / read-index read at one replica; on a NACK, or after
//!   [`GEO_READ_TIMEOUT_US`] of silence, the same `(client, seq)` moves onto
//!   the log and completes there — the checker sees one read however it was
//!   served.
//!
//! Everything the store knows about *reaching* a shard — stub-client
//! injection, dedup-table peeking, the retry clock — is in this file, so the
//! day routers become simnet nodes exchanging real request/reply messages
//! (ROADMAP item 2), this file's inside is what changes; the routers, the
//! recovery actor and the audit reader keep calling `send` and `poll`.

use std::fmt;

use consensus_core::history::HistorySink;
use consensus_core::smr::{Command, KvCommand, KvResponse, Str};
use consensus_core::ReadMode;
use simnet::causal::cat;
use simnet::{TraceCtx, Tracer};

use crate::engine::ShardEngine;

/// Retransmit interval for unacknowledged submissions.
const RETRY_US: u64 = 25_000;
/// How long a silent fast-path geo read waits before falling back to the
/// ordinary log path. Generous enough to cover a WAN round trip plus a
/// read-index confirmation; a NACK falls back immediately.
const GEO_READ_TIMEOUT_US: u64 = 120_000;

/// One completed harness-level operation: which trace to attribute, over
/// what window, routed where. The raw material of the critical-path
/// analyzer.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Issuing harness client id (router / recovery / audit).
    pub client: u32,
    /// Client sequence number.
    pub seq: u64,
    /// Shard the op was routed to.
    pub shard: usize,
    /// Trace id of the op's root span.
    pub trace_id: u64,
    /// First-submission time (µs).
    pub started: u64,
    /// Reply-observed time (µs).
    pub finished: u64,
    /// Short label, e.g. `cas:decision`.
    pub label: String,
}

/// Classifies an op for span/record labels: verb plus the 2PC key class it
/// touches (`intent`/`decision`/`prepare`/`vote`), if any.
fn op_label(op: &KvCommand) -> String {
    let (verb, key) = match op {
        KvCommand::Put { key, .. } => ("put", key),
        KvCommand::Get { key } => ("get", key),
        KvCommand::Delete { key } => ("del", key),
        KvCommand::Cas { key, .. } => ("cas", key),
        KvCommand::Range { start, .. } => ("range", start),
    };
    let class = if key.starts_with("~txn.") {
        ":intent"
    } else if key.starts_with("~dec.") {
        ":decision"
    } else if key.starts_with("~prep.") {
        ":prepare"
    } else if key.starts_with("~vote.") {
        ":vote"
    } else {
        ""
    };
    format!("{verb}{class}")
}

/// Harness-side causal tracing: the site-0 tracer that mints per-operation
/// root spans, plus the completed-op records. Disabled — and free — unless
/// [`crate::Store::enable_tracing`] ran.
#[derive(Default)]
pub(crate) struct StoreTrace {
    pub tracer: Tracer,
    pub records: Vec<OpRecord>,
}

impl StoreTrace {
    /// Opens a root span for a submitted op and returns the context the
    /// shard-level spans will chain under.
    fn begin_op(&mut self, client: u32, seq: u64, op: &KvCommand, now: u64) -> Option<TraceCtx> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let name = format!("{} c{client}.{seq}", op_label(op));
        let id = self.tracer.record(0, 0, client, name, cat::OP, now, now);
        self.tracer.retag_root(id);
        Some(TraceCtx {
            trace_id: id,
            parent_span: 0,
            span_id: id,
        })
    }

    /// Closes the op's root span at reply time and records the op window.
    fn finish_op(&mut self, p: &Pending, client: u32, now: u64) {
        if let Some(tc) = p.tc {
            self.tracer.close(tc.span_id, now);
            self.records.push(OpRecord {
                client,
                seq: p.seq,
                shard: p.shard,
                trace_id: tc.trace_id,
                started: p.issued,
                finished: now,
                label: op_label(&p.op),
            });
        }
    }
}

/// What one harness step lends every actor it runs: the shard groups, the
/// causal tracer, the harness event trace, and the step's time.
pub(crate) struct Step<'a, E> {
    pub shards: &'a mut [E],
    pub causal: &'a mut StoreTrace,
    pub trace: &'a mut Vec<String>,
    pub now: u64,
}

impl<E> Step<'_, E> {
    /// Appends `t=<now> <line>` to the harness event trace.
    pub fn note(&mut self, line: fmt::Arguments<'_>) {
        self.trace.push(format!("t={} {line}", self.now));
    }
}

/// An outstanding submission awaiting its reply.
#[derive(Clone, Debug)]
pub(crate) struct Pending {
    pub shard: usize,
    pub seq: u64,
    pub op: KvCommand,
    /// First submission time — the op's root-span start.
    pub issued: u64,
    /// Geo reads only: where the fast path stands.
    pub fast: Option<FastRead>,
    /// Last (re)transmission time — drives the retry clock.
    sent: u64,
    /// Root trace context, when tracing is on.
    tc: Option<TraceCtx>,
}

/// The fast-path half of a geo read.
#[derive(Clone, Debug)]
pub(crate) struct FastRead {
    /// Region whose stub client sends the read.
    region: usize,
    /// The replica the read was last aimed at.
    pub target: usize,
    /// `None` while the lease / read-index path may still answer; then how
    /// the read was served — the fast mode, or [`ReadMode::Log`] once a NACK
    /// or silence moved it onto the log.
    pub mode: Option<ReadMode>,
}

impl Pending {
    /// (Re)sends the op on the path it is on.
    fn transmit<E: ShardEngine>(&mut self, client: u32, shard: &mut E, now: u64) {
        self.sent = now;
        match (&mut self.fast, &self.op) {
            (Some(fast), KvCommand::Get { key }) if fast.mode.is_none() => {
                // Resolve the target afresh each time: leadership may have
                // moved since the last attempt.
                fast.target = shard.read_target(fast.region);
                shard.submit_read(client, self.seq, key, fast.target, fast.region);
            }
            _ => {
                let (seq, op) = (self.seq, self.op.clone());
                shard.submit(Command { client, seq, op }, self.tc);
            }
        }
    }

    /// The op's reply, if some replica has one. A fast read that was NACKed,
    /// or has been silent too long, moves onto the log here.
    fn reply<E: ShardEngine>(
        &mut self,
        client: u32,
        shard: &mut E,
        now: u64,
    ) -> Option<KvResponse> {
        let Some(fast) = self.fast.as_mut().filter(|f| f.mode.is_none()) else {
            return shard.reply_for(client, self.seq);
        };
        match shard.read_reply(client, self.seq) {
            Some((value, mode)) if mode != ReadMode::Nack => {
                fast.mode = Some(mode);
                Some(KvResponse::Value(value))
            }
            reply => {
                let timed_out = now.saturating_sub(self.issued) >= GEO_READ_TIMEOUT_US;
                if reply.is_some() || timed_out {
                    // Same `(client, seq)`, no second history invoke: the
                    // checker sees one read however it is served.
                    fast.mode = Some(ReadMode::Log);
                    self.transmit(client, shard, now);
                }
                None
            }
        }
    }
}

/// One harness actor's connection to the shard logs (see the module docs for
/// the contract).
pub(crate) struct Port {
    client: u32,
    seq: u64,
    pending: Vec<Pending>,
    history: HistorySink,
}

impl Port {
    pub fn new(client: u32) -> Self {
        Port {
            client,
            seq: 0,
            pending: Vec::new(),
            history: HistorySink::new(),
        }
    }

    pub fn client(&self) -> u32 {
        self.client
    }

    /// Whether no op is outstanding.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Invoke/response history of every op this port ever sent.
    pub fn history(&self) -> &HistorySink {
        &self.history
    }

    /// Forgets every outstanding op — the actor crashed. Their history
    /// invokes stay open: they may or may not have taken effect.
    pub fn forget_pending(&mut self) {
        self.pending.clear();
    }

    /// Submits `op` to `shard`'s log under the next sequence number.
    pub fn send<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>, shard: usize, op: KvCommand) {
        self.open(cx, shard, op, None);
    }

    /// Submits a linearizable read of `key` on `shard`'s fast path, sent from
    /// `region`; it falls back to the log by itself. Returns the replica it
    /// is first aimed at.
    pub fn send_read<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        shard: usize,
        key: Str,
        region: usize,
    ) -> usize {
        let target = cx.shards[shard].read_target(region);
        let fast = FastRead {
            region,
            target,
            mode: None,
        };
        self.open(cx, shard, KvCommand::Get { key }, Some(fast));
        target
    }

    /// Opens the op — sequence number, history invoke, root span — and sends
    /// it for the first time.
    fn open<E: ShardEngine>(
        &mut self,
        cx: &mut Step<'_, E>,
        shard: usize,
        op: KvCommand,
        fast: Option<FastRead>,
    ) {
        self.seq += 1;
        self.history
            .invoke(self.client, self.seq, op.clone(), cx.now);
        let mut p = Pending {
            shard,
            seq: self.seq,
            tc: cx.causal.begin_op(self.client, self.seq, &op, cx.now),
            op,
            issued: cx.now,
            sent: cx.now,
            fast,
        };
        p.transmit(self.client, &mut cx.shards[shard], cx.now);
        self.pending.push(p);
    }

    /// Completes every outstanding op some replica has a reply for, in
    /// submission order, and retransmits the stale ones.
    pub fn poll<E: ShardEngine>(&mut self, cx: &mut Step<'_, E>) -> Vec<(Pending, KvResponse)> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            let p = &mut self.pending[i];
            let shard = &mut cx.shards[p.shard];
            if let Some(resp) = p.reply(self.client, shard, cx.now) {
                self.history
                    .complete(self.client, p.seq, cx.now, resp.clone());
                let p = self.pending.remove(i);
                cx.causal.finish_op(&p, self.client, cx.now);
                done.push((p, resp));
            } else {
                if cx.now.saturating_sub(p.sent) >= RETRY_US {
                    // Retransmissions continue the op's original trace.
                    p.transmit(self.client, shard, cx.now);
                }
                i += 1;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{get, put, QUANTUM_US};
    use crate::engine::ShardBuildSpec;
    use consensus_core::driver::BatchConfig;
    use paxos::MultiPaxosCluster;
    use raft::RaftCluster;
    use simnet::{NetConfig, Time};

    /// A few real 3-replica shard groups and the rest of a step context.
    struct Rig<E> {
        shards: Vec<E>,
        causal: StoreTrace,
        trace: Vec<String>,
        now: u64,
    }

    impl<E: ShardEngine> Rig<E> {
        fn new(n_shards: u64) -> Self {
            let spec =
                |s| ShardBuildSpec::new(3, BatchConfig::unbatched(), NetConfig::lan(), 7 + s);
            let shards: Vec<E> = (0..n_shards).map(|s| E::build_shard(&spec(s))).collect();
            let (causal, trace) = (StoreTrace::default(), Vec::new());
            Rig {
                shards,
                causal,
                trace,
                now: 0,
            }
        }

        /// Runs the shards `micros` further without polling anything.
        fn run(&mut self, micros: u64) {
            self.now += micros;
            for s in &mut self.shards {
                s.run_until(Time(self.now));
            }
        }

        fn cx(&mut self) -> Step<'_, E> {
            Step {
                shards: &mut self.shards,
                causal: &mut self.causal,
                trace: &mut self.trace,
                now: self.now,
            }
        }

        /// One harness step: a quantum of shard time, then a poll.
        fn step(&mut self, port: &mut Port) -> Vec<(Pending, KvResponse)> {
            self.run(QUANTUM_US);
            assert!(self.now < 5_000_000, "op never completed");
            port.poll(&mut self.cx())
        }
    }

    /// Stub injection bypasses the network model, so loss cannot take the
    /// first broadcast; sending it before any replica leads does — every
    /// replica turns it away, and only a retransmission can complete the op.
    fn unanswered_broadcast_is_retransmitted_and_completes_once<E: ShardEngine>() {
        let mut rig = Rig::<E>::new(1);
        rig.causal.tracer.enable(0);
        rig.shards[0].enable_tracing(1);
        let mut port = Port::new(7);
        port.send(&mut rig.cx(), 0, put("k".into(), "v"));
        let mut done = Vec::new();
        while rig.now + QUANTUM_US < RETRY_US {
            done.extend(rig.step(&mut port));
        }
        assert!(done.is_empty(), "no replica led when the broadcast arrived");
        while done.is_empty() {
            done.extend(rig.step(&mut port));
        }
        // Nothing completes twice however long the port keeps polling.
        for _ in 0..2 * RETRY_US / QUANTUM_US {
            done.extend(rig.step(&mut port));
        }
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].0.seq, &done[0].1), (1, &KvResponse::Ok));
        assert!(port.idle());
        let history = port.history().records();
        assert_eq!(history.len(), 1, "one invoke");
        assert_eq!((history[0].client, history[0].seq), (7, 1));
        assert!(history[0].is_complete(), "one complete");
        // One root span, and the retransmission rode under it.
        assert_eq!(rig.causal.tracer.spans().len(), 1);
        assert_eq!(rig.causal.records.len(), 1);
        let root = rig.causal.records[0].trace_id;
        let resent = |s: &simnet::CausalSpan| s.trace_id == root && s.start >= RETRY_US;
        assert!(rig.shards[0].causal_spans().iter().any(resent));
    }

    #[test]
    fn paxos_unanswered_broadcast_is_retransmitted_and_completes_once() {
        unanswered_broadcast_is_retransmitted_and_completes_once::<MultiPaxosCluster>();
    }

    #[test]
    fn raft_unanswered_broadcast_is_retransmitted_and_completes_once() {
        unanswered_broadcast_is_retransmitted_and_completes_once::<RaftCluster>();
    }

    /// The dedup table keeps one reply per client, so a port has at most one
    /// op per shard in flight; three shards give three concurrent ops.
    fn poll_completes_in_submission_order<E: ShardEngine>() {
        let mut rig = Rig::<E>::new(3);
        rig.run(20_000);
        let mut port = Port::new(7);
        port.send(&mut rig.cx(), 2, put("a".into(), "1"));
        port.send(&mut rig.cx(), 0, put("b".into(), "2"));
        port.send(&mut rig.cx(), 1, get("c".into()));
        rig.run(10_000); // all three applied before the first poll
        let done = port.poll(&mut rig.cx());
        let order: Vec<(u64, usize)> = done.iter().map(|(p, _)| (p.seq, p.shard)).collect();
        assert_eq!(order, [(1, 2), (2, 0), (3, 1)]);
        assert_eq!(done[2].1, KvResponse::Value(None));
        assert!(port.idle());
    }

    #[test]
    fn paxos_poll_completes_in_submission_order() {
        poll_completes_in_submission_order::<MultiPaxosCluster>();
    }

    #[test]
    fn raft_poll_completes_in_submission_order() {
        poll_completes_in_submission_order::<RaftCluster>();
    }

    /// At time zero no replica can prove a fast read safe — a Multi-Paxos
    /// replica holds no lease, a Raft replica knows no leader — so it NACKs.
    fn nacked_fast_read_completes_through_the_log<E: ShardEngine>() {
        let mut rig = Rig::<E>::new(1);
        let mut port = Port::new(7);
        port.send_read(&mut rig.cx(), 0, "k".into(), 0);
        let mut done = Vec::new();
        while done.is_empty() {
            done.extend(rig.step(&mut port));
        }
        assert!(rig.now < GEO_READ_TIMEOUT_US, "fell back on the NACK");
        let (p, resp) = &done[0];
        assert_eq!(p.fast.as_ref().and_then(|f| f.mode), Some(ReadMode::Log));
        assert_eq!(*resp, KvResponse::Value(None));
        let history = port.history().records();
        assert_eq!(history.len(), 1, "one read, however it was served");
        assert_eq!((history[0].client, history[0].seq), (7, 1));
        assert_eq!(history[0].response(), Some(resp));
    }

    #[test]
    fn paxos_nacked_fast_read_completes_through_the_log() {
        nacked_fast_read_completes_through_the_log::<MultiPaxosCluster>();
    }

    #[test]
    fn raft_nacked_fast_read_completes_through_the_log() {
        nacked_fast_read_completes_through_the_log::<RaftCluster>();
    }
}
