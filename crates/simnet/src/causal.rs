//! Causal distributed tracing: follow one request across nodes, messages,
//! and disk flushes, then attribute its end-to-end latency to named buckets.
//!
//! The existing [`crate::SpanEvent`] layer tags *consensus instances* with
//! C&C phases; this module tags *causal chains*. A [`TraceCtx`] rides in the
//! message envelope: every send made while handling a traced delivery
//! automatically inherits the delivery's context, so the simulator can
//! reconstruct "request → accept fan-out → ack → decide → reply" trees
//! without any protocol cooperation. Protocols opt in further by opening
//! root spans ([`crate::Context::trace_begin`]), recording queueing delay
//! ([`crate::Context::trace_span_since`]) and modeled device time
//! ([`crate::Context::charge_io`]).
//!
//! Tracing is **off by default and changes nothing when off**: the context
//! is plain data carried next to the message, no RNG draws, no timing.
//!
//! Post-run, [`attribute_window`] walks the spans of one trace and charges
//! every microsecond of a window to exactly one bucket (NIC serialization,
//! network flight per C&C phase, WAL fsync, batch queueing, …), so the
//! bucket sums reconcile against measured end-to-end latency by
//! construction. [`chrome_trace`] and [`folded_stacks`] export the same
//! spans for Perfetto / `chrome://tracing` and flamegraph tooling.

use std::collections::{BTreeMap, HashMap};

use crate::trace::{SpanEvent, SpanKind, TraceEntry, TraceEvent};

/// Bucket names used for critical-path attribution. Every span carries one
/// as its category; [`attribute_window`] reports time per bucket under
/// these exact labels.
pub mod cat {
    /// Sender-side NIC serialization (transmit-path occupancy).
    pub const NIC: &str = "nic";
    /// Network propagation of a message not tied to a consensus phase.
    pub const FLIGHT: &str = "net-flight";
    /// Commands parked in a leader's batch/flush queue.
    pub const QUEUE: &str = "client-queue";
    /// Modeled WAL/group-commit device time.
    pub const FSYNC: &str = "wal-fsync";
    /// Coordinator (router) think time between operations — assigned by
    /// the store-level analyzer, never by the simulator itself.
    pub const COORD: &str = "coord-think";
    /// Window time no span of any trace accounts for.
    pub const UNTRACED: &str = "untraced";
    /// A root (request-scope) span; a container, excluded from attribution.
    pub const OP: &str = "op";
    /// An instantaneous annotation; excluded from attribution.
    pub const MARK: &str = "mark";
}

/// The causal context carried in a message envelope: which trace the
/// message belongs to and which span caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace (request) identity — the id of the root span.
    pub trace_id: u64,
    /// Parent of `span_id` (0 = none).
    pub parent_span: u64,
    /// The span this context currently executes under.
    pub span_id: u64,
}

/// One completed (or instantaneous) span of a causal trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalSpan {
    /// Trace the span belongs to (0 = orphan: activity with no root).
    pub trace_id: u64,
    /// Unique span id (unique across sims via the tracer's site tag).
    pub id: u64,
    /// Causal parent span (0 = none).
    pub parent: u64,
    /// Node the span is attributed to (tid in the Chrome export).
    pub node: u32,
    /// Tracer site — which sim/harness emitted it (pid in the export).
    pub site: u32,
    /// Human-readable name, e.g. `net:accept`.
    pub name: String,
    /// Attribution bucket (one of the [`cat`] constants or a C&C phase
    /// label).
    pub cat: &'static str,
    /// Start time (µs).
    pub start: u64,
    /// End time (µs), `>= start`; equal for instantaneous spans.
    pub end: u64,
}

/// Allocates span ids and accumulates [`CausalSpan`]s for one sim or
/// harness. Disabled by default; when disabled every recording call is a
/// no-op so traced and untraced runs are timing-identical.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    site: u32,
    serial: u64,
    spans: Vec<CausalSpan>,
}

impl Tracer {
    /// A disabled tracer (site 0).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Enables recording under the given site tag. Site tags keep span ids
    /// unique when several sims contribute to one trace (the store harness
    /// is site 0, shard `s` is site `s + 1`).
    pub fn enable(&mut self, site: u32) {
        self.enabled = true;
        self.site = site;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The site tag.
    pub fn site(&self) -> u32 {
        self.site
    }

    /// Allocates a fresh span id: `(site + 1) << 40 | serial`, so ids from
    /// different sites never collide and id 0 stays "none".
    pub fn alloc_id(&mut self) -> u64 {
        self.serial += 1;
        ((u64::from(self.site) + 1) << 40) | self.serial
    }

    /// Records a span and returns its id (0 when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: u64,
        node: u32,
        name: String,
        cat: &'static str,
        start: u64,
        end: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.alloc_id();
        let site = self.site;
        self.spans.push(CausalSpan {
            trace_id,
            id,
            parent,
            node,
            site,
            name,
            cat,
            start,
            end: end.max(start),
        });
        id
    }

    /// Marks the span with the given id as a trace root: its trace id
    /// becomes its own id (unknowable before allocation).
    pub fn retag_root(&mut self, id: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.trace_id = id;
        }
    }

    /// Extends the end time of the span with the given id (used to close
    /// root spans when the response is observed).
    pub fn close(&mut self, id: u64, end: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end = s.end.max(end);
        }
    }

    /// All recorded spans, in emission order.
    pub fn spans(&self) -> &[CausalSpan] {
        &self.spans
    }
}

/// Maps a message kind to its attribution bucket: consensus-phase traffic
/// lands in the C&C phase labels, everything else in [`cat::FLIGHT`].
pub fn bucket_for_kind(kind: &str) -> &'static str {
    match kind {
        "prepare" | "promise" | "prepare-ack" | "pre-prepare" => "value-discovery",
        "accept" | "accepted" | "append-entries" | "append-response" | "heartbeat"
        | "commit" | "vote" => "agreement",
        "decide" | "decision" => "decision",
        "request-vote" | "vote-response" | "view-change" | "new-view" => "leader-election",
        _ => cat::FLIGHT,
    }
}

fn priority(c: &str) -> u32 {
    match c {
        cat::FSYNC => 6,
        cat::NIC => 5,
        cat::QUEUE => 4,
        "leader-election" | "value-discovery" | "agreement" | "decision" => 3,
        cat::FLIGHT => 2,
        _ => 1,
    }
}

/// Charges every microsecond of `[start, end)` to exactly one bucket.
///
/// At each instant the highest-priority active span wins; spans of the
/// requested trace always beat spans of other traces (which serve as a
/// fallback — e.g. a batched command whose slot's consensus traffic is
/// tagged with a batch-mate's trace still sees its wait classified as
/// agreement time, and an op stalled behind a leader election is charged
/// to `leader-election` even though election traffic has no trace).
/// Instants covered by no span at all land in [`cat::UNTRACED`], so bucket
/// sums always equal `end - start` exactly.
pub fn attribute_window(
    spans: &[CausalSpan],
    trace_id: u64,
    start: u64,
    end: u64,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    if end <= start {
        return out;
    }
    // Candidate spans: nonzero overlap with the window, attributable cat.
    let active: Vec<&CausalSpan> = spans
        .iter()
        .filter(|s| s.cat != cat::OP && s.cat != cat::MARK)
        .filter(|s| s.end > start && s.start < end && s.end > s.start)
        .collect();
    let mut cuts: Vec<u64> = Vec::with_capacity(active.len() * 2 + 2);
    cuts.push(start);
    cuts.push(end);
    for s in &active {
        cuts.push(s.start.clamp(start, end));
        cuts.push(s.end.clamp(start, end));
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let best = active
            .iter()
            .filter(|s| s.start <= a && s.end >= b)
            .map(|s| (u32::from(s.trace_id == trace_id), priority(s.cat), s.cat))
            .max();
        let bucket = best.map_or(cat::UNTRACED, |(_, _, c)| c);
        *out.entry(bucket).or_insert(0) += b - a;
    }
    out
}

fn escape(s: &str) -> String {
    // Span names are generated ASCII identifiers; escape the JSON
    // metacharacters anyway so the export is valid for any input.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders spans as Chrome `trace_event` JSON (the format Perfetto and
/// `chrome://tracing` load). Complete events (`ph:"X"`), timestamps in µs,
/// `pid` = tracer site, `tid` = node. Output is built with deterministic
/// manual formatting so same-seed runs export byte-identical documents.
pub fn chrome_trace(spans: &[CausalSpan]) -> String {
    let mut ordered: Vec<&CausalSpan> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start, s.site, s.id));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in ordered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
            escape(&s.name),
            s.cat,
            s.start,
            s.end - s.start,
            s.site,
            s.node,
            s.trace_id,
            s.id,
            s.parent
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders spans as flamegraph folded stacks: one `root;…;leaf self_µs`
/// line per span with nonzero self time, sorted. Self time is the span's
/// duration minus its children's.
pub fn folded_stacks(spans: &[CausalSpan]) -> String {
    let by_id: HashMap<u64, &CausalSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_time: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            *child_time.entry(s.parent).or_insert(0) += s.end - s.start;
        }
    }
    let mut lines: Vec<String> = Vec::new();
    for s in spans {
        let own = (s.end - s.start)
            .saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
        if own == 0 {
            continue;
        }
        let mut stack = vec![s.name.as_str()];
        let mut cur = s.parent;
        // Depth cap guards against malformed parent cycles.
        for _ in 0..64 {
            match by_id.get(&cur) {
                Some(p) => {
                    stack.push(p.name.as_str());
                    cur = p.parent;
                }
                None => break,
            }
        }
        stack.reverse();
        lines.push(format!("{} {own}", stack.join(";")));
    }
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Renders a message trace plus span events as Chrome `trace_event` JSON —
/// the generic exporter for sims without causal instrumentation (nemesis
/// counterexample replays use it for every target). Message sends/delivers
/// and span events become instant events (`ph:"i"`).
pub fn export_events(trace: &[TraceEntry], spans: &[SpanEvent]) -> String {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Item {
        ts: u64,
        seq: usize,
        tid: u32,
        name: String,
    }
    let mut items: Vec<Item> = Vec::with_capacity(trace.len() + spans.len());
    for (seq, t) in trace.iter().enumerate() {
        let verb = match t.event {
            TraceEvent::Send => "send",
            TraceEvent::Deliver => "deliver",
            TraceEvent::Drop => "drop",
            TraceEvent::Crash => "crash",
            TraceEvent::Restart => "restart",
        };
        let name = if t.kind.is_empty() {
            verb.to_string()
        } else {
            format!("{verb}:{}:n{}→n{}", t.kind, t.from.0, t.to.0)
        };
        items.push(Item {
            ts: t.time.0,
            seq,
            tid: t.to.0,
            name,
        });
    }
    for (seq, s) in spans.iter().enumerate() {
        let what = match s.kind {
            SpanKind::Open => "open".to_string(),
            SpanKind::Phase(p) => format!("phase={}", p.label()),
            SpanKind::Close => "close".to_string(),
        };
        items.push(Item {
            ts: s.time.0,
            seq: trace.len() + seq,
            tid: s.node.0,
            name: format!("{}/{} r{} {what}", s.protocol, s.instance, s.round),
        });
    }
    items.sort();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            escape(&it.name),
            it.ts,
            it.tid
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, cat: &'static str, start: u64, end: u64) -> CausalSpan {
        CausalSpan {
            trace_id: trace,
            id,
            parent: 0,
            node: 0,
            site: 0,
            name: format!("s{id}"),
            cat,
            start,
            end,
        }
    }

    #[test]
    fn tracer_disabled_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.record(1, 0, 0, "x".into(), cat::NIC, 0, 5), 0);
        assert!(t.spans().is_empty());
        t.enable(2);
        let id = t.record(1, 0, 0, "x".into(), cat::NIC, 0, 5);
        assert_eq!(id, 3 << 40 | 1);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn attribution_covers_window_exactly() {
        let spans = vec![
            span(7, 1, cat::NIC, 0, 10),
            span(7, 2, "agreement", 10, 40),
            span(7, 3, cat::FSYNC, 30, 45),
        ];
        let b = attribute_window(&spans, 7, 0, 60);
        assert_eq!(b.get(cat::NIC), Some(&10));
        assert_eq!(b.get("agreement"), Some(&20)); // 10..30 (fsync wins 30..40)
        assert_eq!(b.get(cat::FSYNC), Some(&15));
        assert_eq!(b.get(cat::UNTRACED), Some(&15)); // 45..60
        assert_eq!(b.values().sum::<u64>(), 60);
    }

    #[test]
    fn own_trace_beats_other_traces_but_fallback_applies() {
        let spans = vec![
            span(7, 1, cat::FLIGHT, 0, 10),
            span(9, 2, cat::FSYNC, 0, 10),   // other trace, higher priority
            span(9, 3, "agreement", 10, 20), // other trace, sole coverage
        ];
        let b = attribute_window(&spans, 7, 0, 20);
        assert_eq!(b.get(cat::FLIGHT), Some(&10), "own trace wins its interval");
        assert_eq!(b.get("agreement"), Some(&10), "foreign spans classify gaps");
        assert_eq!(b.values().sum::<u64>(), 20);
    }

    #[test]
    fn chrome_trace_is_valid_and_deterministic() {
        let spans = vec![span(7, 2, "agreement", 10, 40), span(7, 1, cat::NIC, 0, 10)];
        let a = chrome_trace(&spans);
        let b = chrome_trace(&spans);
        assert_eq!(a, b);
        let doc: serde_json::Value = serde_json::from_str(&a).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        // Sorted by start time regardless of emission order.
        assert_eq!(events[0].get("ts").and_then(serde_json::Value::as_u64), Some(0));
        for e in events {
            for field in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(e.get(field).is_some(), "missing {field}");
            }
        }
    }

    #[test]
    fn folded_stacks_subtract_child_time() {
        let mut parent = span(7, 1, cat::OP, 0, 100);
        parent.name = "root".into();
        let mut child = span(7, 2, "agreement", 10, 40);
        child.parent = 1;
        child.name = "leaf".into();
        let out = folded_stacks(&[parent, child]);
        assert_eq!(out, "root 70\nroot;leaf 30\n");
    }

    #[test]
    fn kind_buckets_cover_protocol_vocabulary() {
        assert_eq!(bucket_for_kind("prepare"), "value-discovery");
        assert_eq!(bucket_for_kind("append-entries"), "agreement");
        assert_eq!(bucket_for_kind("decide"), "decision");
        assert_eq!(bucket_for_kind("request-vote"), "leader-election");
        assert_eq!(bucket_for_kind("reply"), cat::FLIGHT);
    }
}
