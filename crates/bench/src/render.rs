//! Renders simulation output into the Markdown/Mermaid figures under
//! `docs/` — sequence diagrams from message traces, C&C phase annotations
//! from span events, info-card tables from [`consensus_core::taxonomy`],
//! and measured-metrics tables from [`simnet::Metrics`].
//!
//! Everything here is a pure function of its inputs: rendering the same
//! trace twice yields byte-identical Markdown, which is what lets CI check
//! that the committed `docs/` tree matches the code that generates it.

use std::fmt::Write as _;

use consensus_core::taxonomy::{
    FailureModel, ParticipantAwareness, ProcessingStrategy, ProtocolCard,
};
use simnet::{CncPhase, Metrics, SpanEvent, SpanKind, Synchrony, TraceEntry, TraceEvent};

/// Human label for a synchrony assumption (the enum is `Debug`-only).
pub fn synchrony_label(s: Synchrony) -> &'static str {
    match s {
        Synchrony::Synchronous => "synchronous",
        Synchrony::PartiallySynchronous => "partially synchronous",
        Synchrony::Asynchronous => "asynchronous",
    }
}

/// Human label for a failure model.
pub fn failure_label(f: FailureModel) -> &'static str {
    match f {
        FailureModel::Crash => "crash",
        FailureModel::Byzantine => "Byzantine",
        FailureModel::Hybrid => "hybrid (crash + Byzantine)",
    }
}

/// Human label for a processing strategy.
pub fn strategy_label(s: ProcessingStrategy) -> &'static str {
    match s {
        ProcessingStrategy::Pessimistic => "pessimistic",
        ProcessingStrategy::Optimistic => "optimistic",
    }
}

/// Human label for participant awareness.
pub fn awareness_label(a: ParticipantAwareness) -> &'static str {
    match a {
        ParticipantAwareness::Known => "known",
        ParticipantAwareness::Unknown => "unknown (open membership)",
    }
}

/// One merged timeline item: either a network trace entry or a span event.
/// Ties go to the trace entry — the simulator records a delivery before the
/// receiving callback emits its spans.
enum Item<'a> {
    Net(&'a TraceEntry),
    Span(&'a SpanEvent),
}

fn merge<'a>(trace: &'a [TraceEntry], spans: &'a [SpanEvent]) -> Vec<Item<'a>> {
    let mut out = Vec::with_capacity(trace.len() + spans.len());
    let (mut i, mut j) = (0, 0);
    while i < trace.len() || j < spans.len() {
        let take_net = match (trace.get(i), spans.get(j)) {
            (Some(t), Some(s)) => t.time <= s.time,
            (Some(_), None) => true,
            _ => false,
        };
        if take_net {
            out.push(Item::Net(&trace[i]));
            i += 1;
        } else {
            out.push(Item::Span(&spans[j]));
            j += 1;
        }
    }
    out
}

fn span_note(s: &SpanEvent) -> String {
    match s.kind {
        SpanKind::Open => format!("open {}/{} r{}", s.protocol, s.instance, s.round),
        SpanKind::Phase(p) => format!("{} {}/{} r{}", p.label(), s.protocol, s.instance, s.round),
        SpanKind::Close => format!("decided {}/{} r{}", s.protocol, s.instance, s.round),
    }
}

/// Renders a message trace plus its span events as a Mermaid
/// `sequenceDiagram`. Deliveries become arrows, drops become failed
/// (`--x`) arrows, crashes/restarts and span events become notes. At most
/// `max_msgs` message arrows are drawn; the rest are summarized in a final
/// note so pages stay readable for chatty protocols.
pub fn mermaid_sequence(trace: &[TraceEntry], spans: &[SpanEvent], max_msgs: usize) -> String {
    let mut max_node = 0usize;
    for t in trace {
        max_node = max_node.max(t.from.index()).max(t.to.index());
    }
    for s in spans {
        max_node = max_node.max(s.node.index());
    }

    let mut out = String::from("```mermaid\nsequenceDiagram\n");
    for n in 0..=max_node {
        let _ = writeln!(out, "    participant n{n}");
    }

    let mut msgs = 0usize;
    let mut truncated = 0usize;
    for item in merge(trace, spans) {
        match item {
            Item::Net(t) => match t.event {
                // Send events would draw every arrow twice; the delivery
                // (or drop) is the interesting half.
                TraceEvent::Send => {}
                TraceEvent::Deliver | TraceEvent::Drop => {
                    if msgs >= max_msgs {
                        truncated += 1;
                        continue;
                    }
                    msgs += 1;
                    let arrow = if t.event == TraceEvent::Drop { "--x" } else { "->>" };
                    let suffix = if t.event == TraceEvent::Drop { " (dropped)" } else { "" };
                    let _ = writeln!(out, "    {}{arrow}{}: {}{suffix}", t.from, t.to, t.kind);
                }
                TraceEvent::Crash => {
                    let _ = writeln!(out, "    Note over {}: CRASH", t.from);
                }
                TraceEvent::Restart => {
                    let _ = writeln!(out, "    Note over {}: RESTART", t.from);
                }
            },
            Item::Span(s) => {
                if msgs >= max_msgs {
                    continue;
                }
                let _ = writeln!(out, "    Note over {}: {}", s.node, span_note(s));
            }
        }
    }
    if truncated > 0 {
        let _ = writeln!(out, "    Note over n0: … {truncated} more messages elided");
    }
    out.push_str("```\n");
    out
}

/// Renders a taxonomy info card as a two-column Markdown table — the
/// tutorial's per-protocol card, generated from `core/src/taxonomy.rs`
/// instead of hand-written.
pub fn card_table(card: &ProtocolCard) -> String {
    let mut out = String::from("| Aspect | Value |\n|---|---|\n");
    let rows: [(&str, String); 8] = [
        ("Synchrony assumption", synchrony_label(card.synchrony).to_string()),
        ("Failure model", failure_label(card.failure).to_string()),
        ("Processing strategy", strategy_label(card.strategy).to_string()),
        ("Participant awareness", awareness_label(card.awareness).to_string()),
        ("Nodes required", card.nodes.to_string()),
        ("Communication phases", card.phases.to_string()),
        ("Message complexity", card.complexity.to_string()),
        ("Reference", card.reference.to_string()),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "| {k} | {v} |");
    }
    out
}

/// Renders measured run statistics: totals, the per-kind message
/// breakdown, C&C phase entry counts, and per-instance latency.
pub fn metrics_table(m: &Metrics) -> String {
    let mut out = String::from("| Measure | Value |\n|---|---|\n");
    let _ = writeln!(out, "| Messages sent | {} |", m.sent);
    let _ = writeln!(out, "| Messages delivered | {} |", m.delivered);
    let _ = writeln!(
        out,
        "| Messages dropped (partition / loss / filter / dead) | {} ({} / {} / {} / {}) |",
        m.dropped, m.dropped_partition, m.dropped_loss, m.dropped_filter, m.dropped_dead
    );
    let _ = writeln!(out, "| Bytes sent | {} |", m.bytes_sent);
    let _ = writeln!(out, "| Timer fires | {} |", m.timer_fires);
    let _ = writeln!(out, "| Crashes / restarts | {} / {} |", m.crashes, m.restarts);
    let _ = writeln!(out, "| Spans opened / closed | {} / {} |", m.spans_opened, m.spans_closed);
    let _ = writeln!(
        out,
        "| Instances completed | {} |",
        m.instance_latency.count()
    );
    if m.instance_latency.count() > 0 {
        let _ = writeln!(
            out,
            "| Instance latency (mean / p50≤ / max, µs) | {:.0} / {} / {} |",
            m.instance_latency.mean(),
            m.instance_latency.quantile(0.5).unwrap_or(0),
            m.instance_latency.max().unwrap_or(0),
        );
    }
    if m.delivered_latency.count() > 0 {
        let _ = writeln!(
            out,
            "| Delivered latency (mean / p50≤ / p99≤ / max, µs) | {:.0} / {} / {} / {} |",
            m.delivered_latency.mean(),
            m.delivered_latency.quantile(0.5).unwrap_or(0),
            m.delivered_latency.quantile(0.99).unwrap_or(0),
            m.delivered_latency.max().unwrap_or(0),
        );
    }

    out.push_str("\nPer message kind:\n\n| Kind | Sent | Bytes |\n|---|---|---|\n");
    for (kind, sent, bytes) in m.kinds() {
        let _ = writeln!(out, "| `{kind}` | {sent} | {bytes} |");
    }

    out.push_str("\nC&C phase entries observed on the trace:\n\n| Phase | Entries |\n|---|---|\n");
    for p in CncPhase::ALL {
        let _ = writeln!(out, "| {} | {} |", p.label(), m.phase(p.label()));
    }
    out
}

/// Renders the cross-protocol comparison table from the full card set —
/// the tutorial's summary table, keyed to `core/src/taxonomy.rs`.
pub fn complexity_table(cards: &[ProtocolCard]) -> String {
    let mut out = String::from(
        "| Protocol | Synchrony | Failures | Strategy | Participants | Nodes | Phases | Messages |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for c in cards {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            c.name,
            synchrony_label(c.synchrony),
            failure_label(c.failure),
            strategy_label(c.strategy),
            awareness_label(c.awareness),
            c.nodes,
            c.phases,
            c.complexity,
        );
    }
    out
}

/// Renders the first `max` span events in their compact one-line form — a
/// raw excerpt that shows exactly what the protocol emitted and when.
pub fn span_excerpt(spans: &[SpanEvent], max: usize) -> String {
    let mut out = String::from("```text\n");
    for s in spans.iter().take(max) {
        out.push_str(&s.render());
        out.push('\n');
    }
    if spans.len() > max {
        let _ = writeln!(out, "… {} more span events", spans.len() - max);
    }
    out.push_str("```\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::taxonomy::all_cards;
    use simnet::{NodeId, Time};

    fn entry(us: u64, event: TraceEvent, from: usize, to: usize, kind: &'static str) -> TraceEntry {
        TraceEntry {
            time: Time(us),
            event,
            from: NodeId::from(from),
            to: NodeId::from(to),
            kind,
        }
    }

    #[test]
    fn mermaid_draws_deliveries_and_notes() {
        let trace = vec![
            entry(10, TraceEvent::Send, 0, 1, "prepare"),
            entry(20, TraceEvent::Deliver, 0, 1, "prepare"),
            entry(30, TraceEvent::Drop, 0, 2, "prepare"),
            entry(40, TraceEvent::Crash, 2, 2, ""),
        ];
        let spans = vec![SpanEvent {
            time: Time(25),
            node: NodeId(1),
            protocol: "paxos",
            instance: 0,
            round: 1,
            kind: SpanKind::Phase(CncPhase::Agreement),
        }];
        let md = mermaid_sequence(&trace, &spans, 50);
        assert!(md.starts_with("```mermaid\nsequenceDiagram\n"));
        assert!(md.contains("participant n2"));
        assert!(md.contains("n0->>n1: prepare"));
        assert!(!md.contains("(send)"), "send events must not draw arrows");
        assert!(md.contains("n0--xn2: prepare (dropped)"));
        assert!(md.contains("Note over n1: agreement paxos/0 r1"));
        assert!(md.contains("Note over n2: CRASH"));
        // Span note lands between the delivery (t=20) and the drop (t=30).
        let deliver = md.find("n0->>n1").unwrap();
        let note = md.find("Note over n1").unwrap();
        let drop = md.find("n0--xn2").unwrap();
        assert!(deliver < note && note < drop);
    }

    #[test]
    fn mermaid_truncates_after_max_msgs() {
        let trace: Vec<TraceEntry> = (0..10)
            .map(|i| entry(i * 10, TraceEvent::Deliver, 0, 1, "m"))
            .collect();
        let md = mermaid_sequence(&trace, &[], 3);
        assert_eq!(md.matches("n0->>n1").count(), 3);
        assert!(md.contains("7 more messages elided"));
    }

    #[test]
    fn card_table_covers_every_aspect() {
        let card = consensus_core::taxonomy::card("PBFT").unwrap();
        let md = card_table(&card);
        assert!(md.contains("| Synchrony assumption | partially synchronous |"));
        assert!(md.contains("| Failure model | Byzantine |"));
        assert!(md.contains("| Nodes required | 3f+1 |"));
        assert!(md.contains("| Message complexity | O(N²) |"));
    }

    #[test]
    fn complexity_table_has_all_cards() {
        let cards = all_cards();
        let md = complexity_table(&cards);
        for c in &cards {
            assert!(md.contains(c.name), "missing {}", c.name);
        }
        assert_eq!(md.lines().count(), cards.len() + 2);
    }

    #[test]
    fn metrics_table_lists_all_phases() {
        let mut m = Metrics::default();
        m.add_kind("accept", 5, 320);
        m.phase_entries.insert("decision", 2);
        let md = metrics_table(&m);
        assert!(md.contains("| `accept` | 5 | 320 |"));
        assert!(md.contains("| decision | 2 |"));
        assert!(md.contains("| leader-election | 0 |"));
    }

    #[test]
    fn span_excerpt_truncates() {
        let spans: Vec<SpanEvent> = (0..5)
            .map(|i| SpanEvent {
                time: Time(i),
                node: NodeId(0),
                protocol: "x",
                instance: i,
                round: 0,
                kind: SpanKind::Open,
            })
            .collect();
        let md = span_excerpt(&spans, 2);
        assert!(md.contains("… 3 more span events"));
        assert_eq!(md.matches(" open").count(), 2);
    }
}
