//! Renders simulation output into the Markdown/Mermaid figures under
//! `docs/` — sequence diagrams from recorded traces, annotated with the C&C
//! phases their span entries carry, info-card tables from [`consensus_core::taxonomy`],
//! and measured-metrics tables from [`simnet::Metrics`] — and owns the one
//! markdown table writer, [`table`], that draws every table `bench` prints
//! or writes.
//!
//! Everything here is a pure function of its inputs: rendering the same
//! trace twice yields byte-identical Markdown, which is what lets CI check
//! that the committed `docs/` tree matches the code that generates it.

use std::fmt::Write as _;

use consensus_core::taxonomy::{
    FailureModel, ParticipantAwareness, ProcessingStrategy, ProtocolCard,
};
use simnet::{CncPhase, Metrics, SpanKind, Synchrony, TraceEntry, TraceEvent};

/// Draws a markdown table: the header, the separator, then one line per
/// row. Every table `bench` prints or writes to `docs/` comes from here. A
/// `|` inside a cell is escaped as `\|` so it cannot split the row.
pub fn table<H: AsRef<str>, C: AsRef<str>>(
    header: &[H],
    rows: impl IntoIterator<Item = impl IntoIterator<Item = C>>,
) -> String {
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let escape = |cell: &str| cell.replace('|', "\\|");
    let mut out = line(header.iter().map(|h| escape(h.as_ref())).collect());
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        out.push_str(&line(row.into_iter().map(|c| escape(c.as_ref())).collect()));
    }
    out
}

/// Renders a recorded trace as a Mermaid `sequenceDiagram`, in recorded
/// order. Deliveries become arrows, drops become failed (`--x`) arrows,
/// crashes/restarts and span entries become notes. At most `max_msgs`
/// message arrows are drawn; the rest are summarized in a final note so
/// pages stay readable for chatty protocols.
pub fn mermaid_sequence(trace: &[TraceEntry], max_msgs: usize) -> String {
    let nodes = trace.iter().map(|t| t.from.index().max(t.to.index()));
    let max_node = nodes.max().unwrap_or(0);

    let mut out = String::from("```mermaid\nsequenceDiagram\n");
    for n in 0..=max_node {
        let _ = writeln!(out, "    participant n{n}");
    }

    let mut msgs = 0usize;
    let mut truncated = 0usize;
    for t in trace {
        match t.event {
            TraceEvent::Deliver | TraceEvent::Drop => {
                if msgs >= max_msgs {
                    truncated += 1;
                    continue;
                }
                msgs += 1;
                let (arrow, suffix) = if t.event == TraceEvent::Drop {
                    ("--x", " (dropped)")
                } else {
                    ("->>", "")
                };
                let _ = writeln!(out, "    {}{arrow}{}: {}{suffix}", t.from, t.to, t.kind);
            }
            TraceEvent::Crash => {
                let _ = writeln!(out, "    Note over {}: CRASH", t.from);
            }
            TraceEvent::Restart => {
                let _ = writeln!(out, "    Note over {}: RESTART", t.from);
            }
            TraceEvent::Span {
                kind,
                instance,
                round,
            } if msgs < max_msgs => {
                let what = match kind {
                    SpanKind::Open => "open",
                    SpanKind::Phase(p) => p.label(),
                    SpanKind::Close => "decided",
                };
                let (node, protocol) = (t.from, t.kind);
                let _ = writeln!(
                    out,
                    "    Note over {node}: {what} {protocol}/{instance} r{round}"
                );
            }
            // Send events would draw every arrow twice; the delivery (or
            // drop) is the interesting half. Span notes stop with the last
            // arrow drawn.
            _ => {}
        }
    }
    if truncated > 0 {
        let _ = writeln!(out, "    Note over n0: … {truncated} more messages elided");
    }
    out.push_str("```\n");
    out
}

/// A card's eight aspects in card order, each with its human label.
fn aspects(card: &ProtocolCard) -> [(&'static str, String); 8] {
    let synchrony = match card.synchrony {
        Synchrony::Synchronous => "synchronous",
        Synchrony::PartiallySynchronous => "partially synchronous",
        Synchrony::Asynchronous => "asynchronous",
    };
    let failure = match card.failure {
        FailureModel::Crash => "crash",
        FailureModel::Byzantine => "Byzantine",
        FailureModel::Hybrid => "hybrid (crash + Byzantine)",
    };
    let strategy = match card.strategy {
        ProcessingStrategy::Pessimistic => "pessimistic",
        ProcessingStrategy::Optimistic => "optimistic",
    };
    let awareness = match card.awareness {
        ParticipantAwareness::Known => "known",
        ParticipantAwareness::Unknown => "unknown (open membership)",
    };
    [
        ("Synchrony assumption", synchrony.into()),
        ("Failure model", failure.into()),
        ("Processing strategy", strategy.into()),
        ("Participant awareness", awareness.into()),
        ("Nodes required", card.nodes.to_string()),
        ("Communication phases", card.phases.to_string()),
        ("Message complexity", card.complexity.to_string()),
        ("Reference", card.reference.to_string()),
    ]
}

/// Renders a taxonomy info card as a two-column Markdown table — the
/// tutorial's per-protocol card, generated from `core/src/taxonomy.rs`
/// instead of hand-written.
pub fn card_table(card: &ProtocolCard) -> String {
    let rows = aspects(card).map(|(aspect, value)| [aspect.to_string(), value]);
    table(&["Aspect", "Value"], rows)
}

/// Renders measured run statistics: totals, the per-kind message
/// breakdown, C&C phase entry counts, and per-instance latency.
pub fn metrics_table(m: &Metrics) -> String {
    let (instance, delivered) = (&m.instance_latency, &m.delivered_latency);
    let dropped = format!(
        "{} ({} / {} / {} / {})",
        m.dropped, m.dropped_partition, m.dropped_loss, m.dropped_filter, m.dropped_dead
    );
    let crashes = format!("{} / {}", m.crashes, m.restarts);
    let spans = format!("{} / {}", m.spans_opened, m.spans_closed);
    let mut rows = vec![
        ("Messages sent", m.sent.to_string()),
        ("Messages delivered", m.delivered.to_string()),
        (
            "Messages dropped (partition / loss / filter / dead)",
            dropped,
        ),
        ("Bytes sent", m.bytes_sent.to_string()),
        ("Timer fires", m.timer_fires.to_string()),
        ("Crashes / restarts", crashes),
        ("Spans opened / closed", spans),
        ("Instances completed", instance.count().to_string()),
    ];
    if instance.count() > 0 {
        let (p50, max) = (
            instance.quantile(0.5).unwrap_or(0),
            instance.max().unwrap_or(0),
        );
        let cell = format!("{:.0} / {p50} / {max}", instance.mean());
        rows.push(("Instance latency (mean / p50≤ / max, µs)", cell));
    }
    if delivered.count() > 0 {
        let q = |p| delivered.quantile(p).unwrap_or(0);
        let max = delivered.max().unwrap_or(0);
        let cell = format!("{:.0} / {} / {} / {max}", delivered.mean(), q(0.5), q(0.99));
        rows.push(("Delivered latency (mean / p50≤ / p99≤ / max, µs)", cell));
    }
    let rows = rows.into_iter().map(|(k, v)| [k.to_string(), v]);
    let mut out = table(&["Measure", "Value"], rows);
    out.push_str("\nPer message kind:\n\n");
    let kinds = m.kinds().into_iter();
    let kinds = kinds.map(|(k, s, b)| [format!("`{k}`"), s.to_string(), b.to_string()]);
    out.push_str(&table(&["Kind", "Sent", "Bytes"], kinds));
    out.push_str("\nC&C phase entries observed on the trace:\n\n");
    let phases = CncPhase::ALL.map(|p| [p.label().to_string(), m.phase(p.label()).to_string()]);
    out.push_str(&table(&["Phase", "Entries"], phases));
    out
}

/// Renders the cross-protocol comparison table from the full card set —
/// the tutorial's summary table, keyed to `core/src/taxonomy.rs`.
pub fn complexity_table(cards: &[ProtocolCard]) -> String {
    let header = [
        "Protocol",
        "Synchrony",
        "Failures",
        "Strategy",
        "Participants",
        "Nodes",
        "Phases",
        "Messages",
    ];
    // The comparison shows every aspect of a card but its reference.
    let rows = cards.iter().map(|c| {
        let aspects = aspects(c).into_iter().take(7).map(|(_, value)| value);
        std::iter::once(c.name.to_string()).chain(aspects)
    });
    table(&header, rows)
}

/// Renders the first `max` span entries of a recorded trace in their
/// compact one-line form — a raw excerpt that shows exactly what the
/// protocol emitted and when.
pub fn span_excerpt(trace: &[TraceEntry], max: usize) -> String {
    let spans = trace
        .iter()
        .filter(|t| matches!(t.event, TraceEvent::Span { .. }));
    let lines: Vec<String> = spans.map(TraceEntry::render).collect();
    excerpt(&lines, max, " span events")
}

/// A fenced text block of the first `max` lines; a last line counts the
/// rest as `… N more<what>`.
pub fn excerpt<L: AsRef<str>>(lines: &[L], max: usize, what: &str) -> String {
    let mut out = String::from("```text\n");
    for line in lines.iter().take(max) {
        let _ = writeln!(out, "{}", line.as_ref());
    }
    if lines.len() > max {
        let _ = writeln!(out, "… {} more{what}", lines.len() - max);
    }
    out + "```\n"
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

    fn span(
        us: u64,
        node: usize,
        protocol: &'static str,
        instance: u64,
        kind: SpanKind,
    ) -> TraceEntry {
        let event = TraceEvent::Span {
            kind,
            instance,
            round: 1,
        };
        entry(us, event, node, node, protocol)
    }

    #[test]
    fn mermaid_draws_deliveries_and_notes() {
        let agreement = SpanKind::Phase(CncPhase::Agreement);
        let trace = vec![
            entry(10, TraceEvent::Send, 0, 1, "prepare"),
            entry(20, TraceEvent::Deliver, 0, 1, "prepare"),
            span(20, 1, "paxos", 0, agreement),
            entry(30, TraceEvent::Drop, 0, 2, "prepare"),
            entry(40, TraceEvent::Crash, 2, 2, ""),
        ];
        let md = mermaid_sequence(&trace, 50);
        assert!(md.starts_with("```mermaid\nsequenceDiagram\n"));
        assert!(md.contains("participant n2"));
        assert!(md.contains("n0->>n1: prepare"));
        assert!(!md.contains("(send)"), "send events must not draw arrows");
        assert!(md.contains("n0--xn2: prepare (dropped)"));
        assert!(md.contains("Note over n1: agreement paxos/0 r1"));
        assert!(md.contains("Note over n2: CRASH"));
        // The span note follows the delivery whose handler emitted it.
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
        let md = mermaid_sequence(&trace, 3);
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
        m.phase_entries[CncPhase::Decision as usize] = 2;
        let md = metrics_table(&m);
        assert!(md.contains("| `accept` | 5 | 320 |"));
        assert!(md.contains("| decision | 2 |"));
        assert!(md.contains("| leader-election | 0 |"));
    }

    #[test]
    fn a_pipe_inside_a_cell_is_escaped() {
        let md = table(&["a|b"], [["majority |Q1|=|Q2|=4 (n=7)"]]);
        assert_eq!(
            md,
            "| a\\|b |\n|---|\n| majority \\|Q1\\|=\\|Q2\\|=4 (n=7) |\n"
        );
    }

    #[test]
    fn span_excerpt_truncates() {
        let mut trace: Vec<TraceEntry> =
            (0..5).map(|i| span(i, 0, "x", i, SpanKind::Open)).collect();
        trace.insert(1, entry(0, TraceEvent::Deliver, 1, 0, "m"));
        let md = span_excerpt(&trace, 2);
        assert!(md.contains("… 3 more span events"));
        assert_eq!(md.matches(" open").count(), 2);
        assert!(md.contains("0.001ms n0 x/1 r1 open"), "{md}");
        assert!(!md.contains("n1→n0"), "only span entries are excerpted");
    }
}
