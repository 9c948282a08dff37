//! The optional event trace: one timeline per run, recorded only under
//! [`crate::Sim::record_trace`], from which the benchmark harness
//! regenerates the tutorial's message-flow figures.
//!
//! The simulator records message events (send, deliver, drop) and crash /
//! restart itself. Protocol code adds *span* entries via
//! [`crate::Context::span_open`] / [`crate::Context::phase`] /
//! [`crate::Context::span_close`], which tag the flow with protocol-level
//! structure: which consensus instance a message belongs to, what
//! round/view it is in, and which of the four canonical C&C phases the node
//! is executing. Both land in the one [`TraceEntry`] stream in the order
//! they happened, so a span entry follows the delivery whose handler
//! emitted it. Spans are folded into [`crate::Metrics`] on every run either
//! way.

use std::fmt;

use crate::time::{NodeId, Time};

/// The four phases of the C&C framework the paper uses to decompose every
/// surveyed protocol (leader election, value discovery, fault-tolerant
/// agreement, decision).
///
/// Not every protocol exercises every phase on every path — Raft's steady
/// state skips leader election, single-decree Paxos has no stable leader at
/// all — which is exactly what phase-tagged traces make visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CncPhase {
    /// Choosing (or discovering) the coordinator for a round/view.
    LeaderElection,
    /// Learning which value(s) may be proposed safely (e.g. Paxos phase-1b
    /// constraint discovery, PBFT pre-prepare).
    ValueDiscovery,
    /// The fault-tolerant agreement exchange (accept/prepare/commit votes).
    Agreement,
    /// A node learns the decided value and acts on it.
    Decision,
}

impl CncPhase {
    /// Stable lowercase label used in rendered traces, metrics keys, and the
    /// generated docs.
    pub fn label(&self) -> &'static str {
        match self {
            CncPhase::LeaderElection => "leader-election",
            CncPhase::ValueDiscovery => "value-discovery",
            CncPhase::Agreement => "agreement",
            CncPhase::Decision => "decision",
        }
    }

    /// All phases in canonical order.
    pub const ALL: [CncPhase; 4] = [
        CncPhase::LeaderElection,
        CncPhase::ValueDiscovery,
        CncPhase::Agreement,
        CncPhase::Decision,
    ];
}

impl fmt::Display for CncPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a span entry ([`TraceEvent::Span`]) marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A node started working on a consensus instance.
    Open,
    /// A node entered a C&C phase within the instance.
    Phase(CncPhase),
    /// A node completed the instance (learned the decision).
    Close,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Open => f.write_str("open"),
            SpanKind::Phase(p) => write!(f, "phase={p}"),
            SpanKind::Close => f.write_str("close"),
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message left `from` heading to `to`.
    Send,
    /// A message was delivered.
    Deliver,
    /// A message was dropped (loss, partition, filter, or dead target).
    Drop,
    /// A node crashed.
    Crash,
    /// A node restarted.
    Restart,
    /// A node emitted a phase-tagged span event: `from == to ==` the node
    /// and the entry's `kind` is the protocol label (stable, lowercase, e.g.
    /// `"raft"`). `(protocol, instance)` identifies one consensus instance —
    /// e.g. `("multi-paxos", 3)` is slot 3 of a Multi-Paxos log; `round` is
    /// the protocol's round/ballot/view/term number, whichever it has.
    Span {
        /// What the event marks.
        kind: SpanKind,
        /// Consensus-instance number (slot, height, sequence number).
        instance: u64,
        /// Round / ballot / view / term within the instance.
        round: u64,
    },
}

/// One line of the trace.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When it happened.
    pub time: Time,
    /// The event class.
    pub event: TraceEvent,
    /// Originating node (for crash/restart: the node itself).
    pub from: NodeId,
    /// Destination node (for crash/restart: the node itself).
    pub to: NodeId,
    /// Message kind label (empty for crash/restart; the protocol label for
    /// a span).
    pub kind: &'static str,
}

impl TraceEntry {
    /// Renders the entry in the compact one-line form used by the figure
    /// output: `1.500ms n0→n2 prepare` for a delivery, `1.500ms n0 pbft/3 r2
    /// phase=agreement` for a span.
    pub fn render(&self) -> String {
        let (t, from, to, kind) = (self.time, self.from, self.to, self.kind);
        match self.event {
            TraceEvent::Send => format!("{t} {from}→{to} {kind} (send)"),
            TraceEvent::Deliver => format!("{t} {from}→{to} {kind}"),
            TraceEvent::Drop => format!("{t} {from}→{to} {kind} (dropped)"),
            TraceEvent::Crash => format!("{t} {from} CRASH"),
            TraceEvent::Restart => format!("{t} {from} RESTART"),
            TraceEvent::Span {
                kind: mark,
                instance,
                round,
            } => format!("{t} {from} {kind}/{instance} r{round} {mark}"),
        }
    }
}

/// The C&C phases a timeline's span entries carry, per round: rounds in
/// the order they first appear, each listing its phases once, in the order
/// first entered.
pub fn cnc_rounds(trace: &[TraceEntry]) -> Vec<(u64, Vec<CncPhase>)> {
    let mut rounds: Vec<(u64, Vec<CncPhase>)> = Vec::new();
    for t in trace {
        let TraceEvent::Span {
            kind: SpanKind::Phase(phase),
            round,
            ..
        } = t.event
        else {
            continue;
        };
        match rounds.iter_mut().find(|(r, _)| *r == round) {
            Some((_, seen)) if seen.contains(&phase) => {}
            Some((_, seen)) => seen.push(phase),
            None => rounds.push((round, vec![phase])),
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(time: u64, round: u64, kind: SpanKind) -> TraceEntry {
        TraceEntry {
            time: Time(time),
            event: TraceEvent::Span {
                kind,
                instance: 3,
                round,
            },
            from: NodeId(0),
            to: NodeId(0),
            kind: "pbft",
        }
    }

    #[test]
    fn span_render_forms() {
        let phase = SpanKind::Phase(CncPhase::Agreement);
        assert_eq!(
            span(1500, 2, phase).render(),
            "1.500ms n0 pbft/3 r2 phase=agreement"
        );
        let open = span(1500, 2, SpanKind::Open);
        assert_eq!(open.render(), "1.500ms n0 pbft/3 r2 open");
        let close = span(1500, 2, SpanKind::Close);
        assert_eq!(close.render(), "1.500ms n0 pbft/3 r2 close");
    }

    #[test]
    fn cnc_rounds_lists_each_phase_once_per_round_in_first_seen_order() {
        use CncPhase::{Agreement, Decision, LeaderElection};
        let deliver = TraceEntry {
            event: TraceEvent::Deliver,
            ..span(0, 0, SpanKind::Open)
        };
        let trace = [
            span(1, 1, SpanKind::Open),
            span(2, 1, SpanKind::Phase(Agreement)),
            deliver,
            span(3, 0, SpanKind::Phase(Decision)),
            span(4, 1, SpanKind::Phase(LeaderElection)),
            span(5, 1, SpanKind::Phase(Agreement)),
            span(6, 1, SpanKind::Close),
        ];
        assert_eq!(
            cnc_rounds(&trace),
            [(1, vec![Agreement, LeaderElection]), (0, vec![Decision])]
        );
    }

    #[test]
    fn phase_labels_are_stable() {
        let labels: Vec<&str> = CncPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            [
                "leader-election",
                "value-discovery",
                "agreement",
                "decision"
            ]
        );
    }

    #[test]
    fn renders_all_variants() {
        let base = TraceEntry {
            time: Time(1500),
            event: TraceEvent::Deliver,
            from: NodeId(0),
            to: NodeId(2),
            kind: "accept",
        };
        assert_eq!(base.render(), "1.500ms n0→n2 accept");
        let mut e = base.clone();
        e.event = TraceEvent::Crash;
        assert!(e.render().contains("CRASH"));
        e.event = TraceEvent::Drop;
        assert!(e.render().contains("dropped"));
    }
}
