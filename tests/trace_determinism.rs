//! Exported-trace determinism and schema validity, and a run's outcome
//! being independent of whether its trace is recorded.
//!
//! The causal trace is part of the reproducible artifact chain: the same
//! seed must export byte-identical Chrome `trace_event` JSON (and folded
//! flamegraph stacks), and that JSON must actually parse as the schema
//! Perfetto / `chrome://tracing` expect — complete events (`ph:"X"`) with
//! µs timestamps, `pid` = tracer site, `tid` = node, and the causal ids
//! in `args`.

use forty::bft::pbft::Pbft;
use forty::consensus_core::driver::{ClusterDriver, DecidedEntry};
use forty::consensus_core::{Cluster, SmrProtocol};
use forty::paxos::{MultiPaxos, MultiPaxosCluster};
use forty::raft::Raft;
use forty::simnet::causal::{chrome_trace, folded_stacks};
use forty::simnet::{NetConfig, Time, TraceEvent};
use forty::store::{Store, StoreConfig};

const SEED: u64 = 41;
const HORIZON_US: u64 = 30_000_000;

/// One traced store run (3 shards × 3 Multi-Paxos replicas, the default
/// small workload), returning the Chrome trace and the folded stacks.
fn traced_run() -> (String, String) {
    let mut s: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(SEED));
    s.enable_tracing();
    assert!(s.run(Time(HORIZON_US)), "store did not quiesce");
    let spans = s.causal_spans();
    assert!(!spans.is_empty(), "traced run recorded no spans");
    (chrome_trace(&spans), folded_stacks(&spans))
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let (chrome_a, folded_a) = traced_run();
    let (chrome_b, folded_b) = traced_run();
    assert_eq!(chrome_a, chrome_b, "Chrome trace export is nondeterministic");
    assert_eq!(folded_a, folded_b, "folded-stack export is nondeterministic");
}

#[test]
fn chrome_trace_export_matches_the_trace_event_schema() {
    let (chrome, folded) = traced_run();
    let doc = serde_json::from_str(&chrome).expect("export is not valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array missing");
    assert!(!events.is_empty(), "no events exported");
    for e in events {
        assert!(
            e.get("name").and_then(|v| v.as_str()).is_some(),
            "event without a name"
        );
        assert!(
            e.get("cat").and_then(|v| v.as_str()).is_some(),
            "event without a category"
        );
        assert_eq!(
            e.get("ph").and_then(|v| v.as_str()),
            Some("X"),
            "causal spans export as complete events"
        );
        for field in ["ts", "dur", "pid", "tid"] {
            assert!(
                e.get(field).and_then(|v| v.as_u64()).is_some(),
                "event missing numeric {field}"
            );
        }
        let args = e.get("args").expect("event without args");
        for field in ["trace", "span", "parent"] {
            assert!(
                args.get(field).and_then(|v| v.as_u64()).is_some(),
                "args missing numeric {field}"
            );
        }
    }

    // Folded stacks: every line is `frame(;frame)* self_µs`.
    for line in folded.lines() {
        let (stack, micros) = line.rsplit_once(' ').expect("malformed folded line");
        assert!(!stack.is_empty(), "empty stack in folded line");
        assert!(
            micros.parse::<u64>().is_ok(),
            "non-numeric self time in {line:?}"
        );
    }
}

/// What recording the trace must not move: the counters messages, timers
/// and span events feed, and the decided log.
fn outcome<P: SmrProtocol>(c: &Cluster<P>) -> (Vec<u64>, Vec<DecidedEntry>)
where
    P::Shape: From<usize>,
{
    let m = c.sim.metrics();
    let mut counters = vec![
        m.sent,
        m.delivered,
        m.timer_fires,
        m.spans_opened,
        m.spans_closed,
        m.instance_latency.count(),
    ];
    counters.extend(m.phase_entries);
    (counters, c.decided_log())
}

/// Runs `n` replicas and eight clients one event at a time, with the trace recorded or not. When
/// recorded, each step's new entries are one handler's: a delivery's come
/// right after it, and every span among them is the receiver's.
fn stepped<P: SmrProtocol>(n: usize, record: bool) -> Cluster<P>
where
    P::Shape: From<usize>,
{
    let mut c = Cluster::<P>::new(n.into(), 8, 20, NetConfig::lan(), SEED);
    c.sim.record_trace(record);
    c.sim.run_until(Time::ZERO);
    while !c.all_done() && c.sim.now() < Time::from_secs(30) {
        let (from, delivered) = (c.sim.trace().len(), c.sim.metrics().delivered);
        assert!(c.sim.step(), "{}: queue drained", P::NAME);
        let [first, rest @ ..] = &c.sim.trace()[from..] else {
            continue;
        };
        if c.sim.metrics().delivered == delivered {
            continue;
        }
        assert_eq!(first.event, TraceEvent::Deliver, "{}", first.render());
        for t in rest {
            if let TraceEvent::Span { .. } = t.event {
                let at = (t.from, t.time);
                assert_eq!(at, (first.to, first.time), "{} after {}", t.render(), first.render());
            }
        }
    }
    assert!(c.all_done(), "{}: workload did not finish", P::NAME);
    c
}

fn recording_changes_nothing<P: SmrProtocol>(n: usize)
where
    P::Shape: From<usize>,
{
    let off = stepped::<P>(n, false);
    let on = stepped::<P>(n, true);
    assert_eq!(outcome(&off), outcome(&on), "{}", P::NAME);
    assert!(off.sim.trace().is_empty(), "{}", P::NAME);
    let m = on.sim.metrics();
    let phases: u64 = m.phase_entries.iter().sum();
    let spans = on.sim.trace().iter();
    let spans = spans.filter(|t| matches!(t.event, TraceEvent::Span { .. }));
    assert_eq!(spans.count() as u64, m.spans_opened + m.spans_closed + phases);
}

#[test]
fn recording_the_trace_leaves_counters_and_decided_log_unchanged() {
    recording_changes_nothing::<MultiPaxos>(5);
    recording_changes_nothing::<Raft>(5);
    recording_changes_nothing::<Pbft>(4);
}
