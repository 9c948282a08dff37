//! Exported-trace determinism and schema validity.
//!
//! The causal trace is part of the reproducible artifact chain: the same
//! seed must export byte-identical Chrome `trace_event` JSON (and folded
//! flamegraph stacks), and that JSON must actually parse as the schema
//! Perfetto / `chrome://tracing` expect — complete events (`ph:"X"`) with
//! µs timestamps, `pid` = tracer site, `tid` = node, and the causal ids
//! in `args`.

use forty::paxos::MultiPaxosCluster;
use forty::simnet::causal::{chrome_trace, folded_stacks};
use forty::simnet::Time;
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
