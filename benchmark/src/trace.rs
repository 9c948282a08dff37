//! Harness-side spans: recorded in memory around the calls into each layer,
//! written out as Chrome `trace_event` JSON when the run ends.
//!
//! Spans live only in the benchmark's own files; the program under test is
//! not instrumented (spans inside it are ROADMAP item 5).

use std::time::Instant;

use serde_json::{json, Value};

/// One timed interval. `parent` indexes into [`Tracer::spans`].
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u64,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced (end-to-end) path pays one branch per boundary.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    pub iter: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            iter: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; returns its id for [`Tracer::close`] and
    /// for children to name as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter: self.iter,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records a span from instants the caller already took (the timed path
    /// reads the clock once and feeds both the metric and the span).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: self.iter,
        });
    }

    /// Chrome `trace_event` document of the spans of the first `max_iters`
    /// iterations (complete events, µs timestamps).
    pub fn chrome_trace(&self, max_iters: u64) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.iter < max_iters)
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1u64,
                    "tid": 1u64,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                    "args": json!({
                        "id": id as u64,
                        "parent": s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        "iteration": s.iter,
                    }),
                })
            })
            .collect();
        json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ms" })
    }
}
