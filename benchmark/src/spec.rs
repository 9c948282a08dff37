//! The benchmark's fixed vocabulary: workload names, metric names, units.
//!
//! `BENCHMARK.json` at the repo root lists exactly these names; the smoke
//! test fails if the two drift apart.

/// How a per-layer metric is obtained (see `benchmark/README.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Harvested from the program's public counters after the run. A pure
    /// function of `(workload, seed, iterations)`: must repeat bit-for-bit.
    Count,
    /// Host time of a layer's public API driven by the harness (replay
    /// probes and harness-side timers). Wall-clock, so noisy.
    Timed,
    /// Computed from timed values by subtraction or division.
    Derived,
}

/// Metric definition: name, unit, kind.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef { name, unit, kind }
}

pub const WORKLOADS: [&str; 4] = [
    "smr-small",
    "smr-batched-1k",
    "smr-durable-crash",
    "store-txn",
];

/// End-to-end metrics, emitted with `--trace 0`. `sim_*` are simulated time
/// (exact functions of workload and seed); the rest are host measurements.
pub const END_TO_END: [MetricDef; 9] = [
    m("setup_s", "s", Kind::Timed),
    m("ops_per_wall_s", "1/s", Kind::Timed),
    m("sim_events_per_wall_s", "1/s", Kind::Timed),
    m("peak_rss_mib", "MiB", Kind::Timed),
    m("sim_op_p50_us", "us", Kind::Count),
    m("sim_op_p99_us", "us", Kind::Count),
    m("sim_ops_per_s", "1/s", Kind::Count),
    m("sim_max_stall_us", "us", Kind::Count),
    m("sim_msgs_per_op", "count", Kind::Count),
];

/// Per-layer metrics, emitted with `--trace 1`. Layers are crate names.
pub const PER_LAYER: [MetricDef; 56] = [
    m("simnet.events_per_op", "count", Kind::Count),
    m("simnet.timer_fires_per_op", "count", Kind::Count),
    m("simnet.bytes_per_op", "B", Kind::Count),
    m("simnet.drop_share", "%", Kind::Count),
    m("simnet.mean_msg_bytes", "B", Kind::Count),
    m("simnet.event_ns", "ns", Kind::Timed),
    m("simnet.broadcast_clone_ns", "ns", Kind::Timed),
    m("simnet.share", "%", Kind::Derived),
    m("core.apply_ns", "ns", Kind::Timed),
    m("core.gen_ns", "ns", Kind::Timed),
    m("paxos.iter_wall_ms", "ms", Kind::Timed),
    m("raft.iter_wall_ms", "ms", Kind::Timed),
    m("pbft.iter_wall_ms", "ms", Kind::Timed),
    m("paxos.handler_ns_per_event", "ns", Kind::Derived),
    m("raft.handler_ns_per_event", "ns", Kind::Derived),
    m("pbft.handler_ns_per_event", "ns", Kind::Derived),
    m("paxos.msgs_per_op", "count", Kind::Count),
    m("raft.msgs_per_op", "count", Kind::Count),
    m("pbft.msgs_per_op", "count", Kind::Count),
    m("paxos.mean_batch", "count", Kind::Count),
    m("raft.mean_batch", "count", Kind::Count),
    m("pbft.mean_batch", "count", Kind::Count),
    m("paxos.elections", "count", Kind::Count),
    m("raft.elections", "count", Kind::Count),
    m("storage.wal_appends_per_op", "count", Kind::Count),
    m("storage.wal_group_size", "count", Kind::Count),
    m("storage.pool_hit_ratio", "%", Kind::Count),
    m("storage.evictions_per_op", "count", Kind::Count),
    m("storage.writebacks_per_op", "count", Kind::Count),
    m("storage.write_amp", "count", Kind::Count),
    m("storage.snapshots", "count", Kind::Count),
    m("storage.sim_io_us_per_op", "us", Kind::Count),
    m("storage.records_replayed", "count", Kind::Count),
    m("storage.wal_append_ns", "ns", Kind::Timed),
    m("storage.wal_sync_ns", "ns", Kind::Timed),
    m("storage.btree_put_ns", "ns", Kind::Timed),
    m("storage.btree_get_ns", "ns", Kind::Timed),
    m("storage.btree_scan_ns_per_row", "ns", Kind::Timed),
    m("storage.snapshot_ms", "ms", Kind::Timed),
    m("storage.recover_ms", "ms", Kind::Timed),
    m("storage.share", "%", Kind::Derived),
    m("store.step_us_p50", "us", Kind::Timed),
    m("store.steps_per_txn", "count", Kind::Count),
    m("store.idle_step_share", "%", Kind::Count),
    m("store.msgs_per_txn", "count", Kind::Count),
    m("store.commit_share", "%", Kind::Count),
    m("store.sim_txn_p50_us", "us", Kind::Count),
    m("store.sim_single_p50_us", "us", Kind::Count),
    m("store.sim_range_p50_us", "us", Kind::Count),
    m("store.build_ms", "ms", Kind::Timed),
    m("nemesis.lin_check_ms", "ms", Kind::Timed),
    m("nemesis.log_check_ms", "ms", Kind::Timed),
    m("nemesis.atomicity_check_ms", "ms", Kind::Timed),
    m("harness.iter_wall_ms_p90", "ms", Kind::Timed),
    m("harness.trace_overhead_pct", "%", Kind::Derived),
    m("harness.residual_share", "%", Kind::Derived),
];

/// The metrics one run emits: per-layer when traced, end-to-end otherwise.
pub fn emitted(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
