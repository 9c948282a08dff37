//! Critical-path latency attribution over the sharded store.
//!
//! Each cell of the sweep runs one `Store` (engine × batching × storage)
//! with causal tracing enabled, then decomposes every transaction's
//! begin-to-outcome latency into named buckets using the span trees the
//! run recorded:
//!
//! * per *operation* (one replicated log append), the window from first
//!   submission to observed reply is attributed by
//!   [`simnet::causal::attribute_window`] — NIC serialization, network
//!   flight per C&C phase, batch-queue wait, WAL fsync — and the tail
//!   between the last causal activity and the router's next poll is
//!   charged to coordinator think time;
//! * per *transaction*, the 2PC window is partitioned by its operations'
//!   effective windows; instants covered by no in-flight operation are
//!   the router deciding what to do next, also coordinator think time.
//!
//! Both decompositions charge every microsecond to exactly one bucket, so
//! the bucket totals reconcile against measured end-to-end latency by
//! construction; the artifact's gate rejects any sweep where less than
//! 95 % of transaction time lands in a named (non-`untraced`) bucket, and
//! any durable cell whose WAL-fsync bucket is empty.
//!
//! The sweep is deterministic — same seed, same spans, same JSON — which
//! is what lets CI pin `BENCH_latency.json` byte-for-byte (`--check`).

use std::collections::BTreeMap;

use consensus_core::driver::BatchConfig;
use consensus_core::workload::LatencyRecorder;
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use serde_json::{json, Value};
use simnet::causal::{attribute_window, cat};
use simnet::{CausalSpan, DiskModel, Time};
use store::{OpRecord, ShardEngine, Store, StoreConfig, ROUTER_BASE};

use crate::artifact::{record, Artifact, Field};
use crate::throughput::net_profile;

/// Bumped whenever the JSON layout changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;
/// Simulator seed for every cell (cells differ only in engine/knobs).
pub const SEED: u64 = 71;
/// Sim-time budget per cell; the store quiesces long before this.
pub const HORIZON: Time = Time(60_000_000);
/// Shard warm-up before the routers start: leader elections happen here,
/// so steady-state transaction windows never overlap one.
pub const WARMUP_US: u64 = 20_000;
/// Checkpoint threshold for durable cells.
pub const DURABLE_THRESHOLD: usize = 8;
/// Minimum accepted reconciliation: named buckets must cover ≥95 % of
/// measured end-to-end transaction time.
pub const MIN_RECONCILE_X100: u64 = 9_500;

/// Every bucket a cell reports, in fixed presentation order.
pub const BUCKETS: [&str; 10] = [
    cat::QUEUE,
    cat::NIC,
    "leader-election",
    "value-discovery",
    "agreement",
    "decision",
    cat::FLIGHT,
    cat::FSYNC,
    cat::COORD,
    cat::UNTRACED,
];

/// One cell of the sweep grid.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// `"multi-paxos"` or `"raft"`.
    pub engine: &'static str,
    /// Batching knob forwarded to every shard group.
    pub batch: BatchConfig,
    /// Durable shard storage (WAL + checkpoints over the SSD profile).
    pub durable: bool,
}

/// The sweep: which cells, and how much workload each store runs.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Cells, in presentation order.
    pub cells: Vec<CellSpec>,
    /// Cross-shard transactions per router.
    pub txns_per_router: usize,
    /// Single-key operations per router.
    pub singles_per_router: usize,
}

fn batched() -> BatchConfig {
    BatchConfig::new(4, 200, 4)
}

/// A 2-cell grid for tests and the CI smoke lane: the cheapest cell plus
/// the durable cell that exercises the WAL-fsync bucket.
pub fn smoke_spec() -> SweepSpec {
    SweepSpec {
        cells: vec![
            CellSpec {
                engine: "multi-paxos",
                batch: BatchConfig::unbatched(),
                durable: false,
            },
            CellSpec {
                engine: "multi-paxos",
                batch: BatchConfig::unbatched(),
                durable: true,
            },
        ],
        txns_per_router: 2,
        singles_per_router: 1,
    }
}

/// Per-bucket aggregate over one cell's transactions.
#[derive(Clone, Debug)]
pub struct BucketStat {
    /// Bucket label (one of [`BUCKETS`]).
    pub name: &'static str,
    /// Median per-transaction time in this bucket, µs.
    pub p50_us: u64,
    /// 99th-percentile per-transaction time in this bucket, µs.
    pub p99_us: u64,
    /// Total time across all transactions, µs.
    pub total_us: u64,
}

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Point {
    /// Engine label.
    pub engine: &'static str,
    /// Batch knob label (`BatchConfig::label`).
    pub batch: String,
    /// Whether shards ran the durable storage engine.
    pub durable: bool,
    /// Transactions analyzed.
    pub txns: usize,
    /// Router-issued operations analyzed.
    pub ops: usize,
    /// Causal spans the run recorded.
    pub spans: usize,
    /// End-to-end transaction latency, median µs.
    pub txn_p50_us: u64,
    /// End-to-end transaction latency, 99th percentile µs.
    pub txn_p99_us: u64,
    /// Per-operation latency, median µs.
    pub op_p50_us: u64,
    /// Per-operation latency, 99th percentile µs.
    pub op_p99_us: u64,
    /// Summed end-to-end transaction time, µs (equals the bucket totals).
    pub txn_total_us: u64,
    /// Share of transaction time in named buckets, percent × 100.
    pub reconcile_pct_x100: u64,
    /// Shard-0 delivered-message latency, median µs (network histogram).
    pub net_delivered_p50_us: u64,
    /// Shard-0 delivered-message latency, 99th percentile µs.
    pub net_delivered_p99_us: u64,
    /// Per-bucket stats, in [`BUCKETS`] order.
    pub bucket_stats: Vec<BucketStat>,
}

/// Last instant of causal activity belonging to the op's trace, clamped
/// to the op window; the op's start when the trace recorded nothing.
fn effective_end(spans: &[CausalSpan], r: &OpRecord) -> u64 {
    spans
        .iter()
        .filter(|s| s.trace_id == r.trace_id && s.cat != cat::OP)
        .map(|s| s.end)
        .max()
        .map(|e| e.clamp(r.started, r.finished))
        .unwrap_or(r.started)
}

/// Decomposes one transaction window given its operations (pre-filtered
/// to the issuing router and the window). Instants covered by at least
/// one in-flight operation are attributed through that operation's trace;
/// uncovered instants are the coordinator deciding, i.e. think time.
/// The values always sum to exactly `end - start`.
pub fn txn_breakdown(
    spans: &[CausalSpan],
    ops: &[OpRecord],
    start: u64,
    end: u64,
) -> BTreeMap<&'static str, u64> {
    let eff: Vec<(u64, u64, u64)> = ops
        .iter()
        .map(|r| {
            (
                r.started.max(start),
                effective_end(spans, r).min(end),
                r.trace_id,
            )
        })
        .filter(|&(a, b, _)| b > a)
        .collect();
    let mut cuts = vec![start, end];
    for &(a, b, _) in &eff {
        cuts.push(a);
        cuts.push(b);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        match eff.iter().find(|&&(s, e, _)| s <= a && e >= b) {
            None => *out.entry(cat::COORD).or_insert(0) += b - a,
            Some(&(_, _, trace)) => {
                for (k, v) in attribute_window(spans, trace, a, b) {
                    *out.entry(k).or_insert(0) += v;
                }
            }
        }
    }
    out
}

/// Nearest-rank median and 99th percentile — [`LatencyRecorder`]'s rule,
/// the one every artifact reports.
fn p50_p99(samples: &LatencyRecorder) -> (u64, u64) {
    (samples.percentile(50.0), samples.percentile(99.0))
}

fn store_cfg(spec: &SweepSpec, cell: &CellSpec) -> StoreConfig {
    let mut cfg = StoreConfig::new(SEED)
        .txns_per_router(spec.txns_per_router)
        .singles_per_router(spec.singles_per_router)
        .batch(cell.batch)
        .net(net_profile());
    if cell.durable {
        cfg = cfg.durable(DURABLE_THRESHOLD, DiskModel::ssd());
    }
    cfg
}

/// One cell's store, run to quiescence with causal tracing on.
fn traced_store<E: ShardEngine>(spec: &SweepSpec, cell: &CellSpec) -> Store<E> {
    let mut s: Store<E> = Store::new(store_cfg(spec, cell));
    s.enable_tracing();
    s.warm_up(WARMUP_US);
    assert!(s.run(HORIZON), "latency cell stalled: {cell:?}");
    s
}

fn run_cell<E: ShardEngine>(spec: &SweepSpec, cell: &CellSpec) -> Point {
    let s: Store<E> = traced_store(spec, cell);

    let spans = s.causal_spans();
    let n_routers = s.cfg.n_routers as u32;
    let router_ops: Vec<OpRecord> = s
        .op_records()
        .iter()
        .filter(|r| r.client >= ROUTER_BASE && r.client < ROUTER_BASE + n_routers)
        .cloned()
        .collect();
    let outcomes = s.outcomes();

    // Per-transaction decomposition: a router is strictly sequential, so
    // the ops inside a transaction's window belong to that transaction.
    let mut txn_e2e = LatencyRecorder::new();
    let mut per_bucket = BUCKETS.map(|_| LatencyRecorder::new());
    for o in &outcomes {
        let end = o.at;
        let start = o.at - o.latency_us;
        let mine: Vec<OpRecord> = router_ops
            .iter()
            .filter(|r| r.client == o.tid.client && r.started >= start && r.finished <= end)
            .cloned()
            .collect();
        let b = txn_breakdown(&spans, &mine, start, end);
        txn_e2e.record_micros(o.latency_us);
        for (samples, name) in per_bucket.iter_mut().zip(BUCKETS) {
            samples.record_micros(b.get(name).copied().unwrap_or(0));
        }
    }

    let bucket_stats: Vec<BucketStat> = per_bucket
        .iter()
        .zip(BUCKETS)
        .map(|(samples, name)| {
            let (p50_us, p99_us) = p50_p99(samples);
            BucketStat {
                name,
                p50_us,
                p99_us,
                total_us: samples.samples().iter().sum(),
            }
        })
        .collect();
    let txn_total_us: u64 = txn_e2e.samples().iter().sum();
    let untraced: u64 = bucket_stats
        .iter()
        .find(|b| b.name == cat::UNTRACED)
        .map_or(0, |b| b.total_us);
    let reconcile_pct_x100 = ((txn_total_us - untraced) * 10_000)
        .checked_div(txn_total_us)
        .unwrap_or(0);

    let mut op_e2e = LatencyRecorder::new();
    for r in &router_ops {
        op_e2e.record_micros(r.finished - r.started);
    }
    let (txn_p50_us, txn_p99_us) = p50_p99(&txn_e2e);
    let (op_p50_us, op_p99_us) = p50_p99(&op_e2e);
    let net = &s.shards()[0].metrics().delivered_latency;

    Point {
        engine: cell.engine,
        batch: cell.batch.label(),
        durable: cell.durable,
        txns: outcomes.len(),
        ops: router_ops.len(),
        spans: spans.len(),
        txn_p50_us,
        txn_p99_us,
        op_p50_us,
        op_p99_us,
        txn_total_us,
        reconcile_pct_x100,
        net_delivered_p50_us: net.quantile(0.50).unwrap_or(0),
        net_delivered_p99_us: net.quantile(0.99).unwrap_or(0),
        bucket_stats,
    }
}

/// One traced smoke-cell run (the durable cell, so the WAL-fsync bucket
/// is populated) — the example the generated observability page walks
/// through. Deterministic: same seed as the sweep.
pub fn traced_example() -> Store<MultiPaxosCluster> {
    let spec = smoke_spec();
    let cell = spec.cells[1];
    assert!(cell.durable, "the example cell must exercise the WAL");
    traced_store(&spec, &cell)
}

/// Share of a cell's transaction time spent in the named buckets, percent.
fn share(p: &Point, names: &[&str]) -> String {
    let t: u64 = p
        .bucket_stats
        .iter()
        .filter(|b| names.contains(&b.name))
        .map(|b| b.total_us)
        .sum();
    (t * 100)
        .checked_div(p.txn_total_us)
        .unwrap_or(0)
        .to_string()
}

/// The `bench latency` artifact, `BENCH_latency.json`.
pub struct Latency;

impl Artifact for Latency {
    type Spec = SweepSpec;
    type Point = Point;
    const NAME: &'static str = "latency";
    const PATH: &'static str = "BENCH_latency.json";
    const LIST: &'static str = "cells";

    /// The full grid behind `BENCH_latency.json`: Multi-Paxos swept over
    /// batching × storage, Raft over batching alone. Raft shards run on the
    /// durable engine too (`StoreConfig::durable`); the grid has no durable
    /// Raft cell only because none was ever added to it.
    fn full_spec() -> SweepSpec {
        let mut cells = Vec::new();
        for durable in [false, true] {
            for batch in [BatchConfig::unbatched(), batched()] {
                cells.push(CellSpec {
                    engine: "multi-paxos",
                    batch,
                    durable,
                });
            }
        }
        for batch in [BatchConfig::unbatched(), batched()] {
            cells.push(CellSpec {
                engine: "raft",
                batch,
                durable: false,
            });
        }
        SweepSpec {
            cells,
            txns_per_router: 4,
            singles_per_router: 2,
        }
    }

    fn smoke_spec() -> Option<SweepSpec> {
        Some(smoke_spec())
    }

    fn run(spec: &SweepSpec) -> Vec<Point> {
        spec.cells
            .iter()
            .map(|cell| match cell.engine {
                "multi-paxos" => run_cell::<MultiPaxosCluster>(spec, cell),
                "raft" => run_cell::<RaftCluster>(spec, cell),
                other => panic!("unknown engine {other}"),
            })
            .collect()
    }

    /// End-to-end percentiles and the per-bucket stats in the JSON; the
    /// table shows each cell's bucket shares of total transaction time.
    fn fields() -> Vec<Field<Point>> {
        type F = Field<Point>;
        vec![
            F::str("engine", |p| p.engine.into()).col("engine"),
            F::str("batch", |p| p.batch.clone()).col("batch"),
            F::bool("durable", |p| p.durable),
            F::derived("storage", |p| {
                if p.durable { "durable-ssd" } else { "ram" }.into()
            }),
            F::int("txns", |p| p.txns as u64).col("txns"),
            F::int("ops", |p| p.ops as u64),
            F::int("spans", |p| p.spans as u64),
            F::int("txn_p50_us", |p| p.txn_p50_us).col("txn p50 µs"),
            F::int("txn_p99_us", |p| p.txn_p99_us).col("txn p99 µs"),
            F::int("op_p50_us", |p| p.op_p50_us),
            F::int("op_p99_us", |p| p.op_p99_us),
            F::int("txn_total_us", |p| p.txn_total_us),
            F::int("reconcile_pct_x100", |p| p.reconcile_pct_x100),
            F::int("net_delivered_p50_us", |p| p.net_delivered_p50_us).col("net p50 µs"),
            F::int("net_delivered_p99_us", |p| p.net_delivered_p99_us),
            F::list("buckets", |p| {
                let fields = [
                    Field::str("name", |b: &BucketStat| b.name.into()),
                    Field::int("p50_us", |b| b.p50_us),
                    Field::int("p99_us", |b| b.p99_us),
                    Field::int("total_us", |b| b.total_us),
                ];
                p.bucket_stats.iter().map(|b| record(&fields, b)).collect()
            }),
            F::derived("queue%", |p| share(p, &[cat::QUEUE])),
            F::derived("nic%", |p| share(p, &[cat::NIC])),
            F::derived("consensus%", |p| {
                share(
                    p,
                    &[
                        "leader-election",
                        "value-discovery",
                        "agreement",
                        "decision",
                    ],
                )
            }),
            F::derived("flight%", |p| share(p, &[cat::FLIGHT])),
            F::derived("fsync%", |p| share(p, &[cat::FSYNC])),
            F::derived("coord%", |p| share(p, &[cat::COORD])),
            F::derived("untraced%", |p| share(p, &[cat::UNTRACED])),
            F::derived("reconcile%", |p| {
                format!(
                    "{}.{:02}",
                    p.reconcile_pct_x100 / 100,
                    p.reconcile_pct_x100 % 100
                )
            }),
        ]
    }

    fn header(spec: &SweepSpec, _points: &[Point]) -> Value {
        json!({
            "schema_version": SCHEMA_VERSION,
            "seed": SEED,
            "warmup_us": WARMUP_US,
            "txns_per_router": spec.txns_per_router,
            "singles_per_router": spec.singles_per_router,
            "net": "lan",
        })
    }

    /// The analyzer's invariants: named buckets reconcile to ≥95 % of
    /// end-to-end time in every cell, durable cells show nonzero WAL-fsync
    /// time, bucket totals sum exactly to the measured transaction time,
    /// and no median exceeds its tail.
    fn gate(points: &[Point]) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let tag = format!("cell {i}");
            if p.txns == 0 {
                problems.push(format!("{tag}: no transactions analyzed"));
            }
            if p.txn_p50_us > p.txn_p99_us {
                problems.push(format!("{tag}: txn p50 exceeds p99"));
            }
            if p.op_p50_us > p.op_p99_us {
                problems.push(format!("{tag}: op p50 exceeds p99"));
            }
            let r = p.reconcile_pct_x100;
            if r < MIN_RECONCILE_X100 {
                problems.push(format!(
                    "{tag}: buckets reconcile to only {}.{:02}% of e2e latency (need ≥95%)",
                    r / 100,
                    r % 100
                ));
            }
            if p.bucket_stats.len() != BUCKETS.len() {
                problems.push(format!(
                    "{tag}: expected {} buckets, found {}",
                    BUCKETS.len(),
                    p.bucket_stats.len()
                ));
                continue;
            }
            let mut fsync = 0;
            for (b, want) in p.bucket_stats.iter().zip(BUCKETS) {
                if b.name != want {
                    problems.push(format!("{tag}: bucket order drifted (expected {want})"));
                }
                if b.name == cat::FSYNC {
                    fsync = b.total_us;
                }
                if b.p50_us > b.p99_us {
                    problems.push(format!("{tag}: bucket {want} p50 exceeds p99"));
                }
            }
            let total: u64 = p.bucket_stats.iter().map(|b| b.total_us).sum();
            if total != p.txn_total_us {
                problems.push(format!(
                    "{tag}: bucket totals sum to {total} ≠ txn_total_us {}",
                    p.txn_total_us
                ));
            }
            if p.durable && fsync == 0 {
                problems.push(format!("{tag}: durable cell has an empty wal-fsync bucket"));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let of = |n: u64| {
            let mut samples = LatencyRecorder::new();
            (1..=n).for_each(|us| samples.record_micros(us));
            p50_p99(&samples)
        };
        // With the artifact's 8 transactions per cell the median is the
        // 4th-smallest sample, not the 5th.
        assert_eq!(of(8), (4, 8));
        assert_eq!(of(100), (50, 99));
        assert_eq!(of(0), (0, 0));
    }

    #[test]
    fn durable_cells_charge_fsync_and_ram_cells_do_not() {
        let points = Latency::run(&smoke_spec());
        let fsync = |p: &Point| {
            let b = p.bucket_stats.iter().find(|b| b.name == cat::FSYNC);
            b.expect("fsync bucket").total_us
        };
        // The durable smoke cell must show real WAL/group-commit time.
        let durable = points.iter().find(|p| p.durable).expect("durable cell");
        assert!(fsync(durable) > 0, "durable cell recorded no fsync time");
        let ram = points.iter().find(|p| !p.durable).expect("ram cell");
        assert_eq!(fsync(ram), 0, "ram cell charged fsync time");
    }

    #[test]
    fn gate_rejects_low_reconciliation_and_empty_fsync() {
        let points = Latency::run(&smoke_spec());
        assert!(Latency::gate(&points).is_empty());

        // A low reconciliation ratio must be rejected.
        let mut bad = points.clone();
        bad[0].reconcile_pct_x100 = MIN_RECONCILE_X100 - 1;
        assert!(Latency::gate(&bad).iter().any(|p| p.contains("reconcile")));

        // A durable cell with no fsync time must be rejected.
        let mut bad = points.clone();
        let mut zeroed = 0;
        for b in &mut bad[1].bucket_stats {
            if b.name == cat::FSYNC {
                zeroed += b.total_us;
                b.total_us = 0;
            }
        }
        bad[1].txn_total_us -= zeroed;
        assert!(Latency::gate(&bad).iter().any(|p| p.contains("wal-fsync")));
    }

    #[test]
    fn breakdown_sums_match_windows_exactly() {
        let spec = smoke_spec();
        let points = Latency::run(&spec);
        for p in &points {
            let total: u64 = p.bucket_stats.iter().map(|b| b.total_us).sum();
            assert_eq!(
                total, p.txn_total_us,
                "{} {}: bucket totals must sum to e2e time",
                p.engine, p.batch
            );
        }
    }
}
