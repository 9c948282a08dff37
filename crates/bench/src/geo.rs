//! Geo deployment sweep — the multi-region read-path benchmark.
//!
//! Every cell deploys the sharded store across [`simnet::WanTopology::three_dc`]
//! (three regions, ~20 ms one-way inter-region latency) with one router per
//! region, runs the seed-generated transaction workload plus the geo
//! fast-read mix, and measures where reads were actually served from. The
//! grid crosses both engines (Multi-Paxos leader leases vs Raft read-index)
//! with every [`PlacementPolicy`] and a locality axis.
//!
//! The artifact `BENCH_geo.json` carries a hard **gate** in addition to the
//! byte-for-byte drift check: the p50 of *primary-local* reads (reads of
//! shards primary-homed in the issuing router's region) must be strictly
//! below one inter-region round trip, while cross-shard transactions still
//! commit in every cell. That is the whole point of the geo deployment —
//! intra-region reads must not pay the WAN.
//!
//! All reported numbers are integers (µs, counts) plus the run fingerprint,
//! so the JSON is bit-for-bit reproducible from the spec.

use consensus_core::txn::TxnDecision;
use consensus_core::workload::LatencyRecorder;
use consensus_core::ReadMode;
use serde_json::{json, Value};
use simnet::Time;

use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use store::{GeoConfig, PlacementPolicy, ShardEngine, Store, StoreConfig};

use crate::artifact::{Artifact, Field};

/// Version stamp of the JSON artifact layout; bump when fields change.
pub const SCHEMA_VERSION: u64 = 1;

/// Cheapest inter-region round trip in [`simnet::WanTopology::three_dc`]
/// (µs): the 18 ms one-way floor, both directions. The latency gate bound.
pub const MIN_WAN_RTT_US: u64 = 36_000;

/// WAN rounds are ~40 ms each; closed workloads quiesce far earlier.
const HORIZON: Time = Time(60_000_000);

/// One sweep grid: placements × locality mixes, run for both engines.
pub struct GeoSpec {
    /// Placement policies to deploy.
    pub placements: Vec<PlacementPolicy>,
    /// `local_read_pct` values (percentage of geo reads aimed at shards
    /// primary-homed in the router's own region).
    pub local_pcts: Vec<u32>,
    /// Fast-path reads per router (3 routers, one per region).
    pub reads_per_router: usize,
    /// Store seed shared by every cell.
    pub seed: u64,
}

/// A CI-sized grid: the canonical primary-witness deployment only.
pub fn smoke_spec() -> GeoSpec {
    GeoSpec {
        placements: vec![PlacementPolicy::PrimaryWitness],
        local_pcts: vec![80],
        reads_per_router: 8,
        seed: 42,
    }
}

/// The measured result of one `(engine, placement, local_pct)` cell.
#[derive(Clone, Debug)]
pub struct GeoPoint {
    /// Shard engine ("multi-paxos" or "raft").
    pub engine: &'static str,
    /// Placement policy tag ([`PlacementPolicy::tag`]).
    pub placement: &'static str,
    /// The locality knob of the read mix.
    pub local_read_pct: u32,
    /// Geo fast-path reads completed (3 routers × reads_per_router).
    pub reads: usize,
    /// Reads served inside the issuing router's region.
    pub local_reads: usize,
    /// Local reads of shards primary-homed in the router's region — the
    /// reads the gate bounds.
    pub primary_local_reads: usize,
    /// Reads served on the lease fast path.
    pub lease_reads: usize,
    /// Reads served on the read-index fast path.
    pub read_index_reads: usize,
    /// Reads that fell back to the ordinary log round.
    pub log_fallbacks: usize,
    /// Median primary-local read latency (µs; 0 when no such reads).
    pub p50_primary_local_us: u64,
    /// Tail primary-local read latency (µs; 0 when no such reads).
    pub p99_primary_local_us: u64,
    /// Median latency of every *other* read — remote fast reads and log
    /// fallbacks, which may pay the WAN (µs; 0 when none).
    pub p50_other_us: u64,
    /// Transactions committed.
    pub commits: usize,
    /// Committed transactions spanning more than one shard.
    pub cross_shard_commits: usize,
    /// Median begin-to-decision transaction latency (µs).
    pub txn_p50_us: u64,
    /// Simulated time at quiescence, maximised over the shard sims (µs).
    pub sim_micros: u64,
    /// [`Store::fingerprint`] — the drift sentinel for the whole run.
    pub fingerprint: String,
}

/// Runs one cell: deploy, run to quiescence, harvest read outcomes.
fn run_cell<E: ShardEngine>(
    engine: &'static str,
    placement: PlacementPolicy,
    local_pct: u32,
    spec: &GeoSpec,
) -> GeoPoint {
    let cfg = StoreConfig::new(spec.seed).routers(3).geo(
        GeoConfig::three_dc()
            .placement(placement)
            .local_read_pct(local_pct)
            .reads_per_router(spec.reads_per_router),
    );
    let mut s: Store<E> = Store::new(cfg);
    assert!(
        s.run(HORIZON),
        "{engine}/{} geo cell did not quiesce",
        placement.tag()
    );
    let reads = s.read_outcomes();
    let (mut primary_local, mut other) = (LatencyRecorder::new(), LatencyRecorder::new());
    for r in &reads {
        if r.local && s.shard_map().primary_region(r.shard) == Some(r.region) {
            primary_local.record_micros(r.latency_us);
        } else {
            other.record_micros(r.latency_us);
        }
    }
    let outcomes = s.outcomes();
    let commits: Vec<_> = outcomes
        .iter()
        .filter(|o| o.decision == TxnDecision::Commit)
        .collect();
    GeoPoint {
        engine,
        placement: placement.tag(),
        local_read_pct: local_pct,
        reads: reads.len(),
        local_reads: reads.iter().filter(|r| r.local).count(),
        primary_local_reads: primary_local.count(),
        lease_reads: reads.iter().filter(|r| r.mode == ReadMode::Lease).count(),
        read_index_reads: reads
            .iter()
            .filter(|r| r.mode == ReadMode::ReadIndex)
            .count(),
        log_fallbacks: reads.iter().filter(|r| r.mode == ReadMode::Log).count(),
        p50_primary_local_us: primary_local.percentile(50.0),
        p99_primary_local_us: primary_local.percentile(99.0),
        p50_other_us: other.percentile(50.0),
        commits: commits.len(),
        cross_shard_commits: commits.iter().filter(|o| o.span > 1).count(),
        txn_p50_us: s.txn_latencies().percentile(50.0),
        sim_micros: s.now(),
        fingerprint: format!("{:016x}", s.fingerprint()),
    }
}

/// The `bench geo` artifact, `BENCH_geo.json`.
pub struct Geo;

impl Artifact for Geo {
    type Spec = GeoSpec;
    type Point = GeoPoint;
    const NAME: &'static str = "geo";
    const PATH: &'static str = "BENCH_geo.json";
    const LIST: &'static str = "points";

    fn full_spec() -> GeoSpec {
        GeoSpec {
            placements: vec![
                PlacementPolicy::PrimaryWitness,
                PlacementPolicy::SingleRegion,
                PlacementPolicy::Spread,
            ],
            local_pcts: vec![50, 100],
            reads_per_router: 12,
            seed: 42,
        }
    }

    fn smoke_spec() -> Option<GeoSpec> {
        Some(smoke_spec())
    }

    /// Runs the grid for both engines. Cell order is the deterministic
    /// iteration order of the spec (placement → local_pct → engine).
    fn run(spec: &GeoSpec) -> Vec<GeoPoint> {
        let mut points = Vec::new();
        for &placement in &spec.placements {
            for &pct in &spec.local_pcts {
                points.push(run_cell::<MultiPaxosCluster>(
                    "multi-paxos",
                    placement,
                    pct,
                    spec,
                ));
                points.push(run_cell::<RaftCluster>("raft", placement, pct, spec));
            }
        }
        points
    }

    fn fields() -> Vec<Field<GeoPoint>> {
        type F = Field<GeoPoint>;
        vec![
            F::str("engine", |p| p.engine.into()).col("engine"),
            F::str("placement", |p| p.placement.into()).col("placement"),
            F::int("local_read_pct", |p| p.local_read_pct.into()),
            F::derived("local mix", |p| format!("{}%", p.local_read_pct)),
            F::int("reads", |p| p.reads as u64).col("reads"),
            F::int("local_reads", |p| p.local_reads as u64).col("local"),
            F::int("primary_local_reads", |p| p.primary_local_reads as u64).col("primary-local"),
            F::int("lease_reads", |p| p.lease_reads as u64),
            F::int("read_index_reads", |p| p.read_index_reads as u64),
            F::int("log_fallbacks", |p| p.log_fallbacks as u64),
            F::derived("lease/read-index/log", |p| {
                format!(
                    "{}/{}/{}",
                    p.lease_reads, p.read_index_reads, p.log_fallbacks
                )
            }),
            F::int("p50_primary_local_us", |p| p.p50_primary_local_us).col("p50 prim-local (µs)"),
            F::int("p99_primary_local_us", |p| p.p99_primary_local_us),
            F::int("p50_other_us", |p| p.p50_other_us).col("p50 other (µs)"),
            F::int("txn_p50_us", |p| p.txn_p50_us).col("txn p50 (µs)"),
            F::int("commits", |p| p.commits as u64),
            F::int("cross_shard_commits", |p| p.cross_shard_commits as u64).col("x-shard commits"),
            F::int("sim_micros", |p| p.sim_micros),
            F::str("fingerprint", |p| p.fingerprint.clone()),
        ]
    }

    fn header(spec: &GeoSpec, _points: &[GeoPoint]) -> Value {
        json!({
            "schema_version": SCHEMA_VERSION,
            "topology": "three_dc",
            "min_wan_rtt_us": MIN_WAN_RTT_US,
            "reads_per_router": spec.reads_per_router as u64,
            "seed": spec.seed,
        })
    }

    /// The acceptance gate on a sweep's points (empty = pass):
    ///
    /// 1. every cell commits at least one cross-shard transaction — the WAN
    ///    deployment must not break 2PC-over-consensus;
    /// 2. every cell with primary-local reads serves them with a p50 strictly
    ///    below one inter-region round trip ([`MIN_WAN_RTT_US`]);
    /// 3. each engine serves primary-local reads somewhere in the grid — the
    ///    fast path must actually exist, not be vacuously fast.
    fn gate(points: &[GeoPoint]) -> Vec<String> {
        let mut problems = Vec::new();
        for p in points {
            let cell = format!("{}/{}/{}%", p.engine, p.placement, p.local_read_pct);
            if p.cross_shard_commits == 0 {
                problems.push(format!("{cell}: no cross-shard transaction committed"));
            }
            if p.primary_local_reads > 0 && p.p50_primary_local_us >= MIN_WAN_RTT_US {
                problems.push(format!(
                    "{cell}: p50 primary-local read {} µs pays a WAN round trip (bound {} µs)",
                    p.p50_primary_local_us, MIN_WAN_RTT_US
                ));
            }
        }
        for engine in ["multi-paxos", "raft"] {
            if !points
                .iter()
                .any(|p| p.engine == engine && p.primary_local_reads > 0)
            {
                problems.push(format!(
                    "{engine}: no primary-local reads anywhere in the grid"
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_wan_priced_local_reads_and_dead_txns() {
        let spec = smoke_spec();
        let mut points = Geo::run(&spec);
        assert!(Geo::gate(&points).is_empty());
        // 1 placement × 1 mix × 2 engines.
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.reads, 3 * spec.reads_per_router);
            // The fast paths are engine-specific and mutually exclusive.
            match p.engine {
                "multi-paxos" => assert_eq!(p.read_index_reads, 0),
                "raft" => assert_eq!(p.lease_reads, 0),
                other => panic!("unknown engine {other}"),
            }
        }
        points[0].p50_primary_local_us = MIN_WAN_RTT_US;
        points[1].cross_shard_commits = 0;
        let problems = Geo::gate(&points);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
