//! Cold-restart recovery sweep: checkpoint threshold vs restart cost.
//!
//! One durable shard (3 replicas, 1 client, fixed workload) runs to
//! completion, then replica 2 crashes and restarts. The sweep covers both
//! consensus engines — Multi-Paxos and Raft — on the same storage engine,
//! so the artifact pins that recovery cost is a property of the storage
//! layer's checkpoint policy, not of the protocol above it. The engine's
//! counters on the restarted replica separate the two sides of the
//! checkpointing trade-off:
//!
//! * steady state — each checkpoint flushes the index, writes the blob,
//!   and truncates the WAL (`checkpoints`, `total_io_us`);
//! * restart — recovery loads the newest checkpoint and replays only the
//!   WAL tail above its floor (`records_replayed`, `recovery_io_us`).
//!
//! A small threshold checkpoints often and replays almost nothing; a large
//! one (or `None` — checkpoints disabled) writes nothing during the run
//! and replays the whole log on restart. The disk profile scales the
//! modeled time without changing any decision: the disk is latency
//! *accounting*, so every cell of the sweep decides the identical command
//! sequence and the sweep is deterministic — which is what lets CI pin
//! `BENCH_recovery.json` byte-for-byte.

use consensus_core::QuorumSpec;
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use serde_json::{json, Value};
use simnet::{DiskModel, NetConfig, Node, NodeId, Sim, Time};

use crate::artifact::{Artifact, Field};

/// Replicas per shard in the sweep scenario.
pub const REPLICAS: usize = 3;
/// Commands the client issues before the crash.
pub const COMMANDS: usize = 40;
/// Simulator seed for every cell (cells differ only in storage knobs).
pub const SEED: u64 = 29;
/// The replica that crashes and restarts.
pub const CRASHED: usize = 2;

/// Checkpoint thresholds swept; `None` disables checkpointing entirely so
/// recovery must replay the WAL from slot 0.
pub const THRESHOLDS: [Option<usize>; 5] = [Some(4), Some(8), Some(16), Some(32), None];
/// Disk latency profiles swept.
pub const DISKS: [&str; 2] = ["ssd", "hdd"];
/// Consensus engines swept over the same durable storage engine.
pub const ENGINES: [&str; 2] = ["paxos", "raft"];

fn disk_by_name(name: &str) -> DiskModel {
    match name {
        "ssd" => DiskModel::ssd(),
        "hdd" => DiskModel::hdd(),
        other => panic!("unknown disk profile {other}"),
    }
}

/// One cell of the sweep: a full run plus one crash/restart cycle.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Consensus engine above the storage engine.
    pub engine: &'static str,
    /// Checkpoint threshold (`None` = disabled).
    pub threshold: Option<usize>,
    /// Disk profile name.
    pub disk: &'static str,
    /// Checkpoint floor the restarted replica recovered from.
    pub recovered_floor: usize,
    /// WAL records recovery handed back and replayed.
    pub records_replayed: u64,
    /// Modeled device time the recovery pass charged, in µs.
    pub recovery_io_us: u64,
    /// Checkpoints the replica wrote across the whole run.
    pub checkpoints: u64,
    /// WAL records the replica appended across the whole run.
    pub wal_appends: u64,
    /// Total modeled device time on the replica, in µs.
    pub total_io_us: u64,
    /// Entries applied by the restarted replica at harvest time.
    pub applied_len: usize,
}

/// Lets the finished run settle, then crashes `node` and restarts it 49 ms
/// later, so its engine counters report one real recovery pass.
pub fn crash_and_restart<N: Node>(sim: &mut Sim<N>, node: usize) {
    sim.run_for(300_000);
    let now = sim.now();
    sim.crash_at(NodeId(node as u32), Time(now.0 + 1_000));
    sim.restart_at(NodeId(node as u32), Time(now.0 + 50_000));
    sim.run_for(500_000);
}

/// Runs one cell: workload, settle, crash, restart, harvest.
pub fn cold_restart_cell(
    engine: &'static str,
    threshold: Option<usize>,
    disk: &'static str,
) -> RecoveryPoint {
    // A macro, not a generic function: the Paxos and Raft replicas expose
    // the recovery counters under the same field names, not a shared trait.
    macro_rules! cell {
        ($cluster:expr, $($applied_len:tt)+) => {{
            let mut c = $cluster
                .with_durability(threshold.unwrap_or(usize::MAX), disk_by_name(disk));
            assert!(c.run(Time::from_secs(30)), "durable cluster stalled");
            crash_and_restart(&mut c.sim, CRASHED);
            let r = c.replicas().nth(CRASHED).expect("crashed replica exists");
            let s = r.storage_stats().expect("durable engine attached");
            assert_eq!(s.recoveries, 1, "restart must run exactly one recovery");
            RecoveryPoint {
                engine,
                threshold,
                disk,
                recovered_floor: r.disk.recovered_floor,
                records_replayed: r.disk.last_recovery_replayed,
                recovery_io_us: r.disk.last_recovery_io_us,
                checkpoints: s.snapshots_written,
                wal_appends: s.wal_appends,
                total_io_us: s.io_time_us,
                applied_len: r.$($applied_len)+,
            }
        }};
    }
    let (quorum, net) = (QuorumSpec::Majority { n: REPLICAS }, NetConfig::lan());
    match engine {
        "paxos" => cell!(
            MultiPaxosCluster::new(quorum, 1, COMMANDS, net, SEED),
            log.applied_len()
        ),
        "raft" => cell!(
            RaftCluster::new(REPLICAS, 1, COMMANDS, net, SEED),
            last_applied()
        ),
        other => panic!("unknown engine {other}"),
    }
}

/// The `bench recovery` artifact, `BENCH_recovery.json`. One fixed grid:
/// there is no smoke spec.
pub struct Recovery;

impl Artifact for Recovery {
    type Spec = ();
    type Point = RecoveryPoint;
    const NAME: &'static str = "recovery";
    const PATH: &'static str = "BENCH_recovery.json";
    const LIST: &'static str = "points";

    fn full_spec() {}

    /// Runs the full sweep in registry order (engine-major, then disk, then
    /// threshold).
    fn run(_spec: &()) -> Vec<RecoveryPoint> {
        let mut points = Vec::new();
        for engine in ENGINES {
            for disk in DISKS {
                for threshold in THRESHOLDS {
                    points.push(cold_restart_cell(engine, threshold, disk));
                }
            }
        }
        points
    }

    fn fields() -> Vec<Field<RecoveryPoint>> {
        type F = Field<RecoveryPoint>;
        vec![
            F::str("engine", |p| p.engine.into()).col("engine"),
            F::str("disk", |p| p.disk.into()).col("disk"),
            F::opt_int("threshold", |p| p.threshold.map(|t| t as u64)),
            F::derived("threshold", |p| {
                p.threshold.map_or("off".into(), |t| t.to_string())
            }),
            F::int("recovered_floor", |p| p.recovered_floor as u64).col("floor"),
            F::int("records_replayed", |p| p.records_replayed).col("replayed"),
            F::int("recovery_io_us", |p| p.recovery_io_us).col("recovery µs"),
            F::int("checkpoints", |p| p.checkpoints).col("checkpoints"),
            F::int("wal_appends", |p| p.wal_appends),
            F::int("total_io_us", |p| p.total_io_us).col("run-total µs"),
            F::int("applied_len", |p| p.applied_len as u64),
        ]
    }

    fn header(_spec: &(), _points: &[RecoveryPoint]) -> Value {
        json!({
            "schema": "bench/recovery/v2",
            "scenario": json!({
                "replicas": REPLICAS,
                "commands": COMMANDS,
                "seed": SEED,
                "crashed_replica": CRASHED,
            }),
            "engines": ENGINES.as_slice(),
            "disks": DISKS.as_slice(),
            "thresholds": THRESHOLDS.as_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointing_trades_replay_for_checkpoint_io() {
        // The two extreme ssd cells pin the trade-off: frequent checkpoints
        // leave almost no WAL to replay; no checkpoints replay everything.
        // The same shape must hold under both consensus engines.
        for engine in ENGINES {
            let tight = cold_restart_cell(engine, Some(4), "ssd");
            let off = cold_restart_cell(engine, None, "ssd");
            assert!(
                tight.checkpoints >= 1,
                "{engine}: threshold 4 never checkpointed"
            );
            assert!(
                tight.recovered_floor > 0,
                "{engine}: recovery ignored the checkpoint"
            );
            assert_eq!(off.checkpoints, 0);
            assert_eq!(
                off.recovered_floor, 0,
                "{engine}: no checkpoint: replay from slot 0"
            );
            assert!(
                off.records_replayed > tight.records_replayed,
                "{engine}: disabled checkpoints must replay more ({} vs {})",
                off.records_replayed,
                tight.records_replayed
            );
            // Same seed, same knobs → same numbers.
            let again = cold_restart_cell(engine, Some(4), "ssd");
            assert_eq!(tight.records_replayed, again.records_replayed);
            assert_eq!(tight.recovery_io_us, again.recovery_io_us);
        }
    }

    #[test]
    fn disk_profile_scales_time_but_not_decisions() {
        for engine in ENGINES {
            let ssd = cold_restart_cell(engine, Some(8), "ssd");
            let hdd = cold_restart_cell(engine, Some(8), "hdd");
            assert_eq!(ssd.records_replayed, hdd.records_replayed);
            assert_eq!(ssd.recovered_floor, hdd.recovered_floor);
            assert_eq!(ssd.applied_len, hdd.applied_len);
            assert!(
                hdd.recovery_io_us > ssd.recovery_io_us,
                "{engine}: the slower disk must charge more recovery time"
            );
        }
    }
}
