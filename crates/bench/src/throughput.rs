//! Closed-loop throughput & batching sweep — the repo's first performance
//! trajectory.
//!
//! Every cell of the sweep builds one SMR cluster **only through the
//! [`ClusterDriver`] trait** (construct from a [`DriverConfig`], run to
//! completion, harvest metrics), so adding a protocol to the benchmark is
//! the same one impl that adds it to the nemesis harness.
//!
//! The network is the LAN profile plus the sender-side NIC serialization
//! model ([`simnet::NicModel`]): each outbound message costs a fixed
//! per-message overhead plus bytes/bandwidth on the sender's transmit path.
//! That per-message cost is exactly what batching amortizes — without a NIC
//! model the simulator gives every sender infinite transmit capacity and
//! batching can only ever *hurt* (it adds `max_delay`). With it, the sweep
//! reproduces the classic crossover: at low load batching costs latency; at
//! saturating load it multiplies throughput.
//!
//! All reported numbers are integers (µs, ops/s, centi-units) so the JSON
//! artifact `BENCH_throughput.json` is bit-for-bit reproducible from
//! `(spec, seed)` and can be drift-checked in CI.

use consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use consensus_core::workload::KvMix;
use serde_json::{json, Value};
use simnet::{NetConfig, Time};

use bft::pbft::PbftCluster;
use paxos::MultiPaxosCluster;
use raft::RaftCluster;

use crate::artifact::{Artifact, Field};

/// Version stamp of the JSON artifact layout; bump when fields change.
/// v2 added the value-size axis (`value_bytes` on every point).
pub const SCHEMA_VERSION: u64 = 2;

/// Fixed per-message NIC cost (µs) — syscall/interrupt/header overhead.
pub const NIC_PER_MSG_US: u64 = 30;

/// NIC serialization bandwidth (bytes per µs; 50 B/µs = 400 Mbit/s).
pub const NIC_BYTES_PER_US: u64 = 50;

/// Per-run horizon; closed-loop cells finish far earlier.
const HORIZON: Time = Time::from_secs(120);

/// The benchmark network: LAN propagation plus the NIC transmit model.
pub fn net_profile() -> NetConfig {
    NetConfig::lan().with_nic(NIC_PER_MSG_US, NIC_BYTES_PER_US)
}

/// One sweep grid: the cross product of cluster sizes × batch configs ×
/// closed-loop client populations, run for every SMR protocol.
pub struct SweepSpec {
    /// Cluster sizes (all ≡ 1 mod 3 so PBFT gets a valid `f`).
    pub ns: Vec<usize>,
    /// Batching/pipelining configurations (first entry must be unbatched —
    /// it is the speedup baseline).
    pub batches: Vec<BatchConfig>,
    /// `(n_clients, cmds_per_client)` populations: few clients probe
    /// latency, many clients saturate.
    pub clients: Vec<(usize, usize)>,
    /// Value-size axis: written values padded to these sizes (bytes, all
    /// nonzero), swept at the first cluster size under `value_clients` for
    /// every batch config. The main grid (tiny values, `value_bytes = 0`)
    /// is the baseline. Bigger values shift NIC transmit cost from
    /// per-message overhead to raw bytes — exactly the term batching
    /// cannot amortize. Sizes stay ≤ 1 KiB: unbatched replication of
    /// multi-KiB entries under the NIC model is unstable at saturation
    /// (the leader's retransmitted log suffix outgrows its transmit
    /// budget and the run never quiesces).
    pub value_bytes: Vec<usize>,
    /// `(n_clients, cmds_per_client)` for the value-size axis: a
    /// saturating population over a shorter burst than the main grid.
    pub value_clients: (usize, usize),
    /// Simulation seed shared by every cell.
    pub seed: u64,
}

/// A CI-sized grid: one cluster size, two configs, one saturating
/// population (few clients leave every protocol client-bound, where
/// batching has nothing to amortize).
pub fn smoke_spec() -> SweepSpec {
    SweepSpec {
        ns: vec![4],
        batches: vec![BatchConfig::unbatched(), BatchConfig::new(16, 300, 16)],
        clients: vec![(48, 15)],
        value_bytes: vec![1024],
        value_clients: (48, 15),
        seed: 1,
    }
}

/// The measured result of one `(protocol, n, batch, clients)` cell.
#[derive(Clone, Debug)]
pub struct Point {
    /// Protocol name from [`ClusterDriver::protocol`].
    pub protocol: &'static str,
    /// Replica count.
    pub n: usize,
    /// Batch configuration.
    pub batch: BatchConfig,
    /// Closed-loop client count.
    pub clients: usize,
    /// Commands per client.
    pub cmds_per_client: usize,
    /// Written-value padding (bytes); 0 = the tiny-value main grid.
    pub value_bytes: usize,
    /// Commands completed (== expected when `all_done`).
    pub completed: usize,
    /// Whether every client finished before the horizon.
    pub all_done: bool,
    /// Simulated time consumed (µs).
    pub sim_micros: u64,
    /// Committed ops per simulated second.
    pub tput_ops_per_sec: u64,
    /// Median request→reply latency (µs).
    pub p50_us: u64,
    /// Tail request→reply latency (µs).
    pub p99_us: u64,
    /// Mean decided-batch size × 100 (from the `batch_size` histogram).
    pub mean_batch_x100: u64,
    /// Network messages sent per completed op × 100.
    pub msgs_per_op_x100: u64,
}

/// Runs one cell through the driver trait and measures it.
fn run_point<D: ClusterDriver>(cfg: &DriverConfig) -> Point {
    let mut driver = D::from_config(cfg);
    let all_done = driver.run(HORIZON);
    let completed = driver.completed_ops();
    let sim_micros = driver.now().0.max(1);
    let lat = driver.latencies();
    let metrics = driver.metrics();
    let bh = &metrics.batch_size;
    let mean_batch_x100 = if bh.count() > 0 {
        (bh.mean() * 100.0).round() as u64
    } else {
        0
    };
    let msgs_per_op_x100 = if completed > 0 {
        metrics.sent * 100 / completed as u64
    } else {
        0
    };
    Point {
        protocol: driver.protocol(),
        n: cfg.n_replicas,
        batch: cfg.batch,
        clients: cfg.n_clients,
        cmds_per_client: cfg.cmds_per_client,
        value_bytes: cfg.mix.value_bytes,
        completed,
        all_done,
        sim_micros,
        tput_ops_per_sec: completed as u64 * 1_000_000 / sim_micros,
        p50_us: lat.percentile(50.0),
        p99_us: lat.percentile(99.0),
        mean_batch_x100,
        msgs_per_op_x100,
    }
}

/// Best batched/pipelined throughput ÷ unbatched throughput for one
/// `(protocol, n, clients)` group of the tiny-value main grid, × 100.
/// Value-size-axis cells are excluded so the baseline stays the classic
/// grid. Returns `None` if the group has no unbatched baseline or the
/// baseline made no progress.
pub fn speedup_x100(points: &[Point], protocol: &str, n: usize, clients: usize) -> Option<u64> {
    let group: Vec<&Point> = points
        .iter()
        .filter(|p| {
            p.protocol == protocol && p.n == n && p.clients == clients && p.value_bytes == 0
        })
        .collect();
    let base = group
        .iter()
        .find(|p| p.batch.is_unbatched())
        .map(|p| p.tput_ops_per_sec)?;
    if base == 0 {
        return None;
    }
    let best = group
        .iter()
        .filter(|p| !p.batch.is_unbatched())
        .map(|p| p.tput_ops_per_sec)
        .max()?;
    Some(best * 100 / base)
}

/// The `bench throughput` artifact, `BENCH_throughput.json`.
pub struct Throughput;

impl Artifact for Throughput {
    type Spec = SweepSpec;
    type Point = Point;
    const NAME: &'static str = "throughput";
    const PATH: &'static str = "BENCH_throughput.json";
    const LIST: &'static str = "points";

    fn full_spec() -> SweepSpec {
        SweepSpec {
            ns: vec![4, 7, 10],
            batches: vec![
                BatchConfig::unbatched(),
                BatchConfig::new(4, 200, 4),
                BatchConfig::new(16, 400, 16),
            ],
            clients: vec![(2, 150), (48, 50)],
            value_bytes: vec![256, 1024],
            value_clients: (48, 15),
            seed: 1,
        }
    }

    fn smoke_spec() -> Option<SweepSpec> {
        Some(smoke_spec())
    }

    /// Runs the full grid for all three SMR protocols. Cell order is the
    /// deterministic iteration order of the spec (clients → n → batch →
    /// protocol for the main grid, then value_bytes → batch → protocol for the
    /// value-size axis), which is also the order of `points` in the JSON
    /// artifact.
    fn run(spec: &SweepSpec) -> Vec<Point> {
        let mut points = Vec::new();
        for &(clients, cmds) in &spec.clients {
            for &n in &spec.ns {
                for &batch in &spec.batches {
                    let cfg = DriverConfig::new(n, clients, cmds, spec.seed)
                        .with_batch(batch)
                        .with_net(net_profile());
                    points.push(run_point::<MultiPaxosCluster>(&cfg));
                    points.push(run_point::<RaftCluster>(&cfg));
                    points.push(run_point::<PbftCluster>(&cfg));
                }
            }
        }
        // Value-size axis: first cluster size, dedicated saturating population.
        let n = spec.ns[0];
        let (clients, cmds) = spec.value_clients;
        for &vb in &spec.value_bytes {
            for &batch in &spec.batches {
                let cfg = DriverConfig::new(n, clients, cmds, spec.seed)
                    .with_batch(batch)
                    .with_net(net_profile())
                    .with_mix(KvMix::default().with_value_bytes(vb));
                points.push(run_point::<MultiPaxosCluster>(&cfg));
                points.push(run_point::<RaftCluster>(&cfg));
                points.push(run_point::<PbftCluster>(&cfg));
            }
        }
        points
    }

    /// Integers only (fixed-point ×100 for means), so the artifact is
    /// reproducible bit-for-bit.
    fn fields() -> Vec<Field<Point>> {
        type F = Field<Point>;
        vec![
            F::str("protocol", |p| p.protocol.into()).col("protocol"),
            F::int("n", |p| p.n as u64).col("n"),
            F::int("clients", |p| p.clients as u64).col("clients"),
            F::int("cmds_per_client", |p| p.cmds_per_client as u64),
            F::int("value_bytes", |p| p.value_bytes as u64).col("val (B)"),
            F::str("batch", |p| p.batch.label()).col("config"),
            F::int("completed", |p| p.completed as u64),
            F::bool("all_done", |p| p.all_done),
            F::int("sim_micros", |p| p.sim_micros),
            F::int("tput_ops_per_sec", |p| p.tput_ops_per_sec).col("tput (ops/s)"),
            F::int("p50_us", |p| p.p50_us).col("p50 (µs)"),
            F::int("p99_us", |p| p.p99_us).col("p99 (µs)"),
            F::int("mean_batch_x100", |p| p.mean_batch_x100),
            F::derived("mean batch", |p| {
                format!("{:.2}", p.mean_batch_x100 as f64 / 100.0)
            }),
            F::int("msgs_per_op_x100", |p| p.msgs_per_op_x100),
            F::derived("msgs/op", |p| {
                format!("{:.2}", p.msgs_per_op_x100 as f64 / 100.0)
            }),
        ]
    }

    /// Version, network profile and the speedup block: best batched ÷
    /// unbatched throughput per `(protocol, n, clients)` group.
    fn header(spec: &SweepSpec, points: &[Point]) -> Value {
        let mut speedups = Vec::new();
        for &(clients, _) in &spec.clients {
            for &n in &spec.ns {
                for protocol in ["multi-paxos", "raft", "pbft"] {
                    if let Some(s) = speedup_x100(points, protocol, n, clients) {
                        speedups.push(json!({
                            "protocol": protocol,
                            "n": n as u64,
                            "clients": clients as u64,
                            "best_batched_speedup_x100": s,
                        }));
                    }
                }
            }
        }
        json!({
            "schema_version": SCHEMA_VERSION,
            "net": "lan",
            "nic": json!({
                "per_msg_us": NIC_PER_MSG_US,
                "bytes_per_us": NIC_BYTES_PER_US,
            }),
            "seed": spec.seed,
            "speedups": Value::Array(speedups),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_cost_real_throughput() {
        // The value-size axis must be wire-real: 1 KiB values serialize
        // through the NIC model, so every protocol's unbatched cell loses
        // throughput versus its tiny-value twin.
        let spec = smoke_spec();
        let points = Throughput::run(&spec);
        // Main grid (1 n × 2 configs × 1 population × 3 protocols) plus the
        // value-size axis (1 size × 2 configs × 3 protocols).
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.all_done, "{} {} stalled", p.protocol, p.batch.label());
            assert_eq!(p.completed, p.clients * p.cmds_per_client);
            assert!(p.tput_ops_per_sec > 0);
        }
        for protocol in ["multi-paxos", "raft", "pbft"] {
            let pick = |vb: usize| {
                points
                    .iter()
                    .find(|p| {
                        p.protocol == protocol && p.value_bytes == vb && p.batch.is_unbatched()
                    })
                    .expect("cell")
            };
            let (tiny, padded) = (pick(0), pick(1024));
            assert!(
                padded.tput_ops_per_sec < tiny.tput_ops_per_sec,
                "{protocol}: 1 KiB values did not cost throughput ({} vs {})",
                padded.tput_ops_per_sec,
                tiny.tput_ops_per_sec
            );
        }
    }

    #[test]
    fn batching_pays_at_saturation_in_the_smoke_grid() {
        // Even the CI-sized grid must show a real gain at 48 closed-loop
        // clients — this is the cheap canary for the ≥3× acceptance bound
        // the full grid demonstrates at n = 7.
        let spec = smoke_spec();
        let points = Throughput::run(&spec);
        for protocol in ["multi-paxos", "raft", "pbft"] {
            let s = speedup_x100(&points, protocol, 4, 48).expect("speedup");
            assert!(
                s >= 150,
                "{protocol}: batching speedup only {}×",
                s as f64 / 100.0
            );
        }
    }
}
