//! The four workloads: input generation, one timed iteration, harvest and
//! output checks.
//!
//! An iteration builds each of the workload's clusters ("cells") from its
//! generated config, runs it to completion and reads the completed-op count;
//! that is the timed part. Harvest and every correctness check run after the
//! clock stops. The program under test sees only the generated
//! `DriverConfig` / `StoreConfig`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bft::pbft::PbftCluster;
use consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use consensus_core::history::ClientRecord;
use consensus_core::txn::TxnDecision;
use consensus_core::workload::KvMix;
use consensus_core::{Command, KvCommand, KvResponse};
use nemesis::check_linearizable;
use nemesis::checker::{
    check_log_agreement, check_range_consistency, check_state_digests, check_txn_atomicity,
};
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use simnet::{DiskModel, Metrics, NetConfig, NodeId, Time};
use storage::StorageStats;
use store::{ShardEngine, Store, StoreConfig, QUANTUM_US, ROUTER_BASE};

use crate::calibrate;
use crate::probes::{self, Replay, ReplayInput};
use crate::trace::Tracer;

/// Simulated-time cap per cluster; every cell finishes in under 2 sim-s, so
/// reaching it means the run stalled and its unfinished ops count as failed.
const HORIZON: Time = Time::from_secs(60);
/// Checkpoint threshold (log entries) and buffer-pool size (pages) are both
/// 64 in the durable cells; the pool size is the storage crate's constant.
const SNAPSHOT_EVERY: usize = 64;
/// `smr-durable-crash`: node 0, the initial leader, is down for 150 sim-ms.
const CRASH_AT: Time = Time(100_000);
const RESTART_AT: Time = Time(250_000);
const CRASHED: NodeId = NodeId(0);
/// Extra simulated time, outside the clock, before replica states are
/// compared: lagging and restarted replicas catch up, and a Raft follower that
/// installed a snapshot mid-run re-applies the entries its machine is ahead
/// of its `last_applied` by (README, "Limits found" 3).
const SETTLE_US: u64 = 500_000;
/// The same for a store, in `Store::step` quanta (100 sim-ms).
const STORE_SETTLE_STEPS: u64 = 200;
/// DFS-step budget of the linearizability check (first iteration only). The
/// checker treats an exhausted budget as "no violation found".
const LIN_BUDGET: u64 = 200_000;

/// LAN delay plus a sender-side NIC of 30 µs per message and 50 B/µs — the
/// profile `BENCH_throughput.json` uses, so latency is never host-only.
pub fn net() -> NetConfig {
    NetConfig::lan().with_nic(30, 50)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Paxos,
    Raft,
    Pbft,
}

impl Proto {
    /// The crate (= layer) name used as the metric prefix.
    pub fn layer(self) -> &'static str {
        match self {
            Proto::Paxos => "paxos",
            Proto::Raft => "raft",
            Proto::Pbft => "pbft",
        }
    }
}

/// One cluster of one iteration, fully described by generated config.
pub enum Cell {
    Smr {
        proto: Proto,
        cfg: DriverConfig,
        durable: bool,
        crash: bool,
    },
    Store {
        proto: Proto,
        cfg: StoreConfig,
    },
}

/// Input generation: the cells of one iteration of `workload`. Every
/// random choice downstream derives from `sim_seed`.
pub fn generate(workload: &str, sim_seed: u64) -> Vec<Cell> {
    let smr = |proto, cfg| Cell::Smr {
        proto,
        cfg,
        durable: false,
        crash: false,
    };
    match workload {
        "smr-small" => {
            let cfg = |n| DriverConfig::new(n, 48, 50, sim_seed).with_net(net());
            vec![
                smr(Proto::Paxos, cfg(5)),
                smr(Proto::Raft, cfg(5)),
                smr(Proto::Pbft, cfg(4)),
            ]
        }
        "smr-batched-1k" => {
            let cfg = |n| {
                DriverConfig::new(n, 48, 50, sim_seed)
                    .with_net(net())
                    .with_batch(BatchConfig::new(16, 400, 16))
                    .with_mix(KvMix::default().with_value_bytes(1024))
            };
            vec![
                smr(Proto::Paxos, cfg(5)),
                smr(Proto::Raft, cfg(5)),
                smr(Proto::Pbft, cfg(4)),
            ]
        }
        "smr-durable-crash" => {
            // 2048 keys x 512 B is ~290 leaf pages against a 64-page pool.
            let mix = KvMix {
                keys: 2048,
                value_bytes: 512,
                write_fraction: 0.5,
                cas_fraction: 0.0,
            };
            let cfg = DriverConfig::new(5, 16, 100, sim_seed)
                .with_net(net())
                .with_batch(BatchConfig::new(16, 400, 16))
                .with_mix(mix);
            [Proto::Paxos, Proto::Raft]
                .into_iter()
                .map(|proto| Cell::Smr {
                    proto,
                    cfg: cfg.clone(),
                    durable: true,
                    crash: true,
                })
                .collect()
        }
        "store-txn" => {
            // 64 keys per shard fit the 64-page pool: the fits-in-cache
            // counterpart of `smr-durable-crash`.
            let cfg = StoreConfig::new(sim_seed)
                .txns_per_router(100)
                .singles_per_router(100)
                .keys_per_shard(64)
                .net(net())
                .durable(SNAPSHOT_EVERY, DiskModel::ssd());
            // Multi-Paxos runs without range scans: durable + ranges panics
            // on some seeds (see README, "Limits found").
            vec![
                Cell::Store {
                    proto: Proto::Paxos,
                    cfg: cfg.clone(),
                },
                Cell::Store {
                    proto: Proto::Raft,
                    cfg: cfg.ranges_per_router(20),
                },
            ]
        }
        other => panic!("unknown workload {other}"),
    }
}

/// What the harness needs from a log-replication cluster beyond
/// [`ClusterDriver`]: the storage hooks the two durable engines share.
pub trait SmrCluster: ClusterDriver + Sized {
    /// Attaches a fresh durable engine to every replica.
    fn durable(self, threshold: usize, disk: DiskModel) -> Self;
    /// Storage counters of every replica that has an engine.
    fn storage_stats(&self) -> Vec<StorageStats>;
    /// Whether every replica has applied `(client, seq)`.
    fn applied_on_all(&self, client: u32, seq: u64) -> bool;
}

impl SmrCluster for MultiPaxosCluster {
    fn durable(self, threshold: usize, disk: DiskModel) -> Self {
        self.with_durability(threshold, disk)
    }
    fn storage_stats(&self) -> Vec<StorageStats> {
        self.replicas().filter_map(|r| r.storage_stats()).collect()
    }
    fn applied_on_all(&self, client: u32, seq: u64) -> bool {
        self.replicas()
            .all(|r| r.log.machine().cached(client, seq).is_some())
    }
}

impl SmrCluster for RaftCluster {
    fn durable(self, threshold: usize, disk: DiskModel) -> Self {
        self.with_durability(threshold, disk)
    }
    fn storage_stats(&self) -> Vec<StorageStats> {
        self.replicas().filter_map(|r| r.storage_stats()).collect()
    }
    fn applied_on_all(&self, client: u32, seq: u64) -> bool {
        self.replicas()
            .all(|r| r.machine().cached(client, seq).is_some())
    }
}

impl SmrCluster for PbftCluster {
    fn durable(self, _: usize, _: DiskModel) -> Self {
        unreachable!("no workload runs PBFT on the durable engine")
    }
    fn storage_stats(&self) -> Vec<StorageStats> {
        Vec::new()
    }
    fn applied_on_all(&self, _: u32, _: u64) -> bool {
        true
    }
}

/// Store-level numbers of one `Store` run (simulated time and counts).
#[derive(Clone, Debug, Default)]
pub struct StoreSim {
    pub txns: u64,
    pub commits: u64,
    pub txn_lat: Vec<u64>,
    pub single_lat: Vec<u64>,
    pub range_lat: Vec<u64>,
    pub steps: u64,
    /// Steps in which no shard processed an event (traced runs only).
    pub idle_steps: u64,
}

/// Everything deterministic about one cell: simulated time and counters.
#[derive(Clone, Debug, Default)]
pub struct CellSim {
    pub latencies: Vec<u64>,
    /// Resolution of the latencies: 1 µs, or the store's stepping quantum.
    pub resolution_us: u64,
    /// Simulated time of the last completed op.
    pub end_us: u64,
    pub max_stall_us: u64,
    pub sent: u64,
    pub delivered: u64,
    pub timer_fires: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub batches: u64,
    pub batched_cmds: f64,
    pub elections: u64,
    /// Summed over the cell's durable replicas.
    pub storage: StorageStats,
    pub durable_replicas: u64,
    /// Key + value bytes of every acknowledged write.
    pub user_bytes: u64,
    pub fingerprint: u64,
    pub store: Option<StoreSim>,
}

impl CellSim {
    pub fn events(&self) -> u64 {
        self.delivered + self.timer_fires
    }

    /// Frees the per-op latency samples, keeping every counter.
    pub fn drop_samples(&mut self) {
        self.latencies = Vec::new();
        if let Some(st) = &mut self.store {
            st.txn_lat = Vec::new();
            st.single_lat = Vec::new();
            st.range_lat = Vec::new();
        }
    }
}

pub struct CellResult {
    pub proto: Proto,
    /// Construction (`from_config` / `Store::new`), part of `wall_ns`.
    pub build_ns: u64,
    /// The timed part: construct, run to completion, read completed ops.
    pub wall_ns: u64,
    /// Host speed around the timed part, relative to the reference kernel.
    pub host_speed: f64,
    pub attempted: u64,
    pub completed: u64,
    /// Failed checks, horizon hits and caught panics.
    pub failures: Vec<String>,
    pub sim: CellSim,
    /// Host ns of each `Store::step` call (traced store runs only).
    pub step_ns: Vec<u32>,
    pub replay: Option<Replay>,
}

impl CellResult {
    /// Ops completed *and* verified: a cell with any failure counts none.
    pub fn verified(&self) -> u64 {
        if self.failures.is_empty() {
            self.completed
        } else {
            0
        }
    }
}

/// Per-iteration switches.
pub struct IterOpts<'a> {
    /// Run the (bounded) linearizability check.
    pub lin_check: bool,
    /// Traced run: record spans, drive `Store::step` from the harness, and
    /// run the replay probes after each cell.
    pub traced: bool,
    pub tracer: &'a mut Tracer,
    /// Parent span (the iteration).
    pub parent: Option<usize>,
}

/// Runs one cell; a panic inside it is caught and reported as a failure.
pub fn run_cell(cell: &Cell, opts: &mut IterOpts) -> CellResult {
    let (proto, attempted) = match cell {
        Cell::Smr { proto, cfg, .. } => (*proto, (cfg.n_clients * cfg.cmds_per_client) as u64),
        Cell::Store { proto, cfg } => {
            let per_router = cfg.txns_per_router + cfg.singles_per_router + cfg.ranges_per_router;
            (*proto, (cfg.n_routers * per_router) as u64)
        }
    };
    let run = catch_unwind(AssertUnwindSafe(|| match cell {
        Cell::Smr {
            proto,
            cfg,
            durable,
            crash,
        } => match proto {
            Proto::Paxos => {
                run_smr::<MultiPaxosCluster>(*proto, cfg, *durable, *crash, attempted, opts)
            }
            Proto::Raft => run_smr::<RaftCluster>(*proto, cfg, *durable, *crash, attempted, opts),
            Proto::Pbft => run_smr::<PbftCluster>(*proto, cfg, *durable, *crash, attempted, opts),
        },
        Cell::Store { proto, cfg } => match proto {
            Proto::Paxos => run_store::<MultiPaxosCluster>(*proto, cfg, attempted, opts),
            Proto::Raft => run_store::<RaftCluster>(*proto, cfg, attempted, opts),
            Proto::Pbft => unreachable!("the store has no PBFT shard engine"),
        },
    }));
    run.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        CellResult {
            proto,
            build_ns: 0,
            wall_ns: 0,
            host_speed: 1.0,
            attempted,
            completed: 0,
            failures: vec![format!("panic: {msg}")],
            sim: CellSim::default(),
            step_ns: Vec::new(),
            replay: None,
        }
    })
}

/// FNV-1a, folded into `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A run that stopped short of its workload: the first output check.
fn completion_failure(
    name: &str,
    all_done: bool,
    completed: u64,
    attempted: u64,
) -> Option<String> {
    if !all_done {
        Some(format!(
            "{name}: horizon reached with {completed}/{attempted} ops"
        ))
    } else if completed != attempted {
        Some(format!("{name}: completed {completed} of {attempted}"))
    } else {
        None
    }
}

/// Longest gap between consecutive completions.
fn max_gap(mut done: Vec<u64>) -> (u64, u64) {
    done.sort_unstable();
    let stall = done.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    (stall, done.last().copied().unwrap_or(0))
}

fn net_counts(sim: &mut CellSim, m: &Metrics) {
    sim.sent += m.sent;
    sim.delivered += m.delivered;
    sim.timer_fires += m.timer_fires;
    sim.bytes += m.bytes_sent;
    sim.dropped += m.dropped;
    sim.batches += m.batch_size.count();
    sim.batched_cmds += m.batch_size.mean() * m.batch_size.count() as f64;
    sim.elections += m.phase("leader-election");
}

fn storage_counts(sim: &mut CellSim, stats: &[StorageStats]) {
    let s = &mut sim.storage;
    for r in stats {
        s.disk_reads += r.disk_reads;
        s.disk_writes += r.disk_writes;
        s.bytes_read += r.bytes_read;
        s.bytes_written += r.bytes_written;
        s.io_time_us += r.io_time_us;
        s.wal_appends += r.wal_appends;
        s.wal_flushes += r.wal_flushes;
        s.pool_hits += r.pool_hits;
        s.pool_misses += r.pool_misses;
        s.evictions += r.evictions;
        s.writebacks += r.writebacks;
        s.snapshots_written += r.snapshots_written;
        s.recoveries += r.recoveries;
        s.records_replayed += r.records_replayed;
    }
    sim.durable_replicas += stats.len() as u64;
}

fn written_bytes(history: &[ClientRecord]) -> u64 {
    history
        .iter()
        .filter(|r| r.is_complete())
        .map(|r| match (&r.op, r.response()) {
            (KvCommand::Put { key, value }, _) => key.len() + value.len(),
            (KvCommand::Cas { key, new, .. }, Some(KvResponse::CasResult { swapped: true })) => {
                key.len() + new.len()
            }
            _ => 0,
        } as u64)
        .sum()
}

/// The iteration's own operation stream: every acknowledged op, in
/// completion order. The replay probes feed it to one layer at a time.
fn op_stream(history: &[ClientRecord]) -> Vec<Command<KvCommand>> {
    let mut done: Vec<&ClientRecord> = history.iter().filter(|r| r.is_complete()).collect();
    done.sort_by_key(|r| (r.completed_at(), r.client, r.seq));
    done.into_iter()
        .map(|r| Command {
            client: r.client,
            seq: r.seq,
            op: r.op.clone(),
        })
        .collect()
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

fn run_smr<D: SmrCluster>(
    proto: Proto,
    cfg: &DriverConfig,
    durable: bool,
    crash: bool,
    attempted: u64,
    opts: &mut IterOpts,
) -> CellResult {
    // ---- timed ---------------------------------------------------------
    let before = calibrate::reading();
    let t0 = Instant::now();
    let mut d = D::from_config(cfg);
    if durable {
        d = d.durable(SNAPSHOT_EVERY, DiskModel::ssd());
    }
    if crash {
        d.crash_at(CRASHED, CRASH_AT);
        d.restart_at(CRASHED, RESTART_AT);
    }
    let built = Instant::now();
    let all_done = d.run(HORIZON);
    let completed = d.completed_ops() as u64;
    let end = Instant::now();
    let host_speed = calibrate::speed(before, calibrate::reading());
    // ---- clock stopped -------------------------------------------------
    opts.tracer.record("construct", opts.parent, t0, built);
    opts.tracer.record("run", opts.parent, built, end);

    let harvest = opts.tracer.open("harvest", opts.parent);
    let mut sim = CellSim {
        latencies: d.latencies().samples().to_vec(),
        resolution_us: 1,
        ..CellSim::default()
    };
    net_counts(&mut sim, d.metrics());
    let history = d.history();
    let (stall, last) = max_gap(history.iter().filter_map(|r| r.completed_at()).collect());
    sim.max_stall_us = stall;
    sim.end_us = last;
    sim.user_bytes = written_bytes(&history);
    storage_counts(&mut sim, &d.storage_stats());
    let n_nodes = cfg.n_replicas + cfg.n_clients;
    opts.tracer.close(harvest);

    let check = opts.tracer.open("check", opts.parent);
    let mut failures: Vec<String> =
        completion_failure(proto.layer(), all_done, completed, attempted)
            .into_iter()
            .collect();
    let settle = Time(d.now().0 + SETTLE_US);
    d.run_until(settle);
    if crash {
        // The restarted replica must have recovered exactly once, and no
        // acknowledged op may be missing anywhere.
        let recoveries = d.storage_stats().first().map_or(0, |s| s.recoveries);
        if recoveries != 1 {
            failures.push(format!(
                "{}: crashed replica ran {recoveries} recoveries",
                proto.layer()
            ));
        }
        let mut last_acked: BTreeMap<u32, u64> = BTreeMap::new();
        for r in history.iter().filter(|r| r.is_complete()) {
            let e = last_acked.entry(r.client).or_insert(r.seq);
            *e = (*e).max(r.seq);
        }
        for (client, seq) in last_acked {
            if !d.applied_on_all(client, seq) {
                failures.push(format!(
                    "{}: acknowledged op ({client}, {seq}) missing on a replica",
                    proto.layer()
                ));
            }
        }
    }
    let decided = d.decided_log();
    let digests = d.state_digests();
    for v in check_log_agreement(&decided)
        .into_iter()
        .chain(check_state_digests(&digests))
    {
        failures.push(format!("{}: {v}", proto.layer()));
    }
    if opts.lin_check {
        for v in check_linearizable(&history, LIN_BUDGET) {
            failures.push(format!("{}: {v}", proto.layer()));
        }
    }
    let mut h = FNV_OFFSET;
    for e in &decided {
        fnv(&mut h, &e.node.to_le_bytes());
        fnv(&mut h, &e.index.to_le_bytes());
        fnv(&mut h, e.op.as_bytes());
    }
    for (node, len, digest) in &digests {
        fnv(&mut h, &node.to_le_bytes());
        fnv(&mut h, &len.to_le_bytes());
        fnv(&mut h, &digest.to_le_bytes());
    }
    sim.fingerprint = h;
    opts.tracer.close(check);

    let replay = opts.traced.then(|| {
        let input = ReplayInput {
            n_nodes,
            fanout: cfg.n_replicas - 1,
            inflight: cfg.n_clients,
            net: cfg.net.clone(),
            streams: vec![op_stream(&history)],
            history: &history,
            decided: vec![decided],
            gen: Some((cfg.n_clients, cfg.cmds_per_client, cfg.mix, cfg.seed)),
            replicas_per_stream: cfg.n_replicas as u64,
        };
        probes::replay(&input, &sim, opts.tracer, opts.parent)
    });

    CellResult {
        proto,
        build_ns: ns(t0, built),
        wall_ns: ns(t0, end),
        host_speed,
        attempted,
        completed,
        failures,
        sim,
        step_ns: Vec::new(),
        replay,
    }
}

/// `Store::run`, re-done by the harness so each `step` call can be timed and
/// idle steps counted. Must stay in lockstep with `Store::run`.
fn drive_store<E: ShardEngine>(s: &mut Store<E>, step_ns: &mut Vec<u32>, idle: &mut u64) -> bool {
    let events = |s: &Store<E>| -> u64 {
        s.shards()
            .iter()
            .map(|e| e.metrics().delivered + e.metrics().timer_fires)
            .sum()
    };
    let mut step = |s: &mut Store<E>| {
        let before = events(s);
        let t = Instant::now();
        s.step();
        step_ns.push(t.elapsed().as_nanos() as u32);
        if events(s) == before {
            *idle += 1;
        }
    };
    while s.now() + QUANTUM_US <= HORIZON.0 && !s.main_quiesced() {
        step(s);
    }
    s.start_audit();
    while s.now() + QUANTUM_US <= HORIZON.0 && !s.audit_done() {
        step(s);
    }
    s.main_quiesced() && s.audit_done()
}

fn run_store<E: ShardEngine + SmrCluster>(
    proto: Proto,
    cfg: &StoreConfig,
    attempted: u64,
    opts: &mut IterOpts,
) -> CellResult {
    let mut step_ns = Vec::new();
    let mut idle_steps = 0;

    // ---- timed ---------------------------------------------------------
    let before = calibrate::reading();
    let t0 = Instant::now();
    let mut s: Store<E> = Store::new(cfg.clone());
    let built = Instant::now();
    let all_done = if opts.traced {
        drive_store(&mut s, &mut step_ns, &mut idle_steps)
    } else {
        s.run(HORIZON)
    };
    let end = Instant::now();
    let host_speed = calibrate::speed(before, calibrate::reading());
    // ---- clock stopped -------------------------------------------------
    opts.tracer.record("construct", opts.parent, t0, built);
    opts.tracer.record("step", opts.parent, built, end);

    let harvest = opts.tracer.open("harvest", opts.parent);
    let history = s.history();
    let routers = ROUTER_BASE..ROUTER_BASE + cfg.n_routers as u32;
    let outcomes = s.outcomes();
    let mut st = StoreSim {
        txns: outcomes.len() as u64,
        commits: outcomes
            .iter()
            .filter(|o| o.decision == TxnDecision::Commit)
            .count() as u64,
        txn_lat: outcomes.iter().map(|o| o.latency_us).collect(),
        steps: s.now() / QUANTUM_US,
        idle_steps,
        ..StoreSim::default()
    };
    // Router records that are neither 2PC control traffic nor a tagged
    // transaction write are the workload's single-key ops; the per-shard
    // legs of one range scan share a client and an invocation time.
    let mut ranges: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut completions: Vec<u64> = outcomes.iter().map(|o| o.at).collect();
    completions.extend(s.range_results().iter().map(|r| r.at));
    for r in history.iter().filter(|r| routers.contains(&r.client)) {
        let Some(done) = r.completed_at() else {
            continue;
        };
        match &r.op {
            KvCommand::Range { .. } => {
                let e = ranges.entry((r.client, r.invoked)).or_insert(0);
                *e = (*e).max(done - r.invoked);
            }
            KvCommand::Put { key, value } if !key.starts_with('~') && !value.contains("@t") => {
                st.single_lat.push(done - r.invoked);
                completions.push(done);
            }
            KvCommand::Get { key } if !key.starts_with('~') => {
                st.single_lat.push(done - r.invoked);
                completions.push(done);
            }
            _ => {}
        }
    }
    st.range_lat = ranges.into_values().collect();
    let completed = (st.txn_lat.len() + st.single_lat.len() + s.range_results().len()) as u64;

    let mut sim = CellSim {
        resolution_us: QUANTUM_US,
        ..CellSim::default()
    };
    sim.latencies.extend(&st.txn_lat);
    sim.latencies.extend(&st.single_lat);
    sim.latencies.extend(&st.range_lat);
    let (stall, last) = max_gap(completions);
    sim.max_stall_us = stall;
    sim.end_us = last;
    sim.user_bytes = written_bytes(&history);
    for shard in s.shards() {
        net_counts(&mut sim, shard.metrics());
        storage_counts(&mut sim, &shard.storage_stats());
    }
    sim.fingerprint = s.fingerprint();
    sim.store = Some(st);
    opts.tracer.close(harvest);

    let check = opts.tracer.open("check", opts.parent);
    for _ in 0..STORE_SETTLE_STEPS {
        s.step();
    }
    let name = format!("store/{}", proto.layer());
    let mut failures: Vec<String> = completion_failure(&name, all_done, completed, attempted)
        .into_iter()
        .collect();
    let decided: Vec<_> = s.shards().iter().map(|e| e.decided_log()).collect();
    for (shard, log) in s.shards().iter().zip(&decided) {
        let digests = check_state_digests(&shard.state_digests());
        for v in check_log_agreement(log).into_iter().chain(digests) {
            failures.push(format!("{name}: {v}"));
        }
    }
    let store_checks = check_txn_atomicity(&history)
        .into_iter()
        .chain(check_range_consistency(&history));
    for v in store_checks {
        failures.push(format!("{name}: {v}"));
    }
    if opts.lin_check {
        for v in check_linearizable(&history, LIN_BUDGET) {
            failures.push(format!("{name}: {v}"));
        }
    }
    opts.tracer.close(check);

    let replay = opts.traced.then(|| {
        // One operation stream per shard: single-key ops go to the key's
        // shard, range scans fan out to all of them.
        let mut streams = vec![Vec::new(); cfg.n_shards];
        for cmd in op_stream(&history) {
            match &cmd.op {
                KvCommand::Range { .. } => streams.iter_mut().for_each(|s| s.push(cmd.clone())),
                KvCommand::Put { key, .. }
                | KvCommand::Get { key }
                | KvCommand::Delete { key }
                | KvCommand::Cas { key, .. } => streams[s.shard_of(key)].push(cmd),
            }
        }
        let input = ReplayInput {
            n_nodes: cfg.replicas_per_shard + 1,
            fanout: cfg.replicas_per_shard - 1,
            inflight: cfg.n_routers,
            net: cfg.net.clone(),
            streams,
            history: &history,
            decided,
            gen: None,
            replicas_per_stream: cfg.replicas_per_shard as u64,
        };
        probes::replay(&input, &sim, opts.tracer, opts.parent)
    });

    CellResult {
        proto,
        build_ns: ns(t0, built),
        wall_ns: ns(t0, end),
        host_speed,
        attempted,
        completed,
        failures,
        sim,
        step_ns,
        replay,
    }
}
