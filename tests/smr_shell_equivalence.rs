//! "Same shell, same bytes": the SMR shell — op type, dedup machine, workload
//! client, batch policy, cluster harness — is shared by Multi-Paxos, Raft and
//! PBFT, and every run is a pure function of its config. The constants below
//! were recorded at the commit *before* the shell was extracted (when each
//! protocol crate still carried its own copy of all five); the shared pieces
//! must reproduce them exactly, because node order, RNG draws, timer arming
//! order and message contents all feed the fingerprints of the checked-in
//! artifacts.
//!
//! Between the two halves, the sharded store's rows: the paths the four
//! fault-free 2PC-over-consensus store rows never reach — every commit
//! backend at every router-crash point, a router restart, causal tracing,
//! and the geo fast read served, NACKed and timed out — recorded at 9fa5da1,
//! before routers, recovery and audit were moved onto one `Port`.
//!
//! After the store's rows, the `durable_*` rows: what a durable replica does
//! to its engine — every storage counter, the recovery and decision-table
//! bookkeeping, and the device's bytes — under a leader crash, a follower
//! caught up by state transfer and a store shard-replica restart, recorded
//! at bcb1844, before the byte codec, the engine handle and the index-mirror
//! rule each moved to one home under Multi-Paxos and Raft. The Multi-Paxos
//! entries were re-recorded once since, in the `InstallState`-prune epoch
//! (see the constants).
//!
//! The second half does the same for the six BFT protocols that joined the
//! shell later (MinBFT, CheapBFT, XFT, SeeMoRe, Zyzzyva, HotStuff). Their
//! constants were recorded by running these rows against the `*Cluster`
//! structs and private workload clients of the commit before the move
//! (14b98a2), in a clone of it.
//!
//! The last part runs all seven BFT protocols with three concurrent clients —
//! what the single-client rows never reach: the primary's in-flight scan,
//! instances decided out of order, the watchdog re-armed while other requests
//! are pending — recorded at d78aa45, before the replica half of each (request
//! admission, in-order execution, view-change voting) moved into `bft::shell`.
//!
//! Every row that hashes bytes sent was re-recorded once, in the wire-size
//! epoch, when messages came to be priced by one rule (an envelope plus the
//! codec bytes of the commands and ops they carry,
//! `consensus_core::codec::wire_size`); hashed without byte counts, each
//! equals its earlier recording except the loaded-NIC row, whose timing the
//! bytes drive.

use forty::bft::cheapbft::{CheapBft, CheapCluster, Protocol};
use forty::bft::hotstuff::{HotStuff, HsCluster, HsConfig};
use forty::bft::minbft::{MinBft, MinCluster};
use forty::bft::pbft::{Pbft, PbftCluster};
use forty::bft::seemore::{Mode, SeeMoRe, SeeMoReConfig, SmCluster};
use forty::bft::xft::{Xft, XftCluster};
use forty::bft::zyzzyva::{ZyzCluster, Zyzzyva};
use forty::consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use forty::consensus_core::workload::KvMix;
use forty::consensus_core::{Cluster, Proc, ReadMode, SmrProtocol, StateMachine, WorkloadMode};
use forty::consensus_core::DurableProtocol;
use forty::paxos::multi::MultiPaxos;
use forty::paxos::MultiPaxosCluster;
use forty::raft::{Raft, RaftCluster};
use forty::simnet::{DiskModel, DropAll, NetConfig, NodeId, Time};
use forty::store::{
    CommitBackend, GeoConfig, ReadOutcome, RouterCrashPoint, ShardEngine, Store, StoreConfig,
};
use nemesis::checker::check_log_agreement;

const SEEDS: [u64; 2] = [3, 11];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// Runs `d` to completion and hashes everything a run exposes through the
/// driver surface: the decided log as `(node, index, op string)`, the state
/// digests, the network and timer counters, and the sorted client latencies.
fn fingerprint<D: ClusterDriver>(mut d: D) -> u64 {
    assert!(d.run(Time::from_secs(120)), "{} stalled", d.protocol());
    let mut h = Fnv::new();
    eat_driver(&d, &mut h);
    h.0
}

fn eat_driver<D: ClusterDriver>(d: &D, h: &mut Fnv) {
    for e in d.decided_log() {
        h.eat_u64(u64::from(e.node));
        h.eat_u64(e.index);
        h.eat(e.op.as_bytes());
    }
    for (node, len, digest) in d.state_digests() {
        h.eat_u64(u64::from(node));
        h.eat_u64(len);
        h.eat_u64(digest);
    }
    let m = d.metrics();
    for v in [m.sent, m.delivered, m.bytes_sent, m.timer_fires] {
        h.eat_u64(v);
    }
    let mut latencies = d.latencies().samples().to_vec();
    latencies.sort_unstable();
    for v in latencies {
        h.eat_u64(v);
    }
}

/// Unbatched closed-loop: tiny default values, one command per slot.
fn unbatched(n_replicas: usize, seed: u64) -> DriverConfig {
    DriverConfig::new(n_replicas, 4, 25, seed)
}

/// `BatchConfig` 16/400/16 under open-loop arrivals fast enough that real
/// multi-command batches form; a CAS share and padded values exercise every
/// op kind and the payload-priced wire sizes.
fn batched(n_replicas: usize, seed: u64) -> DriverConfig {
    DriverConfig::new(n_replicas, 4, 25, seed)
        .with_batch(BatchConfig::new(16, 400, 16))
        .with_mode(WorkloadMode::Open { interval_us: 150 })
        .with_mix(KvMix {
            cas_fraction: 0.2,
            value_bytes: 200,
            ..KvMix::default()
        })
}

fn sweep<D: ClusterDriver>(n_replicas: usize) -> [u64; 4] {
    [
        fingerprint(D::from_config(&unbatched(n_replicas, SEEDS[0]))),
        fingerprint(D::from_config(&unbatched(n_replicas, SEEDS[1]))),
        fingerprint(D::from_config(&batched(n_replicas, SEEDS[0]))),
        fingerprint(D::from_config(&batched(n_replicas, SEEDS[1]))),
    ]
}

#[test]
fn multi_paxos_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(sweep::<MultiPaxosCluster>(3), PAXOS);
}

#[test]
fn raft_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(sweep::<RaftCluster>(3), RAFT);
}

#[test]
fn pbft_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(sweep::<PbftCluster>(4), PBFT);
}

/// `smr-small`'s Multi-Paxos cell — 5 replicas, 48 closed-loop clients × 50
/// commands over a transmit-limited NIC — where the event queue runs
/// thousands deep and the leader's proposal window stays open throughout.
#[test]
fn multi_paxos_under_a_loaded_nic_is_bit_identical_to_the_recorded_run() {
    let row = |seed| {
        let cfg = DriverConfig::new(5, 48, 50, seed).with_net(NetConfig::lan().with_nic(30, 50));
        fingerprint(MultiPaxosCluster::from_config(&cfg))
    };
    assert_eq!(SEEDS.map(row), PAXOS_LOADED_NIC);
}

/// Durable engines, the initial leader crashed mid-workload and restarted
/// through checkpoint load + WAL replay while the survivors fail over.
fn crashed<D: ClusterDriver>(mut d: D) -> u64 {
    d.crash_at(NodeId(0), Time::from_millis(30));
    d.restart_at(NodeId(0), Time::from_millis(200));
    fingerprint(d)
}

#[test]
fn durable_leader_crash_runs_are_bit_identical_to_the_pre_shell_commit() {
    let cfg = DriverConfig::new(3, 2, 80, 5);
    let paxos = MultiPaxosCluster::from_config(&cfg).with_durability(8, DiskModel::ssd());
    assert_eq!(crashed(paxos), PAXOS_CRASH);
    let raft = RaftCluster::from_config(&cfg).with_durability(8, DiskModel::ssd());
    assert_eq!(crashed(raft), RAFT_CRASH);
}

/// The whole product over each log engine: 3 shards × 3 replicas on durable
/// storage, transactions beside single-key ops beside range scans.
fn store_fingerprint<E: ShardEngine>(seed: u64) -> u64 {
    let cfg = StoreConfig::new(seed)
        .durable(8, DiskModel::ssd())
        .ranges_per_router(2);
    let mut s: Store<E> = Store::new(cfg);
    assert!(s.run(Time(20_000_000)), "store stalled");
    s.fingerprint()
}

#[test]
fn store_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(
        SEEDS.map(store_fingerprint::<MultiPaxosCluster>),
        STORE_PAXOS
    );
    assert_eq!(SEEDS.map(store_fingerprint::<RaftCluster>), STORE_RAFT);
}

// The wire-size epoch; seeds 3 and 11: unbatched ×2, then batched ×2.
const PAXOS: [u64; 4] = [
    10184614704748552583,
    12548035212035345309,
    23646109923626074,
    8793756025766828228,
];
const RAFT: [u64; 4] = [
    17002649590385615491,
    5123432958599759092,
    16624956709659484373,
    2485240614884188660,
];
const PBFT: [u64; 4] = [
    842354386186140293,
    10134697323361102843,
    1277358347951379506,
    3513646930663583358,
];
// The wire-size epoch.
const PAXOS_LOADED_NIC: [u64; 2] = [8886903626215217766, 12791073068835564364];
const PAXOS_CRASH: u64 = 14351967125280618953;
const RAFT_CRASH: u64 = 17704906085539196203;
// Recorded at 7711502, before the event queue, the proposal table and the
// per-node simulator state changed shape.
const STORE_PAXOS: [u64; 2] = [6705092968428748827, 8249467345722595506];
const STORE_RAFT: [u64; 2] = [11288678811017748299, 5479469973679516688];

// ---- the store's crash, recovery, tracing and geo paths --------------------

/// Hashes everything a finished store run exposes: the run fingerprint
/// (harness trace lines, outcomes, replica digests), the merged client
/// history record by record, the message count, and — on traced runs — the
/// op records and every causal span, in the order the store returns them, so
/// span-id allocation order is pinned too.
fn store_run_hash<E: ShardEngine>(s: &Store<E>) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(s.fingerprint());
    let history = s.history();
    h.eat_u64(history.len() as u64);
    for r in &history {
        let line = format!(
            "{} {} {} {} {:?}",
            r.client, r.seq, r.op, r.invoked, r.completed
        );
        h.eat(line.as_bytes());
    }
    h.eat_u64(s.messages_sent());
    for o in s.op_records() {
        let line = format!(
            "{} {} {} {} {} {} {}",
            o.client, o.seq, o.shard, o.trace_id, o.started, o.finished, o.label
        );
        h.eat(line.as_bytes());
    }
    for c in s.causal_spans() {
        let line = format!(
            "{} {} {} {} {} {} {} {} {}",
            c.trace_id, c.id, c.parent, c.node, c.site, c.name, c.cat, c.start, c.end
        );
        h.eat(line.as_bytes());
    }
    h.0
}

/// Seed 5: fault-free, router 0's first transaction commits across all
/// three shards under every backend — so every crash point has something to
/// interrupt and `AfterDecide` is reached.
const CRASH_SEED: u64 = 5;
const STORE_HORIZON: Time = Time(60_000_000);

/// Router 0 dies at `point` of its first transaction; the recovery actor
/// terminates it (or, under raw 2PC, gives up on it).
fn router_crash_row<E: ShardEngine>(backend: CommitBackend, point: RouterCrashPoint) -> u64 {
    let cfg = StoreConfig::new(CRASH_SEED)
        .backend(backend)
        .buggy_early_writes(point == RouterCrashPoint::AfterEarlyWrites);
    let mut s: Store<E> = Store::new(cfg);
    s.crash_router_on_txn(0, 0, point);
    assert!(s.run(STORE_HORIZON), "{backend:?} {point:?}: store stalled");
    let crashed = |l: &String| l.contains("r0 crash mid-txn t100.0");
    assert!(
        s.trace().iter().any(crashed),
        "{backend:?} never reached {point:?}"
    );
    store_run_hash(&s)
}

/// Every backend × every crash point it can reach, then the one crash point
/// only the early-dissemination bug opens.
fn router_crash_rows<E: ShardEngine>() -> [u64; 10] {
    let backends = [
        CommitBackend::TwoPhase,
        CommitBackend::TwoPhaseOverConsensus,
        CommitBackend::PaxosCommit,
    ];
    let points = [
        RouterCrashPoint::BeforePrepare,
        RouterCrashPoint::AfterPrepare,
        RouterCrashPoint::AfterDecide,
    ];
    let mut rows = Vec::new();
    for backend in backends {
        for point in points {
            rows.push(router_crash_row::<E>(backend, point));
        }
    }
    rows.push(router_crash_row::<E>(
        CommitBackend::TwoPhaseOverConsensus,
        RouterCrashPoint::AfterEarlyWrites,
    ));
    rows.try_into().expect("ten rows")
}

#[test]
fn store_router_crash_runs_are_bit_identical_to_the_pre_port_commit() {
    assert_eq!(router_crash_rows::<MultiPaxosCluster>(), STORE_CRASH_PAXOS);
    assert_eq!(router_crash_rows::<RaftCluster>(), STORE_CRASH_RAFT);
}

/// A router crashed on the clock (whatever it had in flight goes to
/// recovery), restarted later, finishing the rest of its workload.
fn router_restart_row<E: ShardEngine>() -> u64 {
    let mut s: Store<E> = Store::new(StoreConfig::new(CRASH_SEED));
    s.crash_router_at(0, 30_000);
    s.restart_router_at(0, 300_000);
    assert!(s.run(STORE_HORIZON), "store stalled");
    assert!(s.trace().iter().any(|l| l.contains("r0 crash mid-txn")));
    assert!(s.trace().iter().any(|l| l.contains("r0 restart")));
    assert!(s.router_done(0), "restarted router did not finish");
    store_run_hash(&s)
}

#[test]
fn store_router_restart_runs_are_bit_identical_to_the_pre_port_commit() {
    assert_eq!(router_restart_row::<MultiPaxosCluster>(), STORE_RESTART[0]);
    assert_eq!(router_restart_row::<RaftCluster>(), STORE_RESTART[1]);
}

/// Tracing on: durable shards, range scans, one Paxos Commit transaction
/// among the default ones, and a router crash after a durable commit, so
/// router, recovery and audit ops all mint root spans.
fn traced_row<E: ShardEngine>() -> u64 {
    let cfg = StoreConfig::new(CRASH_SEED)
        .durable(8, DiskModel::ssd())
        .ranges_per_router(2)
        .txn_backend(1, 1, CommitBackend::PaxosCommit);
    let mut s: Store<E> = Store::new(cfg);
    s.enable_tracing();
    s.crash_router_on_txn(0, 0, RouterCrashPoint::AfterDecide);
    assert!(s.run(STORE_HORIZON), "store stalled");
    assert!(!s.op_records().is_empty() && !s.causal_spans().is_empty());
    store_run_hash(&s)
}

#[test]
fn traced_store_runs_are_bit_identical_to_the_pre_port_commit() {
    assert_eq!(traced_row::<MultiPaxosCluster>(), STORE_TRACED[0]);
    assert_eq!(traced_row::<RaftCluster>(), STORE_TRACED[1]);
}

/// The three fates of a geo fast read, in one traced three-region store:
/// served by the lease holder; NACKed at once (shard 1's leader clock is
/// skewed past `max_skew_us`, so it refuses every lease read) and re-run
/// through the log; and silent (region 2 is cut off while routers elsewhere
/// aim reads at it) until `GEO_READ_TIMEOUT_US` sends it to the log, where it
/// waits for the heal.
#[test]
fn geo_store_run_is_bit_identical_to_the_pre_port_commit() {
    let cfg = StoreConfig::new(7)
        .routers(3)
        .geo(GeoConfig::three_dc().local_read_pct(50));
    let mut s: Store<MultiPaxosCluster> = Store::new(cfg);
    s.enable_tracing();
    s.set_replica_skew(3, 12_000);
    s.partition_region_at(51_000, 2);
    s.heal_at(400_000);
    assert!(s.run(STORE_HORIZON), "geo store stalled");
    let reads = s.read_outcomes();
    let fell_back = |r: &&ReadOutcome| r.mode == ReadMode::Log;
    assert!(
        reads.iter().any(|r| r.mode == ReadMode::Lease),
        "no lease read"
    );
    assert!(
        reads
            .iter()
            .filter(fell_back)
            .any(|r| r.latency_us < 120_000),
        "no NACKed read"
    );
    assert!(
        reads
            .iter()
            .filter(fell_back)
            .any(|r| r.latency_us >= 120_000),
        "no timed-out read"
    );
    assert_eq!(store_run_hash(&s), STORE_GEO);
}

// Recorded at the parent commit (9fa5da1), before the store's routers,
// recovery actor and audit reader were moved onto one `Port`. Crash rows:
// raw 2PC, 2PC over consensus, Paxos Commit × before-prepare, after-prepare,
// after-decide; then the early-write crash. Restart and traced rows: Paxos,
// Raft.
const STORE_CRASH_PAXOS: [u64; 10] = [
    5903764025125676778,
    1585343981737831373,
    4558724246696524468,
    12153570637012008498,
    9651595685685821466,
    6400941772593247051,
    18429983539498512423,
    5362216632128004144,
    16286094017637997891,
    12566436790128476242,
];
const STORE_CRASH_RAFT: [u64; 10] = [
    1607432461658175543,
    12708990914359179935,
    12885166352108829033,
    8616677155758940676,
    9298658401951049366,
    14082198171352097688,
    4475173004272831352,
    12098038493113592778,
    15948422257171114802,
    4356298779900705583,
];
const STORE_RESTART: [u64; 2] = [11101246268285575085, 18323169921715493525];
const STORE_TRACED: [u64; 2] = [16011116929424282216, 12040361922233658554];
const STORE_GEO: u64 = 8749982453929938282;

// ---- the durable path under Multi-Paxos and Raft ----------------------------

/// The durable half of a log replica, which the driver surface does not
/// show: a reordered `put` or `log_record` passes every row above.
trait DurableSide {
    /// Hashes all 14 storage counters, the recovery triple, the checkpoint
    /// and decision-record counts, every decision-table pair, and the
    /// engine's `Debug` form — device pages, log and snapshot regions, pool
    /// frames and the unflushed WAL tail, byte for byte.
    fn eat_durable(&self, h: &mut Fnv);
    /// The primary index, scanned end to end in key order. Last, because the
    /// scan itself moves the pool's counters.
    fn index(&mut self) -> Vec<(String, String)>;
    fn installed(&self) -> u64;
}

macro_rules! durable_side {
    ($replica:ty) => {
        impl DurableSide for $replica {
            fn eat_durable(&self, h: &mut Fnv) {
                use std::fmt::Write;
                let s = self.storage_stats().expect("durable engine attached");
                let d = &self.durable;
                for v in [
                    s.disk_reads,
                    s.disk_writes,
                    s.bytes_read,
                    s.bytes_written,
                    s.io_time_us,
                    s.wal_appends,
                    s.wal_flushes,
                    s.pool_hits,
                    s.pool_misses,
                    s.evictions,
                    s.writebacks,
                    s.snapshots_written,
                    s.recoveries,
                    s.records_replayed,
                    d.recovered_floor as u64,
                    d.last_recovery_replayed,
                    d.last_recovery_io_us,
                    self.snapshots_taken,
                    d.txn_decisions_logged,
                ] {
                    h.eat_u64(v);
                }
                for (key, value) in self.txn_decisions() {
                    h.eat(key.as_bytes());
                    h.eat(value.as_bytes());
                }
                write!(h, "{:?}", d.engine()).expect("hashing cannot fail");
            }

            fn index(&mut self) -> Vec<(String, String)> {
                let engine = self.durable.engine_mut().expect("durable engine attached");
                engine.scan("", "\u{10FFFF}")
            }

            fn installed(&self) -> u64 {
                self.snapshots_installed
            }
        }
    };
}
durable_side!(forty::paxos::multi::Replica);
durable_side!(forty::raft::Replica);

/// The driver surface of a finished cluster run, then every replica's
/// durable side and ordered index.
fn durable_cluster_hash<P: SmrProtocol>(c: &mut Cluster<P>) -> u64
where
    Cluster<P>: ClusterDriver,
    P::Replica: DurableSide,
{
    let mut h = Fnv::new();
    eat_driver(c, &mut h);
    for i in 0..c.n_replicas {
        let Proc::Replica(r) = c.sim.node_mut(NodeId::from(i)) else {
            panic!("node {i} is a replica");
        };
        r.eat_durable(&mut h);
        for (key, value) in r.index() {
            h.eat(key.as_bytes());
            h.eat(value.as_bytes());
        }
    }
    h.0
}

/// Puts, gets and compare-and-swaps, checkpointing every four applied
/// entries, so the WAL is re-logged and truncated many times a run.
fn durable_cluster<P: DurableProtocol>(seed: u64) -> Cluster<P>
where
    Cluster<P>: ClusterDriver,
{
    let mix = KvMix {
        cas_fraction: 0.25,
        ..KvMix::default()
    };
    let cfg = DriverConfig::new(3, 2, 60, seed).with_mix(mix);
    Cluster::<P>::from_config(&cfg).with_durability(4, DiskModel::ssd())
}

fn replica<P: SmrProtocol>(c: &Cluster<P>, id: u32) -> &P::Replica {
    let Proc::Replica(r) = c.sim.node(NodeId(id)) else {
        panic!("node {id} is a replica");
    };
    r
}

/// (i) The initial leader crashes mid-run and comes back through checkpoint
/// load + WAL replay while its peers fail over.
fn durable_leader_restart_row<P: DurableProtocol>() -> u64
where
    Cluster<P>: ClusterDriver,
    P::Replica: DurableSide,
{
    let mut c = durable_cluster::<P>(5);
    c.crash_at(NodeId(0), Time::from_millis(30));
    c.restart_at(NodeId(0), Time::from_millis(200));
    assert!(c.run(Time::from_secs(120)), "{} stalled", P::NAME);
    c.sim.run_for(500_000);
    durable_cluster_hash(&mut c)
}

/// (ii) A follower stays down until its peers have compacted past its log
/// end: only `InstallState` / `InstallSnapshot` can bring it back, onto an
/// index that is live on Multi-Paxos' side and rebuilt on recovery's.
fn durable_state_transfer_row<P: DurableProtocol>() -> u64
where
    Cluster<P>: ClusterDriver,
    P::Replica: DurableSide,
{
    let mut c = durable_cluster::<P>(23);
    c.crash_at(NodeId(2), Time::from_millis(20));
    assert!(c.run(Time::from_secs(120)), "{} stalled", P::NAME);
    let now = c.sim.now();
    c.restart_at(NodeId(2), Time(now.0 + 1_000));
    c.sim.run_for(2_000_000);
    assert!(
        replica(&c, 2).installed() >= 1,
        "{}: the laggard never installed a peer's checkpoint",
        P::NAME
    );
    durable_cluster_hash(&mut c)
}

/// (iii) The 3 × 3 durable store with range scans; shard 0's first leader
/// crashes while transactions are in flight and restarts. `Store::shards` is
/// shared access and a scan needs exclusive, so here the engine's `Debug`
/// form alone stands for the index — its pages are in it.
fn durable_store_row<P: SmrProtocol>() -> u64
where
    Cluster<P>: ShardEngine,
    P::Replica: DurableSide,
{
    let cfg = StoreConfig::new(CRASH_SEED)
        .durable(8, DiskModel::ssd())
        .ranges_per_router(2);
    let mut s: Store<Cluster<P>> = Store::new(cfg);
    s.crash_node_at(0, 40_000);
    s.restart_node_at(0, 52_000);
    assert!(s.run(STORE_HORIZON), "store stalled");
    let mut h = Fnv::new();
    h.eat_u64(store_run_hash(&s));
    for shard in s.shards() {
        for r in shard.replicas() {
            r.eat_durable(&mut h);
        }
    }
    h.0
}

#[test]
fn durable_leader_restart_runs_match_the_pre_handle_commit() {
    assert_eq!(durable_leader_restart_row::<MultiPaxos>(), DURABLE_LEADER_RESTART[0]);
    assert_eq!(durable_leader_restart_row::<Raft>(), DURABLE_LEADER_RESTART[1]);
}

#[test]
fn durable_state_transfer_runs_match_the_pre_handle_commit() {
    assert_eq!(durable_state_transfer_row::<MultiPaxos>(), DURABLE_STATE_TRANSFER[0]);
    assert_eq!(durable_state_transfer_row::<Raft>(), DURABLE_STATE_TRANSFER[1]);
}

#[test]
fn durable_store_runs_match_the_pre_handle_commit() {
    assert_eq!(durable_store_row::<MultiPaxos>(), DURABLE_STORE[0]);
    assert_eq!(durable_store_row::<Raft>(), DURABLE_STORE[1]);
}

// Multi-Paxos then Raft. The two cluster rows: the wire-size epoch.
const DURABLE_LEADER_RESTART: [u64; 2] = [10473023533922034316, 1027232216742984401];
const DURABLE_STATE_TRANSFER: [u64; 2] = [3899931310322530583, 129320340987489251];
// The store row: Raft recorded at bcb1844, with two probe accessors
// (`engine`, `engine_mut`) patched onto each replica; Multi-Paxos re-recorded
// in the `InstallState`-prune epoch, when it began rebuilding its index as
// Raft does (`storage::Durable::rebuild_index`), which adds buffer-pool hits
// on the replica that recovers.
const DURABLE_STORE: [u64; 2] = [12410634604824050775, 12659693488071406292];

// ---- the six BFT protocols ------------------------------------------------

/// Runs `c` to completion and hashes what the pre-shell harnesses exposed:
/// the network and timer counters, the sorted client latencies, and every
/// replica's `(commands applied, machine digest)`.
fn bft_fingerprint<P: SmrProtocol>(c: &mut Cluster<P>) -> u64 {
    assert!(c.run(Time::from_secs(60)), "{} stalled", P::NAME);
    let mut h = Fnv::new();
    let m = c.sim.metrics();
    for v in [m.sent, m.delivered, m.bytes_sent, m.timer_fires] {
        h.eat_u64(v);
    }
    let mut latencies = c.latencies().samples().to_vec();
    latencies.sort_unstable();
    for v in latencies {
        h.eat_u64(v);
    }
    for r in c.replicas() {
        h.eat_u64(P::machine(r).kv().applied());
        h.eat_u64(P::machine(r).digest());
    }
    h.0
}

/// One closed-loop client, 25 commands, LAN.
fn bft<P: SmrProtocol>(shape: P::Shape, seed: u64) -> Cluster<P> {
    Cluster::new(shape, 1, 25, NetConfig::lan(), seed)
}

/// Fingerprints of the fault-free runs `(shape, seed)`.
fn fault_free<P: SmrProtocol, const K: usize>(rows: [(P::Shape, u64); K]) -> [u64; K] {
    rows.map(|(shape, seed)| bft_fingerprint(&mut bft::<P>(shape, seed)))
}

#[test]
fn minbft_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(fault_free::<MinBft, 2>(SEEDS.map(|seed| (3, seed))), MINBFT);
    // Primary crash → view change with state transfer.
    let mut c: MinCluster = bft(3, 3);
    c.sim.crash_at(NodeId(0), Time::from_millis(11));
    assert_eq!(bft_fingerprint(&mut c), MINBFT_PRIMARY_CRASH);
    assert!(c.replicas().any(|r| r.voter.view_changes >= 1));
}

#[test]
fn cheapbft_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(
        fault_free::<CheapBft, 2>(SEEDS.map(|seed| (3, seed))),
        CHEAPBFT
    );
    // Active-backup crash → client `Panic` → CheapSwitch → MinBFT.
    let mut c: CheapCluster = bft(3, 3);
    c.sim.crash_at(NodeId(1), Time::from_millis(6));
    assert_eq!(bft_fingerprint(&mut c), CHEAPBFT_ACTIVE_CRASH);
    assert!(c.sim.metrics().kind("panic") > 0);
    assert_eq!(c.replicas().next().unwrap().proto, Protocol::MinBft);
}

#[test]
fn xft_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(fault_free::<Xft, 2>(SEEDS.map(|seed| (5, seed))), XFT);
    // Primary crash → the whole synchronous group is reconfigured.
    let mut c: XftCluster = bft(5, 3);
    c.sim.crash_at(NodeId(0), Time::from_millis(11));
    assert_eq!(bft_fingerprint(&mut c), XFT_PRIMARY_CRASH);
    assert!(c.replicas().any(|r| r.voter.view_changes >= 1));
}

#[test]
fn seemore_runs_are_bit_identical_to_the_pre_shell_commit() {
    let cfg = |mode| SeeMoReConfig { m: 1, c: 1, mode };
    let rows = [
        (Mode::One, 3),
        (Mode::One, 11),
        (Mode::Two, 3),
        (Mode::Three, 3),
    ];
    let rows = rows.map(|(mode, seed)| (cfg(mode), seed));
    assert_eq!(fault_free::<SeeMoRe, 4>(rows), SEEMORE);
    // One private node crashed (c = 1) and one public node mute (m = 1).
    let mut c: SmCluster = bft(cfg(Mode::Two), 11);
    c.sim.crash_at(NodeId(1), Time::ZERO);
    c.sim.set_filter(NodeId(5), Box::new(DropAll));
    assert_eq!(bft_fingerprint(&mut c), SEEMORE_FAULTED);
}

#[test]
fn zyzzyva_runs_are_bit_identical_to_the_pre_shell_commit() {
    assert_eq!(
        fault_free::<Zyzzyva, 2>(SEEDS.map(|seed| (4, seed))),
        ZYZZYVA
    );
    // One backup crashed → every request takes the commit-certificate path.
    let mut c: ZyzCluster = bft(4, 3);
    c.sim.crash_at(NodeId(3), Time::ZERO);
    assert_eq!(bft_fingerprint(&mut c), ZYZZYVA_BACKUP_CRASH);
    assert_eq!(c.clients().next().unwrap().accept.cert_path, 25);
}

/// The pipelined HotStuff shape with four commands in flight per client.
fn pipelined_window_4() -> HsConfig {
    HsConfig {
        window: 4,
        ..HsConfig::pipelined(4)
    }
}

/// HotStuff here has no pacemaker, so a crashed leader has no recovery path
/// to reach; its faulted row is a follower crash under a fixed leader (QCs
/// form at exactly `2f+1`). No row runs past the client's 200 ms retry with
/// commands in flight — the one place the client's behaviour was changed
/// after the move (it now rebroadcasts), so these rows hold on both sides
/// of that fix.
#[test]
fn hotstuff_runs_are_bit_identical_to_the_pre_shell_commit() {
    let rows = SEEDS.map(|seed| (HsConfig::rotating(4), seed));
    assert_eq!(fault_free::<HotStuff, 2>(rows), HOTSTUFF);
    let mut pipelined: HsCluster = bft(pipelined_window_4(), 3);
    assert_eq!(bft_fingerprint(&mut pipelined), HOTSTUFF_PIPELINED);
    let fixed = HsConfig {
        n_replicas: 4,
        rotate: false,
        pipeline: false,
        window: 1,
    };
    let mut c: HsCluster = bft(fixed, 3);
    c.sim.crash_at(NodeId(2), Time::from_millis(21));
    assert_eq!(bft_fingerprint(&mut c), HOTSTUFF_FOLLOWER_CRASH);
}

// The wire-size epoch: fault-free seeds 3 and 11 (SeeMoRe: mode 1 ×2, mode 2,
// mode 3), then the faulted run.
const MINBFT: [u64; 2] = [14789556597993335101, 7134300193076631734];
const MINBFT_PRIMARY_CRASH: u64 = 11430012711007023873;
const CHEAPBFT: [u64; 2] = [15705465354213198629, 4282813338050848399];
const CHEAPBFT_ACTIVE_CRASH: u64 = 14643019398772969077;
const XFT: [u64; 2] = [1318638543131400588, 10587192060061097973];
const XFT_PRIMARY_CRASH: u64 = 15996985764630642141;
const SEEMORE: [u64; 4] = [
    5334855402385851314,
    7424011466120372134,
    4307860975241958497,
    16586304466518668779,
];
const SEEMORE_FAULTED: u64 = 14465564160689055053;
const ZYZZYVA: [u64; 2] = [8342521399524878005, 7666287468893005437];
const ZYZZYVA_BACKUP_CRASH: u64 = 8389024006514821613;
const HOTSTUFF: [u64; 2] = [16824540807495141884, 7576771298614034638];
const HOTSTUFF_PIPELINED: u64 = 11466185294453800158;
const HOTSTUFF_FOLLOWER_CRASH: u64 = 8183852292902242898;

// ---- the seven BFT protocols under concurrent clients ----------------------

/// Runs `c` to a bounded horizon — finished or not — and hashes what
/// [`bft_fingerprint`] hashes plus every decided entry and the per-kind
/// message tallies. Nothing is asserted about the outcome: two of these
/// rows pin runs that are wrong (ROADMAP item 5e) and must stay so, byte
/// for byte, until that item's fix spends an epoch.
fn multi_client_hash<P: SmrProtocol>(c: &mut Cluster<P>) -> u64
where
    P::Shape: From<usize>,
{
    c.run(Time::from_secs(20));
    let mut h = Fnv::new();
    let m = c.sim.metrics();
    for v in [m.sent, m.delivered, m.bytes_sent, m.timer_fires] {
        h.eat_u64(v);
    }
    for (kind, sent, bytes) in m.kinds() {
        h.eat(kind.as_bytes());
        h.eat_u64(sent);
        h.eat_u64(bytes);
    }
    let mut latencies = c.latencies().samples().to_vec();
    latencies.sort_unstable();
    for v in latencies {
        h.eat_u64(v);
    }
    for r in c.replicas() {
        h.eat_u64(P::machine(r).kv().applied());
        h.eat_u64(P::machine(r).digest());
    }
    for e in c.decided_log() {
        h.eat_u64(u64::from(e.node));
        h.eat_u64(e.index);
        h.eat(e.op.as_bytes());
        let (client, seq) = e.origin.unwrap_or((u32::MAX, u64::MAX));
        h.eat_u64(u64::from(client));
        h.eat_u64(seq);
    }
    h.0
}

/// Three closed-loop clients × 20 commands, LAN: requests overlap, so the
/// primary's in-flight scan, out-of-order instances and the watchdog's
/// re-arm while other requests are pending all run.
fn bft3<P: SmrProtocol>(shape: P::Shape, seed: u64) -> Cluster<P> {
    Cluster::new(shape, 3, 20, NetConfig::lan(), seed)
}

fn concurrent<P: SmrProtocol>(shape: P::Shape) -> [u64; 2]
where
    P::Shape: From<usize>,
{
    SEEDS.map(|seed| multi_client_hash(&mut bft3::<P>(shape, seed)))
}

#[test]
fn bft_pbft_concurrent_clients_match_the_pre_replica_shell_commit() {
    assert_eq!(concurrent::<Pbft>(4), PBFT_3C);
    let mut c: PbftCluster = bft3(4, 3);
    c.sim.crash_at(NodeId(0), Time::from_millis(11));
    assert_eq!(multi_client_hash(&mut c), PBFT_3C_PRIMARY_CRASH);
    assert!(c.replicas().any(|r| r.view_changes_completed >= 1));
}

/// ROADMAP item 5e, pinned as it is. Every MinBFT row here completes only
/// through cascading view changes (a pipelining primary's prepares overtake
/// each other and a backup's strict USIG check drops the early one for good),
/// and at seed 99 — `cross_protocol::agrees`'s seed — `NewView` carrying one
/// replica's history leaves replicas 0 and 1 with different commands at the
/// same index. The fix flips that assertion and re-records the rows.
#[test]
fn bft_minbft_concurrent_clients_match_the_pre_replica_shell_commit() {
    assert_eq!(concurrent::<MinBft>(3), MINBFT_3C);
    let mut c: MinCluster = bft3(3, 99);
    assert_eq!(multi_client_hash(&mut c), MINBFT_3C_DIVERGED);
    assert!(
        !check_log_agreement(&c.decided_log()).is_empty(),
        "item 5e fixed? re-record these rows"
    );
    let mut c: MinCluster = bft3(3, 3);
    c.sim.crash_at(NodeId(0), Time::from_millis(11));
    assert_eq!(multi_client_hash(&mut c), MINBFT_3C_PRIMARY_CRASH);
}

/// ROADMAP item 5e, pinned as it is: with more than one client CheapBFT
/// panics into MinBFT mode and wedges (4 of 60 commands at both seeds). The
/// fix flips the `all_done` assertion and re-records the rows.
#[test]
fn bft_cheapbft_concurrent_clients_match_the_pre_replica_shell_commit() {
    let rows = SEEDS.map(|seed| {
        let mut c: CheapCluster = bft3(3, seed);
        let hash = multi_client_hash(&mut c);
        assert!(!c.all_done(), "item 5e fixed? re-record these rows");
        hash
    });
    assert_eq!(rows, CHEAPBFT_3C);
    let mut c: CheapCluster = bft3(3, 3);
    c.sim.crash_at(NodeId(1), Time::from_millis(6));
    assert_eq!(multi_client_hash(&mut c), CHEAPBFT_3C_ACTIVE_CRASH);
}

#[test]
fn bft_xft_concurrent_clients_match_the_pre_replica_shell_commit() {
    assert_eq!(concurrent::<Xft>(5), XFT_3C);
    let mut c: XftCluster = bft3(5, 3);
    c.sim.crash_at(NodeId(0), Time::from_millis(11));
    assert_eq!(multi_client_hash(&mut c), XFT_3C_PRIMARY_CRASH);
}

#[test]
fn bft_seemore_concurrent_clients_match_the_pre_replica_shell_commit() {
    let cfg = |mode| SeeMoReConfig { m: 1, c: 1, mode };
    assert_eq!(concurrent::<SeeMoRe>(cfg(Mode::One)), SEEMORE_3C[0]);
    assert_eq!(concurrent::<SeeMoRe>(cfg(Mode::Two)), SEEMORE_3C[1]);
    let mut c: SmCluster = bft3(cfg(Mode::Two), 11);
    c.sim.crash_at(NodeId(1), Time::ZERO);
    c.sim.set_filter(NodeId(5), Box::new(DropAll));
    assert_eq!(multi_client_hash(&mut c), SEEMORE_3C_FAULTED);
}

#[test]
fn bft_zyzzyva_concurrent_clients_match_the_pre_replica_shell_commit() {
    assert_eq!(concurrent::<Zyzzyva>(4), ZYZZYVA_3C);
    let mut c: ZyzCluster = bft3(4, 3);
    c.sim.crash_at(NodeId(3), Time::ZERO);
    assert_eq!(multi_client_hash(&mut c), ZYZZYVA_3C_BACKUP_CRASH);
}

#[test]
fn bft_hotstuff_concurrent_clients_match_the_pre_replica_shell_commit() {
    assert_eq!(concurrent::<HotStuff>(HsConfig::rotating(4)), HOTSTUFF_3C);
    let pipelined = SEEDS.map(|seed| {
        let mut c: HsCluster = bft3(pipelined_window_4(), seed);
        multi_client_hash(&mut c)
    });
    assert_eq!(pipelined, HOTSTUFF_3C_PIPELINED);
    let fixed = HsConfig {
        n_replicas: 4,
        rotate: false,
        pipeline: false,
        window: 1,
    };
    let mut c: HsCluster = bft3(fixed, 3);
    c.sim.crash_at(NodeId(2), Time::from_millis(21));
    assert_eq!(multi_client_hash(&mut c), HOTSTUFF_3C_FOLLOWER_CRASH);
}

// The wire-size epoch: fault-free seeds 3 and 11 (SeeMoRe: mode 1 ×2, mode 2
// ×2; HotStuff: rotating ×2, pipelined window 4 ×2; MinBFT also seed 99),
// then each protocol's faulted run.
const PBFT_3C: [u64; 2] = [4233481775162279834, 59524483919836268];
const PBFT_3C_PRIMARY_CRASH: u64 = 12086630340558223537;
const MINBFT_3C: [u64; 2] = [16737522395652942214, 3995693811886815526];
const MINBFT_3C_DIVERGED: u64 = 11812978578993891858;
const MINBFT_3C_PRIMARY_CRASH: u64 = 828796878129813515;
const CHEAPBFT_3C: [u64; 2] = [9192220362605410661, 16498900997226274900];
const CHEAPBFT_3C_ACTIVE_CRASH: u64 = 1009964971800431957;
const XFT_3C: [u64; 2] = [13992062202593079909, 16417805348194705924];
const XFT_3C_PRIMARY_CRASH: u64 = 14949570165478998137;
const SEEMORE_3C: [[u64; 2]; 2] = [
    [10154712099381304636, 7450740240243497073],
    [17162980132110712109, 699852108307336369],
];
const SEEMORE_3C_FAULTED: u64 = 2602933846398364048;
const ZYZZYVA_3C: [u64; 2] = [2580249310998319721, 10048311241871532986];
const ZYZZYVA_3C_BACKUP_CRASH: u64 = 15243853703065002;
const HOTSTUFF_3C: [u64; 2] = [7917309638649959257, 3569365355535753215];
const HOTSTUFF_3C_PIPELINED: [u64; 2] = [14580062453679155417, 8301499945950113068];
const HOTSTUFF_3C_FOLLOWER_CRASH: u64 = 17639854511449682197;
