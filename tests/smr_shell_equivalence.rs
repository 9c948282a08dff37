//! "Same shell, same bytes": the SMR shell — op type, dedup machine, workload
//! client, batch policy, cluster harness — is shared by Multi-Paxos, Raft and
//! PBFT, and every run is a pure function of its config. The constants below
//! were recorded at the commit *before* the shell was extracted (when each
//! protocol crate still carried its own copy of all five); the shared pieces
//! must reproduce them exactly, because node order, RNG draws, timer arming
//! order and message contents all feed the fingerprints of the checked-in
//! artifacts.

use forty::bft::pbft::PbftCluster;
use forty::consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use forty::consensus_core::workload::KvMix;
use forty::consensus_core::WorkloadMode;
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::{DiskModel, NodeId, Time};
use forty::store::{ShardEngine, Store, StoreConfig};

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

/// Runs `d` to completion and hashes everything a run exposes through the
/// driver surface: the decided log as `(node, index, op string)`, the state
/// digests, the network and timer counters, and the sorted client latencies.
fn fingerprint<D: ClusterDriver>(mut d: D) -> u64 {
    assert!(d.run(Time::from_secs(120)), "{} stalled", d.protocol());
    let mut h = Fnv::new();
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
    h.0
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

// Recorded at the parent commit (c3467b2), seeds 3 and 11: unbatched ×2,
// then batched ×2.
const PAXOS: [u64; 4] = [
    6227608528637292267,
    7889221283333341554,
    2356703652189599819,
    11802581843483606468,
];
const RAFT: [u64; 4] = [
    15893798149942701564,
    7044956324213430519,
    4173961979720785174,
    3585083761847203132,
];
const PBFT: [u64; 4] = [
    11046079406199242240,
    5911648275169753677,
    7725206949083403816,
    9668082458443956368,
];
const PAXOS_CRASH: u64 = 13623694217501413311;
const RAFT_CRASH: u64 = 11120947086349577556;
const STORE_PAXOS: [u64; 2] = [6705092968428748827, 8249467345722595506];
const STORE_RAFT: [u64; 2] = [11288678811017748299, 5479469973679516688];
