//! Batched-vs-unbatched equivalence, cross-protocol, through the uniform
//! [`ClusterDriver`] surface: for every SMR protocol, any batching
//! configuration must decide exactly the same per-client command sequence
//! as the unbatched baseline — batching may only change *how commands are
//! packed into slots*, never what is agreed or in what per-client order —
//! and every run must satisfy the full nemesis SMR safety battery.

use std::collections::BTreeMap;

use forty::bft::pbft::PbftCluster;
use forty::consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use forty::consensus_core::WorkloadMode;
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::{NetConfig, Time};
use nemesis::smr_safety;

const SEED: u64 = 7;
const N_CLIENTS: usize = 3;
/// 3 × 5 = 15 total commands: one below PBFT's checkpoint interval (16
/// slots), so no replica garbage-collects any unbatched slot before harvest.
const CMDS: usize = 5;

/// The knob settings under test, from "degenerate" corners (batch of 1
/// with a delay; window of 1, i.e. no pipelining) to realistic ones.
fn knobs() -> Vec<BatchConfig> {
    vec![
        BatchConfig::new(1, 200, usize::MAX),
        BatchConfig::new(4, 0, 2),
        BatchConfig::new(4, 300, 1),
        BatchConfig::new(8, 500, 8),
    ]
}

/// Runs one configuration to completion and returns each client's command
/// sequence (by client-assigned sequence number, the batching-independent
/// identity — Raft's op strings bake in terms, which may legally differ
/// between runs) as decided on node 0, after checking full SMR safety.
fn decided_per_client<D: ClusterDriver>(batch: BatchConfig) -> BTreeMap<u32, Vec<u64>> {
    let cfg = DriverConfig::new(4, N_CLIENTS, CMDS, SEED).with_batch(batch);
    let mut d = D::from_config(&cfg);
    assert!(
        d.run(forty::simnet::Time::from_secs(60)),
        "{} stalled under {}",
        d.protocol(),
        batch.label()
    );

    let entries = d.decided_log();
    let digests = d.state_digests();
    let history = d.history();
    let issued = d.issued();
    let violations = smr_safety(&entries, &digests, &history, Some(&issued));
    assert!(
        violations.is_empty(),
        "{} violated safety under {}: {violations:?}",
        d.protocol(),
        batch.label()
    );

    let mut per_client: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for e in entries.iter().filter(|e| e.node == 0) {
        if let Some((client, seq)) = e.origin {
            per_client.entry(client).or_default().push(seq);
        }
    }
    per_client
}

fn assert_equivalent<D: ClusterDriver>() {
    let baseline = decided_per_client::<D>(BatchConfig::unbatched());
    assert_eq!(baseline.len(), N_CLIENTS, "baseline missing clients");
    for (client, ops) in &baseline {
        assert_eq!(ops.len(), CMDS, "client {client} short in baseline");
    }
    for batch in knobs() {
        let batched = decided_per_client::<D>(batch);
        assert_eq!(
            baseline,
            batched,
            "per-client decided sequences differ under {}",
            batch.label()
        );
    }
}

#[test]
fn multi_paxos_batched_equals_unbatched() {
    assert_equivalent::<MultiPaxosCluster>();
}

#[test]
fn raft_batched_equals_unbatched() {
    assert_equivalent::<RaftCluster>();
}

#[test]
fn pbft_batched_equals_unbatched() {
    assert_equivalent::<PbftCluster>();
}

/// The same equivalence one layer up: per transaction, the sharded store's
/// outcome (commit/abort, span) must be identical under every batching
/// knob, and every run must pass the atomicity checker — batching may
/// repack the per-shard logs and reorder *concurrent* commits in time, but
/// it must not change what 2PC decides for any transaction.
fn store_equivalent<E: forty::store::ShardEngine>() {
    use forty::store::{Store, StoreConfig};
    use nemesis::checker::check_txn_atomicity;

    let run = |batch: BatchConfig| {
        let mut s: Store<E> = Store::new(StoreConfig::new(SEED).batch(batch));
        assert!(
            s.run(forty::simnet::Time(20_000_000)),
            "store stalled under {}",
            batch.label()
        );
        let violations = check_txn_atomicity(&s.history());
        assert!(violations.is_empty(), "{}: {violations:?}", batch.label());
        // Keyed by txn id: completion order across routers is timing and
        // thus legitimately batching-dependent; the decisions are not.
        s.outcomes()
            .iter()
            .map(|o| (o.tid, (o.decision, o.span)))
            .collect::<BTreeMap<_, _>>()
    };

    let baseline = run(BatchConfig::unbatched());
    assert!(!baseline.is_empty(), "baseline decided no transactions");
    for batch in knobs() {
        assert_eq!(
            baseline,
            run(batch),
            "store outcomes differ under {}",
            batch.label()
        );
    }
}

#[test]
fn paxos_store_batched_equals_unbatched() {
    store_equivalent::<MultiPaxosCluster>();
}

#[test]
fn raft_store_batched_equals_unbatched() {
    store_equivalent::<RaftCluster>();
}

/// One batch is one C&C instance under all three batching protocols: each
/// batch a leader takes from its wave becomes one Multi-Paxos slot, one Raft
/// log entry or one PBFT sequence number, whose span opens once, so
/// `instance_latency` counts exactly the batches `batch_size` counts.
fn one_instance_per_batch<D: ClusterDriver>(n_replicas: usize) {
    let cfg = DriverConfig::new(n_replicas, 48, 50, 1)
        .with_batch(BatchConfig::new(16, 400, 16))
        .with_mode(WorkloadMode::Open { interval_us: 2_000 })
        .with_net(NetConfig::lan().with_nic(30, 50));
    let mut d = D::from_config(&cfg);
    assert!(d.run(Time::from_secs(60)), "{} stalled", d.protocol());
    let m = d.metrics();
    let batches = m.batch_size.count();
    assert!(
        m.batch_size.mean() > 1.5,
        "{}: batches did not form",
        d.protocol()
    );
    assert_eq!(
        m.instance_latency.count(),
        batches,
        "{}: instances against batches",
        d.protocol()
    );
}

#[test]
fn multi_paxos_decides_one_instance_per_batch() {
    one_instance_per_batch::<MultiPaxosCluster>(5);
}

#[test]
fn raft_decides_one_instance_per_batch() {
    one_instance_per_batch::<RaftCluster>(5);
}

#[test]
fn pbft_decides_one_instance_per_batch() {
    one_instance_per_batch::<PbftCluster>(4);
}
