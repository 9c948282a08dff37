//! The decided-log harvest renders each decided command once: within one
//! `decided_log()` call, every entry of one labelled command — on any
//! replica — holds the same `Str` allocation. The rendering is
//! `{label}{cmd:?}`, so distinct op texts are distinct `(label, command)`s,
//! and the number of allocations must equal the number of texts.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use forty::bft::hotstuff::HsCluster;
use forty::bft::pbft::PbftCluster;
use forty::consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use forty::consensus_core::workload::KvMix;
use forty::consensus_core::Str;
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::Time;

/// `smr-batched-1k`'s cell shape, cut down: batches of 16, 1 KiB values.
fn batched_1k(n_replicas: usize) -> DriverConfig {
    DriverConfig::new(n_replicas, 8, 12, 5)
        .with_batch(BatchConfig::new(16, 400, 16))
        .with_mix(KvMix::default().with_value_bytes(1024))
}

fn shares_one_rendering_per_command<D: ClusterDriver>(cfg: DriverConfig) {
    let mut d = D::from_config(&cfg);
    let name = d.protocol();
    assert!(d.run(Time::from_secs(60)), "{name} stalled");
    let log = d.decided_log();

    let mut by_text: HashMap<&str, &Str> = HashMap::new();
    for e in &log {
        let first = by_text.entry(&e.op).or_insert(&e.op);
        assert!(Arc::ptr_eq(first, &e.op), "{name}: {} rendered twice", e.op);
    }
    let allocations: HashSet<*const u8> = log.iter().map(|e| e.op.as_ptr()).collect();
    assert_eq!(allocations.len(), by_text.len(), "{name}");

    // Not vacuous: every replica harvested, and some command on several.
    let nodes: BTreeSet<u32> = log.iter().map(|e| e.node).collect();
    assert_eq!(nodes.len(), cfg.n_replicas, "{name}");
    assert!(log.len() > by_text.len(), "{name}");
}

#[test]
fn multi_paxos_replicas_share_one_rendering_per_command() {
    shares_one_rendering_per_command::<MultiPaxosCluster>(batched_1k(5));
}

#[test]
fn raft_replicas_share_one_rendering_per_labelled_command() {
    shares_one_rendering_per_command::<RaftCluster>(batched_1k(5));
}

#[test]
fn pbft_replicas_share_one_rendering_per_command() {
    shares_one_rendering_per_command::<PbftCluster>(batched_1k(4));
}

#[test]
fn hotstuff_replicas_share_one_rendering_per_command() {
    shares_one_rendering_per_command::<HsCluster>(DriverConfig::new(4, 3, 10, 5));
}
