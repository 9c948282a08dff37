//! Quickstart: a replicated key-value store on Multi-Paxos in ~20 lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use forty::consensus_core::QuorumSpec;
use forty::paxos::{LogConsistency, MultiPaxosCluster};
use forty::simnet::{NetConfig, Time};

fn main() {
    // Three replicas (tolerates one crash), one closed-loop client
    // issuing 20 key-value commands, on a simulated datacenter LAN.
    let mut cluster = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 3 },
        1,
        20,
        NetConfig::lan(),
        7, // seed: every run of this example is identical
    );

    let done = cluster.run(Time::from_secs(10));
    assert!(done, "the workload should finish well within 10s");

    let consistent_prefix = cluster.check_log_consistency();
    let latencies = cluster.latencies();
    let metrics = cluster.sim.metrics();

    println!("── Multi-Paxos quickstart ─────────────────────────────");
    println!("replicas          : 3 (majority quorums of 2)");
    println!("commands committed: {}", cluster.total_completed());
    println!("consistent prefix : {consistent_prefix} log entries on every replica");
    println!(
        "client latency    : mean {:.1}ms, p99 {:.1}ms",
        latencies.mean() / 1_000.0,
        latencies.percentile(99.0) as f64 / 1_000.0
    );
    println!(
        "network traffic   : {} messages ({})",
        metrics.sent,
        metrics.kinds_summary()
    );
    println!(
        "simulated time    : {:.1}ms",
        cluster.sim.now().as_micros() as f64 / 1_000.0
    );

    // Peek at the replicated state machine on one replica.
    let replica = cluster.replicas().next().expect("replica 0");
    let kv = replica.log.machine().kv();
    println!("keys in the store : {}", kv.len());
}
