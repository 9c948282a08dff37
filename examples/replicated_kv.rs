//! The same replicated KV workload on four different consensus modules —
//! Multi-Paxos, Raft, PBFT, and HotStuff — with a leader/primary crash in
//! the middle of each run. Prints a who-costs-what comparison (the shape of
//! experiment T5).
//!
//! ```sh
//! cargo run --example replicated_kv
//! ```

use forty::bft::hotstuff::{HsCluster, HsConfig};
use forty::bft::pbft::{PbftCluster, StateAgreement};
use forty::consensus_core::QuorumSpec;
use forty::paxos::{LogConsistency, MultiPaxosCluster};
use forty::raft::{LogMatching, RaftCluster};
use forty::simnet::{NetConfig, NodeId, Time};

const CMDS: usize = 30;
const SEED: u64 = 11;

struct Row {
    name: &'static str,
    replicas: usize,
    completed: usize,
    messages: u64,
    mean_latency_ms: f64,
    survived_crash: bool,
}

fn print_row(r: &Row) {
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>14.2} {:>9}",
        r.name,
        r.replicas,
        r.completed,
        r.messages,
        r.mean_latency_ms,
        if r.survived_crash { "yes" } else { "NO" }
    );
}

fn main() {
    println!("Replicated KV under a mid-run leader crash (f = 1 everywhere)");
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>14} {:>9}",
        "protocol", "replicas", "committed", "messages", "mean lat (ms)", "recovered"
    );

    // Multi-Paxos: 2f+1 = 3 replicas.
    {
        let mut c = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 3 },
            1,
            CMDS,
            NetConfig::lan(),
            SEED,
        );
        c.sim.run_until(Time::from_millis(20));
        c.sim.crash_at(NodeId(0), Time::from_millis(21));
        let ok = c.run(Time::from_secs(60));
        c.check_log_consistency();
        print_row(&Row {
            name: "Multi-Paxos",
            replicas: 3,
            completed: c.total_completed(),
            messages: c.sim.metrics().sent,
            mean_latency_ms: c.latencies().mean() / 1_000.0,
            survived_crash: ok,
        });
    }

    // Raft: 2f+1 = 3 replicas.
    {
        let mut c = RaftCluster::new(3, 1, CMDS, NetConfig::lan(), SEED);
        c.sim.run_until(Time::from_millis(20));
        c.sim.crash_at(NodeId(0), Time::from_millis(21));
        let ok = c.run(Time::from_secs(60));
        c.check_log_matching();
        print_row(&Row {
            name: "Raft",
            replicas: 3,
            completed: c.total_completed(),
            messages: c.sim.metrics().sent,
            mean_latency_ms: c.latencies().mean() / 1_000.0,
            survived_crash: ok,
        });
    }

    // PBFT: 3f+1 = 4 replicas (tolerates Byzantine faults, pays O(n²)).
    {
        let mut c = PbftCluster::new(4, 1, CMDS, NetConfig::lan(), SEED);
        c.sim.run_until(Time::from_millis(20));
        c.sim.crash_at(NodeId(0), Time::from_millis(21));
        let ok = c.run(Time::from_secs(60));
        c.check_state_agreement();
        print_row(&Row {
            name: "PBFT",
            replicas: 4,
            completed: c.total_completed(),
            messages: c.sim.metrics().sent,
            mean_latency_ms: c.latencies().mean() / 1_000.0,
            survived_crash: ok,
        });
    }

    // HotStuff: 3f+1 = 4 replicas, linear messages. Fixed-leader config
    // here (this engine has no pacemaker, so a crashed rotating leader
    // would stall its round); crash a follower — QCs still form at 2f+1.
    {
        let cfg = HsConfig {
            n_replicas: 4,
            rotate: false,
            pipeline: false,
        };
        let mut c = HsCluster::new(cfg, 1, CMDS, NetConfig::lan(), SEED);
        c.sim.run_until(Time::from_millis(20));
        c.sim.crash_at(NodeId(2), Time::from_millis(21));
        let ok = c.run(Time::from_secs(60));
        print_row(&Row {
            name: "HotStuff",
            replicas: 4,
            completed: c.total_completed(),
            messages: c.sim.metrics().sent,
            mean_latency_ms: c.latencies().mean() / 1_000.0,
            survived_crash: ok,
        });
    }

    println!();
    println!("Shapes to notice (the tutorial's claims):");
    println!(" • crash-tolerant protocols need 3 replicas; BFT needs 4 (3f+1)");
    println!(" • PBFT's all-to-all phases cost noticeably more messages");
    println!(" • HotStuff stays linear despite tolerating Byzantine faults");
}
