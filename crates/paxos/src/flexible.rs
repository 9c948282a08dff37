//! Flexible Paxos: quorum intersection revisited.
//!
//! Howard, Malkhi & Spiegelman's observation, as presented in the tutorial:
//! requiring *majorities* for **both** leader election and replication is
//! too conservative. The generalized quorum condition only demands that
//! every leader-election quorum intersect every replication quorum
//! (`|Q1| + |Q2| > n`), so replication quorums can be arbitrarily small as
//! long as election quorums grow to match — **with no changes to the Paxos
//! algorithms**.
//!
//! True to that claim, this module contains *no new protocol code*: it runs
//! the unmodified [`crate::multi`] engine under
//! [`consensus_core::QuorumSpec::Flexible`] and
//! [`consensus_core::QuorumSpec::Grid`] configurations, and demonstrates
//! that safety holds across leader changes while replication latency drops
//! with smaller `|Q2|`.

use consensus_core::QuorumSpec;
use simnet::{NetConfig, Time};

use crate::multi::{LogConsistency, MultiPaxosCluster};

/// Builds a Multi-Paxos cluster running under a Flexible Paxos quorum
/// configuration. Panics if the configuration violates the generalized
/// quorum condition — an unsafe config must not be runnable.
pub fn flexible_cluster(
    spec: QuorumSpec,
    n_clients: usize,
    cmds_per_client: usize,
    config: NetConfig,
    seed: u64,
) -> MultiPaxosCluster {
    assert!(
        spec.is_safe(),
        "quorum configuration violates |Q1| + |Q2| > n: {spec:?}"
    );
    MultiPaxosCluster::new(spec, n_clients, cmds_per_client, config, seed)
}

/// Measured outcome of one flexible-quorum run (for experiment F6).
#[derive(Clone, Debug)]
pub struct FlexReport {
    /// The quorum configuration.
    pub spec: QuorumSpec,
    /// Whether the workload completed.
    pub completed: bool,
    /// Mean client latency (µs).
    pub mean_latency: f64,
    /// Shortest consistent applied prefix across replicas.
    pub consistent_prefix: usize,
    /// Total network messages.
    pub messages: u64,
}

/// Runs `cmds` commands through a cluster under `spec` and reports.
pub fn run_flexible(spec: QuorumSpec, cmds: usize, seed: u64) -> FlexReport {
    let mut cluster = flexible_cluster(spec, 1, cmds, NetConfig::lan(), seed);
    let completed = cluster.run(Time::from_secs(60));
    let consistent_prefix = cluster.check_log_consistency();
    FlexReport {
        spec,
        completed,
        mean_latency: cluster.latencies().mean(),
        consistent_prefix,
        messages: cluster.sim.metrics().sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    #[test]
    fn small_replication_quorum_commits() {
        // n=5, Q1=4, Q2=2: replication needs only 2 acks.
        let report = run_flexible(QuorumSpec::Flexible { n: 5, q1: 4, q2: 2 }, 15, 1);
        assert!(report.completed, "{report:?}");
        assert!(report.consistent_prefix >= 15);
    }

    #[test]
    #[should_panic(expected = "quorum configuration violates")]
    fn unsafe_config_is_rejected() {
        let _ = flexible_cluster(
            QuorumSpec::Flexible { n: 5, q1: 2, q2: 2 },
            1,
            1,
            NetConfig::lan(),
            1,
        );
    }

    #[test]
    fn smaller_q2_lowers_commit_latency() {
        // Same cluster size, shrinking replication quorum: the leader waits
        // for fewer (and therefore faster) acks.
        let slow = run_flexible(QuorumSpec::Flexible { n: 7, q1: 4, q2: 4 }, 30, 2);
        let fast = run_flexible(QuorumSpec::Flexible { n: 7, q1: 7, q2: 1 }, 30, 2);
        assert!(slow.completed && fast.completed);
        assert!(
            fast.mean_latency < slow.mean_latency,
            "Q2=1 ({:.0}µs) should beat Q2=4 ({:.0}µs)",
            fast.mean_latency,
            slow.mean_latency
        );
    }

    #[test]
    fn safety_holds_across_leader_change_with_flexible_quorums() {
        // The crux of FPaxos: a new leader's Q1 must see every committed
        // entry even though entries replicate on only Q2 = 2 nodes.
        let spec = QuorumSpec::Flexible { n: 5, q1: 4, q2: 2 };
        let mut cluster = flexible_cluster(spec, 2, 20, NetConfig::lan(), 3);
        cluster.sim.run_until(Time::from_millis(100));
        if let Some(leader) = cluster.leader() {
            let at = cluster.sim.now() + 1;
            cluster.sim.crash_at(leader, at);
        }
        assert!(cluster.run(Time::from_secs(60)), "failover must complete");
        cluster.check_log_consistency();
        assert_eq!(cluster.total_completed(), 40);
    }

    #[test]
    fn grid_quorums_work_end_to_end() {
        // 2×3 grid: election = a full row (3 nodes), replication = a full
        // column (2 nodes).
        let spec = QuorumSpec::Grid { rows: 2, cols: 3 };
        let report = run_flexible(spec, 10, 4);
        assert!(report.completed, "{report:?}");
        assert!(report.consistent_prefix >= 10);
    }

    #[test]
    fn grid_survives_losing_a_non_quorum_node() {
        // Killing one node of a 2×3 grid leaves a full row and (other)
        // full columns intact.
        let spec = QuorumSpec::Grid { rows: 2, cols: 3 };
        let mut cluster = flexible_cluster(spec, 1, 10, NetConfig::lan(), 5);
        cluster.sim.crash_at(NodeId(5), Time(0));
        assert!(cluster.run(Time::from_secs(60)));
        cluster.check_log_consistency();
    }
}
