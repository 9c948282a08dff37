//! Raft as a log protocol of the SMR shell, plus its end-to-end tests.

use consensus_core::cluster::decided_op;
use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::durable::Disk;
use consensus_core::{
    Client, Cluster, DedupKvMachine, DurableProtocol, Quorum, Session, Silence, SmrProtocol, Target,
};
use simnet::NodeId;

use crate::msg::RaftMsg;
use crate::replica::{Replica, Role};

/// Raft's marker for [`consensus_core::Cluster`].
pub struct Raft;

impl SmrProtocol for Raft {
    const NAME: &'static str = "raft";
    type Shape = usize;
    type Peer = RaftMsg;
    type Replica = Replica;
    type Accept = Quorum;

    fn replica(n_replicas: usize, batch: BatchConfig) -> Replica {
        Replica::new_with(n_replicas, batch)
    }

    fn client(n: usize, session: Session) -> Client<RaftMsg> {
        let target = Target::Leader(NodeId(0));
        Client::new(session, n, target, Silence::Resend(100_000), Quorum::of(1))
    }

    fn is_leader(replica: &Replica, _id: NodeId) -> bool {
        replica.role == Role::Leader
    }

    fn applied_len(replica: &Replica) -> u64 {
        replica.last_applied() as u64
    }

    fn machine(replica: &Replica) -> &DedupKvMachine {
        replica.machine()
    }

    /// Every *committed* retained entry, one [`DecidedEntry`] per command
    /// (an uncommitted suffix may legally be overwritten; compacted prefixes
    /// are covered by the digest check). Each is labelled `t{term}:`, so the
    /// agreement check also enforces Log Matching.
    fn decided(r: &Replica, node: u32, out: &mut Vec<DecidedEntry>) {
        for i in (r.snapshot_index() + 1)..=r.commit_index {
            let Some(entry) = r.entry(i) else { continue };
            decided_op(node, i, &format!("t{}:", entry.term), &entry.op, out);
        }
    }
}

impl DurableProtocol for Raft {
    fn disk(replica: &mut Replica) -> &mut Disk {
        &mut replica.disk
    }
}

/// A Raft process: replica or client.
pub type Proc = consensus_core::Proc<Raft>;

/// A ready-to-run Raft cluster with clients.
pub type RaftCluster = Cluster<Raft>;

/// Checks the **Log Matching** property over the retained (non-compacted)
/// ranges: if two logs contain an entry with the same absolute index and
/// term, they are identical from there down to the higher of the two
/// snapshot indices. Also checks retained committed entries agree.
pub trait LogMatching {
    /// Panics on the first violation; returns the shortest commit index.
    fn check_log_matching(&self) -> usize;
}

impl LogMatching for RaftCluster {
    fn check_log_matching(&self) -> usize {
        let replicas: Vec<&Replica> = self.replicas().collect();
        for a in 0..replicas.len() {
            for b in a + 1..replicas.len() {
                let (ra, rb) = (replicas[a], replicas[b]);
                let lo = ra.snapshot_index().max(rb.snapshot_index());
                let hi = ra.last_log_index().min(rb.last_log_index());
                if hi <= lo {
                    continue; // no overlapping retained range
                }
                // Find the highest common (index, term) agreement point.
                for i in ((lo + 1)..=hi).rev() {
                    let (ta, tb) = (ra.term_at(i), rb.term_at(i));
                    if ta.is_some() && ta == tb {
                        for j in (lo + 1)..=i {
                            assert_eq!(
                                ra.entry(j),
                                rb.entry(j),
                                "Log Matching violated between replicas {a} and {b} at {j}"
                            );
                        }
                        break;
                    }
                }
            }
        }
        let min_commit = replicas.iter().map(|r| r.commit_index).min().unwrap_or(0);
        for i in 1..=min_commit {
            let entries: Vec<_> = replicas.iter().filter_map(|r| r.entry(i)).collect();
            for pair in entries.windows(2) {
                assert_eq!(pair[0], pair[1], "committed entries diverge at {i}");
            }
        }
        min_commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::driver::{ClusterDriver, DriverConfig};
    use consensus_core::{ClientMsg, Envelope, StateMachine as _, Str, WorkloadMode};
    use simnet::{DiskModel, NetConfig, Time};

    #[test]
    fn elects_a_leader() {
        let mut cluster = RaftCluster::new(5, 0, 0, NetConfig::lan(), 1);
        cluster.sim.run_until(Time::from_millis(200));
        assert!(cluster.leader().is_some(), "no leader after 200ms");
        // Exactly one leader per term (checked by unique-leader helper).
    }

    #[test]
    fn commits_client_commands() {
        let mut cluster = RaftCluster::new(3, 1, 10, NetConfig::lan(), 2);
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
        assert!(cluster.check_log_matching() >= 10);
    }

    #[test]
    fn multiple_clients_complete() {
        let mut cluster = RaftCluster::new(5, 3, 15, NetConfig::lan(), 3);
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 45);
        cluster.check_log_matching();
    }

    #[test]
    fn leader_crash_failover() {
        let mut cluster = RaftCluster::new(5, 2, 20, NetConfig::lan(), 4);
        cluster.sim.run_until(Time::from_millis(100));
        let leader = cluster.leader().expect("initial leader");
        cluster.sim.crash_at(leader, Time::from_millis(101));
        assert!(
            cluster.run(Time::from_secs(30)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 40);
        cluster.check_log_matching();
        let new_leader = cluster.leader();
        assert_ne!(new_leader, Some(leader));
    }

    #[test]
    fn follower_crash_and_restart_catches_up() {
        let mut cluster = RaftCluster::new(3, 1, 20, NetConfig::lan(), 5);
        cluster.sim.run_until(Time::from_millis(60));
        // Crash a follower, run on, restart it.
        let leader = cluster.leader().expect("leader");
        let follower = (0..3).map(NodeId::from).find(|&id| id != leader).unwrap();
        cluster.sim.crash_at(follower, Time::from_millis(61));
        cluster.sim.restart_at(follower, Time::from_millis(400));
        assert!(cluster.run(Time::from_secs(30)));
        // Let replication settle, then verify the restarted follower
        // caught up fully.
        cluster.sim.run_for(500_000);
        cluster.check_log_matching();
        let commits: Vec<usize> = cluster.replicas().map(|r| r.commit_index).collect();
        assert!(
            commits.iter().all(|&c| c >= 20),
            "restarted follower lags: {commits:?}"
        );
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut cluster = RaftCluster::new(5, 1, 30, NetConfig::lan(), 6);
        cluster.sim.run_until(Time::from_millis(100));
        let leader = cluster.leader().expect("leader");
        // Cut the leader (plus one follower) away from the rest AND the
        // client (client node id 5 goes with the majority side).
        let minority: Vec<NodeId> = vec![leader, NodeId::from((leader.index() + 1) % 5)];
        let majority: Vec<NodeId> = (0..6)
            .map(NodeId::from)
            .filter(|id| !minority.contains(id))
            .collect();
        cluster
            .sim
            .partition_at(Time::from_millis(101), vec![minority.clone(), majority]);
        cluster.sim.run_until(Time::from_millis(600));
        // The old leader's commit index must not advance past what the
        // majority side knows (it can't reach a majority).
        let stale_commit = cluster
            .replicas()
            .enumerate()
            .filter(|(i, _)| minority.contains(&NodeId::from(*i)))
            .map(|(_, r)| r.commit_index)
            .max()
            .unwrap();
        // Heal; everything reconciles and the workload finishes.
        cluster.sim.heal_at(cluster.sim.now() + 1);
        assert!(cluster.run(Time::from_secs(30)));
        cluster.check_log_matching();
        let final_commit = cluster.replicas().map(|r| r.commit_index).max().unwrap();
        assert!(final_commit >= stale_commit);
        assert_eq!(cluster.total_completed(), 30);
    }

    #[test]
    fn lossy_network_still_completes() {
        let mut cluster = RaftCluster::new(3, 1, 15, NetConfig::lan().with_drop_prob(0.05), 7);
        assert!(cluster.run(Time::from_secs(60)));
        cluster.check_log_matching();
    }

    #[test]
    fn at_most_one_leader_per_term() {
        // Run with elections churning (partitions) and check the invariant
        // via vote accounting: every observed (term → leader) pair is unique.
        let mut cluster = RaftCluster::new(5, 1, 10, NetConfig::lan(), 8);
        cluster.sim.run_until(Time::from_millis(80));
        if let Some(leader) = cluster.leader() {
            let at = cluster.sim.now() + 1;
            cluster.sim.crash_at(leader, at);
        }
        cluster.run(Time::from_secs(20));
        // Terms are unique per leader because elections_won increments only
        // with a majority; total elections won ≤ max term seen.
        let max_term = cluster.replicas().map(|r| r.current_term).max().unwrap();
        let total_wins: u64 = cluster.replicas().map(|r| r.elections_won).sum();
        assert!(
            total_wins <= max_term,
            "{total_wins} wins in {max_term} terms — split vote safety broken"
        );
    }

    /// Election Safety under a network that delivers every message twice: a
    /// duplicated `VoteResponse` is one voter, not two. Counting responses,
    /// nodes 1 and 3 both led term 2 at 101 ms of this run.
    #[test]
    fn duplicated_vote_grants_never_elect_two_leaders_in_one_term() {
        let net = NetConfig::lan().with_duplicate_prob(1.0);
        let mut cluster = RaftCluster::new(5, 2, 20, net, 135);
        cluster.sim.crash_at(NodeId(0), Time::from_millis(20));
        let mut leaders = std::collections::BTreeMap::new();
        while cluster.sim.now() < Time::from_millis(500) {
            cluster.sim.run_for(1_000);
            for (id, r) in cluster.replicas().enumerate() {
                if r.role == Role::Leader {
                    let first = *leaders.entry(r.current_term).or_insert(id);
                    assert_eq!(first, id, "two leaders in term {}", r.current_term);
                }
            }
        }
        assert!(!leaders.is_empty(), "no leader was ever elected");
    }

    #[test]
    fn snapshots_bound_log_growth() {
        // Low threshold: replicas must compact while serving.
        let mut cluster = RaftCluster::new(3, 1, 40, NetConfig::lan(), 20)
            .map_replicas(|r| r.disk.set_snapshot_threshold(8));
        assert!(cluster.run(Time::from_secs(30)));
        cluster.sim.run_for(300_000);
        for (id, r) in cluster.sim.nodes().filter_map(|(id, p)| match p {
            Proc::Replica(r) => Some((id, r)),
            _ => None,
        }) {
            assert!(r.disk.snapshots_taken >= 1, "{id} never compacted");
            assert!(
                r.retained_len() < 40,
                "{id} kept the whole log: {}",
                r.retained_len()
            );
        }
        cluster.check_log_matching();
    }

    #[test]
    fn lagging_follower_catches_up_via_install_snapshot() {
        // A follower sleeps through enough traffic that the leader compacts
        // past its position; on wake-up only InstallSnapshot can help.
        let mut cluster = RaftCluster::new(3, 1, 50, NetConfig::lan(), 21)
            .map_replicas(|r| r.disk.set_snapshot_threshold(8));
        cluster.sim.run_until(Time::from_millis(30));
        let leader = cluster.leader().expect("leader");
        let sleeper = (0..3).map(NodeId::from).find(|&id| id != leader).unwrap();
        cluster.sim.crash_at(sleeper, Time::from_millis(31));
        // Let the rest commit (and compact) a lot, then wake the sleeper.
        cluster.run(Time::from_secs(30));
        let at = cluster.sim.now() + 1;
        cluster.sim.restart_at(sleeper, at);
        cluster.sim.run_for(2_000_000);
        let snaps = cluster.sim.metrics().kind("install-snapshot");
        assert!(snaps >= 1, "snapshot shipping expected");
        if let Proc::Replica(r) = cluster.sim.node(sleeper) {
            assert!(
                r.disk.snapshots_installed >= 1,
                "sleeper should have installed a snapshot"
            );
            assert!(
                r.last_applied() >= 40,
                "sleeper should be caught up: {}",
                r.last_applied()
            );
        }
        cluster.check_log_matching();
        // State convergence despite the snapshot path.
        let digests: std::collections::BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.last_applied() >= 50)
            .map(|r| r.machine().digest())
            .collect();
        assert!(digests.len() <= 1, "divergence after snapshot: {digests:?}");
    }

    /// Flattened committed `(client, seq)` sequence from the replica that
    /// committed the most entries (no-ops excluded).
    fn committed_origins(cluster: &RaftCluster) -> Vec<(u32, u64)> {
        let log = ClusterDriver::decided_log(cluster);
        let best = (0..cluster.n_replicas as u32)
            .max_by_key(|n| log.iter().filter(|e| e.node == *n).count())
            .unwrap();
        log.iter()
            .filter(|e| e.node == best)
            .filter_map(|e| e.origin)
            .collect()
    }

    #[test]
    fn batched_runs_commit_the_same_command_sequence() {
        // Same seed + workload under a synchronous (draw-free) network:
        // batched replication must commit the same command sequence the
        // unbatched default commits — batching only changes how entries are
        // grouped into AppendEntries waves. Terms may differ, so compare
        // origins rather than rendered ops.
        let committed = |batch: BatchConfig| {
            let mut cluster = RaftCluster::new_with(
                3,
                2,
                20,
                NetConfig::synchronous(),
                42,
                batch,
                WorkloadMode::Closed,
            );
            assert!(
                cluster.run(Time::from_secs(30)),
                "{} stalled",
                batch.label()
            );
            cluster.check_log_matching();
            committed_origins(&cluster)
        };
        let unbatched = committed(BatchConfig::unbatched());
        assert_eq!(unbatched.len(), 40);
        for b in [
            BatchConfig::new(4, 200, 2),
            BatchConfig::new(8, 500, 4),
            BatchConfig::new(2, 0, 1),
        ] {
            assert_eq!(committed(b), unbatched, "config {} diverged", b.label());
        }
    }

    #[test]
    fn leader_crash_under_batched_config_recovers() {
        let mut cluster = RaftCluster::new_with(
            5,
            2,
            20,
            NetConfig::lan(),
            4,
            BatchConfig::new(4, 300, 2),
            WorkloadMode::Closed,
        );
        cluster.sim.run_until(Time::from_millis(100));
        let leader = cluster.leader().expect("initial leader");
        cluster.sim.crash_at(leader, Time::from_millis(101));
        assert!(
            cluster.run(Time::from_secs(30)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 40);
        cluster.check_log_matching();
    }

    #[test]
    fn open_loop_clients_build_real_batches() {
        let mut cluster = RaftCluster::new_with(
            3,
            2,
            30,
            NetConfig::lan(),
            9,
            BatchConfig::new(8, 400, 2),
            WorkloadMode::Open { interval_us: 200 },
        );
        assert!(cluster.run(Time::from_secs(30)));
        assert_eq!(cluster.total_completed(), 60);
        cluster.check_log_matching();
        let h = &cluster.sim.metrics().batch_size;
        assert!(
            h.max().unwrap_or(0) > 1,
            "batches never formed: max {:?}",
            h.max()
        );
    }

    #[test]
    fn cluster_driver_trait_drives_and_harvests() {
        let mut cluster = RaftCluster::from_config(&DriverConfig::new(3, 2, 5, 7));
        let drv: &mut dyn ClusterDriver = &mut cluster;
        assert_eq!(drv.protocol(), "raft");
        assert_eq!(drv.n_replicas(), 3);
        assert!(drv.run(Time::from_secs(10)));
        assert!(drv.all_done());
        assert_eq!(drv.completed_ops(), 10);
        assert_eq!(drv.state_digests().len(), 3);
        assert_eq!(drv.history().len(), 10);
        assert_eq!(drv.issued().len(), 10);
        assert!(drv.decided_log().iter().any(|e| e.origin.is_some()));
    }

    #[test]
    fn durability_does_not_change_decisions() {
        // The disk model is pure accounting — attaching engines must not
        // perturb message timing. Under a draw-free synchronous network the
        // run must be observably identical across a sweep of seeds: same
        // committed (client, seq) sequence, same final digest, same traffic.
        for seed in [42u64, 43, 44] {
            let run = |durable: bool| {
                let mut cluster = RaftCluster::new_with(
                    3,
                    2,
                    20,
                    NetConfig::synchronous(),
                    seed,
                    BatchConfig::unbatched(),
                    WorkloadMode::Closed,
                );
                if durable {
                    // Same threshold as the RAM default, so compaction
                    // behaviour matches entry-for-entry.
                    cluster = cluster
                        .with_durability(crate::replica::SNAPSHOT_THRESHOLD, DiskModel::ssd());
                }
                assert!(cluster.run(Time::from_secs(30)), "seed {seed} stalled");
                cluster.check_log_matching();
                let digest = cluster
                    .replicas()
                    .max_by_key(|r| r.last_applied())
                    .expect("replicas")
                    .machine()
                    .digest();
                (
                    committed_origins(&cluster),
                    digest,
                    cluster.sim.metrics().sent,
                )
            };
            let ram = run(false);
            assert_eq!(ram.0.len(), 40, "seed {seed}");
            assert_eq!(run(true), ram, "seed {seed}: durable run diverged");
        }
    }

    #[test]
    fn durable_snapshots_bound_log_growth() {
        // Durable flavour of `snapshots_bound_log_growth`: checkpoints must
        // both compact the in-RAM log and land on the engine as snapshots.
        let mut cluster =
            RaftCluster::new(3, 1, 40, NetConfig::lan(), 20).with_durability(8, DiskModel::ssd());
        assert!(cluster.run(Time::from_secs(30)));
        cluster.sim.run_for(300_000);
        for r in cluster.replicas() {
            assert!(r.disk.snapshots_taken >= 1, "replica never compacted");
            assert!(
                r.retained_len() < 40,
                "log not compacted: {} entries retained",
                r.retained_len()
            );
            let stats = r.storage_stats().expect("durable engine");
            assert!(
                stats.snapshots_written >= 1,
                "checkpoint never hit the disk"
            );
            assert!(stats.wal_flushes > 0, "WAL never synced");
        }
        cluster.check_log_matching();
    }

    #[test]
    fn durable_replica_recovers_from_wal_and_snapshot() {
        let mut cluster =
            RaftCluster::new(3, 1, 30, NetConfig::lan(), 22).with_durability(8, DiskModel::ssd());
        assert!(cluster.run(Time::from_secs(20)));
        assert_eq!(cluster.total_completed(), 30);
        cluster.sim.run_for(300_000);
        // Term, vote and whether the replica has recovered yet.
        let hard_state = |cluster: &RaftCluster| {
            let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
                panic!("node 2 is a replica")
            };
            let recoveries = r.storage_stats().expect("durable engine").recoveries;
            (r.current_term, r.voted_for, recoveries)
        };
        let digest_before = {
            let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
                panic!("node 2 is a replica")
            };
            assert!(
                r.disk.snapshots_taken >= 1,
                "needs a checkpoint to recover from"
            );
            r.machine().digest()
        };
        let (term, vote, _) = hard_state(&cluster);
        assert!(term > 0 && vote.is_some(), "{term} {vote:?}");
        // Crash + restart: recovery must come from the checkpoint (not a
        // full replay from index 0) and reproduce the exact machine state,
        // and the `Promise` records the term and vote it held.
        let now = cluster.sim.now();
        cluster.sim.crash_at(NodeId(2), Time(now.0 + 1_000));
        cluster.sim.restart_at(NodeId(2), Time(now.0 + 50_000));
        cluster.sim.run_until(Time(now.0 + 50_000));
        assert_eq!(
            hard_state(&cluster),
            (term, vote, 1),
            "term and vote must survive"
        );
        cluster.sim.run_for(500_000);
        let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
            panic!("node 2 is a replica")
        };
        assert!(
            r.disk.recovered_floor > 0,
            "recovery replayed from index 0 instead of the snapshot"
        );
        assert_eq!(r.machine().digest(), digest_before, "state must survive");
        let stats = r.storage_stats().expect("durable engine");
        assert_eq!(stats.recoveries, 1);
        assert!(
            r.disk.last_recovery_io_us > 0,
            "recovery must charge disk time"
        );
        cluster.check_log_matching();
    }

    #[test]
    fn durable_leader_crash_failover_preserves_safety() {
        // Crash the durable leader mid-workload, let the cluster fail over,
        // then restart it: the WAL-recovered log must agree with the
        // survivors (Log Matching) and the workload must finish.
        let mut cluster =
            RaftCluster::new(3, 2, 20, NetConfig::lan(), 24).with_durability(8, DiskModel::ssd());
        cluster.sim.run_until(Time::from_millis(100));
        let leader = cluster.leader().expect("initial leader");
        cluster.sim.crash_at(leader, Time::from_millis(101));
        cluster.sim.restart_at(leader, Time::from_millis(400));
        assert!(
            cluster.run(Time::from_secs(30)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 40);
        cluster.sim.run_for(500_000);
        cluster.check_log_matching();
        let Proc::Replica(r) = cluster.sim.node(leader) else {
            panic!("leader is a replica")
        };
        assert_eq!(r.storage_stats().expect("durable engine").recoveries, 1);
    }

    /// A fast read of `key` by `client`, numbered `seq`.
    fn read(client: u32, seq: u64, key: Str) -> Envelope<RaftMsg> {
        Envelope::Client(ClientMsg::Read { client, seq, key })
    }

    /// One `(key, value)` pair from the most-applied replica's KV state.
    fn applied_sample(cluster: &RaftCluster) -> (Str, Str) {
        let r = cluster
            .replicas()
            .max_by_key(|r| r.last_applied())
            .expect("replicas");
        let (k, v) = r.machine().kv().iter().next().expect("applied writes");
        (k.clone(), v.clone())
    }

    #[test]
    fn follower_serves_linearizable_reads_via_read_index() {
        use consensus_core::ReadMode;
        let mut cluster = RaftCluster::new(3, 1, 15, NetConfig::lan(), 30);
        assert!(cluster.run(Time::from_secs(10)));
        cluster.sim.run_for(300_000); // followers apply; heartbeats settle
        let leader = cluster.leader().expect("leader");
        let (key, want) = applied_sample(&cluster);
        let client = NodeId::from(3usize); // the workload client doubles as reader
        let follower = (0..3).map(NodeId::from).find(|&id| id != leader).unwrap();
        let now = cluster.sim.now();
        cluster
            .sim
            .inject(client, follower, read(3, 1, key.clone()), Time(now.0 + 10));
        cluster
            .sim
            .inject(client, leader, read(3, 2, key), Time(now.0 + 20));
        cluster.sim.run_for(200_000);
        let Proc::Client(c) = cluster.sim.node(client) else {
            panic!("node 3 is the client")
        };
        assert_eq!(
            c.read_replies.get(&(3, 1)),
            Some(&(Some(want.clone()), ReadMode::ReadIndex)),
            "follower read must resolve via read-index"
        );
        assert_eq!(
            c.read_replies.get(&(3, 2)),
            Some(&(Some(want), ReadMode::ReadIndex)),
            "leader read must resolve locally"
        );
        // The follower path must have done a read-index round-trip.
        assert!(cluster.sim.metrics().kind("read-index-q") >= 1);
        assert!(cluster.sim.metrics().kind("read-index-r") >= 1);
    }

    #[test]
    fn isolated_leader_nacks_read_index_reads() {
        use consensus_core::ReadMode;
        let mut cluster = RaftCluster::new(5, 1, 10, NetConfig::lan(), 31);
        assert!(cluster.run(Time::from_secs(10)));
        let leader = cluster.leader().expect("leader");
        let client = NodeId::from(5usize);
        let now = cluster.sim.now();
        // Isolate the old leader together with the probing client so the
        // NACK can cross the partition back to it.
        let minority = vec![leader, client];
        let majority: Vec<NodeId> = (0..6)
            .map(NodeId::from)
            .filter(|id| !minority.contains(id))
            .collect();
        cluster
            .sim
            .partition_at(Time(now.0 + 1_000), vec![minority, majority]);
        // Wait well past the quorum-contact window: the stale leader can no
        // longer confirm its leadership and must refuse the fast path.
        cluster.sim.run_for(300_000);
        let now = cluster.sim.now();
        cluster
            .sim
            .inject(client, leader, read(5, 7, "k0".into()), Time(now.0 + 10));
        cluster.sim.run_for(100_000);
        let Proc::Client(c) = cluster.sim.node(client) else {
            panic!("node 5 is the client")
        };
        let (_, mode) = c.read_replies.get(&(5, 7)).expect("nack reply");
        assert_eq!(*mode, ReadMode::Nack, "stale leader must refuse fast reads");
    }

    #[test]
    fn read_index_reads_leave_the_committed_sequence_unchanged() {
        // Reads ride the message plane only: injecting them mid-run must not
        // perturb which commands commit or their order. Synchronous network
        // so the baseline is draw-free and exactly comparable.
        let run = |with_reads: bool| {
            let mut cluster = RaftCluster::new_with(
                3,
                2,
                20,
                NetConfig::synchronous(),
                42,
                BatchConfig::unbatched(),
                WorkloadMode::Closed,
            );
            cluster.sim.run_until(Time::from_millis(50));
            if with_reads {
                let now = cluster.sim.now();
                for (i, target) in (0..3).map(NodeId::from).enumerate() {
                    let read = read(3, 100 + i as u64, "k1".into());
                    let at = Time(now.0 + 10 + i as u64);
                    cluster.sim.inject(NodeId::from(3usize), target, read, at);
                }
            }
            assert!(cluster.run(Time::from_secs(30)));
            committed_origins(&cluster)
        };
        let base = run(false);
        assert_eq!(base.len(), 40);
        assert_eq!(run(true), base, "reads perturbed the committed sequence");
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut cluster = RaftCluster::new(3, 2, 10, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(10));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn replicas_converge_to_same_state_digest() {
        let mut cluster = RaftCluster::new(3, 2, 20, NetConfig::lan(), 10);
        assert!(cluster.run(Time::from_secs(20)));
        cluster.sim.run_for(500_000); // let followers apply
        let digests: std::collections::BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.last_applied() >= 40)
            .map(|r| r.machine().digest())
            .collect();
        assert!(digests.len() <= 1, "state divergence: {digests:?}");
    }

    #[test]
    fn tracing_produces_chained_roots_without_changing_the_run() {
        let run = |traced: bool| {
            let mut cluster = RaftCluster::new(3, 2, 10, NetConfig::lan(), 12);
            if traced {
                cluster.sim.enable_tracing(3);
            }
            assert!(cluster.run(Time::from_secs(10)));
            (cluster.sim.metrics().sent, cluster)
        };
        let (base_sent, _) = run(false);
        let (sent, cluster) = run(true);
        assert_eq!(sent, base_sent, "tracing must not change traffic");

        let spans = cluster.sim.causal_spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.cat == "op" && s.trace_id == s.id)
            .collect();
        assert_eq!(roots.len(), 20, "one root span per client command");
        assert!(
            roots.iter().all(|r| r.end > r.start),
            "roots close on Reply"
        );
        for root in &roots {
            let children = spans
                .iter()
                .filter(|s| s.trace_id == root.trace_id && s.id != root.id)
                .count();
            assert!(children >= 4, "request/append/ack/reply at minimum");
        }
    }

    #[test]
    fn batched_tracing_records_queue_waits() {
        let mut cluster = RaftCluster::new_with(
            3,
            2,
            15,
            NetConfig::lan(),
            13,
            BatchConfig::new(8, 400, 16),
            WorkloadMode::Open { interval_us: 150 },
        );
        cluster.sim.enable_tracing(0);
        assert!(cluster.run(Time::from_secs(20)));
        let spans = cluster.sim.causal_spans();
        assert!(
            spans
                .iter()
                .any(|s| s.cat == "client-queue" && s.end > s.start),
            "held-back waves must charge batch-queue time"
        );
    }

    #[test]
    fn a_reelected_leader_replies_only_for_the_commands_it_appended() {
        // Node 0 leads, muted, and appends (4, 9) and (3, 1) at indices 2
        // and 3. Its successor X overwrites them with its no-op and (4, 1),
        // then dies; node 0 wins the next election and applies (4, 1) at
        // index 3. A reply table keyed by index would answer node 3 — whose
        // command never committed — with (4, 1)'s output under seq 1.
        use simnet::{DropAll, FilterAction, FnFilter, TraceEvent};
        let mut cluster = RaftCluster::new(3, 2, 0, NetConfig::synchronous(), 1);
        cluster.sim.record_trace(true);
        fn replica(c: &RaftCluster, id: NodeId) -> &Replica {
            c.replicas().nth(id.index()).unwrap()
        }
        let put = |client: u32, seq: u64| {
            let (key, value) = ("k".into(), format!("{client}.{seq}").into());
            let op = consensus_core::KvCommand::Put { key, value };
            Envelope::request(consensus_core::Command { client, seq, op })
        };
        let (n0, c3, c4) = (NodeId(0), NodeId(3), NodeId(4));
        cluster.sim.run_until(Time::from_millis(5));
        assert_eq!(cluster.leader(), Some(n0));
        cluster.sim.set_filter(n0, Box::new(DropAll));
        let now = cluster.sim.now();
        cluster.sim.inject(c4, n0, put(4, 9), now + 10);
        cluster.sim.inject(c3, n0, put(3, 1), now + 20);
        cluster.sim.run_for(100);
        assert_eq!(replica(&cluster, n0).last_log_index(), 3);

        let mut x = None;
        while x.is_none() {
            cluster.sim.run_for(1_000);
            x = [NodeId(1), NodeId(2)].into_iter().find(|&id| {
                cluster.leader() == Some(id) && replica(&cluster, id).commit_index >= 2
            });
        }
        let x = x.unwrap();
        let now = cluster.sim.now();
        cluster.sim.inject(c4, x, put(4, 1), now);
        cluster.sim.crash_at(x, now + 700);
        cluster.sim.run_for(700);

        cluster.sim.clear_filter(n0);
        let other = if x == NodeId(1) { NodeId(2) } else { NodeId(1) };
        cluster.sim.set_filter(
            other,
            Box::new(FnFilter(
                |_, _, msg: &Envelope<RaftMsg>, _: &mut _| match msg {
                    Envelope::Peer(RaftMsg::RequestVote { .. }) => FilterAction::Drop,
                    _ => FilterAction::Deliver,
                },
            )),
        );
        cluster.sim.run_for(1_000_000);
        assert_eq!(cluster.leader(), Some(n0));
        let n0_replica = replica(&cluster, n0);
        assert!(n0_replica.last_applied() >= 3);
        let at3 = n0_replica.entry(3).map(|e| e.op.commands());
        let at3 = at3.and_then(|cmds| cmds.first()).map(|c| (c.client, c.seq));
        assert_eq!(at3, Some((4, 1)), "node 0 applied X's command at index 3");

        let stray = cluster
            .sim
            .trace()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Send) && e.to == c3 && e.kind == "reply");
        assert_eq!(stray.count(), 0, "node 3's command never committed");
        for r in cluster.replicas() {
            let mut log = (r.snapshot_index() + 1..=r.last_log_index()).filter_map(|i| r.entry(i));
            assert!(log.all(|e| e.op.commands().iter().all(|c| c.client != 3)));
        }
    }
}
