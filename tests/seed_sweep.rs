//! Randomized fault-schedule sweeps: for many seeds, derive a random (but
//! deterministic) crash/restart schedule within each protocol's fault
//! budget, run the workload, and check the safety invariants. This is the
//! closest thing to model-checking the zoo affords — every failure is
//! reproducible from its seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use forty::bft::pbft::{PbftCluster, StateAgreement};
use forty::consensus_core::QuorumSpec;
use forty::paxos::{LogConsistency, MultiPaxosCluster};
use forty::raft::{LogMatching, RaftCluster};
use forty::simnet::{NetConfig, NodeId, Time};

const SEEDS: u64 = 8;
const CMDS: usize = 12;

/// A deterministic fault plan drawn from `seed`: one replica crashes at a
/// random time in the first 200 ms and restarts (or not) later.
struct Plan {
    victim: u32,
    crash_at: u64,
    restart_at: Option<u64>,
}

fn plan(seed: u64, n_replicas: u32) -> Plan {
    let mut rng = ChaCha20Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    Plan {
        victim: rng.gen_range(0..n_replicas),
        crash_at: rng.gen_range(1_000..200_000),
        restart_at: if rng.gen_bool(0.5) {
            Some(rng.gen_range(250_000..500_000))
        } else {
            None
        },
    }
}

#[test]
fn multipaxos_sweep_single_crash_schedules() {
    for seed in 0..SEEDS {
        let p = plan(seed, 5);
        let mut c = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 5 },
            2,
            CMDS,
            NetConfig::lan(),
            seed,
        );
        c.sim.crash_at(NodeId(p.victim), Time(p.crash_at));
        if let Some(r) = p.restart_at {
            c.sim.restart_at(NodeId(p.victim), Time(r));
        }
        let done = c.run(Time::from_secs(120));
        assert!(
            done,
            "seed {seed}: plan crash n{} at {}µs restart {:?} — only {} completed",
            p.victim,
            p.crash_at,
            p.restart_at,
            c.total_completed()
        );
        // Safety: logs agree on the common applied prefix (panics inside
        // on violation).
        c.check_log_consistency();
    }
}

#[test]
fn raft_sweep_single_crash_schedules() {
    for seed in 0..SEEDS {
        let p = plan(seed.wrapping_add(100), 5);
        let mut c = RaftCluster::new(5, 2, CMDS, NetConfig::lan(), seed);
        c.sim.crash_at(NodeId(p.victim), Time(p.crash_at));
        if let Some(r) = p.restart_at {
            c.sim.restart_at(NodeId(p.victim), Time(r));
        }
        let done = c.run(Time::from_secs(120));
        assert!(
            done,
            "seed {seed}: crash n{} at {}µs restart {:?} — only {} completed",
            p.victim,
            p.crash_at,
            p.restart_at,
            c.total_completed()
        );
        c.check_log_matching();
    }
}

#[test]
fn raft_sweep_double_crash_with_restart_keeps_safety() {
    // Two crashes (= f for n=5) with staggered restarts: liveness may come
    // and go, but Log Matching must hold at every end state.
    for seed in 0..SEEDS {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let v1 = rng.gen_range(0..5u32);
        let v2 = (v1 + 1 + rng.gen_range(0..4u32)) % 5;
        let mut c = RaftCluster::new(5, 1, CMDS, NetConfig::lan(), seed + 500);
        c.sim.crash_at(NodeId(v1), Time(rng.gen_range(1_000..100_000)));
        c.sim.crash_at(NodeId(v2), Time(rng.gen_range(100_000..200_000)));
        c.sim
            .restart_at(NodeId(v1), Time(rng.gen_range(300_000..400_000)));
        let done = c.run(Time::from_secs(120));
        assert!(done, "seed {seed}: v1=n{v1} v2=n{v2}");
        c.check_log_matching();
    }
}

#[test]
fn pbft_sweep_backup_crash_schedules() {
    for seed in 0..SEEDS {
        let mut rng = ChaCha20Rng::seed_from_u64(seed ^ 0xBF7);
        // Crash any replica (primary included) at a random instant.
        let victim = rng.gen_range(0..4u32);
        let at = rng.gen_range(1_000..150_000u64);
        let mut c = PbftCluster::new(4, 1, CMDS, NetConfig::lan(), seed);
        c.sim.crash_at(NodeId(victim), Time(at));
        let done = c.run(Time::from_secs(120));
        assert!(
            done,
            "seed {seed}: crash n{victim} at {at}µs — only {} completed",
            c.total_completed()
        );
        c.check_state_agreement();
    }
}

#[test]
fn lossy_network_sweep() {
    // 3% message loss on top of a follower crash: retries must win.
    for seed in 0..4 {
        let mut c = RaftCluster::new(
            3,
            1,
            8,
            NetConfig::lan().with_drop_prob(0.03),
            seed,
        );
        c.sim.crash_at(NodeId(2), Time(50_000));
        assert!(c.run(Time::from_secs(180)), "seed {seed}");
        c.check_log_matching();
    }
}
