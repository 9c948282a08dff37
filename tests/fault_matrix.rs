//! Fault-injection matrix across the zoo: each protocol against the fault
//! classes its card claims to tolerate — and against ones it doesn't.
//!
//! Safety assertions go through the nemesis checker API: the same harvests
//! (decided entries, state digests, client histories, transaction states)
//! and the same checks (agreement, validity, integrity, state-machine
//! consistency, linearizability, atomic commit) the randomized sweeps use,
//! here applied to hand-crafted worst-case schedules.

use forty::agreement::flp::{run_voting, Scheduler};
use forty::atomic_commit::three_phase::{self, CrashPoint};
use forty::atomic_commit::{paxos_commit, TxnState};
use forty::bft::pbft::PbftCluster;
use forty::bft::xft::is_anarchy;
use forty::consensus_core::{ClusterDriver, QuorumSpec};
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::{DropAll, NetConfig, NodeId, Time};
use nemesis::checker::check_atomic_commit;
use nemesis::{execute_plan, harvest, smr_safety, FaultAction, FaultPlan};

#[test]
fn paxos_survives_f_crashes_but_not_f_plus_one() {
    let mut ok = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 5 },
        1,
        10,
        NetConfig::lan(),
        1,
    );
    // The crash schedule is a nemesis plan rather than raw sim calls — the
    // same vocabulary the randomized sweeps draw from.
    let plan = FaultPlan {
        actions: vec![
            FaultAction::Crash { node: 3, at: 0 },
            FaultAction::Crash { node: 4, at: 0 },
        ],
    };
    execute_plan(&mut ok.sim, &plan, 1_000, 0.0, |_, _| None).expect("within budget");
    assert!(ok.run(Time::from_secs(30)), "f = 2 of 5 must be fine");
    let (entries, digests) = harvest(&ok);
    let issued = ok.issued();
    assert_eq!(smr_safety(&entries, &digests, &ok.history(), Some(&issued)), []);

    let mut dead = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 5 },
        1,
        10,
        NetConfig::lan(),
        2,
    );
    for id in [2u32, 3, 4] {
        dead.sim.crash_at(NodeId(id), Time::ZERO);
    }
    assert!(!dead.run(Time::from_millis(500)), "f+1 crashes must stall");
    assert_eq!(dead.total_completed(), 0, "but never decide wrongly");
    let (entries, digests) = harvest(&dead);
    let issued = dead.issued();
    assert_eq!(smr_safety(&entries, &digests, &dead.history(), Some(&issued)), []);
}

#[test]
fn raft_recovers_from_cascading_leader_crashes() {
    let mut c = RaftCluster::new(5, 1, 15, NetConfig::lan(), 3);
    // Kill each elected leader in sequence (two leaders may die; 2 = f).
    c.sim.run_until(Time::from_millis(100));
    if let Some(l1) = c.leader() {
        let at = c.sim.now() + 1;
        c.sim.crash_at(l1, at);
    }
    c.sim.run_until(Time::from_millis(500));
    if let Some(l2) = c.leader() {
        let at = c.sim.now() + 1;
        c.sim.crash_at(l2, at);
    }
    assert!(c.run(Time::from_secs(60)), "completed {}", c.total_completed());
    let (entries, digests) = harvest(&c);
    let issued = c.issued();
    assert_eq!(smr_safety(&entries, &digests, &c.history(), Some(&issued)), []);
}

#[test]
fn pbft_tolerates_a_fully_silent_byzantine_replica() {
    let mut c = PbftCluster::new(4, 1, 10, NetConfig::lan(), 4);
    c.sim.set_filter(NodeId(2), Box::new(DropAll));
    assert!(c.run(Time::from_secs(30)));
    let (entries, digests) = harvest(&c);
    // `issued: None` — no validity check, the sim crypto has no client
    // signatures (see `nemesis::smr_safety`).
    assert_eq!(smr_safety(&entries, &digests, &c.history(), None), []);
}

#[test]
fn pbft_stalls_beyond_its_byzantine_bound() {
    // Two silent replicas out of four exceeds f = 1: quorums of 2f+1 = 3
    // can no longer form. Safety holds (nothing commits), liveness is lost.
    let mut c = PbftCluster::new(4, 1, 5, NetConfig::lan(), 5);
    c.sim.set_filter(NodeId(2), Box::new(DropAll));
    c.sim.set_filter(NodeId(3), Box::new(DropAll));
    assert!(!c.run(Time::from_secs(2)));
    assert_eq!(c.total_completed(), 0);
    let (entries, digests) = harvest(&c);
    assert_eq!(smr_safety(&entries, &digests, &c.history(), None), []);
}

#[test]
fn two_pc_blocks_where_three_pc_terminates() {
    // Same fault (coordinator dies after unanimous yes votes), two
    // protocols, opposite outcomes — the tutorial's core commitment story.
    // 2PC is Paxos Commit at F = 0; its participants are nodes 1–3.
    let votes = [true, true, true];
    let mut blocked = paxos_commit::build_with_crash(
        &votes,
        0,
        paxos_commit::CrashPoint::AfterVotes,
        NetConfig::lan(),
        6,
    );
    blocked.run_until(Time::from_secs(2));
    let participants = paxos_commit::participant_states(&blocked);
    assert!(participants.iter().all(|s| *s == TxnState::Ready));
    let states: Vec<(u32, TxnState)> = (1..).zip(participants).collect();
    assert_eq!(check_atomic_commit(&votes, &states), []);

    let mut free = three_phase::build(&votes, CrashPoint::AfterVotes, NetConfig::lan(), 6);
    free.run_until(Time::from_secs(3));
    assert!(three_phase::participant_states(&free)
        .iter()
        .all(|s| s.is_final()));
    let states: Vec<(u32, TxnState)> = free
        .nodes()
        .map(|(id, p)| {
            let s = match p {
                three_phase::ThreePcProc::Coordinator(c) => c.state,
                three_phase::ThreePcProc::Participant(p) => p.state,
            };
            (id.0, s)
        })
        .collect();
    assert_eq!(check_atomic_commit(&votes, &states), []);
}

#[test]
fn partitions_respect_quorum_boundaries() {
    // Majority side keeps committing; minority side stalls; heal unifies.
    // The partition is expressed as a nemesis plan: group {0, 1} against
    // everyone else (replicas 2–4 and the client), healed at 800ms.
    let mut c = RaftCluster::new(5, 1, 20, NetConfig::lan(), 7);
    let plan = FaultPlan {
        actions: vec![
            FaultAction::Partition {
                at: 51_000,
                group: vec![0, 1],
            },
            FaultAction::Heal { at: 800_000 },
        ],
    };
    execute_plan(&mut c.sim, &plan, 900_000, 0.0, |_, _| None).expect("within budget");
    assert!(c.run(Time::from_secs(60)));
    let (entries, digests) = harvest(&c);
    let issued = c.issued();
    assert_eq!(smr_safety(&entries, &digests, &c.history(), Some(&issued)), []);
}

#[test]
fn flp_adversary_beats_determinism_at_any_horizon() {
    for horizon in [100usize, 2_000] {
        assert!(!run_voting(6, Scheduler::Adversarial, horizon).decided);
    }
    assert!(run_voting(6, Scheduler::Fair, 100).decided);
}

#[test]
fn xft_anarchy_boundary_is_sharp() {
    let n = 5; // threshold ⌊(n−1)/2⌋ = 2
    // Walk the fault lattice; anarchy iff malice present and total > 2.
    for c in 0..=3usize {
        for m in 0..=3usize {
            for p in 0..=3usize {
                let expected = m > 0 && c + m + p > 2;
                assert_eq!(is_anarchy(c, m, p, n), expected, "c={c} m={m} p={p}");
            }
        }
    }
}
