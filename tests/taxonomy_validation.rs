//! Experiment T1's backbone: the taxonomy cards' *claims* cross-checked
//! against *measured* behaviour of the implementations.

use forty::bft::hotstuff::{HsCluster, HsConfig};
use forty::bft::minbft::MinCluster;
use forty::bft::pbft::PbftCluster;
use forty::consensus_core::taxonomy::{all_cards, card, ComplexityClass, NodeBound};
use forty::consensus_core::QuorumSpec;
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::{NetConfig, Time};

/// Measures messages/command at two cluster sizes and classifies growth.
fn growth_class(measure: impl Fn(usize) -> f64, n_small: usize, n_large: usize) -> ComplexityClass {
    let small = measure(n_small);
    let large = measure(n_large);
    let ratio = large / small;
    let linear_ratio = n_large as f64 / n_small as f64;
    // Midpoint between linear and quadratic growth separates the classes.
    if ratio < linear_ratio * 1.7 {
        ComplexityClass::Linear
    } else {
        ComplexityClass::Quadratic
    }
}

#[test]
fn registry_covers_all_surveyed_protocols() {
    let names: Vec<&str> = all_cards().iter().map(|c| c.name).collect();
    for expected in [
        "Paxos",
        "Raft",
        "Fast Paxos",
        "Flexible Paxos",
        "2PC",
        "3PC",
        "PBFT",
        "Zyzzyva",
        "HotStuff",
        "MinBFT",
        "CheapBFT",
        "XFT",
        "UpRight",
        "SeeMoRe",
        "PoW (Bitcoin)",
        "PoS",
    ] {
        assert!(names.contains(&expected), "missing card: {expected}");
    }
}

#[test]
fn paxos_node_bound_is_necessary_and_sufficient() {
    let c = card("Paxos").unwrap();
    assert_eq!(c.nodes, NodeBound::TwoFPlusOne);
    // Sufficient: n = 3 = 2f+1 completes with one crashed replica.
    let mut ok = MultiPaxosCluster::new(QuorumSpec::Majority { n: 3 }, 1, 5, NetConfig::lan(), 1);
    ok.sim.crash_at(forty::simnet::NodeId(2), Time::ZERO);
    assert!(ok.run(Time::from_secs(30)));
    // Necessary: with two of three replicas down there is no majority;
    // nothing commits (and nothing unsafe happens).
    let mut stuck =
        MultiPaxosCluster::new(QuorumSpec::Majority { n: 3 }, 1, 5, NetConfig::lan(), 2);
    stuck.sim.crash_at(forty::simnet::NodeId(1), Time::ZERO);
    stuck.sim.crash_at(forty::simnet::NodeId(2), Time::ZERO);
    assert!(!stuck.run(Time::from_millis(500)));
    assert_eq!(stuck.total_completed(), 0);
}

#[test]
fn paxos_measured_complexity_is_linear() {
    let measure = |n: usize| {
        let mut c = MultiPaxosCluster::new(QuorumSpec::Majority { n }, 1, 15, NetConfig::lan(), 5);
        assert!(c.run(Time::from_secs(30)));
        c.sim.metrics().sent as f64 / 15.0
    };
    assert_eq!(
        growth_class(measure, 3, 9),
        card("Paxos").unwrap().complexity
    );
}

#[test]
fn raft_measured_complexity_is_linear() {
    let measure = |n: usize| {
        let mut c = RaftCluster::new(n, 1, 15, NetConfig::lan(), 6);
        assert!(c.run(Time::from_secs(30)));
        c.sim.metrics().sent as f64 / 15.0
    };
    assert_eq!(
        growth_class(measure, 3, 9),
        card("Raft").unwrap().complexity
    );
}

#[test]
fn pbft_measured_complexity_is_quadratic() {
    let measure = |n: usize| {
        let mut c = PbftCluster::new(n, 1, 10, NetConfig::lan(), 7);
        assert!(c.run(Time::from_secs(60)));
        c.sim.metrics().sent as f64 / 10.0
    };
    assert_eq!(
        growth_class(measure, 4, 10),
        card("PBFT").unwrap().complexity
    );
}

#[test]
fn hotstuff_measured_complexity_is_linear_despite_bft() {
    let measure = |n: usize| {
        let mut c = HsCluster::new(HsConfig::rotating(n), 1, 10, NetConfig::lan(), 8);
        assert!(c.run(Time::from_secs(60)));
        c.sim.metrics().sent as f64 / 10.0
    };
    assert_eq!(
        growth_class(measure, 4, 10),
        card("HotStuff").unwrap().complexity
    );
}

#[test]
fn node_bounds_match_minimum_working_cluster_sizes() {
    // PBFT card says 3f+1: n = 4 works with f = 1 crash.
    let mut pbft = PbftCluster::new(4, 1, 5, NetConfig::lan(), 9);
    pbft.sim.crash_at(forty::simnet::NodeId(3), Time::ZERO);
    assert!(pbft.run(Time::from_secs(30)));

    // MinBFT card says 2f+1: n = 3 works with f = 1 crash — fewer
    // replicas than PBFT for the same fault bound, thanks to the USIG.
    let mut minbft = MinCluster::new(3, 1, 5, NetConfig::lan(), 9);
    minbft.sim.crash_at(forty::simnet::NodeId(2), Time::ZERO);
    assert!(minbft.run(Time::from_secs(30)));

    let pbft_n = card("PBFT").unwrap().nodes.required(1, 0).unwrap();
    let minbft_n = card("MinBFT").unwrap().nodes.required(1, 0).unwrap();
    assert_eq!(pbft_n, 4);
    assert_eq!(minbft_n, 3);
}

#[test]
fn hotstuff_phase_count_is_seven_on_the_wire() {
    // The card's phase count against the distinct one-way exchanges (message
    // kinds) a quiet run sends per committed command.
    let mut c = HsCluster::new(HsConfig::rotating(4), 1, 3, NetConfig::lan(), 10);
    assert!(c.run(Time::from_secs(30)));
    let m = c.sim.metrics();
    let phases = [
        "prepare",
        "prepare-vote",
        "pre-commit",
        "pre-commit-vote",
        "commit",
        "commit-vote",
        "decide",
    ];
    for p in phases {
        assert!(m.kind(p) > 0, "phase {p} missing");
    }
    let claimed = card("HotStuff").unwrap().phases;
    assert_eq!(phases.len().to_string(), claimed);
}
