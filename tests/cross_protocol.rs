//! Cross-protocol integration: the same workload shape on every SMR
//! protocol in the zoo, under identical network conditions — the data
//! behind experiment T5's "who wins, by roughly what factor".

use forty::bft::hotstuff::{HsCluster, HsConfig};
use forty::bft::minbft::MinCluster;
use forty::bft::pbft::{PbftCluster, StateAgreement};
use forty::bft::zyzzyva::ZyzCluster;
use forty::consensus_core::QuorumSpec;
use forty::paxos::{LogConsistency, MultiPaxosCluster};
use forty::raft::{LogMatching, RaftCluster};
use forty::simnet::{NetConfig, Time};

const CMDS: usize = 20;
const SEED: u64 = 99;

struct Measured {
    name: &'static str,
    messages_per_cmd: f64,
    mean_latency: f64,
}

fn measure_all() -> Vec<Measured> {
    let mut out = Vec::new();

    let mut mp = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 3 },
        3,
        1,
        CMDS,
        NetConfig::lan(),
        SEED,
    );
    assert!(mp.run(Time::from_secs(30)), "multi-paxos");
    mp.check_log_consistency();
    out.push(Measured {
        name: "multi-paxos",
        messages_per_cmd: mp.sim.metrics().sent as f64 / CMDS as f64,
        mean_latency: mp.latencies().mean(),
    });

    let mut rf = RaftCluster::new(3, 1, CMDS, NetConfig::lan(), SEED);
    assert!(rf.run(Time::from_secs(30)), "raft");
    rf.check_log_matching();
    out.push(Measured {
        name: "raft",
        messages_per_cmd: rf.sim.metrics().sent as f64 / CMDS as f64,
        mean_latency: rf.latencies().mean(),
    });

    let mut pb = PbftCluster::new(4, 1, CMDS, NetConfig::lan(), SEED);
    assert!(pb.run(Time::from_secs(30)), "pbft");
    pb.check_state_agreement();
    out.push(Measured {
        name: "pbft",
        messages_per_cmd: pb.sim.metrics().sent as f64 / CMDS as f64,
        mean_latency: pb.latencies().mean(),
    });

    let mut hs = HsCluster::new(HsConfig::rotating(4), CMDS, 1, NetConfig::lan(), SEED);
    assert!(hs.run(Time::from_secs(30)), "hotstuff");
    out.push(Measured {
        name: "hotstuff",
        messages_per_cmd: hs.sim.metrics().sent as f64 / CMDS as f64,
        mean_latency: hs.client().latencies.mean(),
    });

    let mut zy = ZyzCluster::new(4, CMDS, NetConfig::lan(), SEED);
    assert!(zy.run(Time::from_secs(30)), "zyzzyva");
    out.push(Measured {
        name: "zyzzyva",
        messages_per_cmd: zy.sim.metrics().sent as f64 / CMDS as f64,
        mean_latency: zy.client().latencies.mean(),
    });

    let mut mb = MinCluster::new(3, CMDS, NetConfig::lan(), SEED);
    assert!(mb.run(Time::from_secs(30)), "minbft");
    out.push(Measured {
        name: "minbft",
        messages_per_cmd: mb.sim.metrics().sent as f64 / CMDS as f64,
        mean_latency: mb.client().latencies.mean(),
    });

    out
}

fn get<'a>(rows: &'a [Measured], name: &str) -> &'a Measured {
    rows.iter().find(|r| r.name == name).expect("row")
}

#[test]
fn every_protocol_completes_the_common_workload() {
    let rows = measure_all();
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!(r.messages_per_cmd > 0.0, "{}", r.name);
        assert!(r.mean_latency > 0.0, "{}", r.name);
    }
}

#[test]
fn pbft_costs_more_messages_than_every_leader_centric_protocol() {
    let rows = measure_all();
    let pbft = get(&rows, "pbft").messages_per_cmd;
    for name in ["multi-paxos", "raft", "zyzzyva", "minbft"] {
        let other = get(&rows, name).messages_per_cmd;
        assert!(
            pbft > other,
            "PBFT ({pbft:.1}) should exceed {name} ({other:.1})"
        );
    }
}

#[test]
fn zyzzyva_fault_free_latency_beats_pbft() {
    // Speculation: 3 one-way delays vs PBFT's 5.
    let rows = measure_all();
    let zyz = get(&rows, "zyzzyva").mean_latency;
    let pbft = get(&rows, "pbft").mean_latency;
    assert!(
        zyz < pbft,
        "Zyzzyva ({zyz:.0}µs) should beat PBFT ({pbft:.0}µs) fault-free"
    );
}

#[test]
fn crash_tolerant_protocols_use_fewer_messages_than_bft() {
    let rows = measure_all();
    let paxos = get(&rows, "multi-paxos").messages_per_cmd;
    let pbft = get(&rows, "pbft").messages_per_cmd;
    assert!(
        pbft > 1.5 * paxos,
        "BFT overhead expected: pbft {pbft:.1} vs paxos {paxos:.1}"
    );
}

#[test]
fn minbft_with_trusted_component_runs_fewer_replicas_and_messages_than_pbft() {
    let rows = measure_all();
    let minbft = get(&rows, "minbft").messages_per_cmd;
    let pbft = get(&rows, "pbft").messages_per_cmd;
    // Same f = 1, but 3 replicas instead of 4 and 2 linear phases
    // instead of 3 (one quadratic).
    assert!(
        minbft < pbft,
        "minbft {minbft:.1} should undercut pbft {pbft:.1}"
    );
}
