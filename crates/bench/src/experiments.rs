//! The experiment functions, one per table/figure of the tutorial.

use std::collections::BTreeSet;

use serde_json::{json, Value};

use agreement::flp::{run_voting, Scheduler};
use agreement::oral_messages::{om, ConsistentLiar, ParitySplit, ATTACK};
use agreement::interactive_consistency;
use atomic_commit::three_phase::{self, CrashPoint};
use atomic_commit::two_phase;

use bft::cheapbft::CheapCluster;
use bft::hotstuff::{ClientWindow, HsCluster, HsConfig};
use bft::minbft::MinCluster;
use bft::pbft::{PbftCluster, CHECKPOINT_INTERVAL};
use bft::seemore::{Mode, SeeMoReConfig, SmCluster};
use bft::upright::UpRightConfig;
use bft::xft::{is_anarchy, XftCluster};
use bft::zyzzyva::ZyzCluster;
use blockchain::attacks::{double_spend_success_rate, nakamoto_catch_up, selfish_mining, selfish_threshold};
use blockchain::network::run_mining_network;
use blockchain::permissioned::run_permissioned;
use blockchain::pos::{run_pos, PosMode};
use blockchain::pow::{expected_hashes, mine_block, MiningParams};
use blockchain::{Blockchain, Transaction};
use consensus_core::cnc::{CncConfig, CncEngine};
use consensus_core::driver::{ClusterDriver, DriverConfig};
use consensus_core::taxonomy::all_cards;
use consensus_core::txn::TxnDecision;
use consensus_core::QuorumSpec;
use store::{RouterCrashPoint, Store, StoreConfig, ROUTER_BASE};
use paxos::fast;
use paxos::flexible::run_flexible;
use paxos::livelock::run_duel;
use paxos::{MultiPaxosCluster, PaxosNode, RetryPolicy};
use raft::RaftCluster;
use simnet::{DelayModel, NetConfig, NodeId, Sim, Time, TraceEvent};

use crate::artifact::{table, Artifact};

/// One regenerated table or figure.
pub struct Report {
    /// Experiment id (e.g. `"f11"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Pretty-printed lines.
    pub lines: Vec<String>,
    /// Machine-readable record (written to JSON by the harness).
    pub data: Value,
}

fn fixed_net(us: u64) -> NetConfig {
    NetConfig::synchronous().with_delay(DelayModel::Fixed(us))
}

// ───────────────────────── T1: the taxonomy table ─────────────────────────

/// T1 — protocol cards vs measured node bounds and message growth.
pub fn t1_taxonomy() -> Report {
    let mut lines = vec![format!(
        "{:<16} {:<22} {:<10} {:<12} {:<7} {:<10} {:<8}",
        "protocol", "synchrony", "failure", "strategy", "nodes", "phases", "msgs"
    )];
    let mut rows = Vec::new();
    for card in all_cards() {
        lines.push(format!(
            "{:<16} {:<22} {:<10} {:<12} {:<7} {:<10} {:<8}",
            card.name,
            format!("{:?}", card.synchrony),
            format!("{:?}", card.failure),
            format!("{:?}", card.strategy),
            card.nodes.to_string(),
            card.phases,
            card.complexity.to_string(),
        ));
        rows.push(json!({
            "name": card.name,
            "nodes": card.nodes.to_string(),
            "phases": card.phases,
            "complexity": card.complexity.to_string(),
        }));
    }
    // Measured growth classes for the four flagship protocols.
    let measure_paxos = |n: usize| {
        let mut c =
            MultiPaxosCluster::new(QuorumSpec::Majority { n }, 1, 10, NetConfig::lan(), 1);
        assert!(c.run(Time::from_secs(30)));
        c.sim.metrics().sent as f64 / 10.0
    };
    let measure_pbft = |n: usize| {
        let mut c = PbftCluster::new(n, 1, 10, NetConfig::lan(), 1);
        assert!(c.run(Time::from_secs(60)));
        c.sim.metrics().sent as f64 / 10.0
    };
    let measure_hs = |n: usize| {
        let mut c = HsCluster::new(HsConfig::rotating(n), 1, 10, NetConfig::lan(), 1);
        assert!(c.run(Time::from_secs(60)));
        c.sim.metrics().sent as f64 / 10.0
    };
    let (p4, p10) = (measure_paxos(4), measure_paxos(10));
    let (b4, b10) = (measure_pbft(4), measure_pbft(10));
    let (h4, h10) = (measure_hs(4), measure_hs(10));
    lines.push(String::new());
    lines.push("measured messages/command (n=4 → n=10; linear ratio would be 2.5):".into());
    lines.push(format!(
        "  Multi-Paxos {:.1} → {:.1}  (×{:.2})   PBFT {:.1} → {:.1}  (×{:.2})   HotStuff {:.1} → {:.1}  (×{:.2})",
        p4, p10, p10 / p4, b4, b10, b10 / b4, h4, h10, h10 / h4
    ));
    Report {
        id: "t1",
        title: "Taxonomy: protocol cards, with measured message growth",
        lines,
        data: json!({"cards": rows, "measured_growth": json!({
            "paxos": p10 / p4, "pbft": b10 / b4, "hotstuff": h10 / h4 })}),
    }
}

// ───────────────────────── Paxos family ─────────────────────────

/// F1 — single-decree Paxos message flow.
pub fn f1_paxos_flow() -> Report {
    let mut sim: Sim<PaxosNode> = Sim::new(fixed_net(500), 1);
    for _ in 0..5 {
        sim.add_node(PaxosNode::acceptor(5));
    }
    *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 42, 0, RetryPolicy::Never);
    sim.record_trace(true);
    sim.run_until(Time::from_secs(1));
    let mut lines: Vec<String> = sim
        .trace()
        .iter()
        .filter(|t| t.event == TraceEvent::Deliver)
        .map(|t| format!("  {}", t.render()))
        .collect();
    lines.truncate(20);
    let m = sim.metrics();
    lines.push(format!(
        "phases on the wire: prepare={} ack={} accept={} accepted={} decide={}",
        m.kind("prepare"),
        m.kind("ack"),
        m.kind("accept"),
        m.kind("accepted"),
        m.kind("decide")
    ));
    Report {
        id: "f1",
        title: "Paxos message flow (prepare/ack/accept/accepted/decide)",
        data: json!({"prepare": m.kind("prepare"), "accept": m.kind("accept"),
                     "decide": m.kind("decide")}),
        lines,
    }
}

/// F2 — leader crash after acceptance: the value survives.
pub fn f2_leader_crash() -> Report {
    let mut sim: Sim<PaxosNode> = Sim::new(NetConfig::lan(), 4);
    for _ in 0..5 {
        sim.add_node(PaxosNode::acceptor(5));
    }
    *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, 111, 0, RetryPolicy::Never);
    *sim.node_mut(NodeId(1)) = PaxosNode::proposer(5, 222, 20_000, RetryPolicy::Fixed(10_000));
    sim.crash_at(NodeId(0), Time(2_000));
    sim.run_until(Time::from_secs(2));
    let decisions: BTreeSet<u64> = sim.nodes().filter_map(|(_, n)| n.decided).collect();
    let lines = vec![
        "value v=111 accepted by a majority; leader crashes before disseminating".into(),
        "second proposer (v=222) must discover and re-propose 111".into(),
        format!("decisions across the cluster: {decisions:?} (exactly one value)"),
    ];
    Report {
        id: "f2",
        title: "Leader crash: a chosen value is recovered by the new leader",
        data: json!({"unique_decisions": decisions.len(),
                     "decided": decisions.iter().next()}),
        lines,
    }
}

/// F3 — the livelock figure and its randomized fix.
pub fn f3_livelock() -> Report {
    let stuck = run_duel(RetryPolicy::Fixed(0), 200, 1);
    let fixed = run_duel(
        RetryPolicy::Randomized {
            min: 500,
            max: 5_000,
        },
        200,
        1,
    );
    let lines = vec![
        format!(
            "deterministic retries: decided={:?}, attempts {}+{}, {} prepares in 200ms — livelock",
            stuck.decided, stuck.attempts_p1, stuck.attempts_p2, stuck.prepares
        ),
        format!(
            "randomized backoff  : decided={:?} at {:?}µs after {}+{} attempts",
            fixed.decided, fixed.decided_at, fixed.attempts_p1, fixed.attempts_p2
        ),
    ];
    Report {
        id: "f3",
        title: "Duelling proposers livelock; randomized restart delay fixes it",
        data: json!({"fixed_decided": stuck.decided, "randomized_decided": fixed.decided,
                     "livelock_attempts": stuck.attempts_p1 + stuck.attempts_p2}),
        lines,
    }
}

/// F4 — Multi-Paxos: phase 1 only on leader change.
pub fn f4_multipaxos() -> Report {
    let mut c = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 5 },
        2,
        50,
        NetConfig::lan(),
        2,
    );
    c.sim.run_until(Time::from_millis(60));
    let leader = c.leader();
    if let Some(l) = leader {
        let at = c.sim.now() + 1;
        c.sim.crash_at(l, at);
    }
    assert!(c.run(Time::from_secs(60)));
    let m = c.sim.metrics();
    let lines = vec![
        format!(
            "100 commands, one leader crash: prepare={} (view changes only), accept={}",
            m.kind("prepare"),
            m.kind("accept")
        ),
        format!(
            "mean commit latency {:.2}ms over {} commands",
            c.latencies().mean() / 1_000.0,
            c.total_completed()
        ),
    ];
    Report {
        id: "f4",
        title: "Multi-Paxos: phase 1 runs only on leader change",
        data: json!({"prepares": m.kind("prepare"), "accepts": m.kind("accept"),
                     "completed": c.total_completed()}),
        lines,
    }
}

/// F5 — Fast Paxos: 2 delays fast path; collisions fall back.
pub fn f5_fast_paxos() -> Report {
    // Solo client: fast path.
    let mut sim = fast::build(4, &[(7, 2_000)], fixed_net(500), 1);
    sim.run_until(Time::from_secs(1));
    let solo_at = match sim.node(NodeId(0)) {
        fast::FastProc::Replica(r) => r.decided_at.map(|t| t.as_micros() - 2_000),
        _ => None,
    };
    // Contention: collision rate over seeds.
    let mut collisions = 0;
    let runs = 20;
    for seed in 0..runs {
        let clients: Vec<(u64, u64)> = (0..3).map(|i| (i + 1, 1_000)).collect();
        let mut sim = fast::build(4, &clients, NetConfig::lan(), 100 + seed);
        sim.run_until(Time::from_secs(1));
        if let fast::FastProc::Replica(r) = sim.node(NodeId(0)) {
            if r.took_classic_round {
                collisions += 1;
            }
        }
    }
    let lines = vec![
        format!(
            "fast round, one client: coordinator learns after {:?}µs = 2 one-way delays",
            solo_at
        ),
        "(classic Paxos needs 3: request → accept → accepted)".into(),
        format!("3 concurrent clients: {collisions}/{runs} runs collided → classic round recovery"),
    ];
    Report {
        id: "f5",
        title: "Fast Paxos: 2 message delays, collision → classic round",
        data: json!({"fast_path_delays_us": solo_at, "collision_rate": collisions as f64 / runs as f64}),
        lines,
    }
}

/// F6 — Flexible Paxos quorum configurations.
pub fn f6_flexible() -> Report {
    let mut lines = vec![format!(
        "{:<26} {:>10} {:>14} {:>10}",
        "quorum config", "completed", "mean lat (µs)", "messages"
    )];
    let mut rows = Vec::new();
    for (label, spec) in [
        ("majority |Q1|=|Q2|=4 (n=7)", QuorumSpec::Majority { n: 7 }),
        ("flexible |Q1|=6,|Q2|=2", QuorumSpec::Flexible { n: 7, q1: 6, q2: 2 }),
        ("flexible |Q1|=7,|Q2|=1", QuorumSpec::Flexible { n: 7, q1: 7, q2: 1 }),
        ("grid 2×3 (row/col)", QuorumSpec::Grid { rows: 2, cols: 3 }),
    ] {
        let r = run_flexible(spec, 25, 3);
        lines.push(format!(
            "{:<26} {:>10} {:>14.0} {:>10}",
            label,
            if r.completed { 25 } else { 0 },
            r.mean_latency,
            r.messages
        ));
        rows.push(json!({"config": label, "latency_us": r.mean_latency, "messages": r.messages}));
    }
    lines.push("smaller replication quorums cut commit latency; |Q1|+|Q2|>n keeps safety".into());
    Report {
        id: "f6",
        title: "Flexible Paxos: decoupled election/replication quorums",
        data: json!(rows),
        lines,
    }
}

// ───────────────────────── Commitment ─────────────────────────

/// F7 — 2PC commit, abort, and the blocking window.
pub fn f7_two_pc() -> Report {
    let mut commit = two_phase::build(&[true, true, true], NetConfig::lan(), 1);
    commit.run_until(Time::from_secs(1));
    let committed = two_phase::participant_states(&commit);

    let mut abort = two_phase::build(&[true, false, true], NetConfig::lan(), 1);
    abort.run_until(Time::from_secs(1));
    let aborted = two_phase::participant_states(&abort);

    let mut blocked = two_phase::build_with_crash(
        &[true, true, true],
        two_phase::CrashPoint::AfterVotes,
        NetConfig::lan(),
        1,
    );
    blocked.run_until(Time::from_secs(2));
    let stuck = two_phase::participant_states(&blocked);

    let lines = vec![
        format!("unanimous yes → {committed:?}"),
        format!("one no vote  → {aborted:?}"),
        format!("coordinator dies inside the window → {stuck:?}  (blocked forever)"),
        format!(
            "messages for one commit: {} (3 linear phases)",
            commit.metrics().sent
        ),
    ];
    Report {
        id: "f7",
        title: "2PC: atomic commitment with a blocking window",
        data: json!({"blocked_states": stuck.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>(),
                     "messages_per_txn": commit.metrics().sent}),
        lines,
    }
}

/// F8 — 3PC terminates at every coordinator crash point.
pub fn f8_three_pc() -> Report {
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for (label, cp) in [
        ("no crash", CrashPoint::None),
        ("crash after votes", CrashPoint::AfterVotes),
        ("crash after pre-commit", CrashPoint::AfterPreCommit),
    ] {
        let mut sim = three_phase::build(&[true, true, true], cp, NetConfig::lan(), 2);
        sim.run_until(Time::from_secs(3));
        let states = three_phase::participant_states(&sim);
        let all_final = states.iter().all(|s| s.is_final());
        lines.push(format!(
            "{label:<24} → {states:?}  terminated: {all_final}"
        ));
        rows.push(json!({"scenario": label, "terminated": all_final,
                         "outcome": format!("{:?}", states[0])}));
    }
    lines.push("pre-committed ⇒ commit is recovered; earlier crashes ⇒ safe abort".into());
    Report {
        id: "f8",
        title: "3PC: non-blocking via pre-commit + termination protocol",
        data: json!(rows),
        lines,
    }
}

/// F9 — the C&C framework instances.
pub fn f9_cnc() -> Report {
    let mut lines = vec![format!(
        "{:<16} {:<50} {:>9}",
        "instance", "phases observed on the wire", "decision"
    )];
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("abstract Paxos", CncConfig::abstract_paxos(5)),
        ("abstract 2PC", CncConfig::abstract_2pc(5)),
        ("abstract 3PC", CncConfig::abstract_3pc(5)),
    ] {
        let mut sim: Sim<CncEngine> = Sim::new(NetConfig::lan(), 5);
        for _ in 0..5 {
            sim.add_node(CncEngine::new(cfg, 42, true));
        }
        sim.run_until(Time::from_secs(2));
        let phases: Vec<&str> = [
            ("elect-req", "LeaderElection"),
            ("discover", "ValueDiscovery"),
            ("propose", "FT-Agreement"),
            ("decide", "Decision"),
        ]
        .into_iter()
        .filter(|(k, _)| sim.metrics().kind(k) > 0)
        .map(|(_, label)| label)
        .collect();
        let decided = sim.nodes().find_map(|(_, n)| n.decided);
        lines.push(format!(
            "{:<16} {:<50} {:>9}",
            name,
            phases.join(" → "),
            format!("{decided:?}")
        ));
        rows.push(json!({"instance": name, "phases": phases}));
    }
    Report {
        id: "f9",
        title: "C&C framework: Leader Election → Value Discovery → FT-Agreement → Decision",
        data: json!(rows),
        lines,
    }
}

// ───────────────────────── Lower bounds & impossibility ─────────────────

/// T2 — PSL interactive consistency at and below the bound.
pub fn t2_psl() -> Report {
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for n in [3usize, 4, 7] {
        let values: Vec<u64> = (1..=n as u64).collect();
        let faulty: BTreeSet<usize> = [n - 1].into_iter().collect();
        let r = interactive_consistency(&values, &faulty, 1);
        lines.push(format!(
            "N={n} f=1 ({} ≥ 3f+1 = 4: {}): agreement={} validity={} ({} messages)",
            n,
            n >= 4,
            r.agreement,
            r.validity,
            r.messages
        ));
        rows.push(json!({"n": n, "agreement": r.agreement, "validity": r.validity}));
    }
    Report {
        id: "t2",
        title: "Pease–Shostak–Lamport: interactive consistency iff N ≥ 3f+1",
        data: json!(rows),
        lines,
    }
}

/// T3 — OM(m) Byzantine generals sweep.
pub fn t3_om() -> Report {
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for (n, m) in [(3usize, 1usize), (4, 1), (6, 2), (7, 2)] {
        // Worst over strategies, traitor placements, and commander values.
        let mut worst_ok = true;
        let mut msgs = 0;
        let traitor_sets: Vec<BTreeSet<usize>> = if m == 1 {
            (0..n).map(|t| BTreeSet::from([t])).collect()
        } else {
            vec![
                BTreeSet::from([0usize, 1]),
                BTreeSet::from([0, n - 1]),
                BTreeSet::from([1, 2]),
                BTreeSet::from([n - 2, n - 1]),
            ]
        };
        for traitors in traitor_sets {
            for value in [ATTACK, agreement::oral_messages::RETREAT] {
                for strat in 0..2 {
                    let out = if strat == 0 {
                        om(n, m, value, &traitors, &mut ParitySplit)
                    } else {
                        om(n, m, value, &traitors, &mut ConsistentLiar)
                    };
                    msgs = out.messages;
                    if !(out.ic1 && out.ic2) {
                        worst_ok = false;
                    }
                }
            }
        }
        lines.push(format!(
            "n={n} m={m} (n > 3m: {}): worst-case IC holds = {worst_ok}  ({} messages — O(nᵐ))",
            n > 3 * m,
            msgs
        ));
        rows.push(json!({"n": n, "m": m, "holds": worst_ok, "messages": msgs}));
    }
    Report {
        id: "t3",
        title: "OM(m): agreement iff n > 3m, at exponential message cost",
        data: json!(rows),
        lines,
    }
}

/// F10 — FLP adversary and its circumventions.
pub fn f10_flp() -> Report {
    let fair = run_voting(6, Scheduler::Fair, 10_000);
    let adv = run_voting(6, Scheduler::Adversarial, 10_000);
    let fd = run_voting(6, Scheduler::WithFailureDetector, 10_000);
    let benor = agreement::ben_or::run_ben_or(
        &[0, 1, 0, 1, 0, 1],
        2,
        &[],
        NetConfig::asynchronous(),
        3,
        Time::from_secs(60),
    );
    let benor_rounds = benor
        .nodes()
        .map(|(_, n)| n.rounds_used)
        .max()
        .unwrap_or(0);
    let benor_decided = benor.nodes().all(|(_, n)| n.decided.is_some());
    let lines = vec![
        format!("fair scheduler             : decided in {} rounds", fair.rounds),
        format!(
            "adversarial scheduler      : undecided after {} rounds (bivalent forever)",
            adv.rounds
        ),
        format!("with failure detector      : decided in {} rounds", fd.rounds),
        format!(
            "Ben-Or (randomized, async) : decided = {benor_decided} in ≤ {benor_rounds} rounds — determinism sacrificed, FLP circumvented"
        ),
    ];
    Report {
        id: "f10",
        title: "FLP: a bivalence-preserving adversary, and three escapes",
        data: json!({"fair_rounds": fair.rounds, "adversary_decided": adv.decided,
                     "benor_decided": benor_decided}),
        lines,
    }
}

// ───────────────────────── BFT family ─────────────────────────

/// F11 — PBFT: three phases, O(n²) growth.
pub fn f11_pbft() -> Report {
    let mut lines = vec![format!(
        "{:>3} {:>12} {:>12} {:>10} {:>14}",
        "n", "prepare", "commit", "msgs/cmd", "mean lat (µs)"
    )];
    let mut rows = Vec::new();
    for n in [4usize, 7, 10] {
        let mut c = PbftCluster::new(n, 1, 10, NetConfig::lan(), 4);
        assert!(c.run(Time::from_secs(60)));
        let m = c.sim.metrics();
        lines.push(format!(
            "{:>3} {:>12} {:>12} {:>10.1} {:>14.0}",
            n,
            m.kind("prepare"),
            m.kind("commit"),
            m.sent as f64 / 10.0,
            c.latencies().mean()
        ));
        rows.push(json!({"n": n, "msgs_per_cmd": m.sent as f64 / 10.0}));
    }
    lines.push("prepare/commit are all-to-all: messages/command grow quadratically".into());
    Report {
        id: "f11",
        title: "PBFT: pre-prepare/prepare/commit with O(n²) steady state",
        data: json!(rows),
        lines,
    }
}

/// F12 — PBFT view change and checkpoint GC.
pub fn f12_pbft_viewchange() -> Report {
    let mut c = PbftCluster::new(4, 1, 30, NetConfig::lan(), 5);
    c.sim.run_until(Time::from_millis(10));
    c.sim.crash_at(NodeId(0), Time::from_millis(11));
    assert!(c.run(Time::from_secs(60)));
    c.sim.run_for(300_000);
    let m = c.sim.metrics();
    let view = c.replicas().map(|r| r.view).max().unwrap();
    let low_water = c.replicas().map(|r| r.low_water).max().unwrap();
    let log_len = c.replicas().map(|r| r.log_len()).max().unwrap();
    let lines = vec![
        format!(
            "primary crashed at 11ms → view {view} installed; view-change msgs = {}, new-view msgs = {}",
            m.kind("view-change"),
            m.kind("new-view")
        ),
        format!(
            "checkpoints every {CHECKPOINT_INTERVAL} requests: stable checkpoint at {low_water}, retained log = {log_len} entries (of 30 executed)"
        ),
    ];
    Report {
        id: "f12",
        title: "PBFT view change (O(n³) worst case) and checkpoint GC",
        data: json!({"view": view, "view_change_msgs": m.kind("view-change"),
                     "stable_checkpoint": low_water, "retained_log": log_len}),
        lines,
    }
}

/// F13 — Zyzzyva's two cases.
pub fn f13_zyzzyva() -> Report {
    let mut fast = ZyzCluster::new(4, 1, 10, fixed_net(500), 6);
    assert!(fast.run(Time::from_secs(30)));
    let fast_path: usize = fast.clients().map(|c| c.fast_path).sum();
    let fast_line = format!(
        "fault-free : {} fast-path completions, min latency {}µs = 3 one-way delays",
        fast_path,
        fast.latencies().min()
    );
    let mut slow = ZyzCluster::new(4, 1, 10, fixed_net(500), 6);
    slow.sim.crash_at(NodeId(3), Time::ZERO);
    assert!(slow.run(Time::from_secs(30)));
    let cert_path: usize = slow.clients().map(|c| c.cert_path).sum();
    let slow_line = format!(
        "one backup down: {} commit-certificate (case 2) completions, min latency {}µs",
        cert_path,
        slow.latencies().min()
    );
    Report {
        id: "f13",
        title: "Zyzzyva: case 1 (3f+1 replies) vs case 2 (2f+1 + commit cert)",
        data: json!({"fast_path": fast_path, "cert_path": cert_path,
                     "fast_latency_us": fast.latencies().min(),
                     "cert_latency_us": slow.latencies().min()}),
        lines: vec![fast_line, slow_line],
    }
}

/// F14 — HotStuff: linear growth, 7 phases, pipeline ablation.
pub fn f14_hotstuff() -> Report {
    let mut lines = Vec::new();
    let mut per_cmd = Vec::new();
    for n in [4usize, 7, 10] {
        let mut c = HsCluster::new(HsConfig::rotating(n), 1, 10, NetConfig::lan(), 7);
        assert!(c.run(Time::from_secs(60)));
        let v = c.sim.metrics().sent as f64 / 10.0;
        per_cmd.push(v);
        lines.push(format!("n={n:<2} messages/command = {v:.1}"));
    }
    lines.push(format!(
        "growth ×{:.2} from n=4→10 (linear would be 2.5; PBFT measures ≈6)",
        per_cmd[2] / per_cmd[0]
    ));
    // Pipeline ablation.
    let run_pipe = |pipeline: bool| {
        let cfg = HsConfig {
            n_replicas: 4,
            rotate: false,
            pipeline,
        };
        let mut c = HsCluster::new(cfg, 1, 40, NetConfig::lan(), 7).with_client_window(4);
        assert!(c.run(Time::from_secs(60)));
        c.sim.now().as_micros()
    };
    let seq = run_pipe(false);
    let pipe = run_pipe(true);
    lines.push(format!(
        "pipeline ablation: 40 cmds sequential {:.1}ms vs chained {:.1}ms (×{:.2} speedup)",
        seq as f64 / 1_000.0,
        pipe as f64 / 1_000.0,
        seq as f64 / pipe as f64
    ));
    Report {
        id: "f14",
        title: "HotStuff: linear messages, leader rotation, pipelining",
        data: json!({"growth": per_cmd[2] / per_cmd[0], "pipeline_speedup": seq as f64 / pipe as f64}),
        lines,
    }
}

/// F15 — MinBFT: 2f+1 replicas, 2 phases.
pub fn f15_minbft() -> Report {
    let mut c = MinCluster::new(3, 1, 20, NetConfig::lan(), 8);
    assert!(c.run(Time::from_secs(30)));
    let m = c.sim.metrics();
    let mut p = PbftCluster::new(4, 1, 20, NetConfig::lan(), 8);
    assert!(p.run(Time::from_secs(30)));
    let lines = vec![
        format!(
            "MinBFT (n=3, USIG): {:.1} msgs/cmd, prepare={} commit={} — leader-centric O(N)",
            m.sent as f64 / 20.0,
            m.kind("prepare"),
            m.kind("commit")
        ),
        format!(
            "PBFT   (n=4)      : {:.1} msgs/cmd — same f=1, one more replica, quadratic phases",
            p.sim.metrics().sent as f64 / 20.0
        ),
    ];
    Report {
        id: "f15",
        title: "MinBFT: trusted counters halve replicas (2f+1) and phases (2)",
        data: json!({"minbft_msgs_per_cmd": m.sent as f64 / 20.0,
                     "pbft_msgs_per_cmd": p.sim.metrics().sent as f64 / 20.0}),
        lines,
    }
}

/// F16 — CheapBFT: f+1 actives, PANIC switch.
pub fn f16_cheapbft() -> Report {
    let mut quiet = CheapCluster::new(3, 1, 20, NetConfig::lan(), 9);
    assert!(quiet.run(Time::from_secs(30)));
    let quiet_msgs = quiet.sim.metrics().sent as f64 / 20.0;

    let mut faulty = CheapCluster::new(3, 1, 10, NetConfig::lan(), 9);
    faulty.sim.run_until(Time::from_millis(5));
    faulty.sim.crash_at(NodeId(1), Time::from_millis(6));
    let ok = faulty.run(Time::from_secs(60));
    let lines = vec![
        format!(
            "CheapTiny normal case: {quiet_msgs:.1} msgs/cmd with only f+1=2 active replicas"
        ),
        format!(
            "active backup crash → PANIC ({}) → CheapSwitch ({}) → MinBFT; completed = {ok}",
            faulty.sim.metrics().kind("panic"),
            faulty.sim.metrics().kind("switch")
        ),
    ];
    Report {
        id: "f16",
        title: "CheapBFT: CheapTiny (f+1 active) with PANIC-driven fallback",
        data: json!({"tiny_msgs_per_cmd": quiet_msgs,
                     "panics": faulty.sim.metrics().kind("panic"), "recovered": ok}),
        lines,
    }
}

/// F17 — XFT: synchronous groups and the anarchy predicate.
pub fn f17_xft() -> Report {
    let mut c = XftCluster::new(5, 1, 15, NetConfig::lan(), 10);
    c.sim.run_until(Time::from_millis(5));
    c.sim.crash_at(NodeId(1), Time::from_millis(6)); // inside the group
    let ok = c.run(Time::from_secs(60));
    let vc = c.replicas().map(|r| r.voter.view_changes).max().unwrap();
    let lines = vec![
        format!(
            "n=5 (2f+1), synchronous group of f+1=3; group-member crash → {vc} view change(s); completed = {ok}"
        ),
        format!(
            "anarchy predicate (n=5): m=1,c=1,p=1 → {}; m=0,c=3,p=0 → {} (crashes alone never anarchy)",
            is_anarchy(1, 1, 1, 5),
            is_anarchy(3, 0, 0, 5)
        ),
    ];
    Report {
        id: "f17",
        title: "XFT/XPaxos: 2f+1 replicas, group reconfiguration, anarchy",
        data: json!({"view_changes": vc, "completed": ok}),
        lines,
    }
}

/// T4 — UpRight fault-model table.
pub fn t4_upright() -> Report {
    let mut lines = vec![format!(
        "{:>3} {:>3} {:>9} {:>8} {:>13} {:>11}",
        "m", "c", "network", "quorum", "intersection", "execution"
    )];
    let mut rows = Vec::new();
    for (m, c) in [(0usize, 1usize), (1, 0), (1, 1), (2, 1), (1, 2)] {
        let u = UpRightConfig::new(m, c);
        lines.push(format!(
            "{:>3} {:>3} {:>9} {:>8} {:>13} {:>11}",
            m,
            c,
            u.agreement_nodes(),
            u.quorum(),
            u.intersection(),
            u.execution_nodes()
        ));
        rows.push(json!({"m": m, "c": c, "network": u.agreement_nodes(),
                         "quorum": u.quorum(), "intersection": u.intersection()}));
    }
    lines.push("network 3m+2c+1, quorum 2m+c+1, intersection m+1 — verified exhaustively".into());
    Report {
        id: "t4",
        title: "UpRight: the hybrid fault-model arithmetic",
        data: json!(rows),
        lines,
    }
}

/// F18 — SeeMoRe's three modes.
pub fn f18_seemore() -> Report {
    let mut lines = vec![format!(
        "{:<8} {:>7} {:>8} {:>10} {:>12} {:>14}",
        "mode", "phases", "quorum", "committed", "messages", "mean lat (µs)"
    )];
    let mut rows = Vec::new();
    for mode in [Mode::One, Mode::Two, Mode::Three] {
        let cfg = SeeMoReConfig { m: 1, c: 1, mode };
        let mut cluster = SmCluster::new(cfg, 1, 12, NetConfig::lan(), 11);
        assert!(cluster.run(Time::from_secs(30)));
        lines.push(format!(
            "{:<8} {:>7} {:>8} {:>10} {:>12} {:>14.0}",
            format!("{mode:?}"),
            cfg.phases(),
            cfg.quorum(),
            cluster.total_completed(),
            cluster.sim.metrics().sent,
            cluster.latencies().mean()
        ));
        rows.push(json!({"mode": format!("{mode:?}"), "phases": cfg.phases(),
                         "quorum": cfg.quorum(), "messages": cluster.sim.metrics().sent}));
    }
    Report {
        id: "f18",
        title: "SeeMoRe: hybrid-cloud modes 1–3 (3m+2c+1 nodes)",
        data: json!(rows),
        lines,
    }
}

// ───────────────────────── Blockchain ─────────────────────────

/// F19 — hash-pointer tamper evidence.
pub fn f19_tamper() -> Report {
    let p = MiningParams::trivial();
    let mut chain = Blockchain::new(p);
    for h in 1..=20u64 {
        let mined = mine_block(
            &p,
            chain.tip(),
            h,
            0,
            vec![Transaction::transfer(h, 1, 2, h, 0)],
            chain.next_bits(),
            (h * 600) as u32,
        );
        chain.add_block(mined.block);
    }
    let intact = chain.verify_integrity();
    // Tamper: mutate a transaction in block 10.
    let hash10 = chain.best_chain()[10];
    let mut forged = chain.block(&hash10).unwrap().clone();
    forged.txs[1].amount = 1_000_000;
    let merkle_broken = !forged.is_well_formed();
    // Even if the attacker recomputes the Merkle root, the header changes,
    // the proof-of-work no longer verifies, and block 11's prev pointer
    // dangles.
    forged.header.merkle_root = blockchain::block::merkle_root(&forged.txs);
    let outcome = chain.add_block(forged.clone());
    let hash11_prev = chain.block(&chain.best_chain()[11]).unwrap().header.prev;
    let pointer_broken = hash11_prev != forged.hash();
    let lines = vec![
        format!("20-block chain integrity: {intact}"),
        format!("mutate a tx in block 10 → Merkle root broken: {merkle_broken}"),
        format!("recompute the root and re-insert → add_block: {outcome:?} (PoW no longer meets the target)"),
        format!("block 11's hash pointer no longer matches the forged block: {pointer_broken}"),
    ];
    Report {
        id: "f19",
        title: "Blockchain structure: hash pointers make the ledger tamper-evident",
        data: json!({"intact": intact, "merkle_broken": merkle_broken,
                     "forged_outcome": format!("{outcome:?}"), "pointer_broken": pointer_broken}),
        lines,
    }
}

/// F20 — mining, difficulty retarget, halving.
pub fn f20_mining() -> Report {
    let mut p = MiningParams::trivial();
    p.retarget_interval = 5;
    p.halving_interval = 10;
    let mut chain = Blockchain::new(p);
    let mut lines = vec![format!(
        "{:>6} {:>12} {:>14} {:>8}",
        "height", "bits", "hashes tried", "reward"
    )];
    let mut rows = Vec::new();
    let mut total_hashes = 0u64;
    for h in 1..=20u64 {
        let bits = chain.next_bits();
        // Timestamps: blocks arrive 2× faster than the 600s target, so
        // difficulty ratchets up at each retarget boundary.
        let mined = mine_block(&p, chain.tip(), h, 0, vec![], bits, (h * 300) as u32);
        total_hashes += mined.hashes_tried;
        if h % 5 == 0 || h == 1 {
            lines.push(format!(
                "{:>6} {:>12} {:>14} {:>8}",
                h,
                format!("{bits:08x}"),
                mined.hashes_tried,
                p.reward_at(h)
            ));
        }
        rows.push(json!({"height": h, "bits": format!("{bits:08x}"),
                         "hashes": mined.hashes_tried, "reward": p.reward_at(h)}));
        chain.add_block(mined.block);
    }
    lines.push(format!(
        "fast blocks raise difficulty at each retarget; rewards halve at height 10; {total_hashes} hashes total"
    ));
    Report {
        id: "f20",
        title: "Mining: nonce search, difficulty retarget, reward halving",
        data: json!(rows),
        lines,
    }
}

/// F21 — fork rate vs propagation delay.
pub fn f21_forks() -> Report {
    let mut lines = vec![format!(
        "{:>12} {:>8} {:>8} {:>10} {:>12}",
        "delay (µs)", "mined", "height", "fork rate", "txs aborted"
    )];
    let mut rows = Vec::new();
    for delay in [100u64, 2_000, 8_000, 15_000] {
        let r = run_mining_network(
            &[0.25, 0.25, 0.25, 0.25],
            30_000,
            fixed_net(delay),
            6_000_000,
            12,
        );
        lines.push(format!(
            "{:>12} {:>8} {:>8} {:>9.1}% {:>12}",
            delay,
            r.total_mined,
            r.best_height,
            r.fork_rate() * 100.0,
            r.txs_aborted
        ));
        rows.push(json!({"delay_us": delay, "fork_rate": r.fork_rate(),
                         "aborted": r.txs_aborted}));
    }
    lines.push("propagation delay ≈ block interval ⇒ heavy forking and aborts".into());
    Report {
        id: "f21",
        title: "Forks: probabilistic mining + slow gossip ⇒ forks and aborts",
        data: json!(rows),
        lines,
    }
}

/// F22 — mining centralization.
pub fn f22_centralization() -> Report {
    let shares = [0.81, 0.10, 0.05, 0.04];
    let r = run_mining_network(&shares, 20_000, fixed_net(500), 10_000_000, 13);
    let total: u64 = r.chain_blocks_per_miner.iter().sum();
    let mut lines = vec![format!("{:>6} {:>10} {:>12}", "pool", "hashrate", "chain blocks")];
    let mut rows = Vec::new();
    for (i, (&share, &won)) in shares.iter().zip(r.chain_blocks_per_miner.iter()).enumerate() {
        let pct = won as f64 * 100.0 / total.max(1) as f64;
        lines.push(format!("{i:>6} {:>9.0}% {:>11.1}%", share * 100.0, pct));
        rows.push(json!({"pool": i, "hashrate": share, "won": pct / 100.0}));
    }
    lines.push("blocks won ∝ hashrate: an 81% pool effectively controls the chain".into());
    Report {
        id: "f22",
        title: "Mining centralization: blocks track hashrate share",
        data: json!(rows),
        lines,
    }
}

/// F23 — the energy proxy: expected hashes vs difficulty.
pub fn f23_energy() -> Report {
    let mut lines = vec![format!("{:>12} {:>18}", "bits", "expected hashes")];
    let mut rows = Vec::new();
    for bits in [0x2001_0000u32, 0x2000_4000, 0x1f10_0000, 0x1f04_0000, 0x1e20_0000] {
        let h = expected_hashes(bits);
        lines.push(format!("{:>12} {:>18.0}", format!("{bits:08x}"), h));
        rows.push(json!({"bits": format!("{bits:08x}"), "hashes": h}));
    }
    lines.push("every difficulty doubling doubles the hashes (energy) per block".into());
    Report {
        id: "f23",
        title: "PoW energy proxy: work per block vs difficulty",
        data: json!(rows),
        lines,
    }
}

/// F24 — proof of stake.
pub fn f24_pos() -> Report {
    let stakes = [500u64, 300, 200];
    let rand = run_pos(&stakes, 20_000, PosMode::Randomized, 0, false, 14);
    let total: u64 = rand.blocks.iter().sum();
    let mut lines = vec!["stake-weighted randomized selection (20k slots):".into()];
    for (i, (&s, &b)) in stakes.iter().zip(rand.blocks.iter()).enumerate() {
        lines.push(format!(
            "  validator {i}: stake {:.0}% → minted {:.1}%",
            s as f64 / 10.0,
            b as f64 * 100.0 / total as f64
        ));
    }
    let whale_r = run_pos(&[900, 50, 50], 20_000, PosMode::Randomized, 0, false, 14);
    let whale_a = run_pos(&[900, 50, 50], 20_000, PosMode::CoinAge, 0, false, 14);
    let pct = |r: &blockchain::pos::PosReport| {
        let t: u64 = r.blocks.iter().sum();
        r.blocks[0] as f64 * 100.0 / t.max(1) as f64
    };
    lines.push(format!(
        "90% whale: randomized → {:.1}% of blocks; coin-age (30d maturity, 90d cap, reset on mint) → {:.1}%",
        pct(&whale_r),
        pct(&whale_a)
    ));
    Report {
        id: "f24",
        title: "Proof of stake: randomized vs coin-age selection",
        data: json!({"shares": rand.blocks, "whale_randomized": pct(&whale_r),
                     "whale_coinage": pct(&whale_a)}),
        lines,
    }
}

/// F25 — the permissioned chain.
pub fn f25_permissioned() -> Report {
    let sim = run_permissioned(4, 15, NetConfig::lan(), 15, Time::from_secs(10));
    let v = sim.node(NodeId(0));
    let proposals: Vec<u64> = sim.nodes().map(|(_, v)| v.proposed).collect();
    let lines = vec![
        format!(
            "4 known validators (3f+1, f=1), PBFT-style prevote/precommit with rotation"
        ),
        format!(
            "committed {} blocks with {} messages; proposals per validator: {proposals:?}",
            v.chain.height(),
            sim.metrics().sent
        ),
        format!("chain integrity: {}", v.chain.verify_integrity()),
    ];
    Report {
        id: "f25",
        title: "Permissioned blockchain: Tendermint-style BFT over known validators",
        data: json!({"height": v.chain.height(), "messages": sim.metrics().sent,
                     "proposals": proposals}),
        lines,
    }
}


/// F26 — weak finality: double-spend success vs confirmation depth.
pub fn f26_finality() -> Report {
    let mut lines = vec![format!(
        "{:>5} {:>14} {:>14} {:>14}",
        "conf", "q=10% (MC)", "q=30% (MC)", "q=30% analytic"
    )];
    let mut rows = Vec::new();
    for z in [0u32, 1, 2, 4, 6, 8] {
        let r10 = double_spend_success_rate(z, 0.10, 20_000, 26);
        let r30 = double_spend_success_rate(z, 0.30, 20_000, 26);
        let a30 = nakamoto_catch_up(z, 0.30);
        lines.push(format!(
            "{z:>5} {:>13.4}% {:>13.4}% {:>13.4}%",
            r10 * 100.0,
            r30 * 100.0,
            a30 * 100.0
        ));
        rows.push(json!({"confirmations": z, "q10": r10, "q30": r30, "q30_analytic": a30}));
    }
    lines.push("finality is only probabilistic — exponentially better per confirmation".into());
    Report {
        id: "f26",
        title: "Weak finality: double-spend success vs confirmations (Nakamoto)",
        data: json!(rows),
        lines,
    }
}

/// F27 — selfish mining: revenue vs hashrate share.
pub fn f27_selfish() -> Report {
    let mut lines = vec![format!(
        "{:>7} {:>16} {:>16}",
        "α", "revenue (γ=0)", "revenue (γ=0.9)"
    )];
    let mut rows = Vec::new();
    for alpha in [0.10f64, 0.20, 0.30, 0.35, 0.40, 0.45] {
        let lo = selfish_mining(alpha, 0.0, 300_000, 27);
        let hi = selfish_mining(alpha, 0.9, 300_000, 27);
        lines.push(format!(
            "{alpha:>6.2} {:>15.3} {:>16.3}",
            lo.revenue_share, hi.revenue_share
        ));
        rows.push(json!({"alpha": alpha, "gamma0": lo.revenue_share, "gamma09": hi.revenue_share}));
    }
    lines.push(format!(
        "profitability thresholds: γ=0 → α > {:.3}; γ=0.9 → α > {:.3} (Eyal–Sirer)",
        selfish_threshold(0.0),
        selfish_threshold(0.9)
    ));
    Report {
        id: "f27",
        title: "Selfish mining: withholding beats honesty above the threshold",
        data: json!(rows),
        lines,
    }
}

// ───────────────────────── The sharded store ─────────────────────────

/// F28 — the commit-backend shootout: blocking 2PC vs 2PC over consensus
/// vs Paxos Commit, under the *identical* coordinator-crash schedule.
pub fn f28_store() -> Report {
    const STORE_HORIZON: Time = Time(20_000_000);

    // The epigraph from F7: an unreplicated protocol-level coordinator dies
    // inside the uncertainty window and its participants block forever.
    let mut blocked = two_phase::build_with_crash(
        &[true, true, true],
        two_phase::CrashPoint::AfterVotes,
        NetConfig::lan(),
        1,
    );
    blocked.run_until(Time::from_secs(2));
    let stuck = two_phase::participant_states(&blocked);
    let plain_msgs = blocked.metrics().sent;

    // Probe fault-free default-backend runs to find a seed whose router-0
    // workload contains a *committing* multi-shard transaction — the txn
    // whose coordinator the shootout will kill. The workload generator is a
    // pure function of the seed (the backend only changes how the router
    // drives commitment), so all three legs replay the identical keys,
    // spans, and abort intentions.
    let (seed, target) = (42..74)
        .find_map(|seed| {
            let mut probe: Store<MultiPaxosCluster> = Store::new(StoreConfig::small(seed));
            assert!(probe.run(STORE_HORIZON), "store probe stalled");
            probe
                .outcomes()
                .iter()
                .find(|o| {
                    o.tid.client == ROUTER_BASE && o.span > 1 && o.decision == TxnDecision::Commit
                })
                .map(|o| (seed, o.clone()))
        })
        .expect("some seed has a committing multi-shard txn on router 0");

    // One leg of the shootout: run the store on `backend`, optionally
    // killing the target transaction's coordinator right after its prepare
    // (vote) round — 2PC's classic blocking window, one layer up.
    let leg = |backend: store::CommitBackend, crash: bool| {
        let cfg = StoreConfig::small(seed).backend(backend);
        let mut s: Store<MultiPaxosCluster> = Store::new(cfg);
        if crash {
            s.crash_router_on_txn(0, target.tid.number, RouterCrashPoint::AfterPrepare);
        }
        assert!(s.run(STORE_HORIZON), "store leg stalled ({backend:?})");
        s
    };

    let backends = [
        ("2pc", store::CommitBackend::TwoPhase),
        ("2pcoc", store::CommitBackend::TwoPhaseOverConsensus),
        ("pc", store::CommitBackend::PaxosCommit),
    ];

    let mut lines = vec![
        format!("plain 2PC, coordinator crash after votes → {stuck:?}  (blocked forever, {plain_msgs} msgs)"),
        format!(
            "store (3 shards × 3 Multi-Paxos, seed {seed}): each backend replays the identical \
             workload; router 0 crashes right after preparing {}",
            target.tid
        ),
        format!(
            "{:>6} {:>10} {:>10} {:>8} {:>10} {:>12} {:>14}",
            "leg", "completed", "committed", "stalled", "recovered", "crash msgs", "ff commit µs"
        ),
    ];
    let mut rows = Vec::new();
    for (tag, backend) in backends {
        // Fault-free run: the backend's message/latency bill when nothing
        // goes wrong (the price of non-blocking is paid here).
        let ff = leg(backend, false);
        let ff_outcomes = ff.outcomes();
        let commit_lats: Vec<u64> = ff_outcomes
            .iter()
            .filter(|o| o.decision == TxnDecision::Commit)
            .map(|o| o.latency_us)
            .collect();
        let ff_mean_commit = if commit_lats.is_empty() {
            0.0
        } else {
            commit_lats.iter().sum::<u64>() as f64 / commit_lats.len() as f64
        };

        // Crashed run: identical schedule, divergent availability.
        let s = leg(backend, true);
        let outcomes = s.outcomes();
        let committed = outcomes
            .iter()
            .filter(|o| o.decision == TxnDecision::Commit)
            .count();
        let recovered = s
            .recovered()
            .iter()
            .find(|(t, _)| *t == target.tid)
            .map(|(_, d)| d.as_str());
        let stalled: Vec<String> = s.stalled().iter().map(|t| t.to_string()).collect();
        let fp = s.fingerprint();
        let identical = fp == leg(backend, true).fingerprint();
        assert!(identical, "{tag} leg not deterministic");

        lines.push(format!(
            "{tag:>6} {:>10} {committed:>10} {:>8} {:>10} {:>12} {ff_mean_commit:>14.0}",
            outcomes.len(),
            stalled.len(),
            recovered.unwrap_or("—"),
            s.messages_sent(),
        ));
        rows.push(json!({
            "backend": tag,
            "completed": outcomes.len(),
            "committed": committed,
            "stalled": stalled,
            "recovered_decision": recovered,
            "crash_messages": s.messages_sent(),
            "fault_free_messages": ff.messages_sent(),
            "fault_free_mean_commit_latency_us": ff_mean_commit,
            "deterministic": identical,
        }));
    }

    // The availability punchline, asserted so the artifact cannot silently
    // regress: raw 2PC leaves the orphan blocked forever, 2PC-over-consensus
    // recovers it by aborting, Paxos Commit recovers the *commit* from the
    // replicated votes.
    let leg_field = |i: usize, f: &str| rows[i].get(f).cloned();
    assert_eq!(
        leg_field(0, "stalled").and_then(|v| v.as_array().map(Vec::len)),
        Some(1)
    );
    assert_eq!(
        leg_field(1, "recovered_decision").as_ref().and_then(Value::as_str),
        Some("abort")
    );
    assert_eq!(
        leg_field(2, "recovered_decision").as_ref().and_then(Value::as_str),
        Some("commit")
    );
    lines.push(format!(
        "same crash, three fates for {}: raw 2pc blocks it forever; 2pc-over-consensus \
         aborts it on recovery; paxos commit completes the commit from the replicated votes",
        target.tid
    ));

    Report {
        id: "f28",
        title: "Commit shootout: blocking 2PC vs 2PC over consensus vs Paxos Commit",
        data: json!({
            "blocked_states": stuck.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>(),
            "plain_2pc_messages": plain_msgs,
            "seed": seed,
            "target_txn": target.tid.to_string(),
            "legs": rows,
        }),
        lines,
    }
}

// ───────────────────────── F29: durable recovery ──────────────────────────

/// F29 — cold-restart recovery time vs checkpoint threshold.
pub fn f29_recovery() -> Report {
    use crate::recovery::{Recovery, COMMANDS, CRASHED, REPLICAS, SEED};

    let points = Recovery::run(&());
    let mut lines = vec![format!(
        "durable Multi-Paxos and Raft shards ({REPLICAS} replicas, {COMMANDS} commands, seed \
         {SEED}): replica {CRASHED} crashes after the workload and restarts through checkpoint \
         + WAL replay",
    )];
    lines.push(String::new());
    lines.extend(table(&Recovery::fields(), &points));
    lines.push(String::new());
    lines.push(
        "small threshold: frequent checkpoints, short replay; checkpoints off: \
         zero steady-state checkpoint I/O, full replay from slot 0"
            .into(),
    );
    lines.push(
        "the disk profile scales modeled time only — every cell decides the \
         identical command sequence (see BENCH_recovery.json)"
            .into(),
    );
    Report {
        id: "f29",
        title: "Durable storage: cold-restart recovery vs checkpoint threshold",
        data: json!({"artifact": Recovery::PATH, "cells": points.len()}),
        lines,
    }
}

// ───────────────────────── F30: latency attribution ───────────────────────

/// F30 — end-to-end causal tracing: critical-path latency attribution.
pub fn f30_latency() -> Report {
    use crate::latency::{Latency, SEED};

    let spec = Latency::full_spec();
    let points = Latency::run(&spec);
    let problems = Latency::gate(&points);
    assert!(problems.is_empty(), "latency sweep invalid: {problems:?}");

    let mut lines = vec![format!(
        "sharded store ({} txns + {} singles per router, seed {SEED}): every \
         transaction's latency decomposed into causal buckets via the \
         trace trees the run recorded",
        spec.txns_per_router, spec.singles_per_router,
    )];
    lines.push(String::new());
    lines.extend(table(&Latency::fields(), &points));
    lines.push(String::new());
    lines.push(
        "every cell reconciles ≥95% of measured end-to-end time into named \
         buckets (enforced by the artifact's gate); batching shifts time \
         into the client-queue bucket, durability into wal-fsync"
            .into(),
    );
    lines.push(
        "per-span exports: Chrome trace_event JSON (Perfetto-loadable) and \
         flamegraph folded stacks — see docs/observability.md and \
         BENCH_latency.json"
            .into(),
    );
    Report {
        id: "f30",
        title: "Causal tracing: critical-path latency attribution",
        data: json!({"artifact": Latency::PATH, "cells": points.len()}),
        lines,
    }
}

// ───────────────────────── T5: the cross-protocol comparison ─────────────

/// T5 — who wins, by roughly what factor.
pub fn t5_comparison() -> Report {
    const CMDS: usize = 20;
    let mut lines = vec![format!(
        "{:<12} {:>9} {:>8} {:>11} {:>15} {:>12}",
        "protocol", "replicas", "faults", "msgs/cmd", "mean lat (µs)", "fault model"
    )];
    let mut rows = Vec::new();
    let mut push = |name: &str, n: usize, f: usize, msgs: f64, lat: f64, model: &str| {
        lines.push(format!(
            "{name:<12} {n:>9} {f:>8} {msgs:>11.1} {lat:>15.0} {model:>12}"
        ));
        rows.push(json!({"protocol": name, "replicas": n, "msgs_per_cmd": msgs,
                         "latency_us": lat}));
    };

    // Every SMR protocol goes through the uniform `ClusterDriver` surface:
    // same construction, run, and harvest path as the nemesis targets and
    // the throughput sweep.
    fn smr_cell<D: ClusterDriver>(n: usize, cmds: usize, seed: u64) -> (f64, f64) {
        let cfg = DriverConfig::new(n, 1, cmds, seed);
        let mut d = D::from_config(&cfg);
        assert!(d.run(Time::from_secs(30)), "{} stalled", d.protocol());
        (
            d.metrics().sent as f64 / cmds as f64,
            d.latencies().mean(),
        )
    }

    let (msgs, lat) = smr_cell::<MultiPaxosCluster>(3, CMDS, 16);
    push("Multi-Paxos", 3, 1, msgs, lat, "crash");

    let (msgs, lat) = smr_cell::<RaftCluster>(3, CMDS, 16);
    push("Raft", 3, 1, msgs, lat, "crash");

    let (msgs, lat) = smr_cell::<PbftCluster>(4, CMDS, 16);
    push("PBFT", 4, 1, msgs, lat, "byzantine");

    let (msgs, lat) = smr_cell::<ZyzCluster>(4, CMDS, 16);
    push("Zyzzyva", 4, 1, msgs, lat, "byzantine");

    let (msgs, lat) = smr_cell::<HsCluster>(4, CMDS, 16);
    push("HotStuff", 4, 1, msgs, lat, "byzantine");

    let (msgs, lat) = smr_cell::<MinCluster>(3, CMDS, 16);
    push("MinBFT", 3, 1, msgs, lat, "hybrid");

    let (msgs, lat) = smr_cell::<CheapCluster>(3, CMDS, 16);
    push("CheapBFT", 3, 1, msgs, lat, "hybrid");

    let (msgs, lat) = smr_cell::<XftCluster>(3, CMDS, 16);
    push("XFT", 3, 1, msgs, lat, "hybrid");

    lines.push(String::new());
    lines.push("shapes: crash < hybrid < byzantine in replicas and messages;".into());
    lines.push("speculation (Zyzzyva) wins fault-free latency; PBFT pays the quadratic bill".into());
    Report {
        id: "t5",
        title: "Cross-protocol comparison under an identical LAN and workload",
        data: json!(rows),
        lines,
    }
}

/// One registered experiment: its ID and the function that runs it.
pub type Experiment = (&'static str, fn() -> Report);

/// The registry: every experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("t1", t1_taxonomy as fn() -> Report),
        ("f1", f1_paxos_flow),
        ("f2", f2_leader_crash),
        ("f3", f3_livelock),
        ("f4", f4_multipaxos),
        ("f5", f5_fast_paxos),
        ("f6", f6_flexible),
        ("f7", f7_two_pc),
        ("f8", f8_three_pc),
        ("f9", f9_cnc),
        ("t2", t2_psl),
        ("t3", t3_om),
        ("f10", f10_flp),
        ("f11", f11_pbft),
        ("f12", f12_pbft_viewchange),
        ("f13", f13_zyzzyva),
        ("f14", f14_hotstuff),
        ("f15", f15_minbft),
        ("f16", f16_cheapbft),
        ("f17", f17_xft),
        ("t4", t4_upright),
        ("f18", f18_seemore),
        ("f19", f19_tamper),
        ("f20", f20_mining),
        ("f21", f21_forks),
        ("f22", f22_centralization),
        ("f23", f23_energy),
        ("f24", f24_pos),
        ("f25", f25_permissioned),
        ("f26", f26_finality),
        ("f27", f27_selfish),
        ("f28", f28_store),
        ("f29", f29_recovery),
        ("f30", f30_latency),
        ("t5", t5_comparison),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ids_match() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 35);
        let ids: BTreeSet<&str> = exps.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 35, "duplicate experiment ids");
    }

    #[test]
    fn quick_experiments_produce_reports() {
        // Smoke-test the cheap ones (the expensive ones run in `tables`).
        for id in ["f1", "f7", "f9", "t2", "t3", "t4", "f19", "f23"] {
            let (_, f) = all_experiments()
                .into_iter()
                .find(|(i, _)| *i == id)
                .unwrap();
            let r = f();
            assert_eq!(r.id, id);
            assert!(!r.lines.is_empty(), "{id} produced no lines");
        }
    }
}
