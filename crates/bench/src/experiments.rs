//! The experiment functions, one per table/figure of the tutorial.
//!
//! An experiment returns its record — a JSON value holding every number it
//! measured — and `bench tables` draws the text from that record (see
//! [`Report::text`]), so no value is stated twice.

use std::collections::BTreeSet;

use serde_json::{json, Value};

use agreement::flp::{run_voting, Scheduler};
use agreement::interactive_consistency;
use agreement::oral_messages::{om, ConsistentLiar, ParitySplit, ATTACK};
use atomic_commit::paxos_commit;
use atomic_commit::three_phase::{self, CrashPoint};

use bft::cheapbft::CheapCluster;
use bft::hotstuff::{HsCluster, HsConfig};
use bft::minbft::MinCluster;
use bft::pbft::{PbftCluster, CHECKPOINT_INTERVAL};
use bft::seemore::{Mode, SeeMoReConfig, SmCluster};
use bft::upright::UpRightConfig;
use bft::xft::{is_anarchy, XftCluster};
use bft::zyzzyva::ZyzCluster;
use blockchain::attacks::{
    double_spend_success_rate, nakamoto_catch_up, selfish_mining, selfish_threshold,
};
use blockchain::network::run_mining_network;
use blockchain::permissioned::run_permissioned;
use blockchain::pos::{run_pos, PosMode};
use blockchain::pow::{expected_hashes, mine_block, MiningParams};
use blockchain::{Blockchain, Transaction};
use consensus_core::driver::{ClusterDriver, DriverConfig};
use consensus_core::taxonomy::all_cards;
use consensus_core::txn::TxnDecision;
use consensus_core::workload::LatencyRecorder;
use consensus_core::QuorumSpec;
use paxos::fast;
use paxos::flexible::run_flexible;
use paxos::livelock::run_duel;
use paxos::{MultiPaxosCluster, PaxosNode, RetryPolicy};
use raft::RaftCluster;
use simnet::{CncPhase, DelayModel, NetConfig, NodeId, Sim, Time, TraceEvent};
use store::{RouterCrashPoint, Store, StoreConfig, ROUTER_BASE};

use crate::artifact::{columns, markdown, Artifact};

/// What an experiment returns: its record, the only source of the values
/// `bench tables` shows, plus static notes that restate none of them.
pub struct Report {
    /// The record: the experiment's `data` in `results.json`.
    pub data: Value,
    /// Whole-experiment values beside an array-shaped `data`, kept as the
    /// entry's `summary`.
    pub summary: Option<Value>,
    /// Prose printed after the tables.
    pub notes: &'static str,
}

impl Report {
    fn new(data: Value, notes: &'static str) -> Report {
        Report {
            data,
            summary: None,
            notes,
        }
    }

    /// The markdown `bench tables` prints: a heading, the record's tables
    /// (then the summary's), then the notes. Fails when the record's rows
    /// disagree on their keys.
    pub fn text(&self, id: &str, title: &str) -> Result<String, String> {
        let tables = |v| markdown(v).map_err(|e| format!("{id}: {e}"));
        let mut out = format!("## {} — {title}\n\n", id.to_uppercase()) + &tables(&self.data)?;
        if let Some(summary) = &self.summary {
            out.push('\n');
            out.push_str(&tables(summary)?);
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("\n{}\n", self.notes));
        }
        Ok(out)
    }

    /// The experiment's `results.json` entry.
    pub fn entry(self, id: &str, title: &str) -> Value {
        let mut entry = json!({"id": id, "title": title, "data": self.data});
        if let (Value::Object(map), Some(summary)) = (&mut entry, self.summary) {
            map.insert("summary".into(), summary);
        }
        entry
    }
}

fn fixed_net(us: u64) -> NetConfig {
    NetConfig::synchronous().with_delay(DelayModel::Fixed(us))
}

/// A finished run of `D`: `n` replicas and one client issuing `cmds`
/// commands over the LAN — the shape most experiments measure.
fn lan_run<D: ClusterDriver>(n: usize, cmds: usize, seed: u64) -> D {
    let mut d = D::from_config(&DriverConfig::new(n, 1, cmds, seed));
    assert!(d.run(Time::from_secs(60)), "{} stalled", d.protocol());
    d
}

fn debug_all<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    items.iter().map(|s| format!("{s:?}")).collect()
}

// ───────────────────────── T1: the taxonomy table ─────────────────────────

/// T1 — protocol cards vs measured node bounds and message growth.
pub fn t1_taxonomy() -> Report {
    let cards: Vec<Value> = all_cards()
        .iter()
        .map(|card| {
            json!({
                "name": card.name,
                "synchrony": format!("{:?}", card.synchrony),
                "failure": format!("{:?}", card.failure),
                "strategy": format!("{:?}", card.strategy),
                "nodes": card.nodes.to_string(),
                "phases": card.phases,
                "complexity": card.complexity.to_string(),
            })
        })
        .collect();
    // Measured messages per command for the flagship protocols.
    let per_cmd = |d: &dyn ClusterDriver| d.metrics().sent as f64 / 10.0;
    let [p4, p10] = [4, 10].map(|n| per_cmd(&lan_run::<MultiPaxosCluster>(n, 10, 1)));
    let [b4, b10] = [4, 10].map(|n| per_cmd(&lan_run::<PbftCluster>(n, 10, 1)));
    let [h4, h10] = [4, 10].map(|n| per_cmd(&lan_run::<HsCluster>(n, 10, 1)));
    Report::new(
        json!({
            "cards": cards,
            "measured_growth": json!({"paxos": p10 / p4, "pbft": b10 / b4, "hotstuff": h10 / h4}),
            "msgs_per_cmd_n4": json!({"paxos": p4, "pbft": b4, "hotstuff": h4}),
            "msgs_per_cmd_n10": json!({"paxos": p10, "pbft": b10, "hotstuff": h10}),
        }),
        "measured growth is messages/command from n = 4 to n = 10 (Multi-Paxos, PBFT, \
         HotStuff); a linear protocol grows ×2.5",
    )
}

// ───────────────────────── Paxos family ─────────────────────────

/// Single-decree Paxos over five nodes, node 0 proposing `value` at once
/// and never retrying.
fn paxos_sim(net: NetConfig, seed: u64, value: u64) -> Sim<PaxosNode> {
    let mut sim: Sim<PaxosNode> = Sim::new(net, seed);
    for _ in 0..5 {
        sim.add_node(PaxosNode::acceptor(5));
    }
    *sim.node_mut(NodeId(0)) = PaxosNode::proposer(5, value, 0, RetryPolicy::Never);
    sim
}

/// F2's run: node 0's value 111 goes out, node 0 crashes at 2 ms, and node 1
/// proposes 222 at 20 ms.
fn paxos_leader_crash(seed: u64) -> Sim<PaxosNode> {
    let mut sim = paxos_sim(NetConfig::lan(), seed, 111);
    *sim.node_mut(NodeId(1)) = PaxosNode::proposer(5, 222, 20_000, RetryPolicy::Fixed(10_000));
    sim.crash_at(NodeId(0), Time(2_000));
    sim
}

/// F1 — single-decree Paxos message flow.
pub fn f1_paxos_flow() -> Report {
    let mut sim = paxos_sim(fixed_net(500), 1, 42);
    sim.record_trace(true);
    sim.run_until(Time::from_secs(1));
    let deliveries: Vec<Value> = sim
        .trace()
        .iter()
        .filter(|t| t.event == TraceEvent::Deliver)
        .map(|t| {
            let (from, to) = (t.from.to_string(), t.to.to_string());
            json!({"at_us": t.time.as_micros(), "from": from, "to": to, "kind": t.kind})
        })
        .collect();
    let m = sim.metrics();
    Report::new(
        json!({"prepare": m.kind("prepare"), "ack": m.kind("ack"), "accept": m.kind("accept"),
               "accepted": m.kind("accepted"), "decide": m.kind("decide"),
               "deliveries": deliveries}),
        "",
    )
}

/// F2 — leader crash after acceptance: the value survives.
pub fn f2_leader_crash() -> Report {
    let mut sim = paxos_leader_crash(4);
    sim.run_until(Time::from_secs(2));
    let decisions: BTreeSet<u64> = sim.nodes().filter_map(|(_, n)| n.decided).collect();
    Report::new(
        json!({"unique_decisions": decisions.len(), "decided": decisions.iter().next()}),
        "v = 111 is accepted by a majority and its leader crashes before disseminating \
         it; a second proposer (v = 222) must discover and re-propose 111",
    )
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
    Report::new(
        json!({"fixed_decided": stuck.decided, "randomized_decided": fixed.decided,
               "livelock_attempts": stuck.attempts_p1 + stuck.attempts_p2,
               "livelock_proposer_attempts": json!([stuck.attempts_p1, stuck.attempts_p2]),
               "livelock_prepares": stuck.prepares,
               "randomized_proposer_attempts": json!([fixed.attempts_p1, fixed.attempts_p2]),
               "randomized_decided_at_us": fixed.decided_at}),
        "deterministic retries duel for the whole 200 ms horizon without deciding — \
         livelock; randomized backoff breaks the tie",
    )
}

/// F4 — Multi-Paxos: phase 1 only on leader change.
pub fn f4_multipaxos() -> Report {
    let mut c = MultiPaxosCluster::new(QuorumSpec::Majority { n: 5 }, 2, 50, NetConfig::lan(), 2);
    c.sim.run_until(Time::from_millis(60));
    if let Some(l) = c.leader() {
        let at = c.sim.now() + 1;
        c.sim.crash_at(l, at);
    }
    assert!(c.run(Time::from_secs(60)));
    let m = c.sim.metrics();
    Report::new(
        json!({"prepares": m.kind("prepare"), "accepts": m.kind("accept"),
               "completed": c.total_completed(), "mean_latency_us": c.latencies().mean()}),
        "one leader crash during the run: prepares are paid on view changes only",
    )
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
    Report::new(
        json!({"fast_path_delays_us": solo_at, "collision_rate": collisions as f64 / runs as f64,
               "collisions": collisions, "runs": runs}),
        "one client: the coordinator learns after 2 one-way delays of 500 µs (classic \
         Paxos needs 3: request → accept → accepted)\n\n\
         3 concurrent clients: a collision falls back to a classic round",
    )
}

/// F6 — Flexible Paxos quorum configurations.
pub fn f6_flexible() -> Report {
    let mut rows = Vec::new();
    for (label, spec) in [
        ("majority |Q1|=|Q2|=4 (n=7)", QuorumSpec::Majority { n: 7 }),
        (
            "flexible |Q1|=6,|Q2|=2",
            QuorumSpec::Flexible { n: 7, q1: 6, q2: 2 },
        ),
        (
            "flexible |Q1|=7,|Q2|=1",
            QuorumSpec::Flexible { n: 7, q1: 7, q2: 1 },
        ),
        ("grid 2×3 (row/col)", QuorumSpec::Grid { rows: 2, cols: 3 }),
    ] {
        let r = run_flexible(spec, 25, 3);
        rows.push(
            json!({"config": label, "completed": if r.completed { 25 } else { 0 },
                   "latency_us": r.mean_latency, "messages": r.messages}),
        );
    }
    Report::new(
        json!(rows),
        "smaller replication quorums cut commit latency; |Q1|+|Q2|>n keeps safety",
    )
}

// ───────────────────────── Commitment ─────────────────────────

/// 2PC — Paxos Commit at `F = 0` — whose coordinator dies inside the
/// blocking window, after every vote arrived: its participants block forever.
fn blocked_two_pc() -> Sim<paxos_commit::PcProc> {
    let crash = paxos_commit::CrashPoint::AfterVotes;
    let mut sim = paxos_commit::build_with_crash(&[true; 3], 0, crash, NetConfig::lan(), 1);
    sim.run_until(Time::from_secs(2));
    sim
}

/// F7 — 2PC commit, abort, and the blocking window.
pub fn f7_two_pc() -> Report {
    let mut commit = paxos_commit::build(&[true, true, true], 0, NetConfig::lan(), 1);
    commit.run_until(Time::from_secs(1));
    let mut abort = paxos_commit::build(&[true, false, true], 0, NetConfig::lan(), 1);
    abort.run_until(Time::from_secs(1));
    let blocked = blocked_two_pc();
    Report::new(
        json!({"commit_states": debug_all(&paxos_commit::participant_states(&commit)),
               "abort_states": debug_all(&paxos_commit::participant_states(&abort)),
               "blocked_states": debug_all(&paxos_commit::participant_states(&blocked)),
               "messages_per_txn": commit.metrics().sent}),
        "commit: unanimous yes; abort: one no vote; blocked: the coordinator dies \
         inside the window and the participants block forever\n\n\
         one commit takes 3 linear phases",
    )
}

/// F8 — 3PC terminates at every coordinator crash point.
pub fn f8_three_pc() -> Report {
    let mut rows = Vec::new();
    for (label, cp) in [
        ("no crash", CrashPoint::None),
        ("crash after votes", CrashPoint::AfterVotes),
        ("crash after pre-commit", CrashPoint::AfterPreCommit),
    ] {
        let mut sim = three_phase::build(&[true, true, true], cp, NetConfig::lan(), 2);
        sim.run_until(Time::from_secs(3));
        let states = three_phase::participant_states(&sim);
        rows.push(
            json!({"scenario": label, "terminated": states.iter().all(|s| s.is_final()),
                   "outcome": format!("{:?}", states[0]), "states": debug_all(&states)}),
        );
    }
    Report::new(
        json!(rows),
        "pre-committed ⇒ commit is recovered; earlier crashes ⇒ safe abort",
    )
}

/// Runs `sim` with its trace recorded until every commit protocol's
/// termination or takeover round is over, and returns the timeline.
fn spans_of<N: simnet::Node>(mut sim: Sim<N>) -> Vec<simnet::TraceEntry> {
    sim.record_trace(true);
    sim.run_until(Time::from_secs(2));
    sim.trace().to_vec()
}

/// F9 — the C&C framework, read off the real protocols' spans: per run, one
/// row per round in the order the round first appears, listing each phase
/// once, in the order it was first emitted.
pub fn f9_cnc() -> Report {
    let (lan, votes) = (NetConfig::lan, [true; 3]);
    let three_pc = |cp| spans_of(three_phase::build(&votes, cp, lan(), 5));
    // Paxos Commit's leader crashes before any vote request leaves, so no
    // RM votes and the backup coordinator has to take over every instance.
    let mut lost = paxos_commit::build(&votes, 1, lan(), 5);
    lost.set_filter(NodeId(0), Box::new(simnet::DropAll));
    lost.crash_at(NodeId(0), Time(0));
    let paxos = spans_of(paxos_sim(fixed_net(500), 1, 42));
    let two_pc = spans_of(paxos_commit::build(&votes, 0, lan(), 5));
    let pc = spans_of(paxos_commit::build(&votes, 1, lan(), 5));
    let runs = [
        ("Paxos", "fault-free", paxos),
        ("2PC", "fault-free", two_pc),
        ("3PC", "fault-free", three_pc(CrashPoint::None)),
        ("3PC", "crash after votes", three_pc(CrashPoint::AfterVotes)),
        ("Paxos Commit", "F = 1, fault-free", pc),
        ("Paxos Commit", "F = 1, leader lost", spans_of(lost)),
    ];
    let mut rows = Vec::new();
    for (protocol, run, trace) in runs {
        for (round, phases) in simnet::cnc_rounds(&trace) {
            let phases: Vec<&str> = phases.iter().map(CncPhase::label).collect();
            rows.push(json!({"protocol": protocol, "run": run, "round": round, "phases": phases}));
        }
    }
    Report::new(
        json!(rows),
        "round: Paxos' ballot, or a commit protocol's termination or takeover round\n\n\
         a fixed coordinator elects no one, and 2PC replicates no decision; a Paxos learner \
         tags the decision with round 0, as `decide` carries no ballot\n\n\
         after a crash, round 1 is a new coordinator's and opens with leader election; \
         Paxos Commit's lost leader sent no vote request, so its backup is free to abort",
    )
}

// ───────────────────────── Lower bounds & impossibility ─────────────────

/// T2 — PSL interactive consistency at and below the bound.
pub fn t2_psl() -> Report {
    let mut rows = Vec::new();
    for n in [3usize, 4, 7] {
        let values: Vec<u64> = (1..=n as u64).collect();
        let faulty: BTreeSet<usize> = [n - 1].into_iter().collect();
        let r = interactive_consistency(&values, &faulty, 1);
        rows.push(
            json!({"n": n, "agreement": r.agreement, "validity": r.validity,
                   "bound_met": n >= 4, "messages": r.messages}),
        );
    }
    Report::new(json!(rows), "f = 1 in every row; bound_met is N ≥ 3f+1 = 4")
}

/// T3 — OM(m) Byzantine generals sweep.
pub fn t3_om() -> Report {
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
        rows.push(
            json!({"n": n, "m": m, "holds": worst_ok, "messages": msgs, "n_gt_3m": n > 3 * m}),
        );
    }
    Report::new(
        json!(rows),
        "holds is the worst case over traitor placements, commander values and two \
         lying strategies; messages grow as O(nᵐ)",
    )
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
    let benor_rounds = benor.nodes().map(|(_, n)| n.rounds_used).max().unwrap_or(0);
    let benor_decided = benor.nodes().all(|(_, n)| n.decided.is_some());
    Report::new(
        json!({"fair_rounds": fair.rounds, "adversary_decided": adv.decided,
               "adversary_rounds": adv.rounds, "detector_rounds": fd.rounds,
               "benor_decided": benor_decided, "benor_rounds": benor_rounds}),
        "the adversarial scheduler keeps the vote bivalent for its whole round budget; \
         a failure detector or Ben-Or's coin (determinism sacrificed) circumvents FLP",
    )
}

// ───────────────────────── BFT family ─────────────────────────

/// F11 — PBFT: three phases, O(n²) growth.
pub fn f11_pbft() -> Report {
    let rows: Vec<Value> = [4usize, 7, 10]
        .into_iter()
        .map(|n| {
            let c = lan_run::<PbftCluster>(n, 10, 4);
            let m = c.metrics();
            json!({"n": n, "prepare": m.kind("prepare"), "commit": m.kind("commit"),
                   "msgs_per_cmd": m.sent as f64 / 10.0, "mean_latency_us": c.latencies().mean()})
        })
        .collect();
    Report::new(
        json!(rows),
        "prepare/commit are all-to-all: messages/command grow quadratically",
    )
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
    Report::new(
        json!({"view": view, "view_change_msgs": m.kind("view-change"),
               "new_view_msgs": m.kind("new-view"), "checkpoint_interval": CHECKPOINT_INTERVAL,
               "stable_checkpoint": low_water, "retained_log": log_len}),
        "the primary crashes at 11 ms; of 30 executed requests the log retains those \
         above the stable checkpoint",
    )
}

/// F13 — Zyzzyva's two cases.
pub fn f13_zyzzyva() -> Report {
    let mut fast = ZyzCluster::new(4, 1, 10, fixed_net(500), 6);
    assert!(fast.run(Time::from_secs(30)));
    let fast_path: usize = fast.clients().map(|c| c.accept.fast_path).sum();
    let mut slow = ZyzCluster::new(4, 1, 10, fixed_net(500), 6);
    slow.sim.crash_at(NodeId(3), Time::ZERO);
    assert!(slow.run(Time::from_secs(30)));
    let cert_path: usize = slow.clients().map(|c| c.accept.cert_path).sum();
    Report::new(
        json!({"fast_path": fast_path, "cert_path": cert_path,
               "fast_latency_us": fast.latencies().min(),
               "cert_latency_us": slow.latencies().min()}),
        "fault-free: case-1 completions at 3 one-way delays of 500 µs; one backup down: \
         case-2 completions through a commit certificate (latencies are minima)",
    )
}

/// F14 — HotStuff: linear growth, 7 phases, pipeline ablation.
pub fn f14_hotstuff() -> Report {
    let mut sizes = Vec::new();
    let mut per_cmd = Vec::new();
    for n in [4usize, 7, 10] {
        let v = lan_run::<HsCluster>(n, 10, 7).metrics().sent as f64 / 10.0;
        per_cmd.push(v);
        sizes.push(json!({"n": n, "msgs_per_cmd": v}));
    }
    // Pipeline ablation.
    let run_pipe = |pipeline: bool| {
        let cfg = HsConfig {
            n_replicas: 4,
            rotate: false,
            pipeline,
            window: 4,
        };
        let mut c = HsCluster::new(cfg, 1, 40, NetConfig::lan(), 7);
        assert!(c.run(Time::from_secs(60)));
        c.sim.now().as_micros()
    };
    let seq = run_pipe(false);
    let pipe = run_pipe(true);
    Report::new(
        json!({"growth": per_cmd[2] / per_cmd[0], "pipeline_speedup": seq as f64 / pipe as f64,
               "sizes": sizes, "sequential_us": seq, "pipelined_us": pipe}),
        "growth is messages/command from n = 4 to n = 10 (linear would be 2.5; PBFT \
         measures ≈ 6); the pipeline ablation runs 40 commands sequential vs chained",
    )
}

/// F15 — MinBFT: 2f+1 replicas, 2 phases.
pub fn f15_minbft() -> Report {
    let c = lan_run::<MinCluster>(3, 20, 8);
    let m = c.metrics();
    let p = lan_run::<PbftCluster>(4, 20, 8);
    Report::new(
        json!({"minbft_msgs_per_cmd": m.sent as f64 / 20.0,
               "minbft_prepare": m.kind("prepare"), "minbft_commit": m.kind("commit"),
               "pbft_msgs_per_cmd": p.metrics().sent as f64 / 20.0}),
        "MinBFT (n = 3, USIG) is leader-centric O(N); PBFT needs n = 4 for the same \
         f = 1, with quadratic phases",
    )
}

/// F16 — CheapBFT: f+1 actives, PANIC switch.
pub fn f16_cheapbft() -> Report {
    let quiet_msgs = lan_run::<CheapCluster>(3, 20, 9).metrics().sent as f64 / 20.0;

    let mut faulty = CheapCluster::new(3, 1, 10, NetConfig::lan(), 9);
    faulty.sim.run_until(Time::from_millis(5));
    faulty.sim.crash_at(NodeId(1), Time::from_millis(6));
    let ok = faulty.run(Time::from_secs(60));
    let m = faulty.sim.metrics();
    Report::new(
        json!({"tiny_msgs_per_cmd": quiet_msgs, "panics": m.kind("panic"),
               "switches": m.kind("switch"), "recovered": ok}),
        "CheapTiny runs only f+1 = 2 active replicas; an active backup's crash goes \
         PANIC → CheapSwitch → MinBFT",
    )
}

/// F17 — XFT: synchronous groups and the anarchy predicate.
pub fn f17_xft() -> Report {
    let mut c = XftCluster::new(5, 1, 15, NetConfig::lan(), 10);
    c.sim.run_until(Time::from_millis(5));
    c.sim.crash_at(NodeId(1), Time::from_millis(6)); // inside the group
    let ok = c.run(Time::from_secs(60));
    let vc = c.replicas().map(|r| r.voter.view_changes).max().unwrap();
    Report::new(
        json!({"view_changes": vc, "completed": ok,
               "anarchy_m1_c1_p1": is_anarchy(1, 1, 1, 5),
               "anarchy_m0_c3_p0": is_anarchy(3, 0, 0, 5)}),
        "n = 5 (2f+1) with a synchronous group of f+1 = 3; a group member crashes; \
         crashes alone are never anarchy",
    )
}

/// T4 — UpRight fault-model table.
pub fn t4_upright() -> Report {
    let mut rows = Vec::new();
    for (m, c) in [(0usize, 1usize), (1, 0), (1, 1), (2, 1), (1, 2)] {
        let u = UpRightConfig::new(m, c);
        rows.push(json!({"m": m, "c": c, "network": u.agreement_nodes(),
                         "quorum": u.quorum(), "intersection": u.intersection(),
                         "execution": u.execution_nodes()}));
    }
    Report::new(
        json!(rows),
        "network 3m+2c+1, quorum 2m+c+1, intersection m+1 — verified exhaustively",
    )
}

/// F18 — SeeMoRe's three modes.
pub fn f18_seemore() -> Report {
    let mut rows = Vec::new();
    for mode in [Mode::One, Mode::Two, Mode::Three] {
        let cfg = SeeMoReConfig { m: 1, c: 1, mode };
        let mut cluster = SmCluster::new(cfg, 1, 12, NetConfig::lan(), 11);
        assert!(cluster.run(Time::from_secs(30)));
        rows.push(json!({"mode": format!("{mode:?}"), "phases": cfg.phases(),
                         "quorum": cfg.quorum(), "messages": cluster.sim.metrics().sent,
                         "committed": cluster.total_completed(),
                         "mean_latency_us": cluster.latencies().mean()}));
    }
    Report::new(json!(rows), "")
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
    Report::new(
        json!({"intact": intact, "merkle_broken": merkle_broken,
               "forged_outcome": format!("{outcome:?}"), "pointer_broken": pointer_broken}),
        "a 20-block chain; mutating a transaction in block 10 breaks its Merkle root; \
         recomputing the root and re-inserting fails the proof of work, and block 11's \
         hash pointer no longer matches the forged block",
    )
}

/// F20 — mining, difficulty retarget, halving.
pub fn f20_mining() -> Report {
    let mut p = MiningParams::trivial();
    p.retarget_interval = 5;
    p.halving_interval = 10;
    let mut chain = Blockchain::new(p);
    let mut rows = Vec::new();
    let mut total_hashes = 0u64;
    for h in 1..=20u64 {
        let bits = chain.next_bits();
        // Timestamps: blocks arrive 2× faster than the 600s target, so
        // difficulty ratchets up at each retarget boundary.
        let mined = mine_block(&p, chain.tip(), h, 0, vec![], bits, (h * 300) as u32);
        total_hashes += mined.hashes_tried;
        rows.push(json!({"height": h, "bits": format!("{bits:08x}"),
                         "hashes": mined.hashes_tried, "reward": p.reward_at(h)}));
        chain.add_block(mined.block);
    }
    Report {
        data: json!(rows),
        summary: Some(json!({ "total_hashes": total_hashes })),
        notes: "fast blocks raise difficulty at each retarget; rewards halve at height 10",
    }
}

/// F21 — fork rate vs propagation delay.
pub fn f21_forks() -> Report {
    let mut rows = Vec::new();
    for delay in [100u64, 2_000, 8_000, 15_000] {
        let r = run_mining_network(
            &[0.25, 0.25, 0.25, 0.25],
            30_000,
            fixed_net(delay),
            6_000_000,
            12,
        );
        rows.push(json!({"delay_us": delay, "fork_rate": r.fork_rate(),
                         "aborted": r.txs_aborted, "mined": r.total_mined,
                         "height": r.best_height}));
    }
    Report::new(
        json!(rows),
        "propagation delay ≈ block interval ⇒ heavy forking and aborts",
    )
}

/// F22 — mining centralization.
pub fn f22_centralization() -> Report {
    let shares = [0.81, 0.10, 0.05, 0.04];
    let r = run_mining_network(&shares, 20_000, fixed_net(500), 10_000_000, 13);
    let total: u64 = r.chain_blocks_per_miner.iter().sum();
    let mut rows = Vec::new();
    for (i, (&share, &won)) in shares
        .iter()
        .zip(r.chain_blocks_per_miner.iter())
        .enumerate()
    {
        let pct = won as f64 * 100.0 / total.max(1) as f64;
        rows.push(json!({"pool": i, "hashrate": share, "won": pct / 100.0}));
    }
    Report::new(
        json!(rows),
        "blocks won ∝ hashrate: an 81% pool effectively controls the chain",
    )
}

/// F23 — the energy proxy: expected hashes vs difficulty.
pub fn f23_energy() -> Report {
    let mut rows = Vec::new();
    for bits in [
        0x2001_0000u32,
        0x2000_4000,
        0x1f10_0000,
        0x1f04_0000,
        0x1e20_0000,
    ] {
        rows.push(json!({"bits": format!("{bits:08x}"), "hashes": expected_hashes(bits)}));
    }
    Report::new(
        json!(rows),
        "every difficulty doubling doubles the hashes (energy) per block",
    )
}

/// F24 — proof of stake.
pub fn f24_pos() -> Report {
    let stakes = [500u64, 300, 200];
    let rand = run_pos(&stakes, 20_000, PosMode::Randomized, 0, false, 14);
    let total: u64 = rand.blocks.iter().sum();
    let validators: Vec<Value> = stakes
        .iter()
        .zip(rand.blocks.iter())
        .enumerate()
        .map(|(i, (&s, &b))| {
            json!({"validator": i, "stake_pct": s as f64 / 10.0,
                   "minted_pct": b as f64 * 100.0 / total as f64})
        })
        .collect();
    let whale_r = run_pos(&[900, 50, 50], 20_000, PosMode::Randomized, 0, false, 14);
    let whale_a = run_pos(&[900, 50, 50], 20_000, PosMode::CoinAge, 0, false, 14);
    let pct = |r: &blockchain::pos::PosReport| {
        let t: u64 = r.blocks.iter().sum();
        r.blocks[0] as f64 * 100.0 / t.max(1) as f64
    };
    Report::new(
        json!({"shares": rand.blocks, "validators": validators,
               "whale_randomized": pct(&whale_r), "whale_coinage": pct(&whale_a)}),
        "20 000 slots of stake-weighted selection; the whale holds 90 % of the stake; \
         coin-age uses a 30-day maturity, a 90-day cap and a reset on mint",
    )
}

/// F25 — the permissioned chain.
pub fn f25_permissioned() -> Report {
    let sim = run_permissioned(4, 15, NetConfig::lan(), 15, Time::from_secs(10));
    let v = sim.node(NodeId(0));
    let proposals: Vec<u64> = sim.nodes().map(|(_, v)| v.proposed).collect();
    Report::new(
        json!({"height": v.chain.height(), "messages": sim.metrics().sent,
               "proposals": proposals, "integrity": v.chain.verify_integrity()}),
        "4 known validators (3f+1, f = 1), PBFT-style prevote/precommit with rotation",
    )
}

/// F26 — weak finality: double-spend success vs confirmation depth.
pub fn f26_finality() -> Report {
    let mut rows = Vec::new();
    for z in [0u32, 1, 2, 4, 6, 8] {
        let r10 = double_spend_success_rate(z, 0.10, 20_000, 26);
        let r30 = double_spend_success_rate(z, 0.30, 20_000, 26);
        let a30 = nakamoto_catch_up(z, 0.30);
        rows.push(json!({"confirmations": z, "q10": r10, "q30": r30, "q30_analytic": a30}));
    }
    Report::new(
        json!(rows),
        "q10/q30 are Monte-Carlo success rates at 10 % / 30 % attacker hashrate; \
         finality is only probabilistic — exponentially better per confirmation",
    )
}

/// F27 — selfish mining: revenue vs hashrate share.
pub fn f27_selfish() -> Report {
    let mut rows = Vec::new();
    for alpha in [0.10f64, 0.20, 0.30, 0.35, 0.40, 0.45] {
        let lo = selfish_mining(alpha, 0.0, 300_000, 27);
        let hi = selfish_mining(alpha, 0.9, 300_000, 27);
        rows.push(json!({"alpha": alpha, "gamma0": lo.revenue_share, "gamma09": hi.revenue_share}));
    }
    Report {
        data: json!(rows),
        summary: Some(json!({"threshold_gamma0": selfish_threshold(0.0),
                             "threshold_gamma09": selfish_threshold(0.9)})),
        notes: "revenue share at γ = 0 and γ = 0.9; selfish mining pays above Eyal–Sirer's \
                profitability threshold",
    }
}

// ───────────────────────── The sharded store ─────────────────────────

/// F28 — the commit-backend shootout: blocking 2PC vs 2PC over consensus
/// vs Paxos Commit, under the *identical* coordinator-crash schedule.
pub fn f28_store() -> Report {
    const STORE_HORIZON: Time = Time(20_000_000);

    // The epigraph from F7: an unreplicated protocol-level coordinator dies
    // inside the uncertainty window and its participants block forever.
    let blocked = blocked_two_pc();

    // Probe fault-free default-backend runs to find a seed whose router-0
    // workload contains a *committing* multi-shard transaction — the txn
    // whose coordinator the shootout will kill. The workload generator is a
    // pure function of the seed (the backend only changes how the router
    // drives commitment), so all three legs replay the identical keys,
    // spans, and abort intentions.
    let (seed, target) = (42..74)
        .find_map(|seed| {
            let mut probe: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(seed));
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
        let cfg = StoreConfig::new(seed).backend(backend);
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
    let (mut rows, mut fates) = (Vec::new(), Vec::new());
    for (tag, backend) in backends {
        // Fault-free run: the backend's message/latency bill when nothing
        // goes wrong (the price of non-blocking is paid here).
        let ff = leg(backend, false);
        let mut commit_lats = LatencyRecorder::new();
        for o in ff
            .outcomes()
            .iter()
            .filter(|o| o.decision == TxnDecision::Commit)
        {
            commit_lats.record_micros(o.latency_us);
        }

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
            .map(|(_, d)| d.as_str().to_string());
        let stalled: Vec<String> = s.stalled().iter().map(|t| t.to_string()).collect();
        let identical = s.fingerprint() == leg(backend, true).fingerprint();
        assert!(identical, "{tag} leg not deterministic");
        fates.push((stalled.len(), recovered.clone()));
        rows.push(json!({
            "backend": tag,
            "completed": outcomes.len(),
            "committed": committed,
            "stalled": stalled,
            "recovered_decision": recovered,
            "crash_messages": s.messages_sent(),
            "fault_free_messages": ff.messages_sent(),
            "fault_free_mean_commit_latency_us": commit_lats.mean(),
            "deterministic": identical,
        }));
    }

    // The availability punchline, asserted so the artifact cannot silently
    // regress: raw 2PC leaves the orphan blocked forever, 2PC-over-consensus
    // recovers it by aborting, Paxos Commit recovers the *commit* from the
    // replicated votes.
    let fates: Vec<_> = fates.iter().map(|(n, r)| (*n, r.as_deref())).collect();
    assert_eq!(fates, [(1, None), (0, Some("abort")), (0, Some("commit"))]);

    Report::new(
        json!({
            "blocked_states": debug_all(&paxos_commit::participant_states(&blocked)),
            "plain_2pc_messages": blocked.metrics().sent,
            "seed": seed,
            "target_txn": target.tid.to_string(),
            "legs": rows,
        }),
        "plain 2PC: the coordinator crashes after votes and its participants block \
         forever\n\n\
         store: 3 shards × 3 Multi-Paxos; each backend replays the identical workload \
         and router 0 crashes right after preparing the target transaction\n\n\
         same crash, three fates: raw 2pc blocks it forever; 2pc-over-consensus aborts \
         it on recovery; paxos commit completes the commit from the replicated votes",
    )
}

// ───────────────────────── F29: durable recovery ──────────────────────────

/// F29 — cold-restart recovery time vs checkpoint threshold.
pub fn f29_recovery() -> Report {
    use crate::recovery::{Recovery, COMMANDS, CRASHED, REPLICAS, SEED};

    let points = Recovery::run(&());
    Report::new(
        json!({"artifact": Recovery::PATH, "cells": points.len(), "replicas": REPLICAS,
               "commands": COMMANDS, "seed": SEED, "crashed_replica": CRASHED,
               "rows": columns(&Recovery::fields(), &points)}),
        "durable Multi-Paxos and Raft shards: the crashed replica restarts after the \
         workload through checkpoint + WAL replay\n\n\
         small threshold: frequent checkpoints, short replay; checkpoints off: zero \
         steady-state checkpoint I/O, full replay from slot 0\n\n\
         the disk profile scales modeled time only — every cell decides the identical \
         command sequence",
    )
}

// ───────────────────────── F30: latency attribution ───────────────────────

/// F30 — end-to-end causal tracing: critical-path latency attribution.
pub fn f30_latency() -> Report {
    use crate::latency::{Latency, SEED};

    let spec = Latency::full_spec();
    let points = Latency::run(&spec);
    let problems = Latency::gate(&points);
    assert!(problems.is_empty(), "latency sweep invalid: {problems:?}");
    Report::new(
        json!({"artifact": Latency::PATH, "cells": points.len(), "seed": SEED,
               "txns_per_router": spec.txns_per_router,
               "singles_per_router": spec.singles_per_router,
               "rows": columns(&Latency::fields(), &points)}),
        "sharded store: every transaction's latency decomposed into causal buckets \
         via the trace trees the run recorded\n\n\
         every cell reconciles ≥95% of measured end-to-end time into named buckets \
         (enforced by the artifact's gate); batching shifts time into the client-queue \
         bucket, durability into wal-fsync\n\n\
         per-span exports: Chrome trace_event JSON (Perfetto-loadable) and flamegraph \
         folded stacks — see docs/observability.md",
    )
}

// ───────────────────────── T5: the cross-protocol comparison ─────────────

/// T5 — who wins, by roughly what factor.
pub fn t5_comparison() -> Report {
    // Every SMR protocol goes through the uniform `ClusterDriver` surface:
    // same construction, run, and harvest path as the nemesis targets and
    // the throughput sweep.
    fn cell<D: ClusterDriver>(protocol: &str, n: usize, fault_model: &str) -> Value {
        const CMDS: usize = 20;
        let d = lan_run::<D>(n, CMDS, 16);
        json!({"protocol": protocol, "replicas": n, "faults": 1u64, "fault_model": fault_model,
               "msgs_per_cmd": d.metrics().sent as f64 / CMDS as f64,
               "latency_us": d.latencies().mean()})
    }
    Report::new(
        json!([
            cell::<MultiPaxosCluster>("Multi-Paxos", 3, "crash"),
            cell::<RaftCluster>("Raft", 3, "crash"),
            cell::<PbftCluster>("PBFT", 4, "byzantine"),
            cell::<ZyzCluster>("Zyzzyva", 4, "byzantine"),
            cell::<HsCluster>("HotStuff", 4, "byzantine"),
            cell::<MinCluster>("MinBFT", 3, "hybrid"),
            cell::<CheapCluster>("CheapBFT", 3, "hybrid"),
            cell::<XftCluster>("XFT", 3, "hybrid"),
        ]),
        "shapes: crash < hybrid < byzantine in replicas and messages; speculation \
         (Zyzzyva) wins fault-free latency; PBFT pays the quadratic bill",
    )
}

/// One registered experiment: its id, its title, and the function that
/// runs it — the one place the id and title are stated.
pub type Experiment = (&'static str, &'static str, fn() -> Report);

/// The registry: every experiment, in presentation order, one per line.
pub fn all_experiments() -> Vec<Experiment> {
    macro_rules! registry {
        ($($id:literal $run:ident $title:literal)*) => {
            vec![$(($id, $title, $run as fn() -> Report)),*]
        };
    }
    registry! {
        "t1" t1_taxonomy "Taxonomy: protocol cards, with measured message growth"
        "f1" f1_paxos_flow "Paxos message flow (prepare/ack/accept/accepted/decide)"
        "f2" f2_leader_crash "Leader crash: a chosen value is recovered by the new leader"
        "f3" f3_livelock "Duelling proposers livelock; randomized restart delay fixes it"
        "f4" f4_multipaxos "Multi-Paxos: phase 1 runs only on leader change"
        "f5" f5_fast_paxos "Fast Paxos: 2 message delays, collision → classic round"
        "f6" f6_flexible "Flexible Paxos: decoupled election/replication quorums"
        "f7" f7_two_pc "2PC: atomic commitment with a blocking window"
        "f8" f8_three_pc "3PC: non-blocking via pre-commit + termination protocol"
        "f9" f9_cnc "C&C framework: Leader Election → Value Discovery → FT-Agreement → Decision"
        "t2" t2_psl "Pease–Shostak–Lamport: interactive consistency iff N ≥ 3f+1"
        "t3" t3_om "OM(m): agreement iff n > 3m, at exponential message cost"
        "f10" f10_flp "FLP: a bivalence-preserving adversary, and three escapes"
        "f11" f11_pbft "PBFT: pre-prepare/prepare/commit with O(n²) steady state"
        "f12" f12_pbft_viewchange "PBFT view change (O(n³) worst case) and checkpoint GC"
        "f13" f13_zyzzyva "Zyzzyva: case 1 (3f+1 replies) vs case 2 (2f+1 + commit cert)"
        "f14" f14_hotstuff "HotStuff: linear messages, leader rotation, pipelining"
        "f15" f15_minbft "MinBFT: trusted counters halve replicas (2f+1) and phases (2)"
        "f16" f16_cheapbft "CheapBFT: CheapTiny (f+1 active) with PANIC-driven fallback"
        "f17" f17_xft "XFT/XPaxos: 2f+1 replicas, group reconfiguration, anarchy"
        "t4" t4_upright "UpRight: the hybrid fault-model arithmetic"
        "f18" f18_seemore "SeeMoRe: hybrid-cloud modes 1–3 (3m+2c+1 nodes)"
        "f19" f19_tamper "Blockchain structure: hash pointers make the ledger tamper-evident"
        "f20" f20_mining "Mining: nonce search, difficulty retarget, reward halving"
        "f21" f21_forks "Forks: probabilistic mining + slow gossip ⇒ forks and aborts"
        "f22" f22_centralization "Mining centralization: blocks track hashrate share"
        "f23" f23_energy "PoW energy proxy: work per block vs difficulty"
        "f24" f24_pos "Proof of stake: randomized vs coin-age selection"
        "f25" f25_permissioned "Permissioned blockchain: Tendermint-style BFT over known validators"
        "f26" f26_finality "Weak finality: double-spend success vs confirmations (Nakamoto)"
        "f27" f27_selfish "Selfish mining: withholding beats honesty above the threshold"
        "f28" f28_store "Commit shootout: blocking 2PC vs 2PC over consensus vs Paxos Commit"
        "f29" f29_recovery "Durable storage: cold-restart recovery vs checkpoint threshold"
        "f30" f30_latency "Causal tracing: critical-path latency attribution"
        "t5" t5_comparison "Cross-protocol comparison under an identical LAN and workload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ids_match() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 35);
        let ids: BTreeSet<&str> = exps.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids.len(), 35, "duplicate experiment ids");
    }

    /// Every object key anywhere in `v`.
    fn keys(v: &Value, out: &mut Vec<String>) {
        match v {
            Value::Object(map) => {
                for (k, inner) in map {
                    out.push(k.clone());
                    keys(inner, out);
                }
            }
            Value::Array(items) => items.iter().for_each(|i| keys(i, out)),
            _ => {}
        }
    }

    /// F9's `(round, phases)` rows for one protocol and run.
    fn f9_rounds(data: &Value, protocol: &str, run: &str) -> Vec<(u64, Vec<String>)> {
        let text = |row: &Value, key| row.get(key).and_then(Value::as_str).map(str::to_string);
        let rows = data.as_array().expect("F9's record is a list of rows");
        rows.iter()
            .filter(|row| {
                text(row, "protocol").as_deref() == Some(protocol)
                    && text(row, "run").as_deref() == Some(run)
            })
            .map(|row| {
                let phases = row.get("phases").and_then(Value::as_array).expect("phases");
                let phases = phases.iter().filter_map(Value::as_str).map(str::to_string);
                let round = row.get("round").and_then(Value::as_u64).expect("round");
                (round, phases.collect())
            })
            .collect()
    }

    fn labels(phases: &[CncPhase]) -> Vec<String> {
        phases.iter().map(|p| p.label().to_string()).collect()
    }

    #[test]
    fn f9_reads_the_four_phases_off_the_real_protocols() {
        use CncPhase::{Agreement, Decision, LeaderElection, ValueDiscovery};
        let data = f9_cnc().data;
        // The proposer's ballot runs all four phases in canonical order; the
        // learners' decision follows at round 0.
        let paxos = f9_rounds(&data, "Paxos", "fault-free");
        assert_eq!(
            paxos,
            [(1, labels(&CncPhase::ALL)), (0, labels(&[Decision]))]
        );
        // A fixed coordinator elects no one, and 2PC replicates no decision.
        let two_pc = f9_rounds(&data, "2PC", "fault-free");
        assert_eq!(two_pc, [(0, labels(&[ValueDiscovery, Decision]))]);
        let three_pc = f9_rounds(&data, "3PC", "fault-free");
        assert_eq!(
            three_pc,
            [(0, labels(&[ValueDiscovery, Agreement, Decision]))]
        );
        // A crash hands the decision to a new coordinator, which has to be
        // elected first.
        let crashes = [
            ("3PC", "crash after votes"),
            ("Paxos Commit", "F = 1, leader lost"),
        ];
        for (protocol, run) in crashes {
            let rounds = f9_rounds(&data, protocol, run);
            let later: Vec<_> = rounds.iter().filter(|(round, _)| *round >= 1).collect();
            assert!(
                !later.is_empty(),
                "{protocol}, {run}: only round 0 in {rounds:?}"
            );
            for (round, phases) in later {
                let first = phases.first().map(String::as_str);
                let at = format!("{protocol}, {run}, round {round}");
                assert_eq!(first, Some(LeaderElection.label()), "{at}");
            }
        }
    }

    /// Within every `(instance, round)` of a run, phases never go back in
    /// `CncPhase` order — the invariant F9's per-round sequences rely on.
    #[test]
    fn phases_never_go_backwards_within_a_round() {
        use std::collections::BTreeMap;
        let (lan, votes) = (NetConfig::lan, [true; 3]);
        let paxos_commit_crashes = [
            paxos_commit::CrashPoint::None,
            paxos_commit::CrashPoint::AfterVotes,
        ];
        let three_pc_crashes = [
            CrashPoint::None,
            CrashPoint::AfterVotes,
            CrashPoint::AfterPreCommit,
        ];
        for seed in 0..8 {
            let mut runs = vec![
                spans_of(paxos_sim(lan(), seed, 42)),
                spans_of(paxos_leader_crash(seed)),
            ];
            // F = 0 is 2PC.
            for f in [0, 1] {
                for cp in paxos_commit_crashes {
                    let pc = paxos_commit::build_with_crash(&votes, f, cp, lan(), seed);
                    runs.push(spans_of(pc));
                }
            }
            for cp in three_pc_crashes {
                runs.push(spans_of(three_phase::build(&votes, cp, lan(), seed)));
            }
            for trace in runs {
                let mut last = BTreeMap::new();
                for t in trace {
                    let TraceEvent::Span {
                        kind: simnet::SpanKind::Phase(phase),
                        instance,
                        round,
                    } = t.event
                    else {
                        continue;
                    };
                    let key = (t.kind, instance, round);
                    if let Some(before) = last.insert(key, phase) {
                        assert!(
                            before <= phase,
                            "seed {seed}: {before} then {phase} in {key:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cheap_experiments_render_their_text_from_the_record() {
        // The expensive ones run in `bench tables`.
        let cheap = ["f1", "f7", "f9", "t2", "t3", "t4", "f19", "f23"];
        for (id, title, run) in all_experiments() {
            if !cheap.contains(&id) {
                continue;
            }
            let report = run();
            let text = report.text(id, title).expect("the record renders");
            assert!(text.starts_with(&format!("## {} — {title}\n", id.to_uppercase())));
            let mut all = Vec::new();
            keys(&report.data, &mut all);
            assert!(!all.is_empty(), "{id}: an empty record");
            for key in all {
                assert!(text.contains(&key), "{id}: {key} is not in\n{text}");
            }
        }
    }
}
