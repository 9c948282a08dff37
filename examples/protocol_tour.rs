//! A guided tour through the tutorial's theory: the C&C framework, Paxos'
//! message flow and livelock, the PSL lower bound, Byzantine generals, and
//! FLP with its randomized escape hatch.
//!
//! ```sh
//! cargo run --example protocol_tour
//! ```

use std::collections::BTreeSet;

use forty::agreement::ben_or::run_ben_or;
use forty::agreement::flp::{run_voting, Scheduler};
use forty::agreement::oral_messages::{om, ConsistentLiar, ParitySplit, ATTACK};
use forty::agreement::interactive_consistency;
use forty::atomic_commit::three_phase::{self, CrashPoint};
use forty::atomic_commit::paxos_commit;
use forty::paxos::livelock::run_duel;
use forty::paxos::{PaxosNode, RetryPolicy};
use forty::simnet::{DropAll, NetConfig, Node, NodeId, Sim, SpanKind, Time, TraceEvent};

/// Runs `sim` to a settled state and lists the C&C phases its spans carry:
/// per round, in the order the round first appears, each phase once.
fn phases<N: Node>(mut sim: Sim<N>) -> String {
    sim.run_until(Time::from_secs(2));
    let mut rounds: Vec<(u64, Vec<&str>)> = Vec::new();
    for span in sim.spans() {
        let SpanKind::Phase(phase) = span.kind else {
            continue;
        };
        match rounds.iter_mut().find(|(round, _)| *round == span.round) {
            Some((_, seen)) if seen.contains(&phase.label()) => {}
            Some((_, seen)) => seen.push(phase.label()),
            None => rounds.push((span.round, vec![phase.label()])),
        }
    }
    let rounds: Vec<String> = rounds
        .iter()
        .map(|(round, seen)| format!("r{round}: {}", seen.join(" → ")))
        .collect();
    rounds.join("; ")
}

fn main() {
    // ---- 1. Single-decree Paxos, message flow --------------------------
    println!("── 1. Paxos message flow (prepare→ack→accept→accepted→decide)");
    let mut sim: Sim<PaxosNode> = Sim::new(NetConfig::synchronous(), 1);
    for _ in 0..3 {
        sim.add_node(PaxosNode::acceptor(3));
    }
    *sim.node_mut(NodeId(0)) = PaxosNode::proposer(3, 42, 0, RetryPolicy::Never);
    sim.record_trace(true);
    sim.run_until(Time::from_secs(1));
    for entry in sim
        .trace()
        .iter()
        .filter(|t| t.event == TraceEvent::Deliver)
        .take(10)
    {
        println!("   {}", entry.render());
    }
    println!("   decided: {:?} at every node", sim.node(NodeId(1)).decided);

    // ---- 2. The livelock figure ----------------------------------------
    println!();
    println!("── 2. Duelling proposers (the liveness figure)");
    let stuck = run_duel(RetryPolicy::Fixed(0), 100, 1);
    let fixed = run_duel(
        RetryPolicy::Randomized {
            min: 500,
            max: 5_000,
        },
        100,
        1,
    );
    println!(
        "   deterministic retry : {} attempts by each proposer, decided: {:?}",
        stuck.attempts_p1, stuck.decided
    );
    println!(
        "   randomized backoff  : {} + {} attempts, decided: {:?} ✓",
        fixed.attempts_p1, fixed.attempts_p2, fixed.decided
    );

    // ---- 3. The C&C framework ------------------------------------------
    println!();
    println!("── 3. C&C framework: the phases each protocol's own spans report, per round");
    let (lan, votes) = (NetConfig::lan, [true; 3]);
    let mut lost_leader = paxos_commit::build(&votes, 1, lan(), 5);
    lost_leader.set_filter(NodeId(0), Box::new(DropAll));
    lost_leader.crash_at(NodeId(0), Time(0));
    let three_pc = |cp| three_phase::build(&votes, cp, lan(), 5);
    for (name, seen) in [
        ("Paxos", phases(sim)),
        ("2PC (Paxos Commit F=0)", phases(paxos_commit::build(&votes, 0, lan(), 5))),
        ("3PC", phases(three_pc(CrashPoint::None))),
        ("3PC, coordinator crash", phases(three_pc(CrashPoint::AfterVotes))),
        ("Paxos Commit F=1", phases(paxos_commit::build(&votes, 1, lan(), 5))),
        ("Paxos Commit F=1, leader lost", phases(lost_leader)),
    ] {
        println!("   {name:<30} {seen}");
    }

    // ---- 4. PSL interactive consistency --------------------------------
    println!();
    println!("── 4. Pease–Shostak–Lamport: agreement iff N ≥ 3f+1");
    for n in [3usize, 4] {
        let values: Vec<u64> = (1..=n as u64).collect();
        let faulty: BTreeSet<usize> = [n - 1].into_iter().collect();
        let report = interactive_consistency(&values, &faulty, 1);
        println!(
            "   N = {n}, f = 1: agreement = {}, validity = {} {}",
            report.agreement,
            report.validity,
            if n >= 4 { "✓" } else { "✗ (below the bound)" }
        );
    }

    // ---- 5. Byzantine generals OM(m) ------------------------------------
    println!();
    println!("── 5. OM(m) Byzantine generals");
    let ok = om(4, 1, ATTACK, &[3].into_iter().collect(), &mut ParitySplit);
    let broken = om(3, 1, ATTACK, &[2].into_iter().collect(), &mut ConsistentLiar);
    println!(
        "   n=4, m=1: IC1 {} IC2 {} ({} messages)",
        ok.ic1, ok.ic2, ok.messages
    );
    println!(
        "   n=3, m=1: IC1 {} IC2 {} — three generals cannot handle one traitor",
        broken.ic1, broken.ic2
    );

    // ---- 6. FLP and the randomized escape --------------------------------
    println!();
    println!("── 6. FLP: the adversarial scheduler, and Ben-Or's coin");
    let fair = run_voting(6, Scheduler::Fair, 1_000);
    let adv = run_voting(6, Scheduler::Adversarial, 1_000);
    println!(
        "   deterministic voting: fair scheduler decides in {} rounds; the adversary keeps it undecided after {} rounds",
        fair.rounds, adv.rounds
    );
    let sim = run_ben_or(
        &[0, 1, 0, 1, 0, 1],
        2,
        &[],
        NetConfig::asynchronous(),
        3,
        Time::from_secs(60),
    );
    let decided: Vec<_> = sim.nodes().filter_map(|(_, n)| n.decided).collect();
    let flips: u64 = sim.nodes().map(|(_, n)| n.coin_flips).sum();
    println!(
        "   Ben-Or (randomized), split inputs, async net: everyone decided {:?} after {} coin flips",
        decided[0], flips
    );
}
