//! Plan execution: drives a [`FaultPlan`] through a live simulation.
//!
//! Point faults (crash/restart/partition/heal) are pre-scheduled on the
//! simulator's event queue. Windowed faults (Byzantine filters, loss and
//! duplicate bursts) have no queue representation — the executor advances
//! the run in segments, flipping filters and the loss and duplication
//! probabilities at each window edge.
//! Everything stays deterministic: segment boundaries are fixed times, and
//! `run_until` is exact.
//!
//! One execution may process at most [`EVENT_BUDGET`] simulator events,
//! counted across all its segments; a message storm that spends it ends
//! the run early and is reported as [`BudgetSpent`], which the targets
//! turn into an `event-budget` violation. The store targets do not come
//! through here: they keep their own step loop, bounded by simulated time.

use simnet::{Filter, Node, NodeId, RunOutcome, Sim, Time};

use crate::checker::Violation;
use crate::plan::{FaultAction, FaultPlan};

/// Simulator events one plan execution may process, all segments together:
/// over 80 times the most any passing trial of `nemesis --seeds 200` used
/// (1 167, `raft` seed 69).
pub const EVENT_BUDGET: u64 = 100_000;

/// A plan execution spent its [`EVENT_BUDGET`] before its horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetSpent {
    /// Simulated time (µs) the run had reached.
    pub at: u64,
}

impl BudgetSpent {
    /// The violation a target reports: a storm that would otherwise run to
    /// the horizon silently.
    pub fn violation(self) -> Violation {
        Violation {
            check: "event-budget",
            detail: format!("{EVENT_BUDGET} simulator events spent by t={}µs", self.at),
        }
    }
}

/// Which kind of Byzantine window is opening (the protocol adapter decides
/// what filter implements it for its message type).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowKind {
    /// Omission: drop all outbound messages.
    Mute,
    /// Equivocation: per-destination lies.
    Equivocate,
}

enum Edge {
    FilterOn(WindowKind, u32),
    FilterOff(u32),
    LossOn(u32),
    LossOff,
    DuplicateOn(u32),
    DuplicateOff,
}

/// Executes `plan` against `sim` up to `horizon` µs.
///
/// `base_drop_prob` is the network's configured loss probability, restored
/// when a loss burst ends; a duplicate burst's end restores the duplication
/// probability `sim` had on entry. `make_filter` maps a Byzantine window onto a
/// concrete outbound filter for the protocol's message type; returning
/// `None` skips the window (e.g. a crash-fault adapter that should never
/// see one). Stops early with [`BudgetSpent`] once the run has processed
/// [`EVENT_BUDGET`] events.
pub fn execute_plan<N, F>(
    sim: &mut Sim<N>,
    plan: &FaultPlan,
    horizon: u64,
    base_drop_prob: f64,
    mut make_filter: F,
) -> Result<(), BudgetSpent>
where
    N: Node,
    F: FnMut(WindowKind, NodeId) -> Option<Box<dyn Filter<N::Msg>>>,
{
    let spent_at = sim.events_processed() + EVENT_BUDGET;
    let base_duplicate_prob = sim.duplicate_prob();
    // Point faults go straight onto the event queue.
    let mut edges: Vec<(u64, u8, Edge)> = Vec::new();
    for action in &plan.actions {
        match action {
            FaultAction::Crash { node, at } => sim.crash_at(NodeId(*node), Time(*at)),
            FaultAction::Restart { node, at } => sim.restart_at(NodeId(*node), Time(*at)),
            FaultAction::Partition { at, group } => {
                let side: Vec<NodeId> = group.iter().map(|&n| NodeId(n)).collect();
                // Nodes absent from every group form the implicit other side.
                sim.partition_at(Time(*at), vec![side]);
            }
            FaultAction::Heal { at } => sim.heal_at(Time(*at)),
            FaultAction::Mute { node, from, until } => {
                edges.push((*from, 0, Edge::FilterOn(WindowKind::Mute, *node)));
                edges.push((*until, 1, Edge::FilterOff(*node)));
            }
            FaultAction::Equivocate { node, from, until } => {
                edges.push((*from, 0, Edge::FilterOn(WindowKind::Equivocate, *node)));
                edges.push((*until, 1, Edge::FilterOff(*node)));
            }
            FaultAction::LossBurst {
                from,
                until,
                permille,
            } => {
                edges.push((*from, 0, Edge::LossOn(*permille)));
                edges.push((*until, 1, Edge::LossOff));
            }
            FaultAction::DuplicateBurst {
                from,
                until,
                permille,
            } => {
                edges.push((*from, 0, Edge::DuplicateOn(*permille)));
                edges.push((*until, 1, Edge::DuplicateOff));
            }
        }
    }

    // Window edges: closes sort before opens at equal times via the tag, so
    // back-to-back windows hand over cleanly.
    edges.sort_by_key(|(t, tag, _)| (*t, std::cmp::Reverse(*tag)));

    for (t, _, edge) in edges {
        run_to(sim, t.min(horizon), spent_at)?;
        match edge {
            Edge::FilterOn(kind, node) => {
                if let Some(filter) = make_filter(kind, NodeId(node)) {
                    sim.set_filter(NodeId(node), filter);
                }
            }
            Edge::FilterOff(node) => sim.clear_filter(NodeId(node)),
            Edge::LossOn(permille) => sim.set_drop_prob(f64::from(permille) / 1000.0),
            Edge::LossOff => sim.set_drop_prob(base_drop_prob),
            Edge::DuplicateOn(permille) => sim.set_duplicate_prob(f64::from(permille) / 1000.0),
            Edge::DuplicateOff => sim.set_duplicate_prob(base_duplicate_prob),
        }
    }
    run_to(sim, horizon, spent_at)
}

/// Advances the simulation to absolute time `t`, pushing through protocol
/// `stop()` requests (a node declaring itself done must not end the trial),
/// unless the event count reaches `spent_at` first.
fn run_to<N: Node>(sim: &mut Sim<N>, t: u64, spent_at: u64) -> Result<(), BudgetSpent> {
    if sim.now() >= Time(t) {
        return Ok(());
    }
    let cap = sim.max_events();
    let mut guard = 0u32;
    loop {
        sim.set_max_events(spent_at.saturating_sub(sim.events_processed()));
        let outcome = sim.run_until(Time(t));
        sim.set_max_events(cap);
        match outcome {
            // Past 10 000, a stop() storm; the harvest judges what happened.
            RunOutcome::Stopped if guard < 10_000 => guard += 1,
            RunOutcome::EventLimit => return Err(BudgetSpent { at: sim.now().0 }),
            _ => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Context, DropAll, NetConfig, Payload};

    #[derive(Clone, Debug)]
    struct Tick;
    impl Payload for Tick {}

    /// Every 10ms node 0 sends a tick to node 1, which counts arrivals.
    struct Ticker {
        got: u64,
    }
    impl Node for Ticker {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Context<Tick>) {
            if ctx.id() == NodeId(0) {
                ctx.set_timer(10_000, 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<Tick>, _f: NodeId, _m: Tick) {
            self.got += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<Tick>, _t: simnet::Timer) {
            ctx.send(NodeId(1), Tick);
            ctx.set_timer(10_000, 0);
        }
    }

    fn ticker_sim(seed: u64) -> Sim<Ticker> {
        let mut sim = Sim::new(NetConfig::synchronous(), seed);
        sim.add_node(Ticker { got: 0 });
        sim.add_node(Ticker { got: 0 });
        sim
    }

    #[test]
    fn windows_toggle_filters_and_loss() {
        // Mute node 0 for ticks 3..6 (window 25ms–55ms): arrivals 1,2,6,7,8.
        let mut sim = ticker_sim(1);
        let plan = FaultPlan {
            actions: vec![FaultAction::Mute {
                node: 0,
                from: 25_000,
                until: 55_000,
            }],
        };
        execute_plan(&mut sim, &plan, 85_000, 0.0, |kind, _| {
            assert_eq!(kind, WindowKind::Mute);
            Some(Box::new(DropAll))
        })
        .expect("within budget");
        assert_eq!(sim.node(NodeId(1)).got, 5);
        assert_eq!(sim.metrics().dropped_filter, 3);

        // A total-loss burst over the same window behaves identically at
        // the receiver but counts as random loss.
        let mut sim = ticker_sim(2);
        let plan = FaultPlan {
            actions: vec![FaultAction::LossBurst {
                from: 25_000,
                until: 55_000,
                permille: 1000,
            }],
        };
        execute_plan(&mut sim, &plan, 85_000, 0.0, |_, _| None).expect("within budget");
        assert_eq!(sim.node(NodeId(1)).got, 5);
        assert_eq!(sim.metrics().dropped_loss, 3);
    }

    #[test]
    fn duplicate_windows_double_deliveries_then_restore_the_network() {
        // Duplicate every message for ticks 3..6 (window 25ms–55ms): the
        // ticks at 30, 40 and 50ms arrive twice, the other five once.
        let mut sim = ticker_sim(4);
        let plan = FaultPlan {
            actions: vec![FaultAction::DuplicateBurst {
                from: 25_000,
                until: 55_000,
                permille: 1000,
            }],
        };
        execute_plan(&mut sim, &plan, 85_000, 0.0, |_, _| None).expect("within budget");
        assert_eq!(sim.node(NodeId(1)).got, 8 + 3);
        assert_eq!(sim.metrics().duplicated, 3);
        assert_eq!(sim.duplicate_prob(), 0.0, "the window's close restores it");

        // A network configured to duplicate gets its own rate back.
        let mut sim: Sim<Ticker> = Sim::new(NetConfig::synchronous().with_duplicate_prob(0.25), 5);
        sim.add_node(Ticker { got: 0 });
        sim.add_node(Ticker { got: 0 });
        execute_plan(&mut sim, &plan, 85_000, 0.0, |_, _| None).expect("within budget");
        assert_eq!(sim.duplicate_prob(), 0.25);
    }

    /// Node 0 serves once and each node returns every ball it gets: a rally
    /// that never quiesces, one delivery every 500 µs.
    struct Echo;
    impl Node for Echo {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Context<Tick>) {
            if ctx.id() == NodeId(0) {
                ctx.send(NodeId(1), Tick);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Tick>, from: NodeId, _m: Tick) {
            ctx.send(from, Tick);
        }
        fn on_timer(&mut self, _ctx: &mut Context<Tick>, _t: simnet::Timer) {}
    }

    #[test]
    fn one_budget_spans_every_segment_of_a_plan() {
        // The rally delivers once every 500 µs. A window that changes
        // nothing cuts a 60 s run into three 20 s segments of 40 000
        // deliveries: no segment alone spends the budget, the run does.
        let plan = FaultPlan {
            actions: vec![FaultAction::LossBurst {
                from: 20_000_000,
                until: 40_000_000,
                permille: 0,
            }],
        };
        let echo = || {
            let mut sim: Sim<Echo> = Sim::new(NetConfig::synchronous(), 6);
            sim.add_node(Echo);
            sim.add_node(Echo);
            sim
        };
        let mut sim = echo();
        let cap = sim.max_events();
        let spent = execute_plan(&mut sim, &plan, 60_000_000, 0.0, |_, _| None)
            .expect_err("the rally outlasts the budget");
        assert_eq!(sim.events_processed(), EVENT_BUDGET);
        assert!(
            (45_000_000..55_000_000).contains(&spent.at),
            "spent at {}",
            spent.at
        );
        assert_eq!(sim.max_events(), cap, "the simulator's own cap is restored");
        assert_eq!(spent.violation().check, "event-budget");

        let mut sim = echo();
        let within = execute_plan(&mut sim, &plan, 45_000_000, 0.0, |_, _| None);
        assert_eq!(within, Ok(()));
        assert_eq!(sim.now(), Time(45_000_000));
    }

    #[test]
    fn point_faults_are_scheduled() {
        let mut sim = ticker_sim(3);
        let plan = FaultPlan {
            actions: vec![
                FaultAction::Crash {
                    node: 1,
                    at: 15_000,
                },
                FaultAction::Restart {
                    node: 1,
                    at: 45_000,
                },
                FaultAction::Partition {
                    at: 55_000,
                    group: vec![0],
                },
                FaultAction::Heal { at: 75_000 },
            ],
        };
        execute_plan(&mut sim, &plan, 95_000, 0.0, |_, _| None).expect("within budget");
        let m = sim.metrics();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.restarts, 1);
        // Ticks at 20,30,40ms hit a dead node; 60,70ms hit the partition;
        // 10,50,80,90ms arrive.
        assert_eq!(m.dropped_dead, 3);
        assert_eq!(m.dropped_partition, 2);
        assert_eq!(sim.node(NodeId(1)).got, 4);
    }
}
