//! The exploration engine: run trials, sweep seeds, shrink violating plans
//! to minimal counterexamples, and replay stored artifacts.

use std::panic::{self, AssertUnwindSafe};

use serde_json::Value;

use crate::checker::Violation;
use crate::plan::{generate, FaultAction, FaultPlan};
use crate::targets::{RunReport, Target};

/// Runs one trial, converting a panic inside the protocol or a checker into
/// a reported violation — several drivers assert safety internally (e.g.
/// `ReplicatedLog::decide` panics on a conflicting re-decision), and those
/// detections are findings, not crashes.
pub fn run_plan(target: &dyn Target, seed: u64, plan: &FaultPlan) -> RunReport {
    match panic::catch_unwind(AssertUnwindSafe(|| target.run(seed, plan))) {
        Ok(report) => report,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            RunReport {
                violations: vec![Violation {
                    check: "panic",
                    detail: msg,
                }],
                ops: 0,
            }
        }
    }
}

/// Generates the plan for `seed` from the target's declared fault model and
/// runs it.
pub fn run_trial(target: &dyn Target, seed: u64) -> (FaultPlan, RunReport) {
    let plan = generate(&target.fault_spec(), seed);
    let report = run_plan(target, seed, &plan);
    (plan, report)
}

/// Silences the default panic hook while `f` runs. Expected-panic trials
/// (the injected bug, shrinking) would otherwise spam stderr with backtraces
/// for panics that `run_plan` converts into findings.
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(hook);
    out
}

/// One seed's failure within a sweep.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The violating seed.
    pub seed: u64,
    /// The generated plan (pre-shrink).
    pub plan: FaultPlan,
    /// What the checkers reported.
    pub violations: Vec<Violation>,
}

/// Aggregate result of sweeping one target across seeds.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Target name.
    pub protocol: String,
    /// Trials executed.
    pub trials: usize,
    /// Total client ops completed across trials.
    pub ops: usize,
    /// Seeds whose trials violated safety.
    pub failures: Vec<Failure>,
}

/// Runs `target` against every seed in `seeds`.
pub fn sweep(target: &dyn Target, seeds: impl IntoIterator<Item = u64>) -> SweepResult {
    let mut result = SweepResult {
        protocol: target.name().to_string(),
        trials: 0,
        ops: 0,
        failures: Vec::new(),
    };
    for seed in seeds {
        let (plan, report) = run_trial(target, seed);
        result.trials += 1;
        result.ops += report.ops;
        if !report.violations.is_empty() {
            result.failures.push(Failure {
                seed,
                plan,
                violations: report.violations,
            });
        }
    }
    result
}

/// Removes the action at `i`, plus — when it is a `Crash` — the first later
/// `Restart` of the same node, so shrinking never produces the nonsensical
/// "restart a node that never crashed". Leftover `Heal`s without a partition
/// are harmless no-ops and need no pairing.
fn without_action(plan: &FaultPlan, i: usize) -> FaultPlan {
    let mut actions = plan.actions.clone();
    let removed = actions.remove(i);
    if let FaultAction::Crash { node, at } = removed {
        if let Some(j) = actions.iter().position(
            |a| matches!(a, FaultAction::Restart { node: n, at: r } if *n == node && *r > at),
        ) {
            actions.remove(j);
        }
    }
    FaultPlan { actions }
}

/// Greedily minimizes a violating plan: repeatedly drop any single action
/// (with its dependent restart) whose removal keeps the trial failing, until
/// no further removal does. The result is a locally minimal counterexample —
/// every remaining action is necessary for the failure.
pub fn shrink(target: &dyn Target, seed: u64, plan: &FaultPlan) -> FaultPlan {
    let mut current = plan.clone();
    loop {
        let mut reduced = None;
        for i in 0..current.actions.len() {
            let candidate = without_action(&current, i);
            if !run_plan(target, seed, &candidate).violations.is_empty() {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => current = c,
            None => return current,
        }
    }
}

/// A serialized minimal counterexample: everything needed to reproduce a
/// violation bit-for-bit on any machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Target name (resolved via [`crate::targets::by_name`] on replay).
    pub protocol: String,
    /// The violating seed.
    pub seed: u64,
    /// The (shrunk) fault plan.
    pub plan: FaultPlan,
    /// Violations observed when the artifact was produced.
    pub violations: Vec<String>,
}

impl Counterexample {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let v = serde_json::json!({
            "protocol": self.protocol.clone(),
            "seed": self.seed,
            "plan": self.plan.to_value(),
            "violations": self.violations.clone(),
        });
        serde_json::to_string_pretty(&v).unwrap()
    }

    /// Parses the JSON produced by [`Counterexample::to_json`].
    pub fn from_json(text: &str) -> Result<Counterexample, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e:?}"))?;
        let protocol = v
            .get("protocol")
            .and_then(Value::as_str)
            .ok_or("missing protocol")?
            .to_string();
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("missing seed")?;
        let plan = FaultPlan::from_value(v.get("plan").ok_or("missing plan")?)?;
        let violations = v
            .get("violations")
            .and_then(Value::as_array)
            .ok_or("missing violations")?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or("bad violation entry"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Counterexample {
            protocol,
            seed,
            plan,
            violations,
        })
    }
}

/// Re-runs a stored counterexample. Returns the violations observed now —
/// determinism means they match the stored ones exactly.
pub fn replay(target: &dyn Target, cx: &Counterexample) -> Vec<String> {
    run_plan(target, cx.seed, &cx.plan)
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    /// A toy target that fails iff the plan crashes node 0 AND node 1.
    struct Toy;
    impl Target for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn fault_spec(&self) -> FaultSpec {
            FaultSpec {
                nodes: 3,
                max_crash_nodes: 3,
                allow_restart: true,
                allow_partition: true,
                allow_loss: true,
                max_byzantine: 0,
                allow_equivocation: false,
                allow_duplicate: false,
                horizon: 1_000_000,
            }
        }
        fn run(&self, _seed: u64, plan: &FaultPlan) -> RunReport {
            let crashed = |n: u32| {
                plan.actions
                    .iter()
                    .any(|a| matches!(a, FaultAction::Crash { node, .. } if *node == n))
            };
            let violations = if crashed(0) && crashed(1) {
                vec![Violation {
                    check: "toy",
                    detail: "both down".to_string(),
                }]
            } else {
                Vec::new()
            };
            RunReport { violations, ops: 1 }
        }
    }

    /// A target that panics on any plan (exercises catch_unwind).
    struct Panicky;
    impl Target for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn fault_spec(&self) -> FaultSpec {
            Toy.fault_spec()
        }
        fn run(&self, _seed: u64, _plan: &FaultPlan) -> RunReport {
            panic!("safety violation: slot 3 decided twice");
        }
    }

    fn crash(node: u32, at: u64) -> FaultAction {
        FaultAction::Crash { node, at }
    }

    #[test]
    fn shrink_reaches_the_minimal_core() {
        let plan = FaultPlan {
            actions: vec![
                crash(0, 10),
                FaultAction::Restart { node: 0, at: 500 },
                crash(1, 20),
                crash(2, 30),
                FaultAction::Heal { at: 40 },
                FaultAction::LossBurst {
                    from: 0,
                    until: 100,
                    permille: 500,
                },
            ],
        };
        assert!(!run_plan(&Toy, 0, &plan).violations.is_empty());
        let shrunk = shrink(&Toy, 0, &plan);
        // Exactly the two necessary crashes survive; the paired restart
        // went away with nothing left to pair to.
        assert_eq!(shrunk.actions, vec![crash(0, 10), crash(1, 20)]);
        assert!(!run_plan(&Toy, 0, &shrunk).violations.is_empty());
    }

    #[test]
    fn panics_become_findings() {
        let report = quiet_panics(|| run_plan(&Panicky, 0, &FaultPlan::default()));
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].check, "panic");
        assert!(report.violations[0].detail.contains("decided twice"));
    }

    #[test]
    fn sweep_collects_failures() {
        // Toy's generated plans sometimes crash both 0 and 1; sweep must
        // report exactly those seeds as failures.
        let result = sweep(&Toy, 0..50);
        assert_eq!(result.trials, 50);
        assert!(!result.failures.is_empty(), "no failing seed in 50");
        for f in &result.failures {
            assert!(!run_plan(&Toy, f.seed, &f.plan).violations.is_empty());
        }
    }

    #[test]
    fn counterexample_round_trips() {
        let cx = Counterexample {
            protocol: "toy".to_string(),
            seed: 42,
            plan: FaultPlan {
                actions: vec![crash(0, 10), crash(1, 20)],
            },
            violations: vec!["[toy] both down".to_string()],
        };
        let back = Counterexample::from_json(&cx.to_json()).unwrap();
        assert_eq!(back, cx);
        assert_eq!(replay(&Toy, &back), cx.violations);
        assert!(Counterexample::from_json("{\"seed\": 1}").is_err());
        assert!(Counterexample::from_json("not json").is_err());
    }
}
