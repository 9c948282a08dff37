//! # nemesis — randomized fault-schedule exploration with history-based
//! safety checking
//!
//! A Jepsen-style test harness for the protocol zoo, built on the
//! deterministic simulator: draw a random-but-replayable fault schedule from
//! each protocol's declared fault model, run the protocol under it, harvest
//! the client-visible history and per-node decisions, and check the safety
//! properties the survey says must hold *regardless of scheduling* —
//! agreement, validity, integrity, state-machine consistency,
//! linearizability, and atomic-commit consistency. Liveness is explicitly
//! not checked: an adversarial schedule may legally starve progress.
//!
//! Because the whole trial is a pure function of `(protocol, seed, plan)`,
//! a violating schedule can be **shrunk** — greedily dropping actions while
//! the failure persists — into a minimal counterexample, serialized to
//! JSON, and replayed bit-for-bit anywhere.
//!
//! Module map:
//!
//! * [`plan`] — fault actions, schedules, per-protocol fault specs, and the
//!   seeded generator.
//! * [`exec`] — drives a plan through a live [`simnet::Sim`].
//! * [`checker`] — history-based safety checks shared across protocols.
//! * [`lin`] — Wing–Gill linearizability checking for the KV machine.
//! * [`targets`] — one adapter per protocol (Multi-Paxos, Raft, PBFT, 2PC,
//!   3PC, Ben-Or, and the sharded store over either SMR engine) plus the
//!   deliberately broken Flexible-Paxos and early-write store
//!   configurations that prove the engine catches real bugs.
//! * [`engine`] — sweeps, shrinking, counterexample (de)serialization, and
//!   replay.

pub mod checker;
pub mod engine;
pub mod exec;
pub mod lin;
pub mod plan;
pub mod targets;

pub use checker::{DecidedEntry, Violation};
pub use engine::{
    quiet_panics, replay, run_plan, run_trial, shrink, sweep, Counterexample, Failure, SweepResult,
};
pub use exec::{execute_plan, BudgetSpent, WindowKind, EVENT_BUDGET};
pub use lin::check_linearizable;
pub use plan::{generate, FaultAction, FaultPlan, FaultSpec};
pub use targets::{
    by_name, harvest, injected_bug_target, smr_safety, store_injected_bug_target, targets,
    RunReport, Target,
};
