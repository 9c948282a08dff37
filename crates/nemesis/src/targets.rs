//! Protocol adapters: each wraps one cluster driver behind the uniform
//! [`Target`] interface the nemesis engine explores.
//!
//! An adapter declares its [`FaultSpec`] — the simulator-level projection of
//! the protocol's taxonomy card (which faults its *safety* argument claims
//! to survive) — and knows how to run one trial and harvest the evidence the
//! checkers consume: decided log entries, state digests, client histories,
//! final transaction states. The nemesis never reads protocol internals
//! beyond these harvests, so adding a protocol means writing one adapter.
//!
//! Fault menus per protocol:
//!
//! | target       | crash | restart | partition | loss | duplicate | Byzantine |
//! |--------------|-------|---------|-----------|------|-----------|-----------|
//! | paxos        | any   | yes     | yes       | yes  | yes       | —         |
//! | raft         | any   | yes     | yes       | yes  | yes       | —         |
//! | pbft         | any   | yes     | yes       | yes  | yes       | ≤ f = 1   |
//! | 2pc          | ≤ 2   | no      | no        | yes  | no        | —         |
//! | 3pc          | ≤ 1   | no      | no        | no   | no        | —         |
//! | paxos-commit | ≤ F=1 | no      | no        | yes  | no        | —         |
//! | ben-or       | ≤ f=1 | no      | no        | yes  | no        | —         |
//! | store-*      | any   | yes     | yes       | yes  | no        | —         |
//!
//! A protocol's Byzantine menu is its lie: an SMR row gets Byzantine
//! windows exactly when its protocol declares
//! [`SmrProtocol::equivocation_filter`] (today PBFT). Duplication stays off
//! the commit rows and Ben-Or, whose menus are crash-stop (Ben-Or also
//! counts report multiplicity), and off the store rows, whose step loop has
//! no store-wide duplicate setter.
//!
//! `paxos-commit` probes Gray & Lamport's non-blocking atomic commit at
//! `F = 1` (3 acceptors, coordinators co-located on the first 2, 3 RMs):
//! unlike 2PC, its safety *and* termination claims survive any single
//! crash — including the leader coordinator inside 2PC's blocking window —
//! so the nemesis may kill any one node. `2pc` is the same protocol at
//! `F = 0` (one coordinator-acceptor, 3 RMs).
//!
//! The `store-paxos` / `store-raft` targets probe the full sharded store
//! (`forty-store`): faultable nodes are every shard replica *and* every
//! router — a router crash is precisely the 2PC-coordinator crash that
//! blocks unreplicated 2PC. On top of the per-shard SMR battery they check
//! store-level linearizability of the merged client history, cross-shard
//! transactional atomicity ([`crate::checker::check_txn_atomicity`]), and
//! range-scan consistency of the fanned-out `Range` queries
//! ([`crate::checker::check_range_consistency`]). `store-paxos-durable` and
//! `store-raft-durable` run the same battery with durable shard storage
//! attached, so every crash/restart in a plan drives the real recovery path
//! (checkpoint load + WAL replay) instead of the RAM-durability model — for
//! Raft that is hard-state persistence, log WAL records, and snapshot
//! install, exactly as for Multi-Paxos.
//!
//! Every row but the store's runs its plan through
//! [`execute_plan`](crate::exec::execute_plan), whose event budget turns a
//! message storm into an `event-budget` violation. The store rows keep
//! their own step loop, bounded by a simulated-time cap.
//!
//! `store-geo` runs the geo deployment: three regions on a WAN topology,
//! primary+witness shard placement, a router per region, and the
//! region-local fast-read path (leader leases on Multi-Paxos). On top of
//! whatever the plan schedules, every `store-geo` trial injects its own
//! built-in adversity — seed-derived lease-edge clock skews straddling the
//! lease safety bound, plus one region partition window — because those are
//! precisely the conditions under which a buggy lease would serve a stale
//! read. Stale fast reads surface as linearizability violations in the
//! merged client history, so the standard battery is the oracle: the target
//! passes only if no schedule ever yields a stale linearizable read.
//!
//! The three SMR targets also register `+batch` variants (same fault menu)
//! that run the replicas under a real batching/pipelining configuration —
//! multi-command slots and bounded in-flight windows open failure modes
//! (partial batch re-proposal, pipeline holes after a leader crash) that
//! the unbatched configuration cannot reach.
//!
//! 3PC's menu is deliberately narrow: the protocol is *known* unsafe under
//! partitions and unbounded asynchrony (that is its lesson in the survey),
//! so the nemesis only probes the crash model it actually claims. Ben-Or
//! excludes restarts because a restarted node re-broadcasts its current
//! round's report, and the implementation counts report multiplicity.

use std::collections::BTreeSet;

use agreement::ben_or::BenOrNode;
use atomic_commit::three_phase::{self, CrashPoint};
use atomic_commit::TxnState;
use bft::pbft::Pbft;
use consensus_core::{
    BatchConfig, ClientRecord, Cluster, ClusterDriver, DriverConfig, QuorumSpec, SmrProtocol,
};
use paxos::multi::{MultiPaxos, MultiPaxosCluster};
use raft::Raft;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use simnet::{NetConfig, NodeId, Sim};

use crate::checker::{
    check_atomic_commit, check_binary_agreement, check_integrity, check_log_agreement,
    check_range_consistency, check_state_digests, check_txn_atomicity, check_validity,
    DecidedEntry, Violation,
};
use crate::exec::{execute_plan, BudgetSpent, WindowKind};
use crate::lin::{check_linearizable, DEFAULT_BUDGET};
use crate::plan::{FaultAction, FaultPlan, FaultSpec};
use store::{GeoConfig, RouterCrashPoint, ShardEngine, Store, StoreConfig};

/// Domain-separation salt for seed-derived workload parameters (votes,
/// Ben-Or inputs) so they are independent of both the simulator's and the
/// plan generator's randomness.
const WORKLOAD_SALT: u64 = 0x776b_6c64; // "wkld"

/// Outcome of one trial.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Safety violations found by the checkers (empty = pass).
    pub violations: Vec<Violation>,
    /// Client operations completed (progress indicator, not a check).
    pub ops: usize,
}

/// One protocol under nemesis exploration.
pub trait Target {
    /// Stable name used in verdict tables and counterexample files.
    fn name(&self) -> &'static str;
    /// The fault model this protocol's safety claims to survive.
    fn fault_spec(&self) -> FaultSpec;
    /// Runs one trial: build the cluster from `seed`, execute `plan`,
    /// harvest, and check. Must be a pure function of `(seed, plan)`.
    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport;
    /// Re-runs `(seed, plan)` with trace recording enabled and renders the
    /// run as Chrome `trace_event` JSON — the timeline a counterexample's
    /// fault schedule plays out on (`--trace-out` on replay). Recording
    /// never perturbs timing or RNG draws, so the traced run is
    /// bit-identical to the one [`Target::run`] checked. `None` for targets
    /// without a trace hook.
    fn trace_json(&self, _seed: u64, _plan: &FaultPlan) -> Option<String> {
        None
    }
}

/// The batching knob the `+batch` targets run under: small batches with a
/// real accumulation delay and a bounded pipeline window, so fault schedules
/// land while multi-command slots and in-flight pipelines are live.
const NEMESIS_BATCH: BatchConfig = BatchConfig::new(4, 300, 4);

/// All legitimate targets, in verdict-table order. Each SMR protocol
/// appears twice: unbatched (the historical configuration) and under
/// [`NEMESIS_BATCH`] — safety must hold for every knob setting.
pub fn targets() -> Vec<Box<dyn Target>> {
    let unbatched = BatchConfig::unbatched();
    vec![
        smr::<MultiPaxos>("paxos", 5, 6, unbatched),
        smr::<MultiPaxos>("paxos+batch", 5, 6, NEMESIS_BATCH),
        smr::<Raft>("raft", 5, 6, unbatched),
        smr::<Raft>("raft+batch", 5, 6, NEMESIS_BATCH),
        smr::<Pbft>("pbft", 4, 5, unbatched),
        smr::<Pbft>("pbft+batch", 4, 5, NEMESIS_BATCH),
        paxos_commit::<0>("2pc", 2),
        three_pc(),
        paxos_commit::<1>("paxos-commit", 1),
        ben_or(),
        store::<MultiPaxosCluster>("store-paxos", false, false, false),
        store::<raft::RaftCluster>("store-raft", false, false, false),
        store::<MultiPaxosCluster>("store-paxos-durable", false, true, false),
        store::<raft::RaftCluster>("store-raft-durable", false, true, false),
        store::<MultiPaxosCluster>("store-geo", false, false, true),
    ]
}

/// The deliberately broken Flexible-Paxos configuration (`q1 + q2 ≤ n`, so
/// election and replication quorums need not intersect: a new leader's
/// prepare quorum can miss every acceptor that voted in a decided
/// replication quorum). Used to prove the nemesis catches real safety bugs;
/// never part of [`targets`].
pub fn injected_bug_target() -> Box<dyn Target> {
    Box::new(SmrTarget::<MultiPaxos> {
        name: "paxos-buggy",
        shape: QuorumSpec::Flexible { n: 5, q1: 2, q2: 2 },
        nodes: 5,
        cmds: 6,
        batch: BatchConfig::unbatched(),
    })
}

/// The deliberately broken store: the 2PC coordinator disseminates a
/// transaction's data writes *before* its decision entry is replicated,
/// and the trial crashes one router inside that window. Proves the
/// atomicity checker catches real cross-shard bugs; never part of
/// [`targets`].
pub fn store_injected_bug_target() -> Box<dyn Target> {
    store::<MultiPaxosCluster>("store-buggy", true, false, false)
}

/// Resolves a target by name, including the injected-bug targets (so stored
/// counterexamples can be replayed).
pub fn by_name(name: &str) -> Option<Box<dyn Target>> {
    let bugs = [injected_bug_target(), store_injected_bug_target()];
    targets().into_iter().chain(bugs).find(|t| t.name() == name)
}

// ---------------------------------------------------------------------------
// Harvest helpers — also used by integration tests that drive clusters by
// hand and want the same checker-ready evidence the targets collect.
// ---------------------------------------------------------------------------

/// Harvests every replica's decided entries (batched slots flattened to
/// one entry per command by the driver) plus `(node, applied_len, digest)`
/// triples for the state-machine consistency check.
pub fn harvest<D: ClusterDriver>(cluster: &D) -> (Vec<DecidedEntry>, Vec<(u32, u64, u64)>) {
    (cluster.decided_log(), cluster.state_digests())
}

/// The full SMR safety battery: log agreement, integrity, state-machine
/// consistency, linearizability — and validity when an issued-set is given
/// (PBFT passes `None`: the simulated crypto has no client signatures, so a
/// Byzantine primary injecting an invented request is in-model).
pub fn smr_safety(
    entries: &[DecidedEntry],
    digests: &[(u32, u64, u64)],
    history: &[ClientRecord],
    issued: Option<&BTreeSet<(u32, u64)>>,
) -> Vec<Violation> {
    let mut violations = check_log_agreement(entries);
    if let Some(issued) = issued {
        violations.extend(check_validity(entries, issued));
    }
    violations.extend(check_integrity(entries));
    violations.extend(check_state_digests(digests));
    violations.extend(check_linearizable(history, DEFAULT_BUDGET));
    violations
}

// Horizons are deliberately tight: `generate` draws fault times from the
// first half-ish of the horizon, so the horizon must be commensurate with
// the workload (elections ~40–100ms, a dozen closed-loop ops ~100–200ms of
// simulated time) for faults to actually land *during* the interesting
// window rather than after the run has quiesced.
const SMR_HORIZON: u64 = 600_000;
const COMMIT_HORIZON: u64 = 200_000;
const BEN_OR_HORIZON: u64 = 200_000;

/// The crash-recovery menu of the SMR rows: any crash, restarts,
/// partitions, loss and duplication.
fn smr_spec(nodes: u32) -> FaultSpec {
    FaultSpec {
        nodes,
        max_crash_nodes: nodes,
        allow_restart: true,
        allow_partition: true,
        allow_loss: true,
        max_byzantine: 0,
        allow_equivocation: false,
        allow_duplicate: true,
        horizon: SMR_HORIZON,
    }
}

// ---------------------------------------------------------------------------
// The SMR protocols: Multi-Paxos, Raft, PBFT
// ---------------------------------------------------------------------------

/// One log protocol under test: `nodes` replicas of `shape` and two
/// closed-loop clients issuing `cmds` commands each.
struct SmrTarget<P: SmrProtocol> {
    name: &'static str,
    shape: P::Shape,
    nodes: usize,
    cmds: usize,
    /// Batching knob for the replicas under test.
    batch: BatchConfig,
}

/// `nodes` replicas in the protocol's default shape (majority quorums).
fn smr<P: SmrProtocol>(
    name: &'static str,
    nodes: usize,
    cmds: usize,
    batch: BatchConfig,
) -> Box<dyn Target>
where
    P::Shape: From<usize>,
{
    Box::new(SmrTarget::<P> {
        name,
        shape: P::Shape::from(nodes),
        nodes,
        cmds,
        batch,
    })
}

impl<P: SmrProtocol> SmrTarget<P> {
    /// Whether the protocol claims to survive `f = 1` Byzantine replica:
    /// it declares a lie. Crash-fault protocols never see a Byzantine
    /// window.
    fn byzantine(&self) -> bool {
        P::equivocation_filter().is_some()
    }

    /// Builds the cluster from `seed` and plays `plan` against it.
    fn drive(
        &self,
        seed: u64,
        plan: &FaultPlan,
        trace: bool,
    ) -> (Cluster<P>, Result<(), BudgetSpent>) {
        let cfg = DriverConfig::new(self.nodes, 2, self.cmds, seed).with_batch(self.batch);
        let mut cluster = Cluster::<P>::build(self.shape, &cfg);
        cluster.sim.record_trace(trace);
        let executed = execute_plan(&mut cluster.sim, plan, SMR_HORIZON, 0.0, |kind, _node| {
            let lie = P::equivocation_filter()?;
            Some(match kind {
                WindowKind::Mute => Box::new(simnet::DropAll),
                WindowKind::Equivocate => lie,
            })
        });
        (cluster, executed)
    }
}

impl<P: SmrProtocol> Target for SmrTarget<P>
where
    P::Shape: From<usize>,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn fault_spec(&self) -> FaultSpec {
        FaultSpec {
            max_byzantine: u32::from(self.byzantine()), // f = 1 at n = 4
            allow_equivocation: self.byzantine(),
            ..smr_spec(self.nodes as u32)
        }
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let (cluster, executed) = self.drive(seed, plan, false);
        let (entries, digests) = harvest(&cluster);
        // Under a Byzantine model validity is not checked — see [`smr_safety`].
        let issued = (!self.byzantine()).then(|| cluster.issued());
        let mut violations = smr_safety(&entries, &digests, &cluster.history(), issued.as_ref());
        violations.extend(executed.err().map(BudgetSpent::violation));
        RunReport {
            violations,
            ops: cluster.total_completed(),
        }
    }

    fn trace_json(&self, seed: u64, plan: &FaultPlan) -> Option<String> {
        let (cluster, _) = self.drive(seed, plan, true);
        Some(simnet::causal::export_events(cluster.sim.trace()))
    }
}

// ---------------------------------------------------------------------------
// Atomic commit: 2PC / 3PC
// ---------------------------------------------------------------------------

/// Seed-derived participant votes (mostly yes, so commits actually happen).
fn derive_votes(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ WORKLOAD_SALT);
    (0..n).map(|_| rng.gen_bool(0.8)).collect()
}

/// A protocol that is one bare `Sim` built from the seed, run under the
/// plan to its horizon and judged by what its nodes then hold: the three
/// atomic-commit protocols and Ben-Or, one [`targets`] row each.
struct SimTarget<N: simnet::Node> {
    name: &'static str,
    spec: FaultSpec,
    build: fn(seed: u64) -> Sim<N>,
    check: fn(&Sim<N>, seed: u64) -> RunReport,
}

impl<N: simnet::Node> SimTarget<N> {
    /// The one build-and-execute under both [`Target::run`] and
    /// [`Target::trace_json`]: recording is the only difference between the
    /// checked run and the traced one.
    fn execute(
        &self,
        seed: u64,
        plan: &FaultPlan,
        trace: bool,
    ) -> (Sim<N>, Result<(), BudgetSpent>) {
        let mut sim = (self.build)(seed);
        sim.record_trace(trace);
        let executed = execute_plan(&mut sim, plan, self.spec.horizon, 0.0, |_, _| None);
        (sim, executed)
    }
}

impl<N: simnet::Node> Target for SimTarget<N> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fault_spec(&self) -> FaultSpec {
        self.spec
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let (sim, executed) = self.execute(seed, plan, false);
        let mut report = (self.check)(&sim, seed);
        report
            .violations
            .extend(executed.err().map(BudgetSpent::violation));
        report
    }

    fn trace_json(&self, seed: u64, plan: &FaultPlan) -> Option<String> {
        let (sim, _) = self.execute(seed, plan, true);
        Some(simnet::causal::export_events(sim.trace()))
    }
}

/// Crash-stop faults on `nodes` processes, with or without message loss —
/// no restarts, partitions, duplicates or Byzantine nodes: the model the
/// commit protocols and Ben-Or are analysed under.
const fn crash_stop(nodes: u32, max_crash_nodes: u32, allow_loss: bool, horizon: u64) -> FaultSpec {
    FaultSpec {
        nodes,
        max_crash_nodes,
        allow_restart: false,
        allow_partition: false,
        allow_loss,
        max_byzantine: 0,
        allow_equivocation: false,
        allow_duplicate: false,
        horizon,
    }
}

/// Atomicity over `states` — crashed nodes included: a decision made before
/// crashing still counts toward (or against) it.
fn commit_report(votes: &[bool], states: &[(u32, TxnState)]) -> RunReport {
    RunReport {
        violations: check_atomic_commit(votes, states),
        ops: states.iter().filter(|(_, s)| s.is_final()).count(),
    }
}

/// 3PC. Its non-blocking termination protocol is only sound under
/// crash-stop faults on a reliable synchronous network — that is the
/// survey's whole point about it — so one crash and no loss is all the
/// nemesis probes.
fn three_pc() -> Box<dyn Target> {
    Box::new(SimTarget {
        name: "3pc",
        spec: crash_stop(4, 1, false, COMMIT_HORIZON),
        build: |seed| {
            let votes = derive_votes(seed, 3);
            three_phase::build(&votes, CrashPoint::None, NetConfig::lan(), seed)
        },
        check: |sim, seed| {
            let state = |(id, p): (NodeId, &three_phase::ThreePcProc)| match p {
                three_phase::ThreePcProc::Coordinator(c) => (id.0, c.state),
                three_phase::ThreePcProc::Participant(p) => (id.0, p.state),
            };
            let states: Vec<_> = sim.nodes().map(state).collect();
            commit_report(&derive_votes(seed, 3), &states)
        },
    })
}

/// Resource managers voting in every `2pc` and `paxos-commit` trial.
const COMMIT_RMS: usize = 3;

/// Gray & Lamport's Paxos Commit at `F`, under up to `max_crash_nodes`
/// crashes plus message loss: the `2pc` row is `F = 0`, the `paxos-commit`
/// row `F = 1`, and the two differ in nothing else. One Paxos instance per
/// RM vote over a shared `2F + 1`-acceptor set with `F + 1` co-located
/// coordinators; node 0 leads, and the RMs follow the acceptors. A plan
/// crashing node 0 is the coordinator crash that blocks 2PC and that
/// `F = 1` survives. Partitions and restarts are outside the card (acceptor
/// state is volatile in this model). Only RMs are judged, so a trial's
/// `ops` counts decided RMs.
fn paxos_commit<const F: usize>(name: &'static str, max_crash_nodes: u32) -> Box<dyn Target> {
    use atomic_commit::paxos_commit::{build, participant_states, Layout};
    let n_rms = COMMIT_RMS;
    let nodes = Layout { f: F, n_rms }.n_nodes() as u32;
    Box::new(SimTarget {
        name,
        spec: crash_stop(nodes, max_crash_nodes, true, COMMIT_HORIZON),
        build: |seed| build(&derive_votes(seed, COMMIT_RMS), F, NetConfig::lan(), seed),
        check: |sim, seed| {
            let n_rms = COMMIT_RMS;
            let rms = Layout { f: F, n_rms }.rms().map(|id| id.0);
            let states: Vec<_> = rms.zip(participant_states(sim)).collect();
            commit_report(&derive_votes(seed, n_rms), &states)
        },
    })
}

// ---------------------------------------------------------------------------
// Ben-Or
// ---------------------------------------------------------------------------

/// Seed-derived Ben-Or inputs: five independent coin flips (they also feed
/// the agreement/validity checks).
fn ben_or_inputs(seed: u64) -> Vec<u8> {
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ WORKLOAD_SALT);
    (0..5).map(|_| u8::from(rng.gen_bool(0.5))).collect()
}

/// Ben-Or on five asynchronous nodes: `f = 1` crash (needs `2f < n`) and loss.
fn ben_or() -> Box<dyn Target> {
    Box::new(SimTarget {
        name: "ben-or",
        spec: crash_stop(5, 1, true, BEN_OR_HORIZON),
        build: |seed| {
            let mut sim: Sim<BenOrNode> = Sim::new(NetConfig::asynchronous(), seed);
            for v in ben_or_inputs(seed) {
                sim.add_node(BenOrNode::new(5, 1, v));
            }
            sim
        },
        check: |sim, seed| {
            // Crashed nodes' decisions count too — a decision is irrevocable.
            let decisions: Vec<(u32, Option<u8>)> =
                sim.nodes().map(|(id, n)| (id.0, n.decided)).collect();
            RunReport {
                violations: check_binary_agreement(&decisions, &ben_or_inputs(seed)),
                ops: decisions.iter().filter(|(_, d)| d.is_some()).count(),
            }
        },
    })
}

// ---------------------------------------------------------------------------
// The sharded store (2PC over per-shard consensus groups)
// ---------------------------------------------------------------------------

/// Fault-placement horizon for the store: the router workload is active for
/// roughly the first 300ms of simulated time, so faults drawn from the
/// first half-ish of this window land mid-transaction.
const STORE_HORIZON: u64 = 400_000;
/// Hard cap on a store trial: adversarial schedules may stall shards (a
/// crashed majority is legal), so the trial stops here instead of quiescing.
const STORE_RUN_CAP: u64 = 6_000_000;
/// Run cap for `store-geo` trials: every consensus round pays a WAN round
/// trip (~40 ms), so the same workload needs an order of magnitude more
/// simulated time to quiesce.
const STORE_GEO_RUN_CAP: u64 = 60_000_000;
/// Domain-separation salt for `store-geo`'s built-in adversity (lease-edge
/// clock skews, the region partition window) so it is independent of both
/// the plan generator's and the workload's randomness.
const GEO_SALT: u64 = 0x6765_6f73; // "geos"

struct StoreTarget<E: ShardEngine> {
    /// Registry name (also encodes the engine choice).
    name: &'static str,
    /// Inject the early-dissemination coordinator bug and crash a router
    /// inside the vulnerable window (seed-derived, deterministic).
    buggy: bool,
    /// Run every shard over a durable storage engine (WAL + checkpoints):
    /// crash/restart faults then exercise the real recovery path — WAL
    /// replay plus snapshot load — instead of RAM-durability.
    durable: bool,
    /// Run the geo deployment (three regions, primary+witness placement,
    /// one router per region, leader-lease fast reads) and inject the
    /// built-in lease-edge skews and region partition on every trial.
    geo: bool,
    _engine: std::marker::PhantomData<E>,
}

fn store<E: ShardEngine + 'static>(
    name: &'static str,
    buggy: bool,
    durable: bool,
    geo: bool,
) -> Box<dyn Target> {
    Box::new(StoreTarget::<E> {
        name,
        buggy,
        durable,
        geo,
        _engine: std::marker::PhantomData,
    })
}

impl<E: ShardEngine> StoreTarget<E> {
    /// Builds the store, applies the plan, and runs the workload plus the
    /// audit pass to completion. With `trace` set, causal-span recording is
    /// enabled before the first step — recording never perturbs timing or
    /// RNG draws, so the traced run is bit-identical to the checked one.
    fn drive(&self, seed: u64, plan: &FaultPlan, trace: bool) -> Store<E> {
        // Two range scans per router keep the range checkers exercised on
        // every store trial (they fan out across all shards and merge).
        let mut cfg = StoreConfig::new(seed)
            .buggy_early_writes(self.buggy)
            .ranges_per_router(2);
        if self.durable {
            cfg = cfg.durable(8, simnet::DiskModel::ssd());
        }
        if self.geo {
            // Three routers put one 2PC gateway in each of three_dc's
            // regions, so the read mix spans every locality class.
            cfg = cfg.routers(3).geo(GeoConfig::three_dc());
        }
        let mut s: Store<E> = Store::new(cfg);
        if trace {
            s.enable_tracing();
        }
        if self.buggy {
            // Deterministically crash one router inside the bug's window
            // (after the early data writes, before the decision CAS) so the
            // schedule reliably exposes the orphaned writes.
            s.crash_router_on_txn(
                (seed % 2) as usize,
                seed % 3,
                RouterCrashPoint::AfterEarlyWrites,
            );
        }

        // Crash/restart/partition/heal pre-schedule inside the shard sims;
        // loss bursts need live windows, handled in the step loop below.
        let mut bursts: Vec<(u64, u64, f64)> = Vec::new();
        for action in &plan.actions {
            match action {
                FaultAction::Crash { node, at } => s.crash_node_at(*node, *at),
                FaultAction::Restart { node, at } => s.restart_node_at(*node, *at),
                FaultAction::Partition { at, group } => s.partition_at(*at, group),
                FaultAction::Heal { at } => s.heal_at(*at),
                FaultAction::LossBurst {
                    from,
                    until,
                    permille,
                } => bursts.push((*from, *until, f64::from(*permille) / 1000.0)),
                // max_byzantine = 0 and allow_duplicate = false: never
                // generated for this spec.
                FaultAction::Mute { .. }
                | FaultAction::Equivocate { .. }
                | FaultAction::DuplicateBurst { .. } => {}
            }
        }
        let drop_at = |now: u64| {
            bursts
                .iter()
                .filter(|&&(from, until, _)| from <= now && now < until)
                .map(|&(_, _, p)| p)
                .fold(0.0, f64::max)
        };
        // Built-in geo adversity, independent of the plan: every trial skews
        // each shard's initial leaseholder clock by a seed-derived offset
        // straddling the 5 ms lease safety bound (below → fast path must
        // stay correct, above → it must fall back) and partitions one region
        // off mid-workload. A lease that kept serving past its bound would
        // return stale values and fail the linearizability check.
        let mut skews: Vec<(u64, u32, u64)> = Vec::new();
        let cap = if self.geo {
            STORE_GEO_RUN_CAP
        } else {
            STORE_RUN_CAP
        };
        if self.geo {
            let mut rng = ChaCha20Rng::seed_from_u64(seed ^ GEO_SALT);
            let rps = 3u32; // StoreConfig::new: 3 shards × 3 replicas
            for shard in 0..3u32 {
                let at = rng.gen_range(10_000..STORE_HORIZON);
                let skew = rng.gen_range(0..12_000);
                skews.push((at, shard * rps, skew));
            }
            skews.sort_unstable();
            let at = 30_000 + rng.gen_range(0..STORE_HORIZON / 2);
            let region = rng.gen_range(0..3);
            s.partition_region_at(at, region);
            s.heal_at(at + 80_000 + rng.gen_range(0..120_000));
        }
        let mut next_skew = 0;
        while s.now() + store::QUANTUM_US <= cap && !s.main_quiesced() {
            while next_skew < skews.len() && skews[next_skew].0 <= s.now() {
                let (_, node, skew) = skews[next_skew];
                s.set_replica_skew(node, skew);
                next_skew += 1;
            }
            s.set_drop_prob(drop_at(s.now()));
            s.step();
        }
        // The audit pass reads every data key on a healed, loss-free
        // network — its observations feed the atomicity check.
        s.set_drop_prob(0.0);
        s.heal_at(s.now());
        s.start_audit();
        while s.now() + store::QUANTUM_US <= 2 * cap && !s.audit_done() {
            s.step();
        }
        s
    }
}

impl<E: ShardEngine> Target for StoreTarget<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fault_spec(&self) -> FaultSpec {
        // 3 shards × 3 replicas = global nodes 0..9, routers from 9 up —
        // two of them normally, three for the geo deployment (one per
        // region). Crashing a router is a 2PC-coordinator crash.
        let routers = if self.geo { 3 } else { 2 };
        FaultSpec {
            horizon: STORE_HORIZON,
            // The step loop sets loss store-wide; it has no such setter
            // for duplication.
            allow_duplicate: false,
            ..smr_spec(9 + routers)
        }
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        let s = self.drive(seed, plan, false);

        let history = s.history();
        let issued: BTreeSet<(u32, u64)> = history.iter().map(|r| (r.client, r.seq)).collect();
        // Per-shard SMR battery (each shard is its own consensus group, so
        // logs and digests are only comparable within a shard) …
        let mut violations = Vec::new();
        for shard in s.shards() {
            violations.extend(check_log_agreement(&shard.decided_log()));
            violations.extend(check_validity(&shard.decided_log(), &issued));
            violations.extend(check_integrity(&shard.decided_log()));
            violations.extend(check_state_digests(&shard.state_digests()));
        }
        // … then the store-level checks over the merged client history.
        violations.extend(check_linearizable(&history, DEFAULT_BUDGET));
        violations.extend(check_txn_atomicity(&history));
        violations.extend(check_range_consistency(&history));
        let ops = history.iter().filter(|r| r.is_complete()).count();
        RunReport { violations, ops }
    }

    fn trace_json(&self, seed: u64, plan: &FaultPlan) -> Option<String> {
        // The store has full causal instrumentation, so its counterexample
        // trace is the real thing: complete spans (router ops, 2PC phases,
        // consensus rounds, WAL fsyncs) rather than instant events.
        let s = self.drive(seed, plan, true);
        Some(simnet::causal::chrome_trace(&s.causal_spans()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::generate;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = targets().iter().map(|t| t.name()).collect();
        let set: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len());
        for n in names {
            assert!(by_name(n).is_some(), "unresolvable target {n}");
        }
        assert_eq!(by_name("paxos-buggy").unwrap().name(), "paxos-buggy");
        assert!(by_name("viewstamped").is_none());
    }

    #[test]
    fn fault_free_trials_pass_and_make_progress() {
        let empty = FaultPlan::default();
        for target in targets() {
            let report = target.run(1, &empty);
            assert!(
                report.violations.is_empty(),
                "{} violates safety with no faults: {:?}",
                target.name(),
                report.violations
            );
            assert!(report.ops > 0, "{} made no progress", target.name());
        }
    }

    #[test]
    fn batched_targets_survive_a_bounded_fault_sweep() {
        // The satellite guarantee for the batching knob: randomized fault
        // schedules (crashes, partitions, loss — and for PBFT, Byzantine
        // windows) find no safety violation in any batched configuration.
        for name in ["paxos+batch", "raft+batch", "pbft+batch"] {
            let target = by_name(name).expect("registered");
            assert_eq!(target.name(), name);
            for seed in 0..5 {
                let plan = generate(&target.fault_spec(), seed);
                let report = target.run(seed, &plan);
                assert!(
                    report.violations.is_empty(),
                    "{name} seed {seed} violated under {}: {:?}",
                    plan.summary(),
                    report.violations
                );
            }
        }
    }

    #[test]
    fn durable_store_crash_restart_exercises_recovery() {
        // Point an explicit crash/restart schedule at the durable store: one
        // replica per shard dies mid-workload and restarts through the real
        // recovery path (checkpoint load + WAL replay). The oracle is the
        // full checker battery plus bit-identical reruns — recovery must be
        // both safe and deterministic.
        let target = by_name("store-paxos-durable").expect("registered");
        let plan = FaultPlan {
            actions: vec![
                FaultAction::Crash {
                    node: 2,
                    at: 20_000,
                },
                FaultAction::Crash {
                    node: 5,
                    at: 25_000,
                },
                FaultAction::Crash {
                    node: 8,
                    at: 30_000,
                },
                FaultAction::Restart {
                    node: 2,
                    at: 40_000,
                },
                FaultAction::Restart {
                    node: 5,
                    at: 45_000,
                },
                FaultAction::Restart {
                    node: 8,
                    at: 50_000,
                },
            ],
        };
        let a = target.run(17, &plan);
        assert!(
            a.violations.is_empty(),
            "durable store violated safety across recovery: {:?}",
            a.violations
        );
        assert!(a.ops > 0, "durable store made no progress");
        let b = target.run(17, &plan);
        assert_eq!(a.violations, b.violations, "recovery not deterministic");
        assert_eq!(a.ops, b.ops, "recovery not deterministic");
    }

    #[test]
    fn durable_raft_store_crash_restart_exercises_recovery() {
        // The Raft twin of the paxos-durable schedule: one replica per
        // shard dies mid-workload and restarts through Raft's real
        // recovery path (snapshot load + WAL replay of hard state, log
        // entries, and commit markers). Safety battery plus bit-identical
        // reruns.
        let target = by_name("store-raft-durable").expect("registered");
        let plan = FaultPlan {
            actions: vec![
                FaultAction::Crash {
                    node: 2,
                    at: 20_000,
                },
                FaultAction::Crash {
                    node: 5,
                    at: 25_000,
                },
                FaultAction::Crash {
                    node: 8,
                    at: 30_000,
                },
                FaultAction::Restart {
                    node: 2,
                    at: 40_000,
                },
                FaultAction::Restart {
                    node: 5,
                    at: 45_000,
                },
                FaultAction::Restart {
                    node: 8,
                    at: 50_000,
                },
            ],
        };
        let a = target.run(17, &plan);
        assert!(
            a.violations.is_empty(),
            "durable raft store violated safety across recovery: {:?}",
            a.violations
        );
        assert!(a.ops > 0, "durable raft store made no progress");
        let b = target.run(17, &plan);
        assert_eq!(a.violations, b.violations, "recovery not deterministic");
        assert_eq!(a.ops, b.ops, "recovery not deterministic");
    }

    #[test]
    fn geo_store_region_partition_never_serves_stale_reads() {
        // The pinned region-partition regression for the geo deployment.
        // Under three_dc + primary+witness placement, region 0 hosts global
        // replicas 0 and 1 (shard 0's majority) and 8 (shard 2's witness);
        // partitioning exactly that set mid-workload isolates shard 0's
        // leaseholder with its lease still valid — the window where a buggy
        // lease would keep serving reads while it can no longer learn of
        // new commits. On top of that ride store-geo's built-in lease-edge
        // clock skews and seed-derived region partition. The oracle is the
        // full battery: any stale fast read is a linearizability violation.
        let target = by_name("store-geo").expect("registered");
        let plan = FaultPlan {
            actions: vec![
                FaultAction::Partition {
                    at: 60_000,
                    group: vec![0, 1, 8],
                },
                FaultAction::Heal { at: 220_000 },
            ],
        };
        let a = target.run(11, &plan);
        assert!(
            a.violations.is_empty(),
            "geo store served a stale read (or worse) across the region partition: {:?}",
            a.violations
        );
        assert!(a.ops > 0, "geo store made no progress");
        let b = target.run(11, &plan);
        assert_eq!(a.violations, b.violations, "geo trial not deterministic");
        assert_eq!(a.ops, b.ops, "geo trial not deterministic");
    }

    #[test]
    fn paxos_commit_survives_leader_coordinator_crash() {
        // The pinned regression for the non-blocking claim: kill the leader
        // coordinator (node 0) at the same instant the protocol's own
        // crash-point harness uses — inside 2PC's blocking window — and the
        // backup coordinator must still drive every RM to the unanimous
        // commit. 2PC under this schedule blocks forever; Paxos Commit
        // must not.
        let target = by_name("paxos-commit").expect("registered");
        let seed = (0..64)
            .find(|&s| derive_votes(s, 3).iter().all(|&v| v))
            .expect("some seed yields unanimous yes-votes");
        let plan = FaultPlan {
            actions: vec![FaultAction::Crash {
                node: 0,
                at: 10_000,
            }],
        };
        let report = target.run(seed, &plan);
        assert!(
            report.violations.is_empty(),
            "paxos-commit violated safety under leader crash: {:?}",
            report.violations
        );
        assert_eq!(
            report.ops, 3,
            "leader crash must not block any RM (decided {} of 3)",
            report.ops
        );

        let votes = derive_votes(seed, COMMIT_RMS);
        let mut sim = atomic_commit::paxos_commit::build(&votes, 1, NetConfig::lan(), seed);
        execute_plan(&mut sim, &plan, COMMIT_HORIZON, 0.0, |_, _| None).expect("within budget");
        assert!(
            atomic_commit::paxos_commit::participant_states(&sim)
                .iter()
                .all(|s| *s == TxnState::Committed),
            "unanimous yes-votes must commit despite the leader crash"
        );
    }

    #[test]
    fn pbft_view_change_loses_an_executed_batch() {
        // A PBFT safety defect, pinned as it stands so that its fix has an
        // assertion to flip (ROADMAP 5g). `start_view_change` claims only
        // the prepared batches a replica has not executed, so a batch that
        // a quorum executed before the view moved is missing from the new
        // view, and the new primary orders another batch at its sequence
        // number. Both plans are shrunk counterexamples of 200-seed sweeps;
        // crashes, a restart, a partition and loss suffice — no Byzantine
        // window and no duplicate burst.
        let cases = [
            (
                "pbft",
                137,
                vec![
                    FaultAction::LossBurst {
                        from: 8_627,
                        until: 155_522,
                        permille: 590,
                    },
                    FaultAction::Crash {
                        node: 3,
                        at: 149_868,
                    },
                    FaultAction::Restart {
                        node: 3,
                        at: 259_808,
                    },
                    FaultAction::Crash {
                        node: 2,
                        at: 284_319,
                    },
                ],
            ),
            (
                "pbft+batch",
                162,
                vec![
                    FaultAction::Partition {
                        at: 5_895,
                        group: vec![3, 2, 0],
                    },
                    FaultAction::Crash {
                        node: 0,
                        at: 53_820,
                    },
                    FaultAction::Heal { at: 81_866 },
                ],
            ),
        ];
        for (name, seed, actions) in cases {
            let report = by_name(name).unwrap().run(seed, &FaultPlan { actions });
            assert!(
                report.violations.iter().any(|v| v.check == "agreement"),
                "{name} seed {seed} no longer diverges: flip this test: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn byzantine_menus_are_exactly_the_declared_lies() {
        // A target gets Byzantine windows exactly when its protocol declares
        // a lie; the commit, Ben-Or and store rows run no `SmrProtocol` and
        // declare none.
        let declares = |name: &str| match name.split('+').next().unwrap() {
            "paxos" | "paxos-buggy" => MultiPaxos::equivocation_filter().is_some(),
            "raft" => Raft::equivocation_filter().is_some(),
            "pbft" => Pbft::equivocation_filter().is_some(),
            _ => false,
        };
        let mut all = targets();
        all.push(injected_bug_target());
        let mut byzantine = Vec::new();
        for target in &all {
            let spec = target.fault_spec();
            let lie = declares(target.name());
            assert_eq!(spec.max_byzantine > 0, lie, "{}", target.name());
            assert_eq!(spec.allow_equivocation, lie, "{}", target.name());
            if lie {
                byzantine.push(target.name());
            }
        }
        assert_eq!(byzantine, ["pbft", "pbft+batch"]);
    }

    #[test]
    fn every_target_has_a_trace_hook() {
        // `--trace-out` must be able to dump a timeline for any stored
        // counterexample, so every registered target (and both injected-bug
        // targets) implements `trace_json`.
        let empty = FaultPlan::default();
        let mut all = targets();
        all.push(injected_bug_target());
        all.push(store_injected_bug_target());
        for target in &all {
            let json = target
                .trace_json(1, &empty)
                .unwrap_or_else(|| panic!("{} has no trace hook", target.name()));
            assert!(
                json.starts_with("{\"traceEvents\":[{"),
                "{}: empty or malformed trace",
                target.name()
            );
            assert!(
                json.trim_end().ends_with('}'),
                "{}: truncated trace",
                target.name()
            );
        }
    }

    #[test]
    fn trials_are_deterministic() {
        for target in targets() {
            let plan = generate(&target.fault_spec(), 3);
            let a = target.run(3, &plan);
            let b = target.run(3, &plan);
            assert_eq!(
                a.violations,
                b.violations,
                "{} not deterministic",
                target.name()
            );
            assert_eq!(a.ops, b.ops, "{} not deterministic", target.name());
        }
    }
}
