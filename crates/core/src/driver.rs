//! The unified cluster-driver API.
//!
//! Every steady-state SMR protocol in this workspace (Multi-Paxos, Raft,
//! PBFT and the six other `bft` protocols) can be built from a seed, stepped through simulated time, subjected
//! to faults, and harvested for evidence — and until now each consumer
//! (the nemesis harness, the bench experiments, ad-hoc tests) hand-rolled
//! that loop per protocol. [`ClusterDriver`] is the one trait that captures
//! it: construct from a [`DriverConfig`], `run`/`run_until` to advance, the
//! fault hooks to perturb, and the harvest methods to extract the decided
//! log, state digests, and client histories that the safety checkers
//! consume. Adding a protocol to bench *and* nemesis is now one impl.
//!
//! The same module defines [`BatchConfig`], the batching/pipelining knob the
//! three batching protocols share, and [`Wave`], the leader's unproposed work
//! under that knob. `BatchConfig::unbatched()` reproduces the pre-batching
//! behaviour exactly (one command per slot, proposed immediately, unbounded
//! pipeline), so it is the default everywhere.

use std::collections::BTreeSet;

use crate::history::ClientRecord;
use crate::smr::Str;
use crate::workload::{KvMix, LatencyRecorder, WorkloadMode};
use simnet::causal::cat;
use simnet::{
    CausalSpan, Context, Metrics, NetConfig, NodeId, Payload, RunOutcome, Time, TraceCtx,
};

/// Batching and pipelining configuration shared by the SMR protocols.
///
/// * Multi-Paxos: the leader accumulates up to `max_batch` commands per log
///   slot and keeps at most `pipeline_window` undecided slots in flight.
/// * Raft: the leader queues commands until `max_batch` wait (or
///   `max_delay` elapses), then appends the whole queue as one log entry
///   and ships it; at most `pipeline_window` *commands* stay above the
///   commit index.
/// * PBFT: the primary assigns up to `max_batch` requests to one sequence
///   number and keeps at most `pipeline_window` unexecuted sequences open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commands per batch (per slot / log entry / sequence number).
    pub max_batch: usize,
    /// How long (simulated µs) to hold an underfull batch open waiting for
    /// more commands. `0` means flush immediately.
    pub max_delay: u64,
    /// Maximum concurrent in-flight (undecided / unexecuted) slots.
    pub pipeline_window: usize,
}

impl BatchConfig {
    /// The pre-batching behaviour: one command per slot, proposed the moment
    /// it arrives, with no artificial bound on concurrent slots. Runs under
    /// this config are message-for-message identical to the code before the
    /// batching knob existed.
    pub const fn unbatched() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay: 0,
            pipeline_window: usize::MAX,
        }
    }

    /// A batched/pipelined configuration.
    pub const fn new(max_batch: usize, max_delay: u64, pipeline_window: usize) -> Self {
        BatchConfig {
            max_batch,
            max_delay,
            pipeline_window,
        }
    }

    /// Whether this config is behaviourally the unbatched default.
    pub fn is_unbatched(&self) -> bool {
        self.max_batch <= 1 && self.max_delay == 0
    }

    /// Short label for tables and JSON keys, e.g. `"unbatched"` or
    /// `"b8/w16/d200"`.
    pub fn label(&self) -> String {
        if *self == BatchConfig::unbatched() {
            "unbatched".to_string()
        } else {
            let w = if self.pipeline_window == usize::MAX {
                "inf".to_string()
            } else {
                self.pipeline_window.to_string()
            };
            format!("b{}/w{}/d{}", self.max_batch, w, self.max_delay)
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::unbatched()
    }
}

/// One item of a [`Wave`]: the work, and the causal context and time it
/// arrived under (for its queue-wait span).
#[derive(Debug)]
struct Queued<T> {
    item: T,
    tc: Option<TraceCtx>,
    at: Time,
}

/// A leader's work it has not proposed yet, under the batch-ripeness policy
/// of [`BatchConfig`] — written once for the three batching proposers
/// (Multi-Paxos, Raft, PBFT), which keep only their in-flight count and what
/// they do with a batch. The policy: never exceed `pipeline_window` slots in
/// flight; take a full batch at once; hold an underfull one for `max_delay`
/// µs (one armed flush timer at a time), after which everything queued goes
/// out — underfull batches included — as fast as the window allows, until
/// the queue has drained.
#[derive(Debug)]
pub struct Wave<T> {
    cfg: BatchConfig,
    /// The protocol's flush-timer kind.
    timer: u64,
    queue: Vec<Queued<T>>,
    /// A flush timer is outstanding.
    armed: bool,
    /// The open batch's `max_delay` has expired. Never set while the queue
    /// is empty.
    overdue: bool,
}

impl<T> Wave<T> {
    /// An empty wave that arms flush timers of kind `timer`.
    pub fn new(cfg: BatchConfig, timer: u64) -> Self {
        Wave {
            cfg,
            timer,
            queue: Vec::new(),
            armed: false,
            overdue: false,
        }
    }

    /// Queues `item` under the context and time of the callback it arrived in.
    pub fn push<M: Payload>(&mut self, ctx: &Context<M>, item: T) {
        let (tc, at) = (ctx.trace_ctx(), ctx.now());
        self.queue.push(Queued { item, tc, at });
    }

    /// The queued items, oldest first.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.queue.iter().map(|q| &q.item)
    }

    /// How many items are queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// How many of the oldest items to propose now, given `in_flight` slots
    /// on the wire; `None` holds. Holding an underfull batch arms the flush
    /// timer unless it is armed already.
    pub fn ripe<M: Payload>(&mut self, ctx: &mut Context<M>, in_flight: usize) -> Option<usize> {
        let queued = self.queue.len();
        if queued == 0 || in_flight >= self.cfg.pipeline_window {
            return None;
        }
        let full = self.cfg.max_batch.max(1);
        if queued >= full || self.cfg.max_delay == 0 || self.overdue {
            return Some(queued.min(full));
        }
        if !self.armed {
            self.armed = true;
            ctx.set_timer(self.cfg.max_delay, self.timer);
        }
        None
    }

    /// Removes the oldest `k` items as one batch: records its size, charges
    /// each traced item its wait in the queue, and rebinds the send context
    /// to the first traced item, so the batch's consensus traffic chains
    /// under its trace (batch-mates rely on the attribution fallback).
    pub fn take<M: Payload>(&mut self, ctx: &mut Context<M>, k: usize) -> Vec<T> {
        ctx.record_batch(k as u64);
        let mut first = None;
        let taken = self.queue.drain(..k).map(|q| {
            if let Some(tc) = q.tc {
                if ctx.now() > q.at {
                    ctx.trace_span_since(tc, "batch-queue", cat::QUEUE, q.at);
                }
                first = first.or(Some(tc));
            }
            q.item
        });
        let taken = taken.collect();
        if first.is_some() {
            ctx.set_trace_ctx(first);
        }
        // Drained: the next batch gets its full `max_delay` again.
        self.overdue &= !self.queue.is_empty();
        taken
    }

    /// The flush timer fired. Returns whether the caller, `leading`, has
    /// items queued and should ask [`Wave::ripe`] again: they are overdue.
    pub fn expire(&mut self, leading: bool) -> bool {
        self.armed = false;
        let pending = leading && !self.queue.is_empty();
        self.overdue |= pending;
        pending
    }

    /// Drops the queue and forgets timer and overdue state (leadership
    /// lost, restart).
    pub fn reset(&mut self) {
        self.queue.clear();
        self.armed = false;
        self.overdue = false;
    }
}

/// Everything needed to construct a cluster deterministically: a run is a
/// pure function of this config. The client workload (`n_clients` closed-loop
/// clients issuing `cmds_per_client` commands each) doubles as the submission
/// interface — commands enter the system only through it, which is what keeps
/// replay exact.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Number of replica nodes (ids `0..n_replicas`).
    pub n_replicas: usize,
    /// Number of client nodes (ids `n_replicas..`).
    pub n_clients: usize,
    /// Commands each client submits.
    pub cmds_per_client: usize,
    /// Batching/pipelining knob.
    pub batch: BatchConfig,
    /// Client pacing: closed loop (default) or open loop.
    pub mode: WorkloadMode,
    /// Key-value operation mix (op fractions, key count, value size).
    pub mix: KvMix,
    /// Network profile.
    pub net: NetConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl DriverConfig {
    /// A LAN-profile, unbatched, closed-loop config.
    pub fn new(n_replicas: usize, n_clients: usize, cmds_per_client: usize, seed: u64) -> Self {
        DriverConfig {
            n_replicas,
            n_clients,
            cmds_per_client,
            batch: BatchConfig::unbatched(),
            mode: WorkloadMode::Closed,
            mix: KvMix::default(),
            net: NetConfig::lan(),
            seed,
        }
    }

    /// Replaces the key-value operation mix.
    pub fn with_mix(mut self, mix: KvMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the batch config.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Replaces the client pacing mode.
    pub fn with_mode(mut self, mode: WorkloadMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the network profile.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }
}

/// A decided log entry as observed on one node, rendered protocol-agnostic
/// for the history checkers. Two entries agree iff their `op` strings are
/// equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecidedEntry {
    /// Node the entry was harvested from.
    pub node: u32,
    /// Absolute log index (slot / sequence number). Protocols that batch
    /// several commands per slot emit one entry per command at synthetic
    /// sub-indices, consistently across replicas.
    pub index: u64,
    /// Canonical rendering of the decided operation, `{label}{cmd:?}` (or
    /// `{label}Noop`), the label `t{term}:` on Raft and empty elsewhere.
    /// Rendered once per `decided_log()` call and shared by every entry of
    /// the same labelled command on any replica (see
    /// [`crate::cluster::Harvest`]); the bytes are those of a fresh
    /// `format!`.
    pub op: Str,
    /// `(client, seq)` of the originating request, if the op carries one.
    pub origin: Option<(u32, u64)>,
}

/// A protocol cluster that can be driven, faulted, and harvested without
/// knowing which protocol it is.
///
/// Implementations wrap a concrete `Sim` plus its replica/client node set;
/// all methods are deterministic given the construction config.
pub trait ClusterDriver {
    /// Constructs the cluster from a [`DriverConfig`] — the construct-from-
    /// seed half of the API. Not dyn-dispatchable; generic call sites (the
    /// bench sweep, the nemesis targets) construct concretely and then erase
    /// to `dyn ClusterDriver`.
    fn from_config(cfg: &DriverConfig) -> Self
    where
        Self: Sized;

    /// Stable protocol name (e.g. `"multi-paxos"`).
    fn protocol(&self) -> &'static str;

    /// Number of replica nodes (clients have higher ids).
    fn n_replicas(&self) -> usize;

    /// Current simulated time.
    fn now(&self) -> Time;

    /// Advances the simulation to (at least) `at`, pushing through node
    /// stops. Returns the last outcome observed.
    fn run_until(&mut self, at: Time) -> RunOutcome;

    /// Runs until every client finished or `horizon` passes; returns whether
    /// all clients completed.
    fn run(&mut self, horizon: Time) -> bool;

    /// Whether every client completed its workload.
    fn all_done(&self) -> bool;

    /// Total commands completed across clients.
    fn completed_ops(&self) -> usize;

    /// Every decided log entry on every replica, for the agreement /
    /// validity / integrity checkers.
    fn decided_log(&self) -> Vec<DecidedEntry>;

    /// `(node, applied_prefix_len, state digest)` per replica.
    fn state_digests(&self) -> Vec<(u32, u64, u64)>;

    /// The merged invoke/response history across all clients.
    fn history(&self) -> Vec<ClientRecord>;

    /// The set of `(client, seq)` operations clients actually issued.
    fn issued(&self) -> BTreeSet<(u32, u64)> {
        self.history().iter().map(|r| (r.client, r.seq)).collect()
    }

    /// Aggregated request → reply latencies across clients.
    fn latencies(&self) -> LatencyRecorder;

    /// Network/timer/span metrics of the underlying simulation.
    fn metrics(&self) -> &Metrics;

    // ---- tracing hooks ---------------------------------------------------

    /// Enables causal tracing on the underlying simulation. `site` tags the
    /// span ids this cluster mints, so traces from several clusters (e.g.
    /// the shards of a store) merge without id collisions. Off by default.
    fn enable_tracing(&mut self, site: u32);

    /// Every causal span recorded since tracing was enabled (empty when
    /// tracing is off).
    fn causal_spans(&self) -> Vec<CausalSpan>;

    /// Consensus-instance spans currently open (a `span_open` without a
    /// matching `span_close`). Zero after a quiesced fault-free run on every
    /// protocol — the span-balance invariant the smoke tests assert.
    fn open_span_instances(&self) -> usize;

    // ---- fault hooks -----------------------------------------------------

    /// Schedules a crash of `node` at time `at`.
    fn crash_at(&mut self, node: NodeId, at: Time);

    /// Schedules a restart of `node` at time `at`.
    fn restart_at(&mut self, node: NodeId, at: Time);

    /// Schedules a partition into `groups` at time `at`.
    fn partition_at(&mut self, at: Time, groups: Vec<Vec<NodeId>>);

    /// Schedules a heal of all partitions at time `at`.
    fn heal_at(&mut self, at: Time);

    /// Sets the global message drop probability, effective immediately.
    fn set_drop_prob(&mut self, p: f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Node, Sim, Timer};

    #[test]
    fn unbatched_is_the_default_and_labelled() {
        assert_eq!(BatchConfig::default(), BatchConfig::unbatched());
        assert!(BatchConfig::unbatched().is_unbatched());
        assert_eq!(BatchConfig::unbatched().label(), "unbatched");
        let b = BatchConfig::new(8, 200, 16);
        assert!(!b.is_unbatched());
        assert_eq!(b.label(), "b8/w16/d200");
        assert_eq!(BatchConfig::new(4, 0, usize::MAX).label(), "b4/winf/d0");
    }

    /// What the test tells the leader under test.
    #[derive(Clone, Debug)]
    enum Step {
        /// Queue this item.
        Push(u32),
        /// Ask [`Wave::ripe`] with this many slots in flight, and take what
        /// it releases, as a proposer would.
        Poll(usize),
        /// Take the oldest `k` items.
        Take(usize),
        /// The flush timer fired; the leader still leads if `true`.
        Expire(bool),
    }

    impl Payload for Step {}

    const FLUSH: u64 = 7;

    /// A one-node leader: its wave, what it took, what `ripe` last answered,
    /// the context a take left behind and when its flush timers fired. The
    /// test, not the timer, calls `expire`.
    struct Leader {
        wave: Wave<u32>,
        taken: Vec<Vec<u32>>,
        answer: Option<usize>,
        bound: Option<TraceCtx>,
        fired: Vec<Time>,
    }

    impl Node for Leader {
        type Msg = Step;

        fn on_start(&mut self, _: &mut Context<Step>) {}

        fn on_message(&mut self, ctx: &mut Context<Step>, _: NodeId, step: Step) {
            match step {
                Step::Push(item) => self.wave.push(ctx, item),
                Step::Poll(in_flight) => {
                    self.answer = self.wave.ripe(ctx, in_flight);
                    if let Some(k) = self.answer {
                        self.taken.push(self.wave.take(ctx, k));
                    }
                }
                Step::Take(k) => {
                    self.taken.push(self.wave.take(ctx, k));
                    self.bound = ctx.trace_ctx();
                }
                Step::Expire(leading) => {
                    self.wave.expire(leading);
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Step>, timer: Timer) {
            assert_eq!(timer.kind, FLUSH);
            self.fired.push(ctx.now());
        }
    }

    /// What one poll did: hold, arm the flush timer for this many µs and
    /// hold, or release the oldest `k` items.
    #[derive(Debug, PartialEq, Eq)]
    enum Flush {
        Hold,
        Arm(u64),
        Take(usize),
    }

    /// A leader whose wave is `wave`, on a fixed-delay network.
    fn rig(wave: Wave<u32>) -> Sim<Leader> {
        let mut sim = Sim::new(NetConfig::synchronous(), 1);
        sim.add_node(Leader {
            wave,
            taken: Vec::new(),
            answer: None,
            bound: None,
            fired: Vec::new(),
        });
        sim
    }

    fn leader(sim: &Sim<Leader>) -> &Leader {
        sim.node(NodeId(0))
    }

    /// Delivers `step` 1 ms from now, traced under `tc`, and lets a timer it
    /// arms fire. Returns when it was delivered.
    fn deliver(sim: &mut Sim<Leader>, step: Step, tc: Option<TraceCtx>) -> Time {
        let at = sim.now() + 1_000;
        sim.inject_traced(NodeId(0), NodeId(0), step, at, tc);
        sim.run_for(2_000);
        at
    }

    /// Pushes until `queued` items wait, then polls with `in_flight`.
    fn poll(sim: &mut Sim<Leader>, queued: usize, in_flight: usize) -> Flush {
        while leader(sim).wave.len() < queued {
            deliver(sim, Step::Push(0), None);
        }
        let fired = leader(sim).fired.len();
        let t0 = deliver(sim, Step::Poll(in_flight), None);
        let leader = leader(sim);
        match (leader.answer, &leader.fired[fired..]) {
            (Some(k), []) => Flush::Take(k),
            (None, []) => Flush::Hold,
            (None, [at]) => Flush::Arm(at.0 - t0.0),
            other => panic!("took and armed at once: {other:?}"),
        }
    }

    #[test]
    fn wave_decision_table() {
        // (config, overdue, armed, queued, in_flight) → answer.
        let b = BatchConfig::new(4, 300, 2);
        let table = [
            (b, false, false, 0, 0, Flush::Hold),
            (b, false, false, 1, 0, Flush::Arm(300)),
            (b, false, true, 3, 0, Flush::Hold),
            (b, false, true, 4, 0, Flush::Take(4)),
            (b, false, false, 9, 1, Flush::Take(4)),
            (b, false, false, 9, 2, Flush::Hold),
            (b, true, false, 1, 1, Flush::Take(1)),
            (b, true, false, 1, 2, Flush::Hold),
            (
                BatchConfig::new(4, 0, 2),
                false,
                false,
                1,
                0,
                Flush::Take(1),
            ),
            (
                BatchConfig::new(0, 0, 1),
                false,
                false,
                3,
                0,
                Flush::Take(1),
            ),
        ];
        for (cfg, overdue, armed, queued, in_flight, want) in table {
            let mut wave = Wave::new(cfg, FLUSH);
            (wave.overdue, wave.armed) = (overdue, armed);
            let got = poll(&mut rig(wave), queued, in_flight);
            assert_eq!(
                got, want,
                "{cfg:?} overdue={overdue} armed={armed} {queued}/{in_flight}"
            );
        }
    }

    #[test]
    fn unbatched_default_never_arms_and_always_takes_immediately() {
        let mut sim = rig(Wave::new(BatchConfig::unbatched(), FLUSH));
        for queued in 1..50 {
            for in_flight in [0, 1, 1_000_000] {
                assert_eq!(poll(&mut sim, queued, in_flight), Flush::Take(1));
            }
        }
        assert!(leader(&sim).taken.iter().all(|t| t.len() == 1));
        while !leader(&sim).wave.is_empty() {
            deliver(&mut sim, Step::Take(1), None);
        }
        assert_eq!(poll(&mut sim, 0, 0), Flush::Hold);
    }

    #[test]
    fn expired_timer_releases_one_underfull_batch_then_holds_again() {
        let mut sim = rig(Wave::new(BatchConfig::new(4, 300, 8), FLUSH));
        let sim = &mut sim;
        assert_eq!(poll(sim, 2, 0), Flush::Arm(300));
        assert_eq!(poll(sim, 3, 0), Flush::Hold, "one timer at a time");
        deliver(sim, Step::Expire(true), None);
        assert_eq!(poll(sim, 3, 0), Flush::Take(3), "overdue: underfull goes");
        assert_eq!(poll(sim, 0, 1), Flush::Hold, "drained: overdue is spent");
        assert_eq!(poll(sim, 1, 1), Flush::Arm(300), "next batch waits again");
        // A timer that fires with nothing to flush (or after leadership was
        // lost) must not make the next batch overdue.
        deliver(sim, Step::Expire(false), None);
        assert_eq!(poll(sim, 1, 1), Flush::Arm(300));
        // While overdue, a queue longer than one batch drains in full
        // batches plus the underfull remainder.
        deliver(sim, Step::Expire(true), None);
        assert_eq!(poll(sim, 6, 0), Flush::Take(4));
        assert_eq!(poll(sim, 2, 1), Flush::Take(2));
        // Losing leadership drops the queue and forgets an armed timer and
        // an overdue batch.
        deliver(sim, Step::Push(0), None);
        sim.node_mut(NodeId(0)).wave.reset();
        assert!(leader(sim).wave.is_empty());
        assert_eq!(poll(sim, 1, 2), Flush::Arm(300));
        sim.node_mut(NodeId(0)).wave.reset();
        assert_eq!(poll(sim, 1, 2), Flush::Arm(300));
    }

    #[test]
    fn take_charges_each_traced_item_its_wait_and_binds_the_first_traced() {
        let tc = |id| TraceCtx {
            trace_id: id,
            parent_span: 0,
            span_id: 10 * id,
        };
        let mut sim = rig(Wave::new(BatchConfig::new(8, 300, 8), FLUSH));
        sim.enable_tracing(1);
        deliver(&mut sim, Step::Push(1), None);
        deliver(&mut sim, Step::Push(2), Some(tc(2)));
        deliver(&mut sim, Step::Push(3), Some(tc(3)));
        let t0 = sim.now() + 1_000;
        sim.inject_traced(NodeId(0), NodeId(0), Step::Push(4), t0, Some(tc(4)));
        sim.inject_traced(NodeId(0), NodeId(0), Step::Take(4), t0, None);
        sim.run_for(2_000);
        let leader = leader(&sim);
        assert_eq!(leader.taken, [vec![1, 2, 3, 4]]);
        assert_eq!(leader.bound, Some(tc(2)), "the first *traced* item");
        assert_eq!(sim.metrics().batch_size.max(), Some(4));
        // Items 2 and 3 waited 2 ms and 1 ms; 1 is untraced and 4 arrived
        // as the batch left.
        let waits: Vec<_> = sim
            .causal_spans()
            .iter()
            .map(|s| {
                (
                    s.name.as_str(),
                    s.cat,
                    s.trace_id,
                    s.parent,
                    t0.0 - s.start,
                    s.end,
                )
            })
            .collect();
        assert_eq!(
            waits,
            [
                ("batch-queue", cat::QUEUE, 2, 20, 2_000, t0.0),
                ("batch-queue", cat::QUEUE, 3, 30, 1_000, t0.0),
            ]
        );
    }

    #[test]
    fn driver_config_builders() {
        let cfg = DriverConfig::new(5, 2, 10, 42)
            .with_batch(BatchConfig::new(4, 100, 8))
            .with_net(NetConfig::synchronous());
        assert_eq!(cfg.n_replicas, 5);
        assert_eq!(cfg.batch.max_batch, 4);
        assert_eq!(cfg.net.drop_prob, 0.0);
        assert_eq!(cfg.seed, 42);
    }
}
