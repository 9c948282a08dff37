//! The simulation engine.

use std::collections::{BTreeMap, HashMap, VecDeque};

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use crate::causal::{bucket_for_kind, cat, CausalSpan, TraceCtx, Tracer};
use crate::config::{DelayModel, NetConfig};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{Filter, FilterAction};
use crate::metrics::{DropCause, Metrics};
use crate::node::{Context, Effect, Node, Payload, Timer, TimerId};
use crate::time::{NodeId, Time};
use crate::trace::{SpanKind, TraceEntry, TraceEvent};

/// Why a `run_*` call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// A node called [`Context::stop`].
    Stopped,
    /// The requested time horizon was reached with events still pending.
    TimeLimit,
    /// The safety cap on processed events was hit (likely a livelock; the
    /// Paxos duelling-proposers experiment triggers this deliberately).
    EventLimit,
}

struct Slot<N: Node> {
    node: N,
    alive: bool,
    /// Incremented on every crash and restart; timers armed in an older
    /// epoch never fire.
    epoch: u32,
    rng: ChaCha20Rng,
    started: bool,
    /// Region assignment, used only when `config.wan` is set: a message
    /// between two region-assigned nodes samples the topology's region-pair
    /// model instead of the flat `config.delay`.
    region: Option<usize>,
    /// Forward clock offset in µs (local clock = `now + offset`). Zero
    /// unless a harness injects skew; purely observational — event
    /// scheduling always uses the global `now`.
    clock_offset: u64,
    /// NIC busy-until time, used only when `config.nic` is set.
    nic_busy: u64,
    /// Byzantine outbound filter, if installed.
    filter: Option<Box<dyn Filter<N::Msg>>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerState {
    Pending,
    Cancelled,
    Fired,
}

/// What became of every timer that may still have an event queued. Timer
/// ids are handed out in sequence, so the ledger is a window of states
/// indexed by `id - base`: arming appends, cancelling and firing index, and
/// the window's front advances past timers whose event has popped. Only a
/// pending timer can be cancelled, so cancelling one that already fired
/// records nothing.
#[derive(Default)]
struct TimerLedger {
    /// Id of `states[0]`.
    base: u64,
    states: VecDeque<TimerState>,
}

impl TimerLedger {
    fn arm(&mut self, id: TimerId) {
        debug_assert_eq!(
            id.0,
            self.base + self.states.len() as u64,
            "timer ids are sequential"
        );
        self.states.push_back(TimerState::Pending);
    }

    fn cancel(&mut self, id: TimerId) {
        let state =
            id.0.checked_sub(self.base)
                .and_then(|i| self.states.get_mut(i as usize));
        if let Some(state @ TimerState::Pending) = state {
            *state = TimerState::Cancelled;
        }
    }

    /// Retires `id` as its event pops; `true` unless it was cancelled.
    fn fire(&mut self, id: TimerId) -> bool {
        let state = &mut self.states[(id.0 - self.base) as usize];
        let live = *state == TimerState::Pending;
        *state = TimerState::Fired;
        while self.states.front() == Some(&TimerState::Fired) {
            self.states.pop_front();
            self.base += 1;
        }
        live
    }
}

/// A deterministic discrete-event simulation of `N`-typed nodes.
///
/// See the crate-level docs for the model. All randomness (delays, drops,
/// node RNGs) derives from the seed passed to [`Sim::new`], so a run is a
/// pure function of `(node set, config, fault plan, seed)`.
pub struct Sim<N: Node> {
    config: NetConfig,
    slots: Vec<Slot<N>>,
    queue: EventQueue<N::Msg>,
    net_rng: ChaCha20Rng,
    seed: u64,
    now: Time,
    next_timer: u64,
    timers: TimerLedger,
    metrics: Metrics,
    trace: Option<Vec<TraceEntry>>,
    /// First `span_open` time of instances that have not yet closed.
    open_instances: BTreeMap<(&'static str, u64), Time>,
    /// `partition[i]` = group id of node i; `None` = fully connected.
    partition: Option<Vec<usize>>,
    partition_plans: Vec<Vec<Vec<NodeId>>>,
    link_delays: HashMap<(NodeId, NodeId), DelayModel>,
    /// Cached max pairwise clock-offset difference (the sim's ground-truth
    /// skew bound, exposed to nodes as a perfect sync-monitor oracle).
    skew_bound: u64,
    stop_requested: bool,
    max_events: u64,
    events_processed: u64,
    scratch: Vec<Effect<N::Msg>>,
    /// Causal-trace recorder (disabled by default; see [`Sim::enable_tracing`]).
    tracer: Tracer,
}

impl<N: Node> Sim<N> {
    /// Creates an empty simulation with the given network profile and seed.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        Sim {
            config,
            slots: Vec::new(),
            queue: EventQueue::new(),
            net_rng: ChaCha20Rng::seed_from_u64(seed),
            seed,
            now: Time::ZERO,
            next_timer: 0,
            timers: TimerLedger::default(),
            metrics: Metrics::default(),
            trace: None,
            open_instances: BTreeMap::new(),
            partition: None,
            partition_plans: Vec::new(),
            link_delays: HashMap::new(),
            skew_bound: 0,
            stop_requested: false,
            max_events: 20_000_000,
            events_processed: 0,
            scratch: Vec::new(),
            tracer: Tracer::new(),
        }
    }

    /// Adds a node; returns its id. Accepts anything convertible into the
    /// node type, so `node_enum!` variants can be passed directly.
    pub fn add_node(&mut self, node: impl Into<N>) -> NodeId {
        let idx = self.slots.len();
        let node_seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1));
        self.slots.push(Slot {
            node: node.into(),
            alive: true,
            epoch: 0,
            rng: ChaCha20Rng::seed_from_u64(node_seed),
            started: false,
            region: None,
            clock_offset: 0,
            nic_busy: 0,
            filter: None,
        });
        NodeId::from(idx)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.slots.len()
    }

    /// Immutable access to a node's state (for assertions after a run).
    pub fn node(&self, id: NodeId) -> &N {
        &self.slots[id.index()].node
    }

    /// Mutable access to a node's state (for test setup between runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.slots[id.index()].node
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId::from(i), &s.node))
    }

    /// Whether the node is currently up.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slots[id.index()].alive
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Enables (or disables) trace recording for figure output. Turning it
    /// on starts an empty trace.
    pub fn record_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded timeline — message events, crashes and restarts, and the
    /// protocols' span events, in the order they happened. Empty unless
    /// [`Sim::record_trace`] is on.
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Enables causal-trace recording under the given site tag (which keeps
    /// span ids unique across the several sims of a sharded harness).
    /// Envelope contexts are carried either way; this turns on span
    /// *recording* — NIC occupancy, network flight per message, protocol
    /// queue/fsync charges — with zero effect on timing or RNG draws.
    pub fn enable_tracing(&mut self, site: u32) {
        self.tracer.enable(site);
    }

    /// Causal spans recorded so far (empty unless [`Sim::enable_tracing`]).
    pub fn causal_spans(&self) -> &[CausalSpan] {
        self.tracer.spans()
    }

    /// Consensus instances opened (via `span_open`) but not yet closed —
    /// leaked instances show up here at end of run.
    pub fn open_instance_count(&self) -> usize {
        self.open_instances.len()
    }

    /// Caps the number of events one `run_*` call may process.
    pub fn set_max_events(&mut self, cap: u64) {
        self.max_events = cap;
    }

    /// The cap [`Sim::set_max_events`] last set.
    pub fn max_events(&self) -> u64 {
        self.max_events
    }

    /// Schedules a crash of `id` at absolute time `at`.
    pub fn crash_at(&mut self, id: NodeId, at: Time) {
        self.queue.push(at, id, EventKind::Crash);
    }

    /// Schedules a restart of `id` at absolute time `at`.
    pub fn restart_at(&mut self, id: NodeId, at: Time) {
        self.queue.push(at, id, EventKind::Restart);
    }

    /// Schedules a network partition into the given groups at `at`.
    /// Nodes absent from every group form an implicit extra group.
    pub fn partition_at(&mut self, at: Time, groups: Vec<Vec<NodeId>>) {
        let plan = self.partition_plans.len();
        self.partition_plans.push(groups);
        self.queue
            .push(at, NodeId(0), EventKind::Partition { plan });
    }

    /// Schedules the partition to heal at `at`.
    pub fn heal_at(&mut self, at: Time) {
        self.queue.push(at, NodeId(0), EventKind::Heal);
    }

    /// Overrides the delay model on the directed link `from → to`.
    pub fn set_link_delay(&mut self, from: NodeId, to: NodeId, model: DelayModel) {
        self.link_delays.insert((from, to), model);
    }

    /// Assigns `id` to a region of the configured [`crate::WanTopology`].
    /// Has no routing effect unless the config carries a topology (and both
    /// endpoints of a message are region-assigned); per-link overrides from
    /// [`Sim::set_link_delay`] still take precedence.
    pub fn set_node_region(&mut self, id: NodeId, region: usize) {
        if let Some(t) = &self.config.wan {
            assert!(region < t.n_regions(), "region out of range for topology");
        }
        self.slots[id.index()].region = Some(region);
    }

    /// The region `id` was assigned to, if any.
    pub fn node_region(&self, id: NodeId) -> Option<usize> {
        self.slots[id.index()].region
    }

    /// Sets `id`'s forward clock offset: its local clock reads
    /// `now + offset_us`. Offsets never affect event scheduling — they are
    /// visible only through [`Context::local_now`] — so skew injection
    /// perturbs lease decisions without perturbing the schedule itself.
    pub fn set_clock_skew(&mut self, id: NodeId, offset_us: u64) {
        self.slots[id.index()].clock_offset = offset_us;
        // A node whose offset was never set runs an unskewed clock, which
        // bounds the spread from below exactly as an explicit 0 does.
        let offsets = self.slots.iter().map(|s| s.clock_offset);
        let max = offsets.clone().max().unwrap_or(0);
        let min = offsets.min().unwrap_or(0);
        self.skew_bound = max - min;
    }

    /// The current maximum pairwise clock-offset difference across nodes —
    /// the ground truth a TrueTime-style sync monitor would report. Lease
    /// code compares this against its configured tolerance and falls back to
    /// the leader log path when the injected skew exceeds it.
    pub fn clock_skew_bound(&self) -> u64 {
        self.skew_bound
    }

    /// Overrides the random-loss probability from this point on. Fault
    /// schedules use this to model loss bursts: raise it at the start of the
    /// burst window and restore it at the end.
    pub fn set_drop_prob(&mut self, p: f64) {
        self.config.drop_prob = p.clamp(0.0, 1.0);
    }

    /// Overrides the message-duplication probability from this point on —
    /// duplicate bursts, as [`Sim::set_drop_prob`] models loss bursts.
    pub fn set_duplicate_prob(&mut self, p: f64) {
        self.config.duplicate_prob = p.clamp(0.0, 1.0);
    }

    /// The message-duplication probability in force.
    pub fn duplicate_prob(&self) -> f64 {
        self.config.duplicate_prob
    }

    /// Installs a Byzantine outbound filter on `id` (replacing any previous
    /// one). See [`Filter`].
    pub fn set_filter(&mut self, id: NodeId, filter: Box<dyn Filter<N::Msg>>) {
        self.slots[id.index()].filter = Some(filter);
    }

    /// Removes the filter on `id`, if any.
    pub fn clear_filter(&mut self, id: NodeId) {
        self.slots[id.index()].filter = None;
    }

    /// Injects a message "from the outside" (e.g. an external client not
    /// modelled as a node) to be delivered at `at`.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: N::Msg, at: Time) {
        self.inject_traced(from, to, msg, at, None);
    }

    /// Like [`Sim::inject`], but the delivered message carries the given
    /// causal context — the bridge by which an external harness (the store's
    /// router) threads its trace into a shard's consensus group.
    pub fn inject_traced(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: N::Msg,
        at: Time,
        tc: Option<TraceCtx>,
    ) {
        self.queue.push(
            at,
            to,
            EventKind::Deliver {
                from,
                msg,
                sent: at,
                tc,
            },
        );
    }

    fn ensure_started(&mut self) {
        for i in 0..self.slots.len() {
            if !self.slots[i].started {
                self.slots[i].started = true;
                self.invoke(i, None, |node, ctx| node.on_start(ctx));
            }
        }
    }

    /// Runs a node callback with a freshly built context and applies the
    /// resulting effects. `cur` is the causal context the callback executes
    /// under (the envelope context of the message being handled).
    fn invoke(
        &mut self,
        idx: usize,
        cur: Option<TraceCtx>,
        f: impl FnOnce(&mut N, &mut Context<N::Msg>),
    ) {
        let mut effects = std::mem::take(&mut self.scratch);
        effects.clear();
        let n_nodes = self.slots.len();
        let skew_bound = self.skew_bound;
        {
            let slot = &mut self.slots[idx];
            let mut ctx = Context {
                node: NodeId::from(idx),
                now: self.now,
                n_nodes,
                rng: &mut slot.rng,
                effects: &mut effects,
                next_timer: &mut self.next_timer,
                tracer: &mut self.tracer,
                cur,
                clock_offset: slot.clock_offset,
                skew_bound,
            };
            f(&mut slot.node, &mut ctx);
        }
        let from = NodeId::from(idx);
        let epoch = self.slots[idx].epoch;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg, tc } => self.route(from, to, msg, tc),
                Effect::SetTimer { id, delay, kind } => {
                    self.timers.arm(id);
                    self.queue.push(
                        self.now + delay,
                        from,
                        EventKind::TimerFire { id, kind, epoch },
                    );
                }
                Effect::CancelTimer { id } => self.timers.cancel(id),
                Effect::Span(protocol, instance, round, kind) => {
                    self.record_span(from, protocol, instance, round, kind);
                }
                Effect::Batch(size) => self.metrics.batch_size.record(size),
                Effect::Stop => self.stop_requested = true,
            }
        }
        self.scratch = effects;
    }

    /// Applies filter, loss, partition, and delay to one message.
    fn route(&mut self, from: NodeId, to: NodeId, msg: N::Msg, tc: Option<TraceCtx>) {
        // Local hop: bypasses the network and all accounting; the causal
        // context passes straight through.
        if from == to {
            let at = self.now + 1;
            self.queue.push(
                at,
                to,
                EventKind::Deliver {
                    from,
                    msg,
                    sent: at,
                    tc,
                },
            );
            return;
        }

        // Byzantine outbound filter. A filtered message never reaches the
        // network, so it is not counted as sent — but the loss is visible in
        // the drop counters and the trace.
        let msg = match self.slots[from.index()].filter.as_mut() {
            Some(filter) => match filter.outgoing(from, to, &msg, &mut self.net_rng) {
                FilterAction::Deliver => msg,
                FilterAction::Drop => {
                    self.metrics.record_drop(DropCause::Filter);
                    self.push_trace(TraceEvent::Drop, from, to, msg.kind());
                    return;
                }
                FilterAction::Replace(m) => m,
            },
            None => msg,
        };

        self.metrics.sent += 1;
        let size = msg.size_bytes() as u64;
        self.metrics.bytes_sent += size;
        self.metrics.add_kind(msg.kind(), 1, size);
        self.metrics.msg_size.record(size);
        self.push_trace(TraceEvent::Send, from, to, msg.kind());

        // Partition check.
        if let Some(groups) = &self.partition {
            let gf = groups.get(from.index()).copied().unwrap_or(usize::MAX);
            let gt = groups.get(to.index()).copied().unwrap_or(usize::MAX);
            if gf != gt {
                self.metrics.record_drop(DropCause::Partition);
                self.push_trace(TraceEvent::Drop, from, to, msg.kind());
                return;
            }
        }

        // Random loss.
        if self.config.drop_prob > 0.0 {
            use rand::Rng;
            if self.net_rng.gen::<f64>() < self.config.drop_prob {
                self.metrics.record_drop(DropCause::Loss);
                self.push_trace(TraceEvent::Drop, from, to, msg.kind());
                return;
            }
        }

        // Per-link overrides win; otherwise a configured WAN topology picks
        // the region-pair model for region-assigned endpoints; otherwise the
        // flat config delay applies. Exactly one sample either way, so flat
        // (no-topology) runs keep their RNG draw sequence bit-identical.
        let model = match self.link_delays.get(&(from, to)) {
            Some(m) => *m,
            None => match &self.config.wan {
                Some(t) => match (
                    self.slots[from.index()].region,
                    self.slots[to.index()].region,
                ) {
                    (Some(a), Some(b)) => t.model_between(a, b),
                    _ => self.config.delay,
                },
                None => self.config.delay,
            },
        };
        let delay = model.sample(&mut self.net_rng);

        // Sender-side NIC serialization: the message leaves the sender only
        // once earlier messages have cleared its transmit path (FIFO per
        // sender), and occupies it for the transmit time. The propagation
        // delay then applies from the departure instant. With no NIC model,
        // `sent_at` is simply `now` — the historical behaviour. This adds no
        // RNG draws, so traces without a NIC model are unchanged.
        let sent_at = match self.config.nic {
            Some(nic) => {
                let busy = &mut self.slots[from.index()].nic_busy;
                let departure = self.now.0.max(*busy);
                let done = departure + nic.tx_micros(size);
                *busy = done;
                done
            }
            None => self.now.0,
        };

        // Causal spans for the message's journey: NIC occupancy on the
        // sender, then network flight classified by the message kind's
        // consensus phase. The delivered envelope's context points at the
        // flight span, so the receiving handler's own sends chain under it.
        // Messages without an envelope context still record (orphan) spans
        // under trace 0 — the attribution sweep uses them to classify wait
        // time that no traced span covers (leader elections, batch-mates).
        let tc_out = if self.tracer.is_enabled() {
            let (trace_id, mut parent) = match tc {
                Some(t) => (t.trace_id, t.span_id),
                None => (0, 0),
            };
            let kind = msg.kind();
            if sent_at > self.now.0 {
                parent = self.tracer.record(
                    trace_id,
                    parent,
                    from.0,
                    format!("nic:{kind}"),
                    cat::NIC,
                    self.now.0,
                    sent_at,
                );
            }
            let flight = self.tracer.record(
                trace_id,
                parent,
                to.0,
                format!("net:{kind}"),
                bucket_for_kind(kind),
                sent_at,
                sent_at + delay,
            );
            Some(TraceCtx {
                trace_id,
                parent_span: parent,
                span_id: flight,
            })
        } else {
            tc
        };

        // Possible duplication (shares the transmit slot, own propagation).
        if self.config.duplicate_prob > 0.0 {
            use rand::Rng;
            if self.net_rng.gen::<f64>() < self.config.duplicate_prob {
                let delay2 = model.sample(&mut self.net_rng);
                self.metrics.duplicated += 1;
                self.queue.push(
                    Time(sent_at + delay2),
                    to,
                    EventKind::Deliver {
                        from,
                        msg: msg.clone(),
                        sent: self.now,
                        tc: tc_out,
                    },
                );
            }
        }

        self.queue.push(
            Time(sent_at + delay),
            to,
            EventKind::Deliver {
                from,
                msg,
                sent: self.now,
                tc: tc_out,
            },
        );
    }

    /// Folds a span event into the metrics — phase entries are counted,
    /// and the first open / first close of each `(protocol, instance)` pair
    /// bound its end-to-end latency — and appends it to the trace when one
    /// is recorded.
    fn record_span(
        &mut self,
        node: NodeId,
        protocol: &'static str,
        instance: u64,
        round: u64,
        kind: SpanKind,
    ) {
        match kind {
            SpanKind::Open => {
                self.metrics.spans_opened += 1;
                self.open_instances
                    .entry((protocol, instance))
                    .or_insert(self.now);
            }
            SpanKind::Phase(phase) => self.metrics.phase_entries[phase as usize] += 1,
            SpanKind::Close => {
                self.metrics.spans_closed += 1;
                if let Some(opened) = self.open_instances.remove(&(protocol, instance)) {
                    self.metrics.instance_latency.record(self.now.0 - opened.0);
                }
            }
        }
        let event = TraceEvent::Span {
            kind,
            instance,
            round,
        };
        self.push_trace(event, node, node, protocol);
    }

    fn push_trace(&mut self, event: TraceEvent, from: NodeId, to: NodeId, kind: &'static str) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                time: self.now,
                event,
                from,
                to,
                kind,
            });
        }
    }

    fn handle(&mut self, ev: Event<N::Msg>) {
        let idx = ev.node.index();
        self.now = ev.time;
        match ev.kind {
            EventKind::Deliver {
                from,
                msg,
                sent,
                tc,
            } => {
                if !self.slots[idx].alive {
                    if from != ev.node {
                        self.metrics.record_drop(DropCause::Dead);
                        self.push_trace(TraceEvent::Drop, from, ev.node, msg.kind());
                    }
                    return;
                }
                if from != ev.node {
                    self.metrics.delivered += 1;
                    self.metrics
                        .delivered_latency
                        .record(self.now.0.saturating_sub(sent.0));
                    self.push_trace(TraceEvent::Deliver, from, ev.node, msg.kind());
                }
                self.invoke(idx, tc, |node, ctx| node.on_message(ctx, from, msg));
            }
            EventKind::TimerFire { id, kind, epoch } => {
                if !self.timers.fire(id) {
                    return;
                }
                let slot = &self.slots[idx];
                if !slot.alive || slot.epoch != epoch {
                    return;
                }
                self.metrics.timer_fires += 1;
                self.invoke(idx, None, |node, ctx| {
                    node.on_timer(ctx, Timer { id, kind })
                });
            }
            EventKind::Crash => {
                let slot = &mut self.slots[idx];
                if slot.alive {
                    slot.alive = false;
                    slot.epoch += 1;
                    slot.node.on_crash();
                    self.metrics.crashes += 1;
                    self.push_trace(TraceEvent::Crash, ev.node, ev.node, "");
                }
            }
            EventKind::Restart => {
                let slot = &mut self.slots[idx];
                if !slot.alive {
                    slot.alive = true;
                    slot.epoch += 1;
                    self.metrics.restarts += 1;
                    self.push_trace(TraceEvent::Restart, ev.node, ev.node, "");
                    self.invoke(idx, None, |node, ctx| node.on_restart(ctx));
                }
            }
            EventKind::Partition { plan } => {
                let groups = self.partition_plans[plan].clone();
                let mut assignment = vec![usize::MAX; self.slots.len()];
                for (g, members) in groups.iter().enumerate() {
                    for id in members {
                        assignment[id.index()] = g;
                    }
                }
                // Nodes in no group form an implicit extra group together.
                let extra = groups.len();
                for a in assignment.iter_mut() {
                    if *a == usize::MAX {
                        *a = extra;
                    }
                }
                self.partition = Some(assignment);
            }
            EventKind::Heal => {
                self.partition = None;
            }
        }
    }

    /// Processes one event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        match self.queue.pop() {
            Some(ev) => {
                self.events_processed += 1;
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains, a node requests a stop, or the event cap
    /// is hit.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_until(Time::MAX)
    }

    /// Runs until the given absolute time (inclusive), the queue drains, a
    /// node requests a stop, or the event cap is hit. Advances `now` to
    /// `horizon` when the queue still has later events.
    pub fn run_until(&mut self, horizon: Time) -> RunOutcome {
        self.ensure_started();
        self.stop_requested = false;
        let budget_start = self.events_processed;
        loop {
            if self.stop_requested {
                return RunOutcome::Stopped;
            }
            if self.events_processed - budget_start >= self.max_events {
                return RunOutcome::EventLimit;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::Quiescent,
                Some(t) if t > horizon => {
                    if horizon != Time::MAX {
                        self.now = horizon;
                    }
                    return RunOutcome::TimeLimit;
                }
                Some(_) => {
                    let ev = self.queue.pop().expect("peeked");
                    self.events_processed += 1;
                    self.handle(ev);
                }
            }
        }
    }

    /// Runs for `micros` more microseconds of simulated time.
    pub fn run_for(&mut self, micros: u64) -> RunOutcome {
        let horizon = self.now + micros;
        self.run_until(horizon)
    }

    /// Number of events processed so far, across all `run_*` calls.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// How many of them are timers. A cancelled timer stays queued, and
    /// counted, until its time passes.
    pub fn pending_timers(&self) -> usize {
        self.queue.pending_timers()
    }

    /// Timers in the ledger's window, and how many of them are marked
    /// cancelled.
    #[cfg(test)]
    fn timer_records(&self) -> (usize, usize) {
        let cancelled = self
            .timers
            .states
            .iter()
            .filter(|s| **s == TimerState::Cancelled);
        (self.timers.states.len(), cancelled.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FnFilter;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }
    impl Payload for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Pong(_) => "pong",
            }
        }
    }

    /// Node 0 pings everyone; others pong back; node 0 counts pongs.
    struct PingPong {
        pongs: u64,
        pong_value_sum: u64,
        pings_seen: u64,
        timer_fired: bool,
    }
    impl PingPong {
        fn new() -> Self {
            PingPong {
                pongs: 0,
                pong_value_sum: 0,
                pings_seen: 0,
                timer_fired: false,
            }
        }
    }
    impl Node for PingPong {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if ctx.id() == NodeId(0) {
                ctx.broadcast(Msg::Ping(1));
                ctx.set_timer(10_000, 7);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(v) => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong(v));
                }
                Msg::Pong(v) => {
                    self.pongs += 1;
                    self.pong_value_sum += v;
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<Msg>, timer: Timer) {
            assert_eq!(timer.kind, 7);
            self.timer_fired = true;
        }
    }

    fn pingpong_sim(n: usize, config: NetConfig, seed: u64) -> Sim<PingPong> {
        let mut sim = Sim::new(config, seed);
        for _ in 0..n {
            sim.add_node(PingPong::new());
        }
        sim
    }

    #[test]
    fn basic_exchange_counts() {
        let mut sim = pingpong_sim(4, NetConfig::synchronous(), 1);
        let outcome = sim.run_to_quiescence();
        assert_eq!(outcome, RunOutcome::Quiescent);
        assert_eq!(sim.node(NodeId(0)).pongs, 3);
        // Honest pongs echo the pinged value.
        assert_eq!(sim.node(NodeId(0)).pong_value_sum, 3);
        assert_eq!(sim.metrics().sent, 6);
        assert_eq!(sim.metrics().delivered, 6);
        assert_eq!(sim.metrics().kind("ping"), 3);
        assert_eq!(sim.metrics().kind("pong"), 3);
        assert!(sim.node(NodeId(0)).timer_fired);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = pingpong_sim(5, NetConfig::lan(), seed);
            sim.record_trace(true);
            sim.run_to_quiescence();
            (
                sim.now(),
                sim.metrics().sent,
                sim.trace().iter().map(|t| t.render()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(99), run(99));
        // Different seeds give different delay schedules (trace differs).
        assert_ne!(run(99).2, run(100).2);
    }

    #[test]
    fn crashed_node_drops_messages_and_timers() {
        let mut sim = pingpong_sim(3, NetConfig::synchronous(), 2);
        sim.crash_at(NodeId(1), Time(100)); // before the 500µs delivery
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(1)).pings_seen, 0);
        assert_eq!(sim.node(NodeId(0)).pongs, 1); // only node 2 ponged
        assert_eq!(sim.metrics().crashes, 1);
        assert!(sim.metrics().dropped >= 1);
    }

    #[test]
    fn restart_invokes_on_restart() {
        struct Counter {
            starts: u32,
        }
        #[derive(Clone, Debug)]
        struct Nil;
        impl Payload for Nil {}
        impl Node for Counter {
            type Msg = Nil;
            fn on_start(&mut self, _ctx: &mut Context<Nil>) {
                self.starts += 1;
            }
            fn on_message(&mut self, _ctx: &mut Context<Nil>, _f: NodeId, _m: Nil) {}
        }
        let mut sim: Sim<Counter> = Sim::new(NetConfig::synchronous(), 3);
        let id = sim.add_node(Counter { starts: 0 });
        sim.crash_at(id, Time(10));
        sim.restart_at(id, Time(20));
        sim.run_to_quiescence();
        assert_eq!(sim.node(id).starts, 2);
        assert_eq!(sim.metrics().restarts, 1);
    }

    #[test]
    fn timers_set_before_crash_do_not_fire_after_restart() {
        struct T {
            fired: bool,
        }
        #[derive(Clone, Debug)]
        struct Nil;
        impl Payload for Nil {}
        impl Node for T {
            type Msg = Nil;
            fn on_start(&mut self, ctx: &mut Context<Nil>) {
                // Only arm once (on the first start).
                if !self.fired {
                    ctx.set_timer(1_000, 0);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<Nil>, _f: NodeId, _m: Nil) {}
            fn on_timer(&mut self, _ctx: &mut Context<Nil>, _t: Timer) {
                self.fired = true;
            }
            fn on_restart(&mut self, _ctx: &mut Context<Nil>) {}
        }
        let mut sim: Sim<T> = Sim::new(NetConfig::synchronous(), 4);
        let id = sim.add_node(T { fired: false });
        sim.crash_at(id, Time(100));
        sim.restart_at(id, Time(200));
        sim.run_to_quiescence();
        assert!(!sim.node(id).fired, "stale timer fired across a crash");
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut sim = pingpong_sim(4, NetConfig::synchronous(), 5);
        sim.partition_at(
            Time(0),
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
        );
        sim.run_to_quiescence();
        // Pings to 2 and 3 were cut; only node 1 ponged.
        assert_eq!(sim.node(NodeId(0)).pongs, 1);
        assert_eq!(sim.metrics().dropped, 2);
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut sim = pingpong_sim(2, NetConfig::synchronous().with_drop_prob(1.0), 6);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(0)).pongs, 0);
        assert_eq!(sim.metrics().delivered, 0);
        assert_eq!(sim.metrics().dropped, 1);
    }

    #[test]
    fn duplicates_are_delivered_twice() {
        let mut sim = pingpong_sim(2, NetConfig::synchronous().with_duplicate_prob(1.0), 7);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(1)).pings_seen, 2);
        assert!(sim.metrics().duplicated >= 1);
    }

    #[test]
    fn byzantine_filter_can_equivocate() {
        // Node 0's filter replaces the ping value per destination.
        let mut sim = pingpong_sim(3, NetConfig::synchronous(), 8);
        sim.set_filter(
            NodeId(0),
            Box::new(FnFilter(
                |_f, to: NodeId, msg: &Msg, _r: &mut ChaCha20Rng| {
                    if let Msg::Ping(_) = msg {
                        FilterAction::Replace(Msg::Ping(to.0 as u64 * 100))
                    } else {
                        FilterAction::Deliver
                    }
                },
            )),
        );
        sim.run_to_quiescence();
        // Both receivers saw a ping (mutated), both ponged the forged values.
        assert_eq!(sim.node(NodeId(0)).pongs, 2);
        assert_eq!(sim.node(NodeId(0)).pong_value_sum, 100 + 200);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = pingpong_sim(2, NetConfig::synchronous(), 9);
        let outcome = sim.run_until(Time(100)); // deliveries are at 500
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert_eq!(sim.node(NodeId(1)).pings_seen, 0);
        assert_eq!(sim.now(), Time(100));
        let outcome = sim.run_to_quiescence();
        assert_eq!(outcome, RunOutcome::Quiescent);
        assert_eq!(sim.node(NodeId(1)).pings_seen, 1);
    }

    #[test]
    fn inject_at_now_runs_before_a_far_event_the_horizon_looked_at() {
        let mut sim = pingpong_sim(2, NetConfig::synchronous(), 9);
        // Ping and pong are done by 1 000; node 0's timer is nine queue
        // windows later, and stopping at the horizon has looked at it.
        assert_eq!(sim.run_until(Time(1_000)), RunOutcome::TimeLimit);
        assert_eq!((sim.pending_events(), sim.pending_timers()), (1, 1));
        sim.inject(NodeId(0), NodeId(1), Msg::Ping(5), sim.now());
        assert!(sim.step());
        assert_eq!(sim.now(), Time(1_000));
        assert_eq!(sim.node(NodeId(1)).pings_seen, 2);
        assert!(!sim.node(NodeId(0)).timer_fired);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert!(sim.node(NodeId(0)).timer_fired);
        assert_eq!(sim.node(NodeId(0)).pong_value_sum, 1 + 5);
    }

    #[test]
    fn event_limit_detects_infinite_chatter() {
        struct Loop;
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for Loop {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), M);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, _m: M) {
                ctx.send(from, M);
            }
        }
        let mut sim: Sim<Loop> = Sim::new(NetConfig::synchronous(), 10);
        sim.add_node(Loop);
        sim.add_node(Loop);
        sim.set_max_events(1_000);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::EventLimit);
    }

    #[test]
    fn stop_effect_halts_run() {
        struct Stopper;
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for Stopper {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), M);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<M>, _f: NodeId, _m: M) {
                ctx.stop();
            }
        }
        let mut sim: Sim<Stopper> = Sim::new(NetConfig::synchronous(), 11);
        sim.add_node(Stopper);
        sim.add_node(Stopper);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Stopped);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct C {
            fired: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for C {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                let id = ctx.set_timer(1_000, 0);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _ctx: &mut Context<M>, _f: NodeId, _m: M) {}
            fn on_timer(&mut self, _ctx: &mut Context<M>, _t: Timer) {
                self.fired = true;
            }
        }
        let mut sim: Sim<C> = Sim::new(NetConfig::synchronous(), 12);
        let id = sim.add_node(C { fired: false });
        sim.run_to_quiescence();
        assert!(!sim.node(id).fired);
    }

    #[test]
    fn pending_timers_counts_a_cancelled_timer_until_its_time_passes() {
        struct Two {
            fired: u32,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for Two {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                ctx.set_timer(500, 0);
                let id = ctx.set_timer(300_000, 0);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _ctx: &mut Context<M>, _f: NodeId, _m: M) {}
            fn on_timer(&mut self, _ctx: &mut Context<M>, _t: Timer) {
                self.fired += 1;
            }
        }
        let mut sim: Sim<Two> = Sim::new(NetConfig::synchronous(), 12);
        let id = sim.add_node(Two { fired: 0 });
        sim.run_until(Time(499));
        assert_eq!((sim.pending_timers(), sim.node(id).fired), (2, 0));
        sim.run_until(Time(299_999));
        assert_eq!((sim.pending_timers(), sim.node(id).fired), (1, 1));
        assert_eq!(sim.pending_events(), 1);
        let before = sim.events_processed();
        assert_eq!(sim.run_until(Time(300_000)), RunOutcome::Quiescent);
        assert_eq!((sim.pending_timers(), sim.node(id).fired), (0, 1));
        assert_eq!(
            sim.events_processed(),
            before + 1,
            "a cancelled timer still pops"
        );
    }

    #[test]
    fn cancelling_a_fired_timer_records_nothing() {
        // The election-timer idiom: every fire cancels the stored id — the
        // very timer that is firing — and arms the next. Node 1 also keeps a
        // long timer pending and cancels a fired id again much later.
        struct Rearm {
            current: Option<TimerId>,
            first: Option<TimerId>,
            fires: u32,
            long_fired: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for Rearm {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                self.current = Some(ctx.set_timer(100, 0));
                self.first = self.current;
                if ctx.id() == NodeId(1) {
                    ctx.set_timer(1_000_000, 1);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<M>, _f: NodeId, _m: M) {}
            fn on_timer(&mut self, ctx: &mut Context<M>, t: Timer) {
                if t.kind == 1 {
                    self.long_fired = true;
                    return;
                }
                self.fires += 1;
                if let Some(id) = self.current.take() {
                    ctx.cancel_timer(id);
                }
                if let Some(id) = self.first {
                    ctx.cancel_timer(id); // fired long ago
                }
                if self.fires < 1_000 {
                    self.current = Some(ctx.set_timer(100, 0));
                }
            }
        }
        let mut sim: Sim<Rearm> = Sim::new(NetConfig::synchronous(), 33);
        for _ in 0..2 {
            sim.add_node(Rearm {
                current: None,
                first: None,
                fires: 0,
                long_fired: false,
            });
        }
        sim.run_until(Time(50_000));
        let (window, cancelled) = sim.timer_records();
        assert_eq!(cancelled, 0, "a fired timer's cancellation left a record");
        assert!(window > 0, "node 1's long timer is still pending");
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(sim.timer_records(), (0, 0));
        for (_, node) in sim.nodes() {
            assert_eq!(
                node.fires, 1_000,
                "a stale cancel must not hit a live timer"
            );
        }
        assert!(sim.node(NodeId(1)).long_fired);
    }

    #[test]
    fn link_delay_override_applies() {
        let mut sim = pingpong_sim(2, NetConfig::synchronous(), 13);
        sim.set_link_delay(NodeId(0), NodeId(1), DelayModel::Fixed(50_000));
        sim.record_trace(true);
        sim.run_to_quiescence();
        // Ping delivered at 50ms, pong back at 50.5ms.
        assert_eq!(sim.now(), Time(50_500));
    }

    #[test]
    fn self_send_bypasses_accounting() {
        struct SelfSender {
            got: bool,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for SelfSender {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                let me = ctx.id();
                ctx.send(me, M);
            }
            fn on_message(&mut self, _ctx: &mut Context<M>, _f: NodeId, _m: M) {
                self.got = true;
            }
        }
        let mut sim: Sim<SelfSender> = Sim::new(NetConfig::synchronous(), 14);
        let id = sim.add_node(SelfSender { got: false });
        sim.run_to_quiescence();
        assert!(sim.node(id).got);
        assert_eq!(sim.metrics().sent, 0);
    }

    #[test]
    fn spans_record_phases_and_instance_latency() {
        use crate::trace::CncPhase;

        #[derive(Clone, Debug)]
        struct Go(u64);
        impl Payload for Go {
            fn kind(&self) -> &'static str {
                "go"
            }
        }
        // Node 0 opens the instance and pings node 1; node 1 closes it on
        // receipt. Latency must equal the message delay.
        struct Spanner;
        impl Node for Spanner {
            type Msg = Go;
            fn on_start(&mut self, ctx: &mut Context<Go>) {
                if ctx.id() == NodeId(0) {
                    ctx.span_open("toy", 5, 1);
                    ctx.phase("toy", 5, 1, CncPhase::Agreement);
                    ctx.send(NodeId(1), Go(5));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<Go>, _f: NodeId, m: Go) {
                ctx.phase("toy", m.0, 1, CncPhase::Decision);
                ctx.span_close("toy", m.0, 1);
            }
        }
        let mut sim: Sim<Spanner> = Sim::new(NetConfig::synchronous(), 3);
        sim.add_node(Spanner);
        sim.add_node(Spanner);
        sim.record_trace(true);
        sim.run_to_quiescence();

        // One timeline, in the order things happened: node 1's spans follow
        // the delivery whose handler emitted them.
        let lines: Vec<String> = sim.trace().iter().map(TraceEntry::render).collect();
        let at = |i: usize| sim.trace()[i].time;
        assert_eq!(
            lines,
            [
                format!("{} n0 toy/5 r1 open", at(0)),
                format!("{} n0 toy/5 r1 phase=agreement", at(0)),
                format!("{} n0→n1 go (send)", at(0)),
                format!("{} n0→n1 go", at(3)),
                format!("{} n1 toy/5 r1 phase=decision", at(3)),
                format!("{} n1 toy/5 r1 close", at(3)),
            ]
        );
        assert!(at(3) > at(0));

        let m = sim.metrics();
        assert_eq!(m.spans_opened, 1);
        assert_eq!(m.spans_closed, 1);
        assert_eq!(m.phase("agreement"), 1);
        assert_eq!(m.phase("decision"), 1);
        assert_eq!(m.instance_latency.count(), 1);
        let delay = (at(3).0 - at(0).0) as f64;
        assert_eq!(m.instance_latency.mean(), delay);
        // Message-size histogram saw the one routed message.
        assert_eq!(m.msg_size.count(), 1);
        assert_eq!(m.kind_bytes("go"), 64);

        // A second close for the same instance is recorded as a span but
        // does not double-count latency.
        sim.inject(NodeId(0), NodeId(1), Go(5), sim.now() + 10);
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().spans_closed, 2);
        assert_eq!(sim.metrics().instance_latency.count(), 1);
        assert_eq!(sim.trace().len(), 9);
    }

    #[test]
    fn drop_counters_attribute_losses_by_cause() {
        // Partition drops.
        let mut sim = pingpong_sim(4, NetConfig::synchronous(), 15);
        sim.partition_at(
            Time(0),
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
        );
        sim.run_to_quiescence();
        let m = sim.metrics();
        assert_eq!(m.dropped_partition, 2);
        assert_eq!(
            m.dropped,
            m.dropped_partition + m.dropped_loss + m.dropped_filter + m.dropped_dead
        );

        // Random loss.
        let mut sim = pingpong_sim(2, NetConfig::synchronous().with_drop_prob(1.0), 16);
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().dropped_loss, 1);
        assert_eq!(sim.metrics().dropped, 1);

        // Filter drops are counted and traced, but never reach the network,
        // so they are not `sent`.
        let mut sim = pingpong_sim(2, NetConfig::synchronous(), 17);
        sim.record_trace(true);
        sim.set_filter(NodeId(0), Box::new(crate::fault::DropAll));
        sim.run_to_quiescence();
        let m = sim.metrics();
        assert_eq!(m.dropped_filter, 1);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.sent, 0);
        assert!(sim
            .trace()
            .iter()
            .any(|t| matches!(t.event, TraceEvent::Drop)));

        // Messages to a crashed node.
        let mut sim = pingpong_sim(2, NetConfig::synchronous(), 18);
        sim.crash_at(NodeId(1), Time(100));
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().dropped_dead, 1);
        assert_eq!(sim.metrics().dropped, 1);
    }

    #[test]
    fn set_drop_prob_applies_mid_run() {
        // Lossless until the override, total loss afterwards.
        struct Repeater {
            got: u64,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for Repeater {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                if ctx.id() == NodeId(0) {
                    ctx.set_timer(1_000, 0);
                    ctx.set_timer(10_000, 0);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<M>, _f: NodeId, _m: M) {
                self.got += 1;
            }
            fn on_timer(&mut self, ctx: &mut Context<M>, _t: Timer) {
                ctx.send(NodeId(1), M);
            }
        }
        let mut sim: Sim<Repeater> = Sim::new(NetConfig::synchronous(), 19);
        sim.add_node(Repeater { got: 0 });
        sim.add_node(Repeater { got: 0 });
        sim.run_until(Time(5_000));
        assert_eq!(sim.node(NodeId(1)).got, 1);
        sim.set_drop_prob(1.0);
        sim.run_to_quiescence();
        assert_eq!(
            sim.node(NodeId(1)).got,
            1,
            "message in the burst window was lost"
        );
        assert_eq!(sim.metrics().dropped_loss, 1);
    }

    #[test]
    fn old_epoch_timer_is_dead_even_when_restart_arms_new_ones() {
        // The epoch guard must discriminate between a timer armed before a
        // crash and one armed after the restart, even when both would fire
        // after the node is back up. Only the post-restart timer may fire.
        struct T {
            fired: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        struct Nil;
        impl Payload for Nil {}
        impl Node for T {
            type Msg = Nil;
            fn on_start(&mut self, ctx: &mut Context<Nil>) {
                ctx.set_timer(1_000, 1); // fires at 1_000, after the restart
            }
            fn on_message(&mut self, _ctx: &mut Context<Nil>, _f: NodeId, _m: Nil) {}
            fn on_timer(&mut self, _ctx: &mut Context<Nil>, t: Timer) {
                self.fired.push(t.kind);
            }
            fn on_restart(&mut self, ctx: &mut Context<Nil>) {
                ctx.set_timer(1_000, 2); // fires at 1_200
            }
        }
        let mut sim: Sim<T> = Sim::new(NetConfig::synchronous(), 20);
        let id = sim.add_node(T { fired: Vec::new() });
        sim.crash_at(id, Time(100));
        sim.restart_at(id, Time(200));
        sim.run_to_quiescence();
        assert_eq!(
            sim.node(id).fired,
            vec![2],
            "exactly the post-restart timer fires, never the pre-crash one"
        );
    }

    #[test]
    fn heal_restores_full_connectivity() {
        // After heal_at, every link must work again: a broadcast round run
        // entirely after the heal completes exactly as in an unpartitioned
        // network.
        struct LateBroadcast {
            pongs: u64,
        }
        impl Node for LateBroadcast {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                if ctx.id() == NodeId(0) {
                    ctx.set_timer(100_000, 0); // well after the heal
                }
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
                match msg {
                    Msg::Ping(v) => ctx.send(from, Msg::Pong(v)),
                    Msg::Pong(_) => self.pongs += 1,
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<Msg>, _t: Timer) {
                ctx.broadcast(Msg::Ping(1));
            }
        }
        let mut sim: Sim<LateBroadcast> = Sim::new(NetConfig::synchronous(), 21);
        for _ in 0..4 {
            sim.add_node(LateBroadcast { pongs: 0 });
        }
        // Fully isolate every node, then heal before the broadcast.
        sim.partition_at(
            Time(0),
            vec![
                vec![NodeId(0)],
                vec![NodeId(1)],
                vec![NodeId(2)],
                vec![NodeId(3)],
            ],
        );
        sim.heal_at(Time(50_000));
        sim.run_to_quiescence();
        assert_eq!(
            sim.node(NodeId(0)).pongs,
            3,
            "post-heal broadcast reaches everyone"
        );
        assert_eq!(sim.metrics().dropped, 0);
        assert_eq!(sim.metrics().delivered, 6);
    }

    #[test]
    fn batch_effect_feeds_histogram() {
        struct Batcher;
        #[derive(Clone, Debug)]
        struct M;
        impl Payload for M {}
        impl Node for Batcher {
            type Msg = M;
            fn on_start(&mut self, ctx: &mut Context<M>) {
                ctx.record_batch(1);
                ctx.record_batch(8);
            }
            fn on_message(&mut self, _ctx: &mut Context<M>, _f: NodeId, _m: M) {}
        }
        let mut sim: Sim<Batcher> = Sim::new(NetConfig::synchronous(), 22);
        sim.add_node(Batcher);
        sim.run_to_quiescence();
        let h = &sim.metrics().batch_size;
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(8));
    }

    #[test]
    fn nic_serializes_sends_fifo_per_sender() {
        // Node 0 broadcasts three pings in one callback. With a NIC of
        // 1000 µs per message the k-th ping clears node 0's transmit path at
        // k·1000, so with the fixed 500 µs propagation pings arrive at
        // 1500/2500/3500 and the pongs (each sender's own NIC idle, 1000 µs
        // transmit) land back at 3000/4000/5000.
        let mut sim = pingpong_sim(4, NetConfig::synchronous().with_nic(1_000, u64::MAX), 23);
        sim.record_trace(true);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(0)).pongs, 3);
        let deliveries: Vec<(u64, &str)> = sim
            .trace()
            .iter()
            .filter(|t| matches!(t.event, TraceEvent::Deliver))
            .map(|t| (t.time.0, t.kind))
            .collect();
        assert_eq!(
            deliveries,
            vec![
                (1_500, "ping"),
                (2_500, "ping"),
                (3_000, "pong"),
                (3_500, "ping"),
                (4_000, "pong"),
                (5_000, "pong"),
            ]
        );
    }

    #[test]
    fn causal_context_chains_across_message_hops() {
        // Node 0 roots a trace and pings node 1; node 1's pong is sent from
        // inside the ping's delivery callback and must inherit its context,
        // so the pong flight span chains under the ping flight span.
        struct Tracey;
        impl Node for Tracey {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                if ctx.id() == NodeId(0) {
                    ctx.trace_begin("op");
                    ctx.send(NodeId(1), Msg::Ping(1));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
                if let Msg::Ping(v) = msg {
                    ctx.send(from, Msg::Pong(v));
                } else if let Some(tc) = ctx.trace_ctx() {
                    ctx.trace_close(TraceCtx {
                        trace_id: tc.trace_id,
                        parent_span: 0,
                        span_id: tc.trace_id,
                    });
                }
            }
        }
        let mut sim: Sim<Tracey> = Sim::new(NetConfig::synchronous(), 30);
        sim.enable_tracing(5);
        sim.add_node(Tracey);
        sim.add_node(Tracey);
        sim.run_to_quiescence();
        let spans = sim.causal_spans();
        let root = spans.iter().find(|s| s.name == "op").expect("root span");
        assert_eq!(root.trace_id, root.id);
        assert!(root.end > root.start, "root closed when the pong arrived");
        let ping = spans
            .iter()
            .find(|s| s.name == "net:ping")
            .expect("ping flight");
        let pong = spans
            .iter()
            .find(|s| s.name == "net:pong")
            .expect("pong flight");
        assert_eq!(ping.trace_id, root.id);
        assert_eq!(ping.parent, root.id);
        assert_eq!(pong.trace_id, root.id);
        assert_eq!(pong.parent, ping.id, "hop 2 chains under hop 1");
        assert_eq!(pong.site, 5);
        // The flight spans tile the wire time exactly.
        assert_eq!(ping.end - ping.start, 500);
        assert_eq!(pong.start, ping.end);
    }

    #[test]
    fn tracing_enabled_leaves_timing_and_metrics_unchanged() {
        let run = |traced: bool| {
            let mut sim = pingpong_sim(5, NetConfig::lan().with_nic(40, 100), 31);
            if traced {
                sim.enable_tracing(0);
            }
            sim.run_to_quiescence();
            (sim.now(), sim.metrics().sent, sim.metrics().delivered)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn delivered_latency_histogram_sees_every_delivery() {
        let mut sim = pingpong_sim(3, NetConfig::synchronous(), 32);
        sim.run_to_quiescence();
        let m = sim.metrics();
        assert_eq!(m.delivered_latency.count(), m.delivered);
        // Synchronous profile: every hop is the fixed 500 µs.
        assert_eq!(m.delivered_latency.min(), Some(500));
        assert_eq!(m.delivered_latency.max(), Some(500));
    }

    #[test]
    fn wan_topology_routes_by_region_pair() {
        use crate::config::WanTopology;
        // Two regions 30 ms apart, 100 µs inside. Node 0+1 in region 0,
        // node 2 in region 1: the ping to 1 is intra, the ping to 2 inter.
        let topo = WanTopology::symmetric(2, DelayModel::Fixed(100), DelayModel::Fixed(30_000));
        let mut sim = pingpong_sim(3, NetConfig::synchronous().with_wan(topo), 40);
        sim.set_node_region(NodeId(0), 0);
        sim.set_node_region(NodeId(1), 0);
        sim.set_node_region(NodeId(2), 1);
        sim.record_trace(true);
        sim.run_to_quiescence();
        let deliveries: Vec<(u64, u32)> = sim
            .trace()
            .iter()
            .filter(|t| matches!(t.event, TraceEvent::Deliver))
            .map(|t| (t.time.0, t.to.0))
            .collect();
        // Intra round-trip at 100/200, inter at 30_000/60_000.
        assert_eq!(
            deliveries,
            vec![(100, 1), (200, 0), (30_000, 2), (60_000, 0)]
        );
    }

    #[test]
    fn unassigned_regions_fall_back_to_flat_delay() {
        use crate::config::WanTopology;
        let topo = WanTopology::symmetric(2, DelayModel::Fixed(100), DelayModel::Fixed(30_000));
        let mut sim = pingpong_sim(2, NetConfig::synchronous().with_wan(topo), 41);
        sim.set_node_region(NodeId(0), 0); // node 1 left unassigned
        sim.record_trace(true);
        sim.run_to_quiescence();
        let deliveries: Vec<u64> = sim
            .trace()
            .iter()
            .filter(|t| matches!(t.event, TraceEvent::Deliver))
            .map(|t| t.time.0)
            .collect();
        assert_eq!(deliveries, vec![500, 1_000]); // 500 µs each way: flat model
    }

    #[test]
    fn clock_skew_is_observational_and_bounded() {
        let mut sim = pingpong_sim(3, NetConfig::synchronous(), 42);
        assert_eq!(sim.clock_skew_bound(), 0);
        sim.set_clock_skew(NodeId(1), 700);
        assert_eq!(sim.clock_skew_bound(), 700);
        sim.set_clock_skew(NodeId(2), 300);
        assert_eq!(sim.clock_skew_bound(), 700); // node 0 still at 0
        sim.set_clock_skew(NodeId(0), 600);
        assert_eq!(sim.clock_skew_bound(), 400); // spread of {600,700,300}
                                                 // Skew never perturbs the schedule: same quiescence time as unskewed.
        sim.run_to_quiescence();
        let mut plain = pingpong_sim(3, NetConfig::synchronous(), 42);
        plain.run_to_quiescence();
        assert_eq!(sim.now(), plain.now());
        assert_eq!(sim.metrics().sent, plain.metrics().sent);
    }

    #[test]
    fn skew_bound_matches_the_offset_map_rule() {
        // The rule as the per-node offset map stated it: spread of the set
        // offsets, measured from 0 while any node's offset was never set.
        fn rule(set: &BTreeMap<usize, u64>, n: usize) -> u64 {
            let max = set.values().copied().max().unwrap_or(0);
            let min = if set.len() == n {
                set.values().copied().min().unwrap_or(0)
            } else {
                0
            };
            max - min
        }
        let mut sim = pingpong_sim(3, NetConfig::synchronous(), 43);
        let mut set = BTreeMap::new();
        // Some set, one of them to zero; then all set; then all set with a
        // zero among them; then all equal.
        for (node, offset) in [
            (1, 700),
            (0, 0),
            (2, 300),
            (0, 600),
            (2, 0),
            (2, 900),
            (0, 900),
            (1, 900),
        ] {
            sim.set_clock_skew(NodeId(node), offset);
            set.insert(node as usize, offset);
            assert_eq!(
                sim.clock_skew_bound(),
                rule(&set, 3),
                "after {node} := {offset}"
            );
        }
        assert_eq!(sim.clock_skew_bound(), 0);
    }

    #[test]
    fn kind_tallies_agree_with_an_ordered_map() {
        #[derive(Clone, Debug)]
        struct K(usize);
        const KINDS: [&str; 7] = ["vote", "accept", "ack", "commit", "nack", "beat", "read"];
        impl Payload for K {
            fn kind(&self) -> &'static str {
                KINDS[self.0]
            }
            fn size_bytes(&self) -> usize {
                10 + 7 * self.0
            }
        }
        // Every delivery fans out again until the hop budget runs dry.
        struct Chatter {
            hops: usize,
        }
        impl Node for Chatter {
            type Msg = K;
            fn on_start(&mut self, ctx: &mut Context<K>) {
                ctx.broadcast(K(ctx.id().index() % KINDS.len()));
            }
            fn on_message(&mut self, ctx: &mut Context<K>, from: NodeId, m: K) {
                if self.hops > 0 {
                    self.hops -= 1;
                    ctx.send(
                        from,
                        K((m.0 * 3 + ctx.id().index() + self.hops) % KINDS.len()),
                    );
                }
            }
        }
        let mut sim: Sim<Chatter> = Sim::new(NetConfig::lan(), 44);
        for _ in 0..4 {
            sim.add_node(Chatter { hops: 40 });
        }
        sim.record_trace(true);
        sim.run_to_quiescence();

        let mut model: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for t in sim
            .trace()
            .iter()
            .filter(|t| matches!(t.event, TraceEvent::Send))
        {
            let size = 10 + 7 * KINDS.iter().position(|k| *k == t.kind).expect("known kind");
            let row = model.entry(t.kind).or_default();
            row.0 += 1;
            row.1 += size as u64;
        }
        let m = sim.metrics();
        assert!(model.len() >= 6, "only {} kinds on the wire", model.len());
        let want: Vec<(&str, u64, u64)> = model.iter().map(|(&k, &(n, b))| (k, n, b)).collect();
        assert_eq!(m.kinds(), want, "name order, counts and bytes");
        for (kind, sent, bytes) in want {
            assert_eq!((m.kind(kind), m.kind_bytes(kind)), (sent, bytes));
        }
        let summary: Vec<String> = model.iter().map(|(k, (n, _))| format!("{k}={n}")).collect();
        assert_eq!(m.kinds_summary(), summary.join(" "));
        assert_eq!((m.kind("absent"), m.kind_bytes("absent")), (0, 0));
        assert_eq!(m.sent, model.values().map(|r| r.0).sum::<u64>());
        assert_eq!(m.bytes_sent, model.values().map(|r| r.1).sum::<u64>());
    }

    #[test]
    fn per_node_state_works_for_a_node_added_after_a_run() {
        use crate::config::WanTopology;
        let topo = WanTopology::symmetric(2, DelayModel::Fixed(100), DelayModel::Fixed(30_000));
        let mut sim = pingpong_sim(2, NetConfig::synchronous().with_wan(topo), 45);
        sim.set_node_region(NodeId(0), 0);
        sim.set_node_region(NodeId(1), 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(0)).pongs, 1);

        // A late joiner in the other region, muted at first.
        let late = sim.add_node(PingPong::new());
        assert_eq!(sim.node_region(late), None);
        sim.set_node_region(late, 1);
        assert_eq!(sim.node_region(late), Some(1));
        sim.set_filter(late, Box::new(crate::fault::DropAll));
        let t0 = sim.now();
        sim.inject(NodeId(0), late, Msg::Ping(9), t0);
        sim.run_to_quiescence();
        assert_eq!(sim.node(late).pings_seen, 1);
        assert_eq!(
            sim.node(NodeId(0)).pongs,
            1,
            "the filter swallowed the pong"
        );
        assert_eq!(sim.metrics().dropped_filter, 1);

        sim.clear_filter(late);
        let t1 = sim.now();
        sim.inject(NodeId(0), late, Msg::Ping(9), t1);
        sim.run_to_quiescence();
        assert_eq!(sim.node(NodeId(0)).pongs, 2);
        assert_eq!(sim.now(), Time(t1.0 + 30_000), "the pong crossed regions");
    }

    #[test]
    fn nic_default_off_leaves_timing_unchanged() {
        let run = |config: NetConfig| {
            let mut sim = pingpong_sim(3, config, 24);
            sim.run_to_quiescence();
            (sim.now(), sim.metrics().sent, sim.metrics().delivered)
        };
        // lan() has jittered delays (RNG-dependent); the NIC model must not
        // perturb the draw sequence when disabled — identical runs.
        assert_eq!(run(NetConfig::lan()), run(NetConfig::lan()));
        // And a zero-cost NIC changes nothing relative to no NIC at all.
        assert_eq!(
            run(NetConfig::lan()),
            run(NetConfig::lan().with_nic(0, u64::MAX))
        );
    }
}
