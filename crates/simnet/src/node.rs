//! The node (actor) trait and the context handed to its callbacks.

use std::fmt;

use rand_chacha::ChaCha20Rng;

use crate::causal::{cat, TraceCtx, Tracer};
use crate::slab::Slab;
use crate::time::{NodeId, Time};
use crate::trace::{CncPhase, SpanKind};

/// A message payload exchanged between nodes.
///
/// `kind` labels the message for metrics and trace/figure output (e.g.
/// `"prepare"`, `"accept"`); `size_bytes` is an estimate used for bandwidth
/// accounting — protocols override it where message size matters (HotStuff's
/// threshold signatures vs PBFT's certificate vectors).
pub trait Payload: Clone + fmt::Debug + 'static {
    /// Short label for this message used in metrics and traces.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Estimated wire size in bytes.
    fn size_bytes(&self) -> usize {
        64
    }
}

/// Identifies a pending timer so it can be cancelled: the slot of its
/// record in the simulator's timer slab, and the serial it was armed under,
/// so the id of a timer that fired misses a later timer in the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId {
    pub(crate) slot: u32,
    pub(crate) serial: u32,
}

/// A fired timer, delivered to [`Node::on_timer`].
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    /// The id returned by [`Context::set_timer`].
    pub id: TimerId,
    /// Caller-chosen discriminant (protocols use it to tell timeout kinds
    /// apart, e.g. election timeout vs heartbeat).
    pub kind: u64,
}

/// A protocol participant: replica, client, coordinator, miner, …
///
/// Implementations are plain state machines; all interaction with the world
/// goes through the [`Context`]. Heterogeneous roles sharing a message type
/// are combined with [`crate::node_enum!`].
pub trait Node {
    /// The message type this node exchanges.
    type Msg: Payload;

    /// Called once when the simulation starts (or the node is added to a
    /// running simulation).
    fn on_start(&mut self, ctx: &mut Context<Self::Msg>);

    /// Called for every delivered message. `from` is the authenticated
    /// sender identity.
    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires. Timers set
    /// before a crash never fire after it.
    fn on_timer(&mut self, ctx: &mut Context<Self::Msg>, timer: Timer) {
        let _ = (ctx, timer);
    }

    /// Called when the node restarts after a crash. The node decides which
    /// parts of its state were durable (e.g. a Paxos acceptor keeps its
    /// promised ballot; volatile caches reset). Defaults to `on_start`.
    fn on_restart(&mut self, ctx: &mut Context<Self::Msg>) {
        self.on_start(ctx);
    }

    /// Called at the instant the node crashes — a hook for tests that want
    /// to model losing volatile state.
    fn on_crash(&mut self) {}
}

/// A message in flight: the one record of it from its send or injection
/// to its delivery or drop.
#[derive(Clone)]
pub(crate) struct Flight<M> {
    pub from: NodeId,
    pub to: NodeId,
    /// When the send was issued, for delivery-latency accounting.
    pub sent: Time,
    /// The causal trace context riding in the envelope, if any.
    pub tc: Option<TraceCtx>,
    pub msg: M,
}

/// An armed timer: the one record of it from [`Context::set_timer`] until
/// its time passes, cancelled or not.
pub(crate) struct Armed {
    pub node: NodeId,
    pub serial: u32,
    /// The node's epoch when it was armed: a crash or restart since then
    /// kills it.
    pub epoch: u32,
    pub kind: u64,
    pub cancelled: bool,
}

/// An effect a node requests during a callback; applied by the simulator
/// after the callback returns, in the order the callback emitted them.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Route the message in this slot of the simulator's message slab.
    Send(u32),
    /// Queue the timer in slot `slot` of the timer slab for `at`.
    SetTimer {
        slot: u32,
        at: Time,
    },
    /// `(protocol, instance, round, kind)`, as [`Context::span_open`] names
    /// them.
    Span(&'static str, u64, u64, SpanKind),
    Batch(u64),
    Stop,
}

/// Handle through which a node interacts with the simulated world.
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: Time,
    pub(crate) n_nodes: usize,
    pub(crate) rng: &'a mut ChaCha20Rng,
    pub(crate) effects: &'a mut Vec<Effect>,
    /// The simulator's slab of messages in flight: a send parks its
    /// record here, and it stays put until it is delivered or dropped.
    pub(crate) msgs: &'a mut Slab<Flight<M>>,
    /// The simulator's slab of armed timers, and the serial the next one
    /// is armed under.
    pub(crate) timers: &'a mut Slab<Armed>,
    pub(crate) next_timer: &'a mut u32,
    /// This node's epoch, stamped on the timers it arms.
    pub(crate) epoch: u32,
    pub(crate) tracer: &'a mut Tracer,
    /// The causal context this callback executes under: the envelope context
    /// of the message being handled, a root opened via
    /// [`Context::trace_begin`], or `None` (untraced activity).
    pub(crate) cur: Option<TraceCtx>,
    /// This node's forward clock offset (µs); see [`Context::local_now`].
    pub(crate) clock_offset: u64,
    /// The sim-wide max pairwise clock-offset difference; see
    /// [`Context::clock_skew_bound`].
    pub(crate) skew_bound: u64,
}

impl<M: Payload> Context<'_, M> {
    /// This node's own identity.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// This node's *local* clock: global time plus any forward offset a
    /// harness injected via [`crate::Sim::set_clock_skew`]. Lease code must
    /// use this (never [`Context::now`]) for grant and expiry arithmetic so
    /// injected skew actually stresses the lease safety margin. Identical to
    /// `now()` unless skew was injected.
    #[inline]
    pub fn local_now(&self) -> Time {
        Time(self.now.0 + self.clock_offset)
    }

    /// The current maximum pairwise clock-offset difference across nodes, as
    /// a perfect TrueTime-style sync monitor would report it. Lease holders
    /// compare this against their configured tolerance and refuse local
    /// reads when actual skew exceeds it — the fallback the nemesis geo
    /// target drives past its edge.
    #[inline]
    pub fn clock_skew_bound(&self) -> u64 {
        self.skew_bound
    }

    /// Number of nodes currently registered in the simulation.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// This node's private deterministic RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut ChaCha20Rng {
        self.rng
    }

    /// Sends `msg` to `to`. Sending to self is allowed and goes through the
    /// network like any other message (with delay ~0 handled by the
    /// simulator as a local hop).
    pub fn send(&mut self, to: NodeId, msg: M) {
        let slot = self.msgs.insert(Flight {
            from: self.node,
            to,
            sent: self.now,
            tc: self.cur,
            msg,
        });
        self.effects.push(Effect::Send(slot));
    }

    /// Sends `msg` to every node in `targets`: a clone to each but the last,
    /// which takes the original.
    pub fn send_many<I: IntoIterator<Item = NodeId>>(&mut self, targets: I, msg: M) {
        let mut targets = targets.into_iter().peekable();
        while let Some(to) = targets.next() {
            if targets.peek().is_none() {
                self.send(to, msg);
                return;
            }
            self.send(to, msg.clone());
        }
    }

    /// Broadcasts to every *other* node.
    pub fn broadcast(&mut self, msg: M) {
        let me = self.node;
        self.send_many(
            (0..self.n_nodes).map(NodeId::from).filter(|&to| to != me),
            msg,
        );
    }

    /// Broadcasts to every node *including* self.
    pub fn broadcast_all(&mut self, msg: M) {
        self.send_many((0..self.n_nodes).map(NodeId::from), msg);
    }

    /// Arms a one-shot timer `delay` microseconds from now carrying the
    /// given `kind` discriminant.
    pub fn set_timer(&mut self, delay: u64, kind: u64) -> TimerId {
        let serial = *self.next_timer;
        *self.next_timer = serial.wrapping_add(1);
        let slot = self.timers.insert(Armed {
            node: self.node,
            serial,
            epoch: self.epoch,
            kind,
            cancelled: false,
        });
        self.effects.push(Effect::SetTimer {
            slot,
            at: self.now + delay,
        });
        TimerId { slot, serial }
    }

    /// Cancels a pending timer: it never fires, but stays queued — and
    /// counted by [`crate::Sim::pending_timers`] — until its time passes.
    /// Cancelling a timer that already fired, inside its own callback
    /// included, is a no-op: a later timer in its slot has another serial.
    pub fn cancel_timer(&mut self, id: TimerId) {
        let armed = self.timers.get_mut(id.slot);
        if let Some(armed) = armed.filter(|t| t.serial == id.serial) {
            armed.cancelled = true;
        }
    }

    /// Records the size (commands) of one batch a leader formed into
    /// [`crate::Metrics::batch_size`]. Leaders call this once per batch they
    /// form, so the histogram shows how well batching amortizes under load.
    pub fn record_batch(&mut self, size: u64) {
        self.effects.push(Effect::Batch(size));
    }

    /// Asks the simulator to stop at the end of this callback — used by
    /// driver nodes once the condition under test has been reached.
    pub fn stop(&mut self) {
        self.effects.push(Effect::Stop);
    }

    /// Marks the start of this node's work on one consensus instance.
    ///
    /// `(protocol, instance)` identifies the instance (e.g. a Multi-Paxos
    /// slot or a blockchain height); `round` is the protocol's round /
    /// ballot / view / term. The simulator timestamps the event, appends it
    /// to the trace when one is recorded ([`crate::Sim::record_trace`]), and
    /// uses the *first* open across all nodes as the instance's start time
    /// for latency accounting, recorded or not.
    ///
    /// ```
    /// use simnet::{Sim, Node, Context, NodeId, NetConfig, Payload, CncPhase};
    ///
    /// #[derive(Clone, Debug)]
    /// struct M;
    /// impl Payload for M {}
    ///
    /// struct Solo;
    /// impl Node for Solo {
    ///     type Msg = M;
    ///     fn on_start(&mut self, ctx: &mut Context<M>) {
    ///         ctx.span_open("demo", 0, 1);
    ///         ctx.phase("demo", 0, 1, CncPhase::Decision);
    ///         ctx.span_close("demo", 0, 1);
    ///     }
    ///     fn on_message(&mut self, _: &mut Context<M>, _: NodeId, _: M) {}
    /// }
    ///
    /// let mut sim: Sim<Solo> = Sim::new(NetConfig::synchronous(), 7);
    /// sim.add_node(Solo);
    /// sim.record_trace(true);
    /// sim.run_to_quiescence();
    /// assert_eq!(sim.trace().len(), 3);
    /// assert_eq!(sim.metrics().phase("decision"), 1);
    /// assert_eq!(sim.metrics().instance_latency.count(), 1);
    /// ```
    pub fn span_open(&mut self, protocol: &'static str, instance: u64, round: u64) {
        self.effects
            .push(Effect::Span(protocol, instance, round, SpanKind::Open));
    }

    /// Marks this node entering a C&C phase within an instance. See
    /// [`Context::span_open`] for the identification scheme.
    pub fn phase(&mut self, protocol: &'static str, instance: u64, round: u64, phase: CncPhase) {
        self.effects.push(Effect::Span(
            protocol,
            instance,
            round,
            SpanKind::Phase(phase),
        ));
    }

    /// Marks this node learning the decision for an instance. The first
    /// close across all nodes ends the instance for latency accounting.
    pub fn span_close(&mut self, protocol: &'static str, instance: u64, round: u64) {
        self.effects
            .push(Effect::Span(protocol, instance, round, SpanKind::Close));
    }

    // ---- causal tracing -------------------------------------------------
    //
    // The envelope does most of the work: `cur` is set from the delivered
    // message's context, every `send` in the callback inherits it, so the
    // trace chains across nodes with no protocol cooperation. The methods
    // below are the explicit hooks: roots, handoffs, queue spans, and
    // modeled device time. All are no-ops while tracing is disabled.

    /// The causal context this callback runs under (the envelope context of
    /// the message being handled, or whatever was last set).
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.cur
    }

    /// Overrides the causal context subsequent sends inherit. Protocols use
    /// this to resume a stored context — e.g. a leader flushing a batch sets
    /// the context of the command that triggered the flush.
    pub fn set_trace_ctx(&mut self, tc: Option<TraceCtx>) {
        self.cur = tc;
    }

    /// Opens a new root span (a new trace) and makes it the current context.
    /// Returns `None` while tracing is disabled. The span stays open until
    /// [`Context::trace_close`]; clients open one per request.
    pub fn trace_begin(&mut self, name: &str) -> Option<TraceCtx> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let node = self.node.0;
        let now = self.now.0;
        let id = self
            .tracer
            .record(0, 0, node, name.to_string(), cat::OP, now, now);
        // A root's trace id is its own span id; fix it up post-allocation.
        self.tracer.retag_root(id);
        let tc = TraceCtx {
            trace_id: id,
            parent_span: 0,
            span_id: id,
        };
        self.cur = Some(tc);
        Some(tc)
    }

    /// Closes (extends to `now`) the span the given context points at —
    /// normally the root from [`Context::trace_begin`], called when the
    /// response is observed.
    pub fn trace_close(&mut self, tc: TraceCtx) {
        let now = self.now.0;
        self.tracer.close(tc.span_id, now);
    }

    /// Records a completed span `[since, now]` under the given context —
    /// the hook for wait time that only becomes attributable in hindsight,
    /// like a command sitting in a leader's batch queue.
    pub fn trace_span_since(&mut self, tc: TraceCtx, name: &str, cat: &'static str, since: Time) {
        let node = self.node.0;
        let now = self.now.0;
        self.tracer.record(
            tc.trace_id,
            tc.span_id,
            node,
            name.to_string(),
            cat,
            since.0,
            now,
        );
    }

    /// Records modeled device time (WAL fsync / group commit) of `micros`
    /// starting now, under the current context. Pure accounting: the disk
    /// model's latency is already folded into the simulation elsewhere, so
    /// this schedules nothing and changes no timing.
    pub fn charge_io(&mut self, name: &str, micros: u64) {
        let (trace_id, parent) = match self.cur {
            Some(tc) => (tc.trace_id, tc.span_id),
            None => (0, 0),
        };
        let node = self.node.0;
        let now = self.now.0;
        self.tracer.record(
            trace_id,
            parent,
            node,
            name.to_string(),
            cat::FSYNC,
            now,
            now + micros,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct M(&'static str);
    impl Payload for M {
        fn kind(&self) -> &'static str {
            self.0
        }
    }

    fn ctx_harness(f: impl FnOnce(&mut Context<M>)) -> Vec<Effect> {
        ctx_harness_traced(Tracer::new(), f).0
    }

    /// Runs `f` on a fresh context of node 1; the effects it emitted, the
    /// record of each message it sent (in send order) and the tracer.
    fn ctx_harness_traced(
        mut tracer: Tracer,
        f: impl FnOnce(&mut Context<M>),
    ) -> (Vec<Effect>, Vec<Flight<M>>, Tracer) {
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let mut effects = Vec::new();
        let mut msgs = Slab::new();
        let mut timers = Slab::new();
        let mut next_timer = 0;
        let mut ctx = Context {
            node: NodeId(1),
            now: Time(100),
            n_nodes: 4,
            rng: &mut rng,
            effects: &mut effects,
            msgs: &mut msgs,
            timers: &mut timers,
            next_timer: &mut next_timer,
            epoch: 0,
            tracer: &mut tracer,
            cur: None,
            clock_offset: 0,
            skew_bound: 0,
        };
        f(&mut ctx);
        let sent = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send(slot) => Some(msgs.take(*slot)),
                _ => None,
            })
            .collect();
        (effects, sent, tracer)
    }

    #[test]
    fn broadcast_excludes_self() {
        let (_, sent, _) = ctx_harness_traced(Tracer::new(), |ctx| ctx.broadcast(M("x")));
        let targets: Vec<NodeId> = sent.iter().map(|f| f.to).collect();
        assert_eq!(targets, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert!(sent
            .iter()
            .all(|f| f.from == NodeId(1) && f.sent == Time(100)));
    }

    #[test]
    fn broadcast_all_includes_self() {
        let fx = ctx_harness(|ctx| ctx.broadcast_all(M("x")));
        assert_eq!(fx.len(), 4);
    }

    #[test]
    fn timer_ids_are_unique() {
        let fx = ctx_harness(|ctx| {
            let a = ctx.set_timer(10, 1);
            let b = ctx.set_timer(20, 2);
            assert_ne!(a, b);
        });
        assert_eq!(fx.len(), 2);
    }

    #[test]
    fn sends_inherit_the_current_trace_context() {
        let mut enabled = Tracer::new();
        enabled.enable(0);
        let (_, sent, tracer) = ctx_harness_traced(enabled, |ctx| {
            ctx.send(NodeId(0), M("untraced"));
            let root = ctx.trace_begin("op").expect("tracing enabled");
            assert_eq!(root.trace_id, root.span_id);
            ctx.send(NodeId(0), M("traced"));
            ctx.charge_io("wal-sync", 250);
        });
        let tcs: Vec<Option<TraceCtx>> = sent.iter().map(|f| f.tc).collect();
        assert_eq!(tcs.len(), 2);
        assert!(tcs[0].is_none());
        assert_eq!(tcs[1].map(|tc| tc.trace_id), Some(tcs[1].unwrap().span_id));
        // Root span + the fsync accounting span under it.
        assert_eq!(tracer.spans().len(), 2);
        let io = &tracer.spans()[1];
        assert_eq!(io.cat, cat::FSYNC);
        assert_eq!(io.end - io.start, 250);
        assert_eq!(io.parent, tracer.spans()[0].id);
    }

    #[test]
    fn trace_api_is_inert_when_disabled() {
        let (fx, _, tracer) = ctx_harness_traced(Tracer::new(), |ctx| {
            assert!(ctx.trace_begin("op").is_none());
            ctx.charge_io("wal-sync", 250);
            ctx.send(NodeId(0), M("x"));
        });
        assert!(tracer.spans().is_empty());
        assert_eq!(fx.len(), 1);
    }

    #[test]
    fn payload_defaults() {
        #[derive(Clone, Debug)]
        struct D;
        impl Payload for D {}
        assert_eq!(D.kind(), "msg");
        assert_eq!(D.size_bytes(), 64);
    }
}
