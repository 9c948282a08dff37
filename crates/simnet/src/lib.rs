//! # simnet — deterministic discrete-event network simulation
//!
//! `simnet` is the substrate every protocol in this workspace runs on. It
//! models a set of *nodes* (state machines) exchanging typed messages over a
//! configurable network, driven by a single logical clock and a seeded RNG so
//! that **every run is reproducible bit-for-bit**.
//!
//! The three synchrony modes of the tutorial's taxonomy map directly onto
//! [`NetConfig`] delay models:
//!
//! * **Synchronous** — a known bound on message delay ([`DelayModel::Fixed`]
//!   or bounded [`DelayModel::Uniform`]).
//! * **Partially synchronous** — bounded delays for a subset of links after
//!   an (unknown) global stabilization time; modelled with per-link overrides
//!   and partitions that heal.
//! * **Asynchronous** — unbounded (heavy-tailed) delays via
//!   [`DelayModel::Exp`] with no cap, plus adversarial scheduling hooks.
//!
//! The failure-model aspect maps onto [`Sim::crash_at`] / [`Sim::restart_at`]
//! (crash / crash-recovery faults) and [`Sim::set_filter`] (Byzantine
//! behaviour: dropping, mutating, or equivocating on outbound messages).
//! Sender identities are assigned by the simulator and cannot be forged,
//! which models authenticated point-to-point channels — the assumption all
//! surveyed BFT protocols make.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Sim, Node, Context, NodeId, NetConfig, Payload};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Payload for Ping {
//!     fn kind(&self) -> &'static str { "ping" }
//! }
//!
//! struct Echo { seen: u32 }
//! impl Node for Echo {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<Ping>) {
//!         if ctx.id() == NodeId(0) {
//!             ctx.send(NodeId(1), Ping(7));
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<Ping>, _from: NodeId, msg: Ping) {
//!         self.seen = msg.0;
//!     }
//! }
//!
//! let mut sim: Sim<Echo> = Sim::new(NetConfig::lan(), 42);
//! sim.add_node(Echo { seen: 0 });
//! sim.add_node(Echo { seen: 0 });
//! sim.run_to_quiescence();
//! assert_eq!(sim.node(NodeId(1)).seen, 7);
//! ```

pub mod causal;
mod config;
mod event;
mod fault;
mod metrics;
mod node;
mod sim;
mod time;
mod timer;
mod trace;

pub use causal::{
    attribute_window, bucket_for_kind, chrome_trace, export_events, folded_stacks, CausalSpan,
    TraceCtx, Tracer,
};
pub use config::{DelayModel, DiskModel, NetConfig, NicModel, Synchrony, WanTopology};
pub use fault::{DropAll, Equivocate, Filter, FilterAction, FnFilter};
pub use metrics::{DropCause, Histogram, Metrics};
pub use node::{Context, Node, Payload, Timer, TimerId};
pub use sim::{RunOutcome, Sim};
pub use time::{NodeId, Time};
pub use timer::LiveTimer;
pub use trace::{cnc_rounds, CncPhase, SpanKind, TraceEntry, TraceEvent};

/// Defines an enum of heterogeneous node roles (e.g. replicas and clients)
/// that share a message type, and implements [`Node`] for it by delegation.
///
/// Protocol crates use this to put different actor kinds into one [`Sim`]
/// without trait objects or downcasting:
///
/// ```
/// use simnet::{node_enum, Node, Context, NodeId, Payload};
///
/// #[derive(Clone, Debug)]
/// pub struct M;
/// impl Payload for M {}
///
/// pub struct Replica;
/// impl Node for Replica {
///     type Msg = M;
///     fn on_start(&mut self, _ctx: &mut Context<M>) {}
///     fn on_message(&mut self, _ctx: &mut Context<M>, _from: NodeId, _m: M) {}
/// }
/// pub struct Client;
/// impl Node for Client {
///     type Msg = M;
///     fn on_start(&mut self, _ctx: &mut Context<M>) {}
///     fn on_message(&mut self, _ctx: &mut Context<M>, _from: NodeId, _m: M) {}
/// }
///
/// node_enum! {
///     /// A process in the toy protocol.
///     pub enum Proc: M {
///         Replica(Replica),
///         Client(Client),
///     }
/// }
/// ```
#[macro_export]
macro_rules! node_enum {
    ($(#[$meta:meta])* pub enum $name:ident : $msg:ty {
        $($(#[$vmeta:meta])* $var:ident($ty:ty)),+ $(,)?
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $var($ty)),+
        }
        $(impl From<$ty> for $name {
            fn from(v: $ty) -> Self { Self::$var(v) }
        })+
        impl $crate::Node for $name {
            type Msg = $msg;
            fn on_start(&mut self, ctx: &mut $crate::Context<Self::Msg>) {
                match self { $(Self::$var(n) => n.on_start(ctx)),+ }
            }
            fn on_message(
                &mut self,
                ctx: &mut $crate::Context<Self::Msg>,
                from: $crate::NodeId,
                msg: Self::Msg,
            ) {
                match self { $(Self::$var(n) => n.on_message(ctx, from, msg)),+ }
            }
            fn on_timer(&mut self, ctx: &mut $crate::Context<Self::Msg>, timer: $crate::Timer) {
                match self { $(Self::$var(n) => n.on_timer(ctx, timer)),+ }
            }
            fn on_restart(&mut self, ctx: &mut $crate::Context<Self::Msg>) {
                match self { $(Self::$var(n) => n.on_restart(ctx)),+ }
            }
            fn on_crash(&mut self) {
                match self { $(Self::$var(n) => n.on_crash()),+ }
            }
        }
    };
}
