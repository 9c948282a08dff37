//! # paxos — the Paxos family on the simnet substrate
//!
//! Implements the Paxos lineage exactly as surveyed in the tutorial:
//!
//! * [`single`] — single-decree Paxos with the slide-for-slide variable set
//!   (`BallotNum`, `AcceptNum`, `AcceptVal`) and message flow
//!   (prepare / ack / accept / accepted / decide).
//! * [`livelock`] — the duelling-proposers liveness scenario
//!   (P 3.1 / P 3.5 / P 4.1 / P 5.5 …) and its fix, randomized restart
//!   delays.
//! * [`multi`] — Multi-Paxos: one Basic-Paxos instance per log index, phase 1
//!   only on leader change ("view change"), stable-leader normal mode with
//!   heartbeats, client table with duplicate suppression, driving a
//!   replicated key-value store.
//! * [`fast`] — Fast Paxos: the coordinator's *Any* message lets clients send
//!   values straight to the acceptors (2 message delays instead of 3) at the
//!   cost of `3f+1` nodes and collision-triggered classic rounds.
//! * [`flexible`] — Flexible Paxos: [`multi`] parameterized by any
//!   [`consensus_core::QuorumSpec`] whose election and replication quorums
//!   intersect — including grid quorums.
//!
//! Durable Multi-Paxos writes the replicated log's one durable format,
//! [`consensus_core::durable`], through the [`storage`] engine: snapshot /
//! install-state / log-truncation support and real crash recovery (WAL
//! replay + snapshot load) instead of RAM-durability.

pub mod fast;
pub mod flexible;
pub mod livelock;
pub mod multi;
pub mod single;

pub use multi::{LogConsistency, MultiPaxos, MultiPaxosCluster};
pub use single::{PaxosMsg, PaxosNode, RetryPolicy};
