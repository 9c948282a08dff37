//! # raft — In Search of an Understandable Consensus Algorithm
//!
//! Raft (Ongaro & Ousterhout, USENIX ATC 2014) as surveyed by the tutorial:
//! *equivalent to Paxos in fault-tolerance, meant to be more understandable,
//! uses a leader approach, integrates consensus with log management*. Same
//! info card as Paxos: partially synchronous, crash faults, pessimistic,
//! known participants, `2f+1` nodes, 2 phases, `O(N)` messages.
//!
//! Op, dedup machine, workload client, batch policy and cluster harness are
//! the SMR shell of [`consensus_core`] — the same ones Multi-Paxos runs
//! under, so the cross-protocol comparison in `bench` is apples-to-apples.
//! What this crate supplies is pure Raft: terms, randomized election
//! timeouts, the election restriction, `AppendEntries` consistency checks,
//! and the current-term commit rule.

pub mod cluster;
pub mod msg;
pub mod replica;

pub use cluster::{LogMatching, Proc, Raft, RaftCluster};
/// The replicated log's durable format, which Multi-Paxos writes too.
pub use consensus_core::durable;
pub use msg::{Entry, RaftMsg};
pub use replica::{Replica, Role};
