//! # forty-store — a sharded transactional KV store over consensus groups
//!
//! The paper's closing argument is that modern large-scale data management
//! systems are *compositions* of the classic protocols: data is partitioned
//! into shards, each shard is a consensus group (Multi-Paxos or Raft), and
//! cross-shard transactions run atomic commitment **on top of** the groups.
//! This crate builds exactly that composition on the deterministic simnet
//! substrate:
//!
//! * [`ShardMap`] — hash-range key routing, serialized into the store
//!   config so every router provably shares one view
//!   ([`shard_map`]).
//! * [`ShardEngine`] — any [`consensus_core::ClusterDriver`] usable as a
//!   replicated shard log; implemented once, for every
//!   [`consensus_core::Cluster`] whose protocol is a [`ShardProtocol`] —
//!   `paxos::MultiPaxosCluster` and `raft::RaftCluster` ([`engine`]).
//! * [`Store`] — routers, 2PC-over-consensus (Gray & Lamport's *Consensus
//!   on Transaction Commit*), a recovery actor, and a post-run audit pass,
//!   all stepped in deterministic lockstep. [`store`] is the harness —
//!   build, `step`/`run`, result harvest, fault injection, fingerprint;
//!   [`config`] holds [`StoreConfig`], the [`CommitBackend`] spectrum and
//!   the control-record codec; `workload.rs` the seeded per-router workload;
//!   `router.rs` the forward path (13 phases over three backends);
//!   `recovery.rs` the termination path and the audit reader; and `port.rs`
//!   the one way any of those actors reaches a shard log — `send`, `poll`,
//!   at-most-once by `(client, seq)`, retransmission, fast-read fallback.
//! * [`GeoConfig`] — WAN regions, shard placement, and the region-local
//!   linearizable read path (leader leases / read index) ([`geo`]).
//!
//! The punchline mirrors the tutorial's commitment story one layer up:
//! unreplicated 2PC (`atomic_commit::paxos_commit` at `F = 0`) **blocks
//! forever** when its coordinator dies after collecting votes, while this
//! store's coordinator state is replicated log entries — the same crash only
//! delays the transaction until recovery re-derives the outcome from the logs.

pub mod config;
pub mod engine;
pub mod geo;
mod port;
mod recovery;
mod router;
pub mod shard_map;
pub mod store;
mod workload;

pub use config::{
    decode_intent, encode_intent, intent_key, CommitBackend, StoreConfig, AUDIT_CLIENT, QUANTUM_US,
    RECOVERY_CLIENT, RECOVERY_DELAY_US, ROUTER_BASE,
};
pub use engine::{ShardBuildSpec, ShardEngine, ShardGeo, ShardProtocol};
pub use geo::{compute_placement, GeoConfig, PlacementPolicy, ReadOutcome};
pub use port::OpRecord;
pub use router::{RangeOutcome, RouterCrashPoint, TxnOutcome};
pub use shard_map::{key_hash, ShardMap};
pub use store::Store;
