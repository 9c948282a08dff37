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
//!   all stepped in deterministic lockstep ([`store`]).
//! * [`GeoConfig`] — WAN regions, shard placement, and the region-local
//!   linearizable read path (leader leases / read index) ([`geo`]).
//!
//! The punchline mirrors the tutorial's commitment story one layer up:
//! unreplicated 2PC (`atomic_commit::two_phase`) **blocks forever** when
//! its coordinator dies after collecting votes, while this store's
//! coordinator state is replicated log entries — the same crash only delays
//! the transaction until recovery re-derives the outcome from the logs.

pub mod engine;
pub mod geo;
pub mod shard_map;
pub mod store;

pub use engine::{ShardBuildSpec, ShardEngine, ShardGeo, ShardProtocol};
pub use geo::{compute_placement, GeoConfig, PlacementPolicy, ReadOutcome};
pub use shard_map::{key_hash, ShardMap};
pub use store::{
    decode_intent, encode_intent, intent_key, CommitBackend, OpRecord, RangeOutcome,
    RouterCrashPoint, Store, StoreConfig, TxnOutcome, AUDIT_CLIENT, QUANTUM_US, RECOVERY_CLIENT,
    RECOVERY_DELAY_US, ROUTER_BASE,
};
