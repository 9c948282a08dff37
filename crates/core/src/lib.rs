//! # consensus-core — the tutorial's own contributions
//!
//! This crate implements the conceptual machinery of *"Modern Large-Scale
//! Data Management Systems after 40 Years of Consensus"* (Amiri, Agrawal,
//! El Abbadi, ICDE 2020):
//!
//! * [`taxonomy`] — the five-aspect classification (synchrony mode, failure
//!   model, processing strategy, participant awareness, complexity metrics)
//!   and the per-protocol "info cards" shown throughout the tutorial. The
//!   benchmark harness cross-checks every card against measured behaviour.
//! * [`ballot`] — totally ordered `⟨num, process id⟩` ballots, exactly as in
//!   the Paxos slides.
//! * [`quorum`] — quorum systems: majority, Byzantine (`2f+1` of `3f+1`),
//!   flexible (FPaxos' generalized quorum condition), grid, and the hybrid
//!   `m`-malicious/`c`-crash systems of UpRight/SeeMoRe, with intersection
//!   checkers used by property tests.
//! * [`register`] — the one Paxos acceptor ([`Register`]: a promise over
//!   slots plus each slot's accepted value) and its [`Tally`] of distinct
//!   voters. Single-decree, Fast and Multi-Paxos and Paxos Commit all
//!   promise and accept through it.
//! * [`smr`] — state machine replication building blocks: commands, a
//!   replicated log, and deterministic state machines (key-value store,
//!   counter).
//! * [`codec`] and [`durable`] — the bytes of the shell's types, and the
//!   replicated log's durable side over a `storage` engine: the WAL records
//!   Multi-Paxos and Raft both write, the snapshot header, and the one
//!   handle a log replica holds its engine through, [`durable::Disk`] —
//!   log, sync, checkpoint, restore, state install, the decision table,
//!   and the apply step's index.
//! * [`workload`] — deterministic client workload generators and latency
//!   recording shared by all protocol crates and the bench harness.
//! * [`driver`] — the unified [`ClusterDriver`] API (construct from seed,
//!   step, fault, harvest) plus the shared [`BatchConfig`]
//!   batching/pipelining knob and the leader's unproposed work under its
//!   one ripeness policy, [`Wave`];
//!   bench and nemesis drive every SMR protocol only through this trait.
//! * [`client`] and [`cluster`] — the rest of the **SMR shell** shared by
//!   all nine SMR protocols (Multi-Paxos, Raft and the seven in `bft`): the
//!   workload [`Session`], the client messages ([`ClientMsg`]) every
//!   protocol's [`Envelope`] carries, the one workload [`Client`] under each
//!   protocol's three policies, and the generic [`Cluster`] harness with the
//!   single [`ClusterDriver`] impl.
//!   A log protocol supplies an [`SmrProtocol`] impl — peer messages,
//!   replica, client policies, [`ClusterShape`], `decided_log` shape — and
//!   nothing else.
//! * [`shell`] — the replica half of that shell for the two log protocols,
//!   Multi-Paxos and Raft: request intake, the fast-read path that parks
//!   and answers a read once its protocol confirmed it, and
//!   [`shell::Core`], what both replicas hold and do alike around their log
//!   (apply with decision sync and reply, restart and restore, install).
//! * [`txn`] — shared transaction types for the sharded store
//!   (`forty-store`): transaction ids and outcomes, and the log-entry
//!   encoding of the Gray–Lamport 2PC-over-consensus construction, including
//!   the C&C phase mapping of its prepare/decide steps.
//!
//! The paper's other contribution, the **Consensus & Commitment (C&C)
//! framework** — every leader-based agreement protocol as *Leader Election →
//! Value Discovery → Fault-tolerant Agreement → Decision* — has no engine of
//! its own: it is the [`simnet::CncPhase`] span each real protocol emits as
//! it runs, and experiment F9 reads the four phases off single-decree Paxos,
//! 2PC, 3PC and Paxos Commit.

pub mod ballot;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod driver;
pub mod durable;
pub mod history;
pub mod quorum;
pub mod register;
pub mod shell;
pub mod smr;
pub mod taxonomy;
pub mod txn;
pub mod workload;

pub use ballot::Ballot;
pub use client::{Accept, Answer, Client, ClientMsg, Envelope, Quorum, Session, Silence, Target};
pub use cluster::{Cluster, ClusterShape, DurableProtocol, Harvest, Proc, SmrProtocol};
pub use driver::{BatchConfig, ClusterDriver, DecidedEntry, DriverConfig, Wave};
pub use history::{ClientRecord, HistorySink};
pub use quorum::QuorumSpec;
pub use register::{Register, Tally};
pub use smr::{
    Command, DedupKvMachine, KvCommand, KvResponse, KvStore, PrimaryIndex, ReadMode, ReplicatedLog,
    SmrOp, StateMachine, Str,
};
pub use taxonomy::{
    ComplexityClass, FailureModel, NodeBound, ParticipantAwareness, ProcessingStrategy,
    ProtocolCard,
};
pub use txn::{TxnDecision, TxnId, TxnPhase};
pub use workload::WorkloadMode;
