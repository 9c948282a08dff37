//! # atomic-commit — 2PC and 3PC
//!
//! A distributed transaction accesses data stored across multiple servers;
//! an *atomic commitment* protocol ensures either all servers commit or no
//! server commits. This crate implements the tutorial's commitment side:
//!
//! * [`two_phase`] — classic 2PC (vote request / vote / global decision)
//!   including **cooperative termination**, and a demonstration of the
//!   protocol's *blocking window*: if the coordinator crashes after every
//!   participant voted yes but before any decision escaped, participants
//!   hold their locks forever.
//! * [`three_phase`] — 3PC adds a *pre-commit* phase that replicates the
//!   decision to the cohorts before committing (like Paxos' fault-tolerant
//!   agreement phase in the C&C framework), plus the termination protocol:
//!   on coordinator failure the cohorts elect a successor that completes or
//!   aborts the transaction — non-blocking under crash faults.
//! * [`paxos_commit`] — Gray & Lamport's Paxos Commit: one Paxos instance
//!   per participant's prepared/aborted vote over a shared `2F+1` acceptor
//!   set, with `F+1` coordinators any of which can drive the decision.
//!   Non-blocking for `F ≥ 1`, and provably (by test) identical to 2PC's
//!   message pattern and outcomes at `F = 0`.
//!
//! All three are the tutorial's C&C framework instances, and they say so as
//! they run: each tags its steps with `simnet::CncPhase` spans (voting is
//! value discovery; pre-commit and the acceptors' `Phase2b` are
//! fault-tolerant agreement; a termination or takeover round opens with
//! leader election), which experiment F9 reads back. 2PC and 3PC's fixed
//! coordinator never elects itself, so their fault-free runs skip phase 1.

pub mod msg;
pub mod paxos_commit;
pub mod three_phase;
pub mod two_phase;

pub use msg::{CommitMsg, TxnState};
