//! # atomic-commit — 2PC, 3PC and Paxos Commit
//!
//! A distributed transaction accesses data stored across multiple servers;
//! an *atomic commitment* protocol ensures either all servers commit or no
//! server commits. This crate implements the tutorial's commitment side:
//!
//! * [`paxos_commit`] — Gray & Lamport's Paxos Commit: one Paxos instance
//!   per participant's prepared/aborted vote over a shared `2F+1` acceptor
//!   set, with `F+1` coordinators any of which can drive the decision.
//!   Non-blocking for `F ≥ 1`. At `F = 0` it *is* classic 2PC (vote
//!   request / vote / global decision, `3n` messages), and 2PC runs here
//!   are `paxos_commit::build(votes, 0, ..)`: if the lone coordinator
//!   crashes after every participant voted yes but before any decision
//!   escaped, participants hold their locks forever — 2PC's *blocking
//!   window*.
//! * [`three_phase`] — 3PC adds a *pre-commit* phase that replicates the
//!   decision to the cohorts before committing (like Paxos' fault-tolerant
//!   agreement phase in the C&C framework), plus the termination protocol:
//!   on coordinator failure the cohorts elect a successor that completes or
//!   aborts the transaction — non-blocking under crash faults.
//!
//! Both are the tutorial's C&C framework instances, and they say so as
//! they run: each tags its steps with `simnet::CncPhase` spans (voting is
//! value discovery; pre-commit and the acceptors' `Phase2b` at `F ≥ 1` are
//! fault-tolerant agreement; a termination or takeover round opens with
//! leader election), which experiment F9 reads back. A fixed coordinator
//! never elects itself, so fault-free runs skip phase 1, and 2PC
//! (`F = 0`) replicates nothing, so it skips phase 3 too.

pub mod msg;
pub mod paxos_commit;
pub mod three_phase;
mod two_phase;

pub use msg::{CommitMsg, TxnState};
