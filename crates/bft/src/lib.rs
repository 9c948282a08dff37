//! # bft — Byzantine fault tolerant state machine replication
//!
//! Every BFT protocol the tutorial surveys, on the common `simnet`
//! substrate. The seven SMR protocols are log protocols of the
//! `consensus_core` SMR shell: each module implements `SmrProtocol` for a
//! marker type and its `*Cluster` is an alias of `Cluster<P>`, so bench,
//! nemesis and the checkers drive all of them through `ClusterDriver`.
//!
//! * [`pbft`] — Practical Byzantine Fault Tolerance (Castro & Liskov):
//!   `3f+1` replicas, the three-phase pre-prepare/prepare/commit protocol,
//!   `O(n²)` steady-state messages, checkpoint-based garbage collection,
//!   and the `O(n³)` view change.
//! * [`zyzzyva`] — speculative BFT: replicas execute straight from the
//!   primary's ordering; commitment moves to the client (`3f+1` matching
//!   replies = 3 message delays; `2f+1` ⇒ client-driven commit
//!   certificate).
//! * [`hotstuff`] — linear message complexity via leader-collected
//!   threshold-signature quorum certificates, leader rotation built into
//!   the normal path, and the chained/pipelined variant.
//! * [`minbft`] — trusted-component BFT: the USIG's unique sequential
//!   identifiers halve the replica bound to `2f+1` and cut one phase.
//! * [`cheapbft`] — CheapTiny normal case with only `f+1` active replicas,
//!   PANIC-triggered CheapSwitch, and MinBFT fallback.
//! * [`xft`] — XFT/XPaxos: cross fault tolerance with `2f+1` replicas, a
//!   synchronous group of `f+1`, and the anarchy predicate.
//! * [`seemore`] — SeeMoRe's hybrid-cloud modes 1–3 over `3m+2c+1` nodes.
//! * [`upright`] — the UpRight fault model (`u = 2m+c+1` quorums,
//!   intersection `m+1`) and its agreement/execution split.
//! * [`shell`] — what the seven share beyond `consensus_core`. There is no
//!   BFT client node: every protocol runs `consensus_core::Client` and sets
//!   its policies as values — first attempts to the primary (HotStuff: to
//!   every replica), a broadcast on silence (CheapBFT raises `Panic` ahead of
//!   it), and a `Quorum` of *matching* replies, or Zyzzyva's
//!   [`zyzzyva::Speculative`] policy, in which the client takes part in
//!   agreement. Replica half: [`shell::Executor`] (request admission, the
//!   execute step, the in-order drain, history replay, and the `decided_log`
//!   record) and [`shell::Voter`] (view, view-change votes, watchdog). A
//!   protocol module keeps what the paper's info cards distinguish: who
//!   receives a proposal, what sequences and attests it, the quorum rule, and
//!   what recovery looks like.
//! * [`sim_crypto`] — the structural stand-ins for digests, MACs, threshold
//!   signatures, and trusted counters (see DESIGN.md's substitution table).

pub mod cheapbft;
pub mod hotstuff;
pub mod minbft;
pub mod pbft;
pub mod seemore;
pub mod shell;
pub mod sim_crypto;
pub mod upright;
pub mod xft;
pub mod zyzzyva;
