//! # forty — 40 years of consensus behind one import
//!
//! The facade crate: re-exports the whole protocol zoo built for the
//! reproduction of *"Modern Large-Scale Data Management Systems after 40
//! Years of Consensus"* (Amiri, Agrawal, El Abbadi — ICDE 2020), and hosts
//! the repository-level examples and cross-crate integration tests.
//!
//! ```
//! use forty::paxos::MultiPaxosCluster;
//! use forty::consensus_core::QuorumSpec;
//! use forty::simnet::{NetConfig, Time};
//!
//! let mut cluster = MultiPaxosCluster::new(
//!     QuorumSpec::Majority { n: 3 },
//!     1,          // clients
//!     5,          // commands per client
//!     NetConfig::lan(),
//!     42,         // seed — identical runs every time
//! );
//! assert!(cluster.run(Time::from_secs(10)));
//! assert_eq!(cluster.total_completed(), 5);
//! ```
//!
//! ## Map of the workspace
//!
//! | crate | contents |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event network simulation |
//! | [`consensus_core`] | taxonomy, ballots, quorum systems, C&C framework, and the SMR shell (`SmrOp`, `DedupKvMachine`, `Session` + `Client`, `Wave`, `Cluster<P>`) under all nine SMR protocols |
//! | [`paxos`] | single-decree, Multi-, Fast, and Flexible Paxos |
//! | [`raft`] | Raft |
//! | [`atomic_commit`] | Paxos Commit (2PC at `F = 0`) and fault-tolerant 3PC |
//! | [`agreement`] | interactive consistency, OM(m), FLP, Ben-Or |
//! | [`bft`] | PBFT, Zyzzyva, HotStuff, MinBFT, CheapBFT, XFT, SeeMoRe — each a `Cluster<P>` — their replica shell, and the UpRight model |
//! | [`blockchain`] | PoW, PoS, permissioned chains |
//! | [`store`] | sharded transactional KV store: 2PC over consensus groups |

pub use agreement;
pub use atomic_commit;
pub use bft;
pub use blockchain;
pub use consensus_core;
pub use paxos;
pub use raft;
pub use simnet;
pub use store;
