//! # storage — a deterministic durable storage engine
//!
//! The missing half of the paper's data-management story: state that
//! outlives a process. This crate provides a page-based storage stack whose
//! disk I/O is *simulated* exactly like simnet's NIC model — every I/O
//! charges `seek_us + bytes / bytes_per_us` of device time into counters —
//! so recovery-time and cold-cache experiments are pure functions of
//! (workload, [`simnet::DiskModel`], seed), bit-for-bit reproducible.
//!
//! Layers, bottom up:
//!
//! * [`SimDisk`] ([`disk`]) — a simulated device with three regions: a page
//!   area (fixed [`PAGE_SIZE`] frames), an append-only log area, and a
//!   snapshot area with atomic whole-blob replace.
//! * [`Wal`] ([`wal`]) — a write-ahead log with **group commit** (records
//!   buffer in RAM; one `flush` = one seek, however many records it
//!   carries) and per-record CRC32 checksums, so replay tolerates torn
//!   tails by stopping at the first short or corrupt record.
//! * [`BufferPool`] ([`buffer`]) — a fixed set of in-RAM page frames with
//!   CLOCK (second-chance) eviction and dirty-page write-back, sharing
//!   pages copy-on-write with the disk.
//! * [`BTree`] ([`btree`]) — a B+ tree primary index over the pool: point
//!   put/get/delete plus ordered range scans via leaf chaining.
//! * [`StorageEngine`] ([`engine`]) — the trait the consensus and store
//!   layers program against, with [`MemEngine`] (the historical in-memory
//!   map, perfectly durable, zero latency) and [`DurableEngine`] (the full
//!   stack) as implementations.
//!
//! A log replica holds its engine through one handle, `Disk`, which lives
//! beside the record format it writes in `consensus_core::durable`: record
//! logging, dirty-gated group commit charged to the causal trace,
//! checkpoint, crash restore and the decision table. This crate holds only
//! the engines and knows nothing of what a record means.
//!
//! The crash model matches the simulator's: [`StorageEngine::crash`] drops
//! exactly the volatile state (pool frames, unflushed WAL tail), and
//! [`StorageEngine::recover`] hands back what a restarted process can
//! rebuild from — the last snapshot blob plus every WAL record flushed
//! since it was taken.

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod engine;
pub mod wal;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use disk::{DiskStats, SimDisk, PAGE_SIZE};
pub use engine::{DurableEngine, MemEngine, Recovery, StorageEngine, StorageStats};
pub use wal::Wal;
