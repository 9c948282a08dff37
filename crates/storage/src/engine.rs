//! The [`StorageEngine`] trait: what the consensus and store layers ask of
//! durable storage, with the historical in-memory map ([`MemEngine`]) as
//! the trivial implementation and the full disk/WAL/pool/B+ tree stack
//! ([`DurableEngine`]) as the real one.
//!
//! ## Contract
//!
//! * `put`/`delete`/`get`/`scan` maintain the **primary index** — the
//!   durable mirror of applied state. Writes here are *not* synchronously
//!   durable; they ride the pool and may be lost on crash.
//! * `log_record` + `sync` are the **durability path**: a record is
//!   guaranteed to survive a crash once `sync` returns (group commit — all
//!   records buffered since the last sync flush as one I/O). `sync` returns
//!   the device time that flush charged.
//! * `write_snapshot_with` checkpoints: it flushes the index, runs the
//!   caller's encoder into the engine's own snapshot buffer, and
//!   **truncates the WAL** — every record logged so far is considered
//!   absorbed by the blob. Callers re-log anything still live.
//!   `write_snapshot` stores a blob already encoded.
//! * `crash` drops exactly the volatile state; `recover` returns the last
//!   snapshot blob and the WAL records flushed after it, in append order.
//!   The caller replays those into its own state and re-mirrors the index.
//!
//! The intended protocol invariant (see DESIGN.md "Durability & recovery"):
//! log + sync **before** acknowledging anything externally — promises,
//! accepts, 2PC decisions. The engine cannot enforce ordering for its
//! caller, but `recover` makes violations visible: whatever was not synced
//! is simply not there after a crash. The log protocols keep the invariant
//! through one handle, `consensus_core::durable::Disk`.

use simnet::DiskModel;
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::disk::SimDisk;
use crate::wal::Wal;

/// What a restarted process gets back from its engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The last checkpoint blob, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// WAL records flushed after that checkpoint, in append order.
    pub records: Vec<Vec<u8>>,
}

/// Aggregated engine counters (superset of disk/pool/WAL stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Disk read I/Os.
    pub disk_reads: u64,
    /// Disk write I/Os.
    pub disk_writes: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Modeled device time in µs.
    pub io_time_us: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL flushes (group commits).
    pub wal_flushes: u64,
    /// Buffer pool hits.
    pub pool_hits: u64,
    /// Buffer pool misses.
    pub pool_misses: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Dirty frames written back.
    pub writebacks: u64,
    /// Checkpoints written.
    pub snapshots_written: u64,
    /// Crash/recover cycles completed.
    pub recoveries: u64,
    /// WAL records handed back by recoveries.
    pub records_replayed: u64,
}

/// Durable storage as seen by a replica: a primary index plus a WAL and
/// checkpoint facility. Object-safe so protocol nodes can hold any engine.
pub trait StorageEngine: std::fmt::Debug {
    /// Upserts `key` in the primary index.
    fn put(&mut self, key: &str, value: &str);
    /// Removes `key` from the primary index.
    fn delete(&mut self, key: &str);
    /// Point read from the primary index.
    fn get(&mut self, key: &str) -> Option<String>;
    /// Ordered scan of `[lo, hi)` from the primary index.
    fn scan(&mut self, lo: &str, hi: &str) -> Vec<(String, String)>;
    /// Buffers one WAL record (durable after the next [`StorageEngine::sync`]).
    fn log_record(&mut self, rec: &[u8]);
    /// Group commit: makes every buffered record durable in one I/O, and
    /// returns the modeled device time it charged (µs).
    fn sync(&mut self) -> u64;
    /// Checkpoint: flushes the index, persists what `encode` writes into
    /// the engine's cleared snapshot buffer, truncates the WAL.
    fn write_snapshot_with(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>));
    /// Checkpoint with a blob already encoded.
    fn write_snapshot(&mut self, blob: &[u8]) {
        self.write_snapshot_with(&mut |buf| buf.extend_from_slice(blob));
    }
    /// Drops all volatile state (pool frames, unflushed WAL, the index's
    /// in-RAM form). Counters survive — they model the operator's view.
    fn crash(&mut self);
    /// Returns the checkpoint and post-checkpoint WAL records to rebuild
    /// from. The index comes back empty; the caller re-mirrors it.
    fn recover(&mut self) -> Recovery;
    /// Cumulative counters.
    fn stats(&self) -> StorageStats;
}

/// The trivial engine: a RAM map with perfect durability semantics and zero
/// modeled latency. `crash` still drops unsynced WAL records — durability
/// *semantics* are engine-independent; only the latency model differs.
#[derive(Debug, Default)]
pub struct MemEngine {
    map: BTreeMap<String, String>,
    synced: Vec<Vec<u8>>,
    pending: Vec<Vec<u8>>,
    snapshot: Option<Vec<u8>>,
    stats: StorageStats,
}

impl MemEngine {
    /// A fresh empty engine.
    pub fn new() -> Self {
        MemEngine::default()
    }
}

impl StorageEngine for MemEngine {
    fn put(&mut self, key: &str, value: &str) {
        self.map.insert(key.to_string(), value.to_string());
    }

    fn delete(&mut self, key: &str) {
        self.map.remove(key);
    }

    fn get(&mut self, key: &str) -> Option<String> {
        self.map.get(key).cloned()
    }

    fn scan(&mut self, lo: &str, hi: &str) -> Vec<(String, String)> {
        if lo > hi {
            return Vec::new(); // `BTreeMap::range` panics on inverted bounds
        }
        self.map
            .range::<str, _>((Bound::Included(lo), Bound::Excluded(hi)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn log_record(&mut self, rec: &[u8]) {
        self.pending.push(rec.to_vec());
        self.stats.wal_appends += 1;
    }

    fn sync(&mut self) -> u64 {
        if !self.pending.is_empty() {
            self.synced.append(&mut self.pending);
            self.stats.wal_flushes += 1;
        }
        0
    }

    fn write_snapshot_with(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) {
        let snapshot = self.snapshot.get_or_insert_with(Vec::new);
        snapshot.clear();
        encode(snapshot);
        self.synced.clear();
        self.pending.clear();
        self.stats.snapshots_written += 1;
    }

    fn crash(&mut self) {
        self.pending.clear();
        self.map.clear();
    }

    fn recover(&mut self) -> Recovery {
        self.stats.recoveries += 1;
        self.stats.records_replayed += self.synced.len() as u64;
        Recovery {
            snapshot: self.snapshot.clone(),
            records: self.synced.clone(),
        }
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

/// Pool frames for the durable engine. Small enough that real workloads
/// miss (the stats mean something), large enough that hot paths hit.
const POOL_PAGES: usize = 64;

/// The full stack: simulated disk + WAL + buffer pool + B+ tree.
#[derive(Debug)]
pub struct DurableEngine {
    disk: SimDisk,
    pool: BufferPool,
    tree: BTree,
    wal: Wal,
    snapshots_written: u64,
    recoveries: u64,
    records_replayed: u64,
}

impl DurableEngine {
    /// A fresh engine on an empty disk obeying `model`.
    pub fn new(model: DiskModel) -> Self {
        let mut disk = SimDisk::new(model);
        let mut pool = BufferPool::new(POOL_PAGES);
        let tree = BTree::new(&mut disk, &mut pool);
        DurableEngine {
            disk,
            pool,
            tree,
            wal: Wal::new(),
            snapshots_written: 0,
            recoveries: 0,
            records_replayed: 0,
        }
    }

    /// Modeled device time spent so far (µs) — the recovery-time metric.
    pub fn io_time_us(&self) -> u64 {
        self.disk.stats().io_time_us
    }
}

impl StorageEngine for DurableEngine {
    fn put(&mut self, key: &str, value: &str) {
        self.tree.put(&mut self.disk, &mut self.pool, key, value);
    }

    fn delete(&mut self, key: &str) {
        self.tree.delete(&mut self.disk, &mut self.pool, key);
    }

    fn get(&mut self, key: &str) -> Option<String> {
        self.tree.get(&mut self.disk, &mut self.pool, key)
    }

    fn scan(&mut self, lo: &str, hi: &str) -> Vec<(String, String)> {
        self.tree.scan(&mut self.disk, &mut self.pool, lo, hi)
    }

    fn log_record(&mut self, rec: &[u8]) {
        self.wal.append(rec);
    }

    fn sync(&mut self) -> u64 {
        let before = self.disk.stats().io_time_us;
        self.wal.flush(&mut self.disk);
        self.disk.stats().io_time_us - before
    }

    fn write_snapshot_with(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) {
        self.pool.flush_all(&mut self.disk);
        self.disk.write_snapshot_with(encode);
        self.disk.truncate_log(0);
        self.wal.crash(); // buffered records are absorbed by the blob
        self.snapshots_written += 1;
    }

    fn crash(&mut self) {
        self.wal.crash();
        self.pool.crash();
        // The on-disk index may be torn mid-structure (an eviction wrote a
        // split's child but not its parent); recovery reformats the page
        // area and rebuilds the index from snapshot + WAL, paying the
        // rebuild's page I/O — which is the honest cost of this design.
        self.disk.reset_pages();
        self.tree = BTree::new(&mut self.disk, &mut self.pool);
    }

    fn recover(&mut self) -> Recovery {
        let records = Wal::replay(&mut self.disk);
        self.recoveries += 1;
        self.records_replayed += records.len() as u64;
        Recovery {
            snapshot: self.disk.read_snapshot(),
            records,
        }
    }

    fn stats(&self) -> StorageStats {
        let d = self.disk.stats();
        let p = self.pool.stats();
        StorageStats {
            disk_reads: d.reads,
            disk_writes: d.writes,
            bytes_read: d.bytes_read,
            bytes_written: d.bytes_written,
            io_time_us: d.io_time_us,
            wal_appends: self.wal.appends,
            wal_flushes: self.wal.flushes,
            pool_hits: p.hits,
            pool_misses: p.misses,
            evictions: p.evictions,
            writebacks: p.writebacks,
            snapshots_written: self.snapshots_written,
            recoveries: self.recoveries,
            records_replayed: self.records_replayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<Box<dyn StorageEngine>> {
        vec![
            Box::new(MemEngine::new()),
            Box::new(DurableEngine::new(DiskModel::ssd())),
        ]
    }

    #[test]
    fn index_ops_agree_across_engines() {
        for mut e in engines() {
            e.put("b", "2");
            e.put("a", "1");
            e.put("c", "3");
            e.delete("b");
            assert_eq!(e.get("a").as_deref(), Some("1"));
            assert_eq!(e.get("b"), None);
            assert_eq!(
                e.scan("a", "z"),
                vec![
                    ("a".to_string(), "1".to_string()),
                    ("c".to_string(), "3".to_string())
                ],
                "scan mismatch on {e:?}"
            );
            assert_eq!(e.scan("z", "a"), vec![], "inverted range on {e:?}");
            assert_eq!(e.scan("b", "b"), vec![], "empty range on {e:?}");
        }
    }

    #[test]
    fn index_reads_agree_after_a_crash_rebuilds_the_tree() {
        // 100-byte keys and 300-byte values: ten rows a leaf and under forty
        // separators an internal page, so 400 rows make a three-level tree
        // and the 200 re-put after the crash a two-level one.
        let key = |i: usize| format!("{i:03}{}", "k".repeat(97));
        let mut mem = MemEngine::new();
        let mut dur = DurableEngine::new(DiskModel::ssd());
        for e in [&mut mem as &mut dyn StorageEngine, &mut dur] {
            for i in 0..400 {
                e.put(&key(i), &"a".repeat(300));
            }
            e.crash();
            e.recover();
            for i in (0..400).step_by(2) {
                e.put(&key(i), &"b".repeat(300));
            }
        }
        for i in 0..400 {
            assert_eq!(dur.get(&key(i)), mem.get(&key(i)), "get {i}");
        }
        assert_eq!(dur.scan("", "~").len(), 200);
        assert_eq!(dur.scan("", "~"), mem.scan("", "~"));
        assert_eq!(
            dur.scan(&key(101), &key(302)),
            mem.scan(&key(101), &key(302))
        );
    }

    #[test]
    fn synced_records_survive_crash_unsynced_do_not() {
        for mut e in engines() {
            e.log_record(b"r1");
            e.log_record(b"r2");
            e.sync();
            e.log_record(b"lost");
            e.crash();
            let r = e.recover();
            assert_eq!(r.snapshot, None);
            assert_eq!(r.records, vec![b"r1".to_vec(), b"r2".to_vec()]);
        }
    }

    #[test]
    fn snapshot_truncates_wal_and_survives() {
        for mut e in engines() {
            e.log_record(b"before");
            e.sync();
            e.write_snapshot(b"state@5");
            e.log_record(b"after");
            e.sync();
            e.crash();
            let r = e.recover();
            assert_eq!(r.snapshot.as_deref(), Some(&b"state@5"[..]));
            assert_eq!(r.records, vec![b"after".to_vec()]);
        }
    }

    #[test]
    fn in_place_and_blob_checkpoints_leave_the_same_bytes_and_counters() {
        let run = |in_place: bool| -> Vec<(String, StorageStats)> {
            engines()
                .into_iter()
                .map(|mut e| {
                    for i in 0..300 {
                        e.put(&format!("k{i:03}"), &"v".repeat(i % 50));
                        e.log_record(format!("r{i}").as_bytes());
                        if i % 100 == 99 {
                            let blob = format!("state@{i}").repeat(200 - i / 2);
                            if in_place {
                                e.write_snapshot_with(&mut |buf| {
                                    buf.extend_from_slice(blob.as_bytes())
                                });
                            } else {
                                e.write_snapshot(blob.as_bytes());
                            }
                        }
                    }
                    e.sync();
                    (format!("{e:?}"), e.stats())
                })
                .collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn a_shorter_checkpoint_after_a_longer_one_leaves_no_stale_tail() {
        for mut e in engines() {
            e.write_snapshot_with(&mut |buf| buf.extend_from_slice(b"a longer blob"));
            e.write_snapshot_with(&mut |buf| {
                assert!(buf.is_empty(), "the encoder gets a cleared buffer");
                buf.extend_from_slice(b"short");
            });
            e.crash();
            assert_eq!(e.recover().snapshot.as_deref(), Some(&b"short"[..]));
        }
    }

    #[test]
    fn sync_returns_the_device_time_it_charged() {
        for mut e in engines() {
            e.log_record(b"one");
            e.log_record(b"two");
            let before = e.stats().io_time_us;
            let spent = e.sync();
            assert_eq!(spent, e.stats().io_time_us - before, "on {e:?}");
            assert_eq!(e.sync(), 0, "nothing left to flush");
        }
        let mut dur = DurableEngine::new(DiskModel::ssd());
        dur.log_record(b"x");
        assert!(dur.sync() > 0);
    }

    #[test]
    fn repeated_crash_recover_is_stable() {
        for mut e in engines() {
            e.log_record(b"x");
            e.sync();
            let first = {
                e.crash();
                e.recover()
            };
            e.crash();
            let second = e.recover();
            assert_eq!(first, second, "recovery must be idempotent on {e:?}");
        }
    }

    #[test]
    fn durable_engine_charges_io_time_mem_engine_does_not() {
        let mut mem = MemEngine::new();
        let mut dur = DurableEngine::new(DiskModel::ssd());
        for i in 0..50 {
            let k = format!("key{i:03}");
            mem.put(&k, "value");
            mem.log_record(k.as_bytes());
            dur.put(&k, "value");
            dur.log_record(k.as_bytes());
        }
        mem.sync();
        dur.sync();
        assert_eq!(mem.stats().io_time_us, 0);
        let s = dur.stats();
        assert!(s.io_time_us > 0);
        assert_eq!(s.wal_flushes, 1, "one group commit");
        assert_eq!(s.wal_appends, 50);
        assert!(s.pool_hits > 0);
    }

    #[test]
    fn recovery_reports_are_deterministic() {
        let run = || {
            let mut e = DurableEngine::new(DiskModel::hdd());
            for i in 0..40 {
                e.put(&format!("k{i}"), &format!("v{i}"));
                e.log_record(format!("rec{i}").as_bytes());
                if i % 8 == 7 {
                    e.sync();
                }
            }
            e.write_snapshot(b"snap");
            e.log_record(b"tail");
            e.sync();
            e.crash();
            let r = e.recover();
            (r, e.stats().io_time_us, e.stats().disk_writes)
        };
        assert_eq!(run(), run());
    }
}
