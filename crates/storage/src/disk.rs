//! The simulated disk: a deterministic device with modeled latency.
//!
//! Like the NIC model, the disk does not schedule events — it *accounts*.
//! Every read or write charges `model.io_micros(bytes)` into
//! [`DiskStats::io_time_us`], so the layers above can report recovery time,
//! checkpoint cost, and cache-miss penalties that are pure functions of the
//! workload and the [`simnet::DiskModel`], with zero nondeterminism.
//!
//! Three regions, mirroring a real single-file database layout:
//!
//! * **page area** — fixed-size frames addressed by page id, backing the
//!   buffer pool and B+ tree;
//! * **log area** — an append-only byte region for the WAL (one append =
//!   one seek: the group-commit contract);
//! * **snapshot area** — a whole-blob checkpoint with atomic replace.
//!
//! Everything written here is durable by definition; the *volatile* half of
//! the stack (pool frames, unflushed WAL buffer) lives in the layers above.
//!
//! Pages are [`Page`]s, shared copy-on-write with the buffer pool's frames:
//! an allocation hands out the disk's one zero page, a read lends the
//! device's page to a frame and a write-back hands the frame's page to the
//! device, each by pointer. The bytes are copied only when the pool edits a
//! page the device still shares.

use std::fmt;
use std::rc::Rc;

use simnet::DiskModel;

/// Bytes per page frame. 4 KiB, the classic unit.
pub const PAGE_SIZE: usize = 4096;

/// One page's bytes, shared between the device and the pool's frames.
/// `Rc`, not `Arc`: an engine never crosses a thread.
pub type Page = Rc<[u8; PAGE_SIZE]>;

/// Cumulative device counters. All deterministic; all monotone except none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Completed read I/Os.
    pub reads: u64,
    /// Completed write I/Os (page writes, log appends, snapshot writes).
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Total modeled device time in µs (seeks + transfer).
    pub io_time_us: u64,
}

/// A deterministic simulated disk.
pub struct SimDisk {
    model: DiskModel,
    pages: Vec<Page>,
    /// What every allocated page starts as, shared until it is written.
    zero: Page,
    log: Vec<u8>,
    /// Overwritten in place by each checkpoint, so its buffer is kept.
    snapshot: Option<Vec<u8>>,
    stats: DiskStats,
}

/// The device's contents and counters; the shared zero page is a cache, so
/// it is left out.
impl fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimDisk")
            .field("model", &self.model)
            .field("pages", &self.pages)
            .field("log", &self.log)
            .field("snapshot", &self.snapshot)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SimDisk {
    /// A fresh, empty disk obeying `model`.
    pub fn new(model: DiskModel) -> Self {
        SimDisk {
            model,
            pages: Vec::new(),
            zero: Rc::new([0; PAGE_SIZE]),
            log: Vec::new(),
            snapshot: None,
            stats: DiskStats::default(),
        }
    }

    fn charge_read(&mut self, bytes: usize) {
        self.stats.reads += 1;
        self.stats.bytes_read += bytes as u64;
        self.stats.io_time_us += self.model.io_micros(bytes as u64);
    }

    fn charge_write(&mut self, bytes: usize) {
        self.stats.writes += 1;
        self.stats.bytes_written += bytes as u64;
        self.stats.io_time_us += self.model.io_micros(bytes as u64);
    }

    /// Allocates a zeroed page and returns its id. Charged as one page
    /// write (the allocation formats the frame); the page is the shared
    /// [`SimDisk::zero_page`] until it is written.
    pub fn alloc_page(&mut self) -> u32 {
        let pid = self.pages.len() as u32;
        self.pages.push(Rc::clone(&self.zero));
        self.charge_write(PAGE_SIZE);
        pid
    }

    /// The page a fresh allocation holds, shared (metadata: no I/O).
    pub fn zero_page(&self) -> Page {
        Rc::clone(&self.zero)
    }

    /// Reads page `pid`: charges the I/O and lends out the device's page.
    pub fn read_page(&mut self, pid: u32) -> Page {
        self.charge_read(PAGE_SIZE);
        Rc::clone(&self.pages[pid as usize])
    }

    /// Writes page `pid`: charges the I/O and keeps `page` as its contents.
    pub fn write_page(&mut self, pid: u32, page: Page) {
        self.charge_write(PAGE_SIZE);
        self.pages[pid as usize] = page;
    }

    /// Number of allocated pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Drops the whole page area (recovery reformats the index region and
    /// rebuilds it from snapshot + WAL; the rebuild pays page-write costs).
    pub fn reset_pages(&mut self) {
        self.pages.clear();
    }

    /// Appends `bytes` to the log region as **one** I/O — one seek however
    /// long the payload, which is exactly what group commit amortizes.
    pub fn append_log(&mut self, bytes: &[u8]) {
        self.charge_write(bytes.len());
        self.log.extend_from_slice(bytes);
    }

    /// The current log contents. Reading it (recovery) is charged as one
    /// sequential I/O over the whole region.
    pub fn read_log(&mut self) -> Vec<u8> {
        self.charge_read(self.log.len());
        self.log.clone()
    }

    /// Log region length in bytes (no I/O charged — metadata).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Truncates the log region to `len` bytes. Used by checkpointing (to
    /// zero) and by torn-write tests (to arbitrary byte boundaries, which
    /// models a crash mid-append).
    pub fn truncate_log(&mut self, len: usize) {
        self.log.truncate(len);
    }

    /// Atomically replaces the snapshot blob with what `encode` writes into
    /// the cleared buffer the disk keeps, and charges its final length.
    pub fn write_snapshot_with(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) {
        let snapshot = self.snapshot.get_or_insert_with(Vec::new);
        snapshot.clear();
        encode(snapshot);
        let len = snapshot.len();
        self.charge_write(len);
    }

    /// Reads the snapshot blob, if any.
    pub fn read_snapshot(&mut self) -> Option<Vec<u8>> {
        if let Some(s) = &self.snapshot {
            let len = s.len();
            let out = s.clone();
            self.charge_read(len);
            Some(out)
        } else {
            None
        }
    }

    /// Device counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            seek_us: 100,
            bytes_per_us: 1024,
        })
    }

    #[test]
    fn pages_round_trip_and_charge_io() {
        let mut d = disk();
        let p0 = d.alloc_page();
        let p1 = d.alloc_page();
        assert_eq!((p0, p1), (0, 1));
        let mut frame = [0u8; PAGE_SIZE];
        frame[0] = 0xAB;
        frame[PAGE_SIZE - 1] = 0xCD;
        d.write_page(p1, Rc::new(frame));
        assert_eq!(*d.read_page(p1), frame);
        assert_eq!(*d.read_page(p0), [0u8; PAGE_SIZE]);
        let s = d.stats();
        assert_eq!(s.writes, 3); // 2 allocs + 1 write
        assert_eq!(s.reads, 2);
        // Each page I/O: 100 µs seek + 4096/1024 = 4 µs transfer.
        assert_eq!(s.io_time_us, 5 * 104);
    }

    #[test]
    fn log_appends_are_one_seek_each() {
        let mut d = disk();
        d.append_log(&[1; 10]);
        d.append_log(&[2; 10]);
        assert_eq!(d.log_len(), 20);
        assert_eq!(d.stats().writes, 2);
        // One big append costs one seek; two small ones cost two.
        let mut e = disk();
        e.append_log(&[0; 20]);
        assert!(e.stats().io_time_us < d.stats().io_time_us);
        assert_eq!(d.read_log().len(), 20);
    }

    #[test]
    fn snapshot_replaces_atomically() {
        let mut d = disk();
        let write = |d: &mut SimDisk, blob: &[u8]| {
            d.write_snapshot_with(&mut |buf| buf.extend_from_slice(blob));
        };
        assert_eq!(d.read_snapshot(), None);
        write(&mut d, b"v1");
        write(&mut d, b"v2-longer");
        assert_eq!(d.read_snapshot().as_deref(), Some(&b"v2-longer"[..]));
        // The buffer is reused: a shorter blob leaves no stale tail.
        write(&mut d, b"v3");
        assert_eq!(d.read_snapshot().as_deref(), Some(&b"v3"[..]));
        assert_eq!(d.stats().bytes_written, 2 + 9 + 2);
    }

    #[test]
    fn truncate_models_torn_tail() {
        let mut d = disk();
        d.append_log(b"0123456789");
        d.truncate_log(4);
        assert_eq!(d.read_log(), b"0123".to_vec());
    }

    #[test]
    fn same_workload_same_stats() {
        let run = || {
            let mut d = disk();
            for i in 0..20u8 {
                let pid = d.alloc_page();
                let mut f = [i; PAGE_SIZE];
                f[0] = i;
                d.write_page(pid, Rc::new(f));
                d.append_log(&[i; 33]);
            }
            d.read_log();
            d.stats()
        };
        assert_eq!(run(), run());
    }
}
