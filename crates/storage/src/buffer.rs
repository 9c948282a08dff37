//! Buffer pool: a fixed set of RAM frames over the disk's page area, with
//! CLOCK (second-chance) eviction and dirty-page write-back.
//!
//! The pool is the *volatile* cache between the B+ tree and the disk: reads
//! that hit cost nothing, misses charge a page read, and evicting a dirty
//! frame charges the write-back. Callers work on the resident frame itself
//! ([`BufferPool::page`] / [`BufferPool::page_mut`] lend it out); nothing is
//! copied on a hit. [`BufferPool::crash`] drops every frame — including
//! dirty ones — which is precisely why the layers above must WAL first and
//! treat on-disk pages as reconstructible.
//!
//! A frame holds a [`Page`] it may share with the disk: a miss or an
//! allocation installs the disk's page, and a flush or dirty eviction hands
//! the frame's page back, all by pointer. [`BufferPool::page_mut`] copies the
//! 4 KiB only while the disk still shares the frame's page, so the one copy
//! left is the first edit after a fetch, an allocation or a flush.

use std::rc::Rc;

use crate::disk::{Page, SimDisk, PAGE_SIZE};

/// Pool counters, all deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back (at eviction or flush).
    pub writebacks: u64,
}

#[derive(Debug)]
struct Frame {
    pid: u32,
    data: Page,
    dirty: bool,
    referenced: bool,
}

/// Page-table entry of a page that has no frame.
const NOT_RESIDENT: usize = usize::MAX;

/// A CLOCK-eviction buffer pool of `capacity` frames.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    /// pid → index into `frames` (or [`NOT_RESIDENT`]); dense, because the
    /// disk hands out page ids densely from 0.
    table: Vec<usize>,
    hand: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages (≥ 1).
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity: capacity.max(1),
            frames: Vec::new(),
            table: Vec::new(),
            hand: 0,
            stats: PoolStats::default(),
        }
    }

    /// Lends out page `pid`'s resident frame for reading, loading it first
    /// on a miss.
    pub fn page(&mut self, disk: &mut SimDisk, pid: u32) -> &[u8; PAGE_SIZE] {
        let idx = self.fetch(disk, pid);
        let f = &mut self.frames[idx];
        f.referenced = true;
        &f.data
    }

    /// Lends out page `pid`'s resident frame for editing in place and marks
    /// it dirty; the disk sees the edit at eviction or
    /// [`BufferPool::flush_all`]. Copies the page first if the disk still
    /// shares it.
    pub fn page_mut(&mut self, disk: &mut SimDisk, pid: u32) -> &mut [u8; PAGE_SIZE] {
        let idx = self.fetch(disk, pid);
        let f = &mut self.frames[idx];
        f.dirty = true;
        f.referenced = true;
        Rc::make_mut(&mut f.data)
    }

    /// Allocates a fresh page on disk and installs its (zeroed) frame
    /// without a read. Returns the page id.
    pub fn alloc(&mut self, disk: &mut SimDisk) -> u32 {
        let pid = disk.alloc_page();
        let zero = disk.zero_page();
        let idx = self.claim_frame(disk, pid, zero);
        self.frames[idx].referenced = true;
        pid
    }

    /// Writes every dirty frame back to disk (checkpoint).
    pub fn flush_all(&mut self, disk: &mut SimDisk) {
        for f in &mut self.frames {
            if f.dirty {
                disk.write_page(f.pid, Rc::clone(&f.data));
                f.dirty = false;
                self.stats.writebacks += 1;
            }
        }
    }

    /// Drops every frame, dirty or not — the crash model.
    pub fn crash(&mut self) {
        self.frames.clear();
        self.table.clear();
        self.hand = 0;
    }

    /// Pool counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn fetch(&mut self, disk: &mut SimDisk, pid: u32) -> usize {
        match self.table.get(pid as usize) {
            Some(&idx) if idx != NOT_RESIDENT => {
                self.stats.hits += 1;
                idx
            }
            _ => {
                self.stats.misses += 1;
                let page = disk.read_page(pid);
                self.claim_frame(disk, pid, page)
            }
        }
    }

    /// Makes a clean, unreferenced frame holding `page` the home of `pid`,
    /// evicting a victim when the pool is full and handing its page to the
    /// disk if it is dirty.
    fn claim_frame(&mut self, disk: &mut SimDisk, pid: u32, page: Page) -> usize {
        let idx = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                pid,
                data: page,
                dirty: false,
                referenced: false,
            });
            self.frames.len() - 1
        } else {
            let victim = self.pick_victim();
            let f = &mut self.frames[victim];
            let evicted = std::mem::replace(&mut f.data, page);
            if f.dirty {
                disk.write_page(f.pid, evicted);
                self.stats.writebacks += 1;
            }
            self.table[f.pid as usize] = NOT_RESIDENT;
            self.stats.evictions += 1;
            (f.pid, f.dirty, f.referenced) = (pid, false, false);
            victim
        };
        if self.table.len() <= pid as usize {
            self.table.resize(pid as usize + 1, NOT_RESIDENT);
        }
        self.table[pid as usize] = idx;
        idx
    }

    /// CLOCK sweep: clear reference bits until an unreferenced frame comes
    /// under the hand. Terminates within two sweeps by construction.
    fn pick_victim(&mut self) -> usize {
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[idx].referenced {
                self.frames[idx].referenced = false;
            } else {
                return idx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::DiskModel;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            seek_us: 100,
            bytes_per_us: 1024,
        })
    }

    fn page(b: u8) -> [u8; PAGE_SIZE] {
        [b; PAGE_SIZE]
    }

    #[test]
    fn hits_avoid_disk_reads() {
        let mut d = disk();
        let mut pool = BufferPool::new(4);
        let pid = pool.alloc(&mut d);
        *pool.page_mut(&mut d, pid) = page(7);
        let reads_before = d.stats().reads;
        for _ in 0..10 {
            assert_eq!(*pool.page(&mut d, pid), page(7));
        }
        assert_eq!(d.stats().reads, reads_before, "all hits");
        assert_eq!(pool.stats().hits, 11); // page_mut fetch + 10 reads
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut d = disk();
        let mut pool = BufferPool::new(2);
        let pids: Vec<u32> = (0..4).map(|_| pool.alloc(&mut d)).collect();
        for (i, &pid) in pids.iter().enumerate() {
            *pool.page_mut(&mut d, pid) = page(i as u8 + 1);
        }
        // Capacity 2 with 4 pages touched ⇒ evictions happened, and every
        // page still reads back its own contents through the pool.
        assert!(pool.stats().evictions >= 2);
        assert!(pool.stats().writebacks >= 1);
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(*pool.page(&mut d, pid), page(i as u8 + 1));
        }
        assert_eq!(pool.frames.len(), 2);
    }

    #[test]
    fn clock_gives_referenced_frames_a_second_chance() {
        let mut d = disk();
        let mut pool = BufferPool::new(3);
        let _a = pool.alloc(&mut d);
        let b = pool.alloc(&mut d);
        let c = pool.alloc(&mut d);
        // Fourth page: the sweep clears every reference bit and evicts the
        // frame under the hand (a). Now b and c sit unreferenced.
        let fresh = pool.alloc(&mut d);
        // Touch c: it gets its bit back; b stays unreferenced.
        pool.page(&mut d, c);
        // Next eviction must pick b — the only unreferenced frame ahead of
        // the hand — leaving the recently-touched pages resident.
        let _e = pool.alloc(&mut d);
        let miss_before = pool.stats().misses;
        pool.page(&mut d, c);
        pool.page(&mut d, fresh);
        assert_eq!(
            pool.stats().misses,
            miss_before,
            "second-chance pages stayed resident"
        );
        pool.page(&mut d, b);
        assert_eq!(pool.stats().misses, miss_before + 1, "b was the victim");
    }

    #[test]
    fn an_edit_after_a_flush_leaves_the_disk_as_flushed_until_the_next_write_back() {
        let mut d = disk();
        let mut pool = BufferPool::new(4);
        let pid = pool.alloc(&mut d);
        *pool.page_mut(&mut d, pid) = page(1);
        pool.flush_all(&mut d);
        pool.page_mut(&mut d, pid)[7] = 2;
        assert_eq!(
            *d.read_page(pid),
            page(1),
            "the disk keeps what was flushed"
        );
        assert_eq!(pool.page(&mut d, pid)[7], 2);
        pool.flush_all(&mut d);
        assert_eq!(d.read_page(pid)[7], 2);
        assert_eq!(pool.stats().writebacks, 2);
    }

    #[test]
    fn pages_allocated_from_the_shared_zero_page_do_not_alias() {
        let mut d = disk();
        let mut pool = BufferPool::new(4);
        let a = pool.alloc(&mut d);
        let b = pool.alloc(&mut d);
        *pool.page_mut(&mut d, a) = page(3);
        assert_eq!(*pool.page(&mut d, b), page(0));
        pool.page_mut(&mut d, b)[0] = 4;
        assert_eq!(*pool.page(&mut d, a), page(3));
        pool.flush_all(&mut d);
        assert_eq!(*d.read_page(a), page(3));
        assert_eq!(d.read_page(b)[..2], [4, 0]);
        assert_eq!(*d.zero_page(), page(0));
        // A page allocated after the others were written is still zero.
        let c = pool.alloc(&mut d);
        assert_eq!(*pool.page(&mut d, c), page(0));
    }

    #[test]
    fn a_dirty_eviction_then_a_refetch_reads_back_the_evicted_bytes() {
        let mut d = disk();
        let mut pool = BufferPool::new(1);
        let a = pool.alloc(&mut d);
        *pool.page_mut(&mut d, a) = page(5);
        let b = pool.alloc(&mut d); // evicts a, dirty
        assert_eq!(pool.stats().writebacks, 1);
        *pool.page_mut(&mut d, b) = page(6);
        assert_eq!(
            *pool.page(&mut d, a),
            page(5),
            "a miss reads the evicted bytes"
        );
        assert_eq!(pool.stats().writebacks, 2, "b went back on the way out");
        pool.page_mut(&mut d, a)[0] = 7;
        assert_eq!(*d.read_page(a), page(5), "an edit stays in the frame");
        assert_eq!(*d.read_page(b), page(6));
    }

    #[test]
    fn crash_loses_dirty_frames_flush_saves_them() {
        let mut d = disk();
        let mut pool = BufferPool::new(4);
        let saved = pool.alloc(&mut d);
        let lost = pool.alloc(&mut d);
        *pool.page_mut(&mut d, saved) = page(1);
        pool.flush_all(&mut d);
        *pool.page_mut(&mut d, lost) = page(2);
        pool.crash();
        assert_eq!(pool.frames.len(), 0);
        // A fresh pool reads what the disk has: the flushed page persisted,
        // the unflushed write vanished.
        let mut pool2 = BufferPool::new(4);
        assert_eq!(*pool2.page(&mut d, saved), page(1));
        assert_eq!(*pool2.page(&mut d, lost), page(0));
    }
}
