//! "Same bytes, same accounting": the B+ tree's page format and the
//! sequence of pool fetches are a contract. The constants below were
//! recorded from the decode/encode implementation this crate used to have;
//! an implementation that edits pages in place must reproduce them exactly,
//! because recovery-time artifacts and the benchmark's count metrics are
//! functions of these counters.

use simnet::DiskModel;
use storage::{BTree, BufferPool, SimDisk};

/// Small deterministic generator so the sequence depends on nothing but
/// this file.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

fn key(id: u64) -> String {
    format!("{id:05}/{}", "k".repeat(60 + (id % 40) as usize))
}

/// Everything the sequence leaves behind that reaches the disk or the
/// benchmark: `(page hash, n_pages, tree len, [disk reads, disk writes,
/// bytes read, bytes written, io µs, pool hits, misses, evictions,
/// writebacks])`, counters taken after `flush_all`.
fn drive(pool_pages: usize) -> (u64, usize, usize, [u64; 9]) {
    let mut d = SimDisk::new(DiskModel {
        seek_us: 100,
        bytes_per_us: 1024,
    });
    let mut p = BufferPool::new(pool_pages);
    let mut t = BTree::new(&mut d, &mut p);
    let mut rng = Lcg(0x5EED);
    let mut rows = 0u64;
    for step in 0..6000u64 {
        let id = rng.next(1500);
        let k = key(id);
        match rng.next(20) {
            // Upserts: fresh keys split pages, repeats grow and shrink the
            // value in place; every 97th step writes a maximum-size entry.
            0..=12 => {
                let vlen = if step % 97 == 0 {
                    storage::btree::MAX_ENTRY_BYTES - k.len()
                } else {
                    rng.next(600) as usize
                };
                let fill = (b'a' + (step % 26) as u8) as char;
                t.put(&mut d, &mut p, &k, &fill.to_string().repeat(vlen));
            }
            13..=16 => {
                t.delete(&mut d, &mut p, &k);
            }
            17..=18 => {
                rows += t.get(&mut d, &mut p, &k).map_or(0, |v| v.len() as u64);
            }
            _ => {
                let hi = key(id + 1 + rng.next(30));
                rows += t.scan(&mut d, &mut p, &k, &hi).len() as u64;
            }
        }
    }
    assert_eq!(rows, 98_352, "reads must return the same rows");
    p.flush_all(&mut d);
    let (ds, ps) = (d.stats(), p.stats());
    let counters = [
        ds.reads,
        ds.writes,
        ds.bytes_read,
        ds.bytes_written,
        ds.io_time_us,
        ps.hits,
        ps.misses,
        ps.evictions,
        ps.writebacks,
    ];
    // FNV-1a over every page of the device, in page-id order.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for pid in 0..d.n_pages() as u32 {
        for &b in d.read_page(pid).iter() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (hash, d.n_pages(), t.len, counters)
}

#[test]
fn page_bytes_match_the_recorded_format() {
    let (hash, n_pages, len, _) = drive(64);
    assert_eq!((hash, n_pages, len), (6_423_605_327_265_841_651, 197, 1080));
    // The device image does not depend on how many frames cached it.
    assert_eq!(drive(3).0, hash);
}

#[test]
fn three_frame_pool_accounting_is_unchanged() {
    assert_eq!(
        drive(3).3,
        [13_417, 5_066, 54_956_032, 20_750_336, 1_922_232, 11_445, 13_417, 13_611, 4_869]
    );
}

#[test]
fn sixty_four_frame_pool_accounting_is_unchanged() {
    assert_eq!(
        drive(64).3,
        [3_039, 2_903, 12_447_744, 11_890_688, 617_968, 21_823, 3_039, 3_172, 2_706]
    );
}
