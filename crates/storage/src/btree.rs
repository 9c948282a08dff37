//! B+ tree primary index over the buffer pool.
//!
//! Classic textbook shape: internal pages route by separator keys, leaf
//! pages hold `(key, value)` pairs and chain left-to-right so range scans
//! are a descent plus a linked-list walk. Every operation works on the
//! pool's frame itself: it binary-searches the page through its directory,
//! compares keys where they lie, shifts the tail with `copy_within` to make
//! or close a gap, and allocates only for the rows a `get`/`scan` returns
//! and the separator a split promotes. A page splits when an edit would
//! grow it past [`PAGE_SIZE`]; deletes leave pages sparse (no merge —
//! sparse pages only cost space).
//!
//! Page layouts (little-endian) — a contract, since code reads them in
//! place and checkpoints persist them:
//!
//! | leaf | internal |
//! |---|---|
//! | `tag=0: u8` | `tag=1: u8` |
//! | `n: u16` | `n: u16` |
//! | `next_leaf: u32` (`MAX` = none) | `child0: u32` |
//! | `n × (klen: u16, vlen: u16, key, value)` | `n × (klen: u16, key, child: u32)` |
//!
//! Entries are packed in ascending key order and every byte after the last
//! one is zero. In an internal page, `child0` covers keys `< key[0]`; entry
//! `i`'s child covers `key[i] ≤ k < key[i+1]`.
//!
//! The only state derived from a page is its *directory*, held in RAM by
//! the tree and never written: the offset of each entry, then the page's
//! used length. It cannot go stale, because only the tree writes its pages
//! and keeps the directory in step at each write (`alloc`, `splice`,
//! `split`), and the pool writes back and reads back exactly those bytes;
//! a crash drops the page area and the tree together.

use crate::buffer::BufferPool;
use crate::disk::{SimDisk, PAGE_SIZE};

const LEAF: u8 = 0;
const INTERNAL: u8 = 1;
const NO_LEAF: u32 = u32::MAX;

/// Bytes before the first entry: tag, `n`, and the link (`next_leaf` or
/// `child0`).
const HEADER: usize = 7;
/// Framing bytes of an internal entry (`klen` + `child`); a leaf entry's
/// (`klen` + `vlen`) are fewer.
const SEP_FRAMING: usize = 6;

/// Largest `key.len() + value.len()` a single entry may carry; keeps every
/// page able to hold at least three entries so splits always make progress.
pub const MAX_ENTRY_BYTES: usize = 1024;

/// A page image with room for the one entry that overflowed it.
type Wide = [u8; WIDE];
const WIDE: usize = PAGE_SIZE + SEP_FRAMING + MAX_ENTRY_BYTES;
const _: () = assert!(WIDE <= u16::MAX as usize, "directory offsets are u16");

/// A page's directory: the offset of each of its `n` entries, then one past
/// the last entry's last byte (its `used`) — `n + 1` offsets.
type Dir = Vec<u16>;

fn u16_at(page: &[u8], at: usize) -> usize {
    usize::from(u16::from_le_bytes([page[at], page[at + 1]]))
}

fn u32_at(page: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"))
}

fn count(page: &[u8]) -> usize {
    u16_at(page, 1)
}

fn set_count(page: &mut [u8], n: usize) {
    page[1..3].copy_from_slice(&(n as u16).to_le_bytes());
}

fn link(page: &[u8]) -> u32 {
    u32_at(page, 3)
}

fn set_link(page: &mut [u8], pid: u32) {
    page[3..HEADER].copy_from_slice(&pid.to_le_bytes());
}

/// The key of the entry at `off`. A leaf entry's value is the bytes between
/// its key and the next entry; an internal entry's child is the four bytes
/// before the next entry.
fn key_at(page: &[u8], off: usize) -> &[u8] {
    let at = off + if page[0] == LEAF { 4 } else { 2 };
    &page[at..at + u16_at(page, off)]
}

/// Binary-searches a page for `key` through its directory: `Ok(i)` if entry
/// `i` holds it, else `Err(i)`, `i` being the number of entries below it.
fn search(page: &[u8], dir: &[u16], key: &[u8]) -> Result<usize, usize> {
    debug_assert_eq!(dir.len(), count(page) + 1, "stale directory");
    dir[..dir.len() - 1].binary_search_by(|&off| key_at(page, usize::from(off)).cmp(key))
}

/// The child of an internal page that covers `key`, and the index just
/// past the entry naming it — where a separator split off that child goes.
fn route(page: &[u8], dir: &[u16], key: &[u8]) -> (u32, usize) {
    let i = search(page, dir, key).map_or_else(|i| i, |i| i + 1);
    let child = match i {
        0 => link(page),
        _ => u32_at(page, usize::from(dir[i]) - 4),
    };
    (child, i)
}

/// Replaces entry `i` of a page (`replace`) or inserts before it the
/// concatenation of `parts` — one entry, or nothing to delete entry `i` —
/// shifting the tail, zeroing what a shrink vacates, and keeping the entry
/// count and the directory `dir` in step.
fn splice(page: &mut [u8], dir: &mut Dir, i: usize, replace: bool, parts: [&[u8]; 3]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let (off, used) = (usize::from(dir[i]), usize::from(dir[dir.len() - 1]));
    let resume = if replace {
        usize::from(dir[i + 1])
    } else {
        off
    };
    page.copy_within(resume..used, off + len);
    let mut at = off;
    for part in parts {
        page[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    let new_used = off + len + (used - resume);
    if new_used < used {
        page[new_used..used].fill(0);
    }
    if len == 0 {
        dir.remove(i);
    } else if !replace {
        dir.insert(i, off as u16);
    }
    let (grow, shrink) = (len as u16, (resume - off) as u16);
    for later in &mut dir[i + usize::from(len > 0)..] {
        *later = *later + grow - shrink;
    }
    set_count(page, dir.len() - 1);
}

fn widen(page: &[u8], used: usize) -> Wide {
    let mut wide = [0u8; WIDE];
    wide[..used].copy_from_slice(&page[..used]);
    wide
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf8 page data")
}

/// A B+ tree rooted at one page id. The tree owns no I/O state — the disk
/// and pool are passed into every operation, so the engine can hold all
/// three side by side.
pub struct BTree {
    root: u32,
    /// Live key count (maintained on put/delete; cheap introspection).
    pub len: usize,
    /// page id → that page's directory; dense, like the pool's table.
    dirs: Vec<Dir>,
}

/// Leaves out the directories: they are derived from the pages, which the
/// engine's `Debug` already shows.
impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("root", &self.root)
            .field("len", &self.len)
            .finish()
    }
}

impl BTree {
    /// Creates an empty tree by allocating its root leaf.
    pub fn new(disk: &mut SimDisk, pool: &mut BufferPool) -> Self {
        let mut tree = BTree {
            root: 0,
            len: 0,
            dirs: Vec::new(),
        };
        tree.root = tree.alloc(disk, pool, vec![HEADER as u16]);
        set_link(pool.page_mut(disk, tree.root), NO_LEAF);
        tree
    }

    /// Inserts or updates `key`.
    pub fn put(&mut self, disk: &mut SimDisk, pool: &mut BufferPool, key: &str, value: &str) {
        assert!(
            key.len() + value.len() <= MAX_ENTRY_BYTES,
            "entry too large for a page: {} + {} bytes",
            key.len(),
            value.len()
        );
        if let Some((sep, right)) = self.insert_into(disk, pool, self.root, key, value) {
            // Root split: grow the tree by one level.
            let new_root = self.alloc(disk, pool, vec![HEADER as u16]);
            let page = pool.page_mut(disk, new_root);
            page[0] = INTERNAL;
            set_link(page, self.root);
            let klen = (sep.len() as u16).to_le_bytes();
            let parts = [&klen[..], sep.as_bytes(), &right.to_le_bytes()];
            splice(page, &mut self.dirs[new_root as usize], 0, false, parts);
            self.root = new_root;
        }
    }

    /// Point lookup.
    pub fn get(&self, disk: &mut SimDisk, pool: &mut BufferPool, key: &str) -> Option<String> {
        let pid = self.descend(disk, pool, key);
        let (page, dir) = (pool.page(disk, pid), &self.dirs[pid as usize]);
        let i = search(page, dir, key.as_bytes()).ok()?;
        let (off, end) = (usize::from(dir[i]), usize::from(dir[i + 1]));
        Some(text(&page[off + 4 + key.len()..end]))
    }

    /// Removes `key` if present. Returns whether it existed. Pages are not
    /// merged; a sparse leaf stays in the chain.
    pub fn delete(&mut self, disk: &mut SimDisk, pool: &mut BufferPool, key: &str) -> bool {
        let pid = self.descend(disk, pool, key);
        let dir = &mut self.dirs[pid as usize];
        let Ok(i) = search(pool.page(disk, pid), dir, key.as_bytes()) else {
            return false;
        };
        splice(pool.page_mut(disk, pid), dir, i, true, [&[]; 3]);
        self.len -= 1;
        true
    }

    /// Ordered scan of keys in `[lo, hi)` via the leaf chain.
    pub fn scan(
        &self,
        disk: &mut SimDisk,
        pool: &mut BufferPool,
        lo: &str,
        hi: &str,
    ) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut pid = self.descend(disk, pool, lo);
        // Only the first leaf holds keys below `lo`.
        let mut below = Some(lo.as_bytes());
        loop {
            let (page, dir) = (pool.page(disk, pid), &self.dirs[pid as usize]);
            let from = below
                .take()
                .map_or(0, |lo| search(page, dir, lo).unwrap_or_else(|i| i));
            for pair in dir[from..].windows(2) {
                let (off, end) = (usize::from(pair[0]), usize::from(pair[1]));
                let k = key_at(page, off);
                if k >= hi.as_bytes() {
                    return out;
                }
                out.push((text(k), text(&page[off + 4 + k.len()..end])));
            }
            pid = link(page);
            if pid == NO_LEAF {
                return out;
            }
        }
    }

    /// The leaf page that owns `key`.
    fn descend(&self, disk: &mut SimDisk, pool: &mut BufferPool, key: &str) -> u32 {
        let mut pid = self.root;
        loop {
            let page = pool.page(disk, pid);
            if page[0] == LEAF {
                return pid;
            }
            pid = route(page, &self.dirs[pid as usize], key.as_bytes()).0;
        }
    }

    /// Allocates a zeroed page whose directory is `dir`.
    fn alloc(&mut self, disk: &mut SimDisk, pool: &mut BufferPool, dir: Dir) -> u32 {
        let pid = pool.alloc(disk);
        if self.dirs.len() <= pid as usize {
            self.dirs.resize(pid as usize + 1, Dir::new());
        }
        self.dirs[pid as usize] = dir;
        pid
    }

    /// Upserts below `pid`; returns the separator and page a split of `pid`
    /// hands to its parent.
    ///
    /// The pool is touched exactly as often, and in the same order, as a
    /// read-modify-write of whole pages would touch it (one fetch to look,
    /// one to write, a split's `alloc` before its two writes), so hit, miss
    /// and eviction counts are properties of the workload, not of how the
    /// bytes get edited.
    fn insert_into(
        &mut self,
        disk: &mut SimDisk,
        pool: &mut BufferPool,
        pid: u32,
        key: &str,
        value: &str,
    ) -> Option<(String, u32)> {
        let (page, dir) = (pool.page(disk, pid), &self.dirs[pid as usize]);
        let used = usize::from(dir[dir.len() - 1]);
        if page[0] == LEAF {
            let (i, found) = match search(page, dir, key.as_bytes()) {
                Ok(i) => (i, true),
                Err(i) => (i, false),
            };
            let old = if found {
                usize::from(dir[i + 1] - dir[i])
            } else {
                0
            };
            self.len += usize::from(!found);
            let [k0, k1] = (key.len() as u16).to_le_bytes();
            let [v0, v1] = (value.len() as u16).to_le_bytes();
            let parts = [&[k0, k1, v0, v1][..], key.as_bytes(), value.as_bytes()];
            let grown = used - old + 4 + key.len() + value.len();
            let wide = (grown > PAGE_SIZE).then(|| widen(page, used));
            return self.place(disk, pool, pid, wide, (i, found), parts);
        }
        let (child, at) = route(page, dir, key.as_bytes());
        // A child split must not fetch this page again before its `alloc`
        // (that would reorder evictions), so a page that the promoted
        // separator could overflow is copied now, while it is in hand.
        let spare = (used + SEP_FRAMING + MAX_ENTRY_BYTES > PAGE_SIZE).then(|| widen(page, used));
        let (sep, new_child) = self.insert_into(disk, pool, child, key, value)?;
        let klen = (sep.len() as u16).to_le_bytes();
        let parts = [&klen[..], sep.as_bytes(), &new_child.to_le_bytes()[..]];
        let wide = spare.filter(|_| used + SEP_FRAMING + sep.len() > PAGE_SIZE);
        self.place(disk, pool, pid, wide, (at, false), parts)
    }

    /// Writes the entry `parts` over entry `i` of page `pid` (`replace`) or
    /// before it: in the frame when it fits (`wide` is `None`), else in the
    /// widened image, which is then split.
    fn place(
        &mut self,
        disk: &mut SimDisk,
        pool: &mut BufferPool,
        pid: u32,
        wide: Option<Wide>,
        (i, replace): (usize, bool),
        parts: [&[u8]; 3],
    ) -> Option<(String, u32)> {
        let dir = &mut self.dirs[pid as usize];
        let Some(mut wide) = wide else {
            splice(pool.page_mut(disk, pid), dir, i, replace, parts);
            return None;
        };
        splice(&mut wide, dir, i, replace, parts);
        Some(self.split(disk, pool, pid, &wide))
    }

    /// Splits the over-full image `wide` of page `pid` (its directory already
    /// edited to match) in two: the left half goes back to `pid`, the right
    /// half to a fresh page, and the separator between them is returned with
    /// the fresh page's id. A leaf keeps the separator's entry as the right
    /// page's first; an internal page promotes it, its child becoming the
    /// right page's `child0`. Both halves' directories are cut from the
    /// image's.
    fn split(
        &mut self,
        disk: &mut SimDisk,
        pool: &mut BufferPool,
        pid: u32,
        wide: &Wide,
    ) -> (String, u32) {
        let mut dir = std::mem::take(&mut self.dirs[pid as usize]);
        let (leaf, n) = (wide[0] == LEAF, dir.len() - 1);
        let used = usize::from(dir[n]);
        // The right page starts at the separator's entry in a leaf, after it
        // in an internal page.
        let skip = usize::from(!leaf);
        // Halve by entry count. Entries vary in size, so move the cut as little
        // as it takes for both halves to fit a page: `mid` is the first entry
        // from the middle on that leaves a right half that fits, or failing
        // that the last one whose left half does.
        let mut mid = 0;
        for i in 0..n {
            if usize::from(dir[i]) > PAGE_SIZE {
                break;
            }
            mid = i;
            if i >= n / 2 && HEADER + used - usize::from(dir[i + skip]) <= PAGE_SIZE {
                break;
            }
        }
        let (cut, right_from) = (usize::from(dir[mid]), usize::from(dir[mid + skip]));
        let right_link = if leaf {
            link(wide)
        } else {
            u32_at(wide, right_from - 4)
        };
        let shift = (right_from - HEADER) as u16;
        let right_dir = dir[mid + skip..].iter().map(|&off| off - shift).collect();
        let right = self.alloc(disk, pool, right_dir);
        let page = pool.page_mut(disk, right);
        page[0] = wide[0];
        set_count(page, n - mid - skip);
        set_link(page, right_link);
        page[HEADER..HEADER + used - right_from].copy_from_slice(&wide[right_from..used]);
        let page = pool.page_mut(disk, pid);
        page[..cut].copy_from_slice(&wide[..cut]);
        page[cut..].fill(0);
        set_count(page, mid);
        if leaf {
            set_link(page, right);
        }
        dir.truncate(mid + 1);
        self.dirs[pid as usize] = dir;
        (text(key_at(wide, cut)), right)
    }
}

/// Walks a page's packed entries as `(offset, key, end offset)` — the
/// reference the directory is checked against.
#[cfg(test)]
fn entries(page: &[u8]) -> impl Iterator<Item = (usize, &[u8], usize)> {
    let leaf = page[0] == LEAF;
    let mut off = HEADER;
    (0..count(page)).map(move |_| {
        let klen = u16_at(page, off);
        let (key_at, end) = if leaf {
            (off + 4, off + 4 + klen + u16_at(page, off + 2))
        } else {
            (off + 2, off + 2 + klen + 4)
        };
        let entry = (off, &page[key_at..key_at + klen], end);
        off = end;
        entry
    })
}

#[cfg(test)]
impl BTree {
    /// Asserts what every operation relies on: entries sorted within a
    /// page and inside the bounds its parent's separators give it, used
    /// bytes within the page and nothing but zeros after them, each page's
    /// directory equal to a fresh walk of its bytes, the leaf chain visiting
    /// the leaves left to right, and `len` counting the keys.
    fn check_invariants(&self, disk: &mut SimDisk, pool: &mut BufferPool) {
        fn check(
            disk: &mut SimDisk,
            pool: &mut BufferPool,
            dirs: &[Dir],
            pid: u32,
            (lo, hi): (Option<&[u8]>, Option<&[u8]>),
            leaves: &mut Vec<u32>,
        ) -> usize {
            let page = *pool.page(disk, pid); // copied: the recursion reuses the pool
            assert!(page[0] == LEAF || page[0] == INTERNAL, "page {pid}: tag");
            let used = entries(&page).last().map_or(HEADER, |(.., end)| end);
            assert!(used <= PAGE_SIZE, "page {pid}: {used} bytes used");
            assert!(page[used..].iter().all(|&b| b == 0), "page {pid}: tail");
            let walk = entries(&page).map(|(off, ..)| off).chain([used]);
            let walk: Vec<u16> = walk.map(|off| off as u16).collect();
            assert_eq!(dirs[pid as usize], walk, "page {pid}: directory");
            let keys: Vec<&[u8]> = entries(&page).map(|(_, k, _)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "page {pid}: order");
            let outside = |k: &&[u8]| lo.is_some_and(|lo| *k < lo) || hi.is_some_and(|hi| *k >= hi);
            assert!(
                !keys.iter().any(outside),
                "page {pid}: outside its separators"
            );
            if page[0] == LEAF {
                leaves.push(pid);
                return keys.len();
            }
            assert!(
                !keys.is_empty(),
                "page {pid}: internal page without separators"
            );
            let mut total = check(disk, pool, dirs, link(&page), (lo, Some(keys[0])), leaves);
            for (i, (_, k, end)) in entries(&page).enumerate() {
                let bounds = (Some(k), keys.get(i + 1).copied().or(hi));
                total += check(disk, pool, dirs, u32_at(&page, end - 4), bounds, leaves);
            }
            total
        }
        let mut leaves = Vec::new();
        let keys = check(disk, pool, &self.dirs, self.root, (None, None), &mut leaves);
        assert_eq!(keys, self.len, "len must count the keys");
        leaves.push(NO_LEAF);
        for pair in leaves.windows(2) {
            assert_eq!(link(pool.page(disk, pair[0])), pair[1], "leaf chain");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simnet::DiskModel;

    fn stack(pool_pages: usize) -> (SimDisk, BufferPool) {
        (
            SimDisk::new(DiskModel {
                seek_us: 100,
                bytes_per_us: 1024,
            }),
            BufferPool::new(pool_pages),
        )
    }

    #[test]
    fn put_get_delete_point_ops() {
        let (mut d, mut p) = stack(8);
        let mut t = BTree::new(&mut d, &mut p);
        assert_eq!(t.get(&mut d, &mut p, "a"), None);
        t.put(&mut d, &mut p, "a", "1");
        t.put(&mut d, &mut p, "b", "2");
        t.put(&mut d, &mut p, "a", "3"); // overwrite
        assert_eq!(t.get(&mut d, &mut p, "a").as_deref(), Some("3"));
        assert_eq!(t.get(&mut d, &mut p, "b").as_deref(), Some("2"));
        assert_eq!(t.len, 2);
        assert!(t.delete(&mut d, &mut p, "a"));
        assert!(!t.delete(&mut d, &mut p, "a"));
        assert_eq!(t.get(&mut d, &mut p, "a"), None);
        assert_eq!(t.len, 1);
    }

    #[test]
    fn splits_keep_every_key_reachable() {
        // Values sized so only ~10 entries fit a page: forces multi-level
        // splits well before 500 keys.
        let (mut d, mut p) = stack(16);
        let mut t = BTree::new(&mut d, &mut p);
        let val = "x".repeat(350);
        for i in 0..500 {
            t.put(&mut d, &mut p, &format!("key{i:04}"), &val);
        }
        assert_eq!(t.len, 500);
        assert!(d.n_pages() > 10, "tree must have split: {}", d.n_pages());
        for i in 0..500 {
            assert_eq!(
                t.get(&mut d, &mut p, &format!("key{i:04}")).as_deref(),
                Some(val.as_str()),
                "key{i:04} lost after splits"
            );
        }
        t.check_invariants(&mut d, &mut p);
    }

    #[test]
    fn range_scans_walk_the_leaf_chain_in_order() {
        let (mut d, mut p) = stack(8);
        let mut t = BTree::new(&mut d, &mut p);
        let val = "v".repeat(200);
        // Insert in reverse to make sure ordering comes from the tree.
        for i in (0..200).rev() {
            t.put(&mut d, &mut p, &format!("k{i:03}"), &val);
        }
        let hits = t.scan(&mut d, &mut p, "k050", "k060");
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            (50..60).map(|i| format!("k{i:03}")).collect::<Vec<_>>()
        );
        // Full scan returns everything, sorted.
        let all = t.scan(&mut d, &mut p, "", "~");
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        // Empty and out-of-range scans.
        assert!(t.scan(&mut d, &mut p, "z", "zz").is_empty());
        assert!(t.scan(&mut d, &mut p, "k050", "k050").is_empty());
    }

    #[test]
    fn matches_a_model_btreemap_under_mixed_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(42);
        let (mut d, mut p) = stack(8);
        let mut t = BTree::new(&mut d, &mut p);
        let mut model = std::collections::BTreeMap::new();
        for step in 0..2000 {
            let key = format!("k{:03}", rng.gen_range(0..150));
            match rng.gen_range(0..10) {
                0..=5 => {
                    let val = format!("v{step}-{}", "p".repeat(rng.gen_range(0..64)));
                    t.put(&mut d, &mut p, &key, &val);
                    model.insert(key, val);
                }
                6..=7 => {
                    assert_eq!(
                        t.delete(&mut d, &mut p, &key),
                        model.remove(&key).is_some(),
                        "delete {key} at step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        t.get(&mut d, &mut p, &key),
                        model.get(&key).cloned(),
                        "get {key} at step {step}"
                    );
                }
            }
        }
        assert_eq!(t.len, model.len());
        let all = t.scan(&mut d, &mut p, "", "~");
        let expect: Vec<(String, String)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(all, expect, "final scan must equal the model");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Against a `BTreeMap` model: keys of 2..=201 bytes, values from
        /// empty up to the largest entry a page admits (so overwriting a
        /// key grows and shrinks it across the page boundary, and splits
        /// see very unequal entries), deletes, point reads and scans whose
        /// bounds are exact keys — through pools from one frame up, with
        /// the structural invariants checked after every step.
        #[test]
        fn prop_matches_a_btreemap_and_keeps_its_invariants(
            pool_pages in 1usize..12,
            ops in collection::vec((0u8..10, 0usize..48, 0usize..5), 1..300),
        ) {
            let key = |id: usize| format!("{id:02}{}", "k".repeat(id * 37 % 200));
            let (mut d, mut p) = stack(pool_pages);
            let mut t = BTree::new(&mut d, &mut p);
            let mut model = std::collections::BTreeMap::new();
            for (step, &(op, id, size)) in ops.iter().enumerate() {
                let k = key(id);
                match op {
                    0..=4 => {
                        let vlen = [0, 17, 300, 700, MAX_ENTRY_BYTES - k.len()][size];
                        let v = char::from(b'a' + (step % 26) as u8).to_string().repeat(vlen);
                        t.put(&mut d, &mut p, &k, &v);
                        model.insert(k, v);
                    }
                    5..=6 => prop_assert_eq!(
                        t.delete(&mut d, &mut p, &k),
                        model.remove(&k).is_some()
                    ),
                    7 => prop_assert_eq!(t.get(&mut d, &mut p, &k), model.get(&k).cloned()),
                    _ => {
                        let hi = key(id + size * 3);
                        let want: Vec<(String, String)> = model
                            .range(k.clone()..hi.clone().max(k.clone()))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        prop_assert_eq!(t.scan(&mut d, &mut p, &k, &hi), want);
                    }
                }
                t.check_invariants(&mut d, &mut p);
            }
            let all: Vec<(String, String)> = model.into_iter().collect();
            prop_assert_eq!(t.scan(&mut d, &mut p, "", "~"), all);
        }
    }

    #[test]
    fn split_moves_the_cut_when_halving_by_count_would_overflow() {
        // Three maximum-size entries and five small ones share a leaf; a
        // fourth big one sorting first makes the count midpoint (4 of 9)
        // put all four big entries — more than a page — on the left.
        let (mut d, mut p) = stack(4);
        let mut t = BTree::new(&mut d, &mut p);
        let big = "x".repeat(MAX_ENTRY_BYTES - 2);
        for k in ["b1", "b2", "b3"] {
            t.put(&mut d, &mut p, k, &big);
        }
        for k in ["s1", "s2", "s3", "s4", "s5"] {
            t.put(&mut d, &mut p, k, &"y".repeat(150));
        }
        assert_eq!(d.n_pages(), 1, "everything fits one leaf so far");
        t.put(&mut d, &mut p, "b0", &big);
        t.check_invariants(&mut d, &mut p);
        assert_eq!(t.scan(&mut d, &mut p, "", "~").len(), 9);
    }

    #[test]
    fn small_pool_forces_misses_but_stays_correct() {
        // Pool far smaller than the working set: every descent churns the
        // clock, and correctness must not depend on residency.
        let (mut d, mut p) = stack(3);
        let mut t = BTree::new(&mut d, &mut p);
        let val = "w".repeat(300);
        for i in 0..300 {
            t.put(&mut d, &mut p, &format!("key{i:04}"), &val);
        }
        for i in (0..300).step_by(7) {
            assert!(t.get(&mut d, &mut p, &format!("key{i:04}")).is_some());
        }
        let s = p.stats();
        assert!(s.misses > 0, "a 3-frame pool cannot hold the tree");
        assert!(s.evictions > 0);
        assert!(s.writebacks > 0, "dirty evictions must write back");
        t.check_invariants(&mut d, &mut p);
    }

    #[test]
    #[should_panic(expected = "entry too large")]
    fn oversized_entries_are_rejected() {
        let (mut d, mut p) = stack(4);
        let mut t = BTree::new(&mut d, &mut p);
        t.put(&mut d, &mut p, "k", &"x".repeat(MAX_ENTRY_BYTES + 1));
    }
}
