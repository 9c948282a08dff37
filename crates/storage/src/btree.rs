//! B+ tree primary index over the buffer pool.
//!
//! Classic textbook shape: internal pages route by separator keys, leaf
//! pages hold `(key, value)` pairs and chain left-to-right so range scans
//! are a descent plus a linked-list walk. Every operation works on the
//! pool's frame itself: it walks the packed entries where they lie, shifts
//! the tail with `copy_within` to make or close a gap, and allocates only
//! for the rows a `get`/`scan` returns and the separator a split promotes.
//! A page splits when an edit would grow it past [`PAGE_SIZE`]; deletes
//! leave pages sparse (no merge — sparse pages only cost space).
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

/// Walks a page's packed entries as `(offset, key, end offset)`. A leaf
/// entry's value is the bytes between its key and `end`; an internal
/// entry's child is the last four bytes before `end`.
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

/// One past the last entry's last byte.
fn used(page: &[u8]) -> usize {
    entries(page).last().map_or(HEADER, |(.., end)| end)
}

/// Where `key` lives or belongs — `(offset, end)` of its entry, or twice the
/// offset of the first larger entry (of `used` if there is none) — followed
/// by the page's `used`.
fn locate(page: &[u8], key: &[u8]) -> (usize, usize, usize) {
    let mut entries = entries(page);
    let (mut at, mut found) = (HEADER, None);
    for (off, k, end) in entries.by_ref() {
        at = end;
        if k >= key {
            found = Some((off, if k == key { end } else { off }));
            break;
        }
    }
    let used = entries.last().map_or(at, |(.., end)| end);
    let (off, end) = found.unwrap_or((used, used));
    (off, end, used)
}

/// The child of an internal page that covers `key`, and the offset just
/// past the entry naming it — where a separator split off that child goes.
fn route(page: &[u8], key: &[u8]) -> (u32, usize) {
    entries(page)
        .take_while(|(_, k, _)| *k <= key)
        .last()
        .map_or((link(page), HEADER), |(.., end)| {
            (u32_at(page, end - 4), end)
        })
}

/// Replaces bytes `[off, resume)` of a page's `used` entry bytes — one
/// whole entry, or nothing — with the concatenation of `parts` — again one
/// entry or nothing — shifting the tail, zeroing what a shrink vacates and
/// keeping the entry count. Returns the new `used`.
fn splice(page: &mut [u8], used: usize, off: usize, resume: usize, parts: [&[u8]; 3]) -> usize {
    let len: usize = parts.iter().map(|p| p.len()).sum();
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
    let n = count(page) + usize::from(len > 0) - usize::from(resume > off);
    set_count(page, n);
    new_used
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
#[derive(Debug)]
pub struct BTree {
    root: u32,
    /// Live key count (maintained on put/delete; cheap introspection).
    pub len: usize,
}

impl BTree {
    /// Creates an empty tree by allocating its root leaf.
    pub fn new(disk: &mut SimDisk, pool: &mut BufferPool) -> Self {
        let root = pool.alloc(disk);
        set_link(pool.page_mut(disk, root), NO_LEAF);
        BTree { root, len: 0 }
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
            let new_root = pool.alloc(disk);
            let page = pool.page_mut(disk, new_root);
            page[0] = INTERNAL;
            set_link(page, self.root);
            let klen = (sep.len() as u16).to_le_bytes();
            let parts = [&klen[..], sep.as_bytes(), &right.to_le_bytes()];
            splice(page, HEADER, HEADER, HEADER, parts);
            self.root = new_root;
        }
    }

    /// Point lookup.
    pub fn get(&self, disk: &mut SimDisk, pool: &mut BufferPool, key: &str) -> Option<String> {
        let pid = self.descend(disk, pool, key);
        let page = pool.page(disk, pid);
        entries(page)
            .find(|(_, k, _)| *k == key.as_bytes())
            .map(|(off, k, end)| text(&page[off + 4 + k.len()..end]))
    }

    /// Removes `key` if present. Returns whether it existed. Pages are not
    /// merged; a sparse leaf stays in the chain.
    pub fn delete(&mut self, disk: &mut SimDisk, pool: &mut BufferPool, key: &str) -> bool {
        let pid = self.descend(disk, pool, key);
        let page = pool.page(disk, pid);
        let (off, end, used) = locate(page, key.as_bytes());
        if off == end {
            return false;
        }
        splice(pool.page_mut(disk, pid), used, off, end, [&[]; 3]);
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
        loop {
            let page = pool.page(disk, pid);
            for (off, k, end) in entries(page) {
                if k >= hi.as_bytes() {
                    return out;
                }
                if k >= lo.as_bytes() {
                    out.push((text(k), text(&page[off + 4 + k.len()..end])));
                }
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
            pid = route(page, key.as_bytes()).0;
        }
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
        let page = pool.page(disk, pid);
        if page[0] == LEAF {
            let (off, end, used) = locate(page, key.as_bytes());
            self.len += usize::from(off == end);
            let [k0, k1] = (key.len() as u16).to_le_bytes();
            let [v0, v1] = (value.len() as u16).to_le_bytes();
            let parts = [&[k0, k1, v0, v1][..], key.as_bytes(), value.as_bytes()];
            let grown = used - (end - off) + 4 + key.len() + value.len();
            let wide = (grown > PAGE_SIZE).then(|| widen(page, used));
            return place(disk, pool, pid, wide, used, (off, end), parts);
        }
        let (child, at) = route(page, key.as_bytes());
        let used = used(page);
        // A child split must not fetch this page again before its `alloc`
        // (that would reorder evictions), so a page that the promoted
        // separator could overflow is copied now, while it is in hand.
        let spare = (used + SEP_FRAMING + MAX_ENTRY_BYTES > PAGE_SIZE).then(|| widen(page, used));
        let (sep, new_child) = self.insert_into(disk, pool, child, key, value)?;
        let klen = (sep.len() as u16).to_le_bytes();
        let parts = [&klen[..], sep.as_bytes(), &new_child.to_le_bytes()[..]];
        let wide = spare.filter(|_| used + SEP_FRAMING + sep.len() > PAGE_SIZE);
        place(disk, pool, pid, wide, used, (at, at), parts)
    }
}

/// Writes the entry `parts` over bytes `[off, end)` of page `pid`: in the
/// frame when it fits (`wide` is `None`), else in the widened image, which
/// is then split.
fn place(
    disk: &mut SimDisk,
    pool: &mut BufferPool,
    pid: u32,
    wide: Option<Wide>,
    used: usize,
    (off, end): (usize, usize),
    parts: [&[u8]; 3],
) -> Option<(String, u32)> {
    let Some(mut wide) = wide else {
        splice(pool.page_mut(disk, pid), used, off, end, parts);
        return None;
    };
    let used = splice(&mut wide, used, off, end, parts);
    Some(split(disk, pool, pid, &wide, used))
}

/// Splits the over-full image `wide` of page `pid` (`used` bytes) in two:
/// the left half goes back to `pid`, the right half to a fresh page, and
/// the separator between them is returned with the fresh page's id. A leaf
/// keeps the separator's entry as the right page's first; an internal page
/// promotes it, its child becoming the right page's `child0`.
fn split(
    disk: &mut SimDisk,
    pool: &mut BufferPool,
    pid: u32,
    wide: &Wide,
    used: usize,
) -> (String, u32) {
    let (leaf, n) = (wide[0] == LEAF, count(wide));
    // Halve by entry count. Entries vary in size, so move the cut as little
    // as it takes for both halves to fit a page: `mid` is the first entry
    // from the middle on that leaves a right half that fits, or failing
    // that the last one whose left half does.
    let (mut mid, mut sep, mut cut, mut right_from) = (0, &wide[..0], HEADER, HEADER);
    for (i, (off, key, end)) in entries(wide).enumerate() {
        if off > PAGE_SIZE {
            break;
        }
        (mid, sep, cut, right_from) = (i, key, off, if leaf { off } else { end });
        if i >= n / 2 && HEADER + used - right_from <= PAGE_SIZE {
            break;
        }
    }
    let (right_n, right_link) = if leaf {
        (n - mid, link(wide))
    } else {
        (n - mid - 1, u32_at(wide, right_from - 4))
    };
    let right = pool.alloc(disk);
    let page = pool.page_mut(disk, right);
    page[0] = wide[0];
    set_count(page, right_n);
    set_link(page, right_link);
    page[HEADER..HEADER + used - right_from].copy_from_slice(&wide[right_from..used]);
    let page = pool.page_mut(disk, pid);
    page[..cut].copy_from_slice(&wide[..cut]);
    page[cut..].fill(0);
    set_count(page, mid);
    if leaf {
        set_link(page, right);
    }
    (text(sep), right)
}

#[cfg(test)]
impl BTree {
    /// Asserts what every operation relies on: entries sorted within a
    /// page and inside the bounds its parent's separators give it, used
    /// bytes within the page and nothing but zeros after them, the leaf
    /// chain visiting the leaves left to right, and `len` counting the keys.
    fn check_invariants(&self, disk: &mut SimDisk, pool: &mut BufferPool) {
        fn check(
            disk: &mut SimDisk,
            pool: &mut BufferPool,
            pid: u32,
            (lo, hi): (Option<&[u8]>, Option<&[u8]>),
            leaves: &mut Vec<u32>,
        ) -> usize {
            let page = *pool.page(disk, pid); // copied: the recursion reuses the pool
            assert!(page[0] == LEAF || page[0] == INTERNAL, "page {pid}: tag");
            let used = used(&page);
            assert!(used <= PAGE_SIZE, "page {pid}: {used} bytes used");
            assert!(page[used..].iter().all(|&b| b == 0), "page {pid}: tail");
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
            let mut total = check(disk, pool, link(&page), (lo, Some(keys[0])), leaves);
            for (i, (_, k, end)) in entries(&page).enumerate() {
                let bounds = (Some(k), keys.get(i + 1).copied().or(hi));
                total += check(disk, pool, u32_at(&page, end - 4), bounds, leaves);
            }
            total
        }
        let mut leaves = Vec::new();
        let keys = check(disk, pool, self.root, (None, None), &mut leaves);
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
    }

    #[test]
    #[should_panic(expected = "entry too large")]
    fn oversized_entries_are_rejected() {
        let (mut d, mut p) = stack(4);
        let mut t = BTree::new(&mut d, &mut p);
        t.put(&mut d, &mut p, "k", &"x".repeat(MAX_ENTRY_BYTES + 1));
    }
}
