//! Key → shard routing: a hash-range map shared by every router.
//!
//! Keys are hashed (FNV-1a, stable across platforms) onto the `u64` ring,
//! which is cut into contiguous ranges; each range is owned by one consensus
//! *group*. The indirection from range to group — rather than `hash % n` —
//! is what makes the map rebalancing-ready: a future split/move only edits
//! the range table, it never changes the hash function, and the assignment
//! travels inside the serialized store config so every router provably
//! routes identically (the store asserts the per-router copies are equal).

/// Deterministic shard map: `ranges[i]` is the *exclusive* upper bound of
/// range `i` on the hash ring, owned by consensus group `groups[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Exclusive upper bound of each hash range, strictly increasing; the
    /// last bound is always `u64::MAX` (the ring has no gaps).
    bounds: Vec<u64>,
    /// Owning consensus group of each range.
    groups: Vec<u32>,
    /// Geo placement: `placement[group][replica]` is that replica's region.
    /// `None` for single-datacenter stores — and absent from the serialized
    /// form, so pre-geo map strings parse (and fingerprint) unchanged.
    placement: Option<Vec<Vec<u32>>>,
}

/// The store's stable key hash: FNV-1a with a 64-bit finalizer. Raw FNV
/// barely stirs the high bits on short keys, and range partitioning reads
/// exactly those bits — the avalanche pass spreads them.
pub fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl ShardMap {
    /// An even split of the ring into `n_groups` ranges, range `i` owned by
    /// group `i`. The starting point before any rebalancing.
    pub fn even(n_groups: usize) -> Self {
        assert!(n_groups > 0, "store needs at least one shard");
        let n = n_groups as u64;
        let width = u64::MAX / n;
        let mut bounds: Vec<u64> = (1..n).map(|i| i * width).collect();
        bounds.push(u64::MAX);
        ShardMap {
            bounds,
            groups: (0..n_groups as u32).collect(),
            placement: None,
        }
    }

    /// The same map with a geo placement attached:
    /// `placement[group][replica]` is that replica's region (see
    /// [`crate::geo::compute_placement`]).
    #[must_use]
    pub fn with_placement(mut self, placement: Vec<Vec<u32>>) -> Self {
        assert_eq!(
            placement.len(),
            self.n_groups(),
            "placement must cover every consensus group"
        );
        self.placement = Some(placement);
        self
    }

    /// The geo placement, if one is attached.
    pub fn placement(&self) -> Option<&Vec<Vec<u32>>> {
        self.placement.as_ref()
    }

    /// The region of `replica` in `group`'s consensus group (`None` when no
    /// placement is attached).
    pub fn replica_region(&self, group: usize, replica: usize) -> Option<usize> {
        Some(*self.placement.as_ref()?.get(group)?.get(replica)? as usize)
    }

    /// The primary region of `group`: where its replica 0 — the likely
    /// initial leader — is homed (`None` when no placement is attached).
    pub fn primary_region(&self, group: usize) -> Option<usize> {
        self.replica_region(group, 0)
    }

    /// The consensus group owning `key`.
    pub fn group_of(&self, key: &str) -> usize {
        let h = key_hash(key);
        let i = self.bounds.partition_point(|&b| b < h);
        self.groups[i.min(self.groups.len() - 1)] as usize
    }

    /// Number of distinct consensus groups.
    pub fn n_groups(&self) -> usize {
        let mut gs: Vec<u32> = self.groups.clone();
        gs.sort_unstable();
        gs.dedup();
        gs.len()
    }

    /// Serializes the map for the store config (`bound:group,...`). A geo
    /// placement, when attached, rides in an appended `|`-separated section
    /// (`|r.r.r,r.r.r,...` — one dot-joined region list per group), so
    /// placement-free maps serialize exactly as they always have.
    pub fn serialize(&self) -> String {
        let ranges = self
            .bounds
            .iter()
            .zip(&self.groups)
            .map(|(b, g)| format!("{b:x}:{g}"))
            .collect::<Vec<_>>()
            .join(",");
        match &self.placement {
            None => ranges,
            Some(p) => {
                let rows = p
                    .iter()
                    .map(|row| row.iter().map(u32::to_string).collect::<Vec<_>>().join("."))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{ranges}|{rows}")
            }
        }
    }

    /// Parses [`ShardMap::serialize`] output. Returns `None` on malformed
    /// input, a map that does not cover the whole ring, or one whose group
    /// ids are not exactly `0..n_groups()` (the store indexes its shards by
    /// them).
    pub fn deserialize(s: &str) -> Option<ShardMap> {
        let (ranges, placement_part) = match s.split_once('|') {
            Some((r, p)) => (r, Some(p)),
            None => (s, None),
        };
        let mut bounds = Vec::new();
        let mut groups = Vec::new();
        for part in ranges.split(',') {
            let (b, g) = part.split_once(':')?;
            bounds.push(u64::from_str_radix(b, 16).ok()?);
            groups.push(g.parse().ok()?);
        }
        let covers = bounds.last() == Some(&u64::MAX);
        let sorted = bounds.windows(2).all(|w| w[0] < w[1]);
        if !(covers && sorted) {
            return None;
        }
        let mut map = ShardMap {
            bounds,
            groups,
            placement: None,
        };
        // Every id below the count of distinct ids ⇔ the ids are 0..n_groups.
        let n_groups = map.n_groups();
        if map.groups.iter().any(|&g| g as usize >= n_groups) {
            return None;
        }
        if let Some(p) = placement_part {
            let rows: Option<Vec<Vec<u32>>> = p
                .split(',')
                .map(|row| row.split('.').map(|r| r.parse().ok()).collect())
                .collect();
            let rows = rows?;
            if rows.len() != n_groups || rows.iter().any(Vec::is_empty) {
                return None;
            }
            map.placement = Some(rows);
        }
        Some(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_map_covers_ring_and_uses_all_groups() {
        let map = ShardMap::even(4);
        let mut seen = [false; 4];
        for i in 0..256 {
            seen[map.group_of(&format!("k{i}"))] = true;
        }
        assert_eq!(seen, [true; 4], "256 keys should hit all 4 shards");
    }

    #[test]
    fn serialization_round_trips() {
        let map = ShardMap::even(3);
        let copy = ShardMap::deserialize(&map.serialize()).unwrap();
        assert_eq!(copy, map);
        for i in 0..64 {
            let k = format!("key-{i}");
            assert_eq!(copy.group_of(&k), map.group_of(&k));
        }
    }

    #[test]
    fn malformed_maps_are_rejected() {
        assert_eq!(ShardMap::deserialize(""), None);
        assert_eq!(ShardMap::deserialize("10:0,5:1"), None, "unsorted");
        assert_eq!(ShardMap::deserialize("10:0,20:1"), None, "uncovered ring");
        assert_eq!(ShardMap::deserialize("zz"), None);
        // Group ids must be exactly 0..n_groups: the first map has one
        // group, yet `group_of` would answer 7 for every key.
        for sparse in ["ffffffffffffffff:7", "10:0,ffffffffffffffff:2"] {
            assert_eq!(ShardMap::deserialize(sparse), None, "{sparse}");
        }
        assert!(ShardMap::deserialize("10:1,ffffffffffffffff:0").is_some());
    }

    #[test]
    fn placement_round_trips_and_stays_backward_compatible() {
        let plain = ShardMap::even(3);
        let placed =
            plain
                .clone()
                .with_placement(vec![vec![0, 0, 1], vec![1, 1, 2], vec![2, 2, 0]]);
        // Placement-free serialization is byte-identical to the historical
        // form and parses back without a placement.
        assert!(!plain.serialize().contains('|'));
        let wire = placed.serialize();
        assert_eq!(wire.split('|').next().unwrap(), plain.serialize());
        let copy = ShardMap::deserialize(&wire).unwrap();
        assert_eq!(copy, placed);
        assert_eq!(copy.replica_region(1, 2), Some(2));
        assert_eq!(copy.primary_region(2), Some(2));
        assert_eq!(plain.primary_region(0), None);
        // Malformed placements are rejected, not silently dropped.
        let base = plain.serialize();
        assert_eq!(ShardMap::deserialize(&format!("{base}|0.0")), None);
        assert_eq!(ShardMap::deserialize(&format!("{base}|a,b,c")), None);
    }

    #[test]
    fn rebalancing_edits_ranges_without_moving_the_hash() {
        // Moving a range to another group re-routes exactly that range.
        let map = ShardMap::even(2);
        let mut moved = map.clone();
        moved.groups[0] = 1; // group 1 absorbs range 0
        for i in 0..64 {
            let k = format!("k{i}");
            if map.group_of(&k) == 0 {
                assert_eq!(moved.group_of(&k), 1);
            } else {
                assert_eq!(moved.group_of(&k), map.group_of(&k));
            }
        }
        assert_eq!(moved.n_groups(), 1);
    }
}
