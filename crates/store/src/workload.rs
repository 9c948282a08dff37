//! The deterministic per-router workload: what each router will issue, in
//! order, drawn from the store seed alone.

use consensus_core::smr::{KvCommand, Str};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use crate::config::{CommitBackend, StoreConfig, MAX_SPAN};
use crate::shard_map::ShardMap;

/// One generated workload item.
#[derive(Clone, Debug)]
pub(crate) enum WorkItem {
    Single(KvCommand),
    /// A key-interval scan, fanned out across every shard and merged.
    Range {
        start: Str,
        end: Str,
        limit: usize,
    },
    Txn {
        writes: Vec<(String, String)>,
        abort: bool,
        backend: CommitBackend,
    },
    /// A fast-path linearizable read (geo stores only): tries the lease /
    /// read-index path first, falls back to the log on NACK or silence.
    GeoRead {
        key: Str,
    },
}

/// `keys_per_shard` data keys per shard, found by probing the hash map.
pub(crate) fn key_pool(map: &ShardMap, n_shards: usize, keys_per_shard: usize) -> Vec<Vec<String>> {
    let mut pool: Vec<Vec<String>> = vec![Vec::new(); n_shards];
    let mut i = 0u64;
    while pool.iter().any(|p| p.len() < keys_per_shard) {
        let key = format!("k{i}");
        let s = map.group_of(&key);
        if pool[s].len() < keys_per_shard {
            pool[s].push(key);
        }
        i += 1;
        assert!(i < 100_000, "hash map never filled some shard's pool");
    }
    pool
}

/// Deterministic per-router workload: alternating cross-shard transactions
/// and single-key operations.
pub(crate) fn generate_items(
    cfg: &StoreConfig,
    pool: &[Vec<String>],
    router: usize,
    map: &ShardMap,
) -> Vec<WorkItem> {
    let mut rng = ChaCha20Rng::seed_from_u64(cfg.seed ^ (router as u64 + 0x5707).rotate_left(17));
    let mut items = Vec::new();
    let rounds = cfg.txns_per_router.max(cfg.singles_per_router);
    let mut txns = 0;
    let mut singles = 0;
    for i in 0..rounds {
        if txns < cfg.txns_per_router {
            let span = 1 + rng.gen_range(0..MAX_SPAN.min(cfg.n_shards).max(1));
            let span = span.min(cfg.n_shards);
            let mut shards: Vec<usize> = (0..cfg.n_shards).collect();
            // Deterministic partial shuffle.
            for j in 0..span {
                let k = j + rng.gen_range(0..cfg.n_shards - j);
                shards.swap(j, k);
            }
            let writes: Vec<(String, String)> = shards[..span]
                .iter()
                .map(|&s| {
                    let key = pool[s][rng.gen_range(0..pool[s].len())].clone();
                    (key, format!("w{router}.{i}"))
                })
                .collect();
            let abort = rng.gen_range(0..5) == 0;
            items.push(WorkItem::Txn {
                writes,
                abort,
                backend: cfg.backend,
            });
            txns += 1;
        }
        if singles < cfg.singles_per_router {
            let s = rng.gen_range(0..cfg.n_shards);
            let key = pool[s][rng.gen_range(0..pool[s].len())].as_str().into();
            let op = if rng.gen_range(0..2) == 0 {
                KvCommand::Put {
                    key,
                    value: format!("s{router}.{i}").into(),
                }
            } else {
                KvCommand::Get { key }
            };
            items.push(WorkItem::Single(op));
            singles += 1;
        }
    }
    // Range scans come last, both in the item list and in RNG draw order,
    // so `ranges_per_router = 0` leaves historical workloads bit-identical.
    if cfg.ranges_per_router > 0 {
        let mut all_keys: Vec<String> = pool.iter().flatten().cloned().collect();
        all_keys.sort();
        for _ in 0..cfg.ranges_per_router {
            let a = rng.gen_range(0..all_keys.len());
            let b = rng.gen_range(0..all_keys.len());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            // `"!"` sorts below every pool-key character, so this end bound
            // includes `all_keys[hi]` itself but none of its extensions.
            let end = format!("{}!", all_keys[hi]).into();
            let limit = 1 + rng.gen_range(0..all_keys.len());
            items.push(WorkItem::Range {
                start: all_keys[lo].as_str().into(),
                end,
                limit,
            });
        }
    }
    // Geo fast reads come last of all (zero extra RNG draws without a geo
    // config, so non-geo workloads stay bit-identical).
    if let Some(geo) = &cfg.geo {
        let n_regions = geo.topology.n_regions();
        let my_region = router % n_regions;
        let local: Vec<usize> = (0..cfg.n_shards)
            .filter(|&s| map.primary_region(s) == Some(my_region))
            .collect();
        let remote: Vec<usize> = (0..cfg.n_shards)
            .filter(|&s| map.primary_region(s) != Some(my_region))
            .collect();
        for _ in 0..geo.reads_per_router {
            let pick_local = rng.gen_range(0..100) < geo.local_read_pct && !local.is_empty();
            let from = if pick_local || remote.is_empty() {
                &local
            } else {
                &remote
            };
            let s = from[rng.gen_range(0..from.len())];
            // Mild key skew (zipf-ish): the minimum of two uniform draws
            // biases reads toward the front of the shard's pool.
            let a = rng.gen_range(0..pool[s].len());
            let b = rng.gen_range(0..pool[s].len());
            items.push(WorkItem::GeoRead {
                key: pool[s][a.min(b)].as_str().into(),
            });
        }
    }
    items
}
