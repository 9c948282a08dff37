//! Geo-store end-to-end tests: region-local fast reads over both engines,
//! the clock-skew lease matrix, and determinism of the WAN deployment.

use consensus_core::txn::TxnDecision;
use consensus_core::ReadMode;
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use simnet::Time;
use store::{GeoConfig, PlacementPolicy, ShardEngine, Store, StoreConfig};

/// WAN rounds are ~40 ms each; give the workload room.
const HORIZON: Time = Time(60_000_000);

fn geo_cfg(seed: u64) -> StoreConfig {
    StoreConfig::new(seed).routers(3).geo(GeoConfig::three_dc())
}

fn run_geo<E: ShardEngine>(cfg: StoreConfig) -> Store<E> {
    let mut s: Store<E> = Store::new(cfg);
    assert!(s.run(HORIZON), "geo store did not quiesce");
    s
}

fn geo_store_serves_local_reads<E: ShardEngine>(fast: ReadMode) {
    let s = run_geo::<E>(geo_cfg(7));
    // Cross-shard transactions still commit across the WAN.
    let outcomes = s.outcomes();
    assert!(
        outcomes
            .iter()
            .any(|o| o.decision == TxnDecision::Commit && o.span > 1),
        "no committed cross-shard txn"
    );
    // Every geo read completed, each exactly once.
    let reads = s.read_outcomes();
    assert_eq!(reads.len(), 3 * 8, "3 routers x 8 reads each");
    // The fast path actually fired: some reads were served region-locally
    // in the engine's fast mode, and local fast reads are much cheaper
    // than a WAN round trip.
    let local: Vec<_> = reads.iter().filter(|r| r.local).collect();
    assert!(!local.is_empty(), "no region-local fast reads served");
    assert!(
        local.iter().all(|r| r.mode == fast),
        "local reads must use the fast mode, got {:?}",
        local.iter().map(|r| r.mode).collect::<Vec<_>>()
    );
    // Reads of shards *primary-homed* in the router's region never pay a
    // WAN round trip: the lease holder — or the leader a read-index
    // confirmation round-trips to — is in the same region. (A read-index
    // read served by a local witness of a remote-primary shard is still
    // `local` for data, but its confirmation crosses the WAN.)
    let min_wan_rtt = 2 * 18_000; // three_dc inter-region one-way floor x2
    let primary_local: Vec<_> = local
        .iter()
        .filter(|r| s.shard_map().primary_region(r.shard) == Some(r.region))
        .collect();
    assert!(!primary_local.is_empty(), "no primary-local reads served");
    for r in &primary_local {
        assert!(
            r.latency_us < min_wan_rtt,
            "primary-local read of {} took {} µs — paid a WAN round trip",
            r.key,
            r.latency_us
        );
    }
    // No read is ever left NACKed: a NACK falls back to the log.
    assert!(reads.iter().all(|r| r.mode != ReadMode::Nack));
    // Histories are complete: every read invoke got exactly one response.
    let history = s.history();
    assert!(history
        .iter()
        .filter(|r| r.client >= store::ROUTER_BASE && r.client < store::RECOVERY_CLIENT)
        .all(|r| r.is_complete()));
}

#[test]
fn paxos_geo_store_serves_local_lease_reads() {
    geo_store_serves_local_reads::<MultiPaxosCluster>(ReadMode::Lease);
}

#[test]
fn raft_geo_store_serves_local_read_index_reads() {
    geo_store_serves_local_reads::<RaftCluster>(ReadMode::ReadIndex);
}

/// The clock-skew lease matrix: skews below the safety bound keep lease
/// reads on the fast path; skews past it force every lease read onto the
/// log fallback — and either way the value read is the current committed
/// value, never stale.
#[test]
fn lease_matrix_skew_past_bound_falls_back_never_stale() {
    // (skew_us, fast path still allowed?) — the bound is 5_000 µs.
    for (skew, fast_ok) in [(0u64, true), (4_000, true), (12_000, false)] {
        // One router: its reads run after its writes, so at read time the
        // store is quiescent and `peek` is the linearizable expectation.
        let cfg = StoreConfig::new(19)
            .routers(1)
            .geo(GeoConfig::three_dc().local_read_pct(100));
        let mut s: Store<MultiPaxosCluster> = Store::new(cfg);
        let rps = s.cfg.replicas_per_shard as u32;
        if skew > 0 {
            for shard in 0..s.cfg.n_shards as u32 {
                s.set_replica_skew(shard * rps, skew);
            }
        }
        assert!(s.run(HORIZON), "skew={skew}: store did not quiesce");
        let reads = s.read_outcomes();
        assert_eq!(reads.len(), 8, "skew={skew}");
        for r in &reads {
            if fast_ok {
                assert_eq!(r.mode, ReadMode::Lease, "skew={skew} key={}", r.key);
            } else {
                assert_eq!(
                    r.mode,
                    ReadMode::Log,
                    "skew={skew} past the bound must fall back, key={}",
                    r.key
                );
                assert!(!r.local, "fallback reads pay the log round");
            }
            assert_eq!(
                r.value.as_deref(),
                s.peek(&r.key).as_deref(),
                "skew={skew}: read of {} returned a stale value",
                r.key
            );
        }
    }
}

/// Raft's read index is clock-free: the same skew that disables Multi-Paxos
/// leases leaves follower reads on the fast path.
#[test]
fn raft_read_index_is_immune_to_clock_skew() {
    let cfg = StoreConfig::new(19)
        .routers(1)
        .geo(GeoConfig::three_dc().local_read_pct(100));
    let mut s: Store<RaftCluster> = Store::new(cfg);
    let rps = s.cfg.replicas_per_shard as u32;
    for shard in 0..s.cfg.n_shards as u32 {
        s.set_replica_skew(shard * rps, 1_000_000);
    }
    assert!(s.run(HORIZON));
    let reads = s.read_outcomes();
    assert_eq!(reads.len(), 8);
    assert!(
        reads.iter().all(|r| r.mode == ReadMode::ReadIndex),
        "read-index reads must not care about clocks: {:?}",
        reads.iter().map(|r| r.mode).collect::<Vec<_>>()
    );
}

#[test]
fn geo_runs_are_deterministic_and_non_geo_stores_are_untouched() {
    let run = |seed: u64| {
        let mut s: Store<MultiPaxosCluster> = Store::new(geo_cfg(seed));
        assert!(s.run(HORIZON));
        (s.fingerprint(), s.trace().len(), s.messages_sent())
    };
    assert_eq!(run(21), run(21), "same seed must replay bit-for-bit");
    assert_ne!(run(21).0, run(22).0);
    // A store without a geo config has no geo machinery at all: no reads,
    // no placement, no extra stub clients in the serialized map.
    let mut plain: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(21));
    assert!(plain.run(HORIZON));
    assert!(plain.read_outcomes().is_empty());
    assert!(plain.shard_map().placement().is_none());
    assert!(plain.trace().iter().all(|l| !l.contains("georead")));
}

/// Placement policies change where reads are served from: single-region
/// placement makes every shard fully local to one region, so a router in
/// that region serves all its reads locally.
#[test]
fn single_region_placement_maximizes_locality() {
    let cfg = StoreConfig::new(23)
        .routers(3)
        .geo(GeoConfig::three_dc()
            .placement(PlacementPolicy::SingleRegion)
            .local_read_pct(100));
    let s = run_geo::<MultiPaxosCluster>(cfg);
    let reads = s.read_outcomes();
    assert_eq!(reads.len(), 3 * 8);
    // 100% local mix + single-region placement: every fast read that was
    // served (not fallen back) is local.
    let fast: Vec<_> = reads.iter().filter(|r| r.mode != ReadMode::Log).collect();
    assert!(!fast.is_empty());
    assert!(
        fast.iter().all(|r| r.local),
        "single-region placement with a local mix should serve locally"
    );
}
