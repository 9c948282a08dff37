//! Geo-scale deployment: WAN regions, shard placement, and local reads.
//!
//! The paper's systems section ends where most deployments begin: the store
//! is not in one datacenter. This module stretches the sharded store across
//! named WAN regions (simnet's [`WanTopology`]): every shard's consensus
//! group is *placed* onto a region subset by a [`PlacementPolicy`], the
//! placement travels inside the serialized [`crate::ShardMap`] so all
//! routers provably agree on it, and routers gain a **fast read path** that
//! serves linearizable reads from the client's own region when the
//! protocol can prove it is legal:
//!
//! * **Multi-Paxos** — clock-bound leader leases, renewed through the log
//!   (`paxos::multi::Replica::leases`). A lease-holding leader answers
//!   reads from applied state without a log round; reads are region-local
//!   exactly when the leader is homed in the client's region.
//! * **Raft** — read-index follower reads: any replica parks the read,
//!   confirms a commit index with the leader, waits until its own applied
//!   state covers it, and answers locally. Reads are region-local whenever
//!   *any* replica is homed in the client's region — the WAN hop moves off
//!   the critical path into the (pipelined) index confirmation.
//!
//! Either way the replica refuses ([`ReadMode::Nack`]) whenever it cannot
//! prove safety — clock skew past the lease bound, an unconfirmable
//! leadership, a partition — and the router falls back to the ordinary
//! log path. The fallback is always correct, only slower; the invariant
//! the nemesis `store-geo` target checks is that a *served* fast read is
//! never stale.

use consensus_core::{ReadMode, Str};
use simnet::WanTopology;

/// How a shard's consensus group is assigned to regions.
///
/// Placement is computed once at store build time, serialized into the
/// shard map, and re-derived by every router (asserted identical) — the
/// same treatment the key ranges get, because a router that disagrees
/// about placement would route "local" reads to the wrong region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Every replica of shard `s` lives in region `s mod n_regions`:
    /// shard-local traffic never crosses the WAN, but a region outage
    /// takes its shards down whole.
    SingleRegion,
    /// A majority of shard `s` (including replica 0, the likely initial
    /// leader) lives in the primary region `s mod n_regions`; the minority
    /// remainder is spread over the other regions as witnesses. Commits
    /// stay region-local (the majority is), while the witnesses preserve
    /// the data through a primary-region outage.
    PrimaryWitness,
    /// Replica `r` of shard `s` lives in region `(s + r) mod n_regions`:
    /// maximal survivability, but every commit quorum crosses the WAN.
    Spread,
}

impl PlacementPolicy {
    /// Stable short tag used in serialized placements and trace lines.
    pub fn tag(&self) -> &'static str {
        match self {
            PlacementPolicy::SingleRegion => "single",
            PlacementPolicy::PrimaryWitness => "witness",
            PlacementPolicy::Spread => "spread",
        }
    }
}

/// Computes the region of every replica: `placement[shard][replica]`.
pub fn compute_placement(
    policy: PlacementPolicy,
    n_shards: usize,
    replicas_per_shard: usize,
    n_regions: usize,
) -> Vec<Vec<u32>> {
    assert!(n_regions >= 1, "placement needs at least one region");
    (0..n_shards)
        .map(|s| {
            let primary = (s % n_regions) as u32;
            (0..replicas_per_shard)
                .map(|r| match policy {
                    PlacementPolicy::SingleRegion => primary,
                    PlacementPolicy::PrimaryWitness => {
                        let majority = replicas_per_shard / 2 + 1;
                        if r < majority || n_regions == 1 {
                            primary
                        } else {
                            // Witnesses round-robin over the *other* regions.
                            let other = (r - majority) % (n_regions - 1);
                            ((primary as usize + 1 + other) % n_regions) as u32
                        }
                    }
                    PlacementPolicy::Spread => ((s + r) % n_regions) as u32,
                })
                .collect()
        })
        .collect()
}

/// Geo deployment configuration for [`crate::StoreConfig::geo`].
#[derive(Clone, Debug)]
pub struct GeoConfig {
    /// The WAN topology: named regions, intra-region and (possibly
    /// asymmetric) inter-region delay models. Installed into every shard
    /// group's network.
    pub topology: WanTopology,
    /// How shard groups are assigned to regions.
    pub placement: PlacementPolicy,
    /// Fast-path reads each router issues (appended after its transactions,
    /// singles, and ranges, so `0` leaves historical workloads untouched).
    pub reads_per_router: usize,
    /// Percentage (0–100) of geo reads aimed at keys whose owning shard is
    /// primary-homed in the router's own region — the locality knob of the
    /// multi-region workload.
    pub local_read_pct: u32,
}

impl GeoConfig {
    /// The canonical three-datacenter deployment: [`WanTopology::three_dc`]
    /// regions, primary-witness placement, 30 ms leases with a 5 ms skew
    /// budget, and an 80%-region-local read mix.
    pub fn three_dc() -> Self {
        GeoConfig {
            topology: WanTopology::three_dc(),
            placement: PlacementPolicy::PrimaryWitness,
            reads_per_router: 8,
            local_read_pct: 80,
        }
    }

    /// The same deployment with a different placement policy.
    #[must_use]
    pub fn placement(mut self, policy: PlacementPolicy) -> Self {
        self.placement = policy;
        self
    }

    /// The same deployment with `n` fast-path reads per router.
    #[must_use]
    pub fn reads_per_router(mut self, n: usize) -> Self {
        self.reads_per_router = n;
        self
    }

    /// The same deployment with a different region-local read percentage.
    #[must_use]
    pub fn local_read_pct(mut self, pct: u32) -> Self {
        self.local_read_pct = pct.min(100);
        self
    }
}

/// One completed fast-path read as the issuing router saw it.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// Issuing router's client id.
    pub client: u32,
    /// Key read.
    pub key: Str,
    /// Shard owning the key.
    pub shard: usize,
    /// The router's home region.
    pub region: usize,
    /// Region of the replica that was asked (`None` when unplaced).
    pub target_region: Option<usize>,
    /// How the read was ultimately served: [`ReadMode::Lease`] or
    /// [`ReadMode::ReadIndex`] on the fast path, [`ReadMode::Log`] after a
    /// fallback. Never [`ReadMode::Nack`] — a NACK *causes* the fallback.
    pub mode: ReadMode,
    /// The value read (`None` = key absent).
    pub value: Option<Str>,
    /// Completion time (µs).
    pub at: u64,
    /// Issue-to-answer latency (µs).
    pub latency_us: u64,
    /// Whether the read was served inside the router's own region (fast
    /// path answered by a replica homed there). Log fallbacks are never
    /// local — they pay the full consensus round.
    pub local: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_region_keeps_each_shard_whole() {
        let p = compute_placement(PlacementPolicy::SingleRegion, 4, 3, 3);
        for (s, row) in p.iter().enumerate() {
            assert!(
                row.iter().all(|&r| r == (s % 3) as u32),
                "shard {s}: {row:?}"
            );
        }
    }

    #[test]
    fn primary_witness_homes_a_majority_with_the_likely_leader() {
        let p = compute_placement(PlacementPolicy::PrimaryWitness, 6, 5, 3);
        for (s, row) in p.iter().enumerate() {
            let primary = (s % 3) as u32;
            assert_eq!(row[0], primary, "replica 0 must be primary-homed");
            let in_primary = row.iter().filter(|&&r| r == primary).count();
            assert!(
                in_primary > 5 / 2,
                "shard {s} majority not primary: {row:?}"
            );
            assert!(
                row.iter().any(|&r| r != primary),
                "shard {s} has no witness: {row:?}"
            );
        }
    }

    #[test]
    fn spread_uses_every_region_per_shard() {
        let p = compute_placement(PlacementPolicy::Spread, 3, 3, 3);
        for row in &p {
            let mut regions: Vec<u32> = row.clone();
            regions.sort_unstable();
            assert_eq!(regions, vec![0, 1, 2]);
        }
    }

    #[test]
    fn one_region_degenerates_to_everything_local() {
        for policy in [
            PlacementPolicy::SingleRegion,
            PlacementPolicy::PrimaryWitness,
            PlacementPolicy::Spread,
        ] {
            let p = compute_placement(policy, 3, 3, 1);
            assert!(p.iter().flatten().all(|&r| r == 0), "{policy:?}");
        }
    }
}
