//! The sharded store harness: [`Store`] builds the shard groups, the routers,
//! the recovery actor and the audit reader, and steps them in lockstep.
//!
//! One [`crate::ShardEngine`] consensus group per shard, all advanced in
//! quanta of simulated time. Routers live *between* the groups: at every step
//! boundary each actor polls its `Port` for replies and sends follow-up
//! commands (`router.rs` is the forward path, `recovery.rs` the termination
//! path). This file is the rest of the harness: construction, the step loop,
//! result harvest, fault injection and the run fingerprint.

use consensus_core::history::{ClientRecord, HistorySink};
use consensus_core::txn::{TxnDecision, TxnId};
use consensus_core::workload::LatencyRecorder;
use simnet::{CausalSpan, NodeId, Time};

use crate::config::{CommitBackend, StoreConfig, QUANTUM_US};
use crate::engine::{ShardBuildSpec, ShardEngine, ShardGeo};
use crate::geo::{compute_placement, ReadOutcome};
use crate::port::{OpRecord, Step, StoreTrace};
use crate::recovery::{Audit, Recovery};
use crate::router::{RangeOutcome, Router, RouterCrashPoint, TxnOutcome};
use crate::shard_map::ShardMap;
use crate::workload::{generate_items, key_pool, WorkItem};

/// The sharded transactional store.
pub struct Store<E: ShardEngine> {
    /// Configuration the store was built from.
    pub cfg: StoreConfig,
    map: ShardMap,
    shards: Vec<E>,
    routers: Vec<Router>,
    recovery: Recovery,
    audit: Audit,
    now: u64,
    trace: Vec<String>,
    causal: StoreTrace,
}

/// Splits a global fault-node id into `Ok((shard, replica))` or
/// `Err(router)`: all shard replicas come first, then the routers.
fn split_node(cfg: &StoreConfig, global: u32) -> Result<(usize, usize), usize> {
    let rps = cfg.replicas_per_shard as u32;
    let n_replicas = cfg.n_shards as u32 * rps;
    if global < n_replicas {
        Ok(((global / rps) as usize, (global % rps) as usize))
    } else {
        Err((global - n_replicas) as usize)
    }
}

/// Splits each shard group into `side_a(shard)` and everyone else among its
/// `n_nodes` replicas and stub clients. Shards where either side would be
/// empty are untouched.
fn partition_each<E: ShardEngine>(
    shards: &mut [E],
    n_nodes: usize,
    at: u64,
    side_a: impl Fn(usize) -> Vec<NodeId>,
) {
    for (s, shard) in shards.iter_mut().enumerate() {
        let a = side_a(s);
        let b: Vec<NodeId> = (0..n_nodes)
            .map(NodeId::from)
            .filter(|id| !a.contains(id))
            .collect();
        if !a.is_empty() && !b.is_empty() {
            shard.partition_at(Time(at), vec![a, b]);
        }
    }
}

impl<E: ShardEngine> Store<E> {
    /// Builds the store: `n_shards` consensus groups, deterministic
    /// workloads, and one routing map serialized into the config and
    /// re-parsed by every router (asserted identical).
    pub fn new(cfg: StoreConfig) -> Self {
        assert!(cfg.n_shards > 0 && cfg.replicas_per_shard > 0 && cfg.n_routers > 0);
        let mut map = ShardMap::even(cfg.n_shards);
        if let Some(geo) = &cfg.geo {
            map = map.with_placement(compute_placement(
                geo.placement,
                cfg.n_shards,
                cfg.replicas_per_shard,
                geo.topology.n_regions(),
            ));
        }
        let wire = map.serialize();
        let shards: Vec<E> = (0..cfg.n_shards)
            .map(|s| {
                let seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(s as u64 + 1);
                let net = match &cfg.geo {
                    Some(g) => cfg.net.clone().with_wan(g.topology.clone()),
                    None => cfg.net.clone(),
                };
                let mut spec = ShardBuildSpec::new(cfg.replicas_per_shard, cfg.batch, net, seed);
                if let Some(g) = &cfg.geo {
                    spec = spec.geo(ShardGeo {
                        n_regions: g.topology.n_regions(),
                        regions: map.placement().expect("geo store has a placement")[s].clone(),
                    });
                }
                if let Some((threshold, disk)) = cfg.durability {
                    spec = spec.durable(threshold, disk);
                }
                E::build_shard(&spec)
            })
            .collect();
        let pool = key_pool(&map, cfg.n_shards, cfg.keys_per_shard);
        let n_regions = cfg.geo.as_ref().map_or(1, |g| g.topology.n_regions());
        let routers: Vec<Router> = (0..cfg.n_routers)
            .map(|r| {
                let router_map =
                    ShardMap::deserialize(&wire).expect("store config shard map corrupt");
                assert_eq!(router_map, map, "router {r} decoded a different shard map");
                let items = generate_items(&cfg, &pool, r, &map);
                Router::new(r, router_map, r % n_regions, items)
            })
            .collect();
        let audit_keys: Vec<(usize, String)> = pool
            .iter()
            .enumerate()
            .flat_map(|(s, keys)| keys.iter().map(move |k| (s, k.clone())))
            .collect();
        let mut store = Store {
            cfg,
            map,
            shards,
            routers,
            recovery: Recovery::new(),
            audit: Audit::new(audit_keys),
            now: 0,
            trace: Vec::new(),
            causal: StoreTrace::default(),
        };
        let overrides = store.cfg.backend_overrides.clone();
        for (router, txn_number, backend) in overrides {
            store.set_txn_backend(router, txn_number, backend);
        }
        store
    }

    /// Current simulated time (µs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Turns on end-to-end causal tracing: the harness becomes tracer site
    /// 0 (minting one root span per submitted op) and shard `s` becomes
    /// site `s + 1`, so span ids never collide when the traces merge.
    /// Recording is pure accounting — message timing is unchanged.
    pub fn enable_tracing(&mut self) {
        self.causal.tracer.enable(0);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.enable_tracing(s as u32 + 1);
        }
    }

    /// Advances every shard to (at least) `micros` *without* stepping
    /// routers, so shard-local startup (leader elections, initial no-ops)
    /// happens before the workload's first op — and therefore outside every
    /// op's latency window.
    pub fn warm_up(&mut self, micros: u64) {
        while self.now < micros {
            self.advance_shards();
        }
    }

    /// Runs every shard group one quantum further.
    fn advance_shards(&mut self) {
        self.now += QUANTUM_US;
        for s in &mut self.shards {
            s.run_until(Time(self.now));
        }
    }

    /// Every causal span across the harness and all shard sims (empty
    /// unless [`Store::enable_tracing`] ran).
    pub fn causal_spans(&self) -> Vec<CausalSpan> {
        let mut all: Vec<CausalSpan> = self.causal.tracer.spans().to_vec();
        for s in &self.shards {
            all.extend(s.causal_spans());
        }
        all
    }

    /// Completed harness ops with their trace ids and latency windows.
    pub fn op_records(&self) -> &[OpRecord] {
        &self.causal.records
    }

    /// The canonical routing map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard groups (read-only introspection for checkers).
    pub fn shards(&self) -> &[E] {
        &self.shards
    }

    /// Advances every shard one quantum, then runs router/recovery/audit
    /// logic at the boundary.
    pub fn step(&mut self) {
        self.advance_shards();
        let mut cx = Step {
            shards: &mut self.shards,
            causal: &mut self.causal,
            trace: &mut self.trace,
            now: self.now,
        };
        for r in &mut self.routers {
            r.step(&mut cx, self.cfg.buggy_early_writes);
            self.recovery.queue.extend(r.orphan.take());
        }
        self.recovery.step(&mut cx, &self.map);
        if self.audit.started {
            self.audit.step(&mut cx);
        }
    }

    /// Whether routers and recovery have no more work (crashed routers with
    /// no scheduled restart count as finished).
    pub fn main_quiesced(&self) -> bool {
        let finished = |r: &Router| {
            if r.crashed {
                r.restart_at.is_none()
            } else {
                r.done() && r.crash_at.is_none()
            }
        };
        self.routers.iter().all(finished) && self.recovery.quiesced()
    }

    /// Starts the post-run audit: one serializable `Get` per pool key,
    /// through the owning shard's log.
    pub fn start_audit(&mut self) {
        self.audit.started = true;
    }

    /// Whether the audit pass has read every pool key.
    pub fn audit_done(&self) -> bool {
        self.audit.done()
    }

    /// Runs the whole workload plus the audit pass. Returns `true` iff all
    /// routers finished (or crashed for good), recovery drained, and the
    /// audit completed before `horizon`.
    pub fn run(&mut self, horizon: Time) -> bool {
        while self.now + QUANTUM_US <= horizon.0 && !self.main_quiesced() {
            self.step();
        }
        self.start_audit();
        while self.now + QUANTUM_US <= horizon.0 && !self.audit_done() {
            self.step();
        }
        self.main_quiesced() && self.audit_done()
    }

    /// Merged invoke/response history of routers, recovery, and audit.
    pub fn history(&self) -> Vec<ClientRecord> {
        let routers = self.routers.iter().map(Router::port);
        let ports = routers.chain([self.recovery.port(), self.audit.port()]);
        HistorySink::merge(ports.map(|p| p.history()))
    }

    /// Every router's `pick` results, merged in `key` order.
    fn gathered<T: Clone, K: Ord>(
        &self,
        pick: impl Fn(&Router) -> &[T],
        key: impl Fn(&T) -> K,
    ) -> Vec<T> {
        let picked = self.routers.iter().flat_map(|r| pick(r).iter().cloned());
        let mut all: Vec<T> = picked.collect();
        all.sort_by_key(key);
        all
    }

    /// All transaction outcomes routers observed, in completion order.
    pub fn outcomes(&self) -> Vec<TxnOutcome> {
        self.gathered(|r| &r.outcomes, |o| (o.at, o.tid))
    }

    /// All merged range-scan results routers observed, ordered by
    /// completion time then client.
    pub fn range_results(&self) -> Vec<RangeOutcome> {
        self.gathered(|r| &r.ranges, |o| (o.at, o.client))
    }

    /// All completed geo fast-path reads (with their log fallbacks),
    /// ordered by completion time then client. Empty on non-geo stores.
    pub fn read_outcomes(&self) -> Vec<ReadOutcome> {
        self.gathered(|r| &r.geo_reads, |o| (o.at, o.client))
    }

    /// Transactions the recovery actor resolved, in resolution order.
    pub fn recovered(&self) -> &[(TxnId, TxnDecision)] {
        &self.recovery.recovered
    }

    /// Raw-2PC transactions recovery gave up on: no durable decision
    /// exists anywhere, so they block forever.
    pub fn stalled(&self) -> &[TxnId] {
        &self.recovery.stalled
    }

    /// Overrides the commit backend of router `r`'s transaction number
    /// `txn_number` (its `TxnId.number`). Panics if that transaction does
    /// not exist in the generated workload. The builder-style home for
    /// this knob is [`StoreConfig::txn_backend`], which applies it at
    /// build time; this method remains for overriding after construction.
    pub fn set_txn_backend(&mut self, r: usize, txn_number: u64, backend: CommitBackend) {
        let mut n = 0u64;
        for item in &mut self.routers[r].items {
            if let WorkItem::Txn { backend: b, .. } = item {
                if n == txn_number {
                    *b = backend;
                    return;
                }
                n += 1;
            }
        }
        panic!("router {r} has no transaction number {txn_number}");
    }

    /// Begin-to-outcome transaction latencies across all routers.
    pub fn txn_latencies(&self) -> LatencyRecorder {
        let mut agg = LatencyRecorder::new();
        for o in self.routers.iter().flat_map(|r| &r.outcomes) {
            agg.record_micros(o.latency_us);
        }
        agg
    }

    /// Messages sent across all shard groups.
    pub fn messages_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.metrics().sent).sum()
    }

    /// Harness event trace (deterministic; feeds [`Store::fingerprint`]).
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Reads `key` from its shard's most-caught-up replica (no log entry).
    pub fn peek(&self, key: &str) -> Option<String> {
        self.shards[self.map.group_of(key)].peek(key)
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        self.map.group_of(key)
    }

    /// Per-replica `(global id, applied len, state digest)` across shards;
    /// global replica id = `shard * replicas_per_shard + local`.
    pub fn state_digests(&self) -> Vec<(u32, u64, u64)> {
        let rps = self.cfg.replicas_per_shard as u32;
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(s, e)| {
                e.state_digests()
                    .into_iter()
                    .filter(move |(id, _, _)| *id < rps)
                    .map(move |(id, len, dig)| (s as u32 * rps + id, len, dig))
            })
            .collect()
    }

    /// Order-sensitive digest of the run: trace, outcomes, final replica
    /// digests. Equal fingerprints ⇒ bit-for-bit identical runs.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for line in &self.trace {
            eat(line.as_bytes());
        }
        for o in self.outcomes() {
            eat(format!("{} {} {}", o.tid, o.decision.as_str(), o.at).as_bytes());
        }
        for (id, len, dig) in self.state_digests() {
            eat(format!("{id}:{len}:{dig}").as_bytes());
        }
        h
    }

    // ---- fault injection -------------------------------------------------

    /// Schedules a fault on a global node at `at`: `on_replica` for a shard
    /// replica, the slot `on_router` picks for a router.
    fn fault_node_at(
        &mut self,
        global: u32,
        at: u64,
        on_replica: impl FnOnce(&mut E, NodeId, Time),
        on_router: impl FnOnce(&mut Router) -> &mut Option<u64>,
    ) {
        match split_node(&self.cfg, global) {
            Ok((shard, r)) => on_replica(&mut self.shards[shard], NodeId::from(r), Time(at)),
            Err(router) => {
                if let Some(r) = self.routers.get_mut(router) {
                    *on_router(r) = Some(at);
                }
            }
        }
    }

    /// Crashes a global node (replica or router) at absolute time `at`.
    pub fn crash_node_at(&mut self, global: u32, at: u64) {
        self.fault_node_at(global, at, E::crash_at, |r| &mut r.crash_at);
    }

    /// Restarts a global node (replica or router) at absolute time `at`.
    pub fn restart_node_at(&mut self, global: u32, at: u64) {
        self.fault_node_at(global, at, E::restart_at, |r| &mut r.restart_at);
    }

    /// Nodes per shard group: its replicas, then one stub client per region.
    fn nodes_per_shard(&self) -> usize {
        let n_stubs = self.cfg.geo.as_ref().map_or(1, |g| g.topology.n_regions());
        self.cfg.replicas_per_shard + n_stubs
    }

    /// Partitions each shard group along `group` (global replica ids):
    /// replicas in `group` on one side, the rest (plus every stub client)
    /// on the other. Shards with an empty side are untouched.
    pub fn partition_at(&mut self, at: u64, group: &[u32]) {
        let (n_nodes, cfg) = (self.nodes_per_shard(), &self.cfg);
        let replica_on = |s, &g| match split_node(cfg, g) {
            Ok((shard, replica)) if shard == s => Some(NodeId::from(replica)),
            _ => None,
        };
        partition_each(&mut self.shards, n_nodes, at, |s| {
            group.iter().filter_map(|g| replica_on(s, g)).collect()
        });
    }

    /// Partitions region `region` away from the rest of the WAN at absolute
    /// time `at`: in every shard group, the replicas homed in `region`
    /// (plus that region's stub client) land on one side and everything
    /// else on the other. No-op on non-geo stores.
    pub fn partition_region_at(&mut self, at: u64, region: usize) {
        let (n_nodes, rps) = (self.nodes_per_shard(), self.cfg.replicas_per_shard);
        let Some(placement) = self.map.placement() else {
            return;
        };
        let stub = (rps + region < n_nodes).then(|| NodeId::from(rps + region));
        partition_each(&mut self.shards, n_nodes, at, |s| {
            let homed = (0..rps).filter(|&r| placement[s][r] as usize == region);
            homed.map(NodeId::from).chain(stub).collect()
        });
    }

    /// Skews the local clock of a global replica id forward by `offset_us`
    /// — the lever for driving a lease holder past its skew bound. Ignored
    /// for router ids (routers have no protocol clock).
    pub fn set_replica_skew(&mut self, global: u32, offset_us: u64) {
        if let Ok((shard, replica)) = split_node(&self.cfg, global) {
            self.shards[shard].set_replica_skew(replica, offset_us);
        }
    }

    /// Heals all shard partitions at absolute time `at`.
    pub fn heal_at(&mut self, at: u64) {
        for s in &mut self.shards {
            s.heal_at(Time(at));
        }
    }

    /// Sets the random-loss probability on every shard network now.
    pub fn set_drop_prob(&mut self, p: f64) {
        for s in &mut self.shards {
            s.set_drop_prob(p);
        }
    }

    /// Crashes router `r` at absolute time `at` (µs).
    pub fn crash_router_at(&mut self, r: usize, at: u64) {
        self.routers[r].crash_at = Some(at);
    }

    /// Restarts router `r` at absolute time `at` (µs). The router abandons
    /// any in-flight transaction to recovery and resumes its workload.
    pub fn restart_router_at(&mut self, r: usize, at: u64) {
        self.routers[r].restart_at = Some(at);
    }

    /// Crashes router `r` when its transaction number `txn` reaches
    /// `point` — phase-accurate coordinator-crash injection.
    pub fn crash_router_on_txn(&mut self, r: usize, txn: u64, point: RouterCrashPoint) {
        self.routers[r].crash_on = Some((txn, point));
    }

    /// Whether router `r` finished its workload.
    pub fn router_done(&self, r: usize) -> bool {
        !self.routers[r].crashed && self.routers[r].done()
    }

    /// The generated data-key pool, grouped by shard (for tests).
    pub fn pool_keys(&self) -> Vec<(usize, String)> {
        self.audit.keys.clone()
    }
}
