//! The shard engine abstraction: one consensus group serving one shard.
//!
//! A [`ShardEngine`] is any [`ClusterDriver`] the store can additionally
//! *drive as a log service*: the harness's `Port` injects client commands into
//! the group and observes replies by reading the replicas' dedup tables, and
//! checkers peek at applied state. Multi-Paxos and Raft both qualify — the store is
//! deliberately engine-agnostic, which is the tutorial's point that 2PC
//! layered over consensus does not care which consensus it is layered over.
//!
//! Submission model: every injected command is broadcast to all replicas
//! from a *stub client* node (a workload client with zero commands). Only
//! the leader proposes it; followers answer `NotLeader`, which the stub
//! ignores. The `(client, seq)` dedup table guarantees at-most-once apply,
//! so the harness may re-broadcast the same command forever until some
//! replica shows a cached reply for it — "applied on one replica" implies
//! "decided in the shard log".

use consensus_core::driver::{BatchConfig, ClusterDriver, DriverConfig};
use consensus_core::smr::{Command, KvCommand, KvResponse, Str};
use consensus_core::{ClientMsg, Cluster, DurableProtocol, Envelope, ReadMode};
use paxos::multi::MultiPaxos;
use raft::Raft;
use simnet::{DiskModel, NetConfig, NodeId, TraceCtx};

/// Geo deployment of one shard group: which region each replica lives in,
/// plus the fast-read protocol parameters. The group's WAN topology itself
/// travels in [`ShardBuildSpec::net`] (`NetConfig::wan`); this struct binds
/// the group's nodes to it.
#[derive(Clone, Debug)]
pub struct ShardGeo {
    /// Number of regions in the topology. The engine builds one *regional
    /// stub client* per region (node ids `n_replicas..n_replicas +
    /// n_regions`), each homed in its region, so fast reads injected "from
    /// region g" pay that region's network distances.
    pub n_regions: usize,
    /// Region of each replica (`regions[r]` for replica `r`).
    pub regions: Vec<u32>,
    /// Multi-Paxos leader-lease length in µs (`0` disables; Raft ignores
    /// this and serves fast reads through read-index confirmation).
    pub lease_us: u64,
    /// Maximum tolerated clock skew for lease reads in µs.
    pub max_skew_us: u64,
}

/// Everything needed to build one shard group, in one place. Collapsing the
/// old `build_shard` / `build_shard_durable` pair into a single spec-driven
/// constructor removed the silent-fallback duality: an engine either builds
/// what the spec asks for or fails to compile, never "quietly builds
/// something else".
#[derive(Clone, Debug)]
pub struct ShardBuildSpec {
    /// Replicas in the consensus group (the stub client gets id
    /// `n_replicas`).
    pub n_replicas: usize,
    /// Batching/pipelining knob for the group's proposer.
    pub batch: BatchConfig,
    /// Network profile of the group's simulation.
    pub net: NetConfig,
    /// Seed of the group's simulation.
    pub seed: u64,
    /// Durable storage: `(snapshot_threshold, disk model)`. `None` keeps
    /// the RAM-durability model.
    pub durability: Option<(usize, DiskModel)>,
    /// Geo deployment: regional replica homes, regional stub clients, and
    /// fast-read parameters. `None` builds the classic single-datacenter
    /// shard, bit-identical to every pre-geo configuration.
    pub geo: Option<ShardGeo>,
}

impl ShardBuildSpec {
    /// A RAM-durability spec — the historical `build_shard` arguments.
    pub fn new(n_replicas: usize, batch: BatchConfig, net: NetConfig, seed: u64) -> Self {
        ShardBuildSpec {
            n_replicas,
            batch,
            net,
            seed,
            durability: None,
            geo: None,
        }
    }

    /// The same shard persisted through a durable storage engine,
    /// checkpointing every `threshold` applied entries over `disk`.
    #[must_use]
    pub fn durable(mut self, threshold: usize, disk: DiskModel) -> Self {
        self.durability = Some((threshold, disk));
        self
    }

    /// The same shard deployed across regions (see [`ShardGeo`]).
    #[must_use]
    pub fn geo(mut self, geo: ShardGeo) -> Self {
        assert_eq!(
            geo.regions.len(),
            self.n_replicas,
            "geo placement must assign every replica a region"
        );
        self.geo = Some(geo);
        self
    }
}

/// A consensus group that the store can use as a replicated shard log.
pub trait ShardEngine: ClusterDriver {
    /// Builds one shard group from `spec`: `spec.n_replicas` replicas plus
    /// one stub client (node id `n_replicas`) whose identity the harness
    /// borrows as the sender of injected submissions. A durable spec
    /// attaches a real storage engine to every replica — there is no
    /// fallback path.
    fn build_shard(spec: &ShardBuildSpec) -> Self
    where
        Self: Sized;

    /// Broadcasts `cmd` to every replica, sent from the stub client node.
    /// Safe to call repeatedly with the same command (dedup applies once).
    /// With a trace context, the injected messages (and everything the shard
    /// does on their behalf) chain under that harness-minted root span.
    fn submit(&mut self, cmd: Command<KvCommand>, tc: Option<TraceCtx>);

    /// The reply for `(client, seq)` if some replica already applied it.
    /// Valid only while `(client, seq)` is the client's newest command on
    /// this shard — the dedup table keeps one slot per client.
    fn reply_for(&self, client: u32, seq: u64) -> Option<KvResponse>;

    /// Reads `key` from the most-caught-up replica's applied state, without
    /// going through the log. Harness-side introspection only.
    fn peek(&self, key: &str) -> Option<String>;

    // ---- geo fast-read path (active only on geo-built shards) ----------

    /// Injects a fast-path linearizable read of `key` addressed to replica
    /// `target`, sent from region `region`'s stub client so the reply pays
    /// that region's network distance. The replica answers with a
    /// [`ReadMode`]-tagged reply ([`ShardEngine::read_reply`]) — or NACKs
    /// when it cannot prove the read safe. Idempotent per `(client, seq)`.
    fn submit_read(&mut self, client: u32, seq: u64, key: &str, target: usize, region: usize);

    /// The fast-read reply for `(client, seq)`, if one has arrived at any
    /// regional stub: `(value, mode)`.
    fn read_reply(&self, client: u32, seq: u64) -> Option<(Option<Str>, ReadMode)>;

    /// The replica a region-`region` client should aim its fast reads at:
    /// for Multi-Paxos the (lease-holding) leader — only it can serve; for
    /// Raft a replica homed in `region` when one exists (read-index lets
    /// followers serve), falling back to the leader.
    fn read_target(&self, region: usize) -> usize;

    /// The region replica `replica` is homed in (`None` on non-geo shards).
    fn replica_region(&self, replica: usize) -> Option<usize>;

    /// Skews replica `replica`'s local clock forward by `offset_us` — the
    /// nemesis lever for driving lease clocks past their safety bound.
    fn set_replica_skew(&mut self, replica: usize, offset_us: u64);
}

/// What a log protocol adds to [`consensus_core::SmrProtocol`] to serve as a
/// shard group: durable replicas, and the geo read path's two
/// protocol-specific rules.
pub trait ShardProtocol: DurableProtocol {
    /// Configures `replica`'s fast-read path for a geo deployment.
    /// Multi-Paxos enables leader leases; Raft's read-index needs nothing.
    fn configure_geo(replica: &mut Self::Replica, geo: &ShardGeo) {
        let _ = (replica, geo);
    }

    /// The replica a region-`region` client should aim its fast reads at.
    fn read_target(cluster: &Cluster<Self>, region: usize) -> usize;
}

impl ShardProtocol for MultiPaxos {
    fn configure_geo(replica: &mut paxos::multi::Replica, geo: &ShardGeo) {
        replica.set_lease(geo.lease_us, geo.max_skew_us);
    }

    fn read_target(cluster: &Cluster<Self>, _region: usize) -> usize {
        // Only the lease-holding leader can serve Multi-Paxos fast reads;
        // locality falls out of placement homing the leader near clients.
        cluster.leader().map_or(0, NodeId::index)
    }
}

impl ShardProtocol for Raft {
    fn read_target(cluster: &Cluster<Self>, region: usize) -> usize {
        // Read-index lets any replica serve, so prefer one homed in the
        // client's region; otherwise aim at the leader.
        (0..cluster.n_replicas)
            .find(|&r| cluster.sim.node_region(NodeId::from(r)) == Some(region))
            .or_else(|| cluster.leader().map(NodeId::index))
            .unwrap_or(0)
    }
}

impl<P: ShardProtocol> ShardEngine for Cluster<P>
where
    P::Shape: From<usize>,
{
    fn build_shard(spec: &ShardBuildSpec) -> Self {
        let n_stubs = spec.geo.as_ref().map_or(1, |g| g.n_regions);
        let cfg = DriverConfig::new(spec.n_replicas, n_stubs, 0, spec.seed)
            .with_net(spec.net.clone())
            .with_batch(spec.batch);
        let mut cluster = Self::from_config(&cfg);
        if let Some(geo) = &spec.geo {
            cluster = cluster.map_replicas(|r| P::configure_geo(r, geo));
            for (r, &region) in geo.regions.iter().enumerate() {
                cluster
                    .sim
                    .set_node_region(NodeId::from(r), region as usize);
            }
            for g in 0..geo.n_regions {
                cluster
                    .sim
                    .set_node_region(NodeId::from(spec.n_replicas + g), g);
            }
        }
        if let Some((threshold, disk)) = spec.durability {
            cluster = cluster.with_durability(threshold, disk);
        }
        cluster
    }

    fn submit(&mut self, cmd: Command<KvCommand>, tc: Option<TraceCtx>) {
        let stub = NodeId::from(self.n_replicas);
        let at = self.sim.now();
        for r in 0..self.n_replicas {
            let msg = Envelope::request(cmd.clone());
            self.sim.inject_traced(stub, NodeId::from(r), msg, at, tc);
        }
    }

    fn reply_for(&self, client: u32, seq: u64) -> Option<KvResponse> {
        self.replicas()
            .find_map(|r| P::machine(r).cached(client, seq).cloned())
    }

    fn peek(&self, key: &str) -> Option<String> {
        self.replicas()
            .max_by_key(|r| P::applied_len(r))
            .and_then(|r| P::machine(r).kv().get(key).map(|v| v.to_string()))
    }

    fn submit_read(&mut self, client: u32, seq: u64, key: &str, target: usize, region: usize) {
        let stub = NodeId::from(self.n_replicas + region);
        let at = self.sim.now();
        let key = key.into();
        let msg = Envelope::Client(ClientMsg::Read { client, seq, key });
        self.sim.inject(stub, NodeId::from(target), msg, at);
    }

    fn read_reply(&self, client: u32, seq: u64) -> Option<(Option<Str>, ReadMode)> {
        self.clients()
            .find_map(|c| c.read_replies.get(&(client, seq)).cloned())
    }

    fn read_target(&self, region: usize) -> usize {
        P::read_target(self, region)
    }

    fn replica_region(&self, replica: usize) -> Option<usize> {
        self.sim.node_region(NodeId::from(replica))
    }

    fn set_replica_skew(&mut self, replica: usize, offset_us: u64) {
        self.sim.set_clock_skew(NodeId::from(replica), offset_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxos::MultiPaxosCluster;
    use raft::RaftCluster;
    use simnet::Time;

    fn drive<E: ShardEngine>(mut shard: E) {
        // Submit through the harness path: broadcast, step, poll.
        let cmd = Command {
            client: 100,
            seq: 1,
            op: KvCommand::Put {
                key: "alpha".into(),
                value: "1".into(),
            },
        };
        let mut t = 20_000; // past initial leader election
        shard.run_until(Time(t));
        shard.submit(cmd.clone(), None);
        let reply = loop {
            t += 500;
            shard.run_until(Time(t));
            if let Some(r) = shard.reply_for(100, 1) {
                break r;
            }
            if t % 25_000 == 0 {
                shard.submit(cmd.clone(), None); // retransmit
            }
            assert!(t < 5_000_000, "submission never applied");
        };
        assert_eq!(reply, KvResponse::Ok);
        assert_eq!(shard.peek("alpha"), Some("1".to_string()));
        assert_eq!(shard.peek("missing"), None);
    }

    fn spec() -> ShardBuildSpec {
        ShardBuildSpec::new(3, BatchConfig::unbatched(), NetConfig::lan(), 7)
    }

    #[test]
    fn paxos_shard_applies_injected_commands() {
        drive(MultiPaxosCluster::build_shard(&spec()));
    }

    #[test]
    fn raft_shard_applies_injected_commands() {
        drive(RaftCluster::build_shard(&spec()));
    }

    #[test]
    fn durable_specs_apply_injected_commands_on_both_engines() {
        let durable = spec().durable(8, DiskModel::ssd());
        drive(MultiPaxosCluster::build_shard(&durable));
        drive(RaftCluster::build_shard(&durable));
    }
}
