//! What a store is built from and how its control records are spelled:
//! [`StoreConfig`], the [`CommitBackend`] spectrum, the intent-record codec,
//! the harness client ids, and the register operations both coordinators —
//! a router on the forward path, the recovery actor on the termination path —
//! write into the shard logs.

use consensus_core::driver::BatchConfig;
use consensus_core::smr::{KvCommand, Str};
use consensus_core::txn::{self, TxnDecision, TxnId};
use simnet::{DiskModel, NetConfig};

use crate::geo::GeoConfig;

/// Lockstep step size: shards run this many µs between harness polls.
pub const QUANTUM_US: u64 = 500;
/// How long a crashed router's transaction stays untouched before the
/// recovery actor claims it.
pub const RECOVERY_DELAY_US: u64 = 40_000;
/// Client id of router `r` is `ROUTER_BASE + r`.
pub const ROUTER_BASE: u32 = 100;
/// Client id of the recovery actor.
pub const RECOVERY_CLIENT: u32 = 200;
/// Client id of the post-run audit reader.
pub const AUDIT_CLIENT: u32 = 300;

/// The coordinator-shard key registering `tid`'s participant set.
pub fn intent_key(tid: TxnId) -> String {
    format!("~txn.{tid}")
}

fn encode_participants(shards: &[usize]) -> String {
    shards
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(";")
}

fn decode_participants(s: &str) -> Vec<usize> {
    s.split(';').filter_map(|p| p.parse().ok()).collect()
}

/// The commitment protocol a transaction runs over the shard logs. The
/// three backends share the intent/data-write plumbing and differ only in
/// how the commit point is reached — which is exactly the Gray–Lamport
/// spectrum:
///
/// * [`TwoPhase`](CommitBackend::TwoPhase) — raw blocking 2PC: the
///   decision exists only in the coordinator *process* until it writes a
///   plain decision record. A coordinator crash after the votes leaves the
///   transaction **stalled forever** (recovery finds no durable decision
///   and no vote registers to force).
/// * [`TwoPhaseOverConsensus`](CommitBackend::TwoPhaseOverConsensus) — the
///   store's historical protocol: decision entry initialized to `pending`
///   and resolved by a log-serialized CAS; recovery can always close the
///   decision with its abort-CAS.
/// * [`PaxosCommit`](CommitBackend::PaxosCommit) — Gray & Lamport's Paxos
///   Commit mapped onto the shard logs: one *vote register*
///   `~vote.<tid>.s<k>` per participant, each resolved by a CAS
///   `pending → prepared|aborted` that the shard's consensus group
///   serializes (one Paxos instance per vote). Prepared votes carry the
///   shard-local write-set, so *any* coordinator — here the recovery
///   actor — can finish the transaction from the replicated votes alone,
///   committing prepared work instead of aborting it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitBackend {
    /// Raw blocking 2PC (decision record is a plain put; no recovery CAS).
    TwoPhase,
    /// 2PC with the decision as a log-serialized CAS (the default).
    TwoPhaseOverConsensus,
    /// Paxos Commit: per-participant vote registers in the shard logs.
    PaxosCommit,
}

impl CommitBackend {
    /// Stable short tag used in intent records and trace lines.
    pub fn tag(&self) -> &'static str {
        match self {
            CommitBackend::TwoPhase => "2pc",
            CommitBackend::TwoPhaseOverConsensus => "2pcoc",
            CommitBackend::PaxosCommit => "pc",
        }
    }

    /// Parses a [`CommitBackend::tag`] rendering.
    pub fn parse(s: &str) -> Option<CommitBackend> {
        match s {
            "2pc" => Some(CommitBackend::TwoPhase),
            "2pcoc" => Some(CommitBackend::TwoPhaseOverConsensus),
            "pc" => Some(CommitBackend::PaxosCommit),
            _ => None,
        }
    }
}

/// Encodes an intent record: participants, prefixed with the backend tag
/// for non-default backends. The default backend keeps the legacy untagged
/// encoding so historical fingerprints are unchanged.
pub fn encode_intent(backend: CommitBackend, shards: &[usize]) -> String {
    match backend {
        CommitBackend::TwoPhaseOverConsensus => encode_participants(shards),
        other => format!("{}!{}", other.tag(), encode_participants(shards)),
    }
}

/// Decodes an intent record into `(backend, participants)`. Untagged
/// records are the legacy default backend.
pub fn decode_intent(s: &str) -> (CommitBackend, Vec<usize>) {
    let tagged = |(tag, rest)| Some((CommitBackend::parse(tag)?, rest));
    match s.split_once('!').and_then(tagged) {
        Some((backend, rest)) => (backend, decode_participants(rest)),
        None => (CommitBackend::TwoPhaseOverConsensus, decode_participants(s)),
    }
}

// ---- register operations ---------------------------------------------------
//
// Gray & Lamport's commit processes write registers and read replies. These
// are the registers' operations as shard-log commands; the keys and values
// are `consensus_core::txn`'s.

pub(crate) fn put(key: String, value: impl Into<Str>) -> KvCommand {
    let (key, value) = (key.into(), value.into());
    KvCommand::Put { key, value }
}

pub(crate) fn get(key: String) -> KvCommand {
    KvCommand::Get { key: key.into() }
}

/// Records `decision` as a plain entry: raw 2PC's decision, or the outcome
/// Paxos Commit derives from its vote registers.
pub(crate) fn decision_put(tid: TxnId, decision: TxnDecision) -> KvCommand {
    put(txn::decision_key(tid), decision.as_str())
}

/// Resolves the decision register `pending → decision`. The coordinator
/// shard's log serializes concurrent resolvers; exactly one CAS swaps.
pub(crate) fn decision_cas(tid: TxnId, decision: TxnDecision) -> KvCommand {
    KvCommand::Cas {
        key: txn::decision_key(tid).into(),
        expect: txn::DECISION_PENDING.into(),
        new: decision.as_str().into(),
    }
}

pub(crate) fn decision_get(tid: TxnId) -> KvCommand {
    get(txn::decision_key(tid))
}

/// Resolves `shard`'s vote register `pending → vote`: a participant's vote,
/// or a terminating coordinator's free abort.
pub(crate) fn vote_cas(tid: TxnId, shard: usize, vote: String) -> KvCommand {
    KvCommand::Cas {
        key: txn::vote_key(tid, shard).into(),
        expect: txn::VOTE_PENDING.into(),
        new: vote.into(),
    }
}

pub(crate) fn vote_get(tid: TxnId, shard: usize) -> KvCommand {
    get(txn::vote_key(tid, shard))
}

/// Maximum shards a generated transaction spans.
pub const MAX_SPAN: usize = 3;

/// Store-wide configuration. Serialized (including the shard map) and
/// re-parsed by every router, so all routers provably share one routing
/// view.
///
/// Every builder knob in one place (all start from [`StoreConfig::new`]'s
/// canonical small store and return `self`):
///
/// | Builder | Default | Effect |
/// |---|---|---|
/// | [`shards`](StoreConfig::shards) | 3 | Number of shards = consensus groups. |
/// | [`replicas`](StoreConfig::replicas) | 3 | Replicas per consensus group. |
/// | [`routers`](StoreConfig::routers) | 2 | Router (coordinator) clients. |
/// | [`txns_per_router`](StoreConfig::txns_per_router) | 3 | Cross-shard transactions each router issues. |
/// | [`singles_per_router`](StoreConfig::singles_per_router) | 2 | Single-key ops each router issues. |
/// | [`ranges_per_router`](StoreConfig::ranges_per_router) | 0 | Fan-out range scans each router issues (after txns/singles). |
/// | [`keys_per_shard`](StoreConfig::keys_per_shard) | 4 | Workload key-pool size per shard. |
/// | [`batch`](StoreConfig::batch) | unbatched | Batching/pipelining knob forwarded to every shard group. |
/// | [`net`](StoreConfig::net) | LAN | Network profile of every shard group. |
/// | [`buggy_early_writes`](StoreConfig::buggy_early_writes) | off | Inject the early-dissemination coordinator bug. |
/// | [`durable`](StoreConfig::durable) | off | Durable shard storage: `(snapshot_threshold, disk model)`. |
/// | [`backend`](StoreConfig::backend) | 2PC-over-consensus | Default commitment protocol for generated transactions. |
/// | [`txn_backend`](StoreConfig::txn_backend) | — | Per-transaction backend override `(router, txn_number, backend)`. |
/// | [`geo`](StoreConfig::geo) | off | WAN regions, shard placement, and the fast geo read path. |
///
/// A generated transaction spans at most [`MAX_SPAN`] shards. The master
/// `seed` is [`StoreConfig::new`]'s argument.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of shards = consensus groups.
    pub n_shards: usize,
    /// Replicas per consensus group.
    pub replicas_per_shard: usize,
    /// Number of router clients.
    pub n_routers: usize,
    /// Cross-shard transactions each router issues.
    pub txns_per_router: usize,
    /// Single-key operations each router issues.
    pub singles_per_router: usize,
    /// Range scans each router issues (after its txns/singles, so the
    /// default of 0 leaves historical workloads bit-identical).
    pub ranges_per_router: usize,
    /// Data keys per shard in the workload pool.
    pub keys_per_shard: usize,
    /// Batching/pipelining knob forwarded to every shard group.
    pub batch: BatchConfig,
    /// Network profile of every shard group.
    pub net: NetConfig,
    /// Master seed; shard groups and routers derive their own.
    pub seed: u64,
    /// Inject the early-dissemination bug (see module docs).
    pub buggy_early_writes: bool,
    /// Durable shard storage: `(snapshot_threshold, disk model)`. When set,
    /// every shard group that supports it persists its state through the
    /// durable engine behind [`consensus_core::durable::Disk`] — 2PC
    /// prepare/decision records become WAL entries that are durable *before*
    /// the acks that release them, and replica recovery is a real
    /// WAL-replay + snapshot-load. `None` keeps the historical
    /// RAM-durability model.
    pub durability: Option<(usize, DiskModel)>,
    /// Commitment protocol generated transactions run (overridable
    /// per-transaction via [`StoreConfig::txn_backend`]).
    pub backend: CommitBackend,
    /// Per-transaction backend overrides `(router, txn_number, backend)`,
    /// applied to the generated workload at build time.
    pub backend_overrides: Vec<(usize, u64, CommitBackend)>,
    /// Geo deployment: WAN topology, shard placement, leases, and the
    /// region-local fast read path. `None` keeps the single-datacenter
    /// store bit-identical to its historical behavior.
    pub geo: Option<GeoConfig>,
}

impl StoreConfig {
    /// The canonical small store — 3 shards × 3 replicas, 2 routers — that
    /// every builder method refines.
    pub fn new(seed: u64) -> Self {
        StoreConfig {
            n_shards: 3,
            replicas_per_shard: 3,
            n_routers: 2,
            txns_per_router: 3,
            singles_per_router: 2,
            ranges_per_router: 0,
            keys_per_shard: 4,
            batch: BatchConfig::unbatched(),
            net: NetConfig::lan(),
            seed,
            buggy_early_writes: false,
            durability: None,
            backend: CommitBackend::TwoPhaseOverConsensus,
            backend_overrides: Vec::new(),
            geo: None,
        }
    }

    /// The same store with `n` shards.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.n_shards = n;
        self
    }

    /// The same store with `n` replicas per shard.
    #[must_use]
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas_per_shard = n;
        self
    }

    /// The same store with `n` routers.
    #[must_use]
    pub fn routers(mut self, n: usize) -> Self {
        self.n_routers = n;
        self
    }

    /// The same store with `n` cross-shard transactions per router.
    #[must_use]
    pub fn txns_per_router(mut self, n: usize) -> Self {
        self.txns_per_router = n;
        self
    }

    /// The same store with `n` single-key operations per router.
    #[must_use]
    pub fn singles_per_router(mut self, n: usize) -> Self {
        self.singles_per_router = n;
        self
    }

    /// The same store with `n` range scans per router (issued after the
    /// router's transactions and singles).
    #[must_use]
    pub fn ranges_per_router(mut self, n: usize) -> Self {
        self.ranges_per_router = n;
        self
    }

    /// The same store with a different workload key-pool size per shard.
    #[must_use]
    pub fn keys_per_shard(mut self, n: usize) -> Self {
        self.keys_per_shard = n;
        self
    }

    /// The same store with a batching/pipelining knob on every shard.
    #[must_use]
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// The same store with a different network profile on every shard.
    #[must_use]
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// The same store with the early-dissemination coordinator bug
    /// injected (see the module docs).
    #[must_use]
    pub fn buggy_early_writes(mut self, on: bool) -> Self {
        self.buggy_early_writes = on;
        self
    }

    /// The same store with durable shard storage enabled.
    #[must_use]
    pub fn durable(mut self, snapshot_threshold: usize, disk: DiskModel) -> Self {
        self.durability = Some((snapshot_threshold, disk));
        self
    }

    /// The same store with a different default commit backend.
    #[must_use]
    pub fn backend(mut self, backend: CommitBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The same store with router `router`'s transaction number
    /// `txn_number` running `backend` instead of the default. Panics at
    /// build time if that transaction does not exist in the generated
    /// workload.
    #[must_use]
    pub fn txn_backend(mut self, router: usize, txn_number: u64, backend: CommitBackend) -> Self {
        self.backend_overrides.push((router, txn_number, backend));
        self
    }

    /// The same store deployed across WAN regions: installs the topology
    /// into every shard group's network, computes and serializes the shard
    /// placement, homes router `r` in region `r mod n_regions`, and appends
    /// each router's fast-path geo reads to its workload.
    #[must_use]
    pub fn geo(mut self, geo: GeoConfig) -> Self {
        self.geo = Some(geo);
        self
    }
}
