//! Zyzzyva: speculative Byzantine fault tolerance (Kotla et al., SOSP '07).
//!
//! Replicas *speculatively* execute requests as soon as they receive the
//! primary's ordering, without running agreement first; **commitment moves
//! to the client**:
//!
//! * **Case 1** — the client receives `3f+1` matching speculative replies:
//!   all replicas executed in the same total order; the request completes
//!   in 3 one-way delays (request → order-req → spec-response).
//! * **Case 2** — the client receives only `2f+1 ≤ k ≤ 3f` matching
//!   replies (e.g. a backup crashed): it assembles a **commit certificate**
//!   (the list of `2f+1` replica ids and their signed responses), sends it
//!   to all replicas, and completes on `2f+1` local-commit acks.
//!
//! Prepare and commit collapse into a single speculative phase — `O(N)`
//! messages — at the price of an extra round in the view change (which the
//! tutorial notes but does not detail; this implementation covers the
//! agreement protocol and detects the unhappy path by client timeout).

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::{
    ClientMsg, Cluster, Command, DedupKvMachine, Envelope, KvCommand, KvResponse, Session,
    SmrProtocol, WorkloadClient,
};
use simnet::{CncPhase, Context, Node, NodeId, Timer};

/// Span protocol label; instances are sequence numbers, rounds are views.
const SPAN: &str = "zyzzyva";

use crate::shell::{decided_commands, in_flight, peers, replica_ids, Executor};
use crate::sim_crypto::{digest_of, Digest};

/// Zyzzyva's own messages: between replicas, and between replicas and the
/// client, which is the protocol's commitment point.
#[derive(Clone, Debug)]
pub enum ZyzMsg {
    /// Primary → replicas: ordered request with history digest.
    OrderReq {
        /// View.
        view: u64,
        /// Sequence number.
        n: u64,
        /// History digest after this request.
        hist: Digest,
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Replica → client: speculative execution response.
    SpecResponse {
        /// View.
        view: u64,
        /// Sequence number.
        n: u64,
        /// History digest the replica's log reached.
        hist: Digest,
        /// Client id.
        client: u32,
        /// Client sequence.
        seq: u64,
        /// Execution output.
        output: KvResponse,
    },
    /// Client → replicas: commit certificate (case 2).
    CommitCert {
        /// View.
        view: u64,
        /// Sequence number being committed.
        n: u64,
        /// Certified history digest.
        hist: Digest,
        /// The `2f+1` replicas whose matching responses form the
        /// certificate.
        signers: BTreeSet<NodeId>,
    },
    /// Replica → client: acknowledgement of a commit certificate.
    LocalCommit {
        /// View.
        view: u64,
        /// Sequence number.
        n: u64,
    },
}

impl simnet::Payload for ZyzMsg {
    fn kind(&self) -> &'static str {
        match self {
            ZyzMsg::OrderReq { .. } => "order-req",
            ZyzMsg::SpecResponse { .. } => "spec-response",
            ZyzMsg::CommitCert { .. } => "commit-cert",
            ZyzMsg::LocalCommit { .. } => "local-commit",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| {
            if let ZyzMsg::OrderReq { cmd, .. } = self {
                put_command(w, cmd);
            }
        })
    }
}

/// The Zyzzyva wire: client messages beside [`ZyzMsg`].
type Wire = Envelope<ZyzMsg>;

/// A Zyzzyva replica (node 0 is the primary).
pub struct ZyzReplica {
    n_replicas: usize,
    /// Fault bound.
    pub f: usize,
    view: u64,
    /// Primary-only: next sequence number.
    next_seq: u64,
    /// Buffered order-reqs awaiting in-order execution.
    pending: BTreeMap<u64, (Digest, Command<KvCommand>)>,
    /// The machine, the speculatively executed commands in order, and the
    /// highest speculatively executed sequence number.
    pub exec: Executor,
    /// Highest sequence number covered by a commit certificate.
    pub committed_upto: u64,
    /// Rolling history digest.
    pub history: Digest,
    /// Per-sequence history digests (to validate commit certs).
    hist_at: BTreeMap<u64, Digest>,
}

impl ZyzReplica {
    /// Creates a replica in a cluster of `3f+1`.
    pub fn new(n_replicas: usize) -> Self {
        ZyzReplica {
            n_replicas,
            f: (n_replicas - 1) / 3,
            view: 0,
            next_seq: 0,
            pending: BTreeMap::new(),
            exec: Executor::default(),
            committed_upto: 0,
            history: Digest(0),
            hist_at: BTreeMap::new(),
        }
    }

    fn primary(&self) -> NodeId {
        NodeId((self.view % self.n_replicas as u64) as u32)
    }

    fn chain(prev: Digest, cmd: &Command<KvCommand>) -> Digest {
        Digest(prev.0.rotate_left(13).wrapping_add(digest_of(cmd).0))
    }

    fn spec_response(&self, cmd: &Command<KvCommand>, output: KvResponse) -> ZyzMsg {
        ZyzMsg::SpecResponse {
            view: self.view,
            n: self.exec.executed_upto,
            hist: self.history,
            client: cmd.client,
            seq: cmd.seq,
            output,
        }
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, cmd: Command<KvCommand>) {
        let me = ctx.id();
        if self.primary() != me {
            ctx.send(self.primary(), Envelope::request(cmd));
            return;
        }
        // Dedup executed requests — their speculative response again — then
        // ordered ones.
        if let Some(out) = self.exec.machine().cached(cmd.client, cmd.seq) {
            let response = self.spec_response(&cmd, out.clone());
            ctx.send(NodeId(cmd.client), response.into());
            return;
        }
        if in_flight(&cmd, self.pending.values().map(|(_, c)| c)) {
            return;
        }
        self.next_seq = self.next_seq.max(self.exec.executed_upto);
        self.next_seq += 1;
        let n = self.next_seq;
        // History digest the request must extend (chained through
        // any still-pending predecessors).
        let mut hist = self.history;
        for i in self.exec.executed_upto + 1..n {
            if let Some((h, _)) = self.pending.get(&i) {
                hist = *h;
            }
        }
        let hist = Self::chain(hist, &cmd);
        let view = self.view;
        ctx.span_open(SPAN, n, view);
        ctx.phase(SPAN, n, view, CncPhase::ValueDiscovery);
        self.pending.insert(n, (hist, cmd.clone()));
        let order = ZyzMsg::OrderReq { view, n, hist, cmd };
        ctx.send_many(peers(self.n_replicas, me), order.into());
        self.drain_executable(ctx);
    }

    fn drain_executable(&mut self, ctx: &mut Context<Wire>) {
        while let Some((hist, cmd)) = self.pending.remove(&(self.exec.executed_upto + 1)) {
            let n = self.exec.executed_upto + 1;
            let expected = Self::chain(self.history, &cmd);
            if expected != hist {
                // Corrupt ordering: refuse to execute further. (A full
                // implementation would trigger a view change here.)
                self.pending.insert(n, (hist, cmd));
                return;
            }
            // Speculative execution collapses agreement and decision into
            // one optimistic step; the client is the real commitment point.
            ctx.phase(SPAN, n, self.view, CncPhase::Agreement);
            ctx.phase(SPAN, n, self.view, CncPhase::Decision);
            ctx.span_close(SPAN, n, self.view);
            let output = self.exec.apply(&cmd);
            self.history = expected;
            self.hist_at.insert(n, expected);
            self.exec.executed_upto = n;
            ctx.send(NodeId(cmd.client), self.spec_response(&cmd, output).into());
        }
    }
}

impl Node for ZyzReplica {
    type Msg = Wire;

    fn on_start(&mut self, _ctx: &mut Context<Wire>) {}

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(ClientMsg::Request(cmd)) => return self.on_request(ctx, cmd),
            Envelope::Client(_) => return,
        };
        match msg {
            ZyzMsg::OrderReq { view, n, hist, cmd } => {
                if view != self.view || from != self.primary() {
                    return;
                }
                if n <= self.exec.executed_upto {
                    return;
                }
                self.pending.insert(n, (hist, cmd));
                self.drain_executable(ctx);
            }

            ZyzMsg::CommitCert {
                view,
                n,
                hist,
                signers,
            } => {
                if view != self.view || signers.len() < 2 * self.f + 1 {
                    return;
                }
                if self.hist_at.get(&n) == Some(&hist) {
                    self.committed_upto = self.committed_upto.max(n);
                    ctx.send(from, ZyzMsg::LocalCommit { view, n }.into());
                }
            }

            ZyzMsg::SpecResponse { .. } | ZyzMsg::LocalCommit { .. } => {}
        }
    }
}

const CLIENT_COMMIT_TIMER: u64 = 1;
const CLIENT_RETRY: u64 = 2;

/// Where the outstanding request stands.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ReqPhase {
    AwaitingSpec,
    /// A commit certificate for sequence `n` is out; `output` is what its
    /// signers reported.
    AwaitingLocalCommit {
        n: u64,
        output: KvResponse,
    },
}

/// A Zyzzyva client: the commitment point of the protocol, which is why it
/// is not a [`crate::shell::VotingClient`]. Closed loop only — the
/// speculative votes and the commit certificate belong to the one
/// outstanding request.
pub struct ZyzClient {
    /// The workload and its records.
    pub session: Session,
    n_replicas: usize,
    f: usize,
    /// Requests completed via the fast path (case 1).
    pub fast_path: usize,
    /// Requests completed via a commit certificate (case 2).
    pub cert_path: usize,
    phase: ReqPhase,
    /// Spec-response votes for the outstanding request, keyed by
    /// `(n, history, output digest)`: the output and who reported it.
    votes: BTreeMap<(u64, Digest, u64), (KvResponse, BTreeSet<NodeId>)>,
    local_commits: BTreeSet<NodeId>,
}

impl ZyzClient {
    fn send_next(&mut self, ctx: &mut Context<Wire>) {
        let Some(cmd) = self.session.issue(ctx.now()) else {
            return;
        };
        self.phase = ReqPhase::AwaitingSpec;
        self.votes.clear();
        self.local_commits.clear();
        ctx.send(NodeId(0), Envelope::request(cmd));
        // If 3f+1 matching responses don't arrive promptly, fall back to
        // the commit-certificate path.
        ctx.set_timer(10_000, CLIENT_COMMIT_TIMER);
        ctx.set_timer(300_000, CLIENT_RETRY);
    }

    fn complete(&mut self, ctx: &mut Context<Wire>, seq: u64, output: KvResponse, fast: bool) {
        self.session.complete(seq, output, ctx.now());
        if fast {
            self.fast_path += 1;
        } else {
            self.cert_path += 1;
        }
        self.send_next(ctx);
    }
}

impl WorkloadClient for ZyzClient {
    fn session(&self) -> &Session {
        &self.session
    }
}

impl Node for ZyzClient {
    type Msg = Wire;

    fn on_start(&mut self, ctx: &mut Context<Wire>) {
        self.send_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let Envelope::Peer(msg) = msg else {
            return;
        };
        match msg {
            ZyzMsg::SpecResponse {
                n,
                hist,
                seq,
                output,
                ..
            } => {
                if !self.session.is_outstanding(seq) || self.phase != ReqPhase::AwaitingSpec {
                    return;
                }
                let key = (n, hist, digest_of(&output).0);
                let (_, voters) = self
                    .votes
                    .entry(key)
                    .or_insert_with(|| (output.clone(), BTreeSet::new()));
                voters.insert(from);
                if voters.len() >= self.n_replicas {
                    // Case 1: 3f+1 matching replies.
                    self.complete(ctx, seq, output, true);
                }
            }
            ZyzMsg::LocalCommit { n, .. } => {
                let Some(seq) = self.session.outstanding().next().map(|cmd| cmd.seq) else {
                    return;
                };
                if let ReqPhase::AwaitingLocalCommit { n: want, output } = &self.phase {
                    if *want == n {
                        self.local_commits.insert(from);
                        if self.local_commits.len() >= 2 * self.f + 1 {
                            let output = output.clone();
                            self.complete(ctx, seq, output, false);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        match timer.kind {
            CLIENT_COMMIT_TIMER => {
                if !self.session.has_outstanding() || self.phase != ReqPhase::AwaitingSpec {
                    return;
                }
                // Case 2: 2f+1 ≤ matching < 3f+1 → send a commit
                // certificate.
                let best = self.votes.iter().max_by_key(|(_, (_, s))| s.len());
                if let Some((&(n, hist, _), (output, signers))) = best {
                    if signers.len() >= 2 * self.f + 1 {
                        let cert = ZyzMsg::CommitCert {
                            view: 0,
                            n,
                            hist,
                            signers: signers.clone(),
                        };
                        self.phase = ReqPhase::AwaitingLocalCommit {
                            n,
                            output: output.clone(),
                        };
                        ctx.send_many(replica_ids(self.n_replicas), cert.into());
                        return;
                    }
                }
                // Not enough yet: re-check shortly.
                ctx.set_timer(10_000, CLIENT_COMMIT_TIMER);
            }
            CLIENT_RETRY if self.session.has_outstanding() => {
                for cmd in self.session.outstanding() {
                    let request = Envelope::request(cmd.clone());
                    ctx.send_many(replica_ids(self.n_replicas), request);
                }
                ctx.set_timer(300_000, CLIENT_RETRY);
            }
            _ => {}
        }
    }
}

/// Zyzzyva as a log protocol of the SMR shell.
pub struct Zyzzyva;

impl SmrProtocol for Zyzzyva {
    const NAME: &'static str = "zyzzyva";
    type Shape = usize;
    type Peer = ZyzMsg;
    type Replica = ZyzReplica;
    type Client = ZyzClient;

    /// One request per sequence number: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> ZyzReplica {
        ZyzReplica::new(n_replicas)
    }

    fn client(n_replicas: usize, session: Session) -> ZyzClient {
        ZyzClient {
            session,
            n_replicas,
            f: (n_replicas - 1) / 3,
            fast_path: 0,
            cert_path: 0,
            phase: ReqPhase::AwaitingSpec,
            votes: BTreeMap::new(),
            local_commits: BTreeSet::new(),
        }
    }

    fn is_leader(replica: &ZyzReplica, id: NodeId) -> bool {
        replica.primary() == id
    }

    /// Speculative execution *is* application: the frontier is the
    /// executor's, not the certified `committed_upto`.
    fn applied_len(replica: &ZyzReplica) -> u64 {
        replica.exec.executed_upto
    }

    fn machine(replica: &ZyzReplica) -> &DedupKvMachine {
        replica.exec.machine()
    }

    fn decided(replica: &ZyzReplica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_commands(replica.exec.history(), node, out);
    }
}

/// A ready-to-run Zyzzyva cluster (`3f+1` replicas, node 0 the primary).
pub type ZyzCluster = Cluster<Zyzzyva>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;
    use simnet::{DelayModel, NetConfig, Time};

    fn fixed_net() -> NetConfig {
        NetConfig::synchronous().with_delay(DelayModel::Fixed(500))
    }

    #[test]
    fn fault_free_takes_fast_path() {
        let mut cluster = ZyzCluster::new(4, 1, 10, fixed_net(), 1);
        assert!(cluster.run(Time::from_secs(10)));
        let c = cluster.clients().next().unwrap();
        assert_eq!(c.session.completed, 10);
        assert_eq!(c.fast_path, 10, "all requests on case 1");
        assert_eq!(c.cert_path, 0);
    }

    #[test]
    fn fast_path_is_three_delays() {
        let mut cluster = ZyzCluster::new(4, 1, 1, fixed_net(), 2);
        assert!(cluster.run(Time::from_secs(10)));
        // request (500) + order-req (500) + spec-response (500) = 1500.
        assert_eq!(cluster.latencies().min(), 1_500);
    }

    #[test]
    fn crashed_backup_forces_commit_certificate() {
        let mut cluster = ZyzCluster::new(4, 1, 5, fixed_net(), 3);
        cluster.sim.crash_at(NodeId(3), Time::ZERO);
        assert!(cluster.run(Time::from_secs(30)));
        let c = cluster.clients().next().unwrap();
        assert_eq!(c.session.completed, 5);
        assert_eq!(c.cert_path, 5, "all requests need case 2");
        for (i, r) in cluster.replicas().enumerate() {
            if cluster.sim.is_alive(NodeId::from(i)) {
                assert!(r.committed_upto >= 5, "replica {i}: {}", r.committed_upto);
            }
        }
    }

    #[test]
    fn linear_message_complexity() {
        // Per request (fault-free): 1 request + (n−1) order-reqs + n
        // spec-responses: linear in n.
        for n in [4usize, 7] {
            let mut cluster = ZyzCluster::new(n, 1, 10, fixed_net(), 4);
            assert!(cluster.run(Time::from_secs(10)));
            let per_req = cluster.sim.metrics().sent as f64 / 10.0;
            let expected = 1.0 + (n as f64 - 1.0) + n as f64;
            assert!(
                (per_req - expected).abs() < 1.0,
                "n={n}: {per_req} vs {expected}"
            );
        }
    }

    #[test]
    fn replicas_stay_consistent() {
        let mut cluster = ZyzCluster::new(4, 1, 20, NetConfig::lan(), 5);
        assert!(cluster.run(Time::from_secs(10)));
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.exec.executed_upto >= 20)
            .map(|r| r.exec.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1, "speculative execution diverged");
    }

    #[test]
    fn corrupted_order_req_stalls_instead_of_diverging() {
        // The primary sends a wrong history digest to one backup: that
        // backup refuses to execute (no divergence), the rest proceed; the
        // client still completes via case 2.
        use simnet::{FilterAction, FnFilter};
        let mut cluster = ZyzCluster::new(4, 1, 3, fixed_net(), 6);
        cluster.sim.set_filter(
            NodeId(0),
            Box::new(FnFilter(
                |_f, to: NodeId, msg: &Wire, _r: &mut rand_chacha::ChaCha20Rng| {
                    if to == NodeId(3) {
                        if let Envelope::Peer(ZyzMsg::OrderReq { view, n, cmd, .. }) = msg {
                            let forged = ZyzMsg::OrderReq {
                                view: *view,
                                n: *n,
                                hist: Digest(0xDEAD),
                                cmd: cmd.clone(),
                            };
                            return FilterAction::Replace(forged.into());
                        }
                    }
                    FilterAction::Deliver
                },
            )),
        );
        assert!(cluster.run(Time::from_secs(30)));
        let c = cluster.clients().next().unwrap();
        assert_eq!(c.session.completed, 3);
        assert!(c.cert_path > 0, "case 2 must fire");
        // The lied-to backup executed nothing.
        let stalled = cluster
            .replicas()
            .filter(|r| r.exec.executed_upto == 0)
            .count();
        assert_eq!(stalled, 1);
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = ZyzCluster::new(4, 1, 5, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(10));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(7), run(7));
    }
}
