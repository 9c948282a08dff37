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

use consensus_core::client::ACCEPT_TIMER;
use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::BatchConfig;
use consensus_core::{
    Accept, Answer, Client, ClientMsg, Cluster, Command, DedupKvMachine, Envelope, Harvest,
    KvCommand, KvResponse, Session, Silence, SmrProtocol, Target,
};
use simnet::{CncPhase, Context, Node, NodeId};

/// Span protocol label; instances are sequence numbers, rounds are views.
const SPAN: &str = "zyzzyva";

use crate::shell::{in_flight, peers, replica_ids, Executor};
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

/// Timer kind of the commit-certificate check.
const COMMIT_TIMER: u64 = ACCEPT_TIMER;

/// How long the client waits for `3f+1` matching speculative responses
/// before it falls back to a commit certificate, and between re-checks (µs).
const COMMIT_US: u64 = 10_000;

/// Where the outstanding request stands.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum ReqPhase {
    #[default]
    AwaitingSpec,
    /// A commit certificate for sequence `n` is out; `output` is what its
    /// signers reported.
    AwaitingLocalCommit { n: u64, output: KvResponse },
}

/// Zyzzyva's acceptance policy. The client is the protocol's commitment
/// point, so this policy takes part in agreement: it completes a request on
/// `3f+1` matching speculative responses (case 1), or else sends a commit
/// certificate once `2f+1` match and completes on `2f+1` local-commit acks
/// (case 2). The votes and the certificate belong to the one outstanding
/// request.
#[derive(Default)]
pub struct Speculative {
    n_replicas: usize,
    /// `2f+1`: the matching responses a certificate needs, and the
    /// local-commit acks that complete it.
    quorum: usize,
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

impl Accept<ZyzMsg> for Speculative {
    /// Replicas answer with speculative responses, never a plain reply.
    fn on_reply(&mut self, _seq: u64, _output: &KvResponse, _from: NodeId) -> bool {
        false
    }

    fn on_issue(&mut self, ctx: &mut Context<Wire>) {
        self.phase = ReqPhase::AwaitingSpec;
        self.votes.clear();
        self.local_commits.clear();
        ctx.set_timer(COMMIT_US, COMMIT_TIMER);
    }

    fn on_peer(&mut self, session: &Session, from: NodeId, msg: ZyzMsg) -> Option<Answer> {
        match msg {
            ZyzMsg::SpecResponse {
                n,
                hist,
                seq,
                output,
                ..
            } => {
                if !session.is_outstanding(seq) || self.phase != ReqPhase::AwaitingSpec {
                    return None;
                }
                let key = (n, hist, digest_of(&output).0);
                let (_, voters) = self
                    .votes
                    .entry(key)
                    .or_insert_with(|| (output.clone(), BTreeSet::new()));
                voters.insert(from);
                if voters.len() < self.n_replicas {
                    return None;
                }
                // Case 1: 3f+1 matching replies.
                self.fast_path += 1;
                Some((seq, output))
            }
            ZyzMsg::LocalCommit { n, .. } => {
                let seq = session.outstanding().next()?.seq;
                match &self.phase {
                    ReqPhase::AwaitingLocalCommit { n: want, output } if *want == n => {
                        self.local_commits.insert(from);
                        if self.local_commits.len() < self.quorum {
                            return None;
                        }
                        self.cert_path += 1;
                        Some((seq, output.clone()))
                    }
                    _ => None,
                }
            }
            ZyzMsg::OrderReq { .. } | ZyzMsg::CommitCert { .. } => None,
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, session: &Session) {
        if !session.has_outstanding() || self.phase != ReqPhase::AwaitingSpec {
            return;
        }
        // Case 2: 2f+1 ≤ matching < 3f+1 → send a commit certificate.
        let best = self.votes.iter().max_by_key(|(_, (_, s))| s.len());
        if let Some((&(n, hist, _), (output, signers))) = best {
            if signers.len() >= self.quorum {
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
        ctx.set_timer(COMMIT_US, COMMIT_TIMER);
    }
}

/// Zyzzyva as a log protocol of the SMR shell.
pub struct Zyzzyva;

impl SmrProtocol for Zyzzyva {
    const NAME: &'static str = "zyzzyva";
    type Shape = usize;
    type Peer = ZyzMsg;
    type Replica = ZyzReplica;
    type Accept = Speculative;

    /// One request per sequence number: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> ZyzReplica {
        ZyzReplica::new(n_replicas)
    }

    /// The speculative policy holds one request's votes, so a client runs
    /// one request at a time: a closed loop with a window of one.
    fn client(n: usize, session: Session) -> Client<ZyzMsg, Speculative> {
        assert!(
            session.is_closed_loop() && session.window() == 1,
            "a Zyzzyva client runs one request at a time"
        );
        let accept = Speculative {
            n_replicas: n,
            quorum: 2 * ((n - 1) / 3) + 1,
            ..Speculative::default()
        };
        let silence = Silence::Broadcast(300_000, None);
        Client::new(session, n, Target::Primary(NodeId(0)), silence, accept)
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

    fn decided(replica: &ZyzReplica, node: u32, out: &mut Harvest) {
        out.commands(node, replica.exec.history());
    }
}

/// A ready-to-run Zyzzyva cluster (`3f+1` replicas, node 0 the primary).
pub type ZyzCluster = Cluster<Zyzzyva>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::workload::KvMix;
    use consensus_core::{StateMachine as _, WorkloadMode};
    use simnet::{DelayModel, NetConfig, Time};

    fn fixed_net() -> NetConfig {
        NetConfig::synchronous().with_delay(DelayModel::Fixed(500))
    }

    /// Zyzzyva's rows of the acceptance decision table (the rows of every
    /// `Quorum` policy are in `consensus_core::client`): `3f+1` matching
    /// speculative responses complete a request at once; else `2f+1`
    /// matching ones put a commit certificate out when the commit timer
    /// fires, and `2f+1` local commits for its sequence complete it.
    #[test]
    fn speculative_acceptance_decision_table() {
        use crate::shell::testkit::{client, received, sim};

        // (each replica's speculative output for `seq` — `-` for none —,
        // `seq`, local commits as (replier, n), certificate sent?, completed
        // by).
        type Row = (
            &'static str,
            u64,
            &'static [(u32, u64)],
            bool,
            Option<&'static str>,
        );
        let commits_1: &[(u32, u64)] = &[(0, 1), (1, 1), (2, 1)];
        let table: [Row; 8] = [
            ("aaaa", 0, &[], false, Some("fast")),
            ("aaab", 0, &[], true, None),
            ("aaab", 0, commits_1, true, Some("cert")),
            ("aaa-", 0, &[(0, 1), (1, 1)], true, None),
            ("aaa-", 0, &[(0, 1), (1, 1), (1, 1)], true, None),
            ("aaa-", 0, &[(0, 2), (1, 2), (2, 2)], true, None),
            ("aa-b", 0, commits_1, false, None),
            ("aaaa", 7, &[], false, None),
        ];
        for (outputs, seq, commits, cert, completed) in table {
            let mut sim = sim(4, 1, WorkloadMode::Closed, |s| Zyzzyva::client(4, s));
            for (from, out) in outputs.chars().enumerate().filter(|(_, o)| *o != '-') {
                let output = KvResponse::Value(Some(out.to_string().into()));
                let spec = ZyzMsg::SpecResponse {
                    view: 0,
                    n: 1,
                    hist: Digest(1),
                    client: 4,
                    seq,
                    output,
                };
                let at = Time(1_000 + from as u64);
                sim.inject(NodeId::from(from), NodeId(4), spec.into(), at);
            }
            // The commit timer fires at 10 ms; local commits follow.
            for (i, &(from, n)) in commits.iter().enumerate() {
                let ack = ZyzMsg::LocalCommit { view: 0, n };
                sim.inject(NodeId(from), NodeId(4), ack.into(), Time(20_000 + i as u64));
            }
            sim.run_until(Time(40_000));
            let row = format!("{outputs} seq {seq} {commits:?}");
            let certified =
                |m: &(u64, Wire)| matches!(m.1, Envelope::Peer(ZyzMsg::CommitCert { .. }));
            assert_eq!(received(&sim, 1).iter().any(certified), cert, "{row}");
            let c = client(&sim);
            let by = match (c.accept.fast_path, c.accept.cert_path) {
                (1, 0) => Some("fast"),
                (0, 1) => Some("cert"),
                _ => None,
            };
            assert_eq!(
                (c.session.done(), by),
                (completed.is_some(), completed),
                "{row}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one request at a time")]
    fn a_client_refuses_more_than_one_request_in_flight() {
        let open = WorkloadMode::Open { interval_us: 1_000 };
        let session = Session::new(4, 3, KvMix::default(), 1, open);
        Zyzzyva::client(4, session);
    }

    #[test]
    fn fault_free_takes_fast_path() {
        let mut cluster = ZyzCluster::new(4, 1, 10, fixed_net(), 1);
        assert!(cluster.run(Time::from_secs(10)));
        let c = cluster.clients().next().unwrap();
        assert_eq!(c.session.completed, 10);
        assert_eq!(c.accept.fast_path, 10, "all requests on case 1");
        assert_eq!(c.accept.cert_path, 0);
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
        assert_eq!(c.accept.cert_path, 5, "all requests need case 2");
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
        assert!(c.accept.cert_path > 0, "case 2 must fire");
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
