//! XFT / XPaxos (Liu et al., OSDI '16): cross fault tolerance.
//!
//! XFT tolerates Byzantine faults with only `2f+1` replicas by excluding
//! one corner case: **anarchy** — the simultaneous combination of machine
//! *and* network faults. Three fault kinds are counted:
//!
//! * `c` — crashed replicas,
//! * `m` — non-crash (Byzantine) replicas,
//! * `p` — correct but *partitioned* replicas (not in the largest subset
//!   that communicates within the bound `Δ`).
//!
//! The system is **in anarchy** at time `s` iff `m(s) > 0` and
//! `c(s) + m(s) + p(s) > ⌊(n−1)/2⌋`. XFT guarantees safety in every
//! execution that is never in anarchy ([`is_anarchy`]).
//!
//! XPaxos (the agreement protocol) optimistically replicates on a
//! **synchronous group** of just `f+1` replicas; a fault inside the group
//! triggers a view change that reconfigures the *entire* group.

use std::collections::{BTreeMap, BTreeSet};

use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::{
    Cluster, Command, DedupKvMachine, KvCommand, KvResponse, Session, SmrProtocol,
};
use simnet::{CncPhase, Context, Node, NodeId, Timer, TimerId};

/// Span protocol label; instances are sequence numbers, rounds are views.
const SPAN: &str = "xft";

use crate::shell::{decided_commands, VoteWire, VotingClient};
use crate::sim_crypto::digest_of;

/// The anarchy predicate from the slides: `m(s) > 0` **and**
/// `c(s) + m(s) + p(s) > ⌊(n−1)/2⌋`.
pub fn is_anarchy(c: usize, m: usize, p: usize, n: usize) -> bool {
    m > 0 && c + m + p > (n - 1) / 2
}

/// XPaxos wire messages.
#[derive(Clone, Debug)]
pub enum XftMsg {
    /// Client request.
    Request {
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Reply (client waits for the whole synchronous group: `f+1`).
    Reply {
        /// Client id.
        client: u32,
        /// Client sequence.
        seq: u64,
        /// Output.
        output: KvResponse,
    },
    /// Primary → synchronous-group followers.
    Prepare {
        /// View (determines the synchronous group).
        view: u64,
        /// Sequence number.
        n: u64,
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Follower → all group members.
    Commit {
        /// View.
        view: u64,
        /// Sequence.
        n: u64,
        /// Digest of the command.
        digest: u64,
    },
    /// Lazy replication to passive (non-group) replicas.
    Update {
        /// Sequence.
        n: u64,
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// View-change demand.
    ViewChange {
        /// Proposed view.
        new_view: u64,
    },
    /// New-view installation with state transfer.
    NewView {
        /// The view.
        view: u64,
        /// Executed history of the new primary.
        history: Vec<Command<KvCommand>>,
    },
}

impl simnet::Payload for XftMsg {
    fn kind(&self) -> &'static str {
        match self {
            XftMsg::Request { .. } => "request",
            XftMsg::Reply { .. } => "reply",
            XftMsg::Prepare { .. } => "prepare",
            XftMsg::Commit { .. } => "commit",
            XftMsg::Update { .. } => "update",
            XftMsg::ViewChange { .. } => "view-change",
            XftMsg::NewView { .. } => "new-view",
        }
    }
}

#[derive(Debug, Default)]
struct XftInstance {
    cmd: Option<Command<KvCommand>>,
    endorsements: BTreeSet<NodeId>,
    executed: bool,
}

const VIEW_TIMER: u64 = 1;

/// An XPaxos replica.
pub struct XftReplica {
    n_replicas: usize,
    /// Fault bound `f = ⌊(n−1)/2⌋`.
    pub f: usize,
    /// Current view.
    pub view: u64,
    next_seq: u64,
    instances: BTreeMap<u64, XftInstance>,
    /// Executed history.
    history: Vec<Command<KvCommand>>,
    /// Executed prefix.
    pub executed_upto: u64,
    machine: DedupKvMachine,
    pending_requests: BTreeSet<(u32, u64)>,
    view_timer: Option<TimerId>,
    vc_votes: BTreeMap<u64, BTreeSet<NodeId>>,
    max_vc_sent: u64,
    /// View changes completed.
    pub view_changes: u64,
}

impl XftReplica {
    /// Creates a replica for a `2f+1` cluster.
    pub fn new(n_replicas: usize) -> Self {
        XftReplica {
            n_replicas,
            f: (n_replicas - 1) / 2,
            view: 0,
            next_seq: 0,
            instances: BTreeMap::new(),
            history: Vec::new(),
            executed_upto: 0,
            machine: DedupKvMachine::default(),
            pending_requests: BTreeSet::new(),
            view_timer: None,
            vc_votes: BTreeMap::new(),
            max_vc_sent: 0,
            view_changes: 0,
        }
    }

    /// The machine.
    pub fn machine(&self) -> &DedupKvMachine {
        &self.machine
    }

    fn peer_replicas(&self, me: NodeId) -> Vec<NodeId> {
        (0..self.n_replicas)
            .map(NodeId::from)
            .filter(|id| *id != me)
            .collect()
    }

    /// The synchronous group of view `v`: `f+1` consecutive replicas
    /// starting at the primary `v mod n`.
    pub fn sync_group(&self, v: u64) -> Vec<NodeId> {
        (0..=self.f)
            .map(|k| NodeId(((v + k as u64) % self.n_replicas as u64) as u32))
            .collect()
    }

    /// The primary of view `v`.
    pub fn primary_of(&self, v: u64) -> NodeId {
        NodeId((v % self.n_replicas as u64) as u32)
    }

    fn in_group(&self, id: NodeId) -> bool {
        self.sync_group(self.view).contains(&id)
    }

    fn arm_view_timer(&mut self, ctx: &mut Context<XftMsg>) {
        if self.view_timer.is_none() {
            let timeout = 60_000 + 10_000 * u64::from(ctx.id().0);
            self.view_timer = Some(ctx.set_timer(timeout, VIEW_TIMER));
        }
    }

    fn disarm_view_timer(&mut self, ctx: &mut Context<XftMsg>) {
        if let Some(t) = self.view_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    fn try_execute(&mut self, ctx: &mut Context<XftMsg>) {
        let group_size = self.f + 1;
        loop {
            let next = self.executed_upto + 1;
            let ready = self.instances.get(&next).is_some_and(|i| {
                !i.executed && i.cmd.is_some() && i.endorsements.len() >= group_size
            });
            if !ready {
                return;
            }
            let cmd = {
                let inst = self.instances.get_mut(&next).expect("ready");
                inst.executed = true;
                inst.cmd.clone().expect("ready")
            };
            ctx.phase(SPAN, next, self.view, CncPhase::Decision);
            ctx.span_close(SPAN, next, self.view);
            self.apply(ctx, cmd.clone());
            self.executed_upto = next;
            self.disarm_view_timer(ctx);
            if !self.pending_requests.is_empty() {
                self.arm_view_timer(ctx);
            }
            // Primary lazily updates the passive replicas.
            if self.primary_of(self.view) == ctx.id() {
                let passives: Vec<NodeId> = (0..self.n_replicas)
                    .map(NodeId::from)
                    .filter(|id| !self.in_group(*id))
                    .collect();
                ctx.send_many(passives, XftMsg::Update { n: next, cmd });
            }
        }
    }

    fn apply(&mut self, ctx: &mut Context<XftMsg>, cmd: Command<KvCommand>) {
        let output = self.machine.apply_cmd(&cmd);
        self.pending_requests.remove(&(cmd.client, cmd.seq));
        self.history.push(cmd.clone());
        ctx.send(
            NodeId(cmd.client),
            XftMsg::Reply {
                client: cmd.client,
                seq: cmd.seq,
                output,
            },
        );
    }
}

impl Node for XftReplica {
    type Msg = XftMsg;

    fn on_start(&mut self, _ctx: &mut Context<XftMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<XftMsg>, from: NodeId, msg: XftMsg) {
        match msg {
            XftMsg::Request { cmd } => {
                if let Some(out) = self.machine.cached(cmd.client, cmd.seq) {
                    ctx.send(
                        NodeId(cmd.client),
                        XftMsg::Reply {
                            client: cmd.client,
                            seq: cmd.seq,
                            output: out.clone(),
                        },
                    );
                    return;
                }
                if self.primary_of(self.view) == ctx.id() {
                    let in_flight = self.instances.values().any(|i| {
                        !i.executed
                            && i.cmd
                                .as_ref()
                                .is_some_and(|c| c.client == cmd.client && c.seq == cmd.seq)
                    });
                    if in_flight {
                        return;
                    }
                    self.next_seq += 1;
                    let n = self.next_seq;
                    let me = ctx.id();
                    let view = self.view;
                    ctx.span_open(SPAN, n, view);
                    ctx.phase(SPAN, n, view, CncPhase::ValueDiscovery);
                    let inst = self.instances.entry(n).or_default();
                    inst.cmd = Some(cmd.clone());
                    inst.endorsements.insert(me);
                    let followers: Vec<NodeId> = self
                        .sync_group(view)
                        .into_iter()
                        .filter(|id| *id != me)
                        .collect();
                    ctx.send_many(followers, XftMsg::Prepare { view, n, cmd });
                    self.arm_view_timer(ctx);
                } else {
                    self.pending_requests.insert((cmd.client, cmd.seq));
                    let p = self.primary_of(self.view);
                    ctx.send(p, XftMsg::Request { cmd });
                    self.arm_view_timer(ctx);
                }
            }

            XftMsg::Prepare { view, n, cmd } => {
                if view != self.view || from != self.primary_of(view) {
                    return;
                }
                if !self.in_group(ctx.id()) {
                    return;
                }
                let digest = digest_of(&cmd).0;
                let me = ctx.id();
                {
                    let inst = self.instances.entry(n).or_default();
                    if inst.cmd.is_none() {
                        ctx.span_open(SPAN, n, view);
                        ctx.phase(SPAN, n, view, CncPhase::Agreement);
                    }
                    inst.cmd = Some(cmd);
                    inst.endorsements.insert(from);
                    inst.endorsements.insert(me);
                }
                // Commit to the whole group.
                let group = self.sync_group(view);
                ctx.send_many(
                    group.into_iter().filter(|id| *id != me),
                    XftMsg::Commit { view, n, digest },
                );
                self.arm_view_timer(ctx);
                self.try_execute(ctx);
            }

            XftMsg::Commit { view, n, digest } => {
                if view != self.view || !self.in_group(ctx.id()) {
                    return;
                }
                let inst = self.instances.entry(n).or_default();
                if let Some(cmd) = &inst.cmd {
                    if digest_of(cmd).0 != digest {
                        return;
                    }
                }
                inst.endorsements.insert(from);
                self.try_execute(ctx);
            }

            XftMsg::Update { n, cmd } => {
                // Passive replica: apply lazily in order.
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_none() {
                    inst.cmd = Some(cmd);
                }
                // Passives trust the (synchronous-group-certified) update.
                for k in 0..=self.f {
                    inst.endorsements.insert(NodeId(k as u32 + 1_000)); // synthetic certificate
                }
                self.try_execute(ctx);
            }

            XftMsg::ViewChange { new_view } => {
                if new_view <= self.view {
                    return;
                }
                self.vc_votes.entry(new_view).or_default().insert(from);
                if self.max_vc_sent < new_view {
                    self.max_vc_sent = new_view;
                    ctx.phase(
                        SPAN,
                        self.executed_upto + 1,
                        new_view,
                        CncPhase::LeaderElection,
                    );
                    let me = ctx.id();
                    self.vc_votes.entry(new_view).or_default().insert(me);
                    ctx.send_many(self.peer_replicas(me), XftMsg::ViewChange { new_view });
                }
                let votes = self.vc_votes[&new_view].len();
                if votes >= self.f + 1 && self.primary_of(new_view) == ctx.id() {
                    self.view = new_view;
                    self.view_changes += 1;
                    self.instances.clear();
                    self.next_seq = 0;
                    self.executed_upto = 0;
                    let view = self.view;
                    let history = self.history.clone();
                    self.disarm_view_timer(ctx);
                    let me = ctx.id();
                    ctx.send_many(self.peer_replicas(me), XftMsg::NewView { view, history });
                }
            }

            XftMsg::NewView { view, history } => {
                if view < self.view || from != self.primary_of(view) {
                    return;
                }
                self.view = view;
                self.view_changes += 1;
                self.instances.clear();
                self.next_seq = 0;
                self.executed_upto = 0;
                self.disarm_view_timer(ctx);
                for cmd in history {
                    if self.machine.cached(cmd.client, cmd.seq).is_none() {
                        self.apply(ctx, cmd);
                    }
                }
                if !self.pending_requests.is_empty() {
                    self.arm_view_timer(ctx);
                }
            }

            XftMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<XftMsg>, timer: Timer) {
        if timer.kind == VIEW_TIMER {
            self.view_timer = None;
            let stalled = !self.pending_requests.is_empty()
                || self
                    .instances
                    .values()
                    .any(|i| i.cmd.is_some() && !i.executed);
            if stalled {
                let new_view = self.view.max(self.max_vc_sent) + 1;
                self.max_vc_sent = new_view;
                let me = ctx.id();
                self.vc_votes.entry(new_view).or_default().insert(me);
                ctx.send_many(self.peer_replicas(me), XftMsg::ViewChange { new_view });
                self.arm_view_timer(ctx);
            }
        }
    }
}

/// The client waits for matching replies from the whole synchronous group
/// (`f+1`).
impl VoteWire for XftMsg {
    const RETRY_US: u64 = 200_000;

    fn request(cmd: Command<KvCommand>) -> Self {
        XftMsg::Request { cmd }
    }

    fn reply(self) -> Option<(u64, KvResponse)> {
        match self {
            XftMsg::Reply { seq, output, .. } => Some((seq, output)),
            _ => None,
        }
    }
}

/// XFT (XPaxos) as a log protocol of the SMR shell.
pub struct Xft;

impl SmrProtocol for Xft {
    const NAME: &'static str = "xft";
    type Shape = usize;
    type Msg = XftMsg;
    type Replica = XftReplica;
    type Client = VotingClient<XftMsg>;

    /// One request per sequence number: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> XftReplica {
        XftReplica::new(n_replicas)
    }

    fn client(n_replicas: usize, session: Session) -> VotingClient<XftMsg> {
        VotingClient::new(session, n_replicas, (n_replicas - 1) / 2 + 1)
    }

    fn is_leader(replica: &XftReplica, id: NodeId) -> bool {
        replica.primary_of(replica.view) == id
    }

    /// `executed_upto` restarts in every view; the history does not.
    fn applied_len(replica: &XftReplica) -> u64 {
        replica.history.len() as u64
    }

    fn machine(replica: &XftReplica) -> &DedupKvMachine {
        &replica.machine
    }

    fn decided(replica: &XftReplica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_commands(&replica.history, node, out);
    }
}

/// A ready-to-run XFT cluster (`2f+1` replicas).
pub type XftCluster = Cluster<Xft>;

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_core::StateMachine as _;
    use simnet::{NetConfig, Time};

    #[test]
    fn anarchy_predicate_matches_slides() {
        // n = 5: threshold ⌊(n−1)/2⌋ = 2.
        assert!(!is_anarchy(0, 0, 0, 5));
        assert!(!is_anarchy(2, 0, 1, 5), "no malice ⇒ no anarchy");
        assert!(!is_anarchy(1, 1, 0, 5), "2 faults ≤ 2 ⇒ fine");
        assert!(is_anarchy(1, 1, 1, 5), "3 faults with malice ⇒ anarchy");
        assert!(is_anarchy(0, 3, 0, 5));
        assert!(!is_anarchy(3, 0, 0, 5), "pure crashes never anarchy");
    }

    #[test]
    fn common_case_commits_with_synchronous_group_only() {
        let mut cluster = XftCluster::new(5, 1, 10, NetConfig::lan(), 1);
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
        // Only the f+1 = 3 group members run agreement; prepares go to 2
        // followers, commits circulate within the group.
        let m = cluster.sim.metrics();
        assert_eq!(m.kind("prepare"), 20, "2 followers × 10 requests");
        assert!(m.kind("update") > 0, "passive replicas get lazy updates");
    }

    #[test]
    fn group_member_crash_triggers_view_change() {
        let mut cluster = XftCluster::new(5, 1, 8, NetConfig::lan(), 2);
        cluster.sim.run_until(Time::from_millis(5));
        // Crash a follower inside the synchronous group {0,1,2}.
        cluster.sim.crash_at(NodeId(1), Time::from_millis(6));
        assert!(
            cluster.run(Time::from_secs(60)),
            "completed {}",
            cluster.total_completed()
        );
        assert_eq!(cluster.total_completed(), 8);
        let vc = cluster.replicas().map(|r| r.view_changes).max().unwrap();
        assert!(vc >= 1, "the whole group must be reconfigured");
        // The new group excludes the crashed node (view advanced).
        let view = cluster.replicas().map(|r| r.view).max().unwrap();
        assert!(view >= 1);
    }

    #[test]
    fn passive_replicas_converge_via_lazy_updates() {
        let mut cluster = XftCluster::new(5, 1, 12, NetConfig::lan(), 3);
        assert!(cluster.run(Time::from_secs(10)));
        cluster.sim.run_for(500_000);
        let executed: Vec<u64> = cluster.replicas().map(|r| r.executed_upto).collect();
        assert!(
            executed.iter().filter(|&&e| e >= 12).count() >= 3,
            "at least the group is current: {executed:?}"
        );
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.executed_upto >= 12)
            .map(|r| r.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn crash_outside_group_is_free() {
        let mut cluster = XftCluster::new(5, 1, 10, NetConfig::lan(), 4);
        cluster.sim.crash_at(NodeId(4), Time::ZERO); // passive node
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
        let vc = cluster.replicas().map(|r| r.view_changes).max().unwrap();
        assert_eq!(vc, 0, "no view change needed for a passive crash");
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut cluster = XftCluster::new(5, 1, 6, NetConfig::lan(), seed);
            cluster.run(Time::from_secs(10));
            (cluster.total_completed(), cluster.sim.metrics().sent)
        };
        assert_eq!(run(5), run(5));
    }
}
