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

use consensus_core::codec::{put_command, wire_size};
use consensus_core::driver::{BatchConfig, DecidedEntry};
use consensus_core::{
    ClientMsg, Cluster, Command, DedupKvMachine, Envelope, KvCommand, Session, SmrProtocol,
};
use simnet::{CncPhase, Context, Node, NodeId, Timer};

/// Span protocol label; instances are sequence numbers, rounds are views.
const SPAN: &str = "xft";

use crate::shell::{
    decided_commands, peers, replica_ids, take_ready, Admission, Executor, Voter, VotingClient,
    VIEW_TIMER,
};
use crate::sim_crypto::digest_of;

/// The anarchy predicate from the slides: `m(s) > 0` **and**
/// `c(s) + m(s) + p(s) > ⌊(n−1)/2⌋`.
pub fn is_anarchy(c: usize, m: usize, p: usize, n: usize) -> bool {
    m > 0 && c + m + p > (n - 1) / 2
}

/// XPaxos messages between replicas.
#[derive(Clone, Debug)]
pub enum XftMsg {
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
            XftMsg::Prepare { .. } => "prepare",
            XftMsg::Commit { .. } => "commit",
            XftMsg::Update { .. } => "update",
            XftMsg::ViewChange { .. } => "view-change",
            XftMsg::NewView { .. } => "new-view",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| match self {
            XftMsg::Prepare { cmd, .. } | XftMsg::Update { cmd, .. } => put_command(w, cmd),
            XftMsg::NewView { history, .. } => history.iter().for_each(|c| put_command(w, c)),
            _ => {}
        })
    }
}

/// The XPaxos wire: client messages beside [`XftMsg`].
type Wire = Envelope<XftMsg>;

#[derive(Debug, Default)]
struct XftInstance {
    cmd: Option<Command<KvCommand>>,
    endorsements: BTreeSet<NodeId>,
    /// Arrived as an `Update`: the synchronous group already certified it.
    certified: bool,
    executed: bool,
}

/// An XPaxos replica.
pub struct XftReplica {
    n_replicas: usize,
    /// Fault bound `f = ⌊(n−1)/2⌋`.
    pub f: usize,
    /// The view, the view-change votes and the watchdog.
    pub voter: Voter,
    next_seq: u64,
    instances: BTreeMap<u64, XftInstance>,
    /// The machine and the executed history; its frontier restarts in every
    /// view.
    pub exec: Executor,
}

impl XftReplica {
    /// Creates a replica for a `2f+1` cluster.
    pub fn new(n_replicas: usize) -> Self {
        let f = (n_replicas - 1) / 2;
        XftReplica {
            n_replicas,
            f,
            voter: Voter::new(n_replicas, f + 1, 60_000, SPAN),
            next_seq: 0,
            instances: BTreeMap::new(),
            exec: Executor::default(),
        }
    }

    /// The synchronous group of view `v`: `f+1` consecutive replicas
    /// starting at the primary `v mod n`.
    pub fn sync_group(&self, v: u64) -> Vec<NodeId> {
        (0..=self.f)
            .map(|k| NodeId(((v + k as u64) % self.n_replicas as u64) as u32))
            .collect()
    }

    fn in_group(&self, id: NodeId) -> bool {
        self.sync_group(self.voter.view).contains(&id)
    }

    fn try_execute(&mut self, ctx: &mut Context<Wire>) {
        let view = self.voter.view;
        // The primary lazily updates the passive replicas.
        let primary = self.voter.primary() == ctx.id();
        let passives = replica_ids(self.n_replicas).filter(|id| primary && !self.in_group(*id));
        let passives: Vec<NodeId> = passives.collect();
        let (instances, voter, group_size) = (&mut self.instances, &mut self.voter, self.f + 1);
        self.exec.drain(
            ctx,
            |n| {
                let i = instances.get_mut(&n)?;
                let decided = i.certified || i.endorsements.len() >= group_size;
                take_ready(&i.cmd, decided, &mut i.executed)
            },
            |exec, ctx, cmd| {
                let n = exec.executed_upto;
                ctx.phase(SPAN, n, view, CncPhase::Decision);
                ctx.span_close(SPAN, n, view);
                voter.progress(ctx, exec.has_pending());
                let update = XftMsg::Update {
                    n,
                    cmd: cmd.clone(),
                };
                ctx.send_many(passives.iter().copied(), update.into());
            },
        );
    }

    fn on_request(&mut self, ctx: &mut Context<Wire>, cmd: Command<KvCommand>) {
        let me = ctx.id();
        let ordered = self.instances.values().filter(|i| !i.executed);
        let ordered = ordered.filter_map(|i| i.cmd.as_ref());
        match self.exec.admit(ctx, &cmd, self.voter.primary(), ordered) {
            Admission::Handled => return,
            Admission::Relayed => {}
            Admission::Order => {
                self.next_seq += 1;
                let n = self.next_seq;
                let view = self.voter.view;
                ctx.span_open(SPAN, n, view);
                ctx.phase(SPAN, n, view, CncPhase::ValueDiscovery);
                let inst = self.instances.entry(n).or_default();
                inst.cmd = Some(cmd.clone());
                inst.endorsements.insert(me);
                let followers = self.sync_group(view).into_iter().filter(|id| *id != me);
                ctx.send_many(followers, XftMsg::Prepare { view, n, cmd }.into());
            }
        }
        self.voter.arm(ctx);
    }

    /// Drops the view's instances: sequence numbers restart in the next one.
    fn rebase(&mut self) {
        self.instances.clear();
        self.next_seq = 0;
        self.exec.executed_upto = 0;
    }
}

impl Node for XftReplica {
    type Msg = Wire;

    fn on_start(&mut self, _ctx: &mut Context<Wire>) {}

    fn on_message(&mut self, ctx: &mut Context<Wire>, from: NodeId, msg: Wire) {
        let me = ctx.id();
        let msg = match msg {
            Envelope::Peer(msg) => msg,
            Envelope::Client(ClientMsg::Request(cmd)) => return self.on_request(ctx, cmd),
            Envelope::Client(_) => return,
        };
        match msg {
            XftMsg::Prepare { view, n, cmd } => {
                if view != self.voter.view || from != self.voter.primary() || !self.in_group(me) {
                    return;
                }
                let digest = digest_of(&cmd).0;
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.is_none() {
                    ctx.span_open(SPAN, n, view);
                    ctx.phase(SPAN, n, view, CncPhase::Agreement);
                }
                inst.cmd = Some(cmd);
                inst.endorsements.insert(from);
                inst.endorsements.insert(me);
                // Commit to the whole group.
                let group = self.sync_group(view).into_iter().filter(|id| *id != me);
                ctx.send_many(group, XftMsg::Commit { view, n, digest }.into());
                self.voter.arm(ctx);
                self.try_execute(ctx);
            }

            XftMsg::Commit { view, n, digest } => {
                if view != self.voter.view || !self.in_group(me) {
                    return;
                }
                let inst = self.instances.entry(n).or_default();
                if inst.cmd.as_ref().is_some_and(|c| digest_of(c).0 != digest) {
                    return;
                }
                inst.endorsements.insert(from);
                self.try_execute(ctx);
            }

            XftMsg::Update { n, cmd } => {
                // Passive replica: apply lazily in order, trusting the
                // (synchronous-group-certified) update.
                let inst = self.instances.entry(n).or_default();
                inst.cmd.get_or_insert(cmd);
                inst.certified = true;
                self.try_execute(ctx);
            }

            XftMsg::ViewChange { new_view } => {
                let next = self.exec.executed_upto + 1;
                if self.voter.on_view_change(ctx, from, new_view, next, msg) {
                    self.rebase();
                    let new_view = XftMsg::NewView {
                        view: new_view,
                        history: self.exec.history().to_vec(),
                    };
                    ctx.send_many(peers(self.n_replicas, me), new_view.into());
                }
            }

            XftMsg::NewView { view, history } => {
                if !self.voter.on_new_view(from, view) {
                    return;
                }
                self.rebase();
                self.exec.replay(ctx, history);
                self.voter.progress(ctx, self.exec.has_pending());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Wire>, timer: Timer) {
        if timer.kind == VIEW_TIMER {
            let unexecuted = |i: &XftInstance| i.cmd.is_some() && !i.executed;
            let stalled = self.exec.has_pending() || self.instances.values().any(unexecuted);
            self.voter
                .on_timeout(ctx, stalled, |new_view| XftMsg::ViewChange { new_view });
        }
    }
}

/// XFT (XPaxos) as a log protocol of the SMR shell.
pub struct Xft;

impl SmrProtocol for Xft {
    const NAME: &'static str = "xft";
    type Shape = usize;
    type Peer = XftMsg;
    type Replica = XftReplica;
    type Client = VotingClient<XftMsg>;

    /// One request per sequence number: `batch` is ignored.
    fn replica(n_replicas: usize, _batch: BatchConfig) -> XftReplica {
        XftReplica::new(n_replicas)
    }

    /// The client waits for matching replies from the whole synchronous
    /// group (`f+1`).
    fn client(n_replicas: usize, session: Session) -> VotingClient<XftMsg> {
        VotingClient::new(session, n_replicas, (n_replicas - 1) / 2 + 1, 200_000)
    }

    fn is_leader(replica: &XftReplica, id: NodeId) -> bool {
        replica.voter.primary() == id
    }

    /// The executor's frontier restarts in every view; the history does not.
    fn applied_len(replica: &XftReplica) -> u64 {
        replica.exec.history().len() as u64
    }

    fn machine(replica: &XftReplica) -> &DedupKvMachine {
        replica.exec.machine()
    }

    fn decided(replica: &XftReplica, node: u32, out: &mut Vec<DecidedEntry>) {
        decided_commands(replica.exec.history(), node, out);
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
        let vc = cluster
            .replicas()
            .map(|r| r.voter.view_changes)
            .max()
            .unwrap();
        assert!(vc >= 1, "the whole group must be reconfigured");
        // The new group excludes the crashed node (view advanced).
        let view = cluster.replicas().map(|r| r.voter.view).max().unwrap();
        assert!(view >= 1);
    }

    #[test]
    fn passive_replicas_converge_via_lazy_updates() {
        let mut cluster = XftCluster::new(5, 1, 12, NetConfig::lan(), 3);
        assert!(cluster.run(Time::from_secs(10)));
        cluster.sim.run_for(500_000);
        let executed: Vec<u64> = cluster.replicas().map(|r| r.exec.executed_upto).collect();
        assert!(
            executed.iter().filter(|&&e| e >= 12).count() >= 3,
            "at least the group is current: {executed:?}"
        );
        let digests: BTreeSet<u64> = cluster
            .replicas()
            .filter(|r| r.exec.executed_upto >= 12)
            .map(|r| r.exec.machine().digest())
            .collect();
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn crash_outside_group_is_free() {
        let mut cluster = XftCluster::new(5, 1, 10, NetConfig::lan(), 4);
        cluster.sim.crash_at(NodeId(4), Time::ZERO); // passive node
        assert!(cluster.run(Time::from_secs(10)));
        assert_eq!(cluster.total_completed(), 10);
        let vc = cluster
            .replicas()
            .map(|r| r.voter.view_changes)
            .max()
            .unwrap();
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
