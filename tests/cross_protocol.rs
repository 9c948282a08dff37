//! Cross-protocol integration: the same workload shape on every SMR
//! protocol in the zoo, under identical network conditions — the data
//! behind experiment T5's "who wins, by roughly what factor".

use std::sync::{Arc, Mutex};

use forty::bft::cheapbft::CheapCluster;
use forty::bft::hotstuff::HsCluster;
use forty::bft::minbft::MinCluster;
use forty::bft::pbft::{Pbft, PbftCluster};
use forty::bft::seemore::SmCluster;
use forty::bft::xft::XftCluster;
use forty::bft::zyzzyva::ZyzCluster;
use forty::bft::{cheapbft::CheapBft, hotstuff::HotStuff, minbft::MinBft, seemore::SeeMoRe};
use forty::bft::{xft::Xft, zyzzyva::Zyzzyva};
use forty::consensus_core::driver::{ClusterDriver, DriverConfig};
use forty::consensus_core::workload::KvMix;
use forty::consensus_core::{
    Cluster, Command, DurableProtocol, Envelope, KvCommand, Proc, SmrOp, SmrProtocol, Str,
};
use forty::paxos::multi::MpMsg;
use forty::paxos::{MultiPaxos, MultiPaxosCluster};
use forty::raft::{Entry, Raft, RaftCluster, RaftMsg};
use forty::simnet::{
    DiskModel, DropAll, FilterAction, FnFilter, NetConfig, NodeId, Payload, Time, TraceEvent,
};
use nemesis::checker::{check_log_agreement, check_state_digests};
use nemesis::lin::{check_linearizable, DEFAULT_BUDGET};
use rand_chacha::ChaCha20Rng;

const CMDS: usize = 20;
const SEED: u64 = 99;

struct Measured {
    name: &'static str,
    messages_per_cmd: f64,
    mean_latency: f64,
}

/// Runs `n_clients` closed-loop clients × [`CMDS`] commands on protocol `D`
/// over a LAN and holds the run to everything the driver surface can check:
/// the workload completes, no two replicas decide differently at an index,
/// replicas that applied the same prefix are in the same state, and the
/// replies the clients accepted are linearizable.
fn agrees<D: ClusterDriver>(n_replicas: usize, n_clients: usize) -> Measured {
    let mut d = D::from_config(&DriverConfig::new(n_replicas, n_clients, CMDS, SEED));
    let name = d.protocol();
    assert!(d.run(Time::from_secs(30)), "{name} stalled");
    assert!(d.all_done(), "{name}");
    let mut violations = check_log_agreement(&d.decided_log());
    violations.extend(check_state_digests(&d.state_digests()));
    violations.extend(check_linearizable(&d.history(), DEFAULT_BUDGET));
    assert!(violations.is_empty(), "{name}: {violations:?}");
    let ops = (n_clients * CMDS) as f64;
    Measured {
        name,
        messages_per_cmd: d.metrics().sent as f64 / ops,
        mean_latency: d.latencies().mean(),
    }
}

/// All nine SMR protocols at their `f = 1` size (SeeMoRe: `m = c = 1`), one
/// client each.
fn measure_all() -> Vec<Measured> {
    vec![
        agrees::<MultiPaxosCluster>(3, 1),
        agrees::<RaftCluster>(3, 1),
        agrees::<PbftCluster>(4, 1),
        agrees::<HsCluster>(4, 1),
        agrees::<ZyzCluster>(4, 1),
        agrees::<MinCluster>(3, 1),
        agrees::<CheapCluster>(3, 1),
        agrees::<XftCluster>(3, 1),
        agrees::<SmCluster>(6, 1),
    ]
}

fn get<'a>(rows: &'a [Measured], name: &str) -> &'a Measured {
    rows.iter().find(|r| r.name == name).expect("row")
}

#[test]
fn every_protocol_completes_the_common_workload() {
    let rows = measure_all();
    assert_eq!(rows.len(), 9);
    for r in &rows {
        assert!(r.messages_per_cmd > 0.0, "{}", r.name);
        assert!(r.mean_latency > 0.0, "{}", r.name);
    }
}

#[test]
fn protocols_agree_under_concurrent_clients() {
    // Three clients race on the same keys, so the linearizability check has
    // real concurrency to order. MinBFT and CheapBFT are absent: with more
    // than one client MinBFT's replicas execute in different orders after
    // its state-transfer view change and CheapBFT's MinBFT fallback wedges
    // (ROADMAP item 5) — their one-client runs are held to `agrees` above.
    agrees::<MultiPaxosCluster>(3, 3);
    agrees::<RaftCluster>(3, 3);
    agrees::<PbftCluster>(4, 3);
    agrees::<HsCluster>(4, 3);
    agrees::<ZyzCluster>(4, 3);
    agrees::<XftCluster>(3, 3);
    agrees::<SmCluster>(6, 3);
}

#[test]
fn pbft_costs_more_messages_than_every_leader_centric_protocol() {
    let rows = measure_all();
    let pbft = get(&rows, "pbft").messages_per_cmd;
    for name in ["multi-paxos", "raft", "zyzzyva", "minbft"] {
        let other = get(&rows, name).messages_per_cmd;
        assert!(
            pbft > other,
            "PBFT ({pbft:.1}) should exceed {name} ({other:.1})"
        );
    }
}

#[test]
fn zyzzyva_fault_free_latency_beats_pbft() {
    // Speculation: 3 one-way delays vs PBFT's 5.
    let rows = measure_all();
    let zyz = get(&rows, "zyzzyva").mean_latency;
    let pbft = get(&rows, "pbft").mean_latency;
    assert!(
        zyz < pbft,
        "Zyzzyva ({zyz:.0}µs) should beat PBFT ({pbft:.0}µs) fault-free"
    );
}

#[test]
fn crash_tolerant_protocols_use_fewer_messages_than_bft() {
    let rows = measure_all();
    let paxos = get(&rows, "multi-paxos").messages_per_cmd;
    let pbft = get(&rows, "pbft").messages_per_cmd;
    assert!(
        pbft > 1.5 * paxos,
        "BFT overhead expected: pbft {pbft:.1} vs paxos {paxos:.1}"
    );
}

#[test]
fn minbft_with_trusted_component_runs_fewer_replicas_and_messages_than_pbft() {
    let rows = measure_all();
    let minbft = get(&rows, "minbft").messages_per_cmd;
    let pbft = get(&rows, "pbft").messages_per_cmd;
    // Same f = 1, but 3 replicas instead of 4 and 2 linear phases
    // instead of 3 (one quadratic).
    assert!(
        minbft < pbft,
        "minbft {minbft:.1} should undercut pbft {pbft:.1}"
    );
}

/// One client issues one `Put` padded to `value_bytes` on protocol `P`;
/// returns the cluster after every replica applied it, and the value the
/// client's history holds.
fn one_padded_put<P: SmrProtocol>(
    n_replicas: usize,
    value_bytes: usize,
    prepare: impl FnOnce(Cluster<P>) -> Cluster<P>,
) -> (Cluster<P>, Str)
where
    P::Shape: From<usize>,
{
    let mix = KvMix {
        write_fraction: 1.0,
        ..KvMix::default().with_value_bytes(value_bytes)
    };
    let cfg = DriverConfig::new(n_replicas, 1, 1, SEED).with_mix(mix);
    let mut cluster = prepare(Cluster::<P>::build(n_replicas.into(), &cfg));
    assert!(cluster.run(Time::from_secs(30)), "{} stalled", P::NAME);
    cluster.sim.run_for(300_000); // followers learn the decision and apply
    let issued = {
        let client = cluster.clients().next().expect("one client");
        let [record] = client.session.history.records() else {
            panic!("one op issued")
        };
        assert!(record.is_complete(), "{}", P::NAME);
        let KvCommand::Put { value, .. } = &record.op else {
            panic!("write-only mix")
        };
        assert_eq!(value.len(), value_bytes);
        value.clone()
    };
    (cluster, issued)
}

fn stored<P: SmrProtocol>(replica: &P::Replica) -> &Str {
    let mut entries = P::machine(replica).kv().iter();
    let (_, value) = entries.next().unwrap_or_else(|| panic!("{}: nothing applied", P::NAME));
    assert!(entries.next().is_none(), "{}: one key written", P::NAME);
    value
}

/// From issue to apply nothing deep-copies a payload: broadcast, proposal
/// table, log and machine on every replica all hold the client's allocation.
fn every_replica_shares_the_clients_allocation<P: SmrProtocol>(n_replicas: usize)
where
    P::Shape: From<usize>,
{
    let (cluster, issued) = one_padded_put::<P>(n_replicas, 1024, |c| c);
    for r in cluster.replicas() {
        let value = stored::<P>(r);
        assert!(Arc::ptr_eq(value, &issued), "{}: value was copied", P::NAME);
    }
}

#[test]
fn multi_paxos_replicas_share_the_issued_payload() {
    every_replica_shares_the_clients_allocation::<MultiPaxos>(3);
}

#[test]
fn raft_replicas_share_the_issued_payload() {
    every_replica_shares_the_clients_allocation::<Raft>(3);
}

#[test]
fn pbft_replicas_share_the_issued_payload() {
    every_replica_shares_the_clients_allocation::<Pbft>(4);
}

/// `(kind, wire size)` of every message that carried the value of one padded
/// 1 KiB `Put` on `P`, the client's request included.
fn hops_of_a_1k_value<P: SmrProtocol>(n_replicas: usize) -> Vec<(&'static str, usize)>
where
    P::Shape: From<usize>,
{
    let hops = Arc::new(Mutex::new(Vec::new()));
    let watch = |mut cluster: Cluster<P>| {
        for node in 0..cluster.sim.n_nodes() {
            let hops = Arc::clone(&hops);
            let watch = move |_, _, msg: &Envelope<P::Peer>, _: &mut ChaCha20Rng| {
                if format!("{msg:?}").contains(&"x".repeat(1000)) {
                    hops.lock().unwrap().push((msg.kind(), msg.size_bytes()));
                }
                FilterAction::Deliver
            };
            cluster.sim.set_filter(NodeId::from(node), Box::new(FnFilter(watch)));
        }
        cluster
    };
    one_padded_put::<P>(n_replicas, 1024, watch);
    let hops = hops.lock().unwrap().clone();
    hops
}

/// Every message pays for the commands it carries. On all nine protocols a
/// 1 KiB value costs at least 1 KiB on every hop — the request and each peer
/// message passing it on.
#[test]
fn every_hop_carrying_a_value_pays_for_its_bytes() {
    let runs = [
        ("multi-paxos", hops_of_a_1k_value::<MultiPaxos>(3)),
        ("raft", hops_of_a_1k_value::<Raft>(3)),
        ("pbft", hops_of_a_1k_value::<Pbft>(4)),
        ("hotstuff", hops_of_a_1k_value::<HotStuff>(4)),
        ("zyzzyva", hops_of_a_1k_value::<Zyzzyva>(4)),
        ("minbft", hops_of_a_1k_value::<MinBft>(3)),
        ("cheapbft", hops_of_a_1k_value::<CheapBft>(3)),
        ("xft", hops_of_a_1k_value::<Xft>(3)),
        ("seemore", hops_of_a_1k_value::<SeeMoRe>(6)),
    ];
    for (name, hops) in runs {
        assert!(hops.iter().any(|(kind, _)| *kind == "request"), "{name}");
        assert!(hops.iter().any(|(kind, _)| *kind != "request"), "{name}");
        for (kind, bytes) in hops {
            assert!(bytes >= 1024, "{name}: a {kind} carrying 1 KiB costs {bytes} B");
        }
    }
}

/// A durable replica shares the allocation while it runs, and after a crash
/// holds an equal value of its own, decoded from its WAL.
fn a_recovered_replica_holds_its_own_copy<P: DurableProtocol>()
where
    P::Shape: From<usize>,
{
    let durable = |c: Cluster<P>| c.with_durability(64, DiskModel::ssd());
    // The B+ tree takes entries of at most a quarter page.
    let (mut cluster, issued) = one_padded_put::<P>(3, 512, durable);
    let victim = NodeId(2);
    let Proc::Replica(r) = cluster.sim.node(victim) else {
        panic!("node 2 is a replica")
    };
    assert!(Arc::ptr_eq(stored::<P>(r), &issued));
    let now = cluster.sim.now();
    cluster.sim.crash_at(victim, Time(now.0 + 1_000));
    cluster.sim.restart_at(victim, Time(now.0 + 50_000));
    cluster.sim.run_for(500_000);
    let Proc::Replica(r) = cluster.sim.node(victim) else {
        panic!("node 2 is a replica")
    };
    let recovered = stored::<P>(r);
    assert_eq!(*recovered, issued, "{}: recovery lost the value", P::NAME);
    assert!(!Arc::ptr_eq(recovered, &issued), "{}: RAM survived a crash", P::NAME);
}

#[test]
fn durable_replicas_recover_an_equal_payload_from_the_wal() {
    a_recovered_replica_holds_its_own_copy::<MultiPaxos>();
    a_recovered_replica_holds_its_own_copy::<Raft>();
}

/// A durable three-replica cluster of `P` with one idle client, run until
/// its first leader, node 0, has taken office.
fn idle_durable<P: DurableProtocol>() -> Cluster<P>
where
    P::Shape: From<usize>,
{
    let cfg = DriverConfig::new(3, 1, 0, SEED);
    let mut cluster = Cluster::<P>::build(3.into(), &cfg).with_durability(64, DiskModel::ssd());
    cluster.sim.run_for(50_000);
    cluster
}

/// Multi-Paxos' node 2 learns `cmds` decided at slots 0, 1, 2, …; returns
/// what its machine and its index then hold for `k`.
fn paxos_decides(cmds: &[Command<KvCommand>]) -> (Option<Str>, Option<String>) {
    let mut cluster = idle_durable::<MultiPaxos>();
    for (index, cmd) in cmds.iter().enumerate() {
        let op = SmrOp::Cmd(cmd.clone());
        let now = cluster.sim.now();
        cluster
            .sim
            .inject(NodeId(0), NodeId(2), MpMsg::Decide { index, op }.into(), now);
    }
    cluster.sim.run_for(1_000);
    let Proc::Replica(r) = cluster.sim.node_mut(NodeId(2)) else {
        panic!("node 2 is a replica")
    };
    let machine = r.log.machine().kv().get("k").cloned();
    (machine, r.durable.engine_mut().expect("durable").get("k"))
}

/// Raft's node 2 is sent `cmds` by its leader as entries after its log and
/// told they are committed; returns what its machine and its index then
/// hold for `k`.
fn raft_commits(cmds: &[Command<KvCommand>]) -> (Option<Str>, Option<String>) {
    let mut cluster = idle_durable::<Raft>();
    let Proc::Replica(r) = cluster.sim.node(NodeId(2)) else {
        panic!("node 2 is a replica")
    };
    let (term, prev_log_index) = (r.current_term, r.last_log_index());
    let append = RaftMsg::AppendEntries {
        term,
        prev_log_index,
        prev_log_term: r.last_log_term(),
        entries: (cmds.iter())
            .map(|cmd| Entry {
                term,
                op: SmrOp::Cmd(cmd.clone()),
            })
            .collect(),
        leader_commit: prev_log_index + cmds.len(),
    };
    let now = cluster.sim.now();
    cluster.sim.inject(NodeId(0), NodeId(2), append.into(), now);
    cluster.sim.run_for(1_000);
    let Proc::Replica(r) = cluster.sim.node_mut(NodeId(2)) else {
        panic!("node 2 is a replica")
    };
    let machine = r.machine().kv().get("k").cloned();
    (machine, r.durable.engine_mut().expect("durable").get("k"))
}

/// c1: Put k=a, c2: Put k=b, then c1's retransmission decided again at a
/// later index: the machine absorbs it in its client table, and the durable
/// index must not take its payload over the newer state.
#[test]
fn duplicate_writes_are_not_mirrored_over_newer_state() {
    let put = |client, value: &str| Command {
        client,
        seq: 1,
        op: KvCommand::Put {
            key: "k".into(),
            value: value.into(),
        },
    };
    let cmds = [put(1, "a"), put(2, "b"), put(1, "a")];
    for (name, (machine, index)) in [
        ("multi-paxos", paxos_decides(&cmds)),
        ("raft", raft_commits(&cmds)),
    ] {
        assert_eq!(machine.as_deref(), Some("b"), "{name}");
        assert_eq!(
            index.as_deref(),
            Some("b"),
            "{name}: the index follows the machine"
        );
    }
}

/// `smr-small`'s Raft cell on the two simulator seeds where a follower
/// installed a snapshot whose machine was ahead of the index it came
/// labelled with: the moment the run ends, every replica that applied the
/// same prefix must be in the same state.
#[test]
fn raft_replicas_at_one_applied_index_agree_the_moment_a_run_ends() {
    let violations: Vec<_> = [34028, 18060]
        .into_iter()
        .flat_map(|seed| {
            let cfg =
                DriverConfig::new(5, 48, 50, seed).with_net(NetConfig::lan().with_nic(30, 50));
            let mut d = RaftCluster::from_config(&cfg);
            assert!(d.run(Time::from_secs(60)), "seed {seed} stalled");
            check_state_digests(&d.state_digests())
                .into_iter()
                .map(move |v| (seed, v))
        })
        .collect();
    assert!(violations.is_empty(), "{violations:?}");
}

/// One LAN delay at most (`NetConfig::lan()` draws 300–800 µs).
const LAN_DELAY_US: u64 = 800;

/// One closed-loop client on a LAN whose first `Request` goes to a node that
/// answers nothing (an outbound `DropAll`): a `Request` from that client must
/// reach some other replica within two of the protocol's retry periods
/// (`retry_us`, as its `SmrProtocol::client` sets it) plus one network delay.
fn abandons_a_silent_first_target<P: SmrProtocol>(n_replicas: usize, retry_us: u64)
where
    P::Shape: From<usize>,
{
    let client = NodeId::from(n_replicas);
    let horizon = Time(2 * retry_us + LAN_DELAY_US);
    // `(time, event, to)` of every request the client sent or had delivered.
    let run = |mute: Option<NodeId>| {
        let shape = P::Shape::from(n_replicas);
        let mut c = Cluster::<P>::new(shape, 1, CMDS, NetConfig::lan(), SEED);
        c.sim.record_trace(true);
        if let Some(node) = mute {
            c.sim.set_filter(node, Box::new(DropAll));
        }
        c.sim.run_until(horizon);
        let requests = c.sim.trace().iter();
        let requests = requests.filter(|e| e.from == client && e.kind == "request");
        requests.map(|e| (e.time, e.event, e.to)).collect::<Vec<_>>()
    };
    let sent = |e: &&(Time, TraceEvent, NodeId)| e.1 == TraceEvent::Send;
    let first = run(None).iter().find(sent).expect("a first attempt").2;
    let reached = run(Some(first))
        .into_iter()
        .find(|&(_, event, to)| event == TraceEvent::Deliver && to != first);
    assert!(
        reached.is_some(),
        "{}: no request left silent node {first} by {horizon}",
        P::NAME
    );
}

#[test]
fn every_protocol_abandons_a_silent_first_target_within_two_retry_periods() {
    abandons_a_silent_first_target::<MultiPaxos>(3, 100_000);
    abandons_a_silent_first_target::<Raft>(3, 100_000);
    abandons_a_silent_first_target::<Pbft>(4, 150_000);
    abandons_a_silent_first_target::<MinBft>(3, 150_000);
    abandons_a_silent_first_target::<CheapBft>(3, 150_000);
    abandons_a_silent_first_target::<Xft>(3, 200_000);
    abandons_a_silent_first_target::<SeeMoRe>(6, 200_000);
    abandons_a_silent_first_target::<HotStuff>(4, 200_000);
    abandons_a_silent_first_target::<Zyzzyva>(4, 300_000);
}
