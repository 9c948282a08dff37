//! Span-balance invariant on protocol smoke runs.
//!
//! With causal tracing enabled, a quiesced fault-free run must leave no
//! consensus-instance span open, and every opened instance must have been
//! closed (closes may exceed opens: each replica closing its copy of a
//! decided instance counts separately). Tracing itself must be free — the
//! traced run is bit-identical to the untraced one, because the tracer
//! draws no randomness and schedules no events.

use forty::bft::pbft::{PbftCluster, StateAgreement};
use forty::consensus_core::{ClusterDriver, QuorumSpec};
use forty::paxos::{LogConsistency, MultiPaxosCluster};
use forty::raft::{LogMatching, RaftCluster};
use forty::simnet::{NetConfig, Time};

const CMDS: usize = 12;
const SEED: u64 = 7;

fn assert_balanced<C: ClusterDriver>(name: &str, cluster: &C) {
    assert_eq!(
        cluster.open_span_instances(),
        0,
        "{name}: consensus-instance spans leaked open after quiescence"
    );
    let m = cluster.metrics();
    assert!(m.spans_opened > 0, "{name}: the run opened no instance spans");
    assert!(
        m.spans_closed >= m.spans_opened,
        "{name}: {} spans opened but only {} closed",
        m.spans_opened,
        m.spans_closed
    );
    let spans = cluster.causal_spans();
    assert!(!spans.is_empty(), "{name}: tracing recorded no causal spans");
    for s in &spans {
        assert!(
            s.end >= s.start,
            "{name}: span {} ends before it starts",
            s.name
        );
    }
}

#[test]
fn multi_paxos_smoke_run_balances_spans() {
    let mut c = MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 3 },
        1,
        CMDS,
        NetConfig::lan(),
        SEED,
    );
    c.enable_tracing(0);
    assert!(c.run(Time::from_secs(30)), "multi-paxos did not finish");
    c.check_log_consistency();
    assert_balanced("multi-paxos", &c);
}

#[test]
fn raft_smoke_run_balances_spans() {
    let mut c = RaftCluster::new(3, 1, CMDS, NetConfig::lan(), SEED);
    c.enable_tracing(0);
    assert!(c.run(Time::from_secs(30)), "raft did not finish");
    c.check_log_matching();
    assert_balanced("raft", &c);
}

#[test]
fn pbft_smoke_run_balances_spans() {
    let mut c = PbftCluster::new(4, 1, CMDS, NetConfig::lan(), SEED);
    c.enable_tracing(0);
    assert!(c.run(Time::from_secs(30)), "pbft did not finish");
    c.check_state_agreement();
    assert_balanced("pbft", &c);
}

#[test]
fn paxos_commit_store_run_balances_spans() {
    use forty::store::{CommitBackend, Store, StoreConfig};

    // The Paxos Commit backend drives extra consensus instances (one vote
    // register CAS per participant); all of them must close, and recording
    // them must not perturb the run.
    let run = |traced: bool| {
        let mut s: Store<MultiPaxosCluster> =
            Store::new(StoreConfig::new(SEED).backend(CommitBackend::PaxosCommit));
        if traced {
            s.enable_tracing();
        }
        assert!(s.run(Time::from_secs(30)), "paxos-commit store stalled");
        s
    };
    let s = run(true);
    for shard in s.shards() {
        assert_balanced("paxos-commit store shard", shard);
    }
    let spans = s.causal_spans();
    assert!(
        spans.iter().any(|sp| sp.name.contains("vote")),
        "traced paxos-commit run recorded no vote-register spans"
    );
    assert_eq!(
        s.fingerprint(),
        run(false).fingerprint(),
        "enabling causal tracing changed the paxos-commit store run"
    );
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let run = |traced: bool| {
        let mut c = MultiPaxosCluster::new(
            QuorumSpec::Majority { n: 3 },
            1,
            CMDS,
            NetConfig::lan(),
            SEED,
        );
        if traced {
            c.enable_tracing(0);
        }
        assert!(c.run(Time::from_secs(30)), "multi-paxos did not finish");
        let m = c.metrics();
        (m.sent, m.delivered, m.spans_closed, c.latencies().mean() as u64)
    };
    assert_eq!(
        run(false),
        run(true),
        "enabling causal tracing changed the simulation"
    );
}
