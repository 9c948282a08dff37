//! Cross-shard atomicity matrix for the sharded store: every combination of
//! transaction span {1, 2, 3} × shard engine {Multi-Paxos, Raft} ×
//! coordinator crash {before, after} the prepare round must terminate with
//! recovery resolving the orphaned transaction, zero violations from the
//! nemesis atomicity checker, and all-or-nothing visibility of the
//! transaction's writes.
//!
//! The workload is seed-generated, so the matrix *probes* a fault-free run
//! first to learn which transaction number has which span, then re-runs the
//! same seed with a phase-accurate router crash on exactly that
//! transaction — determinism guarantees the probe and the faulted run see
//! the identical workload.

use forty::consensus_core::txn::{self, TxnDecision};
use forty::paxos::MultiPaxosCluster;
use forty::raft::RaftCluster;
use forty::simnet::Time;
use forty::store::{RouterCrashPoint, ShardEngine, Store, StoreConfig, TxnOutcome, ROUTER_BASE};
use nemesis::checker::check_txn_atomicity;

const HORIZON: Time = Time(20_000_000);

/// Finds a seed whose router-0 workload contains transactions of every span
/// in 1..=3, and returns it with the fault-free outcomes. Bounded search
/// over a fixed window keeps the test deterministic.
fn seed_with_all_spans<E: ShardEngine>() -> (u64, Vec<TxnOutcome>) {
    for seed in 0..64 {
        let mut s: Store<E> = Store::new(StoreConfig::new(seed));
        assert!(s.run(HORIZON), "probe run stalled at seed {seed}");
        let outcomes = s.outcomes();
        let spans_of_r0 = |span: usize| {
            outcomes
                .iter()
                .any(|o| o.tid.client == ROUTER_BASE && o.span == span)
        };
        if (1..=3).all(spans_of_r0) {
            return (seed, outcomes);
        }
    }
    panic!("no seed in 0..64 generates spans 1..=3 on router 0");
}

/// Runs the matrix cell: crash router 0 on its transaction of span `span`
/// at `point`, then assert termination, recovery resolution, atomicity
/// (checker + direct visibility), and that the surviving router finished.
fn crash_cell<E: ShardEngine>(seed: u64, outcomes: &[TxnOutcome], span: usize, point: RouterCrashPoint) {
    let target = outcomes
        .iter()
        .find(|o| o.tid.client == ROUTER_BASE && o.span == span)
        .expect("probe guaranteed a txn of this span");
    let mut s: Store<E> = Store::new(StoreConfig::new(seed));
    s.crash_router_on_txn(0, target.tid.number, point);
    assert!(
        s.run(HORIZON),
        "store stalled: span {span}, {point:?}, seed {seed}"
    );

    // Recovery claimed the orphan; the decision was still open at both
    // crash points, so the abort-CAS wins — atomicity means *nothing* of
    // the transaction is visible.
    let resolved = s.recovered().iter().find(|(t, _)| *t == target.tid);
    assert_eq!(
        resolved,
        Some(&(target.tid, TxnDecision::Abort)),
        "span {span}, {point:?}: recovery must abort the undecided orphan"
    );
    for (_, key) in s.pool_keys() {
        if let Some(v) = s.peek(&key) {
            assert_ne!(
                txn::tagged_txn(&v),
                Some(target.tid),
                "span {span}, {point:?}: aborted txn's write leaked to {key}"
            );
        }
    }

    // The full history — routers, recovery, audit — passes the nemesis
    // cross-shard atomicity check.
    let violations = check_txn_atomicity(&s.history());
    assert!(
        violations.is_empty(),
        "span {span}, {point:?}: {violations:?}"
    );

    // Liveness for everyone else: the surviving router finished.
    assert!(s.router_done(1), "span {span}, {point:?}: router 1 stalled");
}

fn matrix<E: ShardEngine>() {
    let (seed, outcomes) = seed_with_all_spans::<E>();
    for span in 1..=3 {
        for point in [RouterCrashPoint::BeforePrepare, RouterCrashPoint::AfterPrepare] {
            crash_cell::<E>(seed, &outcomes, span, point);
        }
    }
}

#[test]
fn paxos_store_atomicity_matrix() {
    matrix::<MultiPaxosCluster>();
}

#[test]
fn raft_store_atomicity_matrix() {
    matrix::<RaftCluster>();
}

#[test]
fn fault_free_histories_are_atomic() {
    // No faults at all: both engines' full histories still satisfy the
    // checker (sound baseline for the matrix above).
    let mut p: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(3));
    assert!(p.run(HORIZON));
    assert!(check_txn_atomicity(&p.history()).is_empty());

    let mut r: Store<RaftCluster> = Store::new(StoreConfig::new(3));
    assert!(r.run(HORIZON));
    assert!(check_txn_atomicity(&r.history()).is_empty());
}
