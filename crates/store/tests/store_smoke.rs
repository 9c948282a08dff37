//! End-to-end store tests: fault-free commits, determinism, router-crash
//! recovery, and the headline blocking-2PC vs replicated-2PC contrast.

use atomic_commit::{paxos_commit, TxnState};
use consensus_core::txn::{self, TxnDecision};
use consensus_core::Str;
use nemesis::checker::check_range_consistency;
use paxos::MultiPaxosCluster;
use raft::RaftCluster;
use simnet::{NetConfig, Time};
use store::{CommitBackend, RouterCrashPoint, ShardEngine, Store, StoreConfig};

const HORIZON: Time = Time(20_000_000);

fn committed_values_visible<E: ShardEngine>(s: &Store<E>) {
    // Every committed transaction's writes must be visible (or overwritten
    // by a later write); no aborted transaction's write may be visible.
    let outcomes = s.outcomes();
    for o in &outcomes {
        assert!(o.span >= 1 && o.span <= s.cfg.n_shards);
    }
    let committed: Vec<_> = outcomes
        .iter()
        .filter(|o| o.decision == TxnDecision::Commit)
        .map(|o| o.tid)
        .collect();
    for (_, key) in s.pool_keys() {
        if let Some(v) = s.peek(&key) {
            if let Some(tid) = txn::tagged_txn(&v) {
                assert!(
                    committed.contains(&tid)
                        || s.recovered()
                            .iter()
                            .any(|(t, d)| *t == tid && *d == TxnDecision::Commit),
                    "visible value {v} of key {key} from a non-committed txn"
                );
            }
        }
    }
}

fn fault_free<E: ShardEngine>() {
    let mut s: Store<E> = Store::new(StoreConfig::new(11));
    assert!(s.run(HORIZON), "store did not quiesce");
    let outcomes = s.outcomes();
    assert_eq!(outcomes.len(), 2 * 3, "2 routers x 3 txns each");
    assert!(
        outcomes.iter().any(|o| o.decision == TxnDecision::Commit),
        "at least one commit expected"
    );
    assert!(
        outcomes.iter().any(|o| o.span > 1),
        "at least one cross-shard txn expected"
    );
    committed_values_visible(&s);
    // Audit completed: one Get per pool key, all answered.
    let history = s.history();
    let audits = history
        .iter()
        .filter(|r| r.client == store::AUDIT_CLIENT)
        .count();
    assert_eq!(audits, s.pool_keys().len());
    assert!(history
        .iter()
        .filter(|r| r.client == store::AUDIT_CLIENT)
        .all(|r| r.is_complete()));
}

#[test]
fn paxos_store_commits_cross_shard_txns() {
    fault_free::<MultiPaxosCluster>();
}

#[test]
fn raft_store_commits_cross_shard_txns() {
    fault_free::<RaftCluster>();
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let run = |engine_seed: u64| {
        let mut s: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(engine_seed));
        assert!(s.run(HORIZON));
        (s.fingerprint(), s.trace().len(), s.messages_sent())
    };
    assert_eq!(run(42), run(42), "same seed must replay bit-for-bit");
    assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
}

fn crash_recovery_case<E: ShardEngine>(point: RouterCrashPoint, seed: u64) {
    let mut s: Store<E> = Store::new(StoreConfig::new(seed));
    s.crash_router_on_txn(0, 0, point);
    assert!(s.run(HORIZON), "store did not quiesce after router crash");
    // Recovery must have resolved router 0's first transaction.
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    let resolved = s.recovered().iter().find(|(t, _)| *t == tid);
    let (_, decision) = resolved.expect("recovery never claimed the orphaned txn");
    match point {
        // The decision was still open: recovery's abort-CAS wins.
        RouterCrashPoint::BeforePrepare | RouterCrashPoint::AfterPrepare => {
            assert_eq!(*decision, TxnDecision::Abort);
        }
        RouterCrashPoint::AfterEarlyWrites => unreachable!("buggy-mode-only crash point"),
        // Commit was durable before the crash: recovery completes it.
        RouterCrashPoint::AfterDecide => {
            assert_eq!(*decision, TxnDecision::Commit);
            // The decision entry is durable on the coordinator shard
            // (control keys route by coordinator, not by hash — scan).
            let dec = s
                .shards()
                .iter()
                .find_map(|e| e.peek(&txn::decision_key(tid)));
            assert_eq!(dec.as_deref(), Some("commit"));
        }
    }
    committed_values_visible(&s);
    // The surviving router still finished its workload.
    assert!(s.router_done(1));
}

#[test]
fn paxos_recovery_resolves_all_crash_points() {
    for (i, point) in [
        RouterCrashPoint::BeforePrepare,
        RouterCrashPoint::AfterPrepare,
        RouterCrashPoint::AfterDecide,
    ]
    .into_iter()
    .enumerate()
    {
        crash_recovery_case::<MultiPaxosCluster>(point, 20 + i as u64);
    }
}

#[test]
fn raft_recovery_resolves_all_crash_points() {
    for (i, point) in [
        RouterCrashPoint::BeforePrepare,
        RouterCrashPoint::AfterPrepare,
        RouterCrashPoint::AfterDecide,
    ]
    .into_iter()
    .enumerate()
    {
        crash_recovery_case::<RaftCluster>(point, 30 + i as u64);
    }
}

#[test]
fn unreplicated_two_pc_blocks_where_the_store_recovers() {
    // The same fault — the 2PC coordinator dies after collecting votes —
    // in both worlds. Plain 2PC (Paxos Commit at F = 0): participants stay
    // blocked forever.
    let mut blocked = paxos_commit::build_with_crash(
        &[true, true, true],
        0,
        paxos_commit::CrashPoint::AfterVotes,
        NetConfig::lan(),
        5,
    );
    blocked.run_until(Time::from_secs(5));
    assert!(
        paxos_commit::participant_states(&blocked)
            .iter()
            .all(|s| *s == TxnState::Ready),
        "plain 2PC participants must block in Ready"
    );

    // The store: the router (coordinator) dies after every participant
    // prepared, before the decision — and the system still terminates,
    // because decision and prepare state live in replicated shard logs.
    let mut s: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(5));
    s.crash_router_on_txn(0, 0, RouterCrashPoint::AfterPrepare);
    assert!(s.run(HORIZON));
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    assert!(
        s.recovered().iter().any(|(t, _)| *t == tid),
        "the store's recovery must resolve the orphaned txn"
    );
}

#[test]
fn restarted_router_abandons_txn_and_finishes_workload() {
    let mut s: Store<RaftCluster> = Store::new(StoreConfig::new(77));
    s.crash_router_on_txn(0, 0, RouterCrashPoint::AfterPrepare);
    s.restart_router_at(0, 300_000);
    assert!(s.run(HORIZON));
    // The abandoned txn went to recovery, and the router completed the
    // rest of its items after restarting.
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    assert!(s.recovered().iter().any(|(t, _)| *t == tid));
    assert!(s.router_done(0), "restarted router should finish");
    committed_values_visible(&s);
}

#[test]
fn buggy_early_writes_leak_aborted_state() {
    // The injected bug: the coordinator disseminates data writes before its
    // decision entry is replicated. Crash it in that window and recovery's
    // abort-CAS wins — yet the "committed" writes are already visible.
    let mut s: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(11).buggy_early_writes(true));
    s.crash_router_on_txn(0, 0, RouterCrashPoint::AfterEarlyWrites);
    assert!(s.run(HORIZON));
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    assert!(
        s.recovered().contains(&(tid, TxnDecision::Abort)),
        "recovery must abort the formally-undecided txn"
    );
    let leaked = s.pool_keys().iter().any(|(_, key)| {
        s.peek(key)
            .and_then(|v| txn::tagged_txn(&v))
            .is_some_and(|t| t == tid)
    });
    assert!(leaked, "the aborted txn's early writes must be visible");
}

#[test]
fn durable_paxos_store_survives_replica_crash_restart() {
    // With durable shard storage, a crashed replica's promised/accepted/log
    // state really is gone from RAM: recovery must rebuild it from the
    // engine's checkpoint + WAL. The store-level guarantees (committed
    // writes visible, audit clean) must hold across that path.
    let mut s: Store<MultiPaxosCluster> =
        Store::new(StoreConfig::new(13).durable(8, simnet::DiskModel::ssd()));
    for shard in 0..s.cfg.n_shards as u32 {
        s.crash_node_at(shard * 3 + 2, 20_000);
        s.restart_node_at(shard * 3 + 2, 32_000);
    }
    assert!(s.run(HORIZON), "durable store must quiesce after restarts");
    assert_eq!(s.outcomes().len(), 6);
    committed_values_visible(&s);
    // White-box: every restarted replica took the WAL-replay recovery path.
    for e in s.shards() {
        let r = e.replicas().nth(2).expect("replica 2 exists");
        let stats = r.storage_stats().expect("durable engine attached");
        assert_eq!(stats.recoveries, 1, "replica 2 must have recovered once");
        assert!(r.disk.last_recovery_io_us > 0, "recovery must charge disk time");
    }
}

#[test]
fn durable_coordinator_shard_recovers_in_flight_decision() {
    // WAL-before-decision, explicitly: the router crashes right after its
    // commit decision became durable (the data writes are still owed), and
    // separately a replica of every shard is crash+restarted. The restarted
    // coordinator-shard replica must rebuild the decision record from its
    // checkpoint + first-class `TxnDecision` WAL records — answerable
    // directly from its decision table, not by replaying client history.
    let seed = probe_committing_seed(13);
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    let mut s: Store<MultiPaxosCluster> =
        Store::new(StoreConfig::new(seed).durable(8, simnet::DiskModel::ssd()));
    s.crash_router_on_txn(0, 0, RouterCrashPoint::AfterDecide);
    assert!(s.run(HORIZON), "durable store must quiesce");
    // Recovery completed the in-flight commit.
    assert!(s.recovered().contains(&(tid, TxnDecision::Commit)));
    committed_values_visible(&s);
    let dec_key = txn::decision_key(tid);
    let coord = s
        .shards()
        .iter()
        .position(|e| e.peek(&dec_key).is_some())
        .expect("decision record must exist on some shard");
    // Now crash + restart a coordinator-shard replica: its RAM state is
    // gone; the decision table must come back from disk.
    let global = (coord * s.cfg.replicas_per_shard + 2) as u32;
    let now = s.now();
    s.crash_node_at(global, now + 10_000);
    s.restart_node_at(global, now + 30_000);
    let end = now + 1_000_000;
    while s.now() < end {
        s.step();
    }
    let r = s.shards()[coord]
        .replicas()
        .nth(2)
        .expect("replica 2 exists");
    assert_eq!(
        r.storage_stats().expect("durable engine attached").recoveries,
        1
    );
    assert_eq!(
        r.disk.txn_decisions().get(dec_key.as_str()).map(|v| &**v),
        Some("commit"),
        "restarted replica must recover the in-flight decision"
    );
    // At least one coordinator-shard replica appended the decision as a
    // first-class WAL record.
    assert!(s.shards()[coord]
        .replicas()
        .any(|r| r.disk.txn_decisions_logged > 0));
}

#[test]
fn durable_store_same_seed_fingerprints_are_bit_identical() {
    // Determinism survives the full durability stack: disk latency
    // accounting, WAL replay, checkpoint install — same seed, same bits.
    let run = || {
        let mut s: Store<MultiPaxosCluster> =
            Store::new(StoreConfig::new(42).durable(8, simnet::DiskModel::ssd()));
        for shard in 0..s.cfg.n_shards as u32 {
            s.crash_node_at(shard * 3 + 2, 20_000);
            s.restart_node_at(shard * 3 + 2, 32_000);
        }
        assert!(s.run(HORIZON));
        (s.fingerprint(), s.messages_sent())
    };
    assert_eq!(run(), run(), "durable runs must replay bit-for-bit");
}

#[test]
fn durable_raft_store_survives_replica_crash_restart() {
    // The Raft mirror of the paxos durable test: a crashed replica's
    // term/vote/log state really is gone from RAM, and recovery must
    // rebuild it from the engine's checkpoint + WAL.
    let mut s: Store<RaftCluster> =
        Store::new(StoreConfig::new(13).durable(8, simnet::DiskModel::ssd()));
    for shard in 0..s.cfg.n_shards as u32 {
        s.crash_node_at(shard * 3 + 2, 20_000);
        s.restart_node_at(shard * 3 + 2, 32_000);
    }
    assert!(s.run(HORIZON), "durable raft store must quiesce after restarts");
    assert_eq!(s.outcomes().len(), 6);
    committed_values_visible(&s);
    // White-box: every restarted replica took the WAL-replay recovery path.
    for e in s.shards() {
        let r = e.replicas().nth(2).expect("replica 2 exists");
        let stats = r.storage_stats().expect("durable engine attached");
        assert_eq!(stats.recoveries, 1, "replica 2 must have recovered once");
        assert!(r.disk.last_recovery_io_us > 0, "recovery must charge disk time");
    }
}

#[test]
fn durable_raft_store_same_seed_fingerprints_are_bit_identical() {
    // The crash/restart schedule replays bit-for-bit through Raft's full
    // durability stack: WAL group commits, checkpoint truncation, recovery.
    let run = || {
        let mut s: Store<RaftCluster> =
            Store::new(StoreConfig::new(42).durable(8, simnet::DiskModel::ssd()));
        for shard in 0..s.cfg.n_shards as u32 {
            s.crash_node_at(shard * 3 + 2, 20_000);
            s.restart_node_at(shard * 3 + 2, 32_000);
        }
        assert!(s.run(HORIZON));
        (s.fingerprint(), s.messages_sent())
    };
    assert_eq!(run(), run(), "durable raft runs must replay bit-for-bit");
}

// ---- range queries -------------------------------------------------------

/// A single-router workload is strictly sequential, so by the time its
/// range scans run, everything it wrote is applied — making the merged
/// results a pure function of the workload, not of engine timing.
/// The benchmark's `store-txn` shape with range scans, on Multi-Paxos. One
/// `decide` can apply several slots before any is mirrored into the durable
/// index, so a range's cross-check must use the answer the machine gave at
/// the range's own log position; checked against the machine's *current*
/// state, seeds 5, 9, 19 and 24 died with "engine index diverged from
/// machine on range scan".
#[test]
fn durable_paxos_store_serves_ranges_beside_txns() {
    for seed in 1..=24 {
        let cfg = StoreConfig::new(seed)
            .txns_per_router(100)
            .singles_per_router(100)
            .ranges_per_router(20)
            .keys_per_shard(64)
            .net(NetConfig::lan().with_nic(30, 50))
            .durable(64, simnet::DiskModel::ssd());
        let mut s: Store<MultiPaxosCluster> = Store::new(cfg);
        assert!(s.run(HORIZON), "seed {seed}: store did not quiesce");
        assert_eq!(s.range_results().len(), 2 * 20, "seed {seed}");
        let violations = check_range_consistency(&s.history());
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

fn sequential_range_cfg(seed: u64) -> StoreConfig {
    StoreConfig::new(seed)
        .routers(1)
        .txns_per_router(3)
        .singles_per_router(6)
        .ranges_per_router(3)
}

type MergedRange = (Str, Str, usize, Vec<(Str, Str)>);

fn merged_ranges<E: ShardEngine>(cfg: StoreConfig) -> Vec<MergedRange> {
    let mut s: Store<E> = Store::new(cfg);
    assert!(s.run(HORIZON), "range store did not quiesce");
    committed_values_visible(&s);
    s.range_results()
        .into_iter()
        .map(|o| (o.start, o.end, o.limit, o.entries))
        .collect()
}

#[test]
fn range_queries_merge_deterministically_across_shards() {
    // Scan bounds and key pools are seed-derived, so not every seed's
    // scans catch written keys on two shards — probe until one does,
    // checking well-formedness of every merged result along the way.
    let mut spans_shards = false;
    for seed in 11..40 {
        let mut s: Store<MultiPaxosCluster> = Store::new(sequential_range_cfg(seed));
        assert!(s.run(HORIZON));
        let results = s.range_results();
        assert_eq!(results.len(), 3, "every generated range must complete");
        for o in &results {
            assert!(o.entries.len() <= o.limit, "limit must bound the merge");
            for w in o.entries.windows(2) {
                assert!(w[0].0 < w[1].0, "merged keys must be strictly ascending");
            }
            for (k, _) in &o.entries {
                assert!(
                    *k >= o.start && *k < o.end,
                    "key {k} outside [{},{})",
                    o.start,
                    o.end
                );
            }
            let shards: std::collections::BTreeSet<usize> =
                o.entries.iter().map(|(k, _)| s.shard_of(k)).collect();
            spans_shards |= shards.len() >= 2;
        }
        if spans_shards {
            return;
        }
    }
    panic!("no seed in 11..40 produced a multi-shard merged range");
}

#[test]
fn range_results_are_identical_across_engines_and_knobs() {
    // The cross-engine equivalence sweep: paxos vs raft, RAM vs durable,
    // unbatched vs batched — six configurations, one merged answer.
    for seed in [11, 12, 13] {
        let baseline = merged_ranges::<MultiPaxosCluster>(sequential_range_cfg(seed));
        assert!(
            baseline.iter().any(|(_, _, _, entries)| !entries.is_empty()),
            "seed {seed}: ranges returned nothing to compare"
        );
        assert_eq!(
            merged_ranges::<RaftCluster>(sequential_range_cfg(seed)),
            baseline,
            "raft diverged at seed {seed}"
        );
        assert_eq!(
            merged_ranges::<MultiPaxosCluster>(
                sequential_range_cfg(seed).durable(8, simnet::DiskModel::ssd())
            ),
            baseline,
            "durable paxos diverged at seed {seed}"
        );
        assert_eq!(
            merged_ranges::<RaftCluster>(
                sequential_range_cfg(seed).durable(8, simnet::DiskModel::ssd())
            ),
            baseline,
            "durable raft diverged at seed {seed}"
        );
        let batch = consensus_core::BatchConfig::new(4, 300, 4);
        assert_eq!(
            merged_ranges::<MultiPaxosCluster>(sequential_range_cfg(seed).batch(batch)),
            baseline,
            "batched paxos diverged at seed {seed}"
        );
        assert_eq!(
            merged_ranges::<RaftCluster>(sequential_range_cfg(seed).batch(batch)),
            baseline,
            "batched raft diverged at seed {seed}"
        );
    }
}

// ---- commit backends -----------------------------------------------------

/// First seed in `base..base+32` whose fault-free default-backend run
/// commits router 0's txn 0 across ≥ 2 shards (so a coordinator crash has
/// something to block).
fn probe_committing_seed(base: u64) -> u64 {
    for seed in base..base + 32 {
        let mut s: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(seed));
        assert!(s.run(HORIZON));
        let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
        if s.outcomes()
            .iter()
            .any(|o| o.tid == tid && o.decision == TxnDecision::Commit && o.span >= 2)
        {
            return seed;
        }
    }
    panic!("no committing multi-shard txn found near seed {base}");
}

fn backend_outcomes(backend: CommitBackend, seed: u64) -> Vec<(String, &'static str)> {
    let mut s: Store<MultiPaxosCluster> =
        Store::new(StoreConfig::new(seed).backend(backend));
    assert!(s.run(HORIZON), "{backend:?} store did not quiesce");
    committed_values_visible(&s);
    // Completion *order* may shift with the backend's message pattern; the
    // per-transaction decisions are what must agree.
    let mut v: Vec<(String, &'static str)> = s
        .outcomes()
        .iter()
        .map(|o| (o.tid.to_string(), o.decision.as_str()))
        .collect();
    v.sort();
    v
}

#[test]
fn paxos_commit_backend_commits_cross_shard_txns() {
    let mut s: Store<MultiPaxosCluster> =
        Store::new(StoreConfig::new(11).backend(CommitBackend::PaxosCommit));
    assert!(s.run(HORIZON), "paxos-commit store did not quiesce");
    let outcomes = s.outcomes();
    assert_eq!(outcomes.len(), 6);
    assert!(outcomes.iter().any(|o| o.decision == TxnDecision::Commit));
    committed_values_visible(&s);
    // Every transaction's trace line names the backend.
    assert!(s
        .trace()
        .iter()
        .filter(|l| l.contains(" begin "))
        .all(|l| l.contains("backend=pc")));
}

#[test]
fn raw_two_phase_backend_commits_cross_shard_txns() {
    let mut s: Store<MultiPaxosCluster> =
        Store::new(StoreConfig::new(11).backend(CommitBackend::TwoPhase));
    assert!(s.run(HORIZON), "raw-2pc store did not quiesce");
    assert_eq!(s.outcomes().len(), 6);
    committed_values_visible(&s);
}

#[test]
fn backend_outcomes_are_equivalent_when_fault_free() {
    // Seed-swept equivalence: with no faults, all three backends decide
    // every transaction identically — they disagree only about what
    // survives a coordinator crash.
    for seed in [11, 12, 13, 14, 15] {
        let baseline = backend_outcomes(CommitBackend::TwoPhaseOverConsensus, seed);
        assert_eq!(
            backend_outcomes(CommitBackend::PaxosCommit, seed),
            baseline,
            "paxos-commit diverged at seed {seed}"
        );
        assert_eq!(
            backend_outcomes(CommitBackend::TwoPhase, seed),
            baseline,
            "raw 2pc diverged at seed {seed}"
        );
    }
}

#[test]
fn backend_availability_contrast_under_identical_coordinator_crash() {
    // The Gray–Lamport spectrum under ONE fault schedule: the coordinator
    // (router) dies after every participant voted yes, before the decision
    // escapes its process.
    let seed = probe_committing_seed(40);
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    let run = |backend| {
        let mut s: Store<MultiPaxosCluster> =
            Store::new(StoreConfig::new(seed).backend(backend));
        s.crash_router_on_txn(0, 0, RouterCrashPoint::AfterPrepare);
        assert!(s.run(HORIZON), "{backend:?} store did not quiesce");
        committed_values_visible(&s);
        s
    };

    // Raw 2PC: the only copy of the open decision died with the router.
    // Recovery finds nothing to force — the transaction blocks forever.
    let s = run(CommitBackend::TwoPhase);
    assert!(s.stalled().contains(&tid), "raw 2pc must stall");
    assert!(!s.recovered().iter().any(|(t, _)| *t == tid));

    // 2PC over consensus: recovery closes the still-open decision with its
    // abort-CAS. Safe, but the prepared work is thrown away.
    let s = run(CommitBackend::TwoPhaseOverConsensus);
    assert!(s.recovered().contains(&(tid, TxnDecision::Abort)));

    // Paxos Commit: the prepared votes (with their write-sets) are already
    // chosen in the shard logs. Recovery commits the transaction.
    let s = run(CommitBackend::PaxosCommit);
    assert!(
        s.recovered().contains(&(tid, TxnDecision::Commit)),
        "paxos commit must finish the prepared txn"
    );
    // The decision record recovery derived is durable on the coordinator
    // shard, and the data writes are visible.
    let dec = s
        .shards()
        .iter()
        .find_map(|e| e.peek(&txn::decision_key(tid)));
    assert_eq!(dec.as_deref(), Some("commit"));
}

#[test]
fn paxos_commit_recovery_aborts_unvoted_txn() {
    // Crash before any vote is cast: recovery free-aborts the first open
    // vote register and the transaction aborts cleanly everywhere.
    let mut s: Store<MultiPaxosCluster> =
        Store::new(StoreConfig::new(11).backend(CommitBackend::PaxosCommit));
    s.crash_router_on_txn(0, 0, RouterCrashPoint::BeforePrepare);
    assert!(s.run(HORIZON));
    let tid = consensus_core::TxnId::new(store::ROUTER_BASE, 0);
    assert!(s.recovered().contains(&(tid, TxnDecision::Abort)));
    committed_values_visible(&s);
}

#[test]
fn shard_replica_crash_does_not_lose_txns() {
    // Crash one replica per shard (f = 1 of 3): every group keeps running.
    let mut s: Store<MultiPaxosCluster> = Store::new(StoreConfig::new(91));
    for shard in 0..s.cfg.n_shards as u32 {
        s.crash_node_at(shard * 3 + 2, 50_000);
    }
    assert!(s.run(HORIZON), "f=1 per shard must not stall the store");
    assert_eq!(s.outcomes().len(), 6);
    committed_values_visible(&s);
}
