//! Generated-documentation scenarios: one small, fully deterministic
//! simulation per protocol, rendered into a Markdown page with the
//! taxonomy info card, a Mermaid sequence diagram of the actual message
//! flow, the C&C span events the implementation emitted, and the measured
//! message/latency statistics.
//!
//! `bench figures` writes these pages under `docs/`; the golden tests
//! in `tests/golden.rs` pin them — same code, same seed, byte-identical
//! output on every machine.

use consensus_core::taxonomy::{all_cards, card};
use consensus_core::QuorumSpec;
use consensus_core::{Cluster, SmrProtocol};
use simnet::{Metrics, NetConfig, Node, Sim, Time};

use crate::artifact::Artifact;
use crate::geo::{smoke_spec, Geo};
use crate::recovery::crash_and_restart;
use crate::render;

/// One generated documentation page.
pub struct FigurePage {
    /// File stem under `docs/protocols/` (also the span protocol label).
    pub slug: &'static str,
    /// Page heading.
    pub title: &'static str,
    /// Full Markdown body.
    pub body: String,
}

/// Runs an SMR cluster's page scenario with its message trace recorded.
fn traced<P: SmrProtocol>(mut cluster: Cluster<P>) -> Cluster<P> {
    cluster.sim.record_trace(true);
    cluster.run(Time::from_secs(5));
    cluster
}

/// Runs a page scenario with its message trace recorded.
fn run_traced<N: Node>(mut sim: Sim<N>, secs: u64) -> Sim<N> {
    sim.record_trace(true);
    sim.run_until(Time::from_secs(secs));
    sim
}

/// A finished page: its body plus the generated-file footer.
fn page(slug: &'static str, title: &'static str, body: String) -> FigurePage {
    FigurePage {
        slug,
        title,
        body: body + FOOTER,
    }
}

/// Last lines of every generated page.
const FOOTER: &str =
    "\n---\n*Generated by `cargo run --release -p bench -- figures`. Do not edit by hand.*\n";

/// How many message arrows a sequence diagram may draw before eliding.
const MAX_MSGS: usize = 60;
/// How many raw span-event lines a page shows.
const MAX_SPANS: usize = 16;

/// A protocol page. An SMR protocol's page passes `batching`, its
/// mechanism note for the "Batching & pipelining" section on the
/// `BatchConfig` knob.
fn compose<N: Node>(
    slug: &'static str,
    title: &'static str,
    card_name: Option<&str>,
    blurb: &str,
    scenario: &str,
    sim: &Sim<N>,
    batching: Option<&str>,
) -> FigurePage {
    let mut body = format!("# {title}\n\n{blurb}\n\n");
    match card_name.and_then(card) {
        Some(c) => {
            body.push_str("## Info card\n\n");
            body.push_str(&render::card_table(&c));
            body.push('\n');
        }
        None => {
            body.push_str(
                "*(No taxonomy info card — this protocol is outside the survey's card set.)*\n\n",
            );
        }
    }
    body.push_str("## Scenario\n\n");
    body.push_str(scenario);
    body.push_str("\n\n## Message flow\n\n");
    let flow = render::mermaid_sequence(sim.trace(), MAX_MSGS);
    body.push_str(&flow);
    body.push_str("\n## Span events\n\n");
    body.push_str(
        "The implementation tags its trace with the C&C framework's four \
         phases (leader election, value discovery, agreement, decision):\n\n",
    );
    body.push_str(&render::span_excerpt(sim.trace(), MAX_SPANS));
    body.push_str("\n## Measured\n\n");
    body.push_str(&render::metrics_table(sim.metrics()));
    if let Some(mechanism) = batching {
        body.push_str(&format!(
            "\n## Batching & pipelining\n\n\
             The replicas take a `BatchConfig {{ max_batch, max_delay, \
             pipeline_window }}` knob: up to `max_batch` commands are packed \
             into one consensus instance, an underfull batch is held at most \
             `max_delay` µs, and at most `pipeline_window` instances may be \
             in flight at once. `BatchConfig::unbatched()` (the default used \
             on this page) reproduces the one-command-per-instance behaviour \
             message for message. {mechanism}\n\n\
             Closed-loop throughput across the knob grid is measured by \
             `cargo run --release -p bench -- throughput` and checked in \
             as `BENCH_throughput.json`; see the \"Throughput & batching\" \
             section of `EXPERIMENTS.md`.\n"
        ));
    }
    page(slug, title, body)
}

fn paxos_page() -> FigurePage {
    let mut sim: Sim<paxos::PaxosNode> = Sim::new(NetConfig::lan(), 42);
    sim.add_node(paxos::PaxosNode::proposer(
        3,
        42,
        0,
        paxos::RetryPolicy::Never,
    ));
    sim.add_node(paxos::PaxosNode::acceptor(3));
    sim.add_node(paxos::PaxosNode::acceptor(3));
    let sim = run_traced(sim, 1);
    compose(
        "paxos",
        "Paxos (single decree)",
        Some("Paxos"),
        "One proposer drives a single value through prepare/promise and \
         accept/accepted majorities. There is no stable leader: every \
         proposal starts with phase 1, which is exactly the value-discovery \
         phase of the C&C framework.",
        "3 nodes (n0 proposes 42, no retries), LAN delays, seed 42.",
        &sim,
        None,
    )
}

fn multi_paxos_page() -> FigurePage {
    let cluster = traced(paxos::MultiPaxosCluster::new(
        QuorumSpec::Majority { n: 3 },
        1,
        2,
        NetConfig::lan(),
        42,
    ));
    compose(
        "multi-paxos",
        "Multi-Paxos",
        Some("Paxos"),
        "A stable leader elected once (phase 1 over all slots at once) then \
         commits a log of commands in two message delays each. Leader \
         election is paid only on failure; steady state is value discovery \
         plus agreement per slot.",
        "3 replicas, 1 client issuing 2 commands, LAN delays, seed 42.",
        &cluster.sim,
        Some(
            "Here a batch is one `Accept` for a multi-command slot, so the \
             leader's per-command transmit cost falls by roughly the batch \
             size; after a leader change, every in-flight slot discovered \
             during phase 1 is re-proposed regardless of the window, so \
             pipelining leaves no holes in the log.",
        ),
    )
}

fn raft_page() -> FigurePage {
    let cluster = traced(raft::RaftCluster::new(3, 1, 2, NetConfig::lan(), 42));
    compose(
        "raft",
        "Raft",
        Some("Raft"),
        "Randomized election timeouts pick a leader; the leader's no-op \
         entry flushes the inherited log suffix (Raft's value discovery), \
         then AppendEntries replicates client commands to a majority.",
        "3 replicas, 1 client issuing 2 commands, LAN delays, seed 42.",
        &cluster.sim,
        Some(
            "Raft batches on the wire rather than in the log: appended entries \
             accumulate into a wave that ships as one `AppendEntries` fan-out, \
             and `pipeline_window` bounds the committed-to-flushed gap. The \
             log itself is unchanged, so followers and snapshots are oblivious \
             to the knob.",
        ),
    )
}

fn two_pc_page() -> FigurePage {
    // 2PC is Paxos Commit at F = 0.
    let sim = atomic_commit::paxos_commit::build(&[true, true, true], 0, NetConfig::lan(), 42);
    let sim = run_traced(sim, 1);
    compose(
        "2pc",
        "Two-Phase Commit",
        Some("2PC"),
        "The fixed coordinator collects votes (its value-discovery phase — \
         2PC has no leader election and no fault-tolerant agreement round) \
         and broadcasts the global decision. A coordinator crash between \
         the phases blocks everyone, which is what 3PC fixes.",
        "1 coordinator + 3 participants, all voting yes, LAN delays, seed 42.",
        &sim,
        None,
    )
}

fn three_pc_page() -> FigurePage {
    use atomic_commit::three_phase::{build, CrashPoint};
    let sim = build(
        &[true, true],
        CrashPoint::AfterPreCommit,
        NetConfig::lan(),
        42,
    );
    let sim = run_traced(sim, 3);
    compose(
        "3pc",
        "Three-Phase Commit",
        Some("3PC"),
        "3PC inserts a pre-commit round between voting and commit: the \
         decision is replicated before anyone acts on it, so a recovery \
         coordinator (3PC's only leader-election moment) can finish the \
         transaction after the original coordinator freezes.",
        "1 coordinator + 2 participants, all voting yes; the coordinator \
         crashes right after broadcasting pre-commit and a participant \
         takes over. LAN delays, seed 42.",
        &sim,
        None,
    )
}

fn ben_or_page() -> FigurePage {
    let mut sim: Sim<agreement::ben_or::BenOrNode> = Sim::new(NetConfig::asynchronous(), 42);
    for _ in 0..5 {
        sim.add_node(agreement::ben_or::BenOrNode::new(5, 1, 1));
    }
    let sim = run_traced(sim, 10);
    compose(
        "ben-or",
        "Ben-Or randomized consensus",
        None,
        "Fully asynchronous binary consensus that circumvents FLP with coin \
         flips. There is no leader election at all; each round reports \
         values (value discovery), proposes on majority (agreement), and \
         decides once f+1 nodes back the same proposal.",
        "5 nodes, f = 1, unanimous input 1 (decides in one round — the \
         validity case), asynchronous network, seed 42.",
        &sim,
        None,
    )
}

fn pbft_page() -> FigurePage {
    let cluster = traced(bft::pbft::PbftCluster::new(4, 1, 2, NetConfig::lan(), 42));
    compose(
        "pbft",
        "PBFT",
        Some("PBFT"),
        "The primary's pre-prepare binds a request to a sequence number \
         (value discovery); the all-to-all prepare and commit rounds are \
         the O(N²) agreement phase; execution after a commit quorum is the \
         decision.",
        "4 replicas (f = 1), 1 client issuing 2 commands, LAN delays, seed 42.",
        &cluster.sim,
        Some(
            "Batching matters most here: one pre-prepare/prepare/commit \
             three-phase exchange — the O(N²) part — covers the whole batch, \
             so the quadratic cost is amortized over `max_batch` commands. \
             View changes carry prepared *batches*, and the new primary \
             re-pre-prepares them wholesale.",
        ),
    )
}

fn hotstuff_page() -> FigurePage {
    use bft::hotstuff::{HsCluster, HsConfig};
    let cfg = HsConfig {
        window: 2,
        ..HsConfig::pipelined(4)
    };
    let cluster = traced(HsCluster::new(cfg, 1, 3, NetConfig::lan(), 42));
    compose(
        "hotstuff",
        "HotStuff",
        Some("HotStuff"),
        "Linear communication: replicas vote to the leader, who aggregates \
         a quorum certificate per phase. The extra phase (prepare, \
         pre-commit, commit) buys responsive leader rotation at O(N) \
         messages.",
        "4 replicas, pipelined mode, 3 commands with window 2, LAN delays, \
         seed 42.",
        &cluster.sim,
        None,
    )
}

fn zyzzyva_page() -> FigurePage {
    let cluster = traced(bft::zyzzyva::ZyzCluster::new(4, 1, 2, NetConfig::lan(), 42));
    compose(
        "zyzzyva",
        "Zyzzyva",
        Some("Zyzzyva"),
        "Speculative BFT: replicas execute in primary order immediately and \
         reply to the client, collapsing agreement and decision into one \
         optimistic step. The client is the real commitment point — it \
         needs all 3f+1 matching replies for the fast path.",
        "4 replicas (f = 1), 1 client issuing 2 commands, LAN delays, seed 42.",
        &cluster.sim,
        None,
    )
}

fn minbft_page() -> FigurePage {
    let cluster = traced(bft::minbft::MinCluster::new(3, 1, 2, NetConfig::lan(), 42));
    compose(
        "minbft",
        "MinBFT",
        Some("MinBFT"),
        "A trusted monotonic counter (USIG) per replica prevents \
         equivocation, cutting the replica count to 2f+1 and the agreement \
         exchange to two rounds (prepare/commit).",
        "3 replicas (f = 1), 1 client issuing 2 commands, LAN delays, seed 42.",
        &cluster.sim,
        None,
    )
}

fn cheapbft_page() -> FigurePage {
    let cluster = traced(bft::cheapbft::CheapCluster::new(
        4,
        1,
        2,
        NetConfig::lan(),
        42,
    ));
    compose(
        "cheapbft",
        "CheapBFT",
        Some("CheapBFT"),
        "Optimistic resource use: only f+1 active replicas execute in the \
         fault-free case while passive replicas just receive state updates; \
         a suspected fault activates them.",
        "4 replicas (f = 1, 2 active), 1 client issuing 2 commands, LAN \
         delays, seed 42.",
        &cluster.sim,
        None,
    )
}

fn xft_page() -> FigurePage {
    let cluster = traced(bft::xft::XftCluster::new(5, 1, 2, NetConfig::lan(), 42));
    compose(
        "xft",
        "XFT",
        Some("XFT"),
        "Cross fault tolerance: tolerates Byzantine machines as long as a \
         majority of replicas are correct and synchronous, so it runs \
         crash-fault-style quorums (n = 2f+1) with Byzantine-grade \
         authentication.",
        "5 replicas, 1 client issuing 2 commands, LAN delays, seed 42.",
        &cluster.sim,
        None,
    )
}

fn seemore_page() -> FigurePage {
    let cfg = bft::seemore::SeeMoReConfig {
        m: 1,
        c: 1,
        mode: bft::seemore::Mode::One,
    };
    let cluster = traced(bft::seemore::SmCluster::new(
        cfg,
        1,
        2,
        NetConfig::lan(),
        42,
    ));
    compose(
        "seemore",
        "SeeMoRe",
        Some("SeeMoRe"),
        "Hybrid-cloud consensus for m malicious public-cloud and c crashed \
         private-cloud nodes (n = 3m + 2c + 1). Mode one keeps a trusted \
         private-cloud primary and centralized coordination.",
        "m = 1, c = 1 (6 nodes), mode one, 1 client issuing 2 commands, \
         LAN delays, seed 42.",
        &cluster.sim,
        None,
    )
}

/// Each shard group is its own simulator; folds the shards' counters into
/// one table (the latency histograms are left for the page to fill).
fn shard_metrics(s: &store::Store<paxos::MultiPaxosCluster>) -> Metrics {
    use consensus_core::driver::ClusterDriver;

    let mut m = Metrics::default();
    for shard in s.shards() {
        let sm = shard.metrics();
        m.sent += sm.sent;
        m.delivered += sm.delivered;
        m.dropped += sm.dropped;
        m.dropped_partition += sm.dropped_partition;
        m.dropped_loss += sm.dropped_loss;
        m.dropped_filter += sm.dropped_filter;
        m.dropped_dead += sm.dropped_dead;
        m.duplicated += sm.duplicated;
        m.bytes_sent += sm.bytes_sent;
        m.timer_fires += sm.timer_fires;
        m.crashes += sm.crashes;
        m.restarts += sm.restarts;
        m.spans_opened += sm.spans_opened;
        m.spans_closed += sm.spans_closed;
        for (kind, sent, bytes) in sm.kinds() {
            m.add_kind(kind, sent, bytes);
        }
        for (total, n) in m.phase_entries.iter_mut().zip(sm.phase_entries) {
            *total += n;
        }
    }
    m
}

fn store_page() -> FigurePage {
    use consensus_core::txn::TxnDecision;
    use store::{Store, StoreConfig};

    let mut s: Store<paxos::MultiPaxosCluster> = Store::new(StoreConfig::new(42));
    assert!(s.run(Time(20_000_000)), "store scenario stalled");

    // The "instance" at this layer is a cross-shard transaction, so the
    // latency histogram is refilled from the routers' begin-to-outcome
    // samples.
    let mut m = shard_metrics(&s);
    for &us in s.txn_latencies().samples() {
        m.instance_latency.record(us);
    }

    let outcomes = s.outcomes();
    let committed = outcomes
        .iter()
        .filter(|o| o.decision == TxnDecision::Commit)
        .count();
    let multi = outcomes.iter().filter(|o| o.span > 1).count();

    let mut body = String::from(
        "# Sharded KV store: 2PC over consensus groups\n\n\
         The capstone system: a linearizable key-value store partitioned \
         into hash-range shards, each shard a consensus group, with \
         cross-shard transactions committed by two-phase commit *whose \
         coordinator state lives in the replicated logs themselves* \
         (Gray & Lamport's transaction-commit-on-consensus). The decision \
         record is a compare-and-swap on the coordinator shard's log, so \
         exactly one of commit/abort can ever win — a crashed coordinator \
         router never blocks anyone, because a recovery actor can finish \
         (or safely abort) the transaction from the replicated state \
         alone. Compare the blocking window on the plain \
         [2PC page](2pc.md).\n\n\
         *(No single taxonomy info card — this page composes the 2PC card \
         with the Paxos card: commitment layered over agreement.)*\n\n\
         ## Scenario\n\n\
         3 shards × 3 Multi-Paxos replicas, 2 routers running a \
         seed-generated mix of single-key operations and multi-shard \
         transactions, plus a recovery actor and a read-only audit pass, \
         seed 42. The store is engine-generic: the same harness runs over \
         Raft (`Store<RaftCluster>`), and the nemesis targets \
         `store-paxos` / `store-raft` subject both to randomized fault \
         schedules.\n\n\
         ## Message flow\n\n\
         A transaction touching shards 0 and 2, coordinated on shard 0:\n\n\
         ```mermaid\nflowchart TB\n\
         subgraph routers [routers — 2PC coordinators]\n\
         r0([router 0])\n r1([router 1])\n end\n\
         sm[[ShardMap: hash-range → shard]]\n\
         subgraph s0 [shard 0 — consensus group]\n\
         n0[(n0)] --- n1[(n1)] --- n2[(n2)]\n end\n\
         subgraph s1 [shard 1 — consensus group]\n\
         n3[(n3)] --- n4[(n4)] --- n5[(n5)]\n end\n\
         subgraph s2 [shard 2 — consensus group]\n\
         n6[(n6)] --- n7[(n7)] --- n8[(n8)]\n end\n\
         rec([recovery actor])\n\
         r0 --> sm\n r1 --> sm\n\
         sm -->|\"1. intent ~txn.T + 3. decide CAS ~dec.T\"| s0\n\
         sm -->|\"2. prepare ~prep.T.s2, 4. write k@T\"| s2\n\
         sm -.->|\"single-key ops\"| s1\n\
         rec -.->|\"abort-CAS orphaned ~dec.T\"| s0\n\
         ```\n\n\
         Every arrow is itself a replicated log append inside the target \
         shard (three replicas, leader election, the works). The commit \
         point is step 3: a `Cas { expect: \"pending\", new: \"commit\" }` \
         on the decision key — serialized by the coordinator shard's log, \
         it can be won at most once, by the router *or* by recovery's \
         abort, never both. Data writes are disseminated only after the \
         decision is durable.\n\n\
         ## Span events\n\n\
         The router harness tags its deterministic trace with the \
         transaction phases (intent/prepare/decide), mirroring the C&C \
         span convention of the single-group pages:\n\n",
    );
    body.push_str(&render::excerpt(s.trace(), MAX_SPANS, ""));
    body.push_str("\n## Measured\n\nSummed across the three shard simulators; \"instances\" are transactions:\n\n");
    body.push_str(&render::metrics_table(&m));
    body.push_str(&format!(
        "\nTransactions: {} total, {} committed, {} multi-shard; run \
         fingerprint (trace ⊕ outcomes ⊕ replica digests) `{:#018x}` — \
         byte-identical on every machine, like every page here.\n",
        outcomes.len(),
        committed,
        multi,
        s.fingerprint(),
    ));
    page("store", "Sharded KV store (2PC over consensus)", body)
}

fn geo_page() -> FigurePage {
    use store::{GeoConfig, Store, StoreConfig};

    // The canonical three-datacenter deployment, one router per region.
    let mut s: Store<paxos::MultiPaxosCluster> =
        Store::new(StoreConfig::new(42).routers(3).geo(GeoConfig::three_dc()));
    assert!(s.run(Time(60_000_000)), "geo scenario stalled");

    // The "instance" at this layer is a geo fast-path read.
    let mut m = shard_metrics(&s);
    let reads = s.read_outcomes();
    for r in &reads {
        m.instance_latency.record(r.latency_us);
    }

    // Measured local-vs-WAN latency, both engines, from the geo bench's
    // smoke grid (primary-witness placement, 80% local mix).
    let bench_points = Geo::run(&smoke_spec());

    let mut body = String::from(
        "# Geo deployment: WAN regions, leases, and local reads\n\n\
         The sharded store stretched across three datacenters: every shard's \
         consensus group is *placed* onto regions by a `PlacementPolicy` \
         (serialized inside the `ShardMap`, so all routers provably agree), \
         and each region's router gains a fast read path that serves \
         linearizable reads without paying the WAN when the protocol can \
         prove it legal — clock-bound **leader leases** on Multi-Paxos, \
         clock-free **read-index** follower reads on Raft. A replica that \
         cannot prove safety NACKs and the router falls back to the ordinary \
         log round: always correct, only slower.\n\n\
         *(No single taxonomy info card — this page composes the store's \
         2PC-over-consensus card set with the WAN deployment.)*\n\n\
         ## Scenario\n\n\
         3 shards × 3 Multi-Paxos replicas placed primary-witness over the \
         `three_dc` WAN topology (intra-region delay 0.2–0.8 ms one way, \
         inter-region 18–27 ms), one router per region running the usual \
         transaction mix plus 8 fast-path reads with an 80% region-local \
         key mix, seed 42. The same harness runs over Raft \
         (`Store<RaftCluster>`); the nemesis target `store-geo` subjects \
         this exact deployment to lease-edge clock skew and region \
         partitions.\n\n\
         ## Region topology\n\n\
         Primary-witness placement homes a majority of each shard (with the \
         likely leader) in one region and spreads witness replicas over the \
         others — commits stay region-local while the data survives a \
         region outage:\n\n\
         ```mermaid\nflowchart TB\n\
         subgraph us [region us — primary for shard 0]\n\
         r0([router 0])\n s0a[(s0 n0)] --- s0b[(s0 n1)]\n \
         s1w[(s1 witness)]\n s2w[(s2 witness)]\n end\n\
         subgraph eu [region eu — primary for shard 1]\n\
         r1([router 1])\n s1a[(s1 n0)] --- s1b[(s1 n1)]\n \
         s2x[(s2 witness)]\n s0w[(s0 witness)]\n end\n\
         subgraph ap [region ap — primary for shard 2]\n\
         r2([router 2])\n s2a[(s2 n0)] --- s2b[(s2 n1)]\n \
         s0x[(s0 witness)]\n s1x[(s1 witness)]\n end\n\
         r0 -->|\"lease read, ~0.5 ms\"| s0a\n\
         r0 -.->|\"remote read, WAN\"| s1a\n\
         us ===|\"18–27 ms one way\"| eu\n\
         eu ===|\"18–27 ms\"| ap\n\
         us ===|\"18–27 ms\"| ap\n\
         ```\n\n\
         ## Fast-read decision table\n\n",
    );
    let nack = "NACK → router falls back to the log";
    body.push_str(&render::table(
        &["Engine", "Replica's proof", "Outcome"],
        [
            [
                "Multi-Paxos",
                "holds the leader lease, clock-skew bound ≤ 5 ms",
                "serve locally (`Lease`)",
            ],
            [
                "Multi-Paxos",
                "lease expired / skew past bound / not leader",
                nack,
            ],
            [
                "Raft",
                "any replica; confirms commit index with the leader, waits until applied",
                "serve from own state (`ReadIndex`)",
            ],
            [
                "Raft",
                "leadership unconfirmable (election, partition)",
                nack,
            ],
            [
                "either",
                "fallback",
                "full consensus round (`Log`) — correct, pays the WAN",
            ],
        ],
    ));
    body.push_str(
        "\nLeases trade a clock assumption for zero-WAN reads at the primary; \
         read-index trades an extra confirmation round (pipelined off the \
         critical path only when the *leader* is remote but a replica is \
         local) for clock-freedom. The `store-geo` nemesis target drives \
         skew straddling the 5 ms bound and asserts a served fast read is \
         never stale.\n\n\
         ## Span events\n\n\
         The routers tag their deterministic trace with `georead` lines — \
         target region, serve mode, and latency:\n\n",
    );
    let geo_lines: Vec<&String> = s.trace().iter().filter(|l| l.contains("georead")).collect();
    body.push_str(&render::excerpt(&geo_lines, MAX_SPANS, ""));
    body.push_str(
        "\n## Measured\n\nSummed across the three shard simulators; \
         \"instances\" are geo fast-path reads:\n\n",
    );
    body.push_str(&render::metrics_table(&m));
    body.push_str(
        "\nLocal-vs-WAN read latency, both engines (primary-witness \
         placement, 80% local mix, from `cargo run --release -p bench -- geo \
         --smoke`):\n\n",
    );
    let header = [
        "Engine",
        "Fast mode",
        "p50 primary-local (µs)",
        "p99 primary-local (µs)",
        "p50 other reads (µs)",
        "log fallbacks",
    ];
    let rows = bench_points.iter().map(|p| {
        let mode = if p.engine == "raft" {
            "read-index"
        } else {
            "lease"
        };
        let (p50, p99) = (p.p50_primary_local_us, p.p99_primary_local_us);
        let counts = [p50, p99, p.p50_other_us, p.log_fallbacks as u64];
        [p.engine.to_string(), mode.into()]
            .into_iter()
            .chain(counts.map(|n| n.to_string()))
    });
    body.push_str(&render::table(&header, rows));
    body.push_str(&format!(
        "\nOne inter-region round trip costs ≥ 36 000 µs — primary-local \
         reads come in orders of magnitude under it, which is the whole \
         point. `BENCH_geo.json` pins the full placement × locality grid \
         behind a CI gate. Run fingerprint (trace ⊕ outcomes ⊕ replica \
         digests) `{:#018x}` — byte-identical on every machine, like every \
         page here.\n",
        s.fingerprint(),
    ));
    page(
        "geo",
        "Geo deployment (WAN regions, leases, local reads)",
        body,
    )
}

fn paxos_commit_page() -> FigurePage {
    use atomic_commit::paxos_commit::{self, CrashPoint, Layout};
    use atomic_commit::TxnState;

    // The headline run: F = 1, unanimous yes-votes, and the leader
    // coordinator crashes inside 2PC's blocking window. The backup
    // coordinator completes the commit from the replicated votes.
    let votes = [true, true, true];
    let crashed =
        paxos_commit::build_with_crash(&votes, 1, CrashPoint::AfterVotes, NetConfig::lan(), 42);
    let crashed = run_traced(crashed, 2);
    let states = paxos_commit::participant_states(&crashed);
    assert!(
        states.iter().all(|s| *s == TxnState::Committed),
        "paxos-commit page scenario failed to commit: {states:?}"
    );

    // The cost axis: fault-free message bills as F grows (F = 0 is 2PC's
    // pattern, one acceptor co-located with the lone coordinator).
    let costs: Vec<[String; 5]> = (0..3usize)
        .map(|f| {
            let layout = Layout {
                f,
                n_rms: votes.len(),
            };
            let mut sim = paxos_commit::build(&votes, f, NetConfig::lan(), 42);
            sim.run_until(Time::from_secs(2));
            assert!(
                paxos_commit::participant_states(&sim)
                    .iter()
                    .all(|s| *s == TxnState::Committed),
                "fault-free F={f} run failed to commit"
            );
            let sent = sim.metrics().sent as usize;
            let (coordinators, acceptors) = (layout.n_coordinators(), layout.n_acceptors());
            [f, coordinators, acceptors, layout.quorum(), sent].map(|n| n.to_string())
        })
        .collect();

    let mut body = String::from(
        "# Paxos Commit (non-blocking atomic commit)\n\n\
         Gray & Lamport's *Consensus on Transaction Commit*: run one Paxos \
         instance per participant **vote** instead of trusting a single \
         coordinator's memory of the votes. Each resource manager proposes \
         `Prepared`/`Aborted` in its own instance over a shared set of \
         `2F + 1` acceptors; any of the `F + 1` coordinators can then read \
         the decided votes and announce the outcome, which is a pure \
         function of them. At `F = 0` the protocol *is* 2PC — same message \
         pattern, same blocking window — and every `F` above that buys \
         crash tolerance with more acceptors, not more phases.\n\n\
         *(No single taxonomy info card — this page composes the 2PC card \
         with the Paxos card: one consensus instance per vote.)*\n\n\
         ## Scenario\n\n\
         `F = 1`: 3 acceptors (nodes 0–2) with coordinators co-located on \
         nodes 0–1 (node 0 leading), and 3 resource managers (nodes 3–5) \
         all voting yes. The leader coordinator freezes after learning \
         every vote and before any decision escapes — exactly the crash \
         that blocks 2PC forever — and the backup coordinator completes \
         the commit. LAN delays, seed 42.\n\n\
         ## Message flow\n\n\
         ```mermaid\nflowchart TB\n\
         subgraph coords [coordinators — F+1 of them]\n\
         c0([c0 leader ☠]) \n c1([c1 backup])\n end\n\
         subgraph acc [shared acceptor set — 2F+1]\n\
         a0[(a0)] --- a1[(a1)] --- a2[(a2)]\n end\n\
         subgraph rms [resource managers]\n\
         rm0([rm0]) \n rm1([rm1]) \n rm2([rm2])\n end\n\
         c0 -->|\"1. vote request\"| rms\n\
         rm0 -->|\"2. accept? Prepared (own instance)\"| acc\n\
         rm1 -->|\"2. accept? Prepared\"| acc\n\
         rm2 -->|\"2. accept? Prepared\"| acc\n\
         acc -->|\"3. accepted (per instance)\"| c0\n\
         acc -->|\"3'. accepted\"| c1\n\
         c1 -->|\"4. commit (after c0 stays silent)\"| rms\n\
         ```\n\n\
         Each vote instance decides once a majority (`F + 1`) of acceptors \
         accept it; a recovering coordinator runs Paxos phase 1 on any \
         undecided instance and is free to propose `Aborted` for an RM \
         that never voted — abort is always safe, losing a commit is \
         not.\n\n\
         ## The F knob\n\n\
         Fault-free cost of the same unanimous-yes transaction as the \
         tolerated coordinator/acceptor crash count grows (measured, seed \
         42):\n\n",
    );
    let header = ["F", "coordinators", "acceptors", "quorum", "messages"];
    body.push_str(&render::table(&header, costs));
    body.push_str(
        "\nAt `F = 0` the message pattern is 2PC's: the `f0_reduces_to_\
         two_pc_message_pattern` test in `crates/commit` pins the count to \
         2PC's `3n`, and the outcome rule (commit iff every vote is yes) \
         is swept across seeds.\n\n\
         ## In the sharded store\n\n\
         The store runs this protocol one layer up as its third commit \
         backend (`CommitBackend::PaxosCommit`): vote registers \
         `~vote.<tid>.s<k>` live in the participant shards' replicated \
         logs, resolved by a log-serialized compare-and-swap \
         `pending → prepared|aborted`, and a prepared vote carries the \
         shard-local write-set so *any* recovery coordinator can finish \
         the transaction from the replicated votes alone. Experiment \
         `f28` races the three backends under an identical \
         coordinator-crash schedule: raw 2PC stalls the orphan forever, \
         2PC-over-consensus recovers it by aborting, Paxos Commit \
         recovers the *commit*. See the \"Sharded store\" section of \
         `EXPERIMENTS.md` and the [store page](store.md).\n\n\
         ## Span events\n\n",
    );
    body.push_str(&render::span_excerpt(crashed.trace(), MAX_SPANS));
    body.push_str("\n## Measured\n\nThe crashed-leader headline run:\n\n");
    body.push_str(&render::metrics_table(crashed.metrics()));
    page(
        "paxos-commit",
        "Paxos Commit (non-blocking atomic commit)",
        body,
    )
}

/// The per-replica engine counters of a durable cluster, one row each.
fn storage_table(stats: impl Iterator<Item = Option<storage::StorageStats>>) -> String {
    let header = [
        "replica",
        "pool hits",
        "pool misses",
        "WAL appends",
        "WAL flushes",
        "checkpoints",
        "recoveries",
        "records replayed",
        "disk µs",
    ];
    let rows = stats.enumerate().map(|(i, s)| {
        let s = s.expect("durable engine attached");
        let counters = [
            s.pool_hits,
            s.pool_misses,
            s.wal_appends,
            s.wal_flushes,
            s.snapshots_written,
            s.recoveries,
            s.records_replayed,
            s.io_time_us,
        ];
        std::iter::once(format!("n{i}")).chain(counters.map(|c| c.to_string()))
    });
    render::table(&header, rows)
}

fn storage_page() -> FigurePage {
    use simnet::DiskModel;

    let mut cluster =
        paxos::MultiPaxosCluster::new(QuorumSpec::Majority { n: 3 }, 1, 30, NetConfig::lan(), 42)
            .with_durability(8, DiskModel::ssd());
    cluster.sim.record_trace(true);
    cluster.run(Time::from_secs(20));
    // Crash and restart one replica so the recovery numbers below come from
    // a real checkpoint-load + WAL-replay pass, not a staged example.
    crash_and_restart(&mut cluster.sim, 2);

    let stats = storage_table(cluster.replicas().map(|r| r.storage_stats()));
    let rec = cluster.replicas().nth(2).expect("replica 2 exists");
    let recovery_line = format!(
        "Replica n2's restart loaded the checkpoint at floor {} and replayed \
         {} WAL record(s) — not the full {}-entry log — charging {} µs of \
         modeled disk time before rejoining the group.\n",
        rec.disk.durable.recovered_floor,
        rec.disk.durable.last_recovery_replayed,
        rec.log.applied_len(),
        rec.disk.durable.last_recovery_io_us,
    );

    // Same engine, same schedule, Raft on top: the durability contract is
    // engine-agnostic, so the page shows both consensus protocols recovering
    // through the identical checkpoint + WAL-replay path.
    let mut rcluster = raft::RaftCluster::new(3, 1, 30, NetConfig::lan(), 42)
        .with_durability(8, simnet::DiskModel::ssd());
    rcluster.run(Time::from_secs(20));
    crash_and_restart(&mut rcluster.sim, 2);
    let raft_stats = storage_table(rcluster.replicas().map(|r| r.storage_stats()));
    let rrec = rcluster.replicas().nth(2).expect("replica 2 exists");
    let raft_recovery_line = format!(
        "Replica n2's restart recovered hard state (term {}), loaded the \
         snapshot at floor {}, and replayed {} WAL record(s) before applying \
         back up to index {} — charging {} µs of modeled disk time.\n",
        rrec.current_term,
        rrec.disk.durable.recovered_floor,
        rrec.disk.durable.last_recovery_replayed,
        rrec.last_applied(),
        rrec.disk.durable.last_recovery_io_us,
    );

    // Sharded range queries: one router fans a `Range` to every durable
    // Raft shard (B+ tree leaf-chain scans) and merges the per-shard
    // top-`limit` answers.
    let range_cfg = store::StoreConfig::new(21)
        .routers(1)
        .singles_per_router(6)
        .ranges_per_router(2)
        .durable(8, simnet::DiskModel::ssd());
    let mut range_store = store::Store::<raft::RaftCluster>::new(range_cfg);
    assert!(range_store.run(Time::from_secs(30)), "range store stalled");
    let ranges: Vec<[String; 3]> = range_store
        .range_results()
        .iter()
        .map(|o| {
            let shards: std::collections::BTreeSet<usize> = o
                .entries
                .iter()
                .map(|(k, _)| range_store.shard_map().group_of(k))
                .collect();
            let shards: Vec<String> = shards.iter().map(|s| format!("s{s}")).collect();
            let merged = if shards.is_empty() {
                "—".to_string()
            } else {
                format!("{} entries from {}", o.entries.len(), shards.join(" "))
            };
            [
                format!("`[{}, {})`", o.start, o.end),
                o.limit.to_string(),
                merged,
            ]
        })
        .collect();

    let mut body = String::from(
        "# Durable storage engine\n\n\
         The durability substrate under the consensus pages: a page-based \
         disk manager with a deterministic latency model, a write-ahead log \
         with group commit and checksummed records, a CLOCK buffer pool with \
         dirty-page write-back, and a B+ tree primary index — all behind the \
         `StorageEngine` trait (`crates/storage`). On this page the stack is \
         wired under three Multi-Paxos replicas: every promise, accept, and \
         decide is WAL-logged before the acknowledgement leaves the node, \
         checkpoints truncate the log, and a restarted replica recovers from \
         checkpoint + WAL replay instead of refetching from its peers.\n\n\
         *(No taxonomy info card — storage is the survey's durability \
         substrate, not a consensus protocol.)*\n\n\
         ## Scenario\n\n\
         3 durable Multi-Paxos replicas (checkpoint every 8 applied entries, \
         SSD latency profile), 1 client issuing 30 commands, LAN delays, \
         seed 42. After the workload completes, replica n2 crashes and \
         restarts; the recovery statistics below are harvested from that \
         pass.\n\n\
         ## Storage stack & page layout\n\n\
         ```mermaid\nflowchart TB\n\
         subgraph replica [one replica]\n\
         mp[Multi-Paxos replica] --> se{{StorageEngine trait}}\n end\n\
         subgraph engine [DurableEngine]\n\
         se --> wal[WAL: group commit]\n\
         se --> bt[B+ tree primary index]\n\
         bt --> bp[buffer pool: CLOCK eviction]\n\
         se --> snap[checkpoint blob]\n end\n\
         subgraph disk [SimDisk: seek_us + bytes/us latency accounting]\n\
         wal --> logr[(log region)]\n\
         bp --> pages[(4 KiB pages)]\n\
         snap --> snapr[(snapshot region)]\n end\n\
         ```\n\n\
         Pages are 4096 bytes. A leaf page is \
         `tag=0, n: u16, next_leaf: u32, n x (klen, vlen, key, value)`; an \
         internal page is `tag=1, n: u16, child0: u32, n x (klen, key, \
         child)` — little-endian, split on overflow, chained leaves for \
         range scans. The disk charges `seek_us + size/bytes_per_us` per \
         I/O into counters without scheduling simulator events, so \
         attaching the engine cannot perturb message timing.\n\n\
         ## WAL record format\n\n\
         Framing, all little-endian; replay stops at the first torn or \
         corrupt record, keeping the consistent prefix:\n\n",
    );
    body.push_str(&render::table(
        &["field", "size", "meaning"],
        [
            ["`len`", "4 B", "payload length in bytes"],
            ["`crc`", "4 B", "CRC32 of the payload"],
            ["`payload`", "`len` B", "one consensus durability record"],
        ],
    ));
    body.push_str(
        "\nPayload encodings (the first word is the tag), one record set for \
         Multi-Paxos and Raft (`consensus_core::durable`):\n\n",
    );
    body.push_str(&render::table(
        &["tag", "record", "fields", "Multi-Paxos", "Raft"],
        [
            [
                "1",
                "`Promise`",
                "ballot (number, proposer)",
                "its promise",
                "`current_term`, `voted_for` (`u32::MAX` = none)",
            ],
            [
                "2",
                "`Accept`",
                "index, ballot, operation",
                "an accept",
                "an append; ballot = (entry term, 0)",
            ],
            [
                "3",
                "`Decide`",
                "index, operation",
                "a learned decision",
                "—",
            ],
            [
                "4",
                "`TxnDecision`",
                "decision key, decision value",
                "yes",
                "yes",
            ],
            ["5", "`Commit`", "commit index", "—", "its commit index"],
        ],
    ));
    body.push_str(
        "\nA record is logged *before* the message it justifies is sent \
         (promise before `PrepareAck`, accept before `Accepted`, decide \
         before apply), and one `sync` covers everything a handler logged — \
         group commit, one seek per handler. `TxnDecision` records make \
         the store's transaction outcomes first-class durable state: when \
         an applied slot resolves a `~dec.` decision key, the replica logs \
         and syncs the resolution before its replies leave \
         (WAL-before-decision), and recovery rebuilds the decision table \
         from checkpoint plus replay.\n\n\
         ## Buffer pool & recovery\n\n\
         Per-replica engine counters at the end of the run:\n\n",
    );
    body.push_str(&stats);
    body.push('\n');
    body.push_str(&recovery_line);
    body.push_str(
        "\n## Raft on the same engine\n\n\
         The `StorageEngine` contract is engine-agnostic, and Raft uses it \
         exactly as Multi-Paxos does: every durable state transition is \
         WAL-logged before the message it justifies leaves the node, \
         snapshots truncate the log, and a restarted replica recovers from \
         snapshot + WAL replay instead of refetching from its peers. It \
         writes the same records (table above): its term and vote as a \
         `Promise`, synced before any vote or term change is acknowledged; \
         each append as an `Accept`, synced before the corresponding \
         `AppendResponse` (on the leader, before the entry is replicated) — \
         replaying an append drops the entries at and above its index, so a \
         conflicting suffix needs no record of its own; and `Commit` \
         records, which bound replay on restart. The same scenario as \
         above (3 replicas, 30 commands, checkpoint every 8, SSD, seed 42; \
         n2 crashes and restarts) under Raft:\n\n",
    );
    body.push_str(&raft_stats);
    body.push('\n');
    body.push_str(&raft_recovery_line);
    body.push_str(
        "\n## Sharded range queries\n\n\
         `KvCommand::Range { start, end, limit }` is the one store \
         operation that exercises the B+ tree as a *tree* rather than a \
         map: a durable shard serves it by walking the leaf chain from \
         `start` (`scan`), so range cost is proportional to the keys \
         returned, not the keys stored. Hash partitioning scatters adjacent \
         keys across shards, so the store's router fans every range to all \
         shards with the same `limit`, then sorts the union and truncates \
         to `limit` — sound because the global top-`limit` is a subset of \
         the union of per-shard top-`limit`s, and duplicate-free because \
         shards own disjoint keys. A sample run (1 router, 6 singles, 2 \
         ranges, durable Raft shards, seed 21):\n\n",
    );
    body.push_str(&render::table(&["range", "limit", "merged result"], ranges));
    body.push_str(
        "\nRAM and durable shards must merge identical answers \
         (`range_results_are_identical_across_engines_and_knobs` in \
         `store_smoke`), and the nemesis range checker holds every merged \
         scan to the snapshot-read rule: a scan may never surface a write \
         from a transaction whose commit decision was not yet durable.\n",
    );
    body.push_str(
        "\nThe cold-restart experiment (recovery time vs checkpoint \
         threshold, engine × disk × threshold) is measured by `cargo run \
         --release -p bench -- recovery` and checked in as \
         `BENCH_recovery.json`; see the \"Durability & recovery\" section \
         of `EXPERIMENTS.md`.\n",
    );
    body.push_str("\n## Span events\n\n");
    body.push_str(
        "The consensus layer's C&C span tags are unchanged by durability — \
         the engine adds I/O accounting, not protocol steps:\n\n",
    );
    body.push_str(&render::span_excerpt(cluster.sim.trace(), MAX_SPANS));
    body.push_str("\n## Measured\n\n");
    body.push_str(&render::metrics_table(cluster.sim.metrics()));
    page("storage", "Durable storage engine", body)
}

fn tendermint_page() -> FigurePage {
    let mut sim: Sim<blockchain::permissioned::Validator> = Sim::new(NetConfig::lan(), 42);
    for _ in 0..4 {
        sim.add_node(blockchain::permissioned::Validator::new(4, 2));
    }
    let sim = run_traced(sim, 10);
    compose(
        "tendermint",
        "Permissioned blockchain (Tendermint-style)",
        None,
        "PBFT-shaped rounds over blocks with round-robin proposers: the \
         rotation is the leader election, proposing a block is value \
         discovery, and the prevote/precommit quorums are the agreement \
         phase before the block commits.",
        "4 validators committing 2 blocks, LAN delays, seed 42.",
        &sim,
        None,
    )
}

/// Builds every protocol page, in the order they appear in the index.
pub fn all_pages() -> Vec<FigurePage> {
    vec![
        paxos_page(),
        multi_paxos_page(),
        raft_page(),
        two_pc_page(),
        three_pc_page(),
        ben_or_page(),
        pbft_page(),
        hotstuff_page(),
        zyzzyva_page(),
        minbft_page(),
        cheapbft_page(),
        xft_page(),
        seemore_page(),
        tendermint_page(),
        paxos_commit_page(),
        store_page(),
        geo_page(),
        storage_page(),
    ]
}

fn render_trace_tree(spans: &[simnet::CausalSpan], trace: u64, max_lines: usize) -> String {
    use std::collections::BTreeMap;
    let mine: Vec<&simnet::CausalSpan> = spans.iter().filter(|s| s.trace_id == trace).collect();
    let ids: std::collections::BTreeSet<u64> = mine.iter().map(|s| s.id).collect();
    let mut children: BTreeMap<u64, Vec<&simnet::CausalSpan>> = BTreeMap::new();
    let mut roots: Vec<&simnet::CausalSpan> = Vec::new();
    for s in &mine {
        if s.parent != 0 && ids.contains(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start, s.id));
    }
    roots.sort_by_key(|s| (s.start, s.id));
    let mut lines: Vec<String> = Vec::new();
    let mut stack: Vec<(&simnet::CausalSpan, usize)> =
        roots.into_iter().rev().map(|s| (s, 0)).collect();
    while let Some((s, depth)) = stack.pop() {
        lines.push(format!(
            "{:indent$}{} [{}] {}–{} µs  site {} node {}",
            "",
            s.name,
            s.cat,
            s.start,
            s.end,
            s.site,
            s.node,
            indent = depth * 2
        ));
        if let Some(kids) = children.get(&s.id) {
            for k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    render::excerpt(&lines, max_lines, " spans in this trace")
}

/// Builds `docs/observability.md`: the causal-tracing walkthrough — a real
/// trace tree from a traced store run, the critical-path bucket
/// decomposition of one cross-shard transaction, and the export surfaces
/// (Chrome trace JSON, flamegraph folded stacks, `BENCH_latency.json`).
pub fn observability_page() -> String {
    use simnet::causal::{cat, folded_stacks};

    use crate::latency;

    let s = latency::traced_example();
    let spans_vec = s.causal_spans();
    let spans: &[simnet::CausalSpan] = &spans_vec;
    let ops = s.op_records();
    let outcomes = s.outcomes();

    // The widest cross-shard transaction is the worked example.
    let max_span = outcomes.iter().map(|o| o.span).max().unwrap_or(0);
    let txn = outcomes
        .iter()
        .find(|o| o.span == max_span)
        .expect("traced example ran transactions");
    let start = txn.at - txn.latency_us;
    let mine: Vec<store::OpRecord> = ops
        .iter()
        .filter(|r| r.client == txn.tid.client && r.started >= start && r.finished <= txn.at)
        .cloned()
        .collect();
    let decision = mine
        .iter()
        .find(|r| r.label == "cas:decision")
        .expect("every committed txn submits a decision CAS");

    let buckets = latency::txn_breakdown(spans, &mine, start, txn.at);
    let bucket_rows = latency::BUCKETS.map(|name| {
        let v = buckets.get(name).copied().unwrap_or(0);
        let share = v * 100 / txn.latency_us.max(1);
        [format!("`{name}`"), v.to_string(), format!("{share}%")]
    });
    let named: u64 = buckets
        .iter()
        .filter(|(k, _)| **k != cat::UNTRACED)
        .map(|(_, v)| *v)
        .sum();

    let folded = folded_stacks(spans);
    let folded_excerpt: Vec<&str> = folded.lines().take(8).collect();

    let mut body = String::from(
        "# Causal tracing & critical-path latency attribution\n\n\
         Every message envelope in the simulator can carry a `TraceCtx` \
         (trace id, parent span, span id). A handler processing a traced \
         delivery automatically stamps the same context on everything it \
         sends, so one client request is followed across the router \
         harness, the 2PC prepares and decision CAS, each shard's \
         consensus rounds, and the WAL group commits — with **zero** \
         protocol cooperation and zero cost when tracing is off (the \
         context is plain data; no RNG draws, no timing changes).\n\n\
         Spans carry an attribution bucket: NIC serialization, network \
         flight per C&C phase, batch-queue wait, WAL fsync, coordinator \
         think time. Post-run, `simnet::causal::attribute_window` charges \
         every microsecond of a request's window to exactly one bucket, \
         so the decomposition reconciles against measured end-to-end \
         latency *by construction*.\n\n\
         ## A real trace tree\n\n",
    );
    body.push_str(&format!(
        "From the durable smoke cell (3 shards × 3 Multi-Paxos replicas, \
         WAL + checkpoints on the SSD profile, seed {}): transaction `{}` \
         spanned {} shards and took {} µs. Its decision CAS — the 2PC \
         commit point, a replicated log append on the coordinator shard — \
         produced this causal tree (site 0 is the router harness, site \
         *s*+1 is shard *s*):\n\n",
        latency::SEED,
        txn.tid,
        txn.span,
        txn.latency_us,
    ));
    body.push_str(&render_trace_tree(spans, decision.trace_id, 28));
    body.push_str(&format!(
        "\nThe `wal-fsync` spans are the group commits the durable engine \
         charged while making the decision durable *before* the acks that \
         release it.\n\n\
         ## Critical-path decomposition\n\n\
         The same transaction's full window ({} µs), partitioned by its \
         operations' causal activity; instants covered by no in-flight \
         operation are the router deciding what to do next \
         (`coord-think`):\n\n",
        txn.latency_us
    ));
    body.push_str(&render::table(&["bucket", "µs", "share"], bucket_rows));
    body.push_str(&format!(
        "\nNamed buckets cover {} of {} µs ({}%); the checked-in sweep \
         (`BENCH_latency.json`) enforces ≥95% reconciliation in every \
         cell via `cargo run --release -p bench -- latency --check`.\n\n\
         ## Exports\n\n\
         * **Chrome trace JSON** — `simnet::causal::chrome_trace(&spans)` \
         renders complete events (`ph:\"X\"`, µs timestamps, pid = site, \
         tid = node) loadable in Perfetto or `chrome://tracing`. Same \
         seed, byte-identical output (pinned by a test).\n\
         * **Flamegraph folded stacks** — \
         `simnet::causal::folded_stacks(&spans)` emits `root;…;leaf µs` \
         lines for `flamegraph.pl` / speedscope. First lines from this \
         run:\n\n```text\n",
        named,
        txn.latency_us,
        named * 100 / txn.latency_us.max(1),
    ));
    for l in &folded_excerpt {
        body.push_str(l);
        body.push('\n');
    }
    body.push_str(&format!(
        "…\n```\n\n\
         * **Nemesis counterexamples** — `cargo run --release -p nemesis -- \
         --replay <file> --trace-out <path>` dumps a fault-schedule \
         counterexample's causal trace next to its JSON artifact, so a \
         minimized failing schedule arrives with the event timeline that \
         explains it.\n\n\
         ## Where the numbers live\n\n\
         * `BENCH_latency.json` — the engine × batching × storage sweep \
         with per-bucket p50/p99 and per-cell reconciliation (experiment \
         F30 in `EXPERIMENTS.md`).\n\
         * Every protocol page's *Measured* table reports spans \
         opened/closed and the delivered-message latency histogram.\n\
         * This example run recorded {} causal spans across {} router \
         operations; span balance (every opened instance closed) is \
         asserted by the cross-protocol smoke tests.\n",
        spans.len(),
        ops.len(),
    ));
    body.push_str(FOOTER);
    body
}

/// Builds the `docs/README.md` index: the cross-protocol comparison table
/// from the full taxonomy plus links to every generated page.
pub fn index_page(pages: &[FigurePage]) -> String {
    let mut out = String::from(
        "# Generated protocol figures\n\n\
         Message-flow diagrams, C&C phase traces, and measured statistics \
         for every protocol in this repository, produced by running each \
         one in the deterministic network simulator. Regenerate with:\n\n\
         ```sh\n\
         cargo run --release -p bench -- figures\n\
         ```\n\n\
         Every page comes from a fixed-seed run, so the output is \
         byte-identical on every machine; CI fails if this tree drifts \
         from the code.\n\n\
         ## Protocol pages\n\n",
    );
    for p in pages {
        out.push_str(&format!("- [{}](protocols/{}.md)\n", p.title, p.slug));
    }
    out.push_str(
        "\n## Cross-cutting\n\n\
         - [Causal tracing & critical-path latency attribution](observability.md)\n",
    );
    out.push_str(
        "\n## Cross-protocol comparison\n\n\
         The survey's summary table, generated from `core/src/taxonomy.rs`:\n\n",
    );
    out.push_str(&render::complexity_table(&all_cards()));
    out.push_str(FOOTER);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_cover_at_least_eight_protocols() {
        let pages = all_pages();
        assert!(pages.len() >= 8, "only {} pages", pages.len());
        let mut slugs: Vec<&str> = pages.iter().map(|p| p.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), pages.len(), "duplicate slugs");
    }

    #[test]
    fn every_page_has_flow_spans_and_metrics() {
        for p in all_pages() {
            assert!(p.body.contains("```mermaid"), "{}: no diagram", p.slug);
            assert!(p.body.contains("## Span events"), "{}: no spans", p.slug);
            assert!(
                p.body.contains("| Messages sent |"),
                "{}: no metrics",
                p.slug
            );
            assert!(
                p.body.contains("phase=") || p.body.contains("open"),
                "{}: span excerpt empty",
                p.slug
            );
        }
    }

    #[test]
    fn index_links_every_page() {
        let pages = all_pages();
        let idx = index_page(&pages);
        for p in &pages {
            assert!(
                idx.contains(&format!("protocols/{}.md", p.slug)),
                "{}",
                p.slug
            );
        }
        assert!(idx.contains("| PBFT |"));
    }
}
