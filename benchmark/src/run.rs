//! One workload, one process: set-up, the timed loop, aggregation, output.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::probes::{Replay, StorageReplay};
use crate::spec::{emitted, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{
    fnv, generate, run_cell, CellResult, IterOpts, Proto, StoreSim, FNV_OFFSET,
};

/// A set-up round is input generation plus one untimed warm-up iteration.
/// This many rounds run before the first timed iteration ...
const SETUP_ROUNDS: u64 = 5;
/// ... and one more after every this-many seconds of measuring, so that the
/// median round is not decided by whatever the host did in the first second.
const SETUP_EVERY_S: f64 = 3.0;
/// Iteration ids of the set-up rounds (timed ids count up from 0).
const WARMUP_BASE: u64 = 960;
/// `sim_*` metrics, count-kind layer metrics and `sim_fingerprint` cover
/// exactly the first this-many iterations, whatever the host's speed, so
/// they are pure functions of `(workload, seed)`. A run always completes
/// at least this many iterations even if `--seconds` is over.
pub const SIM_WINDOW: usize = 20;
/// The same window for traced runs, whose iterations cost several times more.
pub const SIM_WINDOW_TRACED: usize = 10;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Fixed iteration count instead of a time budget.
    pub iters: Option<usize>,
    pub trace: bool,
}

pub struct IterResult {
    pub sim_seed: u64,
    pub cells: Vec<CellResult>,
}

impl IterResult {
    pub fn wall_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_ns).sum()
    }
    /// The iteration's wall time in reference seconds: each cluster's wall
    /// time scaled by the host's speed around it (see `calibrate`).
    fn ref_s(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.wall_ns as f64 / 1e9 * c.host_speed)
            .sum()
    }
    /// Host speed over the iteration: reference seconds per wall second.
    fn host_speed(&self) -> f64 {
        ratio(self.ref_s(), self.wall_ns() as f64 / 1e9)
    }
    fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.attempted).sum()
    }
    fn verified(&self) -> u64 {
        self.cells.iter().map(CellResult::verified).sum()
    }
    fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.sim.events()).sum()
    }
}

/// Everything one process measured.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(sim seed, what failed)` for every failed check, horizon or panic.
    pub failures: Vec<(u64, String)>,
    pub iterations: usize,
    pub latency_samples: usize,
    pub sim_fingerprint: u64,
    /// Lowest, median and highest host speed seen by an iteration (1.0 = the
    /// reference pace): how disturbed the host was.
    pub host_speed: [f64; 3],
    /// `(raw wall ms, host speed, simulator events)` of every plain
    /// iteration, in run order.
    pub per_iteration: Vec<(f64, f64, u64)>,
    pub tracer: Tracer,
}

/// Simulator seed of iteration `id`: every iteration is a different input.
fn sim_seed(seed: u64, id: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(id % 1000)
}

fn iteration(
    workload: &str,
    seed: u64,
    id: u64,
    lin_check: bool,
    traced: bool,
    tracer: &mut Tracer,
) -> IterResult {
    tracer.iter = id;
    let sim_seed = sim_seed(seed, id);
    let span = tracer.open(
        if traced {
            "iteration"
        } else {
            "iteration:untraced"
        },
        None,
    );
    let mut cells = Vec::new();
    for cell in generate(workload, sim_seed) {
        let mut opts = IterOpts {
            lin_check,
            traced,
            tracer,
            parent: Some(span),
        };
        cells.push(run_cell(&cell, &mut opts));
    }
    tracer.close(span);
    IterResult { sim_seed, cells }
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Percentile of samples recorded at a resolution of `width` (1 µs for the
/// SMR clusters, the store's 500 µs stepping quantum for `store-txn`): the
/// nearest-rank value, interpolated inside its group of equal samples the way
/// Python's `statistics.median_grouped` does for the median. Quantised
/// latencies would otherwise read the same whatever moved underneath.
fn grouped_percentile(values: &mut [u64], p: f64, width: u64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let target = (p / 100.0) * values.len() as f64;
    let v = values[(target.ceil() as usize).clamp(1, values.len()) - 1];
    let below = values.partition_point(|&x| x < v);
    let equal = values.partition_point(|&x| x <= v) - below;
    let width = width as f64;
    v as f64 - width / 2.0 + width * (target - below as f64) / equal as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up round: generate the inputs and run them once, untimed by the
/// benchmark proper. Returns the round's wall time in reference seconds.
fn setup_round(workload: &str, seed: u64, round: u64) -> f64 {
    let t = Instant::now();
    let mut tracer = Tracer::new(false);
    let id = WARMUP_BASE + round % (1000 - WARMUP_BASE);
    let it = iteration(workload, seed, id, false, false, &mut tracer);
    t.elapsed().as_secs_f64() * it.host_speed()
}

pub fn run(args: &RunArgs) -> Outcome {
    // A fixed-iteration run (smoke test, selfcheck) is not a measurement of
    // set-up: one round is enough to report something.
    let rounds = if args.iters.is_some() {
        1
    } else {
        SETUP_ROUNDS
    };
    let mut setup_rounds: Vec<f64> = (0..rounds)
        .map(|r| setup_round(&args.workload, args.seed, r))
        .collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let window = if args.trace {
        SIM_WINDOW_TRACED
    } else {
        SIM_WINDOW
    };
    let mut tracer = Tracer::new(args.trace);
    let mut plain: Vec<IterResult> = Vec::new();
    let mut traced: Vec<IterResult> = Vec::new();
    let start = Instant::now();
    loop {
        let id = plain.len() as u64;
        let done = match args.iters {
            Some(n) => plain.len() >= n,
            None => plain.len() >= window && start.elapsed() >= budget,
        };
        if done || id >= WARMUP_BASE {
            break;
        }
        // The plain iteration is the end-to-end measurement; a traced run
        // repeats the same input with spans and probes on, so the pair gives
        // the tracing overhead.
        plain.push(iteration(
            &args.workload,
            args.seed,
            id,
            id == 0,
            false,
            &mut tracer,
        ));
        if args.trace {
            traced.push(iteration(
                &args.workload,
                args.seed,
                id,
                false,
                true,
                &mut tracer,
            ));
        }
        // Past the window only host-side numbers are used: drop the latency
        // samples so memory does not grow with how many iterations fit.
        if plain.len() > window {
            for it in plain.last_mut().into_iter().chain(traced.last_mut()) {
                it.cells.iter_mut().for_each(|c| c.sim.drop_samples());
            }
        }
        let extra_due = rounds + (start.elapsed().as_secs_f64() / SETUP_EVERY_S) as u64;
        if (setup_rounds.len() as u64) < extra_due {
            setup_rounds.push(setup_round(
                &args.workload,
                args.seed,
                setup_rounds.len() as u64,
            ));
        }
    }
    let setup_s = median(&mut setup_rounds);

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(IterResult::attempted).sum();
    let verified: u64 = all.clone().map(IterResult::verified).sum();
    let failures = all
        .flat_map(|it| {
            it.cells
                .iter()
                .flat_map(|c| c.failures.iter().map(|f| (it.sim_seed, f.clone())))
        })
        .collect();
    let window = window.min(plain.len());
    let mut fingerprint = FNV_OFFSET;
    for c in plain[..window].iter().flat_map(|it| &it.cells) {
        fnv(&mut fingerprint, &c.sim.fingerprint.to_le_bytes());
    }
    let latency_samples = plain[..window]
        .iter()
        .flat_map(|it| &it.cells)
        .map(|c| c.sim.latencies.len())
        .sum();
    let metrics = if args.trace {
        per_layer(&plain, &traced, window)
    } else {
        end_to_end(setup_s, &plain, window)
    };
    let mut speeds: Vec<f64> = plain.iter().map(IterResult::host_speed).collect();
    let host_speed = [
        percentile(&mut speeds, 0.0),
        median(&mut speeds),
        percentile(&mut speeds, 100.0),
    ];
    Outcome {
        metrics,
        host_speed,
        per_iteration: plain
            .iter()
            .map(|it| (it.wall_ns() as f64 / 1e6, it.host_speed(), it.events()))
            .collect(),
        attempted,
        failed: attempted - verified,
        failures,
        iterations: plain.len(),
        latency_samples,
        sim_fingerprint: fingerprint,
        tracer,
    }
}

fn end_to_end(setup_s: f64, iters: &[IterResult], window: usize) -> BTreeMap<&'static str, f64> {
    // Rates are per reference second (wall time scaled by the host speed
    // measured beside each cluster run), median over every iteration.
    let rate = |f: &dyn Fn(&IterResult) -> u64| -> f64 {
        let mut v: Vec<f64> = iters
            .iter()
            .map(|it| ratio(f(it) as f64, it.ref_s()))
            .collect();
        median(&mut v)
    };

    let cells = || iters[..window].iter().flat_map(|it| &it.cells);
    let mut latencies: Vec<u64> = cells()
        .flat_map(|c| c.sim.latencies.iter().copied())
        .collect();
    let ops: u64 = cells().map(|c| c.completed).sum();
    let sim_us: u64 = cells().map(|c| c.sim.end_us).sum();
    let sent: u64 = cells().map(|c| c.sim.sent).sum();
    let stall_us: u64 = cells().map(|c| c.sim.max_stall_us).sum();

    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("ops_per_wall_s", rate(&IterResult::verified));
    m.insert("sim_events_per_wall_s", rate(&IterResult::events));
    m.insert("peak_rss_mib", peak_rss_mib());
    let width = iters[0].cells[0].sim.resolution_us;
    m.insert(
        "sim_op_p50_us",
        grouped_percentile(&mut latencies, 50.0, width),
    );
    m.insert(
        "sim_op_p99_us",
        grouped_percentile(&mut latencies, 99.0, width),
    );
    m.insert("sim_ops_per_s", ratio(ops as f64 * 1e6, sim_us as f64));
    m.insert(
        "sim_max_stall_us",
        ratio(stall_us as f64, cells().count() as f64),
    );
    m.insert("sim_msgs_per_op", ratio(sent as f64, ops as f64));
    m
}

fn per_layer(
    plain: &[IterResult],
    traced: &[IterResult],
    window: usize,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let win = || traced[..window].iter().flat_map(|it| &it.cells);
    let sum = |f: &dyn Fn(&CellResult) -> f64| -> f64 { win().map(f).sum() };
    let med = |f: &dyn Fn(&IterResult) -> Option<f64>| -> f64 {
        let mut v: Vec<f64> = traced.iter().filter_map(f).collect();
        median(&mut v)
    };
    // Sum over an iteration's cells of a probe result.
    let probe = |it: &IterResult, f: &dyn Fn(&Replay) -> f64| -> f64 {
        it.cells
            .iter()
            .filter_map(|c| c.replay.as_ref())
            .map(f)
            .sum()
    };

    // ---- counts, over the fixed window -----------------------------------
    let ops = sum(&|c| c.completed as f64);
    let sent = sum(&|c| c.sim.sent as f64);
    m.insert(
        "simnet.events_per_op",
        ratio(sum(&|c| c.sim.events() as f64), ops),
    );
    m.insert(
        "simnet.timer_fires_per_op",
        ratio(sum(&|c| c.sim.timer_fires as f64), ops),
    );
    m.insert(
        "simnet.bytes_per_op",
        ratio(sum(&|c| c.sim.bytes as f64), ops),
    );
    m.insert(
        "simnet.drop_share",
        100.0 * ratio(sum(&|c| c.sim.dropped as f64), sent),
    );
    m.insert(
        "simnet.mean_msg_bytes",
        ratio(sum(&|c| c.sim.bytes as f64), sent),
    );
    for (proto, msgs, batch, elections) in [
        (
            Proto::Paxos,
            "paxos.msgs_per_op",
            "paxos.mean_batch",
            Some("paxos.elections"),
        ),
        (
            Proto::Raft,
            "raft.msgs_per_op",
            "raft.mean_batch",
            Some("raft.elections"),
        ),
        (Proto::Pbft, "pbft.msgs_per_op", "pbft.mean_batch", None),
    ] {
        let of = |f: &dyn Fn(&CellResult) -> f64| -> f64 {
            win().filter(|c| c.proto == proto).map(f).sum()
        };
        m.insert(
            msgs,
            ratio(of(&|c| c.sim.sent as f64), of(&|c| c.completed as f64)),
        );
        m.insert(
            batch,
            ratio(of(&|c| c.sim.batched_cmds), of(&|c| c.sim.batches as f64)),
        );
        if let Some(name) = elections {
            // Per cluster run, so the one election every run starts with reads 1.
            m.insert(name, ratio(of(&|c| c.sim.elections as f64), of(&|_| 1.0)));
        }
    }
    let st =
        |f: &dyn Fn(&storage::StorageStats) -> u64| -> f64 { sum(&|c| f(&c.sim.storage) as f64) };
    let replicas = sum(&|c| c.sim.durable_replicas as f64);
    m.insert(
        "storage.wal_appends_per_op",
        ratio(st(&|s| s.wal_appends), ops),
    );
    m.insert(
        "storage.wal_group_size",
        ratio(st(&|s| s.wal_appends), st(&|s| s.wal_flushes)),
    );
    m.insert(
        "storage.pool_hit_ratio",
        100.0 * ratio(st(&|s| s.pool_hits), st(&|s| s.pool_hits + s.pool_misses)),
    );
    m.insert("storage.evictions_per_op", ratio(st(&|s| s.evictions), ops));
    m.insert(
        "storage.writebacks_per_op",
        ratio(st(&|s| s.writebacks), ops),
    );
    // Every durable replica stores its own copy of the user's bytes.
    let stored = win()
        .map(|c| c.sim.user_bytes as f64 * c.sim.durable_replicas as f64)
        .sum::<f64>();
    m.insert("storage.write_amp", ratio(st(&|s| s.bytes_written), stored));
    m.insert(
        "storage.snapshots",
        ratio(st(&|s| s.snapshots_written), replicas),
    );
    m.insert(
        "storage.sim_io_us_per_op",
        ratio(st(&|s| s.io_time_us), ops),
    );
    m.insert(
        "storage.records_replayed",
        ratio(st(&|s| s.records_replayed), window as f64),
    );

    let stores = || win().filter_map(|c| c.sim.store.as_ref());
    let txns: f64 = stores().map(|s| s.txns as f64).sum();
    if txns > 0.0 {
        let steps: f64 = stores().map(|s| s.steps as f64).sum();
        m.insert("store.steps_per_txn", ratio(steps, txns));
        m.insert(
            "store.idle_step_share",
            100.0 * ratio(stores().map(|s| s.idle_steps as f64).sum(), steps),
        );
        m.insert("store.msgs_per_txn", ratio(sent, txns));
        m.insert(
            "store.commit_share",
            100.0 * ratio(stores().map(|s| s.commits as f64).sum(), txns),
        );
        let pooled = |f: &dyn Fn(&StoreSim) -> &Vec<u64>| -> f64 {
            let mut v: Vec<u64> = stores().flat_map(|s| f(s).iter().copied()).collect();
            grouped_percentile(&mut v, 50.0, store::QUANTUM_US)
        };
        m.insert("store.sim_txn_p50_us", pooled(&|s| &s.txn_lat));
        m.insert("store.sim_single_p50_us", pooled(&|s| &s.single_lat));
        m.insert("store.sim_range_p50_us", pooled(&|s| &s.range_lat));
        let mut steps_ns: Vec<f64> = traced
            .iter()
            .flat_map(|it| &it.cells)
            .flat_map(|c| c.step_ns.iter().map(|&n| f64::from(n)))
            .collect();
        m.insert("store.step_us_p50", median(&mut steps_ns) / 1e3);
        m.insert(
            "store.build_ms",
            med(&|it| {
                Some(
                    it.cells.iter().map(|c| c.build_ns as f64).sum::<f64>()
                        / it.cells.len() as f64
                        / 1e6,
                )
            }),
        );
    }

    // ---- replay probes, median over every traced iteration ---------------
    m.insert(
        "simnet.event_ns",
        med(&|it| {
            Some(ratio(
                probe(it, &|r| r.simnet_ns as f64),
                it.events() as f64,
            ))
        }),
    );
    m.insert(
        "simnet.broadcast_clone_ns",
        med(&|it| Some(probe(it, &|r| r.clone_ns) / it.cells.len() as f64)),
    );
    m.insert(
        "core.apply_ns",
        med(&|it| {
            Some(ratio(
                probe(it, &|r| r.apply_ns as f64),
                probe(it, &|r| r.applied as f64),
            ))
        }),
    );
    m.insert(
        "core.gen_ns",
        med(&|it| {
            Some(ratio(
                probe(it, &|r| r.gen_ns as f64),
                probe(it, &|r| r.generated as f64),
            ))
        }),
    );
    let storage = |it: &IterResult, f: &dyn Fn(&StorageReplay) -> (u64, u64)| -> Option<f64> {
        let (num, den) = it
            .cells
            .iter()
            .filter_map(|c| c.replay.as_ref()?.storage.as_ref())
            .map(f)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        (den > 0).then(|| num as f64 / den as f64)
    };
    m.insert(
        "storage.wal_append_ns",
        med(&|it| storage(it, &|s| (s.append_ns, s.appends))),
    );
    m.insert(
        "storage.wal_sync_ns",
        med(&|it| storage(it, &|s| (s.sync_ns, s.syncs))),
    );
    m.insert(
        "storage.btree_put_ns",
        med(&|it| storage(it, &|s| (s.put_ns, s.puts))),
    );
    m.insert(
        "storage.btree_get_ns",
        med(&|it| storage(it, &|s| (s.get_ns, s.gets))),
    );
    m.insert(
        "storage.btree_scan_ns_per_row",
        med(&|it| storage(it, &|s| (s.scan_ns, s.scan_rows))),
    );
    m.insert(
        "storage.snapshot_ms",
        med(&|it| storage(it, &|s| (s.snapshot_ns, s.snapshots))) / 1e6,
    );
    // One recovery per consensus group was replayed.
    m.insert(
        "storage.recover_ms",
        med(&|it| storage(it, &|s| (s.recover_ns, 1))) / 1e6,
    );
    m.insert(
        "nemesis.lin_check_ms",
        med(&|it| Some(probe(it, &|r| r.lin_ns as f64) / 1e6)),
    );
    m.insert(
        "nemesis.log_check_ms",
        med(&|it| Some(probe(it, &|r| r.log_ns as f64) / 1e6)),
    );
    m.insert(
        "nemesis.atomicity_check_ms",
        med(&|it| Some(probe(it, &|r| r.atomicity_ns as f64) / 1e6)),
    );

    // ---- per protocol: run wall and the handlers' residual ----------------
    for (proto, wall, handler) in [
        (
            Proto::Paxos,
            "paxos.iter_wall_ms",
            "paxos.handler_ns_per_event",
        ),
        (
            Proto::Raft,
            "raft.iter_wall_ms",
            "raft.handler_ns_per_event",
        ),
        (
            Proto::Pbft,
            "pbft.iter_wall_ms",
            "pbft.handler_ns_per_event",
        ),
    ] {
        fn find(it: &IterResult, proto: Proto) -> Option<&CellResult> {
            it.cells
                .iter()
                .find(|c| c.proto == proto && c.replay.is_some())
        }
        m.insert(
            wall,
            med(&|it| find(it, proto).map(|c| c.wall_ns as f64 / 1e6)),
        );
        m.insert(
            handler,
            med(&|it| {
                let c = find(it, proto)?;
                let r = c.replay.as_ref()?;
                let attributed = (r.simnet_ns + r.storage_ns + r.core_ns) as f64;
                Some(ratio(c.wall_ns as f64 - attributed, c.sim.events() as f64))
            }),
        );
    }

    // ---- shares of the traced run wall, and the harness's own numbers ----
    let share = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        100.0 * med(&|it| Some(ratio(probe(it, f), it.wall_ns() as f64)))
    };
    let simnet = share(&|r| r.simnet_ns as f64);
    let storage_share = share(&|r| r.storage_ns as f64);
    let core = share(&|r| r.core_ns as f64);
    m.insert("simnet.share", simnet);
    m.insert("storage.share", storage_share);
    // What no probe accounts for: protocol handlers (and, in `store-txn`,
    // the routers). simnet + storage + core + residual = 100 by construction.
    m.insert(
        "harness.residual_share",
        100.0 - simnet - storage_share - core,
    );
    let mut plain_walls: Vec<f64> = plain.iter().map(|it| it.wall_ns() as f64 / 1e6).collect();
    let mut traced_walls: Vec<f64> = traced.iter().map(|it| it.wall_ns() as f64 / 1e6).collect();
    m.insert(
        "harness.iter_wall_ms_p90",
        percentile(&mut plain_walls, 90.0),
    );
    let base = median(&mut plain_walls);
    m.insert(
        "harness.trace_overhead_pct",
        100.0 * ratio(median(&mut traced_walls) - base, base),
    );
    m
}

/// The human-readable table: every metric by name, with its unit.
pub fn print_table(args: &RunArgs, out: &Outcome) {
    println!(
        "# {} seed={} iterations={} (host speed min/p50/max {:.2}/{:.2}/{:.2} of reference) latency_samples={} sim_fingerprint={:016x}",
        args.workload,
        args.seed,
        out.iterations,
        out.host_speed[0],
        out.host_speed[1],
        out.host_speed[2],
        out.latency_samples,
        out.sim_fingerprint
    );
    for d in emitted(args.trace) {
        println!("{:<34} {:>18.4} {}", d.name, out.metrics[d.name], d.unit);
    }
    if args.trace {
        let core = 100.0
            - out.metrics["simnet.share"]
            - out.metrics["storage.share"]
            - out.metrics["harness.residual_share"];
        println!(
            "# host-time breakdown: simnet {:.1}% + storage {:.1}% + core {:.1}% + residual (handlers) {:.1}% = 100%",
            out.metrics["simnet.share"], out.metrics["storage.share"], core, out.metrics["harness.residual_share"]
        );
    }
    for (seed, what) in &out.failures {
        println!("# FAILED sim_seed={seed}: {what}");
    }
}

fn metrics_json(args: &RunArgs, out: &Outcome) -> Value {
    let map: BTreeMap<String, Value> = emitted(args.trace)
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                json!({ "value": out.metrics[d.name], "unit": d.unit }),
            )
        })
        .collect();
    Value::Object(map)
}

/// The contract's result line.
pub fn result_line(args: &RunArgs, out: &Outcome) -> String {
    let doc = json!({
        "correct": out.failed == 0 && out.failures.is_empty(),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics_json(args, out),
    });
    serde_json::to_string(&doc).expect("serializable")
}

/// The result file `compare` reads.
pub fn result_file(args: &RunArgs, out: &Outcome) -> String {
    let failures: Vec<Value> = out
        .failures
        .iter()
        .map(|(seed, what)| json!({ "sim_seed": *seed, "what": what.as_str() }))
        .collect();
    let doc = json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "trace": args.trace,
        "iterations": out.iterations as u64,
        "host_speed": json!({ "min": out.host_speed[0], "p50": out.host_speed[1], "max": out.host_speed[2] }),
        "per_iteration": json!({
            "wall_ms": out.per_iteration.iter().map(|p| p.0).collect::<Vec<f64>>(),
            "host_speed": out.per_iteration.iter().map(|p| p.1).collect::<Vec<f64>>(),
            "events": out.per_iteration.iter().map(|p| p.2).collect::<Vec<u64>>(),
        }),
        "latency_samples": out.latency_samples as u64,
        "sim_fingerprint": format!("{:016x}", out.sim_fingerprint),
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": Value::Array(failures),
        "metrics": metrics_json(args, out),
    });
    serde_json::to_string_pretty(&doc).expect("serializable")
}
