//! Replay probes: each layer's public API driven, alone and timed, with the
//! operation stream and counters of the iteration that just ran.
//!
//! The program is not instrumented, so a layer's host time inside a run is
//! *estimated* by redoing that layer's share of the work from outside:
//! the simulator with an echo node that does no protocol work, the state
//! machine with the acknowledged commands, the storage stack with the same
//! puts, scans, WAL cadence and checkpoints. What the probes cannot
//! attribute stays in the protocol handlers' residual.

use std::hint::black_box;
use std::time::Instant;

use consensus_core::driver::DecidedEntry;
use consensus_core::history::ClientRecord;
use consensus_core::workload::{KvMix, KvWorkload};
use consensus_core::{Command, DedupKvMachine, KvCommand, ReplicatedLog, SmrOp, StateMachine};
use nemesis::check_linearizable;
use nemesis::checker::{check_log_agreement, check_txn_atomicity};
use simnet::{Context, DiskModel, NetConfig, Node, NodeId, Payload, Sim, Time, Timer};
use storage::{DurableEngine, StorageEngine};

use crate::trace::Tracer;
use crate::workloads::CellSim;

/// Linearizability probe budget: small enough to bound the probe's cost.
const LIN_PROBE_BUDGET: u64 = 50_000;

/// What one cell hands to the probes.
pub struct ReplayInput<'a> {
    /// Nodes per simulation (replicas + clients / stub).
    pub n_nodes: usize,
    /// Recipients of one leader broadcast.
    pub fanout: usize,
    /// Concurrent requests (closed-loop clients).
    pub inflight: usize,
    pub net: NetConfig,
    /// Acknowledged ops in completion order, one stream per consensus group.
    pub streams: Vec<Vec<Command<KvCommand>>>,
    pub history: &'a [ClientRecord],
    pub decided: Vec<Vec<DecidedEntry>>,
    /// `(clients, cmds, mix, seed)` of the cell's `KvWorkload`s, if it has any.
    pub gen: Option<(usize, usize, KvMix, u64)>,
    /// Replicas that each apply (and, when durable, store) one stream.
    pub replicas_per_stream: u64,
}

/// Host time of the storage stack under the replayed stream, one replica.
#[derive(Clone, Debug, Default)]
pub struct StorageReplay {
    pub append_ns: u64,
    pub appends: u64,
    pub sync_ns: u64,
    pub syncs: u64,
    pub put_ns: u64,
    pub puts: u64,
    pub get_ns: u64,
    pub gets: u64,
    pub scan_ns: u64,
    pub scan_rows: u64,
    pub snapshot_ns: u64,
    pub snapshots: u64,
    pub recover_ns: u64,
}

/// Probe results of one cell.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// The cell's simulator events priced at the echo probe's ns per event.
    pub simnet_ns: u64,
    /// Per-recipient cost of carrying the mean payload through a send.
    pub clone_ns: f64,
    pub apply_ns: u64,
    pub applied: u64,
    pub gen_ns: u64,
    pub generated: u64,
    /// `apply` for every replica plus generation: the core crate's share.
    pub core_ns: u64,
    pub storage: Option<StorageReplay>,
    /// Storage replay priced for every durable replica (+ observed recoveries).
    pub storage_ns: u64,
    pub lin_ns: u64,
    pub log_ns: u64,
    pub atomicity_ns: u64,
}

// ---- simnet: the echo probe ---------------------------------------------

#[derive(Clone, Debug)]
struct Echo {
    round: usize,
    ack: bool,
    wire: usize,
    payload: Vec<u8>,
}

impl Payload for Echo {
    fn kind(&self) -> &'static str {
        if self.ack {
            "echo-ack"
        } else {
            "echo"
        }
    }
    fn size_bytes(&self) -> usize {
        self.wire
    }
}

/// Node 0 broadcasts to `fanout` peers and starts the next round of a lane
/// once every peer acked: the message pattern of a leader-based round, with
/// no protocol work in the handlers.
struct EchoNode {
    fanout: usize,
    lanes: usize,
    rounds_left: u64,
    /// Timers to arm over the whole run, spread evenly over the rounds.
    timers: u64,
    rounds: u64,
    timer_credit: u64,
    acks: Vec<usize>,
    wire: usize,
    payload: Vec<u8>,
}

impl EchoNode {
    fn start_round(&mut self, ctx: &mut Context<Echo>, lane: usize) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        self.timer_credit += self.timers;
        while self.timer_credit >= self.rounds {
            self.timer_credit -= self.rounds;
            ctx.set_timer(100, 0);
        }
        let msg = Echo {
            round: lane,
            ack: false,
            wire: self.wire,
            payload: self.payload.clone(),
        };
        ctx.send_many((1..=self.fanout).map(NodeId::from), msg);
    }
}

impl Node for EchoNode {
    type Msg = Echo;

    fn on_start(&mut self, ctx: &mut Context<Echo>) {
        if ctx.id() == NodeId(0) {
            for lane in 0..self.lanes {
                self.start_round(ctx, lane);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Echo>, from: NodeId, msg: Echo) {
        if msg.ack {
            self.acks[msg.round] += 1;
            if self.acks[msg.round] == self.fanout {
                self.acks[msg.round] = 0;
                self.start_round(ctx, msg.round);
            }
        } else {
            black_box(msg.payload.first());
            ctx.send(
                from,
                Echo {
                    ack: true,
                    payload: Vec::new(),
                    ..msg
                },
            );
        }
    }

    fn on_timer(&mut self, _: &mut Context<Echo>, _: Timer) {}
}

/// Runs the echo pattern for about `sends` messages and `timers` timer fires;
/// returns `(host ns, events processed)`.
fn echo_run(
    input: &ReplayInput,
    sends: u64,
    timers: u64,
    wire: usize,
    payload: usize,
) -> (u64, u64) {
    let fanout = input.fanout.max(1);
    let rounds = (sends / (2 * fanout as u64)).max(1);
    let mut sim: Sim<EchoNode> = Sim::new(input.net.clone(), 1);
    for _ in 0..input.n_nodes.max(fanout + 1) {
        sim.add_node(EchoNode {
            fanout,
            lanes: input.inflight.max(1),
            rounds_left: rounds,
            timers,
            rounds,
            timer_credit: 0,
            acks: vec![0; input.inflight.max(1)],
            wire,
            payload: vec![0xA5; payload],
        });
    }
    sim.set_max_events(u64::MAX);
    let t = Instant::now();
    sim.run_until(Time::MAX);
    let wall = t.elapsed().as_nanos() as u64;
    (wall, black_box(sim.events_processed()))
}

// ---- core: state machine and workload generator -------------------------

fn apply_replay(stream: &[Command<KvCommand>]) -> u64 {
    let ops: Vec<SmrOp> = stream.iter().cloned().map(SmrOp::Cmd).collect();
    let mut log: ReplicatedLog<DedupKvMachine> = ReplicatedLog::new();
    let t = Instant::now();
    for (i, op) in ops.into_iter().enumerate() {
        black_box(log.decide(i, op));
    }
    let wall = t.elapsed().as_nanos() as u64;
    black_box(log.applied_len());
    wall
}

fn gen_replay(clients: usize, cmds: usize, mix: KvMix, seed: u64) -> u64 {
    let t = Instant::now();
    for c in 0..clients {
        let mut w = KvWorkload::new(c as u32, mix, seed);
        for _ in 0..cmds {
            black_box(w.next_command());
        }
    }
    t.elapsed().as_nanos() as u64
}

// ---- storage: one replica's engine under the stream ----------------------

fn timed<T>(total: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *total += t.elapsed().as_nanos() as u64;
    out
}

/// The WAL record stands in for the protocol's accept/append record: a
/// fixed header plus the command's own key and value bytes.
fn wal_record(cmd: &Command<KvCommand>) -> Vec<u8> {
    let mut rec = vec![0u8; 24];
    match &cmd.op {
        KvCommand::Put { key, value } => {
            rec.extend_from_slice(key.as_bytes());
            rec.extend_from_slice(value.as_bytes());
        }
        KvCommand::Cas { key, expect, new } => {
            rec.extend_from_slice(key.as_bytes());
            rec.extend_from_slice(expect.as_bytes());
            rec.extend_from_slice(new.as_bytes());
        }
        KvCommand::Get { key } | KvCommand::Delete { key } => rec.extend_from_slice(key.as_bytes()),
        KvCommand::Range { start, end, .. } => {
            rec.extend_from_slice(start.as_bytes());
            rec.extend_from_slice(end.as_bytes());
        }
    }
    rec
}

/// Replays `stream` into a fresh `DurableEngine` through the `StorageEngine`
/// trait, reproducing the per-replica WAL append / group-commit / checkpoint
/// counts the real run reported, then crashes and recovers it.
fn storage_replay(
    stream: &[Command<KvCommand>],
    appends: u64,
    syncs: u64,
    snaps: u64,
) -> StorageReplay {
    let mut out = StorageReplay::default();
    let mut engine: Box<dyn StorageEngine> = Box::new(DurableEngine::new(DiskModel::ssd()));
    let mut machine = DedupKvMachine::default();
    let n = stream.len().max(1) as u64;
    for (j, cmd) in stream.iter().enumerate() {
        let due = |total: u64| total * (j as u64 + 1) / n;
        let rec = wal_record(cmd);
        while out.appends < due(appends) {
            timed(&mut out.append_ns, || engine.log_record(&rec));
            out.appends += 1;
        }
        if out.syncs < due(syncs) {
            timed(&mut out.sync_ns, || engine.sync());
            out.syncs += 1;
        }
        // The replicas mirror writes and serve scans from the engine; they
        // answer point reads from RAM, so `get` is probed but not priced.
        match &cmd.op {
            KvCommand::Put { key, value } => {
                timed(&mut out.put_ns, || engine.put(key, value));
                out.puts += 1;
            }
            KvCommand::Cas { key, new, .. } => {
                timed(&mut out.put_ns, || engine.put(key, new));
                out.puts += 1;
            }
            KvCommand::Get { key } => {
                black_box(timed(&mut out.get_ns, || engine.get(key)));
                out.gets += 1;
            }
            KvCommand::Range { start, end, .. } => {
                let rows = timed(&mut out.scan_ns, || engine.scan(start, end));
                out.scan_rows += rows.len().max(1) as u64;
            }
            KvCommand::Delete { key } => engine.delete(key),
        }
        machine.apply(&SmrOp::Cmd(cmd.clone()));
        if out.snapshots < due(snaps) {
            let blob = raft::durable::encode_snapshot(&machine, j, 1);
            timed(&mut out.snapshot_ns, || engine.write_snapshot(&blob));
            out.snapshots += 1;
        }
    }
    // Recovery: drop volatile state, read back checkpoint + WAL tail, and
    // rebuild the index from the machine state, as a restarted replica does.
    timed(&mut out.recover_ns, || {
        engine.crash();
        black_box(engine.recover());
        for (k, v) in machine.kv().iter() {
            engine.put(k, v);
        }
    });
    out
}

// ---- all probes of one cell ----------------------------------------------

pub fn replay(
    input: &ReplayInput,
    sim: &CellSim,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Replay {
    let mut out = Replay::default();

    let span = tracer.open("probe:simnet", parent);
    let wire = (sim.bytes / sim.sent.max(1)) as usize;
    let (with_ns, events) = echo_run(input, sim.sent, sim.timer_fires, wire, wire);
    let (bare_ns, _) = echo_run(input, sim.sent, sim.timer_fires, wire, 0);
    let event_ns = with_ns as f64 / events.max(1) as f64;
    out.simnet_ns = (event_ns * sim.events() as f64) as u64;
    // Half the echo messages (the broadcasts) carry the payload.
    out.clone_ns = with_ns.saturating_sub(bare_ns) as f64 / (events.max(2) / 2) as f64;
    tracer.close(span);

    let span = tracer.open("probe:core", parent);
    for stream in &input.streams {
        out.apply_ns += apply_replay(stream);
        out.applied += stream.len() as u64;
    }
    if let Some((clients, cmds, mix, seed)) = input.gen {
        out.gen_ns = gen_replay(clients, cmds, mix, seed);
        out.generated = (clients * cmds) as u64;
    }
    out.core_ns = out.apply_ns * input.replicas_per_stream + out.gen_ns;
    tracer.close(span);

    if sim.durable_replicas > 0 {
        let span = tracer.open("probe:storage", parent);
        let per_replica = |total: u64| total / sim.durable_replicas;
        let mut all = StorageReplay::default();
        let groups = input.streams.len() as u64;
        for stream in &input.streams {
            let r = storage_replay(
                stream,
                per_replica(sim.storage.wal_appends) / groups,
                per_replica(sim.storage.wal_flushes) / groups,
                per_replica(sim.storage.snapshots_written) / groups,
            );
            all.append_ns += r.append_ns;
            all.appends += r.appends;
            all.sync_ns += r.sync_ns;
            all.syncs += r.syncs;
            all.put_ns += r.put_ns;
            all.puts += r.puts;
            all.get_ns += r.get_ns;
            all.gets += r.gets;
            all.scan_ns += r.scan_ns;
            all.scan_rows += r.scan_rows;
            all.snapshot_ns += r.snapshot_ns;
            all.snapshots += r.snapshots;
            all.recover_ns += r.recover_ns;
        }
        let foreground = all.append_ns + all.sync_ns + all.put_ns + all.scan_ns + all.snapshot_ns;
        out.storage_ns = foreground * input.replicas_per_stream
            + all.recover_ns / groups * sim.storage.recoveries;
        out.storage = Some(all);
        tracer.close(span);
    }

    let span = tracer.open("probe:nemesis", parent);
    timed(&mut out.lin_ns, || {
        black_box(check_linearizable(input.history, LIN_PROBE_BUDGET))
    });
    timed(&mut out.log_ns, || {
        for log in &input.decided {
            black_box(check_log_agreement(log));
        }
    });
    timed(&mut out.atomicity_ns, || {
        black_box(check_txn_atomicity(input.history))
    });
    tracer.close(span);

    out
}
