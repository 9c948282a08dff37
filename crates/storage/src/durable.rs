//! [`Durable`]: the handle a log replica holds its [`StorageEngine`]
//! through — the one place that knows how a consensus protocol drives an
//! engine. Multi-Paxos and Raft differ in *which* records they write and
//! what is live at a checkpoint (the records' format is the consensus
//! layer's, `consensus_core::durable`); how records reach the WAL, when they
//! are synced and charged, how a checkpoint and a restart run, and how
//! decision records are tabled is the same for both and written here. Page
//! checksums and detect-and-refetch recovery (ROADMAP 5c) belong behind this
//! handle.
//!
//! ## The contract a replica keeps through it
//!
//! **Log, then sync, before the acknowledgement.** A replica [`log`]s a
//! record for every state change a message of its protocol will reveal — a
//! promise, an accept, a vote, an append — and calls [`sync`] in the same
//! handler *before* the reply that reveals it leaves: one sync group-commits
//! whatever the handler logged. Decisions the store will act on (2PC
//! `commit` / `abort` records) follow the same rule through
//! [`log_decision`]: on disk before the reply that releases the transaction.
//!
//! **Detached costs nothing.** Without an engine a replica keeps the
//! historical everything-in-RAM model: [`log`] never builds its record (so
//! no op is cloned for it), [`sync`] and [`checkpoint`] return at once.
//!
//! **The index is a mirror.** Applied state is upserted into the engine's
//! primary index through [`engine_mut`], not synchronously durable; after a
//! crash it comes back empty and the replica re-mirrors it from the
//! checkpoint ([`restart`] … [`recovered`] bracket that work and report
//! what it cost). *What* an applied command writes there is
//! `consensus_core::KvCommand::mirror`'s rule; this crate sees only the
//! strings.
//!
//! [`log`]: Durable::log
//! [`sync`]: Durable::sync
//! [`log_decision`]: Durable::log_decision
//! [`checkpoint`]: Durable::checkpoint
//! [`engine_mut`]: Durable::engine_mut
//! [`restart`]: Durable::restart
//! [`recovered`]: Durable::recovered

use std::collections::BTreeMap;
use std::sync::Arc;

use simnet::{Context, Payload};

use crate::engine::{Recovery, StorageEngine};

/// A replica's durable side: an optional engine plus the bookkeeping every
/// log protocol keeps about it.
#[derive(Debug, Default)]
pub struct Durable {
    engine: Option<Box<dyn StorageEngine>>,
    /// Whether records were logged since the last sync.
    dirty: bool,
    /// Device time on the clock when the last restart began.
    restart_io_us: u64,
    /// Floor restored by the most recent crash recovery (0 = none / cold).
    pub recovered_floor: usize,
    /// Records replayed from the WAL by the most recent recovery.
    pub last_recovery_replayed: u64,
    /// Disk time the most recent recovery charged (µs), re-mirroring the
    /// index included.
    pub last_recovery_io_us: u64,
    /// Transaction decision records (`~dec.<tid>` → `commit` / `abort`)
    /// this replica applied: logged as first-class WAL records, rebuilt on
    /// recovery from checkpoint + WAL without replaying the command history.
    txn_decisions: BTreeMap<Arc<str>, Arc<str>>,
    /// Decision records appended to the WAL over this replica's lifetime.
    pub txn_decisions_logged: u64,
}

impl Durable {
    /// Attaches `engine`: logging, checkpoints and crash recovery activate.
    pub fn attach(&mut self, engine: Box<dyn StorageEngine>) {
        self.engine = Some(engine);
    }

    /// The attached engine, if any.
    pub fn engine(&self) -> Option<&dyn StorageEngine> {
        self.engine.as_deref()
    }

    /// The attached engine's primary index, for mirroring applied state.
    /// Log records go through [`Durable::log`], which tracks what is unsynced.
    pub fn engine_mut(&mut self) -> Option<&mut (dyn StorageEngine + 'static)> {
        self.engine.as_deref_mut()
    }

    /// Appends a protocol record to the WAL. Detached, `record` is never
    /// called.
    pub fn log(&mut self, record: impl FnOnce() -> Vec<u8>) {
        if let Some(engine) = self.engine.as_mut() {
            engine.log_record(&record());
            self.dirty = true;
        }
    }

    /// Group-commits everything logged since the last sync and charges the
    /// modeled device time to the handler's causal trace. A no-op — no
    /// counter read, no flush, no span — when nothing is outstanding.
    pub fn sync<M: Payload>(&mut self, ctx: &mut Context<M>) {
        let Some(engine) = self.engine.as_mut().filter(|_| self.dirty) else {
            return;
        };
        self.dirty = false;
        let before = engine.stats().io_time_us;
        engine.sync();
        let spent = engine.stats().io_time_us - before;
        if spent > 0 {
            ctx.charge_io("wal-sync", spent);
        }
    }

    /// Checkpoints: writes `blob()` as the snapshot — which truncates the
    /// WAL — then re-logs the `live` records, the ones the blob does not
    /// absorb, and syncs. After this, recovery = snapshot load + WAL replay.
    pub fn checkpoint(
        &mut self,
        blob: impl FnOnce() -> Vec<u8>,
        live: impl Iterator<Item = Vec<u8>>,
    ) {
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        engine.write_snapshot(&blob());
        live.for_each(|record| engine.log_record(&record));
        engine.sync();
        self.dirty = false;
    }

    /// Crash recovery, first half: drops the engine's volatile layers and
    /// the decision table, and returns the last checkpoint and the WAL
    /// records synced after it (`None` when detached). The replica rebuilds
    /// its state from them — charging the disk for every read — and then
    /// calls [`Durable::recovered`].
    pub fn restart(&mut self) -> Option<Recovery> {
        let engine = self.engine.as_mut()?;
        self.restart_io_us = engine.stats().io_time_us;
        engine.crash();
        let recovery = engine.recover();
        self.dirty = false;
        self.txn_decisions.clear();
        self.last_recovery_replayed = recovery.records.len() as u64;
        Some(recovery)
    }

    /// Crash recovery, second half: records the checkpoint `floor` the
    /// replica restarted from and the device time spent since
    /// [`Durable::restart`].
    pub fn recovered(&mut self, floor: usize) {
        let now = self.engine().map_or(0, |e| e.stats().io_time_us);
        self.recovered_floor = floor;
        self.last_recovery_io_us = now - self.restart_io_us;
    }

    /// The durable half of installing a whole machine state — a checkpoint
    /// on recovery, or a peer's state on transfer, which may land on a live
    /// index. Rebuilds the primary index to hold exactly `rows`: one full
    /// scan finds the keys `rows` lacks and deletes them, in key order; then
    /// every row is upserted, in key order. The disk charges for all of it,
    /// which is the rebuild I/O recovery-time experiments measure. Then the
    /// `decisions` the state holds re-seed the decision table; WAL replay
    /// adds anything resolved after them.
    pub fn rebuild_index<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a Arc<str>, &'a Arc<str>)>,
        decisions: impl IntoIterator<Item = (&'a Arc<str>, &'a Arc<str>)>,
    ) {
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        let rows: BTreeMap<&str, &str> = rows.into_iter().map(|(k, v)| (&**k, &**v)).collect();
        for (stale, _) in engine.scan("", "\u{10FFFF}") {
            if !rows.contains_key(stale.as_str()) {
                engine.delete(&stale);
            }
        }
        for (key, value) in rows {
            engine.put(key, value);
        }
        self.note_decisions(decisions);
    }

    /// The decision records this replica has applied.
    pub fn txn_decisions(&self) -> &BTreeMap<Arc<str>, Arc<str>> {
        &self.txn_decisions
    }

    /// Tables decisions that are already durable: the ones a checkpoint's
    /// state holds, or one replayed from its WAL record.
    pub fn note_decisions<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a Arc<str>, &'a Arc<str>)>,
    ) {
        let pairs = pairs.into_iter().map(|(k, v)| (k.clone(), v.clone()));
        self.txn_decisions.extend(pairs);
    }

    /// Tables a freshly applied decision and appends `record`, its WAL
    /// record in the caller's format. The caller syncs before the reply that
    /// releases the transaction leaves (WAL-before-decision).
    pub fn log_decision(&mut self, key: &Arc<str>, value: &Arc<str>, record: Vec<u8>) {
        self.note_decisions([(key, value)]);
        self.txn_decisions_logged += 1;
        self.log(|| record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DurableEngine, MemEngine};
    use simnet::{DiskModel, NetConfig, Node, NodeId, Sim};

    #[derive(Clone, Debug)]
    struct Quiet;

    impl Payload for Quiet {
        fn kind(&self) -> &'static str {
            "quiet"
        }
    }

    /// A node that runs `script` over its handle once, inside a handler —
    /// the only place a `Context` exists.
    struct Probe {
        durable: Durable,
        script: fn(&mut Durable, &mut Context<Quiet>),
    }

    impl Node for Probe {
        type Msg = Quiet;

        fn on_start(&mut self, ctx: &mut Context<Quiet>) {
            (self.script)(&mut self.durable, ctx);
        }

        fn on_message(&mut self, _: &mut Context<Quiet>, _: NodeId, _: Quiet) {}
    }

    /// Runs `script` in a traced one-node simulation; returns the handle
    /// and the names of the spans the run recorded.
    fn probe(
        durable: Durable,
        script: fn(&mut Durable, &mut Context<Quiet>),
    ) -> (Durable, Vec<String>) {
        let mut sim: Sim<Probe> = Sim::new(NetConfig::synchronous(), 1);
        sim.enable_tracing(1);
        let id = sim.add_node(Probe { durable, script });
        sim.run_for(1_000);
        let spans = sim.causal_spans().iter().map(|s| s.name.clone()).collect();
        let durable = std::mem::take(&mut sim.node_mut(id).durable);
        (durable, spans)
    }

    fn attached(engine: impl StorageEngine + 'static) -> Durable {
        let mut durable = Durable::default();
        durable.attach(Box::new(engine));
        durable
    }

    #[test]
    fn a_detached_handle_builds_no_record_and_charges_nothing() {
        let (mut durable, spans) = probe(Durable::default(), |d, ctx| {
            d.log(|| unreachable!("no engine, no record"));
            d.checkpoint(
                || unreachable!("no engine, no blob"),
                std::iter::from_fn(|| unreachable!("no engine, no live record")),
            );
            d.sync(ctx);
        });
        assert!(spans.is_empty(), "{spans:?}");
        assert!(durable.engine().is_none() && durable.restart().is_none());
    }

    #[test]
    fn sync_flushes_and_charges_once_per_dirty_handler() {
        let (durable, spans) = probe(attached(DurableEngine::new(DiskModel::ssd())), |d, ctx| {
            // Nothing logged: no flush, no device time, no span.
            let idle = d.engine().expect("attached").stats();
            d.sync(ctx);
            assert_eq!(d.engine().expect("attached").stats(), idle);
            // Two records, one group commit, one charge; the second sync
            // finds nothing outstanding.
            d.log(|| b"one".to_vec());
            d.log(|| b"two".to_vec());
            d.sync(ctx);
            let io = d.engine().expect("attached").stats().io_time_us;
            assert!(io > idle.io_time_us);
            d.sync(ctx);
            assert_eq!(d.engine().expect("attached").stats().io_time_us, io);
        });
        assert_eq!(spans, ["wal-sync"]);
        let stats = durable.engine().expect("attached").stats();
        assert_eq!((stats.wal_appends, stats.wal_flushes), (2, 1));
    }

    #[test]
    fn a_checkpoint_leaves_exactly_the_relogged_records_for_recovery() {
        let (mut durable, spans) = probe(attached(MemEngine::new()), |d, ctx| {
            d.log(|| b"absorbed".to_vec());
            d.sync(ctx);
            d.log(|| b"absorbed, never synced".to_vec());
            let live = [b"live-1".to_vec(), b"live-2".to_vec()];
            d.checkpoint(|| b"state".to_vec(), live.into_iter());
            // The checkpoint synced what it re-logged: nothing is dirty.
            d.sync(ctx);
        });
        assert!(spans.is_empty(), "a MemEngine charges no device time");
        let stats = durable.engine().expect("attached").stats();
        assert_eq!((stats.snapshots_written, stats.wal_flushes), (1, 2));
        let recovery = durable.restart().expect("attached");
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"state"[..]));
        assert_eq!(recovery.records, [b"live-1".to_vec(), b"live-2".to_vec()]);
    }

    #[test]
    fn rebuild_index_leaves_exactly_the_incoming_rows() {
        let mut durable = attached(MemEngine::new());
        let engine = durable.engine_mut().expect("attached");
        engine.put("stale", "x");
        engine.put("kept", "old");
        let map = |pairs: &[(&str, &str)]| -> BTreeMap<Arc<str>, Arc<str>> {
            pairs.iter().map(|&(k, v)| (k.into(), v.into())).collect()
        };
        let (rows, decision) = (
            map(&[("kept", "new"), ("fresh", "y")]),
            map(&[("~dec.t1.0", "commit")]),
        );
        durable.rebuild_index(&rows, &decision);
        let rows = durable
            .engine_mut()
            .expect("attached")
            .scan("", "\u{10FFFF}");
        let want = [("fresh", "y"), ("kept", "new")].map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(rows, want);
        assert_eq!(
            durable.txn_decisions(),
            &decision,
            "the state's decisions are tabled"
        );
        // Detached, there is no index to rebuild and no table to seed.
        let mut detached = Durable::default();
        detached.rebuild_index(&decision, &decision);
        assert!(detached.txn_decisions().is_empty());
    }

    #[test]
    fn restart_reports_the_replay_count_and_io_delta_the_engine_shows() {
        let mut durable = attached(DurableEngine::new(DiskModel::ssd()));
        let (key, value): (Arc<str>, Arc<str>) = ("~dec.t1.0".into(), "commit".into());
        durable.log_decision(&key, &value, b"decision".to_vec());
        durable.checkpoint(
            || b"state".to_vec(),
            [b"r1".to_vec(), b"r2".to_vec()].into_iter(),
        );
        durable.log(|| b"unsynced".to_vec());
        assert_eq!(
            (durable.txn_decisions().len(), durable.txn_decisions_logged),
            (1, 1)
        );

        let before = durable.engine().expect("attached").stats();
        let recovery = durable.restart().expect("attached");
        assert_eq!(recovery.records.len(), 2, "the unsynced record is gone");
        assert!(
            durable.txn_decisions().is_empty(),
            "the table is rebuilt by the caller"
        );
        // The caller re-mirrors its index before it reports back.
        durable.engine_mut().expect("attached").put("k", "v");
        durable.note_decisions([(&key, &value)]);
        durable.recovered(7);

        let after = durable.engine().expect("attached").stats();
        assert_eq!(durable.recovered_floor, 7);
        assert_eq!(
            durable.last_recovery_replayed,
            after.records_replayed - before.records_replayed
        );
        assert_eq!(
            durable.last_recovery_io_us,
            after.io_time_us - before.io_time_us
        );
        assert!(durable.last_recovery_io_us > 0);
        assert_eq!(
            (durable.txn_decisions().len(), durable.txn_decisions_logged),
            (1, 1)
        );
    }
}
