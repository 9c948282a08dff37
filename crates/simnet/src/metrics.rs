//! Message and event accounting — the raw material for the complexity
//! columns of the taxonomy table (messages per consensus instance, bytes,
//! phases observed on traces).

use crate::trace::CncPhase;

/// A power-of-two-bucketed histogram of `u64` samples (latencies in µs,
/// message sizes in bytes). Bucket `i` counts samples of bit length `i`
/// (`2^(i-1) ≤ v < 2^i`; bucket 0 counts `v = 0`), which keeps recording
/// allocation-free and O(1) while preserving the order-of-magnitude shape
/// figures need.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; 64],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 64],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()).min(63) as usize;
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in 0..=1),
    /// e.g. `quantile(0.5)` is an upper estimate of the median. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << i).min(self.max)
                });
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, smallest first.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i >= 63 { u64::MAX } else { 1u64 << i }, c))
    }
}

/// Sent count and byte total of one message kind.
#[derive(Clone, Copy, Debug)]
struct KindTally {
    kind: &'static str,
    sent: u64,
    bytes: u64,
}

/// Counters accumulated over a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Messages submitted to the network (after Byzantine filters).
    pub sent: u64,
    /// Messages actually delivered to a live node.
    pub delivered: u64,
    /// Messages lost to random drops, partitions, filters, or dead targets
    /// (the sum of the four `dropped_*` counters).
    pub dropped: u64,
    /// Messages cut by a network partition.
    pub dropped_partition: u64,
    /// Messages lost to random (probabilistic) loss.
    pub dropped_loss: u64,
    /// Messages suppressed by a Byzantine outbound filter.
    pub dropped_filter: u64,
    /// Messages that arrived at a crashed node.
    pub dropped_dead: u64,
    /// Duplicated deliveries (counted in addition to `delivered`).
    pub duplicated: u64,
    /// Total estimated bytes sent.
    pub bytes_sent: u64,
    /// Timer callbacks executed.
    pub timer_fires: u64,
    /// Per message-kind sent counts and byte totals, in first-seen order.
    /// A protocol has a dozen kinds at most and every routed message bumps
    /// one, so this is a scanned `Vec`, not a map; [`Metrics::kinds`] reads
    /// it out in name order.
    kinds: Vec<KindTally>,
    /// Node crash events executed.
    pub crashes: u64,
    /// Node restart events executed.
    pub restarts: u64,
    /// Distribution of individual message sizes in bytes.
    pub msg_size: Histogram,
    /// End-to-end latency per consensus instance in µs: first `span_open` to
    /// first `span_close` of each `(protocol, instance)` pair. Under the
    /// three batching protocols an instance is one batch — a Multi-Paxos
    /// slot, a Raft log entry, a PBFT sequence number — so on a fault-free
    /// batched run this counts what [`Metrics::batch_size`] counts, and
    /// unbatched every instance is one command.
    pub instance_latency: Histogram,
    /// How many times each C&C phase was entered, indexed by
    /// `CncPhase as usize` (the order of [`CncPhase::ALL`]).
    pub phase_entries: [u64; 4],
    /// `span_open` events seen (one per node per instance).
    pub spans_opened: u64,
    /// `span_close` events seen.
    pub spans_closed: u64,
    /// Commands per batch a leader formed, recorded by protocol leaders
    /// via [`crate::Context::record_batch`].
    pub batch_size: Histogram,
    /// Per-message network latency in µs (send call to delivery, including
    /// NIC serialization), recorded for every delivered message.
    pub delivered_latency: Histogram,
}

/// Why a message was lost — selects which split counter accompanies the
/// `dropped` total in [`Metrics::record_drop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// Cut by a network partition.
    Partition,
    /// Random (probabilistic) loss.
    Loss,
    /// Suppressed by a Byzantine outbound filter.
    Filter,
    /// Arrived at a crashed node.
    Dead,
}

impl Metrics {
    /// Messages of one kind sent so far.
    pub fn kind(&self, kind: &str) -> u64 {
        self.kinds
            .iter()
            .find(|t| t.kind == kind)
            .map_or(0, |t| t.sent)
    }

    /// Adds `sent` messages totalling `bytes` to `kind`'s tally — one routed
    /// message at a time in the simulator, a whole shard's tally when a
    /// harness folds several simulations into one table.
    pub fn add_kind(&mut self, kind: &'static str, sent: u64, bytes: u64) {
        // A kind label is one string literal, so its address identifies it;
        // comparing contents is the fallback for a literal the compiler
        // emitted twice.
        let known = self
            .kinds
            .iter()
            .position(|t| std::ptr::eq(t.kind, kind))
            .or_else(|| self.kinds.iter().position(|t| t.kind == kind));
        let at = known.unwrap_or_else(|| {
            self.kinds.push(KindTally {
                kind,
                sent: 0,
                bytes: 0,
            });
            self.kinds.len() - 1
        });
        let tally = &mut self.kinds[at];
        tally.sent += sent;
        tally.bytes += bytes;
    }

    /// `(kind, sent, bytes)` for every kind seen, sorted by kind.
    pub fn kinds(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<_> = self
            .kinds
            .iter()
            .map(|t| (t.kind, t.sent, t.bytes))
            .collect();
        rows.sort_unstable_by_key(|&(kind, ..)| kind);
        rows
    }

    /// Times the C&C phase with the given label was entered.
    pub fn phase(&self, label: &str) -> u64 {
        let at = CncPhase::ALL.iter().position(|p| p.label() == label);
        at.map_or(0, |i| self.phase_entries[i])
    }

    /// Bytes sent for messages of one kind.
    pub fn kind_bytes(&self, kind: &str) -> u64 {
        self.kinds
            .iter()
            .find(|t| t.kind == kind)
            .map_or(0, |t| t.bytes)
    }

    /// Records one lost message: bumps `dropped` and the per-cause split
    /// counter together, so the invariant
    /// `dropped == dropped_partition + dropped_loss + dropped_filter +
    /// dropped_dead` holds by construction (checked in debug builds).
    pub fn record_drop(&mut self, cause: DropCause) {
        self.dropped += 1;
        match cause {
            DropCause::Partition => self.dropped_partition += 1,
            DropCause::Loss => self.dropped_loss += 1,
            DropCause::Filter => self.dropped_filter += 1,
            DropCause::Dead => self.dropped_dead += 1,
        }
        debug_assert_eq!(
            self.dropped,
            self.dropped_partition + self.dropped_loss + self.dropped_filter + self.dropped_dead,
            "dropped total diverged from its per-cause split"
        );
    }

    /// Renders the per-kind breakdown as `kind=count` pairs, sorted by kind.
    pub fn kinds_summary(&self) -> String {
        self.kinds()
            .iter()
            .map(|(kind, sent, _)| format!("{kind}={sent}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 221.2).abs() < 1e-9);
        // Median bucket upper bound: the third sample (3) lands in (2, 4].
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(1000));
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // v=1 → bucket 1 (v ≤ 2 after leading_zeros math), v=2 → ≤2 ...
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn histogram_extreme_values() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(1)); // first bucket's bound, capped below max
    }

    #[test]
    fn phase_and_bytes_lookup() {
        let mut m = Metrics::default();
        m.phase_entries[CncPhase::Agreement as usize] = 4;
        m.add_kind("accept", 10, 640);
        assert_eq!(m.phase("agreement"), 4);
        assert_eq!(m.phase("decision"), 0);
        assert_eq!(m.kind_bytes("accept"), 640);
        assert_eq!(m.kind_bytes("prepare"), 0);
    }

    #[test]
    fn record_drop_keeps_total_equal_to_cause_split() {
        let mut m = Metrics::default();
        m.record_drop(DropCause::Partition);
        m.record_drop(DropCause::Loss);
        m.record_drop(DropCause::Loss);
        m.record_drop(DropCause::Filter);
        m.record_drop(DropCause::Dead);
        assert_eq!(m.dropped, 5);
        assert_eq!(m.dropped_partition, 1);
        assert_eq!(m.dropped_loss, 2);
        assert_eq!(m.dropped_filter, 1);
        assert_eq!(m.dropped_dead, 1);
        assert_eq!(
            m.dropped,
            m.dropped_partition + m.dropped_loss + m.dropped_filter + m.dropped_dead
        );
    }

    #[test]
    fn kind_lookup_joins_a_label_by_its_text() {
        let mut m = Metrics::default();
        m.add_kind("prepare", 3, 192);
        m.sent = 3;
        assert_eq!(m.kind("prepare"), 3);
        assert_eq!(m.kind("accept"), 0);
        assert_eq!(m.kinds_summary(), "prepare=3");
        // The same label at another address joins the same tally.
        let twin: &'static str = Box::leak(String::from("prepare").into_boxed_str());
        m.add_kind(twin, 2, 128);
        m.add_kind("accept", 1, 64);
        assert_eq!(m.kinds(), vec![("accept", 1, 64), ("prepare", 5, 320)]);
    }
}
