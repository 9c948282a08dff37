//! Deterministic client workloads and latency recording.
//!
//! Every protocol crate drives its replicas with the same generators so the
//! cross-protocol comparison (experiment T5) is apples-to-apples.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use crate::smr::{Command, KvCommand, Str};
use simnet::Time;

/// Mix of operations in a generated key-value workload.
#[derive(Clone, Copy, Debug)]
pub struct KvMix {
    /// Fraction of writes (puts); the rest are reads, except `cas_fraction`.
    pub write_fraction: f64,
    /// Fraction of compare-and-swap operations.
    pub cas_fraction: f64,
    /// Number of distinct keys.
    pub keys: usize,
    /// Minimum written-value size in bytes: short generated values are
    /// padded up to this length (with the sender-side NIC model, bigger
    /// values cost real transmit time — the bench's value-size axis).
    /// `0` (the default) keeps the historical tiny `v{seq}` values.
    pub value_bytes: usize,
}

impl Default for KvMix {
    fn default() -> Self {
        KvMix {
            write_fraction: 0.5,
            cas_fraction: 0.0,
            keys: 16,
            value_bytes: 0,
        }
    }
}

impl KvMix {
    /// The same mix with written values padded to at least `bytes` bytes.
    #[must_use]
    pub fn with_value_bytes(mut self, bytes: usize) -> Self {
        self.value_bytes = bytes;
        self
    }
}

/// How a client paces its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WorkloadMode {
    /// Closed loop: exactly one request outstanding; the next is issued when
    /// the reply for the previous one arrives. Offered load self-adjusts to
    /// the system's latency.
    #[default]
    Closed,
    /// Open loop: a new request is issued every `interval_us` simulated µs
    /// regardless of outstanding replies. Offered load is fixed, so queues
    /// (and batches) build up when the system saturates.
    Open {
        /// Inter-arrival time in simulated microseconds (≥ 1).
        interval_us: u64,
    },
}

/// Generates a deterministic stream of KV commands for one client.
pub struct KvWorkload {
    rng: ChaCha20Rng,
    mix: KvMix,
    client: u32,
    next_seq: u64,
}

impl KvWorkload {
    /// Creates a workload for `client` with the given mix and seed.
    pub fn new(client: u32, mix: KvMix, seed: u64) -> Self {
        KvWorkload {
            rng: ChaCha20Rng::seed_from_u64(seed ^ u64::from(client).rotate_left(32)),
            mix,
            client,
            next_seq: 0,
        }
    }

    /// Pads a generated value up to `mix.value_bytes` (no-op at the default
    /// of 0, so pre-existing workloads are byte-identical). Padding is
    /// deterministic and draws no randomness.
    fn pad(&self, v: String) -> Str {
        let mut v = v.into_bytes();
        v.resize(v.len().max(self.mix.value_bytes), b'x');
        String::from_utf8(v)
            .expect("a string padded with ASCII")
            .into()
    }

    /// Produces the next command.
    pub fn next_command(&mut self) -> Command<KvCommand> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key: Str = format!("k{}", self.rng.gen_range(0..self.mix.keys.max(1))).into();
        let r: f64 = self.rng.gen();
        let op = if r < self.mix.cas_fraction {
            KvCommand::Cas {
                key,
                // Expect and new are padded identically, so CAS hit/miss
                // behaviour is independent of the value-size axis.
                expect: self.pad(format!("v{}", seq.saturating_sub(1))),
                new: self.pad(format!("v{seq}")),
            }
        } else if r < self.mix.cas_fraction + self.mix.write_fraction {
            KvCommand::Put {
                key,
                value: self.pad(format!("v{seq}")),
            }
        } else {
            KvCommand::Get { key }
        };
        Command {
            client: self.client,
            seq,
            op,
        }
    }

    /// How many commands have been generated.
    pub fn issued(&self) -> u64 {
        self.next_seq
    }
}

/// Records request → reply latencies (in simulated microseconds) and
/// summarizes them.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request.
    pub fn record(&mut self, start: Time, end: Time) {
        self.samples.push(end.saturating_sub(start));
    }

    /// Records a raw latency in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        self.samples.push(micros);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// The `p`-th percentile (0 < p ≤ 100), 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// All raw samples.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let gen = |seed| {
            let mut w = KvWorkload::new(1, KvMix::default(), seed);
            (0..20).map(|_| w.next_command()).collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn workload_sequences_are_monotone() {
        let mut w = KvWorkload::new(2, KvMix::default(), 1);
        let seqs: Vec<u64> = (0..10).map(|_| w.next_command().seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(w.issued(), 10);
    }

    #[test]
    fn workload_respects_mix_extremes() {
        let writes = KvMix {
            write_fraction: 1.0,
            ..KvMix::default()
        };
        let mut all_writes = KvWorkload::new(0, writes, 3);
        for _ in 0..50 {
            assert!(matches!(
                all_writes.next_command().op,
                KvCommand::Put { .. }
            ));
        }
        let reads = KvMix {
            write_fraction: 0.0,
            ..KvMix::default()
        };
        let mut all_reads = KvWorkload::new(0, reads, 3);
        for _ in 0..50 {
            assert!(matches!(all_reads.next_command().op, KvCommand::Get { .. }));
        }
    }

    #[test]
    fn value_bytes_pads_writes_without_perturbing_the_stream() {
        // The padded stream must be the *same* stream (keys, op kinds,
        // sequence numbers — padding draws no randomness), just with bigger
        // written values; value_bytes = 0 is byte-identical to history.
        let tiny: Vec<_> = {
            let mut w = KvWorkload::new(1, KvMix::default(), 9);
            (0..40).map(|_| w.next_command()).collect()
        };
        let padded: Vec<_> = {
            let mut w = KvWorkload::new(1, KvMix::default().with_value_bytes(256), 9);
            (0..40).map(|_| w.next_command()).collect()
        };
        for (a, b) in tiny.iter().zip(&padded) {
            assert_eq!(a.seq, b.seq);
            match (&a.op, &b.op) {
                (KvCommand::Get { key: ka }, KvCommand::Get { key: kb }) => assert_eq!(ka, kb),
                (KvCommand::Put { key: ka, value: va }, KvCommand::Put { key: kb, value: vb }) => {
                    assert_eq!(ka, kb);
                    assert_eq!(vb.len(), 256);
                    assert!(vb.starts_with(&**va));
                }
                other => panic!("streams diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn latency_statistics() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.mean(), 0.0);
        assert_eq!(rec.percentile(99.0), 0);
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            rec.record_micros(v);
        }
        assert_eq!(rec.count(), 10);
        assert!((rec.mean() - 55.0).abs() < f64::EPSILON);
        assert_eq!(rec.percentile(50.0), 50);
        assert_eq!(rec.percentile(100.0), 100);
        assert_eq!(rec.min(), 10);
        assert_eq!(rec.max(), 100);
        rec.record(Time(100), Time(350));
        assert_eq!(rec.max(), 250);
    }
}
