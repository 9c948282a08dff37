//! Network configuration: delay models and synchrony modes.

use rand::Rng;

/// How long a message takes from send to delivery, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this long — an idealized synchronous net.
    Fixed(u64),
    /// Uniformly distributed in `[lo, hi]` — synchronous with jitter, the
    /// bound `hi` is known.
    Uniform(u64, u64),
    /// Exponentially distributed with the given mean, optionally capped.
    /// With `cap: None` delays are unbounded — the asynchronous model of the
    /// FLP setting, where no protocol can distinguish "slow" from "crashed".
    Exp {
        /// Mean one-way delay in microseconds.
        mean: u64,
        /// Optional hard cap; `Some(_)` restores partial synchrony.
        cap: Option<u64>,
    },
}

impl DelayModel {
    /// Samples one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform(lo, hi) => {
                if lo >= hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
            DelayModel::Exp { mean, cap } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let d = (-(u.ln()) * mean as f64) as u64;
                match cap {
                    Some(c) => d.min(c).max(1),
                    None => d.max(1),
                }
            }
        }
    }

    /// An upper bound on delays, if one exists (`None` for uncapped
    /// exponential — the asynchronous case).
    pub fn bound(&self) -> Option<u64> {
        match *self {
            DelayModel::Fixed(d) => Some(d),
            DelayModel::Uniform(_, hi) => Some(hi),
            DelayModel::Exp { cap, .. } => cap,
        }
    }
}

/// The synchrony aspect of the tutorial's taxonomy, derived from a delay
/// model. See the crate docs for the mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Synchrony {
    /// Known bounds on message delay and processing speed.
    Synchronous,
    /// Bounds exist but only hold for a subset / after stabilization.
    PartiallySynchronous,
    /// No bounds at all.
    Asynchronous,
}

/// Sender-side transmit-path model: every outbound message occupies the
/// sender's NIC for `per_msg_us + size_bytes / bytes_per_us` microseconds,
/// FIFO per sender, *before* the propagation delay of the [`DelayModel`]
/// applies. `per_msg_us` is the fixed per-message cost (syscall, interrupt,
/// header processing) that batching amortizes; `bytes_per_us` is the
/// serialization bandwidth.
///
/// With no NIC model (the default) senders have infinite transmit capacity
/// and throughput is bounded only by round-trip latency — the throughput
/// benchmark enables it to expose the contention that makes batching pay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicModel {
    /// Fixed cost per message in µs (independent of size).
    pub per_msg_us: u64,
    /// Serialization bandwidth in bytes per µs (≥ 1).
    pub bytes_per_us: u64,
}

impl NicModel {
    /// Transmit time for one message of `size` bytes.
    pub fn tx_micros(&self, size: u64) -> u64 {
        self.per_msg_us + size / self.bytes_per_us.max(1)
    }
}

/// Deterministic disk-device model, the storage analogue of [`NicModel`]:
/// every I/O costs `seek_us + size_bytes / bytes_per_us` microseconds of
/// simulated device time. `seek_us` is the fixed positioning cost that group
/// commit amortizes (one seek per WAL flush, however many records it
/// carries); `bytes_per_us` is the sequential transfer bandwidth.
///
/// The storage crate charges this time into per-device counters rather than
/// scheduling events, so recovery-time and cold-cache experiments are pure
/// functions of (workload, model, seed) — exactly like message latency under
/// the NIC model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskModel {
    /// Fixed positioning cost per I/O in µs (independent of size).
    pub seek_us: u64,
    /// Sequential transfer bandwidth in bytes per µs (≥ 1).
    pub bytes_per_us: u64,
}

impl DiskModel {
    /// Service time for one I/O of `size` bytes.
    pub fn io_micros(&self, size: u64) -> u64 {
        self.seek_us + size / self.bytes_per_us.max(1)
    }

    /// A commodity-SSD-like profile: 80 µs seek, ~500 MB/s transfer.
    pub fn ssd() -> Self {
        DiskModel {
            seek_us: 80,
            bytes_per_us: 512,
        }
    }

    /// A spinning-disk-like profile: 4 ms seek, ~128 MB/s transfer.
    pub fn hdd() -> Self {
        DiskModel {
            seek_us: 4_000,
            bytes_per_us: 128,
        }
    }
}

/// A named multi-region WAN topology.
///
/// Nodes are assigned to regions via [`crate::Sim::set_node_region`]; a
/// message between two nodes in the same region samples `intra`, and a
/// message from region `a` to region `b` samples `inter[a][b]` — the matrix
/// need not be symmetric, so transatlantic-style asymmetric routes are
/// expressible. Nodes with no region assignment (or a `NetConfig` with
/// `wan: None`) fall back to the flat [`NetConfig::delay`] model, which keeps
/// every pre-geo configuration bit-identical.
#[derive(Clone, Debug)]
pub struct WanTopology {
    /// Human-readable region names; `regions.len()` is the region count.
    pub regions: Vec<String>,
    /// Delay model for messages within a single region.
    pub intra: DelayModel,
    /// `inter[a][b]` is the delay model from region `a` to region `b`
    /// (`a != b`); diagonal entries are ignored in favour of `intra`.
    pub inter: Vec<Vec<DelayModel>>,
}

impl WanTopology {
    /// A symmetric topology: one `intra` model inside every region and one
    /// `inter` model between every ordered pair of distinct regions.
    pub fn symmetric(n_regions: usize, intra: DelayModel, inter: DelayModel) -> Self {
        assert!(n_regions >= 1, "topology needs at least one region");
        WanTopology {
            regions: (0..n_regions).map(|r| format!("region-{r}")).collect(),
            intra,
            inter: vec![vec![inter; n_regions]; n_regions],
        }
    }

    /// A three-datacenter continental profile: tight 200–800 µs jitter
    /// inside each region, asymmetric 18–26 ms one-way delays between them
    /// (the pairwise means differ so no two regions are equidistant).
    pub fn three_dc() -> Self {
        let mut t = WanTopology::symmetric(
            3,
            DelayModel::Uniform(200, 800),
            DelayModel::Uniform(18_000, 22_000),
        );
        t.regions = vec!["us-east".into(), "eu-west".into(), "ap-south".into()];
        // Asymmetric long-haul pairs: eu<->ap is the slowest route.
        t.inter[0][1] = DelayModel::Uniform(18_000, 22_000);
        t.inter[1][0] = DelayModel::Uniform(19_000, 23_000);
        t.inter[0][2] = DelayModel::Uniform(20_000, 24_000);
        t.inter[2][0] = DelayModel::Uniform(21_000, 25_000);
        t.inter[1][2] = DelayModel::Uniform(22_000, 26_000);
        t.inter[2][1] = DelayModel::Uniform(23_000, 27_000);
        t
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The delay model governing a message from region `a` to region `b`.
    pub fn model_between(&self, a: usize, b: usize) -> DelayModel {
        if a == b {
            self.intra
        } else {
            self.inter[a][b]
        }
    }

    /// The smallest one-way inter-region delay across all ordered pairs of
    /// distinct regions (`None` for single-region topologies). A local read
    /// beating this floor provably never paid a WAN hop.
    pub fn min_inter_delay(&self) -> Option<u64> {
        let n = self.n_regions();
        (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .map(|(a, b)| match self.inter[a][b] {
                DelayModel::Fixed(d) => d,
                DelayModel::Uniform(lo, _) => lo,
                DelayModel::Exp { .. } => 1,
            })
            .min()
    }
}

/// Full network configuration for a [`crate::Sim`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Delay model applied to every message (unless a per-link override
    /// is installed via [`crate::Sim::set_link_delay`]).
    pub delay: DelayModel,
    /// Probability a message is silently dropped (omission faults).
    pub drop_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub duplicate_prob: f64,
    /// Optional sender-side transmit serialization; `None` = infinite NIC
    /// capacity (the historical behaviour).
    pub nic: Option<NicModel>,
    /// Optional multi-region WAN topology. `None` (the default everywhere)
    /// keeps the flat single-`delay` network; `Some` makes the delay model
    /// region-pair-dependent for nodes with region assignments.
    pub wan: Option<WanTopology>,
}

impl NetConfig {
    /// Idealized synchronous network: fixed 500 µs one-way delay, no loss.
    pub fn synchronous() -> Self {
        NetConfig {
            delay: DelayModel::Fixed(500),
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            nic: None,
            wan: None,
        }
    }

    /// Datacenter LAN profile: 300–800 µs jittered delay, no loss. This is
    /// the "partially synchronous, predictable and controllable" setting the
    /// tutorial says is reasonable inside data centers.
    pub fn lan() -> Self {
        NetConfig {
            delay: DelayModel::Uniform(300, 800),
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            nic: None,
            wan: None,
        }
    }

    /// Wide-area profile: 20 ms mean, heavy-tailed, capped at 200 ms.
    pub fn wan() -> Self {
        NetConfig {
            delay: DelayModel::Exp {
                mean: 20_000,
                cap: Some(200_000),
            },
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            nic: None,
            wan: None,
        }
    }

    /// Fully asynchronous network: unbounded exponential delays. Under this
    /// profile no deterministic protocol can be live with even one crash
    /// fault (FLP).
    pub fn asynchronous() -> Self {
        NetConfig {
            delay: DelayModel::Exp {
                mean: 1_000,
                cap: None,
            },
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            nic: None,
            wan: None,
        }
    }

    /// Returns this config with the given message drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob must be in [0,1]");
        self.drop_prob = p;
        self
    }

    /// Returns this config with the given duplication probability.
    pub fn with_duplicate_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate_prob must be in [0,1]");
        self.duplicate_prob = p;
        self
    }

    /// Returns this config with a different delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Returns this config with a multi-region WAN topology. Nodes still
    /// need region assignments ([`crate::Sim::set_node_region`]) before any
    /// message actually samples a topology model.
    pub fn with_wan(mut self, topology: WanTopology) -> Self {
        self.wan = Some(topology);
        self
    }

    /// Returns this config with a sender-side NIC serialization model.
    pub fn with_nic(mut self, per_msg_us: u64, bytes_per_us: u64) -> Self {
        assert!(bytes_per_us >= 1, "bytes_per_us must be >= 1");
        self.nic = Some(NicModel {
            per_msg_us,
            bytes_per_us,
        });
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn fixed_delay_is_constant() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let m = DelayModel::Fixed(42);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 42);
        }
        assert_eq!(m.bound(), Some(42));
    }

    #[test]
    fn uniform_delay_respects_bounds() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let m = DelayModel::Uniform(10, 20);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!((10..=20).contains(&d));
        }
        assert_eq!(m.bound(), Some(20));
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        assert_eq!(DelayModel::Uniform(5, 5).sample(&mut rng), 5);
    }

    #[test]
    fn exp_delay_capped_and_positive() {
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let m = DelayModel::Exp {
            mean: 100,
            cap: Some(500),
        };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!((1..=500).contains(&d));
        }
    }

    #[test]
    fn exp_uncapped_has_no_bound() {
        let m = DelayModel::Exp {
            mean: 100,
            cap: None,
        };
        assert_eq!(m.bound(), None);
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let m = DelayModel::Exp {
            mean: 1_000,
            cap: None,
        };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (800.0..1200.0).contains(&mean),
            "empirical mean {mean} too far from 1000"
        );
    }

    #[test]
    fn the_asynchronous_profile_has_no_delay_bound() {
        assert_eq!(NetConfig::asynchronous().delay.bound(), None);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn invalid_drop_prob_panics() {
        let _ = NetConfig::lan().with_drop_prob(1.5);
    }

    #[test]
    fn wan_topology_models_and_floor() {
        let t = WanTopology::three_dc();
        assert_eq!(t.n_regions(), 3);
        assert_eq!(t.model_between(1, 1), t.intra);
        assert_ne!(t.model_between(0, 1), t.model_between(1, 0));
        assert_eq!(t.min_inter_delay(), Some(18_000));
        let flat = WanTopology::symmetric(1, DelayModel::Fixed(100), DelayModel::Fixed(1));
        assert_eq!(flat.min_inter_delay(), None);
        assert!(NetConfig::lan().wan.is_none());
        assert!(NetConfig::lan().with_wan(t).wan.is_some());
    }

    #[test]
    fn disk_model_charges_seek_plus_transfer() {
        let d = DiskModel {
            seek_us: 100,
            bytes_per_us: 64,
        };
        assert_eq!(d.io_micros(0), 100);
        assert_eq!(d.io_micros(6400), 200);
        // seek dominates small I/O: group commit's whole case.
        assert!(d.io_micros(64) < 2 * d.io_micros(0));
        let degenerate = DiskModel {
            seek_us: 1,
            bytes_per_us: 0,
        };
        assert_eq!(degenerate.io_micros(8), 9); // clamped to 1 byte/µs
        assert!(DiskModel::hdd().io_micros(4096) > DiskModel::ssd().io_micros(4096));
    }
}
