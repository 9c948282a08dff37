//! UpRight (Clement et al., SOSP '09): cluster services under a hybrid
//! fault model.
//!
//! UpRight counts faults in two dimensions — at most `m` malicious
//! (commission) and at most `c` crash (omission) failures — and derives the
//! quorum arithmetic the tutorial tabulates:
//!
//! * network size: `3m + 2c + 1`
//! * quorum size: `2m + c + 1`
//! * quorum intersection: `m + 1`
//!
//! plus the three engineering moves the slide lists: *request quorums*
//! (separate data path from control path), Zyzzyva-style speculation, and
//! Yin et al.'s **separation of agreement from execution** — agreement
//! needs the full `3m + 2c + 1` cluster, execution only `2m + c + 1`.
//!
//! This module provides the fault-model arithmetic, its exhaustive
//! validation against [`consensus_core::QuorumSpec::Hybrid`], and an
//! end-to-end run: the agreement tier is the SeeMoRe mode-1 engine (a
//! hybrid-quorum protocol with exactly UpRight's sizes), demonstrating that
//! the numbers are achievable, with the execution-tier size computed per
//! the separation result.

use consensus_core::QuorumSpec;

/// The UpRight fault model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpRightConfig {
    /// Maximum commission (malicious) faults.
    pub m: usize,
    /// Maximum omission (crash) faults.
    pub c: usize,
}

impl UpRightConfig {
    /// Creates a config.
    pub fn new(m: usize, c: usize) -> Self {
        UpRightConfig { m, c }
    }

    /// Agreement-tier size: `3m + 2c + 1`.
    pub fn agreement_nodes(&self) -> usize {
        3 * self.m + 2 * self.c + 1
    }

    /// Execution-tier size (separating agreement from execution):
    /// `2m + c + 1`.
    pub fn execution_nodes(&self) -> usize {
        2 * self.m + self.c + 1
    }

    /// Quorum size: `2m + c + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.m + self.c + 1
    }

    /// Guaranteed quorum intersection: `m + 1`.
    pub fn intersection(&self) -> usize {
        self.quorum() * 2 - self.agreement_nodes()
    }

    /// The matching quorum system.
    pub fn quorum_spec(&self) -> QuorumSpec {
        QuorumSpec::Hybrid {
            m: self.m,
            c: self.c,
        }
    }

    /// Request-quorum size: a client must send its request to at least
    /// `m + 1` replicas so at least one correct replica holds the data —
    /// the "separate the data path from the control path" trick.
    pub fn request_quorum(&self) -> usize {
        self.m + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seemore::{Mode, SeeMoReConfig, SmCluster};
    use consensus_core::quorum::{verify_intersection_exhaustively, Phase};
    use simnet::{NetConfig, Time};

    #[test]
    fn slide_numbers_for_m1_c1() {
        let u = UpRightConfig::new(1, 1);
        assert_eq!(u.agreement_nodes(), 6);
        assert_eq!(u.quorum(), 4);
        assert_eq!(u.intersection(), 2); // m + 1
        assert_eq!(u.execution_nodes(), 4);
        assert_eq!(u.request_quorum(), 2);
    }

    #[test]
    fn degenerate_cases_recover_classic_bounds() {
        // Pure Byzantine (c = 0): 3m+1 nodes, 2m+1 quorums — PBFT.
        let byz = UpRightConfig::new(1, 0);
        assert_eq!(byz.agreement_nodes(), 4);
        assert_eq!(byz.quorum(), 3);
        assert_eq!(byz.intersection(), 2);
        // Pure crash (m = 0): 2c+1 nodes, c+1 quorums — Paxos.
        let crash = UpRightConfig::new(0, 2);
        assert_eq!(crash.agreement_nodes(), 5);
        assert_eq!(crash.quorum(), 3);
        assert_eq!(crash.intersection(), 1);
    }

    #[test]
    fn intersection_formula_verified_exhaustively() {
        for m in 0..3 {
            for c in 0..3 {
                let u = UpRightConfig::new(m, c);
                let spec = u.quorum_spec();
                assert_eq!(spec.n(), u.agreement_nodes());
                assert_eq!(spec.quorum_size(Phase::Agreement), u.quorum());
                assert_eq!(spec.min_intersection(), u.intersection());
                assert!(u.intersection() >= m + 1, "m={m} c={c}");
                if u.agreement_nodes() <= 9 {
                    assert!(verify_intersection_exhaustively(&spec));
                }
            }
        }
    }

    #[test]
    fn execution_tier_is_smaller_than_agreement_tier() {
        for m in 0..4 {
            for c in 0..4 {
                let u = UpRightConfig::new(m, c);
                if m + c > 0 {
                    assert!(
                        u.execution_nodes() < u.agreement_nodes(),
                        "separation saves replicas for m={m} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn end_to_end_under_upright_sizes() {
        // The agreement tier at UpRight's exact sizes, running a hybrid-
        // quorum protocol (SeeMoRe mode 1) with m malicious-capable and c
        // crash-prone nodes.
        let u = UpRightConfig::new(1, 1);
        let cfg = SeeMoReConfig {
            m: u.m,
            c: u.c,
            mode: Mode::One,
        };
        assert_eq!(cfg.n(), u.agreement_nodes());
        assert_eq!(cfg.quorum(), u.quorum());
        let mut cluster = SmCluster::new(cfg, 1, 6, NetConfig::lan(), 1);
        assert!(cluster.run(Time::from_secs(20)));
        assert_eq!(cluster.total_completed(), 6);
    }
}
