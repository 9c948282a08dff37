//! Quorum systems and their safety conditions.
//!
//! The tutorial's safety argument for Paxos is quorum intersection: *any two
//! quorums of acceptors must share at least one acceptor*, so a new leader
//! learns of any value chosen by an old leader. Flexible Paxos relaxes this:
//! only **leader-election quorums and replication quorums** must intersect —
//! majorities for both are "too conservative". Byzantine protocols need
//! quorums intersecting in at least `f+1` nodes (so the overlap contains a
//! *correct* node), giving PBFT's `2f+1`-of-`3f+1`. Hybrid models (UpRight,
//! SeeMoRe) tolerate `m` malicious and `c` crash faults with network
//! `3m+2c+1`, quorum `2m+c+1`, intersection `m+1`.
//!
//! [`QuorumSpec`] captures all of these; the checkers here are used directly
//! by the protocol crates and exhaustively validated by property tests.

use std::collections::BTreeSet;

use simnet::NodeId;

/// Which protocol phase a quorum is for. Flexible Paxos decouples the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1 / prepare / view-change / leader election.
    Election,
    /// Phase 2 / accept / replication / commit.
    Agreement,
}

/// A quorum system over nodes `0..n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumSpec {
    /// Simple majorities for both phases (classic Paxos, Raft).
    Majority {
        /// Cluster size.
        n: usize,
    },
    /// Byzantine quorums of size `n − f`; safe when `n ≥ 3f + 1`, where any
    /// two quorums intersect in at least `f + 1` nodes (PBFT, HotStuff,
    /// Zyzzyva).
    Byzantine {
        /// Cluster size.
        n: usize,
        /// Maximum Byzantine faults tolerated.
        f: usize,
    },
    /// Flexible Paxos: explicit election quorum size `q1` and replication
    /// quorum size `q2`; safe iff `q1 + q2 > n`.
    Flexible {
        /// Cluster size.
        n: usize,
        /// Election (phase-1) quorum size.
        q1: usize,
        /// Replication (phase-2) quorum size.
        q2: usize,
    },
    /// Grid quorums (a Flexible Paxos instance): nodes arranged in
    /// `rows × cols`; an election quorum is any full **row**, a replication
    /// quorum any full **column**; every row meets every column in exactly
    /// one node.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Hybrid fault model with `m` malicious and `c` crash faults:
    /// network `3m + 2c + 1`, quorums `2m + c + 1`, intersection `m + 1`
    /// (UpRight, SeeMoRe mode 1).
    Hybrid {
        /// Maximum malicious faults.
        m: usize,
        /// Maximum crash faults.
        c: usize,
    },
}

/// Simple majorities over `n` nodes — the default quorum system of a
/// cluster described only by its size.
impl From<usize> for QuorumSpec {
    fn from(n: usize) -> Self {
        QuorumSpec::Majority { n }
    }
}

impl QuorumSpec {
    /// Total number of nodes in the system.
    pub fn n(&self) -> usize {
        match *self {
            QuorumSpec::Majority { n } => n,
            QuorumSpec::Byzantine { n, .. } => n,
            QuorumSpec::Flexible { n, .. } => n,
            QuorumSpec::Grid { rows, cols } => rows * cols,
            QuorumSpec::Hybrid { m, c } => 3 * m + 2 * c + 1,
        }
    }

    /// Size of a quorum for the given phase (for [`QuorumSpec::Grid`] this
    /// is the size of a row/column; membership is structural, so prefer
    /// [`QuorumSpec::is_quorum`]).
    pub fn quorum_size(&self, phase: Phase) -> usize {
        match *self {
            QuorumSpec::Majority { n } => n / 2 + 1,
            QuorumSpec::Byzantine { n, f } => n - f,
            QuorumSpec::Flexible { q1, q2, .. } => match phase {
                Phase::Election => q1,
                Phase::Agreement => q2,
            },
            QuorumSpec::Grid { rows, cols } => match phase {
                Phase::Election => cols,  // a full row has `cols` members
                Phase::Agreement => rows, // a full column has `rows` members
            },
            QuorumSpec::Hybrid { m, c } => 2 * m + c + 1,
        }
    }

    /// Guaranteed minimum overlap between any election quorum and any
    /// agreement quorum.
    pub fn min_intersection(&self) -> usize {
        match *self {
            QuorumSpec::Majority { n } => 2 * (n / 2 + 1) - n,
            QuorumSpec::Byzantine { n, f } => (2 * (n - f)).saturating_sub(n),
            QuorumSpec::Flexible { n, q1, q2 } => (q1 + q2).saturating_sub(n),
            QuorumSpec::Grid { .. } => 1,
            QuorumSpec::Hybrid { m, c } => {
                let n = 3 * m + 2 * c + 1;
                (2 * (2 * m + c + 1)).saturating_sub(n)
            }
        }
    }

    /// Whether the configuration satisfies its safety condition:
    ///
    /// * crash models: election and agreement quorums intersect (≥ 1);
    /// * Byzantine: intersection ≥ `f + 1` (contains a correct node), which
    ///   is the `n ≥ 3f + 1` lower bound of Pease–Shostak–Lamport;
    /// * hybrid: intersection ≥ `m + 1`.
    pub fn is_safe(&self) -> bool {
        match *self {
            QuorumSpec::Majority { n } => n >= 1,
            QuorumSpec::Byzantine { n, f } => n > 3 * f && self.min_intersection() >= f + 1,
            QuorumSpec::Flexible { .. } | QuorumSpec::Grid { .. } => self.min_intersection() >= 1,
            QuorumSpec::Hybrid { m, .. } => self.min_intersection() >= m + 1,
        }
    }

    /// Whether `members` contains a quorum for `phase`.
    ///
    /// For cardinality-based systems this is a size check; for grids it
    /// checks for a complete row (election) or column (agreement).
    pub fn is_quorum(&self, members: &BTreeSet<NodeId>, phase: Phase) -> bool {
        match *self {
            QuorumSpec::Grid { rows, cols } => match phase {
                Phase::Election => (0..rows)
                    .any(|r| (0..cols).all(|c| members.contains(&NodeId::from(r * cols + c)))),
                Phase::Agreement => (0..cols)
                    .any(|c| (0..rows).all(|r| members.contains(&NodeId::from(r * cols + c)))),
            },
            _ => members.len() >= self.quorum_size(phase),
        }
    }

    /// The members of grid row `r` (election quorum `r`). Panics for
    /// non-grid specs.
    pub fn grid_row(&self, r: usize) -> Vec<NodeId> {
        match *self {
            QuorumSpec::Grid { rows, cols } => {
                assert!(r < rows);
                (0..cols).map(|c| NodeId::from(r * cols + c)).collect()
            }
            _ => panic!("grid_row on non-grid quorum spec"),
        }
    }

    /// The members of grid column `c` (agreement quorum `c`). Panics for
    /// non-grid specs.
    pub fn grid_col(&self, c: usize) -> Vec<NodeId> {
        match *self {
            QuorumSpec::Grid { rows, cols } => {
                assert!(c < cols);
                (0..rows).map(|r| NodeId::from(r * cols + c)).collect()
            }
            _ => panic!("grid_col on non-grid quorum spec"),
        }
    }
}

/// Iterates over all `k`-subsets of `0..n` (small `n` only) — used by the
/// exhaustive intersection checks in tests and the F6 experiment.
pub fn k_subsets(n: usize, k: usize) -> Vec<BTreeSet<NodeId>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| NodeId::from(i)).collect());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Exhaustively verifies that every election quorum intersects every
/// agreement quorum in at least `spec.min_intersection()` nodes. Only
/// feasible for small `n`; the property tests use it to validate the
/// analytic formulas.
pub fn verify_intersection_exhaustively(spec: &QuorumSpec) -> bool {
    let n = spec.n();
    let (elections, agreements): (Vec<BTreeSet<NodeId>>, Vec<BTreeSet<NodeId>>) = match spec {
        QuorumSpec::Grid { rows, cols } => (
            (0..*rows)
                .map(|r| spec.grid_row(r).into_iter().collect())
                .collect(),
            (0..*cols)
                .map(|c| spec.grid_col(c).into_iter().collect())
                .collect(),
        ),
        _ => (
            k_subsets(n, spec.quorum_size(Phase::Election)),
            k_subsets(n, spec.quorum_size(Phase::Agreement)),
        ),
    };
    let need = spec.min_intersection();
    elections
        .iter()
        .all(|e| agreements.iter().all(|a| e.intersection(a).count() >= need))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn majority_sizes() {
        let q = QuorumSpec::Majority { n: 5 };
        assert_eq!(q.quorum_size(Phase::Election), 3);
        assert_eq!(q.quorum_size(Phase::Agreement), 3);
        assert_eq!(q.min_intersection(), 1);
        assert!(q.is_safe());
        assert!(q.is_quorum(&set(&[0, 2, 4]), Phase::Agreement));
        assert!(!q.is_quorum(&set(&[0, 2]), Phase::Agreement));
    }

    #[test]
    fn byzantine_pbft_numbers() {
        // The PBFT slide: 3f+1 replicas, quorums of 2f+1, intersection f+1.
        let q = QuorumSpec::Byzantine { n: 4, f: 1 };
        assert_eq!(q.quorum_size(Phase::Agreement), 3);
        assert_eq!(q.min_intersection(), 2);
        assert!(q.is_safe());
        // n = 3f is unsafe: quorums may intersect only in faulty nodes.
        assert!(!QuorumSpec::Byzantine { n: 3, f: 1 }.is_safe());
        assert!(!QuorumSpec::Byzantine { n: 6, f: 2 }.is_safe());
        assert!(QuorumSpec::Byzantine { n: 7, f: 2 }.is_safe());
    }

    #[test]
    fn flexible_generalized_condition() {
        // |Q1| + |Q2| > n is sufficient; majorities not required.
        let q = QuorumSpec::Flexible { n: 6, q1: 5, q2: 2 };
        assert!(q.is_safe());
        assert_eq!(q.min_intersection(), 1);
        // Violating the condition is unsafe.
        assert!(!QuorumSpec::Flexible { n: 6, q1: 3, q2: 3 }.is_safe());
    }

    #[test]
    fn grid_rows_meet_columns() {
        let q = QuorumSpec::Grid { rows: 2, cols: 3 };
        assert_eq!(q.n(), 6);
        assert_eq!(q.min_intersection(), 1);
        assert!(q.is_safe());
        // Row 0 = {0,1,2} is an election quorum.
        assert!(q.is_quorum(&set(&[0, 1, 2]), Phase::Election));
        assert!(!q.is_quorum(&set(&[0, 1, 2]), Phase::Agreement));
        // Column 1 = {1,4} is an agreement quorum.
        assert!(q.is_quorum(&set(&[1, 4]), Phase::Agreement));
        assert!(!q.is_quorum(&set(&[1, 3]), Phase::Agreement));
        assert_eq!(q.grid_row(1), vec![NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(q.grid_col(2), vec![NodeId(2), NodeId(5)]);
    }

    #[test]
    fn hybrid_upright_seemore_numbers() {
        // The UpRight slide: quorum 2m+c+1, intersection m+1, network 3m+2c+1.
        let q = QuorumSpec::Hybrid { m: 1, c: 1 };
        assert_eq!(q.n(), 6);
        assert_eq!(q.quorum_size(Phase::Agreement), 4);
        assert_eq!(q.min_intersection(), 2);
        assert!(q.is_safe());
        // m = c = 0 degenerates to a single node.
        let q0 = QuorumSpec::Hybrid { m: 0, c: 0 };
        assert_eq!(q0.n(), 1);
        assert!(q0.is_safe());
        // Pure-crash hybrid degenerates to majority of 2c+1.
        let qc = QuorumSpec::Hybrid { m: 0, c: 2 };
        assert_eq!(qc.n(), 5);
        assert_eq!(qc.quorum_size(Phase::Agreement), 3);
    }

    #[test]
    fn k_subsets_counts() {
        assert_eq!(k_subsets(4, 2).len(), 6);
        assert_eq!(k_subsets(5, 3).len(), 10);
        assert_eq!(k_subsets(3, 0).len(), 1);
        assert_eq!(k_subsets(2, 3).len(), 0);
    }

    #[test]
    fn exhaustive_check_agrees_with_formulas() {
        for spec in [
            QuorumSpec::Majority { n: 5 },
            QuorumSpec::Byzantine { n: 4, f: 1 },
            QuorumSpec::Flexible { n: 6, q1: 5, q2: 2 },
            QuorumSpec::Grid { rows: 2, cols: 3 },
            QuorumSpec::Hybrid { m: 1, c: 1 },
        ] {
            assert!(
                verify_intersection_exhaustively(&spec),
                "intersection formula too optimistic for {spec:?}"
            );
        }
    }

    proptest! {
        /// The analytic min_intersection is never larger than the true
        /// minimum over all quorum pairs (checked exhaustively, small n).
        #[test]
        fn prop_flexible_intersection_sound(n in 2usize..8, q1 in 1usize..8, q2 in 1usize..8) {
            prop_assume!(q1 <= n && q2 <= n);
            let spec = QuorumSpec::Flexible { n, q1, q2 };
            prop_assert!(verify_intersection_exhaustively(&spec));
        }

        /// Majority quorums always intersect, for any cluster size.
        #[test]
        fn prop_majority_always_intersects(n in 1usize..9) {
            let spec = QuorumSpec::Majority { n };
            prop_assert!(spec.min_intersection() >= 1);
            prop_assert!(verify_intersection_exhaustively(&spec));
        }

        /// Byzantine safety iff n ≥ 3f+1.
        #[test]
        fn prop_byzantine_bound(f in 0usize..3, extra in 0usize..4) {
            let safe_n = 3 * f + 1 + extra;
            let safe = QuorumSpec::Byzantine { n: safe_n, f }.is_safe();
            prop_assert!(safe);
            if f > 0 {
                let unsafe_spec = QuorumSpec::Byzantine { n: 3 * f, f };
                prop_assert!(!unsafe_spec.is_safe());
            }
        }

        /// Grid quorums: every row meets every column exactly once.
        #[test]
        fn prop_grid_intersection(rows in 1usize..5, cols in 1usize..5) {
            let spec = QuorumSpec::Grid { rows, cols };
            for r in 0..rows {
                let row: BTreeSet<_> = spec.grid_row(r).into_iter().collect();
                for c in 0..cols {
                    let col: BTreeSet<_> = spec.grid_col(c).into_iter().collect();
                    prop_assert_eq!(row.intersection(&col).count(), 1);
                }
            }
        }

        /// Hybrid quorum intersection always contains m+1 nodes.
        #[test]
        fn prop_hybrid_intersection(m in 0usize..3, c in 0usize..3) {
            let spec = QuorumSpec::Hybrid { m, c };
            prop_assert!(spec.min_intersection() >= m + 1);
            if spec.n() <= 10 {
                prop_assert!(verify_intersection_exhaustively(&spec));
            }
        }
    }
}
