//! The Paxos acceptor and its tally, shared by every Paxos variant.
//!
//! A [`Register`] is one acceptor over a set of slots: a single promise
//! (`BallotNum`) covers every slot, and each slot keeps its latest accepted
//! `(AcceptNum, AcceptVal)`. Single-decree and Fast Paxos use slot 0,
//! Multi-Paxos one slot per log index (RMWPaxos' register updated in place),
//! and Paxos Commit one register per resource manager — Gray & Lamport's N
//! instances over one acceptor set.
//!
//! A [`Tally`] is the other end: a proposer's phase-1b or a learner's
//! phase-2b count. It counts each voter once, however often its reply is
//! delivered, and keeps the highest-ballot value reported per slot.

use std::collections::{BTreeMap, BTreeSet};

use simnet::NodeId;

use crate::quorum::Phase;
use crate::{Ballot, QuorumSpec};

/// One acceptor: a promise over many slots, plus each slot's latest
/// accepted `(ballot, value)`.
#[derive(Clone, Debug)]
pub struct Register<V> {
    promise: Ballot,
    accepted: BTreeMap<usize, (Ballot, V)>,
}

impl<V> Default for Register<V> {
    fn default() -> Self {
        Register {
            promise: Ballot::ZERO,
            accepted: BTreeMap::new(),
        }
    }
}

impl<V> Register<V> {
    /// The highest ballot promised.
    pub fn promise(&self) -> Ballot {
        self.promise
    }

    /// Phase 1b: promise `ballot` unless a higher ballot is promised.
    /// `Ok(true)` when the promise rose, `Ok(false)` when `ballot` is the
    /// current promise, and `Err` with the promise that refused it.
    pub fn prepare(&mut self, ballot: Ballot) -> Result<bool, Ballot> {
        if ballot < self.promise {
            return Err(self.promise);
        }
        let rose = ballot > self.promise;
        self.promise = ballot;
        Ok(rose)
    }

    /// Phase 2b: accept `v` at `slot` under [`Register::prepare`]'s rule,
    /// which it also applies to the promise.
    pub fn accept(&mut self, ballot: Ballot, slot: usize, v: V) -> Result<bool, Ballot> {
        let rose = self.prepare(ballot)?;
        self.accepted.insert(slot, (ballot, v));
        Ok(rose)
    }

    /// The latest `(ballot, value)` accepted at `slot`.
    pub fn accepted(&self, slot: usize) -> Option<&(Ballot, V)> {
        self.accepted.get(&slot)
    }

    /// Every accepted slot at or above `low`, in slot order.
    pub fn accepted_since(&self, low: usize) -> impl Iterator<Item = (usize, &(Ballot, V))> {
        self.accepted.range(low..).map(|(&slot, acc)| (slot, acc))
    }

    /// Forgets every slot below `floor` (a checkpoint absorbed them).
    pub fn prune_below(&mut self, floor: usize) {
        self.accepted = self.accepted.split_off(&floor);
    }

    /// A decided value is implicitly accepted: an empty `slot` takes `v` at
    /// the current promise.
    pub fn note_decided(&mut self, slot: usize, v: V) {
        self.accepted.entry(slot).or_insert((self.promise, v));
    }

    /// WAL replay of an accept record. It stores unconditionally: a
    /// checkpoint logs the promise before older accepts.
    pub fn restore(&mut self, ballot: Ballot, slot: usize, v: V) {
        self.promise = self.promise.max(ballot);
        self.accepted.insert(slot, (ballot, v));
    }
}

/// A count of distinct voters toward a quorum, with the highest-ballot
/// value each slot was reported with (the first one on an equal ballot).
#[derive(Clone, Debug)]
pub struct Tally<V> {
    spec: QuorumSpec,
    phase: Phase,
    voters: BTreeSet<NodeId>,
    values: BTreeMap<usize, (Ballot, V)>,
}

impl<V> Tally<V> {
    /// An empty tally toward a `phase` quorum of `spec`.
    pub fn new(spec: QuorumSpec, phase: Phase) -> Self {
        Tally {
            spec,
            phase,
            voters: BTreeSet::new(),
            values: BTreeMap::new(),
        }
    }

    /// Counts `from` once and merges the `(slot, ballot, value)` triples it
    /// reports.
    pub fn vote(&mut self, from: NodeId, reports: impl IntoIterator<Item = (usize, Ballot, V)>) {
        self.voters.insert(from);
        for (slot, ballot, v) in reports {
            match self.values.get(&slot) {
                Some((held, _)) if *held >= ballot => {}
                _ => {
                    self.values.insert(slot, (ballot, v));
                }
            }
        }
    }

    /// Whether the voters form a quorum.
    pub fn reached(&self) -> bool {
        self.spec.is_quorum(&self.voters, self.phase)
    }

    /// The value kept for `slot`.
    pub fn value(&self, slot: usize) -> Option<&V> {
        self.values.get(&slot).map(|(_, v)| v)
    }

    /// The kept `(ballot, value)` per slot.
    pub fn into_values(self) -> BTreeMap<usize, (Ballot, V)> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const B1: Ballot = Ballot::new(1, 0);
    const B2: Ballot = Ballot::new(2, 1);

    #[test]
    fn prepare_and_accept_decision_table() {
        let mut r = Register::default();
        assert_eq!(
            r.prepare(Ballot::ZERO),
            Ok(false),
            "the zero ballot is promised already"
        );
        assert_eq!(r.prepare(B2), Ok(true), "the promise rose");
        assert_eq!(r.prepare(B2), Ok(false), "a repeat does not raise it");
        assert_eq!(r.prepare(B1), Err(B2), "a refusal carries the promise");
        assert_eq!(r.accept(B1, 0, 'a'), Err(B2));
        assert_eq!(r.accepted(0), None, "nothing accepted below the promise");
        assert_eq!(r.accept(B2, 0, 'b'), Ok(false));
        assert_eq!(r.accept(Ballot::new(3, 0), 4, 'c'), Ok(true));
        assert_eq!(r.promise(), Ballot::new(3, 0));
        assert_eq!(r.accepted(0), Some(&(B2, 'b')));
        let since: Vec<usize> = r.accepted_since(1).map(|(slot, _)| slot).collect();
        assert_eq!(since, vec![4]);
    }

    #[test]
    fn restore_stores_below_the_promise_and_note_decided_fills_only_gaps() {
        let mut r = Register::default();
        r.restore(B2, 0, 'a');
        r.restore(B1, 1, 'b');
        assert_eq!(r.promise(), B2, "restore never lowers the promise");
        assert_eq!(
            r.accepted(1),
            Some(&(B1, 'b')),
            "an older accept is restored"
        );
        r.note_decided(1, 'x');
        r.note_decided(2, 'y');
        assert_eq!(r.accepted(1), Some(&(B1, 'b')));
        assert_eq!(r.accepted(2), Some(&(B2, 'y')), "a gap takes the promise");
        r.prune_below(2);
        assert_eq!(r.accepted_since(0).count(), 1);
    }

    #[test]
    fn tally_counts_voters_once_and_keeps_the_highest_ballot() {
        let mut t = Tally::new(QuorumSpec::Majority { n: 5 }, Phase::Agreement);
        t.vote(NodeId(0), [(0, B1, 'a')]);
        t.vote(NodeId(0), [(0, B1, 'a')]);
        t.vote(NodeId(1), [(0, B1, 'a')]);
        assert!(!t.reached(), "a repeated voter counts once");
        t.vote(NodeId(2), [(0, B2, 'b'), (1, B1, 'c')]);
        assert!(t.reached());
        t.vote(NodeId(3), [(0, B2, 'z'), (0, B1, 'y')]);
        assert_eq!(
            t.value(0),
            Some(&'b'),
            "highest ballot wins, first on a tie"
        );
        assert_eq!(t.value(1), Some(&'c'));
        assert_eq!(t.into_values().len(), 2);
    }

    proptest! {
        /// Whatever arrives, the promise never falls and nothing is
        /// accepted below it.
        #[test]
        fn prop_promise_never_falls(steps in collection::vec((0u8..2, 0u64..6, 0u32..3, 0usize..3), 0..40)) {
            let mut r = Register::default();
            for (i, (kind, num, pid, slot)) in steps.into_iter().enumerate() {
                let (is_accept, b) = (kind == 1, Ballot::new(num, pid));
                let (before, held) = (r.promise(), r.accepted(slot).copied());
                let res = if is_accept { r.accept(b, slot, i) } else { r.prepare(b) };
                prop_assert!(r.promise() >= before);
                prop_assert_eq!(res, if b < before { Err(before) } else { Ok(b > before) });
                let stored = if is_accept && res.is_ok() { Some((b, i)) } else { held };
                prop_assert_eq!(r.accepted(slot).copied(), stored);
                for (_, (acc, _)) in r.accepted_since(0) {
                    prop_assert!(*acc <= r.promise());
                }
            }
        }
    }
}
