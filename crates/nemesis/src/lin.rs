//! Wing–Gill linearizability checking for the KV register machine.
//!
//! The history is the client-visible record captured by
//! [`consensus_core::HistorySink`]: per-operation invoke and complete
//! timestamps plus the observed response. The checker searches for a legal
//! sequential witness — a total order of operations consistent with
//! real-time precedence in which every response matches what a sequential
//! [`KvStore`](consensus_core::KvStore) would have returned.
//!
//! Two standard reductions keep the search tractable:
//!
//! * **Per-key decomposition.** Every single-key `KvCommand` touches
//!   exactly one key, so that part of the history is linearizable iff each
//!   key's sub-history is. Multi-key `Range` scans fall outside the
//!   decomposition and are excluded here — the store's dedicated range
//!   checker ([`crate::checker::check_range_consistency`]) covers them.
//! * **Pending-op branching.** An operation that was invoked but never
//!   completed may have taken effect at any point after its invocation —
//!   or never. We branch over the subset of pending ops assumed to have
//!   executed, treating those as free to respond with anything.
//!
//! The search is exact up to a step budget. If the budget runs out the
//! history is *assumed* linearizable: a nemesis checker must never report
//! a false positive, and a truncated search proves nothing either way.

use std::collections::BTreeMap;

use consensus_core::{ClientRecord, KvCommand, KvResponse, Str};

use crate::checker::Violation;

/// Default search budget (DFS steps across all keys).
pub const DEFAULT_BUDGET: u64 = 2_000_000;

fn key_of(cmd: &KvCommand) -> Option<&str> {
    match cmd {
        KvCommand::Put { key, .. }
        | KvCommand::Get { key }
        | KvCommand::Delete { key }
        | KvCommand::Cas { key, .. } => Some(key),
        // Multi-key: outside the per-key decomposition.
        KvCommand::Range { .. } => None,
    }
}

/// Applies `cmd` to a single register holding `state`, returning the new
/// state and the response a sequential store would give.
fn step(state: &Option<Str>, cmd: &KvCommand) -> (Option<Str>, KvResponse) {
    match cmd {
        KvCommand::Put { value, .. } => (Some(value.clone()), KvResponse::Ok),
        KvCommand::Get { .. } => (state.clone(), KvResponse::Value(state.clone())),
        KvCommand::Delete { .. } => (None, KvResponse::Ok),
        KvCommand::Cas { expect, new, .. } => {
            if state.as_ref() == Some(expect) {
                (Some(new.clone()), KvResponse::CasResult { swapped: true })
            } else {
                (state.clone(), KvResponse::CasResult { swapped: false })
            }
        }
        // Never reached: range ops are filtered out before the search.
        KvCommand::Range { .. } => (state.clone(), KvResponse::Entries(Vec::new())),
    }
}

struct Op<'a> {
    rec: &'a ClientRecord,
    /// Pending ops assumed-executed respond with anything.
    constrained: bool,
}

struct Search<'a> {
    ops: Vec<Op<'a>>,
    used: Vec<bool>,
    budget: u64,
    exhausted: bool,
}

impl Search<'_> {
    /// DFS over witness orders. Returns true if a legal sequential witness
    /// exists for the remaining (unused) operations from `state`.
    fn dfs(&mut self, state: &Option<Str>, remaining: usize) -> bool {
        if remaining == 0 {
            return true;
        }
        if self.budget == 0 {
            self.exhausted = true;
            return true; // inconclusive — treated as pass
        }
        self.budget -= 1;

        // Wing–Gill candidate rule: an op may linearize next only if its
        // invocation precedes the earliest completion among unused complete
        // ops (otherwise that completed op provably happened first).
        let min_completion = self
            .ops
            .iter()
            .zip(&self.used)
            .filter(|(op, used)| !**used && op.rec.is_complete())
            .map(|(op, _)| op.rec.completed_at().unwrap())
            .min();

        for i in 0..self.ops.len() {
            if self.used[i] {
                continue;
            }
            let op = &self.ops[i];
            if let Some(mc) = min_completion {
                if op.rec.invoked > mc {
                    continue;
                }
            }
            let (next, expected) = step(state, &op.rec.op);
            if op.constrained && op.rec.response() != Some(&expected) {
                continue;
            }
            self.used[i] = true;
            if self.dfs(&next, remaining - 1) {
                self.used[i] = false;
                return true;
            }
            self.used[i] = false;
        }
        false
    }
}

/// Checks one key's sub-history. `pending` are incomplete records; each
/// subset of them is tried as "executed without responding".
fn check_key(
    key: &str,
    complete: &[&ClientRecord],
    pending: &[&ClientRecord],
    budget: &mut u64,
) -> Option<Violation> {
    let subsets = 1u32 << pending.len().min(16);
    let mut exhausted = false;
    for mask in 0..subsets {
        let mut ops: Vec<Op<'_>> = complete
            .iter()
            .map(|rec| Op {
                rec,
                constrained: true,
            })
            .collect();
        for (bit, rec) in pending.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                ops.push(Op {
                    rec,
                    constrained: false,
                });
            }
        }
        let n = ops.len();
        let mut search = Search {
            used: vec![false; n],
            ops,
            budget: *budget,
            exhausted: false,
        };
        let ok = search.dfs(&None, n);
        *budget = search.budget;
        exhausted |= search.exhausted;
        if ok {
            return None;
        }
    }
    if exhausted {
        return None; // ran out of budget before refuting every branch
    }
    Some(Violation {
        check: "linearizability",
        detail: format!(
            "key {key}: no sequential witness explains {} complete + {} pending ops",
            complete.len(),
            pending.len()
        ),
    })
}

/// Checks a merged client history for linearizability against the KV
/// register semantics. Returns at most one violation per key.
pub fn check_linearizable(history: &[ClientRecord], mut budget: u64) -> Vec<Violation> {
    let mut by_key: BTreeMap<&str, (Vec<&ClientRecord>, Vec<&ClientRecord>)> = BTreeMap::new();
    for rec in history {
        let Some(key) = key_of(&rec.op) else { continue };
        let slot = by_key.entry(key).or_default();
        if rec.is_complete() {
            slot.0.push(rec);
        } else {
            slot.1.push(rec);
        }
    }
    let mut out = Vec::new();
    for (key, (complete, pending)) in by_key {
        if let Some(v) = check_key(key, &complete, &pending, &mut budget) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        client: u32,
        seq: u64,
        op: KvCommand,
        invoked: u64,
        completed: Option<(u64, KvResponse)>,
    ) -> ClientRecord {
        ClientRecord {
            client,
            seq,
            op,
            invoked,
            completed,
        }
    }

    fn put(key: &str, value: &str) -> KvCommand {
        KvCommand::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    fn get(key: &str) -> KvCommand {
        KvCommand::Get { key: key.into() }
    }

    #[test]
    fn sequential_history_passes() {
        let h = vec![
            rec(0, 1, put("k", "a"), 0, Some((10, KvResponse::Ok))),
            rec(
                1,
                1,
                get("k"),
                20,
                Some((30, KvResponse::Value(Some("a".into())))),
            ),
        ];
        assert!(check_linearizable(&h, DEFAULT_BUDGET).is_empty());
    }

    #[test]
    fn concurrent_overwrites_pass_under_either_order() {
        // Two overlapping puts; a later read may see either winner.
        let h = vec![
            rec(0, 1, put("k", "a"), 0, Some((50, KvResponse::Ok))),
            rec(1, 1, put("k", "b"), 10, Some((40, KvResponse::Ok))),
            rec(
                2,
                1,
                get("k"),
                60,
                Some((70, KvResponse::Value(Some("a".into())))),
            ),
        ];
        assert!(check_linearizable(&h, DEFAULT_BUDGET).is_empty());
    }

    #[test]
    fn stale_read_is_a_violation() {
        // Put completed strictly before the read began, yet the read missed
        // it — the textbook non-linearizable history.
        let h = vec![
            rec(0, 1, put("k", "a"), 0, Some((10, KvResponse::Ok))),
            rec(1, 1, get("k"), 20, Some((30, KvResponse::Value(None)))),
        ];
        let v = check_linearizable(&h, DEFAULT_BUDGET);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "linearizability");
    }

    #[test]
    fn pending_op_may_or_may_not_have_executed() {
        // The put never completed, but the read observed it: legal, because
        // the put may have taken effect server-side.
        let h = vec![
            rec(0, 1, put("k", "a"), 0, None),
            rec(
                1,
                1,
                get("k"),
                20,
                Some((30, KvResponse::Value(Some("a".into())))),
            ),
        ];
        assert!(check_linearizable(&h, DEFAULT_BUDGET).is_empty());

        // And a read that does NOT observe it is equally legal.
        let h2 = vec![
            rec(0, 1, put("k", "a"), 0, None),
            rec(1, 1, get("k"), 20, Some((30, KvResponse::Value(None)))),
        ];
        assert!(check_linearizable(&h2, DEFAULT_BUDGET).is_empty());
    }

    #[test]
    fn cas_semantics_are_enforced() {
        // CAS claimed to swap from a value that was provably never current.
        let h = vec![
            rec(0, 1, put("k", "a"), 0, Some((10, KvResponse::Ok))),
            rec(
                1,
                1,
                KvCommand::Cas {
                    key: "k".into(),
                    expect: "z".into(),
                    new: "w".into(),
                },
                20,
                Some((30, KvResponse::CasResult { swapped: true })),
            ),
        ];
        assert_eq!(check_linearizable(&h, DEFAULT_BUDGET).len(), 1);
    }

    #[test]
    fn keys_are_independent() {
        // A violation on one key does not contaminate another.
        let h = vec![
            rec(0, 1, put("bad", "a"), 0, Some((10, KvResponse::Ok))),
            rec(1, 1, get("bad"), 20, Some((30, KvResponse::Value(None)))),
            rec(2, 1, put("good", "x"), 0, Some((10, KvResponse::Ok))),
        ];
        let v = check_linearizable(&h, DEFAULT_BUDGET);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("bad"));
    }
}
