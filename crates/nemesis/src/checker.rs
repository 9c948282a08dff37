//! History-based safety checkers.
//!
//! Each checker consumes only what a protocol adapter can harvest from a
//! finished run — decided log entries, state digests, client histories,
//! final transaction states — and returns the list of safety violations it
//! found. Liveness is deliberately out of scope: under an adversarial fault
//! schedule a correct protocol may make no progress at all, and that is
//! fine. What it must never do is disagree with itself.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use atomic_commit::TxnState;
use consensus_core::history::ClientRecord;

/// One safety-property violation, tagged with the check that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated property (e.g. `"agreement"`).
    pub check: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// A decided log entry as observed on one node, rendered protocol-agnostic.
/// This is the unified driver API's type — re-exported so existing checker
/// call sites keep compiling; [`consensus_core::ClusterDriver::decided_log`]
/// produces it directly.
pub use consensus_core::driver::DecidedEntry;

/// Agreement: no two nodes decide different operations for the same index.
pub fn check_log_agreement(entries: &[DecidedEntry]) -> Vec<Violation> {
    let mut by_index: BTreeMap<u64, Vec<&DecidedEntry>> = BTreeMap::new();
    for e in entries {
        by_index.entry(e.index).or_default().push(e);
    }
    let mut out = Vec::new();
    for (index, group) in by_index {
        let mut distinct: Vec<&DecidedEntry> = Vec::new();
        for e in group {
            if !distinct.iter().any(|d| d.op == e.op) {
                distinct.push(e);
            }
        }
        if distinct.len() > 1 {
            let views: Vec<String> = distinct
                .iter()
                .map(|e| format!("node {} decided {}", e.node, e.op))
                .collect();
            out.push(Violation {
                check: "agreement",
                detail: format!("slot {index} diverges: {}", views.join(" vs ")),
            });
        }
    }
    out
}

/// Validity: every decided client operation was actually issued by a client.
/// Entries with no origin (no-ops, protocol-internal fillers) are exempt.
pub fn check_validity(entries: &[DecidedEntry], issued: &BTreeSet<(u32, u64)>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut reported: BTreeSet<(u32, u64)> = BTreeSet::new();
    for e in entries {
        if let Some(origin) = e.origin {
            if !issued.contains(&origin) && reported.insert(origin) {
                out.push(Violation {
                    check: "validity",
                    detail: format!(
                        "node {} decided op {} from ({}, {}) which no client issued",
                        e.node, e.op, origin.0, origin.1
                    ),
                });
            }
        }
    }
    out
}

/// Integrity: a given request decides at most one operation — the same
/// `(client, seq)` must map to the same op everywhere it appears.
pub fn check_integrity(entries: &[DecidedEntry]) -> Vec<Violation> {
    let mut seen: BTreeMap<(u32, u64), &DecidedEntry> = BTreeMap::new();
    let mut out = Vec::new();
    for e in entries {
        let Some(origin) = e.origin else { continue };
        match seen.get(&origin) {
            None => {
                seen.insert(origin, e);
            }
            Some(first) if first.op != e.op => out.push(Violation {
                check: "integrity",
                detail: format!(
                    "request ({}, {}) decided as {} on node {} but {} on node {}",
                    origin.0, origin.1, first.op, first.node, e.op, e.node
                ),
            }),
            Some(_) => {}
        }
    }
    out
}

/// State-machine consistency: nodes that applied the same log prefix must
/// be in the same state. `digests` is `(node, applied_prefix_len, digest)`.
pub fn check_state_digests(digests: &[(u32, u64, u64)]) -> Vec<Violation> {
    let mut by_len: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
    for &(node, len, digest) in digests {
        by_len.entry(len).or_default().push((node, digest));
    }
    let mut out = Vec::new();
    for (len, group) in by_len {
        let (first_node, first_digest) = group[0];
        for &(node, digest) in &group[1..] {
            if digest != first_digest {
                out.push(Violation {
                    check: "state-digest",
                    detail: format!(
                        "after {len} applied ops, node {node} digest {digest:#x} \
                         != node {first_node} digest {first_digest:#x}"
                    ),
                });
            }
        }
    }
    out
}

/// Atomic-commit safety (AC1 + AC3 from the textbook formulation):
/// no two nodes reach opposite decisions, and commit requires unanimous
/// yes-votes. `states` holds every node's final state, crashed ones
/// included — a decision made before crashing still counts.
pub fn check_atomic_commit(votes: &[bool], states: &[(u32, TxnState)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let committed: Vec<u32> = states
        .iter()
        .filter(|(_, s)| *s == TxnState::Committed)
        .map(|(n, _)| *n)
        .collect();
    let aborted: Vec<u32> = states
        .iter()
        .filter(|(_, s)| *s == TxnState::Aborted)
        .map(|(n, _)| *n)
        .collect();
    if !committed.is_empty() && !aborted.is_empty() {
        out.push(Violation {
            check: "ac-agreement",
            detail: format!("nodes {committed:?} committed while nodes {aborted:?} aborted"),
        });
    }
    if !committed.is_empty() && votes.iter().any(|v| !v) {
        let no_voters: Vec<usize> = votes
            .iter()
            .enumerate()
            .filter(|(_, v)| !**v)
            .map(|(i, _)| i)
            .collect();
        out.push(Violation {
            check: "ac-commit-validity",
            detail: format!(
                "nodes {committed:?} committed although participants {no_voters:?} voted no"
            ),
        });
    }
    out
}

/// Cross-shard transactional atomicity for the sharded store, judged purely
/// from the merged client history (routers + recovery + audit readers).
///
/// Evidence model — all from *completed* operations:
///
/// * A **decision** for `tid` is witnessed by the winning CAS on its
///   decision key (`swapped == true`), by a completed `Put` of the decision
///   key (the raw-2PC and Paxos Commit backends write decisions directly:
///   the outcome is a pure function of durable votes, so every writer puts
///   the same value — conflicting puts are a real violation), or by any
///   read of the decision key returning `commit`/`abort`.
/// * A **data write** of `tid` is a completed `Put` of a non-control key
///   whose value is tagged `…@<tid>`; a **data read** of `tid` is a
///   completed `Get` observing such a value.
///
/// A sound store only issues a transaction's data writes after commit
/// evidence is durable, so every violation below is a real atomicity break:
///
/// * `txn-decision` — two conflicting decisions witnessed for one `tid`.
/// * `txn-atomicity` — a data write (or read observation) of a transaction
///   that aborted, or for which no commit decision was ever witnessed.
pub fn check_txn_atomicity(history: &[ClientRecord]) -> Vec<Violation> {
    use consensus_core::smr::{KvCommand, KvResponse, Str};
    use consensus_core::txn::{self, TxnDecision, TxnId};

    let (decisions, mut out) = witnessed_decisions(history);

    let mut flagged: BTreeSet<(TxnId, Str)> = BTreeSet::new();
    for r in history {
        let Some(resp) = r.response() else { continue };
        let (kind, key, value) = match (&r.op, resp) {
            (KvCommand::Put { key, value }, KvResponse::Ok) if !txn::is_control_key(key) => {
                ("write", key, value.clone())
            }
            (KvCommand::Get { key }, KvResponse::Value(Some(v))) if !txn::is_control_key(key) => {
                ("read", key, v.clone())
            }
            _ => continue,
        };
        let Some(tid) = txn::tagged_txn(&value) else {
            continue;
        };
        let verdict = match decisions.get(&tid) {
            Some(TxnDecision::Commit) => continue,
            Some(TxnDecision::Abort) => "aborted",
            None => "never witnessed as committed",
        };
        if flagged.insert((tid, key.clone())) {
            out.push(Violation {
                check: "txn-atomicity",
                detail: format!(
                    "completed {kind} of {key}={value} from txn {tid}, \
                     which {verdict}"
                ),
            });
        }
    }
    out
}

/// Harvests every transaction decision witnessed anywhere in the history —
/// winning CAS on a decision key, direct decision-key `Put`, or any read of
/// a decision key returning `commit`/`abort` — plus a `txn-decision`
/// violation per transaction witnessed with conflicting outcomes.
fn witnessed_decisions(
    history: &[ClientRecord],
) -> (
    BTreeMap<consensus_core::txn::TxnId, consensus_core::txn::TxnDecision>,
    Vec<Violation>,
) {
    use consensus_core::smr::{KvCommand, KvResponse};
    use consensus_core::txn::{self, TxnDecision, TxnId};

    let mut decisions: BTreeMap<TxnId, TxnDecision> = BTreeMap::new();
    let mut out = Vec::new();
    for r in history {
        let Some(resp) = r.response() else { continue };
        let (tid, decision) = match (&r.op, resp) {
            (KvCommand::Cas { key, new, .. }, KvResponse::CasResult { swapped: true }) => {
                match (txn::parse_decision_key(key), TxnDecision::parse(new)) {
                    (Some(tid), Some(d)) => (tid, d),
                    _ => continue,
                }
            }
            (KvCommand::Put { key, value }, KvResponse::Ok) => {
                match (txn::parse_decision_key(key), TxnDecision::parse(value)) {
                    (Some(tid), Some(d)) => (tid, d),
                    _ => continue,
                }
            }
            (KvCommand::Get { key }, KvResponse::Value(Some(v))) => {
                match (txn::parse_decision_key(key), TxnDecision::parse(v)) {
                    (Some(tid), Some(d)) => (tid, d),
                    _ => continue,
                }
            }
            _ => continue,
        };
        match decisions.get(&tid) {
            None => {
                decisions.insert(tid, decision);
            }
            Some(prev) if *prev != decision => out.push(Violation {
                check: "txn-decision",
                detail: format!(
                    "txn {tid} witnessed as both {} and {}",
                    prev.as_str(),
                    decision.as_str()
                ),
            }),
            Some(_) => {}
        }
    }
    (decisions, out)
}

/// Range-scan consistency for the sharded store's `Range` command, judged
/// from completed range records in the merged client history.
///
/// Each completed range result must be **well-formed** — entries strictly
/// ascending by key, every key inside `[start, end)`, at most `limit`
/// entries — and must satisfy the **snapshot-read rule**: every
/// transaction-tagged value it surfaces (`…@<tid>`) belongs to a
/// transaction witnessed as committed somewhere in the history. A scan that
/// surfaces an aborted (or never-committed) transaction's write observed an
/// early write that 2PC should have kept invisible — exactly the leak the
/// `buggy_early_writes` injection produces.
pub fn check_range_consistency(history: &[ClientRecord]) -> Vec<Violation> {
    use consensus_core::smr::{KvCommand, KvResponse, Str};
    use consensus_core::txn::{self, TxnDecision, TxnId};

    let (decisions, _) = witnessed_decisions(history);
    let mut out = Vec::new();
    let mut flagged: BTreeSet<(TxnId, Str)> = BTreeSet::new();
    for r in history {
        let KvCommand::Range { start, end, limit } = &r.op else {
            continue;
        };
        let Some(KvResponse::Entries(entries)) = r.response() else {
            continue;
        };
        if entries.len() > *limit {
            out.push(Violation {
                check: "range-bounds",
                detail: format!(
                    "range [{start},{end})#{limit} returned {} entries",
                    entries.len()
                ),
            });
        }
        if let Some(bad) = entries.iter().find(|(k, _)| k < start || k >= end) {
            out.push(Violation {
                check: "range-bounds",
                detail: format!("range [{start},{end}) returned out-of-range key {}", bad.0),
            });
        }
        if let Some(pair) = entries.windows(2).find(|p| p[0].0 >= p[1].0) {
            out.push(Violation {
                check: "range-order",
                detail: format!(
                    "range [{start},{end}) keys not strictly ascending: {} then {}",
                    pair[0].0, pair[1].0
                ),
            });
        }
        for (k, v) in entries {
            if txn::is_control_key(k) {
                continue;
            }
            let Some(tid) = txn::tagged_txn(v) else {
                continue;
            };
            let verdict = match decisions.get(&tid) {
                Some(TxnDecision::Commit) => continue,
                Some(TxnDecision::Abort) => "aborted",
                None => "was never witnessed as committed",
            };
            if flagged.insert((tid, k.clone())) {
                out.push(Violation {
                    check: "range-snapshot",
                    detail: format!(
                        "range [{start},{end}) surfaced {k}={v} from txn {tid}, which {verdict}"
                    ),
                });
            }
        }
    }
    out
}

/// Binary agreement (Ben-Or): all decided values are equal, and the decided
/// value was some node's input.
pub fn check_binary_agreement(decisions: &[(u32, Option<u8>)], inputs: &[u8]) -> Vec<Violation> {
    let mut out = Vec::new();
    let decided: Vec<(u32, u8)> = decisions
        .iter()
        .filter_map(|(n, d)| d.map(|v| (*n, v)))
        .collect();
    if let Some(&(first_node, first)) = decided.first() {
        for &(node, v) in &decided[1..] {
            if v != first {
                out.push(Violation {
                    check: "ba-agreement",
                    detail: format!(
                        "node {node} decided {v} but node {first_node} decided {first}"
                    ),
                });
            }
        }
        for &(node, v) in &decided {
            if !inputs.contains(&v) {
                out.push(Violation {
                    check: "ba-validity",
                    detail: format!("node {node} decided {v}, which no node proposed"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: u32, index: u64, op: &str, origin: Option<(u32, u64)>) -> DecidedEntry {
        DecidedEntry {
            node,
            index,
            op: op.into(),
            origin,
        }
    }

    #[test]
    fn agreement_flags_divergent_slots_only() {
        let ok = [
            entry(0, 1, "put k v", Some((7, 1))),
            entry(1, 1, "put k v", Some((7, 1))),
            entry(1, 2, "noop", None),
        ];
        assert!(check_log_agreement(&ok).is_empty());

        let bad = [
            entry(0, 1, "put k v", Some((7, 1))),
            entry(1, 1, "put k w", Some((8, 1))),
        ];
        let v = check_log_agreement(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "agreement");
    }

    #[test]
    fn validity_and_integrity() {
        let issued: BTreeSet<(u32, u64)> = [(7, 1)].into_iter().collect();
        let phantom = [entry(0, 1, "put k v", Some((9, 3)))];
        assert_eq!(check_validity(&phantom, &issued)[0].check, "validity");
        assert!(check_validity(&phantom, &issued).len() == 1);

        let forked = [
            entry(0, 1, "put k v", Some((7, 1))),
            entry(1, 4, "put k w", Some((7, 1))),
        ];
        assert_eq!(check_integrity(&forked)[0].check, "integrity");
        assert!(check_integrity(&forked[..1]).is_empty());
    }

    /// Two replicas decide different commands under one origin at one
    /// slot: the harvest renders each on its own, so the forgery still
    /// reads as a divergence and as a forked request.
    #[test]
    fn a_forged_command_under_a_real_origin_keeps_its_own_rendering() {
        use consensus_core::{Command, Harvest, KvCommand, SmrOp};
        use std::sync::Arc;

        let put = |value: &str| {
            SmrOp::Cmd(Command {
                client: 7,
                seq: 1,
                op: KvCommand::Put {
                    key: "k".into(),
                    value: value.into(),
                },
            })
        };
        let (honest, forged) = (put("v"), put("w"));
        let mut h = Harvest::default();
        h.op(0, 1, None, &honest);
        h.op(1, 1, None, &forged);
        h.op(2, 1, None, &honest);
        let log = h.into_entries();
        assert!(!Arc::ptr_eq(&log[0].op, &log[1].op));
        assert!(Arc::ptr_eq(&log[0].op, &log[2].op));
        assert_eq!(*log[1].op, format!("{:?}", forged.commands()[0]));

        let diverged = check_log_agreement(&log);
        assert_eq!(diverged.len(), 1);
        assert_eq!(diverged[0].check, "agreement");
        let forked = check_integrity(&log);
        assert_eq!(forked.len(), 1);
        assert_eq!(forked[0].check, "integrity");
    }

    #[test]
    fn digests_compare_equal_prefixes_only() {
        let ok = [(0, 5, 0xaa), (1, 5, 0xaa), (2, 3, 0xbb)];
        assert!(check_state_digests(&ok).is_empty());
        let bad = [(0, 5, 0xaa), (1, 5, 0xcc)];
        assert_eq!(check_state_digests(&bad)[0].check, "state-digest");
    }

    #[test]
    fn atomic_commit_rules() {
        let mixed = [(0, TxnState::Committed), (2, TxnState::Aborted)];
        assert_eq!(
            check_atomic_commit(&[true, true, true], &mixed)[0].check,
            "ac-agreement"
        );

        let committed = [(0, TxnState::Committed), (1, TxnState::Committed)];
        let v = check_atomic_commit(&[true, false, true], &committed);
        assert_eq!(v[0].check, "ac-commit-validity");

        let blocked = [(0, TxnState::Aborted), (1, TxnState::Ready)];
        assert!(check_atomic_commit(&[true, true], &blocked).is_empty());
    }

    #[test]
    fn txn_atomicity_rules() {
        use consensus_core::smr::{KvCommand, KvResponse};
        use consensus_core::txn::{self, TxnId};

        let tid = TxnId::new(100, 0);
        let rec = |op: KvCommand, resp: KvResponse| ClientRecord {
            client: 100,
            seq: 1,
            op,
            invoked: 0,
            completed: Some((1, resp)),
        };
        let commit_cas = rec(
            KvCommand::Cas {
                key: txn::decision_key(tid).into(),
                expect: txn::DECISION_PENDING.into(),
                new: "commit".into(),
            },
            KvResponse::CasResult { swapped: true },
        );
        let abort_read = rec(
            KvCommand::Get {
                key: txn::decision_key(tid).into(),
            },
            KvResponse::Value(Some("abort".into())),
        );
        let data_write = rec(
            KvCommand::Put {
                key: "k1".into(),
                value: txn::tag_value("v", tid).into(),
            },
            KvResponse::Ok,
        );
        let data_read = rec(
            KvCommand::Get { key: "k1".into() },
            KvResponse::Value(Some(txn::tag_value("v", tid).into())),
        );

        // Committed txn with visible writes: clean.
        let ok = [commit_cas.clone(), data_write.clone(), data_read.clone()];
        assert!(check_txn_atomicity(&ok).is_empty());

        // Conflicting decision evidence.
        let split = [commit_cas, abort_read.clone()];
        assert_eq!(check_txn_atomicity(&split)[0].check, "txn-decision");

        // A plain decision-key Put (raw-2PC / Paxos Commit style) is
        // commit evidence too, and conflicts with an abort read.
        let commit_put = rec(
            KvCommand::Put {
                key: txn::decision_key(tid).into(),
                value: "commit".into(),
            },
            KvResponse::Ok,
        );
        assert!(check_txn_atomicity(&[commit_put.clone(), data_write.clone()]).is_empty());
        assert_eq!(
            check_txn_atomicity(&[commit_put, abort_read.clone()])[0].check,
            "txn-decision"
        );

        // Aborted txn's write leaked (plus the read that observed it) —
        // flagged once per (txn, key).
        let leak = [abort_read, data_write.clone(), data_read];
        let v = check_txn_atomicity(&leak);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "txn-atomicity");

        // A write with no decision evidence at all is also a violation.
        assert_eq!(check_txn_atomicity(&[data_write])[0].check, "txn-atomicity");

        // An incomplete write is no evidence either way.
        let pending = ClientRecord {
            completed: None,
            ..rec(
                KvCommand::Put {
                    key: "k2".into(),
                    value: txn::tag_value("v", tid).into(),
                },
                KvResponse::Ok,
            )
        };
        assert!(check_txn_atomicity(&[pending]).is_empty());
    }

    #[test]
    fn range_consistency_rules() {
        use consensus_core::smr::{KvCommand, KvResponse};
        use consensus_core::txn::{self, TxnId};

        let tid = TxnId::new(100, 0);
        let rec = |op: KvCommand, resp: KvResponse| ClientRecord {
            client: 100,
            seq: 1,
            op,
            invoked: 0,
            completed: Some((1, resp)),
        };
        let range = |entries: Vec<(&str, String)>| {
            rec(
                KvCommand::Range {
                    start: "a".into(),
                    end: "z".into(),
                    limit: 4,
                },
                KvResponse::Entries(
                    entries
                        .into_iter()
                        .map(|(k, v)| (k.into(), v.into()))
                        .collect(),
                ),
            )
        };
        let commit = rec(
            KvCommand::Put {
                key: txn::decision_key(tid).into(),
                value: "commit".into(),
            },
            KvResponse::Ok,
        );

        // Committed tagged values plus plain singles: clean.
        let ok = [
            commit.clone(),
            range(vec![
                ("k1", txn::tag_value("v", tid)),
                ("k2", "plain".into()),
            ]),
        ];
        assert!(check_range_consistency(&ok).is_empty());

        // A tagged value with no commit evidence is a snapshot-read leak.
        let leak = [range(vec![("k1", txn::tag_value("v", tid))])];
        assert_eq!(check_range_consistency(&leak)[0].check, "range-snapshot");

        // So is one from a transaction witnessed as aborted.
        let abort = rec(
            KvCommand::Get {
                key: txn::decision_key(tid).into(),
            },
            KvResponse::Value(Some("abort".into())),
        );
        let v = check_range_consistency(&[abort, range(vec![("k1", txn::tag_value("v", tid))])]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "range-snapshot");

        // Well-formedness: out-of-range keys, misordered keys, over-limit.
        let oob = [commit.clone(), range(vec![("~zz", "x".into())])];
        assert_eq!(check_range_consistency(&oob)[0].check, "range-bounds");
        let misordered = [
            commit.clone(),
            range(vec![("k2", "x".into()), ("k1", "y".into())]),
        ];
        assert_eq!(check_range_consistency(&misordered)[0].check, "range-order");
        let over = [
            commit,
            range(vec![
                ("k1", "a".into()),
                ("k2", "b".into()),
                ("k3", "c".into()),
                ("k4", "d".into()),
                ("k5", "e".into()),
            ]),
        ];
        assert_eq!(check_range_consistency(&over)[0].check, "range-bounds");

        // Incomplete ranges are no evidence either way.
        let pending = ClientRecord {
            completed: None,
            ..range(vec![("k1", txn::tag_value("v", tid))])
        };
        assert!(check_range_consistency(&[pending]).is_empty());
    }

    #[test]
    fn binary_agreement_rules() {
        let ok = [(0, Some(1)), (1, Some(1)), (2, None)];
        assert!(check_binary_agreement(&ok, &[0, 1, 1]).is_empty());

        let split = [(0, Some(0)), (1, Some(1))];
        assert_eq!(
            check_binary_agreement(&split, &[0, 1])[0].check,
            "ba-agreement"
        );

        let invented = [(0, Some(1))];
        assert_eq!(
            check_binary_agreement(&invented, &[0, 0])[0].check,
            "ba-validity"
        );
    }
}
