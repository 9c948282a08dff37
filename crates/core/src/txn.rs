//! Shared transaction types for the sharded store (`forty-store`).
//!
//! The store commits cross-shard transactions with the Gray–Lamport
//! construction (*Consensus on Transaction Commit*): every piece of 2PC
//! control state — the participants' prepare records and the coordinator's
//! commit/abort decision — is an ordinary key-value entry in some shard's
//! *replicated* log, so no single process holds the only copy of anything.
//! This module defines the transaction ids, outcomes and phases plus the
//! log-entry encoding of that control state, shared by the store itself, the
//! log engines' durable layers, the bench experiments, and the nemesis
//! atomicity checker.
//!
//! Encoding invariants:
//!
//! * Control keys start with `~` (sorts after every data key and is banned
//!   from data keys by the store router), so control and data traffic never
//!   collide.
//! * The decision key `~dec.<tid>` is initialized to `"pending"` before any
//!   participant prepares, and resolved by a compare-and-swap
//!   `pending → commit|abort`. The shard log serializes the CAS entries, so
//!   exactly one decision wins — log order *is* the commit point.
//! * A transaction's data writes are tagged `<value>@<tid>`, which lets a
//!   history checker attribute every visible value to the transaction that
//!   wrote it.

use std::fmt;

use simnet::CncPhase;

/// Transaction id: the issuing router client and its txn counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Router client that started the transaction.
    pub client: u32,
    /// Router-local transaction number (monotone per router).
    pub number: u64,
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(client: u32, number: u64) -> Self {
        TxnId { client, number }
    }

    /// Parses the `t<client>.<number>` rendering back into an id.
    pub fn parse(s: &str) -> Option<TxnId> {
        let rest = s.strip_prefix('t')?;
        let (client, number) = rest.split_once('.')?;
        Some(TxnId {
            client: client.parse().ok()?,
            number: number.parse().ok()?,
        })
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.client, self.number)
    }
}

/// The outcome of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnDecision {
    /// All writes applied.
    Commit,
    /// No writes applied.
    Abort,
}

impl TxnDecision {
    /// The decision-entry value this outcome is stored as.
    pub fn as_str(&self) -> &'static str {
        match self {
            TxnDecision::Commit => "commit",
            TxnDecision::Abort => "abort",
        }
    }

    /// Parses a decision-entry value (`"pending"` maps to `None`).
    pub fn parse(s: &str) -> Option<TxnDecision> {
        match s {
            "commit" => Some(TxnDecision::Commit),
            "abort" => Some(TxnDecision::Abort),
            _ => None,
        }
    }
}

/// The transaction-commit phases of the store, mapped onto the C&C
/// framework: collecting prepares is the coordinator's value discovery
/// (may it commit?), and resolving the replicated decision entry is the
/// decision phase. Leader election and fault-tolerant agreement are
/// supplied *by the shard's consensus group*, which is exactly the
/// Gray–Lamport point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Writing prepare records into the participant shards' logs.
    Prepare,
    /// Resolving the decision entry in the coordinator shard's log.
    Decide,
}

impl TxnPhase {
    /// The C&C phase this transaction phase instantiates.
    pub fn cnc(&self) -> CncPhase {
        match self {
            TxnPhase::Prepare => CncPhase::ValueDiscovery,
            TxnPhase::Decide => CncPhase::Decision,
        }
    }

    /// Stable lowercase label for traces and docs.
    pub fn label(&self) -> &'static str {
        match self {
            TxnPhase::Prepare => "prepare",
            TxnPhase::Decide => "decide",
        }
    }
}

/// Value of an unresolved decision entry.
pub const DECISION_PENDING: &str = "pending";

/// Prefix of every control key. Data keys must not start with it.
pub const CONTROL_PREFIX: char = '~';

/// Whether `key` is 2PC control state rather than user data.
pub fn is_control_key(key: &str) -> bool {
    key.starts_with(CONTROL_PREFIX)
}

/// The coordinator-shard key holding the decision entry for `tid`.
pub fn decision_key(tid: TxnId) -> String {
    format!("~dec.{tid}")
}

/// Extracts the transaction id from a decision key.
pub fn parse_decision_key(key: &str) -> Option<TxnId> {
    TxnId::parse(key.strip_prefix("~dec.")?)
}

/// Whether an applied write resolves a 2PC/commit decision record: a
/// decision key whose new value is a final `commit`/`abort` (the `pending`
/// init is not a resolution).
pub fn is_txn_decision(key: &str, value: &str) -> bool {
    parse_decision_key(key).is_some() && TxnDecision::parse(value).is_some()
}

/// The participant-shard key holding `tid`'s prepare record on `shard`.
pub fn prepare_key(tid: TxnId, shard: usize) -> String {
    format!("~prep.{tid}.s{shard}")
}

/// Extracts `(tid, shard)` from a prepare key.
pub fn parse_prepare_key(key: &str) -> Option<(TxnId, usize)> {
    let rest = key.strip_prefix("~prep.")?;
    let (tid, shard) = rest.rsplit_once(".s")?;
    Some((TxnId::parse(tid)?, shard.parse().ok()?))
}

/// Value of a Paxos Commit vote register that no one has resolved yet.
pub const VOTE_PENDING: &str = "pending";

/// The participant-shard key holding `tid`'s Paxos Commit vote register on
/// `shard`. Each register is one Gray–Lamport "Paxos instance": the shard's
/// consensus group serializes the `pending → prepared|aborted` CAS, so a
/// participant's vote and a recovery coordinator's free abort race *in the
/// log* and exactly one wins.
pub fn vote_key(tid: TxnId, shard: usize) -> String {
    format!("~vote.{tid}.s{shard}")
}

/// Extracts `(tid, shard)` from a vote key.
pub fn parse_vote_key(key: &str) -> Option<(TxnId, usize)> {
    let rest = key.strip_prefix("~vote.")?;
    let (tid, shard) = rest.rsplit_once(".s")?;
    Some((TxnId::parse(tid)?, shard.parse().ok()?))
}

/// Encodes a participant's *prepared* vote, carrying the shard-local
/// write-set so any coordinator can complete the transaction from the
/// replicated votes alone.
pub fn vote_prepared(writes: &[(String, String)]) -> String {
    format!("p:{}", encode_writes(writes))
}

/// Value of an *aborted* vote register.
pub const VOTE_ABORTED: &str = "aborted";

/// Parses a resolved vote register: `Some(Some(writes))` for prepared,
/// `Some(None)` for aborted, `None` for pending/garbage.
#[allow(clippy::option_option)]
pub fn parse_vote(value: &str) -> Option<Option<Vec<(String, String)>>> {
    if value == VOTE_ABORTED {
        return Some(None);
    }
    value.strip_prefix("p:").map(|w| Some(decode_writes(w)))
}

/// Tags a data value with the transaction that wrote it.
pub fn tag_value(value: &str, tid: TxnId) -> String {
    format!("{value}@{tid}")
}

/// The transaction id a visible value was written by, if tagged.
pub fn tagged_txn(value: &str) -> Option<TxnId> {
    TxnId::parse(value.rsplit_once('@')?.1)
}

/// Serializes a write-set into a prepare-record value. Keys and values must
/// not contain `;` or `=` (the store router enforces this for data keys).
pub fn encode_writes(writes: &[(String, String)]) -> String {
    writes
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses a prepare-record value back into a write-set.
pub fn decode_writes(s: &str) -> Vec<(String, String)> {
    s.split(';')
        .filter_map(|pair| pair.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_round_trips() {
        let tid = TxnId::new(7, 42);
        assert_eq!(tid.to_string(), "t7.42");
        assert_eq!(TxnId::parse("t7.42"), Some(tid));
        assert_eq!(TxnId::parse("x7.42"), None);
        assert_eq!(TxnId::parse("t7"), None);
    }

    #[test]
    fn control_keys_round_trip_and_sort_after_data() {
        let tid = TxnId::new(2, 5);
        assert_eq!(parse_decision_key(&decision_key(tid)), Some(tid));
        assert_eq!(parse_prepare_key(&prepare_key(tid, 3)), Some((tid, 3)));
        assert!(is_control_key(&decision_key(tid)));
        assert!(!is_control_key("k12"));
        assert!(
            decision_key(tid).as_str() > "zzz",
            "~ sorts after ASCII letters"
        );
    }

    #[test]
    fn vote_registers_round_trip() {
        let tid = TxnId::new(4, 7);
        assert_eq!(parse_vote_key(&vote_key(tid, 2)), Some((tid, 2)));
        assert!(is_control_key(&vote_key(tid, 2)));
        let writes = vec![("a".to_string(), "1@t4.7".to_string())];
        assert_eq!(parse_vote(&vote_prepared(&writes)), Some(Some(writes)));
        assert_eq!(parse_vote(VOTE_ABORTED), Some(None));
        assert_eq!(parse_vote(VOTE_PENDING), None);
        assert_eq!(parse_vote("garbage"), None);
    }

    #[test]
    fn value_tags_round_trip() {
        let tid = TxnId::new(9, 1);
        let tagged = tag_value("v3", tid);
        assert_eq!(tagged, "v3@t9.1");
        assert_eq!(tagged_txn(&tagged), Some(tid));
        assert_eq!(tagged_txn("plain"), None);
    }

    #[test]
    fn write_sets_round_trip() {
        let writes = vec![
            ("a".to_string(), "1@t0.0".to_string()),
            ("b".to_string(), "2@t0.0".to_string()),
        ];
        assert_eq!(decode_writes(&encode_writes(&writes)), writes);
        assert_eq!(decode_writes(""), vec![]);
    }

    #[test]
    fn decisions_parse() {
        assert_eq!(TxnDecision::parse("commit"), Some(TxnDecision::Commit));
        assert_eq!(TxnDecision::parse("abort"), Some(TxnDecision::Abort));
        assert_eq!(TxnDecision::parse(DECISION_PENDING), None);
        assert_eq!(TxnDecision::Commit.as_str(), "commit");
    }

    #[test]
    fn txn_phases_map_onto_cnc() {
        assert_eq!(TxnPhase::Prepare.cnc(), CncPhase::ValueDiscovery);
        assert_eq!(TxnPhase::Decide.cnc(), CncPhase::Decision);
        assert_eq!(TxnPhase::Prepare.label(), "prepare");
    }
}
