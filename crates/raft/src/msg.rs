//! Raft wire messages and log entries.

use consensus_core::codec::{put_op, wire_size};
use consensus_core::{DedupKvMachine, SmrOp};
use simnet::Payload;

/// One Raft log entry: the term it was created in and the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Term of the leader that appended it.
    pub term: u64,
    /// The operation.
    pub op: SmrOp,
}

/// Raft RPCs between replicas (modelled as messages; responses are separate
/// messages).
#[derive(Clone, Debug)]
pub enum RaftMsg {
    /// Candidate's vote solicitation.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of candidate's last log entry.
        last_log_index: usize,
        /// Term of candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    VoteResponse {
        /// Responder's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding the new ones.
        prev_log_index: usize,
        /// Term of that entry.
        prev_log_term: u64,
        /// New entries (empty for heartbeat).
        entries: Vec<Entry>,
        /// Leader's commit index.
        leader_commit: usize,
    },
    /// Snapshot shipping for far-behind followers (§7 log compaction).
    InstallSnapshot {
        /// Leader's term.
        term: u64,
        /// Absolute index the snapshot covers up to.
        last_included_index: usize,
        /// Term of that entry.
        last_included_term: u64,
        /// The full machine state (shipped by value in the simulator).
        machine: Box<DedupKvMachine>,
    },
    /// AppendEntries response.
    AppendResponse {
        /// Responder's current term.
        term: u64,
        /// Whether the consistency check passed and entries were appended.
        success: bool,
        /// On success: highest index now matching the leader's log.
        /// On failure: a hint for where to back up to.
        match_index: usize,
    },
    /// Follower → leader: "confirm a commit index for my pending read".
    ReadIndexQ {
        /// Client id of the pending read.
        client: u32,
        /// Read sequence number of the pending read.
        seq: u64,
    },
    /// Leader → follower: the commit index the read must wait for, or
    /// `None` to NACK (leadership not currently confirmable).
    ReadIndexR {
        /// Echoed client id.
        client: u32,
        /// Echoed read sequence number.
        seq: u64,
        /// Confirmed commit index; `None` for "fall back".
        index: Option<usize>,
    },
}

impl Payload for RaftMsg {
    fn kind(&self) -> &'static str {
        match self {
            RaftMsg::RequestVote { .. } => "request-vote",
            RaftMsg::VoteResponse { .. } => "vote-response",
            RaftMsg::AppendEntries { entries, .. } => {
                if entries.is_empty() {
                    "heartbeat"
                } else {
                    "append-entries"
                }
            }
            RaftMsg::InstallSnapshot { .. } => "install-snapshot",
            RaftMsg::AppendResponse { .. } => "append-response",
            RaftMsg::ReadIndexQ { .. } => "read-index-q",
            RaftMsg::ReadIndexR { .. } => "read-index-r",
        }
    }

    fn size_bytes(&self) -> usize {
        wire_size(|w| {
            if let RaftMsg::AppendEntries { entries, .. } = self {
                entries.iter().for_each(|e| put_op(w, &e.op));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_and_append_are_distinguished() {
        let hb = RaftMsg::AppendEntries {
            term: 1,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
        };
        assert_eq!(hb.kind(), "heartbeat");
        let ae = RaftMsg::AppendEntries {
            term: 1,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![Entry {
                term: 1,
                op: SmrOp::Noop,
            }],
            leader_commit: 0,
        };
        assert_eq!(ae.kind(), "append-entries");
        assert!(ae.size_bytes() > hb.size_bytes());
    }
}
