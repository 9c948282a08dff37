//! Raft wire messages and log entries.

use consensus_core::{
    ClientWire, Command, DedupKvMachine, Inbound, KvCommand, KvResponse, ReadMode, SmrOp, Str,
};
use simnet::{NodeId, Payload};

/// One Raft log entry: the term it was created in and the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Term of the leader that appended it.
    pub term: u64,
    /// The operation.
    pub op: SmrOp,
}

/// Raft RPCs (modelled as messages; responses are separate messages).
#[derive(Clone, Debug)]
pub enum RaftMsg {
    /// Client command submission.
    Request {
        /// The command.
        cmd: Command<KvCommand>,
    },
    /// Server reply to a completed command.
    Reply {
        /// Client id.
        client: u32,
        /// Client sequence number.
        seq: u64,
        /// State-machine output.
        output: KvResponse,
    },
    /// "I'm not the leader; try `hint`."
    NotLeader {
        /// Sequence the client sent.
        seq: u64,
        /// Best guess at the current leader.
        hint: NodeId,
    },
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
    /// Fast-path linearizable read addressed to any replica (the geo read
    /// path). A follower resolves it through a read-index round-trip with
    /// the leader; never emitted by the classic workload clients.
    ReadReq {
        /// Requesting client id.
        client: u32,
        /// Client-chosen read sequence number (echoed back verbatim).
        seq: u64,
        /// Key to read.
        key: Str,
    },
    /// Reply to [`RaftMsg::ReadReq`]. On [`ReadMode::Nack`] the value is
    /// meaningless and the caller must fall back to the log path.
    ReadResp {
        /// Echoed client id.
        client: u32,
        /// Echoed read sequence number.
        seq: u64,
        /// The value (None = key absent) — only meaningful when served.
        value: Option<Str>,
        /// How the read was served.
        mode: ReadMode,
    },
    /// Follower → leader: "confirm a commit index for my pending read".
    ReadIndexQ {
        /// Client id of the pending read.
        client: u32,
        /// Read sequence number of the pending read.
        seq: u64,
    },
    /// Leader → follower: the commit index the read must wait for, or
    /// `u64::MAX` to NACK (leadership not currently confirmable).
    ReadIndexR {
        /// Echoed client id.
        client: u32,
        /// Echoed read sequence number.
        seq: u64,
        /// Confirmed commit index, or `u64::MAX` for "fall back".
        index: u64,
    },
}

impl Payload for RaftMsg {
    fn kind(&self) -> &'static str {
        match self {
            RaftMsg::Request { .. } => "request",
            RaftMsg::Reply { .. } => "reply",
            RaftMsg::NotLeader { .. } => "not-leader",
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
            RaftMsg::ReadReq { .. } => "read",
            RaftMsg::ReadResp { .. } => "read-resp",
            RaftMsg::ReadIndexQ { .. } => "read-index-q",
            RaftMsg::ReadIndexR { .. } => "read-index-r",
        }
    }

    fn size_bytes(&self) -> usize {
        // Flat per-op estimates keep historical sizes exact; command
        // payloads beyond the budget (padded large values) add their real
        // bytes — see `KvCommand::payload_excess`.
        match self {
            RaftMsg::Request { cmd } => 64 + cmd.op.payload_excess(),
            RaftMsg::AppendEntries { entries, .. } => {
                let excess = |e: &Entry| -> usize {
                    let cmds = e.op.commands().iter();
                    cmds.map(|c| c.op.payload_excess()).sum()
                };
                48 + entries.iter().map(|e| 48 + excess(e)).sum::<usize>()
            }
            RaftMsg::InstallSnapshot { .. } => 4_096,
            _ => 64,
        }
    }
}

impl ClientWire for RaftMsg {
    fn request(cmd: Command<KvCommand>) -> Self {
        RaftMsg::Request { cmd }
    }

    fn read_request(client: u32, seq: u64, key: Str) -> Self {
        RaftMsg::ReadReq { client, seq, key }
    }

    fn classify(self) -> Inbound {
        match self {
            RaftMsg::Reply { seq, output, .. } => Inbound::Reply { seq, output },
            RaftMsg::NotLeader { seq, hint } => Inbound::NotLeader { seq, hint },
            RaftMsg::ReadResp {
                client,
                seq,
                value,
                mode,
            } => Inbound::ReadReply {
                client,
                seq,
                value,
                mode,
            },
            _ => Inbound::Other,
        }
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
