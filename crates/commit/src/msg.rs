//! Participant states shared by 3PC and Paxos Commit, and 3PC's messages.

use simnet::Payload;

/// A participant's transaction state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnState {
    /// Has not voted yet (can still unilaterally abort).
    Initial,
    /// Voted yes and holds locks; awaiting the decision (2PC's uncertain /
    /// blocking state).
    Ready,
    /// 3PC only: knows the decision *will be* commit (pre-committed).
    PreCommitted,
    /// Final: committed.
    Committed,
    /// Final: aborted.
    Aborted,
}

impl TxnState {
    /// Whether the state is terminal.
    pub fn is_final(self) -> bool {
        matches!(self, TxnState::Committed | TxnState::Aborted)
    }
}

/// Wire messages of 3PC (Paxos Commit has its own,
/// [`crate::paxos_commit::PcMsg`]).
#[derive(Clone, Debug)]
pub enum CommitMsg {
    /// Phase 1: coordinator asks for votes.
    VoteRequest {
        /// Transaction id.
        txn: u64,
    },
    /// Phase 1 response.
    Vote {
        /// Transaction id.
        txn: u64,
        /// Yes (commit) or no (abort).
        yes: bool,
    },
    /// 3PC phase 2: replicate the commit decision before finalizing.
    PreCommit {
        /// Transaction id.
        txn: u64,
    },
    /// 3PC phase 2 response.
    PreCommitAck {
        /// Transaction id.
        txn: u64,
    },
    /// Final decision: commit.
    GlobalCommit {
        /// Transaction id.
        txn: u64,
    },
    /// Final decision: abort.
    GlobalAbort {
        /// Transaction id.
        txn: u64,
    },
    /// Termination protocol: "what state are you in?".
    StateRequest {
        /// Transaction id.
        txn: u64,
        /// Recovery round (ties broken by node id ordering of timeouts).
        round: u32,
    },
    /// Termination response.
    StateReport {
        /// Transaction id.
        txn: u64,
        /// Reporting participant's state.
        state: TxnState,
    },
}

impl Payload for CommitMsg {
    fn kind(&self) -> &'static str {
        match self {
            CommitMsg::VoteRequest { .. } => "vote-request",
            CommitMsg::Vote { .. } => "vote",
            CommitMsg::PreCommit { .. } => "pre-commit",
            CommitMsg::PreCommitAck { .. } => "pre-commit-ack",
            CommitMsg::GlobalCommit { .. } => "global-commit",
            CommitMsg::GlobalAbort { .. } => "global-abort",
            CommitMsg::StateRequest { .. } => "state-request",
            CommitMsg::StateReport { .. } => "state-report",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_states() {
        assert!(TxnState::Committed.is_final());
        assert!(TxnState::Aborted.is_final());
        assert!(!TxnState::Ready.is_final());
        assert!(!TxnState::PreCommitted.is_final());
        assert!(!TxnState::Initial.is_final());
    }

    #[test]
    fn kinds_are_labelled() {
        assert_eq!(CommitMsg::VoteRequest { txn: 1 }.kind(), "vote-request");
        assert_eq!(CommitMsg::PreCommit { txn: 1 }.kind(), "pre-commit");
    }
}
