//! # mdbs-consensus
//!
//! Paxos Commit (Gray & Lamport, *Consensus on Transaction Commit*) layered
//! **under** the coordinator: the certifier protocol above is untouched, but
//! the commit/abort decision itself is replicated across `2F+1`
//! [`Acceptor`]s so a coordinator crash after READY collection no longer
//! wedges prepared agents.
//!
//! The shape follows the paper's fast path plus the multi-shot formulation
//! of Chockler & Gotsman (*Multi-Shot Distributed Transaction Commit*):
//!
//! - One Paxos instance per *(transaction, participant)* pair, deciding
//!   that participant's READY/ABORT vote. The transaction commits iff every
//!   instance decides Ready.
//! - Fast path at [`Ballot::ZERO`], [`fast_path_acceptors`] wide: the
//!   first `F+1` of the `2F+1` acceptors. The coordinator (the ballot-0
//!   leader by convention) registers the transaction there
//!   ([`PaxosMsg::Begin`]), and each participant sends its vote there as a
//!   ballot-0 phase-2a message ([`PaxosMsg::Vote2a`]). Phase 2b is bundled
//!   per acceptor per transaction: an acceptor answers with one
//!   [`PaxosMsg::Accepted`] once it holds Ready for every registered
//!   participant. The coordinator decides commit once every ballot-0
//!   acceptor has reported — two message delays past the votes, no phase 1
//!   at all. The other `F` acceptors hear nothing until a takeover.
//! - Multi-shot failover: a backup coordinator runs phase 1 **once** for
//!   the whole acceptor log ([`PaxosMsg::Prepare1a`]) at all `2F+1`
//!   acceptors, not per transaction. The promise ([`PaxosMsg::Promise1b`])
//!   carries every registration and accepted vote; any `F+1` promises
//!   include a ballot-0 acceptor, so the backup sees every vote that could
//!   have been chosen. It then proposes each orphaned transaction's
//!   per-participant values at its ballot in one [`PaxosMsg::Propose2a`] —
//!   the accepted vote where one exists, Abort where none does — and
//!   decides it once `F+1` acceptors accepted. One ballot is thus amortized
//!   across every in-flight transaction of the crashed coordinator.
//!
//! Everything here is a pure state machine: no clocks, no RNG, no I/O.
//! Drivers move the messages.

#![forbid(unsafe_code)]

pub mod acceptor;
pub mod leader;
pub mod msg;

pub use acceptor::Acceptor;
pub use leader::{Decision, Leader};
pub use msg::{AcceptedVote, PaxosMsg, Registration};

/// A Paxos ballot: totally ordered, tie-broken by the proposing node so two
/// backups can never issue the same ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ballot {
    /// Round number; 0 is reserved for the fast path.
    pub number: u32,
    /// The proposing node (0 for the implicit fast-path leader).
    pub node: u32,
}

impl Ballot {
    /// The fast-path ballot: participants' direct votes are phase-2a
    /// messages at this ballot, led (by convention) by the transaction's
    /// own coordinator.
    pub const ZERO: Ballot = Ballot { number: 0, node: 0 };
}

/// A participant's vote in its commit instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Vote {
    /// The participant prepared and certified: READY.
    Ready,
    /// The participant refused or failed: the instance must decide abort.
    Abort,
}

/// Acceptors required for a fault tolerance of `f`: `2F+1`.
pub fn acceptor_count(f: u32) -> u32 {
    2 * f + 1
}

/// Majority quorum out of `2F+1` acceptors: `F+1`.
pub fn quorum(f: u32) -> usize {
    (f + 1) as usize
}

/// The ballot-0 acceptor set: the first `F+1` of the `2F+1` acceptors.
/// Registrations, fast-path votes and compactions go to these only, and
/// the leader decides commit when all of them hold the transaction's
/// votes. Any `F+1` promises a takeover collects include one of them.
pub fn fast_path_acceptors(acceptors: &[u32]) -> &[u32] {
    let (fast, _) = acceptors.split_at(acceptors.len().div_ceil(2));
    fast
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_order_is_number_then_node() {
        let b = |number, node| Ballot { number, node };
        assert!(b(0, 0) < b(0, 1));
        assert!(b(0, 9) < b(1, 0));
        assert!(b(1, 2) < b(2, 1));
        assert_eq!(Ballot::ZERO, b(0, 0));
    }

    #[test]
    fn quorum_sizes() {
        assert_eq!(acceptor_count(0), 1);
        assert_eq!(acceptor_count(1), 3);
        assert_eq!(acceptor_count(2), 5);
        assert_eq!(quorum(1), 2);
        assert_eq!(quorum(2), 3);
    }

    #[test]
    fn the_fast_path_is_the_first_f_plus_one_acceptors() {
        for f in 0..4 {
            let all: Vec<u32> = (0..acceptor_count(f)).collect();
            let fast = fast_path_acceptors(&all);
            assert_eq!(fast.len(), quorum(f));
            assert_eq!(fast, &all[..quorum(f)]);
        }
        assert!(fast_path_acceptors(&[]).is_empty());
    }
}
