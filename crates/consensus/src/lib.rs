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
//! - Fast path at [`Ballot::ZERO`]: participants send their vote directly
//!   to the acceptors as a ballot-0 phase-2a message ([`PaxosMsg::Vote2a`]);
//!   acceptors answer the coordinator (the ballot-0 leader by convention)
//!   with [`PaxosMsg::Accepted`]. The coordinator decides commit once every
//!   participant's Ready holds at a majority (`F+1`) of acceptors — two
//!   message delays past the votes, no phase 1 at all.
//! - Multi-shot failover: a backup coordinator runs phase 1 **once** for
//!   the whole acceptor log ([`PaxosMsg::Prepare1a`]), not per transaction.
//!   The promise ([`PaxosMsg::Promise1b`]) carries every registration and
//!   accepted vote; the backup then proposes per-instance values at its
//!   ballot ([`PaxosMsg::Propose2a`]) — the accepted vote where one exists,
//!   Abort where none does — and decides each orphaned transaction once its
//!   instances hold at a quorum. One ballot is thus amortized across every
//!   in-flight transaction of the crashed coordinator.
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

use std::collections::BTreeSet;

use mdbs_histories::{GlobalTxnId, SiteId};

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

/// The commit-decision strategy a coordinator runtime is configured with.
///
/// [`DirectCommit`] is today's behavior — the coordinator decides alone the
/// moment READYs are unanimous, with zero extra messages. [`PaxosCommit`]
/// replicates the decision through the acceptors. The runtime only ever
/// talks to this trait, so `F=0` stays wire- and digest-identical.
pub trait CommitConsensus: std::fmt::Debug + Send {
    /// Whether the coordinator must wait for a consensus decision instead
    /// of committing directly on unanimous READY.
    fn gates_commit(&self) -> bool;

    /// A transaction began: messages to send (registration broadcast).
    fn on_begin(
        &mut self,
        gtxn: GlobalTxnId,
        participants: &BTreeSet<SiteId>,
    ) -> Vec<(u32, PaxosMsg)>;

    /// A consensus message arrived: follow-up messages plus any decisions
    /// now reached.
    fn on_msg(&mut self, msg: PaxosMsg) -> (Vec<(u32, PaxosMsg)>, Vec<Decision>);

    /// A transaction settled: messages to send (log compaction).
    fn on_finished(&mut self, gtxn: GlobalTxnId) -> Vec<(u32, PaxosMsg)>;

    /// Assume leadership over the in-flight transactions of crashed
    /// coordinators: messages to send (phase-1a broadcast).
    fn take_over(&mut self) -> Vec<(u32, PaxosMsg)>;
}

/// `F=0`: the coordinator's lone decision is the decision. Every hook is a
/// no-op, so the default configuration sends no extra messages and the
/// golden digests are untouched.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectCommit;

impl CommitConsensus for DirectCommit {
    fn gates_commit(&self) -> bool {
        false
    }

    fn on_begin(&mut self, _: GlobalTxnId, _: &BTreeSet<SiteId>) -> Vec<(u32, PaxosMsg)> {
        Vec::new()
    }

    fn on_msg(&mut self, _: PaxosMsg) -> (Vec<(u32, PaxosMsg)>, Vec<Decision>) {
        (Vec::new(), Vec::new())
    }

    fn on_finished(&mut self, _: GlobalTxnId) -> Vec<(u32, PaxosMsg)> {
        Vec::new()
    }

    fn take_over(&mut self) -> Vec<(u32, PaxosMsg)> {
        Vec::new()
    }
}

/// `F>0`: Paxos Commit. Wraps a [`Leader`]; the coordinator commits only
/// once every participant's READY holds at an acceptor quorum.
#[derive(Debug)]
pub struct PaxosCommit {
    leader: Leader,
}

impl PaxosCommit {
    /// A Paxos-committing coordinator at `node`, tolerating `f` failures
    /// with the given `2F+1` acceptor nodes.
    pub fn new(node: u32, f: u32, acceptors: Vec<u32>) -> PaxosCommit {
        PaxosCommit {
            leader: Leader::new(node, f, acceptors),
        }
    }

    /// The wrapped leader (test observation).
    pub fn leader(&self) -> &Leader {
        &self.leader
    }
}

impl CommitConsensus for PaxosCommit {
    fn gates_commit(&self) -> bool {
        true
    }

    fn on_begin(
        &mut self,
        gtxn: GlobalTxnId,
        participants: &BTreeSet<SiteId>,
    ) -> Vec<(u32, PaxosMsg)> {
        self.leader.register(gtxn, participants.clone())
    }

    fn on_msg(&mut self, msg: PaxosMsg) -> (Vec<(u32, PaxosMsg)>, Vec<Decision>) {
        self.leader.on_msg(msg)
    }

    fn on_finished(&mut self, gtxn: GlobalTxnId) -> Vec<(u32, PaxosMsg)> {
        self.leader.finished(gtxn)
    }

    fn take_over(&mut self) -> Vec<(u32, PaxosMsg)> {
        self.leader.take_over()
    }
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
    fn direct_commit_is_inert() {
        let mut d = DirectCommit;
        assert!(!d.gates_commit());
        assert!(d
            .on_begin(GlobalTxnId(1), &BTreeSet::from([SiteId(0)]))
            .is_empty());
        assert!(d.on_finished(GlobalTxnId(1)).is_empty());
        assert!(d.take_over().is_empty());
        let (out, decisions) = d.on_msg(PaxosMsg::Clear {
            gtxn: GlobalTxnId(1),
        });
        assert!(out.is_empty() && decisions.is_empty());
    }
}
