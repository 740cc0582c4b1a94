//! The Paxos Commit message vocabulary.
//!
//! Rides the control plane (wrapped in the runtime's `CtrlMsg`), never the
//! 2PC message stream: site agents and the certifier are oblivious to it.

use std::collections::BTreeSet;

use mdbs_histories::{GlobalTxnId, SiteId};

use crate::{Ballot, Vote};

/// A transaction's registration in the acceptor log: which coordinator
/// leads it and which sites participate. This is what lets a backup know
/// the full instance set it must finish or abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// The transaction.
    pub gtxn: GlobalTxnId,
    /// Its (original) coordinator node.
    pub coord: u32,
    /// Its participant sites — one commit instance each.
    pub participants: BTreeSet<SiteId>,
}

/// One accepted instance value, as reported in a phase-1b promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptedVote {
    /// The transaction.
    pub gtxn: GlobalTxnId,
    /// The participant whose instance this is.
    pub site: SiteId,
    /// The ballot the value was accepted at.
    pub ballot: Ballot,
    /// The accepted vote.
    pub vote: Vote,
}

/// Paxos Commit control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMsg {
    /// Coordinator → ballot-0 acceptors: register a beginning transaction
    /// (its participant set), so a later failover knows every instance.
    Begin {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its coordinator node.
        coord: u32,
        /// Its participant sites.
        participants: BTreeSet<SiteId>,
    },
    /// Participant → ballot-0 acceptors: the fast-path phase-2a message at
    /// ballot 0. Sent directly by the site agent alongside its READY/REFUSE
    /// to the coordinator — closing the window where only the coordinator
    /// knows the vote.
    Vote2a {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The voting participant.
        site: SiteId,
        /// The transaction's coordinator, the ballot-0 leader. The acceptor
        /// reports to the coordinator of the registration, the same node.
        coord: u32,
        /// The vote.
        vote: Vote,
    },
    /// Acceptor → leader: phase 2b, one per acceptor per transaction. At
    /// ballot 0 it means this acceptor holds an unfenced Ready for every
    /// registered participant; at a takeover ballot, that it accepted the
    /// leader's whole [`PaxosMsg::Propose2a`] for the transaction.
    Accepted {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The ballot of the accepted values.
        ballot: Ballot,
        /// The reporting acceptor node.
        acceptor: u32,
    },
    /// Backup → acceptors: phase-1a for the *whole log* (multi-shot — one
    /// ballot amortized over every in-flight transaction).
    Prepare1a {
        /// The backup's ballot; `ballot.node` is the backup itself.
        ballot: Ballot,
    },
    /// Acceptor → backup: phase-1b promise carrying the full log — every
    /// registration and every accepted vote.
    Promise1b {
        /// The promised ballot.
        ballot: Ballot,
        /// The promising acceptor node.
        acceptor: u32,
        /// Every transaction registered at this acceptor.
        registrations: Vec<Registration>,
        /// Every instance value this acceptor has accepted.
        accepted: Vec<AcceptedVote>,
    },
    /// Backup → acceptors: phase 2a at the backup's ballot for one
    /// transaction, every participant's instance at once (the adopted vote,
    /// or Abort where the quorum showed none).
    Propose2a {
        /// The proposal ballot; `ballot.node` is the proposing backup.
        ballot: Ballot,
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The proposed vote per participant.
        votes: Vec<(SiteId, Vote)>,
    },
    /// Takeover leader → every acceptor: a transaction adopted at the
    /// takeover ballot settled everywhere; drop its registration and
    /// instances (log compaction). A ballot-0 transaction's compaction
    /// rides its coordinator's next registration instead
    /// ([`PaxosMsg::ClearThenBegin`]): the other F acceptors never hear of
    /// it, and until then a takeover may re-adopt it, re-deciding the
    /// outcome it settled with.
    Clear {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// Coordinator → ballot-0 acceptors: a [`PaxosMsg::Begin`] carrying
    /// the compaction of the coordinator's ballot-0 transactions that
    /// settled since its previous registration. The acceptor drops them
    /// from its log, then registers `gtxn`. A coordinator with nothing
    /// settled since then sends a plain `Begin`.
    ClearThenBegin {
        /// Settled transactions to compact out of the log first.
        cleared: Vec<GlobalTxnId>,
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its coordinator node.
        coord: u32,
        /// Its participant sites.
        participants: BTreeSet<SiteId>,
    },
}

impl PaxosMsg {
    /// One representative value per variant, in declaration order, with
    /// nontrivial payloads. rustc cannot see a variant missing here;
    /// `mdbs-net`'s `codec.rs` holds the list to the codec table's tags.
    pub fn specimens() -> Vec<PaxosMsg> {
        let gtxn = GlobalTxnId(9);
        let ballot = Ballot {
            number: 3,
            node: 1_000_001,
        };
        vec![
            PaxosMsg::Begin {
                gtxn,
                coord: 1_000_001,
                participants: BTreeSet::from([SiteId(0), SiteId(2)]),
            },
            PaxosMsg::Vote2a {
                gtxn,
                site: SiteId(2),
                coord: 1_000_001,
                vote: Vote::Ready,
            },
            PaxosMsg::Accepted {
                gtxn,
                ballot: Ballot::ZERO,
                acceptor: 3_000_002,
            },
            PaxosMsg::Prepare1a { ballot },
            PaxosMsg::Promise1b {
                ballot,
                acceptor: 3_000_000,
                registrations: vec![Registration {
                    gtxn,
                    coord: 1_000_001,
                    participants: BTreeSet::from([SiteId(0), SiteId(2)]),
                }],
                accepted: vec![AcceptedVote {
                    gtxn,
                    site: SiteId(0),
                    ballot: Ballot::ZERO,
                    vote: Vote::Ready,
                }],
            },
            PaxosMsg::Propose2a {
                ballot,
                gtxn,
                votes: vec![(SiteId(0), Vote::Abort), (SiteId(2), Vote::Ready)],
            },
            PaxosMsg::Clear { gtxn },
            PaxosMsg::ClearThenBegin {
                cleared: vec![GlobalTxnId(4), GlobalTxnId(7)],
                gtxn,
                coord: 1_000_001,
                participants: BTreeSet::from([SiteId(1)]),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specimens_round_trip_as_event_payloads() {
        for msg in PaxosMsg::specimens() {
            assert_eq!(msg.clone(), msg);
        }
    }
}
