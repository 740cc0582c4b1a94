//! The 2PC message vocabulary (§2).
//!
//! "The Coordinator sends BEGIN, PREPARE and COMMIT (or ROLLBACK) messages.
//! The Participant may send READY or REFUSE in response to PREPARE, and it
//! acknowledges the Coordinator's decision messages with COMMIT-ACK or
//! ROLLBACK-ACK." Data manipulation commands travel while the participant is
//! in the active state; PREPARE additionally carries the §5.2 serial number.
//!
//! The paper's BEGIN rides the first command a coordinator sends to a site:
//! [`Message::BeginDml`] opens the global subtransaction and carries its
//! first DML in one message, and later commands to the same site are plain
//! [`Message::Dml`]. A site never sent a command is never opened, so a
//! work-phase abort rolls back only the sites already reached. The agent
//! still accepts an explicit [`Message::Begin`] followed by `Dml` (the
//! harnesses that drive one agent by hand use it); no coordinator sends one.

use mdbs_histories::{GlobalTxnId, SiteId};
use mdbs_ldbs::{Command, CommandResult};

use crate::agent::RefuseReason;
use crate::sn::SerialNumber;

/// A message between a Coordinator and a 2PC Agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Coordinator → Agent: open a global subtransaction at the site. No
    /// coordinator sends it any more ([`Message::BeginDml`] carries the
    /// BEGIN); the agent still accepts it.
    Begin {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The coordinator's node id (for replies).
        coord: u32,
    },
    /// Coordinator → Agent: one DML command of the global subtransaction.
    Dml {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// Position of this command in the global program. Lets the agent
        /// discard duplicate deliveries of a command it already executed
        /// (the paper assumes exactly-once messaging; the chaos harness
        /// deliberately violates it).
        step: u32,
        /// The command to execute at the local interface.
        command: Command,
    },
    /// Coordinator → Agent: BEGIN and the first DML command for this site,
    /// in one message. The agent handles it as [`Message::Begin`] followed
    /// by [`Message::Dml`].
    BeginDml {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The coordinator's node id (for replies).
        coord: u32,
        /// Position of this command in the global program.
        step: u32,
        /// The command to execute at the local interface.
        command: Command,
    },
    /// Coordinator → Agent: PREPARE, carrying the transaction's serial
    /// number.
    Prepare {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The serial number drawn at global-commit submission.
        sn: SerialNumber,
    },
    /// Coordinator → Agent: COMMIT decision.
    Commit {
        /// The global transaction.
        gtxn: GlobalTxnId,
    },
    /// Coordinator → Agent: ROLLBACK decision.
    Rollback {
        /// The global transaction.
        gtxn: GlobalTxnId,
    },

    /// Agent → Coordinator: result of one DML command.
    DmlResult {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The replying site.
        site: SiteId,
        /// Echo of the [`Message::Dml`] step this result answers; the
        /// coordinator ignores results for any step other than the one it
        /// is currently awaiting (duplicate / stale-delivery protection).
        step: u32,
        /// Rows observed / written by the command.
        result: CommandResult,
    },
    /// Agent → Coordinator: the local subtransaction was unilaterally
    /// aborted in the *active* state (before any prepare), e.g. as a local
    /// deadlock victim. The site has already rolled back; the coordinator
    /// must abort the global transaction. (The paper's resubmission
    /// machinery applies only to the prepared state; an active-state abort
    /// simply fails the conversation, like a SQL error in a real LDBS.)
    Failed {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The failing site.
        site: SiteId,
    },
    /// Agent → Coordinator: READY (the subtransaction is prepared).
    Ready {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The replying site.
        site: SiteId,
    },
    /// Agent → Coordinator: REFUSE (certification or aliveness failure; the
    /// local subtransaction has been aborted).
    Refuse {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The replying site.
        site: SiteId,
        /// Why the agent refused.
        reason: RefuseReason,
    },
    /// Agent → Coordinator: the local subtransaction committed.
    CommitAck {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The replying site.
        site: SiteId,
    },
    /// Agent → Coordinator: the local subtransaction rolled back.
    RollbackAck {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The replying site.
        site: SiteId,
    },
    /// Coordinator → Agent: a backup coordinator took over this
    /// transaction after its original coordinator crashed (Paxos Commit
    /// failover); send all further replies — in particular the ack for the
    /// decision that follows — to `coord`. Never sent at `F=0`.
    NewCoord {
        /// The global transaction.
        gtxn: GlobalTxnId,
        /// The backup coordinator's node id.
        coord: u32,
    },
}

impl Message {
    /// The global transaction a message concerns.
    pub fn gtxn(&self) -> GlobalTxnId {
        match *self {
            Message::Begin { gtxn, .. }
            | Message::Dml { gtxn, .. }
            | Message::BeginDml { gtxn, .. }
            | Message::Prepare { gtxn, .. }
            | Message::Commit { gtxn }
            | Message::Rollback { gtxn }
            | Message::DmlResult { gtxn, .. }
            | Message::Failed { gtxn, .. }
            | Message::Ready { gtxn, .. }
            | Message::Refuse { gtxn, .. }
            | Message::CommitAck { gtxn, .. }
            | Message::RollbackAck { gtxn, .. }
            | Message::NewCoord { gtxn, .. } => gtxn,
        }
    }

    /// One representative value per variant, in declaration order, with
    /// nontrivial field values so the codec tests exercise real payloads.
    /// rustc cannot see a variant missing from this list; `mdbs-net`'s
    /// `codec.rs` can — the specimens' wire tags must be the codec table's.
    pub fn specimens() -> Vec<Message> {
        use mdbs_ldbs::KeySpec;
        vec![
            Message::Begin {
                gtxn: GlobalTxnId(7),
                coord: 1_000_002,
            },
            Message::Dml {
                gtxn: GlobalTxnId(7),
                step: 3,
                command: Command::Update(KeySpec::Key(11), 4),
            },
            Message::BeginDml {
                gtxn: GlobalTxnId(7),
                coord: 1_000_002,
                step: 0,
                command: Command::Select(KeySpec::Range(2, 9)),
            },
            Message::Prepare {
                gtxn: GlobalTxnId(7),
                sn: SerialNumber {
                    ticks: 42,
                    node: 5,
                    seq: 9,
                },
            },
            Message::Commit {
                gtxn: GlobalTxnId(7),
            },
            Message::Rollback {
                gtxn: GlobalTxnId(8),
            },
            Message::DmlResult {
                gtxn: GlobalTxnId(7),
                site: SiteId(1),
                step: 3,
                result: CommandResult {
                    rows: vec![(11, 104)],
                    wrote: vec![11],
                },
            },
            Message::Failed {
                gtxn: GlobalTxnId(9),
                site: SiteId(0),
            },
            Message::Ready {
                gtxn: GlobalTxnId(7),
                site: SiteId(1),
            },
            Message::Refuse {
                gtxn: GlobalTxnId(7),
                site: SiteId(1),
                reason: RefuseReason::AliveIntervalDisjoint,
            },
            Message::CommitAck {
                gtxn: GlobalTxnId(7),
                site: SiteId(1),
            },
            Message::RollbackAck {
                gtxn: GlobalTxnId(8),
                site: SiteId(0),
            },
            Message::NewCoord {
                gtxn: GlobalTxnId(7),
                coord: 1_000_000,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtxn_extraction() {
        let m = Message::Commit {
            gtxn: GlobalTxnId(7),
        };
        assert_eq!(m.gtxn(), GlobalTxnId(7));
        let m = Message::Ready {
            gtxn: GlobalTxnId(3),
            site: SiteId(1),
        };
        assert_eq!(m.gtxn(), GlobalTxnId(3));
    }
}
