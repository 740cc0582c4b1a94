//! The durable Agent log.
//!
//! The Appendix algorithms are explicit about durability: Algorithm B
//! "force write[s] the prepare record in the Agent log" before READY, and
//! Algorithm C "write[s] the commit record to the Agent log" before the
//! local commit — plus the log stores every DML command so that
//! "resubmit commands from the Agent log" (Algorithm A) is possible.
//!
//! [`AgentLog`] models that log as a typed append-only record sequence, and
//! [`AgentLog::recover`] performs the crash-recovery scan: after a site
//! crash (the paper's *collective abort*), the 2PC Agent is rebuilt from
//! this log alone — every subtransaction that was prepared but not finished
//! must be restored (in the aborted state, since the crash rolled back all
//! LTM work) and resubmitted; every commit decision already forced must be
//! honoured.

use mdbs_histories::GlobalTxnId;
use mdbs_ldbs::Command;

use crate::sn::SerialNumber;

/// One durable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A global subtransaction opened (BEGIN received).
    Begin {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its coordinator's node id.
        coord: u32,
    },
    /// A DML command received (logged before execution, for resubmission).
    Command {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The command.
        command: Command,
    },
    /// The force-written prepare record (Algorithm B): the decision to
    /// send READY, with everything recovery needs.
    Prepare {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its serial number (from the PREPARE message).
        sn: SerialNumber,
        /// The keys it touched — its *bound data*, re-bound on recovery.
        touched: Vec<u64>,
    },
    /// The commit record (Algorithm C): the COMMIT decision reached this
    /// site and certification passed; the local commit follows.
    Commit {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// A resubmission started (a fresh incarnation was opened at the LTM).
    /// Recovery counts these to restore the incarnation counter — instance
    /// identities must never be reused across a crash, or the LTM (and the
    /// history checkers) would see two lives of one transaction id.
    Resubmit {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// The subtransaction is finished at this site (locally committed and
    /// acknowledged) — recovery may forget it.
    Done {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// The subtransaction was rolled back (REFUSE or ROLLBACK) — recovery
    /// may forget it.
    Rollback {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
}

/// A subtransaction reconstructed by the recovery scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTxn {
    /// The transaction.
    pub gtxn: GlobalTxnId,
    /// Its coordinator.
    pub coord: u32,
    /// The logged commands, in order.
    pub commands: Vec<Command>,
    /// Prepare record contents, if it reached the prepared state.
    pub prepared: Option<(SerialNumber, Vec<u64>)>,
    /// Whether a commit record was forced (COMMIT certification passed
    /// before the crash; the local commit must be redone).
    pub committing: bool,
    /// Highest incarnation index ever opened (0 = only the original).
    pub incarnation: u32,
}

/// The append-only agent log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentLog {
    records: Vec<LogRecord>,
}

impl AgentLog {
    /// An empty log.
    pub fn new() -> AgentLog {
        AgentLog::default()
    }

    /// Append (force-write) a record.
    pub fn append(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recovery scan: reconstruct every unfinished subtransaction, the
    /// largest serial number whose commit record was forced (needed to
    /// restore the §5.3 extension state), and the finished transactions
    /// (a duplicate BEGIN surfacing after the crash must not restart one).
    pub fn recover(&self) -> (Vec<RecoveredTxn>, Option<SerialNumber>, Vec<GlobalTxnId>) {
        use std::collections::BTreeMap;
        let mut txns: BTreeMap<GlobalTxnId, RecoveredTxn> = BTreeMap::new();
        let mut finished: Vec<GlobalTxnId> = Vec::new();
        let mut max_committed_sn: Option<SerialNumber> = None;

        for rec in &self.records {
            match rec {
                LogRecord::Begin { gtxn, coord } => {
                    txns.insert(
                        *gtxn,
                        RecoveredTxn {
                            gtxn: *gtxn,
                            coord: *coord,
                            commands: Vec::new(),
                            prepared: None,
                            committing: false,
                            incarnation: 0,
                        },
                    );
                }
                LogRecord::Command { gtxn, command } => {
                    if let Some(t) = txns.get_mut(gtxn) {
                        t.commands.push(*command);
                    }
                }
                LogRecord::Prepare { gtxn, sn, touched } => {
                    if let Some(t) = txns.get_mut(gtxn) {
                        t.prepared = Some((*sn, touched.clone()));
                    }
                }
                LogRecord::Resubmit { gtxn } => {
                    if let Some(t) = txns.get_mut(gtxn) {
                        t.incarnation += 1;
                    }
                }
                LogRecord::Commit { gtxn } => {
                    if let Some(t) = txns.get_mut(gtxn) {
                        t.committing = true;
                        if let Some((sn, _)) = t.prepared {
                            if max_committed_sn.is_none_or(|m| sn > m) {
                                max_committed_sn = Some(sn);
                            }
                        }
                    }
                }
                LogRecord::Done { gtxn } | LogRecord::Rollback { gtxn } => {
                    txns.remove(gtxn);
                    finished.push(*gtxn);
                }
            }
        }
        (txns.into_values().collect(), max_committed_sn, finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_ldbs::KeySpec;

    fn g(k: u32) -> GlobalTxnId {
        GlobalTxnId(k)
    }
    fn cmd(k: u64) -> Command {
        Command::Update(KeySpec::Key(k), 1)
    }
    fn sn(t: u64) -> SerialNumber {
        SerialNumber {
            ticks: t,
            node: 0,
            seq: 0,
        }
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let (txns, max_sn, finished) = AgentLog::new().recover();
        assert!(txns.is_empty() && finished.is_empty());
        assert_eq!(max_sn, None);
    }

    #[test]
    fn active_txn_recovered_without_prepare() {
        let mut log = AgentLog::new();
        log.append(LogRecord::Begin {
            gtxn: g(1),
            coord: 7,
        });
        log.append(LogRecord::Command {
            gtxn: g(1),
            command: cmd(0),
        });
        let (txns, _, _) = log.recover();
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].coord, 7);
        assert_eq!(txns[0].commands, vec![cmd(0)]);
        assert_eq!(txns[0].prepared, None);
        assert!(!txns[0].committing);
    }

    #[test]
    fn prepared_txn_recovered_with_sn_and_bound_data() {
        let mut log = AgentLog::new();
        log.append(LogRecord::Begin {
            gtxn: g(1),
            coord: 7,
        });
        log.append(LogRecord::Command {
            gtxn: g(1),
            command: cmd(3),
        });
        log.append(LogRecord::Prepare {
            gtxn: g(1),
            sn: sn(5),
            touched: vec![3],
        });
        let (txns, _, _) = log.recover();
        assert_eq!(txns[0].prepared, Some((sn(5), vec![3])));
    }

    #[test]
    fn committing_txn_flagged_and_sn_restored() {
        let mut log = AgentLog::new();
        log.append(LogRecord::Begin {
            gtxn: g(1),
            coord: 7,
        });
        log.append(LogRecord::Prepare {
            gtxn: g(1),
            sn: sn(5),
            touched: vec![],
        });
        log.append(LogRecord::Commit { gtxn: g(1) });
        let (txns, max_sn, _) = log.recover();
        assert!(txns[0].committing);
        assert_eq!(max_sn, Some(sn(5)));
    }

    #[test]
    fn done_txns_forgotten_but_sn_remembered() {
        let mut log = AgentLog::new();
        log.append(LogRecord::Begin {
            gtxn: g(1),
            coord: 7,
        });
        log.append(LogRecord::Prepare {
            gtxn: g(1),
            sn: sn(9),
            touched: vec![],
        });
        log.append(LogRecord::Commit { gtxn: g(1) });
        log.append(LogRecord::Done { gtxn: g(1) });
        let (txns, max_sn, finished) = log.recover();
        assert!(txns.is_empty());
        assert_eq!(max_sn, Some(sn(9)), "extension state survives the crash");
        assert_eq!(finished, vec![g(1)], "and so does the terminal outcome");
    }

    #[test]
    fn resubmissions_restore_incarnation_counter() {
        let mut log = AgentLog::new();
        log.append(LogRecord::Begin {
            gtxn: g(1),
            coord: 7,
        });
        log.append(LogRecord::Prepare {
            gtxn: g(1),
            sn: sn(5),
            touched: vec![],
        });
        log.append(LogRecord::Resubmit { gtxn: g(1) });
        log.append(LogRecord::Resubmit { gtxn: g(1) });
        let (txns, _, _) = log.recover();
        assert_eq!(txns[0].incarnation, 2);
    }

    #[test]
    fn rolled_back_txns_forgotten() {
        let mut log = AgentLog::new();
        log.append(LogRecord::Begin {
            gtxn: g(1),
            coord: 7,
        });
        log.append(LogRecord::Rollback { gtxn: g(1) });
        let (txns, _, finished) = log.recover();
        assert!(txns.is_empty());
        assert_eq!(finished, vec![g(1)]);
    }

    #[test]
    fn multiple_txns_ordered_by_id() {
        let mut log = AgentLog::new();
        for k in [3u32, 1, 2] {
            log.append(LogRecord::Begin {
                gtxn: g(k),
                coord: 0,
            });
        }
        log.append(LogRecord::Rollback { gtxn: g(2) });
        let (txns, _, _) = log.recover();
        let ids: Vec<u32> = txns.iter().map(|t| t.gtxn.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }
}
