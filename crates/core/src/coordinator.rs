//! The Coordinator side of the DTM (§2).
//!
//! A coordinator decomposes a global transaction into global
//! subtransactions (at most one per site), submits the DML commands one by
//! one, and — when the application issues the global Commit — draws the
//! serial number (§5.2) and runs standard 2PC: PREPARE to all participants,
//! COMMIT on unanimous READY, ROLLBACK otherwise.
//!
//! The paper's BEGIN rides the first command a site receives
//! ([`Message::BeginDml`]), so a site is *opened* only when the program
//! reaches it. A work-phase abort rolls back the opened sites only and is
//! settled once they are; by PREPARE every participant is open. On the
//! two-site one-command twin a commit costs 12 messages: 2 BeginDml,
//! 2 DmlResult, then PREPARE, READY, COMMIT and COMMIT-ACK per site.
//!
//! Coordinators are fully decentralized: any node can host any number of
//! them, and they share no state — the whole point of the 2CM architecture
//! (§6, "the DTM of CGM uses a centralized scheduler while the scheduling in
//! the 2CM is decentralized").
//!
//! Like the agent, the coordinator is a pure state machine returning
//! [`CoordAction`]s for the host to carry out.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::{GlobalTxnId, SiteId};
use mdbs_ldbs::{Command, CommandResult};

use crate::msg::Message;
use crate::sn::{SerialNumber, SnGenerator};

/// One step of a global transaction's program: a command for a site.
pub type GlobalProgram = Vec<(SiteId, Command)>;

/// Final fate of a global transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalOutcome {
    /// Globally committed and locally committed everywhere.
    Committed,
    /// Globally aborted (certification refusal or explicit rollback).
    Aborted,
}

/// Actions the host must perform for the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordAction {
    /// Send a 2PC message to the agent at a site.
    ToAgent {
        /// Destination site.
        site: SiteId,
        /// The message.
        msg: Message,
    },
    /// The coordinator durably recorded the decision to commit: append
    /// `C_k` to the global history.
    RecordGlobalCommit(GlobalTxnId),
    /// The coordinator durably recorded the decision to abort: append
    /// `A_k`.
    RecordGlobalAbort(GlobalTxnId),
    /// The transaction reached a terminal state (all acks collected).
    Finished {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its outcome.
        outcome: GlobalOutcome,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    /// Executing the program step by step.
    Executing,
    /// PREPAREs sent; collecting READY/REFUSE votes.
    Preparing,
    /// COMMITs sent; collecting acks.
    Committing,
    /// ROLLBACKs sent; collecting acks.
    Aborting,
}

#[derive(Debug)]
struct GlobalTxn {
    program: GlobalProgram,
    step: usize,
    /// Sites sent their first command (and with it the BEGIN): those a
    /// decision must reach. Every participant once the program completes.
    opened: BTreeSet<SiteId>,
    phase: TxnPhase,
    ready: BTreeSet<SiteId>,
    acked: BTreeSet<SiteId>,
    /// Sites whose vote or ack is no longer expected (they refused).
    refused: BTreeSet<SiteId>,
    sn: Option<SerialNumber>,
    /// Results of completed steps (what the application computed with).
    results: Vec<CommandResult>,
}

impl GlobalTxn {
    /// Send the command at `step`; the first one a site receives opens it
    /// and carries the BEGIN. `None` once the program is complete.
    fn dispatch(&mut self, gtxn: GlobalTxnId, coord: u32) -> Option<CoordAction> {
        let &(site, command) = self.program.get(self.step)?;
        let step = self.step as u32;
        // mdbs-check: allow(hot-unbounded-growth, "at most one entry per site of the program; the whole GlobalTxn is dropped when the transaction finishes")
        let msg = if self.opened.insert(site) {
            Message::BeginDml {
                gtxn,
                coord,
                step,
                command,
            }
        } else {
            Message::Dml {
                gtxn,
                step,
                command,
            }
        };
        Some(CoordAction::ToAgent { site, msg })
    }
}

/// A 2PC coordinator hosted at one node.
#[derive(Debug)]
pub struct Coordinator {
    node: u32,
    sn_gen: SnGenerator,
    txns: BTreeMap<GlobalTxnId, GlobalTxn>,
    /// Paxos Commit gating: when set, unanimous READY does *not* decide —
    /// the consensus layer calls [`Coordinator::commit_decided`] once the
    /// acceptor quorum holds every participant's vote. False (`F=0`)
    /// reproduces the paper's direct 2PC decision exactly.
    gate_commit: bool,
}

impl Coordinator {
    /// Create a coordinator at network node `node`.
    pub fn new(node: u32) -> Coordinator {
        Coordinator {
            node,
            sn_gen: SnGenerator::new(node),
            txns: BTreeMap::new(),
            gate_commit: false,
        }
    }

    /// Gate the commit decision behind an external consensus layer: on
    /// unanimous READY the coordinator stays in the preparing phase until
    /// [`Coordinator::commit_decided`] is called. Abort decisions are not
    /// gated — they are always safe (a refused instance can never decide
    /// Ready at the acceptors).
    pub fn set_gate_commit(&mut self, gate: bool) {
        self.gate_commit = gate;
    }

    /// This coordinator's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Number of transactions still in flight.
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }

    /// The serial number assigned to a transaction, once drawn.
    #[cfg(test)]
    fn sn_of(&self, gtxn: GlobalTxnId) -> Option<SerialNumber> {
        self.txns.get(&gtxn).and_then(|t| t.sn)
    }

    /// Start a global transaction with the given program.
    ///
    /// Sends the first command, carrying its site's BEGIN; the other
    /// participants are opened as the program reaches them. A transaction
    /// already in flight (a re-delivered start) is left alone, and an empty
    /// program has nowhere to begin: both do nothing.
    pub fn begin(&mut self, gtxn: GlobalTxnId, program: GlobalProgram) -> Vec<CoordAction> {
        if program.is_empty() || self.txns.contains_key(&gtxn) {
            return vec![];
        }
        let mut txn = GlobalTxn {
            program,
            step: 0,
            opened: BTreeSet::new(),
            phase: TxnPhase::Executing,
            ready: BTreeSet::new(),
            acked: BTreeSet::new(),
            refused: BTreeSet::new(),
            sn: None,
            results: Vec::new(),
        };
        let first = txn.dispatch(gtxn, self.node);
        self.txns.insert(gtxn, txn);
        first.into_iter().collect()
    }

    /// Handle an upstream message from an agent. `now_local` is this node's
    /// local clock reading (used when drawing the serial number).
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn on_message(&mut self, now_local: u64, msg: Message) -> Vec<CoordAction> {
        match msg {
            Message::DmlResult {
                gtxn,
                site,
                step,
                result,
            } => self.on_dml_result(now_local, gtxn, site, step, result),
            Message::Ready { gtxn, site } => self.on_ready(gtxn, site),
            Message::Refuse { gtxn, site, .. } => self.on_refuse(gtxn, site),
            Message::Failed { gtxn, site } => self.on_refuse(gtxn, site),
            Message::CommitAck { gtxn, site } => self.on_ack(gtxn, site, GlobalOutcome::Committed),
            Message::RollbackAck { gtxn, site } => self.on_ack(gtxn, site, GlobalOutcome::Aborted),
            Message::Begin { .. }
            | Message::Dml { .. }
            | Message::BeginDml { .. }
            | Message::Prepare { .. }
            | Message::Commit { .. }
            | Message::Rollback { .. }
            | Message::NewCoord { .. } => {
                debug_assert!(false, "coordinator received downstream message {msg:?}");
                vec![]
            }
        }
    }

    fn on_dml_result(
        &mut self,
        now_local: u64,
        gtxn: GlobalTxnId,
        site: SiteId,
        step: u32,
        result: CommandResult,
    ) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get_mut(&gtxn) else {
            return vec![];
        };
        if txn.phase != TxnPhase::Executing {
            // A stale DmlResult that was in flight when the transaction
            // was aborted (e.g. its site crashed and reported Failed while
            // the result travelled). Ignore it.
            return vec![];
        }
        let Some(&(awaited_site, _)) = txn.program.get(txn.step) else {
            return vec![]; // unreachable while Executing: step < program len
        };
        if step as usize != txn.step || awaited_site != site {
            // Duplicate or stale delivery of an already-consumed result:
            // only the reply to the step currently awaited, from the site
            // that executes it, may advance the program.
            return vec![];
        }
        txn.results.push(result);
        txn.step += 1;
        if let Some(next) = txn.dispatch(gtxn, self.node) {
            return vec![next];
        }
        // Program complete: the application submits the global Commit.
        // "At this moment, the Coordinator gives a globally unique serial
        // number to the transaction" (§5.2), shipped in the PREPAREs.
        let sn = self.sn_gen.next(now_local);
        txn.sn = Some(sn);
        txn.phase = TxnPhase::Preparing;
        txn.opened
            .iter()
            .map(|&site| CoordAction::ToAgent {
                site,
                msg: Message::Prepare { gtxn, sn },
            })
            .collect()
    }

    fn on_ready(&mut self, gtxn: GlobalTxnId, site: SiteId) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get_mut(&gtxn) else {
            return vec![];
        };
        if txn.phase == TxnPhase::Committing {
            // A duplicate READY from a site that crashed and recovered
            // after voting: retransmit the decision (2PC recovery).
            return vec![CoordAction::ToAgent {
                site,
                msg: Message::Commit { gtxn },
            }];
        }
        if txn.phase != TxnPhase::Preparing {
            return vec![]; // late READY after an abort decision
        }
        txn.ready.insert(site);
        if txn.ready.len() < txn.opened.len() {
            return vec![];
        }
        if self.gate_commit {
            // Paxos Commit: unanimity here is not a decision — the
            // consensus layer decides once the acceptor quorum holds every
            // participant's READY, and calls `commit_decided`.
            return vec![];
        }
        // Unanimous READY: record the commit decision, then COMMIT.
        txn.phase = TxnPhase::Committing;
        let mut actions = vec![CoordAction::RecordGlobalCommit(gtxn)];
        actions.extend(txn.opened.iter().map(|&site| CoordAction::ToAgent {
            site,
            msg: Message::Commit { gtxn },
        }));
        actions
    }

    fn on_refuse(&mut self, gtxn: GlobalTxnId, site: SiteId) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get_mut(&gtxn) else {
            return vec![];
        };
        match txn.phase {
            TxnPhase::Executing | TxnPhase::Preparing => {
                txn.refused.insert(site);
                txn.phase = TxnPhase::Aborting;
                let mut actions = vec![CoordAction::RecordGlobalAbort(gtxn)];
                actions.extend(
                    txn.opened
                        .iter()
                        .filter(|s| !txn.refused.contains(s))
                        .map(|&s| CoordAction::ToAgent {
                            site: s,
                            msg: Message::Rollback { gtxn },
                        }),
                );
                actions.extend(self.maybe_finish_abort(gtxn));
                actions
            }
            TxnPhase::Aborting => {
                // A refusal crossing our ROLLBACK counts as its ack.
                txn.refused.insert(site);
                self.maybe_finish_abort(gtxn)
            }
            TxnPhase::Committing => {
                // Unreachable in a fault-free run (a site votes once), but a
                // duplicated REFUSE can land here after a crash-recovery
                // READY flipped the decision. The decision is made; ignore.
                vec![]
            }
        }
    }

    fn on_ack(
        &mut self,
        gtxn: GlobalTxnId,
        site: SiteId,
        acked_as: GlobalOutcome,
    ) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get_mut(&gtxn) else {
            return vec![];
        };
        match (txn.phase, acked_as) {
            (TxnPhase::Committing, GlobalOutcome::Committed) => {
                txn.acked.insert(site);
                if txn.acked.len() == txn.opened.len() {
                    self.txns.remove(&gtxn);
                    return vec![CoordAction::Finished {
                        gtxn,
                        outcome: GlobalOutcome::Committed,
                    }];
                }
                vec![]
            }
            (TxnPhase::Aborting, GlobalOutcome::Aborted) => {
                txn.acked.insert(site);
                self.maybe_finish_abort(gtxn)
            }
            _ => {
                // An ack that does not match the current phase: under
                // injected duplication/reordering a stale ack from an
                // earlier exchange can surface late. It carries no new
                // information — ignore it.
                vec![]
            }
        }
    }

    /// The consensus layer decided commit for `gtxn`: record the decision
    /// and send COMMIT to every participant. Only meaningful while
    /// preparing — the acceptor quorum can complete before every READY has
    /// reached this coordinator, so the ready set may still be partial
    /// (stragglers arriving afterwards get the committing-phase duplicate
    /// handling, i.e. a retransmitted COMMIT). A decision for a
    /// transaction that already aborted (a REFUSE raced the quorum) or
    /// already settled is ignored: the refusal path never lets a refused
    /// instance decide Ready, so such a decision can only be a duplicate.
    pub fn commit_decided(&mut self, gtxn: GlobalTxnId) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get_mut(&gtxn) else {
            return vec![];
        };
        if txn.phase != TxnPhase::Preparing {
            return vec![];
        }
        txn.phase = TxnPhase::Committing;
        let mut actions = vec![CoordAction::RecordGlobalCommit(gtxn)];
        actions.extend(txn.opened.iter().map(|&site| CoordAction::ToAgent {
            site,
            msg: Message::Commit { gtxn },
        }));
        actions
    }

    /// Adopt an orphaned transaction during Paxos Commit failover: this
    /// coordinator was not the original leader, but the consensus layer
    /// read the outcome from the acceptor quorum. Installs the transaction
    /// directly in its decided phase and drives the decision: NEW-COORD
    /// (so agents redirect their acks here) followed by COMMIT/ROLLBACK to
    /// every participant. A transaction already known here is ignored —
    /// adoption is only for other coordinators' work.
    pub fn adopt(
        &mut self,
        gtxn: GlobalTxnId,
        participants: BTreeSet<SiteId>,
        commit: bool,
    ) -> Vec<CoordAction> {
        if self.txns.contains_key(&gtxn) {
            return vec![];
        }
        let mut actions = vec![if commit {
            CoordAction::RecordGlobalCommit(gtxn)
        } else {
            CoordAction::RecordGlobalAbort(gtxn)
        }];
        for &site in &participants {
            actions.push(CoordAction::ToAgent {
                site,
                msg: Message::NewCoord {
                    gtxn,
                    coord: self.node,
                },
            });
            actions.push(CoordAction::ToAgent {
                site,
                msg: if commit {
                    Message::Commit { gtxn }
                } else {
                    Message::Rollback { gtxn }
                },
            });
        }
        self.txns.insert(
            gtxn,
            GlobalTxn {
                program: Vec::new(),
                step: 0,
                opened: participants,
                phase: if commit {
                    TxnPhase::Committing
                } else {
                    TxnPhase::Aborting
                },
                ready: BTreeSet::new(),
                acked: BTreeSet::new(),
                refused: BTreeSet::new(),
                sn: None,
                results: Vec::new(),
            },
        );
        actions
    }

    /// Abort a transaction from outside the 2PC vote flow (an external
    /// scheduler decision, e.g. CGM's commit-graph loop check, or an
    /// application abort). Valid while executing or preparing: records the
    /// abort decision and sends ROLLBACK to every opened site.
    pub fn abort_externally(&mut self, gtxn: GlobalTxnId) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get_mut(&gtxn) else {
            return vec![];
        };
        if !matches!(txn.phase, TxnPhase::Executing | TxnPhase::Preparing) {
            // Already aborting: a site failure (e.g. a crash) beat the
            // external decision to it. Already committing: the decision
            // came too late to be one. Nothing more to do.
            return vec![];
        }
        txn.phase = TxnPhase::Aborting;
        let mut actions = vec![CoordAction::RecordGlobalAbort(gtxn)];
        actions.extend(txn.opened.iter().map(|&site| CoordAction::ToAgent {
            site,
            msg: Message::Rollback { gtxn },
        }));
        actions
    }

    fn maybe_finish_abort(&mut self, gtxn: GlobalTxnId) -> Vec<CoordAction> {
        let Some(txn) = self.txns.get(&gtxn) else {
            return vec![]; // unreachable: callers hold the entry
        };
        // Every opened site settled, by refusal or by ack. A site can do
        // both under duplicated messages (a refusal crossing our ROLLBACK).
        let settled = txn
            .opened
            .iter()
            .all(|s| txn.acked.contains(s) || txn.refused.contains(s));
        if settled {
            self.txns.remove(&gtxn);
            return vec![CoordAction::Finished {
                gtxn,
                outcome: GlobalOutcome::Aborted,
            }];
        }
        vec![]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_ldbs::KeySpec;

    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);

    fn g(k: u32) -> GlobalTxnId {
        GlobalTxnId(k)
    }

    fn program2() -> GlobalProgram {
        vec![
            (A, Command::Update(KeySpec::Key(0), -10)),
            (B, Command::Update(KeySpec::Key(0), 10)),
        ]
    }

    fn result() -> CommandResult {
        CommandResult::default()
    }

    fn sent_to(actions: &[CoordAction]) -> Vec<(SiteId, &Message)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::ToAgent { site, msg } => Some((*site, msg)),
                _ => None,
            })
            .collect()
    }

    fn dml_result(c: &mut Coordinator, now: u64, site: SiteId, step: u32) -> Vec<CoordAction> {
        c.on_message(
            now,
            Message::DmlResult {
                gtxn: g(1),
                site,
                step,
                result: result(),
            },
        )
    }

    #[test]
    fn a_sites_first_command_carries_its_begin_and_later_ones_do_not() {
        let mut c = Coordinator::new(100);
        let program = vec![
            (A, Command::Update(KeySpec::Key(0), -10)),
            (B, Command::Update(KeySpec::Key(0), 10)),
            (A, Command::Select(KeySpec::Key(1))),
        ];
        let acts = c.begin(g(1), program);
        assert_eq!(
            sent_to(&acts),
            vec![(
                A,
                &Message::BeginDml {
                    gtxn: g(1),
                    coord: 100,
                    step: 0,
                    command: Command::Update(KeySpec::Key(0), -10),
                }
            )],
            "only the first site hears anything at begin"
        );
        let acts = dml_result(&mut c, 1, A, 0);
        assert!(matches!(
            sent_to(&acts)[..],
            [(
                SiteId(1),
                Message::BeginDml {
                    step: 1,
                    coord: 100,
                    ..
                }
            )]
        ));
        let acts = dml_result(&mut c, 2, B, 1);
        assert!(matches!(
            sent_to(&acts)[..],
            [(SiteId(0), Message::Dml { step: 2, .. })]
        ));
    }

    #[test]
    fn a_global_that_fails_at_its_first_site_finishes_on_that_failure() {
        // The program never reached B: B was never opened, so nothing is
        // sent to it and A's failure alone settles the abort.
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        let acts = c.on_message(
            1,
            Message::Failed {
                gtxn: g(1),
                site: A,
            },
        );
        assert_eq!(
            acts,
            vec![
                CoordAction::RecordGlobalAbort(g(1)),
                CoordAction::Finished {
                    gtxn: g(1),
                    outcome: GlobalOutcome::Aborted
                }
            ]
        );
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn a_work_phase_external_abort_rolls_back_the_opened_sites_only() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        let acts = c.abort_externally(g(1));
        assert!(matches!(acts[0], CoordAction::RecordGlobalAbort(_)));
        assert_eq!(sent_to(&acts), vec![(A, &Message::Rollback { gtxn: g(1) })]);
        let acts = c.on_message(
            2,
            Message::RollbackAck {
                gtxn: g(1),
                site: A,
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::Finished {
                gtxn: g(1),
                outcome: GlobalOutcome::Aborted
            }]
        );
    }

    #[test]
    fn steps_execute_sequentially_then_prepare() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        let acts = c.on_message(
            10,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        let msgs = sent_to(&acts);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], (SiteId(1), Message::BeginDml { .. })));

        let acts = c.on_message(
            20,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        let msgs = sent_to(&acts);
        assert_eq!(msgs.len(), 2, "PREPARE to both participants");
        assert!(msgs
            .iter()
            .all(|(_, m)| matches!(m, Message::Prepare { .. })));
        let sn = c.sn_of(g(1)).expect("sn drawn at commit submission");
        assert_eq!(sn.ticks, 20);
    }

    #[test]
    fn unanimous_ready_commits() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        let acts = c.on_message(
            3,
            Message::Ready {
                gtxn: g(1),
                site: A,
            },
        );
        assert!(acts.is_empty(), "waiting for second vote");
        let acts = c.on_message(
            4,
            Message::Ready {
                gtxn: g(1),
                site: B,
            },
        );
        assert!(matches!(acts[0], CoordAction::RecordGlobalCommit(_)));
        assert_eq!(sent_to(&acts).len(), 2);
        // Acks finish the transaction.
        assert!(c
            .on_message(
                5,
                Message::CommitAck {
                    gtxn: g(1),
                    site: A
                }
            )
            .is_empty());
        let acts = c.on_message(
            6,
            Message::CommitAck {
                gtxn: g(1),
                site: B,
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::Finished {
                gtxn: g(1),
                outcome: GlobalOutcome::Committed
            }]
        );
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn gated_coordinator_waits_for_commit_decided() {
        let mut c = Coordinator::new(100);
        c.set_gate_commit(true);
        c.begin(g(1), program2());
        for (i, (site, step)) in [(A, 0), (B, 1)].into_iter().enumerate() {
            c.on_message(
                i as u64 + 1,
                Message::DmlResult {
                    gtxn: g(1),
                    site,
                    step,
                    result: result(),
                },
            );
        }
        c.on_message(
            3,
            Message::Ready {
                gtxn: g(1),
                site: A,
            },
        );
        let acts = c.on_message(
            4,
            Message::Ready {
                gtxn: g(1),
                site: B,
            },
        );
        assert!(acts.is_empty(), "unanimity must not decide while gated");
        // The consensus layer decides.
        let acts = c.commit_decided(g(1));
        assert!(matches!(acts[0], CoordAction::RecordGlobalCommit(_)));
        assert_eq!(sent_to(&acts).len(), 2);
        // A duplicate decision is inert.
        assert!(c.commit_decided(g(1)).is_empty());
        // A late straggler READY gets the usual retransmitted COMMIT.
        let acts = c.on_message(
            5,
            Message::Ready {
                gtxn: g(1),
                site: A,
            },
        );
        assert!(matches!(
            sent_to(&acts)[0],
            (SiteId(0), Message::Commit { .. })
        ));
    }

    #[test]
    fn commit_decided_for_unknown_or_settled_txn_is_inert() {
        let mut c = Coordinator::new(100);
        assert!(c.commit_decided(g(9)).is_empty());
        c.set_gate_commit(true);
        c.begin(g(1), program2());
        // Still executing: a (impossibly early) decision must not commit a
        // transaction whose program has not finished.
        assert!(c.commit_decided(g(1)).is_empty());
    }

    #[test]
    fn adopt_drives_the_decision_with_new_coord_first() {
        let mut c = Coordinator::new(100);
        let acts = c.adopt(g(7), BTreeSet::from([A, B]), true);
        assert!(matches!(acts[0], CoordAction::RecordGlobalCommit(_)));
        let msgs = sent_to(&acts);
        assert_eq!(msgs.len(), 4, "NEW-COORD + COMMIT per participant");
        assert!(
            matches!(msgs[0], (SiteId(0), Message::NewCoord { coord: 100, .. })),
            "redirect must precede the decision message"
        );
        assert!(matches!(msgs[1], (SiteId(0), Message::Commit { .. })));
        // Acks settle it like any committing transaction.
        c.on_message(
            1,
            Message::CommitAck {
                gtxn: g(7),
                site: A,
            },
        );
        let acts = c.on_message(
            2,
            Message::CommitAck {
                gtxn: g(7),
                site: B,
            },
        );
        assert!(matches!(acts[0], CoordAction::Finished { .. }));
        assert_eq!(c.in_flight(), 0);

        // The abort flavor sends ROLLBACKs.
        let acts = c.adopt(g(8), BTreeSet::from([A]), false);
        assert!(matches!(acts[0], CoordAction::RecordGlobalAbort(_)));
        let msgs = sent_to(&acts);
        assert!(matches!(msgs[1], (SiteId(0), Message::Rollback { .. })));
        // Adopting a transaction we already track is refused.
        assert!(c.adopt(g(8), BTreeSet::from([A]), true).is_empty());
    }

    #[test]
    fn refuse_aborts_and_rolls_back_others() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        c.on_message(
            3,
            Message::Ready {
                gtxn: g(1),
                site: A,
            },
        );
        let acts = c.on_message(
            4,
            Message::Refuse {
                gtxn: g(1),
                site: B,
                reason: crate::agent::RefuseReason::NotAlive,
            },
        );
        assert!(matches!(acts[0], CoordAction::RecordGlobalAbort(_)));
        let msgs = sent_to(&acts);
        assert_eq!(msgs.len(), 1, "ROLLBACK only to the non-refusing site");
        assert!(matches!(msgs[0], (SiteId(0), Message::Rollback { .. })));
        let acts = c.on_message(
            5,
            Message::RollbackAck {
                gtxn: g(1),
                site: A,
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::Finished {
                gtxn: g(1),
                outcome: GlobalOutcome::Aborted
            }]
        );
    }

    #[test]
    fn double_refuse_crossing_rollback() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        let r = crate::agent::RefuseReason::AliveIntervalDisjoint;
        c.on_message(
            3,
            Message::Refuse {
                gtxn: g(1),
                site: A,
                reason: r,
            },
        );
        // B's refusal crosses the ROLLBACK we sent it.
        let acts = c.on_message(
            4,
            Message::Refuse {
                gtxn: g(1),
                site: B,
                reason: r,
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::Finished {
                gtxn: g(1),
                outcome: GlobalOutcome::Aborted
            }]
        );
    }

    #[test]
    fn single_site_transaction() {
        let mut c = Coordinator::new(7);
        let acts = c.begin(g(2), vec![(A, Command::Select(KeySpec::Key(0)))]);
        assert_eq!(sent_to(&acts).len(), 1); // BeginDml
        let acts = c.on_message(
            9,
            Message::DmlResult {
                gtxn: g(2),
                site: A,
                step: 0,
                result: result(),
            },
        );
        assert_eq!(sent_to(&acts).len(), 1); // single PREPARE
        let acts = c.on_message(
            10,
            Message::Ready {
                gtxn: g(2),
                site: A,
            },
        );
        assert!(matches!(acts[0], CoordAction::RecordGlobalCommit(_)));
        let acts = c.on_message(
            11,
            Message::CommitAck {
                gtxn: g(2),
                site: A,
            },
        );
        assert!(matches!(acts[0], CoordAction::Finished { .. }));
    }

    #[test]
    fn sn_ticks_use_local_clock() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), vec![(A, Command::Select(KeySpec::Key(0)))]);
        c.on_message(
            12_345,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        assert_eq!(c.sn_of(g(1)).unwrap().ticks, 12_345);
        assert_eq!(c.sn_of(g(1)).unwrap().node, 100);
    }

    #[test]
    fn late_ready_after_abort_ignored() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        let r = crate::agent::RefuseReason::NotAlive;
        c.on_message(
            3,
            Message::Refuse {
                gtxn: g(1),
                site: A,
                reason: r,
            },
        );
        let acts = c.on_message(
            4,
            Message::Ready {
                gtxn: g(1),
                site: B,
            },
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn an_empty_program_and_a_repeated_begin_start_nothing() {
        let mut c = Coordinator::new(1);
        assert!(c.begin(g(1), vec![]).is_empty());
        assert_eq!(c.in_flight(), 0);
        assert!(!c.begin(g(1), program2()).is_empty());
        assert!(c.begin(g(1), program2()).is_empty());
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn external_abort_after_failure_is_inert() {
        // CGM + crash race: a site's Failed arrives (coordinator starts
        // aborting) before the central scheduler's vote verdict triggers
        // abort_externally. The second abort must be a no-op, not a panic.
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        dml_result(&mut c, 1, A, 0);
        c.on_message(
            2,
            Message::Failed {
                gtxn: g(1),
                site: B,
            },
        );
        let acts = c.abort_externally(g(1));
        assert!(acts.is_empty());
        let acts = c.on_message(
            3,
            Message::RollbackAck {
                gtxn: g(1),
                site: A,
            },
        );
        assert!(matches!(acts[0], CoordAction::Finished { .. }));
    }

    #[test]
    fn duplicate_ready_while_committing_retransmits_commit() {
        // 2PC recovery: a site that crashed after voting re-sends READY;
        // the coordinator must retransmit its COMMIT decision.
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        c.on_message(
            3,
            Message::Ready {
                gtxn: g(1),
                site: A,
            },
        );
        c.on_message(
            4,
            Message::Ready {
                gtxn: g(1),
                site: B,
            },
        );
        let acts = c.on_message(
            5,
            Message::Ready {
                gtxn: g(1),
                site: B,
            },
        );
        assert_eq!(sent_to(&acts), vec![(B, &Message::Commit { gtxn: g(1) })]);
    }

    #[test]
    fn failed_during_execution_aborts_globally() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        dml_result(&mut c, 1, A, 0);
        let acts = c.on_message(
            2,
            Message::Failed {
                gtxn: g(1),
                site: B,
            },
        );
        assert!(matches!(acts[0], CoordAction::RecordGlobalAbort(_)));
        let msgs = sent_to(&acts);
        assert_eq!(msgs.len(), 1, "ROLLBACK to the other site only");
        assert!(matches!(msgs[0], (SiteId(0), Message::Rollback { .. })));
        let acts = c.on_message(
            3,
            Message::RollbackAck {
                gtxn: g(1),
                site: A,
            },
        );
        assert!(matches!(acts[0], CoordAction::Finished { .. }));
    }

    #[test]
    fn stale_dml_result_after_abort_ignored() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::Failed {
                gtxn: g(1),
                site: A,
            },
        );
        // The DML result that was in flight when the site failed.
        let acts = c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn duplicate_dml_result_does_not_advance_program() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        let first = c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        assert_eq!(sent_to(&first).len(), 1, "step 1 dispatched once");
        // The network re-delivers A's step-0 result: it must not re-advance
        // the program (which would send step 1 twice or prepare early).
        let dup = c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        assert!(dup.is_empty(), "duplicate result must be ignored");
        // The genuine step-1 reply still completes the program.
        let acts = c.on_message(
            3,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        assert_eq!(sent_to(&acts).len(), 2, "PREPARE to both participants");
    }

    #[test]
    fn dml_result_from_wrong_site_ignored() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        // Step 0 belongs to site A; a (corrupted/misrouted) claim from B
        // with the right step number must not advance the program.
        let acts = c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 0,
                result: result(),
            },
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn duplicate_rollback_ack_finishes_once() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        dml_result(&mut c, 1, A, 0);
        let r = crate::agent::RefuseReason::NotAlive;
        c.on_message(
            2,
            Message::Refuse {
                gtxn: g(1),
                site: A,
                reason: r,
            },
        );
        // A's own refusal is duplicated by the network; then B acks. The
        // duplicate must neither finish the txn early nor double-count.
        let dup = c.on_message(
            3,
            Message::Refuse {
                gtxn: g(1),
                site: A,
                reason: r,
            },
        );
        assert!(dup.is_empty());
        let acts = c.on_message(
            4,
            Message::RollbackAck {
                gtxn: g(1),
                site: B,
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::Finished {
                gtxn: g(1),
                outcome: GlobalOutcome::Aborted
            }]
        );
        // A late duplicate of B's ack hits a forgotten txn: ignored.
        assert!(c
            .on_message(
                5,
                Message::RollbackAck {
                    gtxn: g(1),
                    site: B
                }
            )
            .is_empty());
    }

    #[test]
    fn external_abort_rolls_back_everyone() {
        let mut c = Coordinator::new(100);
        c.begin(g(1), program2());
        c.on_message(
            1,
            Message::DmlResult {
                gtxn: g(1),
                site: A,
                step: 0,
                result: result(),
            },
        );
        c.on_message(
            2,
            Message::DmlResult {
                gtxn: g(1),
                site: B,
                step: 1,
                result: result(),
            },
        );
        // Preparing phase: an external scheduler (CGM) vetoes the commit.
        let acts = c.abort_externally(g(1));
        assert!(matches!(acts[0], CoordAction::RecordGlobalAbort(_)));
        assert_eq!(sent_to(&acts).len(), 2, "ROLLBACK to both participants");
        c.on_message(
            3,
            Message::RollbackAck {
                gtxn: g(1),
                site: A,
            },
        );
        let acts = c.on_message(
            4,
            Message::RollbackAck {
                gtxn: g(1),
                site: B,
            },
        );
        assert!(matches!(acts[0], CoordAction::Finished { .. }));
    }
}
