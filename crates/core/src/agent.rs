//! The 2PC Agent (2PCA): 2PC, the Agent log and resubmission around the
//! [`Certifier`] — together the paper's core contribution.
//!
//! One agent is co-located with each LTM (Fig. 1). It plays the Participant
//! role of 2PC on behalf of an LDBS that has no prepared state: it keeps the
//! *Agent log* of DML commands, simulates the prepared state, and when the
//! LTM unilaterally aborts a prepared local subtransaction it **resubmits**
//! the logged commands as a fresh local transaction (a new *incarnation*).
//!
//! The two places where resubmission could corrupt serializability are
//! guarded by the [`Certifier`], which owns the alive-interval table and
//! answers with verdicts only: a PREPARE is put to
//! [`Certifier::certify_prepare`] (Appendix B) and refused or accepted; a
//! COMMIT waits until the incarnation is alive and
//! [`Certifier::commit_gate`] (Appendix C) lets it through, so local commits
//! happen in serial-number order at every site and the commit-order graph
//! stays acyclic (§5.2). The alive check (Appendix A) runs on a timer while
//! prepared; a failed check triggers resubmission and a fresh alive interval
//! once the replay completes. The same tick is Appendix C's retry of a held
//! COMMIT.
//!
//! The agent is a pure state machine: [`Agent::handle`] consumes one
//! [`AgentInput`] plus the local clock reading and returns the actions the
//! host must carry out. The host owns the LTM, the network, and all timers.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::{GlobalTxnId, Instance, SiteId, Txn};
use mdbs_ldbs::{Command, CommandResult};

use crate::agent_log::{AgentLog, LogRecord};
use crate::certifier::Certifier;
use crate::config::AgentConfig;
use crate::msg::Message;
use crate::sn::SerialNumber;

/// Most terminated transaction ids an agent keeps to screen replayed
/// BEGIN / COMMIT / ROLLBACK deliveries (the cluster node's duplicate
/// screens use the same bound). Long runs hold the set at this size, the
/// way the consensus layer's `Clear` compacts acceptor state; the price is
/// that a duplicate older than every retained id would restart its
/// conversation, which needs a delivery delayed across 4 096 later
/// terminations.
pub const DONE_CAP: usize = 4096;

/// Why a PREPARE was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// §5.3 extension: the serial number is smaller than one already
    /// locally committed (the COMMIT overtook this PREPARE).
    SnOutOfOrder,
    /// §4.2 basic certification: the alive intervals do not intersect —
    /// the subtransactions may conflict.
    AliveIntervalDisjoint,
    /// The subtransaction is not alive at certification time (unilaterally
    /// aborted and not yet resubmitted).
    NotAlive,
}

/// One row of [`Agent::prepared_table`]: the externally observable state of
/// a prepared (or commit-pending) subtransaction, for invariant checkers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedEntry {
    /// The global transaction.
    pub gtxn: GlobalTxnId,
    /// Serial number certified at PREPARE time.
    pub sn: SerialNumber,
    /// The stored alive interval `(begin, end)` (§4.2).
    pub interval: (u64, u64),
    /// Whether the current incarnation is alive (not unilaterally aborted).
    pub alive: bool,
    /// Whether a COMMIT decision is already pending on it.
    pub commit_pending: bool,
}

/// Inputs to the agent state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentInput {
    /// A 2PC message from a coordinator.
    Deliver(Message),
    /// The LTM finished the in-flight command of this transaction.
    LtmDone {
        /// The global transaction whose command completed.
        gtxn: GlobalTxnId,
        /// The command's result.
        result: CommandResult,
    },
    /// Unilateral Abort Notification from the LTM.
    Uan {
        /// The aborted instance.
        instance: Instance,
    },
    /// The periodic alive-check timer fired (Appendix A; for a held
    /// COMMIT also Appendix C's retry).
    AliveTimer {
        /// The prepared transaction being checked.
        gtxn: GlobalTxnId,
    },
}

/// Actions the host must perform on the agent's behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentAction {
    /// Send a message to the coordinator node.
    Reply {
        /// Destination coordinator node id.
        coord: u32,
        /// The message.
        msg: Message,
    },
    /// Begin a transaction at the LTM.
    LtmBegin(Instance),
    /// Submit a command to the LTM for this instance.
    LtmSubmit {
        /// The executing instance.
        instance: Instance,
        /// The command.
        command: Command,
    },
    /// Locally commit the instance at the LTM.
    LtmCommit(Instance),
    /// Locally abort the instance at the LTM.
    LtmAbort(Instance),
    /// Mark items as bound data of the owner (DLU enforcement).
    Bind {
        /// The items to bind.
        keys: Vec<u64>,
        /// The owning global transaction.
        owner: Txn,
    },
    /// Release the owner's bound data.
    Unbind {
        /// The owning global transaction.
        owner: Txn,
    },
    /// Record `P^s_k` in the global history (the force-written prepare
    /// record of Appendix B).
    RecordPrepare(GlobalTxnId),
    /// Arm the alive-check timer.
    StartAliveTimer {
        /// The prepared transaction to check.
        gtxn: GlobalTxnId,
        /// Delay, in local-clock microseconds.
        after_us: u64,
    },
}

/// Counters exposed for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// PREPAREs answered READY.
    pub prepares_accepted: u64,
    /// PREPAREs refused, by reason.
    pub refused_sn_out_of_order: u64,
    /// PREPAREs refused because alive intervals were disjoint.
    pub refused_interval_disjoint: u64,
    /// PREPAREs refused because the subtransaction was not alive.
    pub refused_not_alive: u64,
    /// Resubmissions started.
    pub resubmissions: u64,
    /// Failed commit certification attempts — the incarnation not alive,
    /// or the gate closed — at the COMMIT's arrival, at a replay's
    /// completion and at the alive tick.
    pub commit_retries: u64,
    /// Held COMMITs performed because a smaller serial number left the
    /// table ([`Agent::release_held_commit`]) rather than at an attempt
    /// of their own.
    pub commit_releases: u64,
    /// Local-clock µs between a COMMIT's arrival and its local commit,
    /// summed over all local commits: what commit certification (and a
    /// resubmission it had to wait for) added to the commit path.
    pub commit_hold_us: u64,
    /// Held COMMITs forced through past the wait bound
    /// ([`crate::CertifierMode::forced_commit_after_us`]; the anomaly
    /// baselines only, so 0 under `Full`).
    pub commit_cert_overrides: u64,
    /// Local commits performed.
    pub local_commits: u64,
    /// Local aborts performed on coordinator ROLLBACK.
    pub rollbacks: u64,
}

impl AgentStats {
    /// The certification counters under their metric names — the one list
    /// every driver merges into a run's metrics (and a site crash carries
    /// over to the recovered agent).
    pub fn certification_counters(&self) -> [(&'static str, u64); 9] {
        [
            ("prepares_accepted", self.prepares_accepted),
            ("refused_sn_out_of_order", self.refused_sn_out_of_order),
            ("refused_interval_disjoint", self.refused_interval_disjoint),
            ("refused_not_alive", self.refused_not_alive),
            ("resubmissions", self.resubmissions),
            ("commit_retries", self.commit_retries),
            ("commit_releases", self.commit_releases),
            ("commit_hold_us", self.commit_hold_us),
            ("commit_cert_overrides", self.commit_cert_overrides),
        ]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Receiving and executing DML (2PC active state).
    Active,
    /// Prepared: READY sent, COMMIT/ROLLBACK pending.
    Prepared,
    /// COMMIT received but certification not yet passed.
    CommitPending,
}

#[derive(Debug)]
struct SubTxn {
    coord: u32,
    incarnation: u32,
    /// The Agent log: every DML command received, in order.
    commands: Vec<Command>,
    /// Keys touched (read or written) — the bound data at prepare.
    touched: BTreeSet<u64>,
    /// A command is currently executing at the LTM.
    executing: bool,
    /// A DmlResult is owed to the coordinator for the newest command.
    awaiting_reply: bool,
    /// Index of the next command to replay, while resubmitting.
    resubmit_next: Option<usize>,
    /// The current incarnation was unilaterally aborted (UAN received).
    aborted: bool,
    /// Local time when the last command completed — where the alive
    /// interval a PREPARE certifies begins (§4.2). Until the first command
    /// completes it is the BEGIN's arrival, and the BEGIN rides the site's
    /// first command: the interval never opens before the site was reached.
    last_op_done: u64,
    phase: Phase,
    /// Local time of the first commit attempt: the COMMIT's arrival, or
    /// after crash recovery, which does not know it, the first attempt
    /// since (`None` until then).
    commit_since: Option<u64>,
    /// Highest DML step accepted so far; duplicate deliveries of a step
    /// already executed are discarded (§2 assumes exactly-once messaging,
    /// the chaos harness deliberately violates it).
    last_dml_step: Option<u32>,
}

impl SubTxn {
    /// A subtransaction whose BEGIN (with its first command) arrives at
    /// local time `now`.
    fn new(coord: u32, now: u64) -> SubTxn {
        SubTxn {
            coord,
            incarnation: 0,
            commands: Vec::new(),
            touched: BTreeSet::new(),
            executing: false,
            awaiting_reply: false,
            resubmit_next: None,
            aborted: false,
            last_op_done: now,
            phase: Phase::Active,
            commit_since: None,
            last_dml_step: None,
        }
    }

    fn in_table(&self) -> bool {
        matches!(self.phase, Phase::Prepared | Phase::CommitPending)
    }

    /// Alive right now: all commands executed, current incarnation neither
    /// aborted nor mid-resubmission.
    fn alive(&self) -> bool {
        !self.aborted && !self.executing && self.resubmit_next.is_none()
    }
}

/// The 2PC Agent with Certifier for one site.
#[derive(Debug)]
pub struct Agent {
    site: SiteId,
    config: AgentConfig,
    subtxns: BTreeMap<GlobalTxnId, SubTxn>,
    stats: AgentStats,
    /// The alive-interval table and the three certifications over it.
    cert: Certifier,
    /// The durable Agent log (commands, prepare/commit records).
    log: AgentLog,
    /// Transactions that reached a terminal local outcome (committed,
    /// rolled back, or refused). Distinguishes "unknown because finished"
    /// from "unknown because never begun" when duplicated or reordered
    /// deliveries surface after the fact.
    done: BTreeSet<GlobalTxnId>,
    /// Failover redirects for transactions this agent never started: a
    /// NEW-COORD can precede any other message when a backup coordinator
    /// aborts a crashed coordinator's transaction whose BEGIN never
    /// reached us. The backup still needs our ROLLBACK ack to finish, so
    /// remember where to send it.
    redirects: BTreeMap<GlobalTxnId, u32>,
}

impl Agent {
    /// Create the agent for `site`.
    pub fn new(site: SiteId, config: AgentConfig) -> Agent {
        Agent {
            site,
            config,
            subtxns: BTreeMap::new(),
            stats: AgentStats::default(),
            cert: Certifier::new(config.mode, None),
            log: AgentLog::new(),
            done: BTreeSet::new(),
            redirects: BTreeMap::new(),
        }
    }

    /// The durable Agent log (what survives a site crash).
    pub fn log(&self) -> &AgentLog {
        &self.log
    }

    /// Rebuild an agent after a site crash (the paper's *collective
    /// abort*) from its durable log.
    ///
    /// Every unfinished subtransaction is restored in the aborted state —
    /// the crash rolled back all LTM work — so prepared ones resubmit via
    /// the alive check and forced commit decisions are redone; every
    /// finished one is remembered as done, so a BEGIN duplicated across the
    /// crash does not restart it. The returned actions re-bind the bound
    /// data of prepared subtransactions, re-send READY for
    /// prepared-but-uncommitted ones (a READY may have been lost between
    /// the forced prepare record and the crash; the coordinator treats
    /// duplicates idempotently), notify active-phase conversations of the
    /// failure, and arm the alive timers that drive resubmission.
    pub fn recover(site: SiteId, config: AgentConfig, log: AgentLog) -> (Agent, Vec<AgentAction>) {
        let (recovered, max_committed_sn, finished) = log.recover();
        let mut agent = Agent::new(site, config);
        agent.cert = Certifier::new(config.mode, max_committed_sn);
        agent.log = log;
        for gtxn in finished {
            agent.note_done(gtxn);
        }
        let mut prepared: Vec<(SerialNumber, GlobalTxnId)> = recovered
            .iter()
            .filter_map(|t| t.prepared.as_ref().map(|(sn, _)| (*sn, t.gtxn)))
            .collect();
        prepared.sort();
        for (sn, gtxn) in prepared {
            agent.cert.restore(gtxn, sn);
        }

        let mut actions = Vec::new();
        for txn in recovered {
            let (gtxn, coord) = (txn.gtxn, txn.coord);
            let phase = match (&txn.prepared, txn.committing) {
                (Some(_), true) => Phase::CommitPending,
                (Some(_), false) => Phase::Prepared,
                (None, _) => Phase::Active,
            };
            let keys = txn.prepared.map(|(_, touched)| touched).unwrap_or_default();
            let st = SubTxn {
                incarnation: txn.incarnation,
                commands: txn.commands,
                touched: keys.iter().copied().collect(),
                aborted: true, // the crash rolled everything back
                phase,
                ..SubTxn::new(coord, 0)
            };
            agent.subtxns.insert(gtxn, st);
            if phase == Phase::Active {
                // The in-flight conversation died with the site; tell
                // the coordinator (idempotent with a racing REFUSE).
                actions.push(AgentAction::Reply {
                    coord,
                    msg: Message::Failed { gtxn, site },
                });
                continue;
            }
            actions.push(AgentAction::Bind {
                keys,
                owner: Txn::Global(gtxn),
            });
            if phase == Phase::Prepared {
                actions.push(AgentAction::Reply {
                    coord,
                    msg: Message::Ready { gtxn, site },
                });
            }
            actions.push(AgentAction::StartAliveTimer {
                gtxn,
                after_us: config.alive_check_interval_us,
            });
        }
        (agent, actions)
    }

    /// This agent's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The agent's counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// Number of subtransactions currently in the prepared state (the
    /// alive-interval table size).
    pub fn table_len(&self) -> usize {
        let n = self.cert.len();
        debug_assert_eq!(
            n,
            self.subtxns.values().filter(|s| s.in_table()).count(),
            "certifier table out of sync with the subtransaction phases"
        );
        n
    }

    /// Current incarnation index of a subtransaction (for tests).
    pub fn incarnation_of(&self, gtxn: GlobalTxnId) -> Option<u32> {
        self.subtxns.get(&gtxn).map(|s| s.incarnation)
    }

    /// Size of the duplicate-detection done-set (terminated transaction
    /// ids retained). The kill matrix's `probe-done-bound` checker uses
    /// this to verify the [`DONE_CAP`] bound actually holds.
    pub fn done_len(&self) -> usize {
        self.done.len()
    }

    /// Whether the agent still tracks `gtxn` in any phase. `mdbs-check
    /// explore` uses this to prune inert alive timer firings
    /// (a timer for a settled transaction is a no-op and would otherwise
    /// just widen the schedule space).
    pub fn has_subtxn(&self, gtxn: GlobalTxnId) -> bool {
        self.subtxns.contains_key(&gtxn)
    }

    /// Read-only snapshot of the certifier's table ([`Certifier::snapshot`])
    /// with each entry's 2PC phase: one row per subtransaction currently in
    /// the prepared or commit-pending state. The agent never reads it back.
    pub fn prepared_table(&self) -> Vec<PreparedEntry> {
        let mut table = self.cert.snapshot();
        for e in &mut table {
            e.commit_pending = self
                .subtxns
                .get(&e.gtxn)
                .is_some_and(|st| st.phase == Phase::CommitPending);
        }
        table
    }

    fn instance(&self, gtxn: GlobalTxnId, st: &SubTxn) -> Instance {
        Instance::global(gtxn.0, self.site, st.incarnation)
    }

    /// Process one input at local time `now` (microseconds, local clock).
    pub fn handle(&mut self, now: u64, input: AgentInput) -> Vec<AgentAction> {
        match input {
            AgentInput::Deliver(msg) => self.on_message(now, msg),
            AgentInput::LtmDone { gtxn, result } => self.on_ltm_done(now, gtxn, result),
            AgentInput::Uan { instance } => self.on_uan(instance),
            AgentInput::AliveTimer { gtxn } => self.on_alive_timer(now, gtxn),
        }
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_message(&mut self, now: u64, msg: Message) -> Vec<AgentAction> {
        match msg {
            Message::Begin { gtxn, coord } => self
                .open(now, gtxn, coord)
                .map(AgentAction::LtmBegin)
                .into_iter()
                .collect(),
            Message::BeginDml {
                gtxn,
                coord,
                step,
                command,
            } => {
                // The BEGIN riding the site's first command: open the
                // subtransaction, then execute the command. A re-delivery
                // opens nothing and its step is a duplicate; one arriving
                // after the transaction finished here finds it done.
                let mut actions: Vec<AgentAction> = self
                    .open(now, gtxn, coord)
                    .map(AgentAction::LtmBegin)
                    .into_iter()
                    .collect();
                actions.extend(self.on_dml(gtxn, step, command));
                actions
            }
            Message::Dml {
                gtxn,
                step,
                command,
            } => self.on_dml(gtxn, step, command),
            Message::Prepare { gtxn, sn } => self.on_prepare(now, gtxn, sn),
            Message::Commit { gtxn } => {
                if let Some(st) = self.subtxns.get_mut(&gtxn) {
                    if !st.in_table() {
                        // COMMIT overtook the PREPARE (injected same-link
                        // reordering; impossible under §2 FIFO). Ignore:
                        // when the PREPARE arrives we vote READY, and the
                        // coordinator answers a duplicate READY in its
                        // committing phase by retransmitting COMMIT.
                        return vec![];
                    }
                    st.phase = Phase::CommitPending;
                    self.try_commit(now, gtxn)
                } else if let Some(coord) = self.redirects.remove(&gtxn) {
                    // Failover re-decision for a transaction we already
                    // committed (the original coordinator died holding our
                    // ack): re-ack so the backup can finish it.
                    vec![AgentAction::Reply {
                        coord,
                        msg: Message::CommitAck {
                            gtxn,
                            site: self.site,
                        },
                    }]
                } else {
                    // Refused earlier and forgotten; the coordinator's
                    // decision crossed our REFUSE. Nothing to commit.
                    vec![]
                }
            }
            Message::Rollback { gtxn } => self.on_rollback(gtxn),
            Message::NewCoord { gtxn, coord } => {
                // Paxos Commit failover: the decision for this transaction
                // will come from a backup coordinator; redirect the ack.
                // Unknown transaction means either its BEGIN never arrived
                // (the crashed coordinator had not reached this site, or
                // its first command is still in flight) or we already
                // settled it and the original coordinator died holding our
                // ack — either way the backup re-decides and waits on our
                // ack, so remember where it belongs.
                // mdbs-check: allow(hot-repeated-lookup, "the two subtxn lookups sit in mutually exclusive match arms of on_message; exactly one runs per delivered message")
                if let Some(st) = self.subtxns.get_mut(&gtxn) {
                    st.coord = coord;
                } else {
                    self.redirects.insert(gtxn, coord);
                }
                vec![]
            }
            Message::DmlResult { .. }
            | Message::Failed { .. }
            | Message::Ready { .. }
            | Message::Refuse { .. }
            | Message::CommitAck { .. }
            | Message::RollbackAck { .. } => {
                debug_assert!(false, "agent received upstream message {msg:?}");
                vec![]
            }
        }
    }

    /// The BEGIN of §2: open a global subtransaction at local time `now`
    /// and return the LTM instance to begin, or `None` if `gtxn` is already
    /// open here or finished (a re-delivered or late BEGIN: starting a
    /// second incarnation would leak locks forever). A backup coordinator's
    /// NEW-COORD that arrived first names where the replies go.
    fn open(&mut self, now: u64, gtxn: GlobalTxnId, coord: u32) -> Option<Instance> {
        if self.subtxns.contains_key(&gtxn) || self.done.contains(&gtxn) {
            return None;
        }
        let coord = self.redirects.remove(&gtxn).unwrap_or(coord);
        let st = SubTxn::new(coord, now);
        let inst = self.instance(gtxn, &st);
        self.subtxns.insert(gtxn, st);
        self.log.append(LogRecord::Begin { gtxn, coord });
        Some(inst)
    }

    /// One DML command of an open subtransaction.
    fn on_dml(&mut self, gtxn: GlobalTxnId, step: u32, command: Command) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            // Unknown transaction: either it already finished here
            // (late duplicate) or the DML overtook its BEGIN under
            // injected reordering. Exactly-once FIFO delivery (§2)
            // makes this unreachable; without it, ignoring is the
            // only safe answer — the coordinator never gets the
            // DmlResult and the run resolves via timeout/abort.
            return vec![];
        };
        if !matches!(st.phase, Phase::Active)
            || st.executing
            || st.last_dml_step.is_some_and(|last| step <= last)
        {
            // Re-delivered DML for a step already accepted (or one
            // arriving after PREPARE): executing it twice would
            // double-apply updates inside one incarnation. Ignore.
            return vec![];
        }
        st.last_dml_step = Some(step);
        if st.aborted {
            // Unilaterally aborted between commands: fail the
            // conversation (no active-state resubmission, §2).
            let coord = st.coord;
            return vec![AgentAction::Reply {
                coord,
                msg: Message::Failed {
                    gtxn,
                    site: self.site,
                },
            }];
        }
        st.commands.push(command);
        st.executing = true;
        st.awaiting_reply = true;
        let inst = Instance::global(gtxn.0, self.site, st.incarnation);
        self.log.append(LogRecord::Command { gtxn, command });
        vec![AgentAction::LtmSubmit {
            instance: inst,
            command,
        }]
    }

    /// Appendix B: certify the PREPARE, then refuse or enter the prepared
    /// state.
    fn on_prepare(&mut self, now: u64, gtxn: GlobalTxnId, sn: SerialNumber) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            // Reachable race: a held/delayed PREPARE crossing a ROLLBACK we
            // already processed (the coordinator is aborting and has our
            // RollbackAck; nothing to answer).
            return vec![];
        };
        if !matches!(st.phase, Phase::Active) {
            // Duplicate PREPARE for an already-prepared (or commit-pending)
            // subtransaction: the READY we sent the first time answers it.
            return vec![];
        }
        // st.executing may be true here: an active-phase unilateral abort
        // can leave a resubmission replay in flight when the PREPARE
        // arrives. The alive check refuses in that case.
        let coord = st.coord;
        let verdict = self
            .cert
            .certify_prepare(now, gtxn, sn, st.last_op_done, st.alive());
        if let Err(reason) = verdict {
            return self.refuse(gtxn, coord, reason);
        }

        // Certification passed: move to the prepared state.
        st.phase = Phase::Prepared;
        let keys: Vec<u64> = st.touched.iter().copied().collect();
        self.stats.prepares_accepted += 1;
        self.log.append(LogRecord::Prepare {
            gtxn,
            sn,
            touched: keys.clone(),
        });
        vec![
            AgentAction::RecordPrepare(gtxn),
            AgentAction::Bind {
                keys,
                owner: Txn::Global(gtxn),
            },
            AgentAction::Reply {
                coord,
                msg: Message::Ready {
                    gtxn,
                    site: self.site,
                },
            },
            AgentAction::StartAliveTimer {
                gtxn,
                after_us: self.config.alive_check_interval_us,
            },
        ]
    }

    /// Record a terminal outcome in the duplicate-detection done-set,
    /// keeping at most [`DONE_CAP`] ids. Eviction is oldest-id-first:
    /// transaction ids are issued in arrival order, so `pop_first` discards
    /// the ids least likely to be replayed.
    fn note_done(&mut self, gtxn: GlobalTxnId) {
        self.done.insert(gtxn);
        if self.done.len() > DONE_CAP {
            self.done.pop_first();
        }
    }

    /// Refuse a PREPARE: abort the local subtransaction (if it still runs),
    /// forget the transaction, answer REFUSE.
    fn refuse(&mut self, gtxn: GlobalTxnId, coord: u32, reason: RefuseReason) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.remove(&gtxn) else {
            return vec![]; // unreachable: callers only refuse table entries
        };
        match reason {
            RefuseReason::SnOutOfOrder => self.stats.refused_sn_out_of_order += 1,
            RefuseReason::AliveIntervalDisjoint => self.stats.refused_interval_disjoint += 1,
            RefuseReason::NotAlive => self.stats.refused_not_alive += 1,
        }
        self.note_done(gtxn);
        self.log.append(LogRecord::Rollback { gtxn });
        let mut actions = Vec::new();
        if !st.aborted {
            actions.push(AgentAction::LtmAbort(Instance::global(
                gtxn.0,
                self.site,
                st.incarnation,
            )));
        }
        actions.push(AgentAction::Reply {
            coord,
            msg: Message::Refuse {
                gtxn,
                site: self.site,
                reason,
            },
        });
        actions
    }

    fn on_ltm_done(
        &mut self,
        now: u64,
        gtxn: GlobalTxnId,
        result: CommandResult,
    ) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            // Completed after we already refused/rolled back; ignore.
            return vec![];
        };
        st.executing = false;
        st.last_op_done = now;
        st.touched.extend(result.touched_keys());

        if let Some(next) = st.resubmit_next {
            // Replaying the Agent log.
            if let Some(&command) = st.commands.get(next) {
                st.resubmit_next = Some(next + 1);
                st.executing = true;
                let inst = Instance::global(gtxn.0, self.site, st.incarnation);
                return vec![AgentAction::LtmSubmit {
                    instance: inst,
                    command,
                }];
            }
            // Resubmission complete: fresh alive interval (Appendix A).
            st.resubmit_next = None;
            self.cert.revive(gtxn, Some(now));
            if st.phase == Phase::CommitPending {
                return self.try_commit(now, gtxn);
            }
            return vec![];
        }

        // Ordinary active-phase completion: report to the coordinator.
        st.awaiting_reply = false;
        let coord = st.coord;
        let step = st.last_dml_step.unwrap_or(0);
        vec![AgentAction::Reply {
            coord,
            msg: Message::DmlResult {
                gtxn,
                site: self.site,
                step,
                result,
            },
        }]
    }

    fn on_uan(&mut self, instance: Instance) -> Vec<AgentAction> {
        let Txn::Global(gtxn) = instance.txn else {
            return vec![]; // local transactions are none of our business
        };
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            return vec![];
        };
        if st.incarnation != instance.incarnation {
            return vec![]; // stale notification for an old incarnation
        }
        self.cert.freeze(gtxn);
        st.aborted = true;
        st.executing = false;
        // If the abort struck a resubmission replay, that replay is dead at
        // the LTM; clear the cursor so the next alive check (or the pending
        // commit certification) starts a fresh incarnation.
        st.resubmit_next = None;
        if st.phase == Phase::Active && st.awaiting_reply {
            // Active-state unilateral abort (e.g. a local deadlock victim)
            // with a DML conversation pending: resubmission applies only to
            // the *prepared* state (§2), so report the failure and let the
            // coordinator abort the global transaction.
            st.awaiting_reply = false;
            let coord = st.coord;
            return vec![AgentAction::Reply {
                coord,
                msg: Message::Failed {
                    gtxn,
                    site: self.site,
                },
            }];
        }
        vec![]
    }

    /// Appendix A: the alive check, which for a held COMMIT is also
    /// Appendix C's retry "at a later time". Re-armed while the entry stays
    /// in the table.
    fn on_alive_timer(&mut self, now: u64, gtxn: GlobalTxnId) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            return vec![]; // committed or rolled back meanwhile
        };
        if !st.in_table() {
            return vec![];
        }
        let held = st.phase == Phase::CommitPending;
        let mut actions = Vec::new();
        if st.resubmit_next.is_some() {
            // Replay still running; check again later.
        } else if !st.aborted {
            // Alive: extend the stored interval.
            self.cert.extend(gtxn, now);
        } else {
            // Unilaterally aborted: resubmit commands from the Agent log.
            actions.extend(self.start_resubmission(gtxn));
        }
        if held {
            actions.extend(self.try_commit(now, gtxn));
        }
        if self.subtxns.contains_key(&gtxn) {
            actions.push(AgentAction::StartAliveTimer {
                gtxn,
                after_us: self.config.alive_check_interval_us,
            });
        }
        actions
    }

    fn start_resubmission(&mut self, gtxn: GlobalTxnId) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            return vec![]; // unreachable: callers hold a table entry
        };
        self.log.append(LogRecord::Resubmit { gtxn });
        debug_assert!(st.aborted && st.resubmit_next.is_none());
        st.incarnation += 1;
        st.aborted = false;
        self.stats.resubmissions += 1;
        let inst = Instance::global(gtxn.0, self.site, st.incarnation);
        let mut actions = vec![AgentAction::LtmBegin(inst)];
        if let Some(&command) = st.commands.first() {
            st.resubmit_next = Some(1);
            st.executing = true;
            actions.push(AgentAction::LtmSubmit {
                instance: inst,
                command,
            });
        } else {
            // Nothing to replay: instantly alive again. The interval restart
            // happens on the next alive check / prepare refresh.
            self.cert.revive(gtxn, None);
        }
        actions
    }

    /// Appendix C: alive? → commit certification → local commit. A COMMIT
    /// that fails either test stays held until the event it waits for —
    /// its replay completing, or a smaller serial number leaving the table
    /// ([`Agent::release_held_commit`]) — or the next alive tick.
    fn try_commit(&mut self, now: u64, gtxn: GlobalTxnId) -> Vec<AgentAction> {
        let Some(st) = self.subtxns.get_mut(&gtxn) else {
            return vec![]; // unreachable: callers hold a table entry
        };
        debug_assert_eq!(st.phase, Phase::CommitPending);
        let since = *st.commit_since.get_or_insert(now);

        // The incarnation must be alive to be committed; if it was aborted,
        // resubmit first.
        if st.aborted || st.resubmit_next.is_some() {
            self.stats.commit_retries += 1;
            if st.aborted {
                return self.start_resubmission(gtxn);
            }
            return vec![];
        }

        if !self.cert.commit_gate(gtxn) {
            self.stats.commit_retries += 1;
            let bound = self.config.mode.forced_commit_after_us();
            if bound.is_none_or(|bound| now.saturating_sub(since) < bound) {
                return vec![];
            }
            // A comparator's wait bound ran out: commit out of order.
            self.stats.commit_cert_overrides += 1;
        }

        // Commit certification OK: force the commit record, commit
        // locally, ack, leave the table (Appendix C's ordering).
        let Some(st) = self.subtxns.remove(&gtxn) else {
            return vec![]; // unreachable: presence checked above
        };
        self.cert.leave(gtxn, true);
        self.note_done(gtxn);
        self.stats.local_commits += 1;
        self.stats.commit_hold_us += now.saturating_sub(since);
        self.log.append(LogRecord::Commit { gtxn });
        self.log.append(LogRecord::Done { gtxn });
        vec![
            AgentAction::LtmCommit(Instance::global(gtxn.0, self.site, st.incarnation)),
            AgentAction::Unbind {
                owner: Txn::Global(gtxn),
            },
            AgentAction::Reply {
                coord: st.coord,
                msg: Message::CommitAck {
                    gtxn,
                    site: self.site,
                },
            },
        ]
    }

    /// Event-driven commit certification: put the oldest table entry
    /// ([`Certifier::oldest`]) through [`Agent::try_commit`] if a COMMIT is
    /// pending on it and its incarnation is alive (an aborted or replaying
    /// head is committed by its own replay completion, not here). Such an
    /// entry exists only because the smaller serial number that held it has
    /// just left the table — otherwise its own COMMIT or `LtmDone` step
    /// would have committed it, serial numbers being unique. At most one
    /// local commit per call: the host applies the returned actions in full
    /// and calls again, so an `LtmDone` surfacing while an `LtmCommit` is
    /// applied always meets a table that still holds every smaller serial
    /// number not yet committed at the LTM. The alive timer of the
    /// released entry finds it gone and is not re-armed.
    ///
    /// Only the serial-number rule has a single oldest entry to release;
    /// a COMMIT held by the §5.3 strawman's prepare order waits for the
    /// alive tick.
    pub fn release_held_commit(&mut self, now: u64) -> Vec<AgentAction> {
        let held = self.cert.oldest().filter(|gtxn| {
            self.subtxns
                .get(gtxn)
                .is_some_and(|st| st.phase == Phase::CommitPending && st.alive())
        });
        let Some(gtxn) = held else {
            return vec![];
        };
        let actions = self.try_commit(now, gtxn);
        // Empty only if the gate held the oldest entry, which nothing does
        // while serial numbers are unique: a broken comparator (the kill
        // matrix's `commit-edge-flip`). The entry's alive tick still has it.
        if !actions.is_empty() {
            self.stats.commit_releases += 1;
        }
        actions
    }

    fn on_rollback(&mut self, gtxn: GlobalTxnId) -> Vec<AgentAction> {
        self.log.append(LogRecord::Rollback { gtxn });
        // Terminal either way: a BEGIN surfacing after this point (injected
        // reordering) must not start a fresh conversation.
        self.note_done(gtxn);
        let Some(st) = self.subtxns.get(&gtxn) else {
            // Two ways to get here. A ROLLBACK crossing our REFUSE needs
            // no reply (the coordinator counts the refusal as settled).
            // But a failover ROLLBACK for a transaction whose BEGIN never
            // arrived must be acked, or the backup waits forever — the
            // preceding NEW-COORD left the return address.
            if let Some(coord) = self.redirects.remove(&gtxn) {
                self.stats.rollbacks += 1;
                return vec![AgentAction::Reply {
                    coord,
                    msg: Message::RollbackAck {
                        gtxn,
                        site: self.site,
                    },
                }];
            }
            return vec![];
        };
        let (coord, aborted, incarnation) = (st.coord, st.aborted, st.incarnation);
        self.subtxns.remove(&gtxn);
        self.cert.leave(gtxn, false);
        let mut actions = Vec::new();
        if !aborted {
            actions.push(AgentAction::LtmAbort(Instance::global(
                gtxn.0,
                self.site,
                incarnation,
            )));
        }
        actions.push(AgentAction::Unbind {
            owner: Txn::Global(gtxn),
        });
        self.stats.rollbacks += 1;
        actions.push(AgentAction::Reply {
            coord,
            msg: Message::RollbackAck {
                gtxn,
                site: self.site,
            },
        });
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CertifierMode;
    use mdbs_ldbs::KeySpec;

    const SITE: SiteId = SiteId(0);
    const COORD: u32 = 100;

    fn sn(t: u64) -> SerialNumber {
        SerialNumber {
            ticks: t,
            node: COORD,
            seq: 0,
        }
    }

    fn agent() -> Agent {
        Agent::new(SITE, AgentConfig::default())
    }

    fn g(k: u32) -> GlobalTxnId {
        GlobalTxnId(k)
    }

    fn cmd() -> Command {
        Command::Update(KeySpec::Key(0), 1)
    }

    fn result(keys: &[u64]) -> CommandResult {
        CommandResult {
            rows: keys.iter().map(|&k| (k, 0)).collect(),
            wrote: keys.to_vec(),
        }
    }

    /// Drive a transaction to the prepared state.
    fn prepare_one(a: &mut Agent, k: u32, t0: u64, sn_ticks: u64) -> Vec<AgentAction> {
        a.handle(
            t0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(k),
                coord: COORD,
            }),
        );
        a.handle(
            t0 + 1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(k),
                step: 0,
                command: cmd(),
            }),
        );
        a.handle(
            t0 + 2,
            AgentInput::LtmDone {
                gtxn: g(k),
                result: result(&[k as u64]),
            },
        );
        a.handle(
            t0 + 3,
            AgentInput::Deliver(Message::Prepare {
                gtxn: g(k),
                sn: sn(sn_ticks),
            }),
        )
    }

    fn has_ready(actions: &[AgentAction]) -> bool {
        actions.iter().any(|a| {
            matches!(
                a,
                AgentAction::Reply {
                    msg: Message::Ready { .. },
                    ..
                }
            )
        })
    }

    fn refuse_reason(actions: &[AgentAction]) -> Option<RefuseReason> {
        actions.iter().find_map(|a| match a {
            AgentAction::Reply {
                msg: Message::Refuse { reason, .. },
                ..
            } => Some(*reason),
            _ => None,
        })
    }

    #[test]
    fn happy_path_to_commit() {
        let mut a = agent();
        let acts = prepare_one(&mut a, 1, 0, 10);
        assert!(has_ready(&acts), "{acts:?}");
        assert!(acts
            .iter()
            .any(|x| matches!(x, AgentAction::RecordPrepare(_))));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::Bind { .. })));
        assert_eq!(a.table_len(), 1);

        let acts = a.handle(10, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
        assert!(acts.iter().any(|x| matches!(
            x,
            AgentAction::Reply {
                msg: Message::CommitAck { .. },
                ..
            }
        )));
        assert_eq!(a.table_len(), 0);
        assert_eq!(a.stats().local_commits, 1);
    }

    #[test]
    fn begin_and_dml_route_to_ltm() {
        let mut a = agent();
        let acts = a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], AgentAction::LtmBegin(_)));
        let acts = a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        assert!(matches!(acts[0], AgentAction::LtmSubmit { .. }));
        // Completion reports back to the coordinator.
        let acts = a.handle(
            2,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        assert!(matches!(
            acts[0],
            AgentAction::Reply {
                coord: COORD,
                msg: Message::DmlResult { .. }
            }
        ));
    }

    fn begin_dml(k: u32, step: u32) -> AgentInput {
        AgentInput::Deliver(Message::BeginDml {
            gtxn: g(k),
            coord: COORD,
            step,
            command: cmd(),
        })
    }

    #[test]
    fn begin_dml_opens_the_subtransaction_at_its_arrival() {
        let mut a = agent();
        let acts = a.handle(40, begin_dml(1, 0));
        let inst = Instance::global(1, SITE, 0);
        assert_eq!(
            acts,
            vec![
                AgentAction::LtmBegin(inst),
                AgentAction::LtmSubmit {
                    instance: inst,
                    command: cmd(),
                },
            ]
        );
        // The alive interval cannot open before the BEGIN arrived, and the
        // BEGIN arrived with the first command.
        assert_eq!(a.subtxns[&g(1)].last_op_done, 40);
        assert_eq!(
            a.log().records(),
            &[
                LogRecord::Begin {
                    gtxn: g(1),
                    coord: COORD,
                },
                LogRecord::Command {
                    gtxn: g(1),
                    command: cmd(),
                },
            ]
        );
    }

    #[test]
    fn a_redelivered_or_late_begin_dml_does_nothing() {
        let mut a = agent();
        a.handle(0, begin_dml(1, 0));
        // Re-delivered while the command runs, and after it completed:
        // the step is a duplicate either way.
        assert!(a.handle(1, begin_dml(1, 0)).is_empty());
        a.handle(
            2,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        assert!(a.handle(3, begin_dml(1, 0)).is_empty());
        assert_eq!(a.incarnation_of(g(1)), Some(0));
        // After the transaction finished here it is in the done set.
        a.handle(4, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        assert!(a.handle(5, begin_dml(1, 0)).is_empty());
        assert!(!a.has_subtxn(g(1)));
        // The same for a backup's ROLLBACK that reached a site the dead
        // coordinator never opened.
        a.handle(
            6,
            AgentInput::Deliver(Message::NewCoord {
                gtxn: g(2),
                coord: 7,
            }),
        );
        let acts = a.handle(7, AgentInput::Deliver(Message::Rollback { gtxn: g(2) }));
        assert!(matches!(
            acts[..],
            [AgentAction::Reply {
                coord: 7,
                msg: Message::RollbackAck { .. }
            }]
        ));
        assert!(a.handle(8, begin_dml(2, 0)).is_empty());
        assert!(!a.has_subtxn(g(2)));
    }

    #[test]
    fn a_begin_dml_after_a_new_coord_replies_to_the_backup() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::NewCoord {
                gtxn: g(1),
                coord: 7,
            }),
        );
        a.handle(1, begin_dml(1, 0));
        let acts = a.handle(2, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        assert!(acts.iter().any(|x| matches!(
            x,
            AgentAction::Reply {
                coord: 7,
                msg: Message::RollbackAck { .. }
            }
        )));
    }

    #[test]
    fn an_explicit_begin_then_dml_admits_and_commits_like_begin_dml() {
        // The folded message and the paper's two (what the harnesses
        // that drive one agent by hand send) take the same path.
        let run = |folded: bool| {
            let mut a = agent();
            let mut acts = if folded {
                a.handle(0, begin_dml(1, 0))
            } else {
                let mut acts = a.handle(
                    0,
                    AgentInput::Deliver(Message::Begin {
                        gtxn: g(1),
                        coord: COORD,
                    }),
                );
                acts.extend(a.handle(
                    0,
                    AgentInput::Deliver(Message::Dml {
                        gtxn: g(1),
                        step: 0,
                        command: cmd(),
                    }),
                ));
                acts
            };
            for (now, input) in [
                (
                    2,
                    AgentInput::LtmDone {
                        gtxn: g(1),
                        result: result(&[1]),
                    },
                ),
                (
                    3,
                    AgentInput::Deliver(Message::Prepare {
                        gtxn: g(1),
                        sn: sn(10),
                    }),
                ),
                (10, AgentInput::Deliver(Message::Commit { gtxn: g(1) })),
            ] {
                acts.extend(a.handle(now, input));
            }
            assert_eq!(a.stats().local_commits, 1);
            (acts, a.log().records().to_vec())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn two_simultaneously_alive_txns_both_prepare() {
        // Both executed recently and are alive: intervals intersect.
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        assert!(has_ready(&prepare_one(&mut a, 2, 5, 20)));
        assert_eq!(a.table_len(), 2);
    }

    #[test]
    fn prepare_refused_when_interval_disjoint() {
        // T1 prepares, then is unilaterally aborted (interval freezes).
        // T2 executes afterwards: intervals cannot intersect -> REFUSE.
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        a.handle(
            100,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        let acts = prepare_one(&mut a, 2, 200, 20);
        assert_eq!(
            refuse_reason(&acts),
            Some(RefuseReason::AliveIntervalDisjoint)
        );
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))));
        assert_eq!(a.stats().refused_interval_disjoint, 1);
    }

    #[test]
    fn prepare_accepted_after_resubmission_completes() {
        // T1 aborted, then resubmitted to completion: T2 alive at the same
        // time as the fresh incarnation -> READY.
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        a.handle(
            100,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        // Alive timer notices and resubmits.
        let acts = a.handle(10_000, AgentInput::AliveTimer { gtxn: g(1) });
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmBegin(_))));
        assert_eq!(a.incarnation_of(g(1)), Some(1));
        // Replay completes.
        a.handle(
            10_050,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[1]),
            },
        );
        let acts = prepare_one(&mut a, 2, 10_100, 20);
        assert!(has_ready(&acts), "{acts:?}");
    }

    #[test]
    fn prepare_refused_when_not_alive() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        a.handle(
            2,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        // Aborted before the PREPARE arrives. No DML is pending, so the
        // agent stays silent (no Failed, no resubmission — active-state
        // resubmission is not part of the protocol)...
        let acts = a.handle(
            3,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        assert!(acts.is_empty(), "{acts:?}");
        // ...and the PREPARE is refused as not alive; the LTM already
        // rolled the instance back, so no LtmAbort is issued.
        let acts = a.handle(
            4,
            AgentInput::Deliver(Message::Prepare {
                gtxn: g(1),
                sn: sn(5),
            }),
        );
        assert_eq!(refuse_reason(&acts), Some(RefuseReason::NotAlive));
        assert!(!acts.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))));
    }

    #[test]
    fn active_phase_abort_mid_command_fails_conversation() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        // The LTM kills the transaction while the command is in flight.
        let acts = a.handle(
            2,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        assert!(
            acts.iter().any(|x| matches!(
                x,
                AgentAction::Reply {
                    msg: Message::Failed { .. },
                    ..
                }
            )),
            "{acts:?}"
        );
        // The coordinator reacts with ROLLBACK; the agent acknowledges.
        let acts = a.handle(3, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        assert!(acts.iter().any(|x| matches!(
            x,
            AgentAction::Reply {
                msg: Message::RollbackAck { .. },
                ..
            }
        )));
        assert!(!acts.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))));
    }

    #[test]
    fn dml_after_idle_abort_fails_conversation() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        a.handle(
            2,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        // Abort strikes between commands: silent until the next DML.
        let acts = a.handle(
            3,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        assert!(acts.is_empty());
        let acts = a.handle(
            4,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 1,
                command: cmd(),
            }),
        );
        assert!(acts.iter().any(|x| matches!(
            x,
            AgentAction::Reply {
                msg: Message::Failed { .. },
                ..
            }
        )));
    }

    #[test]
    fn extension_refuses_sn_below_committed() {
        // Commit T1 with sn=50; a PREPARE with sn=40 must be refused
        // (§5.3: its COMMIT elsewhere may already have happened).
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 50)));
        a.handle(10, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        let acts = prepare_one(&mut a, 2, 20, 40);
        assert_eq!(refuse_reason(&acts), Some(RefuseReason::SnOutOfOrder));
        assert_eq!(a.stats().refused_sn_out_of_order, 1);
    }

    /// One host step, as `SiteRuntime::agent_input` runs it: the input's
    /// actions, then every held COMMIT the step released, one per call.
    fn step(a: &mut Agent, now: u64, input: AgentInput) -> Vec<AgentAction> {
        let mut all = Vec::new();
        let mut acts = a.handle(now, input);
        loop {
            all.append(&mut acts);
            acts = a.release_held_commit(now);
            if acts.is_empty() {
                return all;
            }
            let commits = ltm_commits(&acts).len();
            assert_eq!(commits, 1, "one local commit per release: {acts:?}");
        }
    }

    /// The transactions locally committed by `actions`, in action order.
    fn ltm_commits(actions: &[AgentAction]) -> Vec<u32> {
        actions
            .iter()
            .filter_map(|x| match x {
                AgentAction::LtmCommit(i) => match i.txn {
                    Txn::Global(gtxn) => Some(gtxn.0),
                    Txn::Local(_) => None,
                },
                _ => None,
            })
            .collect()
    }

    fn commit(k: u32) -> AgentInput {
        AgentInput::Deliver(Message::Commit { gtxn: g(k) })
    }

    fn alive(k: u32) -> AgentInput {
        AgentInput::AliveTimer { gtxn: g(k) }
    }

    #[test]
    fn commit_certification_waits_for_smaller_sn() {
        // T1 (sn=10) and T2 (sn=20) both prepared; T2's COMMIT arrives
        // first: it must wait for T1.
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        assert!(has_ready(&prepare_one(&mut a, 2, 5, 20)));
        // Held: nothing to do until an event or T2's alive tick.
        assert_eq!(step(&mut a, 30, commit(2)), vec![]);
        // T1's COMMIT releases T2 in the same host step, smaller SN first;
        // the message handler itself commits T1 only.
        let acts = step(&mut a, 40, commit(1));
        assert_eq!(ltm_commits(&acts), vec![1, 2]);
        assert_eq!(a.table_len(), 0);
        // T2's alive timer, still armed, finds nothing to do.
        assert_eq!(
            step(&mut a, 50, AgentInput::AliveTimer { gtxn: g(2) }),
            vec![]
        );
        assert_eq!(a.stats().commit_retries, 1);
        assert_eq!(a.stats().commit_releases, 1);
        assert_eq!(a.stats().local_commits, 2);
        // T2 was held from its COMMIT at 30 to T1's at 40, T1 not at all.
        assert_eq!(a.stats().commit_hold_us, 10);
    }

    #[test]
    fn release_cascades_in_sn_order_one_commit_per_step() {
        let mut a = agent();
        for (k, sn) in [(1, 10), (2, 20), (3, 30)] {
            assert!(has_ready(&prepare_one(&mut a, k, 0, sn)));
        }
        assert_eq!(ltm_commits(&step(&mut a, 40, commit(3))), Vec::<u32>::new());
        assert_eq!(ltm_commits(&step(&mut a, 41, commit(2))), Vec::<u32>::new());
        // The blocker's handler commits the blocker alone; each release
        // call then hands out exactly the next serial number.
        assert_eq!(ltm_commits(&a.handle(42, commit(1))), vec![1]);
        assert_eq!(ltm_commits(&a.release_held_commit(42)), vec![2]);
        assert_eq!(ltm_commits(&a.release_held_commit(42)), vec![3]);
        assert_eq!(a.release_held_commit(42), vec![]);
        assert_eq!(a.stats().commit_releases, 2);
        assert_eq!(a.stats().commit_retries, 2);
    }

    #[test]
    fn a_refused_release_hands_the_host_nothing() {
        // Equal serial numbers (no coordinator issues them) block each
        // other: the oldest entry is refused. The release answers nothing,
        // and the entry's alive tick keeps retrying it.
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 0, 10);
        assert_eq!(a.table_len(), 2);
        assert_eq!(a.handle(20, commit(1)), vec![]);
        assert_eq!(a.release_held_commit(20), vec![]);
        assert_eq!(a.stats().commit_releases, 0);
        assert_eq!(a.table_len(), 2);
    }

    #[test]
    fn rollback_of_the_blocker_releases_the_held_commit() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 5, 20);
        assert_eq!(ltm_commits(&step(&mut a, 30, commit(2))), Vec::<u32>::new());
        let acts = step(
            &mut a,
            40,
            AgentInput::Deliver(Message::Rollback { gtxn: g(1) }),
        );
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))));
        assert_eq!(ltm_commits(&acts), vec![2]);
        assert_eq!(a.stats().commit_releases, 1);
    }

    #[test]
    fn aborted_head_is_not_released_until_its_replay_completes() {
        // T1 < T2 < T3, COMMITs pending on T2 and T3; T2's incarnation is
        // unilaterally aborted while it waits behind T1.
        let mut a = agent();
        for (k, sn) in [(1, 10), (2, 20), (3, 30)] {
            prepare_one(&mut a, k, 0, sn);
        }
        step(&mut a, 40, commit(2));
        step(&mut a, 41, commit(3));
        step(
            &mut a,
            42,
            AgentInput::Uan {
                instance: Instance::global(2, SITE, 0),
            },
        );
        // T1 leaves: the new head T2 is not alive, so nothing is released
        // — not T2, and not T3 behind it.
        assert_eq!(ltm_commits(&step(&mut a, 50, commit(1))), vec![1]);
        assert_eq!(a.table_len(), 2);
        // Only T2's own alive tick starts the resubmission …
        let acts = step(&mut a, 60, AgentInput::AliveTimer { gtxn: g(2) });
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmBegin(_))));
        assert_eq!(ltm_commits(&acts), Vec::<u32>::new());
        // … a table event in the middle of the replay changes nothing …
        assert_eq!(a.release_held_commit(65), vec![]);
        // … and the replay's completion commits T2, which releases T3.
        let acts = step(
            &mut a,
            70,
            AgentInput::LtmDone {
                gtxn: g(2),
                result: result(&[2]),
            },
        );
        assert_eq!(ltm_commits(&acts), vec![2, 3]);
        assert_eq!(a.stats().commit_releases, 1);
    }

    #[test]
    fn a_merely_prepared_head_keeps_everything_behind_it_held() {
        let mut a = agent();
        for (k, sn) in [(1, 10), (2, 20), (3, 30)] {
            prepare_one(&mut a, k, 0, sn);
        }
        step(&mut a, 40, commit(3));
        // T1 commits; T2 (now the head) has no COMMIT yet, so T3 stays.
        assert_eq!(ltm_commits(&step(&mut a, 41, commit(1))), vec![1]);
        assert_eq!(ltm_commits(&step(&mut a, 42, commit(2))), vec![2, 3]);
    }

    #[test]
    fn comparator_modes_are_never_released_by_a_table_event() {
        // PrepareOrder holds by local prepare order: the hold ends at the
        // alive tick.
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::PrepareOrder,
                ..AgentConfig::default()
            },
        );
        prepare_one(&mut a, 1, 0, 99);
        prepare_one(&mut a, 2, 5, 1);
        assert_eq!(ltm_commits(&step(&mut a, 30, commit(2))), Vec::<u32>::new());
        assert_eq!(ltm_commits(&step(&mut a, 40, commit(1))), vec![1]);
        let acts = step(&mut a, 50, AgentInput::AliveTimer { gtxn: g(2) });
        assert_eq!(ltm_commits(&acts), vec![2]);
        assert_eq!(a.stats().commit_releases, 0);

        // NoCertification never holds a COMMIT in the first place.
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::NoCertification,
                ..AgentConfig::default()
            },
        );
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 5, 20);
        assert_eq!(ltm_commits(&step(&mut a, 30, commit(2))), vec![2]);
        assert_eq!(ltm_commits(&step(&mut a, 40, commit(1))), vec![1]);
        assert_eq!(a.stats().commit_releases, 0);
        assert_eq!(a.stats().commit_retries, 0);
    }

    fn rearms(actions: &[AgentAction]) -> bool {
        actions
            .iter()
            .any(|x| matches!(x, AgentAction::StartAliveTimer { .. }))
    }

    #[test]
    fn the_alive_tick_retries_a_held_commit_until_it_commits() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 5, 20);
        assert_eq!(a.handle(30, commit(2)), vec![]);
        assert_eq!(a.stats().commit_retries, 1);
        // T1 is still in the table: the tick certifies again, holds, and
        // re-arms.
        let acts = a.handle(10_000, alive(2));
        assert_eq!(ltm_commits(&acts), Vec::<u32>::new());
        assert!(rearms(&acts), "{acts:?}");
        assert_eq!(a.stats().commit_retries, 2);
        // T1 commits without a release (no host step asks for one): the
        // next tick commits T2 and arms nothing more.
        assert_eq!(ltm_commits(&a.handle(15_000, commit(1))), vec![1]);
        let acts = a.handle(20_000, alive(2));
        assert_eq!(ltm_commits(&acts), vec![2]);
        assert!(!rearms(&acts), "{acts:?}");
        assert_eq!(a.table_len(), 0);
        assert_eq!(a.handle(30_000, alive(2)), vec![]);
        assert_eq!(a.stats().commit_releases, 0);
        assert_eq!(a.stats().commit_hold_us, 20_000 - 30);
    }

    #[test]
    fn full_holds_a_commit_behind_a_smaller_sn_without_bound() {
        // T1 never commits: T2's COMMIT waits through ticks spanning well
        // past the comparators' wait bound, as a voted participant waits
        // for the decision.
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 5, 20);
        assert_eq!(a.handle(30, commit(2)), vec![]);
        let period = AgentConfig::default().alive_check_interval_us;
        for tick in 1..=150 {
            let acts = step(&mut a, 30 + tick * period, alive(2));
            assert_eq!(ltm_commits(&acts), Vec::<u32>::new(), "tick {tick}");
            assert!(rearms(&acts), "tick {tick}: {acts:?}");
        }
        assert!(150 * period > 1_000_000);
        assert_eq!(a.stats().commit_cert_overrides, 0);
        assert_eq!(a.stats().local_commits, 0);
        assert_eq!(a.table_len(), 2);
    }

    #[test]
    fn a_comparator_forces_a_held_commit_at_the_first_tick_past_its_bound() {
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::PrepareOrder,
                ..AgentConfig::default()
            },
        );
        let bound = CertifierMode::PrepareOrder
            .forced_commit_after_us()
            .expect("the comparators have a wait bound");
        prepare_one(&mut a, 1, 0, 99); // prepared first
        prepare_one(&mut a, 2, 5, 1); // prepared second: held behind T1
        assert_eq!(a.handle(30, commit(2)), vec![]);
        let acts = step(&mut a, 30 + bound - 1, alive(2));
        assert_eq!(ltm_commits(&acts), Vec::<u32>::new());
        assert!(rearms(&acts));
        assert_eq!(a.stats().commit_cert_overrides, 0);
        let acts = step(&mut a, 30 + bound, alive(2));
        assert_eq!(ltm_commits(&acts), vec![2]);
        assert!(!rearms(&acts));
        assert_eq!(a.stats().commit_cert_overrides, 1);
        assert_eq!(a.table_len(), 1);
    }

    #[test]
    fn commit_order_follows_sn_not_arrival() {
        // Even if T2's COMMIT arrives first, T1 (smaller sn) commits first.
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 5, 20);
        let acts2 = a.handle(30, AgentInput::Deliver(Message::Commit { gtxn: g(2) }));
        assert!(!acts2.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
        let acts1 = a.handle(31, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(acts1.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
    }

    #[test]
    fn commit_resubmits_aborted_incarnation_first() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        a.handle(
            20,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        let acts = a.handle(30, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        // Starts resubmission, but does not commit.
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmBegin(_))));
        assert!(!acts.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
        // Replay completes: the pending commit certification re-runs
        // immediately and commits incarnation 1.
        let acts = a.handle(
            40,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        let committed = acts.iter().find_map(|x| match x {
            AgentAction::LtmCommit(i) => Some(*i),
            _ => None,
        });
        assert_eq!(committed, Some(Instance::global(1, SITE, 1)));
    }

    #[test]
    fn prepare_after_rollback_is_ignored() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        a.handle(1, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        // A delayed PREPARE crossing the rollback must be silently dropped.
        let acts = a.handle(
            2,
            AgentInput::Deliver(Message::Prepare {
                gtxn: g(1),
                sn: sn(5),
            }),
        );
        assert!(acts.is_empty(), "{acts:?}");
    }

    #[test]
    fn rollback_aborts_and_acks() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        let acts = a.handle(20, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::Unbind { .. })));
        assert!(acts.iter().any(|x| matches!(
            x,
            AgentAction::Reply {
                msg: Message::RollbackAck { .. },
                ..
            }
        )));
        assert_eq!(a.table_len(), 0);
    }

    #[test]
    fn alive_timer_extends_interval_and_rearms() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        let acts = a.handle(10_000, AgentInput::AliveTimer { gtxn: g(1) });
        assert!(acts
            .iter()
            .any(|x| matches!(x, AgentAction::StartAliveTimer { .. })));
        // T2 executing later still intersects thanks to the extension.
        let acts = prepare_one(&mut a, 2, 9_000, 20);
        assert!(has_ready(&acts));
    }

    #[test]
    fn alive_timer_for_finished_txn_is_inert() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        a.handle(10, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        let acts = a.handle(10_000, AgentInput::AliveTimer { gtxn: g(1) });
        assert!(acts.is_empty());
    }

    #[test]
    fn no_certification_mode_admits_everything() {
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::NoCertification,
                ..AgentConfig::default()
            },
        );
        prepare_one(&mut a, 1, 0, 50);
        a.handle(
            100,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        // Interval-disjoint candidate is still accepted.
        let acts = prepare_one(&mut a, 2, 200, 40);
        assert!(has_ready(&acts), "{acts:?}");
        // And commits happen immediately regardless of smaller SNs pending.
        let acts = a.handle(300, AgentInput::Deliver(Message::Commit { gtxn: g(2) }));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
    }

    #[test]
    fn prepare_order_mode_orders_by_local_prepare() {
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::PrepareOrder,
                ..AgentConfig::default()
            },
        );
        prepare_one(&mut a, 1, 0, 99); // prepared first, huge sn
        prepare_one(&mut a, 2, 5, 1); // prepared second, tiny sn
                                      // T2's commit must wait for T1 despite T2's smaller sn.
        let acts = a.handle(30, AgentInput::Deliver(Message::Commit { gtxn: g(2) }));
        assert_eq!(ltm_commits(&acts), Vec::<u32>::new());
        let acts = a.handle(40, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
    }

    #[test]
    fn ticket_mode_refuses_out_of_order_prepare_arrival() {
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::TicketOrder,
                ..AgentConfig::default()
            },
        );
        // T1 with sn=50 prepares first; T2 with the *smaller* sn=40 then
        // arrives: the predeclared total order refuses it outright even
        // though nothing conflicts and nothing committed yet — the
        // unnecessary abort the paper criticizes in §5.2.
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 50)));
        let acts = prepare_one(&mut a, 2, 10, 40);
        assert_eq!(refuse_reason(&acts), Some(RefuseReason::SnOutOfOrder));
        // Under the full certifier the same schedule is accepted.
        let mut full = agent();
        assert!(has_ready(&prepare_one(&mut full, 1, 0, 50)));
        assert!(has_ready(&prepare_one(&mut full, 2, 10, 40)));
    }

    #[test]
    fn ticket_mode_still_orders_commits_by_sn() {
        let mut a = Agent::new(
            SITE,
            AgentConfig {
                mode: CertifierMode::TicketOrder,
                ..AgentConfig::default()
            },
        );
        prepare_one(&mut a, 1, 0, 10);
        prepare_one(&mut a, 2, 5, 20);
        let acts = a.handle(30, AgentInput::Deliver(Message::Commit { gtxn: g(2) }));
        assert_eq!(ltm_commits(&acts), Vec::<u32>::new());
    }

    #[test]
    fn uan_for_stale_incarnation_ignored() {
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        a.handle(
            20,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        a.handle(10_000, AgentInput::AliveTimer { gtxn: g(1) });
        a.handle(
            10_050,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        // A late UAN for incarnation 0 must not poison incarnation 1.
        a.handle(
            10_060,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        let acts = a.handle(10_100, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(acts.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
    }

    #[test]
    fn crash_recovery_restores_prepared_txns() {
        use crate::agent_log::AgentLog;
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10); // prepared, not committed
        prepare_one(&mut a, 2, 5, 20);
        a.handle(30, AgentInput::Deliver(Message::Commit { gtxn: g(2) }));
        // T2's COMMIT arrived but certification is still waiting on T1
        // (smaller sn), so no commit record was forced. Crash now: both
        // recover as *prepared* (the commit decision was not yet durable
        // at this site), re-send READY, re-bind, and re-arm alive timers.
        // The coordinator's COMMIT retransmission (on duplicate READY)
        // re-delivers T2's decision.
        let log: AgentLog = a.log().clone();
        let (recovered, actions) = Agent::recover(SITE, AgentConfig::default(), log);
        assert_eq!(recovered.table_len(), 2, "both subtxns restored");
        let readies = actions
            .iter()
            .filter(|x| {
                matches!(
                    x,
                    AgentAction::Reply {
                        msg: Message::Ready { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(readies, 2);
        assert!(
            actions
                .iter()
                .filter(|x| matches!(x, AgentAction::Bind { .. }))
                .count()
                >= 2
        );
        assert!(actions
            .iter()
            .any(|x| matches!(x, AgentAction::StartAliveTimer { .. })));
    }

    #[test]
    fn crash_recovery_replays_and_commits_pending_decision() {
        use crate::agent_log::AgentLog;
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        let log: AgentLog = a.log().clone();
        let (mut rec, _) = Agent::recover(SITE, AgentConfig::default(), log);
        // COMMIT arrives after the crash: the aborted incarnation must be
        // resubmitted first, then committed.
        let acts = rec.handle(100, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(
            acts.iter().any(|x| matches!(x, AgentAction::LtmBegin(_))),
            "{acts:?}"
        );
        assert!(!acts.iter().any(|x| matches!(x, AgentAction::LtmCommit(_))));
        let acts = rec.handle(
            200,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[1]),
            },
        );
        let committed = acts.iter().find_map(|x| match x {
            AgentAction::LtmCommit(i) => Some(*i),
            _ => None,
        });
        assert_eq!(committed, Some(Instance::global(1, SITE, 1)));
    }

    #[test]
    fn crash_recovery_restores_extension_state() {
        use crate::agent_log::AgentLog;
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 50);
        a.handle(10, AgentInput::Deliver(Message::Commit { gtxn: g(1) })); // commits, sn 50
        let log: AgentLog = a.log().clone();
        let (mut rec, _) = Agent::recover(SITE, AgentConfig::default(), log);
        // The §5.3 extension must still refuse smaller serial numbers.
        let acts = prepare_one(&mut rec, 2, 100, 40);
        assert_eq!(refuse_reason(&acts), Some(RefuseReason::SnOutOfOrder));
    }

    #[test]
    fn crash_recovery_fails_active_conversations() {
        use crate::agent_log::AgentLog;
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        // Crash mid-execution.
        let log: AgentLog = a.log().clone();
        let (rec, actions) = Agent::recover(SITE, AgentConfig::default(), log);
        assert!(actions.iter().any(|x| matches!(
            x,
            AgentAction::Reply {
                msg: Message::Failed { .. },
                ..
            }
        )));
        assert_eq!(rec.table_len(), 0);
    }

    #[test]
    fn crash_recovery_remembers_terminal_outcomes() {
        let begin = |k| {
            AgentInput::Deliver(Message::Begin {
                gtxn: g(k),
                coord: COORD,
            })
        };
        // DONE_CAP + 2 terminations: the first two ids fall out of the set.
        let last = DONE_CAP as u32 + 2;
        let mut a = agent();
        for k in 1..last - 2 {
            a.handle(0, begin(k));
            a.handle(1, AgentInput::Deliver(Message::Rollback { gtxn: g(k) }));
        }
        for k in last - 2..=last {
            prepare_one(&mut a, k, 2, 10 * u64::from(k));
        }
        a.handle(10, commit(last - 2));
        a.handle(
            11,
            AgentInput::Deliver(Message::Rollback { gtxn: g(last - 1) }),
        );
        a.handle(12, commit(last));
        assert_eq!(a.stats().local_commits, 2);
        assert_eq!(a.done_len(), DONE_CAP);
        let (mut rec, actions) = Agent::recover(SITE, AgentConfig::default(), a.log().clone());
        assert_eq!(actions, vec![]);
        // A BEGIN duplicated across the crash must not restart a finished
        // conversation: its LtmBegin would reuse the committed instance's
        // id and hold its locks forever.
        assert_eq!(rec.handle(20, begin(last)), vec![]);
        assert_eq!(rec.handle(21, begin(last - 1)), vec![]);
        assert_eq!(rec.handle(21, begin(3)), vec![]);
        // `DONE_CAP` bounds the recovered set like the live one.
        assert_eq!(rec.done_len(), DONE_CAP);
        assert!(matches!(
            rec.handle(22, begin(2))[..],
            [AgentAction::LtmBegin(_)]
        ));
    }

    #[test]
    fn recovered_entries_block_new_candidates_until_replayed() {
        use crate::agent_log::AgentLog;
        let mut a = agent();
        prepare_one(&mut a, 1, 0, 10);
        let log: AgentLog = a.log().clone();
        let (mut rec, _) = Agent::recover(SITE, AgentConfig::default(), log);
        // A fresh transaction executing after the crash cannot certify
        // against the frozen recovered entry.
        let acts = prepare_one(&mut rec, 2, 1_000, 20);
        assert_eq!(
            refuse_reason(&acts),
            Some(RefuseReason::AliveIntervalDisjoint)
        );
        // After the recovered entry replays, candidates pass again.
        rec.handle(10_000, AgentInput::AliveTimer { gtxn: g(1) });
        rec.handle(
            10_050,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[1]),
            },
        );
        let acts = prepare_one(&mut rec, 3, 10_100, 30);
        assert!(has_ready(&acts), "{acts:?}");
    }

    #[test]
    fn resubmission_replays_all_commands_in_order() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        let c1 = Command::Update(KeySpec::Key(1), 1);
        let c2 = Command::Update(KeySpec::Key(2), 2);
        a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: c1,
            }),
        );
        a.handle(
            2,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[1]),
            },
        );
        a.handle(
            3,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 1,
                command: c2,
            }),
        );
        a.handle(
            4,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[2]),
            },
        );
        a.handle(
            5,
            AgentInput::Deliver(Message::Prepare {
                gtxn: g(1),
                sn: sn(9),
            }),
        );
        a.handle(
            6,
            AgentInput::Uan {
                instance: Instance::global(1, SITE, 0),
            },
        );
        let acts = a.handle(10_000, AgentInput::AliveTimer { gtxn: g(1) });
        let first = acts.iter().find_map(|x| match x {
            AgentAction::LtmSubmit { command, .. } => Some(*command),
            _ => None,
        });
        assert_eq!(first, Some(c1));
        let acts = a.handle(
            10_010,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[1]),
            },
        );
        let second = acts.iter().find_map(|x| match x {
            AgentAction::LtmSubmit { command, .. } => Some(*command),
            _ => None,
        });
        assert_eq!(second, Some(c2));
        assert_eq!(a.stats().resubmissions, 1);
    }

    // ------------------------------------------------------------------
    // Duplicate / reordered delivery hardening (the §2 exactly-once FIFO
    // assumption, deliberately violated by the chaos harness).
    // ------------------------------------------------------------------

    #[test]
    fn duplicate_begin_ignored() {
        let mut a = agent();
        let first = a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        assert_eq!(first.len(), 1);
        let dup = a.handle(
            1,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        assert!(dup.is_empty(), "re-delivered BEGIN must not restart txn");
    }

    #[test]
    fn begin_after_terminal_outcome_ignored() {
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        a.handle(20, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert_eq!(a.stats().local_commits, 1);
        // A duplicated BEGIN surfaces long after the commit: starting a new
        // incarnation would hold locks forever (no coordinator is left).
        let acts = a.handle(
            30,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn duplicate_dml_step_not_executed_twice() {
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        let first = a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        assert!(matches!(first[0], AgentAction::LtmSubmit { .. }));
        // Copy re-delivered while the original executes.
        let dup = a.handle(
            2,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        assert!(dup.is_empty(), "in-flight duplicate must be ignored");
        a.handle(
            3,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        // Copy re-delivered after completion: the step guard catches it.
        let dup = a.handle(
            4,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        assert!(dup.is_empty(), "completed duplicate must be ignored");
        // The genuine next step still executes.
        let next = a.handle(
            5,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 1,
                command: cmd(),
            }),
        );
        assert!(matches!(next[0], AgentAction::LtmSubmit { .. }));
    }

    #[test]
    fn dml_for_unknown_transaction_ignored() {
        // Reordering can put a DML ahead of its BEGIN; the agent must not
        // panic or invent state.
        let mut a = agent();
        let acts = a.handle(
            0,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(9),
                step: 0,
                command: cmd(),
            }),
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn duplicate_prepare_ignored_after_ready() {
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        let dup = a.handle(
            11,
            AgentInput::Deliver(Message::Prepare {
                gtxn: g(1),
                sn: sn(10),
            }),
        );
        assert!(dup.is_empty(), "second PREPARE answered by earlier READY");
        assert_eq!(a.table_len(), 1, "table entry must be unchanged");
    }

    #[test]
    fn commit_overtaking_prepare_is_ignored_until_prepared() {
        // Injected same-link reordering: COMMIT arrives while still Active.
        let mut a = agent();
        a.handle(
            0,
            AgentInput::Deliver(Message::Begin {
                gtxn: g(1),
                coord: COORD,
            }),
        );
        a.handle(
            1,
            AgentInput::Deliver(Message::Dml {
                gtxn: g(1),
                step: 0,
                command: cmd(),
            }),
        );
        a.handle(
            2,
            AgentInput::LtmDone {
                gtxn: g(1),
                result: result(&[0]),
            },
        );
        let early = a.handle(3, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(early.is_empty(), "COMMIT before PREPARE must wait");
        assert_eq!(a.stats().local_commits, 0);
        // The PREPARE then lands normally and the txn can commit.
        let acts = a.handle(
            4,
            AgentInput::Deliver(Message::Prepare {
                gtxn: g(1),
                sn: sn(10),
            }),
        );
        assert!(has_ready(&acts));
        a.handle(5, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert_eq!(a.stats().local_commits, 1);
    }

    #[test]
    fn duplicate_commit_after_local_commit_ignored() {
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        a.handle(20, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert_eq!(a.stats().local_commits, 1);
        let dup = a.handle(21, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
        assert!(dup.is_empty());
        assert_eq!(a.stats().local_commits, 1, "no double commit");
    }

    #[test]
    fn duplicate_rollback_acks_idempotently() {
        let mut a = agent();
        assert!(has_ready(&prepare_one(&mut a, 1, 0, 10)));
        let first = a.handle(20, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        assert!(first.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))));
        assert_eq!(a.stats().rollbacks, 1);
        let dup = a.handle(21, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
        assert!(
            !dup.iter().any(|x| matches!(x, AgentAction::LtmAbort(_))),
            "second ROLLBACK must not abort again"
        );
        assert_eq!(a.stats().rollbacks, 1);
    }
}
