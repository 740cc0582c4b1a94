//! One coordinator node's runtime, driven through a [`RuntimeHost`].

use std::collections::{BTreeMap, BTreeSet};

use mdbs_baselines::SiteLockMode;
use mdbs_consensus::{Decision, Leader, PaxosMsg};
use mdbs_dtm::{CoordAction, Coordinator, Message};
use mdbs_histories::{GlobalTxnId, Op, SiteId};

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost};
use crate::node::{Flow, NodeEvent, NodeRuntime, Program, ReadyCrash};
use crate::CENTRAL;

/// CGM bookkeeping for one global transaction at its coordinator.
#[derive(Debug)]
struct CgmEntry {
    sites: BTreeSet<SiteId>,
    /// The program, until the admission grant hands it to the coordinator.
    program: Option<Program>,
    /// PREPARE messages buffered until the commit-graph verdict takes them.
    held_prepares: Vec<(SiteId, Message)>,
}

/// Wraps one [`Coordinator`] and interprets its [`CoordAction`]s.
///
/// Under the CGM baseline the runtime also owns the coordinator side of
/// the central-scheduler handshake: admission before `begin`, and holding
/// PREPAREs until the commit-graph vote passes.
#[derive(Debug)]
pub struct CoordinatorRuntime {
    node: u32,
    central_scheduler: bool,
    inner: Coordinator,
    cgm_txns: BTreeMap<GlobalTxnId, CgmEntry>,
    /// The Paxos Commit leader that replicates this coordinator's decisions
    /// through the acceptor quorum. `None` at `F = 0`: the paper's direct
    /// 2PC decision, and not one consensus message on the wire.
    leader: Option<Leader>,
    /// The `coord_crash_after_ready` hook; inert unless armed.
    ready_crash: ReadyCrash,
}

impl CoordinatorRuntime {
    /// Build the runtime for coordinator `node`; `central_scheduler`
    /// selects the Commit Graph Method's admission/vote path.
    pub fn new(node: u32, central_scheduler: bool) -> Self {
        CoordinatorRuntime {
            node,
            central_scheduler,
            inner: Coordinator::new(node),
            cgm_txns: BTreeMap::new(),
            leader: None,
            ready_crash: ReadyCrash::default(),
        }
    }

    /// The node this coordinator runs at.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Decide through Paxos Commit: the wrapped coordinator holds its
    /// commit decision until `leader` has it accepted at a quorum.
    pub fn set_consensus(&mut self, leader: Leader) {
        self.inner.set_gate_commit(true);
        self.leader = Some(leader);
    }

    /// Arm the crash-stop hook from the scenario's
    /// `coord_crash_after_ready = (c, k)`: if `c` is this coordinator,
    /// [`NodeRuntime::on_event`] answers its `k`-th READY with
    /// [`Flow::Crash`] instead of processing it.
    pub fn set_crash_after_ready(&mut self, hook: Option<(u32, u32)>) {
        self.ready_crash = ReadyCrash::for_node(hook, self.node);
    }

    /// Send what one step of the Paxos Commit leader emits; nothing at
    /// `F = 0`.
    fn lead<H: RuntimeHost>(
        &mut self,
        host: &mut H,
        step: impl FnOnce(&mut Leader) -> Vec<(u32, PaxosMsg)>,
    ) {
        if let Some(leader) = self.leader.as_mut() {
            let out = step(leader);
            self.send_paxos(out, host);
        }
    }

    fn send_paxos<H: RuntimeHost>(&self, out: Vec<(u32, PaxosMsg)>, host: &mut H) {
        for (to, msg) in out {
            host.send_ctrl(self.node, to, CtrlMsg::Paxos { msg });
        }
    }

    /// Start a transaction. Under 2CM this begins 2PC right away; under
    /// CGM it first requests admission from the central scheduler.
    fn begin<H: RuntimeHost>(
        &mut self,
        gtxn: GlobalTxnId,
        program: Program,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        if program.is_empty() {
            return Err(RuntimeError::MissingState {
                node: self.node,
                context: "global transaction with an empty program",
            });
        }
        if self.central_scheduler {
            // Admission through the central scheduler first.
            let sites: BTreeSet<SiteId> = program.iter().map(|(s, _)| *s).collect();
            let mut modes: BTreeMap<SiteId, SiteLockMode> = BTreeMap::new();
            for (s, c) in &program {
                let e = modes.entry(*s).or_insert(SiteLockMode::Read);
                if c.is_update() {
                    *e = SiteLockMode::Update;
                }
            }
            self.cgm_txns.insert(
                gtxn,
                CgmEntry {
                    sites,
                    program: Some(program),
                    held_prepares: Vec::new(),
                },
            );
            host.send_ctrl(
                self.node,
                CENTRAL,
                CtrlMsg::CgmRequest {
                    gtxn,
                    modes: modes.into_iter().collect(),
                },
            );
            Ok(())
        } else {
            // Register the transaction at the acceptors before any 2PC
            // message leaves: a failover must never see a BEGIN-less vote.
            let sites = || program.iter().map(|(s, _)| *s).collect();
            self.lead(host, |leader| leader.register(gtxn, sites()));
            let actions = self.inner.begin(gtxn, program);
            self.run_actions(actions, host)
        }
    }

    /// A 2PC message from a site agent arrived.
    fn on_message<H: RuntimeHost>(
        &mut self,
        msg: Message,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        let now_local = host.local_time_us(self.node);
        let actions = self.inner.on_message(now_local, msg);
        self.run_actions(actions, host)
    }

    /// A control message arrived. The transport is at-least-once, so the
    /// scheduler's two answers each act once per transaction: a
    /// re-delivered one, or one that outlived its transaction, is counted
    /// (`ctrl_duplicates_ignored`) and dropped.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_ctrl<H: RuntimeHost>(&mut self, ctrl: CtrlMsg, host: &mut H) -> Result<(), RuntimeError> {
        match ctrl {
            CtrlMsg::CgmAdmitted { gtxn } => {
                let entry = self.cgm_txns.get_mut(&gtxn);
                let Some(program) = entry.and_then(|e| e.program.take()) else {
                    host.inc("ctrl_duplicates_ignored");
                    return Ok(());
                };
                let actions = self.inner.begin(gtxn, program);
                self.run_actions(actions, host)
            }
            CtrlMsg::CgmVoteResult { gtxn, ok } => {
                // The verdict takes the held PREPAREs whichever way it
                // went, so a second one finds none.
                let entry = self.cgm_txns.get_mut(&gtxn);
                let held = entry.map_or_else(Vec::new, |e| std::mem::take(&mut e.held_prepares));
                if held.is_empty() {
                    host.inc("ctrl_duplicates_ignored");
                    return Ok(());
                }
                if ok {
                    for (site, msg) in held {
                        host.send(self.node, site.0, msg);
                    }
                    Ok(())
                } else {
                    let actions = self.inner.abort_externally(gtxn);
                    self.run_actions(actions, host)
                }
            }
            CtrlMsg::Paxos { msg } => {
                // No leader at `F = 0` — and then no acceptor to hear from.
                let Some(leader) = self.leader.as_mut() else {
                    host.inc("misrouted_events");
                    return Ok(());
                };
                let (out, decisions) = leader.on_msg(msg);
                self.send_paxos(out, host);
                for decision in decisions {
                    let actions = match decision {
                        Decision::Commit { gtxn } => self.inner.commit_decided(gtxn),
                        Decision::Adopted {
                            gtxn,
                            participants,
                            commit,
                        } => self.inner.adopt(gtxn, participants, commit),
                    };
                    self.run_actions(actions, host)?;
                }
                Ok(())
            }
            CtrlMsg::CgmRequest { .. } | CtrlMsg::CgmVote { .. } | CtrlMsg::CgmFinished { .. } => {
                Err(RuntimeError::UnexpectedCtrl {
                    node: self.node,
                    ctrl,
                })
            }
        }
    }

    fn run_actions<H: RuntimeHost>(
        &mut self,
        actions: Vec<CoordAction>,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        for action in actions {
            match action {
                CoordAction::ToAgent { site, msg } => {
                    // CGM: hold PREPAREs until the commit-graph vote.
                    if self.central_scheduler {
                        if let Message::Prepare { gtxn, .. } = msg {
                            let Some(entry) = self.cgm_txns.get_mut(&gtxn) else {
                                return Err(RuntimeError::MissingState {
                                    node: self.node,
                                    context: "PREPARE for an unknown CGM transaction",
                                });
                            };
                            entry.held_prepares.push((site, msg));
                            if entry.held_prepares.len() == entry.sites.len() {
                                let sites = entry.sites.clone();
                                host.send_ctrl(
                                    self.node,
                                    CENTRAL,
                                    CtrlMsg::CgmVote { gtxn, sites },
                                );
                            }
                            continue;
                        }
                    }
                    host.send(self.node, site.0, msg);
                }
                CoordAction::RecordGlobalCommit(gtxn) => {
                    host.record_op(Op::global_commit(gtxn.0));
                }
                CoordAction::RecordGlobalAbort(gtxn) => {
                    host.record_op(Op::global_abort(gtxn.0));
                }
                CoordAction::Finished { gtxn, outcome } => {
                    // Compact the transaction out of the acceptor logs
                    // (for one adopted here) or queue its compaction on
                    // the next registration, before the driver reacts.
                    self.lead(host, |leader| leader.finished(gtxn));
                    if self.central_scheduler {
                        // Drop the CGM bookkeeping and release the
                        // transaction's site locks at the scheduler.
                        self.cgm_txns.remove(&gtxn);
                        host.send_ctrl(self.node, CENTRAL, CtrlMsg::CgmFinished { gtxn });
                    }
                    host.global_finished(self.node, gtxn, outcome);
                }
            }
        }
        Ok(())
    }
}

impl NodeRuntime for CoordinatorRuntime {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        match event {
            NodeEvent::Net(msg) => {
                if self.ready_crash.strikes(&msg) {
                    return Ok(Flow::Crash);
                }
                self.on_message(msg, host)?
            }
            NodeEvent::Ctrl { ctrl, .. } => self.on_ctrl(ctrl, host)?,
            NodeEvent::Start { gtxn, program } => self.begin(gtxn, program, host)?,
            // Paxos Commit failover: adopt crashed coordinators' in-flight
            // transactions through the leader's whole-log phase 1.
            NodeEvent::TakeOver => self.lead(host, Leader::take_over),
            // Coordinators set no timers, and the loop keeps its own
            // envelopes.
            NodeEvent::Timer(_) | NodeEvent::Drain | NodeEvent::Shutdown => {
                host.inc("misrouted_events")
            }
        }
        Ok(Flow::Continue)
    }

    /// Every transaction begun or adopted here has finished.
    fn quiesced(&self) -> bool {
        self.inner.in_flight() == 0 && self.cgm_txns.is_empty()
    }
}
