//! One coordinator node's runtime, driven through a [`RuntimeHost`].

use std::collections::{BTreeMap, BTreeSet};

use mdbs_baselines::SiteLockMode;
use mdbs_consensus::{CommitConsensus, Decision, DirectCommit, PaxosMsg};
use mdbs_dtm::{CoordAction, Coordinator, Message};
use mdbs_histories::{GlobalTxnId, Op, SiteId};
use mdbs_ldbs::Command;

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost};
use crate::node::{Flow, NodeEvent, NodeRuntime, ReadyCrash};
use crate::CENTRAL;

/// CGM bookkeeping for one global transaction at its coordinator.
#[derive(Debug)]
struct CgmEntry {
    sites: BTreeSet<SiteId>,
    program: Vec<(SiteId, Command)>,
    /// PREPARE messages buffered until the commit-graph vote passes.
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
    cgm: bool,
    inner: Coordinator,
    cgm_txns: BTreeMap<GlobalTxnId, CgmEntry>,
    /// The commit-decision strategy. [`DirectCommit`] (the default) is the
    /// paper's direct 2PC decision with zero extra traffic; `PaxosCommit`
    /// replicates the decision through the acceptor quorum.
    consensus: Box<dyn CommitConsensus>,
    /// The `coord_crash_after_ready` hook; inert unless armed.
    ready_crash: ReadyCrash,
}

impl CoordinatorRuntime {
    /// Build the runtime for coordinator `node`; `cgm` selects the
    /// Commit Graph Method's admission/vote path.
    pub fn new(node: u32, cgm: bool) -> Self {
        CoordinatorRuntime {
            node,
            cgm,
            inner: Coordinator::new(node),
            cgm_txns: BTreeMap::new(),
            consensus: Box::new(DirectCommit),
            ready_crash: ReadyCrash::default(),
        }
    }

    /// The node this coordinator runs at.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Install the commit-decision strategy. With a gating strategy
    /// (Paxos Commit) the wrapped coordinator holds its commit decision
    /// until the consensus layer reaches one.
    pub fn set_consensus(&mut self, consensus: Box<dyn CommitConsensus>) {
        self.inner.set_gate_commit(consensus.gates_commit());
        self.consensus = consensus;
    }

    /// Arm the crash-stop hook from the scenario's
    /// `coord_crash_after_ready = (c, k)`: if `c` is this coordinator,
    /// [`NodeRuntime::on_event`] answers its `k`-th READY with
    /// [`Flow::Crash`] instead of processing it.
    pub fn set_crash_after_ready(&mut self, hook: Option<(u32, u32)>) {
        self.ready_crash = ReadyCrash::for_node(hook, self.node);
    }

    /// Assume leadership over crashed coordinators' in-flight transactions
    /// (Paxos Commit failover): runs the consensus layer's whole-log
    /// phase 1. A no-op under [`DirectCommit`].
    fn take_over<H: RuntimeHost>(&mut self, host: &mut H) -> Result<(), RuntimeError> {
        let out = self.consensus.take_over();
        self.send_paxos(out, host);
        Ok(())
    }

    fn send_paxos<H: RuntimeHost>(&mut self, out: Vec<(u32, PaxosMsg)>, host: &mut H) {
        for (to, msg) in out {
            host.send_ctrl(self.node, to, CtrlMsg::Paxos { msg });
        }
    }

    /// Start a transaction. Under 2CM this begins 2PC right away; under
    /// CGM it first requests admission from the central scheduler.
    fn begin<H: RuntimeHost>(
        &mut self,
        gtxn: GlobalTxnId,
        program: Vec<(SiteId, Command)>,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        if self.cgm {
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
                    program,
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
            // Empty (zero messages) under DirectCommit.
            let participants: BTreeSet<SiteId> = program.iter().map(|(s, _)| *s).collect();
            let out = self.consensus.on_begin(gtxn, &participants);
            self.send_paxos(out, host);
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

    /// A control message from the central scheduler arrived.
    fn on_ctrl<H: RuntimeHost>(&mut self, ctrl: CtrlMsg, host: &mut H) -> Result<(), RuntimeError> {
        match ctrl {
            CtrlMsg::CgmAdmitted { gtxn } => {
                let Some(entry) = self.cgm_txns.get(&gtxn) else {
                    return Err(RuntimeError::MissingState {
                        node: self.node,
                        context: "admission grant for an unknown CGM transaction",
                    });
                };
                let program = entry.program.clone();
                let actions = self.inner.begin(gtxn, program);
                self.run_actions(actions, host)
            }
            CtrlMsg::CgmVoteResult { gtxn, ok } => {
                if ok {
                    // Release the held PREPAREs.
                    let Some(entry) = self.cgm_txns.get_mut(&gtxn) else {
                        return Err(RuntimeError::MissingState {
                            node: self.node,
                            context: "vote verdict for an unknown CGM transaction",
                        });
                    };
                    let held = std::mem::take(&mut entry.held_prepares);
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
                let (out, decisions) = self.consensus.on_msg(msg);
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
            other => Err(RuntimeError::UnexpectedCtrl {
                node: self.node,
                ctrl: other,
            }),
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
                    if self.cgm {
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
                    // (empty under DirectCommit) before the driver reacts.
                    let out = self.consensus.on_finished(gtxn);
                    self.send_paxos(out, host);
                    if self.cgm {
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
            NodeEvent::TakeOver => self.take_over(host)?,
            // Coordinators set no timers.
            _ => host.inc("misrouted_events"),
        }
        Ok(Flow::Continue)
    }

    /// Every transaction begun or adopted here has finished.
    fn quiesced(&self) -> bool {
        self.inner.in_flight() == 0 && self.cgm_txns.is_empty()
    }
}
