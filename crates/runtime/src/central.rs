//! The CGM central scheduler's runtime, driven through a [`RuntimeHost`].

use std::collections::{BTreeMap, BTreeSet};

use mdbs_baselines::{CommitGraph, GlobalLockManager};
use mdbs_histories::GlobalTxnId;

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost};
use crate::node::{Flow, NodeEvent, NodeRuntime};
use crate::CENTRAL;

/// The Commit Graph Method's central scheduler: site-granularity global
/// locks for admission, and a commit-graph loop check before any PREPARE
/// is released.
#[derive(Debug, Default)]
pub struct CentralRuntime {
    locks: GlobalLockManager,
    graph: CommitGraph,
    /// Which coordinator to answer, per transaction, from its admission
    /// request to its `CgmFinished`.
    answer_to: BTreeMap<GlobalTxnId, u32>,
    /// The transactions among them whose commit-graph vote was taken.
    voted: BTreeSet<GlobalTxnId>,
}

impl CentralRuntime {
    /// A fresh scheduler with no admitted transactions.
    pub fn new() -> Self {
        CentralRuntime::default()
    }

    /// A control message from coordinator `from` arrived. Each of a
    /// transaction's three requests acts once: the transport re-delivers,
    /// and a vote judged twice could draw two verdicts, the graph having
    /// moved. A duplicate is counted (`ctrl_duplicates_ignored`) and dropped.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_ctrl<H: RuntimeHost>(
        &mut self,
        from: u32,
        ctrl: CtrlMsg,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        match ctrl {
            CtrlMsg::CgmRequest { gtxn, modes } => {
                if self.answer_to.contains_key(&gtxn) {
                    host.inc("ctrl_duplicates_ignored");
                    return Ok(());
                }
                self.answer_to.insert(gtxn, from);
                if self.locks.request(gtxn, modes) {
                    host.send_ctrl(CENTRAL, from, CtrlMsg::CgmAdmitted { gtxn });
                }
                // Otherwise queued; admission happens on a later release.
                Ok(())
            }
            CtrlMsg::CgmVote { gtxn, sites } => {
                if !self.answer_to.contains_key(&gtxn) || !self.voted.insert(gtxn) {
                    host.inc("ctrl_duplicates_ignored");
                    return Ok(());
                }
                let ok = !self.graph.would_cycle(gtxn, &sites);
                if ok {
                    self.graph.insert(gtxn, sites);
                }
                host.inc(if ok {
                    "cgm_votes_ok"
                } else {
                    "cgm_votes_cycle"
                });
                host.send_ctrl(CENTRAL, from, CtrlMsg::CgmVoteResult { gtxn, ok });
                Ok(())
            }
            CtrlMsg::CgmFinished { gtxn } => {
                if self.answer_to.remove(&gtxn).is_none() {
                    host.inc("ctrl_duplicates_ignored");
                    return Ok(());
                }
                self.voted.remove(&gtxn);
                self.graph.remove(gtxn);
                for g in self.locks.release(gtxn) {
                    let Some(&cnode) = self.answer_to.get(&g) else {
                        return Err(RuntimeError::MissingState {
                            node: CENTRAL,
                            context: "coordinator of a queued admission",
                        });
                    };
                    host.send_ctrl(CENTRAL, cnode, CtrlMsg::CgmAdmitted { gtxn: g });
                }
                Ok(())
            }
            CtrlMsg::CgmAdmitted { .. } | CtrlMsg::CgmVoteResult { .. } | CtrlMsg::Paxos { .. } => {
                Err(RuntimeError::UnexpectedCtrl {
                    node: CENTRAL,
                    ctrl,
                })
            }
        }
    }
}

impl NodeRuntime for CentralRuntime {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        match event {
            NodeEvent::Ctrl { from, ctrl } => self.on_ctrl(from, ctrl, host)?,
            // The scheduler speaks the control plane only.
            NodeEvent::Net(_)
            | NodeEvent::Timer(_)
            | NodeEvent::Start { .. }
            | NodeEvent::TakeOver
            | NodeEvent::Drain
            | NodeEvent::Shutdown => host.inc("misrouted_events"),
        }
        Ok(Flow::Continue)
    }
}
