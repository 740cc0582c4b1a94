//! The CGM central scheduler's runtime, driven through a [`RuntimeHost`].

use std::collections::BTreeMap;

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
    /// Which coordinator to answer, per admitted transaction.
    cnode_of: BTreeMap<GlobalTxnId, u32>,
}

impl CentralRuntime {
    /// A fresh scheduler with no admitted transactions.
    pub fn new() -> Self {
        CentralRuntime {
            locks: GlobalLockManager::new(),
            graph: CommitGraph::new(),
            cnode_of: BTreeMap::new(),
        }
    }

    /// A control message from coordinator `from` arrived.
    fn on_ctrl<H: RuntimeHost>(
        &mut self,
        from: u32,
        ctrl: CtrlMsg,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        match ctrl {
            CtrlMsg::CgmRequest { gtxn, modes } => {
                self.cnode_of.insert(gtxn, from);
                if self.locks.request(gtxn, modes) {
                    host.send_ctrl(CENTRAL, from, CtrlMsg::CgmAdmitted { gtxn });
                }
                // Otherwise queued; admission happens on a later release.
                Ok(())
            }
            CtrlMsg::CgmVote { gtxn, sites } => {
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
                self.graph.remove(gtxn);
                self.cnode_of.remove(&gtxn);
                let admitted = self.locks.release(gtxn);
                for g in admitted {
                    let Some(&cnode) = self.cnode_of.get(&g) else {
                        return Err(RuntimeError::MissingState {
                            node: CENTRAL,
                            context: "coordinator of a queued admission",
                        });
                    };
                    host.send_ctrl(CENTRAL, cnode, CtrlMsg::CgmAdmitted { gtxn: g });
                }
                Ok(())
            }
            other => Err(RuntimeError::UnexpectedCtrl {
                node: CENTRAL,
                ctrl: other,
            }),
        }
    }
}

impl NodeRuntime for CentralRuntime {
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        match event {
            NodeEvent::Ctrl { from, ctrl } => self.on_ctrl(from, ctrl, host)?,
            // The scheduler speaks the control plane only.
            _ => host.inc("misrouted_events"),
        }
        Ok(Flow::Continue)
    }
}
