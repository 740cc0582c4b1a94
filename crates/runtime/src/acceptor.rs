//! One Paxos Commit acceptor node's runtime, driven through a
//! [`RuntimeHost`].
//!
//! Acceptors exist only when fault tolerance is configured (`consensus.f >
//! 0`): `2F+1` of them hold the durable ballot/vote log that lets a backup
//! coordinator finish a crashed coordinator's in-flight transactions. They
//! speak only the control plane ([`CtrlMsg::Paxos`]) — site agents and the
//! certifier never see them.

use mdbs_consensus::Acceptor;

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost};
use crate::node::{Flow, NodeEvent, NodeRuntime};

/// Wraps one [`Acceptor`] vote log and moves its messages.
#[derive(Debug)]
pub struct AcceptorRuntime {
    node: u32,
    inner: Acceptor,
}

impl AcceptorRuntime {
    /// Build the runtime for acceptor `node`.
    pub fn new(node: u32) -> Self {
        AcceptorRuntime {
            node,
            inner: Acceptor::new(node),
        }
    }

    /// The node this acceptor runs at.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The wrapped vote log (crash snapshots and test observation).
    pub fn inner(&self) -> &Acceptor {
        &self.inner
    }

    /// Replace the vote log with one recovered from a snapshot (the
    /// durable-restart path; see [`Acceptor::recover`]).
    pub fn restore(&mut self, inner: Acceptor) {
        self.inner = inner;
    }

    /// A control message arrived.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_ctrl<H: RuntimeHost>(&mut self, ctrl: CtrlMsg, host: &mut H) -> Result<(), RuntimeError> {
        match ctrl {
            CtrlMsg::Paxos { msg } => {
                for (to, reply) in self.inner.handle(msg) {
                    host.send_ctrl(self.node, to, CtrlMsg::Paxos { msg: reply });
                }
                Ok(())
            }
            CtrlMsg::CgmRequest { .. }
            | CtrlMsg::CgmAdmitted { .. }
            | CtrlMsg::CgmVote { .. }
            | CtrlMsg::CgmVoteResult { .. }
            | CtrlMsg::CgmFinished { .. } => Err(RuntimeError::UnexpectedCtrl {
                node: self.node,
                ctrl,
            }),
        }
    }
}

impl NodeRuntime for AcceptorRuntime {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        match event {
            NodeEvent::Ctrl { ctrl, .. } => self.on_ctrl(ctrl, host)?,
            // Acceptors speak the control plane only.
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use mdbs_consensus::{PaxosMsg, Vote};
    use mdbs_histories::{GlobalTxnId, SiteId};

    use super::*;
    use crate::host::Transport;
    use crate::node::NodeSet;
    use crate::script::{Lane, Script};
    use crate::ACCEPTOR_BASE;

    const COORD: u32 = 1_000_000;

    /// One acceptor on a script; the test is its coordinator.
    fn acceptor() -> Script {
        let rt = AcceptorRuntime::new(ACCEPTOR_BASE);
        Script::new(NodeSet {
            acceptors: [(ACCEPTOR_BASE, rt)].into(),
            ..NodeSet::default()
        })
    }

    fn deliver(s: &mut Script, ctrl: CtrlMsg) -> Result<(), RuntimeError> {
        s.host.send_ctrl(COORD, ACCEPTOR_BASE, ctrl);
        s.deliver(COORD, ACCEPTOR_BASE)
    }

    #[test]
    fn a_vote_is_accepted_and_reported_to_the_coordinator() {
        let mut s = acceptor();
        let gtxn = GlobalTxnId(1);
        let begin = PaxosMsg::Begin {
            gtxn,
            coord: COORD,
            participants: BTreeSet::from([SiteId(0)]),
        };
        deliver(&mut s, CtrlMsg::Paxos { msg: begin }).expect("begin");
        let vote = PaxosMsg::Vote2a {
            gtxn,
            site: SiteId(0),
            coord: COORD,
            vote: Vote::Ready,
        };
        deliver(&mut s, CtrlMsg::Paxos { msg: vote }).expect("vote");
        // Acceptors never touch the 2PC plane: one control message, to the
        // coordinator, is all there is.
        assert_eq!(
            s.host.heads(),
            vec![Lane::Link {
                from: ACCEPTOR_BASE,
                to: COORD
            }]
        );
        let sent: Vec<&NodeEvent> = s.host.parked(s.host.heads()[0]).collect();
        assert!(matches!(
            sent[..],
            [NodeEvent::Ctrl {
                ctrl: CtrlMsg::Paxos {
                    msg: PaxosMsg::Accepted { gtxn: g, .. }
                },
                ..
            }] if *g == gtxn
        ));
    }

    #[test]
    fn cgm_traffic_is_rejected() {
        let mut s = acceptor();
        let err = deliver(
            &mut s,
            CtrlMsg::CgmAdmitted {
                gtxn: GlobalTxnId(1),
            },
        )
        .expect_err("acceptors never speak CGM");
        assert!(matches!(err, RuntimeError::UnexpectedCtrl { .. }));
    }
}
