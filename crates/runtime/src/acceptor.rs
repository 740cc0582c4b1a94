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
    use mdbs_simkit::SimTime;

    use super::*;
    use crate::host::{message_kind, TimeSource, Timer, Transport};
    use crate::ACCEPTOR_BASE;

    #[derive(Default)]
    struct Recorder {
        ctrl: Vec<(u32, u32, CtrlMsg)>,
    }

    impl Transport for Recorder {
        fn send(&mut self, _from: u32, _to: u32, msg: mdbs_dtm::Message) {
            panic!(
                "acceptors never touch the 2PC plane: {}",
                message_kind(&msg)
            );
        }
        fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg) {
            self.ctrl.push((from, to, ctrl));
        }
        fn set_timer(&mut self, _node: u32, _after_us: u64, _timer: Timer) {}
    }

    impl TimeSource for Recorder {
        fn local_time_us(&mut self, _node: u32) -> u64 {
            0
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
    }

    impl RuntimeHost for Recorder {
        fn record_op(&mut self, _op: mdbs_histories::Op) {}
        fn inc(&mut self, _name: &'static str) {}
        fn add(&mut self, _name: &'static str, _n: u64) {}
        fn trace(&mut self, _event: crate::trace::TraceEvent) {}
        fn prepared(&mut self, _site: SiteId, _gtxn: GlobalTxnId, _incarnation: u32) {}
        fn local_settled(&mut self, _site: SiteId, _committed: bool) {}
        fn global_finished(
            &mut self,
            _cnode: u32,
            _gtxn: GlobalTxnId,
            _outcome: mdbs_dtm::GlobalOutcome,
        ) {
        }
    }

    #[test]
    fn a_vote_is_accepted_and_reported_to_the_coordinator() {
        let mut a = AcceptorRuntime::new(ACCEPTOR_BASE);
        let mut host = Recorder::default();
        let gtxn = GlobalTxnId(1);
        a.on_ctrl(
            CtrlMsg::Paxos {
                msg: PaxosMsg::Begin {
                    gtxn,
                    coord: 1_000_000,
                    participants: BTreeSet::from([SiteId(0)]),
                },
            },
            &mut host,
        )
        .expect("begin");
        a.on_ctrl(
            CtrlMsg::Paxos {
                msg: PaxosMsg::Vote2a {
                    gtxn,
                    site: SiteId(0),
                    coord: 1_000_000,
                    vote: Vote::Ready,
                },
            },
            &mut host,
        )
        .expect("vote");
        assert_eq!(host.ctrl.len(), 1);
        let (from, to, ctrl) = &host.ctrl[0];
        assert_eq!((*from, *to), (ACCEPTOR_BASE, 1_000_000));
        assert!(matches!(
            ctrl,
            CtrlMsg::Paxos {
                msg: PaxosMsg::Accepted { gtxn: g, .. }
            } if *g == gtxn
        ));
    }

    #[test]
    fn cgm_traffic_is_rejected() {
        let mut a = AcceptorRuntime::new(ACCEPTOR_BASE);
        let mut host = Recorder::default();
        let err = a
            .on_ctrl(
                CtrlMsg::CgmAdmitted {
                    gtxn: GlobalTxnId(1),
                },
                &mut host,
            )
            .expect_err("acceptors never speak CGM");
        assert!(matches!(err, RuntimeError::UnexpectedCtrl { .. }));
    }
}
