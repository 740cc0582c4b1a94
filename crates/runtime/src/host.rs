//! The host traits through which runtimes act on the world.
//!
//! A *driver* (the discrete-event simulation, the threaded runner, …) owns
//! the runtimes and hands them a host implementing these traits. The
//! runtimes stay pure protocol logic: the host decides what "send",
//! "timer" and "clock" mean.

use std::collections::BTreeSet;

use mdbs_baselines::SiteLockMode;
use mdbs_consensus::PaxosMsg;
use mdbs_dtm::{GlobalOutcome, Message};
use mdbs_histories::{GlobalTxnId, Instance, Op, SiteId};
use mdbs_ldbs::Command;
use mdbs_simkit::SimTime;

use crate::trace::TraceEvent;

/// Per-node clocks. The simulation reads skewed, drifting [`mdbs_simkit::SiteClock`]s
/// against virtual time; the threaded runner reads the wall clock.
pub trait TimeSource {
    /// The node's local clock, µs. This is what agents and coordinators
    /// timestamp protocol steps with (serial numbers, alive intervals).
    fn local_time_us(&mut self, node: u32) -> u64;

    /// The driver's reference time, used for trace events and wait-timeout
    /// bookkeeping. Virtual time under the simulation, elapsed wall time
    /// under the threaded runner.
    fn now(&self) -> SimTime;
}

/// A timer a runtime asks its host to fire later, back into the same node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Timer {
    /// Agent alive-check timer (Appendix A; for a held COMMIT also
    /// Appendix C's retry).
    Alive {
        /// The transaction being alive-checked.
        gtxn: GlobalTxnId,
    },
    /// The LTM starts executing a command (service delay elapsed).
    LtmExec {
        /// The executing instance.
        instance: Instance,
        /// The command to submit.
        command: Command,
    },
    /// An injected unilateral abort strikes (failure injection; see
    /// [`crate::node::AbortInjector`]).
    InjectAbort {
        /// The struck instance.
        instance: Instance,
    },
}

/// CGM control-plane traffic between coordinators and the central
/// scheduler. Carried by the transport like protocol messages (and billed
/// like them), but never seen by site agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Coordinator → central: admission request with the site-lock modes.
    CgmRequest {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Requested site locks.
        modes: Vec<(SiteId, SiteLockMode)>,
    },
    /// Central → coordinator: admission granted.
    CgmAdmitted {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// Coordinator → central: commit-graph vote request.
    CgmVote {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its participant sites.
        sites: BTreeSet<SiteId>,
    },
    /// Central → coordinator: vote verdict.
    CgmVoteResult {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Whether the commit graph stayed loop-free.
        ok: bool,
    },
    /// Coordinator → central: transaction finished, release its locks.
    CgmFinished {
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// Paxos Commit consensus traffic (coordinator ↔ acceptor ↔ site, in
    /// every direction — routing is carried inside the [`PaxosMsg`]).
    /// Absent entirely at `F=0`.
    Paxos {
        /// The wrapped consensus message.
        msg: PaxosMsg,
    },
}

impl CtrlMsg {
    /// The variant's name, for the model checker's trace lines.
    pub fn variant_name(&self) -> &'static str {
        match self {
            CtrlMsg::CgmRequest { .. } => "CgmRequest",
            CtrlMsg::CgmAdmitted { .. } => "CgmAdmitted",
            CtrlMsg::CgmVote { .. } => "CgmVote",
            CtrlMsg::CgmVoteResult { .. } => "CgmVoteResult",
            CtrlMsg::CgmFinished { .. } => "CgmFinished",
            CtrlMsg::Paxos { .. } => "Paxos",
        }
    }

    /// One representative value per variant, in declaration order, with
    /// nontrivial payloads. rustc cannot see a variant missing here;
    /// `mdbs-net`'s `codec.rs` holds the list to the codec table's tags.
    pub fn specimens() -> Vec<CtrlMsg> {
        let gtxn = GlobalTxnId(12);
        vec![
            CtrlMsg::CgmRequest {
                gtxn,
                modes: vec![
                    (SiteId(0), SiteLockMode::Read),
                    (SiteId(1), SiteLockMode::Update),
                ],
            },
            CtrlMsg::CgmAdmitted { gtxn },
            CtrlMsg::CgmVote {
                gtxn,
                sites: BTreeSet::from([SiteId(0), SiteId(2)]),
            },
            CtrlMsg::CgmVoteResult { gtxn, ok: false },
            CtrlMsg::CgmFinished { gtxn },
            // One specimen stands in for the whole Paxos vocabulary; the
            // per-variant specimens live at `PaxosMsg::specimens`.
            CtrlMsg::Paxos {
                msg: PaxosMsg::Clear { gtxn },
            },
        ]
    }
}

/// An internal-consistency failure surfaced by a runtime instead of a
/// panic: the engine rejected an operation the protocol state machine
/// believed valid, or a control message arrived at a node that can never
/// legally receive it. Drivers decide the blast radius — the simulation
/// and cluster node treat it as fatal, the bounded model checker reports
/// it as a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The LDBS engine refused an operation issued by the runtime.
    Engine {
        /// The site whose engine failed.
        site: SiteId,
        /// What the runtime was doing.
        context: &'static str,
        /// The engine's error.
        source: mdbs_ldbs::EngineError,
    },
    /// A control message reached a node that never handles its variant.
    UnexpectedCtrl {
        /// The receiving node.
        node: u32,
        /// The offending message.
        ctrl: CtrlMsg,
    },
    /// A runtime's bookkeeping lost track of a transaction it needed.
    MissingState {
        /// The node that noticed.
        node: u32,
        /// What was being looked up.
        context: &'static str,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Engine {
                site,
                context,
                source,
            } => write!(f, "engine failure at site {site}: {context}: {source:?}"),
            RuntimeError::UnexpectedCtrl { node, ctrl } => {
                write!(
                    f,
                    "node {node} received unexpected control message {ctrl:?}"
                )
            }
            RuntimeError::MissingState { node, context } => {
                write!(f, "node {node} lost runtime state: {context}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Message and timer delivery.
pub trait Transport {
    /// Hand a 2PC protocol message to the network.
    fn send(&mut self, from: u32, to: u32, msg: Message);

    /// Hand a CGM control message to the network.
    fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg);

    /// Fire `timer` back into `node` after `after_us` of local delay.
    fn set_timer(&mut self, node: u32, after_us: u64, timer: Timer);
}

/// Everything a runtime needs from its driver: transport + time plus the
/// history/metric sinks and the lifecycle hooks that stay driver-side
/// (failure injection, admission control).
pub trait RuntimeHost: Transport + TimeSource {
    /// Append one operation to the global history.
    fn record_op(&mut self, op: Op);

    /// Increment a counter metric.
    fn inc(&mut self, name: &'static str);

    /// Add to a counter metric.
    fn add(&mut self, name: &'static str, n: u64);

    /// Emit a protocol trace event (ignored by hosts without observers).
    fn trace(&mut self, event: TraceEvent);

    /// A subtransaction just entered the prepared state. The driver owns
    /// failure injection and may schedule a unilateral abort against
    /// `Instance::global(gtxn, site, incarnation)` by setting a
    /// [`Timer::InjectAbort`] (see [`crate::node::AbortInjector`]).
    fn prepared(&mut self, site: SiteId, gtxn: GlobalTxnId, incarnation: u32);

    /// A local transaction settled (committed or aborted) at `site`.
    fn local_settled(&mut self, site: SiteId, committed: bool);

    /// A global transaction reached its terminal outcome at coordinator
    /// `cnode`; the coordinator runtime has already released its CGM
    /// locks. Drivers that react by re-entering a coordinator (admission
    /// of queued work) defer that until the current action batch has
    /// fully unwound — `Finished` is always the last action a coordinator
    /// emits, so the deferral preserves event order.
    fn global_finished(&mut self, cnode: u32, gtxn: GlobalTxnId, outcome: GlobalOutcome);
}

/// Metric name for a message (per-kind traffic breakdown).
pub fn message_kind(msg: &Message) -> &'static str {
    match msg {
        Message::Begin { .. } => "msg_begin",
        Message::Dml { .. } => "msg_dml",
        Message::BeginDml { .. } => "msg_begin_dml",
        Message::Prepare { .. } => "msg_prepare",
        Message::Commit { .. } => "msg_commit",
        Message::Rollback { .. } => "msg_rollback",
        Message::DmlResult { .. } => "msg_dml_result",
        Message::Failed { .. } => "msg_failed",
        Message::Ready { .. } => "msg_ready",
        Message::Refuse { .. } => "msg_refuse",
        Message::CommitAck { .. } => "msg_commit_ack",
        Message::RollbackAck { .. } => "msg_rollback_ack",
        Message::NewCoord { .. } => "msg_new_coord",
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use mdbs_ldbs::KeySpec;

    use super::*;

    #[test]
    fn message_kind_names_every_variant() {
        let expected = [
            "msg_begin",
            "msg_dml",
            "msg_begin_dml",
            "msg_prepare",
            "msg_commit",
            "msg_rollback",
            "msg_dml_result",
            "msg_failed",
            "msg_ready",
            "msg_refuse",
            "msg_commit_ack",
            "msg_rollback_ack",
            "msg_new_coord",
        ];
        let messages = Message::specimens();
        assert_eq!(messages.len(), expected.len());
        for (msg, want) in messages.iter().zip(expected) {
            assert_eq!(message_kind(msg), want, "wrong kind for {msg:?}");
        }
        // Kinds double as metric names: a collision would silently merge
        // two rows of the per-kind traffic breakdown.
        let kinds: BTreeSet<&'static str> = messages.iter().map(message_kind).collect();
        assert_eq!(kinds.len(), messages.len());
    }

    /// A recording host: what the runtimes hand their driver, verbatim.
    #[derive(Default)]
    struct RecordingHost {
        sent: Vec<(u32, u32, &'static str)>,
        ctrl: Vec<(u32, u32, CtrlMsg)>,
        timers: Vec<(u32, u64, Timer)>,
    }

    impl Transport for RecordingHost {
        fn send(&mut self, from: u32, to: u32, msg: Message) {
            self.sent.push((from, to, message_kind(&msg)));
        }

        fn send_ctrl(&mut self, from: u32, to: u32, msg: CtrlMsg) {
            self.ctrl.push((from, to, msg));
        }

        fn set_timer(&mut self, node: u32, after_us: u64, timer: Timer) {
            self.timers.push((node, after_us, timer));
        }
    }

    fn all_timers() -> Vec<Timer> {
        vec![
            Timer::Alive {
                gtxn: GlobalTxnId(4),
            },
            Timer::LtmExec {
                instance: Instance::global(4, SiteId(1), 0),
                command: Command::Select(KeySpec::Key(9)),
            },
            Timer::InjectAbort {
                instance: Instance::global(4, SiteId(1), 0),
            },
        ]
    }

    #[test]
    fn transport_dispatch_reaches_the_host_in_order() {
        let mut recorder = RecordingHost::default();
        // Runtimes only ever see the trait, never the concrete driver.
        let host: &mut dyn Transport = &mut recorder;
        for (i, msg) in Message::specimens().into_iter().enumerate() {
            host.send(100, i as u32, msg);
        }
        for msg in CtrlMsg::specimens() {
            host.send_ctrl(100, 200, msg);
        }
        for (i, timer) in all_timers().into_iter().enumerate() {
            host.set_timer(3, 1_000 * (i as u64 + 1), timer);
        }

        let kinds: Vec<&'static str> = recorder.sent.iter().map(|&(_, _, k)| k).collect();
        assert_eq!(kinds[0], "msg_begin");
        assert_eq!(kinds[kinds.len() - 1], "msg_new_coord");
        assert!(recorder.sent.iter().all(|&(from, _, _)| from == 100));

        let ctrl: Vec<CtrlMsg> = recorder.ctrl.iter().map(|(_, _, m)| m.clone()).collect();
        assert_eq!(ctrl, CtrlMsg::specimens());

        assert_eq!(recorder.timers.len(), 3);
        assert_eq!(
            recorder.timers[1],
            (
                3,
                2_000,
                Timer::LtmExec {
                    instance: Instance::global(4, SiteId(1), 0),
                    command: Command::Select(KeySpec::Key(9)),
                }
            )
        );
    }

    /// Timers and control messages are queued as event payloads: both
    /// drivers rely on `Clone` + `Eq` round-tripping exactly.
    #[test]
    fn timer_and_ctrl_msg_round_trip_as_event_payloads() {
        for timer in all_timers() {
            assert_eq!(timer.clone(), timer);
        }
        for msg in CtrlMsg::specimens() {
            assert_eq!(msg.clone(), msg);
        }
        // Distinct variants over the same transaction must not compare
        // equal.
        let alive = Timer::Alive {
            gtxn: GlobalTxnId(4),
        };
        let abort = Timer::InjectAbort {
            instance: Instance::global(4, SiteId(1), 0),
        };
        assert_ne!(alive, abort);
        assert_ne!(
            CtrlMsg::CgmAdmitted {
                gtxn: GlobalTxnId(2)
            },
            CtrlMsg::CgmFinished {
                gtxn: GlobalTxnId(2)
            }
        );
    }
}
