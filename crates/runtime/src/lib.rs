//! # mdbs-runtime
//!
//! Transport-agnostic protocol runtimes, extracted from the simulation
//! monolith so the same state machines can run under different drivers:
//!
//! - [`SiteRuntime`] couples one site's 2PC Agent with its LDBS engine and
//!   local-transaction runners, and interprets every
//!   [`mdbs_dtm::AgentAction`].
//! - [`CoordinatorRuntime`] wraps one coordinator node and interprets
//!   [`mdbs_dtm::CoordAction`]s, including the CGM baseline's
//!   prepare-holding path.
//! - [`CentralRuntime`] is the CGM central scheduler (site-granularity
//!   global locks + commit-graph loop check).
//!
//! Runtimes never touch a network, a clock, or an event queue directly.
//! Every effect goes through the [`Transport`] / [`TimeSource`] trait pair
//! (bundled, with the metric/history/lifecycle sinks, into
//! [`RuntimeHost`]), and every input arrives as a [`NodeEvent`] through
//! [`NodeRuntime::on_event`] — see [`node`] for that layer and for
//! [`run_node`], the one node loop. Four hosts exist: the deterministic
//! discrete-event simulation in `mdbs-sim` (bit-for-bit reproducible per
//! seed) and the bounded model checker in `mdbs-check`, which keep their
//! own schedulers and step `on_event`; and the threaded runner (one OS
//! thread per node) and the `mdbs-node` TCP process, which instantiate
//! `run_node` over their [`NodePort`].
//!
//! Node numbering is shared by every driver: site agents live at
//! `node = site id`, coordinators at [`COORD_BASE`]` + i`, the CGM central
//! scheduler at [`CENTRAL`], and Paxos Commit acceptors (when
//! `consensus.f > 0`) at [`ACCEPTOR_BASE`]` + i` (see [`AcceptorRuntime`]).

#![forbid(unsafe_code)]

pub mod acceptor;
pub mod central;
pub mod coordinator;
pub mod host;
pub mod node;
pub mod site;
pub mod trace;

pub use acceptor::AcceptorRuntime;
pub use central::CentralRuntime;
pub use coordinator::CoordinatorRuntime;
pub use host::{message_kind, CtrlMsg, RuntimeError, RuntimeHost, TimeSource, Timer, Transport};
pub use node::{
    lowest_live_coordinator, or_die, run_node, AbortInjector, AdmissionWindow, Flow, NodeEvent,
    NodePort, NodeRuntime, NodeSet, Program, ReadyCrash, TimerHeap, RECV_BATCH,
};
pub use site::{
    ExpiredWait, SiteRuntime, DEADLOCK_SCAN_US, WAIT_TIMEOUT_FLOOR_US, WAIT_TIMEOUT_US,
};
pub use trace::{Observer, TraceEvent};

/// First coordinator node id.
pub const COORD_BASE: u32 = 1_000_000;
/// The CGM central scheduler's node id.
pub const CENTRAL: u32 = 2_000_000;
/// First Paxos Commit acceptor node id (`consensus.f > 0` only).
pub const ACCEPTOR_BASE: u32 = 3_000_000;
