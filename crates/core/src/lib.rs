//! # mdbs-dtm
//!
//! The paper's contribution: a fully **decentralized Distributed Transaction
//! Manager** built from per-site **2PC Agents** (2PCA) with *prepare and
//! commit certification*, plus the **Coordinator** side of the 2PC protocol.
//!
//! Both protocol roles are pure state machines: they consume inputs
//! (messages, LTM completions, UAN notifications, timer fires) together with
//! the local clock reading, and emit [`agent::AgentAction`] /
//! [`coordinator::CoordAction`] lists. The surrounding simulation (or, in
//! principle, a real network stack) interprets the actions. This makes every
//! certification rule directly unit-testable.
//!
//! [`certifier::Certifier`] owns the alive-interval table and implements
//! the three mechanisms of §§4–5 as calls that return verdicts, structured
//! exactly as the Appendix algorithms; [`agent::Agent`] is 2PC, the Agent
//! log and resubmission around it:
//!
//! * **A. Alive check** — periodic while prepared; detects unilateral aborts
//!   (via UAN) and resubmits the logged commands, starting a fresh alive
//!   interval when resubmission completes (`extend` / `freeze` / `revive`).
//! * **B. Extended prepare certification** (`certify_prepare`) — refuse a
//!   PREPARE whose serial number is smaller than the largest locally
//!   committed one (the §5.3 extension), then require the candidate's alive
//!   interval to intersect the stored alive interval of *every* prepared
//!   subtransaction (the §4.2 basic certification, justified by the Conflict
//!   Detection Basis), then a final alive check.
//! * **C. Commit certification** (`commit_gate`) — perform local commits in
//!   serial-number order: a COMMIT waits (with retry) while any
//!   subtransaction with a smaller serial number is still in the
//!   alive-interval table (§5.2).
//!
//! [`config::CertifierMode`] selectively disables mechanisms, yielding the
//! in-family baselines used by the experiments (no certification at all; no
//! commit certification; the §5.3 "prepare order" strawman).

#![forbid(unsafe_code)]

pub mod agent;
pub mod agent_log;
pub mod certifier;
pub mod config;
pub mod coordinator;
pub mod msg;
pub mod sn;

pub use agent::{
    Agent, AgentAction, AgentInput, AgentStats, PreparedEntry, RefuseReason, DONE_CAP,
};
pub use agent_log::{AgentLog, LogRecord, RecoveredTxn};
pub use config::{AgentConfig, CertifierMode};
pub use coordinator::{CoordAction, Coordinator, GlobalOutcome, GlobalProgram};
pub use msg::Message;
pub use sn::{SerialNumber, SnGenerator};
