//! # mdbs-histories
//!
//! An executable rendition of the transaction model of §3 of Veijalainen &
//! Wolski (ICDE 1992) and of the serializability theory it builds on
//! (Bernstein–Hadzilacos–Goodman, 1987).
//!
//! The crate provides:
//!
//! * the operation vocabulary of the paper — indexed elementary reads and
//!   writes `R_ik[X^s]` / `W_ik[X^s]`, prepare `P^s_k`, local commit/abort
//!   `C^s_kj` / `A^s_kj`, and global commit/abort `C_k` / `A_k`
//!   ([`op`], [`ids`]);
//! * linear histories with site and transaction projections ([`history`]);
//! * execution trees with the paper's sequence-of-trees semantics and the
//!   order invariant (1) `P^i_k < C_k < C^s_k` ([`tree`]);
//! * the paper's redefined **committed projection** `C(H)`, which — unlike
//!   the classical one — includes the unilaterally aborted local
//!   subtransactions of globally committed, complete transactions
//!   ([`history::History::committed_projection`]);
//! * conflict serializability via the serialization graph `SG(H)`
//!   ([`conflict`]);
//! * rollback-aware replay semantics giving reads-from and final-state
//!   writers in the presence of aborted writes ([`replay`]);
//! * exact **view serializability** and view equivalence deciders
//!   ([`view`]);
//! * the **commit-order graph** `CG(H)` of §5.1 and its acyclicity test
//!   ([`cg`]);
//! * detectors for the paper's two anomaly classes, **global view
//!   distortion** (§4) and **local view distortion** (§5) ([`distortion`]);
//! * checkers for the recoverability hierarchy: recoverable, ACA, strict,
//!   and **rigorous** — the SRS assumption ([`rigor`]);
//! * verbatim constructions of the paper's Fig. 2 transactions and the
//!   anomaly histories H1, H2, H3 ([`paper`]);
//! * the paper's sufficient condition for view serializability of `C(H)`
//!   as one [`Verdict`], every stage run on one interned index of the
//!   history.

#![forbid(unsafe_code)]

pub mod cg;
pub mod conflict;
pub mod distortion;
pub mod graph;
pub mod history;
pub mod ids;
mod index;
pub mod op;
#[cfg(test)]
mod oracle;
pub mod paper;
pub mod parse;
pub mod replay;
pub mod rigor;
pub mod tree;
pub mod view;

pub use cg::{commit_order_graph, CgReport};
pub use conflict::{conflict_serializable, ops_conflict, serialization_graph};
pub use distortion::{detect_global_view_distortion, detect_local_view_distortion, Distortion};
pub use history::History;
pub use ids::{GlobalTxnId, Instance, Item, LocalTxnId, SiteId, Txn};
pub use index::Verdict;
pub use op::{Op, OpKind};
pub use parse::ParseError;
pub use replay::Replay;
pub use rigor::{is_aca, is_recoverable, is_rigorous, is_strict, RigorViolation};
pub use view::{view_equivalent, view_serializable, ViewReport};
