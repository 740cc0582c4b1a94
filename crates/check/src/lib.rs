//! mdbs-check: correctness tooling for the certifier protocols.
//!
//! Two halves, exposed through the `mdbs-check` binary:
//!
//! - [`lint`] — project-specific invariant lints the stock toolchain
//!   cannot express (determinism, panic-freedom in decode paths, message
//!   vocabulary exhaustiveness), built on the token-level source model in
//!   [`scan`]. Self-contained: no parser dependency, runs offline.
//! - [`explore`] — a bounded model checker that drives the real
//!   `SiteRuntime`/`CoordinatorRuntime`/`CentralRuntime` state machines
//!   — through the same `NodeRuntime::on_event` dispatch every driver
//!   uses — over every delivery schedule of a tiny configuration (within
//!   delay/fault/crash budgets) and checks global atomicity, the §4
//!   prepared-set alive-interval invariant, and commit-order acyclicity
//!   on every step of every run.
//! - [`conc`] — a static concurrency pass over the crates that spawn OS
//!   threads (threaded runner, TCP transport, cluster driver, lock
//!   manager): lock-order discipline against a checked-in table, blocking
//!   calls under held guards, guards held across locking loops, poison
//!   handling, and panic-freedom on worker threads.
//! - [`hotpath`] — a static performance pass over the per-message hot
//!   paths named in its checked-in `HOT_PATHS` table: allocation inside
//!   hot loops, guards live across sends, repeated same-key lookups,
//!   linear scans in handlers, and unbounded collection growth without a
//!   drain site. Suppressions require a written justification.
//! - [`proto`] — a static protocol-conformance pass over the 2PC/certify
//!   message flow: per node kind, a checked-in `PROTOCOL` table declares
//!   the handled message arms, allowed emissions, required duplicate
//!   guards, and required timers, anchored at each runtime's single
//!   `on_event` entry. (Cross-driver dispatch parity needs no rule: every
//!   driver goes through that one entry.) Suppressions require a written
//!   justification.
//! - [`mutate`] — the certifier mutation kill matrix: a catalog of
//!   deliberate protocol deviations, each a source edit (file, anchor,
//!   replacement) against the shipped agent, certifier index, coordinator
//!   or consensus leader that breaks one §4/§5/Appendix/2PC/Paxos Commit
//!   mechanism. Each mutant is compiled in a scratch copy of the workspace
//!   and run against the checkers — the ordinary tests of
//!   `tests/checkers.rs` (probes, exploration, one simulation, the `proto`
//!   pass); the matrix fails if any mutant passes them all or the real
//!   tree fails any, and errors out if an edit no longer applies or no
//!   longer compiles.

#![forbid(unsafe_code)]

pub mod conc;
pub mod explore;
pub mod hotpath;
pub mod lint;
pub mod mutate;
pub mod proto;
pub mod scan;
