//! mdbs-check: correctness tooling for the certifier protocols.
//!
//! Three tools, exposed through the `mdbs-check` binary:
//!
//! - **A rule engine** ([`engine`]) over the token-level source model in
//!   [`scan`] (no parser dependency, runs offline): one rule table, one
//!   finding type, one suppression contract, one call-graph closure. Its
//!   rules come in four groups, one subcommand each, and the modules named
//!   after them hold only rule bodies and the checked-in tables those
//!   bodies verify the source against:
//!   - [`lint`] — invariants the stock toolchain cannot express:
//!     determinism, panic-freedom in decode and handler paths (rows of
//!     one forbidden-token table);
//!   - [`conc`] — the crates that spawn OS threads: lock-order discipline
//!     against a declared table, blocking calls under held guards, guards
//!     held across locking loops, poison handling, panics on worker
//!     threads;
//!   - [`hotpath`] — the per-message hot paths named in `HOT_PATHS`:
//!     allocation inside hot loops, repeated same-key lookups, linear
//!     scans in handlers, unbounded collection growth without a drain;
//!   - [`proto`] — the 2PC/certify message flow: per node kind, `PROTOCOL`
//!     declares the handled message arms, allowed emissions, required
//!     duplicate guards and required timers, anchored at each runtime's
//!     single `on_event` entry.
//! - [`explore`] — a bounded model checker that drives the world the
//!   simulation builds (`mdbs_sim::node_set`) — through the same
//!   `NodeSet::on_event` dispatch every driver uses — over every delivery
//!   schedule of a tiny configuration (within delay / fault /
//!   coordinator-crash budgets) and checks global atomicity, the §4
//!   prepared-set alive-interval invariant, and commit-order acyclicity
//!   on every step of every run.
//! - [`mutate`] — the certifier mutation kill matrix: a catalog of
//!   deliberate protocol deviations, each a source edit (file, anchor,
//!   replacement) against the shipped agent, certifier index, coordinator
//!   or consensus leader that breaks one §4/§5/Appendix/2PC/Paxos Commit
//!   mechanism. Each mutant is compiled in a scratch copy of the workspace
//!   and run against the checkers — the ordinary tests of
//!   `tests/checkers.rs` (probes, exploration, one simulation, the `proto`
//!   group); the matrix fails if any mutant passes them all or the real
//!   tree fails any, and errors out if an edit no longer applies or no
//!   longer compiles.

#![forbid(unsafe_code)]

pub mod conc;
pub mod engine;
pub mod explore;
pub mod hotpath;
pub mod lint;
pub mod mutate;
pub mod proto;
pub mod scan;
