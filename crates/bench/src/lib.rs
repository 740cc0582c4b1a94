//! # mdbs-bench
//!
//! The experiment harness (`experiments` binary): standard configurations,
//! multi-seed aggregation, and plain-text table rendering. Every experiment
//! in `EXPERIMENTS.md` maps to one function here; the binary only parses
//! arguments and dispatches, and its `all` output is the golden
//! `experiments_output.txt`.
//!
//! Beside it sit three harness-less benches, each kept for the gate CI
//! holds it to: `runner_throughput` (the sim's 8-site rate at least half
//! its 1-site rate), `net_throughput` (batching at least doubles the
//! unbatched message rate; the loopback round trip) and
//! `certifier_throughput` (the staged agent against the linear oracle).
//! Everything else is measured by the ledger (`benchmark/`) on the
//! workloads it serves — `core.*`, `ldbs.*` and `histories.*` layer rows
//! and the end-to-end rows.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
