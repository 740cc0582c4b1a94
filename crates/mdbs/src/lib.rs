//! # mdbs-sim
//!
//! The full multidatabase simulation: wires the discrete-event kernel
//! (`mdbs-simkit`), the local database engines (`mdbs-ldbs`), the
//! decentralized DTM (`mdbs-dtm`) or a comparator (`mdbs-baselines`), and a
//! workload (`mdbs-workload`) into one deterministic run.
//!
//! A run produces a [`report::SimReport`]: the complete global history in
//! the paper's operation vocabulary, protocol metrics (commits, aborts by
//! cause, resubmissions, messages, latencies), and a correctness verdict
//! computed with the `mdbs-histories` checkers — local rigorousness of every
//! site projection, acyclicity of the commit-order graph `CG(C(H))`,
//! absence of global view distortion, and (for small runs) exact view
//! serializability.
//!
//! ```
//! use mdbs_sim::{SimConfig, Simulation};
//!
//! let mut cfg = SimConfig::default();
//! cfg.workload.global_txns = 20;
//! cfg.workload.unilateral_abort_prob = 0.2;
//! let report = Simulation::new(cfg).run();
//! assert!(report.checks.passed(), "2CM must stay view serializable");
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod config;
pub mod report;
pub mod sim;
pub mod threaded;

pub use config::{ClusterConfig, ConfigError, KvConfig, NodeRole, Protocol, SimConfig};
pub use report::{CorrectnessReport, SimReport};
pub use sim::{node_set, Observer, Simulation, TraceEvent};
pub use threaded::ThreadedRunner;
