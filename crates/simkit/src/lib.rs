//! # mdbs-simkit
//!
//! A deterministic discrete-event simulation kernel used as the substrate for
//! the multidatabase reproduction.
//!
//! The kernel provides:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — the simulated global clock,
//!   measured in microseconds.
//! * [`event::EventQueue`] — a stable priority queue of timestamped events.
//!   Ties are broken by insertion sequence number, so a simulation run is a
//!   pure function of its inputs and seed.
//! * [`clock::SiteClock`] — per-site clocks with configurable constant skew
//!   and drift (ppm), used by coordinators to draw serial numbers the way the
//!   paper suggests (real-time site clocks extended with the site id, §5.2).
//! * [`net::Network`] — a reliable FIFO message network: messages are never
//!   lost, corrupted, or reordered *per directed link*, exactly the paper's
//!   §2 assumption; latency between different site pairs may differ, which is
//!   what makes the §5.3 COMMIT-overtakes-PREPARE scenario possible.
//! * [`rng::DetRng`] — seeded deterministic randomness with cheap named
//!   substreams.
//! * [`metrics`] — counters and sample-set statistics used by the experiment
//!   harness.
//!
//! The kernel is deliberately independent of the database domain: it knows
//! nothing about transactions. Protocol logic lives in `mdbs-dtm` /
//! `mdbs-baselines` as pure state machines and the integration crate
//! `mdbs-sim` interprets their actions against this kernel.

#![forbid(unsafe_code)]

pub mod clock;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod time;

pub use clock::SiteClock;
pub use event::{EventQueue, ScheduledEvent};
pub use fault::{AppliedFault, FaultAction, FaultPlan, FaultProfile, FaultyNetwork};
pub use metrics::{Counter, Metrics, SampleStats};
pub use net::{LatencyModel, Network};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
