//! # mdbs-net
//!
//! The real-network driver for the multidatabase: where
//! `mdbs_sim::Simulation` multiplexes every runtime onto one virtual event
//! queue and `mdbs_sim::ThreadedRunner` gives each node an OS thread, this
//! crate puts every node in its **own process** and carries the 2PC
//! vocabulary over **TCP**.
//!
//! * [`wire`] — a hand-rolled little-endian codec for the protocol types
//!   ([`mdbs_dtm::Message`], `CtrlMsg`, history [`mdbs_histories::Op`]s)
//!   and the cluster envelope [`wire::WireMsg`]. No serialization
//!   dependency; decoding is bounds-checked everywhere and can never
//!   panic on attacker-shaped bytes.
//! * [`frame`] — the framing layer: magic, version, length, CRC32.
//!   Truncated, corrupt, oversized or misaligned frames are rejected as
//!   clean errors that sever the connection.
//! * [`tcp`] — [`tcp::TcpTransport`]: one listener per node, one writer
//!   thread per peer with a **bounded** outbox (senders feel backpressure,
//!   never unbounded memory), lazy connects with exponential backoff, and
//!   retransmission of the in-flight frame after a reconnect. Delivery is
//!   at-least-once; the 2PC agents are duplicate-hardened, so retransmits
//!   are safe where it matters.
//! * [`node`] — the `mdbs-node` process host: every role is the shared
//!   node loop ([`mdbs_runtime::run_node`]) over its runtime and a
//!   `NodeHost` — the TCP transport as a [`mdbs_runtime::NodePort`] — so
//!   this crate holds no loop of its own. Every process reads the same
//!   cluster file, pre-draws the same seeded workload
//!   ([`mdbs_workload::predraw`]) and takes its own slice, so no workload
//!   bytes ever cross the wire; the driver (state inside coordinator 0's
//!   host) admits global transactions under the configured
//!   multiprogramming level, collects per-node history reports after a
//!   drain barrier, and prints timing-independent outcome digests
//!   comparable with the simulation's.
//! * [`cluster`] — spawns one `mdbs-node` process per role on loopback and
//!   harvests the digests (the integration-test and smoke harness).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod frame;
pub mod node;
pub mod tcp;
pub mod wire;

pub use cluster::{loopback_cluster, ClusterOutcome, ClusterRunner};
pub use frame::{decode_frames, encode_frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use node::{run_node, NodeOutput};
pub use tcp::TcpTransport;
pub use wire::{WireError, WireMsg};
