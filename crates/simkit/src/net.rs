//! The simulated network.
//!
//! §2: "In order not to have to deal with failures of purely
//! telecommunications nature, we assume the messages are not corrupted, lost
//! or out of order." We therefore model a *reliable FIFO* network: each
//! directed link `(src, dst)` delivers messages in send order, never dropping
//! any. Latency is configurable per link; because *different* links may have
//! different latencies, end-to-end races such as §5.3's "the COMMIT message
//! of Tk could overtake the PREPARE message of Tj at site s" remain
//! possible — that race is between two different links, not within one.
//!
//! [`Network`] does not own an event queue; it computes a *delivery time* for
//! each send and the caller schedules the delivery. Per-link FIFO is enforced
//! by clamping each delivery to be no earlier than the previous delivery on
//! the same link.

use std::collections::BTreeMap;

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a network endpoint (a site, including coordinator sites).
pub type NodeId = u32;

/// Latency model for a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniformly distributed in `[lo, hi]`.
    Uniform(SimDuration, SimDuration),
}

impl LatencyModel {
    /// Draw one latency sample.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, hi) => {
                assert!(lo <= hi, "uniform latency with lo > hi");
                // Inclusive sampling: `uniform_u64(lo, hi + 1)` would overflow
                // for `hi == u64::MAX`.
                SimDuration::from_micros(rng.uniform_u64_incl(lo.as_micros(), hi.as_micros()))
            }
        }
    }

    /// The smallest latency this model can produce.
    pub fn min(&self) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, _) => lo,
        }
    }
}

/// A reliable FIFO network between nodes.
#[derive(Debug)]
pub struct Network {
    default_latency: LatencyModel,
    overrides: BTreeMap<(NodeId, NodeId), LatencyModel>,
    /// Last delivery time per directed link, used to enforce FIFO.
    last_delivery: BTreeMap<(NodeId, NodeId), SimTime>,
    rng: DetRng,
    messages_sent: u64,
}

impl Network {
    /// A network where every link uses `default_latency`.
    pub fn new(default_latency: LatencyModel, rng: DetRng) -> Self {
        Network {
            default_latency,
            overrides: BTreeMap::new(),
            last_delivery: BTreeMap::new(),
            rng,
            messages_sent: 0,
        }
    }

    /// Set or replace one directed link's latency.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, latency: LatencyModel) {
        self.overrides.insert((src, dst), latency);
    }

    /// Total messages routed through this network.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Compute the delivery time of a message sent from `src` to `dst` at
    /// time `now`. FIFO per link: the result never precedes an earlier
    /// message's delivery on the same link, and strictly follows it so two
    /// messages on one link never arrive simultaneously out of order.
    pub fn delivery_time(&mut self, src: NodeId, dst: NodeId, now: SimTime) -> SimTime {
        let raw = now + self.raw_latency(src, dst);
        let delivery = self.clamp_delivery(src, dst, raw);
        self.count_message();
        delivery
    }

    /// Draw one latency sample for the `(src, dst)` link without touching the
    /// FIFO clamp or the message counter. Fault-injection wrappers use this to
    /// compute an *unclamped* (potentially overtaking) delivery time.
    pub fn raw_latency(&mut self, src: NodeId, dst: NodeId) -> SimDuration {
        let model = self
            .overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_latency);
        model.sample(&mut self.rng)
    }

    /// Apply the per-link FIFO clamp to a tentative delivery time `raw` and
    /// advance the link's high-water mark. Does not draw latency or count a
    /// message; pair with [`Network::raw_latency`] / [`Network::count_message`].
    pub fn clamp_delivery(&mut self, src: NodeId, dst: NodeId, raw: SimTime) -> SimTime {
        let slot = self
            .last_delivery
            .entry((src, dst))
            .or_insert(SimTime::ZERO);
        let delivery = if raw <= *slot {
            SimTime::from_micros(slot.as_micros() + 1)
        } else {
            raw
        };
        *slot = delivery;
        delivery
    }

    /// Count one message routed through this network.
    pub fn count_message(&mut self) {
        self.messages_sent += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn net(default: LatencyModel) -> Network {
        Network::new(default, DetRng::new(77))
    }

    #[test]
    fn constant_latency() {
        let mut n = net(LatencyModel::Constant(SimDuration::from_millis(5)));
        let d = n.delivery_time(0, 1, SimTime::from_millis(10));
        assert_eq!(d, SimTime::from_millis(15));
    }

    #[test]
    fn fifo_per_link_even_with_jitter() {
        let mut n = net(LatencyModel::Uniform(
            SimDuration::from_micros(100),
            SimDuration::from_micros(10_000),
        ));
        let mut prev = SimTime::ZERO;
        for i in 0..200u64 {
            let sent = SimTime::from_micros(i * 10);
            let d = n.delivery_time(3, 4, sent);
            assert!(d > prev, "FIFO violated: {d:?} after {prev:?}");
            prev = d;
        }
    }

    #[test]
    fn different_links_are_independent() {
        let mut n = net(LatencyModel::Constant(SimDuration::from_millis(1)));
        n.set_link(0, 2, LatencyModel::Constant(SimDuration::from_millis(50)));
        // Message on slow link sent first can be overtaken by fast link.
        let slow = n.delivery_time(0, 2, SimTime::ZERO);
        let fast = n.delivery_time(0, 1, SimTime::from_micros(10));
        assert!(fast < slow, "fast link should overtake slow link");
    }

    #[test]
    fn overtaking_enables_commit_before_prepare_race() {
        // Reproduces the §5.3 topology: coordinator of Tj at node 10 has a
        // slow link to site 1; coordinator of Tk at node 11 a fast one. Tj's
        // PREPARE (sent earlier) arrives after Tk's COMMIT.
        let mut n = net(LatencyModel::Constant(SimDuration::from_millis(1)));
        n.set_link(10, 1, LatencyModel::Constant(SimDuration::from_millis(20)));
        n.set_link(11, 1, LatencyModel::Constant(SimDuration::from_millis(1)));
        let prepare_j = n.delivery_time(10, 1, SimTime::from_millis(0));
        let commit_k = n.delivery_time(11, 1, SimTime::from_millis(5));
        assert!(commit_k < prepare_j);
    }

    #[test]
    fn counts_messages() {
        let mut n = net(LatencyModel::Constant(SimDuration::ZERO));
        for _ in 0..7 {
            n.delivery_time(0, 1, SimTime::ZERO);
        }
        assert_eq!(n.messages_sent(), 7);
    }

    #[test]
    fn zero_latency_still_strictly_ordered() {
        let mut n = net(LatencyModel::Constant(SimDuration::ZERO));
        let a = n.delivery_time(0, 1, SimTime::from_micros(5));
        let b = n.delivery_time(0, 1, SimTime::from_micros(5));
        assert!(b > a);
    }

    #[test]
    fn uniform_full_range_does_not_overflow() {
        // Regression: sampling used `hi + 1` and overflowed at u64::MAX.
        let model = LatencyModel::Uniform(
            SimDuration::from_micros(0),
            SimDuration::from_micros(u64::MAX),
        );
        let mut rng = DetRng::new(17);
        for _ in 0..100 {
            // Any result is in range by type; the point is no panic.
            let _ = model.sample(&mut rng);
        }
        // Also with a non-zero lo hugging the top of the range.
        let model = LatencyModel::Uniform(
            SimDuration::from_micros(u64::MAX - 10),
            SimDuration::from_micros(u64::MAX),
        );
        for _ in 0..100 {
            let s = model.sample(&mut rng);
            assert!(s.as_micros() >= u64::MAX - 10);
        }
    }

    #[test]
    fn uniform_degenerate_range_is_constant_and_drawless() {
        let d = SimDuration::from_micros(250);
        let model = LatencyModel::Uniform(d, d);
        let mut rng = DetRng::new(9);
        let before = rng.clone().next_u64();
        assert_eq!(model.sample(&mut rng), d);
        // lo == hi must not consume a draw (stream position unchanged).
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn uniform_bounds_respected() {
        let lo = SimDuration::from_micros(200);
        let hi = SimDuration::from_micros(300);
        let model = LatencyModel::Uniform(lo, hi);
        let mut rng = DetRng::new(5);
        for _ in 0..500 {
            let s = model.sample(&mut rng);
            assert!(s >= lo && s <= hi);
        }
        assert_eq!(model.min(), lo);
    }
}
