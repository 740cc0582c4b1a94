//! Deterministic fault injection ("TortureNet").
//!
//! The paper's §2 assumes a reliable FIFO network so the certification proofs
//! can ignore telecommunication failures. This module makes each of those
//! assumptions a *knob*: a [`FaultPlan`] is a finite, explicit list of
//! [`FaultAction`]s — delay spikes, duplications, bounded reorder windows,
//! transient partitions, site crash points, unilateral-abort bursts — sampled
//! up front from a seeded [`DetRng`], so every chaos run is bit-for-bit
//! reproducible and a failing plan can be *shrunk* by bisecting its action
//! list.
//!
//! [`FaultyNetwork`] wraps the reliable [`Network`] and applies the plan at
//! delivery-time computation:
//!
//! - **DelaySpike** feeds `now + extra` through the normal FIFO clamp — it
//!   slows a link but honors §2 ordering (later messages on the link are
//!   pushed behind the delayed one).
//! - **Reorder** bypasses the clamp ([`Network::raw_latency`] + jitter), so a
//!   later message on the *same* link may overtake — deliberately violating
//!   §2 FIFO (distinct from the §5.3 cross-link overtake, which the reliable
//!   network already exhibits).
//! - **Duplicate** delivers a second copy after a sampled gap — violating
//!   exactly-once.
//! - **Drop** / **Partition** suppress delivery — violating no-loss.
//!
//! An empty plan is an exact passthrough: the wrapped network consumes the
//! same random draws as an unwrapped one, so fault-free golden digests are
//! unchanged.

use crate::net::{Network, NodeId};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One injected fault, active on a match of link and time window.
///
/// `src`/`dst` of `None` match any endpoint; times are microseconds of
/// simulated (or elapsed wall-clock, for the threaded driver) time, with
/// `from_us <= t < until_us` active.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Add `extra_us` to the latency of matching sends (FIFO-preserving).
    DelaySpike {
        /// Sending endpoint filter (`None` = any).
        src: Option<NodeId>,
        /// Receiving endpoint filter (`None` = any).
        dst: Option<NodeId>,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        until_us: u64,
        /// Extra latency added to each matching send, µs.
        extra_us: u64,
    },
    /// Deliver a second copy of matching sends, `1..=gap_us` later.
    Duplicate {
        /// Sending endpoint filter (`None` = any).
        src: Option<NodeId>,
        /// Receiving endpoint filter (`None` = any).
        dst: Option<NodeId>,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        until_us: u64,
        /// Maximum gap between the original and the copy, µs.
        gap_us: u64,
    },
    /// Bypass the per-link FIFO clamp and add jitter in `[0, jitter_us]`,
    /// allowing same-link overtaking (bounded by the window length).
    Reorder {
        /// Sending endpoint filter (`None` = any).
        src: Option<NodeId>,
        /// Receiving endpoint filter (`None` = any).
        dst: Option<NodeId>,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        until_us: u64,
        /// Maximum jitter added on top of the raw latency, µs.
        jitter_us: u64,
    },
    /// Silently discard matching sends.
    Drop {
        /// Sending endpoint filter (`None` = any).
        src: Option<NodeId>,
        /// Receiving endpoint filter (`None` = any).
        dst: Option<NodeId>,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        until_us: u64,
    },
    /// Transient partition: while active, discard every send crossing the
    /// boundary between `group` and its complement (both directions).
    Partition {
        /// Nodes on one side of the cut.
        group: Vec<NodeId>,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        until_us: u64,
    },
    /// Crash a site at a fixed point in time (sim driver only; the threaded
    /// runner has no crash/recovery support and ignores these).
    SiteCrash {
        /// Site to crash (site id, not an arbitrary node id).
        site: NodeId,
        /// Crash instant, µs.
        at_us: u64,
    },
    /// Crash a coordinator at a fixed point in time, leaving its in-flight
    /// transactions to Paxos Commit failover (or blocked, at `F=0`). The
    /// driver ignores these when the coordinator index is out of range.
    CoordCrash {
        /// Coordinator to crash (coordinator *number*, not a node id).
        coord: u32,
        /// Crash instant, µs.
        at_us: u64,
    },
    /// While active, boost the per-prepare unilateral-abort probability to at
    /// least `boost` (stressing §4.4 resubmission of prepared incarnations).
    AbortBurst {
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        until_us: u64,
        /// Probability of an extra injected abort per prepare in the window.
        boost: f64,
    },
}

fn window_active(from_us: u64, until_us: u64, now_us: u64) -> bool {
    from_us <= now_us && now_us < until_us
}

fn link_matches(src: Option<NodeId>, dst: Option<NodeId>, s: NodeId, d: NodeId) -> bool {
    src.is_none_or(|x| x == s) && dst.is_none_or(|x| x == d)
}

/// A fully sampled, explicit fault schedule.
///
/// Serializable so a failing configuration (including its faults) can be
/// embedded verbatim in a minimal reproducer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The injected faults, in sampling order. Order is irrelevant to
    /// semantics (all active matches apply) but stable for shrinking.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// A plan with no faults (exact passthrough).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True if the plan contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Sample a plan from `profile` under `seed`.
    ///
    /// `nodes` are all link endpoints (sites and coordinators); `sites` the
    /// subset eligible for crash points. Sampling uses a substream keyed only
    /// by `seed`, so the same (profile, seed) pair always yields the same
    /// plan regardless of surrounding RNG use.
    pub fn sample(profile: &FaultProfile, seed: u64, nodes: &[NodeId], sites: &[NodeId]) -> Self {
        let mut rng = DetRng::new(seed).substream("faultplan");
        let mut actions = Vec::new();
        let window = |rng: &mut DetRng| -> (u64, u64) {
            let start = rng.uniform_u64_incl(0, profile.horizon_us.saturating_sub(1));
            let len = rng.uniform_u64_incl(profile.window_us.0, profile.window_us.1);
            (start, start.saturating_add(len.max(1)))
        };
        // Half the link faults hit every link, half a concrete pair: wildcard
        // windows guarantee traffic is actually affected, concrete ones keep
        // asymmetric scenarios (e.g. §5.3-style one-slow-link races) in play.
        let link = |rng: &mut DetRng| -> (Option<NodeId>, Option<NodeId>) {
            if nodes.len() < 2 || rng.chance(0.5) {
                (None, None)
            } else {
                let s = nodes[rng.index(nodes.len())];
                let mut d = nodes[rng.index(nodes.len())];
                if d == s {
                    d = nodes[(nodes.iter().position(|n| *n == s).unwrap() + 1) % nodes.len()];
                }
                (Some(s), Some(d))
            }
        };
        for _ in 0..profile.delay_spikes {
            let (src, dst) = link(&mut rng);
            let (from_us, until_us) = window(&mut rng);
            let extra_us = rng.uniform_u64_incl(profile.spike_extra_us.0, profile.spike_extra_us.1);
            actions.push(FaultAction::DelaySpike {
                src,
                dst,
                from_us,
                until_us,
                extra_us,
            });
        }
        for _ in 0..profile.duplicates {
            let (src, dst) = link(&mut rng);
            let (from_us, until_us) = window(&mut rng);
            actions.push(FaultAction::Duplicate {
                src,
                dst,
                from_us,
                until_us,
                gap_us: profile.dup_gap_us,
            });
        }
        for _ in 0..profile.reorders {
            let (src, dst) = link(&mut rng);
            let (from_us, until_us) = window(&mut rng);
            actions.push(FaultAction::Reorder {
                src,
                dst,
                from_us,
                until_us,
                jitter_us: profile.reorder_jitter_us,
            });
        }
        for _ in 0..profile.drops {
            let (src, dst) = link(&mut rng);
            let (from_us, until_us) = window(&mut rng);
            actions.push(FaultAction::Drop {
                src,
                dst,
                from_us,
                until_us,
            });
        }
        for _ in 0..profile.partitions {
            if nodes.len() < 2 {
                break;
            }
            // Cut off a random non-empty proper subset of nodes.
            let cut = 1 + rng.index(nodes.len() - 1);
            let mut pool = nodes.to_vec();
            rng.shuffle(&mut pool);
            pool.truncate(cut);
            pool.sort_unstable();
            let (from_us, until_us) = window(&mut rng);
            actions.push(FaultAction::Partition {
                group: pool,
                from_us,
                until_us,
            });
        }
        for _ in 0..profile.crashes {
            if sites.is_empty() {
                break;
            }
            let site = sites[rng.index(sites.len())];
            let at_us = rng.uniform_u64_incl(profile.crash_at_us.0, profile.crash_at_us.1);
            actions.push(FaultAction::SiteCrash { site, at_us });
        }
        for _ in 0..profile.abort_bursts {
            let (from_us, until_us) = window(&mut rng);
            actions.push(FaultAction::AbortBurst {
                from_us,
                until_us,
                boost: profile.burst_boost,
            });
        }
        // Coordinators are the non-site endpoints; the sampled value is a
        // coordinator *number* (index into that set), which every driver
        // resolves against its own coordinator count.
        let coord_count = nodes.iter().filter(|n| !sites.contains(n)).count();
        for _ in 0..profile.coord_crashes {
            if coord_count == 0 {
                break;
            }
            let coord = rng.index(coord_count) as u32;
            let at_us = rng.uniform_u64_incl(profile.crash_at_us.0, profile.crash_at_us.1);
            actions.push(FaultAction::CoordCrash { coord, at_us });
        }
        FaultPlan { actions }
    }

    /// Total extra delay active for a send on `(src, dst)` at `now_us`.
    pub fn delay_extra_us(&self, src: NodeId, dst: NodeId, now_us: u64) -> u64 {
        self.actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::DelaySpike {
                    src: s,
                    dst: d,
                    from_us,
                    until_us,
                    extra_us,
                } if link_matches(*s, *d, src, dst)
                    && window_active(*from_us, *until_us, now_us) =>
                {
                    Some(*extra_us)
                }
                _ => None,
            })
            .sum()
    }

    /// Maximum duplicate gap active for a send on `(src, dst)` at `now_us`.
    pub fn duplicate_gap_us(&self, src: NodeId, dst: NodeId, now_us: u64) -> Option<u64> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::Duplicate {
                    src: s,
                    dst: d,
                    from_us,
                    until_us,
                    gap_us,
                } if link_matches(*s, *d, src, dst)
                    && window_active(*from_us, *until_us, now_us) =>
                {
                    Some(*gap_us)
                }
                _ => None,
            })
            .max()
    }

    /// Maximum reorder jitter active for a send on `(src, dst)` at `now_us`.
    pub fn reorder_jitter_us(&self, src: NodeId, dst: NodeId, now_us: u64) -> Option<u64> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::Reorder {
                    src: s,
                    dst: d,
                    from_us,
                    until_us,
                    jitter_us,
                } if link_matches(*s, *d, src, dst)
                    && window_active(*from_us, *until_us, now_us) =>
                {
                    Some(*jitter_us)
                }
                _ => None,
            })
            .max()
    }

    /// True if a send on `(src, dst)` at `now_us` is lost (drop window or
    /// active partition crossing).
    pub fn dropped(&self, src: NodeId, dst: NodeId, now_us: u64) -> bool {
        self.actions.iter().any(|a| match a {
            FaultAction::Drop {
                src: s,
                dst: d,
                from_us,
                until_us,
            } => link_matches(*s, *d, src, dst) && window_active(*from_us, *until_us, now_us),
            FaultAction::Partition {
                group,
                from_us,
                until_us,
            } => {
                window_active(*from_us, *until_us, now_us)
                    && group.contains(&src) != group.contains(&dst)
            }
            _ => false,
        })
    }

    /// Scheduled crash points `(site, at_us)`.
    pub fn site_crashes(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.actions.iter().filter_map(|a| match a {
            FaultAction::SiteCrash { site, at_us } => Some((*site, *at_us)),
            _ => None,
        })
    }

    /// Scheduled coordinator crash points `(coord_number, at_us)`.
    pub fn coord_crashes(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.actions.iter().filter_map(|a| match a {
            FaultAction::CoordCrash { coord, at_us } => Some((*coord, *at_us)),
            _ => None,
        })
    }

    /// The strongest abort-burst boost active at `now_us` (0.0 if none).
    pub fn abort_boost(&self, now_us: u64) -> f64 {
        self.actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::AbortBurst {
                    from_us,
                    until_us,
                    boost,
                } if window_active(*from_us, *until_us, now_us) => Some(*boost),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// Knob settings from which a [`FaultPlan`] is sampled.
///
/// Counts say how many windows of each kind to place; ranges bound the
/// sampled magnitudes. Each knob corresponds to one paper assumption — see
/// DESIGN.md §"Fault model".
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Display name, used in reports and test labels.
    pub name: String,
    /// Window start times are sampled in `[0, horizon_us)`.
    pub horizon_us: u64,
    /// Window length range `[lo, hi]`, µs.
    pub window_us: (u64, u64),
    /// Number of delay-spike windows.
    pub delay_spikes: u32,
    /// Extra-latency range `[lo, hi]` for delay spikes, µs.
    pub spike_extra_us: (u64, u64),
    /// Number of duplication windows.
    pub duplicates: u32,
    /// Maximum original-to-copy gap, µs.
    pub dup_gap_us: u64,
    /// Number of reorder (FIFO-violating) windows.
    pub reorders: u32,
    /// Maximum reorder jitter, µs.
    pub reorder_jitter_us: u64,
    /// Number of drop windows.
    pub drops: u32,
    /// Number of transient partitions.
    pub partitions: u32,
    /// Number of site crash points.
    pub crashes: u32,
    /// Number of coordinator crash points (Paxos Commit failover drills;
    /// crash instants share `crash_at_us`).
    pub coord_crashes: u32,
    /// Crash-instant range `[lo, hi]`, µs.
    pub crash_at_us: (u64, u64),
    /// Number of unilateral-abort burst windows.
    pub abort_bursts: u32,
    /// Per-prepare injected-abort probability inside a burst window.
    pub burst_boost: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            name: "benign".to_string(),
            horizon_us: 1_000_000,
            window_us: (5_000, 50_000),
            delay_spikes: 0,
            spike_extra_us: (1_000, 20_000),
            duplicates: 0,
            dup_gap_us: 2_000,
            reorders: 0,
            reorder_jitter_us: 5_000,
            drops: 0,
            partitions: 0,
            crashes: 0,
            coord_crashes: 0,
            crash_at_us: (10_000, 500_000),
            abort_bursts: 0,
            burst_boost: 0.5,
        }
    }
}

impl FaultProfile {
    /// True if plans from this profile can lose messages (§2 no-loss broken).
    pub fn violates_no_loss(&self) -> bool {
        self.drops > 0 || self.partitions > 0
    }

    /// True if plans from this profile can break per-link FIFO (§2 order).
    pub fn violates_fifo(&self) -> bool {
        self.reorders > 0
    }

    /// True if plans from this profile can kill a coordinator mid-2PC (the
    /// §2 assumption that the decision-maker survives until the decision).
    pub fn violates_coord_liveness(&self) -> bool {
        self.coord_crashes > 0
    }
}

/// What the fault layer did to one send (for trace events and metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedFault {
    /// The message was discarded.
    Dropped,
    /// A second copy was scheduled.
    Duplicated,
    /// Extra latency (µs) was added, FIFO preserved.
    Delayed(u64),
    /// The FIFO clamp was bypassed (same-link overtaking possible).
    Reordered,
}

/// A [`Network`] wrapper that applies a [`FaultPlan`].
///
/// Fault magnitudes (reorder jitter, duplicate gaps) draw from a dedicated
/// RNG so the wrapped network's latency stream stays a pure function of the
/// message sequence. With an empty plan, [`FaultyNetwork::deliver`] is
/// draw-for-draw identical to [`Network::delivery_time`].
#[derive(Debug)]
pub struct FaultyNetwork {
    inner: Network,
    plan: FaultPlan,
    rng: DetRng,
}

impl FaultyNetwork {
    /// Wrap `inner` with `plan`; `rng` drives fault magnitude draws.
    pub fn new(inner: Network, plan: FaultPlan, rng: DetRng) -> Self {
        FaultyNetwork { inner, plan, rng }
    }

    /// The wrapped reliable network (e.g. for un-faulted control traffic).
    pub fn inner_mut(&mut self) -> &mut Network {
        &mut self.inner
    }

    /// Shared read access to the wrapped network.
    pub fn inner(&self) -> &Network {
        &self.inner
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Compute delivery times for a send from `src` to `dst` at `now`.
    ///
    /// Returns zero (dropped), one (normal), or two (duplicated) delivery
    /// times, plus the faults applied. The message counter advances exactly
    /// once per call regardless, so `messages_sent` keeps meaning "protocol
    /// sends handed to the network".
    pub fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> (Vec<SimTime>, Vec<AppliedFault>) {
        self.inner.count_message();
        let now_us = now.as_micros();
        if self.plan.dropped(src, dst, now_us) {
            return (Vec::new(), vec![AppliedFault::Dropped]);
        }
        let mut applied = Vec::new();
        let lat = self.inner.raw_latency(src, dst);
        let extra = self.plan.delay_extra_us(src, dst, now_us);
        if extra > 0 {
            applied.push(AppliedFault::Delayed(extra));
        }
        let raw = now + lat + SimDuration::from_micros(extra);
        let reorder = self.plan.reorder_jitter_us(src, dst, now_us);
        let first = match reorder {
            Some(jitter_us) => {
                applied.push(AppliedFault::Reordered);
                raw + SimDuration::from_micros(self.rng.uniform_u64_incl(0, jitter_us))
            }
            None => self.inner.clamp_delivery(src, dst, raw),
        };
        let mut times = vec![first];
        if let Some(gap_us) = self.plan.duplicate_gap_us(src, dst, now_us) {
            applied.push(AppliedFault::Duplicated);
            let second_raw =
                first + SimDuration::from_micros(self.rng.uniform_u64_incl(1, gap_us.max(1)));
            let second = if reorder.is_some() {
                second_raw
            } else {
                self.inner.clamp_delivery(src, dst, second_raw)
            };
            times.push(second);
        }
        (times, applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LatencyModel;

    fn base_net(seed: u64) -> Network {
        Network::new(
            LatencyModel::Uniform(SimDuration::from_micros(100), SimDuration::from_micros(900)),
            DetRng::new(seed).substream("network"),
        )
    }

    fn torture_profile() -> FaultProfile {
        FaultProfile {
            name: "torture".into(),
            delay_spikes: 3,
            duplicates: 2,
            reorders: 2,
            drops: 1,
            partitions: 1,
            crashes: 1,
            abort_bursts: 1,
            ..FaultProfile::default()
        }
    }

    #[test]
    fn empty_plan_is_exact_passthrough() {
        let mut plain = base_net(42);
        let mut faulty = FaultyNetwork::new(base_net(42), FaultPlan::empty(), DetRng::new(0));
        for i in 0..300u64 {
            let now = SimTime::from_micros(i * 37);
            let (src, dst) = ((i % 3) as NodeId, ((i + 1) % 3) as NodeId);
            let expect = plain.delivery_time(src, dst, now);
            let (times, applied) = faulty.deliver(src, dst, now);
            assert_eq!(times, vec![expect]);
            assert!(applied.is_empty());
        }
        assert_eq!(plain.messages_sent(), faulty.inner().messages_sent());
    }

    #[test]
    fn plan_sampling_is_deterministic_per_seed() {
        let profile = torture_profile();
        let nodes = [0, 1, 2, 1_000_000];
        let sites = [0, 1, 2];
        let a = FaultPlan::sample(&profile, 7, &nodes, &sites);
        let b = FaultPlan::sample(&profile, 7, &nodes, &sites);
        assert_eq!(a, b);
        let c = FaultPlan::sample(&profile, 8, &nodes, &sites);
        assert_ne!(a, c, "different seeds should differ for this profile");
        let expected = profile.delay_spikes
            + profile.duplicates
            + profile.reorders
            + profile.drops
            + profile.partitions
            + profile.crashes
            + profile.abort_bursts;
        assert_eq!(a.actions.len(), expected as usize);
    }

    #[test]
    fn drop_window_discards_and_counts() {
        let plan = FaultPlan {
            actions: vec![FaultAction::Drop {
                src: None,
                dst: None,
                from_us: 100,
                until_us: 200,
            }],
        };
        let mut f = FaultyNetwork::new(base_net(1), plan, DetRng::new(1).substream("netfault"));
        let (times, applied) = f.deliver(0, 1, SimTime::from_micros(150));
        assert!(times.is_empty());
        assert_eq!(applied, vec![AppliedFault::Dropped]);
        // Outside the window the message passes.
        let (times, applied) = f.deliver(0, 1, SimTime::from_micros(250));
        assert_eq!(times.len(), 1);
        assert!(applied.is_empty());
        // Both sends were handed to the network.
        assert_eq!(f.inner().messages_sent(), 2);
    }

    #[test]
    fn partition_cuts_both_directions_only_across_groups() {
        let plan = FaultPlan {
            actions: vec![FaultAction::Partition {
                group: vec![0, 1],
                from_us: 0,
                until_us: 1_000,
            }],
        };
        let mut f = FaultyNetwork::new(base_net(2), plan, DetRng::new(2).substream("netfault"));
        let now = SimTime::from_micros(10);
        assert!(f.deliver(0, 2, now).0.is_empty(), "cross-cut dropped");
        assert!(
            f.deliver(2, 1, now).0.is_empty(),
            "reverse direction dropped"
        );
        assert_eq!(f.deliver(0, 1, now).0.len(), 1, "inside group passes");
        assert_eq!(f.deliver(2, 3, now).0.len(), 1, "outside group passes");
    }

    #[test]
    fn delay_spike_preserves_fifo() {
        let plan = FaultPlan {
            actions: vec![FaultAction::DelaySpike {
                src: Some(0),
                dst: Some(1),
                from_us: 0,
                until_us: 1_000,
                extra_us: 50_000,
            }],
        };
        let mut f = FaultyNetwork::new(base_net(3), plan, DetRng::new(3).substream("netfault"));
        // Spiked message, then a later send after the window: the later send
        // must still be clamped behind the spiked one (FIFO honored).
        let (spiked, applied) = f.deliver(0, 1, SimTime::from_micros(500));
        assert!(applied.contains(&AppliedFault::Delayed(50_000)));
        let (after, _) = f.deliver(0, 1, SimTime::from_micros(2_000));
        assert!(after[0] > spiked[0], "FIFO clamp must hold under spikes");
    }

    #[test]
    fn reorder_window_can_overtake_on_same_link() {
        let plan = FaultPlan {
            actions: vec![FaultAction::Reorder {
                src: Some(0),
                dst: Some(1),
                from_us: 0,
                until_us: 10_000,
                jitter_us: 20_000,
            }],
        };
        let mut overtaken = false;
        // Try a few seeds: overtaking is probabilistic per draw, deterministic
        // per seed — at least one of these must exhibit it.
        for seed in 0..20u64 {
            let mut f = FaultyNetwork::new(
                base_net(seed),
                plan.clone(),
                DetRng::new(seed).substream("netfault"),
            );
            let (a, _) = f.deliver(0, 1, SimTime::from_micros(100));
            let (b, _) = f.deliver(0, 1, SimTime::from_micros(200));
            if b[0] < a[0] {
                overtaken = true;
                break;
            }
        }
        assert!(
            overtaken,
            "reorder window never produced same-link overtake"
        );
    }

    #[test]
    fn duplicate_delivers_two_ordered_copies() {
        let plan = FaultPlan {
            actions: vec![FaultAction::Duplicate {
                src: None,
                dst: None,
                from_us: 0,
                until_us: 1_000,
                gap_us: 500,
            }],
        };
        let mut f = FaultyNetwork::new(base_net(4), plan, DetRng::new(4).substream("netfault"));
        let (times, applied) = f.deliver(0, 1, SimTime::from_micros(10));
        assert_eq!(times.len(), 2);
        assert!(times[1] > times[0]);
        assert_eq!(applied, vec![AppliedFault::Duplicated]);
        // One protocol send, even though two copies deliver.
        assert_eq!(f.inner().messages_sent(), 1);
    }

    #[test]
    fn plan_queries_cover_crashes_and_bursts() {
        let plan = FaultPlan {
            actions: vec![
                FaultAction::SiteCrash { site: 2, at_us: 77 },
                FaultAction::AbortBurst {
                    from_us: 100,
                    until_us: 200,
                    boost: 0.75,
                },
            ],
        };
        assert_eq!(plan.site_crashes().collect::<Vec<_>>(), vec![(2, 77)]);
        assert_eq!(plan.abort_boost(150), 0.75);
        assert_eq!(plan.abort_boost(250), 0.0);
    }

    #[test]
    fn profile_violation_flags() {
        let p = torture_profile();
        assert!(p.violates_no_loss());
        assert!(p.violates_fifo());
        let benign = FaultProfile {
            delay_spikes: 4,
            abort_bursts: 2,
            ..FaultProfile::default()
        };
        assert!(!benign.violates_no_loss());
        assert!(!benign.violates_fifo());
    }

    #[test]
    fn sampled_windows_lie_in_horizon_and_crashes_hit_sites() {
        let profile = torture_profile();
        let plan = FaultPlan::sample(&profile, 99, &[0, 1, 2, 1_000_000], &[0, 1, 2]);
        for a in &plan.actions {
            match a {
                FaultAction::DelaySpike { from_us, .. }
                | FaultAction::Duplicate { from_us, .. }
                | FaultAction::Reorder { from_us, .. }
                | FaultAction::Drop { from_us, .. }
                | FaultAction::Partition { from_us, .. }
                | FaultAction::AbortBurst { from_us, .. } => {
                    assert!(*from_us < profile.horizon_us);
                }
                FaultAction::SiteCrash { site, at_us } => {
                    assert!([0, 1, 2].contains(site), "crash must target a site");
                    assert!(*at_us >= profile.crash_at_us.0 && *at_us <= profile.crash_at_us.1);
                }
                FaultAction::CoordCrash { coord, at_us } => {
                    assert!(*coord < 1, "one non-site endpoint in this topology");
                    assert!(*at_us >= profile.crash_at_us.0 && *at_us <= profile.crash_at_us.1);
                }
            }
        }
    }

    #[test]
    fn coord_crashes_sample_indices_not_node_ids() {
        let profile = FaultProfile {
            coord_crashes: 3,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::sample(&profile, 5, &[0, 1, 1_000_000, 1_000_001], &[0, 1]);
        let crashes: Vec<(u32, u64)> = plan.coord_crashes().collect();
        assert_eq!(crashes.len(), 3);
        for (coord, at_us) in crashes {
            assert!(coord < 2, "two coordinators in this topology");
            assert!(at_us >= profile.crash_at_us.0 && at_us <= profile.crash_at_us.1);
        }
        // No coordinators in the node set: the knob degrades to nothing.
        let none = FaultPlan::sample(&profile, 5, &[0, 1], &[0, 1]);
        assert_eq!(none.coord_crashes().count(), 0);
        assert!(profile.violates_coord_liveness());
        assert!(!FaultProfile::default().violates_coord_liveness());
    }
}
