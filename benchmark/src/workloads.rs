//! The named workloads. Names are final: later issues cite them.
//!
//! A workload is a fixed scenario run as *episodes*; episode `i` of a run
//! seeded `s` uses workload seed `s·10⁶ + i`. Episodes are deliberately
//! small because the checker every driver ends in is super-quadratic:
//! size decides which layer dominates. The harness adds no load threads —
//! admission is the driver's own closed loop at the scenario's `mpl`.
//! Every scenario runs with a 20 s time limit and, unless its shape says
//! otherwise, `ltm_service_us = 0`; sim scenarios keep the default
//! injected delay (500 µs + U[0,200] µs one-way), threaded and TCP run on
//! loopback with none.
//!
//! The drivers receive only the [`SimConfig`] generated here — never a
//! workload name.

use mdbs_sim::SimConfig;
use mdbs_simkit::SimTime;
use mdbs_workload::AccessPattern;

/// Which of the repository's three drivers runs a workload's episodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `mdbs_sim::Simulation`: single-threaded discrete-event run.
    Sim,
    /// `mdbs_sim::ThreadedRunner`: one OS thread per node, channels.
    Threaded,
    /// `mdbs_net::run_node`: one thread per role in this process, TCP on
    /// loopback between them.
    Tcp,
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    /// Episodes every run executes whatever `--seconds` says. Count
    /// metrics are pooled over exactly these, so on the deterministic
    /// driver they repeat exactly for a seed on any host.
    pub count_window: usize,
    /// After the count window a run goes round and round its first
    /// `repeat_set` episodes until `--seconds` have passed. On the sim
    /// `committed_txn_per_s` takes each of them at its best visit, so the
    /// set is small: every episode is visited often enough for one visit to
    /// fall between the host's disturbances. The other drivers report a
    /// quartile over all timed episodes and repeat the whole window.
    pub repeat_set: u64,
    /// Episodes one set-up pass runs as warm-up: enough that `setup_s`
    /// measures the scenario, not how much work episode 0's seed drew.
    pub warmup_episodes: u64,
    shape: fn(&mut SimConfig),
}

impl Workload {
    /// The scenario of episode `episode` of a run seeded `seed`.
    pub fn scenario(&self, seed: u64, episode: u64) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.workload.seed = seed.wrapping_mul(1_000_000).wrapping_add(episode);
        cfg.ltm_service_us = 0;
        cfg.time_limit = SimTime::from_secs(20);
        (self.shape)(&mut cfg);
        cfg
    }
}

/// 2 sites + 2 coordinators, 200 globals at `mpl` 8, no locals: the
/// cluster the threaded and TCP workloads share (sized to a 2-core host).
fn two_site_cluster(cfg: &mut SimConfig) {
    cfg.workload.sites = 2;
    cfg.workload.global_txns = 200;
    cfg.workload.local_txns_per_site = 0;
    cfg.workload.mpl = 8;
}

/// 4 sites, 150 globals at `mpl` 16, 2–4 commands per site on Zipf(0.9)
/// keys over 64 items: the contended shape the two protocol-path
/// workloads share. They split what one workload cannot hold at the seed
/// commit: exclusive locks *and* unilateral aborts together livelock
/// about one episode in 400 (see the README), and a benchmark workload
/// must be one on which nothing fails.
fn hot_keys(cfg: &mut SimConfig, write_fraction: f64) {
    cfg.workload.sites = 4;
    cfg.workload.global_txns = 150;
    cfg.workload.local_txns_per_site = 0;
    cfg.workload.mpl = 16;
    cfg.workload.access = AccessPattern::Zipf(0.9);
    cfg.workload.items_per_site = 64;
    cfg.workload.commands_per_site = (2, 4);
    cfg.workload.write_fraction = write_fraction;
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim-scale8",
        driver: Driver::Sim,
        count_window: 8,
        repeat_set: 2,
        warmup_episodes: 1,
        shape: |cfg| {
            cfg.workload.sites = 8;
            cfg.workload.global_txns = 32;
            cfg.workload.local_txns_per_site = 150;
        },
    },
    Workload {
        name: "sim-hot",
        driver: Driver::Sim,
        count_window: 600,
        repeat_set: 20,
        warmup_episodes: 10,
        shape: |cfg| hot_keys(cfg, 0.5),
    },
    Workload {
        name: "sim-resubmit",
        driver: Driver::Sim,
        count_window: 600,
        repeat_set: 20,
        warmup_episodes: 10,
        shape: |cfg| {
            // Read-only, so a resubmission never waits for a lock; the
            // LTM service time is what keeps an aborted subtransaction
            // not-alive long enough for later PREPAREs to be refused.
            hot_keys(cfg, 0.0);
            cfg.workload.unilateral_abort_prob = 0.3;
            cfg.ltm_service_us = 300;
        },
    },
    Workload {
        name: "threaded-2cm",
        driver: Driver::Threaded,
        count_window: 20,
        repeat_set: 20,
        warmup_episodes: 1,
        shape: two_site_cluster,
    },
    Workload {
        name: "tcp-2cm-mpl8",
        driver: Driver::Tcp,
        count_window: 16,
        repeat_set: 16,
        warmup_episodes: 1,
        shape: two_site_cluster,
    },
    Workload {
        name: "tcp-paxos-f1",
        driver: Driver::Tcp,
        count_window: 16,
        repeat_set: 16,
        warmup_episodes: 1,
        shape: |cfg| {
            two_site_cluster(cfg);
            cfg.consensus_f = 1;
        },
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_workload::predraw;

    #[test]
    fn same_seed_predraws_identical_programs_and_another_seed_does_not() {
        for w in &WORKLOADS {
            let a = predraw(&w.scenario(3, 0).workload);
            assert_eq!(a, predraw(&w.scenario(3, 0).workload), "{}", w.name);
            assert_ne!(a, predraw(&w.scenario(4, 0).workload), "{}", w.name);
            assert_ne!(a, predraw(&w.scenario(3, 1).workload), "{}", w.name);
        }
    }

    #[test]
    fn scenarios_share_the_stated_fixed_settings() {
        for w in &WORKLOADS {
            let cfg = w.scenario(1, 0);
            assert_eq!(cfg.time_limit, SimTime::from_secs(20));
            assert_eq!(cfg.coordinators, 2);
            assert!(cfg.faults.is_none() && cfg.crashes.is_empty());
            assert!(w.repeat_set >= 1 && w.repeat_set <= w.count_window as u64);
        }
    }
}
