//! One episode: hand a generated scenario to a driver, time its public
//! `new` and `run` calls from outside, and gate the result.

use std::time::Instant;

use mdbs_net::cluster::NodeStats;
use mdbs_net::{loopback_cluster, run_node, NodeOutput};
use mdbs_sim::report::outcome_digest;
use mdbs_sim::{NodeRole, SimConfig, SimReport, Simulation, ThreadedRunner};

use crate::spans::Recorder;
use crate::workloads::Driver;

/// What one episode did.
pub struct Episode {
    /// Wall seconds of the driver's constructor (`Simulation::new`,
    /// `ThreadedRunner::new`; a TCP cluster has none).
    pub new_s: f64,
    /// Wall seconds of the driver's whole run call: history collection
    /// and checker verdict included, because every driver does them.
    pub run_s: f64,
    /// Transactions the scenario submits (globals + locals).
    pub attempted: u64,
    /// Committed global transactions.
    pub committed_globals: u64,
    /// Committed global + local transactions.
    pub committed: u64,
    /// Protocol + control messages (`SimReport::messages`; for TCP the
    /// sum of `msgs_sent` over every node's stats line).
    pub messages: u64,
    /// The driver's timing-independent outcome digest.
    pub digest: u64,
    /// Correctness-gate violations; empty means the episode passed.
    pub violations: Vec<String>,
    /// The driver's report (sim and threaded only).
    pub report: Option<SimReport>,
    /// Transport counters summed over every node of a TCP cluster (all
    /// zero for the sim and threaded drivers, which have no transport).
    pub net: NodeStats,
}

impl Episode {
    /// Constructor plus run: the time a caller waits for this episode, so
    /// work moved from `run` into `new` cannot hide.
    pub fn wall_s(&self) -> f64 {
        self.new_s + self.run_s
    }
}

/// Transactions a scenario submits.
pub fn attempted(cfg: &SimConfig) -> u64 {
    let w = &cfg.workload;
    u64::from(w.global_txns) + u64::from(w.sites) * u64::from(w.local_txns_per_site)
}

/// Run one episode of `cfg` on `driver`, recording `mdbs.new` and
/// `mdbs.run` spans when a recorder is given.
pub fn run_episode(driver: Driver, cfg: SimConfig, mut rec: Option<&mut Recorder>) -> Episode {
    let rec = &mut rec;
    match driver {
        Driver::Sim => {
            let attempted = attempted(&cfg);
            let limit = cfg.time_limit;
            let (new_s, sim) = timed(rec, "mdbs.new", || Simulation::new(cfg));
            let (run_s, report) = timed(rec, "mdbs.run", || sim.run());
            let mut ep = from_report(new_s, run_s, attempted, report);
            let finished_at = ep.report.as_ref().expect("sim report").finished_at;
            if finished_at > limit {
                ep.violations
                    .push(format!("ran past the time limit ({finished_at:?})"));
            }
            ep
        }
        Driver::Threaded => {
            let attempted = attempted(&cfg);
            let (new_s, runner) = timed(rec, "mdbs.new", || ThreadedRunner::new(cfg));
            let (run_s, report) = timed(rec, "mdbs.run", || runner.run());
            from_report(new_s, run_s, attempted, report)
        }
        Driver::Tcp => run_cluster(cfg, rec),
    }
}

fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    let start = Instant::now();
    let out = match rec {
        Some(rec) => rec.scope(name, |_| f()),
        None => f(),
    };
    (start.elapsed().as_secs_f64(), out)
}

fn from_report(new_s: f64, run_s: f64, attempted: u64, report: SimReport) -> Episode {
    let mut violations = Vec::new();
    if !report.checks.passed() {
        violations.push(format!("checker verdict failed: {:?}", report.checks));
    }
    let settled = report.committed + report.aborted + report.local_committed + report.local_aborted;
    if settled != attempted {
        violations.push(format!(
            "{settled} of {attempted} transactions settled before the time limit"
        ));
    }
    Episode {
        new_s,
        run_s,
        attempted,
        committed_globals: report.committed,
        committed: report.committed + report.local_committed,
        messages: report.messages,
        digest: outcome_digest(&report.history, &report.checks),
        violations,
        report: Some(report),
        net: NodeStats::default(),
    }
}

/// An in-process TCP cluster: one thread per role calling
/// `mdbs_net::run_node`, every node on a fresh loopback address. The
/// driver role (coordinator 0) starts last so its first connects find the
/// other listeners bound instead of backing off.
fn run_cluster(cfg: SimConfig, rec: &mut Option<&mut Recorder>) -> Episode {
    let attempted = attempted(&cfg);
    let cluster = loopback_cluster(cfg).expect("reserve loopback addresses");
    let mut roles = cluster.roles();
    roles.retain(|r| *r != NodeRole::Coordinator(0));
    roles.push(NodeRole::Coordinator(0));

    let (run_s, outputs) = timed(rec, "mdbs.run", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = roles
                .iter()
                .map(|&role| {
                    let cluster = &cluster;
                    s.spawn(move || run_node(cluster, role))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect::<Vec<std::io::Result<NodeOutput>>>()
        })
    });

    let mut violations = Vec::new();
    let mut lines = Vec::new();
    for (role, out) in roles.iter().zip(outputs) {
        match out {
            Ok(out) => lines.extend(out.lines),
            Err(e) => violations.push(format!("{}: {e}", role.key())),
        }
    }
    let mut ep = Episode {
        new_s: 0.0,
        run_s,
        attempted,
        committed_globals: 0,
        committed: 0,
        messages: 0,
        digest: 0,
        violations,
        report: None,
        net: NodeStats::default(),
    };
    let mut settled = 0;
    for line in &lines {
        let Some(rest) = line.strip_prefix("mdbs-node ") else {
            continue;
        };
        let num = |key: &str| field(rest, key).unwrap_or_else(|| panic!("no {key} in {line:?}"));
        match rest.split_whitespace().next() {
            Some("outcome") => ep.digest = num("digest"),
            Some("summary") => {
                ep.committed_globals = num("committed");
                ep.committed = num("committed") + num("local_committed");
                settled = ep.committed + num("aborted") + num("local_aborted");
                if !rest.contains("checks_passed=true") {
                    ep.violations.push("checker verdict failed".into());
                }
            }
            Some("stats") => {
                ep.net.frames_sent += num("frames_sent");
                ep.net.msgs_sent += num("msgs_sent");
                ep.net.batches_sent += num("batches_sent");
                ep.net.connects += num("connects");
                ep.net.decode_errors += num("decode_errors");
            }
            Some("missing-report") => ep.violations.push(line.clone()),
            _ => {}
        }
    }
    ep.messages = ep.net.msgs_sent;
    if ep.net.decode_errors != 0 {
        ep.violations
            .push(format!("{} decode errors", ep.net.decode_errors));
    }
    if settled != attempted {
        ep.violations.push(format!(
            "{settled} of {attempted} transactions settled before the time limit"
        ));
    }
    ep
}

/// The numeric `key=value` field of one `mdbs-node …` line (decimal, or
/// hex with a `0x` prefix as the digests are printed).
fn field(line: &str, key: &str) -> Option<u64> {
    let value = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))?;
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, WORKLOADS};

    #[test]
    fn field_reads_decimal_and_hex() {
        let line = "stats node=1000000 frames_sent=40 msgs_sent=90 digest=0x00000000deadbeef";
        assert_eq!(field(line, "msgs_sent"), Some(90));
        assert_eq!(field(line, "frames_sent"), Some(40));
        assert_eq!(field(line, "digest"), Some(0xdead_beef));
        assert_eq!(field(line, "sent"), None);
    }

    /// One-episode smoke of every workload: the gate passes, work was done.
    #[test]
    fn every_workload_runs_one_clean_episode() {
        for w in &WORKLOADS {
            let ep = run_episode(w.driver, w.scenario(1, 0), None);
            assert!(ep.violations.is_empty(), "{}: {:?}", w.name, ep.violations);
            assert!(ep.committed_globals > 0 && ep.committed <= ep.attempted);
            assert!(ep.messages > ep.committed_globals, "{}", w.name);
            assert_eq!(ep.report.is_some(), w.driver != Driver::Tcp);
            assert_eq!(ep.net.frames_sent > 0, w.driver == Driver::Tcp);
        }
    }

    #[test]
    fn the_deterministic_driver_repeats_its_digest() {
        let w = by_name("sim-hot").expect("workload");
        let a = run_episode(w.driver, w.scenario(2, 0), None);
        let b = run_episode(w.driver, w.scenario(2, 0), None);
        assert_eq!(a.digest, b.digest);
        assert_eq!((a.committed, a.messages), (b.committed, b.messages));
    }
}
