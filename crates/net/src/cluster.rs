//! The cluster harness: spawn one `mdbs-node` process per role, wait for
//! the run, and harvest the driver's digest lines.
//!
//! This is how the loopback equivalence test and the CI smoke job drive a
//! real cluster: build a [`ClusterConfig`] (usually via
//! [`loopback_cluster`], which reserves ephemeral ports), point
//! [`ClusterRunner`] at the `mdbs-node` binary, and compare the parsed
//! [`ClusterOutcome`] against a simulation run of the same scenario.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdbs_sim::{ClusterConfig, NodeRole, Protocol, SimConfig};

/// One node's transport counters, parsed from its `mdbs-node stats` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Frames written and flushed.
    pub frames_sent: u64,
    /// Frames received and decoded.
    pub frames_received: u64,
    /// Messages carried by sent frames (≥ frames when batches coalesce).
    pub msgs_sent: u64,
    /// Messages carried by received frames.
    pub msgs_received: u64,
    /// Sent frames that coalesced more than one message.
    pub batches_sent: u64,
    /// Successful outbound connections (first connects and reconnects).
    pub connects: u64,
    /// Inbound connections severed by framing/codec errors.
    pub decode_errors: u64,
    /// Deliberate fault-hook connection drops.
    pub test_drops: u64,
    /// Sent frames the sending thread wrote itself; the rest left through
    /// a writer thread.
    pub frames_written_through: u64,
    /// LDBS deadlock victims (sites only, like the four below: what can
    /// move a verdict there).
    pub deadlock_victims: u64,
    /// Lock waits that ran into the wait timeout.
    pub wait_timeouts: u64,
    /// PREPAREs refused by §5.3's serial-number order.
    pub refused_sn_out_of_order: u64,
    /// PREPAREs refused by §4.2's interval intersection.
    pub refused_interval_disjoint: u64,
    /// PREPAREs refused because the subtransaction was not alive.
    pub refused_not_alive: u64,
}

/// Everything a cluster run reports, parsed from the processes' stdout.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Timing-independent digest over global verdicts + checker verdicts
    /// (comparable with `mdbs_sim::report::outcome_digest` of a sim run).
    pub outcome_digest: u64,
    /// Per-site certifier-verdict digests, by site id.
    pub site_verdicts: BTreeMap<u32, u64>,
    /// Globally committed transactions.
    pub committed: u64,
    /// Globally aborted transactions.
    pub aborted: u64,
    /// Committed local transactions across all sites.
    pub local_committed: u64,
    /// Aborted local transactions across all sites.
    pub local_aborted: u64,
    /// Whether the merged history passed every checker.
    pub checks_passed: bool,
    /// Per-node transport counters, by runtime node id.
    pub stats: BTreeMap<u32, NodeStats>,
    /// Nodes whose history report never reached the driver.
    pub missing_reports: Vec<u32>,
}

/// Reserve `n` distinct loopback addresses by binding ephemeral ports
/// simultaneously (so they cannot collide with each other), then
/// releasing them.
///
/// Released, not handed over: a multi-process cluster must know every
/// address before any process starts, so each `mdbs-node` binds its own
/// later. Between the release and that bind another socket on the host
/// can take the port (`AddrInUse` after many back-to-back runs leave
/// hundreds of ports in TIME_WAIT). In-process tests that own their
/// listeners bind port 0 and keep it instead.
pub fn loopback_addrs(n: usize) -> io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.to_string()))
        .collect()
}

/// Build a [`ClusterConfig`] for `scenario` with every node on a fresh
/// loopback address.
pub fn loopback_cluster(scenario: SimConfig) -> io::Result<ClusterConfig> {
    let sites = scenario.workload.sites as usize;
    let coords = scenario.coordinators as usize;
    let central = matches!(scenario.protocol, Protocol::Cgm);
    let acceptors = if scenario.consensus_f > 0 {
        mdbs_consensus::acceptor_count(scenario.consensus_f) as usize
    } else {
        0
    };
    let mut addrs = loopback_addrs(sites + coords + usize::from(central) + acceptors)?;
    let acceptor_addrs = addrs.split_off(sites + coords + usize::from(central));
    // `addrs` reserved one extra slot when `central` is set, so this pop
    // always succeeds; an `if` keeps the non-central path panic-free.
    let central_addr = if central { addrs.pop() } else { None };
    let coord_addrs = addrs.split_off(sites);
    Ok(ClusterConfig {
        scenario,
        site_addrs: addrs,
        coord_addrs,
        central_addr,
        acceptor_addrs,
        batch_max: 256,
        // The node loop group-flushes once per burst; a writer that also
        // holds an underfull frame open batches twice, and the second
        // wait reorders PREPAREs across links (§5.3 refusals).
        flush_deadline_us: 0,
        test_drop: Vec::new(),
    })
}

/// Spawns one `mdbs-node` process per cluster role and parses the result.
pub struct ClusterRunner {
    binary: PathBuf,
    cfg: ClusterConfig,
}

struct Proc {
    role: NodeRole,
    child: Child,
    stdout: JoinHandle<String>,
    stderr: JoinHandle<String>,
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    })
}

static CONFIG_SEQ: AtomicU64 = AtomicU64::new(0);

impl ClusterRunner {
    /// A runner for `cfg`, executing the `mdbs-node` binary at `binary`
    /// (tests pass `env!("CARGO_BIN_EXE_mdbs-node")`).
    pub fn new(binary: impl Into<PathBuf>, cfg: ClusterConfig) -> ClusterRunner {
        ClusterRunner {
            binary: binary.into(),
            cfg,
        }
    }

    /// Run the whole cluster to completion, killing every process that
    /// outlives `timeout`.
    pub fn run(&self, timeout: Duration) -> Result<ClusterOutcome, String> {
        let text = self
            .cfg
            .to_kv_text()
            .map_err(|e| format!("serialize cluster config: {e}"))?;
        let path = std::env::temp_dir().join(format!(
            "mdbs-cluster-{}-{}.conf",
            std::process::id(),
            CONFIG_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        let result = self.run_with_config_file(&path, timeout);
        let _ = std::fs::remove_file(&path);
        result
    }

    fn run_with_config_file(
        &self,
        path: &std::path::Path,
        timeout: Duration,
    ) -> Result<ClusterOutcome, String> {
        let mut procs = Vec::new();
        for role in self.cfg.roles() {
            let mut child = Command::new(&self.binary)
                .arg("--config")
                .arg(path)
                .arg("--role")
                .arg(role.key())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {} as {}: {e}", self.binary.display(), role.key()))?;
            // Both pipes were requested with `Stdio::piped()` above; if the
            // OS still hands us nothing, drain an empty reader instead of
            // panicking in the runner.
            let stdout = match child.stdout.take() {
                Some(pipe) => drain(pipe),
                None => drain(io::empty()),
            };
            let stderr = match child.stderr.take() {
                Some(pipe) => drain(pipe),
                None => drain(io::empty()),
            };
            procs.push(Proc {
                role,
                child,
                stdout,
                stderr,
            });
        }

        let deadline = Instant::now() + timeout;
        let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; procs.len()];
        while statuses.iter().any(Option::is_none) && Instant::now() < deadline {
            for (i, p) in procs.iter_mut().enumerate() {
                if statuses[i].is_none() {
                    if let Ok(Some(st)) = p.child.try_wait() {
                        statuses[i] = Some(st);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut killed = Vec::new();
        for (i, p) in procs.iter_mut().enumerate() {
            if statuses[i].is_none() {
                let _ = p.child.kill();
                let _ = p.child.wait();
                killed.push(p.role.key());
            }
        }

        let mut outputs: Vec<(NodeRole, String, String)> = Vec::new();
        for p in procs {
            let out = p.stdout.join().unwrap_or_default();
            let err = p.stderr.join().unwrap_or_default();
            outputs.push((p.role, out, err));
        }

        if !killed.is_empty() {
            return Err(format!(
                "cluster timed out after {timeout:?}; killed {killed:?}; stderr:\n{}",
                joined_stderr(&outputs)
            ));
        }
        // Every `None` status was killed and reported above, so only the
        // settled processes remain to inspect.
        for (i, st) in statuses.iter().enumerate() {
            let Some(st) = st else { continue };
            if !st.success() {
                return Err(format!(
                    "{} exited with {st}; stderr:\n{}",
                    outputs[i].0.key(),
                    joined_stderr(&outputs)
                ));
            }
        }
        parse_outcome(&outputs)
    }
}

fn joined_stderr(outputs: &[(NodeRole, String, String)]) -> String {
    outputs
        .iter()
        .filter(|(_, _, e)| !e.trim().is_empty())
        .map(|(r, _, e)| format!("--- {} ---\n{}", r.key(), e.trim_end()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The `key=value` fields of one `mdbs-node …` line.
fn fields(line: &str) -> BTreeMap<&str, &str> {
    line.split_whitespace()
        .filter_map(|w| w.split_once('='))
        .collect()
}

fn num(fields: &BTreeMap<&str, &str>, key: &str) -> Result<u64, String> {
    let v = fields
        .get(key)
        .ok_or_else(|| format!("missing field {key}"))?;
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    }
    .map_err(|e| format!("bad {key}={v}: {e}"))
}

fn parse_outcome(outputs: &[(NodeRole, String, String)]) -> Result<ClusterOutcome, String> {
    let mut outcome_digest = None;
    let mut site_verdicts = BTreeMap::new();
    let mut summary = None;
    let mut stats = BTreeMap::new();
    let mut missing_reports = Vec::new();
    for (_, out, _) in outputs {
        for line in out.lines() {
            let Some(rest) = line.strip_prefix("mdbs-node ") else {
                continue;
            };
            let kind = rest.split_whitespace().next().unwrap_or("");
            let f = fields(rest);
            match kind {
                "outcome" => outcome_digest = Some(num(&f, "digest")?),
                "site-verdict" => {
                    site_verdicts.insert(num(&f, "site")? as u32, num(&f, "digest")?);
                }
                "summary" => {
                    summary = Some((
                        num(&f, "committed")?,
                        num(&f, "aborted")?,
                        num(&f, "local_committed")?,
                        num(&f, "local_aborted")?,
                        f.get("checks_passed").copied() == Some("true"),
                    ));
                }
                "stats" => {
                    stats.insert(
                        num(&f, "node")? as u32,
                        NodeStats {
                            frames_sent: num(&f, "frames_sent")?,
                            frames_received: num(&f, "frames_received")?,
                            msgs_sent: num(&f, "msgs_sent")?,
                            msgs_received: num(&f, "msgs_received")?,
                            batches_sent: num(&f, "batches_sent")?,
                            connects: num(&f, "connects")?,
                            decode_errors: num(&f, "decode_errors")?,
                            test_drops: num(&f, "test_drops")?,
                            frames_written_through: num(&f, "frames_written_through")?,
                            deadlock_victims: num(&f, "deadlock_victims")?,
                            wait_timeouts: num(&f, "wait_timeouts")?,
                            refused_sn_out_of_order: num(&f, "refused_sn_out_of_order")?,
                            refused_interval_disjoint: num(&f, "refused_interval_disjoint")?,
                            refused_not_alive: num(&f, "refused_not_alive")?,
                        },
                    );
                }
                "missing-report" => missing_reports.push(num(&f, "node")? as u32),
                _ => {}
            }
        }
    }
    let outcome_digest =
        outcome_digest.ok_or_else(|| "driver printed no outcome digest".to_string())?;
    let (committed, aborted, local_committed, local_aborted, checks_passed) =
        summary.ok_or_else(|| "driver printed no summary".to_string())?;
    Ok(ClusterOutcome {
        outcome_digest,
        site_verdicts,
        committed,
        aborted,
        local_committed,
        local_aborted,
        checks_passed,
        stats,
        missing_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_addrs_are_distinct() {
        let addrs = loopback_addrs(6).expect("bind");
        let set: std::collections::BTreeSet<&String> = addrs.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn parse_outcome_reads_driver_lines() {
        let driver_out = "\
mdbs-node outcome digest=0x00000000deadbeef
mdbs-node site-verdict site=0 digest=0x0000000000000010
mdbs-node site-verdict site=1 digest=0x0000000000000020
mdbs-node summary committed=10 aborted=2 local_committed=6 local_aborted=0 checks_passed=true
mdbs-node stats node=1000000 role=coord:0 frames_sent=40 frames_received=41 msgs_sent=90 msgs_received=95 batches_sent=12 connects=4 decode_errors=0 test_drops=0 frames_written_through=32 deadlock_victims=0 wait_timeouts=0 refused_sn_out_of_order=0 refused_interval_disjoint=0 refused_not_alive=0
";
        let site_out = "mdbs-node stats node=0 role=site:0 frames_sent=9 \
                        frames_received=8 msgs_sent=20 msgs_received=17 batches_sent=3 \
                        connects=2 decode_errors=0 test_drops=1 frames_written_through=5 \
                        deadlock_victims=1 wait_timeouts=0 refused_sn_out_of_order=0 \
                        refused_interval_disjoint=0 refused_not_alive=2\n";
        let outputs = vec![
            (
                NodeRole::Coordinator(0),
                driver_out.to_string(),
                String::new(),
            ),
            (NodeRole::Site(0), site_out.to_string(), String::new()),
        ];
        let o = parse_outcome(&outputs).expect("parse");
        assert_eq!(o.outcome_digest, 0xdead_beef);
        assert_eq!(o.site_verdicts[&0], 0x10);
        assert_eq!(o.site_verdicts[&1], 0x20);
        assert_eq!((o.committed, o.aborted), (10, 2));
        assert!(o.checks_passed);
        assert_eq!(o.stats[&0].test_drops, 1);
        assert_eq!(o.stats[&0].msgs_sent, 20);
        assert_eq!(o.stats[&0].frames_written_through, 5);
        assert_eq!(
            (o.stats[&0].deadlock_victims, o.stats[&0].refused_not_alive),
            (1, 2)
        );
        assert_eq!(o.stats[&1_000_000].frames_sent, 40);
        assert_eq!(o.stats[&1_000_000].batches_sent, 12);
        assert!(o.missing_reports.is_empty());
    }
}
