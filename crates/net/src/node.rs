//! The `mdbs-node` process runtime: one protocol node per OS process.
//!
//! Every process reads the **same** cluster file and pre-draws the same
//! seeded workload ([`mdbs_workload::predraw`]), so no workload bytes ever
//! cross the wire — a site takes its local queue, the driver takes the
//! global admission list. The driver is **coordinator 0's process**: it
//! admits global transactions under the configured multiprogramming level
//! (fanning [`WireMsg::StartGlobal`] out across the coordinators), and
//! once every global settled it broadcasts [`WireMsg::Drain`]; each node
//! finishes its local work, quiesces, and answers with a
//! [`WireMsg::NodeReport`] carrying its slice of the history. The driver
//! merges the slices in ascending node order (conflicts are intra-site,
//! so each site's block carries its own order), runs the correctness
//! checkers, and prints timing-independent outcome digests comparable
//! with a simulation run of the same scenario.
//!
//! Every role runs the one node loop, [`mdbs_runtime::run_node`], over
//! its runtime and a `NodeHost` — the TCP transport as a
//! [`NodePort`]. The driver is not a second loop: it is state inside
//! coordinator 0's host (`Driver`) that consumes the envelopes addressed
//! to it (`Finished`, `NodeReport`) as the port translates them and feeds
//! the loop the events it decides on (`TakeOver`, `Shutdown`).
//!
//! Retransmission hardening: the transport is at-least-once, so the
//! cluster-control envelope is deduplicated here — a coordinator begins
//! each `StartGlobal` once and finishes each transaction once, the driver
//! settles each `Finished` once and keeps the first `NodeReport` per
//! node. The 2PC messages themselves need no help: the agents are
//! duplicate-hardened by design.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::{Duration, Instant, SystemTime};

use mdbs_dtm::{GlobalOutcome, Message, DONE_CAP};
use mdbs_histories::{GlobalTxnId, History, Instance, Op, SiteId};
use mdbs_runtime::{
    message_kind, AbortInjector, AcceptorRuntime, AdmissionWindow, CentralRuntime, CtrlMsg,
    NodeEvent, NodePort, RuntimeHost, TimeSource, Timer, TraceEvent, Transport, COORD_BASE,
};
use mdbs_sim::report::{outcome_digest, site_verdict_digest, CorrectnessReport};
use mdbs_sim::sim::{coordinator_runtime, site_runtime};
use mdbs_sim::{ClusterConfig, NodeRole};
use mdbs_simkit::{DetRng, Metrics, SimTime};
use mdbs_workload::predraw;

use crate::tcp::{NetEvent, TcpTransport, TcpTransportConfig, TransportStats};
use crate::wire::WireMsg;

/// The longest one blocking poll may last, µs: every loop re-checks its
/// deadline (and the driver its stall detector) at least this often.
const POLL_CAP_US: u64 = 20_000;
/// The longest a crash-stopping node waits for its writers to put what
/// it already flushed on the wire. Live peers take it in microseconds;
/// the cap only runs out on a peer that is gone too.
const CRASH_DRAIN_CAP: Duration = Duration::from_secs(1);
/// With fault tolerance on, a settlement gap this long makes the driver
/// presume a coordinator dead and order a takeover.
const FAILOVER_STALL: Duration = Duration::from_millis(500);
/// Per-peer outbox capacity, in message groups; a sender blocks when its
/// peer's outbox is full.
const OUTBOX_CAPACITY: usize = 1024;
/// Reconnect backoff: the first retry waits this long, each later one
/// twice as long as the one before, up to [`BACKOFF_MAX`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(10);
/// Ceiling of the reconnect backoff.
const BACKOFF_MAX: Duration = Duration::from_millis(1_000);

/// What a finished node hands back to its caller: the stdout lines the
/// cluster harness parses (digests from the driver, stats from everyone).
#[derive(Debug, Clone)]
pub struct NodeOutput {
    /// The runtime node id this process ran.
    pub node: u32,
    /// Harvestable `mdbs-node …` lines, in print order.
    pub lines: Vec<String>,
}

/// The cluster driver, hosted by coordinator 0's [`NodeHost`]: admission
/// under the multiprogramming level, the failover stall detector, the
/// drain barrier and report collection.
struct Driver {
    window: AdmissionWindow,
    total_globals: usize,
    settled: BTreeSet<GlobalTxnId>,
    committed: u64,
    aborted: u64,
    /// Every node of the cluster, in canonical order.
    all_nodes: Vec<u32>,
    /// First NodeReport per node wins (retransmission dedup).
    reports: BTreeMap<u32, (Vec<Op>, u64, u64)>,
    /// A coordinator configured to crash-stop never reports: exempt it
    /// from the drain barrier and the history merge (the driver itself —
    /// coordinator 0 — cannot crash; the simulation covers that case).
    crash_exempt: Option<u32>,
    /// Coordinators admission routes around: the configured crash node,
    /// from the first time the stall detector fires.
    dead: BTreeSet<u32>,
    /// Every global settled and `Drain` went out.
    draining: bool,
    /// Failover stall detector, on with fault tolerance: a settlement gap
    /// of [`FAILOVER_STALL`] means a coordinator likely died — take over
    /// its in-flight transactions through the acceptor quorum. Re-fires
    /// each window (every takeover runs a fresh, higher ballot, so repeats
    /// are safe).
    detect_stalls: bool,
    last_progress: Instant,
    last_settled: usize,
}

/// The per-process [`RuntimeHost`] and [`NodePort`]: the TCP transport
/// plus local history, injection and settlement state.
struct NodeHost {
    node: u32,
    transport: TcpTransport,
    /// Group-commit buffer: everything a burst of input produces is
    /// staged per destination and handed to the transport as one
    /// [`TcpTransport::send_wire_group`] at flush points (before every
    /// blocking poll and before shutdown). A site's READYs and a
    /// coordinator's COMMITs for concurrently prepared transactions
    /// therefore ride one frame per link.
    outgoing: BTreeMap<u32, Vec<WireMsg>>,
    metrics: Metrics,
    /// This node's history slice, in local order.
    ops: Vec<Op>,
    injector: AbortInjector,
    local_committed: u64,
    local_aborted: u64,
    /// Duplicate screens for retransmitted StartGlobal and re-decided
    /// finishes, bounded like the agent's done-set: past [`DONE_CAP`]
    /// finished ids the oldest is evicted from both.
    started: BTreeSet<GlobalTxnId>,
    finished: BTreeSet<GlobalTxnId>,
    epoch: Instant,
    /// The wall clock at `epoch`, µs since the Unix epoch — read once, so
    /// [`TimeSource::local_time_us`] can never step backwards.
    unix_us_at_epoch: u64,
    /// The scenario's wall-clock safety valve.
    deadline: Instant,
    /// Coordinator 0 only.
    driver: Option<Driver>,
}

impl NodeHost {
    fn new(cfg: &ClusterConfig, node: u32) -> io::Result<NodeHost> {
        let scenario = &cfg.scenario;
        let root = DetRng::new(scenario.workload.seed);
        // The two clocks are read back to back: whatever separates the
        // reads becomes this node's offset from every other node's clock.
        let epoch = Instant::now();
        let unix_us_at_epoch = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        Ok(NodeHost {
            node,
            transport: start_transport(cfg, node)?,
            outgoing: BTreeMap::new(),
            metrics: Metrics::new(),
            ops: Vec::new(),
            injector: AbortInjector::new(
                root.substream_n("inject", node as u64),
                root.substream_n("fault-burst", node as u64),
                scenario.workload.unilateral_abort_prob,
                scenario.abort_delay_max_us,
            ),
            local_committed: 0,
            local_aborted: 0,
            started: BTreeSet::new(),
            finished: BTreeSet::new(),
            epoch,
            unix_us_at_epoch,
            deadline: epoch + Duration::from_secs_f64(scenario.time_limit.as_secs_f64()),
            driver: None,
        })
    }

    /// Turn this host into the cluster driver and open the admission
    /// window.
    fn start_driver(&mut self, cfg: &ClusterConfig) {
        let scenario = &cfg.scenario;
        let mut window = AdmissionWindow::new(scenario.workload.mpl, scenario.coordinators);
        for (gtxn, program) in predraw(&scenario.workload).globals {
            window.arrive(gtxn, program);
        }
        self.driver = Some(Driver {
            window,
            total_globals: scenario.workload.global_txns as usize,
            settled: BTreeSet::new(),
            committed: 0,
            aborted: 0,
            all_nodes: cfg.node_ids(),
            reports: BTreeMap::new(),
            crash_exempt: scenario
                .coord_crash_after_ready
                .map(|(c, _)| COORD_BASE + c)
                .filter(|&n| n != self.node),
            dead: BTreeSet::new(),
            draining: false,
            detect_stalls: scenario.consensus_f > 0,
            last_progress: Instant::now(),
            last_settled: 0,
        });
        self.admit();
    }

    fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Stage one envelope for the next flush. Every send — protocol,
    /// control, or cluster envelope — goes through here so the per-link
    /// FIFO order of the unbatched transport is preserved exactly.
    fn queue_wire(&mut self, to: u32, msg: WireMsg) {
        self.outgoing.entry(to).or_default().push(msg);
    }

    /// Stage a bare envelope for every other node of the cluster (driver
    /// only).
    fn broadcast(&mut self, envelope: fn() -> WireMsg) {
        let Some(d) = self.driver.as_ref() else {
            return;
        };
        for &id in d.all_nodes.iter().filter(|&&id| id != self.node) {
            self.outgoing.entry(id).or_default().push(envelope());
        }
    }

    /// Driver: fill the admission window, then — once every global has
    /// settled — open the drain barrier: everyone finishes local work and
    /// reports.
    fn admit(&mut self) {
        let Some(d) = self.driver.as_mut() else {
            return;
        };
        while let Some((cnode, gtxn, program)) = d.window.admit(&d.dead) {
            let start = WireMsg::StartGlobal { gtxn, program };
            self.outgoing.entry(cnode).or_default().push(start);
        }
        if !d.draining && d.settled.len() >= d.total_globals {
            d.draining = true;
            self.broadcast(|| WireMsg::Drain);
        }
    }

    /// Driver: a global transaction reached its terminal outcome (at this
    /// coordinator or, via `Finished`, at another one).
    fn settle(&mut self, gtxn: GlobalTxnId, outcome: GlobalOutcome) {
        let Some(d) = self.driver.as_mut() else {
            return;
        };
        if d.settled.insert(gtxn) {
            d.window.settled(gtxn);
            match outcome {
                GlobalOutcome::Committed => d.committed += 1,
                GlobalOutcome::Aborted => d.aborted += 1,
            }
            self.admit();
        }
    }

    /// Driver: the event the driver itself is due to feed the loop, if
    /// any — `Shutdown` once every expected report is in, `TakeOver` when
    /// the stall detector fires.
    fn driver_due(&mut self) -> Option<NodeEvent> {
        let d = self.driver.as_mut()?;
        if d.draining {
            let expected = d.all_nodes.len() - 1 - usize::from(d.crash_exempt.is_some());
            return (d.reports.len() >= expected).then_some(NodeEvent::Shutdown);
        }
        if d.settled.len() != d.last_settled {
            d.last_settled = d.settled.len();
            d.last_progress = Instant::now();
        } else if d.detect_stalls && d.last_progress.elapsed() >= FAILOVER_STALL {
            d.last_progress = Instant::now();
            // The configured crash node is presumed dead from here on:
            // admission routes around it, as in the other drivers.
            d.dead.extend(d.crash_exempt);
            return Some(NodeEvent::TakeOver);
        }
        None
    }

    /// Map one transport event onto the node vocabulary. Envelopes
    /// addressed to the driver are consumed here; anything else this node
    /// has no use for (e.g. a retransmitted duplicate) is dropped.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn translate(&mut self, ev: NetEvent) -> Option<NodeEvent> {
        match ev {
            NetEvent::Timer { timer, .. } => Some(NodeEvent::Timer(timer)),
            NetEvent::Msg(WireMsg::Net { msg, .. }) => Some(NodeEvent::Net(msg)),
            NetEvent::Msg(WireMsg::Ctrl { from, ctrl, .. }) => Some(NodeEvent::Ctrl { from, ctrl }),
            // The transport may retransmit across a reconnect; begin each
            // transaction exactly once.
            NetEvent::Msg(WireMsg::StartGlobal { gtxn, program }) => {
                (!self.finished.contains(&gtxn) && self.started.insert(gtxn))
                    .then_some(NodeEvent::Start { gtxn, program })
            }
            NetEvent::Msg(WireMsg::Drain) => Some(NodeEvent::Drain),
            NetEvent::Msg(WireMsg::Shutdown) => Some(NodeEvent::Shutdown),
            NetEvent::Msg(WireMsg::Finished { gtxn, outcome }) => {
                self.settle(gtxn, outcome);
                None
            }
            NetEvent::Msg(WireMsg::NodeReport {
                node,
                ops,
                local_committed,
                local_aborted,
            }) => {
                if let Some(d) = self.driver.as_mut() {
                    d.reports
                        .entry(node)
                        .or_insert((ops, local_committed, local_aborted));
                }
                None
            }
            // Hello belongs to the transport; one that reaches the loop is
            // dropped like any other envelope this node has no use for.
            NetEvent::Msg(WireMsg::Hello { .. }) => None,
        }
    }

    /// The transport's counters, then what can move a verdict at a site:
    /// the LDBS's deadlock victims and wait timeouts and the certifier's
    /// refusals by reason (zero at every other role).
    fn stats_line(&self, role: &NodeRole) -> String {
        use std::sync::atomic::Ordering::Relaxed;
        let s: &TransportStats = self.transport.stats();
        let m = &self.metrics;
        format!(
            "mdbs-node stats node={} role={} frames_sent={} frames_received={} msgs_sent={} msgs_received={} batches_sent={} connects={} decode_errors={} test_drops={} frames_written_through={} deadlock_victims={} wait_timeouts={} refused_sn_out_of_order={} refused_interval_disjoint={} refused_not_alive={}",
            self.node,
            role.key(),
            s.frames_sent.load(Relaxed),
            s.frames_received.load(Relaxed),
            s.msgs_sent.load(Relaxed),
            s.msgs_received.load(Relaxed),
            s.batches_sent.load(Relaxed),
            s.connects.load(Relaxed),
            s.decode_errors.load(Relaxed),
            s.test_drops.load(Relaxed),
            s.frames_written_through.load(Relaxed),
            m.counter("deadlock_victims"),
            m.counter("wait_timeouts"),
            m.counter("refused_sn_out_of_order"),
            m.counter("refused_interval_disjoint"),
            m.counter("refused_not_alive"),
        )
    }

    /// Driver, after the loop: merge the slices in ascending node order,
    /// certify, and render the digest lines.
    fn driver_lines(&mut self, sites: u32) -> Vec<String> {
        let Some(d) = self.driver.as_ref() else {
            return Vec::new();
        };
        let mut lines = Vec::new();
        let mut local_committed = 0u64;
        let mut local_aborted = 0u64;
        let mut merged: Vec<Op> = Vec::new();
        for &id in &d.all_nodes {
            if id == self.node {
                merged.extend(self.ops.iter().cloned());
                continue;
            }
            match d.reports.get(&id) {
                Some((ops, lc, la)) => {
                    merged.extend(ops.iter().cloned());
                    local_committed += lc;
                    local_aborted += la;
                }
                // The crash-stopped coordinator's slice died with it, by
                // design; everyone else missing is worth reporting.
                None if Some(id) == d.crash_exempt => {}
                None => lines.push(format!("mdbs-node missing-report node={id}")),
            }
        }
        let history = History::from_ops(merged);
        let checks = CorrectnessReport::analyze(&history, sites);
        lines.push(format!(
            "mdbs-node outcome digest={:#018x}",
            outcome_digest(&history, &checks)
        ));
        for s in 0..sites {
            lines.push(format!(
                "mdbs-node site-verdict site={s} digest={:#018x}",
                site_verdict_digest(&history, SiteId(s))
            ));
        }
        lines.push(format!(
            "mdbs-node summary committed={} aborted={} local_committed={local_committed} local_aborted={local_aborted} checks_passed={}",
            d.committed,
            d.aborted,
            checks.passed()
        ));
        lines
    }
}

impl TimeSource for NodeHost {
    fn local_time_us(&mut self, _node: u32) -> u64 {
        // Serial numbers and alive intervals compare across processes, so
        // every node's clock is anchored to the one all processes share —
        // but advanced by the monotonic clock: the certifier's refresh
        // floor assumes local time never decreases, and `SystemTime` may.
        self.unix_us_at_epoch + self.elapsed_us()
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.elapsed_us())
    }
}

impl Transport for NodeHost {
    fn send(&mut self, from: u32, to: u32, msg: Message) {
        self.metrics.inc(message_kind(&msg));
        self.queue_wire(to, WireMsg::Net { from, to, msg });
    }

    fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg) {
        self.queue_wire(to, WireMsg::Ctrl { from, to, ctrl });
    }

    fn set_timer(&mut self, node: u32, after_us: u64, timer: Timer) {
        self.transport.set_timer(node, after_us, timer);
    }
}

impl RuntimeHost for NodeHost {
    fn record_op(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn inc(&mut self, name: &'static str) {
        self.metrics.inc(name);
    }

    fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    fn trace(&mut self, _event: TraceEvent) {}

    fn prepared(&mut self, site: SiteId, gtxn: GlobalTxnId, incarnation: u32) {
        let struck = self.injector.strikes();
        let instance = Instance::global(gtxn.0, site, incarnation);
        if let Some((after_us, timer)) =
            self.injector
                .on_prepared(struck, 0.0, instance, &mut self.metrics)
        {
            self.set_timer(site.0, after_us, timer);
        }
    }

    fn local_settled(&mut self, _site: SiteId, committed: bool) {
        if committed {
            self.local_committed += 1;
        } else {
            self.local_aborted += 1;
        }
    }

    fn global_finished(&mut self, _cnode: u32, gtxn: GlobalTxnId, outcome: GlobalOutcome) {
        // A repeated takeover re-decides (to the same value) what it
        // already finished; report each transaction once.
        if !self.finished.insert(gtxn) {
            return;
        }
        if self.finished.len() > DONE_CAP {
            if let Some(old) = self.finished.pop_first() {
                self.started.remove(&old);
            }
        }
        if self.driver.is_some() {
            self.settle(gtxn, outcome);
        } else {
            self.queue_wire(COORD_BASE, WireMsg::Finished { gtxn, outcome });
        }
    }
}

impl NodePort for NodeHost {
    /// One blocking poll of at most [`POLL_CAP_US`]; due timers pop out of
    /// the transport ahead of queued messages.
    fn recv(&mut self, wait_us: Option<u64>) -> Option<NodeEvent> {
        if let Some(ev) = self.driver_due() {
            return Some(ev);
        }
        let wait = Duration::from_micros(wait_us.map_or(POLL_CAP_US, |us| us.min(POLL_CAP_US)));
        let ev = self.transport.poll(wait)?;
        self.translate(ev).or_else(|| self.try_recv())
    }

    fn try_recv(&mut self) -> Option<NodeEvent> {
        loop {
            let ev = self.transport.try_poll()?;
            if let Some(ev) = self.translate(ev) {
                return Some(ev);
            }
        }
    }

    /// Hand every staged group to the transport, one group per link.
    fn flush(&mut self) {
        while let Some((to, msgs)) = self.outgoing.pop_first() {
            self.transport.send_wire_group(to, msgs);
        }
    }

    fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    fn report(&mut self) {
        let report = WireMsg::NodeReport {
            node: self.node,
            ops: std::mem::take(&mut self.ops),
            local_committed: self.local_committed,
            local_aborted: self.local_aborted,
        };
        self.queue_wire(COORD_BASE, report);
    }

    /// Crash-stop: no flush, no report — output staged by this burst and
    /// the runtime state vanish with the process, which exits cleanly so
    /// the harness reads it as a crash-stop, not a bug. What earlier
    /// bursts flushed was sent and stays sent, as in the other two hosts
    /// (a dead thread's messages are already in its peers' channels, a
    /// dead sim node's in the network): exiting under the writer threads
    /// would take back a PREPARE or an acceptor registration that merely
    /// had not reached its socket yet. A peer that is itself gone never
    /// takes its frames, so the wait is capped: a crash must not hang.
    fn crash_stop(&mut self) {
        let cap = Instant::now() + CRASH_DRAIN_CAP;
        self.transport.drain(cap.min(self.deadline));
        std::process::exit(0);
    }
}

fn start_transport(cfg: &ClusterConfig, node: u32) -> io::Result<TcpTransport> {
    let listen_addr = cfg
        .addr_of(node)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node {node} has no address"),
            )
        })?
        .to_string();
    let peers: BTreeMap<u32, String> = cfg
        .node_ids()
        .into_iter()
        .filter(|&id| id != node)
        .map(|id| {
            (
                id,
                cfg.addr_of(id)
                    .expect("listed node has an address")
                    .to_string(),
            )
        })
        .collect();
    let test_drop_after = cfg
        .test_drop
        .iter()
        .find(|&&(n, _)| n == node)
        .map(|&(_, frames)| frames);
    TcpTransport::start(TcpTransportConfig {
        node,
        listen_addr,
        peers,
        outbox_capacity: OUTBOX_CAPACITY,
        batch_max: cfg.batch_max,
        flush_deadline_us: cfg.flush_deadline_us,
        backoff_initial: BACKOFF_INITIAL,
        backoff_max: BACKOFF_MAX,
        test_drop_after,
    })
}

/// Run one cluster role to completion. Blocks until the driver's
/// [`WireMsg::Shutdown`] arrives (or the scenario's wall-clock time limit
/// passes) and returns the lines to print. Coordinator 0 is also the
/// cluster driver: its host admits the workload, and after the loop it
/// certifies the merged history and releases the cluster.
pub fn run_node(cfg: &ClusterConfig, role: NodeRole) -> io::Result<NodeOutput> {
    let scenario = &cfg.scenario;
    let node = role.node_id();
    let mut host = NodeHost::new(cfg, node)?;
    match role {
        NodeRole::Site(s) => {
            let mut rt = site_runtime(scenario, s);
            let mut locals = predraw(&scenario.workload).locals;
            rt.set_housekeeping(locals.remove(&SiteId(s)).unwrap_or_default());
            mdbs_runtime::run_node(&mut rt, &mut host);
            // As the other two drivers do when a run ends; a crashed and
            // recovered agent already added what its predecessor counted.
            for (name, n) in rt.agent().stats().certification_counters() {
                host.metrics.add(name, n);
            }
        }
        NodeRole::Coordinator(c) => {
            if c == 0 {
                host.start_driver(cfg);
            }
            mdbs_runtime::run_node(&mut coordinator_runtime(scenario, c), &mut host);
        }
        NodeRole::Central => mdbs_runtime::run_node(&mut CentralRuntime::new(), &mut host),
        NodeRole::Acceptor(_) => mdbs_runtime::run_node(&mut AcceptorRuntime::new(node), &mut host),
    }
    let mut lines = host.driver_lines(scenario.workload.sites);
    lines.push(host.stats_line(&role));
    host.broadcast(|| WireMsg::Shutdown);
    host.flush();
    host.transport.shutdown();
    Ok(NodeOutput { node, lines })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The agent clock is anchored to the wall clock (serial numbers
    /// compare across processes) but must never step backwards: the
    /// certifier's lazy refresh floor relies on it.
    #[test]
    fn local_time_is_wall_anchored_and_never_decreases() {
        let cfg = crate::loopback_cluster(mdbs_sim::SimConfig::default()).expect("addresses");
        let mut host = NodeHost::new(&cfg, 0).expect("bind");
        let wall_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .expect("clock after 1970")
            .as_micros() as u64;
        let mut last = host.local_time_us(0);
        assert!(last.abs_diff(wall_us) < 60_000_000, "{last} vs {wall_us}");
        for _ in 0..100_000 {
            let now = host.local_time_us(0);
            assert!(now >= last, "clock stepped back: {last} -> {now}");
            last = now;
        }
        host.transport.shutdown();
    }
}
