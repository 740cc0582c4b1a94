//! The discrete-event simulation of the whole multidatabase.
//!
//! The protocol logic lives in `mdbs-runtime`: one
//! [`mdbs_runtime::SiteRuntime`] per participating site (2PC Agent + LDBS
//! engine + local runners), one [`mdbs_runtime::CoordinatorRuntime`] per
//! coordinator node, and — for the CGM baseline — the
//! [`mdbs_runtime::CentralRuntime`] scheduler. [`Simulation`] is the
//! deterministic *driver*: it owns the event queue, the FIFO network, the
//! per-node drifting clocks, the workload generator and failure injector,
//! and implements the runtimes' host traits on top of them. It keeps its
//! own scheduler — the event queue *is* the experiment — but every
//! delivery, timer, admission and takeover reaches a runtime through the
//! same [`mdbs_runtime::NodeRuntime::on_event`] the other hosts drive.
//!
//! The run is fully deterministic: a `SimConfig` (which embeds the seed)
//! maps to exactly one history.
//!
//! Node numbering: site agents live at node = site id; coordinators at
//! `COORD_BASE + i`; the CGM central scheduler at [`CENTRAL`].

use std::collections::{BTreeMap, BTreeSet};

use mdbs_consensus::Leader;
use mdbs_dtm::{AgentConfig, GlobalOutcome, Message};
use mdbs_histories::{GlobalTxnId, Instance, Op, SiteId};
use mdbs_ldbs::{Ldbs, SiteProfile, Store};
use mdbs_runtime::{
    lowest_live_coordinator, message_kind, or_die, AbortInjector, AcceptorRuntime, AdmissionWindow,
    CentralRuntime, CoordinatorRuntime, CtrlMsg, Flow, NodeEvent, NodeSet, RuntimeHost,
    SiteRuntime, TimeSource, Timer, Transport, DEADLOCK_SCAN_US, WAIT_TIMEOUT_US,
};
use mdbs_simkit::{
    AppliedFault, DetRng, EventQueue, FaultyNetwork, LatencyModel, Metrics, Network, SimDuration,
    SimTime, SiteClock,
};
use mdbs_workload::{predraw, PredrawnWorkload, WorkloadGen};

use crate::config::{Protocol, SimConfig};
use crate::report::{CorrectnessReport, SimReport};

pub use mdbs_runtime::{Observer, TraceEvent, ACCEPTOR_BASE, CENTRAL, COORD_BASE};

/// How long a backup coordinator waits after a coordinator crash before
/// taking over its in-flight transactions, µs of simulated time.
const FAILOVER_DELAY_US: u64 = 50_000;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Network delivery of a 2PC message.
    Deliver { from: u32, to: u32, msg: Message },
    /// Network delivery of a CGM control message.
    Ctrl { from: u32, to: u32, ctrl: CtrlMsg },
    /// A node-local timer fired (alive check, commit retry, LTM service,
    /// injected unilateral abort).
    Timer { node: u32, timer: Timer },
    /// Next global transaction arrival.
    GlobalArrival,
    /// Next local transaction arrival at a site.
    LocalArrival { site: SiteId },
    /// Periodic deadlock / wait-timeout scan.
    DeadlockScan,
    /// A whole-site crash: collective abort + agent recovery from its log.
    SiteCrash { site: SiteId },
    /// A coordinator node crashes mid-protocol (Paxos Commit failover).
    CoordCrash { coord: u32 },
    /// The failover delay elapsed: a backup coordinator reads the acceptor
    /// quorum and completes the crashed coordinators' transactions.
    CoordTakeover { backup: u32 },
}

/// The deterministic host: event queue, network, clocks, sinks, and the
/// driver-side halves of failure injection and lifecycle accounting.
struct SimHost {
    queue: EventQueue<Ev>,
    net: FaultyNetwork,
    clocks: BTreeMap<u32, SiteClock>,
    metrics: Metrics,
    history: Vec<Op>,
    observer: Option<Observer>,
    gen: WorkloadGen,
    injector: AbortInjector,
    committed: u64,
    aborted: u64,
    local_committed: u64,
    local_aborted: u64,
    /// Terminal outcomes reported by coordinators during the current
    /// event, processed by the driver once the action batch unwinds.
    pending_finished: Vec<(GlobalTxnId, GlobalOutcome)>,
}

impl SimHost {
    fn emit(&mut self, event: TraceEvent) {
        if let Some(obs) = self.observer.as_mut() {
            obs(&event);
        }
    }
}

impl TimeSource for SimHost {
    fn local_time_us(&mut self, node: u32) -> u64 {
        // Local clocks are read against an epoch far from zero: real
        // deployments do not boot at the epoch, and `SiteClock::read`
        // saturates at 0, which would blind interval certification for the
        // first |negative skew| microseconds of the run (all local times
        // collapse to 0 and every alive-interval check trivially passes).
        const CLOCK_EPOCH: SimDuration = SimDuration::from_secs(3_600);
        self.clocks[&node].read(self.queue.now() + CLOCK_EPOCH)
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }
}

impl Transport for SimHost {
    fn send(&mut self, from: u32, to: u32, msg: Message) {
        self.metrics.inc(message_kind(&msg));
        if self.observer.is_some() {
            self.emit(TraceEvent::MessageSent {
                at: self.queue.now(),
                from,
                to,
                msg: msg.clone(),
            });
        }
        let now = self.queue.now();
        let (deliveries, faults) = self.net.deliver(from, to, now);
        for fault in faults {
            self.metrics.inc(match fault {
                AppliedFault::Dropped => "faults_dropped",
                AppliedFault::Duplicated => "faults_duplicated",
                AppliedFault::Delayed(_) => "faults_delayed",
                AppliedFault::Reordered => "faults_reordered",
            });
            if self.observer.is_some() {
                self.emit(TraceEvent::FaultInjected {
                    at: now,
                    from,
                    to,
                    fault,
                });
            }
        }
        for at in deliveries {
            self.queue.schedule_at(
                at,
                Ev::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
    }

    /// A central-scheduler control hop (CGM), billed like any message.
    /// Control traffic rides the reliable network even under a fault plan:
    /// the chaos harness targets the paper's 2PC assumptions, not the CGM
    /// baseline's private scheduler channel.
    fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg) {
        let at = self
            .net
            .inner_mut()
            .delivery_time(from, to, self.queue.now());
        self.queue.schedule_at(at, Ev::Ctrl { from, to, ctrl });
    }

    fn set_timer(&mut self, node: u32, after_us: u64, timer: Timer) {
        self.queue.schedule_after(
            SimDuration::from_micros(after_us),
            Ev::Timer { node, timer },
        );
    }
}

impl RuntimeHost for SimHost {
    fn record_op(&mut self, op: Op) {
        self.history.push(op);
    }

    fn inc(&mut self, name: &'static str) {
        self.metrics.inc(name);
    }

    fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    fn trace(&mut self, event: TraceEvent) {
        self.emit(event);
    }

    fn prepared(&mut self, site: SiteId, gtxn: GlobalTxnId, incarnation: u32) {
        // The workload's own draw always happens first so a fault plan's
        // abort bursts never perturb the baseline injection stream.
        let struck = self.gen.draw_unilateral_abort();
        let boost = self.net.plan().abort_boost(self.queue.now().as_micros());
        let instance = Instance::global(gtxn.0, site, incarnation);
        if let Some((after_us, timer)) =
            self.injector
                .on_prepared(struck, boost, instance, &mut self.metrics)
        {
            self.set_timer(site.0, after_us, timer);
        }
    }

    fn local_settled(&mut self, _site: SiteId, committed: bool) {
        if committed {
            self.local_committed += 1;
            self.metrics.inc("local_committed");
        } else {
            self.local_aborted += 1;
            self.metrics.inc("local_aborted");
        }
    }

    fn global_finished(&mut self, _cnode: u32, gtxn: GlobalTxnId, outcome: GlobalOutcome) {
        self.pending_finished.push((gtxn, outcome));
    }
}

/// The simulation world: runtimes composed over the deterministic host.
pub struct Simulation {
    cfg: SimConfig,
    /// Every runtime, by node id, plus the crashed-coordinator set.
    nodes: NodeSet,
    host: SimHost,

    // Global transaction admission: arrived-but-not-yet-started programs
    // wait in the window, so it is bounded by the ready queue, not run
    // length.
    window: AdmissionWindow,
    start_time: BTreeMap<GlobalTxnId, SimTime>,
    arrivals_emitted: u32,
    next_gtxn: u32,

    // Local transaction admission.
    local_emitted: BTreeMap<SiteId, u32>,
    next_local_n: u32,

    // When set, programs come from the canonical pre-drawn workload
    // (the one multi-node drivers use) instead of lazy arrival-time
    // draws. Off by default: the lazy draw order is baked into the
    // golden digests.
    predrawn: Option<PredrawnWorkload>,
}

impl Simulation {
    /// Build the world from a configuration.
    pub fn new(cfg: SimConfig) -> Simulation {
        let spec = cfg.workload.clone();
        let root = DetRng::new(spec.seed);
        let plan = cfg.faults.clone().unwrap_or_default();
        let mut net = Network::new(
            LatencyModel::Uniform(
                SimDuration::from_micros(cfg.net_latency_us),
                SimDuration::from_micros(cfg.net_latency_us + cfg.net_jitter_us),
            ),
            root.substream("network"),
        );
        for &(from, to, lo, hi) in &cfg.link_overrides {
            net.set_link(
                from,
                to,
                LatencyModel::Uniform(SimDuration::from_micros(lo), SimDuration::from_micros(hi)),
            );
        }
        let net = FaultyNetwork::new(net, plan.clone(), root.substream("netfault"));

        // Per-node clocks (agents, coordinators, central scheduler).
        let mut clock_rng = root.substream("clocks");
        let mut clocks = BTreeMap::new();
        let draw_clock = |rng: &mut DetRng| {
            let skew = if cfg.max_clock_skew_us == 0 {
                0
            } else {
                rng.uniform_u64(0, (2 * cfg.max_clock_skew_us + 1) as u64) as i64
                    - cfg.max_clock_skew_us
            };
            let drift = if cfg.max_drift_ppm == 0 {
                0
            } else {
                rng.uniform_u64(0, (2 * cfg.max_drift_ppm + 1) as u64) as i64 - cfg.max_drift_ppm
            };
            SiteClock::new(skew, drift)
        };
        for s in 0..spec.sites {
            clocks.insert(s, draw_clock(&mut clock_rng));
        }
        for c in 0..cfg.coordinators {
            clocks.insert(COORD_BASE + c, draw_clock(&mut clock_rng));
        }
        clocks.insert(CENTRAL, draw_clock(&mut clock_rng));
        // Acceptor clocks are drawn last, and only when acceptors exist:
        // at F=0 the RNG streams stay bit-for-bit what they always were.
        for a in acceptor_nodes(&cfg) {
            clocks.insert(a, draw_clock(&mut clock_rng));
        }

        let nodes = node_set(&cfg);

        let mut queue = EventQueue::new();
        queue.schedule_at(SimTime::from_micros(1), Ev::GlobalArrival);
        for s in 0..spec.sites {
            if spec.local_txns_per_site > 0 {
                queue.schedule_at(
                    SimTime::from_micros(2 + s as u64),
                    Ev::LocalArrival { site: SiteId(s) },
                );
            }
        }
        queue.schedule_at(SimTime::from_micros(DEADLOCK_SCAN_US), Ev::DeadlockScan);
        for &(site, at_us) in &cfg.crashes {
            queue.schedule_at(
                SimTime::from_micros(at_us),
                Ev::SiteCrash { site: SiteId(site) },
            );
        }
        for (site, at_us) in plan.site_crashes() {
            if site < spec.sites {
                queue.schedule_at(
                    SimTime::from_micros(at_us),
                    Ev::SiteCrash { site: SiteId(site) },
                );
            }
        }
        for (coord, at_us) in plan.coord_crashes() {
            if coord < cfg.coordinators {
                queue.schedule_at(
                    SimTime::from_micros(at_us),
                    Ev::CoordCrash {
                        coord: COORD_BASE + coord,
                    },
                );
            }
        }

        let host = SimHost {
            queue,
            net,
            clocks,
            metrics: Metrics::new(),
            history: Vec::new(),
            observer: None,
            injector: AbortInjector::new(
                root.substream("inject"),
                root.substream("fault-burst"),
                spec.unilateral_abort_prob,
                cfg.abort_delay_max_us,
            ),
            gen: WorkloadGen::new(spec),
            committed: 0,
            aborted: 0,
            local_committed: 0,
            local_aborted: 0,
            pending_finished: Vec::new(),
        };

        Simulation {
            window: AdmissionWindow::new(cfg.workload.mpl, cfg.coordinators),
            cfg,
            nodes,
            host,
            start_time: BTreeMap::new(),
            arrivals_emitted: 0,
            next_gtxn: 1,
            local_emitted: BTreeMap::new(),
            next_local_n: 1,
            predrawn: None,
        }
    }

    /// Draw programs from the canonical pre-drawn workload (the order
    /// every multi-node driver uses) instead of lazily at arrival
    /// events. Arrival *times* are unchanged; only which program each
    /// transaction runs differs. This is what makes a sim run
    /// program-for-program comparable with a `ThreadedRunner` or
    /// `mdbs-node` cluster run of the same scenario — the golden-seed
    /// digests are recorded without it.
    pub fn use_predrawn_workload(&mut self) {
        self.predrawn = Some(predraw(self.host.gen.spec()));
    }

    /// Install a trace observer receiving [`TraceEvent`]s as the run
    /// unfolds (protocol messages, prepares, failures, crashes, outcomes).
    pub fn set_observer(&mut self, observer: Observer) {
        self.host.observer = Some(observer);
    }

    fn all_work_done(&self) -> bool {
        let spec = self.host.gen.spec();
        let globals_done = self.arrivals_emitted >= spec.global_txns && self.window.idle();
        let locals_done = (0..spec.sites).all(|s| {
            self.local_emitted.get(&SiteId(s)).copied().unwrap_or(0) >= spec.local_txns_per_site
        }) && self.nodes.sites.values().all(|rt| !rt.has_local_work());
        globals_done && locals_done
    }

    /// Run to completion (or the time limit) and report.
    pub fn run(mut self) -> SimReport {
        while let Some(ev) = self.host.queue.pop() {
            if ev.at > self.cfg.time_limit {
                break;
            }
            self.dispatch(ev.payload);
            self.drain_finished();
        }
        let history = mdbs_histories::History::from_ops(self.host.history.iter().copied());
        let checks = CorrectnessReport::analyze(&history, self.host.gen.spec().sites);
        let mut metrics = self.host.metrics;
        for rt in self.nodes.sites.values() {
            for (name, n) in rt.agent().stats().certification_counters() {
                metrics.add(name, n);
            }
        }
        SimReport {
            protocol: self.cfg.protocol.label(),
            history,
            checks,
            committed: self.host.committed,
            aborted: self.host.aborted,
            local_committed: self.host.local_committed,
            local_aborted: self.host.local_aborted,
            messages: self.host.net.inner().messages_sent(),
            finished_at: self.host.queue.now(),
            metrics,
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver { from: _, to, msg } => self.deliver(to, NodeEvent::Net(msg)),
            Ev::Ctrl { from, to, ctrl } => self.deliver(to, NodeEvent::Ctrl { from, ctrl }),
            Ev::Timer { node, timer } => self.deliver(node, NodeEvent::Timer(timer)),
            Ev::GlobalArrival => self.on_global_arrival(),
            Ev::LocalArrival { site } => self.on_local_arrival(site),
            Ev::DeadlockScan => self.on_deadlock_scan(),
            Ev::SiteCrash { site } => {
                or_die(
                    self.nodes
                        .sites
                        .get_mut(&site)
                        .expect("site")
                        .crash(&mut self.host),
                );
            }
            Ev::CoordCrash { coord } => self.crash_coord(coord),
            Ev::CoordTakeover { backup } => {
                if self.nodes.dead.contains(&backup) {
                    return;
                }
                self.host.metrics.inc("coord_takeovers");
                self.deliver(backup, NodeEvent::TakeOver);
            }
        }
    }

    /// Hand one event to its node — the same `on_event` every host drives.
    /// A coordinator answering [`Flow::Crash`] (the
    /// `coord_crash_after_ready` hook) dies here: marked dead, takeover
    /// scheduled.
    fn deliver(&mut self, to: u32, event: NodeEvent) {
        if or_die(self.nodes.on_event(to, event, &mut self.host)) == Flow::Crash {
            self.crash_coord(to);
        }
    }

    /// Kill a coordinator node and, when a live backup exists, schedule
    /// its takeover after the failover grace delay. The delay doubles as a
    /// drain window: in-flight BEGIN/DML from the dead coordinator reach
    /// the agents before the backup's ROLLBACK/COMMIT can race past them.
    fn crash_coord(&mut self, coord: u32) {
        if !self.nodes.kill(coord) {
            return;
        }
        self.host.metrics.inc("coord_crashes");
        if let Some(backup) = lowest_live_coordinator(self.cfg.coordinators, &self.nodes.dead) {
            self.host.queue.schedule_after(
                SimDuration::from_micros(FAILOVER_DELAY_US),
                Ev::CoordTakeover { backup },
            );
        }
    }

    /// Process terminal outcomes queued by coordinators during `dispatch`.
    /// Coordinators always emit `Finished` as the last action of a batch,
    /// so handling it here preserves the pre-refactor event order.
    fn drain_finished(&mut self) {
        while !self.host.pending_finished.is_empty() {
            let (gtxn, outcome) = self.host.pending_finished.remove(0);
            self.finish_global(gtxn, outcome);
        }
    }

    fn finish_global(&mut self, gtxn: GlobalTxnId, outcome: GlobalOutcome) {
        let at = self.host.queue.now();
        self.host.emit(TraceEvent::Finished {
            at,
            gtxn,
            committed: outcome == GlobalOutcome::Committed,
        });
        match outcome {
            GlobalOutcome::Committed => {
                self.host.committed += 1;
                self.host.metrics.inc("global_committed");
            }
            GlobalOutcome::Aborted => {
                self.host.aborted += 1;
                self.host.metrics.inc("global_aborted");
            }
        }
        if let Some(start) = self.start_time.remove(&gtxn) {
            let latency_ms = (at - start).as_millis_f64();
            self.host.metrics.observe("commit_latency_ms", latency_ms);
            if outcome == GlobalOutcome::Committed {
                self.host
                    .metrics
                    .observe("committed_latency_ms", latency_ms);
            }
        }
        self.window.settled();
        self.try_start_ready();
    }

    // ------------------------------------------------------------------
    // Global transaction arrivals
    // ------------------------------------------------------------------

    fn on_global_arrival(&mut self) {
        let spec = self.host.gen.spec();
        if self.arrivals_emitted >= spec.global_txns {
            return;
        }
        self.arrivals_emitted += 1;
        let gtxn = GlobalTxnId(self.next_gtxn);
        self.next_gtxn += 1;
        let program = match &self.predrawn {
            Some(w) => {
                let (id, program) = &w.globals[(gtxn.0 - 1) as usize];
                debug_assert_eq!(*id, gtxn);
                program.clone()
            }
            None => self.host.gen.global_program(),
        };
        self.window.arrive(gtxn, program);
        if self.arrivals_emitted < self.host.gen.spec().global_txns {
            let gap = self.host.gen.global_gap_us();
            self.host
                .queue
                .schedule_after(SimDuration::from_micros(gap), Ev::GlobalArrival);
        }
        self.try_start_ready();
    }

    fn try_start_ready(&mut self) {
        while let Some((cnode, gtxn, program)) = self.window.admit(&self.nodes.dead) {
            self.start_time.insert(gtxn, self.host.queue.now());
            self.deliver(cnode, NodeEvent::Start { gtxn, program });
        }
    }

    // ------------------------------------------------------------------
    // Local transactions
    // ------------------------------------------------------------------

    fn on_local_arrival(&mut self, site: SiteId) {
        let spec = self.host.gen.spec();
        let emitted = self.local_emitted.entry(site).or_insert(0);
        if *emitted >= spec.local_txns_per_site {
            return;
        }
        *emitted += 1;
        let more = *emitted < spec.local_txns_per_site;

        let (n, commands) = match &mut self.predrawn {
            Some(w) => w
                .locals
                .get_mut(&site)
                .and_then(|q| q.pop_front())
                .expect("pre-drawn local program"),
            None => {
                let n = self.next_local_n;
                self.next_local_n += 1;
                (n, self.host.gen.local_program(site))
            }
        };
        or_die(self.nodes.sites.get_mut(&site).expect("site").start_local(
            n,
            commands,
            &mut self.host,
        ));

        if more {
            let gap = self.host.gen.local_gap_us();
            self.host
                .queue
                .schedule_after(SimDuration::from_micros(gap), Ev::LocalArrival { site });
        }
    }

    // ------------------------------------------------------------------
    // Deadlocks and timeouts
    // ------------------------------------------------------------------

    fn on_deadlock_scan(&mut self) {
        or_die(self.nodes.scan_waits(WAIT_TIMEOUT_US, &mut self.host));
        if !self.all_work_done() {
            self.host
                .queue
                .schedule_after(SimDuration::from_micros(DEADLOCK_SCAN_US), Ev::DeadlockScan);
        }
    }
}

/// The agent configuration a protocol actually runs with: the scenario's
/// alive-check period under the certifier mode the protocol implies (which
/// also fixes the held COMMIT's wait bound,
/// [`mdbs_dtm::CertifierMode::forced_commit_after_us`]).
/// Public so every driver (simulation, threaded runner, `mdbs-net` cluster
/// nodes) derives identical agent behavior from one `SimConfig`.
pub fn effective_agent_cfg(cfg: &SimConfig) -> AgentConfig {
    AgentConfig {
        mode: cfg.protocol.agent_mode(),
        ..cfg.agent
    }
}

/// The Paxos Commit acceptor nodes of a scenario (none at `F=0`).
pub fn acceptor_nodes(cfg: &SimConfig) -> Vec<u32> {
    let n = match cfg.consensus_f {
        0 => 0,
        f => mdbs_consensus::acceptor_count(f),
    };
    (0..n).map(|a| ACCEPTOR_BASE + a).collect()
}

/// Every runtime of a scenario, as every single-scheduler host builds them:
/// the simulation and the bounded explorer (`mdbs-check explore`) both
/// start from this set — sites, coordinators, the CGM central scheduler
/// and the Paxos Commit acceptors — with no coordinator dead.
pub fn node_set(cfg: &SimConfig) -> NodeSet {
    NodeSet {
        sites: (0..cfg.workload.sites)
            .map(|s| (SiteId(s), site_runtime(cfg, s)))
            .collect(),
        coords: (0..cfg.coordinators)
            .map(|c| (COORD_BASE + c, coordinator_runtime(cfg, c)))
            .collect(),
        central: CentralRuntime::new(),
        acceptors: acceptor_nodes(cfg)
            .into_iter()
            .map(|a| (a, AcceptorRuntime::new(a)))
            .collect(),
        dead: BTreeSet::new(),
    }
}

/// Site `s`'s runtime as every driver builds it: a fresh engine over the
/// scenario's store, the effective agent configuration, and the vote
/// fan-out to the scenario's acceptors.
pub fn site_runtime(cfg: &SimConfig, s: u32) -> SiteRuntime {
    let spec = &cfg.workload;
    let mut engine = Ldbs::new(
        SiteId(s),
        SiteProfile::for_site(s),
        Store::with_rows(spec.items_per_site, spec.initial_value),
    );
    engine.set_enforce_dlu(spec.enforce_dlu);
    let mut rt = SiteRuntime::new(
        SiteId(s),
        effective_agent_cfg(cfg),
        engine,
        cfg.ltm_service_us,
    );
    rt.set_acceptors(acceptor_nodes(cfg));
    rt
}

/// Coordinator `c`'s runtime as every driver builds it: CGM handshake or
/// not, Paxos Commit at `F>0`, and the `coord_crash_after_ready` hook.
pub fn coordinator_runtime(cfg: &SimConfig, c: u32) -> CoordinatorRuntime {
    let node = COORD_BASE + c;
    let mut rt = CoordinatorRuntime::new(node, matches!(cfg.protocol, Protocol::Cgm));
    if cfg.consensus_f > 0 {
        rt.set_consensus(Leader::new(node, cfg.consensus_f, acceptor_nodes(cfg)));
    }
    rt.set_crash_after_ready(cfg.coord_crash_after_ready);
    rt
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_dtm::CertifierMode;

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.workload.global_txns = 12;
        cfg.workload.local_txns_per_site = 6;
        cfg.workload.items_per_site = 32;
        cfg
    }

    #[test]
    fn failure_free_run_commits_everything() {
        let report = Simulation::new(small_cfg()).run();
        assert_eq!(report.committed, 12, "metrics:\n{}", report.metrics);
        assert_eq!(report.aborted, 0, "2CM must not abort when failure-free");
        assert_eq!(report.local_committed, 12);
        assert!(report.checks.rigor_violation.is_none());
        assert!(report.checks.cg_acyclic);
        assert!(report.checks.global_distortion.is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Simulation::new(small_cfg()).run();
        let b = Simulation::new(small_cfg()).run();
        assert_eq!(a.history, b.history);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn different_seed_differs() {
        let mut cfg = small_cfg();
        cfg.workload.seed = 777;
        let a = Simulation::new(small_cfg()).run();
        let b = Simulation::new(cfg).run();
        assert_ne!(a.history, b.history);
    }

    #[test]
    fn run_with_failures_stays_correct() {
        let mut cfg = small_cfg();
        cfg.workload.global_txns = 25;
        cfg.workload.unilateral_abort_prob = 0.3;
        cfg.workload.access = mdbs_workload::AccessPattern::Zipf(0.9);
        let report = Simulation::new(cfg).run();
        assert!(report.committed + report.aborted == 25, "all settled");
        assert!(
            report.metrics.counter("injected_unilateral_aborts") > 0,
            "injector must have fired; metrics:\n{}",
            report.metrics
        );
        assert!(report.metrics.counter("resubmissions") > 0);
        assert!(
            report.checks.passed(),
            "2CM must stay view serializable under failures: {:?}",
            report.checks
        );
    }

    #[test]
    fn cgm_run_completes_and_is_correct_failure_free() {
        let mut cfg = small_cfg();
        cfg.protocol = Protocol::Cgm;
        let report = Simulation::new(cfg).run();
        assert_eq!(report.committed + report.aborted, 12);
        assert!(report.checks.rigor_violation.is_none());
        assert!(report.checks.cg_acyclic, "{:?}", report.checks);
    }

    #[test]
    fn ticket_run_completes() {
        let mut cfg = small_cfg();
        cfg.protocol = Protocol::TwoCm(CertifierMode::TicketOrder);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.committed + report.aborted, 12);
    }

    #[test]
    fn naive_protocol_under_failures_can_distort() {
        // The anomaly the paper motivates: without certification, failures
        // plus resubmission produce non-serializable global histories.
        // With a hot, tiny database and aggressive failures the naive
        // protocol reliably violates correctness for at least one seed.
        let mut violated = false;
        for seed in 0..12 {
            let mut cfg = SimConfig::default();
            cfg.workload.seed = seed;
            cfg.workload.global_txns = 30;
            cfg.workload.local_txns_per_site = 20;
            cfg.workload.items_per_site = 4;
            cfg.workload.unilateral_abort_prob = 0.5;
            cfg.workload.write_fraction = 0.8;
            cfg.protocol = Protocol::TwoCm(CertifierMode::NoCertification);
            let report = Simulation::new(cfg).run();
            if !report.checks.passed() {
                violated = true;
                break;
            }
        }
        assert!(
            violated,
            "naive resubmission should violate view serializability on some seed"
        );
    }

    #[test]
    fn messages_counted() {
        let report = Simulation::new(small_cfg()).run();
        // Each 2-site committed transaction needs >= 12 messages.
        assert!(report.messages >= 12 * 12);
        assert!(report.messages_per_txn() >= 12.0);
    }

    #[test]
    fn two_site_transaction_message_complexity() {
        // One 2-site committed transaction needs exactly 12 messages:
        // 2xBEGIN-DML (each site's BEGIN rides its first command) +
        // 2xRESULT + 2xPREPARE + 2xREADY + 2xCOMMIT + 2xCOMMIT-ACK.
        let mut cfg = SimConfig::default();
        cfg.workload.global_txns = 1;
        cfg.workload.local_txns_per_site = 0;
        cfg.workload.sites_per_txn = (2, 2);
        cfg.workload.commands_per_site = (1, 1);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.committed, 1);
        assert_eq!(report.messages, 12);
        assert_eq!(report.metrics.counter("msg_begin"), 0);
        assert_eq!(report.metrics.counter("msg_begin_dml"), 2);
    }

    #[test]
    fn two_site_paxos_commit_message_complexity() {
        // The same transaction under Paxos Commit at F = 1 needs exactly
        // 22: the 12 above, plus a registration Begin to each of the two
        // ballot-0 acceptors, each participant's Vote2a to both (4), one
        // bundled Accepted per ballot-0 acceptor, and Clear to both.
        let mut cfg = SimConfig::default();
        cfg.workload.global_txns = 1;
        cfg.workload.local_txns_per_site = 0;
        cfg.workload.sites_per_txn = (2, 2);
        cfg.workload.commands_per_site = (1, 1);
        cfg.coordinators = 2;
        cfg.consensus_f = 1;
        let report = Simulation::new(cfg).run();
        assert_eq!(report.committed, 1);
        assert_eq!(report.messages, 12 + 2 + 4 + 2 + 2);
    }

    #[test]
    fn crash_under_cgm_settles() {
        let mut cfg = small_cfg();
        cfg.protocol = Protocol::Cgm;
        cfg.crashes = vec![(0, 25_000)];
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.counter("site_crashes"), 1);
        assert_eq!(report.committed + report.aborted, 12);
        assert!(report.checks.rigor_violation.is_none());
    }

    /// Regression: a recovered agent keeps the comparators' commit-retry
    /// limit. Without it, after a crash a ticket-order commit stuck behind
    /// a smaller in-table serial number retries until the time limit,
    /// stranding several globally-decided transactions.
    #[test]
    fn crash_under_ticket_order_keeps_retry_clamp() {
        let mut cfg = SimConfig::default();
        cfg.workload.seed = 10489668181200133594;
        cfg.workload.sites = 4;
        cfg.workload.items_per_site = 48;
        cfg.workload.global_txns = 26;
        cfg.workload.mpl = 5;
        cfg.workload.local_txns_per_site = 5;
        cfg.workload.sites_per_txn = (1, 3);
        cfg.workload.write_fraction = 0.6508479431830019;
        cfg.workload.range_fraction = 0.2477313499966841;
        cfg.workload.unilateral_abort_prob = 0.499785136878249;
        cfg.protocol = Protocol::TwoCm(CertifierMode::TicketOrder);
        cfg.max_clock_skew_us = 3809;
        cfg.max_drift_ppm = 7886;
        cfg.crashes = vec![(2, 183_596)];
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.counter("site_crashes"), 1);
        assert_eq!(
            report.committed + report.aborted,
            26,
            "every global transaction must settle after crash recovery; \
             metrics:\n{}",
            report.metrics
        );
    }

    #[test]
    fn crash_with_zero_activity_is_harmless() {
        let mut cfg = small_cfg();
        cfg.workload.global_txns = 0;
        cfg.workload.local_txns_per_site = 0;
        cfg.crashes = vec![(0, 10_000), (1, 10_000)];
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.counter("site_crashes"), 2);
        assert_eq!(report.committed, 0);
        assert!(report.checks.passed());
    }

    #[test]
    fn observer_sees_protocol_lifecycle() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut cfg = small_cfg();
        cfg.workload.global_txns = 3;
        cfg.workload.local_txns_per_site = 0;
        cfg.workload.unilateral_abort_prob = 1.0;
        let events: Rc<RefCell<Vec<TraceEvent>>> = Rc::default();
        let sink = Rc::clone(&events);
        let mut sim = Simulation::new(cfg);
        sim.set_observer(Box::new(move |e| sink.borrow_mut().push(e.clone())));
        let report = sim.run();
        let events = events.borrow();
        let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
        assert!(
            count(|e| matches!(e, TraceEvent::MessageSent { .. })) as u64 >= report.messages / 2
        );
        assert!(count(|e| matches!(e, TraceEvent::Prepared { .. })) >= 3);
        assert!(count(|e| matches!(e, TraceEvent::UnilateralAbort { .. })) >= 1);
        assert_eq!(count(|e| matches!(e, TraceEvent::Finished { .. })), 3);
    }

    #[test]
    fn message_kind_breakdown_sums_to_total() {
        let report = Simulation::new(small_cfg()).run();
        let kinds = [
            "msg_begin",
            "msg_dml",
            "msg_begin_dml",
            "msg_prepare",
            "msg_commit",
            "msg_rollback",
            "msg_dml_result",
            "msg_failed",
            "msg_ready",
            "msg_refuse",
            "msg_commit_ack",
            "msg_rollback_ack",
        ];
        let sum: u64 = kinds.iter().map(|k| report.metrics.counter(k)).sum();
        assert_eq!(sum, report.messages);
    }

    #[test]
    fn fault_free_plan_matches_no_plan_bit_for_bit() {
        // faults: Some(empty plan) must be indistinguishable from None —
        // the FaultyNetwork wrapper may not perturb any RNG stream.
        let mut cfg = small_cfg();
        cfg.faults = Some(mdbs_simkit::FaultPlan::empty());
        let a = Simulation::new(small_cfg()).run();
        let b = Simulation::new(cfg).run();
        assert_eq!(a.history, b.history);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.finished_at, b.finished_at);
    }

    #[test]
    fn duplicate_and_delay_faults_keep_two_cm_correct() {
        use mdbs_simkit::{FaultAction, FaultPlan};
        // Duplicates violate exactly-once and delay spikes stretch latency,
        // but FIFO and no-loss hold, so 2CM must settle everything and keep
        // every correctness invariant.
        let mut cfg = small_cfg();
        cfg.faults = Some(FaultPlan {
            actions: vec![
                FaultAction::Duplicate {
                    src: None,
                    dst: None,
                    from_us: 0,
                    until_us: u64::MAX,
                    gap_us: 2_000,
                },
                FaultAction::DelaySpike {
                    src: None,
                    dst: None,
                    from_us: 0,
                    until_us: u64::MAX,
                    extra_us: 3_000,
                },
            ],
        });
        let a = Simulation::new(cfg.clone()).run();
        let b = Simulation::new(cfg).run();
        assert_eq!(a.history, b.history, "fault runs must be deterministic");
        assert!(a.metrics.counter("faults_duplicated") > 0);
        assert!(a.metrics.counter("faults_delayed") > 0);
        assert_eq!(a.committed + a.aborted, 12, "all globals must settle");
        assert_eq!(a.local_committed, 12);
        assert!(a.checks.passed(), "{:?}", a.checks);
    }

    #[test]
    fn abort_burst_fault_forces_resubmissions() {
        use mdbs_simkit::{FaultAction, FaultPlan};
        let mut cfg = small_cfg();
        cfg.workload.global_txns = 20;
        cfg.faults = Some(FaultPlan {
            actions: vec![FaultAction::AbortBurst {
                from_us: 0,
                until_us: u64::MAX,
                boost: 1.0,
            }],
        });
        let report = Simulation::new(cfg).run();
        assert!(report.metrics.counter("fault_abort_bursts") > 0);
        assert!(report.metrics.counter("resubmissions") > 0);
        assert_eq!(report.committed + report.aborted, 20);
        assert!(report.checks.passed(), "{:?}", report.checks);
    }

    #[test]
    fn plan_site_crash_behaves_like_configured_crash() {
        use mdbs_simkit::{FaultAction, FaultPlan};
        let mut cfg = small_cfg();
        cfg.faults = Some(FaultPlan {
            actions: vec![FaultAction::SiteCrash {
                site: 0,
                at_us: 25_000,
            }],
        });
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.counter("site_crashes"), 1);
        assert_eq!(report.committed + report.aborted, 12);
        assert!(report.checks.rigor_violation.is_none());
    }

    #[test]
    fn store_totals_conserved_by_update_workload() {
        // Update(+1) commands change totals, but rollback-restored state
        // must equal the sum of committed increments.
        let cfg = small_cfg();
        let report = Simulation::new(cfg).run();
        // Sanity proxy: the run produced a consistent, checkable history.
        assert!(!report.history.is_empty());
        assert!(report.checks.rigor_violation.is_none());
    }
}
