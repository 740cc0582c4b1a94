//! The threaded runner: the same protocol runtimes as the simulation, but
//! each node on its own OS thread, talking over real channels and reading
//! the wall clock.
//!
//! Where [`crate::sim::Simulation`] multiplexes every
//! [`mdbs_runtime::SiteRuntime`] and [`mdbs_runtime::CoordinatorRuntime`]
//! onto one virtual event queue, [`ThreadedRunner`] gives each site, each
//! coordinator, and (for CGM) the central scheduler a dedicated thread.
//! Every node thread is the shared node loop ([`mdbs_runtime::run_node`])
//! over the node's runtime and a `ThreadHost`; this file holds the host,
//! its port, and the driver. The driver thread pre-draws the whole
//! workload from the seeded generator, enforces the multiprogramming
//! level, and collects terminal notices.
//!
//! The runner is *not* deterministic — thread scheduling and wall-clock
//! timers interleave operations differently on every run — but every
//! history it produces must still pass the rigor and view-serializability
//! checkers (the protocol's guarantees cannot depend on the driver). Site
//! crash injection is a simulation-only facility and is ignored here;
//! unilateral-abort injection works (each site draws from its own seeded
//! substream).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use crossbeam::thread::Scope;
use mdbs_dtm::{AgentStats, GlobalOutcome, Message};
use mdbs_histories::{GlobalTxnId, Instance, Op, SiteId};
use mdbs_runtime::{
    lowest_live_coordinator, message_kind, run_node, AbortInjector, AcceptorRuntime,
    AdmissionWindow, CentralRuntime, CtrlMsg, NodeEvent, NodePort, NodeRuntime, RuntimeHost,
    TimeSource, Timer, TimerHeap, TraceEvent, Transport, ACCEPTOR_BASE, CENTRAL, COORD_BASE,
};
use mdbs_simkit::{DetRng, FaultPlan, Metrics, SimTime};
use mdbs_workload::predraw;

use crate::config::{Protocol, SimConfig};
use crate::report::{CorrectnessReport, SimReport};
use crate::sim::{acceptor_nodes, coordinator_runtime, site_runtime};

/// What the driver hears back.
enum Notice {
    GlobalFinished {
        gtxn: GlobalTxnId,
        outcome: GlobalOutcome,
    },
    LocalSettled {
        committed: bool,
    },
    /// A node thread exited — cleanly or by panic. Sent from a drop guard
    /// so it fires no matter how the loop unwinds; without it a dead node
    /// would leave the driver polling until the wall-clock time limit.
    NodeExited {
        node: u32,
        panicked: bool,
    },
}

/// Emits [`Notice::NodeExited`] when the owning node thread ends.
struct ExitGuard {
    node: u32,
    notices: Sender<Notice>,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let _ = self.notices.send(Notice::NodeExited {
            node: self.node,
            panicked: std::thread::panicking(),
        });
    }
}

/// Everything shared by all node threads.
struct SharedWorld {
    /// One sender per node (sites, coordinators, central, acceptors).
    senders: BTreeMap<u32, Sender<NodeEvent>>,
    /// Terminal notices back to the driver.
    notices: Sender<Notice>,
    /// The runner's epoch; all node clocks read elapsed time from it.
    epoch: Instant,
}

/// Work a node thread holds until its wall-clock deadline.
enum Due {
    /// A timer the runtime set.
    Timer(Timer),
    /// A send the fault plan delayed or duplicated.
    Send { to: u32, msg: Message },
}

/// The per-thread [`RuntimeHost`] and [`NodePort`]: real channels, the
/// wall clock, and a thread-local deadline heap the node loop drains.
struct ThreadHost {
    shared: Arc<SharedWorld>,
    /// This node's inbox.
    rx: Receiver<NodeEvent>,
    metrics: Metrics,
    /// The ops this node recorded, in its own order; handed back at join.
    ops: Vec<Op>,
    /// Messages handed to the transport (protocol + control).
    messages: u64,
    /// Pending timers (including injected unilateral aborts) and delayed
    /// / duplicated sends. Later direct sends on the same link can
    /// overtake a held message — in the threaded driver a delay spike
    /// also breaks FIFO, unlike the simulation's clamped queue.
    due: TimerHeap<Due>,
    injector: AbortInjector,
    /// The shared fault plan; windows are elapsed wall-clock µs. Empty =
    /// no interposition.
    fault_plan: Arc<FaultPlan>,
    /// Draws the per-message jitter / duplicate gaps for faults originating
    /// at this node. Thread scheduling already makes the runner
    /// non-deterministic, so per-node substreams are only for independence.
    fault_rng: DetRng,
    /// The run's wall-clock safety valve.
    deadline: Instant,
}

impl ThreadHost {
    fn elapsed_us(&self) -> u64 {
        self.shared.epoch.elapsed().as_micros() as u64
    }

    fn deliver(&self, to: u32, event: NodeEvent) {
        if let Some(tx) = self.shared.senders.get(&to) {
            // A send after shutdown (receiver gone) is harmless.
            let _ = tx.send(event);
        }
    }

    /// The next due timer; due held sends go out on the way.
    fn pop_due(&mut self) -> Option<NodeEvent> {
        while let Some(due) = self.due.pop_due(self.elapsed_us()) {
            match due {
                Due::Timer(timer) => return Some(NodeEvent::Timer(timer)),
                Due::Send { to, msg } => self.deliver(to, NodeEvent::Net(msg)),
            }
        }
        None
    }
}

impl TimeSource for ThreadHost {
    fn local_time_us(&mut self, _node: u32) -> u64 {
        // One machine, one clock: no skew between nodes, but keep the
        // same far-from-zero epoch convention as the simulation.
        self.elapsed_us() + 3_600_000_000
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.elapsed_us())
    }
}

impl Transport for ThreadHost {
    fn send(&mut self, from: u32, to: u32, msg: Message) {
        self.metrics.inc(message_kind(&msg));
        self.messages += 1;
        let now_us = self.elapsed_us();
        if self.fault_plan.dropped(from, to, now_us) {
            self.metrics.inc("faults_dropped");
            return;
        }
        let extra = self.fault_plan.delay_extra_us(from, to, now_us);
        if extra > 0 {
            self.metrics.inc("faults_delayed");
        }
        let jitter = match self.fault_plan.reorder_jitter_us(from, to, now_us) {
            Some(j) => {
                self.metrics.inc("faults_reordered");
                self.fault_rng.uniform_u64_incl(0, j)
            }
            None => 0,
        };
        let deliver_at = now_us + extra + jitter;
        if let Some(gap) = self.fault_plan.duplicate_gap_us(from, to, now_us) {
            self.metrics.inc("faults_duplicated");
            let dup_at = deliver_at + self.fault_rng.uniform_u64_incl(1, gap.max(1));
            let msg = msg.clone();
            self.due.push(dup_at, Due::Send { to, msg });
        }
        if extra == 0 && jitter == 0 {
            self.deliver(to, NodeEvent::Net(msg));
        } else {
            self.due.push(deliver_at, Due::Send { to, msg });
        }
    }

    fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg) {
        self.messages += 1;
        self.deliver(to, NodeEvent::Ctrl { from, ctrl });
    }

    fn set_timer(&mut self, _node: u32, after_us: u64, timer: Timer) {
        let at_us = self.elapsed_us() + after_us;
        self.due.push(at_us, Due::Timer(timer));
    }
}

impl RuntimeHost for ThreadHost {
    fn record_op(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn inc(&mut self, name: &'static str) {
        self.metrics.inc(name);
    }

    fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    fn trace(&mut self, _event: TraceEvent) {
        // No observer support in the threaded runner.
    }

    fn prepared(&mut self, site: SiteId, gtxn: GlobalTxnId, incarnation: u32) {
        let struck = self.injector.strikes();
        let boost = self.fault_plan.abort_boost(self.elapsed_us());
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
            self.metrics.inc("local_committed");
        } else {
            self.metrics.inc("local_aborted");
        }
        let _ = self.shared.notices.send(Notice::LocalSettled { committed });
    }

    fn global_finished(&mut self, _cnode: u32, gtxn: GlobalTxnId, outcome: GlobalOutcome) {
        let _ = self
            .shared
            .notices
            .send(Notice::GlobalFinished { gtxn, outcome });
    }
}

impl NodePort for ThreadHost {
    /// Coordinators, the scheduler and acceptors set no timers, so with no
    /// `wait_us` and nothing held this blocks until a message arrives.
    fn recv(&mut self, wait_us: Option<u64>) -> Option<NodeEvent> {
        if let Some(ev) = self.pop_due() {
            return Some(ev);
        }
        let until_due = self
            .due
            .next_deadline_us()
            .map(|at| at.saturating_sub(self.elapsed_us()));
        let received = match [wait_us, until_due].into_iter().flatten().min() {
            Some(us) => self.rx.recv_timeout(Duration::from_micros(us.max(1))),
            None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => self.pop_due(),
            Err(RecvTimeoutError::Disconnected) => Some(NodeEvent::Shutdown),
        }
    }

    /// Within a burst, queued messages go before due timers — a timeout is
    /// "late" on a healthy network: an alive tick that fires ahead of the
    /// already-delivered COMMIT its held entry is waiting for only re-arms
    /// itself. `recv` opens every burst with a due timer, so timers are
    /// never starved by a deep inbox.
    fn try_recv(&mut self) -> Option<NodeEvent> {
        match self.rx.try_recv() {
            Ok(ev) => Some(ev),
            Err(TryRecvError::Empty) => self.pop_due(),
            Err(TryRecvError::Disconnected) => Some(NodeEvent::Shutdown),
        }
    }

    /// Sends go straight to the peer's channel; nothing is staged.
    fn flush(&mut self) {}

    fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// The threaded driver never drains: each thread hands its ops back
    /// when it is joined instead.
    fn report(&mut self) {}

    /// Crash-stop is leaving the loop; the [`ExitGuard`] tells the driver.
    fn crash_stop(&mut self) {}
}

/// Runs a [`SimConfig`] workload on real threads — one per site, one per
/// coordinator, plus the CGM central scheduler — and reports in the same
/// [`SimReport`] shape as the simulation.
pub struct ThreadedRunner {
    cfg: SimConfig,
    panic_node: Option<u32>,
}

/// What joining a node thread yields: what its host collected and, for a
/// site, the agent's end-of-run statistics.
struct NodeResult {
    metrics: Metrics,
    ops: Vec<Op>,
    messages: u64,
    agent: Option<AgentStats>,
}

impl ThreadedRunner {
    /// Build a runner for the configuration. `cfg.crashes` is ignored
    /// (crash injection is simulation-only); everything else applies,
    /// including `cfg.faults` — wire faults interpose on the channels
    /// (with windows measured in elapsed wall-clock µs), while `SiteCrash`
    /// actions are skipped like `cfg.crashes`.
    pub fn new(cfg: SimConfig) -> ThreadedRunner {
        ThreadedRunner {
            cfg,
            panic_node: None,
        }
    }

    /// Test hook: the given node's thread panics on entry, exercising the
    /// shutdown path for a dead node. The run still signals, drains and
    /// joins every other thread, then re-raises the panic.
    #[doc(hidden)]
    pub fn panic_at_node(mut self, node: u32) -> ThreadedRunner {
        self.panic_node = Some(node);
        self
    }

    /// Run the workload to completion (or the wall-clock time limit) and
    /// report. Histories differ run to run; correctness must not.
    pub fn run(self) -> SimReport {
        let cfg = self.cfg;
        let panic_node = self.panic_node;
        let spec = cfg.workload.clone();
        let root = DetRng::new(spec.seed);
        // Any `SiteCrash` actions are ignored here (crash injection is
        // simulation-only); the wire faults and abort bursts apply.
        let fault_plan = Arc::new(cfg.faults.clone().unwrap_or_default());

        // Pre-draw the entire workload in the canonical cross-driver order
        // so the thread race never touches the draw order.
        let drawn = predraw(&spec);
        let mut locals = drawn.locals;

        // Node order fixes the history merge order: sites, then
        // coordinators, central and acceptors (which never record ops).
        let cgm = matches!(cfg.protocol, Protocol::Cgm);
        let mut node_ids: Vec<u32> = (0..spec.sites).collect();
        node_ids.extend((0..cfg.coordinators).map(|c| COORD_BASE + c));
        node_ids.extend(cgm.then_some(CENTRAL));
        node_ids.extend(acceptor_nodes(&cfg));

        let mut senders = BTreeMap::new();
        let mut receivers: BTreeMap<u32, Receiver<NodeEvent>> = BTreeMap::new();
        for &node in &node_ids {
            let (tx, rx) = unbounded();
            senders.insert(node, tx);
            receivers.insert(node, rx);
        }

        let (notice_tx, notice_rx) = unbounded();
        let shared = Arc::new(SharedWorld {
            senders,
            notices: notice_tx,
            epoch: Instant::now(),
        });

        let deadline = shared.epoch + Duration::from_secs_f64(cfg.time_limit.as_secs_f64());
        let mut site_stats: Vec<AgentStats> = Vec::new();
        let mut metrics = Metrics::new();

        let scope_result = crossbeam::thread::scope(|scope| {
            let cfg = &cfg;
            let mut handles = Vec::new();
            for &node in &node_ids {
                let host = ThreadHost {
                    shared: Arc::clone(&shared),
                    rx: receivers[&node].clone(),
                    metrics: Metrics::new(),
                    ops: Vec::new(),
                    messages: 0,
                    due: TimerHeap::default(),
                    injector: AbortInjector::new(
                        root.substream_n("inject", node as u64),
                        root.substream_n("fault-burst", node as u64),
                        spec.unilateral_abort_prob,
                        cfg.abort_delay_max_us,
                    ),
                    fault_plan: Arc::clone(&fault_plan),
                    fault_rng: root.substream_n("netfault", node as u64),
                    deadline,
                };
                handles.push(if node >= ACCEPTOR_BASE {
                    spawn_node(
                        scope,
                        panic_node,
                        node,
                        AcceptorRuntime::new(node),
                        host,
                        |_| None,
                    )
                } else if node == CENTRAL {
                    spawn_node(scope, panic_node, node, CentralRuntime::new(), host, |_| {
                        None
                    })
                } else if node >= COORD_BASE {
                    let rt = coordinator_runtime(cfg, node - COORD_BASE);
                    spawn_node(scope, panic_node, node, rt, host, |_| None)
                } else {
                    let mut rt = site_runtime(cfg, node);
                    rt.set_housekeeping(locals.remove(&SiteId(node)).unwrap_or_default());
                    spawn_node(scope, panic_node, node, rt, host, |rt| {
                        Some(*rt.agent().stats())
                    })
                });
            }

            // ---------------- Driver ----------------
            let total_locals = spec.sites as u64 * spec.local_txns_per_site as u64;
            let mut window = AdmissionWindow::new(spec.mpl, cfg.coordinators);
            for (gtxn, program) in drawn.globals {
                window.arrive(gtxn, program);
            }
            let mut settled_globals = 0u64;
            let mut settled_locals = 0u64;
            let mut committed = 0u64;
            let mut aborted = 0u64;
            let mut local_committed = 0u64;
            let mut local_aborted = 0u64;

            // A coordinator configured to crash-stop exits mid-run; the
            // driver promotes a backup instead of abandoning the run.
            let expected_crash = cfg
                .coord_crash_after_ready
                .map(|(cc, _)| COORD_BASE + cc)
                .filter(|_| cfg.consensus_f > 0);
            let mut dead: BTreeSet<u32> = BTreeSet::new();

            let admit = |window: &mut AdmissionWindow, dead: &BTreeSet<u32>| {
                while let Some((cnode, gtxn, program)) = window.admit(dead) {
                    let _ = shared.senders[&cnode].send(NodeEvent::Start { gtxn, program });
                }
            };
            admit(&mut window, &dead);

            while settled_globals < spec.global_txns as u64 || settled_locals < total_locals {
                if Instant::now() >= deadline {
                    break; // wall-clock safety valve; report what settled
                }
                match notice_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(Notice::GlobalFinished { gtxn, outcome }) => {
                        if !window.settled(gtxn) {
                            continue; // a takeover's repeat
                        }
                        settled_globals += 1;
                        match outcome {
                            GlobalOutcome::Committed => committed += 1,
                            GlobalOutcome::Aborted => aborted += 1,
                        }
                        admit(&mut window, &dead);
                    }
                    Ok(Notice::LocalSettled { committed: ok }) => {
                        settled_locals += 1;
                        if ok {
                            local_committed += 1;
                        } else {
                            local_aborted += 1;
                        }
                    }
                    Ok(Notice::NodeExited { node, panicked }) => {
                        if !panicked && expected_crash == Some(node) && dead.is_empty() {
                            // The configured crash-stop fired: promote the
                            // lowest live coordinator, which reads the
                            // acceptor quorum and adopts the dead
                            // coordinator's in-flight transactions.
                            dead.insert(node);
                            metrics.inc("coord_crashes");
                            if let Some(backup) = lowest_live_coordinator(cfg.coordinators, &dead) {
                                metrics.inc("coord_takeovers");
                                let _ = shared.senders[&backup].send(NodeEvent::TakeOver);
                                // The dead coordinator's channel may hold
                                // Starts it never processed (no Begin was
                                // ever sent, so the takeover cannot adopt
                                // them); the driver still owns a receiver
                                // clone, so replay them at the backup
                                // behind the TakeOver. No more can arrive:
                                // admission reroutes from here on.
                                while let Ok(m) = receivers[&node].try_recv() {
                                    if matches!(m, NodeEvent::Start { .. }) {
                                        let _ = shared.senders[&backup].send(m);
                                    }
                                }
                            }
                            admit(&mut window, &dead);
                            continue;
                        }
                        // A node died mid-run (panic or premature exit).
                        // Stop waiting for its work immediately instead of
                        // sleeping out the time limit; the joins below
                        // surface the panic after the other threads drain.
                        metrics.inc(if panicked {
                            "node_panic_exits"
                        } else {
                            "node_early_exits"
                        });
                        metrics.add("dead_node_id", node as u64);
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            let finished_at = SimTime::from_micros(shared.epoch.elapsed().as_micros() as u64);

            // Shutdown hygiene: signal every node, join every thread, and
            // only then re-raise any panic — so one dead node never leaves
            // the rest detached and mid-protocol.
            for tx in shared.senders.values() {
                let _ = tx.send(NodeEvent::Shutdown);
            }
            // Joining in node order concatenates the per-node slices: each
            // site's ops keep their own order, and conflicts are intra-site,
            // so cross-node order is immaterial — the same merge the
            // multi-process cluster driver performs.
            let mut ops = Vec::new();
            let mut messages = 0;
            let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
            for h in handles {
                match h.join() {
                    Ok(mut node) => {
                        metrics.merge(&node.metrics);
                        ops.append(&mut node.ops);
                        messages += node.messages;
                        site_stats.extend(node.agent);
                    }
                    Err(p) => panics.push(p),
                }
            }
            if let Some(p) = panics.into_iter().next() {
                std::panic::resume_unwind(p);
            }

            metrics.add("global_committed", committed);
            metrics.add("global_aborted", aborted);

            let history = mdbs_histories::History::from_ops(ops);
            let checks = CorrectnessReport::analyze(&history, spec.sites);
            for st in &site_stats {
                for (name, n) in st.certification_counters() {
                    metrics.add(name, n);
                }
            }
            SimReport {
                protocol: cfg.protocol.label(),
                history,
                checks,
                committed,
                aborted,
                local_committed,
                local_aborted,
                messages,
                finished_at,
                metrics,
            }
        });
        // A child panic surfaces here as the scope error; re-raise it with
        // its original payload instead of wrapping it in a second panic.
        match scope_result {
            Ok(report) => report,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Put one node on its own thread: the shared [`run_node`] loop over the
/// node's runtime and its [`ThreadHost`]. `stats` reads what the driver
/// wants from the runtime once the loop has ended.
fn spawn_node<'scope, R: NodeRuntime + Send + 'scope>(
    scope: &Scope<'scope, '_>,
    panic_node: Option<u32>,
    node: u32,
    mut rt: R,
    mut host: ThreadHost,
    stats: fn(&R) -> Option<AgentStats>,
) -> std::thread::ScopedJoinHandle<'scope, NodeResult> {
    let guard = ExitGuard {
        node,
        notices: host.shared.notices.clone(),
    };
    scope.spawn(move |_| {
        let _guard = guard;
        if panic_node == Some(node) {
            // mdbs-check: allow(conc-panic-in-thread, "doc(hidden) fault-injection hook; panics only when a test asks for one")
            panic!("injected test panic at node {node}");
        }
        run_node(&mut rt, &mut host);
        NodeResult {
            metrics: host.metrics,
            ops: host.ops,
            messages: host.messages,
            agent: stats(&rt),
        }
    })
}
