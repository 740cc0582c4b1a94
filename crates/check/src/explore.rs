//! Bounded model checking over the real protocol runtimes.
//!
//! The explorer drives the world the simulation drives — the
//! [`NodeSet`](mdbs_runtime::NodeSet) [`mdbs_sim::node_set`] builds from a
//! [`SimConfig`], so the same runtimes with the same agent configuration
//! per [`Protocol`] — but replaces the event queue with a [`Script`]
//! (`mdbs_runtime::script`), whose lanes hold every effect until a step
//! delivers it, and writes the script by search: at every step the
//! set of enabled actions (per-link message deliveries, per-node timer
//! firings, unilateral-abort injections, coordinator crash-stops) is
//! enumerated, and a replay-based delay-bounded search (in the style of
//! CHESS) branches over the choices within explicit budgets:
//!
//! - the **delay budget** bounds how many times a run may pick a
//!   non-default delivery (the default is the oldest enabled event, which
//!   reproduces a well-behaved FIFO network);
//! - the **fault budget** bounds injected unilateral aborts against
//!   prepared subtransactions;
//! - the **coordinator-crash budget** bounds crash-stops in the READY
//!   window.
//!
//! Schedules are explored in level order by deviation count, so the first
//! counterexample found is minimal in the number of deviations from the
//! well-behaved run. After every step the checker asserts:
//!
//! - **runtime soundness** — any [`RuntimeError`] is a counterexample, and
//!   so is an event handed to a node kind that has no handler for it (the
//!   `misrouted_events` counter every host keeps);
//! - **§4.2 interval intersection** — a subtransaction admitted to the
//!   prepared table must have an alive interval intersecting every other
//!   in-table entry's stored intervals (checked at admission time against
//!   the agent's own table snapshot);
//!
//! and at the end of each run:
//!
//! - **global atomicity** — a committed transaction locally commits at
//!   every participant (and its last terminal op per site is the commit);
//!   an aborted one locally commits nowhere; no transaction finishes with
//!   two different outcomes;
//! - **commit-graph acyclicity** — the union of per-site local-commit
//!   orders ([`mdbs_histories::commit_order_graph`]) has no cycle;
//! - **completion** — every transaction settles before the step limit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use mdbs_dtm::{CertifierMode, GlobalOutcome, Message, PreparedEntry};
use mdbs_histories::{commit_order_graph, GlobalTxnId, History, Instance, OpKind, SiteId, Txn};
use mdbs_ldbs::{Command, KeySpec};
use mdbs_runtime::script::{Lane, Script};
use mdbs_runtime::{
    lowest_live_coordinator, message_kind, AdmissionWindow, NodeEvent, RuntimeError,
};
use mdbs_sim::{node_set, Protocol, SimConfig};
use mdbs_workload::WorkloadSpec;

/// Coordinator nodes of every explored world; the admission window homes
/// transaction `g` at coordinator `g mod COORDINATORS`.
const COORDINATORS: u32 = 2;
/// Rows per site store.
const ITEMS_PER_SITE: u64 = 8;
/// Lamport ticks a blocked instance may wait before the driver aborts it
/// (the §6 timeout-based deadlock resolution, in logical time): the
/// ceiling of `SiteRuntime::expired_waits`, which sits under the learned
/// timeout's floor and so always applies.
const WAIT_TIMEOUT_TICKS: u64 = 400;

/// One bounded-exploration problem: a tiny world plus search budgets.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The protocol under test, in the vocabulary scenario files use: the
    /// agents run [`Protocol::agent_mode`], and CGM adds the central
    /// scheduler, exactly as in every driver.
    pub protocol: Protocol,
    /// One program per global transaction; transaction `i` (1-based) runs
    /// `programs[i-1]`. The world has as many sites as the programs name.
    pub programs: Vec<Vec<(SiteId, Command)>>,
    /// Non-default delivery choices allowed per run.
    pub delay_budget: u32,
    /// Injected unilateral aborts allowed per run.
    pub fault_budget: u32,
    /// Coordinator crash-stops allowed per run. A crash is only enabled
    /// while a READY is pending delivery at the coordinator — the window
    /// between vote collection and the decision broadcast — and the lowest
    /// surviving coordinator takes over immediately afterwards.
    pub failover_budget: u32,
    /// Paxos Commit fault tolerance: `F > 0` adds `2F+1` acceptor nodes
    /// and gates every commit decision on the quorum; `0` is the paper's
    /// direct 2PC decision.
    pub consensus_f: u32,
    /// Hard cap on steps per run (exceeding it is reported as a
    /// counterexample: the world failed to settle).
    pub max_steps: usize,
    /// Hard cap on schedules explored (reaching it without a violation is
    /// a clean — but inexhaustive — result).
    pub max_runs: usize,
}

impl ExploreConfig {
    /// A 2CM world whose transaction `i` (1-based) adds 1, in order, to
    /// each `(site, key)` of `programs[i-1]`.
    fn base(programs: &[&[(u32, u64)]]) -> Self {
        let update =
            |&(site, key): &(u32, u64)| (SiteId(site), Command::Update(KeySpec::Key(key), 1));
        ExploreConfig {
            protocol: Protocol::TwoCm(CertifierMode::Full),
            programs: programs
                .iter()
                .map(|p| p.iter().map(update).collect())
                .collect(),
            delay_budget: 2,
            fault_budget: 0,
            failover_budget: 0,
            consensus_f: 0,
            max_steps: 600,
            max_runs: 20_000,
        }
    }

    /// Participating sites: every site some program names, numbered from 0.
    pub fn sites(&self) -> u32 {
        let highest = self.programs.iter().flatten().map(|(s, _)| s.0).max();
        highest.map_or(0, |s| s + 1)
    }

    /// The scenario whose [`node_set`] is the explored world. The LTM
    /// service time only spaces the runtime's own work timers; the search
    /// decides when each one fires.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            workload: WorkloadSpec {
                sites: self.sites(),
                items_per_site: ITEMS_PER_SITE,
                initial_value: 100,
                enforce_dlu: true,
                ..WorkloadSpec::default()
            },
            protocol: self.protocol,
            coordinators: COORDINATORS,
            ltm_service_us: 1,
            consensus_f: self.consensus_f,
            ..SimConfig::default()
        }
    }

    /// Two sites, two disjoint-key transactions, 2CM Full: the failure-free
    /// smoke configuration. Exhaustible quickly; must be violation-free.
    pub fn smoke_2cm() -> Self {
        ExploreConfig::base(&[&[(0, 0), (1, 1)], &[(0, 2), (1, 3)]])
    }

    /// The smoke configuration under the CGM baseline (central scheduler,
    /// admission locks, commit-graph vote).
    pub fn smoke_cgm() -> Self {
        ExploreConfig {
            protocol: Protocol::Cgm,
            ..ExploreConfig::smoke_2cm()
        }
    }

    /// Two transactions touching the same keys in opposite site order —
    /// drives lock conflicts, distributed blocking, and (with the fault
    /// budget) abort/resubmission interleavings.
    pub fn conflict() -> Self {
        let mut cfg = ExploreConfig::base(&[&[(0, 0), (1, 1)], &[(1, 1), (0, 0)]]);
        cfg.fault_budget = 1;
        cfg
    }

    /// The §4.2 world: there is a schedule — one injected abort freezing
    /// T1's interval at site a, plus one delayed delivery pushing T2's work
    /// at site a past the freeze — in which T2's candidate interval is
    /// disjoint from T1's stored one. `Full` refuses that PREPARE and the
    /// world exhausts clean; a certifier that skips the alive-interval
    /// check (`NoCertification`, or the kill matrix's `broken-basic-cert`
    /// mutant) admits it, violating the interval-intersection invariant.
    pub fn mutation_interval() -> Self {
        let mut cfg = ExploreConfig::base(&[&[(0, 3), (1, 4)], &[(0, 1), (1, 0), (0, 2)]]);
        cfg.fault_budget = 1;
        cfg.max_steps = 800;
        cfg.max_runs = 30_000; // exhausts at 18 170 schedules
        cfg
    }

    /// The smoke world under `F = 1` Paxos Commit with a coordinator
    /// crash-stop in the READY window. The backup reads the acceptor
    /// quorum and adopts the dead coordinator's transactions, so every
    /// schedule must still settle atomically: the preset must exhaust
    /// clean.
    pub fn coord_failover() -> Self {
        let mut cfg = ExploreConfig::smoke_2cm();
        cfg.consensus_f = 1;
        cfg.failover_budget = 1;
        cfg.delay_budget = 1;
        cfg.max_steps = 900;
        cfg.max_runs = 40_000;
        cfg
    }

    /// The same crash under direct 2PC (`F = 0`): the decision dies with
    /// the coordinator, so some schedule leaves a prepared agent blocked
    /// forever. The explorer must find that counterexample.
    pub fn coord_crash_direct() -> Self {
        let mut cfg = ExploreConfig::coord_failover();
        cfg.consensus_f = 0;
        cfg
    }
}

/// What the search concluded.
#[derive(Debug)]
pub enum ExploreOutcome {
    /// Every schedule within the budgets was run; no violation.
    Exhausted {
        /// Schedules executed.
        runs: usize,
    },
    /// The run cap was hit before the schedule space was exhausted; no
    /// violation among the schedules that did run.
    RunCapped {
        /// Schedules executed.
        runs: usize,
    },
    /// A violating schedule was found.
    Violation(Box<Counterexample>),
}

/// A minimized violating execution.
#[derive(Debug)]
pub struct Counterexample {
    /// What went wrong.
    pub violation: Violation,
    /// Human-readable step-by-step trace of the violating run.
    pub trace: Vec<String>,
    /// Deviations from the default schedule `(step, action)` — the
    /// "diff" against the well-behaved run, already minimal because the
    /// search is level-order by deviation count.
    pub deviations: Vec<String>,
    /// Schedules executed before this one was found.
    pub runs_explored: usize,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(
            f,
            "found after {} runs; {} deviation(s) from the default schedule:",
            self.runs_explored,
            self.deviations.len()
        )?;
        for d in &self.deviations {
            writeln!(f, "  * {d}")?;
        }
        writeln!(f, "trace ({} steps):", self.trace.len())?;
        for (i, line) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:>4}  {line}")?;
        }
        Ok(())
    }
}

/// An invariant the run broke.
#[derive(Debug)]
pub enum Violation {
    /// A runtime returned an internal-consistency error.
    Runtime(RuntimeError),
    /// A node was handed an event its kind has no handler for (it counted
    /// `misrouted_events` and dropped it); the trace's last step names
    /// the event.
    Misrouted,
    /// §4.2: a subtransaction was admitted to the prepared table although
    /// its candidate interval is disjoint from another in-table entry's
    /// stored intervals.
    IntervalDisjoint {
        /// The site whose certifier admitted it.
        site: SiteId,
        /// The admitted transaction.
        gtxn: GlobalTxnId,
        /// The in-table entry it fails to intersect.
        against: GlobalTxnId,
        /// The admitted entry's candidate begin (local µs).
        candidate_begin: u64,
        /// The other entry's latest stored interval end (local µs).
        other_end: u64,
    },
    /// A transaction finished twice with different outcomes.
    ConflictingOutcome {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The first reported outcome.
        first: GlobalOutcome,
        /// The contradicting second outcome.
        second: GlobalOutcome,
    },
    /// A committed transaction is missing its local commit at a
    /// participant site.
    CommitMissing {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The participant without a local commit.
        site: SiteId,
    },
    /// An aborted transaction locally committed somewhere.
    AbortedButCommitted {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// The site that committed it.
        site: SiteId,
    },
    /// The union of per-site local-commit orders has a cycle.
    CommitGraphCycle {
        /// The witnessing cycle, rendered.
        cycle: String,
    },
    /// The world ran out of enabled events with transactions unsettled.
    Incomplete {
        /// Transactions without a terminal outcome.
        unsettled: Vec<GlobalTxnId>,
    },
    /// The step cap was hit before the world settled.
    StepLimit {
        /// The cap that was hit.
        max_steps: usize,
    },
}

impl From<RuntimeError> for Violation {
    fn from(e: RuntimeError) -> Self {
        Violation::Runtime(e)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Runtime(e) => write!(f, "runtime error: {e}"),
            Violation::Misrouted => {
                write!(f, "a node was handed an event its kind does not handle")
            }
            Violation::IntervalDisjoint {
                site,
                gtxn,
                against,
                candidate_begin,
                other_end,
            } => write!(
                f,
                "site {site} admitted {gtxn} to the prepared table with candidate \
                 interval beginning at {candidate_begin} although {against}'s stored \
                 intervals end at {other_end} (< begin): §4.2 intersection violated"
            ),
            Violation::ConflictingOutcome {
                gtxn,
                first,
                second,
            } => write!(
                f,
                "{gtxn} finished twice with different outcomes: {first:?} then {second:?}"
            ),
            Violation::CommitMissing { gtxn, site } => write!(
                f,
                "{gtxn} committed globally but never committed locally at site {site}"
            ),
            Violation::AbortedButCommitted { gtxn, site } => write!(
                f,
                "{gtxn} aborted globally but committed locally at site {site}"
            ),
            Violation::CommitGraphCycle { cycle } => {
                write!(f, "commit-order graph has a cycle: {cycle}")
            }
            Violation::Incomplete { unsettled } => {
                write!(
                    f,
                    "no enabled events left but unsettled transactions remain:"
                )?;
                for g in unsettled {
                    write!(f, " {g}")?;
                }
                Ok(())
            }
            Violation::StepLimit { max_steps } => {
                write!(f, "world failed to settle within {max_steps} steps")
            }
        }
    }
}

// ---------------------------------------------------------------------
// The world and one run
// ---------------------------------------------------------------------

/// An enabled action at a step, with what it costs from the budgets.
#[derive(Debug, Clone)]
enum Action {
    /// Deliver the head event of a lane (for timer lanes: the entry with
    /// the smallest deadline).
    Deliver(Lane),
    /// Unilaterally abort a prepared-and-alive subtransaction instance.
    Inject(SiteId, Instance),
    /// Crash-stop a coordinator while a READY is pending at it, then let
    /// the lowest surviving coordinator take over.
    CrashCoord(u32),
}

/// Budget class of a deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cost {
    Delay,
    Fault,
    CoordCrash,
}

/// Everything one run needs to report back to the search.
struct RunResult {
    violation: Option<Violation>,
    trace: Vec<String>,
    /// Per step: the rendered actions and their deviation cost class
    /// (index 0 is the default and costs nothing).
    steps: Vec<Vec<(String, Cost)>>,
}

/// The explored world: the drivers' node set on a [`Script`], whose
/// moves the search picks, plus the outcomes taken in so far.
struct World {
    script: Script,
    outcomes: BTreeMap<GlobalTxnId, GlobalOutcome>,
}

impl World {
    fn new(cfg: &ExploreConfig) -> World {
        World {
            script: Script::new(node_set(&cfg.sim_config())),
            outcomes: BTreeMap::new(),
        }
    }

    /// Admit every transaction up front, through the drivers' admission
    /// window with room for all of them: maximal concurrency exposes the
    /// most interleavings in a bounded world.
    fn begin_all(&mut self, cfg: &ExploreConfig) -> Result<(), RuntimeError> {
        let mut window = AdmissionWindow::new(cfg.programs.len() as u32, COORDINATORS);
        for (i, program) in cfg.programs.iter().enumerate() {
            window.arrive(GlobalTxnId(i as u32 + 1), program.clone());
        }
        while let Some((cnode, gtxn, program)) = window.admit(&self.script.nodes.dead) {
            self.script
                .hand(cnode, NodeEvent::Start { gtxn, program })?;
        }
        Ok(())
    }

    /// The end of every step: a misrouted event is a violation; then the
    /// terminal outcomes queued during the step are taken in, mirrored from
    /// the simulation driver's `drain_finished`.
    fn end_step(&mut self) -> Result<(), Violation> {
        if self.script.host.metrics.counter("misrouted_events") > 0 {
            return Err(Violation::Misrouted);
        }
        for (gtxn, second) in std::mem::take(&mut self.script.host.finished) {
            let first = *self.outcomes.entry(gtxn).or_insert(second);
            if first != second {
                return Err(Violation::ConflictingOutcome {
                    gtxn,
                    first,
                    second,
                });
            }
        }
        Ok(())
    }

    /// All enabled actions, default first. Deliveries are ordered by the
    /// head key; the non-delivery alternatives (injections, crashes) come
    /// right after the default so that deviation indices spent on faults
    /// are small — the level-order search reaches them early.
    fn enumerate(&mut self, cfg: &ExploreConfig) -> Vec<(Action, Cost)> {
        // Firing a dead transaction's timer or delivering to a crashed
        // coordinator is a no-op that only widens the step space.
        self.script.prune();
        let (nodes, host) = (&self.script.nodes, &self.script.host);
        let deliveries = host.heads();
        let Some(&first) = deliveries.first() else {
            return Vec::new(); // terminal: nothing can make progress
        };
        let mut actions: Vec<(Action, Cost)> = vec![(Action::Deliver(first), Cost::Delay)];
        if cfg.fault_budget > 0 {
            for (site, rt) in &nodes.sites {
                for entry in rt.agent().prepared_table() {
                    if !entry.alive || entry.commit_pending {
                        continue;
                    }
                    let Some(inc) = rt.agent().incarnation_of(entry.gtxn) else {
                        continue;
                    };
                    let instance = Instance::global(entry.gtxn.0, *site, inc);
                    if rt.is_instance_active(instance) {
                        actions.push((Action::Inject(*site, instance), Cost::Fault));
                    }
                }
            }
        }
        if cfg.failover_budget > 0 {
            // A coordinator crash-stop is enabled exactly while a READY is
            // pending delivery at it — the window between a site's vote
            // and the decision broadcast — and only while a backup
            // survives to take over.
            let live = nodes.coords.len() - nodes.dead.len();
            if live >= 2 {
                for &cnode in nodes.coords.keys() {
                    if nodes.dead.contains(&cnode) {
                        continue;
                    }
                    let ready_pending = deliveries.iter().any(|&lane| {
                        matches!(lane, Lane::Link { to, .. } if to == cnode)
                            && matches!(
                                host.parked(lane).next(),
                                Some(NodeEvent::Net(Message::Ready { .. }))
                            )
                    });
                    if ready_pending {
                        actions.push((Action::CrashCoord(cnode), Cost::CoordCrash));
                    }
                }
            }
        }
        for &lane in &deliveries[1..] {
            actions.push((Action::Deliver(lane), Cost::Delay));
        }
        actions
    }

    /// Take one action through the script. No crash hook is armed
    /// (coordinator crashes are explicit [`Action::CrashCoord`] steps).
    fn act(&mut self, action: &Action) -> Result<(), RuntimeError> {
        match *action {
            Action::Deliver(Lane::Link { from, to }) => self.script.deliver(from, to),
            Action::Deliver(Lane::Timers { node }) => self.script.fire(node, |_| true),
            Action::Inject(site, instance) => self.script.inject_abort(site, instance),
            Action::CrashCoord(cnode) => self.crash_coord(cnode),
        }
    }

    /// Crash-stop a coordinator. Control traffic it already handed to the
    /// network is not revoked — the in-flight coordinator → acceptor
    /// messages (registrations, compactions) are delivered in order first,
    /// so a failover never races a registration it structurally cannot
    /// miss. Everything addressed *to* the dead node is dropped, and the
    /// lowest surviving coordinator takes over (the failover timer, folded
    /// into the crash step to keep the search space small).
    fn crash_coord(&mut self, cnode: u32) -> Result<(), RuntimeError> {
        let acceptor_nodes: Vec<u32> = self.script.nodes.acceptors.keys().copied().collect();
        for to in acceptor_nodes {
            let lane = Lane::Link { from: cnode, to };
            while self.script.host.parked(lane).next().is_some() {
                self.script.deliver(cnode, to)?;
            }
        }
        self.script.nodes.kill(cnode);
        match lowest_live_coordinator(COORDINATORS, &self.script.nodes.dead) {
            Some(backup) => self.script.hand(backup, NodeEvent::TakeOver),
            None => Ok(()),
        }
    }

    /// §4.2 at admission time: the freshly admitted entry's candidate
    /// interval must intersect every other in-table entry's stored
    /// interval. On admission the certifier stores exactly the candidate as
    /// `(begin, now)`, so the snapshot carries the certified values.
    fn check_admissions(&mut self) -> Result<(), Violation> {
        let admissions = std::mem::take(&mut self.script.host.prepared);
        for (site, gtxn) in admissions {
            let Some(rt) = self.script.nodes.sites.get(&site) else {
                continue;
            };
            let table = rt.agent().prepared_table();
            let Some(cand) = table.iter().find(|e| e.gtxn == gtxn) else {
                continue; // already gone again (settled within the batch)
            };
            let (candidate_begin, _) = cand.interval;
            for other in &table {
                let (_, other_end) = other.interval;
                if other.gtxn != gtxn && misses(other, candidate_begin) {
                    return Err(Violation::IntervalDisjoint {
                        site,
                        gtxn,
                        against: other.gtxn,
                        candidate_begin,
                        other_end,
                    });
                }
            }
        }
        Ok(())
    }

    /// End-of-run verdict: atomicity against the recorded history, then
    /// commit-graph acyclicity.
    fn final_checks(&self, cfg: &ExploreConfig) -> Result<(), Violation> {
        for (i, program) in cfg.programs.iter().enumerate() {
            let gtxn = GlobalTxnId(i as u32 + 1);
            let Some(&outcome) = self.outcomes.get(&gtxn) else {
                // Settledness is checked by the step loop; unreachable here.
                continue;
            };
            let participants: BTreeSet<SiteId> = program.iter().map(|(s, _)| *s).collect();
            for site in participants {
                // The terminal ops of (gtxn, site) in history order, true
                // for a commit: the last decides what the LDBS durably
                // holds for it.
                let terminal: Vec<bool> = (self.script.host.ops.iter())
                    .filter(|op| op.txn == Txn::Global(gtxn))
                    .filter_map(|op| match op.kind {
                        OpKind::LocalCommit(s) if s == site => Some(true),
                        OpKind::LocalAbort(s) if s == site => Some(false),
                        _ => None,
                    })
                    .collect();
                let violation = match outcome {
                    GlobalOutcome::Committed if terminal.last() != Some(&true) => {
                        Violation::CommitMissing { gtxn, site }
                    }
                    GlobalOutcome::Aborted if terminal.contains(&true) => {
                        Violation::AbortedButCommitted { gtxn, site }
                    }
                    GlobalOutcome::Committed | GlobalOutcome::Aborted => continue,
                };
                return Err(violation);
            }
        }
        let history = History::from_ops(self.script.host.ops.iter().copied());
        let cg = commit_order_graph(&history);
        if !cg.acyclic {
            let cycle = cg.cycle.map_or_else(
                || "(unwitnessed)".to_string(),
                |c| {
                    c.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(" -> ")
                },
            );
            return Err(Violation::CommitGraphCycle { cycle });
        }
        Ok(())
    }

    fn describe(&self, action: &Action) -> String {
        match *action {
            Action::Deliver(lane @ Lane::Link { from, to }) => {
                match self.script.host.parked(lane).next() {
                    Some(NodeEvent::Net(msg)) => {
                        format!("deliver {} {from} -> {to}", message_kind(msg))
                    }
                    Some(NodeEvent::Ctrl { ctrl, .. }) => {
                        format!("deliver ctrl {} {from} -> {to}", ctrl.variant_name())
                    }
                    _ => format!("deliver {from} -> {to}"),
                }
            }
            Action::Deliver(Lane::Timers { node }) => format!("fire timer at node {node}"),
            Action::Inject(site, instance) => {
                format!("inject unilateral abort of {instance} at site {site}")
            }
            Action::CrashCoord(cnode) => {
                format!("crash-stop coordinator {cnode}; backup takes over")
            }
        }
    }
}

// ---------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------

/// Run one schedule to completion.
fn run_schedule(cfg: &ExploreConfig, schedule: &[(usize, usize)]) -> RunResult {
    run_world(World::new(cfg), cfg, schedule)
}

/// Run one schedule to completion from `world` as built (and, in tests,
/// seeded with extra pending events).
fn run_world(mut world: World, cfg: &ExploreConfig, schedule: &[(usize, usize)]) -> RunResult {
    let mut run = RunResult {
        violation: None,
        trace: Vec::new(),
        steps: Vec::new(),
    };
    run.violation = play(&mut world, cfg, schedule, &mut run).err();
    run
}

/// The step loop of one run, recording its trace and per-step choices
/// into `run`; the first violation ends it.
fn play(
    world: &mut World,
    cfg: &ExploreConfig,
    schedule: &[(usize, usize)],
    run: &mut RunResult,
) -> Result<(), Violation> {
    world.begin_all(cfg)?;
    world.end_step()?;

    // Schedule deviations are keyed by *decision index* — the count of
    // actions actually executed — so that clock leaps (below) do not
    // shift a child schedule off the decision its parent branched at.
    let mut leaped = false;
    for _iter in 0..2 * cfg.max_steps {
        if run.steps.len() >= cfg.max_steps {
            break;
        }
        // Between steps: break local waits-for cycles and abort what is
        // blocked past the logical-time timeout (§6 — without this,
        // cross-site lock waits would deadlock every schedule that orders
        // two conflicting transactions against each other).
        let script = &mut world.script;
        for wait in script
            .nodes
            .scan_waits(WAIT_TIMEOUT_TICKS, &mut script.host)?
        {
            let i = wait.instance;
            run.trace
                .push(format!("timeout-abort {i} at site {}", i.site));
        }
        world.end_step()?;
        let actions = world.enumerate(cfg);
        if actions.is_empty() {
            let unsettled: Vec<GlobalTxnId> = (1..=cfg.programs.len() as u32)
                .map(GlobalTxnId)
                .filter(|g| !world.outcomes.contains_key(g))
                .collect();
            if unsettled.is_empty() {
                return world.final_checks(cfg);
            }
            if leaped {
                // A leap already expired every wait; the world is truly
                // stuck (e.g. a cross-site deadlock nothing resolves).
                return Err(Violation::Incomplete { unsettled });
            }
            // No enabled event, but transactions are still open: in the
            // real systems this is where wall-clock time passes until a
            // wait timeout fires. Model it by leaping the logical clock
            // past the timeout, then letting maintenance abort the
            // expired waits.
            world.script.advance(WAIT_TIMEOUT_TICKS + 1);
            run.trace.push(format!(
                "logical clock leaps past the wait timeout ({WAIT_TIMEOUT_TICKS} ticks)"
            ));
            leaped = true;
            continue;
        }
        leaped = false;
        let decision = run.steps.len();
        let choice = schedule
            .iter()
            .find(|&&(s, _)| s == decision)
            .map(|&(_, i)| i)
            .unwrap_or(0);
        let Some((action, _)) = actions.get(choice) else {
            // A schedule replayed against a shorter action list than its
            // parent saw cannot occur (replay is deterministic); treat it
            // as a clean dead end rather than a violation.
            return Ok(());
        };
        run.trace.push(world.describe(action));
        run.steps.push(
            actions
                .iter()
                .map(|(a, c)| (world.describe(a), *c))
                .collect(),
        );
        world.act(action)?;
        world.end_step()?;
        world.check_admissions()?;
    }
    Err(Violation::StepLimit {
        max_steps: cfg.max_steps,
    })
}

/// Whether a child deviating with `cost` still fits the budgets.
fn fits(cfg: &ExploreConfig, spent: &[Cost], cost: Cost) -> bool {
    let count = |c: Cost| spent.iter().filter(|&&s| s == c).count() as u32 + u32::from(cost == c);
    count(Cost::Delay) <= cfg.delay_budget
        && count(Cost::Fault) <= cfg.fault_budget
        && count(Cost::CoordCrash) <= cfg.failover_budget
}

/// A frontier entry: the schedule (sorted by decision index) and the
/// budget class of each of its deviations.
type Frontier = (Vec<(usize, usize)>, Vec<Cost>);

/// Explore every schedule within the budgets, level-ordered by deviation
/// count, and report the first (hence minimal) counterexample.
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    // Children only deviate strictly after the parent's last deviation,
    // so each schedule is enumerated exactly once.
    let mut queue: VecDeque<Frontier> = VecDeque::new();
    queue.push_back((Vec::new(), Vec::new()));
    let mut runs = 0usize;

    while let Some((schedule, costs)) = queue.pop_front() {
        if runs >= cfg.max_runs {
            return ExploreOutcome::RunCapped { runs };
        }
        runs += 1;
        let result = run_schedule(cfg, &schedule);
        if let Some(violation) = result.violation {
            let deviations = schedule
                .iter()
                .map(|&(step, idx)| {
                    let rendered = result
                        .steps
                        .get(step)
                        .and_then(|acts| acts.get(idx))
                        .map(|(d, _)| d.clone())
                        .unwrap_or_else(|| format!("action #{idx}"));
                    format!("step {step}: {rendered}")
                })
                .collect();
            return ExploreOutcome::Violation(Box::new(Counterexample {
                violation,
                trace: result.trace,
                deviations,
                runs_explored: runs,
            }));
        }
        let first_new = schedule.last().map(|&(s, _)| s + 1).unwrap_or(0);
        for (step, actions) in result.steps.iter().enumerate().skip(first_new) {
            for (idx, (_, cost)) in actions.iter().enumerate().skip(1) {
                if !fits(cfg, &costs, *cost) {
                    continue;
                }
                let mut child = schedule.clone();
                child.push((step, idx));
                let mut child_costs = costs.clone();
                child_costs.push(*cost);
                queue.push_back((child, child_costs));
            }
        }
    }
    ExploreOutcome::Exhausted { runs }
}

/// §4.2: a candidate that began at `candidate_begin` misses `other`'s
/// stored interval. A frozen (unilaterally aborted) interval is open at its
/// end — a command completing at the abort's own reading ran after it — so
/// there a tie misses too, as in the certifier and the linear oracle.
fn misses(other: &PreparedEntry, candidate_begin: u64) -> bool {
    let (_, end) = other.interval;
    end < candidate_begin || (!other.alive && end == candidate_begin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frozen_interval_misses_a_candidate_beginning_at_its_end() {
        let entry = |alive| PreparedEntry {
            gtxn: GlobalTxnId(1),
            sn: mdbs_dtm::SerialNumber {
                ticks: 1,
                node: 0,
                seq: 0,
            },
            interval: (10, 40),
            alive,
            commit_pending: false,
        };
        for alive in [true, false] {
            assert!(!misses(&entry(alive), 39), "alive={alive}");
            assert!(misses(&entry(alive), 41), "alive={alive}");
        }
        // The tie: an alive interval reaches the reading, a frozen one
        // stops short of it.
        assert!(!misses(&entry(true), 40));
        assert!(misses(&entry(false), 40));
    }

    #[test]
    fn default_schedules_settle_clean() {
        for cfg in [
            ExploreConfig::smoke_2cm(),
            ExploreConfig::smoke_cgm(),
            ExploreConfig::conflict(),
        ] {
            let result = run_schedule(&cfg, &[]);
            assert!(
                result.violation.is_none() && !result.trace.is_empty(),
                "{:?}: {:?}\ntrace:\n{}",
                cfg.protocol,
                result.violation,
                result.trace.join("\n")
            );
        }
    }

    #[test]
    fn a_misrouted_event_is_a_violation() {
        // A takeover belongs to a coordinator; the site drops it and
        // counts it, and the run must end there.
        let cfg = ExploreConfig::smoke_2cm();
        let mut world = World::new(&cfg);
        let host = &mut world.script.host;
        host.park(mdbs_runtime::COORD_BASE, 0, NodeEvent::TakeOver);
        let result = run_world(world, &cfg, &[]);
        assert!(
            matches!(result.violation, Some(Violation::Misrouted)),
            "{:?}\ntrace:\n{}",
            result.violation,
            result.trace.join("\n")
        );
    }
}
