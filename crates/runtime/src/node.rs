//! The event/loop layer: one node vocabulary, one dispatch, one loop.
//!
//! The paper defines an Agent, a Coordinator and the CGM central scheduler
//! purely by the messages and timers they react to; nothing depends on
//! whether an input arrives from an event queue, a channel or a socket.
//! This module is that statement in code:
//!
//! - [`NodeEvent`] is everything a node can be handed, and
//!   [`NodeRuntime::on_event`] — implemented once per runtime, next to the
//!   runtime — is the only way in. An event of a kind the node never
//!   handles is counted (`misrouted_events`) and dropped, in every host.
//! - [`run_node`] is the only blocking-receive loop in the workspace. A
//!   host supplies a [`NodePort`] (how to wait, how to flush, how to die)
//!   on top of its [`RuntimeHost`]; the threaded runner and the TCP node
//!   process instantiate the loop; the simulation and the scripted host
//!   ([`crate::script`]) step [`NodeSet::on_event`] directly.
//! - The per-node housekeeping every host needs lives here once: the
//!   deadline-ordered [`TimerHeap`], the `coord_crash_after_ready` counter
//!   ([`ReadyCrash`]), unilateral-abort injection ([`AbortInjector`]), the
//!   MPL [`AdmissionWindow`] with its crashed-coordinator reroute, and the
//!   [`or_die`] failure policy.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use mdbs_dtm::Message;
use mdbs_histories::{GlobalTxnId, Instance, SiteId};
use mdbs_ldbs::Command;
use mdbs_simkit::{DetRng, Metrics};

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost, Timer};
use crate::{
    AcceptorRuntime, CentralRuntime, CoordinatorRuntime, ExpiredWait, SiteRuntime, ACCEPTOR_BASE,
    CENTRAL, COORD_BASE,
};

/// How many already-queued events one wake-up of [`run_node`] handles after
/// its blocking receive returns. Bounded so a deep backlog never starves
/// the flush, the deadlock scan or the drain report.
pub const RECV_BATCH: usize = 64;

/// A global transaction's program: one command per step, each at a site.
pub type Program = Vec<(SiteId, Command)>;

/// Everything a node can be handed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// A 2PC protocol message.
    Net(Message),
    /// A control-plane message (CGM scheduler or Paxos Commit traffic).
    Ctrl {
        /// The sending node.
        from: u32,
        /// The message.
        ctrl: CtrlMsg,
    },
    /// A timer this node set came due.
    Timer(Timer),
    /// Driver → coordinator: start this global transaction.
    Start {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its program.
        program: Program,
    },
    /// Driver → backup coordinator: a coordinator crash-stopped; adopt its
    /// in-flight transactions through the acceptor quorum.
    TakeOver,
    /// Driver → node: every global settled; report once quiesced.
    Drain,
    /// Driver → node: exit the loop.
    Shutdown,
}

/// What the host must do after an event was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Flow {
    /// Keep going.
    Continue,
    /// The `coord_crash_after_ready` hook fired: the event was *not*
    /// processed and the node must crash-stop now. Each host turns this
    /// into its own trigger — the simulation marks the node dead and
    /// schedules the takeover, a thread leaves its loop, a process exits.
    Crash,
}

/// A runtime that can be driven by events.
pub trait NodeRuntime {
    /// Handle one event. [`NodeEvent::Drain`] and [`NodeEvent::Shutdown`]
    /// belong to the loop, not the runtime: like any other kind the node
    /// has no handler for, they count as `misrouted_events` here.
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError>;

    /// Fire the node's own due work between bursts (sites: local-queue
    /// admission and the deadlock / wait-timeout scan).
    fn tick<H: RuntimeHost>(&mut self, _host: &mut H) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// When [`NodeRuntime::tick`] next has work, on the host's
    /// [`crate::TimeSource::now`] clock; the loop never sleeps past it.
    fn next_tick_us(&self) -> Option<u64> {
        None
    }

    /// Whether the node holds no unfinished work (the drain barrier).
    fn quiesced(&self) -> bool {
        true
    }
}

/// What a host adds to its [`RuntimeHost`] so [`run_node`] can drive it.
pub trait NodePort: RuntimeHost {
    /// The next event: work the port itself holds that is already due
    /// (timers, delayed sends) first, else wait up to `wait_us` — `None`
    /// means as long as the port sees fit — for one to arrive. `None` back
    /// means the wait ended with nothing to handle.
    fn recv(&mut self, wait_us: Option<u64>) -> Option<NodeEvent>;

    /// The next event that needs no waiting, if any.
    fn try_recv(&mut self) -> Option<NodeEvent>;

    /// Hand everything staged by the last burst to the wire. Runs before
    /// every blocking [`NodePort::recv`] and when the loop ends.
    fn flush(&mut self);

    /// Whether the host's wall-clock safety valve has passed.
    fn expired(&self) -> bool;

    /// The drain barrier passed: ship this node's report. Called once.
    fn report(&mut self);

    /// The crash hook fired: die the way this host dies (may not return).
    fn crash_stop(&mut self);
}

/// The node loop: block → handle at most [`RECV_BATCH`] queued events →
/// fire due work → flush → block. Returns on [`NodeEvent::Shutdown`], on
/// the port's deadline, or — without a final flush, so staged output dies
/// with the node — when the crash hook fires.
pub fn run_node<R: NodeRuntime, P: NodePort>(rt: &mut R, port: &mut P) {
    let mut draining = false;
    let mut reported = false;
    'run: loop {
        or_die(rt.tick(port));
        if draining && !reported && rt.quiesced() {
            reported = true;
            port.report();
        }
        if port.expired() {
            break;
        }
        let wait_us = rt
            .next_tick_us()
            .map(|at| at.saturating_sub(port.now().as_micros()).max(1));
        // Group commit: everything the last burst produced leaves before
        // the loop blocks.
        port.flush();
        let mut event = port.recv(wait_us);
        let mut budget = RECV_BATCH;
        while let Some(ev) = event.take() {
            match ev {
                NodeEvent::Shutdown => break 'run,
                NodeEvent::Drain => draining = true,
                ev => {
                    if or_die(rt.on_event(ev, port)) == Flow::Crash {
                        port.crash_stop();
                        return;
                    }
                }
            }
            budget -= 1;
            if budget == 0 {
                break;
            }
            event = port.try_recv();
        }
    }
    port.flush();
}

/// Host policy for runtime-internal failures: an engine/protocol
/// disagreement is a bug in this repo, so dying loudly (with the error's
/// context) beats corrupting a history. The model checker is the one host
/// that reports the error as a counterexample instead.
pub fn or_die<T>(r: Result<T, RuntimeError>) -> T {
    match r {
        Ok(v) => v,
        // mdbs-check: allow(conc-panic-in-thread, "deliberate die-fast: a node thread's exit guard tells the threaded driver, which joins everyone and re-raises; a node process just dies")
        Err(e) => panic!("runtime invariant violated: {e}"),
    }
}

/// One entry of a [`TimerHeap`], ordered by `(deadline, seq)`.
struct TimerEntry<T> {
    at_us: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for TimerEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}
impl<T> Eq for TimerEntry<T> {}
impl<T> PartialOrd for TimerEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for TimerEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// Work waiting for a deadline on the host's clock, earliest first;
/// entries with equal deadlines pop in insertion order.
pub struct TimerHeap<T> {
    heap: BinaryHeap<Reverse<TimerEntry<T>>>,
    seq: u64,
}

impl<T> Default for TimerHeap<T> {
    fn default() -> Self {
        TimerHeap {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> TimerHeap<T> {
    /// Queue `item` for `at_us`.
    pub fn push(&mut self, at_us: u64, item: T) {
        self.seq += 1;
        self.heap.push(Reverse(TimerEntry {
            at_us,
            seq: self.seq,
            item,
        }));
    }

    /// The earliest pending deadline.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at_us)
    }

    /// Pop the head entry if it is due at `now_us`.
    pub fn pop_due(&mut self, now_us: u64) -> Option<T> {
        if self.next_deadline_us()? > now_us {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e.item)
    }
}

/// The `coord_crash_after_ready = (c, k)` hook as seen by one coordinator:
/// it dies on receipt of its `k`-th READY, *before* processing it — votes
/// collected, no decision broadcast. `k = 0` never fires.
#[derive(Debug, Default)]
pub struct ReadyCrash {
    after: u32,
    seen: u32,
}

impl ReadyCrash {
    /// The hook for coordinator `node` under the configured `(c, k)`.
    pub fn for_node(hook: Option<(u32, u32)>, node: u32) -> ReadyCrash {
        let after = match hook {
            Some((c, k)) if COORD_BASE + c == node => k,
            _ => 0,
        };
        ReadyCrash { after, seen: 0 }
    }

    /// Count `msg` if it is a READY; true exactly on the `k`-th.
    pub fn strikes(&mut self, msg: &Message) -> bool {
        if self.after == 0 || !matches!(msg, Message::Ready { .. }) {
            return false;
        }
        self.seen += 1;
        self.seen == self.after
    }
}

/// Unilateral-abort injection behind [`RuntimeHost::prepared`]: decides
/// whether a just-prepared subtransaction is struck and after what delay.
/// The strike is delivered as a [`Timer::InjectAbort`] through the host's
/// own timer path.
pub struct AbortInjector {
    /// Delay draws, and the strike draw of hosts without a shared
    /// workload generator.
    rng: DetRng,
    /// Fault-plan abort-burst draws, kept apart so a burst never perturbs
    /// the baseline injection stream.
    burst_rng: DetRng,
    abort_prob: f64,
    delay_max_us: u64,
}

impl AbortInjector {
    /// An injector striking with `abort_prob` after up to `delay_max_us`.
    pub fn new(rng: DetRng, burst_rng: DetRng, abort_prob: f64, delay_max_us: u64) -> Self {
        AbortInjector {
            rng,
            burst_rng,
            abort_prob,
            delay_max_us,
        }
    }

    /// The workload's own strike draw.
    pub fn strikes(&mut self) -> bool {
        self.rng.chance(self.abort_prob)
    }

    /// Given the workload's strike draw and the fault plan's current abort
    /// `boost`, the timer (delay + payload) that delivers the strike, or
    /// `None` when the subtransaction is spared.
    pub fn on_prepared(
        &mut self,
        struck: bool,
        boost: f64,
        instance: Instance,
        metrics: &mut Metrics,
    ) -> Option<(u64, Timer)> {
        if !struck {
            if boost <= 0.0 || !self.burst_rng.chance(boost) {
                return None;
            }
            metrics.inc("fault_abort_bursts");
        }
        metrics.inc("injections_scheduled");
        let delay = if self.delay_max_us == 0 {
            0
        } else {
            self.rng.uniform_u64(0, self.delay_max_us)
        };
        Some((delay, Timer::InjectAbort { instance }))
    }
}

/// The lowest-numbered coordinator not in `dead`: the backup that takes
/// over, and where a dead coordinator's admissions are rerouted.
pub fn lowest_live_coordinator(coordinators: u32, dead: &BTreeSet<u32>) -> Option<u32> {
    (0..coordinators)
        .map(|c| COORD_BASE + c)
        .find(|n| !dead.contains(n))
}

/// The driver's multiprogramming window: at most `mpl` global transactions
/// in flight, each admitted at its home coordinator
/// (`gtxn mod coordinators`) or, once that one is dead, at the lowest live
/// coordinator.
pub struct AdmissionWindow {
    mpl: u32,
    coordinators: u32,
    in_flight: BTreeSet<GlobalTxnId>,
    ready: VecDeque<(GlobalTxnId, Program)>,
}

impl AdmissionWindow {
    /// An empty window.
    pub fn new(mpl: u32, coordinators: u32) -> AdmissionWindow {
        AdmissionWindow {
            mpl,
            coordinators,
            in_flight: BTreeSet::new(),
            ready: VecDeque::new(),
        }
    }

    /// A transaction arrived: queue it for admission.
    pub fn arrive(&mut self, gtxn: GlobalTxnId, program: Program) {
        self.ready.push_back((gtxn, program));
    }

    /// A transaction reached its terminal outcome: true the first time it
    /// is reported. Under Paxos Commit a backup can report it again (it
    /// re-adopts a transaction that settled at the crashed coordinator
    /// before its compaction left); the repeat frees no slot and answers
    /// false, so a driver counts each transaction once.
    pub fn settled(&mut self, gtxn: GlobalTxnId) -> bool {
        self.in_flight.remove(&gtxn)
    }

    /// Nothing queued and nothing in flight.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.ready.is_empty()
    }

    /// The next admission, as `(coordinator node, transaction, program)`;
    /// call until `None`. Nothing is admitted while every coordinator is
    /// dead.
    pub fn admit(&mut self, dead: &BTreeSet<u32>) -> Option<(u32, GlobalTxnId, Program)> {
        if self.in_flight.len() >= self.mpl as usize {
            return None;
        }
        let backup = lowest_live_coordinator(self.coordinators, dead)?;
        let (gtxn, program) = self.ready.pop_front()?;
        self.in_flight.insert(gtxn);
        let home = COORD_BASE + gtxn.0 % self.coordinators;
        let cnode = if dead.contains(&home) { backup } else { home };
        Some((cnode, gtxn, program))
    }
}

/// Every runtime of one multidatabase, addressable by node id — what a
/// host that multiplexes all nodes onto one scheduler (the simulation, a
/// [`crate::script::Script`]) steps.
#[derive(Default)]
pub struct NodeSet {
    /// Site runtimes, at node = site id.
    pub sites: BTreeMap<SiteId, SiteRuntime>,
    /// Coordinator runtimes, at [`COORD_BASE`]` + i`.
    pub coords: BTreeMap<u32, CoordinatorRuntime>,
    /// The CGM central scheduler, at [`CENTRAL`].
    pub central: CentralRuntime,
    /// Paxos Commit acceptors, at [`ACCEPTOR_BASE`]` + i`.
    pub acceptors: BTreeMap<u32, AcceptorRuntime>,
    /// Crash-stopped coordinators: whatever is addressed to them is
    /// dropped, as a dead process would drop it.
    pub dead: BTreeSet<u32>,
}

impl NodeSet {
    /// Crash-stop coordinator `coord`; false if it was already dead.
    /// Crashes are permanent within a run.
    pub fn kill(&mut self, coord: u32) -> bool {
        self.dead.insert(coord)
    }

    /// The deadlock / wait-timeout scan of a host that sees every site:
    /// break each site's local waits-for cycles, then abort, in [`Instance`]
    /// order, every wait past its timeout when the scan began
    /// ([`SiteRuntime::expired_waits`] under `ceiling_us`; §6: cross-site
    /// waits no local graph sees). Returns those.
    pub fn scan_waits<H: RuntimeHost>(
        &mut self,
        ceiling_us: u64,
        host: &mut H,
    ) -> Result<BTreeSet<ExpiredWait>, RuntimeError> {
        for rt in self.sites.values_mut() {
            rt.kill_local_deadlocks(host)?;
        }
        let now = host.now();
        let expired: BTreeSet<ExpiredWait> = (self.sites.values())
            .flat_map(|rt| rt.expired_waits(now, ceiling_us))
            .collect();
        for wait in &expired {
            if let Some(rt) = self.sites.get_mut(&wait.instance.site) {
                rt.abort_on_timeout(*wait, host)?;
            }
        }
        Ok(expired)
    }

    /// Hand `event` to node `to`.
    pub fn on_event<H: RuntimeHost>(
        &mut self,
        to: u32,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        let unknown = RuntimeError::MissingState {
            node: to,
            context: "event for an unknown node",
        };
        if to >= ACCEPTOR_BASE {
            let rt = self.acceptors.get_mut(&to).ok_or(unknown)?;
            rt.on_event(event, host)
        } else if to == CENTRAL {
            self.central.on_event(event, host)
        } else if to >= COORD_BASE {
            if self.dead.contains(&to) {
                return Ok(Flow::Continue);
            }
            let rt = self.coords.get_mut(&to).ok_or(unknown)?;
            rt.on_event(event, host)
        } else {
            let rt = self.sites.get_mut(&SiteId(to)).ok_or(unknown)?;
            rt.on_event(event, host)
        }
    }
}
