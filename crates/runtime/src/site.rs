//! One site's runtime: the 2PC Agent, its LDBS engine, and the runners of
//! purely local transactions, driven through a [`RuntimeHost`].

use std::collections::{BTreeMap, VecDeque};

use mdbs_consensus::{fast_path_acceptors, PaxosMsg, Vote};
use mdbs_dtm::{Agent, AgentAction, AgentConfig, AgentInput, Message};
use mdbs_histories::{Instance, SiteId, Txn};
use mdbs_ldbs::{Command, EngineError, ExecStep, Ldbs, ResumedExec};
use mdbs_simkit::SimTime;

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost, Timer};
use crate::node::{Flow, NodeEvent, NodeRuntime};
use crate::trace::TraceEvent;

/// Period of the local deadlock scan, µs: how often a site looks for a
/// waits-for cycle among its own transactions and for waits past their
/// timeout ([`SiteRuntime::expired_waits`]). A wait therefore ends at most
/// one period past its timeout, unless that timeout fell while it waited.
pub const DEADLOCK_SCAN_US: u64 = 5_000;

/// Ceiling of the wait timeout, µs — the paper's timeout-based deadlock
/// resolution (§6), the only thing that breaks a cross-site deadlock no
/// LDBS can see. A site applies it until it has seen a lock wait granted,
/// and always to a prepared subtransaction's replay; otherwise it times a
/// wait out at what its granted waits predict, between
/// [`WAIT_TIMEOUT_FLOOR_US`] and this.
pub const WAIT_TIMEOUT_US: u64 = 400_000;

/// Floor of the learned wait timeout, µs: four deadlock scans, so the
/// local scan gets its chances at a cycle before a timeout guesses one.
pub const WAIT_TIMEOUT_FLOOR_US: u64 = 4 * DEADLOCK_SCAN_US;

/// Jacobson's retransmission-timeout estimator (RFC 6298) over the lock
/// waits a site has seen granted, in integer µs so runs stay
/// deterministic.
#[derive(Debug, Clone, Copy, Default)]
struct WaitEstimator {
    /// `(SRTT, RTTVAR)`: smoothed wait and its mean deviation; `None`
    /// before the first sample.
    smoothed: Option<(u64, u64)>,
}

impl WaitEstimator {
    /// Fold in one granted wait of `wait_us`.
    fn sample(&mut self, wait_us: u64) {
        self.smoothed = Some(match self.smoothed {
            None => (wait_us, wait_us / 2),
            Some((srtt, rttvar)) => (
                (7 * srtt + wait_us) / 8,
                (3 * rttvar + srtt.abs_diff(wait_us)) / 4,
            ),
        });
    }

    /// `SRTT + 4·RTTVAR`, at least [`WAIT_TIMEOUT_FLOOR_US`] and at most
    /// `ceiling_us`, which also applies before the first sample.
    fn timeout_us(&self, ceiling_us: u64) -> u64 {
        match self.smoothed {
            None => ceiling_us,
            Some((srtt, rttvar)) => (srtt + 4 * rttvar)
                .max(WAIT_TIMEOUT_FLOOR_US)
                .min(ceiling_us),
        }
    }
}

/// A lock wait past its timeout, as [`SiteRuntime::expired_waits`] finds
/// it and [`SiteRuntime::abort_on_timeout`] ends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExpiredWait {
    /// The blocked instance.
    pub instance: Instance,
    /// How long it has waited, µs.
    pub waited_us: u64,
    /// The timeout it exceeded, µs.
    pub timeout_us: u64,
}

/// A local transaction being driven directly against its LTM.
#[derive(Debug)]
struct LocalRunner {
    commands: Vec<Command>,
    next: usize,
}

/// The per-site half of the protocol: agent + engine + local runners.
///
/// Interprets [`AgentAction`]s against the engine and turns engine
/// progress back into [`AgentInput`]s; everything that leaves the site
/// (messages, timers, history ops) goes through the host.
///
/// Every entry point returns `Result`: an `Err` means the engine and the
/// protocol state machine disagreed about what is possible — a bug, not a
/// recoverable condition — and the driver chooses whether that is fatal
/// (sim, cluster node) or a reportable counterexample (`mdbs-check
/// explore`).
#[derive(Debug)]
pub struct SiteRuntime {
    site: SiteId,
    /// Effective agent configuration (the protocol's mode applied); crash
    /// recovery must rebuild the agent from *this*, not from any raw
    /// driver config.
    agent_cfg: AgentConfig,
    /// LTM service delay per DML command, µs.
    ltm_service_us: u64,
    agent: Agent,
    ldbs: Ldbs,
    local_runners: BTreeMap<Instance, LocalRunner>,
    /// Blocked-instance tracking for the wait timeout.
    blocked_since: BTreeMap<Instance, SimTime>,
    /// What this site's granted lock waits predict a wait will last.
    waits: WaitEstimator,
    /// Paxos Commit acceptor nodes. When non-empty, every READY/REFUSE/
    /// FAILED reply also goes to the ballot-0 acceptors as a vote — the
    /// fast path that closes the only-the-coordinator-knows window. Empty
    /// (the `F=0` default): no extra traffic.
    acceptors: Vec<u32>,
    /// Local transactions waiting their turn; [`NodeRuntime::tick`] runs
    /// them one at a time. Empty under a host that starts locals itself.
    local_queue: VecDeque<(u32, Vec<Command>)>,
    /// When [`NodeRuntime::tick`] next runs the deadlock / wait-timeout
    /// scan, µs; `None` under a host that scans across sites itself.
    next_scan_us: Option<u64>,
    /// An [`SiteRuntime::agent_input`] call is on the stack.
    in_agent_step: bool,
}

impl SiteRuntime {
    /// Build the runtime for `site` around an already-configured engine.
    pub fn new(site: SiteId, agent_cfg: AgentConfig, engine: Ldbs, ltm_service_us: u64) -> Self {
        SiteRuntime {
            site,
            agent_cfg,
            ltm_service_us,
            agent: Agent::new(site, agent_cfg),
            ldbs: engine,
            local_runners: BTreeMap::new(),
            blocked_since: BTreeMap::new(),
            waits: WaitEstimator::default(),
            acceptors: Vec::new(),
            local_queue: VecDeque::new(),
            next_scan_us: None,
            in_agent_step: false,
        }
    }

    /// The site this runtime serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Install the Paxos Commit acceptor set (the `consensus.f > 0`
    /// configuration). Votes fan out to these nodes from then on.
    pub fn set_acceptors(&mut self, acceptors: Vec<u32>) {
        self.acceptors = acceptors;
    }

    /// Install the housekeeping a one-node-per-loop host leaves to
    /// [`NodeRuntime::tick`]: the site's local transactions, run one at a
    /// time in queue order, and a deadlock / wait-timeout scan every
    /// [`DEADLOCK_SCAN_US`].
    pub fn set_housekeeping(&mut self, local_queue: VecDeque<(u32, Vec<Command>)>) {
        self.local_queue = local_queue;
        self.next_scan_us = Some(DEADLOCK_SCAN_US);
    }

    /// Read access to the agent (for end-of-run statistics and the model
    /// checker's prepared-table snapshots).
    pub fn agent(&self) -> &Agent {
        &self.agent
    }

    /// Whether `instance` is currently active at the LTM (the model
    /// checker uses this to enumerate meaningful unilateral-abort
    /// injection points).
    pub fn is_instance_active(&self, instance: Instance) -> bool {
        self.ldbs.is_active(instance)
    }

    /// Whether any local transaction is still running here.
    pub fn has_local_work(&self) -> bool {
        !self.local_runners.is_empty()
    }

    /// Snapshot of the currently blocked instances and since when.
    pub fn blocked(&self) -> impl Iterator<Item = (Instance, SimTime)> + '_ {
        self.blocked_since.iter().map(|(i, t)| (*i, *t))
    }

    /// The one expiry rule of every host: the waits that at `now` have
    /// lasted longer than their timeout, in [`Instance`] order. The
    /// timeout is what this site's granted waits predict (Jacobson's
    /// estimator), at most `ceiling_us` — the host's longest wait, in its
    /// own clock's unit — and exactly that before the first granted wait
    /// and for an instance with `incarnation > 0`: a prepared
    /// subtransaction's replay: the site voted READY and cannot abort the
    /// global, so timing the replay out breaks no cross-site deadlock and
    /// only queues another replay.
    pub fn expired_waits(
        &self,
        now: SimTime,
        ceiling_us: u64,
    ) -> impl Iterator<Item = ExpiredWait> + '_ {
        let learned_us = self.waits.timeout_us(ceiling_us);
        self.blocked_since
            .iter()
            .filter_map(move |(&instance, &since)| {
                let waited_us = now.since(since).as_micros();
                let timeout_us = if instance.incarnation > 0 {
                    ceiling_us
                } else {
                    learned_us
                };
                (waited_us > timeout_us).then_some(ExpiredWait {
                    instance,
                    waited_us,
                    timeout_us,
                })
            })
    }

    fn engine_err(&self, context: &'static str, source: EngineError) -> RuntimeError {
        RuntimeError::Engine {
            site: self.site,
            context,
            source,
        }
    }

    // ------------------------------------------------------------------
    // Agent plumbing
    // ------------------------------------------------------------------

    /// Feed one input to the agent and interpret the resulting actions,
    /// then let every COMMIT that was held behind an entry this step
    /// removed from the prepared table go through: one local commit per
    /// agent step, asked for only once the previous step's actions are
    /// applied in full. Applying an `LtmCommit` can resume a lock-blocked
    /// replay whose `LtmDone` re-enters here; that nested step leaves the
    /// releasing to the outermost one, so the LTM sees local commits in
    /// the order the agent certified them.
    pub fn agent_input<H: RuntimeHost>(
        &mut self,
        input: AgentInput,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        let now_local = host.local_time_us(self.site.0);
        let actions = self.agent.handle(now_local, input);
        if std::mem::replace(&mut self.in_agent_step, true) {
            return self.run_agent_actions(actions, host);
        }
        let applied = self.apply_and_release(actions, now_local, host);
        self.in_agent_step = false;
        applied
    }

    /// Apply one step's actions, then each released COMMIT's in turn.
    fn apply_and_release<H: RuntimeHost>(
        &mut self,
        mut actions: Vec<AgentAction>,
        now_local: u64,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        loop {
            self.run_agent_actions(actions, host)?;
            actions = self.agent.release_held_commit(now_local);
            if actions.is_empty() {
                return Ok(());
            }
        }
    }

    fn run_agent_actions<H: RuntimeHost>(
        &mut self,
        actions: Vec<AgentAction>,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        for action in actions {
            match action {
                AgentAction::Reply { coord, msg } => {
                    self.fan_out_vote(coord, &msg, host);
                    host.send(self.site.0, coord, msg);
                }
                AgentAction::LtmBegin(instance) => {
                    self.ldbs
                        .begin(instance)
                        .map_err(|e| self.engine_err("agent begin", e))?;
                }
                AgentAction::LtmSubmit { instance, command } => {
                    host.set_timer(
                        self.site.0,
                        self.ltm_service_us,
                        Timer::LtmExec { instance, command },
                    );
                }
                AgentAction::LtmCommit(instance) => {
                    let resumed = self
                        .ldbs
                        .commit(instance)
                        .map_err(|e| self.engine_err("agent commit", e))?;
                    self.drain_log(host);
                    self.process_resumed(resumed, host)?;
                }
                AgentAction::LtmAbort(instance) => match self.ldbs.abort(instance) {
                    Ok(resumed) => {
                        self.blocked_since.remove(&instance);
                        self.drain_log(host);
                        self.process_resumed(resumed, host)?;
                    }
                    Err(EngineError::UnknownTransaction(_)) => {}
                    Err(e) => return Err(self.engine_err("agent abort", e)),
                },
                AgentAction::Bind { keys, owner } => {
                    self.ldbs.bind(keys, owner);
                }
                AgentAction::Unbind { owner } => {
                    let resumed = self.ldbs.unbind_all_of(owner);
                    self.drain_log(host);
                    self.process_resumed(resumed, host)?;
                }
                AgentAction::RecordPrepare(gtxn) => {
                    host.record_op(mdbs_histories::Op::prepare(gtxn.0, self.site));
                    host.trace(TraceEvent::Prepared {
                        at: host.now(),
                        site: self.site,
                        gtxn,
                    });
                    let Some(incarnation) = self.agent.incarnation_of(gtxn) else {
                        return Err(RuntimeError::MissingState {
                            node: self.site.0,
                            context: "incarnation of a just-prepared subtransaction",
                        });
                    };
                    host.prepared(self.site, gtxn, incarnation);
                }
                AgentAction::StartAliveTimer { gtxn, after_us } => {
                    host.set_timer(self.site.0, after_us, Timer::Alive { gtxn });
                }
            }
        }
        Ok(())
    }

    /// The Paxos Commit fast path: a vote reply (READY, REFUSE, or an
    /// active-state FAILED) doubles as a ballot-0 phase-2a message sent
    /// directly to the ballot-0 acceptors, with the transaction's
    /// coordinator as the leader they report back to. No-op at `F=0`.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn fan_out_vote<H: RuntimeHost>(&mut self, coord: u32, msg: &Message, host: &mut H) {
        if self.acceptors.is_empty() {
            return;
        }
        let vote = match msg {
            Message::Ready { .. } => Vote::Ready,
            Message::Refuse { .. } | Message::Failed { .. } => Vote::Abort,
            Message::Begin { .. }
            | Message::Dml { .. }
            | Message::BeginDml { .. }
            | Message::Prepare { .. }
            | Message::Commit { .. }
            | Message::Rollback { .. }
            | Message::DmlResult { .. }
            | Message::CommitAck { .. }
            | Message::RollbackAck { .. }
            | Message::NewCoord { .. } => return,
        };
        let gtxn = msg.gtxn();
        for &acceptor in fast_path_acceptors(&self.acceptors) {
            host.send_ctrl(
                self.site.0,
                acceptor,
                CtrlMsg::Paxos {
                    msg: PaxosMsg::Vote2a {
                        gtxn,
                        site: self.site,
                        coord,
                        vote,
                    },
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Engine plumbing
    // ------------------------------------------------------------------

    /// A [`Timer::LtmExec`] fired: the service delay elapsed, submit the
    /// command to the engine.
    fn ltm_exec<H: RuntimeHost>(
        &mut self,
        instance: Instance,
        command: Command,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        let step = match self.ldbs.submit(instance, &command) {
            Ok(step) => step,
            Err(EngineError::UnknownTransaction(_)) => return Ok(()), // aborted meanwhile
            Err(e) => return Err(self.engine_err("submit", e)),
        };
        self.drain_log(host);
        self.handle_exec_step(instance, step, host)
    }

    fn handle_exec_step<H: RuntimeHost>(
        &mut self,
        instance: Instance,
        step: ExecStep,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        match step {
            ExecStep::Blocked => {
                // Every Blocked report follows fresh progress (a new
                // submission, or a lock grant that advanced the plan to its
                // next operation), so the wait-timeout clock restarts.
                let now = host.now();
                self.blocked_since.insert(instance, now);
                Ok(())
            }
            ExecStep::Done(result) => {
                // A wait that ends in its grant is a sample; one that ends
                // any other way (victim, timeout, UAN, rollback) is not.
                if let Some(since) = self.blocked_since.remove(&instance) {
                    self.waits.sample(host.now().since(since).as_micros());
                }
                match instance.txn {
                    Txn::Global(gtxn) => {
                        self.agent_input(AgentInput::LtmDone { gtxn, result }, host)
                    }
                    Txn::Local(_) => self.advance_local(instance, host),
                }
            }
        }
    }

    fn process_resumed<H: RuntimeHost>(
        &mut self,
        resumed: Vec<ResumedExec>,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        for r in resumed {
            self.handle_exec_step(r.instance, r.step, host)?;
        }
        Ok(())
    }

    fn drain_log<H: RuntimeHost>(&mut self, host: &mut H) {
        for op in self.ldbs.take_log() {
            host.record_op(op);
        }
    }

    // ------------------------------------------------------------------
    // Local transactions
    // ------------------------------------------------------------------

    /// Start a local transaction with the given site-unique number and
    /// program (the driver draws both from the workload).
    pub fn start_local<H: RuntimeHost>(
        &mut self,
        n: u32,
        commands: Vec<Command>,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        let instance = Instance::local(self.site, n);
        let Some(&first) = commands.first() else {
            return Err(RuntimeError::MissingState {
                node: self.site.0,
                context: "local transaction with an empty program",
            });
        };
        self.ldbs
            .begin(instance)
            .map_err(|e| self.engine_err("local begin", e))?;
        self.local_runners
            .insert(instance, LocalRunner { commands, next: 0 });
        host.set_timer(
            self.site.0,
            self.ltm_service_us,
            Timer::LtmExec {
                instance,
                command: first,
            },
        );
        Ok(())
    }

    fn advance_local<H: RuntimeHost>(
        &mut self,
        instance: Instance,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        let Some(runner) = self.local_runners.get_mut(&instance) else {
            return Ok(()); // aborted meanwhile
        };
        runner.next += 1;
        if let Some(&command) = runner.commands.get(runner.next) {
            host.set_timer(
                self.site.0,
                self.ltm_service_us,
                Timer::LtmExec { instance, command },
            );
            return Ok(());
        }
        // Program complete: commit at the LTM.
        self.local_runners.remove(&instance);
        let resumed = self
            .ldbs
            .commit(instance)
            .map_err(|e| self.engine_err("local commit", e))?;
        host.local_settled(self.site, true);
        self.drain_log(host);
        self.process_resumed(resumed, host)
    }

    // ------------------------------------------------------------------
    // Failures, deadlocks, timeouts
    // ------------------------------------------------------------------

    /// An injected unilateral abort strikes `instance` (no-op if it
    /// already committed or was replaced).
    pub fn inject_abort<H: RuntimeHost>(
        &mut self,
        instance: Instance,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        if !self.ldbs.is_active(instance) {
            return Ok(()); // already committed or replaced
        }
        host.inc("injected_unilateral_aborts");
        host.trace(TraceEvent::UnilateralAbort {
            at: host.now(),
            instance,
        });
        self.abort_instance(instance, host)
    }

    /// Unilaterally abort an instance at the LTM and notify the agent (UAN).
    pub fn abort_instance<H: RuntimeHost>(
        &mut self,
        instance: Instance,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        let resumed = match self.ldbs.unilateral_abort(instance) {
            Ok(r) => r,
            Err(EngineError::UnknownTransaction(_)) => return Ok(()),
            Err(e) => return Err(self.engine_err("unilateral abort", e)),
        };
        self.blocked_since.remove(&instance);
        self.drain_log(host);
        match instance.txn {
            Txn::Global(_) => {
                self.agent_input(AgentInput::Uan { instance }, host)?;
            }
            Txn::Local(_) => {
                self.local_runners.remove(&instance);
                host.local_settled(self.site, false);
            }
        }
        self.process_resumed(resumed, host)
    }

    /// Break every local waits-for cycle by aborting victims.
    pub fn kill_local_deadlocks<H: RuntimeHost>(
        &mut self,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        while let Some(victim) = self.ldbs.deadlock_victim() {
            host.inc("deadlock_victims");
            host.trace(TraceEvent::DeadlockVictim {
                at: host.now(),
                instance: victim,
            });
            self.abort_instance(victim, host)?;
        }
        Ok(())
    }

    /// Abort an instance whose wait exceeded its timeout, as
    /// [`SiteRuntime::expired_waits`] reported it.
    pub fn abort_on_timeout<H: RuntimeHost>(
        &mut self,
        expired: ExpiredWait,
        host: &mut H,
    ) -> Result<(), RuntimeError> {
        host.inc("wait_timeouts");
        host.trace(TraceEvent::WaitTimeout {
            at: host.now(),
            instance: expired.instance,
            waited_us: expired.waited_us,
            timeout_us: expired.timeout_us,
        });
        self.abort_instance(expired.instance, host)
    }

    /// A whole-site crash: every active transaction is unilaterally
    /// aborted at once (collective abort), the volatile DLU bindings die,
    /// and the 2PC Agent is rebuilt from its durable log
    /// (`Agent::recover`). The durable store itself survives — committed
    /// data is safe.
    pub fn crash<H: RuntimeHost>(&mut self, host: &mut H) -> Result<(), RuntimeError> {
        host.inc("site_crashes");
        host.trace(TraceEvent::SiteCrash {
            at: host.now(),
            site: self.site,
        });

        // Collective abort at the LTM: roll back all active instances.
        let victims = self.ldbs.active_instances();
        for instance in victims {
            let resumed = match self.ldbs.unilateral_abort(instance) {
                Ok(r) => r,
                Err(_) => continue,
            };
            self.blocked_since.remove(&instance);
            if instance.txn.is_local() {
                self.local_runners.remove(&instance);
                host.local_settled(self.site, false);
            }
            // Crash-time resumptions are moot: any resumed instance at
            // this site is itself about to be aborted by this loop; ones
            // already aborted return UnknownTransaction above.
            drop(resumed);
        }
        self.drain_log(host);
        self.ldbs.clear_bindings();

        // The agent process dies; rebuild it from the durable log with the
        // same effective config it was created with.
        let log = self.agent.log().clone();
        let (agent, actions) = Agent::recover(self.site, self.agent_cfg, log);
        let old = std::mem::replace(&mut self.agent, agent);
        // Keep the cumulative counters comparable across the crash.
        for (name, n) in old.stats().certification_counters() {
            host.add(name, n);
        }
        self.run_agent_actions(actions, host)
    }
}

impl NodeRuntime for SiteRuntime {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        match event {
            NodeEvent::Net(msg) => self.agent_input(AgentInput::Deliver(msg), host)?,
            NodeEvent::Timer(Timer::Alive { gtxn }) => {
                self.agent_input(AgentInput::AliveTimer { gtxn }, host)?
            }
            NodeEvent::Timer(Timer::LtmExec { instance, command }) => {
                self.ltm_exec(instance, command, host)?
            }
            NodeEvent::Timer(Timer::InjectAbort { instance }) => {
                self.inject_abort(instance, host)?
            }
            // Sites speak 2PC only: control traffic and driver envelopes
            // have no handler here.
            NodeEvent::Ctrl { .. }
            | NodeEvent::Start { .. }
            | NodeEvent::TakeOver
            | NodeEvent::Drain
            | NodeEvent::Shutdown => host.inc("misrouted_events"),
        }
        Ok(Flow::Continue)
    }

    fn tick<H: RuntimeHost>(&mut self, host: &mut H) -> Result<(), RuntimeError> {
        let now = host.now();
        if let Some(next_scan_us) = self.next_scan_us {
            if now.as_micros() >= next_scan_us {
                self.next_scan_us = Some(now.as_micros() + DEADLOCK_SCAN_US);
                self.kill_local_deadlocks(host)?;
                let expired: Vec<ExpiredWait> = self.expired_waits(now, WAIT_TIMEOUT_US).collect();
                for wait in expired {
                    self.abort_on_timeout(wait, host)?;
                }
            }
        }
        // Admit the next queued local once the previous one settled.
        if self.local_runners.is_empty() {
            if let Some((n, commands)) = self.local_queue.pop_front() {
                self.start_local(n, commands, host)?;
            }
        }
        Ok(())
    }

    fn next_tick_us(&self) -> Option<u64> {
        self.next_scan_us
    }

    /// Whether the site has drained: no local transaction running or
    /// queued, no blocked instance, and no subtransaction still in the
    /// agent's prepared table. This is the drain barrier — a node may only
    /// report results and exit once it holds *and* the driver has
    /// confirmed every global transaction settled (an idle instant between
    /// two conversations also looks quiesced).
    fn quiesced(&self) -> bool {
        self.local_runners.is_empty()
            && self.local_queue.is_empty()
            && self.blocked_since.is_empty()
            && self.agent.table_len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CEILING: u64 = WAIT_TIMEOUT_US;

    fn after(samples: &[u64]) -> WaitEstimator {
        let mut e = WaitEstimator::default();
        for &r in samples {
            e.sample(r);
        }
        e
    }

    #[test]
    fn the_ceiling_applies_before_the_first_sample() {
        assert_eq!(after(&[]).timeout_us(CEILING), CEILING);
        assert_eq!(after(&[]).timeout_us(400), 400);
    }

    #[test]
    fn one_and_two_samples_give_jacobsons_values() {
        // SRTT = 40 000, RTTVAR = 20 000.
        assert_eq!(after(&[40_000]).timeout_us(CEILING), 120_000);
        // RTTVAR = (3·20 000 + |40 000 − 8 000|) / 4 = 23 000, from the old
        // SRTT; SRTT = (7·40 000 + 8 000) / 8 = 36 000.
        assert_eq!(after(&[40_000, 8_000]).timeout_us(CEILING), 128_000);
    }

    #[test]
    fn the_timeout_is_clamped_to_the_floor_and_the_ceiling() {
        // 1 000 + 4·500 = 3 000 µs: under the floor.
        assert_eq!(after(&[1_000]).timeout_us(CEILING), WAIT_TIMEOUT_FLOOR_US);
        // 200 000 + 4·100 000 = 600 000 µs: over the ceiling.
        assert_eq!(after(&[200_000]).timeout_us(CEILING), CEILING);
        // A host whose ceiling sits under the floor (the explorer's 400
        // logical ticks) always gets its ceiling.
        assert_eq!(after(&[1_000]).timeout_us(400), 400);
    }
}
