//! Event-driven commit certification against the timer-only agent.
//!
//! [`Agent::release_held_commit`] lets a held COMMIT through the moment the
//! smaller serial number leaves the prepared table; the alive tick stays
//! armed while the entry is in the table and does the same thing later.
//! This property test drives one agent through a random script twice — once
//! the way `SiteRuntime` steps it (every input followed by the releases it
//! enables), once by alive-timer firings only (`release_held_commit` never
//! called) — over a lock-free model LTM, and asserts
//!
//! * in both runs the LTM sees local commits in strictly ascending
//!   serial-number order (§5.2: the commit order *is* the SN order), and
//! * once every timer has been given the chance to fire, both runs have
//!   committed exactly the same transactions: the release changes *when* a
//!   held COMMIT lands, never *whether*.
//!
//! PREPAREs come first and decisions second: a COMMIT landing earlier
//! raises `max_committed_sn` earlier, which legitimately turns a later
//! PREPARE with a smaller serial number into a §5.3 refusal, so scripts
//! that interleave the two phases may settle differently in the two runs
//! and still both be correct.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_dtm::{Agent, AgentAction, AgentConfig, AgentInput, Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, Instance, SiteId, Txn};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const SITE: SiteId = SiteId(0);
const COORD: u32 = 77;
const TXNS: u32 = 5;

fn g(k: u32) -> GlobalTxnId {
    GlobalTxnId(k)
}

fn sn(ticks: u64) -> SerialNumber {
    SerialNumber {
        ticks,
        node: COORD,
        seq: 0,
    }
}

/// One script step. Transaction and timer indices are taken modulo what
/// exists when the step runs, so every script is executable.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// PREPARE transaction `k` with its scripted serial number.
    Prepare(u32),
    /// Deliver transaction `k`'s scripted decision (COMMIT or ROLLBACK).
    Decide(u32),
    /// The LTM unilaterally aborts `k`'s current incarnation, if active.
    Uan(u32),
    /// The LTM finishes `k`'s in-flight command, if any.
    Done(u32),
    /// Fire the pending timer at this index.
    Fire(usize),
}

/// A lock-free model LTM plus the host's timer list: enough to turn agent
/// actions back into valid agent inputs.
struct Host {
    agent: Agent,
    /// `true`: step like `SiteRuntime::agent_input`; `false`: timers only.
    event_driven: bool,
    now: u64,
    /// Active incarnation per transaction.
    active: BTreeMap<u32, u32>,
    /// Transactions with a command executing at the LTM.
    executing: BTreeSet<u32>,
    timers: Vec<AgentInput>,
    /// Local commits in LTM order.
    commits: Vec<u32>,
}

impl Host {
    fn new(event_driven: bool) -> Host {
        let mut h = Host {
            agent: Agent::new(SITE, AgentConfig::default()),
            event_driven,
            now: 0,
            active: BTreeMap::new(),
            executing: BTreeSet::new(),
            timers: Vec::new(),
            commits: Vec::new(),
        };
        // Every transaction has begun and executed its one command.
        for k in 0..TXNS {
            h.input(AgentInput::Deliver(Message::Begin {
                gtxn: g(k),
                coord: COORD,
            }));
            h.input(AgentInput::Deliver(Message::Dml {
                gtxn: g(k),
                step: 0,
                command: Command::Update(KeySpec::Key(u64::from(k)), 1),
            }));
            h.run(Step::Done(k), &[], &[]);
        }
        h
    }

    fn input(&mut self, input: AgentInput) {
        self.now += 1;
        let mut actions = self.agent.handle(self.now, input);
        loop {
            self.apply(actions);
            if !self.event_driven {
                return;
            }
            actions = self.agent.release_held_commit(self.now);
            if actions.is_empty() {
                return;
            }
        }
    }

    fn apply(&mut self, actions: Vec<AgentAction>) {
        for action in actions {
            match action {
                AgentAction::LtmBegin(i) => {
                    self.active.insert(gtxn_of(i), i.incarnation);
                }
                AgentAction::LtmSubmit { instance, .. } => {
                    self.executing.insert(gtxn_of(instance));
                }
                AgentAction::LtmCommit(i) => {
                    let k = gtxn_of(i);
                    assert_eq!(
                        self.active.remove(&k),
                        Some(i.incarnation),
                        "commit of a dead incarnation"
                    );
                    self.commits.push(k);
                }
                AgentAction::LtmAbort(i) => {
                    let k = gtxn_of(i);
                    self.active.remove(&k);
                    self.executing.remove(&k);
                }
                AgentAction::StartAliveTimer { gtxn, .. } => {
                    self.timers.push(AgentInput::AliveTimer { gtxn });
                }
                _ => {}
            }
        }
    }

    fn run(&mut self, step: Step, sns: &[u64], commit: &[bool]) {
        match step {
            Step::Prepare(k) => self.input(AgentInput::Deliver(Message::Prepare {
                gtxn: g(k),
                sn: sn(sns[k as usize]),
            })),
            Step::Decide(k) => {
                let msg = if commit[k as usize] {
                    Message::Commit { gtxn: g(k) }
                } else {
                    Message::Rollback { gtxn: g(k) }
                };
                self.input(AgentInput::Deliver(msg));
            }
            Step::Uan(k) => {
                if let Some(incarnation) = self.active.remove(&k) {
                    self.executing.remove(&k);
                    self.input(AgentInput::Uan {
                        instance: Instance::global(k, SITE, incarnation),
                    });
                }
            }
            Step::Done(k) => {
                if self.executing.remove(&k) {
                    self.input(AgentInput::LtmDone {
                        gtxn: g(k),
                        result: CommandResult {
                            rows: vec![(u64::from(k), 0)],
                            wrote: vec![u64::from(k)],
                        },
                    });
                }
            }
            Step::Fire(i) => {
                if !self.timers.is_empty() {
                    let timer = self.timers.remove(i % self.timers.len());
                    self.input(timer);
                }
            }
        }
    }

    fn commit_pending(&self) -> bool {
        self.agent.prepared_table().iter().any(|e| e.commit_pending)
    }
}

fn gtxn_of(i: Instance) -> u32 {
    match i.txn {
        Txn::Global(gtxn) => gtxn.0,
        Txn::Local(_) => unreachable!("the agent only handles global subtransactions"),
    }
}

/// Run the whole script in one mode and return the LTM's commit order.
fn run_script(
    event_driven: bool,
    sns: &[u64],
    commit: &[bool],
    prepare_phase: &[Step],
    decide_phase: &[Step],
) -> Vec<u32> {
    let mut h = Host::new(event_driven);
    for &step in prepare_phase.iter().chain(decide_phase) {
        h.run(step, sns, commit);
    }
    // Every coordinator decides eventually (a duplicate is ignored) …
    for k in 0..TXNS {
        h.run(Step::Decide(k), sns, commit);
    }
    // … and every wake-up gets its chance: finish in-flight replays and
    // fire each pending timer, round after round, until no COMMIT is held.
    for _ in 0..64 {
        if !h.commit_pending() {
            break;
        }
        for k in 0..TXNS {
            h.run(Step::Done(k), sns, commit);
        }
        for timer in std::mem::take(&mut h.timers) {
            h.input(timer);
        }
    }
    assert!(
        !h.commit_pending(),
        "a COMMIT is still held with nothing left to wait for (event_driven={event_driven})"
    );
    let order: Vec<u64> = h.commits.iter().map(|&k| sns[k as usize]).collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "local commits left serial-number order (event_driven={event_driven}): {order:?}"
    );
    h.commits
}

fn txn() -> std::ops::Range<u32> {
    0..TXNS
}

fn prepare_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        txn().prop_map(Step::Prepare),
        txn().prop_map(Step::Prepare),
        txn().prop_map(Step::Uan),
        txn().prop_map(Step::Done),
        (0usize..8).prop_map(Step::Fire),
    ]
}

fn decide_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        txn().prop_map(Step::Decide),
        txn().prop_map(Step::Decide),
        txn().prop_map(Step::Uan),
        txn().prop_map(Step::Done),
        (0usize..8).prop_map(Step::Fire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn release_commits_in_sn_order_and_settles_like_the_timer(
        order in pvec(0u64..1_000, TXNS as usize),
        commit in pvec(any::<bool>(), TXNS as usize),
        prepare_phase in pvec(prepare_step(), 0..24),
        decide_phase in pvec(decide_step(), 0..40),
    ) {
        // Distinct serial numbers in a random order.
        let sns: Vec<u64> = order.iter().enumerate().map(|(k, &r)| r * 8 + k as u64).collect();
        let released = run_script(true, &sns, &commit, &prepare_phase, &decide_phase);
        let timed = run_script(false, &sns, &commit, &prepare_phase, &decide_phase);
        let released: BTreeSet<u32> = released.into_iter().collect();
        let timed: BTreeSet<u32> = timed.into_iter().collect();
        prop_assert_eq!(released, timed);
    }
}

/// The generator reaches the case the property is about: a script on which
/// the event-driven run performs releases the timer-only run performs by
/// timer.
#[test]
fn scripts_exercise_the_release() {
    let sns = [10, 20, 30, 40, 50];
    let commit = [true; 5];
    let prepare: Vec<Step> = (0..TXNS).map(Step::Prepare).collect();
    let decide: Vec<Step> = (0..TXNS).rev().map(Step::Decide).collect();
    let mut h = Host::new(true);
    for &step in prepare.iter().chain(&decide) {
        h.run(step, &sns, &commit);
    }
    assert_eq!(h.commits, vec![0, 1, 2, 3, 4]);
    assert_eq!(h.agent.stats().commit_releases, 4);
    assert_eq!(
        run_script(false, &sns, &commit, &prepare, &decide),
        vec![0, 1, 2, 3, 4]
    );
}
