//! Differential oracle for the certifier.
//!
//! [`Certifier`] keeps one stored interval per entry, refreshes alive
//! entries lazily through a floor and answers from sorted sets. These tests
//! hold it to the definitional table ([`LinearReference`]: *every* interval
//! an entry ever had, an eager refresh loop, linear any-of scans) —
//!
//! * directly: random scripts over the certifier's own calls, comparing
//!   every prepare verdict, every commit-gate answer and the table after
//!   each step (`index_matches_linear_reference`). That one stored interval
//!   decides exactly as all of them (§4.2's "several of them might be
//!   stored" optimization is vacuous) is this property;
//! * through a real [`Agent`] on randomized prepare / abort / resubmit /
//!   commit / rollback schedules: identical accept/refuse decisions
//!   (including the refuse *reason*, so `refused_interval_disjoint` counts
//!   match exactly) and a bit-for-bit table;
//! * on the frozen `(0, 0)` crash-recovery entry (collective abort).

use std::collections::BTreeMap;

use mdbs_dtm::certifier::Certifier;
use mdbs_dtm::{
    Agent, AgentAction, AgentConfig, AgentInput, CertifierMode, Message, PreparedEntry,
    RefuseReason, SerialNumber,
};
use mdbs_histories::{GlobalTxnId, Instance, SiteId};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

#[path = "oracle/linear_reference.rs"]
mod linear_reference;
use linear_reference::{LinearEntry, LinearReference};

const SITE: SiteId = SiteId(0);
const COORD: u32 = 77;

fn sn(t: u64) -> SerialNumber {
    SerialNumber {
        ticks: t,
        node: COORD,
        seq: 0,
    }
}

fn g(k: u32) -> GlobalTxnId {
    GlobalTxnId(k)
}

fn result(keys: &[u64]) -> CommandResult {
    CommandResult {
        rows: keys.iter().map(|&k| (k, 0)).collect(),
        wrote: keys.to_vec(),
    }
}

/// External mirror of one transaction's lifecycle, enough to predict the
/// certifier's answers from the outside.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TxnState {
    /// In the table, alive.
    Prepared,
    /// In the table, unilaterally aborted, resubmission not yet started.
    Frozen,
    /// In the table, replaying `left` more commands.
    Resubmitting { left: usize },
    /// Terminal (committed, rolled back, or refused).
    Done,
}

#[derive(Debug, Clone)]
struct TxnMirror {
    state: TxnState,
    /// Local time of the last command completion (the candidate begin).
    last_op_done: u64,
    /// Commands executed before the prepare (replayed on resubmission).
    commands: usize,
    sn: Option<SerialNumber>,
    key: u64,
}

/// One randomized schedule step. Indices select among live transactions at
/// execution time, so every generated script is executable.
#[derive(Debug, Clone)]
enum Step {
    /// Begin a fresh transaction with `commands` DML commands, then
    /// PREPARE it with serial-number ticks drawn from `sn_ticks`.
    Lifecycle { commands: usize, sn_ticks: u64 },
    /// Unilaterally abort the `pick`-th in-table or active transaction.
    Uan { pick: usize },
    /// Fire the alive timer of the `pick`-th in-table transaction.
    AliveTimer { pick: usize },
    /// Complete one replay command of the `pick`-th resubmitting entry.
    Replay { pick: usize },
    /// Commit the alive in-table entry with the smallest serial number
    /// (the only one the Appendix C rule lets through immediately).
    CommitOldest,
    /// Roll back the `pick`-th in-table transaction.
    Rollback { pick: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..3, 0u64..64)
            .prop_map(|(commands, sn_ticks)| Step::Lifecycle { commands, sn_ticks }),
        (0usize..8).prop_map(|pick| Step::Uan { pick }),
        (0usize..8).prop_map(|pick| Step::AliveTimer { pick }),
        (0usize..8).prop_map(|pick| Step::Replay { pick }),
        (0usize..1).prop_map(|_| Step::CommitOldest),
        (0usize..8).prop_map(|pick| Step::Rollback { pick }),
    ]
}

fn refuse_reason(actions: &[AgentAction]) -> Option<RefuseReason> {
    actions.iter().find_map(|a| match a {
        AgentAction::Reply {
            msg: Message::Refuse { reason, .. },
            ..
        } => Some(*reason),
        _ => None,
    })
}

fn has_ready(actions: &[AgentAction]) -> bool {
    actions.iter().any(|a| {
        matches!(
            a,
            AgentAction::Reply {
                msg: Message::Ready { .. },
                ..
            }
        )
    })
}

fn has_commit_ack(actions: &[AgentAction]) -> bool {
    actions.iter().any(|a| {
        matches!(
            a,
            AgentAction::Reply {
                msg: Message::CommitAck { .. },
                ..
            }
        )
    })
}

/// Assert a (lazily refreshed, one-interval) table equals the eager
/// shadow, entry by entry: the stored interval is the shadow's latest.
fn assert_table_matches(table: &[PreparedEntry], lin: &LinearReference, ctx: &str) {
    assert_eq!(table.len(), lin.len(), "{ctx}: table size diverged");
    for row in table {
        let Some(want) = lin.get(row.gtxn) else {
            panic!("{ctx}: {:?} in the table but not in the shadow", row.gtxn);
        };
        assert_eq!(
            Some(&row.interval),
            want.intervals.last(),
            "{ctx}: interval diverged for {:?}",
            row.gtxn
        );
        assert_eq!(
            row.alive, want.alive,
            "{ctx}: aliveness diverged for {:?}",
            row.gtxn
        );
        assert_eq!(row.sn, want.sn, "{ctx}: sn diverged for {:?}", row.gtxn);
    }
}

/// Run one schedule; returns the number of interval-disjoint refusals both
/// sides agreed on.
fn run_schedule(steps: &[Step]) -> u64 {
    let mut agent = Agent::new(SITE, AgentConfig::default());
    let mut lin = LinearReference::new();
    let mut mirror: BTreeMap<GlobalTxnId, TxnMirror> = BTreeMap::new();
    let mut max_committed: Option<SerialNumber> = None;
    let mut next_id: u32 = 0;
    let mut now: u64 = 10;
    let mut predicted_disjoint: u64 = 0;

    for (i, step) in steps.iter().enumerate() {
        now += 3;
        let ctx = format!("step {i} ({step:?})");
        match step {
            Step::Lifecycle { commands, sn_ticks } => {
                let gtxn = g(next_id);
                next_id += 1;
                let key = u64::from(gtxn.0 % 5);
                agent.handle(
                    now,
                    AgentInput::Deliver(Message::Begin { gtxn, coord: COORD }),
                );
                let mut last_op_done = now;
                for step_no in 0..*commands {
                    now += 1;
                    agent.handle(
                        now,
                        AgentInput::Deliver(Message::Dml {
                            gtxn,
                            step: step_no as u32,
                            command: Command::Update(KeySpec::Key(key), 1),
                        }),
                    );
                    now += 1;
                    agent.handle(
                        now,
                        AgentInput::LtmDone {
                            gtxn,
                            result: result(&[key]),
                        },
                    );
                    last_op_done = now;
                }
                now += 1;
                let snv = sn(*sn_ticks);
                // Predict the full decision before asking the agent. The
                // PREPARE-time refresh runs first in either implementation
                lin.refresh(now);
                let expected = if max_committed.is_some_and(|m| snv < m) {
                    Some(RefuseReason::SnOutOfOrder)
                } else if lin.disjoint(last_op_done) {
                    Some(RefuseReason::AliveIntervalDisjoint)
                } else {
                    None
                };
                let actions =
                    agent.handle(now, AgentInput::Deliver(Message::Prepare { gtxn, sn: snv }));
                match expected {
                    None => {
                        assert!(
                            has_ready(&actions),
                            "{ctx}: oracle says READY, got {actions:?}"
                        );
                        lin.insert(
                            gtxn,
                            LinearEntry {
                                intervals: vec![(last_op_done, now)],
                                alive: true,
                                sn: snv,
                            },
                        );
                        mirror.insert(
                            gtxn,
                            TxnMirror {
                                state: TxnState::Prepared,
                                last_op_done,
                                commands: *commands,
                                sn: Some(snv),
                                key,
                            },
                        );
                    }
                    Some(reason) => {
                        assert_eq!(
                            refuse_reason(&actions),
                            Some(reason),
                            "{ctx}: oracle says refuse({reason:?}), got {actions:?}"
                        );
                        if reason == RefuseReason::AliveIntervalDisjoint {
                            predicted_disjoint += 1;
                        }
                    }
                }
            }
            Step::Uan { pick } => {
                let candidates: Vec<GlobalTxnId> = mirror
                    .iter()
                    .filter(|(_, m)| m.state == TxnState::Prepared)
                    .map(|(g, _)| *g)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let gtxn = candidates[pick % candidates.len()];
                let inc = agent.incarnation_of(gtxn).unwrap_or(0);
                agent.handle(
                    now,
                    AgentInput::Uan {
                        instance: Instance::global(gtxn.0, SITE, inc),
                    },
                );
                lin.freeze(gtxn);
                if let Some(m) = mirror.get_mut(&gtxn) {
                    m.state = TxnState::Frozen;
                }
            }
            Step::AliveTimer { pick } => {
                let candidates: Vec<GlobalTxnId> = mirror
                    .iter()
                    .filter(|(_, m)| matches!(m.state, TxnState::Prepared | TxnState::Frozen))
                    .map(|(g, _)| *g)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let gtxn = candidates[pick % candidates.len()];
                agent.handle(now, AgentInput::AliveTimer { gtxn });
                let Some(m) = mirror.get_mut(&gtxn) else {
                    continue;
                };
                match m.state {
                    TxnState::Prepared => lin.extend(gtxn, now),
                    TxnState::Frozen => {
                        // Resubmission starts: replay all logged commands,
                        // or instantly alive when there are none (the
                        // interval then restarts only at the next refresh).
                        if m.commands == 0 {
                            lin.unfreeze(gtxn, None);
                            m.state = TxnState::Prepared;
                        } else {
                            m.state = TxnState::Resubmitting { left: m.commands };
                        }
                    }
                    _ => {}
                }
            }
            Step::Replay { pick } => {
                let candidates: Vec<GlobalTxnId> = mirror
                    .iter()
                    .filter(|(_, m)| matches!(m.state, TxnState::Resubmitting { .. }))
                    .map(|(g, _)| *g)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let gtxn = candidates[pick % candidates.len()];
                let Some(m) = mirror.get_mut(&gtxn) else {
                    continue;
                };
                let key = m.key;
                agent.handle(
                    now,
                    AgentInput::LtmDone {
                        gtxn,
                        result: result(&[key]),
                    },
                );
                if let TxnState::Resubmitting { left } = m.state {
                    if left <= 1 {
                        // Replay complete: fresh alive interval.
                        m.state = TxnState::Prepared;
                        m.last_op_done = now;
                        lin.unfreeze(gtxn, Some(now));
                    } else {
                        m.state = TxnState::Resubmitting { left: left - 1 };
                    }
                }
            }
            Step::CommitOldest => {
                // Only the smallest-sn alive entry passes Appendix C
                // immediately; anything else would park on a retry timer
                // and make the oracle racy.
                let oldest = mirror
                    .iter()
                    .filter(|(_, m)| {
                        matches!(
                            m.state,
                            TxnState::Prepared | TxnState::Frozen | TxnState::Resubmitting { .. }
                        )
                    })
                    .min_by_key(|(_, m)| m.sn)
                    .map(|(g, m)| (*g, m.state, m.sn));
                let Some((gtxn, state, msn)) = oldest else {
                    continue;
                };
                if state != TxnState::Prepared {
                    continue; // frozen/replaying commits defer; skip
                }
                let actions = agent.handle(now, AgentInput::Deliver(Message::Commit { gtxn }));
                assert!(
                    has_commit_ack(&actions),
                    "{ctx}: oldest alive entry must commit immediately, got {actions:?}"
                );
                lin.remove(gtxn);
                if let Some(m) = mirror.get_mut(&gtxn) {
                    m.state = TxnState::Done;
                }
                if msn > max_committed {
                    max_committed = msn;
                }
            }
            Step::Rollback { pick } => {
                let candidates: Vec<GlobalTxnId> = mirror
                    .iter()
                    .filter(|(_, m)| {
                        matches!(
                            m.state,
                            TxnState::Prepared | TxnState::Frozen | TxnState::Resubmitting { .. }
                        )
                    })
                    .map(|(g, _)| *g)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let gtxn = candidates[pick % candidates.len()];
                agent.handle(now, AgentInput::Deliver(Message::Rollback { gtxn }));
                lin.remove(gtxn);
                if let Some(m) = mirror.get_mut(&gtxn) {
                    m.state = TxnState::Done;
                }
            }
        }
        assert_table_matches(&agent.prepared_table(), &lin, &ctx);
    }

    assert_eq!(
        agent.stats().refused_interval_disjoint,
        predicted_disjoint,
        "refused_interval_disjoint diverged from the linear oracle"
    );
    predicted_disjoint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn agent_matches_linear_oracle(steps in pvec(step_strategy(), 1..50)) {
        run_schedule(&steps);
    }
}

/// One step of a random script over the certifier's own calls. `k` names
/// the transaction; steps that do not apply to its current state are
/// skipped, the way the agent's phase guards would.
#[derive(Debug, Clone)]
enum Call {
    Certify {
        k: u32,
        sn_ticks: u64,
        begin_back: u64,
        alive: bool,
    },
    Extend {
        k: u32,
    },
    Freeze {
        k: u32,
    },
    Revive {
        k: u32,
        fresh: bool,
    },
    Leave {
        k: u32,
        committed: bool,
    },
    CommitGate {
        k: u32,
    },
}

fn call_strategy() -> impl Strategy<Value = Call> {
    // One candidate in ten arrives not alive.
    let certify = || {
        (0u32..12, 0u64..50, 0u64..30, 0u8..10).prop_map(|(k, sn_ticks, begin_back, dead)| {
            Call::Certify {
                k,
                sn_ticks,
                begin_back,
                alive: dead != 0,
            }
        })
    };
    prop_oneof![
        certify(),
        certify(),
        (0u32..12).prop_map(|k| Call::Extend { k }),
        (0u32..12).prop_map(|k| Call::Freeze { k }),
        (0u32..12, any::<bool>()).prop_map(|(k, fresh)| Call::Revive { k, fresh }),
        (0u32..12, any::<bool>()).prop_map(|(k, committed)| Call::Leave { k, committed }),
        (0u32..12).prop_map(|k| Call::CommitGate { k }),
    ]
}

proptest! {
    /// Drive [`Certifier`] and [`LinearReference`] through the same random
    /// script (with a monotone clock) and assert identical prepare
    /// verdicts, commit-gate answers and tables throughout.
    #[test]
    fn index_matches_linear_reference(calls in pvec(call_strategy(), 1..80)) {
        let mut cert = Certifier::new(CertifierMode::Full, None);
        let mut lin = LinearReference::new();
        let mut max_committed: Option<SerialNumber> = None;
        let mut now: u64 = 1;

        for (i, call) in calls.iter().enumerate() {
            now += 1;
            let ctx = format!("call {i} ({call:?})");
            match *call {
                Call::Certify { k, sn_ticks, begin_back, alive } => {
                    if lin.get(g(k)).is_some() {
                        continue;
                    }
                    let begin = now.saturating_sub(begin_back);
                    lin.refresh(now);
                    let want = if max_committed.is_some_and(|m| sn(sn_ticks) < m) {
                        Err(RefuseReason::SnOutOfOrder)
                    } else if lin.disjoint(begin) {
                        Err(RefuseReason::AliveIntervalDisjoint)
                    } else if !alive {
                        Err(RefuseReason::NotAlive)
                    } else {
                        Ok(())
                    };
                    let got = cert.certify_prepare(now, g(k), sn(sn_ticks), begin, alive);
                    prop_assert_eq!(got, want, "{}", ctx);
                    if want.is_ok() {
                        let entry = LinearEntry {
                            intervals: vec![(begin, now)],
                            alive: true,
                            sn: sn(sn_ticks),
                        };
                        lin.insert(g(k), entry);
                    }
                }
                Call::Extend { k } => {
                    cert.extend(g(k), now);
                    lin.extend(g(k), now);
                }
                Call::Freeze { k } => {
                    cert.freeze(g(k));
                    lin.freeze(g(k));
                }
                Call::Revive { k, fresh } => {
                    if lin.get(g(k)).is_none_or(|e| e.alive) {
                        continue;
                    }
                    cert.revive(g(k), fresh.then_some(now));
                    lin.unfreeze(g(k), fresh.then_some(now));
                }
                Call::Leave { k, committed } => {
                    cert.leave(g(k), committed);
                    if let Some(e) = lin.remove(g(k)).filter(|_| committed) {
                        max_committed = max_committed.max(Some(e.sn));
                    }
                }
                Call::CommitGate { k } => {
                    let Some(e) = lin.get(g(k)) else {
                        continue;
                    };
                    prop_assert_eq!(
                        cert.commit_gate(g(k)),
                        !lin.commit_blocked(g(k), e.sn),
                        "{}", ctx
                    );
                }
            }
            assert_table_matches(&cert.snapshot(), &lin, &ctx);
        }
    }
}

/// Crash recovery restores prepared entries with the frozen, conservative
/// `(0, 0)` interval: every later candidate is disjoint from them until
/// resubmission completes, exactly as the linear scan decided.
#[test]
fn recovered_zero_interval_refuses_until_resubmitted() {
    let config = AgentConfig::default();
    let mut agent = Agent::new(SITE, config);
    // Prepare two transactions, then "crash" by rebuilding from the log.
    for (k, t0) in [(0u32, 10u64), (1, 20)] {
        let gtxn = g(k);
        agent.handle(
            t0,
            AgentInput::Deliver(Message::Begin { gtxn, coord: COORD }),
        );
        agent.handle(
            t0 + 1,
            AgentInput::Deliver(Message::Dml {
                gtxn,
                step: 0,
                command: Command::Update(KeySpec::Key(u64::from(k)), 1),
            }),
        );
        agent.handle(
            t0 + 2,
            AgentInput::LtmDone {
                gtxn,
                result: result(&[u64::from(k)]),
            },
        );
        let acts = agent.handle(
            t0 + 3,
            AgentInput::Deliver(Message::Prepare {
                gtxn,
                sn: sn(u64::from(k) + 1),
            }),
        );
        assert!(has_ready(&acts));
    }
    let log = agent.log().clone();
    let (mut agent, _actions) = Agent::recover(SITE, config, log);

    // The recovered table carries the frozen (0, 0) intervals.
    let table = agent.prepared_table();
    assert_eq!(table.len(), 2);
    for row in &table {
        assert_eq!(row.interval, (0, 0), "conservative recovery interval");
        assert!(!row.alive);
    }
    // Rebuild the shadow from the observable table and cross-check a
    // refusal: a fresh candidate beginning after tick 0 is disjoint.
    let mut lin = LinearReference::new();
    for row in &table {
        lin.insert(
            row.gtxn,
            LinearEntry {
                intervals: vec![row.interval],
                alive: row.alive,
                sn: row.sn,
            },
        );
    }
    let gtxn = g(9);
    agent.handle(
        100,
        AgentInput::Deliver(Message::Begin { gtxn, coord: COORD }),
    );
    agent.handle(
        101,
        AgentInput::Deliver(Message::Dml {
            gtxn,
            step: 0,
            command: Command::Update(KeySpec::Key(9), 1),
        }),
    );
    agent.handle(
        102,
        AgentInput::LtmDone {
            gtxn,
            result: result(&[9]),
        },
    );
    lin.refresh(103);
    assert!(lin.disjoint(102), "oracle agrees the candidate is disjoint");
    let acts = agent.handle(
        103,
        AgentInput::Deliver(Message::Prepare { gtxn, sn: sn(50) }),
    );
    assert_eq!(
        refuse_reason(&acts),
        Some(RefuseReason::AliveIntervalDisjoint)
    );
    assert_eq!(agent.stats().refused_interval_disjoint, 1);

    // Resubmit both recovered entries to completion; candidates then pass.
    for (k, t) in [(0u32, 200u64), (1, 210)] {
        let gtxn = g(k);
        agent.handle(t, AgentInput::AliveTimer { gtxn });
        agent.handle(
            t + 2,
            AgentInput::LtmDone {
                gtxn,
                result: result(&[u64::from(k)]),
            },
        );
    }
    let gtxn = g(10);
    agent.handle(
        300,
        AgentInput::Deliver(Message::Begin { gtxn, coord: COORD }),
    );
    agent.handle(
        301,
        AgentInput::Deliver(Message::Dml {
            gtxn,
            step: 0,
            command: Command::Update(KeySpec::Key(10), 1),
        }),
    );
    agent.handle(
        302,
        AgentInput::LtmDone {
            gtxn,
            result: result(&[10]),
        },
    );
    let acts = agent.handle(
        303,
        AgentInput::Deliver(Message::Prepare { gtxn, sn: sn(60) }),
    );
    assert!(has_ready(&acts), "{acts:?}");
}
