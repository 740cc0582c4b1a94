//! Differential oracle for the indexed certifier.
//!
//! The agent's interval index ([`mdbs_dtm::certifier::CertIndex`]) replaced
//! the eager refresh-and-scan implementation. These tests drive a real
//! [`Agent`] through randomized prepare/abort/resubmit/commit/rollback
//! schedules while maintaining the *old* implementation
//! ([`mdbs_dtm::certifier::LinearReference`]: eager refresh loop + linear
//! scan) as a shadow, and assert at every step that
//!
//! * every PREPARE gets the identical accept/refuse decision (including the
//!   refuse *reason*), so `refused_interval_disjoint` counts match exactly;
//! * the observable prepared table (stored intervals, aliveness) is
//!   bit-for-bit what the eager implementation would have produced.
//!
//! Covered per the paper: `stored_intervals = 1` (§4.2's basic "store the
//! last interval" variant) and > 1, and the frozen `(0, 0)` crash-recovery entry (collective abort).

use std::collections::BTreeMap;

use mdbs_dtm::certifier::{LinearEntry, LinearReference};
use mdbs_dtm::{Agent, AgentAction, AgentConfig, AgentInput, Message, RefuseReason, SerialNumber};
use mdbs_histories::{GlobalTxnId, Instance, SiteId};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

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

/// Assert the agent's (lazily materialized) prepared table equals the
/// eager shadow, entry by entry, interval by interval.
fn assert_table_matches(agent: &Agent, lin: &LinearReference, ctx: &str) {
    let table = agent.prepared_table();
    assert_eq!(table.len(), lin.len(), "{ctx}: table size diverged");
    let shadow: BTreeMap<GlobalTxnId, LinearEntry> =
        lin.entries().map(|(g, e)| (*g, e.clone())).collect();
    for row in &table {
        let Some(want) = shadow.get(&row.gtxn) else {
            panic!("{ctx}: {:?} in agent table but not in shadow", row.gtxn);
        };
        assert_eq!(
            row.intervals, want.intervals,
            "{ctx}: intervals diverged for {:?}",
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

/// Run one schedule against one config; returns the number of
/// interval-disjoint refusals both sides agreed on.
fn run_schedule(steps: &[Step], cap: usize) -> u64 {
    let config = AgentConfig {
        stored_intervals: cap,
        ..AgentConfig::default()
    };
    let mut agent = Agent::new(SITE, config);
    let mut lin = LinearReference::new();
    let mut mirror: BTreeMap<GlobalTxnId, TxnMirror> = BTreeMap::new();
    let mut max_committed: Option<SerialNumber> = None;
    let mut next_id: u32 = 0;
    let mut now: u64 = 10;
    let mut predicted_disjoint: u64 = 0;

    for (i, step) in steps.iter().enumerate() {
        now += 3;
        let ctx = format!("step {i} ({step:?}, cap {cap})");
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
                                sn: Some(snv),
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
                            lin.unfreeze(gtxn, None, cap);
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
                        lin.unfreeze(gtxn, Some(now), cap);
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
        assert_table_matches(&agent, &lin, &ctx);
    }

    assert_eq!(
        agent.stats().refused_interval_disjoint,
        predicted_disjoint,
        "refused_interval_disjoint diverged from the linear oracle"
    );
    predicted_disjoint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper-basic variant: one stored interval per entry.
    #[test]
    fn indexed_agent_matches_linear_oracle_cap1(
        steps in pvec(step_strategy(), 1..50),
    ) {
        run_schedule(&steps, 1);
    }

    /// The §4.2 optimization: several stored intervals per entry.
    #[test]
    fn indexed_agent_matches_linear_oracle_cap3(
        steps in pvec(step_strategy(), 1..50),
    ) {
        run_schedule(&steps, 3);
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
        assert_eq!(
            row.intervals,
            vec![(0, 0)],
            "conservative recovery interval"
        );
        assert!(!row.alive);
    }
    // Rebuild the shadow from the observable table and cross-check a
    // refusal: a fresh candidate beginning after tick 0 is disjoint.
    let mut lin = LinearReference::new();
    for row in &table {
        lin.insert(
            row.gtxn,
            LinearEntry {
                intervals: row.intervals.clone(),
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
