//! The kill matrix's checkers: ordinary tests over the protocol as compiled.
//!
//! Run directly (`cargo test -p mdbs-check --test checkers`) they check the
//! shipped protocol. `mdbs_check::mutate::run_matrix` runs this same file
//! inside a scratch copy of the workspace with one catalog mutant's source
//! edit applied; the tests that fail there are that mutant's killers. The
//! test names, with `_` read as `-`, are the matrix's column names.
//!
//! Four checker families, all deterministic:
//!
//! - **Probes** (`probe_*`) — unit-level drives of the [`Agent`] /
//!   [`Coordinator`] / [`Leader`] state machines through the exact scenario
//!   one mechanism of §§4–5, the Appendix algorithms or the consensus
//!   layer's safety argument exists for, asserting the mandated reaction.
//! - **Exploration** (`explore_*`) — the bounded model checker of
//!   [`mdbs_check::explore`] on the §4.2 and conflict worlds.
//! - **Simulation** (`sim_conflict`) — one contended, unilateral-abort-heavy
//!   discrete-event run, judged by its end-to-end correctness report.
//! - **Static analysis** (`proto_static`) — [`mdbs_check::proto`]'s
//!   protocol pass over the source tree the test was compiled from.

use std::collections::BTreeSet;
use std::path::Path;

use mdbs_check::engine::{run, Group};
use mdbs_check::explore::{explore, ExploreConfig, ExploreOutcome};
use mdbs_consensus::{fast_path_acceptors, Acceptor, Decision, Leader, PaxosMsg, Vote};
use mdbs_dtm::{
    Agent, AgentAction, AgentConfig, AgentInput, CertifierMode, CoordAction, Coordinator, Message,
    RefuseReason, SerialNumber, DONE_CAP,
};
use mdbs_histories::{GlobalTxnId, Instance, SiteId, Txn};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use mdbs_sim::{Protocol, SimConfig, Simulation};
use mdbs_workload::WorkloadSpec;

// ---------------------------------------------------------------------------
// Probe scaffolding: drive the pure state machines directly.
// ---------------------------------------------------------------------------

const SITE: SiteId = SiteId(0);
const SITE_B: SiteId = SiteId(1);
const COORD: u32 = 1_000_000;

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

fn agent() -> Agent {
    Agent::new(SITE, AgentConfig::default())
}

fn cmd() -> Command {
    Command::Update(KeySpec::Key(0), 1)
}

fn result(keys: &[u64]) -> CommandResult {
    CommandResult {
        rows: keys.iter().map(|&k| (k, 0)).collect(),
        wrote: keys.to_vec(),
    }
}

/// Drive transaction `k` to the prepared state: BEGIN, one DML, its LTM
/// completion at `t_done`, then PREPARE at `t_prepare` carrying `sn_ticks`.
/// Returns the PREPARE's actions (the READY/REFUSE decision).
fn prepare_one(
    a: &mut Agent,
    k: u32,
    t_done: u64,
    t_prepare: u64,
    sn_ticks: u64,
) -> Vec<AgentAction> {
    a.handle(
        t_done,
        AgentInput::Deliver(Message::Begin {
            gtxn: g(k),
            coord: COORD,
        }),
    );
    a.handle(
        t_done,
        AgentInput::Deliver(Message::Dml {
            gtxn: g(k),
            step: 0,
            command: cmd(),
        }),
    );
    a.handle(
        t_done,
        AgentInput::LtmDone {
            gtxn: g(k),
            result: result(&[k as u64]),
        },
    );
    a.handle(
        t_prepare,
        AgentInput::Deliver(Message::Prepare {
            gtxn: g(k),
            sn: sn(sn_ticks),
        }),
    )
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

fn refuse_reason(actions: &[AgentAction]) -> Option<RefuseReason> {
    actions.iter().find_map(|a| match a {
        AgentAction::Reply {
            msg: Message::Refuse { reason, .. },
            ..
        } => Some(*reason),
        _ => None,
    })
}

fn has_ltm_commit(actions: &[AgentAction]) -> bool {
    actions
        .iter()
        .any(|a| matches!(a, AgentAction::LtmCommit(..)))
}

/// The global transactions `actions` commit at the LTM, in action order.
fn ltm_commits(actions: &[AgentAction]) -> Vec<u32> {
    actions
        .iter()
        .filter_map(|a| match a {
            AgentAction::LtmCommit(Instance {
                txn: Txn::Global(gtxn),
                ..
            }) => Some(gtxn.0),
            _ => None,
        })
        .collect()
}

fn has_ltm_begin(actions: &[AgentAction]) -> bool {
    actions
        .iter()
        .any(|a| matches!(a, AgentAction::LtmBegin(..)))
}

fn has_ltm_submit(actions: &[AgentAction]) -> bool {
    actions
        .iter()
        .any(|a| matches!(a, AgentAction::LtmSubmit { .. }))
}

/// Expect a READY, with a mechanism-specific message otherwise.
fn expect_ready(actions: &[AgentAction], what: &str) -> Result<(), String> {
    if has_ready(actions) {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected READY, got {:?}",
            refuse_reason(actions)
        ))
    }
}

/// Expect a REFUSE with the given reason.
fn expect_refuse(actions: &[AgentAction], reason: RefuseReason, what: &str) -> Result<(), String> {
    match refuse_reason(actions) {
        Some(r) if r == reason => Ok(()),
        other => Err(format!(
            "{what}: expected REFUSE({reason:?}), got {}",
            match (&other, has_ready(actions)) {
                (Some(r), _) => format!("REFUSE({r:?})"),
                (None, true) => "READY".to_string(),
                (None, false) => "no vote".to_string(),
            }
        )),
    }
}

// ---------------------------------------------------------------------------
// Agent probes (§4.2, §5.3, Appendices A and C).
// ---------------------------------------------------------------------------

/// §4.2: a PREPARE whose candidate interval is disjoint from a stored
/// (frozen) interval must be refused; an intersecting one must be admitted.
#[test]
fn probe_basic_cert() -> Result<(), String> {
    // Disjoint: T1 prepares at t=100, then its LTM unilaterally aborts it —
    // the stored interval is frozen at [_, 100]. T2's work completes at
    // t=300, so its candidate interval starts at 300: no intersection.
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    a.handle(
        110,
        AgentInput::Uan {
            instance: Instance::global(1, SITE, 0),
        },
    );
    let acts = prepare_one(&mut a, 2, 300, 300, 200);
    expect_refuse(
        &acts,
        RefuseReason::AliveIntervalDisjoint,
        "§4.2: candidate interval disjoint from T1's frozen interval",
    )?;

    // Intersecting: both transactions alive and overlapping — must admit.
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    let acts = prepare_one(&mut a, 2, 100, 100, 200);
    expect_ready(&acts, "§4.2: intersecting candidate must be admitted")
}

/// §4.2 boundary: a frozen interval ending before the candidate begins, or
/// exactly where it begins, is disjoint; one ending a tick later
/// intersects.
#[test]
fn probe_interval_boundary() -> Result<(), String> {
    // T1's interval frozen at [_, 100]; T2's candidate begins at 101.
    let mut a = agent();
    prepare_one(&mut a, 1, 100, 100, 100);
    a.handle(
        100,
        AgentInput::Uan {
            instance: Instance::global(1, SITE, 0),
        },
    );
    let acts = prepare_one(&mut a, 2, 101, 101, 200);
    expect_refuse(
        &acts,
        RefuseReason::AliveIntervalDisjoint,
        "§4.2 boundary: frozen end 100 < candidate begin 101 is disjoint",
    )?;

    // Frozen end == candidate begin: the abort's lock release may be what
    // let the candidate's command complete at that reading, so the frozen
    // interval is open at its end and the candidate misses it.
    let mut a = agent();
    prepare_one(&mut a, 1, 100, 100, 100);
    a.handle(
        100,
        AgentInput::Uan {
            instance: Instance::global(1, SITE, 0),
        },
    );
    let acts = prepare_one(&mut a, 2, 100, 100, 200);
    expect_refuse(
        &acts,
        RefuseReason::AliveIntervalDisjoint,
        "§4.2 boundary: a frozen end equal to the candidate's begin is disjoint",
    )?;

    // An alive check at 101 extends T1 to 101 before the abort freezes
    // it: T1 was alive a tick past the candidate's begin.
    let mut a = agent();
    prepare_one(&mut a, 1, 100, 100, 100);
    a.handle(101, AgentInput::AliveTimer { gtxn: g(1) });
    a.handle(
        101,
        AgentInput::Uan {
            instance: Instance::global(1, SITE, 0),
        },
    );
    let acts = prepare_one(&mut a, 2, 100, 100, 200);
    expect_ready(&acts, "§4.2 boundary: overlapping intervals intersect")
}

/// §4.2 maintenance: PREPARE refreshes the stored intervals of entries that
/// are still alive, so a candidate arriving much later than an alive entry's
/// last refresh still intersects it.
#[test]
fn probe_prepare_refresh() -> Result<(), String> {
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    // T1 stays alive. T2 completes at t=300 — admissible only because the
    // certifier extends T1's interval to now before intersecting.
    let acts = prepare_one(&mut a, 2, 300, 300, 200);
    expect_ready(
        &acts,
        "§4.2: candidate must intersect an alive entry after refresh",
    )
}

/// §5.3: refuse a PREPARE whose sn is below the largest locally committed
/// sn; admit one above it.
#[test]
fn probe_sn_extension() -> Result<(), String> {
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    let acts = a.handle(110, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
    if !has_ltm_commit(&acts) {
        return Err("lone COMMIT did not reach the LTM".to_string());
    }
    // sn 50 < committed 100: the §5.3 extension must refuse.
    let acts = prepare_one(&mut a, 2, 200, 200, 50);
    expect_refuse(
        &acts,
        RefuseReason::SnOutOfOrder,
        "§5.3: PREPARE with sn below the largest committed sn",
    )?;
    // sn 500 > committed 100: must be admitted.
    let acts = prepare_one(&mut a, 3, 300, 300, 500);
    expect_ready(
        &acts,
        "§5.3: PREPARE with sn above the largest committed sn",
    )
}

/// Appendix A: after a unilateral abort of a prepared subtransaction, the
/// alive-check timer must open a fresh incarnation *and* replay the logged
/// commands.
#[test]
fn probe_resubmission() -> Result<(), String> {
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    a.handle(
        110,
        AgentInput::Uan {
            instance: Instance::global(1, SITE, 0),
        },
    );
    let acts = a.handle(120, AgentInput::AliveTimer { gtxn: g(1) });
    if !has_ltm_begin(&acts) {
        return Err(
            "Appendix A: alive check saw the unilateral abort but opened no new incarnation"
                .to_string(),
        );
    }
    if !has_ltm_submit(&acts) {
        return Err(
            "Appendix A: resubmission opened an incarnation but replayed no logged command"
                .to_string(),
        );
    }
    Ok(())
}

/// Appendix C: local commits happen in sn order — a COMMIT for the
/// larger-sn transaction waits while a smaller-sn entry is in the table
/// (its alive tick retries, holds and re-arms), and is released the moment
/// that entry leaves.
#[test]
fn probe_commit_order() -> Result<(), String> {
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    let acts = prepare_one(&mut a, 2, 110, 110, 200);
    expect_ready(&acts, "clean second PREPARE")?;
    // T2 (sn 200) is told to commit while T1 (sn 100) is still prepared:
    // commit certification must hold it back.
    let acts = a.handle(120, AgentInput::Deliver(Message::Commit { gtxn: g(2) }));
    if has_ltm_commit(&acts) {
        return Err("Appendix C: committed sn 200 while sn 100 was still in the table".to_string());
    }
    let acts = a.handle(125, AgentInput::AliveTimer { gtxn: g(2) });
    if has_ltm_commit(&acts) {
        return Err("Appendix C: the alive tick committed sn 200 past sn 100".to_string());
    }
    let rearmed = acts
        .iter()
        .any(|x| matches!(x, AgentAction::StartAliveTimer { .. }));
    if !rearmed {
        return Err("Appendix C: the alive tick of a held COMMIT did not re-arm".to_string());
    }
    // T1's COMMIT commits T1 and, in the same host step, releases T2 —
    // one local commit per agent step, smaller serial number first.
    let mut acts = a.handle(130, AgentInput::Deliver(Message::Commit { gtxn: g(1) }));
    if ltm_commits(&acts) != [1] {
        return Err(format!(
            "Appendix C: the smallest-sn COMMIT must commit exactly T1, got {:?}",
            ltm_commits(&acts)
        ));
    }
    acts.extend(a.release_held_commit(130));
    if ltm_commits(&acts) != [1, 2] {
        return Err(format!(
            "Appendix C: T1 leaving the table must release T2's held COMMIT, got {:?}",
            ltm_commits(&acts)
        ));
    }
    // T2's alive timer is still armed; it must find nothing to do.
    let acts = a.handle(140, AgentInput::AliveTimer { gtxn: g(2) });
    if !acts.is_empty() {
        return Err(format!(
            "Appendix C: alive tick of a released COMMIT acted again: {acts:?}"
        ));
    }
    Ok(())
}

/// §4.2 eviction: ROLLBACK removes the entry from the alive-interval table.
#[test]
fn probe_rollback_evict() -> Result<(), String> {
    let mut a = agent();
    let acts = prepare_one(&mut a, 1, 100, 100, 100);
    expect_ready(&acts, "clean first PREPARE")?;
    a.handle(110, AgentInput::Deliver(Message::Rollback { gtxn: g(1) }));
    if a.has_subtxn(g(1)) {
        return Err(
            "§4.2: rolled-back subtransaction still occupies the alive-interval table".to_string(),
        );
    }
    Ok(())
}

/// Drive `DONE_CAP + 10` transactions to terminal outcomes, then check the
/// done-set holds exactly `DONE_CAP` ids. Terminal outcomes insert into
/// the duplicate-detection done-set regardless of whether the PREPARE was
/// admitted or refused, so only a compaction defect can breach the bound —
/// the hotpath pass's `hot-unbounded-growth` concern made executable.
#[test]
fn probe_done_bound() -> Result<(), String> {
    let mut a = agent();
    for k in 1..=DONE_CAP as u32 + 10 {
        let t = k as u64 * 100;
        let _ = prepare_one(&mut a, k, t, t, t);
        a.handle(
            t + 10,
            AgentInput::Deliver(Message::Rollback { gtxn: g(k) }),
        );
    }
    if a.done_len() != DONE_CAP {
        return Err(format!(
            "done-set bound broken: {} terminated ids retained, cap {DONE_CAP}",
            a.done_len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator probes (§2 / §3).
// ---------------------------------------------------------------------------

/// Drive a two-site transaction at a coordinator through unanimous READY;
/// returns (the unanimous-READY actions, the coordinator).
fn coordinator_to_commit() -> (Vec<CoordAction>, Coordinator) {
    let mut c = Coordinator::new(COORD);
    c.begin(g(1), vec![(SITE, cmd()), (SITE_B, cmd())]);
    c.on_message(
        10,
        Message::DmlResult {
            gtxn: g(1),
            site: SITE,
            step: 0,
            result: result(&[0]),
        },
    );
    c.on_message(
        20,
        Message::DmlResult {
            gtxn: g(1),
            site: SITE_B,
            step: 1,
            result: result(&[0]),
        },
    );
    c.on_message(
        30,
        Message::Ready {
            gtxn: g(1),
            site: SITE,
        },
    );
    let decision = c.on_message(
        40,
        Message::Ready {
            gtxn: g(1),
            site: SITE_B,
        },
    );
    (decision, c)
}

/// §2: a duplicate READY arriving while the coordinator is committing must
/// be answered with a retransmitted COMMIT (the recovered voter depends on
/// it).
#[test]
fn probe_dup_ready() -> Result<(), String> {
    let (decision, mut c) = coordinator_to_commit();
    if !decision.iter().any(|a| {
        matches!(
            a,
            CoordAction::ToAgent {
                msg: Message::Commit { .. },
                ..
            }
        )
    }) {
        return Err("unanimous READY produced no COMMIT".to_string());
    }
    let acts = c.on_message(
        50,
        Message::Ready {
            gtxn: g(1),
            site: SITE,
        },
    );
    if !acts.iter().any(|a| {
        matches!(
            a,
            CoordAction::ToAgent {
                msg: Message::Commit { .. },
                ..
            }
        )
    }) {
        return Err(
            "§2: duplicate READY while committing was not answered with a retransmitted COMMIT"
                .to_string(),
        );
    }
    Ok(())
}

/// §3: unanimous READY durably records the global commit decision (the
/// `C_k` record) before the COMMITs go out.
#[test]
fn probe_commit_record() -> Result<(), String> {
    let (decision, _) = coordinator_to_commit();
    if !decision
        .iter()
        .any(|a| matches!(a, CoordAction::RecordGlobalCommit(..)))
    {
        return Err(
            "§3: unanimous READY sent COMMITs without recording the global commit decision"
                .to_string(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Consensus probes (Paxos Commit leader safety).
// ---------------------------------------------------------------------------

const CRASHED_COORD: u32 = 1_000_001;
const ACCEPTORS: [u32; 3] = [3_000_000, 3_000_001, 3_000_002];

fn consensus_leader(node: u32) -> Leader {
    Leader::new(node, 1, ACCEPTORS.to_vec())
}

/// Deliver `inbox` between `leader` and the acceptors until quiescent;
/// return the decisions reached.
fn deliver(
    leader: &mut Leader,
    accs: &mut [Acceptor],
    mut inbox: Vec<(u32, PaxosMsg)>,
) -> Result<Vec<Decision>, String> {
    let mut decisions = Vec::new();
    for _ in 0..100 {
        if inbox.is_empty() {
            return Ok(decisions);
        }
        let mut next = Vec::new();
        for (to, msg) in inbox {
            if to == COORD {
                let (out, ds) = leader.on_msg(msg);
                next.extend(out);
                decisions.extend(ds);
            } else if let Some(acc) = accs.iter_mut().find(|a| a.node() == to) {
                next.extend(acc.handle(msg));
            }
        }
        inbox = next;
    }
    Err("consensus message storm".to_string())
}

/// Every-participant coverage: a ballot-0 acceptor reports a transaction
/// only once it holds every registered participant's READY, so votes
/// piling up for one participant must not decide while another never
/// voted. `Leader` plus real `Acceptor`s, the votes sent to all three.
#[test]
fn probe_consensus_quorum() -> Result<(), String> {
    let mut leader = consensus_leader(COORD);
    let mut accs: Vec<Acceptor> = ACCEPTORS.iter().map(|&n| Acceptor::new(n)).collect();
    let votes = |site| {
        ACCEPTORS.map(|a| {
            let vote = PaxosMsg::Vote2a {
                gtxn: g(1),
                site,
                coord: COORD,
                vote: Vote::Ready,
            };
            (a, vote)
        })
    };
    let begin = leader.register(g(1), BTreeSet::from([SITE, SITE_B]));
    let mut decisions = deliver(&mut leader, &mut accs, begin)?;
    // SITE votes, twice over; SITE_B never did.
    for _ in 0..2 {
        decisions.extend(deliver(&mut leader, &mut accs, votes(SITE).to_vec())?);
    }
    if !decisions.is_empty() {
        return Err(format!(
            "committed with a participant that never voted: {decisions:?}"
        ));
    }
    // SITE_B votes too: now (and only now) commit.
    let decisions = deliver(&mut leader, &mut accs, votes(SITE_B).to_vec())?;
    if decisions != vec![Decision::Commit { gtxn: g(1) }] {
        return Err(format!(
            "every participant ready must decide commit, got {decisions:?}"
        ));
    }
    Ok(())
}

/// Promise adoption: a failover must complete a transaction whose READY
/// votes a quorum already accepted — the phase-1b promises carry those
/// votes precisely so the backup cannot decide from its stale view.
#[test]
fn probe_consensus_takeover() -> Result<(), String> {
    let mut accs: Vec<Acceptor> = ACCEPTORS.iter().map(|&n| Acceptor::new(n)).collect();
    // The crashed coordinator got every vote to its ballot-0 acceptors
    // before dying.
    for acc in accs
        .iter_mut()
        .filter(|a| fast_path_acceptors(&ACCEPTORS).contains(&a.node()))
    {
        acc.handle(PaxosMsg::Begin {
            gtxn: g(1),
            coord: CRASHED_COORD,
            participants: BTreeSet::from([SITE, SITE_B]),
        });
        for site in [SITE, SITE_B] {
            acc.handle(PaxosMsg::Vote2a {
                gtxn: g(1),
                site,
                coord: CRASHED_COORD,
                vote: Vote::Ready,
            });
        }
    }
    let mut backup = consensus_leader(COORD);
    let inbox = backup.take_over();
    let decisions = deliver(&mut backup, &mut accs, inbox)?;
    let expected = vec![Decision::Adopted {
        gtxn: g(1),
        participants: BTreeSet::from([SITE, SITE_B]),
        commit: true,
    }];
    if decisions != expected {
        return Err(format!(
            "a fully-voted orphan must be adopted and committed, got {decisions:?}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Exploration, simulation and static-analysis checkers.
// ---------------------------------------------------------------------------

/// Run a bounded-exploration world over the protocol as compiled, capped at
/// 2 000 schedules (what keeps a matrix row to seconds; that the real
/// protocol *exhausts* both worlds clean is `kill_matrix.rs`'s
/// `full_exhausts_mutant_worlds`). A found violation fails the checker.
fn explore_world(mut cfg: ExploreConfig) -> Result<(), String> {
    cfg.max_runs = 2_000;
    match explore(&cfg) {
        ExploreOutcome::Violation(cx) => Err(format!(
            "{} after {} runs ({} deviation(s))",
            cx.violation,
            cx.runs_explored,
            cx.deviations.len()
        )),
        ExploreOutcome::Exhausted { .. } | ExploreOutcome::RunCapped { .. } => Ok(()),
    }
}

#[test]
fn explore_interval() -> Result<(), String> {
    explore_world(ExploreConfig::mutation_interval())
}

#[test]
fn explore_conflict() -> Result<(), String> {
    explore_world(ExploreConfig::conflict())
}

/// One contended, unilateral-abort-heavy simulation run, judged end to
/// end: every global transaction must settle before the time limit and the
/// history's correctness report must pass (a panic inside the simulator
/// fails the checker too). The seed is one whose run each of
/// `broken-basic-cert`, `commit-edge-flip`, `commit-pending-only` and
/// `keep-rollback-in-table` gets wrong: of seeds 1–400 the full protocol
/// passes all, and 17 fail under all four mutants; 20 is the first.
#[test]
fn sim_conflict() -> Result<(), String> {
    const GLOBAL_TXNS: u32 = 24;
    let cfg = SimConfig {
        workload: WorkloadSpec {
            seed: 20,
            sites: 2,
            items_per_site: 8,
            global_txns: GLOBAL_TXNS,
            mpl: 4,
            local_txns_per_site: 10,
            unilateral_abort_prob: 0.2,
            ..WorkloadSpec::default()
        },
        protocol: Protocol::TwoCm(CertifierMode::Full),
        ..SimConfig::default()
    };
    let report = Simulation::new(cfg).run();
    let c = &report.checks;
    let mut why = Vec::new();
    if report.committed + report.aborted != u64::from(GLOBAL_TXNS) {
        why.push("global transaction(s) never settled");
    }
    if c.rigor_violation.is_some() {
        why.push("rigorousness violated");
    }
    if !c.cg_acyclic {
        why.push("commit-order graph cyclic");
    }
    if c.global_distortion.is_some() {
        why.push("global view distortion");
    }
    if c.view_serializable_exact == Some(false) {
        why.push("not view serializable");
    }
    if why.is_empty() && c.passed() {
        Ok(())
    } else {
        Err(format!("correctness report failed: {}", why.join("; ")))
    }
}

/// `mdbs-check proto` over the source tree this test was compiled from —
/// the working copy, or the kill matrix's mutated copy of it — must come
/// back clean: a mutant that deletes a table obligation (a dup guard, a
/// timer) is killed here by the rule it breaks, before anything runs.
#[test]
fn proto_static() -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings =
        run(&root, Group::Proto).map_err(|e| format!("proto pass failed to run: {e}"))?;
    match findings.first() {
        None => Ok(()),
        Some(first) => Err(format!("{} proto finding(s): {first}", findings.len())),
    }
}
