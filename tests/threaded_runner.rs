//! Correctness of the threaded runner.
//!
//! The threaded runner is nondeterministic — thread scheduling reorders
//! deliveries on every run — but the protocol's guarantees must not depend
//! on the driver: every history it produces has to settle all work and
//! pass the `mdbs-histories` checkers (rigorous site projections, acyclic
//! commit-order graph, no global view distortion, exact view
//! serializability where computed).

use rigorous_mdbs::dtm::CertifierMode;
use rigorous_mdbs::histories::{Op, Txn};
use rigorous_mdbs::sim::{Protocol, SimConfig, SimReport, ThreadedRunner};

fn cfg(protocol: Protocol, abort_prob: f64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = 20260805;
    cfg.workload.sites = 3;
    cfg.workload.global_txns = 12;
    cfg.workload.local_txns_per_site = 4;
    cfg.workload.items_per_site = 32;
    cfg.workload.unilateral_abort_prob = abort_prob;
    cfg.protocol = protocol;
    cfg
}

fn run_and_settle(protocol: Protocol, abort_prob: f64) -> SimReport {
    let c = cfg(protocol, abort_prob);
    let globals = c.workload.global_txns as u64;
    let locals = (c.workload.sites * c.workload.local_txns_per_site) as u64;
    let report = ThreadedRunner::new(c).run();
    assert_eq!(
        report.committed + report.aborted,
        globals,
        "every global transaction must settle; metrics:\n{}",
        report.metrics
    );
    assert_eq!(
        report.local_committed + report.local_aborted,
        locals,
        "every local transaction must settle; metrics:\n{}",
        report.metrics
    );
    assert!(
        report.checks.rigor_violation.is_none(),
        "strict-2PL site projections must stay rigorous: {:?}",
        report.checks
    );
    report
}

fn run_and_check(protocol: Protocol, abort_prob: f64) -> SimReport {
    let report = run_and_settle(protocol, abort_prob);
    assert!(
        report.checks.passed(),
        "threaded history must pass all checkers: {:?}",
        report.checks
    );
    report
}

#[test]
fn threaded_two_cm_failure_free_is_correct() {
    let report = run_and_check(Protocol::TwoCm(CertifierMode::Full), 0.0);
    assert_eq!(report.aborted, 0, "no failures injected, nothing may abort");
    assert_eq!(report.committed, 12);
}

#[test]
fn threaded_two_cm_under_injection_is_correct() {
    let report = run_and_check(Protocol::TwoCm(CertifierMode::Full), 0.3);
    assert!(
        report.metrics.counter("injections_scheduled") > 0,
        "injector must have drawn at this probability; metrics:\n{}",
        report.metrics
    );
}

#[test]
fn threaded_ticket_order_settles() {
    // Ticket order is an anomaly baseline: its bounded-retry safety valve
    // may force an out-of-order commit under injection, so only settlement
    // and site-level rigor are guaranteed — not view serializability.
    run_and_settle(Protocol::TwoCm(CertifierMode::TicketOrder), 0.2);
}

#[test]
fn threaded_cgm_failure_free_is_correct() {
    let report = run_and_check(Protocol::Cgm, 0.0);
    assert_eq!(report.committed, 12);
}

#[test]
fn threaded_cgm_under_injection_is_correct() {
    run_and_check(Protocol::Cgm, 0.3);
}

#[test]
fn threaded_two_cm_with_duplicate_and_delay_faults_is_correct() {
    use rigorous_mdbs::simkit::{FaultAction, FaultPlan};
    // Duplicates break exactly-once and delay spikes can break same-link
    // FIFO in the threaded driver — but with no loss, 2CM must still
    // settle everything and stay rigorous. (View serializability is not
    // asserted: FIFO is a stated §2 assumption.)
    let mut c = cfg(Protocol::TwoCm(CertifierMode::Full), 0.1);
    c.faults = Some(FaultPlan {
        actions: vec![
            FaultAction::Duplicate {
                src: None,
                dst: None,
                from_us: 0,
                until_us: u64::MAX,
                gap_us: 1_000,
            },
            FaultAction::DelaySpike {
                src: None,
                dst: None,
                from_us: 0,
                until_us: u64::MAX,
                extra_us: 2_000,
            },
        ],
    });
    let globals = c.workload.global_txns as u64;
    let report = ThreadedRunner::new(c).run();
    assert_eq!(
        report.committed + report.aborted,
        globals,
        "every global transaction must settle under duplication; metrics:\n{}",
        report.metrics
    );
    assert!(report.metrics.counter("faults_duplicated") > 0);
    assert!(report.metrics.counter("faults_delayed") > 0);
    assert!(
        report.checks.rigor_violation.is_none(),
        "site projections must stay rigorous: {:?}",
        report.checks
    );
}

#[test]
fn threaded_runner_unwinds_promptly_when_a_node_panics() {
    use rigorous_mdbs::simkit::SimTime;
    use std::panic::AssertUnwindSafe;
    use std::time::{Duration, Instant};
    // An hour-long time limit: before the exit-notice machinery the driver
    // would poll out the whole limit when a node died, because the dead
    // node's work can never settle.
    let mut c = cfg(Protocol::TwoCm(CertifierMode::Full), 0.0);
    c.time_limit = SimTime::from_secs(3_600);
    let runner = ThreadedRunner::new(c).panic_at_node(1);
    let start = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(move || runner.run()));
    let elapsed = start.elapsed();
    let payload = result.expect_err("the injected node panic must propagate to the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("injected test panic"),
        "unexpected panic payload: {msg:?}"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "driver must stop on the exit notice, not sleep out the time limit ({elapsed:?})"
    );
}

#[test]
fn threaded_paxos_commit_f1_failure_free_is_correct() {
    // F=1 spins up 3 acceptor threads and routes every vote through the
    // two ballot-0 ones; with no crash the outcome must match direct 2PC
    // exactly.
    let mut c = cfg(Protocol::TwoCm(CertifierMode::Full), 0.0);
    c.coordinators = 2;
    c.consensus_f = 1;
    let globals = c.workload.global_txns as u64;
    let report = ThreadedRunner::new(c).run();
    assert_eq!(report.committed, globals, "metrics:\n{}", report.metrics);
    assert!(report.checks.passed(), "{:?}", report.checks);
}

#[test]
fn threaded_coordinator_crash_fails_over_and_settles() {
    use rigorous_mdbs::simkit::SimTime;
    // Coordinator 1 crash-stops just before processing its 2nd READY —
    // after votes are already fanned to the ballot-0 acceptors. The driver
    // promotes coordinator 0, which adopts the dead coordinator's
    // in-flight transactions through the quorum; every transaction must
    // still settle and the history must pass the full checker stack.
    let mut c = cfg(Protocol::TwoCm(CertifierMode::Full), 0.0);
    c.coordinators = 2;
    c.consensus_f = 1;
    c.coord_crash_after_ready = Some((1, 2));
    c.time_limit = SimTime::from_secs(60);
    let globals = c.workload.global_txns as u64;
    let locals = (c.workload.sites * c.workload.local_txns_per_site) as u64;
    let report = ThreadedRunner::new(c).run();
    assert_eq!(report.metrics.counter("coord_crashes"), 1);
    assert_eq!(report.metrics.counter("coord_takeovers"), 1);
    assert_eq!(
        report.committed + report.aborted,
        globals,
        "every global must settle despite the coordinator crash; metrics:\n{}",
        report.metrics
    );
    assert_eq!(report.local_committed + report.local_aborted, locals);
    assert!(
        report.checks.passed(),
        "failover history must pass all checkers: {:?}",
        report.checks
    );
}

#[test]
fn threaded_runner_counts_messages() {
    let report = run_and_check(Protocol::TwoCm(CertifierMode::Full), 0.0);
    // Each 2-site committed transaction needs >= 12 protocol messages.
    assert!(report.messages >= 12 * 12, "messages: {}", report.messages);
}

/// Each node thread keeps its own slice of the history and the driver
/// concatenates the slices in node order: every op a site recorded precedes
/// every op of a higher-numbered site, and the coordinators' global commits
/// and aborts (recorded by no site) follow all of them. Conflicts are
/// intra-site, so the checkers must pass on the merged history.
#[test]
fn threaded_history_is_merged_in_node_order() {
    let report = run_and_check(Protocol::TwoCm(CertifierMode::Full), 0.2);
    let ops = report.history.ops();
    assert!(ops.iter().any(|op| matches!(op.txn, Txn::Local(_))));
    assert!(ops.iter().any(|op| op.site().is_none()));
    let recorder = |op: &Op| op.site().map_or(u32::MAX, |s| s.0);
    let first_out_of_order = ops
        .windows(2)
        .position(|w| recorder(&w[0]) > recorder(&w[1]));
    assert_eq!(first_out_of_order, None, "history: {}", report.history);
}

#[test]
fn threaded_failover_counts_a_re_adopted_transaction_once() {
    use std::collections::BTreeSet;

    use rigorous_mdbs::histories::OpKind;
    use rigorous_mdbs::simkit::SimTime;
    // Coordinator 1 crash-stops at its 12th READY, after it settled
    // transactions of its own. The last ones' compaction waited for a
    // registration that never came, so the backup re-adopts them,
    // re-decides them and reports them settled a second time. The driver
    // must count each once, or it stops waiting while a transaction is
    // still in flight and the history lacks its decision.
    let mut c = cfg(Protocol::TwoCm(CertifierMode::Full), 0.0);
    c.coordinators = 2;
    c.consensus_f = 1;
    c.coord_crash_after_ready = Some((1, 12));
    c.time_limit = SimTime::from_secs(60);
    let globals = c.workload.global_txns as u64;
    let report = ThreadedRunner::new(c).run();
    assert_eq!(report.metrics.counter("coord_takeovers"), 1);
    assert_eq!(report.committed + report.aborted, globals);
    let decided: BTreeSet<Txn> = (report.history.ops().iter())
        .filter(|op| matches!(op.kind, OpKind::GlobalCommit | OpKind::GlobalAbort))
        .map(|op| op.txn)
        .collect();
    assert_eq!(
        decided.len() as u64,
        globals,
        "metrics:\n{}",
        report.metrics
    );
    assert!(report.checks.passed(), "{:?}", report.checks);
}
