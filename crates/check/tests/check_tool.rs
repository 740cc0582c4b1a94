//! End-to-end checks of `mdbs-check explore` (the rule groups' workspace
//! pin is in `fixtures.rs`):
//!
//! - the bounded explorer exhausts the failure-free smoke worlds with
//!   zero violations, under both 2CM and CGM;
//! - the §4.2 smoke test: without alive-interval certification (the
//!   `NoCertification` baseline), the explorer finds a schedule violating
//!   the interval-intersection invariant and produces a minimized trace —
//!   and the identical world under `Full` is clean.

use mdbs_check::explore::{explore, ExploreConfig, ExploreOutcome, Violation};

#[test]
fn explorer_exhausts_the_2cm_smoke_world_clean() {
    match explore(&ExploreConfig::smoke_2cm()) {
        ExploreOutcome::Exhausted { runs } => {
            assert!(runs > 100, "suspiciously small schedule space: {runs}")
        }
        other => panic!("expected exhaustion without violation, got {other:?}"),
    }
}

#[test]
fn explorer_exhausts_the_cgm_smoke_world_clean() {
    match explore(&ExploreConfig::smoke_cgm()) {
        ExploreOutcome::Exhausted { runs } => {
            assert!(runs > 100, "suspiciously small schedule space: {runs}")
        }
        other => panic!("expected exhaustion without violation, got {other:?}"),
    }
}

#[test]
fn explorer_exhausts_the_conflict_world_clean() {
    match explore(&ExploreConfig::conflict()) {
        ExploreOutcome::Exhausted { runs } => {
            assert!(runs > 100, "suspiciously small schedule space: {runs}")
        }
        other => panic!("expected exhaustion without violation, got {other:?}"),
    }
}

#[test]
fn explorer_finds_the_interval_violation_without_certification() {
    let mut cfg = ExploreConfig::mutation_interval();
    cfg.mode = mdbs_dtm::CertifierMode::NoCertification;
    let ExploreOutcome::Violation(cex) = explore(&cfg) else {
        panic!("an uncertified agent must admit a §4.2 interval violation");
    };
    assert!(
        matches!(cex.violation, Violation::IntervalDisjoint { .. }),
        "expected an interval violation, got: {}",
        cex.violation
    );
    // The counterexample must be actionable: a non-empty trace and a
    // small deviation diff against the default schedule (the search is
    // level-ordered, so whatever it returns first is minimal).
    assert!(!cex.trace.is_empty(), "counterexample lost its trace");
    assert!(
        (1..=3).contains(&cex.deviations.len()),
        "deviation diff should be minimal, got {}: {:#?}",
        cex.deviations.len(),
        cex.deviations
    );
    let rendered = format!("{cex}");
    assert!(
        rendered.contains("§4.2 intersection violated"),
        "rendered counterexample must name the invariant:\n{rendered}"
    );
}

#[test]
fn explorer_exhausts_the_coord_failover_world_clean() {
    // F=1 Paxos Commit: a coordinator crash-stop in the READY window is
    // survivable on every schedule — the backup adopts the dead
    // coordinator's transactions through the acceptor quorum.
    match explore(&ExploreConfig::coord_failover()) {
        ExploreOutcome::Exhausted { runs } => {
            assert!(runs > 100, "suspiciously small schedule space: {runs}")
        }
        other => panic!("expected exhaustion without violation, got {other:?}"),
    }
}

#[test]
fn explorer_finds_the_blocked_agent_under_direct_commit() {
    // The identical crash under F=0 direct 2PC: the decision dies with
    // the coordinator and some schedule strands a prepared agent. The
    // counterexample is minimal — one deviation, the crash itself.
    let ExploreOutcome::Violation(cex) = explore(&ExploreConfig::coord_crash_direct()) else {
        panic!("a coordinator crash without consensus must strand an agent");
    };
    assert!(
        matches!(
            cex.violation,
            Violation::Incomplete { .. } | Violation::StepLimit { .. }
        ),
        "expected a blocked-agent violation, got: {}",
        cex.violation
    );
    assert_eq!(
        cex.deviations.len(),
        1,
        "the minimal counterexample is the crash alone: {:#?}",
        cex.deviations
    );
    assert!(
        cex.deviations[0].contains("crash-stop coordinator"),
        "the single deviation must be the coordinator crash: {:#?}",
        cex.deviations
    );
}

#[test]
fn the_full_certifier_is_clean_on_the_mutation_world() {
    let mut cfg = ExploreConfig::mutation_interval();
    // The same budgets exhaust at ~27k schedules; leave headroom.
    cfg.max_runs = 100_000;
    match explore(&cfg) {
        ExploreOutcome::Exhausted { .. } => {}
        other => panic!("Full must be violation-free on the mutation world, got {other:?}"),
    }
}
