//! End-to-end checks of `mdbs-check explore` (the rule groups' workspace
//! pin is in `fixtures.rs`):
//!
//! - every clean preset exhausts its schedule space with zero violations,
//!   at a pinned schedule count — a count that moves means the explored
//!   world or the search changed, and DESIGN §7b quotes these numbers;
//! - the §4.2 smoke test: without alive-interval certification (the
//!   `naive` protocol), the explorer finds a schedule violating the
//!   interval-intersection invariant and produces a minimized trace —
//!   and the identical world under 2CM is clean;
//! - a coordinator crash under direct 2PC strands an agent in one
//!   deviation.

use mdbs_check::explore::{explore, ExploreConfig, ExploreOutcome, Violation};
use mdbs_dtm::CertifierMode;
use mdbs_sim::Protocol;

#[test]
fn every_clean_preset_exhausts_at_its_pinned_schedule_count() {
    let mut mutation_interval = ExploreConfig::mutation_interval();
    mutation_interval.max_runs = 100_000;
    for (name, cfg, pinned) in [
        ("smoke-2cm", ExploreConfig::smoke_2cm(), 983),
        ("smoke-cgm", ExploreConfig::smoke_cgm(), 485),
        ("conflict", ExploreConfig::conflict(), 89),
        // F=1 Paxos Commit: a coordinator crash-stop in the READY window is
        // survivable on every schedule — the backup adopts the dead
        // coordinator's transactions through the acceptor quorum.
        ("coord-failover", ExploreConfig::coord_failover(), 2_577),
        ("mutation-interval", mutation_interval, 18_170),
    ] {
        match explore(&cfg) {
            ExploreOutcome::Exhausted { runs } => {
                assert_eq!(runs, pinned, "{name}: the schedule space moved")
            }
            other => panic!("{name}: expected exhaustion without violation, got {other:?}"),
        }
    }
}

#[test]
fn explorer_finds_the_interval_violation_without_certification() {
    let mut cfg = ExploreConfig::mutation_interval();
    cfg.protocol = Protocol::TwoCm(CertifierMode::NoCertification);
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
