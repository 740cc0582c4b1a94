//! Pinned certifier-mutation kill matrix.
//!
//! The catalog in `mdbs_check::mutate` lists source edits against the
//! shipped §4/§5/Appendix, 2PC and Paxos Commit code; each must be *killed*
//! (some test of `checkers.rs` fails on the edited tree) while the real
//! tree stays clean. This test pins the full mutant×checker outcome table
//! so that:
//!
//! - adding a catalog mutant without extending the pin fails (row-set
//!   mismatch),
//! - a checker regression that loses a kill fails (killer-set mismatch),
//! - a mutant surviving every checker fails outright,
//! - an edit that no longer applies, or no longer compiles, fails as a
//!   harness error rather than passing as a survivor or a kill.
//!
//! The checkers cap exploration at 2 000 schedules per world; a separate
//! test asserts that the real protocol *exhausts* both exploration worlds
//! clean at 30 000 — not merely that it survives a capped search.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mdbs_check::explore::{explore, ExploreConfig, ExploreOutcome};
use mdbs_check::mutate::{catalog, run_matrix, Edit, Matrix, Mutant};

/// Matrix column order: the tests of `checkers.rs` by name. Every row
/// reports these checkers, in this order.
const CHECKERS: &[&str] = &[
    "explore-conflict",
    "explore-interval",
    "probe-basic-cert",
    "probe-commit-order",
    "probe-commit-record",
    "probe-consensus-quorum",
    "probe-consensus-takeover",
    "probe-done-bound",
    "probe-dup-ready",
    "probe-interval-boundary",
    "probe-prepare-refresh",
    "probe-resubmission",
    "probe-rollback-evict",
    "probe-sn-extension",
    "proto-static",
    "sim-conflict",
];

/// Expected killers per mutant, in catalog order.
const PINNED: &[(&str, &[&str])] = &[
    (
        "broken-basic-cert",
        &[
            "explore-interval",
            "probe-basic-cert",
            "probe-interval-boundary",
            "sim-conflict",
        ],
    ),
    ("interval-boundary", &["probe-interval-boundary"]),
    (
        "stale-refresh",
        &["probe-commit-order", "probe-prepare-refresh"],
    ),
    ("no-prepare-extension", &["probe-sn-extension"]),
    ("sn-check-flip", &["probe-sn-extension"]),
    ("stale-max-sn", &["probe-sn-extension"]),
    ("skip-replay", &["probe-resubmission"]),
    ("drop-resubmission", &["probe-resubmission"]),
    (
        "commit-edge-flip",
        &["explore-interval", "probe-commit-order", "sim-conflict"],
    ),
    (
        "commit-pending-only",
        &["probe-commit-order", "sim-conflict"],
    ),
    (
        "keep-rollback-in-table",
        &["explore-interval", "probe-rollback-evict", "sim-conflict"],
    ),
    ("agent-done-cap-ignored", &["probe-done-bound"]),
    ("drop-dup-ready-retransmit", &["probe-dup-ready"]),
    ("skip-commit-record", &["probe-commit-record"]),
    ("quorum-shortcut", &["probe-consensus-quorum"]),
    ("stale-ballot-replay", &["probe-consensus-takeover"]),
    ("ready-dup-guard-dropped", &["proto-static"]),
    ("alive-timer-skipped", &["proto-static"]),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The matrix, computed once and shared across tests.
fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        run_matrix(&workspace_root(), &catalog()).unwrap_or_else(|e| panic!("harness error: {e}"))
    })
}

#[test]
fn catalog_is_pinned() {
    let cat = catalog();
    let ids: Vec<&str> = cat.iter().map(|m| m.id).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids, pinned,
        "catalog ids diverge from the pinned table; extend PINNED when adding a mutant"
    );
    for m in &cat {
        assert!(
            !m.mechanism.is_empty(),
            "{}: every mutant must name the paper mechanism it breaks",
            m.id
        );
        assert!(!m.summary.is_empty(), "{}: summary missing", m.id);
        assert!(!m.edits.is_empty(), "{}: a mutant needs an edit", m.id);
    }
}

#[test]
fn matrix_shape_is_pinned() {
    let matrix = matrix();
    for row in std::iter::once(&matrix.full).chain(&matrix.rows) {
        let cols: Vec<&str> = row.results.iter().map(|r| r.checker.as_str()).collect();
        assert_eq!(cols, CHECKERS, "{}: checker column set changed", row.id);
    }
}

#[test]
fn every_mutant_is_killed_and_full_is_clean() {
    let matrix = matrix();
    for r in &matrix.full.results {
        assert!(
            !r.killed,
            "real protocol failed {}: {}",
            r.checker, r.detail
        );
    }
    assert_eq!(
        matrix.survivors(),
        Vec::<&str>::new(),
        "mutant(s) survived every checker"
    );
    assert!(matrix.passed());
}

#[test]
fn kill_matrix_matches_pin() {
    let matrix = matrix();
    assert_eq!(matrix.rows.len(), PINNED.len());
    for (row, (id, killers)) in matrix.rows.iter().zip(PINNED) {
        assert_eq!(row.id, *id);
        assert_eq!(
            row.killers(),
            *killers,
            "{}: killer set drifted from the pin",
            row.id
        );
    }
}

const AGENT_RS: &str = "crates/core/src/agent.rs";

/// Run the matrix over one fixture mutant; it must come back as a harness
/// error, whose text is returned.
fn harness_error(edits: &'static [Edit]) -> String {
    let fixture = Mutant {
        id: "fixture",
        mechanism: "none",
        summary: "harness-error fixture",
        edits,
    };
    match run_matrix(&workspace_root(), &[fixture]) {
        Err(e) => e,
        Ok(m) => panic!(
            "expected a harness error, got a matrix with survivors {:?}",
            m.survivors()
        ),
    }
}

#[test]
fn a_missing_anchor_is_a_harness_error() {
    let e = harness_error(&[Edit {
        file: AGENT_RS,
        anchor: "this text is not in the agent",
        replacement: "",
    }]);
    assert!(e.contains("fixture: anchor not found"), "{e}");
}

#[test]
fn an_ambiguous_anchor_is_a_harness_error() {
    let e = harness_error(&[Edit {
        file: AGENT_RS,
        anchor: "fn ",
        replacement: "fn ",
    }]);
    assert!(e.contains("times in crates/core/src/agent.rs"), "{e}");
}

#[test]
fn a_mutant_that_does_not_build_is_a_harness_error() {
    let e = harness_error(&[Edit {
        file: AGENT_RS,
        anchor: "pub struct Agent {",
        replacement: "pub struct Agent { oops",
    }]);
    assert!(e.contains("fixture: the mutant does not build"), "{e}");
}

/// The §4.2 and conflict worlds must be *exhausted* clean by the real
/// protocol at the pinned budget — `RunCapped` would make the mutate gate
/// vacuous there, and a `Violation` is a protocol bug.
#[test]
fn full_exhausts_mutant_worlds() {
    for (name, mut cfg) in [
        ("mutation-interval", ExploreConfig::mutation_interval()),
        ("conflict", ExploreConfig::conflict()),
    ] {
        cfg.max_runs = 30_000;
        match explore(&cfg) {
            ExploreOutcome::Exhausted { .. } => {}
            ExploreOutcome::RunCapped { runs } => {
                panic!("{name}: run cap hit after {runs} runs; world no longer exhaustible")
            }
            ExploreOutcome::Violation(cx) => panic!("{name}: full protocol violated: {cx}"),
        }
    }
}
