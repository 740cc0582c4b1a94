//! Chaos sweep: seeded fault injection across protocols and profiles.
//!
//! Every case runs the full history-checker stack and is held to the
//! expectation policy in `mdbs_sim::chaos`: profiles that keep the paper's
//! §2 delivery assumptions demand settlement (and, for certifying
//! protocols, full view-serializability checks); profiles that break
//! no-loss or FIFO demand safety only. A final test deliberately holds the
//! naive protocol to the strict bar under FIFO scrambling and exercises
//! the shrinker on the resulting failure.

use proptest::prelude::*;

use rigorous_mdbs::dtm::CertifierMode;
use rigorous_mdbs::sim::chaos::{
    self, builtin_profiles, chaos_cfg, expectation, plan_for, run_case, sweep, Expectation,
    SWEEP_PROTOCOLS,
};
use rigorous_mdbs::sim::{Protocol, SimConfig, Simulation};
use rigorous_mdbs::simkit::FaultPlan;

const SWEEP_SEEDS: [u64; 3] = [3, 77, 2026];

#[test]
fn chaos_sweep_holds_every_expectation() {
    let runs = sweep(&SWEEP_SEEDS, &SWEEP_PROTOCOLS, &builtin_profiles());
    assert_eq!(runs.len(), 3 * 3 * 7);
    let failures: Vec<String> = runs
        .iter()
        .filter_map(|r| {
            r.failure.as_ref().map(|f| {
                format!(
                    "seed={} protocol={} profile={}: {f}",
                    r.seed,
                    r.protocol.label(),
                    r.profile
                )
            })
        })
        .collect();
    assert!(
        failures.is_empty(),
        "chaos cases violated their expectations:\n{}",
        failures.join("\n")
    );
    // The sweep must actually inject: every profile needs at least one
    // case where the transport applied a fault, or the windows never met
    // the traffic and the sweep proves nothing.
    for profile in builtin_profiles() {
        let applied: u64 = runs
            .iter()
            .filter(|r| r.profile == profile.name)
            .map(|r| r.faults_applied)
            .sum();
        let crashed = profile.crashes > 0 || profile.coord_crashes > 0;
        assert!(
            applied > 0 || crashed,
            "profile {} never applied a fault across the sweep",
            profile.name
        );
    }
}

/// A site crash makes a CGM coordinator abort and finish a transaction
/// while the scheduler's verdict on its vote is still in flight. Such a
/// late verdict was once a `RuntimeError::MissingState`, and the simulated
/// coordinator died of it; it is a control message that outlived its
/// transaction — counted, dropped. The seed is the first of 0–4 000 whose
/// run has one (29 of them do).
#[test]
fn a_cgm_verdict_that_outlives_its_transaction_is_dropped() {
    let mut cfg = chaos_cfg(202, Protocol::Cgm);
    cfg.faults = Some(plan_for(&cfg, &chaos::crash_quake()));
    let report = Simulation::new(cfg).run();
    let dropped = report.metrics.counter("ctrl_duplicates_ignored");
    assert!(dropped >= 1, "the late verdict:\n{}", report.metrics);
    assert_eq!(
        report.committed + report.aborted,
        14,
        "every global settles"
    );
    assert!(report.checks.passed(), "{:?}", report.checks);
}

#[test]
fn chaos_cases_reproduce_bit_for_bit() {
    for profile in [chaos::dup_burst(), chaos::fifo_scramble()] {
        for &protocol in &SWEEP_PROTOCOLS {
            let a = run_case(SWEEP_SEEDS[0], protocol, &profile);
            let b = run_case(SWEEP_SEEDS[0], protocol, &profile);
            assert_eq!(
                a.digest,
                b.digest,
                "same seed + same plan must give identical histories \
                 (protocol={} profile={})",
                protocol.label(),
                profile.name
            );
            assert_eq!(a.failure, b.failure);
        }
    }
}

/// Coordinator failover soak: with `F=1` Paxos Commit, crashing a
/// coordinator mid-run is an assumption-preserving fault — every case is
/// held to the strict bar (settlement + full checks), and every plan must
/// actually crash someone for the case to prove anything.
#[test]
fn coord_failover_soak_settles_under_paxos_commit() {
    let profile = chaos::coord_failover();
    for &seed in &SWEEP_SEEDS {
        let cfg = chaos::failover_cfg(seed, Protocol::TwoCm(CertifierMode::Full));
        let run = chaos::run_case_on(cfg, &profile);
        assert_eq!(run.expectation, Expectation::strict());
        assert_eq!(run.plan.coord_crashes().count(), 1, "seed={seed}");
        assert!(run.failure.is_none(), "seed={seed}: {:?}", run.failure);
    }

    // The takeover path really runs: a backup must adopt the crashed
    // coordinator's transactions, visible in the simulation's metrics.
    let mut cfg = chaos::failover_cfg(SWEEP_SEEDS[0], Protocol::TwoCm(CertifierMode::Full));
    cfg.faults = Some(plan_for(&cfg, &profile));
    let report = Simulation::new(cfg).run();
    assert_eq!(report.metrics.counter("coord_crashes"), 1);
    assert!(report.metrics.counter("coord_takeovers") >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite property: the seed and plan fully determine the run.
    #[test]
    fn same_seed_and_plan_same_digest(seed in 0u64..1000, pick in 0usize..7) {
        let profile = &builtin_profiles()[pick];
        let protocol = SWEEP_PROTOCOLS[(seed % 3) as usize];
        let a = run_case(seed, protocol, profile);
        let b = run_case(seed, protocol, profile);
        prop_assert_eq!(a.digest, b.digest);
    }

    /// Satellite property: as long as FIFO and no-loss hold, no fault
    /// profile may push a certifying protocol off the paper's criterion.
    #[test]
    fn assumption_preserving_faults_never_break_certified_runs(
        seed in 0u64..1000,
        pick in 0usize..4,
        cgm in any::<bool>(),
    ) {
        // First four built-ins keep every §2 assumption (delay, dup,
        // abort bursts, crashes).
        let profile = &builtin_profiles()[pick];
        prop_assert!(!profile.violates_no_loss() && !profile.violates_fifo());
        let protocol = if cgm {
            Protocol::Cgm
        } else {
            Protocol::TwoCm(CertifierMode::Full)
        };
        let run = run_case(seed, protocol, profile);
        prop_assert_eq!(run.expectation, Expectation::strict());
        prop_assert!(
            run.failure.is_none(),
            "seed={} protocol={} profile={}: {:?}",
            seed, protocol.label(), run.profile, run.failure
        );
    }
}

/// Deliberately broken invariant → the shrinker must emit a minimal,
/// still-failing reproducer. FIFO scrambling under the naive protocol,
/// held to the strict bar, is the ISSUE's canonical demo.
#[test]
fn shrinker_minimizes_a_fifo_violation_to_a_reproducer() {
    let naive = Protocol::TwoCm(CertifierMode::NoCertification);
    let mut failing: Option<SimConfig> = None;
    for seed in 0..32u64 {
        let mut cfg = chaos_cfg(seed, naive);
        let plan = plan_for(&cfg, &chaos::fifo_scramble());
        cfg.faults = Some(plan);
        let report = Simulation::new(cfg.clone()).run();
        if chaos::violated_invariant(&cfg, &report, Expectation::strict()).is_some() {
            failing = Some(cfg);
            break;
        }
    }
    let cfg = failing.expect("FIFO scrambling must break strict expectations on some seed");
    let original_actions = cfg.faults.as_ref().expect("plan installed").actions.len();

    let rep = chaos::shrink(&cfg, Expectation::strict());

    // Shrunk, not grown.
    let shrunk_actions = rep.cfg.faults.as_ref().expect("plan kept").actions.len();
    assert!(shrunk_actions <= original_actions);
    assert!(rep.cfg.workload.global_txns <= cfg.workload.global_txns);
    assert!(rep.runs >= 1, "the shrinker must re-run the simulation");

    // The minimal configuration still fails the same expectation,
    // deterministically.
    let report = Simulation::new(rep.cfg.clone()).run();
    let still = chaos::violated_invariant(&rep.cfg, &report, Expectation::strict());
    assert!(
        still.is_some(),
        "shrunk reproducer no longer fails: {:?}",
        rep.cfg
    );

    // The emitted snippet is a self-contained test pinning the failure.
    assert!(rep.snippet.contains("#[test]"));
    assert!(rep.snippet.contains("fn chaos_reproducer()"));
    assert!(rep.snippet.contains("SimConfig::default()"));
    assert!(rep.snippet.contains("FaultPlan"));
    assert!(rep
        .snippet
        .contains(&format!("cfg.workload.seed = {};", rep.cfg.workload.seed)));
    assert!(rep.snippet.contains("Simulation::new(cfg).run()"));
}

/// Extended chaos soak: a wider *fixed* seed grid across every profile —
/// no wall-clock-dependent sampling, so a CI failure replays locally with
/// the same command. CI runs this `--ignored` under a hard time cap.
#[test]
#[ignore = "chaos soak; run with --ignored (CI's chaos-soak job does, time-capped)"]
fn chaos_soak_extended_seed_grid() {
    const SOAK_SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
    let runs = sweep(&SOAK_SEEDS, &SWEEP_PROTOCOLS, &builtin_profiles());
    assert_eq!(runs.len(), 10 * 3 * 7);
    let failures: Vec<String> = runs
        .iter()
        .filter_map(|r| {
            r.failure.as_ref().map(|f| {
                format!(
                    "seed={} protocol={} profile={}: {f}",
                    r.seed,
                    r.protocol.label(),
                    r.profile
                )
            })
        })
        .collect();
    assert!(
        failures.is_empty(),
        "chaos soak violated expectations:\n{}",
        failures.join("\n")
    );
}

/// The expectation policy itself: strict for certifying protocols under
/// intact assumptions, safety-only once delivery breaks.
#[test]
fn expectation_policy_spot_checks() {
    let full = Protocol::TwoCm(CertifierMode::Full);
    assert_eq!(
        expectation(full, &chaos::delay_storm()),
        Expectation::strict()
    );
    assert_eq!(
        expectation(full, &chaos::partition_flap()),
        Expectation::safety_only()
    );
    // Hand-built loss-free plans keep golden digests intact elsewhere;
    // make sure an empty plan is also "no faults" to the sweep machinery.
    assert!(FaultPlan::empty().is_empty());
}
