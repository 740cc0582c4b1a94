//! The chaos test harness: seeded fault sweeps and failure minimization.
//!
//! Every case is a triple (seed, protocol, fault profile). The harness
//! samples a [`FaultPlan`] from the profile under the seed, runs the
//! deterministic simulation with the plan installed, and holds the result
//! to an [`Expectation`] derived from which of the paper's §2 network
//! assumptions the profile deliberately violates:
//!
//! * assumptions intact (delay spikes, duplicates, abort bursts, crashes)
//!   → every transaction must settle, and 2CM / CGM histories must pass
//!   the full correctness stack (rigor, `CG(C(H))` acyclicity, no global
//!   view distortion, exact view serializability where computed);
//! * no-loss broken (drops, partitions) or FIFO broken (reorder windows)
//!   → only safety is required: site projections stay rigorous, and
//!   whatever committed must not be distorted — progress cannot be
//!   guaranteed without the retransmission machinery the paper assumes
//!   away.
//!
//! Because the simulation is a pure function of its config, a failing case
//! is perfectly reproducible, which makes delta-debugging practical:
//! [`shrink`] bisects the fault plan down to the actions that matter, then
//! halves the workload, and emits a self-contained `#[test]` snippet
//! pinning the minimal reproducer.

use mdbs_dtm::CertifierMode;
use mdbs_simkit::{FaultAction, FaultPlan, FaultProfile, SimTime};

use crate::config::{Protocol, SimConfig};
use crate::report::SimReport;
use crate::sim::{Simulation, COORD_BASE};

/// The three protocol modes the chaos sweep exercises by default.
pub const SWEEP_PROTOCOLS: [Protocol; 3] = [
    Protocol::TwoCm(CertifierMode::Full),
    Protocol::Cgm,
    Protocol::TwoCm(CertifierMode::NoCertification),
];

// ----------------------------------------------------------------------
// Built-in fault profiles
// ----------------------------------------------------------------------

/// Latency spikes only: every §2 assumption holds, timing is stressed.
pub fn delay_storm() -> FaultProfile {
    FaultProfile {
        name: "delay-storm".to_string(),
        horizon_us: 80_000,
        window_us: (10_000, 40_000),
        delay_spikes: 6,
        spike_extra_us: (2_000, 15_000),
        ..FaultProfile::default()
    }
}

/// Message duplication: exactly-once broken, order and delivery intact.
pub fn dup_burst() -> FaultProfile {
    FaultProfile {
        name: "dup-burst".to_string(),
        horizon_us: 80_000,
        window_us: (10_000, 40_000),
        duplicates: 6,
        dup_gap_us: 3_000,
        ..FaultProfile::default()
    }
}

/// Unilateral-abort bursts: stresses §4.4 resubmission of prepared
/// incarnations without touching the network assumptions.
pub fn abort_storm() -> FaultProfile {
    FaultProfile {
        name: "abort-storm".to_string(),
        horizon_us: 80_000,
        window_us: (20_000, 60_000),
        abort_bursts: 3,
        burst_boost: 0.8,
        ..FaultProfile::default()
    }
}

/// Transient partitions: messages crossing the cut are lost (§2 no-loss
/// broken), so only safety is expected.
pub fn partition_flap() -> FaultProfile {
    FaultProfile {
        name: "partition-flap".to_string(),
        horizon_us: 80_000,
        window_us: (5_000, 20_000),
        partitions: 3,
        ..FaultProfile::default()
    }
}

/// Reorder windows: per-link FIFO (§2) broken — same-link overtaking, the
/// generalization of the cross-link §5.3 race.
pub fn fifo_scramble() -> FaultProfile {
    FaultProfile {
        name: "fifo-scramble".to_string(),
        horizon_us: 80_000,
        window_us: (10_000, 40_000),
        reorders: 4,
        reorder_jitter_us: 8_000,
        ..FaultProfile::default()
    }
}

/// Site crashes (collective abort + log recovery). Simulation-only: the
/// threaded runner ignores crash points.
pub fn crash_quake() -> FaultProfile {
    FaultProfile {
        name: "crash-quake".to_string(),
        horizon_us: 80_000,
        window_us: (10_000, 40_000),
        crashes: 2,
        crash_at_us: (5_000, 50_000),
        ..FaultProfile::default()
    }
}

/// Coordinator crashes mid-2PC: violates the implicit §2 assumption that
/// the decision-maker survives until its decision is delivered. At `F=0`
/// the in-flight transactions block (safety only); with `consensus.f > 0`
/// Paxos Commit failover restores settlement.
pub fn coord_failover() -> FaultProfile {
    FaultProfile {
        name: "coord-failover".to_string(),
        horizon_us: 80_000,
        window_us: (10_000, 40_000),
        coord_crashes: 1,
        crash_at_us: (10_000, 60_000),
        ..FaultProfile::default()
    }
}

/// All built-in profiles, assumption-preserving first.
pub fn builtin_profiles() -> Vec<FaultProfile> {
    vec![
        delay_storm(),
        dup_burst(),
        abort_storm(),
        crash_quake(),
        partition_flap(),
        fifo_scramble(),
        coord_failover(),
    ]
}

/// Look up a built-in profile by its display name (the config loader's
/// `faults.profile` key resolves through this).
pub fn profile_by_name(name: &str) -> Option<FaultProfile> {
    builtin_profiles().into_iter().find(|p| p.name == name)
}

// ----------------------------------------------------------------------
// Expectations
// ----------------------------------------------------------------------

/// What a run is held to, derived from protocol × profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Every global and local transaction must settle before the time
    /// limit. Requires reliable in-order delivery: with loss or reorder
    /// and no retransmission machinery, a conversation can stall forever.
    pub settlement: bool,
    /// The full correctness stack ([`crate::CorrectnessReport::passed`])
    /// must hold. Only promised by certifying protocols (2CM, CGM) when
    /// the §2 delivery assumptions are intact.
    pub full_checks: bool,
}

impl Expectation {
    /// Safety only: rigor of site projections, nothing else.
    pub fn safety_only() -> Expectation {
        Expectation {
            settlement: false,
            full_checks: false,
        }
    }

    /// Everything: settlement plus the full correctness stack.
    pub fn strict() -> Expectation {
        Expectation {
            settlement: true,
            full_checks: true,
        }
    }
}

/// The expectation policy for a protocol under a profile, at `F=0` (no
/// Paxos Commit). See [`expectation_at`].
pub fn expectation(protocol: Protocol, profile: &FaultProfile) -> Expectation {
    expectation_at(protocol, profile, 0)
}

/// The expectation policy for a protocol under a profile with Paxos Commit
/// fault tolerance `consensus_f`. Coordinator crashes violate the implicit
/// §2 assumption that the decision-maker lives to deliver its decision:
/// at `F=0` blocked transactions are expected (safety only), while
/// `F > 0` restores the strict bar — failover must finish every in-flight
/// transaction the crashed coordinator left behind.
pub fn expectation_at(protocol: Protocol, profile: &FaultProfile, consensus_f: u32) -> Expectation {
    let delivery_holds = !profile.violates_no_loss() && !profile.violates_fifo();
    let decisions_survive = !profile.violates_coord_liveness() || consensus_f > 0;
    Expectation {
        settlement: delivery_holds && decisions_survive,
        full_checks: delivery_holds
            && decisions_survive
            && matches!(
                protocol,
                Protocol::TwoCm(CertifierMode::Full) | Protocol::Cgm
            ),
    }
}

/// The first invariant `report` violates under `exp`, if any. Two are
/// checked unconditionally: rigor of the site projections — strict 2PL at
/// the LDBSs must survive any wire-level fault — and routing: faults drop,
/// repeat and reorder messages, they never re-address one, so no node may
/// have been handed an event of a kind it rejects.
pub fn violated_invariant(cfg: &SimConfig, report: &SimReport, exp: Expectation) -> Option<String> {
    if let Some(v) = &report.checks.rigor_violation {
        return Some(format!("site projection not rigorous: {v:?}"));
    }
    let misrouted = report.metrics.counter("misrouted_events");
    if misrouted != 0 {
        return Some(format!(
            "{misrouted} events reached a node that rejects them"
        ));
    }
    if exp.settlement {
        let globals = cfg.workload.global_txns as u64;
        let locals = (cfg.workload.sites * cfg.workload.local_txns_per_site) as u64;
        let settled = report.committed + report.aborted;
        if settled != globals {
            return Some(format!(
                "settlement: only {settled}/{globals} global transactions finished"
            ));
        }
        let local_settled = report.local_committed + report.local_aborted;
        if local_settled != locals {
            return Some(format!(
                "settlement: only {local_settled}/{locals} local transactions finished"
            ));
        }
    }
    if exp.full_checks && !report.checks.passed() {
        return Some(format!("correctness checks failed: {:?}", report.checks));
    }
    None
}

// ----------------------------------------------------------------------
// Sweep
// ----------------------------------------------------------------------

/// The base chaos workload: small enough that a full sweep stays fast,
/// contended enough that faults actually interleave with 2PC rounds.
/// Expressed in the shared `key = value` scenario format so the harness
/// exercises the same loader `mdbs-node` boots from.
pub fn chaos_cfg(seed: u64, protocol: Protocol) -> SimConfig {
    // time_limit bounds stalled runs (e.g. a BEGIN overtaken by its first
    // DML under a reorder window parks the conversation forever).
    let text = format!(
        "seed = {seed}\n\
         sites = 3\n\
         global_txns = 14\n\
         local_txns_per_site = 4\n\
         items_per_site = 24\n\
         unilateral_abort_prob = 0.15\n\
         protocol = {}\n\
         time_limit_us = {}\n",
        protocol.key(),
        SimTime::from_secs(30).as_micros(),
    );
    SimConfig::from_kv_text(&text).expect("built-in chaos scenario is well-formed")
}

/// The failover chaos workload: [`chaos_cfg`] with Paxos Commit enabled
/// (`consensus.f = 1`, so three acceptors and a backup coordinator) —
/// the scenario [`coord_failover`] drills are held to the strict bar on.
pub fn failover_cfg(seed: u64, protocol: Protocol) -> SimConfig {
    let mut cfg = chaos_cfg(seed, protocol);
    cfg.consensus_f = 1;
    cfg
}

/// Sample `profile` into a plan for `cfg`'s topology, keyed by its seed.
pub fn plan_for(cfg: &SimConfig, profile: &FaultProfile) -> FaultPlan {
    let sites: Vec<u32> = (0..cfg.workload.sites).collect();
    let mut nodes = sites.clone();
    nodes.extend((0..cfg.coordinators).map(|c| COORD_BASE + c));
    FaultPlan::sample(profile, cfg.workload.seed, &nodes, &sites)
}

/// The outcome of one chaos case.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The workload / plan seed.
    pub seed: u64,
    /// The protocol under test.
    pub protocol: Protocol,
    /// The fault profile's display name.
    pub profile: String,
    /// The sampled plan the run executed under.
    pub plan: FaultPlan,
    /// What the run was held to.
    pub expectation: Expectation,
    /// FNV-1a digest of the history and headline counters — identical
    /// across repeat runs of the same case (determinism witness).
    pub digest: u64,
    /// Total faults the transport applied (all kinds).
    pub faults_applied: u64,
    /// The first violated invariant, if the case failed.
    pub failure: Option<String>,
}

/// Run one chaos case on the base workload ([`chaos_cfg`], `F=0`).
pub fn run_case(seed: u64, protocol: Protocol, profile: &FaultProfile) -> ChaosRun {
    run_case_on(chaos_cfg(seed, protocol), profile)
}

/// Run one chaos case on an explicit scenario (e.g. [`failover_cfg`] for
/// Paxos Commit drills). The expectation derives from the scenario's own
/// `consensus.f`.
pub fn run_case_on(mut cfg: SimConfig, profile: &FaultProfile) -> ChaosRun {
    let plan = plan_for(&cfg, profile);
    cfg.faults = Some(plan.clone());
    let exp = expectation_at(cfg.protocol, profile, cfg.consensus_f);
    let report = Simulation::new(cfg.clone()).run();
    let faults_applied = [
        "faults_dropped",
        "faults_duplicated",
        "faults_delayed",
        "faults_reordered",
        "fault_abort_bursts",
    ]
    .iter()
    .map(|k| report.metrics.counter(k))
    .sum();
    ChaosRun {
        seed: cfg.workload.seed,
        protocol: cfg.protocol,
        profile: profile.name.clone(),
        plan,
        expectation: exp,
        digest: history_digest(&report),
        faults_applied,
        failure: violated_invariant(&cfg, &report, exp),
    }
}

/// Sweep the full grid seeds × protocols × profiles.
pub fn sweep(seeds: &[u64], protocols: &[Protocol], profiles: &[FaultProfile]) -> Vec<ChaosRun> {
    let mut out = Vec::with_capacity(seeds.len() * protocols.len() * profiles.len());
    for &seed in seeds {
        for &protocol in protocols {
            for profile in profiles {
                out.push(run_case(seed, protocol, profile));
            }
        }
    }
    out
}

/// FNV-1a over the full history (op by op) and the headline counters —
/// the same digest scheme `tests/golden_seeds.rs` pins.
pub fn history_digest(report: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for op in report.history.ops() {
        eat(format!("{op:?}").as_bytes());
    }
    eat(format!(
        "committed={} aborted={} local_committed={} local_aborted={} messages={} finished_at={:?}",
        report.committed,
        report.aborted,
        report.local_committed,
        report.local_aborted,
        report.messages,
        report.finished_at,
    )
    .as_bytes());
    h
}

// ----------------------------------------------------------------------
// Shrinking
// ----------------------------------------------------------------------

/// A minimized failing configuration plus a pinned reproducer snippet.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The minimal configuration that still fails.
    pub cfg: SimConfig,
    /// The invariant the minimal configuration violates.
    pub failure: String,
    /// How many simulation runs the shrink consumed.
    pub runs: u32,
    /// A self-contained `#[test]` reproducing the failure.
    pub snippet: String,
}

fn failure_of(cfg: &SimConfig, exp: Expectation, runs: &mut u32) -> Option<String> {
    *runs += 1;
    let report = Simulation::new(cfg.clone()).run();
    violated_invariant(cfg, &report, exp)
}

/// Shrink a failing configuration to a minimal reproducer: first bisect
/// the fault plan (drop ever-smaller chunks of actions, keeping any cut
/// that still fails), then halve the workload counts. Panics if `cfg`
/// does not actually fail `exp` — shrinking needs a failure to preserve.
pub fn shrink(cfg: &SimConfig, exp: Expectation) -> Reproducer {
    let mut runs = 0u32;
    let mut best = cfg.clone();
    let mut failure = failure_of(&best, exp, &mut runs)
        .expect("shrink() requires a configuration that fails its expectation");

    // Phase 1: delta-debug the fault plan.
    let mut actions = best.faults.clone().unwrap_or_default().actions;
    let mut chunk = actions.len().div_ceil(2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < actions.len() {
            let hi = (i + chunk).min(actions.len());
            let mut candidate = actions[..i].to_vec();
            candidate.extend_from_slice(&actions[hi..]);
            let mut c = best.clone();
            c.faults = Some(FaultPlan {
                actions: candidate.clone(),
            });
            if let Some(f) = failure_of(&c, exp, &mut runs) {
                actions = candidate;
                best = c;
                failure = f;
                reduced = true;
                // The next chunk slid into position i — retry there.
            } else {
                i = hi;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !reduced {
            break;
        }
    }

    // Phase 2: halve the workload while the failure persists.
    loop {
        let mut reduced = false;
        if best.workload.global_txns > 1 {
            let mut c = best.clone();
            c.workload.global_txns /= 2;
            if let Some(f) = failure_of(&c, exp, &mut runs) {
                best = c;
                failure = f;
                reduced = true;
            }
        }
        if best.workload.local_txns_per_site > 0 {
            let mut c = best.clone();
            c.workload.local_txns_per_site /= 2;
            if let Some(f) = failure_of(&c, exp, &mut runs) {
                best = c;
                failure = f;
                reduced = true;
            }
        }
        if !reduced {
            break;
        }
    }

    let snippet = reproducer_snippet(&best, exp, &failure);
    Reproducer {
        cfg: best,
        failure,
        runs,
        snippet,
    }
}

// ----------------------------------------------------------------------
// Reproducer codegen
// ----------------------------------------------------------------------

fn protocol_expr(p: Protocol) -> &'static str {
    match p {
        Protocol::TwoCm(CertifierMode::Full) => "Protocol::TwoCm(CertifierMode::Full)",
        Protocol::TwoCm(CertifierMode::NoCertification) => {
            "Protocol::TwoCm(CertifierMode::NoCertification)"
        }
        Protocol::TwoCm(CertifierMode::PrepareCertOnly) => {
            "Protocol::TwoCm(CertifierMode::PrepareCertOnly)"
        }
        Protocol::TwoCm(CertifierMode::PrepareOrder) => {
            "Protocol::TwoCm(CertifierMode::PrepareOrder)"
        }
        Protocol::TwoCm(CertifierMode::TicketOrder) => {
            "Protocol::TwoCm(CertifierMode::TicketOrder)"
        }
        Protocol::Cgm => "Protocol::Cgm",
    }
}

fn opt_expr(v: Option<u32>) -> String {
    match v {
        Some(x) => format!("Some({x})"),
        None => "None".to_string(),
    }
}

fn action_expr(a: &FaultAction) -> String {
    match a {
        FaultAction::DelaySpike {
            src,
            dst,
            from_us,
            until_us,
            extra_us,
        } => format!(
            "FaultAction::DelaySpike {{ src: {}, dst: {}, from_us: {from_us}, \
             until_us: {until_us}, extra_us: {extra_us} }}",
            opt_expr(*src),
            opt_expr(*dst),
        ),
        FaultAction::Duplicate {
            src,
            dst,
            from_us,
            until_us,
            gap_us,
        } => format!(
            "FaultAction::Duplicate {{ src: {}, dst: {}, from_us: {from_us}, \
             until_us: {until_us}, gap_us: {gap_us} }}",
            opt_expr(*src),
            opt_expr(*dst),
        ),
        FaultAction::Reorder {
            src,
            dst,
            from_us,
            until_us,
            jitter_us,
        } => format!(
            "FaultAction::Reorder {{ src: {}, dst: {}, from_us: {from_us}, \
             until_us: {until_us}, jitter_us: {jitter_us} }}",
            opt_expr(*src),
            opt_expr(*dst),
        ),
        FaultAction::Drop {
            src,
            dst,
            from_us,
            until_us,
        } => format!(
            "FaultAction::Drop {{ src: {}, dst: {}, from_us: {from_us}, \
             until_us: {until_us} }}",
            opt_expr(*src),
            opt_expr(*dst),
        ),
        FaultAction::Partition {
            group,
            from_us,
            until_us,
        } => format!(
            "FaultAction::Partition {{ group: vec!{group:?}, from_us: {from_us}, \
             until_us: {until_us} }}"
        ),
        FaultAction::SiteCrash { site, at_us } => {
            format!("FaultAction::SiteCrash {{ site: {site}, at_us: {at_us} }}")
        }
        FaultAction::CoordCrash { coord, at_us } => {
            format!("FaultAction::CoordCrash {{ coord: {coord}, at_us: {at_us} }}")
        }
        FaultAction::AbortBurst {
            from_us,
            until_us,
            boost,
        } => format!(
            "FaultAction::AbortBurst {{ from_us: {from_us}, until_us: {until_us}, \
             boost: {boost:?} }}"
        ),
    }
}

/// Render a failing configuration as a self-contained `#[test]` that pins
/// the violated expectation. The snippet is plain code — no serialization
/// machinery — so it can be pasted into `tests/` verbatim.
pub fn reproducer_snippet(cfg: &SimConfig, exp: Expectation, failure: &str) -> String {
    let w = &cfg.workload;
    let mut s = String::new();
    s.push_str("#[test]\nfn chaos_reproducer() {\n");
    s.push_str(&format!(
        "    // Auto-shrunk chaos reproducer. Failing invariant:\n    // {}\n",
        failure.replace('\n', " ")
    ));
    if matches!(cfg.protocol, Protocol::TwoCm(_)) {
        s.push_str("    use rigorous_mdbs::dtm::CertifierMode;\n");
    }
    s.push_str("    use rigorous_mdbs::sim::{Protocol, SimConfig, Simulation};\n");
    s.push_str("    use rigorous_mdbs::simkit::{FaultAction, FaultPlan, SimTime};\n\n");
    s.push_str("    let mut cfg = SimConfig::default();\n");
    s.push_str(&format!("    cfg.workload.seed = {};\n", w.seed));
    s.push_str(&format!("    cfg.workload.sites = {};\n", w.sites));
    s.push_str(&format!(
        "    cfg.workload.items_per_site = {};\n",
        w.items_per_site
    ));
    s.push_str(&format!(
        "    cfg.workload.global_txns = {};\n",
        w.global_txns
    ));
    s.push_str(&format!("    cfg.workload.mpl = {};\n", w.mpl));
    s.push_str(&format!(
        "    cfg.workload.local_txns_per_site = {};\n",
        w.local_txns_per_site
    ));
    s.push_str(&format!(
        "    cfg.workload.sites_per_txn = {:?};\n",
        w.sites_per_txn
    ));
    s.push_str(&format!(
        "    cfg.workload.commands_per_site = {:?};\n",
        w.commands_per_site
    ));
    s.push_str(&format!(
        "    cfg.workload.write_fraction = {:?};\n",
        w.write_fraction
    ));
    s.push_str(&format!(
        "    cfg.workload.unilateral_abort_prob = {:?};\n",
        w.unilateral_abort_prob
    ));
    s.push_str(&format!(
        "    cfg.protocol = {};\n",
        protocol_expr(cfg.protocol)
    ));
    s.push_str(&format!("    cfg.coordinators = {};\n", cfg.coordinators));
    s.push_str(&format!(
        "    cfg.time_limit = SimTime::from_micros({});\n",
        cfg.time_limit.as_micros()
    ));
    let actions = cfg
        .faults
        .as_ref()
        .map(|p| p.actions.as_slice())
        .unwrap_or(&[]);
    s.push_str("    cfg.faults = Some(FaultPlan { actions: vec![\n");
    for a in actions {
        s.push_str(&format!("        {},\n", action_expr(a)));
    }
    s.push_str("    ] });\n\n");
    s.push_str("    let report = Simulation::new(cfg).run();\n");
    s.push_str("    assert!(report.checks.rigor_violation.is_none(), \"{:?}\", report.checks);\n");
    if exp.settlement {
        s.push_str(&format!(
            "    assert_eq!(report.committed + report.aborted, {}, \
             \"all globals must settle\");\n",
            w.global_txns
        ));
        s.push_str(&format!(
            "    assert_eq!(report.local_committed + report.local_aborted, {}, \
             \"all locals must settle\");\n",
            w.sites * w.local_txns_per_site
        ));
    }
    if exp.full_checks {
        s.push_str("    assert!(report.checks.passed(), \"{:?}\", report.checks);\n");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_policy_tracks_violated_assumptions() {
        let full = Protocol::TwoCm(CertifierMode::Full);
        let naive = Protocol::TwoCm(CertifierMode::NoCertification);
        assert_eq!(expectation(full, &dup_burst()), Expectation::strict());
        assert_eq!(
            expectation(Protocol::Cgm, &delay_storm()),
            Expectation::strict()
        );
        // Naive settles but is never held to the full stack.
        assert_eq!(
            expectation(naive, &abort_storm()),
            Expectation {
                settlement: true,
                full_checks: false
            }
        );
        // Broken delivery assumptions demand safety only.
        assert_eq!(
            expectation(full, &partition_flap()),
            Expectation::safety_only()
        );
        assert_eq!(
            expectation(full, &fifo_scramble()),
            Expectation::safety_only()
        );
    }

    #[test]
    fn coord_crash_expectation_tracks_fault_tolerance() {
        let full = Protocol::TwoCm(CertifierMode::Full);
        // At F=0 a crashed coordinator blocks its transactions forever:
        // safety only. With failover the strict bar comes back.
        assert_eq!(
            expectation(full, &coord_failover()),
            Expectation::safety_only()
        );
        assert_eq!(
            expectation_at(full, &coord_failover(), 1),
            Expectation::strict()
        );
        // Fault tolerance does not excuse broken delivery assumptions.
        assert_eq!(
            expectation_at(full, &partition_flap(), 1),
            Expectation::safety_only()
        );
        assert!(profile_by_name("coord-failover").is_some());
    }

    #[test]
    fn failover_cfg_enables_paxos_commit() {
        let cfg = failover_cfg(3, Protocol::TwoCm(CertifierMode::Full));
        assert_eq!(cfg.consensus_f, 1);
        assert!(cfg.coordinators >= 2, "a backup must exist");
    }

    #[test]
    fn sampled_plans_are_seed_deterministic() {
        let cfg = chaos_cfg(7, Protocol::TwoCm(CertifierMode::Full));
        let a = plan_for(&cfg, &delay_storm());
        let b = plan_for(&cfg, &delay_storm());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let mut other = cfg.clone();
        other.workload.seed = 8;
        assert_ne!(a, plan_for(&other, &delay_storm()));
    }

    #[test]
    fn run_case_is_reproducible() {
        let p = Protocol::TwoCm(CertifierMode::Full);
        let a = run_case(3, p, &dup_burst());
        let b = run_case(3, p, &dup_burst());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.failure, b.failure);
    }

    #[test]
    fn reproducer_snippet_embeds_plan_and_asserts() {
        let mut cfg = chaos_cfg(5, Protocol::TwoCm(CertifierMode::NoCertification));
        cfg.faults = Some(FaultPlan {
            actions: vec![
                FaultAction::Partition {
                    group: vec![0, 2],
                    from_us: 10,
                    until_us: 20,
                },
                FaultAction::AbortBurst {
                    from_us: 0,
                    until_us: 100,
                    boost: 0.5,
                },
            ],
        });
        let s = reproducer_snippet(&cfg, Expectation::strict(), "example failure");
        assert!(s.contains("fn chaos_reproducer()"));
        assert!(s.contains("group: vec![0, 2]"));
        assert!(s.contains("boost: 0.5"));
        assert!(s.contains("CertifierMode::NoCertification"));
        assert!(s.contains("report.checks.passed()"));
        assert!(s.contains("all globals must settle"));
    }
}
