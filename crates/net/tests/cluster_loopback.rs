//! Sim/cluster equivalence: the same seeded scenario run under the
//! deterministic simulation and under a real multi-process `mdbs-node`
//! loopback cluster must certify identically.
//!
//! The comparison is on *outcomes*, not timings: the sorted global
//! certifier verdicts + history-checker booleans (`outcome_digest`) and
//! the per-site certifier verdicts (`site_verdict_digest`). Those are
//! timing-independent in a failure-free run, so they must survive real
//! thread scheduling, real TCP, and even a mid-run connection drop.
//!
//! The sim side runs with [`Simulation::use_predrawn_workload`]: cluster
//! processes pre-draw the whole workload in canonical order (they have no
//! shared generator), so the sim must draw the same programs to be
//! comparable program-for-program.

use std::time::Duration;

use mdbs_dtm::CertifierMode;
use mdbs_histories::SiteId;
use mdbs_net::{loopback_cluster, ClusterOutcome, ClusterRunner};
use mdbs_runtime::{CENTRAL, COORD_BASE};
use mdbs_sim::report::{outcome_digest, site_verdict_digest};
use mdbs_sim::{Protocol, SimConfig, SimReport, Simulation};

const SITES: u32 = 3;
const GLOBALS: u64 = 12;
const LOCALS: u64 = 12; // 3 sites x 4

fn scenario(protocol: Protocol) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = 20260805;
    cfg.workload.sites = SITES;
    cfg.workload.global_txns = GLOBALS as u32;
    cfg.workload.local_txns_per_site = 4;
    cfg.workload.items_per_site = 32;
    cfg.workload.unilateral_abort_prob = 0.0;
    cfg.coordinators = 1;
    cfg.protocol = protocol;
    cfg
}

fn sim_reference(protocol: Protocol) -> SimReport {
    let mut sim = Simulation::new(scenario(protocol));
    sim.use_predrawn_workload();
    let report = sim.run();
    assert_eq!(
        report.committed, GLOBALS,
        "reference sim must commit everything in a failure-free run"
    );
    assert!(report.checks.passed(), "{:?}", report.checks);
    report
}

fn assert_cluster_matches_sim(cluster: &ClusterOutcome, sim: &SimReport) {
    assert_eq!(
        cluster.outcome_digest,
        outcome_digest(&sim.history, &sim.checks),
        "global certifier verdicts + checker verdicts must match the sim"
    );
    for s in 0..SITES {
        assert_eq!(
            cluster.site_verdicts.get(&s).copied(),
            Some(site_verdict_digest(&sim.history, SiteId(s))),
            "site {s} certifier verdicts must match the sim"
        );
    }
    assert_eq!(cluster.committed, GLOBALS);
    assert_eq!(cluster.aborted, 0);
    assert!(cluster.checks_passed, "cluster history must pass checkers");
    assert_eq!(
        cluster.local_committed + cluster.local_aborted,
        LOCALS,
        "every local transaction must settle"
    );
    assert_eq!(
        cluster.missing_reports,
        Vec::<u32>::new(),
        "every node must report its history slice"
    );
}

#[test]
fn loopback_cluster_matches_the_sim_and_survives_a_connection_drop() {
    let protocol = Protocol::TwoCm(CertifierMode::Full);
    let sim = sim_reference(protocol);

    let mut cfg = loopback_cluster(scenario(protocol)).expect("reserve loopback addrs");
    // Mid-run fault: site 1 severs its outbound socket once after its
    // 10th flushed frame; the writer must reconnect (with backoff) and
    // retransmit without losing or reordering anything.
    cfg.test_drop = vec![(1, 10)];
    let runner = ClusterRunner::new(env!("CARGO_BIN_EXE_mdbs-node"), cfg);
    let cluster = runner.run(Duration::from_secs(120)).expect("cluster run");

    assert_cluster_matches_sim(&cluster, &sim);
    // On a healthy link the node loop writes its own frames. A writer
    // thread wakes to connect, not to post: per connection it sends the
    // Hello and what had queued up behind the connect, nothing else.
    for (node, s) in &cluster.stats {
        assert!(
            s.frames_sent - s.frames_written_through <= 2 * s.connects + 4,
            "node {node}: the writer threads posted too much: {s:?}"
        );
    }
    let dropped = &cluster.stats[&1];
    assert!(
        dropped.test_drops >= 1,
        "the drop hook must have fired: {dropped:?}"
    );
    assert!(
        dropped.connects >= 2,
        "site 1 must have reconnected after the drop: {dropped:?}"
    );
}

/// The failover scenario: two coordinators under F=1 Paxos Commit, two
/// global transactions (gtxn 1 → coordinator 1, gtxn 2 → coordinator 0),
/// and coordinator 1 forced to crash-stop on receipt of its first READY —
/// after the participants' votes are already fanned to the acceptor
/// quorum, but before it can decide. Coordinator 0 (the driver, which
/// cannot crash) must adopt the orphan through the quorum.
///
/// `mpl = 1` and no local transactions: with two coordinators stamping
/// serial numbers from independent real clocks, *concurrent* certification
/// is timing-dependent (a §5.3 sn-order refuse the deterministic sim never
/// takes), so the scenario serializes the globals — the driver admits
/// gtxn 2 only after the failover settles gtxn 1 — leaving the verdicts
/// timing-independent while the crash window itself stays maximally racy.
fn failover_scenario() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = 20260808;
    cfg.workload.sites = 2;
    cfg.workload.global_txns = 2;
    cfg.workload.mpl = 1;
    cfg.workload.local_txns_per_site = 0;
    cfg.workload.items_per_site = 32;
    cfg.workload.unilateral_abort_prob = 0.0;
    cfg.coordinators = 2;
    cfg.consensus_f = 1;
    cfg.coord_crash_after_ready = Some((1, 1));
    cfg.protocol = Protocol::TwoCm(CertifierMode::Full);
    cfg
}

#[test]
fn loopback_coordinator_crash_fails_over_and_matches_the_sim() {
    // Reference: the deterministic simulation of the identical crash.
    let mut sim = Simulation::new(failover_scenario());
    sim.use_predrawn_workload();
    let sim = sim.run();
    assert_eq!(sim.metrics.counter("coord_crashes"), 1, "{}", sim.metrics);
    assert!(sim.metrics.counter("coord_takeovers") >= 1);
    assert_eq!(
        sim.committed, 2,
        "the crash window leaves every vote replicated at the quorum, so \
         the backup must complete both transactions; metrics:\n{}",
        sim.metrics
    );
    assert!(sim.checks.passed(), "{:?}", sim.checks);

    // The real cluster: coordinator 1 calls `process::exit(0)` mid-2PC;
    // the driver's stall detector promotes coordinator 0, which reads the
    // acceptor quorum and finishes the orphan. Outcome and per-site
    // verdicts must match the sim exactly.
    let cfg = loopback_cluster(failover_scenario()).expect("reserve loopback addrs");
    let runner = ClusterRunner::new(env!("CARGO_BIN_EXE_mdbs-node"), cfg);
    let cluster = runner.run(Duration::from_secs(120)).expect("cluster run");

    assert_eq!(cluster.committed, 2);
    assert_eq!(cluster.aborted, 0);
    assert!(cluster.checks_passed, "cluster history must pass checkers");
    assert_eq!(
        cluster.outcome_digest,
        outcome_digest(&sim.history, &sim.checks),
        "post-failover verdicts must match the sim"
    );
    for s in 0..2 {
        assert_eq!(
            cluster.site_verdicts.get(&s).copied(),
            Some(site_verdict_digest(&sim.history, SiteId(s))),
            "site {s} certifier verdicts must match the sim"
        );
    }
    assert_eq!(
        cluster.missing_reports,
        Vec::<u32>::new(),
        "every live node must report; the crashed coordinator is exempt"
    );
}

/// Admission must route around the crash-stopped coordinator, as the sim
/// and threaded drivers do. Four serialized globals: gtxn 1 dies with
/// coordinator 1 and is adopted, gtxn 2 and 4 are coordinator 0's anyway,
/// and gtxn 3's home is the dead process — before the drivers shared one
/// admission window the TCP driver sent it there and it never settled.
#[test]
fn loopback_admission_reroutes_around_the_crashed_coordinator() {
    let mut scenario = failover_scenario();
    scenario.workload.global_txns = 4;

    let mut sim = Simulation::new(scenario.clone());
    sim.use_predrawn_workload();
    let sim = sim.run();
    assert_eq!(sim.metrics.counter("coord_crashes"), 1, "{}", sim.metrics);
    assert_eq!(sim.committed, 4, "metrics:\n{}", sim.metrics);
    assert!(sim.checks.passed(), "{:?}", sim.checks);

    let cfg = loopback_cluster(scenario).expect("reserve loopback addrs");
    let runner = ClusterRunner::new(env!("CARGO_BIN_EXE_mdbs-node"), cfg);
    let cluster = runner.run(Duration::from_secs(120)).expect("cluster run");

    assert_eq!(cluster.committed, 4, "every global must settle");
    assert_eq!(cluster.aborted, 0);
    assert!(cluster.checks_passed, "cluster history must pass checkers");
    assert_eq!(
        cluster.outcome_digest,
        outcome_digest(&sim.history, &sim.checks),
        "post-failover verdicts must match the sim"
    );
    for s in 0..2 {
        assert_eq!(
            cluster.site_verdicts.get(&s).copied(),
            Some(site_verdict_digest(&sim.history, SiteId(s))),
            "site {s} certifier verdicts must match the sim"
        );
    }
    assert_eq!(cluster.missing_reports, Vec::<u32>::new());
}

#[test]
fn loopback_cgm_cluster_with_central_scheduler_matches_the_sim() {
    let sim = sim_reference(Protocol::Cgm);

    let cfg = loopback_cluster(scenario(Protocol::Cgm)).expect("reserve loopback addrs");
    let runner = ClusterRunner::new(env!("CARGO_BIN_EXE_mdbs-node"), cfg);
    let cluster = runner.run(Duration::from_secs(120)).expect("cluster run");

    assert_cluster_matches_sim(&cluster, &sim);
}

/// The control plane rides the same at-least-once transport as 2PC: the
/// scheduler and coordinator 0 each sever an outbound link once, in the
/// middle of the admission / vote handshake, and the run must still settle
/// every transaction with the sim's verdicts.
#[test]
fn loopback_cgm_control_plane_survives_connection_drops() {
    let sim = sim_reference(Protocol::Cgm);

    let mut cfg = loopback_cluster(scenario(Protocol::Cgm)).expect("reserve loopback addrs");
    cfg.test_drop = vec![(CENTRAL, 5), (COORD_BASE, 10)];
    let runner = ClusterRunner::new(env!("CARGO_BIN_EXE_mdbs-node"), cfg);
    let cluster = runner.run(Duration::from_secs(120)).expect("cluster run");

    assert_cluster_matches_sim(&cluster, &sim);
    for node in [CENTRAL, COORD_BASE] {
        let dropped = &cluster.stats[&node];
        assert!(
            dropped.test_drops >= 1,
            "the drop hook must have fired at {node}: {dropped:?}"
        );
    }
}
