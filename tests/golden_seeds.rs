//! Golden-seed regression harness.
//!
//! Pins a digest of the complete simulated history (plus the headline
//! counters) for a grid of seeds × protocols. Any change to RNG stream
//! consumption, event ordering, or protocol state machines shows up here
//! as a digest mismatch — the runtime-layer refactor must reproduce these
//! histories bit for bit.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! cargo test --test golden_seeds -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use rigorous_mdbs::dtm::CertifierMode;
use rigorous_mdbs::sim::chaos::{self, run_case};
use rigorous_mdbs::sim::{Protocol, SimConfig, SimReport, Simulation};
use rigorous_mdbs::simkit::SimTime;
use rigorous_mdbs::workload::AccessPattern;

const SEEDS: [u64; 3] = [42, 1337, 9001];

/// Seeds for the fault-injected golden runs (distinct from the fault-free
/// grid so a drift in one table localizes the regression).
const CHAOS_SEEDS: [u64; 2] = [7, 7702];

const PROTOCOLS: [(&str, Protocol); 3] = [
    ("2CM", Protocol::TwoCm(CertifierMode::Full)),
    ("CGM", Protocol::Cgm),
    ("Naive", Protocol::TwoCm(CertifierMode::NoCertification)),
];

/// Digests of the fault-free grid. Any change to the message flow moves
/// every row, because the simulated network draws one latency per message.
/// At 1337 and 9001 certification changes nothing — 2CM refuses no
/// PREPARE and holds no COMMIT — so the 2CM and Naive rows there are the
/// same run.
const GOLDEN: [(u64, &str, u64); 9] = [
    (42, "2CM", 0x50241d641460421e),
    (42, "CGM", 0xeb5b0240533ad9db),
    (42, "Naive", 0xe8cbc28d7d8c0690),
    (1337, "2CM", 0x309534fa74e5fbee),
    (1337, "CGM", 0x2a8156acc31f5933),
    (1337, "Naive", 0x309534fa74e5fbee),
    (9001, "2CM", 0x2f2f6cb2db621b5a),
    (9001, "CGM", 0xf7090a1de377ee4d),
    (9001, "Naive", 0x2f2f6cb2db621b5a),
];

/// Digests of chaos runs (`chaos::chaos_cfg` + the named fault profile).
/// The fault injector draws from its own RNG substreams, so these pin the
/// fault sampling and application order on top of the protocol behavior.
const CHAOS_GOLDEN: [(u64, &str, &str, u64); 12] = [
    (7, "2CM", "dup-burst", 0xdbe16283a081884c),
    (7, "2CM", "fifo-scramble", 0x4515c1cdc1cb73c8),
    (7, "CGM", "dup-burst", 0x1e11c3cc2ad07e85),
    (7, "CGM", "fifo-scramble", 0x272527e627085849),
    (7, "Naive", "dup-burst", 0x1a380b874f356fe7),
    (7, "Naive", "fifo-scramble", 0x2133d73a62794509),
    (7702, "2CM", "dup-burst", 0x2d5add3050b29caf),
    (7702, "2CM", "fifo-scramble", 0xded819154349aa3f),
    (7702, "CGM", "dup-burst", 0xb977d70155fc67d8),
    (7702, "CGM", "fifo-scramble", 0x19909309c30238ab),
    (7702, "Naive", "dup-burst", 0xf9005a07df63382d),
    (7702, "Naive", "fifo-scramble", 0xc976836c15e5aaec),
];

/// Digests of contended 2CM runs (`contended_cfg`): the only rows whose
/// histories go through local deadlock victims and wait timeouts, so they
/// pin the deadlock scan and the lock manager's waits-for graph.
const CONTENDED_GOLDEN: [(u64, u64); 3] = [
    (42, 0x09657b2e8fa0dd87),   // 5 victims, 10 timeouts
    (1337, 0x6e72426a6d787c13), // 11 victims, 12 timeouts
    (9001, 0x78f0cd91a3528148), // 3 victims, 6 timeouts
];

/// The benchmark ledger's `sim-hot` shape: 4 sites, 150 globals at `mpl`
/// 16, 2–4 commands per site on Zipf(0.9) keys over 64 items, half of them
/// writes, no LTM service time.
fn contended_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = seed;
    cfg.workload.sites = 4;
    cfg.workload.global_txns = 150;
    cfg.workload.local_txns_per_site = 0;
    cfg.workload.mpl = 16;
    cfg.workload.access = AccessPattern::Zipf(0.9);
    cfg.workload.items_per_site = 64;
    cfg.workload.commands_per_site = (2, 4);
    cfg.workload.write_fraction = 0.5;
    cfg.ltm_service_us = 0;
    cfg.time_limit = SimTime::from_secs(20);
    cfg.protocol = Protocol::TwoCm(CertifierMode::Full);
    cfg
}

fn golden_cfg(seed: u64, protocol: Protocol) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = seed;
    cfg.workload.sites = 3;
    cfg.workload.global_txns = 16;
    cfg.workload.local_txns_per_site = 6;
    cfg.workload.items_per_site = 32;
    cfg.workload.unilateral_abort_prob = 0.2;
    cfg.protocol = protocol;
    cfg
}

/// FNV-1a over the full history (op by op) and the headline counters.
fn digest(report: &SimReport) -> u64 {
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

fn run(seed: u64, protocol: Protocol) -> SimReport {
    Simulation::new(golden_cfg(seed, protocol)).run()
}

#[test]
fn golden_digests_reproduce() {
    for (seed, label, expected) in GOLDEN {
        let protocol = PROTOCOLS
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, p)| *p)
            .expect("label in table");
        let report = run(seed, protocol);
        let got = digest(&report);
        assert_eq!(
            got, expected,
            "history digest drifted for seed={seed} protocol={label}: \
             got {got:#018x}, expected {expected:#018x}"
        );
        // Every handler names the variants it rejects and counts the ones
        // it is handed; a correctly routed run hands it none.
        assert_eq!(
            report.metrics.counter("misrouted_events"),
            0,
            "seed={seed} protocol={label}"
        );
    }
}

#[test]
fn f0_direct_commit_matches_goldens() {
    // At F=0 the coordinator has no Paxos Commit leader, so the run must
    // be wire- and digest-identical to plain 2PC: no extra messages, no
    // reordering, no RNG consumption. Setting `consensus_f = 0` explicitly
    // reproduces every golden digest bit for bit.
    for (seed, label, expected) in GOLDEN {
        let protocol = PROTOCOLS
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, p)| *p)
            .expect("label in table");
        let mut cfg = golden_cfg(seed, protocol);
        cfg.consensus_f = 0;
        let got = digest(&Simulation::new(cfg).run());
        assert_eq!(
            got, expected,
            "F=0 direct commit drifted from the golden history for seed={seed} \
             protocol={label}: got {got:#018x}, expected {expected:#018x}"
        );
    }
}

#[test]
fn golden_runs_settle_all_transactions() {
    for (label, protocol) in PROTOCOLS {
        let report = run(SEEDS[0], protocol);
        assert_eq!(
            report.committed + report.aborted,
            16,
            "{label}: every global transaction must settle"
        );
    }
}

#[test]
fn contended_digests_reproduce() {
    for (seed, expected) in CONTENDED_GOLDEN {
        let report = Simulation::new(contended_cfg(seed)).run();
        let got = digest(&report);
        assert_eq!(
            got, expected,
            "contended digest drifted for seed={seed}: got {got:#018x}, expected {expected:#018x}"
        );
        // The table exists to pin the deadlock path: a row that stops
        // reaching it pins nothing.
        let victims = report.metrics.counter("deadlock_victims");
        let timeouts = report.metrics.counter("wait_timeouts");
        assert!(
            victims >= 1 && timeouts >= 1,
            "seed={seed}: {victims} deadlock victims, {timeouts} wait timeouts"
        );
    }
}

fn chaos_profile(name: &str) -> rigorous_mdbs::simkit::FaultProfile {
    match name {
        "dup-burst" => chaos::dup_burst(),
        "fifo-scramble" => chaos::fifo_scramble(),
        other => panic!("unknown chaos profile {other:?}"),
    }
}

#[test]
fn chaos_golden_digests_reproduce() {
    for (seed, label, profile, expected) in CHAOS_GOLDEN {
        let protocol = PROTOCOLS
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, p)| *p)
            .expect("label in table");
        let run = run_case(seed, protocol, &chaos_profile(profile));
        assert_eq!(
            run.digest, expected,
            "chaos digest drifted for seed={seed} protocol={label} \
             profile={profile}: got {:#018x}, expected {expected:#018x}",
            run.digest
        );
        assert!(
            run.failure.is_none(),
            "chaos golden case must hold its expectation: {:?}",
            run.failure
        );
    }
}

/// Regeneration helper — prints the table literal for `GOLDEN`.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_digests() {
    for seed in SEEDS {
        for (label, protocol) in PROTOCOLS {
            let d = digest(&run(seed, protocol));
            println!("    ({seed}, {label:?}, {d:#018x}),");
        }
    }
}

/// Regeneration helper — prints the table literal for `CONTENDED_GOLDEN`.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_contended_digests() {
    for (seed, _) in CONTENDED_GOLDEN {
        let report = Simulation::new(contended_cfg(seed)).run();
        println!(
            "    ({seed}, {:#018x}), // {} victims, {} timeouts",
            digest(&report),
            report.metrics.counter("deadlock_victims"),
            report.metrics.counter("wait_timeouts"),
        );
    }
}

/// Regeneration helper — prints the table literal for `CHAOS_GOLDEN`.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_chaos_golden_digests() {
    for seed in CHAOS_SEEDS {
        for (label, protocol) in PROTOCOLS {
            for profile in ["dup-burst", "fifo-scramble"] {
                let d = run_case(seed, protocol, &chaos_profile(profile)).digest;
                println!("    ({seed}, {label:?}, {profile:?}, {d:#018x}),");
            }
        }
    }
}
