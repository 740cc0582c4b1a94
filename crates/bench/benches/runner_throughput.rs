//! Sim-vs-threaded runner throughput at 1/2/4/8 sites.
//!
//! Runs the same failure-free, local-heavy workload through both drivers —
//! the single-threaded discrete-event [`Simulation`] and the one-thread-
//! per-node [`ThreadedRunner`] — and reports settled transactions per
//! wall-clock second, plus the threaded/sim speedup, into
//! `BENCH_runtime.json` at the repository root.
//!
//! The workload is dominated by purely local transactions, which a site
//! thread executes without leaving its core: that is the embarrassingly
//! parallel fraction, so on a multicore host the threaded runner should
//! exceed 1× speedup from about 4 sites up. The JSON records the host's
//! core count — on a single-core container the threaded runner only pays
//! its channel and context-switch overhead and the speedup stays below 1 —
//! and the commit it was measured at.
//!
//! Per-site work is constant here, so the sim's settled txn/s should be
//! about flat in the site count. The run fails if the 8-site figure falls
//! below half the 1-site one: that is what a super-linear step in history
//! collection or the post-hoc checker looks like (0.18 before the checker
//! was made near-linear), and a same-run ratio needs no host calibration.

use std::time::Instant;

use mdbs_sim::{SimConfig, SimReport, Simulation, ThreadedRunner};

#[path = "common/stamp.rs"]
mod stamp;

struct Sample {
    sites: u32,
    sim_txn_per_s: f64,
    threaded_txn_per_s: f64,
}

fn workload(sites: u32) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = 7;
    cfg.workload.sites = sites;
    // Scale total work with the site count so parallelism has something
    // to chew on; keep it failure-free (throughput, not recovery).
    cfg.workload.global_txns = 4 * sites;
    cfg.workload.local_txns_per_site = 150;
    cfg.workload.items_per_site = 64;
    cfg.workload.unilateral_abort_prob = 0.0;
    // Zero service delay: measure driver overhead, not sleeping.
    cfg.ltm_service_us = 0;
    cfg
}

fn settled(report: &SimReport) -> u64 {
    report.committed + report.aborted + report.local_committed + report.local_aborted
}

/// Best-of-k wall-clock throughput (settled transactions per second).
fn measure<F: Fn() -> SimReport>(k: u32, run: F) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..k {
        let start = Instant::now();
        let report = run();
        let secs = start.elapsed().as_secs_f64();
        let tput = settled(&report) as f64 / secs.max(1e-9);
        best = best.max(tput);
    }
    best
}

fn main() {
    let cores = stamp::host_cores();
    let mut samples = Vec::new();
    for sites in [1u32, 2, 4, 8] {
        // A sim run is 1–10 ms here: ten tries keep a host hiccup out of
        // either end of the ratio asserted below.
        let sim = measure(10, || Simulation::new(workload(sites)).run());
        let threaded = measure(3, || ThreadedRunner::new(workload(sites)).run());
        println!(
            "sites={sites}: sim {sim:.0} txn/s, threaded {threaded:.0} txn/s, \
             speedup {:.2}x",
            threaded / sim
        );
        samples.push(Sample {
            sites,
            sim_txn_per_s: sim,
            threaded_txn_per_s: threaded,
        });
    }

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"sites\": {}, \"sim_txn_per_s\": {:.1}, \
                 \"threaded_txn_per_s\": {:.1}, \"speedup\": {:.3}}}",
                s.sites,
                s.sim_txn_per_s,
                s.threaded_txn_per_s,
                s.threaded_txn_per_s / s.sim_txn_per_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"runner_throughput\",\n  \"host_cores\": {cores},\n  \
         \"commit\": \"{}\",\n  \
         \"workload\": \"failure-free, 150 locals/site + 4 globals/site, ltm_service_us=0\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        stamp::commit(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    std::fs::write(path, &json).expect("write BENCH_runtime.json");
    println!("wrote {path}");

    let (one, eight) = (&samples[0], &samples[samples.len() - 1]);
    let ratio = eight.sim_txn_per_s / one.sim_txn_per_s;
    assert!(
        ratio >= 0.5,
        "sim throughput decays with the site count: {:.0} txn/s at {} sites is {ratio:.2} of \
         {:.0} txn/s at {} — something per run is super-linear again",
        eight.sim_txn_per_s,
        eight.sites,
        one.sim_txn_per_s,
        one.sites
    );
}
