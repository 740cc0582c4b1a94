//! Certifier admission throughput at large prepared-table sizes.
//!
//! Stages a real [`Agent`] with N prepared subtransactions (keys drawn
//! from a Zipf-skewed distribution), then measures admissions per
//! wall-clock second: each admission runs a full Begin → DML → LTM-done →
//! PREPARE → ROLLBACK cycle through `Agent::handle`, so the number includes
//! the whole message path, not just the certifier's lookup.
//!
//! The `linear` baseline is §4.2 read literally, measured in the same run
//! on the same staged table: an eager O(N) interval refresh followed by
//! the O(N) disjointness scan per admission (the [`LinearReference`]
//! oracle the differential proptests hold the certifier to, shared from
//! `crates/core/tests/oracle/`). It pays *none* of the agent's
//! message-dispatch or logging overhead, so the reported speedup
//! understates the certifier's advantage.
//!
//! Writes `BENCH_certifier.json` at the repository root, stamped with the
//! host's core count and the commit. Sizes are env-overridable for the CI
//! smoke run: `CERT_BENCH_PREPARED` (comma list of table sizes) and
//! `CERT_BENCH_ADMISSIONS` (cycles per sample).

use std::time::Instant;

use mdbs_dtm::{Agent, AgentConfig, AgentInput, Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, SiteId};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use mdbs_simkit::DetRng;
use mdbs_workload::Zipf;

#[path = "../../core/tests/oracle/linear_reference.rs"]
mod linear_reference;
#[path = "common/stamp.rs"]
mod stamp;
use linear_reference::{LinearEntry, LinearReference};

/// Zipf skew of the staged keys (θ = 0.8, the classic hot-spot setting).
const ZIPF_THETA: f64 = 0.8;
/// Key universe the staged subtransactions draw from.
const KEY_SPACE: u64 = 4096;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_sizes(name: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn sn(ticks: u64) -> SerialNumber {
    SerialNumber {
        ticks,
        node: 0,
        seq: 0,
    }
}

/// Drive one global subtransaction on `key` to the prepared state.
/// Advances and returns the clock.
fn prepare_one(agent: &mut Agent, now: &mut u64, gtxn: GlobalTxnId, key: u64, ticks: u64) {
    agent.handle(*now, AgentInput::Deliver(Message::Begin { gtxn, coord: 0 }));
    *now += 1;
    agent.handle(
        *now,
        AgentInput::Deliver(Message::Dml {
            gtxn,
            step: 0,
            command: Command::Update(KeySpec::Key(key), 1),
        }),
    );
    *now += 1;
    agent.handle(
        *now,
        AgentInput::LtmDone {
            gtxn,
            result: CommandResult {
                rows: vec![(key, 0)],
                wrote: vec![key],
            },
        },
    );
    *now += 1;
    agent.handle(
        *now,
        AgentInput::Deliver(Message::Prepare {
            gtxn,
            sn: sn(ticks),
        }),
    );
    *now += 1;
}

/// An agent with `prepared` staged entries on Zipf-skewed keys, and its
/// clock.
fn staged_agent(prepared: u64) -> (Agent, u64) {
    let mut agent = Agent::new(SiteId(0), AgentConfig::default());
    let mut rng = DetRng::new(42);
    let zipf = Zipf::new(KEY_SPACE, ZIPF_THETA);
    let mut now = 0u64;
    for k in 1..=prepared {
        let key = zipf.sample(&mut rng);
        prepare_one(&mut agent, &mut now, GlobalTxnId(k as u32), key, k);
    }
    (agent, now)
}

/// Admissions per second through the real agent: each cycle prepares one
/// new subtransaction against the staged table and rolls it back.
fn measure_indexed(prepared: u64, admissions: u64) -> f64 {
    let (mut agent, mut now) = staged_agent(prepared);
    let mut rng = DetRng::new(7);
    let zipf = Zipf::new(KEY_SPACE, ZIPF_THETA);
    let accepted_before = agent.stats().prepares_accepted;
    let start = Instant::now();
    for i in 0..admissions {
        let gtxn = GlobalTxnId(1_000_000 + i as u32);
        let key = zipf.sample(&mut rng);
        prepare_one(&mut agent, &mut now, gtxn, key, 1_000_000 + i);
        agent.handle(now, AgentInput::Deliver(Message::Rollback { gtxn }));
        now += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let accepted = agent.stats().prepares_accepted - accepted_before;
    assert_eq!(
        accepted, admissions,
        "every staged entry is alive, so every candidate must be admitted"
    );
    admissions as f64 / secs.max(1e-9)
}

/// Admissions per second through the definitional table: an eager O(N)
/// refresh of every alive interval, then the O(N) disjointness scan, per
/// admission, with none of the agent's message-handling overhead.
fn measure_linear(prepared: u64, admissions: u64) -> f64 {
    let mut lin = LinearReference::new();
    let mut now = 0u64;
    for k in 1..=prepared {
        lin.insert(
            GlobalTxnId(k as u32),
            LinearEntry {
                intervals: vec![(now, now)],
                alive: true,
                sn: sn(k),
            },
        );
        now += 4;
    }
    let start = Instant::now();
    for i in 0..admissions {
        let gtxn = GlobalTxnId(1_000_000 + i as u32);
        let begin = now;
        now += 3;
        lin.refresh(now);
        assert!(
            !lin.disjoint(begin),
            "every staged entry is alive, so every candidate must be admitted"
        );
        lin.insert(
            gtxn,
            LinearEntry {
                intervals: vec![(begin, now)],
                alive: true,
                sn: sn(1_000_000 + i),
            },
        );
        lin.remove(gtxn); // rollback eviction
        now += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    admissions as f64 / secs.max(1e-9)
}

struct Row {
    impl_name: &'static str,
    prepared: u64,
    admissions_per_sec: f64,
    speedup_vs_linear: Option<f64>,
}

fn main() {
    let sizes = env_sizes("CERT_BENCH_PREPARED", &[1_000, 10_000]);
    let admissions = env_u64("CERT_BENCH_ADMISSIONS", 2_000);

    let mut rows: Vec<Row> = Vec::new();
    for &prepared in &sizes {
        let linear = measure_linear(prepared, admissions);
        let indexed = measure_indexed(prepared, admissions);
        println!(
            "prepared={prepared}: linear {linear:.0}/s, indexed {indexed:.0}/s ({:.1}x)",
            indexed / linear
        );
        rows.push(Row {
            impl_name: "linear",
            prepared,
            admissions_per_sec: linear,
            speedup_vs_linear: None,
        });
        rows.push(Row {
            impl_name: "indexed",
            prepared,
            admissions_per_sec: indexed,
            speedup_vs_linear: Some(indexed / linear),
        });
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let speedup = r
                .speedup_vs_linear
                .map_or("null".to_string(), |s| format!("{s:.3}"));
            format!(
                "    {{\"impl\": \"{}\", \"prepared\": {}, \
                 \"zipf_theta\": {ZIPF_THETA}, \"admissions_per_sec\": {:.1}, \
                 \"speedup_vs_linear\": {speedup}}}",
                r.impl_name, r.prepared, r.admissions_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"certifier_throughput\",\n  \"host_cores\": {},\n  \
         \"commit\": \"{}\",\n  \
         \"workload\": \"Begin/DML/LtmDone/Prepare/Rollback cycles against a staged \
         prepared table, Zipf-skewed keys\",\n  \
         \"admissions_per_sample\": {admissions},\n  \"results\": [\n{}\n  ]\n}}\n",
        stamp::host_cores(),
        stamp::commit(),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_certifier.json");
    std::fs::write(path, &json).expect("write BENCH_certifier.json");
    println!("wrote {path}");
}
