//! The performance ledger's harness. See `benchmark/README.md`.
//!
//! ```text
//! mdbs-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! mdbs-benchmark --all [--seed <n>] [--seconds <s>]
//! ```
//!
//! One run prints every metric by name with its unit, then one JSON
//! object as the last line of stdout, and exits non-zero if any
//! correctness check failed. `--trace 0` (the default) reports the
//! end-to-end metrics with tracing off; `--trace 1` reports the per-layer
//! metrics and writes the spans to `benchmark/out/trace-<workload>.json`.

#![forbid(unsafe_code)]

mod e2e;
mod episode;
mod layers;
mod metrics;
mod proc;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use e2e::Outcome;
use workloads::WORKLOADS;

/// Where the traced run writes its spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let outcome = if args.trace {
        let (outcome, spans) = layers::run(w, args.seed, args.seconds);
        let path = format!("{OUT_DIR}/trace-{}.json", w.name);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        std::fs::write(&path, spans.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("spans written to {path}");
        outcome
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &outcome.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for v in &outcome.violations {
        println!("  VIOLATION {v}");
    }
    println!("{}", result_json(&outcome));
    Ok(if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-execute the harness once per workload and mode, so that
/// `peak_rss_mb` is per workload.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut code = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("re-execute {}: {e}", exe.display()))?;
            if !status.success() {
                code = ExitCode::FAILURE;
            }
        }
    }
    Ok(code)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    });
    result.unwrap_or_else(|e| {
        eprintln!("mdbs-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            violations: vec![],
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                    note: String::new(),
                },
                Metric {
                    name: "committed_txn_per_s",
                    unit: "1/s",
                    value: 2500.0,
                    note: String::new(),
                },
            ],
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"committed_txn_per_s\": {\"value\": 2500, \"unit\": \"1/s\"}}}"
        );
    }
}
