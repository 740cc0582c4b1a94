//! `mdbs-check`: invariant lints and bounded model checking for the
//! certifier protocols.
//!
//! ```text
//! mdbs-check lint [--root <dir>] [--json|--github]
//! mdbs-check conc [--root <dir>] [--json|--github]
//! mdbs-check hotpath [--root <dir>] [--json|--github]
//! mdbs-check proto [--root <dir>] [--json|--github]
//! mdbs-check explore [--preset <name>] [--protocol <key>]
//! mdbs-check mutate [--json]
//! ```
//!
//! `lint`, `conc`, `hotpath` and `proto` are the four groups of one rule
//! table (`mdbs_check::engine`): `lint` is the project-specific source
//! lints (determinism, panic-freedom in decode and handler paths); `conc`
//! the threaded crates (lock order, blocking
//! under guards, poison handling, panics on worker threads); `hotpath`
//! the per-message hot paths (allocation in hot loops, repeated lookups,
//! linear scans in handlers, unbounded growth); `proto` the message flow
//! (unexpected emissions, missing duplicate guards, missing timers). All four exit 1 if any finding survives
//! suppression (an `allow(rule[, rule…], "why")` comment, the
//! justification mandatory; DESIGN §7a) and can emit findings as JSON
//! lines (`--json`) or GitHub Actions error annotations (`--github`).
//! `explore` runs the bounded model checker on a preset world — its
//! budgets and caps are the preset's — optionally under another protocol
//! (`--protocol`, the scenario-file keys: `2cm`, `naive`, `cgm`, …), and
//! exits 1 with a minimized trace if a schedule violates atomicity, the
//! §4.2 interval invariant or commit-order acyclicity, or misroutes an
//! event. `mutate`, run from the workspace root, runs the certifier
//! mutation kill matrix — each cataloged source edit applied to a scratch
//! copy of the workspace under `target/mutants/`, built, and run against
//! `crates/check/tests/checkers.rs` — and exits 1 if any mutant survives
//! every checker or the real protocol fails one, 2 if a mutant's edit no
//! longer applies or no longer compiles.

use std::path::PathBuf;
use std::process::ExitCode;

use mdbs_check::engine::{run, Finding, Group};
use mdbs_check::explore::{explore, ExploreConfig, ExploreOutcome};
use mdbs_check::mutate::{catalog, render, run_matrix};
use mdbs_sim::Protocol;

fn usage(err: &str) -> ExitCode {
    eprintln!("mdbs-check: {err}");
    eprintln!("usage: mdbs-check lint [--root <dir>] [--json|--github]");
    eprintln!("       mdbs-check conc [--root <dir>] [--json|--github]");
    eprintln!("       mdbs-check hotpath [--root <dir>] [--json|--github]");
    eprintln!("       mdbs-check proto [--root <dir>] [--json|--github]");
    eprintln!(
        "       mdbs-check explore [--preset smoke-2cm|smoke-cgm|conflict|mutation-interval|coord-failover|coord-crash-direct]"
    );
    eprintln!(
        "                          [--protocol 2cm|naive|2cm-prep-only|2cm-prep-order|ticket|cgm]"
    );
    eprintln!("       mdbs-check mutate [--json]");
    ExitCode::from(2)
}

/// How findings are printed.
#[derive(Clone, Copy, PartialEq)]
enum Output {
    Text,
    Json,
    Github,
}

/// Minimal JSON string escape (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_findings(tool: &str, findings: &[Finding], output: Output) {
    for f in findings {
        match output {
            Output::Text => println!("{f}"),
            Output::Json => println!(
                "{{\"tool\":{},\"rule\":{},\"file\":{},\"line\":{},\"msg\":{}}}",
                json_str(tool),
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.msg)
            ),
            // GitHub Actions error annotations: rendered on the PR diff.
            Output::Github => println!(
                "::error file={},line={},title=mdbs-check {}::{}",
                f.file, f.line, f.rule, f.msg
            ),
        }
    }
    if output != Output::Json {
        if findings.is_empty() {
            println!("mdbs-check {tool}: clean");
        } else {
            println!("mdbs-check {tool}: {} finding(s)", findings.len());
        }
    }
}

/// The one driver of the four rule groups.
fn run_findings_cmd(tool: &str, group: Group, mut args: std::env::Args) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut output = Output::Text;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--json" => output = Output::Json,
            "--github" => output = Output::Github,
            other => return usage(&format!("unknown {tool} argument {other:?}")),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    match run(&root, group) {
        Ok(findings) => {
            print_findings(tool, &findings, output);
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => usage(&e),
    }
}

fn run_explore_cmd(mut args: std::env::Args) -> ExitCode {
    let mut cfg = ExploreConfig::smoke_2cm();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                cfg = match args.next().as_deref() {
                    Some("smoke-2cm") => ExploreConfig::smoke_2cm(),
                    Some("smoke-cgm") => ExploreConfig::smoke_cgm(),
                    Some("conflict") => ExploreConfig::conflict(),
                    Some("mutation-interval") => ExploreConfig::mutation_interval(),
                    Some("coord-failover") => ExploreConfig::coord_failover(),
                    Some("coord-crash-direct") => ExploreConfig::coord_crash_direct(),
                    Some(other) => return usage(&format!("unknown preset {other:?}")),
                    None => return usage("--preset needs a name"),
                };
            }
            "--protocol" => match args.next().as_deref().map(Protocol::parse) {
                Some(Ok(protocol)) => cfg.protocol = protocol,
                Some(Err(e)) => return usage(&e.to_string()),
                None => return usage("--protocol needs a protocol key"),
            },
            other => return usage(&format!("unknown explore argument {other:?}")),
        }
    }
    println!(
        "mdbs-check explore: {} site(s), {} txn(s), protocol {}, F {}, budgets \
         (delays {}, faults {}, coordinator crashes {}), caps (steps {}, runs {})",
        cfg.sites(),
        cfg.programs.len(),
        cfg.protocol.label(),
        cfg.consensus_f,
        cfg.delay_budget,
        cfg.fault_budget,
        cfg.failover_budget,
        cfg.max_steps,
        cfg.max_runs
    );
    match explore(&cfg) {
        ExploreOutcome::Exhausted { runs } => {
            println!("exhausted {runs} schedule(s): no violation");
            ExitCode::SUCCESS
        }
        ExploreOutcome::RunCapped { runs } => {
            println!("run cap hit after {runs} schedule(s): no violation found (inexhaustive)");
            ExitCode::SUCCESS
        }
        ExploreOutcome::Violation(cex) => {
            print!("{cex}");
            ExitCode::from(1)
        }
    }
}

fn run_mutate_cmd(args: std::env::Args) -> ExitCode {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => return usage(&format!("unknown mutate argument {other:?}")),
        }
    }
    let matrix = match run_matrix(std::path::Path::new("."), &catalog()) {
        Ok(matrix) => matrix,
        Err(e) => {
            eprintln!("mdbs-check mutate: harness error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        for row in std::iter::once(&matrix.full).chain(&matrix.rows) {
            let cells: Vec<String> = row
                .results
                .iter()
                .map(|r| {
                    format!(
                        "{{\"checker\":{},\"killed\":{},\"detail\":{}}}",
                        json_str(&r.checker),
                        r.killed,
                        json_str(&r.detail)
                    )
                })
                .collect();
            println!(
                "{{\"mutant\":{},\"mechanism\":{},\"build_s\":{:.1},\"check_s\":{:.1},\"results\":[{}]}}",
                json_str(row.id),
                json_str(row.mechanism),
                row.build_s,
                row.check_s,
                cells.join(",")
            );
        }
    } else {
        print!("{}", render(&matrix));
        println!();
        for row in &matrix.rows {
            let killers = row.killers();
            if killers.is_empty() {
                println!("SURVIVOR {} ({})", row.id, row.mechanism);
            } else {
                println!("killed   {} by {}", row.id, killers.join(", "));
            }
        }
        for r in &matrix.full.results {
            if r.killed {
                println!("FULL FAILS {}: {}", r.checker, r.detail);
            }
        }
    }
    if matrix.passed() {
        if !json {
            println!(
                "mdbs-check mutate: {} mutant(s), 100% killed, full protocol clean",
                matrix.rows.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!(
                "mdbs-check mutate: FAILED ({} survivor(s), full clean: {})",
                matrix.survivors().len(),
                matrix.full_clean()
            );
        }
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    match args.next().as_deref() {
        Some("explore") => run_explore_cmd(args),
        Some("mutate") => run_mutate_cmd(args),
        Some(other) => match Group::named(other) {
            Some(group) => run_findings_cmd(other, group, args),
            None => usage(&format!("unknown command {other:?}")),
        },
        None => usage("a command is required"),
    }
}
