//! The certifier mutation kill matrix.
//!
//! Mutation testing turned on the protocol itself. A mutant is a *source
//! edit* against the shipped tree — one or more `(file, anchor,
//! replacement)` triples, each breaking exactly one mechanism of §§4–5, the
//! Appendix algorithms, 2PC, or the Paxos Commit safety argument — never a
//! flag inside the protocol. [`run_matrix`] keeps one scratch copy of the
//! workspace under `target/mutants/`, and for the real tree and then each
//! mutant in turn writes the edited files there, builds and runs
//! `crates/check/tests/checkers.rs` with cargo, reads the failing test
//! names as the row's killers, and restores the files.
//!
//! A mutant that survives *all* checkers marks a hole in the test net: some
//! paper mechanism nobody would notice us dropping. The matrix fails if any
//! mutant survives, and also if the real tree fails anything — the checkers
//! must be discriminating, not merely trigger-happy. An edit whose anchor
//! does not occur exactly once in its file, or whose mutant does not
//! compile, is a harness error ([`run_matrix`] returns `Err`): never a
//! kill, never a survivor.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const AGENT: &str = "crates/core/src/agent.rs";
const CERTIFIER: &str = "crates/core/src/certifier.rs";
const COORD: &str = "crates/core/src/coordinator.rs";
const LEADER: &str = "crates/consensus/src/leader.rs";
const ACCEPTOR: &str = "crates/consensus/src/acceptor.rs";

/// One textual edit: `anchor` must occur exactly once in `file`
/// (workspace-relative) and is replaced by `replacement`.
#[derive(Debug, Clone, Copy)]
pub struct Edit {
    /// Workspace-relative path of the file to edit.
    pub file: &'static str,
    /// The text to replace; must occur exactly once.
    pub anchor: &'static str,
    /// What replaces it; the edited tree must still compile.
    pub replacement: &'static str,
}

/// A catalog entry: the deviation plus the paper mechanism it breaks.
#[derive(Debug, Clone, Copy)]
pub struct Mutant {
    /// Stable identifier used in reports and the pinned matrix test.
    pub id: &'static str,
    /// The paper mechanism this deviation disables or inverts.
    pub mechanism: &'static str,
    /// One-line description of the deviation.
    pub summary: &'static str,
    /// The source edits that install it.
    pub edits: &'static [Edit],
}

/// The full mutant catalog. Every entry must be killed by at least one
/// checker; the pinned matrix test in `crates/check/tests/` fails when one
/// is not, or when an entry is added here without extending the pin.
pub fn catalog() -> Vec<Mutant> {
    vec![
        Mutant {
            id: "broken-basic-cert",
            mechanism: "§4.2 basic prepare certification",
            summary: "skips the alive-interval intersection check entirely",
            edits: &[Edit {
                file: CERTIFIER,
                anchor: "if self.mode.prepare_certification() &&",
                replacement: "if false &&",
            }],
        },
        Mutant {
            id: "interval-boundary",
            mechanism: "§4.2 basic prepare certification (boundary)",
            summary: "off-by-one: treats a frozen interval ending where the candidate begins as intersecting",
            edits: &[Edit {
                file: CERTIFIER,
                anchor: "|&(end, _)| end <= candidate_begin",
                replacement: "|&(end, _)| end < candidate_begin",
            }],
        },
        Mutant {
            id: "stale-refresh",
            mechanism: "§4.2 alive-interval maintenance",
            summary: "skips the inline refresh of alive entries' intervals at PREPARE",
            // Without the refresh the certifier's alive-entries-always-
            // intersect shortcut does not hold, so the mutant certifies
            // against the raw stored intervals with a linear scan (a
            // frozen one open at its end, as in the real rule).
            edits: &[
                Edit {
                    file: CERTIFIER,
                    anchor: "self.floor = self.floor.max(now);\n        self.refreshes += 1;",
                    replacement: "",
                },
                Edit {
                    file: CERTIFIER,
                    anchor: "self.disjoint(now, candidate_begin)",
                    replacement: "self.entries.values().any(|e| e.interval.1 < candidate_begin || (e.frozen && e.interval.1 == candidate_begin))",
                },
            ],
        },
        Mutant {
            id: "no-prepare-extension",
            mechanism: "§5.3 extended prepare certification",
            summary: "never refuses a PREPARE whose sn is below the largest committed sn",
            edits: &[Edit {
                file: CERTIFIER,
                anchor: "if self.mode.prepare_extension() &&",
                replacement: "if false &&",
            }],
        },
        Mutant {
            id: "sn-check-flip",
            mechanism: "§5.3 extended prepare certification",
            summary: "inverts the §5.3 comparison: refuses sn above the largest committed sn",
            edits: &[Edit {
                file: CERTIFIER,
                anchor: "self.max_committed_sn.is_some_and(|max| sn < max)",
                replacement: "self.max_committed_sn.is_some_and(|max| sn > max)",
            }],
        },
        Mutant {
            id: "stale-max-sn",
            mechanism: "§5.3 extended prepare certification (state)",
            summary: "local commits never advance the largest-committed-sn watermark",
            edits: &[Edit {
                file: CERTIFIER,
                anchor: "self.max_committed_sn = self.max_committed_sn.max(Some(e.sn));",
                replacement: "",
            }],
        },
        Mutant {
            id: "skip-replay",
            mechanism: "Appendix A resubmission",
            summary: "resubmission opens a fresh incarnation but replays none of the logged commands",
            edits: &[Edit {
                file: AGENT,
                anchor: "if let Some(&command) = st.commands.first() {",
                replacement: "if let Some(&command) = st.commands.first().filter(|_| false) {",
            }],
        },
        Mutant {
            id: "drop-resubmission",
            mechanism: "Appendix A alive check",
            summary: "the alive check detects a unilateral abort but never resubmits",
            edits: &[Edit {
                file: AGENT,
                anchor: "// Unilaterally aborted: resubmit commands from the Agent log.
            actions.extend(self.start_resubmission(gtxn));",
                replacement: "",
            }],
        },
        Mutant {
            id: "commit-edge-flip",
            mechanism: "Appendix C commit certification",
            summary: "inverts the sn-order wait: commits while a *larger*-sn entry is in the table",
            edits: &[Edit {
                file: CERTIFIER,
                anchor: ".iter()
                .find(|(_, g)| *g != gtxn)
                .is_none_or(|&(sn, _)| sn > me.sn)",
                replacement: ".iter()
                .rev()
                .find(|(_, g)| *g != gtxn)
                .is_none_or(|&(sn, _)| sn < me.sn)",
            }],
        },
        Mutant {
            id: "commit-pending-only",
            mechanism: "Appendix C commit certification",
            summary: "commit certification ignores merely-prepared entries, waiting only on commit-pending ones",
            // The phase is the agent's, not the certifier's, so the mutant
            // answers in the agent's place of the gate, with a linear scan
            // taken before `try_commit` borrows its subtransaction.
            edits: &[
                Edit {
                    file: AGENT,
                    anchor: "fn try_commit(&mut self, now: u64, gtxn: GlobalTxnId) -> Vec<AgentAction> {",
                    replacement: "fn try_commit(&mut self, now: u64, gtxn: GlobalTxnId) -> Vec<AgentAction> {
        let table = self.prepared_table();
        let my_sn = table.iter().find(|e| e.gtxn == gtxn).map(|e| e.sn);
        let pending_only = table
            .iter()
            .all(|e| e.gtxn == gtxn || !e.commit_pending || Some(e.sn) > my_sn);",
                },
                Edit {
                    file: AGENT,
                    anchor: "!self.cert.commit_gate(gtxn)",
                    replacement: "!pending_only",
                },
            ],
        },
        Mutant {
            id: "keep-rollback-in-table",
            mechanism: "§4.2 alive-interval table eviction",
            summary: "ROLLBACK acknowledges but leaves the entry in the alive-interval table",
            edits: &[Edit {
                file: AGENT,
                anchor: "self.subtxns.remove(&gtxn);\n        self.cert.leave(gtxn, false);",
                replacement: "",
            }],
        },
        Mutant {
            id: "agent-done-cap-ignored",
            mechanism: "done-set compaction bound (hotpath growth fix)",
            summary: "note_done ignores DONE_CAP: terminated-transaction ids accumulate without bound",
            edits: &[Edit {
                file: AGENT,
                anchor: "if self.done.len() > DONE_CAP {",
                replacement: "if false {",
            }],
        },
        Mutant {
            id: "drop-dup-ready-retransmit",
            mechanism: "§2 2PC decision retransmission",
            summary: "a duplicate READY while committing is ignored instead of answered with COMMIT",
            edits: &[Edit {
                file: COORD,
                anchor: "retransmit the decision (2PC recovery).
            return vec![CoordAction::ToAgent {
                site,
                msg: Message::Commit { gtxn },
            }];",
                replacement: "retransmit the decision (2PC recovery).
            return vec![];",
            }],
        },
        Mutant {
            id: "skip-commit-record",
            mechanism: "§3 global commit record (C_k)",
            summary: "unanimous READY sends COMMITs without durably recording the decision",
            edits: &[Edit {
                file: COORD,
                anchor: "// Unanimous READY: record the commit decision, then COMMIT.
        txn.phase = TxnPhase::Committing;
        let mut actions = vec![CoordAction::RecordGlobalCommit(gtxn)];",
                replacement: "txn.phase = TxnPhase::Committing;
        let mut actions = vec![];",
            }],
        },
        Mutant {
            id: "quorum-shortcut",
            mechanism: "Paxos Commit per-instance quorum coverage",
            summary: "a ballot-0 acceptor reports the transaction once any participant is Ready",
            edits: &[Edit {
                file: ACCEPTOR,
                anchor: "if !participants.iter().all(ready) {",
                replacement: "if !participants.iter().any(ready) {",
            }],
        },
        Mutant {
            id: "stale-ballot-replay",
            mechanism: "Paxos Commit phase-1 promise adoption",
            summary: "failover ignores the quorum's accepted votes and proposes from its stale view",
            edits: &[Edit {
                file: LEADER,
                anchor: ".map(|&(_, v)| v)",
                replacement: ".map(|_| Vote::Abort)",
            }],
        },
        Mutant {
            id: "ready-dup-guard-dropped",
            mechanism: "§2 duplicate-READY phase guard (source-level)",
            summary: "textually removes the coordinator's committing-phase test on a duplicate READY",
            // Without the test, any READY outside the voting phase — a late
            // one after an abort decision too — is answered with COMMIT.
            edits: &[Edit {
                file: COORD,
                anchor: "if txn.phase == TxnPhase::Committing {",
                replacement: "if txn.phase != TxnPhase::Preparing {",
            }],
        },
        Mutant {
            id: "alive-timer-skipped",
            mechanism: "§2 blocked-agent alive timer (source-level)",
            summary: "textually removes the alive-timer action armed with the READY vote",
            edits: &[Edit {
                file: AGENT,
                anchor: "            AgentAction::StartAliveTimer {
                gtxn,
                after_us: self.config.alive_check_interval_us,
            },\n",
                replacement: "",
            }],
        },
    ]
}

impl Mutant {
    /// The mutated text of every file this mutant edits, keyed by
    /// workspace-relative path, read from the tree at `root`. `Err` names
    /// the edit whose anchor is missing or ambiguous.
    fn mutated_files(&self, root: &Path) -> Result<BTreeMap<&'static str, String>, String> {
        let mut files = BTreeMap::new();
        for e in self.edits {
            let text = match files.entry(e.file) {
                Entry::Occupied(seen) => seen.into_mut(),
                Entry::Vacant(new) => new.insert(
                    fs::read_to_string(root.join(e.file))
                        .map_err(|err| format!("{}: cannot read {}: {err}", self.id, e.file))?,
                ),
            };
            match text.matches(e.anchor).count() {
                1 => *text = text.replacen(e.anchor, e.replacement, 1),
                0 => {
                    return Err(format!(
                        "{}: anchor not found in {}:\n{}",
                        self.id, e.file, e.anchor
                    ))
                }
                n => {
                    return Err(format!(
                        "{}: anchor occurs {n} times in {}, must be unique:\n{}",
                        self.id, e.file, e.anchor
                    ))
                }
            }
        }
        Ok(files)
    }
}

/// One checker's verdict on one tree.
#[derive(Debug, Clone)]
pub struct CheckerResult {
    /// Checker name (`probe-*`, `explore-*`, `sim-*`, `proto-*`).
    pub checker: String,
    /// Whether the checker rejected the tree (a *kill* for mutants, a
    /// *failure* for the real protocol).
    pub killed: bool,
    /// What happened, one line.
    pub detail: String,
}

/// One catalog row of the matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Mutant id, or `"full"` for the real protocol.
    pub id: &'static str,
    /// The broken mechanism (empty for `"full"`).
    pub mechanism: &'static str,
    /// Every checker's verdict, in checker-name order.
    pub results: Vec<CheckerResult>,
    /// Seconds cargo took to build the checkers against this tree.
    pub build_s: f64,
    /// Seconds the checkers took to run.
    pub check_s: f64,
}

impl MatrixRow {
    /// Names of the checkers that killed this row.
    pub fn killers(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| r.killed)
            .map(|r| r.checker.as_str())
            .collect()
    }

    /// A mutant row nothing killed.
    pub fn survived(&self) -> bool {
        self.results.iter().all(|r| !r.killed)
    }
}

/// The full kill matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// The real protocol's row: every `killed` must be `false`.
    pub full: MatrixRow,
    /// One row per catalog mutant.
    pub rows: Vec<MatrixRow>,
}

impl Matrix {
    /// Whether the real protocol passed every checker.
    pub fn full_clean(&self) -> bool {
        self.full.survived()
    }

    /// Ids of mutants no checker killed.
    pub fn survivors(&self) -> Vec<&'static str> {
        self.rows
            .iter()
            .filter(|r| r.survived())
            .map(|r| r.id)
            .collect()
    }

    /// The matrix verdict: real protocol clean *and* 100% kill rate.
    pub fn passed(&self) -> bool {
        self.full_clean() && self.survivors().is_empty()
    }
}

/// Run the checkers against the workspace at `root` and against each of
/// `mutants` applied to it. `Err` is a harness error — an anchor that is
/// missing or not unique (found before anything is built), a mutant that
/// does not compile, cargo not running — and says nothing about kills.
pub fn run_matrix(root: &Path, mutants: &[Mutant]) -> Result<Matrix, String> {
    let mut edited = Vec::new();
    for m in mutants {
        edited.push(m.mutated_files(root)?);
    }
    let scratch = Scratch::open(root)?;
    let full = scratch.run_row("full", "", &BTreeMap::new())?;
    let mut rows = Vec::new();
    for (m, files) in mutants.iter().zip(&edited) {
        rows.push(scratch.run_row(m.id, m.mechanism, files)?);
    }
    Ok(Matrix { full, rows })
}

/// What a workspace copy needs for `cargo test -p mdbs-check` to resolve.
const WORKSPACE_ENTRIES: &[&str] = &["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"];

/// The scratch copy of the workspace at `<root>/target/mutants`, holding
/// its own cargo `target/`. Kept between runs so only the first one pays
/// for a cold build; the lock file makes concurrent users take turns.
struct Scratch {
    dir: PathBuf,
    _lock: fs::File,
}

impl Scratch {
    /// Lock the scratch copy and bring it in line with the tree at `root`,
    /// rewriting only files whose content differs (cargo rebuilds by
    /// mtime) — which also restores anything a killed run left mutated.
    fn open(root: &Path) -> Result<Scratch, String> {
        let dir = root.join("target/mutants");
        let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", dir.display());
        fs::create_dir_all(&dir).map_err(|e| io("cannot create", e))?;
        let lock = fs::File::create(dir.join(".lock")).map_err(|e| io("cannot lock", e))?;
        lock.lock().map_err(|e| io("cannot lock", e))?;
        for entry in WORKSPACE_ENTRIES {
            sync_tree(&root.join(entry), &dir.join(entry)).map_err(|e| io("cannot sync", e))?;
        }
        Ok(Scratch { dir, _lock: lock })
    }

    /// `cargo test -p mdbs-check --test checkers` in the scratch copy with
    /// `extra` appended; returns (succeeded, stdout, stderr, seconds).
    fn cargo_test(&self, extra: &[&str]) -> Result<(bool, String, String, f64), String> {
        let started = Instant::now();
        let out = Command::new("cargo")
            .args(["test", "--offline", "--color", "never"])
            .args(["--target-dir", "target", "-p", "mdbs-check"])
            .args(["--test", "checkers"])
            .args(extra)
            .current_dir(&self.dir)
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        Ok((
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            started.elapsed().as_secs_f64(),
        ))
    }

    /// Build the checkers against the copy as it stands, then run them.
    fn build_and_check(
        &self,
        id: &'static str,
        mechanism: &'static str,
    ) -> Result<MatrixRow, String> {
        let (built, _, errors, build_s) = self.cargo_test(&["--no-run"])?;
        if !built {
            return Err(format!("the mutant does not build:\n{errors}"));
        }
        let (_, stdout, stderr, check_s) = self.cargo_test(&["--", "--color", "never"])?;
        let results = parse_libtest(&stdout);
        if results.is_empty() || !stdout.contains("\ntest result:") {
            return Err(format!(
                "the checkers did not run to completion:\n{stdout}{stderr}"
            ));
        }
        Ok(MatrixRow {
            id,
            mechanism,
            results,
            build_s,
            check_s,
        })
    }

    /// Write `files` (workspace-relative path → mutated text) into the
    /// copy, build and run the checkers, and restore the copy.
    fn run_row(
        &self,
        id: &'static str,
        mechanism: &'static str,
        files: &BTreeMap<&'static str, String>,
    ) -> Result<MatrixRow, String> {
        let mut pristine = Vec::new();
        for (rel, mutated) in files {
            let path = self.dir.join(rel);
            let io = |e: std::io::Error| format!("{id}: {}: {e}", path.display());
            pristine.push((path.clone(), fs::read(&path).map_err(io)?));
            fs::write(&path, mutated).map_err(io)?;
        }
        let row = self.build_and_check(id, mechanism);
        for (path, text) in pristine {
            fs::write(&path, text).map_err(|e| format!("{id}: {}: {e}", path.display()))?;
        }
        row.map_err(|e| format!("{id}: {e}"))
    }
}

/// Make `to` a copy of `from` (a file or a directory tree), touching only
/// files whose content differs and deleting what `from` no longer has.
/// Nested cargo `target/` directories are not source and are skipped.
fn sync_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    if !from.is_dir() {
        let want = fs::read(from)?;
        if fs::read(to).ok().as_ref() != Some(&want) {
            fs::write(to, want)?;
        }
        return Ok(());
    }
    fs::create_dir_all(to)?;
    let mut names = Vec::new();
    for entry in fs::read_dir(from)? {
        let name = entry?.file_name();
        if name != "target" {
            sync_tree(&from.join(&name), &to.join(&name))?;
            names.push(name);
        }
    }
    for entry in fs::read_dir(to)? {
        let entry = entry?;
        if !names.contains(&entry.file_name()) {
            if entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
            } else {
                fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// Per-test verdicts from libtest's output, sorted by checker name (the
/// test name with `_` read as `-`). A failed test's detail is the first
/// line of its captured output.
fn parse_libtest(stdout: &str) -> Vec<CheckerResult> {
    let mut results = Vec::new();
    for line in stdout.lines() {
        let Some((name, verdict)) = line
            .strip_prefix("test ")
            .and_then(|rest| rest.split_once(" ... "))
        else {
            continue;
        };
        let killed = match verdict {
            "ok" => false,
            "FAILED" => true,
            _ => continue,
        };
        let detail = if killed {
            stdout
                .split_once(&format!("---- {name} stdout ----\n"))
                .and_then(|(_, after)| after.lines().next())
                .unwrap_or("failed")
                .to_string()
        } else {
            "pass".to_string()
        };
        results.push(CheckerResult {
            checker: name.replace('_', "-"),
            killed,
            detail,
        });
    }
    results.sort_by(|a, b| a.checker.cmp(&b.checker));
    results
}

/// Render the matrix as an aligned text table (mutants × checkers, `X` for
/// a kill), with each row's build and check seconds.
pub fn render(matrix: &Matrix) -> String {
    let mut out = String::new();
    let id_w = matrix
        .rows
        .iter()
        .map(|r| r.id.len())
        .chain([matrix.full.id.len()])
        .max()
        .unwrap_or(4);
    out.push_str(&format!("{:id_w$}", ""));
    for r in &matrix.full.results {
        out.push_str(&format!("  {}", r.checker));
    }
    out.push_str("  build_s  check_s\n");
    for row in std::iter::once(&matrix.full).chain(&matrix.rows) {
        out.push_str(&format!("{:id_w$}", row.id));
        for r in &row.results {
            let mark = if r.killed { "X" } else { "." };
            out.push_str(&format!("  {mark:^w$}", w = r.checker.len()));
        }
        out.push_str(&format!("  {:7.1}  {:7.1}\n", row.build_s, row.check_s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every catalog edit's anchor must occur exactly once in its target
    /// file — a refactor that moves or duplicates one is caught here, in
    /// milliseconds, with the anchor named.
    #[test]
    fn mutation_anchors_exist() {
        for m in catalog() {
            let files = m
                .mutated_files(&workspace_root())
                .unwrap_or_else(|e| panic!("{e}"));
            for (rel, mutated) in files {
                let raw = fs::read_to_string(workspace_root().join(rel)).expect("read target");
                assert_ne!(mutated, raw, "{}: the edit changes nothing in {rel}", m.id);
            }
        }
    }

    #[test]
    fn libtest_lines_become_checker_results() {
        let stdout = "\nrunning 3 tests\ntest probe_b ... FAILED\ntest explore_a ... ok\n\
                      test sim_c has been running for over 60 seconds\ntest sim_c ... ok\n\n\
                      failures:\n\n---- probe_b stdout ----\nError: \"§4.2: boom\"\n\n\
                      failures:\n    probe_b\n\ntest result: FAILED. 2 passed; 1 failed\n";
        let got: Vec<(String, bool, String)> = parse_libtest(stdout)
            .into_iter()
            .map(|r| (r.checker, r.killed, r.detail))
            .collect();
        assert_eq!(
            got,
            vec![
                ("explore-a".to_string(), false, "pass".to_string()),
                (
                    "probe-b".to_string(),
                    true,
                    "Error: \"§4.2: boom\"".to_string()
                ),
                ("sim-c".to_string(), false, "pass".to_string()),
            ]
        );
    }
}
