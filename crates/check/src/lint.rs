//! The invariant lints: project-specific rules the stock toolchain cannot
//! express, as bodies for [`crate::engine`].
//!
//! All four are the same question — "does this token occur in these
//! files?" — and are rows of one table, [`FORBIDDEN`]:
//!
//! | rule | files | what it catches |
//! |------|-------|-----------------|
//! | `determinism-wall-clock` | deterministic crates | `Instant`, `SystemTime`, `thread_rng`, `from_entropy` — wall clocks and entropy-seeded RNG inside code that must replay bit-for-bit per seed |
//! | `determinism-hash-order` | deterministic crates + digest paths | `HashMap`/`HashSet` — iteration order is randomized per process, so any use that feeds histories or digests breaks reproducibility |
//! | `panic-freedom` | wire/frame decode paths, the protocol state machines + runtimes and the state the CGM scheduler mutates | `unwrap`/`expect`, `panic!`/`unreachable!`/`todo!`/`unimplemented!`, `assert!`/`assert_eq!`/`assert_ne!` and direct index expressions — hostile bytes, a re-delivered message or internal inconsistency must surface as errors, not process death |
//! | `conc-panic-in-thread` | the threaded files ([`crate::conc::CONC_FILES`]) | `.unwrap()`/`.expect()` and the four panicking macros: a panic on a worker thread does not crash the process, it silently wedges the protocol |

use std::collections::BTreeSet;
use std::path::Path;

use crate::conc::CONC_FILES;
use crate::engine::{group_of, Group, Sink};
use crate::scan::{index_sites, next_nonws, prev_nonws_at, SourceFile};

/// How a forbidden token must occur to count.
pub(crate) enum Shape {
    /// Anywhere as a whole identifier.
    Ident,
    /// As a method: `.token`.
    Method,
    /// As a macro: `token!`.
    Macro,
    /// No token: every direct index expression `x[i]`.
    Index,
}

/// One forbidden-token row. `files` entries are workspace-relative files,
/// or directories standing for every `.rs` file below them; `{}` in `msg`
/// is the token.
pub(crate) struct Forbidden {
    pub(crate) rule: &'static str,
    files: &'static [&'static str],
    tokens: &'static [&'static str],
    shape: Shape,
    msg: &'static str,
}

/// Crates whose code must replay bit-for-bit per seed: the protocol state
/// machines, the runtimes, the simulation kernel, histories, workload.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core/src",
    "crates/runtime/src",
    "crates/simkit/src",
    "crates/histories/src",
    "crates/workload/src",
];

/// Digest computation outside the deterministic crates that must also
/// never iterate hash-ordered containers.
const DIGEST_FILES: &[&str] = &["crates/mdbs/src/report.rs"];

/// Decode paths, message handlers and the state they mutate, none of
/// which may panic: a corrupt frame, a re-delivered message or an
/// internally inconsistent state must surface as an error value.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/net/src/wire.rs",
    "crates/net/src/frame.rs",
    "crates/core/src/agent.rs",
    "crates/core/src/certifier.rs",
    "crates/core/src/coordinator.rs",
    "crates/baselines/src/global_locks.rs",
    "crates/baselines/src/commit_graph.rs",
    "crates/runtime/src/site.rs",
    "crates/runtime/src/coordinator.rs",
    "crates/runtime/src/central.rs",
    "crates/runtime/src/acceptor.rs",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const HASH_TOKENS: &[&str] = &["HashMap", "HashSet"];
const HASH_ORDER: &str = "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet or sort \
     explicitly (a keyed-lookup-only map may carry a justified allow)";
const PANIC_FREEDOM: &str = "`{}` in a decode/handler path: corrupt input or inconsistent \
     state must return an error (WireError, FrameError, RuntimeError), not kill the process";

pub(crate) const FORBIDDEN: &[Forbidden] = &[
    Forbidden {
        rule: "determinism-wall-clock",
        files: DETERMINISTIC_CRATES,
        tokens: &["Instant", "SystemTime", "thread_rng", "from_entropy"],
        shape: Shape::Ident,
        msg: "`{}` in a deterministic crate: simulation state may only advance through the \
         seeded clock/RNG (SimTime, DetRng)",
    },
    Forbidden {
        rule: "determinism-hash-order",
        files: DETERMINISTIC_CRATES,
        tokens: HASH_TOKENS,
        shape: Shape::Ident,
        msg: HASH_ORDER,
    },
    Forbidden {
        rule: "determinism-hash-order",
        files: DIGEST_FILES,
        tokens: HASH_TOKENS,
        shape: Shape::Ident,
        msg: HASH_ORDER,
    },
    Forbidden {
        rule: "panic-freedom",
        files: PANIC_FREE_FILES,
        tokens: PANIC_METHODS,
        shape: Shape::Ident,
        msg: PANIC_FREEDOM,
    },
    Forbidden {
        rule: "panic-freedom",
        files: PANIC_FREE_FILES,
        tokens: PANIC_MACROS,
        shape: Shape::Ident,
        msg: PANIC_FREEDOM,
    },
    // A handler's precondition written as an assertion is a panic that a
    // re-delivered message can reach (the CGM control plane, PR 19).
    Forbidden {
        rule: "panic-freedom",
        files: PANIC_FREE_FILES,
        tokens: &["assert", "assert_eq", "assert_ne"],
        shape: Shape::Macro,
        msg: PANIC_FREEDOM,
    },
    Forbidden {
        rule: "panic-freedom",
        files: PANIC_FREE_FILES,
        tokens: &[],
        shape: Shape::Index,
        msg: "direct index expression in a decode/handler path can panic on a hostile \
         length; use `.get()` and handle the miss",
    },
    Forbidden {
        rule: "conc-panic-in-thread",
        files: CONC_FILES,
        tokens: PANIC_METHODS,
        shape: Shape::Method,
        msg: "`.{}(…)` on a worker thread: a panic here does not crash the process, it \
         silently wedges the protocol — return an error or handle the case",
    },
    Forbidden {
        rule: "conc-panic-in-thread",
        files: CONC_FILES,
        tokens: PANIC_MACROS,
        shape: Shape::Macro,
        msg: "`{}!` on a worker thread: a panic here does not crash the process, it silently \
         wedges the protocol",
    },
];

/// Report `rule`'s forbidden tokens in `src`, for the rows whose files
/// cover it.
pub(crate) fn forbidden(rule: &'static str, src: &SourceFile, sink: &mut Sink) {
    let covers = |files: &[&str]| {
        files.iter().any(|f| {
            src.rel == *f
                || src
                    .rel
                    .strip_prefix(f)
                    .is_some_and(|rest| rest.starts_with('/'))
        })
    };
    let code = &src.code;
    for row in FORBIDDEN
        .iter()
        .filter(|r| r.rule == rule && covers(r.files))
    {
        if let Shape::Index = row.shape {
            for off in index_sites(code) {
                sink.report(src, rule, off, row.msg.to_string());
            }
        }
        for token in row.tokens {
            for off in src.idents(token) {
                let hit = match row.shape {
                    Shape::Ident => true,
                    Shape::Method => {
                        prev_nonws_at(code, off).map(|p| code.as_bytes()[p]) == Some(b'.')
                    }
                    Shape::Macro => next_nonws(code, off + token.len()) == Some(b'!'),
                    Shape::Index => false,
                };
                if hit {
                    sink.report(src, rule, off, row.msg.replace("{}", token));
                }
            }
        }
    }
}

/// Every file the forbidden-token rules of `group` name — a directory
/// standing for every `.rs` file below it — in path order.
pub(crate) fn forbidden_files(root: &Path, group: Group) -> Result<BTreeSet<String>, String> {
    let rows = FORBIDDEN.iter().filter(|r| group_of(r.rule) == Some(group));
    let mut stack: Vec<String> = rows
        .flat_map(|r| r.files.iter().map(|f| f.to_string()))
        .collect();
    let mut out = BTreeSet::new();
    while let Some(rel) = stack.pop() {
        let path = root.join(&rel);
        if !path.is_dir() {
            out.insert(rel);
            continue;
        }
        let list = |e: std::io::Error| format!("read_dir {rel}: {e}");
        for entry in std::fs::read_dir(&path).map_err(list)? {
            let entry = entry.map_err(list)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.path().is_dir() || name.ends_with(".rs") {
                stack.push(format!("{rel}/{name}"));
            }
        }
    }
    Ok(out)
}
