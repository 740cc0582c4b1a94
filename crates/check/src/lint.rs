//! The invariant lints: project-specific rules the stock toolchain cannot
//! express, as bodies for [`crate::engine`].
//!
//! Four rules are the same question — "does this token occur in these
//! files?" — and are rows of one table, [`FORBIDDEN`]:
//!
//! | rule | files | what it catches |
//! |------|-------|-----------------|
//! | `determinism-wall-clock` | deterministic crates | `Instant`, `SystemTime`, `thread_rng`, `from_entropy` — wall clocks and entropy-seeded RNG inside code that must replay bit-for-bit per seed |
//! | `determinism-hash-order` | deterministic crates + digest paths | `HashMap`/`HashSet` — iteration order is randomized per process, so any use that feeds histories or digests breaks reproducibility |
//! | `panic-freedom` | wire/frame decode paths and the protocol state machines + runtimes | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` and direct index expressions — hostile bytes or internal inconsistency must surface as errors, not process death |
//! | `conc-panic-in-thread` | the threaded files ([`crate::conc::CONC_FILES`]) | `.unwrap()`/`.expect()` and the four panicking macros: a panic on a worker thread does not crash the process, it silently wedges the protocol |
//!
//! The fifth, `vocabulary`, cross-checks the message enums: every
//! `Message`/`CtrlMsg`/`WireMsg` variant must have a wire encode arm, a
//! wire decode arm, and a handler arm; `Command`/`OpKind` must have codec
//! arms; the compiled `specimens()` lists must match the source enums.

use std::collections::BTreeSet;
use std::path::Path;

use mdbs_dtm::Message;
use mdbs_net::wire::WireMsg;
use mdbs_runtime::CtrlMsg;

use crate::conc::CONC_FILES;
use crate::engine::{group_of, Group, Sink};
use crate::scan::{
    enum_variants, find_token_seq, fn_body, impl_body, index_sites, next_nonws, prev_nonws_at,
    FileSet, SourceFile,
};

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

/// Decode paths and message handlers that must not panic: a corrupt frame
/// or an internally inconsistent state must surface as an error value.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/net/src/wire.rs",
    "crates/net/src/frame.rs",
    "crates/core/src/agent.rs",
    "crates/core/src/certifier.rs",
    "crates/core/src/coordinator.rs",
    "crates/runtime/src/site.rs",
    "crates/runtime/src/coordinator.rs",
    "crates/runtime/src/central.rs",
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

const WIRE: &str = "crates/net/src/wire.rs";

/// Everything the vocabulary rule reads: the wire codec, the five enum
/// declarations, and the handler files.
pub(crate) const VOCABULARY_FILES: &[&str] = &[
    WIRE,
    "crates/core/src/msg.rs",
    "crates/runtime/src/host.rs",
    "crates/ldbs/src/command.rs",
    "crates/histories/src/op.rs",
    "crates/core/src/agent.rs",
    "crates/core/src/coordinator.rs",
    "crates/runtime/src/central.rs",
    "crates/runtime/src/coordinator.rs",
    "crates/net/src/node.rs",
    "crates/net/src/tcp.rs",
    "crates/net/src/cluster.rs",
];

/// One message enum's cross-check spec.
struct Vocab {
    enum_name: &'static str,
    /// File declaring the enum.
    decl: &'static str,
    /// Variants from the *compiled* `specimens()` (None: codec-only enums
    /// have no specimens; source parse is the only inventory).
    compiled: Option<Vec<&'static str>>,
    /// Files of which at least one must mention `Enum::Variant` for a
    /// handler arm (empty: codec-only).
    handlers: fn(&str) -> Vec<&'static str>,
}

/// CtrlMsg variants route by direction: coordinator→central variants must
/// be handled by the central runtime, the rest by the coordinator runtime.
fn ctrl_handler(variant: &str) -> Vec<&'static str> {
    let to_central = CtrlMsg::specimens()
        .iter()
        .find(|m| m.variant_name() == variant)
        .map(CtrlMsg::is_to_central);
    match to_central {
        Some(true) => vec!["crates/runtime/src/central.rs"],
        Some(false) => vec!["crates/runtime/src/coordinator.rs"],
        None => vec![],
    }
}

/// The `vocabulary` rule, over [`VOCABULARY_FILES`].
pub(crate) fn vocabulary(fs: &FileSet, sink: &mut Sink) {
    const RULE: &str = "vocabulary";
    let specs = [
        Vocab {
            enum_name: "Message",
            decl: "crates/core/src/msg.rs",
            compiled: Some(
                Message::specimens()
                    .iter()
                    .map(|m| m.variant_name())
                    .collect(),
            ),
            // Downstream variants are handled by the agent, upstream by
            // the coordinator; requiring presence in the union still
            // catches a variant nobody handles.
            handlers: |_| vec!["crates/core/src/agent.rs", "crates/core/src/coordinator.rs"],
        },
        Vocab {
            enum_name: "CtrlMsg",
            decl: "crates/runtime/src/host.rs",
            compiled: Some(
                CtrlMsg::specimens()
                    .iter()
                    .map(|m| m.variant_name())
                    .collect(),
            ),
            handlers: ctrl_handler,
        },
        Vocab {
            enum_name: "WireMsg",
            decl: WIRE,
            compiled: Some(
                WireMsg::specimens()
                    .iter()
                    .map(|m| m.variant_name())
                    .collect(),
            ),
            handlers: |_| {
                vec![
                    "crates/net/src/node.rs",
                    "crates/net/src/tcp.rs",
                    "crates/net/src/cluster.rs",
                ]
            },
        },
        Vocab {
            enum_name: "Command",
            decl: "crates/ldbs/src/command.rs",
            compiled: None,
            handlers: |_| vec![],
        },
        Vocab {
            enum_name: "OpKind",
            decl: "crates/histories/src/op.rs",
            compiled: None,
            handlers: |_| vec![],
        },
    ];
    let Some(wire) = fs.by_rel(WIRE) else {
        return;
    };

    for spec in specs {
        let name = spec.enum_name;
        let Some(decl) = fs.by_rel(spec.decl) else {
            continue;
        };
        let Some(variants) = enum_variants(&decl.code, name) else {
            sink.report(decl, RULE, 0, format!("could not find `enum {name}`"));
            continue;
        };

        // Source enum vs compiled specimens(): both directions.
        if let Some(compiled) = &spec.compiled {
            for (v, at) in &variants {
                if !compiled.iter().any(|c| c == v) {
                    let msg = format!(
                        "{name}::{v} has no specimen: extend {name}::specimens() so the \
                         codec round-trip tests cover it"
                    );
                    sink.report(decl, RULE, *at, msg);
                }
            }
            for c in compiled {
                if !variants.iter().any(|(v, _)| v == c) {
                    let msg =
                        format!("{name}::specimens() names `{c}` but the enum has no such variant");
                    sink.report(decl, RULE, 0, msg);
                }
            }
        }

        // Wire codec arms: the variant must be constructed/matched inside
        // both `fn put` and `fn get` of `impl Wire for <Enum>`.
        let Some(body) = impl_body(&wire.code, &["Wire", "for", name]) else {
            sink.report(wire, RULE, 0, format!("no `impl Wire for {name}` found"));
            continue;
        };
        for (func, what) in [("put", "encode"), ("get", "decode")] {
            let Some(region) = fn_body(&wire.code, func, body) else {
                let msg = format!("`impl Wire for {name}` has no fn {func}");
                sink.report(wire, RULE, body.0, msg);
                continue;
            };
            for (v, _) in &variants {
                if find_token_seq(&wire.code, &[name, "::", v], region).is_none() {
                    let msg = format!("{name}::{v} has no {what} arm in the wire codec");
                    sink.report(wire, RULE, region.0, msg);
                }
            }
        }

        // Handler arms.
        for (v, at) in &variants {
            let files = (spec.handlers)(v);
            let handled = files
                .iter()
                .filter_map(|rel| fs.by_rel(rel))
                .any(|h| find_token_seq(&h.code, &[name, "::", v], (0, h.code.len())).is_some());
            if !files.is_empty() && !handled {
                let msg = format!(
                    "{name}::{v} is never handled (expected a match arm in one of: {})",
                    files.join(", ")
                );
                sink.report(decl, RULE, *at, msg);
            }
        }
    }
}
