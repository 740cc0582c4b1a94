//! The hotpath pass: static performance analysis of the per-message hot
//! paths.
//!
//! The conc pass and the kill matrix guard *correctness* of the threaded
//! and protocol code; nothing guards its *cost shape*. The certifier
//! rewrite (PR 6) replaced an eager O(N) table refresh with a lazy
//! refresh floor, and the consensus layer compacts acceptor logs with
//! `Clear` — both defects that no checker would catch if they were
//! reintroduced, because they are outcome-invisible: the protocol still
//! commits, it just burns CPU or memory linearly in the table size. This
//! pass encodes those lessons as lint rules over the *hot paths*: the
//! per-message entry points named in the checked-in [`HOT_PATHS`] table
//! and everything they reach through the file-local call graph.
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `hot-alloc-in-loop` | construction of a fresh `Vec`/`String`/`format!`/`.clone()`/`.to_vec()`/`Type::new()` inside a loop body on a hot path: one allocation per message (or worse) |
//! | `hot-repeated-lookup` | the same receiver/method/argument map lookup repeated in one function body: hoist it |
//! | `hot-linear-scan` | a `for` loop over a growable `self` collection inside a per-message handler — the shape of the pre-PR-6 eager certifier refresh |
//! | `hot-unbounded-growth` | an insertion into a `self` collection (or a long-lived local fed inside an event loop) with no reachable drain/compaction site — the Gray–Lamport acceptor-log concern |
//! | `check-config` | a [`HOT_PATHS`] entry that no longer exists in its file |
//!
//! Every finding names the hot entry point that reaches the offending
//! code. The analysis is deliberately file-local — the closure is
//! [`FileSet::closure`] over a one-file set, so calls into other
//! crates/files are not followed and each file's entry list names the
//! loops and handlers of that file. Constructor-named callees are not
//! descended into ([`crate::scan::SKIP_CALLEES`]): a constructor called
//! *on* a hot path is already reported at its call site by
//! `hot-alloc-in-loop`.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{Sink, CONFIG};
use crate::scan::{
    find_token_seq, ident_end, ident_occurrences, ident_start, idents_in, is_ident_byte,
    is_method_call, loops_in, match_brace, next_nonws, nonws_from, prev_ident_is, prev_nonws_at,
    FileSet, FnRef, SourceFile,
};

/// How an entry point is hot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HotKind {
    /// Runs once per protocol message; its whole body is per-message cost.
    Handler,
    /// A long-lived event loop; the loops inside it are the hot iterations.
    LoopDriver,
}

use HotKind::{Handler, LoopDriver};

/// The per-message entry points, per file. Entries are matched by function
/// *name* (the model is token-level), so every function with that name in
/// the file seeds the closure. The closure is file-local, so the certifier
/// calls `Agent::handle` makes are seeded in their own file.
pub const HOT_PATHS: &[(&str, &[(&str, HotKind)])] = &[
    (
        "crates/core/src/certifier.rs",
        &[
            ("certify_prepare", Handler),
            ("extend", Handler),
            ("freeze", Handler),
            ("revive", Handler),
            ("commit_gate", Handler),
            ("leave", Handler),
            ("oldest", Handler),
        ],
    ),
    ("crates/core/src/agent.rs", &[("handle", Handler)]),
    (
        "crates/core/src/coordinator.rs",
        &[
            ("begin", Handler),
            ("on_message", Handler),
            ("commit_decided", Handler),
        ],
    ),
    (
        "crates/mdbs/src/sim.rs",
        &[("run", LoopDriver), ("dispatch", Handler)],
    ),
    // The one node loop and the dispatch every host steps.
    (
        "crates/runtime/src/node.rs",
        &[("run_node", LoopDriver), ("on_event", Handler)],
    ),
    // The threaded and TCP hosts' ports: what the node loop calls per
    // event.
    (
        "crates/mdbs/src/threaded.rs",
        &[("recv", Handler), ("try_recv", Handler), ("send", Handler)],
    ),
    (
        "crates/net/src/tcp.rs",
        &[
            ("run", LoopDriver),
            ("reader_loop", LoopDriver),
            ("poll", Handler),
            ("send_wire", Handler),
            ("send_wire_group", Handler),
        ],
    ),
    (
        "crates/net/src/node.rs",
        &[
            ("recv", Handler),
            ("try_recv", Handler),
            ("flush", Handler),
            ("global_finished", Handler),
        ],
    ),
    (
        "crates/consensus/src/leader.rs",
        &[
            ("on_msg", Handler),
            ("register", Handler),
            ("finished", Handler),
        ],
    ),
    ("crates/consensus/src/acceptor.rs", &[("handle", Handler)]),
];

pub(crate) const RULE_ALLOC: &str = "hot-alloc-in-loop";
pub(crate) const RULE_LOOKUP: &str = "hot-repeated-lookup";
pub(crate) const RULE_SCAN: &str = "hot-linear-scan";
pub(crate) const RULE_GROWTH: &str = "hot-unbounded-growth";

/// Map lookup methods for `hot-repeated-lookup`.
const LOOKUP_METHODS: &[&str] = &["get", "get_mut", "contains_key", "contains"];

/// Insertion methods that grow a collection.
const INSERT_METHODS: &[&str] = &["insert", "push", "push_back", "push_front", "extend"];

/// Methods that shrink or reset a collection (a reachable drain site).
const DRAIN_METHODS: &[&str] = &[
    "remove",
    "pop",
    "pop_first",
    "pop_last",
    "pop_front",
    "pop_back",
    "pop_due",
    "drain",
    "clear",
    "retain",
    "truncate",
    "split_off",
];

/// One function on a hot path.
struct HotFn<'a> {
    body: (usize, usize),
    /// The first table entry that reaches it, for the finding message.
    entry: &'a str,
    /// Whether a per-message handler reaches it.
    handler: bool,
}

/// One [`HOT_PATHS`] file with the closure of its entries.
pub struct HotFile<'a> {
    pub(crate) src: &'a SourceFile,
    fns: Vec<HotFn<'a>>,
    /// Entries the file no longer defines.
    stale: Vec<&'a str>,
}

impl<'a> HotFile<'a> {
    /// `fs` is the one-file set of the file; entries are matched by name.
    pub fn of(fs: &'a FileSet, entries: &'a [(&'a str, HotKind)]) -> HotFile<'a> {
        let mut fns: BTreeMap<FnRef, HotFn> = BTreeMap::new();
        let mut stale = Vec::new();
        for &(entry, kind) in entries {
            let seeds = fs.entries(0, entry);
            if seeds.is_empty() {
                stale.push(entry);
            }
            for r in fs.closure(&seeds) {
                let body = fs.fn_info(r).body;
                let hot = fns.entry(r).or_insert(HotFn {
                    body,
                    entry,
                    handler: false,
                });
                hot.handler |= kind == Handler;
            }
        }
        HotFile {
            src: fs.file(0),
            fns: fns.into_values().collect(),
            stale,
        }
    }
}

pub(crate) fn stale_entries(hot: &HotFile, sink: &mut Sink) {
    for name in &hot.stale {
        let msg = format!(
            "HOT_PATHS names entry `{name}`, which does not exist in this file — stale \
             table entry"
        );
        sink.report(hot.src, CONFIG, 0, msg);
    }
}

// ---------------------------------------------------------------------------
// hot-alloc-in-loop.
// ---------------------------------------------------------------------------

pub(crate) fn alloc_in_loop(hot: &HotFile, sink: &mut Sink) {
    let code = &hot.src.code;
    let bytes = code.as_bytes();
    for f in &hot.fns {
        let entry = f.entry;
        let mut report = |at: usize, what: String, fix: &str| {
            let msg =
                format!("{what} on every iteration of a hot loop (reached from `{entry}`){fix}");
            sink.report(hot.src, RULE_ALLOC, at, msg);
        };
        for (_, lbody) in loops_in(code, f.body) {
            // Method-form allocations: `.clone()`, `.to_vec()`.
            for m in ["clone", "to_vec"] {
                for occ in idents_in(code, m, lbody) {
                    if is_method_call(code, occ, m.len()) {
                        report(occ, format!("`.{m}()` allocates"), "");
                    }
                }
            }
            // Macro-form allocations: `vec![…]`, `format!(…)`.
            for m in ["vec", "format"] {
                for occ in idents_in(code, m, lbody) {
                    if next_nonws(code, occ + m.len()) == Some(b'!') {
                        report(occ, format!("`{m}!` allocates"), "");
                    }
                }
            }
            // Constructor-form: `Type::new(…)` / `Type::with_capacity(…)` for a
            // capitalized type — a fresh object per iteration.
            for m in ["new", "with_capacity"] {
                for occ in idents_in(code, m, lbody) {
                    if next_nonws(code, occ + m.len()) != Some(b'(') {
                        continue;
                    }
                    let Some(p) = prev_nonws_at(code, occ) else {
                        continue;
                    };
                    if bytes[p] != b':' || p == 0 || bytes[p - 1] != b':' {
                        continue;
                    }
                    let Some(q) = prev_nonws_at(code, p - 1) else {
                        continue;
                    };
                    if !is_ident_byte(bytes[q]) {
                        continue;
                    }
                    let ty = &code[ident_start(bytes, q)..=q];
                    if ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                        let what = format!("`{ty}::{m}(…)` constructs a fresh value");
                        report(occ, what, " — hoist and reuse it");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hot-repeated-lookup.
// ---------------------------------------------------------------------------

pub(crate) fn repeated_lookup(hot: &HotFile, sink: &mut Sink) {
    let code = &hot.src.code;
    for f in &hot.fns {
        let mut by_key: BTreeMap<(String, &str, String), Vec<usize>> = BTreeMap::new();
        for m in LOOKUP_METHODS {
            for occ in idents_in(code, m, f.body) {
                let Some((recv, open)) = method_call(code, occ, m.len()) else {
                    continue;
                };
                let Some(close) = match_brace(code, open) else {
                    continue;
                };
                let args = normalize(&code[open + 1..close - 1]);
                if !recv.is_empty() && !args.is_empty() {
                    by_key.entry((recv, m, args)).or_default().push(occ);
                }
            }
        }
        for ((recv, m, args), occs) in by_key {
            if occs.len() >= 2 {
                let msg = format!(
                    "`{recv}.{m}({args})` is repeated {}× in one hot body (reached from \
                     `{}`) — hoist the lookup",
                    occs.len(),
                    f.entry
                );
                sink.report(hot.src, RULE_LOOKUP, occs[1], msg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hot-linear-scan.
// ---------------------------------------------------------------------------

pub(crate) fn linear_scan(hot: &HotFile, sink: &mut Sink) {
    let code = &hot.src.code;
    let bytes = code.as_bytes();
    // The `self.<field>` collections grown anywhere in the file.
    let grown: BTreeSet<String> = INSERT_METHODS
        .iter()
        .flat_map(|m| {
            ident_occurrences(code, m)
                .into_iter()
                .filter_map(|occ| method_call(code, occ, m.len()))
        })
        .filter_map(|(recv, _)| self_field(&recv))
        .collect();
    for f in hot.fns.iter().filter(|f| f.handler) {
        for (kw_at, lbody) in loops_in(code, f.body) {
            if !code[kw_at..].starts_with("for") {
                continue;
            }
            let header = (kw_at + 3, lbody.0.saturating_sub(1));
            // Bounded-window and compaction idioms are exactly the fixes this
            // rule asks for.
            let has_method = |name: &str| {
                idents_in(code, name, header)
                    .into_iter()
                    .any(|o| is_method_call(code, o, name.len()))
            };
            if has_method("range") || has_method("drain") {
                continue;
            }
            for s_occ in idents_in(code, "self", header) {
                let Some(fs) = nonws_from(code, s_occ + 4)
                    .filter(|&dot| bytes[dot] == b'.')
                    .and_then(|dot| nonws_from(code, dot + 1))
                else {
                    continue;
                };
                let field = &code[fs..ident_end(bytes, fs)];
                if grown.contains(field) {
                    let msg = format!(
                        "`for` over growable `self.{field}` inside a per-message handler \
                         (reached from `{}`): cost grows with the table — index or bound \
                         the scan",
                        f.entry
                    );
                    sink.report(hot.src, RULE_SCAN, kw_at, msg);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hot-unbounded-growth.
// ---------------------------------------------------------------------------

pub(crate) fn unbounded_growth(hot: &HotFile, sink: &mut Sink) {
    let code = &hot.src.code;
    for f in &hot.fns {
        let loops = loops_in(code, f.body);
        for m in INSERT_METHODS {
            for occ in idents_in(code, m, f.body) {
                let Some((recv, _)) = method_call(code, occ, m.len()) else {
                    continue;
                };
                if let Some(field) = self_field(&recv) {
                    // A struct field: a drain site anywhere in the file clears it.
                    if !has_drain(code, &field, (0, code.len())) {
                        let msg = format!(
                            "`self.{field}` grows via `.{m}(…)` on a hot path (reached from \
                             `{}`) with no drain/compaction site in this file — bound it or \
                             compact it",
                            f.entry
                        );
                        sink.report(hot.src, RULE_GROWTH, occ, msg);
                    }
                } else if !recv.is_empty() && recv.bytes().all(is_ident_byte) {
                    // A long-lived local fed inside an event loop: only flagged
                    // when the insert sits inside a `loop`/`while` (the event
                    // loop shape), the binding lives outside every loop, and
                    // the function never drains it. A builder `for` over its
                    // input is not an event loop.
                    let in_event_loop = loops.iter().any(|(kw, lb)| {
                        occ >= lb.0
                            && occ < lb.1
                            && (code[*kw..].starts_with("loop") || code[*kw..].starts_with("while"))
                    });
                    let declared_outside = idents_in(code, &recv, f.body).into_iter().any(|d| {
                        prev_ident_is(code, d, "mut")
                            && !loops.iter().any(|(_, lb)| d >= lb.0 && d < lb.1)
                    });
                    if in_event_loop && declared_outside && !has_drain(code, &recv, f.body) {
                        let msg = format!(
                            "local `{recv}` grows via `.{m}(…)` inside an event loop (reached \
                             from `{}`) and is never drained — bound it or compact it",
                            f.entry
                        );
                        sink.report(hot.src, RULE_GROWTH, occ, msg);
                    }
                }
            }
        }
    }
}

/// If the identifier at `occ` is a method call `<recv>.name(`, the
/// whitespace-free receiver path and the offset of the `(`.
fn method_call(code: &str, occ: usize, len: usize) -> Option<(String, usize)> {
    if !is_method_call(code, occ, len) {
        return None;
    }
    let dot = prev_nonws_at(code, occ)?;
    let start = receiver_start(code, dot)?;
    Some((normalize(&code[start..dot]), nonws_from(code, occ + len)?))
}

/// The field of a `self.<field>…` receiver path.
fn self_field(recv: &str) -> Option<String> {
    let rest = recv.strip_prefix("self.")?;
    let field: String = rest
        .chars()
        .take_while(|c| is_ident_byte(*c as u8))
        .collect();
    (!field.is_empty()).then_some(field)
}

/// Whether `name` has a reachable drain/compaction site within `range`:
/// `name.<drain-method>(…)`, `take/replace(&mut [self.]name…)`, or a
/// whole-value reset `name = …`.
fn has_drain(code: &str, name: &str, range: (usize, usize)) -> bool {
    let bytes = code.as_bytes();
    for occ in idents_in(code, name, range) {
        let after = occ + name.len();
        if let Some(dot) = nonws_from(code, after) {
            // `name.<drain>(` — possibly with whitespace.
            if bytes[dot] == b'.' {
                if let Some(ms) = nonws_from(code, dot + 1) {
                    if is_ident_byte(bytes[ms]) {
                        let me = ident_end(bytes, ms);
                        if DRAIN_METHODS.contains(&&code[ms..me])
                            && next_nonws(code, me) == Some(b'(')
                        {
                            return true;
                        }
                    }
                }
            }
            // Whole-value reset: `name = …` (not `==`).
            if bytes[dot] == b'='
                && bytes.get(dot + 1) != Some(&b'=')
                && bytes.get(dot + 1) != Some(&b'>')
            {
                return true;
            }
        }
    }
    // `take(&mut [self.]name)` / `replace(&mut [self.]name, …)`.
    for f in ["take", "replace"] {
        if find_token_seq(code, &[f, "(", "&", "mut", "self", ".", name], range).is_some()
            || find_token_seq(code, &[f, "(", "&", "mut", name], range).is_some()
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Receiver-path extraction.
// ---------------------------------------------------------------------------

/// Start offset of the dotted receiver path ending just before `dot` (the
/// `.` of a method call): walks left over identifiers, `.`, `::`, and
/// balanced `(…)`/`[…]` groups.
fn receiver_start(code: &str, dot: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = dot;
    loop {
        let mut p = prev_nonws_at(code, start)?;
        while bytes[p] == b')' || bytes[p] == b']' {
            let (o, c) = if bytes[p] == b')' {
                (b'(', b')')
            } else {
                (b'[', b']')
            };
            let mut depth = 0i32;
            loop {
                if bytes[p] == c {
                    depth += 1;
                } else if bytes[p] == o {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if p == 0 {
                    return None;
                }
                p -= 1;
            }
            p = prev_nonws_at(code, p)?;
        }
        if !is_ident_byte(bytes[p]) {
            return None;
        }
        start = ident_start(bytes, p);
        let Some(q) = prev_nonws_at(code, start) else {
            return Some(start);
        };
        if bytes[q] == b'.' {
            start = q;
            continue;
        }
        if bytes[q] == b':' && q > 0 && bytes[q - 1] == b':' {
            start = q - 1;
            continue;
        }
        return Some(start);
    }
}

/// Strip all whitespace (for stable receiver/argument keys).
fn normalize(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_paths_cross_call_and_index_groups() {
        let code = "self.outgoing.entry(to).or_default().push";
        let dot = code.rfind('.').unwrap();
        let start = receiver_start(code, dot).unwrap();
        assert_eq!(&code[start..dot], "self.outgoing.entry(to).or_default()");
    }
}
