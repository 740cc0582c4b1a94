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
//! and everything they reach through the file-local call graph (shared
//! with the conc pass via [`crate::scan`]).
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `hot-alloc-in-loop` | construction of a fresh `Vec`/`String`/`format!`/`.clone()`/`.to_vec()`/`Type::new()` inside a loop body on a hot path: one allocation per message (or worse) |
//! | `hot-lock-across-send` | a let-bound `lock()`/`read()`/`write()` guard live across a channel/transport send or blocking call |
//! | `hot-repeated-lookup` | the same receiver/method/argument map lookup repeated in one function body: hoist it |
//! | `hot-linear-scan` | a `for` loop over a growable `self` collection inside a per-message handler — the shape of the pre-PR-6 eager certifier refresh |
//! | `hot-unbounded-growth` | an insertion into a `self` collection (or a long-lived local fed inside an event loop) with no reachable drain/compaction site — the Gray–Lamport acceptor-log concern |
//!
//! Every finding names the hot entry point that reaches the offending
//! code. Suppressions **require a written justification**:
//!
//! ```text
//! // mdbs-check: allow(hot-alloc-in-loop, "the Vec is moved into the channel")
//! ```
//!
//! An `allow(hot-…)` without a non-empty quoted justification does not
//! suppress anything and is itself reported (rule `hot-config`), so every
//! accepted cost on a hot path carries its why in the source. `#[cfg(test)]`
//! items are exempt, as in the other passes. The analysis is deliberately
//! file-local: calls into other crates/files are not followed, so each
//! file's entry list names the loops and handlers of that file.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lint::Finding;
use crate::scan::{
    calls_in, discover_fns, find_token_seq, guard_scope, ident_end, ident_occurrences, ident_start,
    idents_in, is_ident_byte, is_method_call, loops_in, match_brace, next_nonws, nonws_from,
    prev_ident_is, prev_nonws_at, SourceFile,
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
/// the file seeds the closure — for the certifier this deliberately sweeps
/// in both the `CertIndex` production path and the `LinearReference`
/// differential oracle that shares its method names.
pub const HOT_PATHS: &[(&str, &[(&str, HotKind)])] = &[
    (
        "crates/core/src/certifier.rs",
        &[
            ("register", Handler),
            ("register_frozen", Handler),
            ("freeze", Handler),
            ("unfreeze", Handler),
            ("remove", Handler),
            ("disjoint", Handler),
            ("commit_blocked", Handler),
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

const RULE_ALLOC: &str = "hot-alloc-in-loop";
const RULE_LOCK: &str = "hot-lock-across-send";
const RULE_LOOKUP: &str = "hot-repeated-lookup";
const RULE_SCAN: &str = "hot-linear-scan";
const RULE_GROWTH: &str = "hot-unbounded-growth";
/// Table/suppression hygiene: a `HOT_PATHS` entry that no longer exists,
/// or an `allow(hot-…)` without a justification.
const RULE_CONFIG: &str = "hot-config";

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

/// Blocking / transport operations for `hot-lock-across-send`: method form.
const SEND_METHODS: &[&str] = &["send", "write_all", "flush", "recv", "recv_timeout", "wait"];
/// Blocking / transport operations: plain-call form.
const SEND_CALLS: &[&str] = &["send_wire", "send_wire_group", "sleep"];

/// Run the hotpath pass over the workspace at `root`.
pub fn run_hotpath(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for (rel, entries) in HOT_PATHS {
        let src = SourceFile::read(&root.join(rel), (*rel).to_string())?;
        check_file(&src, entries, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Run every hotpath rule over one parsed file against its entry list.
/// Public so the fixture tests can feed synthetic sources.
pub fn check_file(src: &SourceFile, entries: &[(&str, HotKind)], findings: &mut Vec<Finding>) {
    let code = &src.code;
    let fns = discover_fns(code);
    let (allowed, mut config_findings) = hot_suppressions(src);
    findings.append(&mut config_findings);

    // Per-function callee adjacency, once. Calls are matched by name, so a
    // `Foo::new(…)` anywhere in a hot function would sweep the file's own
    // constructors (and their startup-only bodies) into the closure; the
    // closure therefore does not descend into constructor-named callees —
    // a constructor called *on* a hot path is already reported at its call
    // site by `hot-alloc-in-loop`.
    let callees: Vec<Vec<usize>> = fns
        .iter()
        .map(|f| {
            calls_in(code, &fns, f.body)
                .into_iter()
                .map(|(callee, _)| callee)
                .filter(|&c| !matches!(fns[c].name.as_str(), "new" | "with_capacity" | "default"))
                .collect()
        })
        .collect();

    // Transitive closure from each entry: which functions are hot, whether
    // any per-message handler reaches them, and one entry name for the
    // finding message.
    let mut hot = vec![false; fns.len()];
    let mut handler_hot = vec![false; fns.len()];
    let mut entry_of: Vec<Option<&str>> = vec![None; fns.len()];
    for (name, kind) in entries {
        let seeds: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == *name && !src.in_test(f.body.0))
            .map(|(i, _)| i)
            .collect();
        if seeds.is_empty() {
            findings.push(Finding {
                rule: RULE_CONFIG,
                file: src.rel.clone(),
                line: 1,
                msg: format!(
                    "HOT_PATHS names entry `{name}`, which does not exist in this file — \
                     stale table entry"
                ),
            });
            continue;
        }
        let mut stack = seeds;
        let mut seen = BTreeSet::new();
        while let Some(i) = stack.pop() {
            if !seen.insert(i) {
                continue;
            }
            hot[i] = true;
            if *kind == Handler {
                handler_hot[i] = true;
            }
            if entry_of[i].is_none() {
                entry_of[i] = Some(name);
            }
            for &c in &callees[i] {
                stack.push(c);
            }
        }
    }

    // The set of `self.<field>` collections grown anywhere in the file —
    // the candidates for hot-linear-scan and hot-unbounded-growth.
    let grown = grown_fields(code);

    let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for (i, f) in fns.iter().enumerate() {
        if !hot[i] || src.in_test(f.body.0) {
            continue;
        }
        let entry = entry_of[i].unwrap_or(&f.name);
        alloc_rule(src, f.body, entry, &allowed, &mut seen, findings);
        lock_rule(src, f.body, entry, &allowed, &mut seen, findings);
        lookup_rule(src, f.body, entry, &allowed, &mut seen, findings);
        if handler_hot[i] {
            scan_rule(src, f.body, entry, &grown, &allowed, &mut seen, findings);
        }
        growth_rule(src, f.body, entry, &allowed, &mut seen, findings);
    }
}

// ---------------------------------------------------------------------------
// Suppression with mandatory justification.
// ---------------------------------------------------------------------------

/// Parse `// mdbs-check: allow(hot-…, "why")` lines. Returns per-line sets
/// of justified hot-rule suppressions (a set covers its own line and the
/// next), plus `hot-config` findings for hot-rule allows with no quoted
/// non-empty justification.
fn hot_suppressions(src: &SourceFile) -> (Vec<BTreeSet<String>>, Vec<Finding>) {
    let mut sets: Vec<BTreeSet<String>> = Vec::new();
    let mut bad = Vec::new();
    let mut offset = 0usize;
    for (idx, line) in src.raw.lines().enumerate() {
        sets.push(BTreeSet::new());
        let line_off = offset;
        offset += line.len() + 1;
        let Some(pos) = line.find("mdbs-check: allow(") else {
            continue;
        };
        let rest = &line[pos + "mdbs-check: allow(".len()..];
        let mut rules: Vec<String> = Vec::new();
        let mut justification: Option<String> = None;
        let mut cur = String::new();
        let mut quote: Option<String> = None;
        for ch in rest.chars() {
            if let Some(buf) = quote.as_mut() {
                if ch == '"' {
                    justification = Some(quote.take().unwrap_or_default());
                } else {
                    buf.push(ch);
                }
                continue;
            }
            match ch {
                '"' => quote = Some(String::new()),
                ',' | ')' => {
                    if !cur.trim().is_empty() {
                        rules.push(cur.trim().to_string());
                    }
                    cur.clear();
                    if ch == ')' {
                        break;
                    }
                }
                _ => cur.push(ch),
            }
        }
        let hot_rules: Vec<String> = rules
            .iter()
            .filter(|r| r.starts_with("hot-"))
            .cloned()
            .collect();
        if hot_rules.is_empty() || src.in_test(line_off) {
            continue;
        }
        match justification.as_deref().map(str::trim) {
            Some(j) if !j.is_empty() => {
                for r in hot_rules {
                    sets[idx].insert(r);
                }
            }
            _ => {
                bad.push(Finding {
                    rule: RULE_CONFIG,
                    file: src.rel.clone(),
                    line: idx + 1,
                    msg: format!(
                        "suppressing `{}` requires a justification: \
                         // mdbs-check: allow({}, \"why this cost is accepted\")",
                        hot_rules.join("`, `"),
                        hot_rules.join(", "),
                    ),
                });
            }
        }
    }
    (sets, bad)
}

/// Whether `rule` is justified-suppressed at 1-based `line` (the
/// suppression comment covers its own line and the next).
fn suppressed_at(allowed: &[BTreeSet<String>], rule: &str, line: usize) -> bool {
    let check = |l: usize| allowed.get(l).is_some_and(|s| s.contains(rule));
    check(line.wrapping_sub(1)) || (line >= 2 && check(line - 2))
}

/// Append a finding unless the site is test-only, already reported, or
/// suppressed with a justification.
#[allow(clippy::too_many_arguments)]
fn push(
    src: &SourceFile,
    allowed: &[BTreeSet<String>],
    seen: &mut BTreeSet<(usize, &'static str)>,
    rule: &'static str,
    at: usize,
    msg: String,
    findings: &mut Vec<Finding>,
) {
    if src.in_test(at) || !seen.insert((at, rule)) {
        return;
    }
    let line = src.line_of(at);
    if suppressed_at(allowed, rule, line) {
        return;
    }
    findings.push(Finding {
        rule,
        file: src.rel.clone(),
        line,
        msg,
    });
}

// ---------------------------------------------------------------------------
// Rule 1: hot-alloc-in-loop.
// ---------------------------------------------------------------------------

fn alloc_rule(
    src: &SourceFile,
    body: (usize, usize),
    entry: &str,
    allowed: &[BTreeSet<String>],
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let code = &src.code;
    let bytes = code.as_bytes();
    for (_, lbody) in loops_in(code, body) {
        // Method-form allocations: `.clone()`, `.to_vec()`.
        for m in ["clone", "to_vec"] {
            for occ in idents_in(code, m, lbody) {
                if is_method_call(code, occ, m.len()) {
                    push(
                        src,
                        allowed,
                        seen,
                        RULE_ALLOC,
                        occ,
                        format!(
                            "`.{m}()` allocates on every iteration of a hot loop \
                             (reached from `{entry}`)"
                        ),
                        findings,
                    );
                }
            }
        }
        // Macro-form allocations: `vec![…]`, `format!(…)`.
        for m in ["vec", "format"] {
            for occ in idents_in(code, m, lbody) {
                if next_nonws(code, occ + m.len()) == Some(b'!') {
                    push(
                        src,
                        allowed,
                        seen,
                        RULE_ALLOC,
                        occ,
                        format!(
                            "`{m}!` allocates on every iteration of a hot loop \
                             (reached from `{entry}`)"
                        ),
                        findings,
                    );
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
                let s = ident_start(bytes, q);
                let ty = &code[s..=q];
                if !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                    continue;
                }
                push(
                    src,
                    allowed,
                    seen,
                    RULE_ALLOC,
                    occ,
                    format!(
                        "`{ty}::{m}(…)` constructs a fresh value on every iteration of a \
                         hot loop (reached from `{entry}`) — hoist and reuse it"
                    ),
                    findings,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: hot-lock-across-send.
// ---------------------------------------------------------------------------

fn lock_rule(
    src: &SourceFile,
    body: (usize, usize),
    entry: &str,
    allowed: &[BTreeSet<String>],
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let code = &src.code;
    for m in ["lock", "read", "write"] {
        for occ in idents_in(code, m, body) {
            if !is_method_call(code, occ, m.len()) {
                continue;
            }
            let Some(open) = nonws_from(code, occ + m.len()) else {
                continue;
            };
            let Some(call_end) = match_brace(code, open) else {
                continue;
            };
            let Some(scope) = guard_scope(code, body, occ, call_end) else {
                continue; // statement-scoped temporary
            };
            let guard_line = src.line_of(occ);
            for mm in SEND_METHODS {
                for s in idents_in(code, mm, scope) {
                    if is_method_call(code, s, mm.len()) {
                        push(
                            src,
                            allowed,
                            seen,
                            RULE_LOCK,
                            s,
                            format!(
                                "`.{mm}(…)` while the `.{m}()` guard taken at line \
                                 {guard_line} is live (reached from `{entry}`) — \
                                 release the guard before sending/blocking"
                            ),
                            findings,
                        );
                    }
                }
            }
            for cc in SEND_CALLS {
                for s in idents_in(code, cc, scope) {
                    if next_nonws(code, s + cc.len()) == Some(b'(') {
                        push(
                            src,
                            allowed,
                            seen,
                            RULE_LOCK,
                            s,
                            format!(
                                "`{cc}(…)` while the `.{m}()` guard taken at line \
                                 {guard_line} is live (reached from `{entry}`) — \
                                 release the guard before sending/blocking"
                            ),
                            findings,
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: hot-repeated-lookup.
// ---------------------------------------------------------------------------

fn lookup_rule(
    src: &SourceFile,
    body: (usize, usize),
    entry: &str,
    allowed: &[BTreeSet<String>],
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let code = &src.code;
    let mut by_key: BTreeMap<(String, &str, String), Vec<usize>> = BTreeMap::new();
    for m in LOOKUP_METHODS {
        for occ in idents_in(code, m, body) {
            if !is_method_call(code, occ, m.len()) {
                continue;
            }
            let Some(dot) = prev_nonws_at(code, occ) else {
                continue;
            };
            let Some(start) = receiver_start(code, dot) else {
                continue;
            };
            let recv = normalize(&code[start..dot]);
            if recv.is_empty() {
                continue;
            }
            let Some(open) = nonws_from(code, occ + m.len()) else {
                continue;
            };
            let Some(close) = match_brace(code, open) else {
                continue;
            };
            let args = normalize(&code[open + 1..close - 1]);
            if args.is_empty() {
                continue;
            }
            by_key.entry((recv, m, args)).or_default().push(occ);
        }
    }
    for ((recv, m, args), occs) in by_key {
        if occs.len() < 2 {
            continue;
        }
        push(
            src,
            allowed,
            seen,
            RULE_LOOKUP,
            occs[1],
            format!(
                "`{recv}.{m}({args})` is repeated {}× in one hot body (reached from \
                 `{entry}`) — hoist the lookup",
                occs.len()
            ),
            findings,
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 4: hot-linear-scan.
// ---------------------------------------------------------------------------

fn scan_rule(
    src: &SourceFile,
    body: (usize, usize),
    entry: &str,
    grown: &BTreeSet<String>,
    allowed: &[BTreeSet<String>],
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let code = &src.code;
    for (kw_at, lbody) in loops_in(code, body) {
        if !code[kw_at..].starts_with("for") {
            continue;
        }
        let header = (kw_at + 3, lbody.0.saturating_sub(1));
        // Bounded-window and compaction idioms are exactly the fixes this
        // rule asks for.
        if header_has_method(code, header, "range") || header_has_method(code, header, "drain") {
            continue;
        }
        for s_occ in idents_in(code, "self", header) {
            let Some(dot) = nonws_from(code, s_occ + 4) else {
                continue;
            };
            if code.as_bytes()[dot] != b'.' {
                continue;
            }
            let Some(fs) = nonws_from(code, dot + 1) else {
                continue;
            };
            if !is_ident_byte(code.as_bytes()[fs]) {
                continue;
            }
            let fe = ident_end(code.as_bytes(), fs);
            let field = &code[fs..fe];
            if grown.contains(field) {
                push(
                    src,
                    allowed,
                    seen,
                    RULE_SCAN,
                    kw_at,
                    format!(
                        "`for` over growable `self.{field}` inside a per-message \
                         handler (reached from `{entry}`): cost grows with the table \
                         — index or bound the scan"
                    ),
                    findings,
                );
            }
        }
    }
}

/// Whether `.name(` occurs as a method call within `range`.
fn header_has_method(code: &str, range: (usize, usize), name: &str) -> bool {
    idents_in(code, name, range)
        .into_iter()
        .any(|o| is_method_call(code, o, name.len()))
}

// ---------------------------------------------------------------------------
// Rule 5: hot-unbounded-growth.
// ---------------------------------------------------------------------------

fn growth_rule(
    src: &SourceFile,
    body: (usize, usize),
    entry: &str,
    allowed: &[BTreeSet<String>],
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let code = &src.code;
    let loops = loops_in(code, body);
    for m in INSERT_METHODS {
        for occ in idents_in(code, m, body) {
            if !is_method_call(code, occ, m.len()) {
                continue;
            }
            let Some(dot) = prev_nonws_at(code, occ) else {
                continue;
            };
            let Some(start) = receiver_start(code, dot) else {
                continue;
            };
            let recv = normalize(&code[start..dot]);
            if let Some(rest) = recv.strip_prefix("self.") {
                // A struct field: a drain site anywhere in the file clears it.
                let field: String = rest
                    .chars()
                    .take_while(|c| is_ident_byte(*c as u8))
                    .collect();
                if field.is_empty() {
                    continue;
                }
                if has_drain(code, &field, (0, code.len())) {
                    continue;
                }
                push(
                    src,
                    allowed,
                    seen,
                    RULE_GROWTH,
                    occ,
                    format!(
                        "`self.{field}` grows via `.{m}(…)` on a hot path (reached from \
                         `{entry}`) with no drain/compaction site in this file — bound \
                         it or compact it"
                    ),
                    findings,
                );
            } else if recv.bytes().all(is_ident_byte) {
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
                if !in_event_loop {
                    continue;
                }
                let declared_outside = idents_in(code, &recv, body).into_iter().any(|d| {
                    prev_ident_is(code, d, "mut")
                        && !loops.iter().any(|(_, lb)| d >= lb.0 && d < lb.1)
                });
                if !declared_outside {
                    continue;
                }
                if has_drain(code, &recv, body) {
                    continue;
                }
                push(
                    src,
                    allowed,
                    seen,
                    RULE_GROWTH,
                    occ,
                    format!(
                        "local `{recv}` grows via `.{m}(…)` inside an event loop \
                         (reached from `{entry}`) and is never drained — bound it or \
                         compact it"
                    ),
                    findings,
                );
            }
        }
    }
}

/// The `self.<field>` collections grown anywhere in the file.
fn grown_fields(code: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for m in INSERT_METHODS {
        for occ in ident_occurrences(code, m) {
            if !is_method_call(code, occ, m.len()) {
                continue;
            }
            let Some(dot) = prev_nonws_at(code, occ) else {
                continue;
            };
            let Some(start) = receiver_start(code, dot) else {
                continue;
            };
            let recv = normalize(&code[start..dot]);
            if let Some(rest) = recv.strip_prefix("self.") {
                let field: String = rest
                    .chars()
                    .take_while(|c| is_ident_byte(*c as u8))
                    .collect();
                if !field.is_empty() {
                    out.insert(field);
                }
            }
        }
    }
    out
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

    fn check(raw: &str, entries: &[(&str, HotKind)]) -> Vec<Finding> {
        let src = SourceFile::parse(raw.to_string(), "synthetic.rs".to_string());
        let mut findings = Vec::new();
        check_file(&src, entries, &mut findings);
        findings
    }

    #[test]
    fn closure_reaches_allocations_through_local_calls() {
        // `helper` is only hot because `handle` calls it.
        let raw = "impl S {\n\
                   fn handle(&mut self) { self.helper(); }\n\
                   fn helper(&mut self) { for x in 0..4 { let v: Vec<u8> = Vec::new(); } }\n\
                   fn cold(&mut self) { for x in 0..4 { let v: Vec<u8> = Vec::new(); } }\n\
                   }\n";
        let f = check(raw, &[("handle", Handler)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_ALLOC);
        assert!(f[0].msg.contains("`handle`"), "{}", f[0].msg);
    }

    #[test]
    fn missing_entry_is_a_config_finding() {
        let f = check("fn present() {}\n", &[("absent", Handler)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_CONFIG);
        assert!(f[0].msg.contains("absent"));
    }

    #[test]
    fn justified_suppression_silences_and_unjustified_does_not() {
        let justified = "fn handle() {\n\
             for x in 0..4 {\n\
                 // mdbs-check: allow(hot-alloc-in-loop, \"copies are the point\")\n\
                 let v = x.clone();\n\
             }\n\
         }\n";
        assert!(check(justified, &[("handle", Handler)]).is_empty());

        let unjustified = "fn handle() {\n\
             for x in 0..4 {\n\
                 // mdbs-check: allow(hot-alloc-in-loop)\n\
                 let v = x.clone();\n\
             }\n\
         }\n";
        let f = check(unjustified, &[("handle", Handler)]);
        let rules: Vec<_> = f.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&RULE_CONFIG), "{f:?}");
        assert!(rules.contains(&RULE_ALLOC), "{f:?}");
    }

    #[test]
    fn receiver_paths_cross_call_and_index_groups() {
        let code = "self.outgoing.entry(to).or_default().push";
        let dot = code.rfind('.').unwrap();
        let start = receiver_start(code, dot).unwrap();
        assert_eq!(&code[start..dot], "self.outgoing.entry(to).or_default()");
    }
}
