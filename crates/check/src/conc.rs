//! The concurrency pass: a static lock/channel discipline checker for the
//! crates that actually spawn OS threads — the threaded runner, the TCP
//! transport, the multi-process cluster driver, and the lock manager they
//! all sit on.
//!
//! The deterministic simulation can explore protocol interleavings, but it
//! cannot see *runner* bugs: a guard held across a blocking `recv`, two
//! mutexes taken in opposite orders on different threads, a poisoned lock
//! panic propagating into the one thread that drains an outbox. Those only
//! bite under real preemption, rarely, in CI. This pass encodes the rules
//! the threaded code must obey so violations are caught at lint time, on
//! every run, without needing the unlucky schedule.
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `conc-lock-order` | a sync lock missing from (or stale in) the checked-in [`DECLARED_LOCK_ORDER`] table; an acquisition edge `A → B` that contradicts the declared order; a lock reacquired while its own guard is held; any acquisition cycle |
//! | `conc-blocking-under-guard` | a blocking operation — `recv`/`recv_timeout`, `join`, `wait`, socket `accept`/`connect`, stream `write_all`/`flush`/`read_exact`/`read_to_string`, `sleep`, or `send` on a bounded channel — executed while a `Mutex`/`RwLock` guard is live, directly or through a call to a local function that blocks |
//! | `conc-guard-across-loop` | a guard that stays live across a `for`/`while`/`loop` whose body acquires a lock: hold-and-reacquire across iterations starves every other locker |
//! | `conc-lock-poison` | `.lock().unwrap()` / `.lock().expect(…)` (poison panic propagates into this thread) and `.lock().ok()` / `if let Ok(…) = ….lock()` (poison silently *skips* the critical section) on a std mutex |
//! | `conc-panic-in-thread` | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` anywhere in the threaded files: these run on worker threads, where a panic does not crash the process — it silently wedges the protocol |
//!
//! A *guard binding* is recognized conservatively: `let g = path.lock();`
//! (optionally chained through `unwrap`/`expect`/`ok`, optionally behind
//! `&`/`mut`/`*`, and the path may index into a shard table —
//! `self.shards[slot].buf.lock()`). Everything else — `m.lock().push(x);`,
//! `take(&mut *m.lock())` — is a statement-scoped temporary whose guard
//! drops at the `;`, and is deliberately not treated as held.
//!
//! The lock-order table is **verified, not inferred**: every `Mutex`/`RwLock`
//! struct field in a checked file must appear in [`DECLARED_LOCK_ORDER`],
//! and every declared name must still exist, so the table in this source
//! file is forced to track reality.
//!
//! Suppression and test exemption follow the lint: `// mdbs-check:
//! allow(rule-name)` silences a rule on its own line and the next, and
//! `#[cfg(test)]` items are exempt.

use std::collections::BTreeSet;
use std::path::Path;

use mdbs_histories::graph::DiGraph;

use crate::lint::Finding;
use crate::scan::{
    calls_in, discover_fns, guard_scope, ident_end, ident_occurrences, ident_start, idents_in,
    is_ident_byte, is_method_call, lock_call_end, loops_in, match_brace, next_nonws, nonws_from,
    prev_nonws_at, stmt_leads_with, stmt_start, FnInfo, SourceFile,
};

/// The files that spawn or service OS threads, in pass order.
pub const CONC_FILES: &[&str] = &[
    "crates/mdbs/src/shard.rs",
    "crates/mdbs/src/threaded.rs",
    "crates/runtime/src/node.rs",
    "crates/net/src/tcp.rs",
    "crates/net/src/cluster.rs",
    "crates/ldbs/src/lock.rs",
];

/// The sanctioned lock acquisition order, per file: if two locks from one
/// list are ever held together, the one earlier in the list must be taken
/// first. Every `Mutex`/`RwLock` struct field in a [`CONC_FILES`] entry
/// must be listed here — `conc-lock-order` fails otherwise — so adding a
/// lock forces a deliberate decision about where it sits in the order.
pub const DECLARED_LOCK_ORDER: &[(&str, &[&str])] = &[("crates/mdbs/src/shard.rs", &["buf"])];

const RULE_ORDER: &str = "conc-lock-order";
const RULE_BLOCKING: &str = "conc-blocking-under-guard";
const RULE_LOOP: &str = "conc-guard-across-loop";
const RULE_POISON: &str = "conc-lock-poison";
const RULE_PANIC: &str = "conc-panic-in-thread";

/// Methods that block the calling thread (channel, thread, process,
/// condvar, socket, stream).
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "accept",
    "connect",
    "write_all",
    "flush",
    "read_exact",
    "read_to_string",
];

const PANIC_TOKENS_METHOD: &[&str] = &["unwrap", "expect"];
const PANIC_TOKENS_MACRO: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Run the concurrency pass over the workspace at `root`.
pub fn run_conc(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for rel in CONC_FILES {
        let src = SourceFile::read(&root.join(rel), rel.to_string())?;
        let declared = declared_order(rel);
        check_file(&src, declared, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// The declared order list for one file (empty when the file declares no
/// locks).
fn declared_order(rel: &str) -> &'static [&'static str] {
    DECLARED_LOCK_ORDER
        .iter()
        .find(|(f, _)| *f == rel)
        .map(|(_, l)| *l)
        .unwrap_or(&[])
}

/// Run every rule over one parsed file against its declared lock order.
/// Public within the crate so the unit tests can feed synthetic sources.
pub(crate) fn check_file(src: &SourceFile, declared: &[&str], findings: &mut Vec<Finding>) {
    let model = Model::build(src);
    lock_table_rule(src, &model, declared, findings);
    guard_rules(src, &model, declared, findings);
    poison_rule(src, findings);
    panic_rule(src, findings);
}

// ---------------------------------------------------------------------------
// File model: locks, functions, call graph, blocking closure.
// ---------------------------------------------------------------------------

/// Token-level model of one file.
struct Model {
    /// Discovered `Mutex`/`RwLock` struct fields: (name, declaration offset).
    locks: Vec<(String, usize)>,
    fns: Vec<FnInfo>,
    /// Whether the file constructs bounded channels (makes `send` blocking).
    bounded_send: bool,
    /// Transitive: why each function blocks, if it does.
    fn_blocks: Vec<Option<String>>,
    /// Transitive: which locks (indices into `locks`) each function may
    /// acquire.
    fn_acquires: Vec<BTreeSet<usize>>,
}

impl Model {
    fn build(src: &SourceFile) -> Model {
        let code = &src.code;
        let locks = discover_locks(code);
        let fns = discover_fns(code);
        let bounded_send = !ident_occurrences(code, "bounded").is_empty()
            || !ident_occurrences(code, "sync_channel").is_empty();
        let mut model = Model {
            locks,
            fns,
            bounded_send,
            fn_blocks: Vec::new(),
            fn_acquires: Vec::new(),
        };
        model.fn_blocks = vec![None; model.fns.len()];
        model.fn_acquires = vec![BTreeSet::new(); model.fns.len()];
        // Seed with direct facts, then close over the call graph.
        for i in 0..model.fns.len() {
            let body = model.fns[i].body;
            if let Some((_, what)) = model.direct_blocking(code, body).into_iter().next() {
                model.fn_blocks[i] = Some(what);
            }
            model.fn_acquires[i] = model
                .acquisitions(code, body)
                .into_iter()
                .map(|a| a.lock)
                .collect();
        }
        let calls: Vec<Vec<usize>> = (0..model.fns.len())
            .map(|i| {
                calls_in(code, &model.fns, model.fns[i].body)
                    .into_iter()
                    .map(|(callee, _)| callee)
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for (i, callees) in calls.iter().enumerate() {
                for &callee in callees {
                    if model.fn_blocks[i].is_none() {
                        if let Some(why) = model.fn_blocks[callee].clone() {
                            model.fn_blocks[i] =
                                Some(format!("{} (via {})", why, model.fns[callee].name));
                            changed = true;
                        }
                    }
                    let extra: Vec<usize> = model.fn_acquires[callee]
                        .iter()
                        .copied()
                        .filter(|l| !model.fn_acquires[i].contains(l))
                        .collect();
                    if !extra.is_empty() {
                        model.fn_acquires[i].extend(extra);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        model
    }

    /// Direct blocking operations inside `range`: (offset, description).
    fn direct_blocking(&self, code: &str, range: (usize, usize)) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for &m in BLOCKING_METHODS {
            for occ in idents_in(code, m, range) {
                if is_method_call(code, occ, m.len()) {
                    out.push((occ, format!(".{m}(…)")));
                }
            }
        }
        if self.bounded_send {
            for occ in idents_in(code, "send", range) {
                if is_method_call(code, occ, "send".len()) {
                    out.push((occ, ".send(…) on a bounded channel".to_string()));
                }
            }
        }
        for occ in idents_in(code, "sleep", range) {
            if next_nonws(code, occ + "sleep".len()) == Some(b'(') {
                out.push((occ, "sleep(…)".to_string()));
            }
        }
        out.sort_by_key(|(o, _)| *o);
        out
    }

    /// Lock acquisitions inside `range`: `<lock>.lock()`, `<lock>.read()`,
    /// `<lock>.write()` on a discovered lock field.
    fn acquisitions(&self, code: &str, range: (usize, usize)) -> Vec<Acquisition> {
        let mut out = Vec::new();
        for (idx, (name, _)) in self.locks.iter().enumerate() {
            for occ in idents_in(code, name, range) {
                let Some(call_end) = lock_call_end(code, occ + name.len()) else {
                    continue;
                };
                out.push(Acquisition {
                    lock: idx,
                    at: occ,
                    call_end,
                });
            }
        }
        out.sort_by_key(|a| a.at);
        out
    }
}

/// One `<lock>.lock()/read()/write()` site.
struct Acquisition {
    lock: usize,
    at: usize,
    /// Offset just past the closing `)` of the acquisition call.
    call_end: usize,
}

/// Struct fields of type `Mutex<…>` / `RwLock<…>` (with or without a path
/// prefix): `name: [path::]Mutex<…>`.
fn discover_locks(code: &str) -> Vec<(String, usize)> {
    let bytes = code.as_bytes();
    let mut out: Vec<(String, usize)> = Vec::new();
    for ty in ["Mutex", "RwLock"] {
        for occ in ident_occurrences(code, ty) {
            if next_nonws(code, occ + ty.len()) != Some(b'<') {
                continue;
            }
            // Walk back over an optional `path ::` prefix to the `:` of a
            // field declaration, then over the field name.
            let mut i = occ;
            let name = loop {
                let Some(p) = prev_nonws_at(code, i) else {
                    break None;
                };
                if bytes[p] == b':' && p > 0 && bytes[p - 1] == b':' {
                    // `::` — skip the path segment ident before it.
                    let Some(q) = prev_nonws_at(code, p - 1) else {
                        break None;
                    };
                    if !is_ident_byte(bytes[q]) {
                        break None;
                    }
                    i = ident_start(bytes, q);
                    continue;
                }
                if bytes[p] == b':' {
                    let Some(q) = prev_nonws_at(code, p) else {
                        break None;
                    };
                    if !is_ident_byte(bytes[q]) {
                        break None;
                    }
                    let s = ident_start(bytes, q);
                    break Some((code[s..=q].to_string(), s));
                }
                break None;
            };
            if let Some((name, at)) = name {
                if !out.iter().any(|(n, _)| *n == name) {
                    out.push((name, at));
                }
            }
        }
    }
    out.sort_by_key(|(_, at)| *at);
    out
}

// ---------------------------------------------------------------------------
// Rule 1: the declared lock-order table is verified, not inferred.
// ---------------------------------------------------------------------------

fn lock_table_rule(
    src: &SourceFile,
    model: &Model,
    declared: &[&str],
    findings: &mut Vec<Finding>,
) {
    for (name, at) in &model.locks {
        if !declared.contains(&name.as_str()) {
            push(
                src,
                RULE_ORDER,
                *at,
                format!(
                    "sync lock `{name}` is not in the declared lock-order table \
                     (conc::DECLARED_LOCK_ORDER); declare its position before using it"
                ),
                findings,
            );
        }
    }
    for name in declared {
        if !model.locks.iter().any(|(n, _)| n == name) {
            push(
                src,
                RULE_ORDER,
                0,
                format!(
                    "declared lock `{name}` no longer exists in this file — stale \
                     conc::DECLARED_LOCK_ORDER entry"
                ),
                findings,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rules 1 (edges), 2, 3: what happens while a guard is held.
// ---------------------------------------------------------------------------

fn guard_rules(src: &SourceFile, model: &Model, declared: &[&str], findings: &mut Vec<Finding>) {
    let code = &src.code;
    let mut edges: DiGraph<String> = DiGraph::new();
    for f in &model.fns {
        for acq in model.acquisitions(code, f.body) {
            let Some(scope) = guard_scope(code, f.body, acq.at, acq.call_end) else {
                continue; // statement-scoped temporary: guard drops at `;`
            };
            let held = model.locks[acq.lock].0.clone();
            // Direct acquisitions inside the guard scope.
            for inner in model.acquisitions(code, scope) {
                let other = &model.locks[inner.lock].0;
                if inner.lock == acq.lock {
                    push(
                        src,
                        RULE_ORDER,
                        inner.at,
                        format!(
                            "lock `{held}` reacquired while its own guard is still \
                             held — self-deadlock"
                        ),
                        findings,
                    );
                } else {
                    edges.add_edge(held.clone(), other.clone());
                    check_order(src, declared, &held, other, inner.at, None, findings);
                }
            }
            // Calls to local functions while the guard is held.
            for (callee, at) in calls_in(code, &model.fns, scope) {
                let cname = &model.fns[callee].name;
                if let Some(why) = &model.fn_blocks[callee] {
                    push(
                        src,
                        RULE_BLOCKING,
                        at,
                        format!(
                            "call to `{cname}`, which blocks on {why}, while the guard \
                             of `{held}` is held"
                        ),
                        findings,
                    );
                }
                for &l in &model.fn_acquires[callee] {
                    let other = &model.locks[l].0;
                    if l == acq.lock {
                        push(
                            src,
                            RULE_ORDER,
                            at,
                            format!(
                                "call to `{cname}` reacquires `{held}` while its guard \
                                 is still held — self-deadlock"
                            ),
                            findings,
                        );
                    } else {
                        edges.add_edge(held.clone(), other.clone());
                        check_order(src, declared, &held, other, at, Some(cname), findings);
                    }
                }
            }
            // Blocking operations while the guard is held.
            for (at, what) in model.direct_blocking(code, scope) {
                push(
                    src,
                    RULE_BLOCKING,
                    at,
                    format!("blocking {what} while the guard of `{held}` is held"),
                    findings,
                );
            }
            // Loops whose body acquires a lock while the guard stays live.
            for (kw_at, body) in loops_in(code, scope) {
                let locks_in_loop: BTreeSet<usize> = model
                    .acquisitions(code, body)
                    .into_iter()
                    .map(|a| a.lock)
                    .chain(
                        calls_in(code, &model.fns, body)
                            .into_iter()
                            .flat_map(|(c, _)| model.fn_acquires[c].iter().copied()),
                    )
                    .collect();
                if let Some(&l) = locks_in_loop.iter().next() {
                    let other = &model.locks[l].0;
                    push(
                        src,
                        RULE_LOOP,
                        kw_at,
                        format!(
                            "guard of `{held}` stays held across this loop, whose body \
                             acquires `{other}` each iteration — release the guard \
                             before looping"
                        ),
                        findings,
                    );
                }
            }
        }
    }
    if let Some(cycle) = edges.find_cycle() {
        push(
            src,
            RULE_ORDER,
            0,
            format!(
                "lock acquisition cycle: {} — two threads taking these in opposite \
                 order deadlock",
                cycle.join(" -> ")
            ),
            findings,
        );
    }
}

/// Verify one held→acquired edge against the declared order.
fn check_order(
    src: &SourceFile,
    declared: &[&str],
    held: &str,
    acquired: &str,
    at: usize,
    via: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    let (Some(h), Some(a)) = (
        declared.iter().position(|n| *n == held),
        declared.iter().position(|n| *n == acquired),
    ) else {
        return; // undeclared locks are already reported by the table rule
    };
    if h > a {
        let via = via.map(|v| format!(" (via `{v}`)")).unwrap_or_default();
        push(
            src,
            RULE_ORDER,
            at,
            format!(
                "`{acquired}` acquired{via} while `{held}` is held, but the declared \
                 order is {acquired} before {held}"
            ),
            findings,
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 4: poison handling on std mutexes.
// ---------------------------------------------------------------------------

fn poison_rule(src: &SourceFile, findings: &mut Vec<Finding>) {
    let code = &src.code;
    let bytes = code.as_bytes();
    for occ in ident_occurrences(code, "lock") {
        if !is_method_call(code, occ, "lock".len()) {
            continue;
        }
        let Some(open) = nonws_from(code, occ + 4) else {
            continue;
        };
        let Some(close) = match_brace(code, open) else {
            continue;
        };
        // `.lock()` chained into unwrap/expect/ok?
        if let Some(dot) = nonws_from(code, close) {
            if bytes[dot] == b'.' {
                if let Some(ws) = nonws_from(code, dot + 1) {
                    if is_ident_byte(bytes[ws]) {
                        let we = ident_end(bytes, ws);
                        match &code[ws..we] {
                            "unwrap" | "expect" => {
                                push(
                                    src,
                                    RULE_POISON,
                                    occ,
                                    format!(
                                        "`.lock().{}(…)` turns a poisoned mutex into a panic \
                                         in this thread — a panicked peer then wedges every \
                                         later locker; recover the inner value from the \
                                         PoisonError instead",
                                        &code[ws..we]
                                    ),
                                    findings,
                                );
                            }
                            "ok" => {
                                push(
                                    src,
                                    RULE_POISON,
                                    occ,
                                    "`.lock().ok()` silently skips the critical section when \
                                     the mutex is poisoned — the thread keeps running on \
                                     unsynchronized state"
                                        .to_string(),
                                    findings,
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        // `if let Ok(g) = m.lock()` — same silent skip, pattern form.
        let ss = stmt_start(code, (0, code.len()), occ);
        if stmt_leads_with(code, ss, &["if", "let", "Ok"])
            || stmt_leads_with(code, ss, &["while", "let", "Ok"])
        {
            push(
                src,
                RULE_POISON,
                occ,
                "`let Ok(…) = ….lock()` silently skips the critical section when the \
                 mutex is poisoned — handle the PoisonError explicitly"
                    .to_string(),
                findings,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: no panics on worker threads.
// ---------------------------------------------------------------------------

fn panic_rule(src: &SourceFile, findings: &mut Vec<Finding>) {
    let code = &src.code;
    for &tok in PANIC_TOKENS_METHOD {
        for occ in ident_occurrences(code, tok) {
            if prev_nonws_at(code, occ).map(|p| code.as_bytes()[p]) == Some(b'.') {
                push(
                    src,
                    RULE_PANIC,
                    occ,
                    format!(
                        "`.{tok}(…)` on a worker thread: a panic here does not crash the \
                         process, it silently wedges the protocol — return an error or \
                         handle the case"
                    ),
                    findings,
                );
            }
        }
    }
    for &tok in PANIC_TOKENS_MACRO {
        for occ in ident_occurrences(code, tok) {
            if next_nonws(code, occ + tok.len()) == Some(b'!') {
                push(
                    src,
                    RULE_PANIC,
                    occ,
                    format!(
                        "`{tok}!` on a worker thread: a panic here does not crash the \
                         process, it silently wedges the protocol"
                    ),
                    findings,
                );
            }
        }
    }
}

/// Append a finding unless the site is test-only or suppressed.
fn push(src: &SourceFile, rule: &'static str, at: usize, msg: String, findings: &mut Vec<Finding>) {
    if src.in_test(at) || src.is_suppressed(rule, at) {
        return;
    }
    findings.push(Finding {
        rule,
        file: src.rel.clone(),
        line: src.line_of(at),
        msg,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(raw: &str, declared: &[&str]) -> Vec<Finding> {
        let src = SourceFile::parse(raw.to_string(), "synthetic.rs".to_string());
        let mut findings = Vec::new();
        check_file(&src, declared, &mut findings);
        findings
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn undeclared_lock_is_reported_and_declared_lock_is_quiet() {
        let raw = "struct S { q: Mutex<Vec<u8>>, r: std::sync::RwLock<u8> }\n";
        let f = check(raw, &[]);
        assert_eq!(rules(&f), vec![RULE_ORDER, RULE_ORDER]);
        assert!(f[0].msg.contains("`q`"));
        assert!(f[1].msg.contains("`r`"));
        assert!(check(raw, &["q", "r"]).is_empty());
    }

    #[test]
    fn stale_declared_lock_is_reported() {
        let f = check("struct S { x: u32 }\n", &["gone"]);
        assert_eq!(rules(&f), vec![RULE_ORDER]);
        assert!(f[0].msg.contains("stale"));
    }

    #[test]
    fn blocking_under_guard_fires_only_for_real_guards() {
        // A let-bound guard held across a recv: finding.
        let guarded = "struct S { q: Mutex<u8> }\n\
                       fn f(s: &S, rx: &Receiver<u8>) {\n\
                           let g = s.q.lock();\n\
                           rx.recv();\n\
                       }\n";
        let f = check(guarded, &["q"]);
        assert_eq!(rules(&f), vec![RULE_BLOCKING]);
        assert!(f[0].msg.contains("recv"));

        // A statement-scoped temporary: the guard drops at the `;`.
        let temp = "struct S { q: Mutex<Vec<u8>> }\n\
                    fn f(s: &S, rx: &Receiver<u8>) {\n\
                        s.q.lock().push(1);\n\
                        let v = std::mem::take(&mut *s.q.lock());\n\
                        rx.recv();\n\
                    }\n";
        assert!(check(temp, &["q"]).is_empty());
    }

    #[test]
    fn blocking_through_a_local_call_is_found_transitively() {
        let raw = "struct S { q: Mutex<u8> }\n\
                   fn slow(rx: &Receiver<u8>) { rx.recv_timeout(D); }\n\
                   fn f(s: &S, rx: &Receiver<u8>) {\n\
                       let g = s.q.lock().unwrap();\n\
                       slow(rx);\n\
                   }\n";
        let f = check(raw, &["q"]);
        // The poison rule also fires on the `.lock().unwrap()`.
        assert!(rules(&f).contains(&RULE_BLOCKING));
        let blocking = f.iter().find(|f| f.rule == RULE_BLOCKING).unwrap();
        assert!(blocking.msg.contains("`slow`"));
    }

    #[test]
    fn guard_scope_ends_with_the_enclosing_block() {
        // The guard lives only inside the inner block; the recv after it is
        // fine.
        let raw = "struct S { q: Mutex<u8> }\n\
                   fn f(s: &S, rx: &Receiver<u8>) {\n\
                       {\n\
                           let g = s.q.lock();\n\
                       }\n\
                       rx.recv();\n\
                   }\n";
        assert!(check(raw, &["q"]).is_empty());
    }

    #[test]
    fn guard_across_locking_loop_is_reported() {
        let raw = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   fn f(s: &S, xs: &[u8]) {\n\
                       let g = s.a.lock();\n\
                       for x in xs {\n\
                           s.b.lock();\n\
                       }\n\
                   }\n";
        let f = check(raw, &["a", "b"]);
        assert!(rules(&f).contains(&RULE_LOOP));
    }

    #[test]
    fn lock_order_violations_and_self_deadlock_are_reported() {
        let raw = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   fn wrong(s: &S) {\n\
                       let g = s.b.lock();\n\
                       let h = s.a.lock();\n\
                   }\n\
                   fn twice(s: &S) {\n\
                       let g = s.a.lock();\n\
                       let h = s.a.lock();\n\
                   }\n";
        let f = check(raw, &["a", "b"]);
        let msgs: Vec<&str> = f.iter().map(|f| f.msg.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("declared order")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("self-deadlock")), "{msgs:?}");
        // The b→a inversion also closes a cycle with the declared a→b intent?
        // No — a cycle needs both directions in the *observed* edges; a
        // single inversion is not a cycle.
        let raw2 = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                    fn one(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
                    fn two(s: &S) { let g = s.b.lock(); let h = s.a.lock(); }\n";
        let f2 = check(raw2, &["a", "b"]);
        assert!(f2.iter().any(|f| f.msg.contains("cycle")), "{f2:?}");
    }

    #[test]
    fn poison_chains_are_reported() {
        let raw = "fn f(m: &std::sync::Mutex<u8>) {\n\
                       let a = m.lock().unwrap();\n\
                       let b = m.lock().expect(\"x\");\n\
                       let c = m.lock().ok();\n\
                       if let Ok(d) = m.lock() {}\n\
                   }\n";
        let f = check(raw, &[]);
        let poison: Vec<_> = f.iter().filter(|f| f.rule == RULE_POISON).collect();
        assert_eq!(poison.len(), 4, "{f:?}");
    }

    #[test]
    fn panics_in_thread_code_are_reported_but_tests_and_suppressions_are_exempt() {
        let raw = "fn f(x: Option<u8>) {\n\
                       x.unwrap();\n\
                       let y = x.expect(\"y\");\n\
                       panic!(\"boom\");\n\
                       unreachable!();\n\
                       x.unwrap_or_default();\n\
                   }\n\
                   fn g(x: Option<u8>) {\n\
                       // mdbs-check: allow(conc-panic-in-thread) -- justified\n\
                       x.unwrap();\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(x: Option<u8>) { x.unwrap(); }\n\
                   }\n";
        let f = check(raw, &[]);
        assert_eq!(
            rules(&f),
            vec![RULE_PANIC, RULE_PANIC, RULE_PANIC, RULE_PANIC],
            "{f:?}"
        );
    }

    #[test]
    fn indexed_sharded_guard_is_recognized_as_held() {
        // The sharded idiom: the lock lives behind an index expression.
        // The guard is just as held as a plain `let g = s.q.lock();` —
        // blocking under it must still be reported.
        let raw = "struct Shard { buf: Mutex<Vec<u8>> }\n\
                   struct S { shards: Vec<Shard> }\n\
                   fn f(s: &S, i: usize, rx: &Receiver<u8>) {\n\
                       let mut g = s.shards[i].buf.lock();\n\
                       rx.recv();\n\
                   }\n";
        let f = check(raw, &["buf"]);
        assert_eq!(rules(&f), vec![RULE_BLOCKING], "{f:?}");
        assert!(f[0].msg.contains("`buf`"));
    }

    #[test]
    fn indexed_sharded_temporary_still_drops_at_the_statement() {
        let raw = "struct Shard { buf: Mutex<Vec<u8>> }\n\
                   struct S { shards: Vec<Shard> }\n\
                   fn f(s: &S, i: usize, rx: &Receiver<u8>) {\n\
                       s.shards[i].buf.lock().push(1);\n\
                       rx.recv();\n\
                   }\n";
        assert!(check(raw, &["buf"]).is_empty());
    }

    #[test]
    fn sharded_guard_reacquisition_is_a_self_deadlock() {
        // Two shards of the same table are still the same declared lock:
        // the order table has one entry per lock *name*, so holding one
        // shard while taking another is flagged. The runner's drain
        // releases each shard's guard before taking the next.
        let raw = "struct Shard { buf: Mutex<Vec<u8>> }\n\
                   struct S { shards: Vec<Shard> }\n\
                   fn f(s: &S) {\n\
                       let a = s.shards[0].buf.lock();\n\
                       let b = s.shards[1].buf.lock();\n\
                   }\n";
        let f = check(raw, &["buf"]);
        assert!(f.iter().any(|f| f.msg.contains("self-deadlock")), "{f:?}");
    }

    #[test]
    fn indexed_guard_with_call_in_index_is_not_a_guard_binding() {
        // An index that *computes* — `s.shards[pick(i)].buf.lock()` — has a
        // `(` in the initializer and stays outside the conservative shape.
        let raw = "struct Shard { buf: Mutex<Vec<u8>> }\n\
                   struct S { shards: Vec<Shard> }\n\
                   fn f(s: &S, i: usize, rx: &Receiver<u8>) {\n\
                       let g = s.shards[pick(i)].buf.lock();\n\
                       rx.recv();\n\
                   }\n";
        assert!(check(raw, &["buf"]).is_empty());
    }

    #[test]
    fn the_shipped_lock_order_table_names_real_files() {
        for (file, _) in DECLARED_LOCK_ORDER {
            assert!(
                CONC_FILES.contains(file),
                "DECLARED_LOCK_ORDER names {file}, which is not in CONC_FILES"
            );
        }
    }
}
