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
//!
//! (`conc-panic-in-thread`, the group's fifth rule, is a forbidden-token
//! row over the same files: [`crate::lint::FORBIDDEN`].)
//!
//! A *guard binding* is recognized conservatively: `let g = path.lock();`
//! (optionally chained through `unwrap`/`expect`/`ok`, optionally behind
//! `&`/`mut`/`*`), held to the end of the enclosing block;
//! likewise `let Ok(g) = path.try_lock() else { … };` (std) and
//! `let Some(g) = … else { … };` (`parking_lot`), held from after the
//! statement; and `if let` / `while let` over either, held for the body.
//! Everything else — `m.lock().push(x);`, `take(&mut *m.lock())`,
//! `m.try_lock().is_some()` — is a statement-scoped temporary whose guard
//! drops at the `;`, and is deliberately not treated as held.
//!
//! The lock-order table is **verified, not inferred**: every `Mutex`/`RwLock`
//! struct field in a checked file must appear in [`DECLARED_LOCK_ORDER`],
//! and every declared name must still exist, so the table in this source
//! file is forced to track reality.
//!
//! Suppression and test exemption are the engine's ([`crate::engine`]).

use std::collections::BTreeSet;

use mdbs_histories::graph::DiGraph;

use crate::engine::Sink;
use crate::scan::{
    calls_in, discover_fns, guard_scope, ident_end, ident_occurrences, ident_start, idents_in,
    is_ident_byte, is_method_call, lock_call_end, loops_in, match_brace, next_nonws, nonws_from,
    prev_nonws_at, stmt_leads_with, stmt_start, FnInfo, SourceFile,
};

/// The files that spawn or service OS threads, in pass order.
pub const CONC_FILES: &[&str] = &[
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
pub const DECLARED_LOCK_ORDER: &[(&str, &[&str])] = &[("crates/net/src/tcp.rs", &["io", "latest"])];

pub(crate) const RULE_ORDER: &str = "conc-lock-order";
pub(crate) const RULE_BLOCKING: &str = "conc-blocking-under-guard";
pub(crate) const RULE_LOOP: &str = "conc-guard-across-loop";
pub(crate) const RULE_POISON: &str = "conc-lock-poison";

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

/// The declared order list for one file (empty when the file declares no
/// locks).
pub(crate) fn declared_order(rel: &str) -> &'static [&'static str] {
    DECLARED_LOCK_ORDER
        .iter()
        .find(|(f, _)| *f == rel)
        .map(|(_, l)| *l)
        .unwrap_or(&[])
}

// ---------------------------------------------------------------------------
// File model: locks, functions, call graph, blocking closure.
// ---------------------------------------------------------------------------

/// Token-level model of one threaded file, with its declared lock order.
pub struct Locks<'a> {
    pub(crate) src: &'a SourceFile,
    declared: &'a [&'a str],
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

impl<'a> Locks<'a> {
    pub fn of(src: &'a SourceFile, declared: &'a [&'a str]) -> Locks<'a> {
        let code = &src.code;
        let fns = discover_fns(code);
        let mut model = Locks {
            src,
            declared,
            locks: discover_locks(code),
            bounded_send: !ident_occurrences(code, "bounded").is_empty()
                || !ident_occurrences(code, "sync_channel").is_empty(),
            fn_blocks: vec![None; fns.len()],
            fn_acquires: vec![BTreeSet::new(); fns.len()],
            fns,
        };
        // Seed with direct facts, then close over the call graph.
        for i in 0..model.fns.len() {
            let body = model.fns[i].body;
            model.fn_blocks[i] = model.direct_blocking(body).into_iter().next().map(|b| b.1);
            model.fn_acquires[i] = model.acquisitions(body).iter().map(|a| a.lock).collect();
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
    fn direct_blocking(&self, range: (usize, usize)) -> Vec<(usize, String)> {
        let code = &self.src.code;
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

    /// Lock acquisitions inside `range`: `<lock>.lock()`,
    /// `<lock>.try_lock()`, `<lock>.read()`, `<lock>.write()` on a
    /// discovered lock field.
    fn acquisitions(&self, range: (usize, usize)) -> Vec<Acquisition> {
        let code = &self.src.code;
        let mut out = Vec::new();
        for (idx, (name, _)) in self.locks.iter().enumerate() {
            for occ in idents_in(code, name, range) {
                if let Some(call_end) = lock_call_end(code, occ + name.len()) {
                    out.push(Acquisition {
                        lock: idx,
                        at: occ,
                        call_end,
                    });
                }
            }
        }
        out.sort_by_key(|a| a.at);
        out
    }

    /// Every let-bound guard: (lock index, the range over which it stays
    /// live). Statement-scoped temporaries drop at their `;` and are not
    /// here.
    fn guards(&self) -> Vec<(usize, (usize, usize))> {
        let mut out = Vec::new();
        for f in &self.fns {
            for acq in self.acquisitions(f.body) {
                if let Some(scope) = guard_scope(&self.src.code, f.body, acq.at, acq.call_end) {
                    out.push((acq.lock, scope));
                }
            }
        }
        out
    }

    /// Calls within `range` to this file's functions: (callee, call site).
    fn calls(&self, range: (usize, usize)) -> Vec<(usize, usize)> {
        calls_in(&self.src.code, &self.fns, range)
    }

    fn name(&self, lock: usize) -> &str {
        &self.locks[lock].0
    }
}

/// One `<lock>.lock()/try_lock()/read()/write()` site.
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
// conc-lock-order: the declared table is verified, not inferred, and every
// held→acquired edge must agree with it.
// ---------------------------------------------------------------------------

pub(crate) fn lock_order(m: &Locks, sink: &mut Sink) {
    for (name, at) in &m.locks {
        if !m.declared.contains(&name.as_str()) {
            let msg = format!(
                "sync lock `{name}` is not in the declared lock-order table \
                 (conc::DECLARED_LOCK_ORDER); declare its position before using it"
            );
            sink.report(m.src, RULE_ORDER, *at, msg);
        }
    }
    for name in m.declared {
        if !m.locks.iter().any(|(n, _)| n == name) {
            let msg = format!(
                "declared lock `{name}` no longer exists in this file — stale \
                 conc::DECLARED_LOCK_ORDER entry"
            );
            sink.report(m.src, RULE_ORDER, 0, msg);
        }
    }
    let mut edges: DiGraph<String> = DiGraph::new();
    for (lock, scope) in m.guards() {
        let held = m.name(lock);
        // What is acquired while the guard is live: directly (`via` none),
        // or by a local function called under it.
        let direct = m
            .acquisitions(scope)
            .into_iter()
            .map(|a| (a.lock, a.at, None));
        let called = m.calls(scope).into_iter().flat_map(|(callee, at)| {
            let via = Some(m.fns[callee].name.as_str());
            m.fn_acquires[callee].iter().map(move |&l| (l, at, via))
        });
        for (acquired, at, via) in direct.chain(called) {
            let other = m.name(acquired);
            if acquired == lock {
                let msg = match via {
                    None => format!(
                        "lock `{held}` reacquired while its own guard is still held — \
                         self-deadlock"
                    ),
                    Some(f) => format!(
                        "call to `{f}` reacquires `{held}` while its guard is still held — \
                         self-deadlock"
                    ),
                };
                sink.report(m.src, RULE_ORDER, at, msg);
                continue;
            }
            edges.add_edge(held.to_string(), other.to_string());
            // Undeclared locks are already reported by the table check.
            let position = |n: &str| m.declared.iter().position(|d| *d == n);
            if let (Some(h), Some(a)) = (position(held), position(other)) {
                if h > a {
                    let via = via.map(|v| format!(" (via `{v}`)")).unwrap_or_default();
                    let msg = format!(
                        "`{other}` acquired{via} while `{held}` is held, but the declared \
                         order is {other} before {held}"
                    );
                    sink.report(m.src, RULE_ORDER, at, msg);
                }
            }
        }
    }
    if let Some(cycle) = edges.find_cycle() {
        let msg = format!(
            "lock acquisition cycle: {} — two threads taking these in opposite order deadlock",
            cycle.join(" -> ")
        );
        sink.report(m.src, RULE_ORDER, 0, msg);
    }
}

// ---------------------------------------------------------------------------
// conc-blocking-under-guard.
// ---------------------------------------------------------------------------

pub(crate) fn blocking_under_guard(m: &Locks, sink: &mut Sink) {
    for (lock, scope) in m.guards() {
        let held = m.name(lock);
        for (callee, at) in m.calls(scope) {
            if let Some(why) = &m.fn_blocks[callee] {
                let msg = format!(
                    "call to `{}`, which blocks on {why}, while the guard of `{held}` is held",
                    m.fns[callee].name
                );
                sink.report(m.src, RULE_BLOCKING, at, msg);
            }
        }
        for (at, what) in m.direct_blocking(scope) {
            let msg = format!("blocking {what} while the guard of `{held}` is held");
            sink.report(m.src, RULE_BLOCKING, at, msg);
        }
    }
}

// ---------------------------------------------------------------------------
// conc-guard-across-loop.
// ---------------------------------------------------------------------------

pub(crate) fn guard_across_loop(m: &Locks, sink: &mut Sink) {
    for (lock, scope) in m.guards() {
        for (kw_at, body) in loops_in(&m.src.code, scope) {
            let locks_in_loop: BTreeSet<usize> = m
                .acquisitions(body)
                .into_iter()
                .map(|a| a.lock)
                .chain(
                    m.calls(body)
                        .into_iter()
                        .flat_map(|(c, _)| m.fn_acquires[c].iter().copied()),
                )
                .collect();
            if let Some(&l) = locks_in_loop.iter().next() {
                let msg = format!(
                    "guard of `{}` stays held across this loop, whose body acquires `{}` \
                     each iteration — release the guard before looping",
                    m.name(lock),
                    m.name(l)
                );
                sink.report(m.src, RULE_LOOP, kw_at, msg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// conc-lock-poison: poison handling on std mutexes.
// ---------------------------------------------------------------------------

pub(crate) fn lock_poison(m: &Locks, sink: &mut Sink) {
    let code = &m.src.code;
    let bytes = code.as_bytes();
    for occ in ident_occurrences(code, "lock") {
        if !is_method_call(code, occ, "lock".len()) {
            continue;
        }
        let Some(close) = nonws_from(code, occ + 4).and_then(|open| match_brace(code, open)) else {
            continue;
        };
        // `.lock()` chained into unwrap/expect/ok?
        let chained = nonws_from(code, close)
            .filter(|&dot| bytes[dot] == b'.')
            .and_then(|dot| nonws_from(code, dot + 1))
            .map(|ws| &code[ws..ident_end(bytes, ws)]);
        match chained {
            Some(how @ ("unwrap" | "expect")) => {
                let msg = format!(
                    "`.lock().{how}(…)` turns a poisoned mutex into a panic in this thread — \
                     a panicked peer then wedges every later locker; recover the inner value \
                     from the PoisonError instead"
                );
                sink.report(m.src, RULE_POISON, occ, msg);
            }
            Some("ok") => {
                let msg = "`.lock().ok()` silently skips the critical section when the mutex is \
                           poisoned — the thread keeps running on unsynchronized state";
                sink.report(m.src, RULE_POISON, occ, msg.to_string());
            }
            _ => {}
        }
        // `if let Ok(g) = m.lock()` — same silent skip, pattern form.
        let ss = stmt_start(code, (0, code.len()), occ);
        if stmt_leads_with(code, ss, &["if", "let", "Ok"])
            || stmt_leads_with(code, ss, &["while", "let", "Ok"])
        {
            let msg = "`let Ok(…) = ….lock()` silently skips the critical section when the \
                       mutex is poisoned — handle the PoisonError explicitly";
            sink.report(m.src, RULE_POISON, occ, msg.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
