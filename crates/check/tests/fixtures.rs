//! The one fixture table for the `mdbs-check` rule engine.
//!
//! A row is `(rule id, source, expected)`: the rule's group runs over the
//! synthetic source — through the same `engine::check` the subcommands use
//! — and the findings *of that rule* must sit exactly on the expected
//! lines, each given as the first text of the line (with a substring its
//! message must contain). A row expecting nothing is a near-miss: the whole
//! group must stay silent on it. The workspace pin at the bottom holds the
//! real tree to zero findings under all four groups.

use std::path::Path;

use mdbs_check::conc::Locks;
use mdbs_check::engine::{check, run, Finding, Group, Sink, Unit, CONFIG, RULES};
use mdbs_check::hotpath::{HotFile, HotKind};
use mdbs_check::proto::{ArmSpec, HandlerSpec, Node};
use mdbs_check::scan::{FileSet, SourceFile};

/// Which table row the rules are told describes the fixture's files.
enum On {
    /// None: the forbidden-token lints, by the (in-scope) file name alone.
    File,
    /// A threaded file with this declared lock order.
    Conc(&'static [&'static str]),
    /// A hot file whose one per-message entry is `handle`.
    Hot,
    /// A node kind with this handler spec.
    Node(&'static HandlerSpec),
}

struct Fixture {
    name: &'static str,
    rule: &'static str,
    on: On,
    files: &'static [(&'static str, &'static str)],
    /// (text that starts the finding's line, text its message contains), in
    /// output order. Empty: no rule of the group may fire.
    expect: &'static [(&'static str, &'static str)],
}

fn findings(fx: &Fixture) -> Vec<Finding> {
    let fs = FileSet::from_files(
        fx.files
            .iter()
            .map(|(rel, raw)| SourceFile::parse(raw.to_string(), rel.to_string()))
            .collect(),
    );
    let (group, unit) = match fx.on {
        On::File => (Group::Lint, Unit::File(fs.file(0))),
        On::Conc(declared) => (Group::Conc, Unit::Conc(Locks::of(fs.file(0), declared))),
        On::Hot => (
            Group::Hotpath,
            Unit::Hot(HotFile::of(&fs, &[("handle", HotKind::Handler)])),
        ),
        On::Node(spec) => (Group::Proto, Unit::Node(Node::of(&fs, spec))),
    };
    let mut sink = Sink::default();
    check(group, &unit, &mut sink);
    sink.finish()
}

/// `(file, 1-based line)` of the first occurrence of `needle` in the
/// fixture's files.
fn locate(fx: &Fixture, needle: &str) -> (String, usize) {
    for (rel, raw) in fx.files {
        if let Some(at) = raw.find(needle) {
            let line = raw[..at].bytes().filter(|&b| b == b'\n').count() + 1;
            return (rel.to_string(), line);
        }
    }
    panic!("{}: needle {needle:?} is not in the fixture", fx.name);
}

/// Why the row does not hold, if it does not.
fn verdict(fx: &Fixture) -> Result<(), String> {
    let all = findings(fx);
    let of_rule: Vec<&Finding> = all.iter().filter(|f| f.rule == fx.rule).collect();
    if fx.expect.is_empty() && !all.is_empty() {
        return Err(format!("expected silence, got {all:#?}"));
    }
    if of_rule.len() != fx.expect.len() {
        return Err(format!(
            "expected {} `{}` finding(s), got {all:#?}",
            fx.expect.len(),
            fx.rule
        ));
    }
    for (f, (needle, msg)) in of_rule.iter().zip(fx.expect) {
        if (f.file.clone(), f.line) != locate(fx, needle) || !f.msg.contains(msg) {
            return Err(format!("expected {needle:?} / {msg:?}, got {f:#?}"));
        }
    }
    Ok(())
}

#[test]
fn every_fixture_row_holds() {
    let failed: Vec<String> = FIXTURES
        .iter()
        .filter_map(|fx| {
            verdict(fx)
                .err()
                .map(|e| format!("{} [{}]: {e}", fx.name, fx.rule))
        })
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n\n"));
}

#[test]
fn every_rule_has_a_firing_fixture() {
    for rule in RULES {
        let fires = |fx: &&Fixture| fx.rule == rule.id && !fx.expect.is_empty();
        assert!(
            FIXTURES.iter().any(|fx| fires(&fx)),
            "rule `{}` has no positive fixture row",
            rule.id
        );
    }
}

/// The real workspace must stay clean under every group: every finding is
/// either fixed or carries a written justification.
#[test]
fn the_workspace_is_clean_under_every_group() {
    // crates/check -> the workspace root.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    for group in [Group::Lint, Group::Conc, Group::Hotpath, Group::Proto] {
        let f = run(root, group).expect("the group runs");
        let lines: Vec<String> = f.iter().map(Finding::to_string).collect();
        assert!(f.is_empty(), "{group:?} findings:\n{}", lines.join("\n"));
    }
}

// ---------------------------------------------------------------------------
// Fixture sources shared by more than one row.
// ---------------------------------------------------------------------------

/// In scope of both determinism rules.
const CORE: &str = "crates/core/src/fixture.rs";
/// In scope of `panic-freedom`.
const WIRE: &str = "crates/net/src/wire.rs";
/// In scope of `conc-panic-in-thread`.
const THREADED: &str = "crates/mdbs/src/threaded.rs";

const BARE_LINT_ALLOW: &str = "// mdbs-check: allow(determinism-hash-order)\n\
                               let m: HashMap<u32, u32>;\n";

const BLOCKING_VIA_CALL: &str = "struct S { q: Mutex<u8> }\n\
                                 fn slow(rx: &Receiver<u8>) { rx.recv_timeout(D); }\n\
                                 fn f(s: &S, rx: &Receiver<u8>) {\n\
                                     let g = s.q.lock().unwrap();\n\
                                     slow(rx);\n\
                                 }\n";

const HOT_BARE_ALLOW: &str = "impl S {\n\
                              fn handle(&mut self) {\n\
                              for x in 0..4 {\n\
                              // mdbs-check: allow(hot-alloc-in-loop)\n\
                              let _s = format!(\"x={x}\");\n\
                              }\n\
                              }\n\
                              }\n";

/// The fixture node: one handled arm (`Message::Prepare`) that must
/// consult the done-set, arm the alive timer, and may only answer READY.
const SPEC: HandlerSpec = HandlerSpec {
    node: "fixture",
    files: &["fixture.rs"],
    entries: &["handle"],
    arms: &[ArmSpec {
        enum_name: "Message",
        variant: "Prepare",
        sends: &[("Message", "Ready")],
        dup_guard: &[&["done", ".", "contains"]],
        timeout: &[&["StartAliveTimer"]],
    }],
    free_sends: &[],
};
static WITH_FREE: HandlerSpec = HandlerSpec {
    free_sends: &[("Message", "Failed")],
    ..SPEC
};
static STALE: HandlerSpec = HandlerSpec {
    entries: &["no_such_entry"],
    ..SPEC
};

/// A fully conformant handler: guard, timer, allowed emission.
const CLEAN: &str = "impl S {\n\
    fn handle(&mut self, m: Message) {\n\
        match m {\n\
            Message::Prepare { gtxn, sn } => {\n\
                if self.done.contains(&gtxn) {\n\
                    return;\n\
                }\n\
                self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                self.out.push(Message::Ready { gtxn, sn });\n\
            }\n\
            _ => {}\n\
        }\n\
    }\n\
}\n";

const FREE_SEND: &str = "impl S {\n\
    fn handle(&mut self, m: Message) {\n\
        match m {\n\
            Message::Prepare { gtxn, sn } => {\n\
                if self.done.contains(&gtxn) {\n\
                    return;\n\
                }\n\
                self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                self.out.push(Message::Ready { gtxn, sn });\n\
            }\n\
            _ => {}\n\
        }\n\
        self.out.push(Message::Failed { gtxn: 0 });\n\
    }\n\
}\n";

const PROTO_BARE_ALLOW: &str = "impl S {\n\
    fn handle(&mut self, m: Message) {\n\
        match m {\n\
            Message::Prepare { gtxn, sn } => {\n\
                if self.done.contains(&gtxn) {\n\
                    return;\n\
                }\n\
                self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                // mdbs-check: allow(proto-unexpected-send)\n\
                self.out.push(Message::Refuse { gtxn, sn });\n\
            }\n\
            _ => {}\n\
        }\n\
    }\n\
}\n";

const fn row(
    name: &'static str,
    rule: &'static str,
    on: On,
    files: &'static [(&'static str, &'static str)],
    expect: &'static [(&'static str, &'static str)],
) -> Fixture {
    Fixture {
        name,
        rule,
        on,
        files,
        expect,
    }
}

static FIXTURES: &[Fixture] = &[
    // -----------------------------------------------------------------------
    // The suppression contract, on the lint rules.
    // -----------------------------------------------------------------------
    row(
        "a justified allow covers its own line and the next, for the rules it names",
        "determinism-hash-order",
        On::File,
        &[(
            CORE,
            "// mdbs-check: allow(determinism-hash-order, \"keyed lookups only\")\n\
             let x = HashMap::new();\n\
             let y = HashSet::new(); // mdbs-check: allow(determinism-wall-clock, \"another rule\")\n\
             \n\
             let z = HashMap::new(); // mdbs-check: allow(determinism-hash-order, \"same line\")\n",
        )],
        &[("let y", "HashSet")],
    ),
    row(
        "one allow may name several rules",
        "determinism-hash-order",
        On::File,
        &[(
            CORE,
            "// mdbs-check: allow(determinism-wall-clock, determinism-hash-order, \"both\")\n\
             let m: HashMap<Instant, u8>;\n",
        )],
        &[],
    ),
    row(
        "a bare allow suppresses nothing",
        "determinism-hash-order",
        On::File,
        &[(CORE, BARE_LINT_ALLOW)],
        &[("let m", "HashMap")],
    ),
    row(
        "a bare allow is itself a finding",
        CONFIG,
        On::File,
        &[(CORE, BARE_LINT_ALLOW)],
        &[("// mdbs-check", "requires a justification")],
    ),
    row(
        "an allow naming a rule that does not exist is a finding",
        CONFIG,
        On::File,
        &[(
            CORE,
            "// mdbs-check: allow(determinism-hash-ordre, \"typo\")\nlet n = 1;\n",
        )],
        &[("// mdbs-check", "does not exist")],
    ),
    row(
        "an allow spelled inside a string literal suppresses nothing",
        "panic-freedom",
        On::File,
        &[(
            WIRE,
            "fn f(v: Option<u8>) -> u8 {\n\
             let _m = \"hint: // mdbs-check: allow(panic-freedom, \\\"not a comment\\\")\";\n\
             v.unwrap()\n\
             }\n",
        )],
        &[("v.unwrap()", "`unwrap`")],
    ),
    row(
        "a bare allow spelled inside a string literal is not a finding",
        CONFIG,
        On::File,
        &[(
            WIRE,
            "fn f() -> &'static str {\n\
             \"hint: // mdbs-check: allow(panic-freedom)\"\n\
             }\n",
        )],
        &[],
    ),
    row(
        "a `#[cfg(test)]` region reports nothing, bad allows included",
        CONFIG,
        On::File,
        &[(
            WIRE,
            "#[cfg(test)]\n\
             mod tests {\n\
             // mdbs-check: allow(panic-freedom)\n\
             fn t(x: Option<u8>) -> u8 { x.unwrap() }\n\
             }\n",
        )],
        &[],
    ),
    // -----------------------------------------------------------------------
    // The forbidden-token lints.
    // -----------------------------------------------------------------------
    row(
        "wall-clock tokens fire outside tests only",
        "determinism-wall-clock",
        On::File,
        &[(
            CORE,
            "use std::time::Instant;\n#[cfg(test)]\nmod tests { use std::time::Instant; }",
        )],
        &[("use std::time::Instant", "`Instant`")],
    ),
    row(
        "panic-freedom catches methods, macros, assertions and indexing",
        "panic-freedom",
        On::File,
        &[(
            WIRE,
            "fn f(v: &[u8]) -> u8 { let x = v.first().unwrap(); assert_eq!(*x, 1); panic!(); v[0] }",
        )],
        &[
            ("fn f", "`assert_eq`"),
            ("fn f", "`panic`"),
            ("fn f", "`unwrap`"),
            ("fn f", "direct index"),
        ],
    ),
    row(
        "unwrap_or is not unwrap, debug_assert! is not assert!, a binding named assert is no macro",
        "panic-freedom",
        On::File,
        &[(
            WIRE,
            "fn f(v: Option<u8>, assert: bool) -> u8 { debug_assert!(assert); v.unwrap_or(0) }",
        )],
        &[],
    ),
    // -----------------------------------------------------------------------
    // conc
    // -----------------------------------------------------------------------
    row(
        "an undeclared lock is reported",
        "conc-lock-order",
        On::Conc(&[]),
        &[(
            THREADED,
            "struct S { q: Mutex<Vec<u8>>, r: std::sync::RwLock<u8> }\n",
        )],
        &[("struct S", "`q`"), ("struct S", "`r`")],
    ),
    row(
        "a declared lock is quiet",
        "conc-lock-order",
        On::Conc(&["q", "r"]),
        &[(
            THREADED,
            "struct S { q: Mutex<Vec<u8>>, r: std::sync::RwLock<u8> }\n",
        )],
        &[],
    ),
    row(
        "a stale declared lock is reported",
        "conc-lock-order",
        On::Conc(&["gone"]),
        &[(THREADED, "struct S { x: u32 }\n")],
        &[("struct S", "stale")],
    ),
    row(
        "a let-bound guard held across a recv",
        "conc-blocking-under-guard",
        On::Conc(&["q"]),
        &[(
            THREADED,
            "struct S { q: Mutex<u8> }\n\
             fn f(s: &S, rx: &Receiver<u8>) {\n\
                 let g = s.q.lock();\n\
                 rx.recv();\n\
             }\n",
        )],
        &[("rx.recv()", "recv")],
    ),
    row(
        "a statement-scoped temporary drops its guard at the `;`",
        "conc-blocking-under-guard",
        On::Conc(&["q"]),
        &[(
            THREADED,
            "struct S { q: Mutex<Vec<u8>> }\n\
             fn f(s: &S, rx: &Receiver<u8>) {\n\
                 s.q.lock().push(1);\n\
                 let v = std::mem::take(&mut *s.q.lock());\n\
                 rx.recv();\n\
             }\n",
        )],
        &[],
    ),
    row(
        "blocking through a local call is found transitively",
        "conc-blocking-under-guard",
        On::Conc(&["q"]),
        &[(THREADED, BLOCKING_VIA_CALL)],
        &[("slow(rx);", "`slow`")],
    ),
    row(
        "the same `.lock().unwrap()` is a poison finding",
        "conc-lock-poison",
        On::Conc(&["q"]),
        &[(THREADED, BLOCKING_VIA_CALL)],
        &[("let g = s.q.lock().unwrap()", "unwrap")],
    ),
    row(
        "a guard's scope ends with the enclosing block",
        "conc-blocking-under-guard",
        On::Conc(&["q"]),
        &[(
            THREADED,
            "struct S { q: Mutex<u8> }\n\
             fn f(s: &S, rx: &Receiver<u8>) {\n\
                 {\n\
                     let g = s.q.lock();\n\
                 }\n\
                 rx.recv();\n\
             }\n",
        )],
        &[],
    ),
    row(
        "a guard across a locking loop",
        "conc-guard-across-loop",
        On::Conc(&["a", "b"]),
        &[(
            THREADED,
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             fn f(s: &S, xs: &[u8]) {\n\
                 let g = s.a.lock();\n\
                 for x in xs {\n\
                     s.b.lock();\n\
                 }\n\
             }\n",
        )],
        &[("for x in xs", "`b`")],
    ),
    row(
        "a lock-order inversion and a self-deadlock",
        "conc-lock-order",
        On::Conc(&["a", "b"]),
        &[(
            THREADED,
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             fn wrong(s: &S) {\n\
                 let g = s.b.lock();\n\
                 let h = s.a.lock();\n\
             }\n\
             fn twice(s: &S) {\n\
                 let g2 = s.a.lock();\n\
                 let h2 = s.a.lock();\n\
             }\n",
        )],
        &[("let h = ", "declared order"), ("let h2", "self-deadlock")],
    ),
    row(
        "opposite acquisition orders close a cycle",
        "conc-lock-order",
        On::Conc(&["a", "b"]),
        &[(
            THREADED,
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             fn one(s: &S) { let g = s.a.lock(); let h = s.b.lock(); }\n\
             fn two(s: &S) { let g = s.b.lock(); let h = s.a.lock(); }\n",
        )],
        &[("struct S", "cycle"), ("fn two", "declared order")],
    ),
    row(
        "poison chains",
        "conc-lock-poison",
        On::Conc(&[]),
        &[(
            THREADED,
            "fn f(m: &std::sync::Mutex<u8>) {\n\
                 let a = m.lock().unwrap();\n\
                 let b = m.lock().expect(\"x\");\n\
                 let c = m.lock().ok();\n\
                 if let Ok(d) = m.lock() {}\n\
             }\n",
        )],
        &[
            ("let a", "unwrap"),
            ("let b", "expect"),
            ("let c", ".ok()"),
            ("if let Ok(d)", "let Ok"),
        ],
    ),
    row(
        "panics on worker threads; tests and justified allows are exempt",
        "conc-panic-in-thread",
        On::Conc(&[]),
        &[(
            THREADED,
            "fn f(x: Option<u8>) {\n\
                 x.unwrap();\n\
                 let y = x.expect(\"y\");\n\
                 panic!(\"boom\");\n\
                 unreachable!();\n\
                 x.unwrap_or_default();\n\
             }\n\
             fn g(x: Option<u8>) {\n\
                 // mdbs-check: allow(conc-panic-in-thread, \"justified\")\n\
                 x.unwrap();\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t(x: Option<u8>) { x.unwrap(); }\n\
             }\n",
        )],
        &[
            ("x.unwrap();", ".unwrap("),
            ("let y", ".expect("),
            ("panic!(\"boom\")", "`panic!`"),
            ("unreachable!()", "`unreachable!`"),
        ],
    ),
    row(
        "an indexed sharded guard is held like any other",
        "conc-blocking-under-guard",
        On::Conc(&["buf"]),
        &[(
            THREADED,
            "struct Shard { buf: Mutex<Vec<u8>> }\n\
             struct S { shards: Vec<Shard> }\n\
             fn f(s: &S, i: usize, rx: &Receiver<u8>) {\n\
                 let mut g = s.shards[i].buf.lock();\n\
                 rx.recv();\n\
             }\n",
        )],
        &[("rx.recv()", "`buf`")],
    ),
    row(
        "an indexed sharded temporary still drops at the statement",
        "conc-blocking-under-guard",
        On::Conc(&["buf"]),
        &[(
            THREADED,
            "struct Shard { buf: Mutex<Vec<u8>> }\n\
             struct S { shards: Vec<Shard> }\n\
             fn f(s: &S, i: usize, rx: &Receiver<u8>) {\n\
                 s.shards[i].buf.lock().push(1);\n\
                 rx.recv();\n\
             }\n",
        )],
        &[],
    ),
    // Two shards of the same table are still the same declared lock: the
    // order table has one entry per lock *name*, so holding one shard while
    // taking another is flagged. The runner's drain releases each shard's
    // guard before taking the next.
    row(
        "sharded guard reacquisition is a self-deadlock",
        "conc-lock-order",
        On::Conc(&["buf"]),
        &[(
            THREADED,
            "struct Shard { buf: Mutex<Vec<u8>> }\n\
             struct S { shards: Vec<Shard> }\n\
             fn f(s: &S) {\n\
                 let a = s.shards[0].buf.lock();\n\
                 let b = s.shards[1].buf.lock();\n\
             }\n",
        )],
        &[("let b", "self-deadlock")],
    ),
    // An index that *computes* has a `(` in the initializer and stays
    // outside the conservative guard-binding shape.
    row(
        "an indexed guard with a call in the index is not a guard binding",
        "conc-blocking-under-guard",
        On::Conc(&["buf"]),
        &[(
            THREADED,
            "struct Shard { buf: Mutex<Vec<u8>> }\n\
             struct S { shards: Vec<Shard> }\n\
             fn f(s: &S, i: usize, rx: &Receiver<u8>) {\n\
                 let g = s.shards[pick(i)].buf.lock();\n\
                 rx.recv();\n\
             }\n",
        )],
        &[],
    ),
    // `try_lock` binds a guard through a pattern: std's `Ok(..)` or
    // parking_lot's `Some(..)`, as `let … else` (held to the end of the
    // block) or `if let` (held for the body).
    row(
        "a try_lock guard is held, let-else and if-let alike",
        "conc-blocking-under-guard",
        On::Conc(&["q"]),
        &[(
            THREADED,
            "struct S { q: Mutex<u8> }\n\
             fn f(s: &S, rx: &Receiver<u8>) {\n\
                 let Ok(mut g) = s.q.try_lock() else {\n\
                     return;\n\
                 };\n\
                 rx.recv();\n\
             }\n\
             fn h(s: &S, rx: &Receiver<u8>) {\n\
                 if let Some(g) = s.q.try_lock() {\n\
                     rx.recv_timeout(D);\n\
                 }\n\
             }\n",
        )],
        &[("rx.recv();", "`q`"), ("rx.recv_timeout(D);", "`q`")],
    ),
    row(
        "a try_lock probe binds no guard, and an if-let guard ends with its body",
        "conc-blocking-under-guard",
        On::Conc(&["q"]),
        &[(
            THREADED,
            "struct S { q: Mutex<u8> }\n\
             fn f(s: &S, rx: &Receiver<u8>) {\n\
                 let busy = s.q.try_lock().is_err();\n\
                 rx.recv();\n\
                 let Ok(g) = s.q.try_lock() else {\n\
                     rx.recv();\n\
                     return;\n\
                 };\n\
             }\n\
             fn h(s: &S, rx: &Receiver<u8>) {\n\
                 if let Some(g) = s.q.try_lock() {\n\
                     drop(g);\n\
                 }\n\
                 rx.recv();\n\
             }\n",
        )],
        &[],
    ),
    // -----------------------------------------------------------------------
    // hotpath
    // -----------------------------------------------------------------------
    row(
        "alloc in loop fires on format! in a hot loop",
        "hot-alloc-in-loop",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self) {\n\
             for x in 0..4 {\n\
             let _s = format!(\"x={x}\");\n\
             }\n\
             }\n\
             }\n",
        )],
        &[("let _s = format!", "`format!`")],
    ),
    // Same allocation, same hot function — but once per message, not per
    // iteration.
    row(
        "alloc outside any loop stays silent",
        "hot-alloc-in-loop",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self) {\n\
             let _s = format!(\"once\");\n\
             }\n\
             }\n",
        )],
        &[],
    ),
    // `helper` is only hot because `handle` calls it.
    row(
        "the closure reaches allocations through local calls",
        "hot-alloc-in-loop",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self) { self.helper(); }\n\
             fn helper(&mut self) { for x in 0..4 { let v: Vec<u8> = Vec::new(); } }\n\
             fn cold(&mut self) { for x in 0..4 { let v: Vec<u8> = Vec::new(); } }\n\
             }\n",
        )],
        &[("fn helper", "`handle`")],
    ),
    row(
        "a table entry the file does not define is a config finding",
        CONFIG,
        On::Hot,
        &[("fixture.rs", "fn present() {}\n")],
        &[("fn present", "`handle`")],
    ),
    row(
        "repeated lookup fires on the second same-key lookup",
        "hot-repeated-lookup",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self, k: u64) {\n\
             let a = self.map.get(&k);\n\
             let b = self.map.get(&k);\n\
             let _ = (a, b);\n\
             }\n\
             }\n",
        )],
        &[("let b", "self.map.get(&k)")],
    ),
    row(
        "lookups with different keys stay silent",
        "hot-repeated-lookup",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self, a: u64, b: u64) {\n\
             let x = self.map.get(&a);\n\
             let y = self.map.get(&b);\n\
             let _ = (x, y);\n\
             }\n\
             }\n",
        )],
        &[],
    ),
    // `table` is grown elsewhere in the file (with its own drain, so only
    // the scan rule is in play); the handler walks all of it per message.
    row(
        "linear scan fires on a full walk of a grown field",
        "hot-linear-scan",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn grow(&mut self, k: u64) {\n\
             self.table.insert(k);\n\
             self.table.retain(|_| true);\n\
             }\n\
             fn handle(&self) {\n\
             for e in &self.table {\n\
             let _ = e;\n\
             }\n\
             }\n\
             }\n",
        )],
        &[("for e", "self.table")],
    ),
    // The `.range(…)` window is the fix the rule asks for.
    row(
        "a bounded range scan stays silent",
        "hot-linear-scan",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn grow(&mut self, k: u64) {\n\
             self.table.insert(k);\n\
             self.table.retain(|_| true);\n\
             }\n\
             fn handle(&self) {\n\
             for e in self.table.range(0..4) {\n\
             let _ = e;\n\
             }\n\
             }\n\
             }\n",
        )],
        &[],
    ),
    row(
        "unbounded growth fires on an undrained field",
        "hot-unbounded-growth",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self, k: u64) {\n\
             self.log.push(k);\n\
             }\n\
             }\n",
        )],
        &[("self.log.push", "self.log")],
    ),
    row(
        "growth with a drain site anywhere in the file stays silent",
        "hot-unbounded-growth",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self, k: u64) {\n\
             self.log.push(k);\n\
             }\n\
             fn compact(&mut self) {\n\
             self.log.clear();\n\
             }\n\
             }\n",
        )],
        &[],
    ),
    row(
        "a hot allow without justification does not suppress",
        "hot-alloc-in-loop",
        On::Hot,
        &[("fixture.rs", HOT_BARE_ALLOW)],
        &[("let _s = format!", "`format!`")],
    ),
    row(
        "a hot allow without justification is reported",
        CONFIG,
        On::Hot,
        &[("fixture.rs", HOT_BARE_ALLOW)],
        &[("// mdbs-check", "requires a justification")],
    ),
    row(
        "a hot allow with justification silences the finding",
        "hot-alloc-in-loop",
        On::Hot,
        &[(
            "fixture.rs",
            "impl S {\n\
             fn handle(&mut self) {\n\
             for x in 0..4 {\n\
             // mdbs-check: allow(hot-alloc-in-loop, \"one label per admission, measured harmless\")\n\
             let _s = format!(\"x={x}\");\n\
             }\n\
             }\n\
             }\n",
        )],
        &[],
    ),
    row(
        "a justified allow silences a `.clone()` in a hot loop",
        "hot-alloc-in-loop",
        On::Hot,
        &[(
            "fixture.rs",
            "fn handle() {\n\
                 for x in 0..4 {\n\
                     // mdbs-check: allow(hot-alloc-in-loop, \"copies are the point\")\n\
                     let v = x.clone();\n\
                 }\n\
             }\n",
        )],
        &[],
    ),
    row(
        "a bare allow does not silence a `.clone()` in a hot loop",
        "hot-alloc-in-loop",
        On::Hot,
        &[(
            "fixture.rs",
            "fn handle() {\n\
                 for x in 0..4 {\n\
                     // mdbs-check: allow(hot-alloc-in-loop)\n\
                     let v = x.clone();\n\
                 }\n\
             }\n",
        )],
        &[("let v = x.clone()", "`.clone()`")],
    ),
    // -----------------------------------------------------------------------
    // proto
    // -----------------------------------------------------------------------
    // Consulting the variant in a `matches!` is a test, not a handler arm:
    // the table's arm has no pattern to anchor to and is a stale row.
    row(
        "an arm only a matches! mentions is a stale table row",
        CONFIG,
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    if matches!(m, Message::Prepare { .. }) {\n\
                        self.log();\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[("fn handle", "Message::Prepare")],
    ),
    row(
        "unexpected send fires on an emission the arm does not allow",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { gtxn, sn } => {\n\
                            if self.done.contains(&gtxn) {\n\
                                return;\n\
                            }\n\
                            self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                            self.out.push(Message::Refuse { gtxn, sn });\n\
                        }\n\
                        _ => {}\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[("self.out.push(Message::Refuse", "arm `Message::Prepare`")],
    ),
    // `A { .. } | B { .. } =>` — the second alternative's payload braces
    // must not make it read as a construction.
    row(
        "an or-pattern alternative is not an emission",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { .. } | Message::Refuse { .. } => {\n\
                            if self.done.contains(&g) {\n\
                                return;\n\
                            }\n\
                            self.sched(AgentAction::StartAliveTimer { g });\n\
                            self.out.push(Message::Ready { g });\n\
                        }\n\
                        _ => {}\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[],
    ),
    row(
        "a matches! test is not an emission",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { gtxn, sn } => {\n\
                            if self.done.contains(&gtxn) {\n\
                                return;\n\
                            }\n\
                            if matches!(self.last, Message::Refuse { .. }) {\n\
                                return;\n\
                            }\n\
                            self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                            self.out.push(Message::Ready { gtxn, sn });\n\
                        }\n\
                        _ => {}\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[],
    ),
    // The arm delegates its reply to a helper in another file; the
    // disallowed emission there is still attributed to the arm.
    row(
        "the send graph follows calls across files",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[
            (
                "entry.rs",
                "impl S {\n\
                    fn handle(&mut self, m: Message) {\n\
                        match m {\n\
                            Message::Prepare { gtxn, sn } => {\n\
                                if self.done.contains(&gtxn) {\n\
                                    return;\n\
                                }\n\
                                self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                                reply(gtxn, sn);\n\
                            }\n\
                            _ => {}\n\
                        }\n\
                    }\n\
                }\n",
            ),
            (
                "helper.rs",
                "fn reply(gtxn: u64, sn: u64) {\n\
                    emit(Message::Refuse { gtxn, sn });\n\
                }\n",
            ),
        ],
        &[("emit(Message::Refuse", "arm `Message::Prepare`")],
    ),
    row(
        "a send outside every arm is a finding when the spec does not list it",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[("fixture.rs", FREE_SEND)],
        &[("self.out.push(Message::Failed", "outside every handler arm")],
    ),
    row(
        "a listed free send is allowed",
        "proto-unexpected-send",
        On::Node(&WITH_FREE),
        &[("fixture.rs", FREE_SEND)],
        &[],
    ),
    row(
        "missing dup guard fires when no alternative appears",
        "proto-missing-dup-guard",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { gtxn, sn } => {\n\
                            self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                            self.out.push(Message::Ready { gtxn, sn });\n\
                        }\n\
                        _ => {}\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[("Message::Prepare", "`done.contains`")],
    ),
    row(
        "a guard consulted in a callee satisfies the arm",
        "proto-missing-dup-guard",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { gtxn, sn } => self.on_prepare(gtxn, sn),\n\
                        _ => {}\n\
                    }\n\
                }\n\
                fn on_prepare(&mut self, gtxn: u64, sn: u64) {\n\
                    if self.done.contains(&gtxn) {\n\
                        return;\n\
                    }\n\
                    self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                    self.out.push(Message::Ready { gtxn, sn });\n\
                }\n\
            }\n",
        )],
        &[],
    ),
    row(
        "no timeout fires when the blocking arm schedules no timer",
        "proto-no-timeout",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { gtxn, sn } => {\n\
                            if self.done.contains(&gtxn) {\n\
                                return;\n\
                            }\n\
                            self.out.push(Message::Ready { gtxn, sn });\n\
                        }\n\
                        _ => {}\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[("Message::Prepare", "`StartAliveTimer`")],
    ),
    // With no entry there is no closure, so the arm has no pattern either.
    row(
        "a missing entry fn is a config finding",
        CONFIG,
        On::Node(&STALE),
        &[("fixture.rs", CLEAN)],
        &[
            ("impl S", "entry fn `no_such_entry` not found"),
            ("impl S", "no pattern matches `Message::Prepare`"),
        ],
    ),
    row(
        "a justified proto allow silences the finding",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[(
            "fixture.rs",
            "impl S {\n\
                fn handle(&mut self, m: Message) {\n\
                    match m {\n\
                        Message::Prepare { gtxn, sn } => {\n\
                            if self.done.contains(&gtxn) {\n\
                                return;\n\
                            }\n\
                            self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                            // mdbs-check: allow(proto-unexpected-send, \"fixture: the refusal is table-pending\")\n\
                            self.out.push(Message::Refuse { gtxn, sn });\n\
                        }\n\
                        _ => {}\n\
                    }\n\
                }\n\
            }\n",
        )],
        &[],
    ),
    row(
        "a bare proto allow suppresses nothing",
        "proto-unexpected-send",
        On::Node(&SPEC),
        &[("fixture.rs", PROTO_BARE_ALLOW)],
        &[("self.out.push(Message::Refuse", "")],
    ),
    row(
        "a bare proto allow is a finding",
        CONFIG,
        On::Node(&SPEC),
        &[("fixture.rs", PROTO_BARE_ALLOW)],
        &[("// mdbs-check", "requires a justification")],
    ),
];
