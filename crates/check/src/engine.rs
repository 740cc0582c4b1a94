//! The rule engine under `mdbs-check lint | conc | hotpath | proto`.
//!
//! The four subcommands are four *groups* of one [`RULES`] table. A rule is
//! a row — id, group, and a check body over [`crate::scan`]'s token model —
//! and everything a rule does not decide lives here, once:
//!
//! - the [`Finding`] every rule reports;
//! - the suppression contract ([`parse_allows`], [`suppressed_at`]):
//!
//!   ```text
//!   // mdbs-check: allow(rule[, rule…], "why this is accepted")
//!   ```
//!
//!   covers its own line and the next. The justification is mandatory for
//!   every rule; an allow that is bare, malformed, or names a rule that is
//!   not in the table suppresses nothing and is itself a `check-config`
//!   finding. Only text inside a `//` comment counts — a string literal
//!   that spells the marker is just a string;
//! - the [`Sink`] every rule reports through: `#[cfg(test)]` sites are
//!   dropped, then suppressed ones, then exact repeats (a site inside a
//!   nested loop or a nested `fn` is visited twice), and [`Sink::finish`]
//!   is the one place findings are sorted;
//! - [`run`], which walks a group's checked-in tables — the forbidden-token
//!   rows of the lints, `CONC_FILES`, `HOT_PATHS`, `PROTOCOL` — builds one
//!   [`Unit`] per table row and hands it to
//!   [`check`]. The fixture harness builds its units from synthetic
//!   sources and calls the same [`check`].
//!
//! File-local and cross-file rules share one call graph:
//! [`crate::scan::FileSet::closure`] over a one-file or a many-file set.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::scan::{FileSet, SourceFile};
use crate::{conc, hotpath, lint, proto};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The four rule groups, one per `mdbs-check` source subcommand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    Lint,
    Conc,
    Hotpath,
    Proto,
}

impl Group {
    /// The group a subcommand name selects.
    pub fn named(name: &str) -> Option<Group> {
        match name {
            "lint" => Some(Group::Lint),
            "conc" => Some(Group::Conc),
            "hotpath" => Some(Group::Hotpath),
            "proto" => Some(Group::Proto),
            _ => None,
        }
    }
}

/// A rule's body, typed by what it runs over — which also fixes its file
/// scope.
#[derive(Clone, Copy)]
pub(crate) enum Check {
    /// The rows of [`lint::FORBIDDEN`] carrying the rule's id, each over
    /// the files the row names.
    Tokens,
    /// Every [`conc::CONC_FILES`] entry with its declared lock order.
    Conc(fn(&conc::Locks, &mut Sink)),
    /// Every [`hotpath::HOT_PATHS`] file with the closure of its entries.
    Hot(fn(&hotpath::HotFile, &mut Sink)),
    /// Every [`proto::PROTOCOL`] node kind with its handler arms resolved.
    Proto(fn(&proto::Node, &mut Sink)),
}

/// One row of the rule table.
pub struct Rule {
    pub id: &'static str,
    pub group: Group,
    pub(crate) check: Check,
}

/// Table hygiene, in every group: a checked-in table that drifted from the
/// source, or a suppression that breaks the contract.
pub const CONFIG: &str = "check-config";

const fn rule(id: &'static str, group: Group, check: Check) -> Rule {
    Rule { id, group, check }
}

/// Every rule `mdbs-check` knows. DESIGN §7a records why each is here.
pub const RULES: &[Rule] = &[
    rule("determinism-wall-clock", Group::Lint, Check::Tokens),
    rule("determinism-hash-order", Group::Lint, Check::Tokens),
    rule("panic-freedom", Group::Lint, Check::Tokens),
    rule(conc::RULE_ORDER, Group::Conc, Check::Conc(conc::lock_order)),
    rule(
        conc::RULE_BLOCKING,
        Group::Conc,
        Check::Conc(conc::blocking_under_guard),
    ),
    rule(
        conc::RULE_LOOP,
        Group::Conc,
        Check::Conc(conc::guard_across_loop),
    ),
    rule(
        conc::RULE_POISON,
        Group::Conc,
        Check::Conc(conc::lock_poison),
    ),
    rule("conc-panic-in-thread", Group::Conc, Check::Tokens),
    rule(
        hotpath::RULE_ALLOC,
        Group::Hotpath,
        Check::Hot(hotpath::alloc_in_loop),
    ),
    rule(
        hotpath::RULE_LOOKUP,
        Group::Hotpath,
        Check::Hot(hotpath::repeated_lookup),
    ),
    rule(
        hotpath::RULE_SCAN,
        Group::Hotpath,
        Check::Hot(hotpath::linear_scan),
    ),
    rule(
        hotpath::RULE_GROWTH,
        Group::Hotpath,
        Check::Hot(hotpath::unbounded_growth),
    ),
    rule(CONFIG, Group::Hotpath, Check::Hot(hotpath::stale_entries)),
    rule(
        proto::RULE_UNEXPECTED_SEND,
        Group::Proto,
        Check::Proto(proto::unexpected_send),
    ),
    rule(
        proto::RULE_DUP_GUARD,
        Group::Proto,
        Check::Proto(proto::missing_dup_guard),
    ),
    rule(
        proto::RULE_NO_TIMEOUT,
        Group::Proto,
        Check::Proto(proto::no_timeout),
    ),
    rule(CONFIG, Group::Proto, Check::Proto(proto::stale_entries)),
];

/// The group that runs rule `id`.
pub(crate) fn group_of(id: &str) -> Option<Group> {
    RULES.iter().find(|r| r.id == id).map(|r| r.group)
}

const MARKER: &str = "mdbs-check: allow(";

/// A file's suppressions: 1-based line of the comment → the rules it names.
type Allows = BTreeMap<usize, Vec<String>>;

/// Parse every suppression comment of `src`: the allows that honour the
/// contract, and (offset, reason) for each one that does not.
fn parse_allows(src: &SourceFile) -> (Allows, Vec<(usize, String)>) {
    let mut allows = Allows::new();
    let mut bad = Vec::new();
    for &(lo, hi) in &src.line_comments {
        let text = &src.raw[lo..hi];
        let Some(pos) = text.find(MARKER) else {
            continue;
        };
        let args = &text[pos + MARKER.len()..];
        let parsed = (|| {
            let (rules, rest) = args.split_once('"').ok_or("it gives no justification")?;
            let (why, tail) = rest.split_once('"').ok_or("its justification never ends")?;
            if why.trim().is_empty() {
                return Err("its justification is empty");
            }
            if !tail.trim_start().starts_with(')') {
                return Err("the justification must be the last argument");
            }
            let rules: Vec<&str> = rules
                .split(',')
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                return Err("it names no rule");
            }
            if rules.iter().any(|r| group_of(r).is_none()) {
                return Err("it names a rule that does not exist");
            }
            Ok(rules)
        })();
        match parsed {
            Ok(rules) => allows
                .entry(src.line_of(lo + pos))
                .or_default()
                .extend(rules.into_iter().map(String::from)),
            Err(why) => bad.push((
                lo + pos,
                format!(
                    "this allow suppresses nothing: {why}. A suppression requires a \
                     justification — // mdbs-check: allow(rule[, rule…], \"why this is accepted\")"
                ),
            )),
        }
    }
    (allows, bad)
}

/// Whether `rule` is suppressed at 1-based `line`: an allow covers its own
/// line and the next.
fn suppressed_at(allows: &Allows, rule: &str, line: usize) -> bool {
    [line, line.saturating_sub(1)].iter().any(|l| {
        allows
            .get(l)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    })
}

/// Where every rule reports.
#[derive(Default)]
pub struct Sink {
    findings: Vec<Finding>,
    seen: BTreeSet<(String, usize, &'static str, String)>,
    allows: BTreeMap<String, Allows>,
}

impl Sink {
    /// Read `src`'s suppressions and report the ones that break the
    /// contract. Idempotent; [`Sink::report`] admits on demand, but a file
    /// nothing is reported on still has to be admitted for its bad allows
    /// to surface, so [`check`] admits everything it is handed.
    fn admit(&mut self, src: &SourceFile) {
        if self.allows.contains_key(&src.rel) {
            return;
        }
        let (allows, bad) = parse_allows(src);
        self.allows.insert(src.rel.clone(), allows);
        for (at, msg) in bad {
            self.report(src, CONFIG, at, msg);
        }
    }

    /// Report `rule` at byte offset `at` of `src`, unless the site is
    /// test-only, suppressed, or already reported with this message.
    pub(crate) fn report(&mut self, src: &SourceFile, rule: &'static str, at: usize, msg: String) {
        debug_assert!(group_of(rule).is_some(), "{rule} is not in RULES");
        self.admit(src);
        let line = src.line_of(at);
        if src.in_test(at)
            || suppressed_at(&self.allows[&src.rel], rule, line)
            || !self.seen.insert((src.rel.clone(), at, rule, msg.clone()))
        {
            return;
        }
        self.findings.push(Finding {
            rule,
            file: src.rel.clone(),
            line,
            msg,
        });
    }

    /// The findings, in the one output order.
    pub fn finish(mut self) -> Vec<Finding> {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.msg))
        });
        self.findings
    }
}

/// What one table row puts in front of a group's rules.
pub enum Unit<'a> {
    /// One file, for the forbidden-token rules alone.
    File(&'a SourceFile),
    Conc(conc::Locks<'a>),
    Hot(hotpath::HotFile<'a>),
    Node(proto::Node<'a>),
}

impl Unit<'_> {
    fn files(&self) -> &[SourceFile] {
        match self {
            Unit::File(src) => std::slice::from_ref(*src),
            Unit::Conc(locks) => std::slice::from_ref(locks.src),
            Unit::Hot(hot) => std::slice::from_ref(hot.src),
            Unit::Node(node) => node.fs.files(),
        }
    }
}

/// Run every rule of `group` that applies to `unit`.
pub fn check(group: Group, unit: &Unit, sink: &mut Sink) {
    for src in unit.files() {
        sink.admit(src);
    }
    for rule in RULES.iter().filter(|r| r.group == group) {
        match (rule.check, unit) {
            (Check::Tokens, _) => {
                for src in unit.files() {
                    lint::forbidden(rule.id, src, sink);
                }
            }
            (Check::Conc(body), Unit::Conc(locks)) => body(locks, sink),
            (Check::Hot(body), Unit::Hot(hot)) => body(hot, sink),
            (Check::Proto(body), Unit::Node(node)) => body(node, sink),
            _ => {}
        }
    }
}

/// Run `group` over the workspace at `root`.
pub fn run(root: &Path, group: Group) -> Result<Vec<Finding>, String> {
    let mut sink = Sink::default();
    match group {
        Group::Lint => {
            for rel in lint::forbidden_files(root, group)? {
                let src = SourceFile::read(&root.join(&rel), rel)?;
                check(group, &Unit::File(&src), &mut sink);
            }
        }
        Group::Conc => {
            for rel in conc::CONC_FILES {
                let src = SourceFile::read(&root.join(rel), rel.to_string())?;
                let locks = conc::Locks::of(&src, conc::declared_order(rel));
                check(group, &Unit::Conc(locks), &mut sink);
            }
        }
        Group::Hotpath => {
            for (rel, entries) in hotpath::HOT_PATHS {
                let fs = FileSet::load(root, &[rel])?;
                check(
                    group,
                    &Unit::Hot(hotpath::HotFile::of(&fs, entries)),
                    &mut sink,
                );
            }
        }
        Group::Proto => {
            for spec in proto::PROTOCOL {
                let fs = FileSet::load(root, spec.files)?;
                check(group, &Unit::Node(proto::Node::of(&fs, spec)), &mut sink);
            }
        }
    }
    Ok(sink.finish())
}
