//! Fixture coverage for every `mdbs-check proto` rule: one synthetic
//! source where the rule fires (with the right file:line anchor) and one
//! near-miss that must stay silent, plus the mention-classification edge
//! cases (or-patterns, `matches!` tests), the suppression contract (a
//! justification is mandatory), and the workspace-proto-clean pin.

use std::path::Path;

use mdbs_check::lint::Finding;
use mdbs_check::proto::{check_set, run_proto, ArmSpec, HandlerSpec};
use mdbs_check::scan::{FileSet, SourceFile};

fn workspace_root() -> &'static Path {
    // crates/check -> the workspace root.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn fileset(files: &[(&str, &str)]) -> FileSet {
    FileSet::from_files(
        files
            .iter()
            .map(|(rel, raw)| SourceFile::parse(raw.to_string(), rel.to_string()))
            .collect(),
    )
}

fn check(spec: &HandlerSpec, files: &[(&str, &str)]) -> Vec<Finding> {
    let fs = fileset(files);
    let mut findings = Vec::new();
    check_set(&fs, spec, &mut findings);
    findings
}

fn line_of(raw: &str, needle: &str) -> usize {
    let at = raw.find(needle).expect("needle present in fixture");
    raw[..at].bytes().filter(|&b| b == b'\n').count() + 1
}

/// The fixture node: one handled arm (`Message::Prepare`) that must
/// consult the done-set, arm the alive timer, and may only answer READY.
static SPEC: HandlerSpec = HandlerSpec {
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

#[test]
fn the_conformant_fixture_is_clean() {
    let f = check(&SPEC, &[("fixture.rs", CLEAN)]);
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------------------
// proto-unhandled
// ---------------------------------------------------------------------------

#[test]
fn unhandled_fires_when_no_arm_matches_the_variant() {
    let raw = "impl S {\n\
        fn handle(&mut self, m: Message) {\n\
            match m {\n\
                _ => {}\n\
            }\n\
        }\n\
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-unhandled");
    assert_eq!(f[0].line, line_of(raw, "fn handle"));
    assert!(f[0].msg.contains("Message::Prepare"), "{}", f[0].msg);
}

#[test]
fn a_matches_test_is_not_handling_evidence() {
    // Consulting the variant in a `matches!` is a test, not a handler
    // arm — the variant is still unhandled.
    let raw = "impl S {\n\
        fn handle(&mut self, m: Message) {\n\
            if matches!(m, Message::Prepare { .. }) {\n\
                self.log();\n\
            }\n\
        }\n\
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-unhandled");
}

// ---------------------------------------------------------------------------
// proto-unexpected-send
// ---------------------------------------------------------------------------

#[test]
fn unexpected_send_fires_on_an_emission_the_arm_does_not_allow() {
    let raw = "impl S {\n\
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
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-unexpected-send");
    assert_eq!(f[0].line, line_of(raw, "Message::Refuse"));
}

#[test]
fn an_or_pattern_alternative_is_not_an_emission() {
    // `A { .. } | B { .. } =>` — the second alternative's payload braces
    // must not make it read as a construction.
    let raw = "impl S {\n\
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
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn a_matches_test_is_not_an_emission() {
    let raw = "impl S {\n\
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
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn the_send_graph_follows_calls_across_files() {
    // The arm delegates its reply to a helper in another file; the
    // disallowed emission there is still attributed to the arm.
    let entry = "impl S {\n\
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
    }\n";
    let helper = "fn reply(gtxn: u64, sn: u64) {\n\
        emit(Message::Refuse { gtxn, sn });\n\
    }\n";
    static CROSS: HandlerSpec = HandlerSpec {
        files: &["entry.rs", "helper.rs"],
        ..SPEC_TEMPLATE
    };
    let f = check(&CROSS, &[("entry.rs", entry), ("helper.rs", helper)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-unexpected-send");
    assert_eq!(f[0].file, "helper.rs");
    assert_eq!(f[0].line, line_of(helper, "Message::Refuse"));
    assert!(f[0].msg.contains("arm `Message::Prepare`"), "{}", f[0].msg);
}

/// Base spec for variants that only change `files` (struct-update needs a
/// const base).
const SPEC_TEMPLATE: HandlerSpec = HandlerSpec {
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

#[test]
fn a_free_send_outside_every_arm_is_allowed_only_when_listed() {
    let raw = "impl S {\n\
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
    // Not in free_sends: a finding outside every arm.
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-unexpected-send");
    assert!(
        f[0].msg.contains("outside every handler arm"),
        "{}",
        f[0].msg
    );
    // Listed: clean.
    static WITH_FREE: HandlerSpec = HandlerSpec {
        free_sends: &[("Message", "Failed")],
        ..SPEC_TEMPLATE
    };
    let f = check(&WITH_FREE, &[("fixture.rs", raw)]);
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------------------
// proto-missing-dup-guard
// ---------------------------------------------------------------------------

#[test]
fn missing_dup_guard_fires_when_no_alternative_appears() {
    let raw = "impl S {\n\
        fn handle(&mut self, m: Message) {\n\
            match m {\n\
                Message::Prepare { gtxn, sn } => {\n\
                    self.sched(AgentAction::StartAliveTimer { gtxn });\n\
                    self.out.push(Message::Ready { gtxn, sn });\n\
                }\n\
                _ => {}\n\
            }\n\
        }\n\
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-missing-dup-guard");
    assert_eq!(f[0].line, line_of(raw, "Message::Prepare"));
}

#[test]
fn a_guard_consulted_in_a_callee_satisfies_the_arm() {
    let raw = "impl S {\n\
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
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------------------
// proto-no-timeout
// ---------------------------------------------------------------------------

#[test]
fn no_timeout_fires_when_the_blocking_arm_schedules_no_timer() {
    let raw = "impl S {\n\
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
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "proto-no-timeout");
    assert_eq!(f[0].line, line_of(raw, "Message::Prepare"));
}

// ---------------------------------------------------------------------------
// proto-config: stale tables
// ---------------------------------------------------------------------------

#[test]
fn a_missing_entry_fn_is_a_config_finding() {
    static STALE: HandlerSpec = HandlerSpec {
        entries: &["no_such_entry"],
        ..SPEC_TEMPLATE
    };
    let f = check(&STALE, &[("fixture.rs", CLEAN)]);
    assert!(
        f.iter()
            .any(|f| f.rule == "proto-config" && f.msg.contains("no_such_entry")),
        "{f:?}"
    );
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

#[test]
fn a_justified_suppression_silences_the_finding() {
    let raw = "impl S {\n\
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
    }\n";
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn a_bare_suppression_is_a_finding_and_suppresses_nothing() {
    let raw = "impl S {\n\
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
    let f = check(&SPEC, &[("fixture.rs", raw)]);
    let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"proto-config"), "{f:?}");
    assert!(rules.contains(&"proto-unexpected-send"), "{f:?}");
    let config = f.iter().find(|f| f.rule == "proto-config").unwrap();
    assert!(
        config.msg.contains("requires a justification"),
        "{}",
        config.msg
    );
}

// ---------------------------------------------------------------------------
// The workspace pin
// ---------------------------------------------------------------------------

/// The real workspace must stay proto-clean: every finding is either
/// fixed or carries a written justification.
#[test]
fn workspace_is_proto_clean() {
    let f = run_proto(workspace_root()).expect("proto pass runs");
    assert!(f.is_empty(), "workspace proto findings:\n{f:#?}");
}
