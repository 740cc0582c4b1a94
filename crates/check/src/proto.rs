//! `mdbs-check proto`: static protocol-conformance over the 2PC/certify
//! message flow.
//!
//! The paper's correctness story (§3 prepare/commit flow, §4.2
//! certification, §2 failure assumptions) is a message-protocol contract:
//! for every node kind there is a fixed set of messages it may emit from
//! each handler arm, a duplicate guard wherever an arm mutates
//! 2PC/consensus state (the PR 2/PR 8/PR 19 hardening), and a timer
//! wherever an arm enters a blocking wait (§2's blocked-agent
//! assumptions). The runtime checkers exercise that contract on
//! executions; this pass pins it to the *source*, so a refactor that drops
//! a dup guard or a timeout fails the build before any scenario runs.
//! Which variants exist, and which handlers must decide about each, is not
//! in the table: the handlers match without wildcards (clippy's
//! `wildcard_enum_match_arm` is denied on each), so that is rustc's to say.
//!
//! Like `conc` (DECLARED_LOCK_ORDER) and `hotpath` (HOT_PATHS), the
//! contract is a checked-in table: [`PROTOCOL`] declares, per node kind,
//! the implementation surface (files + entry functions), the handled
//! message arms with their allowed emissions / required guards / required
//! timers. The analysis is token-level over [`crate::scan`]'s blanked
//! source model and uses [`FileSet`] to follow handler arms across crate
//! boundaries (runtime dispatch → core handler → consensus role).
//!
//! There is deliberately no cross-driver rule. Every host — simulation,
//! model checker, threaded runner, TCP node — reaches the runtimes through
//! the one `NodeRuntime::on_event` per node kind (the entry point pinned
//! below), so a driver cannot wire a different vocabulary than another:
//! the former `proto-driver-parity` rule and its `PARITY` table policed a
//! divergence that can no longer be written.
//!
//! Rules:
//! - `proto-unexpected-send` — a protocol-enum construction in the entry
//!   closure that no reaching arm (nor the spec's free-send list) allows.
//! - `proto-missing-dup-guard` — an arm required to consult a
//!   done-set/step-guard/ballot check has none of its declared guard
//!   token sequences in its closure.
//! - `proto-no-timeout` — an arm that enters a blocking wait has none of
//!   its declared timer tokens in its closure.
//! - `check-config` — the table itself drifted from the source: an entry
//!   function that no longer exists, or an arm whose variant no pattern in
//!   the entry closure matches.

use crate::engine::{Sink, CONFIG};
use crate::scan::{self, FileSet};

pub(crate) const RULE_UNEXPECTED_SEND: &str = "proto-unexpected-send";
pub(crate) const RULE_DUP_GUARD: &str = "proto-missing-dup-guard";
pub(crate) const RULE_NO_TIMEOUT: &str = "proto-no-timeout";

/// One handled message arm of a node kind.
pub struct ArmSpec {
    /// Protocol enum the arm matches (`Message`, `CtrlMsg`, `PaxosMsg`).
    pub enum_name: &'static str,
    pub variant: &'static str,
    /// Emissions allowed from this arm's closure, as (enum, variant).
    pub sends: &'static [(&'static str, &'static str)],
    /// Duplicate-guard token-sequence alternatives: at least one must
    /// appear in the arm's closure. Empty = the arm mutates no guarded
    /// state.
    pub dup_guard: &'static [&'static [&'static str]],
    /// Timer token-sequence alternatives: at least one must appear if the
    /// arm enters a blocking wait. Empty = the arm never blocks.
    pub timeout: &'static [&'static [&'static str]],
}

/// One node kind's handler surface.
pub struct HandlerSpec {
    pub node: &'static str,
    /// Workspace-relative implementation files. `files[0]` defines the
    /// entry functions; the closure may cross into any listed file.
    pub files: &'static [&'static str],
    /// Entry functions (dispatch surface) defined in `files[0]`.
    pub entries: &'static [&'static str],
    pub arms: &'static [ArmSpec],
    /// Emissions allowed from entry paths outside every arm closure
    /// (timer callbacks, LTM completions, recovery, begin).
    pub free_sends: &'static [(&'static str, &'static str)],
}

const AGENT: &str = "crates/core/src/agent.rs";
const COORD: &str = "crates/core/src/coordinator.rs";
const RT_SITE: &str = "crates/runtime/src/site.rs";
const RT_COORD: &str = "crates/runtime/src/coordinator.rs";
const RT_CENTRAL: &str = "crates/runtime/src/central.rs";
const RT_ACCEPTOR: &str = "crates/runtime/src/acceptor.rs";
const CONS_LEADER: &str = "crates/consensus/src/leader.rs";
const CONS_ACCEPTOR: &str = "crates/consensus/src/acceptor.rs";

/// The enums whose constructions are emissions.
const PROTOCOL_ENUMS: &[&str] = &["Message", "CtrlMsg", "PaxosMsg"];

/// §3/§5 + DESIGN §10, per node kind. Derivation notes inline.
pub const PROTOCOL: &[HandlerSpec] = &[
    // The site agent (§3 participant): the runtime dispatch in
    // `site.rs` feeds `Agent::handle`, whose downstream arms live in
    // `agent.rs`. Votes fan out to the acceptors (DESIGN §10) from the
    // runtime layer, outside any arm — hence the free CtrlMsg::Paxos.
    HandlerSpec {
        node: "site",
        files: &[RT_SITE, AGENT],
        // `on_event`/`tick` are the node-loop surface; the rest is what
        // the multiplexing hosts (simulation, model checker) call for
        // work they schedule themselves.
        entries: &[
            "on_event",
            "tick",
            "start_local",
            "inject_abort",
            "kill_local_deadlocks",
            "abort_on_timeout",
            "crash",
        ],
        arms: &[
            ArmSpec {
                enum_name: "Message",
                variant: "Begin",
                sends: &[],
                // A duplicate BEGIN after DONE would start a second
                // incarnation and leak locks forever (PR 2 hardening).
                dup_guard: &[&["done", ".", "contains"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Dml",
                sends: &[("Message", "Failed")],
                // Re-delivered DML must not double-apply a step.
                dup_guard: &[&["last_dml_step"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "BeginDml",
                sends: &[("Message", "Failed")],
                // BEGIN then DML: a late one must not reopen a finished
                // transaction, and a re-delivered one must not re-run its
                // step.
                dup_guard: &[&["done", ".", "contains"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Prepare",
                sends: &[("Message", "Ready"), ("Message", "Refuse")],
                // Certification runs once per incarnation: only an Active
                // subtransaction may vote (§4.2).
                dup_guard: &[&["Phase", "::", "Active"]],
                // Voting READY enters the §2 blocked window — the alive
                // timer must be armed with the vote.
                timeout: &[&["StartAliveTimer"]],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Commit",
                sends: &[("Message", "CommitAck")],
                // A COMMIT overtaking its PREPARE must not commit an
                // uncertified incarnation.
                dup_guard: &[&["in_table"]],
                // Commit certification can defer, and the hold ends at an
                // event: a re-delivered COMMIT, the replay completing, or
                // a smaller serial number leaving the table — or at the
                // alive tick the `Prepare` arm must arm with READY, which
                // retries it (Appendix C ordering).
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Rollback",
                sends: &[("Message", "RollbackAck")],
                // Terminal either way: the done-set records the outcome so
                // a reordered BEGIN cannot resurrect the transaction.
                dup_guard: &[&["note_done"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "NewCoord",
                sends: &[],
                // Redirect bookkeeping only; the redirects table is the
                // guard consulted by the later Commit/Rollback.
                dup_guard: &[&["redirects"]],
                timeout: &[],
            },
        ],
        // Non-arm paths: LTM completions reply DmlResult, unilateral
        // aborts reply Failed, crash recovery re-votes Ready/Failed, the
        // vote fan-out mirrors Ready/Refuse/Failed to the acceptors as
        // CtrlMsg::Paxos (DESIGN §10).
        free_sends: &[
            ("Message", "DmlResult"),
            ("Message", "Failed"),
            ("Message", "Ready"),
            ("CtrlMsg", "Paxos"),
            ("PaxosMsg", "Vote2a"),
        ],
    },
    // The coordinator (§3 coordinator + DESIGN §10 leader): upstream 2PC
    // arms in `coordinator.rs`, control-plane arms (CGM admission/vote,
    // Paxos Commit) in the runtime wrapper, consensus roles in the
    // consensus crate.
    HandlerSpec {
        node: "coordinator",
        files: &[RT_COORD, COORD, CONS_LEADER],
        entries: &["on_event"],
        arms: &[
            ArmSpec {
                enum_name: "Message",
                variant: "DmlResult",
                sends: &[
                    ("Message", "Dml"),
                    ("Message", "BeginDml"),
                    ("Message", "Prepare"),
                    ("CtrlMsg", "CgmVote"),
                ],
                // Only the awaited step from the awaited site advances the
                // program; a stale result must not.
                dup_guard: &[&["TxnPhase", "::", "Executing"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Ready",
                sends: &[("Message", "Commit"), ("CtrlMsg", "CgmVote")],
                // The committing-phase duplicate-READY branch is 2PC
                // recovery (retransmit the decision) — dropping it strands
                // a recovered site forever. The full comparison is pinned
                // (not just the variant path) because the arm also
                // *assigns* `phase = TxnPhase::Committing` on the decide
                // path, which must not satisfy the guard.
                dup_guard: &[&["phase", "==", "TxnPhase", "::", "Committing"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Refuse",
                sends: &[("Message", "Rollback"), ("CtrlMsg", "CgmVote")],
                dup_guard: &[&["TxnPhase", "::", "Aborting"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "Failed",
                sends: &[("Message", "Rollback"), ("CtrlMsg", "CgmVote")],
                dup_guard: &[&["TxnPhase", "::", "Aborting"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "CommitAck",
                sends: &[("CtrlMsg", "CgmVote")],
                // An ack only counts against the matching phase/outcome.
                dup_guard: &[&["TxnPhase", "::", "Committing"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "Message",
                variant: "RollbackAck",
                sends: &[("CtrlMsg", "CgmVote")],
                dup_guard: &[&["TxnPhase", "::", "Aborting"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "CtrlMsg",
                variant: "CgmAdmitted",
                // Admission releases the held `begin`: the first command,
                // carrying its site's BEGIN (§5.3). The closure shares
                // `begin` with the CGM request path, so its control
                // messages are reachable too — and, like every arm that
                // interprets coordinator actions, the `Finished` action's
                // release of the CGM site locks.
                sends: &[
                    ("Message", "BeginDml"),
                    ("Message", "Dml"),
                    ("CtrlMsg", "CgmRequest"),
                    ("CtrlMsg", "CgmVote"),
                    ("CtrlMsg", "CgmFinished"),
                    ("PaxosMsg", "Begin"),
                ],
                // The grant takes the program out of the CGM entry: a
                // re-delivered one must not begin the transaction twice.
                dup_guard: &[&["program", ".", "take"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "CtrlMsg",
                variant: "CgmVoteResult",
                sends: &[
                    ("Message", "Rollback"),
                    ("CtrlMsg", "CgmVote"),
                    ("CtrlMsg", "CgmFinished"),
                ],
                // The verdict takes the held PREPAREs: a second one — the
                // scheduler may even have judged it differently — is void.
                dup_guard: &[&["held", ".", "is_empty"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "CtrlMsg",
                variant: "Paxos",
                sends: &[
                    ("CtrlMsg", "Paxos"),
                    ("CtrlMsg", "CgmVote"),
                    ("CtrlMsg", "CgmFinished"),
                    ("Message", "Commit"),
                    ("Message", "Rollback"),
                    ("Message", "NewCoord"),
                    ("PaxosMsg", "Propose2a"),
                    ("PaxosMsg", "Clear"),
                ],
                // A decision applies only while Preparing; a stale ballot
                // must not re-decide (PR 8 hardening).
                dup_guard: &[&["TxnPhase", "::", "Preparing"]],
                timeout: &[],
            },
        ],
        // `begin`/`take_over` are externally driven (not message arms):
        // they open 2PC, register at the acceptors, and run phase 1.
        free_sends: &[
            ("Message", "BeginDml"),
            ("Message", "Dml"),
            ("Message", "Prepare"),
            ("Message", "Commit"),
            ("Message", "Rollback"),
            ("Message", "NewCoord"),
            ("CtrlMsg", "CgmRequest"),
            ("CtrlMsg", "CgmVote"),
            ("CtrlMsg", "Paxos"),
            ("PaxosMsg", "Begin"),
            ("PaxosMsg", "Prepare1a"),
            ("PaxosMsg", "Propose2a"),
            ("PaxosMsg", "Clear"),
        ],
    },
    // The CGM central scheduler (§5.3): admission locks + commit-graph
    // vote. Pure request/response — every arm answers with exactly one
    // control-message kind, and acts once per transaction (`answer_to` holds
    // it from its request to its `CgmFinished`, `voted` marks its vote).
    HandlerSpec {
        node: "central",
        files: &[RT_CENTRAL],
        entries: &["on_event"],
        arms: &[
            ArmSpec {
                enum_name: "CtrlMsg",
                variant: "CgmRequest",
                sends: &[("CtrlMsg", "CgmAdmitted")],
                dup_guard: &[&["answer_to", ".", "contains_key"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "CtrlMsg",
                variant: "CgmVote",
                sends: &[("CtrlMsg", "CgmVoteResult")],
                // One verdict per transaction: judged again, the graph may
                // have moved and the second answer differ from the first.
                dup_guard: &[&["voted", ".", "insert"]],
                timeout: &[],
            },
            ArmSpec {
                enum_name: "CtrlMsg",
                variant: "CgmFinished",
                sends: &[("CtrlMsg", "CgmAdmitted")],
                dup_guard: &[&["remove", "(", "&", "gtxn", ")", ".", "is_none"]],
                timeout: &[],
            },
        ],
        free_sends: &[],
    },
    // The Paxos Commit acceptor (DESIGN §10): one control-plane arm
    // wrapping the durable ballot/vote log.
    HandlerSpec {
        node: "acceptor",
        files: &[RT_ACCEPTOR, CONS_ACCEPTOR],
        entries: &["on_event"],
        arms: &[ArmSpec {
            enum_name: "CtrlMsg",
            variant: "Paxos",
            sends: &[
                ("CtrlMsg", "Paxos"),
                ("PaxosMsg", "Accepted"),
                ("PaxosMsg", "Promise1b"),
            ],
            // Ballot fencing: phase 1/2 messages below the promised
            // ballot must be refused (PR 8 hardening).
            dup_guard: &[&["self", ".", "promised"]],
            timeout: &[],
        }],
        free_sends: &[],
    },
];

// ---------------------------------------------------------------------------
// Mention model: each `Enum::Variant` token occurrence in a closure is a
// pattern (handling evidence), a construction (an emission), or a test
// (`matches!`/`==` — consults, neither handles nor sends).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mention {
    /// A match arm / let binding; carries the arm body range.
    Pattern((usize, usize)),
    Construct,
    Test,
}

/// All `enum_name::Variant` paths in `code[range]`: (offset of the enum
/// token, the variant, offset past it).
fn variant_mentions<'c>(
    code: &'c str,
    enum_name: &str,
    range: (usize, usize),
) -> Vec<(usize, &'c str, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for occ in scan::idents_in(code, enum_name, range) {
        let Some(c) = scan::nonws_from(code, occ + enum_name.len()) else {
            continue;
        };
        if !code[c..].starts_with("::") {
            continue;
        }
        let Some(v) = scan::nonws_from(code, c + 2) else {
            continue;
        };
        // Variants are CamelCase; `Message::specimens` is not one.
        if !bytes[v].is_ascii_uppercase() {
            continue;
        }
        let vend = scan::ident_end(bytes, v);
        out.push((occ, &code[v..vend], vend));
    }
    out
}

/// Byte ranges of `matches!(...)` argument lists in `code`.
fn matches_ranges(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for occ in scan::ident_occurrences(code, "matches") {
        let bang = occ + "matches".len();
        if bytes.get(bang) != Some(&b'!') {
            continue;
        }
        let Some(open) = scan::nonws_from(code, bang + 1) else {
            continue;
        };
        if bytes[open] != b'(' {
            continue;
        }
        if let Some(close) = scan::match_brace(code, open) {
            out.push((open, close));
        }
    }
    out
}

/// Classify the mention at `(occ, vend)`. `hi` bounds forward scans (the
/// end of the enclosing region).
fn classify(code: &str, vend: usize, hi: usize, tests: &[(usize, usize)]) -> Mention {
    if tests.iter().any(|&(lo, t_hi)| vend > lo && vend < t_hi) {
        return Mention::Test;
    }
    let bytes = code.as_bytes();
    // Skip the optional payload `{…}` / `(…)`.
    let mut after = vend;
    if let Some(p) = scan::nonws_from(code, vend) {
        if bytes[p] == b'{' || bytes[p] == b'(' {
            after = scan::match_brace(code, p).unwrap_or(vend);
        }
    }
    // Scan forward at bracket depth 0 for the pattern markers `=>` (match
    // arm, possibly through an or-pattern or guard) or `=` (let binding).
    // Anything that terminates the expression first is a construction.
    let mut depth = 0i32;
    let mut j = after;
    let scan_hi = hi.min(code.len()).min(after + 2048);
    while j < scan_hi {
        match bytes[j] {
            // A depth-0 brace block is another or-pattern alternative's
            // payload (`A { .. } | B { .. } =>`) or a trailing struct
            // literal — skip it and keep looking for the marker.
            b'{' if depth == 0 => match scan::match_brace(code, j) {
                Some(close) => {
                    j = close;
                    continue;
                }
                None => return Mention::Construct,
            },
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth < 0 {
                    return Mention::Construct;
                }
            }
            b'=' if depth == 0 => {
                if bytes.get(j + 1) == Some(&b'>') {
                    return Mention::Pattern(arm_body(code, j + 2, hi));
                }
                if bytes.get(j + 1) == Some(&b'=') {
                    return Mention::Test; // value comparison
                }
                // `if let PAT = expr { body }`: the body is the brace
                // block that follows.
                return Mention::Pattern(let_body(code, j + 1, hi));
            }
            b',' | b';' if depth == 0 => return Mention::Construct,
            _ => {}
        }
        j += 1;
    }
    Mention::Construct
}

/// The body range of a match arm whose `=>` ends at `after_arrow`.
fn arm_body(code: &str, after_arrow: usize, hi: usize) -> (usize, usize) {
    let bytes = code.as_bytes();
    let Some(start) = scan::nonws_from(code, after_arrow) else {
        return (after_arrow, after_arrow);
    };
    if bytes[start] == b'{' {
        if let Some(close) = scan::match_brace(code, start) {
            return (start + 1, close - 1);
        }
    }
    // Expression arm: up to the top-level `,` or the match's closing `}`.
    let mut depth = 0i32;
    let mut j = start;
    let hi = hi.min(code.len());
    while j < hi {
        match bytes[j] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return (start, j);
                }
            }
            b',' if depth == 0 => return (start, j),
            _ => {}
        }
        j += 1;
    }
    (start, hi)
}

/// The body range of an `if let`/`while let` whose `=` ends at `after_eq`:
/// the next top-level brace block.
fn let_body(code: &str, after_eq: usize, hi: usize) -> (usize, usize) {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut j = after_eq;
    let hi = hi.min(code.len());
    while j < hi {
        match bytes[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => {
                if let Some(close) = scan::match_brace(code, j) {
                    return (j + 1, close - 1);
                }
                return (j + 1, hi);
            }
            _ => {}
        }
        j += 1;
    }
    (after_eq, after_eq)
}

// ---------------------------------------------------------------------------
// The node model: the entry closure and, per declared arm, where the arm is
// handled and everything it reaches.
// ---------------------------------------------------------------------------

/// Regions (file index, byte range) making up one closure.
type Regions = Vec<(usize, (usize, usize))>;

fn contains(regions: &Regions, file: usize, off: usize) -> bool {
    regions
        .iter()
        .any(|&(f, (lo, hi))| f == file && off >= lo && off < hi)
}

/// One node kind's handler spec resolved against its scanned file set.
pub struct Node<'a> {
    pub(crate) fs: &'a FileSet,
    spec: &'a HandlerSpec,
    /// The bodies reachable from the spec's entry functions.
    regions: Regions,
    /// `matches!(…)` argument ranges, per file.
    tests: Vec<Vec<(usize, usize)>>,
    /// Per `spec.arms` entry: the first handler pattern (file, offset), and
    /// the arm's closure — every pattern through its arm body, plus the
    /// bodies of everything those arms call.
    arms: Vec<(Option<(usize, usize)>, Regions)>,
}

impl<'a> Node<'a> {
    pub fn of(fs: &'a FileSet, spec: &'a HandlerSpec) -> Node<'a> {
        let seeds: Vec<_> = spec.entries.iter().flat_map(|e| fs.entries(0, e)).collect();
        let regions = bodies(fs, &seeds);
        let tests: Vec<_> = fs.files().iter().map(|f| matches_ranges(&f.code)).collect();
        let mut arms = Vec::new();
        for arm in spec.arms {
            let mut reach: Regions = Vec::new();
            let mut anchor = None;
            for &(file, range) in &regions {
                let code = &fs.file(file).code;
                for (occ, variant, vend) in variant_mentions(code, arm.enum_name, range) {
                    if variant != arm.variant || fs.file(file).in_test(occ) {
                        continue;
                    }
                    if let Mention::Pattern(body) = classify(code, vend, range.1, &tests[file]) {
                        anchor.get_or_insert((file, occ));
                        // The guard sits between the pattern and the body, so
                        // the arm region starts at the pattern itself.
                        reach.push((file, (occ, body.1)));
                        reach.extend(bodies(fs, &fs.callees(file, body)));
                    }
                }
            }
            arms.push((anchor, reach));
        }
        Node {
            fs,
            spec,
            regions,
            tests,
            arms,
        }
    }

    /// The handled arms: (spec, where the first pattern is, closure).
    fn handled(&self) -> impl Iterator<Item = (&ArmSpec, (usize, usize), &Regions)> {
        let arms = self.spec.arms.iter().zip(&self.arms);
        arms.filter_map(|(arm, (anchor, reach))| Some((arm, (*anchor)?, reach)))
    }
}

/// The bodies of the call closure of `seeds`.
fn bodies(fs: &FileSet, seeds: &[scan::FnRef]) -> Regions {
    let closure = fs.closure(seeds);
    closure.iter().map(|&r| (r.0, fs.fn_info(r).body)).collect()
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

/// The table against the source: every entry function exists, and every
/// arm's variant is matched by some pattern in the entry closure.
pub(crate) fn stale_entries(node: &Node, sink: &mut Sink) {
    let spec = node.spec;
    let src = node.fs.file(0);
    for name in spec.entries {
        if node.fs.entries(0, name).is_empty() {
            let msg = format!(
                "node `{}`: entry fn `{name}` not found in {} (stale PROTOCOL table)",
                spec.node, src.rel,
            );
            sink.report(src, CONFIG, 0, msg);
        }
    }
    let at = node.regions.first().map_or(0, |&(_, (lo, _))| lo);
    for (arm, (anchor, _)) in spec.arms.iter().zip(&node.arms) {
        if anchor.is_none() {
            let msg = format!(
                "node `{}`: no pattern matches `{}::{}` in the closure of {:?} (stale PROTOCOL \
                 arm)",
                spec.node, arm.enum_name, arm.variant, spec.entries,
            );
            sink.report(src, CONFIG, at, msg);
        }
    }
}

/// Report `rule` at every handled arm that declares token-sequence
/// alternatives (`wanted`) and has none of them in its closure.
fn required_tokens(
    node: &Node,
    sink: &mut Sink,
    rule: &'static str,
    wanted: fn(&ArmSpec) -> &'static [&'static [&'static str]],
    (what, why): (&str, &str),
) {
    for (arm, (file, occ), reach) in node.handled() {
        let alts = wanted(arm);
        let present = |words: &&[&str]| {
            reach.iter().any(|&(f, range)| {
                scan::find_token_seq(&node.fs.file(f).code, words, range).is_some()
            })
        };
        if !alts.is_empty() && !alts.iter().any(present) {
            let names: Vec<String> = alts.iter().map(|a| format!("`{}`", a.concat())).collect();
            let msg = format!(
                "node `{}`: arm `{}::{}` {what} ({}{why})",
                node.spec.node,
                arm.enum_name,
                arm.variant,
                names.join(" or "),
            );
            sink.report(node.fs.file(file), rule, occ, msg);
        }
    }
}

pub(crate) fn missing_dup_guard(node: &Node, sink: &mut Sink) {
    let complaint = (
        "mutates 2PC/consensus state without its declared duplicate guard",
        "",
    );
    required_tokens(node, sink, RULE_DUP_GUARD, |a| a.dup_guard, complaint);
}

pub(crate) fn no_timeout(node: &Node, sink: &mut Sink) {
    let complaint = (
        "enters a blocking wait with no timer scheduled",
        " required; §2 blocked-agent assumptions",
    );
    required_tokens(node, sink, RULE_NO_TIMEOUT, |a| a.timeout, complaint);
}

/// Every protocol-enum construction in the entry closure must be allowed
/// by a reaching arm or by the free-send list.
pub(crate) fn unexpected_send(node: &Node, sink: &mut Sink) {
    let spec = node.spec;
    for &enum_name in PROTOCOL_ENUMS {
        for &(file, range) in &node.regions {
            let src = node.fs.file(file);
            for (occ, variant, vend) in variant_mentions(&src.code, enum_name, range) {
                if classify(&src.code, vend, range.1, &node.tests[file]) != Mention::Construct {
                    continue;
                }
                let reaching: Vec<&ArmSpec> = (spec.arms.iter().zip(&node.arms))
                    .filter(|(_, (_, reach))| contains(reach, file, occ))
                    .map(|(arm, _)| arm)
                    .collect();
                let sent = (enum_name, variant);
                let (ok, from) = match reaching.first() {
                    None => (
                        spec.free_sends.contains(&sent),
                        "outside every handler arm".to_string(),
                    ),
                    Some(arm) => (
                        reaching.iter().any(|arm| arm.sends.contains(&sent)),
                        format!("arm `{}::{}`", arm.enum_name, arm.variant),
                    ),
                };
                if !ok {
                    let msg = format!(
                        "node `{}`: emits `{enum_name}::{variant}` from {from}, which the \
                         PROTOCOL table does not allow",
                        spec.node,
                    );
                    sink.report(src, RULE_UNEXPECTED_SEND, occ, msg);
                }
            }
        }
    }
}
