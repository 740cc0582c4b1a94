//! The recoverability hierarchy: recoverable ⊇ ACA ⊇ strict ⊇ rigorous.
//!
//! The SRS assumption requires every LTM to produce **rigorous** histories
//! [Breitbart et al., TSE 1991]: serializable, *strict* in the sense of
//! BHG, "and furthermore such that no data object may be written until the
//! transaction that previously read it commits or aborts". Rigorousness is
//! what the Conflict Detection Basis (§4.1) rests on: two simultaneously
//! alive subtransactions under a rigorous LTM cannot conflict, directly or
//! indirectly.
//!
//! All checkers here operate at the *instance* level (the LTM's view, where
//! every resubmission is an independent transaction) and are meant to be
//! applied to single-site projections.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::conflict::conflict_serializable_instances;
use crate::history::History;
use crate::ids::{Instance, Item};
use crate::op::OpKind;
use crate::replay::Replay;

/// A violation of one of the recoverability-hierarchy conditions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RigorViolation {
    /// Human-readable description of the violated rule.
    pub rule: &'static str,
    /// The instance whose operation came too early.
    pub offender: Instance,
    /// The instance it should have waited for.
    pub victim: Instance,
    /// Position (in the checked history) of the offending operation.
    pub position: usize,
}

/// The accesses of one kind (reads, or writes) that are still *open*: made
/// by an instance that has not terminated since. Per item and instance only
/// the earliest open access is kept — it decides who a later conflicting
/// operation should have waited for first.
#[derive(Default)]
struct OpenAccesses {
    /// Per item: position of the access → the instance that made it.
    by_item: BTreeMap<Item, BTreeMap<usize, Instance>>,
    /// Per instance: where its entry sits in each item's map.
    by_instance: BTreeMap<Instance, BTreeMap<Item, usize>>,
}

impl OpenAccesses {
    fn open(&mut self, inst: Instance, item: Item, pos: usize) {
        if let Entry::Vacant(slot) = self.by_instance.entry(inst).or_default().entry(item) {
            slot.insert(pos);
            self.by_item.entry(item).or_default().insert(pos, inst);
        }
    }

    /// The instance terminated: everything it has open so far is closed.
    fn close(&mut self, inst: Instance) {
        for (item, pos) in self.by_instance.remove(&inst).unwrap_or_default() {
            if let Some(open) = self.by_item.get_mut(&item) {
                open.remove(&pos);
            }
        }
    }

    /// The earliest open access to `item` by an instance other than `me`
    /// (each instance has one entry, so this looks at two at most).
    fn earliest_other(&self, item: Item, me: Instance) -> Option<Instance> {
        self.by_item
            .get(&item)?
            .values()
            .copied()
            .find(|&inst| inst != me)
    }
}

/// One forward sweep for both lock-discipline rules.
///
/// **Strictness**: whenever `W_j[x]` precedes `O_i[x]` (i ≠ j), the
/// termination of `j` lies between them. The **rigorous** extra condition:
/// whenever `R_j[x]` precedes `W_i[x]` (i ≠ j), the termination of `j` lies
/// between them. An instance terminates at its *first* local commit or
/// abort; whatever it accesses after that is never closed again (such input
/// is malformed, and stays "never terminated").
///
/// Returns the first strictness violation and — as far as the sweep got,
/// which is the whole history if there is none — the first
/// write-under-reader violation: each the earliest offending operation,
/// against the earliest open conflicting access.
fn lock_discipline(h: &History) -> (Option<RigorViolation>, Option<RigorViolation>) {
    let mut writes = OpenAccesses::default();
    let mut reads = OpenAccesses::default();
    let mut terminated: BTreeSet<Instance> = BTreeSet::new();
    let mut under_reader = None;
    for (p, op) in h.ops().iter().enumerate() {
        let Some(inst) = op.instance() else { continue };
        match op.kind {
            OpKind::Read(item) | OpKind::Write(item) => {
                if let Some(victim) = writes.earliest_other(item, inst) {
                    let strict = RigorViolation {
                        rule: "strict: accessed data written by an unterminated transaction",
                        offender: inst,
                        victim,
                        position: p,
                    };
                    return (Some(strict), under_reader);
                }
                if matches!(op.kind, OpKind::Read(_)) {
                    reads.open(inst, item, p);
                    continue;
                }
                if under_reader.is_none() {
                    under_reader = reads
                        .earliest_other(item, inst)
                        .map(|victim| RigorViolation {
                            rule: "rigorous: wrote data read by an unterminated transaction",
                            offender: inst,
                            victim,
                            position: p,
                        });
                }
                writes.open(inst, item, p);
            }
            OpKind::LocalCommit(_) | OpKind::LocalAbort(_) if terminated.insert(inst) => {
                writes.close(inst);
                reads.close(inst);
            }
            _ => {}
        }
    }
    (None, under_reader)
}

/// Check **strictness**: whenever `W_j[x]` precedes `O_i[x]` (i ≠ j), the
/// termination of `j` precedes `O_i[x]`.
pub fn check_strict(h: &History) -> Option<RigorViolation> {
    lock_discipline(h).0
}

/// Whether the history is **recoverable**: every instance that reads from
/// another instance commits only after its writer committed.
pub fn is_recoverable(h: &History) -> bool {
    recoverability_violation(h).is_none()
}

/// Position of each instance's first local commit.
fn first_commits(h: &History) -> BTreeMap<Instance, usize> {
    let mut at = BTreeMap::new();
    for (p, op) in h.ops().iter().enumerate() {
        if let (OpKind::LocalCommit(_), Some(inst)) = (op.kind, op.instance()) {
            at.entry(inst).or_insert(p);
        }
    }
    at
}

/// Every read of another instance's write, as `(position, reader, writer)`.
fn foreign_reads(h: &History) -> impl Iterator<Item = (usize, Instance, Instance)> + '_ {
    let replay = Replay::of(h);
    h.ops().iter().enumerate().filter_map(move |(p, op)| {
        let writer = replay.reads_from_at(p)??;
        let reader = op.instance().expect("reads are site-bound");
        (writer != reader).then_some((p, reader, writer))
    })
}

fn recoverability_violation(h: &History) -> Option<RigorViolation> {
    let commit = first_commits(h);
    foreign_reads(h).find_map(|(p, reader, writer)| {
        // If the reader commits, the writer must have committed first.
        let rc = commit.get(&reader)?;
        let ok = commit.get(&writer).is_some_and(|wc| wc < rc);
        (!ok).then_some(RigorViolation {
            rule: "recoverable: committed before (or without) its writer committing",
            offender: reader,
            victim: writer,
            position: p,
        })
    })
}

/// Whether the history **avoids cascading aborts** (ACA): every read (from
/// another instance) observes only committed data.
pub fn is_aca(h: &History) -> bool {
    let commit = first_commits(h);
    foreign_reads(h).all(|(p, _, writer)| commit.get(&writer).is_some_and(|&wc| wc < p))
}

/// Whether the history is **strict**.
pub fn is_strict(h: &History) -> bool {
    check_strict(h).is_none()
}

/// Whether the history is **rigorous** (SRS): conflict serializable at the
/// instance level, strict, and no item is written while an instance that
/// read it is still alive. Returns the first violation for diagnostics.
pub fn rigor_violation(h: &History) -> Option<RigorViolation> {
    let (strict, under_reader) = lock_discipline(h);
    if let Some(v) = strict.or(under_reader) {
        return Some(v);
    }
    if !conflict_serializable_instances(h) {
        // Under strictness + no-write-under-reader this cannot happen for
        // complete histories, but report it for partial ones.
        let inst = h.instances().first().copied();
        if let Some(i) = inst {
            return Some(RigorViolation {
                rule: "serializable: instance-level serialization graph is cyclic",
                offender: i,
                victim: i,
                position: 0,
            });
        }
    }
    None
}

/// Whether the history is rigorous (see [`rigor_violation`]).
pub fn is_rigorous(h: &History) -> bool {
    rigor_violation(h).is_none()
}

/// Helper: ops of a simple committed instance.
#[cfg(test)]
fn committed_block(k: u32, ops: &[crate::op::Op]) -> Vec<crate::op::Op> {
    use crate::ids::SiteId;
    use crate::op::Op;
    let mut v = ops.to_vec();
    v.push(Op::local_commit_g(k, 0, SiteId(0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Item, SiteId};
    use crate::op::Op;

    const A: SiteId = SiteId(0);
    const XA: Item = Item::new(A, 0);
    const YA: Item = Item::new(A, 1);

    #[test]
    fn serial_committed_history_is_rigorous() {
        let mut ops = committed_block(1, &[Op::read_g(1, 0, XA), Op::write_g(1, 0, XA)]);
        ops.extend(committed_block(2, &[Op::read_g(2, 0, XA)]));
        let h = History::from_ops(ops);
        assert!(is_rigorous(&h));
        assert!(is_strict(&h));
        assert!(is_aca(&h));
        assert!(is_recoverable(&h));
    }

    #[test]
    fn dirty_read_breaks_strictness_and_aca() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::read_g(2, 0, XA), // dirty read
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(2, 0, A),
        ]);
        assert!(!is_strict(&h));
        assert!(!is_aca(&h));
        // Reader committed after writer: still recoverable.
        assert!(is_recoverable(&h));
        let v = rigor_violation(&h).unwrap();
        assert_eq!(v.offender, Instance::global(2, A, 0));
        assert_eq!(v.victim, Instance::global(1, A, 0));
    }

    #[test]
    fn unrecoverable_when_reader_commits_first() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::read_g(2, 0, XA),
            Op::local_commit_g(2, 0, A), // reader commits before writer
            Op::local_commit_g(1, 0, A),
        ]);
        assert!(!is_recoverable(&h));
    }

    #[test]
    fn write_over_uncommitted_write_breaks_strictness() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(2, 0, A),
        ]);
        assert!(!is_strict(&h));
        assert!(!is_rigorous(&h));
    }

    #[test]
    fn write_under_live_reader_breaks_rigor_but_not_strictness() {
        // R1[X] W2[X] C1 C2: strict (no one reads/writes over an
        // uncommitted *write*), but not rigorous (X written while its
        // reader T1 is alive). This is exactly strict-vs-rigorous gap.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(2, 0, A),
        ]);
        assert!(is_strict(&h));
        assert!(!is_rigorous(&h));
        let v = rigor_violation(&h).unwrap();
        assert!(v.rule.starts_with("rigorous"));
    }

    #[test]
    fn aborted_writer_releases_item() {
        // After T1 aborts, T2 may write X: rigorous.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
        ]);
        assert!(is_rigorous(&h));
    }

    #[test]
    fn resubmission_instances_are_independent() {
        // T1's incarnation 0 aborts; its incarnation 1 then accesses the
        // same item. The LTM sees two different transactions, and the first
        // has terminated: rigorous.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::write_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::read_g(1, 1, XA),
            Op::write_g(1, 1, XA),
            Op::local_commit_g(1, 1, A),
        ]);
        assert!(is_rigorous(&h));
    }

    #[test]
    fn own_rewrites_allowed() {
        let h = History::from_ops(committed_block(
            1,
            &[
                Op::read_g(1, 0, XA),
                Op::write_g(1, 0, XA),
                Op::write_g(1, 0, XA),
                Op::read_g(1, 0, XA),
            ],
        ));
        assert!(is_rigorous(&h));
    }

    #[test]
    fn interleaved_disjoint_items_rigorous() {
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::read_g(2, 0, YA),
            Op::write_g(1, 0, XA),
            Op::write_g(2, 0, YA),
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(2, 0, A),
        ]);
        assert!(is_rigorous(&h));
    }

    #[test]
    fn paper_h1_site_a_projection_not_rigorous_check() {
        // H1(a) from §3 — rigorousness holds *locally per instance* there;
        // sanity check our checker accepts it (the anomaly in H1 is global,
        // not a local rigor violation).
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::read_g(1, 0, YA),
            Op::write_g(1, 0, YA),
            Op::local_abort_g(1, 0, A),
            Op::write_g(2, 0, YA),
            Op::read_g(2, 0, XA),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
            Op::read_g(1, 1, XA),
            Op::local_commit_g(1, 1, A),
        ]);
        assert!(is_rigorous(&h), "{:?}", rigor_violation(&h));
    }
}
