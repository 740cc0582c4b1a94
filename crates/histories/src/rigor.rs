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
//! every resubmission is an independent transaction). Items and instances
//! are site-bound, so one sweep over a multi-site history is every site's
//! sweep at once; [`rigor_violation`] reports on the history it is given,
//! and the analysis of a run asks each site projection in turn.

use crate::conflict::conflict_arcs;
use crate::graph::Adjacency;
use crate::history::History;
use crate::ids::{Instance, SiteId};
use crate::index::{Index, Scope, NONE};
use crate::op::OpKind;
use crate::replay::replay;

/// A violation of one of the recoverability-hierarchy conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
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

const STRICT: &str = "strict: accessed data written by an unterminated transaction";
const UNDER_READER: &str = "rigorous: wrote data read by an unterminated transaction";
const CYCLIC: &str = "serializable: instance-level serialization graph is cyclic";

/// A violation found by the sweep: its history position, and the violation
/// with its position counted within its site's projection.
type Found = Option<(usize, RigorViolation)>;

/// What the lock-discipline sweep found at one site.
#[derive(Default)]
struct SiteLocks {
    /// Operations of the site seen so far.
    seen: usize,
    strict: Found,
    under_reader: Found,
}

/// One forward sweep for both lock-discipline rules, every site at once.
///
/// **Strictness**: whenever `W_j[x]` precedes `O_i[x]` (i ≠ j), the
/// termination of `j` lies between them. The **rigorous** extra condition:
/// whenever `R_j[x]` precedes `W_i[x]` (i ≠ j), the termination of `j` lies
/// between them. An instance terminates at its *first* local commit or
/// abort; whatever it accesses after that is never closed again (such input
/// is malformed, and stays "never terminated").
///
/// Per site: the first strictness violation — the site's sweep ends there —
/// and, as far as the sweep got, the first write-under-reader violation;
/// each the earliest offending operation, against the earliest open
/// conflicting access.
fn lock_discipline(ix: &Index) -> Vec<SiteLocks> {
    // An access is open from where it was made until its instance's first
    // terminal operation, if that comes after it.
    let open = |(at, inst): (u32, u32), now: u32| {
        let end = ix.insts[inst as usize].terminated_at();
        !(at < end && end < now)
    };
    let mut sites: Vec<SiteLocks> = ix.sites.iter().map(|_| SiteLocks::default()).collect();
    // Per item, as (position, instance): its open write — until a site's
    // first strictness violation there is never a second — and its open
    // reads in history order (an instance's earliest open one is the one
    // that counts; a closed one stays closed).
    let mut writer = vec![(NONE, NONE); ix.items.len()];
    let mut readers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ix.items.len()];
    for (p, op) in ix.ops.iter().enumerate() {
        let inst = ix.inst_of[p];
        if inst == NONE {
            continue;
        }
        let site = &mut sites[ix.insts[inst as usize].site as usize];
        let position = site.seen;
        site.seen += 1;
        let item = ix.item_of[p] as usize;
        if site.strict.is_some() || item == NONE as usize {
            continue;
        }
        let now = p as u32;
        let found = |rule, victim: u32| {
            let violation = RigorViolation {
                rule,
                offender: ix.insts[inst as usize].id,
                victim: ix.insts[victim as usize].id,
                position,
            };
            Some((p, violation))
        };
        let w = writer[item];
        let written = w.1 != NONE && open(w, now);
        if written && w.1 != inst {
            site.strict = found(STRICT, w.1);
            continue;
        }
        let reads = &mut readers[item];
        if matches!(op.kind, OpKind::Read(_)) {
            // Once the site has its first write-under-reader violation its
            // reads no longer matter.
            let again = reads.last().is_some_and(|&r| r.1 == inst && open(r, now));
            if site.under_reader.is_none() && !again {
                reads.push((now, inst));
            }
            continue;
        }
        if site.under_reader.is_none() {
            match reads.iter().find(|&&r| r.1 != inst && open(r, now)) {
                Some(&(_, victim)) => site.under_reader = found(UNDER_READER, victim),
                None => {
                    // Every open read is the writer's own: keep its earliest.
                    let own = reads.iter().copied().find(|&r| open(r, now));
                    reads.clear();
                    reads.extend(own);
                }
            }
        }
        if !written {
            writer[item] = (now, inst);
        }
    }
    sites
}

/// The smallest site whose instance-level serialization graph is cyclic.
/// No arc crosses sites, so a search that starts from every instance of one
/// site before any of the next site's finds a cycle of the smallest cyclic
/// site first.
fn first_cyclic_site(ix: &Index) -> Option<SiteId> {
    let graph = Adjacency::new(ix.insts.len(), &conflict_arcs(ix));
    let mut starts: Vec<usize> = (0..ix.insts.len()).collect();
    starts.sort_unstable_by_key(|&i| ix.site_id(ix.insts[i].site));
    let cycle = graph.find_cycle(starts)?;
    Some(ix.site_id(ix.insts[cycle[0]].site))
}

/// The earliest (by history position) of the sites' violations of one rule,
/// positioned in the whole history.
fn earliest(sites: &[SiteLocks], rule: fn(&SiteLocks) -> &Found) -> Option<RigorViolation> {
    let (p, v) = sites
        .iter()
        .filter_map(|s| rule(s).as_ref())
        .min_by_key(|f| f.0)?;
    Some(RigorViolation {
        position: *p,
        ..v.clone()
    })
}

/// Check **strictness**: whenever `W_j[x]` precedes `O_i[x]` (i ≠ j), the
/// termination of `j` precedes `O_i[x]`.
pub fn check_strict(h: &History) -> Option<RigorViolation> {
    earliest(&lock_discipline(&Index::new(h)), |s| &s.strict)
}

/// Every read of another instance's write, as `(position, reader, writer)`
/// instance ids.
fn foreign_reads(ix: &Index) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    replay(ix, Scope::All, |p, writer| {
        let reader = ix.inst_of[p];
        if writer != NONE && writer != reader {
            out.push((p as u32, reader, writer));
        }
    });
    out
}

/// Whether the history is **recoverable**: every instance that reads from
/// another instance commits only after its writer committed.
pub fn is_recoverable(h: &History) -> bool {
    let ix = Index::new(h);
    let commit = |i: u32| ix.insts[i as usize].first_commit;
    // If the reader commits, the writer must have committed first.
    foreign_reads(&ix)
        .into_iter()
        .all(|(_, reader, writer)| commit(reader) == NONE || commit(writer) < commit(reader))
}

/// Whether the history **avoids cascading aborts** (ACA): every read (from
/// another instance) observes only committed data.
pub fn is_aca(h: &History) -> bool {
    let ix = Index::new(h);
    foreign_reads(&ix)
        .into_iter()
        .all(|(p, _, writer)| ix.insts[writer as usize].first_commit < p)
}

/// Whether the history is **strict**.
pub fn is_strict(h: &History) -> bool {
    check_strict(h).is_none()
}

/// Whether the history is **rigorous** (SRS): conflict serializable at the
/// instance level, strict, and no item is written while an instance that
/// read it is still alive. Returns the first violation for diagnostics: a
/// strictness violation anywhere outranks a write-under-reader violation
/// earlier on, and a cyclic serialization graph — which under both lock
/// rules cannot happen for complete histories, but can for partial ones —
/// is reported against the history's first instance.
pub fn rigor_violation(h: &History) -> Option<RigorViolation> {
    let ix = Index::new(h);
    let sites = lock_discipline(&ix);
    earliest(&sites, |s| &s.strict)
        .or_else(|| earliest(&sites, |s| &s.under_reader))
        .or_else(|| {
            first_cyclic_site(&ix)?;
            Some(serialization_violation(ix.insts.first()?.id))
        })
}

fn serialization_violation(first: Instance) -> RigorViolation {
    RigorViolation {
        rule: CYCLIC,
        offender: first,
        victim: first,
        position: 0,
    }
}

/// The first site, in `SiteId` order below `sites`, whose projection is not
/// rigorous — with the violation [`rigor_violation`] reports on that
/// projection — from one sweep over the whole history.
pub(crate) fn first_site_violation(ix: &Index, sites: u32) -> Option<RigorViolation> {
    let locks = lock_discipline(ix);
    let cyclic = first_cyclic_site(ix);
    let (site, locks) = (0..)
        .zip(&locks)
        .filter(|&(d, l)| {
            let s = ix.site_id(d);
            s.0 < sites && (l.strict.is_some() || l.under_reader.is_some() || cyclic == Some(s))
        })
        .min_by_key(|&(d, _)| ix.site_id(d))?;
    let lock = locks.strict.as_ref().or(locks.under_reader.as_ref());
    Some(match lock {
        Some((_, v)) => v.clone(),
        None => {
            let first = ix.insts.iter().find(|inst| inst.site == site)?;
            serialization_violation(first.id)
        }
    })
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
