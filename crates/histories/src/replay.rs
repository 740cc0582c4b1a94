//! Rollback-aware replay semantics: reads-from and final writers.
//!
//! Unilateral aborts make the classical syntactic reads-from relation
//! insufficient: under the RR assumption an abort restores before-images, so
//! a read that follows an aborted write sees the value the aborted write
//! replaced. [`Replay`] computes, for every read in a history, the *writer
//! instance* whose value the read physically observes, skipping writes whose
//! instance aborted before the read. Writer `None` denotes the paper's
//! hypothetical initializing transaction `T_0`.
//!
//! Final writers follow the paper's view-equivalence convention: "only
//! committed writes are taken into account as final writes".

use std::collections::BTreeMap;

use crate::history::History;
use crate::ids::{Instance, Item, Txn};
use crate::index::{Index, Scope, NONE};
use crate::op::OpKind;

/// The computed read/write semantics of one history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// For each read op, by history position: the instance it reads from
    /// (`None` = initial value `T_0`).
    reads_from: BTreeMap<usize, Option<Instance>>,
    /// Per item: the committed write that survives at the end of the
    /// history (`None` entry = item never written by a committed,
    /// unaborted instance).
    final_writers: BTreeMap<Item, Option<Instance>>,
    /// Per instance: its reads in program order as (item, writer).
    views: BTreeMap<Instance, Vec<(Item, Option<Instance>)>>,
}

/// The one rollback-aware replay: a forward pass over the operations in
/// `scope`, calling `read(p, writer)` for every read with the instance id
/// whose write it observes ([`NONE`] = `T_0`).
///
/// An instance's *first* local abort rolls back every write it made before
/// it, exposing what those replaced; writes made after that abort stay —
/// there is no second rollback. Both are known from the index up front, so
/// an abort needs no event of its own: a write is invisible to every read
/// after its instance's first abort, if it came before that abort.
pub(crate) fn replay(ix: &Index, scope: Scope, mut read: impl FnMut(usize, u32)) {
    // Per item, the writes a read may still observe, oldest first. One that
    // can never be rolled back hides everything under it for good.
    let mut visible: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ix.items.len()];
    for (p, op) in ix.ops.iter().enumerate() {
        if !op.kind.is_data_op() || !ix.includes(scope, ix.txn_of[p]) {
            continue;
        }
        let (now, inst) = (p as u32, ix.inst_of[p]);
        let rolled_back = |(at, w): (u32, u32)| {
            let abort = ix.insts[w as usize].first_abort;
            at < abort && abort < now
        };
        let writes = &mut visible[ix.item_of[p] as usize];
        if matches!(op.kind, OpKind::Write(_)) {
            let abort = ix.insts[inst as usize].first_abort;
            if abort == NONE || abort < now {
                writes.clear();
            }
            writes.push((now, inst));
        } else {
            while writes.last().is_some_and(|&w| rolled_back(w)) {
                writes.pop();
            }
            read(p, writes.last().map_or(NONE, |w| w.1));
        }
    }
}

impl Replay {
    /// Replay a history and compute its semantics.
    pub fn of(h: &History) -> Replay {
        let ix = Index::new(h);
        let instance = |i: u32| (i != NONE).then(|| ix.insts[i as usize].id);
        let mut reads_from = BTreeMap::new();
        let mut views: BTreeMap<Instance, Vec<(Item, Option<Instance>)>> = BTreeMap::new();
        replay(&ix, Scope::All, |p, writer| {
            let writer = instance(writer);
            reads_from.insert(p, writer);
            let item = ix.items[ix.item_of[p] as usize];
            views.entry(ix.inst(p).id).or_default().push((item, writer));
        });

        // Final writers: last write per item by an instance that committed
        // and never aborted — anywhere in the history. Any other write
        // leaves the previous committed write final.
        let mut final_writers: BTreeMap<Item, Option<Instance>> =
            ix.items.iter().map(|&it| (it, None)).collect();
        for (p, op) in ix.ops.iter().enumerate() {
            if let OpKind::Write(it) = op.kind {
                let w = ix.inst(p);
                if w.first_commit != NONE && w.first_abort == NONE {
                    final_writers.insert(it, Some(w.id));
                }
            }
        }

        Replay {
            reads_from,
            final_writers,
            views,
        }
    }

    /// The writer the read at history position `pos` observes.
    /// `None` in the outer option: not a read position.
    pub fn reads_from_at(&self, pos: usize) -> Option<Option<Instance>> {
        self.reads_from.get(&pos).copied()
    }

    /// Per-instance views: reads in program order as (item, writer).
    pub fn views(&self) -> &BTreeMap<Instance, Vec<(Item, Option<Instance>)>> {
        &self.views
    }

    /// The view of one instance (empty if it performed no reads).
    pub fn view_of(&self, inst: Instance) -> &[(Item, Option<Instance>)] {
        self.views.get(&inst).map_or(&[], |v| v.as_slice())
    }

    /// The view of an instance lifted to the transaction level: writers are
    /// reported as transactions (all incarnations collapse), which is the
    /// granularity at which the paper compares the views of the original
    /// and resubmitted local subtransactions.
    pub fn txn_view_of(&self, inst: Instance) -> Vec<(Item, Option<Txn>)> {
        self.view_of(inst)
            .iter()
            .map(|&(it, w)| (it, w.map(|i| i.txn)))
            .collect()
    }

    /// Final committed writer per item.
    pub fn final_writers(&self) -> &BTreeMap<Item, Option<Instance>> {
        &self.final_writers
    }

    /// Final committed writer of one item (`None` = initial value survives
    /// or item unknown).
    pub fn final_writer(&self, item: Item) -> Option<Instance> {
        self.final_writers.get(&item).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteId;
    use crate::op::Op;

    const A: SiteId = SiteId(0);
    const XA: Item = Item::new(A, 0);
    const YA: Item = Item::new(A, 1);

    #[test]
    fn read_with_no_writer_reads_initial() {
        let h = History::from_ops([Op::read_g(1, 0, XA)]);
        let r = Replay::of(&h);
        assert_eq!(r.reads_from_at(0), Some(None));
    }

    #[test]
    fn read_sees_latest_write() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
            Op::read_l(9, XA),
        ]);
        let r = Replay::of(&h);
        assert_eq!(r.reads_from_at(4), Some(Some(Instance::global(2, A, 0))));
    }

    #[test]
    fn aborted_write_is_invisible_after_rollback() {
        // W1[X] A1 R9[X]: the read sees the initial value.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::read_l(9, XA),
        ]);
        let r = Replay::of(&h);
        assert_eq!(r.reads_from_at(2), Some(None));
    }

    #[test]
    fn aborted_write_visible_before_rollback() {
        // W1[X] R9[X] A1: dirty read physically observed T1's write.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::read_l(9, XA),
            Op::local_abort_g(1, 0, A),
        ]);
        let r = Replay::of(&h);
        assert_eq!(r.reads_from_at(1), Some(Some(Instance::global(1, A, 0))));
    }

    #[test]
    fn rollback_exposes_previous_committed_write() {
        // W1[X] C1 W2[X] A2 R9[X]: read sees T1 again.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_abort_g(2, 0, A),
            Op::read_l(9, XA),
        ]);
        let r = Replay::of(&h);
        assert_eq!(r.reads_from_at(4), Some(Some(Instance::global(1, A, 0))));
    }

    #[test]
    fn final_writer_only_committed() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_abort_g(2, 0, A),
            Op::write_g(3, 0, YA),
            // T3 never commits.
        ]);
        let r = Replay::of(&h);
        assert_eq!(r.final_writer(XA), Some(Instance::global(1, A, 0)));
        assert_eq!(r.final_writer(YA), None);
    }

    #[test]
    fn later_committed_write_wins_final() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
        ]);
        let r = Replay::of(&h);
        assert_eq!(r.final_writer(XA), Some(Instance::global(2, A, 0)));
    }

    #[test]
    fn views_collect_in_program_order() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::read_l(9, XA),
            Op::read_l(9, YA),
        ]);
        let r = Replay::of(&h);
        let v = r.view_of(Instance::local(A, 9));
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], (XA, Some(Instance::global(1, A, 0))));
        assert_eq!(v[1], (YA, None));
        let tv = r.txn_view_of(Instance::local(A, 9));
        assert_eq!(tv[0], (XA, Some(Txn::global(1))));
    }

    #[test]
    fn own_write_read_back() {
        // An instance reads its own uncommitted write.
        let h = History::from_ops([Op::write_g(1, 0, XA), Op::read_g(1, 0, XA)]);
        let r = Replay::of(&h);
        assert_eq!(r.reads_from_at(1), Some(Some(Instance::global(1, A, 0))));
    }

    #[test]
    fn h1_fragment_global_view_distortion_views() {
        // From the paper's H1(a): T^a_10 reads X from T_0, but after T2
        // commits a write of X, the resubmission T^a_11 reads X from T2.
        let h = History::from_ops([
            Op::read_g(1, 0, XA), // reads T0
            Op::local_abort_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
            Op::read_g(1, 1, XA), // reads T2 — distorted view
        ]);
        let r = Replay::of(&h);
        let v0 = r.txn_view_of(Instance::global(1, A, 0));
        let v1 = r.txn_view_of(Instance::global(1, A, 1));
        assert_eq!(v0[0], (XA, None));
        assert_eq!(v1[0], (XA, Some(Txn::global(2))));
    }
}
