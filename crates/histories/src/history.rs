//! Linear histories and their projections.
//!
//! A history `H` is an element of the shuffle
//! `H(T_1) * H(T_2) * … * H(T_n)` (§3): a linear sequence of operations whose
//! per-transaction subsequences respect each transaction's own order.
//!
//! The central definition reproduced here is the paper's **committed
//! projection** `C(H)`: "We only include the globally committed complete
//! transactions into our committed projection. In addition to C(H) in [5],
//! our C(H) includes *all unilaterally aborted local subtransactions that
//! belong to globally committed complete transactions*." It is this widened
//! projection that makes resubmission anomalies visible to the
//! serializability checkers.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ids::{GlobalTxnId, Instance, Item, LocalTxnId, SiteId, Txn};
use crate::index::{Index, Scope};
use crate::op::{Op, OpKind};

/// A linear history of operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    ops: Vec<Op>,
}

impl History {
    /// The empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Build a history from an operation sequence.
    pub fn from_ops(ops: impl IntoIterator<Item = Op>) -> History {
        History {
            ops: ops.into_iter().collect(),
        }
    }

    /// Append one operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// The operations in history order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The local history `H(s)`: the projection onto the operations of one
    /// site. Coordinator-level global commits/aborts are not site-bound and
    /// are excluded, as in the paper's `H1(a)` example.
    pub fn site_projection(&self, s: SiteId) -> History {
        History::from_ops(self.ops.iter().copied().filter(|o| o.site() == Some(s)))
    }

    /// The projection onto one transaction's operations, `H(T_k)`.
    pub fn txn_projection(&self, t: Txn) -> History {
        History::from_ops(self.ops.iter().copied().filter(|o| o.txn == t))
    }

    /// All transactions appearing in the history, in first-appearance order.
    pub fn txns(&self) -> Vec<Txn> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for op in &self.ops {
            if seen.insert(op.txn) {
                out.push(op.txn);
            }
        }
        out
    }

    /// All global transactions appearing in the history.
    pub fn global_txns(&self) -> Vec<GlobalTxnId> {
        self.txns()
            .into_iter()
            .filter_map(|t| match t {
                Txn::Global(g) => Some(g),
                Txn::Local(_) => None,
            })
            .collect()
    }

    /// All local-level instances appearing in the history, in
    /// first-appearance order.
    pub fn instances(&self) -> Vec<Instance> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for op in &self.ops {
            if let Some(i) = op.instance() {
                if seen.insert(i) {
                    out.push(i);
                }
            }
        }
        out
    }

    /// All items read or written in the history.
    pub fn items(&self) -> Vec<Item> {
        let mut seen = BTreeSet::new();
        for op in &self.ops {
            if let Some(it) = op.item() {
                seen.insert(it);
            }
        }
        seen.into_iter().collect()
    }

    /// The sites a transaction has elementary or agent-level operations at.
    pub fn sites_of(&self, t: Txn) -> BTreeSet<SiteId> {
        self.ops
            .iter()
            .filter(|o| o.txn == t)
            .filter_map(|o| o.site())
            .collect()
    }

    /// Whether a global transaction has its global commit `C_k` in `H`.
    pub fn is_globally_committed(&self, g: GlobalTxnId) -> bool {
        self.ops
            .iter()
            .any(|o| o.txn == Txn::Global(g) && o.kind == OpKind::GlobalCommit)
    }

    /// Whether a global transaction is *complete*: locally committed at
    /// every site it has operations at (§3: "the local commit operations
    /// `C^x_ik` have been performed at all the sites involved").
    pub fn is_complete(&self, g: GlobalTxnId) -> bool {
        let t = Txn::Global(g);
        let sites = self.sites_of(t);
        if sites.is_empty() {
            return false;
        }
        sites.iter().all(|&s| {
            self.ops
                .iter()
                .any(|o| o.txn == t && o.kind == OpKind::LocalCommit(s))
        })
    }

    /// Whether a local transaction committed.
    pub fn local_txn_committed(&self, l: LocalTxnId) -> bool {
        self.ops
            .iter()
            .any(|o| o.txn == Txn::Local(l) && o.kind == OpKind::LocalCommit(l.site))
    }

    /// The paper's committed projection `C(H)`.
    ///
    /// Keeps every operation (including those of unilaterally aborted local
    /// subtransactions) of each globally committed *and complete* global
    /// transaction, and every operation of each committed local transaction.
    /// All other transactions' operations are dropped.
    pub fn committed_projection(&self) -> History {
        let ix = Index::new(self);
        let kept = self.ops.iter().zip(&ix.txn_of);
        History::from_ops(
            kept.filter(|&(_, &t)| ix.includes(Scope::Committed, t))
                .map(|(op, _)| *op),
        )
    }

    /// Position of the first occurrence of `op`, if present.
    pub fn position(&self, op: &Op) -> Option<usize> {
        self.ops.iter().position(|o| o == op)
    }

    /// Whether `earlier` occurs before `later` (first occurrences compared).
    /// Returns `None` if either operation is absent.
    pub fn precedes(&self, earlier: &Op, later: &Op) -> Option<bool> {
        Some(self.position(earlier)? < self.position(later)?)
    }

    /// The incarnations of a global transaction at a given site, ascending.
    pub fn incarnations_at(&self, g: GlobalTxnId, s: SiteId) -> Vec<u32> {
        let mut set = BTreeSet::new();
        for op in &self.ops {
            if op.txn == Txn::Global(g) && op.kind.is_data_op() && op.site() == Some(s) {
                set.insert(op.incarnation);
            }
        }
        set.into_iter().collect()
    }

    /// Group data operations by instance, preserving history order within
    /// each instance. This is the per-LTM view of the history.
    pub fn data_ops_by_instance(&self) -> BTreeMap<Instance, Vec<Op>> {
        let mut map: BTreeMap<Instance, Vec<Op>> = BTreeMap::new();
        for op in &self.ops {
            if op.kind.is_data_op() {
                if let Some(i) = op.instance() {
                    map.entry(i).or_default().push(*op);
                }
            }
        }
        map
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

impl FromIterator<Op> for History {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        History::from_ops(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const XA: Item = Item::new(A, 0);
    const YA: Item = Item::new(A, 1);
    const ZB: Item = Item::new(B, 2);

    /// A committed, complete two-site transaction plus an uncommitted one.
    fn sample() -> History {
        History::from_ops([
            Op::read_g(1, 0, XA),
            Op::write_g(1, 0, YA),
            Op::read_g(1, 0, ZB),
            Op::prepare(1, A),
            Op::prepare(1, B),
            Op::global_commit(1),
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(1, 0, B),
            Op::read_g(2, 0, XA),
            Op::write_g(2, 0, XA),
            Op::read_l(9, YA),
            Op::local_commit_l(9, A),
        ])
    }

    #[test]
    fn site_projection_filters() {
        let h = sample();
        let ha = h.site_projection(A);
        assert!(ha.ops().iter().all(|o| o.site() == Some(A)));
        // Global commit is not site-bound.
        assert!(!ha.ops().iter().any(|o| o.kind == OpKind::GlobalCommit));
        let hb = h.site_projection(B);
        assert_eq!(hb.len(), 3); // R_10[Z^b], P^b_1, C^b_10
    }

    #[test]
    fn committed_and_complete() {
        let h = sample();
        assert!(h.is_globally_committed(GlobalTxnId(1)));
        assert!(h.is_complete(GlobalTxnId(1)));
        assert!(!h.is_globally_committed(GlobalTxnId(2)));
        assert!(h.local_txn_committed(LocalTxnId { site: A, n: 9 }));
    }

    #[test]
    fn incomplete_when_one_site_lacks_local_commit() {
        let mut h = History::new();
        h.push(Op::read_g(1, 0, XA));
        h.push(Op::read_g(1, 0, ZB));
        h.push(Op::global_commit(1));
        h.push(Op::local_commit_g(1, 0, A));
        // No local commit at site b.
        assert!(h.is_globally_committed(GlobalTxnId(1)));
        assert!(!h.is_complete(GlobalTxnId(1)));
        assert!(h.committed_projection().is_empty());
    }

    #[test]
    fn committed_projection_keeps_aborted_incarnations() {
        // T1 aborts at a, resubmits, commits — the paper's widened C(H)
        // must keep the incarnation-0 ops.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::prepare(1, A),
            Op::global_commit(1),
            Op::local_abort_g(1, 0, A),
            Op::read_g(1, 1, XA),
            Op::local_commit_g(1, 1, A),
        ]);
        let c = h.committed_projection();
        assert_eq!(c.len(), h.len());
        assert!(c
            .ops()
            .iter()
            .any(|o| o.kind == OpKind::LocalAbort(A) && o.incarnation == 0));
    }

    #[test]
    fn committed_projection_drops_uncommitted() {
        let h = sample();
        let c = h.committed_projection();
        assert!(c.ops().iter().all(|o| o.txn != Txn::global(2)));
        // Committed local transaction survives.
        assert!(c.ops().iter().any(|o| o.txn == Txn::local(A, 9)));
    }

    #[test]
    fn txns_in_first_appearance_order() {
        let h = sample();
        assert_eq!(
            h.txns(),
            vec![Txn::global(1), Txn::global(2), Txn::local(A, 9)]
        );
        assert_eq!(h.global_txns(), vec![GlobalTxnId(1), GlobalTxnId(2)]);
    }

    #[test]
    fn sites_of_txn() {
        let h = sample();
        let sites = h.sites_of(Txn::global(1));
        assert_eq!(sites.into_iter().collect::<Vec<_>>(), vec![A, B]);
    }

    #[test]
    fn precedes_and_position() {
        let h = sample();
        let r = Op::read_g(1, 0, XA);
        let c = Op::global_commit(1);
        assert_eq!(h.precedes(&r, &c), Some(true));
        assert_eq!(h.precedes(&c, &r), Some(false));
        assert_eq!(h.precedes(&r, &Op::global_commit(99)), None);
    }

    #[test]
    fn incarnations_at_site() {
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::read_g(1, 1, XA),
        ]);
        assert_eq!(h.incarnations_at(GlobalTxnId(1), A), vec![0, 1]);
        assert_eq!(h.incarnations_at(GlobalTxnId(1), B), Vec::<u32>::new());
    }

    #[test]
    fn display_round_trip_sanity() {
        let h = History::from_ops([Op::read_g(1, 0, XA), Op::prepare(1, A)]);
        assert_eq!(h.to_string(), "R_10[X^a] P^a_1");
    }

    #[test]
    fn data_ops_by_instance_groups() {
        let h = sample();
        let map = h.data_ops_by_instance();
        let i1a = Instance::global(1, A, 0);
        assert_eq!(map[&i1a].len(), 2);
        let l9 = Instance::local(A, 9);
        assert_eq!(map[&l9].len(), 1);
    }
}
