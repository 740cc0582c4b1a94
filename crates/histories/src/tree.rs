//! Execution trees and the sequence-of-trees semantics of §3.
//!
//! "A kth transaction execution is modelled by means of a *sequence of
//! execution trees* `T_k(0), T_k(1), …`. Each individual tree `T_k(j)` is a
//! snapshot of a certain phase of the execution … and each `T_k(j)` is
//! contained in `T_k(j+1)`." Operations are ordered in the transaction
//! history `H(T_k)` by the index of the first tree in which they appear.
//!
//! [`TreeBuilder`] records exactly this: operations are added to the
//! current snapshot, [`TreeBuilder::snapshot`] closes it (producing the next
//! tree in the sequence), and [`TreeBuilder::history`] yields `H(T_k)` with
//! the induced order. [`validate`] checks the structural rules, most
//! importantly the paper's order invariant (1):
//!
//! ```text
//! P^i_k  <_H(Tk)  C_k  <_H(Tk)  C^s_k      for any sites i, s.
//! ```

use std::collections::BTreeMap;

use crate::history::History;
use crate::ids::{SiteId, Txn};
use crate::op::{Op, OpKind};

/// A structural violation found in a transaction execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// An operation belongs to a different transaction than the tree's.
    ForeignOperation(Txn),
    /// More than one global decision (`C_k` / `A_k`) recorded.
    DuplicateGlobalDecision,
    /// More than one prepare at the same site.
    DuplicatePrepare(SiteId),
    /// Invariant (1) violated: a local commit precedes the global commit.
    LocalCommitBeforeGlobal(SiteId),
    /// Invariant (1) violated: the global commit precedes some prepare of
    /// an involved site.
    GlobalCommitBeforePrepare(SiteId),
    /// A new incarnation started although the previous one did not abort.
    IncarnationWithoutAbort { site: SiteId, incarnation: u32 },
    /// Data operation after the local commit at that site.
    OperationAfterLocalCommit(SiteId),
    /// A local commit for an incarnation that was aborted.
    CommitOfAbortedIncarnation { site: SiteId, incarnation: u32 },
}

/// Builder for one transaction's execution-tree sequence.
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    txn: Txn,
    /// Closed snapshots; each inner vec holds the ops that first appeared
    /// in that tree.
    phases: Vec<Vec<Op>>,
    current: Vec<Op>,
}

impl TreeBuilder {
    /// Start the execution of global transaction `T_k`.
    pub fn global(k: u32) -> TreeBuilder {
        TreeBuilder {
            txn: Txn::global(k),
            phases: Vec::new(),
            current: Vec::new(),
        }
    }

    /// Start the execution of local transaction `L_n` at `site`.
    pub fn local(site: SiteId, n: u32) -> TreeBuilder {
        TreeBuilder {
            txn: Txn::local(site, n),
            phases: Vec::new(),
            current: Vec::new(),
        }
    }

    /// The transaction being built.
    pub fn txn(&self) -> Txn {
        self.txn
    }

    /// Record an operation as completed in the current snapshot.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.current.push(op);
        self
    }

    /// Close the current snapshot: the next recorded operation belongs to
    /// the following tree in the sequence.
    pub fn snapshot(&mut self) -> &mut Self {
        self.phases.push(std::mem::take(&mut self.current));
        self
    }

    /// Produce the transaction history `H(T_k)`: operations ordered by the
    /// tree index where they first occur, insertion order within a tree.
    pub fn history(&self) -> History {
        let mut h = History::new();
        for phase in &self.phases {
            for op in phase {
                h.push(*op);
            }
        }
        for op in &self.current {
            h.push(*op);
        }
        h
    }

    /// Validate the execution structure; see [`validate`].
    pub fn validate(&self) -> Result<(), TreeError> {
        validate(self.txn, &self.history())
    }
}

/// Validate a transaction history `H(T_k)` against the structural rules of
/// the model, including order invariant (1).
pub fn validate(txn: Txn, h: &History) -> Result<(), TreeError> {
    let mut global_decision_at: Option<usize> = None;
    let mut prepare_at: BTreeMap<SiteId, usize> = BTreeMap::new();
    let mut local_commit_at: BTreeMap<SiteId, usize> = BTreeMap::new();
    let mut aborted_incarnations: BTreeMap<SiteId, Vec<u32>> = BTreeMap::new();
    let mut seen_incarnation: BTreeMap<SiteId, u32> = BTreeMap::new();

    for (p, op) in h.ops().iter().enumerate() {
        if op.txn != txn {
            return Err(TreeError::ForeignOperation(op.txn));
        }
        match op.kind {
            OpKind::GlobalCommit | OpKind::GlobalAbort => {
                if global_decision_at.is_some() {
                    return Err(TreeError::DuplicateGlobalDecision);
                }
                global_decision_at = Some(p);
            }
            OpKind::Prepare(s) => {
                if prepare_at.insert(s, p).is_some() {
                    return Err(TreeError::DuplicatePrepare(s));
                }
            }
            OpKind::LocalCommit(s) => {
                if aborted_incarnations
                    .get(&s)
                    .is_some_and(|v| v.contains(&op.incarnation))
                {
                    return Err(TreeError::CommitOfAbortedIncarnation {
                        site: s,
                        incarnation: op.incarnation,
                    });
                }
                local_commit_at.insert(s, p);
            }
            OpKind::LocalAbort(s) => {
                aborted_incarnations
                    .entry(s)
                    .or_default()
                    .push(op.incarnation);
            }
            OpKind::Read(it) | OpKind::Write(it) => {
                let s = it.site;
                if local_commit_at.contains_key(&s) {
                    return Err(TreeError::OperationAfterLocalCommit(s));
                }
                let seen = seen_incarnation.entry(s).or_insert(0);
                if op.incarnation > *seen {
                    // Starting a later incarnation requires all earlier ones
                    // to have aborted.
                    let aborted = aborted_incarnations.entry(s).or_default();
                    for j in *seen..op.incarnation {
                        if !aborted.contains(&j) {
                            return Err(TreeError::IncarnationWithoutAbort {
                                site: s,
                                incarnation: op.incarnation,
                            });
                        }
                    }
                    *seen = op.incarnation;
                }
            }
        }
    }

    // Invariant (1) applies to *committed* global transactions.
    if txn.is_global() {
        if let Some(gp) = global_decision_at {
            let committed = matches!(h.ops()[gp].kind, OpKind::GlobalCommit);
            if committed {
                for (s, &pp) in &prepare_at {
                    if pp > gp {
                        return Err(TreeError::GlobalCommitBeforePrepare(*s));
                    }
                }
                for (s, &cp) in &local_commit_at {
                    if cp < gp {
                        return Err(TreeError::LocalCommitBeforeGlobal(*s));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Item;

    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const XA: Item = Item::new(A, 0);
    const ZB: Item = Item::new(B, 2);

    /// The paper's T1 from Fig. 2: aborted at a, resubmitted, committed.
    fn t1() -> TreeBuilder {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA)).snapshot();
        t.op(Op::read_g(1, 0, Item::new(A, 1)))
            .op(Op::write_g(1, 0, Item::new(A, 1)))
            .snapshot();
        t.op(Op::read_g(1, 0, ZB))
            .op(Op::write_g(1, 0, ZB))
            .snapshot();
        t.op(Op::prepare(1, A)).op(Op::prepare(1, B)).snapshot();
        t.op(Op::global_commit(1)).snapshot();
        t.op(Op::local_abort_g(1, 0, A))
            .op(Op::local_commit_g(1, 0, B))
            .snapshot();
        t.op(Op::read_g(1, 1, XA))
            .op(Op::local_commit_g(1, 1, A))
            .snapshot();
        t
    }

    #[test]
    fn t1_validates() {
        let t = t1();
        assert!(t.validate().is_ok());
    }

    #[test]
    fn history_order_follows_tree_sequence() {
        let t = t1();
        let h = t.history();
        let p_a = h.position(&Op::prepare(1, A)).unwrap();
        let c_g = h.position(&Op::global_commit(1)).unwrap();
        let c_b = h.position(&Op::local_commit_g(1, 0, B)).unwrap();
        assert!(p_a < c_g && c_g < c_b, "invariant (1) order in H(T1)");
    }

    #[test]
    fn foreign_operation_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(2, 0, XA));
        assert_eq!(
            t.validate(),
            Err(TreeError::ForeignOperation(Txn::global(2)))
        );
    }

    #[test]
    fn duplicate_global_decision_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::global_commit(1)).op(Op::global_commit(1));
        assert_eq!(t.validate(), Err(TreeError::DuplicateGlobalDecision));
    }

    #[test]
    fn duplicate_prepare_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::prepare(1, A)).op(Op::prepare(1, A));
        assert_eq!(t.validate(), Err(TreeError::DuplicatePrepare(A)));
    }

    #[test]
    fn local_commit_before_global_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA))
            .op(Op::prepare(1, A))
            .op(Op::local_commit_g(1, 0, A))
            .op(Op::global_commit(1));
        assert_eq!(t.validate(), Err(TreeError::LocalCommitBeforeGlobal(A)));
    }

    #[test]
    fn global_commit_before_prepare_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA))
            .op(Op::global_commit(1))
            .op(Op::prepare(1, A))
            .op(Op::local_commit_g(1, 0, A));
        assert_eq!(t.validate(), Err(TreeError::GlobalCommitBeforePrepare(A)));
    }

    #[test]
    fn resubmission_without_abort_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA)).op(Op::read_g(1, 1, XA));
        assert_eq!(
            t.validate(),
            Err(TreeError::IncarnationWithoutAbort {
                site: A,
                incarnation: 1
            })
        );
    }

    #[test]
    fn op_after_local_commit_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA))
            .op(Op::prepare(1, A))
            .op(Op::global_commit(1))
            .op(Op::local_commit_g(1, 0, A))
            .op(Op::write_g(1, 0, XA));
        assert_eq!(t.validate(), Err(TreeError::OperationAfterLocalCommit(A)));
    }

    #[test]
    fn commit_of_aborted_incarnation_rejected() {
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA))
            .op(Op::local_abort_g(1, 0, A))
            .op(Op::local_commit_g(1, 0, A));
        assert_eq!(
            t.validate(),
            Err(TreeError::CommitOfAbortedIncarnation {
                site: A,
                incarnation: 0
            })
        );
    }

    #[test]
    fn aborted_global_txn_exempt_from_invariant_1() {
        // A globally aborted transaction may have local aborts in any order.
        let mut t = TreeBuilder::global(1);
        t.op(Op::read_g(1, 0, XA))
            .op(Op::global_abort(1))
            .op(Op::local_abort_g(1, 0, A));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn local_txn_builder() {
        let mut t = TreeBuilder::local(A, 4);
        t.op(Op::read_l(4, XA)).op(Op::local_commit_l(4, A));
        assert!(t.validate().is_ok());
        assert_eq!(t.txn(), Txn::local(A, 4));
    }
}
