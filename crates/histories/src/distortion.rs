//! Detectors for the paper's two anomaly classes.
//!
//! **Global view distortion** (§3, §4): "a resubmitted local subtransaction
//! `T^i_kj`, j>0, gets another view and — in the worst case — has another
//! decomposition than the original local subtransaction `T^i_k0`." We
//! compare, for every pair of incarnations of a global subtransaction,
//! (a) the decomposition (the exact elementary R/W sequence) and (b) the
//! view (per-read writer at the transaction level, `None` = T_0).
//!
//! **Local view distortion** (§5): "local transactions get non-serializable
//! views caused by unilateral aborts." The paper's necessary condition is a
//! cyclic `CG(C(H))`; the definitive test is view-serializability failure
//! of `C(H)` that is not already a global view distortion.

use crate::cg::commit_order_graph;
use crate::history::History;
use crate::ids::{GlobalTxnId, Item, SiteId, Txn};
use crate::index::{Index, Scope, Subtxn, NONE};
use crate::op::OpKind;
use crate::replay::replay;
use crate::view::{view_serializable_capped, DEFAULT_MAX_TXNS};

/// A detected serialization anomaly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Distortion {
    /// Two incarnations of one global subtransaction decomposed differently
    /// (the worst case of global view distortion; impossible in any serial
    /// history).
    Decomposition {
        /// The affected global transaction.
        txn: GlobalTxnId,
        /// The site of the diverging subtransaction.
        site: SiteId,
        /// The earlier incarnation index.
        earlier: u32,
        /// The later (resubmitted) incarnation index.
        later: u32,
    },
    /// Two incarnations of one global subtransaction read the same item
    /// from different transactions — the transaction "got two views".
    GlobalView {
        /// The affected global transaction.
        txn: GlobalTxnId,
        /// The site of the diverging subtransaction.
        site: SiteId,
        /// The item read differently.
        item: Item,
        /// Writer observed by the earlier incarnation (`None` = T_0).
        earlier_writer: Option<Txn>,
        /// Writer observed by the later incarnation.
        later_writer: Option<Txn>,
        /// The earlier incarnation index.
        earlier: u32,
        /// The later incarnation index.
        later: u32,
    },
    /// Local transactions obtained non-serializable views: `C(H)` is not
    /// view serializable although no global view distortion exists. The
    /// witness is a cycle of the commit-order graph when one exists.
    LocalView {
        /// Transactions witnessing the anomaly (a CG cycle if available,
        /// otherwise all transactions of the non-serializable projection).
        witness: Vec<Txn>,
    },
}

/// Scan a history for global view distortion among the incarnations of its
/// global subtransactions. Returns the first distortion found (deterministic
/// scan order: by transaction, site, incarnation pair).
///
/// The scan compares *all* incarnation pairs, not only consecutive ones:
/// every pair must agree in a serial world, where no other transaction can
/// intervene inside `T_k`'s block.
pub fn detect_global_view_distortion(h: &History) -> Option<Distortion> {
    global_view_distortion(&Index::new(h), Scope::All)
}

/// The scan on the index, over the transactions in `scope`.
pub(crate) fn global_view_distortion(ix: &Index, scope: Scope) -> Option<Distortion> {
    // Only a global subtransaction with two or more incarnations that have
    // data operations has a pair to compare; all the scan records is theirs.
    let compared = |s: &Subtxn| {
        s.data_incarnations >= 2 && ix.txns[s.txn as usize].is_global() && ix.includes(scope, s.txn)
    };
    if !ix.subtxns.iter().any(compared) {
        return None;
    }

    // The compared incarnations in scan order — by transaction (first
    // appearance), site, incarnation — each with its decomposition (the
    // positions of its data operations) and its view (per read: the item
    // and the instance read from).
    struct Incarnation {
        inst: u32,
        decomposition: Vec<usize>,
        view: Vec<(u32, u32)>,
    }
    let mut incarnations: Vec<Incarnation> = (0..)
        .zip(&ix.insts)
        .filter(|(_, inst)| inst.has_data && compared(&ix.subtxns[inst.subtxn as usize]))
        .map(|(inst, _)| Incarnation {
            inst,
            decomposition: Vec::new(),
            view: Vec::new(),
        })
        .collect();
    incarnations.sort_unstable_by_key(|inc| {
        let inst = &ix.insts[inc.inst as usize];
        (
            ix.subtxns[inst.subtxn as usize].txn,
            inst.id.site,
            inst.id.incarnation,
        )
    });
    let mut slot = vec![NONE; ix.insts.len()];
    for (k, inc) in (0..).zip(&incarnations) {
        slot[inc.inst as usize] = k;
    }
    let compared_at = |p: usize| slot[ix.inst_of[p] as usize] as usize;
    for (p, op) in ix.ops.iter().enumerate() {
        if op.kind.is_data_op() && compared_at(p) < incarnations.len() {
            incarnations[compared_at(p)].decomposition.push(p);
        }
    }
    replay(ix, scope, |p, writer| {
        if let Some(inc) = incarnations.get_mut(compared_at(p)) {
            inc.view.push((ix.item_of[p], writer));
        }
    });

    // An incarnation is *known complete* (all its DML fully executed) if it
    // locally committed, or if the site's prepare operation follows all of
    // its data operations (a subtransaction is only moved to the prepared
    // state once every command has executed). Replay incarnations killed
    // mid-way are incomplete: their operation sequence is a legitimate
    // prefix of the full decomposition, not a distortion.
    let complete = |inc: &Incarnation| {
        let inst = &ix.insts[inc.inst as usize];
        let prepared = ix.subtxns[inst.subtxn as usize].first_prepare;
        let last = inc.decomposition.last().map_or(0, |&p| p as u32);
        inst.first_commit != NONE || (prepared != NONE && last < prepared)
    };
    // Two decompositions agree on their common prefix, as elementary
    // sequences of (is_write, item).
    let step = |p: usize| (matches!(ix.ops[p].kind, OpKind::Write(_)), ix.item_of[p]);
    let agree = |a: &[usize], b: &[usize]| a.iter().zip(b).all(|(&p, &q)| step(p) == step(q));
    let writer = |w: u32| (w != NONE).then(|| ix.insts[w as usize].id.txn);

    let subtxn = |inc: &Incarnation| ix.insts[inc.inst as usize].subtxn;
    for incs in incarnations.chunk_by(|a, b| subtxn(a) == subtxn(b)) {
        for (a, inc0) in incs.iter().enumerate() {
            for inc1 in &incs[a + 1..] {
                let (i0, i1) = (
                    ix.insts[inc0.inst as usize].id,
                    ix.insts[inc1.inst as usize].id,
                );
                let Txn::Global(g) = i0.txn else {
                    unreachable!("only global subtransactions are compared")
                };
                let (site, j0, j1) = (i0.site, i0.incarnation, i1.incarnation);
                // (a) decomposition comparison: two *complete* incarnations
                // must have identical elementary sequences; an incomplete
                // (killed mid-replay) incarnation must be a prefix of the
                // other.
                let (d0, d1) = (&inc0.decomposition, &inc1.decomposition);
                let both_complete = complete(inc0) && complete(inc1);
                if (both_complete && d0.len() != d1.len()) || !agree(d0, d1) {
                    return Some(Distortion::Decomposition {
                        txn: g,
                        site,
                        earlier: j0,
                        later: j1,
                    });
                }

                // (b) view comparison at the transaction level. Reading from
                // T_k itself is reading one's own (earlier-incarnation)
                // write; both count as "self".
                let canon = |w: Option<Txn>| w.filter(|&t| t != Txn::Global(g));
                for (&(item, w0), &(_, w1)) in inc0.view.iter().zip(&inc1.view) {
                    let (w0, w1) = (writer(w0), writer(w1));
                    if canon(w0) != canon(w1) {
                        return Some(Distortion::GlobalView {
                            txn: g,
                            site,
                            item: ix.items[item as usize],
                            earlier_writer: w0,
                            later_writer: w1,
                            earlier: j0,
                            later: j1,
                        });
                    }
                }
            }
        }
    }
    None
}

/// Detect local view distortion on the committed projection of `h`.
///
/// Classification follows the paper: if `C(H)` already exhibits a global
/// view distortion the anomaly is *global*, and this detector returns
/// `None` (use [`detect_global_view_distortion`]). Otherwise, a
/// view-serializability failure of `C(H)` is a local view distortion and a
/// CG cycle is reported as witness when present.
///
/// Uses the exact exponential decider; histories must stay within
/// [`DEFAULT_MAX_TXNS`] committed transactions.
pub fn detect_local_view_distortion(h: &History) -> Option<Distortion> {
    let c = h.committed_projection();
    if detect_global_view_distortion(&c).is_some() {
        return None;
    }
    let report = view_serializable_capped(&c, DEFAULT_MAX_TXNS);
    if report.serializable {
        return None;
    }
    let cg = commit_order_graph(&c);
    let witness = cg.cycle.unwrap_or_else(|| c.txns());
    Some(Distortion::LocalView { witness })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    const A: SiteId = SiteId(0);
    const XA: Item = Item::new(A, 0);
    const YA: Item = Item::new(A, 1);

    #[test]
    fn clean_resubmission_no_distortion() {
        // Nothing changed between abort and resubmission: same view, same
        // decomposition.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::read_g(1, 1, XA),
            Op::local_commit_g(1, 1, A),
        ]);
        assert_eq!(detect_global_view_distortion(&h), None);
    }

    #[test]
    fn changed_view_detected() {
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::write_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
            Op::read_g(1, 1, XA),
        ]);
        match detect_global_view_distortion(&h) {
            Some(Distortion::GlobalView {
                txn,
                item,
                earlier_writer,
                later_writer,
                ..
            }) => {
                assert_eq!(txn, GlobalTxnId(1));
                assert_eq!(item, XA);
                assert_eq!(earlier_writer, None);
                assert_eq!(later_writer, Some(Txn::global(2)));
            }
            other => panic!("expected GlobalView, got {other:?}"),
        }
    }

    #[test]
    fn changed_decomposition_detected() {
        // The resubmission decomposes to fewer ops (as in H1, where T2
        // deleted Y^a). Both incarnations are complete: incarnation 0 was
        // prepared after its operations; incarnation 1 locally committed.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::read_g(1, 0, YA),
            Op::write_g(1, 0, YA),
            Op::prepare(1, A),
            Op::local_abort_g(1, 0, A),
            Op::read_g(1, 1, XA),
            Op::local_commit_g(1, 1, A),
        ]);
        match detect_global_view_distortion(&h) {
            Some(Distortion::Decomposition {
                txn,
                site,
                earlier,
                later,
            }) => {
                assert_eq!(txn, GlobalTxnId(1));
                assert_eq!(site, A);
                assert_eq!((earlier, later), (0, 1));
            }
            other => panic!("expected Decomposition, got {other:?}"),
        }
    }

    #[test]
    fn partial_replay_prefix_is_not_distortion() {
        // A replay killed mid-way logs a strict prefix of the original
        // decomposition; that is a failure artifact, not a distortion.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::write_g(1, 0, XA),
            Op::read_g(1, 0, YA),
            Op::prepare(1, A),
            Op::local_abort_g(1, 0, A), // unilateral abort in prepared state
            Op::read_g(1, 1, XA),       // replay starts...
            Op::local_abort_g(1, 1, A), // ...and is killed mid-way
            Op::read_g(1, 2, XA),
            Op::write_g(1, 2, XA),
            Op::read_g(1, 2, YA),
            Op::local_commit_g(1, 2, A),
        ]);
        assert_eq!(detect_global_view_distortion(&h), None);
    }

    #[test]
    fn diverging_partial_replay_is_distortion() {
        // A partial replay that reads a *different item* than the original
        // decomposition's prefix diverged: real distortion.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::read_g(1, 0, YA),
            Op::prepare(1, A),
            Op::local_abort_g(1, 0, A),
            Op::read_g(1, 1, YA), // diverges at position 0
            Op::local_abort_g(1, 1, A),
        ]);
        assert!(matches!(
            detect_global_view_distortion(&h),
            Some(Distortion::Decomposition { .. })
        ));
    }

    #[test]
    fn rereading_own_write_is_not_distortion() {
        // Incarnation 0 wrote X before reading it; incarnation 1's read of
        // the restored before-image (T_0) is the same logical view.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::read_g(1, 0, XA), // reads own write -> canonicalized to None
            Op::local_abort_g(1, 0, A),
            Op::write_g(1, 1, XA),
            Op::read_g(1, 1, XA),
            Op::local_commit_g(1, 1, A),
        ]);
        assert_eq!(detect_global_view_distortion(&h), None);
    }

    #[test]
    fn local_distortion_requires_nonserializable_projection() {
        // A perfectly serial history has no local view distortion.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::read_l(4, XA),
            Op::local_commit_l(4, A),
        ]);
        assert_eq!(detect_local_view_distortion(&h), None);
    }

    #[test]
    fn write_skew_style_local_distortion() {
        // L4 reads X and Y across T1's and T2's commits such that no serial
        // order explains its view: L4 sees T2's X but not T1's Y, while T2
        // saw T1's Y (so T1 < T2, but then L4 after T2 must see T1's Y).
        let h = History::from_ops([
            Op::write_g(1, 0, YA),
            Op::global_commit(1),
            Op::local_commit_g(1, 0, A),
            Op::read_g(2, 0, YA),
            Op::write_g(2, 0, XA),
            Op::global_commit(2),
            Op::local_commit_g(2, 0, A),
            Op::read_l(4, XA), // sees T2
            Op::local_commit_l(4, A),
        ]);
        // This is actually serializable: T1 T2 L4. Sanity-check the
        // detector stays quiet...
        assert_eq!(detect_local_view_distortion(&h), None);

        // ...and now an inconsistent variant: L4 reads Y *before* T1
        // commits (sees T_0) but X *after* T2 commits (sees T2). The global
        // commits are required for T1/T2 to survive into C(H).
        let h2 = History::from_ops([
            Op::read_l(4, YA), // sees T_0
            Op::write_g(1, 0, YA),
            Op::global_commit(1),
            Op::local_commit_g(1, 0, A),
            Op::read_g(2, 0, YA),
            Op::write_g(2, 0, XA),
            Op::global_commit(2),
            Op::local_commit_g(2, 0, A),
            Op::read_l(4, XA), // sees T2
            Op::local_commit_l(4, A),
        ]);
        let d = detect_local_view_distortion(&h2);
        assert!(
            matches!(d, Some(Distortion::LocalView { .. })),
            "expected LocalView, got {d:?}"
        );
    }
}
