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

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::cg::commit_order_graph;
use crate::history::History;
use crate::ids::{GlobalTxnId, Instance, Item, SiteId, Txn};
use crate::op::OpKind;
use crate::replay::Replay;
use crate::view::{view_serializable_capped, DEFAULT_MAX_TXNS};

/// A detected serialization anomaly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    let replay = Replay::of(h);

    // One pre-pass indexes what the scan asks about each incarnation
    // `T^s_kj` that has data operations.
    #[derive(Default)]
    struct Incarnation {
        /// The decomposition: the elementary sequence as (is_write, item).
        ops: Vec<(bool, Item)>,
        last_data_pos: usize,
    }
    let mut subtxns: BTreeMap<(GlobalTxnId, SiteId), BTreeMap<u32, Incarnation>> = BTreeMap::new();
    let mut prepared_at: BTreeMap<(GlobalTxnId, SiteId), usize> = BTreeMap::new();
    let mut committed: BTreeSet<Instance> = BTreeSet::new();
    for (p, op) in h.ops().iter().enumerate() {
        let (Txn::Global(g), Some(site)) = (op.txn, op.site()) else {
            continue;
        };
        match op.kind {
            OpKind::Read(item) | OpKind::Write(item) => {
                let inc = subtxns
                    .entry((g, site))
                    .or_default()
                    .entry(op.incarnation)
                    .or_default();
                inc.ops.push((matches!(op.kind, OpKind::Write(_)), item));
                inc.last_data_pos = p;
            }
            OpKind::Prepare(_) => {
                prepared_at.entry((g, site)).or_insert(p);
            }
            OpKind::LocalCommit(_) => {
                committed.insert(Instance::global(g.0, site, op.incarnation));
            }
            _ => {}
        }
    }

    for g in h.global_txns() {
        let sites = subtxns.range((g, SiteId(0))..=(g, SiteId(u32::MAX)));
        for (&(_, site), incs) in sites {
            // An incarnation is *known complete* (all its DML fully
            // executed) if it locally committed, or if the site's prepare
            // operation follows all of its data operations (a
            // subtransaction is only moved to the prepared state once every
            // command has executed). Replay incarnations killed mid-way are
            // incomplete: their operation sequence is a legitimate prefix
            // of the full decomposition, not a distortion.
            let prepared = prepared_at.get(&(g, site));
            let is_complete = |j: u32, inc: &Incarnation| {
                committed.contains(&Instance::global(g.0, site, j))
                    || prepared.is_some_and(|&p| inc.last_data_pos < p)
            };
            let incs: Vec<(u32, &Incarnation)> = incs.iter().map(|(&j, inc)| (j, inc)).collect();
            for (a, &(j0, inc0)) in incs.iter().enumerate() {
                for &(j1, inc1) in &incs[a + 1..] {
                    // (a) decomposition comparison: two *complete*
                    // incarnations must have identical elementary sequences;
                    // an incomplete (killed mid-replay) incarnation must be
                    // a prefix of the other.
                    let mismatch = if is_complete(j0, inc0) && is_complete(j1, inc1) {
                        inc0.ops != inc1.ops
                    } else {
                        let n = inc0.ops.len().min(inc1.ops.len());
                        inc0.ops[..n] != inc1.ops[..n]
                    };
                    if mismatch {
                        return Some(Distortion::Decomposition {
                            txn: g,
                            site,
                            earlier: j0,
                            later: j1,
                        });
                    }

                    // (b) view comparison at the transaction level.
                    let v0 = replay.txn_view_of(Instance::global(g.0, site, j0));
                    let v1 = replay.txn_view_of(Instance::global(g.0, site, j1));
                    for (&(it0, w0), &(it1, w1)) in v0.iter().zip(v1.iter()) {
                        debug_assert_eq!(it0, it1, "same decomposition");
                        // Reading from T_k itself is reading one's own
                        // (earlier-incarnation) write; both count as "self".
                        let canon = |w: Option<Txn>| match w {
                            Some(t) if t == Txn::Global(g) => None,
                            other => other,
                        };
                        if canon(w0) != canon(w1) {
                            return Some(Distortion::GlobalView {
                                txn: g,
                                site,
                                item: it0,
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

/// The paper's polynomial *necessary* condition: "local view distortion is
/// possible in H only if CG(C(H)) is cyclic."
pub fn local_view_distortion_possible(h: &History) -> bool {
    !commit_order_graph(&h.committed_projection()).acyclic
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
        assert!(!local_view_distortion_possible(&h));
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
