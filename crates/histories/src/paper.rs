//! Verbatim constructions of the paper's running examples: the Fig. 2
//! transactions and the anomaly histories H1 (§3), H2 and H3 (§5.1).
//!
//! Conventions: site `a` = [`SITE_A`] (0), site `b` = [`SITE_B`] (1); the
//! named items X, Y, Z, Q, U map to keys 0–4 at their site.
//!
//! Two editorial notes, both marked inline:
//!
//! * the paper's printed H1 omits `C_2` (T2's global commit) although Fig. 2
//!   declares all transactions "committed and complete"; we restore it;
//! * the printed text of H3 itself is not reproduced in the paper body (only
//!   its composition from `H(T5), H(T6), H(L7), H(L8)` and its properties:
//!   globally indirect conflicts through local transactions, reversed local
//!   commit orders, non-serializable views for L7 and L8). [`h3`] is a
//!   faithful reconstruction with exactly those properties, checked by this
//!   module's tests: no direct conflicts between T5 and T6, both local
//!   projections rigorous, no global view distortion, cyclic `CG(C(H))`,
//!   and `C(H)` not view serializable.

use crate::history::History;
use crate::ids::{Item, SiteId};
use crate::op::Op;

/// The paper's site *a*.
pub const SITE_A: SiteId = SiteId(0);
/// The paper's site *b*.
pub const SITE_B: SiteId = SiteId(1);

/// Item `X^a`.
pub const X_A: Item = Item::new(SITE_A, 0);
/// Item `Y^a`.
pub const Y_A: Item = Item::new(SITE_A, 1);
/// Item `Q^a`.
pub const Q_A: Item = Item::new(SITE_A, 3);
/// Item `U^a`.
pub const U_A: Item = Item::new(SITE_A, 4);
/// Item `Z^b`.
pub const Z_B: Item = Item::new(SITE_B, 2);
/// Item `U^b`.
pub const U_B: Item = Item::new(SITE_B, 4);

/// `H(T1)` as in Fig. 2: prepared at both sites, globally committed,
/// unilaterally aborted at *a* (`A^a_10`), resubmitted (`T^a_11`) and
/// eventually locally committed everywhere. This is the H2 variant, where
/// the resubmission decomposes identically to the original.
pub fn fig2_t1() -> Vec<Op> {
    vec![
        Op::read_g(1, 0, X_A),
        Op::read_g(1, 0, Y_A),
        Op::write_g(1, 0, Y_A),
        Op::read_g(1, 0, Z_B),
        Op::write_g(1, 0, Z_B),
        Op::prepare(1, SITE_A),
        Op::prepare(1, SITE_B),
        Op::global_commit(1),
        Op::local_abort_g(1, 0, SITE_A),
        Op::local_commit_g(1, 0, SITE_B),
        Op::read_g(1, 1, X_A),
        Op::read_g(1, 1, Y_A),
        Op::write_g(1, 1, Y_A),
        Op::local_commit_g(1, 1, SITE_A),
    ]
}

/// `H(T2)` as in Fig. 2 / H1. T2 deletes `Y^a` (modelled as a write), which
/// is why T1's resubmission in H1 decomposes differently.
pub fn fig2_t2() -> Vec<Op> {
    vec![
        Op::write_g(2, 0, Y_A),
        Op::read_g(2, 0, X_A),
        Op::write_g(2, 0, X_A),
        Op::read_g(2, 0, Z_B),
        Op::write_g(2, 0, Z_B),
        Op::prepare(2, SITE_A),
        Op::prepare(2, SITE_B),
        Op::global_commit(2),
        Op::local_commit_g(2, 0, SITE_A),
        Op::local_commit_g(2, 0, SITE_B),
    ]
}

/// `H(T3)` as in Fig. 2 / H2.
pub fn fig2_t3() -> Vec<Op> {
    vec![
        Op::read_g(3, 0, Z_B),
        Op::read_g(3, 0, Q_A),
        Op::write_g(3, 0, Q_A),
        Op::prepare(3, SITE_A),
        Op::prepare(3, SITE_B),
        Op::global_commit(3),
        Op::local_commit_g(3, 0, SITE_A),
        Op::local_commit_g(3, 0, SITE_B),
    ]
}

/// `H(L4)` as in Fig. 2 / H2: a local transaction at site *a*.
pub fn fig2_l4() -> Vec<Op> {
    vec![
        Op::read_l(4, Q_A),
        Op::read_l(4, Y_A),
        Op::write_l(4, U_A),
        Op::local_commit_l(4, SITE_A),
    ]
}

/// History H1 (§3): the **global view distortion** example.
///
/// `T^a_10` is unilaterally aborted after the global commit; T2 then runs
/// entirely at both sites (deleting `Y^a`); the resubmission `T^a_11`
/// decomposes to a single read and reads `X^a` from T2 while `T^a_10` read
/// it from T0 — T1 "gets two views".
///
/// The paper's printed sequence omits `C_2`; it is restored here after
/// `P^b_2` (Fig. 2 declares every transaction committed and complete).
pub fn h1() -> History {
    History::from_ops([
        Op::read_g(1, 0, X_A),
        Op::read_g(1, 0, Y_A),
        Op::write_g(1, 0, Y_A),
        Op::read_g(1, 0, Z_B),
        Op::write_g(1, 0, Z_B),
        Op::prepare(1, SITE_A),
        Op::prepare(1, SITE_B),
        Op::global_commit(1),
        Op::local_abort_g(1, 0, SITE_A),
        Op::local_commit_g(1, 0, SITE_B),
        Op::write_g(2, 0, Y_A),
        Op::read_g(2, 0, X_A),
        Op::write_g(2, 0, X_A),
        Op::read_g(2, 0, Z_B),
        Op::write_g(2, 0, Z_B),
        Op::prepare(2, SITE_A),
        Op::prepare(2, SITE_B),
        Op::global_commit(2), // restored; see module docs
        Op::local_commit_g(2, 0, SITE_A),
        Op::local_commit_g(2, 0, SITE_B),
        Op::read_g(1, 1, X_A), // T^a_11: decomposition shrank (Y^a deleted)
        Op::local_commit_g(1, 1, SITE_A),
    ])
}

/// History H2 (§5.1): the **local view distortion** example with a direct
/// conflict, causing the cycle `T1 → T3 → L4 → T1` in `SG(H)` and reversed
/// local commit orders (`C^b_10 < C^b_30` but `C^a_30 < C^a_11`).
pub fn h2() -> History {
    History::from_ops([
        Op::read_g(1, 0, X_A),
        Op::read_g(1, 0, Y_A),
        Op::write_g(1, 0, Y_A),
        Op::read_g(1, 0, Z_B),
        Op::write_g(1, 0, Z_B),
        Op::prepare(1, SITE_A),
        Op::prepare(1, SITE_B),
        Op::global_commit(1),
        Op::local_abort_g(1, 0, SITE_A),
        Op::local_commit_g(1, 0, SITE_B),
        Op::read_g(3, 0, Z_B),
        Op::read_g(3, 0, Q_A),
        Op::write_g(3, 0, Q_A),
        Op::prepare(3, SITE_A),
        Op::prepare(3, SITE_B),
        Op::global_commit(3),
        Op::local_commit_g(3, 0, SITE_A),
        Op::local_commit_g(3, 0, SITE_B),
        Op::read_l(4, Q_A),
        Op::read_l(4, Y_A),
        Op::write_l(4, U_A),
        Op::local_commit_l(4, SITE_A),
        Op::read_g(1, 1, X_A),
        Op::read_g(1, 1, Y_A),
        Op::write_g(1, 1, Y_A),
        Op::local_commit_g(1, 1, SITE_A),
    ])
}

/// History H3 (§5.1, reconstructed; see module docs): **local view
/// distortion without direct conflicts** between the global transactions.
///
/// T5 writes `X^a`, `Z^b`; T6 writes `Y^a`, `U^b` — disjoint item sets.
/// T5's prepared subtransaction at *b* is unilaterally aborted and
/// resubmitted late. Local transaction L7 at *a* observes T5 but not T6;
/// L8 at *b* observes T6 but not T5, giving the joint view-serialization
/// requirement `T5 < L7 < T6` and `T6 < L8 < T5` — a cycle carried entirely
/// by local transactions, exactly the situation §5.3's serial-number
/// certification exists for.
pub fn h3() -> History {
    History::from_ops([
        // T5 executes at both sites, prepares, commits globally.
        Op::write_g(5, 0, X_A),
        Op::write_g(5, 0, Z_B),
        Op::prepare(5, SITE_A),
        Op::prepare(5, SITE_B),
        Op::global_commit(5),
        Op::local_commit_g(5, 0, SITE_A),
        Op::local_abort_g(5, 0, SITE_B), // unilateral abort in prepared state
        // L7 at a: sees T5's X^a, pre-T6 Y^a.
        Op::read_l(7, X_A),
        Op::read_l(7, Y_A),
        Op::local_commit_l(7, SITE_A),
        // T6 executes at both sites and completes.
        Op::write_g(6, 0, Y_A),
        Op::write_g(6, 0, U_B),
        Op::prepare(6, SITE_A),
        Op::prepare(6, SITE_B),
        Op::global_commit(6),
        Op::local_commit_g(6, 0, SITE_A),
        Op::local_commit_g(6, 0, SITE_B),
        // L8 at b: sees T6's U^b, pre-T5 Z^b (T5's write was rolled back).
        Op::read_l(8, U_B),
        Op::read_l(8, Z_B),
        Op::local_commit_l(8, SITE_B),
        // T5's subtransaction at b is resubmitted and commits.
        Op::write_g(5, 1, Z_B),
        Op::local_commit_g(5, 1, SITE_B),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::commit_order_graph;
    use crate::conflict::{ops_conflict, serialization_graph};
    use crate::distortion::{
        detect_global_view_distortion, detect_local_view_distortion, Distortion,
    };
    use crate::ids::{GlobalTxnId, Txn};
    use crate::rigor::is_rigorous;
    use crate::tree::validate;
    use crate::view::view_serializable;

    #[test]
    fn fig2_transactions_validate() {
        for (t, ops) in [
            (Txn::global(1), fig2_t1()),
            (Txn::global(2), fig2_t2()),
            (Txn::global(3), fig2_t3()),
            (Txn::local(SITE_A, 4), fig2_l4()),
        ] {
            validate(t, &History::from_ops(ops.clone())).unwrap_or_else(|e| {
                panic!("Fig.2 {t} failed validation: {e:?}");
            });
        }
    }

    #[test]
    fn h1_all_txns_committed_and_complete() {
        let h = h1();
        for k in [1, 2] {
            assert!(h.is_globally_committed(GlobalTxnId(k)), "T{k}");
            assert!(h.is_complete(GlobalTxnId(k)), "T{k}");
        }
        assert_eq!(h.committed_projection().len(), h.len());
    }

    #[test]
    fn h1_local_projections_rigorous() {
        // "H1(a) would be locally serializable in the traditional sense" —
        // both LTM-level projections satisfy SRS.
        assert!(is_rigorous(&h1().site_projection(SITE_A)));
        assert!(is_rigorous(&h1().site_projection(SITE_B)));
    }

    #[test]
    fn h1_exhibits_global_view_distortion() {
        let d = detect_global_view_distortion(&h1().committed_projection());
        // The decomposition of T^a_11 differs from T^a_10 (Y^a deleted).
        match d {
            Some(Distortion::Decomposition { txn, site, .. }) => {
                assert_eq!(txn, GlobalTxnId(1));
                assert_eq!(site, SITE_A);
            }
            other => panic!("expected decomposition distortion, got {other:?}"),
        }
    }

    #[test]
    fn h1_not_view_serializable() {
        let r = view_serializable(&h1().committed_projection());
        assert!(
            !r.serializable,
            "H1 must not be view serializable: T1 got two views"
        );
    }

    #[test]
    fn h2_sg_cycle_t1_t3_l4() {
        let c = h2().committed_projection();
        let g = serialization_graph(&c);
        let t1 = Txn::global(1);
        let t3 = Txn::global(3);
        let l4 = Txn::local(SITE_A, 4);
        assert!(g.has_edge(&t1, &t3), "T1 -> T3 via Z^b");
        assert!(g.has_edge(&t3, &l4), "T3 -> L4 via Q^a");
        assert!(g.has_edge(&l4, &t1), "L4 -> T1 via Y^a");
        assert!(!g.is_acyclic());
    }

    #[test]
    fn h2_commit_orders_reversed() {
        let h = h2();
        let cb10 = h.position(&Op::local_commit_g(1, 0, SITE_B)).unwrap();
        let cb30 = h.position(&Op::local_commit_g(3, 0, SITE_B)).unwrap();
        let ca30 = h.position(&Op::local_commit_g(3, 0, SITE_A)).unwrap();
        let ca11 = h.position(&Op::local_commit_g(1, 1, SITE_A)).unwrap();
        assert!(cb10 < cb30, "C^b_10 < C^b_30");
        assert!(ca30 < ca11, "C^a_30 < C^a_11");
        let cg = commit_order_graph(&h.committed_projection());
        assert!(!cg.acyclic, "CG(C(H2)) must be cyclic");
    }

    #[test]
    fn h2_no_global_distortion_but_local() {
        let c = h2().committed_projection();
        assert_eq!(detect_global_view_distortion(&c), None);
        let d = detect_local_view_distortion(&h2());
        assert!(matches!(d, Some(Distortion::LocalView { .. })), "{d:?}");
    }

    #[test]
    fn h2_not_view_serializable() {
        assert!(!view_serializable(&h2().committed_projection()).serializable);
    }

    #[test]
    fn h2_local_projections_rigorous() {
        assert!(is_rigorous(&h2().site_projection(SITE_A)));
        assert!(is_rigorous(&h2().site_projection(SITE_B)));
    }

    #[test]
    fn h3_no_direct_conflicts_between_globals() {
        let h = h3();
        for a in h.ops() {
            for b in h.ops() {
                if a.txn == Txn::global(5) && b.txn == Txn::global(6) {
                    assert!(!ops_conflict(a, b), "direct conflict {a} / {b}");
                }
            }
        }
    }

    #[test]
    fn h3_local_projections_rigorous() {
        assert!(is_rigorous(&h3().site_projection(SITE_A)));
        assert!(is_rigorous(&h3().site_projection(SITE_B)));
    }

    #[test]
    fn h3_no_global_view_distortion() {
        assert_eq!(
            detect_global_view_distortion(&h3().committed_projection()),
            None
        );
    }

    #[test]
    fn h3_cg_cyclic_and_not_view_serializable() {
        let c = h3().committed_projection();
        let cg = commit_order_graph(&c);
        assert!(!cg.acyclic, "reversed commit orders must cycle CG");
        assert!(!view_serializable(&c).serializable);
        let d = detect_local_view_distortion(&h3());
        assert!(matches!(d, Some(Distortion::LocalView { .. })), "{d:?}");
    }

    #[test]
    fn h3_all_committed_and_complete() {
        let h = h3();
        assert!(h.is_complete(GlobalTxnId(5)));
        assert!(h.is_complete(GlobalTxnId(6)));
        assert_eq!(h.committed_projection().len(), h.len());
    }

    #[test]
    fn h1_matches_printed_sequence_prefix() {
        // Spot-check the printed H1 notation round-trips through Display.
        let s = h1().to_string();
        assert!(s.starts_with(
            "R_10[X^a] R_10[Y^a] W_10[Y^a] R_10[Z^b] W_10[Z^b] P^a_1 P^b_1 C_1 A^a_10 C^b_10"
        ));
        assert!(s.ends_with("R_11[X^a] C^a_11"));
    }
}
