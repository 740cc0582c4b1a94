//! Conflicts and conflict serializability.
//!
//! Two elementary operations conflict iff they access the same item, come
//! from different transactions, and at least one is a write. The
//! serialization graph `SG(H)` has an edge `T_i → T_j` whenever some
//! operation of `T_i` precedes a conflicting operation of `T_j` in `H`.
//!
//! Two granularities are offered:
//!
//! * [`serialization_graph`] — nodes are *global-level* transactions
//!   ([`Txn`]): all incarnations of a global subtransaction count as the
//!   same node. This is the graph of §3: note the paper's remark that over
//!   its widened committed projection "SG(H) may be cyclic but H — still
//!   view serializable", which is why view serializability, not SG
//!   acyclicity, is the ultimate correctness criterion.
//! * [`serialization_graph_instances`] — nodes are local-level
//!   [`Instance`]s, the LTM's view; used for checking *local*
//!   serializability of single-site projections. Only its reachability is
//!   ever asked for, so it is stored as per-item conflict chains.

use crate::graph::DiGraph;
use crate::history::History;
use crate::ids::{Instance, Txn};
use crate::index::{Index, NONE};
use crate::op::{Op, OpKind};

/// Whether two operations conflict (same item, different transaction at the
/// global level, at least one write).
pub fn ops_conflict(a: &Op, b: &Op) -> bool {
    match (a.item(), b.item()) {
        (Some(x), Some(y)) if x == y => {
            a.txn != b.txn
                && (matches!(a.kind, crate::op::OpKind::Write(_))
                    || matches!(b.kind, crate::op::OpKind::Write(_)))
        }
        _ => false,
    }
}

/// Whether two operations conflict at the instance level (same item,
/// different instance, at least one write). Two incarnations of the same
/// global subtransaction *do* conflict under this relation, matching how the
/// LTM — which sees them as independent transactions — treats them.
pub fn ops_conflict_instances(a: &Op, b: &Op) -> bool {
    match (a.item(), b.item()) {
        (Some(x), Some(y)) if x == y => {
            a.instance() != b.instance()
                && (matches!(a.kind, crate::op::OpKind::Write(_))
                    || matches!(b.kind, crate::op::OpKind::Write(_)))
        }
        _ => false,
    }
}

/// Build `SG(H)` over global-level transactions.
pub fn serialization_graph(h: &History) -> DiGraph<Txn> {
    let mut g = DiGraph::new();
    for t in h.txns() {
        g.add_node(t);
    }
    let ops = h.ops();
    for i in 0..ops.len() {
        if ops[i].item().is_none() {
            continue;
        }
        for j in (i + 1)..ops.len() {
            if ops_conflict(&ops[i], &ops[j]) {
                g.add_edge(ops[i].txn, ops[j].txn);
            }
        }
    }
    g
}

/// Build the serialization graph over local-level instances, stored as its
/// per-item *conflict chains* (see [`conflict_arcs`]).
pub fn serialization_graph_instances(h: &History) -> DiGraph<Instance> {
    let ix = Index::new(h);
    let mut g = DiGraph::new();
    for inst in &ix.insts {
        g.add_node(inst.id);
    }
    for (from, to) in conflict_arcs(&ix) {
        g.add_edge(ix.insts[from as usize].id, ix.insts[to as usize].id);
    }
    g
}

/// The instance-level serialization graph's arcs over instance ids, as
/// per-item *conflict chains*: each access gets an arc from the item's last
/// writer, and each write one from every instance that read the item since.
/// Every arc is a conflict, and a conflict between two accesses further
/// apart is a path through the writes between them — so reachability, and
/// with it acyclicity, are those of the all-pairs graph, at about one arc
/// per access instead of one per conflicting pair.
pub(crate) fn conflict_arcs(ix: &Index) -> Vec<(u32, u32)> {
    let mut last_writer = vec![NONE; ix.items.len()];
    let mut readers_since: Vec<Vec<u32>> = vec![Vec::new(); ix.items.len()];
    let mut arcs = Vec::new();
    for (p, op) in ix.ops.iter().enumerate() {
        let (inst, item) = (ix.inst_of[p], ix.item_of[p] as usize);
        if item == NONE as usize {
            continue;
        }
        let writer = last_writer[item];
        let readers = &mut readers_since[item];
        if matches!(op.kind, OpKind::Read(_)) {
            if readers.last() != Some(&inst) {
                readers.push(inst);
                if writer != NONE && writer != inst {
                    arcs.push((writer, inst));
                }
            }
        } else {
            for earlier in std::iter::once(writer).chain(readers.drain(..)) {
                if earlier != NONE && earlier != inst {
                    arcs.push((earlier, inst));
                }
            }
            last_writer[item] = inst;
        }
    }
    arcs
}

/// Whether `h` is conflict serializable at the global level (acyclic SG on
/// the history as given — callers usually pass a committed projection).
pub fn conflict_serializable(h: &History) -> bool {
    serialization_graph(h).is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Item, SiteId};

    const A: SiteId = SiteId(0);
    const XA: Item = Item::new(A, 0);
    const YA: Item = Item::new(A, 1);

    #[test]
    fn rw_on_same_item_conflicts() {
        let r = Op::read_g(1, 0, XA);
        let w = Op::write_g(2, 0, XA);
        assert!(ops_conflict(&r, &w));
        assert!(ops_conflict(&w, &r));
    }

    #[test]
    fn ww_conflicts_rr_does_not() {
        let w1 = Op::write_g(1, 0, XA);
        let w2 = Op::write_g(2, 0, XA);
        assert!(ops_conflict(&w1, &w2));
        let r1 = Op::read_g(1, 0, XA);
        let r2 = Op::read_g(2, 0, XA);
        assert!(!ops_conflict(&r1, &r2));
    }

    #[test]
    fn different_items_do_not_conflict() {
        let w1 = Op::write_g(1, 0, XA);
        let w2 = Op::write_g(2, 0, YA);
        assert!(!ops_conflict(&w1, &w2));
    }

    #[test]
    fn same_txn_incarnations_conflict_only_at_instance_level() {
        let w0 = Op::write_g(1, 0, XA);
        let w1 = Op::write_g(1, 1, XA);
        assert!(!ops_conflict(&w0, &w1));
        assert!(ops_conflict_instances(&w0, &w1));
    }

    #[test]
    fn simple_serializable_history() {
        // T1 then T2 on X — acyclic.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::write_g(1, 0, XA),
            Op::read_g(2, 0, XA),
            Op::write_g(2, 0, XA),
        ]);
        let g = serialization_graph(&h);
        assert!(g.has_edge(&Txn::global(1), &Txn::global(2)));
        assert!(!g.has_edge(&Txn::global(2), &Txn::global(1)));
        assert!(conflict_serializable(&h));
    }

    #[test]
    fn lost_update_cycle() {
        // R1[X] R2[X] W1[X] W2[X] — classic nonserializable interleaving.
        let h = History::from_ops([
            Op::read_g(1, 0, XA),
            Op::read_g(2, 0, XA),
            Op::write_g(1, 0, XA),
            Op::write_g(2, 0, XA),
        ]);
        assert!(!conflict_serializable(&h));
    }

    #[test]
    fn local_and_global_mix() {
        // L4 reads what T1 wrote, then T1 reads what L4 wrote elsewhere: cycle.
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::read_l(4, XA),
            Op::write_l(4, YA),
            Op::read_g(1, 0, YA),
        ]);
        assert!(!conflict_serializable(&h));
    }

    #[test]
    fn instance_level_graph_separates_incarnations() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_abort_g(1, 0, A),
            Op::write_g(1, 1, XA),
        ]);
        let g = serialization_graph_instances(&h);
        let i0 = Instance::global(1, A, 0);
        let i1 = Instance::global(1, A, 1);
        assert!(g.has_edge(&i0, &i1));
    }
}
