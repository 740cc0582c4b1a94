//! The commit-order graph `CG(H)` of §5.1.
//!
//! "Its nodes are those transactions `T_k` that have at least one local
//! commit `C^x_kj` in H. There is an arc from `T_k` to `T_i` iff
//! `C^x_kj <_H C^x_ig` for some x in H" — i.e. some *site* x at which `T_k`
//! commits locally before `T_i` does.
//!
//! "Evidently, local view distortion is possible in H only if `CG(C(H))` is
//! cyclic; if it is acyclic, then it can be topologically sorted" and the
//! sort order yields a view-equivalent serial history (given CI, SRS, DLU).
//! The commit certification's entire job is to keep this graph acyclic.
//!
//! Each site's commits are totally ordered, so the paper's arcs from one
//! site are the transitive closure of that site's commit *chain*. The graph
//! stored here keeps only the chains — every site's covering relation: an
//! arc `T_k → T_i` of the paper's CG exists iff `T_i` is reachable from
//! `T_k` along one site's chain. Reachability, and with it acyclicity and
//! the key-ordered topological sort, are those of the paper's graph, at
//! `Σ_s (n_s − 1)` arcs instead of `Σ_s n_s²/2`.

use std::collections::BTreeMap;

use crate::graph::{Adjacency, DiGraph};
use crate::history::History;
use crate::ids::{SiteId, Txn};
use crate::index::{Index, Scope};
use crate::op::{Op, OpKind};

/// The commit-order graph with its analysis results.
#[derive(Debug, Clone)]
pub struct CgReport {
    /// The graph (nodes: transactions with ≥1 local commit), stored as each
    /// site's covering relation of the §5.1 order: an arc joins two
    /// transactions whose local commits are *consecutive* at some site, and
    /// the paper's arc `T_k → T_i` exists iff `T_i` is reachable from `T_k`
    /// along one site's chain.
    pub graph: DiGraph<Txn>,
    /// Whether the graph is acyclic.
    pub acyclic: bool,
    /// A witnessing cycle if cyclic.
    pub cycle: Option<Vec<Txn>>,
    /// A topological order if acyclic — a *global view serialization
    /// order* per §5.1.
    pub topo_order: Option<Vec<Txn>>,
}

/// Each site's commit chain over the transactions in `scope`, sites in
/// `SiteId` order: its transaction ids in the order of their *first* local
/// commit there. (A transaction commits at most one incarnation per site; a
/// repeated `LocalCommit` is ignored.)
fn commit_chains(ix: &Index, scope: Scope) -> Vec<(SiteId, Vec<u32>)> {
    let mut chains = vec![Vec::new(); ix.sites.len()];
    let mut chained = vec![false; ix.subtxns.len()];
    for (p, op) in ix.ops.iter().enumerate() {
        if matches!(op.kind, OpKind::LocalCommit(_)) && ix.includes(scope, ix.txn_of[p]) {
            let inst = ix.inst(p);
            if !std::mem::replace(&mut chained[inst.subtxn as usize], true) {
                chains[inst.site as usize].push(ix.txn_of[p]);
            }
        }
    }
    let mut chains: Vec<(SiteId, Vec<u32>)> = (0..)
        .zip(chains)
        .filter(|(_, chain)| !chain.is_empty())
        .map(|(d, chain)| (ix.site_id(d), chain))
        .collect();
    chains.sort_unstable_by_key(|(site, _)| *site);
    chains
}

/// Build `CG(H)` and analyze it.
pub fn commit_order_graph(h: &History) -> CgReport {
    let ix = Index::new(h);
    let mut graph = DiGraph::new();
    for (_, chain) in commit_chains(&ix, Scope::All) {
        let txn = |t: u32| ix.txns[t as usize];
        graph.add_node(txn(chain[0]));
        for pair in chain.windows(2) {
            graph.add_edge(txn(pair[0]), txn(pair[1]));
        }
    }

    // Kahn's sort succeeds iff the graph is acyclic; only a failure needs
    // the search for a witness.
    let topo_order = graph.topo_sort();
    let cycle = if topo_order.is_none() {
        graph.find_cycle()
    } else {
        None
    };
    CgReport {
        graph,
        acyclic: topo_order.is_some(),
        cycle,
        topo_order,
    }
}

/// Whether `CG` over the transactions in `scope` is acyclic, on the index's
/// transaction ids.
pub(crate) fn acyclic(ix: &Index, scope: Scope) -> bool {
    let arcs: Vec<(u32, u32)> = commit_chains(ix, scope)
        .iter()
        .flat_map(|(_, chain)| chain.windows(2).map(|pair| (pair[0], pair[1])))
        .collect();
    let graph = Adjacency::new(ix.txns.len(), &arcs);
    graph.find_cycle(0..ix.txns.len()).is_none()
}

/// Build a serial history ordered by the topological order of `CG(H)`,
/// if the graph is acyclic: the §5.1 construction of the view-equivalent
/// serial yardstick `H_s`. Transactions without local commits (absent from
/// CG) are appended at the end in first-appearance order.
pub fn serial_by_commit_order(h: &History) -> Option<History> {
    let order = commit_order_graph(h).topo_order?;
    let mut by_txn: BTreeMap<Txn, Vec<Op>> = BTreeMap::new();
    for op in h.ops() {
        by_txn.entry(op.txn).or_default().push(*op);
    }
    // Committed transactions first, each bucket leaving the map as it is
    // emitted; what `h.txns()` still finds there afterwards is commit-less.
    let mut serial = Vec::with_capacity(h.len());
    for t in order.into_iter().chain(h.txns()) {
        serial.extend(by_txn.remove(&t).unwrap_or_default());
    }
    Some(History::from_ops(serial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Item, SiteId};
    use crate::op::Op;

    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const XA: Item = Item::new(A, 0);

    #[test]
    fn empty_history_acyclic() {
        let r = commit_order_graph(&History::new());
        assert!(r.acyclic);
        assert_eq!(r.graph.node_count(), 0);
    }

    #[test]
    fn same_order_at_both_sites_acyclic() {
        let h = History::from_ops([
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(1, 0, B),
            Op::local_commit_g(2, 0, A),
            Op::local_commit_g(2, 0, B),
        ]);
        let r = commit_order_graph(&h);
        assert!(r.acyclic);
        assert_eq!(r.topo_order, Some(vec![Txn::global(1), Txn::global(2)]));
    }

    #[test]
    fn reversed_orders_make_cycle() {
        // The situation of H2: commits in reversed orders at two sites.
        let h = History::from_ops([
            Op::local_commit_g(1, 0, B),
            Op::local_commit_g(3, 0, B),
            Op::local_commit_g(3, 0, A),
            Op::local_commit_g(1, 1, A),
        ]);
        let r = commit_order_graph(&h);
        assert!(!r.acyclic);
        let cycle = r.cycle.unwrap();
        assert!(cycle.contains(&Txn::global(1)) && cycle.contains(&Txn::global(3)));
    }

    #[test]
    fn only_first_commit_per_site_counts() {
        // A resubmitted transaction commits only once per site; a repeated
        // LocalCommit (which the model never produces) would be ignored.
        let h = History::from_ops([
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(1, 0, A),
            Op::local_commit_g(2, 0, A),
        ]);
        let r = commit_order_graph(&h);
        assert!(r.acyclic);
        assert!(r.graph.has_edge(&Txn::global(1), &Txn::global(2)));
        assert!(!r.graph.has_edge(&Txn::global(1), &Txn::global(1)));
    }

    #[test]
    fn arcs_grow_with_commits_not_with_their_square() {
        // 8 sites × 2 000 commits each; every tenth transaction is a global
        // one committing everywhere. The closure would hold 8 × 2 000²/2
        // arcs; the chains hold one per commit after a site's first.
        let (sites, per_site) = (8u32, 2_000u32);
        let mut h = History::new();
        for n in 0..per_site {
            for s in (0..sites).map(SiteId) {
                h.push(if n % 10 == 0 {
                    Op::local_commit_g(n, 0, s)
                } else {
                    Op::local_commit_l(n, s)
                });
            }
        }
        let r = commit_order_graph(&h);
        assert!(r.graph.edge_count() <= (sites * (per_site - 1)) as usize);
        assert!(r.acyclic);
        let order = r.topo_order.expect("acyclic");
        assert_eq!(order.len(), r.graph.node_count());
        // Every global precedes the next one, as at every site.
        let globals: Vec<Txn> = order.into_iter().filter(Txn::is_global).collect();
        assert!(globals.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(globals.len(), per_site as usize / 10);
    }

    #[test]
    fn local_txns_participate() {
        let h = History::from_ops([
            Op::local_commit_g(1, 0, A),
            Op::local_commit_l(4, A),
            Op::local_commit_g(2, 0, A),
        ]);
        let r = commit_order_graph(&h);
        assert!(r.acyclic);
        let order = r.topo_order.unwrap();
        assert_eq!(
            order,
            vec![Txn::global(1), Txn::local(A, 4), Txn::global(2)]
        );
    }

    #[test]
    fn serial_by_commit_order_is_view_equivalent_for_nice_history() {
        // Rigorous, same commit order: the topological serial history must
        // be view-equivalent to the original (the §5.1 argument).
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::read_g(2, 0, XA),
            Op::local_commit_g(2, 0, A),
        ]);
        let serial = serial_by_commit_order(&h).unwrap();
        assert!(crate::view::view_equivalent(&h, &serial));
    }

    #[test]
    fn serial_by_commit_order_none_when_cyclic() {
        let h = History::from_ops([
            Op::local_commit_g(1, 0, B),
            Op::local_commit_g(3, 0, B),
            Op::local_commit_g(3, 0, A),
            Op::local_commit_g(1, 1, A),
        ]);
        assert!(serial_by_commit_order(&h).is_none());
    }

    #[test]
    fn appends_commitless_txns() {
        let h = History::from_ops([
            Op::write_g(1, 0, XA),
            Op::local_commit_g(1, 0, A),
            Op::read_g(9, 0, XA), // T9 never commits anywhere
        ]);
        let serial = serial_by_commit_order(&h).unwrap();
        assert_eq!(serial.len(), h.len());
        assert_eq!(serial.ops().last().unwrap().txn, Txn::global(9));
    }
}
