//! A small directed-graph utility used by the serialization-graph and
//! commit-order-graph analyses: cycle detection, cycle extraction for
//! diagnostics, and topological sorting (the paper's §5.1 uses a topological
//! sort of the commit-order graph to exhibit the equivalent serial history).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A directed graph over arbitrary ordered node keys.
///
/// Node and edge insertion order does not affect the results; iteration is
/// in key order so analyses are deterministic.
#[derive(Debug, Clone, Default)]
pub struct DiGraph<N: Ord + Clone> {
    adj: BTreeMap<N, Vec<N>>,
}

impl<N: Ord + Clone> DiGraph<N> {
    /// An empty graph.
    pub fn new() -> Self {
        DiGraph {
            adj: BTreeMap::new(),
        }
    }

    /// Insert a node (no-op if present).
    pub fn add_node(&mut self, n: N) {
        self.adj.entry(n).or_default();
    }

    /// Insert a directed edge, adding endpoints as needed. Parallel edges
    /// are collapsed; self-loops are kept (they make the graph cyclic).
    pub fn add_edge(&mut self, from: N, to: N) {
        self.add_node(to.clone());
        let succ = self.adj.entry(from).or_default();
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// Whether the edge exists.
    pub fn has_edge(&self, from: &N, to: &N) -> bool {
        self.adj.get(from).is_some_and(|s| s.contains(to))
    }

    /// All nodes, in key order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.adj.keys()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (collapsed) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(Vec::len).sum()
    }

    /// All edges as (from, to) pairs, in deterministic order.
    pub fn edges(&self) -> Vec<(N, N)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for (from, succ) in &self.adj {
            for to in succ {
                out.push((from.clone(), to.clone()));
            }
        }
        out
    }

    /// The graph over dense ids: node `i` is the `i`-th key in key order
    /// (so id order *is* key order), with its successors resolved to ids in
    /// insertion order. Built once per traversal so that following an edge
    /// is an index, not a search.
    fn dense(&self) -> (Vec<&N>, Adjacency) {
        let keys: Vec<&N> = self.adj.keys().collect();
        let id: BTreeMap<&N, u32> = (0..)
            .zip(keys.iter().copied())
            .map(|(i, k)| (k, i))
            .collect();
        let mut arcs = Vec::with_capacity(self.edge_count());
        for (from, succ) in (0..).zip(self.adj.values()) {
            arcs.extend(succ.iter().map(|to| (from, id[to])));
        }
        let graph = Adjacency::new(keys.len(), &arcs);
        (keys, graph)
    }

    /// Find a directed cycle, if any, returned as a node sequence
    /// `v0 → v1 → … → vk → v0` (without repeating `v0` at the end).
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        let (keys, graph) = self.dense();
        let cycle = graph.find_cycle(0..keys.len())?;
        Some(cycle.into_iter().map(|n| keys[n].clone()).collect())
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Kahn topological sort; `None` if the graph has a cycle. Ties are
    /// broken by node key order, so the result is deterministic.
    pub fn topo_sort(&self) -> Option<Vec<N>> {
        let (keys, graph) = self.dense();
        let order = graph.topo_sort()?;
        Some(order.into_iter().map(|n| keys[n].clone()).collect())
    }
}

/// A graph over dense ids `0..n`, each node's successors in the order its
/// arcs were given: what every traversal runs on — [`DiGraph`]'s, and the
/// checker stages' over the ids of [`crate::index::Index`].
pub(crate) struct Adjacency {
    /// Node `i`'s successors are `succ[first[i]..first[i + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
}

impl Adjacency {
    /// The graph on nodes `0..n` with `arcs` (parallel arcs are kept; a
    /// traversal tolerates them).
    pub(crate) fn new(n: usize, arcs: &[(u32, u32)]) -> Adjacency {
        let mut first = vec![0u32; n + 1];
        for &(from, _) in arcs {
            first[from as usize + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut fill = first.clone();
        let mut succ = vec![0u32; arcs.len()];
        for &(from, to) in arcs {
            let slot = &mut fill[from as usize];
            succ[*slot as usize] = to;
            *slot += 1;
        }
        Adjacency { first, succ }
    }

    fn len(&self) -> usize {
        self.first.len() - 1
    }

    fn successors(&self, n: usize) -> &[u32] {
        &self.succ[self.first[n] as usize..self.first[n + 1] as usize]
    }

    /// A directed cycle, if any, found by depth-first search from each
    /// still-unvisited node of `starts` in turn.
    pub(crate) fn find_cycle(&self, starts: impl IntoIterator<Item = usize>) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.len()];
        let mut parent = vec![usize::MAX; self.len()];

        for start in starts {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, child index).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some((node, idx)) = stack.pop() {
                let Some(&next) = self.successors(node).get(idx) else {
                    color[node] = Color::Black;
                    continue;
                };
                let next = next as usize;
                stack.push((node, idx + 1));
                match color[next] {
                    Color::White => {
                        parent[next] = node;
                        color[next] = Color::Gray;
                        stack.push((next, 0));
                    }
                    Color::Gray => {
                        // Found a back edge node → next: reconstruct.
                        let mut cycle = vec![node];
                        let mut cur = node;
                        while cur != next {
                            cur = parent[cur];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            }
        }
        None
    }

    /// Kahn topological sort with ties broken by id; `None` if cyclic.
    pub(crate) fn topo_sort(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.len()];
        for &to in &self.succ {
            indeg[to as usize] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.len())
            .filter(|&n| indeg[n] == 0)
            .map(Reverse)
            .collect();
        let mut out = Vec::with_capacity(self.len());
        while let Some(Reverse(n)) = ready.pop() {
            out.push(n);
            for &to in self.successors(n) {
                let to = to as usize;
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    ready.push(Reverse(to));
                }
            }
        }
        (out.len() == self.len()).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_acyclic() {
        let g: DiGraph<u32> = DiGraph::new();
        assert!(g.is_acyclic());
        assert_eq!(g.topo_sort(), Some(vec![]));
    }

    #[test]
    fn chain_topo_sorts() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.is_acyclic());
        assert_eq!(g.topo_sort(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = DiGraph::new();
        g.add_edge("x", "y");
        g.add_edge("y", "x");
        assert!(!g.is_acyclic());
        assert_eq!(g.topo_sort(), None);
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn three_cycle_reconstructed_in_order() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        // Consecutive cycle nodes must be actual edges.
        for w in 0..cycle.len() {
            let from = &cycle[w];
            let to = &cycle[(w + 1) % cycle.len()];
            assert!(g.has_edge(from, to), "{from:?} -> {to:?} missing");
        }
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(5, 5);
        assert!(!g.is_acyclic());
        assert_eq!(g.find_cycle(), Some(vec![5]));
    }

    #[test]
    fn diamond_is_acyclic() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        assert!(g.is_acyclic());
        let order = g.topo_sort().unwrap();
        let pos = |n: u32| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(1) < pos(2) && pos(1) < pos(3));
        assert!(pos(2) < pos(4) && pos(3) < pos(4));
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn topo_ties_broken_by_key_order() {
        let mut g = DiGraph::new();
        g.add_node(3);
        g.add_node(1);
        g.add_node(2);
        assert_eq!(g.topo_sort(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn disconnected_components() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(10, 11);
        g.add_edge(11, 10);
        assert!(!g.is_acyclic());
        let cycle = g.find_cycle().unwrap();
        assert!(cycle.contains(&10) && cycle.contains(&11));
    }

    #[test]
    fn edges_listing() {
        let mut g = DiGraph::new();
        g.add_edge(2, 1);
        g.add_edge(1, 3);
        assert_eq!(g.edges(), vec![(1, 3), (2, 1)]);
        assert_eq!(g.node_count(), 3);
    }
}
