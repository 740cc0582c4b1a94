//! The checkers as their definitions read — quadratic or worse, one
//! re-scan of the history per question — kept as test oracles for the
//! indexed one-sweep versions the crate ships, the way the linear table in
//! `crates/core/tests/oracle/` guards the certifier. The contract checked
//! below is *same verdicts, same first witnesses*; only the content of a
//! `CG` cycle witness is free.

use std::collections::{BTreeMap, BTreeSet};

use crate::distortion::Distortion;
use crate::history::History;
use crate::ids::{GlobalTxnId, Instance, Item, SiteId, Txn};
use crate::index::Verdict;
use crate::op::{Op, OpKind};
use crate::rigor::RigorViolation;

// ---------------------------------------------------------------------
// Graphs, by definition
// ---------------------------------------------------------------------

/// A directed graph as a node set and an arc set.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Arcs<N: Ord + Copy> {
    pub nodes: BTreeSet<N>,
    pub arcs: BTreeSet<(N, N)>,
}

impl<N: Ord + Copy> Arcs<N> {
    pub fn of(nodes: impl IntoIterator<Item = N>, arcs: impl IntoIterator<Item = (N, N)>) -> Self {
        let arcs: BTreeSet<(N, N)> = arcs.into_iter().collect();
        let mut nodes: BTreeSet<N> = nodes.into_iter().collect();
        nodes.extend(arcs.iter().flat_map(|&(a, b)| [a, b]));
        Arcs { nodes, arcs }
    }

    /// Kahn's sort as its specification: repeatedly emit the smallest node
    /// all of whose predecessors have been emitted; `None` if stuck.
    pub fn topo_sort(&self) -> Option<Vec<N>> {
        let mut out = Vec::new();
        let mut emitted = BTreeSet::new();
        while out.len() < self.nodes.len() {
            let next = self.nodes.iter().copied().find(|n| {
                !emitted.contains(n)
                    && self
                        .arcs
                        .iter()
                        .all(|(from, to)| to != n || emitted.contains(from))
            })?;
            emitted.insert(next);
            out.push(next);
        }
        Some(out)
    }

    /// Every `(a, b)` with a non-empty path from `a` to `b`.
    pub fn reachability(&self) -> BTreeSet<(N, N)> {
        let mut reach = self.arcs.clone();
        loop {
            let longer: Vec<(N, N)> = reach
                .iter()
                .flat_map(|&(a, b)| {
                    self.arcs
                        .iter()
                        .filter(move |&&(from, _)| from == b)
                        .map(move |&(_, c)| (a, c))
                })
                .filter(|pair| !reach.contains(pair))
                .collect();
            if longer.is_empty() {
                return reach;
            }
            reach.extend(longer);
        }
    }

    pub fn acyclic(&self) -> bool {
        self.reachability().iter().all(|(a, b)| a != b)
    }
}

/// `CG(H)` with every arc of §5.1: `T_k → T_i` iff at some site `T_k`'s
/// (first) local commit precedes `T_i`'s.
pub fn commit_order_closure(h: &History) -> Arcs<Txn> {
    let mut commits_per_site: BTreeMap<SiteId, Vec<Txn>> = BTreeMap::new();
    for op in h.ops() {
        if let OpKind::LocalCommit(s) = op.kind {
            let v = commits_per_site.entry(s).or_default();
            if !v.contains(&op.txn) {
                v.push(op.txn);
            }
        }
    }
    let nodes = commits_per_site.values().flatten().copied();
    let arcs = commits_per_site
        .values()
        .flat_map(|v| (0..v.len()).flat_map(move |i| v[i + 1..].iter().map(move |&t| (v[i], t))));
    Arcs::of(nodes, arcs)
}

/// The all-pairs instance-level serialization graph.
pub fn serialization_graph_instances(h: &History) -> Arcs<Instance> {
    let ops = h.ops();
    let arcs = (0..ops.len()).flat_map(|i| {
        (i + 1..ops.len())
            .filter(move |&j| crate::conflict::ops_conflict_instances(&ops[i], &ops[j]))
            .map(move |j| {
                (
                    ops[i].instance().expect("data op"),
                    ops[j].instance().expect("data op"),
                )
            })
    });
    Arcs::of(h.instances(), arcs)
}

// ---------------------------------------------------------------------
// Rigorousness, by definition
// ---------------------------------------------------------------------

/// Position of the first terminal operation (local commit or abort) of an
/// instance.
fn terminal_position(h: &History, inst: Instance) -> Option<usize> {
    h.ops().iter().position(|o| {
        o.instance() == Some(inst)
            && matches!(o.kind, OpKind::LocalCommit(_) | OpKind::LocalAbort(_))
    })
}

/// Whenever an `earlier`-kind access `O_j[x]` precedes a `later`-kind access
/// `O_i[x]` (i ≠ j), the termination of `j` lies between them.
fn waits_for_termination(
    h: &History,
    rule: &'static str,
    later: fn(&OpKind) -> bool,
    earlier: fn(&OpKind) -> bool,
) -> Option<RigorViolation> {
    let ops = h.ops();
    for (p, op) in ops.iter().enumerate() {
        if !later(&op.kind) {
            continue;
        }
        let offender = op.instance().expect("data op");
        for (q, prev) in ops.iter().enumerate().take(p) {
            if !earlier(&prev.kind) || prev.item() != op.item() {
                continue;
            }
            let victim = prev.instance().expect("data op");
            if victim == offender {
                continue;
            }
            if !terminal_position(h, victim).is_some_and(|t| t > q && t < p) {
                return Some(RigorViolation {
                    rule,
                    offender,
                    victim,
                    position: p,
                });
            }
        }
    }
    None
}

pub fn rigor_violation(h: &History) -> Option<RigorViolation> {
    let is_write = |k: &OpKind| matches!(k, OpKind::Write(_));
    let is_read = |k: &OpKind| matches!(k, OpKind::Read(_));
    let strict = waits_for_termination(
        h,
        "strict: accessed data written by an unterminated transaction",
        OpKind::is_data_op,
        is_write,
    );
    let under_reader = || {
        waits_for_termination(
            h,
            "rigorous: wrote data read by an unterminated transaction",
            is_write,
            is_read,
        )
    };
    strict.or_else(under_reader).or_else(|| {
        let first = *h.instances().first()?;
        (!serialization_graph_instances(h).acyclic()).then_some(RigorViolation {
            rule: "serializable: instance-level serialization graph is cyclic",
            offender: first,
            victim: first,
            position: 0,
        })
    })
}

// ---------------------------------------------------------------------
// C(H), replay and distortion, by definition
// ---------------------------------------------------------------------

pub fn committed_projection(h: &History) -> History {
    let keep = |t: Txn| match t {
        Txn::Global(g) => h.is_globally_committed(g) && h.is_complete(g),
        Txn::Local(l) => h.local_txn_committed(l),
    };
    History::from_ops(h.ops().iter().copied().filter(|o| keep(o.txn)))
}

/// What [`crate::replay::Replay`] computes, field by field.
#[derive(Debug, PartialEq, Eq)]
pub struct Replayed {
    pub reads_from: BTreeMap<usize, Option<Instance>>,
    pub final_writers: BTreeMap<Item, Option<Instance>>,
    pub views: BTreeMap<Instance, Vec<(Item, Option<Instance>)>>,
}

pub fn replay(h: &History) -> Replayed {
    let ops = h.ops();
    let first = |inst: Instance, commit: bool| {
        ops.iter().position(|o| {
            o.instance() == Some(inst)
                && match o.kind {
                    OpKind::LocalCommit(_) => commit,
                    OpKind::LocalAbort(_) => !commit,
                    _ => false,
                }
        })
    };
    let mut out = Replayed {
        reads_from: BTreeMap::new(),
        final_writers: h.items().into_iter().map(|it| (it, None)).collect(),
        views: BTreeMap::new(),
    };
    for (p, op) in ops.iter().enumerate() {
        let inst = op.instance();
        match op.kind {
            OpKind::Read(item) => {
                // The latest write of the item not rolled back before the
                // read.
                let writer = (0..p).rev().find_map(|q| {
                    let w = ops[q].instance()?;
                    let rolled_back = first(w, false).is_some_and(|a| a > q && a < p);
                    (ops[q].kind == OpKind::Write(item) && !rolled_back).then_some(w)
                });
                out.reads_from.insert(p, writer);
                let reader = inst.expect("reads are site-bound");
                out.views.entry(reader).or_default().push((item, writer));
            }
            OpKind::Write(item) => {
                let w = inst.expect("writes are site-bound");
                if first(w, true).is_some() && first(w, false).is_none() {
                    out.final_writers.insert(item, Some(w));
                }
            }
            _ => {}
        }
    }
    out
}

pub fn detect_global_view_distortion(h: &History) -> Option<Distortion> {
    let views = replay(h).views;
    let by_instance = h.data_ops_by_instance();
    let is_complete = |g: GlobalTxnId, site: SiteId, inst: Instance| -> bool {
        let committed = h
            .ops()
            .iter()
            .any(|o| o.instance() == Some(inst) && matches!(o.kind, OpKind::LocalCommit(_)));
        let prepare_pos = h
            .ops()
            .iter()
            .position(|o| o.txn == Txn::Global(g) && o.kind == OpKind::Prepare(site));
        let last_op_pos = h
            .ops()
            .iter()
            .rposition(|o| o.instance() == Some(inst) && o.kind.is_data_op());
        committed || matches!((prepare_pos, last_op_pos), (Some(p), Some(l)) if l < p)
    };
    let sig = |ops: &[Op]| -> Vec<(bool, Item)> {
        ops.iter()
            .map(|o| {
                (
                    matches!(o.kind, OpKind::Write(_)),
                    o.item().expect("data op"),
                )
            })
            .collect()
    };
    for g in h.global_txns() {
        for &site in &h.sites_of(Txn::Global(g)) {
            let incs = h.incarnations_at(g, site);
            for a in 0..incs.len() {
                for b in (a + 1)..incs.len() {
                    let (j0, j1) = (incs[a], incs[b]);
                    let i0 = Instance::global(g.0, site, j0);
                    let i1 = Instance::global(g.0, site, j1);
                    let s0 = sig(by_instance.get(&i0).map_or(&[][..], Vec::as_slice));
                    let s1 = sig(by_instance.get(&i1).map_or(&[][..], Vec::as_slice));
                    let mismatch = if is_complete(g, site, i0) && is_complete(g, site, i1) {
                        s0 != s1
                    } else {
                        let n = s0.len().min(s1.len());
                        s0[..n] != s1[..n]
                    };
                    if mismatch {
                        return Some(Distortion::Decomposition {
                            txn: g,
                            site,
                            earlier: j0,
                            later: j1,
                        });
                    }
                    let v0 = views.get(&i0).map_or(&[][..], Vec::as_slice);
                    let v1 = views.get(&i1).map_or(&[][..], Vec::as_slice);
                    for (&(item, w0), &(_, w1)) in v0.iter().zip(v1) {
                        let (w0, w1) = (w0.map(|i| i.txn), w1.map(|i| i.txn));
                        let canon = |w: Option<Txn>| w.filter(|&t| t != Txn::Global(g));
                        if canon(w0) != canon(w1) {
                            return Some(Distortion::GlobalView {
                                txn: g,
                                site,
                                item,
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

// ---------------------------------------------------------------------
// The whole verdict, by composition
// ---------------------------------------------------------------------

/// What [`Verdict::of`] decides, composed from the definitions the way a
/// run's analysis reads: each site projection's rigorousness in site order,
/// then `C(H)`, the closure's acyclicity and the distortion scan on it, and
/// its transaction count.
pub fn verdict(h: &History, sites: u32) -> Verdict {
    let c = committed_projection(h);
    Verdict {
        rigor_violation: (0..sites).find_map(|s| rigor_violation(&h.site_projection(SiteId(s)))),
        cg_acyclic: commit_order_closure(&c).acyclic(),
        global_distortion: detect_global_view_distortion(&c),
        committed_txns: c.txns().len(),
    }
}

// ---------------------------------------------------------------------
// Differential and property tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::cg::commit_order_graph;
    use crate::replay::Replay;

    /// Random multi-site histories from a small lock-respecting scheduler
    /// that breaks its own rules with probability `fault` per step: global
    /// subtransactions replay a fixed decomposition incarnation after
    /// incarnation, sites commit them in whatever order the dice say (so
    /// per-site commit orders do get reversed), and the faults are accesses
    /// against a held lock and diverging replays. With probability
    /// `afterlife` a step that would idle instead lets an instance that is
    /// over act again — a duplicate terminal operation, or an access after
    /// its terminal operation — the malformed shapes the checkers must
    /// agree on too.
    struct Scheduler {
        rng: StdRng,
        fault: f64,
        afterlife: f64,
        sites: u32,
        keys: u64,
        globals: u32,
        ops: Vec<Op>,
        writer: BTreeMap<Item, Instance>,
        readers: BTreeMap<Item, BTreeSet<Instance>>,
        live: Vec<Instance>,
        done: Vec<Instance>,
        next_incarnation: BTreeMap<(Txn, SiteId), u32>,
        decomposition: BTreeMap<(Txn, SiteId), Vec<OpKind>>,
        progress: BTreeMap<Instance, usize>,
        next_local: u32,
    }

    impl Scheduler {
        fn pick<T: Copy>(&mut self, from: &[T]) -> Option<T> {
            (!from.is_empty()).then(|| from[self.rng.gen_range(0..from.len())])
        }

        fn site(&mut self) -> SiteId {
            SiteId(self.rng.gen_range(0..self.sites))
        }

        fn data_op(&mut self, site: SiteId) -> OpKind {
            let item = Item::new(site, self.rng.gen_range(0..self.keys));
            if self.rng.gen_bool(0.5) {
                OpKind::Read(item)
            } else {
                OpKind::Write(item)
            }
        }

        fn push(&mut self, inst: Instance, kind: OpKind) {
            self.ops.push(Op {
                txn: inst.txn,
                incarnation: inst.incarnation,
                kind,
            });
        }

        fn begin(&mut self) {
            let site = self.site();
            if self.rng.gen_bool(0.4) {
                self.next_local += 1;
                self.live.push(Instance::local(site, self.next_local));
                return;
            }
            let txn = Txn::global(self.rng.gen_range(1..=self.globals));
            let running = self.live.iter().any(|i| i.txn == txn && i.site == site);
            if running && !self.rng.gen_bool(self.fault) {
                return;
            }
            if !self.decomposition.contains_key(&(txn, site)) {
                let len = self.rng.gen_range(1..=3usize);
                let ops = (0..len).map(|_| self.data_op(site)).collect();
                self.decomposition.insert((txn, site), ops);
            }
            let next = self.next_incarnation.entry((txn, site)).or_default();
            let inst = Instance {
                txn,
                site,
                incarnation: *next,
            };
            *next += 1;
            self.live.push(inst);
        }

        fn access(&mut self, inst: Instance) {
            let scripted = self.decomposition.get(&(inst.txn, inst.site));
            let at = self.progress.get(&inst).copied().unwrap_or(0);
            let kind = match scripted.map(|ops| ops.get(at).copied()) {
                Some(Some(kind)) if !self.rng.gen_bool(self.fault) => kind,
                Some(None) if !self.rng.gen_bool(self.fault) => return,
                _ => self.data_op(inst.site),
            };
            if self.blocked(inst, kind) && !self.rng.gen_bool(self.fault) {
                return;
            }
            let item = kind.item().expect("data op");
            if matches!(kind, OpKind::Write(_)) {
                self.writer.insert(item, inst);
            } else {
                self.readers.entry(item).or_default().insert(inst);
            }
            self.progress.insert(inst, at + 1);
            self.push(inst, kind);
        }

        fn blocked(&self, inst: Instance, kind: OpKind) -> bool {
            let item = kind.item().expect("data op");
            let write_locked = self.writer.get(&item).is_some_and(|&w| w != inst);
            let read_locked = self
                .readers
                .get(&item)
                .is_some_and(|r| r.iter().any(|&i| i != inst));
            write_locked || (matches!(kind, OpKind::Write(_)) && read_locked)
        }

        fn terminate(&mut self, inst: Instance, commit: bool) {
            if inst.txn.is_global() && self.rng.gen_bool(0.7) {
                self.push(
                    Instance {
                        incarnation: 0,
                        ..inst
                    },
                    OpKind::Prepare(inst.site),
                );
            }
            self.push(
                inst,
                if commit {
                    OpKind::LocalCommit(inst.site)
                } else {
                    OpKind::LocalAbort(inst.site)
                },
            );
            self.writer.retain(|_, w| *w != inst);
            for readers in self.readers.values_mut() {
                readers.remove(&inst);
            }
            self.live.retain(|i| *i != inst);
            self.done.push(inst);
        }

        fn global_verdict(&mut self, commit: bool) {
            let k = self.rng.gen_range(1..=self.globals);
            self.ops.push(if commit {
                Op::global_commit(k)
            } else {
                Op::global_abort(k)
            });
        }

        fn step(&mut self) {
            let live = self.live.clone();
            let done = self.done.clone();
            match self.rng.gen_range(0..100) {
                0..=19 => self.begin(),
                20..=69 => {
                    if let Some(inst) = self.pick(&live) {
                        self.access(inst);
                    }
                }
                70..=89 => {
                    if let Some(inst) = self.pick(&live) {
                        let commit = self.rng.gen_bool(0.65);
                        self.terminate(inst, commit);
                    }
                }
                90..=94 => self.global_verdict(true),
                _ => {
                    // The malformed shapes, all on an instance that is over.
                    let Some(inst) = self.pick(&done) else { return };
                    if !self.rng.gen_bool(self.afterlife) {
                        return;
                    }
                    match self.rng.gen_range(0..4) {
                        0 => self.push(inst, OpKind::LocalCommit(inst.site)),
                        1 => self.push(inst, OpKind::LocalAbort(inst.site)),
                        _ => {
                            // It takes no lock: nothing would ever release it.
                            let kind = self.data_op(inst.site);
                            if !self.blocked(inst, kind) {
                                self.push(inst, kind);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A history of about `steps` scheduler steps; with `settle`, everything
    /// still running then commits and every global gets its `C_k`, so that
    /// `C(H)` is not empty.
    fn scheduled(seed: u64, steps: usize, fault: f64, afterlife: f64, settle: bool) -> History {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Scheduler {
            fault,
            afterlife,
            sites: rng.gen_range(3..=4),
            keys: rng.gen_range(1..=3),
            globals: rng.gen_range(1..=4),
            rng,
            ops: Vec::new(),
            writer: BTreeMap::new(),
            readers: BTreeMap::new(),
            live: Vec::new(),
            done: Vec::new(),
            next_incarnation: BTreeMap::new(),
            decomposition: BTreeMap::new(),
            progress: BTreeMap::new(),
            next_local: 0,
        };
        for _ in 0..steps {
            s.step();
        }
        if settle {
            for inst in s.live.clone() {
                s.terminate(inst, true);
            }
            for k in 1..=s.globals {
                s.ops.push(Op::global_commit(k));
            }
        }
        History::from_ops(s.ops)
    }

    /// Uniform noise over a tiny vocabulary: nothing about it is well
    /// formed, which is the point.
    fn soup(seed: u64, len: usize) -> History {
        let mut rng = StdRng::seed_from_u64(seed);
        History::from_ops((0..len).map(|_| {
            let site = SiteId(rng.gen_range(0..3));
            let item = Item::new(site, rng.gen_range(0..2));
            let (k, j) = (rng.gen_range(1..=3), rng.gen_range(0..2));
            match rng.gen_range(0..9) {
                0 => Op::read_g(k, j, item),
                1 => Op::write_g(k, j, item),
                2 => Op::read_l(k, item),
                3 => Op::write_l(k, item),
                4 => Op::prepare(k, site),
                5 => Op::local_commit_g(k, j, site),
                6 => Op::local_abort_g(k, j, site),
                7 => Op::local_commit_l(k, site),
                _ => Op::global_commit(k),
            }
        }))
    }

    /// The history under test for one proptest case: the soup, or the
    /// scheduler at one of four (fault, afterlife) settings, settled or not.
    const FLAVOURS: u32 = 9;
    fn history(seed: u64, steps: usize, flavour: u32) -> History {
        let settle = flavour % 2 == 1;
        match flavour {
            0 => soup(seed, steps / 2),
            1 | 2 => scheduled(seed, steps, 0.0, 0.0, settle),
            3 | 4 => scheduled(seed, steps, 0.02, 0.1, settle),
            5 | 6 => scheduled(seed, steps, 0.1, 0.4, settle),
            _ => scheduled(seed, steps, 0.0, 0.9, settle),
        }
    }

    /// The history itself, its site projections and its committed
    /// projection — every shape the drivers hand to a checker.
    fn with_projections(h: &History) -> Vec<History> {
        let sites: BTreeSet<SiteId> = h.ops().iter().filter_map(Op::site).collect();
        let mut all = vec![h.clone(), h.committed_projection()];
        all.extend(sites.into_iter().map(|s| h.site_projection(s)));
        all
    }

    fn cg_arcs(h: &History) -> Arcs<Txn> {
        let g = commit_order_graph(h).graph;
        Arcs::of(g.nodes().copied(), g.edges())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn rigor_violation_matches_the_definition(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            for h in with_projections(&history(seed, steps, flavour)) {
                prop_assert_eq!(
                    crate::rigor::rigor_violation(&h), rigor_violation(&h), "history: {}", h
                );
            }
        }

        #[test]
        fn committed_projection_matches_the_definition(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            let h = history(seed, steps, flavour);
            prop_assert_eq!(h.committed_projection(), committed_projection(&h), "history: {}", h);
        }

        #[test]
        fn replay_matches_the_definition(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            for h in with_projections(&history(seed, steps, flavour)) {
                let new = Replay::of(&h);
                let old = replay(&h);
                let reads_from: BTreeMap<usize, Option<Instance>> = (0..h.len())
                    .filter_map(|p| Some((p, new.reads_from_at(p)?)))
                    .collect();
                prop_assert_eq!(&reads_from, &old.reads_from, "history: {}", h);
                prop_assert_eq!(new.views(), &old.views, "history: {}", h);
                prop_assert_eq!(new.final_writers(), &old.final_writers, "history: {}", h);
            }
        }

        #[test]
        fn global_view_distortion_matches_the_definition(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            for h in with_projections(&history(seed, steps, flavour)) {
                prop_assert_eq!(
                    crate::distortion::detect_global_view_distortion(&h),
                    detect_global_view_distortion(&h),
                    "history: {}", h
                );
            }
        }

        #[test]
        fn commit_chains_decide_and_sort_like_the_closure(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            for h in with_projections(&history(seed, steps, flavour)) {
                let closure = commit_order_closure(&h);
                let report = commit_order_graph(&h);
                prop_assert_eq!(report.acyclic, closure.acyclic(), "history: {}", h);
                prop_assert_eq!(&report.topo_order, &closure.topo_sort(), "history: {}", h);
                prop_assert_eq!(report.cycle.is_none(), report.acyclic);
                if let Some(cycle) = &report.cycle {
                    // The witness is free, but it must be a cycle of §5.1 arcs.
                    for (i, from) in cycle.iter().enumerate() {
                        let to = cycle[(i + 1) % cycle.len()];
                        prop_assert!(closure.arcs.contains(&(*from, to)), "history: {}", h);
                    }
                }
            }
        }

        #[test]
        fn commit_chains_reach_what_the_closure_reaches(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            for h in with_projections(&history(seed, steps, flavour)) {
                let (chains, closure) = (cg_arcs(&h), commit_order_closure(&h));
                prop_assert_eq!(&chains.nodes, &closure.nodes);
                prop_assert!(chains.arcs.is_subset(&closure.arcs));
                prop_assert_eq!(chains.reachability(), closure.reachability(), "history: {}", h);
            }
        }

        #[test]
        fn the_verdict_matches_the_composed_definitions(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS, sites in 0u32..6
        ) {
            let h = history(seed, steps, flavour);
            prop_assert_eq!(Verdict::of(&h, sites), verdict(&h, sites), "history: {}", h);
        }

        #[test]
        fn conflict_chains_reach_what_all_pairs_reach(
            seed in any::<u64>(), steps in 10usize..90, flavour in 0..FLAVOURS
        ) {
            for h in with_projections(&history(seed, steps, flavour)) {
                let g = crate::conflict::serialization_graph_instances(&h);
                let chains = Arcs::of(g.nodes().copied(), g.edges());
                let all_pairs = serialization_graph_instances(&h);
                prop_assert_eq!(&chains.nodes, &all_pairs.nodes);
                prop_assert!(chains.arcs.is_subset(&all_pairs.arcs));
                prop_assert_eq!(chains.reachability(), all_pairs.reachability(), "history: {}", h);
                prop_assert_eq!(g.is_acyclic(), all_pairs.acyclic());
            }
        }
    }

    /// Malformed shapes the random grid may only graze.
    const MALFORMED: [&str; 9] = [
        // A write after its instance's terminal op is never terminated,
        // not even by a second terminal op.
        "W_10[X^a] C^a_10 W_10[X^a] C^a_10 R_20[X^a] C^a_20",
        // The same for a read: T2 writes under a reader that is over.
        "C^a_10 R_10[X^a] C^a_10 W_20[X^a]",
        // An access after the terminal op closes a conflict cycle that
        // neither lock rule sees.
        "W_10[X^a] C^a_10 W_20[X^a] C^a_20 R_10[X^a]",
        // Only the first abort rolls back: the second write stays.
        "W_10[X^a] A^a_10 W_10[X^a] A^a_10 R_20[X^a] C^a_20",
        // Aborted and committed: never a final writer, but C(H) keeps it.
        "W_10[X^a] A^a_10 C^a_10 C_1 W_4[X^a] C^a_4",
        // Duplicate local commits: the first one places T1 in the chain.
        "C^a_10 C^a_20 C^a_10 C^b_20 C^b_10 C^b_20 C_1 C_2",
        // Three sites, orders reversed pairwise.
        "C^a_10 C^a_20 C^b_20 C^b_30 C^c_30 C^c_10 C_1 C_2 C_3",
        // Committed before its data operations; prepared in between.
        "C^a_10 R_10[X^a] P^a_1 W_10[Y^a] A^a_10 R_11[X^a] C^a_11 C_1",
        // A writer aborted between the two incarnations' reads.
        "W_20[X^a] R_10[X^a] A^a_10 A^a_20 R_11[X^a] C^a_11 C_1",
    ];

    /// The malformed shapes one at a time: every checker against its
    /// definition on each.
    #[test]
    fn malformed_shapes_match_the_definition() {
        let shapes = MALFORMED;
        for shape in shapes {
            for h in with_projections(&shape.parse().expect("notation")) {
                assert_eq!(
                    crate::rigor::rigor_violation(&h),
                    rigor_violation(&h),
                    "{h}"
                );
                assert_eq!(
                    crate::distortion::detect_global_view_distortion(&h),
                    detect_global_view_distortion(&h),
                    "{h}"
                );
                let (new, old) = (Replay::of(&h), replay(&h));
                assert_eq!(new.views(), &old.views, "{h}");
                assert_eq!(new.final_writers(), &old.final_writers, "{h}");
                let (report, closure) = (commit_order_graph(&h), commit_order_closure(&h));
                assert_eq!(report.acyclic, closure.acyclic(), "{h}");
                assert_eq!(report.topo_order, closure.topo_sort(), "{h}");
            }
            let h: History = shape.parse().expect("notation");
            assert_eq!(h.committed_projection(), committed_projection(&h), "{h}");
        }
        let rule = |shape: &str| {
            let h: History = shape.parse().expect("notation");
            crate::rigor::rigor_violation(&h).map(|v| (v.rule.split(':').next(), v.position))
        };
        assert_eq!(rule(shapes[0]), Some((Some("strict"), 4)));
        assert_eq!(rule(shapes[1]), Some((Some("rigorous"), 3)));
        assert_eq!(rule(shapes[2]), Some((Some("serializable"), 0)));
    }

    /// The whole verdict on each malformed shape, and on shapes where sites
    /// disagree about which rule breaks first, over every site count from
    /// none to one past the last site.
    #[test]
    fn malformed_shapes_verdict_matches_the_composed_definitions() {
        let sites_disagree = [
            // Strictness breaks at b, later the rigorous rule at a.
            "W_10[X^b] R_20[X^b] R_30[X^a] W_40[X^a]",
            // Strictness breaks at b; a's serialization graph is cyclic.
            "W_30[X^b] R_40[X^b] W_10[X^a] C^a_10 W_20[X^a] C^a_20 R_10[X^a]",
            // Both graphs cyclic, b's cycle closed first.
            "W_10[X^b] C^b_10 W_20[X^b] C^b_20 R_10[X^b] W_30[X^a] C^a_30 W_40[X^a] C^a_40 R_30[X^a]",
        ];
        for shape in MALFORMED.into_iter().chain(sites_disagree) {
            let h: History = shape.parse().expect("notation");
            for sites in 0..=4 {
                assert_eq!(
                    Verdict::of(&h, sites),
                    verdict(&h, sites),
                    "{h} at {sites} sites"
                );
            }
        }
    }

    /// The differential suite is only as good as the verdicts its inputs
    /// provoke: over the same case grid, every rule, every distortion kind,
    /// both `CG` outcomes and a non-empty `C(H)` must come up.
    #[test]
    fn generator_reaches_every_verdict() {
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for flavour in 0..FLAVOURS {
            for seed in 0..60u64 {
                let h = history(seed, 30 + (seed as usize % 50), flavour);
                if !h.committed_projection().is_empty() {
                    seen.insert("C(H) non-empty");
                }
                for h in with_projections(&h) {
                    seen.insert(match rigor_violation(&h) {
                        Some(v) => v.rule.split(':').next().expect("rule name"),
                        None => "no violation",
                    });
                    seen.insert(match detect_global_view_distortion(&h) {
                        Some(Distortion::Decomposition { .. }) => "decomposition",
                        Some(Distortion::GlobalView { .. }) => "global view",
                        _ => "undistorted",
                    });
                    let cg = commit_order_closure(&h);
                    if cg.nodes.len() > 2 {
                        seen.insert(if cg.acyclic() {
                            "CG acyclic"
                        } else {
                            "CG cyclic"
                        });
                    }
                }
            }
        }
        let want = [
            "C(H) non-empty",
            "CG acyclic",
            "CG cyclic",
            "decomposition",
            "global view",
            "no violation",
            "rigorous",
            "serializable",
            "strict",
            "undistorted",
        ];
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), want);
    }
}
