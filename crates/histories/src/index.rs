//! The one history index every checker stage runs on, and the verdict
//! they compute on it.
//!
//! [`Index::new`] reads a history once and interns what the stages key
//! their state by — transactions, instances, items, `(transaction, site)`
//! subtransactions and sites — into dense `u32` ids, so that a stage's
//! per-item or per-instance state is a `Vec` slot instead of a map entry.
//! Ids are handed out in first-appearance order; for transactions that is
//! the order of [`History::txns`]. Items and instances are site-bound, so a
//! stage that works per site finds the site in the id. Beside the
//! per-operation columns the pass records each transaction's *fate* —
//! global commit, sites touched, sites locally committed at — which decides
//! `C(H)` membership without a second pass, and each instance's first local
//! commit and first local abort, which is all the lock-discipline and
//! replay sweeps need to know about termination.
//!
//! Every public checker indexes its argument and runs its stage on the
//! index; [`Verdict::of`] indexes once and runs them all, over `C(H)` by
//! membership rather than over a copy of it.

use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::distortion::Distortion;
use crate::history::History;
use crate::ids::{Instance, Item, SiteId, Txn};
use crate::op::{Op, OpKind};
use crate::rigor::RigorViolation;

/// "No such id / position" in the index's `u32` columns.
pub(crate) const NONE: u32 = u32::MAX;

/// rustc's Fx hash: the interned keys are a few small integers, for which
/// one multiply per word is enough. A multiply mixes upwards only, and the
/// table picks a bucket by the low bits, so `finish` rotates the mixed high
/// bits down — else keys alike in their low bits (item keys that are all
/// multiples of 1 024, say) would share a bucket. The keys are a history's
/// own identifiers, which a cluster's nodes report over the wire: crafted
/// collisions could cost a slow check, never a wrong verdict.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

// Ids follow the history's order; the maps are never iterated.
// mdbs-check: allow(determinism-hash-order, "keyed lookups only")
type Ids<K> = std::collections::HashMap<K, u32, BuildHasherDefault<FxHasher>>;

/// The id of `key`, handing out `next` if it has none yet; and whether it
/// was new.
fn intern<K: Hash + Eq>(ids: &mut Ids<K>, key: K, next: usize) -> (usize, bool) {
    let next = next as u32;
    let id = *ids.entry(key).or_insert(next);
    (id as usize, id == next)
}

/// Which transactions' operations a stage reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// The whole history.
    All,
    /// The committed projection `C(H)` only.
    Committed,
}

/// One local-level instance `T^s_kj`.
pub(crate) struct Inst {
    pub(crate) id: Instance,
    pub(crate) subtxn: u32,
    /// Dense site id (an index into [`Index::sites`]).
    pub(crate) site: u32,
    /// Whether it has an elementary read or write.
    pub(crate) has_data: bool,
    /// Position of its first local commit, or [`NONE`].
    pub(crate) first_commit: u32,
    /// Position of its first local abort, or [`NONE`].
    pub(crate) first_abort: u32,
}

impl Inst {
    /// Position of its first terminal operation, or [`NONE`].
    pub(crate) fn terminated_at(&self) -> u32 {
        self.first_commit.min(self.first_abort)
    }
}

/// One transaction's operations at one site: a global subtransaction
/// `T^s_k` with all its incarnations, or a local transaction.
pub(crate) struct Subtxn {
    pub(crate) txn: u32,
    /// Dense site id.
    pub(crate) site: u32,
    /// Whether some incarnation locally committed here.
    pub(crate) committed: bool,
    /// Position of its first prepare `P^s_k`, or [`NONE`].
    pub(crate) first_prepare: u32,
    /// How many of its incarnations have data operations.
    pub(crate) data_incarnations: u32,
}

/// The history, interned. See the module documentation.
pub(crate) struct Index<'h> {
    pub(crate) ops: &'h [Op],
    /// Per operation: its transaction.
    pub(crate) txn_of: Vec<u32>,
    /// Per operation: its instance, [`NONE`] for a global commit or abort.
    pub(crate) inst_of: Vec<u32>,
    /// Per operation: its item, [`NONE`] unless a read or write.
    pub(crate) item_of: Vec<u32>,
    pub(crate) txns: Vec<Txn>,
    /// Per transaction: whether `C(H)` keeps it.
    pub(crate) kept: Vec<bool>,
    pub(crate) insts: Vec<Inst>,
    pub(crate) subtxns: Vec<Subtxn>,
    pub(crate) items: Vec<Item>,
    /// Per dense site id: the site.
    pub(crate) sites: Vec<SiteId>,
}

impl<'h> Index<'h> {
    /// Index a history in one pass.
    pub(crate) fn new(h: &'h History) -> Index<'h> {
        #[derive(Default)]
        struct Fate {
            globally_committed: bool,
            sites: u32,
            committed_at: u32,
        }
        let ops = h.ops();
        let mut ix = Index {
            ops,
            txn_of: Vec::with_capacity(ops.len()),
            inst_of: Vec::with_capacity(ops.len()),
            item_of: Vec::with_capacity(ops.len()),
            txns: Vec::new(),
            kept: Vec::new(),
            insts: Vec::new(),
            subtxns: Vec::new(),
            items: Vec::new(),
            sites: Vec::new(),
        };
        let mut txn_ids: Ids<Txn> = Ids::default();
        let mut inst_ids: Ids<(u32, SiteId, u32)> = Ids::default();
        let mut subtxn_ids: Ids<(u32, SiteId)> = Ids::default();
        let mut item_ids: Ids<Item> = Ids::default();
        let mut site_ids: Ids<SiteId> = Ids::default();
        let mut fates: Vec<Fate> = Vec::new();

        for (p, op) in (0u32..).zip(ops) {
            let (t, new) = intern(&mut txn_ids, op.txn, ix.txns.len());
            if new {
                ix.txns.push(op.txn);
                fates.push(Fate::default());
            }
            ix.txn_of.push(t as u32);
            let Some(site) = op.site() else {
                fates[t].globally_committed |= op.kind == OpKind::GlobalCommit;
                ix.inst_of.push(NONE);
                ix.item_of.push(NONE);
                continue;
            };
            let key = (t as u32, site, op.incarnation);
            let (i, new) = intern(&mut inst_ids, key, ix.insts.len());
            if new {
                let (s, new) = intern(&mut subtxn_ids, (t as u32, site), ix.subtxns.len());
                if new {
                    let (d, new) = intern(&mut site_ids, site, ix.sites.len());
                    if new {
                        ix.sites.push(site);
                    }
                    fates[t].sites += 1;
                    ix.subtxns.push(Subtxn {
                        txn: t as u32,
                        site: d as u32,
                        committed: false,
                        first_prepare: NONE,
                        data_incarnations: 0,
                    });
                }
                ix.insts.push(Inst {
                    id: Instance {
                        txn: op.txn,
                        site,
                        incarnation: op.incarnation,
                    },
                    subtxn: s as u32,
                    site: ix.subtxns[s].site,
                    has_data: false,
                    first_commit: NONE,
                    first_abort: NONE,
                });
            }
            ix.inst_of.push(i as u32);
            let inst = &mut ix.insts[i];
            let sub = &mut ix.subtxns[inst.subtxn as usize];
            let mut item = NONE;
            match op.kind {
                OpKind::Read(it) | OpKind::Write(it) => {
                    let (id, new) = intern(&mut item_ids, it, ix.items.len());
                    if new {
                        ix.items.push(it);
                    }
                    item = id as u32;
                    if !inst.has_data {
                        inst.has_data = true;
                        sub.data_incarnations += 1;
                    }
                }
                OpKind::Prepare(_) => sub.first_prepare = sub.first_prepare.min(p),
                OpKind::LocalCommit(_) => {
                    inst.first_commit = inst.first_commit.min(p);
                    if !sub.committed {
                        sub.committed = true;
                        fates[t].committed_at += 1;
                    }
                }
                OpKind::LocalAbort(_) => inst.first_abort = inst.first_abort.min(p),
                OpKind::GlobalCommit | OpKind::GlobalAbort => {}
            }
            ix.item_of.push(item);
        }

        // `committed_at` counts a subset of `sites`, so equality is "locally
        // committed at every site it touched".
        ix.kept = (0..)
            .zip(&ix.txns)
            .zip(&fates)
            .map(|((t, txn), fate)| match txn {
                Txn::Global(_) => {
                    fate.globally_committed && fate.sites > 0 && fate.committed_at == fate.sites
                }
                Txn::Local(l) => subtxn_ids
                    .get(&(t, l.site))
                    .is_some_and(|&s| ix.subtxns[s as usize].committed),
            })
            .collect();
        ix
    }

    /// Whether a stage over `scope` reads transaction `t`'s operations.
    pub(crate) fn includes(&self, scope: Scope, t: u32) -> bool {
        scope == Scope::All || self.kept[t as usize]
    }

    /// The instance performing operation `p`, which must be site-bound.
    pub(crate) fn inst(&self, p: usize) -> &Inst {
        &self.insts[self.inst_of[p] as usize]
    }

    /// The `SiteId` of a dense site id.
    pub(crate) fn site_id(&self, d: u32) -> SiteId {
        self.sites[d as usize]
    }
}

/// The paper's sufficient condition for view serializability of `C(H)`,
/// checked on one index of the history: what `CorrectnessReport::analyze`
/// reports, short of the exact decider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The first site, in `SiteId` order below `sites`, whose projection is
    /// not rigorous, with the violation [`crate::rigor::rigor_violation`]
    /// reports on that projection.
    pub rigor_violation: Option<RigorViolation>,
    /// Whether `CG(C(H))` is acyclic.
    pub cg_acyclic: bool,
    /// The first global view distortion in `C(H)`, as
    /// [`crate::distortion::detect_global_view_distortion`] finds it there.
    pub global_distortion: Option<Distortion>,
    /// Number of transactions in `C(H)`.
    pub committed_txns: usize,
}

impl Verdict {
    /// Index `h` once and run every stage on it: rigorousness of the site
    /// projections of sites `0..sites`, then — over `C(H)` by membership —
    /// acyclicity of `CG(C(H))` and the global-view-distortion scan.
    pub fn of(h: &History, sites: u32) -> Verdict {
        let ix = Index::new(h);
        Verdict {
            rigor_violation: crate::rigor::first_site_violation(&ix, sites),
            cg_acyclic: crate::cg::acyclic(&ix, Scope::Committed),
            global_distortion: crate::distortion::global_view_distortion(&ix, Scope::Committed),
            committed_txns: ix.kept.iter().filter(|&&k| k).count(),
        }
    }
}
