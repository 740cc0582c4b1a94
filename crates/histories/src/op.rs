//! Operations — the alphabet of histories.
//!
//! A transaction history `H(T_k)` "contains all R and W operations at the
//! leaf level, all A and C operations, and all P operations, that occur in
//! the tree `T_k` on higher levels" (§3). The leaf-level operations are
//! produced by the LTM's decomposition function; `P`, local `C`/`A` occur at
//! the 2PCA level, global `C`/`A` at the coordinator (root) level.

use std::fmt;

use crate::ids::{Instance, Item, SiteId, Txn};

/// The kind of an operation, with its site/item payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Elementary read of an item (EI level).
    Read(Item),
    /// Elementary write of an item (EI level).
    Write(Item),
    /// `P^s_k` — the 2PCA at site `s` recorded the decision to send READY.
    Prepare(SiteId),
    /// `C^s_kj` — local commit of incarnation `j` at site `s`.
    LocalCommit(SiteId),
    /// `A^s_kj` — local abort (unilateral or certification-induced).
    LocalAbort(SiteId),
    /// `C_k` — the coordinator durably decided to commit the transaction.
    GlobalCommit,
    /// `A_k` — the coordinator durably decided to abort the transaction.
    GlobalAbort,
}

impl OpKind {
    /// The site at which this operation takes place, if site-bound.
    /// Global commit/abort happen at the coordinator and have no site here.
    pub fn site(&self) -> Option<SiteId> {
        match *self {
            OpKind::Read(it) | OpKind::Write(it) => Some(it.site),
            OpKind::Prepare(s) | OpKind::LocalCommit(s) | OpKind::LocalAbort(s) => Some(s),
            OpKind::GlobalCommit | OpKind::GlobalAbort => None,
        }
    }

    /// The item accessed, for elementary reads and writes.
    pub fn item(&self) -> Option<Item> {
        match *self {
            OpKind::Read(it) | OpKind::Write(it) => Some(it),
            _ => None,
        }
    }

    /// Whether this is an elementary read or write.
    pub fn is_data_op(&self) -> bool {
        matches!(self, OpKind::Read(_) | OpKind::Write(_))
    }
}

/// One operation of one transaction in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// The transaction the operation belongs to (global level).
    pub txn: Txn,
    /// The resubmission index `j` of the local subtransaction performing the
    /// operation. 0 for local transactions, original submissions, and for
    /// coordinator-level operations (which belong to no particular
    /// incarnation; by convention we store 0 there).
    pub incarnation: u32,
    /// What the operation does.
    pub kind: OpKind,
}

impl Op {
    /// `R_{k,j}[item]` of global transaction `k`, incarnation `j`.
    pub const fn read_g(k: u32, j: u32, item: Item) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: j,
            kind: OpKind::Read(item),
        }
    }

    /// `W_{k,j}[item]` of global transaction `k`, incarnation `j`.
    pub const fn write_g(k: u32, j: u32, item: Item) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: j,
            kind: OpKind::Write(item),
        }
    }

    /// `R_n[item]` of local transaction `n` at the item's site.
    pub const fn read_l(n: u32, item: Item) -> Op {
        Op {
            txn: Txn::local(item.site, n),
            incarnation: 0,
            kind: OpKind::Read(item),
        }
    }

    /// `W_n[item]` of local transaction `n` at the item's site.
    pub const fn write_l(n: u32, item: Item) -> Op {
        Op {
            txn: Txn::local(item.site, n),
            incarnation: 0,
            kind: OpKind::Write(item),
        }
    }

    /// `P^s_k`.
    pub const fn prepare(k: u32, site: SiteId) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: 0,
            kind: OpKind::Prepare(site),
        }
    }

    /// `C^s_{k,j}` — local commit of a global subtransaction.
    pub const fn local_commit_g(k: u32, j: u32, site: SiteId) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: j,
            kind: OpKind::LocalCommit(site),
        }
    }

    /// `A^s_{k,j}` — local abort of a global subtransaction.
    pub const fn local_abort_g(k: u32, j: u32, site: SiteId) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: j,
            kind: OpKind::LocalAbort(site),
        }
    }

    /// `C_n` of a local transaction (its commit at its site).
    pub const fn local_commit_l(n: u32, site: SiteId) -> Op {
        Op {
            txn: Txn::local(site, n),
            incarnation: 0,
            kind: OpKind::LocalCommit(site),
        }
    }

    /// `A_n` of a local transaction.
    pub const fn local_abort_l(n: u32, site: SiteId) -> Op {
        Op {
            txn: Txn::local(site, n),
            incarnation: 0,
            kind: OpKind::LocalAbort(site),
        }
    }

    /// `C_k` — global commit.
    pub const fn global_commit(k: u32) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: 0,
            kind: OpKind::GlobalCommit,
        }
    }

    /// `A_k` — global abort.
    pub const fn global_abort(k: u32) -> Op {
        Op {
            txn: Txn::global(k),
            incarnation: 0,
            kind: OpKind::GlobalAbort,
        }
    }

    /// The instance (local-level transaction) performing this operation, for
    /// site-bound operations; `None` for coordinator-level operations.
    pub fn instance(&self) -> Option<Instance> {
        self.kind.site().map(|site| Instance {
            txn: self.txn,
            site,
            incarnation: self.incarnation,
        })
    }

    /// The site of the operation, if site-bound.
    pub fn site(&self) -> Option<SiteId> {
        self.kind.site()
    }

    /// The item accessed, for data operations.
    pub fn item(&self) -> Option<Item> {
        self.kind.item()
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sub = |f: &mut fmt::Formatter<'_>, txn: &Txn, j: u32| -> fmt::Result {
            match txn {
                Txn::Global(g) => write!(f, "{}{}", g.0, j),
                Txn::Local(l) => write!(f, "{}", l.n),
            }
        };
        match self.kind {
            OpKind::Read(it) => {
                write!(f, "R_")?;
                sub(f, &self.txn, self.incarnation)?;
                write!(f, "[{it}]")
            }
            OpKind::Write(it) => {
                write!(f, "W_")?;
                sub(f, &self.txn, self.incarnation)?;
                write!(f, "[{it}]")
            }
            OpKind::Prepare(s) => match self.txn {
                Txn::Global(g) => write!(f, "P^{s}_{}", g.0),
                Txn::Local(_) => write!(f, "P^{s}_?"),
            },
            OpKind::LocalCommit(s) => {
                write!(f, "C^{s}_")?;
                sub(f, &self.txn, self.incarnation)
            }
            OpKind::LocalAbort(s) => {
                write!(f, "A^{s}_")?;
                sub(f, &self.txn, self.incarnation)
            }
            OpKind::GlobalCommit => match self.txn {
                Txn::Global(g) => write!(f, "C_{}", g.0),
                Txn::Local(l) => write!(f, "C_{}", l.n),
            },
            OpKind::GlobalAbort => match self.txn {
                Txn::Global(g) => write!(f, "A_{}", g.0),
                Txn::Local(l) => write!(f, "A_{}", l.n),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SiteId = SiteId(0);
    const XA: Item = Item::new(A, 0);

    #[test]
    fn constructors_carry_indices() {
        let r = Op::read_g(1, 0, XA);
        assert_eq!(r.txn, Txn::global(1));
        assert_eq!(r.incarnation, 0);
        assert_eq!(r.item(), Some(XA));
        assert_eq!(r.site(), Some(A));

        let c = Op::local_commit_g(1, 1, A);
        assert_eq!(c.incarnation, 1);
        assert_eq!(c.site(), Some(A));
        assert_eq!(c.item(), None);
    }

    #[test]
    fn global_ops_have_no_site() {
        assert_eq!(Op::global_commit(2).site(), None);
        assert_eq!(Op::global_abort(2).site(), None);
        assert_eq!(Op::global_commit(2).instance(), None);
    }

    #[test]
    fn instance_of_data_op() {
        let w = Op::write_g(3, 2, XA);
        let i = w.instance().unwrap();
        assert_eq!(i, Instance::global(3, A, 2));
    }

    #[test]
    fn local_txn_ops() {
        let r = Op::read_l(4, XA);
        assert_eq!(r.txn, Txn::local(A, 4));
        let c = Op::local_commit_l(4, A);
        assert_eq!(c.instance(), Some(Instance::local(A, 4)));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Op::read_g(1, 0, XA).to_string(), "R_10[X^a]");
        assert_eq!(Op::write_g(2, 0, Item::new(A, 1)).to_string(), "W_20[Y^a]");
        assert_eq!(Op::prepare(1, A).to_string(), "P^a_1");
        assert_eq!(Op::local_commit_g(1, 1, A).to_string(), "C^a_11");
        assert_eq!(Op::local_abort_g(1, 0, A).to_string(), "A^a_10");
        assert_eq!(Op::global_commit(1).to_string(), "C_1");
        assert_eq!(Op::read_l(4, Item::new(A, 3)).to_string(), "R_4[Q^a]");
    }

    #[test]
    fn data_op_predicate() {
        assert!(OpKind::Read(XA).is_data_op());
        assert!(OpKind::Write(XA).is_data_op());
        assert!(!OpKind::Prepare(A).is_data_op());
        assert!(!OpKind::GlobalCommit.is_data_op());
    }
}
