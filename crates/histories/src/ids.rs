//! Identifiers for sites, transactions, transaction instances and data items.
//!
//! The paper's model distinguishes (§3):
//!
//! * **global transactions** `T_k`, spanning several sites through *global
//!   subtransactions* `T^s_k`, each of which executes as a sequence of
//!   *local subtransactions* `T^s_k0, T^s_k1, …` — the original submission
//!   and its resubmissions after unilateral aborts. "The original and each
//!   resubmitted local subtransaction appears as an independent transaction
//!   to the LTM … From the global serializability point of view, however,
//!   they belong to the same transaction."
//! * **local transactions** `L_o`, submitted directly to one LTM and unknown
//!   to the DTM.
//!
//! We therefore work at two granularities: [`Txn`] is the *global-level*
//! unit (a `T_k` or an `L_o`); [`Instance`] is the *local-level* unit — one
//! `(transaction, site, incarnation)` triple, the thing an LTM sees as a
//! transaction. Incarnation `j` is the paper's resubmission index; local
//! transactions always have incarnation 0.

use std::fmt;

/// A participating site (one LDBS). Site 0 is the paper's site *a*, 1 is *b*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Single-letter display used for the paper's sites (a, b, c, …).
    fn letter(self) -> Option<char> {
        if self.0 < 26 {
            Some((b'a' + self.0 as u8) as char)
        } else {
            None
        }
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.letter() {
            Some(c) => write!(f, "{c}"),
            None => write!(f, "s{}", self.0),
        }
    }
}

/// A global transaction `T_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalTxnId(pub u32);

impl fmt::Display for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A local transaction `L_o`, bound to the single site it runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalTxnId {
    /// The site the transaction runs at.
    pub site: SiteId,
    /// A site-unique number.
    pub n: u32,
}

impl fmt::Display for LocalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}@{}", self.n, self.site)
    }
}

/// A transaction at the global level of abstraction: `T_k` or `L_o`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Txn {
    /// A global (multi-site) transaction managed by the DTM.
    Global(GlobalTxnId),
    /// A local transaction, invisible to the DTM.
    Local(LocalTxnId),
}

impl Txn {
    /// Shorthand constructor for a global transaction.
    pub const fn global(k: u32) -> Txn {
        Txn::Global(GlobalTxnId(k))
    }

    /// Shorthand constructor for a local transaction.
    pub const fn local(site: SiteId, n: u32) -> Txn {
        Txn::Local(LocalTxnId { site, n })
    }

    /// Whether this is a global transaction.
    pub fn is_global(&self) -> bool {
        matches!(self, Txn::Global(_))
    }

    /// Whether this is a local transaction.
    pub fn is_local(&self) -> bool {
        matches!(self, Txn::Local(_))
    }
}

impl fmt::Display for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Txn::Global(g) => g.fmt(f),
            Txn::Local(l) => l.fmt(f),
        }
    }
}

/// A local-level transaction instance: what one LTM perceives as a
/// transaction. `incarnation` is the resubmission index `j` of `T^s_kj`;
/// always 0 for local transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instance {
    /// The owning transaction at the global level.
    pub txn: Txn,
    /// The site this instance runs at.
    pub site: SiteId,
    /// The resubmission index (0 = original submission).
    pub incarnation: u32,
}

impl Instance {
    /// Instance of a global subtransaction `T^site_{k, incarnation}`.
    pub const fn global(k: u32, site: SiteId, incarnation: u32) -> Instance {
        Instance {
            txn: Txn::global(k),
            site,
            incarnation,
        }
    }

    /// Instance of a local transaction `L_n` at `site`.
    pub const fn local(site: SiteId, n: u32) -> Instance {
        Instance {
            txn: Txn::local(site, n),
            site,
            incarnation: 0,
        }
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.txn {
            Txn::Global(g) => write!(f, "{}^{}_{}", g, self.site, self.incarnation),
            Txn::Local(l) => l.fmt(f),
        }
    }
}

/// A concrete data item `X^s`: a single table row at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item {
    /// The site that stores the item.
    pub site: SiteId,
    /// The site-local key of the row.
    pub key: u64,
}

impl Item {
    /// Construct an item.
    pub const fn new(site: SiteId, key: u64) -> Item {
        Item { site, key }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keys 0..5 print as the item names the paper uses: X, Y, Z, Q, U.
        match self.key {
            0 => write!(f, "X^{}", self.site),
            1 => write!(f, "Y^{}", self.site),
            2 => write!(f, "Z^{}", self.site),
            3 => write!(f, "Q^{}", self.site),
            4 => write!(f, "U^{}", self.site),
            k => write!(f, "x{k}^{}", self.site),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display() {
        assert_eq!(SiteId(0).to_string(), "a");
        assert_eq!(SiteId(1).to_string(), "b");
        assert_eq!(SiteId(25).to_string(), "z");
        assert_eq!(SiteId(26).to_string(), "s26");
    }

    #[test]
    fn txn_shorthands() {
        let g = Txn::global(3);
        assert!(g.is_global() && !g.is_local());
        assert_eq!(g.to_string(), "T3");
        let l = Txn::local(SiteId(0), 4);
        assert!(l.is_local());
        assert_eq!(l.to_string(), "L4@a");
    }

    #[test]
    fn instance_display() {
        let i = Instance::global(1, SiteId(0), 1);
        assert_eq!(i.to_string(), "T1^a_1");
        let l = Instance::local(SiteId(1), 7);
        assert_eq!(l.to_string(), "L7@b");
        assert_eq!(l.incarnation, 0);
    }

    #[test]
    fn ordering_is_total() {
        let a = Instance::global(1, SiteId(0), 0);
        let b = Instance::global(1, SiteId(0), 1);
        assert!(a < b);
        let x = Item::new(SiteId(0), 0);
        let y = Item::new(SiteId(0), 1);
        assert!(x < y);
    }
}
