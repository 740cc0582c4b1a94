//! CGM's centralized global lock manager at site granularity.
//!
//! §6: CGM "assumes a global S2PL lock manager is used by the DTM … it is
//! not obvious how the global lock manager can be implemented in a
//! contemporary environment unless some coarse granularity (e.g. site,
//! database or table) locking is applied." We implement the site
//! granularity the paper discusses: a global transaction takes one lock per
//! site it touches — shared if it only reads there, exclusive if it
//! updates — holds them S2PL-style for its whole lifetime, and releases
//! them at the central scheduler when it finishes.
//!
//! FIFO queues per site; the scheduler admits a transaction once *all* its
//! site locks are granted (all-or-wait, requested in ascending site order so
//! two global transactions cannot deadlock on site locks).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mdbs_histories::{GlobalTxnId, SiteId};

/// Lock mode on one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteLockMode {
    /// The transaction only reads at the site.
    Read,
    /// The transaction updates at the site.
    Update,
}

impl SiteLockMode {
    fn compatible(self, other: SiteLockMode) -> bool {
        matches!((self, other), (SiteLockMode::Read, SiteLockMode::Read))
    }
}

#[derive(Debug, Default)]
struct SiteEntry {
    holders: Vec<(GlobalTxnId, SiteLockMode)>,
    queue: VecDeque<(GlobalTxnId, SiteLockMode)>,
}

/// The centralized site-lock table.
#[derive(Debug, Default)]
pub struct GlobalLockManager {
    sites: BTreeMap<SiteId, SiteEntry>,
    /// Outstanding admission requests: txn -> sites still waiting.
    pending: BTreeMap<GlobalTxnId, BTreeSet<SiteId>>,
    /// Requested modes (kept until release).
    modes: BTreeMap<GlobalTxnId, BTreeMap<SiteId, SiteLockMode>>,
}

impl GlobalLockManager {
    /// An empty lock table.
    pub fn new() -> GlobalLockManager {
        GlobalLockManager::default()
    }

    /// Request admission for a transaction over its sites/modes. Returns
    /// `true` if all locks were granted immediately (the transaction may
    /// start); otherwise it is queued and will appear in the result of a
    /// later [`GlobalLockManager::release`]. A transaction that already
    /// asked keeps its first request: asking again changes nothing and
    /// returns `false`.
    pub fn request(
        &mut self,
        txn: GlobalTxnId,
        sites: impl IntoIterator<Item = (SiteId, SiteLockMode)>,
    ) -> bool {
        if self.modes.contains_key(&txn) {
            return false;
        }
        let wanted: BTreeMap<SiteId, SiteLockMode> = sites.into_iter().collect();
        self.modes.insert(txn, wanted.clone());
        let mut waiting = BTreeSet::new();
        // Ascending site order (BTreeMap iteration) avoids lock-order
        // deadlocks between global transactions.
        for (&site, &mode) in &wanted {
            let entry = self.sites.entry(site).or_default();
            let free_queue = entry.queue.is_empty();
            let compatible = entry.holders.iter().all(|(_, m)| m.compatible(mode));
            if free_queue && compatible && waiting.is_empty() {
                entry.holders.push((txn, mode));
            } else {
                entry.queue.push_back((txn, mode));
                waiting.insert(site);
            }
        }
        if waiting.is_empty() {
            true
        } else {
            self.pending.insert(txn, waiting);
            false
        }
    }

    /// Release a finished transaction's locks and queue slots. Returns the
    /// transactions that became fully admitted as a result.
    pub fn release(&mut self, txn: GlobalTxnId) -> Vec<GlobalTxnId> {
        self.modes.remove(&txn);
        self.pending.remove(&txn);
        for entry in self.sites.values_mut() {
            entry.holders.retain(|(t, _)| *t != txn);
            entry.queue.retain(|(t, _)| *t != txn);
        }
        // Grant pass: FIFO per site.
        let mut admitted = Vec::new();
        for (site, entry) in &mut self.sites {
            while let Some(&(cand, mode)) = entry.queue.front() {
                let compatible = entry.holders.iter().all(|(_, m)| m.compatible(mode));
                if !compatible {
                    break;
                }
                entry.queue.pop_front();
                entry.holders.push((cand, mode));
                if let Some(waiting) = self.pending.get_mut(&cand) {
                    waiting.remove(site);
                    if waiting.is_empty() {
                        self.pending.remove(&cand);
                        admitted.push(cand);
                    }
                }
            }
        }
        admitted
    }

    /// Whether the transaction currently holds all its locks.
    pub fn admitted(&self, txn: GlobalTxnId) -> bool {
        self.modes.contains_key(&txn) && !self.pending.contains_key(&txn)
    }

    /// Number of transactions waiting for admission.
    pub fn waiting(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(k: u32) -> GlobalTxnId {
        GlobalTxnId(k)
    }
    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);

    #[test]
    fn readers_share_a_site() {
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Read)]));
        assert!(glm.request(g(2), [(A, SiteLockMode::Read)]));
    }

    #[test]
    fn updater_excludes() {
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Update)]));
        assert!(!glm.request(g(2), [(A, SiteLockMode::Read)]));
        // Asking again neither queues a second claim nor re-answers.
        assert!(!glm.request(g(2), [(A, SiteLockMode::Read)]));
        assert!(!glm.request(g(1), [(A, SiteLockMode::Update)]));
        assert_eq!(glm.waiting(), 1);
        let admitted = glm.release(g(1));
        assert_eq!(admitted, vec![g(2)]);
        assert!(glm.admitted(g(2)));
    }

    #[test]
    fn all_or_wait_admission() {
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Update)]));
        // g2 needs A and B; A is busy, so it waits even though B is free.
        assert!(!glm.request(g(2), [(A, SiteLockMode::Update), (B, SiteLockMode::Update)]));
        // g3 wants only B: queued behind g2's B claim? g2 was granted B
        // immediately (B was free when requested), so g3 queues.
        assert!(!glm.request(g(3), [(B, SiteLockMode::Update)]));
        let admitted = glm.release(g(1));
        assert_eq!(admitted, vec![g(2)]);
        let admitted = glm.release(g(2));
        assert_eq!(admitted, vec![g(3)]);
    }

    #[test]
    fn fifo_per_site() {
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Update)]));
        assert!(!glm.request(g(2), [(A, SiteLockMode::Update)]));
        assert!(!glm.request(g(3), [(A, SiteLockMode::Update)]));
        assert_eq!(glm.release(g(1)), vec![g(2)]);
        assert_eq!(glm.release(g(2)), vec![g(3)]);
    }

    #[test]
    fn shared_batch_admitted_together() {
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Update)]));
        assert!(!glm.request(g(2), [(A, SiteLockMode::Read)]));
        assert!(!glm.request(g(3), [(A, SiteLockMode::Read)]));
        let admitted = glm.release(g(1));
        assert_eq!(admitted.len(), 2);
    }

    #[test]
    fn release_of_waiting_txn_cleans_queue() {
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Update)]));
        assert!(!glm.request(g(2), [(A, SiteLockMode::Update)]));
        // g2 gives up (e.g. timed out at the scheduler).
        assert!(glm.release(g(2)).is_empty());
        assert!(glm.release(g(1)).is_empty());
        assert_eq!(glm.waiting(), 0);
    }

    #[test]
    fn no_partial_admission_holds_earlier_sites() {
        // g2 holds B while waiting for A (S2PL-style incremental claim),
        // so a later B-only updater queues.
        let mut glm = GlobalLockManager::new();
        assert!(glm.request(g(1), [(A, SiteLockMode::Update)]));
        assert!(!glm.request(g(2), [(A, SiteLockMode::Read), (B, SiteLockMode::Update)]));
        assert!(!glm.request(g(3), [(B, SiteLockMode::Read)]));
        let admitted = glm.release(g(1));
        assert_eq!(admitted, vec![g(2)]);
        assert_eq!(glm.release(g(2)), vec![g(3)]);
    }
}
