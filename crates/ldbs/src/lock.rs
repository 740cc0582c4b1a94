//! The strict two-phase-locking lock manager.
//!
//! S2PL is how commercial systems of the paper's era realized rigorousness
//! (§1: "rigorousness is, for example, achieved by the strict two-phase
//! locking policy whereby all the locks are kept until the transaction
//! terminates"). Reads take shared locks, writes exclusive locks; the engine
//! releases everything at local commit/abort via [`LockManager::release_all`].
//!
//! Grant discipline: FIFO per key with two exceptions — (a) lock *upgrades*
//! (S→X by the sole holder) jump the queue, and (b) requests held back by
//! the DLU rule ([`WaitKind::DluHold`]) may be overtaken, since they wait on
//! an unbind event rather than on lock holders. The manager also exposes the
//! waits-for graph for local deadlock detection.
//!
//! Detection is polled: every site asks [`LockManager::deadlocked`] once per
//! scan period, and between two scans the graph has usually not grown. An
//! edge can appear only when a request queues, a holder upgrades in place
//! or a DLU hold is lifted; grants are counted with them (the FIFO grant
//! pass adds none, but that rests on its order). A release that grants
//! nothing, a request granted outright and [`LockManager::impose_dlu_holds`]
//! only delete edges or add none, and deleting edges keeps a graph acyclic.
//! So the manager remembers an acyclic verdict until one of the first four
//! happens, and skips the graph when fewer than two ordinary waiters are
//! queued. A cyclic verdict is never remembered: the victim's abort deletes
//! edges and the next scan must look again.

use std::collections::{BTreeMap, VecDeque};

use mdbs_histories::Instance;

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; the caller may proceed.
    Granted,
    /// The request was queued; the caller must suspend.
    Waiting,
}

/// Why a queued request is waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Ordinary incompatibility with holders or earlier waiters.
    Lock,
    /// Held back by the DLU rule: the item is bound data of a prepared
    /// global transaction and the requester is a local updater.
    DluHold,
}

#[derive(Debug, Clone)]
struct WaitReq {
    owner: Instance,
    mode: LockMode,
    upgrade: bool,
    kind: WaitKind,
}

#[derive(Debug, Clone, Default)]
struct LockEntry {
    holders: Vec<(Instance, LockMode)>,
    queue: VecDeque<WaitReq>,
}

impl LockEntry {
    fn holds(&self, owner: Instance) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(o, _)| *o == owner)
            .map(|(_, m)| *m)
    }

    fn compatible_with_holders(&self, owner: Instance, mode: LockMode) -> bool {
        self.holders
            .iter()
            .filter(|(o, _)| *o != owner)
            .all(|(_, m)| m.compatible(mode))
    }
}

/// The per-site lock manager.
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    entries: BTreeMap<u64, LockEntry>,
    /// The last [`LockManager::deadlocked`] found no cycle, and no mutation
    /// since could have added a waits-for edge.
    known_acyclic: bool,
}

impl LockManager {
    /// An empty lock table.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Request a lock. `dlu_hold` marks the request as blocked by the DLU
    /// rule; it will not be granted until [`LockManager::lift_dlu_holds`].
    pub fn request(
        &mut self,
        owner: Instance,
        key: u64,
        mode: LockMode,
        dlu_hold: bool,
    ) -> LockOutcome {
        let entry = self.entries.entry(key).or_default();

        // Idempotent re-requests and the S-under-X case.
        match (entry.holds(owner), mode) {
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => {
                return LockOutcome::Granted;
            }
            _ => {}
        }

        // A DLU-held request waits on an unbind, not on a holder: no edge.
        if dlu_hold {
            entry.queue.push_back(WaitReq {
                owner,
                mode,
                upgrade: entry.holds(owner).is_some(),
                kind: WaitKind::DluHold,
            });
            return LockOutcome::Waiting;
        }

        // Upgrade S -> X: granted in place or queued, it may add an edge.
        if entry.holds(owner) == Some(LockMode::Shared) && mode == LockMode::Exclusive {
            self.known_acyclic = false;
            if entry.holders.len() == 1 {
                entry.holders[0].1 = LockMode::Exclusive;
                return LockOutcome::Granted;
            }
            // Upgrades wait at the front, after other upgrades.
            let pos = entry.queue.iter().take_while(|w| w.upgrade).count();
            entry.queue.insert(
                pos,
                WaitReq {
                    owner,
                    mode,
                    upgrade: true,
                    kind: WaitKind::Lock,
                },
            );
            return LockOutcome::Waiting;
        }

        // Fresh request: grant only if compatible and no ordinary waiter is
        // queued ahead (FIFO; prevents writer starvation). Such a grant
        // adds no edge: no ordinary waiter can wait for the new holder.
        let ordinary_waiters = entry.queue.iter().any(|w| w.kind == WaitKind::Lock);
        if !ordinary_waiters && entry.compatible_with_holders(owner, mode) {
            entry.holders.push((owner, mode));
            return LockOutcome::Granted;
        }
        self.known_acyclic = false;
        entry.queue.push_back(WaitReq {
            owner,
            mode,
            upgrade: false,
            kind: WaitKind::Lock,
        });
        LockOutcome::Waiting
    }

    /// Whether `owner` currently holds a lock on `key` (any mode).
    pub fn holds(&self, owner: Instance, key: u64) -> Option<LockMode> {
        self.entries.get(&key).and_then(|e| e.holds(owner))
    }

    /// Current holders of a key.
    pub fn holders(&self, key: u64) -> Vec<(Instance, LockMode)> {
        self.entries
            .get(&key)
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    /// What `owner` is waiting for, if queued anywhere.
    #[cfg(test)]
    fn waiting_on(&self, owner: Instance) -> Option<(u64, LockMode, WaitKind)> {
        for (k, e) in &self.entries {
            if let Some(w) = e.queue.iter().find(|w| w.owner == owner) {
                return Some((*k, w.mode, w.kind));
            }
        }
        None
    }

    /// Number of locks held by `owner`.
    pub fn lock_count(&self, owner: Instance) -> usize {
        self.entries
            .values()
            .filter(|e| e.holds(owner).is_some())
            .count()
    }

    /// Release every lock and queued request of `owner` (local commit or
    /// abort under S2PL). Returns the requests *newly granted* as a result.
    /// The release itself only deletes waits-for edges; the grant passes
    /// after it drop the remembered verdict if they grant anything.
    pub fn release_all(&mut self, owner: Instance) -> Vec<(Instance, u64, LockMode)> {
        let keys: Vec<u64> = self.entries.keys().copied().collect();
        let mut granted = Vec::new();
        for key in keys {
            let Some(entry) = self.entries.get_mut(&key) else {
                continue;
            };
            entry.holders.retain(|(o, _)| *o != owner);
            entry.queue.retain(|w| w.owner != owner);
            granted.extend(self.grant_pass(key).into_iter().map(|(o, m)| (o, key, m)));
        }
        self.entries
            .retain(|_, e| !e.holders.is_empty() || !e.queue.is_empty());
        granted
    }

    /// Impose DLU holds on `key`: flag already-queued requests for which
    /// `blocked` returns true (local updaters, decided by the engine) so
    /// grant passes skip them until the item is unbound. Requests arriving
    /// later are flagged at request time by the engine; this call closes
    /// the window for requests queued *before* the item became bound.
    /// A held request leaves the waits-for graph, so this only deletes
    /// edges.
    pub fn impose_dlu_holds(&mut self, key: u64, blocked: impl Fn(Instance, LockMode) -> bool) {
        if let Some(entry) = self.entries.get_mut(&key) {
            for w in entry.queue.iter_mut() {
                if w.kind == WaitKind::Lock && blocked(w.owner, w.mode) {
                    w.kind = WaitKind::DluHold;
                }
            }
        }
    }

    /// Lift DLU holds on `key` (the 2PCA unbound the item) and run a grant
    /// pass. Returns newly granted requests.
    pub fn lift_dlu_holds(&mut self, key: u64) -> Vec<(Instance, u64, LockMode)> {
        if let Some(entry) = self.entries.get_mut(&key) {
            for w in entry.queue.iter_mut() {
                if w.kind == WaitKind::DluHold {
                    // Back in the waits-for graph, with its edges.
                    w.kind = WaitKind::Lock;
                    self.known_acyclic = false;
                }
            }
        }
        self.grant_pass(key)
            .into_iter()
            .map(|(o, m)| (o, key, m))
            .collect()
    }

    /// Grant whatever the queue of `key` allows. FIFO among ordinary
    /// waiters; DLU-held requests are skipped (and overtaken).
    fn grant_pass(&mut self, key: u64) -> Vec<(Instance, LockMode)> {
        let Some(entry) = self.entries.get_mut(&key) else {
            return vec![];
        };
        let mut granted = Vec::new();
        let mut idx = 0;
        while idx < entry.queue.len() {
            let w = entry.queue[idx].clone();
            if w.kind == WaitKind::DluHold {
                idx += 1;
                continue;
            }
            // A queued request whose owner meanwhile became a holder (two
            // requests queued for the same key): satisfy or convert it
            // instead of adding a duplicate holder entry.
            if let Some(held) = entry.holds(w.owner) {
                match (held, w.mode) {
                    (LockMode::Exclusive, _) | (LockMode::Shared, LockMode::Shared) => {
                        // Already satisfied; drop silently (no double
                        // notification — the owner was resumed when the
                        // first request was granted).
                        entry.queue.remove(idx);
                        continue;
                    }
                    (LockMode::Shared, LockMode::Exclusive) => {
                        if entry.holders.len() == 1 {
                            entry.holders[0].1 = LockMode::Exclusive;
                            entry.queue.remove(idx);
                            granted.push((w.owner, LockMode::Exclusive));
                            continue;
                        }
                        break; // ungrantable conversion blocks the queue
                    }
                }
            }
            if w.upgrade {
                // Grantable when the requester is the sole holder.
                if entry.holders.len() == 1 && entry.holders[0].0 == w.owner {
                    entry.holders[0].1 = LockMode::Exclusive;
                    entry.queue.remove(idx);
                    granted.push((w.owner, LockMode::Exclusive));
                    continue;
                }
                // An ungrantable upgrade blocks everything behind it.
                break;
            }
            if entry.compatible_with_holders(w.owner, w.mode) {
                entry.holders.push((w.owner, w.mode));
                entry.queue.remove(idx);
                granted.push((w.owner, w.mode));
                continue;
            }
            break; // FIFO: first ungrantable ordinary waiter stops the pass.
        }
        // In this FIFO pass a grant adds no edge: every ordinary waiter
        // ahead of a granted request has left the queue, and one behind it
        // waits for the new holder exactly when it waited for the request.
        // That rests on the pass's order, so a grant drops the verdict
        // anyway.
        if !granted.is_empty() {
            self.known_acyclic = false;
        }
        granted
    }

    /// The waits-for edges: each ordinary waiter waits for every
    /// incompatible holder and every incompatible earlier ordinary waiter.
    /// DLU-held waiters are excluded — they wait on an unbind event, which
    /// the engine accounts for separately.
    pub fn waits_for_edges(&self) -> Vec<(Instance, Instance)> {
        let mut edges = Vec::new();
        for entry in self.entries.values() {
            for (qi, w) in entry.queue.iter().enumerate() {
                if w.kind == WaitKind::DluHold {
                    continue;
                }
                for (h, hm) in &entry.holders {
                    if *h != w.owner && !w.mode.compatible(*hm) {
                        edges.push((w.owner, *h));
                    }
                }
                for earlier in entry.queue.iter().take(qi) {
                    if earlier.kind == WaitKind::DluHold {
                        continue;
                    }
                    if earlier.owner != w.owner && !w.mode.compatible(earlier.mode) {
                        edges.push((w.owner, earlier.owner));
                    }
                }
            }
        }
        edges
    }

    /// Instances involved in some waits-for cycle (deadlocked), if any.
    ///
    /// Answers "none" without building the graph when the last call found
    /// none and no edge can have been added since (deleting edges keeps a
    /// graph acyclic), or when fewer than two ordinary waiters are queued
    /// (a cycle needs two). Otherwise the graph is built and searched
    /// from scratch, so a cycle found is the one a fresh search finds.
    pub fn deadlocked(&mut self) -> Option<Vec<Instance>> {
        if self.known_acyclic {
            return None;
        }
        let mut waiters = self
            .entries
            .values()
            .flat_map(|e| &e.queue)
            .filter(|w| w.kind == WaitKind::Lock);
        let cycle = if waiters.nth(1).is_none() {
            None
        } else {
            let mut g = mdbs_histories::graph::DiGraph::new();
            for (a, b) in self.waits_for_edges() {
                g.add_edge(a, b);
            }
            g.find_cycle()
        };
        self.known_acyclic = cycle.is_none();
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_histories::SiteId;

    const A: SiteId = SiteId(0);
    fn g(k: u32) -> Instance {
        Instance::global(k, A, 0)
    }
    fn l(n: u32) -> Instance {
        Instance::local(A, n)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(g(1), 0, LockMode::Shared, false),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.request(g(2), 0, LockMode::Shared, false),
            LockOutcome::Granted
        );
        assert_eq!(lm.holders(0).len(), 2);
    }

    #[test]
    fn exclusive_blocks() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(g(1), 0, LockMode::Exclusive, false),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.request(g(2), 0, LockMode::Shared, false),
            LockOutcome::Waiting
        );
        assert_eq!(
            lm.request(g(3), 0, LockMode::Exclusive, false),
            LockOutcome::Waiting
        );
        assert_eq!(lm.waiting_on(g(2)).unwrap().0, 0);
    }

    #[test]
    fn rerequest_is_idempotent() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        assert_eq!(
            lm.request(g(1), 0, LockMode::Exclusive, false),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.request(g(1), 0, LockMode::Shared, false),
            LockOutcome::Granted
        );
        assert_eq!(lm.holders(0).len(), 1);
    }

    #[test]
    fn release_grants_fifo() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(g(2), 0, LockMode::Exclusive, false);
        lm.request(g(3), 0, LockMode::Exclusive, false);
        let granted = lm.release_all(g(1));
        assert_eq!(granted, vec![(g(2), 0, LockMode::Exclusive)]);
        let granted = lm.release_all(g(2));
        assert_eq!(granted, vec![(g(3), 0, LockMode::Exclusive)]);
    }

    #[test]
    fn shared_batch_granted_together() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(g(2), 0, LockMode::Shared, false);
        lm.request(g(3), 0, LockMode::Shared, false);
        let granted = lm.release_all(g(1));
        assert_eq!(granted.len(), 2);
    }

    #[test]
    fn fifo_prevents_reader_overtaking_writer() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Shared, false);
        lm.request(g(2), 0, LockMode::Exclusive, false); // waits
                                                         // A later reader must not overtake the queued writer.
        assert_eq!(
            lm.request(g(3), 0, LockMode::Shared, false),
            LockOutcome::Waiting
        );
    }

    #[test]
    fn upgrade_sole_holder_immediate() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Shared, false);
        assert_eq!(
            lm.request(g(1), 0, LockMode::Exclusive, false),
            LockOutcome::Granted
        );
        assert_eq!(lm.holds(g(1), 0), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_waits_for_other_readers() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Shared, false);
        lm.request(g(2), 0, LockMode::Shared, false);
        assert_eq!(
            lm.request(g(1), 0, LockMode::Exclusive, false),
            LockOutcome::Waiting
        );
        let granted = lm.release_all(g(2));
        assert_eq!(granted, vec![(g(1), 0, LockMode::Exclusive)]);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Two readers both upgrading: classic conversion deadlock.
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Shared, false);
        lm.request(g(2), 0, LockMode::Shared, false);
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(g(2), 0, LockMode::Exclusive, false);
        let dl = lm.deadlocked().expect("conversion deadlock");
        assert!(dl.contains(&g(1)) && dl.contains(&g(2)));
    }

    #[test]
    fn two_key_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(g(2), 1, LockMode::Exclusive, false);
        lm.request(g(1), 1, LockMode::Exclusive, false);
        lm.request(g(2), 0, LockMode::Exclusive, false);
        let dl = lm.deadlocked().expect("deadlock");
        assert_eq!(dl.len(), 2);
    }

    #[test]
    fn no_false_deadlock() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(g(2), 0, LockMode::Exclusive, false);
        assert!(lm.deadlocked().is_none());
    }

    #[test]
    fn dlu_hold_not_granted_by_release() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(l(9), 0, LockMode::Exclusive, true); // DLU-held local writer
        let granted = lm.release_all(g(1));
        assert!(granted.is_empty(), "DLU hold must survive lock release");
        assert_eq!(lm.waiting_on(l(9)).unwrap().2, WaitKind::DluHold);
    }

    #[test]
    fn dlu_hold_lifted_grants() {
        let mut lm = LockManager::new();
        lm.request(l(9), 0, LockMode::Exclusive, true);
        let granted = lm.lift_dlu_holds(0);
        assert_eq!(granted, vec![(l(9), 0, LockMode::Exclusive)]);
    }

    #[test]
    fn dlu_hold_is_overtaken() {
        let mut lm = LockManager::new();
        lm.request(l(9), 0, LockMode::Exclusive, true);
        // A global reader overtakes the DLU-held local writer.
        assert_eq!(
            lm.request(g(1), 0, LockMode::Shared, false),
            LockOutcome::Granted
        );
    }

    #[test]
    fn dlu_lift_respects_new_holders() {
        let mut lm = LockManager::new();
        lm.request(l(9), 0, LockMode::Exclusive, true);
        lm.request(g(1), 0, LockMode::Shared, false); // granted, overtook
        let granted = lm.lift_dlu_holds(0);
        assert!(granted.is_empty(), "X must still wait for the S holder");
        let granted = lm.release_all(g(1));
        assert_eq!(granted, vec![(l(9), 0, LockMode::Exclusive)]);
    }

    #[test]
    fn release_clears_queue_entries_of_owner() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Exclusive, false);
        lm.request(g(2), 0, LockMode::Exclusive, false);
        // g2 aborts while waiting.
        let granted = lm.release_all(g(2));
        assert!(granted.is_empty());
        assert!(lm.waiting_on(g(2)).is_none());
        let granted = lm.release_all(g(1));
        assert!(granted.is_empty());
    }

    #[test]
    fn lock_count_tracks_held_keys() {
        let mut lm = LockManager::new();
        lm.request(g(1), 0, LockMode::Shared, false);
        lm.request(g(1), 1, LockMode::Exclusive, false);
        lm.request(g(1), 2, LockMode::Shared, false);
        assert_eq!(lm.lock_count(g(1)), 3);
        lm.release_all(g(1));
        assert_eq!(lm.lock_count(g(1)), 0);
    }
}
