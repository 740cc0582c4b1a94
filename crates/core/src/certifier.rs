//! Incremental index over the Certifier's prepared table.
//!
//! §4.2 basic prepare certification asks, per PREPARE, whether the candidate
//! alive interval `[b, now]` intersects the stored alive interval of *every*
//! table entry. The original implementation refreshed every alive entry and
//! then scanned the whole table — O(prepared) per admission, quadratic under
//! load. [`CertIndex`] answers the same question in O(log n):
//!
//! * **Alive entries** are refreshed to `now` at every PREPARE (§6's inline
//!   alive check), so after the refresh their stored end is `now ≥ b` and
//!   they intersect any candidate. Instead of walking them, the index keeps
//!   one *refresh floor* — the local time and handler sequence number of the
//!   most recent PREPARE-time refresh — and each entry records the sequence
//!   number at which it last became alive. An alive entry's effective end is
//!   `max(stored end, floor)` whenever the floor postdates its alive-point;
//!   the agent materializes that value into the stored interval when the
//!   entry freezes (UAN) and when snapshotting, so the observable table is
//!   bit-for-bit what the eager loop produced. This relies on the local
//!   clock the host feeds `Agent::handle` being monotone, which every
//!   driver (simulation clock, threaded/TCP elapsed time) guarantees.
//! * **Frozen entries** (unilaterally aborted, or mid-resubmission) have a
//!   fixed end: the candidate intersects iff `end ≥ b`. Only the
//!   *minimum* frozen end per shard matters, held in a sorted set.
//!
//! Commit certification (Appendix C) similarly reduces to an ordered-set
//! lookup: the COMMIT of `sn` may proceed iff the smallest serial number of
//! any *other* table entry exceeds `sn`.
//!
//! **Key-range sharding.** With `AgentConfig::cert_shards > 1` the table is
//! partitioned by key range (`key % shards`): an entry registers in the
//! shards of the keys it touched, and a PREPARE consults only the shards of
//! the candidate's keys — disjoint-key subtransactions certify without ever
//! observing each other, the shape *Reconfigurable Atomic Transaction
//! Commit* uses for per-shard commit state. One shard (the default)
//! reproduces the paper's site-global rule exactly; the golden digests are
//! recorded against it.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::GlobalTxnId;

use crate::sn::SerialNumber;

/// Per-shard certifier state: how many alive entries are registered, and
/// the ends of the frozen ones, sorted so the minimum is O(log n) away.
#[derive(Debug, Default, Clone)]
struct Shard {
    alive: usize,
    frozen: BTreeSet<(u64, GlobalTxnId)>,
}

/// What the index knows about one registered table entry.
#[derive(Debug, Clone)]
struct Member {
    /// Shards the entry is registered in (sorted, deduplicated).
    shards: Vec<usize>,
    /// `Some(end)` while the entry is frozen (not alive); the effective end
    /// of its most recent stored interval at freeze time.
    frozen_end: Option<u64>,
    /// Serial number certified at PREPARE time, if any.
    sn: Option<SerialNumber>,
}

/// The incremental prepared-table index. Maintained by [`crate::agent::Agent`]
/// alongside its subtransaction map; every in-table (prepared or
/// commit-pending) entry is registered here and nowhere else.
#[derive(Debug, Clone)]
pub struct CertIndex {
    shards: Vec<Shard>,
    members: BTreeMap<GlobalTxnId, Member>,
    /// All registered serial numbers, for commit certification.
    sns: BTreeSet<(SerialNumber, GlobalTxnId)>,
    /// Local time of the most recent PREPARE-time refresh.
    floor: u64,
    /// Handler sequence number at which the floor was recorded.
    floor_seq: u64,
}

impl CertIndex {
    /// An empty index over `shards` key-range shards (0 is treated as 1).
    pub fn new(shards: usize) -> CertIndex {
        CertIndex {
            shards: vec![Shard::default(); shards.max(1)],
            members: BTreeMap::new(),
            sns: BTreeSet::new(),
            floor: 0,
            floor_seq: 0,
        }
    }

    /// Number of key-range shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered (in-table) entries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Record a PREPARE-time refresh: every entry alive strictly before
    /// `seq` now has effective end ≥ `now`.
    pub fn note_refresh(&mut self, now: u64, seq: u64) {
        if now > self.floor {
            self.floor = now;
        }
        self.floor_seq = seq;
    }

    /// The current refresh floor as `(local time, handler sequence)`.
    pub fn floor(&self) -> (u64, u64) {
        (self.floor, self.floor_seq)
    }

    /// Shard ids a subtransaction with this key set maps to. With one shard
    /// the rule is site-global (every entry, every candidate → shard 0)
    /// regardless of keys, reproducing the paper's §4.2 table exactly.
    fn shard_ids(&self, touched: &BTreeSet<u64>) -> Vec<usize> {
        let n = self.shards.len();
        if n == 1 {
            return vec![0];
        }
        let ids: BTreeSet<usize> = touched.iter().map(|k| (*k % n as u64) as usize).collect();
        ids.into_iter().collect()
    }

    /// Register an entry entering the table alive (PREPARE accepted).
    pub fn register(
        &mut self,
        gtxn: GlobalTxnId,
        touched: &BTreeSet<u64>,
        sn: Option<SerialNumber>,
    ) {
        self.remove(gtxn); // re-registration replaces any stale state
        let shards = self.shard_ids(touched);
        for &sid in &shards {
            if let Some(sh) = self.shards.get_mut(sid) {
                sh.alive += 1;
            }
        }
        if let Some(sn) = sn {
            self.sns.insert((sn, gtxn));
        }
        self.members.insert(
            gtxn,
            Member {
                shards,
                frozen_end: None,
                sn,
            },
        );
    }

    /// Register an entry entering the table already frozen with effective
    /// end `end` — crash recovery's conservative `(0, 0)` interval.
    pub fn register_frozen(
        &mut self,
        gtxn: GlobalTxnId,
        touched: &BTreeSet<u64>,
        sn: Option<SerialNumber>,
        end: u64,
    ) {
        self.register(gtxn, touched, sn);
        self.freeze(gtxn, end);
    }

    /// Transition a registered entry from alive to frozen with effective
    /// end `end` (unilateral abort). No-op if absent or already frozen.
    pub fn freeze(&mut self, gtxn: GlobalTxnId, end: u64) {
        let Some(m) = self.members.get_mut(&gtxn) else {
            return;
        };
        if m.frozen_end.is_some() {
            return;
        }
        m.frozen_end = Some(end);
        for &sid in &m.shards {
            if let Some(sh) = self.shards.get_mut(sid) {
                sh.alive = sh.alive.saturating_sub(1);
                sh.frozen.insert((end, gtxn));
            }
        }
    }

    /// Transition a registered entry from frozen back to alive, re-deriving
    /// its shard set from `touched` (the key set may have grown during the
    /// resubmission replay). No-op if absent or already alive.
    pub fn unfreeze(&mut self, gtxn: GlobalTxnId, touched: &BTreeSet<u64>) {
        let shards = self.shard_ids(touched);
        let Some(m) = self.members.get_mut(&gtxn) else {
            return;
        };
        let Some(end) = m.frozen_end.take() else {
            return;
        };
        let old_shards = std::mem::replace(&mut m.shards, shards);
        let new_shards = m.shards.clone();
        for sid in old_shards {
            if let Some(sh) = self.shards.get_mut(sid) {
                sh.frozen.remove(&(end, gtxn));
            }
        }
        for sid in new_shards {
            // mdbs-check: allow(hot-repeated-lookup, "the two loops walk the outgoing frozen and incoming alive shard sets; each shard id is looked up once per transition")
            if let Some(sh) = self.shards.get_mut(sid) {
                sh.alive += 1;
            }
        }
    }

    /// Remove an entry from the table (commit, rollback, refuse).
    pub fn remove(&mut self, gtxn: GlobalTxnId) {
        let Some(m) = self.members.remove(&gtxn) else {
            return;
        };
        for &sid in &m.shards {
            let Some(sh) = self.shards.get_mut(sid) else {
                continue;
            };
            match m.frozen_end {
                Some(end) => {
                    sh.frozen.remove(&(end, gtxn));
                }
                None => sh.alive = sh.alive.saturating_sub(1),
            }
        }
        if let Some(sn) = m.sn {
            self.sns.remove(&(sn, gtxn));
        }
    }

    /// §4.2 disjointness for a candidate `[candidate_begin, now]` touching
    /// `touched`: is there a table entry in a consulted shard whose
    /// effective interval the candidate misses? Exact counterpart of the
    /// refreshed linear scan: alive entries have effective end ≥ the floor
    /// (`now`, recorded by [`CertIndex::note_refresh`] this same PREPARE),
    /// frozen ones their materialized end.
    pub fn disjoint(&self, now: u64, candidate_begin: u64, touched: &BTreeSet<u64>) -> bool {
        for sid in self.shard_ids(touched) {
            let Some(sh) = self.shards.get(sid) else {
                continue;
            };
            if sh.alive > 0 && now < candidate_begin {
                return true;
            }
            if let Some(&(end, _)) = sh.frozen.first() {
                if end < candidate_begin {
                    return true;
                }
            }
        }
        false
    }

    /// The table entry with the smallest serial number — the only one
    /// commit certification can currently let through.
    pub fn oldest(&self) -> Option<(SerialNumber, GlobalTxnId)> {
        self.sns.first().copied()
    }

    /// Appendix C commit certification: is the COMMIT of (`gtxn`, `my_sn`)
    /// blocked by another table entry? An entry with `sn ≤ my_sn` blocks
    /// (local commits happen in serial-number order): all others must be
    /// strictly younger, i.e. the smallest other sn must be > my_sn.
    pub fn commit_blocked(&self, gtxn: GlobalTxnId, my_sn: SerialNumber) -> bool {
        self.sns
            .iter()
            .find(|(_, g)| *g != gtxn)
            .is_some_and(|&(sn, _)| sn <= my_sn)
    }
}

/// The pre-index certifier: the eager refresh loop plus linear scans the
/// agent used to run per admission. Kept as the differential oracle (the
/// proptests assert [`CertIndex`] decisions match it exactly) and as the
/// measured baseline of the `certifier_throughput` microbench.
#[derive(Debug, Default, Clone)]
pub struct LinearReference {
    entries: BTreeMap<GlobalTxnId, LinearEntry>,
}

/// One prepared-table row of the [`LinearReference`].
#[derive(Debug, Clone)]
pub struct LinearEntry {
    /// Stored alive intervals, oldest first (§4.2).
    pub intervals: Vec<(u64, u64)>,
    /// Whether the entry is alive (refreshed at each PREPARE).
    pub alive: bool,
    /// Serial number certified at PREPARE time.
    pub sn: Option<SerialNumber>,
}

impl LinearReference {
    /// An empty table.
    pub fn new() -> LinearReference {
        LinearReference::default()
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or replace an entry.
    pub fn insert(&mut self, gtxn: GlobalTxnId, entry: LinearEntry) {
        self.entries.insert(gtxn, entry);
    }

    /// Remove an entry.
    pub fn remove(&mut self, gtxn: GlobalTxnId) {
        self.entries.remove(&gtxn);
    }

    /// Freeze an entry (unilateral abort): stop refreshing its interval.
    pub fn freeze(&mut self, gtxn: GlobalTxnId) {
        if let Some(e) = self.entries.get_mut(&gtxn) {
            e.alive = false;
        }
    }

    /// Unfreeze an entry, optionally starting a fresh interval capped at
    /// `cap` stored intervals (`None` reproduces the instantly-alive
    /// resubmission path, which keeps the stale stored interval).
    pub fn unfreeze(&mut self, gtxn: GlobalTxnId, fresh_at: Option<u64>, cap: usize) {
        if let Some(e) = self.entries.get_mut(&gtxn) {
            e.alive = true;
            if let Some(now) = fresh_at {
                e.intervals.push((now, now));
                let cap = cap.max(1);
                if e.intervals.len() > cap {
                    let excess = e.intervals.len() - cap;
                    e.intervals.drain(..excess);
                }
            }
        }
    }

    /// Extend one alive entry to `now` (the Appendix A alive-check path).
    pub fn extend(&mut self, gtxn: GlobalTxnId, now: u64) {
        if let Some(e) = self.entries.get_mut(&gtxn) {
            if e.alive {
                match e.intervals.last_mut() {
                    Some(last) => last.1 = now,
                    None => e.intervals.push((now, now)),
                }
            }
        }
    }

    /// The eager PREPARE-time refresh: extend every alive entry to `now`.
    pub fn refresh(&mut self, now: u64) {
        for e in self.entries.values_mut() {
            if e.alive {
                match e.intervals.last_mut() {
                    Some(last) => last.1 = now,
                    None => e.intervals.push((now, now)),
                }
            }
        }
    }

    /// The original O(n) disjointness scan over refreshed intervals.
    pub fn disjoint(&self, candidate_begin: u64) -> bool {
        self.entries
            .values()
            .any(|e| !e.intervals.iter().any(|&(_, end)| end >= candidate_begin))
    }

    /// The original O(n) commit-certification scan.
    pub fn commit_blocked(&self, gtxn: GlobalTxnId, my_sn: SerialNumber) -> bool {
        !self
            .entries
            .iter()
            .filter(|(g, _)| **g != gtxn)
            .all(|(_, e)| e.sn.is_none_or(|s| s > my_sn))
    }

    /// The entries, for assertions.
    pub fn entries(&self) -> impl Iterator<Item = (&GlobalTxnId, &LinearEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn g(k: u32) -> GlobalTxnId {
        GlobalTxnId(k)
    }

    fn sn(t: u64) -> SerialNumber {
        SerialNumber {
            ticks: t,
            node: 0,
            seq: 0,
        }
    }

    fn keys(ks: &[u64]) -> BTreeSet<u64> {
        ks.iter().copied().collect()
    }

    #[test]
    fn empty_table_is_never_disjoint() {
        let idx = CertIndex::new(1);
        assert!(!idx.disjoint(100, 50, &keys(&[1])));
        assert!(!idx.disjoint(100, 200, &keys(&[])));
    }

    #[test]
    fn frozen_min_end_drives_the_refusal() {
        let mut idx = CertIndex::new(1);
        idx.register(g(1), &keys(&[1]), Some(sn(1)));
        idx.register(g(2), &keys(&[2]), Some(sn(2)));
        idx.freeze(g(1), 40);
        // Candidate starting at 30 still overlaps the frozen end 40.
        assert!(!idx.disjoint(100, 30, &keys(&[7])));
        // Candidate starting at 41 misses it.
        assert!(idx.disjoint(100, 41, &keys(&[7])));
    }

    #[test]
    fn unfreeze_clears_the_frozen_end() {
        let mut idx = CertIndex::new(1);
        idx.register(g(1), &keys(&[1]), None);
        idx.freeze(g(1), 40);
        assert!(idx.disjoint(100, 41, &keys(&[])));
        idx.unfreeze(g(1), &keys(&[1, 9]));
        assert!(!idx.disjoint(100, 41, &keys(&[])));
    }

    #[test]
    fn remove_works_in_both_states() {
        let mut idx = CertIndex::new(1);
        idx.register(g(1), &keys(&[1]), Some(sn(1)));
        idx.freeze(g(1), 0);
        idx.register(g(2), &keys(&[2]), Some(sn(2)));
        idx.remove(g(1));
        idx.remove(g(2));
        assert!(idx.is_empty());
        assert!(!idx.disjoint(100, 99, &keys(&[])));
        assert!(!idx.commit_blocked(g(3), sn(0)));
    }

    #[test]
    fn crash_recovery_zero_interval_blocks_everyone() {
        let mut idx = CertIndex::new(1);
        idx.register_frozen(g(1), &keys(&[1]), Some(sn(1)), 0);
        // Any candidate beginning after tick 0 is disjoint from (0, 0).
        assert!(idx.disjoint(100, 1, &keys(&[5])));
        assert!(!idx.disjoint(100, 0, &keys(&[5])));
    }

    #[test]
    fn sharding_scopes_the_check_to_touched_keys() {
        let mut idx = CertIndex::new(4);
        idx.register(g(1), &keys(&[0]), None); // shard 0
        idx.freeze(g(1), 10);
        // Candidate on shard 1 never consults shard 0's frozen entry.
        assert!(!idx.disjoint(100, 50, &keys(&[1])));
        // Candidate on shard 0 does.
        assert!(idx.disjoint(100, 50, &keys(&[0, 1])));
        // Empty key set consults nothing under sharding.
        assert!(!idx.disjoint(100, 50, &keys(&[])));
    }

    #[test]
    fn one_shard_is_site_global_even_with_empty_keys() {
        let mut idx = CertIndex::new(1);
        idx.register(g(1), &keys(&[]), None);
        idx.freeze(g(1), 10);
        assert!(idx.disjoint(100, 50, &keys(&[])));
    }

    #[test]
    fn commit_blocked_matches_the_paper_rule() {
        let mut idx = CertIndex::new(1);
        idx.register(g(1), &keys(&[1]), Some(sn(5)));
        idx.register(g(2), &keys(&[2]), Some(sn(9)));
        // sn 5 is the oldest: not blocked. sn 9 is blocked by sn 5.
        assert!(!idx.commit_blocked(g(1), sn(5)));
        assert!(idx.commit_blocked(g(2), sn(9)));
    }

    #[test]
    fn equal_serial_numbers_block_each_other() {
        let mut idx = CertIndex::new(1);
        idx.register(g(1), &keys(&[1]), Some(sn(5)));
        idx.register(g(2), &keys(&[2]), Some(sn(5)));
        assert!(idx.commit_blocked(g(1), sn(5)));
        assert!(idx.commit_blocked(g(2), sn(5)));
    }

    /// One random transition script applied to both implementations.
    #[derive(Debug, Clone)]
    enum Step {
        Register {
            k: u32,
            keys: Vec<u64>,
            sn_ticks: u64,
        },
        Freeze {
            k: u32,
        },
        Unfreeze {
            k: u32,
            fresh: bool,
        },
        Remove {
            k: u32,
        },
        Refresh,
        Prepare {
            k: u32,
            begin_back: u64,
        },
        CommitQuery {
            k: u32,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u32..12, pvec(0u64..16, 0..4), 0u64..50)
                .prop_map(|(k, keys, sn_ticks)| Step::Register { k, keys, sn_ticks }),
            (0u32..12).prop_map(|k| Step::Freeze { k }),
            (0u32..12, any::<bool>()).prop_map(|(k, fresh)| Step::Unfreeze { k, fresh }),
            (0u32..12).prop_map(|k| Step::Remove { k }),
            (0u32..1).prop_map(|_| Step::Refresh),
            (0u32..12, 0u64..30).prop_map(|(k, begin_back)| Step::Prepare { k, begin_back }),
            (0u32..12).prop_map(|k| Step::CommitQuery { k }),
        ]
    }

    proptest! {
        /// Drive [`CertIndex`] and [`LinearReference`] through the same
        /// random transition script (with a monotone clock) and assert
        /// identical disjointness and commit-certification answers at every
        /// query, for the site-global shard count and for stored interval
        /// caps 1 (the paper's basic variant) and 3.
        #[test]
        fn index_matches_linear_reference(
            steps in pvec(step_strategy(), 1..60),
            cap in any::<bool>().prop_map(|b| if b { 3usize } else { 1usize }),
        ) {
            let mut idx = CertIndex::new(1);
            let mut lin = LinearReference::new();
            // Mirror of the agent's bookkeeping the index relies on:
            // per-entry stored intervals, alive flag, alive-point seq.
            type StoredMirror = BTreeMap<GlobalTxnId, (Vec<(u64, u64)>, bool, u64)>;
            let mut stored: StoredMirror = BTreeMap::new();
            let mut now: u64 = 1;
            let mut seq: u64 = 0;

            for step in steps {
                now += 1;
                seq += 1;
                match step {
                    Step::Register { k, keys, sn_ticks } => {
                        let gtxn = g(k);
                        if stored.contains_key(&gtxn) { continue; }
                        let ks: BTreeSet<u64> = keys.into_iter().collect();
                        idx.register(gtxn, &ks, Some(sn(sn_ticks)));
                        lin.insert(gtxn, LinearEntry {
                            intervals: vec![(now, now)],
                            alive: true,
                            sn: Some(sn(sn_ticks)),
                        });
                        stored.insert(gtxn, (vec![(now, now)], true, seq));
                    }
                    Step::Freeze { k } => {
                        let gtxn = g(k);
                        let Some((ivs, alive, since)) = stored.get_mut(&gtxn) else { continue; };
                        if !*alive { continue; }
                        // Materialize the lazy floor exactly as the agent
                        // does at UAN time.
                        let (floor, floor_seq) = idx.floor();
                        if *since < floor_seq {
                            if let Some(last) = ivs.last_mut() {
                                if floor > last.1 { last.1 = floor; }
                            }
                        }
                        let end = ivs.last().map_or(0, |l| l.1);
                        *alive = false;
                        idx.freeze(gtxn, end);
                        lin.freeze(gtxn);
                    }
                    Step::Unfreeze { k, fresh } => {
                        let gtxn = g(k);
                        let Some((ivs, alive, since)) = stored.get_mut(&gtxn) else { continue; };
                        if *alive { continue; }
                        *alive = true;
                        *since = seq;
                        if fresh {
                            ivs.push((now, now));
                            if ivs.len() > cap {
                                let excess = ivs.len() - cap;
                                ivs.drain(..excess);
                            }
                        }
                        idx.unfreeze(gtxn, &BTreeSet::new());
                        lin.unfreeze(gtxn, fresh.then_some(now), cap);
                    }
                    Step::Remove { k } => {
                        let gtxn = g(k);
                        stored.remove(&gtxn);
                        idx.remove(gtxn);
                        lin.remove(gtxn);
                    }
                    Step::Refresh => {
                        idx.note_refresh(now, seq);
                        lin.refresh(now);
                    }
                    Step::Prepare { k, begin_back } => {
                        // A PREPARE first refreshes, then certifies a
                        // candidate beginning in the recent past.
                        idx.note_refresh(now, seq);
                        lin.refresh(now);
                        let begin = now.saturating_sub(begin_back);
                        let got = idx.disjoint(now, begin, &keys(&[k as u64]));
                        let want = lin.disjoint(begin);
                        prop_assert_eq!(got, want, "prepare divergence at begin {}", begin);
                    }
                    Step::CommitQuery { k } => {
                        let gtxn = g(k);
                        let my_sn = sn(u64::from(k) * 3 % 40);
                        let got = idx.commit_blocked(gtxn, my_sn);
                        let want = lin.commit_blocked(gtxn, my_sn);
                        prop_assert_eq!(got, want, "commit divergence for {:?}", gtxn);
                    }
                }
            }

            // Final cross-check: materialized intervals equal the eagerly
            // refreshed ones wherever a refresh floor applies.
            let (floor, floor_seq) = idx.floor();
            for (gtxn, (ivs, alive, since)) in &stored {
                let mut eff = ivs.clone();
                if *alive && *since < floor_seq {
                    if let Some(last) = eff.last_mut() {
                        if floor > last.1 { last.1 = floor; }
                    }
                }
                let want: Vec<(u64, u64)> = lin
                    .entries()
                    .find(|(g2, _)| *g2 == gtxn)
                    .map(|(_, e)| e.intervals.clone())
                    .unwrap_or_default();
                prop_assert_eq!(eff, want, "interval divergence for {:?}", gtxn);
            }
        }

        /// Sharded disjointness is the conjunction of per-shard site-global
        /// checks: an entry is consulted iff it shares a key shard with the
        /// candidate.
        #[test]
        fn sharded_check_equals_bruteforce(
            entries in pvec(
                (0u32..10, pvec(0u64..32, 1..4), 0u64..40, any::<bool>()),
                0..8,
            ),
            cand in pvec(0u64..32, 0..4),
            begin in 0u64..60,
            nshards in 2usize..5,
        ) {
            let mut idx = CertIndex::new(nshards);
            let mut table: BTreeMap<u32, (BTreeSet<u64>, u64, bool)> = BTreeMap::new();
            for (k, ks, end, frozen) in entries {
                if table.contains_key(&k) { continue; }
                let ks: BTreeSet<u64> = ks.into_iter().collect();
                idx.register(g(k), &ks, None);
                if frozen {
                    idx.freeze(g(k), end);
                }
                table.insert(k, (ks, end, frozen));
            }
            let now = 100u64; // all alive entries refreshed to 100
            idx.note_refresh(now, 1);
            let cand_keys: BTreeSet<u64> = cand.into_iter().collect();
            let shard_of = |k: u64| (k % nshards as u64) as usize;
            let cand_shards: BTreeSet<usize> = cand_keys.iter().map(|&k| shard_of(k)).collect();
            let want = table.values().any(|(ks, end, frozen)| {
                let shares = ks.iter().any(|&k| cand_shards.contains(&shard_of(k)));
                let eff_end = if *frozen { *end } else { now };
                shares && eff_end < begin
            });
            let got = idx.disjoint(now, begin, &cand_keys);
            prop_assert_eq!(got, want);
        }
    }
}
