//! The definitional certifier table, kept out of the shipped library.
//!
//! §4.2 read literally: every entry keeps *every* alive interval it ever
//! had, each PREPARE eagerly extends every alive entry to `now`, and the
//! candidate passes against an entry if it intersects *any* of its
//! intervals — an alive entry's current one is closed at `now`, every
//! interval a freeze ended is open at its end; Appendix C scans the whole
//! table for a smaller-or-equal serial number. `mdbs_dtm::certifier::Certifier` — one stored interval,
//! a lazy refresh floor, sorted sets — must decide exactly as this does.
//!
//! Included with `#[path]` by `tests/certifier_differential.rs` (the
//! oracle) and by the `certifier_throughput` bench (the linear baseline).

#![allow(dead_code)] // each including target uses a part of it

use std::collections::BTreeMap;

use mdbs_dtm::SerialNumber;
use mdbs_histories::GlobalTxnId;

/// One table row.
#[derive(Debug, Clone)]
pub struct LinearEntry {
    /// Every alive interval the entry ever had, oldest first.
    pub intervals: Vec<(u64, u64)>,
    /// Whether the entry is alive (refreshed at each PREPARE).
    pub alive: bool,
    /// Serial number certified at PREPARE time.
    pub sn: SerialNumber,
}

/// The table.
#[derive(Debug, Default, Clone)]
pub struct LinearReference {
    entries: BTreeMap<GlobalTxnId, LinearEntry>,
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

    /// The entry of `gtxn`, if it is in the table.
    pub fn get(&self, gtxn: GlobalTxnId) -> Option<&LinearEntry> {
        self.entries.get(&gtxn)
    }

    /// Insert or replace an entry.
    pub fn insert(&mut self, gtxn: GlobalTxnId, entry: LinearEntry) {
        self.entries.insert(gtxn, entry);
    }

    /// Remove an entry, returning it.
    pub fn remove(&mut self, gtxn: GlobalTxnId) -> Option<LinearEntry> {
        self.entries.remove(&gtxn)
    }

    /// Freeze an entry (unilateral abort): stop refreshing its interval.
    pub fn freeze(&mut self, gtxn: GlobalTxnId) {
        if let Some(e) = self.entries.get_mut(&gtxn) {
            e.alive = false;
        }
    }

    /// Unfreeze an entry, starting a fresh interval at `fresh_at` (`None`
    /// is the instantly-alive resubmission with nothing to replay, which
    /// starts none).
    pub fn unfreeze(&mut self, gtxn: GlobalTxnId, fresh_at: Option<u64>) {
        if let Some(e) = self.entries.get_mut(&gtxn) {
            e.alive = true;
            e.intervals.extend(fresh_at.map(|now| (now, now)));
        }
    }

    /// Extend one alive entry to `now` (the Appendix A alive-check path).
    pub fn extend(&mut self, gtxn: GlobalTxnId, now: u64) {
        if let Some(e) = self.entries.get_mut(&gtxn).filter(|e| e.alive) {
            if let Some(last) = e.intervals.last_mut() {
                last.1 = now;
            }
        }
    }

    /// The eager PREPARE-time refresh: extend every alive entry to `now`.
    pub fn refresh(&mut self, now: u64) {
        for e in self.entries.values_mut().filter(|e| e.alive) {
            if let Some(last) = e.intervals.last_mut() {
                last.1 = now;
            }
        }
    }

    /// The O(n) §4.2 scan: does a candidate beginning at `candidate_begin`
    /// (and ending now) miss every interval of some entry? A frozen entry
    /// stopped being alive at its intervals' ends, so meeting one there is
    /// missing it.
    pub fn disjoint(&self, candidate_begin: u64) -> bool {
        self.entries.values().any(|e| {
            !e.intervals
                .iter()
                .any(|&(_, end)| end > candidate_begin || (e.alive && end == candidate_begin))
        })
    }

    /// The O(n) Appendix C scan: does another entry carry a serial number
    /// not larger than `my_sn`?
    pub fn commit_blocked(&self, gtxn: GlobalTxnId, my_sn: SerialNumber) -> bool {
        self.entries
            .iter()
            .any(|(g, e)| *g != gtxn && e.sn <= my_sn)
    }
}
