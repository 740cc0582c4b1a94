//! The Certifier: the paper's three appendix algorithms over one table.
//!
//! [`Certifier`] owns the alive-interval table of §4.2 — one entry per
//! subtransaction in the prepared (or commit-pending) state, holding its
//! serial number, its **one** stored alive interval and its local prepare
//! order — plus the site-wide certification state (largest committed and
//! largest prepared serial number). It answers with verdicts and performs
//! no actions; [`crate::agent::Agent`] is 2PC, the Agent log and
//! resubmission around it.
//!
//! * **Appendix B** — [`Certifier::certify_prepare`]: the §5.3 extension
//!   (or the ticket comparator's order check), then §4.2's interval
//!   intersection, then the alive check; `Ok` enters the table.
//! * **Appendix A** — [`Certifier::extend`] (alive check passed),
//!   [`Certifier::freeze`] (unilateral abort), [`Certifier::revive`]
//!   (resubmission complete).
//! * **Appendix C** — [`Certifier::commit_gate`], [`Certifier::leave`] and
//!   [`Certifier::oldest`].
//!
//! Which of the rules run is the [`CertifierMode`]: the paper's protocol
//! and its four §6 comparators are five certification functions over the
//! same table.
//!
//! **Why one stored interval suffices.** §4.2 offers storing several past
//! intervals per entry "as an optimization". A candidate's interval ends at
//! the checking moment, so it intersects an alive entry's interval, which
//! reaches the same moment, and a frozen entry's `(b, e)` iff
//! `candidate_begin < e`; an entry's successive interval ends only grow, so
//! if any stored interval passes, the latest one does.
//! `tests/certifier_differential.rs` checks this table against an oracle
//! that keeps *every* interval an entry ever had and passes on any of them.
//!
//! **Why a frozen interval is open at its end.** A unilateral abort ends
//! the entry's aliveness at the clock reading `e`, and releases its locks
//! in the same step: a command that was waiting on one of them completes
//! at that same reading. Equal readings do not order the two events, so a
//! candidate whose last command completed at `e` is treated as having run
//! after the abort. Admitting it would let a transaction that overwrote the
//! aborted one's bound data prepare beside it: a livelock when the replay
//! waits on the newcomer's lock while the newcomer's COMMIT waits on the
//! replay's smaller serial number, or a global view distortion when the
//! newcomer is aborted in turn and its own replay reads what the first
//! transaction's replay wrote.
//!
//! **Cost.** §4.2 asks whether the candidate `[b, now]` intersects the
//! interval of *every* entry. Alive entries are refreshed to `now` at every
//! PREPARE (§6's inline alive check), so they always intersect; instead of
//! walking them, `certify_prepare` records one *refresh floor*, and an
//! alive entry's effective end is `max(stored end, floor)` whenever a
//! refresh postdates the moment it became alive. The floor is written into
//! the stored interval when the entry freezes, so the table is what an
//! eager refresh loop would have produced. Frozen entries (unilaterally
//! aborted, or mid-resubmission) have a fixed end and only the smallest can
//! refuse, so they sit in a sorted set; Appendix C is a lookup in the
//! sorted serial numbers. This relies on the local clock the host feeds
//! the agent being monotone, which every driver guarantees.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::GlobalTxnId;

use crate::agent::{PreparedEntry, RefuseReason};
use crate::config::CertifierMode;
use crate::sn::SerialNumber;

/// Certification state of one in-table subtransaction.
#[derive(Debug, Clone)]
struct Entry {
    /// Serial number certified at PREPARE time.
    sn: SerialNumber,
    /// The stored alive interval `(begin, end)` (§4.2).
    interval: (u64, u64),
    /// Not alive (unilaterally aborted, or mid-resubmission): the interval
    /// no longer grows and its end is indexed in `Certifier::frozen_ends`.
    frozen: bool,
    /// `Certifier::refreshes` when the entry last became alive.
    alive_since: u64,
    /// Local prepare order (the §5.3 strawman commit rule).
    prepare_seq: u64,
}

impl Entry {
    /// The interval end an eager PREPARE-time refresh loop would have
    /// stored: an entry alive since before the latest refresh reaches the
    /// floor.
    fn end(&self, floor: u64, refreshes: u64) -> u64 {
        if !self.frozen && self.alive_since < refreshes {
            self.interval.1.max(floor)
        } else {
            self.interval.1
        }
    }
}

/// The Certifier of one site (see the module docs).
#[derive(Debug, Clone)]
pub struct Certifier {
    mode: CertifierMode,
    entries: BTreeMap<GlobalTxnId, Entry>,
    /// Serial numbers of all entries, for commit certification.
    sns: BTreeSet<(SerialNumber, GlobalTxnId)>,
    /// Interval ends of the frozen entries.
    frozen_ends: BTreeSet<(u64, GlobalTxnId)>,
    /// Local time of the most recent PREPARE-time refresh.
    floor: u64,
    /// PREPARE-time refreshes so far; orders the floor against the moment
    /// an entry became alive.
    refreshes: u64,
    /// §5.3 extension: largest serial number locally committed.
    max_committed_sn: Option<SerialNumber>,
    /// Ticket comparator: largest serial number ever prepared.
    max_prepared_sn: Option<SerialNumber>,
    /// Entries admitted so far (the source of `Entry::prepare_seq`).
    prepares: u64,
}

impl Certifier {
    /// An empty table under `mode`. `max_committed_sn` is `None` at a fresh
    /// site; crash recovery passes the largest serial number whose commit
    /// record the Agent log holds.
    pub fn new(mode: CertifierMode, max_committed_sn: Option<SerialNumber>) -> Certifier {
        Certifier {
            mode,
            entries: BTreeMap::new(),
            sns: BTreeSet::new(),
            frozen_ends: BTreeSet::new(),
            floor: 0,
            refreshes: 0,
            max_committed_sn,
            max_prepared_sn: None,
            prepares: 0,
        }
    }

    /// Number of in-table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appendix B: certify the PREPARE of `gtxn`, whose last command
    /// completed at `candidate_begin` and whose incarnation is `alive` or
    /// not, at local time `now`. `Ok` enters it into the table alive with
    /// the interval `(candidate_begin, now)`.
    pub fn certify_prepare(
        &mut self,
        now: u64,
        gtxn: GlobalTxnId,
        sn: SerialNumber,
        candidate_begin: u64,
        alive: bool,
    ) -> Result<(), RefuseReason> {
        // §6's inline alive check: every entry alive right now reaches
        // `now`, so long alive-check periods cause no spurious refusals.
        self.floor = self.floor.max(now);
        self.refreshes += 1;

        // §5.3 extension: an "older" transaction already committed here?
        if self.mode.prepare_extension() && self.max_committed_sn.is_some_and(|max| sn < max) {
            return Err(RefuseReason::SnOutOfOrder);
        }
        // Ticket comparator: the predeclared total order refuses any
        // out-of-order PREPARE arrival outright.
        if self.mode.ticket_prepare_check() && self.max_prepared_sn.is_some_and(|max| sn < max) {
            return Err(RefuseReason::SnOutOfOrder);
        }
        // §4.2 basic certification: candidate interval vs. table intervals.
        if self.mode.prepare_certification() && self.disjoint(now, candidate_begin) {
            return Err(RefuseReason::AliveIntervalDisjoint);
        }
        if !alive {
            return Err(RefuseReason::NotAlive);
        }
        self.enter(gtxn, sn, (candidate_begin, now), false);
        Ok(())
    }

    /// §4.2: does the candidate `[candidate_begin, now]` miss the interval
    /// of some entry? Alive entries were just refreshed to `now`; of the
    /// frozen ones only the smallest end can refuse, and it refuses a
    /// candidate that began at that very reading (see the module docs).
    fn disjoint(&self, now: u64, candidate_begin: u64) -> bool {
        let alive = self.entries.len() - self.frozen_ends.len();
        (alive > 0 && now < candidate_begin)
            || self
                .frozen_ends
                .first()
                .is_some_and(|&(end, _)| end <= candidate_begin)
    }

    fn enter(&mut self, gtxn: GlobalTxnId, sn: SerialNumber, interval: (u64, u64), frozen: bool) {
        self.prepares += 1;
        self.max_prepared_sn = self.max_prepared_sn.max(Some(sn));
        self.sns.insert((sn, gtxn));
        if frozen {
            self.frozen_ends.insert((interval.1, gtxn));
        }
        let entry = Entry {
            sn,
            interval,
            frozen,
            alive_since: self.refreshes,
            prepare_seq: self.prepares,
        };
        let stale = self.entries.insert(gtxn, entry);
        debug_assert!(stale.is_none(), "{gtxn:?} entered the table twice");
    }

    /// Crash recovery: `gtxn` was prepared with `sn` when the site went
    /// down. It re-enters the table frozen with the conservative interval
    /// `(0, 0)` — nothing that ran after the crash certifies against it
    /// until its resubmission completes. Restore in serial-number order, so
    /// the local prepare order agrees with the certified one.
    pub fn restore(&mut self, gtxn: GlobalTxnId, sn: SerialNumber) {
        self.enter(gtxn, sn, (0, 0), true);
    }

    /// Appendix A, alive check passed: the alive entry's interval reaches
    /// `now`. No-op if absent or frozen.
    pub fn extend(&mut self, gtxn: GlobalTxnId, now: u64) {
        if let Some(e) = self.entries.get_mut(&gtxn).filter(|e| !e.frozen) {
            e.interval.1 = now;
        }
    }

    /// Appendix A, unilateral abort: the entry's interval stops growing at
    /// its effective end — the one place the refresh floor is written into
    /// a stored interval. No-op if absent or already frozen.
    pub fn freeze(&mut self, gtxn: GlobalTxnId) {
        if let Some(e) = self.entries.get_mut(&gtxn).filter(|e| !e.frozen) {
            e.interval.1 = e.end(self.floor, self.refreshes);
            e.frozen = true;
            self.frozen_ends.insert((e.interval.1, gtxn));
        }
    }

    /// Appendix A, resubmission complete: the entry is alive again, with
    /// the fresh interval `(now, now)` when a replay just finished at
    /// `fresh_at = Some(now)`; with nothing to replay it keeps its stored
    /// interval until the next alive check or PREPARE extends it. No-op if
    /// absent or already alive.
    pub fn revive(&mut self, gtxn: GlobalTxnId, fresh_at: Option<u64>) {
        if let Some(e) = self.entries.get_mut(&gtxn).filter(|e| e.frozen) {
            self.frozen_ends.remove(&(e.interval.1, gtxn));
            e.frozen = false;
            e.alive_since = self.refreshes;
            if let Some(now) = fresh_at {
                e.interval = (now, now);
            }
        }
    }

    /// Appendix C commit certification: may `gtxn` commit locally now?
    /// Under the serial-number rule every *other* entry must be strictly
    /// younger (local commits happen in serial-number order), and the
    /// smallest other serial number decides; under the §5.3 strawman every
    /// other entry must have been prepared here later.
    pub fn commit_gate(&self, gtxn: GlobalTxnId) -> bool {
        let Some(me) = self.entries.get(&gtxn) else {
            return true; // nothing in the table to order it against
        };
        if self.mode.sn_commit_certification() {
            self.sns
                .iter()
                .find(|(_, g)| *g != gtxn)
                .is_none_or(|&(sn, _)| sn > me.sn)
        } else if self.mode.prepare_order_commit() {
            self.entries
                .iter()
                .filter(|(g, _)| **g != gtxn)
                .all(|(_, o)| o.prepare_seq > me.prepare_seq)
        } else {
            true
        }
    }

    /// The entry leaves the table: locally `committed` (its serial number
    /// advances the §5.3 watermark), or rolled back. No-op if absent.
    pub fn leave(&mut self, gtxn: GlobalTxnId, committed: bool) {
        let Some(e) = self.entries.remove(&gtxn) else {
            return;
        };
        self.sns.remove(&(e.sn, gtxn));
        if e.frozen {
            self.frozen_ends.remove(&(e.interval.1, gtxn));
        }
        if committed {
            self.max_committed_sn = self.max_committed_sn.max(Some(e.sn));
        }
    }

    /// The entry with the smallest serial number — the only one the
    /// serial-number rule can currently let through. `None` under the
    /// comparator modes, which have no such single entry.
    pub fn oldest(&self) -> Option<GlobalTxnId> {
        let (_, gtxn) = self.sns.first()?;
        self.mode.sn_commit_certification().then_some(*gtxn)
    }

    /// The table as an eager refresh loop would have stored it, in
    /// transaction order (`commit_pending` is the agent's to fill in). The
    /// observation hook of the bounded model checker's independent §4
    /// check; the protocol never reads it back.
    pub fn snapshot(&self) -> Vec<PreparedEntry> {
        self.entries
            .iter()
            .map(|(&gtxn, e)| PreparedEntry {
                gtxn,
                sn: e.sn,
                interval: (e.interval.0, e.end(self.floor, self.refreshes)),
                alive: !e.frozen,
                commit_pending: false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn cert(mode: CertifierMode) -> Certifier {
        Certifier::new(mode, None)
    }

    /// Admit `k` (alive, last command just completed) with `sn(t)` at `now`.
    fn admit(c: &mut Certifier, now: u64, k: u32, t: u64) {
        assert_eq!(c.certify_prepare(now, g(k), sn(t), now, true), Ok(()));
    }

    /// The verdict on a candidate beginning at `begin`, certified at `now`
    /// (an accepted probe is taken out again).
    fn probe(c: &mut Certifier, now: u64, begin: u64) -> Result<(), RefuseReason> {
        let verdict = c.certify_prepare(now, g(999), sn(999), begin, true);
        c.leave(g(999), false);
        verdict
    }

    const DISJOINT: Result<(), RefuseReason> = Err(RefuseReason::AliveIntervalDisjoint);

    #[test]
    fn empty_table_admits_anything_alive() {
        let mut c = cert(CertifierMode::Full);
        assert_eq!(probe(&mut c, 100, 50), Ok(()));
        assert_eq!(
            c.certify_prepare(100, g(1), sn(1), 50, false),
            Err(RefuseReason::NotAlive)
        );
        assert!(c.is_empty());
    }

    #[test]
    fn frozen_min_end_drives_the_refusal() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 40, 1, 1);
        admit(&mut c, 40, 2, 2);
        c.freeze(g(1));
        // A candidate that began at 39 still meets the frozen end 40 …
        assert_eq!(probe(&mut c, 100, 39), Ok(()));
        // … one that began at 40 misses it: the frozen interval is open at
        // its end.
        assert_eq!(probe(&mut c, 100, 40), DISJOINT);
        assert_eq!(probe(&mut c, 100, 41), DISJOINT);
    }

    #[test]
    fn freeze_writes_the_refresh_floor_into_the_interval() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 10, 1, 1);
        // A later PREPARE refreshes the alive entry to 60 without touching it.
        assert_eq!(probe(&mut c, 60, 60), Ok(()));
        assert_eq!(c.snapshot()[0].interval, (10, 60));
        c.freeze(g(1));
        assert_eq!(c.snapshot()[0].interval, (10, 60));
        assert!(!c.snapshot()[0].alive);
        // Refreshes after the freeze no longer reach it.
        assert_eq!(probe(&mut c, 90, 59), Ok(()));
        assert_eq!(probe(&mut c, 90, 60), DISJOINT);
        assert_eq!(c.snapshot()[0].interval, (10, 60));
    }

    #[test]
    fn revive_clears_the_frozen_end() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 40, 1, 1);
        c.freeze(g(1));
        assert_eq!(probe(&mut c, 100, 41), DISJOINT);
        c.revive(g(1), Some(100));
        assert_eq!(c.snapshot()[0].interval, (100, 100));
        assert_eq!(probe(&mut c, 120, 110), Ok(()));
    }

    #[test]
    fn revive_without_a_replay_keeps_the_stale_interval() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 40, 1, 1);
        c.freeze(g(1));
        assert_eq!(probe(&mut c, 50, 30), Ok(())); // a refresh while frozen
        c.revive(g(1), None);
        // The refresh at 50 predates the revival: it does not apply.
        assert_eq!(c.snapshot()[0].interval, (40, 40));
        c.extend(g(1), 70);
        assert_eq!(c.snapshot()[0].interval, (40, 70));
    }

    #[test]
    fn leave_works_in_both_states() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 10, 1, 1);
        admit(&mut c, 10, 2, 2);
        c.freeze(g(1));
        c.leave(g(1), false);
        c.leave(g(2), false);
        assert!(c.is_empty());
        assert_eq!(probe(&mut c, 100, 99), Ok(()));
        assert_eq!(c.oldest(), None);
    }

    #[test]
    fn restored_zero_interval_blocks_everyone_until_revived() {
        let mut c = cert(CertifierMode::Full);
        c.restore(g(1), sn(1));
        // Every candidate is disjoint from (0, 0).
        assert_eq!(probe(&mut c, 100, 1), DISJOINT);
        assert_eq!(probe(&mut c, 100, 0), DISJOINT);
        c.revive(g(1), Some(100));
        assert_eq!(probe(&mut c, 101, 100), Ok(()));
    }

    #[test]
    fn extension_refuses_below_the_committed_watermark() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 10, 1, 50);
        c.leave(g(1), true);
        assert_eq!(
            c.certify_prepare(20, g(2), sn(40), 20, true),
            Err(RefuseReason::SnOutOfOrder)
        );
        // A rollback advances nothing, and recovery seeds the watermark.
        admit(&mut c, 30, 3, 90);
        c.leave(g(3), false);
        admit(&mut c, 40, 4, 60);
        let mut recovered = Certifier::new(CertifierMode::Full, Some(sn(50)));
        assert_eq!(
            recovered.certify_prepare(20, g(2), sn(40), 20, true),
            Err(RefuseReason::SnOutOfOrder)
        );
    }

    #[test]
    fn commit_gate_matches_the_paper_rule() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 10, 1, 5);
        admit(&mut c, 10, 2, 9);
        // sn 5 is the oldest: it may go. sn 9 waits for sn 5.
        assert!(c.commit_gate(g(1)));
        assert!(!c.commit_gate(g(2)));
        assert_eq!(c.oldest(), Some(g(1)));
        c.leave(g(1), true);
        assert!(c.commit_gate(g(2)));
    }

    #[test]
    fn equal_serial_numbers_block_each_other() {
        let mut c = cert(CertifierMode::Full);
        admit(&mut c, 10, 1, 5);
        admit(&mut c, 10, 2, 5);
        assert!(!c.commit_gate(g(1)));
        assert!(!c.commit_gate(g(2)));
    }

    #[test]
    fn prepare_order_gates_by_local_admission_and_has_no_oldest() {
        let mut c = cert(CertifierMode::PrepareOrder);
        admit(&mut c, 10, 1, 99); // prepared first, huge sn
        admit(&mut c, 10, 2, 1); // prepared second, tiny sn
        assert!(c.commit_gate(g(1)));
        assert!(!c.commit_gate(g(2)));
        assert_eq!(c.oldest(), None);
    }
}
