//! The Local Transaction Manager engine.
//!
//! [`Ldbs`] combines the row store, the S2PL lock manager and an active
//! transaction table into the LTM of Fig. 1: it accepts DML commands at the
//! local interface (LI), decomposes them to elementary operations at the
//! elementary interface (EI), blocks on lock conflicts, and terminates
//! transactions with before-image rollback.
//!
//! The engine is a synchronous state machine — the surrounding simulation
//! decides *when* things happen; the engine decides *what* happens. A
//! command either runs to completion ([`ExecStep::Done`]) or suspends on a
//! lock ([`ExecStep::Blocked`]); lock releases at commit/abort resume
//! suspended commands and the results are handed back as [`ResumedExec`]s.
//!
//! Every elementary operation, local commit and local abort is appended to
//! the site history log in execution order, in the `mdbs-histories`
//! vocabulary — the simulation's correctness checking consumes these logs
//! directly.
//!
//! **Bound data / DLU** (§2): the 2PC Agent marks the items of a prepared
//! subtransaction *bound* via [`Ldbs::bind`]. While an item is bound, an
//! exclusive-lock request by a *local* transaction is held back (if DLU
//! enforcement is on) until [`Ldbs::unbind`]; reads and global
//! subtransactions are unaffected.

use std::collections::{BTreeMap, VecDeque};

use mdbs_histories::{History, Instance, Item, Op, OpKind, SiteId, Txn};

use crate::command::{Command, CommandResult, Elementary, WriteEffect};
use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::profile::{SiteProfile, VictimPolicy};
use crate::store::{BeforeImage, Store};

/// Outcome of driving a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecStep {
    /// The command completed with this result.
    Done(CommandResult),
    /// The command is suspended on a lock; it resumes automatically when
    /// the lock is granted.
    Blocked,
}

/// A suspended command that made progress after a lock release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumedExec {
    /// The transaction whose command progressed.
    pub instance: Instance,
    /// Its new state: completed or blocked again.
    pub step: ExecStep,
}

/// Errors surfaced to the engine's caller (protocol bugs, not data states).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Operation on a transaction the engine does not know.
    UnknownTransaction(Instance),
    /// `begin` of an instance that is already active.
    AlreadyActive(Instance),
    /// A new command was submitted while one is still in flight.
    CommandInFlight(Instance),
    /// Commit requested while a command is still in flight or blocked.
    CommitWhileBusy(Instance),
}

#[derive(Debug, Default)]
struct ActiveTxn {
    /// Remaining elementary operations of the in-flight command.
    plan: VecDeque<Elementary>,
    /// Rows observed by the in-flight command.
    result: CommandResult,
    /// Undo log (before-images) for the whole transaction, in do-order.
    undo: Vec<BeforeImage>,
    /// Elementary operations executed so far (victim policy "youngest").
    ops_executed: usize,
}

/// One local database system: store + lock manager + transaction table.
#[derive(Debug)]
pub struct Ldbs {
    site: SiteId,
    profile: SiteProfile,
    store: Store,
    locks: LockManager,
    active: BTreeMap<Instance, ActiveTxn>,
    /// Bound items (2PCA-prepared data) and their owning global transaction.
    bound: BTreeMap<u64, Txn>,
    /// Whether the DLU restriction is enforced (off = ablation XT6).
    enforce_dlu: bool,
    /// The site history, in execution order.
    log: Vec<Op>,
}

impl Ldbs {
    /// Create a site engine over an initial store.
    pub fn new(site: SiteId, profile: SiteProfile, store: Store) -> Ldbs {
        Ldbs {
            site,
            profile,
            store,
            locks: LockManager::new(),
            active: BTreeMap::new(),
            bound: BTreeMap::new(),
            enforce_dlu: true,
            log: Vec::new(),
        }
    }

    /// Disable or enable DLU enforcement (default: enabled).
    pub fn set_enforce_dlu(&mut self, on: bool) {
        self.enforce_dlu = on;
    }

    /// This engine's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The site profile in effect.
    pub fn profile(&self) -> &SiteProfile {
        &self.profile
    }

    /// Read access to the store (for audits and assertions).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The site history accumulated so far.
    pub fn site_history(&self) -> History {
        History::from_ops(self.log.iter().copied())
    }

    /// Drain the site history log (the harness moves it into the global
    /// history as events are interleaved).
    pub fn take_log(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.log)
    }

    /// Whether the instance is active (begun, not terminated).
    pub fn is_active(&self, instance: Instance) -> bool {
        self.active.contains_key(&instance)
    }

    /// Begin a transaction.
    pub fn begin(&mut self, instance: Instance) -> Result<(), EngineError> {
        debug_assert_eq!(instance.site, self.site, "instance routed to wrong site");
        if self.active.contains_key(&instance) {
            return Err(EngineError::AlreadyActive(instance));
        }
        self.active.insert(instance, ActiveTxn::default());
        Ok(())
    }

    /// Submit a DML command. At most one command may be in flight per
    /// transaction (the LI is conversational).
    pub fn submit(
        &mut self,
        instance: Instance,
        command: &Command,
    ) -> Result<ExecStep, EngineError> {
        let txn = self
            .active
            .get_mut(&instance)
            .ok_or(EngineError::UnknownTransaction(instance))?;
        if !txn.plan.is_empty() {
            return Err(EngineError::CommandInFlight(instance));
        }
        // DDF: decomposition against the current concrete state.
        txn.plan = command.decompose(&self.store, &self.profile).into();
        txn.result = CommandResult::default();
        Ok(self.drive(instance))
    }

    /// Execute the instance's plan until it completes or blocks.
    fn drive(&mut self, instance: Instance) -> ExecStep {
        loop {
            let Some(txn) = self.active.get(&instance) else {
                // Aborted while suspended; nothing to do.
                return ExecStep::Blocked;
            };
            let Some(&next) = txn.plan.front() else {
                let txn = self.active.get_mut(&instance).expect("checked");
                return ExecStep::Done(std::mem::take(&mut txn.result));
            };
            let key = next.key();
            let mode = if next.is_write() {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let dlu_hold = self.dlu_blocks(instance, &next);
            match self.locks.request(instance, key, mode, dlu_hold) {
                LockOutcome::Waiting => return ExecStep::Blocked,
                LockOutcome::Granted => self.execute_elementary(instance, next),
            }
        }
    }

    /// Whether the DLU rule holds this elementary operation back.
    fn dlu_blocks(&self, instance: Instance, op: &Elementary) -> bool {
        if !self.enforce_dlu || !op.is_write() || !instance.txn.is_local() {
            return false;
        }
        self.bound
            .get(&op.key())
            .is_some_and(|owner| *owner != instance.txn)
    }

    /// Perform one granted elementary operation.
    fn execute_elementary(&mut self, instance: Instance, op: Elementary) {
        let item = Item::new(self.site, op.key());
        match op {
            Elementary::Read(k) => {
                if let Some(v) = self.store.get(k) {
                    let txn = self.active.get_mut(&instance).expect("active");
                    txn.result.rows.push((k, v));
                }
                self.log.push(Op {
                    txn: instance.txn,
                    incarnation: instance.incarnation,
                    kind: OpKind::Read(item),
                });
            }
            Elementary::Write(k, effect) => {
                let image = match effect {
                    WriteEffect::Add(d) => {
                        let cur = self.store.get(k);
                        match cur {
                            Some(v) => self.store.put(k, v + d),
                            None => (k, None), // row vanished: no-op write
                        }
                    }
                    WriteEffect::Set(v) => self.store.put(k, v),
                    WriteEffect::Remove => self.store.delete(k),
                };
                let txn = self.active.get_mut(&instance).expect("active");
                txn.undo.push(image);
                txn.result.wrote.push(k);
                self.log.push(Op {
                    txn: instance.txn,
                    incarnation: instance.incarnation,
                    kind: OpKind::Write(item),
                });
            }
        }
        let txn = self.active.get_mut(&instance).expect("active");
        txn.ops_executed += 1;
        txn.plan.pop_front();
    }

    /// Locally commit a transaction: append `C^s`, release all locks,
    /// resume whoever the released locks unblock.
    pub fn commit(&mut self, instance: Instance) -> Result<Vec<ResumedExec>, EngineError> {
        let txn = self
            .active
            .get(&instance)
            .ok_or(EngineError::UnknownTransaction(instance))?;
        if !txn.plan.is_empty() {
            return Err(EngineError::CommitWhileBusy(instance));
        }
        self.active.remove(&instance);
        self.log.push(Op {
            txn: instance.txn,
            incarnation: instance.incarnation,
            kind: OpKind::LocalCommit(self.site),
        });
        Ok(self.release_and_resume(instance))
    }

    /// Locally abort a transaction: undo its writes (RR), append `A^s`,
    /// release locks, resume waiters. Aborting a blocked transaction is
    /// allowed (its queued lock requests are withdrawn).
    pub fn abort(&mut self, instance: Instance) -> Result<Vec<ResumedExec>, EngineError> {
        let txn = self
            .active
            .remove(&instance)
            .ok_or(EngineError::UnknownTransaction(instance))?;
        for image in txn.undo.into_iter().rev() {
            self.store.restore(image);
        }
        self.log.push(Op {
            txn: instance.txn,
            incarnation: instance.incarnation,
            kind: OpKind::LocalAbort(self.site),
        });
        Ok(self.release_and_resume(instance))
    }

    /// A unilateral abort (E-autonomy): semantically identical to
    /// [`Ldbs::abort`]; the caller is responsible for delivering the UAN to
    /// the site's 2PC Agent.
    pub fn unilateral_abort(
        &mut self,
        instance: Instance,
    ) -> Result<Vec<ResumedExec>, EngineError> {
        self.abort(instance)
    }

    fn release_and_resume(&mut self, instance: Instance) -> Vec<ResumedExec> {
        let granted = self.locks.release_all(instance);
        self.resume_granted(granted)
    }

    fn resume_granted(&mut self, granted: Vec<(Instance, u64, LockMode)>) -> Vec<ResumedExec> {
        let mut out = Vec::new();
        for (owner, _key, _mode) in granted {
            if self.active.contains_key(&owner) {
                let step = self.drive(owner);
                out.push(ResumedExec {
                    instance: owner,
                    step,
                });
            }
        }
        out
    }

    /// Mark items as bound data of `owner` (called by the 2PCA at prepare).
    ///
    /// Also retroactively holds back already-queued exclusive requests by
    /// local transactions: without this, a local updater that queued while
    /// the subtransaction still held its ordinary locks would be granted
    /// the moment a unilateral abort releases them — defeating DLU exactly
    /// when it matters.
    pub fn bind(&mut self, keys: impl IntoIterator<Item = u64>, owner: Txn) {
        for k in keys {
            self.bound.insert(k, owner);
            if self.enforce_dlu {
                self.locks.impose_dlu_holds(k, |inst, mode| {
                    mode == LockMode::Exclusive && inst.txn.is_local() && inst.txn != owner
                });
            }
        }
    }

    /// Remove the binding of `owner`'s bound items and resume any local
    /// updaters the DLU rule was holding back.
    pub fn unbind_all_of(&mut self, owner: Txn) -> Vec<ResumedExec> {
        let keys: Vec<u64> = self
            .bound
            .iter()
            .filter(|(_, o)| **o == owner)
            .map(|(k, _)| *k)
            .collect();
        let mut resumed = Vec::new();
        for k in keys {
            self.bound.remove(&k);
            let granted = self.locks.lift_dlu_holds(k);
            resumed.extend(self.resume_granted(granted));
        }
        resumed
    }

    /// Drop all DLU bindings (used after a site crash: the volatile bound
    /// map dies with the process; the recovered agent re-binds from its
    /// durable log).
    pub fn clear_bindings(&mut self) {
        let keys: Vec<u64> = self.bound.keys().copied().collect();
        self.bound.clear();
        for k in keys {
            // Any DLU-held waiters also died with the crash; their lock
            // requests are cleaned up when their owners are aborted.
            let _ = self.locks.lift_dlu_holds(k);
        }
    }

    /// All currently active instances (used by the crash injector to roll
    /// back everything at once — the paper's collective abort).
    pub fn active_instances(&self) -> Vec<Instance> {
        self.active.keys().copied().collect()
    }

    /// If the waits-for graph has a cycle, pick a victim per the site's
    /// policy. `&mut` because the lock manager remembers an acyclic verdict
    /// (see [`LockManager::deadlocked`]).
    pub fn deadlock_victim(&mut self) -> Option<Instance> {
        let cycle = self.locks.deadlocked()?;
        let pick = match self.profile.victim_policy {
            VictimPolicy::Youngest => cycle
                .iter()
                .min_by_key(|i| self.active.get(i).map_or(usize::MAX, |t| t.ops_executed)),
            VictimPolicy::FewestLocks => cycle.iter().min_by_key(|i| self.locks.lock_count(**i)),
        };
        pick.copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::KeySpec;

    const A: SiteId = SiteId(0);

    fn engine() -> Ldbs {
        Ldbs::new(A, SiteProfile::default(), Store::with_rows(10, 100))
    }
    fn g(k: u32) -> Instance {
        Instance::global(k, A, 0)
    }
    fn gi(k: u32, j: u32) -> Instance {
        Instance::global(k, A, j)
    }
    fn l(n: u32) -> Instance {
        Instance::local(A, n)
    }

    fn done(step: ExecStep) -> CommandResult {
        match step {
            ExecStep::Done(r) => r,
            ExecStep::Blocked => panic!("unexpectedly blocked"),
        }
    }

    #[test]
    fn select_returns_rows() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        let r = done(
            db.submit(g(1), &Command::Select(KeySpec::Range(0, 2)))
                .unwrap(),
        );
        assert_eq!(r.rows, vec![(0, 100), (1, 100), (2, 100)]);
        assert_eq!(r.written(), 0);
    }

    #[test]
    fn update_applies_and_commit_persists() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 5))
                .unwrap(),
        );
        db.commit(g(1)).unwrap();
        assert_eq!(db.store().get(0), Some(105));
    }

    #[test]
    fn abort_restores_before_images() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 5))
                .unwrap(),
        );
        done(db.submit(g(1), &Command::Delete(KeySpec::Key(1))).unwrap());
        done(db.submit(g(1), &Command::Insert(99, 1)).unwrap());
        db.abort(g(1)).unwrap();
        assert_eq!(db.store().get(0), Some(100));
        assert_eq!(db.store().get(1), Some(100));
        assert_eq!(db.store().get(99), None);
    }

    #[test]
    fn conflicting_writer_blocks_and_resumes() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        let step = db
            .submit(g(2), &Command::Update(KeySpec::Key(0), 10))
            .unwrap();
        assert_eq!(step, ExecStep::Blocked);
        let resumed = db.commit(g(1)).unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].instance, g(2));
        assert!(matches!(resumed[0].step, ExecStep::Done(_)));
        db.commit(g(2)).unwrap();
        assert_eq!(db.store().get(0), Some(111));
    }

    #[test]
    fn readers_share() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(db.submit(g(1), &Command::Select(KeySpec::Key(3))).unwrap());
        done(db.submit(g(2), &Command::Select(KeySpec::Key(3))).unwrap());
    }

    #[test]
    fn site_history_is_rigorous_under_s2pl() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        assert_eq!(
            db.submit(g(2), &Command::Update(KeySpec::Key(0), 2))
                .unwrap(),
            ExecStep::Blocked
        );
        db.commit(g(1)).unwrap();
        db.commit(g(2)).unwrap();
        let h = db.site_history();
        assert!(mdbs_histories::is_rigorous(&h), "history: {h}");
    }

    #[test]
    fn blocked_txn_can_be_aborted() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        assert_eq!(
            db.submit(g(2), &Command::Update(KeySpec::Key(0), 2))
                .unwrap(),
            ExecStep::Blocked
        );
        db.abort(g(2)).unwrap();
        assert!(!db.is_active(g(2)));
        let resumed = db.commit(g(1)).unwrap();
        assert!(resumed.is_empty());
    }

    #[test]
    fn deadlock_detected_and_victim_chosen() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        done(
            db.submit(g(2), &Command::Update(KeySpec::Key(1), 1))
                .unwrap(),
        );
        assert_eq!(
            db.submit(g(1), &Command::Update(KeySpec::Key(1), 1))
                .unwrap(),
            ExecStep::Blocked
        );
        assert_eq!(
            db.submit(g(2), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
            ExecStep::Blocked
        );
        let victim = db.deadlock_victim().expect("deadlock");
        assert!(victim == g(1) || victim == g(2));
        // Aborting the victim unblocks the other.
        let other = if victim == g(1) { g(2) } else { g(1) };
        let resumed = db.abort(victim).unwrap();
        assert!(resumed.iter().any(|r| r.instance == other));
        assert!(db.deadlock_victim().is_none());
    }

    #[test]
    fn dlu_blocks_local_updater_on_bound_data() {
        let mut db = engine();
        db.bind([0u64], Txn::global(1));
        db.begin(l(9)).unwrap();
        let step = db
            .submit(l(9), &Command::Update(KeySpec::Key(0), 1))
            .unwrap();
        assert_eq!(step, ExecStep::Blocked);
        // Reads of bound data are allowed.
        db.begin(l(8)).unwrap();
        let r = done(db.submit(l(8), &Command::Select(KeySpec::Key(0))).unwrap());
        assert_eq!(r.rows.len(), 1);
        db.commit(l(8)).unwrap(); // release the shared lock (S2PL)
                                  // Unbinding resumes the updater.
        let resumed = db.unbind_all_of(Txn::global(1));
        assert!(resumed
            .iter()
            .any(|r| r.instance == l(9) && matches!(r.step, ExecStep::Done(_))));
    }

    #[test]
    fn dlu_does_not_block_global_subtxns() {
        let mut db = engine();
        db.bind([0u64], Txn::global(1));
        db.begin(g(2)).unwrap();
        let step = db
            .submit(g(2), &Command::Update(KeySpec::Key(0), 1))
            .unwrap();
        assert!(matches!(step, ExecStep::Done(_)));
    }

    #[test]
    fn dlu_does_not_block_owners_resubmission() {
        let mut db = engine();
        db.bind([0u64], Txn::global(1));
        db.begin(gi(1, 1)).unwrap();
        let step = db
            .submit(gi(1, 1), &Command::Update(KeySpec::Key(0), 1))
            .unwrap();
        assert!(matches!(step, ExecStep::Done(_)));
    }

    #[test]
    fn dlu_violation_possible_when_disabled() {
        let mut db = engine();
        db.set_enforce_dlu(false);
        db.bind([0u64], Txn::global(1));
        db.begin(l(9)).unwrap();
        let step = db
            .submit(l(9), &Command::Update(KeySpec::Key(0), 1))
            .unwrap();
        assert!(matches!(step, ExecStep::Done(_)), "ablation path");
    }

    #[test]
    fn resubmission_logs_new_incarnation() {
        let mut db = engine();
        db.begin(gi(1, 0)).unwrap();
        done(
            db.submit(gi(1, 0), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        db.unilateral_abort(gi(1, 0)).unwrap();
        db.begin(gi(1, 1)).unwrap();
        done(
            db.submit(gi(1, 1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        db.commit(gi(1, 1)).unwrap();
        let h = db.site_history();
        assert!(mdbs_histories::is_rigorous(&h));
        assert_eq!(db.store().get(0), Some(101), "exactly one increment");
        // The log distinguishes incarnations.
        let incs: Vec<u32> = h
            .ops()
            .iter()
            .filter(|o| o.kind.is_data_op())
            .map(|o| o.incarnation)
            .collect();
        assert!(incs.contains(&0) && incs.contains(&1));
    }

    #[test]
    fn errors_on_protocol_misuse() {
        let mut db = engine();
        assert_eq!(
            db.submit(g(1), &Command::Select(KeySpec::Key(0))),
            Err(EngineError::UnknownTransaction(g(1)))
        );
        db.begin(g(1)).unwrap();
        assert_eq!(db.begin(g(1)), Err(EngineError::AlreadyActive(g(1))));
        assert_eq!(db.commit(g(2)), Err(EngineError::UnknownTransaction(g(2))));
    }

    #[test]
    fn commit_while_blocked_rejected() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        assert_eq!(
            db.submit(g(2), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
            ExecStep::Blocked
        );
        assert_eq!(db.commit(g(2)), Err(EngineError::CommitWhileBusy(g(2))));
    }

    #[test]
    fn command_in_flight_rejected() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        db.begin(g(2)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
        );
        assert_eq!(
            db.submit(g(2), &Command::Update(KeySpec::Key(0), 1))
                .unwrap(),
            ExecStep::Blocked
        );
        assert_eq!(
            db.submit(g(2), &Command::Select(KeySpec::Key(1))),
            Err(EngineError::CommandInFlight(g(2)))
        );
    }

    #[test]
    fn take_log_drains() {
        let mut db = engine();
        db.begin(g(1)).unwrap();
        done(db.submit(g(1), &Command::Select(KeySpec::Key(0))).unwrap());
        db.commit(g(1)).unwrap();
        let ops = db.take_log();
        assert_eq!(ops.len(), 2); // R + C
        assert!(db.take_log().is_empty());
    }

    #[test]
    fn total_balance_conserved_by_transfers() {
        let mut db = engine();
        let initial = db.store().total();
        db.begin(g(1)).unwrap();
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(0), -10))
                .unwrap(),
        );
        done(
            db.submit(g(1), &Command::Update(KeySpec::Key(1), 10))
                .unwrap(),
        );
        db.commit(g(1)).unwrap();
        assert_eq!(db.store().total(), initial);
    }
}
