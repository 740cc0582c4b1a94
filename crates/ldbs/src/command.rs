//! DML commands and the deterministic decomposition function (DDF).
//!
//! §2: "The LTM transforms the high level database manipulation commands
//! `O^i` into a sequence of elementary commands R and W. There is a
//! time-independent deterministic decomposition function `D(O^i, S^i)`
//! defined over the set of all DML commands … and set of concrete database
//! states." Decomposition therefore *depends on the state*: an `UPDATE` of a
//! deleted row decomposes to nothing — exactly the mechanism by which T1's
//! resubmission in H1 shrinks after T2 deletes `Y^a`.

use crate::profile::SiteProfile;
use crate::store::Store;

/// Which rows a command addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySpec {
    /// A single row.
    Key(u64),
    /// All existing rows in the inclusive range.
    Range(u64, u64),
}

impl KeySpec {
    /// The existing keys this spec resolves to in `state`, in the site's
    /// decomposition order.
    pub fn resolve(&self, state: &Store, profile: &SiteProfile) -> Vec<u64> {
        let mut keys = match *self {
            KeySpec::Key(k) => {
                if state.exists(k) {
                    vec![k]
                } else {
                    vec![]
                }
            }
            KeySpec::Range(lo, hi) => state.keys_in_range(lo, hi),
        };
        if profile.descending_decomposition {
            keys.reverse();
        }
        keys
    }
}

/// A SQL-like DML command against one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// `SELECT` the addressed rows (elementary reads).
    Select(KeySpec),
    /// `UPDATE … SET v = v + delta` on the addressed rows (read + write
    /// per row).
    Update(KeySpec, i64),
    /// `UPDATE … SET v = value` on the addressed rows.
    Assign(KeySpec, i64),
    /// `INSERT` a row (uniqueness read + write). Overwrites if present,
    /// mirroring an `INSERT OR REPLACE`.
    Insert(u64, i64),
    /// `DELETE` the addressed rows (read + write per row).
    Delete(KeySpec),
}

/// One elementary operation of a decomposed command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elementary {
    /// Read a key.
    Read(u64),
    /// Write a key with the planned effect.
    Write(u64, WriteEffect),
}

/// The effect a planned elementary write will have when executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteEffect {
    /// Add a delta to the row's value.
    Add(i64),
    /// Set the row's value.
    Set(i64),
    /// Remove the row.
    Remove,
}

impl Elementary {
    /// The key the elementary operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            Elementary::Read(k) | Elementary::Write(k, _) => k,
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Elementary::Write(..))
    }
}

/// Rows returned by a command (key, value-at-read for selects / updates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommandResult {
    /// Rows observed, in decomposition order.
    pub rows: Vec<(u64, i64)>,
    /// Keys written, in execution order (the 2PCA derives bound data from
    /// these plus the read rows).
    pub wrote: Vec<u64>,
}

impl CommandResult {
    /// Number of rows written.
    pub fn written(&self) -> usize {
        self.wrote.len()
    }

    /// All keys this command touched (read or written).
    pub fn touched_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows
            .iter()
            .map(|(k, _)| *k)
            .chain(self.wrote.iter().copied())
    }
}

impl Command {
    /// The deterministic decomposition function `D(O, S)`.
    ///
    /// Same command + same concrete state (+ same site profile) always
    /// yields the same elementary sequence — the DDF and RTT assumptions.
    pub fn decompose(&self, state: &Store, profile: &SiteProfile) -> Vec<Elementary> {
        let mut plan = Vec::new();
        match *self {
            Command::Select(spec) => {
                for k in spec.resolve(state, profile) {
                    plan.push(Elementary::Read(k));
                }
            }
            Command::Update(spec, delta) => {
                for k in spec.resolve(state, profile) {
                    plan.push(Elementary::Read(k));
                    plan.push(Elementary::Write(k, WriteEffect::Add(delta)));
                }
            }
            Command::Assign(spec, v) => {
                for k in spec.resolve(state, profile) {
                    plan.push(Elementary::Read(k));
                    plan.push(Elementary::Write(k, WriteEffect::Set(v)));
                }
            }
            Command::Insert(k, v) => {
                // Uniqueness check reads the slot, then writes it.
                plan.push(Elementary::Read(k));
                plan.push(Elementary::Write(k, WriteEffect::Set(v)));
            }
            Command::Delete(spec) => {
                for k in spec.resolve(state, profile) {
                    plan.push(Elementary::Read(k));
                    plan.push(Elementary::Write(k, WriteEffect::Remove));
                }
            }
        }
        plan
    }

    /// The keys this command *may* write (used for DLU bound-data checks
    /// before execution).
    pub fn write_keys(&self, state: &Store, profile: &SiteProfile) -> Vec<u64> {
        self.decompose(state, profile)
            .into_iter()
            .filter(Elementary::is_write)
            .map(|e| e.key())
            .collect()
    }

    /// Whether the command performs any writes (given the state).
    pub fn is_update(&self) -> bool {
        !matches!(self, Command::Select(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> SiteProfile {
        SiteProfile::default()
    }

    #[test]
    fn select_decomposes_to_reads_of_existing_rows() {
        let s = Store::with_rows(3, 0);
        let plan = Command::Select(KeySpec::Range(0, 10)).decompose(&s, &profile());
        assert_eq!(
            plan,
            vec![
                Elementary::Read(0),
                Elementary::Read(1),
                Elementary::Read(2)
            ]
        );
    }

    #[test]
    fn select_of_missing_row_decomposes_to_nothing() {
        let s = Store::new();
        let plan = Command::Select(KeySpec::Key(7)).decompose(&s, &profile());
        assert!(plan.is_empty());
    }

    #[test]
    fn update_reads_then_writes() {
        let s = Store::with_rows(1, 5);
        let plan = Command::Update(KeySpec::Key(0), 3).decompose(&s, &profile());
        assert_eq!(
            plan,
            vec![
                Elementary::Read(0),
                Elementary::Write(0, WriteEffect::Add(3))
            ]
        );
    }

    #[test]
    fn update_of_deleted_row_decomposes_differently() {
        // The H1 mechanism: same command, different state, different (empty)
        // decomposition.
        let mut s = Store::with_rows(1, 5);
        let cmd = Command::Update(KeySpec::Key(0), 1);
        let before = cmd.decompose(&s, &profile());
        s.delete(0);
        let after = cmd.decompose(&s, &profile());
        assert_eq!(before.len(), 2);
        assert!(after.is_empty());
    }

    #[test]
    fn insert_always_touches_slot() {
        let s = Store::new();
        let plan = Command::Insert(4, 9).decompose(&s, &profile());
        assert_eq!(
            plan,
            vec![
                Elementary::Read(4),
                Elementary::Write(4, WriteEffect::Set(9))
            ]
        );
    }

    #[test]
    fn delete_range() {
        let s = Store::with_rows(2, 1);
        let plan = Command::Delete(KeySpec::Range(0, 1)).decompose(&s, &profile());
        assert_eq!(plan.len(), 4);
        assert!(plan[1].is_write() && plan[3].is_write());
    }

    #[test]
    fn descending_profile_reverses_order() {
        let s = Store::with_rows(3, 0);
        let p = SiteProfile {
            descending_decomposition: true,
            ..SiteProfile::default()
        };
        let plan = Command::Select(KeySpec::Range(0, 2)).decompose(&s, &p);
        assert_eq!(
            plan,
            vec![
                Elementary::Read(2),
                Elementary::Read(1),
                Elementary::Read(0)
            ]
        );
    }

    #[test]
    fn decomposition_is_deterministic() {
        let s = Store::with_rows(5, 2);
        let cmd = Command::Update(KeySpec::Range(1, 3), -1);
        assert_eq!(cmd.decompose(&s, &profile()), cmd.decompose(&s, &profile()));
    }

    #[test]
    fn write_keys_extraction() {
        let s = Store::with_rows(3, 0);
        let ks = Command::Update(KeySpec::Range(0, 2), 1).write_keys(&s, &profile());
        assert_eq!(ks, vec![0, 1, 2]);
        let none = Command::Select(KeySpec::Range(0, 2)).write_keys(&s, &profile());
        assert!(none.is_empty());
    }

    #[test]
    fn is_update_predicate() {
        assert!(!Command::Select(KeySpec::Key(0)).is_update());
        assert!(Command::Insert(0, 1).is_update());
        assert!(Command::Delete(KeySpec::Key(0)).is_update());
    }
}
