//! The row store with before-image rollback (the RR assumption).
//!
//! A site's database is a set of rows keyed by `u64`. Values are `i64`
//! (think account balances); a missing key is a non-existent row. Every
//! mutation returns the *before-image* so the caller can build an undo log;
//! [`Store::restore`] applies before-images in reverse to implement
//! rollback recovery.

use std::collections::BTreeMap;

/// A before-image: the prior state of one key (`None` = row did not exist).
pub type BeforeImage = (u64, Option<i64>);

/// An in-memory row store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Store {
    rows: BTreeMap<u64, i64>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// A store pre-populated with `n` rows keyed `0..n`, all holding
    /// `initial`.
    pub fn with_rows(n: u64, initial: i64) -> Store {
        Store {
            rows: (0..n).map(|k| (k, initial)).collect(),
        }
    }

    /// Read a row (`None` = row does not exist).
    pub fn get(&self, key: u64) -> Option<i64> {
        self.rows.get(&key).copied()
    }

    /// Whether the row exists.
    pub fn exists(&self, key: u64) -> bool {
        self.rows.contains_key(&key)
    }

    /// Insert or overwrite a row, returning the before-image.
    pub fn put(&mut self, key: u64, val: i64) -> BeforeImage {
        (key, self.rows.insert(key, val))
    }

    /// Delete a row, returning the before-image.
    pub fn delete(&mut self, key: u64) -> BeforeImage {
        (key, self.rows.remove(&key))
    }

    /// Apply a before-image (used during rollback).
    pub fn restore(&mut self, image: BeforeImage) {
        match image {
            (key, Some(v)) => {
                self.rows.insert(key, v);
            }
            (key, None) => {
                self.rows.remove(&key);
            }
        }
    }

    /// Existing keys within `[lo, hi]`, ascending.
    pub fn keys_in_range(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.rows.range(lo..=hi).map(|(k, _)| *k).collect()
    }

    /// All existing keys, ascending.
    pub fn keys(&self) -> Vec<u64> {
        self.rows.keys().copied().collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of all values (used by consistency-audit workloads, e.g. the
    /// banking example's invariant that total balance is conserved).
    pub fn total(&self) -> i64 {
        self.rows.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = Store::new();
        assert_eq!(s.get(1), None);
        let bi = s.put(1, 10);
        assert_eq!(bi, (1, None));
        assert_eq!(s.get(1), Some(10));
        let bi2 = s.put(1, 20);
        assert_eq!(bi2, (1, Some(10)));
    }

    #[test]
    fn delete_returns_before_image() {
        let mut s = Store::with_rows(3, 5);
        let bi = s.delete(2);
        assert_eq!(bi, (2, Some(5)));
        assert!(!s.exists(2));
        let bi2 = s.delete(2);
        assert_eq!(bi2, (2, None));
    }

    #[test]
    fn restore_undoes_put_and_delete() {
        let mut s = Store::with_rows(2, 7);
        let bi1 = s.put(0, 100);
        let bi2 = s.delete(1);
        let bi3 = s.put(9, 1);
        // Undo in reverse order.
        s.restore(bi3);
        s.restore(bi2);
        s.restore(bi1);
        assert_eq!(s, Store::with_rows(2, 7));
    }

    #[test]
    fn range_scan() {
        let mut s = Store::new();
        for k in [1u64, 3, 5, 7] {
            s.put(k, 0);
        }
        assert_eq!(s.keys_in_range(2, 6), vec![3, 5]);
        assert_eq!(s.keys_in_range(0, 100), vec![1, 3, 5, 7]);
        assert_eq!(s.keys_in_range(8, 9), Vec::<u64>::new());
    }

    #[test]
    fn totals_and_len() {
        let s = Store::with_rows(4, 25);
        assert_eq!(s.len(), 4);
        assert_eq!(s.total(), 100);
        assert!(!s.is_empty());
        assert!(Store::new().is_empty());
    }
}
