//! Serial numbers (§5.2).
//!
//! "A serial number of a transaction `T_j`, `SN(j)`, is used. `SN(j)` is
//! unique and picked from a totally ordered set … It is appealing to use
//! real time site clocks, expanded with the unique site identifier, for this
//! purpose." The coordinator draws the number when the application submits
//! the global Commit — after all DML has executed — so requirement (2)
//! (local serialization order implies SN order) holds for directly or
//! indirectly conflicting transactions; clock drift "may cause unnecessary
//! aborts, only".

use std::fmt;

/// A globally unique, totally ordered serial number:
/// (local clock reading, coordinator node id, per-coordinator sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SerialNumber {
    /// The coordinator's local clock reading, in microseconds.
    pub ticks: u64,
    /// The coordinator's unique node id (tie-break across coordinators).
    pub node: u32,
    /// Per-coordinator sequence number (tie-break within one microsecond).
    pub seq: u32,
}

impl fmt::Display for SerialNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sn({}.{}.{})", self.ticks, self.node, self.seq)
    }
}

/// Per-coordinator serial number source.
#[derive(Debug, Clone)]
pub struct SnGenerator {
    node: u32,
    seq: u32,
    last_ticks: u64,
}

impl SnGenerator {
    /// A generator owned by coordinator node `node`.
    pub fn new(node: u32) -> SnGenerator {
        SnGenerator {
            node,
            seq: 0,
            last_ticks: 0,
        }
    }

    /// Draw the next serial number at local clock reading `now_local_us`.
    ///
    /// Numbers from one generator are strictly increasing even if the local
    /// clock reading repeats or regresses (the sequence field advances and
    /// ticks are clamped monotone).
    pub fn next(&mut self, now_local_us: u64) -> SerialNumber {
        let ticks = now_local_us.max(self.last_ticks);
        self.last_ticks = ticks;
        let sn = SerialNumber {
            ticks,
            node: self.node,
            seq: self.seq,
        };
        self.seq = self.seq.wrapping_add(1);
        sn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = SerialNumber {
            ticks: 1,
            node: 9,
            seq: 9,
        };
        let b = SerialNumber {
            ticks: 2,
            node: 0,
            seq: 0,
        };
        assert!(a < b);
        let c = SerialNumber {
            ticks: 2,
            node: 1,
            seq: 0,
        };
        assert!(b < c);
        let d = SerialNumber {
            ticks: 2,
            node: 1,
            seq: 1,
        };
        assert!(c < d);
    }

    #[test]
    fn generator_strictly_increasing() {
        let mut g = SnGenerator::new(3);
        let s1 = g.next(100);
        let s2 = g.next(100); // same clock reading
        let s3 = g.next(50); // clock regressed
        assert!(s1 < s2 && s2 < s3);
        assert_eq!(s3.ticks, 100, "ticks clamped monotone");
    }

    #[test]
    fn different_nodes_never_collide() {
        let mut g1 = SnGenerator::new(1);
        let mut g2 = SnGenerator::new(2);
        assert_ne!(g1.next(7), g2.next(7));
    }

    #[test]
    fn display_is_readable() {
        let sn = SerialNumber {
            ticks: 5,
            node: 2,
            seq: 1,
        };
        assert_eq!(sn.to_string(), "sn(5.2.1)");
    }
}
