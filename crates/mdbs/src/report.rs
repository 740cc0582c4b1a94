//! Run reports and post-hoc correctness checking.

use mdbs_histories::{
    distortion::Distortion, view::view_serializable_capped, History, OpKind, RigorViolation,
    SiteId, Txn, Verdict,
};
use mdbs_simkit::{Metrics, SimTime};

/// Upper bound on committed transactions for the exact view-serializability
/// decider (factorial blow-up beyond this).
pub const EXACT_CHECK_MAX_TXNS: usize = 8;

/// The correctness verdict of one run, per the paper's criterion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectnessReport {
    /// First rigorousness violation in any site projection (must be
    /// `None`: the LDBS substrate guarantees SRS).
    pub rigor_violation: Option<RigorViolation>,
    /// Whether `CG(C(H))` is acyclic (the §5.1 sufficient condition for
    /// no local view distortion).
    pub cg_acyclic: bool,
    /// A global view distortion found in `C(H)`, if any.
    pub global_distortion: Option<Distortion>,
    /// Exact view-serializability of `C(H)` — only computed when the run is
    /// small enough ([`EXACT_CHECK_MAX_TXNS`]).
    pub view_serializable_exact: Option<bool>,
    /// Number of transactions in the committed projection.
    pub committed_txns: usize,
}

impl CorrectnessReport {
    /// Analyze a captured global history: the [`Verdict`] of its sites
    /// `0..sites`, plus the exact decider when `C(H)` is small enough.
    pub fn analyze(history: &History, sites: u32) -> CorrectnessReport {
        let verdict = Verdict::of(history, sites);
        let view_serializable_exact = (verdict.committed_txns <= EXACT_CHECK_MAX_TXNS).then(|| {
            let c = history.committed_projection();
            view_serializable_capped(&c, EXACT_CHECK_MAX_TXNS).serializable
        });
        CorrectnessReport {
            rigor_violation: verdict.rigor_violation,
            cg_acyclic: verdict.cg_acyclic,
            global_distortion: verdict.global_distortion,
            view_serializable_exact,
            committed_txns: verdict.committed_txns,
        }
    }

    /// The paper's sufficient condition for view serializability of
    /// `C(H)`: rigorous local histories, acyclic commit-order graph, and no
    /// global view distortion — plus the exact check where available.
    pub fn passed(&self) -> bool {
        self.rigor_violation.is_none()
            && self.cg_acyclic
            && self.global_distortion.is_none()
            && self.view_serializable_exact.unwrap_or(true)
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

/// A timing-independent digest of *what happened* to the global
/// transactions: every global transaction's final verdict (in id order)
/// plus the correctness-check booleans. Local transactions, operation
/// interleavings and timing are all excluded — so the same workload run
/// under the deterministic simulation, the threaded runner, or a real
/// multi-process cluster digests identically whenever the certifier
/// verdicts and checker outcomes agree, which is exactly the equivalence
/// the cross-driver tests pin.
pub fn outcome_digest(history: &History, checks: &CorrectnessReport) -> u64 {
    let mut verdicts: Vec<(u32, char)> = Vec::new();
    for op in history.ops() {
        if let Txn::Global(g) = op.txn {
            match op.kind {
                OpKind::GlobalCommit => verdicts.push((g.0, 'C')),
                OpKind::GlobalAbort => verdicts.push((g.0, 'A')),
                _ => {}
            }
        }
    }
    verdicts.sort_unstable();
    verdicts.dedup();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in verdicts {
        fnv1a(&mut h, format!("T{k}={v};").as_bytes());
    }
    fnv1a(
        &mut h,
        format!(
            "rigor_ok={} cg_acyclic={} no_distortion={} vsr_exact={:?}",
            checks.rigor_violation.is_none(),
            checks.cg_acyclic,
            checks.global_distortion.is_none(),
            checks.view_serializable_exact,
        )
        .as_bytes(),
    );
    h
}

/// A per-site certifier-verdict digest: for every global transaction that
/// ran a subtransaction at `site`, the final local verdict there (commit
/// beats abort — resubmitted incarnations abort before the surviving one
/// commits). Timing-independent for the same reason as
/// [`outcome_digest`]; each `mdbs-node` site process prints this for its
/// own slice so a cluster run can be cross-checked site by site.
pub fn site_verdict_digest(history: &History, site: SiteId) -> u64 {
    use std::collections::BTreeMap;
    let mut verdicts: BTreeMap<u32, char> = BTreeMap::new();
    for op in history.ops() {
        if let Txn::Global(g) = op.txn {
            match op.kind {
                OpKind::LocalCommit(s) if s == site => {
                    verdicts.insert(g.0, 'C');
                }
                OpKind::LocalAbort(s) if s == site => {
                    verdicts.entry(g.0).or_insert('A');
                }
                _ => {}
            }
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, format!("site={};", site.0).as_bytes());
    for (k, v) in verdicts {
        fnv1a(&mut h, format!("T{k}={v};").as_bytes());
    }
    h
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Protocol label (for result tables).
    pub protocol: &'static str,
    /// The complete global history in the paper's operation vocabulary.
    pub history: History,
    /// Counters and latency samples.
    pub metrics: Metrics,
    /// The correctness verdict.
    pub checks: CorrectnessReport,
    /// Globally committed (and completed) transactions.
    pub committed: u64,
    /// Globally aborted transactions.
    pub aborted: u64,
    /// Committed local transactions.
    pub local_committed: u64,
    /// Aborted local transactions (deadlock/timeout victims).
    pub local_aborted: u64,
    /// 2PC + scheduler messages exchanged.
    pub messages: u64,
    /// Simulated time at which the run finished.
    pub finished_at: SimTime,
}

impl SimReport {
    /// Global abort rate = aborted / (committed + aborted).
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }

    /// Committed global transactions per simulated second.
    pub fn throughput(&self) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }

    /// Mean global commit latency in milliseconds, if any commits happened.
    pub fn mean_commit_latency_ms(&self) -> Option<f64> {
        self.metrics
            .stats("commit_latency_ms")
            .and_then(|s| s.mean())
    }

    /// p99 global commit latency in milliseconds.
    pub fn p99_commit_latency_ms(&self) -> Option<f64> {
        self.metrics
            .stats("commit_latency_ms")
            .and_then(|s| s.p99())
    }

    /// Messages per finished global transaction.
    pub fn messages_per_txn(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.messages as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_histories::paper;

    #[test]
    fn h1_fails_checks() {
        let r = CorrectnessReport::analyze(&paper::h1(), 2);
        assert!(r.rigor_violation.is_none(), "H1 projections are rigorous");
        assert!(r.global_distortion.is_some());
        assert_eq!(r.view_serializable_exact, Some(false));
        assert!(!r.passed());
    }

    #[test]
    fn h2_fails_via_cg_cycle() {
        let r = CorrectnessReport::analyze(&paper::h2(), 2);
        assert!(!r.cg_acyclic);
        assert!(!r.passed());
    }

    #[test]
    fn h3_fails_without_global_distortion() {
        let r = CorrectnessReport::analyze(&paper::h3(), 2);
        assert!(r.global_distortion.is_none());
        assert!(!r.cg_acyclic);
        assert_eq!(r.view_serializable_exact, Some(false));
    }

    #[test]
    fn empty_history_passes() {
        let r = CorrectnessReport::analyze(&History::new(), 3);
        assert!(r.passed());
        assert_eq!(r.committed_txns, 0);
    }

    #[test]
    fn outcome_digest_ignores_interleaving_but_sees_verdicts() {
        use mdbs_histories::{Item, Op};
        let mut a = History::new();
        let mut b = History::new();
        let x = Item::new(SiteId(0), 1);
        let y = Item::new(SiteId(1), 1);
        // Same verdicts, different op interleavings → same digest.
        for op in [
            Op::read_g(1, 0, x),
            Op::read_g(2, 0, y),
            Op::global_commit(1),
            Op::global_abort(2),
        ] {
            a.push(op);
        }
        for op in [
            Op::read_g(2, 0, y),
            Op::global_abort(2),
            Op::read_g(1, 0, x),
            Op::global_commit(1),
        ] {
            b.push(op);
        }
        let ca = CorrectnessReport::analyze(&a, 2);
        let cb = CorrectnessReport::analyze(&b, 2);
        assert_eq!(outcome_digest(&a, &ca), outcome_digest(&b, &cb));
        // Flipping one verdict changes it.
        let mut c = History::new();
        for op in [
            Op::read_g(1, 0, x),
            Op::read_g(2, 0, y),
            Op::global_commit(1),
            Op::global_commit(2),
        ] {
            c.push(op);
        }
        let cc = CorrectnessReport::analyze(&c, 2);
        assert_ne!(outcome_digest(&a, &ca), outcome_digest(&c, &cc));
    }

    #[test]
    fn site_verdict_digest_is_per_site_and_commit_wins() {
        use mdbs_histories::{Item, Op};
        let mut h = History::new();
        let x = Item::new(SiteId(0), 3);
        // T1 at site 0: incarnation 0 aborted, incarnation 1 committed —
        // the surviving commit must win over the earlier abort.
        h.push(Op::read_g(1, 0, x));
        h.push(Op::local_abort_g(1, 0, SiteId(0)));
        h.push(Op::read_g(1, 1, x));
        h.push(Op::local_commit_g(1, 1, SiteId(0)));
        let s0 = site_verdict_digest(&h, SiteId(0));
        let s1 = site_verdict_digest(&h, SiteId(1));
        assert_ne!(s0, s1, "sites digest their own slice");
        // Pure-abort variant differs from the commit-wins one.
        let mut g = History::new();
        g.push(Op::read_g(1, 0, x));
        g.push(Op::local_abort_g(1, 0, SiteId(0)));
        assert_ne!(site_verdict_digest(&g, SiteId(0)), s0);
    }
}
