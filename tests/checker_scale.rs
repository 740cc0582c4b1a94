//! The post-hoc checker at a size the drivers do not reach in tests: one
//! `CorrectnessReport::analyze` over ≈42 k operations of ≈10 k committed
//! transactions at 8 sites. Every stage of `analyze` is near-linear in the
//! history; while any of them was quadratic this did not finish in test
//! time. No wall-clock assertion — the test harness's patience is the bound.
//! The same history with lock violations appended pins, at that size, which
//! rigorousness witness a run reports.

use rigorous_mdbs::histories::rigor::rigor_violation;
use rigorous_mdbs::histories::{History, Instance, Item, Op, RigorViolation, SiteId};
use rigorous_mdbs::sim::CorrectnessReport;

const SITES: u32 = 8;
const ROUNDS: u32 = 1_250;
const GLOBAL_EVERY: u32 = 8;

/// `ROUNDS` rounds; in each, every site runs one local transaction (three
/// data operations and a commit, the eight sites interleaved operation by
/// operation), and every `GLOBAL_EVERY`-th round starts with a two-site
/// global transaction whose first subtransaction is unilaterally aborted in
/// the prepared state and resubmitted. Each site's projection is serial, so
/// rigorous; globals commit in the same order everywhere, so `CG(C(H))` is
/// acyclic; nothing runs between an abort and its replay, so no view moves.
fn operations() -> (Vec<Op>, usize) {
    let mut h = Vec::new();
    let mut committed = 0;
    for round in 0..ROUNDS {
        if round % GLOBAL_EVERY == 0 {
            let k = round / GLOBAL_EVERY + 1;
            let (a, b) = (SiteId(k % SITES), SiteId((k + 1) % SITES));
            let (x, y, z) = (
                Item::new(a, u64::from(k % 7)),
                Item::new(a, 7),
                Item::new(b, 7),
            );
            let at_a = |j| [Op::read_g(k, j, x), Op::write_g(k, j, y)];
            h.extend(at_a(0));
            h.extend([Op::write_g(k, 0, z), Op::prepare(k, a), Op::prepare(k, b)]);
            h.extend([Op::global_commit(k), Op::local_abort_g(k, 0, a)]);
            h.extend(at_a(1));
            h.extend([Op::local_commit_g(k, 1, a), Op::local_commit_g(k, 0, b)]);
            committed += 1;
        }
        for step in 0..4 {
            for s in (0..SITES).map(SiteId) {
                let item = Item::new(s, u64::from((round + step) % 7));
                h.push(match step {
                    0 | 2 => Op::read_l(round, item),
                    1 => Op::write_l(round, item),
                    _ => Op::local_commit_l(round, s),
                });
            }
        }
        committed += SITES as usize;
    }
    (h, committed)
}

#[test]
fn analyze_passes_a_ten_thousand_transaction_history() {
    let (mut h, committed) = operations();
    assert!(h.len() > 40_000 && committed > 10_000, "{} ops", h.len());

    let report = CorrectnessReport::analyze(&History::from_ops(h.clone()), SITES);
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.committed_txns, committed);
    assert_eq!(report.view_serializable_exact, None);

    // The same history with one pair of sites disagreeing on the order of
    // the last two globals: the one thing that changes is the CG verdict.
    let (k1, k2) = (ROUNDS, ROUNDS + 1);
    let (a, b) = (SiteId(0), SiteId(1));
    h.extend([Op::global_commit(k1), Op::global_commit(k2)]);
    h.extend([Op::local_commit_g(k1, 0, a), Op::local_commit_g(k2, 0, a)]);
    h.extend([Op::local_commit_g(k2, 0, b), Op::local_commit_g(k1, 0, b)]);
    let reversed = CorrectnessReport::analyze(&History::from_ops(h), SITES);
    assert_eq!(
        reversed,
        CorrectnessReport {
            cg_acyclic: false,
            committed_txns: committed + 2,
            ..report
        }
    );
}

#[test]
fn analyze_reports_the_first_violating_site_in_site_order() {
    const STRICT: &str = "strict: accessed data written by an unterminated transaction";
    const UNDER_READER: &str = "rigorous: wrote data read by an unterminated transaction";
    let (h, _) = operations();
    let clean = CorrectnessReport::analyze(&History::from_ops(h.clone()), SITES);
    // Local transaction numbers no round uses; none of them terminates, so
    // `C(H)`, `CG` and the distortion scan see nothing new.
    let (n, m) = (ROUNDS, ROUNDS + 1);
    let projected = |s: SiteId| h.iter().filter(|op| op.site() == Some(s)).count();
    // At site 5, L_m reads what the unterminated L_n wrote; later, at site
    // 2, L_m writes what the unterminated L_n read.
    let (five, two) = (SiteId(5), SiteId(2));
    let dirty_read = [
        Op::write_l(n, Item::new(five, 0)),
        Op::read_l(m, Item::new(five, 0)),
    ];
    let write_under_reader = [
        Op::read_l(n, Item::new(two, 0)),
        Op::write_l(m, Item::new(two, 0)),
    ];
    let violation = |rule, site, position| RigorViolation {
        rule,
        offender: Instance::local(site, m),
        victim: Instance::local(site, n),
        position,
    };
    let analyze = |tail: &[Op]| {
        let mut ops = h.clone();
        ops.extend_from_slice(tail);
        let history = History::from_ops(ops);
        (CorrectnessReport::analyze(&history, SITES), history)
    };

    // Both: site 2 comes first in site order, so its write-under-reader
    // violation is the run's witness although site 5's strictness violation
    // comes first in the history — and would outrank it there.
    let (report, history) = analyze(&[dirty_read, write_under_reader].concat());
    let expected = violation(UNDER_READER, two, projected(two) + 1);
    assert_eq!(
        report,
        CorrectnessReport {
            rigor_violation: Some(expected),
            ..clean.clone()
        }
    );
    assert_eq!(
        rigor_violation(&history),
        Some(violation(STRICT, five, h.len() + 1)),
        "on the whole history a strictness violation anywhere comes first"
    );

    // Strictness only: site 5's, positioned within site 5's projection.
    let (report, _) = analyze(&dirty_read);
    let expected = violation(STRICT, five, projected(five) + 1);
    assert_eq!(
        report,
        CorrectnessReport {
            rigor_violation: Some(expected),
            ..clean
        }
    );
}
