//! Paxos Commit failover over a settled transaction whose compaction never
//! left: at F = 1 a ballot-0 transaction's compaction rides its
//! coordinator's next registration, so a coordinator that crashes first
//! leaves it in the ballot-0 acceptor logs. The backup's takeover then
//! re-adopts it. It must re-decide the outcome the transaction settled
//! with, the sites must answer the re-decision through the NEW-COORD
//! redirect, and the backup's `Clear` must finally compact it everywhere.

use mdbs_consensus::Leader;
use mdbs_dtm::{AgentConfig, GlobalOutcome};
use mdbs_histories::{GlobalTxnId, Instance, OpKind, SiteId, Txn};
use mdbs_ldbs::{Command, KeySpec, Ldbs, SiteProfile, Store};
use mdbs_runtime::script::{Lane, Script};
use mdbs_runtime::{
    AcceptorRuntime, CoordinatorRuntime, NodeEvent, NodeSet, SiteRuntime, ACCEPTOR_BASE, COORD_BASE,
};

const SITES: [SiteId; 2] = [SiteId(0), SiteId(1)];
const BACKUP: u32 = COORD_BASE;
const OWNER: u32 = COORD_BASE + 1;
const T1: GlobalTxnId = GlobalTxnId(1);

/// Two sites, two coordinators leading at F = 1, three acceptors.
fn world() -> Script {
    let acceptors: Vec<u32> = (0..3).map(|a| ACCEPTOR_BASE + a).collect();
    let site = |s: SiteId| {
        let engine = Ldbs::new(s, SiteProfile::for_site(s.0), Store::with_rows(4, 0));
        let mut rt = SiteRuntime::new(s, AgentConfig::default(), engine, 0);
        rt.set_acceptors(acceptors.clone());
        (s, rt)
    };
    let coord = |node: u32| {
        let mut rt = CoordinatorRuntime::new(node, false);
        rt.set_consensus(Leader::new(node, 1, acceptors.clone()));
        (node, rt)
    };
    Script::new(NodeSet {
        sites: SITES.into_iter().map(site).collect(),
        coords: [coord(BACKUP), coord(OWNER)].into(),
        acceptors: (acceptors.iter())
            .map(|&a| (a, AcceptorRuntime::new(a)))
            .collect(),
        ..NodeSet::default()
    })
}

/// Deliver the oldest head — the next message, else the earliest timer —
/// until `done` holds or nothing is left that can act.
fn run_until(s: &mut Script, what: &str, done: impl Fn(&Script) -> bool) {
    for _ in 0..10_000 {
        s.prune();
        if done(s) {
            return;
        }
        let Some(&head) = s.host.heads().first() else {
            break;
        };
        match head {
            Lane::Link { from, to } => s.deliver(from, to),
            Lane::Timers { node } => s.fire(node, |_| true),
        }
        .expect("runtimes agree");
    }
    s.expect(what, done(s));
}

fn registered(s: &Script, acceptor: u32) -> usize {
    s.nodes.acceptors[&(ACCEPTOR_BASE + acceptor)]
        .inner()
        .registered()
}

/// T1 settles at its coordinator with `outcome`; the coordinator dies
/// before registering anything else; the backup takes over.
fn settle_then_take_over(outcome: GlobalOutcome) -> Script {
    let mut s = world();
    let program = SITES
        .iter()
        .map(|&site| (site, Command::Update(KeySpec::Key(1), 5)))
        .collect();
    s.hand(OWNER, NodeEvent::Start { gtxn: T1, program })
        .expect("start");
    if outcome == GlobalOutcome::Aborted {
        // Site 1's subtransaction dies between its command and PREPARE:
        // the site refuses, votes Abort, and the coordinator aborts.
        let answer = Lane::Link {
            from: SITES[1].0,
            to: OWNER,
        };
        run_until(&mut s, "site 1 answered its command", |s| {
            s.host.parked(answer).next().is_some()
        });
        s.inject_abort(SITES[1], Instance::global(T1.0, SITES[1], 0))
            .expect("inject");
    }
    run_until(&mut s, "T1 settled at its coordinator", |s| {
        !s.host.finished.is_empty()
    });
    assert_eq!(s.host.finished, vec![(T1, outcome)]);
    s.host.finished.clear();
    // The compaction waits for the next registration: the two ballot-0
    // acceptors still hold T1, the third never heard of it.
    assert_eq!(
        (registered(&s, 0), registered(&s, 1), registered(&s, 2)),
        (1, 1, 0)
    );

    let killed = s.nodes.kill(OWNER);
    s.expect("the owner dies", killed);
    s.hand(BACKUP, NodeEvent::TakeOver).expect("take over");
    run_until(&mut s, "the backup settled T1", |s| {
        !s.host.finished.is_empty()
    });
    // The backup re-decided T1 as it settled, and its `Clear` reached every
    // acceptor.
    assert_eq!(s.host.finished, vec![(T1, outcome)]);
    run_until(&mut s, "quiescent", |s| s.host.heads().is_empty());
    assert_eq!(
        (registered(&s, 0), registered(&s, 1), registered(&s, 2)),
        (0, 0, 0)
    );
    s
}

/// Each site's local commits of T1.
fn local_commits(s: &Script) -> usize {
    (s.host.ops.iter())
        .filter(|op| op.txn == Txn::Global(T1) && matches!(op.kind, OpKind::LocalCommit(_)))
        .count()
}

#[test]
fn a_takeover_re_adopts_a_committed_transaction_and_commits_it_again() {
    let s = settle_then_take_over(GlobalOutcome::Committed);
    // The sites had committed T1 and forgotten it: the backup's NEW-COORD
    // left a redirect, and each re-acked the COMMIT through it (the backup
    // could not settle T1 otherwise). Nothing committed twice.
    assert_eq!(local_commits(&s), 2);
}

#[test]
fn a_takeover_re_adopts_an_aborted_transaction_and_aborts_it_again() {
    let s = settle_then_take_over(GlobalOutcome::Aborted);
    assert_eq!(local_commits(&s), 0);
}
