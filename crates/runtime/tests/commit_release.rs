//! Ordering safety of the event-driven commit release, at the level where
//! it can go wrong: `SiteRuntime` applying agent actions to a real LDBS.
//!
//! T1 < T2 < T3 by serial number, a COMMIT pending on all three at one
//! site; T3 is mid-resubmission and lock-blocked behind T1. Applying
//! `LtmCommit(T1)` releases T1's lock, the engine resumes T3's replay, and
//! T3's `LtmDone` re-enters the agent *inside* T1's commit step. Were T2
//! already out of the prepared table at that instant (released in the same
//! batch as T1, its `LtmCommit` not yet applied), T3 would pass commit
//! certification and reach the LDBS ahead of T2. One commit per agent
//! step, each applied before the next is certified, rules that out.
//!
//! A certified T1 cannot hold a lock T3's first incarnation held: it would
//! have taken it after T3's abort, and basic certification refuses a
//! candidate whose interval begins at or after a frozen entry's end. T3's
//! replay meets T1's lock on a row its range covers only since T1 inserted
//! it.

use mdbs_dtm::{AgentConfig, Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, Instance, OpKind, SiteId, Txn};
use mdbs_ldbs::{Command, KeySpec, Ldbs, SiteProfile, Store};
use mdbs_runtime::script::{Lane, Script};
use mdbs_runtime::{NodeEvent, NodeSet, SiteRuntime, Timer, Transport};

const SITE: SiteId = SiteId(0);
const COORD: u32 = 1_000_000;
const TO_COORD: Lane = Lane::Link {
    from: SITE.0,
    to: COORD,
};

/// One site on a script; the coordinator is the test, and what the site
/// sends it stays parked.
struct Site(Script);

impl Site {
    fn new() -> Site {
        let engine = Ldbs::new(SITE, SiteProfile::for_site(0), Store::with_rows(4, 0));
        let rt = SiteRuntime::new(SITE, AgentConfig::default(), engine, 0);
        Site(Script::new(NodeSet {
            sites: [(SITE, rt)].into(),
            ..NodeSet::default()
        }))
    }

    fn rt(&self) -> &SiteRuntime {
        &self.0.nodes.sites[&SITE]
    }

    fn deliver(&mut self, msg: Message) {
        self.0.host.send(COORD, SITE.0, msg);
        self.0
            .deliver(COORD, SITE.0)
            .expect("engine and agent agree");
    }

    /// Every message the site sent, in order.
    fn sent(&self) -> Vec<&Message> {
        (self.0.host.parked(TO_COORD))
            .filter_map(|e| match e {
                NodeEvent::Net(msg) => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// The timers the site has armed and nothing has fired yet.
    fn timers(&self, pick: impl Fn(&Timer) -> bool) -> usize {
        let timers = self.0.host.parked(Lane::Timers { node: SITE.0 });
        timers
            .filter(|e| matches!(e, NodeEvent::Timer(t) if pick(t)))
            .count()
    }

    /// Fire every pending LTM service-delay timer (the commands the agent
    /// submitted since the last call start executing).
    fn run_ltm(&mut self) {
        let exec = |t: &Timer| matches!(t, Timer::LtmExec { .. });
        for _ in 0..self.timers(exec) {
            self.0.fire(SITE.0, exec).expect("engine and agent agree");
        }
    }

    fn begin_with(&mut self, k: u32, command: Command) {
        let gtxn = GlobalTxnId(k);
        self.deliver(Message::Begin { gtxn, coord: COORD });
        self.deliver(Message::Dml {
            gtxn,
            step: 0,
            command,
        });
        self.run_ltm();
    }

    fn prepare(&mut self, k: u32, ticks: u64) {
        let before = self.sent().len();
        self.deliver(Message::Prepare {
            gtxn: GlobalTxnId(k),
            sn: SerialNumber {
                ticks,
                node: COORD,
                seq: 0,
            },
        });
        let replies = &self.sent()[before..];
        self.0.expect(
            &format!("T{k} votes READY: {replies:?}"),
            replies.iter().any(|m| matches!(m, Message::Ready { .. })),
        );
    }

    fn commit(&mut self, k: u32) {
        self.deliver(Message::Commit {
            gtxn: GlobalTxnId(k),
        });
    }

    /// `(transaction, incarnation)` of the local commits so far, in LDBS
    /// order.
    fn local_commits(&self) -> Vec<(u32, u32)> {
        (self.0.host.ops.iter())
            .filter_map(|op| match (op.txn, op.kind) {
                (Txn::Global(g), OpKind::LocalCommit(_)) => Some((g.0, op.incarnation)),
                _ => None,
            })
            .collect()
    }
}

#[test]
fn a_replay_resumed_inside_the_blockers_commit_cannot_overtake_the_released_sn() {
    let mut s = Site::new();

    // Rows 0–3 exist. T3 reads the empty range 4–9, T2 updates key 1, T1
    // inserts key 5: no two of them wait for each other.
    s.begin_with(3, Command::Select(KeySpec::Range(4, 9)));
    s.begin_with(2, Command::Update(KeySpec::Key(1), 1));
    s.begin_with(1, Command::Insert(5, 1));
    s.0.expect("nobody waits", s.rt().blocked().next().is_none());

    // All three prepare while alive, T1 with the smallest serial number;
    // then T3's incarnation is unilaterally aborted.
    s.prepare(3, 30);
    s.prepare(2, 20);
    s.prepare(1, 10);
    (s.0.inject_abort(SITE, Instance::global(3, SITE, 0))).expect("abort T3's first incarnation");

    // COMMIT(T3): the aborted incarnation is resubmitted first, and the
    // replay's range now holds T1's row 5: it blocks behind T1's lock.
    // COMMIT(T2): held behind T1.
    s.commit(3);
    s.run_ltm();
    let t3_replay = Instance::global(3, SITE, 1);
    s.0.expect(
        "T3's replay waits for T1's lock",
        s.rt().blocked().any(|(i, _)| i == t3_replay),
    );
    s.commit(2);
    assert_eq!(s.local_commits(), vec![]);
    assert_eq!(s.rt().agent().table_len(), 3);

    // COMMIT(T1): one message, three local commits, in SN order — although
    // T3's replay completed (and asked to commit) before T2 was released.
    s.commit(1);
    assert_eq!(s.local_commits(), vec![(1, 0), (2, 0), (3, 1)]);
    assert_eq!(s.rt().agent().table_len(), 0);
    let stats = s.rt().agent().stats();
    assert_eq!(
        stats.commit_releases, 2,
        "T2 and T3 were released by table events"
    );
    // T3 (resubmission), T2 (held), and T3 again when its replay completed
    // inside T1's commit while T2 was still in the table.
    assert_eq!(stats.commit_retries, 3);
    let acks = (s.sent().iter())
        .filter(|m| matches!(m, Message::CommitAck { .. }))
        .count();
    assert_eq!(acks, 3);

    // The alive timers armed with the READYs are still there, find
    // nothing to do, and arm nothing more.
    let alive = |t: &Timer| matches!(t, Timer::Alive { .. });
    assert_eq!(s.timers(alive), 3);
    let sent = s.sent().len();
    for _ in 0..3 {
        s.0.fire(SITE.0, alive).expect("a stale alive timer");
    }
    assert_eq!(s.sent().len(), sent);
    assert_eq!(s.local_commits().len(), 3);
    assert_eq!(s.timers(|_| true), 0);
}
