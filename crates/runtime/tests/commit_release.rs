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

use mdbs_dtm::{AgentConfig, GlobalOutcome, Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, Instance, Op, OpKind, SiteId, Txn};
use mdbs_ldbs::{Command, KeySpec, Ldbs, SiteProfile, Store};
use mdbs_runtime::{
    CtrlMsg, Flow, NodeEvent, NodeRuntime, RuntimeHost, SiteRuntime, TimeSource, Timer, TraceEvent,
    Transport,
};
use mdbs_simkit::SimTime;

const SITE: SiteId = SiteId(0);
const COORD: u32 = 1_000_000;

/// A host that records: history ops, sent messages, armed timers. The
/// clock only moves when the test says so.
#[derive(Default)]
struct Recording {
    now_us: u64,
    ops: Vec<Op>,
    sent: Vec<Message>,
    timers: Vec<Timer>,
}

impl TimeSource for Recording {
    fn local_time_us(&mut self, _node: u32) -> u64 {
        self.now_us
    }
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us)
    }
}

impl Transport for Recording {
    fn send(&mut self, _from: u32, _to: u32, msg: Message) {
        self.sent.push(msg);
    }
    fn send_ctrl(&mut self, _from: u32, _to: u32, _ctrl: CtrlMsg) {}
    fn set_timer(&mut self, _node: u32, _after_us: u64, timer: Timer) {
        self.timers.push(timer);
    }
}

impl RuntimeHost for Recording {
    fn record_op(&mut self, op: Op) {
        self.ops.push(op);
    }
    fn inc(&mut self, _name: &'static str) {}
    fn add(&mut self, _name: &'static str, _n: u64) {}
    fn trace(&mut self, _event: TraceEvent) {}
    fn prepared(&mut self, _site: SiteId, _gtxn: GlobalTxnId, _incarnation: u32) {}
    fn local_settled(&mut self, _site: SiteId, _committed: bool) {}
    fn global_finished(&mut self, _cnode: u32, _gtxn: GlobalTxnId, _outcome: GlobalOutcome) {}
}

struct Site {
    rt: SiteRuntime,
    host: Recording,
}

impl Site {
    fn new() -> Site {
        let engine = Ldbs::new(SITE, SiteProfile::for_site(0), Store::with_rows(4, 0));
        Site {
            rt: SiteRuntime::new(SITE, AgentConfig::default(), engine, 0),
            host: Recording::default(),
        }
    }

    fn event(&mut self, event: NodeEvent) {
        let flow = self
            .rt
            .on_event(event, &mut self.host)
            .expect("engine and agent agree");
        assert_eq!(flow, Flow::Continue);
    }

    fn deliver(&mut self, msg: Message) {
        self.event(NodeEvent::Net(msg));
    }

    /// Fire every pending LTM service-delay timer (the commands the agent
    /// submitted since the last call start executing).
    fn run_ltm(&mut self) {
        let (exec, rest): (Vec<Timer>, Vec<Timer>) = std::mem::take(&mut self.host.timers)
            .into_iter()
            .partition(|t| matches!(t, Timer::LtmExec { .. }));
        self.host.timers = rest;
        for timer in exec {
            self.event(NodeEvent::Timer(timer));
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
        let before = self.host.sent.len();
        self.deliver(Message::Prepare {
            gtxn: GlobalTxnId(k),
            sn: SerialNumber {
                ticks,
                node: COORD,
                seq: 0,
            },
        });
        assert!(
            self.host.sent[before..]
                .iter()
                .any(|m| matches!(m, Message::Ready { .. })),
            "T{k} must vote READY: {:?}",
            &self.host.sent[before..]
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
        self.host
            .ops
            .iter()
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
    s.host.now_us = 10;
    s.begin_with(3, Command::Select(KeySpec::Range(4, 9)));
    s.begin_with(2, Command::Update(KeySpec::Key(1), 1));
    s.begin_with(1, Command::Insert(5, 1));
    assert!(s.rt.blocked().next().is_none(), "nobody waits");

    // All three prepare while alive, T1 with the smallest serial number;
    // then T3's incarnation is unilaterally aborted.
    s.host.now_us = 20;
    s.prepare(3, 30);
    s.prepare(2, 20);
    s.prepare(1, 10);
    s.rt.inject_abort(Instance::global(3, SITE, 0), &mut s.host)
        .expect("abort T3's first incarnation");

    // COMMIT(T3): the aborted incarnation is resubmitted first, and the
    // replay's range now holds T1's row 5: it blocks behind T1's lock.
    // COMMIT(T2): held behind T1.
    s.host.now_us = 30;
    s.commit(3);
    s.run_ltm();
    let t3_replay = Instance::global(3, SITE, 1);
    assert!(
        s.rt.blocked().any(|(i, _)| i == t3_replay),
        "T3's replay waits for T1's lock"
    );
    s.commit(2);
    assert_eq!(s.local_commits(), vec![]);
    assert_eq!(s.rt.agent().table_len(), 3);

    // COMMIT(T1): one message, three local commits, in SN order — although
    // T3's replay completed (and asked to commit) before T2 was released.
    s.host.now_us = 40;
    s.commit(1);
    assert_eq!(s.local_commits(), vec![(1, 0), (2, 0), (3, 1)]);
    assert_eq!(s.rt.agent().table_len(), 0);
    let stats = s.rt.agent().stats();
    assert_eq!(
        stats.commit_releases, 2,
        "T2 and T3 were released by table events"
    );
    // T3 (resubmission), T2 (held), and T3 again when its replay completed
    // inside T1's commit while T2 was still in the table.
    assert_eq!(stats.commit_retries, 3);
    let acks = s
        .host
        .sent
        .iter()
        .filter(|m| matches!(m, Message::CommitAck { .. }))
        .count();
    assert_eq!(acks, 3);

    // The alive timers armed with the READYs are still there, find
    // nothing to do, and arm nothing more.
    let stale: Vec<Timer> = std::mem::take(&mut s.host.timers)
        .into_iter()
        .filter(|t| matches!(t, Timer::Alive { .. }))
        .collect();
    assert_eq!(stale.len(), 3);
    let sent = s.host.sent.len();
    for timer in stale {
        s.event(NodeEvent::Timer(timer));
    }
    assert_eq!(s.host.sent.len(), sent);
    assert_eq!(s.local_commits().len(), 3);
    assert_eq!(s.host.timers, vec![]);
}
