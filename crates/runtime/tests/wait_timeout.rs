//! The wait timeout a site learns from its own LTM: which waits are
//! samples, and which instances keep the ceiling.

use mdbs_dtm::{AgentConfig, GlobalOutcome, Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, Instance, Op, SiteId};
use mdbs_ldbs::{Command, KeySpec, Ldbs, SiteProfile, Store};
use mdbs_runtime::{
    CtrlMsg, ExpiredWait, Flow, NodeEvent, NodeRuntime, RuntimeHost, SiteRuntime, TimeSource,
    Timer, TraceEvent, Transport, WAIT_TIMEOUT_FLOOR_US, WAIT_TIMEOUT_US,
};
use mdbs_simkit::SimTime;

const SITE: SiteId = SiteId(0);
const COORD: u32 = 1_000_000;

/// A host whose clock moves only when the test says so; it keeps the
/// timers the site arms for the test to fire.
#[derive(Default)]
struct Manual {
    now_us: u64,
    timers: Vec<Timer>,
}

impl TimeSource for Manual {
    fn local_time_us(&mut self, _node: u32) -> u64 {
        self.now_us
    }
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us)
    }
}

impl Transport for Manual {
    fn send(&mut self, _from: u32, _to: u32, _msg: Message) {}
    fn send_ctrl(&mut self, _from: u32, _to: u32, _ctrl: CtrlMsg) {}
    fn set_timer(&mut self, _node: u32, _after_us: u64, timer: Timer) {
        self.timers.push(timer);
    }
}

impl RuntimeHost for Manual {
    fn record_op(&mut self, _op: Op) {}
    fn inc(&mut self, _name: &'static str) {}
    fn add(&mut self, _name: &'static str, _n: u64) {}
    fn trace(&mut self, _event: TraceEvent) {}
    fn prepared(&mut self, _site: SiteId, _gtxn: GlobalTxnId, _incarnation: u32) {}
    fn local_settled(&mut self, _site: SiteId, _committed: bool) {}
    fn global_finished(&mut self, _cnode: u32, _gtxn: GlobalTxnId, _outcome: GlobalOutcome) {}
}

struct Site {
    rt: SiteRuntime,
    host: Manual,
}

impl Site {
    fn new() -> Site {
        let engine = Ldbs::new(SITE, SiteProfile::for_site(0), Store::with_rows(4, 0));
        Site {
            rt: SiteRuntime::new(SITE, AgentConfig::default(), engine, 0),
            host: Manual::default(),
        }
    }

    fn at(&mut self, now_us: u64) -> &mut Site {
        self.host.now_us = now_us;
        self
    }

    fn event(&mut self, event: NodeEvent) {
        let flow = (self.rt.on_event(event, &mut self.host)).expect("engine and agent agree");
        assert_eq!(flow, Flow::Continue);
    }

    /// Fire the pending LTM service timers of `instance`.
    fn run(&mut self, instance: Instance) {
        let (mine, rest): (Vec<Timer>, Vec<Timer>) = std::mem::take(&mut self.host.timers)
            .into_iter()
            .partition(|t| matches!(t, Timer::LtmExec { instance: i, .. } if *i == instance));
        self.host.timers = rest;
        for timer in mine {
            self.event(NodeEvent::Timer(timer));
        }
    }

    /// Start local `n` updating `keys` in turn and run its first command.
    fn local(&mut self, n: u32, keys: &[u64]) -> Instance {
        let program = keys
            .iter()
            .map(|&k| Command::Update(KeySpec::Key(k), 1))
            .collect();
        self.rt
            .start_local(n, program, &mut self.host)
            .expect("start a local");
        let instance = Instance::local(SITE, n);
        self.run(instance);
        instance
    }

    /// Begin global `k` and run its update of `key`.
    fn global(&mut self, k: u32, key: u64) -> Instance {
        let gtxn = GlobalTxnId(k);
        self.event(NodeEvent::Net(Message::Begin { gtxn, coord: COORD }));
        self.event(NodeEvent::Net(Message::Dml {
            gtxn,
            step: 0,
            command: Command::Update(KeySpec::Key(key), 1),
        }));
        let instance = Instance::global(k, SITE, 0);
        self.run(instance);
        instance
    }

    fn is_blocked(&self, instance: Instance) -> bool {
        self.rt.blocked().any(|(i, _)| i == instance)
    }

    /// The timeout each blocked instance is held to, read far enough in the
    /// future that every wait has expired.
    fn timeouts(&self) -> Vec<(Instance, u64)> {
        let later = SimTime::from_micros(self.host.now_us + 10 * WAIT_TIMEOUT_US);
        self.rt
            .expired_waits(later, WAIT_TIMEOUT_US)
            .map(
                |ExpiredWait {
                     instance,
                     timeout_us,
                     ..
                 }| (instance, timeout_us),
            )
            .collect()
    }

    /// One granted wait of `wait_us` on key 3, from `start_us`: a local
    /// holds the key while a second one waits for it.
    fn granted_wait(&mut self, n: u32, start_us: u64, wait_us: u64) {
        let holder = self.at(start_us).local(n, &[3, 2]);
        let waiter = self.local(n + 1, &[3]);
        assert!(self.is_blocked(waiter));
        // The holder's second command completes its program: it commits
        // and hands the key on.
        self.at(start_us + wait_us).run(holder);
        assert!(!self.is_blocked(waiter), "the wait ended in its grant");
    }
}

#[test]
fn a_granted_wait_sets_the_timeout() {
    let mut s = Site::new();
    // Local 1 holds key 0 (its second command is still to run); local 2
    // waits for it.
    s.local(1, &[0, 1]);
    let blocked = s.local(2, &[0]);
    assert_eq!(
        s.timeouts(),
        vec![(blocked, WAIT_TIMEOUT_US)],
        "no sample yet"
    );
    // One 40 ms wait: SRTT 40 000 + 4 · RTTVAR 20 000.
    s.granted_wait(10, 1_000, 40_000);
    assert_eq!(s.timeouts(), vec![(blocked, 120_000)]);
}

#[test]
fn a_wait_that_ends_in_an_abort_is_not_a_sample() {
    let mut s = Site::new();
    // A local holds key 0; global 1 and then local 2 wait for it.
    s.local(1, &[0, 1]);
    let rolled_back = s.global(1, 0);
    let timed_out = s.local(2, &[0]);
    assert!(s.is_blocked(rolled_back) && s.is_blocked(timed_out));
    // 30 ms later one wait ends in a timeout, the other in a rollback.
    s.at(30_000);
    let timeout = (s.rt.expired_waits(s.host.now(), 20_000))
        .find(|w| w.instance == timed_out)
        .expect("past a 20 ms ceiling");
    s.rt.abort_on_timeout(timeout, &mut s.host)
        .expect("time the local out");
    s.event(NodeEvent::Net(Message::Rollback {
        gtxn: GlobalTxnId(1),
    }));
    assert!(s.rt.blocked().next().is_none());
    // Neither taught the site anything: a new wait still gets the ceiling.
    let blocked = s.local(3, &[0]);
    assert_eq!(s.timeouts(), vec![(blocked, WAIT_TIMEOUT_US)]);
}

#[test]
fn a_resubmission_keeps_the_ceiling() {
    let mut s = Site::new();
    // T3 updates key 0; T1 wants it too and waits 10 µs, until T3's first
    // incarnation is unilaterally aborted after preparing: a granted wait,
    // so the site's timeout is now the floor.
    s.at(10).global(3, 0);
    let t1 = s.global(1, 0);
    assert!(s.is_blocked(t1));
    s.at(20);
    s.event(NodeEvent::Net(Message::Prepare {
        gtxn: GlobalTxnId(3),
        sn: SerialNumber {
            ticks: 30,
            node: COORD,
            seq: 0,
        },
    }));
    s.rt.inject_abort(Instance::global(3, SITE, 0), &mut s.host)
        .expect("abort T3's first incarnation");
    assert!(!s.is_blocked(t1), "T1 got the lock");
    // COMMIT(T3) resubmits it; the replay waits for T1's lock, as does a
    // fresh local.
    s.at(30);
    s.event(NodeEvent::Net(Message::Commit {
        gtxn: GlobalTxnId(3),
    }));
    let replay = Instance::global(3, SITE, 1);
    s.run(replay);
    let local = s.local(1, &[0]);
    let mut timeouts = s.timeouts();
    timeouts.sort();
    let mut expected = vec![(replay, WAIT_TIMEOUT_US), (local, WAIT_TIMEOUT_FLOOR_US)];
    expected.sort();
    assert_eq!(timeouts, expected);
}
