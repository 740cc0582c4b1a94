//! The wait timeout a site learns from its own LTM: which waits are
//! samples, and which instances keep the ceiling.

use mdbs_dtm::{AgentConfig, Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, Instance, SiteId};
use mdbs_ldbs::{Command, KeySpec, Ldbs, SiteProfile, Store};
use mdbs_runtime::script::{Lane, Script};
use mdbs_runtime::{
    ExpiredWait, NodeEvent, NodeSet, SiteRuntime, TimeSource, Timer, Transport,
    WAIT_TIMEOUT_FLOOR_US, WAIT_TIMEOUT_US,
};
use mdbs_simkit::SimTime;

const SITE: SiteId = SiteId(0);
const COORD: u32 = 1_000_000;

/// One site on a script: the test is its coordinator, and its clock moves
/// only by the test's `advance` and the site's own readings.
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

    fn advance(&mut self, us: u64) -> &mut Site {
        self.0.advance(us);
        self
    }

    fn deliver(&mut self, msg: Message) {
        self.0.host.send(COORD, SITE.0, msg);
        self.0
            .deliver(COORD, SITE.0)
            .expect("engine and agent agree");
    }

    /// Fire the pending LTM service timers of `instance`.
    fn run(&mut self, instance: Instance) {
        let mine = |t: &Timer| matches!(t, Timer::LtmExec { instance: i, .. } if *i == instance);
        let timers = self.0.host.parked(Lane::Timers { node: SITE.0 });
        let pending = timers
            .filter(|e| matches!(e, NodeEvent::Timer(t) if mine(t)))
            .count();
        for _ in 0..pending {
            self.0.fire(SITE.0, mine).expect("engine and agent agree");
        }
    }

    /// Start local `n` updating `keys` in turn and run its first command.
    fn local(&mut self, n: u32, keys: &[u64]) -> Instance {
        let program = keys
            .iter()
            .map(|&k| Command::Update(KeySpec::Key(k), 1))
            .collect();
        let Script { nodes, host, .. } = &mut self.0;
        (nodes.sites.get_mut(&SITE).expect("the site"))
            .start_local(n, program, host)
            .expect("start a local");
        let instance = Instance::local(SITE, n);
        self.run(instance);
        instance
    }

    /// Begin global `k` and run its update of `key`.
    fn global(&mut self, k: u32, key: u64) -> Instance {
        let gtxn = GlobalTxnId(k);
        self.deliver(Message::Begin { gtxn, coord: COORD });
        self.deliver(Message::Dml {
            gtxn,
            step: 0,
            command: Command::Update(KeySpec::Key(key), 1),
        });
        let instance = Instance::global(k, SITE, 0);
        self.run(instance);
        instance
    }

    fn is_blocked(&self, instance: Instance) -> bool {
        self.rt().blocked().any(|(i, _)| i == instance)
    }

    /// The timeout each blocked instance is held to, read far enough in the
    /// future that every wait has expired.
    fn timeouts(&self) -> Vec<(Instance, u64)> {
        let later = SimTime::from_micros(self.0.host.now().as_micros() + 10 * WAIT_TIMEOUT_US);
        self.rt()
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

    /// One granted wait of `wait_us` on key 3: a local holds the key while
    /// a second one waits for it.
    fn granted_wait(&mut self, n: u32, wait_us: u64) {
        let holder = self.local(n, &[3, 2]);
        let waiter = self.local(n + 1, &[3]);
        self.0
            .expect("the second local waits", self.is_blocked(waiter));
        // The holder's second command completes its program: it commits
        // and hands the key on.
        self.advance(wait_us).run(holder);
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
    s.granted_wait(10, 40_000);
    assert_eq!(s.timeouts(), vec![(blocked, 120_000)]);
}

#[test]
fn a_wait_that_ends_in_an_abort_is_not_a_sample() {
    let mut s = Site::new();
    // A local holds key 0; global 1 and then local 2 wait for it.
    s.local(1, &[0, 1]);
    let rolled_back = s.global(1, 0);
    let timed_out = s.local(2, &[0]);
    let both = s.is_blocked(rolled_back) && s.is_blocked(timed_out);
    s.0.expect("global 1 and local 2 wait", both);
    // 30 ms later one wait ends in a timeout, the other in a rollback.
    s.advance(30_000);
    let timeout = (s.rt().expired_waits(s.0.host.now(), 20_000))
        .find(|w| w.instance == timed_out)
        .expect("past a 20 ms ceiling");
    let Script { nodes, host, .. } = &mut s.0;
    (nodes.sites.get_mut(&SITE).expect("the site"))
        .abort_on_timeout(timeout, host)
        .expect("time the local out");
    s.deliver(Message::Rollback {
        gtxn: GlobalTxnId(1),
    });
    assert!(s.rt().blocked().next().is_none());
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
    s.global(3, 0);
    let t1 = s.global(1, 0);
    s.0.expect("T1 waits for T3's lock", s.is_blocked(t1));
    s.advance(10).deliver(Message::Prepare {
        gtxn: GlobalTxnId(3),
        sn: SerialNumber {
            ticks: 30,
            node: COORD,
            seq: 0,
        },
    });
    (s.0.inject_abort(SITE, Instance::global(3, SITE, 0))).expect("abort T3's first incarnation");
    assert!(!s.is_blocked(t1), "T1 got the lock");
    // COMMIT(T3) resubmits it; the replay waits for T1's lock, as does a
    // fresh local.
    s.advance(10).deliver(Message::Commit {
        gtxn: GlobalTxnId(3),
    });
    let replay = Instance::global(3, SITE, 1);
    s.run(replay);
    let local = s.local(1, &[0]);
    let mut timeouts = s.timeouts();
    timeouts.sort();
    let mut expected = vec![(replay, WAIT_TIMEOUT_US), (local, WAIT_TIMEOUT_FLOOR_US)];
    expected.sort();
    assert_eq!(timeouts, expected);
}
