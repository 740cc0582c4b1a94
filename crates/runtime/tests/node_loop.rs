//! The node loop, tested on its own: `run_node` driven by a scripted
//! in-memory port (flush-before-block, the burst bound, timer ordering,
//! `Shutdown`/`Drain`/crash handling), plus the shared housekeeping next
//! to it — the timer heap, the READY crash counter, the admission window,
//! the one misrouted-input policy and the CGM control plane's
//! once-per-transaction guards.

use std::collections::{BTreeSet, VecDeque};

use mdbs_baselines::SiteLockMode;
use mdbs_dtm::{AgentConfig, GlobalOutcome, Message};
use mdbs_histories::{GlobalTxnId, Op, SiteId};
use mdbs_ldbs::{Command, CommandResult, KeySpec, Ldbs, SiteProfile, Store};
use mdbs_runtime::script::{Lane, Script};
use mdbs_runtime::{
    message_kind, run_node, AcceptorRuntime, AdmissionWindow, CentralRuntime, CoordinatorRuntime,
    CtrlMsg, Flow, NodeEvent, NodePort, NodeRuntime, NodeSet, ReadyCrash, RuntimeError,
    RuntimeHost, SiteRuntime, TimeSource, Timer, TimerHeap, TraceEvent, Transport, ACCEPTOR_BASE,
    CENTRAL, COORD_BASE, RECV_BATCH,
};
use mdbs_simkit::{Metrics, SimTime};

fn net(n: u32) -> NodeEvent {
    NodeEvent::Net(Message::Commit {
        gtxn: GlobalTxnId(n),
    })
}

fn alive(n: u32) -> Timer {
    Timer::Alive {
        gtxn: GlobalTxnId(n),
    }
}

/// A scripted in-memory port: a fixed inbox, a real [`TimerHeap`], a
/// clock that advances one µs per receive call, and a log of what the
/// loop asked of it. An empty inbox answers `Shutdown`.
#[derive(Default)]
struct FakePort {
    now_us: u64,
    inbox: VecDeque<NodeEvent>,
    timers: TimerHeap<Timer>,
    log: Vec<&'static str>,
    metrics: Metrics,
    sent: usize,
    ctrl_sent: usize,
}

impl FakePort {
    fn with_inbox(events: impl IntoIterator<Item = NodeEvent>) -> FakePort {
        FakePort {
            inbox: events.into_iter().collect(),
            ..FakePort::default()
        }
    }

    fn next(&mut self) -> Option<NodeEvent> {
        self.now_us += 1;
        if let Some(timer) = self.timers.pop_due(self.now_us) {
            return Some(NodeEvent::Timer(timer));
        }
        self.inbox.pop_front()
    }
}

impl TimeSource for FakePort {
    fn local_time_us(&mut self, _node: u32) -> u64 {
        self.now_us
    }
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us)
    }
}

impl Transport for FakePort {
    fn send(&mut self, _from: u32, _to: u32, _msg: Message) {
        self.sent += 1;
    }
    fn send_ctrl(&mut self, _from: u32, _to: u32, _ctrl: CtrlMsg) {
        self.ctrl_sent += 1;
    }
    fn set_timer(&mut self, _node: u32, after_us: u64, timer: Timer) {
        self.timers.push(self.now_us + after_us, timer);
    }
}

impl RuntimeHost for FakePort {
    fn record_op(&mut self, _op: Op) {}
    fn inc(&mut self, name: &'static str) {
        self.metrics.inc(name);
    }
    fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }
    fn trace(&mut self, _event: TraceEvent) {}
    fn prepared(&mut self, _site: SiteId, _gtxn: GlobalTxnId, _incarnation: u32) {}
    fn local_settled(&mut self, _site: SiteId, _committed: bool) {}
    fn global_finished(&mut self, _cnode: u32, _gtxn: GlobalTxnId, _outcome: GlobalOutcome) {}
}

impl NodePort for FakePort {
    fn recv(&mut self, _wait_us: Option<u64>) -> Option<NodeEvent> {
        self.log.push("recv");
        Some(self.next().unwrap_or(NodeEvent::Shutdown))
    }
    fn try_recv(&mut self) -> Option<NodeEvent> {
        let ev = self.next();
        if ev.is_some() {
            self.log.push("try");
        }
        ev
    }
    fn flush(&mut self) {
        self.log.push("flush");
    }
    fn expired(&self) -> bool {
        false
    }
    fn report(&mut self) {
        self.log.push("report");
    }
    fn crash_stop(&mut self) {
        self.log.push("crash");
    }
}

/// A runtime that records what it is handed.
#[derive(Default)]
struct Recorder {
    seen: Vec<NodeEvent>,
    /// Timers `(after_us, timer)` to set while handling the first event.
    arm: Vec<(u64, Timer)>,
    /// Quiesced once this many events were seen.
    quiesced_after: usize,
    /// Answer the n-th event (1-based) with [`Flow::Crash`].
    crash_on: usize,
}

impl NodeRuntime for Recorder {
    fn on_event<H: RuntimeHost>(
        &mut self,
        event: NodeEvent,
        host: &mut H,
    ) -> Result<Flow, RuntimeError> {
        if self.seen.len() + 1 == self.crash_on {
            return Ok(Flow::Crash);
        }
        self.seen.push(event);
        for (after_us, timer) in self.arm.drain(..) {
            host.set_timer(0, after_us, timer);
        }
        Ok(Flow::Continue)
    }

    fn quiesced(&self) -> bool {
        self.seen.len() >= self.quiesced_after
    }
}

#[test]
fn flush_precedes_every_blocking_receive_and_ends_the_loop() {
    let mut port = FakePort::with_inbox((1..=3).map(net));
    let mut rt = Recorder::default();
    run_node(&mut rt, &mut port);
    assert_eq!(rt.seen.len(), 3);
    for (i, entry) in port.log.iter().enumerate() {
        if *entry == "recv" {
            assert_eq!(port.log[i - 1], "flush", "log: {:?}", port.log);
        }
    }
    assert_eq!(port.log.last(), Some(&"flush"));
}

#[test]
fn at_most_recv_batch_events_are_handled_between_flushes() {
    let total = 2 * RECV_BATCH + 22;
    let mut port = FakePort::with_inbox((0..total as u32).map(net));
    let mut rt = Recorder::default();
    run_node(&mut rt, &mut port);
    assert_eq!(rt.seen.len(), total);
    let mut bursts = vec![0usize];
    for entry in &port.log {
        match *entry {
            "flush" => bursts.push(0),
            "recv" | "try" => *bursts.last_mut().unwrap() += 1,
            _ => {}
        }
    }
    assert_eq!(bursts.iter().max(), Some(&RECV_BATCH), "{bursts:?}");
}

#[test]
fn due_timers_fire_in_deadline_then_seq_order_between_messages() {
    let mut port = FakePort::with_inbox((1..=6).map(net));
    let mut rt = Recorder {
        // Set at t=1: deadlines 6, 3, 3.
        arm: vec![(5, alive(1)), (2, alive(2)), (2, alive(3))],
        ..Recorder::default()
    };
    run_node(&mut rt, &mut port);
    let timer = |n| NodeEvent::Timer(alive(n));
    assert_eq!(
        rt.seen,
        vec![
            net(1),   // t=1, arms the timers
            net(2),   // t=2
            timer(2), // t=3: deadline 3, set first
            timer(3), // t=4: deadline 3, set second
            net(3),   // t=5
            timer(1), // t=6: deadline 6
            net(4),
            net(5),
            net(6),
        ]
    );
}

#[test]
fn shutdown_mid_burst_handles_nothing_after_it() {
    let mut port = FakePort::with_inbox([net(1), NodeEvent::Shutdown, net(2)]);
    let mut rt = Recorder::default();
    run_node(&mut rt, &mut port);
    assert_eq!(rt.seen, vec![net(1)]);
    assert_eq!(
        port.inbox.len(),
        1,
        "the event behind Shutdown stays queued"
    );
    assert_eq!(port.log.last(), Some(&"flush"));
}

#[test]
fn drain_reports_exactly_once_and_only_once_quiesced() {
    let mut events = vec![NodeEvent::Drain];
    events.extend((0..3 * RECV_BATCH as u32).map(net));
    events.insert(RECV_BATCH, NodeEvent::Drain); // a retransmitted Drain
    let mut port = FakePort::with_inbox(events);
    let mut rt = Recorder {
        quiesced_after: RECV_BATCH + 1,
        ..Recorder::default()
    };
    run_node(&mut rt, &mut port);
    let reports: Vec<usize> = (0..port.log.len())
        .filter(|&i| port.log[i] == "report")
        .collect();
    assert_eq!(reports.len(), 1, "log: {:?}", port.log);
    let delivered_before = port.log[..reports[0]]
        .iter()
        .filter(|e| matches!(**e, "recv" | "try"))
        .count();
    assert!(
        delivered_before > RECV_BATCH + 1,
        "reported after only {delivered_before} events"
    );
    // Drain is the loop's, not the runtime's.
    assert!(!rt.seen.contains(&NodeEvent::Drain));
}

#[test]
fn the_crash_verdict_stops_the_loop_without_a_flush() {
    let mut port = FakePort::with_inbox((1..=5).map(net));
    let mut rt = Recorder {
        crash_on: 3,
        ..Recorder::default()
    };
    run_node(&mut rt, &mut port);
    assert_eq!(rt.seen, vec![net(1), net(2)]);
    assert_eq!(port.log.last(), Some(&"crash"));
}

#[test]
fn timer_heap_pops_due_entries_by_deadline_then_insertion() {
    let mut heap = TimerHeap::default();
    heap.push(30, "c");
    heap.push(10, "a1");
    heap.push(10, "a2");
    assert_eq!(heap.next_deadline_us(), Some(10));
    assert_eq!(heap.pop_due(9), None);
    assert_eq!(heap.pop_due(10), Some("a1"));
    assert_eq!(heap.pop_due(29), Some("a2"));
    assert_eq!(heap.pop_due(29), None);
    assert_eq!(heap.pop_due(30), Some("c"));
    assert_eq!(heap.next_deadline_us(), None);
}

/// The single crash counter: `(c, k)` strikes coordinator `c` on its
/// k-th READY exactly, other coordinators never, and `k = 0` never.
#[test]
fn ready_crash_counts_readies_and_never_fires_at_zero() {
    let node = COORD_BASE + 1;
    let ready = Message::Ready {
        gtxn: GlobalTxnId(1),
        site: SiteId(0),
    };
    let other = Message::CommitAck {
        gtxn: GlobalTxnId(1),
        site: SiteId(0),
    };
    let strikes = |hook, node| {
        let mut crash = ReadyCrash::for_node(hook, node);
        [&other, &ready, &ready, &other, &ready].map(|msg| crash.strikes(msg))
    };
    assert_eq!(strikes(Some((1, 0)), node), [false; 5]);
    assert_eq!(
        strikes(Some((1, 1)), node),
        [false, true, false, false, false]
    );
    assert_eq!(
        strikes(Some((1, 2)), node),
        [false, false, true, false, false]
    );
    assert_eq!(strikes(Some((1, 1)), COORD_BASE), [false; 5]);
    assert_eq!(strikes(None, node), [false; 5]);
}

#[test]
fn admission_window_holds_the_mpl_and_reroutes_around_dead_coordinators() {
    let mut window = AdmissionWindow::new(2, 2);
    for g in 1..=4 {
        window.arrive(GlobalTxnId(g), Vec::new());
    }
    let mut dead = BTreeSet::new();
    let admit = |w: &mut AdmissionWindow, dead: &BTreeSet<u32>| {
        w.admit(dead).map(|(cnode, gtxn, _)| (cnode, gtxn.0))
    };
    assert_eq!(admit(&mut window, &dead), Some((COORD_BASE + 1, 1)));
    assert_eq!(admit(&mut window, &dead), Some((COORD_BASE, 2)));
    assert_eq!(admit(&mut window, &dead), None, "window full at mpl");
    assert!(window.settled(GlobalTxnId(1)));
    assert!(
        !window.settled(GlobalTxnId(1)),
        "a repeat is not a settlement"
    );
    dead.insert(COORD_BASE + 1);
    assert_eq!(
        admit(&mut window, &dead),
        Some((COORD_BASE, 3)),
        "gtxn 3's home is dead: rerouted to the lowest live coordinator"
    );
    assert_eq!(admit(&mut window, &dead), None, "the repeat freed no slot");
    assert!(window.settled(GlobalTxnId(2)));
    dead.insert(COORD_BASE);
    assert_eq!(admit(&mut window, &dead), None, "nobody left to admit at");
    assert!(!window.idle());
}

/// One misroute per node kind: counted, dropped, nothing sent, no error —
/// wire input must never panic a node.
#[test]
fn misrouted_events_are_counted_and_dropped_by_every_node_kind() {
    let ctrl = NodeEvent::Ctrl {
        from: CENTRAL,
        ctrl: CtrlMsg::CgmAdmitted {
            gtxn: GlobalTxnId(1),
        },
    };
    let engine = Ldbs::new(SiteId(0), SiteProfile::for_site(0), Store::with_rows(4, 0));
    let site = SiteRuntime::new(SiteId(0), AgentConfig::default(), engine, 1);
    let mut nodes = NodeSet {
        sites: [(SiteId(0), site)].into(),
        coords: [(COORD_BASE, CoordinatorRuntime::new(COORD_BASE, false))].into(),
        central: CentralRuntime::new(),
        acceptors: [(ACCEPTOR_BASE, AcceptorRuntime::new(ACCEPTOR_BASE))].into(),
        dead: BTreeSet::new(),
    };
    let mut port = FakePort::default();
    let misroutes = [
        (0, ctrl),
        (COORD_BASE, NodeEvent::Timer(alive(1))),
        (CENTRAL, net(1)),
        (ACCEPTOR_BASE, NodeEvent::TakeOver),
        (ACCEPTOR_BASE, NodeEvent::Drain),
    ];
    for (i, (to, event)) in misroutes.into_iter().enumerate() {
        let flow = nodes
            .on_event(to, event, &mut port)
            .expect("dropped, not an error");
        assert_eq!(flow, Flow::Continue);
        assert_eq!(port.metrics.counter("misrouted_events"), i as u64 + 1);
    }
    assert_eq!(port.ctrl_sent, 0);
    assert!(port.timers.next_deadline_us().is_none());
    // An unknown node is an error value, not a panic.
    assert!(nodes.on_event(7, net(1), &mut port).is_err());
}

fn ctrl(from: u32, ctrl: CtrlMsg) -> NodeEvent {
    NodeEvent::Ctrl { from, ctrl }
}

/// Hand `event` to `rt`: whatever it is, it is no error and no crash.
fn step<R: NodeRuntime>(rt: &mut R, port: &mut FakePort, event: NodeEvent) {
    let flow = rt.on_event(event, port).expect("dropped, not an error");
    assert_eq!(flow, Flow::Continue);
}

// The transport is at-least-once and the CGM control plane rides it like
// everything else. At the parent of PR 19 the first script below panicked
// in `Coordinator::begin` ("already in flight"), the second in
// `GlobalLockManager::request` ("duplicate admission request"), and the
// late messages of the third came back as `RuntimeError::MissingState`,
// which `or_die` turns into a dead node.

#[test]
fn a_redelivered_admission_grant_begins_the_transaction_once() {
    let gtxn = GlobalTxnId(1);
    let mut rt = CoordinatorRuntime::new(COORD_BASE, true);
    let mut port = FakePort::default();
    let program = vec![(SiteId(0), Command::Update(KeySpec::Key(1), 1))];
    step(&mut rt, &mut port, NodeEvent::Start { gtxn, program });
    assert_eq!(port.ctrl_sent, 1, "the admission request");
    let grant = || ctrl(CENTRAL, CtrlMsg::CgmAdmitted { gtxn });
    step(&mut rt, &mut port, grant());
    assert_eq!(port.sent, 1, "the first DML, carrying the BEGIN");
    step(&mut rt, &mut port, grant());
    assert_eq!(port.sent, 1);
    assert_eq!(port.metrics.counter("ctrl_duplicates_ignored"), 1);
}

#[test]
fn the_scheduler_acts_once_on_each_request_of_a_transaction() {
    let gtxn = GlobalTxnId(1);
    let mut rt = CentralRuntime::new();
    let mut port = FakePort::default();
    let script = [
        CtrlMsg::CgmRequest {
            gtxn,
            modes: vec![(SiteId(0), SiteLockMode::Update)],
        },
        CtrlMsg::CgmVote {
            gtxn,
            sites: [SiteId(0)].into(),
        },
        CtrlMsg::CgmFinished { gtxn },
    ];
    for msg in script {
        for _ in 0..2 {
            step(&mut rt, &mut port, ctrl(COORD_BASE, msg.clone()));
        }
    }
    assert_eq!(port.ctrl_sent, 2, "one grant, one verdict");
    assert_eq!(port.metrics.counter("cgm_votes_ok"), 1);
    assert_eq!(port.metrics.counter("ctrl_duplicates_ignored"), 3);
}

#[test]
fn a_second_verdict_is_void_and_late_answers_find_no_transaction() {
    let (gtxn, site) = (GlobalTxnId(1), SiteId(0));
    let mut rt = CoordinatorRuntime::new(COORD_BASE, true);
    let mut port = FakePort::default();
    let grant = || ctrl(CENTRAL, CtrlMsg::CgmAdmitted { gtxn });
    let verdict = |ok| ctrl(CENTRAL, CtrlMsg::CgmVoteResult { gtxn, ok });
    let result = CommandResult::default();
    let conversation = [
        NodeEvent::Start {
            gtxn,
            program: vec![(site, Command::Update(KeySpec::Key(1), 1))],
        },
        grant(),
        NodeEvent::Net(Message::DmlResult {
            gtxn,
            site,
            step: 0,
            result,
        }),
        verdict(true),
        // The same vote judged again, differently: the PREPARE is out, so
        // acting on it would abort a transaction the sites may commit.
        verdict(false),
        NodeEvent::Net(Message::Ready { gtxn, site }),
        NodeEvent::Net(Message::CommitAck { gtxn, site }),
    ];
    for event in conversation {
        step(&mut rt, &mut port, event);
    }
    assert!(rt.quiesced(), "the transaction finished");
    assert_eq!(port.sent, 3, "BEGIN-DML, PREPARE, COMMIT — no ROLLBACK");
    assert_eq!(port.ctrl_sent, 3, "request, vote, finished");
    for late in [grant(), verdict(true), verdict(false)] {
        step(&mut rt, &mut port, late);
    }
    assert_eq!((port.sent, port.ctrl_sent), (3, 3));
    assert_eq!(port.metrics.counter("ctrl_duplicates_ignored"), 4);
}

/// The same guard after an *aborted* finish: a site fails after the vote
/// went to the scheduler, the coordinator rolls the other site back and
/// finishes, and only then does the verdict arrive. It finds no
/// transaction and no held PREPARE: counted and dropped, no PREPARE sent,
/// no error.
#[test]
fn a_verdict_that_outlives_an_aborted_transaction_is_dropped() {
    let (gtxn, coord, result) = (GlobalTxnId(1), COORD_BASE, CommandResult::default());
    let mut s = Script::new(NodeSet {
        coords: [(coord, CoordinatorRuntime::new(coord, true))].into(),
        ..NodeSet::default()
    });
    let update = |key| Command::Update(KeySpec::Key(key), 1);
    let program = vec![(SiteId(0), update(1)), (SiteId(1), update(2))];
    s.hand(coord, NodeEvent::Start { gtxn, program })
        .expect("start");
    let (site0, site1) = (SiteId(0), SiteId(1));
    let done = |site, step| Message::DmlResult {
        gtxn,
        site,
        step,
        result: result.clone(),
    };
    let conversation = [
        (CENTRAL, ctrl(CENTRAL, CtrlMsg::CgmAdmitted { gtxn })),
        (0, NodeEvent::Net(done(site0, 0))),
        (1, NodeEvent::Net(done(site1, 1))),
        (0, NodeEvent::Net(Message::Failed { gtxn, site: site0 })),
        (
            1,
            NodeEvent::Net(Message::RollbackAck { gtxn, site: site1 }),
        ),
        (
            CENTRAL,
            ctrl(CENTRAL, CtrlMsg::CgmVoteResult { gtxn, ok: true }),
        ),
    ];
    for (from, event) in conversation {
        s.host.park(from, coord, event);
        s.deliver(from, coord).expect("dropped, not an error");
    }
    let sent = |to| -> Vec<String> {
        let kind = |e: &NodeEvent| match e {
            NodeEvent::Net(msg) => message_kind(msg).to_string(),
            NodeEvent::Ctrl { ctrl, .. } => ctrl.variant_name().to_string(),
            other => format!("{other:?}"),
        };
        s.host
            .parked(Lane::Link { from: coord, to })
            .map(kind)
            .collect()
    };
    let to_central = ["CgmRequest", "CgmVote", "CgmFinished"];
    s.expect(
        "the vote, then the abort's finish",
        sent(CENTRAL) == to_central,
    );
    assert_eq!(sent(0), ["msg_begin_dml"]);
    assert_eq!(sent(1), ["msg_begin_dml", "msg_rollback"]);
    assert_eq!(s.host.metrics.counter("ctrl_duplicates_ignored"), 1);
}
