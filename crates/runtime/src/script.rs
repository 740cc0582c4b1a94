//! The scripted host: every send and timer a runtime asks for waits until
//! a script delivers it.
//!
//! The paper defines the Agent, the Coordinator and the CGM scheduler only
//! by the messages and timers they react to, one enabled action at a time.
//! A [`Script`] is that statement made executable: a [`NodeSet`] and a
//! [`ScriptHost`] that parks each effect in a [`Lane`] — one FIFO lane per
//! `(from, to)` link, one lane per node's timers. Nothing is delivered
//! unless the script asks for it, so every link is held by default. The
//! bounded explorer in `mdbs-check` is a script written by a search; the
//! runtime tests are scripts written by hand.
//!
//! The clock is one counter: every [`TimeSource::local_time_us`] read
//! ticks it, [`TimeSource::now`] reads it, and timer deadlines are set on
//! it, so admission timestamps and alive intervals are strictly ordered by
//! causality. Only [`Script::advance`] moves it otherwise; firing a timer
//! does not.

use std::collections::{BTreeMap, VecDeque};

use mdbs_dtm::{GlobalOutcome, Message};
use mdbs_histories::{GlobalTxnId, Instance, Op, SiteId};
use mdbs_simkit::{Metrics, SimTime};

use crate::host::{CtrlMsg, RuntimeError, RuntimeHost, TimeSource, Timer, Transport};
use crate::node::{NodeEvent, NodeSet};
use crate::trace::TraceEvent;

/// Where a parked event waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Messages from node `from` to node `to`, in the order they were sent.
    Link { from: u32, to: u32 },
    /// The timers node `node` set, by deadline.
    Timers { node: u32 },
}

/// A lane's entries as `((deadline, seq), event)`. Messages have deadline
/// 0, so a script that always takes the oldest head drains the network
/// before any timer fires (timeouts are late, as on a healthy network);
/// `seq` breaks ties in arrival order.
type Queue = VecDeque<((u64, u64), NodeEvent)>;

/// The host a [`Script`] drives its nodes through: a one-counter clock,
/// the lanes, and the sinks a script reads back.
#[derive(Default)]
pub struct ScriptHost {
    clock: u64,
    seq: u64,
    lanes: BTreeMap<Lane, Queue>,
    /// The history recorded so far.
    pub ops: Vec<Op>,
    /// Terminal outcomes reported and not yet taken by the script.
    pub finished: Vec<(GlobalTxnId, GlobalOutcome)>,
    /// Admissions to a prepared table, `(site, gtxn)`, not yet taken by
    /// the script.
    pub prepared: Vec<(SiteId, GlobalTxnId)>,
    /// Every counter a runtime bumped.
    pub metrics: Metrics,
}

impl ScriptHost {
    fn push(&mut self, lane: Lane, deadline: u64, event: NodeEvent) {
        self.seq += 1;
        let parked = ((deadline, self.seq), event);
        self.lanes.entry(lane).or_default().push_back(parked);
    }

    /// Park `event` on the link `from → to`, as if `from` had sent it.
    pub fn park(&mut self, from: u32, to: u32, event: NodeEvent) {
        self.push(Lane::Link { from, to }, 0, event);
    }

    /// The events waiting in `lane`, in arrival order.
    pub fn parked(&self, lane: Lane) -> impl Iterator<Item = &NodeEvent> {
        self.lanes.get(&lane).into_iter().flatten().map(|(_, e)| e)
    }

    /// Every lane with something in it, ordered by its head — the entry
    /// with the smallest `(deadline, seq)`: the front of a link, the
    /// earliest timer of a node. The first is what a well-behaved FIFO
    /// network would deliver next.
    pub fn heads(&self) -> Vec<Lane> {
        let mut heads: Vec<((u64, u64), Lane)> = (self.lanes.iter())
            .filter_map(|(lane, q)| q.iter().map(|(k, _)| (*k, *lane)).min())
            .collect();
        heads.sort();
        heads.into_iter().map(|(_, lane)| lane).collect()
    }

    /// Take the earliest entry of `lane` whose event `pick` accepts.
    fn take(&mut self, lane: Lane, pick: impl Fn(&NodeEvent) -> bool) -> Option<NodeEvent> {
        let q = self.lanes.get_mut(&lane)?;
        let (at, _) = (q.iter().enumerate())
            .filter(|(_, (_, e))| pick(e))
            .min_by_key(|(_, (k, _))| *k)?;
        let (_, event) = q.remove(at)?;
        if q.is_empty() {
            self.lanes.remove(&lane);
        }
        Some(event)
    }
}

impl TimeSource for ScriptHost {
    fn local_time_us(&mut self, _node: u32) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock)
    }
}

impl Transport for ScriptHost {
    fn send(&mut self, from: u32, to: u32, msg: Message) {
        self.park(from, to, NodeEvent::Net(msg));
    }

    fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg) {
        self.park(from, to, NodeEvent::Ctrl { from, ctrl });
    }

    fn set_timer(&mut self, node: u32, after_us: u64, timer: Timer) {
        let deadline = self.clock.saturating_add(after_us);
        self.push(Lane::Timers { node }, deadline, NodeEvent::Timer(timer));
    }
}

impl RuntimeHost for ScriptHost {
    fn record_op(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn inc(&mut self, name: &'static str) {
        self.metrics.inc(name);
    }

    fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    fn trace(&mut self, _event: TraceEvent) {}

    fn prepared(&mut self, site: SiteId, gtxn: GlobalTxnId, _incarnation: u32) {
        self.prepared.push((site, gtxn));
    }

    fn local_settled(&mut self, _site: SiteId, _committed: bool) {}

    fn global_finished(&mut self, _cnode: u32, gtxn: GlobalTxnId, outcome: GlobalOutcome) {
        self.finished.push((gtxn, outcome));
    }
}

/// A [`NodeSet`] driven one action at a time. The steps return what the
/// runtimes return; a step that has nothing to act on means the script
/// did not reach its scenario, and panics naming the step. A script arms
/// no crash hook (`coord_crash_after_ready`): it crash-stops a coordinator
/// with [`NodeSet::kill`].
pub struct Script {
    /// Every runtime of the world.
    pub nodes: NodeSet,
    /// What the runtimes asked for, parked.
    pub host: ScriptHost,
    steps: usize,
}

impl Script {
    /// A script over `nodes`, with nothing parked and the clock at 1.
    pub fn new(nodes: NodeSet) -> Script {
        let mut script = Script {
            nodes,
            host: ScriptHost::default(),
            steps: 0,
        };
        script.advance(1);
        script
    }

    /// Panic with "not reached at step k: `what`" unless `cond` holds.
    pub fn expect(&self, what: &str, cond: bool) {
        if !cond {
            self.not_reached(what);
        }
    }

    fn not_reached(&self, what: &str) -> ! {
        panic!("not reached at step {}: {what}", self.steps)
    }

    /// Hand `event` to node `to` directly, as a driver does (`Start`,
    /// `TakeOver`).
    pub fn hand(&mut self, to: u32, event: NodeEvent) -> Result<(), RuntimeError> {
        self.steps += 1;
        self.nodes.on_event(to, event, &mut self.host).map(drop)
    }

    /// Deliver the oldest message parked on the link `from → to`.
    pub fn deliver(&mut self, from: u32, to: u32) -> Result<(), RuntimeError> {
        let Some(event) = self.host.take(Lane::Link { from, to }, |_| true) else {
            self.not_reached(&format!("a message from {from} to {to}"));
        };
        self.hand(to, event)
    }

    /// Fire the earliest timer `node` set that `pick` accepts.
    pub fn fire(&mut self, node: u32, pick: impl Fn(&Timer) -> bool) -> Result<(), RuntimeError> {
        let picked = |e: &NodeEvent| matches!(e, NodeEvent::Timer(t) if pick(t));
        let Some(event) = self.host.take(Lane::Timers { node }, picked) else {
            self.not_reached(&format!("a timer at node {node}"));
        };
        self.hand(node, event)
    }

    /// Unilaterally abort `instance` at `site` now.
    pub fn inject_abort(&mut self, site: SiteId, instance: Instance) -> Result<(), RuntimeError> {
        let Some(rt) = self.nodes.sites.get_mut(&site) else {
            self.not_reached(&format!("site {site}"));
        };
        self.steps += 1;
        rt.inject_abort(instance, &mut self.host)
    }

    /// Move the clock `us` forward.
    pub fn advance(&mut self, us: u64) {
        self.host.clock += us;
    }

    /// Drop what can no longer do anything: alive timers of transactions
    /// their site no longer tracks, and messages to crash-stopped nodes.
    pub fn prune(&mut self) {
        let (sites, dead) = (&self.nodes.sites, &self.nodes.dead);
        self.host.lanes.retain(|lane, q| match *lane {
            Lane::Link { to, .. } => !dead.contains(&to),
            Lane::Timers { node } => {
                if let Some(rt) = sites.get(&SiteId(node)) {
                    q.retain(|(_, e)| match e {
                        NodeEvent::Timer(Timer::Alive { gtxn }) => rt.agent().has_subtxn(*gtxn),
                        _ => true,
                    });
                }
                !q.is_empty()
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not reached at step 1: a message from 7 to 0")]
    fn a_step_with_nothing_to_act_on_names_the_step() {
        let mut s = Script::new(NodeSet::default());
        s.expect("nothing parked", s.host.heads().is_empty());
        s.hand(0, NodeEvent::Drain).expect_err("no site 0");
        let _ = s.deliver(7, 0);
    }
}
