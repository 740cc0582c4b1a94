//! [`TcpTransport`]: the runtime [`Transport`] over real sockets.
//!
//! Topology: every node listens on one address and keeps one *link* per
//! peer — a connected socket, a bounded outbox and a writer thread.
//!
//! **Who writes.** On a healthy link the **sending thread writes its own
//! frames**: when the link is connected and nothing is queued behind it,
//! [`TcpTransport::send_wire_group`] encodes the group as one CRC-framed
//! frame and puts it on the socket before it returns (*write-through*), so
//! a hop costs two thread wake-ups — the peer's reader and the peer's node
//! loop — and no hand-off on this side. The per-peer **writer thread is the
//! link's repair path**: it owns everything that may block for long —
//! connecting lazily with exponential backoff, announcing this node with a
//! [`WireMsg::Hello`] frame on every fresh connection, retransmitting after
//! a severed connection — and drains the **bounded** outbox that holds the
//! backlog while the link is down (senders block when it fills:
//! backpressure instead of unbounded memory), **coalescing** queued groups
//! into one batch frame per write (see [`crate::frame`] version 2). Which
//! of the two writes a given group is decided by the link's own state,
//! never by configuration.
//!
//! **Why that is still FIFO.** Each link counts its `backlog`: groups
//! handed to the writer and not yet on the wire. A sender adds to it
//! *before* it queues a group; the writer subtracts a frame's groups only
//! *after* the frame is delivered and the socket is back in the link. The
//! sender writes through only when the backlog is zero, so everything it
//! queued earlier has already left, and it queues whenever the backlog is
//! not zero, so nothing it sends later can overtake. The socket itself
//! sits in a per-link mutex whose guard *is* the right to write: the
//! sender only ever `try_lock`s it (a link that is busy is a link with a
//! backlog), the writer takes the stream out by value for as long as it
//! repairs or drains, and both put a frame on a stream through the same
//! `Link::write_frame`.
//!
//! **When a write fails.** Streams carry an `IO_POLL` (50 ms) write timeout, so
//! the sending thread waits on a stalled peer at most that long, once: the
//! failed write severs the connection and hands *that frame* — the bytes
//! the sender built — to the writer, which replays it, unmerged, after the
//! `Hello` of a fresh connection; from then on the link has a backlog and
//! is the writer's until it has drained. The writer **retransmits its
//! in-flight frame** the same way — the whole batch, as one frame, never
//! re-fragmented. Delivery is therefore at-least-once and per-link FIFO at
//! both message and batch granularity across every switch between the two
//! paths: a write failure can duplicate a frame but never reorder or split
//! one — exactly the fault envelope the 2PC agents were hardened against.
//!
//! **Flush policy (writer thread only).** A batch closes when it reaches
//! [`TcpTransportConfig::batch_max`] messages (or a byte ceiling), or when
//! the outbox is dry. With [`TcpTransportConfig::flush_deadline_us`] = 0 —
//! what a cluster runs with — "dry" is immediate: the node loop already
//! hands over one group per link per burst, a backlog still coalesces,
//! and nothing ever waits. A non-zero value lets a raw producer without a
//! batching point of its own (`net_throughput`) hold an underfull batch
//! open for an **adaptive deadline**: it starts at that ceiling; a batch
//! that fills on size or a wait that harvested more messages keeps it, a
//! fruitless wait halves it, so an idle link decays to flush-immediately.
//! The wait is reachable only behind a backlog — a written-through frame
//! never waits for anything. Under a node loop that second wait is double
//! batching — it delays each link by a different amount and so reorders
//! PREPAREs *across* links, which shows up as §5.3 serial-number refusals
//! (DESIGN §9b). `batch_max = 1` degenerates to the old frame-per-message
//! path (version 1 frames on the wire).
//!
//! Inbound, an accept loop blocked in `accept()` spawns one reader thread
//! per connection (a peer's first frame is read the moment it connects;
//! [`TcpTransport::shutdown`] wakes the loop with a connection of its own); each runs its own [`FrameDecoder`] and pushes each frame's
//! decoded messages into a shared channel as one group. A framing or
//! codec error severs that connection (once framing is lost a TCP stream
//! cannot be resynchronized) and counts in
//! [`TransportStats::decode_errors`]; the peer's writer will reconnect
//! and retransmit.
//!
//! Timers ([`Transport::set_timer`]) never touch the network: they sit in
//! a local [`TimerHeap`] keyed by wall-clock deadline and pop out of
//! [`TcpTransport::poll`] interleaved with received messages.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use mdbs_dtm::Message;
use mdbs_runtime::{CtrlMsg, Timer, TimerHeap, Transport};

use crate::frame::{encode_batch_frame_into, encode_frame, encode_frame_into, FrameDecoder};
use crate::wire::{decode_frame_payload, encode_msg, Wire, WireMsg};

/// How long blocked reads/writes wait before re-checking the stop flag —
/// and so the longest a sending thread waits on a stalled peer before the
/// link is the writer's.
const IO_POLL: Duration = Duration::from_millis(50);
/// How long the accept loop backs off after a failed `accept` or reader
/// spawn (out of descriptors or threads) before trying again.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);
/// How often [`TcpTransport::drain`] looks whether the writers are done.
const DRAIN_POLL: Duration = Duration::from_millis(1);
/// Soft byte ceiling per batch payload: a batch closes once its encoded
/// payload reaches this, whatever the message count says. Keeps worst-case
/// frames (e.g. coalesced `NodeReport`s) far below `MAX_FRAME_LEN`.
const BATCH_SOFT_BYTES: usize = 1 << 20;
/// How many queued groups one lock acquisition moves from the outbox into
/// the writer's local queue.
const OUTBOX_DRAIN: usize = 128;

/// Shared transport counters, readable while the transport runs.
#[derive(Default)]
pub struct TransportStats {
    /// Frames written and flushed (including Hello and retransmits).
    pub frames_sent: AtomicU64,
    /// Of those, the frames the sending thread put on the wire itself
    /// (write-through on a healthy, idle link); the rest left through a
    /// writer thread.
    pub frames_written_through: AtomicU64,
    /// Frames received and decoded (including Hello).
    pub frames_received: AtomicU64,
    /// Messages written and flushed (including Hello and retransmits).
    /// With batching a frame carries one or more of these.
    pub msgs_sent: AtomicU64,
    /// Messages received and decoded (including Hello).
    pub msgs_received: AtomicU64,
    /// Frames sent that coalesced more than one message.
    pub batches_sent: AtomicU64,
    /// Successful outbound connections (first connects and reconnects).
    pub connects: AtomicU64,
    /// Inbound connections severed by a framing or codec error.
    pub decode_errors: AtomicU64,
    /// Times the fault hook deliberately closed a healthy connection.
    pub test_drops: AtomicU64,
}

impl TransportStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Construction parameters for [`TcpTransport`].
pub struct TcpTransportConfig {
    /// This node's runtime id.
    pub node: u32,
    /// Address to listen on.
    pub listen_addr: String,
    /// Runtime node id → address for every peer this node may talk to.
    pub peers: BTreeMap<u32, String>,
    /// Outbox depth per peer, in message groups; senders block when it
    /// fills.
    pub outbox_capacity: usize,
    /// Most messages one frame may coalesce. `1` disables batching: every
    /// message rides its own version 1 frame, exactly the pre-batching
    /// wire behavior.
    pub batch_max: usize,
    /// Ceiling of the adaptive flush deadline: how long a writer may hold
    /// an underfull batch open waiting for more traffic. `0` — the
    /// cluster default — flushes as soon as the queue is drained
    /// (coalescing still happens when a backlog exists, but nothing ever
    /// waits).
    pub flush_deadline_us: u64,
    /// First reconnect backoff.
    pub backoff_initial: Duration,
    /// Backoff cap (doubles up to this).
    pub backoff_max: Duration,
    /// Fault hook: after this many *messages* written by this node, close
    /// the active connection once, forcing the reconnect + retransmit
    /// path (with batching, the cut lands mid-batch-stream).
    pub test_drop_after: Option<u64>,
}

/// An event out of [`TcpTransport::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A message arrived from a peer (or from this node to itself).
    Msg(WireMsg),
    /// A local timer came due.
    Timer {
        /// The node the timer was set against.
        node: u32,
        /// The timer payload.
        timer: Timer,
    },
}

/// The real-network transport. See the module docs for the thread model.
pub struct TcpTransport {
    node: u32,
    batch_max: usize,
    peers: BTreeMap<u32, Peer>,
    inbound_tx: Sender<Vec<WireMsg>>,
    inbound: Receiver<Vec<WireMsg>>,
    /// Messages already taken off the inbound channel but not yet polled
    /// out: the channel moves whole frame-groups, this hands them out one
    /// at a time without a lock per message.
    ready: VecDeque<WireMsg>,
    /// Scratch for the non-blocking inbound drain in `pop_ready`; reused
    /// across polls so the hot poll loop does not allocate per call.
    drain_scratch: Vec<Vec<WireMsg>>,
    /// Pending timers as `(node, timer)`, by µs since `epoch`.
    timers: TimerHeap<(u32, Timer)>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    /// Where a connection reaches this node's own listener: how
    /// [`TcpTransport::shutdown`] wakes the accept loop.
    wake_addr: SocketAddr,
    /// The accept thread first, then one writer per peer.
    handles: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Bind the listener, spawn the accept loop and one writer per peer.
    pub fn start(cfg: TcpTransportConfig) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(cfg.listen_addr.as_str())?;
        TcpTransport::on_listener(listener, cfg)
    }

    /// [`TcpTransport::start`] on a listener the caller has already bound
    /// (`cfg.listen_addr` is not read): a test binds port 0 and keeps the
    /// socket, so no port is released between learning it and serving it.
    pub(crate) fn on_listener(
        listener: TcpListener,
        cfg: TcpTransportConfig,
    ) -> io::Result<TcpTransport> {
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let (inbound_tx, inbound) = unbounded();
        let mut handles = Vec::new();

        {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let inbound_tx = inbound_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mdbs-net-accept-{}", cfg.node))
                    .spawn(move || accept_loop(listener, inbound_tx, stop, stats))?,
            );
        }

        let drop_fired = Arc::new(AtomicBool::new(false));
        let mut peers = BTreeMap::new();
        for (&peer, addr) in &cfg.peers {
            if peer == cfg.node {
                continue;
            }
            let (tx, rx) = bounded(cfg.outbox_capacity.max(1));
            let link = Arc::new(Link {
                io: Mutex::new(LinkIo {
                    stream: None,
                    batch: BatchBuf::new(),
                    frame: Vec::new(),
                }),
                backlog: AtomicUsize::new(0),
                stats: Arc::clone(&stats),
                drop_after: cfg.test_drop_after,
                drop_fired: Arc::clone(&drop_fired),
            });
            let writer = PeerWriter {
                self_node: cfg.node,
                addr: addr.clone(),
                rx,
                link: Arc::clone(&link),
                stop: Arc::clone(&stop),
                batch_max: cfg.batch_max.max(1),
                flush_deadline_us: cfg.flush_deadline_us,
                deadline_us: cfg.flush_deadline_us,
                pending: VecDeque::new(),
                backoff_initial: cfg.backoff_initial,
                backoff_max: cfg.backoff_max,
            };
            peers.insert(peer, Peer { outbox: tx, link });
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mdbs-net-writer-{}-to-{}", cfg.node, peer))
                    .spawn(move || writer.run())?,
            );
        }

        Ok(TcpTransport {
            node: cfg.node,
            batch_max: cfg.batch_max.max(1),
            peers,
            inbound_tx,
            inbound,
            ready: VecDeque::new(),
            drain_scratch: Vec::new(),
            timers: TimerHeap::default(),
            epoch: Instant::now(),
            stop,
            stats,
            wake_addr,
            handles,
        })
    }

    /// This node's runtime id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The live counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Send a cluster envelope to `to`: written to the socket before this
    /// returns when the link is healthy and idle, queued for the link's
    /// writer otherwise. Blocks while `to`'s outbox is full; a self-send
    /// short-circuits to the inbound queue.
    pub fn send_wire(&self, to: u32, msg: WireMsg) {
        self.send_group(to, vec![msg]);
    }

    /// Send a *group* of envelopes to `to`, preserving their order. A
    /// group rides the wire intact: written through it is one frame, and
    /// the writer coalesces whole groups into one frame but never splits
    /// one across frames, so a caller that groups one 2PC conversation's
    /// worth of traffic (a site's READYs, a coordinator's COMMITs) gets
    /// them delivered in one frame.
    /// Groups larger than `batch_max` are chunked here, at enqueue time,
    /// so the no-split invariant downstream is unconditional.
    pub fn send_wire_group(&self, to: u32, msgs: Vec<WireMsg>) {
        if msgs.is_empty() {
            return;
        }
        if msgs.len() <= self.batch_max {
            self.send_group(to, msgs);
            return;
        }
        let mut msgs = VecDeque::from(msgs);
        while !msgs.is_empty() {
            let take = self.batch_max.min(msgs.len());
            self.send_group(to, msgs.drain(..take).collect());
        }
    }

    fn send_group(&self, to: u32, msgs: Vec<WireMsg>) {
        if to == self.node {
            let _ = self.inbound_tx.send(msgs);
            return;
        }
        match self.peers.get(&to) {
            Some(peer) => {
                let Some(left) = peer.link.write_through(msgs) else {
                    return;
                };
                // Counted before it is queued: the writer subtracts what it
                // delivered, and must never get there first.
                peer.link.backlog.fetch_add(1, Ordering::SeqCst);
                // A send can only fail if the writer thread is already
                // gone, which only happens during shutdown — dropping is
                // fine then.
                drop(peer.outbox.send(left));
            }
            // A missing route is a cluster misconfiguration; dropping the
            // frame would wedge the protocol invisibly, so die loudly.
            // mdbs-check: allow(conc-panic-in-thread, "deliberate die-fast on misconfigured topology")
            None => panic!("node {} has no route to node {to}", self.node),
        }
    }

    fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Pop the head timer if it is due now.
    fn pop_due_timer(&mut self) -> Option<NetEvent> {
        let (node, timer) = self.timers.pop_due(self.elapsed_us())?;
        Some(NetEvent::Timer { node, timer })
    }

    /// Pop the next message already handed out of the inbound channel, or
    /// refill the hand-out queue from the channel without blocking.
    fn pop_ready(&mut self) -> Option<WireMsg> {
        if let Some(msg) = self.ready.pop_front() {
            return Some(msg);
        }
        if self
            .inbound
            .try_recv_many(&mut self.drain_scratch, OUTBOX_DRAIN)
            > 0
        {
            for g in self.drain_scratch.drain(..) {
                self.ready.extend(g);
            }
            return self.ready.pop_front();
        }
        None
    }

    /// Wait up to `max_wait` for the next message or due timer.
    pub fn poll(&mut self, max_wait: Duration) -> Option<NetEvent> {
        if let Some(due) = self.pop_due_timer() {
            return Some(due);
        }
        if let Some(msg) = self.pop_ready() {
            return Some(NetEvent::Msg(msg));
        }
        let wait = match self.timers.next_deadline_us() {
            Some(at) => max_wait.min(Duration::from_micros(at.saturating_sub(self.elapsed_us()))),
            None => max_wait,
        };
        match self.inbound.recv_timeout(wait) {
            Ok(group) => {
                self.ready.extend(group);
                self.ready.pop_front().map(NetEvent::Msg)
            }
            Err(RecvTimeoutError::Timeout) => self.pop_due_timer(),
            Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking [`TcpTransport::poll`]: the next already-queued message
    /// or already-due timer, or `None` immediately. Lets an event loop
    /// drain a backlog in one wake-up instead of paying one blocking
    /// receive per frame.
    pub fn try_poll(&mut self) -> Option<NetEvent> {
        if let Some(due) = self.pop_due_timer() {
            return Some(due);
        }
        self.pop_ready().map(NetEvent::Msg)
    }

    /// Give every writer until `until` to put its queued groups on the
    /// wire (connecting first if it has to), then retire them all — at
    /// once when everything was written through. What a
    /// node handed to the transport it has *sent*; a crash-stopping
    /// process calls this before exiting so that stays true — but a peer
    /// that is down never takes its frames, so past `until` the stop flag
    /// abandons them as [`TcpTransport::shutdown`] would. The transport
    /// neither sends nor receives afterwards.
    pub fn drain(&mut self, until: Instant) {
        // Dropping the senders lets each writer finish its queue and exit.
        self.peers.clear();
        let writers = self.handles.split_off(self.handles.len().min(1));
        while Instant::now() < until && writers.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(DRAIN_POLL);
        }
        self.stop.store(true, Ordering::SeqCst);
        for h in writers {
            let _ = h.join();
        }
    }

    /// Stop every thread and join them. Queued frames on healthy
    /// connections are flushed first; frames for unreachable peers are
    /// abandoned.
    pub fn shutdown(mut self) {
        // Dropping the senders lets each writer drain its queue and exit;
        // the stop flag breaks reconnect loops and reader polls.
        self.peers.clear();
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept()`: a throwaway connection,
        // made after the flag is up, wakes it to see the flag. Retried
        // because running out of descriptors is the one way it can fail,
        // and that clears as the writers close their sockets.
        while self.handles.first().is_some_and(|h| !h.is_finished())
            && TcpStream::connect(self.wake_addr).is_err()
        {
            std::thread::sleep(ACCEPT_RETRY);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, from: u32, to: u32, msg: Message) {
        self.send_wire(to, WireMsg::Net { from, to, msg });
    }

    fn send_ctrl(&mut self, from: u32, to: u32, ctrl: CtrlMsg) {
        self.send_wire(to, WireMsg::Ctrl { from, to, ctrl });
    }

    fn set_timer(&mut self, node: u32, after_us: u64, timer: Timer) {
        self.timers
            .push(self.elapsed_us() + after_us, (node, timer));
    }
}

fn accept_loop(
    listener: TcpListener,
    inbound: Sender<Vec<WireMsg>>,
    stop: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break; // woken by `shutdown`'s own connection
        }
        match accepted {
            Ok((stream, _)) => {
                let inbound = inbound.clone();
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                match std::thread::Builder::new()
                    .name("mdbs-net-reader".to_string())
                    .spawn(move || reader_loop(stream, inbound, stop, stats))
                {
                    Ok(h) => readers.push(h),
                    // Out of threads: the failed spawn dropped (closed) the
                    // connection, so the peer's writer reconnects and
                    // retransmits — at-least-once holds, nothing is lost.
                    Err(_) => std::thread::sleep(ACCEPT_RETRY),
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
    for h in readers {
        let _ = h.join();
    }
}

fn reader_loop(
    stream: TcpStream,
    inbound: Sender<Vec<WireMsg>>,
    stop: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(IO_POLL));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    while !stop.load(Ordering::SeqCst) {
        let n = match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        dec.extend(&buf[..n]);
        loop {
            match dec.next_frame_versioned() {
                Ok(Some(frame)) => match decode_frame_payload(frame.version, &frame.payload) {
                    Ok(msgs) => {
                        TransportStats::bump(&stats.frames_received);
                        stats
                            .msgs_received
                            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
                        // Hello frames are connection metadata only; never
                        // surfaced. A batch's messages travel as one group
                        // so the inbound channel is locked once per frame,
                        // not once per message.
                        let surfaced: Vec<WireMsg> = msgs
                            .into_iter()
                            .filter(|m| !matches!(m, WireMsg::Hello { .. }))
                            .collect();
                        if !surfaced.is_empty() && inbound.send(surfaced).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        TransportStats::bump(&stats.decode_errors);
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    TransportStats::bump(&stats.decode_errors);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// What a link's writer thread is handed.
enum Outgoing {
    /// A group to frame, free to coalesce with its neighbours.
    Group(Vec<WireMsg>),
    /// A frame the sending thread built and could not write: replayed as
    /// these exact bytes, never merged with what was queued behind it.
    Frame { bytes: Vec<u8>, msgs: u64 },
}

/// The transport's end of one peer link.
struct Peer {
    /// The bounded backlog the link's writer drains.
    outbox: Sender<Outgoing>,
    link: Arc<Link>,
}

/// What the sending thread and the link's writer thread share.
struct Link {
    io: Mutex<LinkIo>,
    /// Groups handed to the writer and not yet on the wire. Zero means
    /// everything sent so far has left, so the next group may be written
    /// through without overtaking anything.
    backlog: AtomicUsize,
    stats: Arc<TransportStats>,
    drop_after: Option<u64>,
    drop_fired: Arc<AtomicBool>,
}

/// The connected socket while nobody writes to it, and the scratch the
/// sending thread frames in. The guard is the right to write: one thread
/// is mid-frame per stream. `None` is a link that is down — or one whose
/// writer thread took the stream out to repair or drain it.
struct LinkIo {
    stream: Option<TcpStream>,
    batch: BatchBuf,
    frame: Vec<u8>,
}

impl Link {
    /// The link's socket slot, for the moment it takes to move the stream
    /// in or out. A poisoned lock is recovered: the slot is an `Option`
    /// that is valid whichever half of a move a panic interrupted.
    fn io(&self) -> MutexGuard<'_, LinkIo> {
        self.io.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Put `msgs` on the wire from the calling thread if the link is
    /// connected, idle and has nothing queued; otherwise return what the
    /// writer thread must be handed — the group itself, or, when the write
    /// failed (which severed the connection), the frame that has to be
    /// replayed. Never connects, never backs off, and blocks at most one
    /// [`IO_POLL`] write timeout.
    fn write_through(&self, msgs: Vec<WireMsg>) -> Option<Outgoing> {
        if self.backlog.load(Ordering::SeqCst) != 0 {
            return Some(Outgoing::Group(msgs));
        }
        // Busy (or poisoned) is not idle: somebody else is mid-frame.
        let Ok(mut io) = self.io.try_lock() else {
            return Some(Outgoing::Group(msgs));
        };
        let io = &mut *io;
        if io.stream.is_none() {
            return Some(Outgoing::Group(msgs));
        }
        io.batch.reset();
        io.batch.push_group(&msgs);
        let n = io.batch.frame_into(&mut io.frame) as u64;
        // mdbs-check: allow(conc-blocking-under-guard, "the guard is the socket's ownership: one thread mid-frame per stream; senders only try_lock, so nobody waits behind this write but the link's writer, whose job that is, and for one IO_POLL at most")
        if self.write_frame(&mut io.stream, &io.frame, n) {
            TransportStats::bump(&self.stats.frames_written_through);
            return None;
        }
        Some(Outgoing::Frame {
            bytes: std::mem::take(&mut io.frame),
            msgs: n,
        })
    }

    /// Write one finished frame carrying `msgs` messages to `stream` — the
    /// one place a frame meets a socket, whichever thread owns the stream.
    /// A failed write severs the connection (`stream` is `None` after it)
    /// and returns false: the frame is still the caller's to retransmit.
    fn write_frame(&self, stream: &mut Option<TcpStream>, frame: &[u8], msgs: u64) -> bool {
        let Some(s) = stream.as_mut() else {
            return false;
        };
        if s.write_all(frame).and_then(|_| s.flush()).is_err() {
            sever(stream);
            return false;
        }
        TransportStats::bump(&self.stats.frames_sent);
        if msgs > 1 {
            TransportStats::bump(&self.stats.batches_sent);
        }
        let sent = self.stats.msgs_sent.fetch_add(msgs, Ordering::Relaxed) + msgs;
        if self.drop_after.is_some_and(|t| sent >= t)
            && !self.drop_fired.swap(true, Ordering::SeqCst)
        {
            // Fault hook: close the healthy connection. The flushed frame
            // is already on the wire (TCP delivers buffered data before
            // FIN), so this forces a reconnect without loss.
            TransportStats::bump(&self.stats.test_drops);
            sever(stream);
        }
        true
    }
}

fn sever(stream: &mut Option<TcpStream>) {
    if let Some(s) = stream.take() {
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// A link's writer thread: its repair path (connect, `Hello`, backoff,
/// retransmission) and the drain of whatever queued up meanwhile.
struct PeerWriter {
    self_node: u32,
    addr: String,
    rx: Receiver<Outgoing>,
    link: Arc<Link>,
    stop: Arc<AtomicBool>,
    /// Most messages one frame may coalesce (≥ 1).
    batch_max: usize,
    /// Configured ceiling of the flush deadline (µs).
    flush_deadline_us: u64,
    /// Current adaptive deadline (µs), decaying on idle links.
    deadline_us: u64,
    /// Taken off the outbox but not yet on the wire: the overflow left
    /// behind when a batch closes on its size threshold or at a frame to
    /// replay.
    pending: VecDeque<Outgoing>,
    backoff_initial: Duration,
    backoff_max: Duration,
}

/// A batch payload under construction: `[count: u32][msg]…` with the
/// count patched in at close time, so closing a one-message batch can
/// instead reuse the bytes after the count slot as a version 1 payload.
struct BatchBuf {
    payload: Vec<u8>,
    count: usize,
    /// Groups coalesced so far — what the frame takes off the backlog.
    groups: usize,
}

impl BatchBuf {
    fn new() -> BatchBuf {
        BatchBuf {
            payload: vec![0u8; 4],
            count: 0,
            groups: 0,
        }
    }

    /// Empty the batch for reuse, keeping the payload allocation (and the
    /// 4-byte count slot) so whoever frames amortizes it across frames.
    fn reset(&mut self) {
        self.payload.truncate(4);
        self.count = 0;
        self.groups = 0;
    }

    fn push_group(&mut self, msgs: &[WireMsg]) {
        for m in msgs {
            m.put(&mut self.payload);
        }
        self.count += msgs.len();
        self.groups += 1;
    }

    /// Whether the batch must close before taking a group of `more`
    /// messages.
    fn closed_to(&self, more: usize, batch_max: usize) -> bool {
        self.count > 0 && (self.count + more > batch_max || self.payload.len() >= BATCH_SOFT_BYTES)
    }

    /// Write the finished frame into `out` (cleared first): version 1 when
    /// exactly one message was coalesced (bit-identical to the
    /// pre-batching wire format), version 2 otherwise. Returns the message
    /// count. Both the batch and `out` are caller-reused buffers.
    fn frame_into(&mut self, out: &mut Vec<u8>) -> usize {
        let n = self.count;
        if n == 1 {
            encode_frame_into(&self.payload[4..], out);
            return n;
        }
        self.payload[..4].copy_from_slice(&(n as u32).to_le_bytes());
        encode_batch_frame_into(&self.payload, out);
        n
    }
}

impl PeerWriter {
    fn run(mut self) {
        // Scratch buffers reused across iterations: the batch payload, the
        // encoded frame, and the outbox drain vector each amortize to one
        // allocation for the writer's lifetime.
        let mut batch = BatchBuf::new();
        let mut frame: Vec<u8> = Vec::new();
        let mut drained: Vec<Outgoing> = Vec::new();
        // recv() keeps returning what is queued after the senders drop, so
        // shutdown flushes the outbox before this loop ends.
        loop {
            let first = match self.pending.pop_front() {
                Some(o) => o,
                None => match self.rx.recv() {
                    Ok(o) => o,
                    Err(_) => return,
                },
            };
            let (groups, delivered) = match first {
                Outgoing::Frame { bytes, msgs } => (1, self.deliver(&bytes, msgs)),
                Outgoing::Group(g) => {
                    batch.reset();
                    batch.push_group(&g);
                    self.coalesce(&mut batch, &mut drained);
                    let n = batch.frame_into(&mut frame);
                    (batch.groups, self.deliver(&frame, n as u64))
                }
            };
            if !delivered {
                return; // stop requested while the peer was unreachable
            }
            // Only now, with the frame on the wire and the stream back in
            // the link, may a sender find the backlog gone.
            self.link.backlog.fetch_sub(groups, Ordering::SeqCst);
        }
    }

    /// Grow `batch` with whole queued groups until the size threshold
    /// closes it, a frame to replay is next in line, or the adaptive
    /// deadline expires with the queue dry. `drained` is caller-owned
    /// scratch for the outbox drain; it is emptied into `pending` before
    /// returning.
    fn coalesce(&mut self, batch: &mut BatchBuf, drained: &mut Vec<Outgoing>) {
        loop {
            // Whatever is already queued, up to the thresholds.
            while let Some(Outgoing::Group(g)) = self.pending.front() {
                if batch.closed_to(g.len(), self.batch_max) {
                    return;
                }
                batch.push_group(g);
                self.pending.pop_front();
            }
            if !self.pending.is_empty() {
                return; // a frame to replay goes out on its own
            }
            if self.rx.try_recv_many(drained, OUTBOX_DRAIN) > 0 {
                self.pending.extend(drained.drain(..));
                continue;
            }
            // Queue dry: hold the batch open for up to the adaptive
            // deadline. A fruitful wait keeps the deadline; a fruitless
            // one halves it so idle links decay to flush-immediately. A
            // size-closed batch (checked above) resets it to the ceiling.
            if batch.count >= self.batch_max || self.deadline_us == 0 {
                return;
            }
            match self
                .rx
                .recv_timeout(Duration::from_micros(self.deadline_us))
            {
                Ok(o) => {
                    self.deadline_us = self.flush_deadline_us;
                    self.pending.push_back(o);
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.deadline_us /= 2;
                    return;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Write one frame carrying `msgs` messages, reconnecting and
    /// retransmitting on failure. The retransmission unit is the frame's
    /// exact bytes: a replayed batch keeps its boundaries instead of
    /// re-fragmenting into per-message frames. Returns false only when
    /// the stop flag cut a retry short.
    fn deliver(&mut self, frame: &[u8], msgs: u64) -> bool {
        // A backlog makes the link this thread's: the stream comes out of
        // the shared slot (behind a sender still mid-frame, one IO_POLL at
        // most), is owned by value through every connect and backoff, and
        // goes back before `run` lets the backlog drop.
        let mut stream = self.link.io().stream.take();
        let mut backoff = self.backoff_initial;
        let delivered = loop {
            if stream.is_none() {
                stream = self.connect(&mut backoff);
                if stream.is_none() {
                    break false;
                }
            }
            // On failure the connection is severed: retransmit this same
            // frame on a fresh one — at-least-once, never reordered, never
            // re-fragmented.
            if self.link.write_frame(&mut stream, frame, msgs) {
                break true;
            }
            if !self.sleep_backoff(&mut backoff) {
                break false;
            }
        };
        self.link.io().stream = stream;
        delivered
    }

    /// Establish a connection and send the Hello frame, backing off until
    /// it works. Returns `None` when the stop flag was raised first.
    fn connect(&mut self, backoff: &mut Duration) -> Option<TcpStream> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Ok(mut s) = TcpStream::connect(self.addr.as_str()) {
                let _ = s.set_nodelay(true);
                let _ = s.set_write_timeout(Some(IO_POLL));
                let hello = encode_frame(&encode_msg(&WireMsg::Hello {
                    node: self.self_node,
                }));
                if s.write_all(&hello).and_then(|_| s.flush()).is_ok() {
                    let stats = &self.link.stats;
                    TransportStats::bump(&stats.connects);
                    TransportStats::bump(&stats.frames_sent);
                    TransportStats::bump(&stats.msgs_sent);
                    return Some(s);
                }
            }
            if !self.sleep_backoff(backoff) {
                return None;
            }
        }
    }

    /// Sleep out the current backoff in stop-aware slices, then double it
    /// up to the cap. Returns false when the stop flag was raised.
    fn sleep_backoff(&self, backoff: &mut Duration) -> bool {
        let mut left = *backoff;
        while left > Duration::ZERO {
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            let slice = left.min(IO_POLL);
            std::thread::sleep(slice);
            left -= slice;
        }
        *backoff = (*backoff * 2).min(self.backoff_max);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback listener on a port the kernel picks, and its address.
    /// Every test starts its transports on such listeners, so two runs at
    /// once never contend for a port.
    fn listener() -> (TcpListener, String) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr").to_string();
        (l, addr)
    }

    /// An address nothing listens on, for a peer that comes up late (or
    /// never): a port the kernel just picked, released again. The late
    /// peer binds it anew.
    fn vacant_addr() -> String {
        listener().1
    }

    fn transport(node: u32, listener: TcpListener, peers: &[(u32, &str)]) -> TcpTransport {
        transport_dropping(node, listener, peers, None)
    }

    fn transport_dropping(
        node: u32,
        listener: TcpListener,
        peers: &[(u32, &str)],
        test_drop_after: Option<u64>,
    ) -> TcpTransport {
        let listen_addr = listener.local_addr().expect("addr").to_string();
        TcpTransport::on_listener(
            listener,
            TcpTransportConfig {
                node,
                listen_addr,
                peers: peers.iter().map(|&(n, a)| (n, a.to_string())).collect(),
                outbox_capacity: 256,
                batch_max: 64,
                flush_deadline_us: 100,
                backoff_initial: Duration::from_millis(5),
                backoff_max: Duration::from_millis(100),
                test_drop_after,
            },
        )
        .expect("start")
    }

    /// Bind `addr` again: the late peer of a [`vacant_addr`].
    fn rebind(addr: &str) -> TcpListener {
        TcpListener::bind(addr).expect("rebind")
    }

    /// Wait until nothing sent to `to` is left with the link's writer. A
    /// receiver can see a frame before the writer has finished with it
    /// (counted a cut, put the socket back); from here the next send is
    /// the sender's own on a connected link, and every counter is final.
    fn until_idle(t: &TcpTransport, to: u32) {
        while t.peers[&to].link.backlog.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// A group of `n` COMMITs numbered from `*next` on, with `rows` result
    /// rows of ballast behind the first (0 for none).
    fn numbered_group(next: &mut u32, n: u32, rows: u64) -> Vec<WireMsg> {
        use mdbs_histories::{GlobalTxnId, SiteId};
        let net = |msg| WireMsg::Net {
            from: 1,
            to: 2,
            msg,
        };
        let mut group = Vec::new();
        for _ in 0..n {
            let gtxn = GlobalTxnId(*next);
            *next += 1;
            group.push(net(Message::Commit { gtxn }));
            if rows > 0 && group.len() == 1 {
                group.push(net(Message::DmlResult {
                    gtxn,
                    site: SiteId(1),
                    step: 0,
                    result: mdbs_ldbs::CommandResult {
                        rows: (0..rows).map(|k| (k, k as i64)).collect(),
                        wrote: Vec::new(),
                    },
                }));
            }
        }
        group
    }

    /// The COMMIT numbers among `msgs`, in order (ballast skipped).
    fn numbers(msgs: impl IntoIterator<Item = WireMsg>) -> Vec<u32> {
        msgs.into_iter()
            .filter_map(|m| match m {
                WireMsg::Net {
                    msg: Message::Commit { gtxn },
                    ..
                } => Some(gtxn.0),
                _ => None,
            })
            .collect()
    }

    /// Receive until COMMIT number `last` has arrived, holding the stream
    /// to at-least-once FIFO on the way: a number may repeat (a replayed
    /// frame), none may be skipped or come early. Returns the repeats seen.
    fn recv_through(t: &mut TcpTransport, next: &mut u32, last: u32) -> usize {
        let mut repeats = 0;
        while *next <= last {
            for k in numbers([expect_msg(t)]) {
                assert!(k <= *next, "{k} arrived while {next} was still due");
                if k == *next {
                    *next += 1;
                } else {
                    repeats += 1;
                }
            }
        }
        repeats
    }

    fn expect_msg(t: &mut TcpTransport) -> WireMsg {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(NetEvent::Msg(m)) = t.poll(Duration::from_millis(100)) {
                return m;
            }
        }
        panic!("no message within 10s");
    }

    #[test]
    fn two_nodes_exchange_protocol_messages() {
        let ((la, addr_a), (lb, addr_b)) = (listener(), listener());
        let mut a = transport(1, la, &[(2, &addr_b)]);
        let mut b = transport(2, lb, &[(1, &addr_a)]);
        use mdbs_histories::GlobalTxnId;
        a.send(
            1,
            2,
            Message::Commit {
                gtxn: GlobalTxnId(7),
            },
        );
        let got = expect_msg(&mut b);
        assert_eq!(
            got,
            WireMsg::Net {
                from: 1,
                to: 2,
                msg: Message::Commit {
                    gtxn: GlobalTxnId(7)
                }
            }
        );
        // And the other direction over b's own connection.
        b.send(
            2,
            1,
            Message::Rollback {
                gtxn: GlobalTxnId(8),
            },
        );
        let got = expect_msg(&mut a);
        assert!(matches!(got, WireMsg::Net { from: 2, to: 1, .. }));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn connect_backoff_rides_out_a_late_listener() {
        // a starts sending before b's listener exists; the frame must
        // arrive once b binds.
        let ((la, addr_a), addr_b) = (listener(), vacant_addr());
        let a = transport(1, la, &[(2, &addr_b)]);
        a.send_wire(2, WireMsg::Drain);
        std::thread::sleep(Duration::from_millis(150));
        let mut b = transport(2, rebind(&addr_b), &[(1, &addr_a)]);
        assert_eq!(expect_msg(&mut b), WireMsg::Drain);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn drain_returns_only_once_the_queue_is_on_the_wire() {
        // The peer's listener comes up late: `shutdown` would abandon the
        // frame with the writer still backing off; `drain` rides it out.
        let ((la, addr_a), addr_b) = (listener(), vacant_addr());
        let mut a = transport(1, la, &[(2, &addr_b)]);
        a.send_wire(2, WireMsg::Drain);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            transport(2, rebind(&addr_b), &[(1, &addr_a)])
        });
        a.drain(Instant::now() + Duration::from_secs(10));
        assert_eq!(
            a.stats().msgs_sent.load(Ordering::Relaxed),
            2,
            "Hello + Drain"
        );
        let mut b = late.join().expect("bind");
        assert_eq!(expect_msg(&mut b), WireMsg::Drain);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn drain_gives_up_on_a_peer_that_never_comes_up() {
        // Nothing ever listens on the peer's address: the queued frame can
        // never leave, and a crash-stop must not turn into a hang.
        let mut a = transport(1, listener().0, &[(2, &vacant_addr())]);
        a.send_wire(2, WireMsg::Drain);
        let started = Instant::now();
        a.drain(started + Duration::from_millis(200));
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(200),
            "gave up early: {took:?}"
        );
        assert!(took < Duration::from_secs(5), "drain overran: {took:?}");
        assert_eq!(a.stats().msgs_sent.load(Ordering::Relaxed), 0);
        // Draining twice (no writers left) and shutting down still work.
        a.drain(Instant::now());
        a.shutdown();
    }

    #[test]
    fn test_drop_hook_reconnects_without_losing_frames() {
        let ((la, addr_a), (lb, addr_b)) = (listener(), listener());
        // Fires after the Hello + a few messages: mid-stream, and — when
        // the commits below coalesce — mid-batch.
        let mut a = transport_dropping(1, la, &[(2, &addr_b)], Some(3));
        let mut b = transport(2, lb, &[(1, &addr_a)]);
        use mdbs_histories::GlobalTxnId;
        for k in 0..10u32 {
            a.send(
                1,
                2,
                Message::Commit {
                    gtxn: GlobalTxnId(k),
                },
            );
        }
        let mut got = Vec::new();
        while got.len() < 10 {
            match expect_msg(&mut b) {
                WireMsg::Net {
                    msg: Message::Commit { gtxn },
                    ..
                } => got.push(gtxn.0),
                other => panic!("unexpected {other:?}"),
            }
        }
        // At-least-once and per-link FIFO: the sequence may repeat a
        // frame at the cut point but never skip or reorder one.
        until_idle(&a, 2);
        assert_eq!(a.stats().test_drops.load(Ordering::Relaxed), 1);
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(deduped, (0..10).collect::<Vec<u32>>(), "raw: {got:?}");
        a.shutdown();
        b.shutdown();
    }

    /// The hand-over between the sending thread and the writer thread is
    /// where FIFO could break. The link goes down → up → cut → up while
    /// numbered groups of mixed size are sent one at a time (each written
    /// through once the link is idle) and in bursts; the fault hook cuts
    /// at thresholds that land on the writer's replay of the backlog, on a
    /// written-through frame, and inside a burst.
    #[test]
    fn the_hand_over_between_sender_and_writer_keeps_the_link_fifo() {
        let stat = |t: &TcpTransport, f: fn(&TransportStats) -> &AtomicU64| {
            f(t.stats()).load(Ordering::Relaxed)
        };
        let mut cut_on_a_written_through_frame = 0;
        for drop_after in [3, 14, 40] {
            let ((la, addr_a), addr_b) = (listener(), vacant_addr());
            let a = transport_dropping(1, la, &[(2, &addr_b)], Some(drop_after));
            let (mut sent, mut due, mut repeats) = (0u32, 0u32, 0usize);

            // Down: nothing listens yet, the outbox takes the backlog.
            for n in [1, 3, 2] {
                a.send_wire_group(2, numbered_group(&mut sent, n, 0));
            }
            // Up: the writer connects and replays it, coalesced.
            let mut b = transport(2, rebind(&addr_b), &[(1, &addr_a)]);
            repeats += recv_through(&mut b, &mut due, sent - 1);

            // One group at a time on an idle link: the sender's own writes.
            for n in [2, 1, 4, 1, 3, 2, 1, 4] {
                until_idle(&a, 2);
                let before = (
                    stat(&a, |s| &s.frames_written_through),
                    stat(&a, |s| &s.test_drops),
                );
                a.send_wire_group(2, numbered_group(&mut sent, n, 0));
                if stat(&a, |s| &s.frames_written_through) > before.0
                    && stat(&a, |s| &s.test_drops) > before.1
                {
                    cut_on_a_written_through_frame += 1;
                }
                repeats += recv_through(&mut b, &mut due, sent - 1);
            }
            // A burst: whoever has the link when each group is sent.
            for n in [3, 1, 1, 5, 2, 1, 4, 2, 6, 1] {
                a.send_wire_group(2, numbered_group(&mut sent, n, 0));
            }
            repeats += recv_through(&mut b, &mut due, sent - 1);

            until_idle(&a, 2);
            assert_eq!(stat(&a, |s| &s.test_drops), 1, "cut at {drop_after}");
            // The cut is seen by whoever sends next; everything above is
            // received, so one more group shows the reconnect.
            a.send_wire_group(2, numbered_group(&mut sent, 1, 0));
            repeats += recv_through(&mut b, &mut due, sent - 1);
            assert_eq!(stat(&a, |s| &s.connects), 2, "cut at {drop_after}");
            assert!(
                stat(&a, |s| &s.frames_written_through) >= 8,
                "cut at {drop_after}: the idle link was not written through"
            );
            // Duplicates only at a cut: at most the one frame it replays.
            assert!(repeats <= 6, "cut at {drop_after}: {repeats} repeats");
            a.shutdown();
            b.shutdown();
        }
        assert_eq!(
            cut_on_a_written_through_frame, 1,
            "the middle threshold fires on the sender's own write"
        );
    }

    /// A peer that accepts and then never reads must not hold the sending
    /// thread: once the socket buffers are full a write waits one
    /// `IO_POLL`, the connection is severed and the link is the writer's.
    /// The stalled connection keeps what it had swallowed; the frame that
    /// stalled and everything after it reach the listener that replaces
    /// the stalled one, in order.
    #[test]
    fn a_stalled_peer_holds_the_sender_for_one_io_poll_at_most() {
        let (stalled, peer) = listener();
        let a = transport(1, listener().0, &[(2, &peer)]);
        let (mut sent, mut longest) = (0u32, Duration::ZERO);
        let mut send_timed = |a: &TcpTransport, rows: u64| {
            let group = numbered_group(&mut sent, 2, rows);
            let started = Instant::now();
            a.send_wire_group(2, group);
            longest = longest.max(started.elapsed());
        };
        send_timed(&a, 0);
        let (mut conn, _) = stalled.accept().expect("first connection");
        // From here on nothing listens and nobody reads `conn`.
        drop(stalled);
        // ~13 MB of ~64 KiB groups: more than the loopback buffers take.
        for _ in 0..200 {
            send_timed(&a, 4_000);
        }
        assert!(
            longest < 4 * IO_POLL,
            "a send waited {longest:?} on the stalled peer"
        );

        // The reader that replaces it gets the frame that stalled and
        // everything behind it, in order. (Only a severed link reconnects,
        // so nothing arrives here unless the stall happened.)
        let mut b = transport(2, rebind(&peer), &[]);
        let first = numbers([expect_msg(&mut b)])[0];
        let mut due = first + 1;
        recv_through(&mut b, &mut due, sent - 1);

        // And the stalled connection had swallowed exactly what came
        // before: whole frames from the first group on, then a torn one.
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 1 << 16];
        while let Ok(n @ 1..) = conn.read(&mut buf) {
            dec.extend(&buf[..n]);
        }
        let mut swallowed = Vec::new();
        while let Ok(Some(f)) = dec.next_frame_versioned() {
            let msgs = decode_frame_payload(f.version, &f.payload).expect("clean frame");
            swallowed.extend(numbers(msgs));
        }
        assert_eq!(swallowed, (0..first).collect::<Vec<_>>());
        a.shutdown();
        b.shutdown();
    }

    /// What was written through is on the wire when `send_wire` returns:
    /// `drain` has nothing to wait for.
    #[test]
    fn drain_after_written_through_traffic_returns_at_once() {
        let ((la, addr_a), (lb, addr_b)) = (listener(), listener());
        let mut a = transport(1, la, &[(2, &addr_b)]);
        let mut b = transport(2, lb, &[(1, &addr_a)]);
        let (mut sent, mut due) = (0u32, 0u32);
        for _ in 0..20 {
            a.send_wire_group(2, numbered_group(&mut sent, 1, 0));
            recv_through(&mut b, &mut due, sent - 1);
            until_idle(&a, 2);
        }
        let started = Instant::now();
        a.drain(started + Duration::from_secs(10));
        assert!(started.elapsed() < Duration::from_secs(1), "drain waited");
        let stats = a.stats();
        assert_eq!(stats.msgs_sent.load(Ordering::Relaxed), 1 + 20, "Hello");
        // All but the first, which met an unconnected link.
        assert_eq!(stats.frames_written_through.load(Ordering::Relaxed), 19);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn timers_pop_in_deadline_order_between_messages() {
        use mdbs_histories::GlobalTxnId;
        let mut t = transport(5, listener().0, &[]);
        t.set_timer(
            5,
            40_000,
            Timer::Alive {
                gtxn: GlobalTxnId(2),
            },
        );
        t.set_timer(
            5,
            1_000,
            Timer::Alive {
                gtxn: GlobalTxnId(1),
            },
        );
        let first = loop {
            if let Some(e) = t.poll(Duration::from_millis(50)) {
                break e;
            }
        };
        assert_eq!(
            first,
            NetEvent::Timer {
                node: 5,
                timer: Timer::Alive {
                    gtxn: GlobalTxnId(1)
                }
            }
        );
        let second = loop {
            if let Some(e) = t.poll(Duration::from_millis(50)) {
                break e;
            }
        };
        assert_eq!(
            second,
            NetEvent::Timer {
                node: 5,
                timer: Timer::Alive {
                    gtxn: GlobalTxnId(2)
                }
            }
        );
        t.shutdown();
    }
}
