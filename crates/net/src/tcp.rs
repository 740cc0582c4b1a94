//! [`TcpTransport`]: the runtime [`Transport`] over real sockets.
//!
//! Topology: every node listens on one address and owns **one writer
//! thread per peer**. A writer drains a **bounded** outbox of message
//! *groups* (senders block when it fills — backpressure instead of
//! unbounded memory), **coalesces** queued groups into one CRC-framed
//! batch frame per write (see [`crate::frame`] version 2), connects
//! lazily with exponential backoff, announces itself with a
//! [`WireMsg::Hello`] frame on every fresh connection, and **retransmits
//! the in-flight frame** after a reconnect — the whole batch, as one
//! frame, never re-fragmented. Delivery is therefore at-least-once and
//! per-link FIFO at both message and batch granularity: a write failure
//! can duplicate a frame but never reorder or split one — exactly the
//! fault envelope the 2PC agents were hardened against.
//!
//! **Flush policy.** A batch closes when it reaches
//! [`TcpTransportConfig::batch_max`] messages (or a byte ceiling), or when
//! the outbox is dry. With [`TcpTransportConfig::flush_deadline_us`] = 0 —
//! what a cluster runs with — "dry" is immediate: the node loop already
//! hands over one group per link per burst, a backlog still coalesces,
//! and nothing ever waits. A non-zero value lets a raw producer without a
//! batching point of its own (`net_throughput`) hold an underfull batch
//! open for an **adaptive deadline**: it starts at that ceiling; a batch
//! that fills on size or a wait that harvested more messages keeps it, a
//! fruitless wait halves it, so an idle link decays to flush-immediately.
//! Under a node loop that second wait is double batching — it delays each
//! link by a different amount and so reorders PREPAREs *across* links,
//! which shows up as §5.3 serial-number refusals (DESIGN §9b). `batch_max
//! = 1` degenerates to the old frame-per-message path (version 1 frames
//! on the wire).
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use mdbs_dtm::Message;
use mdbs_runtime::{CtrlMsg, Timer, TimerHeap, Transport};

use crate::frame::{encode_batch_frame_into, encode_frame, encode_frame_into, FrameDecoder};
use crate::wire::{decode_frame_payload, encode_msg, Wire, WireMsg};

/// How long blocked reads/writes wait before re-checking the stop flag.
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
    outboxes: BTreeMap<u32, Sender<Vec<WireMsg>>>,
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
        let mut outboxes = BTreeMap::new();
        for (&peer, addr) in &cfg.peers {
            if peer == cfg.node {
                continue;
            }
            let (tx, rx) = bounded(cfg.outbox_capacity.max(1));
            outboxes.insert(peer, tx);
            let writer = PeerWriter {
                self_node: cfg.node,
                addr: addr.clone(),
                rx,
                stop: Arc::clone(&stop),
                stats: Arc::clone(&stats),
                batch_max: cfg.batch_max.max(1),
                flush_deadline_us: cfg.flush_deadline_us,
                deadline_us: cfg.flush_deadline_us,
                pending: VecDeque::new(),
                backoff_initial: cfg.backoff_initial,
                backoff_max: cfg.backoff_max,
                drop_after: cfg.test_drop_after,
                drop_fired: Arc::clone(&drop_fired),
                stream: None,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mdbs-net-writer-{}-to-{}", cfg.node, peer))
                    .spawn(move || writer.run())?,
            );
        }

        Ok(TcpTransport {
            node: cfg.node,
            batch_max: cfg.batch_max.max(1),
            outboxes,
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

    /// Queue a cluster envelope for `to`. Blocks while `to`'s outbox is
    /// full; a self-send short-circuits to the inbound queue.
    pub fn send_wire(&self, to: u32, msg: WireMsg) {
        self.send_group(to, vec![msg]);
    }

    /// Queue a *group* of envelopes for `to`, preserving their order. A
    /// group rides the wire intact: the writer coalesces whole groups
    /// into one frame but never splits one across frames, so a caller
    /// that groups one 2PC conversation's worth of traffic (a site's
    /// READYs, a coordinator's COMMITs) gets them delivered in one frame.
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
        match self.outboxes.get(&to) {
            // A send can only fail if the writer thread is already gone,
            // which only happens during shutdown — dropping is fine then.
            Some(tx) => drop(tx.send(msgs)),
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
    /// wire (connecting first if it has to), then retire them all. What a
    /// node handed to the transport it has *sent*; a crash-stopping
    /// process calls this before exiting so that stays true — but a peer
    /// that is down never takes its frames, so past `until` the stop flag
    /// abandons them as [`TcpTransport::shutdown`] would. The transport
    /// neither sends nor receives afterwards.
    pub fn drain(&mut self, until: Instant) {
        // Dropping the senders lets each writer finish its queue and exit.
        self.outboxes.clear();
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
        self.outboxes.clear();
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

struct PeerWriter {
    self_node: u32,
    addr: String,
    rx: Receiver<Vec<WireMsg>>,
    stop: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    /// Most messages one frame may coalesce (≥ 1).
    batch_max: usize,
    /// Configured ceiling of the flush deadline (µs).
    flush_deadline_us: u64,
    /// Current adaptive deadline (µs), decaying on idle links.
    deadline_us: u64,
    /// Groups pulled off the outbox but not yet framed: the overflow left
    /// behind when a batch closes on its size threshold.
    pending: VecDeque<Vec<WireMsg>>,
    backoff_initial: Duration,
    backoff_max: Duration,
    drop_after: Option<u64>,
    drop_fired: Arc<AtomicBool>,
    stream: Option<TcpStream>,
}

/// A batch payload under construction: `[count: u32][msg]…` with the
/// count patched in at close time, so closing a one-message batch can
/// instead reuse the bytes after the count slot as a version 1 payload.
struct BatchBuf {
    payload: Vec<u8>,
    count: usize,
}

impl BatchBuf {
    fn new() -> BatchBuf {
        BatchBuf {
            payload: vec![0u8; 4],
            count: 0,
        }
    }

    /// Empty the batch for reuse, keeping the payload allocation (and the
    /// 4-byte count slot) so the writer loop amortizes it across frames.
    fn reset(&mut self) {
        self.payload.truncate(4);
        self.count = 0;
    }

    fn push_group(&mut self, msgs: &[WireMsg]) {
        for m in msgs {
            m.put(&mut self.payload);
        }
        self.count += msgs.len();
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
        let mut drained: Vec<Vec<WireMsg>> = Vec::new();
        // recv() keeps returning queued groups after the senders drop, so
        // shutdown flushes the outbox before this loop ends.
        loop {
            let first = match self.pending.pop_front() {
                Some(g) => g,
                None => match self.rx.recv() {
                    Ok(g) => g,
                    Err(_) => return,
                },
            };
            batch.reset();
            batch.push_group(&first);
            self.coalesce(&mut batch, &mut drained);
            let n = batch.frame_into(&mut frame);
            if !self.deliver(&frame, n as u64) {
                return; // stop requested while the peer was unreachable
            }
        }
    }

    /// Grow `batch` with whole queued groups until the size threshold
    /// closes it or the adaptive deadline expires with the queue dry.
    /// `drained` is caller-owned scratch for the outbox drain; it is
    /// emptied into `pending` before returning.
    fn coalesce(&mut self, batch: &mut BatchBuf, drained: &mut Vec<Vec<WireMsg>>) {
        loop {
            // Whatever is already queued, up to the thresholds.
            while let Some(g) = self.pending.front() {
                if batch.closed_to(g.len(), self.batch_max) {
                    return;
                }
                // The front() above just returned Some.
                let Some(g) = self.pending.pop_front() else {
                    return;
                };
                batch.push_group(&g);
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
                Ok(g) => {
                    self.deadline_us = self.flush_deadline_us;
                    self.pending.push_back(g);
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
        let mut backoff = self.backoff_initial;
        loop {
            if self.stream.is_none() && !self.connect(&mut backoff) {
                return false;
            }
            let Some(s) = self.stream.as_mut() else {
                continue; // connect() raced a drop hook; try again
            };
            let res = s.write_all(frame).and_then(|_| s.flush());
            match res {
                Ok(()) => {
                    TransportStats::bump(&self.stats.frames_sent);
                    if msgs > 1 {
                        TransportStats::bump(&self.stats.batches_sent);
                    }
                    let sent = self.stats.msgs_sent.fetch_add(msgs, Ordering::Relaxed) + msgs;
                    if let Some(t) = self.drop_after {
                        if sent >= t && !self.drop_fired.swap(true, Ordering::SeqCst) {
                            // Fault hook: close the healthy connection.
                            // The flushed frame is already on the wire
                            // (TCP delivers buffered data before FIN), so
                            // this forces a reconnect without loss.
                            TransportStats::bump(&self.stats.test_drops);
                            if let Some(s) = self.stream.take() {
                                let _ = s.shutdown(Shutdown::Both);
                            }
                        }
                    }
                    return true;
                }
                Err(_) => {
                    // Sever and retransmit this same frame on a fresh
                    // connection: at-least-once, never reordered, never
                    // re-fragmented.
                    if let Some(s) = self.stream.take() {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                    if !self.sleep_backoff(&mut backoff) {
                        return false;
                    }
                }
            }
        }
    }

    /// Establish a connection and send the Hello frame, backing off until
    /// it works. Returns false when the stop flag was raised first.
    fn connect(&mut self, backoff: &mut Duration) -> bool {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            if let Ok(mut s) = TcpStream::connect(self.addr.as_str()) {
                let _ = s.set_nodelay(true);
                let _ = s.set_write_timeout(Some(IO_POLL));
                let hello = encode_frame(&encode_msg(&WireMsg::Hello {
                    node: self.self_node,
                }));
                if s.write_all(&hello).and_then(|_| s.flush()).is_ok() {
                    TransportStats::bump(&self.stats.connects);
                    TransportStats::bump(&self.stats.frames_sent);
                    TransportStats::bump(&self.stats.msgs_sent);
                    self.stream = Some(s);
                    return true;
                }
            }
            if !self.sleep_backoff(backoff) {
                return false;
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

    fn transport(node: u32, listen: &str, peers: &[(u32, &str)]) -> TcpTransport {
        TcpTransport::start(TcpTransportConfig {
            node,
            listen_addr: listen.to_string(),
            peers: peers.iter().map(|&(n, a)| (n, a.to_string())).collect(),
            outbox_capacity: 64,
            batch_max: 64,
            flush_deadline_us: 100,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            test_drop_after: None,
        })
        .expect("bind")
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
        let mut a = transport(1, "127.0.0.1:39101", &[(2, "127.0.0.1:39102")]);
        let mut b = transport(2, "127.0.0.1:39102", &[(1, "127.0.0.1:39101")]);
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
        let a = transport(1, "127.0.0.1:39111", &[(2, "127.0.0.1:39112")]);
        a.send_wire(2, WireMsg::Drain);
        std::thread::sleep(Duration::from_millis(150));
        let mut b = transport(2, "127.0.0.1:39112", &[(1, "127.0.0.1:39111")]);
        assert_eq!(expect_msg(&mut b), WireMsg::Drain);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn drain_returns_only_once_the_queue_is_on_the_wire() {
        // The peer's listener comes up late: `shutdown` would abandon the
        // frame with the writer still backing off; `drain` rides it out.
        let mut a = transport(1, "127.0.0.1:39141", &[(2, "127.0.0.1:39142")]);
        a.send_wire(2, WireMsg::Drain);
        let late = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(100));
            transport(2, "127.0.0.1:39142", &[(1, "127.0.0.1:39141")])
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
        let mut a = transport(1, "127.0.0.1:39151", &[(2, "127.0.0.1:39152")]);
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
        let mut a = TcpTransport::start(TcpTransportConfig {
            node: 1,
            listen_addr: "127.0.0.1:39121".to_string(),
            peers: BTreeMap::from([(2, "127.0.0.1:39122".to_string())]),
            outbox_capacity: 64,
            batch_max: 64,
            flush_deadline_us: 100,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            // Fires after the Hello + a few messages: mid-stream, and —
            // when the commits below coalesce — mid-batch.
            test_drop_after: Some(3),
        })
        .expect("bind");
        let mut b = transport(2, "127.0.0.1:39122", &[(1, "127.0.0.1:39121")]);
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
        assert_eq!(a.stats().test_drops.load(Ordering::Relaxed), 1);
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(deduped, (0..10).collect::<Vec<u32>>(), "raw: {got:?}");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn timers_pop_in_deadline_order_between_messages() {
        use mdbs_histories::GlobalTxnId;
        let mut t = transport(5, "127.0.0.1:39131", &[]);
        t.set_timer(
            5,
            40_000,
            Timer::CommitRetry {
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
        assert!(matches!(
            second,
            NetEvent::Timer {
                timer: Timer::CommitRetry { .. },
                ..
            }
        ));
        t.shutdown();
    }
}
