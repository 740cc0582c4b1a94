//! `mdbs-net` throughput: wire codec and TCP loopback transport.
//!
//! Four measurements, into `BENCH_net.json` at the repository root (with
//! the host's core count and the commit they were taken on):
//!
//! 1. **Codec** — encode + frame + deframe + decode a representative 2PC
//!    conversation mix, single-threaded, no sockets: the pure CPU cost of
//!    the hand-rolled wire format (messages/s and MB/s).
//! 2. **TCP loopback, batched** — one [`TcpTransport`] pair on
//!    `127.0.0.1` with the default coalescing knobs (`batch_max = 256`,
//!    adaptive 100µs flush deadline); the sender pumps the same mix
//!    through a bounded outbox, the receiver polls it back out:
//!    end-to-end delivered messages/s including framing, CRC, syscalls,
//!    and the per-peer writer thread.
//! 3. **TCP loopback, unbatched** — the same pair with `batch_max = 1`,
//!    deadline 0 (one v1 frame per message, the pre-batching wire
//!    format), measured in the same run as the batched number so the
//!    speedup is an apples-to-apples baseline.
//! 4. **TCP loopback, request/response** — one group out, one group back,
//!    the next only after the reply: the traffic a node loop produces
//!    (a coordinator's burst to a site, the site's answers), with the
//!    cluster's knobs (`batch_max = 256`, deadline 0). Round-trip time,
//!    p50 and p99 in µs. This is the row a transport change should be
//!    read by. The pump of 2 and 3 is a producer that never waits for a
//!    reply, which no node is, and it says nothing about a hop: its first
//!    group finds the link down and goes to the writer thread, and a
//!    producer that outruns the socket never lets the writer's backlog
//!    reach zero again, so the pump measures the writer path before and
//!    after the sending thread learned to write its own frames (DESIGN
//!    §9b), while the round trip lost a third of its wake-ups.
//!
//! `NET_BENCH_SMOKE=1` switches to a time-capped CI mode: fewer rounds,
//! no JSON written, and a hard assertion that batching delivers at least
//! 2× the unbatched message rate.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mdbs_dtm::{Message, SerialNumber};
use mdbs_histories::{GlobalTxnId, SiteId};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use mdbs_net::cluster::loopback_addrs;
use mdbs_net::encode_frame;
use mdbs_net::frame::FrameDecoder;
use mdbs_net::tcp::{NetEvent, TcpTransport, TcpTransportConfig};
use mdbs_net::wire::{decode_msg, encode_msg, WireMsg};

#[path = "common/stamp.rs"]
mod stamp;

/// A representative 2PC conversation: DML out, result back, then the
/// prepare/ready/commit/ack exchange.
fn conversation(gtxn: u32) -> Vec<WireMsg> {
    let gtxn = GlobalTxnId(gtxn);
    let site = SiteId(1);
    let net = |msg| WireMsg::Net {
        from: 1_000_000,
        to: 1,
        msg,
    };
    vec![
        net(Message::Dml {
            gtxn,
            step: 0,
            command: Command::Update(KeySpec::Range(10, 20), 3),
        }),
        net(Message::DmlResult {
            gtxn,
            site,
            step: 0,
            result: CommandResult {
                rows: (10..=20).map(|k| (k, k as i64 * 7)).collect(),
                wrote: (10..=20).collect(),
            },
        }),
        net(Message::Prepare {
            gtxn,
            sn: SerialNumber {
                ticks: 1_700_000_000_000 + u64::from(gtxn.0),
                node: 1_000_000,
                seq: gtxn.0,
            },
        }),
        net(Message::Ready { gtxn, site }),
        net(Message::Commit { gtxn }),
        net(Message::CommitAck { gtxn, site }),
    ]
}

struct CodecSample {
    msgs_per_s: f64,
    mb_per_s: f64,
    bytes_per_msg: f64,
}

fn bench_codec(rounds: u32) -> CodecSample {
    let mut msgs = 0u64;
    let mut bytes = 0u64;
    let mut dec = FrameDecoder::new();
    let start = Instant::now();
    for g in 0..rounds {
        for msg in conversation(g + 1) {
            let frame = encode_frame(&encode_msg(&msg));
            bytes += frame.len() as u64;
            dec.extend(&frame);
            let payload = dec
                .next_frame()
                .expect("clean frame")
                .expect("whole frame buffered");
            let back = decode_msg(&payload).expect("valid payload");
            assert_eq!(back, msg);
            msgs += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    CodecSample {
        msgs_per_s: msgs as f64 / secs,
        mb_per_s: bytes as f64 / secs / 1e6,
        bytes_per_msg: bytes as f64 / msgs as f64,
    }
}

struct TcpSample {
    /// Delivered protocol messages per second (the apples-to-apples rate:
    /// unbatched, one message is exactly one wire frame).
    msgs_per_s: f64,
    mb_per_s: f64,
    /// Wire frames the sender actually flushed (< messages when batching
    /// coalesces).
    wire_frames: u64,
    /// Flushed frames that coalesced more than one message.
    batches: u64,
}

fn transport(
    node: u32,
    addrs: &[String],
    batch_max: usize,
    flush_deadline_us: u64,
) -> TcpTransport {
    let peers: BTreeMap<u32, String> = (0..addrs.len() as u32)
        .filter(|&n| n != node)
        .map(|n| (n, addrs[n as usize].clone()))
        .collect();
    TcpTransport::start(TcpTransportConfig {
        node,
        listen_addr: addrs[node as usize].clone(),
        peers,
        outbox_capacity: 1024,
        batch_max,
        flush_deadline_us,
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(500),
        test_drop_after: None,
    })
    .expect("bind loopback transport")
}

fn bench_tcp(rounds: u32, batch_max: usize, flush_deadline_us: u64) -> TcpSample {
    let addrs = loopback_addrs(2).expect("reserve loopback addrs");
    let sender = transport(0, &addrs, batch_max, flush_deadline_us);
    let mut receiver = transport(1, &addrs, batch_max, flush_deadline_us);
    let expect = u64::from(rounds) * conversation(1).len() as u64;
    let bytes: u64 = conversation(1)
        .iter()
        .map(|m| encode_frame(&encode_msg(m)).len() as u64)
        .sum::<u64>()
        * u64::from(rounds);

    let rx = std::thread::spawn(move || {
        let mut got = 0u64;
        let deadline = Instant::now() + Duration::from_secs(60);
        while got < expect && Instant::now() < deadline {
            if let Some(NetEvent::Msg(_)) = receiver.poll(Duration::from_millis(50)) {
                got += 1;
            }
        }
        (receiver, got)
    });

    let start = Instant::now();
    for g in 0..rounds {
        // One conversation = one group, exactly how the node runtime's
        // group-commit buffer hands bursts to the transport. Under
        // batch_max = 1 the group is chunked back into single-message
        // sends at enqueue time, reproducing the pre-batching path.
        sender.send_wire_group(1, conversation(g + 1));
    }
    let (receiver, got) = rx.join().expect("receiver thread");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(got, expect, "loopback transport must deliver everything");
    let wire_frames = sender.stats().frames_sent.load(Ordering::Relaxed);
    let batches = sender.stats().batches_sent.load(Ordering::Relaxed);
    sender.shutdown();
    receiver.shutdown();
    TcpSample {
        msgs_per_s: got as f64 / secs,
        mb_per_s: bytes as f64 / secs / 1e6,
        wire_frames,
        batches,
    }
}

struct RttSample {
    p50_us: f64,
    p99_us: f64,
    round_trips: usize,
    msgs_each_way: usize,
}

/// Request/response over one transport pair: the coordinator's half of a
/// conversation goes out as one group, the site's half comes back as one
/// group, and the next request waits for the reply.
fn bench_rtt(round_trips: usize) -> RttSample {
    const WARM_UP: usize = 200;
    let addrs = loopback_addrs(2).expect("reserve loopback addrs");
    let mut client = transport(0, &addrs, BATCH_MAX, 0);
    let mut server = transport(1, &addrs, BATCH_MAX, 0);
    // The conversation alternates coordinator → site, site → coordinator.
    let conversation = conversation(1);
    let requests: Vec<WireMsg> = conversation.iter().step_by(2).cloned().collect();
    let replies: Vec<WireMsg> = conversation.iter().skip(1).step_by(2).cloned().collect();
    let per_group = requests.len();
    assert_eq!(replies.len(), per_group);
    let total = (WARM_UP + round_trips) * per_group;

    let echo = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut got = 0;
        while got < total && Instant::now() < deadline {
            if let Some(NetEvent::Msg(_)) = server.poll(Duration::from_millis(50)) {
                got += 1;
                if got % per_group == 0 {
                    server.send_wire_group(0, replies.clone());
                }
            }
        }
        server
    });

    let mut rtts_us = Vec::with_capacity(round_trips);
    for round in 0..WARM_UP + round_trips {
        let started = Instant::now();
        client.send_wire_group(1, requests.clone());
        let mut got = 0;
        while got < per_group {
            match client.poll(Duration::from_secs(10)) {
                Some(NetEvent::Msg(_)) => got += 1,
                Some(NetEvent::Timer { .. }) => {}
                None => panic!("no reply within 10 s"),
            }
        }
        if round >= WARM_UP {
            rtts_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let server = echo.join().expect("echo thread");
    client.shutdown();
    server.shutdown();
    rtts_us.sort_by(f64::total_cmp);
    RttSample {
        p50_us: rtts_us[rtts_us.len() / 2],
        p99_us: rtts_us[rtts_us.len() * 99 / 100],
        round_trips,
        msgs_each_way: per_group,
    }
}

/// Best of `runs` for one knob setting.
fn tcp_best(runs: u32, rounds: u32, batch_max: usize, flush_deadline_us: u64) -> TcpSample {
    let mut best = bench_tcp(rounds, batch_max, flush_deadline_us);
    for _ in 1..runs {
        let s = bench_tcp(rounds, batch_max, flush_deadline_us);
        if s.msgs_per_s > best.msgs_per_s {
            best = s;
        }
    }
    best
}

const BATCH_MAX: usize = 256;
const FLUSH_DEADLINE_US: u64 = 100;

fn main() {
    let smoke = std::env::var_os("NET_BENCH_SMOKE").is_some();

    // Warm up, then measure (best of 3; smoke mode trims everything).
    let (codec_rounds, tcp_rounds, runs, round_trips) = if smoke {
        (2_000, 10_000, 1, 2_000)
    } else {
        (20_000, 50_000, 3, 20_000)
    };
    bench_codec(1_000);
    let mut codec = bench_codec(codec_rounds);
    for _ in 1..=if smoke { 0 } else { 2 } {
        let s = bench_codec(codec_rounds);
        if s.msgs_per_s > codec.msgs_per_s {
            codec = s;
        }
    }
    println!(
        "codec: {:.0} msgs/s, {:.1} MB/s ({:.1} B/msg)",
        codec.msgs_per_s, codec.mb_per_s, codec.bytes_per_msg
    );

    // Same-run baseline: batch_max 1, deadline 0 — the pre-batching wire
    // format, one v1 frame per message.
    let unbatched = tcp_best(runs, tcp_rounds, 1, 0);
    println!(
        "tcp loopback unbatched: {:.0} msgs/s, {:.1} MB/s ({} frames, {} batches)",
        unbatched.msgs_per_s, unbatched.mb_per_s, unbatched.wire_frames, unbatched.batches
    );
    assert_eq!(unbatched.batches, 0, "batch_max=1 must never coalesce");

    let batched = tcp_best(runs, tcp_rounds, BATCH_MAX, FLUSH_DEADLINE_US);
    let speedup = batched.msgs_per_s / unbatched.msgs_per_s.max(1e-9);
    println!(
        "tcp loopback batched: {:.0} msgs/s, {:.1} MB/s ({} frames, {} batches, {:.1}x unbatched)",
        batched.msgs_per_s, batched.mb_per_s, batched.wire_frames, batched.batches, speedup
    );
    assert!(batched.batches > 0, "coalescing never engaged");

    let rtt = bench_rtt(round_trips);
    println!(
        "tcp loopback request/response: rtt p50 {:.1} us, p99 {:.1} us ({} round trips of {} messages each way)",
        rtt.p50_us, rtt.p99_us, rtt.round_trips, rtt.msgs_each_way
    );

    if smoke {
        // CI gate: batching must be worth at least 2x on the same box in
        // the same run, or the hot path regressed.
        assert!(
            speedup >= 2.0,
            "batched loopback {:.0} msgs/s is under 2x the unbatched {:.0} msgs/s",
            batched.msgs_per_s,
            unbatched.msgs_per_s
        );
        println!("smoke ok: {speedup:.1}x >= 2x");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"host_cores\": {},\n  \"commit\": \"{}\",\n  \
         \"mix\": \"6-message 2PC conversation (Dml, DmlResult x11 rows, Prepare, Ready, Commit, CommitAck)\",\n  \
         \"codec\": {{\"msgs_per_s\": {:.1}, \"mb_per_s\": {:.2}, \"bytes_per_msg\": {:.1}}},\n  \
         \"tcp_loopback\": {{\"frames_per_s\": {:.1}, \"mb_per_s\": {:.2}, \"wire_frames\": {}, \"batches\": {}, \"batch_max\": {}, \"flush_deadline_us\": {}}},\n  \
         \"tcp_loopback_unbatched\": {{\"frames_per_s\": {:.1}, \"mb_per_s\": {:.2}}},\n  \
         \"batched_speedup\": {:.2},\n  \
         \"tcp_loopback_rtt_us\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"round_trips\": {}, \"msgs_each_way\": {}, \"batch_max\": {}, \"flush_deadline_us\": 0}}\n}}\n",
        stamp::host_cores(),
        stamp::commit(),
        codec.msgs_per_s,
        codec.mb_per_s,
        codec.bytes_per_msg,
        batched.msgs_per_s,
        batched.mb_per_s,
        batched.wire_frames,
        batched.batches,
        BATCH_MAX,
        FLUSH_DEADLINE_US,
        unbatched.msgs_per_s,
        unbatched.mb_per_s,
        speedup,
        rtt.p50_us,
        rtt.p99_us,
        rtt.round_trips,
        rtt.msgs_each_way,
        BATCH_MAX
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, &json).expect("write BENCH_net.json");
    println!("wrote {path}");
}
