//! Differential batching suite: batching must be observably invisible.
//!
//! The same predrawn workload runs through a **batched** transport
//! (`net.batch_max = 256`, the cluster defaults) and an **unbatched**
//! one (`net.batch_max = 1`, deadline 0 — every message rides its own v1
//! frame exactly as before the batch envelope existed), for both the 2CM
//! and CGM loopback clusters. Outcome digests and per-site certifier
//! verdicts must be identical to each other *and* to the deterministic
//! simulation of the same scenario. Each protocol runs the scenario
//! twice. At its `mpl` of 4 beside the sites' local transactions a verdict
//! depends on which transactions overlap in real time — a CGM commit-graph
//! vote on which globals are in the graph, any protocol's outcome on whom
//! a site's deadlock detector finds in a cycle — so there both transports
//! must settle everything and pass every checker; one transaction at a
//! time, the digests must also be equal.
//!
//! Chaos coverage rides along: a `net.test_drop` connection drop fired
//! mid-run under batching must reconnect and retransmit at **batch
//! granularity** — digests unchanged, at-least-once and per-link FIFO
//! intact. A raw-listener test pins the replayed frame boundaries: a
//! coalesced frame comes back bit-identical after a cut, never silently
//! re-fragmented into per-message frames, and a frame the sending thread
//! failed to write comes back alone, never merged with its successors.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mdbs_dtm::CertifierMode;
use mdbs_histories::{GlobalTxnId, SiteId};
use mdbs_net::frame::{encode_batch_frame, encode_frame, Frame, FrameDecoder};
use mdbs_net::tcp::{TcpTransport, TcpTransportConfig};
use mdbs_net::wire::{decode_frame_payload, encode_batch, encode_msg, WireMsg};
use mdbs_net::{loopback_cluster, ClusterOutcome, ClusterRunner};
use mdbs_sim::report::{outcome_digest, site_verdict_digest};
use mdbs_sim::{Protocol, SimConfig, SimReport, Simulation};

const SITES: u32 = 3;
const GLOBALS: u64 = 12;
const LOCALS_PER_SITE: u32 = 4;

/// Serializes the cluster-spawning tests in this binary. Each spawns a
/// 4–5 process loopback cluster, and `cargo test` runs the tests on
/// parallel threads: with three clusters up at once the box is CPU
/// oversubscribed, which skews the real-time CGM admission ordering
/// enough to drift the outcome digest away from the deterministic sim
/// (the load-flaky pin noted in PR 9). The protocol is deterministic
/// under one cluster per box — so run one cluster per box.
/// Poison-tolerant: one failing test must not cascade into the rest.
static CLUSTER_SERIAL: Mutex<()> = Mutex::new(());

fn scenario(protocol: Protocol) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.workload.seed = 20260808;
    cfg.workload.sites = SITES;
    cfg.workload.global_txns = GLOBALS as u32;
    cfg.workload.local_txns_per_site = LOCALS_PER_SITE;
    cfg.workload.items_per_site = 32;
    cfg.workload.unilateral_abort_prob = 0.0;
    cfg.coordinators = 1;
    cfg.protocol = protocol;
    cfg
}

fn sim_reference(scenario: &SimConfig) -> SimReport {
    let mut sim = Simulation::new(scenario.clone());
    sim.use_predrawn_workload();
    let report = sim.run();
    // CGM may abort globals on scheduler conflicts even failure-free;
    // the differential only needs the cluster to land on the *same*
    // verdicts, so the sim's own counts are the reference.
    assert_eq!(report.committed + report.aborted, GLOBALS, "all settled");
    assert!(report.checks.passed(), "{:?}", report.checks);
    report
}

/// Run a loopback cluster with the given batching knobs (and optional
/// `net.test_drop` entries).
fn run_cluster(
    scenario: &SimConfig,
    batch_max: usize,
    flush_deadline_us: u64,
    test_drop: Vec<(u32, u64)>,
) -> ClusterOutcome {
    let mut cfg = loopback_cluster(scenario.clone()).expect("reserve loopback addrs");
    cfg.batch_max = batch_max;
    cfg.flush_deadline_us = flush_deadline_us;
    cfg.test_drop = test_drop;
    ClusterRunner::new(env!("CARGO_BIN_EXE_mdbs-node"), cfg)
        .run(Duration::from_secs(120))
        .expect("cluster run")
}

/// The scenario with nothing left to overlap: one global at a time and no
/// local transactions, so no transaction ever waits for another — no
/// deadlock victim, no wait timeout, no commit-graph cycle — and every
/// verdict is the sim's.
fn one_at_a_time(mut scenario: SimConfig) -> SimConfig {
    scenario.workload.mpl = 1;
    scenario.workload.local_txns_per_site = 0;
    scenario
}

/// What holds of any run of the scenario, however its messages raced.
fn assert_settled_and_correct(cluster: &ClusterOutcome, scenario: &SimConfig) {
    assert_eq!(cluster.committed + cluster.aborted, GLOBALS, "all settled");
    assert_eq!(
        cluster.local_committed + cluster.local_aborted,
        u64::from(SITES * scenario.workload.local_txns_per_site),
        "every local settled"
    );
    assert!(cluster.checks_passed);
    assert!(cluster.missing_reports.is_empty());
}

/// What moved a verdict, if anything did: the cluster's counts next to the
/// sim's, and per site the only things that can refuse or abort a global
/// in a failure-free run — deadlock victims, lock-wait timeouts and the
/// certifier's refusals by reason.
fn why(cluster: &ClusterOutcome, sim: &SimReport) -> String {
    let mut out = format!(
        "cluster {} committed / {} aborted (checks_passed={}), sim {} / {}",
        cluster.committed, cluster.aborted, cluster.checks_passed, sim.committed, sim.aborted
    );
    for (node, s) in cluster.stats.iter().filter(|(&n, _)| n < SITES) {
        out += &format!(
            "; site {node}: deadlock_victims={} wait_timeouts={} refused_sn_out_of_order={} \
             refused_interval_disjoint={} refused_not_alive={}",
            s.deadlock_victims,
            s.wait_timeouts,
            s.refused_sn_out_of_order,
            s.refused_interval_disjoint,
            s.refused_not_alive
        );
    }
    out
}

fn assert_matches_sim(cluster: &ClusterOutcome, sim: &SimReport) {
    assert_eq!(
        cluster.outcome_digest,
        outcome_digest(&sim.history, &sim.checks),
        "global verdicts + checker verdicts must match the sim: {}",
        why(cluster, sim)
    );
    for s in 0..SITES {
        assert_eq!(
            cluster.site_verdicts.get(&s).copied(),
            Some(site_verdict_digest(&sim.history, SiteId(s))),
            "site {s} certifier verdicts must match the sim: {}",
            why(cluster, sim)
        );
    }
    assert_eq!(
        (cluster.committed, cluster.aborted),
        (sim.committed, sim.aborted)
    );
}

/// Run `scenario` unbatched and batched, holding each transport to its
/// framing contract and to everything that does not depend on timing.
fn run_both_ways(scenario: &SimConfig) -> (ClusterOutcome, ClusterOutcome) {
    // batch_max = 1, deadline 0: byte-for-byte the pre-batching wire
    // format (every frame is v1, never coalesced).
    let unbatched = run_cluster(scenario, 1, 0, Vec::new());
    assert_settled_and_correct(&unbatched, scenario);
    for (node, stats) in &unbatched.stats {
        assert_eq!(
            stats.batches_sent, 0,
            "node {node} coalesced under batch_max=1: {stats:?}"
        );
        assert_eq!(
            stats.msgs_sent, stats.frames_sent,
            "node {node}: unbatched frames carry exactly one message"
        );
    }

    // Defaults: the node loop's per-burst groups coalesce, the writer
    // waits for nothing (the drop test below runs the adaptive deadline).
    let batched = run_cluster(scenario, 256, 0, Vec::new());
    assert_settled_and_correct(&batched, scenario);
    (unbatched, batched)
}

/// The differential core: batched and unbatched agree with the sim and
/// with each other.
fn differential(scenario: &SimConfig) {
    let sim = sim_reference(scenario);
    let (unbatched, batched) = run_both_ways(scenario);
    assert_matches_sim(&unbatched, &sim);
    assert_matches_sim(&batched, &sim);
    assert_eq!(batched.outcome_digest, unbatched.outcome_digest);
    assert_eq!(batched.site_verdicts, unbatched.site_verdicts);
    assert_eq!(
        (batched.local_committed, batched.local_aborted),
        (unbatched.local_committed, unbatched.local_aborted)
    );
}

/// Both legs for one protocol. Concurrent traffic: a verdict may depend on
/// which transactions overlap in real time — a site's deadlock detector
/// picks its victim among whoever is in the cycle when it looks (2CM lost
/// one global in about fifty runs that way, `deadlock_victims=1` at one
/// site where the sim has none), a CGM vote depends on which transactions
/// are in the commit graph when it is cast — so a cluster that is faster
/// or slower than the sim's fixed latencies may legitimately differ from
/// it there, and both transports are held to what no race moves. One
/// transaction at a time, the verdicts are comparable, and must be equal.
fn differential_both_legs(protocol: Protocol) {
    let _serial = CLUSTER_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let concurrent = scenario(protocol);
    let (_, batched) = run_both_ways(&concurrent);
    // Coalescing needs a burst with two messages for one peer. Overlapping
    // transactions produce them; one 2CM transaction at a time does not,
    // since each site's BEGIN rides its first command.
    let coalesced: u64 = batched.stats.values().map(|s| s.batches_sent).sum();
    assert!(
        coalesced > 0,
        "no frame ever coalesced across the batched cluster: {:?}",
        batched.stats
    );
    differential(&one_at_a_time(concurrent));
}

#[test]
fn two_cm_digests_are_identical_batched_and_unbatched() {
    differential_both_legs(Protocol::TwoCm(CertifierMode::Full));
}

#[test]
fn cgm_digests_are_identical_batched_and_unbatched() {
    differential_both_legs(Protocol::Cgm);
}

/// Chaos coverage: a forced connection drop mid-run under batching (the
/// hook counts messages, so a coalesced frame can trip it mid-batch).
/// The writer must reconnect and retransmit at batch granularity — the
/// digests cannot move.
#[test]
fn a_connection_drop_under_batching_leaves_digests_unchanged() {
    let _serial = CLUSTER_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run_dropped = |scenario: &SimConfig| {
        let dropped = run_cluster(scenario, 64, 100, vec![(1, 10)]);
        assert_settled_and_correct(&dropped, scenario);
        let site1 = &dropped.stats[&1];
        assert!(site1.test_drops >= 1, "hook never fired: {site1:?}");
        assert!(site1.connects >= 2, "no reconnect after drop: {site1:?}");
        dropped
    };
    let concurrent = scenario(Protocol::TwoCm(CertifierMode::Full));
    run_dropped(&concurrent);
    let serial = one_at_a_time(concurrent);
    assert_matches_sim(&run_dropped(&serial), &sim_reference(&serial));
}

fn commit_group(first: u32, n: u32) -> Vec<WireMsg> {
    (first..first + n)
        .map(|k| WireMsg::Net {
            from: 1,
            to: 2,
            msg: mdbs_dtm::Message::Commit {
                gtxn: GlobalTxnId(k),
            },
        })
        .collect()
}

fn read_stream(conn: &mut std::net::TcpStream, want: Option<usize>) -> Vec<u8> {
    conn.set_read_timeout(Some(Duration::from_millis(100))).ok();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        if let Some(want) = want {
            if bytes.len() >= want {
                break;
            }
        }
        match conn.read(&mut buf) {
            Ok(0) => break, // peer severed
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(_) => continue, // timeout slice; keep waiting
        }
    }
    bytes
}

/// Regression: the retransmission unit is the coalesced frame. After a
/// connection cut, the replayed frame must be **bit-identical** to the
/// coalesced original — same envelope version, same message count, same
/// boundaries — never re-fragmented into per-message frames.
#[test]
fn a_reconnect_replays_the_coalesced_frame_bit_for_bit() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind raw listener");
    let peer_addr = listener.local_addr().expect("addr").to_string();
    let transport = TcpTransport::start(TcpTransportConfig {
        node: 1,
        listen_addr: "127.0.0.1:0".to_string(),
        peers: BTreeMap::from([(2, peer_addr)]),
        outbox_capacity: 64,
        batch_max: 64,
        flush_deadline_us: 100,
        backoff_initial: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        // Fires right after the Hello: the first coalesced frame is
        // written on a healthy connection, then the link is severed.
        test_drop_after: Some(1),
    })
    .expect("start transport");
    let hello = encode_frame(&encode_msg(&WireMsg::Hello { node: 1 }));

    // One group → one coalesced v2 frame, delivered on the first
    // connection just before the hook severs it.
    let group_a = commit_group(0, 10);
    let frame_a = encode_batch_frame(&encode_batch(&group_a));
    transport.send_wire_group(2, group_a);
    let (mut conn, _) = listener.accept().expect("first connection");
    let bytes = read_stream(&mut conn, None);
    assert_eq!(
        bytes,
        [hello.clone(), frame_a].concat(),
        "first connection: Hello + one coalesced frame, then the cut"
    );

    // The next group hits the severed stream: the writer reconnects and
    // replays the whole coalesced frame, boundaries intact.
    let group_b = commit_group(100, 7);
    let frame_b = encode_batch_frame(&encode_batch(&group_b));
    transport.send_wire_group(2, group_b);
    let (mut conn, _) = listener.accept().expect("reconnect");
    let want = hello.len() + frame_b.len();
    let bytes = read_stream(&mut conn, Some(want));
    assert_eq!(
        bytes,
        [hello, frame_b].concat(),
        "replay after reconnect must keep the coalesced frame bit-identical"
    );
    assert_eq!(transport.stats().test_drops.load(Ordering::Relaxed), 1);
    assert_eq!(transport.stats().connects.load(Ordering::Relaxed), 2);

    // The error path the hook does not take: the *peer* closes. The link
    // is idle, so the sending thread writes the next groups itself; the
    // first write after the close may still be taken by the kernel (and
    // is lost with the connection, as it would be to a peer that died),
    // the first one that *fails* belongs to the writer thread from then
    // on — and must come back as the bytes the sender built, a lone
    // frame, however much queued up behind it in the meantime.
    drop(conn);
    let later: Vec<Vec<WireMsg>> = (2..7).map(|g| commit_group(g * 100, 3 + g)).collect();
    // The pauses let the writer thread go idle, then the FIN, then the
    // RST land, so that the writes below are the sending thread's own.
    let pause = Duration::from_millis(50);
    std::thread::sleep(pause);
    transport.send_wire_group(2, later[0].clone());
    std::thread::sleep(pause);
    for group in &later[1..] {
        transport.send_wire_group(2, group.clone());
    }
    let (mut conn, _) = listener.accept().expect("second reconnect");
    let decode = |f: &Frame| decode_frame_payload(f.version, &f.payload).expect("clean payload");
    let mut dec = FrameDecoder::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut buf = [0u8; 4096];
    let last = later.last().and_then(|g| g.last()).expect("non-empty");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    while frames.last().is_none_or(|f| decode(f).last() != Some(last)) {
        let n = conn.read(&mut buf).expect("the replay arrives");
        assert!(n > 0, "severed before the last group arrived");
        dec.extend(&buf[..n]);
        while let Some(f) = dec.next_frame_versioned().expect("clean framing") {
            frames.push(f);
        }
    }
    assert_eq!(
        decode(&frames[0]),
        [WireMsg::Hello { node: 1 }],
        "a fresh connection opens with Hello"
    );
    let failed = later
        .iter()
        .position(|g| *g == decode(&frames[1]))
        .expect("the replayed frame is one whole group, not a merge");
    assert!(failed <= 1, "group {failed} failed first?");
    // Version and payload are the frame: the envelope around them is a
    // pure function of the two.
    assert_eq!(
        (frames[1].version, &frames[1].payload),
        (2, &encode_batch(&later[failed])),
        "the replay is the lone frame the sender built"
    );
    let rest: Vec<WireMsg> = frames[2..].iter().flat_map(decode).collect();
    assert_eq!(rest, later[failed + 1..].concat(), "successors, in order");
    // Every group before the one that failed was the sender's own write
    // (and so may the successors be, once the writer had caught up).
    let written_through = transport
        .stats()
        .frames_written_through
        .load(Ordering::Relaxed);
    assert!(written_through >= failed as u64, "{written_through}");
    assert_eq!(transport.stats().connects.load(Ordering::Relaxed), 3);
    transport.shutdown();
}
