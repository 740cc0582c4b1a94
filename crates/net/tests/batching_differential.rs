//! Differential batching suite: batching must be observably invisible.
//!
//! The same predrawn workload runs through a **batched** transport
//! (`net.batch_max = 256`, the cluster defaults) and an **unbatched**
//! one (`net.batch_max = 1`, deadline 0 — every message rides its own v1
//! frame exactly as before the batch envelope existed), for both the 2CM
//! and CGM loopback clusters. Outcome digests and per-site certifier
//! verdicts must be identical to each other *and* to the deterministic
//! simulation of the same scenario. CGM runs the scenario twice: at its
//! `mpl` of 4, where a commit-graph vote depends on which transactions
//! overlap in real time, both transports must settle everything and pass
//! every checker; one global at a time, the digests must also be equal.
//!
//! Chaos coverage rides along: a `net.test_drop` connection drop fired
//! mid-run under batching must reconnect and retransmit at **batch
//! granularity** — digests unchanged, at-least-once and per-link FIFO
//! intact. A raw-listener test pins the replayed frame boundaries: a
//! coalesced frame comes back bit-identical after a cut, never silently
//! re-fragmented into per-message frames.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mdbs_dtm::CertifierMode;
use mdbs_histories::{GlobalTxnId, SiteId};
use mdbs_net::frame::{encode_batch_frame, encode_frame};
use mdbs_net::tcp::{TcpTransport, TcpTransportConfig};
use mdbs_net::wire::{encode_batch, encode_msg, WireMsg};
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

/// What holds of any run of the scenario, however its messages raced.
fn assert_settled_and_correct(cluster: &ClusterOutcome) {
    assert_eq!(cluster.committed + cluster.aborted, GLOBALS, "all settled");
    assert_eq!(
        cluster.local_committed + cluster.local_aborted,
        u64::from(SITES * LOCALS_PER_SITE),
        "every local settled"
    );
    assert!(cluster.checks_passed);
    assert!(cluster.missing_reports.is_empty());
}

fn assert_matches_sim(cluster: &ClusterOutcome, sim: &SimReport) {
    assert_eq!(
        cluster.outcome_digest,
        outcome_digest(&sim.history, &sim.checks),
        "global verdicts + checker verdicts must match the sim"
    );
    for s in 0..SITES {
        assert_eq!(
            cluster.site_verdicts.get(&s).copied(),
            Some(site_verdict_digest(&sim.history, SiteId(s))),
            "site {s} certifier verdicts must match the sim"
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
    assert_settled_and_correct(&unbatched);
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
    assert_settled_and_correct(&batched);
    let coalesced: u64 = batched.stats.values().map(|s| s.batches_sent).sum();
    assert!(
        coalesced > 0,
        "no frame ever coalesced across the batched cluster: {:?}",
        batched.stats
    );
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

#[test]
fn two_cm_digests_are_identical_batched_and_unbatched() {
    let _serial = CLUSTER_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    differential(&scenario(Protocol::TwoCm(CertifierMode::Full)));
}

#[test]
fn cgm_digests_are_identical_batched_and_unbatched() {
    let _serial = CLUSTER_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Concurrent CGM traffic: a commit-graph vote depends on which
    // transactions are in the graph when it is cast, i.e. on which ones
    // overlap in real time, so a cluster that is faster or slower than the
    // sim's fixed latencies may legitimately miss (or find) a cycle the
    // sim's run has. Both transports must still settle every transaction
    // and pass every checker.
    let concurrent = scenario(Protocol::Cgm);
    run_both_ways(&concurrent);
    // One global at a time leaves nothing to overlap: the verdicts are
    // comparable, and must be equal. (2CM needs no such care: with one
    // coordinator its failure-free verdicts do not depend on timing.)
    let mut serial = concurrent;
    serial.workload.mpl = 1;
    differential(&serial);
}

/// Chaos coverage: a forced connection drop mid-run under batching (the
/// hook counts messages, so a coalesced frame can trip it mid-batch).
/// The writer must reconnect and retransmit at batch granularity — the
/// digests cannot move.
#[test]
fn a_connection_drop_under_batching_leaves_digests_unchanged() {
    let _serial = CLUSTER_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = scenario(Protocol::TwoCm(CertifierMode::Full));
    let sim = sim_reference(&scenario);
    let dropped = run_cluster(&scenario, 64, 100, vec![(1, 10)]);
    assert_settled_and_correct(&dropped);
    assert_matches_sim(&dropped, &sim);
    let site1 = &dropped.stats[&1];
    assert!(site1.test_drops >= 1, "hook never fired: {site1:?}");
    assert!(site1.connects >= 2, "no reconnect after drop: {site1:?}");
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
    transport.shutdown();
}
