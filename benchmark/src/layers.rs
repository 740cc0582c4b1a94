//! The traced run: one extra episode at episode 0's seed with spans
//! around the harness's calls into each layer, the checker re-timed stage
//! by stage on the episode's history, and one micro-replay per layer
//! driven by the workload's own inputs — its pre-drawn programs and its
//! actual 2PC message stream. Everything is timed from outside, through
//! public functions.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mdbs_consensus::acceptor::Acceptor;
use mdbs_consensus::{PaxosMsg, Vote};
use mdbs_dtm::{Agent, AgentAction, AgentConfig, AgentInput, Message, SerialNumber};
use mdbs_histories::rigor::rigor_violation;
use mdbs_histories::{
    commit_order_graph, detect_global_view_distortion, GlobalTxnId, History, Instance, SiteId,
};
use mdbs_ldbs::{
    Command, CommandResult, ExecStep, KeySpec, Ldbs, LockManager, LockMode, SiteProfile, Store,
};
use mdbs_net::cluster::loopback_addrs;
use mdbs_net::tcp::{NetEvent, TcpTransport, TcpTransportConfig};
use mdbs_net::wire::{decode_msg, encode_msg};
use mdbs_net::{encode_frame, FrameDecoder, WireMsg};
use mdbs_sim::{CorrectnessReport, SimConfig, SimReport, Simulation, TraceEvent};
use mdbs_simkit::{DetRng, EventQueue, Metrics, SimDuration};
use mdbs_workload::{predraw, PredrawnWorkload};

use crate::e2e::{failed_of_attempted, setup, timed_episodes, Outcome, Summary};
use crate::episode::{run_episode, Episode};
use crate::metrics::{Ledger, PER_LAYER};
use crate::proc::cpu_s;
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, quartiles, sorted};
use crate::workloads::{Driver, Workload};

/// Share of `--seconds` spent on untraced runs of episode 0 (the baseline
/// the traced episode and the CPU readings are compared with).
const UNTRACED_SHARE: f64 = 0.5;
/// Simulated-latency samples pooled before a p95 is reported.
const LATENCY_SAMPLES: u64 = 200;

pub fn run(w: &Workload, seed: u64, seconds: f64) -> (Outcome, Recorder) {
    let mut violations = Vec::new();
    let mut ledger = Ledger::new(PER_LAYER);
    let mut rec = Recorder::new();

    let (_, warm_digest) = setup(w, seed, &mut violations);
    let untraced = untraced_baseline(w, seed, seconds, &mut ledger, &mut violations);

    // The workload's sim twin: the same scenario on the deterministic
    // driver, drawn the way the workload's own driver draws it, with an
    // observer capturing the 2PC message stream. On the sim workloads it
    // *is* episode 0.
    let cfg = w.scenario(seed, 0);
    let predrawn = w.driver != Driver::Sim;
    let (twin, msgs) = rec.scope("replay.capture", |_| sim_twin(cfg.clone(), predrawn, true));
    if w.driver == Driver::Sim && twin_digest(&twin) != warm_digest {
        violations.push("the observed twin diverged from episode 0".into());
    }

    let ep = traced_episode(&mut rec, w, &cfg, &twin, &mut ledger);
    violations.extend(ep.violations.iter().map(|v| format!("traced episode: {v}")));
    let (_, untraced_wall, _) = quartiles(&sorted(untraced.iter().map(|e| e.wall_s).collect()));
    ledger.set(
        "proc.probe_overhead_share",
        ep.wall_s() / untraced_wall - 1.0,
        format!(
            "traced episode vs the median of {} untraced runs of it",
            untraced.len()
        ),
    );

    twin_counts(&twin, &mut ledger);
    sim_latency(&mut rec, w, seed, &twin, predrawn, &mut ledger);
    consensus_msgs(&mut rec, &cfg, predrawn, &mut ledger);

    let drawn = predraw(&cfg.workload);
    let secs = rec.time("replay.predraw", || {
        black_box(predraw(black_box(&cfg.workload)));
    });
    ledger.set("workload.predraw_s", secs, "one episode's workload");
    replay_event_queue(&mut rec, &cfg, &mut ledger);
    replay_agent(&mut rec, &cfg, &drawn, &mut ledger);
    replay_ldbs(&mut rec, &cfg, &drawn, &mut ledger);
    replay_acceptor(&mut rec, &drawn, &mut ledger);
    replay_codec(&mut rec, &msgs, &mut ledger);
    replay_tcp_pair(&mut rec, &msgs, cfg.workload.mpl as usize, &mut ledger);

    let (failed, attempted) = failed_of_attempted(&untraced);
    let traced_failed = if ep.violations.is_empty() {
        0
    } else {
        ep.attempted
    };
    let outcome = Outcome {
        violations,
        attempted: attempted + ep.attempted,
        failed: failed + traced_failed,
        metrics: ledger.finish(),
    };
    (outcome, rec)
}

/// Episode 0 again and again, untraced, with the process's CPU time read
/// around it: the baseline for `proc.*`.
fn untraced_baseline(
    w: &Workload,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
    violations: &mut Vec<String>,
) -> Vec<Summary> {
    let (cpu0, wall0) = (cpu_s(), Instant::now());
    let untraced = timed_episodes(w, seed, |_| 0, 3, seconds * UNTRACED_SHARE, violations);
    let (cpu, wall) = (cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
    let committed: u64 = untraced.iter().map(|e| e.committed).sum();
    ledger.set(
        "proc.cpu_us_per_committed_txn",
        cpu * 1e6 / committed as f64,
        format!("{cpu:.2} CPU s, {committed} committed"),
    );
    ledger.set(
        "proc.cpu_utilisation",
        cpu / wall,
        format!(
            "of {} cores; well under 1 means waiting, not computing",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    );
    untraced
}

/// The traced episode — `episode` → `mdbs.new`, `mdbs.run`, then the
/// checker re-timed whole (`histories.analyze`) and stage by stage
/// (`histories.stages`) on the history it returned — and the `histories.*`,
/// `mdbs.*` and `net.*` metrics read off it.
fn traced_episode(
    rec: &mut Recorder,
    w: &Workload,
    cfg: &SimConfig,
    twin: &SimReport,
    ledger: &mut Ledger,
) -> Episode {
    rec.set_episode(cfg.workload.seed);
    let (ep, history) = rec.scope("episode", |rec| {
        let mut ep = run_episode(w.driver, cfg.clone(), Some(rec));
        // A TCP cluster returns lines, not its history: the twin's
        // history of the same programs stands in for it.
        let history = match ep.report.take() {
            Some(report) => report.history,
            None => twin.history.clone(),
        };
        let sites = cfg.workload.sites;
        let verdict = rec.scope("histories.analyze", |_| {
            CorrectnessReport::analyze(&history, sites)
        });
        let staged = rec.scope("histories.stages", |rec| stages(rec, &history, sites));
        if !(verdict.passed() && staged) {
            ep.violations.push("re-timed checker verdict failed".into());
        }
        (ep, history)
    });

    let analyze_s = rec.total_s("histories.analyze");
    let run_s = rec.total_s("mdbs.run");
    ledger.set(
        "histories.analyze_s",
        analyze_s,
        "CorrectnessReport::analyze re-timed",
    );
    for stage in [
        "histories.site_projection",
        "histories.rigor",
        "histories.committed_projection",
        "histories.commit_graph",
        "histories.distortion",
    ] {
        ledger.set(&format!("{stage}_s"), rec.self_s(stage), "");
    }
    let staged_s = rec.total_s("histories.stages") - rec.self_s("histories.stages");
    ledger.set(
        "histories.analyze_share",
        analyze_s / run_s,
        format!(
            "of mdbs.run_s; the five stages cover {:.1} % of analyze_s",
            100.0 * staged_s / analyze_s
        ),
    );
    ledger.set("histories.ops_per_episode", history.len() as f64, "");
    ledger.set(
        "histories.committed_txns_per_episode",
        history.committed_projection().txns().len() as f64,
        "",
    );
    ledger.set("mdbs.new_s", rec.total_s("mdbs.new"), "");
    ledger.set("mdbs.run_s", run_s, "the driver's whole run call");
    // What the run call does besides checking: on the sim the
    // single-threaded sum of event queue, dispatch, agent, coordinator,
    // LDBS and history push. (On TCP analyze_s is the twin's, so this is
    // an estimate there.)
    let drive_s = run_s - analyze_s;
    ledger.set("mdbs.drive_s", drive_s, "run_s - analyze_s");
    let drive_us = drive_s * 1e6 / ep.attempted as f64;
    ledger.set("mdbs.drive_us_per_txn", drive_us, "");

    let n = &ep.net;
    ledger.set("net.frames_sent", n.frames_sent as f64, "");
    ledger.set("net.msgs_sent", n.msgs_sent as f64, "");
    let per_frame = n.msgs_sent as f64 / n.frames_sent.max(1) as f64;
    ledger.set("net.msgs_per_frame", per_frame, "");
    ledger.set("net.batches_sent", n.batches_sent as f64, "");
    ledger.set("net.connects", n.connects as f64, "");
    ledger.set("net.decode_errors", n.decode_errors as f64, "");
    ep
}

/// `core.*` and `ldbs.*` counts and the simulated finish time, from the
/// twin: they repeat exactly.
fn twin_counts(twin: &SimReport, ledger: &mut Ledger) {
    let count = |name: &str| twin.metrics.counter(name) as f64;
    let mut refused = 0.0;
    for name in [
        "refused_interval_disjoint",
        "refused_sn_out_of_order",
        "refused_not_alive",
    ] {
        refused += count(name);
        ledger.set(&format!("core.{name}"), count(name), "");
    }
    let accepted = count("prepares_accepted");
    ledger.set("core.prepares_accepted", accepted, "");
    let ratio = if accepted + refused == 0.0 {
        1.0
    } else {
        accepted / (accepted + refused)
    };
    ledger.set("core.prepare_accept_ratio", ratio, "");
    for name in ["resubmissions", "commit_retries", "commit_cert_overrides"] {
        ledger.set(&format!("core.{name}"), count(name), "");
    }
    for name in [
        "deadlock_victims",
        "wait_timeouts",
        "injected_unilateral_aborts",
    ] {
        ledger.set(&format!("ldbs.{name}"), count(name), "");
    }
    ledger.set(
        "mdbs.sim_finished_at_ms",
        twin.finished_at.as_secs_f64() * 1e3,
        "simulated time",
    );
}

/// `consensus.sim_msgs_per_commit_f0/f1`: messages per commit of the twin
/// with direct commit and with Paxos Commit at F = 1, beside the
/// analytical count of Gray & Lamport's "Consensus on Transaction Commit"
/// for the failure-free case without co-location: (N-1) Prepare + N(F+1)
/// phase 2a + F phase 2b + N Commit. The README records the difference.
fn consensus_msgs(rec: &mut Recorder, cfg: &SimConfig, predrawn: bool, ledger: &mut Ledger) {
    let n = u64::from(cfg.workload.sites_per_txn.1);
    for (f, metric) in [
        (0, "consensus.sim_msgs_per_commit_f0"),
        (1, "consensus.sim_msgs_per_commit_f1"),
    ] {
        let mut cfg = cfg.clone();
        cfg.consensus_f = f;
        let (report, _) = rec.scope("replay.consensus_msgs", |_| sim_twin(cfg, predrawn, false));
        let f = u64::from(f);
        ledger.set(
            metric,
            report.messages as f64 / report.committed as f64,
            format!(
                "analytical NF+F+3N-1 = {} for N = {n}",
                n * f + f + 3 * n - 1
            ),
        );
    }
}

/// `cfg` on the deterministic driver; optionally from the canonical
/// pre-drawn workload (what the threaded and TCP drivers run) and with an
/// observer capturing every 2PC message handed to the network.
fn sim_twin(cfg: SimConfig, predrawn: bool, capture: bool) -> (SimReport, Vec<WireMsg>) {
    let mut sim = Simulation::new(cfg);
    if predrawn {
        sim.use_predrawn_workload();
    }
    let sent = Rc::new(RefCell::new(Vec::new()));
    if capture {
        let sent = Rc::clone(&sent);
        sim.set_observer(Box::new(move |event| {
            if let TraceEvent::MessageSent { from, to, msg, .. } = event {
                sent.borrow_mut().push(WireMsg::Net {
                    from: *from,
                    to: *to,
                    msg: msg.clone(),
                });
            }
        }));
    }
    let report = sim.run();
    assert!(report.checks.passed(), "sim twin failed its checks");
    let msgs = sent.take();
    (report, msgs)
}

fn twin_digest(report: &SimReport) -> u64 {
    mdbs_sim::report::outcome_digest(&report.history, &report.checks)
}

/// The stages of `CorrectnessReport::analyze`, one span each (the exact
/// view-serializability decider only runs under 9 committed transactions,
/// which no workload has). Returns the verdict.
fn stages(rec: &mut Recorder, history: &History, sites: u32) -> bool {
    let mut rigorous = true;
    for s in 0..sites {
        let proj = rec.scope("histories.site_projection", |_| {
            history.site_projection(SiteId(s))
        });
        rigorous &= rec.scope("histories.rigor", |_| rigor_violation(&proj).is_none());
    }
    let c = rec.scope("histories.committed_projection", |_| {
        history.committed_projection()
    });
    let acyclic = rec.scope("histories.commit_graph", |_| commit_order_graph(&c).acyclic);
    let undistorted = rec.scope("histories.distortion", |_| {
        detect_global_view_distortion(&c).is_none()
    });
    rigorous && acyclic && undistorted
}

/// Simulated admission-to-outcome latency, pooled over as many twin
/// episodes as give the p95 its ten samples beyond.
fn sim_latency(
    rec: &mut Recorder,
    w: &Workload,
    seed: u64,
    twin: &SimReport,
    predrawn: bool,
    ledger: &mut Ledger,
) {
    let mut pooled = Metrics::new();
    pooled.merge(&twin.metrics);
    let samples = |m: &Metrics| m.stats("commit_latency_ms").map_or(0, |s| s.count()) as u64;
    let mut episodes = 1;
    while samples(&pooled) < LATENCY_SAMPLES {
        let cfg = w.scenario(seed, episodes);
        let (report, _) = rec.scope("replay.sim_latency", |_| sim_twin(cfg, predrawn, false));
        pooled.merge(&report.metrics);
        episodes += 1;
    }
    let n = samples(&pooled) as usize;
    let lat = pooled.stats("commit_latency_ms").expect("latency samples");
    let note = format!(
        "{n} samples over {episodes} sim episodes support up to p{}",
        highest_supported_percentile(n).expect("at least 200 samples") * 100.0
    );
    ledger.set(
        "mdbs.sim_commit_latency_p50_ms",
        lat.quantile(0.5).expect("samples"),
        note.clone(),
    );
    ledger.set(
        "mdbs.sim_commit_latency_p95_ms",
        lat.quantile(0.95).expect("samples"),
        note,
    );
}

/// `simkit.event_ns`: schedule + pop with the queue held at the depth the
/// workload keeps it, `mpl × sites` pending events.
fn replay_event_queue(rec: &mut Recorder, cfg: &SimConfig, ledger: &mut Ledger) {
    const OPS: u64 = 1_000_000;
    let depth = u64::from(cfg.workload.mpl * cfg.workload.sites);
    let mut rng = DetRng::new(cfg.workload.seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut delay = || SimDuration::from_micros(rng.uniform_u64(500, 700));
    for i in 0..depth {
        queue.schedule_after(delay(), i);
    }
    let secs = rec.time("replay.event_queue", || {
        for _ in 0..OPS {
            let ev = queue.pop().expect("queue held at depth");
            queue.schedule_after(delay(), black_box(ev.payload));
        }
    });
    ledger.set(
        "simkit.event_ns",
        secs * 1e9 / OPS as f64,
        format!("schedule + pop at depth {depth}"),
    );
}

/// Every key the workload's global programs address, in program order.
fn key_draw(drawn: &PredrawnWorkload) -> Vec<u64> {
    let key = |spec: &KeySpec| match *spec {
        KeySpec::Key(k) | KeySpec::Range(k, _) => k,
    };
    drawn
        .globals
        .iter()
        .flat_map(|(_, program)| program.iter())
        .map(|(_, command)| match command {
            Command::Select(spec)
            | Command::Update(spec, _)
            | Command::Assign(spec, _)
            | Command::Delete(spec) => key(spec),
            Command::Insert(k, _) => *k,
        })
        .collect()
}

/// `core.agent_cycle_ns` and `core.cert_admission_ns_10k`: one
/// subtransaction's life through `Agent::handle` — Begin, Dml, LtmDone,
/// Prepare for a new transaction, Commit for the oldest prepared one —
/// with the prepared table held at the workload's `mpl`, then at 10 000
/// entries (no workload holds that many: the second number guards the
/// certifier index and moves no end-to-end metric).
fn replay_agent(
    rec: &mut Recorder,
    cfg: &SimConfig,
    drawn: &PredrawnWorkload,
    ledger: &mut Ledger,
) {
    let keys = key_draw(drawn);
    let at_mpl = agent_cycle(rec, "replay.agent_cycle", &keys, cfg.workload.mpl, 20_000);
    ledger.set(
        "core.agent_cycle_ns",
        at_mpl,
        format!("{} prepared entries staged", cfg.workload.mpl),
    );
    let at_10k = agent_cycle(rec, "replay.cert_admission_10k", &keys, 10_000, 5_000);
    ledger.set(
        "core.cert_admission_ns_10k",
        at_10k,
        "10000 prepared entries staged",
    );
}

fn agent_cycle(
    rec: &mut Recorder,
    span: &'static str,
    keys: &[u64],
    staged: u32,
    cycles: u32,
) -> f64 {
    let mut agent = Agent::new(SiteId(0), AgentConfig::default());
    let mut now = 0u64;
    let mut admit = |agent: &mut Agent, k: u32| {
        let gtxn = GlobalTxnId(k);
        let key = keys[k as usize % keys.len()];
        let inputs = [
            AgentInput::Deliver(Message::Begin { gtxn, coord: 0 }),
            AgentInput::Deliver(Message::Dml {
                gtxn,
                step: 0,
                command: Command::Update(KeySpec::Key(key), 1),
            }),
            AgentInput::LtmDone {
                gtxn,
                result: CommandResult {
                    rows: vec![(key, 0)],
                    wrote: vec![key],
                },
            },
            AgentInput::Deliver(Message::Prepare {
                gtxn,
                sn: SerialNumber {
                    ticks: u64::from(k),
                    node: 0,
                    seq: 0,
                },
            }),
        ];
        for input in inputs {
            now += 1;
            black_box(agent.handle(now, input));
        }
        now
    };
    for k in 1..=staged {
        admit(&mut agent, k);
    }
    let accepted_before = agent.stats().prepares_accepted;
    let mut commits = 0u32;
    let secs = rec.time(span, || {
        for i in 1..=cycles {
            let now = admit(&mut agent, staged + i);
            // The oldest prepared entry has the smallest serial number,
            // so commit certification lets it through at once.
            let oldest = GlobalTxnId(i);
            let acts = agent.handle(now, AgentInput::Deliver(Message::Commit { gtxn: oldest }));
            commits += u32::from(acts.iter().any(|a| matches!(a, AgentAction::LtmCommit(_))));
        }
    });
    let accepted = agent.stats().prepares_accepted - accepted_before;
    assert_eq!(
        (accepted, commits),
        (u64::from(cycles), cycles),
        "every cycle admits one subtransaction and commits one"
    );
    secs * 1e9 / f64::from(cycles)
}

/// `ldbs.lock_cycle_ns` (request every lock of a subtransaction, then
/// `release_all`) and `ldbs.txn_cycle_ns` (`Ldbs::begin`, `submit` each
/// command, `commit`) over the workload's subtransactions, one at a time,
/// so neither waits.
fn replay_ldbs(rec: &mut Recorder, cfg: &SimConfig, drawn: &PredrawnWorkload, ledger: &mut Ledger) {
    let spec = &cfg.workload;
    let mut subtxns: Vec<(Instance, Vec<Command>)> = Vec::new();
    for (gtxn, program) in &drawn.globals {
        let mut by_site: BTreeMap<SiteId, Vec<Command>> = BTreeMap::new();
        for (site, command) in program {
            by_site.entry(*site).or_default().push(*command);
        }
        subtxns.extend(
            by_site
                .into_iter()
                .map(|(site, commands)| (Instance::global(gtxn.0, site, 0), commands)),
        );
    }
    let rounds = (50_000 / subtxns.len()).max(1);
    let cycles = (rounds * subtxns.len()) as f64;

    let store = Store::with_rows(spec.items_per_site, spec.initial_value);
    let lock_sets: Vec<(Instance, Vec<(u64, LockMode)>)> = subtxns
        .iter()
        .map(|(instance, commands)| {
            let profile = SiteProfile::for_site(instance.site.0);
            let locks = commands
                .iter()
                .flat_map(|c| c.decompose(&store, &profile))
                .map(|op| {
                    let mode = if op.is_write() {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    (op.key(), mode)
                })
                .collect();
            (*instance, locks)
        })
        .collect();
    let mut locks = LockManager::new();
    let secs = rec.time("replay.lock_cycle", || {
        for _ in 0..rounds {
            for (instance, set) in &lock_sets {
                for &(key, mode) in set {
                    black_box(locks.request(*instance, key, mode, false));
                }
                black_box(locks.release_all(*instance));
            }
        }
    });
    ledger.set(
        "ldbs.lock_cycle_ns",
        secs * 1e9 / cycles,
        format!("{} subtransactions per round", subtxns.len()),
    );

    let mut engines: BTreeMap<SiteId, Ldbs> = (0..spec.sites)
        .map(|s| {
            let engine = Ldbs::new(SiteId(s), SiteProfile::for_site(s), store.clone());
            (SiteId(s), engine)
        })
        .collect();
    let secs = rec.time("replay.txn_cycle", || {
        for _ in 0..rounds {
            for (instance, commands) in &subtxns {
                let engine = engines.get_mut(&instance.site).expect("site engine");
                engine.begin(*instance).expect("fresh instance");
                for command in commands {
                    let step = engine.submit(*instance, command).expect("active");
                    assert!(matches!(step, ExecStep::Done(_)), "nothing to wait for");
                }
                black_box(engine.commit(*instance).expect("commit"));
                black_box(engine.take_log());
            }
        }
    });
    ledger.set(
        "ldbs.txn_cycle_ns",
        secs * 1e9 / cycles,
        "begin + submit + commit",
    );
}

/// `consensus.acceptor_ns_per_msg`: the failure-free acceptor traffic of
/// each global transaction — Begin, one ballot-0 Vote2a per participant,
/// Clear — through `Acceptor::handle`.
fn replay_acceptor(rec: &mut Recorder, drawn: &PredrawnWorkload, ledger: &mut Ledger) {
    let txns: Vec<BTreeSet<SiteId>> = drawn
        .globals
        .iter()
        .map(|(_, program)| program.iter().map(|(site, _)| *site).collect())
        .collect();
    let rounds = (20_000 / txns.len()).max(1);
    let mut acceptor = Acceptor::new(0);
    let mut msgs = 0u64;
    let mut next = 1u32;
    let secs = rec.time("replay.acceptor", || {
        for _ in 0..rounds {
            for participants in &txns {
                let gtxn = GlobalTxnId(next);
                next += 1;
                let mut handle = |msg| {
                    msgs += 1;
                    black_box(acceptor.handle(msg));
                };
                handle(PaxosMsg::Begin {
                    gtxn,
                    coord: 0,
                    participants: participants.clone(),
                });
                for &site in participants {
                    handle(PaxosMsg::Vote2a {
                        gtxn,
                        site,
                        coord: 0,
                        vote: Vote::Ready,
                    });
                }
                handle(PaxosMsg::Clear { gtxn });
            }
        }
    });
    assert_eq!(acceptor.registered(), 0, "every transaction was cleared");
    ledger.set(
        "consensus.acceptor_ns_per_msg",
        secs * 1e9 / msgs as f64,
        "Begin + Vote2a per participant + Clear",
    );
}

/// `net.codec_*`, `net.frame_ns_per_msg`, `net.bytes_per_msg`: the
/// workload's captured message stream through the wire codec and the
/// framing layer, no sockets.
fn replay_codec(rec: &mut Recorder, msgs: &[WireMsg], ledger: &mut Ledger) {
    let rounds = (100_000 / msgs.len()).max(1);
    let n = (rounds * msgs.len()) as f64;
    let secs = rec.time("replay.codec_encode", || {
        for _ in 0..rounds {
            for msg in msgs {
                black_box(encode_msg(black_box(msg)));
            }
        }
    });
    ledger.set(
        "net.codec_encode_ns_per_msg",
        secs * 1e9 / n,
        format!("{} captured 2PC messages per round", msgs.len()),
    );

    let payloads: Vec<Vec<u8>> = msgs.iter().map(encode_msg).collect();
    let secs = rec.time("replay.codec_decode", || {
        for _ in 0..rounds {
            for payload in &payloads {
                black_box(decode_msg(black_box(payload)).expect("own encoding decodes"));
            }
        }
    });
    ledger.set("net.codec_decode_ns_per_msg", secs * 1e9 / n, "");

    let mut bytes = 0usize;
    let mut decoder = FrameDecoder::new();
    let secs = rec.time("replay.frame", || {
        for _ in 0..rounds {
            for payload in &payloads {
                let frame = encode_frame(payload);
                bytes += frame.len();
                decoder.extend(&frame);
                black_box(
                    decoder
                        .next_frame()
                        .expect("clean frame")
                        .expect("whole frame buffered"),
                );
            }
        }
    });
    ledger.set(
        "net.frame_ns_per_msg",
        secs * 1e9 / n,
        "encode_frame + FrameDecoder",
    );
    ledger.set("net.bytes_per_msg", bytes as f64 / n, "framed, unbatched");
}

/// `net.tcp_pair_msgs_per_s`: the captured stream through one
/// `TcpTransport` pair on loopback with the cluster's coalescing knobs,
/// handed over in groups of `mpl` (about what a node stages between two
/// polls at that multiprogramming level).
fn replay_tcp_pair(rec: &mut Recorder, msgs: &[WireMsg], mpl: usize, ledger: &mut Ledger) {
    let addrs = loopback_addrs(2).expect("reserve loopback addresses");
    let transport = |node: usize| {
        TcpTransport::start(TcpTransportConfig {
            node: node as u32,
            listen_addr: addrs[node].clone(),
            peers: BTreeMap::from([(1 - node as u32, addrs[1 - node].clone())]),
            outbox_capacity: 1024,
            batch_max: 256,
            flush_deadline_us: 100,
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(1_000),
            test_drop_after: None,
        })
        .expect("bind loopback transport")
    };
    let sender = transport(0);
    let mut receiver = transport(1);
    let rounds = (50_000 / msgs.len()).max(1);
    let expect = (rounds * msgs.len()) as u64;

    let mut got = 0u64;
    let secs = rec.time("replay.tcp_pair", || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let deadline = Instant::now() + Duration::from_secs(60);
                while got < expect && Instant::now() < deadline {
                    if let Some(NetEvent::Msg(_)) = receiver.poll(Duration::from_millis(50)) {
                        got += 1;
                    }
                }
            });
            for _ in 0..rounds {
                for group in msgs.chunks(mpl) {
                    sender.send_wire_group(1, group.to_vec());
                }
            }
        });
    });
    assert_eq!(got, expect, "the loopback pair must deliver everything");
    let frames = sender.stats().frames_sent.load(Ordering::Relaxed);
    sender.shutdown();
    receiver.shutdown();
    ledger.set(
        "net.tcp_pair_msgs_per_s",
        expect as f64 / secs,
        format!("{expect} messages in {frames} frames"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn the_twin_captures_the_message_stream_it_counts() {
        let w = by_name("threaded-2cm").expect("workload");
        let (report, msgs) = sim_twin(w.scenario(1, 0), true, true);
        assert_eq!(msgs.len() as u64, report.messages);
        let (again, none) = sim_twin(w.scenario(1, 0), true, false);
        assert!(none.is_empty());
        assert_eq!(twin_digest(&report), twin_digest(&again));
    }

    #[test]
    fn the_staged_checker_agrees_with_analyze() {
        let (report, _) = sim_twin(
            by_name("sim-hot").expect("workload").scenario(1, 0),
            false,
            false,
        );
        let mut rec = Recorder::new();
        assert!(stages(&mut rec, &report.history, 4));
        assert!(!stages(&mut rec, &mdbs_histories::paper::h1(), 2));
    }
}
