//! Microbenchmarks of the history checkers: rigorousness, commit-order
//! graph, replay semantics, the exact view-serializability decider on the
//! paper's histories, and the whole post-hoc `analyze` on the history of a
//! `sim-scale8`-shaped run and of one four times as long.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mdbs_histories::{
    cg::commit_order_graph, paper, rigor::is_rigorous, view::view_serializable, History, Op,
    Replay, SiteId,
};
use mdbs_sim::{CorrectnessReport, SimConfig, Simulation};
use mdbs_simkit::DetRng;

/// A synthetic rigorous history: n transactions executed serially at one
/// site, `ops` operations each.
fn serial_history(n: u32, ops: u32, seed: u64) -> History {
    let mut rng = DetRng::new(seed);
    let site = SiteId(0);
    let mut h = History::new();
    for t in 0..n {
        for _ in 0..ops {
            let item = mdbs_histories::Item::new(site, rng.uniform_u64(0, 16));
            if rng.chance(0.5) {
                h.push(Op::read_g(t, 0, item));
            } else {
                h.push(Op::write_g(t, 0, item));
            }
        }
        h.push(Op::local_commit_g(t, 0, site));
    }
    h
}

fn bench_rigor_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("rigor_checker");
    for n in [10u32, 50, 200] {
        let h = serial_history(n, 4, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| is_rigorous(h));
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_semantics");
    for n in [10u32, 50, 200] {
        let h = serial_history(n, 4, 9);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| Replay::of(h));
        });
    }
    group.finish();
}

fn bench_commit_order_graph(c: &mut Criterion) {
    let h = serial_history(200, 4, 11);
    c.bench_function("commit_order_graph_200txn", |b| {
        b.iter(|| commit_order_graph(&h));
    });
}

/// The drill-down under the ledger's `sim-scale8` row: the history of a
/// failure-free 8-site run with `scale` × (150 locals + 4 globals) per site,
/// through `analyze` and through its `CG(C(H))` stage alone. The ids carry
/// the committed-transaction count: the checker is near-linear, so time per
/// transaction at 4× should read about the same as at 1×.
fn bench_analyze_at_scale8(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker_at_sim_scale8");
    for scale in [1u32, 4] {
        let mut cfg = SimConfig::default();
        cfg.workload.seed = 1_000_000;
        cfg.workload.sites = 8;
        cfg.workload.global_txns = 32 * scale;
        cfg.workload.local_txns_per_site = 150 * scale;
        cfg.ltm_service_us = 0;
        let history = Simulation::new(cfg).run().history;
        let committed = history.committed_projection();
        let txns = committed.txns().len();
        group.throughput(Throughput::Elements(txns as u64));
        let id = format!("{scale}x_{txns}txn_{}ops", history.len());
        group.bench_with_input(BenchmarkId::new("analyze", &id), &history, |b, h| {
            b.iter(|| CorrectnessReport::analyze(h, 8));
        });
        group.bench_with_input(
            BenchmarkId::new("commit_order_graph", &id),
            &committed,
            |b, c| b.iter(|| commit_order_graph(c)),
        );
    }
    group.finish();
}

fn bench_view_serializability_paper_histories(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_view_serializability");
    for (name, h) in [
        ("h1", paper::h1()),
        ("h2", paper::h2()),
        ("h3", paper::h3()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &h, |b, h| {
            b.iter(|| view_serializable(&h.committed_projection()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rigor_checker,
    bench_replay,
    bench_commit_order_graph,
    bench_analyze_at_scale8,
    bench_view_serializability_paper_histories
);
criterion_main!(benches);
