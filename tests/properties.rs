//! Property-based tests over the core invariants.
//!
//! The centerpiece validates the paper's Theorem-19-style sufficient
//! condition on protocol-generated histories: whenever the local
//! projections are rigorous, `CG(C(H))` is acyclic, and no global view
//! distortion exists, the committed projection must be *exactly* view
//! serializable — checked against the factorial-time decider on small runs
//! produced by the **anomaly-prone** naive protocol, so both directions of
//! the condition get exercised.

use proptest::prelude::*;

use rigorous_mdbs::dtm::CertifierMode;
use rigorous_mdbs::histories::{
    cg::commit_order_graph, distortion::detect_global_view_distortion, rigor::is_rigorous,
    view::view_serializable_capped, History, Instance, Item, Op, SiteId,
};
use rigorous_mdbs::ldbs::{Command, KeySpec, Ldbs, SiteProfile, Store};
use rigorous_mdbs::sim::{Protocol, SimConfig, Simulation};
use rigorous_mdbs::simkit::DetRng;

// ---------------------------------------------------------------------
// The LDBS engine always produces rigorous, instance-serializable site
// histories, whatever we throw at it.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum EngineStep {
    Begin(u8),
    Submit(u8, u8, bool), // txn, key, write?
    Commit(u8),
    Abort(u8),
}

fn engine_step() -> impl Strategy<Value = EngineStep> {
    prop_oneof![
        (0u8..6).prop_map(EngineStep::Begin),
        (0u8..6, 0u8..4, any::<bool>()).prop_map(|(t, k, w)| EngineStep::Submit(t, k, w)),
        (0u8..6).prop_map(EngineStep::Commit),
        (0u8..6).prop_map(EngineStep::Abort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ldbs_histories_always_rigorous(steps in proptest::collection::vec(engine_step(), 1..60)) {
        let site = SiteId(0);
        let mut db = Ldbs::new(site, SiteProfile::default(), Store::with_rows(4, 10));
        let mut active: Vec<u8> = Vec::new();
        let mut busy: Vec<u8> = Vec::new(); // blocked on a lock
        // Transaction identities are unique per life (the DTM guarantees
        // this via incarnation indices); model it with a generation counter.
        let mut generation = [0u32; 6];
        let instance_of =
            |t: u8, generation: &[u32; 6]| Instance::global(t as u32, site, generation[t as usize]);
        for step in steps {
            match step {
                EngineStep::Begin(t) => {
                    let inst = instance_of(t, &generation);
                    if !db.is_active(inst) && !active.contains(&t) {
                        db.begin(inst).unwrap();
                        active.push(t);
                    }
                }
                EngineStep::Submit(t, k, w) => {
                    let inst = instance_of(t, &generation);
                    if db.is_active(inst) && !busy.contains(&t) {
                        let cmd = if w {
                            Command::Update(KeySpec::Key(k as u64), 1)
                        } else {
                            Command::Select(KeySpec::Key(k as u64))
                        };
                        if let rigorous_mdbs::ldbs::ExecStep::Blocked =
                            db.submit(inst, &cmd).unwrap()
                        {
                            busy.push(t);
                        }
                    }
                }
                EngineStep::Commit(t) => {
                    let inst = instance_of(t, &generation);
                    if db.is_active(inst) && !busy.contains(&t) {
                        let resumed = db.commit(inst).unwrap();
                        for r in resumed {
                            if let rigorous_mdbs::ldbs::ExecStep::Done(_) = r.step {
                                busy.retain(|x| {
                                    instance_of(*x, &generation) != r.instance
                                });
                            }
                        }
                        active.retain(|x| *x != t);
                        generation[t as usize] += 1;
                    }
                }
                EngineStep::Abort(t) => {
                    let inst = instance_of(t, &generation);
                    if db.is_active(inst) {
                        let resumed = db.abort(inst).unwrap();
                        busy.retain(|x| *x != t);
                        for r in resumed {
                            if let rigorous_mdbs::ldbs::ExecStep::Done(_) = r.step {
                                busy.retain(|x| {
                                    instance_of(*x, &generation) != r.instance
                                });
                            }
                        }
                        active.retain(|x| *x != t);
                        generation[t as usize] += 1;
                    }
                }
            }
        }
        let h = db.site_history();
        prop_assert!(is_rigorous(&h), "engine produced non-rigorous history: {h}");
    }

    // -----------------------------------------------------------------
    // Theorem-19-style cross-validation: sufficient condition vs. exact
    // decider, on naive-protocol runs (which produce both good and bad
    // histories).
    // -----------------------------------------------------------------

    #[test]
    fn sufficient_condition_implies_exact_view_serializability(
        seed in 0u64..5000,
        abort_prob in 0.0f64..0.7,
    ) {
        let mut cfg = SimConfig::default();
        cfg.workload.seed = seed;
        cfg.workload.sites = 2;
        cfg.workload.items_per_site = 4;
        cfg.workload.global_txns = 3;
        cfg.workload.local_txns_per_site = 2;
        cfg.workload.unilateral_abort_prob = abort_prob;
        cfg.workload.write_fraction = 0.8;
        cfg.protocol = Protocol::TwoCm(CertifierMode::NoCertification);
        let report = Simulation::new(cfg).run();

        let h = &report.history;
        for s in [SiteId(0), SiteId(1)] {
            prop_assert!(is_rigorous(&h.site_projection(s)));
        }
        let c = h.committed_projection();
        prop_assume!(c.txns().len() <= 7);
        let sufficient = commit_order_graph(&c).acyclic
            && detect_global_view_distortion(&c).is_none();
        let exact = view_serializable_capped(&c, 7).serializable;
        if sufficient {
            prop_assert!(
                exact,
                "sufficient condition held but history not view serializable:\n{c}"
            );
        }
    }

    // -----------------------------------------------------------------
    // 2CM safety: every full-certifier run satisfies the paper's criterion.
    // -----------------------------------------------------------------

    #[test]
    fn two_cm_always_view_serializable(
        seed in 0u64..5000,
        abort_prob in 0.0f64..0.6,
        theta in 0.0f64..1.2,
    ) {
        let mut cfg = SimConfig::default();
        cfg.workload.seed = seed;
        cfg.workload.sites = 2;
        cfg.workload.items_per_site = 6;
        cfg.workload.global_txns = 8;
        cfg.workload.local_txns_per_site = 4;
        cfg.workload.unilateral_abort_prob = abort_prob;
        cfg.workload.access = rigorous_mdbs::workload::AccessPattern::Zipf(theta);
        let report = Simulation::new(cfg).run();
        prop_assert_eq!(report.committed + report.aborted, 8);
        prop_assert!(report.checks.passed(), "{:?}", report.checks);
    }

    // -----------------------------------------------------------------
    // Serial histories are always view serializable.
    // -----------------------------------------------------------------

    #[test]
    fn serial_histories_view_serializable(
        seed in any::<u64>(),
        ntxn in 1usize..5,
        ops_per in 1usize..5,
    ) {
        let mut rng = DetRng::new(seed);
        let mut h = History::new();
        for t in 0..ntxn {
            for _ in 0..ops_per {
                let item = Item::new(SiteId(0), rng.uniform_u64(0, 3));
                if rng.chance(0.5) {
                    h.push(Op::read_g(t as u32, 0, item));
                } else {
                    h.push(Op::write_g(t as u32, 0, item));
                }
            }
            h.push(Op::local_commit_g(t as u32, 0, SiteId(0)));
        }
        let report = view_serializable_capped(&h, 6);
        prop_assert!(report.serializable);
    }

    // -----------------------------------------------------------------
    // Determinism: seed fully determines the run.
    // -----------------------------------------------------------------

    #[test]
    fn simulation_deterministic(seed in 0u64..2000) {
        let mut cfg = SimConfig::default();
        cfg.workload.seed = seed;
        cfg.workload.global_txns = 6;
        cfg.workload.local_txns_per_site = 3;
        cfg.workload.unilateral_abort_prob = 0.3;
        let a = Simulation::new(cfg.clone()).run();
        let b = Simulation::new(cfg).run();
        prop_assert_eq!(a.history, b.history);
        prop_assert_eq!(a.messages, b.messages);
    }
}

// ---------------------------------------------------------------------
// Notation round-trip: Display ∘ parse = id for arbitrary histories.
// ---------------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = Op> {
    let site = (0u32..4).prop_map(SiteId);
    let item = (0u32..4, 0u64..30).prop_map(|(s, k)| Item::new(SiteId(s), k));
    prop_oneof![
        (0u32..9, 0u32..9, item.clone()).prop_map(|(t, j, it)| Op::read_g(t, j, it)),
        (0u32..9, 0u32..9, item.clone()).prop_map(|(t, j, it)| Op::write_g(t, j, it)),
        (0u32..9, item.clone()).prop_map(|(n, it)| Op::read_l(n, it)),
        (0u32..9, item).prop_map(|(n, it)| Op::write_l(n, it)),
        (0u32..99, site.clone()).prop_map(|(k, s)| Op::prepare(k, s)),
        (0u32..9, 0u32..9, site.clone()).prop_map(|(t, j, s)| Op::local_commit_g(t, j, s)),
        (0u32..9, 0u32..9, site.clone()).prop_map(|(t, j, s)| Op::local_abort_g(t, j, s)),
        (0u32..9, site.clone()).prop_map(|(n, s)| Op::local_commit_l(n, s)),
        (0u32..9, site).prop_map(|(n, s)| Op::local_abort_l(n, s)),
        (0u32..99).prop_map(Op::global_commit),
        (0u32..99).prop_map(Op::global_abort),
    ]
}

proptest! {
    #[test]
    fn notation_round_trips(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let h = History::from_ops(ops);
        let parsed: History = h.to_string().parse().expect("own notation parses");
        prop_assert_eq!(parsed, h);
    }
}

// ---------------------------------------------------------------------
// Lock manager invariants under random schedules.
// ---------------------------------------------------------------------

/// One lock-table mutation over at most 6 instances and 4 keys.
#[derive(Debug, Clone, Copy)]
enum LockStep {
    Request(u8, u8, bool, bool), // instance, key, exclusive?, DLU-held?
    Release(u8),
    Impose(u8, u8), // key, bit mask of the instances the DLU rule holds
    Lift(u8),
}

/// Six requests (one in five DLU-held) to two releases, one impose and
/// one lift.
fn lock_step() -> impl Strategy<Value = LockStep> {
    (0u8..10, 0u8..6, 0u8..4, any::<bool>(), 0u8..5, 0u8..64).prop_map(
        |(pick, t, k, x, dlu, held)| match pick {
            0..=5 => LockStep::Request(t, k, x, dlu == 0),
            6 | 7 => LockStep::Release(t),
            8 => LockStep::Impose(k, held),
            _ => LockStep::Lift(k),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lock_manager_never_grants_conflicting_holders(
        reqs in proptest::collection::vec((0u32..8, 0u64..4, any::<bool>(), any::<bool>()), 1..80)
    ) {
        use rigorous_mdbs::ldbs::{LockManager, LockMode};
        let site = SiteId(0);
        let mut lm = LockManager::new();
        for (t, key, exclusive, release) in reqs {
            let inst = Instance::global(t, site, 0);
            if release {
                lm.release_all(inst);
            } else {
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                lm.request(inst, key, mode, false);
            }
            // Invariant: per key, either one exclusive holder or only
            // shared holders.
            for k in 0..4u64 {
                let holders = lm.holders(k);
                let exclusives = holders
                    .iter()
                    .filter(|(_, m)| *m == LockMode::Exclusive)
                    .count();
                if exclusives > 0 {
                    prop_assert_eq!(holders.len(), 1, "X lock must be sole holder on {}", k);
                }
            }
        }
    }

    #[test]
    fn remembered_deadlock_verdict_matches_a_fresh_search(
        steps in proptest::collection::vec(lock_step(), 1..80)
    ) {
        use rigorous_mdbs::histories::graph::DiGraph;
        use rigorous_mdbs::ldbs::{LockManager, LockMode};
        let site = SiteId(0);
        let inst = |t: u8| Instance::global(t as u32, site, 0);
        let mode = |x: bool| if x { LockMode::Exclusive } else { LockMode::Shared };
        let mut lm = LockManager::new();
        for step in steps {
            match step {
                LockStep::Request(t, key, x, dlu) => {
                    lm.request(inst(t), key as u64, mode(x), dlu);
                }
                LockStep::Release(t) => {
                    lm.release_all(inst(t));
                }
                LockStep::Impose(key, held) => lm.impose_dlu_holds(key as u64, |i, m| {
                    m == LockMode::Exclusive && (0..6).any(|t| held & (1 << t) != 0 && inst(t) == i)
                }),
                LockStep::Lift(key) => {
                    lm.lift_dlu_holds(key as u64);
                }
            }
            let mut g = DiGraph::new();
            for (a, b) in lm.waits_for_edges() {
                g.add_edge(a, b);
            }
            let fresh = g.find_cycle();
            prop_assert_eq!(lm.deadlocked(), fresh, "after {:?}", step);
        }
    }

    #[test]
    fn store_rollback_restores_exact_state(
        muts in proptest::collection::vec((0u64..6, -50i64..50, any::<bool>()), 1..40)
    ) {
        let mut store = Store::with_rows(6, 100);
        let snapshot = store.clone();
        let mut undo = Vec::new();
        for (k, v, del) in muts {
            if del {
                undo.push(store.delete(k));
            } else {
                undo.push(store.put(k, v));
            }
        }
        for image in undo.into_iter().rev() {
            store.restore(image);
        }
        prop_assert_eq!(store, snapshot);
    }
}
