//! Workload specification and deterministic program generation.

use mdbs_histories::SiteId;
use mdbs_ldbs::{Command, KeySpec};
use mdbs_simkit::DetRng;

use crate::zipf::Zipf;

/// Width of a generated range command (inclusive span); how often one is
/// drawn is [`WorkloadSpec::range_fraction`].
const RANGE_SPAN: u64 = 4;

/// Mean gap between local transaction starts per site, µs (exponential).
/// Locals are background load; how much is
/// [`WorkloadSpec::local_txns_per_site`].
const LOCAL_ARRIVAL_MEAN_US: f64 = 2_000.0;

/// How items are selected within a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Every item equally likely.
    Uniform,
    /// Zipf-distributed ranks with the given exponent.
    Zipf(f64),
    /// A fraction `hot_frac` of items receives `hot_prob` of the accesses.
    Hotspot {
        /// Fraction of the key space that is hot (0..1).
        hot_frac: f64,
        /// Probability an access goes to the hot set (0..1).
        hot_prob: f64,
    },
}

/// A complete workload parameterization. All randomness derives from
/// `seed`; identical specs generate identical programs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Master seed.
    pub seed: u64,
    /// Number of participating sites.
    pub sites: u32,
    /// Rows per site, keyed `0..items_per_site`.
    pub items_per_site: u64,
    /// Initial row value.
    pub initial_value: i64,
    /// Total global transactions to issue.
    pub global_txns: u32,
    /// Concurrent global transactions (multiprogramming level).
    pub mpl: u32,
    /// Total local transactions per site.
    pub local_txns_per_site: u32,
    /// Sites touched per global transaction (inclusive range).
    pub sites_per_txn: (u32, u32),
    /// DML commands per touched site (inclusive range).
    pub commands_per_site: (u32, u32),
    /// Probability a command updates rather than reads.
    pub write_fraction: f64,
    /// Probability a command addresses a small key *range* instead of a
    /// single key (range scans decompose to multiple elementary operations
    /// and acquire multiple locks — the contention pattern that makes
    /// per-site decomposition order matter).
    pub range_fraction: f64,
    /// Item selection within a site.
    pub access: AccessPattern,
    /// Probability that a prepared subtransaction suffers a unilateral
    /// abort (drawn once per prepare).
    pub unilateral_abort_prob: f64,
    /// Whether the DLU restriction is enforced at the LDBSs.
    pub enforce_dlu: bool,
    /// Mean gap between global transaction starts, µs (exponential).
    /// Stays a field: the §5.3 race test needs 500, and it is the rate
    /// axis of an open-loop ledger workload (ROADMAP item 1(c)).
    pub global_arrival_mean_us: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 42,
            sites: 2,
            items_per_site: 64,
            initial_value: 100,
            global_txns: 100,
            mpl: 4,
            local_txns_per_site: 50,
            sites_per_txn: (2, 2),
            commands_per_site: (1, 2),
            write_fraction: 0.5,
            range_fraction: 0.0,
            access: AccessPattern::Uniform,
            unilateral_abort_prob: 0.0,
            enforce_dlu: true,
            global_arrival_mean_us: 3_000.0,
        }
    }
}

/// Deterministic generator of transaction programs from a spec.
#[derive(Debug)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: DetRng,
    /// Separate stream for failure draws: they happen at *prepare* events,
    /// whose count and order differ across protocols — isolating them keeps
    /// the program/arrival sequence bit-identical for every protocol under
    /// the same seed (cross-protocol comparability).
    fail_rng: DetRng,
    zipf: Option<Zipf>,
}

impl WorkloadGen {
    /// Build the generator (one per simulation run).
    pub fn new(spec: WorkloadSpec) -> WorkloadGen {
        let rng = DetRng::new(spec.seed).substream("workload");
        let fail_rng = DetRng::new(spec.seed).substream("failures");
        let zipf = match spec.access {
            AccessPattern::Zipf(theta) => Some(Zipf::new(spec.items_per_site, theta)),
            _ => None,
        };
        WorkloadGen {
            spec,
            rng,
            fail_rng,
            zipf,
        }
    }

    /// The spec this generator draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn pick_key(&mut self) -> u64 {
        match self.spec.access {
            AccessPattern::Uniform => self.rng.uniform_u64(0, self.spec.items_per_site),
            AccessPattern::Zipf(_) => {
                let z = self.zipf.as_ref().expect("zipf built in new()");
                z.sample(&mut self.rng)
            }
            AccessPattern::Hotspot { hot_frac, hot_prob } => {
                let hot_n = ((self.spec.items_per_site as f64 * hot_frac).ceil() as u64).max(1);
                if self.rng.chance(hot_prob) {
                    self.rng.uniform_u64(0, hot_n)
                } else if hot_n < self.spec.items_per_site {
                    self.rng.uniform_u64(hot_n, self.spec.items_per_site)
                } else {
                    self.rng.uniform_u64(0, self.spec.items_per_site)
                }
            }
        }
    }

    fn pick_command(&mut self) -> Command {
        let key = self.pick_key();
        let spec = if self.rng.chance(self.spec.range_fraction) {
            let hi = (key + RANGE_SPAN - 1).min(self.spec.items_per_site - 1);
            KeySpec::Range(key.min(hi), hi)
        } else {
            KeySpec::Key(key)
        };
        if self.rng.chance(self.spec.write_fraction) {
            Command::Update(spec, 1)
        } else {
            Command::Select(spec)
        }
    }

    /// Generate the program of one global transaction: a list of
    /// (site, command) steps, grouped by site (at most one global
    /// subtransaction per site, §2).
    pub fn global_program(&mut self) -> Vec<(SiteId, Command)> {
        let (lo, hi) = self.spec.sites_per_txn;
        let nsites = self
            .rng
            .uniform_u64(lo as u64, hi as u64 + 1)
            .min(self.spec.sites as u64) as usize;
        let mut sites: Vec<u32> = (0..self.spec.sites).collect();
        self.rng.shuffle(&mut sites);
        sites.truncate(nsites.max(1));
        let (clo, chi) = self.spec.commands_per_site;
        let mut program = Vec::new();
        for &s in &sites {
            let ncmd = self.rng.uniform_u64(clo as u64, chi as u64 + 1).max(1);
            for _ in 0..ncmd {
                program.push((SiteId(s), self.pick_command()));
            }
        }
        program
    }

    /// Generate one local transaction's program at `site`.
    pub fn local_program(&mut self, _site: SiteId) -> Vec<Command> {
        let (clo, chi) = self.spec.commands_per_site;
        let ncmd = self.rng.uniform_u64(clo as u64, chi as u64 + 1).max(1);
        (0..ncmd).map(|_| self.pick_command()).collect()
    }

    /// Draw the next inter-arrival gap for global transactions, µs.
    pub fn global_gap_us(&mut self) -> u64 {
        self.rng.exp_micros(self.spec.global_arrival_mean_us)
    }

    /// Draw the next inter-arrival gap for local transactions, µs.
    pub fn local_gap_us(&mut self) -> u64 {
        self.rng.exp_micros(LOCAL_ARRIVAL_MEAN_US)
    }

    /// Draw whether a freshly prepared subtransaction will suffer a
    /// unilateral abort (independent stream; see the struct docs).
    pub fn draw_unilateral_abort(&mut self) -> bool {
        self.fail_rng.chance(self.spec.unilateral_abort_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::default()
    }

    #[test]
    fn same_seed_same_programs() {
        let mut a = WorkloadGen::new(spec());
        let mut b = WorkloadGen::new(spec());
        for _ in 0..20 {
            assert_eq!(a.global_program(), b.global_program());
        }
    }

    #[test]
    fn different_seed_different_programs() {
        let mut a = WorkloadGen::new(spec());
        let mut b = WorkloadGen::new(WorkloadSpec { seed: 43, ..spec() });
        let pa: Vec<_> = (0..10).map(|_| a.global_program()).collect();
        let pb: Vec<_> = (0..10).map(|_| b.global_program()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn global_program_respects_site_bounds() {
        let s = WorkloadSpec {
            sites: 4,
            sites_per_txn: (2, 3),
            ..spec()
        };
        let mut g = WorkloadGen::new(s);
        for _ in 0..50 {
            let p = g.global_program();
            let sites: std::collections::BTreeSet<SiteId> = p.iter().map(|(s, _)| *s).collect();
            assert!((2..=3).contains(&sites.len()));
        }
    }

    #[test]
    fn one_subtransaction_per_site_grouping() {
        // Steps for the same site must be contiguous (one subtransaction).
        let s = WorkloadSpec {
            sites: 3,
            sites_per_txn: (3, 3),
            commands_per_site: (2, 2),
            ..spec()
        };
        let mut g = WorkloadGen::new(s);
        let p = g.global_program();
        let mut seen = Vec::new();
        for (site, _) in &p {
            if seen.last() != Some(site) {
                assert!(!seen.contains(site), "site revisited: {p:?}");
                seen.push(*site);
            }
        }
    }

    #[test]
    fn write_fraction_extremes() {
        let mut ro = WorkloadGen::new(WorkloadSpec {
            write_fraction: 0.0,
            ..spec()
        });
        for _ in 0..20 {
            for (_, c) in ro.global_program() {
                assert!(!c.is_update());
            }
        }
        let mut wo = WorkloadGen::new(WorkloadSpec {
            write_fraction: 1.0,
            ..spec()
        });
        for _ in 0..20 {
            for (_, c) in wo.global_program() {
                assert!(c.is_update());
            }
        }
    }

    #[test]
    fn range_commands_generated_when_enabled() {
        let s = WorkloadSpec {
            range_fraction: 1.0,
            items_per_site: 16,
            ..spec()
        };
        let mut g = WorkloadGen::new(s);
        for _ in 0..20 {
            for (_, c) in g.global_program() {
                match c {
                    Command::Select(KeySpec::Range(lo, hi))
                    | Command::Update(KeySpec::Range(lo, hi), _) => {
                        assert!(lo <= hi && hi < 16, "bad range {lo}..{hi}");
                        assert!(hi - lo < RANGE_SPAN);
                    }
                    other => panic!("expected range command, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn keys_within_domain() {
        let s = WorkloadSpec {
            items_per_site: 8,
            access: AccessPattern::Zipf(0.9),
            ..spec()
        };
        let mut g = WorkloadGen::new(s);
        for _ in 0..100 {
            for (_, c) in g.global_program() {
                match c {
                    Command::Select(KeySpec::Key(k)) | Command::Update(KeySpec::Key(k), _) => {
                        assert!(k < 8)
                    }
                    other => panic!("unexpected command {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hotspot_concentrates() {
        let s = WorkloadSpec {
            items_per_site: 100,
            access: AccessPattern::Hotspot {
                hot_frac: 0.1,
                hot_prob: 0.9,
            },
            write_fraction: 0.0,
            ..spec()
        };
        let mut g = WorkloadGen::new(s);
        let mut hot = 0;
        let mut total = 0;
        for _ in 0..500 {
            for (_, c) in g.global_program() {
                if let Command::Select(KeySpec::Key(k)) = c {
                    total += 1;
                    if k < 10 {
                        hot += 1;
                    }
                }
            }
        }
        assert!(
            hot as f64 > total as f64 * 0.8,
            "hot {hot}/{total} below expectation"
        );
    }

    #[test]
    fn failure_draws_do_not_perturb_programs() {
        // Interleaving abort draws between program draws must not change
        // the generated programs — protocols with different prepare counts
        // would otherwise see different workloads.
        let s = WorkloadSpec {
            unilateral_abort_prob: 0.5,
            ..spec()
        };
        let mut plain = WorkloadGen::new(s.clone());
        let mut interleaved = WorkloadGen::new(s);
        for i in 0..30 {
            for _ in 0..(i % 4) {
                interleaved.draw_unilateral_abort();
            }
            assert_eq!(plain.global_program(), interleaved.global_program());
            assert_eq!(plain.global_gap_us(), interleaved.global_gap_us());
        }
    }

    #[test]
    fn abort_draw_matches_probability_extremes() {
        let mut never = WorkloadGen::new(WorkloadSpec {
            unilateral_abort_prob: 0.0,
            ..spec()
        });
        assert!((0..100).all(|_| !never.draw_unilateral_abort()));
        let mut always = WorkloadGen::new(WorkloadSpec {
            unilateral_abort_prob: 1.0,
            ..spec()
        });
        assert!((0..100).all(|_| always.draw_unilateral_abort()));
    }

    #[test]
    fn local_program_sizes() {
        let s = WorkloadSpec {
            commands_per_site: (1, 3),
            ..spec()
        };
        let mut g = WorkloadGen::new(s);
        for _ in 0..50 {
            let p = g.local_program(SiteId(0));
            assert!((1..=3).contains(&p.len()));
        }
    }

    #[test]
    fn arrival_gaps_positive() {
        let mut g = WorkloadGen::new(spec());
        for _ in 0..100 {
            assert!(g.global_gap_us() >= 1);
            assert!(g.local_gap_us() >= 1);
        }
    }
}
