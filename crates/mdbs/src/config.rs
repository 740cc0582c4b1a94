//! Simulation configuration, and the shared `key = value` scenario/cluster
//! config loader every driver reads.
//!
//! The loader is deliberately tiny — `key = value` lines, `#` comments,
//! no sections, no new dependencies — but strict: unknown keys, duplicate
//! keys and malformed values are hard errors, so a typo in a cluster file
//! fails the node at startup instead of silently running the default. The
//! same format is written by [`scenario_to_kv`] (used by the in-process
//! drivers and the cluster test runner to hand a `SimConfig` to `mdbs-node`
//! processes) and parsed by [`scenario_from_kv`] (used by `mdbs-node` and
//! the chaos harness's built-in scenarios).
//!
//! A setting is a key only when an experiment, a ledger workload or a
//! deployment runs it at more than one value; every other setting is a
//! constant next to the code that uses it (`mdbs_runtime::DEADLOCK_SCAN_US`
//! and the wait timeout's ceiling and floor, `WAIT_TIMEOUT_US` and
//! `WAIT_TIMEOUT_FLOOR_US` — between them each site learns the timeout
//! from its own granted lock waits, so there is no timeout to set —
//! `mdbs_dtm::DONE_CAP` and
//! `CertifierMode::forced_commit_after_us`, the sim's failover delay, the
//! workload generator's range span and local arrival rate, the transport's
//! outbox and backoff in `mdbs-net`). A file naming one of those is refused
//! like any unknown key. Why each key that is not plain workload shape
//! (seed, sizes, mix, access pattern, failure rate, protocol, LTM service
//! time, time limit, `consensus.f`) stays:
//!
//! - `net_latency_us`, `net_jitter_us`, `abort_delay_max_us`,
//!   `agent.alive_check_interval_us`, `enforce_dlu`, `max_clock_skew_us`,
//!   `max_drift_ppm`, `crashes`: experiments XT4–XT8 vary them. The
//!   alive-check period is also Appendix C's retry period, which
//!   `a_held_commit_never_waits_for_the_retry_timer` varies to show that a
//!   held COMMIT ends by release, not by the tick.
//! - `initial_value`: the ledger's layer probes read it.
//! - `global_arrival_mean_us`: the §5.3 overtaking test needs 500, and it
//!   is the rate axis of an open-loop workload (ROADMAP item 1(c)).
//! - `coordinators` and the `node.*` addresses: the cluster's topology.
//! - `consensus.crash_coord_after_ready` and [`SimConfig::link_overrides`]
//!   (no kv form): the failover pins and the §5.3 race; see their docs.
//! - `net.batch_max`, `net.flush_deadline_us`, `net.test_drop`: see
//!   [`ClusterConfig`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

use mdbs_dtm::{AgentConfig, CertifierMode};
use mdbs_simkit::{FaultPlan, SimTime};
use mdbs_workload::{AccessPattern, WorkloadSpec};

/// Which transaction-management method schedules the global transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's decentralized 2PC-Agent Certifier method, with the given
    /// certification mode (`CertifierMode::Full` = the 2CM protocol;
    /// other modes are the in-family ablations/baselines).
    TwoCm(CertifierMode),
    /// The Commit Graph Method (§6 comparison): centralized scheduler with
    /// site-granularity global locks and a commit-graph loop check; agents
    /// run without certification.
    Cgm,
}

impl Protocol {
    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::TwoCm(CertifierMode::Full) => "2CM",
            Protocol::TwoCm(CertifierMode::NoCertification) => "Naive",
            Protocol::TwoCm(CertifierMode::PrepareCertOnly) => "2CM-prep-only",
            Protocol::TwoCm(CertifierMode::PrepareOrder) => "2CM-prep-order",
            Protocol::TwoCm(CertifierMode::TicketOrder) => "Ticket",
            Protocol::Cgm => "CGM",
        }
    }

    /// The agent certification mode this protocol runs with.
    pub fn agent_mode(&self) -> CertifierMode {
        match self {
            Protocol::TwoCm(m) => *m,
            Protocol::Cgm => CertifierMode::NoCertification,
        }
    }

    /// The config-file key for this protocol (lowercased [`Self::label`]).
    pub fn key(&self) -> String {
        self.label().to_ascii_lowercase()
    }

    /// Every protocol, i.e. every value [`Self::parse`] can return.
    pub const ALL: [Protocol; 6] = [
        Protocol::TwoCm(CertifierMode::Full),
        Protocol::TwoCm(CertifierMode::NoCertification),
        Protocol::TwoCm(CertifierMode::PrepareCertOnly),
        Protocol::TwoCm(CertifierMode::PrepareOrder),
        Protocol::TwoCm(CertifierMode::TicketOrder),
        Protocol::Cgm,
    ];

    /// Parse a config-file protocol key (case-insensitive label).
    pub fn parse(s: &str) -> Result<Protocol, ConfigError> {
        let want = s.to_ascii_lowercase();
        Protocol::ALL
            .into_iter()
            .find(|p| p.key() == want)
            .ok_or_else(|| ConfigError(format!("unknown protocol {s:?} (try 2cm, cgm, naive)")))
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The workload (sites, transactions, access patterns, failure rate).
    pub workload: WorkloadSpec,
    /// The scheduling method under test.
    pub protocol: Protocol,
    /// Number of coordinator nodes; transactions round-robin across them.
    pub coordinators: u32,
    /// Mean one-way network latency, µs.
    pub net_latency_us: u64,
    /// Uniform jitter added on top of the mean, µs.
    pub net_jitter_us: u64,
    /// LTM service time per DML command, µs.
    pub ltm_service_us: u64,
    /// Maximum per-node clock skew, µs (each node draws uniformly from
    /// `[-max, +max]`).
    pub max_clock_skew_us: i64,
    /// Maximum per-node clock drift, ppm (drawn uniformly from
    /// `[-max, +max]`).
    pub max_drift_ppm: i64,
    /// 2PC Agent configuration (certifier mode is overridden by
    /// `protocol.agent_mode()`).
    pub agent: AgentConfig,
    /// Injected unilateral aborts strike within this window after the
    /// prepare, µs. Strikes that land after the local commit are skipped
    /// (the transaction escaped), so this should be comparable to the
    /// typical prepared-state duration (~2 network round trips).
    pub abort_delay_max_us: u64,
    /// Scheduled site crashes `(site, at_us)`: at the given instant every
    /// transaction active at the site is rolled back (the paper's
    /// *collective abort*) and the 2PC Agent is rebuilt from its durable
    /// log.
    pub crashes: Vec<(u32, u64)>,
    /// Per-link latency overrides `(from_node, to_node, lo_us, hi_us)` —
    /// heterogeneous links are what make the §5.3 COMMIT-overtakes-PREPARE
    /// race observable (a slow coordinator→site link delays one PREPARE
    /// while another coordinator's whole 2PC completes over fast links).
    pub link_overrides: Vec<(u32, u32, u64, u64)>,
    /// Hard stop for the simulation.
    pub time_limit: SimTime,
    /// Optional deterministic fault-injection plan applied to the 2PC
    /// message network (`None` = the paper's §2 reliable FIFO network).
    /// Each action deliberately violates one of the paper's network
    /// assumptions; CGM control traffic is never faulted.
    pub faults: Option<FaultPlan>,
    /// Paxos Commit fault tolerance: a crashed coordinator's in-flight
    /// transactions are finished by a backup, for up to `F` coordinator
    /// crash-stops. `0` (the default) is the paper's direct 2PC decision —
    /// no acceptors, zero extra messages, bit-for-bit identical digests.
    /// `F > 0` runs `2F+1` acceptor nodes and requires `coordinators >= 2`
    /// under the 2CM protocol family. The ballot-0 path needs all `F+1` of
    /// its acceptors (the first `F+1`); a takeover needs any `F+1`. No
    /// driver crashes an acceptor.
    pub consensus_f: u32,
    /// Test hook: `(coord, k)` — coordinator `coord` crashes on receipt of
    /// its `k`-th READY (1-based), *before* processing it: exactly the
    /// window between collecting votes and broadcasting the decision.
    pub coord_crash_after_ready: Option<(u32, u32)>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workload: WorkloadSpec::default(),
            protocol: Protocol::TwoCm(CertifierMode::Full),
            coordinators: 2,
            net_latency_us: 500,
            net_jitter_us: 200,
            ltm_service_us: 100,
            max_clock_skew_us: 0,
            max_drift_ppm: 0,
            agent: AgentConfig::default(),
            abort_delay_max_us: 800,
            crashes: Vec::new(),
            link_overrides: Vec::new(),
            time_limit: SimTime::from_secs(300),
            faults: None,
            consensus_f: 0,
            coord_crash_after_ready: None,
        }
    }
}

impl SimConfig {
    /// Parse a scenario from `key = value` text (see [`scenario_from_kv`]).
    pub fn from_kv_text(text: &str) -> Result<SimConfig, ConfigError> {
        let mut kv = KvConfig::parse(text)?;
        let cfg = scenario_from_kv(&mut kv)?;
        kv.deny_unused()?;
        Ok(cfg)
    }

    /// Serialize this scenario to `key = value` text (see [`scenario_to_kv`]).
    pub fn to_kv_text(&self) -> Result<String, ConfigError> {
        scenario_to_kv(self)
    }
}

// ----------------------------------------------------------------------
// The shared `key = value` loader
// ----------------------------------------------------------------------

/// A configuration error: parse failure, bad value, or unknown key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// A parsed `key = value` file with consumption tracking: every `get`
/// marks its key used, and [`KvConfig::deny_unused`] turns leftovers into
/// an error so typos cannot silently fall back to defaults.
#[derive(Debug, Clone)]
pub struct KvConfig {
    map: BTreeMap<String, String>,
    used: BTreeSet<String>,
}

impl KvConfig {
    /// Parse `key = value` lines. `#` starts a comment; blank lines are
    /// skipped; duplicate keys are an error.
    pub fn parse(text: &str) -> Result<KvConfig, ConfigError> {
        let mut map = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected `key = value`, got {raw:?}",
                    lineno + 1
                )));
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if key.is_empty() {
                return Err(ConfigError(format!("line {}: empty key", lineno + 1)));
            }
            if map.insert(key.clone(), value).is_some() {
                return Err(ConfigError(format!(
                    "line {}: duplicate key {key:?}",
                    lineno + 1
                )));
            }
        }
        Ok(KvConfig {
            map,
            used: BTreeSet::new(),
        })
    }

    /// The raw value of `key`, marking it used.
    pub fn raw(&mut self, key: &str) -> Option<&str> {
        if self.map.contains_key(key) {
            self.used.insert(key.to_string());
        }
        self.map.get(key).map(|s| s.as_str())
    }

    /// Parse `key` as `T` if present.
    pub fn get<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, ConfigError> {
        self.raw(key).map(|v| parse_value(key, v)).transpose()
    }

    /// Parse `key` as `T`, or keep `current` when absent.
    pub fn get_or<T: FromStr>(&mut self, key: &str, current: T) -> Result<T, ConfigError> {
        Ok(self.get(key)?.unwrap_or(current))
    }

    /// Parse `key` as `T`, erroring when absent.
    pub fn require<T: FromStr>(&mut self, key: &str) -> Result<T, ConfigError> {
        self.get(key)?
            .ok_or_else(|| ConfigError(format!("missing required key {key:?}")))
    }

    /// Keys present but never consumed.
    pub fn unused(&self) -> Vec<String> {
        self.map
            .keys()
            .filter(|k| !self.used.contains(*k))
            .cloned()
            .collect()
    }

    /// Error if any key was never consumed (typo guard).
    pub fn deny_unused(&self) -> Result<(), ConfigError> {
        let leftover = self.unused();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(ConfigError(format!("unknown keys: {leftover:?}")))
        }
    }
}

/// Parse the value `v` of `key` as `T`.
fn parse_value<T: FromStr>(key: &str, v: &str) -> Result<T, ConfigError> {
    v.parse().map_err(|_| {
        ConfigError(format!(
            "key {key:?}: cannot parse {v:?} as {}",
            std::any::type_name::<T>()
        ))
    })
}

/// One scenario key: how it prints (`None` = left out of the file) and how
/// its value is read into the scenario.
struct ScenarioKey {
    name: &'static str,
    print: fn(&SimConfig) -> Option<String>,
    parse: fn(&mut SimConfig, &str) -> Result<(), ConfigError>,
}

/// `key!(name, field)` is a field that prints with `Display` and parses
/// with `FromStr`; `key!(name, field, show, read)` names the two functions.
macro_rules! key {
    ($name:literal, $($field:ident).+) => {
        key!($name, $($field).+, show, parse_value)
    };
    ($name:literal, $($field:ident).+, $show:expr, $read:expr) => {
        ScenarioKey {
            name: $name,
            print: |c| $show(&c.$($field).+),
            parse: |c, v| {
                c.$($field).+ = $read($name, v)?;
                Ok(())
            },
        }
    };
}

fn show<T: ToString>(field: &T) -> Option<String> {
    Some(field.to_string())
}

/// Every scenario key, in the order [`scenario_to_kv`] prints them — the
/// one list [`scenario_from_kv`] reads by as well. All are optional and
/// default to [`SimConfig::default`]. (`faults.profile` is read-only and
/// not in the table: a sampled plan is never written down.)
const SCENARIO_KEYS: &[ScenarioKey] = &[
    key!("seed", workload.seed),
    key!("sites", workload.sites),
    key!("items_per_site", workload.items_per_site),
    key!("initial_value", workload.initial_value),
    key!("global_txns", workload.global_txns),
    key!("mpl", workload.mpl),
    key!("local_txns_per_site", workload.local_txns_per_site),
    key!(
        "sites_per_txn",
        workload.sites_per_txn,
        show_range,
        parse_range
    ),
    key!(
        "commands_per_site",
        workload.commands_per_site,
        show_range,
        parse_range
    ),
    key!("write_fraction", workload.write_fraction),
    key!("range_fraction", workload.range_fraction),
    key!(
        "access",
        workload.access,
        |a| Some(access_key(a)),
        |_, v| parse_access(v)
    ),
    key!("unilateral_abort_prob", workload.unilateral_abort_prob),
    key!("enforce_dlu", workload.enforce_dlu),
    key!("global_arrival_mean_us", workload.global_arrival_mean_us),
    key!(
        "protocol",
        protocol,
        |p: &Protocol| Some(p.key()),
        |_, v| Protocol::parse(v)
    ),
    key!("coordinators", coordinators),
    key!("net_latency_us", net_latency_us),
    key!("net_jitter_us", net_jitter_us),
    key!("ltm_service_us", ltm_service_us),
    key!("max_clock_skew_us", max_clock_skew_us),
    key!("max_drift_ppm", max_drift_ppm),
    key!(
        "agent.alive_check_interval_us",
        agent.alive_check_interval_us
    ),
    key!("abort_delay_max_us", abort_delay_max_us),
    key!(
        "time_limit_us",
        time_limit,
        |t: &SimTime| Some(t.as_micros().to_string()),
        |k, v| parse_value(k, v).map(SimTime::from_micros)
    ),
    key!("consensus.f", consensus_f),
    key!(
        "consensus.crash_coord_after_ready",
        coord_crash_after_ready,
        |o: &Option<(u32, u32)>| o.map(|(c, k)| format!("{c}@{k}")),
        |_, v| parse_crash_coord(v).map(Some)
    ),
    key!("crashes", crashes, show_crashes, |_, v| parse_crashes(v)),
];

/// Read a scenario ([`SimConfig`]) from parsed kv text: every key of
/// [`SCENARIO_KEYS`], plus `faults.profile`, which names a built-in chaos
/// profile (sampled against the scenario's own topology and seed, exactly
/// like the chaos harness does).
pub fn scenario_from_kv(kv: &mut KvConfig) -> Result<SimConfig, ConfigError> {
    let mut cfg = SimConfig::default();
    for key in SCENARIO_KEYS {
        if let Some(v) = kv.raw(key.name) {
            (key.parse)(&mut cfg, v)?;
        }
    }
    // Values with which no run can finish: refused by name at load time
    // rather than as a generator panic or a run that waits out its limit.
    let w = &cfg.workload;
    for (impossible, why) in [
        (w.sites == 0, "sites must be >= 1"),
        (
            w.items_per_site == 0,
            "items_per_site must be >= 1 (every command draws a key below it)",
        ),
        (
            cfg.coordinators == 0,
            "coordinators must be >= 1 (coordinator 0 drives a cluster)",
        ),
        (
            w.mpl == 0 && w.global_txns > 0,
            "mpl must be >= 1 when global_txns > 0 (nothing would be admitted)",
        ),
    ] {
        if impossible {
            return Err(ConfigError(why.into()));
        }
    }
    if cfg.consensus_f > 0 {
        if matches!(cfg.protocol, Protocol::Cgm) {
            return Err(ConfigError(
                "consensus.f > 0 needs the 2CM protocol family (CGM's central \
                 scheduler is its own single point of failure)"
                    .into(),
            ));
        }
        if cfg.coordinators < 2 {
            return Err(ConfigError(
                "consensus.f > 0 needs coordinators >= 2 (a backup must exist to fail over to)"
                    .into(),
            ));
        }
    }
    if let Some(profile) = kv.raw("faults.profile") {
        let profile = crate::chaos::profile_by_name(profile)
            .ok_or_else(|| ConfigError(format!("unknown fault profile {profile:?}")))?;
        cfg.faults = Some(crate::chaos::plan_for(&cfg, &profile));
    }
    Ok(cfg)
}

/// Serialize a scenario to `key = value` text parseable by
/// [`scenario_from_kv`]. Fault plans and per-link latency overrides have
/// no kv representation (plans are sampled, not written down); configs
/// carrying them are rejected so a file round-trip can never silently
/// drop behavior.
pub fn scenario_to_kv(cfg: &SimConfig) -> Result<String, ConfigError> {
    if cfg.faults.is_some() {
        return Err(ConfigError(
            "a sampled fault plan cannot be serialized; set `faults.profile` by name instead"
                .into(),
        ));
    }
    if !cfg.link_overrides.is_empty() {
        return Err(ConfigError(
            "link_overrides have no kv representation".into(),
        ));
    }
    let mut out = String::new();
    for key in SCENARIO_KEYS {
        if let Some(v) = (key.print)(cfg) {
            out.push_str(&format!("{} = {v}\n", key.name));
        }
    }
    Ok(out)
}

fn show_range(r: &(u32, u32)) -> Option<String> {
    Some(format!("{}..{}", r.0, r.1))
}

/// `A<sep>B`, each side trimmed and parsed.
fn pair<A: FromStr, B: FromStr>(s: &str, sep: &str) -> Option<(A, B)> {
    let (a, b) = s.split_once(sep)?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

/// Parse an inclusive `lo..hi` range value.
fn parse_range(key: &str, v: &str) -> Result<(u32, u32), ConfigError> {
    pair(v, "..")
        .filter(|(lo, hi)| lo <= hi)
        .ok_or_else(|| ConfigError(format!("key {key:?}: expected `lo..hi`, got {v:?}")))
}

/// Parse `COORD@K`; the crash hook is 1-based, so `K = 0` is refused.
fn parse_crash_coord(spec: &str) -> Result<(u32, u32), ConfigError> {
    pair(spec, "@").filter(|&(_, k)| k != 0).ok_or_else(|| {
        ConfigError(format!(
            "bad consensus.crash_coord_after_ready {spec:?} (want COORD@K)"
        ))
    })
}

fn parse_access(s: &str) -> Result<AccessPattern, ConfigError> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["uniform"] => Ok(AccessPattern::Uniform),
        ["zipf", theta] => theta
            .parse()
            .map(AccessPattern::Zipf)
            .map_err(|_| ConfigError(format!("bad zipf exponent {theta:?}"))),
        ["hotspot", frac, prob] => {
            let hot_frac = frac
                .parse()
                .map_err(|_| ConfigError(format!("bad hotspot fraction {frac:?}")))?;
            let hot_prob = prob
                .parse()
                .map_err(|_| ConfigError(format!("bad hotspot probability {prob:?}")))?;
            Ok(AccessPattern::Hotspot { hot_frac, hot_prob })
        }
        _ => Err(ConfigError(format!(
            "bad access pattern {s:?} (uniform | zipf:THETA | hotspot:FRAC:PROB)"
        ))),
    }
}

fn access_key(a: &AccessPattern) -> String {
    match a {
        AccessPattern::Uniform => "uniform".into(),
        AccessPattern::Zipf(theta) => format!("zipf:{theta}"),
        AccessPattern::Hotspot { hot_frac, hot_prob } => {
            format!("hotspot:{hot_frac}:{hot_prob}")
        }
    }
}

fn show_crashes(crashes: &[(u32, u64)]) -> Option<String> {
    let list: Vec<String> = crashes.iter().map(|(s, at)| format!("{s}@{at}")).collect();
    (!list.is_empty()).then(|| list.join(","))
}

fn parse_crashes(s: &str) -> Result<Vec<(u32, u64)>, ConfigError> {
    s.split(',')
        .map(|entry| {
            pair(entry, "@")
                .ok_or_else(|| ConfigError(format!("bad crash entry {entry:?} (want SITE@AT_US)")))
        })
        .collect()
}

// ----------------------------------------------------------------------
// Cluster configuration (mdbs-node)
// ----------------------------------------------------------------------

/// The role one `mdbs-node` process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// A participating site (LDBS + 2PC Agent), `node = site id`.
    Site(u32),
    /// A coordinator, `node = COORD_BASE + i`. Coordinator 0 doubles as
    /// the cluster driver: it admits the workload and collects reports.
    Coordinator(u32),
    /// The CGM central scheduler (only for `protocol = cgm`).
    Central,
    /// A Paxos Commit acceptor, `node = ACCEPTOR_BASE + i` (only for
    /// `consensus.f > 0`).
    Acceptor(u32),
}

impl NodeRole {
    /// Parse `site:N`, `coord:N`, `acceptor:N`, or `central`.
    pub fn parse(s: &str) -> Result<NodeRole, ConfigError> {
        let err = || {
            ConfigError(format!(
                "bad role {s:?} (site:N | coord:N | acceptor:N | central)"
            ))
        };
        match s.split_once(':') {
            None if s == "central" => Ok(NodeRole::Central),
            Some(("site", n)) => n.parse().map(NodeRole::Site).map_err(|_| err()),
            Some(("coord", n)) => n.parse().map(NodeRole::Coordinator).map_err(|_| err()),
            Some(("acceptor", n)) => n.parse().map(NodeRole::Acceptor).map_err(|_| err()),
            _ => Err(err()),
        }
    }

    /// The runtime node id this role lives at.
    pub fn node_id(&self) -> u32 {
        match *self {
            NodeRole::Site(s) => s,
            NodeRole::Coordinator(c) => mdbs_runtime::COORD_BASE + c,
            NodeRole::Central => mdbs_runtime::CENTRAL,
            NodeRole::Acceptor(a) => mdbs_runtime::ACCEPTOR_BASE + a,
        }
    }

    /// Display form, matching the [`Self::parse`] syntax.
    pub fn key(&self) -> String {
        match *self {
            NodeRole::Site(s) => format!("site:{s}"),
            NodeRole::Coordinator(c) => format!("coord:{c}"),
            NodeRole::Central => "central".into(),
            NodeRole::Acceptor(a) => format!("acceptor:{a}"),
        }
    }
}

/// A full cluster description: the scenario plus one listen address per
/// node and the transport knobs (the transport's outbox size and reconnect
/// backoff are constants of `mdbs-net`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// The scenario every node runs its slice of.
    pub scenario: SimConfig,
    /// Listen address per site, indexed by site id.
    pub site_addrs: Vec<String>,
    /// Listen address per coordinator, indexed by coordinator number.
    pub coord_addrs: Vec<String>,
    /// Listen address of the CGM central scheduler, when the protocol
    /// needs one.
    pub central_addr: Option<String>,
    /// Listen address per Paxos Commit acceptor, indexed by acceptor
    /// number — exactly `2F+1` of them when `consensus.f = F > 0`, else
    /// empty.
    pub acceptor_addrs: Vec<String>,
    /// Most messages one wire frame may coalesce; 1 disables batching
    /// (every message rides its own v1 frame, as before the batch
    /// envelope existed). A key because 1 is the reference side of the
    /// batching differential: batched and unbatched clusters must produce
    /// the same digests.
    pub batch_max: usize,
    /// Ceiling of the adaptive group-flush deadline in microseconds; 0
    /// (the default) flushes every batch as soon as the outbox runs dry —
    /// the node loop already hands the writer one group per burst. A key
    /// until the ledger stops setting the transport's field (ROADMAP items
    /// 1(e) and 12(i)).
    pub flush_deadline_us: u64,
    /// Test hook: `(node, message_count)` — the node severs its outbound
    /// sockets once after sending `message_count` messages (counted
    /// across batches), forcing the reconnect + retransmission path
    /// mid-run.
    pub test_drop: Vec<(u32, u64)>,
}

impl ClusterConfig {
    /// Parse a cluster file: the scenario keys plus `node.site.N.addr`,
    /// `node.coord.N.addr`, `node.central.addr` and `net.*` knobs.
    pub fn from_kv_text(text: &str) -> Result<ClusterConfig, ConfigError> {
        let mut kv = KvConfig::parse(text)?;
        let scenario = scenario_from_kv(&mut kv)?;
        let mut site_addrs = Vec::new();
        for s in 0..scenario.workload.sites {
            site_addrs.push(kv.require::<String>(&format!("node.site.{s}.addr"))?);
        }
        let mut coord_addrs = Vec::new();
        for c in 0..scenario.coordinators {
            coord_addrs.push(kv.require::<String>(&format!("node.coord.{c}.addr"))?);
        }
        let central_addr = kv.get::<String>("node.central.addr")?;
        if matches!(scenario.protocol, Protocol::Cgm) && central_addr.is_none() {
            return Err(ConfigError("protocol cgm needs node.central.addr".into()));
        }
        let mut acceptor_addrs = Vec::new();
        if scenario.consensus_f > 0 {
            for a in 0..mdbs_consensus::acceptor_count(scenario.consensus_f) {
                acceptor_addrs.push(kv.require::<String>(&format!("node.acceptor.{a}.addr"))?);
            }
        }
        let batch_max = kv.get_or("net.batch_max", 256usize)?;
        if batch_max == 0 {
            return Err(ConfigError("net.batch_max must be >= 1".into()));
        }
        let flush_deadline_us = kv.get_or("net.flush_deadline_us", 0u64)?;
        let test_drop = match kv.raw("net.test_drop") {
            None => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|entry| {
                    pair(entry, "@").ok_or_else(|| {
                        ConfigError(format!("bad net.test_drop entry {entry:?} (NODE@FRAMES)"))
                    })
                })
                .collect::<Result<Vec<(u32, u64)>, ConfigError>>()?,
        };
        kv.deny_unused()?;
        Ok(ClusterConfig {
            scenario,
            site_addrs,
            coord_addrs,
            central_addr,
            acceptor_addrs,
            batch_max,
            flush_deadline_us,
            test_drop,
        })
    }

    /// Serialize to the file format [`Self::from_kv_text`] parses.
    pub fn to_kv_text(&self) -> Result<String, ConfigError> {
        let mut out = scenario_to_kv(&self.scenario)?;
        for (s, addr) in self.site_addrs.iter().enumerate() {
            out.push_str(&format!("node.site.{s}.addr = {addr}\n"));
        }
        for (c, addr) in self.coord_addrs.iter().enumerate() {
            out.push_str(&format!("node.coord.{c}.addr = {addr}\n"));
        }
        if let Some(addr) = &self.central_addr {
            out.push_str(&format!("node.central.addr = {addr}\n"));
        }
        for (a, addr) in self.acceptor_addrs.iter().enumerate() {
            out.push_str(&format!("node.acceptor.{a}.addr = {addr}\n"));
        }
        out.push_str(&format!("net.batch_max = {}\n", self.batch_max));
        out.push_str(&format!(
            "net.flush_deadline_us = {}\n",
            self.flush_deadline_us
        ));
        if !self.test_drop.is_empty() {
            let list: Vec<String> = self
                .test_drop
                .iter()
                .map(|(n, f)| format!("{n}@{f}"))
                .collect();
            out.push_str(&format!("net.test_drop = {}\n", list.join(",")));
        }
        Ok(out)
    }

    /// The listen address of a runtime node id, if configured.
    pub fn addr_of(&self, node: u32) -> Option<&str> {
        use mdbs_runtime::{ACCEPTOR_BASE, CENTRAL, COORD_BASE};
        if node == CENTRAL {
            return self.central_addr.as_deref();
        }
        if node >= ACCEPTOR_BASE {
            return self
                .acceptor_addrs
                .get((node - ACCEPTOR_BASE) as usize)
                .map(|s| s.as_str());
        }
        if node >= COORD_BASE {
            return self
                .coord_addrs
                .get((node - COORD_BASE) as usize)
                .map(|s| s.as_str());
        }
        self.site_addrs.get(node as usize).map(|s| s.as_str())
    }

    /// Every runtime node id in this cluster (sites, coordinators,
    /// central, acceptors), in canonical order.
    pub fn node_ids(&self) -> Vec<u32> {
        use mdbs_runtime::{ACCEPTOR_BASE, CENTRAL, COORD_BASE};
        let mut ids: Vec<u32> = (0..self.site_addrs.len() as u32).collect();
        ids.extend((0..self.coord_addrs.len() as u32).map(|c| COORD_BASE + c));
        if self.central_addr.is_some() {
            ids.push(CENTRAL);
        }
        ids.extend((0..self.acceptor_addrs.len() as u32).map(|a| ACCEPTOR_BASE + a));
        ids
    }

    /// The runtime node ids of every acceptor in this cluster.
    pub fn acceptor_nodes(&self) -> Vec<u32> {
        (0..self.acceptor_addrs.len() as u32)
            .map(|a| mdbs_runtime::ACCEPTOR_BASE + a)
            .collect()
    }

    /// The roles of this cluster, in canonical order (sites, coords,
    /// central, acceptors) — one `mdbs-node` process each.
    pub fn roles(&self) -> Vec<NodeRole> {
        let mut roles: Vec<NodeRole> = (0..self.site_addrs.len() as u32)
            .map(NodeRole::Site)
            .collect();
        roles.extend((0..self.coord_addrs.len() as u32).map(NodeRole::Coordinator));
        if self.central_addr.is_some() {
            roles.push(NodeRole::Central);
        }
        roles.extend((0..self.acceptor_addrs.len() as u32).map(NodeRole::Acceptor));
        roles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Protocol::TwoCm(CertifierMode::Full).label(), "2CM");
        assert_eq!(Protocol::Cgm.label(), "CGM");
        assert_eq!(
            Protocol::TwoCm(CertifierMode::TicketOrder).label(),
            "Ticket"
        );
    }

    #[test]
    fn cgm_agents_run_uncertified() {
        assert_eq!(Protocol::Cgm.agent_mode(), CertifierMode::NoCertification);
        assert_eq!(
            Protocol::TwoCm(CertifierMode::Full).agent_mode(),
            CertifierMode::Full
        );
    }

    #[test]
    fn default_config_sane() {
        let c = SimConfig::default();
        assert!(c.coordinators >= 1);
    }

    #[test]
    fn protocol_keys_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(&p.key()).unwrap(), p);
            // Exhaustive on purpose: a new mode stops compiling here until
            // it is listed in `Protocol::ALL` (and so round-trips above).
            match p {
                Protocol::TwoCm(
                    CertifierMode::Full
                    | CertifierMode::NoCertification
                    | CertifierMode::PrepareCertOnly
                    | CertifierMode::PrepareOrder
                    | CertifierMode::TicketOrder,
                )
                | Protocol::Cgm => {}
            }
        }
        assert!(Protocol::parse("three-phase").is_err());
    }

    #[test]
    fn kv_parse_comments_blank_lines_and_trim() {
        let mut kv =
            KvConfig::parse("# a comment\n\n  seed = 9  # trailing comment\nprotocol=cgm\n")
                .unwrap();
        assert_eq!(kv.get::<u64>("seed").unwrap(), Some(9));
        assert_eq!(kv.raw("protocol"), Some("cgm"));
        kv.deny_unused().unwrap();
    }

    #[test]
    fn kv_rejects_duplicates_bad_lines_and_unknown_keys() {
        assert!(KvConfig::parse("a = 1\na = 2\n").is_err());
        assert!(KvConfig::parse("just words\n").is_err());
        let kv = KvConfig::parse("tpyo = 1\n").unwrap();
        let err = kv.deny_unused().unwrap_err();
        assert!(err.0.contains("tpyo"), "{err}");
    }

    #[test]
    fn kv_value_errors_name_the_key() {
        let mut kv = KvConfig::parse("sites = many\n").unwrap();
        let err = scenario_from_kv(&mut kv).unwrap_err();
        assert!(err.0.contains("sites"), "{err}");
    }

    #[test]
    fn scenario_kv_round_trips_defaults_and_overrides() {
        let mut cfg = SimConfig::default();
        assert_eq!(
            SimConfig::from_kv_text(&cfg.to_kv_text().unwrap()).unwrap(),
            cfg
        );
        cfg.workload.seed = 77;
        cfg.workload.sites = 4;
        cfg.workload.sites_per_txn = (2, 3);
        cfg.workload.access = AccessPattern::Hotspot {
            hot_frac: 0.1,
            hot_prob: 0.9,
        };
        cfg.protocol = Protocol::Cgm;
        cfg.coordinators = 3;
        // Every field, spelled out, so a new one cannot be left out of the
        // kv format unnoticed.
        cfg.agent = mdbs_dtm::AgentConfig {
            // Not a key: `protocol` decides the mode wherever an agent is
            // built (`effective_agent_cfg`).
            mode: cfg.agent.mode,
            alive_check_interval_us: 1_111,
        };
        cfg.crashes = vec![(1, 20_000), (2, 40_000)];
        cfg.time_limit = SimTime::from_secs(60);
        cfg.coord_crash_after_ready = Some((1, 2));
        let text = cfg.to_kv_text().unwrap();
        assert_eq!(SimConfig::from_kv_text(&text).unwrap(), cfg);
        // Key by key: the file is the table, in the table's order, and each
        // printed value read alone lands in the field it came from.
        assert_eq!(text.lines().count(), SCENARIO_KEYS.len());
        for (line, key) in text.lines().zip(SCENARIO_KEYS) {
            let value = (key.print)(&cfg).unwrap();
            assert_eq!(line, format!("{} = {value}", key.name));
            let mut alone = SimConfig::default();
            (key.parse)(&mut alone, &value).unwrap();
            assert_eq!((key.print)(&alone), Some(value), "{}", key.name);
        }
    }

    #[test]
    fn scenarios_no_run_can_finish_are_refused_by_name() {
        for (text, key) in [
            ("sites = 0\n", "sites"),
            ("items_per_site = 0\n", "items_per_site"),
            ("coordinators = 0\n", "coordinators"),
            ("mpl = 0\n", "mpl"),
        ] {
            let err = SimConfig::from_kv_text(text).unwrap_err();
            assert!(err.0.starts_with(key), "{text:?}: {err}");
        }
        // Nothing to admit, nothing to wait for.
        assert!(SimConfig::from_kv_text("mpl = 0\nglobal_txns = 0\n").is_ok());
    }

    #[test]
    fn scenario_empty_text_is_default() {
        assert_eq!(SimConfig::from_kv_text("").unwrap(), SimConfig::default());
    }

    #[test]
    fn scenario_fault_profile_matches_chaos_harness() {
        let cfg = SimConfig::from_kv_text("seed = 11\nfaults.profile = dup-burst\n").unwrap();
        let plan = cfg.faults.expect("profile sampled into a plan");
        let mut bare = SimConfig::default();
        bare.workload.seed = 11;
        assert_eq!(
            plan,
            crate::chaos::plan_for(&bare, &crate::chaos::dup_burst())
        );
        assert!(SimConfig::from_kv_text("faults.profile = nope\n").is_err());
    }

    #[test]
    fn sampled_plans_refuse_to_serialize() {
        let cfg = SimConfig::from_kv_text("faults.profile = delay-storm\n").unwrap();
        assert!(cfg.to_kv_text().is_err());
    }

    fn cluster_text() -> String {
        "sites = 2\ncoordinators = 1\n\
         node.site.0.addr = 127.0.0.1:7100\n\
         node.site.1.addr = 127.0.0.1:7101\n\
         node.coord.0.addr = 127.0.0.1:7200\n"
            .to_string()
    }

    #[test]
    fn cluster_config_round_trips() {
        let c = ClusterConfig::from_kv_text(&cluster_text()).unwrap();
        assert_eq!(c.site_addrs.len(), 2);
        assert_eq!(c.coord_addrs.len(), 1);
        assert_eq!(c.central_addr, None);
        assert_eq!(
            ClusterConfig::from_kv_text(&c.to_kv_text().unwrap()).unwrap(),
            c
        );
        assert_eq!(c.addr_of(1), Some("127.0.0.1:7101"));
        assert_eq!(c.addr_of(mdbs_runtime::COORD_BASE), Some("127.0.0.1:7200"));
        assert_eq!(c.addr_of(mdbs_runtime::CENTRAL), None);
        assert_eq!(c.node_ids(), vec![0, 1, mdbs_runtime::COORD_BASE]);
        assert_eq!(
            c.roles(),
            vec![
                NodeRole::Site(0),
                NodeRole::Site(1),
                NodeRole::Coordinator(0)
            ]
        );
    }

    #[test]
    fn cluster_config_requires_every_address() {
        let missing = "sites = 2\ncoordinators = 1\n\
                       node.site.0.addr = 127.0.0.1:7100\n\
                       node.coord.0.addr = 127.0.0.1:7200\n";
        let err = ClusterConfig::from_kv_text(missing).unwrap_err();
        assert!(err.0.contains("node.site.1.addr"), "{err}");
    }

    #[test]
    fn cluster_config_cgm_needs_central() {
        let text = format!("{}protocol = cgm\n", cluster_text());
        assert!(ClusterConfig::from_kv_text(&text).is_err());
        let text = format!("{text}node.central.addr = 127.0.0.1:7300\n");
        let c = ClusterConfig::from_kv_text(&text).unwrap();
        assert_eq!(c.addr_of(mdbs_runtime::CENTRAL), Some("127.0.0.1:7300"));
        assert_eq!(c.roles().last(), Some(&NodeRole::Central));
    }

    #[test]
    fn cluster_test_drop_and_knobs_parse() {
        let text = format!(
            "{}net.batch_max = 16\nnet.flush_deadline_us = 50\n\
             net.test_drop = 0@10,1000000@3\n",
            cluster_text()
        );
        let c = ClusterConfig::from_kv_text(&text).unwrap();
        assert_eq!(c.batch_max, 16);
        assert_eq!(c.flush_deadline_us, 50);
        assert_eq!(c.test_drop, vec![(0, 10), (1_000_000, 3)]);
        assert_eq!(
            ClusterConfig::from_kv_text(&c.to_kv_text().unwrap()).unwrap(),
            c
        );
        // Defaults: batching on, no writer-side wait for more traffic.
        let c = ClusterConfig::from_kv_text(&cluster_text()).unwrap();
        assert_eq!((c.batch_max, c.flush_deadline_us), (256, 0));
        // batch_max 0 would make every frame empty; rejected outright.
        let text = format!("{}net.batch_max = 0\n", cluster_text());
        assert!(ClusterConfig::from_kv_text(&text).is_err());
    }

    #[test]
    fn consensus_kv_round_trips_and_validates() {
        let cfg = SimConfig {
            consensus_f: 1,
            coord_crash_after_ready: Some((1, 2)),
            ..SimConfig::default()
        };
        assert_eq!(
            SimConfig::from_kv_text(&cfg.to_kv_text().unwrap()).unwrap(),
            cfg
        );
        // F > 0 needs a backup coordinator to fail over to...
        let err = SimConfig::from_kv_text("consensus.f = 1\ncoordinators = 1\n").unwrap_err();
        assert!(err.0.contains("coordinators"), "{err}");
        // ...and the decentralized protocol family (CGM is centralized).
        let err = SimConfig::from_kv_text("consensus.f = 1\nprotocol = cgm\n").unwrap_err();
        assert!(err.0.contains("2CM"), "{err}");
        // The crash hook is 1-based: crash-on-0th-READY is meaningless.
        assert!(SimConfig::from_kv_text("consensus.crash_coord_after_ready = 1@0\n").is_err());
        assert!(SimConfig::from_kv_text("consensus.crash_coord_after_ready = oops\n").is_err());
    }

    #[test]
    fn cluster_config_acceptors_require_addresses() {
        let text = format!("{}consensus.f = 1\ncoordinators = 2\n", cluster_text());
        let text = text.replace("coordinators = 1\n", "");
        let text = format!("{text}node.coord.1.addr = 127.0.0.1:7201\n");
        // 2F+1 = 3 acceptor addresses are required...
        let err = ClusterConfig::from_kv_text(&text).unwrap_err();
        assert!(err.0.contains("node.acceptor.0.addr"), "{err}");
        let text = format!(
            "{text}node.acceptor.0.addr = 127.0.0.1:7300\n\
             node.acceptor.1.addr = 127.0.0.1:7301\n\
             node.acceptor.2.addr = 127.0.0.1:7302\n"
        );
        let c = ClusterConfig::from_kv_text(&text).unwrap();
        assert_eq!(c.acceptor_addrs.len(), 3);
        let base = mdbs_runtime::ACCEPTOR_BASE;
        assert_eq!(c.acceptor_nodes(), vec![base, base + 1, base + 2]);
        assert_eq!(c.addr_of(base + 2), Some("127.0.0.1:7302"));
        assert_eq!(c.roles().last(), Some(&NodeRole::Acceptor(2)));
        assert_eq!(c.node_ids().last(), Some(&(base + 2)));
        // ...and round-trip through the file format.
        assert_eq!(
            ClusterConfig::from_kv_text(&c.to_kv_text().unwrap()).unwrap(),
            c
        );
    }

    #[test]
    fn node_role_parse_round_trips() {
        for r in [
            NodeRole::Site(2),
            NodeRole::Coordinator(1),
            NodeRole::Central,
            NodeRole::Acceptor(2),
        ] {
            assert_eq!(NodeRole::parse(&r.key()).unwrap(), r);
        }
        assert!(NodeRole::parse("site:x").is_err());
        assert!(NodeRole::parse("boss").is_err());
        assert_eq!(NodeRole::Site(3).node_id(), 3);
        assert_eq!(
            NodeRole::Coordinator(2).node_id(),
            mdbs_runtime::COORD_BASE + 2
        );
        assert_eq!(NodeRole::Central.node_id(), mdbs_runtime::CENTRAL);
        assert_eq!(
            NodeRole::Acceptor(1).node_id(),
            mdbs_runtime::ACCEPTOR_BASE + 1
        );
    }
}
