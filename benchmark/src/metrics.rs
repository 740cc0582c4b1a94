//! The metric names and units of the ledger, exactly as `BENCHMARK.json`
//! declares them, and the list a run fills in.

/// `(name, unit)` of every end-to-end metric; an untraced run reports
/// exactly these, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("committed_txn_per_s", "1/s"),
    ("committed_share", "ratio"),
    ("msgs_per_committed_global", "count"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric (prefix = crate); a traced
/// run reports exactly these, on every workload. A layer that is not on a
/// workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("histories.analyze_s", "s"),
    ("histories.site_projection_s", "s"),
    ("histories.rigor_s", "s"),
    ("histories.committed_projection_s", "s"),
    ("histories.commit_graph_s", "s"),
    ("histories.distortion_s", "s"),
    ("histories.analyze_share", "ratio"),
    ("histories.ops_per_episode", "count"),
    ("histories.committed_txns_per_episode", "count"),
    ("mdbs.new_s", "s"),
    ("mdbs.run_s", "s"),
    ("mdbs.drive_s", "s"),
    ("mdbs.drive_us_per_txn", "us"),
    ("mdbs.sim_commit_latency_p50_ms", "ms"),
    ("mdbs.sim_commit_latency_p95_ms", "ms"),
    ("mdbs.sim_finished_at_ms", "ms"),
    ("workload.predraw_s", "s"),
    ("simkit.event_ns", "ns"),
    ("core.prepares_accepted", "count"),
    ("core.refused_interval_disjoint", "count"),
    ("core.refused_sn_out_of_order", "count"),
    ("core.refused_not_alive", "count"),
    ("core.prepare_accept_ratio", "ratio"),
    ("core.resubmissions", "count"),
    ("core.commit_retries", "count"),
    ("core.commit_cert_overrides", "count"),
    ("core.agent_cycle_ns", "ns"),
    ("core.cert_admission_ns_10k", "ns"),
    ("ldbs.lock_cycle_ns", "ns"),
    ("ldbs.txn_cycle_ns", "ns"),
    ("ldbs.deadlock_victims", "count"),
    ("ldbs.wait_timeouts", "count"),
    ("ldbs.injected_unilateral_aborts", "count"),
    ("consensus.acceptor_ns_per_msg", "ns"),
    ("consensus.sim_msgs_per_commit_f0", "count"),
    ("consensus.sim_msgs_per_commit_f1", "count"),
    ("net.codec_encode_ns_per_msg", "ns"),
    ("net.codec_decode_ns_per_msg", "ns"),
    ("net.frame_ns_per_msg", "ns"),
    ("net.bytes_per_msg", "B"),
    ("net.tcp_pair_msgs_per_s", "1/s"),
    ("net.frames_sent", "count"),
    ("net.msgs_sent", "count"),
    ("net.msgs_per_frame", "ratio"),
    ("net.batches_sent", "count"),
    ("net.connects", "count"),
    ("net.decode_errors", "count"),
    ("proc.cpu_us_per_committed_txn", "us"),
    ("proc.cpu_utilisation", "ratio"),
    ("proc.probe_overhead_share", "ratio"),
];

/// One reported value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles, sample counts and the like, for the human-readable line.
    pub note: String,
}

/// The values of one run, checked against a declared table.
pub struct Ledger {
    table: &'static [(&'static str, &'static str)],
    metrics: Vec<Metric>,
}

impl Ledger {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Ledger {
        Ledger {
            table,
            metrics: Vec::new(),
        }
    }

    /// Record `name`; panics on a name the table does not declare, on a
    /// repeat, and on a value JSON cannot carry.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "{name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note: note.into(),
        });
    }

    /// Every declared metric, in table order; panics if one is missing.
    pub fn finish(mut self) -> Vec<Metric> {
        let order = |m: &Metric| self.table.iter().position(|(n, _)| *n == m.name);
        self.metrics.sort_by_key(order);
        let missing: Vec<&str> = self
            .table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.metrics.iter().all(|m| m.name != *n))
            .collect();
        assert!(missing.is_empty(), "metrics never reported: {missing:?}");
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The `"name": "…"` (and, for metrics, `"unit": "…"`) values of one
    /// top-level array of `BENCHMARK.json`, in file order.
    fn declared(json: &str, section: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("closing bracket")];
        let pat = format!("\"{key}\": \"");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &body[i + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn names_and_units_match_benchmark_json_exactly() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared(json, "workloads", "name"), names);
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let (names, units): (Vec<&str>, Vec<&str>) = table.iter().copied().unzip();
            assert_eq!(declared(json, section, "name"), names, "{section}");
            assert_eq!(declared(json, section, "unit"), units, "{section}");
        }
    }

    #[test]
    fn names_use_the_allowed_alphabet_once() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n));
        assert!(all.iter().all(|n| ok(n)), "{all:?}");
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    #[should_panic(expected = "metrics never reported")]
    fn a_missing_metric_is_a_bug() {
        let mut l = Ledger::new(END_TO_END);
        l.set("setup_s", 1.0, "");
        l.finish();
    }
}
