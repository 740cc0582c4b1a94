//! Cluster files written for earlier versions of the workspace.

use mdbs_sim::ClusterConfig;

/// Each `key = value` line, appended to an otherwise valid cluster file, is
/// refused by name rather than silently run without it.
fn assert_each_refused(stale: &[&str]) {
    let current = "sites = 1\ncoordinators = 1\n\
                   node.site.0.addr = 127.0.0.1:7100\n\
                   node.coord.0.addr = 127.0.0.1:7200\n";
    ClusterConfig::from_kv_text(current).expect("the file without the knob parses");
    for line in stale {
        let err = ClusterConfig::from_kv_text(&format!("{current}{line}\n")).unwrap_err();
        let key = line.split(' ').next().expect("a key");
        assert!(
            err.0.contains("unknown keys") && err.0.contains(key),
            "{line}: {err}"
        );
    }
}

/// PR 18 deleted two certifier knobs, refused even at their old default.
#[test]
fn a_cluster_file_naming_a_deleted_certifier_knob_is_refused() {
    assert_each_refused(&["agent.cert_shards = 1", "agent.stored_intervals = 1"]);
}

/// PR 21 turned ten settings nothing ran at another value into constants;
/// each is refused at its old default.
#[test]
fn a_cluster_file_naming_a_setting_that_became_a_constant_is_refused() {
    assert_each_refused(&[
        "range_span = 4",
        "local_arrival_mean_us = 2000",
        "deadlock_scan_us = 5000",
        "wait_timeout_us = 400000",
        "consensus.failover_delay_us = 50000",
        "agent.max_commit_retries = 1000000",
        "agent.done_cap = 0",
        "net.outbox_capacity = 1024",
        "net.backoff_initial_ms = 10",
        "net.backoff_max_ms = 1000",
    ]);
}

/// The commit-retry timer is gone: the alive tick retries a held COMMIT,
/// so its period is refused even at its old default.
#[test]
fn a_cluster_file_naming_the_deleted_commit_retry_period_is_refused() {
    assert_each_refused(&["agent.commit_retry_interval_us = 5000"]);
}
