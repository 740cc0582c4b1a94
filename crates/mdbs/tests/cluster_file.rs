//! Cluster files written for earlier versions of the workspace.

use mdbs_sim::ClusterConfig;

/// PR 18 deleted two certifier knobs. A cluster file that still sets one —
/// even to its old default — is refused by name rather than silently run
/// without it.
#[test]
fn a_cluster_file_naming_a_deleted_certifier_knob_is_refused() {
    let current = "sites = 1\ncoordinators = 1\n\
                   node.site.0.addr = 127.0.0.1:7100\n\
                   node.coord.0.addr = 127.0.0.1:7200\n";
    ClusterConfig::from_kv_text(current).expect("the file without the knob parses");
    for stale in ["agent.cert_shards", "agent.stored_intervals"] {
        let err = ClusterConfig::from_kv_text(&format!("{current}{stale} = 1\n")).unwrap_err();
        assert!(
            err.0.contains("unknown keys") && err.0.contains(stale),
            "{err}"
        );
    }
}
