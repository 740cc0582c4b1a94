//! Where a BENCH_*.json snapshot was measured: included with `#[path]` by
//! the benches that write one.

use std::process::Command;

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git describe --always --dirty` of the checkout the bench was built from.
pub fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
