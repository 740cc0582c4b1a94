//! Process-level readings from `/proc/self`.

use std::fs;

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_s() -> f64 {
    // USER_HZ, the unit of the `utime`/`stime` fields, is 100 on every
    // Linux ABI this repository builds for.
    const USER_HZ: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields are counted after the parenthesised command name, which may
    // itself hold spaces: utime and stime are fields 14 and 15 overall.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (ticks() + ticks()) / USER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_s();
        let mut x = 0u64;
        while cpu_s() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        assert!(std::hint::black_box(x) > 0);
    }
}
