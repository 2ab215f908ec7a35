//! Process-wide CPU time and peak resident memory, read from `/proc`.

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has reported 100 on every architecture since 2.6 (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU time this process (all threads) has consumed.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime field")
    };
    Duration::from_secs_f64((ticks() + ticks()) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_time();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time() > before);
        assert!(peak_rss_mib() > 1.0);
    }
}
