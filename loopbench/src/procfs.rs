//! Readers for the `/proc` figures the benchmark reports: process and
//! thread CPU time, peak resident memory, and the host's steal share.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const USER_HZ: u64 = 100;

/// User+system CPU of a whole process (exited threads included), in ns.
/// Resolution is one clock tick (10 ms).
pub fn process_cpu_ns(pid: u32) -> u64 {
    stat_cpu_ns(&format!("/proc/{pid}/stat"))
}

/// User+system CPU of the calling process, in ns.
pub fn self_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/self/stat")
}

fn stat_cpu_ns(path: &str) -> u64 {
    let Ok(text) = fs::read_to_string(path) else {
        return 0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the man page, utime 14, stime 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * (1_000_000_000 / USER_HZ)
}

/// Summed on-CPU nanoseconds (`schedstat`) of the process's live threads
/// whose name starts with `prefix` (every thread for an empty prefix).
pub fn threads_cpu_ns(pid: u32, prefix: &str) -> u64 {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    let mut total = 0;
    for entry in dir.flatten() {
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        let sched = fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        total += sched
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = text.lines().next().unwrap_or("");
        let ticks: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted inside user.
        HostTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().take(8).sum(),
        }
    }

    /// Share of all CPU ticks since `earlier` that the hypervisor stole.
    pub fn steal_frac_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
