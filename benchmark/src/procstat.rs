//! CPU time and peak memory of the harness and its worker children,
//! read from `/proc` (Linux only, like the rest of the serving stack's
//! process tests).

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has reported `USER_HZ = 100` on every architecture for two decades;
/// reading it properly needs `sysconf`, i.e. a libc binding the offline
/// build does not have.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU milliseconds consumed so far by process `pid`
/// (all its threads), or `None` if the process is gone.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces and parentheses; the
    // fixed-format fields start after the *last* ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, or `None` if the
/// process is gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-resident-set mark (`VmHWM`), so that a
/// workload run after another in one process reports its own peak. Best
/// effort: where the kernel refuses, the mark simply stays.
pub fn reset_own_peak_rss() {
    // "5" = clear the peak RSS mark only (proc(5), clear_refs).
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The processes whose cost a workload is charged for: the harness
/// itself plus any `spq-worker` children.
#[derive(Debug, Clone)]
pub struct ProcessSet {
    pids: Vec<u32>,
}

impl ProcessSet {
    /// The harness process plus `children`.
    pub fn with_children(children: &[u32]) -> Self {
        let mut pids = vec![std::process::id()];
        pids.extend_from_slice(children);
        Self { pids }
    }

    /// Summed CPU milliseconds so far. A child that already exited
    /// contributes nothing — by then its answers have failed the
    /// correctness check anyway.
    pub fn cpu_ms(&self) -> f64 {
        self.pids.iter().filter_map(|&p| cpu_ms(p)).sum()
    }

    /// Summed peak resident set in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids.iter().filter_map(|&p| peak_rss_mb(p)).sum()
    }
}
