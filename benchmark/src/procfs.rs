//! Process CPU time, peak memory and machine facts, read from `/proc`
//! and `/sys` (no libc: the workspace forbids `unsafe`).

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc;
/// Linux has reported 100 on every architecture since 2.6.
const CLK_TCK: u64 = 100;

/// CPU time (user + system) this process has consumed, all threads
/// including exited ones, in nanoseconds. Resolution is one tick (10 ms),
/// which is why CPU is only ever taken over phases of several seconds.
pub fn cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime are integers")
    };
    (tick() + tick()) * (1_000_000_000 / CLK_TCK)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line in kB");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Cache sizes of cpu0 as the kernel reports them, e.g. `L2 4096K`.
pub fn cache_summary() -> String {
    let mut parts = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        if kind != "Instruction" {
            parts.push(format!("L{level} {size}"));
        }
    }
    if parts.is_empty() {
        "unknown".to_owned()
    } else {
        parts.join(", ")
    }
}
