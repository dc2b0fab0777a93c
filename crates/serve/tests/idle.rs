//! An idle service costs nothing: its threads block until there is
//! work, a worker to replace, or a drain — none of them polls. A binary
//! of its own, so no other test's threads add to the process's CPU time.

#![cfg(target_os = "linux")]

use pic_serve::{ServeConfig, Server};
use std::thread;
use std::time::Duration;

/// CPU time this process has used so far, user + system, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`; the ones after the command
/// name, which may itself contain spaces).
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = stat.rsplit_once(')').expect("comm field").1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("tick count");
    // `after_comm` starts at field 3 (state).
    tick(14 - 3) + tick(15 - 3)
}

#[test]
fn an_idle_two_worker_service_uses_no_cpu() {
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "idle-test");
    // Let the pool start before the reading.
    thread::sleep(Duration::from_millis(100));
    let before = process_cpu_ticks();
    thread::sleep(Duration::from_secs(2));
    let used = process_cpu_ticks() - before;
    server.shutdown();
    // A tick is 10 ms (USER_HZ = 100, fixed in the kernel ABI): under
    // 20 ms is at most one tick. Three threads polling every 200 µs
    // read 20.
    assert!(used <= 1, "idle for 2 s used {used} clock ticks of CPU");
}
