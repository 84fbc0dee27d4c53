//! The host stamp printed with every run. Recorded only: no metric is
//! ever normalized by it.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of `dir` as `stat -f` reports it, or `unknown`.
pub fn filesystem(dir: &Path) -> String {
    Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` under `root` when the
/// checkout is a git work tree, else `unknown`.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// Pins this process to CPU 0 with `taskset`, before any thread is
/// spawned so every later thread inherits the mask. Returns whether it
/// worked.
///
/// Client, server and flush pipeline then share one CPU: on a virtual
/// machine a wakeup sent to another virtual CPU costs tens of
/// microseconds and varies with the scheduler's placement, which
/// otherwise sets the closed loop's latencies.
pub fn pin_to_one_cpu() -> bool {
    Command::new("taskset")
        .args(["-p", "-c", "0"])
        .arg(std::process::id().to_string())
        .output()
        .is_ok_and(|o| o.status.success())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Seconds a fixed integer loop takes: a rough gauge of how busy the
/// host's CPUs were around the run.
pub fn cpu_loop_seconds() -> f64 {
    let begin = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    begin.elapsed().as_secs_f64()
}
