//! Process facts the harness reports: core count and peak memory.

/// Usable cores, as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; `None` when the
/// process or the field is gone.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn own_peak_rss_mib() -> f64 {
    peak_rss_mib(std::process::id()).unwrap_or(0.0)
}

/// Pids of this process's live child processes (worker daemons spawned
/// on the harness's behalf), read from `/proc/<pid>/stat`.
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            // `pid (comm) state ppid ...`; comm may contain spaces.
            let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return false };
            after.split_whitespace().nth(1).and_then(|p| p.parse::<u32>().ok()) == Some(me)
        })
        .collect()
}
