//! Host facts recorded with every run, read from `/proc`, so that an
//! unsteady pair of runs can be traced to the host: core count, CPU model,
//! and the share of CPU time the hypervisor stole during the measurement.

/// Kernel clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / TICKS_PER_S
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
pub fn cpu_stat() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Stolen share of all CPU time between two [`cpu_stat`] readings, in
/// percent (field 8 of the line is `steal`; guest time is already counted
/// in user time and is left out of the total).
pub fn steal_pct(before: &[u64], after: &[u64]) -> f64 {
    if before.len() < 8 || after.len() < 8 {
        return 0.0;
    }
    let delta = |i: usize| after[i].saturating_sub(before[i]) as f64;
    let total: f64 = (0..8).map(delta).sum();
    if total == 0.0 {
        0.0
    } else {
        100.0 * delta(7) / total
    }
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// One JSON line of host facts.
pub fn facts_json(steal_pct: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"steal_pct\": {steal_pct:.3}}}}}",
        cpu_model().replace(['"', '\\'], "")
    )
}
