//! Host facts for the run header and the diagnostics-only `host.*`
//! metrics, read from procfs/sysfs (zeros / "unknown" where absent).

use std::time::Duration;

/// Cumulative CPU time and minor page faults of this process.
#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub cpu: Duration,
    pub minor_faults: u64,
}

impl Usage {
    pub fn now() -> Self {
        // schedstat: "<on-cpu ns> <run-queue wait ns> <timeslices>".
        let cpu_ns = std::fs::read_to_string("/proc/self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        // stat: minflt is the 10th field; fields after the parenthesised
        // command name are counted from the closing parenthesis.
        let minor_faults = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| s.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse::<u64>().ok())
            .unwrap_or(0);
        Self { cpu: Duration::from_nanos(cpu_ns), minor_faults }
    }
}

/// Size string of the last-level cache (e.g. "266240K").
pub fn llc_size() -> String {
    (1..=4)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit being measured: `NHOOD_BENCH_COMMIT` if set, else what
/// `.git/HEAD` of the working directory resolves to, else "unknown"
/// (the driver's checkout is not a git repository).
pub fn commit() -> String {
    if let Ok(c) = std::env::var("NHOOD_BENCH_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_reads_procfs_on_linux() {
        let a = Usage::now();
        std::hint::black_box((0..2_000_000u64).fold(0, |x, i| x ^ i.wrapping_mul(x | 1)));
        let b = Usage::now();
        if cfg!(target_os = "linux") {
            // A started process has faulted its image in and used CPU.
            assert!(a.minor_faults > 0 && b.minor_faults >= a.minor_faults);
            assert!(b.cpu >= a.cpu && b.cpu > Duration::ZERO);
        }
        assert!(nproc() >= 1);
    }
}
