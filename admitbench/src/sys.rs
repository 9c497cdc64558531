//! Process and host facts from the kernel and the checkout: CPU time,
//! host steal time, peak resident memory, core count and the git
//! revision.

use std::path::Path;

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABIs: two `timeval`s, then 14
/// `long` counters this module does not read.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed by the whole process so far (every
/// thread, live or exited), to the microsecond. `/proc/self/stat` only
/// has 10 ms ticks, too coarse for one-second windows.
///
/// # Errors
///
/// A message when `getrusage` fails.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut usage =
        RUsage { utime: TimeVal { sec: 0, usec: 0 }, stime: TimeVal { sec: 0, usec: 0 }, counters: [0; 14] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and `RUSAGE_SELF` asks for this
    // process only; the call writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage failed: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(secs(&usage.utime) + secs(&usage.stime))
}

/// Seconds the hypervisor withheld from the guest's CPUs while they had
/// work (`steal` in `/proc/stat`), summed over CPUs. It explains runs
/// that a noisy neighbour slowed down.
///
/// # Errors
///
/// A message when `/proc/stat` is unreadable or malformed.
pub fn steal_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let cpu = stat.lines().next().ok_or("/proc/stat is empty")?;
    let steal = cpu.split_whitespace().nth(8).and_then(|f| f.parse::<u64>().ok()).ok_or("no steal field")?;
    // `USER_HZ` is 100 on every Linux ABI.
    Ok(steal as f64 / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// A message when `/proc/self/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit the working directory was checked out at, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `q`-quantile (`0..=1`) of `sorted` by the nearest-rank rule, or
/// `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(steal_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
