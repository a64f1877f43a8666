//! Process memory and CPU counters, read from Linux `/proc` and
//! `getrusage`. Every reader fails loudly: a missing counter must stop
//! the benchmark, never read as zero.

use std::time::Duration;

/// Resets the process's peak resident set (VmHWM) to its current
/// resident set, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", b"5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Returns the allocator's free heap pages to the system, so memory the
/// previous run freed does not count in the next run's peak.
pub fn release_free_heap() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, touches only
        // the allocator's own free lists under its locks, and is safe to
        // call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_kb("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set, in MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_kb("VmRSS").map(|kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {field} line"))
}

/// User + system CPU time of the whole process so far, all threads
/// included (also threads that have already exited).
pub fn cpu_time() -> Result<Duration, String> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const _: () = assert!(std::mem::size_of::<usize>() == 8, "64-bit Linux layout");
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches `struct rusage` on 64-bit Linux (two
    // `timeval`s of two 64-bit fields, then fourteen `long`s; the const
    // assertion above pins the pointer width), and `u` is a live,
    // exclusively borrowed value of that size for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let us = |t: &Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    Ok(us(&u.utime) + us(&u.stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_reset() {
        let before = cpu_time().unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_time().unwrap() > before);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let peak = peak_rss_mb().unwrap();
        assert!(peak >= 64.0, "peak {peak}");
        drop(big);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb().unwrap() <= rss_mb().unwrap() + 8.0);
    }
}
