//! What the process cost: CPU time and peak resident memory (Linux
//! only, like the rest of the measurement rig).

use std::os::raw::{c_int, c_long};

/// `struct timespec` of the C library on Linux: two `long`s.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User + system CPU nanoseconds consumed by this process so far, all
/// threads included (exited ones too). The process CPU clock counts in
/// nanoseconds; the 10 ms ticks of `/proc/self/stat` would be a tenth
/// of a `hot_wire` cycle, and CPU time is read per step here.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the C
    // library's layout, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// Spin until `ns` more CPU nanoseconds are billed to the process.
    fn burn(ns: u64) {
        let (before, t0) = (cpu_ns(), std::time::Instant::now());
        let mut x = 0u64;
        while cpu_ns() - before < ns {
            for _ in 0..100_000 {
                x = black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(t0.elapsed().as_secs() < 10, "no CPU time billed in 10 s");
        }
    }

    #[test]
    fn cpu_time_counts_every_thread_and_rss_is_positive() {
        let before = cpu_ns();
        burn(5_000_000);
        let own = cpu_ns() - before;
        assert!(own >= 5_000_000);
        // A thread that has exited still counts: `par_map` workers do.
        std::thread::spawn(|| burn(20_000_000))
            .join()
            .expect("burner");
        assert!(cpu_ns() - before >= own + 20_000_000);
        assert!(peak_rss_mb() > 1.0);
    }
}
