//! Process and machine facts from the C library: peak resident memory,
//! CPU time and the last-level cache size.

use std::os::raw::{c_int, c_long};

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long` counters starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;
/// glibc's `_SC_LEVEL3_CACHE_SIZE` and `_SC_LEVEL2_CACHE_SIZE`.
const SC_LEVEL3_CACHE_SIZE: c_int = 194;
const SC_LEVEL2_CACHE_SIZE: c_int = 191;

/// Peak resident set size of this process in MiB (0 if unavailable).
pub fn rss_peak_mb() -> f64 {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` on this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0 // ru_maxrss is in KiB on Linux
    } else {
        0.0
    }
}

/// CPU time this process has used so far (user + system, all threads),
/// in seconds. Time the hypervisor steals from the machine is not in it.
pub fn cpu_seconds() -> f64 {
    cpu_of(RUSAGE_SELF)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    cpu_of(RUSAGE_THREAD)
}

fn cpu_of(who: c_int) -> f64 {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: as in `rss_peak_mb`; RUSAGE_THREAD is valid on Linux.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let tv = |t: [c_long; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(usage.utime) + tv(usage.stime)
}

/// Last-level cache size in bytes: L3 if the C library reports one,
/// else L2, else 0.
pub fn llc_bytes() -> usize {
    for name in [SC_LEVEL3_CACHE_SIZE, SC_LEVEL2_CACHE_SIZE] {
        // SAFETY: sysconf takes any integer name and returns -1 or 0 for
        // names it does not know; it touches no caller memory.
        let v = unsafe { sysconf(name) };
        if v > 0 {
            return v as usize;
        }
    }
    0
}

/// Online CPUs, as `nproc` counts them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}
