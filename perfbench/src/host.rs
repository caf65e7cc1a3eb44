//! What the benchmark records about the machine and the process: host
//! name, CPU count and peak resident memory. Both come from libc calls so
//! the benchmark reads no file outside its working directory.

use std::os::raw::{c_char, c_int, c_long};

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by fourteen
/// `long` counters, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn gethostname(name: *mut c_char, len: usize) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this platform, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// The host name, or `"unknown"` when the call fails.
pub fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: the pointer and length describe `buf`, which outlives the call;
    // `gethostname` writes at most `len` bytes.
    let rc = unsafe { gethostname(buf.as_mut_ptr().cast::<c_char>(), buf.len()) };
    if rc != 0 {
        return "unknown".to_string();
    }
    let end = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
