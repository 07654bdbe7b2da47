//! The benchmark's only reads of ambient machine state: the wall clock,
//! process CPU time and context switches (`getrusage`), and peak resident
//! memory (`/proc/self/status`). Everything else in the benchmark is a pure
//! function of `--seed`, so a number that moves between two runs of one
//! build moved because of something read here.
//!
//! Wall time goes through `tia_serve::clock::monotonic_now`, the workspace's
//! one sanctioned clock seam (tia-lint's determinism rule allows raw
//! `Instant::now()` there and nowhere else), so this file adds no new raw
//! time read.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(tia_serve::clock::monotonic_now)
}

/// Nanoseconds since the first call in this process. All spans, latencies
/// and slices share this one timeline, across threads.
pub fn now_ns() -> u64 {
    instant_ns(tia_serve::clock::monotonic_now())
}

/// An `Instant` taken elsewhere (the flight recorder's epoch) on the
/// `now_ns` timeline.
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Process-wide resource counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time of every thread, live or exited, in ns.
    pub cpu_ns: u64,
    /// Involuntary context switches (`ru_nivcsw`): how often the kernel
    /// took a core away from this process.
    pub invol_ctx: u64,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub tv_sec: c_long,
        pub tv_usec: c_long,
    }

    /// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub ru_maxrss: c_long,
        pub ru_ixrss: c_long,
        pub ru_idrss: c_long,
        pub ru_isrss: c_long,
        pub ru_minflt: c_long,
        pub ru_majflt: c_long,
        pub ru_nswap: c_long,
        pub ru_inblock: c_long,
        pub ru_oublock: c_long,
        pub ru_msgsnd: c_long,
        pub ru_msgrcv: c_long,
        pub ru_nsignals: c_long,
        pub ru_nvcsw: c_long,
        pub ru_nivcsw: c_long,
    }

    pub const RUSAGE_SELF: c_int = 0;

    extern "C" {
        pub fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
}

/// Reads `getrusage(RUSAGE_SELF)`. `None` when the call fails or the
/// platform is not Linux (the struct layout above is Linux's).
pub fn usage() -> Option<Usage> {
    #[cfg(target_os = "linux")]
    {
        let mut ru = sys::Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the layout
        // the Linux C library documents, and `getrusage` writes nothing
        // beyond it; RUSAGE_SELF is a valid `who`.
        let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return None;
        }
        let tv_ns = |t: &sys::Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
        Some(Usage {
            cpu_ns: tv_ns(&ru.ru_utime) + tv_ns(&ru.ru_stime),
            invol_ctx: ru.ru_nivcsw as u64,
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak resident set size of the process so far (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Wall time of a fixed integer loop, in ms. It touches no memory and
/// calls nothing, so it moves only when the machine does (frequency,
/// a neighbour on the core): run before and after a timed loop, it says
/// whether two runs that disagree saw the same machine.
pub fn calib_spin_ms() -> f64 {
    const ROUNDS: u64 = 4_000_000;
    let t = now_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ROUNDS {
        // xorshift-multiply: a serial dependency chain the compiler cannot
        // fold or vectorise away.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
    }
    std::hint::black_box(x);
    (now_ns() - t) as f64 / 1e6
}
