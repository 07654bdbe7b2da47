//! A counting global allocator for the benchmark binary. It forwards to the
//! system allocator and, only while armed (the traced run's loop), counts
//! calls and bytes. Disarmed it costs one relaxed load per allocation.
//!
//! It also holds the one allocator setting the benchmark makes: glibc is
//! told to keep a single malloc arena ([`pin_single_arena`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static SINGLE_ARENA: AtomicBool = AtomicBool::new(false);

/// The allocator type installed by `main.rs`.
pub struct Counting;

fn count(bytes: usize) {
    // Relaxed: these are statistics; nothing is published through them.
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is an allocation for our purposes, as in
        // tests/alloc_regression.rs.
        count(new_size);
        // SAFETY: the caller's contract for `realloc` is passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Tells glibc's malloc to use one arena for every thread. By default each
/// new thread takes a free arena or makes one, so whether a set-up reuses
/// the memory the previous instance's threads gave back depends on which
/// thread the scheduler starts first: on `tcp_closed` that made `VmHWM`
/// two-valued, about 1 MiB apart in 11 MiB, and worse on a busy host. With
/// one arena freed memory is reused whichever thread asks. Per-thread
/// caches stay, and throughput did not move. Must run before the first
/// thread is spawned. Where it does not apply (not glibc) or is refused the
/// run goes on with the default, and the provenance header says so.
pub fn pin_single_arena() {
    // Relaxed: written once before any thread exists, read for a log line.
    SINGLE_ARENA.store(set_arena_max_one(), Ordering::Relaxed);
}

/// Whether [`pin_single_arena`] took effect.
pub fn single_arena() -> bool {
    SINGLE_ARENA.load(Ordering::Relaxed)
}

fn set_arena_max_one() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        /// `M_ARENA_MAX` of glibc's `<malloc.h>`.
        const M_ARENA_MAX: c_int = -8;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` takes two ints and touches only malloc's own
        // tunables; it is called once from `main` before any other thread
        // exists.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Allocation calls and bytes requested while armed, so far.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub calls: u64,
    pub bytes: u64,
}

/// Starts or stops counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Reads the counters.
pub fn counts() -> Counts {
    Counts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}
