//! Minimal self-contained microbenchmark harness.
//!
//! The container this reproduction builds in has no third-party crates, so
//! instead of Criterion the bench binaries (declared `harness = false`) use
//! this ~80-line timer: warm up, then run timed batches until a wall-clock
//! budget is spent, and report the per-iteration mean of the fastest batch
//! (the usual low-noise estimator for short kernels).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's timing result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Total iterations timed.
    pub iters: u64,
    /// Nanoseconds per iteration (fastest batch).
    pub ns_per_iter: f64,
}

impl BenchResult {
    /// Iterations per second implied by the fastest batch.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter.max(1e-3)
    }
}

/// Whether `TIA_BENCH_SMOKE` requests single-iteration smoke mode: every
/// benchmark runs exactly once, just proving the harness compiles and the
/// benchmarked paths still execute (the CI usage). Numbers produced in
/// smoke mode are not meaningful and must not be snapshotted.
pub fn smoke_mode() -> bool {
    std::env::var_os("TIA_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Times `f`, printing and returning the result.
///
/// Budget: ~60 ms warmup, ~300 ms measurement, batches sized so each takes
/// ≥10 ms. Honest for everything from nanosecond kernels to multi-ms
/// simulations without Criterion's dependency footprint. Under
/// [`smoke_mode`] the closure runs exactly once.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> BenchResult {
    if smoke_mode() {
        // tia-lint: allow(determinism, a wall-clock timer is the whole point of a bench harness)
        let t = Instant::now();
        black_box(f());
        let result = BenchResult {
            name: name.to_string(),
            iters: 1,
            // tia-lint: allow(determinism, bench harness measures wall time by design)
            ns_per_iter: t.elapsed().as_nanos() as f64,
        };
        println!(
            "{:<40} smoke: 1 iter in {:.1} ns",
            result.name, result.ns_per_iter
        );
        return result;
    }
    // Warmup: run until 60 ms elapse (at least once).
    // tia-lint: allow(determinism, bench harness measures wall time by design)
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    // tia-lint: allow(determinism, bench harness measures wall time by design)
    while warm_start.elapsed() < Duration::from_millis(60) || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
    }
    // Batch size targeting ≥10 ms per batch.
    // tia-lint: allow(determinism, bench harness measures wall time by design)
    let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    let batch = ((10e6 / per_iter.max(1.0)).ceil() as u64).max(1);
    let mut best = f64::INFINITY;
    let mut total_iters = 0u64;
    // tia-lint: allow(determinism, bench harness measures wall time by design)
    let start = Instant::now();
    // tia-lint: allow(determinism, bench harness measures wall time by design)
    while start.elapsed() < Duration::from_millis(300) {
        // tia-lint: allow(determinism, bench harness measures wall time by design)
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        // tia-lint: allow(determinism, bench harness measures wall time by design)
        let ns = t.elapsed().as_nanos() as f64 / batch as f64;
        best = best.min(ns);
        total_iters += batch;
    }
    let result = BenchResult {
        name: name.to_string(),
        iters: total_iters,
        ns_per_iter: best,
    };
    println!(
        "{:<40} {:>14.1} ns/iter {:>14.1} iters/s ({} iters)",
        result.name,
        result.ns_per_iter,
        result.per_sec(),
        result.iters
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_times_a_trivial_closure() {
        let r = bench("noop_add", || black_box(1u64) + black_box(2u64));
        assert!(r.iters > 0);
        assert!(r.ns_per_iter >= 0.0);
    }
}
