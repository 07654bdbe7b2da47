//! What every workload shares: the measured window around a timed loop, the
//! loop's outcome, the five end-to-end estimators, and the set-up / loop /
//! set-up sequence of an untraced run.

use crate::alloc;
use crate::clock::{self, now_ns};
use crate::report::Metrics;
use crate::spans::SpanBuf;
use crate::stats::{self, Completion};
use crate::verify::Tap;

/// Length of a throughput slice, in µs.
pub const SLICE_US: u32 = 1_000_000;

/// How often `setup_s` is sampled in one run: three set-ups before the
/// timed loop (the third is the one the loop runs on) and two after it.
pub const SETUPS_BEFORE: usize = 3;
pub const SETUPS_AFTER: usize = 2;

/// Process counters over one timed loop, opened after the loop's own
/// buffers are allocated and closed when its last operation completes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub invol_ctx: u64,
    /// `VmHWM` as the loop ended, before its samples are merged or sorted.
    pub peak_rss_kib: Option<u64>,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

/// An open [`Window`].
pub struct OpenWindow {
    start_ns: u64,
    usage: clock::Usage,
    allocs: Option<alloc::Counts>,
}

impl OpenWindow {
    /// Starts the window; with `count_allocs` (traced runs) the counting
    /// allocator is armed for its length.
    pub fn open(count_allocs: bool) -> Self {
        let allocs = count_allocs.then(|| {
            alloc::arm(true);
            alloc::counts()
        });
        Self {
            usage: clock::usage().unwrap_or_default(),
            allocs,
            start_ns: now_ns(),
        }
    }

    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    pub fn close(self) -> Window {
        let end_ns = now_ns();
        let usage = clock::usage().unwrap_or_default();
        let (alloc_calls, alloc_bytes) = match self.allocs {
            Some(before) => {
                alloc::arm(false);
                let after = alloc::counts();
                (after.calls - before.calls, after.bytes - before.bytes)
            }
            None => (0, 0),
        };
        Window {
            wall_ns: end_ns - self.start_ns,
            cpu_ns: usage.cpu_ns.saturating_sub(self.usage.cpu_ns),
            invol_ctx: usage.invol_ctx.saturating_sub(self.usage.invol_ctx),
            peak_rss_kib: clock::peak_rss_kib(),
            alloc_calls,
            alloc_bytes,
        }
    }
}

/// What one timed loop produced.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Every completed operation, ascending by completion time.
    pub completions: Vec<Completion>,
    /// Items each operation carries (requests of a burst, images of a
    /// slice).
    pub items_per_op: u32,
    /// Operations started.
    pub attempted: u64,
    /// Operations refused, answered wrongly, or never answered.
    pub failed: u64,
    /// Time spent verifying outputs (outside the operations' own spans).
    pub check_ns: u64,
    pub window: Window,
    /// Generator-side spans of a traced loop, one buffer per lane.
    pub spans: Vec<(String, SpanBuf)>,
}

impl LoopOutcome {
    pub fn items(&self) -> u64 {
        self.completions.len() as u64 * u64::from(self.items_per_op)
    }

    /// Operation latencies, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .completions
            .iter()
            .map(|c| u64::from(c.lat_ns))
            .collect();
        v.sort_unstable();
        v
    }

    /// Per-slice throughput in items/s. A loop too short to close one
    /// slice (smoke runs) falls back to one slice spanning the loop.
    pub fn slice_rates(&self) -> Vec<f64> {
        let rates = stats::slice_rates(&self.completions, self.items_per_op, SLICE_US);
        if !rates.is_empty() {
            return rates;
        }
        match self.completions.last() {
            Some(last) if last.end_us > 0 => {
                vec![self.items() as f64 * 1e6 / f64::from(last.end_us)]
            }
            _ => Vec::new(),
        }
    }

    /// Median slice throughput, the `throughput_rps` estimator.
    pub fn throughput(&self) -> f64 {
        let rates = self.slice_rates();
        if rates.is_empty() {
            0.0
        } else {
            stats::median(&rates)
        }
    }
}

/// A workload: how to build it from nothing, run it, and take it down.
pub trait Workload {
    type Instance;

    fn name(&self) -> &'static str;

    /// Load-generator threads and connections the timed loop uses.
    fn generators(&self) -> (usize, usize);

    /// From nothing to ready: model build (and training), weight
    /// quantize/pack memo fill for all five precisions, engine or server
    /// spawn and connect, and a fixed count of warm-up operations. With a
    /// tap, the backend records `nn.*` spans into it.
    fn setup(&self, tap: Option<Tap>) -> Result<Self::Instance, String>;

    /// Runs operations back to back until `seconds` have passed, verifying
    /// every output. With `trace`, records spans and counts allocations.
    fn run(&self, inst: &mut Self::Instance, seconds: f64, trace: bool) -> LoopOutcome;

    /// Takes the instance down, checking what only holds at quiescence.
    fn teardown(&self, inst: Self::Instance) -> Result<(), String>;
}

/// Everything an untraced run measured.
pub struct EndToEnd {
    pub metrics: Metrics,
    pub outcome: LoopOutcome,
    /// Failed quiescence checks, by message.
    pub violations: Vec<String>,
}

fn timed_setup<W: Workload>(w: &W, samples: &mut Vec<f64>) -> Result<W::Instance, String> {
    let t = now_ns();
    let inst = w.setup(None)?;
    samples.push((now_ns() - t) as f64 / 1e9);
    Ok(inst)
}

/// The untraced run: set-up ×3, the timed loop on the third instance,
/// set-up ×2, each instance taken down before the next is built.
pub fn end_to_end<W: Workload>(w: &W, seconds: f64) -> Result<EndToEnd, String> {
    let mut setups = Vec::new();
    let mut violations = Vec::new();
    let mut teardown = |inst: W::Instance| {
        if let Err(e) = w.teardown(inst) {
            violations.push(e);
        }
    };
    for _ in 1..SETUPS_BEFORE {
        teardown(timed_setup(w, &mut setups)?);
    }
    let mut inst = timed_setup(w, &mut setups)?;
    let spin_before = clock::calib_spin_ms();
    let outcome = w.run(&mut inst, seconds, false);
    let spin_after = clock::calib_spin_ms();
    teardown(inst);
    for _ in 0..SETUPS_AFTER {
        teardown(timed_setup(w, &mut setups)?);
    }

    let rates = outcome.slice_rates();
    let lat = outcome.sorted_latencies();
    if rates.is_empty() || lat.is_empty() {
        return Err(format!(
            "{}: the timed loop completed no operation",
            w.name()
        ));
    }
    let items = outcome.items();
    let [q1, _, q3] = if rates.len() >= 2 {
        stats::quartiles(&rates)
    } else {
        [rates[0]; 3]
    };
    let (tail_label, tail_ns) = stats::tail(&lat);
    let (threads, conns) = w.generators();
    println!(
        "timed loop: {:.3} s wall, {} operations, {} items, {} slices of ~1 s",
        outcome.window.wall_ns as f64 / 1e9,
        outcome.completions.len(),
        items,
        rates.len()
    );
    println!(
        "  slice throughput: median {:.2}/s, q1 {:.2}, q3 {:.2}, IQR {:.2}% of median, min {:.2}, max {:.2}",
        stats::median(&rates),
        q1,
        q3,
        (q3 - q1) / stats::median(&rates) * 100.0,
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "  latency: p50 {:.4} ms, {} {:.4} ms, from {} raw samples",
        stats::percentile(&lat, 0.5) as f64 / 1e6,
        tail_label,
        tail_ns as f64 / 1e6,
        lat.len()
    );
    println!(
        "  cpu: {:.3} s user+system over the loop, including the {threads} generator thread(s) ({conns} connection(s))",
        outcome.window.cpu_ns as f64 / 1e9
    );
    println!(
        "  output checks: {:.3} us per operation; calibration spin {:.3} ms before, {:.3} ms after; {} involuntary context switches",
        outcome.check_ns as f64 / 1e3 / outcome.attempted.max(1) as f64,
        spin_before,
        spin_after,
        outcome.window.invol_ctx
    );
    println!(
        "  set-up: {} samples, median {:.4} s, min {:.4} s, max {:.4} s",
        setups.len(),
        stats::median(&setups),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );

    let mut metrics = Metrics::default();
    metrics.put("throughput_rps", stats::median(&rates));
    metrics.put("latency_p50_ms", stats::percentile(&lat, 0.5) as f64 / 1e6);
    metrics.put(
        "cpu_us_per_req",
        outcome.window.cpu_ns as f64 / 1e3 / items.max(1) as f64,
    );
    metrics.put(
        "peak_rss_mb",
        outcome
            .window
            .peak_rss_kib
            .ok_or("cannot read VmHWM from /proc/self/status")? as f64
            / 1024.0,
    );
    metrics.put("setup_s", stats::median(&setups));
    Ok(EndToEnd {
        metrics,
        outcome,
        violations,
    })
}

/// Times `f` repeatedly for about `budget_ms` (at least `min_reps` calls)
/// and returns the median call in ns. For the standalone layer probes.
pub fn median_ns(min_reps: usize, budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let budget = (budget_ms * 1e6) as u64;
    let start = now_ns();
    let mut samples = Vec::new();
    while samples.len() < min_reps || now_ns() - start < budget {
        let t = now_ns();
        f();
        samples.push(now_ns() - t);
    }
    stats::median_u64(&samples)
}
