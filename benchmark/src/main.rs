//! The repo benchmark. One process, one workload per invocation:
//!
//! ```text
//! tia-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tia-benchmark --smoke [--workload <name>] [--seed <n>]
//! tia-benchmark --agree [--runs <n>] [--seconds <s>] [--seed <n>] [--workload <name>]
//! ```
//!
//! `--trace 0` prints the five end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run and writes a
//! Chrome trace. Either ends with one JSON result line. See README.md.

mod agree;
mod alloc;
mod clock;
mod engine_wl;
mod harness;
mod layers;
mod model;
mod report;
mod robust_wl;
mod spans;
mod stats;
mod tcp_wl;
mod verify;

use engine_wl::{EngineSetup, EngineWorkload};
use harness::{LoopOutcome, Workload};
use model::{SMALL, WIDE};
use report::{Metrics, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use robust_wl::RobustWorkload;
use spans::{SpanBuf, Trace};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use tcp_wl::{OpenPhase, TcpWorkload};
use tia_engine::PrecisionPolicy;
use tia_quant::Precision;
use tia_serve::ControlConfig;
use verify::Tap;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where traced runs write their Chrome traces, relative to the directory
/// the benchmark is started from.
const TRACE_DIR: &str = "target/benchmark-trace";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        agree: false,
        runs: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before any thread exists; see `alloc::pin_single_arena` for why.
    alloc::pin_single_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tia-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.agree {
        agree::run(args.workload.as_deref(), args.runs, args.seconds, args.seed)
    } else if args.smoke {
        smoke(args.workload.as_deref(), args.seed)
    } else {
        match &args.workload {
            Some(w) => run(w, args.seed, args.seconds, args.trace),
            None => Err("--workload is required (or --smoke / --agree)".into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tia-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--smoke`: every workload (or the named one) for about a second, traced
/// and untraced, all checks on. Proves the benchmark runs; promises nothing
/// about the numbers.
fn smoke(only: Option<&str>, seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        ok &= run(w, seed, 1.0, false)?;
        ok &= run(w, seed, 1.0, true)?;
    }
    println!("smoke: {}", if ok { "all checks passed" } else { "FAILED" });
    Ok(ok)
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    if trace {
        return traced(workload, seed, seconds);
    }
    match workload {
        "engine_small" => untraced(
            &EngineWorkload::new("engine_small", SMALL, seed),
            seed,
            seconds,
        ),
        "engine_wide" => untraced(
            &EngineWorkload::new("engine_wide", WIDE, seed),
            seed,
            seconds,
        ),
        "tcp_closed" => untraced(&TcpWorkload::new(seed), seed, seconds),
        "robust_eval" => untraced(&RobustWorkload::new(seed), seed, seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

fn untraced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<bool, String> {
    report::provenance(w.name(), seed, seconds, false, w.generators())?;
    let e2e = harness::end_to_end(w, seconds)?;
    let wanted: Vec<_> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    Ok(report::print_result(
        RunResult {
            attempted: e2e.outcome.attempted,
            failed: e2e.outcome.failed,
            violations: e2e.violations,
            metrics: e2e.metrics,
        },
        &wanted,
    ))
}

/// A workload run in a traced run: untraced before and after (the base of
/// the tracing overhead and of cross-workload ratios), traced in between.
struct Section {
    /// The two untraced halves; empty when no base was asked for.
    untraced: Vec<LoopOutcome>,
    traced: LoopOutcome,
    trace: Trace,
}

impl Section {
    /// Median slice throughput over both untraced halves. Halving the base
    /// around the traced loop cancels drift of the machine between them.
    fn untraced_throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .untraced
            .iter()
            .flat_map(LoopOutcome::slice_rates)
            .collect();
        if rates.is_empty() {
            f64::NAN
        } else {
            stats::median(&rates)
        }
    }
}

/// Runs `w` untraced for half of `untraced_s` (if given), traced for
/// `traced_s` on a fresh instance, and untraced for the other half. The
/// traced instance is handed back so the caller can probe it and take it
/// down.
fn section<W: Workload>(
    w: &W,
    untraced_s: Option<f64>,
    traced_s: f64,
) -> Result<(Section, W::Instance), String> {
    let half = |out: &mut Vec<LoopOutcome>| -> Result<(), String> {
        if let Some(s) = untraced_s {
            let mut inst = w.setup(None)?;
            out.push(w.run(&mut inst, s / 2.0, false));
            w.teardown(inst)?;
        }
        Ok(())
    };
    let mut untraced = Vec::new();
    half(&mut untraced)?;
    let tap = Tap::new(spans::WORKER_TID, engine_wl::TAP_CAPACITY);
    let mut inst = w.setup(Some(tap))?;
    let mut traced = w.run(&mut inst, traced_s, true);
    half(&mut untraced)?;
    let mut trace = Trace::default();
    for (lane, buf) in traced.spans.drain(..) {
        trace.absorb(&lane, buf);
    }
    Ok((
        Section {
            untraced,
            traced,
            trace,
        },
        inst,
    ))
}

/// The `bench.*` metrics: whether the primary section's numbers can be
/// trusted.
fn bench_metrics(s: &Section, spin_ms: f64, gen_late_max_ns: u64) -> Metrics {
    let mut m = Metrics::default();
    let rates = s.traced.slice_rates();
    let lat = s.traced.sorted_latencies();
    let items = s.traced.items().max(1) as f64;
    m.put(
        "bench.slice_iqr_pct",
        if rates.len() >= 2 {
            stats::iqr_share(&rates) * 100.0
        } else {
            0.0
        },
    );
    m.put(
        "bench.latency_tail_ms",
        if lat.is_empty() {
            f64::NAN
        } else {
            stats::tail(&lat).1 as f64 / 1e6
        },
    );
    m.put(
        "bench.invol_ctx_per_s",
        s.traced.window.invol_ctx as f64 * 1e9 / s.traced.window.wall_ns.max(1) as f64,
    );
    m.put("bench.calib_spin_ms", spin_ms);
    m.put(
        "bench.trace_overhead_pct",
        (1.0 - s.traced.throughput() / s.untraced_throughput()) * 100.0,
    );
    m.put("bench.spans_dropped", s.trace.dropped as f64);
    m.put(
        "bench.check_us_per_op",
        s.traced.check_ns as f64 / 1e3 / s.traced.attempted.max(1) as f64,
    );
    m.put("bench.gen_late_max_ms", gen_late_max_ns as f64 / 1e6);
    m.put(
        "bench.allocs_per_req",
        s.traced.window.alloc_calls as f64 / items,
    );
    m.put(
        "bench.alloc_kib_per_req",
        s.traced.window.alloc_bytes as f64 / 1024.0 / items,
    );
    m
}

/// Prints count, total and self time per span name of the primary trace
/// and, where operations ran one at a time, how `bench.op` wall time closes
/// over the self times of the spans beneath it.
fn print_span_closure(trace: &Trace, loop_wall_ns: u64) {
    let totals = trace.totals();
    println!("span totals of the traced loop (count, total ms, self ms):");
    for (name, t) in &totals {
        println!(
            "  {name:<26} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let op = totals.get("bench.op").copied().unwrap_or_default();
    if op.total_ns > loop_wall_ns {
        // Concurrent requests (tcp_closed): their spans overlap, so sums of
        // span time do not add up to wall time and closure means nothing.
        return;
    }
    // Self time per layer (the span name's prefix) under bench.op.
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, t) in totals.iter().filter(|(n, _)| **n != "bench.op") {
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += t.self_ns as f64;
    }
    let below: f64 = by_layer.values().sum();
    let parts: Vec<String> = by_layer
        .iter()
        .map(|(l, ns)| format!("{l} {:.3}", ns / 1e6))
        .collect();
    println!(
        "  closure: bench.op wall {:.3} ms; self times below it: {} = {:.3} ms ({:.2}% of bench.op)",
        op.total_ns as f64 / 1e6,
        parts.join(" + "),
        below / 1e6,
        below / op.total_ns.max(1) as f64 * 100.0
    );
}

/// A traced run in progress: the named workload's loop untraced then
/// traced (the `bench.*` metrics and the Chrome trace come from it), short
/// loops of the other layers' workloads, and the standalone probes, so that
/// every per-layer metric is reported whatever the workload.
struct TracedRun<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    /// The section of the named workload, once it has run.
    primary: Option<Section>,
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Worst lateness of the open-loop generator over all phases.
    gen_late_max_ns: u64,
    /// One span per probe group, on a trace lane of their own.
    probes: SpanBuf,
}

impl TracedRun<'_> {
    /// Length of section `name`'s untraced loop, and of its traced loop:
    /// the named workload gets a sixth of the run for each, every other
    /// section a thirtieth.
    fn loop_s(&self, name: &str) -> f64 {
        self.seconds / if name == self.workload { 6.0 } else { 30.0 }
    }

    fn add(&mut self, o: &LoopOutcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Counts a finished section's operations and keeps it if it is the
    /// named workload's.
    fn keep(&mut self, name: &str, s: Section) {
        for u in &s.untraced {
            self.add(u);
        }
        self.add(&s.traced);
        if name == self.workload {
            self.primary = Some(s);
        }
    }

    fn mark(&mut self, name: &'static str, start_ns: u64) {
        self.probes
            .record(name, spans::new_id(), 0, start_ns, clock::now_ns(), 0);
    }

    /// `engine.*`: the sharded engine at this run's model size, then one
    /// short untraced loop per engine variant. Returns the engine's
    /// untraced throughput.
    fn engine(&mut self, engine: &EngineWorkload) -> Result<f64, String> {
        let loop_s = self.loop_s(engine.name());
        let (s, inst) = section(engine, Some(loop_s), loop_s)?;
        engine.teardown(inst)?;
        self.metrics.extend(engine_wl::span_metrics(
            &s.trace,
            s.traced.items(),
            EngineSetup::workload().max_batch,
        ));
        let rps = s.untraced_throughput();
        println!(
            "engine ({}): untraced {rps:.2} req/s, traced {:.2} req/s",
            engine.name(),
            s.traced.throughput()
        );
        self.keep(engine.name(), s);

        let t = clock::now_ns();
        let base = EngineSetup::workload;
        for (name, setup) in [
            (
                "engine.us_per_req_b1",
                EngineSetup {
                    max_batch: 1,
                    ..base()
                },
            ),
            (
                "engine.us_per_req_b32",
                EngineSetup {
                    max_batch: 32,
                    ..base()
                },
            ),
            (
                "engine.us_per_req_fixed8",
                EngineSetup {
                    policy: PrecisionPolicy::Fixed(Some(Precision::new(8))),
                    ..base()
                },
            ),
            (
                "engine.us_per_req_w2",
                EngineSetup {
                    workers: 2,
                    ..base()
                },
            ),
            (
                "engine.us_per_req_inline",
                EngineSetup {
                    inline: true,
                    ..base()
                },
            ),
        ] {
            let (us, outcome) = engine_wl::variant_us_per_req(engine, setup, self.seconds / 75.0)?;
            self.add(&outcome);
            self.metrics.put(name, us);
        }
        self.mark("engine.variants", t);
        Ok(rps)
    }

    /// `serve.*`: `tcp_closed` (flight recorder on in the traced loop),
    /// then the paced, overload and adaptive open-loop phases against fresh
    /// servers. `inproc_rps` is the small engine's untraced throughput.
    fn serve(&mut self, inproc_rps: f64) -> Result<(), String> {
        let tcp = TcpWorkload::new(self.seed);
        let loop_s = self.loop_s(tcp.name());
        let (s, inst) = section(&tcp, Some(loop_s), loop_s)?;
        let counts = tcp.quiesce(inst)?;
        self.metrics
            .extend(tcp_wl::span_metrics(&s.trace, &s.traced, &counts));
        let tcp_rps = s.untraced_throughput();
        self.metrics
            .put("serve.tcp_over_inproc_ratio", inproc_rps / tcp_rps);
        println!(
            "serve (tcp_closed): untraced {tcp_rps:.2} req/s over TCP vs {inproc_rps:.2} req/s in process; {} flight-recorder spans joined by wire id",
            s.trace.named("serve.total").count()
        );
        self.keep(tcp.name(), s);

        // The controller settings of crates/bench/benches/rps.rs.
        let adaptive = ControlConfig::default()
            .with_fill_band(0.3, 0.1)
            .with_miss_band(0.01, 0.0)
            .with_cooldown(1);
        let phase = |rate, deadline_ms, control| OpenPhase {
            rate,
            seconds: self.seconds / 20.0,
            deadline_ms,
            control,
        };
        for (label, phase) in [
            ("serve.paced", phase(1_000.0, None, None)),
            ("serve.overload", phase(8_000.0, Some(5), None)),
            ("serve.adaptive", phase(8_000.0, Some(5), Some(adaptive))),
        ] {
            let t = clock::now_ns();
            let o = tcp.open_loop(&phase)?;
            self.attempted += o.sent;
            self.failed += o.failed;
            self.gen_late_max_ns = self.gen_late_max_ns.max(o.late_max_ns);
            println!(
                "{label} (open loop, {} req/s for {:.2} s): sent {}, served {}, deadline-shed {}, rejected {}, generator at most {:.3} ms late",
                phase.rate,
                phase.seconds,
                o.sent,
                o.ok,
                o.shed,
                o.rejected,
                o.late_max_ns as f64 / 1e6
            );
            let m = &mut self.metrics;
            match label {
                "serve.paced" => {
                    let pct = |q| match o.lat_from_due.is_empty() {
                        true => f64::NAN,
                        false => stats::percentile(&o.lat_from_due, q) as f64 / 1e6,
                    };
                    m.put("serve.paced_p50_ms", pct(0.5));
                    m.put("serve.paced_p99_ms", pct(0.99));
                }
                "serve.overload" => {
                    m.put("serve.overload_goodput_rps", o.goodput_rps());
                    m.put("serve.overload_shed_share", o.shed_share());
                }
                _ => {
                    m.put("serve.adaptive_goodput_rps", o.goodput_rps());
                    m.put("serve.adaptive_shed_share", o.shed_share());
                    m.put("serve.degrade_shifts", o.counts.degrade_shifts as f64);
                }
            }
            self.mark(label, t);
        }
        Ok(())
    }

    /// `attack.*`, `core.*`, `data.*`: the robustness evaluation, untraced
    /// only when it is the named workload, then the probe on its instance.
    fn robust(&mut self) -> Result<(), String> {
        let robust = RobustWorkload::new(self.seed);
        let loop_s = self.loop_s(robust.name());
        let untraced_s = (self.workload == robust.name()).then_some(loop_s);
        let (s, mut inst) = section(&robust, untraced_s, loop_s)?;
        let t = clock::now_ns();
        let probe = robust.probe(&mut inst, 3);
        self.mark("core.probe", t);
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        // The attacker's gradient queries as a share of the operation, both
        // from the same traced loop.
        let totals = s.trace.totals();
        let ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
        let m = &mut self.metrics;
        m.put("attack.perturb_ms_b24", probe.perturb_ms);
        m.put(
            "attack.share",
            ns("nn.loss_and_input_grad") / ns("bench.op"),
        );
        m.put("core.classify_ms_b24", probe.classify_ms);
        m.put("core.train_s", inst.train_s);
        m.put("core.robust_acc", probe.robust_acc);
        m.put("core.natural_acc", probe.natural_acc);
        m.put("data.generate_s", inst.generate_s);
        robust.teardown(inst)?;
        self.keep(robust.name(), s);
        Ok(())
    }

    /// `nn.*`, `quant.*`, `tensor.*`, `serve.wire_*`, `sim.*`: standalone,
    /// at this run's model size.
    fn standalone(&mut self, engine: &EngineWorkload) -> Result<(), String> {
        let (size, seed, probe_ms) = (engine.size, self.seed, self.seconds * 10.0);
        let t = clock::now_ns();
        let nn = layers::nn_probes(size, seed, probe_ms);
        let infer_p8_us = nn.get("nn.infer_us_per_req_p8").unwrap_or(f64::NAN);
        self.metrics.extend(nn);
        self.mark("nn.probes", t);
        let t = clock::now_ns();
        self.metrics
            .extend(layers::kernel_probes(size, seed, probe_ms, infer_p8_us));
        self.mark("quant+tensor.replay", t);
        let t = clock::now_ns();
        self.metrics
            .extend(layers::wire_probes(seed, probe_ms / 3.0));
        self.mark("serve.wire.probes", t);
        let t = clock::now_ns();
        self.metrics.extend(layers::sim_probes(engine, seed)?);
        self.mark("sim.probes", t);
        Ok(())
    }
}

fn traced(workload: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    let (size, engine_name) = match workload {
        "engine_wide" => (WIDE, "engine_wide"),
        _ => (SMALL, "engine_small"),
    };
    // The serve section drives two connections whatever the named workload.
    let generators = (tcp_wl::CONNECTIONS, tcp_wl::CONNECTIONS);
    report::provenance(workload, seed, seconds, true, generators)?;
    let mut run = TracedRun {
        workload,
        seed,
        seconds,
        primary: None,
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        gen_late_max_ns: 0,
        probes: SpanBuf::with_capacity(spans::PROBE_TID, 64),
    };
    let spin_before = clock::calib_spin_ms();
    let engine = EngineWorkload::new(engine_name, size, seed);
    let engine_rps = run.engine(&engine)?;
    let inproc_rps = if size == SMALL {
        engine_rps
    } else {
        // The in-process base of the TCP ratio is the small engine.
        let small = EngineWorkload::new("engine_small", SMALL, seed);
        let (_, outcome) =
            engine_wl::variant_us_per_req(&small, EngineSetup::workload(), seconds / 30.0)?;
        run.add(&outcome);
        outcome.throughput()
    };
    run.serve(inproc_rps)?;
    run.robust()?;
    run.standalone(&engine)?;
    let spin_after = clock::calib_spin_ms();

    let mut primary = run
        .primary
        .take()
        .ok_or("no section ran the named workload")?;
    run.metrics.extend(bench_metrics(
        &primary,
        (spin_before + spin_after) / 2.0,
        run.gen_late_max_ns,
    ));
    println!("calibration spin: {spin_before:.3} ms before, {spin_after:.3} ms after");
    print_span_closure(&primary.trace, primary.traced.window.wall_ns);
    primary
        .trace
        .absorb("probes (standalone, after the loop)", run.probes);
    let mut violations = Vec::new();
    let path = PathBuf::from(TRACE_DIR).join(format!("{workload}-seed{seed}.trace.json"));
    match primary.trace.write_chrome(&path) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            primary.trace.spans.len(),
            path.display()
        ),
        Err(e) => violations.push(format!("cannot write {}: {e}", path.display())),
    }
    let wanted: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    Ok(report::print_result(
        RunResult {
            attempted: run.attempted,
            failed: run.failed,
            violations,
            metrics: run.metrics,
        },
        &wanted,
    ))
}
