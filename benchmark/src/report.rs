//! The metric registry (names and units, exactly as `BENCHMARK.json` lists
//! them), the provenance header, and the result line.

use std::process::Command;
use tia_tensor::{simd, KernelMode};

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["engine_small", "engine_wide", "tcp_closed", "robust_eval"];

/// `(name, unit, better, bound)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("throughput_rps", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("cpu_us_per_req", "us", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.12),
    ("setup_s", "s", "lower", 0.2),
];

/// `(name, unit, better)` of every per-layer metric; the layer is the
/// prefix before the first dot and is a crate name (or `bench`).
pub const PER_LAYER: [(&str, &str, &str); 82] = [
    ("bench.slice_iqr_pct", "%", "lower"),
    ("bench.latency_tail_ms", "ms", "lower"),
    ("bench.invol_ctx_per_s", "1/s", "lower"),
    ("bench.calib_spin_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.spans_dropped", "count", "lower"),
    ("bench.check_us_per_op", "us", "lower"),
    ("bench.gen_late_max_ms", "ms", "lower"),
    ("bench.allocs_per_req", "count", "lower"),
    ("bench.alloc_kib_per_req", "KiB", "lower"),
    ("serve.queue_wait_us", "us", "lower"),
    ("serve.window_us", "us", "lower"),
    ("serve.execute_us", "us", "lower"),
    ("serve.respond_us", "us", "lower"),
    ("serve.total_us", "us", "lower"),
    ("serve.edge_us", "us", "lower"),
    ("serve.tcp_over_inproc_ratio", "ratio", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.wire_encode_infer_ns", "ns", "lower"),
    ("serve.wire_decode_infer_ns", "ns", "lower"),
    ("serve.wire_encode_logits_ns", "ns", "lower"),
    ("serve.wire_decode_logits_ns", "ns", "lower"),
    ("serve.render_prometheus_us", "us", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.served", "count", "higher"),
    ("serve.shed_deadline", "count", "lower"),
    ("serve.rejected_queue_full", "count", "lower"),
    ("serve.errored", "count", "lower"),
    ("serve.served_per_admitted", "ratio", "higher"),
    ("serve.paced_p50_ms", "ms", "lower"),
    ("serve.paced_p99_ms", "ms", "lower"),
    ("serve.overload_goodput_rps", "1/s", "higher"),
    ("serve.overload_shed_share", "ratio", "lower"),
    ("serve.adaptive_goodput_rps", "1/s", "higher"),
    ("serve.adaptive_shed_share", "ratio", "lower"),
    ("serve.degrade_shifts", "count", "lower"),
    ("engine.self_us_per_req", "us", "lower"),
    ("engine.self_share", "ratio", "lower"),
    ("engine.submit_ns_per_req", "ns", "lower"),
    ("engine.flush_us_per_batch", "us", "lower"),
    ("engine.mean_batch", "count", "higher"),
    ("engine.batch_fill", "ratio", "higher"),
    ("engine.us_per_req_b1", "us", "lower"),
    ("engine.us_per_req_b32", "us", "lower"),
    ("engine.us_per_req_fixed8", "us", "lower"),
    ("engine.us_per_req_w2", "us", "lower"),
    ("engine.us_per_req_inline", "us", "lower"),
    ("nn.infer_us_per_req", "us", "lower"),
    ("nn.infer_us_per_req_p4", "us", "lower"),
    ("nn.infer_us_per_req_p8", "us", "lower"),
    ("nn.conv_us_per_req", "us", "lower"),
    ("nn.bn_us_per_req", "us", "lower"),
    ("nn.linear_us_per_req", "us", "lower"),
    ("nn.switch_us", "us", "lower"),
    ("nn.memo_fill_ms", "ms", "lower"),
    ("nn.eval_fwd_ms_b24", "ms", "lower"),
    ("nn.fwd_bwd_ms_b24", "ms", "lower"),
    ("quant.act_quantize_us_per_req", "us", "lower"),
    ("quant.gemm_quant_us_per_req", "us", "lower"),
    ("quant.gemm_i8_gops", "Gop/s", "higher"),
    ("quant.gemm_i4_gops", "Gop/s", "higher"),
    ("quant.gemm_i8_bytes_per_op", "B/op", "lower"),
    ("quant.weights_build_ms", "ms", "lower"),
    ("quant.fake_quant_ns_per_elem", "ns", "lower"),
    ("tensor.gemm_f32_us_per_req", "us", "lower"),
    ("tensor.gemm_f32_gflops", "GFLOP/s", "higher"),
    ("tensor.im2col_us_per_req", "us", "lower"),
    ("tensor.gemm_share", "ratio", "lower"),
    ("tensor.matmul_bwd_gflops", "GFLOP/s", "higher"),
    ("tensor.softmax_ns_per_row", "ns", "lower"),
    ("tensor.ws_cycle_ns", "ns", "lower"),
    ("attack.perturb_ms_b24", "ms", "lower"),
    ("attack.share", "ratio", "lower"),
    ("core.classify_ms_b24", "ms", "lower"),
    ("core.train_s", "s", "lower"),
    ("core.robust_acc", "ratio", "higher"),
    ("core.natural_acc", "ratio", "higher"),
    ("data.generate_s", "s", "lower"),
    ("sim.cycles_per_frame", "cycles", "lower"),
    ("sim.energy_per_frame", "energy", "lower"),
    ("sim.fps", "1/s", "higher"),
    ("sim.host_ms", "ms", "lower"),
];

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (n, v) in other.0 {
            self.put(n, v);
        }
    }
}

/// The finished run: what goes on the result line.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Quiescence checks that failed and metrics that could not be
    /// measured; any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

/// Prints every metric of `wanted` by name with its unit, then the result
/// line as the last line of standard output. A wanted metric that was not
/// measured, or measured as a non-number, is a violation.
pub fn print_result(mut result: RunResult, wanted: &[(&'static str, &'static str)]) -> bool {
    println!();
    let mut body = String::new();
    for &(name, unit) in wanted {
        let value = match result.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                result.violations.push(format!("metric {name} is {v}"));
                0.0
            }
            None => {
                result.violations.push(format!("metric {name} is missing"));
                0.0
            }
        };
        println!("{name:<34} {value:>18.6} {unit}");
        if !body.is_empty() {
            body.push_str(", ");
        }
        body.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for v in &result.violations {
        println!("VIOLATION: {v}");
    }
    let correct = result.failed == 0 && result.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        result.attempted.max(1),
        result.failed
    );
    correct
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints the provenance header and refuses a run whose load generator
/// would need more threads or connections than the host has cores: the
/// generator would then time itself waiting for a core.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    generators: (usize, usize),
) -> Result<(), String> {
    let (threads, conns) = generators;
    println!(
        "# tia-benchmark: workload {workload}, seed {seed}, {seconds} s, trace {}",
        u8::from(trace)
    );
    println!("# host: nproc {}, cpu {}", nproc(), cpu_model());
    println!(
        "# build: {}, git {}",
        first_line("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into()),
        // Only a checkout's own .git is consulted; git would otherwise walk
        // up into directories the benchmark has no business reading.
        std::path::Path::new(".git")
            .exists()
            .then(|| first_line("git", &["rev-parse", "--short", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "not a git checkout".into()),
    );
    println!(
        "# kernels: mode {}, SIMD backend {}",
        KernelMode::global_default(),
        simd::detect_name()
    );
    println!(
        "# malloc: {}",
        if crate::alloc::single_arena() {
            "glibc pinned to one arena (M_ARENA_MAX=1)"
        } else {
            "the platform's default arenas"
        }
    );
    println!("# load: {threads} generator thread(s), {conns} connection(s), all in this process");
    if threads > nproc() || conns > nproc() {
        return Err(format!(
            "{workload} drives {threads} generator thread(s) and {conns} connection(s) but the host has {} core(s)",
            nproc()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` in `text` between the `key` array's brackets.
    fn names_in(text: &str, key: &str) -> Vec<String> {
        let at = text.find(&format!("\"{key}\"")).expect("key present");
        let open = at + text[at..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        text[open..close]
            .split("\"name\":")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(names_in(&text, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&text, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&text, "per_layer"), layers);
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "missing {entry}");
        }
    }

    #[test]
    fn names_are_unique_and_layers_are_crates() {
        let mut all: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        all.extend(END_TO_END.iter().map(|m| m.0));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        const LAYERS: [&str; 9] = [
            "bench", "serve", "engine", "nn", "quant", "tensor", "attack", "core", "data",
        ];
        for (name, _, _) in PER_LAYER {
            let layer = name.split('.').next().expect("prefix");
            assert!(LAYERS.contains(&layer) || layer == "sim", "{name}");
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut metrics = Metrics::default();
        metrics.put("a", 1.5);
        let ok = print_result(
            RunResult {
                attempted: 3,
                failed: 0,
                violations: Vec::new(),
                metrics: metrics.clone(),
            },
            &[("a", "ms")],
        );
        assert!(ok);
        let missing = print_result(
            RunResult {
                attempted: 3,
                failed: 0,
                violations: Vec::new(),
                metrics: metrics.clone(),
            },
            &[("a", "ms"), ("b", "ms")],
        );
        assert!(!missing);
        metrics.put("b", f64::NAN);
        let nan = print_result(
            RunResult {
                attempted: 3,
                failed: 0,
                violations: Vec::new(),
                metrics,
            },
            &[("a", "ms"), ("b", "ms")],
        );
        assert!(!nan);
    }
}
