//! `tia-served` — the TCP serving daemon.
//!
//! Builds one RPS model replica per worker shard and serves the wire
//! protocol until a client sends a `Shutdown` frame (graceful drain).
//!
//! ```text
//! tia-served [--addr 127.0.0.1:7878] [--metrics-addr 127.0.0.1:7879]
//!            [--workers N] [--max-batch 8] [--queue-cap 1024]
//!            [--max-wait-ms 0]
//!            [--policy rps4-8|fixedN|fp32] [--seed 7] [--model-seed 1]
//!            [--channels 3] [--image 16] [--width 4] [--classes 10]
//!            [--adaptive] [--floor-interactive N|none]
//!            [--floor-normal N|none] [--floor-batch N|none]
//!            [--p99-budget-ms MS] [--cooldown CYCLES]
//!            [--trace-out FILE]
//! ```
//!
//! `--max-wait-ms` is the deadline-aware scheduler's batch-forming wait:
//! how long to hold a partial batch for more arrivals (0 = form
//! immediately). Requests carrying a wire deadline cut the wait short and
//! are shed with `Reject{DeadlineExceeded}` once expired.
//!
//! `--trace-out FILE` arms the flight recorder and, on drain, writes the
//! accumulated Chrome trace-event JSON to `FILE` (load it in
//! `chrome://tracing` or Perfetto). While the server runs the same JSON is
//! live on `http://METRICS_ADDR/trace`.
//!
//! `--adaptive` arms the graceful-degradation controller: under overload
//! the serving RPS mix shifts toward its lower bit-widths (recovering when
//! pressure clears), bounded per class by the `--floor-*` flags — a
//! floored class never serves below its floor. `--p99-budget-ms` sets the
//! interactive class's windowed-p99 SLO budget as an additional pressure
//! signal, and `--cooldown` the post-shift damping in engine cycles. All
//! five controller flags are refused without `--adaptive`.

use tia_engine::EngineConfig;
use tia_nn::zoo;
use tia_quant::PrecisionSet;
use tia_serve::cli::{parse_floor, parse_policy, Args};
use tia_serve::{Class, ControlConfig, Server, ServerConfig};
use tia_tensor::SeededRng;

fn main() {
    if let Err(e) = run() {
        eprintln!("tia-served: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(
        &[
            "addr",
            "metrics-addr",
            "workers",
            "max-batch",
            "queue-cap",
            "max-wait-ms",
            "seed",
            "model-seed",
            "channels",
            "image",
            "width",
            "classes",
            "policy",
            "floor-interactive",
            "floor-normal",
            "floor-batch",
            "p99-budget-ms",
            "cooldown",
            "trace-out",
        ],
        &["adaptive"],
    )?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let metrics_addr = args.get("metrics-addr").unwrap_or("127.0.0.1:7879");
    let workers = args.get_or(
        "workers",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let max_batch: usize = args.get_or("max-batch", 8)?;
    let queue_cap: usize = args.get_or("queue-cap", 1024)?;
    let max_wait_ms: u64 = args.get_or("max-wait-ms", 0)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let model_seed: u64 = args.get_or("model-seed", 1)?;
    let channels: usize = args.get_or("channels", 3)?;
    let image: usize = args.get_or("image", 16)?;
    let width: usize = args.get_or("width", 4)?;
    let classes: usize = args.get_or("classes", 10)?;
    let policy = parse_policy(args.get("policy").unwrap_or("rps4-8"))?;
    let control = if args.has("adaptive") {
        let mut ctrl = ControlConfig::default();
        for (flag, class) in [
            ("floor-interactive", Class::Interactive),
            ("floor-normal", Class::Normal),
            ("floor-batch", Class::Batch),
        ] {
            if let Some(floor) = args.get(flag).map(parse_floor).transpose()?.flatten() {
                ctrl = ctrl.with_floor(class, floor);
            }
        }
        if let Some(ms) = args.get("p99-budget-ms") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--p99-budget-ms: could not parse {ms:?}"))?;
            ctrl = ctrl.with_p99_budget(Class::Interactive, std::time::Duration::from_millis(ms));
        }
        let cooldown = args.get_or("cooldown", ctrl.cooldown)?;
        ctrl = ctrl.with_cooldown(cooldown);
        Some(ctrl)
    } else {
        for flag in [
            "floor-interactive",
            "floor-normal",
            "floor-batch",
            "p99-budget-ms",
            "cooldown",
        ] {
            if args.get(flag).is_some() {
                return Err(format!("--{flag} needs --adaptive"));
            }
        }
        None
    };

    // The model's switchable-BN banks need a candidate set covering every
    // precision the policy can select; fp32 service still runs fine on an
    // RPS model (precision `None` bypasses quantization).
    let bn_set = match &policy {
        tia_engine::PrecisionPolicy::Random(set) => set.clone(),
        tia_engine::PrecisionPolicy::Fixed(Some(p)) => PrecisionSet::new(&[p.bits()]),
        tia_engine::PrecisionPolicy::Fixed(None) => PrecisionSet::range(4, 8),
    };

    let mut cfg = ServerConfig::default()
        .with_addr(addr)
        .with_metrics_addr(metrics_addr)
        .with_workers(workers)
        .with_queue_capacity(queue_cap)
        .with_max_wait(std::time::Duration::from_millis(max_wait_ms))
        .with_input_shape([channels, image, image])
        .with_policy(policy.clone())
        .with_engine(
            EngineConfig::default()
                .with_max_batch(max_batch)
                .with_seed(seed),
        );
    if let Some(ctrl) = control.clone() {
        cfg = cfg.with_control(ctrl);
    }
    if trace_out.is_some() {
        cfg = cfg.with_trace();
    }

    let server = Server::spawn(cfg, |_| {
        zoo::preact_resnet18_rps(
            channels,
            width,
            classes,
            bn_set.clone(),
            &mut SeededRng::new(model_seed),
        )
    })
    .map_err(|e| format!("could not bind: {e}"))?;

    println!(
        "tia-served: serving [{}x{}x{}] under {} on {} ({} worker shard(s), max batch {}, queue {}, max wait {} ms)",
        channels, image, image, policy, server.addr(), workers, max_batch, queue_cap, max_wait_ms
    );
    if let Some(ctrl) = &control {
        let floor = |c: Class| {
            ctrl.floor_for(c)
                .map_or("none".to_string(), |f| f.to_string())
        };
        println!(
            "tia-served: adaptive control armed (cooldown {} cycle(s); floors: interactive {}, normal {}, batch {})",
            ctrl.cooldown,
            floor(Class::Interactive),
            floor(Class::Normal),
            floor(Class::Batch),
        );
    }
    if let Some(m) = server.metrics_addr() {
        println!("tia-served: Prometheus metrics on http://{m}/metrics");
        if trace_out.is_some() {
            println!("tia-served: flight recorder armed; live trace on http://{m}/trace");
        }
    }
    println!("tia-served: send a Shutdown frame (tia-loadgen --shutdown) to drain and exit");

    let sink = server.trace_handle();
    let engine = server.wait();
    let stats = engine.stats();
    println!(
        "tia-served: drained; served {} request(s) in {} batch(es)",
        stats.requests, stats.batches
    );
    if let (Some(file), Some(sink)) = (trace_out, sink) {
        std::fs::write(&file, sink.chrome_trace_json())
            .map_err(|e| format!("could not write trace to {file}: {e}"))?;
        println!(
            "tia-served: wrote {} trace event(s) ({} request id(s), {} overwritten) to {file}",
            sink.drain().len(),
            sink.issued_ids(),
            sink.overwritten()
        );
    }
    Ok(())
}
