//! `tia-loadgen` — open- and closed-loop load generator for `tia-served`.
//!
//! ```text
//! tia-loadgen [--addr 127.0.0.1:7878] [--mode closed|open]
//!             [--conns 1] [--requests 64] [--inflight 8] [--rate 500]
//!             [--shape 3,16,16] [--seed 1] [--policy server|fp32|fixedN|rpsLO-HI]
//!             [--deadline-ms N] [--class normal|interactive|batch]
//!             [--ramp flat|linear:PEAK|square:PEAK:PERIOD] [--retry-rejects]
//!             [--connect-timeout-secs 30] [--metrics-addr HOST:PORT]
//!             [--trace FILE] [--ping] [--shutdown]
//! ```
//!
//! `--ping` just probes liveness and exits. `--shutdown` asks the server
//! to drain and exit after the load completes, and waits for the
//! acknowledgement (the CI loopback smoke test relies on this to assert a
//! clean shutdown). `--metrics-addr` fetches and prints the server's
//! Prometheus text at the end of the run — when the server's flight
//! recorder is on, the run summary also breaks the client-observed
//! latency down by server-side stage from the scraped stage histograms.
//! `--trace FILE` (needs `--metrics-addr`) additionally fetches the
//! server's Chrome trace-event JSON from `/trace` and writes it to
//! `FILE` for chrome://tracing / Perfetto. `--deadline-ms` attaches a
//! relative deadline to every request: under overload the
//! server sheds expired requests with `Reject{DeadlineExceeded}`, which
//! the report counts as deadline-shed rejects, not errors. `--class` sets
//! the scheduling priority class.
//!
//! Open loop only: `--ramp` shapes the arrival rate over the run (a
//! `linear` climb walks the server into overload, a `square` wave storms
//! and clears it), and `--retry-rejects` resends queue-full rejects on a
//! bounded backoff, with resends and exhausted retries ("gave up")
//! reported separately from deadline sheds.

use std::time::Duration;
use tia_serve::cli::{parse_class, parse_ramp, parse_shape, parse_wire_policy, Args};
use tia_serve::{fetch_metrics, fetch_trace, run_load, Client, LoadConfig, StageBreakdown};

fn main() {
    if let Err(e) = run() {
        eprintln!("tia-loadgen: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(
        &[
            "addr",
            "metrics-addr",
            "mode",
            "conns",
            "requests",
            "inflight",
            "rate",
            "shape",
            "seed",
            "policy",
            "deadline-ms",
            "class",
            "ramp",
            "connect-timeout-secs",
            "trace",
        ],
        &["ping", "shutdown", "retry-rejects"],
    )?;
    if args.get("trace").is_some() && args.get("metrics-addr").is_none() {
        return Err(
            "--trace needs --metrics-addr (the trace lives on the scrape port)".to_string(),
        );
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let mode = args.get("mode").unwrap_or("closed");
    let connect_timeout: u64 = args.get_or("connect-timeout-secs", 30)?;
    let rate: Option<f64> = match mode {
        "closed" => None,
        "open" => Some(args.get_or("rate", 200.0)?),
        other => return Err(format!("bad mode {other:?}, expected closed or open")),
    };

    // Wait for the server to come up (the CI script starts it in the
    // background and races its bind).
    let mut probe = Client::connect_retry(&addr, Duration::from_secs(connect_timeout))
        .map_err(|e| format!("could not connect to {addr}: {e}"))?;
    probe.ping().map_err(|e| format!("ping failed: {e}"))?;
    if args.has("ping") {
        println!("tia-loadgen: {addr} is alive");
        return Ok(());
    }
    drop(probe);

    let cfg = LoadConfig {
        addr: addr.clone(),
        connections: args.get_or("conns", 1)?,
        requests: args.get_or("requests", 64)?,
        inflight: args.get_or("inflight", 8)?,
        rate,
        shape: parse_shape(args.get("shape").unwrap_or("3,16,16"))?,
        seed: args.get_or("seed", 1)?,
        policy: parse_wire_policy(args.get("policy").unwrap_or("server"))?,
        deadline_ms: match args.get("deadline-ms") {
            None => None,
            Some(v) => {
                let ms: u32 = v
                    .parse()
                    .map_err(|_| format!("--deadline-ms: could not parse {v:?}"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be >= 1 (0 means no deadline)".to_string());
                }
                Some(ms)
            }
        },
        class: parse_class(args.get("class").unwrap_or("normal"))?,
        retry_rejects: args.has("retry-rejects"),
        ramp: parse_ramp(args.get("ramp").unwrap_or("flat"))?,
    };
    if (cfg.retry_rejects || cfg.ramp != tia_serve::Ramp::Flat) && cfg.rate.is_none() {
        return Err(
            "--retry-rejects and --ramp are open-loop options (use --mode open)".to_string(),
        );
    }
    let mut report = run_load(&cfg).map_err(|e| format!("load run failed: {e}"))?;

    // Scrape before printing the summary so the server-side stage
    // breakdown (flight recorder histograms) rides along with the
    // client-observed latency line.
    let metrics_text = args.get("metrics-addr").map(|metrics_addr| {
        let text = fetch_metrics(metrics_addr);
        if let Ok(text) = &text {
            report.server_stages = StageBreakdown::from_prometheus(text);
        }
        text
    });

    println!(
        "tia-loadgen: {} loop, {} conn(s): {}",
        if cfg.rate.is_some() { "open" } else { "closed" },
        cfg.connections,
        report.summary()
    );

    if let Some(fetched) = metrics_text {
        match fetched {
            Ok(text) => println!("--- server metrics ---\n{text}"),
            Err(e) => eprintln!("tia-loadgen: metrics fetch failed: {e}"),
        }
    }

    if let (Some(file), Some(metrics_addr)) = (args.get("trace"), args.get("metrics-addr")) {
        let json = fetch_trace(metrics_addr).map_err(|e| format!("trace fetch failed: {e}"))?;
        std::fs::write(file, &json).map_err(|e| format!("could not write trace to {file}: {e}"))?;
        println!(
            "tia-loadgen: wrote {} byte(s) of Chrome trace JSON to {file}",
            json.len()
        );
    }

    if args.has("shutdown") {
        let mut client = Client::connect(&addr).map_err(|e| format!("reconnect failed: {e}"))?;
        client
            .shutdown_server(|_| {})
            .map_err(|e| format!("shutdown handshake failed: {e}"))?;
        println!("tia-loadgen: server acknowledged shutdown and drained");
    }

    if report.errors > 0 {
        return Err(format!("{} request(s) errored", report.errors));
    }
    Ok(())
}
