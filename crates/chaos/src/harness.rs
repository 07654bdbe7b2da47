//! The run harness: spawns a real [`tia_serve::Server`] on loopback,
//! drives the scheduled peers against it, drains, and checks the ledger.
//!
//! Everything observable is a function of [`ChaosConfig`]; a violation
//! report therefore reproduces from its config alone (see
//! [`RunReport::repro_command`]).

use crate::check::{check_run, check_trace, RunCounters, Violation};
use crate::peer::run_peer;
use crate::plan::{Scenario, Schedule, SHAPE};
use std::panic::AssertUnwindSafe;
use std::time::Duration;
use tia_engine::{EngineConfig, PrecisionPolicy};
use tia_nn::zoo;
use tia_quant::{Precision, PrecisionSet};
use tia_serve::wire::Class;
use tia_serve::{ControlConfig, FaultPlan, MetricsSnapshot, Server, ServerConfig};
use tia_tensor::SeededRng;

/// Engine worker shards per chaos server.
const WORKERS: usize = 2;
/// Engine micro-batch size per chaos server.
const MAX_BATCH: usize = 4;
/// The interactive class's precision floor in the overload-storm scenario,
/// in bits — inside the 4~8-bit serving set, so degradation would sample
/// below it if the floor failed to bind.
const STORM_FLOOR_BITS: u8 = 6;

/// One chaos run, fully specified. The schedule, the server's fault plan
/// and every peer's byte stream derive from these fields alone.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The fault profile to run.
    pub scenario: Scenario,
    /// The one seed everything derives from.
    pub seed: u64,
    /// Concurrent scripted peers.
    pub peers: usize,
    /// Events per peer script.
    pub events_per_peer: usize,
    /// Replay only the first N events in global round-robin order
    /// (`None` = the whole schedule). Used by the minimizer.
    pub prefix: Option<usize>,
    /// Arm the server's double-ack sabotage — the checker's self-test
    /// (a correct checker MUST flag such a run).
    pub sabotage: bool,
}

impl ChaosConfig {
    /// A small default run of `scenario` under `seed`.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        ChaosConfig {
            scenario,
            seed,
            peers: 4,
            events_per_peer: 16,
            prefix: None,
            sabotage: false,
        }
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunReport {
    /// The config that produced this report.
    pub config: ChaosConfig,
    /// Total planned events after prefix truncation.
    pub total_events: usize,
    /// Order-independent FNV digest over every answer received.
    pub digest: u64,
    /// Aggregate counters (lifecycles, frames, answers).
    pub counters: RunCounters,
    /// The server's post-drain metrics snapshot (`None` if the run
    /// panicked before the drain).
    pub snapshot: Option<MetricsSnapshot>,
    /// Every invariant violation found; empty means the run passed.
    pub violations: Vec<Violation>,
}

impl RunReport {
    /// Whether the run upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The single command line that reproduces this run from its seed.
    pub fn repro_command(&self) -> String {
        let c = &self.config;
        let mut cmd = format!(
            "tia-chaos --scenario {} --seed {} --peers {} --events {}",
            c.scenario.name(),
            c.seed,
            c.peers,
            c.events_per_peer
        );
        if let Some(p) = c.prefix {
            cmd.push_str(&format!(" --prefix {p}"));
        }
        if c.sabotage {
            cmd.push_str(" --sabotage");
        }
        cmd
    }
}

/// The server configuration a scenario runs against.
fn server_config(cfg: &ChaosConfig) -> ServerConfig {
    // Engine seed decorrelated from (but determined by) the run seed.
    let engine_seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1CEB_00DA;
    let mut faults = match cfg.scenario {
        Scenario::QueueFull => FaultPlan::none().with_queue_full_every(5),
        Scenario::SlowBatch => FaultPlan::none().with_slow_batch(3, Duration::from_millis(2)),
        // Induced stalls make the deadline storm actually shed, so the
        // adaptive controller sees real miss pressure and degrades.
        Scenario::OverloadStorm => FaultPlan::none().with_slow_batch(2, Duration::from_millis(3)),
        _ => FaultPlan::none(),
    };
    if cfg.sabotage {
        faults = faults.with_double_ack();
    }
    // Every chaos server flies with the recorder on: the span-completeness
    // invariant (admit -> exactly one of sent/shed/errored) is checked on
    // every run, whatever the scenario. The kernel mode is whatever
    // `TIA_KERNEL` says: it chooses speed only, so a per-seed logits digest
    // is the same under either.
    let base = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_trace()
        .with_workers(WORKERS)
        .with_input_shape(SHAPE)
        .with_policy(PrecisionPolicy::Random(PrecisionSet::range(4, 8)))
        .with_engine(
            EngineConfig::default()
                .with_max_batch(MAX_BATCH)
                .with_seed(engine_seed),
        )
        .with_faults(faults);
    match cfg.scenario {
        // A tiny queue so organic queue-full rejects join the injected ones.
        Scenario::QueueFull => base.with_queue_capacity(8),
        // A small forming wait gives the EDF window real candidates while
        // the injected stalls back traffic up.
        Scenario::SlowBatch => base.with_max_wait(Duration::from_millis(1)),
        // The adaptive server: an aggressive fill/miss band plus a short
        // cooldown so degradation and recovery both happen inside a small
        // run, with the interactive SLO floor the checker holds the
        // answers to.
        Scenario::OverloadStorm => base
            .with_queue_capacity(16)
            .with_max_wait(Duration::from_millis(1))
            .with_control(
                ControlConfig::default()
                    .with_fill_band(0.5, 0.25)
                    .with_miss_band(0.05, 0.0)
                    .with_cooldown(2)
                    .with_floor(Class::Interactive, Precision::new(STORM_FLOOR_BITS)),
            ),
        _ => base,
    }
}

/// Builds one backend replica. Every replica is built from the *same*
/// fresh RNG, so all shards hold identical weights — which shard a request
/// lands on (a race between peers) then cannot change its logits, and the
/// clean scenario's digest stays comparable across runs.
fn replica() -> tia_nn::Network {
    zoo::preact_resnet18_rps(
        SHAPE[0],
        2,
        3,
        PrecisionSet::range(4, 8),
        &mut SeededRng::new(0x5EED_CAFE),
    )
}

/// Executes one chaos run end to end: spawn, drive, drain, check.
///
/// `Err` is reserved for environment failures (could not bind loopback);
/// invariant violations — including panics in server or peer threads —
/// come back inside the [`RunReport`].
pub fn run(cfg: &ChaosConfig) -> Result<RunReport, String> {
    let mut schedule = Schedule::generate(cfg.scenario, cfg.seed, cfg.peers, cfg.events_per_peer);
    if let Some(p) = cfg.prefix {
        schedule.truncate_prefix(p);
    }
    let total_events = schedule.total_events();
    let ghost_ids = schedule.ghost_ids();
    let expect_ack = schedule.has_shutdown();
    // The floor ledger: in the overload-storm scenario every interactive
    // server-policy request must execute at or above the armed floor.
    let floored: Vec<(u64, u8)> = if cfg.scenario == Scenario::OverloadStorm {
        schedule
            .server_policy_ids(Class::Interactive)
            .into_iter()
            .map(|id| (id, STORM_FLOOR_BITS))
            .collect()
    } else {
        Vec::new()
    };

    let server = Server::spawn(server_config(cfg), |_| replica())
        .map_err(|e| format!("could not spawn chaos server: {e}"))?;
    let metrics = server.metrics_handle();
    let trace = server.trace_handle();
    let addr = server.addr();
    let strict = cfg.scenario.strict();

    let handles: Vec<_> = schedule
        .scripts
        .iter()
        .map(|script| {
            let script = script.clone();
            std::thread::spawn(move || run_peer(addr, &script, strict))
        })
        .collect();
    let mut logs = Vec::new();
    let mut violations = Vec::new();
    for h in handles {
        match h.join() {
            Ok(log) => logs.push(log),
            Err(payload) => violations.push(Violation::Panicked {
                what: format!("peer thread: {}", panic_text(&payload)),
            }),
        }
    }
    // Graceful drain; a batcher-thread panic surfaces at the join inside
    // shutdown(), which is itself an invariant violation, not a crash of
    // the harness.
    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| drop(server.shutdown()))) {
        violations.push(Violation::Panicked {
            what: format!("server drain: {}", panic_text(&payload)),
        });
    }
    let snapshot = metrics.snapshot();
    // Post-drain the recorder is quiescent, so the snapshot is exact:
    // every admitted request's span must be complete and monotonic.
    if let Some(sink) = &trace {
        violations.extend(check_trace(&tia_serve::trace::spans(&sink.drain())));
    }
    let (mut found, digest, counters) = check_run(
        cfg.scenario,
        &logs,
        snapshot,
        &ghost_ids,
        &floored,
        expect_ack,
    );
    violations.append(&mut found);
    Ok(RunReport {
        config: cfg.clone(),
        total_events,
        digest,
        counters,
        snapshot: Some(snapshot),
        violations,
    })
}

/// [`run`], with any harness-level panic converted into a
/// [`Violation::Panicked`] report instead of unwinding the caller.
pub fn run_captured(cfg: &ChaosConfig) -> Result<RunReport, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run(cfg))) {
        Ok(res) => res,
        Err(payload) => Ok(RunReport {
            config: cfg.clone(),
            total_events: 0,
            digest: 0,
            counters: RunCounters::default(),
            snapshot: None,
            violations: vec![Violation::Panicked {
                what: panic_text(&payload),
            }],
        }),
    }
}

/// Runs `cfg`, and — for digest-checked scenarios
/// ([`Scenario::deterministic`]) — runs it a second time and holds both
/// runs to bitwise-identical answer digests.
pub fn run_checked(cfg: &ChaosConfig) -> Result<RunReport, String> {
    let mut first = run_captured(cfg)?;
    if !cfg.scenario.deterministic() || !first.passed() {
        return Ok(first);
    }
    let second = run_captured(cfg)?;
    if !second.passed() {
        return Ok(second);
    }
    if second.digest != first.digest || second.counters.answers != first.counters.answers {
        first.violations.push(Violation::DeterminismDrift {
            first: first.digest,
            second: second.digest,
        });
    }
    Ok(first)
}

/// Renders a panic payload's message, when it carried one.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
