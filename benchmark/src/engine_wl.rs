//! The in-process engine workloads (`engine_small`, `engine_wide`) and the
//! short engine variants of the traced run. An operation is one `serve()`
//! of a pre-generated burst through a `ShardedEngine` with one worker,
//! `max_batch` 8 and per-request RPS over 4–8 bit; one generator thread,
//! closed loop.

use crate::clock::now_ns;
use crate::harness::{LoopOutcome, OpenWindow, Workload};
use crate::model::{rps_set, ModelSize, POLICY_SEED};
use crate::report::Metrics;
use crate::spans::{new_id, SpanBuf, Trace, GEN_TID};
use crate::stats::{sample_store, Completion};
use crate::verify::{References, Tap, TimedBackend};
use tia_engine::{Engine, EngineConfig, PrecisionPolicy, RequestId, Response, ShardedEngine};
use tia_nn::Network;
use tia_quant::Precision;
use tia_tensor::Tensor;

/// Span capacity of a backend tap; far above what any traced loop records.
pub const TAP_CAPACITY: usize = 1 << 18;

/// Engine shape under test. [`EngineSetup::workload`] is what the two
/// workloads run; the traced run varies one field at a time.
#[derive(Debug, Clone)]
pub struct EngineSetup {
    pub max_batch: usize,
    pub policy: PrecisionPolicy,
    pub workers: usize,
    /// The single-threaded `Engine` in place of `ShardedEngine`.
    pub inline: bool,
}

impl EngineSetup {
    pub fn workload() -> Self {
        Self {
            max_batch: 8,
            policy: PrecisionPolicy::Random(rps_set()),
            workers: 1,
            inline: false,
        }
    }
}

type Timed = TimedBackend<Network>;

/// The two engines behind the one submit/flush surface they share.
pub enum AnyEngine {
    Sharded(ShardedEngine<Timed>),
    Inline(Engine<Timed>),
}

impl AnyEngine {
    fn submit(&mut self, image: Tensor) -> RequestId {
        match self {
            AnyEngine::Sharded(e) => e.submit(image),
            AnyEngine::Inline(e) => e.submit(image),
        }
    }

    fn submit_pinned(&mut self, image: Tensor, p: Precision) {
        let r = match self {
            AnyEngine::Sharded(e) => e.try_submit_pinned(image, Some(p)),
            AnyEngine::Inline(e) => e.try_submit_pinned(image, Some(p)),
        };
        r.expect("a [C, H, W] image of the engine's one geometry");
    }

    fn flush(&mut self) -> Vec<Response> {
        match self {
            AnyEngine::Sharded(e) => e.flush(),
            AnyEngine::Inline(e) => e.flush(),
        }
    }

    fn serve(&mut self, x: &Tensor) -> Vec<Response> {
        match self {
            AnyEngine::Sharded(e) => e.serve(x),
            AnyEngine::Inline(e) => e.serve(x),
        }
    }
}

pub struct EngineWorkload {
    name: &'static str,
    pub size: ModelSize,
    seed: u64,
    setup: EngineSetup,
    images: Tensor,
    refs: References,
}

pub struct EngineInstance {
    engine: AnyEngine,
    tap: Option<Tap>,
    /// The id the engine will give the next submission.
    next_id: RequestId,
}

impl EngineWorkload {
    /// Generates the burst from `seed` and computes its references.
    pub fn new(name: &'static str, size: ModelSize, seed: u64) -> Self {
        let images = size.images(seed, size.burst);
        let refs = References::build(&mut size.build(seed), &images, &rps_set());
        Self {
            name,
            size,
            seed,
            setup: EngineSetup::workload(),
            images,
            refs,
        }
    }

    /// The same burst and references under another engine shape.
    pub fn variant(&self, setup: EngineSetup) -> Self {
        Self {
            name: self.name,
            size: self.size,
            seed: self.seed,
            setup,
            images: self.images.clone(),
            refs: self.refs.clone(),
        }
    }

    /// Checks one burst's responses: one per image, ids in submission
    /// order continuing from the previous burst, logits and top-1 bitwise
    /// equal to the per-sample reference at the reported precision.
    fn burst_ok(&self, responses: &[Response], first_id: RequestId) -> bool {
        responses.len() == self.size.burst
            && responses.iter().enumerate().all(|(i, r)| {
                r.id == first_id + i as u64
                    && self.refs.matches(i, r.precision, r.logits.data(), r.top1)
            })
    }
}

impl Workload for EngineWorkload {
    type Instance = EngineInstance;

    fn name(&self) -> &'static str {
        self.name
    }

    fn generators(&self) -> (usize, usize) {
        (1, 0)
    }

    fn setup(&self, tap: Option<Tap>) -> Result<EngineInstance, String> {
        let cfg = EngineConfig::default()
            .with_max_batch(self.setup.max_batch)
            .with_seed(POLICY_SEED);
        let backend = |_| TimedBackend::new(self.size.build(self.seed), tap.clone());
        let mut engine = if self.setup.inline {
            AnyEngine::Inline(Engine::new(backend(0), self.setup.policy.clone(), cfg))
        } else {
            AnyEngine::Sharded(ShardedEngine::with_factory(
                self.setup.workers,
                backend,
                self.setup.policy.clone(),
                cfg,
            ))
        };
        // Memo fill: one pinned request per candidate precision and per
        // worker quantizes and packs every layer's weights at all five.
        let set = rps_set();
        for p in set.iter() {
            for w in 0..self.setup.workers {
                engine.submit_pinned(self.images.index_axis0(w % self.size.burst), p);
            }
        }
        let mut served = engine.flush().len() as u64;
        // Warm-up: a fixed count of operations, not a time budget.
        for _ in 0..self.size.warmup_bursts {
            served += engine.serve(&self.images).len() as u64;
        }
        Ok(EngineInstance {
            engine,
            tap,
            next_id: served,
        })
    }

    fn run(&self, inst: &mut EngineInstance, seconds: f64, trace: bool) -> LoopOutcome {
        let burst = self.size.burst;
        let budget = (seconds * 1e9) as u64;
        // Room for six times today's operation rate on the small model.
        let capacity = (seconds * 500.0) as usize + 256;
        let mut out = LoopOutcome {
            completions: sample_store(capacity),
            items_per_op: burst as u32,
            ..LoopOutcome::default()
        };
        let mut gen = trace.then(|| SpanBuf::with_capacity(GEN_TID, capacity * 4));
        if let (true, Some(tap)) = (trace, &inst.tap) {
            tap.clear();
        }
        let window = OpenWindow::open(trace);
        let t0 = window.start_ns();
        loop {
            let first_id = inst.next_id;
            let (start, end, responses) = match (&mut gen, &inst.tap) {
                (Some(gen), Some(tap)) => {
                    // What `serve()` does, spelled out so that submit and
                    // flush get a span each.
                    let (op, serve, flush) = (new_id(), new_id(), new_id());
                    tap.set_parent(flush);
                    let start = now_ns();
                    for i in 0..burst {
                        inst.engine.submit(self.images.index_axis0(i));
                    }
                    let mid = now_ns();
                    let responses = inst.engine.flush();
                    let end = now_ns();
                    gen.record("engine.submit", new_id(), serve, start, mid, burst as u64);
                    gen.record("engine.flush", flush, serve, mid, end, burst as u64);
                    gen.record("engine.serve", serve, op, start, end, burst as u64);
                    gen.record("bench.op", op, 0, start, end, burst as u64);
                    (start, end, responses)
                }
                _ => {
                    let start = now_ns();
                    let responses = inst.engine.serve(&self.images);
                    (start, now_ns(), responses)
                }
            };
            out.completions.push(Completion::new(end - t0, end - start));
            out.attempted += 1;
            if !self.burst_ok(&responses, first_id) {
                out.failed += 1;
            }
            inst.next_id += burst as u64;
            drop(responses);
            out.check_ns += now_ns() - end;
            if end - t0 >= budget {
                break;
            }
        }
        out.window = window.close();
        if let Some(gen) = gen {
            out.spans.push(("generator".into(), gen));
        }
        if let Some(tap) = &inst.tap {
            out.spans.push(("engine worker".into(), tap.take()));
        }
        out
    }

    fn teardown(&self, inst: EngineInstance) -> Result<(), String> {
        match inst.engine {
            // Joins the workers; a worker that panicked panics here.
            AnyEngine::Sharded(e) => drop(e.shutdown()),
            AnyEngine::Inline(e) => drop(e),
        }
        Ok(())
    }
}

/// The `engine.*` span metrics of a traced engine loop: `serve()` wall
/// minus the `infer_batch` calls inside it is the engine's self time
/// (grouping, hand-off to the worker, response split).
pub fn span_metrics(trace: &Trace, items: u64, max_batch: usize) -> Metrics {
    let t = trace.totals();
    let total = |name: &str| t.get(name).copied().unwrap_or_default();
    let (serve, submit, flush, infer) = (
        total("engine.serve"),
        total("engine.submit"),
        total("engine.flush"),
        total("nn.infer_batch"),
    );
    let self_ns = serve.total_ns.saturating_sub(infer.total_ns) as f64;
    let items_f = items.max(1) as f64;
    let batches = infer.count.max(1) as f64;
    let mean_batch = items_f / batches;
    let mut m = Metrics::default();
    m.put("engine.self_us_per_req", self_ns / 1e3 / items_f);
    m.put("engine.self_share", self_ns / serve.total_ns.max(1) as f64);
    m.put("engine.submit_ns_per_req", submit.total_ns as f64 / items_f);
    m.put(
        "engine.flush_us_per_batch",
        flush.self_ns as f64 / 1e3 / batches,
    );
    m.put("engine.mean_batch", mean_batch);
    m.put("engine.batch_fill", mean_batch / max_batch as f64);
    m
}

/// One short untraced loop under `setup`; µs per request from the median
/// operation latency.
pub fn variant_us_per_req(
    base: &EngineWorkload,
    setup: EngineSetup,
    seconds: f64,
) -> Result<(f64, LoopOutcome), String> {
    let w = base.variant(setup);
    let mut inst = w.setup(None)?;
    let outcome = w.run(&mut inst, seconds, false);
    w.teardown(inst)?;
    let lat = outcome.sorted_latencies();
    let p50 = crate::stats::percentile(&lat, 0.5) as f64;
    Ok((p50 / 1e3 / base.size.burst as f64, outcome))
}
