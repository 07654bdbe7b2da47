//! The serving coordinator — one submit-time-scheduled request queue behind
//! [`Engine`] and [`crate::ShardedEngine`] — and its inline executor.

use crate::{Backend, BatchCost, PrecisionPolicy};
use tia_quant::Precision;
use tia_tensor::{argmax_rows, KernelMode, SeededRng, Tensor, Workspace};

/// Identifier handed back by [`Engine::submit`]; responses carry it so
/// callers can re-associate out-of-order completions.
pub type RequestId = u64;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Largest coalesced batch the engine will form.
    pub max_batch: usize,
    /// Seed of the engine's private policy RNG; a fixed seed yields a
    /// reproducible precision-switch schedule.
    pub seed: u64,
    /// Kernel dispatch mode pushed into the backend at engine construction:
    /// `Scalar` runs the portable loops, `Native` the runtime-detected SIMD
    /// backend, with the same logits bit for bit. Defaults to the
    /// process-wide mode from the `TIA_KERNEL` environment variable
    /// (`native` when unset).
    pub kernel: KernelMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            seed: 0,
            kernel: KernelMode::global_default(),
        }
    }
}

impl EngineConfig {
    /// Sets the maximum coalesced batch size (clamped to at least 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the policy RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the kernel dispatch mode.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Why a submission was refused by [`Engine::try_submit`].
///
/// The panicking `submit` entry points wrap these; network front-ends use
/// the `try_` forms so a malformed request costs the caller a rejection
/// frame, never the server its process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The image tensor was not 3-D `[C, H, W]`.
    NotAnImage {
        /// The submitted tensor's rank.
        rank: usize,
    },
    /// The image shape differs from the first submitted image (one engine
    /// serves one input geometry).
    ShapeMismatch {
        /// The geometry pinned by the first submission.
        expected: Vec<usize>,
        /// The offending submission's shape.
        got: Vec<usize>,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NotAnImage { rank } => {
                write!(
                    f,
                    "expected a single [C, H, W] image, got a rank-{rank} tensor"
                )
            }
            SubmitError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "image shape changed mid-stream: expected {expected:?}, got {got:?}"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id returned by the matching [`Engine::submit`].
    pub id: RequestId,
    /// Class logits, `[classes]`.
    pub logits: Tensor,
    /// Top-1 predicted class.
    pub top1: usize,
    /// The precision the request was executed at.
    pub precision: Option<Precision>,
}

/// Aggregate serving statistics since construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Requests completed.
    pub requests: usize,
    /// Coalesced batches executed.
    pub batches: usize,
    /// Accumulated hardware cost as reported by the backend's cost hook.
    pub cost: BatchCost,
}

impl EngineStats {
    /// Mean frames per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A submitted request. Its whole schedule — id and precision — is fixed at
/// submit time, so it depends only on the seed and the submission order,
/// never on flush timing or on which executor serves it.
pub struct Request {
    pub(crate) id: RequestId,
    precision: Option<Precision>,
    image: Tensor,
}

/// An executed request: the response plus its per-frame cost, which the
/// coordinator merges into the ledger in request-id order.
pub struct Served {
    response: Response,
    unit_cost: BatchCost,
}

/// What runs a flush's requests. Two implementations exist — [`Inline`]
/// (zero threads, any backend) and [`crate::Shards`] (N worker threads, each
/// looping an `Inline`) — and the constructor the caller uses picks one.
/// Not implementable outside this crate: `Request` and `Served` cannot be
/// named there.
pub trait Executor {
    /// Executes every request in `reqs`, pushing one `Served` per request
    /// onto `out` (any order), and returns the number of micro-batches run.
    /// `reqs` must hold the same requests on return, images intact (any
    /// order): the coordinator reclaims their storage.
    fn execute(&mut self, reqs: &mut Vec<Request>, out: &mut Vec<Served>) -> usize;
}

/// The inline executor: groups requests by precision, coalesces each group
/// into micro-batches of at most `max_batch` and runs them on the calling
/// thread. The backend may be borrowed (`&mut B`) and need not be `Send`.
pub struct Inline<B> {
    pub(crate) backend: B,
    max_batch: usize,
    // Scratch arena backing batch-tensor assembly.
    ws: Workspace,
}

impl<B: Backend> Inline<B> {
    pub(crate) fn new(mut backend: B, cfg: &EngineConfig) -> Self {
        backend.set_kernel(cfg.kernel);
        Self {
            backend,
            max_batch: cfg.max_batch,
            ws: Workspace::new(),
        }
    }

    // tia-lint: hot-path(begin)
    /// Executes one micro-batch, pricing each request at its per-frame cost.
    fn run_chunk(&mut self, chunk: &[&Request], p: Option<Precision>, out: &mut Vec<Served>) {
        // One copy per image — straight into an arena-backed batch tensor
        // (submit pins images to rank 3, so the batch is always rank 4).
        let s = chunk[0].image.shape();
        let shape = [chunk.len(), s[0], s[1], s[2]];
        let mut x = self.ws.tensor_spare(&shape);
        for (i, r) in chunk.iter().enumerate() {
            x.set_axis0(i, &r.image);
        }
        let logits = self.backend.infer_batch(&x, p);
        self.ws.recycle_tensor(x);
        let top1 = argmax_rows(&logits);
        let unit_cost = self.backend.cost(1, p);
        for (i, req) in chunk.iter().enumerate() {
            out.push(Served {
                response: Response {
                    id: req.id,
                    logits: logits.index_axis0(i),
                    top1: top1[i],
                    precision: p,
                },
                unit_cost,
            });
        }
        // The batch logits have been split into per-request responses; the
        // backing storage goes back to the backend's arena.
        self.backend.recycle_output(logits);
    }
    // tia-lint: hot-path(end)
}

/// Groups requests by assigned precision — stable, first-seen order — so
/// per-request precision switching still serves full micro-batches.
fn group_by_precision(reqs: &[Request]) -> Vec<(Option<Precision>, Vec<&Request>)> {
    let mut groups: Vec<(Option<Precision>, Vec<&Request>)> = Vec::new();
    for req in reqs {
        match groups.iter_mut().find(|(p, _)| *p == req.precision) {
            Some((_, members)) => members.push(req),
            None => groups.push((req.precision, vec![req])),
        }
    }
    groups
}

impl<B: Backend> Executor for Inline<B> {
    /// The backend's caller-visible precision is restored afterwards.
    fn execute(&mut self, reqs: &mut Vec<Request>, out: &mut Vec<Served>) -> usize {
        let saved = self.backend.precision();
        let mut batches = 0;
        for (p, members) in group_by_precision(reqs) {
            for chunk in members.chunks(self.max_batch) {
                self.run_chunk(chunk, p, out);
                batches += 1;
            }
        }
        self.backend.set_precision(saved);
        batches
    }
}

/// A micro-batching inference server over an [`Executor`]; use it through
/// its two instantiations, [`Engine`] and [`crate::ShardedEngine`].
///
/// Requests are single images (`[C, H, W]`). Each is assigned its id and —
/// one draw from the seeded [`PrecisionPolicy`] stream, Alg. 1's per-query
/// random switch — its precision at submit time; a flush hands the pending
/// requests to the executor, which coalesces equal-precision requests into
/// batches of at most `max_batch`, and returns per-request [`Response`]s in
/// submission order.
///
/// Determinism: the same seed and the same submission sequence (including
/// rejected, floored and pinned submissions and degrade-level changes)
/// yield bitwise-identical logits, the identical precision schedule and the
/// identical cost ledger — on either executor, at any worker count, however
/// the submissions are grouped into flushes. The schedule is fixed before
/// any executor sees a request; the layer stack is batch-size-invariant in
/// eval mode (all quantization calibrates per sample), so how an executor
/// batches cannot change a logit bit; and the ledger accumulates
/// per-request unit costs in request-id order, not in completion order.
pub struct Coordinator<X> {
    pub(crate) exec: X,
    policy: PrecisionPolicy,
    rng: SeededRng,
    // Live degradation level applied to Random policy draws; 0 = the
    // full set. Set by the serving layer's feedback controller.
    degrade: u8,
    pending: Vec<Request>,
    // Flush scratch (empty between flushes; keeps its capacity).
    served: Vec<Served>,
    next_id: RequestId,
    stats: EngineStats,
    cycles: u64,
    // Fixed by the first submit; mixed shapes would otherwise be coalesced
    // into one batch tensor and silently misinterpreted.
    image_shape: Option<Vec<usize>>,
    // Staging arena: `serve` draws request images from it and every served
    // image's storage returns to it after the flush.
    ws: Workspace,
}

/// The zero-thread engine: a [`Coordinator`] executing inline on the
/// caller's thread. Construction spawns nothing and allocates nothing, so
/// it is cheap enough to build per evaluation slice around a borrowed
/// backend (`Engine::new(&mut net, …)`).
pub type Engine<B> = Coordinator<Inline<B>>;

impl<B: Backend> Coordinator<Inline<B>> {
    /// Creates an engine serving `backend` under `policy`.
    pub fn new(backend: B, policy: PrecisionPolicy, cfg: EngineConfig) -> Self {
        Self::over(Inline::new(backend, &cfg), policy, cfg.seed)
    }

    /// Borrows the backend (e.g. so an attack can craft inputs against the
    /// exact model being served).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.exec.backend
    }
}

impl<X: Executor> Coordinator<X> {
    pub(crate) fn over(exec: X, policy: PrecisionPolicy, seed: u64) -> Self {
        Self {
            exec,
            policy,
            rng: SeededRng::new(seed),
            degrade: 0,
            pending: Vec::new(),
            served: Vec::new(),
            next_id: 0,
            stats: EngineStats::default(),
            cycles: 0,
            image_shape: None,
            ws: Workspace::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &PrecisionPolicy {
        &self.policy
    }

    /// The live degradation level applied to [`PrecisionPolicy::Random`]
    /// draws (0 = the full set).
    pub fn degrade_level(&self) -> u8 {
        self.degrade
    }

    /// Sets the degradation level for subsequent policy draws, clamped to
    /// the policy's [`PrecisionPolicy::max_degrade_level`]. Level changes
    /// never shift the seeded stream position (every draw costs one step at
    /// any level), so the schedule stays a pure function of the seed, the
    /// submission order and the level sequence. A `Fixed` policy ignores
    /// the level.
    pub fn set_degrade_level(&mut self, level: u8) {
        self.degrade = level.min(self.policy.max_degrade_level());
    }

    /// Aggregate serving statistics (cost accumulated in request-id order,
    /// so totals are identical on any executor).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of submitted-but-unserved requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Number of completed non-empty [`Engine::flush`] cycles (monotonic).
    /// The serving layer's flight recorder uses it to label per-cycle
    /// engine spans.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Enqueues one `[C, H, W]` image; returns its request id.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not 3-D, or if its shape differs from the first
    /// submitted image (one engine serves one input geometry). Fallible
    /// callers (network front-ends) use [`Engine::try_submit`] instead.
    pub fn submit(&mut self, image: Tensor) -> RequestId {
        match self.try_submit(image) {
            Ok(id) => id,
            Err(e) => panic!("Engine::submit: {e}"),
        }
    }

    /// Fallible [`Engine::submit`]: rejects non-image and geometry-changing
    /// tensors with a [`SubmitError`] instead of panicking. The precision
    /// draw happens only on acceptance, so rejected submissions never
    /// perturb the seeded schedule.
    pub fn try_submit(&mut self, image: Tensor) -> Result<RequestId, SubmitError> {
        self.try_submit_floored(image, None)
    }

    /// Like [`Engine::try_submit`], but bounds the policy draw below by a
    /// per-request precision `floor` (an SLO guarantee: the request never
    /// serves below it, however degraded the engine is). A `Fixed` policy
    /// ignores the floor. The floored draw costs exactly one stream step,
    /// the same as an unfloored one.
    pub fn try_submit_floored(
        &mut self,
        image: Tensor,
        floor: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.check_image(&image)?;
        let precision = self
            .policy
            .sample_degraded(&mut self.rng, self.degrade, floor);
        Ok(self.enqueue(image, precision))
    }

    /// Like [`Engine::try_submit`], but pins the request to an explicit
    /// precision (`None` = full precision) instead of drawing from the
    /// policy. Pinned requests consume no draw from the seeded schedule, so
    /// a stream mixing policy and pinned submissions is still a pure
    /// function of the seed and the submission sequence.
    pub fn try_submit_pinned(
        &mut self,
        image: Tensor,
        precision: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.check_image(&image)?;
        Ok(self.enqueue(image, precision))
    }

    /// Pins the engine's input geometry on first use, rejects rank/shape
    /// mismatches after.
    fn check_image(&mut self, image: &Tensor) -> Result<(), SubmitError> {
        if image.shape().len() != 3 {
            return Err(SubmitError::NotAnImage {
                rank: image.shape().len(),
            });
        }
        match &self.image_shape {
            Some(shape) if shape.as_slice() != image.shape() => Err(SubmitError::ShapeMismatch {
                expected: shape.clone(),
                got: image.shape().to_vec(),
            }),
            Some(_) => Ok(()),
            None => {
                self.image_shape = Some(image.shape().to_vec());
                Ok(())
            }
        }
    }

    fn enqueue(&mut self, image: Tensor, precision: Option<Precision>) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(Request {
            id,
            precision,
            image,
        });
        id
    }

    /// Serves every pending request and returns responses sorted by request
    /// id (= submission order). The request images' storage returns to the
    /// engine's arena for the next burst.
    ///
    /// # Panics
    ///
    /// On [`crate::ShardedEngine`], panics if a worker thread has died (a
    /// backend panicked mid-batch).
    pub fn flush(&mut self) -> Vec<Response> {
        let total = self.pending.len();
        if total == 0 {
            return Vec::new();
        }
        let batches = self.exec.execute(&mut self.pending, &mut self.served);
        for req in self.pending.drain(..) {
            self.ws.recycle_tensor(req.image);
        }
        // Merge in submission order: response order and the ledger's
        // floating-point accumulation order are both independent of how the
        // executor batched and of which shard finished first.
        self.served.sort_unstable_by_key(|s| s.response.id);
        self.cycles += 1;
        self.stats.requests += total;
        self.stats.batches += batches;
        for s in &self.served {
            self.stats.cost.accumulate(&s.unit_cost);
        }
        self.served.drain(..).map(|s| s.response).collect()
    }

    /// Convenience: submits every row of an `[N, C, H, W]` batch and
    /// flushes. Image staging copies draw from the engine's arena.
    pub fn serve(&mut self, x: &Tensor) -> Vec<Response> {
        assert_eq!(x.shape().len(), 4, "Engine::serve expects [N, C, H, W]");
        let (n, s) = (x.shape()[0], x.shape());
        let (img_shape, chw) = ([s[1], s[2], s[3]], s[1] * s[2] * s[3]);
        for i in 0..n {
            let mut img = self.ws.tensor_spare(&img_shape);
            img.data_mut()
                .copy_from_slice(&x.data()[i * chw..(i + 1) * chw]);
            self.submit(img);
        }
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedEngine, SimBacked};
    use tia_nn::zoo;
    use tia_quant::PrecisionSet;

    fn replica() -> tia_nn::Network {
        zoo::preact_resnet18_rps(3, 4, 3, PrecisionSet::range(4, 8), &mut SeededRng::new(1))
    }

    fn images(n: usize, seed: u64) -> Tensor {
        Tensor::rand_uniform(&[n, 3, 8, 8], 0.0, 1.0, &mut SeededRng::new(seed))
    }

    fn image() -> Tensor {
        Tensor::zeros(&[3, 8, 8])
    }

    fn set() -> PrecisionSet {
        PrecisionSet::range(4, 8)
    }

    fn cfg(seed: u64) -> EngineConfig {
        EngineConfig::default().with_max_batch(4).with_seed(seed)
    }

    fn schedule(responses: &[Response]) -> Vec<Option<Precision>> {
        responses.iter().map(|r| r.precision).collect()
    }

    fn logit_bits(responses: &[Response]) -> Vec<u32> {
        let bits = |r: &Response| {
            r.logits
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        responses.iter().flat_map(bits).collect()
    }

    /// The first `n` values of the seeded policy stream — the oracle every
    /// executor's schedule is checked against.
    fn stream(policy: &PrecisionPolicy, seed: u64, n: usize) -> Vec<Option<Precision>> {
        let mut rng = SeededRng::new(seed);
        (0..n).map(|_| policy.sample(&mut rng)).collect()
    }

    /// The contract every executor must meet, run below over the inline
    /// executor and 1, 2 and 5 worker shards. `make` builds an engine over
    /// [`replica`] backends on the surface under test.
    fn contract<X: Executor>(
        surface: &str,
        make: &dyn Fn(PrecisionPolicy, EngineConfig) -> Coordinator<X>,
    ) {
        let random = || PrecisionPolicy::Random(set());

        // Responses come back in submission order, whatever the grouping;
        // the schedule is the seeded policy stream (so seeds matter) and the
        // logits are the inline executor's, bit for bit.
        let x = images(10, 2);
        let mut eng = make(random(), cfg(11));
        let ids: Vec<RequestId> = (0..10).map(|i| eng.submit(x.index_axis0(i))).collect();
        assert_eq!(eng.pending(), 10);
        let resp = eng.flush();
        assert_eq!(eng.pending(), 0);
        assert_eq!(resp.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        assert_eq!(schedule(&resp), stream(&random(), 11, 10), "{surface}");
        assert_ne!(schedule(&resp), stream(&random(), 12, 10));
        let want = Engine::new(replica(), random(), cfg(11)).serve(&x);
        assert_eq!(logit_bits(&resp), logit_bits(&want), "{surface}: logits");

        // Rejected and pinned submissions consume no draw.
        let mut eng = make(random(), cfg(3));
        assert_eq!(
            eng.try_submit(Tensor::zeros(&[1, 3, 8, 8])),
            Err(SubmitError::NotAnImage { rank: 4 })
        );
        assert_eq!(eng.try_submit(image()), Ok(0));
        assert_eq!(
            eng.try_submit(Tensor::zeros(&[8, 3, 8])),
            Err(SubmitError::ShapeMismatch {
                expected: vec![3, 8, 8],
                got: vec![8, 3, 8],
            })
        );
        let pin = Some(Precision::new(5));
        assert_eq!(eng.try_submit_pinned(image(), pin), Ok(1));
        assert_eq!(eng.try_submit_pinned(image(), None), Ok(2));
        assert_eq!(eng.try_submit(image()), Ok(3));
        let drawn = stream(&random(), 3, 2);
        assert_eq!(
            schedule(&eng.flush()),
            [drawn[0], pin, None, drawn[1]],
            "{surface}: a rejection or a pin moved the stream"
        );

        // Degrade levels shift the value a draw maps to, never the stream
        // position; floors hold however degraded the engine is.
        let mut eng = make(random(), cfg(9));
        eng.set_degrade_level(9); // clamps to the set's max useful level
        assert_eq!(eng.degrade_level(), 4);
        eng.submit(image()); // window {4}: the value is pinned, the draw still happens
        eng.try_submit_floored(image(), Some(Precision::new(6)))
            .unwrap(); // the floor wins over the level
        eng.set_degrade_level(0);
        eng.submit(image());
        let got = schedule(&eng.flush());
        assert_eq!(got[0], Some(Precision::new(4)), "{surface}");
        assert!(got[1].unwrap().bits() >= 6, "{surface}: below the floor");
        assert_eq!(got[2], stream(&random(), 9, 3)[2], "{surface}");

        // Stats count requests, micro-batches and frames; cycles count
        // non-empty flushes.
        let mut eng = make(PrecisionPolicy::Fixed(pin), cfg(6));
        assert!(eng.flush().is_empty());
        assert_eq!(eng.cycles(), 0, "{surface}: an empty flush is no cycle");
        assert!(eng.serve(&images(7, 7)).iter().all(|r| r.precision == pin));
        let s = eng.stats();
        assert_eq!((s.requests, s.cost.frames, eng.cycles()), (7, 7, 1));
        assert!(
            (2..=7).contains(&s.batches),
            "{surface}: {} batches",
            s.batches
        );
    }

    #[test]
    fn inline_executor_meets_the_contract() {
        contract("inline", &|p, c| Engine::new(replica(), p, c));
    }

    #[test]
    fn sharded_executor_meets_the_contract_at_1_2_and_5_workers() {
        for workers in [1usize, 2, 5] {
            contract(&format!("{workers} workers"), &|p, c| {
                ShardedEngine::with_factory(workers, |_| replica(), p, c)
            });
        }
    }

    #[test]
    fn cost_ledger_is_bitwise_equal_on_every_executor() {
        use tia_dataflow::{EvoSearch, SearchMode};
        let sim = || {
            let small = EvoSearch {
                population: 8,
                cycles: 3,
                mode: SearchMode::Full,
            };
            let accel = tia_sim::Accelerator::ours().with_search(small);
            SimBacked::new(
                replica(),
                accel,
                tia_nn::workload::NetworkSpec::resnet18_cifar(),
            )
        };
        let policy = || PrecisionPolicy::Random(PrecisionSet::new(&[4, 8]));
        let bits = |s: EngineStats| [s.cost.cycles, s.cost.energy, s.cost.fps].map(f64::to_bits);
        let x = images(11, 5);
        let mut inline = Engine::new(sim(), policy(), cfg(44));
        let _ = inline.serve(&x);
        let want = inline.stats();
        assert!(want.cost.modeled);
        for workers in [1usize, 2, 5] {
            let mut eng = ShardedEngine::with_factory(workers, |_| sim(), policy(), cfg(44));
            let _ = eng.serve(&x);
            assert_eq!(bits(eng.stats()), bits(want), "{workers} workers");
        }
    }

    #[test]
    fn inline_batches_are_full_precision_groups() {
        let mut eng = Engine::new(
            replica(),
            PrecisionPolicy::Fixed(Some(Precision::new(8))),
            EngineConfig::default().with_max_batch(3),
        );
        let _ = eng.serve(&images(7, 7));
        let s = eng.stats();
        assert_eq!(s.batches, 3); // 3 + 3 + 1
        assert!((s.mean_batch() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_restores_caller_visible_precision() {
        let mut eng = Engine::new(replica(), PrecisionPolicy::Random(set()), cfg(0));
        eng.backend_mut().set_precision(Some(Precision::new(8)));
        let _ = eng.serve(&images(6, 6));
        assert_eq!(eng.backend_mut().precision(), Some(Precision::new(8)));
    }

    #[test]
    #[should_panic(expected = "single [C, H, W] image")]
    fn submit_rejects_batched_input() {
        let mut eng = Engine::new(replica(), PrecisionPolicy::Fixed(None), cfg(0));
        eng.submit(Tensor::zeros(&[1, 3, 8, 8]));
    }

    #[test]
    #[should_panic(expected = "image shape changed mid-stream")]
    fn submit_rejects_mixed_shapes() {
        // Same element count, different layout — would silently corrupt the
        // coalesced batch if accepted.
        let mut eng = Engine::new(replica(), PrecisionPolicy::Fixed(None), cfg(0));
        eng.submit(image());
        eng.submit(Tensor::zeros(&[8, 3, 8]));
    }
}
