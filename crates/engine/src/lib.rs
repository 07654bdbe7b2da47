//! # tia-engine
//!
//! The unified inference surface of the 2-in-1 Accelerator reproduction:
//! one batched, policy-driven serving layer that everything else — attacks,
//! robust evaluation, benchmarks, example workloads — sits on.
//!
//! The paper's defender *deploys* Random Precision Switch: it serves
//! traffic while sampling a precision per query (Alg. 1, §4.2), and the
//! hardware half prices every precision choice in cycles and energy
//! (§3–§4). This crate makes that deployment story first-class:
//!
//! * [`Backend`] — a batched, precision-switchable executor with a
//!   [`Backend::cost`] pricing hook. Implemented by `tia_nn::Network` (the
//!   software path) and by [`SimBacked`], which co-simulates every served
//!   batch through [`tia_sim::Accelerator`] to report cycles/energy/FPS
//!   alongside logits.
//! * [`PrecisionPolicy`] — fixed or RPS precision selection (absorbing the
//!   old `InferencePolicy` of `tia-core`), sampled once per request.
//! * [`Coordinator`] — the one micro-batching request queue: submit
//!   single-image requests, each is assigned its id and its precision (one
//!   draw from the seeded policy stream) *at submit time*, and a flush
//!   coalesces equal-precision requests into batches of at most `max_batch`
//!   and returns responses in submission order. Two [`Executor`]s sit
//!   behind it, chosen by the constructor:
//!   * [`Engine`] (`Engine::new(backend, …)`) runs [`Inline`] on the
//!     caller's thread — no thread spawned, borrowed (`&mut B`) and
//!     non-`Send` backends welcome;
//!   * [`ShardedEngine`] (`ShardedEngine::new(replicas, …)`) runs on
//!     [`Shards`]: N plain `std::thread` workers, each looping the inline
//!     executor over its own backend replica.
//!
//!   The schedule is fixed before an executor sees a request, so logits,
//!   precision schedule and cost ledger are identical on either executor
//!   at *any* worker count (see the [`Coordinator`] determinism contract).
//!
//! Because every layer calibrates its quantizers per sample (and the tiled
//! GEMM in `tia-tensor` accumulates in a batch-size-invariant order),
//! engine logits are **bitwise identical** to per-sample `Network::forward`
//! at every precision — batching and sharding are pure throughput wins.
//!
//! # Example
//!
//! ```
//! use tia_engine::{Engine, EngineConfig, PrecisionPolicy};
//! use tia_nn::zoo;
//! use tia_quant::PrecisionSet;
//! use tia_tensor::{SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let set = PrecisionSet::range(4, 8);
//! let net = zoo::preact_resnet18_rps(3, 4, 10, set.clone(), &mut rng);
//!
//! // Serve 6 requests through the RPS policy in micro-batches of 4.
//! let cfg = EngineConfig::default().with_max_batch(4).with_seed(7);
//! let mut engine = Engine::new(net, PrecisionPolicy::Random(set), cfg);
//! let x = Tensor::rand_uniform(&[6, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let responses = engine.serve(&x);
//! assert_eq!(responses.len(), 6);
//! assert!(responses.iter().all(|r| r.precision.is_some()));
//! assert_eq!(engine.stats().requests, 6);
//! ```
//!
//! To scale the same traffic across threads, hand [`ShardedEngine`] one
//! replica per worker (see its type-level example).

#![deny(missing_docs)]

mod backend;
mod cost;
mod engine;
mod policy;
mod sharded;
mod sim_backed;

pub use backend::{Backend, LossKind};
pub use cost::BatchCost;
pub use engine::{
    Coordinator, Engine, EngineConfig, EngineStats, Executor, Inline, RequestId, Response,
    SubmitError,
};
pub use policy::PrecisionPolicy;
pub use sharded::{ShardedEngine, Shards};
pub use sim_backed::SimBacked;
