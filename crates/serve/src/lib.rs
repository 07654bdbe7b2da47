//! # tia-serve
//!
//! The dependency-free TCP serving front-end of the 2-in-1 Accelerator
//! reproduction: a `std::net` server that puts a *network boundary*,
//! backpressure, and live observability in front of the deterministic
//! in-process serving runtime ([`tia_engine::ShardedEngine`]).
//!
//! * [`wire`] — a length-prefixed binary protocol with explicit
//!   request-id, precision-policy and deadline/priority-class
//!   fields, and strict malformed-frame rejection.
//! * [`server`] — the connection acceptor, per-connection reader threads,
//!   and the deadline-aware EDF batch scheduler that owns the engine's
//!   submit/flush cycle; bounded-queue admission control (503-style
//!   [`wire::RejectCode`] frames), deadline shedding
//!   ([`wire::RejectCode::DeadlineExceeded`]) and graceful drain on
//!   shutdown.
//! * [`control`] — the adaptive precision control loop: a feedback
//!   state machine that watches live pressure (EDF window fill,
//!   deadline-shed fraction, windowed per-class p99) and shifts the
//!   engine's RPS mix toward lower bit-widths under overload, recovering
//!   when pressure clears, with hysteresis bands, a cooldown, and
//!   per-class precision floors that make SLOs first-class.
//! * [`metrics`] — an atomic counter/histogram registry (RPS counters,
//!   queue depth, per-precision batch mix, p50/p99 latency, controller
//!   state) exposed in Prometheus text format on a second port.
//! * [`trace`] — the per-request flight recorder: lock-free per-thread
//!   rings of clock-seam-stamped stage events, reconstructed into
//!   per-request spans and exported as stage-latency histograms, a
//!   [`server::Server::drain_trace`] API, and Chrome trace-event JSON.
//! * [`client`] / [`load`] — a blocking pipelining client plus open- and
//!   closed-loop load generation, shared by the `tia-loadgen` binary, the
//!   benchmarks and the integration tests.
//!
//! The paper's random-precision-switch defense only matters in deployment
//! if the serving surface preserves the seeded precision schedule
//! end-to-end. It does: requests arriving on one connection reach the
//! engine in wire order through a single batcher thread, so TCP-served
//! logits are **bitwise identical** to an in-process
//! [`ShardedEngine`](tia_engine::ShardedEngine) with the same seed fed
//! the same sequence — the loopback integration test enforces exactly
//! this.
//!
//! # Quickstart
//!
//! ```
//! use tia_serve::{Client, Server, ServerConfig, WirePolicy};
//! use tia_engine::{EngineConfig, PrecisionPolicy};
//! use tia_nn::zoo;
//! use tia_quant::PrecisionSet;
//! use tia_tensor::{SeededRng, Tensor};
//!
//! let set = PrecisionSet::range(4, 8);
//! let cfg = ServerConfig::default()
//!     .with_addr("127.0.0.1:0") // pick a free port
//!     .with_workers(2)
//!     .with_input_shape([3, 8, 8])
//!     .with_policy(PrecisionPolicy::Random(set.clone()))
//!     .with_engine(EngineConfig::default().with_max_batch(4).with_seed(7));
//! let server = Server::spawn(cfg, |_| {
//!     zoo::preact_resnet18_rps(3, 4, 10, PrecisionSet::range(4, 8), &mut SeededRng::new(1))
//! })
//! .unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let image = Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut SeededRng::new(2));
//! let reply = client.infer(0, &image, WirePolicy::Server).unwrap();
//! assert!(matches!(reply, tia_serve::Frame::Logits(_)));
//!
//! let engine = server.shutdown(); // graceful drain
//! assert_eq!(engine.stats().requests, 1);
//! ```

#![deny(missing_docs)]

pub mod cli;
pub mod client;
pub mod clock;
pub mod control;
pub mod load;
pub mod metrics;
pub mod server;
pub mod trace;
pub mod wire;

pub use client::{fetch_metrics, fetch_trace, infer_frame, infer_frame_with, Client};
pub use clock::Clock;
pub use control::{ControlConfig, Controller, CycleSample, Decision};
pub use load::{run as run_load, LoadConfig, LoadReport, Ramp, StageBreakdown};
pub use metrics::{ConservationViolation, Histogram, HistogramBaseline, Metrics, MetricsSnapshot};
pub use server::{FaultPlan, Server, ServerConfig};
pub use trace::{Span, SpanEvent, Stage, TraceEvent, TraceSink};
pub use wire::{Class, Frame, InferRequest, InferResponse, RejectCode, WireError, WirePolicy};
