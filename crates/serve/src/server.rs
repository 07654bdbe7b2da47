//! The TCP serving front-end over [`ShardedEngine`].
//!
//! # Threading model
//!
//! ```text
//!            acceptor thread ──── accepts, spawns one reader per conn
//!   conn 1 ─ reader thread ──┐
//!   conn 2 ─ reader thread ──┼─ bounded queue ── batcher thread ── ShardedEngine
//!   conn N ─ reader thread ──┘   (try_send =        (owns the engine and the
//!            metrics thread       admission          submit/flush cycle)
//!            (scrape port)        control)
//! ```
//!
//! Readers decode frames and `try_send` admitted requests into a bounded
//! queue; a full queue turns into an immediate [`RejectCode::QueueFull`]
//! frame (the wire analogue of HTTP 503) written by the reader itself, so
//! overload never blocks the accept path and never grows memory. The
//! batcher is the *only* thread touching the engine: it moves admitted
//! requests from the queue into a bounded scheduling window (a few engine
//! cycles, `WINDOW_CYCLES × workers × max_batch`), forms batches of up to
//! one engine cycle from that window, feeds the engine's `submit`/`flush`
//! cycle, and writes responses back on each request's connection (one
//! `Mutex<TcpStream>` per connection keeps frames atomic between the
//! batcher and that connection's reader).
//!
//! # Deadline-aware batch scheduling
//!
//! The batcher is an earliest-deadline-first (EDF) dynamic batcher, not a
//! plain FIFO. Requests may carry a relative deadline and a priority
//! class on the wire; the scheduler:
//!
//! * orders the window by `(class rank, deadline, arrival)` — interactive
//!   before normal before batch; within a class, earliest deadline first;
//!   deadline-less requests keep FIFO order among themselves. The window
//!   holds several batches' worth of requests, so each batch takes the
//!   most urgent `workers × max_batch` of the whole window: a burst of
//!   slow pinned work cannot head-of-line-block an interactive or tightly
//!   deadlined request for more than the batch already executing;
//! * waits at most [`ServerConfig::max_wait`] to fill a batch, and forms
//!   a **partial batch early** when waiting longer would make the most
//!   urgent admitted request miss its deadline (it reserves a quarter of
//!   each request's deadline budget for execution);
//! * **sheds** requests whose deadline has already expired with a typed
//!   [`RejectCode::DeadlineExceeded`] instead of spending engine cycles
//!   on answers that are already too late. Shed requests consume no draw
//!   from the engine's seeded precision schedule.
//!
//! With the default `max_wait` of zero and no scheduling fields on the
//! wire, the scheduler degrades to exactly the FIFO batcher it replaced:
//! batches form immediately from whatever has arrived, in arrival order.
//!
//! # Determinism across the wire
//!
//! All submissions flow through the single batcher, so for traffic
//! arriving on **one connection** with no deadlines or classes the engine
//! sees the exact submission sequence the client sent, and the seeded
//! precision schedule plus the bitwise-logit guarantee of
//! [`ShardedEngine`] carry over the network unchanged (the loopback
//! integration test pins this, including that `max_wait` delays batch
//! *forming* without perturbing the schedule). Traffic from multiple
//! concurrent connections interleaves at the queue, and deadlines/classes
//! reorder the window by design — each request's *logits* are still
//! bitwise reproducible; only the schedule positions shift, as a pure
//! function of the order in which requests reach the engine.
//!
//! # Shutdown
//!
//! A [`Frame::Shutdown`] (or [`Server::shutdown`]) flips the server into
//! draining: readers refuse new work with [`RejectCode::Draining`], the
//! batcher serves everything already admitted, answers the requester with
//! [`Frame::ShutdownAck`], and exits; [`Server::wait`] then joins every
//! thread and returns the engine for post-mortem inspection.

use crate::clock::Clock;
use crate::control::{ControlConfig, Controller, CycleSample, Decision};
use crate::metrics::{HistogramBaseline, Metrics, STAGE_NAMES};
use crate::trace::{self, Ring, Span, Stage, TraceSink};
use crate::wire::{Class, Frame, InferResponse, RejectCode, WirePolicy};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tia_engine::{Backend, EngineConfig, PrecisionPolicy, RequestId, ShardedEngine};
use tia_quant::PrecisionSet;
use tia_tensor::{SeededRng, Tensor};

/// Deterministic fault injection for chaos testing, threaded through the
/// server's admission and batching paths via [`ServerConfig::with_faults`].
///
/// Every knob defaults to off, and a default (no-op) plan leaves the hot
/// path untouched apart from a handful of counter checks. The plan's
/// purpose is to let a harness *induce* the overload and slowness windows
/// that are otherwise hard to hit reliably — and, via the sabotage knob, to
/// prove the harness's own invariant checker actually catches violations.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Reject every `n`-th admission attempt (1-based, counted across all
    /// connections) as [`RejectCode::QueueFull`] even when the queue has
    /// room — an induced queue-full window. Injected rejects are counted in
    /// both `rejected_queue_full` and `faults_injected`.
    pub queue_full_every: Option<u64>,
    /// Stall the batcher for [`FaultPlan::slow_batch_stall`] before every
    /// `n`-th batch it forms — an induced slow-engine window that backs
    /// work up into the bounded queue.
    pub slow_batch_every: Option<u64>,
    /// How long each induced batcher stall lasts (wall time; ignored unless
    /// `slow_batch_every` is set).
    pub slow_batch_stall: Duration,
    /// Sabotage: write every `Logits` response twice (and count it twice).
    /// This deliberately breaks the answered-exactly-once contract so a
    /// chaos harness can verify its checker catches real violations; it is
    /// never useful in production.
    pub double_ack: bool,
}

impl FaultPlan {
    /// A plan with every fault disabled (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Rejects every `n`-th admission as queue-full (see
    /// [`FaultPlan::queue_full_every`]). `n` is clamped to at least 1.
    pub fn with_queue_full_every(mut self, n: u64) -> Self {
        self.queue_full_every = Some(n.max(1));
        self
    }

    /// Stalls the batcher for `stall` before every `n`-th batch (see
    /// [`FaultPlan::slow_batch_every`]). `n` is clamped to at least 1.
    pub fn with_slow_batch(mut self, n: u64, stall: Duration) -> Self {
        self.slow_batch_every = Some(n.max(1));
        self.slow_batch_stall = stall;
        self
    }

    /// Enables the double-ack sabotage (see [`FaultPlan::double_ack`]).
    pub fn with_double_ack(mut self) -> Self {
        self.double_ack = true;
        self
    }
}

/// Serving front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address of the wire-protocol listener (`:0` picks a free port).
    pub addr: String,
    /// Bind address of the Prometheus scrape listener; `None` disables it.
    pub metrics_addr: Option<String>,
    /// Engine worker shards.
    pub workers: usize,
    /// Bounded request-queue capacity; admissions beyond it are rejected
    /// with [`RejectCode::QueueFull`].
    pub queue_capacity: usize,
    /// The one `[C, H, W]` geometry this server serves; anything else is
    /// rejected with [`RejectCode::BadShape`].
    pub input_shape: [usize; 3],
    /// Engine tuning (micro-batch size, seed, kernel mode).
    pub engine: EngineConfig,
    /// The serving precision policy ([`WirePolicy::Server`] requests follow
    /// it on the seeded schedule).
    pub policy: PrecisionPolicy,
    /// How long the scheduler waits to fill a batch before forming a
    /// partial one. Zero (the default) forms immediately from whatever has
    /// arrived — the exact behaviour of the FIFO batcher this scheduler
    /// replaced. A deadline inside the wait window forms the batch early.
    pub max_wait: Duration,
    /// Start with the batcher paused (requests queue — and overflow rejects
    /// — until [`Server::resume`]). For staged startup and backpressure
    /// tests.
    pub start_paused: bool,
    /// The time source for all schedule-affecting reads (deadline
    /// anchoring, batch-forming waits, expiry shedding). Defaults to the
    /// real clock; inject a [`Clock::manual`] to drive deadline logic
    /// deterministically in tests.
    pub clock: Clock,
    /// Injected faults for chaos testing; defaults to none.
    pub faults: FaultPlan,
    /// Adaptive precision control (see [`crate::control`]): when set, the
    /// batcher steps a feedback [`Controller`] at every engine-cycle
    /// boundary, degrading the RPS mix toward lower bit-widths under
    /// overload and recovering when pressure clears, with the configured
    /// per-class floors binding every [`WirePolicy::Server`] submission.
    /// A [`PrecisionPolicy::Random`] serving policy is promoted to
    /// [`PrecisionPolicy::Adaptive`] at spawn so the controller has a
    /// window to narrow. `None` (the default) leaves the hot path
    /// untouched.
    pub control: Option<ControlConfig>,
    /// Enables the flight recorder (see [`crate::trace`]): every serving
    /// thread records per-request stage events into its own lock-free
    /// ring, exposed via [`Server::drain_trace`], the scrape port's
    /// `/trace` endpoint (Chrome trace-event JSON), and the slow-request
    /// exemplars. Off by default; the steady-state recording cost is a few
    /// relaxed atomic stores per stage and zero heap allocations (the
    /// stage histograms in the metrics exposition are recorded either
    /// way).
    pub trace: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            workers: 1,
            queue_capacity: 1024,
            input_shape: [3, 16, 16],
            engine: EngineConfig::default(),
            policy: PrecisionPolicy::Fixed(None),
            max_wait: Duration::ZERO,
            start_paused: false,
            clock: Clock::real(),
            faults: FaultPlan::default(),
            control: None,
            trace: false,
        }
    }
}

impl ServerConfig {
    /// Sets the wire listener bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Enables the Prometheus scrape listener on `addr`.
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Sets the engine worker shard count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the bounded queue capacity (clamped to at least 1).
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Sets the served image geometry.
    pub fn with_input_shape(mut self, shape: [usize; 3]) -> Self {
        self.input_shape = shape;
        self
    }

    /// Sets the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the serving policy.
    pub fn with_policy(mut self, policy: PrecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the batch-forming wait (see [`ServerConfig::max_wait`]).
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Starts the batcher paused (see [`ServerConfig::start_paused`]).
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Injects a time source (see [`ServerConfig::clock`]).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Arms a fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables the adaptive precision controller (see
    /// [`ServerConfig::control`]).
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = Some(control);
        self
    }

    /// Enables the flight recorder (see [`ServerConfig::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Deliberately discards a best-effort result (socket teardown, wakeup
/// pokes, already-reported I/O) where failure is benign and there is no
/// one left to tell. Naming the discard keeps the error-hygiene lint's
/// `let _ =` ban meaningful everywhere else.
pub(crate) fn best_effort<T, E>(res: Result<T, E>) {
    drop(res);
}

/// One client connection's write half, shared between its reader (rejects,
/// pongs, errors) and the batcher (responses). The mutex keeps frames
/// atomic; a failed write marks the connection dead and later sends become
/// no-ops.
struct Conn {
    stream: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl Conn {
    fn send(&self, frame: &Frame) {
        // ordering: relaxed — `alive` is an advisory fast-path skip; a stale
        // read only means one extra write attempt, which fails harmlessly.
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = match self.stream.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        if frame.write_to(&mut *guard).is_err() {
            // ordering: relaxed — advisory flag, see the load above.
            self.alive.store(false, Ordering::Relaxed);
            // Tear the socket down, not just the flag: the peer learns the
            // connection is dead instead of hanging on recv forever, and
            // this connection's reader unblocks and exits rather than
            // admitting more requests whose responses would be dropped.
            best_effort(guard.shutdown(SockShutdown::Both));
        }
    }

    fn close(&self) {
        // ordering: relaxed — advisory flag; the socket shutdown below is
        // what actually unblocks the peer and the reader.
        self.alive.store(false, Ordering::Relaxed);
        if let Ok(guard) = self.stream.lock() {
            best_effort(guard.shutdown(SockShutdown::Both));
        }
    }
}

/// State shared by every server thread.
struct Shared {
    /// The injectable time source every schedule-affecting read goes
    /// through (see [`crate::clock`]).
    clock: Clock,
    /// Behind its own `Arc` so callers can hold the registry across the
    /// server's shutdown and assert post-drain invariants (readers joined,
    /// queue gauge at zero) after the `Server` handle is consumed.
    metrics: Arc<Metrics>,
    /// The armed fault plan (default: no-op).
    faults: FaultPlan,
    /// Admission attempts across all connections, driving the fault plan's
    /// queue-full windows.
    admissions: AtomicU64,
    /// Set when shutdown begins: readers refuse new inference work.
    draining: AtomicBool,
    /// Set when the batcher has exited: accept loops stop.
    stopped: AtomicBool,
    /// While set, the batcher does not consume the queue.
    paused: AtomicBool,
    /// Admission barrier closing the drain race: readers hold a *read*
    /// guard across their draining-check + `try_send`; the batcher's stop
    /// path takes (and releases) a *write* guard after setting `draining`
    /// and before its final queue sweep, which waits out every admission
    /// already in flight — so nothing can land in the queue after the
    /// sweep that the drain contract promised to serve.
    admission: std::sync::RwLock<()>,
    input_shape: [usize; 3],
    conns: Mutex<Vec<Arc<Conn>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// The flight recorder, when [`ServerConfig::trace`] enabled it. Each
    /// serving thread registers its own ring at thread start; `None` keeps
    /// the hot path free of even the per-event branch's ring accesses.
    trace: Option<Arc<TraceSink>>,
}

/// One admitted inference request, as it travels from its reader into the
/// batcher's scheduling window.
struct IncomingReq {
    conn: Arc<Conn>,
    wire_id: u64,
    policy: WirePolicy,
    image: Tensor,
    enqueued: Instant,
    /// Absolute deadline, anchored at admission (`enqueued +
    /// deadline_ms`); `None` = serve whenever.
    deadline: Option<Instant>,
    class: Class,
    /// Flight-recorder trace id (0 = untraced; see
    /// [`crate::trace::TraceSink::next_request_id`]).
    trace: u64,
    /// When the batcher pulled the request into the scheduling window
    /// (initialized to `enqueued`, stamped at intake) — the boundary
    /// between the queue-wait and window stages in the latency breakdown.
    window_at: Instant,
}

impl IncomingReq {
    /// The latest instant the scheduler may hold this request back while
    /// filling a batch: `enqueued + max_wait`, pulled forward to leave a
    /// quarter of the deadline budget for execution.
    fn latest_form(&self, max_wait: Duration) -> Instant {
        let by_wait = self.enqueued + max_wait;
        match self.deadline {
            None => by_wait,
            Some(d) => {
                let budget = d.saturating_duration_since(self.enqueued);
                by_wait.min(self.enqueued + (budget - budget / 4))
            }
        }
    }

    /// Whether the deadline has already passed at `now`.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }
}

/// A queue entry: one admitted request, or the shutdown marker.
enum Item {
    Infer(Box<IncomingReq>),
    /// Drain and exit; `conn` (if any) receives the [`Frame::ShutdownAck`].
    Shutdown {
        conn: Option<Arc<Conn>>,
    },
}

/// One request inside the scheduling window: the incoming request plus its
/// arrival rank.
struct PendingReq {
    /// Arrival order within the batcher — the EDF tie-breaker that keeps
    /// deadline-less same-class traffic in FIFO order.
    seq: u64,
    req: Box<IncomingReq>,
}

/// EDF scheduling order: class rank, then earliest deadline (deadline-less
/// requests sort after every deadlined one), then arrival.
fn edf_order(a: &PendingReq, b: &PendingReq) -> std::cmp::Ordering {
    a.req
        .class
        .rank()
        .cmp(&b.req.class.rank())
        .then_with(|| match (a.req.deadline, b.req.deadline) {
            (Some(x), Some(y)) => x.cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        })
        .then_with(|| a.seq.cmp(&b.seq))
}

/// How many engine cycles' worth of requests the scheduling window may
/// hold. A window larger than one batch is what gives EDF real authority:
/// the sort picks the most urgent `max_take` out of up to
/// `WINDOW_CYCLES × max_take` candidates, so an interactive or tightly
/// deadlined request admitted behind a burst of slow work overtakes it at
/// the next batch boundary instead of waiting out the whole backlog.
const WINDOW_CYCLES: usize = 4;

/// Where a flushed engine response goes back out, carrying the stage
/// timestamps accumulated so far so the response path can derive the full
/// latency breakdown without re-walking the trace.
struct Route {
    conn: Arc<Conn>,
    wire_id: u64,
    enqueued: Instant,
    class: Class,
    /// Flight-recorder trace id (0 = untraced).
    trace: u64,
    /// Window-entry instant (see [`IncomingReq::window_at`]).
    window_at: Instant,
    /// Engine-submit instant (the batch-forming cycle's timestamp).
    submitted_at: Instant,
}

/// A running TCP serving front-end; see the [module docs](self) for the
/// threading model. Dropping the handle shuts the server down (preferring
/// [`Server::shutdown`] or [`Server::wait`], which return the engine).
pub struct Server<B: Backend + Send + 'static> {
    shared: Arc<Shared>,
    submit_tx: SyncSender<Item>,
    batcher: Option<JoinHandle<ShardedEngine<B>>>,
    acceptor: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

impl<B: Backend + Send + 'static> Server<B> {
    /// Binds the listeners, builds one backend replica per worker shard
    /// from `factory`, and spawns the serving threads.
    pub fn spawn(cfg: ServerConfig, factory: impl FnMut(usize) -> B) -> io::Result<Self> {
        if let Some(ctrl) = &cfg.control {
            // A misconfigured hysteresis band oscillates silently; fail at
            // spawn instead.
            ctrl.validate()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        // With a controller armed, a static RPS mix becomes the adaptive
        // window the controller narrows. The promotion is draw-for-draw
        // identical at level 0, so enabling control never perturbs the
        // unloaded schedule.
        let policy = match (&cfg.control, cfg.policy.clone()) {
            (Some(_), PrecisionPolicy::Random(set)) => PrecisionPolicy::Adaptive(set),
            (_, p) => p,
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = metrics_listener.as_ref().and_then(|l| l.local_addr().ok());

        let engine = ShardedEngine::with_factory(
            cfg.workers.max(1),
            factory,
            policy.clone(),
            cfg.engine.clone(),
        );
        let shared = Arc::new(Shared {
            clock: cfg.clock.clone(),
            metrics: Arc::new(Metrics::new()),
            faults: cfg.faults.clone(),
            admissions: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            paused: AtomicBool::new(cfg.start_paused),
            admission: std::sync::RwLock::new(()),
            input_shape: cfg.input_shape,
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            trace: cfg
                .trace
                .then(|| Arc::new(TraceSink::new(cfg.clock.clone()))),
        });
        let (submit_tx, submit_rx) = sync_channel::<Item>(cfg.queue_capacity.max(1));

        // One full engine cycle admits at most every shard's worth of
        // micro-batches; anything beyond that waits one flush in the queue.
        let max_take = (cfg.workers.max(1) * cfg.engine.max_batch).max(1);
        // Stream backing WirePolicy::Random requests — decorrelated from the
        // engine's schedule stream so explicit-policy traffic cannot consume
        // the server schedule's draws.
        let req_rng = SeededRng::new(cfg.engine.seed ^ 0x5EED_5EED_5EED_5EED);
        let max_wait = cfg.max_wait;
        let adaptive = cfg.control.clone().map(|ctrl| {
            let set = match &policy {
                PrecisionPolicy::Adaptive(set) => Some(set.clone()),
                _ => None,
            };
            Adaptive {
                ctrl: Controller::new(ctrl, policy.max_degrade_level()),
                set,
                baselines: std::array::from_fn(|i| shared.metrics.latency_by_class[i].baseline()),
                sheds: 0,
            }
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                batcher_loop(
                    engine, submit_rx, shared, req_rng, max_take, max_wait, adaptive,
                )
            })
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let tx = submit_tx.clone();
            std::thread::spawn(move || acceptor_loop(listener, shared, tx))
        };
        let metrics_thread = metrics_listener.map(|l| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || metrics_loop(l, shared))
        });
        Ok(Self {
            shared,
            submit_tx,
            batcher: Some(batcher),
            acceptor: Some(acceptor),
            metrics_thread,
            addr,
            metrics_addr,
        })
    }

    /// The wire listener's bound address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape listener's bound address, when metrics are enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// A handle to the metrics registry that outlives the server: hold one
    /// before [`Server::shutdown`]/[`Server::wait`] to assert post-drain
    /// invariants (thread liveness, queue gauge, conservation) after the
    /// engine has been returned.
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// A handle to the flight recorder that outlives the server (mirrors
    /// [`Server::metrics_handle`]); `None` unless
    /// [`ServerConfig::with_trace`] enabled tracing. Hold one before
    /// shutdown to export or inspect the trace after the drain.
    pub fn trace_handle(&self) -> Option<Arc<TraceSink>> {
        self.shared.trace.as_ref().map(Arc::clone)
    }

    /// Reconstructs per-request spans from the flight recorder's current
    /// contents (see [`crate::trace::spans`]). Non-destructive; empty when
    /// tracing is disabled. Exact once the server has quiesced (paused and
    /// settled, or drained); a mid-flight call sees whatever stages have
    /// been recorded so far.
    pub fn drain_trace(&self) -> Vec<Span> {
        match &self.shared.trace {
            Some(sink) => trace::spans(&sink.drain()),
            None => Vec::new(),
        }
    }

    /// Unpauses a [`ServerConfig::start_paused`] batcher.
    pub fn resume(&self) {
        // ordering: SeqCst — pause/drain/stop flags share one total order so
        // the shutdown handshake (drain -> resume -> marker) cannot reorder.
        self.shared.paused.store(false, Ordering::SeqCst);
    }

    /// Initiates a graceful drain (everything already admitted is served),
    /// waits for completion, and returns the engine.
    pub fn shutdown(mut self) -> ShardedEngine<B> {
        // ordering: SeqCst — must be globally visible before the admission
        // write barrier in the batcher's stop path sequences the drain.
        self.shared.draining.store(true, Ordering::SeqCst);
        // Resume *before* the blocking send: with a paused batcher and a
        // full queue, the marker could otherwise never be consumed.
        self.resume();
        best_effort(self.submit_tx.send(Item::Shutdown { conn: None }));
        // tia-lint: allow(panic-freedom, finish() is Some on the first call and shutdown consumes self)
        self.finish().expect("server already shut down")
    }

    /// Waits for a client-initiated [`Frame::Shutdown`] drain to complete,
    /// then returns the engine.
    pub fn wait(mut self) -> ShardedEngine<B> {
        // tia-lint: allow(panic-freedom, finish() is Some on the first call and wait consumes self)
        self.finish().expect("server already shut down")
    }

    /// Joins every thread: batcher first (it exits once a shutdown item
    /// arrives), then the accept loops (unblocked by a dummy connection),
    /// then the readers (unblocked by closing their sockets).
    fn finish(&mut self) -> Option<ShardedEngine<B>> {
        let batcher = self.batcher.take()?;
        self.resume(); // A paused batcher would never see the shutdown item.
                       // tia-lint: allow(panic-freedom, a batcher panic is unrecoverable server state — propagating it is the only honest option)
        let engine = batcher.join().expect("serve batcher thread panicked");
        // ordering: SeqCst — stop flag shares the shutdown total order; the
        // accept loops poll it after their wakeup pokes below.
        self.shared.stopped.store(true, Ordering::SeqCst);
        best_effort(TcpStream::connect(self.addr));
        if let Some(ma) = self.metrics_addr {
            best_effort(TcpStream::connect(ma));
        }
        if let Some(h) = self.acceptor.take() {
            best_effort(h.join());
        }
        if let Some(h) = self.metrics_thread.take() {
            best_effort(h.join());
        }
        let conns: Vec<Arc<Conn>> = match self.shared.conns.lock() {
            Ok(mut g) => g.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for c in conns {
            c.close();
        }
        let readers: Vec<JoinHandle<()>> = match self.shared.readers.lock() {
            Ok(mut g) => g.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for h in readers {
            best_effort(h.join());
        }
        Some(engine)
    }
}

impl<B: Backend + Send + 'static> Drop for Server<B> {
    fn drop(&mut self) {
        if self.batcher.is_some() {
            // ordering: SeqCst — same drain handshake as shutdown().
            self.shared.draining.store(true, Ordering::SeqCst);
            self.resume();
            best_effort(self.submit_tx.send(Item::Shutdown { conn: None }));
            drop(self.finish());
        }
    }
}

/// Accepts connections until the server stops; one reader thread each.
fn acceptor_loop(listener: TcpListener, shared: Arc<Shared>, tx: SyncSender<Item>) {
    let ring = shared
        .trace
        .as_ref()
        .map(|s| s.register("acceptor", trace::ACCEPTOR_RING_SLOTS));
    let mut conn_seq = 0u64;
    for stream in listener.incoming() {
        // ordering: SeqCst — stop flag; pairs with the store in finish().
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        best_effort(stream.set_nodelay(true));
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        // A slow (or never-reading) client must not park the batcher inside
        // a response write forever: time the write out, after which the
        // connection is torn down and later sends become no-ops. Until
        // responses are written off the batcher thread (per-connection
        // writer threads — a known follow-up), one misbehaving connection
        // can still stall everyone for up to this timeout, once: the first
        // timeout kills the connection, so it cannot stall twice.
        best_effort(write_half.set_write_timeout(Some(Duration::from_secs(2))));
        // ordering: relaxed — independent metrics counters; scrapes tolerate
        // momentary skew between them.
        shared
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        // ordering: relaxed — metrics gauge, see above.
        shared
            .metrics
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        conn_seq += 1;
        if let Some(r) = &ring {
            r.record(Stage::Accept, conn_seq, 0, 0);
        }
        let conn = Arc::new(Conn {
            stream: Mutex::new(write_half),
            alive: AtomicBool::new(true),
        });
        if let Ok(mut g) = shared.conns.lock() {
            g.push(Arc::clone(&conn));
        }
        let handle = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || reader_loop(stream, conn, shared, tx, conn_seq))
        };
        if let Ok(mut g) = shared.readers.lock() {
            // Long-lived servers accept unbounded connections over their
            // lifetime; reap the finished readers (their conns were removed
            // on exit) so the registry tracks only live ones.
            g.retain(|h| !h.is_finished());
            g.push(handle);
        }
    }
}

/// Records a flight-recorder [`Stage::Rejected`] terminal for a request
/// refused at admission (no-op when tracing is off).
fn trace_reject(ring: Option<&Ring>, trace_id: u64, wire_id: u64) {
    if let Some(r) = ring {
        let (hi, lo) = trace::wire_id_args(wire_id);
        r.record(Stage::Rejected, trace_id, hi, lo);
    }
}

/// Decodes frames from one connection; admitted requests go to the queue,
/// everything else is answered inline. Exits on EOF, socket teardown, or
/// the first malformed frame (framing can no longer be trusted).
fn reader_loop(
    mut stream: TcpStream,
    conn: Arc<Conn>,
    shared: Arc<Shared>,
    tx: SyncSender<Item>,
    conn_seq: u64,
) {
    use crate::wire::WireError;
    let m = &shared.metrics;
    let ring = shared
        .trace
        .as_ref()
        .map(|s| s.register(&format!("reader-{conn_seq}"), trace::READER_RING_SLOTS));
    // ordering: relaxed — liveness gauge; the join in finish() is the real
    // synchronization edge, the gauge just names what it observed.
    m.readers_live.fetch_add(1, Ordering::Relaxed);
    // Set when this side ends the conversation (protocol violation): the
    // peer may still have bytes in flight, and closing with unread receive
    // data can turn into a RST that destroys our final Error frame. Drain
    // briefly before closing so the report survives.
    let mut drain_before_close = false;
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Frame::Infer(req)) => {
                let trace_id = match &shared.trace {
                    Some(sink) => sink.next_request_id(),
                    None => 0,
                };
                if let Some(r) = &ring {
                    let (hi, lo) = trace::wire_id_args(req.id);
                    r.record(Stage::FrameDecoded, trace_id, hi, lo);
                }
                if req.shape != shared.input_shape {
                    // ordering: relaxed — metrics counter.
                    m.rejected_bad_shape.fetch_add(1, Ordering::Relaxed);
                    trace_reject(ring.as_deref(), trace_id, req.id);
                    conn.send(&Frame::Reject {
                        id: req.id,
                        code: RejectCode::BadShape,
                    });
                    continue;
                }
                // The draining check and the enqueue happen under one
                // admission read guard (see `Shared::admission`): either
                // this request is admitted before the batcher's final
                // drain sweep, or it observes `draining` and is rejected —
                // it can never be admitted and then silently dropped.
                let admission = shared.admission.read();
                // ordering: SeqCst — the drain flag must be checked in the
                // same total order the batcher's stop path establishes, or
                // an admitted request could be silently dropped.
                if shared.draining.load(Ordering::SeqCst) {
                    drop(admission);
                    // ordering: relaxed — metrics counter.
                    m.rejected_draining.fetch_add(1, Ordering::Relaxed);
                    trace_reject(ring.as_deref(), trace_id, req.id);
                    conn.send(&Frame::Reject {
                        id: req.id,
                        code: RejectCode::Draining,
                    });
                    continue;
                }
                // Induced queue-full window: the fault plan may turn this
                // admission attempt into a reject even though the queue has
                // room — same frame, same counters as the organic path,
                // plus the injection counter.
                if let Some(n) = shared.faults.queue_full_every {
                    // ordering: relaxed — the fault schedule only needs each
                    // attempt counted once, not a cross-thread order.
                    let attempt = shared.admissions.fetch_add(1, Ordering::Relaxed) + 1;
                    if attempt.is_multiple_of(n) {
                        drop(admission);
                        // ordering: relaxed — metrics counters.
                        m.faults_injected.fetch_add(1, Ordering::Relaxed);
                        // ordering: relaxed — metrics counter.
                        m.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                        trace_reject(ring.as_deref(), trace_id, req.id);
                        conn.send(&Frame::Reject {
                            id: req.id,
                            code: RejectCode::QueueFull,
                        });
                        continue;
                    }
                }
                // The wire deadline is relative; anchor it at admission so
                // queue time counts against it.
                let enqueued = shared.clock.now();
                let item = Item::Infer(Box::new(IncomingReq {
                    conn: Arc::clone(&conn),
                    wire_id: req.id,
                    policy: req.policy,
                    image: Tensor::from_vec(req.pixels, &req.shape),
                    enqueued,
                    deadline: req
                        .deadline_ms
                        .map(|ms| enqueued + Duration::from_millis(u64::from(ms))),
                    class: req.class,
                    trace: trace_id,
                    window_at: enqueued,
                }));
                // Gauge up *before* the send: the batcher's decrement can
                // otherwise race ahead of the increment and wrap below 0.
                // ordering: relaxed — approximate gauge; the channel send is
                // the real synchronization edge for the request itself.
                m.queue_depth.fetch_add(1, Ordering::Relaxed);
                let outcome = tx.try_send(item);
                drop(admission);
                match outcome {
                    Ok(()) => {
                        // ordering: relaxed — metrics counter.
                        m.requests_total.fetch_add(1, Ordering::Relaxed);
                        if let Some(r) = &ring {
                            // Both stamped at the admission instant the
                            // deadline was anchored to, so span timestamps
                            // and deadline math agree exactly.
                            let (hi, lo) = trace::wire_id_args(req.id);
                            r.record_at(Stage::Admitted, trace_id, hi, lo, enqueued);
                            r.record_at(Stage::Enqueued, trace_id, 0, 0, enqueued);
                        }
                    }
                    Err(TrySendError::Full(_)) => {
                        // ordering: relaxed — gauge rollback + counter.
                        m.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        // ordering: relaxed — metrics counter.
                        m.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                        trace_reject(ring.as_deref(), trace_id, req.id);
                        conn.send(&Frame::Reject {
                            id: req.id,
                            code: RejectCode::QueueFull,
                        });
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        // ordering: relaxed — gauge rollback + counter.
                        m.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        // ordering: relaxed — metrics counter.
                        m.rejected_draining.fetch_add(1, Ordering::Relaxed);
                        trace_reject(ring.as_deref(), trace_id, req.id);
                        conn.send(&Frame::Reject {
                            id: req.id,
                            code: RejectCode::Draining,
                        });
                    }
                }
            }
            Ok(Frame::Ping) => conn.send(&Frame::Pong),
            Ok(Frame::Shutdown) => {
                // ordering: SeqCst — drain flag, same total order as the
                // admission-barrier handshake.
                shared.draining.store(true, Ordering::SeqCst);
                // Blocking send: the marker must land even when the queue is
                // full, and it must land *after* this connection's admitted
                // requests so the drain covers them.
                best_effort(tx.send(Item::Shutdown {
                    conn: Some(Arc::clone(&conn)),
                }));
            }
            Ok(_) => {
                // Server-to-client kinds arriving at the server are a
                // protocol violation.
                // ordering: relaxed — metrics counter.
                m.bad_frames_total.fetch_add(1, Ordering::Relaxed);
                conn.send(&Frame::Error {
                    msg: "unexpected frame kind from client".to_string(),
                });
                drain_before_close = true;
                break;
            }
            Err(WireError::Closed) | Err(WireError::Io(_)) => break,
            Err(e) => {
                // ordering: relaxed — metrics counter.
                m.bad_frames_total.fetch_add(1, Ordering::Relaxed);
                conn.send(&Frame::Error { msg: e.to_string() });
                drain_before_close = true;
                break;
            }
        }
    }
    if drain_before_close {
        use std::io::Read;
        best_effort(stream.set_read_timeout(Some(Duration::from_millis(200))));
        let mut sink = [0u8; 1024];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }
    conn.close();
    // Deregister so a long-lived server does not accumulate one dead
    // socket per connection it ever served.
    if let Ok(mut g) = shared.conns.lock() {
        g.retain(|c| !Arc::ptr_eq(c, &conn));
    }
    // ordering: relaxed — metrics gauge.
    m.connections_active.fetch_sub(1, Ordering::Relaxed);
    // ordering: relaxed — liveness gauge, see the increment at entry.
    m.readers_live.fetch_sub(1, Ordering::Relaxed);
}

/// The adaptive-precision state the batcher thread owns when a controller
/// is armed (see [`crate::control`]): the feedback state machine itself,
/// the policy's member set (for floor-clamp accounting), and per-class
/// histogram baselines that turn the cumulative latency histograms into
/// the windowed p99 the controller's budgets compare against.
struct Adaptive {
    ctrl: Controller,
    /// The adaptive policy's members; `None` when the serving policy never
    /// degrades (e.g. `Fixed`), in which case floors are vacuous.
    set: Option<PrecisionSet>,
    /// Per-class snapshots taken at the previous controller step
    /// ([`Class::ALL`] wire order).
    baselines: [HistogramBaseline; 3],
    /// Deadline sheds observed since the previous controller step.
    sheds: usize,
}

/// The engine owner: moves queue items into the EDF scheduling window,
/// forms deadline-aware batches, runs submit/flush cycles, routes
/// responses — and, when a controller is armed, steps it once per engine
/// cycle. Returns the engine at shutdown.
fn batcher_loop<B: Backend + Send + 'static>(
    mut engine: ShardedEngine<B>,
    rx: Receiver<Item>,
    shared: Arc<Shared>,
    mut req_rng: SeededRng,
    max_take: usize,
    max_wait: Duration,
    mut adaptive: Option<Adaptive>,
) -> ShardedEngine<B> {
    use std::sync::mpsc::RecvTimeoutError;
    let ring = shared
        .trace
        .as_ref()
        .map(|s| s.register("batcher", trace::BATCHER_RING_SLOTS));
    let ring = ring.as_deref();
    let mut routes: HashMap<RequestId, Route> = HashMap::new();
    let mut book = BatchBook {
        last_stats: engine.stats(),
        batches_formed: 0,
    };
    let mut stop = false;
    let mut ackers: Vec<Arc<Conn>> = Vec::new();
    // The scheduling window: admitted requests the scheduler may still
    // reorder. Bounded by `WINDOW_CYCLES` engine cycles, so eager channel
    // drains cannot defeat the bounded queue's backpressure (total
    // admitted-but-unserved work stays <= queue_capacity + window_cap).
    let mut window: Vec<PendingReq> = Vec::new();
    let mut next_seq = 0u64;
    let mut senders_gone = false;
    'serve: loop {
        // ordering: SeqCst — pause flag, same total order as resume().
        if shared.paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if window.is_empty() && !stop {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(item) => intake(
                    item,
                    &shared,
                    ring,
                    &mut window,
                    &mut next_seq,
                    &mut stop,
                    &mut ackers,
                ),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            }
        }
        // Opportunistic fill, up to the scheduling window's capacity —
        // several engine cycles, so the EDF sort has real candidates to
        // choose the next batch from (a window of exactly one batch would
        // reduce EDF to a draw-order permutation).
        let window_cap = max_take * WINDOW_CYCLES;
        while window.len() < window_cap && !stop {
            match rx.try_recv() {
                Ok(item) => intake(
                    item,
                    &shared,
                    ring,
                    &mut window,
                    &mut next_seq,
                    &mut stop,
                    &mut ackers,
                ),
                Err(_) => break,
            }
        }
        if stop {
            // Shutdown marker seen: `draining` is already set, so take the
            // admission write barrier — it waits until every reader that
            // saw `draining == false` has finished its enqueue. After it,
            // no request can slip into the queue behind the final sweep;
            // the sweep and drain themselves run once, below the loop.
            drop(shared.admission.write());
            break 'serve;
        }
        // Shed requests that expired while queued, before they cost a batch
        // slot or an engine cycle.
        let shed_now = shed_expired(&shared, ring, &mut window);
        if let Some(a) = adaptive.as_mut() {
            a.sheds += shed_now;
        }
        if window.is_empty() {
            continue;
        }
        // Wait for more arrivals only while a full batch is not yet
        // available AND the most urgent request can still afford the wait.
        let now = shared.clock.now();
        let Some(due) = window.iter().map(|r| r.req.latest_form(max_wait)).min() else {
            continue; // empty window: nothing to form (shed took the rest)
        };
        if window.len() < max_take && now < due && !senders_gone {
            // Capped at 10 ms so pause/shutdown stay responsive.
            let wait = (due - now).min(Duration::from_millis(10));
            match rx.recv_timeout(wait) {
                Ok(item) => intake(
                    item,
                    &shared,
                    ring,
                    &mut window,
                    &mut next_seq,
                    &mut stop,
                    &mut ackers,
                ),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => senders_gone = true,
            }
            continue; // re-evaluate fill, expiry and forming time
        }
        // The cycle boundary: sample window pressure as the batch forms,
        // run it, then let the controller react to this cycle's signals.
        let fill = (window.len() as f64 / window_cap as f64).min(1.0);
        let (submitted, shed_in) = form_and_run(
            &mut engine,
            &shared,
            ring,
            &mut req_rng,
            &mut routes,
            &mut window,
            max_take,
            &mut book,
            adaptive.as_ref(),
        );
        if let Some(a) = adaptive.as_mut() {
            a.sheds += shed_in;
            step_adaptive(a, &mut engine, &shared, ring, fill, submitted);
        }
    }
    // The final sweep and drain, shared by both exits (shutdown marker —
    // the admission barrier above guarantees nothing lands behind this
    // sweep — and channel disconnection): everything admitted is served,
    // or shed with a typed reject if its deadline expired during the
    // drain. Still an answer either way.
    while let Ok(item) = rx.try_recv() {
        intake(
            item,
            &shared,
            ring,
            &mut window,
            &mut next_seq,
            &mut stop,
            &mut ackers,
        );
    }
    while !window.is_empty() {
        // Drain cycles keep the floors (an SLO holds through shutdown) but
        // no longer step the controller — there is no load left to react
        // to.
        let _counts = form_and_run(
            &mut engine,
            &shared,
            ring,
            &mut req_rng,
            &mut routes,
            &mut window,
            max_take,
            &mut book,
            adaptive.as_ref(),
        );
    }
    // Every requester gets the ack — including racers whose markers landed
    // behind the first one — and only after the final flush, so the drain
    // contract ("everything admitted is answered before the ack") holds
    // for all of them.
    for conn in ackers {
        conn.send(&Frame::ShutdownAck);
    }
    engine
}

/// Moves one queue item into the scheduling window (or handles the
/// shutdown marker). The queue-depth gauge keeps counting a request until
/// it actually leaves the window (submitted or shed).
fn intake(
    item: Item,
    shared: &Shared,
    ring: Option<&Ring>,
    window: &mut Vec<PendingReq>,
    next_seq: &mut u64,
    stop: &mut bool,
    ackers: &mut Vec<Arc<Conn>>,
) {
    match item {
        Item::Infer(mut req) => {
            // Stamp the queue-wait/window boundary for the stage-latency
            // breakdown (recorded for every request, traced or not).
            req.window_at = shared.clock.now();
            if let Some(r) = ring {
                r.record_at(Stage::WindowEnter, req.trace, 0, 0, req.window_at);
            }
            let seq = *next_seq;
            *next_seq += 1;
            window.push(PendingReq { seq, req });
        }
        Item::Shutdown { conn } => {
            // ordering: SeqCst — drain flag, same total order as the
            // admission-barrier handshake.
            shared.draining.store(true, Ordering::SeqCst);
            *stop = true;
            // Every requester is owed an ack, not just the first.
            if let Some(c) = conn {
                ackers.push(c);
            }
        }
    }
}

/// Sheds every already-expired request in the window with a
/// [`RejectCode::DeadlineExceeded`] frame, returning how many it shed.
/// Shed requests never reach the engine, so they consume no draw from the
/// seeded precision schedule.
fn shed_expired(shared: &Shared, ring: Option<&Ring>, window: &mut Vec<PendingReq>) -> usize {
    let now = shared.clock.now();
    let before = window.len();
    window.retain(|pending| {
        if !pending.req.expired(now) {
            return true;
        }
        shed_one(shared, ring, &pending.req, now);
        false
    });
    before - window.len()
}

/// Answers one expired request with a typed reject and updates the shed
/// accounting. `now` is the expiry-check instant the shed decision was
/// made at — the [`Stage::Shed`] terminal is stamped with it so the trace
/// shows when the scheduler gave up, not when the reject frame went out.
fn shed_one(shared: &Shared, ring: Option<&Ring>, req: &IncomingReq, now: Instant) {
    let m = &shared.metrics;
    // ordering: relaxed — metrics gauge + counter.
    m.queue_depth.fetch_sub(1, Ordering::Relaxed);
    // ordering: relaxed — metrics counter.
    m.rejected_deadline.fetch_add(1, Ordering::Relaxed);
    if let Some(r) = ring {
        let (hi, lo) = trace::wire_id_args(req.wire_id);
        r.record_at(Stage::Shed, req.trace, hi, lo, now);
    }
    req.conn.send(&Frame::Reject {
        id: req.wire_id,
        code: RejectCode::DeadlineExceeded,
    });
}

/// Forms one batch from the window in EDF order (up to `max_take`
/// requests), submits it to the engine — shedding anything that expired
/// since the last check — then flushes and routes the responses.
/// Batch-loop accounting carried across `form_and_run` calls: the engine
/// stats watermark metrics deltas are computed against, and the running
/// batch count the slow-batch fault schedule keys off.
struct BatchBook {
    last_stats: tia_engine::EngineStats,
    batches_formed: u64,
}

#[allow(clippy::too_many_arguments)] // the batcher's whole working set, called from one place
fn form_and_run<B: Backend + Send + 'static>(
    engine: &mut ShardedEngine<B>,
    shared: &Shared,
    ring: Option<&Ring>,
    req_rng: &mut SeededRng,
    routes: &mut HashMap<RequestId, Route>,
    window: &mut Vec<PendingReq>,
    max_take: usize,
    book: &mut BatchBook,
    adaptive: Option<&Adaptive>,
) -> (usize, usize) {
    // Induced slow-batcher window: stall before every n-th batch so the
    // queue backs up the way it would behind a genuinely slow engine.
    book.batches_formed += 1;
    if let Some(n) = shared.faults.slow_batch_every {
        if book.batches_formed.is_multiple_of(n) && !shared.faults.slow_batch_stall.is_zero() {
            std::thread::sleep(shared.faults.slow_batch_stall);
        }
    }
    window.sort_by(edf_order);
    let take = window.len().min(max_take);
    let now = shared.clock.now();
    let (mut submits, mut sheds) = (0usize, 0usize);
    for pending in window.drain(..take) {
        let req = *pending.req;
        if req.expired(now) {
            shed_one(shared, ring, &req, now);
            sheds += 1;
            continue;
        }
        // ordering: relaxed — metrics gauge.
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        submits += 1;
        let submitted = match &req.policy {
            WirePolicy::Server => {
                // Policy-driven traffic is where the controller's floors
                // bind: the class floor rides along into the engine's draw.
                // A client that pinned its own precision has already chosen
                // and bypasses both degradation and floors.
                let floor = adaptive.and_then(|a| a.ctrl.config().floor_for(req.class));
                if let (Some(set), Some(f)) = (adaptive.and_then(|a| a.set.as_ref()), floor) {
                    let level = engine.degrade_level() as usize;
                    // The floor "clamps" when it actually narrows the
                    // degraded window — i.e. it excludes members the bare
                    // level would still have sampled.
                    if set.degraded_window(level, Some(f)).0 > set.degraded_window(level, None).0 {
                        // ordering: relaxed — metrics counter.
                        shared
                            .metrics
                            .floor_clamped_total
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                engine.try_submit_floored(req.image, floor)
            }
            WirePolicy::Fixed(p) => engine.try_submit_pinned(req.image, *p),
            WirePolicy::Random(set) => {
                engine.try_submit_pinned(req.image, Some(set.sample(req_rng)))
            }
        };
        match submitted {
            Ok(id) => {
                if let Some(r) = ring {
                    // Stamped at the batch-forming instant the EDF sort ran
                    // at — one clock read covers the whole batch.
                    r.record_at(Stage::EngineSubmit, req.trace, 0, 0, now);
                }
                routes.insert(
                    id,
                    Route {
                        conn: req.conn,
                        wire_id: req.wire_id,
                        enqueued: req.enqueued,
                        class: req.class,
                        trace: req.trace,
                        window_at: req.window_at,
                        submitted_at: now,
                    },
                );
            }
            Err(_) => {
                // Readers validate geometry up front, so this only
                // triggers if the configured input shape is not what the
                // engine pinned — answer honestly rather than panic. The
                // request was already admitted, so it lands in the errored
                // leg of the conservation equation, not the reject leg.
                // ordering: relaxed — metrics counter.
                shared.metrics.errored_total.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = ring {
                    let (hi, lo) = trace::wire_id_args(req.wire_id);
                    r.record_at(Stage::Errored, req.trace, hi, lo, now);
                }
                req.conn.send(&Frame::Reject {
                    id: req.wire_id,
                    code: RejectCode::BadShape,
                });
            }
        }
    }
    if let Some(r) = ring {
        // The batch-formed scope event: size, the degrade level it ran
        // under, and the cycle sequence (the precision mix lands on the
        // matching engine_cycle event once the flush reveals the draws).
        r.record_at(
            Stage::BatchFormed,
            book.batches_formed,
            submits as u32,
            u32::from(engine.degrade_level()),
            now,
        );
    }
    flush_and_respond(engine, shared, ring, routes, &mut book.last_stats);
    (submits, sheds)
}

/// One controller step at an engine-cycle boundary: assemble this cycle's
/// pressure sample (window fill at forming, deadline-shed fraction,
/// windowed per-class p99 since the last step), let the state machine
/// decide, and apply any level shift to the engine and the metrics.
fn step_adaptive<B: Backend + Send + 'static>(
    a: &mut Adaptive,
    engine: &mut ShardedEngine<B>,
    shared: &Shared,
    ring: Option<&Ring>,
    fill: f64,
    submitted: usize,
) {
    let m = &shared.metrics;
    let candidates = a.sheds + submitted;
    let miss = if candidates == 0 {
        0.0
    } else {
        a.sheds as f64 / candidates as f64
    };
    a.sheds = 0;
    let mut p99_ns = [0u64; 3];
    for (i, p99) in p99_ns.iter_mut().enumerate() {
        // Windowed, not cumulative: a cumulative p99 never decays, which
        // would block recovery forever after one bad burst.
        *p99 = m.latency_by_class[i].quantile_since_ns(&a.baselines[i], 0.99);
        a.baselines[i] = m.latency_by_class[i].baseline();
    }
    let (level, direction) = match a.ctrl.step(&CycleSample { fill, miss, p99_ns }) {
        Decision::Hold => return,
        Decision::Degrade(level) => {
            // ordering: relaxed — metrics counter.
            m.degrade_shifts_down.fetch_add(1, Ordering::Relaxed);
            (level, 1u32)
        }
        Decision::Recover(level) => {
            // ordering: relaxed — metrics counter.
            m.degrade_shifts_up.fetch_add(1, Ordering::Relaxed);
            (level, 2u32)
        }
    };
    engine.set_degrade_level(level);
    // ordering: relaxed — metrics gauge.
    m.degrade_level.store(u64::from(level), Ordering::Relaxed);
    if let Some(r) = ring {
        r.record(Stage::ControlDecision, u64::from(level), direction, 0);
    }
}

fn flush_and_respond<B: Backend + Send + 'static>(
    engine: &mut ShardedEngine<B>,
    shared: &Shared,
    ring: Option<&Ring>,
    routes: &mut HashMap<RequestId, Route>,
    last_stats: &mut tia_engine::EngineStats,
) {
    if engine.pending() == 0 {
        return;
    }
    let responses = engine.flush();
    let flushed_at = shared.clock.now();
    let m = &shared.metrics;
    // The cycle's precision mix, revealed by the flush: bit 0 = fp32,
    // bit `b` = `b`-bit. Carried on the engine_cycle scope event.
    let mut mix = 0u32;
    for r in responses {
        let Some(route) = routes.remove(&r.id) else {
            continue; // unreachable: every submit recorded a route
        };
        mix |= 1u32 << r.precision.map_or(0, |p| u32::from(p.bits()));
        if let Some(rg) = ring {
            rg.record_at(Stage::Flushed, route.trace, 0, 0, flushed_at);
        }
        let frame = Frame::Logits(InferResponse {
            id: route.wire_id,
            precision: r.precision,
            top1: r.top1,
            logits: r.logits.into_vec(),
        });
        let encoded_at = shared.clock.now();
        if let Some(rg) = ring {
            rg.record_at(Stage::Encoded, route.trace, 0, 0, encoded_at);
        }
        route.conn.send(&frame);
        let sent_at = shared.clock.now();
        if let Some(rg) = ring {
            rg.record_at(Stage::Sent, route.trace, 0, 0, sent_at);
        }
        // ordering: relaxed — metrics counter.
        m.responses_total.fetch_add(1, Ordering::Relaxed);
        if shared.faults.double_ack {
            // Deliberate sabotage knob for the chaos harness's self-test:
            // answer the same admitted request twice so the exactly-once
            // checker (client-side dup detection + conservation_check)
            // must flag it. Never set in production configs.
            route.conn.send(&frame);
            // ordering: relaxed — metrics counter.
            m.responses_total.fetch_add(1, Ordering::Relaxed);
        }
        m.count_precision(r.precision);
        let span = |later: Instant, earlier: Instant| {
            later.saturating_duration_since(earlier).as_nanos() as u64
        };
        let total_ns = span(sent_at, route.enqueued);
        m.record_latency(route.class, total_ns);
        debug_assert_eq!(STAGE_NAMES.len(), 5);
        m.record_stages(
            route.wire_id,
            [
                span(route.window_at, route.enqueued),
                span(route.submitted_at, route.window_at),
                span(flushed_at, route.submitted_at),
                span(sent_at, flushed_at),
                total_ns,
            ],
        );
    }
    let stats = engine.stats();
    let batch_delta = (stats.batches - last_stats.batches) as u64;
    // ordering: relaxed — metrics counter.
    m.batches_total.fetch_add(batch_delta, Ordering::Relaxed);
    // ordering: relaxed — metrics counter.
    m.batch_frames_total.fetch_add(
        (stats.requests - last_stats.requests) as u64,
        Ordering::Relaxed,
    );
    if let Some(rg) = ring {
        rg.record_at(
            Stage::EngineCycle,
            engine.cycles(),
            mix,
            batch_delta as u32,
            flushed_at,
        );
    }
    *last_stats = stats;
}

/// Minimal HTTP/1.0 exposition endpoint: `GET /metrics` answers the
/// Prometheus text format, `GET /trace` the flight recorder's Chrome
/// trace-event JSON (404 when tracing is off), anything else 404. One
/// request per connection.
fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        // ordering: SeqCst — stop flag; pairs with the store in finish().
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        best_effort(stream.set_read_timeout(Some(Duration::from_secs(2))));
        serve_scrape(&mut stream, &shared);
    }
}

fn serve_scrape(stream: &mut TcpStream, shared: &Shared) {
    use std::io::{Read, Write};
    let mut buf = [0u8; 4096];
    let mut got = 0;
    // Read until the end of the request headers (or the buffer fills —
    // scrapers send tiny requests).
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => {
                got += n;
                if buf[..got].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..got]);
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = if path == "/metrics" || path == "/" {
        (
            "200 OK",
            "text/plain; version=0.0.4",
            shared.metrics.render_prometheus(),
        )
    } else if path == "/trace" {
        match &shared.trace {
            Some(sink) => ("200 OK", "application/json", sink.chrome_trace_json()),
            None => (
                "404 Not Found",
                "text/plain; version=0.0.4",
                "tracing disabled\n".to_string(),
            ),
        }
    } else {
        (
            "404 Not Found",
            "text/plain; version=0.0.4",
            "not found\n".to_string(),
        )
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    best_effort(stream.write_all(response.as_bytes()));
}
