//! The TCP workload (`tcp_closed`) and the open-loop phases of the traced
//! run. `tcp_closed` serves the `engine_small` model and engine config
//! behind `Server::spawn` on a loopback port, so what it adds over
//! `engine_small` *is* the `serve` layer: wire decode, admission queue, EDF
//! window, reader threads, encode, socket writes.
//!
//! Closed loop: 2 connections × 8 requests in flight, one client thread
//! per connection. Open loop (paced / overload / adaptive): 1 connection,
//! a sender on a fixed schedule and a receiver, latency timed from each
//! request's due time.

use crate::clock::{instant_ns, now_ns};
use crate::harness::{LoopOutcome, OpenWindow, Workload};
use crate::model::{rps_set, CHANNELS, POLICY_SEED, SMALL};
use crate::report::Metrics;
use crate::spans::{new_id, SpanBuf, Trace, CLIENT_TID, SERVER_TID};
use crate::stats::{self, sample_store, Completion};
use crate::verify::{References, Tap, TimedBackend};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;
use tia_engine::{EngineConfig, PrecisionPolicy};
use tia_nn::Network;
use tia_serve::{
    infer_frame, infer_frame_with, Class, Client, ControlConfig, Frame, InferResponse, RejectCode,
    Server, ServerConfig, Stage, WirePolicy,
};
use tia_tensor::Tensor;

pub const CONNECTIONS: usize = 2;
pub const INFLIGHT: usize = 8;
/// Distinct images the clients cycle through.
const POOL: usize = 64;
/// Warm-up per connection: this many pipelined rounds of `INFLIGHT`
/// server-policy requests, after two pinned requests per precision.
const WARMUP_ROUNDS: usize = 64;
/// A response that has not arrived after this long is counted as missing;
/// without it a lost response would hang the run.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Wire ids of warm-up requests carry this bit so they never collide with
/// a timed request's id.
const WARMUP_BIT: u64 = 1 << 63;

type Timed = TimedBackend<Network>;

/// One wire connection as its two halves, with a read timeout.
struct Conn {
    reader: TcpStream,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let (reader, writer) = Client::connect(addr)
            .map_err(|e| format!("connect {addr}: {e}"))?
            .into_split();
        reader
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(Self { reader, writer })
    }

    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        frame.write_to(&mut self.writer)
    }

    fn recv(&mut self) -> Result<Frame, tia_serve::WireError> {
        Frame::read_from(&mut self.reader)
    }
}

pub struct TcpWorkload {
    seed: u64,
    pool: Tensor,
    refs: References,
}

pub struct TcpInstance {
    server: Server<Timed>,
    conns: Vec<Conn>,
    tap: Option<Tap>,
    /// Next request sequence number per connection.
    seq: Vec<u64>,
}

/// Counters of the server a loop ran against, read at quiescence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub admitted: u64,
    pub served: u64,
    pub shed_deadline: u64,
    pub rejected_queue_full: u64,
    pub errored: u64,
    pub batches: u64,
    pub batch_frames: u64,
    pub degrade_shifts: u64,
    pub render_prometheus_us: f64,
}

impl TcpWorkload {
    pub fn new(seed: u64) -> Self {
        let pool = SMALL.images(seed, POOL);
        let refs = References::build(&mut SMALL.build(seed), &pool, &rps_set());
        Self { seed, pool, refs }
    }

    fn spawn(
        &self,
        tap: Option<Tap>,
        flight: bool,
        control: Option<ControlConfig>,
    ) -> Result<Server<Timed>, String> {
        let mut cfg = ServerConfig::default()
            .with_workers(1)
            .with_input_shape([CHANNELS, SMALL.hw, SMALL.hw])
            .with_policy(PrecisionPolicy::Random(rps_set()))
            .with_engine(
                EngineConfig::default()
                    .with_max_batch(8)
                    .with_seed(POLICY_SEED),
            );
        if flight {
            cfg = cfg.with_trace();
        }
        if let Some(control) = control {
            cfg = cfg.with_control(control);
        }
        Server::spawn(cfg, |_| {
            TimedBackend::new(SMALL.build(self.seed), tap.clone())
        })
        .map_err(|e| format!("loopback server: {e}"))
    }

    fn frames(&self, policy: WirePolicy, deadline_ms: Option<u32>) -> Vec<Frame> {
        (0..POOL)
            .map(|i| {
                infer_frame_with(
                    0,
                    &self.pool.index_axis0(i),
                    policy.clone(),
                    deadline_ms,
                    Class::Normal,
                )
            })
            .collect()
    }

    fn response_ok(&self, image: usize, r: &InferResponse) -> bool {
        self.refs.matches(image, r.precision, &r.logits, r.top1)
    }

    /// The fixed warm-up of one connection: two pinned requests per
    /// precision (the memo fill, through the wire), then `WARMUP_ROUNDS`
    /// pipelined rounds under the server's policy.
    fn warm_up(&self, conn: &mut Conn, lane: u64) -> Result<(), String> {
        let mut next = WARMUP_BIT | (lane << 32);
        let mut round = |conn: &mut Conn, policy: WirePolicy, count: usize| -> Result<(), String> {
            let first = next;
            for k in 0..count {
                let image = self.pool.index_axis0(k % POOL);
                conn.send(&infer_frame(next, &image, policy.clone()))
                    .map_err(|e| format!("warm-up send: {e}"))?;
                next += 1;
            }
            for _ in 0..count {
                match conn.recv() {
                    Ok(Frame::Logits(r)) if (first..next).contains(&r.id) => {
                        if !self.response_ok((r.id - first) as usize % POOL, &r) {
                            return Err(format!(
                                "warm-up response {} does not match its reference",
                                r.id
                            ));
                        }
                    }
                    Ok(other) => return Err(format!("warm-up got {other:?}")),
                    Err(e) => return Err(format!("warm-up recv: {e}")),
                }
            }
            Ok(())
        };
        for p in rps_set().iter() {
            round(conn, WirePolicy::Fixed(Some(p)), 2)?;
        }
        for _ in 0..WARMUP_ROUNDS {
            round(conn, WirePolicy::Server, INFLIGHT)?;
        }
        Ok(())
    }

    fn instance(
        &self,
        tap: Option<Tap>,
        flight: bool,
        control: Option<ControlConfig>,
        connections: usize,
    ) -> Result<TcpInstance, String> {
        let server = self.spawn(tap.clone(), flight, control)?;
        let mut conns = Vec::with_capacity(connections);
        for lane in 0..connections {
            let mut conn = Conn::connect(server.addr())?;
            self.warm_up(&mut conn, lane as u64)?;
            conns.push(conn);
        }
        Ok(TcpInstance {
            server,
            conns,
            tap,
            seq: vec![0; connections],
        })
    }

    /// Reads the server's counters, then drains it and checks the
    /// conservation law at quiescence.
    pub fn quiesce(&self, inst: TcpInstance) -> Result<ServerCounts, String> {
        let TcpInstance { server, conns, .. } = inst;
        let metrics = server.metrics_handle();
        let t = now_ns();
        let rendered = metrics.render_prometheus();
        let render_prometheus_us = (now_ns() - t) as f64 / 1e3;
        std::hint::black_box(rendered);
        drop(conns);
        drop(server.shutdown().shutdown());
        let snap = metrics.snapshot();
        snap.conservation_check()
            .map_err(|e| format!("conservation at quiescence: {e}"))?;
        if snap.queue_depth != 0 {
            return Err(format!("queue depth {} after drain", snap.queue_depth));
        }
        // Relaxed: the server is drained and joined; nothing updates these.
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Ok(ServerCounts {
            admitted: snap.admitted,
            served: snap.served,
            shed_deadline: snap.shed,
            rejected_queue_full: load(&metrics.rejected_queue_full),
            errored: snap.errored,
            batches: load(&metrics.batches_total),
            batch_frames: load(&metrics.batch_frames_total),
            degrade_shifts: load(&metrics.degrade_shifts_down) + load(&metrics.degrade_shifts_up),
            render_prometheus_us,
        })
    }
}

/// A request in flight on one connection.
#[derive(Clone, Copy, Default)]
struct Slot {
    live: bool,
    id: u64,
    image: usize,
    /// Before the frame is encoded and written.
    start_ns: u64,
    /// After the write returned (traced loops only).
    sent_ns: u64,
    op_span: u64,
    req_span: u64,
}

struct ConnOutcome {
    completions: Vec<Completion>,
    attempted: u64,
    failed: u64,
    check_ns: u64,
    spans: Option<SpanBuf>,
}

impl TcpWorkload {
    /// One connection's closed loop: keep `INFLIGHT` requests outstanding
    /// until `deadline_ns`, then collect what is still in flight.
    #[allow(clippy::too_many_arguments)]
    fn client_loop(
        &self,
        conn: &mut Conn,
        lane: usize,
        seq: &mut u64,
        mut frames: Vec<Frame>,
        t0: u64,
        deadline_ns: u64,
        mut out: ConnOutcome,
    ) -> ConnOutcome {
        let mut slots = [Slot::default(); INFLIGHT];
        let mut live = 0usize;
        let mut send = |slot: &mut Slot, out: &mut ConnOutcome, conn: &mut Conn| -> bool {
            let image = (lane * 31 + *seq as usize * 7) % POOL;
            let id = ((lane as u64) << 32) | *seq;
            if let Frame::Infer(req) = &mut frames[image] {
                req.id = id;
            }
            let start_ns = now_ns();
            out.attempted += 1;
            *seq += 1;
            if conn.send(&frames[image]).is_err() {
                out.failed += 1;
                return false;
            }
            *slot = Slot {
                live: true,
                id,
                image,
                start_ns,
                sent_ns: 0,
                op_span: 0,
                req_span: 0,
            };
            if out.spans.is_some() {
                slot.sent_ns = now_ns();
                (slot.op_span, slot.req_span) = (new_id(), new_id());
            }
            true
        };
        for slot in &mut slots {
            if !send(slot, &mut out, conn) {
                break;
            }
            live += 1;
        }
        while live > 0 {
            let frame = conn.recv();
            let recv_ns = now_ns();
            let answered = match &frame {
                Ok(Frame::Logits(r)) => Some(r.id),
                Ok(Frame::Reject { id, .. }) => Some(*id),
                Ok(_) => None,
                Err(_) => {
                    // The stream is unusable: everything in flight is missing.
                    out.failed += live as u64;
                    break;
                }
            };
            let Some(at) = answered.and_then(|id| slots.iter().position(|s| s.live && s.id == id))
            else {
                // An answer to nothing we have in flight: a duplicate or a
                // bogus id. Exactly-once is broken either way.
                out.failed += 1;
                continue;
            };
            let slot = slots[at];
            slots[at].live = false;
            live -= 1;
            out.completions
                .push(Completion::new(recv_ns - t0, recv_ns - slot.start_ns));
            if let Some(spans) = &mut out.spans {
                spans.record(
                    "serve.request",
                    slot.req_span,
                    slot.op_span,
                    slot.sent_ns,
                    recv_ns,
                    slot.id,
                );
                spans.record("bench.op", slot.op_span, 0, slot.start_ns, recv_ns, slot.id);
            }
            let ok = matches!(&frame, Ok(Frame::Logits(r)) if self.response_ok(slot.image, r));
            if !ok {
                out.failed += 1;
            }
            drop(frame);
            let checked_ns = now_ns();
            out.check_ns += checked_ns - recv_ns;
            if checked_ns < deadline_ns && send(&mut slots[at], &mut out, conn) {
                live += 1;
            }
        }
        out
    }

    /// Turns the flight recorder's per-request events into stage spans
    /// under the client's `serve.request` span of the same wire id.
    fn join_flight(&self, server: &Server<Timed>, client_spans: &[(String, SpanBuf)]) -> SpanBuf {
        // Wire id -> the client's span of that request. Only looked up,
        // never iterated, so the map's order cannot reach the output.
        let by_wire: HashMap<u64, u64> = client_spans
            .iter()
            .flat_map(|(_, buf)| buf.spans())
            .filter(|s| s.name == "serve.request")
            .map(|s| (s.arg, s.id))
            .collect();
        let flights = server.drain_trace();
        let epoch = server
            .trace_handle()
            .map_or(0, |sink| instant_ns(sink.epoch()));
        let mut out = SpanBuf::with_capacity(SERVER_TID, flights.len() * 5);
        for f in &flights {
            let Some(&parent) = f.wire_id.and_then(|w| by_wire.get(&w)) else {
                continue;
            };
            let at = |stage: Stage| {
                f.events
                    .iter()
                    .find(|e| e.stage == stage)
                    .map(|e| epoch + e.ts_ns)
            };
            let (Some(enq), Some(win), Some(sub), Some(flu), Some(sent)) = (
                at(Stage::Enqueued),
                at(Stage::WindowEnter),
                at(Stage::EngineSubmit),
                at(Stage::Flushed),
                at(Stage::Sent),
            ) else {
                continue;
            };
            let wire = f.wire_id.unwrap_or(0);
            let total = new_id();
            out.record("serve.total", total, parent, enq, sent, wire);
            out.record("serve.queue_wait", new_id(), total, enq, win, wire);
            out.record("serve.window", new_id(), total, win, sub, wire);
            out.record("serve.execute", new_id(), total, sub, flu, wire);
            out.record("serve.respond", new_id(), total, flu, sent, wire);
        }
        out
    }
}

impl Workload for TcpWorkload {
    type Instance = TcpInstance;

    fn name(&self) -> &'static str {
        "tcp_closed"
    }

    fn generators(&self) -> (usize, usize) {
        (CONNECTIONS, CONNECTIONS)
    }

    fn setup(&self, tap: Option<Tap>) -> Result<TcpInstance, String> {
        // The flight recorder flies exactly when the backend is tapped:
        // in traced loops.
        let flight = tap.is_some();
        self.instance(tap, flight, None, CONNECTIONS)
    }

    fn run(&self, inst: &mut TcpInstance, seconds: f64, trace: bool) -> LoopOutcome {
        let budget = (seconds * 1e9) as u64;
        // Per connection: room for 2.4 times today's request rate.
        let capacity = (seconds * 6_000.0) as usize + 1_024;
        let frames = self.frames(WirePolicy::Server, None);
        let mut lanes: Vec<(ConnOutcome, Vec<Frame>)> = (0..inst.conns.len())
            .map(|lane| {
                let out = ConnOutcome {
                    completions: sample_store(capacity),
                    attempted: 0,
                    failed: 0,
                    check_ns: 0,
                    spans: trace
                        .then(|| SpanBuf::with_capacity(CLIENT_TID + lane as u32, capacity * 2)),
                };
                (out, frames.clone())
            })
            .collect();
        if let (true, Some(tap)) = (trace, &inst.tap) {
            tap.clear();
        }
        let mut finished = Vec::with_capacity(lanes.len());
        // The window opens before the client threads are spawned and closes
        // when the last has been joined; spawning costs microseconds.
        let open = OpenWindow::open(trace);
        let t0 = open.start_ns();
        std::thread::scope(|scope| {
            let handles: Vec<_> = inst
                .conns
                .iter_mut()
                .zip(inst.seq.iter_mut())
                .zip(lanes.drain(..))
                .enumerate()
                .map(|(lane, ((conn, seq), (out, frames)))| {
                    scope.spawn(move || {
                        self.client_loop(conn, lane, seq, frames, t0, t0 + budget, out)
                    })
                })
                .collect();
            for h in handles {
                // A client thread that panicked took its samples with it;
                // surface that as the panic it is.
                finished.push(h.join().expect("client thread panicked"));
            }
        });
        let window = open.close();
        let mut out = LoopOutcome {
            window,
            items_per_op: 1,
            ..LoopOutcome::default()
        };
        for (lane, conn) in finished.into_iter().enumerate() {
            out.completions.extend(conn.completions);
            out.attempted += conn.attempted;
            out.failed += conn.failed;
            out.check_ns += conn.check_ns;
            if let Some(spans) = conn.spans {
                out.spans.push((format!("client {lane}"), spans));
            }
        }
        out.completions.sort_unstable_by_key(|c| c.end_us);
        if trace {
            let server_spans = self.join_flight(&inst.server, &out.spans);
            out.spans
                .push(("server (flight recorder)".into(), server_spans));
            if let Some(tap) = &inst.tap {
                out.spans.push(("engine worker".into(), tap.take()));
            }
        }
        out
    }

    fn teardown(&self, inst: TcpInstance) -> Result<(), String> {
        self.quiesce(inst).map(drop)
    }
}

/// An open-loop phase: `rate` requests a second for `seconds`, optionally
/// with a per-request deadline and the adaptive precision controller.
#[derive(Debug, Clone)]
pub struct OpenPhase {
    pub rate: f64,
    pub seconds: f64,
    pub deadline_ms: Option<u32>,
    pub control: Option<ControlConfig>,
}

#[derive(Debug, Default)]
pub struct OpenOutcome {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub rejected: u64,
    /// Mismatching, unexpected or missing answers.
    pub failed: u64,
    /// Latency of served requests from their due time, ascending.
    pub lat_from_due: Vec<u64>,
    /// How late the generator ran at worst: actual send minus due time.
    pub late_max_ns: u64,
    /// First due time to last answer.
    pub elapsed_ns: u64,
    pub counts: ServerCounts,
}

impl OpenOutcome {
    pub fn goodput_rps(&self) -> f64 {
        self.ok as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn shed_share(&self) -> f64 {
        self.shed as f64 / self.sent.max(1) as f64
    }
}

impl TcpWorkload {
    /// Runs one open-loop phase against a fresh server.
    pub fn open_loop(&self, phase: &OpenPhase) -> Result<OpenOutcome, String> {
        let mut inst = self.instance(None, false, phase.control.clone(), 1)?;
        let n = ((phase.rate * phase.seconds) as u64).max(1);
        let interval_ns = 1e9 / phase.rate;
        let mut frames = self.frames(WirePolicy::Server, phase.deadline_ms);
        let Conn { reader, writer } = inst.conns.pop().ok_or("no connection")?;
        let (mut reader, mut writer) = (reader, writer);
        let mut out = OpenOutcome::default();
        let t0 = now_ns() + 1_000_000;
        let due = |i: u64| t0 + (i as f64 * interval_ns) as u64;
        let (received, sent, late_max_ns) = std::thread::scope(|scope| {
            let receiver = scope.spawn(|| {
                let mut got = OpenOutcome {
                    lat_from_due: Vec::with_capacity(n as usize),
                    ..OpenOutcome::default()
                };
                let mut last_ns = t0;
                let mut seen = vec![false; n as usize];
                let mut settled = 0u64;
                while settled < n {
                    let frame = Frame::read_from(&mut reader);
                    last_ns = now_ns();
                    let id = match &frame {
                        Ok(Frame::Logits(r)) => r.id,
                        Ok(Frame::Reject { id, .. }) => *id,
                        Ok(_) => {
                            got.failed += 1;
                            continue;
                        }
                        Err(_) => break,
                    };
                    if id >= n || std::mem::replace(&mut seen[id as usize], true) {
                        got.failed += 1; // unknown id, or answered twice
                        continue;
                    }
                    settled += 1;
                    match frame {
                        Ok(Frame::Logits(r)) if self.response_ok(id as usize % POOL, &r) => {
                            got.ok += 1;
                            got.lat_from_due.push(last_ns.saturating_sub(due(id)));
                        }
                        Ok(Frame::Reject {
                            code: RejectCode::DeadlineExceeded,
                            ..
                        }) => got.shed += 1,
                        Ok(Frame::Reject { .. }) => got.rejected += 1,
                        _ => got.failed += 1,
                    }
                }
                got.failed += n - settled; // never answered
                got.elapsed_ns = last_ns.saturating_sub(t0);
                got
            });
            let (mut sent, mut late_max_ns) = (0u64, 0u64);
            for i in 0..n {
                let wait = due(i).saturating_sub(now_ns());
                if wait > 0 {
                    std::thread::sleep(Duration::from_nanos(wait));
                }
                if let Frame::Infer(req) = &mut frames[i as usize % POOL] {
                    req.id = i;
                }
                late_max_ns = late_max_ns.max(now_ns().saturating_sub(due(i)));
                if frames[i as usize % POOL].write_to(&mut writer).is_err() {
                    break;
                }
                sent += 1;
            }
            let received = receiver.join().expect("open-loop receiver panicked");
            (received, sent, late_max_ns)
        });
        out.sent = sent;
        out.ok = received.ok;
        out.shed = received.shed;
        out.rejected = received.rejected;
        out.failed = received.failed;
        out.lat_from_due = received.lat_from_due;
        out.lat_from_due.sort_unstable();
        out.late_max_ns = late_max_ns;
        out.elapsed_ns = received.elapsed_ns;
        drop((reader, writer));
        out.counts = self.quiesce(inst)?;
        Ok(out)
    }
}

/// The `serve.*` metrics of a traced closed loop: stage medians from the
/// joined flight-recorder spans, and the client-minus-server edge.
pub fn span_metrics(trace: &Trace, outcome: &LoopOutcome, counts: &ServerCounts) -> Metrics {
    let median_us = |name: &str| {
        let d: Vec<u64> = trace.named(name).map(|s| s.end_ns - s.start_ns).collect();
        if d.is_empty() {
            f64::NAN
        } else {
            stats::median_u64(&d) / 1e3
        }
    };
    let total_us = median_us("serve.total");
    let client_p50_us = stats::percentile(&outcome.sorted_latencies(), 0.5) as f64 / 1e3;
    let mut m = Metrics::default();
    m.put("serve.queue_wait_us", median_us("serve.queue_wait"));
    m.put("serve.window_us", median_us("serve.window"));
    m.put("serve.execute_us", median_us("serve.execute"));
    m.put("serve.respond_us", median_us("serve.respond"));
    m.put("serve.total_us", total_us);
    m.put("serve.edge_us", client_p50_us - total_us);
    m.put(
        "serve.mean_batch",
        counts.batch_frames as f64 / counts.batches.max(1) as f64,
    );
    m.put("serve.render_prometheus_us", counts.render_prometheus_us);
    m.put("serve.admitted", counts.admitted as f64);
    m.put("serve.served", counts.served as f64);
    m.put("serve.shed_deadline", counts.shed_deadline as f64);
    m.put(
        "serve.rejected_queue_full",
        counts.rejected_queue_full as f64,
    );
    m.put("serve.errored", counts.errored as f64);
    m.put(
        "serve.served_per_admitted",
        counts.served as f64 / counts.admitted.max(1) as f64,
    );
    m
}
