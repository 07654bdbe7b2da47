//! Loopback integration tests: a real `tia-serve` server on 127.0.0.1
//! driven through real sockets, pinned against the in-process engine.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tia_engine::{EngineConfig, PrecisionPolicy, ShardedEngine};
use tia_nn::zoo;
use tia_quant::{Precision, PrecisionSet};
use tia_serve::metrics::STAGE_TOTAL;
use tia_serve::wire::{Class, Frame, InferResponse, RejectCode, WireError};
use tia_serve::{
    fetch_metrics, infer_frame, infer_frame_with, Client, Clock, ControlConfig, LoadConfig, Server,
    ServerConfig, WirePolicy,
};
use tia_tensor::{SeededRng, Tensor};

const SHAPE: [usize; 3] = [3, 8, 8];

fn replica() -> tia_nn::Network {
    zoo::preact_resnet18_rps(3, 4, 5, PrecisionSet::range(4, 8), &mut SeededRng::new(1))
}

fn base_config() -> ServerConfig {
    ServerConfig::default()
        .with_input_shape(SHAPE)
        .with_workers(2)
        .with_policy(PrecisionPolicy::Random(PrecisionSet::range(4, 8)))
        .with_engine(EngineConfig::default().with_max_batch(4).with_seed(7))
}

fn images(n: usize, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    Tensor::rand_uniform(&[n, SHAPE[0], SHAPE[1], SHAPE[2]], 0.0, 1.0, &mut rng)
}

/// Spins (bounded, no sleep) until `ready` holds: the server counts an
/// event *after* a client can observe it, so a test that reads a counter
/// waits for that write, not for wall time.
fn await_server(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Waits until the server's ledger has caught up with `n` requests the
/// client already holds answers to: the reader counts an admission after
/// the enqueue (so the batcher can answer first), and the batcher records
/// the end-to-end stage sample last of all it writes per response.
fn await_accounted(m: &tia_serve::Metrics, n: u64) {
    await_server("every answered request to be accounted", || {
        m.snapshot().admitted == n && m.stage[STAGE_TOTAL].count() == n
    });
}

/// The acceptance criterion of the subsystem: logits served over TCP are
/// bitwise identical to the in-process sharded engine under the same seed
/// and submission order, and the precision schedule matches draw for draw.
#[test]
fn tcp_served_logits_are_bitwise_identical_to_in_process_engine() {
    const N: usize = 12;
    let server = Server::spawn(base_config(), |_| replica()).unwrap();
    let x = images(N, 2);

    let mut client = Client::connect(server.addr()).unwrap();
    // Pipeline all requests on one connection: wire order = submission
    // order, exactly what the in-process reference sees.
    for i in 0..N {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    let mut over_tcp: Vec<InferResponse> = (0..N)
        .map(|_| match client.recv().unwrap() {
            Frame::Logits(r) => r,
            other => panic!("expected logits, got {other:?}"),
        })
        .collect();
    over_tcp.sort_by_key(|r| r.id);

    let mut reference = ShardedEngine::with_factory(
        2,
        |_| replica(),
        PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
        EngineConfig::default().with_max_batch(4).with_seed(7),
    );
    let in_process = reference.serve(&x);

    for (tcp, local) in over_tcp.iter().zip(&in_process) {
        assert_eq!(tcp.id, local.id, "response ids must align");
        assert_eq!(
            tcp.precision, local.precision,
            "request {} diverged from the seeded schedule",
            tcp.id
        );
        assert_eq!(tcp.top1, local.top1);
        let tcp_bits: Vec<u32> = tcp.logits.iter().map(|v| v.to_bits()).collect();
        let local_bits: Vec<u32> = local.logits.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            tcp_bits, local_bits,
            "request {} logits not bitwise equal",
            tcp.id
        );
    }

    let engine = server.shutdown();
    assert_eq!(engine.stats().requests, N);
}

/// Explicit per-request policies: pinned precisions execute as pinned and
/// consume no draw from the server's seeded schedule.
#[test]
fn pinned_wire_policies_execute_at_the_pinned_precision() {
    let server = Server::spawn(base_config(), |_| replica()).unwrap();
    let x = images(3, 3);
    let mut client = Client::connect(server.addr()).unwrap();

    let pin = WirePolicy::Fixed(Some(Precision::new(5)));
    match client.infer(0, &x.index_axis0(0), pin).unwrap() {
        Frame::Logits(r) => assert_eq!(r.precision, Some(Precision::new(5))),
        other => panic!("expected logits, got {other:?}"),
    }
    match client
        .infer(1, &x.index_axis0(1), WirePolicy::Fixed(None))
        .unwrap()
    {
        Frame::Logits(r) => assert_eq!(r.precision, None, "fp32 pin must run full precision"),
        other => panic!("expected logits, got {other:?}"),
    }
    match client
        .infer(
            2,
            &x.index_axis0(2),
            WirePolicy::Random(PrecisionSet::range(6, 7)),
        )
        .unwrap()
    {
        Frame::Logits(r) => {
            let p = r.precision.expect("explicit random set never fp32");
            assert!((6..=7).contains(&p.bits()));
        }
        other => panic!("expected logits, got {other:?}"),
    }
    server.shutdown();
}

/// Admission control: with the batcher paused and a 2-deep queue, a burst
/// of 6 yields exactly 4 queue-full rejects, and the admitted 2 are served
/// after resume.
#[test]
fn full_queue_rejects_with_503_style_frames() {
    let cfg = base_config().with_queue_capacity(2).paused();
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    let x = images(6, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..6 {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    // The reader processes frames sequentially, so rejects are determined:
    // ids 2..6 bounce immediately while the batcher sleeps.
    let mut rejected = Vec::new();
    for _ in 0..4 {
        match client.recv().unwrap() {
            Frame::Reject { id, code } => {
                assert_eq!(code, RejectCode::QueueFull);
                rejected.push(id);
            }
            other => panic!("expected queue-full reject, got {other:?}"),
        }
    }
    assert_eq!(rejected, vec![2, 3, 4, 5]);

    server.resume();
    let mut served = Vec::new();
    for _ in 0..2 {
        match client.recv().unwrap() {
            Frame::Logits(r) => served.push(r.id),
            other => panic!("expected logits, got {other:?}"),
        }
    }
    served.sort_unstable();
    assert_eq!(served, vec![0, 1]);

    assert_eq!(
        server
            .metrics()
            .rejected_queue_full
            .load(std::sync::atomic::Ordering::Relaxed),
        4
    );
    server.shutdown();
}

/// Wrong geometry is refused per request; the connection stays usable.
#[test]
fn bad_shape_is_rejected_but_connection_survives() {
    let server = Server::spawn(base_config(), |_| replica()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let wrong = Tensor::zeros(&[1, 4, 4]);
    match client.infer(9, &wrong, WirePolicy::Server).unwrap() {
        Frame::Reject { id, code } => {
            assert_eq!(id, 9);
            assert_eq!(code, RejectCode::BadShape);
        }
        other => panic!("expected bad-shape reject, got {other:?}"),
    }
    // Same connection, correct shape: served normally.
    let ok = images(1, 5);
    assert!(matches!(
        client
            .infer(10, &ok.index_axis0(0), WirePolicy::Server)
            .unwrap(),
        Frame::Logits(_)
    ));
    server.shutdown();
}

/// A malformed frame earns an error report and a closed connection — and
/// the server keeps serving everyone else.
#[test]
fn malformed_frames_get_an_error_and_a_closed_connection() {
    let server = Server::spawn(base_config(), |_| replica()).unwrap();

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n garbage that is not a frame")
        .unwrap();
    raw.flush().unwrap();
    match Frame::read_from(&mut raw) {
        Ok(Frame::Error { msg }) => assert!(!msg.is_empty()),
        Ok(other) => panic!("expected error frame, got {other:?}"),
        Err(e) => panic!("expected error frame, got {e}"),
    }
    // The server hangs up after the error frame.
    assert!(matches!(
        Frame::read_from(&mut raw),
        Err(WireError::Closed) | Err(WireError::Io(_))
    ));

    // A well-behaved client on a fresh connection is unaffected.
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    let x = images(1, 6);
    assert!(matches!(
        client
            .infer(0, &x.index_axis0(0), WirePolicy::Server)
            .unwrap(),
        Frame::Logits(_)
    ));

    assert!(
        server
            .metrics()
            .bad_frames_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

/// Graceful drain: pipelined requests followed by a shutdown frame all get
/// answered before the acknowledgement, then the socket closes cleanly and
/// new work is refused as draining.
#[test]
fn shutdown_drains_admitted_work_before_acking() {
    const N: usize = 5;
    let server = Server::spawn(base_config(), |_| replica()).unwrap();
    let x = images(N, 7);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..N {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    let mut served = 0;
    client
        .shutdown_server(|frame| {
            if matches!(frame, Frame::Logits(_)) {
                served += 1;
            }
        })
        .unwrap();
    assert_eq!(served, N, "every admitted request must be served pre-ack");
    // The remote shutdown completes without local help; wait() just joins.
    let metrics = server.metrics_handle();
    let engine = server.wait();
    assert_eq!(engine.stats().requests, N);
    // Quiescence ledger: reader threads joined, queue gauge back to zero,
    // and the counters conserve (admitted = served + shed + errored).
    let snap = metrics.snapshot();
    assert_eq!(snap.readers_live, 0, "reader thread leaked past shutdown");
    assert_eq!(snap.queue_depth, 0, "queue gauge must return to zero");
    assert_eq!(snap.conservation_check(), Ok(()));
    // And once drained, the server has closed the connection.
    assert!(matches!(
        client.recv(),
        Err(WireError::Closed) | Err(WireError::Io(_))
    ));
}

/// The Prometheus endpoint reports live counters in exposition format.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let cfg = base_config().with_metrics_addr("127.0.0.1:0");
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    let metrics_addr = server.metrics_addr().expect("metrics listener enabled");

    let report = tia_serve::run_load(&LoadConfig {
        addr: server.addr().to_string(),
        connections: 2,
        requests: 10,
        inflight: 4,
        rate: None,
        shape: SHAPE,
        seed: 9,
        policy: WirePolicy::Server,
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(report.ok, 10);
    assert_eq!(report.errors, 0);
    assert!(report.latency.count() == 10 && report.rps() > 0.0);

    await_accounted(server.metrics(), 10);
    let text = fetch_metrics(metrics_addr).unwrap();
    assert!(text.contains("tia_serve_requests_total 10"), "{text}");
    assert!(text.contains("tia_serve_responses_total 10"), "{text}");
    assert!(
        text.contains("tia_serve_request_latency_seconds_count 10"),
        "{text}"
    );
    assert!(text.contains("tia_serve_connections_total 2"), "{text}");
    // 10 RPS draws from 4~8-bit: the per-precision mix sums to 10.
    let mix: u64 = text
        .lines()
        .filter(|l| l.starts_with("tia_serve_frames_by_precision_total"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(mix, 10);

    // Unknown scrape paths 404 without killing the listener.
    use std::io::{Read, Write as _};
    let mut s = TcpStream::connect(metrics_addr).unwrap();
    s.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.0 404"), "{reply}");
    drop(s);
    assert!(fetch_metrics(metrics_addr).is_ok());

    server.shutdown();
}

/// Determinism re-pin for the EDF scheduler: a non-zero batch-forming wait
/// delays *when* batches form, but with no deadlines or classes on the
/// wire the engine must still see the exact wire order — logits and the
/// precision schedule stay bitwise identical to the in-process engine
/// (i.e. to PR 4's FIFO batcher, which the FIFO-identity test above pins
/// against the same reference).
#[test]
fn max_wait_delays_batches_without_perturbing_the_schedule() {
    const N: usize = 10;
    let cfg = base_config().with_max_wait(Duration::from_millis(5));
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    let x = images(N, 21);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..N {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    let mut over_tcp: Vec<InferResponse> = (0..N)
        .map(|_| match client.recv().unwrap() {
            Frame::Logits(r) => r,
            other => panic!("expected logits, got {other:?}"),
        })
        .collect();
    over_tcp.sort_by_key(|r| r.id);

    let mut reference = ShardedEngine::with_factory(
        2,
        |_| replica(),
        PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
        EngineConfig::default().with_max_batch(4).with_seed(7),
    );
    let in_process = reference.serve(&x);
    for (tcp, local) in over_tcp.iter().zip(&in_process) {
        assert_eq!(tcp.precision, local.precision, "schedule diverged");
        let tcp_bits: Vec<u32> = tcp.logits.iter().map(|v| v.to_bits()).collect();
        let local_bits: Vec<u32> = local.logits.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(tcp_bits, local_bits, "request {} not bitwise", tcp.id);
    }
    server.shutdown();
}

/// Acceptance pin: expired requests are shed with a typed
/// `Reject{DeadlineExceeded}` and consume **no draw** from the seeded
/// precision schedule — the surviving requests get exactly the draws an
/// engine fed only them would produce, bitwise logits included.
#[test]
fn expired_requests_are_shed_and_consume_no_schedule_draw() {
    const N: usize = 6;
    let server = Server::spawn(base_config().paused(), |_| replica()).unwrap();
    let x = images(N, 22);
    let mut client = Client::connect(server.addr()).unwrap();
    // Odd ids carry a 1 ms deadline; the batcher is paused long past it.
    for i in 0..N {
        let deadline = if i % 2 == 1 { Some(1) } else { None };
        client
            .send(&infer_frame_with(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
                deadline,
                Class::Normal,
            ))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    server.resume();

    let mut shed = Vec::new();
    let mut served: Vec<InferResponse> = Vec::new();
    for _ in 0..N {
        match client.recv().unwrap() {
            Frame::Reject { id, code } => {
                assert_eq!(code, RejectCode::DeadlineExceeded);
                shed.push(id);
            }
            Frame::Logits(r) => served.push(r),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    shed.sort_unstable();
    assert_eq!(shed, vec![1, 3, 5], "exactly the expired requests shed");
    served.sort_by_key(|r| r.id);
    assert_eq!(
        served.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![0, 2, 4]
    );

    // Reference: an engine that never saw the shed requests. If shedding
    // consumed schedule draws, the precisions (and logits) would diverge.
    let survivors = {
        let mut rng = SeededRng::new(0);
        let mut t = Tensor::rand_uniform(&[3, SHAPE[0], SHAPE[1], SHAPE[2]], 0.0, 1.0, &mut rng);
        for (row, i) in [0usize, 2, 4].iter().enumerate() {
            t.set_axis0(row, &x.index_axis0(*i));
        }
        t
    };
    let mut reference = ShardedEngine::with_factory(
        2,
        |_| replica(),
        PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
        EngineConfig::default().with_max_batch(4).with_seed(7),
    );
    let in_process = reference.serve(&survivors);
    for (tcp, local) in served.iter().zip(&in_process) {
        assert_eq!(
            tcp.precision, local.precision,
            "a shed request consumed a schedule draw"
        );
        let tcp_bits: Vec<u32> = tcp.logits.iter().map(|v| v.to_bits()).collect();
        let local_bits: Vec<u32> = local.logits.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(tcp_bits, local_bits);
    }
    let metrics = server.metrics();
    assert_eq!(
        metrics
            .rejected_deadline
            .load(std::sync::atomic::Ordering::Relaxed),
        3
    );
    let engine = server.shutdown();
    assert_eq!(engine.stats().requests, 3, "shed work never hit the engine");
}

/// Deadline shedding driven by the injected [`Clock`] seam instead of wall
/// time: with a manual clock, time passes only on `advance`, so a 5 ms
/// deadline expires deterministically — no sleeps, no timing slack — while
/// the undeadlined request on the same connection is served normally.
#[test]
fn manual_clock_expires_deadlines_without_wall_time() {
    let clock = Clock::manual();
    let server = Server::spawn(base_config().paused().with_clock(clock.clone()), |_| {
        replica()
    })
    .unwrap();
    let x = images(2, 33);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .send(&infer_frame_with(
            0,
            &x.index_axis0(0),
            WirePolicy::Server,
            Some(5),
            Class::Normal,
        ))
        .unwrap();
    client
        .send(&infer_frame_with(
            1,
            &x.index_axis0(1),
            WirePolicy::Server,
            None,
            Class::Normal,
        ))
        .unwrap();
    // Wait until both requests are admitted (the reader thread stamps their
    // enqueue time from the manual clock, which is still at zero).
    await_server("both requests to be admitted", || {
        server.metrics().snapshot().queue_depth == 2
    });
    // 50 virtual milliseconds pass; only the deadlined request expires.
    clock.advance(Duration::from_millis(50));
    server.resume();
    let mut shed = Vec::new();
    let mut served = Vec::new();
    for _ in 0..2 {
        match client.recv().unwrap() {
            Frame::Reject { id, code } => {
                assert_eq!(code, RejectCode::DeadlineExceeded);
                shed.push(id);
            }
            Frame::Logits(r) => served.push(r.id),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(
        shed,
        vec![0],
        "the 5 ms deadline expired under advance(50ms)"
    );
    assert_eq!(served, vec![1], "the undeadlined request survived");
    let engine = server.shutdown();
    assert_eq!(engine.stats().requests, 1);
}

/// The EDF order inside one batch: interactive beats normal, a deadline
/// beats no deadline, and the schedule draws follow that order — pinned by
/// replaying the same images into an in-process engine in EDF order.
#[test]
fn edf_orders_classes_and_deadlines_within_a_batch() {
    let server = Server::spawn(base_config().paused(), |_| replica()).unwrap();
    let x = images(3, 23);
    let mut client = Client::connect(server.addr()).unwrap();
    // Wire order: plain normal, normal + far-future deadline, interactive.
    client
        .send(&infer_frame(0, &x.index_axis0(0), WirePolicy::Server))
        .unwrap();
    client
        .send(&infer_frame_with(
            1,
            &x.index_axis0(1),
            WirePolicy::Server,
            Some(10_000),
            Class::Normal,
        ))
        .unwrap();
    client
        .send(&infer_frame_with(
            2,
            &x.index_axis0(2),
            WirePolicy::Server,
            None,
            Class::Interactive,
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    server.resume();

    let mut served: Vec<InferResponse> = (0..3)
        .map(|_| match client.recv().unwrap() {
            Frame::Logits(r) => r,
            other => panic!("expected logits, got {other:?}"),
        })
        .collect();
    served.sort_by_key(|r| r.id);

    // EDF order is 2 (interactive), 1 (deadlined normal), 0 (plain
    // normal): replay the images in that order in-process and match the
    // draws position by position.
    let edf = {
        let mut rng = SeededRng::new(0);
        let mut t = Tensor::rand_uniform(&[3, SHAPE[0], SHAPE[1], SHAPE[2]], 0.0, 1.0, &mut rng);
        for (row, i) in [2usize, 1, 0].iter().enumerate() {
            t.set_axis0(row, &x.index_axis0(*i));
        }
        t
    };
    let mut reference = ShardedEngine::with_factory(
        2,
        |_| replica(),
        PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
        EngineConfig::default().with_max_batch(4).with_seed(7),
    );
    let in_process = reference.serve(&edf);
    for (wire_id, ref_pos) in [(2u64, 0usize), (1, 1), (0, 2)] {
        let tcp = &served[wire_id as usize];
        let local = &in_process[ref_pos];
        assert_eq!(
            tcp.precision, local.precision,
            "request {wire_id} did not occupy EDF draw position {ref_pos}"
        );
        let tcp_bits: Vec<u32> = tcp.logits.iter().map(|v| v.to_bits()).collect();
        let local_bits: Vec<u32> = local.logits.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(tcp_bits, local_bits);
    }
    server.shutdown();
}

/// The scheduling window spans several engine cycles, so EDF has real
/// authority: an interactive request admitted *behind* a 20-deep backlog
/// of normal work is pulled into the first batch instead of waiting out
/// the whole queue — the head-of-line-blocking fix, observed as response
/// order on the wire.
#[test]
fn interactive_request_overtakes_a_queued_backlog() {
    const BACKLOG: usize = 20;
    // max_take = workers(2) x max_batch(4) = 8; window = 4 cycles = 32.
    let server = Server::spawn(base_config().paused(), |_| replica()).unwrap();
    let x = images(BACKLOG + 1, 25);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..BACKLOG {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    client
        .send(&infer_frame_with(
            BACKLOG as u64,
            &x.index_axis0(BACKLOG),
            WirePolicy::Server,
            None,
            Class::Interactive,
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    server.resume();

    let order: Vec<u64> = (0..BACKLOG + 1)
        .map(|_| match client.recv().unwrap() {
            Frame::Logits(r) => r.id,
            other => panic!("expected logits, got {other:?}"),
        })
        .collect();
    let position = order
        .iter()
        .position(|&id| id == BACKLOG as u64)
        .expect("interactive request was served");
    assert!(
        position < 8,
        "the interactive request must ride the first engine cycle (got \
         position {position} in {order:?})"
    );
    server.shutdown();
}

/// Satellite pin: a `Shutdown` frame on one connection racing other
/// connections mid-submit. Everything admitted is drained — no lost
/// responses, no double `ShutdownAck` — including requests whose deadlines
/// expire during the drain (answered with a typed reject, not dropped).
#[test]
fn shutdown_races_inflight_submissions_across_connections() {
    const RACERS: usize = 50;
    let clock = Clock::manual();
    let server = Server::spawn(base_config().paused().with_clock(clock.clone()), |_| {
        replica()
    })
    .unwrap();
    let x = images(8, 24);

    // Connection A: two plain requests plus two whose 1 ms deadline will
    // have expired by the time the drain sweep reaches them.
    let mut conn_a = Client::connect(server.addr()).unwrap();
    for (id, deadline) in [(0u64, None), (1, Some(1)), (2, None), (3, Some(1))] {
        conn_a
            .send(&infer_frame_with(
                id,
                &x.index_axis0(id as usize),
                WirePolicy::Server,
                deadline,
                Class::Normal,
            ))
            .unwrap();
    }
    // A's reader runs on its own thread: without this wait B's Shutdown can
    // set the drain flag first and A is refused `Draining` at admission.
    // Once all four are in, virtual time expires the two deadlines.
    await_server("A's four requests to be admitted", || {
        server.metrics().snapshot().admitted == 4
    });
    clock.advance(Duration::from_millis(50));

    // Connection C: a racer pipelining submissions while the shutdown
    // lands. Admission is racy by construction; the invariant is that
    // every sent request gets exactly one answer.
    let addr = server.addr();
    let img = x.index_axis0(7);
    let racer = std::thread::spawn(move || {
        let mut conn = Client::connect(addr).unwrap();
        let mut sent = 0u64;
        for id in 0..RACERS as u64 {
            if conn
                .send(&infer_frame(id, &img, WirePolicy::Server))
                .is_err()
            {
                break;
            }
            sent += 1;
        }
        let (mut ok, mut rejected) = (0u64, 0u64);
        for _ in 0..sent {
            match conn.recv() {
                Ok(Frame::Logits(_)) => ok += 1,
                Ok(Frame::Reject { code, .. }) => {
                    assert!(
                        matches!(code, RejectCode::Draining | RejectCode::QueueFull),
                        "unexpected racer reject {code:?}"
                    );
                    rejected += 1;
                }
                Ok(other) => panic!("unexpected racer frame {other:?}"),
                Err(_) => break,
            }
        }
        (sent, ok, rejected)
    });

    // Connection B: three requests, then the shutdown — its admitted work
    // must be served before the single ack.
    let mut conn_b = Client::connect(server.addr()).unwrap();
    for id in 0..3u64 {
        conn_b
            .send(&infer_frame(
                id,
                &x.index_axis0(4 + id as usize),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    conn_b.send(&Frame::Shutdown).unwrap();
    server.resume();

    // B: exactly 3 logits, then exactly one ack, then a closed socket.
    let (mut b_logits, mut b_acks) = (0, 0);
    loop {
        match conn_b.recv() {
            Ok(Frame::Logits(_)) => b_logits += 1,
            Ok(Frame::ShutdownAck) => {
                b_acks += 1;
                break;
            }
            Ok(other) => panic!("unexpected frame on B {other:?}"),
            Err(e) => panic!("B lost its ack: {e}"),
        }
    }
    assert_eq!(b_logits, 3, "B's admitted work must be served pre-ack");
    assert_eq!(b_acks, 1);

    // A: four answers — two served, two shed as DeadlineExceeded — and
    // crucially no ShutdownAck (only the requester is acked).
    let (mut a_logits, mut a_shed) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        match conn_a.recv().unwrap() {
            Frame::Logits(r) => a_logits.push(r.id),
            Frame::Reject { id, code } => {
                assert_eq!(code, RejectCode::DeadlineExceeded);
                a_shed.push(id);
            }
            other => panic!("unexpected frame on A {other:?}"),
        }
    }
    a_logits.sort_unstable();
    a_shed.sort_unstable();
    assert_eq!(a_logits, vec![0, 2]);
    assert_eq!(
        a_shed,
        vec![1, 3],
        "deadlines expiring mid-drain still answered"
    );

    let (c_sent, c_ok, c_rejected) = racer.join().unwrap();
    assert_eq!(
        c_ok + c_rejected,
        c_sent,
        "every racer request needs exactly one answer"
    );

    let metrics = server.metrics_handle();
    let engine = server.wait();
    // No lost and no duplicated responses: the engine executed exactly the
    // requests that were answered with logits.
    assert_eq!(
        engine.stats().requests as u64,
        2 + 3 + c_ok,
        "admitted-and-unexpired work must be drained exactly once"
    );
    // Quiescence ledger even after the racing shutdown: no reader thread
    // survives the drain, the gauge is back to zero, counters conserve.
    let snap = metrics.snapshot();
    assert_eq!(snap.readers_live, 0, "reader thread leaked past shutdown");
    assert_eq!(snap.queue_depth, 0, "queue gauge must return to zero");
    assert_eq!(snap.conservation_check(), Ok(()));
    // After the drain the server closed both connections; A never sees a
    // second ack.
    assert!(matches!(
        conn_a.recv(),
        Err(WireError::Closed) | Err(WireError::Io(_))
    ));
    assert!(matches!(
        conn_b.recv(),
        Err(WireError::Closed) | Err(WireError::Io(_))
    ));
}

/// Slow-loris isolation, on virtual time: one connection drips the
/// 12-byte frame header a single byte per manual-clock tick. Per-frame
/// reads live on that connection's reader thread, so the batcher keeps
/// running and another client's infer is served to completion *while the
/// loris is still mid-header* — no wall-clock sleeps anywhere, only
/// `Clock::advance`. Once the loris finally finishes its frame, it too is
/// served (slow is not malformed).
#[test]
fn slow_loris_header_does_not_hold_the_batcher_or_starve_others() {
    let clock = Clock::manual();
    let server = Server::spawn(base_config().with_clock(clock.clone()), |_| replica()).unwrap();
    let x = images(2, 34);

    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.set_nodelay(true).unwrap();
    let frame = infer_frame(77, &x.index_axis0(0), WirePolicy::Server).encode();

    // One header byte per virtual-clock tick. The write returns as soon as
    // the kernel buffers the byte; the server side sits in a partial
    // header read on the loris's own reader thread.
    for byte in &frame[..12] {
        loris.write_all(std::slice::from_ref(byte)).unwrap();
        loris.flush().unwrap();
        clock.advance(Duration::from_millis(1));
    }

    // Mid-header, a well-behaved client is served normally: the batcher
    // never blocked on the loris's unfinished frame.
    let mut client = Client::connect(server.addr()).unwrap();
    match client
        .infer(1, &x.index_axis0(1), WirePolicy::Server)
        .unwrap()
    {
        Frame::Logits(r) => assert_eq!(r.id, 1),
        other => panic!("victim client starved by the loris: {other:?}"),
    }

    // The loris completes its frame (payload in one write) and is served.
    loris.write_all(&frame[12..]).unwrap();
    loris.flush().unwrap();
    match Frame::read_from(&mut loris) {
        Ok(Frame::Logits(r)) => assert_eq!(r.id, 77),
        other => panic!("completed slow frame must be served, got {other:?}"),
    }

    let metrics = server.metrics_handle();
    let engine = server.shutdown();
    assert_eq!(engine.stats().requests, 2);
    let snap = metrics.snapshot();
    assert_eq!(snap.readers_live, 0);
    assert_eq!(snap.conservation_check(), Ok(()));
}

/// Tentpole acceptance: under a queued backlog the adaptive controller
/// walks the degradation level up cycle by cycle (shifting the precision
/// mix toward lower bit-widths), recovers once the pressure clears, and a
/// floored class never samples below its floor at any level.
///
/// The scenario is fully determined: 32 requests queued against a paused
/// server fill the 32-slot EDF window exactly, so the four 8-deep cycles
/// see fills 1.0, 0.75, 0.5 and 0.25. With a (0.5, 0.25) fill band and no
/// cooldown that is three degrade steps and then recovery — each step
/// landing *after* its cycle was served, so the cycles run at levels
/// 0, 1, 2, 3.
#[test]
fn adaptive_degradation_respects_per_class_floors() {
    const BACKLOG: usize = 32; // window_cap = WINDOW_CYCLES(4) x max_take(8)
    let ctrl = ControlConfig::default()
        .with_fill_band(0.5, 0.25)
        .with_cooldown(0)
        .with_floor(Class::Interactive, Precision::new(6));
    let cfg = base_config()
        .with_queue_capacity(64)
        .with_control(ctrl)
        .paused();
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    let x = images(BACKLOG + 3, 41);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..BACKLOG {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    let metrics = server.metrics_handle();
    await_server("the backlog to be admitted", || {
        metrics.snapshot().queue_depth == BACKLOG as u64
    });
    server.resume();

    let mut normals: Vec<InferResponse> = (0..BACKLOG)
        .map(|_| match client.recv().unwrap() {
            Frame::Logits(r) => r,
            other => panic!("expected logits, got {other:?}"),
        })
        .collect();
    normals.sort_by_key(|r| r.id);
    // The last cycle (ids 24..32) ran at level 3: its window is {4, 5}-bit
    // — strictly below the interactive floor, so degradation really bit.
    for r in &normals[24..] {
        let bits = r.precision.expect("server RPS policy never fp32").bits();
        assert!(
            bits < 6,
            "request {} should be degraded below 6 bits at level 3, got {bits}",
            r.id
        );
    }

    // Interactive requests one at a time, starting at level 2 (the recover
    // step after cycle four): every draw is clamped to the 6-bit floor or
    // above, at every level on the way back down to 0.
    for i in BACKLOG..BACKLOG + 3 {
        client
            .send(&infer_frame_with(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
                None,
                Class::Interactive,
            ))
            .unwrap();
        match client.recv().unwrap() {
            Frame::Logits(r) => {
                let bits = r.precision.expect("server RPS policy never fp32").bits();
                assert!(
                    bits >= 6,
                    "interactive request {i} sampled {bits} bits, below its floor"
                );
            }
            other => panic!("expected logits, got {other:?}"),
        }
    }

    // The controller's ledger, exactly: three degrades under the backlog;
    // three recovers (after cycle four, then after each of the first two
    // interactive cycles); every interactive draw floor-clamped (the floor
    // lifts the 4~8-bit window's low edge at levels 2, 1 and 0 alike).
    use std::sync::atomic::Ordering as O;
    assert_eq!(metrics.degrade_shifts_down.load(O::Relaxed), 3);
    assert_eq!(metrics.degrade_shifts_up.load(O::Relaxed), 3);
    assert_eq!(metrics.floor_clamped_total.load(O::Relaxed), 3);
    assert_eq!(
        metrics.degrade_level.load(O::Relaxed),
        0,
        "level must return to 0 once pressure clears"
    );
    server.shutdown();
}

/// Adaptive runs are bitwise deterministic per seed: the same submissions
/// against the same configuration yield the same controller decisions,
/// hence the same precision schedule and identical logits bits, run to
/// run — degradation changes what a draw maps to, never the stream
/// position.
#[test]
fn adaptive_runs_are_bitwise_deterministic_per_seed() {
    fn run_once() -> Vec<(u64, Option<Precision>, Vec<u32>)> {
        const N: usize = 32;
        let ctrl = ControlConfig::default()
            .with_fill_band(0.5, 0.25)
            .with_cooldown(1)
            .with_floor(Class::Interactive, Precision::new(6));
        let cfg = base_config()
            .with_queue_capacity(64)
            .with_control(ctrl)
            .paused();
        let server = Server::spawn(cfg, |_| replica()).unwrap();
        let x = images(N, 42);
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..N {
            let class = if i % 4 == 0 {
                Class::Interactive
            } else {
                Class::Normal
            };
            client
                .send(&infer_frame_with(
                    i as u64,
                    &x.index_axis0(i),
                    WirePolicy::Server,
                    None,
                    class,
                ))
                .unwrap();
        }
        await_server("every request to be admitted", || {
            server.metrics().snapshot().queue_depth == N as u64
        });
        server.resume();
        let mut got: Vec<InferResponse> = (0..N)
            .map(|_| match client.recv().unwrap() {
                Frame::Logits(r) => r,
                other => panic!("expected logits, got {other:?}"),
            })
            .collect();
        got.sort_by_key(|r| r.id);
        server.shutdown();
        got.into_iter()
            .map(|r| {
                (
                    r.id,
                    r.precision,
                    r.logits.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }
    assert_eq!(run_once(), run_once());
}

/// Arming the controller is free when there is no pressure: at level 0 an
/// adaptive server's schedule is draw-for-draw the plain-RPS schedule, so
/// logits stay bitwise identical to an in-process reference engine that
/// has never heard of the controller.
#[test]
fn idle_adaptive_server_matches_the_plain_rps_schedule_bitwise() {
    const N: usize = 12;
    let cfg = base_config().with_control(ControlConfig::default());
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    let x = images(N, 43);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..N {
        client
            .send(&infer_frame(
                i as u64,
                &x.index_axis0(i),
                WirePolicy::Server,
            ))
            .unwrap();
    }
    let mut over_tcp: Vec<InferResponse> = (0..N)
        .map(|_| match client.recv().unwrap() {
            Frame::Logits(r) => r,
            other => panic!("expected logits, got {other:?}"),
        })
        .collect();
    over_tcp.sort_by_key(|r| r.id);

    let mut reference = ShardedEngine::with_factory(
        2,
        |_| replica(),
        PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
        EngineConfig::default().with_max_batch(4).with_seed(7),
    );
    let in_process = reference.serve(&x);
    for (tcp, local) in over_tcp.iter().zip(&in_process) {
        assert_eq!(
            tcp.precision, local.precision,
            "an idle controller must not perturb the schedule"
        );
        let tcp_bits: Vec<u32> = tcp.logits.iter().map(|v| v.to_bits()).collect();
        let local_bits: Vec<u32> = local.logits.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(tcp_bits, local_bits);
    }
    server.shutdown();
}

/// An open-loop run against a paused, tiny-queue server sheds load via
/// rejects instead of queueing without bound.
#[test]
fn open_loop_overload_is_shed_with_rejects() {
    let cfg = base_config().with_queue_capacity(2).paused();
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    // Resume the batcher only after the burst has been fired, so the
    // bounded queue is what absorbs (and sheds) the arrivals; the admitted
    // requests are then served, unblocking the load run.
    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(400));
            server.resume();
        });
        tia_serve::run_load(&LoadConfig {
            addr: server.addr().to_string(),
            connections: 1,
            requests: 12,
            inflight: 1,
            rate: Some(2000.0),
            shape: SHAPE,
            seed: 10,
            policy: WirePolicy::Server,
            ..LoadConfig::default()
        })
        .unwrap()
    });
    assert_eq!(report.sent, 12);
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok + report.rejected, 12);
    assert!(
        report.rejected >= 1,
        "a paused 2-deep queue must shed load, got {report:?}"
    );
    let engine = server.shutdown();
    // Exactly the admitted requests got served — nothing lost, nothing
    // double-served.
    assert_eq!(engine.stats().requests as u64, report.ok);
}

/// The flight recorder under the manual [`Clock`]: with time frozen at
/// admission and advanced 50 virtual milliseconds before the batcher
/// runs, a 3-request scenario (one deadlined request shed, two served)
/// produces an exactly pinned event sequence — stages AND timestamps —
/// with every admitted span complete.
#[test]
fn manual_clock_pins_the_exact_trace_of_a_three_request_run() {
    use tia_serve::trace::{self, Stage};
    let clock = Clock::manual();
    let server = Server::spawn(
        base_config()
            .paused()
            .with_clock(clock.clone())
            .with_trace(),
        |_| replica(),
    )
    .unwrap();
    let x = images(3, 44);
    let mut client = Client::connect(server.addr()).unwrap();
    // Wire order on one connection = trace-id issue order: wire 0 carries
    // a 5 ms deadline (doomed), wires 1 and 2 none.
    for (wire, deadline) in [(0u64, Some(5u32)), (1, None), (2, None)] {
        client
            .send(&infer_frame_with(
                wire,
                &x.index_axis0(wire as usize),
                WirePolicy::Server,
                deadline,
                Class::Normal,
            ))
            .unwrap();
    }
    // Mid-flight, non-destructive: wait (wall time, not virtual — the
    // reader threads run free) until all three admissions hit the rings,
    // then pin the admission-side prefix, all stamped at virtual zero.
    let mut midflight = Vec::new();
    for _ in 0..1000 {
        midflight = server.drain_trace();
        if midflight.len() == 3 && midflight.iter().all(|s| s.events.len() == 3) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(midflight.len(), 3, "three requests admitted");
    for (i, span) in midflight.iter().enumerate() {
        assert_eq!(span.trace_id, i as u64 + 1, "trace ids issue from 1");
        assert_eq!(span.wire_id, Some(i as u64), "wire ids ride along");
        assert_eq!(
            span.stages(),
            vec![Stage::FrameDecoded, Stage::Admitted, Stage::Enqueued]
        );
        assert!(span.events.iter().all(|e| e.ts_ns == 0));
        assert!(!span.complete(), "no terminal stage yet");
    }

    // 50 virtual milliseconds pass; the batcher wakes, sheds wire 0 and
    // serves wires 1 and 2.
    clock.advance(Duration::from_millis(50));
    server.resume();
    let (mut shed, mut served) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        match client.recv().unwrap() {
            Frame::Reject { id, code } => {
                assert_eq!(code, RejectCode::DeadlineExceeded);
                shed.push(id);
            }
            Frame::Logits(r) => served.push(r.id),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(shed, vec![0]);
    assert_eq!(served, vec![1, 2]);

    let sink = server.trace_handle().expect("tracing armed");
    server.shutdown(); // quiesce every ring before the final snapshot

    const MS50: u64 = 50_000_000;
    let spans = trace::spans(&sink.drain());
    assert_eq!(spans.len(), 3);
    // Wire 0: admitted at virtual zero, shed when the clock jumped.
    assert_eq!(
        spans[0].stages(),
        vec![
            Stage::FrameDecoded,
            Stage::Admitted,
            Stage::Enqueued,
            Stage::WindowEnter,
            Stage::Shed,
        ]
    );
    assert_eq!(
        spans[0].events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
        vec![0, 0, 0, MS50, MS50]
    );
    // Wires 1 and 2: the full served lifecycle, every post-advance stage
    // at exactly 50 virtual ms (the manual clock never moves in between).
    for span in &spans[1..] {
        assert_eq!(
            span.stages(),
            vec![
                Stage::FrameDecoded,
                Stage::Admitted,
                Stage::Enqueued,
                Stage::WindowEnter,
                Stage::EngineSubmit,
                Stage::Flushed,
                Stage::Encoded,
                Stage::Sent,
            ]
        );
        assert_eq!(
            span.events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![0, 0, 0, MS50, MS50, MS50, MS50, MS50]
        );
    }
    for span in &spans {
        assert!(span.complete(), "span {} broken", span.trace_id);
    }
    assert_eq!(sink.overwritten(), 0, "nothing lost to ring wrap");
    // The scope events rode along: one batch formed, one engine cycle.
    let events = sink.drain();
    assert!(events.iter().any(|e| e.stage == Stage::BatchFormed));
    assert!(events.iter().any(|e| e.stage == Stage::EngineCycle));
}

/// With tracing off (the default) the recorder does not exist: no handle,
/// no spans, zero events anywhere, and the scrape port 404s `/trace`.
#[test]
fn tracing_disabled_records_nothing() {
    let cfg = base_config().with_metrics_addr("127.0.0.1:0");
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    assert!(server.trace_handle().is_none());

    let x = images(2, 45);
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..2 {
        match client.infer(i as u64, &x.index_axis0(i), WirePolicy::Server) {
            Ok(Frame::Logits(_)) => {}
            other => panic!("expected logits, got {other:?}"),
        }
    }
    assert!(server.drain_trace().is_empty(), "no trace when disabled");

    let metrics_addr = server.metrics_addr().expect("metrics listener enabled");
    use std::io::Read;
    let mut s = TcpStream::connect(metrics_addr).unwrap();
    s.write_all(b"GET /trace HTTP/1.0\r\n\r\n").unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.0 404"), "{reply}");
    assert!(reply.contains("tracing disabled"), "{reply}");

    server.shutdown();
}

/// The `/trace` scrape path serves live Chrome trace-event JSON with one
/// `request` envelope per request, fetchable through
/// [`tia_serve::fetch_trace`] — the export the loadgen's `--trace` flag
/// writes to disk.
#[test]
fn trace_endpoint_serves_chrome_trace_json() {
    const N: usize = 6;
    let cfg = base_config().with_metrics_addr("127.0.0.1:0").with_trace();
    let server = Server::spawn(cfg, |_| replica()).unwrap();
    let metrics_addr = server.metrics_addr().expect("metrics listener enabled");

    let report = tia_serve::run_load(&LoadConfig {
        addr: server.addr().to_string(),
        connections: 2,
        requests: N,
        inflight: 2,
        shape: SHAPE,
        seed: 46,
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(report.ok, N as u64);

    await_accounted(server.metrics(), N as u64);
    let json = tia_serve::fetch_trace(metrics_addr).unwrap();
    assert!(
        json.starts_with('[') && json.trim_end().ends_with(']'),
        "{json}"
    );
    let envelopes = json.matches("\"name\":\"request\"").count();
    assert_eq!(envelopes, N, "one request envelope per served request");
    assert!(
        json.contains("\"thread_name\""),
        "thread metadata names the rings: {json}"
    );
    // Serving also filled the stage histograms the scrape reports.
    let text = fetch_metrics(metrics_addr).unwrap();
    assert!(
        text.contains("tia_serve_stage_seconds_count{stage=\"total\"} 6"),
        "{text}"
    );
    assert!(
        text.contains("tia_serve_slow_request_seconds"),
        "slow-request exemplars render: {text}"
    );
    server.shutdown();
}
