//! A minimal blocking wire-protocol client, shared by the load generator,
//! the benchmarks and the integration tests.

use crate::clock;
use crate::wire::{Class, Frame, InferRequest, WireError, WirePolicy};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tia_tensor::{SeededRng, Tensor};

/// Builds an [`Frame::Infer`] from a `[C, H, W]` tensor with no deadline
/// and the normal class (see [`infer_frame_with`] to set them).
///
/// # Panics
///
/// Panics if `image` is not 3-D.
pub fn infer_frame(id: u64, image: &Tensor, policy: WirePolicy) -> Frame {
    infer_frame_with(id, image, policy, None, Class::Normal)
}

/// Builds an [`Frame::Infer`] with its scheduling fields set: a relative
/// response deadline in milliseconds (anchored at server admission) and a
/// priority class.
///
/// # Panics
///
/// Panics if `image` is not 3-D.
pub fn infer_frame_with(
    id: u64,
    image: &Tensor,
    policy: WirePolicy,
    deadline_ms: Option<u32>,
    class: Class,
) -> Frame {
    let s = image.shape();
    assert_eq!(s.len(), 3, "infer_frame expects a [C, H, W] image");
    Frame::Infer(InferRequest {
        id,
        policy,
        deadline_ms,
        class,
        shape: [s[0], s[1], s[2]],
        pixels: image.data().to_vec(),
    })
}

/// A blocking client over one wire-protocol connection. Send and receive
/// are independent, so requests can be pipelined: `send` several, then
/// `recv` the responses as they stream back.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = writer.try_clone()?;
        Ok(Self { reader, writer })
    }

    /// Connects, retrying with seeded exponential backoff until `timeout`
    /// elapses — for scripts that race a freshly spawned server's bind.
    ///
    /// Each delay doubles from a 5 ms base up to a 200 ms cap and is
    /// jittered uniformly over its upper half, so a herd of clients
    /// spawned together spreads out instead of re-colliding on every
    /// attempt. The jitter stream is seeded from the address, keeping any
    /// one client's retry schedule reproducible run to run.
    pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<Self> {
        let deadline = clock::monotonic_now() + timeout;
        let mut rng = SeededRng::new(fnv1a(addr.as_bytes()));
        let mut attempt = 0u32;
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if clock::monotonic_now() >= deadline => return Err(e),
                Err(_) => {
                    let remaining = deadline.saturating_duration_since(clock::monotonic_now());
                    std::thread::sleep(retry_backoff(attempt, &mut rng).min(remaining));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// Writes one frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write_to(&mut self.writer)
    }

    /// Reads one frame ([`WireError::Closed`] on clean EOF).
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        Frame::read_from(&mut self.reader)
    }

    /// Sends one inference request and blocks for one frame in reply.
    pub fn infer(
        &mut self,
        id: u64,
        image: &Tensor,
        policy: WirePolicy,
    ) -> Result<Frame, WireError> {
        self.send(&infer_frame(id, image, policy))?;
        self.recv()
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> Result<(), WireError> {
        self.send(&Frame::Ping)?;
        match self.recv()? {
            Frame::Pong => Ok(()),
            other => Err(WireError::Malformed(frame_name(&other))),
        }
    }

    /// Asks the server to drain and exit, then reads until the
    /// [`Frame::ShutdownAck`] arrives (passing back any in-flight responses
    /// to `on_frame` so pipelined work is not lost). Returns once the ack
    /// is seen.
    pub fn shutdown_server(&mut self, mut on_frame: impl FnMut(Frame)) -> Result<(), WireError> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.recv()? {
                Frame::ShutdownAck => return Ok(()),
                other => on_frame(other),
            }
        }
    }

    /// Splits into independent read/write halves (for threaded pipelining).
    pub fn into_split(self) -> (TcpStream, TcpStream) {
        (self.reader, self.writer)
    }
}

/// First delay of [`Client::connect_retry`]'s exponential backoff.
const RETRY_BASE: Duration = Duration::from_millis(5);
/// Ceiling the backoff doubles up to.
const RETRY_CAP: Duration = Duration::from_millis(200);

/// The `attempt`-th reconnect delay: `RETRY_BASE << attempt` capped at
/// `RETRY_CAP`, jittered uniformly over the upper half of that span (a
/// full-span jitter could collapse to near-zero sleeps and spin).
fn retry_backoff(attempt: u32, rng: &mut SeededRng) -> Duration {
    let full = RETRY_CAP.min(RETRY_BASE.saturating_mul(1u32 << attempt.min(10)));
    let full_us = full.as_micros() as usize;
    let half_us = full_us / 2;
    Duration::from_micros((half_us + rng.below(full_us - half_us + 1)) as u64)
}

/// FNV-1a over the address bytes: a stable, dependency-free seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Infer(_) => "unexpected Infer",
        Frame::Logits(_) => "unexpected Logits",
        Frame::Reject { .. } => "unexpected Reject",
        Frame::Error { .. } => "unexpected Error",
        Frame::Ping => "unexpected Ping",
        Frame::Pong => "unexpected Pong",
        Frame::Shutdown => "unexpected Shutdown",
        Frame::ShutdownAck => "unexpected ShutdownAck",
    }
}

/// Fetches the Prometheus text exposition from a server's scrape port
/// (a one-shot HTTP/1.0 GET).
pub fn fetch_metrics<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    http_get(addr, b"GET /metrics HTTP/1.0\r\nHost: tia-serve\r\n\r\n")
}

/// Fetches the flight recorder's Chrome trace-event JSON from a server's
/// scrape port (the `/trace` path; 404 when tracing is disabled — surfaced
/// here as the body-less error).
pub fn fetch_trace<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    http_get(addr, b"GET /trace HTTP/1.0\r\nHost: tia-serve\r\n\r\n")
}

fn http_get<A: ToSocketAddrs>(addr: A, request: &[u8]) -> io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_headers, body)) => Ok(body.to_string()),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HTTP response from scrape endpoint",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_within_jitter_bounds_and_caps() {
        let mut rng = SeededRng::new(1);
        for attempt in 0..12u32 {
            let nominal = RETRY_CAP.min(RETRY_BASE.saturating_mul(1u32 << attempt.min(10)));
            for _ in 0..32 {
                let d = retry_backoff(attempt, &mut rng);
                assert!(
                    d >= nominal / 2 && d <= nominal,
                    "attempt {attempt}: {d:?} outside [{:?}, {nominal:?}]",
                    nominal / 2
                );
            }
        }
        // The cap holds even for absurd attempt counts.
        assert!(retry_backoff(u32::MAX, &mut rng) <= RETRY_CAP);
    }

    #[test]
    fn backoff_schedule_is_reproducible_per_seed() {
        let seed = fnv1a(b"127.0.0.1:7878");
        let (mut a, mut b) = (SeededRng::new(seed), SeededRng::new(seed));
        for attempt in 0..8 {
            assert_eq!(
                retry_backoff(attempt, &mut a),
                retry_backoff(attempt, &mut b)
            );
        }
        // Different addresses give different jitter streams.
        assert_ne!(seed, fnv1a(b"127.0.0.1:7879"));
    }
}
