//! The length-prefixed binary wire protocol.
//!
//! # Frame layout
//!
//! Every frame is a 12-byte header followed by a kind-specific payload; all
//! multi-byte integers are little-endian, all floats are IEEE-754 `f32`
//! bit patterns:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"TIAS"
//! 4       1     version = 2 (the only one; see below)
//! 5       1     kind (see below)
//! 6       2     reserved, must be 0
//! 8       4     payload length in bytes (u32 LE, <= 64 MiB)
//! 12      ...   payload
//! ```
//!
//! | kind | frame | payload |
//! |---|---|---|
//! | 1 | `Infer` | `id: u64`, `deadline_ms: u32` (0 = none), `class: u8`, policy, `shape: 3 × u32`, `C·H·W × f32` pixels |
//! | 2 | `Logits` | `id: u64`, `precision: u8`, `top1: u32`, `n: u32`, `n × f32` |
//! | 3 | `Reject` | `id: u64`, `code: u8` — admission control (503-style) |
//! | 4 | `Error` | `msg: u16 len + UTF-8` — protocol violation, stream is dead |
//! | 5 | `Ping` | empty |
//! | 6 | `Pong` | empty |
//! | 7 | `Shutdown` | empty — ask the server to drain and exit |
//! | 8 | `ShutdownAck` | empty — drain complete, connection closes next |
//!
//! # One version
//!
//! Every frame is stamped [`VERSION`] and there is one payload layout per
//! kind. An `Infer` always carries its two scheduling fields right after
//! the request id: a **relative deadline** in milliseconds (`u32`, `0` =
//! no deadline, anchored at server admission) and a **priority class**
//! (`0` = normal, `1` = interactive, `2` = batch) — 5 bytes on a frame of
//! 3 KiB or more. Every peer that speaks this protocol (`Client`,
//! `tia-loadgen`, `tia-chaos`, the repo benchmark) is built from this
//! repository, so no older layout is accepted: any other version byte is
//! [`WireError::BadVersion`], fatal to that connection like every other
//! framing error.
//!
//! Precisions on the wire are a single `u8`: `0` = full precision (fp32),
//! `1..=16` = quantized bit-width. The request's *policy* field selects how
//! the serving precision is chosen: `0` = the server's own seeded policy
//! schedule, `1` + precision byte = pinned, `2` + `count` + `count` bit
//! bytes = a random draw from an explicit candidate set.
//!
//! Decoding is strict: bad magic, unknown version or kind, oversized or
//! truncated payloads, out-of-range precisions or classes, length
//! mismatches and trailing bytes are all rejected with a typed
//! [`WireError`] — a malformed frame can cost the sender its connection,
//! never the server its process.

use std::io::{Read, Write};
use tia_quant::{Precision, PrecisionSet};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TIAS";
/// The protocol version every frame carries; no other is accepted.
pub const VERSION: u8 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Hard cap on a frame's payload; larger length fields are rejected before
/// any allocation happens.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream ended (or the buffer ran out) mid-frame.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// The header's payload length exceeds [`MAX_PAYLOAD`].
    Oversize(usize),
    /// The payload failed validation (reason attached).
    Malformed(&'static str),
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// How the server picks the execution precision for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePolicy {
    /// Follow the server's configured [`tia_engine::PrecisionPolicy`] and
    /// its seeded schedule — the default, and the only mode that preserves
    /// the engine's deterministic precision-switch schedule end-to-end.
    Server,
    /// Pin the request to an explicit precision (`None` = full precision).
    /// Pinned requests consume no draw from the server's schedule.
    Fixed(Option<Precision>),
    /// Ask the server to draw uniformly from an explicit candidate set
    /// (sampled from the server's request-policy RNG stream, then pinned).
    Random(PrecisionSet),
}

/// Why a request was refused by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The bounded request queue is full — back off and retry (the wire
    /// analogue of HTTP 503).
    QueueFull = 1,
    /// The server is draining for shutdown and admits no new work.
    Draining = 2,
    /// The image shape is not the geometry this server serves.
    BadShape = 3,
    /// The request's deadline expired before it reached the engine; the
    /// scheduler shed it instead of wasting engine cycles on an answer
    /// that is already too late (the wire analogue of HTTP 504).
    DeadlineExceeded = 4,
}

impl RejectCode {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(RejectCode::QueueFull),
            2 => Ok(RejectCode::Draining),
            3 => Ok(RejectCode::BadShape),
            4 => Ok(RejectCode::DeadlineExceeded),
            _ => Err(WireError::Malformed("unknown reject code")),
        }
    }
}

/// A request's scheduling priority class. Classes partition the scheduler's
/// earliest-deadline-first order: every `Interactive` request is batched
/// before any `Normal` one, which beats any `Batch` one; within a class,
/// earlier deadlines go first and deadline-less requests keep FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Class {
    /// The default class (wire byte `0`).
    #[default]
    Normal,
    /// Latency-sensitive traffic, scheduled ahead of `Normal` (wire `1`).
    Interactive,
    /// Throughput traffic, scheduled behind `Normal` (wire `2`).
    Batch,
}

impl Class {
    /// The wire byte for this class.
    pub fn as_u8(self) -> u8 {
        match self {
            Class::Normal => 0,
            Class::Interactive => 1,
            Class::Batch => 2,
        }
    }

    /// Scheduling rank: lower runs first (`Interactive` < `Normal` <
    /// `Batch`).
    pub fn rank(self) -> u8 {
        match self {
            Class::Interactive => 0,
            Class::Normal => 1,
            Class::Batch => 2,
        }
    }

    /// The metrics label for this class.
    pub fn label(self) -> &'static str {
        match self {
            Class::Normal => "normal",
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }

    /// All classes, in wire-byte order (slot `i` has wire byte `i`).
    pub const ALL: [Class; 3] = [Class::Normal, Class::Interactive, Class::Batch];

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Class::Normal),
            1 => Ok(Class::Interactive),
            2 => Ok(Class::Batch),
            _ => Err(WireError::Malformed("unknown priority class")),
        }
    }
}

/// An inference request: caller-chosen id, precision policy, and one
/// `[C, H, W]` image.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Caller-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// How the serving precision is chosen.
    pub policy: WirePolicy,
    /// Relative response deadline in milliseconds, anchored at server
    /// admission; `None` = serve whenever. A request whose deadline expires
    /// before it reaches the engine is shed with
    /// [`RejectCode::DeadlineExceeded`]. (`Some(0)` is not representable on
    /// the wire — the zero byte means "no deadline" — and round-trips as
    /// `None`.)
    pub deadline_ms: Option<u32>,
    /// Scheduling priority class.
    pub class: Class,
    /// Image geometry `[C, H, W]`.
    pub shape: [usize; 3],
    /// Row-major pixel data, exactly `C·H·W` values.
    pub pixels: Vec<f32>,
}

/// A completed inference: logits, top-1 class, and the precision the
/// request actually executed at.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// The id of the matching [`InferRequest`].
    pub id: u64,
    /// Executed precision (`None` = full precision).
    pub precision: Option<Precision>,
    /// Top-1 predicted class.
    pub top1: usize,
    /// Class logits.
    pub logits: Vec<f32>,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An inference request (client → server).
    Infer(InferRequest),
    /// An inference response (server → client).
    Logits(InferResponse),
    /// Admission-control refusal for request `id` (server → client).
    Reject {
        /// The refused request's id.
        id: u64,
        /// Why it was refused.
        code: RejectCode,
    },
    /// Protocol violation report; the server closes the connection after
    /// sending one (stream framing can no longer be trusted).
    Error {
        /// Human-readable description of the violation.
        msg: String,
    },
    /// Liveness probe (client → server).
    Ping,
    /// Liveness reply (server → client).
    Pong,
    /// Ask the server to drain queued work and exit (client → server).
    Shutdown,
    /// Drain complete; the server closes the connection next.
    ShutdownAck,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Infer(_) => 1,
            Frame::Logits(_) => 2,
            Frame::Reject { .. } => 3,
            Frame::Error { .. } => 4,
            Frame::Ping => 5,
            Frame::Pong => 6,
            Frame::Shutdown => 7,
            Frame::ShutdownAck => 8,
        }
    }

    /// Serializes the frame (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Frame::Infer(req) => {
                payload.extend_from_slice(&req.id.to_le_bytes());
                payload.extend_from_slice(&req.deadline_ms.unwrap_or(0).to_le_bytes());
                payload.push(req.class.as_u8());
                encode_policy(&req.policy, &mut payload);
                for &d in &req.shape {
                    payload.extend_from_slice(&(d as u32).to_le_bytes());
                }
                for &v in &req.pixels {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Logits(resp) => {
                payload.extend_from_slice(&resp.id.to_le_bytes());
                payload.push(precision_byte(resp.precision));
                payload.extend_from_slice(&(resp.top1 as u32).to_le_bytes());
                payload.extend_from_slice(&(resp.logits.len() as u32).to_le_bytes());
                for &v in &resp.logits {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Reject { id, code } => {
                payload.extend_from_slice(&id.to_le_bytes());
                payload.push(*code as u8);
            }
            Frame::Error { msg } => {
                let bytes = msg.as_bytes();
                let n = bytes.len().min(u16::MAX as usize);
                payload.extend_from_slice(&(n as u16).to_le_bytes());
                payload.extend_from_slice(&bytes[..n]);
            }
            Frame::Ping | Frame::Pong | Frame::Shutdown | Frame::ShutdownAck => {}
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed. A buffer shorter than a full frame yields
    /// [`WireError::Truncated`].
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let payload_len = check_header(&buf[..HEADER_LEN])?;
        if buf.len() < HEADER_LEN + payload_len {
            return Err(WireError::Truncated);
        }
        let frame = decode_payload(buf[5], &buf[HEADER_LEN..HEADER_LEN + payload_len])?;
        Ok((frame, HEADER_LEN + payload_len))
    }

    /// Writes the frame to a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads exactly one frame from a stream. A clean EOF *before* any
    /// header byte is [`WireError::Closed`]; an EOF mid-frame is
    /// [`WireError::Truncated`].
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0;
        while got < HEADER_LEN {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Err(WireError::Closed),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let payload_len = check_header(&header)?;
        let mut payload = vec![0u8; payload_len];
        r.read_exact(&mut payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated
            } else {
                WireError::Io(e)
            }
        })?;
        decode_payload(header[5], &payload)
    }
}

/// Validates a 12-byte header, returning the payload length.
fn check_header(h: &[u8]) -> Result<usize, WireError> {
    if h[..4] != MAGIC {
        return Err(WireError::BadMagic([h[0], h[1], h[2], h[3]]));
    }
    if h[4] != VERSION {
        return Err(WireError::BadVersion(h[4]));
    }
    if !(1..=8).contains(&h[5]) {
        return Err(WireError::BadKind(h[5]));
    }
    if h[6] != 0 || h[7] != 0 {
        return Err(WireError::Malformed("reserved header bytes set"));
    }
    let payload_len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversize(payload_len));
    }
    Ok(payload_len)
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(payload);
    let frame = match kind {
        1 => {
            let id = c.u64()?;
            let deadline_ms = Some(c.u32()?).filter(|&ms| ms != 0);
            let class = Class::from_u8(c.u8()?)?;
            let policy = decode_policy(&mut c)?;
            let shape = [c.u32()? as usize, c.u32()? as usize, c.u32()? as usize];
            // Hostile dimensions must not overflow the element count; any
            // shape larger than the payload cap is malformed regardless.
            let n = shape
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .filter(|&n| n <= MAX_PAYLOAD / 4)
                .ok_or(WireError::Malformed("image shape overflows payload cap"))?;
            if n == 0 {
                return Err(WireError::Malformed("empty image shape"));
            }
            if c.remaining() != n * 4 {
                return Err(WireError::Malformed("pixel count does not match shape"));
            }
            let pixels = c.f32s(n)?;
            Frame::Infer(InferRequest {
                id,
                policy,
                deadline_ms,
                class,
                shape,
                pixels,
            })
        }
        2 => {
            let id = c.u64()?;
            let precision = parse_precision(c.u8()?)?;
            let top1 = c.u32()? as usize;
            let n = c.u32()? as usize;
            if n > MAX_PAYLOAD / 4 || c.remaining() != n * 4 {
                return Err(WireError::Malformed("logit count does not match header"));
            }
            let logits = c.f32s(n)?;
            Frame::Logits(InferResponse {
                id,
                precision,
                top1,
                logits,
            })
        }
        3 => Frame::Reject {
            id: c.u64()?,
            code: RejectCode::from_u8(c.u8()?)?,
        },
        4 => {
            let n = c.u16()? as usize;
            if c.remaining() != n {
                return Err(WireError::Malformed("error message length mismatch"));
            }
            let msg = String::from_utf8(c.bytes(n)?.to_vec())
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?;
            Frame::Error { msg }
        }
        5 => Frame::Ping,
        6 => Frame::Pong,
        7 => Frame::Shutdown,
        8 => Frame::ShutdownAck,
        other => return Err(WireError::BadKind(other)),
    };
    if c.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes after payload"));
    }
    Ok(frame)
}

/// `None` ⇒ 0, `Some(p)` ⇒ `p.bits()`.
fn precision_byte(p: Option<Precision>) -> u8 {
    p.map_or(0, |p| p.bits())
}

fn parse_precision(b: u8) -> Result<Option<Precision>, WireError> {
    match b {
        0 => Ok(None),
        1..=16 => Ok(Some(Precision::new(b))),
        _ => Err(WireError::Malformed("precision out of range")),
    }
}

fn encode_policy(policy: &WirePolicy, out: &mut Vec<u8>) {
    match policy {
        WirePolicy::Server => out.push(0),
        WirePolicy::Fixed(p) => {
            out.push(1);
            out.push(precision_byte(*p));
        }
        WirePolicy::Random(set) => {
            out.push(2);
            out.push(set.len() as u8);
            for p in set.iter() {
                out.push(p.bits());
            }
        }
    }
}

fn decode_policy(c: &mut Cursor<'_>) -> Result<WirePolicy, WireError> {
    match c.u8()? {
        0 => Ok(WirePolicy::Server),
        1 => Ok(WirePolicy::Fixed(parse_precision(c.u8()?)?)),
        2 => {
            let n = c.u8()? as usize;
            if n == 0 {
                return Err(WireError::Malformed("empty precision set"));
            }
            let mut bits = Vec::with_capacity(n);
            for _ in 0..n {
                let b = c.u8()?;
                if !(1..=16).contains(&b) {
                    return Err(WireError::Malformed("precision out of range"));
                }
                bits.push(b);
            }
            Ok(WirePolicy::Random(PrecisionSet::new(&bits)))
        }
        _ => Err(WireError::Malformed("unknown policy tag")),
    }
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let b = self.bytes(n * 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_frames_round_trip() {
        for f in [
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::ShutdownAck,
        ] {
            let bytes = f.encode();
            assert_eq!(bytes.len(), HEADER_LEN);
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn stream_read_matches_slice_decode() {
        let f = Frame::Reject {
            id: 9,
            code: RejectCode::QueueFull,
        };
        let bytes = f.encode();
        let mut r = &bytes[..];
        assert_eq!(Frame::read_from(&mut r).unwrap(), f);
        // And a clean EOF afterwards.
        assert!(matches!(Frame::read_from(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut bytes = Frame::Ping.encode();
        bytes[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(WireError::Oversize(_))));
    }

    #[test]
    fn error_frame_carries_message() {
        let f = Frame::Error {
            msg: "bad shape".into(),
        };
        let (back, _) = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
    }
}
