//! The event model: a run's entire peer schedule is a pure function of
//! `(scenario, seed, peers, events_per_peer)`.
//!
//! Every RNG draw happens here, at *plan* time — each [`Event`] carries its
//! concrete wire bytes (valid frames come from the real `serve::wire`
//! encoders, corrupt ones from byte-level mutation of a valid frame), so
//! replaying a schedule, or any prefix of it, is exact. The minimizer
//! leans on this: truncating to a global-event prefix and re-running is
//! guaranteed to send the same bytes in the same per-peer order.
//!
//! Global event order is the round-robin interleave used everywhere in the
//! harness: event `j` of peer `p` has global index `j * peers + p`.

use tia_quant::{Precision, PrecisionSet};
use tia_serve::wire::{Class, Frame, InferRequest, WirePolicy, VERSION};
use tia_tensor::SeededRng;

/// The one image geometry every chaos run serves: tiny, so a run is
/// dominated by scheduling and connection churn, not arithmetic.
pub const SHAPE: [usize; 3] = [1, 8, 8];

/// Pixel count implied by [`SHAPE`].
pub const PIXELS: usize = SHAPE[0] * SHAPE[1] * SHAPE[2];

/// A named fault profile: the traffic mix the peers script plus the
/// [`tia_serve::FaultPlan`] the harness arms on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Valid, pinned-precision traffic with no faults — the baseline whose
    /// per-seed run must be bitwise deterministic (digest-checked).
    Clean,
    /// Bursty valid traffic against a tiny queue plus induced queue-full
    /// windows ([`tia_serve::FaultPlan::queue_full_every`]).
    QueueFull,
    /// Deadline storms across all priority classes against an induced
    /// slow batcher ([`tia_serve::FaultPlan::slow_batch_every`]).
    SlowBatch,
    /// Corrupt and truncated frames, slow-loris pacing, ping floods and
    /// mid-request disconnects — the protocol-hostile peer.
    Hostile,
    /// Valid traffic racing a client-initiated `Shutdown` mid-run: the
    /// drain contract (everything admitted is answered) under fire.
    ShutdownRace,
    /// Deadline storms plus interactive server-policy traffic against an
    /// *adaptive* server (slow-batch stalls supplying the pressure): the
    /// graceful-degradation controller shifts the precision mix under
    /// fire, and the interactive class's SLO floor must hold at every
    /// degradation level.
    OverloadStorm,
}

impl Scenario {
    /// Every scenario, in the order the profile sweep visits them.
    pub const ALL: [Scenario; 6] = [
        Scenario::Clean,
        Scenario::QueueFull,
        Scenario::SlowBatch,
        Scenario::Hostile,
        Scenario::ShutdownRace,
        Scenario::OverloadStorm,
    ];

    /// The CLI name of this scenario.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::QueueFull => "queue-full",
            Scenario::SlowBatch => "slow-batch",
            Scenario::Hostile => "hostile",
            Scenario::ShutdownRace => "shutdown-race",
            Scenario::OverloadStorm => "overload-storm",
        }
    }

    /// Parses a CLI scenario name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Scenario::ALL
            .into_iter()
            .find(|sc| sc.name() == s)
            .ok_or_else(|| {
                format!(
                    "bad scenario {s:?}, expected one of: clean, queue-full, \
                     slow-batch, hostile, shutdown-race, overload-storm"
                )
            })
    }

    /// Whether peers in this scenario may hold the server to the *strict*
    /// client-side ledger: every valid request sent on a cleanly drained
    /// connection must be answered exactly once. Hostile peers corrupt
    /// their own framing mid-connection, which forfeits delivery of
    /// answers already in flight — the server-side conservation check
    /// still applies there, the per-id ledger does not.
    pub fn strict(self) -> bool {
        !matches!(self, Scenario::Hostile)
    }

    /// Whether the scenario's digest must be bitwise identical across two
    /// runs of the same seed (only meaningful where every request pins its
    /// precision and nothing depends on arrival interleaving).
    pub fn deterministic(self) -> bool {
        matches!(self, Scenario::Clean)
    }
}

/// One scripted action in a peer's lifecycle, fully concrete at plan time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Write one valid `Infer` frame (encoded at plan time).
    Infer {
        /// Globally unique wire id (`peer << 32 | ordinal`).
        id: u64,
        /// The full encoded frame.
        bytes: Vec<u8>,
    },
    /// Write the same valid frame, dribbled `chunk` bytes at a time with
    /// pacing between writes (slow-loris at the frame boundary).
    SlowInfer {
        /// Globally unique wire id.
        id: u64,
        /// The full encoded frame.
        bytes: Vec<u8>,
        /// Bytes per paced write (>= 1).
        chunk: usize,
    },
    /// Write one `Ping` frame (the reader must answer `Pong` inline).
    Ping,
    /// Write a mutated frame; the server is expected to answer `Error` and
    /// drop the connection, so the peer abandons it afterwards.
    Corrupt {
        /// The mutated bytes.
        bytes: Vec<u8>,
    },
    /// Write only the first `keep` bytes of a valid frame, then hard
    /// disconnect mid-frame.
    Truncate {
        /// The full frame the prefix is cut from.
        bytes: Vec<u8>,
        /// How many leading bytes to send (< `bytes.len()`).
        keep: usize,
    },
    /// Drain the current connection, close it, and open a fresh one on the
    /// next write — one complete connection lifecycle boundary.
    Reconnect,
    /// Send the wire `Shutdown` frame (drain request); the peer then waits
    /// for the `ShutdownAck` while collecting in-flight answers.
    Shutdown,
}

impl Event {
    /// The infer id this event carries, if any.
    pub fn infer_id(&self) -> Option<u64> {
        match self {
            Event::Infer { id, .. } | Event::SlowInfer { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// A full run schedule: one event script per peer.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `scripts[p]` is peer `p`'s event list, in send order.
    pub scripts: Vec<Vec<Event>>,
}

impl Schedule {
    /// Generates the schedule for `(scenario, seed, peers, events_per_peer)`
    /// — a pure function of its arguments.
    pub fn generate(scenario: Scenario, seed: u64, peers: usize, events_per_peer: usize) -> Self {
        let peers = peers.max(1);
        let scripts = (0..peers)
            .map(|p| {
                // Per-peer stream decorrelated from the run seed; the
                // multiplier is an odd constant so distinct peers never
                // collapse onto one stream.
                let mut rng = SeededRng::new(
                    seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0_5C4A_05C4_A05C,
                );
                generate_script(scenario, p, events_per_peer, &mut rng)
            })
            .collect();
        Schedule { scripts }
    }

    /// Total event count across all peers.
    pub fn total_events(&self) -> usize {
        self.scripts.iter().map(Vec::len).sum()
    }

    /// Keeps only events with global round-robin index below `prefix`
    /// (event `j` of peer `p` has global index `j * peers + p`).
    pub fn truncate_prefix(&mut self, prefix: usize) {
        let peers = self.scripts.len().max(1);
        for (p, script) in self.scripts.iter_mut().enumerate() {
            let keep = script
                .iter()
                .enumerate()
                .take_while(|(j, _)| j * peers + p < prefix)
                .count();
            script.truncate(keep);
        }
    }

    /// Ids of requests the server may legitimately answer that no peer
    /// *meant* to send: a byte-level mutation can accidentally produce a
    /// fully valid `Infer` frame, whose id the server will answer. These
    /// must not trip the unknown-id check.
    pub fn ghost_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for script in &self.scripts {
            for ev in script {
                if let Event::Corrupt { bytes } = ev {
                    // Mutations that flip only payload bytes leave a valid
                    // frame (possibly more than one, if the length field
                    // shrank and the tail re-frames); walk every decodable
                    // frame the server's reader would see.
                    let mut rest: &[u8] = bytes;
                    while let Ok((frame, used)) = Frame::decode(rest) {
                        if let Frame::Infer(req) = frame {
                            ids.push(req.id);
                        }
                        rest = &rest[used.min(rest.len())..];
                        if used == 0 {
                            break;
                        }
                    }
                }
            }
        }
        ids
    }

    /// Ids of planned requests that ride the server's seeded schedule
    /// (`WirePolicy::Server`) under `class` — the requests a per-class
    /// precision floor binds. Decoded from the planned bytes, so the set
    /// matches exactly what goes on the wire after any prefix truncation.
    pub fn server_policy_ids(&self, class: Class) -> Vec<u64> {
        let mut ids = Vec::new();
        for script in &self.scripts {
            for ev in script {
                if let Event::Infer { bytes, .. } | Event::SlowInfer { bytes, .. } = ev {
                    if let Ok((Frame::Infer(req), _)) = Frame::decode(bytes) {
                        if req.policy == WirePolicy::Server && req.class == class {
                            ids.push(req.id);
                        }
                    }
                }
            }
        }
        ids
    }

    /// Whether any (post-truncation) script still carries a `Shutdown`.
    pub fn has_shutdown(&self) -> bool {
        self.scripts
            .iter()
            .any(|s| s.iter().any(|e| matches!(e, Event::Shutdown)))
    }
}

/// One peer's script for the given scenario.
fn generate_script(
    scenario: Scenario,
    peer: usize,
    events: usize,
    rng: &mut SeededRng,
) -> Vec<Event> {
    let mut script = Vec::with_capacity(events);
    for ordinal in 0..events {
        let id = ((peer as u64) << 32) | ordinal as u64;
        // The shutdown racer: peer 0 fires the drain request mid-script
        // while every other peer is still submitting.
        if scenario == Scenario::ShutdownRace && peer == 0 && ordinal == events / 2 {
            script.push(Event::Shutdown);
            continue;
        }
        let roll = rng.below(100);
        let ev = match scenario {
            Scenario::Clean => match roll {
                0..=69 => infer(id, rng, Deadline::None, Pinning::Pinned),
                70..=84 => slow_infer(id, rng, Deadline::None, Pinning::Pinned),
                85..=94 => Event::Ping,
                _ => Event::Reconnect,
            },
            Scenario::QueueFull => match roll {
                0..=74 => infer(id, rng, Deadline::None, Pinning::Any),
                75..=84 => Event::Ping,
                _ => Event::Reconnect,
            },
            Scenario::SlowBatch => match roll {
                0..=69 => infer(id, rng, Deadline::Storm, Pinning::Any),
                70..=79 => slow_infer(id, rng, Deadline::Storm, Pinning::Any),
                80..=84 => Event::Ping,
                _ => Event::Reconnect,
            },
            Scenario::Hostile => match roll {
                0..=34 => infer(id, rng, Deadline::Sometimes, Pinning::Any),
                35..=44 => slow_infer(id, rng, Deadline::None, Pinning::Any),
                45..=59 => Event::Ping,
                60..=79 => corrupt(id, rng),
                80..=89 => truncate(id, rng),
                _ => Event::Reconnect,
            },
            Scenario::ShutdownRace => match roll {
                0..=74 => infer(id, rng, Deadline::Sometimes, Pinning::Any),
                75..=84 => Event::Ping,
                _ => Event::Reconnect,
            },
            Scenario::OverloadStorm => match roll {
                // The storm: tight deadlines across classes and policies,
                // feeding the controller's deadline-miss signal.
                0..=49 => infer(id, rng, Deadline::Storm, Pinning::Any),
                // The floored class: interactive traffic on the server's
                // seeded schedule, whose executed precision must never
                // fall below the floor however degraded the engine gets.
                50..=79 => interactive_infer(id, rng),
                80..=89 => Event::Ping,
                _ => Event::Reconnect,
            },
        };
        script.push(ev);
    }
    script
}

/// Deadline flavor of a generated request.
enum Deadline {
    /// No deadline, ever.
    None,
    /// Always a tight deadline, any class — the storm.
    Storm,
    /// A deadline roughly a third of the time.
    Sometimes,
}

/// Precision-policy flavor of a generated request.
enum Pinning {
    /// Always `WirePolicy::Fixed` — a pinned request's logits are a pure
    /// function of `(image, precision)`, independent of arrival
    /// interleaving, which is what makes the clean digest comparable.
    Pinned,
    /// Any policy, including the server's seeded schedule and explicit
    /// random sets.
    Any,
}

fn draw_request(id: u64, rng: &mut SeededRng, deadline: Deadline, pinning: Pinning) -> Vec<u8> {
    let pixels: Vec<f32> = (0..PIXELS).map(|_| rng.uniform_in(0.0, 1.0)).collect();
    let policy = match pinning {
        Pinning::Pinned => pinned_policy(rng),
        Pinning::Any => match rng.below(4) {
            0 => WirePolicy::Server,
            1 => WirePolicy::Random(PrecisionSet::range(4, 8)),
            _ => pinned_policy(rng),
        },
    };
    let deadline_ms = match deadline {
        Deadline::None => None,
        Deadline::Storm => Some(1 + rng.below(40) as u32),
        Deadline::Sometimes => {
            if rng.below(3) == 0 {
                Some(1 + rng.below(60) as u32)
            } else {
                None
            }
        }
    };
    let class = match deadline_ms {
        // Deadlined traffic spreads across all classes so the EDF order is
        // actually exercised; the class draw stays conditional on a
        // deadline so per-seed schedules keep their RNG draw sequence.
        None => Class::Normal,
        Some(_) => *rng.choose(&Class::ALL),
    };
    Frame::Infer(InferRequest {
        id,
        policy,
        deadline_ms,
        class,
        shape: SHAPE,
        pixels,
    })
    .encode()
}

fn pinned_policy(rng: &mut SeededRng) -> WirePolicy {
    match rng.below(6) {
        0 => WirePolicy::Fixed(None),
        n => WirePolicy::Fixed(Some(Precision::new(3 + n as u8))),
    }
}

fn infer(id: u64, rng: &mut SeededRng, deadline: Deadline, pinning: Pinning) -> Event {
    Event::Infer {
        id,
        bytes: draw_request(id, rng, deadline, pinning),
    }
}

/// An interactive request on the server's seeded schedule, with a
/// deadline generous enough that it is normally served, not shed. These
/// are the requests [`Schedule::server_policy_ids`] surfaces for the floor
/// check.
fn interactive_infer(id: u64, rng: &mut SeededRng) -> Event {
    let pixels: Vec<f32> = (0..PIXELS).map(|_| rng.uniform_in(0.0, 1.0)).collect();
    let bytes = Frame::Infer(InferRequest {
        id,
        policy: WirePolicy::Server,
        deadline_ms: Some(200 + rng.below(200) as u32),
        class: Class::Interactive,
        shape: SHAPE,
        pixels,
    })
    .encode();
    Event::Infer { id, bytes }
}

fn slow_infer(id: u64, rng: &mut SeededRng, deadline: Deadline, pinning: Pinning) -> Event {
    Event::SlowInfer {
        id,
        bytes: draw_request(id, rng, deadline, pinning),
        chunk: 1 + rng.below(7),
    }
}

/// A mutated frame: start from a valid encoding and break it one of eight
/// ways. The decoder contract under test: a typed [`tia_serve::WireError`]
/// or a valid frame — never a panic, never a silent misread.
fn corrupt(id: u64, rng: &mut SeededRng) -> Event {
    let mut bytes = draw_request(id, rng, Deadline::Sometimes, Pinning::Any);
    match rng.below(8) {
        0 => bytes[rng.below(4)] ^= 1 << rng.below(8), // magic
        1 => bytes[4] = VERSION ^ (1 + rng.below(255) as u8), // any other version
        2 => bytes[5] = 9 + rng.below(200) as u8,      // kind
        3 => bytes[6 + rng.below(2)] = 1 + rng.below(255) as u8, // reserved
        4 => {
            // Oversize length field: must be refused before allocation.
            let huge = (65 << 20) + rng.below(1 << 20) as u32;
            bytes[8..12].copy_from_slice(&huge.to_le_bytes());
        }
        5 => {
            // Length field off by a little: payload no longer matches.
            let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
            let skew = 1 + rng.below(9) as u32;
            let bad = if rng.below(2) == 0 {
                len.wrapping_add(skew)
            } else {
                len.saturating_sub(skew)
            };
            bytes[8..12].copy_from_slice(&bad.to_le_bytes());
        }
        6 => {
            // A handful of random byte flips anywhere in the frame.
            for _ in 0..(1 + rng.below(8)) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        _ => {
            // Pure garbage, not even a header's worth sometimes.
            let n = 4 + rng.below(40);
            bytes = (0..n).map(|_| rng.below(256) as u8).collect();
        }
    }
    Event::Corrupt { bytes }
}

/// The first `keep` bytes of a valid frame, then a hard disconnect. `keep`
/// is always short of the full frame, so the server sees a mid-frame EOF.
fn truncate(id: u64, rng: &mut SeededRng) -> Event {
    let bytes = draw_request(id, rng, Deadline::None, Pinning::Any);
    let keep = 1 + rng.below(bytes.len() - 1);
    Event::Truncate { bytes, keep }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_its_inputs() {
        for scenario in Scenario::ALL {
            let a = Schedule::generate(scenario, 42, 3, 12);
            let b = Schedule::generate(scenario, 42, 3, 12);
            assert_eq!(
                a,
                b,
                "{} schedule drifted across generations",
                scenario.name()
            );
            let c = Schedule::generate(scenario, 43, 3, 12);
            assert_ne!(a, c, "{} schedule ignores its seed", scenario.name());
        }
    }

    #[test]
    fn prefix_truncation_follows_round_robin_order() {
        let mut s = Schedule::generate(Scenario::Clean, 7, 3, 10);
        let total = s.total_events();
        assert_eq!(total, 30);
        s.truncate_prefix(7);
        // Global indices 0..7 round-robin over 3 peers: peer 0 gets events
        // 0,3,6 (3 events), peer 1 gets 1,4 (2), peer 2 gets 2,5 (2).
        assert_eq!(s.scripts[0].len(), 3);
        assert_eq!(s.scripts[1].len(), 2);
        assert_eq!(s.scripts[2].len(), 2);
        let mut full = Schedule::generate(Scenario::Clean, 7, 3, 10);
        full.truncate_prefix(usize::MAX);
        assert_eq!(full.total_events(), total);
    }

    #[test]
    fn infer_ids_are_globally_unique() {
        let s = Schedule::generate(Scenario::Hostile, 9, 4, 20);
        let mut seen = std::collections::BTreeSet::new();
        for script in &s.scripts {
            for id in script.iter().filter_map(Event::infer_id) {
                assert!(seen.insert(id), "duplicate planned id {id}");
            }
        }
    }

    #[test]
    fn valid_events_carry_decodable_frames() {
        let s = Schedule::generate(Scenario::SlowBatch, 11, 2, 24);
        for script in &s.scripts {
            for ev in script {
                if let Event::Infer { id, bytes } | Event::SlowInfer { id, bytes, .. } = ev {
                    let (frame, used) = Frame::decode(bytes).expect("planned frame must decode");
                    assert_eq!(used, bytes.len());
                    match frame {
                        Frame::Infer(req) => assert_eq!(req.id, *id),
                        other => panic!("planned infer decoded as {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_frames_never_form_a_complete_frame() {
        let s = Schedule::generate(Scenario::Hostile, 13, 4, 30);
        for script in &s.scripts {
            for ev in script {
                if let Event::Truncate { bytes, keep } = ev {
                    assert!(*keep < bytes.len());
                    assert!(
                        matches!(
                            Frame::decode(&bytes[..*keep]),
                            Err(tia_serve::WireError::Truncated)
                        ),
                        "a truncated prefix must read as Truncated"
                    );
                }
            }
        }
    }
}
