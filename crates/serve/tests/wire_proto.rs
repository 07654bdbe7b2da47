//! Wire-protocol coverage: seeded round-trip property tests over every
//! policy and precision variant, plus truncation/corruption rejection.
//!
//! The workspace is dependency-free, so "property test" means the same
//! seeded-loop construction the rest of the repo uses: enumerate the
//! variant space exhaustively where it is small (policies × precisions),
//! and drive sizes/contents from a `SeededRng` where it is not.

use tia_quant::{Precision, PrecisionSet};
use tia_serve::wire::{
    Class, Frame, InferRequest, InferResponse, RejectCode, WireError, HEADER_LEN, VERSION,
};
use tia_serve::WirePolicy;
use tia_tensor::SeededRng;

/// Every `Option<Precision>` the wire can carry: fp32 plus 1..=16 bits.
fn all_precisions() -> Vec<Option<Precision>> {
    std::iter::once(None)
        .chain((1..=16).map(|b| Some(Precision::new(b))))
        .collect()
}

/// A spread of candidate sets: singletons, dense ranges, sparse sets.
fn some_sets(rng: &mut SeededRng) -> Vec<PrecisionSet> {
    let mut sets = vec![
        PrecisionSet::new(&[4]),
        PrecisionSet::range(4, 8),
        PrecisionSet::range(1, 16),
        PrecisionSet::new(&[4, 8, 16]),
    ];
    for _ in 0..8 {
        let n = 1 + rng.below(6);
        let bits: Vec<u8> = (0..n).map(|_| 1 + rng.below(16) as u8).collect();
        sets.push(PrecisionSet::new(&bits));
    }
    sets
}

/// Every policy variant the protocol defines.
fn all_policies(rng: &mut SeededRng) -> Vec<WirePolicy> {
    let mut policies = vec![WirePolicy::Server];
    policies.extend(all_precisions().into_iter().map(WirePolicy::Fixed));
    policies.extend(some_sets(rng).into_iter().map(WirePolicy::Random));
    policies
}

fn rand_pixels(n: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_in(-4.0, 4.0)).collect()
}

fn roundtrip(frame: &Frame) {
    let bytes = frame.encode();
    let (decoded, used) = Frame::decode(&bytes).expect("decode of encoded frame");
    assert_eq!(&decoded, frame);
    assert_eq!(used, bytes.len(), "decode must consume the whole frame");
    // The stream path must agree with the slice path.
    let mut r = &bytes[..];
    assert_eq!(&Frame::read_from(&mut r).expect("stream decode"), frame);
}

#[test]
fn infer_round_trips_for_every_policy_variant() {
    // Scheduling-field combinations, the plain one included: all of them
    // travel through the one `Infer` layout.
    let scheduling = [
        (None, Class::Normal),
        (Some(5u32), Class::Normal),
        (Some(u32::MAX), Class::Interactive),
        (None, Class::Interactive),
        (Some(250), Class::Batch),
        (None, Class::Batch),
    ];
    let mut rng = SeededRng::new(11);
    for (i, policy) in all_policies(&mut rng).into_iter().enumerate() {
        let (deadline_ms, class) = scheduling[i % scheduling.len()];
        let shape = [1 + rng.below(4), 1 + rng.below(16), 1 + rng.below(16)];
        let n = shape.iter().product();
        let frame = Frame::Infer(InferRequest {
            id: rng.next_u64(),
            policy,
            deadline_ms,
            class,
            shape,
            pixels: rand_pixels(n, &mut rng),
        });
        roundtrip(&frame);
        // Also exercise tiny and single-pixel geometries now and then.
        if i % 3 == 0 {
            roundtrip(&Frame::Infer(InferRequest {
                id: u64::MAX - i as u64,
                policy: WirePolicy::Server,
                deadline_ms,
                class,
                shape: [1, 1, 1],
                pixels: vec![f32::MIN_POSITIVE],
            }));
        }
    }
}

/// One frame of every kind the protocol defines.
fn one_of_each_kind() -> Vec<Frame> {
    vec![
        Frame::Infer(InferRequest {
            id: 31,
            policy: WirePolicy::Fixed(Some(Precision::new(6))),
            deadline_ms: None,
            class: Class::Normal,
            shape: [1, 2, 2],
            pixels: vec![0.5; 4],
        }),
        Frame::Logits(InferResponse {
            id: 31,
            precision: Some(Precision::new(6)),
            top1: 1,
            logits: vec![0.25, 0.75],
        }),
        Frame::Reject {
            id: 31,
            code: RejectCode::Draining,
        },
        Frame::Error {
            msg: "one of each".to_string(),
        },
        Frame::Ping,
        Frame::Pong,
        Frame::Shutdown,
        Frame::ShutdownAck,
    ]
}

/// There is one protocol version: every kind is stamped with it, and any
/// other header byte — 1 included — is a typed `BadVersion` on both the
/// slice and the stream path, whatever the kind.
#[test]
fn every_kind_encodes_version_2_and_any_other_version_is_rejected() {
    assert_eq!(VERSION, 2);
    for frame in one_of_each_kind() {
        let bytes = frame.encode();
        assert_eq!(bytes[4], VERSION, "{frame:?} stamped with another version");
        for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let mut bad = bytes.clone();
            bad[4] = version;
            assert!(
                matches!(Frame::decode(&bad), Err(WireError::BadVersion(v)) if v == version),
                "version {version} accepted for {frame:?}"
            );
            assert!(matches!(
                Frame::read_from(&mut &bad[..]),
                Err(WireError::BadVersion(v)) if v == version
            ));
        }
    }
}

/// The one `Infer` layout: `deadline_ms: u32` and `class: u8` sit right
/// after the 8-byte id, a request with neither set carries five zero bytes
/// there, and the zero deadline means "no deadline".
#[test]
fn infer_layout_carries_scheduling_fields() {
    let mut rng = SeededRng::new(17);
    let plain = InferRequest {
        id: 32,
        policy: WirePolicy::Server,
        deadline_ms: None,
        class: Class::Normal,
        shape: [1, 2, 2],
        pixels: rand_pixels(4, &mut rng),
    };
    let bytes = Frame::Infer(plain.clone()).encode();
    let fields = HEADER_LEN + 8..HEADER_LEN + 13;
    assert_eq!(bytes[fields.clone()], [0u8; 5]);
    assert_eq!(
        Frame::decode(&bytes).unwrap().0,
        Frame::Infer(plain.clone())
    );

    // `Some(0)` is not representable: it encodes as, and decodes to, `None`.
    let zero = Frame::Infer(InferRequest {
        deadline_ms: Some(0),
        ..plain.clone()
    });
    assert_eq!(zero.encode(), bytes);

    // Patch `deadline_ms = 7, class = batch` into the same bytes.
    let mut set = bytes.clone();
    set[fields.clone()].copy_from_slice(&[7, 0, 0, 0, 2]);
    let want = InferRequest {
        deadline_ms: Some(7),
        class: Class::Batch,
        ..plain
    };
    assert_eq!(Frame::decode(&set).unwrap().0, Frame::Infer(want.clone()));
    assert_eq!(Frame::Infer(want).encode(), set);

    // An out-of-range class byte is strictly rejected.
    let mut bad_class = set.clone();
    bad_class[fields.end - 1] = 3;
    assert!(matches!(
        Frame::decode(&bad_class),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn logits_round_trip_for_every_precision() {
    let mut rng = SeededRng::new(12);
    for precision in all_precisions() {
        let n = 1 + rng.below(64);
        roundtrip(&Frame::Logits(InferResponse {
            id: rng.next_u64(),
            precision,
            top1: rng.below(n),
            logits: rand_pixels(n, &mut rng),
        }));
    }
}

#[test]
fn control_frames_round_trip() {
    for code in [
        RejectCode::QueueFull,
        RejectCode::Draining,
        RejectCode::BadShape,
        RejectCode::DeadlineExceeded,
    ] {
        roundtrip(&Frame::Reject { id: 77, code });
    }
    one_of_each_kind().iter().for_each(roundtrip);
}

#[test]
fn every_truncation_of_a_frame_is_rejected() {
    let mut rng = SeededRng::new(13);
    let frame = Frame::Infer(InferRequest {
        id: 42,
        policy: WirePolicy::Random(PrecisionSet::range(4, 8)),
        // Non-zero scheduling fields, so a cut mid-deadline or mid-class
        // cannot hide behind zero bytes.
        deadline_ms: Some(40),
        class: Class::Interactive,
        shape: [2, 3, 3],
        pixels: rand_pixels(18, &mut rng),
    });
    let bytes = frame.encode();
    for len in 0..bytes.len() {
        match Frame::decode(&bytes[..len]) {
            Err(WireError::Truncated) => {}
            other => panic!("prefix of {len} bytes gave {other:?}"),
        }
    }
    // Stream reads must classify the same prefixes as truncation (except
    // the empty prefix, which is a clean close).
    for len in [1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
        let mut r = &bytes[..len];
        assert!(
            matches!(Frame::read_from(&mut r), Err(WireError::Truncated)),
            "stream prefix of {len} bytes must be Truncated"
        );
    }
    let mut empty: &[u8] = &[];
    assert!(matches!(
        Frame::read_from(&mut empty),
        Err(WireError::Closed)
    ));
}

#[test]
fn corrupting_any_header_byte_never_panics_and_structural_bytes_reject() {
    let mut rng = SeededRng::new(14);
    let frame = Frame::Logits(InferResponse {
        id: 7,
        precision: Some(Precision::new(6)),
        top1: 1,
        logits: rand_pixels(5, &mut rng),
    });
    let bytes = frame.encode();
    // Flip every byte of the frame through a few corruption values: the
    // decoder must never panic, and corruption of magic/version/kind or the
    // reserved bytes must be rejected outright.
    for pos in 0..bytes.len() {
        for delta in [1u8, 0x80, 0xFF] {
            let mut bad = bytes.clone();
            bad[pos] = bad[pos].wrapping_add(delta);
            let result = Frame::decode(&bad);
            if pos < 8 {
                assert!(result.is_err(), "header byte {pos} corruption accepted");
            }
            // Payload corruption may still decode (flipped float bits are
            // legal floats) — the assertion is simply "no panic, and any
            // Ok() parses to a well-formed frame".
            if let Ok((f, used)) = result {
                assert_eq!(used, bad.len());
                drop(f);
            }
        }
    }
}

#[test]
fn payload_validation_rejects_bad_fields() {
    // Precision byte out of range in a Logits frame.
    let good = Frame::Logits(InferResponse {
        id: 1,
        precision: None,
        top1: 0,
        logits: vec![0.0],
    })
    .encode();
    let mut bad = good.clone();
    bad[HEADER_LEN + 8] = 17; // precision byte right after the id
    assert!(matches!(Frame::decode(&bad), Err(WireError::Malformed(_))));

    // Pixel count disagreeing with the shape in an Infer frame.
    let infer = Frame::Infer(InferRequest {
        id: 2,
        policy: WirePolicy::Server,
        deadline_ms: None,
        class: Class::Normal,
        shape: [1, 2, 2],
        pixels: vec![0.0; 4],
    })
    .encode();
    let mut bad = infer.clone();
    // Grow the claimed width: shape says more pixels than the payload has.
    let shape_off = HEADER_LEN + 8 + 5 + 1; // id + deadline + class + policy tag
    bad[shape_off] = 3;
    assert!(matches!(Frame::decode(&bad), Err(WireError::Malformed(_))));

    // A declared-empty image is meaningless.
    let mut empty_shape = infer.clone();
    empty_shape[shape_off] = 0;
    assert!(Frame::decode(&empty_shape).is_err());

    // Trailing garbage after a structurally complete payload.
    let mut trailing = Frame::Ping.encode();
    trailing[8..12].copy_from_slice(&4u32.to_le_bytes());
    trailing.extend_from_slice(&[9, 9, 9, 9]);
    assert!(matches!(
        Frame::decode(&trailing),
        Err(WireError::Malformed(_))
    ));
}

/// Differential decode: mutate *valid* frames and hold the decoder to a
/// two-sided contract — every mutant either yields a typed [`WireError`]
/// or decodes to a frame that survives a re-encode round-trip bit-exactly.
/// There is no third outcome: no panic, no out-of-bounds `used`, and no
/// silent misread (an `Ok` whose re-encoding parses differently).
#[test]
fn differential_decode_of_mutated_frames() {
    let mut rng = SeededRng::new(21);
    let corpus: Vec<Vec<u8>> = vec![
        Frame::Infer(InferRequest {
            id: 91,
            policy: WirePolicy::Random(PrecisionSet::range(4, 8)),
            deadline_ms: None,
            class: Class::Normal,
            shape: [2, 4, 4],
            pixels: rand_pixels(32, &mut rng),
        })
        .encode(),
        Frame::Infer(InferRequest {
            id: 92,
            policy: WirePolicy::Fixed(Some(Precision::new(5))),
            deadline_ms: Some(75),
            class: Class::Interactive,
            shape: [1, 3, 3],
            pixels: rand_pixels(9, &mut rng),
        })
        .encode(),
        Frame::Logits(InferResponse {
            id: 93,
            precision: Some(Precision::new(8)),
            top1: 2,
            logits: rand_pixels(10, &mut rng),
        })
        .encode(),
        Frame::Reject {
            id: 94,
            code: RejectCode::QueueFull,
        }
        .encode(),
        Frame::Error {
            msg: "differential seed frame".to_string(),
        }
        .encode(),
        Frame::Ping.encode(),
    ];
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for _ in 0..4000 {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        // One of four mutation families per iteration.
        match rng.below(4) {
            0 => {
                // Flip 1..=4 bytes anywhere.
                for _ in 0..=rng.below(4) {
                    let pos = rng.below(bytes.len());
                    bytes[pos] ^= 1 << rng.below(8);
                }
            }
            1 => {
                // Skew the declared payload length.
                let skew = rng.next_u64() as u32;
                bytes[8..12].copy_from_slice(&skew.to_le_bytes());
            }
            2 => {
                // Truncate, optionally padding noise back on.
                bytes.truncate(rng.below(bytes.len().max(1)));
                for _ in 0..rng.below(8) {
                    bytes.push(rng.next_u64() as u8);
                }
            }
            _ => {
                // Splice a second frame's bytes into the middle.
                let other = &corpus[rng.below(corpus.len())];
                let at = rng.below(bytes.len());
                let take = rng.below(other.len());
                bytes.splice(at..at, other[..take].iter().copied());
            }
        }
        match Frame::decode(&bytes) {
            Ok((frame, used)) => {
                accepted += 1;
                assert!(used <= bytes.len(), "decode over-read: {used}");
                assert!(used >= HEADER_LEN, "an Ok decode consumed no frame");
                // Re-encode round-trip: whatever was accepted must be a
                // well-formed frame in its own right, bit-exactly.
                // (Compared via bytes, not `PartialEq`: a mutant float can
                // be NaN, which is unequal to itself but round-trips its
                // bit pattern exactly.)
                let re = frame.encode();
                let (again, used2) = Frame::decode(&re).expect("re-encode of accepted mutant");
                assert_eq!(again.encode(), re, "silent misread: re-decode disagrees");
                assert_eq!(used2, re.len());
            }
            Err(
                WireError::Closed
                | WireError::Truncated
                | WireError::BadMagic([_, _, _, _])
                | WireError::BadVersion(_)
                | WireError::BadKind(_)
                | WireError::Oversize(_)
                | WireError::Malformed(_)
                | WireError::Io(_),
            ) => rejected += 1,
        }
    }
    // The mutation families are gentle enough that both arms must be
    // exercised; a dead arm means the test mutated too hard or too soft.
    assert!(accepted > 0, "no mutant ever decoded");
    assert!(rejected > 0, "no mutant was ever rejected");
}

#[test]
fn seeded_fuzz_decode_never_panics() {
    // Pure-noise buffers: decode must reject (or, astronomically unlikely,
    // accept) without panicking, under- or over-reading.
    let mut rng = SeededRng::new(15);
    for _ in 0..2000 {
        let n = rng.below(96);
        let buf: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = Frame::decode(&buf);
    }
    // Noise behind a valid header prefix exercises the payload parsers;
    // one draw in four swaps the version for an arbitrary (mostly invalid)
    // byte, which must stop at the header.
    for _ in 0..2000 {
        let version = match rng.below(4) {
            0 => rng.next_u64() as u8,
            _ => VERSION,
        };
        let kind = 1 + rng.below(8) as u8;
        let n = rng.below(64);
        let mut buf = Vec::with_capacity(HEADER_LEN + n);
        buf.extend_from_slice(b"TIAS");
        buf.push(version);
        buf.push(kind);
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(&(n as u32).to_le_bytes());
        buf.extend((0..n).map(|_| rng.next_u64() as u8));
        let _ = Frame::decode(&buf);
    }
}
