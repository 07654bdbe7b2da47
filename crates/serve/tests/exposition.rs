//! Pins the `/metrics` exposition byte for byte.
//!
//! `fixtures/exposition.txt` and `fixtures/exposition_empty.txt` were
//! captured from the hand-unrolled renderer at commit `9851ac5`; the
//! table-driven one must reproduce both exactly — family order, label
//! spelling, float formatting and the "slow exemplars only when non-empty"
//! rule included. Regenerating a fixture to make a renderer change pass
//! defeats the test: dashboards and the CI greps read these names.

use std::sync::atomic::Ordering;
use tia_quant::Precision;
use tia_serve::metrics::{Metrics, STAGE_NAMES};
use tia_serve::wire::Class;

/// Samples landing in bucket 0 (`<= 1` µs), an interior bucket and the
/// overflow bucket (`> 2^25` µs).
const SPREAD_NS: [u64; 3] = [800, 300_000, 40_000_000_000];

/// A registry in which every counter and gauge holds a distinct value,
/// every histogram holds [`SPREAD_NS`]-shaped samples, and the exemplar
/// table holds two entries.
fn populated() -> Metrics {
    let m = Metrics::new();
    let scalars = [
        &m.requests_total,
        &m.responses_total,
        &m.rejected_queue_full,
        &m.rejected_draining,
        &m.rejected_bad_shape,
        &m.rejected_deadline,
        &m.errored_total,
        &m.bad_frames_total,
        &m.connections_total,
        &m.connections_active,
        &m.readers_live,
        &m.faults_injected,
        &m.queue_depth,
        &m.batches_total,
        &m.batch_frames_total,
        &m.degrade_level,
        &m.degrade_shifts_down,
        &m.degrade_shifts_up,
        &m.floor_clamped_total,
    ];
    for (i, v) in scalars.into_iter().enumerate() {
        v.store(101 + i as u64, Ordering::Relaxed);
    }
    // Stride 2, so the two increments below land on values no neighbouring
    // slot holds and a label-to-slot mix-up cannot hide.
    for (slot, v) in m.frames_by_precision.iter().enumerate() {
        v.store(1000 + 2 * slot as u64, Ordering::Relaxed);
    }
    // One more frame each at fp32 and 8 bit, through the serving path's own
    // entry point: slot 0 is `precision="fp32"`, slot `b` is `"b-bit"`.
    m.count_precision(None);
    m.count_precision(Some(Precision::new(8)));
    for (c, class) in Class::ALL.into_iter().enumerate() {
        for ns in SPREAD_NS {
            m.record_latency(class, ns + c as u64);
        }
    }
    // Two exemplars; each stage sees the spread in a different rotation so
    // no two stage histograms render alike.
    for (k, wire_id) in [7u64, 9_000_000_007].into_iter().enumerate() {
        let mut stage_ns = [0u64; STAGE_NAMES.len()];
        for (i, ns) in stage_ns.iter_mut().enumerate() {
            *ns = SPREAD_NS[(i + k) % 3] + i as u64;
        }
        m.record_stages(wire_id, stage_ns);
    }
    for (i, h) in m.stage.iter().enumerate() {
        h.record_ns(SPREAD_NS[(i + 2) % 3]);
    }
    m
}

#[test]
fn populated_registry_matches_the_pinned_exposition() {
    let text = populated().render_prometheus();
    assert_eq!(text, include_str!("fixtures/exposition.txt"));
}

#[test]
fn empty_registry_matches_the_pinned_exposition_and_has_no_exemplar_family() {
    let text = Metrics::new().render_prometheus();
    assert_eq!(text, include_str!("fixtures/exposition_empty.txt"));
    assert!(!text.contains("tia_serve_slow_request_seconds"));
}
