//! Live serving metrics: lock-free atomic counters and a log-scale latency
//! histogram, rendered as Prometheus text exposition on a scrape port.
//!
//! Everything here is updated from the serving hot path, so the whole
//! registry is plain `AtomicU64`s — no locks, no allocation. Rates (RPS)
//! are derived by the scraper from the monotonic `*_total` counters;
//! `p50`/`p99` latency come from the histogram buckets, both server-side
//! (scrape) and client-side (the load generator reuses [`Histogram`] for
//! its own end-to-end latency report).
//!
//! Every atomic here is an independent statistical counter or gauge — no
//! code path makes a decision off one, and scrapes tolerate momentary skew
//! between counters — so all accesses are `Relaxed` (each justified inline
//! for the atomic-ordering lint).

use crate::wire::Class;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tia_quant::Precision;

/// Number of per-precision counters: index 0 is full precision (fp32),
/// 1..=16 are quantized bit-widths.
pub const PRECISION_SLOTS: usize = 17;

/// The per-request pipeline stages the flight recorder derives latency
/// histograms for, in array order (the `stage` label values of
/// `tia_serve_stage_seconds`): queue wait (enqueue → EDF window entry),
/// window residency (window entry → engine submit), execute (submit →
/// flush), respond (flush → socket write), and the end-to-end total
/// (enqueue → socket write).
pub const STAGE_NAMES: [&str; 5] = ["queue_wait", "window", "execute", "respond", "total"];

/// Index of the end-to-end total in [`STAGE_NAMES`]-ordered arrays.
pub const STAGE_TOTAL: usize = STAGE_NAMES.len() - 1;

/// Slots in the slow-request exemplar table.
const SLOW_SLOTS: usize = 4;

const BUCKETS: usize = 26;

/// Appends one formatted line to the exposition buffer.
///
/// `fmt::Write` into a `String` is infallible, so the `Result` is
/// discarded here — once, deliberately, with this justification — instead
/// of scattering `let _ = writeln!(..)` discards through the rendering
/// code (which the error-hygiene lint bans).
fn putln(out: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write;
    crate::server::best_effort(out.write_fmt(args));
    out.push('\n');
}

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts samples in `(2^(i-1), 2^i]` µs (bucket 0: `<= 1` µs);
/// the last slot is an overflow bucket for everything above `2^25` µs
/// (~33 s). All updates are relaxed atomics — safe from any thread, never
/// blocking the recording path.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS + 1],
    sum_ns: AtomicU64,
}

/// The bucket a `us`-microsecond sample belongs to: the smallest `i` with
/// `us <= bucket_upper_us(i)` (`= ceil(log2(us))`), clamped to the
/// overflow slot. The single source of truth shared by [`Histogram::record_ns`],
/// [`Histogram::quantile_ns`] and the Prometheus rendering, so a sample of
/// exactly `bucket_upper_us(i)` µs counts toward bucket `i`'s `le` bound
/// everywhere — pinned by the boundary tests below.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        (64 - (us - 1).leading_zeros() as usize).min(BUCKETS)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record_ns(&self, ns: u64) {
        let us = ns.div_ceil(1000);
        // ordering: relaxed — independent statistical counters; a scrape
        // racing a record may see count without sum, which is acceptable.
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        // ordering: relaxed — see above.
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        // ordering: relaxed — statistical snapshot read.
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            // ordering: relaxed — statistical snapshot read.
            self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Upper bound (in nanoseconds) of the bucket containing quantile `q`
    /// (e.g. `0.5`, `0.99`). Returns 0 when empty. Resolution is the bucket
    /// width — a factor of two — which is plenty for serving dashboards.
    ///
    /// Semantics, pinned by the boundary tests and shared (via the
    /// private `bucket_index` helper) with the recording path and the Prometheus
    /// rendering: the reported value is always a whole power-of-two number
    /// of microseconds, the *inclusive upper* bound `2^i` µs of the
    /// log₂ bucket `(2^(i-1), 2^i]` that holds the quantile sample — never
    /// an interpolation. A sample of exactly `2^i` µs therefore reports as
    /// itself, any other sample rounds *up* to its bucket bound (a 1 ns
    /// sample reports 1 µs, the bucket-0 floor), and samples past the last
    /// finite bound (`2^25` µs) report the overflow tail `2^26` µs. The
    /// same holds for the stage histograms (`tia_serve_stage_seconds`)
    /// derived from the flight recorder.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        // The since-start quantile is the window since an empty baseline.
        let empty = HistogramBaseline {
            counts: [0; BUCKETS + 1],
        };
        self.quantile_since_ns(&empty, q)
    }

    /// Copies the current bucket counts as a baseline for windowed
    /// quantiles (see [`Histogram::quantile_since_ns`]).
    pub fn baseline(&self) -> HistogramBaseline {
        let mut counts = [0u64; BUCKETS + 1];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            // ordering: relaxed — statistical snapshot read.
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramBaseline { counts }
    }

    /// Upper bucket bound (in nanoseconds) of quantile `q` over only the
    /// samples recorded since `base` was taken — the windowed form of
    /// [`Histogram::quantile_ns`]. Returns 0 when the window is empty.
    /// This is what lets the adaptive controller watch *recent* per-class
    /// p99 rather than the sticky since-start aggregate.
    pub fn quantile_since_ns(&self, base: &HistogramBaseline, q: f64) -> u64 {
        let mut window = [0u64; BUCKETS + 1];
        let mut total = 0u64;
        for (i, (cur, prev)) in self.counts.iter().zip(base.counts.iter()).enumerate() {
            // ordering: relaxed — statistical snapshot read.
            window[i] = cur.load(Ordering::Relaxed).saturating_sub(*prev);
            total += window[i];
        }
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in window.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_us(i).saturating_mul(1000);
            }
        }
        // Unreachable (the loop covers every slot, and `total > 0` means
        // some slot holds the rank), but keep the fallthrough consistent
        // with the in-loop conversion: saturating, never silently wrapping.
        bucket_upper_us(BUCKETS).saturating_mul(1000)
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.counts.iter().zip(other.counts.iter()) {
            // ordering: relaxed — merging statistical counters.
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        // ordering: relaxed — merging statistical counters.
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Renders the histogram in Prometheus `_bucket`/`_sum`/`_count` form
    /// with `le` bounds in seconds. `labels` is the series' `key="value"`
    /// list (empty for an unlabelled one); `le` is appended to it.
    fn render(&self, name: &str, labels: &str, out: &mut String) {
        // Everything of a bucket line up to the bound, built once.
        let sep = if labels.is_empty() { "" } else { "," };
        let bucket = format!("{name}_bucket{{{labels}{sep}le=\"");
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            // ordering: relaxed — statistical snapshot read for a scrape.
            cum += self.counts[i].load(Ordering::Relaxed);
            let le = bucket_upper_us(i) as f64 / 1e6;
            putln(out, format_args!("{bucket}{le}\"}} {cum}"));
        }
        // ordering: relaxed — statistical snapshot read for a scrape.
        cum += self.counts[BUCKETS].load(Ordering::Relaxed);
        putln(out, format_args!("{bucket}+Inf\"}} {cum}"));
        // ordering: relaxed — statistical snapshot read for a scrape.
        let sum_s = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        put_sample(out, format_args!("{name}_sum"), labels, sum_s);
        put_sample(out, format_args!("{name}_count"), labels, cum);
    }
}

/// Appends one sample line, `name{labels} value`; an unlabelled series has
/// no braces.
fn put_sample(out: &mut String, name: impl Display, labels: &str, value: impl Display) {
    if labels.is_empty() {
        putln(out, format_args!("{name} {value}"));
    } else {
        putln(out, format_args!("{name}{{{labels}}} {value}"));
    }
}

fn bucket_upper_us(i: usize) -> u64 {
    1u64 << i
}

/// A point-in-time copy of a [`Histogram`]'s bucket counts; pair with
/// [`Histogram::quantile_since_ns`] for quantiles over the window recorded
/// since the copy was taken.
#[derive(Debug, Clone)]
pub struct HistogramBaseline {
    counts: [u64; BUCKETS + 1],
}

/// One slow-request exemplar: the full stage breakdown of one of the
/// slowest served requests so far, kept in [`Metrics`]'s fixed table and
/// rendered at the end of the exposition. A concrete answer to "what did
/// the p99 outlier actually spend its time on" without storing traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowExemplar {
    /// The client-chosen wire id of the request.
    pub wire_id: u64,
    /// Per-stage nanoseconds, [`STAGE_NAMES`] order (the last slot is the
    /// end-to-end total the table ranks by).
    pub stage_ns: [u64; STAGE_NAMES.len()],
}

/// The serving metrics registry, shared (via `Arc`) by every server thread
/// and exposed on the Prometheus scrape port.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Inference requests admitted to the queue.
    pub requests_total: AtomicU64,
    /// Responses written back to clients.
    pub responses_total: AtomicU64,
    /// Requests refused because the bounded queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests refused because the server was draining for shutdown.
    pub rejected_draining: AtomicU64,
    /// Requests refused because the image geometry was wrong.
    pub rejected_bad_shape: AtomicU64,
    /// Requests shed because their deadline expired before they reached
    /// the engine (never served, never drew from the seeded schedule).
    pub rejected_deadline: AtomicU64,
    /// Admitted requests the engine refused at submit (configuration skew
    /// between the server's pinned geometry and the engine's). Counted
    /// separately from the reader-side rejects so the conservation equation
    /// `admitted = served + shed + errored` stays exact.
    pub errored_total: AtomicU64,
    /// Frames that failed to decode (the connection is closed after one).
    pub bad_frames_total: AtomicU64,
    /// Connections accepted since start.
    pub connections_total: AtomicU64,
    /// Currently open connections.
    pub connections_active: AtomicU64,
    /// Reader threads currently alive. Incremented on reader entry,
    /// decremented on exit: after a drain completes this must be zero, and
    /// a nonzero value distinguishes a reader parked on a dead socket from
    /// one that exited cleanly (the leak the chaos harness hunts).
    pub readers_live: AtomicU64,
    /// Admission attempts rejected by an injected [`crate::server::FaultPlan`]
    /// queue-full window (also counted in `rejected_queue_full`).
    pub faults_injected: AtomicU64,
    /// Requests admitted but not yet executed (queue + in-flight).
    pub queue_depth: AtomicU64,
    /// Coalesced micro-batches executed by the engine.
    pub batches_total: AtomicU64,
    /// Frames served across those batches (mean batch = frames / batches).
    pub batch_frames_total: AtomicU64,
    /// Served frames by execution precision: slot 0 = fp32, slot `b` =
    /// `b`-bit. The live per-precision batch mix of the RPS schedule.
    pub frames_by_precision: [AtomicU64; PRECISION_SLOTS],
    /// End-to-end (admission → response write) latency across all classes.
    pub latency: Histogram,
    /// End-to-end latency split by scheduling class (indexed by the wire
    /// byte, [`Class::ALL`] order).
    pub latency_by_class: [Histogram; 3],
    /// The adaptive controller's live degradation level (0 = the full
    /// precision set; each step drops the highest remaining bit-width from
    /// the sampled window). Stays 0 when adaptive control is off.
    pub degrade_level: AtomicU64,
    /// Controller steps that degraded (raised the level under pressure).
    pub degrade_shifts_down: AtomicU64,
    /// Controller steps that recovered (lowered the level after pressure
    /// cleared).
    pub degrade_shifts_up: AtomicU64,
    /// Policy-driven submissions whose class floor actively constrained
    /// the degraded sampling window (the SLO floor did real work).
    pub floor_clamped_total: AtomicU64,
    /// Per-stage latency histograms derived from the flight recorder's
    /// request timestamps ([`STAGE_NAMES`] order). Recorded for every
    /// served request whether or not event tracing is enabled.
    pub stage: [Histogram; STAGE_NAMES.len()],
    /// The slow-request exemplar table (see [`SlowExemplar`]). A `Mutex`
    /// is fine here: the only writer is the single batcher thread and the
    /// only other taker is a scrape, so the lock is effectively
    /// uncontended and never on a multi-writer path.
    slow: Mutex<[SlowExemplar; SLOW_SLOTS]>,
}

/// A point-in-time copy of the counters that participate in the serving
/// stack's conservation law, taken with [`Metrics::snapshot`].
///
/// The law: every admitted request is answered exactly once, so
/// `admitted = served + shed + errored + outstanding`, and the queue-depth
/// gauge must equal `outstanding`. In a quiesced server (drained, readers
/// joined) `outstanding` is zero and the equation is exact; mid-flight it
/// can be momentarily skewed by in-progress updates, so callers should
/// check it only at quiescence points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests admitted to the queue (`requests_total`).
    pub admitted: u64,
    /// Responses written back (`responses_total`).
    pub served: u64,
    /// Deadline-expired requests shed with a typed reject
    /// (`rejected_deadline`).
    pub shed: u64,
    /// Admitted requests the engine refused at submit (`errored_total`).
    pub errored: u64,
    /// The queue-depth gauge (admitted but not yet executed).
    pub queue_depth: u64,
    /// Reader threads still alive (`readers_live`).
    pub readers_live: u64,
}

/// A violated conservation invariant, as found by
/// [`MetricsSnapshot::conservation_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConservationViolation {
    /// More requests were answered than were ever admitted:
    /// `served + shed + errored > admitted` (a lost increment, a duplicated
    /// answer, or sabotage).
    OverAnswered {
        /// Requests admitted.
        admitted: u64,
        /// `served + shed + errored` (saturating).
        accounted: u64,
    },
    /// The queue-depth gauge disagrees with the outstanding work implied by
    /// the counters (`admitted - served - shed - errored`).
    QueueGauge {
        /// The gauge's value.
        gauge: u64,
        /// `admitted - accounted`.
        outstanding: u64,
    },
}

impl std::fmt::Display for ConservationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConservationViolation::OverAnswered {
                admitted,
                accounted,
            } => write!(
                f,
                "over-answered: served+shed+errored = {accounted} exceeds admitted = {admitted}"
            ),
            ConservationViolation::QueueGauge { gauge, outstanding } => write!(
                f,
                "queue gauge {gauge} != outstanding {outstanding} (admitted - served - shed - errored)"
            ),
        }
    }
}

impl MetricsSnapshot {
    /// Checks the conservation law `admitted = served + shed + errored +
    /// queue_depth`, returning the first violated clause.
    ///
    /// Sound at quiescence points (post-drain, paused-and-settled); between
    /// them the counters are updated independently and may skew briefly.
    pub fn conservation_check(&self) -> Result<(), ConservationViolation> {
        // An overflowing sum cannot be conserved: `admitted` fits in a u64,
        // so a true sum past `u64::MAX` is necessarily over-answered. Keep
        // the saturated value for the report rather than wrapping into a
        // coincidentally passing total.
        let (accounted, overflowed) = {
            let (a, o1) = self.served.overflowing_add(self.shed);
            let (b, o2) = a.overflowing_add(self.errored);
            if o1 || o2 {
                (u64::MAX, true)
            } else {
                (b, false)
            }
        };
        if overflowed || accounted > self.admitted {
            return Err(ConservationViolation::OverAnswered {
                admitted: self.admitted,
                accounted,
            });
        }
        let outstanding = self.admitted - accounted;
        if self.queue_depth != outstanding {
            return Err(ConservationViolation::QueueGauge {
                gauge: self.queue_depth,
                outstanding,
            });
        }
        Ok(())
    }
}

/// Where one series of a [`Family`] reads its sample.
enum Sample<'a> {
    /// A counter or gauge cell.
    Atomic(&'a AtomicU64),
    /// A whole `_bucket`/`_sum`/`_count` group.
    Histogram(&'a Histogram),
    /// A value computed for this scrape, in seconds.
    Seconds(f64),
}

/// One metric family of the exposition: its `# HELP`/`# TYPE` header and
/// the series under it, each a `key="value"` label list (empty for an
/// unlabelled series) with the sample it renders.
struct Family<'a> {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    series: Vec<(String, Sample<'a>)>,
}

/// The series of a family whose members differ in the value of the one
/// label `key`.
fn by_label<'a, V: Display>(
    key: &str,
    series: impl IntoIterator<Item = (V, Sample<'a>)>,
) -> Vec<(String, Sample<'a>)> {
    let labelled = |(value, sample)| (format!("{key}=\"{value}\""), sample);
    series.into_iter().map(labelled).collect()
}

impl Metrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the conservation-law counters (see [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            // ordering: relaxed — statistical snapshot reads; callers check
            // conservation only at quiescence points where no updates race.
            admitted: self.requests_total.load(Ordering::Relaxed),
            // ordering: relaxed — see above.
            served: self.responses_total.load(Ordering::Relaxed),
            // ordering: relaxed — see above.
            shed: self.rejected_deadline.load(Ordering::Relaxed),
            // ordering: relaxed — see above.
            errored: self.errored_total.load(Ordering::Relaxed),
            // ordering: relaxed — see above.
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            // ordering: relaxed — see above.
            readers_live: self.readers_live.load(Ordering::Relaxed),
        }
    }

    /// Bumps the per-precision serve counter for one frame.
    pub fn count_precision(&self, p: Option<Precision>) {
        let slot = p.map_or(0, |p| p.bits() as usize);
        // ordering: relaxed — metrics counter.
        self.frames_by_precision[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served request's end-to-end latency, both in the
    /// aggregate histogram and in its class's.
    pub fn record_latency(&self, class: Class, ns: u64) {
        self.latency.record_ns(ns);
        self.latency_by_class[class.as_u8() as usize].record_ns(ns);
    }

    /// Records one served request's per-stage latency breakdown
    /// ([`STAGE_NAMES`] order) into the stage histograms, and offers it to
    /// the slow-request exemplar table, where it displaces the current
    /// fastest entry if its end-to-end total is slower.
    pub fn record_stages(&self, wire_id: u64, stage_ns: [u64; STAGE_NAMES.len()]) {
        for (h, ns) in self.stage.iter().zip(stage_ns) {
            h.record_ns(ns);
        }
        let total = stage_ns[STAGE_TOTAL];
        if let Ok(mut slow) = self.slow.lock() {
            let mut min = 0usize;
            for (i, e) in slow.iter().enumerate() {
                if e.stage_ns[STAGE_TOTAL] < slow[min].stage_ns[STAGE_TOTAL] {
                    min = i;
                }
            }
            if total > slow[min].stage_ns[STAGE_TOTAL] {
                slow[min] = SlowExemplar { wire_id, stage_ns };
            }
        }
    }

    /// The current slow-request exemplar table, slowest first (empty slots
    /// omitted).
    pub fn slow_exemplars(&self) -> Vec<SlowExemplar> {
        let mut out: Vec<SlowExemplar> = match self.slow.lock() {
            Ok(slow) => slow
                .iter()
                .filter(|e| e.stage_ns[STAGE_TOTAL] > 0)
                .copied()
                .collect(),
            Err(_) => Vec::new(),
        };
        out.sort_by_key(|e| std::cmp::Reverse(e.stage_ns[STAGE_TOTAL]));
        out
    }

    /// The one place a metric is declared: every family of the exposition,
    /// in exposition order, each series bound to the field it reads. A
    /// family with no series (the exemplar table before the first served
    /// request) is not rendered.
    fn families(&self) -> Vec<Family<'_>> {
        use Sample::{Atomic, Seconds};
        let one = |sample| vec![(String::new(), sample)];
        let precisions = self.frames_by_precision.iter().enumerate();
        let stages = STAGE_NAMES.iter().zip(&self.stage);
        let exemplars = self.slow_exemplars();
        let exemplar_series = exemplars.iter().enumerate().flat_map(|(rank, e)| {
            STAGE_NAMES.iter().zip(e.stage_ns).map(move |(stage, ns)| {
                let id = e.wire_id;
                let labels = format!("rank=\"{rank}\",id=\"{id}\",stage=\"{stage}\"");
                (labels, Seconds(ns as f64 / 1e9))
            })
        });
        vec![
            Family {
                name: "tia_serve_requests_total",
                help: "Inference requests admitted.",
                kind: "counter",
                series: one(Atomic(&self.requests_total)),
            },
            Family {
                name: "tia_serve_responses_total",
                help: "Responses written to clients.",
                kind: "counter",
                series: one(Atomic(&self.responses_total)),
            },
            Family {
                name: "tia_serve_bad_frames_total",
                help: "Undecodable frames received.",
                kind: "counter",
                series: one(Atomic(&self.bad_frames_total)),
            },
            Family {
                name: "tia_serve_errored_total",
                help: "Admitted requests the engine refused at submit.",
                kind: "counter",
                series: one(Atomic(&self.errored_total)),
            },
            Family {
                name: "tia_serve_faults_injected_total",
                help: "Admissions rejected by an injected fault plan.",
                kind: "counter",
                series: one(Atomic(&self.faults_injected)),
            },
            Family {
                name: "tia_serve_connections_total",
                help: "Connections accepted.",
                kind: "counter",
                series: one(Atomic(&self.connections_total)),
            },
            Family {
                name: "tia_serve_batches_total",
                help: "Coalesced micro-batches executed.",
                kind: "counter",
                series: one(Atomic(&self.batches_total)),
            },
            Family {
                name: "tia_serve_batch_frames_total",
                help: "Frames served across all batches.",
                kind: "counter",
                series: one(Atomic(&self.batch_frames_total)),
            },
            Family {
                name: "tia_serve_rejected_total",
                help: "Requests refused by admission control.",
                kind: "counter",
                series: by_label(
                    "reason",
                    [
                        ("queue_full", Atomic(&self.rejected_queue_full)),
                        ("draining", Atomic(&self.rejected_draining)),
                        ("bad_shape", Atomic(&self.rejected_bad_shape)),
                        ("deadline_exceeded", Atomic(&self.rejected_deadline)),
                    ],
                ),
            },
            Family {
                name: "tia_serve_floor_clamped_total",
                help: "Submissions whose class floor constrained the degraded window.",
                kind: "counter",
                series: one(Atomic(&self.floor_clamped_total)),
            },
            Family {
                name: "tia_serve_degrade_shifts_total",
                help: "Adaptive controller level shifts.",
                kind: "counter",
                series: by_label(
                    "direction",
                    [
                        ("down", Atomic(&self.degrade_shifts_down)),
                        ("up", Atomic(&self.degrade_shifts_up)),
                    ],
                ),
            },
            Family {
                name: "tia_serve_connections_active",
                help: "Currently open connections.",
                kind: "gauge",
                series: one(Atomic(&self.connections_active)),
            },
            Family {
                name: "tia_serve_queue_depth",
                help: "Admitted requests not yet executed.",
                kind: "gauge",
                series: one(Atomic(&self.queue_depth)),
            },
            Family {
                name: "tia_serve_readers_live",
                help: "Reader threads currently alive.",
                kind: "gauge",
                series: one(Atomic(&self.readers_live)),
            },
            Family {
                name: "tia_serve_degrade_level",
                help: "Adaptive controller's live degradation level.",
                kind: "gauge",
                series: one(Atomic(&self.degrade_level)),
            },
            Family {
                name: "tia_serve_frames_by_precision_total",
                help: "Served frames per execution precision.",
                kind: "counter",
                series: by_label(
                    "precision",
                    precisions.map(|(slot, v)| match slot {
                        0 => ("fp32".to_string(), Atomic(v)),
                        _ => (format!("{slot}-bit"), Atomic(v)),
                    }),
                ),
            },
            Family {
                name: "tia_serve_request_latency_seconds",
                help: "End-to-end request latency.",
                kind: "histogram",
                series: one(Sample::Histogram(&self.latency)),
            },
            Family {
                name: "tia_serve_class_latency_seconds",
                help: "End-to-end request latency per scheduling class.",
                kind: "histogram",
                series: by_label(
                    "class",
                    Class::ALL.map(|class| {
                        let h = &self.latency_by_class[class.as_u8() as usize];
                        (class.label(), Sample::Histogram(h))
                    }),
                ),
            },
            Family {
                name: "tia_serve_stage_seconds",
                help: "Server-side per-stage request latency (log2 buckets; quantiles report the bucket's inclusive upper bound).",
                kind: "histogram",
                series: by_label(
                    "stage",
                    stages.map(|(stage, h)| (stage, Sample::Histogram(h))),
                ),
            },
            Family {
                name: "tia_serve_slow_request_seconds",
                help: "Stage breakdown of the slowest served requests (exemplar table, rank 0 slowest).",
                kind: "gauge",
                series: exemplar_series.collect(),
            },
        ]
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// (version 0.0.4): a loop over the family table.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for family in self.families() {
            if family.series.is_empty() {
                continue;
            }
            let name = family.name;
            putln(&mut out, format_args!("# HELP {name} {}", family.help));
            putln(&mut out, format_args!("# TYPE {name} {}", family.kind));
            for (labels, sample) in &family.series {
                match sample {
                    Sample::Histogram(h) => h.render(name, labels, &mut out),
                    Sample::Seconds(s) => put_sample(&mut out, name, labels, s),
                    Sample::Atomic(v) => {
                        // ordering: relaxed — scrape snapshot of an independent
                        // statistic; no decision hangs on it.
                        let v = v.load(Ordering::Relaxed);
                        put_sample(&mut out, name, labels, v);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        // 99 samples at ~1 µs, one at ~1 ms.
        for _ in 0..99 {
            h.record_ns(800);
        }
        h.record_ns(1_000_000);
        assert_eq!(h.count(), 100);
        assert!(h.quantile_ns(0.5) <= 2_000);
        assert!(h.quantile_ns(0.99) <= 2_000);
        assert!(h.quantile_ns(1.0) >= 1_000_000);
        assert!(h.mean_ns() > 800.0);
    }

    /// Satellite pin: at exact power-of-two boundaries, a sample of exactly
    /// `bucket_upper_us(i)` µs must count toward bucket `i`'s `le` bound —
    /// in `record_ns`/`quantile_ns` *and* in the Prometheus rendering.
    #[test]
    fn boundary_samples_count_toward_their_le_bucket() {
        for (ns, upper_us) in [(1_000u64, 1u64), (2_000, 2), (1_024_000, 1024)] {
            let h = Histogram::new();
            h.record_ns(ns);
            assert_eq!(
                h.quantile_ns(1.0),
                upper_us * 1000,
                "a {ns} ns sample must resolve to the le={upper_us}µs bucket"
            );
            let mut text = String::new();
            h.render("lat", "", &mut text);
            let le = upper_us as f64 / 1e6;
            assert!(
                text.contains(&format!("lat_bucket{{le=\"{le}\"}} 1")),
                "rendered cumulative at le={le} must include the boundary sample:\n{text}"
            );
            // And the bucket below must NOT contain it.
            if upper_us > 1 {
                let below = (upper_us / 2) as f64 / 1e6;
                assert!(
                    text.contains(&format!("lat_bucket{{le=\"{below}\"}} 0")),
                    "bucket below the boundary must stay empty:\n{text}"
                );
            }
        }
    }

    /// Satellite pin: the overflow (+Inf) bucket — a sample one past the
    /// last finite bound lands there, and both `quantile_ns` conversion
    /// paths (in-loop and tail fallthrough) agree on its reported bound.
    #[test]
    fn overflow_bucket_boundary_and_tail_conversion_agree() {
        let h = Histogram::new();
        // Exactly the last finite bound (2^25 µs): still finite.
        h.record_ns((1u64 << 25) * 1000);
        assert_eq!(h.quantile_ns(1.0), (1u64 << 25) * 1000);
        let mut text = String::new();
        h.render("lat", "", &mut text);
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(
            text.contains(&format!(
                "lat_bucket{{le=\"{}\"}} 1",
                (1u64 << 25) as f64 / 1e6
            )),
            "2^25 µs is the last finite bucket's own bound:\n{text}"
        );

        // One past it: overflow bucket only.
        let h = Histogram::new();
        h.record_ns((1u64 << 25) * 1000 + 1);
        assert_eq!(
            h.quantile_ns(1.0),
            (1u64 << 26) * 1000,
            "the overflow bucket reports the tail bound"
        );
        let mut text = String::new();
        h.render("lat", "", &mut text);
        assert!(
            text.contains(&format!(
                "lat_bucket{{le=\"{}\"}} 0",
                (1u64 << 25) as f64 / 1e6
            )),
            "no finite bucket may claim an overflow sample:\n{text}"
        );
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"), "{text}");

        // An absurdly large sample cannot wrap the ns conversion.
        let h = Histogram::new();
        h.record_ns(u64::MAX);
        assert_eq!(h.quantile_ns(1.0), (1u64 << 26) * 1000);
    }

    #[test]
    fn per_class_latency_and_deadline_rejects_render() {
        let m = Metrics::new();
        m.record_latency(Class::Interactive, 5_000);
        m.record_latency(Class::Normal, 7_000);
        m.rejected_deadline.fetch_add(3, Ordering::Relaxed);
        let text = m.render_prometheus();
        assert!(
            text.contains("tia_serve_rejected_total{reason=\"deadline_exceeded\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("tia_serve_class_latency_seconds_count{class=\"interactive\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tia_serve_class_latency_seconds_count{class=\"normal\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tia_serve_class_latency_seconds_count{class=\"batch\"} 0"),
            "{text}"
        );
        // The aggregate histogram counts both.
        assert!(
            text.contains("tia_serve_request_latency_seconds_count 2"),
            "{text}"
        );
    }

    /// Satellite pin: the conservation check at boundary values — balanced
    /// ledgers pass, every single-count skew is a typed violation, and the
    /// arithmetic saturates instead of wrapping at `u64::MAX`.
    #[test]
    fn conservation_check_boundary_values() {
        let balanced = |admitted, served, shed, errored, queue_depth| MetricsSnapshot {
            admitted,
            served,
            shed,
            errored,
            queue_depth,
            readers_live: 0,
        };
        // The empty registry conserves.
        assert_eq!(balanced(0, 0, 0, 0, 0).conservation_check(), Ok(()));
        // Fully drained: every admitted request accounted, gauge at zero.
        assert_eq!(balanced(10, 7, 2, 1, 0).conservation_check(), Ok(()));
        // Mid-flight quiescence: outstanding work matches the gauge.
        assert_eq!(balanced(10, 4, 1, 0, 5).conservation_check(), Ok(()));
        // One answer too many (a double ack) is OverAnswered.
        assert_eq!(
            balanced(10, 9, 2, 0, 0).conservation_check(),
            Err(ConservationViolation::OverAnswered {
                admitted: 10,
                accounted: 11,
            })
        );
        // A leaked gauge increment (or a lost decrement) is QueueGauge.
        assert_eq!(
            balanced(10, 10, 0, 0, 1).conservation_check(),
            Err(ConservationViolation::QueueGauge {
                gauge: 1,
                outstanding: 0,
            })
        );
        // A gauge that returned to zero while work is still outstanding.
        assert_eq!(
            balanced(10, 8, 0, 0, 0).conservation_check(),
            Err(ConservationViolation::QueueGauge {
                gauge: 0,
                outstanding: 2,
            })
        );
        // Saturation at the top of the range: `served + shed` must not wrap
        // into a passing sum.
        assert_eq!(
            balanced(u64::MAX, u64::MAX, 1, 0, 0).conservation_check(),
            Err(ConservationViolation::OverAnswered {
                admitted: u64::MAX,
                accounted: u64::MAX,
            })
        );
        assert_eq!(
            balanced(u64::MAX, u64::MAX, 0, 0, 0).conservation_check(),
            Ok(())
        );
        // Exactly-one-admitted edges.
        assert_eq!(balanced(1, 0, 0, 0, 1).conservation_check(), Ok(()));
        assert_eq!(balanced(1, 1, 0, 0, 0).conservation_check(), Ok(()));
        assert_eq!(
            balanced(0, 0, 1, 0, 0).conservation_check(),
            Err(ConservationViolation::OverAnswered {
                admitted: 0,
                accounted: 1,
            })
        );
    }

    /// The snapshot reads the registry's live counters field-for-field.
    #[test]
    fn snapshot_mirrors_the_registry() {
        let m = Metrics::new();
        m.requests_total.fetch_add(5, Ordering::Relaxed);
        m.responses_total.fetch_add(3, Ordering::Relaxed);
        m.rejected_deadline.fetch_add(1, Ordering::Relaxed);
        m.errored_total.fetch_add(1, Ordering::Relaxed);
        m.readers_live.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(
            s,
            MetricsSnapshot {
                admitted: 5,
                served: 3,
                shed: 1,
                errored: 1,
                queue_depth: 0,
                readers_live: 2,
            }
        );
        assert_eq!(s.conservation_check(), Ok(()));
        let text = m.render_prometheus();
        assert!(text.contains("tia_serve_errored_total 1"), "{text}");
        assert!(text.contains("tia_serve_readers_live 2"), "{text}");
        assert!(text.contains("tia_serve_faults_injected_total 0"), "{text}");
    }

    #[test]
    fn windowed_quantiles_see_only_new_samples() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record_ns(30_000_000); // a slow era: ~30 ms
        }
        let base = h.baseline();
        // Empty window reads as 0, not as the slow past.
        assert_eq!(h.quantile_since_ns(&base, 0.99), 0);
        for _ in 0..50 {
            h.record_ns(800_000); // recovered era: ~0.8 ms
        }
        // The cumulative p99 is still stuck in the slow era…
        assert!(h.quantile_ns(0.99) >= 30_000_000);
        // …but the window since the baseline sees only the recovery.
        assert!(h.quantile_since_ns(&base, 0.99) <= 2_000_000);
    }

    #[test]
    fn histogram_overflow_and_merge() {
        let a = Histogram::new();
        a.record_ns(u64::MAX / 2); // lands in the overflow bucket
        let b = Histogram::new();
        b.record_ns(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn prometheus_rendering_mentions_every_family() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.count_precision(None);
        m.count_precision(Some(Precision::new(8)));
        m.latency.record_ns(12_000);
        let text = m.render_prometheus();
        for family in [
            "tia_serve_requests_total 3",
            "tia_serve_rejected_total{reason=\"queue_full\"}",
            "tia_serve_queue_depth",
            "tia_serve_frames_by_precision_total{precision=\"fp32\"} 1",
            "tia_serve_frames_by_precision_total{precision=\"8-bit\"} 1",
            "tia_serve_request_latency_seconds_bucket{le=\"+Inf\"} 1",
            "tia_serve_request_latency_seconds_count 1",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    /// Satellite pin: the stage histograms inherit the shared
    /// `bucket_index` log2 upper-bound semantics — a boundary sample of
    /// exactly `2^i` µs reports as itself, anything else rounds up to its
    /// bucket bound, starting at the 1 µs floor.
    #[test]
    fn stage_histograms_pin_log2_upper_bound_semantics() {
        let m = Metrics::new();
        // queue_wait: 1 ns — the 1 µs bucket-0 floor.
        // window: exactly 1 µs — its own (inclusive) bound.
        // execute: 1 µs + 1 ns — rounds up to the 2 µs bound.
        // respond: exactly 1024 µs — a higher boundary, reports as itself.
        // total: 1025 µs — rounds up to the 2048 µs bound.
        m.record_stages(7, [1, 1_000, 1_001, 1_024_000, 1_025_000]);
        let bounds_us = [1u64, 1, 2, 1024, 2048];
        for (i, bound) in bounds_us.iter().enumerate() {
            assert_eq!(
                m.stage[i].quantile_ns(1.0),
                bound * 1000,
                "stage {} must report the log2 bucket upper bound",
                STAGE_NAMES[i]
            );
            // The shared helper agrees with the reported bound.
            let us = [1u64, 1, 2, 1024, 1025][i];
            assert_eq!(bucket_upper_us(bucket_index(us)), *bound);
        }
        let text = m.render_prometheus();
        for name in STAGE_NAMES {
            assert!(
                text.contains(&format!(
                    "tia_serve_stage_seconds_count{{stage=\"{name}\"}} 1"
                )),
                "missing stage family {name} in:\n{text}"
            );
        }
        // The boundary sample sits in its own `le` bucket, not the one below.
        assert!(
            text.contains("tia_serve_stage_seconds_bucket{stage=\"respond\",le=\"0.001024\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tia_serve_stage_seconds_bucket{stage=\"respond\",le=\"0.000512\"} 0"),
            "{text}"
        );
    }

    /// The slow-request exemplar table keeps the slowest requests by
    /// end-to-end total and renders their full stage breakdown.
    #[test]
    fn slow_exemplar_table_keeps_the_slowest_and_renders() {
        let m = Metrics::new();
        // Empty table renders nothing.
        assert!(!m
            .render_prometheus()
            .contains("tia_serve_slow_request_seconds"));
        // Fill beyond capacity; the four slowest must survive.
        for (id, total) in [(1u64, 10u64), (2, 50), (3, 20), (4, 40), (5, 30), (6, 60)] {
            m.record_stages(id, [1, 2, 3, 4, total * 1_000_000]);
        }
        let slow = m.slow_exemplars();
        assert_eq!(
            slow.iter().map(|e| e.wire_id).collect::<Vec<_>>(),
            vec![6, 2, 4, 5],
            "slowest-first ranking by total"
        );
        let text = m.render_prometheus();
        assert!(
            text.contains(
                "tia_serve_slow_request_seconds{rank=\"0\",id=\"6\",stage=\"total\"} 0.06"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "tia_serve_slow_request_seconds{rank=\"0\",id=\"6\",stage=\"queue_wait\"}"
            ),
            "{text}"
        );
        // A faster request than everything in the table changes nothing.
        m.record_stages(9, [1, 1, 1, 1, 1]);
        assert_eq!(m.slow_exemplars().len(), 4);
        assert!(!m.slow_exemplars().iter().any(|e| e.wire_id == 9));
    }

    #[test]
    fn controller_gauges_and_counters_render() {
        let m = Metrics::new();
        m.degrade_level.store(3, Ordering::Relaxed);
        m.degrade_shifts_down.fetch_add(4, Ordering::Relaxed);
        m.degrade_shifts_up.fetch_add(1, Ordering::Relaxed);
        m.floor_clamped_total.fetch_add(7, Ordering::Relaxed);
        let text = m.render_prometheus();
        for family in [
            "tia_serve_degrade_level 3",
            "tia_serve_degrade_shifts_total{direction=\"down\"} 4",
            "tia_serve_degrade_shifts_total{direction=\"up\"} 1",
            "tia_serve_floor_clamped_total 7",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
