//! Exact statistics over raw samples. Nothing here buckets: a percentile is
//! a sample that was measured, and a median of an even count is the mean of
//! the two middle samples.

/// One completed operation of a timed loop, kept to 8 bytes so that the
/// sample store of even the fastest workload stays small next to the
/// memory of the system it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When it completed, in µs since the loop started.
    pub end_us: u32,
    /// Its latency in ns (saturating at 4.29 s, far beyond any operation).
    pub lat_ns: u32,
}

impl Completion {
    pub fn new(end_ns: u64, lat_ns: u64) -> Self {
        Self {
            end_us: u32::try_from(end_ns / 1_000).unwrap_or(u32::MAX),
            lat_ns: u32::try_from(lat_ns).unwrap_or(u32::MAX),
        }
    }
}

/// An empty sample store of `capacity` whose pages are already resident.
/// Touching it up front makes its size a constant of the run: without
/// that, peak memory would grow with the number of operations completed
/// and a throughput gain would read as a memory regression.
pub fn sample_store(capacity: usize) -> Vec<Completion> {
    // A non-zero fill: a zeroed allocation may be left unmapped until used.
    let mut store = vec![
        Completion {
            end_us: 1,
            lat_ns: 1
        };
        capacity
    ];
    store.clear();
    store
}

/// The `q`-quantile (0 < q ≤ 1) of ascending `sorted` by nearest rank: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps q·n that is whole in exact arithmetic (0.99 × 2400)
    // from rounding up a rank through float error.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(samples: &[u64]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    median(&v)
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) does, because
/// that is what the acceptance rule for this benchmark is written in.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread figure every
/// bound in `BENCHMARK.json` is compared with.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Throughput per slice of a timed loop whose operations carry
/// `items_per_op` items each. A slice closes at the first completion at or
/// after each whole multiple of `slice_us`; its rate is the items completed
/// in it over its own length, so an operation longer than a slice makes one
/// long slice instead of an empty one and a double one. Completions after
/// the last close are dropped.
pub fn slice_rates(completions: &[Completion], items_per_op: u32, slice_us: u32) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut start, mut boundary, mut ops) = (0u32, slice_us, 0u64);
    for c in completions {
        ops += 1;
        if c.end_us >= boundary {
            let items = ops * u64::from(items_per_op);
            rates.push(items as f64 * 1e6 / f64::from(c.end_us - start));
            start = c.end_us;
            ops = 0;
            boundary = (c.end_us / slice_us + 1).saturating_mul(slice_us);
        }
    }
    rates
}

/// Tail latency by the rule "the highest percentile that still has at
/// least ten samples beyond it", from the ladder p50, p90, p99, p99.9, ….
/// Returns the percentile's label and value; with fewer than 20 samples no
/// rung qualifies and the maximum is returned, labelled as such.
pub fn tail(sorted: &[u64]) -> (&'static str, u64) {
    const LADDER: [(&str, f64); 6] = [
        ("p50", 0.5),
        ("p90", 0.9),
        ("p99", 0.99),
        ("p99.9", 0.999),
        ("p99.99", 0.9999),
        ("p99.999", 0.99999),
    ];
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len() as f64;
    LADDER
        .iter()
        .rev()
        .find(|(_, q)| n * (1.0 - q) >= 10.0 - 1e-6)
        .map(|&(label, q)| (label, percentile(sorted, q)))
        .unwrap_or(("max", sorted[sorted.len() - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u32 = 1_000_000;

    fn done(end_ms: u64) -> Completion {
        Completion::new(end_ms * 1_000_000, 0)
    }

    #[test]
    fn completions_saturate_and_the_store_is_resident_and_empty() {
        assert_eq!(
            Completion::new(1_500_000, 2_000),
            Completion {
                end_us: 1_500,
                lat_ns: 2_000
            }
        );
        assert_eq!(Completion::new(u64::MAX, u64::MAX).lat_ns, u32::MAX);
        assert_eq!(std::mem::size_of::<Completion>(), 8);
        let store = sample_store(1_000);
        assert!(store.is_empty() && store.capacity() >= 1_000);
    }

    #[test]
    fn percentile_is_a_measured_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[3, 9], 0.5), 3);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_u64(&[10, 20]), 15.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slices_close_at_first_completion_past_each_whole_second() {
        // Four operations a second, 250 ms each, 10 items each.
        let c: Vec<Completion> = (1..=10).map(|i| done(i * 250)).collect();
        let rates = slice_rates(&c, 10, SEC);
        // Closes at 1000 ms and 2000 ms; 2250 and 2500 are dropped.
        assert_eq!(rates, vec![40.0, 40.0]);
    }

    #[test]
    fn slice_length_is_its_own_not_the_nominal_second() {
        // 300 ms operations: closes at 1200, 2100, 3000.
        let c: Vec<Completion> = (1..=10).map(|i| done(i * 300)).collect();
        let rates = slice_rates(&c, 3, SEC);
        assert_eq!(rates.len(), 3);
        assert!((rates[0] - 12.0 / 1.2).abs() < 1e-9);
        assert!((rates[1] - 9.0 / 0.9).abs() < 1e-9);
        assert!((rates[2] - 9.0 / 0.9).abs() < 1e-9);
    }

    #[test]
    fn one_operation_per_slice_gives_one_rate_per_operation() {
        // 1.3 s operations of 24 images, as a slow robust_eval would be:
        // every slice holds exactly one operation and spans its length.
        let c: Vec<Completion> = (1..=4).map(|i| done(i * 1300)).collect();
        let rates = slice_rates(&c, 24, SEC);
        assert_eq!(rates.len(), 4);
        for r in rates {
            assert!((r - 24.0 / 1.3).abs() < 1e-9);
        }
        // An operation spanning two whole seconds closes one slice, not two.
        let long = [done(2500), done(3100)];
        let rates = slice_rates(&long, 24, SEC);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 24.0 / 2.5).abs() < 1e-9);
        assert!((rates[1] - 24.0 / 0.6).abs() < 1e-9);
    }

    #[test]
    fn tail_picks_highest_rung_with_ten_samples_beyond() {
        let s = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(tail(&s(19)), ("max", 19));
        assert_eq!(tail(&s(20)), ("p50", 10));
        assert_eq!(tail(&s(100)), ("p90", 90));
        assert_eq!(tail(&s(155)), ("p90", 140));
        assert_eq!(tail(&s(2_400)), ("p99", 2_376));
        assert_eq!(tail(&s(10_000)), ("p99.9", 9_990));
        assert_eq!(tail(&s(140_000)), ("p99.99", 139_986));
    }
}
