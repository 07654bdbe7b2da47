//! Precision (bit-width) newtype and candidate precision sets.

use tia_tensor::SeededRng;

/// A quantization bit-width in `1..=16`.
///
/// The paper's RPS algorithm draws precisions from a candidate set (default
/// 4–16 bit); the accelerator supports 1–16 bit execution. A newtype keeps
/// bit-widths from being confused with other integers throughout the
/// workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Precision(u8);

impl Precision {
    /// Maximum supported bit-width.
    pub const MAX_BITS: u8 = 16;

    /// Creates a precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=Self::MAX_BITS).contains(&bits),
            "precision must be 1..=16, got {}",
            bits
        );
        Self(bits)
    }

    /// The bit-width as an integer.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Number of representable levels, `2^bits`.
    pub fn levels(self) -> u32 {
        1u32 << self.0
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

impl From<Precision> for u8 {
    fn from(p: Precision) -> u8 {
        p.0
    }
}

/// An ordered set of candidate precisions for RPS training/inference.
///
/// # Example
///
/// ```
/// use tia_quant::PrecisionSet;
/// let set = PrecisionSet::range(4, 8);
/// assert_eq!(set.len(), 5);
/// assert_eq!(set.iter().map(|p| p.bits()).collect::<Vec<_>>(), vec![4, 5, 6, 7, 8]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecisionSet {
    bits: Vec<Precision>,
}

impl PrecisionSet {
    /// Builds a set from explicit bit-widths (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or any width is invalid.
    pub fn new(bits: &[u8]) -> Self {
        assert!(!bits.is_empty(), "precision set must be non-empty");
        let mut v: Vec<Precision> = bits.iter().map(|&b| Precision::new(b)).collect();
        v.sort_unstable();
        v.dedup();
        Self { bits: v }
    }

    /// Inclusive range `lo..=hi` of bit-widths.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is invalid.
    pub fn range(lo: u8, hi: u8) -> Self {
        assert!(lo <= hi, "range lo > hi");
        Self::new(&(lo..=hi).collect::<Vec<_>>())
    }

    /// Number of candidate precisions.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: Precision) -> bool {
        self.bits.binary_search(&p).is_ok()
    }

    /// Iterates over precisions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Precision> + '_ {
        self.bits.iter().copied()
    }

    /// Uniformly samples one precision (the RPS random switch): the
    /// whole-set window of [`PrecisionSet::sample_window`].
    pub fn sample(&self, rng: &mut SeededRng) -> Precision {
        self.sample_window(rng, (0, self.bits.len()))
    }

    /// The live sub-range an RPS draw samples from at degradation
    /// `level` with an optional per-class `floor`: members at or above the
    /// floor, with the `level` *highest* dropped, always keeping at least
    /// one. Returned as `(start_index, count)` into the ascending member
    /// order, for use with [`PrecisionSet::sample_window`].
    ///
    /// Level 0 with no floor is the whole set; at the maximum useful level
    /// only the lowest eligible member remains. A floor above every member
    /// clamps to the single highest member (the closest the set can honor).
    pub fn degraded_window(&self, level: usize, floor: Option<Precision>) -> (usize, usize) {
        let lo = floor
            .map_or(0, |f| self.bits.partition_point(|&p| p < f))
            .min(self.bits.len() - 1);
        let avail = self.bits.len() - lo;
        (lo, avail - level.min(avail - 1))
    }

    /// Uniformly samples one member of the ascending index window
    /// `[start, start + count)`. Exactly one draw from `rng` at any
    /// window, so narrowing the window never shifts the seeded stream
    /// position, only the value the draw maps to.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or reaches past the last member.
    pub fn sample_window(&self, rng: &mut SeededRng, window: (usize, usize)) -> Precision {
        let (start, count) = window;
        assert!(
            count > 0 && start + count <= self.bits.len(),
            "window {:?} out of bounds for a {}-member set",
            window,
            self.bits.len()
        );
        self.bits[start + rng.below(count)]
    }

    /// The lowest precision in the set.
    pub fn min(&self) -> Precision {
        self.bits[0]
    }

    /// The highest precision in the set.
    pub fn max(&self) -> Precision {
        *self.bits.last().expect("non-empty by construction")
    }

    /// Mean bit-width of the set (average cost of random switching).
    pub fn mean_bits(&self) -> f32 {
        self.bits.iter().map(|p| p.bits() as f32).sum::<f32>() / self.bits.len() as f32
    }
}

impl std::fmt::Display for PrecisionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lo = self.min().bits();
        let hi = self.max().bits();
        if self.len() as u8 == hi - lo + 1 {
            write!(f, "{}~{}-bit", lo, hi)
        } else {
            let parts: Vec<String> = self.bits.iter().map(|p| p.bits().to_string()).collect();
            write!(f, "{{{}}}-bit", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bounds() {
        assert_eq!(Precision::new(1).bits(), 1);
        assert_eq!(Precision::new(16).bits(), 16);
        assert_eq!(Precision::new(8).levels(), 256);
    }

    #[test]
    #[should_panic(expected = "precision must be 1..=16")]
    fn precision_zero_panics() {
        let _ = Precision::new(0);
    }

    #[test]
    #[should_panic(expected = "precision must be 1..=16")]
    fn precision_too_large_panics() {
        let _ = Precision::new(17);
    }

    #[test]
    fn set_dedup_and_sort() {
        let s = PrecisionSet::new(&[8, 4, 8, 6]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.min().bits(), 4);
        assert_eq!(s.max().bits(), 8);
    }

    #[test]
    fn sampling_covers_the_set() {
        let s = PrecisionSet::range(4, 6);
        let mut rng = SeededRng::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.sample(&mut rng).bits());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn degraded_window_drops_highest_and_respects_floor() {
        let s = PrecisionSet::range(4, 8); // members 4,5,6,7,8
        assert_eq!(s.degraded_window(0, None), (0, 5));
        assert_eq!(s.degraded_window(2, None), (0, 3)); // 4,5,6
                                                        // Over-degrading keeps the single lowest member.
        assert_eq!(s.degraded_window(99, None), (0, 1));
        // A floor filters before the level drops members.
        let floor = Some(Precision::new(6));
        assert_eq!(s.degraded_window(0, floor), (2, 3)); // 6,7,8
        assert_eq!(s.degraded_window(2, floor), (2, 1)); // 6 alone
        assert_eq!(s.degraded_window(99, floor), (2, 1));
        // A floor above the whole set clamps to the highest member.
        assert_eq!(s.degraded_window(0, Some(Precision::new(12))), (4, 1));
    }

    #[test]
    fn sample_window_is_one_draw_and_stays_inside() {
        let s = PrecisionSet::range(4, 8);
        // Same seed, different windows: the next draw after each sample is
        // identical, i.e. the window never changes the stream position.
        let next_after = |window| {
            let mut rng = SeededRng::new(9);
            let p = s.sample_window(&mut rng, window);
            assert!(s.contains(p));
            rng.next_u64()
        };
        assert_eq!(next_after((0, 5)), next_after((2, 1)));
        // Window of one is deterministic regardless of the draw.
        let mut rng = SeededRng::new(10);
        assert_eq!(s.sample_window(&mut rng, (2, 1)).bits(), 6);
        // Samples stay inside the window.
        let mut rng = SeededRng::new(11);
        for _ in 0..50 {
            let b = s.sample_window(&mut rng, (1, 3)).bits();
            assert!((5..=7).contains(&b), "{b} escaped the window");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sample_window_rejects_overrun() {
        let s = PrecisionSet::range(4, 8);
        let mut rng = SeededRng::new(1);
        let _ = s.sample_window(&mut rng, (3, 3));
    }

    #[test]
    fn mean_bits() {
        let s = PrecisionSet::new(&[4, 8]);
        assert!((s.mean_bits() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PrecisionSet::range(4, 8).to_string(), "4~8-bit");
        assert_eq!(PrecisionSet::new(&[4, 8]).to_string(), "{4,8}-bit");
    }
}
