//! Precision-selection policies for serving (the paper's RPS inference).

use tia_quant::{Precision, PrecisionSet};
use tia_tensor::SeededRng;

/// How the serving engine chooses an execution precision.
///
/// This absorbs and replaces the old `tia_core::InferencePolicy`: the policy
/// is now a first-class part of the inference engine rather than a detail of
/// the evaluation harness, so attacks, evaluation, benchmarks and serving
/// all share one definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrecisionPolicy {
    /// Always the same precision (`None` = full precision).
    Fixed(Option<Precision>),
    /// RPS: a fresh uniform sample from the set per request.
    Random(PrecisionSet),
    /// RPS whose live range a feedback controller may narrow toward the
    /// low end under overload (graceful degradation), bounded below by
    /// per-request floors. At degradation level 0 with no floor this is
    /// exactly [`PrecisionPolicy::Random`]; see
    /// [`PrecisionPolicy::sample_degraded`].
    Adaptive(PrecisionSet),
}

impl PrecisionPolicy {
    /// Draws one precision according to the policy, at degradation level 0
    /// with no floor.
    pub fn sample(&self, rng: &mut SeededRng) -> Option<Precision> {
        self.sample_degraded(rng, 0, None)
    }

    /// Draws one precision under a live degradation `level` and an
    /// optional per-request `floor`.
    ///
    /// `Fixed` stays pinned and consumes no draw. `Random` is the static
    /// RPS mix — it ignores level and floor but still consumes exactly one
    /// draw. `Adaptive` samples uniformly from the degraded window of its
    /// set: members at or above the floor with the `level` highest
    /// dropped, always keeping at least one (see
    /// [`PrecisionSet::degraded_window`]).
    ///
    /// Every sampling variant consumes exactly one draw regardless of
    /// level or floor, so a controller shifting the level mid-stream never
    /// moves the seeded stream position — only the value the same draw
    /// maps to. This is what keeps adaptive serving's schedule a pure
    /// function of the seed and the submission order.
    pub fn sample_degraded(
        &self,
        rng: &mut SeededRng,
        level: u8,
        floor: Option<Precision>,
    ) -> Option<Precision> {
        match self {
            PrecisionPolicy::Fixed(p) => *p,
            PrecisionPolicy::Random(set) => Some(set.sample(rng)),
            PrecisionPolicy::Adaptive(set) => {
                let window = set.degraded_window(level as usize, floor);
                Some(set.sample_window(rng, window))
            }
        }
    }

    /// The highest degradation level that still changes the sampled
    /// window: one less than the adaptive set's size (0 for non-adaptive
    /// policies, which never degrade).
    pub fn max_degrade_level(&self) -> u8 {
        match self {
            PrecisionPolicy::Adaptive(set) => (set.len() - 1).min(u8::MAX as usize) as u8,
            _ => 0,
        }
    }
}

impl std::fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecisionPolicy::Fixed(None) => write!(f, "fp32"),
            PrecisionPolicy::Fixed(Some(p)) => write!(f, "{}", p),
            PrecisionPolicy::Random(set) => write!(f, "RPS {}", set),
            PrecisionPolicy::Adaptive(set) => write!(f, "adaptive RPS {}", set),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_returns_same() {
        let mut rng = SeededRng::new(1);
        let p = PrecisionPolicy::Fixed(Some(Precision::new(6)));
        for _ in 0..10 {
            assert_eq!(p.sample(&mut rng), Some(Precision::new(6)));
        }
    }

    #[test]
    fn random_samples_within_set() {
        let mut rng = SeededRng::new(2);
        let set = PrecisionSet::range(4, 8);
        let p = PrecisionPolicy::Random(set.clone());
        for _ in 0..50 {
            assert!(set.contains(p.sample(&mut rng).unwrap()));
        }
    }

    #[test]
    fn adaptive_at_level_zero_matches_random() {
        // Same seed, same draws: an undegraded adaptive policy is the
        // static RPS mix, value for value.
        let set = PrecisionSet::range(4, 8);
        let random = PrecisionPolicy::Random(set.clone());
        let adaptive = PrecisionPolicy::Adaptive(set);
        let (mut ra, mut rb) = (SeededRng::new(5), SeededRng::new(5));
        for _ in 0..32 {
            assert_eq!(random.sample(&mut ra), adaptive.sample(&mut rb));
        }
    }

    #[test]
    fn degraded_sampling_respects_level_and_floor() {
        let set = PrecisionSet::range(4, 8);
        let p = PrecisionPolicy::Adaptive(set);
        let mut rng = SeededRng::new(6);
        for _ in 0..32 {
            // Level 3 keeps {4,5}; a 6-bit floor overrides to {6} alone.
            let b = p.sample_degraded(&mut rng, 3, None).unwrap().bits();
            assert!(b <= 5, "level 3 leaked {b}-bit");
            let f = p
                .sample_degraded(&mut rng, 3, Some(Precision::new(6)))
                .unwrap();
            assert_eq!(f.bits(), 6);
        }
        assert_eq!(p.max_degrade_level(), 4);
        assert_eq!(PrecisionPolicy::Fixed(None).max_degrade_level(), 0);
    }

    #[test]
    fn degraded_sampling_consumes_one_draw_at_any_level() {
        let set = PrecisionSet::range(4, 8);
        let p = PrecisionPolicy::Adaptive(set);
        let next_after = |level, floor| {
            let mut rng = SeededRng::new(7);
            let _ = p.sample_degraded(&mut rng, level, floor);
            rng.next_u64()
        };
        let base = next_after(0, None);
        assert_eq!(base, next_after(4, None));
        assert_eq!(base, next_after(2, Some(Precision::new(7))));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PrecisionPolicy::Fixed(None).to_string(), "fp32");
        assert_eq!(
            PrecisionPolicy::Fixed(Some(Precision::new(8))).to_string(),
            "8-bit"
        );
        assert_eq!(
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)).to_string(),
            "RPS 4~8-bit"
        );
        assert_eq!(
            PrecisionPolicy::Adaptive(PrecisionSet::range(4, 8)).to_string(),
            "adaptive RPS 4~8-bit"
        );
    }
}
