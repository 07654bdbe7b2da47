//! The workspace's single wall-clock seam.
//!
//! Bitwise determinism (same seed ⇒ same logits *and* same schedule) dies
//! the moment scheduler logic reads ambient time, so the `tia-lint`
//! determinism rule bans raw `Instant::now()` / `SystemTime` everywhere
//! except this module. Two layers:
//!
//! * [`monotonic_now`] / [`since`] — thin real-clock reads for code that
//!   merely *measures* (client retry backoff, load-generator pacing).
//! * [`Clock`] — an injectable handle threaded through the server so every
//!   schedule-affecting read (deadline anchoring, EDF window waits,
//!   expiry shedding) can be driven manually in tests. A manual clock
//!   freezes time at construction and only moves via [`Clock::advance`],
//!   making deadline behavior fully deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads the real monotonic clock.
///
/// This is the one sanctioned raw time read in the workspace; everything
/// else routes through it (or through a [`Clock`]) so the determinism lint
/// can hold the line elsewhere.
pub fn monotonic_now() -> Instant {
    Instant::now()
}

/// Real-clock duration since `earlier`, saturating at zero.
pub fn since(earlier: Instant) -> Duration {
    monotonic_now().saturating_duration_since(earlier)
}

/// Backing state of a manual clock: a frozen base instant plus an
/// atomically advanced offset.
#[derive(Debug)]
struct ManualClock {
    base: Instant,
    offset_ns: AtomicU64,
}

/// A monotonic time source for the serving scheduler: the real clock, or a
/// manually advanced one for deterministic tests.
///
/// Cloning is cheap and clones share the same timeline — advance one
/// handle and every clone sees the new time.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    manual: Option<Arc<ManualClock>>,
}

impl Clock {
    /// A clock that reads real monotonic time.
    pub fn real() -> Self {
        Clock { manual: None }
    }

    /// A manual clock frozen at the current instant; it only moves via
    /// [`Clock::advance`].
    pub fn manual() -> Self {
        Clock {
            manual: Some(Arc::new(ManualClock {
                base: monotonic_now(),
                offset_ns: AtomicU64::new(0),
            })),
        }
    }

    /// The current instant on this clock's timeline.
    pub fn now(&self) -> Instant {
        match &self.manual {
            None => monotonic_now(),
            // ordering: SeqCst — test-only manual clock; an advance() must be
            // globally visible before the test observes its scheduling effect,
            // and this is nowhere near a hot path.
            Some(m) => m.base + Duration::from_nanos(m.offset_ns.load(Ordering::SeqCst)),
        }
    }

    /// Duration since `earlier` on this clock's timeline, saturating at
    /// zero (manual clocks can sit behind instants taken from the real
    /// clock).
    pub fn since(&self, earlier: Instant) -> Duration {
        self.now().saturating_duration_since(earlier)
    }

    /// Advances a manual clock by `by`; returns `false` (and does nothing)
    /// on a real clock.
    pub fn advance(&self, by: Duration) -> bool {
        match &self.manual {
            None => false,
            Some(m) => {
                let ns = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
                // ordering: SeqCst — pairs with the load in now(); see above.
                m.offset_ns.fetch_add(ns, Ordering::SeqCst);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_moves_forward() {
        let c = Clock::real();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(c.manual.is_none());
        assert!(!c.advance(Duration::from_secs(1)));
    }

    #[test]
    fn manual_clock_only_moves_on_advance() {
        let c = Clock::manual();
        let a = c.now();
        assert_eq!(c.now(), a);
        assert!(c.advance(Duration::from_millis(7)));
        assert_eq!(c.now() - a, Duration::from_millis(7));
        assert!(c.manual.is_some());
    }

    #[test]
    fn clones_share_the_timeline() {
        let c = Clock::manual();
        let d = c.clone();
        let t0 = c.now();
        d.advance(Duration::from_secs(3));
        assert_eq!(c.now() - t0, Duration::from_secs(3));
    }

    #[test]
    fn since_saturates_for_future_instants() {
        let c = Clock::manual();
        let future = monotonic_now() + Duration::from_secs(3600);
        assert_eq!(c.since(future), Duration::ZERO);
    }
}
