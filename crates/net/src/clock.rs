//! The aggregator's time source.
//!
//! The grace window, the node liveness deadline and the run timeout are
//! all decisions about elapsed time. Reading them from a [`Clock`] rather
//! than straight from `Instant::now()` lets a test hold time still or
//! jump it forward, so the outcome of a protocol test depends on what
//! arrived, never on how the scheduler spaced the arrivals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic time as seen by the aggregator loop.
#[derive(Debug, Clone)]
pub struct Clock(Source);

#[derive(Debug, Clone)]
enum Source {
    /// Wall-clock time since this instant.
    Real(Instant),
    /// Nanoseconds, moved only by [`Clock::advance`]; shared by clones.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// Real monotonic time, starting now.
    pub fn real() -> Clock {
        Clock(Source::Real(Instant::now()))
    }

    /// A clock stopped at zero that moves only when
    /// [`advance`](Self::advance)d. Clones share the same time, so a test
    /// keeps one clone and hands the other to the aggregator.
    pub fn manual() -> Clock {
        Clock(Source::Manual(Arc::new(AtomicU64::new(0))))
    }

    /// Time elapsed since the clock started.
    pub fn now(&self) -> Duration {
        match &self.0 {
            Source::Real(origin) => origin.elapsed(),
            Source::Manual(nanos) => Duration::from_nanos(nanos.load(Ordering::Acquire)),
        }
    }

    /// Moves a manual clock forward by `by`.
    ///
    /// # Panics
    /// On a real clock, which cannot be moved.
    pub fn advance(&self, by: Duration) {
        match &self.0 {
            Source::Real(_) => panic!("a real clock cannot be advanced"),
            Source::Manual(nanos) => {
                nanos.fetch_add(by.as_nanos() as u64, Ordering::AcqRel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_advanced_and_clones_share_it() {
        let clock = Clock::manual();
        let held = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        held.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
    }

    #[test]
    fn real_clock_is_monotonic() {
        let clock = Clock::real();
        let a = clock.now();
        assert!(clock.now() >= a);
    }
}
