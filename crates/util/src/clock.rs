//! Virtual time for deterministic simulation.
//!
//! ABase's published evaluation runs on a production fleet over hours or days. To
//! reproduce the *shape* of those experiments deterministically and quickly, every
//! time-dependent component in this workspace takes a [`SimTime`] instead of reading
//! a wall clock.
//!
//! The base unit is **microseconds**: fine enough to resolve sub-millisecond request
//! latencies, while a `u64` still spans ~584 000 years of virtual time.

/// A point in virtual time, in microseconds since the start of the simulation.
pub type SimTime = u64;

/// Microseconds in one millisecond.
pub const MICROS_PER_MS: SimTime = 1_000;
/// Microseconds in one second.
pub const MICROS_PER_SEC: SimTime = 1_000_000;
/// Microseconds in one minute.
pub const MICROS_PER_MIN: SimTime = 60 * MICROS_PER_SEC;
/// Microseconds in one hour.
pub const MICROS_PER_HOUR: SimTime = 60 * MICROS_PER_MIN;
/// Microseconds in one day.
pub const MICROS_PER_DAY: SimTime = 24 * MICROS_PER_HOUR;

/// Convert milliseconds to [`SimTime`].
#[inline]
pub const fn ms(v: u64) -> SimTime {
    v * MICROS_PER_MS
}

/// Convert seconds to [`SimTime`].
#[inline]
pub const fn secs(v: u64) -> SimTime {
    v * MICROS_PER_SEC
}

/// Convert minutes to [`SimTime`].
#[inline]
pub const fn mins(v: u64) -> SimTime {
    v * MICROS_PER_MIN
}

/// Convert hours to [`SimTime`].
#[inline]
pub const fn hours(v: u64) -> SimTime {
    v * MICROS_PER_HOUR
}

/// Convert days to [`SimTime`].
#[inline]
pub const fn days(v: u64) -> SimTime {
    v * MICROS_PER_DAY
}

/// An iterator over fixed-width ticks of virtual time: yields the start of each tick.
///
/// Used by the cluster simulator to drive data nodes at a fixed granularity
/// (e.g. 100 ms ticks) over a span of virtual hours.
#[derive(Debug, Clone)]
pub struct Ticks {
    next: SimTime,
    end: SimTime,
    step: SimTime,
}

impl Ticks {
    /// Ticks covering `[start, end)` at interval `step`.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn new(start: SimTime, end: SimTime, step: SimTime) -> Self {
        assert!(step > 0, "tick step must be positive");
        Self {
            next: start,
            end,
            step,
        }
    }
}

impl Iterator for Ticks {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.next >= self.end {
            return None;
        }
        let t = self.next;
        self.next += self.step;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.next >= self.end {
            0
        } else {
            ((self.end - self.next) as usize).div_ceil(self.step as usize)
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Ticks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_compose() {
        assert_eq!(days(1), hours(24));
        assert_eq!(hours(1), mins(60));
        assert_eq!(mins(1), secs(60));
        assert_eq!(secs(1), ms(1000));
    }

    #[test]
    fn ticks_cover_half_open_interval() {
        let ticks: Vec<_> = Ticks::new(0, secs(1), ms(250)).collect();
        assert_eq!(ticks, vec![0, 250_000, 500_000, 750_000]);
    }

    #[test]
    fn ticks_empty_when_start_at_end() {
        assert_eq!(Ticks::new(secs(3), secs(3), ms(100)).count(), 0);
    }

    #[test]
    fn ticks_exact_size() {
        let t = Ticks::new(0, ms(1000), ms(300));
        assert_eq!(t.len(), 4); // 0, 300, 600, 900
        assert_eq!(t.count(), 4);
    }

    #[test]
    #[should_panic(expected = "tick step must be positive")]
    fn ticks_reject_zero_step() {
        let _ = Ticks::new(0, 10, 0);
    }
}
