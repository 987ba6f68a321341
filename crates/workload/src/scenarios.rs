//! Traffic shapes for the isolation and dynamism experiments.
//!
//! Figures 5–7 are driven by piecewise traffic intensities: steady floors
//! and step bursts at a given minute. A [`TrafficShape`] maps virtual time
//! to a QPS level; experiment harnesses combine shapes with
//! [`crate::keys::RequestGen`] streams.

use abase_util::clock::SimTime;

/// A piecewise traffic intensity over virtual time.
#[derive(Debug, Clone)]
pub enum TrafficShape {
    /// Constant QPS.
    Steady(f64),
    /// `base` QPS, stepping to `burst` QPS inside `[start, end)`.
    StepBurst {
        /// Baseline QPS.
        base: f64,
        /// Burst QPS.
        burst: f64,
        /// Burst start.
        start: SimTime,
        /// Burst end (exclusive).
        end: SimTime,
    },
}

impl TrafficShape {
    /// QPS at virtual time `t`.
    fn qps_at(&self, t: SimTime) -> f64 {
        match self {
            TrafficShape::Steady(q) => *q,
            TrafficShape::StepBurst {
                base,
                burst,
                start,
                end,
            } => {
                if t >= *start && t < *end {
                    *burst
                } else {
                    *base
                }
            }
        }
    }

    /// Number of requests to issue for a tick of `tick_len` starting at `t`,
    /// with deterministic fractional accumulation handled by the caller.
    pub fn requests_in_tick(&self, t: SimTime, tick_len: SimTime) -> f64 {
        self.qps_at(t) * tick_len as f64 / 1_000_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::clock::{mins, secs};

    #[test]
    fn steady_is_flat() {
        let s = TrafficShape::Steady(100.0);
        assert_eq!(s.qps_at(0), 100.0);
        assert_eq!(s.qps_at(mins(60)), 100.0);
    }

    #[test]
    fn step_burst_fires_in_window() {
        let s = TrafficShape::StepBurst {
            base: 100.0,
            burst: 5000.0,
            start: mins(10),
            end: mins(30),
        };
        assert_eq!(s.qps_at(mins(9)), 100.0);
        assert_eq!(s.qps_at(mins(10)), 5000.0);
        assert_eq!(s.qps_at(mins(29)), 5000.0);
        assert_eq!(s.qps_at(mins(30)), 100.0);
    }

    #[test]
    fn requests_in_tick_scales_with_tick() {
        let s = TrafficShape::Steady(1000.0);
        assert!((s.requests_in_tick(0, secs(1)) - 1000.0).abs() < 1e-9);
        assert!((s.requests_in_tick(0, 100_000) - 100.0).abs() < 1e-9); // 100 ms
    }
}
