//! Traffic shapes for the isolation and dynamism experiments.
//!
//! Figures 5–7 are driven by piecewise traffic intensities: steady floors,
//! step bursts at a given minute, ramps, and temporary plateaus. A
//! [`TrafficShape`] maps virtual time to a QPS level; experiment harnesses
//! combine shapes with [`crate::keys::RequestGen`] streams.

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
    /// Linear ramp from `from` QPS to `to` QPS over `[start, end)`, holding
    /// `to` afterwards.
    Ramp {
        /// Starting QPS.
        from: f64,
        /// Final QPS.
        to: f64,
        /// Ramp start.
        start: SimTime,
        /// Ramp end.
        end: SimTime,
    },
    /// Sinusoidal diurnal pattern: `mean ± amplitude` with the given period.
    Diurnal {
        /// Mean QPS.
        mean: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Cycle length.
        period: SimTime,
    },
    /// Sum of two shapes (e.g. diurnal + burst).
    Sum(Box<TrafficShape>, Box<TrafficShape>),
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
            TrafficShape::Ramp {
                from,
                to,
                start,
                end,
            } => {
                if t < *start {
                    *from
                } else if t >= *end {
                    *to
                } else {
                    let frac = (t - start) as f64 / (end - start) as f64;
                    from + (to - from) * frac
                }
            }
            TrafficShape::Diurnal {
                mean,
                amplitude,
                period,
            } => {
                let phase = (t % period) as f64 / *period as f64;
                mean + amplitude * (2.0 * std::f64::consts::PI * phase).sin()
            }
            TrafficShape::Sum(a, b) => a.qps_at(t) + b.qps_at(t),
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
    fn ramp_interpolates() {
        let s = TrafficShape::Ramp {
            from: 0.0,
            to: 100.0,
            start: secs(0),
            end: secs(100),
        };
        assert_eq!(s.qps_at(secs(0)), 0.0);
        assert!((s.qps_at(secs(50)) - 50.0).abs() < 1e-9);
        assert_eq!(s.qps_at(secs(200)), 100.0);
    }

    #[test]
    fn diurnal_oscillates() {
        let s = TrafficShape::Diurnal {
            mean: 100.0,
            amplitude: 50.0,
            period: mins(60),
        };
        assert!((s.qps_at(0) - 100.0).abs() < 1e-9);
        assert!((s.qps_at(mins(15)) - 150.0).abs() < 1e-9); // quarter period
        assert!((s.qps_at(mins(45)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sum_composes() {
        let s = TrafficShape::Sum(
            Box::new(TrafficShape::Steady(10.0)),
            Box::new(TrafficShape::Steady(5.0)),
        );
        assert_eq!(s.qps_at(0), 15.0);
    }

    #[test]
    fn requests_in_tick_scales_with_tick() {
        let s = TrafficShape::Steady(1000.0);
        assert!((s.requests_in_tick(0, secs(1)) - 1000.0).abs() < 1e-9);
        assert!((s.requests_in_tick(0, 100_000) - 100.0).abs() < 1e-9); // 100 ms
    }
}
