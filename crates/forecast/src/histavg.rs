//! Historical-average (seasonal) forecaster.
//!
//! "The historical average provides stable forecasts, especially suitable when
//! trend changes are minimal" (§5.2). For a series with period `p`, the
//! forecast for phase `φ` is an average over the same phase in previous
//! cycles, weighted toward recent cycles; without a period it degenerates to a
//! trailing mean.

/// The cycle decay the §5.2 ensemble fits with.
pub const DECAY: f64 = 0.7;

/// A fitted historical-average model.
#[derive(Debug, Clone)]
pub struct HistoricalAverage {
    /// Per-phase forecasts (length = period), or a single value when aperiodic.
    phase_means: Vec<f64>,
    n_train: usize,
}

impl HistoricalAverage {
    /// Fit on `values` with an optional known `period` (in samples).
    /// `decay` in `(0,1]` down-weights older cycles (1.0 = plain mean).
    #[allow(clippy::needless_range_loop)]
    pub fn fit(values: &[f64], period: Option<usize>, decay: f64) -> Self {
        let n = values.len();
        let period = period.filter(|&p| p >= 1 && n >= p);
        match period {
            None => {
                let mean = if n == 0 {
                    0.0
                } else {
                    values.iter().sum::<f64>() / n as f64
                };
                Self {
                    phase_means: vec![mean],
                    n_train: n,
                }
            }
            Some(p) => {
                let mut phase_means = vec![0.0; p];
                for phase in 0..p {
                    let mut weight_sum = 0.0;
                    let mut value_sum = 0.0;
                    // Walk cycles newest-first so the decay favours recency.
                    let mut weight = 1.0;
                    let mut i = (n as isize - 1)
                        - ((n as isize - 1 - phase as isize).rem_euclid(p as isize));
                    // `i` is the newest index congruent to `phase` (mod p).
                    while i >= 0 {
                        value_sum += values[i as usize] * weight;
                        weight_sum += weight;
                        weight *= decay;
                        i -= p as isize;
                    }
                    phase_means[phase] = if weight_sum > 0.0 {
                        value_sum / weight_sum
                    } else {
                        0.0
                    };
                }
                Self {
                    phase_means,
                    n_train: n,
                }
            }
        }
    }

    /// Predict `horizon` samples following the training window.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        let p = self.phase_means.len();
        (0..horizon)
            .map(|h| self.phase_means[(self.n_train + h) % p])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    #[test]
    fn aperiodic_returns_mean() {
        let m = HistoricalAverage::fit(&[10.0, 20.0, 30.0], None, 1.0);
        assert_eq!(m.forecast(3), vec![20.0, 20.0, 20.0]);
    }

    #[test]
    fn periodic_repeats_cycle_phase_aligned() {
        // Period 4 pattern repeated 5 times.
        let pattern = [10.0, 20.0, 30.0, 40.0];
        let values: Vec<f64> = (0..20).map(|t| pattern[t % 4]).collect();
        let m = HistoricalAverage::fit(&values, Some(4), 1.0);
        let fc = m.forecast(8);
        let expect: Vec<f64> = (20..28).map(|t| pattern[t % 4]).collect();
        assert!(mape(&expect, &fc) < 1e-9);
    }

    #[test]
    fn phase_alignment_with_partial_last_cycle() {
        // 10 samples of period 4: last cycle is partial; phases must still align.
        let pattern = [1.0, 2.0, 3.0, 4.0];
        let values: Vec<f64> = (0..10).map(|t| pattern[t % 4]).collect();
        let m = HistoricalAverage::fit(&values, Some(4), 1.0);
        let fc = m.forecast(4);
        let expect: Vec<f64> = (10..14).map(|t| pattern[t % 4]).collect();
        assert_eq!(fc, expect);
    }

    #[test]
    fn decay_favours_recent_cycles() {
        // First cycle at level 10, second at level 90.
        let mut values = vec![10.0; 4];
        values.extend(vec![90.0; 4]);
        let flat = HistoricalAverage::fit(&values, Some(4), 1.0);
        let recent = HistoricalAverage::fit(&values, Some(4), 0.2);
        assert!((flat.forecast(1)[0] - 50.0).abs() < 1e-9);
        assert!(
            recent.forecast(1)[0] > 70.0,
            "decay too weak: {}",
            recent.forecast(1)[0]
        );
    }

    #[test]
    fn empty_series_is_safe() {
        let m = HistoricalAverage::fit(&[], None, 1.0);
        assert_eq!(m.forecast(2), vec![0.0, 0.0]);
    }
}
