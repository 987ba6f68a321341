//! Forecast accuracy metrics.

/// Mean absolute percentage error, skipping points where `actual == 0`.
/// Returns 0 for empty/degenerate input.
#[cfg(test)]
pub(crate) fn mape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len());
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&a, &p) in actual.iter().zip(predicted) {
        if a.abs() > f64::EPSILON {
            sum += ((a - p) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Symmetric MAPE in `[0, 2]`; robust when either side is near zero.
pub fn smape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len());
    if actual.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for (&a, &p) in actual.iter().zip(predicted) {
        let denom = (a.abs() + p.abs()) / 2.0;
        if denom > f64::EPSILON {
            sum += (a - p).abs() / denom;
        }
    }
    sum / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_forecast_scores_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mape(&a, &a), 0.0);
        assert_eq!(smape(&a, &a), 0.0);
    }

    #[test]
    fn known_values() {
        let actual = [100.0, 200.0];
        let predicted = [110.0, 180.0];
        assert!((mape(&actual, &predicted) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let actual = [0.0, 100.0];
        let predicted = [50.0, 150.0];
        assert!((mape(&actual, &predicted) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn smape_bounded_for_zero_prediction() {
        let actual = [10.0];
        let predicted = [0.0];
        assert!((smape(&actual, &predicted) - 2.0).abs() < 1e-12);
    }
}
