//! Trend change-point detection (paper §5.2, Issue 1).
//!
//! "Significant trend variations frequently occur within individual series,
//! typically due to business adjustments and data cleaning. We also utilize
//! change point detection methods to identify trend shifts, thereby focusing
//! the forecasting algorithms more on recent data changes."
//!
//! Implementation: binary segmentation on mean shift with a BIC-style penalty.
//! For each candidate split the gain is the reduction in total squared error
//! from modelling the two halves with separate means; splits are accepted
//! while the gain exceeds `penalty · σ²_global`.

/// Detected change points (indices where a new segment starts), ascending.
fn detect_changepoints(values: &[f64], penalty: f64, min_segment: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let global_var = variance(values).max(1e-12);
    segment(
        values,
        0,
        penalty * global_var,
        min_segment.max(2),
        &mut out,
    );
    out.sort_unstable();
    out
}

/// The index of the last detected change point (start of the current regime),
/// or 0 when the series is homogeneous.
pub fn last_regime_start(values: &[f64], penalty: f64, min_segment: usize) -> usize {
    detect_changepoints(values, penalty, min_segment)
        .last()
        .copied()
        .unwrap_or(0)
}

fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
}

fn sse(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
}

fn segment(values: &[f64], offset: usize, threshold: f64, min_seg: usize, out: &mut Vec<usize>) {
    let n = values.len();
    if n < 2 * min_seg {
        return;
    }
    let total = sse(values);
    let mut best_gain = 0.0;
    let mut best_split = 0usize;
    for split in min_seg..=(n - min_seg) {
        let gain = total - sse(&values[..split]) - sse(&values[split..]);
        if gain > best_gain {
            best_gain = gain;
            best_split = split;
        }
    }
    // Penalty scales with log(n) à la BIC so longer windows demand more
    // evidence per split.
    if best_split == 0 || best_gain < threshold * (n as f64).ln().max(1.0) {
        return;
    }
    out.push(offset + best_split);
    segment(&values[..best_split], offset, threshold, min_seg, out);
    segment(
        &values[best_split..],
        offset + best_split,
        threshold,
        min_seg,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_series_has_no_changepoints() {
        let v: Vec<f64> = (0..200).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        assert!(detect_changepoints(&v, 5.0, 10).is_empty());
    }

    #[test]
    fn single_level_shift_found() {
        let mut v = vec![10.0; 100];
        v.extend(vec![50.0; 100]);
        let cps = detect_changepoints(&v, 5.0, 10);
        assert_eq!(cps.len(), 1);
        assert!((95..=105).contains(&cps[0]), "found at {:?}", cps);
    }

    #[test]
    fn two_shifts_found() {
        let mut v = vec![10.0; 80];
        v.extend(vec![40.0; 80]);
        v.extend(vec![5.0; 80]);
        let cps = detect_changepoints(&v, 5.0, 10);
        assert_eq!(cps.len(), 2);
        assert!((75..=85).contains(&cps[0]));
        assert!((155..=165).contains(&cps[1]));
    }

    #[test]
    fn last_regime_start_points_at_newest_segment() {
        let mut v = vec![10.0; 120];
        v.extend(vec![100.0; 60]);
        let start = last_regime_start(&v, 5.0, 10);
        assert!((115..=125).contains(&start), "start={start}");
    }

    #[test]
    fn short_series_is_safe() {
        assert!(detect_changepoints(&[1.0, 2.0], 5.0, 10).is_empty());
        assert_eq!(last_regime_start(&[], 5.0, 10), 0);
    }

    #[test]
    fn noisy_shift_still_detected() {
        // Deterministic pseudo-noise around two levels.
        let v: Vec<f64> = (0..300)
            .map(|i| {
                let base = if i < 150 { 20.0 } else { 60.0 };
                base + ((i * 2654435761usize) % 100) as f64 / 25.0
            })
            .collect();
        let cps = detect_changepoints(&v, 5.0, 20);
        assert!(!cps.is_empty());
        assert!(cps.iter().any(|&c| (130..=170).contains(&c)), "cps={cps:?}");
    }
}
