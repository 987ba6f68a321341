//! Fixed-interval time series.
//!
//! The control plane consumes 30 days of resource metrics downsampled to 1-hour
//! intervals (§5.2); [`TimeSeries`] holds such a series and resamples it.

/// A time series sampled at a fixed interval.
///
/// `values[i]` is the sample for `[start + i*interval, start + (i+1)*interval)`,
/// with times in virtual microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: u64,
    interval: u64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Build a series from raw parts.
    ///
    /// # Panics
    /// Panics if `interval == 0`.
    pub fn new(start: u64, interval: u64, values: Vec<f64>) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            start,
            interval,
            values,
        }
    }

    /// An empty series starting at `start` with the given sampling interval.
    pub fn empty(start: u64, interval: u64) -> Self {
        Self::new(start, interval, Vec::new())
    }

    /// First sample timestamp.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Sampling interval in microseconds.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable sample values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append one sample (timestamp implied by position).
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Timestamp of sample `i`.
    fn time_at(&self, i: usize) -> u64 {
        self.start + i as u64 * self.interval
    }

    /// Timestamp one past the final sample.
    pub fn end(&self) -> u64 {
        self.time_at(self.values.len())
    }

    /// Maximum sample value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Minimum sample value; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Mean of the samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Resample to a coarser interval by aggregating whole groups.
    ///
    /// `factor` source samples are combined into one output sample using `agg`
    /// (e.g. mean for downsampling usage metrics, max for peak-preserving
    /// downsampling). A trailing partial group is aggregated as-is.
    ///
    /// # Panics
    /// Panics if `factor == 0`.
    // LINT: allow(A008): tests/property_based.rs
    pub fn resample(&self, factor: usize, agg: Aggregation) -> TimeSeries {
        assert!(factor > 0, "resample factor must be positive");
        let mut out = Vec::with_capacity(self.values.len().div_ceil(factor));
        for chunk in self.values.chunks(factor) {
            out.push(agg.apply(chunk));
        }
        TimeSeries::new(self.start, self.interval * factor as u64, out)
    }

    /// Split at sample index `i`: `(self[..i], self[i..])`.
    pub fn split_at(&self, i: usize) -> (TimeSeries, TimeSeries) {
        let i = i.min(self.values.len());
        (
            TimeSeries::new(self.start, self.interval, self.values[..i].to_vec()),
            TimeSeries::new(self.time_at(i), self.interval, self.values[i..].to_vec()),
        )
    }
}

/// How to combine a group of samples during [`TimeSeries::resample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Arithmetic mean of the group.
    // LINT: allow(A009): tests/property_based.rs
    Mean,
    /// Maximum of the group.
    // LINT: allow(A009): tests/property_based.rs
    Max,
}

impl Aggregation {
    fn apply(self, xs: &[f64]) -> f64 {
        match self {
            Aggregation::Mean => xs.iter().sum::<f64>() / xs.len() as f64,
            Aggregation::Max => xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = TimeSeries::new(100, 10, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.time_at(0), 100);
        assert_eq!(s.time_at(2), 120);
        assert_eq!(s.end(), 130);
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.min(), Some(1.0));
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn resample_mean_and_max() {
        let s = TimeSeries::new(0, 1, vec![1.0, 3.0, 2.0, 8.0, 5.0]);
        let m = s.resample(2, Aggregation::Mean);
        assert_eq!(m.values(), &[2.0, 5.0, 5.0]);
        assert_eq!(m.interval(), 2);
        let x = s.resample(2, Aggregation::Max);
        assert_eq!(x.values(), &[3.0, 8.0, 5.0]);
    }

    #[test]
    fn split_at_preserves_timestamps() {
        let s = TimeSeries::new(0, 5, vec![1.0, 2.0, 3.0, 4.0]);
        let (head, tail) = s.split_at(3);
        assert_eq!(head.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(tail.start(), 15);
        assert_eq!(tail.values(), &[4.0]);
    }
}
