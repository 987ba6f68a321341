//! The one histogram: integer log-linear buckets over `u64` values.
//!
//! Figure 4a of the paper reports per-tenant P99 latency relative to the SLA,
//! and every latency the serving path exposes is a quantile or a mean of one
//! of these. The layout is HdrHistogram's, fixed: values below 32 have a
//! bucket each, and above that the highest set bit picks the octave and the
//! next four bits one of its 16 sub-buckets, so a bucket is never wider than
//! 1/16 of its lower bound. Values clamp at 2^37 (≈ 137 s in nanoseconds).
//! Indexing and bounds are integer shifts; nothing here takes a logarithm.
//!
//! The values carry no unit. Duration histograms in `abase-obs` record
//! nanoseconds; the simulator records its microsecond `SimTime`s.

/// Buckets in the layout: 32 exact values, then 32 octaves of 16.
pub const BUCKETS: usize = 544;

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;

/// The largest value the layout tells apart; larger ones land with it.
const MAX_VALUE: u64 = (1 << 37) - 1;

/// A histogram over `u64` values with bounded relative error.
///
/// Quantiles report the midpoint of the bucket holding the requested rank,
/// at most 1/33 (3.03 %) from any value in that bucket. The sum is exact, so
/// [`Histogram::mean`] is too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// The bucket `value` lands in (`< BUCKETS`).
    #[inline]
    pub fn index(value: u64) -> usize {
        let v = value.min(MAX_VALUE);
        if v < SUBS {
            return v as usize;
        }
        // Shifted down to its top SUB_BITS + 1 bits, a value of octave `k`
        // (holding [2^k, 2^(k+1))) is SUBS plus its sub-bucket. Octave
        // SUB_BITS needs no shift, so the exact values run on into the
        // log-linear octaves without a seam.
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (u64::from(shift) * SUBS + (v >> shift)) as usize
    }

    /// The smallest value bucket `i` holds; `low(BUCKETS)` is one past the
    /// largest value the layout tells apart.
    fn low(i: usize) -> u64 {
        let i = i as u64;
        if i < SUBS {
            return i;
        }
        (SUBS + i % SUBS) << (i / SUBS - 1)
    }

    /// The largest value bucket `i` holds.
    fn bucket_max(i: usize) -> u64 {
        Self::low(i + 1) - 1
    }

    /// The value a quantile reports for bucket `i`: the harmonic mean of its
    /// smallest and largest values, which is equally far, relatively, from
    /// both ends — `(max - low) / (max + low)`, at most 1/33.
    fn bucket_mid(i: usize) -> f64 {
        let (low, max) = (Self::low(i) as f64, Self::bucket_max(i) as f64);
        if max == 0.0 {
            0.0
        } else {
            2.0 * low * max / (low + max)
        }
    }

    /// A histogram of per-bucket counts (`counts[i]` observations in bucket
    /// `i`) whose values were not kept: the sum is taken from the bucket
    /// midpoints, with the quantiles' error bound.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut h = Self::new();
        let mut sum = 0.0;
        for (i, (cell, &c)) in h.counts.iter_mut().zip(counts).enumerate() {
            *cell = c;
            h.total += c;
            sum += Self::bucket_mid(i) * c as f64;
        }
        h.sum = sum.round() as u64;
        h
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical observations.
    fn record_n(&mut self, value: u64, n: u64) {
        self.counts[Self::index(value)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded observations. 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile `q ∈ [0,1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(Self::bucket_mid(i));
            }
        }
        unreachable!("cumulative count must reach total");
    }

    /// `(largest value, count)` of every occupied bucket, in value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_max(i), c))
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Reset all counts to zero.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 10_000); // 10 µs .. 100 ms uniformly, in ns
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5e7).abs() / 5e7 < 0.031, "p50={p50}");
        assert!((p99 - 9.9e7).abs() / 9.9e7 < 0.031, "p99={p99}");
    }

    #[test]
    fn every_value_is_within_a_thirty_third_of_its_bucket_midpoint() {
        // Every value below 2^13, then every bucket edge above it.
        let edges = (0..BUCKETS).flat_map(|i| [Histogram::low(i), Histogram::bucket_max(i)]);
        for v in (0..1 << 13).chain(edges) {
            let i = Histogram::index(v);
            assert!(
                Histogram::low(i) <= v && v <= Histogram::bucket_max(i),
                "{v}"
            );
            let mid = Histogram::bucket_mid(i);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 33.0 + 1e-9,
                "{v}: {mid}"
            );
        }
        for v in 0..32 {
            assert_eq!(Histogram::bucket_mid(Histogram::index(v)), v as f64);
        }
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_max(BUCKETS - 1), MAX_VALUE);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(301);
        assert_eq!(h.mean(), 200.5);
        assert_eq!(h.sum(), 401);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..7 {
            a.record(555);
        }
        b.record_n(555, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 10_100);
        // p0 should be near 100, p100 near 10_000.
        assert!(a.quantile(0.01).unwrap() < 104.0);
        assert!(a.quantile(1.0).unwrap() > 9_700.0);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1 << 40);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert!(h.quantile(1.0).unwrap() <= MAX_VALUE as f64);
        assert_eq!(h.sum(), (1 << 40), "the sum keeps the value itself");
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h, Histogram::new());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn counts_without_values_sum_at_bucket_midpoints() {
        let mut counts = vec![0; BUCKETS];
        counts[Histogram::index(1)] = 3;
        counts[Histogram::index(1_300)] = 1;
        let h = Histogram::from_counts(&counts);
        assert_eq!(h.count(), 4);
        assert_eq!(
            h.sum(),
            (3.0 + Histogram::bucket_mid(Histogram::index(1_300))).round() as u64
        );
        assert!(h.sum().abs_diff(1_303) <= 1_303 / 33);
        assert_eq!(h.buckets().collect::<Vec<_>>(), [(1, 3), (1_343, 1)]);
    }
}
