//! Deterministic samplers implemented on top of `rand`'s core RNG.

use rand::Rng;

/// Zipf-distributed ranks over `{0, …, n−1}` with exponent `s`.
///
/// Uses an inverse-CDF table (O(n) build, O(log n) sample) — exact, fast for
/// the keyspace sizes the cache experiments use, and free of the rejection
/// loops that make sampling time data-dependent.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `n` items with skew `s ≥ 0` (`s = 0` is
    /// uniform; `s ≈ 1` is the classic web-cache skew).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Sample a rank in `{0, …, n−1}` (0 = most popular).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `i`.
    #[cfg(test)]
    fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Log-normal sampler via Box-Muller.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Std-dev of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// From the underlying normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        Self { mu, sigma }
    }

    /// Parametrize by target median and the ratio `p90 / median` (a natural way
    /// to express the paper's long-tailed size distributions).
    pub fn from_median_p90(median: f64, p90_over_median: f64) -> Self {
        assert!(median > 0.0 && p90_over_median >= 1.0);
        // For log-normal: p90/median = exp(1.2816 σ).
        let sigma = p90_over_median.ln() / 1.2816;
        Self {
            mu: median.ln(),
            sigma,
        }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw (Box-Muller; uses two uniforms per call —
/// simplicity over caching the second deviate).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
        // Rank-0 share for s=1, n=1000 is 1/H_1000 ≈ 13.4 %.
        let share = counts[0] as f64 / 100_000.0;
        assert!((share - 0.134).abs() < 0.02, "share={share}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_deterministic_under_seed() {
        let z = Zipf::new(50, 0.9);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::from_median_p90(120.0, 50_000.0 / 120.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let p90 = samples[(samples.len() as f64 * 0.9) as usize];
        assert!((median / 120.0 - 1.0).abs() < 0.1, "median={median}");
        assert!((p90 / 50_000.0 - 1.0).abs() < 0.25, "p90={p90}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
