//! Normalized Request Units (paper §4.1).
//!
//! RUs quantify "a request's consumption of CPU, memory, and disk I/O" and are
//! both the billing unit and the isolation currency. The cache-aware twist is
//! that a read expected to hit cache is much cheaper than one expected to miss:
//!
//! ```text
//! RU_write = r · S_write / U                      (r replicas, U = 2 KB)
//! RU_read  = E[S_read] · (1 − E[R_hit]) / U       (moving averages, last k)
//! ```
//!
//! Estimated RU is used for *traffic control* (admission); the *charge* is
//! based on the actual size returned and the actual cache outcome. Requests
//! that hit the **proxy** cache are returned without throttling or charges.

use abase_util::stats::MovingAverage;

/// The unit byte size `U`, "empirically set to 2KB".
pub const UNIT_BYTES: usize = 2048;
/// Window length `k` of the moving-average estimators.
const WINDOW: usize = 128;
/// Minimum RU charged for any request that reaches a data node — the pure
/// CPU/dispatch cost that even a cache hit consumes. (The paper folds this
/// into "consume only CPU and memory resources"; we make it explicit so a
/// 100 %-hit tenant still registers non-zero load.)
const MIN_RU: f64 = 0.05;
/// Fraction of the byte cost charged when the data-node cache serves the
/// read (memory bandwidth instead of disk I/O).
const NODE_HIT_COST_FACTOR: f64 = 0.3;

/// Where a read was ultimately served from — determines its real resource cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Served by the proxy cache: never reached the data node. No charge.
    ProxyCacheHit,
    /// Served by the data-node cache: CPU + memory only, no disk I/O.
    NodeCacheHit,
    /// Served from the storage engine: CPU + memory + disk I/O.
    Miss,
}

/// RU for a write of `size` bytes replicated `replicas` times: one direct
/// write plus `r − 1` synchronizations, each costing `S/U` — a total of
/// `r · S/U`. A write's estimate and its charge are the same.
pub fn write_ru(size: usize, replicas: u32) -> f64 {
    (size as f64 / UNIT_BYTES as f64).max(MIN_RU) * replicas as f64
}

/// *Actual* RU charged once a read completes, based on the real size
/// returned and the real cache outcome.
pub fn charge_read(actual_size: usize, outcome: ReadOutcome) -> f64 {
    let byte_cost = actual_size as f64 / UNIT_BYTES as f64;
    match outcome {
        ReadOutcome::ProxyCacheHit => 0.0,
        ReadOutcome::NodeCacheHit => (byte_cost * NODE_HIT_COST_FACTOR).max(MIN_RU),
        ReadOutcome::Miss => byte_cost.max(MIN_RU),
    }
}

/// Per-tenant (or per-table) RU estimator: the moving averages a read's
/// estimate is priced from. Before any sample it assumes 2 KB reads that
/// all miss.
#[derive(Debug, Clone)]
pub struct RuEstimator {
    /// `E[S_read]`: moving average of returned read sizes.
    read_size: MovingAverage,
    /// `E[R_hit]`: moving average of cache-hit indicators (post-proxy).
    hit_ratio: MovingAverage,
    /// Historical hash-table field count, for `HLen`/`HGetAll` estimation.
    hash_len: MovingAverage,
    /// Historical per-field byte size for hash scans.
    hash_field_size: MovingAverage,
}

impl RuEstimator {
    /// *Estimated* RU of an upcoming read, used for admission control:
    /// `E[S_read] · (1 − E[R_hit]) / U`, floored at the CPU cost.
    pub fn estimate_read_ru(&self) -> f64 {
        let s = self.read_size.mean();
        let h = self.hit_ratio.mean().clamp(0.0, 1.0);
        (s * (1.0 - h) / UNIT_BYTES as f64).max(MIN_RU)
    }

    /// Record a completed read so the moving averages track the workload.
    /// Proxy-cache hits never reach the estimator (they bypass the node).
    pub fn record_read(&mut self, actual_size: usize, outcome: ReadOutcome) {
        debug_assert!(
            outcome != ReadOutcome::ProxyCacheHit,
            "proxy hits bypass the data node and its estimator"
        );
        self.read_size.record(actual_size as f64);
        self.hit_ratio
            .record(if outcome == ReadOutcome::NodeCacheHit {
                1.0
            } else {
                0.0
            });
    }

    /// Record an observed hash table (field count and mean field size), the
    /// "historical data on the length of the HashSet".
    pub fn record_hash_shape(&mut self, fields: usize, mean_field_bytes: usize) {
        self.hash_len.record(fields as f64);
        self.hash_field_size.record(mean_field_bytes as f64);
    }

    /// Estimated RU for `HLen`: a metadata lookup whose cost scales with the
    /// (historically estimated) table length only logarithmically; dominated
    /// by the dispatch cost for all but enormous tables.
    pub fn estimate_hlen_ru(&self) -> f64 {
        let len = self.hash_len.mean().max(1.0);
        (MIN_RU * len.log2().max(1.0)).max(MIN_RU)
    }

    /// Estimated RU for `HGetAll`, decomposed as `HLen` followed by a scan of
    /// the estimated `len · field_size` bytes (§4.1), discounted by the
    /// expected hit ratio.
    pub fn estimate_hgetall_ru(&self) -> f64 {
        let scan_bytes = self.hash_len.mean() * self.hash_field_size.mean();
        let h = self.hit_ratio.mean().clamp(0.0, 1.0);
        self.estimate_hlen_ru() + (scan_bytes * (1.0 - h) / UNIT_BYTES as f64).max(0.0)
    }
}

impl Default for RuEstimator {
    fn default() -> Self {
        Self {
            read_size: MovingAverage::new(WINDOW, UNIT_BYTES as f64),
            hit_ratio: MovingAverage::new(WINDOW, 0.0),
            hash_len: MovingAverage::new(WINDOW, 8.0),
            hash_field_size: MovingAverage::new(WINDOW, 64.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_ru_scales_with_size_and_replicas() {
        // 2 KB write, 3 replicas → 3 RU.
        assert!((write_ru(2048, 3) - 3.0).abs() < 1e-12);
        // 1 KB write, 1 replica → 0.5 RU.
        assert!((write_ru(1024, 1) - 0.5).abs() < 1e-12);
        // Tiny writes floor at min_ru per replica.
        assert!((write_ru(1, 2) - 2.0 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn read_estimate_tracks_hit_ratio() {
        let mut e = RuEstimator::default();
        // 4 KB reads, all missing: estimate → 2 RU.
        for _ in 0..50 {
            e.record_read(4096, ReadOutcome::Miss);
        }
        assert!((e.estimate_read_ru() - 2.0).abs() < 0.01);
        // Now the same reads always hit the node cache: estimate decays
        // toward the floor as E[R_hit] → 1.
        for _ in 0..200 {
            e.record_read(4096, ReadOutcome::NodeCacheHit);
        }
        assert!(e.estimate_read_ru() < 0.1, "got {}", e.estimate_read_ru());
    }

    #[test]
    fn charges_differ_by_outcome() {
        let miss = charge_read(4096, ReadOutcome::Miss);
        let hit = charge_read(4096, ReadOutcome::NodeCacheHit);
        let proxy = charge_read(4096, ReadOutcome::ProxyCacheHit);
        assert!((miss - 2.0).abs() < 1e-12);
        assert!((hit - 0.6).abs() < 1e-12); // 0.3 × 2 RU
        assert_eq!(proxy, 0.0);
        assert!(hit < miss);
    }

    #[test]
    fn cold_estimator_uses_priors() {
        let e = RuEstimator::default();
        // Prior: 2 KB reads, 0 % hit → 1 RU.
        assert!((e.estimate_read_ru() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hgetall_decomposes_into_hlen_plus_scan() {
        let mut e = RuEstimator::default();
        for _ in 0..20 {
            e.record_hash_shape(100, 200); // 100 fields × 200 B = 20 000 B scans
        }
        let hlen = e.estimate_hlen_ru();
        let hgetall = e.estimate_hgetall_ru();
        assert!(hgetall > hlen, "scan must add cost");
        // Scan bytes 20 000 / 2048 ≈ 9.77 RU at 0 % hit.
        assert!((hgetall - hlen - 9.765625).abs() < 0.01);
    }

    #[test]
    fn hgetall_scan_discounted_by_hit_ratio() {
        let mut e = RuEstimator::default();
        for _ in 0..20 {
            e.record_hash_shape(100, 200);
            e.record_read(2048, ReadOutcome::NodeCacheHit);
        }
        let discounted = e.estimate_hgetall_ru();
        assert!(
            discounted < 1.0,
            "fully-hitting scan should be nearly free, got {discounted}"
        );
    }

    #[test]
    fn hlen_grows_slowly_with_table_size() {
        let mut small = RuEstimator::default();
        let mut big = RuEstimator::default();
        for _ in 0..20 {
            small.record_hash_shape(4, 64);
            big.record_hash_shape(1 << 20, 64);
        }
        assert!(big.estimate_hlen_ru() > small.estimate_hlen_ru());
        assert!(big.estimate_hlen_ru() < 2.0, "HLen is metadata-cheap");
    }
}
