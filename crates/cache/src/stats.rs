//! Cache hit/miss accounting.

/// Counters shared by every cache policy in this crate.
///
/// `hit_ratio()` is the quantity the paper's RU formula consumes as `E[R_hit]`
/// (§4.1) and the quantity plotted throughout Figures 4–5 and Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries inserted (including overwrites).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
}

impl CacheStats {
    /// Total lookups observed.
    // LINT: allow(A008): examples/hotkey_cache.rs
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 when no lookups have happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.expired += other.expired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_empty() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_computes() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            expired: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.hits, 2);
        assert_eq!(a.expired, 10);
    }
}
