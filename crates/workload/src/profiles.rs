//! The seven Table-1 workload profiles.
//!
//! "Diverse application scenarios and workload characteristics of ABase in
//! ByteDance business" — these constants are the paper's Table 1 verbatim and
//! parameterize the diversity experiments (Table 1 regeneration, Figure 3
//! anchoring, DataNode co-location studies).

use abase_util::clock::{days, hours, SimTime};

/// One business workload row from Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Business line (e.g. "Social Media (Douyin)").
    pub business_line: &'static str,
    /// Workload description (e.g. "Comment").
    pub workload: &'static str,
    /// Normalized throughput (paper's empirical standard unit).
    pub norm_throughput: f64,
    /// Normalized storage.
    pub norm_storage: f64,
    /// Cache hit ratio in `[0, 1]`.
    pub cache_hit_ratio: f64,
    /// Read ratio in `[0, 1]`.
    pub read_ratio: f64,
    /// Mean key-value size in bytes.
    pub mean_kv_bytes: usize,
    /// Common TTL, when the business sets one.
    pub common_ttl: Option<SimTime>,
}

impl WorkloadProfile {
    /// Throughput-to-storage ratio; ≫1 is CPU-hungry, ≪1 disk-hungry.
    pub fn throughput_storage_ratio(&self) -> f64 {
        self.norm_throughput / self.norm_storage
    }
}

/// Table 1, row by row.
pub const TABLE1_PROFILES: &[WorkloadProfile] = &[
    WorkloadProfile {
        business_line: "Social Media (Douyin)",
        workload: "Comment",
        norm_throughput: 250.0,
        norm_storage: 125.0,
        cache_hit_ratio: 0.54,
        read_ratio: 1.00,
        mean_kv_bytes: 102, // 0.1 KB
        common_ttl: None,
    },
    WorkloadProfile {
        business_line: "Social Media (Douyin)",
        workload: "Direct message",
        norm_throughput: 25.0,
        norm_storage: 678.0,
        cache_hit_ratio: 0.74,
        read_ratio: 1.00,
        mean_kv_bytes: 1024,
        common_ttl: None,
    },
    WorkloadProfile {
        business_line: "E-Commerce",
        workload: "Metadata tags",
        norm_throughput: 575.0,
        norm_storage: 42.0,
        cache_hit_ratio: 0.92,
        read_ratio: 1.00,
        mean_kv_bytes: 1024,
        common_ttl: None,
    },
    WorkloadProfile {
        business_line: "Search",
        workload: "Forward sorted data",
        norm_throughput: 1500.0,
        norm_storage: 63.0,
        cache_hit_ratio: 0.99,
        read_ratio: 1.00,
        mean_kv_bytes: 1024,
        common_ttl: None,
    },
    WorkloadProfile {
        business_line: "Advertisement",
        workload: "For message joiner",
        norm_throughput: 2750.0,
        norm_storage: 938.0,
        cache_hit_ratio: 0.18,
        read_ratio: 0.25,
        mean_kv_bytes: 10 << 10,
        common_ttl: Some(hours(3)),
    },
    WorkloadProfile {
        business_line: "Recommendation",
        workload: "For deduplication",
        norm_throughput: 5325.0,
        norm_storage: 625.0,
        cache_hit_ratio: 0.76,
        read_ratio: 0.50,
        mean_kv_bytes: 2 << 10,
        common_ttl: Some(days(15)),
    },
    WorkloadProfile {
        business_line: "Large Language Model",
        workload: "Remote K-V Cache",
        norm_throughput: 10_000.0,
        norm_storage: 5_760.0,
        cache_hit_ratio: 0.00, // bypasses caching, reads from underlying logs
        read_ratio: 0.85,
        mean_kv_bytes: 5 << 20,
        common_ttl: Some(days(1)),
    },
];

/// Look up a profile by its workload name.
#[cfg(test)]
fn profile_by_workload(name: &str) -> Option<&'static WorkloadProfile> {
    TABLE1_PROFILES.iter().find(|p| p.workload == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_profiles_exist() {
        assert_eq!(TABLE1_PROFILES.len(), 7);
    }

    #[test]
    fn ratios_match_paper_narrative() {
        // Comments vs DMs: 250:125 vs 25:678 (within-business diversity).
        let comment = profile_by_workload("Comment").unwrap();
        let dm = profile_by_workload("Direct message").unwrap();
        assert!(comment.throughput_storage_ratio() > 1.0);
        assert!(dm.throughput_storage_ratio() < 0.1);
        // E-commerce and search prefer throughput with hit ratios > 90%.
        for name in ["Metadata tags", "Forward sorted data"] {
            let p = profile_by_workload(name).unwrap();
            assert!(p.throughput_storage_ratio() > 10.0);
            assert!(p.cache_hit_ratio >= 0.90);
        }
    }

    #[test]
    fn advertisement_is_write_heavy_low_hit() {
        let ad = profile_by_workload("For message joiner").unwrap();
        assert!(ad.read_ratio <= 0.5);
        assert!(ad.cache_hit_ratio < 0.2);
        assert_eq!(ad.common_ttl, Some(hours(3)));
    }

    #[test]
    fn llm_bypasses_cache_with_huge_values() {
        let llm = profile_by_workload("Remote K-V Cache").unwrap();
        assert_eq!(llm.cache_hit_ratio, 0.0);
        assert_eq!(llm.mean_kv_bytes, 5 << 20);
        assert!(llm.norm_throughput >= 10_000.0);
    }

    #[test]
    fn lookup_unknown_is_none() {
        assert!(profile_by_workload("nope").is_none());
    }
}
