//! Hierarchical request restriction (paper §4.2).
//!
//! Traffic is controlled **before** it reaches the shared request queue, at two
//! levels:
//!
//! * **Proxy level** — each of a tenant's `N` proxies gets
//!   `proxy_quota = tenant_quota / N` and may autonomously serve up to **2×**
//!   that rate. The meta server monitors the tenant's aggregate traffic
//!   asynchronously and, when the aggregate exceeds the tenant quota, directs
//!   proxies to *revert to their standard quota* — an asynchronous traffic
//!   control loop that avoids DynamoDB-style synchronous admission calls.
//! * **Partition level** — each partition gets
//!   `partition_quota = tenant_quota / num_partitions`, and a data node rejects
//!   requests that would push a partition beyond **3×** its quota, at the entry
//!   of the request queue. (Hash partitioning spreads keys evenly, so 3× slack
//!   absorbs statistical skew while preventing one partition from eating the
//!   whole tenant quota as DynamoDB permits.)

use crate::bucket::TokenBucket;
use abase_util::clock::SimTime;
use abase_util::stats::WindowedRate;
use std::collections::HashMap;

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaDecision {
    /// The request may proceed.
    Admit,
    /// The request exceeds the quota and must be rejected.
    Reject,
}

/// The boost multiplier proxies may apply autonomously ("up to double").
const PROXY_BOOST_FACTOR: f64 = 2.0;
/// The partition-level slack multiplier ("no single partition surpasses three
/// times its partition_quota").
const PARTITION_SLACK_FACTOR: f64 = 3.0;

/// Per-proxy quota enforcement with autonomous 2× boost.
#[derive(Debug, Clone)]
pub struct ProxyQuota {
    standard_rate: f64,
    boosted: bool,
    bucket: TokenBucket,
}

impl ProxyQuota {
    /// A proxy quota of `standard_rate` RU/s, starting in boosted mode (the
    /// default until the meta server claws the boost back).
    pub fn new(standard_rate: f64, now: SimTime) -> Self {
        let boosted = true;
        let mut q = Self {
            standard_rate,
            boosted,
            // One second of burst at the boosted rate.
            bucket: TokenBucket::new(0.0, (standard_rate * PROXY_BOOST_FACTOR).max(1.0), now),
        };
        q.apply_rate(now);
        q
    }

    fn apply_rate(&mut self, now: SimTime) {
        let rate = if self.boosted {
            self.standard_rate * PROXY_BOOST_FACTOR
        } else {
            self.standard_rate
        };
        self.bucket.set_rate(rate, now);
        self.bucket.set_burst(rate.max(1.0), now);
    }

    /// Re-assign the standard rate (tenant quota changed or proxy fleet
    /// resized); preserves the current boost state.
    pub fn set_standard_rate(&mut self, rate: f64, now: SimTime) {
        self.standard_rate = rate;
        self.apply_rate(now);
    }

    /// Meta-server directive: enable or revoke the autonomous boost.
    pub fn set_boost(&mut self, boosted: bool, now: SimTime) {
        if self.boosted != boosted {
            self.boosted = boosted;
            self.apply_rate(now);
        }
    }

    /// Try to admit a request of `ru` request units at time `now`.
    pub fn admit(&mut self, now: SimTime, ru: f64) -> QuotaDecision {
        if self.bucket.try_consume(now, ru) {
            QuotaDecision::Admit
        } else {
            QuotaDecision::Reject
        }
    }

    /// Post-hoc charge adjustment: debit the difference between the actual
    /// charge and the estimate that was admitted (may create a deficit).
    pub fn settle(&mut self, now: SimTime, delta_ru: f64) {
        if delta_ru > 0.0 {
            self.bucket.consume_saturating(now, delta_ru);
        }
    }
}

/// Per-partition quota enforcement with the 3× slack cap.
#[derive(Debug, Clone)]
pub struct PartitionQuota {
    partition_quota: f64,
    bucket: TokenBucket,
    /// When false, admission always succeeds (Figure 7's "partition quota
    /// disabled" phase).
    enabled: bool,
}

impl PartitionQuota {
    /// A partition quota of `partition_quota` RU/s (enforced at 3×).
    pub fn new(partition_quota: f64, now: SimTime) -> Self {
        let cap = partition_quota * PARTITION_SLACK_FACTOR;
        Self {
            partition_quota,
            bucket: TokenBucket::new(cap, cap.max(1.0), now),
            enabled: true,
        }
    }

    /// The partition's share of the tenant quota (RU/s, before the 3× slack).
    pub fn partition_quota(&self) -> f64 {
        self.partition_quota
    }

    /// Enable/disable enforcement (ablation experiments).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether enforcement is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Try to admit a request of `ru` request units at time `now`.
    pub fn admit(&mut self, now: SimTime, ru: f64) -> QuotaDecision {
        if !self.enabled {
            // Keep the bucket draining so re-enabling is seamless.
            self.bucket.try_consume(now, ru);
            return QuotaDecision::Admit;
        }
        if self.bucket.try_consume(now, ru) {
            QuotaDecision::Admit
        } else {
            QuotaDecision::Reject
        }
    }
}

/// Meta-server side monitor implementing the asynchronous clawback loop:
/// aggregate per-tenant traffic is observed over a sliding window; while the
/// aggregate exceeds the tenant quota, proxies are directed to revert to their
/// standard quota (boost revoked); once it falls back below, boost is restored.
#[derive(Debug)]
pub struct TenantQuotaMonitor {
    window: SimTime,
    /// Tenant quota in RU/s.
    quotas: HashMap<u32, f64>,
    rates: HashMap<u32, WindowedRate>,
}

impl TenantQuotaMonitor {
    /// A monitor observing traffic over the given sliding window.
    pub fn new(window: SimTime) -> Self {
        Self {
            window,
            quotas: HashMap::new(),
            rates: HashMap::new(),
        }
    }

    /// Register (or update) a tenant's total quota in RU/s.
    pub fn set_tenant_quota(&mut self, tenant: u32, quota_ru_per_sec: f64) {
        self.quotas.insert(tenant, quota_ru_per_sec);
    }

    /// The registered quota for `tenant`, if any.
    pub fn tenant_quota(&self, tenant: u32) -> Option<f64> {
        self.quotas.get(&tenant).copied()
    }

    /// Record `ru` units of admitted traffic for `tenant` at `now` (reported
    /// asynchronously by proxies).
    pub fn record_traffic(&mut self, tenant: u32, now: SimTime, ru: f64) {
        let window = self.window;
        self.rates
            .entry(tenant)
            .or_insert_with(|| WindowedRate::new(window))
            .record(now, ru);
    }

    /// Observed aggregate RU/s for `tenant` over the trailing window.
    fn observed_rate(&mut self, tenant: u32, now: SimTime) -> f64 {
        self.rates
            .get_mut(&tenant)
            .map(|r| r.rate_per_sec(now))
            .unwrap_or(0.0)
    }

    /// The directive the meta server issues to the tenant's proxies: `true`
    /// means the 2× boost may stay on, `false` means revert to standard quota.
    pub fn boost_allowed(&mut self, tenant: u32, now: SimTime) -> bool {
        let quota = self.quotas.get(&tenant).copied().unwrap_or(f64::INFINITY);
        self.observed_rate(tenant, now) <= quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::clock::{ms, secs};

    #[test]
    fn proxy_allows_double_when_boosted() {
        let mut p = ProxyQuota::new(100.0, 0);
        // Drain the initial burst, then measure steady-state over one second.
        p.admit(0, 200.0);
        let mut admitted = 0.0f64;
        for t in 1..=100 {
            if p.admit(secs(1) / 100 * t, 2.0) == QuotaDecision::Admit {
                admitted += 2.0;
            }
        }
        assert!((admitted - 200.0).abs() <= 4.0, "admitted {admitted}");
    }

    #[test]
    fn proxy_reverts_to_standard_on_clawback() {
        let mut p = ProxyQuota::new(100.0, 0);
        p.set_boost(false, 0);
        while p.admit(0, 1.0) == QuotaDecision::Admit {} // drain the burst
        let mut admitted = 0.0f64;
        for t in 1..=100 {
            if p.admit(secs(1) / 100 * t, 2.0) == QuotaDecision::Admit {
                admitted += 2.0;
            }
        }
        assert!((admitted - 100.0).abs() <= 4.0, "admitted {admitted}");
    }

    #[test]
    fn partition_caps_at_three_times_quota() {
        let mut q = PartitionQuota::new(1000.0, 0);
        // Burst bucket starts full at 3×quota.
        assert_eq!(q.admit(0, 3000.0), QuotaDecision::Admit);
        assert_eq!(q.admit(0, 1.0), QuotaDecision::Reject);
        // Steady state: ~3000 RU/s admitted.
        let mut admitted = 0.0f64;
        for t in 1..=1000 {
            if q.admit(ms(t), 3.5) == QuotaDecision::Admit {
                admitted += 3.5;
            }
        }
        assert!((admitted - 3000.0).abs() < 50.0, "admitted {admitted}");
    }

    #[test]
    fn disabled_partition_quota_admits_everything() {
        let mut q = PartitionQuota::new(10.0, 0);
        q.set_enabled(false);
        for t in 0..100 {
            assert_eq!(q.admit(ms(t), 1000.0), QuotaDecision::Admit);
        }
    }

    #[test]
    fn monitor_revokes_boost_above_quota() {
        let mut m = TenantQuotaMonitor::new(secs(1));
        m.set_tenant_quota(7, 500.0);
        // 300 RU/s: within quota.
        for t in 0..10 {
            m.record_traffic(7, ms(t * 100), 30.0);
        }
        assert!(m.boost_allowed(7, secs(1)));
        // Burst to 2000 RU/s: boost revoked.
        for t in 0..10 {
            m.record_traffic(7, secs(1) + ms(t * 100), 200.0);
        }
        assert!(!m.boost_allowed(7, secs(2)));
        // Traffic stops; after the window empties, boost returns.
        assert!(m.boost_allowed(7, secs(4)));
    }

    #[test]
    fn monitor_unknown_tenant_defaults_to_allowed() {
        let mut m = TenantQuotaMonitor::new(secs(1));
        assert!(m.boost_allowed(99, 0));
    }

    #[test]
    fn settle_deficit_throttles_next_requests() {
        let mut p = ProxyQuota::new(10.0, 0);
        p.set_boost(false, 0);
        p.admit(0, 10.0);
        // The read turned out 10× larger than estimated.
        p.settle(0, 90.0);
        assert_eq!(p.admit(secs(1), 1.0), QuotaDecision::Reject);
        // Deficit (~90) pays back at 10 RU/s.
        assert_eq!(p.admit(secs(11), 1.0), QuotaDecision::Admit);
    }
}
