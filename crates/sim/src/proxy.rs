//! The tenant proxy plane (paper §4.2, §4.4).
//!
//! Each tenant owns a fleet of `N` proxies organized into `n` **proxy
//! groups**. A request is hashed to a group by its key ("a custom hashing
//! function") and then sent to a random proxy inside the group — the *limited
//! fan-out hash* strategy. Each proxy receives `1/n` of the keyspace, so a
//! larger `n` concentrates each key on fewer proxies (higher per-proxy hit
//! ratio), while a smaller `n` spreads a hot key across `N/n` proxies (lower
//! per-proxy pressure).
//!
//! Proxies also enforce the **proxy quota** (standard rate = tenant quota / N,
//! autonomously boosted 2×, clawed back by the meta server) and carry the
//! **AU-LRU** cache whose hits are "directly returned without throttling or
//! charges".
//!
//! The whole tier is simulated: `abase-server` has no proxy, so neither the
//! AU-LRU cache nor the proxy quota has a shipped counterpart. Figure 6 and
//! Table 2, which measure them, say so in their output.

use abase_cache::aulru::AuLruConfig;
use abase_cache::{AuLruCache, CacheStats};
use abase_core::types::{ConsistencyLevel, TenantId};
use abase_quota::ru::{write_ru, ReadOutcome};
use abase_quota::{ProxyQuota, QuotaDecision, RuEstimator};
use abase_util::clock::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one tenant's proxy plane.
#[derive(Debug, Clone)]
pub struct ProxyPlaneConfig {
    /// Total proxies `N`.
    pub n_proxies: u32,
    /// Proxy groups `n` (limited fan-out parameter); divides `N` ideally.
    pub n_groups: u32,
    /// Tenant quota in RU/s (divided across proxies).
    pub tenant_quota_ru: f64,
    /// AU-LRU settings per proxy.
    pub cache: AuLruConfig,
    /// Whether the proxy cache is active (Table 2 toggles this).
    pub cache_enabled: bool,
    /// Whether proxy quota enforcement is active (Figure 6 toggles this).
    pub quota_enabled: bool,
}

impl Default for ProxyPlaneConfig {
    fn default() -> Self {
        Self {
            n_proxies: 8,
            n_groups: 4,
            tenant_quota_ru: 10_000.0,
            cache: AuLruConfig::default(),
            cache_enabled: true,
            quota_enabled: true,
        }
    }
}

/// What the proxy plane decided about a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyDecision {
    /// The proxy cache answered; nothing reaches the data node and no quota
    /// is consumed.
    CacheHit {
        /// Which proxy served it.
        proxy: u32,
    },
    /// Forward to the data node via this proxy.
    Forward {
        /// Which proxy forwards it.
        proxy: u32,
    },
    /// Rejected by the proxy quota.
    Rejected {
        /// Which proxy rejected it.
        proxy: u32,
    },
}

#[derive(Debug)]
struct ProxySim {
    quota: ProxyQuota,
    cache: AuLruCache<u64, usize>,
    /// Reads this proxy answered from its own cache.
    reads_local: u64,
    /// Reads this proxy forwarded to the data plane (for the replica group
    /// to place on a replica). Kept separate from `reads_local` so hit attribution
    /// stays correct now that forwarded reads may be served by followers.
    reads_forwarded: u64,
    /// Reads the proxy quota rejected — still pressure on this proxy, so
    /// they count toward the hot-key distribution but toward neither
    /// serving-side counter.
    reads_rejected: u64,
}

/// One proxy's read-serving split: answered locally vs forwarded downstream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyReadSplit {
    /// Reads served from the proxy's own cache.
    pub local: u64,
    /// Reads forwarded to the data plane.
    pub forwarded: u64,
}

/// One tenant's proxy fleet.
#[derive(Debug)]
pub struct ProxyPlane {
    /// Owning tenant.
    pub tenant: TenantId,
    config: ProxyPlaneConfig,
    proxies: Vec<ProxySim>,
    /// Proxy-side RU estimator (drives admission pricing).
    estimator: RuEstimator,
    rng: StdRng,
    group_size: u32,
}

impl ProxyPlane {
    /// Build the plane for `tenant` at virtual time `now`.
    pub fn new(tenant: TenantId, config: ProxyPlaneConfig, now: SimTime, seed: u64) -> Self {
        assert!(config.n_proxies >= 1);
        assert!(config.n_groups >= 1 && config.n_groups <= config.n_proxies);
        let per_proxy = config.tenant_quota_ru / config.n_proxies as f64;
        let proxies = (0..config.n_proxies)
            .map(|_| ProxySim {
                quota: ProxyQuota::new(per_proxy, now),
                cache: AuLruCache::new(config.cache),
                reads_local: 0,
                reads_forwarded: 0,
                reads_rejected: 0,
            })
            .collect();
        let group_size = config.n_proxies / config.n_groups;
        Self {
            tenant,
            config,
            proxies,
            estimator: RuEstimator::default(),
            rng: StdRng::seed_from_u64(seed),
            group_size: group_size.max(1),
        }
    }

    /// The plane configuration.
    pub fn config(&self) -> &ProxyPlaneConfig {
        &self.config
    }

    /// Toggle quota enforcement (Figure 6's minute-35 switch).
    pub fn set_quota_enabled(&mut self, enabled: bool) {
        self.config.quota_enabled = enabled;
    }

    /// Toggle the proxy cache (Table 2's before/after).
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.config.cache_enabled = enabled;
    }

    /// Meta-server directive toward every proxy (boost on/off).
    pub fn set_boost(&mut self, allowed: bool, now: SimTime) {
        for p in &mut self.proxies {
            p.quota.set_boost(allowed, now);
        }
    }

    /// Update the tenant quota (autoscaling path).
    pub fn set_tenant_quota(&mut self, quota_ru: f64, now: SimTime) {
        self.config.tenant_quota_ru = quota_ru;
        let per_proxy = quota_ru / self.config.n_proxies as f64;
        for p in &mut self.proxies {
            p.quota.set_standard_rate(per_proxy, now);
        }
    }

    /// The plane's current RU estimate for one request (admission pricing).
    pub fn estimate_ru(&self, is_write: bool) -> f64 {
        if is_write {
            write_ru(1024, 3)
        } else {
            self.estimator.estimate_read_ru()
        }
    }

    /// Limited fan-out hash routing: key → group → random member.
    pub fn route(&mut self, key: u64) -> u32 {
        let group = (mix64(key) % u64::from(self.config.n_groups)) as u32;
        let member = self.rng.gen_range(0..self.group_size);
        (group * self.group_size + member).min(self.config.n_proxies - 1)
    }

    /// Process a request at `now`. Reads may be served by the proxy cache;
    /// everything else is admission-checked against the proxy quota. Reads
    /// run at [`ConsistencyLevel::Eventual`] — the historical behavior; use
    /// [`ProxyPlane::submit_read`] to carry a stronger level.
    pub fn submit(&mut self, key: u64, is_write: bool, now: SimTime) -> ProxyDecision {
        self.submit_with(key, is_write, ConsistencyLevel::Eventual, now)
    }

    /// Submit a read at an explicit consistency level.
    pub fn submit_read(
        &mut self,
        key: u64,
        consistency: ConsistencyLevel,
        now: SimTime,
    ) -> ProxyDecision {
        self.submit_with(key, false, consistency, now)
    }

    /// Process a request carrying a consistency level. The proxy cache may
    /// only answer `Eventual` reads: it has no LSN to prove a fence, so
    /// `ReadYourWrites` and `Leader` reads always forward to the data plane
    /// (where the replica group picks a fenced replica or the leader).
    pub fn submit_with(
        &mut self,
        key: u64,
        is_write: bool,
        consistency: ConsistencyLevel,
        now: SimTime,
    ) -> ProxyDecision {
        let proxy = self.route(key);
        let est = self.estimate_ru(is_write);
        let p = &mut self.proxies[proxy as usize];
        let cacheable = !is_write && consistency == ConsistencyLevel::Eventual;
        if cacheable && self.config.cache_enabled && p.cache.get(&key, now).is_some() {
            p.reads_local += 1;
            crate::metrics::PROXY_CACHE_HITS.inc();
            return ProxyDecision::CacheHit { proxy };
        }
        if is_write && self.config.cache_enabled {
            // A write invalidates the routed proxy's cached copy.
            p.cache.invalidate(&key);
        }
        if self.config.quota_enabled && p.quota.admit(now, est) == QuotaDecision::Reject {
            if !is_write {
                p.reads_rejected += 1;
            }
            return ProxyDecision::Rejected { proxy };
        }
        if !is_write {
            p.reads_forwarded += 1;
            crate::metrics::PROXY_FORWARDS.inc();
        }
        ProxyDecision::Forward { proxy }
    }

    /// Record a completed read so the routed proxy caches it and the
    /// estimator tracks sizes/hits.
    pub fn on_read_complete(
        &mut self,
        proxy: u32,
        key: u64,
        value_bytes: usize,
        node_cache_hit: bool,
        now: SimTime,
    ) {
        if self.config.cache_enabled {
            self.proxies[proxy as usize]
                .cache
                .insert(key, value_bytes, value_bytes, now);
        }
        self.estimator.record_read(
            value_bytes,
            if node_cache_hit {
                ReadOutcome::NodeCacheHit
            } else {
                ReadOutcome::Miss
            },
        );
    }

    /// Drain the active-update refresh candidates of every proxy: `(proxy,
    /// key)` pairs the plane should re-read from the data node and then
    /// [`ProxyPlane::complete_refresh`].
    pub fn refresh_candidates(&mut self, now: SimTime) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        if !self.config.cache_enabled {
            return out;
        }
        for (i, p) in self.proxies.iter_mut().enumerate() {
            for cand in p.cache.refresh_candidates(now) {
                out.push((i as u32, cand.key));
            }
        }
        out
    }

    /// Finish an active refresh with the re-read value.
    pub fn complete_refresh(&mut self, proxy: u32, key: u64, value_bytes: usize, now: SimTime) {
        self.proxies[proxy as usize]
            .cache
            .update(key, value_bytes, value_bytes, now);
    }

    /// Aggregate proxy-cache statistics across the fleet.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for p in &self.proxies {
            total.merge(p.cache.stats());
        }
        total
    }

    /// Per-proxy read counts (served locally + forwarded + quota-rejected) —
    /// the hot-key pressure distribution the fan-out parameter trades against
    /// hit ratio. Counted from explicit request counters, not cache-stat
    /// lookups, so active-refresh probes and disabled caches don't skew
    /// attribution; rejected reads still count as pressure.
    pub fn per_proxy_lookups(&self) -> Vec<u64> {
        self.proxies
            .iter()
            .map(|p| p.reads_local + p.reads_forwarded + p.reads_rejected)
            .collect()
    }

    /// Per-proxy split of reads served locally vs forwarded to the data
    /// plane — what hit attribution consumes.
    pub fn per_proxy_read_split(&self) -> Vec<ProxyReadSplit> {
        self.proxies
            .iter()
            .map(|p| ProxyReadSplit {
                local: p.reads_local,
                forwarded: p.reads_forwarded,
            })
            .collect()
    }

    /// Fleet-wide read split (sums of [`ProxyPlane::per_proxy_read_split`]).
    pub fn read_split(&self) -> ProxyReadSplit {
        let mut total = ProxyReadSplit::default();
        for p in &self.proxies {
            total.local += p.reads_local;
            total.forwarded += p.reads_forwarded;
        }
        total
    }
}

/// SplitMix64 finalizer — the "custom hashing function" for group routing.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::clock::secs;

    fn plane(n_proxies: u32, n_groups: u32) -> ProxyPlane {
        ProxyPlane::new(
            1,
            ProxyPlaneConfig {
                n_proxies,
                n_groups,
                tenant_quota_ru: 1000.0,
                ..Default::default()
            },
            0,
            42,
        )
    }

    #[test]
    fn routing_stays_within_group() {
        let mut p = plane(8, 4);
        // Same key must always land in the same group (size 2).
        let key = 12345u64;
        let group = p.route(key) / 2;
        for _ in 0..100 {
            assert_eq!(p.route(key) / 2, group);
        }
    }

    #[test]
    fn cache_hit_after_read_completion() {
        let mut p = plane(4, 4); // group size 1: routing is deterministic
        let key = 7u64;
        match p.submit(key, false, 0) {
            ProxyDecision::Forward { proxy } => {
                p.on_read_complete(proxy, key, 512, false, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            p.submit(key, false, secs(1)),
            ProxyDecision::CacheHit { .. }
        ));
    }

    #[test]
    fn writes_invalidate_cached_reads() {
        let mut p = plane(4, 4);
        let key = 9u64;
        if let ProxyDecision::Forward { proxy } = p.submit(key, false, 0) {
            p.on_read_complete(proxy, key, 512, false, 0);
        }
        assert!(matches!(
            p.submit(key, true, secs(1)),
            ProxyDecision::Forward { .. }
        ));
        // The cached copy is gone.
        assert!(matches!(
            p.submit(key, false, secs(2)),
            ProxyDecision::Forward { .. }
        ));
    }

    #[test]
    fn quota_rejects_floods_and_boost_doubles() {
        let mut p = plane(1, 1);
        // Quota 1000 RU/s, boosted ×2; reads estimate at 1 RU. Burst capacity
        // at t=0 is 2000.
        let mut forwarded = 0;
        for i in 0..5000u64 {
            if matches!(p.submit(i, false, 0), ProxyDecision::Forward { .. }) {
                forwarded += 1;
            }
        }
        assert!((1900..=2100).contains(&forwarded), "forwarded={forwarded}");
        // Clawback: boost off halves the steady rate.
        p.set_boost(false, secs(10));
        let mut steady = 0;
        for t in 0..1000u64 {
            let now = secs(11) + t * 1000;
            if matches!(p.submit(t, false, now), ProxyDecision::Forward { .. }) {
                steady += 1;
            }
        }
        assert!(steady <= 1100, "steady={steady}");
    }

    #[test]
    fn disabled_quota_forwards_everything() {
        let mut p = plane(2, 1);
        p.set_quota_enabled(false);
        p.set_cache_enabled(false);
        for i in 0..10_000u64 {
            assert!(matches!(
                p.submit(i, false, 0),
                ProxyDecision::Forward { .. }
            ));
        }
    }

    #[test]
    fn fewer_groups_spread_hot_key_over_more_proxies() {
        // One scorching key; compare the per-proxy load spread for n=8 vs n=1.
        let run = |groups: u32| -> usize {
            let mut p = plane(8, groups);
            p.set_quota_enabled(false);
            for _ in 0..8_000 {
                p.submit(42, false, 0);
            }
            p.per_proxy_lookups().iter().filter(|&&c| c > 0).count()
        };
        let narrow = run(8); // group size 1 → one proxy takes it all
        let wide = run(1); // group size 8 → spread over 8 proxies
        assert_eq!(narrow, 1);
        assert!(wide >= 6, "hot key hit {wide} proxies");
    }

    #[test]
    fn refresh_candidates_surface_hot_entries() {
        let mut p = plane(1, 1);
        p.set_quota_enabled(false);
        let key = 5u64;
        if let ProxyDecision::Forward { proxy } = p.submit(key, false, 0) {
            p.on_read_complete(proxy, key, 256, false, 0);
        }
        // Hammer the key so it counts as hot.
        for t in 1..10 {
            p.submit(key, false, secs(t));
        }
        // Default TTL is 60 s, refresh window 5 s.
        let cands = p.refresh_candidates(secs(56));
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].1, key);
        p.complete_refresh(cands[0].0, key, 256, secs(56));
        // Still serving after the original expiry.
        assert!(matches!(
            p.submit(key, false, secs(70)),
            ProxyDecision::CacheHit { .. }
        ));
    }

    #[test]
    fn stronger_consistency_bypasses_the_proxy_cache() {
        let mut p = plane(4, 4);
        let key = 11u64;
        if let ProxyDecision::Forward { proxy } = p.submit(key, false, 0) {
            p.on_read_complete(proxy, key, 128, false, 0);
        }
        // Cached for Eventual...
        assert!(matches!(
            p.submit_read(key, ConsistencyLevel::Eventual, secs(1)),
            ProxyDecision::CacheHit { .. }
        ));
        // ...but the cache cannot prove an LSN fence: RYW and Leader reads
        // must reach the data plane.
        assert!(matches!(
            p.submit_read(key, ConsistencyLevel::ReadYourWrites, secs(1)),
            ProxyDecision::Forward { .. }
        ));
        assert!(matches!(
            p.submit_read(key, ConsistencyLevel::Leader, secs(1)),
            ProxyDecision::Forward { .. }
        ));
    }

    #[test]
    fn read_split_attributes_local_vs_forwarded() {
        let mut p = plane(2, 1);
        p.set_quota_enabled(false);
        let key = 3u64;
        if let ProxyDecision::Forward { proxy } = p.submit(key, false, 0) {
            p.on_read_complete(proxy, key, 64, false, 0);
        }
        // Hammer the same key, completing each forward so every proxy caches
        // after its own first miss: the split then records exactly the reads
        // that really reached the data plane (one first-miss per proxy).
        for _ in 0..20 {
            if let ProxyDecision::Forward { proxy } = p.submit(key, false, secs(1)) {
                p.on_read_complete(proxy, key, 64, false, secs(1));
            }
        }
        let split = p.read_split();
        assert_eq!(split.local + split.forwarded, 21);
        assert!(split.forwarded <= 2, "split={split:?}");
        assert!(split.local >= 19, "split={split:?}");
        let per_proxy = p.per_proxy_read_split();
        let sum: u64 = per_proxy.iter().map(|s| s.local + s.forwarded).sum();
        assert_eq!(sum, 21);
        assert_eq!(
            p.per_proxy_lookups(),
            per_proxy
                .iter()
                .map(|s| s.local + s.forwarded)
                .collect::<Vec<_>>()
        );
        // Writes are not part of the read split.
        p.submit(key, true, secs(2));
        assert_eq!(p.read_split().local + p.read_split().forwarded, 21);
    }

    #[test]
    fn plane_cache_stats_aggregate() {
        let mut p = plane(4, 2);
        p.set_quota_enabled(false);
        for i in 0..100u64 {
            if let ProxyDecision::Forward { proxy } = p.submit(i, false, 0) {
                p.on_read_complete(proxy, i, 64, false, 0);
            }
        }
        for i in 0..100u64 {
            p.submit(i, false, secs(1));
        }
        let stats = p.cache_stats();
        assert!(stats.hits > 30, "hits={}", stats.hits);
    }
}
