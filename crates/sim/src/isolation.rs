//! The single-node isolation experiment: the discrete-time driver behind
//! Figures 5, 6 and 7.
//!
//! Ties together workload generators (per-tenant traffic shapes and key
//! streams), the proxy plane, and a DataNode, advancing virtual time in fixed
//! ticks and emitting per-minute metric points.

use crate::node::DataNodeSim;
use crate::proxy::{ProxyDecision, ProxyPlane, ProxyPlaneConfig};
use crate::types::{Disposition, ServedFrom, SimRequest};
use abase_core::types::{PartitionId, TenantId};
use abase_quota::TenantQuotaMonitor;
use abase_util::clock::{mins, SimTime};
use abase_util::Histogram;
use abase_workload::{KeyspaceConfig, RequestGen, TrafficShape};
use std::collections::HashMap;

/// Latency charged to a proxy-cache hit (never reaches a data node).
const PROXY_HIT_LATENCY: SimTime = 150;

/// Everything needed to drive one tenant in an experiment.
#[derive(Debug)]
pub struct TenantSpec {
    /// Tenant id.
    pub id: TenantId,
    /// Tenant quota in RU/s (the proxy plane divides it across proxies).
    pub tenant_quota_ru: f64,
    /// The tenant's (single) partition in the experiment node.
    pub partition: PartitionId,
    /// Partition quota in RU/s.
    pub partition_quota_ru: f64,
    /// Traffic intensity over time.
    pub shape: TrafficShape,
    /// Key popularity / sizes / read mix.
    pub keyspace: KeyspaceConfig,
    /// Proxy plane settings.
    pub proxy: ProxyPlaneConfig,
}

/// One tenant's metrics for one minute of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct MinutePoint {
    /// Minute index from experiment start.
    pub minute: u64,
    /// Tenant.
    pub tenant: TenantId,
    /// Successful requests per second.
    pub success_qps: f64,
    /// Rejected requests per second (proxy + node).
    pub error_qps: f64,
    /// Mean success latency in milliseconds.
    pub mean_latency_ms: f64,
    /// P99 success latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Combined cache hit ratio over reads (proxy hits + node-cache hits).
    pub cache_hit_ratio: f64,
    /// Share of reads answered by the proxy cache alone.
    pub proxy_hit_ratio: f64,
}

#[derive(Debug)]
struct MinuteAcc {
    success: u64,
    errors: u64,
    reads: u64,
    proxy_hits: u64,
    node_hits: u64,
    /// Success latencies, µs.
    latency: Histogram,
}

impl MinuteAcc {
    fn new() -> Self {
        Self {
            success: 0,
            errors: 0,
            reads: 0,
            proxy_hits: 0,
            node_hits: 0,
            latency: Histogram::new(),
        }
    }

    fn reset(&mut self) {
        self.success = 0;
        self.errors = 0;
        self.reads = 0;
        self.proxy_hits = 0;
        self.node_hits = 0;
        self.latency.clear();
    }

    fn point(&self, minute: u64, tenant: TenantId, secs: f64) -> MinutePoint {
        MinutePoint {
            minute,
            tenant,
            success_qps: self.success as f64 / secs,
            error_qps: self.errors as f64 / secs,
            mean_latency_ms: self.latency.mean() / 1000.0,
            p99_latency_ms: self.latency.quantile(0.99).unwrap_or(0.0) / 1000.0,
            cache_hit_ratio: if self.reads == 0 {
                0.0
            } else {
                (self.proxy_hits + self.node_hits) as f64 / self.reads as f64
            },
            proxy_hit_ratio: if self.reads == 0 {
                0.0
            } else {
                self.proxy_hits as f64 / self.reads as f64
            },
        }
    }
}

struct TenantRuntime {
    shape: TrafficShape,
    gen: RequestGen,
    plane: ProxyPlane,
    partition: PartitionId,
    carry: f64,
    acc: MinuteAcc,
}

/// A single-node, multi-tenant isolation experiment (Figures 6–7) — also the
/// engine behind the dynamism panels of Figure 5.
pub struct IsolationExperiment {
    node: DataNodeSim,
    tenants: HashMap<TenantId, TenantRuntime>,
    order: Vec<TenantId>,
    monitor: TenantQuotaMonitor,
    clock: SimTime,
    tick_len: SimTime,
    /// Virtual seconds per reported "minute" — figures compress time so a
    /// 45-minute paper timeline replays in a few virtual minutes while keeping
    /// the original minute labels.
    minute_secs: u64,
}

impl IsolationExperiment {
    /// Build an experiment over `node` and `specs`, with 100 ms ticks.
    pub fn new(node: DataNodeSim, specs: Vec<TenantSpec>, seed: u64) -> Self {
        let mut tenants = HashMap::new();
        let mut order = Vec::new();
        let mut monitor = TenantQuotaMonitor::new(mins(1));
        for (i, spec) in specs.into_iter().enumerate() {
            node.pipeline()
                .add_partition(spec.partition, spec.id, spec.partition_quota_ru);
            monitor.set_tenant_quota(spec.id, spec.tenant_quota_ru);
            let plane = ProxyPlane::new(
                spec.id,
                ProxyPlaneConfig {
                    tenant_quota_ru: spec.tenant_quota_ru,
                    ..spec.proxy
                },
                0,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            );
            order.push(spec.id);
            tenants.insert(
                spec.id,
                TenantRuntime {
                    shape: spec.shape,
                    gen: RequestGen::new(spec.keyspace, seed.wrapping_add(i as u64)),
                    plane,
                    partition: spec.partition,
                    carry: 0.0,
                    acc: MinuteAcc::new(),
                },
            );
        }
        Self {
            node,
            tenants,
            order,
            monitor,
            clock: 0,
            tick_len: 100_000, // 100 ms
            minute_secs: 60,
        }
    }

    /// Compress each reported minute to `secs` virtual seconds (default 60).
    pub fn set_minute_secs(&mut self, secs: u64) {
        assert!(secs > 0);
        self.minute_secs = secs;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Mutable access to the node (phase toggles: partition quota on/off,
    /// through its [`DataNodeSim::pipeline`]).
    pub fn node_mut(&mut self) -> &mut DataNodeSim {
        &mut self.node
    }

    /// Mutable access to a tenant's proxy plane (quota/cache toggles).
    // LINT: allow(A009): a lookup key; tests/isolation_pin.rs pins fig06_proxy_quota's call
    pub fn plane_mut(&mut self, tenant: TenantId) -> &mut ProxyPlane {
        // INVARIANT: tenants are registered at construction and never removed.
        &mut self.tenants.get_mut(&tenant).expect("known tenant").plane
    }

    /// Mutable access to a tenant's request generator (skew/window shifts).
    pub fn gen_mut(&mut self, tenant: TenantId) -> &mut RequestGen {
        // INVARIANT: tenants are registered at construction and never removed.
        &mut self.tenants.get_mut(&tenant).expect("known tenant").gen
    }

    /// Replace a tenant's traffic shape (for multi-phase scenarios).
    pub fn set_shape(&mut self, tenant: TenantId, shape: TrafficShape) {
        // INVARIANT: tenants are registered at construction and never removed.
        self.tenants.get_mut(&tenant).expect("known tenant").shape = shape;
    }

    /// Advance `n` minutes; returns one [`MinutePoint`] per tenant per minute.
    pub fn run_minutes(&mut self, n: u64) -> Vec<MinutePoint> {
        let mut out = Vec::new();
        let minute_len = self.minute_secs * 1_000_000;
        for _ in 0..n {
            let minute_index = self.clock / minute_len;
            let minute_end = (minute_index + 1) * minute_len;
            while self.clock < minute_end {
                self.run_tick();
            }
            self.end_of_minute(minute_index, &mut out);
        }
        out
    }

    fn run_tick(&mut self) {
        let now = self.clock;
        let tick_len = self.tick_len;
        // 1. Generate and route this tick's requests, tenant by tenant.
        for &tenant in &self.order {
            // INVARIANT: `order` only holds tenants present in `tenants`.
            let rt = self.tenants.get_mut(&tenant).expect("known tenant");
            let want = rt.shape.requests_in_tick(now, tick_len) + rt.carry;
            let count = want.floor() as u64;
            rt.carry = want - count as f64;
            for j in 0..count {
                // Arrivals spread uniformly across the tick.
                let issued_at = now + (j * tick_len) / count.max(1);
                let spec = rt.gen.next_request();
                let key = (u64::from(tenant) << 40) ^ spec.key_rank as u64;
                if !spec.is_write {
                    rt.acc.reads += 1;
                }
                let est_ru = rt.plane.estimate_ru(spec.is_write);
                match rt.plane.submit(key, spec.is_write, now) {
                    ProxyDecision::CacheHit { .. } => {
                        // Served at the proxy: no quota, no node traffic.
                        rt.acc.success += 1;
                        rt.acc.proxy_hits += 1;
                        rt.acc.latency.record(PROXY_HIT_LATENCY);
                    }
                    ProxyDecision::Rejected { .. } => {
                        rt.acc.errors += 1;
                    }
                    ProxyDecision::Forward { proxy } => {
                        self.monitor.record_traffic(tenant, now, est_ru);
                        let req = SimRequest {
                            tenant,
                            partition: rt.partition,
                            key,
                            is_write: spec.is_write,
                            value_bytes: spec.value_bytes,
                            issued_at,
                            proxy: Some(proxy),
                        };
                        if let Some(Disposition::RejectedAtNode) = self.node.submit(req, issued_at)
                        {
                            rt.acc.errors += 1;
                        }
                    }
                }
            }
        }
        // 2. Node advances one tick; completions feed proxy caches + metrics.
        for (req, disp) in self.node.tick(now, tick_len) {
            // INVARIANT: every request was generated for a registered tenant.
            let rt = self.tenants.get_mut(&req.tenant).expect("known tenant");
            if let Disposition::Success {
                latency,
                served_from,
            } = disp
            {
                rt.acc.success += 1;
                rt.acc.latency.record(latency);
                if !req.is_write {
                    if served_from == ServedFrom::NodeCache {
                        rt.acc.node_hits += 1;
                    }
                    if let Some(proxy) = req.proxy {
                        rt.plane.on_read_complete(
                            proxy,
                            req.key,
                            req.value_bytes,
                            served_from == ServedFrom::NodeCache,
                            now,
                        );
                    }
                }
            }
        }
        self.clock += tick_len;
    }

    fn end_of_minute(&mut self, minute: u64, out: &mut Vec<MinutePoint>) {
        let now = self.clock;
        // Control-plane actions: boost clawback and active cache refresh.
        for &tenant in &self.order {
            let allowed = self.monitor.boost_allowed(tenant, now);
            // INVARIANT: `order` only holds tenants present in `tenants`.
            let rt = self.tenants.get_mut(&tenant).expect("known tenant");
            rt.plane.set_boost(allowed, now);
            for (proxy, key) in rt.plane.refresh_candidates(now) {
                // The refresh re-read is an internal request; the simulator
                // grants it the keyspace's typical size.
                let size = 1024;
                rt.plane.complete_refresh(proxy, key, size, now);
            }
            out.push(rt.acc.point(minute, tenant, self.minute_secs as f64));
            rt.acc.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DataNodeConfig;

    fn spec(id: TenantId, qps: f64) -> TenantSpec {
        TenantSpec {
            id,
            tenant_quota_ru: 2_000.0,
            partition: u64::from(id) * 100,
            partition_quota_ru: 1_000.0,
            shape: TrafficShape::Steady(qps),
            keyspace: KeyspaceConfig {
                n_keys: 5_000,
                zipf_s: 0.99,
                read_ratio: 0.9,
                ..Default::default()
            },
            proxy: ProxyPlaneConfig {
                n_proxies: 4,
                n_groups: 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn steady_load_completes_with_low_latency() {
        let node = DataNodeSim::new(1, DataNodeConfig::default());
        let mut exp = IsolationExperiment::new(node, vec![spec(1, 500.0), spec(2, 500.0)], 7);
        let points = exp.run_minutes(3);
        assert_eq!(points.len(), 6); // 2 tenants × 3 minutes
        for p in &points[2..] {
            assert!(
                (p.success_qps - 500.0).abs() < 50.0,
                "minute {} tenant {} qps {}",
                p.minute,
                p.tenant,
                p.success_qps
            );
            assert!(p.error_qps < 5.0, "errors {}", p.error_qps);
            assert!(p.p99_latency_ms < 50.0, "p99 {}", p.p99_latency_ms);
        }
    }

    #[test]
    fn cache_hit_ratio_climbs_on_zipf_reads() {
        let node = DataNodeSim::new(1, DataNodeConfig::default());
        let mut exp = IsolationExperiment::new(node, vec![spec(1, 500.0)], 3);
        let points = exp.run_minutes(4);
        let last = points.last().unwrap();
        assert!(
            last.cache_hit_ratio > 0.5,
            "hit ratio {} after warmup",
            last.cache_hit_ratio
        );
    }

    #[test]
    fn burst_without_proxy_quota_starves_the_neighbour() {
        // Figure 6's first phase in miniature.
        let node = DataNodeSim::new(
            1,
            DataNodeConfig {
                cpu_ru_per_sec: 2_000.0,
                rejection_cost_ru: 0.5,
                ..Default::default()
            },
        );
        let mut t1 = spec(1, 200.0);
        t1.proxy.quota_enabled = false; // proxy not intercepting
        t1.proxy.cache_enabled = false;
        t1.keyspace.read_ratio = 1.0;
        let mut t2 = spec(2, 200.0);
        t2.proxy.cache_enabled = false;
        let mut exp = IsolationExperiment::new(node, vec![t1, t2], 11);
        let warm = exp.run_minutes(2);
        let t2_before: f64 = warm
            .iter()
            .filter(|p| p.tenant == 2 && p.minute == 1)
            .map(|p| p.success_qps)
            .sum();
        // Tenant 1 bursts to 20k QPS — far over its quota.
        exp.set_shape(1, TrafficShape::Steady(20_000.0));
        let burst = exp.run_minutes(3);
        let t2_during: f64 = burst
            .iter()
            .filter(|p| p.tenant == 2 && p.minute == 4)
            .map(|p| p.success_qps)
            .sum();
        assert!(
            t2_during < t2_before * 0.5,
            "tenant 2 unaffected: {t2_before} -> {t2_during}"
        );
    }

    #[test]
    fn proxy_quota_shields_the_neighbour_from_bursts() {
        // Figure 6's second phase: same burst, but the proxy intercepts.
        let node = DataNodeSim::new(
            1,
            DataNodeConfig {
                cpu_ru_per_sec: 2_000.0,
                rejection_cost_ru: 0.5,
                ..Default::default()
            },
        );
        let mut t1 = spec(1, 200.0);
        t1.proxy.cache_enabled = false;
        t1.keyspace.read_ratio = 1.0;
        t1.tenant_quota_ru = 800.0; // proxy caps tenant 1 below node capacity
        let mut t2 = spec(2, 200.0);
        t2.proxy.cache_enabled = false;
        let mut exp = IsolationExperiment::new(node, vec![t1, t2], 11);
        exp.run_minutes(2);
        exp.set_shape(1, TrafficShape::Steady(20_000.0));
        let burst = exp.run_minutes(3);
        let t2_during: f64 = burst
            .iter()
            .filter(|p| p.tenant == 2 && p.minute == 4)
            .map(|p| p.success_qps)
            .sum();
        assert!(
            t2_during > 150.0,
            "tenant 2 starved despite proxy quota: {t2_during}"
        );
    }

    #[test]
    fn minute_points_are_emitted_in_order() {
        let node = DataNodeSim::new(1, DataNodeConfig::default());
        let mut exp = IsolationExperiment::new(node, vec![spec(1, 100.0)], 5);
        let points = exp.run_minutes(2);
        assert_eq!(points[0].minute, 0);
        assert_eq!(points[1].minute, 1);
        assert_eq!(exp.now(), mins(2));
    }
}
