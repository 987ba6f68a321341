//! The simulated DataNode: the cache-aware isolation pipeline of Figure 2.
//!
//! ```text
//! submit() ──▶ Pipeline::admit: partition quota (reject > 3×quota; rejection burns CPU)
//!                   │ admitted
//!                   ▼
//!            four dual-layer WFQs (class by read/write × small/large)
//! tick() ──▶ CPU-WFQ drain (RU budget − rejection overhead)
//!                   │ per request: SA-LRU cache probe
//!            hit ───┴──▶ complete (CPU+memory cost only)
//!            miss ──────▶ I/O-WFQ (IOPS cost) ──▶ complete + cache fill
//!                                                  └─ Pipeline::settle charges RU
//! ```
//!
//! Admission, charging and the WFQ weight are the serving node's own code
//! ([`abase_core::pipeline`]); what is simulated here is the rest: the queues,
//! the cache and the CPU and I/O budgets.
//!
//! The rejection-cost model implements the paper's Figure 6 observation: "the
//! DataNode expended considerable resources rejecting Tenant 1's excessive
//! requests, which severely disrupted the processing of Tenant 2's legitimate
//! requests" — every rejected request debits the next tick's CPU budget.

use crate::types::{Disposition, NodeId, ServedFrom, SimRequest};
use abase_cache::SaLruCache;
use abase_core::pipeline::{Pipeline, Request, Served};
use abase_quota::ru::ReadOutcome;
use abase_util::clock::SimTime;
use abase_wfq::{NodeScheduler, NodeSchedulerConfig, WfqItem};

/// DataNode tuning.
#[derive(Debug, Clone)]
pub struct DataNodeConfig {
    /// CPU capacity in RU per second.
    pub cpu_ru_per_sec: f64,
    /// CPU (RU) burned per request rejected at the request queue.
    pub rejection_cost_ru: f64,
    /// SA-LRU cache size in bytes.
    pub cache_bytes: usize,
    /// Replication factor (multiplies write RU, §4.1).
    pub replicas: u32,
    /// Service latency floor (dispatch + memory path).
    pub base_service_micros: SimTime,
    /// Additional latency for a storage (disk) read.
    pub io_service_micros: SimTime,
    /// Per-tenant CPU queue depth cap — the bounded "request queue" requests
    /// are filtered into (§4.2).
    pub max_queue_per_tenant: usize,
    /// WFQ configuration.
    pub scheduler: NodeSchedulerConfig,
}

impl Default for DataNodeConfig {
    fn default() -> Self {
        Self {
            cpu_ru_per_sec: 10_000.0,
            rejection_cost_ru: 0.2,
            cache_bytes: 64 << 20,
            replicas: 3,
            base_service_micros: 300,
            io_service_micros: 2_000,
            max_queue_per_tenant: 20_000,
            scheduler: NodeSchedulerConfig::default(),
        }
    }
}

/// The simulated DataNode.
#[derive(Debug)]
pub struct DataNodeSim {
    /// Node id.
    pub id: NodeId,
    config: DataNodeConfig,
    scheduler: NodeScheduler<SimRequest>,
    cache: SaLruCache<u64, usize>,
    /// Admission, charging and the WFQ weight of the hosted partitions.
    pipeline: Pipeline,
    /// RU owed to rejection processing, debited from the next tick's budget.
    rejection_overhead_ru: f64,
}

impl DataNodeSim {
    /// A node with the given configuration.
    pub fn new(id: NodeId, config: DataNodeConfig) -> Self {
        let cache = SaLruCache::new(config.cache_bytes);
        let scheduler = NodeScheduler::new(config.scheduler.clone());
        Self {
            id,
            pipeline: Pipeline::new(config.replicas),
            config,
            scheduler,
            cache,
            rejection_overhead_ru: 0.0,
        }
    }

    /// The hosted partitions' admission and charging: partitions are
    /// registered, and their quotas set, here.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Total CPU-layer queue depth.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.cpu_depth() + self.scheduler.io_depth()
    }

    /// Node-cache statistics.
    pub fn cache_stats(&self) -> &abase_cache::CacheStats {
        self.cache.stats()
    }

    /// Submit a request at `now`. Rejections are immediate; admissions queue.
    pub fn submit(&mut self, req: SimRequest, now: SimTime) -> Option<Disposition> {
        // An unknown partition is a node rejection too.
        let Some(tenant) = self.pipeline.tenant(req.partition) else {
            return self.reject();
        };
        let request = if req.is_write {
            Request::Write(req.value_bytes)
        } else {
            Request::Read
        };
        let Ok(est_ru) = self.pipeline.admit(req.partition, request, now) else {
            return self.reject();
        };
        // Bounded request queue: overflow is also a (costly) rejection.
        let class = self.scheduler.classify(req.is_write, req.value_bytes);
        if self.scheduler.cpu_tenant_depth(tenant) >= self.config.max_queue_per_tenant {
            return self.reject();
        }
        let weight = self.pipeline.weight(req.partition);
        self.scheduler.push_cpu(
            class,
            WfqItem {
                tenant,
                cost: est_ru,
                weight,
                payload: req,
            },
        );
        None
    }

    fn reject(&mut self) -> Option<Disposition> {
        self.rejection_overhead_ru += self.config.rejection_cost_ru;
        Some(Disposition::RejectedAtNode)
    }

    /// Advance one tick of `tick_len` ending at `now + tick_len`; returns the
    /// requests completed during the tick.
    pub fn tick(&mut self, now: SimTime, tick_len: SimTime) -> Vec<(SimRequest, Disposition)> {
        let tick_secs = tick_len as f64 / 1_000_000.0;
        let gross_budget = self.config.cpu_ru_per_sec * tick_secs;
        // Rejection processing consumes CPU first (Figure 6's mechanism).
        // The work happens within the tick the rejections arrived in — a
        // saturated entry queue sheds load at line rate rather than accruing
        // an unbounded debt — so the overhead resets every tick.
        let overhead = self.rejection_overhead_ru.min(gross_budget);
        self.rejection_overhead_ru = 0.0;
        let budget = gross_budget - overhead;
        // Phase 1: decide what completes this tick.
        let mut done: Vec<(SimRequest, ServedFrom)> = Vec::new();
        for (_class, item) in self.scheduler.drain_cpu_tick(budget) {
            let req = item.payload;
            let (bytes, partition) = (req.value_bytes, req.partition);
            if req.is_write {
                // Writes land in WAL + memtable: no read I/O. Cache the value
                // so subsequent reads hit ("frequent access to recently-
                // updated data", §1 challenge 1).
                self.cache.insert(req.key, bytes, bytes);
                self.pipeline.settle(partition, Served::Write(bytes));
                done.push((req, ServedFrom::NodeCache));
            } else if self.cache.get(&req.key).is_some() {
                let hit = Served::Read(bytes, ReadOutcome::NodeCacheHit);
                self.pipeline.settle(partition, hit);
                done.push((req, ServedFrom::NodeCache));
            } else {
                // Miss: descend to the I/O layer (Rule 1: IOPS cost).
                let io_cost = 1.0 + (bytes as f64 / (64.0 * 1024.0)).floor();
                let class = self.scheduler.classify(false, bytes);
                self.scheduler.push_io(
                    class,
                    WfqItem {
                        tenant: item.tenant,
                        cost: io_cost,
                        weight: item.weight,
                        payload: req,
                    },
                );
            }
        }
        for (_class, item) in self.scheduler.drain_io_tick() {
            let req = item.payload;
            let bytes = req.value_bytes;
            let miss = Served::Read(bytes, ReadOutcome::Miss);
            self.pipeline.settle(req.partition, miss);
            self.cache.insert(req.key, bytes, bytes);
            done.push((req, ServedFrom::Storage));
        }
        // Phase 2: assign completion instants spread across the tick (work is
        // served continuously, not at tick boundaries).
        let n = done.len() as u64;
        let mut completions = Vec::with_capacity(done.len());
        for (idx, (req, served_from)) in done.into_iter().enumerate() {
            let completion_at = now + (tick_len * (idx as u64 + 1)) / (n + 1);
            // A request served within its arrival tick experiences only the
            // service time (sub-tick queueing is below the model's
            // resolution); requests carried across ticks accrue real
            // queueing delay.
            let queueing = if req.issued_at >= now {
                0
            } else {
                completion_at.saturating_sub(req.issued_at)
            };
            let mut latency = queueing + self.config.base_service_micros;
            if served_from == ServedFrom::Storage {
                latency += self.config.io_service_micros;
            }
            completions.push((
                req,
                Disposition::Success {
                    latency,
                    served_from,
                },
            ));
        }
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_core::types::{PartitionId, TenantId};
    use abase_util::clock::ms;

    fn request(
        tenant: TenantId,
        partition: PartitionId,
        key: u64,
        is_write: bool,
        t: SimTime,
    ) -> SimRequest {
        SimRequest {
            tenant,
            partition,
            key,
            is_write,
            value_bytes: 1024,
            issued_at: t,
            proxy: None,
        }
    }

    fn node() -> DataNodeSim {
        let n = DataNodeSim::new(1, DataNodeConfig::default());
        n.pipeline().add_partition(10, 1, 3000.0, 0);
        n.pipeline().add_partition(20, 2, 3000.0, 0);
        n
    }

    #[test]
    fn write_then_read_hits_cache() {
        let mut n = node();
        assert!(n.submit(request(1, 10, 7, true, 0), 0).is_none());
        let done = n.tick(0, ms(100));
        assert_eq!(done.len(), 1);
        assert!(done[0].1.is_success());
        // Read of the same key: node cache hit (no I/O layer).
        n.submit(request(1, 10, 7, false, ms(100)), ms(100));
        let done = n.tick(ms(100), ms(100));
        assert_eq!(done.len(), 1);
        match done[0].1 {
            Disposition::Success { served_from, .. } => {
                assert_eq!(served_from, ServedFrom::NodeCache)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cold_read_goes_through_io_layer() {
        let mut n = node();
        n.submit(request(1, 10, 99, false, 0), 0);
        let done = n.tick(0, ms(100));
        assert_eq!(done.len(), 1);
        match done[0].1 {
            Disposition::Success {
                served_from,
                latency,
            } => {
                assert_eq!(served_from, ServedFrom::Storage);
                // Latency includes the I/O service time.
                assert!(latency >= 2_000);
            }
            other => panic!("{other:?}"),
        }
        // Second read of the same key is now cached.
        n.submit(request(1, 10, 99, false, ms(100)), ms(100));
        let done = n.tick(ms(100), ms(100));
        match done[0].1 {
            Disposition::Success { served_from, .. } => {
                assert_eq!(served_from, ServedFrom::NodeCache)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partition_quota_rejects_excess() {
        let mut n = node();
        // Partition 10 quota = 3000 RU/s → 3× cap = 9000 RU burst.
        // 1 KB reads estimate at 1 RU (prior). Submit 20k requests at t=0.
        let mut rejected = 0;
        for i in 0..20_000 {
            if n.submit(request(1, 10, i, false, 0), 0).is_some() {
                rejected += 1;
            }
        }
        assert!(rejected > 5_000, "rejected={rejected}");
        assert_eq!(n.queue_depth(), 20_000 - rejected);
        // An unknown partition is rejected outright.
        assert!(n.submit(request(1, 99, 0, false, 0), 0).is_some());
    }

    #[test]
    fn rejections_burn_next_tick_budget() {
        let mut n = DataNodeSim::new(
            1,
            DataNodeConfig {
                cpu_ru_per_sec: 1000.0,
                rejection_cost_ru: 1.0,
                ..Default::default()
            },
        );
        n.pipeline().add_partition(10, 1, 100.0, 0);
        n.pipeline().add_partition(20, 2, 100.0, 0);
        // Tenant 1 floods: ~300 admitted (3× quota burst) then rejections.
        for i in 0..2_000 {
            n.submit(request(1, 10, i, false, 0), 0);
        }
        // Tenant 2 submits a modest load.
        for i in 0..50 {
            n.submit(request(2, 20, 10_000 + i, false, 0), 0);
        }
        // Budget for 100 ms tick = 100 RU; rejection overhead is ~1700 RU →
        // several ticks produce nothing at all.
        let done = n.tick(0, ms(100));
        assert!(
            done.is_empty(),
            "rejection overhead should stall the node, got {} completions",
            done.len()
        );
    }

    #[test]
    fn disabled_partition_quota_admits_everything() {
        let mut n = node();
        n.pipeline().set_partition_quota_enabled(10, false);
        let mut rejected = 0;
        for i in 0..20_000 {
            if n.submit(request(1, 10, i, false, 0), 0).is_some() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 0);
        assert!(n.queue_depth() >= 19_000);
    }

    #[test]
    fn queue_cap_bounds_memory() {
        let mut n = DataNodeSim::new(
            1,
            DataNodeConfig {
                max_queue_per_tenant: 1_000,
                ..Default::default()
            },
        );
        n.pipeline().add_partition(10, 1, 1e9, 0); // effectively no quota
        let mut rejected = 0;
        for i in 0..10_000 {
            if n.submit(request(1, 10, i, false, 0), 0).is_some() {
                rejected += 1;
            }
        }
        assert!(n.queue_depth() <= 1_001);
        assert!(rejected >= 8_999);
    }

    #[test]
    fn fair_sharing_between_tenants_under_load() {
        let mut n = DataNodeSim::new(
            1,
            DataNodeConfig {
                cpu_ru_per_sec: 1_000.0,
                ..Default::default()
            },
        );
        n.pipeline().add_partition(10, 1, 500.0, 0);
        n.pipeline().add_partition(20, 2, 500.0, 0);
        // Equal quotas, both flood within their 3× burst: 1500 admitted each.
        for i in 0..1_500 {
            n.submit(request(1, 10, i, false, 0), 0);
            n.submit(request(2, 20, 100_000 + i, false, 0), 0);
        }
        let mut success = [0u64; 2];
        let mut t = 0;
        for _ in 0..10 {
            for (req, disp) in n.tick(t, ms(100)) {
                if disp.is_success() {
                    success[(req.tenant - 1) as usize] += 1;
                }
            }
            t += ms(100);
        }
        let total = success[0] + success[1];
        assert!(total > 0);
        let share = success[0] as f64 / total as f64;
        assert!((share - 0.5).abs() < 0.15, "share={share}");
    }
}
