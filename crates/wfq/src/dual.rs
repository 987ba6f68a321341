//! Dual-layer (CPU over I/O) weighted fair queueing and the per-node scheduler.
//!
//! A request admitted by the partition quota first enters the **CPU-WFQ** for
//! its class. The DataNode drains the CPU-WFQ each tick within an RU budget;
//! drained requests are checked against the node cache — hits complete
//! immediately, misses are pushed into the **I/O-WFQ**, which a thread pool
//! drains by IOPS (paper §4.3, Figure 2).
//!
//! The four practical rules from the paper are enforced here:
//!
//! * **Rule 1** — cost units differ per layer: the caller pushes RU costs into
//!   the CPU queue and IOPS costs into the I/O queue.
//! * **Rule 2** — per-tick concurrency limits for reads and writes, plus a
//!   total write-RU ceiling that shields LavaStore compaction from write
//!   bursts.
//! * **Rule 3** — one tenant may consume at most 90 % of a tick's CPU budget
//!   *when other tenants are waiting* (the cap is work-conserving: a lone
//!   tenant may use the whole budget).
//! * **Rule 4** — the I/O pool's basic threads are supplemented by extra
//!   threads reserved for *other* tenants whenever a single tenant monopolizes
//!   the basic pool.

use crate::class::QueueClass;
use crate::queue::{TenantId, WfqItem, WfqQueue};
use std::collections::HashMap;

/// Tuning knobs shared by the four dual-layer queues of a node.
#[derive(Debug, Clone, Copy)]
pub struct DualWfqConfig {
    /// Rule 3: a single tenant's maximum share of one tick's CPU budget when
    /// other tenants have queued requests. Paper value: 0.9.
    pub single_tenant_cpu_share: f64,
    /// Rule 2: maximum read requests scheduled per tick per class.
    pub max_reads_per_tick: usize,
    /// Rule 2: maximum write requests scheduled per tick per class.
    pub max_writes_per_tick: usize,
    /// Rule 2: ceiling on write RU per tick per class (compaction stability).
    pub write_ru_ceiling: f64,
}

impl Default for DualWfqConfig {
    fn default() -> Self {
        Self {
            single_tenant_cpu_share: 0.9,
            max_reads_per_tick: 4096,
            max_writes_per_tick: 2048,
            write_ru_ceiling: f64::INFINITY,
        }
    }
}

/// CPU budget for draining one class for one tick.
#[derive(Debug, Clone, Copy)]
pub struct CpuTickBudget {
    /// Request units the class may consume this tick.
    pub ru: f64,
}

/// I/O budget for draining one class for one tick, derived from its thread pool.
#[derive(Debug, Clone, Copy)]
pub struct IoTickBudget {
    /// IOPS capacity of the basic threads.
    pub basic_iops: f64,
    /// IOPS capacity of the extra threads (Rule 4: non-monopolist tenants only).
    pub extra_iops: f64,
}

/// The I/O-WFQ thread pool model: `basic` threads serve everyone in VFT order;
/// `extra` threads activate only for non-monopolizing tenants (Rule 4).
#[derive(Debug, Clone, Copy)]
pub struct IoThreadPool {
    /// Always-on worker threads.
    pub basic_threads: usize,
    /// Standby threads for Rule 4.
    pub extra_threads: usize,
    /// I/O operations one thread completes per tick.
    pub iops_per_thread: f64,
}

impl IoThreadPool {
    /// The per-tick budget this pool provides.
    fn tick_budget(&self) -> IoTickBudget {
        IoTickBudget {
            basic_iops: self.basic_threads as f64 * self.iops_per_thread,
            extra_iops: self.extra_threads as f64 * self.iops_per_thread,
        }
    }
}

impl Default for IoThreadPool {
    fn default() -> Self {
        Self {
            basic_threads: 8,
            extra_threads: 2,
            iops_per_thread: 100.0,
        }
    }
}

/// One dual-layer WFQ: a CPU queue stacked on an I/O queue.
#[derive(Debug)]
pub struct DualWfq<T> {
    /// Upper layer; push with RU cost.
    cpu: WfqQueue<T>,
    /// Lower layer; push with IOPS cost (cache misses only).
    io: WfqQueue<T>,
    config: DualWfqConfig,
}

impl<T> DualWfq<T> {
    /// An empty dual queue with the given rules.
    pub fn new(config: DualWfqConfig) -> Self {
        Self {
            cpu: WfqQueue::new(),
            io: WfqQueue::new(),
            config,
        }
    }

    /// Queue a request into the CPU layer (cost = RU, Rule 1).
    pub fn push_cpu(&mut self, item: WfqItem<T>) {
        self.cpu.push(item);
    }

    /// Queue a cache-missing request into the I/O layer (cost = IOPS, Rule 1).
    pub fn push_io(&mut self, item: WfqItem<T>) {
        self.io.push(item);
    }

    /// Requests waiting in the CPU layer.
    fn cpu_depth(&self) -> usize {
        self.cpu.len()
    }

    /// Requests of `tenant` waiting in the CPU layer.
    pub fn cpu_tenant_depth(&self, tenant: TenantId) -> usize {
        self.cpu.tenant_depth(tenant)
    }

    /// Requests waiting in the I/O layer.
    fn io_depth(&self) -> usize {
        self.io.len()
    }

    /// Drain the CPU layer for one tick.
    ///
    /// `is_write_class` selects which Rule 2 limits apply. Returns the
    /// scheduled requests in service order and the RU actually consumed.
    pub fn drain_cpu(
        &mut self,
        budget: CpuTickBudget,
        is_write_class: bool,
    ) -> (Vec<WfqItem<T>>, f64) {
        let max_count = if is_write_class {
            self.config.max_writes_per_tick
        } else {
            self.config.max_reads_per_tick
        };
        let ru_cap = if is_write_class {
            budget.ru.min(self.config.write_ru_ceiling)
        } else {
            budget.ru
        };
        let tenant_cap = self.config.single_tenant_cpu_share * ru_cap;
        let mut consumed: HashMap<TenantId, f64> = HashMap::new();
        let mut total = 0.0_f64;
        let mut out = Vec::new();
        while out.len() < max_count && total < ru_cap {
            let multi_tenant = self.cpu_distinct_tenants() > 1;
            let item = self.cpu.pop_eligible(|t| {
                // Rule 3 applies only while other tenants are waiting.
                !multi_tenant || consumed.get(&t).copied().unwrap_or(0.0) < tenant_cap
            });
            let Some(item) = item else { break };
            // Admit an item that overshoots the budget only as the first item
            // of the tick, so oversized requests still make progress.
            if total + item.cost > ru_cap && !out.is_empty() {
                // Return it to the queue head-equivalent: re-push keeps its
                // tenant VFT monotone (slightly pessimistic, acceptable).
                self.cpu.push(item);
                break;
            }
            total += item.cost;
            *consumed.entry(item.tenant).or_insert(0.0) += item.cost;
            out.push(item);
        }
        (out, total)
    }

    /// Drain the I/O layer for one tick using the pool budget.
    ///
    /// Returns the scheduled requests and the IOPS consumed. Rule 4: extra
    /// capacity is granted only to tenants other than the one that monopolized
    /// the basic threads.
    fn drain_io(&mut self, budget: IoTickBudget) -> (Vec<WfqItem<T>>, f64) {
        let mut out = Vec::new();
        let mut consumed: HashMap<TenantId, f64> = HashMap::new();
        let mut total = 0.0_f64;
        // Phase 1: basic threads serve strictly by VFT.
        while total < budget.basic_iops {
            let Some(item) = self.io.pop() else { break };
            if total + item.cost > budget.basic_iops && !out.is_empty() {
                self.io.push(item);
                break;
            }
            total += item.cost;
            *consumed.entry(item.tenant).or_insert(0.0) += item.cost;
            out.push(item);
        }
        // Phase 2 (Rule 4): if a single tenant received all basic service and
        // other tenants are still queued, extra threads serve only the others.
        let monopolist = if consumed.len() == 1 {
            consumed.keys().next().copied()
        } else {
            None
        };
        if let Some(mono) = monopolist {
            let mut extra_used = 0.0_f64;
            while extra_used < budget.extra_iops {
                let Some(item) = self.io.pop_eligible(|t| t != mono) else {
                    break;
                };
                if extra_used + item.cost > budget.extra_iops && extra_used > 0.0 {
                    self.io.push(item);
                    break;
                }
                extra_used += item.cost;
                total += item.cost;
                out.push(item);
            }
        }
        (out, total)
    }

    fn cpu_distinct_tenants(&self) -> usize {
        self.cpu.distinct_tenants()
    }
}

/// Per-node scheduler: the four class queues plus budget allocation.
#[derive(Debug, Clone)]
pub struct NodeSchedulerConfig {
    /// Small/large boundary in bytes.
    pub large_threshold: usize,
    /// Guaranteed share of the node CPU budget per class
    /// (small-read, large-read, small-write, large-write); should sum to 1.
    pub class_cpu_share: [f64; 4],
    /// Rules shared by all four dual queues.
    pub dual: DualWfqConfig,
    /// One I/O thread pool per class (Figure 2 shows a pool per dual queue).
    pub io_pool: IoThreadPool,
}

impl Default for NodeSchedulerConfig {
    fn default() -> Self {
        Self {
            large_threshold: crate::class::DEFAULT_LARGE_THRESHOLD,
            class_cpu_share: [0.4, 0.2, 0.25, 0.15],
            dual: DualWfqConfig::default(),
            io_pool: IoThreadPool::default(),
        }
    }
}

/// The four dual-layer WFQs of one DataNode, with work-conserving budget split.
#[derive(Debug)]
pub struct NodeScheduler<T> {
    classes: [DualWfq<T>; 4],
    config: NodeSchedulerConfig,
}

impl<T> NodeScheduler<T> {
    /// A scheduler with the given configuration.
    pub fn new(config: NodeSchedulerConfig) -> Self {
        let mk = || DualWfq::new(config.dual);
        Self {
            classes: [mk(), mk(), mk(), mk()],
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NodeSchedulerConfig {
        &self.config
    }

    /// Classify a request by direction and size.
    pub fn classify(&self, is_write: bool, size_bytes: usize) -> QueueClass {
        QueueClass::classify(is_write, size_bytes, self.config.large_threshold)
    }

    /// Push a request into the CPU layer of its class.
    pub fn push_cpu(&mut self, class: QueueClass, item: WfqItem<T>) {
        self.classes[class.index()].push_cpu(item);
    }

    /// Push a cache-missing request into the I/O layer of its class.
    pub fn push_io(&mut self, class: QueueClass, item: WfqItem<T>) {
        self.classes[class.index()].push_io(item);
    }

    /// Total queued requests in the CPU layers.
    // LINT: allow(A008): crates/sim/src/node.rs (its tests)
    pub fn cpu_depth(&self) -> usize {
        self.classes.iter().map(DualWfq::cpu_depth).sum()
    }

    /// Queued CPU-layer requests belonging to `tenant`, across classes.
    pub fn cpu_tenant_depth(&self, tenant: TenantId) -> usize {
        self.classes
            .iter()
            .map(|c| c.cpu_tenant_depth(tenant))
            .sum()
    }

    /// Total queued requests in the I/O layers.
    // LINT: allow(A008): crates/sim/src/node.rs (its tests)
    pub fn io_depth(&self) -> usize {
        self.classes.iter().map(DualWfq::io_depth).sum()
    }

    /// Drain all CPU layers for one tick with a total RU budget.
    ///
    /// Each class first receives its guaranteed share; leftover budget is then
    /// re-offered to classes that still have queued work (work conservation).
    /// Returns `(class, item)` pairs in service order per class.
    pub fn drain_cpu_tick(&mut self, total_ru: f64) -> Vec<(QueueClass, WfqItem<T>)> {
        let mut out = Vec::new();
        let mut leftover = 0.0_f64;
        for class in QueueClass::ALL {
            let share = self.config.class_cpu_share[class.index()];
            let budget = CpuTickBudget {
                ru: total_ru * share,
            };
            let (items, used) = self.classes[class.index()].drain_cpu(budget, class.is_write());
            leftover += (total_ru * share - used).max(0.0);
            out.extend(items.into_iter().map(|i| (class, i)));
        }
        // Second, work-conserving pass over classes with remaining queue depth.
        if leftover > 0.0 {
            for class in QueueClass::ALL {
                if leftover <= 0.0 {
                    break;
                }
                if self.classes[class.index()].cpu_depth() == 0 {
                    continue;
                }
                let (items, used) = self.classes[class.index()]
                    .drain_cpu(CpuTickBudget { ru: leftover }, class.is_write());
                leftover -= used;
                out.extend(items.into_iter().map(|i| (class, i)));
            }
        }
        out
    }

    /// Drain all I/O layers for one tick; each class uses its own thread pool.
    pub fn drain_io_tick(&mut self) -> Vec<(QueueClass, WfqItem<T>)> {
        let budget = self.config.io_pool.tick_budget();
        let mut out = Vec::new();
        for class in QueueClass::ALL {
            let (items, _) = self.classes[class.index()].drain_io(budget);
            out.extend(items.into_iter().map(|i| (class, i)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(tenant: TenantId, cost: f64) -> WfqItem<u32> {
        WfqItem {
            tenant,
            cost,
            weight: 0.5,
            payload: 0,
        }
    }

    #[test]
    fn rule3_caps_single_tenant_when_others_wait() {
        let mut q = DualWfq::new(DualWfqConfig {
            single_tenant_cpu_share: 0.9,
            ..Default::default()
        });
        // Tenant 1 floods; tenant 2 queues a little.
        for _ in 0..100 {
            q.push_cpu(item(1, 1.0));
        }
        for _ in 0..10 {
            q.push_cpu(item(2, 1.0));
        }
        let (scheduled, used) = q.drain_cpu(CpuTickBudget { ru: 20.0 }, false);
        let t1_ru: f64 = scheduled
            .iter()
            .filter(|i| i.tenant == 1)
            .map(|i| i.cost)
            .sum();
        assert!(t1_ru <= 0.9 * 20.0 + 1.0, "tenant 1 used {t1_ru} RU");
        assert!(scheduled.iter().any(|i| i.tenant == 2), "tenant 2 starved");
        assert!(used <= 20.0 + 1.0);
    }

    #[test]
    fn rule3_cap_is_work_conserving_for_lone_tenant() {
        let mut q = DualWfq::new(DualWfqConfig::default());
        for _ in 0..100 {
            q.push_cpu(item(1, 1.0));
        }
        let (scheduled, used) = q.drain_cpu(CpuTickBudget { ru: 20.0 }, false);
        // A lone tenant gets the full budget, not 90 %.
        assert_eq!(scheduled.len(), 20);
        assert!((used - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rule2_write_ceiling_limits_write_ru() {
        let mut q = DualWfq::new(DualWfqConfig {
            write_ru_ceiling: 5.0,
            ..Default::default()
        });
        for _ in 0..100 {
            q.push_cpu(item(1, 1.0));
        }
        let (_, used) = q.drain_cpu(CpuTickBudget { ru: 50.0 }, true);
        assert!(used <= 5.0 + 1e-9, "write RU {used} exceeds ceiling");
        // Reads are unaffected by the write ceiling.
        let mut r = DualWfq::new(DualWfqConfig {
            write_ru_ceiling: 5.0,
            ..Default::default()
        });
        for _ in 0..100 {
            r.push_cpu(item(1, 1.0));
        }
        let (_, used_r) = r.drain_cpu(CpuTickBudget { ru: 50.0 }, false);
        assert!((used_r - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rule2_concurrency_limit_bounds_scheduled_count() {
        let mut q = DualWfq::new(DualWfqConfig {
            max_reads_per_tick: 3,
            ..Default::default()
        });
        for _ in 0..10 {
            q.push_cpu(item(1, 0.1));
        }
        let (scheduled, _) = q.drain_cpu(CpuTickBudget { ru: 100.0 }, false);
        assert_eq!(scheduled.len(), 3);
        assert_eq!(q.cpu_depth(), 7);
    }

    #[test]
    fn oversized_first_item_still_progresses() {
        let mut q = DualWfq::new(DualWfqConfig::default());
        q.push_cpu(item(1, 100.0));
        let (scheduled, used) = q.drain_cpu(CpuTickBudget { ru: 1.0 }, false);
        assert_eq!(scheduled.len(), 1);
        assert!((used - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rule4_extra_threads_rescue_other_tenants() {
        let mut q = DualWfq::new(DualWfqConfig::default());
        // Tenant 1 monopolizes; tenant 2 queues behind with higher VFTs.
        for _ in 0..50 {
            q.push_io(item(1, 1.0));
        }
        for _ in 0..5 {
            q.push_io(item(2, 1.0));
        }
        // Basic can serve 10 ops; tenant 1's first 10 VFTs (2,4,..20) are all
        // below tenant 2's first (2 because weight .5... both weights equal) —
        // craft the budget so phase 1 is all tenant 1.
        let budget = IoTickBudget {
            basic_iops: 4.0,
            extra_iops: 3.0,
        };
        let (scheduled, total) = q.drain_io(budget);
        let t1 = scheduled.iter().filter(|i| i.tenant == 1).count();
        let t2 = scheduled.iter().filter(|i| i.tenant == 2).count();
        // Interleaving may schedule tenant 2 in phase 1; if not, Rule 4 must.
        assert!(t2 >= 1, "tenant 2 starved: t1={t1}, t2={t2}");
        assert!(total <= 7.0 + 1e-9);
    }

    #[test]
    fn rule4_no_extra_capacity_without_monopoly() {
        let mut q = DualWfq::new(DualWfqConfig::default());
        for _ in 0..10 {
            q.push_io(item(1, 1.0));
            q.push_io(item(2, 1.0));
        }
        let budget = IoTickBudget {
            basic_iops: 4.0,
            extra_iops: 100.0,
        };
        let (scheduled, _) = q.drain_io(budget);
        // Both tenants served in phase 1 ⇒ no monopoly ⇒ extra stays idle.
        assert_eq!(scheduled.len(), 4);
    }

    #[test]
    fn node_scheduler_routes_classes_independently() {
        let mut ns: NodeScheduler<u32> = NodeScheduler::new(NodeSchedulerConfig::default());
        let small_read = ns.classify(false, 100);
        let large_write = ns.classify(true, 1 << 20);
        assert_eq!(small_read, QueueClass::SmallRead);
        assert_eq!(large_write, QueueClass::LargeWrite);
        ns.push_cpu(small_read, item(1, 1.0));
        ns.push_cpu(large_write, item(2, 1.0));
        assert_eq!(ns.cpu_depth(), 2);
        let scheduled = ns.drain_cpu_tick(100.0);
        assert_eq!(scheduled.len(), 2);
        assert_eq!(ns.cpu_depth(), 0);
    }

    #[test]
    fn node_scheduler_is_work_conserving_across_classes() {
        let mut ns: NodeScheduler<u32> = NodeScheduler::new(NodeSchedulerConfig::default());
        // Only small reads queued: they should be able to use ~all of the node
        // budget, not just their 40 % share.
        for _ in 0..100 {
            ns.push_cpu(QueueClass::SmallRead, item(1, 1.0));
        }
        let scheduled = ns.drain_cpu_tick(50.0);
        assert!(
            scheduled.len() >= 49,
            "only {} scheduled of a 50 RU budget",
            scheduled.len()
        );
    }

    #[test]
    fn io_tick_drains_each_class_pool() {
        let mut ns: NodeScheduler<u32> = NodeScheduler::new(NodeSchedulerConfig {
            io_pool: IoThreadPool {
                basic_threads: 1,
                extra_threads: 0,
                iops_per_thread: 2.0,
            },
            ..Default::default()
        });
        for _ in 0..10 {
            ns.push_io(QueueClass::SmallRead, item(1, 1.0));
            ns.push_io(QueueClass::LargeRead, item(1, 1.0));
        }
        let scheduled = ns.drain_io_tick();
        // 2 IOPS per class pool, two classes queued.
        assert_eq!(scheduled.len(), 4);
        assert_eq!(ns.io_depth(), 16);
    }
}
