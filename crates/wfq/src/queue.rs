//! The core weighted fair queue: a min-heap over virtual finish times.
//!
//! "WFQ acts as a min-heap to prioritize requests with the customized smallest
//! virtual finish time (VFT)" (§4.3). The VFT of a request from tenant `T` is
//!
//! ```text
//! wPartition(Q_i) = Q_i / Σ Q_p            // partition's share of node quota
//! wReqCost(Q_i)   = Cost(Q_i) / wPartition(Q_i)
//! VFT(Q_i)        = preVFT_T + wReqCost(Q_i)
//! ```
//!
//! i.e. costs are scaled down for tenants holding a larger share of the node's
//! quota, and VFTs accumulate per tenant so no tenant is "consistently
//! prioritized high, even if that tenant has a larger partition quota or lower
//! request costs".

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Identifier for the tenant (or partition) owning a queued request.
pub type TenantId = u32;

/// A request queued for fair scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct WfqItem<T> {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Scheduling cost: RU in the CPU-WFQ, IOPS in the I/O-WFQ (Rule 1).
    pub cost: f64,
    /// The tenant's weight — its share of the node's total partition quota
    /// (`wPartition`), in `(0, 1]`.
    pub weight: f64,
    /// Caller payload carried through scheduling.
    pub payload: T,
}

#[derive(Debug)]
struct HeapEntry<T> {
    vft: f64,
    /// FIFO tie-break so equal VFTs pop in arrival order (determinism).
    seq: u64,
    item: WfqItem<T>,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.vft == other.vft && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-VFT-first.
        other
            .vft
            .partial_cmp(&self.vft)
            .expect("VFT is finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A weighted fair queue over per-tenant cumulative virtual finish times.
#[derive(Debug)]
pub struct WfqQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    /// preVFT per tenant: the finish time of the tenant's last enqueued request.
    tenant_vft: HashMap<TenantId, f64>,
    /// Queue virtual time: advances to the VFT of each dequeued request.
    virtual_time: f64,
    seq: u64,
    /// Count of items per tenant currently queued.
    tenant_depth: HashMap<TenantId, usize>,
}

impl<T> Default for WfqQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WfqQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            tenant_vft: HashMap::new(),
            virtual_time: 0.0,
            seq: 0,
            tenant_depth: HashMap::new(),
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queued requests belonging to `tenant`.
    pub fn tenant_depth(&self, tenant: TenantId) -> usize {
        self.tenant_depth.get(&tenant).copied().unwrap_or(0)
    }

    /// Number of distinct tenants with queued requests.
    pub fn distinct_tenants(&self) -> usize {
        self.tenant_depth.len()
    }

    /// Current queue virtual time.
    // LINT: allow(A008): tests/property_based.rs
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    /// Enqueue a request, computing its VFT from the tenant's cumulative
    /// virtual time and the quota-weighted cost.
    ///
    /// # Panics
    /// Panics if `weight` is not in `(0, 1]` or `cost` is negative/NaN.
    pub fn push(&mut self, item: WfqItem<T>) {
        assert!(
            item.weight > 0.0 && item.weight <= 1.0,
            "weight must be in (0, 1]"
        );
        assert!(item.cost >= 0.0, "cost must be non-negative");
        let w_req_cost = item.cost / item.weight;
        // A tenant idle since before the current virtual time restarts at the
        // queue's virtual time (standard WFQ); an active tenant accumulates.
        let pre = self
            .tenant_vft
            .get(&item.tenant)
            .copied()
            .unwrap_or(self.virtual_time)
            .max(self.virtual_time);
        let vft = pre + w_req_cost;
        self.tenant_vft.insert(item.tenant, vft);
        *self.tenant_depth.entry(item.tenant).or_insert(0) += 1;
        self.heap.push(HeapEntry {
            vft,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Dequeue the request with the smallest VFT.
    pub fn pop(&mut self) -> Option<WfqItem<T>> {
        let entry = self.heap.pop()?;
        self.virtual_time = self.virtual_time.max(entry.vft);
        self.note_removed(entry.item.tenant);
        Some(entry.item)
    }

    /// Dequeue the lowest-VFT request whose tenant satisfies `eligible`.
    ///
    /// Ineligible requests keep their original VFT and remain queued (they are
    /// temporarily set aside and restored). Used for Rule 3's 90 % single-tenant
    /// cap: when one tenant has consumed its share for this tick, the scheduler
    /// skips it but must not reorder or re-price its queued work.
    pub fn pop_eligible(
        &mut self,
        mut eligible: impl FnMut(TenantId) -> bool,
    ) -> Option<WfqItem<T>> {
        let mut set_aside = Vec::new();
        let mut found = None;
        while let Some(entry) = self.heap.pop() {
            if eligible(entry.item.tenant) {
                found = Some(entry);
                break;
            }
            set_aside.push(entry);
        }
        for entry in set_aside {
            self.heap.push(entry);
        }
        let entry = found?;
        self.virtual_time = self.virtual_time.max(entry.vft);
        self.note_removed(entry.item.tenant);
        Some(entry.item)
    }

    /// Peek at the smallest-VFT request without removing it.
    pub fn peek(&self) -> Option<&WfqItem<T>> {
        self.heap.peek().map(|e| &e.item)
    }

    fn note_removed(&mut self, tenant: TenantId) {
        if let Some(d) = self.tenant_depth.get_mut(&tenant) {
            *d -= 1;
            if *d == 0 {
                self.tenant_depth.remove(&tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(tenant: TenantId, cost: f64, weight: f64) -> WfqItem<u32> {
        WfqItem {
            tenant,
            cost,
            weight,
            payload: 0,
        }
    }

    #[test]
    fn equal_weights_interleave_fairly() {
        let mut q = WfqQueue::new();
        // Tenant 1 floods 6 requests; tenant 2 enqueues 3. Equal weights and
        // costs: dequeue order must interleave rather than drain tenant 1 first.
        for _ in 0..6 {
            q.push(item(1, 1.0, 0.5));
        }
        for _ in 0..3 {
            q.push(item(2, 1.0, 0.5));
        }
        let order: Vec<_> = (0..9).map(|_| q.pop().unwrap().tenant).collect();
        // First six pops must contain all three tenant-2 requests.
        let t2_in_first6 = order[..6].iter().filter(|&&t| t == 2).count();
        assert_eq!(t2_in_first6, 3, "order={order:?}");
    }

    #[test]
    fn higher_weight_gets_proportionally_more_service() {
        let mut q = WfqQueue::new();
        // Tenant 1 has 3x the weight of tenant 2; both flood.
        for _ in 0..40 {
            q.push(item(1, 1.0, 0.75));
            q.push(item(2, 1.0, 0.25));
        }
        let first20: Vec<_> = (0..20).map(|_| q.pop().unwrap().tenant).collect();
        let t1 = first20.iter().filter(|&&t| t == 1).count();
        // Expect roughly 3:1 service (15 of 20), allow slack of 1.
        assert!((14..=16).contains(&t1), "t1 got {t1} of 20: {first20:?}");
    }

    #[test]
    fn cumulative_vft_prevents_low_cost_monopoly() {
        let mut q = WfqQueue::new();
        // Tenant 1 sends many tiny requests, tenant 2 one large request.
        // Tenant 2's request must not starve behind all of tenant 1's.
        for _ in 0..100 {
            q.push(item(1, 0.1, 0.5));
        }
        q.push(item(2, 5.0, 0.5));
        let mut pos = None;
        for i in 0..101 {
            if q.pop().unwrap().tenant == 2 {
                pos = Some(i);
                break;
            }
        }
        // VFT of tenant 2 = 10.0 (5.0/0.5); tenant 1's requests reach VFT 10
        // after 50 requests (0.1/0.5 each). So tenant 2 pops around index 50.
        let pos = pos.expect("tenant 2 scheduled");
        assert!((45..=55).contains(&pos), "tenant 2 scheduled at {pos}");
    }

    #[test]
    fn idle_tenant_rejoins_at_queue_virtual_time() {
        let mut q = WfqQueue::new();
        for _ in 0..10 {
            q.push(item(1, 1.0, 0.5));
        }
        for _ in 0..10 {
            q.pop();
        }
        // Tenant 2 was idle the whole time; its first request must not be
        // back-dated to VFT 0 (which would let it burst ahead unfairly *and*
        // must not be penalized by tenant 1's accumulated VFT).
        q.push(item(2, 1.0, 0.5));
        q.push(item(1, 1.0, 0.5));
        // Tenant 1 resumes from its accumulated VFT (20.0); tenant 2 starts at
        // the queue virtual time (20.0). Tenant 2 arrived first with equal VFT
        // base, so it pops first on cost parity.
        assert_eq!(q.pop().unwrap().tenant, 2);
    }

    #[test]
    fn pop_eligible_skips_but_preserves_queue() {
        let mut q = WfqQueue::new();
        q.push(item(1, 1.0, 0.5));
        q.push(item(2, 2.0, 0.5));
        // Skip tenant 1.
        let got = q.pop_eligible(|t| t != 1).unwrap();
        assert_eq!(got.tenant, 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().tenant, 1);
    }

    #[test]
    fn pop_eligible_returns_none_when_no_tenant_qualifies() {
        let mut q = WfqQueue::new();
        q.push(item(1, 1.0, 0.5));
        assert!(q.pop_eligible(|_| false).is_none());
        assert_eq!(q.len(), 1, "ineligible item must remain queued");
    }

    #[test]
    fn fifo_tie_break_is_deterministic() {
        let mut q = WfqQueue::new();
        q.push(WfqItem {
            tenant: 1,
            cost: 1.0,
            weight: 1.0,
            payload: 10,
        });
        q.push(WfqItem {
            tenant: 2,
            cost: 1.0,
            weight: 1.0,
            payload: 20,
        });
        // Equal VFT (both 1.0): arrival order wins.
        assert_eq!(q.pop().unwrap().payload, 10);
        assert_eq!(q.pop().unwrap().payload, 20);
    }

    #[test]
    fn tenant_depth_tracks_queue_contents() {
        let mut q = WfqQueue::new();
        q.push(item(7, 1.0, 0.5));
        q.push(item(7, 1.0, 0.5));
        assert_eq!(q.tenant_depth(7), 2);
        q.pop();
        assert_eq!(q.tenant_depth(7), 1);
        q.pop();
        assert_eq!(q.tenant_depth(7), 0);
    }

    #[test]
    #[should_panic(expected = "weight must be in (0, 1]")]
    fn zero_weight_rejected() {
        let mut q = WfqQueue::new();
        q.push(item(1, 1.0, 0.0));
    }

    #[test]
    fn virtual_time_monotone() {
        let mut q = WfqQueue::new();
        q.push(item(1, 3.0, 1.0));
        q.push(item(2, 1.0, 1.0));
        let mut last = 0.0;
        while q.pop().is_some() {
            assert!(q.virtual_time() >= last);
            last = q.virtual_time();
        }
    }
}
