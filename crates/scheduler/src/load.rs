//! Load indicators for rescheduling (paper §5.3, items 1–3).
//!
//! Replica load is a 24-slot hour-of-day vector (hourly averages over 7 days,
//! max-aggregated per hour of day). Node and pool loads are element-wise sums
//! whose **maximum slot** is the scalar load. The optimal point `⟨R,S⟩`
//! normalizes pool load by pool capacity; a node's deviation from it is an
//! L2 loss; a migration's gain is the reduction in the max loss of the two
//! nodes involved.

/// A 24-slot hour-of-day load vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadVector(pub [f64; 24]);

impl LoadVector {
    /// The zero vector.
    fn zero() -> Self {
        LoadVector([0.0; 24])
    }

    /// A flat vector (constant load — how storage behaves hour to hour).
    pub fn flat(value: f64) -> Self {
        LoadVector([value; 24])
    }

    /// Element-wise addition.
    pub fn add(&mut self, other: &LoadVector) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, other: &LoadVector) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a -= b;
        }
    }

    /// Scale every slot by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for a in self.0.iter_mut() {
            *a *= factor;
        }
    }

    /// `DN^ld = max_i Σ RE^ld_i` — the scalar load of the vector.
    pub fn peak(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean slot value.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / 24.0
    }
}

/// The load of one replica in both resource dimensions.
///
/// RU is carried **split into read and write shares**: with consistency-aware
/// routing, follower replicas absorb read RU the leader never sees, so the
/// rescheduler's loss function and the autoscaler's `LoadVector` must account
/// reads where they were actually served — the combined vector
/// ([`ReplicaLoad::ru`]) is what Algorithm 2 weighs, the split is what read
/// routing and scaling policies reason about.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaLoad {
    /// Unique replica id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Partition the replica belongs to (two replicas of one partition must
    /// not share a node).
    pub partition: u64,
    /// Read-RU load vector (reads served *by this replica* — leader reads on
    /// a leader, routed follower reads on a follower).
    pub read_ru: LoadVector,
    /// Write-RU load vector (every replica of a group applies each write).
    pub write_ru: LoadVector,
    /// Storage footprint in bytes (flat across hours).
    pub storage: f64,
}

impl ReplicaLoad {
    /// A replica load from split read/write RU vectors.
    pub fn split(
        id: u64,
        tenant: u32,
        partition: u64,
        read_ru: LoadVector,
        write_ru: LoadVector,
        storage: f64,
    ) -> Self {
        Self {
            id,
            tenant,
            partition,
            read_ru,
            write_ru,
            storage,
        }
    }

    /// A replica load from a combined RU vector and the read share of it in
    /// `[0, 1]` — for callers that only track totals. The split is an
    /// attribution; the combined vector (what the loss function weighs) is
    /// preserved exactly.
    pub fn from_total(
        id: u64,
        tenant: u32,
        partition: u64,
        ru: LoadVector,
        read_share: f64,
        storage: f64,
    ) -> Self {
        let mut read_ru = ru;
        read_ru.scale(read_share.clamp(0.0, 1.0));
        let mut write_ru = ru;
        write_ru.scale(1.0 - read_share.clamp(0.0, 1.0));
        Self {
            id,
            tenant,
            partition,
            read_ru,
            write_ru,
            storage,
        }
    }

    /// The combined RU vector ("incorporates the weighted factors of read
    /// RU, write RU and the cache hit ratio").
    pub fn ru(&self) -> LoadVector {
        let mut v = self.read_ru;
        v.add(&self.write_ru);
        v
    }
}

/// One data node and its replicas.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Node id.
    pub id: u32,
    /// RU/s capacity.
    pub ru_capacity: f64,
    /// Storage capacity in bytes.
    pub storage_capacity: f64,
    /// True while a replica migration involving this node is in flight.
    pub is_migrating: bool,
    /// Hosted replicas.
    pub replicas: Vec<ReplicaLoad>,
    read_ru_load: LoadVector,
    write_ru_load: LoadVector,
    storage_load: f64,
}

impl NodeState {
    /// An empty node.
    pub fn new(id: u32, ru_capacity: f64, storage_capacity: f64) -> Self {
        Self {
            id,
            ru_capacity,
            storage_capacity,
            is_migrating: false,
            replicas: Vec::new(),
            read_ru_load: LoadVector::zero(),
            write_ru_load: LoadVector::zero(),
            storage_load: 0.0,
        }
    }

    /// Host a replica.
    pub fn add_replica(&mut self, replica: ReplicaLoad) {
        self.read_ru_load.add(&replica.read_ru);
        self.write_ru_load.add(&replica.write_ru);
        self.storage_load += replica.storage;
        self.replicas.push(replica);
    }

    /// Remove a replica by id.
    pub fn remove_replica(&mut self, id: u64) -> Option<ReplicaLoad> {
        let pos = self.replicas.iter().position(|r| r.id == id)?;
        let replica = self.replicas.remove(pos);
        self.read_ru_load.sub(&replica.read_ru);
        self.write_ru_load.sub(&replica.write_ru);
        self.storage_load -= replica.storage;
        Some(replica)
    }

    /// The node's combined RU load vector (read + write).
    fn ru_load_vector(&self) -> LoadVector {
        let mut v = self.read_ru_load;
        v.add(&self.write_ru_load);
        v
    }

    /// The node's read-RU load vector — what follower-read routing adds to a
    /// node and what a read-aware autoscaler watches.
    // LINT: allow(A008): tests/read_routing.rs
    pub fn read_ru_vector(&self) -> LoadVector {
        self.read_ru_load
    }

    /// True if the node hosts a replica of `partition`.
    pub fn hosts_partition(&self, partition: u64) -> bool {
        self.replicas.iter().any(|r| r.partition == partition)
    }

    /// Peak-hour RU load (read + write).
    // LINT: allow(A008): tests/read_routing.rs
    pub fn ru_load(&self) -> f64 {
        if self.replicas.is_empty() {
            0.0
        } else {
            self.ru_load_vector().peak()
        }
    }

    /// RU utilization in `[0, …)`.
    pub fn ru_util(&self) -> f64 {
        self.ru_load() / self.ru_capacity
    }

    /// Storage utilization in `[0, …)`.
    pub fn storage_util(&self) -> f64 {
        self.storage_load / self.storage_capacity
    }

    /// L2-norm deviation from the optimal point `(r, s)`:
    /// `L(DN) = √((ru_util − R)² + (sto_util − S)²)`.
    pub fn loss(&self, r: f64, s: f64) -> f64 {
        let dr = self.ru_util() - r;
        let ds = self.storage_util() - s;
        (dr * dr + ds * ds).sqrt()
    }

    /// Loss if `replica` were removed.
    pub fn loss_without(&self, replica: &ReplicaLoad, r: f64, s: f64) -> f64 {
        let mut ru = self.ru_load_vector();
        ru.sub(&replica.ru());
        let ru_util = ru.peak().max(0.0) / self.ru_capacity;
        let sto_util = (self.storage_load - replica.storage) / self.storage_capacity;
        let dr = ru_util - r;
        let ds = sto_util - s;
        (dr * dr + ds * ds).sqrt()
    }

    /// Loss if `replica` were added.
    pub fn loss_with(&self, replica: &ReplicaLoad, r: f64, s: f64) -> f64 {
        let mut ru = self.ru_load_vector();
        ru.add(&replica.ru());
        let ru_util = ru.peak() / self.ru_capacity;
        let sto_util = (self.storage_load + replica.storage) / self.storage_capacity;
        let dr = ru_util - r;
        let ds = sto_util - s;
        (dr * dr + ds * ds).sqrt()
    }

    /// RU utilization if `replica` were added.
    pub fn ru_util_with(&self, replica: &ReplicaLoad) -> f64 {
        let mut ru = self.ru_load_vector();
        ru.add(&replica.ru());
        ru.peak() / self.ru_capacity
    }

    /// Storage utilization if `replica` were added.
    pub fn storage_util_with(&self, replica: &ReplicaLoad) -> f64 {
        (self.storage_load + replica.storage) / self.storage_capacity
    }
}

/// A resource pool: a set of data nodes.
#[derive(Debug, Clone, Default)]
pub struct PoolState {
    /// The pool's nodes.
    pub nodes: Vec<NodeState>,
}

impl PoolState {
    /// A pool from nodes.
    pub fn new(nodes: Vec<NodeState>) -> Self {
        Self { nodes }
    }

    /// The optimal load point `⟨R,S⟩ = (RP^ld_ru / RP^cap_ru, RP^ld_sto / RP^cap_sto)`.
    pub fn optimal_load(&self) -> (f64, f64) {
        let mut ru_load = LoadVector::zero();
        let mut sto_load = 0.0;
        let mut ru_cap = 0.0;
        let mut sto_cap = 0.0;
        for node in &self.nodes {
            for replica in &node.replicas {
                ru_load.add(&replica.ru());
                sto_load += replica.storage;
            }
            ru_cap += node.ru_capacity;
            sto_cap += node.storage_capacity;
        }
        let r = if ru_cap > 0.0 {
            ru_load.peak().max(0.0) / ru_cap
        } else {
            0.0
        };
        let s = if sto_cap > 0.0 {
            sto_load / sto_cap
        } else {
            0.0
        };
        (r, s)
    }

    /// Standard deviation of per-node RU utilization.
    pub fn ru_util_std(&self) -> f64 {
        std_dev(self.nodes.iter().map(NodeState::ru_util))
    }

    /// Standard deviation of per-node storage utilization.
    pub fn storage_util_std(&self) -> f64 {
        std_dev(self.nodes.iter().map(NodeState::storage_util))
    }

    /// Max per-node RU utilization.
    pub fn max_ru_util(&self) -> f64 {
        self.nodes
            .iter()
            .map(NodeState::ru_util)
            .fold(0.0, f64::max)
    }

    /// Mean per-node RU utilization.
    pub fn mean_ru_util(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(NodeState::ru_util).sum::<f64>() / self.nodes.len() as f64
    }

    /// Mark one migration complete: clear the in-flight flag on exactly the
    /// two nodes it involved. Flags are set per migration by
    /// `Rescheduler::reschedule_round` and cleared per migration here — by
    /// the engine's completion callback in a live cluster, by the modeled
    /// copy-duration expiry in offline simulations — never wholesale per
    /// round: a slow move must keep blocking its nodes across rounds.
    pub fn complete_migration(&mut self, from_node: u32, to_node: u32) {
        for node in &mut self.nodes {
            if node.id == from_node || node.id == to_node {
                node.is_migrating = false;
            }
        }
    }

    /// Total replicas across nodes.
    pub fn replica_count(&self) -> usize {
        self.nodes.iter().map(|n| n.replicas.len()).sum()
    }
}

fn std_dev(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.len() < 2 {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(id: u64, tenant: u32, partition: u64, ru_peak: f64, storage: f64) -> ReplicaLoad {
        let mut ru = [0.0; 24];
        ru[12] = ru_peak; // peak at noon
        ru[0] = ru_peak / 2.0;
        ReplicaLoad::from_total(id, tenant, partition, LoadVector(ru), 0.7, storage)
    }

    #[test]
    fn load_vector_ops() {
        let mut a = LoadVector::flat(1.0);
        a.add(&LoadVector::flat(2.0));
        assert_eq!(a.peak(), 3.0);
        assert_eq!(a.mean(), 3.0);
        a.sub(&LoadVector::flat(1.0));
        assert_eq!(a.peak(), 2.0);
        a.scale(0.5);
        assert_eq!(a.peak(), 1.0);
    }

    #[test]
    fn replica_load_split_preserves_the_total() {
        let re = replica(1, 1, 1, 40.0, 10.0);
        // from_total(0.7): reads take 70% of every slot, writes the rest.
        assert!((re.read_ru.peak() - 28.0).abs() < 1e-12);
        assert!((re.write_ru.peak() - 12.0).abs() < 1e-12);
        assert!((re.ru().peak() - 40.0).abs() < 1e-12);
        // A follower that takes routed reads but no client writes.
        let follower =
            ReplicaLoad::split(2, 1, 2, LoadVector::flat(30.0), LoadVector::flat(5.0), 10.0);
        assert_eq!(follower.ru().peak(), 35.0);
        let mut n = NodeState::new(1, 100.0, 100.0);
        n.add_replica(follower);
        assert_eq!(n.read_ru_vector().peak(), 30.0);
        assert_eq!(n.write_ru_load.peak(), 5.0);
        assert_eq!(n.ru_load(), 35.0);
    }

    #[test]
    fn node_accounting_add_remove() {
        let mut n = NodeState::new(1, 100.0, 1000.0);
        n.add_replica(replica(1, 7, 70, 40.0, 500.0));
        n.add_replica(replica(2, 8, 80, 20.0, 100.0));
        assert_eq!(n.ru_load(), 60.0);
        assert_eq!(n.storage_load, 600.0);
        assert!((n.ru_util() - 0.6).abs() < 1e-12);
        assert!(n.hosts_partition(70));
        let r = n.remove_replica(1).unwrap();
        assert_eq!(r.tenant, 7);
        assert_eq!(n.ru_load(), 20.0);
        assert!(!n.hosts_partition(70));
        assert!(n.remove_replica(99).is_none());
    }

    #[test]
    fn loss_is_distance_from_optimal() {
        let mut n = NodeState::new(1, 100.0, 100.0);
        n.add_replica(replica(1, 1, 1, 80.0, 30.0));
        // util = (0.8, 0.3); optimal (0.5, 0.5) → loss = sqrt(0.09+0.04).
        assert!((n.loss(0.5, 0.5) - 0.130f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn hypothetical_losses_match_actual_moves() {
        let mut src = NodeState::new(1, 100.0, 100.0);
        let mut dst = NodeState::new(2, 100.0, 100.0);
        let re = replica(1, 1, 1, 40.0, 20.0);
        src.add_replica(re.clone());
        let (r, s) = (0.2, 0.1);
        let predicted_src = src.loss_without(&re, r, s);
        let predicted_dst = dst.loss_with(&re, r, s);
        // Actually move it.
        let moved = src.remove_replica(1).unwrap();
        dst.add_replica(moved);
        assert!((src.loss(r, s) - predicted_src).abs() < 1e-12);
        assert!((dst.loss(r, s) - predicted_dst).abs() < 1e-12);
    }

    #[test]
    fn optimal_load_normalizes_by_capacity() {
        let mut n1 = NodeState::new(1, 100.0, 1000.0);
        let mut n2 = NodeState::new(2, 300.0, 1000.0);
        n1.add_replica(replica(1, 1, 1, 100.0, 500.0));
        n2.add_replica(replica(2, 1, 2, 100.0, 500.0));
        let pool = PoolState::new(vec![n1, n2]);
        let (r, s) = pool.optimal_load();
        // Pool RU peak = 200 over capacity 400 → 0.5; storage 1000/2000 → 0.5.
        assert!((r - 0.5).abs() < 1e-12);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pool_std_reflects_imbalance() {
        let mut hot = NodeState::new(1, 100.0, 100.0);
        hot.add_replica(replica(1, 1, 1, 90.0, 10.0));
        let cold = NodeState::new(2, 100.0, 100.0);
        let pool = PoolState::new(vec![hot, cold]);
        assert!(pool.ru_util_std() > 0.4);
        assert!((pool.max_ru_util() - 0.9).abs() < 1e-12);
        assert!((pool.mean_ru_util() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn empty_node_has_zero_load() {
        let n = NodeState::new(1, 100.0, 100.0);
        assert_eq!(n.ru_load(), 0.0);
        assert_eq!(n.ru_util(), 0.0);
    }
}
