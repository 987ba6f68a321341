//! Admission and charging, once for both DataNodes — the simulated one
//! (`abase_sim::node`) and the serving one ([`crate::serving`], where each
//! tenant is one partition):
//!
//! ```text
//! admit(partition, request)  §4.1 estimate → §4.2 partition quota (3×) → estimate | Throttled
//! settle(partition, served)  §4.1 charge by actual size and cache outcome → the estimator learns
//! weight(partition)          wPartition: the partition's share of the node's quota (WFQ weight)
//! ```
//!
//! An unregistered partition is admitted and charged at the estimator's
//! priors; while none is registered, neither call takes a lock.

use crate::types::{PartitionId, TenantId};
use abase_proto::{Command, CommandKind};
use abase_quota::ru::{charge_read, write_ru, ReadOutcome};
use abase_quota::{PartitionQuota, QuotaDecision, RuEstimator};
use abase_util::clock::SimTime;
use abase_util::lockrank::{rank, RankedMutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// What §4.1 prices a request as before it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// A point read (`GET`, `EXISTS`, `HGET`).
    Read,
    /// `HLEN`: a lookup that grows with the hash's length.
    HashLen,
    /// `HGETALL`: `HLEN` followed by a scan of the hash.
    HashScan,
    /// A write of this many payload bytes.
    Write(usize),
}

impl Request {
    /// How `command` is priced; `None` for control verbs (`PING`, `INFO`,
    /// `WAIT`, …), which are neither admitted nor charged.
    pub fn of<B: AsRef<[u8]>>(command: &Command<B>) -> Option<Self> {
        match command.kind() {
            CommandKind::SimpleRead => Some(Request::Read),
            CommandKind::ComplexRead if matches!(command, Command::HLen { .. }) => {
                Some(Request::HashLen)
            }
            CommandKind::ComplexRead => Some(Request::HashScan),
            CommandKind::Write => Some(Request::Write(command.payload_size())),
            CommandKind::Control => None,
        }
    }
}

/// What a request turned out to be: §4.1 charges by this, not the estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served {
    /// A read: the bytes it returned, and whether a cache answered.
    Read(usize, ReadOutcome),
    /// `HGETALL`: the fields and bytes it returned, and whether a cache
    /// answered.
    HashScan(usize, usize, ReadOutcome),
    /// A write of this many payload bytes.
    Write(usize),
}

/// A request its partition's quota refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throttled;

#[derive(Debug)]
struct Partition {
    tenant: TenantId,
    quota: PartitionQuota,
    ru: RuEstimator,
}

/// One node's admission and charging state (see the module docs).
#[derive(Debug)]
pub struct Pipeline {
    /// `r`: the copies a write is charged for.
    replicas: u32,
    /// Estimates the requests of unregistered partitions.
    priors: RuEstimator,
    /// Whether any partition is registered.
    bound: AtomicBool,
    /// Ordered, so `weight` sums the quotas in the same order every run.
    partitions: RankedMutex<BTreeMap<PartitionId, Partition>>,
}

impl Pipeline {
    /// A pipeline with no partition registered, charging each write for
    /// `replicas` copies.
    pub fn new(replicas: u32) -> Self {
        Self {
            replicas,
            priors: RuEstimator::default(),
            bound: AtomicBool::new(false),
            partitions: RankedMutex::new(rank::CORE_PIPELINE, BTreeMap::new()),
        }
    }

    /// Register `partition`, owned by `tenant`, with a quota of `quota_ru`
    /// RU/s from time 0 (enforced at three times that, §4.2).
    pub fn add_partition(&self, partition: PartitionId, tenant: TenantId, quota_ru: f64) {
        let quota = PartitionQuota::new(quota_ru, 0);
        let ru = RuEstimator::default();
        let entry = Partition { tenant, quota, ru };
        self.partitions.lock().insert(partition, entry);
        self.bound.store(true, Ordering::Relaxed);
    }

    /// Switch `partition`'s quota enforcement on or off (Figure 7's phases).
    pub fn set_partition_quota_enabled(&self, partition: PartitionId, enabled: bool) {
        if let Some(p) = self.partitions.lock().get_mut(&partition) {
            p.quota.set_enabled(enabled);
        }
    }

    /// The tenant owning `partition`, if it is registered.
    pub fn tenant(&self, partition: PartitionId) -> Option<TenantId> {
        self.partitions.lock().get(&partition).map(|p| p.tenant)
    }

    /// §4.1's estimate of `request`, charged against `partition`'s quota at
    /// `now`: the estimate, or [`Throttled`] when it would take the
    /// partition past three times its quota.
    pub fn admit(
        &self,
        partition: PartitionId,
        request: Request,
        now: SimTime,
    ) -> Result<f64, Throttled> {
        if !self.bound.load(Ordering::Relaxed) {
            return Ok(self.estimate(&self.priors, request));
        }
        let mut partitions = self.partitions.lock();
        let Some(p) = partitions.get_mut(&partition) else {
            return Ok(self.estimate(&self.priors, request));
        };
        let ru = self.estimate(&p.ru, request);
        match p.quota.admit(now, ru) {
            QuotaDecision::Admit => Ok(ru),
            QuotaDecision::Reject => Err(Throttled),
        }
    }

    fn estimate(&self, ru: &RuEstimator, request: Request) -> f64 {
        match request {
            Request::Read => ru.estimate_read_ru(),
            Request::HashLen => ru.estimate_hlen_ru(),
            Request::HashScan => ru.estimate_hgetall_ru(),
            Request::Write(bytes) => write_ru(bytes, self.replicas),
        }
    }

    /// The RU `served` costs (§4.1: actual size, actual cache outcome). A
    /// registered partition's estimator learns the read's size and outcome,
    /// or the scanned hash's shape.
    pub fn settle(&self, partition: PartitionId, served: Served) -> f64 {
        if self.bound.load(Ordering::Relaxed) {
            if let Some(p) = self.partitions.lock().get_mut(&partition) {
                match served {
                    Served::Read(bytes, outcome) => p.ru.record_read(bytes, outcome),
                    Served::HashScan(fields @ 1.., bytes, _) => {
                        p.ru.record_hash_shape(fields, bytes / fields)
                    }
                    Served::HashScan(..) | Served::Write(_) => {}
                }
            }
        }
        match served {
            Served::Read(bytes, outcome) | Served::HashScan(_, bytes, outcome) => {
                charge_read(bytes, outcome)
            }
            Served::Write(bytes) => write_ru(bytes, self.replicas),
        }
    }

    /// wPartition: `partition`'s share of the quota of every registered
    /// partition — its requests' weight in the WFQ.
    pub fn weight(&self, partition: PartitionId) -> f64 {
        let partitions = self.partitions.lock();
        let total: f64 = partitions.values().map(|p| p.quota.partition_quota()).sum();
        let own = partitions
            .get(&partition)
            .map_or(1.0, |p| p.quota.partition_quota());
        if total <= 0.0 {
            1.0
        } else {
            (own / total).clamp(1e-6, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::clock::secs;

    #[test]
    fn unregistered_partitions_are_admitted_at_the_priors() {
        let p = Pipeline::new(3);
        assert_eq!(p.admit(7, Request::Read, 0), Ok(1.0));
        assert_eq!(p.admit(7, Request::Write(2048), 0), Ok(3.0));
        let hit = Served::Read(4096, ReadOutcome::NodeCacheHit);
        assert!((p.settle(7, hit) - 0.6).abs() < 1e-12);
        assert_eq!(p.tenant(7), None);
        assert_eq!(p.weight(7), 1.0);
    }

    #[test]
    fn the_quota_throttles_past_three_times_and_refills() {
        let p = Pipeline::new(1);
        p.add_partition(1, 9, 10.0);
        assert_eq!(p.tenant(1), Some(9));
        // 30 RU of burst, one 2 KiB write (1 RU) at a time.
        let admitted = (0..100)
            .filter(|_| p.admit(1, Request::Write(2048), 0).is_ok())
            .count();
        assert_eq!(admitted, 30);
        assert_eq!(p.admit(1, Request::Write(2048), 0), Err(Throttled));
        assert_eq!(p.admit(1, Request::Write(2048), secs(1)), Ok(1.0));
        p.set_partition_quota_enabled(1, false);
        assert!((0..100).all(|_| p.admit(1, Request::Write(2048), secs(1)).is_ok()));
    }

    #[test]
    fn settled_reads_and_hash_shapes_move_the_estimates() {
        let p = Pipeline::new(1);
        p.add_partition(1, 9, 1e9);
        let read = |p: &Pipeline| p.admit(1, Request::Read, 0).unwrap();
        let scan = |p: &Pipeline| p.admit(1, Request::HashScan, 0).unwrap();
        assert!(scan(&p) < read(&p), "priors: a small hash, a 2 KiB read");
        for _ in 0..50 {
            p.settle(1, Served::Read(4096, ReadOutcome::Miss));
            p.settle(1, Served::HashScan(100, 100 * 200, ReadOutcome::Miss));
        }
        assert!((read(&p) - 2.0).abs() < 1e-9);
        assert!(scan(&p) > read(&p), "a 100-field hash outweighs a read");
        assert!(p.admit(1, Request::HashLen, 0).unwrap() < read(&p));
    }

    #[test]
    fn weight_is_the_share_of_registered_quota() {
        let p = Pipeline::new(1);
        p.add_partition(1, 1, 300.0);
        p.add_partition(2, 2, 100.0);
        assert!((p.weight(1) - 0.75).abs() < 1e-12);
        assert!((p.weight(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn commands_are_priced_by_kind() {
        type Cmd = Command<&'static [u8]>;
        let get: Cmd = Command::Get { key: b"k" };
        let set: Cmd = Command::Set {
            key: b"k",
            value: b"value",
            ttl_secs: None,
        };
        assert_eq!(Request::of(&get), Some(Request::Read));
        assert_eq!(Request::of(&set), Some(Request::Write(6)));
        assert_eq!(
            Request::of::<&[u8]>(&Command::HLen { key: b"h" }),
            Some(Request::HashLen)
        );
        assert_eq!(
            Request::of::<&[u8]>(&Command::HGetAll { key: b"h" }),
            Some(Request::HashScan)
        );
        assert_eq!(Request::of::<&[u8]>(&Command::Ping), None);
    }
}
