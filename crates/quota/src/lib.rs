//! # abase-quota
//!
//! The cache-aware Request Unit (RU) model and the hierarchical request
//! restriction of ABase (paper §4.1–4.2).
//!
//! * [`ru`] — RU estimation: `RU_write = r · S/U`, `RU_read = E[S_read] ·
//!   (1 − E[R_hit]) / U` with moving-average estimators, plus the decomposition
//!   of complex operations (`HLen`, `HGetAll`) into estimable stages.
//! * [`bucket`] — virtual-time token buckets, the enforcement primitive.
//! * [`admission`] — the two restriction levels: per-proxy quotas with
//!   asynchronous clawback by the meta server, and per-partition quotas capped
//!   at 3× the partition's share.

#![deny(missing_docs)]

pub mod admission;
pub mod bucket;
pub mod ru;

pub use admission::{PartitionQuota, ProxyQuota, QuotaDecision, TenantQuotaMonitor};
pub use bucket::TokenBucket;
pub use ru::RuEstimator;
