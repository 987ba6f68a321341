//! # abase-scheduler
//!
//! ABase's workload management (paper §5): the predictive autoscaling policy
//! of Algorithm 1 and the multi-resource rescheduling of Algorithm 2.
//!
//! * [`autoscale`] — the scaling policy: forecast `U_max` for the next 7 days;
//!   scale up when it exceeds 85 % of the tenant quota (to `U_max / 0.65`),
//!   scale down below 65 % with a 7-day cool-off, split partitions whose quota
//!   exceeds the upper bound, and floor partition quotas at `LOWER`.
//! * [`load`] — the load indicators: 24-slot hour-of-day load vectors for
//!   replicas, data nodes, and resource pools; the optimal load point `⟨R,S⟩`;
//!   the L2-norm deviation loss; and the migration gain function.
//! * [`reschedule`] — intra-pool rescheduling: gain-maximizing replica
//!   migration between high- and low-load nodes (Algorithm 2 verbatim).
//!
//! Two §5.3 mechanisms are not reproduced, because no experiment runs them:
//! the per-tenant replica-count balancing that precedes Algorithm 2, and the
//! inter-pool extension of the section's last paragraph (vacate nodes of an
//! underloaded pool and reassign them to an overloaded one).

#![deny(missing_docs)]

pub mod autoscale;
pub mod load;
pub mod reschedule;

pub use autoscale::{AutoscaleConfig, Autoscaler, ScalingDecision};
pub use load::{LoadVector, NodeState, PoolState, ReplicaLoad};
pub use reschedule::{Migration, Rescheduler, ReschedulerConfig};
