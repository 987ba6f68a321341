//! # abase-sim
//!
//! The paper-evaluation simulator: minutes of virtual time and many tenants
//! over cost models of ABase's DataNode and proxy plane, plus an in-process
//! replicated cluster of real replica groups. The figures, chaos's Table-1
//! episodes and the cluster tests drive it. `abase-server` runs none of it;
//! admission and charging come from `abase-core`'s shipped
//! [`abase_core::pipeline`], and a replicated read's replica pick from
//! `abase-replication`'s [`abase_replication::ReplicaGroup::read_routed`].
//!
//! Module map:
//!
//! * [`types`] — node and proxy ids, and the simulated request types.
//! * [`node`] — `DataNodeSim`, the Figure-2 cost model behind Figures 5–7:
//!   the pipeline's admission → four dual-layer WFQs → SA-LRU cache → I/O
//!   cost model, driven in virtual-time ticks.
//! * [`proxy`] — the tenant proxy plane: AU-LRU proxy cache, proxy quotas with
//!   meta-server clawback, and limited fan-out hash routing over proxy groups.
//!   `abase-server` has no counterpart.
//! * [`meta`] — the meta server's §3.3 decisions: the failover planner over
//!   replica sets, and the parallel-recovery model.
//! * [`isolation`] — `IsolationExperiment`, the driver tying workload
//!   generators, proxies and a node together; produces the per-minute series
//!   behind Figures 5–7.
//! * [`cluster`] — `ReplicatedCluster`: real WAL-shipping replica groups
//!   (via `abase-replication`) placed across DataNodes — each group is the
//!   only record of who serves its partition — with planned failover,
//!   parallel reconstruction, and the per-replica RU ledger Algorithm 2
//!   reads.
//! * [`migration`] — the live-migration engine: Algorithm-2 `Migration`
//!   plans executed as staged checkpoint copies (throttled by the §3.3
//!   recovery-bandwidth model) + binlog catch-up + epoch-guarded cut-overs,
//!   with one in-flight move per node.
//! * [`metrics`] — the proxy and migration metric handles.

#![deny(missing_docs)]

pub mod cluster;
pub mod isolation;
pub mod meta;
pub mod metrics;
pub mod migration;
pub mod node;
pub mod proxy;
pub mod types;

pub use cluster::{
    ClusterRead, FailoverOutcome, NodeLedger, ReplicaRuSplit, ReplicatedCluster,
    ReplicatedClusterConfig,
};
pub use isolation::{IsolationExperiment, MinutePoint, TenantSpec};
pub use meta::{plan_node_failure, FailoverPlan, RecoveryModel, ReplicaSet};
pub use migration::{
    MigrationConfig, MigrationEngine, MigrationError, MigrationReport, MigrationRequest,
};
pub use node::{DataNodeConfig, DataNodeSim};
pub use proxy::{ProxyPlane, ProxyPlaneConfig};
pub use types::{NodeId, ProxyId};
