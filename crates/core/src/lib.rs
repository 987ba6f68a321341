//! # abase-core
//!
//! The ABase multi-tenant NoSQL serverless database (paper §3–§4): resource
//! pools of DataNodes hosting hash partitions of many tenants, a proxy plane
//! with active-update caching and limited fan-out hash routing, and a control
//! plane (meta server, autoscaler, rescheduler) — plus the discrete-time
//! cluster simulator that reproduces the paper's evaluation.
//!
//! Module map:
//!
//! * [`types`] — ids and shared request/response types.
//! * [`engine`] — the real data path: RESP [`abase_proto::Command`]s executed
//!   against a [`abase_lavastore::Db`] with tenant/table namespacing and TTLs.
//! * [`pipeline`] — `Pipeline`: §4.1 RU estimate and charge, §4.2 partition
//!   quota and the WFQ's partition weight, decided once for both DataNodes.
//! * [`node`] — `DataNodeSim`: the pipeline's admission → four dual-layer
//!   WFQs → SA-LRU cache → I/O cost model, driven in virtual-time ticks.
//! * [`proxy`] — the tenant proxy plane: AU-LRU proxy cache, proxy quotas with
//!   meta-server clawback, and limited fan-out hash routing over proxy groups.
//! * [`meta`] — the meta server: tenant traffic monitoring, replica-set
//!   routing, failover planning, and the §3.3 parallel-recovery model.
//! * [`cluster`] — the simulation driver tying workload generators, proxies,
//!   and nodes together; produces the per-minute series behind Figures 5–7.
//!   Also hosts [`cluster::ReplicatedCluster`]: real WAL-shipping replica
//!   groups (via `abase-replication`) placed across DataNodes, with
//!   MetaServer-driven failover and parallel reconstruction.
//! * [`router`] — the consistency-aware `ReadRouter`: `Eventual` reads spread
//!   over caught-up followers, `ReadYourWrites` reads pick a fenced replica,
//!   `Leader` reads pin to the leader — decided from the meta server's
//!   per-replica health/LSN view.
//! * [`migration`] — the live-migration engine: Algorithm-2 `Migration`
//!   plans executed as staged checkpoint copies (throttled by the §3.3
//!   recovery-bandwidth model) + binlog catch-up + epoch-guarded cut-overs,
//!   with one in-flight move per node.
//! * [`server`] — a TCP front end speaking RESP2 over the table engine, so
//!   any Redis client can talk to a node; supports `WAIT`/`REPLCONF`/`PSYNC`
//!   against an attached replica group.
//! * [`event_loop`] — the epoll worker pool behind [`server`]: sharded
//!   per-connection state machines with real pipelining, a max-clients cap,
//!   an idle-connection reaper, and deterministic shutdown.
//! * [`serving`] — `ServingNode`, the real DataNode: a store in one of three
//!   roles (plain, group leader, follower of a remote leader), its [`server`],
//!   its pipeline, the housekeeping tick and the follower pump, assembled
//!   once and stopped by one `shutdown()`. `abase-server`, the socket tests
//!   and chaos run it.

#![deny(missing_docs)]

pub mod cluster;
mod conn;
pub mod engine;
pub mod event_loop;
pub mod meta;
pub mod metrics;
pub mod migration;
pub mod node;
pub mod pipeline;
pub mod proxy;
pub mod router;
pub mod server;
pub mod serving;
pub mod types;

pub use cluster::{
    ClusterRead, FailoverOutcome, IsolationExperiment, MinutePoint, ReplicatedCluster,
    ReplicatedClusterConfig, TenantSpec,
};
pub use engine::TableEngine;
pub use event_loop::ShutdownHandle;
pub use meta::{FailoverPlan, MetaServer, RecoveryModel, ReplicaHealth, ReplicaSet};
pub use migration::{
    MigrationConfig, MigrationEngine, MigrationError, MigrationReport, MigrationRequest,
};
pub use node::{DataNodeConfig, DataNodeSim, ReplicaRuSplit};
pub use pipeline::{Pipeline, Request, Served, Throttled};
pub use proxy::{ProxyPlane, ProxyPlaneConfig, ProxyReadSplit};
pub use router::{ReadRouter, ReadRouterConfig, RouteDecision, RouterStats};
pub use server::{ReplInfo, ReplicationControl, RespServer};
pub use serving::{NodeRole, ServingNode};
pub use types::{ConsistencyLevel, NodeId, PartitionId, ProxyId, TenantId};
