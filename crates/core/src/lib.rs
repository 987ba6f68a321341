//! # abase-core
//!
//! The shipped ABase DataNode (paper §3–§4): the table engine over
//! lavastore, the request pipeline that admits and charges every command,
//! the RESP front end and the serving node that `abase-server` runs. The
//! paper-evaluation simulator lives in `abase-sim`, which builds on this
//! crate; nothing here depends on it.
//!
//! Module map:
//!
//! * [`types`] — tenant and partition ids, and the read-consistency level.
//! * [`engine`] — the real data path: RESP [`abase_proto::Command`]s executed
//!   against a [`abase_lavastore::Db`] with tenant/table namespacing and TTLs.
//! * [`pipeline`] — `Pipeline`: §4.1 RU estimate and charge, §4.2 partition
//!   quota and the WFQ's partition weight, decided once for the serving node
//!   and the simulator's DataNode.
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
//! * [`metrics`] — the serving path's metric handles.

#![deny(missing_docs)]

mod conn;
pub mod engine;
pub mod event_loop;
pub mod metrics;
pub mod pipeline;
pub mod server;
pub mod serving;
pub mod types;

pub use engine::TableEngine;
pub use event_loop::ShutdownHandle;
pub use pipeline::{Pipeline, Request, Served, Throttled};
pub use server::{ReplInfo, ReplicationControl, RespServer};
pub use serving::{NodeRole, ServingNode};
pub use types::{ConsistencyLevel, PartitionId, TenantId};
