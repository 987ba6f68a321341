//! # ABase
//!
//! A from-scratch Rust reproduction of **"ABase: the Multi-Tenant NoSQL
//! Serverless Database for Diverse and Dynamic Workloads in Large-scale Cloud
//! Environments"** (SIGMOD-Companion 2025, ByteDance).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `abase-core` | the shipped DataNode: table engine, request pipeline, RESP front end, serving node |
//! | [`sim`] | `abase-sim` | the paper-evaluation simulator: DataNode cost model, proxy plane, meta server, replicated cluster |
//! | [`lavastore`] | `abase-lavastore` | the LSM storage engine substrate |
//! | [`replication`] | `abase-replication` | WAL-shipping replica groups: write concerns, read consistency levels, failover, parallel reconstruction |
//! | [`cache`] | `abase-cache` | LRU, SA-LRU (node), AU-LRU (proxy) |
//! | [`wfq`] | `abase-wfq` | dual-layer weighted fair queueing |
//! | [`quota`] | `abase-quota` | cache-aware RUs, token buckets, admission |
//! | [`forecast`] | `abase-forecast` | the §5.2 ensemble workload forecaster |
//! | [`scheduler`] | `abase-scheduler` | Algorithm-1 autoscaler, Algorithm-2 rescheduler |
//! | [`proto`] | `abase-proto` | RESP2 protocol + command model |
//! | [`workload`] | `abase-workload` | Table-1 profiles, Zipf streams, scenario generators |
//! | [`util`] | `abase-util` | virtual clock, statistics, time series |
//!
//! ## Quickstart
//!
//! ```
//! use abase::core::engine::TableEngine;
//! use abase::lavastore::DbConfig;
//! use abase::proto::Command;
//!
//! let dir = std::env::temp_dir().join(format!("abase-doc-{}", std::process::id()));
//! let engine = TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap();
//! let set = Command::Set { key: "greeting", value: "hello", ttl_secs: None };
//! engine.execute(1, &set, 0).unwrap();
//! let get = Command::Get { key: "greeting" };
//! let out = engine.execute(1, &get, 0).unwrap();
//! assert_eq!(out.reply, abase::proto::RespValue::bulk("hello"));
//! drop(engine);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

pub use abase_cache as cache;
pub use abase_core as core;
pub use abase_forecast as forecast;
pub use abase_lavastore as lavastore;
pub use abase_obs as obs;
pub use abase_proto as proto;
pub use abase_quota as quota;
pub use abase_replication as replication;
pub use abase_scheduler as scheduler;
pub use abase_sim as sim;
pub use abase_util as util;
pub use abase_wfq as wfq;
pub use abase_workload as workload;
