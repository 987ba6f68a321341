//! # abase-wfq
//!
//! ABase's dual-layer Weighted Fair Queueing (paper §4.3).
//!
//! Every DataNode hosts partitions of many tenants; requests that survive quota
//! admission compete for the node's CPU and disk. ABase schedules them with:
//!
//! * **Four independent dual-layer WFQs**, one per [`class::QueueClass`]
//!   (read/write × small/large), "ensuring closely matched request latencies
//!   within each queue type" as 2DFQ observes for mixed request weights.
//! * A **CPU-WFQ** upper layer whose request cost is the request's RU (Rule 1),
//!   with read/write concurrency limits (Rule 2) and a 90 % single-tenant
//!   share cap (Rule 3).
//! * An **I/O-WFQ** lower layer, entered only on a data-node cache miss, whose
//!   cost is the request's IOPS ("a single I/O operation generally has a similar
//!   execution time"), executed by a pool of basic threads plus extra threads
//!   that activate only when one tenant monopolizes the basic pool (Rule 4).
//!
//! Virtual finish times are cumulative **per tenant** — "preVFT_Ti +
//! wReqCost(Q_i)" — so a tenant with a large quota cannot indefinitely
//! front-run others, and costs are weighted by the partition's share of the
//! node's quota (`wPartition`).

#![deny(missing_docs)]

pub mod class;
pub mod dual;
pub mod queue;

pub use class::QueueClass;
pub use dual::{CpuTickBudget, DualWfq, NodeScheduler};
pub use queue::{WfqItem, WfqQueue};
