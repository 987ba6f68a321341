//! Identifiers and request types only the simulator has.

use abase_core::types::{PartitionId, TenantId};
use abase_util::clock::SimTime;

/// Data node identifier.
pub type NodeId = u32;
/// Proxy identifier (within one tenant's proxy fleet).
pub type ProxyId = u32;

/// A simulated client request (the cost-model path; the byte-accurate path
/// lives in [`abase_core::engine`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Issuing tenant.
    pub tenant: TenantId,
    /// Target partition.
    pub partition: PartitionId,
    /// Stable key identity (drives cache behaviour).
    pub key: u64,
    /// Write or read.
    pub is_write: bool,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Virtual time the client issued the request.
    pub issued_at: SimTime,
    /// Index of the proxy that forwarded the request, when one did (used to
    /// fill that proxy's cache on completion).
    pub proxy: Option<u32>,
}

/// Where a completed request was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// The proxy cache answered; the request never reached a data node.
    ProxyCache,
    /// The data node cache answered (CPU + memory only).
    NodeCache,
    /// The storage engine answered (disk I/O).
    Storage,
}

/// Final disposition of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disposition {
    /// Completed successfully.
    Success {
        /// End-to-end latency in virtual microseconds.
        latency: SimTime,
        /// Serving layer.
        served_from: ServedFrom,
    },
    /// Rejected by the proxy quota.
    RejectedAtProxy,
    /// Rejected by the partition quota at the data node.
    RejectedAtNode,
}

impl Disposition {
    /// True for successful completions.
    #[cfg(test)]
    pub(crate) fn is_success(&self) -> bool {
        matches!(self, Disposition::Success { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposition_predicates() {
        let ok = Disposition::Success {
            latency: 100,
            served_from: ServedFrom::NodeCache,
        };
        assert!(ok.is_success());
        assert!(!Disposition::RejectedAtProxy.is_success());
        assert!(!Disposition::RejectedAtNode.is_success());
    }
}
