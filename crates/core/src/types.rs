//! Shared identifiers and the read-consistency level.

/// Tenant identifier.
pub type TenantId = u32;
/// Partition identifier (globally unique).
pub type PartitionId = u64;

/// A session's read-consistency preference, before a concrete LSN fence is
/// attached (`ReadYourWrites` resolves against the session's last acked
/// write). Clients pick it per connection (`CONSISTENCY <level>` on the RESP
/// server) or per request; the replica group picks the replica by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyLevel {
    /// Any live, non-divergent replica may serve; it may be stale.
    Eventual,
    /// Reads must observe the session's own acked writes (LSN fencing).
    ReadYourWrites,
    /// Leader replica only.
    #[default]
    Leader,
}

impl ConsistencyLevel {
    /// Parse a client-supplied level name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "eventual" => Some(Self::Eventual),
            "readyourwrites" | "ryw" => Some(Self::ReadYourWrites),
            "leader" => Some(Self::Leader),
            _ => None,
        }
    }

    /// Canonical level name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Eventual => "eventual",
            Self::ReadYourWrites => "readyourwrites",
            Self::Leader => "leader",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_levels_parse_and_name() {
        assert_eq!(
            ConsistencyLevel::parse("EVENTUAL"),
            Some(ConsistencyLevel::Eventual)
        );
        assert_eq!(
            ConsistencyLevel::parse("ryw"),
            Some(ConsistencyLevel::ReadYourWrites)
        );
        assert_eq!(
            ConsistencyLevel::parse("Leader"),
            Some(ConsistencyLevel::Leader)
        );
        assert_eq!(ConsistencyLevel::parse("strong"), None);
        assert_eq!(ConsistencyLevel::default(), ConsistencyLevel::Leader);
        assert_eq!(ConsistencyLevel::Eventual.name(), "eventual");
    }
}
