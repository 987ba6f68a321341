// Fixture: variants of a `pub enum` that no non-test code constructs.
// Scanned as crates/demo/src/kinds.rs.

/// Where a read was served from.
pub enum Served {
    /// Built by `serve` below.
    Memory,
    /// Built only inside `#[cfg(test)]`.
    OnlyInCfgTest,
    /// Named only where a value is tested: a match arm, `if let`,
    /// `matches!` and a `|` list.
    OnlyMatched {
        /// Bytes read.
        bytes: u64,
    },
    /// Named only as an operand of `==` and `!=`.
    OnlyCompared,
    /// A waiver with a blank reason waives nothing.
    // LINT: allow(A009):
    BlankReason,
}

fn serve() -> Served {
    Served::Memory
}

fn cost(s: &Served) -> u64 {
    match s {
        Served::Memory | Served::BlankReason => 0,
        Served::OnlyMatched {
            bytes,
        } => *bytes,
        Served::OnlyInCfgTest => 1,
        _ => 2,
    }
}

fn is_disk(s: &Served) -> bool {
    if let Served::OnlyMatched { .. } = s {
        return true;
    }
    matches!(s, Served::OnlyMatched { .. })
}

fn is_compared(s: Served) -> bool {
    s == Served::OnlyCompared || Served::OnlyCompared != s
}

#[cfg(test)]
mod tests {
    #[test]
    fn builds_it() {
        assert_eq!(super::cost(&super::Served::OnlyInCfgTest), 1);
    }
}
