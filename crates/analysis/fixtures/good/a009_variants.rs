// Fixture: variants that non-test code constructs, each also tested in a
// way A009 must not count as a construction. Scanned as
// crates/demo/src/kinds.rs beside good/a009_layers.rs.

use Served::*;

/// Where a read was served from.
pub enum Served {
    /// Compared with `==` and `!=`, built by `serve`.
    Memory,
    /// Matched over several lines and by `if let`, built by `serve`.
    Disk {
        /// Bytes read.
        bytes: u64,
    },
    /// Tested by `matches!` and in a `|` list, built as `Self::Proxy`.
    Proxy,
    /// Built by the benchmark's probe surface (abench/src/layers.rs).
    Remote(u32),
    /// Built through a glob import, by its bare name.
    Bare,
    /// Needed by an integration test only.
    // LINT: allow(A009): crates/demo/tests/it.rs
    Waived,
}

/// Not public: out of scope.
enum Private {
    Never,
}

impl Served {
    fn proxy() -> Self {
        Self::Proxy
    }
}

fn serve(n: u64) -> Served {
    match n {
        0 => Served::Memory,
        1 => Served::proxy(),
        2 => Bare,
        _ => Served::Disk { bytes: n },
    }
}

fn describe(s: &Served) -> u64 {
    if *s == Served::Memory || *s != Served::Memory {
        return 0;
    }
    if let Served::Disk { bytes } = s {
        return *bytes;
    }
    match s {
        Served::Disk {
            bytes,
        } => *bytes,
        Served::Proxy
        | Served::Bare => 1,
        Served::Remote(_) | Served::Waived => 2,
        _ if matches!(s, Served::Proxy) => 3,
        _ => 4,
    }
}
