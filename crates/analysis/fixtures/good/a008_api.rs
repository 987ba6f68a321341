// Fixture: public items with callers, waived ones, and narrower ones.
// Scanned as crates/demo/src/api.rs beside good/a008_callers.rs and
// good/a008_layers.rs.

/// Called by another crate's non-test code.
pub fn called_by_other_crate() {}

/// Called by the benchmark's probe surface.
pub fn called_by_abench() {}

/// Needed by an integration test only.
// LINT: allow(A008): crates/demo/tests/it.rs
pub const WAIVED: u32 = 7;

/// Crate-visible items are not public API.
pub(crate) fn narrowed() {}

#[cfg(test)]
mod tests {
    pub fn test_only_helper() {}
}
