// Fixture: a waiver without a reason waives nothing.
// Scanned as if it lived at crates/lavastore/src/<file>.rs.

pub(crate) fn bare(values: &[u8]) -> u8 {
    // LINT: allow(A003)
    *values.first().unwrap()
}

pub(crate) fn blank(values: &[u8]) -> u8 {
    // LINT: allow(A003):
    *values.first().unwrap()
}
