// Fixture: public items nobody outside this file calls from non-test code.
// Scanned as crates/demo/src/api.rs beside bad/a008_callers.rs and
// bad/a008_it.rs.

/// Named elsewhere only by `use` / `pub use` lines.
pub fn only_imported() {}

/// Named elsewhere only inside a `#[cfg(test)]` module.
pub fn only_in_cfg_test() {}

/// Named elsewhere only by an integration test under `tests/`.
pub fn only_in_tests_dir() {}

/// Named only by code in this file.
pub fn only_in_own_file() {}

fn private_caller() {
    only_in_own_file();
}

// LINT: allow(A008)
pub const REASONLESS_WAIVER: u32 = 7;

/// A waiver with a blank reason waives nothing either.
// LINT: allow(A008):
pub static BLANK_REASON: u32 = 8;
