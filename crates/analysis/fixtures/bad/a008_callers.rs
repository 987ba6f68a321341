// Fixture: another crate that imports the demo API but never calls it
// outside its tests. Scanned as crates/other/src/lib.rs.

use demo::api::only_imported;
pub use demo::api::{
    only_imported as reexported,
    REASONLESS_WAIVER,
};

pub(crate) fn unrelated() -> &'static str {
    // A name in a comment or a string is not a call: only_in_tests_dir()
    "BLANK_REASON"
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        demo::api::only_in_cfg_test();
    }
}
