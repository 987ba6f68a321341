// Fixture: another crate's non-test code calling the demo API.
// Scanned as crates/other/src/lib.rs.

use demo::api;

pub(crate) fn serve() {
    api::called_by_other_crate();
}
