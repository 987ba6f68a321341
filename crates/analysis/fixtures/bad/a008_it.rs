// Fixture: an integration test. Scanned as crates/demo/tests/it.rs.

#[test]
fn calls_it() {
    demo::api::only_in_tests_dir();
}
