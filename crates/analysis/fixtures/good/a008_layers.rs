// Fixture: the benchmark's probe surface. Scanned as abench/src/layers.rs.

pub fn probe() {
    demo::api::called_by_abench();
}
