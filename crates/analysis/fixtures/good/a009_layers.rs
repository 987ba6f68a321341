// Fixture: the benchmark's probe surface. Scanned as abench/src/layers.rs.

pub fn probe() -> usize {
    let served = demo::kinds::Served::Remote(3);
    demo::params::configure(
        9,
        "sst",
    ) + served.len()
}
