// Fixture: parameters that differ between non-test call sites, or whose
// call sites cannot all be seen. Scanned as crates/demo/src/params.rs
// beside good/a009_layers.rs.

/// `level` and `name` differ only at the benchmark's call
/// (abench/src/layers.rs), which counts.
pub fn configure(level: u32, name: &str) -> usize {
    level as usize + name.len()
}

/// Passed as a value below, so not every call is in sight.
fn double(x: u32) -> u32 {
    x * 2
}

/// Its name is defined twice (here and in the impl below), so a call site
/// cannot be matched to it by name.
fn reset(flag: bool) -> bool {
    flag
}

struct Plane;

impl Plane {
    fn reset(&self, flag: bool) -> bool {
        !flag
    }
}

/// Waived, naming the file that passes other values.
// LINT: allow(A009): crates/demo/tests/it.rs
fn waived(limit: u32) -> u32 {
    limit
}

extern "C" {
    /// A foreign declaration: its signature is not this crate's to change.
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn run(plane: &Plane) -> u32 {
    let a = configure(
        3,
        "wal",
    );
    let v: Vec<u32> = [1, 2].iter().copied().map(double).collect();
    reset(true);
    plane.reset(true);
    waived(7);
    // SAFETY: eventfd(2) takes no pointers.
    let fd = unsafe { eventfd(0, 1) };
    a as u32 + v[0] + double(1) + fd as u32
}
