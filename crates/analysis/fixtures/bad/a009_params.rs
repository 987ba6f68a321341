// Fixture: parameters that every non-test call site passes the same value.
// Scanned as crates/demo/src/params.rs.

/// `level` is `3` and `name` is `"wal"` at both call sites below, which
/// span lines; a test passes other values.
fn configure(
    level: u32,
    name: &str,
    size: usize,
) -> usize {
    level as usize + name.len() + size
}

struct Plane;

impl Plane {
    /// A method: its receiver is no argument, and `mode` is always
    /// `Mode::Fast` outside tests.
    fn submit(&self, key: u64, mode: Mode) -> u64 {
        key
    }
}

fn run(plane: &Plane, n: usize) -> usize {
    let a = configure(
        3,
        "wal",
        n,
    );
    let b = configure(
        3,
        "wal",
        n + 1,
    );
    plane.submit(a as u64, Mode::Fast) as usize
        + plane.submit(
            b as u64,
            Mode::Fast,
        ) as usize
}

#[cfg(test)]
mod tests {
    #[test]
    fn other_values() {
        super::configure(4, "log", 1);
        super::Plane.submit(1, super::Mode::Slow);
    }
}
