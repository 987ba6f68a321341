// Fixture: raw std::sync locks outside the shim crate.

use std::sync::Mutex;

pub struct State {
    inner: Mutex<u64>,
    table: std::sync::RwLock<Vec<u8>>,
}

pub(crate) fn bump(s: &State) {
    if let Ok(mut g) = s.inner.lock() {
        *g += 1;
    }
    drop(s.table.read());
}
