// Fixture: hot-crate production code panicking on Option/Result.
// Scanned as if it lived at crates/lavastore/src/<file>.rs.

use std::collections::BTreeMap;

pub(crate) fn lookup(map: &BTreeMap<u32, String>, key: u32) -> &String {
    map.get(&key).unwrap()
}

pub(crate) fn first(values: &[u8]) -> u8 {
    *values.first().expect("caller promised a non-empty slice")
}
