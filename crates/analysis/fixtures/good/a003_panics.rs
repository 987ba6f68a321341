// Fixture: hot-crate code either propagates errors or justifies its expects.

use std::collections::BTreeMap;

pub(crate) fn lookup(map: &BTreeMap<u32, String>, key: u32) -> Option<&String> {
    map.get(&key)
}

pub(crate) fn first(values: &[u8]) -> u8 {
    // INVARIANT: the dispatcher only calls this with a frame it already
    // length-checked; an empty slice cannot reach here.
    *values.first().expect("caller promised a non-empty slice")
}

pub(crate) fn waived(values: &[u8]) -> u8 {
    // LINT: allow(A003): benchmark-only helper, panicking is the right call.
    *values.first().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        let mut m = BTreeMap::new();
        m.insert(1, "one".to_string());
        assert_eq!(lookup(&m, 1).unwrap(), "one");
    }
}
