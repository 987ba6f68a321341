//! Request classification into the four independent dual-layer WFQs.
//!
//! "All requests are categorized into four independent dual-layer WFQs based on
//! their type (read/write) and their size (large/small)" (§4.3). Separating the
//! classes prevents interference between heavyweight and lightweight requests —
//! the failure mode 2DFQ identifies in single-queue fair schedulers.

/// The four scheduling classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueClass {
    /// Reads at or below the size threshold.
    SmallRead,
    /// Reads above the size threshold.
    LargeRead,
    /// Writes at or below the size threshold.
    SmallWrite,
    /// Writes above the size threshold.
    LargeWrite,
}

impl QueueClass {
    /// All classes, in a fixed order (used for budget allocation).
    pub const ALL: [QueueClass; 4] = [
        QueueClass::SmallRead,
        QueueClass::LargeRead,
        QueueClass::SmallWrite,
        QueueClass::LargeWrite,
    ];

    /// Classify a request by direction and payload size: a payload above
    /// [`LARGE_THRESHOLD`] is large.
    pub fn classify(is_write: bool, size_bytes: usize) -> Self {
        match (is_write, size_bytes > LARGE_THRESHOLD) {
            (false, false) => QueueClass::SmallRead,
            (false, true) => QueueClass::LargeRead,
            (true, false) => QueueClass::SmallWrite,
            (true, true) => QueueClass::LargeWrite,
        }
    }

    /// Stable dense index for array-backed per-class state.
    pub fn index(self) -> usize {
        match self {
            QueueClass::SmallRead => 0,
            QueueClass::LargeRead => 1,
            QueueClass::SmallWrite => 2,
            QueueClass::LargeWrite => 3,
        }
    }

    /// True for the two read classes.
    fn is_read(self) -> bool {
        matches!(self, QueueClass::SmallRead | QueueClass::LargeRead)
    }

    /// True for the two write classes.
    pub fn is_write(self) -> bool {
        !self.is_read()
    }
}

/// The boundary in bytes between "small" and "large": 4 KiB (two RU units),
/// separating e.g. 0.1 KB comment reads from 10 KB advertisement blobs
/// (Table 1).
const LARGE_THRESHOLD: usize = 4 << 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_quadrants() {
        let th = LARGE_THRESHOLD;
        assert_eq!(QueueClass::classify(false, 100), QueueClass::SmallRead);
        assert_eq!(QueueClass::classify(false, th + 1), QueueClass::LargeRead);
        assert_eq!(QueueClass::classify(true, th), QueueClass::SmallWrite);
        assert_eq!(QueueClass::classify(true, 1 << 20), QueueClass::LargeWrite);
    }

    #[test]
    fn indexes_are_dense_and_distinct() {
        let mut seen = [false; 4];
        for c in QueueClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn read_write_predicates() {
        assert!(QueueClass::SmallRead.is_read());
        assert!(QueueClass::LargeRead.is_read());
        assert!(QueueClass::SmallWrite.is_write());
        assert!(QueueClass::LargeWrite.is_write());
    }
}
