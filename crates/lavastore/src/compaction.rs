//! Leveled compaction policy.
//!
//! Pure decision logic over a per-level file listing (no I/O), so the policy
//! is testable in isolation; [`crate::db::Db`] executes the chosen task. The
//! striped engine runs the policy independently over each stripe's levels —
//! the slice passed in is one stripe's view, and the resulting task never
//! crosses stripes. A task executes as one streaming merge (see
//! [`crate::iter`]) whose memory is bounded by inputs × block size, through
//! a flush's SST writer and install, with no stripe lock held across the
//! merge; a read that fails mid-merge fails the round, and its outputs are
//! removed. Two triggers:
//!
//! * **L0 trigger** — when L0 accumulates `l0_trigger` files, all of L0 plus
//!   the overlapping span of L1 compacts into fresh L1 files.
//! * **Size trigger** — when level `n ≥ 1` exceeds its byte budget
//!   (`level_base_bytes · level_growth^(n-1)`), its oldest file plus the
//!   overlapping span of level `n+1` compacts down one level.
//!
//! Tombstones are garbage-collected when the output level is the bottom
//! level; an expired record gives up its value at any level (it is rewritten
//! as a tombstone, which still shadows older versions below) and goes
//! entirely at the bottom — the TTL-heavy workloads of Table 1 (3-hour
//! advertisement joins, 1-day LLM caches) reclaim space purely through this
//! path.

use crate::version::{level_bytes, SstMeta};

/// Compaction tuning knobs (subset of [`crate::db::DbConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct CompactionConfig {
    /// L0 file count that triggers an L0→L1 compaction.
    pub l0_trigger: usize,
    /// Byte budget of L1.
    pub level_base_bytes: u64,
    /// Budget multiplier per level below L1.
    pub level_growth: u64,
    /// Total number of levels.
    pub n_levels: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            l0_trigger: 4,
            level_base_bytes: 8 << 20,
            level_growth: 10,
            n_levels: 5,
        }
    }
}

/// A chosen compaction: merge `input_ids` (across `from_level` and
/// `from_level + 1`) and write the result at `output_level`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionTask {
    /// Level being compacted down.
    pub from_level: usize,
    /// Level receiving the merged output.
    pub output_level: usize,
    /// Ids of every input file (from both levels).
    pub input_ids: Vec<u64>,
    /// True when `output_level` is the bottom level (tombstones may drop).
    pub is_bottom_level: bool,
}

/// Byte budget for level `n ≥ 1`.
fn level_target_bytes(config: &CompactionConfig, level: usize) -> u64 {
    debug_assert!(level >= 1);
    config.level_base_bytes * config.level_growth.pow(level as u32 - 1)
}

/// Choose the next compaction over one stripe's levels, if any is warranted.
pub fn pick_compaction(
    levels: &[Vec<SstMeta>],
    config: &CompactionConfig,
) -> Option<CompactionTask> {
    // Priority 1: L0 backlog (it blocks reads the most — every L0 file is a
    // potential extra I/O per point read).
    if levels[0].len() >= config.l0_trigger {
        let l0 = &levels[0];
        let mut min = l0[0].min_key.clone();
        let mut max = l0[0].max_key.clone();
        for m in &l0[1..] {
            if m.min_key < min {
                min = m.min_key.clone();
            }
            if m.max_key > max {
                max = m.max_key.clone();
            }
        }
        let mut input_ids: Vec<u64> = l0.iter().map(|m| m.id).collect();
        if levels.len() > 1 {
            input_ids.extend(overlapping(&levels[1], &min, &max));
        }
        let output_level = 1.min(levels.len() - 1);
        return Some(CompactionTask {
            from_level: 0,
            output_level,
            input_ids,
            is_bottom_level: output_level == levels.len() - 1
                || deeper_levels_empty(levels, output_level),
        });
    }
    // Priority 2: oversized intermediate level.
    for level in 1..levels.len().saturating_sub(1) {
        if level_bytes(&levels[level]) > level_target_bytes(config, level)
            && !levels[level].is_empty()
        {
            // Oldest file (smallest id) rotates down, plus next-level overlap.
            let Some(victim) = levels[level].iter().min_by_key(|m| m.id) else {
                continue;
            };
            let mut input_ids = vec![victim.id];
            input_ids.extend(overlapping(
                &levels[level + 1],
                &victim.min_key,
                &victim.max_key,
            ));
            let output_level = level + 1;
            return Some(CompactionTask {
                from_level: level,
                output_level,
                input_ids,
                is_bottom_level: output_level == levels.len() - 1
                    || deeper_levels_empty(levels, output_level),
            });
        }
    }
    None
}

/// Ids of the files of one level intersecting `[min, max]`.
fn overlapping<'a>(
    files: &'a [SstMeta],
    min: &'a [u8],
    max: &'a [u8],
) -> impl Iterator<Item = u64> + 'a {
    files
        .iter()
        .filter(move |m| m.overlaps(min, max))
        .map(|m| m.id)
}

/// True when every level strictly below `level` holds no files — a record
/// surviving at `level` is then the oldest version in the tree, so tombstones
/// may be dropped safely.
fn deeper_levels_empty(levels: &[Vec<SstMeta>], level: usize) -> bool {
    levels[level + 1..].iter().all(Vec::is_empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::{add_file, Version};
    use bytes::Bytes;

    fn meta(id: u64, level: u32, min: &str, max: &str, size: u64) -> SstMeta {
        SstMeta {
            id,
            level,
            stripe: 0,
            min_key: Bytes::copy_from_slice(min.as_bytes()),
            max_key: Bytes::copy_from_slice(max.as_bytes()),
            file_size: size,
            record_count: 1,
        }
    }

    fn config() -> CompactionConfig {
        CompactionConfig {
            l0_trigger: 3,
            level_base_bytes: 1000,
            level_growth: 10,
            n_levels: 4,
        }
    }

    #[test]
    fn no_compaction_when_quiet() {
        let v = Version::new(4);
        assert_eq!(pick_compaction(&v.levels, &config()), None);
    }

    #[test]
    fn l0_trigger_fires_at_threshold() {
        let mut v = Version::new(4);
        add_file(&mut v.levels, meta(1, 0, "a", "m", 100));
        add_file(&mut v.levels, meta(2, 0, "b", "n", 100));
        assert!(pick_compaction(&v.levels, &config()).is_none());
        add_file(&mut v.levels, meta(3, 0, "c", "o", 100));
        let task = pick_compaction(&v.levels, &config()).unwrap();
        assert_eq!(task.from_level, 0);
        assert_eq!(task.output_level, 1);
        assert_eq!(task.input_ids.len(), 3);
    }

    #[test]
    fn l0_compaction_pulls_overlapping_l1() {
        let mut v = Version::new(4);
        add_file(&mut v.levels, meta(1, 0, "c", "f", 100));
        add_file(&mut v.levels, meta(2, 0, "d", "g", 100));
        add_file(&mut v.levels, meta(3, 0, "e", "h", 100));
        add_file(&mut v.levels, meta(10, 1, "a", "d", 100)); // overlaps
        add_file(&mut v.levels, meta(11, 1, "x", "z", 100)); // disjoint
        let task = pick_compaction(&v.levels, &config()).unwrap();
        assert!(task.input_ids.contains(&10));
        assert!(!task.input_ids.contains(&11));
    }

    #[test]
    fn overlap_queries() {
        let mut v = Version::new(2);
        add_file(&mut v.levels, meta(1, 1, "a", "f", 1000));
        add_file(&mut v.levels, meta(2, 1, "g", "p", 1000));
        assert_eq!(overlapping(&v.levels[1], b"e", b"h").count(), 2);
        assert_eq!(overlapping(&v.levels[1], b"q", b"z").count(), 0);
    }

    #[test]
    fn size_trigger_compacts_oversized_level() {
        let mut v = Version::new(4);
        // L1 budget is 1000 bytes; stuff 3 files of 600.
        add_file(&mut v.levels, meta(1, 1, "a", "c", 600));
        add_file(&mut v.levels, meta(2, 1, "d", "f", 600));
        add_file(&mut v.levels, meta(3, 1, "g", "i", 600));
        add_file(&mut v.levels, meta(9, 2, "a", "e", 100)); // overlaps file 1 and 2
        let task = pick_compaction(&v.levels, &config()).unwrap();
        assert_eq!(task.from_level, 1);
        assert_eq!(task.output_level, 2);
        // Oldest file (id 1) chosen; L2 overlap (id 9) included.
        assert_eq!(task.input_ids, vec![1, 9]);
    }

    #[test]
    fn bottom_level_flag_allows_tombstone_gc() {
        let mut v = Version::new(3);
        add_file(&mut v.levels, meta(1, 1, "a", "c", 5000));
        let task = pick_compaction(&v.levels, &config()).unwrap();
        assert_eq!(task.output_level, 2);
        assert!(task.is_bottom_level);
    }

    #[test]
    fn l0_to_l1_is_bottom_when_deeper_levels_empty() {
        let mut v = Version::new(4);
        for i in 0..3 {
            add_file(&mut v.levels, meta(i + 1, 0, "a", "z", 100));
        }
        let task = pick_compaction(&v.levels, &config()).unwrap();
        assert!(task.is_bottom_level, "no deeper data ⇒ GC tombstones");
    }

    #[test]
    fn level_targets_grow_geometrically() {
        let c = config();
        assert_eq!(level_target_bytes(&c, 1), 1000);
        assert_eq!(level_target_bytes(&c, 2), 10_000);
        assert_eq!(level_target_bytes(&c, 3), 100_000);
    }
}
