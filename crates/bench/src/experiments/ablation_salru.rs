//! Ablation — SA-LRU vs plain LRU under size-diverse workloads.
//!
//! Paper §4.4: the DataNode cache segregates size classes and evicts by hit
//! density. This study replays a mixed workload (many small hot items + a
//! stream of large cold blobs, the Table-1 spread) through both policies at
//! identical byte capacity. The plain LRU is SA-LRU with one size class.

use crate::{banner, pct, print_table};
use abase_cache::SaLruCache;
use abase_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate the access stream: 95 % small-item reads (Zipf over 20k keys,
/// 128 B), 5 % large cold blobs (256 KB, rarely re-read).
fn stream(n: usize, seed: u64) -> Vec<(u64, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(20_000, 1.0);
    (0..n)
        .map(|i| {
            if rng.gen::<f64>() < 0.05 {
                // Large blobs: mostly unique (cold scans / bulk values).
                (1_000_000 + i as u64, 256 << 10)
            } else {
                (zipf.sample(&mut rng) as u64, 128)
            }
        })
        .collect()
}

/// SA-LRU keeps more of the small hot set than the one-class baseline:
/// the small-item hit ratios of `(plain LRU, SA-LRU)`.
fn check(&(plain, sa): &(f64, f64)) -> Result<(), String> {
    ensure!(
        sa > plain,
        "SA-LRU's small-item hit ratio {sa} does not beat plain LRU's {plain}"
    );
    Ok(())
}

/// Print this experiment's report and check it; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Ablation: SA-LRU",
        "size-aware vs plain LRU at equal byte capacity",
        "SA-LRU evicts large low-hit items first, protecting the small hot set",
    );
    let capacity = 4 << 20; // 4 MB: holds the whole small set OR ~16 blobs
    let accesses = stream(400_000, 5);

    let mut plain: SaLruCache<u64, ()> = SaLruCache::with_class_bounds(capacity, &[usize::MAX]);
    let mut sa: SaLruCache<u64, ()> = SaLruCache::new(capacity);
    let (mut plain_hits, mut sa_hits) = (0u64, 0u64);
    let (mut plain_small_hits, mut sa_small_hits) = (0u64, 0u64);
    let mut small_reads = 0u64;
    for &(key, size) in &accesses {
        let small = size <= 1024;
        if small {
            small_reads += 1;
        }
        if plain.get(&key).is_some() {
            plain_hits += 1;
            if small {
                plain_small_hits += 1;
            }
        } else {
            plain.insert(key, (), size);
        }
        if sa.get(&key).is_some() {
            sa_hits += 1;
            if small {
                sa_small_hits += 1;
            }
        } else {
            sa.insert(key, (), size);
        }
    }
    let n = accesses.len() as f64;
    let small = (
        plain_small_hits as f64 / small_reads as f64,
        sa_small_hits as f64 / small_reads as f64,
    );
    let rows = vec![
        vec![
            "overall hit ratio".into(),
            pct(plain_hits as f64 / n),
            pct(sa_hits as f64 / n),
        ],
        vec!["small-item hit ratio".into(), pct(small.0), pct(small.1)],
    ];
    print_table(&["metric", "plain LRU", "SA-LRU"], &rows);
    let lift = sa_hits as f64 / plain_hits.max(1) as f64;
    println!(
        "\nSA-LRU lifts the overall hit ratio by {}x on this mix.",
        crate::fmt(lift, 2)
    );
    check(&small)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_each_doctored_fact() {
        crate::refuses_each((0.427, 0.950), check, &[|r| r.1 = r.0]);
    }
}
