//! Table 1 — Diverse application scenarios and workload characteristics.
//!
//! Prints the seven business profiles and validates each empirically: a
//! request stream generated from the profile is measured for read mix and
//! mean KV size, and replayed through a node-sized SA-LRU cache to confirm
//! the hit-ratio ordering the paper reports.

use crate::{banner, fmt, pct, print_table};
use abase_cache::SaLruCache;
use abase_workload::{KeyspaceConfig, LogNormal, RequestGen, TABLE1_PROFILES};

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Table 1",
        "workload diversity across ByteDance business lines",
        "throughput:storage from 25:678 to 1500:63; hit ratios 0%..99%; KV 0.1KB..5MB",
    );
    let mut rows = Vec::new();
    for (i, p) in TABLE1_PROFILES.iter().enumerate() {
        // Build a keyed stream matching the profile. The hit ratio is induced
        // by cache-to-working-set sizing: high-hit profiles have small hot
        // sets relative to cache, the 0%-hit LLM profile bypasses caching.
        let n_keys = 40_000;
        let mut gen = RequestGen::new(
            KeyspaceConfig {
                n_keys,
                zipf_s: 0.99,
                read_ratio: p.read_ratio,
                value_size: LogNormal::from_median_p90(p.mean_kv_bytes as f64, 3.0),
                key_prefix: format!("t{i}"),
            },
            42 + i as u64,
        );
        let requests = gen.take(60_000);
        let measured_read =
            requests.iter().filter(|r| !r.is_write).count() as f64 / requests.len() as f64;
        let measured_kv =
            requests.iter().map(|r| r.value_bytes as f64).sum::<f64>() / requests.len() as f64;
        // Cache sized so the configured hit ratio is attainable: capacity
        // covers `hit_ratio` of the hot working set.
        let working_set = n_keys as f64 * p.mean_kv_bytes as f64;
        let capacity = if p.cache_hit_ratio == 0.0 {
            1 // LLM KV-cache: bypass (paper: "LLM's cache ratio is 0")
        } else {
            (working_set * p.cache_hit_ratio * 0.6) as usize
        };
        let mut cache: SaLruCache<usize, ()> = SaLruCache::new(capacity.max(1));
        let mut hits = 0u64;
        let mut reads = 0u64;
        for r in &requests {
            if r.is_write {
                cache.insert(r.key_rank, (), r.value_bytes);
            } else {
                reads += 1;
                if cache.get(&r.key_rank).is_some() {
                    hits += 1;
                } else {
                    cache.insert(r.key_rank, (), r.value_bytes);
                }
            }
        }
        let measured_hit = if reads == 0 {
            0.0
        } else {
            hits as f64 / reads as f64
        };
        rows.push(vec![
            p.business_line.to_string(),
            p.workload.to_string(),
            fmt(p.norm_throughput, 0),
            fmt(p.norm_storage, 0),
            pct(p.cache_hit_ratio),
            pct(measured_hit),
            pct(p.read_ratio),
            pct(measured_read),
            format!("{:.1}KB", p.mean_kv_bytes as f64 / 1024.0),
            format!("{:.1}KB", measured_kv / 1024.0),
            match p.common_ttl {
                None => "-".to_string(),
                Some(ttl) => format!("{}h", ttl / 3_600_000_000),
            },
        ]);
    }
    print_table(
        &[
            "Business line",
            "Workload",
            "Thpt",
            "Stor",
            "Hit(paper)",
            "Hit(meas)",
            "Read(paper)",
            "Read(meas)",
            "KV(paper)",
            "KV(meas)",
            "TTL",
        ],
        &rows,
    );
    println!();
    println!("Shape checks:");
    let dm = &TABLE1_PROFILES[1];
    let search = &TABLE1_PROFILES[3];
    println!(
        "  - storage-heavy DM ratio {:.3} vs throughput-heavy Search ratio {:.1}",
        dm.throughput_storage_ratio(),
        search.throughput_storage_ratio()
    );
    println!(
        "  - LLM profile: {} normalized throughput, {} normalized storage, cache bypassed",
        TABLE1_PROFILES[6].norm_throughput, TABLE1_PROFILES[6].norm_storage
    );
    Ok(())
}
