//! Figure 3 — Distribution of tenants by RU, storage, and read ratio.
//!
//! "Each circle represents a tenant … tenants with higher RU tend to have
//! larger storage capacities, yet there are numerous cases exhibiting diverse
//! RU/storage characteristics. Tenants with a larger ratio of RU to storage
//! tend to indicate a read-heavy workload."

use crate::{banner, fmt, pct, print_table};
use abase_workload::TenantPopulation;

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 3",
        "tenant scatter over (RU, storage), colored by read ratio",
        "positive RU-storage correlation; lower-right (high RU/storage) is read-heavy",
    );
    let seed = 1;
    let population = TenantPopulation::generate(200, seed);
    println!("(seed {seed}, 200 tenants, normalized by median as in the paper)\n");

    // Correlation structure.
    let ru_storage = population.correlation(|t| t.ru.ln(), |t| t.storage.ln());
    let ratio_read = population.correlation(|t| (t.ru / t.storage).ln(), |t| t.read_ratio);
    println!(
        "corr(log RU, log storage)          = {}",
        fmt(ru_storage, 3)
    );
    println!(
        "corr(log RU/storage, read ratio)   = {}\n",
        fmt(ratio_read, 3)
    );

    // Read ratio by RU/storage quartile — the "lower right is darker" claim.
    let mut ratios: Vec<(f64, f64)> = population
        .tenants
        .iter()
        .map(|t| ((t.ru / t.storage).ln(), t.read_ratio))
        .collect();
    ratios.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let quartile = ratios.len() / 4;
    let mut rows = Vec::new();
    for q in 0..4 {
        let lo = q * quartile;
        let hi = if q == 3 {
            ratios.len()
        } else {
            (q + 1) * quartile
        };
        let slice = &ratios[lo..hi];
        let mean_read = slice.iter().map(|(_, r)| r).sum::<f64>() / slice.len() as f64;
        rows.push(vec![
            format!(
                "Q{} (RU/storage {})",
                q + 1,
                ["lowest", "low", "high", "highest"][q]
            ),
            pct(mean_read),
        ]);
    }
    print_table(&["RU/storage quartile", "mean read ratio"], &rows);

    // A sample of the scatter itself.
    println!("\nSample of the scatter (20 tenants):");
    let mut rows = Vec::new();
    for t in population.tenants.iter().take(20) {
        rows.push(vec![
            format!("tenant-{:03}", t.id),
            fmt(t.ru, 2),
            fmt(t.storage, 2),
            pct(t.read_ratio),
            pct(t.cache_hit_ratio),
        ]);
    }
    print_table(
        &[
            "tenant",
            "RU (norm)",
            "storage (norm)",
            "read ratio",
            "hit ratio",
        ],
        &rows,
    );
    Ok(())
}
