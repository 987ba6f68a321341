//! Ablation — AU-LRU active refresh vs passive TTL expiry.
//!
//! Paper §4.4: "an active-update mechanism is applied to address potential
//! spikes in requests due to expired cache entries." This study
//! hammers a hot key set through a TTL'd proxy cache and counts the back-end
//! misses with and without active refresh — the passive cache shows a miss
//! spike every TTL period, the active one refreshes ahead of expiry.

use crate::{banner, fmt, print_table, sparkline};
use abase_cache::aulru::{AuLruCache, AuLruConfig};
use abase_util::clock::secs;
use abase_workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulate `seconds` of 1000 req/s over 200 hot keys; returns per-second
/// backend misses.
fn simulate(active_refresh: bool, seconds: u64) -> Vec<u64> {
    let mut cache: AuLruCache<u64, ()> = AuLruCache::new(AuLruConfig {
        capacity_bytes: 10 << 20,
        ttl: secs(30),
        refresh_window: secs(3),
        hot_threshold: 5,
    });
    let zipf = Zipf::new(200, 0.9);
    let mut rng = StdRng::seed_from_u64(99);
    let mut misses_per_sec = Vec::with_capacity(seconds as usize);
    for sec in 0..seconds {
        let mut misses = 0u64;
        for i in 0..1000u64 {
            let now = secs(sec) + i * 1000;
            let key = zipf.sample(&mut rng) as u64;
            if cache.get(&key, now).is_none() {
                misses += 1;
                // Backend fetch + insert.
                cache.insert(key, (), 512, now);
            }
        }
        if active_refresh {
            // The proxy's refresh loop runs once a second.
            for cand in cache.refresh_candidates(secs(sec + 1)) {
                cache.update(cand.key, (), 512, secs(sec + 1));
            }
        }
        misses_per_sec.push(misses);
    }
    misses_per_sec
}

/// Active refresh misses less often than passive TTL, and spikes lower:
/// each arm's steady-state backend misses, `(total, peak in 1 s)`.
fn check(passive: (u64, u64), active: (u64, u64)) -> Result<(), String> {
    ensure!(
        active.0 < passive.0,
        "active refresh missed {} times in steady state, passive TTL {}",
        active.0,
        passive.0
    );
    ensure!(
        active.1 < passive.1,
        "active refresh peaked at {} misses in 1 s, passive TTL at {}",
        active.1,
        passive.1
    );
    Ok(())
}

/// Print this experiment's report and check it; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Ablation: AU-LRU",
        "active refresh vs passive TTL expiry on a hot key set",
        "passive caches spike misses every TTL period; active refresh flattens them",
    );
    let seconds = 120;
    let passive = simulate(false, seconds);
    let active = simulate(true, seconds);
    println!("backend misses per second (after warm-up):");
    println!(
        "  passive [{}]",
        sparkline(&passive.iter().map(|&m| m as f64).collect::<Vec<_>>())
    );
    println!(
        "  active  [{}]",
        sparkline(&active.iter().map(|&m| m as f64).collect::<Vec<_>>())
    );
    // Steady-state window: skip the first TTL period.
    let steady = 30usize;
    let stats = |xs: &[u64]| {
        let window = &xs[steady..];
        let total: u64 = window.iter().sum();
        let peak = *window.iter().max().unwrap_or(&0);
        (total, peak)
    };
    let (p_total, p_peak) = stats(&passive);
    let (a_total, a_peak) = stats(&active);
    let rows = vec![
        vec![
            "total backend misses".into(),
            format!("{p_total}"),
            format!("{a_total}"),
        ],
        vec![
            "peak misses in 1 s (expiry spike)".into(),
            format!("{p_peak}"),
            format!("{a_peak}"),
        ],
    ];
    print_table(
        &["metric (steady state)", "passive TTL", "active refresh"],
        &rows,
    );
    println!(
        "\nexpiry-spike reduction: {}x",
        fmt(p_peak as f64 / a_peak.max(1) as f64, 1)
    );
    check((p_total, p_peak), (a_total, a_peak))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_each_doctored_fact() {
        crate::refuses_each(
            ((600, 132), (0, 0)),
            |&(passive, active)| check(passive, active),
            &[
                |(passive, active)| active.0 = passive.0,
                |(passive, active)| active.1 = passive.1,
            ],
        );
    }
}
