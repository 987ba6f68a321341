//! Figure 6 — Effectiveness of proxy quota.
//!
//! Timeline (paper): two tenants on one DataNode, proxy quota disabled.
//! Minute 10: tenant 1 bursts far beyond its tenant quota; the node rejects
//! the excess at the partition quota but burns CPU doing so, and tenant 2's
//! success QPS collapses toward zero. Minute 35: tenant 1's proxy quota is
//! switched on; the proxy intercepts the excess, the node recovers, and both
//! tenants return to low latency.

use crate::{banner, fmt, point, print_table, SIMULATED_PROXY};
use abase_sim::isolation::{IsolationExperiment, TenantSpec};
use abase_sim::node::{DataNodeConfig, DataNodeSim};
use abase_sim::proxy::ProxyPlaneConfig;
use abase_workload::{KeyspaceConfig, TrafficShape};

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 6",
        "proxy quota shields co-tenants from burst traffic",
        "T1 burst at min 10 starves T2 (success→~0); proxy on at min 35 restores both",
    );
    println!("{SIMULATED_PROXY}");
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 2_000.0,
            rejection_cost_ru: 0.5,
            cache_bytes: 16 << 20,
            ..Default::default()
        },
    );
    // Tenant 1's burst is cache-unfriendly (broad, barely skewed keyspace):
    // bursts of cheap cache hits would legitimately fit in the RU quota, but
    // the figure studies *resource-consuming* excess traffic.
    let keyspace = |seed_prefix: &str, n_keys: usize, zipf: f64| KeyspaceConfig {
        n_keys,
        zipf_s: zipf,
        read_ratio: 1.0,
        key_prefix: seed_prefix.to_string(),
        ..Default::default()
    };
    let t1 = TenantSpec {
        id: 1,
        tenant_quota_ru: 800.0,
        partition: 10,
        partition_quota_ru: 800.0,
        shape: TrafficShape::StepBurst {
            base: 200.0,
            burst: 8_000.0,
            start: 10 * 10_000_000, // minute 10 (compressed: 10 s/min)
            end: 45 * 10_000_000,
        },
        keyspace: keyspace("t1", 200_000, 0.3),
        proxy: ProxyPlaneConfig {
            n_proxies: 4,
            n_groups: 2,
            quota_enabled: false, // the experiment's starting state
            cache_enabled: false,
            ..Default::default()
        },
    };
    let t2 = TenantSpec {
        id: 2,
        tenant_quota_ru: 800.0,
        partition: 20,
        partition_quota_ru: 800.0,
        shape: TrafficShape::Steady(400.0),
        keyspace: keyspace("t2", 20_000, 0.9),
        proxy: ProxyPlaneConfig {
            n_proxies: 4,
            n_groups: 2,
            quota_enabled: true,
            cache_enabled: false,
            ..Default::default()
        },
    };
    let mut exp = IsolationExperiment::new(node, vec![t1, t2], 66);
    exp.set_minute_secs(10);

    let mut all = exp.run_minutes(35);
    println!("\n[minute 35] turning ON tenant 1's proxy quota restriction\n");
    exp.plane_mut(1).set_quota_enabled(true);
    all.extend(exp.run_minutes(10));

    let mut rows = Vec::new();
    for minute in [0, 5, 9, 11, 15, 25, 34, 36, 40, 44] {
        let (p1, p2) = (point(&all, minute, 1), point(&all, minute, 2));
        let label = match minute {
            9 => " (pre-burst)",
            11 => " (burst)",
            36 => " (proxy on)",
            _ => "",
        };
        rows.push(vec![
            format!("{minute}{label}"),
            fmt(p1.success_qps, 0),
            fmt(p1.error_qps, 0),
            fmt(p1.p99_latency_ms, 1),
            fmt(p2.success_qps, 0),
            fmt(p2.error_qps, 0),
            fmt(p2.p99_latency_ms, 1),
        ]);
    }
    print_table(
        &[
            "minute",
            "T1 ok qps",
            "T1 err qps",
            "T1 p99 ms",
            "T2 ok qps",
            "T2 err qps",
            "T2 p99 ms",
        ],
        &rows,
    );

    let t2_at = |minute| point(&all, minute, 2).success_qps;
    println!("\nShape checks (paper: T2 → ~0 during burst; recovery after proxy on):");
    println!("  T2 pre-burst  (min 9) : {} qps", fmt(t2_at(9), 0));
    println!("  T2 mid-burst  (min 25): {} qps", fmt(t2_at(25), 0));
    println!("  T2 recovered  (min 44): {} qps", fmt(t2_at(44), 0));
    let starved = t2_at(25) < t2_at(9) * 0.2;
    let recovered = t2_at(44) > t2_at(9) * 0.8;
    println!("  starvation during burst: {starved}; recovery after proxy on: {recovered}");
    Ok(())
}
