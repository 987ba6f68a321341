//! Figure 7 — Effectiveness of partition quota and dual-layer WFQ.
//!
//! Timeline (paper): partition quota disabled. Minute 10: tenant 1 directs a
//! skewed burst at one partition — within its *tenant* quota, so the proxy
//! passes it. The dual-layer WFQ keeps tenant 2's latency flat (success QPS
//! dips ~25 %), but tenant 1 — processed without node-side limits — sees a
//! ~20× latency increase. Minute 37: partition quota enabled; tenant 1's
//! success drops to the partition cap (excess rejected as errors), tenant 2
//! recovers fully, and success latencies stay low for both.

use crate::{banner, fmt, point, print_table};
use abase_sim::isolation::{IsolationExperiment, TenantSpec};
use abase_sim::node::{DataNodeConfig, DataNodeSim};
use abase_sim::proxy::ProxyPlaneConfig;
use abase_workload::{KeyspaceConfig, TrafficShape};

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Figure 7",
        "partition quota + dual-layer WFQ under a skewed partition burst",
        "WFQ holds T2 latency flat (QPS −25%); T1 latency ×20; quota at min 37 caps T1, T2 recovers",
    );
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 1_200.0,
            rejection_cost_ru: 0.02, // quota rejections at the queue entry are cheap
            max_queue_per_tenant: 2_000,
            cache_bytes: 16 << 20,
            ..Default::default()
        },
    );
    let keyspace = |prefix: &str, n: usize, zipf: f64| KeyspaceConfig {
        n_keys: n,
        zipf_s: zipf,
        read_ratio: 1.0,
        value_size: abase_workload::LogNormal::from_median_p90(1024.0, 2.0),
        key_prefix: prefix.to_string(),
    };
    let t1 = TenantSpec {
        id: 1,
        tenant_quota_ru: 100_000.0, // never the binding constraint here
        partition: 10,
        partition_quota_ru: 250.0,
        shape: TrafficShape::StepBurst {
            base: 200.0,
            burst: 2_400.0,
            start: 10 * 10_000_000,
            end: 45 * 10_000_000,
        },
        keyspace: keyspace("t1", 200_000, 0.4),
        proxy: ProxyPlaneConfig {
            n_proxies: 4,
            n_groups: 2,
            quota_enabled: false, // proxy does not intervene in this figure
            cache_enabled: false,
            ..Default::default()
        },
    };
    let t2 = TenantSpec {
        id: 2,
        tenant_quota_ru: 100_000.0,
        partition: 20,
        partition_quota_ru: 300.0,
        shape: TrafficShape::Steady(300.0),
        keyspace: keyspace("t2", 4_000, 1.1),
        proxy: ProxyPlaneConfig {
            n_proxies: 4,
            n_groups: 2,
            quota_enabled: false,
            cache_enabled: false,
            ..Default::default()
        },
    };
    let mut exp = IsolationExperiment::new(node, vec![t1, t2], 77);
    exp.set_minute_secs(10);
    let quota_enabled = |exp: &mut IsolationExperiment, on| {
        for partition in [10, 20] {
            let pipeline = exp.node_mut().pipeline();
            pipeline.set_partition_quota_enabled(partition, on);
        }
    };
    // Phase 1: partition quota disabled.
    quota_enabled(&mut exp, false);

    let mut all = exp.run_minutes(37);
    println!("\n[minute 37] turning ON the partition quota\n");
    quota_enabled(&mut exp, true);
    all.extend(exp.run_minutes(8));

    let mut rows = Vec::new();
    for minute in [0, 5, 9, 11, 15, 25, 36, 38, 42, 44] {
        let (p1, p2) = (point(&all, minute, 1), point(&all, minute, 2));
        let label = match minute {
            9 => " (pre-burst)",
            11 => " (burst)",
            38 => " (quota on)",
            _ => "",
        };
        rows.push(vec![
            format!("{minute}{label}"),
            fmt(p1.success_qps, 0),
            fmt(p1.error_qps, 0),
            fmt(p1.p99_latency_ms, 1),
            fmt(p2.success_qps, 0),
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
            "T2 p99 ms",
        ],
        &rows,
    );

    let at = |minute, tenant| point(&all, minute, tenant);
    let t1_pre = at(9, 1);
    let t1_mid = at(25, 1);
    let t1_post = at(42, 1);
    let t2_pre = at(9, 2);
    let t2_mid = at(25, 2);
    let t2_post = at(42, 2);
    println!("\nShape checks:");
    println!(
        "  T2 success dip during burst: {} -> {} qps ({}%)",
        fmt(t2_pre.success_qps, 0),
        fmt(t2_mid.success_qps, 0),
        fmt(
            (1.0 - t2_mid.success_qps / t2_pre.success_qps.max(1e-9)) * 100.0,
            0
        )
    );
    println!(
        "  T2 p99 stays flat: {} -> {} ms",
        fmt(t2_pre.p99_latency_ms, 1),
        fmt(t2_mid.p99_latency_ms, 1)
    );
    println!(
        "  T1 latency blow-up without node limits: {} -> {} ms ({}x)",
        fmt(t1_pre.p99_latency_ms, 1),
        fmt(t1_mid.p99_latency_ms, 1),
        fmt(t1_mid.p99_latency_ms / t1_pre.p99_latency_ms.max(1e-9), 0)
    );
    println!(
        "  After quota on: T1 capped at {} qps (errors {} qps), T2 back to {} qps, T1 p99 {} ms",
        fmt(t1_post.success_qps, 0),
        fmt(t1_post.error_qps, 0),
        fmt(t2_post.success_qps, 0),
        fmt(t1_post.p99_latency_ms, 1)
    );
    Ok(())
}
