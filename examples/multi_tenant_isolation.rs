//! Multi-tenant isolation: a noisy neighbour meets the full ABase stack.
//!
//! Three tenants share one DataNode. Tenant 3 bursts to 20× its normal
//! traffic mid-run; the hierarchical quotas (proxy + partition) and the
//! dual-layer WFQ keep tenants 1 and 2 at full throughput and flat latency.
//!
//! Run with: `cargo run --release --example multi_tenant_isolation`

use abase::sim::isolation::{IsolationExperiment, TenantSpec};
use abase::sim::node::{DataNodeConfig, DataNodeSim};
use abase::sim::proxy::ProxyPlaneConfig;
use abase::workload::{KeyspaceConfig, TrafficShape};

fn tenant(id: u32, qps: f64, quota: f64) -> TenantSpec {
    TenantSpec {
        id,
        tenant_quota_ru: quota,
        partition: u64::from(id) * 100,
        partition_quota_ru: quota / 2.0,
        shape: TrafficShape::Steady(qps),
        keyspace: KeyspaceConfig {
            n_keys: 30_000,
            zipf_s: 0.95,
            read_ratio: 0.85,
            key_prefix: format!("t{id}"),
            ..Default::default()
        },
        proxy: ProxyPlaneConfig {
            n_proxies: 4,
            n_groups: 2,
            ..Default::default()
        },
    }
}

fn main() {
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 4_000.0,
            ..Default::default()
        },
    );
    let mut exp = IsolationExperiment::new(
        node,
        vec![
            tenant(1, 400.0, 1_200.0),
            tenant(2, 300.0, 1_200.0),
            tenant(3, 200.0, 800.0),
        ],
        42,
    );
    exp.set_minute_secs(5);

    println!("minute | t1 ok/err | t2 ok/err | t3 ok/err | worst p99 (ms)");
    let report = |points: &[abase::sim::isolation::MinutePoint]| {
        let mut minutes: Vec<u64> = points.iter().map(|p| p.minute).collect();
        minutes.sort_unstable();
        minutes.dedup();
        for minute in minutes {
            let get = |t: u32| {
                points
                    .iter()
                    .find(|p| p.minute == minute && p.tenant == t)
                    .cloned()
                    .expect("point")
            };
            let (a, b, c) = (get(1), get(2), get(3));
            let worst = a.p99_latency_ms.max(b.p99_latency_ms).max(c.p99_latency_ms);
            println!(
                "{minute:>6} | {:>5.0}/{:<4.0}| {:>5.0}/{:<4.0}| {:>5.0}/{:<4.0}| {worst:.1}",
                a.success_qps, a.error_qps, b.success_qps, b.error_qps, c.success_qps, c.error_qps
            );
        }
    };

    println!("--- calm period ---");
    let pts = exp.run_minutes(3);
    report(&pts);

    println!("--- tenant 3 bursts to 4000 qps (20x, far over quota) ---");
    exp.set_shape(3, TrafficShape::Steady(4_000.0));
    let pts = exp.run_minutes(4);
    report(&pts);

    println!("--- burst ends ---");
    exp.set_shape(3, TrafficShape::Steady(200.0));
    let pts = exp.run_minutes(3);
    report(&pts);

    println!();
    println!("Expected shape: t1/t2 throughput and latency unchanged throughout;");
    println!("t3's excess rejected at its proxy quota (err column) without collateral damage.");
}
