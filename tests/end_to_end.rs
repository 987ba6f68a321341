//! Cross-crate integration tests: the full request path and control loops.

use abase::core::engine::TableEngine;
use abase::lavastore::DbConfig;
use abase::proto::{Command, RespValue};
use abase::scheduler::{AutoscaleConfig, Autoscaler, ScalingDecision};
use abase::sim::isolation::{IsolationExperiment, TenantSpec};
use abase::sim::node::{DataNodeConfig, DataNodeSim};
use abase::sim::proxy::ProxyPlaneConfig;
use abase::util::clock::days;
use abase::util::TestDir;
use abase::util::TimeSeries;
use abase::workload::{KeyspaceConfig, TrafficShape};

/// RESP bytes in → engine → RESP bytes out, across tenants and a restart.
#[test]
fn resp_wire_to_storage_and_back() {
    let dir = TestDir::new("wire");
    {
        let engine = TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        // A client sends raw RESP for: SET k v EX 100 / GET k.
        let wire = b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n$2\r\nEX\r\n$3\r\n100\r\n".to_vec();
        let (value, _) = RespValue::parse(&wire).unwrap().unwrap();
        let cmd = Command::from_resp(&value).unwrap();
        let out = engine.execute(9, &cmd, 0).unwrap();
        assert_eq!(out.reply.to_bytes(), b"+OK\r\n");
        let get = Command::from_resp(
            &RespValue::parse(b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n")
                .unwrap()
                .unwrap()
                .0,
        )
        .unwrap();
        let out = engine.execute(9, &get, 50_000_000).unwrap();
        assert_eq!(out.reply.to_bytes(), b"$1\r\nv\r\n");
        // Another tenant sees nothing.
        let out = engine.execute(10, &get, 0).unwrap();
        assert_eq!(out.reply, RespValue::Bulk(None));
    }
    // Restart: WAL replay keeps the data (within its TTL).
    let engine = TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap();
    let get: Command = Command::Get { key: "k".into() };
    assert_eq!(
        engine.execute(9, &get, 50_000_000).unwrap().reply,
        RespValue::bulk("v")
    );
    // And TTL expiry still applies after recovery.
    assert_eq!(
        engine.execute(9, &get, 101_000_000).unwrap().reply,
        RespValue::Bulk(None)
    );
}

fn spec(id: u32, qps: f64) -> TenantSpec {
    TenantSpec {
        id,
        tenant_quota_ru: 1_500.0,
        partition: u64::from(id) * 10,
        partition_quota_ru: 750.0,
        shape: TrafficShape::Steady(qps),
        keyspace: KeyspaceConfig {
            n_keys: 10_000,
            zipf_s: 1.0,
            read_ratio: 0.9,
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

/// The full proxy→quota→WFQ→cache pipeline conserves requests: offered =
/// success + errors (nothing silently dropped once queues drain).
#[test]
fn pipeline_conserves_requests() {
    let node = DataNodeSim::new(1, DataNodeConfig::default());
    let mut exp = IsolationExperiment::new(node, vec![spec(1, 300.0), spec(2, 500.0)], 3);
    exp.set_minute_secs(5);
    let points = exp.run_minutes(6);
    for tenant in [1u32, 2] {
        let offered: f64 = if tenant == 1 { 300.0 } else { 500.0 };
        // Skip the first minute (queue fill) and last (queue drain).
        for p in points.iter().filter(|p| p.tenant == tenant && p.minute > 0) {
            let seen = p.success_qps + p.error_qps;
            assert!(
                (seen - offered).abs() < offered * 0.1,
                "tenant {tenant} minute {}: offered {offered} saw {seen}",
                p.minute
            );
        }
    }
}

/// Cache warm-up raises the combined hit ratio, which in turn lowers the
/// latency profile (the cache-aware pipeline working end to end).
#[test]
fn warmup_raises_hit_ratio_and_lowers_latency() {
    let node = DataNodeSim::new(1, DataNodeConfig::default());
    let mut exp = IsolationExperiment::new(node, vec![spec(1, 500.0)], 5);
    exp.set_minute_secs(10);
    let points = exp.run_minutes(5);
    let first = &points[0];
    let last = &points[4];
    assert!(
        last.cache_hit_ratio > first.cache_hit_ratio + 0.1,
        "hit ratio did not climb: {} -> {}",
        first.cache_hit_ratio,
        last.cache_hit_ratio
    );
    assert!(last.p99_latency_ms <= first.p99_latency_ms + 0.5);
}

/// Forecast → Algorithm 1 → partition split: a tenant growing past the split
/// bound UP doubles its partitions.
#[test]
fn growth_triggers_scale_up_and_split() {
    const HOUR: u64 = 3_600_000_000;
    let mut autoscaler = Autoscaler::new(AutoscaleConfig {
        partition_quota_upper: 400.0,
    });
    // 30 days of growth toward 2.5k RU/s.
    let usage: Vec<f64> = (0..720).map(|t| 800.0 + 2.2 * t as f64).collect();
    let series = TimeSeries::new(0, HOUR, usage);
    let (decision, output) = autoscaler.forecast_and_decide(1, days(30), &series, 2_600.0, 4);
    assert!(output.peak > 2_300.0, "peak={}", output.peak);
    match decision {
        ScalingDecision::ScaleUp {
            new_partitions,
            split,
            new_partition_quota,
            ..
        } => {
            assert!(split, "expected a partition split");
            assert_eq!(new_partitions, 8);
            assert!(new_partition_quota <= 400.0 * 1.5);
        }
        other => panic!("expected ScaleUp, got {other:?}"),
    }
}

/// Proxy-cache reads bypass the node entirely: with a scorching keyspace the
/// node sees a small fraction of offered traffic.
#[test]
fn proxy_cache_absorbs_hot_traffic() {
    let node = DataNodeSim::new(
        1,
        DataNodeConfig {
            cpu_ru_per_sec: 500.0, // tiny node: would melt without the proxy cache
            ..Default::default()
        },
    );
    let mut hot = spec(1, 2_000.0);
    hot.keyspace.n_keys = 50;
    hot.keyspace.zipf_s = 1.2;
    hot.keyspace.read_ratio = 1.0;
    let mut exp = IsolationExperiment::new(node, vec![hot], 8);
    exp.set_minute_secs(5);
    let points = exp.run_minutes(4);
    let last = points.last().unwrap();
    assert!(
        last.proxy_hit_ratio > 0.9,
        "proxy hit ratio {}",
        last.proxy_hit_ratio
    );
    assert!(
        last.success_qps > 1_800.0,
        "hot tenant throttled despite cache: {} qps",
        last.success_qps
    );
}
